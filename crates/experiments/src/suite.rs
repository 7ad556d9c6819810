//! Declarative experiment suites: the grid the paper's evidence lives on.
//!
//! The paper reports tables and figures over dataset × model × attack ×
//! defense × hyper-parameter grids. Instead of hand-wiring those loops per
//! binary, a [`Sweep`] *declares* its axes —
//!
//! ```ignore
//! let sweep = Sweep::new("defenses", "Table IV — defenses (MF-FRS)")
//!     .over_models([ModelKind::Mf])
//!     .over_attacks([AttackKind::AHum, AttackKind::PieckIpe, AttackKind::PieckUea])
//!     .over_defenses(DefenseKind::all())
//!     .rounds(150);
//! ```
//!
//! — and an [`ExperimentSuite`] groups named sweeps, expands them into a
//! scenario grid ([`ExperimentSuite::cells`]), executes all cells **in
//! parallel** across worker threads ([`ExperimentSuite::run`]; results are
//! bit-identical to a sequential run because every cell is independently
//! seeded and results are placed by grid index), and renders a unified
//! [`Report`] with Markdown/CSV/JSON sinks.
//!
//! Everything in a suite is plain serde-serializable data: attacks and
//! defenses are catalog names plus a canonical params payload
//! ([`AttackSel`], [`DefenseSel`], e.g. `ours:beta=0.9`), variant axes are
//! [`ConfigPatch`] value patches. A suite can therefore be written to
//! JSON, inspected, or rebuilt in another process from that JSON alone.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use frs_attacks::{AttackKind, AttackSel};
use frs_defense::DefenseSel;
use frs_federation::pool::map_ordered;
use frs_federation::{ClientsPerRound, CoreBudget, RoundThreads};
use frs_model::{LossKind, ModelKind};
use serde::{Deserialize, Serialize};

use crate::cache::{scenario_key, SuiteCache};
use crate::presets::{paper_scenario, PaperDataset};
use crate::progress::{CellEvent, ProgressSink, SuiteAborted};
use crate::report::{pct, Report, Table};
use crate::scenario::{self, ScenarioConfig, ScenarioOutcome, ScenarioRun};

/// A named, serializable patch over a [`ScenarioConfig`] — the "everything
/// else" axis of a sweep (evaluation cutoff, learning-rate schedules, loss,
/// defense ablation switches, …). Fields left `None` keep the base value.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ConfigPatch {
    /// Row label in reports (empty for the identity patch).
    pub label: String,
    pub eval_k: Option<usize>,
    pub n_targets: Option<usize>,
    /// Overrides the mined popular-set size `N` — written into the cell's
    /// attack/defense selection params (`top_n`), and only for the sides
    /// whose schema declares the key, so an inert flip (e.g. on a
    /// NoAttack × NoDefense cell) does not duplicate cache cells. The
    /// per-attack default policy lives on the sweep.
    pub mined_top_n: Option<usize>,
    pub malicious_ratio: Option<f64>,
    pub negative_ratio: Option<usize>,
    pub loss: Option<LossKind>,
    pub client_learning_rate: Option<f32>,
    pub client_lr_cycle: Option<(f32, f32)>,
    /// `Ours`-defense ablation switches (Table VI right), written into the
    /// cell's `DefenseSel` params — and only when the cell's defense
    /// declares the key, so defense-axis overrides to other rules ignore
    /// them.
    pub use_re1: Option<bool>,
    pub use_re2: Option<bool>,
}

impl ConfigPatch {
    /// An identity patch with a report label.
    pub fn labeled(label: impl Into<String>) -> Self {
        Self {
            label: label.into(),
            ..Self::default()
        }
    }

    /// Applies every set field onto `cfg`.
    pub fn apply(&self, cfg: &mut ScenarioConfig) {
        if let Some(v) = self.eval_k {
            cfg.eval_k = v;
        }
        if let Some(v) = self.n_targets {
            cfg.n_targets = v;
        }
        if let Some(v) = self.malicious_ratio {
            cfg.malicious_ratio = v;
        }
        if let Some(v) = self.negative_ratio {
            cfg.federation.negative_ratio = v;
        }
        if let Some(v) = self.loss {
            cfg.federation.loss = v;
        }
        if let Some(v) = self.client_learning_rate {
            cfg.federation.client_learning_rate = Some(v);
        }
        if let Some(v) = self.client_lr_cycle {
            cfg.federation.client_lr_cycle = Some(v);
        }
        // Attack hyper-parameters route through the selection's canonical
        // params payload, mirroring the defense knobs below: a key is
        // applied only when the cell's resolved attack declares it, so an
        // inert knob flip (mined N on a mining-free attack) cannot re-key —
        // and thereby duplicate — cache cells whose outcome it cannot
        // change.
        if let Some(v) = self.mined_top_n {
            if cfg.attack.accepts("top_n") {
                cfg.attack.set_param("top_n", v);
            }
        }
        // Defense hyper-parameters route through the selection's canonical
        // params payload — the catalog API every defense (the paper's
        // included) is configured by. A key is applied only when the cell's
        // resolved defense declares it, so a `--defense krum` override
        // running through table6's `ours`-specific ablation variants skips
        // the inapplicable switches instead of panicking mid-sweep.
        if let Some(v) = self.use_re1 {
            if cfg.defense.accepts("re1") {
                cfg.defense.set_param("re1", v);
            }
        }
        if let Some(v) = self.use_re2 {
            if cfg.defense.accepts("re2") {
                cfg.defense.set_param("re2", v);
            }
        }
        // The mined-N override is shared: the paper's defense mines with
        // the same `N` as the attacker (Section V-B), so a defense whose
        // schema declares `top_n` receives the override too.
        if let Some(v) = self.mined_top_n {
            if cfg.defense.accepts("top_n") {
                cfg.defense.set_param("top_n", v);
            }
        }
    }
}

/// Run-time knobs shared by every cell of a suite (the CLI's common flags).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunOptions {
    /// Dataset scale factor in `(0, 1]`.
    pub scale: f64,
    /// Root seed.
    pub seed: u64,
    /// Overrides every command's round count when set.
    pub rounds: Option<usize>,
    /// Core budget of the run: worker threads executing grid cells, and —
    /// under `round_threads: Auto` — the pool the per-cell leases draw from
    /// (1 = sequential; results are identical either way).
    pub threads: usize,
    /// Per-round client fan-out policy stamped onto every cell.
    /// [`RoundThreads::Auto`] leases each executing cell its fair share of
    /// the `threads` budget, growing as the frontier drains; `Fixed(n)`
    /// freezes the width. Execution-only: outcomes, reports, and cache keys
    /// are identical under every policy.
    pub round_threads: RoundThreads,
    /// When set, collapses every sweep's attack axis to this single
    /// (possibly parameterized) selection, and sets it on every other
    /// scenario — the CLI's `--attack name[:k=v,…]` override.
    pub attack: Option<AttackSel>,
    /// When set, collapses every sweep's defense axis to this single
    /// (possibly parameterized) selection, and sets it on every other
    /// scenario — the CLI's `--defense name[:k=v,…]` override.
    pub defense: Option<DefenseSel>,
    /// When set, collapses every sweep's dataset axis to this dataset, and
    /// replaces every other command's default — the CLI's
    /// `--dataset ml100k|ml1m|az|file:PATH` override.
    pub dataset: Option<PaperDataset>,
    /// When set, overrides every scenario's per-round sample width `|U^r|` —
    /// the CLI's `--clients-per-round COUNT|FRACTION|PCT%` override. Part of
    /// the scenario config, so it re-keys the cache (unlike `round_threads`).
    pub clients_per_round: Option<ClientsPerRound>,
}

impl Default for RunOptions {
    fn default() -> Self {
        Self {
            scale: 0.25,
            seed: 7,
            rounds: None,
            threads: default_threads(),
            round_threads: RoundThreads::default(),
            attack: None,
            defense: None,
            dataset: None,
            clients_per_round: None,
        }
    }
}

impl RunOptions {
    /// The scenario a command runs: [`paper_scenario`] on `--dataset`, else
    /// on the command's own `dataset`, for `rounds` rounds, under the run's
    /// overrides ([`RunOptions::apply`]). Every `paper` command builds its
    /// scenarios here, suite cells included.
    pub(crate) fn scenario(
        &self,
        dataset: PaperDataset,
        kind: ModelKind,
        rounds: usize,
    ) -> ScenarioConfig {
        let dataset = self.dataset.clone().unwrap_or(dataset);
        let mut cfg = paper_scenario(dataset, kind, self.scale, self.seed);
        cfg.rounds = rounds;
        self.apply(&mut cfg);
        cfg
    }

    /// Applies the run's overrides onto `cfg`: `--rounds`, `--attack`,
    /// `--defense`, `--clients-per-round` and `--round-threads`. `paper
    /// scale` applies them to its own population.
    pub(crate) fn apply(&self, cfg: &mut ScenarioConfig) {
        if let Some(rounds) = self.rounds {
            cfg.rounds = rounds;
        }
        if let Some(attack) = &self.attack {
            cfg.attack = attack.clone();
        }
        if let Some(defense) = &self.defense {
            cfg.defense = defense.clone();
        }
        if let Some(cpr) = self.clients_per_round {
            cfg.federation.clients_per_round = cpr;
        }
        cfg.federation.round_threads = self.round_threads;
    }
}

/// Worker count matching the machine (the size [`CoreBudget::machine`]
/// reports), bounded to keep memory sane.
pub fn default_threads() -> usize {
    CoreBudget::machine().total().min(16)
}

/// One declarative axis product over scenarios.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Sweep {
    /// Stable identifier (used in report sections and cell coordinates).
    pub name: String,
    /// Section heading in reports.
    pub title: String,
    datasets: Vec<PaperDataset>,
    models: Vec<ModelKind>,
    attacks: Vec<AttackSel>,
    defenses: Vec<DefenseSel>,
    variants: Vec<ConfigPatch>,
    rounds: usize,
    /// Mined popular-set size `N` for non-UEA attacks.
    mined_n: usize,
    /// The paper mines a larger set for UEA (N=30 at reproduction scale).
    uea_mined_n: usize,
    eval_k: Option<usize>,
    trend_every: usize,
}

impl Sweep {
    /// A single-cell sweep (ML-100K, MF, no attack, no defense) to grow from.
    pub fn new(name: impl Into<String>, title: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            title: title.into(),
            datasets: vec![PaperDataset::Ml100k],
            models: vec![ModelKind::Mf],
            attacks: vec![AttackSel::none()],
            defenses: vec![DefenseSel::none()],
            variants: vec![ConfigPatch::default()],
            rounds: 150,
            mined_n: 10,
            uea_mined_n: 30,
            eval_k: None,
            trend_every: 0,
        }
    }

    /// Sweeps over paper datasets.
    pub fn over_datasets(mut self, datasets: impl IntoIterator<Item = PaperDataset>) -> Self {
        self.datasets = datasets.into_iter().collect();
        assert!(!self.datasets.is_empty(), "sweep needs ≥ 1 dataset");
        self
    }

    /// Sweeps over base-model families.
    pub fn over_models(mut self, models: impl IntoIterator<Item = ModelKind>) -> Self {
        self.models = models.into_iter().collect();
        assert!(!self.models.is_empty(), "sweep needs ≥ 1 model");
        self
    }

    /// Sweeps over attacks — enum kinds or any catalog name.
    pub fn over_attacks<I, A>(mut self, attacks: I) -> Self
    where
        I: IntoIterator<Item = A>,
        A: Into<AttackSel>,
    {
        self.attacks = attacks.into_iter().map(Into::into).collect();
        assert!(!self.attacks.is_empty(), "sweep needs ≥ 1 attack");
        self
    }

    /// Sweeps over defenses — enum kinds or any catalog name.
    pub fn over_defenses<I, D>(mut self, defenses: I) -> Self
    where
        I: IntoIterator<Item = D>,
        D: Into<DefenseSel>,
    {
        self.defenses = defenses.into_iter().map(Into::into).collect();
        assert!(!self.defenses.is_empty(), "sweep needs ≥ 1 defense");
        self
    }

    /// Sweeps over labelled configuration patches (the free-form axis).
    pub fn over_variants(mut self, variants: impl IntoIterator<Item = ConfigPatch>) -> Self {
        self.variants = variants.into_iter().collect();
        assert!(!self.variants.is_empty(), "sweep needs ≥ 1 variant");
        self
    }

    /// Communication rounds per cell (CLI `--rounds` overrides).
    pub fn rounds(mut self, rounds: usize) -> Self {
        self.rounds = rounds;
        self
    }

    /// Evaluation cutoff `K`.
    pub fn eval_k(mut self, k: usize) -> Self {
        self.eval_k = Some(k);
        self
    }

    /// Mined popular-set sizes: `default` for most attacks, `uea` for
    /// PIECK-UEA (the paper mines a larger set there).
    pub fn mined_n(mut self, default: usize, uea: usize) -> Self {
        self.mined_n = default;
        self.uea_mined_n = uea;
        self
    }

    /// Records the ER/HR trend every `every` rounds (Fig. 6a).
    pub fn trend_every(mut self, every: usize) -> Self {
        self.trend_every = every;
        self
    }

    /// Number of cells this sweep expands to.
    pub fn cell_count(&self) -> usize {
        self.datasets.len()
            * self.models.len()
            * self.attacks.len()
            * self.defenses.len()
            * self.variants.len()
    }

    /// Expands the axes into fully materialized cells, in deterministic
    /// dataset → model → variant → attack → defense order. The run-level
    /// `--attack` / `--defense` / `--dataset` overrides (when set) collapse
    /// their axis to the single overriding value.
    pub fn expand(&self, opts: &RunOptions) -> Vec<Cell> {
        let datasets: Vec<PaperDataset> = match &opts.dataset {
            Some(d) => vec![d.clone()],
            None => self.datasets.clone(),
        };
        let attacks: Vec<AttackSel> = match &opts.attack {
            Some(a) => vec![a.clone()],
            None => self.attacks.clone(),
        };
        let defenses: Vec<DefenseSel> = match &opts.defense {
            Some(d) => vec![d.clone()],
            None => self.defenses.clone(),
        };
        let mut cells = Vec::with_capacity(self.cell_count());
        for dataset in &datasets {
            for &model in &self.models {
                for variant in &self.variants {
                    for attack in &attacks {
                        for defense in &defenses {
                            let mut config = opts.scenario(dataset.clone(), model, self.rounds);
                            config.attack = attack.clone();
                            config.defense = defense.clone();
                            config.trend_every = self.trend_every;
                            if let Some(k) = self.eval_k {
                                config.eval_k = k;
                            }
                            config.mined_top_n = if *attack == AttackKind::PieckUea {
                                self.uea_mined_n
                            } else {
                                self.mined_n
                            };
                            variant.apply(&mut config);
                            cells.push(Cell {
                                sweep: self.name.clone(),
                                dataset: dataset.clone(),
                                model,
                                attack: attack.clone(),
                                defense: defense.clone(),
                                variant: variant.label.clone(),
                                config,
                            });
                        }
                    }
                }
            }
        }
        cells
    }
}

/// One grid point: its coordinates plus the fully materialized scenario.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Cell {
    pub sweep: String,
    pub dataset: PaperDataset,
    pub model: ModelKind,
    pub attack: AttackSel,
    pub defense: DefenseSel,
    /// Label of the [`ConfigPatch`] variant (empty for the identity patch).
    pub variant: String,
    pub config: ScenarioConfig,
}

/// A finished cell.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CellResult {
    pub cell: Cell,
    pub outcome: ScenarioOutcome,
}

/// A named collection of sweeps — one paper table or figure.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExperimentSuite {
    /// Stable identifier; used as the report slug (`table4`, `fig5`, …).
    pub name: String,
    /// Report title.
    pub title: String,
    pub sweeps: Vec<Sweep>,
}

impl ExperimentSuite {
    pub fn new(name: impl Into<String>, title: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            title: title.into(),
            sweeps: Vec::new(),
        }
    }

    /// Appends a sweep (one report section).
    pub fn sweep(mut self, sweep: Sweep) -> Self {
        self.sweeps.push(sweep);
        self
    }

    /// Total cells across all sweeps.
    pub fn cell_count(&self) -> usize {
        self.sweeps.iter().map(Sweep::cell_count).sum::<usize>()
    }

    /// The full expanded grid, in declaration order.
    pub fn cells(&self, opts: &RunOptions) -> Vec<Cell> {
        self.sweeps.iter().flat_map(|s| s.expand(opts)).collect()
    }

    /// Runs every cell, fanning out over `opts.threads` workers. The result
    /// is cell-for-cell identical regardless of thread count: cells are
    /// independently seeded and land at their grid index.
    pub fn run(&self, opts: &RunOptions) -> SuiteResult {
        self.run_with(opts, &ExecOptions::default())
            .expect("no sink to abort an ExecOptions::default() run")
    }

    /// Runs every cell like [`ExperimentSuite::run`], additionally consulting
    /// a content-addressed [`SuiteCache`] (hit ⇒ the simulation is skipped
    /// entirely; miss ⇒ the fresh outcome is persisted) and streaming one
    /// [`CellEvent`] per finished cell to `exec.sink`.
    ///
    /// Cached outcomes are bit-identical to fresh ones — the cell's config
    /// fully seeds its simulation and the cache round-trips every metric —
    /// so reports rendered from a warm run match the cold run byte for byte.
    ///
    /// Returns `Err(SuiteAborted)` when the sink stopped the run before the
    /// grid completed; with a cache attached, everything finished up to that
    /// point is persisted, and a re-run resumes from it.
    pub fn run_with(
        &self,
        opts: &RunOptions,
        exec: &ExecOptions<'_>,
    ) -> Result<SuiteResult, SuiteAborted> {
        let cells = self.cells(opts);
        let n = cells.len();
        let stop = AtomicBool::new(false);
        // One scheduler for both parallelism layers: the suite's `threads`
        // are the core budget, and every executing `Auto` cell leases its
        // fair share for intra-round fan-out. A caller-provided budget
        // (ExecOptions) spans several suites (`paper all`); otherwise the
        // run owns a private one.
        let own_budget;
        let budget: &CoreBudget = match exec.budget {
            Some(shared) => shared,
            None => {
                own_budget = CoreBudget::new(opts.threads);
                &own_budget
            }
        };

        // Cells run on the round pool, which places each result at its grid
        // index. Once the sink or a shutdown stops the run, the cells not
        // yet started come back as `None`. A panicking cell (e.g. an unknown
        // attack name) propagates out as a panic.
        let indexed: Vec<(usize, Cell)> = cells.into_iter().enumerate().collect();
        let finished = map_ordered(indexed, opts.threads, |(i, cell)| {
            if stop.load(Ordering::SeqCst) {
                return None;
            }
            let started = Instant::now(); // lint:allow(unseeded-entropy): wall-clock progress logging only; durations never reach reports or cache keys

            // Canonical-JSON + SHA-256 per cell is only worth paying when
            // something consumes the key.
            let key = if exec.cache.is_some() || exec.sink.is_some() {
                scenario_key(&cell.config)
            } else {
                String::new()
            };
            let cached = exec.cache.and_then(|cache| cache.load(&key));
            let cache_hit = cached.is_some();
            let outcome = match cached {
                Some(outcome) => outcome,
                None => {
                    // Only cells that will actually simulate hold a lease
                    // (`ScenarioRun` takes one under `Auto`) — cache hits
                    // must not dilute the shares of the cells doing real
                    // work.
                    let ctl = exec.cache.and_then(|cache| {
                        (exec.checkpoint_every > 0).then_some(scenario::CheckpointCtl {
                            cache,
                            key: &key,
                            every: exec.checkpoint_every,
                            keep: exec.checkpoint_keep,
                        })
                    });
                    let outcome = match ctl {
                        Some(ctl) => {
                            match scenario::run_checkpointed(&cell.config, Some(budget), &ctl) {
                                Ok(outcome) => outcome,
                                Err(scenario::Interrupted) => {
                                    // The final checkpoint is on disk; the
                                    // run surfaces as aborted with every
                                    // finished cell cached.
                                    stop.store(true, Ordering::SeqCst);
                                    return None;
                                }
                            }
                        }
                        None => ScenarioRun::new(cell.config.clone(), Some(budget)).finish(),
                    };
                    if let Some(cache) = exec.cache {
                        if let Err(e) = cache.store(&key, &outcome) {
                            eprintln!("suite cache store failed for {key}: {e}");
                        }
                    }
                    outcome
                }
            };
            if let Some(sink) = exec.sink {
                let event = CellEvent {
                    suite: self.name.clone(),
                    sweep: cell.sweep.clone(),
                    index: i,
                    total: n,
                    key,
                    dataset: cell.dataset.name(),
                    model: cell.model.label().to_string(),
                    attack: cell.attack.label(),
                    // From the materialized config, not the axis selection:
                    // variant patches write params too.
                    attack_params: cell.config.attack.params().to_string(),
                    defense: cell.defense.label(),
                    defense_params: cell.config.defense.params().to_string(),
                    variant: cell.variant.clone(),
                    rounds: cell.config.rounds,
                    cache_hit,
                    round_threads: outcome.max_round_threads,
                    wall_ms: started.elapsed().as_secs_f64() * 1e3,
                    er_percent: outcome.er_percent,
                    hr_percent: outcome.hr_percent,
                };
                if !sink.cell_finished(&event) {
                    stop.store(true, Ordering::SeqCst);
                }
            }
            Some(CellResult { cell, outcome })
        });

        let completed = finished.iter().filter(|r| r.is_some()).count();
        if completed < n {
            return Err(SuiteAborted {
                completed,
                total: n,
                cached: exec.cache.is_some(),
            });
        }
        let all: Vec<CellResult> = finished.into_iter().flatten().collect();

        let sweeps = self
            .sweeps
            .iter()
            .map(|s| SweepResult {
                name: s.name.clone(),
                title: s.title.clone(),
                cells: all
                    .iter()
                    .filter(|r| r.cell.sweep == s.name)
                    .cloned()
                    .collect(),
            })
            .collect();

        Ok(SuiteResult {
            name: self.name.clone(),
            title: self.title.clone(),
            sweeps,
        })
    }
}

/// Execution-layer options for [`ExperimentSuite::run_with`]: shared across
/// every cell of a run, orthogonal to the grid itself ([`RunOptions`]).
#[derive(Clone, Copy, Default)]
pub struct ExecOptions<'a> {
    /// Content-addressed outcome cache; `None` recomputes every cell.
    pub cache: Option<&'a SuiteCache>,
    /// Per-cell progress sink; `None` runs silently.
    pub sink: Option<&'a dyn ProgressSink>,
    /// Shared core budget for `RoundThreads::Auto` cells. `None` gives each
    /// `run_with` call a private budget sized to `RunOptions::threads`; the
    /// CLI passes one budget across all commands of an invocation so
    /// `paper all` never oversubscribes the machine.
    pub budget: Option<&'a CoreBudget>,
    /// Mid-run checkpoint interval in rounds (0 = off). Requires `cache`:
    /// executing cells persist their state every N rounds beside their
    /// eventual cache entry, resume from an existing checkpoint, and honour
    /// shutdown requests (final checkpoint, then the run aborts with every
    /// finished cell cached).
    pub checkpoint_every: usize,
    /// Checkpoint generations retained per cell (`--keep-checkpoints`;
    /// 0 or 1 keep only the newest sidecar).
    pub checkpoint_keep: usize,
}

/// Results of one sweep, in grid order.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepResult {
    pub name: String,
    pub title: String,
    pub cells: Vec<CellResult>,
}

/// An axis of a sweep grid, for pivoted report tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Axis {
    Dataset,
    Model,
    Attack,
    Defense,
    Variant,
}

impl Axis {
    fn key(&self, cell: &Cell) -> String {
        match self {
            Axis::Dataset => cell.dataset.name(),
            Axis::Model => cell.model.label().to_string(),
            Axis::Attack => cell.attack.label(),
            Axis::Defense => cell.defense.label(),
            Axis::Variant => cell.variant.clone(),
        }
    }

    fn heading(&self) -> &'static str {
        match self {
            Axis::Dataset => "Dataset",
            Axis::Model => "Model",
            Axis::Attack => "Attack",
            Axis::Defense => "Defense",
            Axis::Variant => "Variant",
        }
    }
}

impl SweepResult {
    /// Long-format table: one row per cell with every coordinate and metric —
    /// the canonical CSV/JSON payload.
    pub fn long_table(&self) -> Table {
        let mut table = Table::new(&[
            "dataset", "model", "attack", "defense", "variant", "rounds", "K", "ER", "HR", "NDCG",
        ]);
        for r in &self.cells {
            table.row(&[
                r.cell.dataset.name(),
                r.cell.model.label().to_string(),
                r.cell.attack.label(),
                r.cell.defense.label(),
                r.cell.variant.clone(),
                r.cell.config.rounds.to_string(),
                r.cell.config.eval_k.to_string(),
                pct(r.outcome.er_percent),
                pct(r.outcome.hr_percent),
                format!("{:.4}", r.outcome.ndcg),
            ]);
        }
        table
    }

    /// Paper-style pivot: `rows` axis down the side, `cols` axis across,
    /// each column split into ER/HR. Cells missing from the grid render
    /// as `-`; duplicate coordinates keep the first run.
    pub fn pivot(&self, rows: Axis, cols: Axis) -> Table {
        let mut row_keys: Vec<String> = Vec::new();
        let mut col_keys: Vec<String> = Vec::new();
        for r in &self.cells {
            let rk = rows.key(&r.cell);
            if !row_keys.contains(&rk) {
                row_keys.push(rk);
            }
            let ck = cols.key(&r.cell);
            if !col_keys.contains(&ck) {
                col_keys.push(ck);
            }
        }
        let mut header = vec![rows.heading().to_string()];
        for ck in &col_keys {
            // The identity variant has an empty label; bare ER/HR reads best.
            let prefix = if ck.is_empty() {
                String::new()
            } else {
                format!("{ck} ")
            };
            header.push(format!("{prefix}ER"));
            header.push(format!("{prefix}HR"));
        }
        let mut table = Table::from_header(header);
        for rk in &row_keys {
            let mut cells = vec![rk.clone()];
            for ck in &col_keys {
                match self
                    .cells
                    .iter()
                    .find(|r| &rows.key(&r.cell) == rk && &cols.key(&r.cell) == ck)
                {
                    Some(r) => {
                        cells.push(pct(r.outcome.er_percent));
                        cells.push(pct(r.outcome.hr_percent));
                    }
                    None => {
                        cells.push("-".into());
                        cells.push("-".into());
                    }
                }
            }
            table.row(&cells);
        }
        table
    }
}

/// Results of a whole suite.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SuiteResult {
    pub name: String,
    pub title: String,
    pub sweeps: Vec<SweepResult>,
}

impl SuiteResult {
    /// Renders every sweep as a long-format report section.
    pub fn report(&self) -> Report {
        let mut report = Report::new(self.name.clone(), self.title.clone());
        for sweep in &self.sweeps {
            report.section(sweep.title.clone(), sweep.long_table());
        }
        report
    }

    /// Renders every sweep pivoted (`rows` × `cols` ER/HR pairs) — the
    /// layout most paper tables use.
    pub fn pivot_report(&self, rows: Axis, cols: Axis) -> Report {
        let mut report = Report::new(self.name.clone(), self.title.clone());
        for sweep in &self.sweeps {
            report.section(sweep.title.clone(), sweep.pivot(rows, cols));
        }
        report
    }

    /// Flattened access to every cell result.
    pub fn all_cells(&self) -> impl Iterator<Item = &CellResult> {
        self.sweeps.iter().flat_map(|s| s.cells.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use frs_defense::DefenseKind;

    fn tiny_opts() -> RunOptions {
        RunOptions {
            scale: 0.05,
            seed: 3,
            rounds: Some(8),
            threads: 2,
            ..RunOptions::default()
        }
    }

    #[test]
    fn grid_expansion_is_the_axis_product() {
        let sweep = Sweep::new("s", "S")
            .over_datasets([PaperDataset::Ml100k, PaperDataset::Ml1m])
            .over_models([ModelKind::Mf, ModelKind::Ncf])
            .over_attacks([
                AttackKind::NoAttack,
                AttackKind::PieckIpe,
                AttackKind::PieckUea,
            ])
            .over_defenses([DefenseKind::NoDefense, DefenseKind::Ours])
            .over_variants([ConfigPatch::labeled("a"), ConfigPatch::labeled("b")]);
        assert_eq!(sweep.cell_count(), 2 * 2 * 3 * 2 * 2);
        let cells = sweep.expand(&tiny_opts());
        assert_eq!(cells.len(), sweep.cell_count());
        // Deterministic order: defense is the innermost axis.
        assert_eq!(cells[0].defense, DefenseKind::NoDefense);
        assert_eq!(cells[1].defense, DefenseKind::Ours);
        assert_eq!(cells[0].variant, "a");
    }

    #[test]
    fn expansion_applies_policy_then_patch() {
        let sweep = Sweep::new("s", "S")
            .over_attacks([AttackKind::PieckIpe, AttackKind::PieckUea])
            .mined_n(10, 15)
            .rounds(33);
        let opts = RunOptions {
            rounds: None,
            ..tiny_opts()
        };
        let cells = sweep.expand(&opts);
        assert_eq!(cells[0].config.mined_top_n, 10);
        assert_eq!(cells[1].config.mined_top_n, 15);
        assert!(cells.iter().all(|c| c.config.rounds == 33));

        let patched = Sweep::new("s", "S")
            .over_variants([ConfigPatch {
                label: "q10".into(),
                negative_ratio: Some(10),
                eval_k: Some(5),
                ..ConfigPatch::default()
            }])
            .expand(&opts);
        assert_eq!(patched[0].config.federation.negative_ratio, 10);
        assert_eq!(patched[0].config.eval_k, 5);
    }

    #[test]
    fn rounds_override_wins() {
        let sweep = Sweep::new("s", "S").rounds(500);
        let cells = sweep.expand(&tiny_opts());
        assert_eq!(cells[0].config.rounds, 8);
    }

    #[test]
    fn suite_runs_and_reports() {
        let suite = ExperimentSuite::new("mini", "Mini suite")
            .sweep(
                Sweep::new("one", "Panel one")
                    .over_attacks([AttackKind::NoAttack, AttackKind::PieckUea]),
            )
            .sweep(Sweep::new("two", "Panel two"));
        assert_eq!(suite.cell_count(), 3);
        let result = suite.run(&tiny_opts());
        assert_eq!(result.sweeps.len(), 2);
        assert_eq!(result.sweeps[0].cells.len(), 2);
        assert_eq!(result.sweeps[1].cells.len(), 1);
        let report = result.report();
        assert_eq!(report.sections.len(), 2);
        assert_eq!(report.sections[0].table.len(), 2);
        let md = report.to_markdown();
        assert!(md.contains("Panel one") && md.contains("PIECK-UEA"), "{md}");
    }

    #[test]
    fn parallel_equals_sequential_cell_for_cell() {
        let suite = ExperimentSuite::new("det", "Determinism").sweep(
            Sweep::new("grid", "Grid")
                .over_attacks([
                    AttackKind::NoAttack,
                    AttackKind::PieckIpe,
                    AttackKind::PieckUea,
                ])
                .over_defenses([DefenseKind::NoDefense, DefenseKind::Median]),
        );
        let sequential = suite.run(&RunOptions {
            threads: 1,
            ..tiny_opts()
        });
        let parallel = suite.run(&RunOptions {
            threads: 4,
            ..tiny_opts()
        });
        let seq: Vec<_> = sequential.all_cells().collect();
        let par: Vec<_> = parallel.all_cells().collect();
        assert_eq!(seq.len(), par.len());
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(a.cell.attack, b.cell.attack);
            assert_eq!(a.cell.defense, b.cell.defense);
            assert_eq!(a.outcome.er_percent, b.outcome.er_percent, "{:?}", a.cell);
            assert_eq!(a.outcome.hr_percent, b.outcome.hr_percent, "{:?}", a.cell);
            assert_eq!(a.outcome.targets, b.outcome.targets, "{:?}", a.cell);
        }
    }

    #[test]
    fn warm_cache_skips_execution_and_matches_cold_run() {
        use crate::progress::MemorySink;

        let dir = std::env::temp_dir().join(format!("frs-suite-warm-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = SuiteCache::open(&dir).unwrap();
        let suite = ExperimentSuite::new("warm", "Warm cache").sweep(
            Sweep::new("grid", "Grid").over_attacks([AttackKind::NoAttack, AttackKind::PieckUea]),
        );
        let opts = tiny_opts();

        let cold_sink = MemorySink::new();
        let cold = suite
            .run_with(
                &opts,
                &ExecOptions {
                    cache: Some(&cache),
                    sink: Some(&cold_sink),
                    budget: None,
                    checkpoint_every: 0,
                    checkpoint_keep: 1,
                },
            )
            .unwrap();
        assert_eq!(cold_sink.events().len(), 2);
        assert_eq!(cold_sink.hits(), 0);

        let warm_sink = MemorySink::new();
        let warm = suite
            .run_with(
                &opts,
                &ExecOptions {
                    cache: Some(&cache),
                    sink: Some(&warm_sink),
                    budget: None,
                    checkpoint_every: 0,
                    checkpoint_keep: 1,
                },
            )
            .unwrap();
        assert_eq!(warm_sink.hits(), 2, "second run must be 100% cache hits");

        // Bit-identical reports, cold vs warm.
        use crate::report::ReportFormat;
        for format in [
            ReportFormat::Markdown,
            ReportFormat::Csv,
            ReportFormat::Json,
        ] {
            assert_eq!(cold.report().render(format), warm.report().render(format));
        }
        // Events carry the content-addressed keys, stable across runs.
        let mut cold_keys: Vec<String> = cold_sink.events().into_iter().map(|e| e.key).collect();
        assert!(cold_keys.iter().all(|k| k.len() == 64));
        let mut warm_keys: Vec<String> = warm_sink.events().into_iter().map(|e| e.key).collect();
        cold_keys.sort();
        warm_keys.sort();
        assert_eq!(cold_keys, warm_keys);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn events_report_variant_applied_defense_params() {
        use crate::progress::MemorySink;

        let suite = ExperimentSuite::new("params", "Params").sweep(
            Sweep::new("s", "S")
                .over_defenses([DefenseKind::Ours])
                .over_variants([ConfigPatch {
                    label: "ablate".into(),
                    use_re2: Some(false),
                    ..ConfigPatch::default()
                }]),
        );
        let sink = MemorySink::new();
        suite
            .run_with(
                &tiny_opts(),
                &ExecOptions {
                    cache: None,
                    sink: Some(&sink),
                    budget: None,
                    checkpoint_every: 0,
                    checkpoint_keep: 1,
                },
            )
            .unwrap();
        let events = sink.events();
        assert_eq!(events.len(), 1);
        // The params the cell actually ran with — written by the variant
        // patch, not carried on the axis selection.
        assert_eq!(events[0].defense_params, "re2=false");
        assert_eq!(events[0].defense, "ours");
    }

    #[test]
    fn events_report_variant_applied_attack_params() {
        use crate::progress::MemorySink;

        let suite = ExperimentSuite::new("atk-params", "Attack params").sweep(
            Sweep::new("s", "S")
                .over_attacks([AttackKind::PieckIpe])
                .over_variants([ConfigPatch {
                    label: "N=17".into(),
                    mined_top_n: Some(17),
                    ..ConfigPatch::default()
                }]),
        );
        let sink = MemorySink::new();
        suite
            .run_with(
                &tiny_opts(),
                &ExecOptions {
                    cache: None,
                    sink: Some(&sink),
                    budget: None,
                    checkpoint_every: 0,
                    checkpoint_keep: 1,
                },
            )
            .unwrap();
        let events = sink.events();
        assert_eq!(events.len(), 1);
        // The params the cell actually ran with — written by the variant
        // patch into the selection, not carried on the axis.
        assert_eq!(events[0].attack_params, "top_n=17");
        assert_eq!(events[0].attack, "PIECK-IPE");
    }

    #[test]
    fn sink_abort_stops_scheduling_and_reports_progress() {
        use crate::progress::MemorySink;

        let suite = ExperimentSuite::new("abort", "Abort").sweep(
            Sweep::new("grid", "Grid")
                .over_attacks([AttackKind::NoAttack, AttackKind::PieckIpe])
                .over_defenses([DefenseKind::NoDefense, DefenseKind::Median]),
        );
        let sink = MemorySink::stop_after(1);
        let err = suite
            .run_with(
                &RunOptions {
                    threads: 1,
                    ..tiny_opts()
                },
                &ExecOptions {
                    cache: None,
                    sink: Some(&sink),
                    budget: None,
                    checkpoint_every: 0,
                    checkpoint_keep: 1,
                },
            )
            .unwrap_err();
        assert_eq!(err.total, 4);
        assert_eq!(err.completed, 1);
        assert!(!err.cached);
        assert!(err.to_string().contains("1/4"), "{err}");
        // No cache was attached, so the message must not promise --resume.
        assert!(err.to_string().contains("discarded"), "{err}");
    }

    #[test]
    fn pivot_lays_out_er_hr_pairs() {
        let suite = ExperimentSuite::new("p", "Pivot").sweep(
            Sweep::new("s", "S")
                .over_attacks([AttackKind::NoAttack, AttackKind::PieckUea])
                .over_defenses([DefenseKind::NoDefense, DefenseKind::Ours]),
        );
        let result = suite.run(&tiny_opts());
        let pivot = result.sweeps[0].pivot(Axis::Defense, Axis::Attack);
        assert_eq!(
            pivot.header(),
            &[
                "Defense".to_string(),
                "NoAttack ER".into(),
                "NoAttack HR".into(),
                "PIECK-UEA ER".into(),
                "PIECK-UEA HR".into(),
            ]
        );
        assert_eq!(pivot.len(), 2);
    }

    #[test]
    fn suite_is_serde_serializable() {
        let suite = ExperimentSuite::new("roundtrip", "Round trip").sweep(
            Sweep::new("s", "S")
                .over_attacks([AttackKind::PieckUea])
                .over_variants([ConfigPatch {
                    label: "bpr".into(),
                    loss: Some(LossKind::Bpr),
                    ..ConfigPatch::default()
                }]),
        );
        let json = serde_json::to_string_pretty(&suite).unwrap();
        let back: ExperimentSuite = serde_json::from_str(&json).unwrap();
        assert_eq!(back.name, suite.name);
        assert_eq!(back.cell_count(), suite.cell_count());
        let cells = back.sweeps[0].expand(&tiny_opts());
        assert_eq!(cells[0].attack, AttackKind::PieckUea);
        assert_eq!(cells[0].config.federation.loss, LossKind::Bpr);
    }
}
