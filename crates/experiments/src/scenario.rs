//! One experiment scenario: dataset × model × attack × defense.
//!
//! Attacks and defenses are referenced by *catalog name* through
//! [`AttackSel`] / [`DefenseSel`], so scenarios serialize to plain data and
//! rebuild from that data alone. The catalog enums (`AttackKind`,
//! `DefenseKind`) convert into selections with `.into()`.
//!
//! [`ScenarioRun`] is the one driver of a scenario in flight. Suite cells
//! ([`run`], [`run_checkpointed`]), the `paper serve` trainer and the
//! bespoke `paper` commands all build, resume, step, checkpoint and
//! evaluate through it, so they share one world build, one lease rule, one
//! checkpoint format (simulation state plus trend) and one ER/HR scoring
//! path. [`ScenarioRun::with_attackers`] and [`run_with`] swap in
//! hand-wired attackers for golden tests.

use std::sync::Arc;
use std::time::Duration;

use frs_attacks::{AttackBuildCtx, AttackSel};
use frs_data::{leave_one_out, movielens, synth, DataSource, Dataset, DatasetSpec, TrainTestSplit};
use frs_defense::{DefenseBuildCtx, DefenseSel};
use frs_federation::{
    Client, ClientPool, ClientsPerRound, CoreBudget, FederationConfig, LazyClientPool, Simulation,
};
use frs_metrics::{ExposureReport, QualityReport};
use frs_model::{GlobalModel, ModelConfig, ModelKind};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::cache::SuiteCache;

/// Full description of one run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScenarioConfig {
    pub dataset: DatasetSpec,
    pub model: ModelConfig,
    pub federation: FederationConfig,
    /// Attack, referenced by catalog name plus a canonical parameter
    /// payload (see `frs_attacks::registry` — e.g. `pieck-uea:scale=2`).
    /// Attack hyper-parameter *overrides* live here; `mined_top_n` /
    /// `poison_scale` below stay the scenario-level defaults.
    pub attack: AttackSel,
    /// Defense, referenced by catalog name plus a canonical parameter
    /// payload (see `frs_defense::registry` — e.g. `ours:beta=0.9`). All
    /// defense hyper-parameters, including the paper's β/γ and Re1/Re2
    /// ablation switches, live here.
    pub defense: DefenseSel,
    /// Malicious fraction `p̃ = |Ũ|/|U|`.
    pub malicious_ratio: f64,
    /// Number of target items `|T|` (drawn from the coldest items).
    pub n_targets: usize,
    /// Mined popular-set size `N` for PIECK variants and for `Ours`.
    pub mined_top_n: usize,
    /// Communication rounds.
    pub rounds: usize,
    /// Evaluation cutoff `K`.
    pub eval_k: usize,
    /// Evaluate ER/HR every this many rounds into
    /// [`ScenarioOutcome::trend`] (0 = final evaluation only).
    pub trend_every: usize,
    /// NormBound clipping threshold.
    pub norm_bound_threshold: f32,
    /// Scale factor applied to malicious uploads (see
    /// `frs_attacks::ScaledClient`; 1.0 = raw attack gradients).
    pub poison_scale: f32,
}

impl ScenarioConfig {
    /// A sensible default scenario: MF on a scaled ML-100K-like dataset,
    /// no attack, no defense. Callers override fields from here.
    pub fn baseline(dataset: DatasetSpec, kind: ModelKind, seed: u64) -> Self {
        let model = match kind {
            ModelKind::Mf => ModelConfig::mf(16),
            ModelKind::Ncf => ModelConfig::ncf(16),
        };
        let federation = FederationConfig {
            // The paper trains MF with η=1.0 and DL with a small rate.
            learning_rate: match kind {
                ModelKind::Mf => 1.0,
                ModelKind::Ncf => 0.005,
            },
            client_learning_rate: match kind {
                ModelKind::Mf => None,
                // DL personal embeddings need a larger step than the summed
                // global updates (one client's gradient vs a whole batch's).
                ModelKind::Ncf => Some(0.05),
            },
            clients_per_round: ClientsPerRound::Count(256),
            seed,
            ..FederationConfig::default()
        };
        Self {
            dataset,
            model,
            federation,
            attack: AttackSel::none(),
            defense: DefenseSel::none(),
            malicious_ratio: 0.05,
            n_targets: 1,
            mined_top_n: 10,
            rounds: 200,
            eval_k: 10,
            trend_every: 0,
            norm_bound_threshold: 0.05,
            poison_scale: 1.0,
        }
    }

    /// The canonical (sorted-key, whitespace-free, stable-number) JSON text
    /// of this config — the form the suite cache hashes. Structurally equal
    /// configs always canonicalize to the same byte string, so this is the
    /// cell's identity for content addressing (see `crate::cache`).
    pub fn canonical_json(&self) -> String {
        serde_json::to_string_canonical(self).expect("scenario config serializes")
    }

    /// Number of malicious clients so that `p̃ = n_mal/(n_benign + n_mal)`.
    pub fn n_malicious(&self, n_benign: usize) -> usize {
        if self.attack.is_none() || self.malicious_ratio <= 0.0 {
            return 0;
        }
        let p = self.malicious_ratio.min(0.9);
        ((p / (1.0 - p)) * n_benign as f64).round().max(1.0) as usize
    }

    /// The build context used to instantiate this scenario's defense:
    /// everything the paper's defense needs (mined `N`, the model family
    /// its β/γ are tuned per, embedding dim, seed) plus the classic
    /// server-side knobs. Selection params override these defaults.
    pub fn defense_ctx(&self) -> DefenseBuildCtx {
        // The defense's β/γ are tuned per base model (the paper tunes them
        // per setting): DL item updates land with a 200x smaller server
        // learning rate, so the regularizers need proportionally more weight.
        let (default_beta, default_gamma) = match self.model.kind {
            ModelKind::Mf => (0.5, 0.5),
            ModelKind::Ncf => (5.0, 10.0),
        };
        DefenseBuildCtx {
            assumed_malicious_ratio: self.malicious_ratio,
            norm_bound_threshold: self.norm_bound_threshold,
            mined_top_n: self.mined_top_n,
            model: self.model.kind,
            embedding_dim: self.model.embedding_dim,
            default_beta,
            default_gamma,
            seed: self.federation.seed,
        }
    }

    /// The build context used to instantiate this scenario's attack for
    /// `count` clients starting at `first_id`: the scenario-level defaults
    /// (mined `N`, poison scale) that selection params override, plus the
    /// model family, embedding dimension, spec-declared dataset sizes, and
    /// root seed an attack may condition on.
    pub fn attack_ctx<'a>(
        &self,
        first_id: usize,
        count: usize,
        targets: &'a [u32],
    ) -> AttackBuildCtx<'a> {
        AttackBuildCtx {
            first_id,
            count,
            targets,
            mined_top_n: self.mined_top_n,
            poison_scale: self.poison_scale,
            seed: self.federation.seed,
            model: self.model.kind,
            embedding_dim: self.model.embedding_dim,
            n_items: self.dataset.n_items,
            n_users: self.dataset.n_users,
        }
    }
}

/// One point on the convergence trend (Fig. 6a).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrendPoint {
    pub round: usize,
    pub er: f64,
    pub hr: f64,
}

/// A mid-run snapshot of one scenario: the simulation's mutable state plus
/// the trend points already sampled. The trend rides along because a
/// resumed run must reproduce the uninterrupted run's report byte for byte
/// — re-deriving pre-checkpoint trend points would need the rounds that
/// produced them.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScenarioCheckpoint {
    pub trend: Vec<TrendPoint>,
    pub sim: frs_federation::SimulationCheckpoint,
}

/// Where and how often a checkpointed run persists its state: a
/// [`SuiteCache`] slot (`<key>.ckpt.json` beside
/// the cell's eventual entry) written every `every` completed rounds, plus
/// on a shutdown request.
#[derive(Clone, Copy)]
pub struct CheckpointCtl<'a> {
    pub cache: &'a SuiteCache,
    pub key: &'a str,
    /// Rounds between periodic checkpoints (≥ 1; shutdown always snapshots).
    pub every: usize,
    /// Checkpoint generations retained per cell (`--keep-checkpoints`;
    /// values ≤ 1 keep only the newest sidecar, the classic behavior).
    pub keep: usize,
}

/// A checkpointed run stopped early by a shutdown request
/// ([`crate::shutdown::requested`]). Its latest state is on disk; re-running
/// the same cell with the same [`CheckpointCtl`] continues from it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interrupted;

/// Results of one scenario run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScenarioOutcome {
    /// Mean ER@K over targets, in percent (paper units).
    pub er_percent: f64,
    /// HR@K over benign users, in percent.
    pub hr_percent: f64,
    /// NDCG@K over benign users (0–1).
    pub ndcg: f64,
    /// The promoted target items.
    pub targets: Vec<u32>,
    /// Mean wall-clock time per round.
    #[serde(skip, default)]
    pub mean_round_time: Duration,
    /// Total bytes uploaded across the run.
    pub total_upload_bytes: usize,
    /// Largest per-round client fan-out width the run used. Execution-only
    /// telemetry (results are width-independent); surfaced through progress
    /// events so JSONL streams record the effective parallelism.
    pub max_round_threads: usize,
    /// Round-by-round trend, when requested.
    pub trend: Vec<TrendPoint>,
}

/// Builds the dataset/split/targets triple for a config (exposed so tests
/// and figure commands can inspect the same world the scenario ran in).
pub fn build_world(cfg: &ScenarioConfig) -> (Dataset, TrainTestSplit, Vec<u32>) {
    let mut rng = StdRng::seed_from_u64(cfg.federation.seed ^ 0xDA7A);
    let full = build_dataset(&cfg.dataset, &mut rng);
    let split = leave_one_out(&full, &mut rng);
    // Targets: the coldest items in the *training* data (paper: random
    // uninteracted items; the synthetic tail is the uninteracted pool).
    let targets = split.train.coldest_items(cfg.n_targets);
    (full, split, targets)
}

/// The dataset `spec` describes. Synthetic specs generate from `rng`;
/// file-backed specs load through `frs_data::movielens`, `.dat` files as
/// ML-1M (`::`-separated) and everything else as ML-100K `u.data`
/// (tab-separated). An unreadable file panics with its path: a
/// misconfigured scenario, like an unknown attack name.
pub(crate) fn build_dataset(spec: &DatasetSpec, rng: &mut StdRng) -> Dataset {
    let path = match &spec.source {
        DataSource::Synth => return synth::generate(spec, rng),
        DataSource::File(path) => path,
    };
    let options = if path.ends_with(".dat") {
        movielens::LoadOptions::ml1m()
    } else {
        movielens::LoadOptions::ml100k()
    };
    let (dataset, _maps) = movielens::load_path(std::path::Path::new(path), &options)
        .unwrap_or_else(|e| panic!("cannot load dataset file `{path}`: {e}"));
    dataset
}

/// Assembles the client population and simulation, with malicious clients
/// produced by `malicious_builder(first_id, count)` instead of the
/// configured attack — the hook [`ScenarioRun::with_attackers`] exposes.
fn build_simulation_with(
    cfg: &ScenarioConfig,
    train: Arc<Dataset>,
    malicious_builder: impl FnOnce(usize, usize) -> Vec<Box<dyn Client>>,
) -> Simulation {
    let mut rng = StdRng::seed_from_u64(cfg.federation.seed ^ 0x0DE1);
    let model = GlobalModel::new(&cfg.model, train.n_items(), &mut rng);
    let n_benign = train.n_users();
    let dim = cfg.model.embedding_dim;
    // Every defense — the paper's included — instantiates through its
    // catalog row: one `DefenseInstance` per scenario, whose regularizer
    // factory arms each sampled benign client with its own regularizer.
    let defense = cfg.defense.build(&cfg.defense_ctx());

    let n_mal = cfg.n_malicious(n_benign);
    let malicious = malicious_builder(n_benign, n_mal);

    // Benign clients are *lazy*: only arena rows until sampled, so a cell
    // scales to millions of registered users without a million boxed
    // clients. Seeds match what a `BenignClient::new` per user would draw,
    // so results are unchanged (the two are bit-identical by contract).
    let seed = cfg.federation.seed;
    let pool = LazyClientPool::new(
        n_benign,
        Arc::clone(&train),
        dim,
        cfg.model.init_scale,
        move |u| seed ^ ((u as u64) << 16) ^ 0xBE9,
        defense.regularizer_factory,
        malicious,
    );

    Simulation::builder(model)
        .pool(ClientPool::Lazy(pool))
        .aggregator(defense.aggregator)
        .config(cfg.federation.clone())
        .build()
}

/// Assembles the client population and simulation for a config.
pub fn build_simulation(cfg: &ScenarioConfig, train: Arc<Dataset>, targets: &[u32]) -> Simulation {
    build_simulation_with(cfg, train, |first_id, count| {
        cfg.attack
            .build_clients(&cfg.attack_ctx(first_id, count, targets))
    })
}

/// The users a sampled evaluation ranks out of `n` registered ones: every
/// `⌊n / 10,000⌋`-th (every user below 20,000), so 10k–20k of them at any
/// larger `n`. `paper scale` and the serve probes score this stride, since
/// ranking a million-user population is an experiment of its own.
pub fn stride_sample(n: usize) -> Vec<usize> {
    (0..n).step_by((n / 10_000).max(1)).collect()
}

/// ER@K, HR@K and NDCG@K of a model over a set of users.
#[derive(Debug, Clone, Copy)]
pub struct Evaluation {
    /// Mean ER@K over the targets, in percent.
    pub er_percent: f64,
    /// HR@K, in percent.
    pub hr_percent: f64,
    /// NDCG@K (0–1).
    pub ndcg: f64,
}

/// One scenario in flight: its config, the world it trains on, the
/// simulation, and the trend points sampled so far. Suite cells, the
/// `paper serve` trainer and the bespoke `paper` commands all build,
/// resume, step, checkpoint and evaluate a scenario through this one type.
pub struct ScenarioRun {
    pub cfg: ScenarioConfig,
    /// `test_item[u]`: user `u`'s held-out item (the split's test half).
    pub test_item: Vec<u32>,
    /// The training set (the split's other half), shared with the
    /// simulation's clients.
    pub train: Arc<Dataset>,
    pub targets: Vec<u32>,
    pub sim: Simulation,
    pub trend: Vec<TrendPoint>,
}

impl ScenarioRun {
    /// Builds the scenario's world and simulation with the configured
    /// attack. Under `RoundThreads::Auto` the simulation leases its round
    /// width from `budget`; other policies ignore the budget.
    pub fn new(cfg: ScenarioConfig, budget: Option<&CoreBudget>) -> Self {
        Self::build(cfg, budget, build_simulation)
    }

    /// Like [`ScenarioRun::new`], with malicious clients produced by
    /// `malicious_builder(first_id, count, targets)` instead of the
    /// configured attack — the hook golden tests use to hand-wire attackers.
    pub fn with_attackers(
        cfg: ScenarioConfig,
        budget: Option<&CoreBudget>,
        malicious_builder: impl FnOnce(usize, usize, &[u32]) -> Vec<Box<dyn Client>>,
    ) -> Self {
        Self::build(cfg, budget, |cfg, train, targets| {
            build_simulation_with(cfg, train, |first_id, count| {
                malicious_builder(first_id, count, targets)
            })
        })
    }

    fn build(
        cfg: ScenarioConfig,
        budget: Option<&CoreBudget>,
        simulation: impl FnOnce(&ScenarioConfig, Arc<Dataset>, &[u32]) -> Simulation,
    ) -> Self {
        let (full, split, targets) = build_world(&cfg);
        // Every retained Dataset copy is ~20 MB at `paper scale`'s million
        // mark (an offset per user plus the item ids); the RSS ceiling CI
        // asserts counts on keeping one: the unsplit original is dropped,
        // and the training set moves out of the split into the one `Arc`
        // the clients and the evaluation share.
        drop(full);
        let TrainTestSplit { train, test_item } = split;
        let train = Arc::new(train);
        let mut sim = simulation(&cfg, Arc::clone(&train), &targets);
        let auto = cfg.federation.round_threads.is_auto();
        sim.set_core_lease(budget.filter(|_| auto).map(CoreBudget::lease));
        Self {
            cfg,
            test_item,
            train,
            targets,
            sim,
            trend: Vec::new(),
        }
    }

    /// Completed rounds.
    pub fn rounds_done(&self) -> usize {
        self.sim.rounds_done()
    }

    /// Restores the checkpoint stored under `key`, if there is one within
    /// the round target. A checkpoint that no longer matches the rebuilt
    /// world (e.g. hand-copied between cache dirs) is a miss, not an
    /// abort: the run stays at round zero.
    pub fn resume(&mut self, cache: &SuiteCache, key: &str) {
        let rounds = self.cfg.rounds;
        if let Some(ckpt) = cache.load_checkpoint(key).filter(|c| c.sim.round <= rounds) {
            match self.sim.restore_checkpoint(&ckpt.sim) {
                Ok(()) => self.trend = ckpt.trend,
                Err(e) => eprintln!("ignoring checkpoint for {key}: {e}"),
            }
        }
    }

    /// Stores the current state under `key`, keeping `keep` generations. A
    /// failed write is reported and otherwise ignored: it costs only the
    /// ability to resume from this round.
    pub fn checkpoint(&self, cache: &SuiteCache, key: &str, keep: usize) {
        let ckpt = ScenarioCheckpoint {
            trend: self.trend.clone(),
            sim: self.sim.capture_checkpoint(),
        };
        if let Err(e) = cache.store_checkpoint_rotating(key, &ckpt, keep) {
            eprintln!("checkpoint write failed for {key}: {e}");
        }
    }

    /// Runs one round, then samples a trend point when one is due.
    pub fn round(&mut self) {
        self.sim.run_round();
        let done = self.rounds_done();
        if self.cfg.trend_every > 0 && done.is_multiple_of(self.cfg.trend_every) {
            let eval = self.evaluate(&self.sim.benign_ids());
            self.trend.push(TrendPoint {
                round: done,
                er: eval.er_percent,
                hr: eval.hr_percent,
            });
        }
    }

    /// Scores the current model over `users`.
    pub fn evaluate(&self, users: &[usize]) -> Evaluation {
        let (model, k) = (self.sim.model(), self.cfg.eval_k);
        let embs = self.sim.user_embeddings();
        let er = ExposureReport::compute(model, &embs, users, &self.train, &self.targets, k);
        let hr =
            QualityReport::compute_held_out(model, &embs, users, &self.train, &self.test_item, k);
        Evaluation {
            er_percent: er.mean_percent(),
            hr_percent: hr.hr_percent(),
            ndcg: hr.ndcg,
        }
    }

    /// Runs the rounds still to go, then scores the final model over the
    /// benign users.
    pub fn finish(mut self) -> ScenarioOutcome {
        while self.rounds_done() < self.cfg.rounds {
            self.round();
        }
        let eval = self.evaluate(&self.sim.benign_ids());
        let stats = self.sim.stats();
        ScenarioOutcome {
            er_percent: eval.er_percent,
            hr_percent: eval.hr_percent,
            ndcg: eval.ndcg,
            targets: self.targets,
            mean_round_time: stats.mean_round_time(),
            total_upload_bytes: stats.total_upload_bytes,
            max_round_threads: stats.max_round_threads,
            trend: self.trend,
        }
    }
}

/// Runs the scenario end to end with a custom malicious-client builder.
pub fn run_with(
    cfg: &ScenarioConfig,
    malicious_builder: impl FnOnce(usize, usize, &[u32]) -> Vec<Box<dyn Client>>,
) -> ScenarioOutcome {
    ScenarioRun::with_attackers(cfg.clone(), None, malicious_builder).finish()
}

/// Runs the scenario end to end with the configured attack.
pub fn run(cfg: &ScenarioConfig) -> ScenarioOutcome {
    ScenarioRun::new(cfg.clone(), None).finish()
}

/// Like [`run`], with mid-run checkpointing: an existing checkpoint for
/// `ctl.key` is restored (skipping the rounds it covers), the state is
/// re-persisted every `ctl.every` completed rounds and on a shutdown
/// request, and a completed run removes its checkpoint. Restored runs are
/// byte-identical to uninterrupted ones (`tests/checkpointing.rs`).
/// Shutdown requests are honoured only here, where a checkpoint makes the
/// stop resumable.
pub fn run_checkpointed(
    cfg: &ScenarioConfig,
    budget: Option<&CoreBudget>,
    ctl: &CheckpointCtl<'_>,
) -> Result<ScenarioOutcome, Interrupted> {
    let mut run = ScenarioRun::new(cfg.clone(), budget);
    run.resume(ctl.cache, ctl.key);
    while run.rounds_done() < cfg.rounds {
        run.round();
        let done = run.rounds_done();
        let interrupted = done < cfg.rounds && crate::shutdown::requested();
        let due = ctl.every > 0 && done.is_multiple_of(ctl.every) && done < cfg.rounds;
        if due || interrupted {
            run.checkpoint(ctl.cache, ctl.key, ctl.keep);
        }
        if interrupted {
            return Err(Interrupted);
        }
    }
    // The finished outcome supersedes the sidecar; a failed removal is
    // garbage for `gc`, never a correctness problem.
    let _ = ctl.cache.remove_checkpoint(ctl.key);
    Ok(run.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use frs_attacks::AttackKind;

    fn tiny_cfg(attack: AttackKind, defense: &str) -> ScenarioConfig {
        let mut cfg = ScenarioConfig::baseline(DatasetSpec::tiny(), ModelKind::Mf, 42);
        cfg.federation.clients_per_round = ClientsPerRound::Count(24);
        cfg.rounds = 60;
        cfg.attack = attack.into();
        cfg.defense = DefenseSel::named(defense);
        cfg
    }

    #[test]
    fn baseline_learns_and_exposes_nothing() {
        let out = run(&tiny_cfg(AttackKind::NoAttack, "none"));
        assert!(out.hr_percent > 10.0, "HR {}", out.hr_percent);
        assert!(out.er_percent < 10.0, "ER {}", out.er_percent);
        assert_eq!(out.targets.len(), 1);
        assert!(out.total_upload_bytes > 0);
    }

    #[test]
    fn uea_attack_exposes_target_on_mf() {
        let base = run(&tiny_cfg(AttackKind::NoAttack, "none"));
        let attacked = run(&tiny_cfg(AttackKind::PieckUea, "none"));
        assert!(
            attacked.er_percent > base.er_percent + 30.0,
            "UEA should expose the target: {} vs baseline {}",
            attacked.er_percent,
            base.er_percent
        );
    }

    #[test]
    fn n_malicious_matches_ratio() {
        let mut cfg = tiny_cfg(AttackKind::PieckUea, "none");
        cfg.malicious_ratio = 0.05;
        let n_mal = cfg.n_malicious(950);
        let ratio = n_mal as f64 / (950 + n_mal) as f64;
        assert!((ratio - 0.05).abs() < 0.005, "{ratio}");
        cfg.attack = AttackSel::none();
        assert_eq!(cfg.n_malicious(950), 0);
    }

    #[test]
    fn trend_is_recorded_when_requested() {
        let mut cfg = tiny_cfg(AttackKind::NoAttack, "none");
        cfg.rounds = 20;
        cfg.trend_every = 5;
        let out = run(&cfg);
        assert_eq!(out.trend.len(), 4);
        assert_eq!(out.trend[0].round, 5);
    }

    #[test]
    fn runs_are_reproducible() {
        let a = run(&tiny_cfg(AttackKind::PieckIpe, "none"));
        let b = run(&tiny_cfg(AttackKind::PieckIpe, "none"));
        assert_eq!(a.er_percent, b.er_percent);
        assert_eq!(a.hr_percent, b.hr_percent);
    }

    #[test]
    fn round_width_never_changes_outcomes() {
        use frs_federation::RoundThreads;

        let sequential = run(&tiny_cfg(AttackKind::PieckIpe, "none"));
        assert_eq!(sequential.max_round_threads, 1);

        let mut wide_cfg = tiny_cfg(AttackKind::PieckIpe, "none");
        wide_cfg.federation.round_threads = RoundThreads::Fixed(4);
        let wide = run(&wide_cfg);
        assert_eq!(wide.max_round_threads, 4);

        let budget = CoreBudget::new(8);
        let mut auto_cfg = tiny_cfg(AttackKind::PieckIpe, "none");
        auto_cfg.federation.round_threads = RoundThreads::Auto;
        let auto = ScenarioRun::new(auto_cfg, Some(&budget)).finish();
        assert_eq!(auto.max_round_threads, 8, "sole lease gets the budget");

        for other in [&wide, &auto] {
            assert_eq!(sequential.er_percent, other.er_percent);
            assert_eq!(sequential.hr_percent, other.hr_percent);
            assert_eq!(sequential.ndcg, other.ndcg);
            assert_eq!(sequential.targets, other.targets);
        }
    }

    #[test]
    fn canonical_json_is_stable_and_round_trips() {
        let cfg = tiny_cfg(AttackKind::PieckUea, "ours");
        let canonical = cfg.canonical_json();
        assert!(!canonical.contains('\n') && !canonical.contains(": "));
        // Sorted keys: "attack" precedes "defense" precedes "rounds".
        let pos = |k: &str| canonical.find(&format!("\"{k}\"")).unwrap();
        assert!(pos("attack") < pos("defense") && pos("defense") < pos("rounds"));
        let back: ScenarioConfig = serde_json::from_str(&canonical).unwrap();
        assert_eq!(back.canonical_json(), canonical);
    }

    fn temp_cache(tag: &str) -> crate::cache::SuiteCache {
        let dir =
            std::env::temp_dir().join(format!("frs-scenario-ckpt-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        crate::cache::SuiteCache::open(dir).unwrap()
    }

    fn assert_same_outcome(a: &ScenarioOutcome, b: &ScenarioOutcome) {
        assert_eq!(a.er_percent, b.er_percent);
        assert_eq!(a.hr_percent, b.hr_percent);
        assert_eq!(a.ndcg, b.ndcg);
        assert_eq!(a.targets, b.targets);
        assert_eq!(a.total_upload_bytes, b.total_upload_bytes);
        assert_eq!(a.trend.len(), b.trend.len());
        for (x, y) in a.trend.iter().zip(&b.trend) {
            assert_eq!((x.round, x.er, x.hr), (y.round, y.er, y.hr));
        }
    }

    #[test]
    fn checkpointed_run_matches_plain_run() {
        let _guard = crate::shutdown::test_lock();
        crate::shutdown::reset();
        let mut cfg = tiny_cfg(AttackKind::PieckIpe, "ours");
        cfg.rounds = 12;
        cfg.trend_every = 5;
        let plain = run(&cfg);

        let cache = temp_cache("match");
        let key = crate::cache::scenario_key(&cfg);
        let ctl = CheckpointCtl {
            cache: &cache,
            key: &key,
            every: 4,
            keep: 1,
        };
        let checkpointed = run_checkpointed(&cfg, None, &ctl).unwrap();
        assert_same_outcome(&plain, &checkpointed);
        assert!(
            cache.load_checkpoint(&key).is_none(),
            "completion removes the sidecar"
        );
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn run_interrupted_at_every_round_still_matches() {
        // The harshest kill schedule: with a shutdown permanently requested,
        // each call completes exactly one round, checkpoints, and stops —
        // so the run is interrupted and resumed at *every* round boundary.
        // The stitched-together outcome must match an uninterrupted run
        // exactly, stateful attack (pieck-ipe mining) and defense included.
        let _guard = crate::shutdown::test_lock();
        let mut cfg = tiny_cfg(AttackKind::PieckIpe, "ours");
        cfg.rounds = 10;
        cfg.trend_every = 3;
        crate::shutdown::reset();
        let plain = run(&cfg);

        let cache = temp_cache("everyround");
        let key = crate::cache::scenario_key(&cfg);
        let ctl = CheckpointCtl {
            cache: &cache,
            key: &key,
            every: 0,
            keep: 1,
        };
        crate::shutdown::trigger();
        let mut stops = 0;
        let resumed = loop {
            match run_checkpointed(&cfg, None, &ctl) {
                Ok(outcome) => break outcome,
                Err(Interrupted) => {
                    stops += 1;
                    assert!(
                        cache.load_checkpoint(&key).is_some(),
                        "an interrupt leaves a resumable checkpoint"
                    );
                    assert!(stops <= cfg.rounds, "no forward progress");
                }
            }
        };
        crate::shutdown::reset();
        assert_eq!(stops, cfg.rounds - 1, "one round per interrupted call");
        assert_same_outcome(&plain, &resumed);
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn mismatched_checkpoint_downgrades_to_recompute() {
        let _guard = crate::shutdown::test_lock();
        crate::shutdown::reset();
        let mut cfg = tiny_cfg(AttackKind::NoAttack, "none");
        cfg.rounds = 6;
        let plain = run(&cfg);

        let cache = temp_cache("mismatch");
        let key = crate::cache::scenario_key(&cfg);
        // A checkpoint for a different population (hand-copied between
        // dirs, or a code change that re-sized the world): restore fails
        // validation and the run recomputes from round zero.
        let mut other = cfg.clone();
        other.dataset.n_users /= 2;
        let (_full, split, targets) = build_world(&other);
        let train = Arc::new(split.train.clone());
        let mut sim = build_simulation(&other, Arc::clone(&train), &targets);
        sim.run_round();
        cache
            .store_checkpoint(
                &key,
                &ScenarioCheckpoint {
                    trend: Vec::new(),
                    sim: sim.capture_checkpoint(),
                },
            )
            .unwrap();

        let ctl = CheckpointCtl {
            cache: &cache,
            key: &key,
            every: 3,
            keep: 1,
        };
        let out = run_checkpointed(&cfg, None, &ctl).unwrap();
        assert_same_outcome(&plain, &out);
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn config_serializes_with_registry_names() {
        let cfg = tiny_cfg(AttackKind::PieckUea, "ours");
        let json = serde_json::to_string(&cfg).unwrap();
        assert!(json.contains("\"attack\":\"pieck-uea\""), "{json}");
        assert!(json.contains("\"defense\":\"ours\""), "{json}");
        let back: ScenarioConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back.attack, cfg.attack);
        assert_eq!(back.defense, cfg.defense);
        assert_eq!(back.rounds, cfg.rounds);
    }
}
