//! One experiment scenario: dataset × model × attack × defense.
//!
//! Attacks and defenses are referenced by *catalog name* through
//! [`AttackSel`] / [`DefenseSel`], so scenarios serialize to plain data and
//! rebuild from that data alone. The catalog enums (`AttackKind`,
//! `DefenseKind`) convert into selections with `.into()`; [`run_with`]
//! swaps in hand-wired attackers for golden tests.

use std::sync::Arc;
use std::time::Duration;

use frs_attacks::{AttackBuildCtx, AttackSel};
use frs_data::{leave_one_out, movielens, synth, DataSource, Dataset, DatasetSpec, TrainTestSplit};
use frs_defense::{DefenseBuildCtx, DefenseSel};
use frs_federation::{
    Client, ClientPool, ClientsPerRound, CoreLease, FederationConfig, LazyClientPool, Simulation,
};
use frs_metrics::{ExposureReport, QualityReport};
use frs_model::{GlobalModel, ModelConfig, ModelKind};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

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
/// [`SuiteCache`](crate::cache::SuiteCache) slot (`<key>.ckpt.json` beside
/// the cell's eventual entry) written every `every` completed rounds, plus
/// on a shutdown request.
#[derive(Clone, Copy)]
pub struct CheckpointCtl<'a> {
    pub cache: &'a crate::cache::SuiteCache,
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
/// Synthetic specs generate; file-backed specs load through
/// `frs_data::movielens` (panicking with the path on unreadable files —
/// a misconfigured scenario, like an unknown attack name).
pub fn build_world(cfg: &ScenarioConfig) -> (Dataset, TrainTestSplit, Vec<u32>) {
    let mut rng = StdRng::seed_from_u64(cfg.federation.seed ^ 0xDA7A);
    let full = match &cfg.dataset.source {
        DataSource::Synth => synth::generate(&cfg.dataset, &mut rng),
        DataSource::File(path) => load_dataset_file(path),
    };
    let split = leave_one_out(&full, &mut rng);
    // Targets: the coldest items in the *training* data (paper: random
    // uninteracted items; the synthetic tail is the uninteracted pool).
    let targets = split.train.coldest_items(cfg.n_targets);
    (full, split, targets)
}

/// Loads a MovieLens-format dump: `.dat` files parse as ML-1M
/// (`::`-separated), everything else as ML-100K `u.data` (tab-separated).
fn load_dataset_file(path: &str) -> Dataset {
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
/// configured attack — the hook golden tests use to hand-wire attackers.
pub fn build_simulation_with(
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

/// Runs the scenario end to end with a custom malicious-client builder.
pub fn run_with(
    cfg: &ScenarioConfig,
    malicious_builder: impl FnOnce(usize, usize, &[u32]) -> Vec<Box<dyn Client>>,
) -> ScenarioOutcome {
    run_with_lease(cfg, None, malicious_builder)
}

/// Like [`run_with`], additionally attaching a [`CoreLease`] so a
/// `RoundThreads::Auto` federation config takes its per-round fan-out width
/// from a shared core budget (the suite execution path).
pub fn run_with_lease(
    cfg: &ScenarioConfig,
    lease: Option<CoreLease>,
    malicious_builder: impl FnOnce(usize, usize, &[u32]) -> Vec<Box<dyn Client>>,
) -> ScenarioOutcome {
    let (_full, split, targets) = build_world(cfg);
    let train = Arc::new(split.train.clone());
    let mut sim = build_simulation_with(cfg, Arc::clone(&train), |first, count| {
        malicious_builder(first, count, &targets)
    });
    sim.set_core_lease(lease);
    finish_run(cfg, &mut sim, &split, &train, targets)
}

/// Runs the scenario end to end with the configured attack.
pub fn run(cfg: &ScenarioConfig) -> ScenarioOutcome {
    run_leased(cfg, None)
}

/// Like [`run`], with an optional [`CoreLease`] granting budget-driven
/// per-round parallelism (consulted only under `RoundThreads::Auto`).
pub fn run_leased(cfg: &ScenarioConfig, lease: Option<CoreLease>) -> ScenarioOutcome {
    run_with_lease(cfg, lease, |first_id, count, targets| {
        cfg.attack
            .build_clients(&cfg.attack_ctx(first_id, count, targets))
    })
}

/// Like [`run_leased`], with mid-run checkpointing: an existing checkpoint
/// for `ctl.key` is restored (skipping the rounds it covers), the state is
/// re-persisted every `ctl.every` completed rounds and on a shutdown
/// request, and a completed run removes its checkpoint. Restored runs are
/// byte-identical to uninterrupted ones (`tests/checkpointing.rs`).
pub fn run_checkpointed(
    cfg: &ScenarioConfig,
    lease: Option<CoreLease>,
    ctl: &CheckpointCtl<'_>,
) -> Result<ScenarioOutcome, Interrupted> {
    let (_full, split, targets) = build_world(cfg);
    let train = Arc::new(split.train.clone());
    let mut sim = build_simulation(cfg, Arc::clone(&train), &targets);
    sim.set_core_lease(lease);
    finish_run_ctl(cfg, &mut sim, &split, &train, targets, Some(ctl))
}

/// Shared tail of a scenario run: the round loop, trend sampling, and the
/// final evaluation.
fn finish_run(
    cfg: &ScenarioConfig,
    sim: &mut Simulation,
    split: &TrainTestSplit,
    train: &Arc<Dataset>,
    targets: Vec<u32>,
) -> ScenarioOutcome {
    finish_run_ctl(cfg, sim, split, train, targets, None)
        .expect("a run without checkpointing cannot be interrupted")
}

/// [`finish_run`] with optional checkpointing. Without a [`CheckpointCtl`]
/// this is infallible (shutdown requests are only honoured where a
/// checkpoint can make the stop resumable).
fn finish_run_ctl(
    cfg: &ScenarioConfig,
    sim: &mut Simulation,
    split: &TrainTestSplit,
    train: &Arc<Dataset>,
    targets: Vec<u32>,
    ctl: Option<&CheckpointCtl<'_>>,
) -> Result<ScenarioOutcome, Interrupted> {
    let benign = sim.benign_ids();

    let mut trend = Vec::new();
    let mut start = 0;
    if let Some(ctl) = ctl {
        if let Some(ckpt) = ctl.cache.load_checkpoint(ctl.key) {
            if ckpt.sim.round <= cfg.rounds {
                match sim.restore_checkpoint(&ckpt.sim) {
                    Ok(()) => {
                        start = ckpt.sim.round;
                        trend = ckpt.trend;
                    }
                    // A checkpoint that no longer matches the rebuilt world
                    // (e.g. hand-copied between cache dirs) is a miss, not
                    // an abort: recompute from round zero.
                    Err(e) => eprintln!("ignoring checkpoint for {}: {e}", ctl.key),
                }
            }
        }
    }

    for r in start..cfg.rounds {
        sim.run_round();
        let done = r + 1;
        if cfg.trend_every > 0 && done % cfg.trend_every == 0 {
            let embs = sim.user_embeddings();
            let er =
                ExposureReport::compute(sim.model(), &embs, &benign, train, &targets, cfg.eval_k);
            let hr = QualityReport::compute(sim.model(), &embs, &benign, split, cfg.eval_k);
            trend.push(TrendPoint {
                round: done,
                er: er.mean_percent(),
                hr: hr.hr_percent(),
            });
        }
        if let Some(ctl) = ctl {
            let interrupted = done < cfg.rounds && crate::shutdown::requested();
            let due = ctl.every > 0 && done % ctl.every == 0 && done < cfg.rounds;
            if due || interrupted {
                let ckpt = ScenarioCheckpoint {
                    trend: trend.clone(),
                    sim: sim.capture_checkpoint(),
                };
                if let Err(e) = ctl
                    .cache
                    .store_checkpoint_rotating(ctl.key, &ckpt, ctl.keep)
                {
                    eprintln!("checkpoint write failed for {}: {e}", ctl.key);
                }
            }
            if interrupted {
                return Err(Interrupted);
            }
        }
    }

    let embs = sim.user_embeddings();
    let er = ExposureReport::compute(sim.model(), &embs, &benign, train, &targets, cfg.eval_k);
    let hr = QualityReport::compute(sim.model(), &embs, &benign, split, cfg.eval_k);
    if let Some(ctl) = ctl {
        // The finished outcome supersedes the sidecar; a failed removal is
        // garbage for `gc`, never a correctness problem.
        let _ = ctl.cache.remove_checkpoint(ctl.key);
    }
    Ok(ScenarioOutcome {
        er_percent: er.mean_percent(),
        hr_percent: hr.hr_percent(),
        ndcg: hr.ndcg,
        targets,
        mean_round_time: sim.stats().mean_round_time(),
        total_upload_bytes: sim.stats().total_upload_bytes,
        max_round_threads: sim.stats().max_round_threads,
        trend,
    })
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
        use frs_federation::{CoreBudget, RoundThreads};

        let sequential = run(&tiny_cfg(AttackKind::PieckIpe, "none"));
        assert_eq!(sequential.max_round_threads, 1);

        let mut wide_cfg = tiny_cfg(AttackKind::PieckIpe, "none");
        wide_cfg.federation.round_threads = RoundThreads::Fixed(4);
        let wide = run(&wide_cfg);
        assert_eq!(wide.max_round_threads, 4);

        let budget = CoreBudget::new(8);
        let mut auto_cfg = tiny_cfg(AttackKind::PieckIpe, "none");
        auto_cfg.federation.round_threads = RoundThreads::Auto;
        let auto = run_leased(&auto_cfg, Some(budget.lease()));
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
