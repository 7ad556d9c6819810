//! The three workloads: their scenario configs, the pinned output checks,
//! and the evaluation every workload times.

use frs_attacks::AttackSel;
use frs_data::{DataSource, Dataset, DatasetSpec, TrainTestSplit};
use frs_defense::DefenseSel;
use frs_experiments::{paper_scenario, PaperDataset, ScenarioConfig};
use frs_federation::{ClientsPerRound, RoundThreads, Simulation};
use frs_metrics::{ExposureReport, QualityReport};
use frs_model::{EmbeddingStore, ModelKind};

use crate::host::now;

/// The `paper` CLI's default seed. Every run also trains this seed for a
/// fixed number of rounds and compares the outcome with `pins.json`.
pub const PINNED_SEED: u64 = 7;

const PINS: &str = include_str!("../pins.json");

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Paper cell: ML-100K-like, MF, PIECK-UEA at 5%, server-side Bulyan,
    /// width 1. Aggregation dominates the round.
    CellMfBulyan,
    /// The same world on NCF with the paper's client-side defense, width 2.
    /// MLP training, regularizers and the round pool dominate.
    CellNcfOurs,
    /// `paper scale`'s 1M-user world hosted by `serve_scenarios`, training
    /// and publishing every round while an open loop queries it.
    Serve1m,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Self::CellMfBulyan, Self::CellNcfOurs, Self::Serve1m];

    pub fn name(self) -> &'static str {
        match self {
            Self::CellMfBulyan => "cell-mf-bulyan",
            Self::CellNcfOurs => "cell-ncf-ours",
            Self::Serve1m => "serve-1m",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn is_cell(self) -> bool {
        self != Self::Serve1m
    }

    /// The workload's scenario for `seed`.
    pub fn config(self, seed: u64) -> ScenarioConfig {
        match self {
            Self::CellMfBulyan | Self::CellNcfOurs => {
                let (kind, defense, width) = match self {
                    Self::CellMfBulyan => (ModelKind::Mf, "bulyan", 1),
                    _ => (ModelKind::Ncf, "ours", 2),
                };
                let mut cfg = paper_scenario(PaperDataset::Ml100k, kind, 1.0, seed);
                cfg.attack = AttackSel::named("pieck-uea");
                cfg.defense = DefenseSel::named(defense);
                cfg.malicious_ratio = 0.05;
                cfg.federation.round_threads = RoundThreads::Fixed(width);
                cfg
            }
            Self::Serve1m => {
                // `paper scale`'s cell: a sparse million-user population.
                let n_users = 1_000_000;
                let spec = DatasetSpec {
                    name: format!("scale-{n_users}"),
                    n_users,
                    n_items: 2000,
                    n_interactions: n_users * 3,
                    item_zipf_exponent: 0.9,
                    user_zipf_exponent: 0.6,
                    min_interactions_per_user: 2,
                    source: DataSource::Synth,
                };
                let mut cfg = ScenarioConfig::baseline(spec, ModelKind::Mf, seed);
                cfg.attack = AttackSel::named("pieck-uea");
                cfg.defense = DefenseSel::parse("median:shards=8").expect("builtin defense spec");
                cfg.malicious_ratio = 0.001;
                cfg.federation.clients_per_round = ClientsPerRound::Count(1024);
                // Under a 2-core budget shared with the daemon's lease this
                // leases width 1, as `paper serve` does.
                cfg.federation.round_threads = RoundThreads::Auto;
                cfg
            }
        }
    }

    /// Rounds trained on [`PINNED_SEED`] before the pinned evaluation
    /// (`paper scale` defaults to 3).
    pub fn pinned_rounds(self) -> usize {
        if self.is_cell() {
            5
        } else {
            3
        }
    }

    /// Users the evaluation ranks: every benign user in the cells, the
    /// `paper scale` stride sample of about 10k users at 1M.
    pub fn eval_users(self, sim: &Simulation, train: &Dataset) -> Vec<usize> {
        if self.is_cell() {
            sim.benign_ids()
        } else {
            let stride = (train.n_users() / 10_000).max(1);
            (0..train.n_users()).step_by(stride).collect()
        }
    }
}

/// One timed evaluation of a trained state.
#[derive(Debug, Clone)]
pub struct Evaluation {
    pub er_percent: f64,
    pub hr_percent: f64,
    pub ndcg: f64,
    pub users: usize,
    /// SHA-256 over the item table's bits, then each evaluated user's
    /// embedding bits, the way `paper scale` builds its state digest.
    pub digest: String,
    /// `Simulation::user_embeddings`.
    pub snapshot_s: f64,
    /// `ExposureReport::compute`.
    pub exposure_s: f64,
    /// `QualityReport::compute`.
    pub quality_s: f64,
}

impl Evaluation {
    pub fn total_s(&self) -> f64 {
        self.snapshot_s + self.exposure_s + self.quality_s
    }

    /// The checked outputs, formatted the way `pins.json` stores them.
    pub fn outputs(&self) -> [(&'static str, String); 4] {
        [
            ("er_percent", format!("{:.9}", self.er_percent)),
            ("hr_percent", format!("{:.9}", self.hr_percent)),
            ("ndcg", format!("{:.9}", self.ndcg)),
            ("digest", self.digest.clone()),
        ]
    }
}

/// Evaluates `users` of a trained simulation at K = `cfg.eval_k`, timing
/// each public call.
pub fn evaluate(
    cfg: &ScenarioConfig,
    sim: &Simulation,
    users: &[usize],
    split: &TrainTestSplit,
    targets: &[u32],
) -> Evaluation {
    let t0 = now();
    let embs = sim.user_embeddings();
    let t1 = now();
    let er = ExposureReport::compute(sim.model(), &embs, users, &split.train, targets, cfg.eval_k);
    let t2 = now();
    let hr = QualityReport::compute(sim.model(), &embs, users, split, cfg.eval_k);
    let t3 = now();

    Evaluation {
        er_percent: er.mean_percent(),
        hr_percent: hr.hr_percent(),
        ndcg: hr.ndcg,
        users: users.len(),
        digest: digest_of(sim, &embs, users),
        snapshot_s: (t1 - t0).as_secs_f64(),
        exposure_s: (t2 - t1).as_secs_f64(),
        quality_s: (t3 - t2).as_secs_f64(),
    }
}

/// SHA-256 over the item table's bits, then each of `users`' embedding
/// bits, the way `paper scale` builds its state digest.
pub fn state_digest(sim: &Simulation, users: &[usize]) -> String {
    digest_of(sim, &sim.user_embeddings(), users)
}

fn digest_of(sim: &Simulation, embs: &EmbeddingStore, users: &[usize]) -> String {
    let items = sim.model().items().as_slice();
    let mut state = Vec::with_capacity((items.len() + users.len() * sim.model().dim()) * 4);
    for &x in items {
        state.extend_from_slice(&x.to_bits().to_le_bytes());
    }
    for &u in users {
        for &x in embs.row(u) {
            state.extend_from_slice(&x.to_bits().to_le_bytes());
        }
    }
    frs_experiments::cache::sha256_hex(&state)
}

/// Compares an evaluation of [`PINNED_SEED`] after
/// [`Workload::pinned_rounds`] rounds with `pins.json`. The error names
/// every observed value, ready to paste when an intended change moves them.
pub fn check_pins(workload: Workload, eval: &Evaluation) -> Result<(), String> {
    let pins: serde_json::Value = serde_json::from_str(PINS).expect("pins.json is valid JSON");
    let observed = eval
        .outputs()
        .iter()
        .map(|(k, v)| format!("\"{k}\": \"{v}\""))
        .collect::<Vec<_>>()
        .join(", ");
    let pinned = pins
        .as_object()
        .and_then(|all| all.get(workload.name()))
        .and_then(|p| p.as_object());
    let mismatches: Vec<&str> = eval
        .outputs()
        .iter()
        .filter(|(key, value)| {
            pinned.and_then(|p| p.get(*key)).and_then(|v| v.as_str()) != Some(value.as_str())
        })
        .map(|(key, _)| *key)
        .collect();
    if mismatches.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "{} seed {PINNED_SEED} after {} rounds differs from pins.json in {mismatches:?}; \
             observed {{{observed}}}",
            workload.name(),
            workload.pinned_rounds()
        ))
    }
}
