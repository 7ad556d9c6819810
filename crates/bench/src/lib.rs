//! Shared fixtures for the Criterion benches.
//!
//! Everything here builds *small but structurally faithful* worlds: real
//! synthetic datasets, trained-for-a-few-rounds models, and realistic round
//! uploads, so the benches measure the shapes that matter (per-round cost,
//! aggregation cost vs defense, attack crafting cost) without taking minutes
//! per sample.
//!
//! The sibling [`gate`] module is the CI perf-regression gate comparing a
//! quick-mode run against the committed `BENCH_baseline.json`.

pub mod gate;

use std::sync::Arc;

use frs_attacks::AttackKind;
use frs_data::popularity::{zipf_weights, CumulativeSampler, DistinctScratch};
use frs_data::{Dataset, DatasetSpec};
use frs_defense::{DefenseKind, DefenseSel};
use frs_experiments::{paper_scenario, scale_scenario, PaperDataset, ScenarioConfig};
use frs_federation::Simulation;
use frs_model::{EmbeddingStore, GlobalGradients, GlobalModel, ModelConfig, ModelKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Benchmark dataset scale (relative to the paper's ML-100K).
pub const BENCH_SCALE: f64 = 0.15;

/// A ready-to-run simulation for the given attack/defense pair.
pub fn bench_simulation(kind: ModelKind, attack: AttackKind, defense: DefenseKind) -> Simulation {
    bench_simulation_at_width(kind, attack, defense, 1)
}

/// Like [`bench_simulation`], with a frozen per-round fan-out width — the
/// fixture behind the `round_width` scaling bench.
pub fn bench_simulation_at_width(
    kind: ModelKind,
    attack: AttackKind,
    defense: DefenseKind,
    width: usize,
) -> Simulation {
    let mut cfg: ScenarioConfig = paper_scenario(PaperDataset::Ml100k, kind, BENCH_SCALE, 42);
    cfg.attack = attack.into();
    cfg.defense = defense.into();
    cfg.federation.round_threads = frs_federation::RoundThreads::Fixed(width);
    let (_, split, targets) = frs_experiments::scenario::build_world(&cfg);
    let train = Arc::new(split.train);
    frs_experiments::scenario::build_simulation(&cfg, train, &targets)
}

/// `paper scale`'s cell ([`scale_scenario`]) over `n_users` registered
/// clients under `defense` — the fixture behind the `round/sampled_*`
/// benches, the CI scale cell two orders of magnitude smaller.
pub fn bench_sampled_simulation(n_users: usize, defense: &str) -> Simulation {
    let mut cfg = scale_scenario(n_users, 42);
    cfg.defense = DefenseSel::parse(defense).expect("bench defense spec");
    let (_, split, targets) = frs_experiments::scenario::build_world(&cfg);
    let train = Arc::new(split.train);
    frs_experiments::scenario::build_simulation(&cfg, train, &targets)
}

/// A small trained-ish model plus dataset for metric benches.
pub fn bench_world() -> (GlobalModel, EmbeddingStore, Arc<Dataset>) {
    let mut rng = StdRng::seed_from_u64(7);
    let data = Arc::new(frs_data::synth::generate(
        &DatasetSpec::ml100k_like().scaled(BENCH_SCALE),
        &mut rng,
    ));
    let model = GlobalModel::new(&ModelConfig::mf(16), data.n_items(), &mut rng);
    let users = EmbeddingStore::from_rows(
        (0..data.n_users())
            .map(|_| (0..16).map(|_| rng.gen_range(-0.5..0.5)).collect())
            .collect(),
    );
    (model, users, data)
}

/// One round at the `cell-mf-bulyan` shape: `n` uploads of 180–221 distinct
/// items each, Zipf-drawn out of `n_items`, with `dim`-dim gradients. The
/// exponent 0.5 reproduces that cell's measured overlap, about 35 shared items
/// per pair of uploads, which is what the Krum-family distance matrix pays
/// for.
pub fn bench_cell_uploads(n: usize, n_items: usize, dim: usize) -> Vec<GlobalGradients> {
    let mut rng = StdRng::seed_from_u64(17);
    let sampler = CumulativeSampler::new(&zipf_weights(n_items, 0.5));
    let mut scratch = DistinctScratch::default();
    (0..n)
        .map(|_| {
            let mut g = GlobalGradients::new();
            let count = rng.gen_range(180..222);
            for &item in sampler.sample_distinct(count, &mut rng, &mut scratch) {
                let grad: Vec<f32> = (0..dim).map(|_| rng.gen_range(-0.01..0.01)).collect();
                g.add_item_grad(item as u32, &grad);
            }
            g
        })
        .collect()
}

/// Realistic per-round uploads: `n` sparse benign-like uploads over `items`
/// items of `dim` dims, plus `n_poison` single-item poison uploads.
pub fn bench_uploads(n: usize, n_poison: usize, items: u32, dim: usize) -> Vec<GlobalGradients> {
    let mut rng = StdRng::seed_from_u64(13);
    let mut uploads = Vec::with_capacity(n + n_poison);
    for _ in 0..n {
        let mut g = GlobalGradients::new();
        for _ in 0..40 {
            let item = rng.gen_range(0..items);
            let grad: Vec<f32> = (0..dim).map(|_| rng.gen_range(-0.01..0.01)).collect();
            g.add_item_grad(item, &grad);
        }
        uploads.push(g);
    }
    for _ in 0..n_poison {
        let mut g = GlobalGradients::new();
        let grad: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
        g.add_item_grad(0, &grad);
        uploads.push(g);
    }
    uploads
}
