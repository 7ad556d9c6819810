//! Ablation benches for the cost of three PIECK design choices:
//! the IPE similarity metric (PCOS vs PKL), rank weighting on/off, and the
//! UEA inner-optimization depth (single-step vs the paper's batched steps).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use frs_model::{GlobalModel, ModelConfig};
use pieck_core::{ipe, uea, IpeConfig, SimilarityMetric, UeaConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn ipe_variants(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(21);
    let model = GlobalModel::new(&ModelConfig::mf(16), 2000, &mut rng);
    let popular: Vec<u32> = (0..10).collect();
    let popular_embs: Vec<&[f32]> = popular.iter().map(|&j| model.item_embedding(j)).collect();
    let target = model.item_embedding(1999).to_vec();

    let mut group = c.benchmark_group("ipe_ablation");
    for (label, cfg) in [
        ("pcos_full", IpeConfig::default()),
        (
            "pcos_unweighted",
            IpeConfig {
                use_rank_weights: false,
                ..IpeConfig::default()
            },
        ),
        (
            "pcos_unpartitioned",
            IpeConfig {
                use_sign_partition: false,
                ..IpeConfig::default()
            },
        ),
        (
            "pkl",
            IpeConfig {
                metric: SimilarityMetric::Kl,
                ..IpeConfig::default()
            },
        ),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(label), &cfg, |b, cfg| {
            b.iter(|| criterion::black_box(ipe::ipe_gradient(cfg, &popular_embs, &target)));
        });
    }
    group.finish();
}

fn uea_depth(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(22);
    let model = GlobalModel::new(&ModelConfig::mf(16), 2000, &mut rng);
    let popular: Vec<u32> = (0..50).collect();

    let mut group = c.benchmark_group("uea_ablation");
    for steps in [1usize, 3, 10] {
        let cfg = UeaConfig {
            local_steps: steps,
            ..UeaConfig::default()
        };
        group.bench_with_input(BenchmarkId::new("local_steps", steps), &cfg, |b, cfg| {
            b.iter(|| {
                criterion::black_box(uea::uea_poison_gradient(cfg, &model, &popular, 1999, 1.0))
            });
        });
    }
    group.finish();
}

criterion_group!(benches, ipe_variants, uea_depth);
criterion_main!(benches);
