//! Synthetic-dataset generation, splitting, copying and sampling throughput.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use frs_data::{leave_one_out, synth, DatasetSpec, NegativeSampler};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn dataset_gen(c: &mut Criterion) {
    let mut group = c.benchmark_group("dataset");
    group.sample_size(10);
    for scale in [0.1f64, 0.25] {
        let spec = DatasetSpec::ml100k_like().scaled(scale);
        group.bench_with_input(
            BenchmarkId::new("generate", format!("{scale}")),
            &spec,
            |b, spec| {
                b.iter(|| {
                    let mut rng = StdRng::seed_from_u64(1);
                    criterion::black_box(synth::generate(spec, &mut rng).n_interactions())
                });
            },
        );
    }
    let spec = DatasetSpec::ml100k_like().scaled(0.25);
    let data = synth::generate(&spec, &mut StdRng::seed_from_u64(1));
    group.bench_function("leave_one_out", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(2);
            criterion::black_box(leave_one_out(&data, &mut rng).test_item.len())
        });
    });
    // `paper scale`'s spec at 100k users: three interactions per user, so
    // the store's per-user cost shows instead of hiding behind ~106.
    let sparse = DatasetSpec::sparse(100_000);
    group.bench_with_input(
        BenchmarkId::new("generate", "sparse_100k"),
        &sparse,
        |b, spec| {
            b.iter(|| {
                let mut rng = StdRng::seed_from_u64(1);
                criterion::black_box(synth::generate(spec, &mut rng).n_interactions())
            });
        },
    );
    let full = synth::generate(&sparse, &mut StdRng::seed_from_u64(1));
    let train = leave_one_out(&full, &mut StdRng::seed_from_u64(2)).train;
    drop(full);
    // The copy `ScenarioRun` shares with the simulation.
    group.bench_function("clone_train", |b| b.iter(|| train.clone()));
    let sampler = NegativeSampler::new(1);
    group.bench_function("negative_sample_one_user", |b| {
        let mut rng = StdRng::seed_from_u64(3);
        b.iter(|| criterion::black_box(sampler.sample(&data, 0, &mut rng).len()));
    });
    group.finish();
}

criterion_group!(benches, dataset_gen);
criterion_main!(benches);
