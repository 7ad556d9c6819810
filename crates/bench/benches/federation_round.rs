//! Per-round cost of the sampled federation path — the unit step of the
//! million-client scale cell: seeded client sampling, lazy materialization
//! out of the embedding arena, sparse local training, and (item-sharded)
//! robust aggregation, over `paper scale`'s cell at 50k clients (1024 a
//! round).
//! The arena-snapshot bench isolates what evaluation and a serve publish
//! pay to take the pool's user embeddings: a clone of the arena's
//! copy-on-write chunk pointers, not of its rows.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use frs_bench::bench_sampled_simulation;

fn sampled_rounds(c: &mut Criterion) {
    let mut group = c.benchmark_group("round");

    let mut sim = bench_sampled_simulation(50_000, "median");
    group.bench_function("sampled_mf_50k", |b| {
        b.iter(|| black_box(sim.run_round()));
    });

    let mut sharded = bench_sampled_simulation(50_000, "median:shards=8");
    group.bench_function("sampled_sharded_mf_50k", |b| {
        b.iter(|| black_box(sharded.run_round()));
    });

    group.bench_function("sampled_snapshot_50k", |b| {
        b.iter(|| black_box(sim.user_embeddings()));
    });
    group.finish();
}

criterion_group!(benches, sampled_rounds);
criterion_main!(benches);
