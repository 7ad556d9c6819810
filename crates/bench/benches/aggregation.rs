//! Server-side aggregation cost per defense — the Table IV rows' runtime
//! counterpart: how expensive is each robust rule on one round's uploads?

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use frs_bench::{bench_cell_uploads, bench_uploads};
use frs_defense::{DefenseBuildCtx, DefenseKind, DefenseSel};
use frs_federation::Catalog;

fn aggregation(c: &mut Criterion) {
    let uploads = bench_uploads(64, 3, 400, 16);
    let mut group = c.benchmark_group("aggregation");
    for defense in DefenseKind::all() {
        if defense == DefenseKind::Ours {
            continue; // client-side; server part equals NoDefense
        }
        let agg = DefenseSel::from(defense)
            .build(&DefenseBuildCtx::minimal(0.05, 0.05))
            .aggregator;
        group.bench_with_input(
            BenchmarkId::from_parameter(defense.label()),
            &uploads,
            |b, uploads| b.iter(|| criterion::black_box(agg.aggregate(uploads))),
        );
    }
    // Bulyan at the `cell-mf-bulyan` round shape (256 uploads of ~200 of
    // 1682 items, dim 16): the shared distance matrix, then the per-item
    // trimmed mean over the item index and the row-lane sort.
    let cell = bench_cell_uploads(256, 1682, 16);
    let bulyan = DefenseSel::from(DefenseKind::Bulyan)
        .build(&DefenseBuildCtx::minimal(0.05, 0.05))
        .aggregator;
    group.bench_with_input(
        BenchmarkId::from_parameter("Bulyan_cell_256x200"),
        &cell,
        |b, uploads| b.iter(|| criterion::black_box(bulyan.aggregate(uploads))),
    );
    group.finish();
}

criterion_group!(benches, aggregation);
criterion_main!(benches);
