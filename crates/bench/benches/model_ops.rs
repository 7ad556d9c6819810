//! Base-model primitives: forward logits, full backward, one client's local
//! step (the kernel every benign client trains through), and the
//! full-catalog scoring sweep (the item-lane kernel) used by every
//! evaluation pass.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use frs_model::{bce_logit_delta, GlobalGradients, GlobalModel, ModelConfig, ModelKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn model_ops(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    let models = [
        GlobalModel::new(&ModelConfig::mf(16), 2000, &mut rng),
        GlobalModel::new(&ModelConfig::ncf(16), 2000, &mut rng),
    ];
    let user: Vec<f32> = (0..16).map(|_| rng.gen_range(-0.5..0.5)).collect();
    // One client's local dataset: 100 positives, then 100 sampled negatives.
    let local_items: Vec<u32> = (0..200).map(|_| rng.gen_range(0..2000)).collect();

    let mut group = c.benchmark_group("model_ops");
    for model in &models {
        let label = match model.kind() {
            ModelKind::Mf => "mf",
            ModelKind::Ncf => "ncf",
        };
        group.bench_with_input(BenchmarkId::new("logit", label), model, |b, m| {
            b.iter(|| criterion::black_box(m.logit(&user, 7)));
        });
        group.bench_with_input(BenchmarkId::new("backward", label), model, |b, m| {
            b.iter(|| {
                let (logit, cache) = m.forward(&user, 7);
                let delta = bce_logit_delta(logit, 1.0);
                let mut d_user = vec![0.0f32; 16];
                let mut grads = GlobalGradients::new();
                m.backward(&user, 7, &cache, delta, &mut d_user, &mut grads);
                criterion::black_box(grads.n_items())
            });
        });
        // One client's BCE step, both phases: score the list, turn the
        // logits into deltas, backpropagate them.
        group.bench_with_input(BenchmarkId::new("local_step", label), model, |b, m| {
            b.iter(|| {
                let scale = 1.0 / local_items.len() as f32;
                let bce = |logits: &mut [f32]| {
                    for (e, x) in logits.iter_mut().enumerate() {
                        *x = bce_logit_delta(*x, if e < 100 { 1.0 } else { 0.0 }) * scale;
                    }
                };
                let mut d_user = vec![0.0f32; 16];
                let mut grads = GlobalGradients::new();
                m.local_step(&user, &local_items)
                    .backward(bce, &mut d_user, &mut grads);
                criterion::black_box(grads.n_items())
            });
        });
        // The kernel alone: its lane table is built once per evaluation,
        // outside the per-user loop this times.
        let lanes = model.item_lanes();
        let mut scores = Vec::new();
        group.bench_with_input(BenchmarkId::new("score_all_items", label), model, |b, m| {
            b.iter(|| {
                m.scores_for_user_into(&lanes, &user, &mut scores);
                criterion::black_box(scores.len())
            });
        });
    }
    group.finish();
}

criterion_group!(benches, model_ops);
criterion_main!(benches);
