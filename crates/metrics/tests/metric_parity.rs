//! Metric regression: ER@K, HR@K and NDCG from the early-exit rank probe
//! over the item-lane scorer equal a full-sort reference.
//!
//! The reference below scores every item through the per-item `logit`,
//! ranks each user's full catalogue with a complete `argsort_desc` and
//! recomputes ER/HR/NDCG from first principles — the shape the metrics used
//! before the bounded top-K scan, the scoring kernel and the probe scan.
//! Values must match **exactly** (f64 `==`), not within a tolerance: the
//! fast path decides the same membership questions. Two seeded scenarios
//! run at K = 10, and a proptest runs edge-valued worlds at every K. Part
//! of the CI `kernel-parity` job; run locally with
//!
//! ```text
//! cargo test --release -p frs-metrics --test metric_parity
//! ```

use frs_data::{Dataset, TrainTestSplit};
use frs_linalg::argsort_desc;
use frs_metrics::{ExposureReport, QualityReport};
use frs_model::{EmbeddingStore, GlobalModel, ModelConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const N_ITEMS: usize = 50;
const N_USERS: usize = 30;
const K: usize = 10;

/// Seeded random scenario: model + user embeddings + interactions + split.
fn scenario(config: &ModelConfig, seed: u64) -> (GlobalModel, Vec<Vec<f32>>, TrainTestSplit) {
    let mut rng = StdRng::seed_from_u64(seed);
    let model = GlobalModel::new(config, N_ITEMS, &mut rng);
    let dim = model.dim();
    let user_embeddings: Vec<Vec<f32>> = (0..N_USERS)
        .map(|_| (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
        .collect();
    let mut user_items: Vec<Vec<u32>> = (0..N_USERS)
        .map(|_| {
            let n = rng.gen_range(1..8);
            (0..n).map(|_| rng.gen_range(0..N_ITEMS as u32)).collect()
        })
        .collect();
    // Leave-one-out invariant: the held-out test item is never in train.
    let test_item: Vec<u32> = (0..N_USERS)
        .map(|u| {
            let t = rng.gen_range(0..N_ITEMS as u32);
            user_items[u].retain(|&j| j != t);
            t
        })
        .collect();
    let train = Dataset::from_user_items(N_ITEMS, user_items);
    (model, user_embeddings, TrainTestSplit { train, test_item })
}

/// Per-item scores: one `logit` call per item.
fn naive_scores(model: &GlobalModel, user: &[f32]) -> Vec<f32> {
    (0..model.n_items())
        .map(|j| model.logit(user, j as u32))
        .collect()
}

/// Full-sort top-K: complete descending argsort, then filter and truncate.
fn naive_top_k(scores: &[f32], k: usize, eligible: impl Fn(usize) -> bool) -> Vec<usize> {
    argsort_desc(scores)
        .into_iter()
        .filter(|&j| eligible(j))
        .take(k)
        .collect()
}

fn naive_exposure(
    model: &GlobalModel,
    embs: &[Vec<f32>],
    users: &[usize],
    train: &Dataset,
    targets: &[u32],
    k: usize,
) -> (Vec<f64>, f64) {
    let mut exposed = vec![0usize; targets.len()];
    let mut eligible_users = vec![0usize; targets.len()];
    for &u in users {
        let scores = naive_scores(model, &embs[u]);
        let top = naive_top_k(&scores, k, |j| !train.interacted(u, j as u32));
        for (t, &target) in targets.iter().enumerate() {
            if train.interacted(u, target) {
                continue;
            }
            eligible_users[t] += 1;
            if top.contains(&(target as usize)) {
                exposed[t] += 1;
            }
        }
    }
    let per_target: Vec<f64> = exposed
        .iter()
        .zip(&eligible_users)
        .map(|(&e, &n)| if n == 0 { 0.0 } else { e as f64 / n as f64 })
        .collect();
    let mean = per_target.iter().sum::<f64>() / per_target.len() as f64;
    (per_target, mean)
}

fn naive_quality(
    model: &GlobalModel,
    embs: &[Vec<f32>],
    users: &[usize],
    split: &TrainTestSplit,
    k: usize,
) -> (f64, f64) {
    let mut hits = 0usize;
    let mut ndcg_sum = 0.0f64;
    for &u in users {
        let scores = naive_scores(model, &embs[u]);
        let test = split.test_item[u];
        // Rank = position of the test item in the full sorted eligible list
        // (ties toward lower id, the argsort_desc order).
        let order = naive_top_k(&scores, usize::MAX, |j| {
            split.eligible_for_ranking(u, j as u32)
        });
        let rank = order.iter().position(|&j| j == test as usize).unwrap();
        if rank < k {
            hits += 1;
            ndcg_sum += 1.0 / ((rank as f64) + 2.0).log2();
        }
    }
    let n = users.len().max(1);
    (hits as f64 / n as f64, ndcg_sum / n as f64)
}

#[test]
fn er_at_10_is_unchanged_on_seeded_scenarios() {
    for (config, seed) in [
        (ModelConfig::mf(8), 41u64),
        (ModelConfig::ncf(8), 42),
        (ModelConfig::mf(8), 43),
    ] {
        let (model, embs, split) = scenario(&config, seed);
        let users: Vec<usize> = (0..N_USERS).collect();
        let targets = [3u32, 17, 44];
        let store = EmbeddingStore::from_rows(embs.clone());
        let report = ExposureReport::compute(&model, &store, &users, &split.train, &targets, K);
        let (naive_per_target, naive_mean) =
            naive_exposure(&model, &embs, &users, &split.train, &targets, K);
        assert_eq!(report.per_target, naive_per_target, "seed {seed}");
        assert_eq!(report.mean, naive_mean, "seed {seed}");
        assert!(report.mean >= 0.0 && report.mean <= 1.0);
    }
}

#[test]
fn hr_at_10_is_unchanged_on_seeded_scenarios() {
    for (config, seed) in [
        (ModelConfig::mf(8), 51u64),
        (ModelConfig::ncf(8), 52),
        (ModelConfig::mf(8), 53),
    ] {
        let (model, embs, split) = scenario(&config, seed);
        let users: Vec<usize> = (0..N_USERS).collect();
        let store = EmbeddingStore::from_rows(embs.clone());
        let report = QualityReport::compute(&model, &store, &users, &split, K);
        let (naive_hr, naive_ndcg) = naive_quality(&model, &embs, &users, &split, K);
        assert_eq!(report.hr, naive_hr, "seed {seed}");
        assert_eq!(report.ndcg, naive_ndcg, "seed {seed}");
        assert_eq!(report.n_users, N_USERS);
    }
}

#[test]
fn er_handles_every_target_interacted() {
    // All users interacted with the target → empty denominator, ER 0 — the
    // bounded top-K path must preserve the degenerate-case convention.
    let mut rng = StdRng::seed_from_u64(7);
    let model = GlobalModel::new(&ModelConfig::mf(4), 6, &mut rng);
    let embs = EmbeddingStore::from_rows(vec![vec![1.0, 0.0, 0.0, 0.0]; 3]);
    let train = Dataset::from_user_items(6, vec![vec![2], vec![2], vec![2]]);
    let report = ExposureReport::compute(&model, &embs, &[0, 1, 2], &train, &[2], K);
    assert_eq!(report.mean, 0.0);
}

/// Coordinates of the edge-valued worlds: signed zeros, halves and ones
/// (exact ties between items), subnormals, and ±1e30, whose products
/// overflow to ±inf and whose infinities cancel to NaN.
const COORDS: [f32; 10] = [0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 1e-40, -1e-40, 1e30, -1e30];

/// An edge-valued world of 5 users over `n_items` items, every item and
/// user coordinate drawn from [`COORDS`]: MF (`hidden` empty) or NCF with
/// the given hidden widths, random histories, a test item anywhere outside
/// its user's history, and 1–3 targets with repeats, which some users have
/// interacted with (so a user runs 0–3 rank probes).
fn edge_world(
    dim: usize,
    hidden: &[usize],
    n_items: usize,
    seed: u64,
) -> (GlobalModel, Vec<Vec<f32>>, TrainTestSplit, Vec<u32>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let config = if hidden.is_empty() {
        ModelConfig::mf(dim)
    } else {
        let mut config = ModelConfig::ncf(dim);
        config.mlp_hidden = hidden.to_vec();
        config
    };
    let mut model = GlobalModel::new(&config, n_items, &mut rng);
    let coord = |rng: &mut StdRng| COORDS[rng.gen_range(0..COORDS.len())];
    for j in 0..n_items as u32 {
        for x in model.item_embedding_mut(j) {
            *x = coord(&mut rng);
        }
    }
    let embs: Vec<Vec<f32>> = (0..5)
        .map(|_| (0..dim).map(|_| coord(&mut rng)).collect())
        .collect();
    let n = n_items as u32;
    let targets: Vec<u32> = (0..rng.gen_range(1..=3))
        .map(|_| rng.gen_range(0..n))
        .collect();
    let mut user_items = Vec::new();
    let mut test_item = Vec::new();
    for _ in 0..embs.len() {
        let test = rng.gen_range(0..n);
        let mut items: Vec<u32> = (0..n).filter(|_| rng.gen_bool(0.3)).collect();
        items.extend(targets.iter().filter(|_| rng.gen_bool(0.4)));
        items.retain(|&j| j != test);
        user_items.push(items);
        test_item.push(test);
    }
    let train = Dataset::from_user_items(n_items, user_items);
    (model, embs, TrainTestSplit { train, test_item }, targets)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Both reports against the full-sort reference at every K from 0
    /// (HR: 1) to n + 2, on MF and on NCF with one or two hidden layers.
    #[test]
    fn early_exit_reports_match_the_full_sort_reference(
        seed in any::<u64>(),
        family in 0usize..3,
        dim in 1usize..=4,
        n_items in 1usize..=40,
        widths in (1usize..=4, 1usize..=4),
    ) {
        let hidden = [widths.0, widths.1];
        let (model, embs, split, targets) = edge_world(dim, &hidden[..family], n_items, seed);
        let users: Vec<usize> = (0..embs.len()).collect();
        let store = EmbeddingStore::from_rows(embs.clone());
        for k in 0..=n_items + 2 {
            let er = ExposureReport::compute(&model, &store, &users, &split.train, &targets, k);
            let (per_target, mean) =
                naive_exposure(&model, &embs, &users, &split.train, &targets, k);
            prop_assert_eq!(&er.per_target, &per_target, "k {}", k);
            prop_assert_eq!(er.mean, mean, "k {}", k);
            if k == 0 {
                continue;
            }
            let hr = QualityReport::compute(&model, &store, &users, &split, k);
            let (naive_hr, naive_ndcg) = naive_quality(&model, &embs, &users, &split, k);
            prop_assert_eq!(hr.hr, naive_hr, "k {}", k);
            prop_assert_eq!(hr.ndcg, naive_ndcg, "k {}", k);
        }
    }
}
