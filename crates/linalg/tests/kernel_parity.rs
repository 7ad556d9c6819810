//! Kernel parity: the blocked, partial-select and bounded-scan fast paths
//! are **bitwise** equal to their naive scalar references.
//!
//! The whole aggregation stack (shared distance matrix → Krum scores →
//! metric top-K) is built on the guarantee that switching kernels never
//! changes a single output bit, so golden reports stay `cmp`-identical
//! across the refactor. These proptests are the CI `kernel-parity` job; run
//! them locally with
//!
//! ```text
//! cargo test --release -p frs-linalg --test kernel_parity
//! ```

use frs_linalg::{
    argsort_desc, dot, dot_blocked, squared_distance_blocked, squared_l2_distance, sum_k_smallest,
    top_k_desc_filtered_into, DistanceMatrix,
};
use proptest::prelude::*;

/// Scores for the top-K scan: heavy ties, both zeros, both NaNs and both
/// infinities, drawn from a small pool so equal keys are common.
const SCORE_POOL: [f32; 10] = [
    1.0,
    -1.0,
    0.0,
    -0.0,
    2.5,
    f32::NAN,
    -f32::NAN,
    f32::INFINITY,
    f32::NEG_INFINITY,
    1e-40,
];

fn vec_pair(max_len: usize) -> impl Strategy<Value = (Vec<f32>, Vec<f32>)> {
    // Two equal-length vectors; lengths sweep through every unroll remainder
    // (0..4) and across many 4-wide chunk boundaries.
    prop::collection::vec((-100.0f32..100.0, -100.0f32..100.0), 0..max_len)
        .prop_map(|pairs| pairs.into_iter().unzip())
}

/// Naive Krum scoring straight off a distance closure: full per-row sort,
/// prefix sum — the shape the defenses used before the shared matrix.
fn naive_krum_scores(
    n: usize,
    f: usize,
    dist: impl Fn(usize, usize) -> f32,
) -> Option<Vec<(usize, f32)>> {
    if n <= f + 2 {
        return None;
    }
    let keep = n - f - 2;
    let mut scores = Vec::with_capacity(n);
    for i in 0..n {
        let mut row: Vec<f32> = (0..n).filter(|&j| j != i).map(|j| dist(i, j)).collect();
        row.sort_by(f32::total_cmp);
        scores.push((i, row[..keep].iter().sum()));
    }
    Some(scores)
}

proptest! {
    #[test]
    fn blocked_squared_distance_is_bitwise_scalar((a, b) in vec_pair(70)) {
        prop_assert_eq!(
            squared_distance_blocked(&a, &b).to_bits(),
            squared_l2_distance(&a, &b).to_bits()
        );
    }

    #[test]
    fn blocked_dot_is_bitwise_scalar((a, b) in vec_pair(70)) {
        prop_assert_eq!(dot_blocked(&a, &b).to_bits(), dot(&a, &b).to_bits());
    }

    #[test]
    fn blocked_kernels_preserve_negative_zero_identity(len in 0usize..12) {
        // All-zero inputs: `.sum()` folds from -0.0, and the blocked kernels
        // must reproduce that exact bit pattern, not +0.0.
        let a = vec![0.0f32; len];
        prop_assert_eq!(
            squared_distance_blocked(&a, &a).to_bits(),
            squared_l2_distance(&a, &a).to_bits()
        );
        prop_assert_eq!(dot_blocked(&a, &a).to_bits(), dot(&a, &a).to_bits());
    }

    #[test]
    fn sum_k_smallest_is_bitwise_sorted_prefix(
        values in prop::collection::vec(-50.0f32..50.0, 0..40),
        k in 0usize..45,
    ) {
        let mut sorted = values.clone();
        sorted.sort_by(f32::total_cmp);
        let reference: f32 = sorted[..k.min(sorted.len())].iter().sum();
        let mut scratch = values;
        prop_assert_eq!(sum_k_smallest(&mut scratch, k).to_bits(), reference.to_bits());
    }

    #[test]
    fn bounded_top_k_scan_is_the_filtered_full_sort_prefix(
        picks in prop::collection::vec(0usize..SCORE_POOL.len(), 0..40),
        mode in 0u8..3,
        mask in prop::collection::vec(any::<bool>(), 40),
    ) {
        let scores: Vec<f32> = picks.iter().map(|&p| SCORE_POOL[p]).collect();
        let n = scores.len();
        // No, all, and sparse eligibility.
        let eligible = |i: usize| match mode {
            0 => false,
            1 => true,
            _ => mask[i],
        };
        let full: Vec<usize> = argsort_desc(&scores).into_iter().filter(|&i| eligible(i)).collect();
        let mut out = vec![usize::MAX; 3];
        for k in 0..=n + 2 {
            let mut asked = Vec::new();
            top_k_desc_filtered_into(&scores, k, |i| { asked.push(i); eligible(i) }, &mut out);
            let want = &full[..k.min(full.len())];
            prop_assert!(out == want, "k={k}: {out:?} vs {want:?} for {scores:?}");
            // Each index is asked about at most once, in ascending order,
            // and never when the list can hold nothing.
            prop_assert!(asked.windows(2).all(|w| w[0] < w[1]), "k={k}: asked {asked:?}");
            prop_assert!(k > 0 || asked.is_empty());
        }
    }

    #[test]
    fn distance_matrix_evaluates_each_pair_once_per_cell(
        seed in prop::collection::vec(0.0f32..1.0, 10)
    ) {
        let dist = |i: usize, j: usize| seed[i] * 31.0 + seed[j] * 7.0 + (i * 10 + j) as f32;
        let sym = |i: usize, j: usize| dist(i.min(j), i.max(j));
        let m = DistanceMatrix::from_fn(seed.len(), sym);
        for i in 0..seed.len() {
            prop_assert_eq!(m.get(i, i).to_bits(), 0.0f32.to_bits());
            for j in 0..seed.len() {
                if i != j {
                    prop_assert_eq!(m.get(i, j).to_bits(), sym(i, j).to_bits());
                    prop_assert_eq!(m.get(j, i).to_bits(), m.get(i, j).to_bits());
                }
            }
        }
    }

    #[test]
    fn krum_scores_are_bitwise_naive(
        seed in prop::collection::vec(0.0f32..10.0, 3..14),
        f in 0usize..5,
    ) {
        let n = seed.len();
        let dist = |i: usize, j: usize| {
            let (lo, hi) = (i.min(j), i.max(j));
            (seed[lo] - seed[hi]) * (seed[lo] - seed[hi]) + (lo + hi) as f32 * 0.125
        };
        let matrix = DistanceMatrix::from_fn(n, dist);
        let fast = matrix.krum_scores(f);
        let naive = naive_krum_scores(n, f, dist);
        prop_assert_eq!(fast.is_some(), naive.is_some());
        if let (Some(fast), Some(naive)) = (fast, naive) {
            prop_assert_eq!(fast.len(), naive.len());
            for ((fi, fs), (ni, ns)) in fast.iter().zip(&naive) {
                prop_assert_eq!(fi, ni);
                prop_assert_eq!(fs.to_bits(), ns.to_bits());
            }
        }
    }
}
