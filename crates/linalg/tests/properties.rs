//! Property-based tests for the numeric primitives.
//!
//! These pin down the mathematical invariants the rest of the stack relies on:
//! metric properties of distances, bounds on cosine, simplex membership of
//! softmax, non-negativity of KL, robustness bounds of median/trimmed-mean,
//! and consistency between ranking primitives.

use frs_linalg::*;
use proptest::prelude::*;

fn vec_strategy(len: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-10.0f32..10.0, len)
}

/// `stat` of one column of values, unscaled.
fn column_stat(xs: &[f32], stat: CoordinateStat) -> f32 {
    let rows: Vec<[f32; 1]> = xs.iter().map(|&x| [x]).collect();
    let refs: Vec<&[f32]> = rows.iter().map(|r| r.as_slice()).collect();
    CoordinateReducer::default().reduce(&refs, stat, 1.0)[0]
}

proptest! {
    #[test]
    fn cosine_bounded(a in vec_strategy(8), b in vec_strategy(8)) {
        let c = cosine(&a, &b);
        prop_assert!((-1.0..=1.0).contains(&c));
    }

    #[test]
    fn cosine_symmetric(a in vec_strategy(6), b in vec_strategy(6)) {
        prop_assert!((cosine(&a, &b) - cosine(&b, &a)).abs() < 1e-5);
    }

    #[test]
    fn cosine_scale_invariant(a in vec_strategy(5), b in vec_strategy(5), s in 0.1f32..10.0) {
        let scaled: Vec<f32> = a.iter().map(|x| x * s).collect();
        prop_assert!((cosine(&scaled, &b) - cosine(&a, &b)).abs() < 1e-4);
    }

    #[test]
    fn l2_distance_triangle_inequality(
        a in vec_strategy(6), b in vec_strategy(6), c in vec_strategy(6)
    ) {
        let ab = l2_distance(&a, &b);
        let bc = l2_distance(&b, &c);
        let ac = l2_distance(&a, &c);
        prop_assert!(ac <= ab + bc + 1e-4);
    }

    #[test]
    fn l2_distance_symmetric_and_identity(a in vec_strategy(6), b in vec_strategy(6)) {
        prop_assert!((l2_distance(&a, &b) - l2_distance(&b, &a)).abs() < 1e-5);
        prop_assert!(l2_distance(&a, &a) < 1e-6);
    }

    #[test]
    fn softmax_is_simplex_point(a in vec_strategy(7)) {
        let s = softmax(&a);
        prop_assert!((s.iter().sum::<f32>() - 1.0).abs() < 1e-5);
        prop_assert!(s.iter().all(|&p| p >= 0.0));
    }

    #[test]
    fn kl_nonnegative(a in vec_strategy(6), b in vec_strategy(6)) {
        prop_assert!(kl_divergence(&a, &b) >= 0.0);
    }

    #[test]
    fn kl_zero_iff_equal_distribution(a in vec_strategy(6), shift in -5.0f32..5.0) {
        // softmax is shift-invariant, so logits differing by a constant give KL 0.
        let b: Vec<f32> = a.iter().map(|x| x + shift).collect();
        prop_assert!(kl_divergence(&a, &b) < 1e-4);
    }

    #[test]
    fn median_within_input_range(xs in prop::collection::vec(-100.0f32..100.0, 1..40)) {
        let lo = xs.iter().copied().fold(f32::INFINITY, f32::min);
        let hi = xs.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let m = column_stat(&xs, CoordinateStat::Median);
        prop_assert!(m >= lo - 1e-6 && m <= hi + 1e-6);
    }

    #[test]
    fn trimmed_mean_within_surviving_range(
        xs in prop::collection::vec(-100.0f32..100.0, 1..40),
        trim in 0usize..10,
    ) {
        let lo = xs.iter().copied().fold(f32::INFINITY, f32::min);
        let hi = xs.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let m = column_stat(&xs, CoordinateStat::TrimmedMean { trim });
        prop_assert!(m >= lo - 1e-4 && m <= hi + 1e-4);
    }

    #[test]
    fn coordinate_median_bounded_per_dim(
        vs in prop::collection::vec(vec_strategy(4), 1..12)
    ) {
        let refs: Vec<&[f32]> = vs.iter().map(|v| v.as_slice()).collect();
        let mut reducer = CoordinateReducer::default();
        let med = reducer.reduce(&refs, CoordinateStat::Median, 1.0);
        for d in 0..4 {
            let lo = vs.iter().map(|v| v[d]).fold(f32::INFINITY, f32::min);
            let hi = vs.iter().map(|v| v[d]).fold(f32::NEG_INFINITY, f32::max);
            prop_assert!(med[d] >= lo - 1e-6 && med[d] <= hi + 1e-6);
        }
    }

    #[test]
    fn top_k_is_sorted_prefix_of_argsort(scores in vec_strategy(20), k in 0usize..25) {
        let full = argsort_desc(&scores);
        let top = top_k_desc(&scores, k);
        prop_assert_eq!(&top[..], &full[..k.min(scores.len())]);
    }

    #[test]
    fn clip_l2_norm_enforces_bound(mut a in vec_strategy(6), max in 0.1f32..5.0) {
        clip_l2_norm(&mut a, max);
        prop_assert!(l2_norm(&a) <= max * (1.0 + 1e-4));
    }

    #[test]
    fn sigmoid_in_unit_interval(x in -50.0f32..50.0) {
        let s = sigmoid(x);
        prop_assert!((0.0..=1.0).contains(&s));
        prop_assert!((log_sigmoid(x) - s.max(1e-30).ln()).abs() < 1e-3);
    }

    #[test]
    fn seed_stream_deterministic(seed in any::<u64>(), idx in any::<u64>()) {
        let s1 = SeedStream::new(seed);
        let s2 = SeedStream::new(seed);
        prop_assert_eq!(s1.derive("label", idx), s2.derive("label", idx));
    }

    #[test]
    fn matvec_linearity(
        data in prop::collection::vec(-5.0f32..5.0, 12),
        x in vec_strategy(4),
        y in vec_strategy(4),
    ) {
        let m = Matrix::from_vec(3, 4, data);
        let sum: Vec<f32> = x.iter().zip(&y).map(|(a, b)| a + b).collect();
        let lhs = m.matvec(&sum);
        let mx = m.matvec(&x);
        let my = m.matvec(&y);
        for i in 0..3 {
            prop_assert!((lhs[i] - (mx[i] + my[i])).abs() < 1e-3);
        }
    }
}
