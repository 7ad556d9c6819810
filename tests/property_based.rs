//! Property-based tests across crate boundaries: aggregation rules stay
//! within safe envelopes, and client training never produces non-finite
//! gradients.

use pieck_frs::defense::{DefenseBuildCtx, DefenseKind, DefenseSel};
use pieck_frs::federation::upload_norm;
use pieck_frs::model::GlobalGradients;
use proptest::prelude::*;

fn upload_strategy() -> impl Strategy<Value = GlobalGradients> {
    prop::collection::btree_map(0u32..500, prop::collection::vec(-10.0f32..10.0, 8), 0..12)
        .prop_map(|items| {
            let mut g = GlobalGradients::new();
            for (item, grad) in items {
                g.add_item_grad(item, &grad);
            }
            g
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn aggregators_produce_finite_outputs(
        uploads in prop::collection::vec(upload_strategy(), 1..8),
        defense_idx in 0usize..7,
    ) {
        let defense = DefenseKind::all()[defense_idx];
        let agg = DefenseSel::from(defense)
            .build(&DefenseBuildCtx::minimal(0.05, 1.0))
            .aggregator;
        let out = agg.aggregate(&uploads);
        prop_assert!(out.rows().iter().all(|v| v.is_finite()), "{:?}", defense);
    }

    #[test]
    fn norm_bound_envelope_holds(uploads in prop::collection::vec(upload_strategy(), 1..6)) {
        let agg = DefenseSel::from(DefenseKind::NormBound)
            .build(&DefenseBuildCtx::minimal(0.05, 1.0))
            .aggregator;
        let out = agg.aggregate(&uploads);
        // Sum of clipped uploads: ‖out‖ ≤ Σ min(‖u‖, threshold) ≤ n·threshold.
        prop_assert!(upload_norm(&out) <= uploads.len() as f32 * 1.0 + 1e-3);
    }

    #[test]
    fn median_within_input_envelope(uploads in prop::collection::vec(upload_strategy(), 1..6)) {
        let agg = DefenseSel::from(DefenseKind::Median)
            .build(&DefenseBuildCtx::minimal(0.05, 1.0))
            .aggregator;
        let out = agg.aggregate(&uploads);
        for (item, grad) in out.iter() {
            let uploader_count = uploads.iter().filter(|u| u.get(item).is_some()).count();
            for (d, &v) in grad.iter().enumerate() {
                let lo = uploads
                    .iter()
                    .filter_map(|u| u.get(item).map(|g| g[d]))
                    .fold(f32::INFINITY, f32::min);
                let hi = uploads
                    .iter()
                    .filter_map(|u| u.get(item).map(|g| g[d]))
                    .fold(f32::NEG_INFINITY, f32::max);
                // Rescaled by uploader count, the median stays within count×[lo, hi].
                let k = uploader_count as f32;
                prop_assert!(v >= lo * k - 1e-3 && v <= hi * k + 1e-3);
            }
        }
    }
}
