//! Sharded-aggregation parity: `ShardedAggregator` over random *sparse*
//! uploads versus the dense (unsharded) path.
//!
//! Invariants pinned here (see the `ShardedAggregator` docs):
//!
//! 1. `shards == 1` delegates outright — **bitwise** identical to the bare
//!    rule, for every rule.
//! 2. Coordinate-wise rules (Sum / Median / TrimmedMean) are **bitwise**
//!    identical to the dense path at *any* shard count: partitioning the
//!    item space does not change the per-item gradient groups they reduce.
//! 3. The MLP part (dense, unsharded by nature) survives sharding
//!    unchanged for coordinate-wise rules.
//!
//! Krum-family rules intentionally select *per shard* at `shards > 1` (a
//! finer-grained defense, not a drifted copy), so only invariant 1 applies
//! to them. Part of the CI `kernel-parity` job; run locally with
//!
//! ```text
//! cargo test --release -p frs-defense --test sharded_parity
//! ```

use frs_defense::{Bulyan, Krum, Median, MultiKrum, TrimmedMean};
use frs_federation::{Aggregator, ShardedAggregator, SumAggregator};
use frs_model::{GlobalGradients, MlpGradients};
use proptest::prelude::*;

const MLP_SHAPES: [(usize, usize); 2] = [(4, 2), (2, 2)];

/// Raw material for one upload: sparse `(item, gradient)` pairs (duplicate
/// items accumulate, as in a real client round) plus an optional MLP part.
type RawUpload = (Vec<(u32, (f32, f32))>, bool, Vec<(f32, f32)>);

fn upload_strategy() -> impl Strategy<Value = RawUpload> {
    (
        prop::collection::vec((0u32..16, (-5.0f32..5.0, -5.0f32..5.0)), 0..8),
        any::<bool>(),
        prop::collection::vec((-2.0f32..2.0, -2.0f32..2.0), 9),
    )
}

fn build_upload(raw: &RawUpload) -> GlobalGradients {
    let (items, with_mlp, mlp_vals) = raw;
    let mut g = GlobalGradients::new();
    for (item, (a, b)) in items {
        g.add_item_grad(*item, &[*a, *b]);
    }
    if *with_mlp {
        let mut mlp = MlpGradients::zeros(&MLP_SHAPES, 2);
        let flat_len = mlp.flatten().len();
        let vals: Vec<f32> = mlp_vals.iter().flat_map(|&(x, y)| [x, y]).collect();
        assert!(vals.len() >= flat_len, "widen mlp_vals for these shapes");
        mlp = mlp.unflatten_like(&vals[..flat_len]);
        g.mlp = Some(mlp);
    }
    g
}

fn assert_bitwise_eq(
    sharded: &GlobalGradients,
    dense: &GlobalGradients,
    what: &str,
) -> Result<(), TestCaseError> {
    let keys = sharded.ids();
    let dense_keys = dense.ids();
    prop_assert!(
        keys == dense_keys,
        "{what}: item support differs: {keys:?} vs {dense_keys:?}"
    );
    for (item, grad) in sharded.iter() {
        let bits: Vec<u32> = grad.iter().map(|x| x.to_bits()).collect();
        let dense_bits: Vec<u32> = dense
            .get(item)
            .unwrap()
            .iter()
            .map(|x| x.to_bits())
            .collect();
        prop_assert!(bits == dense_bits, "{what}: item {item} differs");
    }
    prop_assert!(
        sharded.mlp.is_some() == dense.mlp.is_some(),
        "{what}: MLP presence differs"
    );
    if let (Some(a), Some(b)) = (&sharded.mlp, &dense.mlp) {
        let bits: Vec<u32> = a.flatten().iter().map(|x| x.to_bits()).collect();
        let dense_bits: Vec<u32> = b.flatten().iter().map(|x| x.to_bits()).collect();
        prop_assert!(bits == dense_bits, "{what}: MLP part differs");
    }
    Ok(())
}

/// Every rule under test, freshly boxed (Aggregator is not Clone).
fn rules(ratio: f64) -> Vec<Box<dyn Aggregator>> {
    vec![
        Box::new(SumAggregator),
        Box::new(Median),
        Box::new(TrimmedMean::new(ratio)),
        Box::new(Krum::new(ratio)),
        Box::new(MultiKrum::new(ratio)),
        Box::new(Bulyan::new(ratio)),
    ]
}

proptest! {
    /// Invariant 1: one shard is the dense path, bit for bit, for all rules.
    #[test]
    fn one_shard_is_bitwise_dense(
        raws in prop::collection::vec(upload_strategy(), 0..9),
        ratio in 0.05f64..0.45,
    ) {
        let uploads: Vec<GlobalGradients> = raws.iter().map(build_upload).collect();
        for (dense_rule, wrapped_rule) in rules(ratio).into_iter().zip(rules(ratio)) {
            let dense = dense_rule.aggregate(&uploads);
            let sharded = ShardedAggregator::new(wrapped_rule, 1).aggregate(&uploads);
            assert_bitwise_eq(
                &sharded,
                &dense,
                &format!("{} shards=1", dense_rule.name()),
            )?;
        }
    }

    /// Invariant 2+3: coordinate-wise rules are shard-count-invariant on
    /// sparse uploads, MLP part included.
    #[test]
    fn coordinate_rules_are_shard_invariant(
        raws in prop::collection::vec(upload_strategy(), 0..9),
        ratio in 0.05f64..0.45,
        shards in 2u32..7,
    ) {
        let uploads: Vec<GlobalGradients> = raws.iter().map(build_upload).collect();
        let coordinate_wise: Vec<(Box<dyn Aggregator>, Box<dyn Aggregator>)> = vec![
            (Box::new(SumAggregator), Box::new(SumAggregator)),
            (Box::new(Median), Box::new(Median)),
            (
                Box::new(TrimmedMean::new(ratio)),
                Box::new(TrimmedMean::new(ratio)),
            ),
        ];
        for (dense_rule, wrapped_rule) in coordinate_wise {
            let dense = dense_rule.aggregate(&uploads);
            let sharded = ShardedAggregator::new(wrapped_rule, shards).aggregate(&uploads);
            assert_bitwise_eq(
                &sharded,
                &dense,
                &format!("{} shards={}", dense_rule.name(), shards),
            )?;
        }
    }
}

/// Deterministic spot check: a sharded Krum still produces a defined,
/// finite result whose support is covered by the input support (selection
/// happens per shard — a different rule than dense Krum, but a sane one).
#[test]
fn sharded_krum_is_well_formed() {
    let mut uploads = Vec::new();
    for i in 0..8 {
        let mut g = GlobalGradients::new();
        for item in 0..12u32 {
            if (item + i) % 3 != 0 {
                g.add_item_grad(item, &[i as f32 * 0.1, 1.0 - i as f32 * 0.05]);
            }
        }
        uploads.push(g);
    }
    let input_support: std::collections::BTreeSet<u32> = uploads
        .iter()
        .flat_map(|u| u.ids().iter().copied())
        .collect();
    let out = ShardedAggregator::new(Box::new(Krum::new(0.25)), 4).aggregate(&uploads);
    assert!(out.n_items() > 0);
    for (item, grad) in out.iter() {
        assert!(
            input_support.contains(&item),
            "item {item} not in any upload"
        );
        assert!(grad.iter().all(|v| v.is_finite()));
    }
}
