//! Server-side aggregation — the defense hook.
//!
//! The paper's protocol updates each item embedding as
//! `v_j ← v_j − η · Agg({∇v_j^i | u_i ∈ U^r, v_j ∈ D_i})` and, for DL-FRS,
//! the MLP parameters with the same `Agg`. With no defense, `Agg` is a plain
//! sum; robust defenses (crate `frs-defense`) replace it.
//!
//! The contract: [`Aggregator::aggregate`] receives *every* upload of the
//! round — benign and poisonous alike, the server cannot tell them apart —
//! in deterministic (client-id) order, and returns the single combined
//! gradient set the update applies. Defenses differ in granularity: some
//! filter whole uploads (Krum, NormBound), some reduce coordinate-wise per
//! item (they walk the round's [`item_index`] and reduce each item's holder
//! rows with [`frs_linalg::CoordinateReducer`]).
//!
//! Every helper here reads uploads through `GlobalGradients`' accessors;
//! sums over many uploads go through [`GlobalGradients::weighted_sum`], one
//! pass for the whole round.

use frs_linalg::{DistanceMatrix, ItemIndex, UploadView};
use frs_model::{GlobalGradients, MlpGradients};

/// Pluggable aggregation rule over one round's uploads.
pub trait Aggregator: Send + Sync {
    /// Combines all uploads of a round into the applied update. `uploads` may
    /// be empty (no client produced gradients), in which case the result
    /// should be empty too.
    fn aggregate(&self, uploads: &[GlobalGradients]) -> GlobalGradients;

    /// Display name for experiment tables.
    fn name(&self) -> &'static str;

    /// Serializable snapshot of aggregator state, for mid-scenario
    /// checkpointing. Every builtin aggregates statelessly (`aggregate`
    /// takes `&self`), so the `Value::Null` default is the norm; a custom
    /// defense with interior-mutable history overrides both hooks.
    fn checkpoint_state(&self) -> serde::Value {
        serde::Value::Null
    }

    /// Overlays a snapshot captured by [`Aggregator::checkpoint_state`].
    fn restore_state(&mut self, state: &serde::Value) -> Result<(), String> {
        if state.is_null() {
            Ok(())
        } else {
            Err(format!(
                "aggregator {} holds no restorable state but checkpoint carries {}",
                self.name(),
                state.kind()
            ))
        }
    }
}

/// The undefended baseline: plain sum (paper Section III-A step 4).
#[derive(Debug, Clone, Copy, Default)]
pub struct SumAggregator;

impl Aggregator for SumAggregator {
    fn aggregate(&self, uploads: &[GlobalGradients]) -> GlobalGradients {
        sum_uploads(uploads)
    }

    fn name(&self) -> &'static str {
        "NoDefense"
    }
}

/// Item-sharded wrapper around any aggregation rule.
///
/// Uploads are sparse — a client touches only its local items — but
/// whole-upload rules (the Krum family) still compare rounds in the full
/// upload space, and coordinate-wise rules walk one big per-item grouping. At
/// million-client round widths that is one huge working set. Sharding
/// splits the item space by `item % shards` and runs the inner rule
/// independently per shard over only the coordinates that shard touches,
/// shrinking the per-invocation working set and bounding the distance
/// matrices; MLP gradients (dense, unsharded by nature) are aggregated in
/// one extra pass of their own.
///
/// Each shard's part of an upload is built in one pass over the upload's
/// sorted ids, so every item row is copied once, into its own shard (the
/// inner rule takes owned uploads).
///
/// Determinism and parity (pinned by `sharded_parity` in the CI
/// `kernel-parity` job):
/// - `shards == 1` delegates outright — bitwise-identical to the bare rule.
/// - Coordinate-wise rules (Sum/Median/TrimmedMean) are bitwise-identical
///   to the dense path at **any** shard count: per-item gathering is
///   unchanged by partitioning the item space.
/// - Whole-upload rules (Krum/MultiKrum/Bulyan) select per shard at
///   `shards > 1` — deliberately a different (finer-grained) defense, not a
///   drifted implementation of the same one.
pub struct ShardedAggregator {
    inner: Box<dyn Aggregator>,
    shards: u32,
}

impl ShardedAggregator {
    /// Wraps `inner`, splitting the item space into `shards` residue
    /// classes. `shards` must be ≥ 1.
    pub fn new(inner: Box<dyn Aggregator>, shards: u32) -> Self {
        assert!(shards >= 1, "shards must be ≥ 1");
        Self { inner, shards }
    }

    /// Shard count this wrapper was built with.
    pub fn shards(&self) -> u32 {
        self.shards
    }
}

impl Aggregator for ShardedAggregator {
    fn aggregate(&self, uploads: &[GlobalGradients]) -> GlobalGradients {
        if self.shards <= 1 {
            return self.inner.aggregate(uploads);
        }
        // Item pass: per shard, present each upload's touched coordinates in
        // that residue class (uploads with no items there drop out of the
        // shard entirely). Output supports are disjoint across shards, so
        // summing the outputs just interleaves their rows.
        let mut shard_uploads: Vec<GlobalGradients> = Vec::with_capacity(uploads.len());
        let mut outputs = Vec::new();
        for s in 0..self.shards {
            shard_uploads.clear();
            for upload in uploads {
                let mut part = GlobalGradients::new();
                for (item, grad) in upload.iter().filter(|&(item, _)| item % self.shards == s) {
                    part.add_item_grad(item, grad);
                }
                if part.n_items() > 0 {
                    shard_uploads.push(part);
                }
            }
            outputs.push(self.inner.aggregate(&shard_uploads));
        }
        let mut out = sum_uploads(&outputs);
        // MLP pass: the dense part aggregates once, over exactly the uploads
        // that carry one.
        let mlp_uploads: Vec<GlobalGradients> = uploads
            .iter()
            .filter(|u| u.mlp.is_some())
            .map(|u| {
                let mut mlp_only = GlobalGradients::new();
                mlp_only.mlp = u.mlp.clone();
                mlp_only
            })
            .collect();
        if !mlp_uploads.is_empty() {
            out.mlp = self.inner.aggregate(&mlp_uploads).mlp;
        }
        out
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn checkpoint_state(&self) -> serde::Value {
        self.inner.checkpoint_state()
    }

    fn restore_state(&mut self, state: &serde::Value) -> Result<(), String> {
        self.inner.restore_state(state)
    }
}

/// Sums a set of uploads item-wise and MLP-wise, in one pass
/// ([`GlobalGradients::weighted_sum`] with every weight 1).
pub fn sum_uploads(uploads: &[GlobalGradients]) -> GlobalGradients {
    GlobalGradients::weighted_sum(uploads.iter().map(|u| (1.0, u)))
}

/// Groups uploads per item: every distinct item in ascending id, with its
/// holders (index into `uploads`, row position) in the order `uploads` yields
/// them (the server's client-id order, or a defense's selection). The
/// building block for coordinate-wise defenses (Median, TrimmedMean, Bulyan).
pub fn item_index<'a>(uploads: impl IntoIterator<Item = &'a GlobalGradients>) -> ItemIndex {
    ItemIndex::new(uploads.into_iter().map(GlobalGradients::ids))
}

/// Collects the MLP gradient parts of uploads, in order.
pub fn gather_mlp_gradients<'a>(
    uploads: impl IntoIterator<Item = &'a GlobalGradients>,
) -> Vec<&'a MlpGradients> {
    uploads.into_iter().filter_map(|u| u.mlp.as_ref()).collect()
}

/// Squared L2 distance between two *whole uploads*, treating items absent
/// from one side as zero vectors and including the flattened MLP part.
/// Krum-family defenses compare uploads in this space; this is the reference
/// each cell of [`upload_distance_matrix`] matches bit for bit.
pub fn upload_squared_distance(a: &GlobalGradients, b: &GlobalGradients) -> f32 {
    let mut total = 0.0f32;
    for (item, ga) in a.iter() {
        match b.get(item) {
            Some(gb) => total += frs_linalg::squared_l2_distance(ga, gb),
            None => total += frs_linalg::dot(ga, ga),
        }
    }
    for (item, gb) in b.iter() {
        if a.get(item).is_none() {
            total += frs_linalg::dot(gb, gb);
        }
    }
    match (&a.mlp, &b.mlp) {
        (Some(ma), Some(mb)) => {
            let fa = ma.flatten();
            let fb = mb.flatten();
            total += frs_linalg::squared_l2_distance(&fa, &fb);
        }
        (Some(m), None) | (None, Some(m)) => {
            let f = m.flatten();
            total += frs_linalg::dot(&f, &f);
        }
        (None, None) => {}
    }
    total
}

/// Adapts one upload for the distance kernel: its id slice and row block,
/// borrowed in place, the rows' self-dots, and the MLP part flattened once.
pub fn upload_view(upload: &GlobalGradients) -> UploadView<'_> {
    UploadView::new(
        upload.ids(),
        upload.rows(),
        upload.dim(),
        upload.mlp.as_ref().map(MlpGradients::flatten),
    )
}

/// The round's full pairwise-distance matrix in upload-distance space: for
/// `i < j`, cell `(i, j)` is bitwise-equal to [`upload_squared_distance`] in
/// `(i, j)` argument order. One item-major sweep over the uploads' views
/// ([`DistanceMatrix::from_uploads`]) fills it. Krum, Multi-Krum, and Bulyan
/// all score and select on this one matrix.
pub fn upload_distance_matrix(uploads: &[GlobalGradients]) -> DistanceMatrix {
    let views: Vec<UploadView<'_>> = uploads.iter().map(upload_view).collect();
    DistanceMatrix::from_uploads(&views)
}

/// Global L2 norm of one upload (items + MLP).
pub fn upload_norm(upload: &GlobalGradients) -> f32 {
    let mut sq = 0.0f32;
    for (_, grad) in upload.iter() {
        sq += frs_linalg::dot(grad, grad);
    }
    if let Some(mlp) = &upload.mlp {
        let n = mlp.l2_norm();
        sq += n * n;
    }
    sq.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn upload(pairs: &[(u32, Vec<f32>)]) -> GlobalGradients {
        let mut g = GlobalGradients::new();
        for (item, grad) in pairs {
            g.add_item_grad(*item, grad);
        }
        g
    }

    #[test]
    fn sum_aggregator_sums_disjoint_and_overlapping() {
        let u1 = upload(&[(1, vec![1.0, 0.0]), (2, vec![2.0, 2.0])]);
        let u2 = upload(&[(2, vec![-1.0, 1.0])]);
        let out = SumAggregator.aggregate(&[u1, u2]);
        assert_eq!(out.get(1), Some(&[1.0, 0.0][..]));
        assert_eq!(out.get(2), Some(&[1.0, 3.0][..]));
        assert!(out.mlp.is_none());
    }

    #[test]
    fn gather_groups_by_item() {
        let u1 = upload(&[(1, vec![1.0]), (2, vec![2.0])]);
        let u2 = upload(&[(2, vec![3.0])]);
        let uploads = vec![u1, u2];
        let by_item: Vec<(u32, Vec<f32>)> = item_index(&uploads)
            .iter()
            .map(|(item, holders)| {
                let firsts = holders.iter().map(|h| uploads[h.upload()].row(h.pos())[0]);
                (item, firsts.collect())
            })
            .collect();
        assert_eq!(by_item, vec![(1, vec![1.0]), (2, vec![2.0, 3.0])]);
    }

    #[test]
    fn mlp_summation_via_axpy() {
        let mut u1 = GlobalGradients::new();
        let mut m1 = MlpGradients::zeros(&[(2, 1)], 1);
        m1.projection[0] = 1.0;
        u1.mlp = Some(m1);
        let mut u2 = GlobalGradients::new();
        let mut m2 = MlpGradients::zeros(&[(2, 1)], 1);
        m2.projection[0] = 2.0;
        u2.mlp = Some(m2);
        let out = SumAggregator.aggregate(&[u1, u2]);
        assert_eq!(out.mlp.unwrap().projection[0], 3.0);
    }

    #[test]
    fn empty_uploads_produce_empty_update() {
        let out = SumAggregator.aggregate(&[]);
        assert!(out.is_empty());
    }

    #[test]
    fn upload_distance_handles_disjoint_support() {
        let a = upload(&[(1, vec![3.0, 4.0])]);
        let b = upload(&[(2, vec![1.0, 0.0])]);
        // Disjoint: ‖a‖² + ‖b‖² = 25 + 1.
        assert!((upload_squared_distance(&a, &b) - 26.0).abs() < 1e-5);
        // Identity.
        assert_eq!(upload_squared_distance(&a, &a), 0.0);
    }

    #[test]
    fn upload_distance_symmetric() {
        let a = upload(&[(1, vec![1.0]), (3, vec![2.0])]);
        let b = upload(&[(1, vec![-1.0]), (2, vec![0.5])]);
        assert_eq!(
            upload_squared_distance(&a, &b),
            upload_squared_distance(&b, &a)
        );
    }

    #[test]
    fn upload_norm_covers_items_and_mlp() {
        let mut u = upload(&[(1, vec![3.0, 4.0])]);
        assert!((upload_norm(&u) - 5.0).abs() < 1e-6);
        let mut m = MlpGradients::zeros(&[(2, 1)], 1);
        m.projection[0] = 12.0;
        u.mlp = Some(m);
        assert!((upload_norm(&u) - 13.0).abs() < 1e-5);
    }
}
