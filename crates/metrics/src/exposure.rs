//! Exposure Ratio at rank K (ER@K) — Eq. (3).
//!
//! `ER_j@K = |Ū_j| / |Ū \ Ū'_j|` where `Ū_j` is the set of benign users whose
//! top-K recommendation lists contain target item `v_j`, and `Ū'_j` those who
//! already interacted with it (they are excluded from the denominator and can
//! never be "newly exposed"). The attack metric is the mean over all targets.
//!
//! A user's top-K list is the first K uninteracted items in the full-sort
//! order (`total_cmp` descending, ties to the lower id), so `v_j` is on it
//! iff fewer than K uninteracted items rank ahead of it. Each user runs one
//! rank probe (the private `probe` module) per target it has not interacted
//! with; the catalogue scan stops once every target has K items ahead, so
//! only a target in the user's top-K costs a full scan.

use frs_data::Dataset;
use frs_model::{EmbeddingStore, GlobalModel};

use crate::probe::{rank_probes, Probe};

/// ER@K for every target plus the mean — one probe scan per user.
#[derive(Debug, Clone)]
pub struct ExposureReport {
    /// `per_target[t]` = ER@K of `targets[t]`, in `[0, 1]`.
    pub per_target: Vec<f64>,
    /// Mean over targets (the paper's headline ER@K).
    pub mean: f64,
    pub k: usize,
}

impl ExposureReport {
    /// Computes ER@K over `benign_users`.
    ///
    /// `user_embeddings` must hold the *current* personalized embedding of
    /// every user; `train` is the training interaction data that defines
    /// which items are eligible for a user's recommendation list
    /// (uninteracted only, Section III-A).
    pub fn compute(
        model: &GlobalModel,
        user_embeddings: &EmbeddingStore,
        benign_users: &[usize],
        train: &Dataset,
        targets: &[u32],
        k: usize,
    ) -> Self {
        assert!(!targets.is_empty(), "need at least one target item");
        let mut exposed = vec![0usize; targets.len()];
        let mut eligible_users = vec![0usize; targets.len()];

        // The lane table and the probe buffers live across the user loop:
        // the whole population scan allocates a constant number of vectors
        // beside the scorer's own.
        let lanes = model.item_lanes();
        let mut probes = Vec::with_capacity(targets.len());
        let mut slots = Vec::with_capacity(targets.len());
        for &u in benign_users {
            probes.clear();
            slots.clear();
            for (t, &target) in targets.iter().enumerate() {
                if train.interacted(u, target) {
                    continue; // u ∈ Ū'_j: excluded from the denominator.
                }
                eligible_users[t] += 1;
                probes.push(Probe::new(target));
                slots.push(t);
            }
            if probes.is_empty() {
                continue;
            }
            let mut scorer = model.user_scorer(&lanes, user_embeddings.row(u));
            rank_probes(&mut scorer, &mut probes, k, |j| !train.interacted(u, j));
            for (&t, probe) in slots.iter().zip(&probes) {
                if probe.ahead() < k {
                    exposed[t] += 1;
                }
            }
        }

        let per_target: Vec<f64> = exposed
            .iter()
            .zip(&eligible_users)
            .map(|(&e, &n)| if n == 0 { 0.0 } else { e as f64 / n as f64 })
            .collect();
        // lint:allow(float-reduction-order): sequential fold in target order, fixed by the scenario's target list
        let mean = per_target.iter().sum::<f64>() / per_target.len() as f64;
        Self {
            per_target,
            mean,
            k,
        }
    }

    /// Mean ER as a percentage (the unit used in all of the paper's tables).
    pub fn mean_percent(&self) -> f64 {
        self.mean * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use frs_model::ModelConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// 4 users × 6 items; users 0..3 benign. User embeddings are unit axes so
    /// MF scores equal item-embedding coordinates — fully controllable.
    fn setup() -> (GlobalModel, EmbeddingStore, Dataset) {
        let mut rng = StdRng::seed_from_u64(0);
        let mut model = GlobalModel::new(&ModelConfig::mf(2), 6, &mut rng);
        // Item j embedding = [j, 0]: scores increase with item id on axis 0.
        for j in 0..6u32 {
            let emb = model.item_embedding_mut(j);
            emb[0] = j as f32;
            emb[1] = 0.0;
        }
        let user_embeddings = EmbeddingStore::from_rows(vec![vec![1.0, 0.0]; 4]);
        // User 0 interacted with item 5 (the top item) and 1; others with 1.
        let data = Dataset::from_user_items(6, vec![vec![1, 5], vec![1], vec![1], vec![1]]);
        (model, user_embeddings, data)
    }

    #[test]
    fn er_counts_topk_membership() {
        let (model, embs, data) = setup();
        let benign = [0usize, 1, 2, 3];
        // k=2: for users 1..3 top-2 uninteracted = {5, 4}; for user 0 = {4, 3}.
        let rep = ExposureReport::compute(&model, &embs, &benign, &data, &[4], 2);
        assert!((rep.mean - 1.0).abs() < 1e-12, "item 4 in everyone's top-2");
        let rep = ExposureReport::compute(&model, &embs, &benign, &data, &[3], 2);
        assert!(
            (rep.mean - 0.25).abs() < 1e-12,
            "item 3 only in user 0's top-2"
        );
    }

    #[test]
    fn er_excludes_interacted_users_from_denominator() {
        let (model, embs, data) = setup();
        let benign = [0usize, 1, 2, 3];
        // Item 5: user 0 interacted, so denominator is 3 users; all have 5 on top.
        let rep = ExposureReport::compute(&model, &embs, &benign, &data, &[5], 1);
        assert!((rep.mean - 1.0).abs() < 1e-12);
        // Item 1: every user interacted — denominator empty ⇒ ER defined as 0.
        let rep = ExposureReport::compute(&model, &embs, &benign, &data, &[1], 6);
        assert_eq!(rep.mean, 0.0);
    }

    #[test]
    fn er_zero_for_cold_bottom_item() {
        let (model, embs, data) = setup();
        let rep = ExposureReport::compute(&model, &embs, &[0, 1, 2, 3], &data, &[0], 2);
        assert_eq!(rep.mean, 0.0);
    }

    #[test]
    fn multi_target_mean() {
        let (model, embs, data) = setup();
        let rep = ExposureReport::compute(&model, &embs, &[0, 1, 2, 3], &data, &[4, 0], 2);
        assert_eq!(rep.per_target.len(), 2);
        assert!((rep.mean - 0.5).abs() < 1e-12);
        assert!((rep.mean_percent() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn benign_subset_only() {
        let (model, embs, data) = setup();
        // Only user 0 counted: item 3 is in their top-2.
        let rep = ExposureReport::compute(&model, &embs, &[0], &data, &[3], 2);
        assert!((rep.mean - 1.0).abs() < 1e-12);
    }
}
