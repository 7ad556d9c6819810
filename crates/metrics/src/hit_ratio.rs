//! Recommendation-quality metrics under the leave-one-out protocol.
//!
//! **HR@K**: the fraction of users whose held-out test item lands in their
//! top-K recommendation list (ranked among all items the user has not
//! interacted with in training). **NDCG@K** additionally rewards placing the
//! test item near the top: `1/log₂(rank+2)`.
//!
//! The rank is the test item's zero-based position among the eligible items
//! in the full-sort order every list uses (`total_cmp` descending, ties to
//! the lower id), so it agrees with `argsort_desc` on ±0 and NaN scores
//! too. It comes from one rank probe (the private `probe` module) per user,
//! capped at K: the catalogue scan stops once K eligible items rank ahead
//! of the test item, so only a hit costs a full scan.

use frs_data::{Dataset, TrainTestSplit};
use frs_model::{EmbeddingStore, GlobalModel};

use crate::probe::{rank_probes, Probe};

/// HR@K and NDCG@K over a set of users.
#[derive(Debug, Clone)]
pub struct QualityReport {
    pub hr: f64,
    pub ndcg: f64,
    pub k: usize,
    /// Number of users evaluated.
    pub n_users: usize,
}

impl QualityReport {
    /// Evaluates users in `eval_users` (typically the benign users) against
    /// a leave-one-out split: [`Self::compute_held_out`] on its two halves.
    pub fn compute(
        model: &GlobalModel,
        user_embeddings: &EmbeddingStore,
        eval_users: &[usize],
        split: &TrainTestSplit,
        k: usize,
    ) -> Self {
        Self::compute_held_out(
            model,
            user_embeddings,
            eval_users,
            &split.train,
            &split.test_item,
            k,
        )
    }

    /// Evaluates users in `eval_users`: user `u`'s held-out `test_item[u]`
    /// ranked among the items `train` does not list for `u`. For callers
    /// that keep the training set apart from the held-out items instead of
    /// a whole [`TrainTestSplit`].
    pub fn compute_held_out(
        model: &GlobalModel,
        user_embeddings: &EmbeddingStore,
        eval_users: &[usize],
        train: &Dataset,
        test_item: &[u32],
        k: usize,
    ) -> Self {
        assert!(k > 0, "K must be positive");
        let mut hits = 0usize;
        let mut ndcg_sum = 0.0f64;
        let lanes = model.item_lanes();
        for &u in eval_users {
            let mut scorer = model.user_scorer(&lanes, user_embeddings.row(u));
            let mut probe = [Probe::new(test_item[u])];
            rank_probes(&mut scorer, &mut probe, k, |j| !train.interacted(u, j));
            let rank = probe[0].ahead();
            if rank < k {
                hits += 1;
                ndcg_sum += 1.0 / ((rank as f64) + 2.0).log2();
            }
        }
        let n = eval_users.len().max(1);
        Self {
            hr: hits as f64 / n as f64,
            ndcg: ndcg_sum / n as f64,
            k,
            n_users: eval_users.len(),
        }
    }

    /// HR as a percentage (the unit in the paper's tables).
    pub fn hr_percent(&self) -> f64 {
        self.hr * 100.0
    }
}

/// Convenience wrapper returning HR@K only.
pub fn hit_ratio_at_k(
    model: &GlobalModel,
    user_embeddings: &EmbeddingStore,
    eval_users: &[usize],
    split: &TrainTestSplit,
    k: usize,
) -> f64 {
    QualityReport::compute(model, user_embeddings, eval_users, split, k).hr
}

#[cfg(test)]
mod tests {
    use super::*;
    use frs_data::Dataset;
    use frs_model::ModelConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// 2 users, 5 items, axis-aligned MF so scores = item coordinate.
    fn setup(test_items: Vec<u32>) -> (GlobalModel, EmbeddingStore, TrainTestSplit) {
        let mut rng = StdRng::seed_from_u64(0);
        let mut model = GlobalModel::new(&ModelConfig::mf(2), 5, &mut rng);
        for j in 0..5u32 {
            let emb = model.item_embedding_mut(j);
            emb[0] = j as f32;
            emb[1] = 0.0;
        }
        let embs = EmbeddingStore::from_rows(vec![vec![1.0, 0.0]; 2]);
        // Train interactions: user 0 → {4}, user 1 → {} (all items eligible).
        let train = Dataset::from_user_items(5, vec![vec![4], vec![]]);
        let split = TrainTestSplit {
            train,
            test_item: test_items,
        };
        (model, embs, split)
    }

    #[test]
    fn hit_when_test_item_ranks_high() {
        // User 0: eligible items {0,1,2,3}; test item 3 is the best ⇒ hit@1.
        // User 1: eligible {0..4}; test item 0 is the worst ⇒ miss@1.
        let (model, embs, split) = setup(vec![3, 0]);
        let rep = QualityReport::compute(&model, &embs, &[0, 1], &split, 1);
        assert!((rep.hr - 0.5).abs() < 1e-12);
    }

    #[test]
    fn hr_increases_with_k() {
        let (model, embs, split) = setup(vec![3, 0]);
        let hr1 = hit_ratio_at_k(&model, &embs, &[0, 1], &split, 1);
        let hr5 = hit_ratio_at_k(&model, &embs, &[0, 1], &split, 5);
        assert!(hr5 >= hr1);
        assert!((hr5 - 1.0).abs() < 1e-12, "everything hits at K=5");
    }

    #[test]
    fn ndcg_rewards_top_rank() {
        // Test item at rank 0 gives NDCG 1/log2(2) = 1.
        let (model, embs, split) = setup(vec![3, 3]);
        let rep = QualityReport::compute(&model, &embs, &[0], &split, 1);
        assert!((rep.ndcg - 1.0).abs() < 1e-9);
        // At rank 1 (K=2) the weight is 1/log2(3).
        let (model, embs, split) = setup(vec![2, 3]);
        let rep = QualityReport::compute(&model, &embs, &[0], &split, 2);
        assert!((rep.ndcg - 1.0 / 3f64.log2()).abs() < 1e-9);
    }

    #[test]
    fn interacted_items_do_not_block_rank() {
        // User 0 interacted with item 4 (the global best); it must not count
        // against the test item's rank.
        let (model, embs, split) = setup(vec![3, 0]);
        let rep = QualityReport::compute(&model, &embs, &[0], &split, 1);
        assert!((rep.hr - 1.0).abs() < 1e-12);
    }

    /// One user of MF dim 1 against items at coordinates −1, −2, 1, 2, with
    /// no training history and test item 3.
    fn one_dim_user(user: f32) -> (GlobalModel, EmbeddingStore, TrainTestSplit) {
        let mut rng = StdRng::seed_from_u64(0);
        let mut model = GlobalModel::new(&ModelConfig::mf(1), 4, &mut rng);
        for (j, x) in [-1.0f32, -2.0, 1.0, 2.0].into_iter().enumerate() {
            model.item_embedding_mut(u32::try_from(j).unwrap())[0] = x;
        }
        let split = TrainTestSplit {
            train: Dataset::from_user_items(4, vec![vec![]]),
            test_item: vec![3],
        };
        (model, EmbeddingStore::from_rows(vec![vec![user]]), split)
    }

    #[test]
    fn signed_zero_scores_rank_in_total_order() {
        // A `+0.0` user gives logits −0, −0, +0, +0: under `total_cmp`
        // only item 2 (+0, lower id) ranks ahead of test item 3, so it sits
        // at rank 1, as in `argsort_desc`. IEEE `==` would tie all four
        // and put it at rank 3.
        let (model, embs, split) = one_dim_user(0.0);
        let logits: Vec<u32> = (0..4).map(|j| model.logit(&[0.0], j).to_bits()).collect();
        let (neg, pos) = ((-0.0f32).to_bits(), 0.0f32.to_bits());
        assert_eq!(logits, [neg, neg, pos, pos]);
        let rep = QualityReport::compute(&model, &embs, &[0], &split, 2);
        assert_eq!(rep.hr, 1.0);
        assert!((rep.ndcg - 1.0 / 3f64.log2()).abs() < 1e-12, "rank 1");
        assert_eq!(
            QualityReport::compute(&model, &embs, &[0], &split, 1).hr,
            0.0
        );
    }

    #[test]
    fn nan_scores_tie_and_rank_by_id() {
        // A NaN user scores every item the same NaN: they tie, so the three
        // lower ids rank ahead of test item 3. Under IEEE comparisons
        // nothing outranks a NaN and HR@1 read 1.0.
        let (model, embs, split) = one_dim_user(f32::NAN);
        assert_eq!(
            QualityReport::compute(&model, &embs, &[0], &split, 1).hr,
            0.0
        );
        assert_eq!(
            QualityReport::compute(&model, &embs, &[0], &split, 3).hr,
            0.0
        );
        let rep = QualityReport::compute(&model, &embs, &[0], &split, 4);
        assert_eq!(rep.hr, 1.0);
        assert!((rep.ndcg - 1.0 / 5f64.log2()).abs() < 1e-12, "rank 3");
    }

    #[test]
    fn empty_user_set_is_safe() {
        let (model, embs, split) = setup(vec![3, 0]);
        let rep = QualityReport::compute(&model, &embs, &[], &split, 3);
        assert_eq!(rep.hr, 0.0);
        assert_eq!(rep.n_users, 0);
    }
}
