//! Recommendation-quality metrics under the leave-one-out protocol.
//!
//! **HR@K**: the fraction of users whose held-out test item lands in their
//! top-K recommendation list (ranked among all items the user has not
//! interacted with in training). **NDCG@K** additionally rewards placing the
//! test item near the top: `1/log₂(rank+2)`.

use frs_data::TrainTestSplit;
use frs_model::{GlobalModel, UserEmbeddings};

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
    /// Evaluates users in `eval_users` (typically the benign users). The
    /// embedding table may be any [`UserEmbeddings`] representation — a
    /// plain `Vec<Vec<f32>>` or the simulation's chunked `EmbeddingStore`.
    pub fn compute<E: UserEmbeddings + ?Sized>(
        model: &GlobalModel,
        user_embeddings: &E,
        eval_users: &[usize],
        split: &TrainTestSplit,
        k: usize,
    ) -> Self {
        assert!(k > 0, "K must be positive");
        let mut hits = 0usize;
        let mut ndcg_sum = 0.0f64;
        // One lane table and one score buffer reused across the user loop
        // (the rank pass below is already a single early-exiting scan,
        // never a sort).
        let lanes = model.item_lanes();
        let mut scores = Vec::new();
        for &u in eval_users {
            model.scores_for_user_into(&lanes, user_embeddings.user_embedding(u), &mut scores);
            let test = split.test_item[u];
            let test_score = scores[test as usize];
            // Rank among eligible (non-train-interacted) items: count eligible
            // items scoring strictly higher (ties resolved toward lower id,
            // consistent with frs_linalg::rank_of; the test item never
            // outranks itself). The score test runs first, so only items
            // that outrank the test item pay the history lookup.
            let mut rank = 0usize;
            for (j, &s) in scores.iter().enumerate() {
                // lint:allow(lossy-index-cast): j indexes the score slice, whose length is the u32-keyed catalog size
                let j = j as u32;
                let outranks = s > test_score || (s == test_score && j < test);
                if !outranks || !split.eligible_for_ranking(u, j) {
                    continue;
                }
                rank += 1;
                if rank >= k {
                    break; // already out of the top-K; rank value unused beyond that
                }
            }
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
pub fn hit_ratio_at_k<E: UserEmbeddings + ?Sized>(
    model: &GlobalModel,
    user_embeddings: &E,
    eval_users: &[usize],
    split: &TrainTestSplit,
    k: usize,
) -> f64 {
    QualityReport::compute(model, user_embeddings, eval_users, split, k).hr
}

/// Convenience wrapper returning NDCG@K only.
pub fn ndcg_at_k<E: UserEmbeddings + ?Sized>(
    model: &GlobalModel,
    user_embeddings: &E,
    eval_users: &[usize],
    split: &TrainTestSplit,
    k: usize,
) -> f64 {
    QualityReport::compute(model, user_embeddings, eval_users, split, k).ndcg
}

#[cfg(test)]
mod tests {
    use super::*;
    use frs_data::Dataset;
    use frs_model::ModelConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// 2 users, 5 items, axis-aligned MF so scores = item coordinate.
    fn setup(test_items: Vec<u32>) -> (GlobalModel, Vec<Vec<f32>>, TrainTestSplit) {
        let mut rng = StdRng::seed_from_u64(0);
        let mut model = GlobalModel::new(&ModelConfig::mf(2), 5, &mut rng);
        for j in 0..5u32 {
            let emb = model.item_embedding_mut(j);
            emb[0] = j as f32;
            emb[1] = 0.0;
        }
        let embs = vec![vec![1.0, 0.0]; 2];
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

    #[test]
    fn empty_user_set_is_safe() {
        let (model, embs, split) = setup(vec![3, 0]);
        let rep = QualityReport::compute(&model, &embs, &[], &split, 3);
        assert_eq!(rep.hr, 0.0);
        assert_eq!(rep.n_users, 0);
    }
}
