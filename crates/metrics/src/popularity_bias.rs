//! Popularity-bias metrics for recommendation lists.
//!
//! The paper's attack exploits (and its defense regulates) *popularity bias*:
//! recommender models over-recommend popular items (finding F2). These
//! metrics quantify that bias over the top-K lists the system actually
//! serves, complementing ER/HR:
//!
//! - [`catalogue_coverage`]: fraction of the catalogue that appears in at
//!   least one user's top-K.
//! - [`gini_coefficient`]: inequality of recommendation frequency across
//!   items (0 = uniform exposure, →1 = all exposure on a few items).
//! - [`average_recommended_popularity`]: mean training popularity of the
//!   recommended items — how strongly lists skew popular.

use frs_data::Dataset;
use frs_linalg::top_k_desc_filtered_into;
use frs_model::{EmbeddingStore, GlobalModel};

/// Per-item recommendation frequency over all users' top-K lists.
pub fn recommendation_frequency(
    model: &GlobalModel,
    user_embeddings: &EmbeddingStore,
    users: &[usize],
    train: &Dataset,
    k: usize,
) -> Vec<u32> {
    let mut freq = vec![0u32; model.n_items()];
    let lanes = model.item_lanes();
    let mut scores = Vec::new();
    let mut top = Vec::new();
    for &u in users {
        model.scores_for_user_into(&lanes, user_embeddings.row(u), &mut scores);
        // lint:allow(lossy-index-cast): j indexes the score slice, whose length is the u32-keyed catalog size
        top_k_desc_filtered_into(&scores, k, |j| !train.interacted(u, j as u32), &mut top);
        for &j in &top {
            freq[j] += 1;
        }
    }
    freq
}

/// Fraction of items recommended to at least one user.
pub fn catalogue_coverage(frequency: &[u32]) -> f64 {
    if frequency.is_empty() {
        return 0.0;
    }
    frequency.iter().filter(|&&f| f > 0).count() as f64 / frequency.len() as f64
}

/// Gini coefficient of the recommendation-frequency distribution.
pub fn gini_coefficient(frequency: &[u32]) -> f64 {
    let n = frequency.len();
    if n == 0 {
        return 0.0;
    }
    let total: u64 = frequency.iter().map(|&f| f as u64).sum::<u64>();
    if total == 0 {
        return 0.0;
    }
    let mut sorted: Vec<u64> = frequency.iter().map(|&f| f as u64).collect();
    sorted.sort_unstable();
    // G = (2·Σ i·x_i) / (n·Σ x_i) − (n+1)/n, with 1-based i over sorted x.
    let weighted: u64 = sorted
        .iter()
        .enumerate()
        .map(|(i, &x)| (i as u64 + 1) * x)
        .sum::<u64>();
    (2.0 * weighted as f64) / (n as f64 * total as f64) - (n as f64 + 1.0) / n as f64
}

/// Mean training-interaction count of recommended items (weighted by how
/// often each item is recommended).
pub fn average_recommended_popularity(frequency: &[u32], train: &Dataset) -> f64 {
    let total: u64 = frequency.iter().map(|&f| f as u64).sum::<u64>();
    if total == 0 {
        return 0.0;
    }
    let weighted: u64 = frequency
        .iter()
        .zip(train.item_popularity())
        .map(|(&f, &pop)| f as u64 * pop as u64)
        .sum::<u64>();
    weighted as f64 / total as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use frs_model::ModelConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn axis_world() -> (GlobalModel, EmbeddingStore, Dataset) {
        let mut rng = StdRng::seed_from_u64(0);
        let mut model = GlobalModel::new(&ModelConfig::mf(2), 6, &mut rng);
        for j in 0..6u32 {
            let emb = model.item_embedding_mut(j);
            emb[0] = j as f32;
            emb[1] = 0.0;
        }
        let embs = EmbeddingStore::from_rows(vec![vec![1.0, 0.0]; 3]);
        // Popularities: item 5 interacted by all, item 4 by one.
        let train = Dataset::from_user_items(6, vec![vec![5], vec![5, 4], vec![5]]);
        (model, embs, train)
    }

    #[test]
    fn frequency_counts_topk_membership() {
        let (model, embs, train) = axis_world();
        let freq = recommendation_frequency(&model, &embs, &[0, 1, 2], &train, 2);
        // All users: eligible top-2 is {4, 3} (except user 1 whose 4 is interacted → {3, 2}).
        assert_eq!(freq[4], 2);
        assert_eq!(freq[3], 3);
        assert_eq!(freq[2], 1);
        assert_eq!(freq[5], 0, "interacted everywhere — never recommended");
    }

    #[test]
    fn coverage_fraction() {
        let (model, embs, train) = axis_world();
        let freq = recommendation_frequency(&model, &embs, &[0, 1, 2], &train, 2);
        // Items 2, 3, 4 covered of 6.
        assert!((catalogue_coverage(&freq) - 0.5).abs() < 1e-12);
        assert_eq!(catalogue_coverage(&[]), 0.0);
    }

    #[test]
    fn gini_zero_for_uniform_and_high_for_concentrated() {
        assert!(gini_coefficient(&[5, 5, 5, 5]).abs() < 1e-9);
        let concentrated = gini_coefficient(&[0, 0, 0, 100]);
        assert!(concentrated > 0.7, "{concentrated}");
        assert_eq!(gini_coefficient(&[0, 0]), 0.0);
    }

    #[test]
    fn gini_is_scale_invariant() {
        let a = gini_coefficient(&[1, 2, 3, 4]);
        let b = gini_coefficient(&[10, 20, 30, 40]);
        assert!((a - b).abs() < 1e-9);
    }

    #[test]
    fn average_popularity_weights_by_frequency() {
        let train = Dataset::from_user_items(3, vec![vec![0, 1], vec![0]]);
        // pop = [2, 1, 0]; freq = [1, 0, 1] → avg = (2 + 0)/2 = 1.
        assert!((average_recommended_popularity(&[1, 0, 1], &train) - 1.0).abs() < 1e-12);
        assert_eq!(average_recommended_popularity(&[0, 0, 0], &train), 0.0);
    }
}
