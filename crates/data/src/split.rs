//! Leave-one-out train/test split.
//!
//! Following He et al. \[17\] (and the paper's Section VII-A1), one interacted
//! item per user is held out as that user's test item; the recommender is
//! evaluated by the rank of the held-out item among all items the user has
//! not interacted with in the *training* data (HR@K).

use rand::Rng;

use crate::dataset::Dataset;

/// A leave-one-out split: the training interactions plus one held-out test
/// item per user.
#[derive(Debug, Clone)]
pub struct TrainTestSplit {
    /// Training interactions (the original data minus each user's test item).
    pub train: Dataset,
    /// `test_item[u]` = the held-out item of user `u`.
    pub test_item: Vec<u32>,
}

/// Holds out one uniformly chosen interacted item per user.
///
/// Panics if any user has fewer than two interactions (the generator's
/// `min_interactions_per_user ≥ 2` guarantees this never fires for synthetic
/// data).
pub fn leave_one_out<R: Rng + ?Sized>(full: &Dataset, rng: &mut R) -> TrainTestSplit {
    let n_users = full.n_users();
    let mut test_item = Vec::with_capacity(n_users);
    let kept = full.n_interactions().saturating_sub(n_users);
    let mut train = Dataset::with_capacity(full.n_items(), n_users, kept);
    for u in 0..n_users {
        let items = full.items_of(u);
        assert!(
            items.len() >= 2,
            "user {u} has {} interactions; leave-one-out needs ≥ 2",
            items.len()
        );
        let held = items[rng.gen_range(0..items.len())];
        test_item.push(held);
        train.push_user(items.iter().copied().filter(|&j| j != held));
    }
    TrainTestSplit { train, test_item }
}

impl TrainTestSplit {
    /// True if `item` is eligible to appear in user `u`'s evaluation ranking:
    /// not interacted with during training. The held-out item itself *is*
    /// eligible — that's the whole point of HR@K.
    pub fn eligible_for_ranking(&self, user: usize, item: u32) -> bool {
        !self.train.interacted(user, item)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets::DatasetSpec;
    use crate::synth::generate;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn split_tiny(seed: u64) -> (Dataset, TrainTestSplit) {
        let full = generate(&DatasetSpec::tiny(), &mut StdRng::seed_from_u64(seed));
        let split = leave_one_out(&full, &mut StdRng::seed_from_u64(seed + 1000));
        (full, split)
    }

    #[test]
    fn exactly_one_item_held_out_per_user() {
        let (full, split) = split_tiny(1);
        for u in 0..full.n_users() {
            assert_eq!(split.train.items_of(u).len() + 1, full.items_of(u).len());
            assert!(full.interacted(u, split.test_item[u]));
            assert!(!split.train.interacted(u, split.test_item[u]));
        }
    }

    #[test]
    fn train_is_subset_of_full() {
        let (full, split) = split_tiny(2);
        for u in 0..full.n_users() {
            for &j in split.train.items_of(u) {
                assert!(full.interacted(u, j));
            }
        }
    }

    #[test]
    fn test_item_is_eligible_for_ranking() {
        let (_, split) = split_tiny(3);
        for u in 0..split.train.n_users() {
            assert!(split.eligible_for_ranking(u, split.test_item[u]));
        }
    }

    #[test]
    fn split_is_deterministic() {
        let (_, a) = split_tiny(4);
        let (_, b) = split_tiny(4);
        assert_eq!(a.test_item, b.test_item);
    }

    #[test]
    #[should_panic(expected = "leave-one-out")]
    fn single_interaction_user_panics() {
        let d = Dataset::from_user_items(3, vec![vec![0]]);
        leave_one_out(&d, &mut StdRng::seed_from_u64(0));
    }
}
