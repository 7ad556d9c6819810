//! The synthetic dataset generator.
//!
//! Generation recipe (all draws from one seeded RNG):
//!
//! 1. Assign each *item id* a popularity rank by shuffling `0..n_items` — so
//!    popular items are scattered across the id space exactly like a real
//!    catalogue (id order carries no popularity signal the miner could cheat
//!    on).
//! 2. Zipf weights over popularity ranks give the item-sampling distribution.
//! 3. Split the interaction budget across users by Zipf-weighted user
//!    activity, floored at `min_interactions_per_user` and capped at
//!    `n_items` (a user cannot interact with more items than exist).
//! 4. For each user, draw that many *distinct* items from the item
//!    distribution.
//!
//! The result reproduces the two marginals the paper's analysis depends on
//! (long-tail item popularity, long-tail user activity) with independent
//! user/item coupling, which is the standard null model for implicit-feedback
//! data.

use rand::seq::SliceRandom;
use rand::Rng;

use crate::dataset::Dataset;
use crate::popularity::{zipf_weights, CumulativeSampler, DistinctScratch};
use crate::presets::DatasetSpec;

/// Generates a dataset according to `spec`, deterministically in `rng`.
pub fn generate<R: Rng + ?Sized>(spec: &DatasetSpec, rng: &mut R) -> Dataset {
    assert!(spec.n_users > 0 && spec.n_items > 0);
    assert!(
        spec.min_interactions_per_user >= 2,
        "need ≥2 interactions per user for leave-one-out"
    );
    assert!(
        spec.min_interactions_per_user <= spec.n_items,
        "cannot give each user more interactions than items exist"
    );

    // Step 1: scatter popularity ranks across item ids.
    // lint:allow(lossy-index-cast): synthesis specs are validated against the u32 id space before generation
    let mut rank_to_item: Vec<u32> = (0..spec.n_items as u32).collect();
    rank_to_item.shuffle(rng);

    // Step 2: item distribution over ranks.
    let item_sampler = CumulativeSampler::new(&zipf_weights(spec.n_items, spec.item_zipf_exponent));

    // Step 3: per-user interaction budgets.
    let budgets = user_budgets(spec, rng);

    // Step 4: draw each user's distinct item set straight into the store.
    let mut data =
        Dataset::with_capacity(spec.n_items, spec.n_users, budgets.iter().sum::<usize>());
    let mut scratch = DistinctScratch::default();
    for &k in &budgets {
        let ranks = item_sampler.sample_distinct(k, rng, &mut scratch);
        data.push_user(ranks.iter().map(|&rank| rank_to_item[rank]));
    }
    data
}

/// Splits `spec.n_interactions` across users with Zipf-weighted activity,
/// respecting the per-user floor and the `n_items` cap.
fn user_budgets<R: Rng + ?Sized>(spec: &DatasetSpec, rng: &mut R) -> Vec<usize> {
    let n = spec.n_users;
    let floor = spec.min_interactions_per_user;
    let cap = spec.n_items;
    let total = spec.n_interactions.max(n * floor);

    // Shuffle activity ranks over users (user id 0 shouldn't always be the
    // power user).
    let mut rank_of_user: Vec<usize> = (0..n).collect();
    rank_of_user.shuffle(rng);

    let weights = zipf_weights(n, spec.user_zipf_exponent);
    let weight_sum = weights.iter().sum::<f64>(); // lint:allow(float-reduction-order): sequential fold in ascending rank order over the Zipf table

    let spare = total.saturating_sub(n * floor) as f64;
    let mut budgets = vec![floor; n];
    for (user, &rank) in rank_of_user.iter().enumerate() {
        let extra = (spare * weights[rank] / weight_sum).round() as usize;
        budgets[user] = (floor + extra).min(cap);
    }
    budgets
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::DatasetStats;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn gen_tiny(seed: u64) -> Dataset {
        let spec = DatasetSpec::tiny();
        generate(&spec, &mut StdRng::seed_from_u64(seed))
    }

    #[test]
    fn respects_shape() {
        let spec = DatasetSpec::tiny();
        let d = gen_tiny(1);
        assert_eq!(d.n_users(), spec.n_users);
        assert_eq!(d.n_items(), spec.n_items);
    }

    #[test]
    fn interaction_count_near_target() {
        let spec = DatasetSpec::tiny();
        let d = gen_tiny(2);
        let got = d.n_interactions() as f64;
        let want = spec.n_interactions as f64;
        assert!(
            (got - want).abs() / want < 0.25,
            "generated {got} vs target {want}"
        );
    }

    #[test]
    fn every_user_has_minimum() {
        let spec = DatasetSpec::tiny();
        let d = gen_tiny(3);
        for u in 0..d.n_users() {
            assert!(
                d.items_of(u).len() >= spec.min_interactions_per_user,
                "user {u} has {}",
                d.items_of(u).len()
            );
        }
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a = gen_tiny(7);
        let b = gen_tiny(7);
        for u in 0..a.n_users() {
            assert_eq!(a.items_of(u), b.items_of(u));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = gen_tiny(7);
        let b = gen_tiny(8);
        let same = (0..a.n_users()).all(|u| a.items_of(u) == b.items_of(u));
        assert!(!same);
    }

    #[test]
    fn long_tail_property_holds() {
        // Fig. 3: top 15% of items should carry ≥ ~50% of interactions on the
        // ml100k-like preset (use a scaled version to keep the test fast).
        let spec = DatasetSpec::ml100k_like().scaled(0.4);
        let d = generate(&spec, &mut StdRng::seed_from_u64(11));
        let stats = DatasetStats::compute(&d);
        assert!(
            stats.head_share(0.15) > 0.45,
            "top-15% share {}",
            stats.head_share(0.15)
        );
    }

    #[test]
    fn popularity_not_correlated_with_item_id() {
        // The most popular item should rarely be item 0 — popularity ranks
        // are shuffled over ids.
        let mut top_ids = Vec::new();
        for seed in 0..8 {
            let d = gen_tiny(seed);
            top_ids.push(d.popularity_ranking()[0]);
        }
        let all_zero = top_ids.iter().all(|&i| i == 0);
        assert!(!all_zero, "popular item pinned to id 0: {top_ids:?}");
    }
}
