//! Flat interaction store parity: [`Dataset`]'s offsets + items layout,
//! and the generator and split that build straight into it, against the
//! per-user `Vec` store and the world build they replaced.
//!
//! The `reference` module below keeps the old store (one sorted `Vec<u32>`
//! per user), the old `synth::generate` user loop with its allocating
//! distinct sampler, and the old `leave_one_out`, verbatim. Every list,
//! every popularity count and every held-out test item must be equal, and
//! both builds must leave the RNG in the same state, so worlds, reports and
//! cache keys cannot move. A proptest covers raw lists (unsorted,
//! duplicated, empty users, zero users, out-of-range ids). Part of the CI
//! `kernel-parity` job; run locally with
//!
//! ```text
//! cargo test --release -p frs-data --test dataset_parity
//! ```

use std::panic::{catch_unwind, AssertUnwindSafe};

use frs_data::{leave_one_out, synth, DataSource, Dataset, DatasetSpec};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

mod reference {
    use frs_data::popularity::{zipf_weights, CumulativeSampler};
    use frs_data::DatasetSpec;
    use rand::seq::SliceRandom;
    use rand::Rng;

    /// The per-user store the flat layout replaced.
    pub struct VecDataset {
        n_items: usize,
        user_items: Vec<Vec<u32>>,
        item_pop: Vec<u32>,
    }

    impl VecDataset {
        pub fn from_user_items(n_items: usize, mut user_items: Vec<Vec<u32>>) -> Self {
            let mut item_pop = vec![0u32; n_items];
            for items in &mut user_items {
                items.sort_unstable();
                items.dedup();
                for &j in items.iter() {
                    assert!((j as usize) < n_items, "item id {j} out of range");
                    item_pop[j as usize] += 1;
                }
            }
            Self {
                n_items,
                user_items,
                item_pop,
            }
        }

        pub fn n_users(&self) -> usize {
            self.user_items.len()
        }

        pub fn n_items(&self) -> usize {
            self.n_items
        }

        pub fn n_interactions(&self) -> usize {
            self.user_items.iter().map(Vec::len).sum::<usize>()
        }

        pub fn items_of(&self, user: usize) -> &[u32] {
            &self.user_items[user]
        }

        pub fn interacted(&self, user: usize, item: u32) -> bool {
            self.user_items[user].binary_search(&item).is_ok()
        }

        pub fn item_popularity(&self) -> &[u32] {
            &self.item_pop
        }

        pub fn popularity_ranking(&self) -> Vec<u32> {
            let mut ids: Vec<u32> = (0..self.n_items as u32).collect();
            ids.sort_unstable_by(|&a, &b| {
                self.item_pop[b as usize]
                    .cmp(&self.item_pop[a as usize])
                    .then(a.cmp(&b))
            });
            ids
        }

        pub fn coldest_items(&self, count: usize) -> Vec<u32> {
            let mut ranking = self.popularity_ranking();
            ranking.reverse();
            ranking.truncate(count);
            ranking
        }
    }

    /// The distinct sampler before it took a reusable scratch: a fresh flag
    /// table per call (`n` is the sampler's support size).
    fn sample_distinct<R: Rng + ?Sized>(
        sampler: &CumulativeSampler,
        n: usize,
        count: usize,
        rng: &mut R,
    ) -> Vec<usize> {
        if count >= n {
            return (0..n).collect();
        }
        let mut seen = vec![false; n];
        let mut out = Vec::with_capacity(count);
        let max_tries = 50 * count + 200;
        let mut tries = 0;
        while out.len() < count && tries < max_tries {
            tries += 1;
            let idx = sampler.sample(rng);
            if !seen[idx] {
                seen[idx] = true;
                out.push(idx);
            }
        }
        if out.len() < count {
            for (idx, seen_slot) in seen.iter_mut().enumerate() {
                if !*seen_slot {
                    *seen_slot = true;
                    out.push(idx);
                    if out.len() == count {
                        break;
                    }
                }
            }
        }
        out
    }

    pub fn generate<R: Rng + ?Sized>(spec: &DatasetSpec, rng: &mut R) -> VecDataset {
        let mut rank_to_item: Vec<u32> = (0..spec.n_items as u32).collect();
        rank_to_item.shuffle(rng);
        let item_sampler =
            CumulativeSampler::new(&zipf_weights(spec.n_items, spec.item_zipf_exponent));
        let budgets = user_budgets(spec, rng);
        let user_items: Vec<Vec<u32>> = budgets
            .iter()
            .map(|&k| {
                sample_distinct(&item_sampler, spec.n_items, k, rng)
                    .into_iter()
                    .map(|rank| rank_to_item[rank])
                    .collect()
            })
            .collect();
        VecDataset::from_user_items(spec.n_items, user_items)
    }

    fn user_budgets<R: Rng + ?Sized>(spec: &DatasetSpec, rng: &mut R) -> Vec<usize> {
        let n = spec.n_users;
        let floor = spec.min_interactions_per_user;
        let cap = spec.n_items;
        let total = spec.n_interactions.max(n * floor);
        let mut rank_of_user: Vec<usize> = (0..n).collect();
        rank_of_user.shuffle(rng);
        let weights = zipf_weights(n, spec.user_zipf_exponent);
        let weight_sum = weights.iter().sum::<f64>();
        let spare = total.saturating_sub(n * floor) as f64;
        let mut budgets = vec![floor; n];
        for (user, &rank) in rank_of_user.iter().enumerate() {
            let extra = (spare * weights[rank] / weight_sum).round() as usize;
            budgets[user] = (floor + extra).min(cap);
        }
        budgets
    }

    /// The old split: the training lists and the held-out items.
    pub fn leave_one_out<R: Rng + ?Sized>(
        full: &VecDataset,
        rng: &mut R,
    ) -> (VecDataset, Vec<u32>) {
        let n_users = full.n_users();
        let mut test_item = Vec::with_capacity(n_users);
        let mut train_lists: Vec<Vec<u32>> = Vec::with_capacity(n_users);
        for u in 0..n_users {
            let items = full.items_of(u);
            assert!(items.len() >= 2);
            let held = items[rng.gen_range(0..items.len())];
            test_item.push(held);
            train_lists.push(items.iter().copied().filter(|&j| j != held).collect());
        }
        (
            VecDataset::from_user_items(full.n_items(), train_lists),
            test_item,
        )
    }
}

use reference::VecDataset;

/// Every accessor of the flat store against the per-user reference, its
/// clone included. Returns the first difference.
fn compare(flat: &Dataset, want: &VecDataset) -> Result<(), String> {
    let copy = flat.clone();
    for d in [flat, &copy] {
        let (n_users, n_items) = (want.n_users(), want.n_items());
        if (d.n_users(), d.n_items(), d.n_interactions())
            != (n_users, n_items, want.n_interactions())
        {
            return Err(format!(
                "shape {}×{} with {} interactions, want {n_users}×{n_items} with {}",
                d.n_users(),
                d.n_items(),
                d.n_interactions(),
                want.n_interactions()
            ));
        }
        for u in 0..n_users {
            if d.items_of(u) != want.items_of(u) {
                return Err(format!(
                    "user {u}: {:?}, want {:?}",
                    d.items_of(u),
                    want.items_of(u)
                ));
            }
        }
        // Membership over a small catalogue in full, past its end included;
        // over a large one, each user's own items and their neighbours.
        for u in 0..n_users {
            let probes: Vec<u32> = if n_items <= 64 {
                (0..n_items as u32 + 2).collect()
            } else {
                want.items_of(u)
                    .iter()
                    .flat_map(|&j| [j.saturating_sub(1), j, j + 1])
                    .collect()
            };
            for j in probes {
                if d.interacted(u, j) != want.interacted(u, j) {
                    return Err(format!("interacted({u}, {j}) = {}", d.interacted(u, j)));
                }
            }
        }
        if d.item_popularity() != want.item_popularity() {
            return Err("item popularity differs".into());
        }
        if d.popularity_ranking() != want.popularity_ranking() {
            return Err("popularity ranking differs".into());
        }
        for count in [0, 1, 3, n_items / 2, n_items, n_items + 1] {
            if d.coldest_items(count) != want.coldest_items(count) {
                return Err(format!("coldest_items({count}) differs"));
            }
        }
    }
    Ok(())
}

/// The panic message of `f`, or `None` when it returns.
fn panic_message(f: impl FnOnce()) -> Option<String> {
    let payload = catch_unwind(AssertUnwindSafe(f)).err()?;
    Some(match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(payload) => payload
            .downcast::<&str>()
            .map(|s| s.to_string())
            .unwrap_or_default(),
    })
}

/// Raw per-user lists over `n_items` items: unsorted, with repeats, and
/// with empty users; zero users when the outer vector comes out empty.
fn raw_lists() -> impl Strategy<Value = (usize, Vec<Vec<u32>>)> {
    (
        1usize..=40,
        prop::collection::vec(prop::collection::vec(any::<u32>(), 0..9), 0..12),
    )
        .prop_map(|(n_items, lists)| {
            let lists = lists
                .into_iter()
                .map(|l| l.into_iter().map(|j| j % n_items as u32).collect())
                .collect();
            (n_items, lists)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `from_user_items` on raw lists answers every query like the
    /// per-user store.
    #[test]
    fn raw_lists_match_the_per_user_store((n_items, lists) in raw_lists()) {
        let flat = Dataset::from_user_items(n_items, lists.clone());
        let want = VecDataset::from_user_items(n_items, lists);
        if let Err(e) = compare(&flat, &want) {
            return Err(TestCaseError::fail(e));
        }
        // A user past the end panics on both.
        let n_users = want.n_users();
        prop_assert!(panic_message(|| { flat.items_of(n_users); }).is_some());
        prop_assert!(panic_message(|| { want.items_of(n_users); }).is_some());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// An id past the catalogue panics with the reference's message.
    #[test]
    fn out_of_range_ids_panic_like_the_per_user_store(
        (n_items, mut lists) in raw_lists(),
        user in any::<usize>(),
        past in 0u32..5,
    ) {
        if lists.is_empty() {
            lists.push(Vec::new());
        }
        let at = user % lists.len();
        lists[at].push(n_items as u32 + past);
        let got = panic_message(|| {
            Dataset::from_user_items(n_items, lists.clone());
        });
        let want = panic_message(|| {
            VecDataset::from_user_items(n_items, lists.clone());
        });
        prop_assert!(got.as_deref().is_some_and(|m| m.contains("out of range")), "{got:?}");
        prop_assert_eq!(got, want);
    }
}

#[test]
fn zero_users_and_zero_items() {
    let flat = Dataset::from_user_items(0, Vec::new());
    assert_eq!(
        (flat.n_users(), flat.n_items(), flat.n_interactions()),
        (0, 0, 0)
    );
    compare(&flat, &VecDataset::from_user_items(0, Vec::new())).unwrap();
    let empties = vec![Vec::new(); 3];
    let flat = Dataset::from_user_items(0, empties.clone());
    compare(&flat, &VecDataset::from_user_items(0, empties)).unwrap();
}

/// A steep spec whose power users are capped at the whole catalogue and
/// whose draws near it exhaust the rejection loop, so the sampler's
/// count ≥ n and fallback-walk paths both run.
fn capped_and_skewed() -> DatasetSpec {
    DatasetSpec {
        name: "capped-skewed".into(),
        n_users: 50,
        n_items: 10,
        n_interactions: 400,
        item_zipf_exponent: 3.0,
        user_zipf_exponent: 1.5,
        min_interactions_per_user: 2,
        source: DataSource::Synth,
    }
}

/// The world `scenario::build_world` makes — generate, then split with the
/// same RNG — built both ways: every list, every test item and the RNG
/// state after the split must agree.
fn assert_world_matches(spec: &DatasetSpec, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let full = synth::generate(spec, &mut rng);
    let split = leave_one_out(&full, &mut rng);
    let next = rng.gen::<u64>();

    let mut rng = StdRng::seed_from_u64(seed);
    let want_full = reference::generate(spec, &mut rng);
    let (want_train, want_test) = reference::leave_one_out(&want_full, &mut rng);
    let want_next = rng.gen::<u64>();

    let at = format!("{} seed {seed}", spec.name);
    compare(&full, &want_full).unwrap_or_else(|e| panic!("{at} full: {e}"));
    compare(&split.train, &want_train).unwrap_or_else(|e| panic!("{at} train: {e}"));
    assert_eq!(split.test_item, want_test, "{at} test items");
    assert_eq!(
        next, want_next,
        "{at}: the builds drew different RNG counts"
    );
}

#[test]
fn generated_worlds_and_splits_match_the_per_user_build() {
    let specs = [
        DatasetSpec::tiny(),
        DatasetSpec::ml100k_like().scaled(0.25),
        DatasetSpec::sparse(20_000),
        capped_and_skewed(),
    ];
    for spec in &specs {
        for seed in [0, 3, 7, 0xDA7A] {
            assert_world_matches(spec, seed);
        }
    }
}
