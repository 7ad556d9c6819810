//! The immutable interaction store.
//!
//! A [`Dataset`] is a set of (user, item) implicit-feedback interactions held
//! in one flat layout: every user's ascending item list sits back to back in
//! one `items` array, and user `u`'s list `D⁺_u` is
//! `items[offsets[u]..offsets[u + 1]]`. At `paper scale`'s three interactions
//! per user, a `Vec` per user would cost more in headers and heap chunks than
//! the 12 bytes of ids; this layout costs the ids plus one offset per user,
//! fills by appending one user at a time, and copies with one `memcpy` per
//! array. Clients iterate their own positives, the negative sampler tests
//! membership by binary search on the sorted list, and popularity counts are
//! materialized once at construction for the miner ground truth.

/// Implicit-feedback interaction data for `n_users × n_items`.
#[derive(Debug, Clone)]
pub struct Dataset {
    n_items: usize,
    /// `n_users + 1` ascending bounds starting at 0: user `u`'s items are
    /// `items[offsets[u]..offsets[u + 1]]`.
    offsets: Vec<usize>,
    /// Every user's ascending, duplicate-free item list, back to back.
    items: Vec<u32>,
    /// `item_pop[j]` = number of users that interacted with item `j`
    /// (the paper's definition of popularity, Section IV-B).
    item_pop: Vec<u32>,
}

impl Dataset {
    /// Builds a dataset from per-user interaction lists. Lists are sorted and
    /// deduplicated; out-of-range items panic.
    pub fn from_user_items(n_items: usize, user_items: Vec<Vec<u32>>) -> Self {
        let n_interactions = user_items.iter().map(Vec::len).sum::<usize>();
        let mut data = Self::with_capacity(n_items, user_items.len(), n_interactions);
        for items in user_items {
            data.push_user(items);
        }
        data
    }

    /// A dataset with no users yet, with room for `n_users` users holding
    /// `n_interactions` interactions between them.
    pub(crate) fn with_capacity(n_items: usize, n_users: usize, n_interactions: usize) -> Self {
        let mut offsets = Vec::with_capacity(n_users + 1);
        offsets.push(0);
        Self {
            n_items,
            offsets,
            items: Vec::with_capacity(n_interactions),
            item_pop: vec![0; n_items],
        }
    }

    /// Appends the next user, whose interactions are `items` in any order.
    /// The list is sorted and deduplicated in place; an out-of-range item
    /// panics.
    pub(crate) fn push_user(&mut self, items: impl IntoIterator<Item = u32>) {
        let start = self.items.len();
        self.items.extend(items);
        let list = &mut self.items[start..];
        list.sort_unstable();
        let mut kept = 0;
        for i in 0..list.len() {
            if kept == 0 || list[i] != list[kept - 1] {
                list[kept] = list[i];
                kept += 1;
            }
        }
        self.items.truncate(start + kept);
        for &j in &self.items[start..] {
            assert!((j as usize) < self.n_items, "item id {j} out of range");
            self.item_pop[j as usize] += 1;
        }
        self.offsets.push(self.items.len());
    }

    /// Number of users (clients in the federation).
    #[inline]
    pub fn n_users(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of items (rows of the shared embedding table).
    #[inline]
    pub fn n_items(&self) -> usize {
        self.n_items
    }

    /// Total interaction count.
    pub fn n_interactions(&self) -> usize {
        self.items.len()
    }

    /// The ascending interacted-item list `D⁺_u` of user `u`.
    #[inline]
    pub fn items_of(&self, user: usize) -> &[u32] {
        &self.items[self.offsets[user]..self.offsets[user + 1]]
    }

    /// True when `user` has interacted with `item` (O(log |D⁺_u|)).
    #[inline]
    pub fn interacted(&self, user: usize, item: u32) -> bool {
        self.items_of(user).binary_search(&item).is_ok()
    }

    /// Popularity (interaction count) of every item.
    #[inline]
    pub fn item_popularity(&self) -> &[u32] {
        &self.item_pop
    }

    /// Item ids sorted by descending popularity (ties by ascending id) —
    /// the ground-truth "popularity ranking" axis of Fig. 3 and Fig. 4.
    pub fn popularity_ranking(&self) -> Vec<u32> {
        let mut ids: Vec<u32> = (0..self.n_items as u32).collect(); // lint:allow(lossy-index-cast): loaders reject catalogs past the u32 id space
        ids.sort_unstable_by(|&a, &b| {
            self.item_pop[b as usize]
                .cmp(&self.item_pop[a as usize])
                .then(a.cmp(&b))
        });
        ids
    }

    /// `rank[j]` = zero-based popularity rank of item `j` (0 = most popular).
    pub fn popularity_rank_of(&self) -> Vec<usize> {
        let ranking = self.popularity_ranking();
        let mut rank = vec![0usize; self.n_items];
        for (pos, &j) in ranking.iter().enumerate() {
            rank[j as usize] = pos;
        }
        rank
    }

    /// The `count` coldest items (fewest interactions, ties by id), the pool
    /// the paper draws target items from ("usually an extremely cold item",
    /// Section V-A). Items with zero interactions come first.
    pub fn coldest_items(&self, count: usize) -> Vec<u32> {
        let mut ranking = self.popularity_ranking();
        ranking.reverse();
        ranking.truncate(count);
        ranking
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Dataset {
        // 3 users, 4 items. Item 1 is most popular (3 users), item 3 untouched.
        Dataset::from_user_items(4, vec![vec![0, 1], vec![1, 2], vec![1]])
    }

    #[test]
    fn counts_are_consistent() {
        let d = small();
        assert_eq!(d.n_users(), 3);
        assert_eq!(d.n_items(), 4);
        assert_eq!(d.n_interactions(), 5);
        assert_eq!(d.item_popularity(), &[1, 3, 1, 0]);
    }

    #[test]
    fn membership_queries() {
        let d = small();
        assert!(d.interacted(0, 1));
        assert!(!d.interacted(0, 2));
        assert!(!d.interacted(2, 3));
    }

    #[test]
    fn duplicate_interactions_are_deduped() {
        let d = Dataset::from_user_items(2, vec![vec![1, 1, 0, 1]]);
        assert_eq!(d.items_of(0), &[0, 1]);
        assert_eq!(d.item_popularity(), &[1, 1]);
    }

    #[test]
    fn popularity_ranking_descending() {
        let d = small();
        assert_eq!(d.popularity_ranking(), vec![1, 0, 2, 3]);
        let rank = d.popularity_rank_of();
        assert_eq!(rank[1], 0);
        assert_eq!(rank[3], 3);
    }

    #[test]
    fn coldest_items_returns_tail() {
        let d = small();
        assert_eq!(d.coldest_items(1), vec![3]);
        assert_eq!(d.coldest_items(2), vec![3, 2]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_item_panics() {
        Dataset::from_user_items(2, vec![vec![2]]);
    }
}
