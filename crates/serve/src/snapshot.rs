//! Epoch-swapped model snapshots: the reader/trainer decoupling.
//!
//! The trainer publishes an immutable [`Snapshot`] (model, user embeddings,
//! and the training interactions to exclude) into a [`SnapshotCell`] at
//! every round boundary; query handlers grab the latest `Arc` and rank
//! against it lock-free. The only shared critical section is an `Arc`
//! pointer swap, so readers never block the trainer and the trainer never
//! blocks readers — a query observes one consistent round, never a
//! half-applied update.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use frs_data::Dataset;
use frs_model::{EmbeddingStore, GlobalModel, ItemLanes};

use crate::wire::ScoredItem;

/// One immutable, consistent view of the recommender at a round boundary.
#[derive(Debug, Clone)]
pub struct Snapshot {
    round: usize,
    training_done: bool,
    model: GlobalModel,
    /// Per-user embeddings, indexed by dense user id (benign users only —
    /// the serving surface has no reason to recommend to attack clients).
    /// The simulation's own [`EmbeddingStore`] arena, cloned: it shares
    /// the arena's chunks, and training copies a chunk before writing it.
    users: EmbeddingStore,
    /// Training interactions: already-seen items are excluded from top-K.
    train: Arc<Dataset>,
    /// The model's item table regrouped for the scoring kernel, built by
    /// the first query against this snapshot, so a publish costs no more
    /// than the clones above.
    lanes: OnceLock<ItemLanes>,
}

impl Snapshot {
    /// Assembles a snapshot. `users` must be indexed by dense user id and
    /// at least cover `train.n_users()` rows; extra rows (attack clients
    /// appended after the benign population) are ignored.
    pub fn new(
        round: usize,
        training_done: bool,
        model: GlobalModel,
        mut users: EmbeddingStore,
        train: Arc<Dataset>,
    ) -> Self {
        users.truncate_rows(train.n_users());
        Self {
            round,
            training_done,
            model,
            users,
            train,
            lanes: OnceLock::new(),
        }
    }

    /// Training rounds completed when this snapshot was taken.
    pub fn round(&self) -> usize {
        self.round
    }

    /// Whether training had finished by this snapshot.
    pub fn training_done(&self) -> bool {
        self.training_done
    }

    /// Users this snapshot can answer for.
    pub fn n_users(&self) -> usize {
        self.users.rows()
    }

    /// Items in the catalog.
    pub fn n_items(&self) -> usize {
        self.model.n_items()
    }

    /// The best `k` items for `user` that the user has not interacted with,
    /// best first. Deterministic: ties break toward the lower item id.
    pub fn top_k(&self, user: usize, k: usize) -> Result<Vec<ScoredItem>, String> {
        if user >= self.users.rows() {
            return Err(format!(
                "user {user} out of range (snapshot serves {} users)",
                self.users.rows()
            ));
        }
        let lanes = self.lanes.get_or_init(|| self.model.item_lanes());
        let mut scores = Vec::new();
        self.model
            .scores_for_user_into(lanes, self.users.row(user), &mut scores);
        let picked = frs_linalg::top_k_desc_filtered(&scores, k, |i| {
            !self.train.interacted(user, i as u32) // lint:allow(lossy-index-cast): the catalog is keyed by u32 item ids, so every score index fits
        });
        Ok(picked
            .into_iter()
            .map(|i| ScoredItem {
                item: i as u32, // lint:allow(lossy-index-cast): index into `scores`, whose length is the u32-keyed catalog size
                score: scores[i], // lint:allow(panic-in-daemon): top_k_desc_filtered returns in-bounds indices into the slice it ranked
            })
            .collect())
    }
}

/// The swap point between one trainer and any number of query handlers.
#[derive(Debug)]
pub struct SnapshotCell {
    slot: Mutex<Arc<Snapshot>>,
    /// Publishes since construction — the status endpoint's epoch counter.
    epoch: AtomicU64,
    /// Replaced snapshots a query still held when they were replaced. Only
    /// [`Self::publish`] locks it, and it frees each once its readers have
    /// let go.
    retired: Mutex<Vec<Arc<Snapshot>>>,
}

impl SnapshotCell {
    /// A cell primed with the initial (typically round-zero) snapshot, so
    /// queries can be answered from the moment the socket opens.
    pub fn new(initial: Snapshot) -> Self {
        Self {
            slot: Mutex::new(Arc::new(initial)),
            epoch: AtomicU64::new(0),
            retired: Mutex::new(Vec::new()),
        }
    }

    /// Publishes a new snapshot. Readers holding the previous `Arc` finish
    /// their query against the old round; new queries see this one.
    /// The slot only ever holds a fully-built `Arc`, so a poisoned lock
    /// (a panic elsewhere while holding it) cannot expose a torn value —
    /// recover the guard instead of cascading the panic into the daemon.
    ///
    /// The publisher frees every replaced snapshot itself, after the slot
    /// lock is released: at once when no query holds it, otherwise at the
    /// first publish after its last reader let go. Freeing one releases a
    /// reference on every user-row chunk (15,625 at a million users) and
    /// frees the chunks training has copied since, up to one per client.
    /// When a query handler dropped the last reference instead, it freed
    /// those chunks into the allocator arena the trainer was allocating
    /// from: the trainer's next round blocked on the arena's lock about 30
    /// times and ran a third slower.
    pub fn publish(&self, snapshot: Snapshot) {
        let previous = std::mem::replace(
            &mut *self.slot.lock().unwrap_or_else(PoisonError::into_inner),
            Arc::new(snapshot),
        );
        self.epoch.fetch_add(1, Ordering::SeqCst);
        let mut retired = self.retired.lock().unwrap_or_else(PoisonError::into_inner);
        retired.push(previous);
        // No query can take a new reference to a replaced snapshot, so a
        // count of one is final: this thread holds the last reference.
        retired.retain(|snapshot| Arc::strong_count(snapshot) > 1);
    }

    /// How many snapshots have been published since the cell was primed
    /// (the initial snapshot is epoch 0).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// The latest published snapshot (an `Arc` clone; never blocks on the
    /// trainer beyond the pointer swap).
    pub fn latest(&self) -> Arc<Snapshot> {
        Arc::clone(&self.slot.lock().unwrap_or_else(PoisonError::into_inner))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use frs_model::ModelConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_snapshot(round: usize) -> Snapshot {
        let mut rng = StdRng::seed_from_u64(7 + round as u64);
        let model = GlobalModel::new(&ModelConfig::mf(4), 6, &mut rng);
        // User 0 interacted with items 0 and 1; user 1 with item 5.
        let train = Arc::new(Dataset::from_user_items(6, vec![vec![0, 1], vec![5]]));
        let users =
            EmbeddingStore::from_rows(vec![vec![0.3, -0.1, 0.2, 0.4], vec![-0.2, 0.1, 0.5, 0.0]]);
        Snapshot::new(round, false, model, users, train)
    }

    #[test]
    fn top_k_excludes_interacted_and_sorts_descending() {
        let snap = tiny_snapshot(0);
        let items = snap.top_k(0, 10).unwrap();
        assert_eq!(items.len(), 4, "6 items minus 2 interacted");
        assert!(items.iter().all(|s| s.item > 1), "seen items excluded");
        for pair in items.windows(2) {
            assert!(pair[0].score >= pair[1].score, "descending scores");
        }

        let k2 = snap.top_k(0, 2).unwrap();
        assert_eq!(k2.len(), 2);
        assert_eq!(
            (k2[0].item, k2[1].item),
            (items[0].item, items[1].item),
            "a smaller k is a prefix of the full ranking"
        );
    }

    #[test]
    fn out_of_range_user_is_an_error() {
        let snap = tiny_snapshot(0);
        assert!(snap.top_k(2, 5).is_err());
    }

    #[test]
    fn extra_attack_rows_are_truncated() {
        let mut rng = StdRng::seed_from_u64(1);
        let model = GlobalModel::new(&ModelConfig::mf(4), 6, &mut rng);
        let train = Arc::new(Dataset::from_user_items(6, vec![vec![0]]));
        // Two rows but only one benign user: the attack client is not
        // servable.
        let users = EmbeddingStore::from_rows(vec![vec![0.1; 4], vec![0.9; 4]]);
        let snap = Snapshot::new(3, true, model, users, train);
        assert_eq!(snap.n_users(), 1);
        assert!(snap.top_k(1, 5).is_err());
    }

    #[test]
    fn cell_swaps_epochs_without_disturbing_held_readers() {
        let cell = SnapshotCell::new(tiny_snapshot(0));
        assert_eq!(cell.epoch(), 0);
        let held = cell.latest();
        cell.publish(tiny_snapshot(1));
        assert_eq!(held.round(), 0, "held reader keeps its epoch");
        assert_eq!(cell.latest().round(), 1);
        assert_eq!(cell.epoch(), 1, "publish bumps the epoch counter");
    }

    #[test]
    fn the_publisher_frees_replaced_snapshots() {
        let cell = SnapshotCell::new(tiny_snapshot(0));
        let unheld = Arc::downgrade(&cell.latest());
        cell.publish(tiny_snapshot(1));
        assert!(
            unheld.upgrade().is_none(),
            "no reader: freed by the publish"
        );

        let held = cell.latest();
        let weak = Arc::downgrade(&held);
        cell.publish(tiny_snapshot(2));
        drop(held);
        assert!(
            weak.upgrade().is_some(),
            "the last reader's drop leaves the snapshot to the publisher"
        );
        cell.publish(tiny_snapshot(3));
        assert!(weak.upgrade().is_none(), "freed by the next publish");
        assert_eq!(cell.latest().round(), 3);
    }

    /// A published snapshot shares its user rows with the simulation's
    /// arena, copy-on-write: training the next round must leave a held
    /// snapshot exactly as it was published.
    #[test]
    fn held_snapshot_keeps_its_round_while_training_continues() {
        use frs_data::{leave_one_out, synth, DatasetSpec};
        use frs_federation::{
            ClientPool, ClientsPerRound, FederationConfig, LazyClientPool, Simulation,
        };

        let mut rng = StdRng::seed_from_u64(8);
        let full = synth::generate(&DatasetSpec::tiny(), &mut rng);
        let train = Arc::new(leave_one_out(&full, &mut rng).train);
        // 128-float rows make eight rows a chunk, so a 4-client round
        // dirties a few chunks and leaves the rest shared.
        let dim = 128;
        let model = GlobalModel::new(&ModelConfig::mf(dim), train.n_items(), &mut rng);
        let pool = LazyClientPool::new(
            train.n_users(),
            Arc::clone(&train),
            dim,
            0.1,
            |u| u as u64,
            None,
            Vec::new(),
        );
        let mut sim = Simulation::builder(model)
            .pool(ClientPool::Lazy(pool))
            .config(FederationConfig {
                clients_per_round: ClientsPerRound::Count(4),
                seed: 8,
                ..FederationConfig::default()
            })
            .build();
        let snapshot = |sim: &Simulation| {
            Snapshot::new(
                sim.rounds_done(),
                false,
                sim.model().clone(),
                sim.user_embeddings(),
                Arc::clone(&train),
            )
        };

        let cell = SnapshotCell::new(snapshot(&sim));
        sim.run(2);
        cell.publish(snapshot(&sim));
        let held = cell.latest();
        let deep = EmbeddingStore::from_rows(held.users.rows_iter().map(<[f32]>::to_vec).collect());
        let ranking = held.top_k(0, 10).unwrap();

        sim.run_round();
        cell.publish(snapshot(&sim));
        let next = cell.latest();
        assert_eq!(next.round(), 3);
        assert_ne!(next.users, held.users, "round 3 trained some users");
        assert_eq!(held.round(), 2);
        assert_eq!(held.users, deep, "the held snapshot kept round 2's rows");
        assert_eq!(held.top_k(0, 10).unwrap(), ranking);
    }
}
