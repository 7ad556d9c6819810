//! The client population: benign users as arena rows, plus boxed clients.
//!
//! At paper scale (thousands of users) one boxed [`Client`] per user is
//! fine; at the million-client target it is 1M allocations of which a round
//! touches a few hundred. A [`LazyClientPool`] therefore keeps benign users
//! as rows of an [`EmbeddingStore`] arena plus a seed function: a real
//! [`BenignClient`] is constructed for exactly the sampled subset each round
//! and torn back down into the arena afterwards. Stateful client-side
//! defenses persist across samplings in a sparse map, built on demand from
//! a [`RegularizerFactory`]. The arena lives in memory as copy-on-write
//! chunks, so the evaluation table [`LazyClientPool::user_embeddings`]
//! hands out shares its rows instead of copying them.
//!
//! Boxed clients occupy the ids above the arena users. They are the
//! attacker cohort (few, stateful, arbitrary types), or a whole hand-built
//! population: [`LazyClientPool::from_clients`] has no arena users and boxes
//! every client.
//!
//! Both forms of a benign user are **bit-identical** under every seed,
//! width, and checkpoint cut: arena rows are initialized by the same
//! [`BenignClient::init_embedding`] draw `BenignClient::new` makes, rounds
//! run the same `local_round` code, and checkpoints serialize the same
//! per-client state shape
//! (`server::tests::arena_users_match_boxed_clients_bit_for_bit`).

use std::collections::BTreeMap;
use std::sync::Arc;

use frs_data::Dataset;
use frs_model::{EmbeddingStore, GlobalGradients, GlobalModel};

use crate::client::{BenignClient, BenignClientState, Client, LocalRegularizer};
use crate::context::RoundContext;
use crate::pool;

/// Builds the client-side defense regularizer for a given user id. A
/// `DefenseInstance` factory plugs in directly.
pub type RegularizerFactory = Box<dyn Fn(usize) -> Box<dyn LocalRegularizer> + Send + Sync>;

/// The population `SimulationBuilder::pool` takes. A one-variant enum only
/// because the repository benchmark (`perfbench/`) spells it
/// `ClientPool::Lazy(..)`.
pub enum ClientPool {
    /// Benign clients materialize per round from an embedding arena.
    Lazy(LazyClientPool),
}

/// Benign users as arena rows + construction recipe, with the boxed
/// clients occupying the id range above them. See the module docs.
pub struct LazyClientPool {
    n_benign: usize,
    train: Arc<Dataset>,
    /// Row `u` holds user `u`'s private embedding between samplings. Sized
    /// over the *whole* population; rows above `n_benign` stay zero, so the
    /// arena doubles as the dense evaluation table.
    arena: EmbeddingStore,
    reg_factory: Option<RegularizerFactory>,
    /// Stateful per-user defense regularizers, kept only for users that
    /// have been sampled (or restored) so far.
    regs: BTreeMap<usize, Box<dyn LocalRegularizer>>,
    /// Materialized clients above the benign range.
    /// Ids must be dense in `n_benign..n_benign + boxed.len()`.
    boxed: Vec<Box<dyn Client>>,
}

/// A round participant: either a benign client materialized from the arena
/// for this round only, or a borrow of a permanently boxed client.
enum Participant<'a> {
    Owned(BenignClient),
    Borrowed(&'a mut Box<dyn Client>),
}

impl LazyClientPool {
    /// Creates the pool and initializes every benign arena row with the
    /// seeded draw `BenignClient::new` would have made.
    pub fn new(
        n_benign: usize,
        train: Arc<Dataset>,
        dim: usize,
        init_scale: f32,
        seed_fn: impl Fn(usize) -> u64,
        reg_factory: Option<RegularizerFactory>,
        boxed: Vec<Box<dyn Client>>,
    ) -> Self {
        let mut arena = EmbeddingStore::zeros(n_benign + boxed.len(), dim);
        for u in 0..n_benign {
            BenignClient::init_embedding(arena.row_mut(u), init_scale, seed_fn(u));
        }
        Self {
            n_benign,
            train,
            arena,
            reg_factory,
            regs: BTreeMap::new(),
            boxed,
        }
    }

    /// A hand-built population: no arena users, every client boxed. Ids
    /// must be dense `0..clients.len()`, in order; `dim` sizes the
    /// evaluation table.
    pub fn from_clients(clients: Vec<Box<dyn Client>>, dim: usize) -> Self {
        let no_users = Arc::new(Dataset::from_user_items(0, Vec::new()));
        Self::new(0, no_users, dim, 0.0, |_| 0, None, clients)
    }

    fn materialize(&mut self, user: usize) -> BenignClient {
        let reg = self
            .regs
            .remove(&user)
            .or_else(|| self.reg_factory.as_ref().map(|f| f(user)));
        BenignClient::from_parts(
            user,
            Arc::clone(&self.train),
            self.arena.row(user).to_vec(),
            reg,
        )
    }

    /// The regularizer state a checkpoint records for user `u`: the live
    /// state when one exists, otherwise a factory-fresh one — exactly what
    /// a boxed never-sampled client would serialize.
    fn reg_state(&self, u: usize) -> serde::Value {
        match self.regs.get(&u) {
            Some(reg) => reg.checkpoint_state(),
            None => match &self.reg_factory {
                Some(f) => f(u).checkpoint_state(),
                None => serde::Value::Null,
            },
        }
    }

    /// Total number of registered clients.
    pub fn len(&self) -> usize {
        self.n_benign + self.boxed.len()
    }

    /// True when the pool holds no clients at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Panics unless client ids are unique and dense in `0..len()` (the
    /// invariant the whole sampling/aggregation path relies on).
    pub fn assert_dense_ids(&self) {
        for (offset, client) in self.boxed.iter().enumerate() {
            assert_eq!(
                self.n_benign + offset,
                client.id(),
                "client ids must be dense 0..n (boxed clients start at n_benign)"
            );
        }
    }

    /// Ids of benign clients (the evaluation population `Ū`).
    pub fn benign_ids(&self) -> Vec<usize> {
        (0..self.n_benign)
            .chain(
                self.boxed
                    .iter()
                    .filter(|c| !c.is_malicious())
                    .map(|c| c.id()),
            )
            .collect()
    }

    /// Ids of attacker-controlled clients (`Ũ`).
    pub fn malicious_ids(&self) -> Vec<usize> {
        self.boxed
            .iter()
            .filter(|c| c.is_malicious())
            .map(|c| c.id())
            .collect()
    }

    /// How many of the given (sorted) selected ids are attacker-controlled.
    pub fn count_malicious(&self, selected: &[usize]) -> usize {
        selected
            .iter()
            .filter(|&&id| id >= self.n_benign && self.boxed[id - self.n_benign].is_malicious())
            .count()
    }

    /// Dense per-client-id embedding table for metric evaluation. The arena
    /// is the table for arena users; boxed clients that keep their own
    /// embedding (hand-built benign clients) overlay their rows, and the
    /// rest (malicious) stay zero — metrics only ever index benign ids. The
    /// clone shares the arena's chunks copy-on-write, so this costs
    /// O(chunks) plus the chunks an overlay touches.
    pub fn user_embeddings(&self) -> EmbeddingStore {
        let mut table = self.arena.clone();
        for client in &self.boxed {
            if let Some(embedding) = client.user_embedding() {
                table.row_mut(client.id()).copy_from_slice(embedding);
            }
        }
        table
    }

    /// Runs `local_round` for the selected (sorted, deduplicated) client
    /// ids, fanning out over `width` threads, and returns the id-tagged
    /// uploads in selection order. Arena users materialize here and retire
    /// their state back to the arena before returning.
    pub fn run_selected(
        &mut self,
        selected_sorted: &[usize],
        width: usize,
        ctx: &RoundContext,
        model: &GlobalModel,
    ) -> Vec<(usize, GlobalGradients)> {
        // Benign ids sit below the boxed range, so after the sort all
        // Owned participants precede all Borrowed ones.
        let n_benign = self.n_benign;
        let mut participants: Vec<Participant> = Vec::with_capacity(selected_sorted.len());
        for &id in selected_sorted.iter().filter(|&&id| id < n_benign) {
            participants.push(Participant::Owned(self.materialize(id)));
        }
        let mut flags = vec![false; self.boxed.len()];
        for &id in selected_sorted.iter().filter(|&&id| id >= n_benign) {
            flags[id - n_benign] = true;
        }
        participants.extend(
            self.boxed
                .iter_mut()
                .enumerate()
                .filter(|(i, _)| flags[*i])
                .map(|(_, c)| Participant::Borrowed(c)),
        );

        let results = pool::map_ordered(participants, width, |p| match p {
            Participant::Owned(mut c) => {
                let grads = c.local_round(ctx, model);
                let id = c.id();
                (id, grads, Some(c))
            }
            Participant::Borrowed(c) => (c.id(), c.local_round(ctx, model), None),
        });

        // The write-back copies each chunk a published snapshot or an
        // evaluation table still shares, and only those.
        let mut uploads = Vec::with_capacity(results.len());
        for (id, grads, owned) in results {
            if let Some(client) = owned {
                let (embedding, reg) = client.into_parts();
                self.arena.row_mut(id).copy_from_slice(&embedding);
                if let Some(reg) = reg {
                    self.regs.insert(id, reg);
                }
            }
            uploads.push((id, grads));
        }
        uploads
    }

    /// Per-client checkpoint states, dense by id. Arena users emit the same
    /// `BenignClientState` shape a boxed `BenignClient` serializes, so the
    /// two forms' checkpoints are interchangeable.
    pub fn checkpoint_states(&self) -> Vec<serde::Value> {
        let mut out = Vec::with_capacity(self.len());
        for u in 0..self.n_benign {
            let state = BenignClientState {
                user_embedding: self.arena.row(u).to_vec(),
                regularizer: self.reg_state(u),
            };
            out.push(serde::Serialize::to_value(&state));
        }
        out.extend(self.boxed.iter().map(|c| c.checkpoint_state()));
        out
    }

    /// Overlays per-client checkpoint states captured by
    /// [`LazyClientPool::checkpoint_states`] (caller has already validated
    /// the count).
    pub fn restore_states(&mut self, states: &[serde::Value]) -> Result<(), String> {
        let dim = self.arena.cols();
        for (u, state) in states.iter().take(self.n_benign).enumerate() {
            let state: BenignClientState =
                serde::Deserialize::from_value(state).map_err(|e| e.to_string())?;
            if state.user_embedding.len() != dim {
                return Err(format!(
                    "user {u} embedding dim mismatch: checkpoint {}, simulation {dim}",
                    state.user_embedding.len()
                ));
            }
            self.arena.row_mut(u).copy_from_slice(&state.user_embedding);
            match (&self.reg_factory, &state.regularizer) {
                // A null regularizer state means "fresh" — drop any live
                // one and let the next sampling rebuild it, keeping
                // never-sampled users unmaterialized.
                (_, v) if v.is_null() => {
                    self.regs.remove(&u);
                }
                (Some(factory), v) => {
                    let mut reg = factory(u);
                    reg.restore_state(v)?;
                    self.regs.insert(u, reg);
                }
                (None, v) => {
                    return Err(format!(
                        "user {u} has no regularizer but checkpoint carries {}",
                        v.kind()
                    ));
                }
            }
        }
        for (client, state) in self.boxed.iter_mut().zip(&states[self.n_benign..]) {
            client.restore_state(state)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use frs_data::{synth, DatasetSpec};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_train() -> Arc<Dataset> {
        let mut rng = StdRng::seed_from_u64(3);
        Arc::new(synth::generate(&DatasetSpec::tiny(), &mut rng))
    }

    #[test]
    fn lazy_arena_reproduces_eager_init() {
        let train = tiny_train();
        let n = train.n_users();
        let pool = LazyClientPool::new(
            n,
            Arc::clone(&train),
            8,
            0.1,
            Box::new(|u| 40 + u as u64),
            None,
            Vec::new(),
        );
        let table = pool.user_embeddings();
        for u in 0..n {
            let eager = BenignClient::new(u, Arc::clone(&train), 8, 0.1, 40 + u as u64);
            assert_eq!(
                table.row(u),
                eager.user_embedding().unwrap(),
                "user {u} init differs"
            );
        }
    }

    #[test]
    fn lazy_id_layout_and_counts() {
        struct Mal(usize);
        impl Client for Mal {
            fn id(&self) -> usize {
                self.0
            }
            fn is_malicious(&self) -> bool {
                true
            }
            fn local_round(
                &mut self,
                _ctx: &RoundContext,
                _model: &GlobalModel,
            ) -> GlobalGradients {
                GlobalGradients::new()
            }
        }
        let train = tiny_train();
        let pool = LazyClientPool::new(
            5,
            train,
            4,
            0.1,
            Box::new(|u| u as u64),
            None,
            vec![Box::new(Mal(5)), Box::new(Mal(6))],
        );
        pool.assert_dense_ids();
        assert_eq!(pool.len(), 7);
        assert_eq!(pool.benign_ids(), vec![0, 1, 2, 3, 4]);
        assert_eq!(pool.malicious_ids(), vec![5, 6]);
        assert_eq!(pool.count_malicious(&[0, 2, 5]), 1);
        assert_eq!(pool.count_malicious(&[5, 6]), 2);
        let table = pool.user_embeddings();
        assert_eq!(table.rows(), 7);
        assert_eq!(table.row(6), &[0.0; 4], "boxed rows stay zero");
    }

    #[test]
    #[should_panic(expected = "dense")]
    fn lazy_rejects_misnumbered_boxed_clients() {
        struct Off;
        impl Client for Off {
            fn id(&self) -> usize {
                99
            }
            fn local_round(
                &mut self,
                _ctx: &RoundContext,
                _model: &GlobalModel,
            ) -> GlobalGradients {
                GlobalGradients::new()
            }
        }
        let pool = LazyClientPool::new(
            2,
            tiny_train(),
            4,
            0.1,
            Box::new(|u| u as u64),
            None,
            vec![Box::new(Off)],
        );
        pool.assert_dense_ids();
    }
}
