//! The federation server and round loop.

use std::collections::BTreeMap;
use std::time::Instant;

use frs_linalg::SeedStream;
use frs_model::{EmbeddingStore, GlobalGradients, GlobalModel};
use rand::Rng;

use crate::aggregate::{Aggregator, SumAggregator};
use crate::budget::CoreLease;
use crate::checkpoint::{SimulationCheckpoint, CHECKPOINT_FORMAT_VERSION};
use crate::client::Client;
use crate::config::{FederationConfig, RoundThreads};
use crate::context::RoundContext;
use crate::population::{ClientPool, LazyClientPool};
use crate::stats::{RoundStats, TrainingStats};
use crate::wire;

/// A complete federated training simulation: global model + client population
/// + aggregation rule. Assembled through [`SimulationBuilder`]:
///
/// ```ignore
/// let sim = Simulation::builder(model)
///     .clients(clients)
///     .aggregator(Box::new(SumAggregator))
///     .config(FederationConfig::default())
///     .build();
/// ```
pub struct Simulation {
    model: GlobalModel,
    pool: LazyClientPool,
    aggregator: Box<dyn Aggregator>,
    config: FederationConfig,
    seeds: SeedStream,
    round: usize,
    stats: TrainingStats,
    /// Claim on a shared [`CoreBudget`](crate::CoreBudget); consulted every
    /// round when the config's policy is [`RoundThreads::Auto`].
    lease: Option<CoreLease>,
}

/// Step-by-step assembly of a [`Simulation`], replacing the old positional
/// four-argument constructor. The aggregator defaults to a plain
/// [`SumAggregator`] (no defense) and the configuration to
/// [`FederationConfig::default`]; the model and clients must be provided.
pub struct SimulationBuilder {
    model: GlobalModel,
    pool: LazyClientPool,
    aggregator: Box<dyn Aggregator>,
    config: FederationConfig,
}

impl SimulationBuilder {
    /// Replaces the whole client population with hand-built boxed clients
    /// ([`LazyClientPool::from_clients`]).
    pub fn clients(mut self, clients: Vec<Box<dyn Client>>) -> Self {
        self.pool = LazyClientPool::from_clients(clients, self.model.dim());
        self
    }

    /// Replaces the whole client population (the scenario and
    /// million-client paths hand an arena pool here).
    pub fn pool(mut self, pool: ClientPool) -> Self {
        let ClientPool::Lazy(pool) = pool;
        self.pool = pool;
        self
    }

    /// Sets the aggregation rule (the defense hook).
    pub fn aggregator(mut self, aggregator: Box<dyn Aggregator>) -> Self {
        self.aggregator = aggregator;
        self
    }

    /// Sets the protocol configuration.
    pub fn config(mut self, config: FederationConfig) -> Self {
        self.config = config;
        self
    }

    /// Validates and assembles the simulation. Client ids must be unique and
    /// dense in `0..clients.len()` (benign clients use their user id;
    /// malicious clients take the ids above the benign range).
    pub fn build(self) -> Simulation {
        let SimulationBuilder {
            model,
            pool,
            aggregator,
            config,
        } = self;
        config.validate().expect("invalid federation config");
        pool.assert_dense_ids();
        let seeds = SeedStream::new(config.seed);
        Simulation {
            model,
            pool,
            aggregator,
            config,
            seeds,
            round: 0,
            stats: TrainingStats::default(),
            lease: None,
        }
    }
}

impl Simulation {
    /// Starts building a simulation around a global model.
    pub fn builder(model: GlobalModel) -> SimulationBuilder {
        let pool = LazyClientPool::from_clients(Vec::new(), model.dim());
        SimulationBuilder {
            model,
            pool,
            aggregator: Box::new(SumAggregator),
            config: FederationConfig::default(),
        }
    }

    /// Attaches (or detaches) a [`CoreLease`] from a shared
    /// [`CoreBudget`](crate::CoreBudget): when the configuration's policy is
    /// [`RoundThreads::Auto`], every round's fan-out width is the lease's
    /// current fair share. Callers take the lease at execution time, after
    /// construction.
    pub fn set_core_lease(&mut self, lease: Option<CoreLease>) {
        self.lease = lease;
    }

    /// Detaches and returns the attached lease, if any. The multi-scenario
    /// serve path hands one trainer lease around a set of simulations this
    /// way — only the one currently training holds budget width, instead of
    /// every idle simulation counting against the shared grant.
    pub fn take_core_lease(&mut self) -> Option<CoreLease> {
        self.lease.take()
    }

    /// The fan-out width the next round would use for `n_participants`
    /// sampled clients: the configured fixed width, or the attached lease's
    /// current fair share under [`RoundThreads::Auto`] (1 when no lease is
    /// attached — parallelism is granted by a budget, never assumed).
    pub fn effective_round_width(&self, n_participants: usize) -> usize {
        let width = match (self.config.round_threads, &self.lease) {
            (RoundThreads::Fixed(n), _) => n,
            (RoundThreads::Auto, Some(lease)) => lease.width(),
            (RoundThreads::Auto, None) => 1,
        };
        width.max(1).min(n_participants.max(1))
    }

    /// The current global model.
    pub fn model(&self) -> &GlobalModel {
        &self.model
    }

    /// Mutable model access for white-box experiments (e.g. planting
    /// embeddings in unit tests). Real protocol flows never use this.
    pub fn model_mut(&mut self) -> &mut GlobalModel {
        &mut self.model
    }

    /// Number of participating clients.
    pub fn n_clients(&self) -> usize {
        self.pool.len()
    }

    /// Ids of benign clients (the evaluation population `Ū`).
    pub fn benign_ids(&self) -> Vec<usize> {
        self.pool.benign_ids()
    }

    /// Ids of attacker-controlled clients (`Ũ`).
    pub fn malicious_ids(&self) -> Vec<usize> {
        self.pool.malicious_ids()
    }

    /// Dense per-client-id embedding table for metric evaluation. Clients
    /// without a personal embedding (malicious) get zero rows — metrics
    /// only ever index benign ids. This is a clone of the embedding arena
    /// that shares its chunks copy-on-write: O(chunks), not O(rows).
    pub fn user_embeddings(&self) -> EmbeddingStore {
        self.pool.user_embeddings()
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &TrainingStats {
        &self.stats
    }

    /// The configured protocol parameters.
    pub fn config(&self) -> &FederationConfig {
        &self.config
    }

    /// Completed round count.
    pub fn rounds_done(&self) -> usize {
        self.round
    }

    /// Samples `clients_per_round` distinct client indices for this round
    /// (seeded partial Fisher–Yates — byte-stable at any round width).
    fn sample_round_clients(&self) -> Vec<usize> {
        let n = self.pool.len();
        let k = self.config.clients_per_round.effective(n);
        let mut rng = self.seeds.rng("server-sample", self.round as u64);
        sample_distinct(n, k, &mut rng)
    }

    /// Executes one communication round (Section III-A steps 1–4).
    pub fn run_round(&mut self) -> RoundStats {
        let start = Instant::now(); // lint:allow(unseeded-entropy): wall-clock diagnostics; round_time is serde-skipped and never reaches reports or cache keys
        let ctx = RoundContext::new(
            self.round,
            self.config.learning_rate,
            self.config.client_lr_at(self.round),
            self.config.negative_ratio,
            self.config.loss,
            self.seeds,
        );

        let selected = self.sample_round_clients();
        let mut selected_sorted = selected;
        selected_sorted.sort_unstable();

        // The fan-out width is re-read every round: under `Auto` an attached
        // lease grows as sibling workloads on the shared budget finish, and
        // the round pool picks the larger width up mid-run.
        let width = self.effective_round_width(selected_sorted.len());

        let mut uploads: Vec<(usize, GlobalGradients)> =
            self.pool
                .run_selected(&selected_sorted, width, &ctx, &self.model);

        // Deterministic aggregation order regardless of thread interleaving.
        uploads.sort_unstable_by_key(|(id, _)| *id);
        let n_malicious_selected = self.pool.count_malicious(&selected_sorted);
        let upload_bytes: usize = uploads
            .iter()
            .map(|(_, g)| wire::encoded_size(g))
            .sum::<usize>();
        let grad_sets: Vec<GlobalGradients> = uploads.into_iter().map(|(_, g)| g).collect();

        let combined = self.aggregator.aggregate(&grad_sets);
        let n_items_updated = combined.n_items();
        self.model
            .apply_gradients(&combined, self.config.learning_rate);

        let stats = RoundStats {
            round: self.round,
            n_selected: grad_sets.len(),
            n_malicious_selected,
            n_items_updated,
            upload_bytes,
            n_threads: width,
            elapsed: start.elapsed(),
        };
        self.stats.absorb(&stats);
        self.round += 1;
        stats
    }

    /// Runs `rounds` communication rounds.
    pub fn run(&mut self, rounds: usize) {
        for _ in 0..rounds {
            self.run_round();
        }
    }

    /// Captures the complete mutable state of the run at the current round
    /// boundary. Together with the (deterministic) build inputs this is
    /// enough to continue the run bit-identically — see
    /// [`Simulation::restore_checkpoint`]. The captured model shares the
    /// live item table rather than copying it.
    pub fn capture_checkpoint(&self) -> SimulationCheckpoint {
        SimulationCheckpoint {
            format: CHECKPOINT_FORMAT_VERSION,
            round: self.round,
            model: self.model.clone(),
            stats: self.stats.clone(),
            clients: self.pool.checkpoint_states(),
            aggregator: self.aggregator.checkpoint_state(),
        }
    }

    /// Overlays a checkpoint captured by [`Simulation::capture_checkpoint`]
    /// onto this simulation, which must have been freshly built from the
    /// *same* configuration (model family, client population, seeds). After
    /// a successful restore, `run_round` continues exactly where the
    /// checkpointed run left off — the server's per-round RNG streams key on
    /// `(seed, round)`, so no RNG state beyond the round counter exists.
    pub fn restore_checkpoint(&mut self, ckpt: &SimulationCheckpoint) -> Result<(), String> {
        ckpt.validate(self.pool.len())?;
        if ckpt.model.kind() != self.model.kind()
            || ckpt.model.n_items() != self.model.n_items()
            || ckpt.model.dim() != self.model.dim()
        {
            return Err(format!(
                "checkpoint model {:?} ({} items, dim {}) does not match simulation \
                 {:?} ({} items, dim {})",
                ckpt.model.kind(),
                ckpt.model.n_items(),
                ckpt.model.dim(),
                self.model.kind(),
                self.model.n_items(),
                self.model.dim()
            ));
        }
        self.pool.restore_states(&ckpt.clients)?;
        self.aggregator.restore_state(&ckpt.aggregator)?;
        self.model = ckpt.model.clone();
        self.round = ckpt.round;
        self.stats = ckpt.stats.clone();
        Ok(())
    }
}

/// The first `k` slots of a partial Fisher–Yates shuffle of `0..n`, in
/// O(k) time and space: instead of filling `(0..n)`, only the slots a swap
/// has displaced are kept, in an ordered map used for lookups alone. Slot
/// `i` is never read again once drawn, so its entry leaves the map. Draws
/// exactly what shuffling the dense vector would (`tests::sparse_sampling_matches_dense`).
fn sample_distinct<R: Rng + ?Sized>(n: usize, k: usize, rng: &mut R) -> Vec<usize> {
    let mut displaced: BTreeMap<usize, usize> = BTreeMap::new();
    (0..k)
        .map(|i| {
            let pick = rng.gen_range(i..n);
            let at_i = displaced.remove(&i).unwrap_or(i);
            if pick == i {
                at_i
            } else {
                displaced.insert(pick, at_i).unwrap_or(pick)
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::CoreBudget;
    use crate::client::BenignClient;
    use crate::config::ClientsPerRound;
    use frs_data::{leave_one_out, synth, DatasetSpec};
    use frs_metrics::hit_ratio_at_k;
    use frs_model::ModelConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;
    use std::time::Duration;

    /// The single client-population construction path every test goes
    /// through: benign users live in the arena; boxed clients sit above.
    fn lazy_pool(
        n_benign: usize,
        train: &Arc<frs_data::Dataset>,
        dim: usize,
        seed: u64,
        boxed: Vec<Box<dyn Client>>,
    ) -> ClientPool {
        ClientPool::Lazy(LazyClientPool::new(
            n_benign,
            Arc::clone(train),
            dim,
            0.1,
            move |u| seed + u as u64,
            None,
            boxed,
        ))
    }

    fn build_sim(
        round_threads: RoundThreads,
        seed: u64,
    ) -> (Simulation, Arc<frs_data::Dataset>, frs_data::TrainTestSplit) {
        let mut rng = StdRng::seed_from_u64(seed);
        let full = synth::generate(&DatasetSpec::tiny(), &mut rng);
        let split = leave_one_out(&full, &mut rng);
        let train = Arc::new(split.train.clone());
        let model = GlobalModel::new(&ModelConfig::mf(8), train.n_items(), &mut rng);
        let config = FederationConfig {
            clients_per_round: ClientsPerRound::Count(32),
            round_threads,
            seed,
            ..FederationConfig::default()
        };
        (
            Simulation::builder(model)
                .pool(lazy_pool(train.n_users(), &train, 8, seed, Vec::new()))
                .config(config)
                .build(),
            train,
            split,
        )
    }

    #[test]
    fn round_selects_expected_batch() {
        let (mut sim, _, _) = build_sim(RoundThreads::Fixed(1), 1);
        let stats = sim.run_round();
        assert_eq!(stats.n_selected, 32);
        assert_eq!(stats.n_malicious_selected, 0);
        assert!(stats.n_items_updated > 0);
        assert!(stats.upload_bytes > 0);
        assert_eq!(stats.n_threads, 1);
        assert_eq!(sim.rounds_done(), 1);
        assert_eq!(sim.stats().max_round_threads, 1);
    }

    #[test]
    fn training_improves_hit_ratio() {
        let (mut sim, _, split) = build_sim(RoundThreads::Fixed(1), 2);
        let benign = sim.benign_ids();
        let hr_before = hit_ratio_at_k(sim.model(), &sim.user_embeddings(), &benign, &split, 10);
        sim.run(60);
        let hr_after = hit_ratio_at_k(sim.model(), &sim.user_embeddings(), &benign, &split, 10);
        assert!(
            hr_after > hr_before + 0.05,
            "HR@10 should improve: {hr_before} -> {hr_after}"
        );
    }

    #[test]
    fn every_width_matches_the_sequential_run() {
        let (mut seq, _, _) = build_sim(RoundThreads::Fixed(1), 3);
        seq.run(5);
        for width in [2usize, 8] {
            let (mut par, _, _) = build_sim(RoundThreads::Fixed(width), 3);
            par.run(5);
            assert_eq!(seq.model().items(), par.model().items(), "width {width}");
            assert_eq!(
                seq.user_embeddings(),
                par.user_embeddings(),
                "width {width}"
            );
            assert_eq!(par.stats().max_round_threads, width);
        }
    }

    #[test]
    fn auto_width_tracks_the_lease_and_stays_bit_identical() {
        let (mut seq, _, _) = build_sim(RoundThreads::Fixed(1), 3);
        seq.run(6);

        let budget = CoreBudget::new(8);
        let (mut auto, _, _) = build_sim(RoundThreads::Auto, 3);
        // No lease attached yet: Auto degrades to sequential.
        assert_eq!(auto.effective_round_width(32), 1);
        auto.run(2);
        assert_eq!(auto.stats().max_round_threads, 1);

        // A contended lease (a sibling holds half the budget) grants 4…
        auto.set_core_lease(Some(budget.lease()));
        let sibling = budget.lease();
        assert_eq!(auto.effective_round_width(32), 4);
        auto.run(2);

        // …and when the sibling finishes, the next round widens to 8
        // mid-run without rebuilding the simulation.
        drop(sibling);
        assert_eq!(auto.effective_round_width(32), 8);
        let stats = auto.run_round();
        assert_eq!(stats.n_threads, 8);
        auto.run(1);
        assert_eq!(auto.stats().max_round_threads, 8);

        assert_eq!(seq.model().items(), auto.model().items());
        assert_eq!(seq.user_embeddings(), auto.user_embeddings());
    }

    #[test]
    fn one_lease_can_be_handed_between_simulations() {
        let budget = CoreBudget::new(8);
        let (mut a, _, _) = build_sim(RoundThreads::Auto, 3);
        let (mut b, _, _) = build_sim(RoundThreads::Auto, 3);

        a.set_core_lease(Some(budget.lease()));
        assert_eq!(a.effective_round_width(32), 8, "sole lease, full width");
        assert_eq!(b.effective_round_width(32), 1, "no lease, sequential");

        // Handing the one lease over transfers the full width instead of
        // splitting the budget between an active and an idle trainer.
        let lease = a.take_core_lease();
        assert!(lease.is_some());
        assert!(a.take_core_lease().is_none(), "take detaches");
        b.set_core_lease(lease);
        assert_eq!(a.effective_round_width(32), 1);
        assert_eq!(b.effective_round_width(32), 8);
    }

    /// The load-bearing pool invariant: arena users are **bit-identical**
    /// to hand-built boxed `BenignClient`s — same models, same embeddings,
    /// interchangeable checkpoints.
    #[test]
    fn arena_users_match_boxed_clients_bit_for_bit() {
        let seed = 17;
        let build_boxed = || {
            let mut rng = StdRng::seed_from_u64(seed);
            let full = synth::generate(&DatasetSpec::tiny(), &mut rng);
            let split = leave_one_out(&full, &mut rng);
            let train = Arc::new(split.train.clone());
            let model = GlobalModel::new(&ModelConfig::mf(8), train.n_items(), &mut rng);
            let clients: Vec<Box<dyn Client>> = (0..train.n_users())
                .map(|u| {
                    Box::new(BenignClient::new(
                        u,
                        Arc::clone(&train),
                        8,
                        0.1,
                        seed + u as u64,
                    )) as Box<dyn Client>
                })
                .collect();
            Simulation::builder(model)
                .clients(clients)
                .config(FederationConfig {
                    clients_per_round: ClientsPerRound::Count(32),
                    seed,
                    ..FederationConfig::default()
                })
                .build()
        };

        let mut boxed = build_boxed();
        let (mut arena, _, _) = build_sim(RoundThreads::Fixed(1), seed);
        assert_eq!(boxed.user_embeddings(), arena.user_embeddings(), "init");

        boxed.run(6);
        arena.run(6);
        assert_eq!(boxed.model().items(), arena.model().items());
        assert_eq!(boxed.user_embeddings(), arena.user_embeddings());

        // Checkpoints are interchangeable: boxed-client state restores onto
        // arena users and continues identically.
        let json = serde_json::to_string(&boxed.capture_checkpoint()).unwrap();
        let ckpt: SimulationCheckpoint = serde_json::from_str(&json).unwrap();
        let (mut resumed, _, _) = build_sim(RoundThreads::Fixed(1), seed);
        resumed.restore_checkpoint(&ckpt).unwrap();
        resumed.run(4);
        boxed.run(4);
        assert_eq!(boxed.model().items(), resumed.model().items());
        assert_eq!(boxed.user_embeddings(), resumed.user_embeddings());
    }

    #[test]
    fn fractional_sampling_scales_with_population() {
        let (mut sim, train, _) = build_sim(RoundThreads::Fixed(1), 12);
        let n = train.n_users();
        let mut cfg = sim.config().clone();
        cfg.clients_per_round = ClientsPerRound::Fraction(0.5);
        // Rebuild with the fractional width (configs are build-time).
        let mut frac = Simulation::builder(sim.model_mut().clone())
            .pool(lazy_pool(n, &train, 8, 12, Vec::new()))
            .config(cfg)
            .build();
        let stats = frac.run_round();
        assert_eq!(stats.n_selected, ((n as f64) * 0.5).round() as usize);
    }

    #[test]
    fn simulation_is_seed_deterministic() {
        let (mut a, _, _) = build_sim(RoundThreads::Fixed(2), 4);
        let (mut b, _, _) = build_sim(RoundThreads::Fixed(2), 4);
        a.run(4);
        b.run(4);
        assert_eq!(a.model().items(), b.model().items());
    }

    #[test]
    fn different_seeds_diverge() {
        let (mut a, _, _) = build_sim(RoundThreads::Fixed(1), 5);
        let (mut b, _, _) = build_sim(RoundThreads::Fixed(1), 6);
        a.run(2);
        b.run(2);
        assert_ne!(a.model().items(), b.model().items());
    }

    /// A client whose `local_round` panics once its id is sampled — the
    /// round pool must surface that panic, not hang or swallow it.
    struct ExplodingClient {
        id: usize,
    }

    impl Client for ExplodingClient {
        fn id(&self) -> usize {
            self.id
        }

        fn local_round(&mut self, _ctx: &RoundContext, _model: &GlobalModel) -> GlobalGradients {
            panic!("client {} exploded mid-round", self.id);
        }
    }

    #[test]
    fn client_panic_propagates_out_of_the_round_pool() {
        for round_threads in [RoundThreads::Fixed(1), RoundThreads::Fixed(4)] {
            let mut rng = StdRng::seed_from_u64(9);
            let full = synth::generate(&DatasetSpec::tiny(), &mut rng);
            let train = Arc::new(full);
            let model = GlobalModel::new(&ModelConfig::mf(4), train.n_items(), &mut rng);
            let exploding: Vec<Box<dyn Client>> = (0..train.n_users())
                .map(|u| Box::new(ExplodingClient { id: u }) as Box<dyn Client>)
                .collect();
            // Same pool path as build_sim: zero arena users, boxed clients
            // occupy the whole id range.
            let mut sim = Simulation::builder(model)
                .pool(lazy_pool(0, &train, 4, 9, exploding))
                .config(FederationConfig {
                    clients_per_round: ClientsPerRound::Count(8),
                    round_threads,
                    seed: 9,
                    ..FederationConfig::default()
                })
                .build();
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                sim.run_round();
            }))
            .expect_err("panic must propagate");
            let message = caught
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| caught.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default();
            assert!(
                message.contains("exploded mid-round"),
                "{round_threads:?}: {message}"
            );
        }
    }

    #[test]
    fn builder_defaults_and_incremental_clients() {
        let mut rng = StdRng::seed_from_u64(11);
        let full = synth::generate(&DatasetSpec::tiny(), &mut rng);
        let train = Arc::new(full);
        let model = GlobalModel::new(&ModelConfig::mf(4), train.n_items(), &mut rng);
        let clients: Vec<Box<dyn Client>> = (0..3)
            .map(|u| {
                Box::new(BenignClient::new(u, Arc::clone(&train), 4, 0.1, u as u64))
                    as Box<dyn Client>
            })
            .collect();
        let sim = Simulation::builder(model).clients(clients).build();
        assert_eq!(sim.n_clients(), 3);
        assert_eq!(
            sim.config().clients_per_round,
            FederationConfig::default().clients_per_round
        );
    }

    #[test]
    fn checkpoint_restore_continues_bit_identically() {
        let (mut uninterrupted, _, _) = build_sim(RoundThreads::Fixed(1), 21);
        uninterrupted.run(10);

        let (mut first, _, _) = build_sim(RoundThreads::Fixed(1), 21);
        first.run(4);
        let ckpt = first.capture_checkpoint();
        assert_eq!(ckpt.round, 4);

        // Round-trip the checkpoint through JSON, exactly like the on-disk
        // path, then overlay it on a freshly built simulation.
        let json = serde_json::to_string(&ckpt).unwrap();
        let back: SimulationCheckpoint = serde_json::from_str(&json).unwrap();
        let (mut resumed, _, _) = build_sim(RoundThreads::Fixed(1), 21);
        resumed.restore_checkpoint(&back).unwrap();
        assert_eq!(resumed.rounds_done(), 4);
        resumed.run(6);

        assert_eq!(uninterrupted.model().items(), resumed.model().items());
        assert_eq!(uninterrupted.user_embeddings(), resumed.user_embeddings());
        assert_eq!(
            uninterrupted.stats().total_selected,
            resumed.stats().total_selected
        );
        assert_eq!(uninterrupted.rounds_done(), resumed.rounds_done());
    }

    #[test]
    fn resumed_runs_average_only_the_rounds_they_timed() {
        let (mut first, _, _) = build_sim(RoundThreads::Fixed(1), 23);
        first.run(4);
        let json = serde_json::to_string(&first.capture_checkpoint()).unwrap();
        let back: SimulationCheckpoint = serde_json::from_str(&json).unwrap();
        let (mut resumed, _, _) = build_sim(RoundThreads::Fixed(1), 23);
        resumed.restore_checkpoint(&back).unwrap();

        let timed: Duration = (0..4).map(|_| resumed.run_round().elapsed).sum();
        assert_eq!(resumed.stats().rounds, 8);
        assert_eq!(resumed.stats().mean_round_time(), timed / 4);
    }

    #[test]
    fn checkpoint_restore_rejects_mismatches() {
        let (sim, _, _) = build_sim(RoundThreads::Fixed(1), 22);
        let mut ckpt = sim.capture_checkpoint();

        let (mut other, _, _) = build_sim(RoundThreads::Fixed(1), 22);
        ckpt.format += 1;
        assert!(other
            .restore_checkpoint(&ckpt)
            .unwrap_err()
            .contains("format"));
        ckpt.format -= 1;

        ckpt.clients.pop();
        let err = other.restore_checkpoint(&ckpt).unwrap_err();
        assert!(err.contains("clients"), "{err}");
    }

    #[test]
    #[should_panic(expected = "dense")]
    fn non_dense_ids_rejected() {
        let mut rng = StdRng::seed_from_u64(0);
        let full = synth::generate(&DatasetSpec::tiny(), &mut rng);
        let train = Arc::new(full);
        let model = GlobalModel::new(&ModelConfig::mf(4), train.n_items(), &mut rng);
        // Single client with id 5 — not dense.
        let clients: Vec<Box<dyn Client>> = vec![Box::new(BenignClient::new(5, train, 4, 0.1, 0))];
        Simulation::builder(model).clients(clients).build();
    }

    /// The dense partial Fisher–Yates the sparse sampler replaced: fill
    /// `(0..n)`, swap each of the first `k` slots with a later one.
    fn dense_sample(n: usize, k: usize, rng: &mut impl Rng) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..n).collect();
        for i in 0..k {
            let pick = rng.gen_range(i..n);
            idx.swap(i, pick);
        }
        idx.truncate(k);
        idx
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(128))]

        #[test]
        fn sparse_sampling_matches_dense(
            n in 1usize..3000,
            k_sel in proptest::any::<usize>(),
            seed in proptest::any::<u64>(),
            round in 0u64..1000,
        ) {
            let seeds = SeedStream::new(seed);
            for k in [1, n, 1 + k_sel % n] {
                let sparse = sample_distinct(n, k, &mut seeds.rng("server-sample", round));
                let dense = dense_sample(n, k, &mut seeds.rng("server-sample", round));
                proptest::prop_assert_eq!(sparse, dense);
            }
        }
    }
}
