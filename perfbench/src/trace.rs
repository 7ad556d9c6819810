//! Timing decorators for the public extension traits (`Aggregator`,
//! attacker `Client`, `LocalRegularizer`), and the traced assembly of a
//! simulation through the public construction hooks. Nothing here changes
//! what the wrapped objects compute: the traced run checks that it ends on
//! the untraced run's state digest.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use frs_data::Dataset;
use frs_experiments::ScenarioConfig;
use frs_federation::{
    Aggregator, Client, ClientPool, LazyClientPool, LocalRegularizer, RegularizerFactory,
    RoundContext, Simulation,
};
use frs_model::{GlobalGradients, GlobalModel};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::host::now;

/// Busy time and call count of one layer, summed over threads. The
/// counters publish nothing but themselves, and are read after the round
/// pool has joined, so relaxed ordering suffices.
#[derive(Debug, Default)]
pub struct Meter {
    nanos: AtomicU64,
    calls: AtomicU64,
}

impl Meter {
    fn record(&self, elapsed: Duration, calls: u64) {
        let nanos = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        self.nanos.fetch_add(nanos, Ordering::Relaxed);
        self.calls.fetch_add(calls, Ordering::Relaxed);
    }

    /// Returns and resets `(busy time, calls)`.
    pub fn take(&self) -> (Duration, u64) {
        let nanos = self.nanos.swap(0, Ordering::Relaxed);
        (
            Duration::from_nanos(nanos),
            self.calls.swap(0, Ordering::Relaxed),
        )
    }
}

/// The meters one traced simulation reports into.
#[derive(Debug, Default)]
pub struct Meters {
    pub aggregate: Meter,
    /// Uploads handed to the aggregator.
    pub uploads: AtomicU64,
    pub attack: Meter,
    pub regularizer: Meter,
}

impl Meters {
    /// Zeroes every meter (between phases of one run).
    pub fn reset(&self) {
        let _ = (
            self.aggregate.take(),
            self.attack.take(),
            self.regularizer.take(),
        );
        self.uploads.store(0, Ordering::Relaxed);
    }
}

struct TimedAggregator {
    inner: Box<dyn Aggregator>,
    meters: Arc<Meters>,
}

impl Aggregator for TimedAggregator {
    fn aggregate(&self, uploads: &[GlobalGradients]) -> GlobalGradients {
        let start = now();
        let out = self.inner.aggregate(uploads);
        self.meters.aggregate.record(start.elapsed(), 1);
        self.meters
            .uploads
            .fetch_add(uploads.len() as u64, Ordering::Relaxed);
        out
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn checkpoint_state(&self) -> serde::Value {
        self.inner.checkpoint_state()
    }

    fn restore_state(&mut self, state: &serde::Value) -> Result<(), String> {
        self.inner.restore_state(state)
    }
}

struct TimedClient {
    inner: Box<dyn Client>,
    meters: Arc<Meters>,
}

impl Client for TimedClient {
    fn id(&self) -> usize {
        self.inner.id()
    }

    fn is_malicious(&self) -> bool {
        self.inner.is_malicious()
    }

    fn local_round(&mut self, ctx: &RoundContext, model: &GlobalModel) -> GlobalGradients {
        let start = now();
        let out = self.inner.local_round(ctx, model);
        self.meters.attack.record(start.elapsed(), 1);
        out
    }

    fn user_embedding(&self) -> Option<&[f32]> {
        self.inner.user_embedding()
    }

    fn checkpoint_state(&self) -> serde::Value {
        self.inner.checkpoint_state()
    }

    fn restore_state(&mut self, state: &serde::Value) -> Result<(), String> {
        self.inner.restore_state(state)
    }
}

struct TimedRegularizer {
    inner: Box<dyn LocalRegularizer>,
    meters: Arc<Meters>,
}

impl LocalRegularizer for TimedRegularizer {
    fn observe(&mut self, ctx: &RoundContext, model: &GlobalModel) {
        let start = now();
        self.inner.observe(ctx, model);
        self.meters.regularizer.record(start.elapsed(), 0);
    }

    fn apply(
        &mut self,
        ctx: &RoundContext,
        model: &GlobalModel,
        user_embedding: &[f32],
        local_items: &[u32],
        grads: &mut GlobalGradients,
        d_user: &mut [f32],
    ) {
        let start = now();
        self.inner
            .apply(ctx, model, user_embedding, local_items, grads, d_user);
        self.meters.regularizer.record(start.elapsed(), 1);
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn checkpoint_state(&self) -> serde::Value {
        self.inner.checkpoint_state()
    }

    fn restore_state(&mut self, state: &serde::Value) -> Result<(), String> {
        self.inner.restore_state(state)
    }
}

/// Assembles the same simulation as
/// `frs_experiments::scenario::build_simulation`, from the same public
/// parts and seeds, with the defense's aggregator and regularizers and the
/// attacker clients wrapped in timing decorators.
pub fn build_traced_simulation(
    cfg: &ScenarioConfig,
    train: Arc<Dataset>,
    targets: &[u32],
    meters: &Arc<Meters>,
) -> Simulation {
    let mut rng = StdRng::seed_from_u64(cfg.federation.seed ^ 0x0DE1);
    let model = GlobalModel::new(&cfg.model, train.n_items(), &mut rng);
    let n_benign = train.n_users();
    let defense = cfg.defense.build(&cfg.defense_ctx());
    let malicious: Vec<Box<dyn Client>> = cfg
        .attack
        .build_clients(&cfg.attack_ctx(n_benign, cfg.n_malicious(n_benign), targets))
        .into_iter()
        .map(|inner| {
            Box::new(TimedClient {
                inner,
                meters: Arc::clone(meters),
            }) as Box<dyn Client>
        })
        .collect();
    let regularizers: Option<RegularizerFactory> = defense.regularizer_factory.map(|factory| {
        let meters = Arc::clone(meters);
        Box::new(move |user: usize| {
            Box::new(TimedRegularizer {
                inner: factory(user),
                meters: Arc::clone(&meters),
            }) as Box<dyn LocalRegularizer>
        }) as RegularizerFactory
    });
    let seed = cfg.federation.seed;
    let pool = LazyClientPool::new(
        n_benign,
        train,
        cfg.model.embedding_dim,
        cfg.model.init_scale,
        move |u| seed ^ ((u as u64) << 16) ^ 0xBE9,
        regularizers,
        malicious,
    );
    Simulation::builder(model)
        .pool(ClientPool::Lazy(pool))
        .aggregator(Box::new(TimedAggregator {
            inner: defense.aggregator,
            meters: Arc::clone(meters),
        }))
        .config(cfg.federation.clone())
        .build()
}
