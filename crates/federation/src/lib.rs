//! The federated-recommendation training protocol (paper Section III-A).
//!
//! One [`Simulation`] owns the global model, a population of [`Client`]s
//! (benign and malicious), and a pluggable [`Aggregator`] — the defense hook.
//! Each communication round:
//!
//! 1. the server samples a batch `U^r` of clients and ships them the current
//!    global model;
//! 2. each sampled client trains locally (BCE/BPR over its positives plus
//!    freshly sampled negatives), updates its *private* user embedding, and
//!    uploads sparse item gradients (plus MLP gradients for DL-FRS) — or, for
//!    a malicious client, whatever poison its attack strategy crafts;
//! 3. the server aggregates the uploads per item (and per MLP parameter)
//!    through the `Aggregator` and applies `θ ← θ − η·Agg(∇)`.
//!
//! Everything is deterministic given the configuration seed; client work
//! within a round can fan out over threads without affecting results
//! (uploads are re-ordered by client id before aggregation). The fan-out
//! width is either frozen in the config ([`config::RoundThreads::Fixed`]) or
//! leased per round from a shared [`CoreBudget`]
//! ([`config::RoundThreads::Auto`]), so a simulation can widen mid-run as
//! sibling workloads on the same machine finish.
// Federation state is indexed at the million-client scale PR 7 opened:
// a silently truncating cast is a corrupted round, so truncation must be
// explicit (`try_from`) or locally allowed with a range proof.
#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]

pub mod aggregate;
pub mod budget;
pub mod checkpoint;
pub mod client;
pub mod config;
pub mod context;
pub mod params;
pub mod pool;
pub mod population;
pub mod registry;
pub mod server;
pub mod stats;
pub mod wire;

pub use aggregate::{
    gather_mlp_gradients, item_index, sum_uploads, upload_distance_matrix, upload_norm,
    upload_squared_distance, upload_view, Aggregator, ShardedAggregator, SumAggregator,
};
pub use budget::{CoreBudget, CoreLease};
pub use checkpoint::{SimulationCheckpoint, CHECKPOINT_FORMAT_VERSION};
pub use client::{BenignClient, Client, LocalRegularizer};
pub use config::{ClientsPerRound, FederationConfig, RoundThreads};
pub use context::RoundContext;
pub use params::{ParamSpec, ParamValue, Params};
pub use population::{ClientPool, LazyClientPool, RegularizerFactory};
pub use registry::{Catalog, Selection};
pub use server::{Simulation, SimulationBuilder};
pub use stats::{RoundStats, TrainingStats};
