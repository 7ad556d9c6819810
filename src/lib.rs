//! # pieck-frs — umbrella crate
//!
//! Reproduction of *"Preventing the Popular Item Embedding Based Attack in
//! Federated Recommendations"* (ICDE 2024). This crate re-exports the whole
//! workspace behind one dependency so examples, integration tests, and
//! downstream users can `use pieck_frs::...` everything:
//!
//! - [`linalg`] — numeric primitives (vectors, softmax-KL, robust stats)
//! - [`data`] — synthetic long-tail datasets, splits, negative sampling
//! - [`model`] — MF-FRS and DL-FRS (NeuMF-style NCF) with manual gradients
//! - [`metrics`] — ER@K, HR@K, Δ-Norm, PKL/UCR
//! - [`federation`] — the FL protocol: clients, server, aggregation hook
//! - [`pieck`] — the paper's contribution: mining, IPE, UEA, and the defense
//! - [`attacks`] — baselines: FedRecAttack, PipAttack, A-RA, A-HUM
//! - [`defense`] — robust aggregators: NormBound, Median, TrimmedMean, Krum…
//! - [`serve`] — the top-K recommendation daemon behind `paper serve`
//! - [`experiments`] — the table/figure reproduction harness
//!
//! See `README.md` for a quickstart, the `paper` CLI that reproduces each
//! table and figure, and the measured performance of each layer.

pub use frs_attacks as attacks;
pub use frs_data as data;
pub use frs_defense as defense;
pub use frs_experiments as experiments;
pub use frs_federation as federation;
pub use frs_linalg as linalg;
pub use frs_metrics as metrics;
pub use frs_model as model;
pub use frs_serve as serve;
pub use pieck_core as pieck;
