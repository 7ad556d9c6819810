//! Synthetic long-tail recommendation datasets.
//!
//! The paper evaluates on MovieLens-100K, MovieLens-1M and Amazon Digital
//! Music. Those downloads are not available here, so this crate generates
//! *synthetic equivalents*: implicit-feedback datasets whose item-popularity
//! distribution is Zipf-shaped and calibrated to the paper's Fig. 3 property —
//! the top 15% of items carry more than 50% of all interactions — and whose
//! user/item/interaction counts match Table VIII. Every mechanism the paper
//! analyses (Δ-Norm mining, popularity bias, user-embedding closeness, the
//! p_j probabilities of Eq. 11–13) depends only on this distributional shape,
//! which is what the generator reproduces.
//!
//! Layout:
//! - [`dataset`]: the immutable interaction store ([`Dataset`]) in per-user
//!   sorted adjacency form, with popularity counts and membership queries.
//! - [`popularity`]: Zipf weights and weighted sampling without replacement.
//! - [`synth`]: the generator ([`synth::generate`]) driven by a [`DatasetSpec`].
//! - [`split`]: leave-one-out train/test splitting (paper Section VII-A1).
//! - [`sampling`]: per-round negative sampling at ratio `q` (Section III-A).
//! - [`presets`]: the three paper-scale specs plus scaled-down CI variants.
//! - [`stats`]: Table VIII / Fig. 3 style dataset statistics.

pub mod dataset;
pub mod movielens;
pub mod popularity;
pub mod presets;
pub mod sampling;
pub mod split;
pub mod stats;
pub mod synth;

pub use dataset::Dataset;
pub use movielens::{load_path as load_movielens, LoadOptions};
pub use presets::{DataSource, DatasetSpec};
pub use sampling::NegativeSampler;
pub use split::{leave_one_out, TrainTestSplit};
pub use stats::DatasetStats;
