//! Evaluation metrics for attacks, defenses, and recommendation quality.
//!
//! - [`exposure`]: **ER@K** (Eq. 3) — the attack-success measure: the fraction
//!   of benign users whose top-K lists contain a target item.
//! - [`hit_ratio`]: **HR@K** — recommendation quality under the leave-one-out
//!   protocol, plus NDCG@K as a secondary quality measure.
//! - [`delta_norm`]: the **Δ-Norm** tracker (Eq. 7) used for Fig. 4 and by
//!   Algorithm 1's validation.
//! - [`distribution`]: **PKL** (Eq. 9) and **UCR** — the Table II measures
//!   behind the user-embedding-approximation insight.

pub mod delta_norm;
pub mod distribution;
pub mod exposure;
pub mod hit_ratio;
pub mod popularity_bias;
mod probe;

pub use delta_norm::DeltaNormTracker;
pub use distribution::{covered_users, pairwise_kl, user_coverage_ratio};
pub use exposure::ExposureReport;
pub use hit_ratio::{hit_ratio_at_k, QualityReport};
pub use popularity_bias::{
    average_recommended_popularity, catalogue_coverage, gini_coefficient, recommendation_frequency,
};
