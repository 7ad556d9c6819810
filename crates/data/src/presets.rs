//! Dataset specifications, including the three paper-scale presets.
//!
//! Table VIII of the paper:
//!
//! | Dataset  | Users  | Items  | Interactions | Rate | Sparsity |
//! |----------|--------|--------|--------------|------|----------|
//! | ML-100K  | 943    | 1,682  | 100,000      | 106  | 93.70%   |
//! | ML-1M    | 6,040  | 3,706  | 1,000,209    | 166  | 95.53%   |
//! | AZ       | 16,566 | 11,797 | 169,781      | 10   | 99.91%   |
//!
//! [`DatasetSpec::scaled`] shrinks a preset while preserving its shape
//! (density and Zipf exponent), which is what the CI-sized tests and benches
//! use. Zipf exponents are calibrated so the top-15% of items carry ≥50% of
//! interactions (Fig. 3).

use serde::{Deserialize, Serialize};

/// Where a [`DatasetSpec`]'s interactions come from: the synthetic Zipf
/// generator (`crate::synth`), or a real MovieLens-format dump on disk
/// loaded through `crate::movielens`.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DataSource {
    /// Generate synthetically from the spec's shape parameters.
    #[default]
    Synth,
    /// Load from a MovieLens-format file (`u.data` tab-separated or
    /// `ratings.dat` `::`-separated, chosen by extension). The shape
    /// parameters of the spec are placeholders; the file decides.
    File(String),
}

/// Parameters for the synthetic generator.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct DatasetSpec {
    /// Human-readable name (used in experiment reports).
    pub name: String,
    pub n_users: usize,
    pub n_items: usize,
    /// Target total interaction count. The generator hits this within the
    /// per-user minimum constraints.
    pub n_interactions: usize,
    /// Zipf exponent for *item* popularity; larger = heavier head.
    pub item_zipf_exponent: f64,
    /// Zipf exponent for *user* activity.
    pub user_zipf_exponent: f64,
    /// Every user gets at least this many interactions (≥ 2 keeps
    /// leave-one-out feasible while leaving a non-empty train set).
    pub min_interactions_per_user: usize,
    /// Interaction source: synthetic (the default) or a real file.
    pub source: DataSource,
}

impl DatasetSpec {
    /// ML-100K-like: dense interactions, moderate catalogue.
    pub fn ml100k_like() -> Self {
        Self {
            name: "ml100k-like".into(),
            n_users: 943,
            n_items: 1682,
            n_interactions: 100_000,
            item_zipf_exponent: 0.9,
            user_zipf_exponent: 0.6,
            min_interactions_per_user: 20,
            source: DataSource::Synth,
        }
    }

    /// ML-1M-like: the largest MovieLens preset.
    pub fn ml1m_like() -> Self {
        Self {
            name: "ml1m-like".into(),
            n_users: 6040,
            n_items: 3706,
            n_interactions: 1_000_209,
            item_zipf_exponent: 0.95,
            user_zipf_exponent: 0.65,
            min_interactions_per_user: 20,
            source: DataSource::Synth,
        }
    }

    /// Amazon-Digital-Music-like: very sparse, large catalogue, low rate.
    pub fn az_like() -> Self {
        Self {
            name: "az-like".into(),
            n_users: 16_566,
            n_items: 11_797,
            n_interactions: 169_781,
            item_zipf_exponent: 1.0,
            user_zipf_exponent: 0.4,
            min_interactions_per_user: 5,
            source: DataSource::Synth,
        }
    }

    /// A tiny spec for unit tests (fast to generate and train on).
    pub fn tiny() -> Self {
        Self {
            name: "tiny".into(),
            n_users: 60,
            n_items: 120,
            n_interactions: 1_500,
            item_zipf_exponent: 0.9,
            user_zipf_exponent: 0.5,
            min_interactions_per_user: 5,
            source: DataSource::Synth,
        }
    }

    /// `paper scale`'s population of `n_users`: a modest catalogue and three
    /// interactions per user, so the population, not the data volume, is
    /// what a million-client run exercises.
    pub fn sparse(n_users: usize) -> Self {
        Self {
            name: format!("scale-{n_users}"),
            n_users,
            n_items: 2000,
            n_interactions: n_users.saturating_mul(3),
            item_zipf_exponent: 0.9,
            user_zipf_exponent: 0.6,
            min_interactions_per_user: 2,
            source: DataSource::Synth,
        }
    }

    /// A spec backed by a real MovieLens-format file. The shape fields are
    /// placeholders (the file decides users/items/interactions) and
    /// [`DatasetSpec::scaled`] does not apply — real dumps are used as-is.
    pub fn from_file(path: impl Into<String>) -> Self {
        let path = path.into();
        Self {
            name: format!("file:{path}"),
            n_users: 0,
            n_items: 0,
            n_interactions: 0,
            item_zipf_exponent: 0.0,
            user_zipf_exponent: 0.0,
            min_interactions_per_user: 2,
            source: DataSource::File(path),
        }
    }

    /// The backing file path, when this spec is file-sourced.
    pub fn file_path(&self) -> Option<&str> {
        match &self.source {
            DataSource::Synth => None,
            DataSource::File(path) => Some(path),
        }
    }

    /// Shrinks users/items/interactions by `factor` (0 < factor ≤ 1) while
    /// keeping the distributional shape. Floors keep the result usable.
    pub fn scaled(&self, factor: f64) -> Self {
        assert!(
            factor > 0.0 && factor <= 1.0,
            "scale factor must be in (0, 1]"
        );
        let scale = |x: usize, floor: usize| ((x as f64 * factor).round() as usize).max(floor);
        Self {
            name: format!("{}@{factor:.2}", self.name),
            n_users: scale(self.n_users, 16),
            n_items: scale(self.n_items, 32),
            // Interactions shrink by factor² (both sides of the bipartite
            // graph shrink) to preserve per-user rate ≈ density balance.
            n_interactions: ((self.n_interactions as f64 * factor * factor).round() as usize)
                .max(16 * self.min_interactions_per_user),
            item_zipf_exponent: self.item_zipf_exponent,
            user_zipf_exponent: self.user_zipf_exponent,
            min_interactions_per_user: self.min_interactions_per_user.clamp(3, 8),
            source: self.source.clone(),
        }
    }

    /// Average interactions per user ("Rate" in Table VIII).
    pub fn rate(&self) -> f64 {
        self.n_interactions as f64 / self.n_users as f64
    }

    /// `1 − interactions/(users·items)` ("Sparsity" in Table VIII).
    pub fn sparsity(&self) -> f64 {
        1.0 - self.n_interactions as f64 / (self.n_users as f64 * self.n_items as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ml100k_matches_table_viii() {
        let s = DatasetSpec::ml100k_like();
        assert_eq!(s.n_users, 943);
        assert_eq!(s.n_items, 1682);
        assert_eq!(s.n_interactions, 100_000);
        assert!((s.rate() - 106.0).abs() < 1.0);
        assert!((s.sparsity() - 0.9370).abs() < 0.001);
    }

    #[test]
    fn ml1m_matches_table_viii() {
        let s = DatasetSpec::ml1m_like();
        assert!((s.rate() - 166.0).abs() < 1.0);
        assert!((s.sparsity() - 0.9553).abs() < 0.001);
    }

    #[test]
    fn az_matches_table_viii() {
        let s = DatasetSpec::az_like();
        assert!((s.rate() - 10.0).abs() < 0.5);
        assert!((s.sparsity() - 0.9991).abs() < 0.0005);
    }

    #[test]
    fn scaled_preserves_shape() {
        let full = DatasetSpec::ml100k_like();
        let half = full.scaled(0.5);
        assert!(half.n_users < full.n_users);
        assert!(half.n_items < full.n_items);
        // Rate should be roughly preserved (interactions shrink as factor²).
        assert!((half.rate() / full.rate() - 0.5).abs() < 0.2);
        assert_eq!(half.item_zipf_exponent, full.item_zipf_exponent);
    }

    #[test]
    fn scaled_has_floors() {
        let s = DatasetSpec::tiny().scaled(0.01);
        assert!(s.n_users >= 16);
        assert!(s.n_items >= 32);
        assert!(s.min_interactions_per_user >= 3);
    }

    #[test]
    #[should_panic(expected = "scale factor")]
    fn scaled_rejects_zero() {
        DatasetSpec::tiny().scaled(0.0);
    }

    #[test]
    fn file_specs_carry_their_source() {
        let s = DatasetSpec::from_file("x/u.data");
        assert_eq!(s.file_path(), Some("x/u.data"));
        assert_eq!(s.name, "file:x/u.data");
        assert!(DatasetSpec::tiny().file_path().is_none());
        // serde round-trips keep the source (the cache identity depends
        // on it).
        let v = serde::Serialize::to_value(&s);
        let back: DatasetSpec = serde::Deserialize::from_value(&v).unwrap();
        assert_eq!(back, s);
    }
}
