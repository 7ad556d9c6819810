//! Paper-faithful scenario presets with scale-aware adjustments.
//!
//! The paper's protocol parameters are tied to dataset size (256 users
//! sampled per round on ML-100K/ML-1M, 1024 on AZ for MF). When a dataset is
//! scaled down for CI, the round batch must scale with it, otherwise every
//! client participates every round and both attack and defense dynamics
//! change character. This module centralizes those couplings so every
//! experiment binary builds identical baselines.
//!
//! Besides the three synthetic presets, [`PaperDataset::File`] points a
//! scenario at a *real* MovieLens dump (`u.data` / `ratings.dat`) loaded
//! through `frs_data::movielens` — `--dataset file:PATH` in the CLI. File
//! datasets run as-is: `--scale` shrinks neither the file nor the round
//! batch, and no poison-scale compensation applies.
//!
//! [`scale_scenario`] is the one other preset: the sampled million-client
//! cell `paper scale` runs and the `round/sampled_*` benches time.

use frs_attacks::AttackKind;
use frs_data::DatasetSpec;
use frs_defense::DefenseSel;
use frs_federation::ClientsPerRound;
use frs_model::ModelKind;
use serde::{Deserialize, Serialize};

use crate::scenario::ScenarioConfig;

/// Which dataset a scenario models: one of the paper's three synthetic
/// presets, or a real MovieLens-format file on disk.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PaperDataset {
    Ml100k,
    Ml1m,
    Az,
    /// A real MovieLens-format dump (`file:PATH` in the CLI). The file's
    /// SHA-256 joins the suite cache key, so cached cells can never go
    /// stale when the dump changes (see `crate::cache::scenario_key`).
    File(String),
}

impl PaperDataset {
    /// The synthetic paper datasets, in Table VIII order.
    pub fn all() -> [PaperDataset; 3] {
        [Self::Ml100k, Self::Ml1m, Self::Az]
    }

    /// The CLI name (`ml100k`, `ml1m`, `az`, or `file:PATH`).
    pub fn name(&self) -> String {
        match self {
            Self::Ml100k => "ml100k".into(),
            Self::Ml1m => "ml1m".into(),
            Self::Az => "az".into(),
            Self::File(path) => format!("file:{path}"),
        }
    }

    /// Parses the CLI name.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "ml100k" => Some(Self::Ml100k),
            "ml1m" => Some(Self::Ml1m),
            "az" => Some(Self::Az),
            _ => name
                .strip_prefix("file:")
                .filter(|path| !path.is_empty())
                .map(|path| Self::File(path.to_string())),
        }
    }

    /// The unscaled generator (or loader) spec.
    pub fn spec(&self) -> DatasetSpec {
        match self {
            Self::Ml100k => DatasetSpec::ml100k_like(),
            Self::Ml1m => DatasetSpec::ml1m_like(),
            Self::Az => DatasetSpec::az_like(),
            Self::File(path) => DatasetSpec::from_file(path.clone()),
        }
    }

    /// Clients sampled per round at full scale (paper Section VII-A2):
    /// 256 everywhere except 1024 for AZ under MF. File datasets follow the
    /// MovieLens protocol (256).
    pub fn clients_per_round(&self, kind: ModelKind) -> usize {
        match (self, kind) {
            (Self::Az, ModelKind::Mf) => 1024,
            _ => 256,
        }
    }

    /// True for file-backed datasets (which ignore `--scale`).
    pub fn is_file(&self) -> bool {
        matches!(self, Self::File(_))
    }
}

/// Builds the paper-faithful baseline scenario for (dataset, model) at the
/// given scale: the dataset shrinks shape-preservingly and the per-round user
/// batch shrinks proportionally (floored so rounds stay meaningful). File
/// datasets are used verbatim — no shrinking, no poison-scale compensation.
pub fn paper_scenario(
    dataset: PaperDataset,
    kind: ModelKind,
    scale: f64,
    seed: u64,
) -> ScenarioConfig {
    let shrink = scale < 1.0 && !dataset.is_file();
    let spec = if shrink {
        dataset.spec().scaled(scale)
    } else {
        dataset.spec()
    };
    let mut cfg = ScenarioConfig::baseline(spec, kind, seed);
    let full_batch = dataset.clients_per_round(kind);
    cfg.federation.clients_per_round = ClientsPerRound::Count(if shrink {
        (((full_batch as f64) * scale).round() as usize).max(16)
    } else {
        full_batch
    });
    // Benign per-example gradients carry a 1/|D_i| factor, so shrinking the
    // dataset by `scale` strengthens them by 1/scale relative to poison;
    // compensate to keep the attack/defense balance scale-invariant. Real
    // files never shrink, so they need no compensation.
    cfg.poison_scale = if shrink { (1.0 / scale) as f32 } else { 1.0 };
    cfg
}

/// `paper scale`'s cell over `n_users` registered clients: MF on the sparse
/// long-tail population ([`DatasetSpec::sparse`]) for three rounds,
/// PIECK-UEA at 0.1% malicious, `median:shards=8` and 1024 clients per
/// round. At the million mark that is ~1k boxed attackers; the lazy pool
/// keeps the other 99.9% as arena rows only.
pub fn scale_scenario(n_users: usize, seed: u64) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::baseline(DatasetSpec::sparse(n_users), ModelKind::Mf, seed);
    cfg.rounds = 3;
    cfg.attack = AttackKind::PieckUea.into();
    cfg.defense = DefenseSel::parse("median:shards=8").expect("builtin defense spec");
    cfg.malicious_ratio = 0.001;
    cfg.federation.clients_per_round = ClientsPerRound::Count(1024);
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_names() {
        assert_eq!(
            PaperDataset::from_name("ml100k"),
            Some(PaperDataset::Ml100k)
        );
        assert_eq!(PaperDataset::from_name("ml1m"), Some(PaperDataset::Ml1m));
        assert_eq!(PaperDataset::from_name("az"), Some(PaperDataset::Az));
        assert_eq!(PaperDataset::from_name("x"), None);
        assert_eq!(
            PaperDataset::from_name("file:data/u.data"),
            Some(PaperDataset::File("data/u.data".into()))
        );
        assert_eq!(PaperDataset::from_name("file:"), None);
    }

    #[test]
    fn names_round_trip() {
        for d in PaperDataset::all() {
            assert_eq!(PaperDataset::from_name(&d.name()), Some(d));
        }
        let f = PaperDataset::File("/tmp/u.data".into());
        assert_eq!(PaperDataset::from_name(&f.name()), Some(f));
    }

    #[test]
    fn az_mf_uses_large_batch() {
        assert_eq!(PaperDataset::Az.clients_per_round(ModelKind::Mf), 1024);
        assert_eq!(PaperDataset::Az.clients_per_round(ModelKind::Ncf), 256);
        assert_eq!(PaperDataset::Ml100k.clients_per_round(ModelKind::Mf), 256);
    }

    #[test]
    fn batch_scales_with_dataset() {
        let full = paper_scenario(PaperDataset::Ml100k, ModelKind::Mf, 1.0, 0);
        let quarter = paper_scenario(PaperDataset::Ml100k, ModelKind::Mf, 0.25, 0);
        assert_eq!(
            full.federation.clients_per_round,
            ClientsPerRound::Count(256)
        );
        assert_eq!(
            quarter.federation.clients_per_round,
            ClientsPerRound::Count(64)
        );
        assert!(quarter.dataset.n_users < full.dataset.n_users);
    }

    #[test]
    fn batch_floor_respected() {
        let tiny = paper_scenario(PaperDataset::Ml100k, ModelKind::Mf, 0.01, 0);
        assert_eq!(
            tiny.federation.clients_per_round,
            ClientsPerRound::Count(16)
        );
    }

    #[test]
    fn file_datasets_ignore_scale() {
        let dataset = PaperDataset::File("/tmp/whatever_u.data".into());
        let cfg = paper_scenario(dataset.clone(), ModelKind::Mf, 0.1, 0);
        assert_eq!(
            cfg.federation.clients_per_round,
            ClientsPerRound::Count(256)
        );
        assert_eq!(cfg.poison_scale, 1.0);
        assert_eq!(
            cfg.dataset.file_path(),
            Some("/tmp/whatever_u.data"),
            "spec carries the file source"
        );
        assert_eq!(cfg.dataset.name, "file:/tmp/whatever_u.data");
    }
}
