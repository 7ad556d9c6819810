//! PIECK attack configuration.

use serde::{Deserialize, Serialize};

use crate::ipe::IpeConfig;
use crate::uea::UeaConfig;

/// Which PIECK solution a malicious client runs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PieckVariant {
    /// PIECK-IPE (Algorithm 2): item-popularity enhancement.
    Ipe(IpeConfig),
    /// PIECK-UEA (Algorithm 3): user-embedding approximation.
    Uea(UeaConfig),
}

impl PieckVariant {
    /// Table label ("PIECK-IPE" / "PIECK-UEA").
    pub fn label(&self) -> &'static str {
        match self {
            PieckVariant::Ipe(_) => "PIECK-IPE",
            PieckVariant::Uea(_) => "PIECK-UEA",
        }
    }
}

/// How multiple target items are promoted (supplementary Table IX).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MultiTargetStrategy {
    /// Craft a separate poisonous gradient per target.
    TrainTogether,
    /// Optimize one target and upload `|T|` copies of its gradient — the
    /// paper's cheap, interference-free strategy (used in Section VI-G).
    TrainOneThenCopy,
}

/// Full configuration of a PIECK malicious client.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PieckConfig {
    /// `R̃`: mining transitions before attacking (paper default 2).
    pub mining_rounds: usize,
    /// `N`: mined popular-set size (10 for IPE, larger for UEA in the paper).
    pub top_n: usize,
    /// The attack solution and its parameters.
    pub variant: PieckVariant,
    /// Target items `T` to promote.
    pub targets: Vec<u32>,
    /// Multi-target handling.
    pub multi_target: MultiTargetStrategy,
}

impl PieckConfig {
    /// Paper-default IPE attack on the given targets.
    pub fn ipe(targets: Vec<u32>) -> Self {
        Self {
            mining_rounds: 2,
            top_n: 10,
            variant: PieckVariant::Ipe(IpeConfig::default()),
            targets,
            multi_target: MultiTargetStrategy::TrainOneThenCopy,
        }
    }

    /// Paper-default UEA attack on the given targets.
    pub fn uea(targets: Vec<u32>) -> Self {
        Self {
            mining_rounds: 2,
            top_n: 50,
            variant: PieckVariant::Uea(UeaConfig::default()),
            targets,
            multi_target: MultiTargetStrategy::TrainOneThenCopy,
        }
    }

    /// Sanity checks (run when a client is built).
    pub fn validate(&self) -> Result<(), String> {
        if self.mining_rounds == 0 {
            return Err("mining_rounds must be ≥ 1".into());
        }
        if self.top_n == 0 {
            return Err("top_n must be ≥ 1".into());
        }
        if self.targets.is_empty() {
            return Err("need at least one target item".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        assert!(PieckConfig::ipe(vec![3]).validate().is_ok());
        assert!(PieckConfig::uea(vec![3, 4]).validate().is_ok());
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut c = PieckConfig::ipe(vec![1]);
        c.targets.clear();
        assert!(c.validate().is_err());
        let mut c = PieckConfig::ipe(vec![1]);
        c.mining_rounds = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn labels() {
        assert_eq!(PieckConfig::ipe(vec![1]).variant.label(), "PIECK-IPE");
        assert_eq!(PieckConfig::uea(vec![1]).variant.label(), "PIECK-UEA");
    }
}
