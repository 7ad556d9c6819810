//! The PIECK malicious client (Algorithms 2 and 3 wired into the federation).
//!
//! Behaviour per round the client is sampled:
//!
//! 1. While mining is incomplete (`r̃ ≤ R̃+1`), feed the received model to the
//!    miner and upload nothing — indistinguishable from a user with no data.
//! 2. Once the popular set `P` is frozen, craft poisonous gradients for the
//!    target items with the configured variant and upload them. Under
//!    `TrainOneThenCopy`, one gradient is computed (for the first target) and
//!    uploaded for every target id.

use frs_model::{GlobalGradients, GlobalModel};

use frs_federation::{Client, RoundContext};

use crate::config::PieckConfig;
pub use crate::config::{MultiTargetStrategy, PieckVariant};
use crate::ipe::ipe_gradient;
use crate::mining::PopularItemMiner;
use crate::uea::uea_poison_gradient;

/// A malicious federation participant running PIECK.
pub struct PieckClient {
    id: usize,
    config: PieckConfig,
    miner: PopularItemMiner,
}

impl PieckClient {
    /// Builds the client; panics on invalid configuration (attacks are
    /// constructed programmatically by the experiment harness).
    pub fn new(id: usize, config: PieckConfig) -> Self {
        config.validate().expect("invalid PIECK config");
        let miner = PopularItemMiner::new(config.mining_rounds, config.top_n);
        Self { id, config, miner }
    }

    /// The mined popular set, once available (tests/diagnostics).
    pub fn mined_popular(&self) -> Option<&[u32]> {
        self.miner.mined()
    }

    /// The attack configuration.
    pub fn config(&self) -> &PieckConfig {
        &self.config
    }

    /// Crafts the poisonous gradient for one target item.
    fn poison_for_target(
        &self,
        model: &GlobalModel,
        popular: &[u32],
        target: u32,
        server_lr: f32,
    ) -> Vec<f32> {
        match &self.config.variant {
            PieckVariant::Ipe(ipe_cfg) => {
                let popular_embs: Vec<&[f32]> = popular
                    .iter()
                    .filter(|&&k| k != target)
                    .map(|&k| model.item_embedding(k))
                    .collect();
                ipe_gradient(ipe_cfg, &popular_embs, model.item_embedding(target))
            }
            PieckVariant::Uea(uea_cfg) => {
                let filtered: Vec<u32> = popular.iter().copied().filter(|&k| k != target).collect();
                uea_poison_gradient(uea_cfg, model, &filtered, target, server_lr)
            }
        }
    }
}

impl Client for PieckClient {
    fn id(&self) -> usize {
        self.id
    }

    fn is_malicious(&self) -> bool {
        true
    }

    fn local_round(&mut self, ctx: &RoundContext, model: &GlobalModel) -> GlobalGradients {
        let mut upload = GlobalGradients::new();
        if !self.miner.observe(model) {
            return upload; // still mining
        }
        let popular = self.miner.mined().expect("mining complete").to_vec();

        match self.config.multi_target {
            MultiTargetStrategy::TrainTogether => {
                for &target in &self.config.targets {
                    let g = self.poison_for_target(model, &popular, target, ctx.server_lr);
                    upload.add_item_grad(target, &g);
                }
            }
            MultiTargetStrategy::TrainOneThenCopy => {
                let first = self.config.targets[0];
                let g = self.poison_for_target(model, &popular, first, ctx.server_lr);
                for &target in &self.config.targets {
                    upload.add_item_grad(target, &g);
                }
            }
        }
        upload
    }

    fn checkpoint_state(&self) -> serde::Value {
        self.miner.checkpoint_state()
    }

    fn restore_state(&mut self, state: &serde::Value) -> Result<(), String> {
        self.miner.restore_state(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use frs_linalg::SeedStream;
    use frs_model::{LossKind, ModelConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn model() -> GlobalModel {
        GlobalModel::new(&ModelConfig::mf(6), 20, &mut StdRng::seed_from_u64(4))
    }

    fn ctx(round: usize) -> RoundContext {
        RoundContext::new(round, 1.0, 1.0, 1, LossKind::Bce, SeedStream::new(1))
    }

    /// Drives the miner to completion by feeding perturbed models.
    fn complete_mining(client: &mut PieckClient, model: &mut GlobalModel) {
        for r in 0..3 {
            let upload = client.local_round(&ctx(r), model);
            if client.mined_popular().is_none() {
                assert!(upload.is_empty(), "must stay silent while mining");
            }
            // Perturb "popular" items 0..5 so mining has signal.
            let mut g = GlobalGradients::new();
            for j in 0..5u32 {
                g.add_item_grad(j, &[0.5; 6]);
            }
            model.apply_gradients(&g, 1.0);
        }
        assert!(client.mined_popular().is_some());
    }

    #[test]
    fn silent_during_mining_then_attacks() {
        let mut m = model();
        let mut client = PieckClient::new(100, PieckConfig::ipe(vec![15]));
        complete_mining(&mut client, &mut m);
        let upload = client.local_round(&ctx(10), &m);
        assert_eq!(upload.n_items(), 1);
        assert!(upload.get(15).is_some());
        assert!(upload.mlp.is_none(), "PIECK never touches the MLP");
    }

    #[test]
    fn mined_set_contains_perturbed_items() {
        let mut m = model();
        let mut client = PieckClient::new(100, PieckConfig::ipe(vec![15]));
        complete_mining(&mut client, &mut m);
        let mined = client.mined_popular().unwrap();
        // The five shifted items dominate Δ-Norm.
        for j in 0..5u32 {
            assert!(mined.contains(&j), "{j} missing from {mined:?}");
        }
    }

    #[test]
    fn uea_poison_raises_target_score_for_popular_pseudo_users() {
        let mut m = model();
        let mut client = PieckClient::new(100, PieckConfig::uea(vec![15]));
        complete_mining(&mut client, &mut m);
        let popular = client.mined_popular().unwrap().to_vec();
        let score_before: f32 = popular
            .iter()
            .map(|&k| m.logit(m.item_embedding(k), 15))
            .sum();
        let upload = client.local_round(&ctx(10), &m);
        m.apply_gradients(&upload, 1.0);
        let score_after: f32 = popular
            .iter()
            .map(|&k| m.logit(m.item_embedding(k), 15))
            .sum();
        assert!(
            score_after > score_before,
            "poison must raise pseudo-user scores: {score_before} -> {score_after}"
        );
    }

    #[test]
    fn train_one_then_copy_duplicates_gradient() {
        let mut m = model();
        let mut cfg = PieckConfig::ipe(vec![15, 16, 17]);
        cfg.multi_target = MultiTargetStrategy::TrainOneThenCopy;
        let mut client = PieckClient::new(100, cfg);
        complete_mining(&mut client, &mut m);
        let upload = client.local_round(&ctx(10), &m);
        assert_eq!(upload.n_items(), 3);
        assert_eq!(upload.get(15).unwrap(), upload.get(16).unwrap());
        assert_eq!(upload.get(16).unwrap(), upload.get(17).unwrap());
    }

    #[test]
    fn train_together_differs_per_target() {
        let mut m = model();
        let mut cfg = PieckConfig::ipe(vec![15, 16]);
        cfg.multi_target = MultiTargetStrategy::TrainTogether;
        let mut client = PieckClient::new(100, cfg);
        complete_mining(&mut client, &mut m);
        let upload = client.local_round(&ctx(10), &m);
        assert_eq!(upload.n_items(), 2);
        assert_ne!(
            upload.get(15).unwrap(),
            upload.get(16).unwrap(),
            "independent targets get independent gradients"
        );
    }

    #[test]
    fn target_excluded_from_its_own_popular_set() {
        // If the target itself gets mined (possible under heavy poisoning),
        // it must not be used as its own alignment anchor / pseudo-user.
        let mut m = model();
        let mut client = PieckClient::new(100, PieckConfig::ipe(vec![2]));
        // Shift items 0..5 including target 2.
        complete_mining(&mut client, &mut m);
        assert!(client.mined_popular().unwrap().contains(&2));
        let upload = client.local_round(&ctx(10), &m);
        let g = upload.get(2).unwrap();
        assert!(g.iter().all(|v| v.is_finite()));
    }
}
