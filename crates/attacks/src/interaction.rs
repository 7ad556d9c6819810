//! A-RA and A-HUM \[31\]: interaction-function poisoning.
//!
//! Both attacks synthesize user embeddings (no prior knowledge) and derive
//! gradients that raise the targets' scores for those synthetic users —
//! crucially *including the learnable interaction parameters* of DL-FRS,
//! which is where their power comes from. On MF-FRS the interaction function
//! is a fixed dot product, there is nothing to poison beyond the item
//! embedding, and random synthetic users average out: A-RA is inert there
//! (Table III ≈ 0) while A-HUM's *hard-user mining* recovers some signal.

use frs_linalg::{sigmoid, vector};
use frs_model::{GlobalGradients, GlobalModel};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use frs_federation::{Client, RoundContext};

use crate::approx::{hard_user_mining, random_user_embeddings};

/// Shared implementation: A-RA is `hard_mining_steps == 0`, A-HUM > 0.
struct InteractionAttack {
    id: usize,
    targets: Vec<u32>,
    n_synthetic_users: usize,
    hard_mining_steps: usize,
    hard_mining_lr: f32,
    seed: u64,
    round_counter: u64,
    /// A-HUM mines its hard users once and keeps promoting toward that fixed
    /// audience; re-mining every round would make the poison direction chase
    /// its own tail (the hard users move away as the target approaches them).
    persistent_users: Option<Vec<Vec<f32>>>,
}

impl InteractionAttack {
    fn poison(&mut self, model: &GlobalModel) -> GlobalGradients {
        let mut users = match (&self.persistent_users, self.hard_mining_steps) {
            // A-HUM after first mining: reuse the frozen hard users.
            (Some(u), _) => u.clone(),
            // First round, or A-RA (which re-randomizes every round).
            _ => {
                let mut rng = StdRng::seed_from_u64(self.seed ^ self.round_counter);
                random_user_embeddings(self.n_synthetic_users, model.dim(), 0.1, &mut rng)
            }
        };
        self.round_counter = self.round_counter.wrapping_add(1);

        let mut upload = GlobalGradients::new();
        let scale = 1.0 / users.len() as f32;
        let needs_mining = self.hard_mining_steps > 0 && self.persistent_users.is_none();
        for &target in &self.targets {
            if needs_mining {
                hard_user_mining(
                    model,
                    &mut users,
                    target,
                    self.hard_mining_steps,
                    self.hard_mining_lr,
                );
            }
            let mut item_grad = vec![0.0f32; model.dim()];
            for user in &users {
                let (logit, cache) = model.forward(user, target);
                let delta = (sigmoid(logit) - 1.0) * scale;
                // Backward accumulates: item gradient + (DL only) MLP
                // parameter gradients — the interaction-function poison.
                let mut d_user_scratch = vec![0.0f32; model.dim()];
                let mut per_user = GlobalGradients::new();
                model.backward(
                    user,
                    target,
                    &cache,
                    delta,
                    &mut d_user_scratch,
                    &mut per_user,
                );
                if let Some(g) = per_user.get(target) {
                    vector::add_assign(&mut item_grad, g);
                }
                if let Some(mlp) = per_user.mlp {
                    match &mut upload.mlp {
                        Some(acc) => acc.axpy(1.0, &mlp),
                        None => upload.mlp = Some(mlp),
                    }
                }
            }
            upload.add_item_grad(target, &item_grad);
        }
        if needs_mining {
            self.persistent_users = Some(users);
        }
        upload
    }

    fn checkpoint_state(&self) -> serde::Value {
        InteractionState {
            round_counter: self.round_counter,
            persistent_users: self.persistent_users.clone(),
        }
        .to_value()
    }

    fn restore_state(&mut self, state: &serde::Value) -> Result<(), String> {
        let state = InteractionState::from_value(state).map_err(|e| e.to_string())?;
        self.round_counter = state.round_counter;
        self.persistent_users = state.persistent_users;
        Ok(())
    }
}

/// Serialized mutable state of an [`InteractionAttack`]: the per-round RNG
/// offset plus A-HUM's frozen hard-user audience.
#[derive(Serialize, Deserialize)]
struct InteractionState {
    round_counter: u64,
    persistent_users: Option<Vec<Vec<f32>>>,
}

/// A-RA: random user approximation (interaction-function poisoning).
pub struct ARaClient {
    inner: InteractionAttack,
}

impl ARaClient {
    /// Builds an A-RA malicious client.
    pub fn new(id: usize, targets: Vec<u32>, n_synthetic_users: usize, seed: u64) -> Self {
        assert!(!targets.is_empty(), "need targets");
        Self {
            inner: InteractionAttack {
                id,
                targets,
                n_synthetic_users: n_synthetic_users.max(1),
                hard_mining_steps: 0,
                hard_mining_lr: 0.0,
                seed,
                round_counter: 0,
                persistent_users: None,
            },
        }
    }
}

impl Client for ARaClient {
    fn id(&self) -> usize {
        self.inner.id
    }

    fn is_malicious(&self) -> bool {
        true
    }

    fn local_round(&mut self, _ctx: &RoundContext, model: &GlobalModel) -> GlobalGradients {
        self.inner.poison(model)
    }

    fn checkpoint_state(&self) -> serde::Value {
        self.inner.checkpoint_state()
    }

    fn restore_state(&mut self, state: &serde::Value) -> Result<(), String> {
        self.inner.restore_state(state)
    }
}

/// A-HUM: A-RA plus hard-user mining.
pub struct AHumClient {
    inner: InteractionAttack,
}

impl AHumClient {
    /// Builds an A-HUM malicious client (`mining_steps` hard-user descent
    /// steps per round, 10 by default in the paper's implementation).
    pub fn new(
        id: usize,
        targets: Vec<u32>,
        n_synthetic_users: usize,
        mining_steps: usize,
        seed: u64,
    ) -> Self {
        assert!(!targets.is_empty(), "need targets");
        assert!(
            mining_steps > 0,
            "A-HUM needs mining steps; use ARaClient otherwise"
        );
        Self {
            inner: InteractionAttack {
                id,
                targets,
                n_synthetic_users: n_synthetic_users.max(1),
                hard_mining_steps: mining_steps,
                hard_mining_lr: 0.2,
                seed,
                round_counter: 0,
                persistent_users: None,
            },
        }
    }
}

impl Client for AHumClient {
    fn id(&self) -> usize {
        self.inner.id
    }

    fn is_malicious(&self) -> bool {
        true
    }

    fn local_round(&mut self, _ctx: &RoundContext, model: &GlobalModel) -> GlobalGradients {
        self.inner.poison(model)
    }

    fn checkpoint_state(&self) -> serde::Value {
        self.inner.checkpoint_state()
    }

    fn restore_state(&mut self, state: &serde::Value) -> Result<(), String> {
        self.inner.restore_state(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use frs_linalg::SeedStream;
    use frs_model::{LossKind, ModelConfig, ModelKind};

    fn models() -> Vec<GlobalModel> {
        let mut rng = StdRng::seed_from_u64(12);
        vec![
            GlobalModel::new(&ModelConfig::mf(6), 10, &mut rng),
            GlobalModel::new(&ModelConfig::ncf(6), 10, &mut rng),
        ]
    }

    fn ctx() -> RoundContext {
        RoundContext::new(0, 1.0, 1.0, 1, LossKind::Bce, SeedStream::new(0))
    }

    #[test]
    fn ara_uploads_mlp_grads_only_on_dl() {
        for m in models() {
            let mut atk = ARaClient::new(70, vec![4], 8, 1);
            let g = atk.local_round(&ctx(), &m);
            match m.kind() {
                ModelKind::Mf => assert!(g.mlp.is_none()),
                ModelKind::Ncf => assert!(g.mlp.is_some()),
            }
            assert!(g.get(4).is_some());
        }
    }

    #[test]
    fn ahum_poison_raises_hard_user_scores_on_dl() {
        let mut m = models().remove(1);
        let mut atk = AHumClient::new(70, vec![4], 8, 5, 1);
        let mut rng = StdRng::seed_from_u64(99);
        let probes = random_user_embeddings(16, 6, 0.1, &mut rng);
        let mean_for = |m: &GlobalModel, item: u32| -> f32 {
            probes.iter().map(|u| m.logit(u, item)).sum::<f32>() / probes.len() as f32
        };
        let others = [0u32, 5, 7, 9];
        let before_gap = mean_for(&m, 4)
            - others.iter().map(|&j| mean_for(&m, j)).sum::<f32>() / others.len() as f32;
        // Apply many rounds of poison (DL interaction poisoning compounds).
        for _ in 0..60 {
            let g = atk.local_round(&ctx(), &m);
            m.apply_gradients(&g, 0.2);
        }
        // After poisoning, even freshly drawn random users score the target
        // above other items — the model is corrupted target-specifically.
        let after_gap = mean_for(&m, 4)
            - others.iter().map(|&j| mean_for(&m, j)).sum::<f32>() / others.len() as f32;
        assert!(
            after_gap > before_gap && after_gap > 0.0,
            "target/non-target gap should open: {before_gap} -> {after_gap}"
        );
    }

    #[test]
    fn ara_item_gradient_small_on_mf() {
        // Random users nearly cancel: the MF item gradient is much smaller
        // than what a single aligned user would produce.
        let m = &models()[0];
        let mut atk = ARaClient::new(70, vec![4], 64, 2);
        let g = atk.local_round(&ctx(), m);
        let norm = frs_linalg::l2_norm(g.get(4).unwrap());
        // A single aligned user of scale 0.1 would give ‖g‖ ≈ 0.5·0.1·√6 ≈ 0.12.
        assert!(norm < 0.08, "random users should mostly cancel: {norm}");
    }

    #[test]
    fn attacks_are_marked_malicious() {
        let ara = ARaClient::new(1, vec![0], 2, 0);
        let ahum = AHumClient::new(2, vec![0], 2, 3, 0);
        assert!(ara.is_malicious() && ahum.is_malicious());
        assert_eq!(ara.id(), 1);
        assert_eq!(ahum.id(), 2);
    }

    #[test]
    #[should_panic(expected = "mining steps")]
    fn ahum_requires_mining_steps() {
        AHumClient::new(2, vec![0], 2, 0, 0);
    }
}
