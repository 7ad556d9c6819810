//! FedRecAttack \[32\]: user-embedding approximation from *public* interactions.
//!
//! The original attack assumes a small public fraction of benign users'
//! histories; it fits approximate user embeddings to those interactions
//! against the current global model and derives poisonous target gradients
//! from Eq. (5). When the public interactions are masked (`None`, the paper's
//! fair-comparison setting) the approximations never see a training signal,
//! stay at their random init, and the attack collapses — the Table III rows
//! where FedRecAttack scores ≈ 0.

use frs_linalg::{sigmoid, vector};
use frs_model::{GlobalGradients, GlobalModel};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use frs_federation::{Client, RoundContext};

use crate::approx::{fit_users_to_interactions, random_user_embeddings};

/// Configuration + state of one FedRecAttack malicious client.
pub struct FedRecAttack {
    id: usize,
    targets: Vec<u32>,
    /// Public (user-index, item) pairs the attacker was granted. `None` =
    /// masked (default in all paper tables).
    public_interactions: Option<Vec<(usize, u32)>>,
    /// Approximated benign-user embeddings (lazily initialized to match the
    /// model dimension on first round).
    approx_users: Vec<Vec<f32>>,
    n_approx_users: usize,
    fit_lr: f32,
    seed: u64,
}

impl FedRecAttack {
    /// Builds the attack. `public_interactions` uses *approximation-slot*
    /// user indices in `0..n_approx_users`.
    pub fn new(
        id: usize,
        targets: Vec<u32>,
        n_approx_users: usize,
        public_interactions: Option<Vec<(usize, u32)>>,
        seed: u64,
    ) -> Self {
        assert!(!targets.is_empty(), "need targets");
        assert!(n_approx_users > 0, "need at least one approximated user");
        if let Some(ints) = &public_interactions {
            assert!(
                ints.iter().all(|&(u, _)| u < n_approx_users),
                "interaction user index out of range"
            );
        }
        Self {
            id,
            targets,
            public_interactions,
            approx_users: Vec::new(),
            n_approx_users,
            fit_lr: 0.5,
            seed,
        }
    }

    /// Whether prior knowledge is available (unmasked variant).
    pub fn has_prior_knowledge(&self) -> bool {
        self.public_interactions
            .as_ref()
            .is_some_and(|v| !v.is_empty())
    }
}

impl Client for FedRecAttack {
    fn id(&self) -> usize {
        self.id
    }

    fn is_malicious(&self) -> bool {
        true
    }

    fn local_round(&mut self, _ctx: &RoundContext, model: &GlobalModel) -> GlobalGradients {
        // Masked prior knowledge (the paper's protocol): the approximation
        // module has nothing to fit and the attack never fires — FedRecAttack
        // degenerates to NoAttack, exactly the Table III rows.
        if !self.has_prior_knowledge() {
            return GlobalGradients::new();
        }
        if self.approx_users.is_empty() {
            let mut rng = StdRng::seed_from_u64(self.seed);
            self.approx_users =
                random_user_embeddings(self.n_approx_users, model.dim(), 0.1, &mut rng);
        }
        // Refine approximations on whatever public data exists. Masked ⇒
        // this is a no-op and the "users" below are random noise.
        if let Some(interactions) = &self.public_interactions {
            fit_users_to_interactions(model, &mut self.approx_users, interactions, self.fit_lr);
        }

        // Eq. (5): push every approximated user's score for each target up.
        let mut upload = GlobalGradients::new();
        let scale = 1.0 / self.approx_users.len() as f32;
        for &target in &self.targets {
            let mut grad = vec![0.0f32; model.dim()];
            for user in &self.approx_users {
                let logit = model.logit(user, target);
                let delta = (sigmoid(logit) - 1.0) * scale;
                let g = model.item_grad_of_logit(user, target);
                vector::axpy(delta, &g, &mut grad);
            }
            upload.add_item_grad(target, &grad);
        }
        upload
    }

    fn checkpoint_state(&self) -> serde::Value {
        FedRecState {
            approx_users: self.approx_users.clone(),
        }
        .to_value()
    }

    fn restore_state(&mut self, state: &serde::Value) -> Result<(), String> {
        let state = FedRecState::from_value(state).map_err(|e| e.to_string())?;
        self.approx_users = state.approx_users;
        Ok(())
    }
}

/// Serialized mutable state of a [`FedRecAttack`]: the fitted user
/// approximations (empty until first unmasked round).
#[derive(Serialize, Deserialize)]
struct FedRecState {
    approx_users: Vec<Vec<f32>>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use frs_linalg::SeedStream;
    use frs_model::{LossKind, ModelConfig};

    fn model() -> GlobalModel {
        GlobalModel::new(&ModelConfig::mf(5), 12, &mut StdRng::seed_from_u64(6))
    }

    fn ctx() -> RoundContext {
        RoundContext::new(0, 1.0, 1.0, 1, LossKind::Bce, SeedStream::new(0))
    }

    #[test]
    fn uploads_gradients_for_targets_only_when_unmasked() {
        let interactions = vec![(0usize, 1u32)];
        let mut atk = FedRecAttack::new(50, vec![3, 7], 8, Some(interactions), 1);
        let g = atk.local_round(&ctx(), &model());
        assert_eq!(g.n_items(), 2);
        assert!(g.get(3).is_some() && g.get(7).is_some());
        assert!(g.mlp.is_none());
    }

    #[test]
    fn unmasked_variant_fits_public_interactions() {
        let m = model();
        let interactions = vec![(0usize, 1u32), (1, 2), (2, 1)];
        let mut atk = FedRecAttack::new(50, vec![9], 4, Some(interactions.clone()), 1);
        assert!(atk.has_prior_knowledge());
        for _ in 0..30 {
            atk.local_round(&ctx(), &m);
        }
        // Approximated users should now score their public items positively.
        let mean: f32 = interactions
            .iter()
            .map(|&(u, j)| m.logit(&atk.approx_users[u], j))
            .sum::<f32>()
            / interactions.len() as f32;
        assert!(mean > 0.0, "fitted users should like their items: {mean}");
    }

    #[test]
    fn masked_variant_is_inert() {
        let m = model();
        let mut atk = FedRecAttack::new(50, vec![9], 4, None, 1);
        assert!(!atk.has_prior_knowledge());
        let g = atk.local_round(&ctx(), &m);
        assert!(g.is_empty(), "masked FedRecAttack must upload nothing");
    }

    #[test]
    fn poison_direction_raises_approx_user_scores() {
        let mut m = model();
        let interactions = vec![(0usize, 1u32), (1, 2)];
        let mut atk = FedRecAttack::new(50, vec![9], 6, Some(interactions), 1);
        let g = atk.local_round(&ctx(), &m);
        let before: f32 = atk.approx_users.iter().map(|u| m.logit(u, 9)).sum();
        m.apply_gradients(&g, 1.0);
        let after: f32 = atk.approx_users.iter().map(|u| m.logit(u, 9)).sum();
        assert!(after >= before, "{before} -> {after}");
    }
}
