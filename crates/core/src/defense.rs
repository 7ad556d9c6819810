//! The paper's defense (Section V-B): client-side regularization.
//!
//! Server-side filtering cannot work — Eq. (11) shows poisonous gradients for
//! a cold target *outnumber* benign ones — so the defense changes what benign
//! clients train:
//!
//! `L_def = L_i − β·Re1 − γ·Re2`  (Eq. 16, minimized)
//!
//! - `Re1` (Eq. 14) is the κ′-weighted mean cosine between the client's
//!   *unpopular* local items `∆D_i = D_i \ P_i` and its mined popular set
//!   `P_i`. Maximizing it (note the minus sign) blurs the distinctive
//!   features of popular items, starving PIECK-IPE of a useful alignment
//!   anchor.
//! - `Re2` (Eq. 15) is the κ′-weighted KL divergence between popular-item
//!   embeddings and the user's own embedding. Maximizing it separates the two
//!   distributions, so popular embeddings stop being good stand-ins for users
//!   and PIECK-UEA's Property 3 breaks.
//!
//! `κ′` is the *normalized exponential* inverse rank (footnote 9): the
//! defense concentrates on the most popular items even harder than the attack
//! does. Benign clients run the same Algorithm 1 miner as the attacker —
//! which is exactly why the defense needs no prior popularity knowledge
//! either.

use frs_linalg::vector::{self, CosineGrad};
use frs_linalg::{kl_grad_at_softmax_q, softmax};
use frs_model::{GlobalGradients, GlobalModel};
use serde::{Deserialize, Serialize};

use frs_federation::{LocalRegularizer, RoundContext};

use crate::mining::PopularItemMiner;

/// Defense hyper-parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DefenseConfig {
    /// `R̃` for the benign-side miner.
    pub mining_rounds: usize,
    /// `N` for the benign-side miner (paper: 10 works best, Fig. 5d).
    pub top_n: usize,
    /// Weight β of Re1 (popularity-confusion term).
    pub beta: f32,
    /// Weight γ of Re2 (user-separation term).
    pub gamma: f32,
    /// Table VI ablation switches.
    pub use_re1: bool,
    pub use_re2: bool,
}

impl Default for DefenseConfig {
    fn default() -> Self {
        Self {
            mining_rounds: 2,
            top_n: 10,
            beta: 0.5,
            gamma: 0.5,
            use_re1: true,
            use_re2: true,
        }
    }
}

impl DefenseConfig {
    /// Sanity checks.
    pub fn validate(&self) -> Result<(), String> {
        if self.mining_rounds == 0 || self.top_n == 0 {
            return Err("mining parameters must be ≥ 1".into());
        }
        if self.beta < 0.0 || self.gamma < 0.0 {
            return Err("β and γ must be non-negative".into());
        }
        Ok(())
    }
}

/// Normalized exponential inverse-rank weights `κ′` (footnote 9): rank 0
/// dominates, decaying as `e^{−rank}`; weights sum to 1.
pub fn exp_inverse_rank_weights(n: usize) -> Vec<f32> {
    if n == 0 {
        return Vec::new();
    }
    let raw: Vec<f32> = (0..n).map(|rank| (-(rank as f32)).exp()).collect();
    let total = raw.iter().sum::<f32>(); // lint:allow(float-reduction-order): sequential fold in rank order over a fixed slice
    raw.into_iter().map(|w| w / total).collect()
}

/// The client-side defense state: one per benign client.
pub struct PieckDefense {
    config: DefenseConfig,
    miner: PopularItemMiner,
}

impl PieckDefense {
    /// Builds the defense; panics on invalid configuration.
    pub fn new(config: DefenseConfig) -> Self {
        config.validate().expect("invalid defense config");
        let miner = PopularItemMiner::new(config.mining_rounds, config.top_n);
        Self { config, miner }
    }

    /// The client's own mined popular set (tests/diagnostics).
    pub fn mined_popular(&self) -> Option<&[u32]> {
        self.miner.mined()
    }

    /// Value of Re1 for diagnostics (Eq. 14).
    pub fn re1_value(&self, model: &GlobalModel, popular: &[u32], unpopular_local: &[u32]) -> f32 {
        if unpopular_local.is_empty() || popular.is_empty() {
            return 0.0;
        }
        let kappa = exp_inverse_rank_weights(popular.len());
        let mut sum = 0.0;
        for &j in unpopular_local {
            for (rank, &k) in popular.iter().enumerate() {
                sum += kappa[rank]
                    * frs_linalg::cosine(model.item_embedding(k), model.item_embedding(j));
            }
        }
        sum / unpopular_local.len() as f32
    }

    /// Value of Re2 for diagnostics (Eq. 15).
    pub fn re2_value(&self, model: &GlobalModel, popular: &[u32], user_emb: &[f32]) -> f32 {
        let kappa = exp_inverse_rank_weights(popular.len());
        popular
            .iter()
            .enumerate()
            .map(|(rank, &k)| {
                kappa[rank] * frs_linalg::kl_divergence(model.item_embedding(k), user_emb)
            })
            .sum::<f32>() // lint:allow(float-reduction-order): sequential fold in neighbour-rank order, fixed by the k-NN list
    }
}

impl LocalRegularizer for PieckDefense {
    fn observe(&mut self, _ctx: &RoundContext, model: &GlobalModel) {
        self.miner.observe(model);
    }

    fn apply(
        &mut self,
        _ctx: &RoundContext,
        model: &GlobalModel,
        user_embedding: &[f32],
        local_items: &[u32],
        grads: &mut GlobalGradients,
        d_user: &mut [f32],
    ) {
        let Some(popular) = self.miner.mined() else {
            return; // Not enough observations yet — train normally.
        };
        let kappa = exp_inverse_rank_weights(popular.len());

        if self.config.use_re1 && self.config.beta > 0.0 {
            // ∆D_i: local items outside the mined popular set.
            let unpopular: Vec<u32> = local_items
                .iter()
                .copied()
                .filter(|j| !popular.contains(j))
                .collect();
            if !unpopular.is_empty() {
                let inv_count = 1.0 / unpopular.len() as f32;
                // ‖v_k‖ once per call and ‖v_j‖ once per item, not per pair.
                let popular_norms: Vec<f32> = popular
                    .iter()
                    .map(|&k| vector::l2_norm(model.item_embedding(k)))
                    .collect();
                let mut g = vec![0.0f32; model.dim()];
                for &j in &unpopular {
                    let vj = model.item_embedding(j);
                    let norm_j = vector::l2_norm(vj);
                    g.fill(0.0);
                    for ((&k, &norm_k), &weight) in popular.iter().zip(&popular_norms).zip(&kappa) {
                        let vk = model.item_embedding(k);
                        // `axpy(κ′, ∂cos/∂v_j, g)`, coordinate by coordinate.
                        // A zero gradient (a norm ≤ ε) would add `+0.0`, which
                        // leaves `g` as it is: `g` starts at `+0.0`, and a sum
                        // is `-0.0` only when both terms are.
                        if let Some(dcos) = CosineGrad::new(vk, norm_k, vj, norm_j) {
                            for (gi, (&a, &b)) in g.iter_mut().zip(vk.iter().zip(vj)) {
                                *gi += weight * dcos.at(a, b);
                            }
                        }
                    }
                    // ∂(−β·Re1)/∂v_j = −β · (1/|∆D|) Σ_k κ′ ∂cos/∂v_j
                    vector::scale(&mut g, -self.config.beta * inv_count);
                    grads.add_item_grad(j, &g);
                }
            }
        }

        if self.config.use_re2 && self.config.gamma > 0.0 {
            // ∂(−γ·Re2)/∂u = −γ Σ_k κ′ ∂KL(v_k ‖ u)/∂u, softmax(u) once.
            let user_softmax = softmax(user_embedding);
            let mut g = vec![0.0f32; user_embedding.len()];
            for (&k, &weight) in popular.iter().zip(&kappa) {
                let dkl = kl_grad_at_softmax_q(model.item_embedding(k), &user_softmax);
                vector::axpy(weight, &dkl, &mut g);
            }
            vector::axpy(-self.config.gamma, &g, d_user);
        }
    }

    fn name(&self) -> &'static str {
        "ours"
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
    use frs_model::{GlobalModel, LossKind, ModelConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn model() -> GlobalModel {
        GlobalModel::new(&ModelConfig::mf(6), 16, &mut StdRng::seed_from_u64(9))
    }

    fn ctx(round: usize) -> RoundContext {
        RoundContext::new(round, 1.0, 1.0, 1, LossKind::Bce, SeedStream::new(2))
    }

    fn mined_defense(model: &mut GlobalModel) -> PieckDefense {
        let mut def = PieckDefense::new(DefenseConfig::default());
        for r in 0..3 {
            def.observe(&ctx(r), model);
            let mut g = GlobalGradients::new();
            for j in 0..4u32 {
                g.add_item_grad(j, &[0.4; 6]);
            }
            model.apply_gradients(&g, 1.0);
        }
        assert!(def.mined_popular().is_some());
        def
    }

    #[test]
    fn exp_weights_normalized_and_steeply_decreasing() {
        let w = exp_inverse_rank_weights(5);
        assert!((w.iter().sum::<f32>() - 1.0).abs() < 1e-6);
        assert!(w[0] / w[1] > 2.0, "exponential decay should be steep");
        assert!(exp_inverse_rank_weights(0).is_empty());
    }

    #[test]
    fn inert_until_mining_completes() {
        let m = model();
        let mut def = PieckDefense::new(DefenseConfig::default());
        def.observe(&ctx(0), &m);
        let mut grads = GlobalGradients::new();
        let mut d_user = vec![0.0f32; 6];
        def.apply(&ctx(0), &m, &[0.1; 6], &[5, 6], &mut grads, &mut d_user);
        assert!(grads.is_empty());
        assert!(d_user.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn re1_gradients_cover_unpopular_local_items_only() {
        let mut m = model();
        let mut def = mined_defense(&mut m);
        let popular = def.mined_popular().unwrap().to_vec();
        let unpop = (0..16u32).find(|j| !popular.contains(j)).unwrap();
        let pop = popular[0];
        let mut grads = GlobalGradients::new();
        let mut d_user = vec![0.0f32; 6];
        def.apply(
            &ctx(5),
            &m,
            &[0.1; 6],
            &[unpop, pop],
            &mut grads,
            &mut d_user,
        );
        assert!(grads.get(unpop).is_some());
        assert!(
            grads.get(pop).is_none(),
            "popular local items are not in ∆D_i"
        );
    }

    #[test]
    fn re1_direction_increases_similarity() {
        // Applying the uploaded gradient (server: v ← v − η·g) must *raise*
        // Re1: unpopular items drift toward popular features.
        let mut m = model();
        let mut def = mined_defense(&mut m);
        let popular = def.mined_popular().unwrap().to_vec();
        let unpop: Vec<u32> = (0..16u32)
            .filter(|j| !popular.contains(j))
            .take(3)
            .collect();
        let before = def.re1_value(&m, &popular, &unpop);
        for _ in 0..20 {
            let mut grads = GlobalGradients::new();
            let mut d_user = vec![0.0f32; 6];
            def.apply(&ctx(5), &m, &[0.1; 6], &unpop, &mut grads, &mut d_user);
            m.apply_gradients(&grads, 1.0);
        }
        let after = def.re1_value(&m, &popular, &unpop);
        assert!(after > before, "Re1 should grow: {before} -> {after}");
    }

    #[test]
    fn re2_direction_separates_user_from_popular() {
        let mut m = model();
        let mut def = mined_defense(&mut m);
        let popular = def.mined_popular().unwrap().to_vec();
        // Start the user on top of the most popular item's embedding.
        let mut user: Vec<f32> = m.item_embedding(popular[0]).to_vec();
        let before = def.re2_value(&m, &popular, &user);
        for _ in 0..50 {
            let mut grads = GlobalGradients::new();
            let mut d_user = vec![0.0f32; 6];
            def.apply(&ctx(5), &m, &user, &[], &mut grads, &mut d_user);
            // Client applies its own user update u ← u − lr·d_user.
            vector::axpy(-1.0, &d_user, &mut user);
        }
        let after = def.re2_value(&m, &popular, &user);
        assert!(after > before, "Re2 should grow: {before} -> {after}");
    }

    #[test]
    fn ablation_switches_disable_terms() {
        let mut m = model();
        // Re1 only.
        let mut def = PieckDefense::new(DefenseConfig {
            use_re2: false,
            ..DefenseConfig::default()
        });
        for r in 0..3 {
            def.observe(&ctx(r), &m);
            let mut g = GlobalGradients::new();
            g.add_item_grad(0, &[0.4; 6]);
            m.apply_gradients(&g, 1.0);
        }
        let mut grads = GlobalGradients::new();
        let mut d_user = vec![0.0f32; 6];
        def.apply(&ctx(5), &m, &[0.1; 6], &[10, 11], &mut grads, &mut d_user);
        assert!(!grads.is_empty(), "Re1 active");
        assert!(d_user.iter().all(|&v| v == 0.0), "Re2 disabled");
    }

    #[test]
    fn zero_weights_are_inert() {
        let mut m = model();
        let cfg = DefenseConfig {
            beta: 0.0,
            gamma: 0.0,
            ..DefenseConfig::default()
        };
        let mut def = PieckDefense::new(cfg);
        for r in 0..3 {
            def.observe(&ctx(r), &m);
            let mut g = GlobalGradients::new();
            g.add_item_grad(0, &[0.4; 6]);
            m.apply_gradients(&g, 1.0);
        }
        let mut grads = GlobalGradients::new();
        let mut d_user = vec![0.0f32; 6];
        def.apply(&ctx(5), &m, &[0.1; 6], &[10], &mut grads, &mut d_user);
        assert!(grads.is_empty());
        assert!(d_user.iter().all(|&v| v == 0.0));
    }
}
