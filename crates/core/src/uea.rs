//! PIECK-UEA: user-embedding approximation (Eq. 10).
//!
//! The exposure surrogate of Eq. (4) needs benign-user embeddings, which are
//! private. Property 3 (symmetric model ⇒ popular-item embeddings distribute
//! like user embeddings) licenses the substitution:
//!
//! `L_UEA = −(1/(N·|T|)) Σ_{v_k∈P} Σ_{v_j∈T} log Ψ(v_k, v_j)`
//!
//! where each mined popular embedding `v_k` stands in for a user and is
//! treated as a *constant* (excluded from backpropagation). The poisonous
//! gradient for a target is the gradient of this loss w.r.t. the target's
//! embedding. The attack never asks which family it poisons:
//! [`GlobalModel::logit_with_embeddings`] and
//! [`GlobalModel::item_grad_with_embeddings`] score the pair and take the
//! item-side gradient through the dot product (MF) or the frozen MLP (DL).
//!
//! The paper's cost analysis notes UEA runs "multiple rounds in batches
//! (default batch size 5 and round size 3)": [`UeaConfig::local_steps`] and
//! [`UeaConfig::batch_size`] reproduce that inner optimization, uploading
//! `(v_before − v_after)/η` so the server's `−η·g` update lands the item on
//! the locally optimized embedding.

use frs_linalg::{sigmoid, vector};
use frs_model::GlobalModel;
use serde::{Deserialize, Serialize};

/// PIECK-UEA hyper-parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UeaConfig {
    /// Inner optimization steps per round ("round size" in the paper; 3).
    pub local_steps: usize,
    /// Popular items per inner step ("batch size"; 5). Steps cycle through
    /// the mined set in rank order.
    pub batch_size: usize,
    /// Learning rate of the inner optimization.
    pub local_lr: f32,
}

impl Default for UeaConfig {
    fn default() -> Self {
        Self {
            local_steps: 3,
            batch_size: 5,
            local_lr: 1.0,
        }
    }
}

/// `L_UEA` evaluated for one target (diagnostics / tests): mean
/// `−log σ(Ψ(v_k, v_j))` over the popular set.
pub fn uea_loss(model: &GlobalModel, popular: &[u32], target_emb: &[f32]) -> f32 {
    if popular.is_empty() {
        return 0.0;
    }
    let mut sum = 0.0f32;
    for &k in popular {
        let pseudo_user = model.item_embedding(k);
        let logit = model.logit_with_embeddings(pseudo_user, target_emb);
        sum += -frs_linalg::log_sigmoid(logit);
    }
    sum / popular.len() as f32
}

/// Gradient of `L_UEA` w.r.t. the target embedding, using `batch` popular
/// pseudo-users. `∂(−logσ(s))/∂s = σ(s) − 1`, chained through the model's
/// item-side gradient with all other parameters constant.
pub fn uea_gradient(model: &GlobalModel, batch: &[u32], target_emb: &[f32]) -> Vec<f32> {
    let mut grad = vec![0.0f32; target_emb.len()];
    if batch.is_empty() {
        return grad;
    }
    let scale = 1.0 / batch.len() as f32;
    for &k in batch {
        let pseudo_user = model.item_embedding(k);
        let logit = model.logit_with_embeddings(pseudo_user, target_emb);
        let delta = (sigmoid(logit) - 1.0) * scale;
        let g = model.item_grad_with_embeddings(pseudo_user, target_emb);
        vector::axpy(delta, &g, &mut grad);
    }
    grad
}

/// Runs the inner optimization: starting from the target's current embedding,
/// takes `local_steps` descent steps on `L_UEA` (cycling rank-ordered batches
/// of popular pseudo-users) and returns the poisonous gradient
/// `(v_before − v_after) / η`.
pub fn uea_poison_gradient(
    config: &UeaConfig,
    model: &GlobalModel,
    popular: &[u32],
    target: u32,
    server_lr: f32,
) -> Vec<f32> {
    let before = model.item_embedding(target).to_vec();
    let mut current = before.clone();
    if popular.is_empty() {
        return vec![0.0; current.len()];
    }
    let bs = config.batch_size.max(1).min(popular.len());
    for step in 0..config.local_steps.max(1) {
        let start = (step * bs) % popular.len();
        let batch: Vec<u32> = (0..bs)
            .map(|i| popular[(start + i) % popular.len()])
            .collect();
        let g = uea_gradient(model, &batch, &current);
        vector::axpy(-config.local_lr, &g, &mut current);
    }
    let mut poison = vector::sub(&before, &current);
    vector::scale(&mut poison, 1.0 / server_lr);
    poison
}

#[cfg(test)]
mod tests {
    use super::*;
    use frs_model::{GlobalModel, ModelConfig, ModelKind};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn models() -> Vec<GlobalModel> {
        let mut rng = StdRng::seed_from_u64(77);
        vec![
            GlobalModel::new(&ModelConfig::mf(6), 12, &mut rng),
            GlobalModel::new(&ModelConfig::ncf(6), 12, &mut rng),
        ]
    }

    #[test]
    fn gradient_matches_finite_difference_both_models() {
        for model in models() {
            let popular = [0u32, 1, 2];
            let target_emb: Vec<f32> = (0..6).map(|i| 0.05 * i as f32 - 0.1).collect();
            let g = uea_gradient(&model, &popular, &target_emb);
            let eps = 1e-2;
            let mut fd = vec![0.0f32; 6];
            for (i, slot) in fd.iter_mut().enumerate() {
                let mut tp = target_emb.clone();
                tp[i] += eps;
                let mut tm = target_emb.clone();
                tm[i] -= eps;
                *slot = (uea_loss(&model, &popular, &tp) - uea_loss(&model, &popular, &tm))
                    / (2.0 * eps);
            }
            match model.kind() {
                // MF is smooth: coordinates must agree pointwise.
                ModelKind::Mf => {
                    for i in 0..6 {
                        assert!(
                            (g[i] - fd[i]).abs() < 2e-2,
                            "coord {i}: {} vs {}",
                            g[i],
                            fd[i]
                        );
                    }
                }
                // The NCF hidden units are piecewise-linear; central
                // differences straddling a kink deviate from the one-sided
                // analytic gradient at isolated coordinates (see the model
                // crate's gradient properties). Directional agreement over
                // the whole vector is the robust property.
                ModelKind::Ncf => {
                    let cos = frs_linalg::cosine(&g, &fd);
                    assert!(cos > 0.95, "cos(analytic, fd) = {cos}");
                    let (gn, fn_) = (vector::l2_norm(&g), vector::l2_norm(&fd));
                    assert!(
                        (gn - fn_).abs() / fn_.max(gn).max(1e-6) < 0.25,
                        "norms {gn} vs {fn_}"
                    );
                }
            }
        }
    }

    #[test]
    fn descending_raises_pseudo_user_scores() {
        for model in models() {
            let popular = [0u32, 1, 2, 3];
            let mut emb = model.item_embedding(11).to_vec();
            let before = uea_loss(&model, &popular, &emb);
            for _ in 0..100 {
                let g = uea_gradient(&model, &popular, &emb);
                vector::axpy(-0.2, &g, &mut emb);
            }
            let after = uea_loss(&model, &popular, &emb);
            assert!(after < before, "{:?}: {before} -> {after}", model.kind());
        }
    }

    #[test]
    fn poison_gradient_moves_target_toward_optimum() {
        for mut model in models() {
            let popular = [0u32, 1, 2, 3, 4];
            let cfg = UeaConfig {
                local_steps: 5,
                batch_size: 3,
                local_lr: 0.5,
            };
            let before_loss = uea_loss(&model, &popular, model.item_embedding(9));
            let poison = uea_poison_gradient(&cfg, &model, &popular, 9, 1.0);
            // Server applies v ← v − η·poison: reconstructs the optimized copy.
            let mut g = frs_model::GlobalGradients::new();
            g.add_item_grad(9, &poison);
            model.apply_gradients(&g, 1.0);
            let after_loss = uea_loss(&model, &popular, model.item_embedding(9));
            assert!(
                after_loss < before_loss,
                "{:?}: {before_loss} -> {after_loss}",
                model.kind()
            );
        }
    }

    #[test]
    fn poison_scales_inversely_with_server_lr() {
        let model = &models()[0];
        let popular = [0u32, 1];
        let cfg = UeaConfig::default();
        let p1 = uea_poison_gradient(&cfg, model, &popular, 5, 1.0);
        let p2 = uea_poison_gradient(&cfg, model, &popular, 5, 0.5);
        for (a, b) in p1.iter().zip(&p2) {
            assert!((b - 2.0 * a).abs() < 1e-5, "η=0.5 doubles the gradient");
        }
    }

    #[test]
    fn empty_popular_set_is_inert() {
        let model = &models()[0];
        assert_eq!(uea_loss(model, &[], &[0.0; 6]), 0.0);
        assert_eq!(uea_gradient(model, &[], &[0.0; 6]), vec![0.0; 6]);
        let cfg = UeaConfig::default();
        assert_eq!(uea_poison_gradient(&cfg, model, &[], 0, 1.0), vec![0.0; 6]);
    }

    #[test]
    fn batches_cycle_through_popular_set() {
        // With batch_size 2 and 3 populars, steps must wrap around; just
        // verify it runs and produces a finite gradient.
        let model = &models()[0];
        let cfg = UeaConfig {
            local_steps: 4,
            batch_size: 2,
            local_lr: 0.3,
        };
        let poison = uea_poison_gradient(&cfg, model, &[0, 1, 2], 7, 1.0);
        assert!(poison.iter().all(|v| v.is_finite()));
        assert!(vector::l2_norm(&poison) > 0.0);
    }
}
