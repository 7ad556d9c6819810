//! The unified global-model facade.
//!
//! [`GlobalModel`] is the one type the federation protocol, every attack, and
//! every defense program against. It hides whether the interaction function
//! is a fixed dot product (MF) or a learnable MLP (NCF) — which is precisely
//! the property that makes PIECK *model-agnostic*: the attack only ever calls
//! the item-embedding surface of this API.

use frs_linalg::{sigmoid, Matrix};
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::config::{ModelConfig, ModelKind};
use crate::gradients::GlobalGradients;
use crate::lanes::ItemLanes;
use crate::mf::MfModel;
use crate::mlp::MlpCache;
use crate::ncf::NcfModel;

/// Either base model behind one interface.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum GlobalModel {
    Mf(MfModel),
    Ncf(NcfModel),
}

/// Per-example forward cache (only NCF needs to remember anything).
#[derive(Debug, Clone)]
pub enum ForwardCache {
    Mf,
    Ncf(MlpCache),
}

impl GlobalModel {
    /// Builds the configured model with `n_items` item rows.
    pub fn new<R: Rng + ?Sized>(config: &ModelConfig, n_items: usize, rng: &mut R) -> Self {
        config.validate().expect("invalid model config");
        match config.kind {
            ModelKind::Mf => GlobalModel::Mf(MfModel::new(
                n_items,
                config.embedding_dim,
                config.init_scale,
                rng,
            )),
            ModelKind::Ncf => GlobalModel::Ncf(NcfModel::new(
                n_items,
                config.embedding_dim,
                &config.mlp_shapes(),
                config.init_scale,
                rng,
            )),
        }
    }

    /// Which family this is.
    pub fn kind(&self) -> ModelKind {
        match self {
            GlobalModel::Mf(_) => ModelKind::Mf,
            GlobalModel::Ncf(_) => ModelKind::Ncf,
        }
    }

    pub fn n_items(&self) -> usize {
        match self {
            GlobalModel::Mf(m) => m.n_items(),
            GlobalModel::Ncf(m) => m.n_items(),
        }
    }

    pub fn dim(&self) -> usize {
        match self {
            GlobalModel::Mf(m) => m.dim(),
            GlobalModel::Ncf(m) => m.dim(),
        }
    }

    /// Item `j`'s embedding row.
    #[inline]
    pub fn item_embedding(&self, item: u32) -> &[f32] {
        match self {
            GlobalModel::Mf(m) => m.item_embedding(item),
            GlobalModel::Ncf(m) => m.item_embedding(item),
        }
    }

    /// Mutable item embedding (tests and white-box tooling only; the
    /// federation always goes through [`Self::apply_gradients`]).
    pub fn item_embedding_mut(&mut self, item: u32) -> &mut [f32] {
        match self {
            GlobalModel::Mf(m) => m.item_embedding_mut(item),
            GlobalModel::Ncf(m) => m.item_embedding_mut(item),
        }
    }

    /// The full item table — what the server ships to sampled clients and
    /// what the popular-item miner diffs between rounds.
    pub fn items(&self) -> &Matrix {
        match self {
            GlobalModel::Mf(m) => m.items(),
            GlobalModel::Ncf(m) => m.items(),
        }
    }

    /// Raw interaction logit for (user embedding, item).
    #[inline]
    pub fn logit(&self, user_emb: &[f32], item: u32) -> f32 {
        match self {
            GlobalModel::Mf(m) => m.logit(user_emb, item),
            GlobalModel::Ncf(m) => m.logit(user_emb, item),
        }
    }

    /// Predicted preference score `x̂ ∈ (0,1)` (sigmoid of the logit for both
    /// families; for MF the paper's `u ⊙ v` feeds the BCE through a sigmoid).
    #[inline]
    pub fn predict(&self, user_emb: &[f32], item: u32) -> f32 {
        sigmoid(self.logit(user_emb, item))
    }

    /// Forward returning a cache for training examples.
    pub fn forward(&self, user_emb: &[f32], item: u32) -> (f32, ForwardCache) {
        match self {
            GlobalModel::Mf(m) => (m.logit(user_emb, item), ForwardCache::Mf),
            GlobalModel::Ncf(m) => {
                let (logit, cache) = m.forward(user_emb, item);
                (logit, ForwardCache::Ncf(cache))
            }
        }
    }

    /// Backward for one example: accumulates `∂L/∂u` into `d_user`, the item
    /// gradient and (for NCF) the MLP gradients into `grads`.
    pub fn backward(
        &self,
        user_emb: &[f32],
        item: u32,
        cache: &ForwardCache,
        delta: f32,
        d_user: &mut [f32],
        grads: &mut GlobalGradients,
    ) {
        match (self, cache) {
            (GlobalModel::Mf(m), ForwardCache::Mf) => {
                let d_item = m.backward(user_emb, item, delta, d_user);
                grads.add_item_grad(item, &d_item);
            }
            (GlobalModel::Ncf(m), ForwardCache::Ncf(mlp_cache)) => {
                let mlp_grads = grads.mlp.get_or_insert_with(|| m.mlp().zero_gradients());
                let d_item = m.backward(user_emb, item, mlp_cache, delta, d_user, mlp_grads);
                grads.add_item_grad(item, &d_item);
            }
            _ => panic!("forward cache does not match model kind"),
        }
    }

    /// Gradient of the logit w.r.t. the *item embedding only*, everything
    /// else constant — the poisonous-gradient primitive (Eq. 5). `user_emb`
    /// may be a real user, an approximated user, or (PIECK-UEA) a mined
    /// popular-item embedding standing in for a user.
    pub fn item_grad_of_logit(&self, user_emb: &[f32], item: u32) -> Vec<f32> {
        match self {
            GlobalModel::Mf(m) => m.item_grad_of_logit(user_emb, item),
            GlobalModel::Ncf(m) => m.item_grad_of_logit(user_emb, item),
        }
    }

    /// Gradient of the logit w.r.t. the *user embedding*, holding items and
    /// interaction parameters constant. A-RA/A-HUM use this to optimize their
    /// synthetic "hard users".
    pub fn user_grad_of_logit(&self, user_emb: &[f32], item: u32) -> Vec<f32> {
        match self {
            GlobalModel::Mf(m) => m.item_embedding(item).to_vec(),
            GlobalModel::Ncf(m) => m.user_grad_of_logit(user_emb, item),
        }
    }

    /// Server-side update: `θ ← θ − lr · g` for every uploaded gradient.
    pub fn apply_gradients(&mut self, grads: &GlobalGradients, lr: f32) {
        match self {
            GlobalModel::Mf(m) => {
                for (item, g) in grads.iter() {
                    m.apply_item_gradient(item, g, lr);
                }
            }
            GlobalModel::Ncf(m) => {
                for (item, g) in grads.iter() {
                    m.apply_item_gradient(item, g, lr);
                }
                if let Some(mlp_grads) = &grads.mlp {
                    m.apply_mlp_gradients(mlp_grads, lr);
                }
            }
        }
    }

    /// This model's item table regrouped for the scoring kernel
    /// ([`crate::lanes`]): build it once per evaluation (or per published
    /// snapshot) and pass it to every [`Self::scores_for_user_into`] call.
    pub fn item_lanes(&self) -> ItemLanes {
        ItemLanes::new(self.items())
    }

    /// Logits of every item for one user embedding, into a caller-owned
    /// buffer — the evaluation path (top-K lists). Sigmoid is monotone so
    /// ranking on logits is identical to ranking on predicted scores.
    /// `lanes` must be [`Self::item_lanes`] of this model state; every score
    /// is bitwise-identical to the per-item [`Self::logit`].
    pub fn scores_for_user_into(&self, lanes: &ItemLanes, user_emb: &[f32], out: &mut Vec<f32>) {
        assert!(
            lanes.n_items() == self.n_items() && lanes.dim() == self.dim(),
            "item lanes built for another model shape"
        );
        match self {
            GlobalModel::Mf(m) => m.scores_for_user_into(lanes, user_emb, out),
            GlobalModel::Ncf(m) => m.scores_for_user_into(lanes, user_emb, out),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn both_models() -> Vec<GlobalModel> {
        let mut rng = StdRng::seed_from_u64(10);
        vec![
            GlobalModel::new(&ModelConfig::mf(4), 8, &mut rng),
            GlobalModel::new(&ModelConfig::ncf(4), 8, &mut rng),
        ]
    }

    /// A wider NCF for the end-to-end fitting test: width-2 hidden layers are
    /// degenerate (a single mostly-dead layer dominates the behaviour).
    fn trainable_models() -> Vec<GlobalModel> {
        let mut rng = StdRng::seed_from_u64(10);
        vec![
            GlobalModel::new(&ModelConfig::mf(4), 8, &mut rng),
            GlobalModel::new(&ModelConfig::ncf(8), 8, &mut rng),
        ]
    }

    #[test]
    fn kinds_and_shapes() {
        let ms = both_models();
        assert_eq!(ms[0].kind(), ModelKind::Mf);
        assert_eq!(ms[1].kind(), ModelKind::Ncf);
        for m in &ms {
            assert_eq!(m.n_items(), 8);
            assert_eq!(m.dim(), 4);
            assert_eq!(m.item_embedding(3).len(), 4);
        }
    }

    #[test]
    fn predict_is_sigmoid_of_logit() {
        for m in both_models() {
            let u = [0.3, -0.2, 0.1, 0.5];
            let p = m.predict(&u, 2);
            assert!((p - sigmoid(m.logit(&u, 2))).abs() < 1e-7);
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn scores_for_user_matches_pointwise_logits() {
        for m in both_models() {
            let u = [0.1, 0.4, -0.3, 0.2];
            let mut scores = Vec::new();
            m.scores_for_user_into(&m.item_lanes(), &u, &mut scores);
            assert_eq!(scores.len(), m.n_items());
            for j in 0..m.n_items() {
                assert_eq!(scores[j].to_bits(), m.logit(&u, j as u32).to_bits());
            }
        }
    }

    #[test]
    fn backward_and_apply_reduce_bce_loss() {
        // Gradient-descend one (user, item) positive pair; the predicted
        // score must rise for both model families. Learning rates mirror the
        // paper's settings (η=1.0 for MF, small for DL — MLPs diverge at 1.0).
        for mut m in trainable_models() {
            let lr = match m.kind() {
                ModelKind::Mf => 1.0,
                ModelKind::Ncf => 0.1,
            };
            let dim = m.dim();
            let u: Vec<f32> = (0..dim).map(|i| 0.1 + 0.05 * i as f32).collect();
            let before = m.predict(&u, 5);
            for _ in 0..400 {
                let (logit, cache) = m.forward(&u, 5);
                let delta = crate::loss::bce_logit_delta(logit, 1.0);
                let mut d_user = vec![0.0; dim];
                let mut grads = GlobalGradients::new();
                m.backward(&u, 5, &cache, delta, &mut d_user, &mut grads);
                m.apply_gradients(&grads, lr);
            }
            let after = m.predict(&u, 5);
            assert!(after > before, "{:?}: {before} -> {after}", m.kind());
            assert!(after > 0.8, "{:?} should nearly fit: {after}", m.kind());
        }
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn item_grad_of_logit_finite_difference_both_kinds() {
        for m in both_models() {
            let u = [0.25, 0.15, -0.2, 0.3];
            let g = m.item_grad_of_logit(&u, 1);
            let eps = 1e-2;
            let mut m2 = m.clone();
            for i in 0..4 {
                let orig = m2.item_embedding(1)[i];
                m2.item_embedding_mut(1)[i] = orig + eps;
                let up = m2.logit(&u, 1);
                m2.item_embedding_mut(1)[i] = orig - eps;
                let dn = m2.logit(&u, 1);
                m2.item_embedding_mut(1)[i] = orig;
                let fd = (up - dn) / (2.0 * eps);
                assert!((g[i] - fd).abs() < 1e-2, "{:?} coord {i}", m.kind());
            }
        }
    }

    #[test]
    fn user_grad_of_logit_finite_difference_both_kinds() {
        for m in both_models() {
            let u = [0.25, 0.15, -0.2, 0.3];
            let g = m.user_grad_of_logit(&u, 6);
            let eps = 1e-2;
            for i in 0..4 {
                let mut up = u;
                up[i] += eps;
                let mut dn = u;
                dn[i] -= eps;
                let fd = (m.logit(&up, 6) - m.logit(&dn, 6)) / (2.0 * eps);
                assert!((g[i] - fd).abs() < 1e-2, "{:?} coord {i}", m.kind());
            }
        }
    }

    #[test]
    fn mlp_gradients_only_for_ncf() {
        for m in both_models() {
            let u = [0.1, 0.1, 0.1, 0.1];
            let (logit, cache) = m.forward(&u, 0);
            let delta = crate::loss::bce_logit_delta(logit, 0.0);
            let mut d_user = vec![0.0; 4];
            let mut grads = GlobalGradients::new();
            m.backward(&u, 0, &cache, delta, &mut d_user, &mut grads);
            match m.kind() {
                ModelKind::Mf => assert!(grads.mlp.is_none()),
                ModelKind::Ncf => assert!(grads.mlp.is_some()),
            }
        }
    }
}
