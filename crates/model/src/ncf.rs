//! Neural-collaborative-filtering global model (DL-FRS).
//!
//! The global model couples the item-embedding table with the learnable
//! interaction MLP of Eq. (1). Unlike MF-FRS, the MLP parameters are shared
//! and aggregated across clients, opening the interaction-function poisoning
//! surface that A-RA/A-HUM exploit.
//!
//! The MLP input follows the NeuMF formulation of the NCF paper \[16\]:
//! `z₀ = u ⊕ v ⊕ (u ⊙ v)` — the concatenation augmented with the GMF
//! element-wise product path. The product features make the learned score
//! genuinely *multiplicative* in (user, item); without them a narrow MLP
//! degenerates to an additive `f(u) + g(v)` scorer, in which promoting an
//! item for anyone promotes it for everyone and no embedding-geometry
//! defense could possibly matter (see DESIGN.md §5).

use frs_linalg::Matrix;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::gradients::MlpGradients;
use crate::lanes::{ItemLanes, LANES};
use crate::mlp::{Mlp, MlpCache};

/// DL-FRS global parameters: item table + interaction MLP.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NcfModel {
    items: Matrix,
    mlp: Mlp,
    dim: usize,
}

impl NcfModel {
    /// Builds the item table and the MLP stack; `shapes` chain from `3·dim`
    /// (the `u ⊕ v ⊕ u⊙v` NeuMF input).
    pub fn new<R: Rng + ?Sized>(
        n_items: usize,
        dim: usize,
        shapes: &[(usize, usize)],
        scale: f32,
        rng: &mut R,
    ) -> Self {
        assert_eq!(
            shapes[0].0,
            3 * dim,
            "MLP input must be 3·dim (u ⊕ v ⊕ u⊙v)"
        );
        Self {
            items: Matrix::uniform(n_items, dim, scale, rng),
            mlp: Mlp::new(shapes, rng),
            dim,
        }
    }

    #[inline]
    pub fn n_items(&self) -> usize {
        self.items.rows()
    }

    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    #[inline]
    pub fn item_embedding(&self, item: u32) -> &[f32] {
        self.items.row(item as usize)
    }

    #[inline]
    pub fn item_embedding_mut(&mut self, item: u32) -> &mut [f32] {
        self.items.row_mut(item as usize)
    }

    #[inline]
    pub fn items(&self) -> &Matrix {
        &self.items
    }

    #[inline]
    pub fn mlp(&self) -> &Mlp {
        &self.mlp
    }

    /// Builds the NeuMF input `u ⊕ v ⊕ (u ⊙ v)` into `buf`.
    fn build_input(&self, user_emb: &[f32], item_emb: &[f32], buf: &mut Vec<f32>) {
        debug_assert_eq!(user_emb.len(), self.dim);
        debug_assert_eq!(item_emb.len(), self.dim);
        buf.clear();
        buf.extend_from_slice(user_emb);
        buf.extend_from_slice(item_emb);
        buf.extend(user_emb.iter().zip(item_emb).map(|(a, b)| a * b));
    }

    /// Splits `∂L/∂z₀` into user/item parts with the product rule:
    /// `∂L/∂u = dz[0..d] + dz[2d..3d] ⊙ v`, `∂L/∂v = dz[d..2d] + dz[2d..3d] ⊙ u`.
    fn split_input_grad(
        &self,
        d_input: &[f32],
        user_emb: &[f32],
        item_emb: &[f32],
    ) -> (Vec<f32>, Vec<f32>) {
        let d = self.dim;
        let (du_part, rest) = d_input.split_at(d);
        let (dv_part, dprod) = rest.split_at(d);
        let du: Vec<f32> = du_part
            .iter()
            .zip(dprod.iter().zip(item_emb))
            .map(|(&g, (&p, &v))| g + p * v)
            .collect();
        let dv: Vec<f32> = dv_part
            .iter()
            .zip(dprod.iter().zip(user_emb))
            .map(|(&g, (&p, &u))| g + p * u)
            .collect();
        (du, dv)
    }

    /// Raw (pre-sigmoid) interaction logit for explicit embedding pair —
    /// the attacker-facing surface: PIECK-UEA plugs a popular item's
    /// embedding into the user slot.
    pub fn logit_with_embeddings(&self, user_emb: &[f32], item_emb: &[f32]) -> f32 {
        let mut buf = Vec::with_capacity(3 * self.dim);
        self.build_input(user_emb, item_emb, &mut buf);
        self.mlp.forward_logit_only(&buf)
    }

    /// Raw (pre-sigmoid) interaction logit for a stored item.
    pub fn logit(&self, user_emb: &[f32], item: u32) -> f32 {
        self.logit_with_embeddings(user_emb, self.item_embedding(item))
    }

    /// Logits of every item in `lanes` for one user, `LANES` items at a
    /// time: the MLP work that depends only on the user slot (the
    /// first-layer fold over `u`) runs once, and each block's `v ⊕ (u ⊙ v)`
    /// suffix goes through `BatchScorer::logits`. Each score is
    /// bitwise-identical to [`Self::logit`] for its item.
    pub(crate) fn scores_for_user_into(
        &self,
        lanes: &ItemLanes,
        user_emb: &[f32],
        out: &mut Vec<f32>,
    ) {
        debug_assert_eq!(user_emb.len(), self.dim);
        let mut scorer = self.mlp.batch_scorer(user_emb);
        let mut suffix = vec![[0.0; LANES]; 2 * self.dim];
        lanes.score_into(out, |block| {
            let (items, products) = suffix.split_at_mut(self.dim);
            for (((item, product), v), &u) in
                items.iter_mut().zip(products).zip(block).zip(user_emb)
            {
                *item = *v;
                for (p, &x) in product.iter_mut().zip(v) {
                    *p = u * x;
                }
            }
            scorer.logits(&suffix)
        });
    }

    /// Forward with cache for a training example.
    pub fn forward(&self, user_emb: &[f32], item: u32) -> (f32, MlpCache) {
        let mut buf = Vec::with_capacity(3 * self.dim);
        self.build_input(user_emb, self.item_embedding(item), &mut buf);
        self.mlp.forward(&buf)
    }

    /// Backward for one example: accumulates MLP parameter gradients into
    /// `mlp_grads`, accumulates `∂L/∂u` into `d_user`, and returns `∂L/∂v`.
    pub fn backward(
        &self,
        user_emb: &[f32],
        item: u32,
        cache: &MlpCache,
        delta: f32,
        d_user: &mut [f32],
        mlp_grads: &mut MlpGradients,
    ) -> Vec<f32> {
        let d_input = self.mlp.backward(cache, delta, mlp_grads);
        let (du, dv) = self.split_input_grad(&d_input, user_emb, self.item_embedding(item));
        for (acc, g) in d_user.iter_mut().zip(du) {
            *acc += g;
        }
        dv
    }

    /// Gradient of the logit w.r.t. an explicit item embedding, holding the
    /// user slot and MLP parameters constant (Eq. 5 for DL-FRS).
    pub fn item_grad_with_embeddings(&self, user_emb: &[f32], item_emb: &[f32]) -> Vec<f32> {
        let mut buf = Vec::with_capacity(3 * self.dim);
        self.build_input(user_emb, item_emb, &mut buf);
        let (_, cache) = self.mlp.forward(&buf);
        let d_input = self.mlp.backward_input_only(&cache, 1.0);
        self.split_input_grad(&d_input, user_emb, item_emb).1
    }

    /// Gradient of the logit w.r.t. the stored item embedding.
    pub fn item_grad_of_logit(&self, user_emb: &[f32], item: u32) -> Vec<f32> {
        self.item_grad_with_embeddings(user_emb, self.item_embedding(item))
    }

    /// Gradient of the logit w.r.t. the *user* embedding, everything else
    /// constant (hard-user mining needs this).
    pub fn user_grad_of_logit(&self, user_emb: &[f32], item: u32) -> Vec<f32> {
        let item_emb = self.item_embedding(item);
        let mut buf = Vec::with_capacity(3 * self.dim);
        self.build_input(user_emb, item_emb, &mut buf);
        let (_, cache) = self.mlp.forward(&buf);
        let d_input = self.mlp.backward_input_only(&cache, 1.0);
        self.split_input_grad(&d_input, user_emb, item_emb).0
    }

    /// Applies `v_j ← v_j − lr·g` for one item.
    pub fn apply_item_gradient(&mut self, item: u32, grad: &[f32], lr: f32) {
        frs_linalg::axpy(-lr, grad, self.items.row_mut(item as usize));
    }

    /// Applies MLP parameter gradients.
    pub fn apply_mlp_gradients(&mut self, grads: &MlpGradients, lr: f32) {
        self.mlp.apply_gradients(grads, lr);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn model() -> NcfModel {
        let mut rng = StdRng::seed_from_u64(3);
        NcfModel::new(6, 4, &[(12, 6), (6, 3)], 0.3, &mut rng)
    }

    #[test]
    fn logit_matches_forward() {
        let m = model();
        let u = [0.1, -0.2, 0.3, 0.05];
        let (logit, _) = m.forward(&u, 2);
        assert_eq!(m.logit(&u, 2), logit);
        assert_eq!(m.logit_with_embeddings(&u, m.item_embedding(2)), logit);
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn backward_splits_user_item_gradients() {
        let m = model();
        let u = [0.4, -0.1, 0.2, 0.3];
        let (_, cache) = m.forward(&u, 1);
        let mut d_user = vec![0.0; 4];
        let mut mlp_grads = m.mlp().zero_gradients();
        let d_item = m.backward(&u, 1, &cache, 1.0, &mut d_user, &mut mlp_grads);
        assert_eq!(d_item.len(), 4);

        // Finite-difference check of d_item (product rule included).
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
            assert!(
                (d_item[i] - fd).abs() < 1e-2,
                "item grad {i}: {} vs {fd}",
                d_item[i]
            );
        }

        // Finite-difference check of d_user.
        for i in 0..4 {
            let mut up_u = u;
            up_u[i] += eps;
            let mut dn_u = u;
            dn_u[i] -= eps;
            let fd = (m.logit(&up_u, 1) - m.logit(&dn_u, 1)) / (2.0 * eps);
            assert!(
                (d_user[i] - fd).abs() < 1e-2,
                "user grad {i}: {} vs {fd}",
                d_user[i]
            );
        }
    }

    #[test]
    fn item_grad_of_logit_matches_backward() {
        let m = model();
        let u = [0.2, 0.2, -0.3, 0.1];
        let (_, cache) = m.forward(&u, 4);
        let mut d_user = vec![0.0; 4];
        let mut g = m.mlp().zero_gradients();
        let via_backward = m.backward(&u, 4, &cache, 1.0, &mut d_user, &mut g);
        let direct = m.item_grad_of_logit(&u, 4);
        for (a, b) in via_backward.iter().zip(&direct) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn user_grad_matches_finite_difference() {
        let m = model();
        let u = [0.3, -0.25, 0.15, 0.2];
        let g = m.user_grad_of_logit(&u, 3);
        let eps = 1e-2;
        for i in 0..4 {
            let mut up = u;
            up[i] += eps;
            let mut dn = u;
            dn[i] -= eps;
            let fd = (m.logit(&up, 3) - m.logit(&dn, 3)) / (2.0 * eps);
            assert!((g[i] - fd).abs() < 1e-2, "coord {i}");
        }
    }

    #[test]
    fn score_is_multiplicative_not_additive() {
        // With product features, zeroing the user must change the *item
        // sensitivity* of the score: ∂logit/∂v at u and at 2u differ beyond
        // a constant — catch regressions to an additive scorer.
        let m = model();
        let u: Vec<f32> = vec![0.4, -0.3, 0.2, 0.5];
        let u2: Vec<f32> = u.iter().map(|x| 2.0 * x).collect();
        let g1 = m.item_grad_of_logit(&u, 0);
        let g2 = m.item_grad_of_logit(&u2, 0);
        let diff: f32 = g1.iter().zip(&g2).map(|(a, b)| (a - b).abs()).sum();
        assert!(diff > 1e-4, "item gradient must depend on the user: {diff}");
    }

    #[test]
    fn apply_gradients_moves_score() {
        let mut m = model();
        let u = [0.5, 0.5, 0.5, 0.5];
        let before = m.logit(&u, 0);
        let g = m.item_grad_of_logit(&u, 0);
        let neg: Vec<f32> = g.iter().map(|&x| -x).collect();
        m.apply_item_gradient(0, &neg, 0.5);
        assert!(m.logit(&u, 0) >= before);
    }
}
