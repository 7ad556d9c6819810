//! Matrix-factorization global model (MF-FRS).
//!
//! The global model is exactly the item-embedding table; the interaction
//! function is the fixed dot product `Ψ_MF(u, v) = u ⊙ v` — nothing else is
//! shared, which is why interaction-function attacks (A-RA/A-HUM) are inert
//! against it (paper Table I).

use frs_linalg::{vector, Matrix};
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::lanes::{fold_lanes, ItemLanes, LANES};

/// MF-FRS global parameters: one embedding row per item.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MfModel {
    items: Matrix,
}

impl MfModel {
    /// Uniformly initialized item table (`U(−scale, scale)`).
    pub fn new<R: Rng + ?Sized>(n_items: usize, dim: usize, scale: f32, rng: &mut R) -> Self {
        Self {
            items: Matrix::uniform(n_items, dim, scale, rng),
        }
    }

    #[inline]
    pub fn n_items(&self) -> usize {
        self.items.rows()
    }

    #[inline]
    pub fn dim(&self) -> usize {
        self.items.cols()
    }

    #[inline]
    pub fn item_embedding(&self, item: u32) -> &[f32] {
        self.items.row(item as usize)
    }

    #[inline]
    pub fn item_embedding_mut(&mut self, item: u32) -> &mut [f32] {
        self.items.row_mut(item as usize)
    }

    /// The whole table (the popular-item miner diffs it round to round).
    #[inline]
    pub fn items(&self) -> &Matrix {
        &self.items
    }

    /// Raw score `u · v_j`.
    #[inline]
    pub fn logit(&self, user_emb: &[f32], item: u32) -> f32 {
        vector::dot(user_emb, self.item_embedding(item))
    }

    /// Logits of every item in `lanes` for one user, `LANES` items at a
    /// time: eight [`Self::logit`] folds (`-0.0 + u₀v₀ + u₁v₁ + …`) side by
    /// side, each bitwise-identical to the per-item call.
    pub(crate) fn scores_for_user_into(
        &self,
        lanes: &ItemLanes,
        user_emb: &[f32],
        out: &mut Vec<f32>,
    ) {
        lanes.score_into(out, |block| {
            let mut acc = [-0.0; LANES];
            fold_lanes(&mut acc, user_emb, block);
            acc
        });
    }

    /// Per-example backward: given `delta = ∂L/∂logit`, accumulates
    /// `∂L/∂u += delta·v` into `d_user` and returns `∂L/∂v = delta·u`.
    pub fn backward(
        &self,
        user_emb: &[f32],
        item: u32,
        delta: f32,
        d_user: &mut [f32],
    ) -> Vec<f32> {
        let v = self.item_embedding(item);
        vector::axpy(delta, v, d_user);
        user_emb.iter().map(|&ui| delta * ui).collect()
    }

    /// Gradient of the logit w.r.t. the item embedding with the "user" side
    /// held constant — the poisonous-gradient primitive of Eq. (5).
    pub fn item_grad_of_logit(&self, user_emb: &[f32], _item: u32) -> Vec<f32> {
        user_emb.to_vec()
    }

    /// Applies `v_j ← v_j − lr·g` for one item.
    pub fn apply_item_gradient(&mut self, item: u32, grad: &[f32], lr: f32) {
        vector::axpy(-lr, grad, self.items.row_mut(item as usize));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn model() -> MfModel {
        MfModel::new(5, 3, 0.5, &mut StdRng::seed_from_u64(1))
    }

    #[test]
    fn logit_is_dot_product() {
        let m = model();
        let u = [1.0, 2.0, 3.0];
        let expect = vector::dot(&u, m.item_embedding(2));
        assert_eq!(m.logit(&u, 2), expect);
    }

    #[test]
    fn backward_returns_scaled_user() {
        let m = model();
        let u = [1.0, -1.0, 0.5];
        let mut d_user = vec![0.0; 3];
        let d_item = m.backward(&u, 1, 2.0, &mut d_user);
        assert_eq!(d_item, vec![2.0, -2.0, 1.0]);
        // d_user = delta * v.
        let v = m.item_embedding(1);
        for i in 0..3 {
            assert!((d_user[i] - 2.0 * v[i]).abs() < 1e-6);
        }
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn backward_matches_finite_difference() {
        let mut m = model();
        let u = [0.3, -0.8, 0.2];
        let mut d_user = vec![0.0; 3];
        let d_item = m.backward(&u, 0, 1.0, &mut d_user);
        let eps = 1e-3;
        for i in 0..3 {
            let orig = m.item_embedding(0)[i];
            m.item_embedding_mut(0)[i] = orig + eps;
            let up = m.logit(&u, 0);
            m.item_embedding_mut(0)[i] = orig - eps;
            let dn = m.logit(&u, 0);
            m.item_embedding_mut(0)[i] = orig;
            assert!((d_item[i] - (up - dn) / (2.0 * eps)).abs() < 1e-3);
        }
    }

    #[test]
    fn apply_item_gradient_descends() {
        let mut m = model();
        let u = [1.0, 1.0, 1.0];
        let before = m.logit(&u, 3);
        // Gradient of −logit w.r.t. v is −u; applying it should raise the score.
        let grad: Vec<f32> = u.iter().map(|&x| -x).collect();
        m.apply_item_gradient(3, &grad, 0.1);
        assert!(m.logit(&u, 3) > before);
    }
}
