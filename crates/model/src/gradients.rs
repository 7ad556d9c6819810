//! Gradient containers for the shared (global) model parameters.
//!
//! A client's upload is sparse over items — only items in its local round
//! dataset `D_i` (or, for attackers, the target items) carry gradients — plus,
//! for DL-FRS, dense MLP gradients. [`GlobalGradients`] is both the client
//! upload format and the server-side accumulator.
//!
//! # Layout
//!
//! An upload holds its item gradients the way the reference implementations
//! ship them, `(items, items_emb_grad)`: one strictly ascending id vector and
//! one row-major block of `dim` floats per id, in id order. This module is
//! the only code that knows that layout. Readers use [`GlobalGradients::get`],
//! [`GlobalGradients::iter`], [`GlobalGradients::row`] and the borrowed
//! [`GlobalGradients::ids`] / [`GlobalGradients::rows`] slices; writers use
//! [`GlobalGradients::add_item_grad`], [`GlobalGradients::rows_mut`],
//! [`GlobalGradients::axpy`], [`GlobalGradients::scale`] and
//! [`GlobalGradients::weighted_sum`].
//!
//! # Summation order
//!
//! The folds are pinned bit for bit (the `upload_layout` proptest checks them
//! against a per-item map fold):
//!
//! - [`GlobalGradients::add_item_grad`] copies an item's first row and adds
//!   each repeat in place, `acc += 1.0·g`, in push order.
//! - [`GlobalGradients::weighted_sum`] adds `α·g` for each upload, in upload
//!   order, into rows started at `-0.0`. `-0.0 + α·g` is `α·g` bit for bit,
//!   signed zeros included, so an item's first term equals the scaled copy
//!   that folding the uploads pairwise would make.

use frs_linalg::{vector, Matrix};
use serde::{Deserialize, Serialize};

/// Gradients of the NCF interaction parameters (`W_l`, `b_l`, `h` of Eq. 1).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MlpGradients {
    pub weights: Vec<Matrix>,
    pub biases: Vec<Vec<f32>>,
    pub projection: Vec<f32>,
}

impl MlpGradients {
    /// Zero gradients matching the given layer shapes and projection size.
    pub fn zeros(shapes: &[(usize, usize)], projection_len: usize) -> Self {
        Self {
            weights: shapes.iter().map(|&(i, o)| Matrix::zeros(o, i)).collect(),
            biases: shapes.iter().map(|&(_, o)| vec![0.0; o]).collect(),
            projection: vec![0.0; projection_len],
        }
    }

    /// `self += alpha * other`, shape-checked.
    pub fn axpy(&mut self, alpha: f32, other: &MlpGradients) {
        assert_eq!(self.weights.len(), other.weights.len());
        for (w, ow) in self.weights.iter_mut().zip(&other.weights) {
            w.axpy_matrix(alpha, ow);
        }
        for (b, ob) in self.biases.iter_mut().zip(&other.biases) {
            vector::axpy(alpha, ob, b);
        }
        vector::axpy(alpha, &other.projection, &mut self.projection);
    }

    /// Multiplies every gradient by `alpha`.
    pub fn scale(&mut self, alpha: f32) {
        for w in &mut self.weights {
            vector::scale(w.as_mut_slice(), alpha);
        }
        for b in &mut self.biases {
            vector::scale(b, alpha);
        }
        vector::scale(&mut self.projection, alpha);
    }

    /// Global L2 norm over all parameters (for NormBound-style clipping).
    pub fn l2_norm(&self) -> f32 {
        let mut sq = 0.0f32;
        for w in &self.weights {
            let n = w.frobenius_norm();
            sq += n * n;
        }
        for b in &self.biases {
            let n = vector::l2_norm(b);
            sq += n * n;
        }
        let n = vector::l2_norm(&self.projection);
        sq += n * n;
        sq.sqrt()
    }

    /// Clips the *global* norm to `max_norm`; returns the scaling applied.
    pub fn clip_l2_norm(&mut self, max_norm: f32) -> f32 {
        let norm = self.l2_norm();
        if norm > max_norm && norm > 0.0 {
            let factor = max_norm / norm;
            self.scale(factor);
            factor
        } else {
            1.0
        }
    }

    /// Flattens all parameters into one vector (Krum-style defenses compare
    /// whole uploads in a single Euclidean space).
    pub fn flatten(&self) -> Vec<f32> {
        let mut out = Vec::new();
        for w in &self.weights {
            out.extend_from_slice(w.as_slice());
        }
        for b in &self.biases {
            out.extend_from_slice(b);
        }
        out.extend_from_slice(&self.projection);
        out
    }

    /// Rebuilds gradients from a flat vector laid out by [`Self::flatten`],
    /// using `self` as the shape template. Panics on length mismatch.
    pub fn unflatten_like(&self, flat: &[f32]) -> MlpGradients {
        let mut offset = 0usize;
        let mut take = |len: usize| {
            let s = &flat[offset..offset + len];
            offset += len;
            s.to_vec()
        };
        let weights: Vec<Matrix> = self
            .weights
            .iter()
            .map(|w| Matrix::from_vec(w.rows(), w.cols(), take(w.rows() * w.cols())))
            .collect();
        let biases: Vec<Vec<f32>> = self.biases.iter().map(|b| take(b.len())).collect();
        let projection = take(self.projection.len());
        assert_eq!(offset, flat.len(), "flat gradient length mismatch");
        MlpGradients {
            weights,
            biases,
            projection,
        }
    }
}

/// A full gradient upload (or aggregate) for the global model: item
/// gradients over sorted ids plus optional MLP gradients.
///
/// Iteration runs in ascending item id, so server-side aggregation is
/// deterministic regardless of the order items were pushed in.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct GlobalGradients {
    /// Item ids, strictly ascending.
    ids: Vec<u32>,
    /// `ids.len() × dim` floats; row `k` belongs to `ids[k]`.
    rows: Vec<f32>,
    /// Row length, set by the first item; 0 while there is none.
    dim: usize,
    pub mlp: Option<MlpGradients>,
}

impl GlobalGradients {
    /// Empty upload.
    pub fn new() -> Self {
        Self::default()
    }

    /// Accumulates `grad` into item `item`'s row. The first push of an id
    /// copies the row, inserted at its sorted position; a repeat adds in place
    /// (`acc += 1.0·g`), so repeats fold in push order.
    ///
    /// # Panics
    ///
    /// If the upload already holds rows of another length.
    pub fn add_item_grad(&mut self, item: u32, grad: &[f32]) {
        if self.ids.is_empty() {
            self.dim = grad.len();
        }
        self.check_row(grad);
        let pos = self.ids.partition_point(|&id| id < item);
        let at = pos * self.dim;
        if self.ids.get(pos) == Some(&item) {
            vector::add_assign(&mut self.rows[at..at + self.dim], grad);
        } else {
            // Appending (a client's ascending positives, a shard's part)
            // rotates nothing.
            self.ids.insert(pos, item);
            self.rows.extend_from_slice(grad);
            self.rows[at..].rotate_right(self.dim);
        }
    }

    fn check_row(&self, grad: &[f32]) {
        assert!(
            grad.len() == self.dim,
            "item gradient of length {} in an upload of dim {}",
            grad.len(),
            self.dim
        );
    }

    /// Item `item`'s gradient row, if the upload holds one.
    pub fn get(&self, item: u32) -> Option<&[f32]> {
        let pos = self.ids.binary_search(&item).ok()?;
        Some(self.row(pos))
    }

    /// The row at position `pos` in [`Self::ids`] order.
    pub fn row(&self, pos: usize) -> &[f32] {
        &self.rows[pos * self.dim..(pos + 1) * self.dim]
    }

    /// `(item, gradient row)` pairs in ascending item id.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (u32, &[f32])> + '_ {
        self.ids
            .iter()
            .enumerate()
            .map(|(pos, &id)| (id, self.row(pos)))
    }

    /// The item ids, strictly ascending.
    pub fn ids(&self) -> &[u32] {
        &self.ids
    }

    /// The gradient rows, row-major: `dim` floats per id, in id order.
    pub fn rows(&self) -> &[f32] {
        &self.rows
    }

    /// The rows' length (0 while there are no items).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The gradient rows, writable in place; [`Self::rows`]' layout.
    pub fn rows_mut(&mut self) -> &mut [f32] {
        &mut self.rows
    }

    /// `self += alpha * other` over both item and MLP parts. An item only
    /// `other` holds becomes `alpha·g`; a shared one `acc + alpha·g`.
    pub fn axpy(&mut self, alpha: f32, other: &GlobalGradients) {
        *self = Self::weighted_sum([(1.0, &*self), (alpha, other)]);
    }

    /// `Σ α·u` over `(α, u)` terms, item and MLP parts alike, in one pass
    /// over the uploads: each item's row starts at `-0.0` and adds `α·g` for
    /// each upload holding it, in term order. That is bit for bit the fold
    /// `acc.axpy(α, u)` from an empty `acc` (see the module docs), without
    /// copying the accumulator once per upload.
    ///
    /// # Panics
    ///
    /// If two terms hold rows of different lengths.
    pub fn weighted_sum<'a>(terms: impl IntoIterator<Item = (f32, &'a GlobalGradients)>) -> Self {
        let terms: Vec<(f32, &GlobalGradients)> = terms.into_iter().collect();
        let mut ids: Vec<u32> = terms
            .iter()
            .flat_map(|(_, u)| u.ids.iter().copied())
            .collect();
        ids.sort_unstable();
        ids.dedup();
        let mut out = GlobalGradients {
            dim: terms
                .iter()
                .find(|(_, u)| !u.ids.is_empty())
                .map_or(0, |(_, u)| u.dim),
            ..Self::default()
        };
        let dim = out.dim;
        out.rows = vec![-0.0; ids.len() * dim];
        for &(alpha, upload) in &terms {
            // Both id lists ascend, so each lookup starts past the last hit.
            let mut lo = 0;
            for (id, grad) in upload.iter() {
                out.check_row(grad);
                let pos = lo + ids[lo..].partition_point(|&x| x < id);
                vector::axpy(alpha, grad, &mut out.rows[pos * dim..(pos + 1) * dim]);
                lo = pos + 1;
            }
            if let Some(m) = &upload.mlp {
                match &mut out.mlp {
                    Some(acc) => acc.axpy(alpha, m),
                    None => {
                        let mut m = m.clone();
                        m.scale(alpha);
                        out.mlp = Some(m);
                    }
                }
            }
        }
        out.ids = ids;
        out
    }

    /// Multiplies everything by `alpha`.
    pub fn scale(&mut self, alpha: f32) {
        vector::scale(&mut self.rows, alpha);
        if let Some(m) = &mut self.mlp {
            m.scale(alpha);
        }
    }

    /// Number of items carrying a gradient.
    pub fn n_items(&self) -> usize {
        self.ids.len()
    }

    /// True when there is nothing to upload.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty() && self.mlp.is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mlp_grads() -> MlpGradients {
        let mut g = MlpGradients::zeros(&[(4, 2), (2, 2)], 2);
        g.weights[0].row_mut(0)[0] = 1.0;
        g.biases[1][1] = 2.0;
        g.projection[0] = 3.0;
        g
    }

    #[test]
    fn mlp_zeros_shapes() {
        let g = MlpGradients::zeros(&[(4, 2), (2, 3)], 3);
        assert_eq!(g.weights[0].rows(), 2);
        assert_eq!(g.weights[0].cols(), 4);
        assert_eq!(g.biases[1].len(), 3);
        assert_eq!(g.projection.len(), 3);
    }

    #[test]
    fn mlp_axpy_and_scale() {
        let mut a = mlp_grads();
        let b = mlp_grads();
        a.axpy(2.0, &b);
        assert_eq!(a.weights[0].row(0)[0], 3.0);
        assert_eq!(a.biases[1][1], 6.0);
        a.scale(0.5);
        assert_eq!(a.projection[0], 4.5);
    }

    #[test]
    fn mlp_norm_and_clip() {
        let mut g = mlp_grads();
        let norm = g.l2_norm();
        assert!((norm - (1.0f32 + 4.0 + 9.0).sqrt()).abs() < 1e-6);
        g.clip_l2_norm(1.0);
        assert!((g.l2_norm() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn mlp_flatten_length() {
        let g = MlpGradients::zeros(&[(4, 2), (2, 3)], 3);
        assert_eq!(g.flatten().len(), 8 + 6 + 2 + 3 + 3);
    }

    #[test]
    fn mlp_flatten_roundtrip() {
        let g = mlp_grads();
        let flat = g.flatten();
        let back = g.unflatten_like(&flat);
        assert_eq!(g, back);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn unflatten_wrong_length_panics() {
        let g = mlp_grads();
        let mut flat = g.flatten();
        flat.push(0.0);
        g.unflatten_like(&flat);
    }

    #[test]
    fn item_grads_accumulate() {
        let mut g = GlobalGradients::new();
        g.add_item_grad(5, &[1.0, 2.0]);
        g.add_item_grad(5, &[0.5, 0.5]);
        g.add_item_grad(2, &[1.0, 0.0]);
        assert_eq!(g.get(5), Some(&[1.5, 2.5][..]));
        assert_eq!(g.n_items(), 2);
        assert_eq!(g.ids(), &[2, 5]);
        assert_eq!(g.rows(), &[1.0, 0.0, 1.5, 2.5]);
    }

    #[test]
    fn axpy_merges_disjoint_items() {
        let mut a = GlobalGradients::new();
        a.add_item_grad(1, &[1.0]);
        let mut b = GlobalGradients::new();
        b.add_item_grad(2, &[3.0]);
        a.axpy(2.0, &b);
        assert_eq!(a.get(1), Some(&[1.0][..]));
        assert_eq!(a.get(2), Some(&[6.0][..]));
    }

    #[test]
    fn iteration_order_is_item_order() {
        let mut g = GlobalGradients::new();
        g.add_item_grad(9, &[0.0]);
        g.add_item_grad(3, &[0.0]);
        g.add_item_grad(7, &[0.0]);
        let keys: Vec<u32> = g.iter().map(|(id, _)| id).collect();
        assert_eq!(keys, vec![3, 7, 9]);
    }

    #[test]
    #[should_panic(expected = "item gradient of length 3 in an upload of dim 2")]
    fn row_of_the_wrong_length_panics() {
        let mut g = GlobalGradients::new();
        g.add_item_grad(4, &[1.0, 2.0]);
        g.add_item_grad(9, &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn empty_checks() {
        let g = GlobalGradients::new();
        assert!(g.is_empty());
        let mut g2 = GlobalGradients::new();
        g2.mlp = Some(MlpGradients::zeros(&[(2, 1)], 1));
        assert!(!g2.is_empty());
    }
}
