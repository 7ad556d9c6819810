//! Row-major dense matrix used for embedding tables and MLP weights.
//!
//! Rows are the natural unit (one row = one item/user embedding, or one output
//! neuron's weights), so the API is row-centric: [`Matrix::row`],
//! [`Matrix::row_mut`], [`Matrix::rows_iter`]. Storage is a single contiguous
//! `Vec<f32>` for cache-friendly sweeps over all items — the popular-item
//! miner touches every row every round.

use rand::Rng;
use serde::{Deserialize, Error, Serialize, Value};

use crate::vector;

/// Dense row-major `rows × cols` matrix of `f32`.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// All-zeros matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Matrix from an existing row-major buffer. Panics if the buffer length
    /// does not equal `rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer/shape mismatch");
        Self { rows, cols, data }
    }

    /// Uniform random matrix in `[-limit, limit]`; the paper's base models use
    /// small uniform init for embeddings.
    pub fn uniform<R: Rng + ?Sized>(rows: usize, cols: usize, limit: f32, rng: &mut R) -> Self {
        let data = (0..rows * cols)
            .map(|_| rng.gen_range(-limit..=limit))
            .collect();
        Self { rows, cols, data }
    }

    /// Xavier/Glorot-uniform init for an MLP layer mapping `cols` inputs to
    /// `rows` outputs: `limit = sqrt(6 / (fan_in + fan_out))`.
    pub fn xavier_uniform<R: Rng + ?Sized>(rows: usize, cols: usize, rng: &mut R) -> Self {
        let limit = (6.0 / (rows + cols) as f32).sqrt();
        Self::uniform(rows, cols, limit, rng)
    }

    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Immutable view of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Iterator over all rows in index order.
    pub fn rows_iter(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks_exact(self.cols)
    }

    /// Raw row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable raw buffer (used by aggregation to apply dense updates).
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// `y = A · x` where `x` has length `cols`; output has length `rows`.
    pub fn matvec(&self, x: &[f32]) -> Vec<f32> {
        debug_assert_eq!(x.len(), self.cols);
        self.rows_iter().map(|row| vector::dot(row, x)).collect()
    }

    /// `y = Aᵀ · x` where `x` has length `rows`; output has length `cols`.
    /// Used by MLP backprop to push deltas through a layer.
    pub fn matvec_transposed(&self, x: &[f32]) -> Vec<f32> {
        let mut out = Vec::new();
        self.matvec_transposed_into(x, &mut out);
        out
    }

    /// [`Self::matvec_transposed`] into a caller-owned buffer: `out` becomes
    /// `cols` zeros, then gains `x[r] · row r` for each row in order.
    pub fn matvec_transposed_into(&self, x: &[f32], out: &mut Vec<f32>) {
        debug_assert_eq!(x.len(), self.rows);
        out.clear();
        out.resize(self.cols, 0.0);
        for (row, &xi) in self.rows_iter().zip(x) {
            vector::axpy(xi, row, out);
        }
    }

    /// Rank-1 accumulation `A += alpha · x · yᵀ` (outer product), the gradient
    /// of a dense layer: `∂L/∂W += delta · inputᵀ`.
    pub fn add_outer(&mut self, alpha: f32, x: &[f32], y: &[f32]) {
        debug_assert_eq!(x.len(), self.rows);
        debug_assert_eq!(y.len(), self.cols);
        for (r, &xi) in x.iter().enumerate() {
            vector::axpy(alpha * xi, y, self.row_mut(r));
        }
    }

    /// `A += alpha * B`, shape-checked.
    pub fn axpy_matrix(&mut self, alpha: f32, other: &Matrix) {
        assert_eq!(self.rows, other.rows);
        assert_eq!(self.cols, other.cols);
        vector::axpy(alpha, &other.data, &mut self.data);
    }

    /// Sets every entry to zero without reallocating; gradient buffers are
    /// reused across rounds.
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|v| *v = 0.0);
    }

    /// Frobenius norm of the whole matrix.
    pub fn frobenius_norm(&self) -> f32 {
        vector::l2_norm(&self.data)
    }
}

/// Reads the derived field layout back, and rejects a `data` that does not
/// hold exactly `rows · cols` floats (a product that overflows included), so
/// no row access of a decoded matrix can run past its data.
impl Deserialize for Matrix {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let obj = v
            .as_object()
            .ok_or_else(|| Error::new(format!("expected object for Matrix, got {}", v.kind())))?;
        let field = |name: &str| {
            obj.get(name)
                .ok_or_else(|| Error::new(format!("missing field `{name}` for Matrix")))
        };
        let rows = usize::from_value(field("rows")?)?;
        let cols = usize::from_value(field("cols")?)?;
        let data = Vec::<f32>::from_value(field("data")?)?;
        if rows.checked_mul(cols) != Some(data.len()) {
            return Err(Error::new(format!(
                "Matrix: {rows}×{cols} shape with {} floats of data",
                data.len()
            )));
        }
        Ok(Self { rows, cols, data })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zeros_has_right_shape() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 4);
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn row_views_are_disjoint_slices() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(m.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn matvec_small_example() {
        // [1 2; 3 4] * [1, 1] = [3, 7]
        let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.matvec(&[1.0, 1.0]), vec![3.0, 7.0]);
    }

    #[test]
    fn matvec_transposed_small_example() {
        // [1 2; 3 4]^T * [1, 1] = [4, 6]
        let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.matvec_transposed(&[1.0, 1.0]), vec![4.0, 6.0]);
    }

    #[test]
    fn transpose_consistency_xt_a_y() {
        // x^T (A y) == (A^T x)^T y for random-ish values.
        let m = Matrix::from_vec(2, 3, vec![0.5, -1.0, 2.0, 1.5, 0.0, -0.5]);
        let x = [0.7, -0.2];
        let y = [1.0, 2.0, 3.0];
        let lhs = vector::dot(&x, &m.matvec(&y));
        let rhs = vector::dot(&m.matvec_transposed(&x), &y);
        assert!((lhs - rhs).abs() < 1e-6);
    }

    #[test]
    fn add_outer_matches_manual() {
        let mut m = Matrix::zeros(2, 2);
        m.add_outer(2.0, &[1.0, 3.0], &[4.0, 5.0]);
        assert_eq!(m.as_slice(), &[8.0, 10.0, 24.0, 30.0]);
    }

    #[test]
    fn xavier_respects_limit() {
        let mut rng = StdRng::seed_from_u64(7);
        let m = Matrix::xavier_uniform(8, 16, &mut rng);
        let limit = (6.0 / 24.0f32).sqrt();
        assert!(m.as_slice().iter().all(|v| v.abs() <= limit + 1e-6));
        // Not all zero.
        assert!(m.frobenius_norm() > 0.0);
    }

    #[test]
    fn decoder_checks_the_shape() {
        let m = Matrix::from_vec(2, 3, (0..6).map(|x| x as f32).collect());
        assert_eq!(Matrix::from_value(&m.to_value()).unwrap(), m);
        let decode = |rows: usize, cols: usize, data: Vec<f32>| {
            let mut obj = serde::Map::new();
            obj.insert("rows".into(), rows.to_value());
            obj.insert("cols".into(), cols.to_value());
            obj.insert("data".into(), data.to_value());
            Matrix::from_value(&Value::Object(obj))
        };
        assert!(decode(3, 2, vec![0.5, 0.5]).is_err(), "short data");
        assert!(decode(1, 2, vec![0.5; 3]).is_err(), "long data");
        assert!(
            decode(usize::MAX, 2, Vec::new()).is_err(),
            "overflowing shape"
        );
        assert_eq!(decode(0, 4, Vec::new()).unwrap(), Matrix::zeros(0, 4));
        assert!(Matrix::from_value(&Value::Null).is_err());
    }

    #[test]
    fn fill_zero_resets() {
        let mut m = Matrix::from_vec(1, 2, vec![1.0, 2.0]);
        m.fill_zero();
        assert_eq!(m.as_slice(), &[0.0, 0.0]);
    }
}
