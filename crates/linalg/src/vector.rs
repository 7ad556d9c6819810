//! Embedding-vector operations.
//!
//! All functions take plain `&[f32]` slices so they compose with embeddings
//! stored inside [`crate::Matrix`] rows, gradient buffers, or standalone
//! `Vec<f32>`s without copies. Lengths are asserted in debug builds; the hot
//! paths are branch-free loops the compiler auto-vectorizes.

/// Dot product of two equal-length vectors.
///
/// This is the fixed interaction function `Ψ_MF(u, v) = u ⊙ v` of MF-FRS
/// (paper Section III-A).
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Euclidean (L2) norm.
#[inline]
pub fn l2_norm(a: &[f32]) -> f32 {
    dot(a, a).sqrt()
}

/// Squared Euclidean distance `‖a − b‖²`, avoiding the sqrt when only
/// comparisons are needed (Krum scoring).
#[inline]
pub fn squared_l2_distance(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Euclidean distance `‖a − b‖`. This is the Δ-Norm of Eq. (7) when `a` and
/// `b` are the same item's embedding at consecutive rounds.
#[inline]
pub fn l2_distance(a: &[f32], b: &[f32]) -> f32 {
    squared_l2_distance(a, b).sqrt()
}

/// Cosine similarity, returning 0 when either vector is (numerically) zero so
/// freshly-initialized embeddings never produce NaNs in attack losses.
#[inline]
pub fn cosine(a: &[f32], b: &[f32]) -> f32 {
    let na = l2_norm(a);
    let nb = l2_norm(b);
    if na <= f32::EPSILON || nb <= f32::EPSILON {
        return 0.0;
    }
    (dot(a, b) / (na * nb)).clamp(-1.0, 1.0)
}

/// `y ← y + alpha * x` (BLAS `axpy`). The workhorse of every gradient update.
#[inline]
pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    debug_assert_eq!(x.len(), y.len());
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// `y ← y + x`.
#[inline]
pub fn add_assign(y: &mut [f32], x: &[f32]) {
    axpy(1.0, x, y);
}

/// `a ← alpha * a`.
#[inline]
pub fn scale(a: &mut [f32], alpha: f32) {
    for v in a.iter_mut() {
        *v *= alpha;
    }
}

/// Returns `a − b` as a new vector.
#[inline]
pub fn sub(a: &[f32], b: &[f32]) -> Vec<f32> {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x - y).collect()
}

/// Rescales `a` in place so its L2 norm does not exceed `max_norm`.
///
/// Used by the NormBound defense \[33\] and by clients that clip their own
/// uploads. Returns the factor applied (1.0 when no clipping happened).
pub fn clip_l2_norm(a: &mut [f32], max_norm: f32) -> f32 {
    let norm = l2_norm(a);
    if norm > max_norm && norm > 0.0 {
        let factor = max_norm / norm;
        scale(a, factor);
        factor
    } else {
        1.0
    }
}

/// Gradient of `cos(a, b)` with respect to `b`, with `a` held constant.
///
/// `∂cos/∂b = a/(‖a‖‖b‖) − cos(a,b) · b/‖b‖²`.
///
/// This drives the IPE alignment loss (Eq. 8) and the Re1 defense regularizer
/// (Eq. 14). Returns a zero vector when either input is numerically zero.
pub fn cosine_grad_wrt_b(a: &[f32], b: &[f32]) -> Vec<f32> {
    match CosineGrad::new(a, l2_norm(a), b, l2_norm(b)) {
        Some(grad) => a.iter().zip(b).map(|(&ai, &bi)| grad.at(ai, bi)).collect(),
        None => vec![0.0; b.len()],
    }
}

/// The scalars of [`cosine_grad_wrt_b`] for one pair, given `na = ‖a‖` and
/// `nb = ‖b‖`, so a caller that pairs one vector with many computes its
/// norm once (the Re1 regularizer pairs every unpopular item with every
/// popular one).
#[derive(Debug, Clone, Copy)]
pub struct CosineGrad {
    cos: f32,
    inv_ab: f32,
    inv_bb: f32,
}

impl CosineGrad {
    /// `None` when either norm is at most `f32::EPSILON`: the gradient is
    /// then `+0.0` in every coordinate.
    pub fn new(a: &[f32], na: f32, b: &[f32], nb: f32) -> Option<Self> {
        debug_assert_eq!(a.len(), b.len());
        if na <= f32::EPSILON || nb <= f32::EPSILON {
            return None;
        }
        Some(Self {
            cos: (dot(a, b) / (na * nb)).clamp(-1.0, 1.0),
            inv_ab: 1.0 / (na * nb),
            inv_bb: 1.0 / (nb * nb),
        })
    }

    /// Coordinate `i` of the gradient, from `a[i]` and `b[i]`.
    #[inline]
    pub fn at(&self, ai: f32, bi: f32) -> f32 {
        ai * self.inv_ab - self.cos * bi * self.inv_bb
    }
}

/// Mean of a collection of equal-length vectors. Panics on an empty input —
/// callers decide what an empty aggregate means.
pub fn mean_vector(vectors: &[&[f32]]) -> Vec<f32> {
    assert!(!vectors.is_empty(), "mean_vector: empty input");
    let dim = vectors[0].len();
    let mut out = vec![0.0f32; dim];
    for v in vectors {
        add_assign(&mut out, v);
    }
    scale(&mut out, 1.0 / vectors.len() as f32);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_basic() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    fn l2_norm_matches_pythagoras() {
        assert!((l2_norm(&[3.0, 4.0]) - 5.0).abs() < 1e-6);
        assert_eq!(l2_norm(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn distance_is_norm_of_difference() {
        let a = [1.0, 2.0, -1.0];
        let b = [0.5, -2.0, 3.0];
        let d = sub(&a, &b);
        assert!((l2_distance(&a, &b) - l2_norm(&d)).abs() < 1e-6);
    }

    #[test]
    fn cosine_identical_is_one() {
        let a = [0.3, -0.7, 2.0];
        assert!((cosine(&a, &a) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn cosine_opposite_is_minus_one() {
        let a = [1.0, 2.0];
        let b = [-2.0, -4.0];
        assert!((cosine(&a, &b) + 1.0).abs() < 1e-6);
    }

    #[test]
    fn cosine_orthogonal_is_zero() {
        assert!(cosine(&[1.0, 0.0], &[0.0, 5.0]).abs() < 1e-7);
    }

    #[test]
    fn cosine_zero_vector_is_zero_not_nan() {
        assert_eq!(cosine(&[0.0, 0.0], &[1.0, 2.0]), 0.0);
    }

    #[test]
    fn axpy_accumulates() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[3.0, -1.0], &mut y);
        assert_eq!(y, vec![7.0, -1.0]);
    }

    #[test]
    fn clip_leaves_small_vectors_alone() {
        let mut a = vec![0.3, 0.4];
        let f = clip_l2_norm(&mut a, 1.0);
        assert_eq!(f, 1.0);
        assert_eq!(a, vec![0.3, 0.4]);
    }

    #[test]
    fn clip_rescales_large_vectors() {
        let mut a = vec![3.0, 4.0];
        clip_l2_norm(&mut a, 1.0);
        assert!((l2_norm(&a) - 1.0).abs() < 1e-6);
        // Direction preserved.
        assert!((a[0] / a[1] - 0.75).abs() < 1e-6);
    }

    #[test]
    fn cosine_grad_matches_finite_difference() {
        let a = [0.8, -0.4, 1.3, 0.1];
        let b = [0.2, 0.9, -0.5, 0.7];
        let grad = cosine_grad_wrt_b(&a, &b);
        let eps = 1e-3;
        for i in 0..b.len() {
            let mut bp = b;
            bp[i] += eps;
            let mut bm = b;
            bm[i] -= eps;
            let fd = (cosine(&a, &bp) - cosine(&a, &bm)) / (2.0 * eps);
            assert!(
                (grad[i] - fd).abs() < 1e-3,
                "coord {i}: analytic {} vs fd {fd}",
                grad[i]
            );
        }
    }

    #[test]
    fn mean_vector_averages() {
        let a = vec![1.0f32, 3.0];
        let b = vec![3.0f32, 5.0];
        let m = mean_vector(&[&a, &b]);
        assert_eq!(m, vec![2.0, 4.0]);
    }
}
