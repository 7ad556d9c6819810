//! Numerically stable activation functions shared by both base models.
//!
//! The BCE loss of Eq. (2) is computed in logit space: `log σ(x)` and
//! `log(1 − σ(x)) = log σ(−x)` go through [`log_sigmoid`], which never
//! produces `-inf` for the magnitudes seen during training.

/// Logistic sigmoid `σ(x) = 1 / (1 + e^{-x})`, stable for large `|x|`.
#[inline]
pub fn sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        let e = (-x).exp();
        1.0 / (1.0 + e)
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// `log σ(x)` computed without forming σ(x) first:
/// `log σ(x) = -softplus(-x) = -(log(1 + e^{-x}))` with the standard
/// max-trick for stability.
#[inline]
pub fn log_sigmoid(x: f32) -> f32 {
    // log σ(x) = min(x, 0) - log(1 + e^{-|x|})
    x.min(0.0) - (-x.abs()).exp().ln_1p()
}

/// Rectified linear unit, the hidden activation of the DL-FRS MLP (Eq. 1).
#[inline]
pub fn relu(x: f32) -> f32 {
    x.max(0.0)
}

/// Derivative of ReLU evaluated at the *pre-activation* value.
#[inline]
pub fn relu_grad(pre_activation: f32) -> f32 {
    if pre_activation > 0.0 {
        1.0
    } else {
        0.0
    }
}

/// Applies ReLU in place to a whole layer output.
#[inline]
pub fn relu_inplace(xs: &mut [f32]) {
    for x in xs.iter_mut() {
        *x = relu(*x);
    }
}

/// Leaky ReLU with slope `leak` on the negative side.
///
/// The DL-FRS MLP uses this with a small leak instead of a hard ReLU: at the
/// tiny widths of a simulated FRS (2–8 units), hard ReLU layers can die
/// completely at init — every unit negative for every input — which freezes
/// training and would silently corrupt unattended experiment sweeps. A 0.01
/// leak preserves Eq. (1)'s shape while guaranteeing gradient flow.
#[inline]
pub fn leaky_relu(x: f32, leak: f32) -> f32 {
    if x > 0.0 {
        x
    } else {
        leak * x
    }
}

/// Derivative of [`leaky_relu`] at the pre-activation value.
#[inline]
pub fn leaky_relu_grad(pre_activation: f32, leak: f32) -> f32 {
    if pre_activation > 0.0 {
        1.0
    } else {
        leak
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigmoid_midpoint() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-7);
    }

    #[test]
    fn sigmoid_symmetry() {
        for &x in &[0.1f32, 1.0, 3.5, 10.0] {
            assert!((sigmoid(x) + sigmoid(-x) - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn sigmoid_saturates_without_nan() {
        assert!((sigmoid(100.0) - 1.0).abs() < 1e-6);
        assert!(sigmoid(-100.0).abs() < 1e-6);
        assert!(sigmoid(1e4).is_finite());
        assert!(sigmoid(-1e4).is_finite());
    }

    #[test]
    fn log_sigmoid_matches_naive_in_safe_range() {
        for &x in &[-5.0f32, -1.0, 0.0, 1.0, 5.0] {
            let naive = sigmoid(x).ln();
            assert!((log_sigmoid(x) - naive).abs() < 1e-5, "x={x}");
        }
    }

    #[test]
    fn log_sigmoid_finite_at_extremes() {
        assert!(log_sigmoid(-1000.0).is_finite());
        assert!((log_sigmoid(1000.0)).abs() < 1e-6);
    }

    #[test]
    fn relu_and_grad() {
        assert_eq!(relu(-2.0), 0.0);
        assert_eq!(relu(3.0), 3.0);
        assert_eq!(relu_grad(-0.1), 0.0);
        assert_eq!(relu_grad(0.1), 1.0);
    }
}
