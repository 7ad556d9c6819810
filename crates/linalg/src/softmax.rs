//! Softmax-based KL divergence between embedding vectors.
//!
//! The paper treats embeddings as distributions in two places: the PKL
//! similarity measure (Eq. 9) that motivates PIECK-UEA, and the `Re2` defense
//! regularizer (Eq. 15). An embedding is mapped onto the probability simplex
//! with a softmax, and KL is computed between the two resulting distributions:
//!
//! `KL(a ‖ b) := KL(softmax(a) ‖ softmax(b))`
//!
//! The analytic gradient with respect to the second argument's *logits* is
//! remarkably clean: `∂KL/∂b = softmax(b) − softmax(a)` (derived via the
//! log-softmax Jacobian), which is what the defense uses to push user
//! embeddings away from popular-item embeddings.

/// Softmax with the max-subtraction trick; output sums to 1.
pub fn softmax(logits: &[f32]) -> Vec<f32> {
    assert!(!logits.is_empty(), "softmax of empty vector");
    let max = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut out: Vec<f32> = logits.iter().map(|&x| (x - max).exp()).collect();
    let sum: f32 = out.iter().sum();
    for v in out.iter_mut() {
        *v /= sum;
    }
    out
}

/// Log-softmax, stable for large logits.
pub fn log_softmax(logits: &[f32]) -> Vec<f32> {
    assert!(!logits.is_empty(), "log_softmax of empty vector");
    let max = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let log_sum: f32 = logits.iter().map(|&x| (x - max).exp()).sum::<f32>().ln();
    logits.iter().map(|&x| x - max - log_sum).collect()
}

/// `KL(softmax(p_logits) ‖ softmax(q_logits))`, in nats. Always ≥ 0 and 0 iff
/// the two softmax distributions coincide.
pub fn kl_divergence(p_logits: &[f32], q_logits: &[f32]) -> f32 {
    debug_assert_eq!(p_logits.len(), q_logits.len());
    let p = softmax(p_logits);
    let log_p = log_softmax(p_logits);
    let log_q = log_softmax(q_logits);
    p.iter()
        .zip(log_p.iter().zip(log_q.iter()))
        .map(|(&pi, (&lpi, &lqi))| pi * (lpi - lqi))
        .sum::<f32>()
        .max(0.0) // guard tiny negative rounding
}

/// Gradient of [`kl_divergence`] with respect to `q_logits`:
/// `∂KL/∂q = softmax(q) − softmax(p)`.
pub fn kl_grad_wrt_q(p_logits: &[f32], q_logits: &[f32]) -> Vec<f32> {
    kl_grad_at_softmax_q(p_logits, &softmax(q_logits))
}

/// [`kl_grad_wrt_q`] given `q = softmax(q_logits)` already computed, for a
/// caller that takes the gradient at one `q` against many `p` (the Re2
/// regularizer).
pub fn kl_grad_at_softmax_q(p_logits: &[f32], q: &[f32]) -> Vec<f32> {
    debug_assert_eq!(p_logits.len(), q.len());
    let p = softmax(p_logits);
    q.iter().zip(p).map(|(&qi, pi)| qi - pi).collect()
}

/// Gradient of [`kl_divergence`] with respect to `p_logits`:
/// `∂KL/∂p_j = p_j · (log p_j − log q_j − KL)` where `p = softmax(p_logits)`.
///
/// Needed when the defense also regularizes popular-item embeddings (the
/// first KL argument) rather than treating them as constants.
pub fn kl_grad_wrt_p(p_logits: &[f32], q_logits: &[f32]) -> Vec<f32> {
    debug_assert_eq!(p_logits.len(), q_logits.len());
    let p = softmax(p_logits);
    let log_p = log_softmax(p_logits);
    let log_q = log_softmax(q_logits);
    let kl: f32 = p
        .iter()
        .zip(log_p.iter().zip(log_q.iter()))
        .map(|(&pi, (&lpi, &lqi))| pi * (lpi - lqi))
        .sum();
    p.iter()
        .zip(log_p.iter().zip(log_q.iter()))
        .map(|(&pi, (&lpi, &lqi))| pi * (lpi - lqi - kl))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finite_diff(f: impl Fn(&[f32]) -> f32, x: &[f32], eps: f32) -> Vec<f32> {
        (0..x.len())
            .map(|i| {
                let mut xp = x.to_vec();
                xp[i] += eps;
                let mut xm = x.to_vec();
                xm[i] -= eps;
                (f(&xp) - f(&xm)) / (2.0 * eps)
            })
            .collect()
    }

    #[test]
    fn softmax_sums_to_one() {
        let s = softmax(&[1.0, 2.0, 3.0]);
        assert!((s.iter().sum::<f32>() - 1.0).abs() < 1e-6);
        assert!(s.iter().all(|&p| p > 0.0));
        // Monotone in logits.
        assert!(s[0] < s[1] && s[1] < s[2]);
    }

    #[test]
    fn softmax_shift_invariant() {
        let a = softmax(&[1.0, 2.0, 3.0]);
        let b = softmax(&[101.0, 102.0, 103.0]);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn softmax_stable_for_huge_logits() {
        let s = softmax(&[1e4, 0.0, -1e4]);
        assert!(s.iter().all(|v| v.is_finite()));
        assert!((s[0] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn log_softmax_is_log_of_softmax() {
        let logits = [0.5f32, -1.5, 2.0, 0.0];
        let s = softmax(&logits);
        let ls = log_softmax(&logits);
        for (p, lp) in s.iter().zip(&ls) {
            assert!((p.ln() - lp).abs() < 1e-5);
        }
    }

    #[test]
    fn kl_self_is_zero() {
        let a = [0.4f32, -1.0, 2.2];
        assert!(kl_divergence(&a, &a) < 1e-7);
        // Shift invariance of softmax ⇒ shifted logits also give 0.
        let b = [1.4f32, 0.0, 3.2];
        assert!(kl_divergence(&a, &b) < 1e-6);
    }

    #[test]
    fn kl_is_nonnegative_and_asymmetric() {
        let a = [2.0f32, 0.0, -1.0];
        let b = [-1.0f32, 1.0, 0.5];
        let kab = kl_divergence(&a, &b);
        let kba = kl_divergence(&b, &a);
        assert!(kab > 0.0);
        assert!(kba > 0.0);
        assert!((kab - kba).abs() > 1e-4, "KL should be asymmetric here");
    }

    #[test]
    fn kl_grad_q_matches_finite_difference() {
        let p = [0.3f32, -0.8, 1.2, 0.0];
        let q = [1.0f32, 0.5, -0.5, 0.2];
        let grad = kl_grad_wrt_q(&p, &q);
        let fd = finite_diff(|qq| kl_divergence(&p, qq), &q, 1e-3);
        for (g, f) in grad.iter().zip(&fd) {
            assert!((g - f).abs() < 1e-3, "analytic {g} vs fd {f}");
        }
    }

    #[test]
    fn kl_grad_p_matches_finite_difference() {
        let p = [0.3f32, -0.8, 1.2, 0.0];
        let q = [1.0f32, 0.5, -0.5, 0.2];
        let grad = kl_grad_wrt_p(&p, &q);
        let fd = finite_diff(|pp| kl_divergence(pp, &q), &p, 1e-3);
        for (g, f) in grad.iter().zip(&fd) {
            assert!((g - f).abs() < 1e-3, "analytic {g} vs fd {f}");
        }
    }
}
