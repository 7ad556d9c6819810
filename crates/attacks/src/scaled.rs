//! Upload-scaling wrapper for malicious clients.
//!
//! An attacker controls its uploads completely, so multiplying them by a
//! constant is always within the threat model. The experiment harness uses
//! this to keep the poison-to-benign gradient ratio invariant when datasets
//! are scaled down: benign per-example gradients are normalized by `1/|D_i|`,
//! so shrinking a dataset by factor `s` makes each benign upload `1/s` times
//! stronger relative to an unscaled poison (README, "Attacks", says which
//! attacks the harness wraps).

use frs_federation::{Client, RoundContext};
use frs_model::{GlobalGradients, GlobalModel};

/// Wraps any malicious client, multiplies its uploads by `factor`, and
/// optionally caps the scaled upload's global L2 norm.
pub struct ScaledClient {
    inner: Box<dyn Client>,
    factor: f32,
    max_norm: Option<f32>,
}

impl ScaledClient {
    /// Wraps `inner`; `factor` must be positive and finite.
    pub fn new(inner: Box<dyn Client>, factor: f32) -> Self {
        assert!(
            factor > 0.0 && factor.is_finite(),
            "factor must be positive"
        );
        Self {
            inner,
            factor,
            max_norm: None,
        }
    }

    /// Additionally caps the (post-scaling) upload norm. Amplified
    /// gradient-style poison can otherwise enter a feedback loop — the
    /// poisoned embedding grows, the next round's gradient grows with it —
    /// that overflows `f32` and corrupts benign clients through their local
    /// updates. Real attackers bound their uploads for stealth anyway.
    pub fn with_cap(mut self, max_norm: f32) -> Self {
        assert!(
            max_norm > 0.0 && max_norm.is_finite(),
            "cap must be positive"
        );
        self.max_norm = Some(max_norm);
        self
    }
}

impl Client for ScaledClient {
    fn id(&self) -> usize {
        self.inner.id()
    }

    fn is_malicious(&self) -> bool {
        self.inner.is_malicious()
    }

    fn local_round(&mut self, ctx: &RoundContext, model: &GlobalModel) -> GlobalGradients {
        let mut upload = self.inner.local_round(ctx, model);
        if (self.factor - 1.0).abs() > f32::EPSILON {
            upload.scale(self.factor);
        }
        if let Some(cap) = self.max_norm {
            let norm = frs_federation::upload_norm(&upload);
            if norm > cap {
                upload.scale(cap / norm);
            }
        }
        upload
    }

    fn user_embedding(&self) -> Option<&[f32]> {
        self.inner.user_embedding()
    }

    fn checkpoint_state(&self) -> serde::Value {
        self.inner.checkpoint_state()
    }

    fn restore_state(&mut self, state: &serde::Value) -> Result<(), String> {
        self.inner.restore_state(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interaction::ARaClient;
    use frs_linalg::SeedStream;
    use frs_model::{LossKind, ModelConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn model() -> GlobalModel {
        GlobalModel::new(&ModelConfig::mf(4), 8, &mut StdRng::seed_from_u64(0))
    }

    fn ctx() -> RoundContext {
        RoundContext::new(0, 1.0, 1.0, 1, LossKind::Bce, SeedStream::new(0))
    }

    #[test]
    fn scales_every_item_gradient() {
        let m = model();
        let mut plain = ARaClient::new(5, vec![2], 8, 3);
        let mut scaled = ScaledClient::new(Box::new(ARaClient::new(5, vec![2], 8, 3)), 4.0);
        let g_plain = plain.local_round(&ctx(), &m);
        let g_scaled = scaled.local_round(&ctx(), &m);
        for (a, b) in g_plain.get(2).unwrap().iter().zip(g_scaled.get(2).unwrap()) {
            assert!((4.0 * a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn passes_identity_through() {
        let scaled = ScaledClient::new(Box::new(ARaClient::new(7, vec![1], 2, 0)), 2.0);
        assert_eq!(scaled.id(), 7);
        assert!(scaled.is_malicious());
        assert!(scaled.user_embedding().is_none());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_factor_rejected() {
        ScaledClient::new(Box::new(ARaClient::new(7, vec![1], 2, 0)), 0.0);
    }

    #[test]
    fn cap_bounds_upload_norm() {
        let m = model();
        let mut capped =
            ScaledClient::new(Box::new(ARaClient::new(5, vec![2], 8, 3)), 1000.0).with_cap(2.0);
        let g = capped.local_round(&ctx(), &m);
        let norm = frs_federation::upload_norm(&g);
        assert!(norm <= 2.0 + 1e-4, "norm {norm}");
        assert!(norm > 1.9, "cap should bind for a 1000x scale: {norm}");
    }
}
