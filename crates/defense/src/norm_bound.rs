//! NormBound \[33\]: clip each *whole upload's* L2 norm, then sum.
//!
//! Bounding per-client influence is the classic backdoor mitigation. A benign
//! upload spreads its norm across dozens of items, so per-item it loses
//! little; a poisonous upload concentrates a huge gradient on one target item
//! and gets crushed by the clip. It still fails in expectation when poisonous
//! *clients* outnumber benign uploaders of the target (Eq. 11) and the
//! attacker keeps its norm under the bound.

use frs_federation::{upload_norm, Aggregator};
use frs_model::GlobalGradients;

/// The clipping aggregator.
#[derive(Debug, Clone, Copy)]
pub struct NormBound {
    /// Maximum allowed L2 norm per upload (items + MLP jointly).
    pub threshold: f32,
}

impl NormBound {
    /// Creates the defense with the given clipping threshold.
    pub fn new(threshold: f32) -> Self {
        assert!(
            threshold > 0.0 && threshold.is_finite(),
            "threshold must be positive"
        );
        Self { threshold }
    }
}

impl Aggregator for NormBound {
    fn aggregate(&self, uploads: &[GlobalGradients]) -> GlobalGradients {
        GlobalGradients::weighted_sum(uploads.iter().map(|upload| {
            let norm = upload_norm(upload);
            let factor = if norm > self.threshold {
                self.threshold / norm
            } else {
                1.0
            };
            (factor, upload)
        }))
    }

    fn name(&self) -> &'static str {
        "NormBound"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn upload(pairs: &[(u32, Vec<f32>)]) -> GlobalGradients {
        let mut g = GlobalGradients::new();
        for (item, grad) in pairs {
            g.add_item_grad(*item, grad);
        }
        g
    }

    #[test]
    fn small_uploads_pass_through() {
        let nb = NormBound::new(10.0);
        let out = nb.aggregate(&[
            upload(&[(0, vec![1.0, 0.0])]),
            upload(&[(0, vec![0.0, 2.0])]),
        ]);
        assert_eq!(out.get(0).unwrap(), vec![1.0, 2.0]);
    }

    #[test]
    fn oversized_upload_clipped_to_threshold() {
        let nb = NormBound::new(1.0);
        let out = nb.aggregate(&[upload(&[(0, vec![30.0, 40.0])])]); // norm 50
        assert!((out.get(0).unwrap()[0] - 0.6).abs() < 1e-6);
        assert!((out.get(0).unwrap()[1] - 0.8).abs() < 1e-6);
    }

    #[test]
    fn clip_is_per_upload_not_per_item() {
        // One upload spreading norm over two items is clipped jointly.
        let nb = NormBound::new(5.0);
        let out = nb.aggregate(&[upload(&[(0, vec![6.0, 0.0]), (1, vec![8.0, 0.0])])]);
        // ‖(6, 8)‖ = 10 → factor 0.5.
        assert!((out.get(0).unwrap()[0] - 3.0).abs() < 1e-5);
        assert!((out.get(1).unwrap()[0] - 4.0).abs() < 1e-5);
    }

    #[test]
    fn attacker_influence_bounded() {
        let nb = NormBound::new(0.5);
        let benign: Vec<GlobalGradients> = (0..9).map(|_| upload(&[(0, vec![0.1, 0.0])])).collect();
        let mut all = benign;
        all.push(upload(&[(0, vec![1000.0, -1000.0])]));
        let out = nb.aggregate(&all);
        let d = frs_linalg::l2_distance(out.get(0).unwrap(), &[0.9, 0.0]);
        assert!(d <= 0.5 + 1e-5, "attacker moved aggregate by {d}");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_threshold_rejected() {
        NormBound::new(0.0);
    }
}
