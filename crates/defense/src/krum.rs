//! Krum, MultiKrum \[5\], and Bulyan \[25\] over whole uploads.
//!
//! These defenses compare *entire client uploads* in one Euclidean space
//! (items absent from an upload count as zero — see
//! [`frs_federation::upload_squared_distance`]):
//!
//! - **Krum** scores each upload by the sum of squared distances to its
//!   `n − f − 2` nearest neighbours and applies only the minimum-score
//!   upload. One honest client's gradients per round ⇒ strong filtering,
//!   slow learning (the paper's Table IV: ER 0, lowest HR of all defenses).
//! - **MultiKrum** keeps the `n − 2f` best-scoring uploads and sums them —
//!   much better quality, but a poison cluster whose norm resembles benign
//!   uploads slips through the looser selection.
//! - **Bulyan** applies MultiKrum selection, then a per-item coordinate
//!   trimmed mean over the selected uploads.
//!
//! All three fall back to plain summation when the round is too small for
//! the rule (`n ≤ f + 2`).
//!
//! All three consume the *same* shared pairwise-distance layer: one
//! [`frs_federation::upload_distance_matrix`] per round (an item-major sweep
//! over every upload's borrowed rows, see
//! [`frs_linalg::DistanceMatrix::from_uploads`]), with
//! [`frs_linalg::DistanceMatrix::krum_scores`] on top. MultiKrum and Bulyan
//! then take the same `m` best `(score, index)` pairs, and Bulyan trims its
//! selection through the coordinate-wise kernel Median and TrimmedMean use
//! (`median.rs`). Every path is bitwise-identical to the original scalar
//! implementation — the `kernel-parity` CI job and the golden tests in
//! `tests/krum_parity.rs` and `tests/coordinate_parity.rs` pin that.

use frs_federation::{sum_uploads, upload_distance_matrix, Aggregator};
use frs_linalg::CoordinateStat;
use frs_model::GlobalGradients;

use crate::median::reduce_uploads;

/// Krum score per upload as `(upload index, score)` pairs, via the round's
/// shared distance matrix. `None` when the rule is undefined for `n`.
fn krum_scores(uploads: &[GlobalGradients], f: usize) -> Option<Vec<(usize, f32)>> {
    upload_distance_matrix(uploads).krum_scores(f)
}

/// Indices of the `m` lowest-scoring uploads (ties by index).
fn best_m(scores: &[(usize, f32)], m: usize) -> Vec<usize> {
    let mut order = scores.to_vec();
    order.sort_unstable_by(|(ai, a), (bi, b)| a.total_cmp(b).then(ai.cmp(bi)));
    order.truncate(m.max(1));
    order.into_iter().map(|(i, _)| i).collect()
}

/// Assumed malicious upload count among `n` for a configured ratio.
fn f_of(n: usize, ratio: f64) -> usize {
    ((n as f64) * ratio).ceil() as usize
}

/// Classic Krum: apply the single most central upload.
#[derive(Debug, Clone, Copy)]
pub struct Krum {
    /// Assumed malicious fraction `p̃`.
    pub malicious_ratio: f64,
}

impl Krum {
    /// Creates the defense for an assumed malicious ratio in `[0, 0.5)`.
    pub fn new(malicious_ratio: f64) -> Self {
        assert!(
            (0.0..0.5).contains(&malicious_ratio),
            "ratio must be in [0, 0.5)"
        );
        Self { malicious_ratio }
    }
}

impl Aggregator for Krum {
    fn aggregate(&self, uploads: &[GlobalGradients]) -> GlobalGradients {
        let f = f_of(uploads.len(), self.malicious_ratio);
        match krum_scores(uploads, f) {
            Some(scores) => {
                // One representative upload stands in for the whole batch;
                // rescale to sum magnitude (see median.rs for the rationale).
                let mut chosen = uploads[best_m(&scores, 1)[0]].clone();
                chosen.scale(uploads.len() as f32);
                chosen
            }
            None => sum_uploads(uploads),
        }
    }

    fn name(&self) -> &'static str {
        "Krum"
    }
}

/// MultiKrum: sum the `n − 2f` most central uploads.
#[derive(Debug, Clone, Copy)]
pub struct MultiKrum {
    /// Assumed malicious fraction `p̃`.
    pub malicious_ratio: f64,
}

impl MultiKrum {
    /// Creates the defense for an assumed malicious ratio in `[0, 0.5)`.
    pub fn new(malicious_ratio: f64) -> Self {
        assert!(
            (0.0..0.5).contains(&malicious_ratio),
            "ratio must be in [0, 0.5)"
        );
        Self { malicious_ratio }
    }
}

/// The `n − 2f` best-scoring uploads in `(score, index)` order — the
/// selection MultiKrum sums and Bulyan trims — or `None` when the Krum
/// score is undefined for `n`.
fn multikrum_select(
    uploads: &[GlobalGradients],
    malicious_ratio: f64,
) -> Option<impl Iterator<Item = &GlobalGradients> + Clone> {
    let n = uploads.len();
    let f = f_of(n, malicious_ratio);
    let scores = krum_scores(uploads, f)?;
    let m = n.saturating_sub(2 * f).max(1);
    Some(best_m(&scores, m).into_iter().map(|i| &uploads[i]))
}

impl Aggregator for MultiKrum {
    fn aggregate(&self, uploads: &[GlobalGradients]) -> GlobalGradients {
        match multikrum_select(uploads, self.malicious_ratio) {
            Some(selected) => GlobalGradients::weighted_sum(selected.map(|u| (1.0, u))),
            None => sum_uploads(uploads),
        }
    }

    fn name(&self) -> &'static str {
        "MultiKrum"
    }
}

/// Bulyan: MultiKrum selection, then per-item coordinate trimmed mean scaled
/// back to sum magnitude (so learning speed stays comparable).
#[derive(Debug, Clone, Copy)]
pub struct Bulyan {
    /// Assumed malicious fraction `p̃`.
    pub malicious_ratio: f64,
}

impl Bulyan {
    /// Creates the defense for an assumed malicious ratio in `[0, 0.5)`.
    pub fn new(malicious_ratio: f64) -> Self {
        assert!(
            (0.0..0.5).contains(&malicious_ratio),
            "ratio must be in [0, 0.5)"
        );
        Self { malicious_ratio }
    }
}

impl Aggregator for Bulyan {
    fn aggregate(&self, uploads: &[GlobalGradients]) -> GlobalGradients {
        let Some(selected) = multikrum_select(uploads, self.malicious_ratio) else {
            return sum_uploads(uploads);
        };
        // Trimmed mean per item over the selected uploads — the trim budget
        // is proportional to the item's uploader count (a global `f` would
        // always degenerate to a median for sparsely-uploaded items) —
        // rescaled by the kept count to keep sum-like magnitude.
        reduce_uploads(selected, |c| {
            let trim =
                (((c as f64) * self.malicious_ratio).ceil() as usize).min(c.saturating_sub(1) / 2);
            let kept = c.saturating_sub(2 * trim).max(1) as f32;
            (CoordinateStat::TrimmedMean { trim }, kept)
        })
    }

    fn name(&self) -> &'static str {
        "Bulyan"
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

    /// 6 benign uploads over overlapping items + 2 poison uploads that hammer
    /// a single cold item with a large gradient.
    fn round_uploads() -> Vec<GlobalGradients> {
        let mut v = vec![
            upload(&[(0, vec![0.1, 0.0]), (1, vec![0.05, 0.02])]),
            upload(&[(0, vec![0.09, 0.01]), (2, vec![0.03, 0.0])]),
            upload(&[(1, vec![0.04, 0.03]), (2, vec![0.02, 0.01])]),
            upload(&[(0, vec![0.11, -0.01]), (1, vec![0.06, 0.01])]),
            upload(&[(0, vec![0.1, 0.02]), (2, vec![0.04, 0.02])]),
            upload(&[(1, vec![0.05, 0.0]), (2, vec![0.03, 0.01])]),
        ];
        v.push(upload(&[(9, vec![8.0, -8.0])]));
        v.push(upload(&[(9, vec![8.1, -7.9])]));
        v
    }

    #[test]
    fn krum_selects_a_benign_upload() {
        let uploads = round_uploads();
        let out = Krum::new(0.25).aggregate(&uploads);
        assert!(
            out.get(9).is_none(),
            "the poison-only item must be filtered: {:?}",
            out.ids()
        );
    }

    #[test]
    fn krum_output_is_a_rescaled_upload() {
        let uploads = round_uploads();
        let out = Krum::new(0.25).aggregate(&uploads);
        let n = uploads.len() as f32;
        assert!(uploads.iter().any(|u| {
            let mut scaled = u.clone();
            scaled.scale(n);
            scaled == out
        }));
    }

    #[test]
    fn krum_falls_back_to_sum_for_tiny_rounds() {
        let uploads = vec![upload(&[(0, vec![1.0])]), upload(&[(0, vec![3.0])])];
        let out = Krum::new(0.2).aggregate(&uploads);
        assert_eq!(out.get(0), Some(&[4.0][..]));
    }

    #[test]
    fn multikrum_keeps_most_uploads() {
        let uploads = round_uploads();
        let out = MultiKrum::new(0.25).aggregate(&uploads);
        // n=8, f=2 → m=4 central uploads summed; benign items survive.
        assert!(out.get(0).is_some());
        assert!(out.get(1).is_some() || out.get(2).is_some());
    }

    #[test]
    fn bulyan_filters_large_poison() {
        let uploads = round_uploads();
        let out = Bulyan::new(0.25).aggregate(&uploads);
        if let Some(g) = out.get(9) {
            assert!(frs_linalg::l2_norm(g) < 1.0, "poison attenuated: {g:?}");
        }
    }

    #[test]
    fn all_fall_back_gracefully_on_empty() {
        assert!(Krum::new(0.1).aggregate(&[]).is_empty());
        assert!(MultiKrum::new(0.1).aggregate(&[]).is_empty());
        assert!(Bulyan::new(0.1).aggregate(&[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "ratio")]
    fn invalid_ratio_rejected() {
        Krum::new(0.7);
    }
}
