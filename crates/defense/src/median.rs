//! Coordinate-wise Median and TrimmedMean \[40\].
//!
//! Both reduce the gradients *per item, per coordinate, over the clients that
//! uploaded for that item* (items nobody touched simply don't update). The
//! MLP parameters of DL-FRS get the same treatment over their flattened
//! vectors. Both assume benign values form the majority per coordinate —
//! which Eq. (11) shows is barely true or false for cold target items under
//! PIECK, and TrimmedMean's fixed trim budget is easily outnumbered.

use frs_federation::{gather_mlp_gradients, item_index, Aggregator};
use frs_linalg::{CoordinateReducer, CoordinateStat};
use frs_model::GlobalGradients;

/// Applies a per-item coordinate statistic plus the same rule on the MLP,
/// over uploads by reference (so Bulyan can reduce its Krum-selected subset
/// without cloning a single upload). For a group of `c` rows, `rule(c)`
/// gives the statistic and the factor that rescales it.
///
/// The items come from the uploads' [`item_index`]; each item's holder rows,
/// and then the flattened MLP parts, go through one [`CoordinateReducer`].
///
/// On rescaling: the undefended baseline aggregator is a *sum*, so a
/// mean-like statistic must be scaled back to sum magnitude or the server's
/// effective learning rate collapses by a factor of the batch size and the
/// recommender never trains (which would make every ER comparison
/// meaningless). Median/TrimmedMean rescale by the uploader count; Bulyan by
/// its post-trim kept count.
pub(crate) fn reduce_uploads<'a>(
    uploads: impl IntoIterator<Item = &'a GlobalGradients>,
    rule: impl Fn(usize) -> (CoordinateStat, f32),
) -> GlobalGradients {
    let uploads: Vec<&GlobalGradients> = uploads.into_iter().collect();
    let mut reducer = CoordinateReducer::default();
    let mut rows: Vec<&[f32]> = Vec::new();
    let mut out = GlobalGradients::new();
    for (item, holders) in item_index(uploads.iter().copied()).iter() {
        rows.clear();
        rows.extend(holders.iter().map(|h| uploads[h.upload()].row(h.pos())));
        let (stat, scale) = rule(rows.len());
        out.add_item_grad(item, reducer.reduce(&rows, stat, scale));
    }
    let mlp_uploads = gather_mlp_gradients(uploads);
    if let Some(first) = mlp_uploads.first() {
        let flats: Vec<Vec<f32>> = mlp_uploads.iter().map(|m| m.flatten()).collect();
        let refs: Vec<&[f32]> = flats.iter().map(Vec::as_slice).collect();
        let (stat, scale) = rule(refs.len());
        out.mlp = Some(first.unflatten_like(reducer.reduce(&refs, stat, scale)));
    }
    out
}

/// Coordinate-wise median over each item's uploaders.
#[derive(Debug, Clone, Copy, Default)]
pub struct Median;

impl Aggregator for Median {
    fn aggregate(&self, uploads: &[GlobalGradients]) -> GlobalGradients {
        reduce_uploads(uploads, |c| (CoordinateStat::Median, c as f32))
    }

    fn name(&self) -> &'static str {
        "Median"
    }
}

/// Coordinate-wise trimmed mean: drop the `trim_ratio` fraction of extreme
/// values on each side, average the survivors.
#[derive(Debug, Clone, Copy)]
pub struct TrimmedMean {
    /// Fraction (of an item's uploaders) trimmed from *each* side per
    /// coordinate — matched to the assumed malicious ratio `p̃`.
    pub trim_ratio: f64,
}

impl TrimmedMean {
    /// Creates the defense; `trim_ratio` must be in `[0, 0.5)`.
    pub fn new(trim_ratio: f64) -> Self {
        assert!(
            (0.0..0.5).contains(&trim_ratio),
            "trim ratio must be in [0, 0.5)"
        );
        Self { trim_ratio }
    }
}

impl Aggregator for TrimmedMean {
    fn aggregate(&self, uploads: &[GlobalGradients]) -> GlobalGradients {
        reduce_uploads(uploads, |c| {
            let trim = ((c as f64) * self.trim_ratio).ceil() as usize;
            (CoordinateStat::TrimmedMean { trim }, c as f32)
        })
    }

    fn name(&self) -> &'static str {
        "TrimmedMean"
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
    fn median_resists_minority_outlier() {
        let uploads = vec![
            upload(&[(0, vec![0.10, -0.10])]),
            upload(&[(0, vec![0.12, -0.08])]),
            upload(&[(0, vec![0.09, -0.11])]),
            upload(&[(0, vec![100.0, -100.0])]),
        ];
        let out = Median.aggregate(&uploads);
        // 4 uploaders: median ≈ 0.1 rescaled by 4 ⇒ ≈ 0.4, far below poison.
        assert!(out.get(0).unwrap()[0] < 1.0, "{:?}", out.get(0).unwrap());
        assert!(out.get(0).unwrap()[1] > -1.0);
    }

    #[test]
    fn median_follows_poisonous_majority() {
        // The PIECK situation: 3 poisonous vs 1 benign upload for a cold item.
        let uploads = vec![
            upload(&[(0, vec![5.0])]),
            upload(&[(0, vec![5.1])]),
            upload(&[(0, vec![4.9])]),
            upload(&[(0, vec![-0.01])]),
        ];
        let out = Median.aggregate(&uploads);
        assert!(
            out.get(0).unwrap()[0] > 4.0,
            "majority poison wins under median"
        );
    }

    #[test]
    fn median_is_per_item_over_uploaders_only() {
        // Item 1 uploaded by one client only — it still updates.
        let uploads = vec![
            upload(&[(0, vec![1.0]), (1, vec![7.0])]),
            upload(&[(0, vec![3.0])]),
        ];
        let out = Median.aggregate(&uploads);
        // Rescaled by uploader count: median(1,3)=2 ×2 = 4; single upload ×1.
        assert_eq!(out.get(0).unwrap(), vec![4.0]);
        assert_eq!(out.get(1).unwrap(), vec![7.0]);
    }

    #[test]
    fn trimmed_mean_drops_extremes() {
        let uploads: Vec<GlobalGradients> = [0.0f32, 10.0, 10.0, 10.0, 1000.0]
            .iter()
            .map(|&v| upload(&[(0, vec![v])]))
            .collect();
        // n=5, trim=ceil(5·0.25)=2 per side → middle value 10, rescaled ×5.
        let out = TrimmedMean::new(0.25).aggregate(&uploads);
        assert_eq!(out.get(0).unwrap(), vec![50.0]);
    }

    #[test]
    fn trimmed_mean_small_trim_leaks_poison_cluster() {
        // 3 poison vs 4 benign with a 5% trim: one extreme dropped per side,
        // poison majority of survivors persists — the Table IV failure mode.
        let uploads: Vec<GlobalGradients> = [5.0f32, 5.1, 4.9, -0.01, 0.0, 0.01, -0.02]
            .iter()
            .map(|&v| upload(&[(0, vec![v])]))
            .collect();
        let out = TrimmedMean::new(0.05).aggregate(&uploads);
        assert!(
            out.get(0).unwrap()[0] > 1.0,
            "poison leaks: {:?}",
            out.get(0).unwrap()
        );
    }

    #[test]
    #[should_panic(expected = "trim ratio")]
    fn half_trim_rejected() {
        TrimmedMean::new(0.5);
    }
}
