//! The item-lane scoring kernel behind every full-catalogue ranking: ER@K,
//! HR@K, the popularity-bias lists and a serve query all score one user
//! against every item through [`crate::GlobalModel::scores_for_user_into`],
//! which reads the item table regrouped here.
//!
//! [`ItemLanes`] holds the item table coordinate-major in blocks of
//! `LANES` items: block `b` stores coordinate `c` of items
//! `b·LANES .. b·LANES + LANES` side by side. The scorers run a block's
//! items in lock-step: every `[f32; LANES]` step advances `LANES`
//! separate per-item chains at once, which portable code vectorizes at the
//! x86-64 baseline, instead of waiting on one item's serial add chain
//! before starting the next.
//!
//! *Why the bits hold.* Each lane repeats the per-item `logit` fold from the
//! same start value (`-0.0`, or NCF's folded user prefix) with the same
//! operands in the same order; only independent lanes interleave. Padding
//! lanes of the last block hold `0.0`, are scored like any other lane and
//! are never copied out. `batched_scoring` pins the kernel to `logit` bit
//! for bit.

use frs_linalg::Matrix;

/// Items scored side by side: eight `f32` lanes, two SSE registers.
pub(crate) const LANES: usize = 8;

/// One block coordinate: the same coordinate of `LANES` items.
pub(crate) type Lane = [f32; LANES];

/// An item table regrouped coordinate-major in blocks of `LANES` items,
/// built once per evaluation (or once per published serve snapshot) and
/// read by every user's scoring pass.
#[derive(Debug, Clone)]
pub struct ItemLanes {
    n_items: usize,
    dim: usize,
    /// Block `b`, coordinate `c` at `lanes[b·dim + c]`.
    lanes: Vec<Lane>,
}

impl ItemLanes {
    /// Regroups `items` (one row per item).
    pub(crate) fn new(items: &Matrix) -> Self {
        let (n_items, dim) = (items.rows(), items.cols());
        let mut lanes = vec![[0.0; LANES]; n_items.div_ceil(LANES) * dim];
        for (j, row) in items.rows_iter().enumerate() {
            let block = &mut lanes[j / LANES * dim..][..dim];
            for (lane, &x) in block.iter_mut().zip(row) {
                lane[j % LANES] = x;
            }
        }
        Self {
            n_items,
            dim,
            lanes,
        }
    }

    /// Items in the table.
    pub(crate) fn n_items(&self) -> usize {
        self.n_items
    }

    /// Coordinates per item.
    pub(crate) fn dim(&self) -> usize {
        self.dim
    }

    /// Runs `score` over every block in item order and writes the first
    /// `n_items` lanes of its results into `out` (cleared first).
    pub(crate) fn score_into(&self, out: &mut Vec<f32>, mut score: impl FnMut(&[Lane]) -> Lane) {
        out.clear();
        out.reserve(self.n_items);
        for b in 0..self.n_items.div_ceil(LANES) {
            let logits = score(&self.lanes[b * self.dim..][..self.dim]);
            let live = (self.n_items - b * LANES).min(LANES);
            out.extend_from_slice(&logits[..live]);
        }
    }
}

/// `acc[l] += w[i] · x[i][l]` for `i` ascending: `LANES` independent
/// continuations of a `frs_linalg::dot`-style fold, each with the weight as
/// the left operand.
#[inline]
pub(crate) fn fold_lanes(acc: &mut Lane, w: &[f32], x: &[Lane]) {
    debug_assert_eq!(w.len(), x.len());
    for (&wi, xi) in w.iter().zip(x) {
        for (a, &v) in acc.iter_mut().zip(xi) {
            *a += wi * v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regroups_items_coordinate_major_with_zero_padding() {
        let items = Matrix::from_vec(9, 2, (0..18).map(|x| x as f32).collect());
        let lanes = ItemLanes::new(&items);
        assert_eq!((lanes.n_items(), lanes.dim()), (9, 2));
        assert_eq!(lanes.lanes.len(), 2 * 2, "two blocks of two coordinates");
        assert_eq!(lanes.lanes[0], [0.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0]);
        assert_eq!(lanes.lanes[1], [1.0, 3.0, 5.0, 7.0, 9.0, 11.0, 13.0, 15.0]);
        assert_eq!(lanes.lanes[2], [16.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
        assert_eq!(lanes.lanes[3], [17.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn score_into_keeps_only_live_lanes() {
        for n in [0usize, 1, 8, 13] {
            let lanes = ItemLanes::new(&Matrix::zeros(n, 3));
            let mut out = vec![f32::NAN; 5];
            let mut blocks = 0;
            lanes.score_into(&mut out, |block| {
                assert_eq!(block.len(), 3);
                blocks += 1;
                [blocks as f32; LANES]
            });
            assert_eq!(out.len(), n);
            assert_eq!(blocks, n.div_ceil(LANES));
            assert!(out
                .iter()
                .enumerate()
                .all(|(j, &s)| s == (j / LANES + 1) as f32));
        }
    }
}
