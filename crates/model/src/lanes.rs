//! The item-lane scoring kernel behind every full-catalogue ranking: ER@K,
//! HR@K, the popularity-bias lists and a serve query all score one user
//! through a [`UserScorer`] ([`crate::GlobalModel::user_scorer`]), which
//! reads the item table regrouped here, one block of items at a time.
//! [`crate::GlobalModel::scores_for_user_into`] is the scorer run over
//! every block; ER@K and HR@K stop early, once each item they ask about is
//! decided.
//!
//! [`ItemLanes`] holds the item table coordinate-major in blocks of
//! [`LANES`] items: block `b` stores coordinate `c` of items
//! `b·LANES .. b·LANES + LANES` side by side. The scorer runs a block's
//! items in lock-step: every `[f32; LANES]` step advances `LANES`
//! separate per-item chains at once, which portable code vectorizes at the
//! x86-64 baseline, instead of waiting on one item's serial add chain
//! before starting the next.
//!
//! *Why the bits hold.* Each lane repeats the per-item `logit` fold from the
//! same start value (`-0.0`, or NCF's folded user prefix) with the same
//! operands in the same order; only independent lanes interleave. A block's
//! logits depend on nothing but the block and the user, so scoring blocks
//! in any order, or only some of them, gives each item the same bits.
//! Padding lanes of the last block hold `0.0`, are scored like any other
//! lane and are never read as items. `batched_scoring` pins the kernel to
//! `logit` bit for bit.

use frs_linalg::Matrix;

use crate::mlp::{BatchScorer, Mlp};

/// Items scored side by side: eight `f32` lanes, two SSE registers.
pub const LANES: usize = 8;

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

    /// Block `b`'s coordinates, one lane per item.
    fn block(&self, b: usize) -> &[Lane] {
        &self.lanes[b * self.dim..][..self.dim]
    }
}

/// One user's logits over an [`ItemLanes`] table, `LANES` items at a time.
/// [`Self::block`] may be called for any block, in any order and as often
/// as a caller likes; every lane carries the bits of the per-item
/// [`crate::GlobalModel::logit`].
pub struct UserScorer<'a> {
    lanes: &'a ItemLanes,
    user: &'a [f32],
    arm: Arm<'a>,
}

/// The two model families' block steps.
enum Arm<'a> {
    /// MF: eight `dot` folds (`-0.0 + u₀v₀ + u₁v₁ + …`) side by side.
    Dot,
    /// NCF: the MLP work that depends only on the user slot (the
    /// first-layer fold over `u`) ran once in [`Mlp::batch_scorer`]; each
    /// block's `v ⊕ (u ⊙ v)` suffix, built in `suffix`, goes through
    /// `BatchScorer::logits`.
    Mlp {
        scorer: BatchScorer<'a>,
        suffix: Vec<Lane>,
    },
}

impl<'a> UserScorer<'a> {
    /// `mlp` is the model's interaction MLP, `None` for MF.
    pub(crate) fn new(lanes: &'a ItemLanes, mlp: Option<&'a Mlp>, user: &'a [f32]) -> Self {
        debug_assert_eq!(user.len(), lanes.dim);
        let arm = match mlp {
            None => Arm::Dot,
            Some(mlp) => Arm::Mlp {
                scorer: mlp.batch_scorer(user),
                suffix: vec![[0.0; LANES]; 2 * lanes.dim],
            },
        };
        Self { lanes, user, arm }
    }

    /// Items in the catalogue; block `b` holds items
    /// `b·LANES .. min(b·LANES + LANES, n_items)`.
    pub fn n_items(&self) -> usize {
        self.lanes.n_items
    }

    /// Blocks in the catalogue, the last one possibly partial.
    pub fn n_blocks(&self) -> usize {
        self.lanes.n_items.div_ceil(LANES)
    }

    /// The logits of block `b`: lane `l` is item `b·LANES + l`'s, and the
    /// padding lanes past the last item are meaningless. Allocation-free.
    #[inline]
    pub fn block(&mut self, b: usize) -> [f32; LANES] {
        let block = self.lanes.block(b);
        match &mut self.arm {
            Arm::Dot => {
                let mut acc = [-0.0; LANES];
                fold_lanes(&mut acc, self.user, block);
                acc
            }
            Arm::Mlp { scorer, suffix } => {
                let (items, products) = suffix.split_at_mut(block.len());
                let coords = items.iter_mut().zip(products).zip(block).zip(self.user);
                for (((item, product), v), &u) in coords {
                    *item = *v;
                    for (p, &x) in product.iter_mut().zip(v) {
                        *p = u * x;
                    }
                }
                scorer.logits(suffix)
            }
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
    use crate::{GlobalModel, ModelConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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

    /// `scores_for_user_into` copies the live lanes of every block, in block
    /// order, into a dirty buffer: item `j` is lane `j % LANES` of block
    /// `j / LANES`, whichever order the blocks are scored in.
    #[test]
    fn score_into_keeps_only_live_lanes() {
        for n in [0usize, 1, 8, 13] {
            let mut model = GlobalModel::new(&ModelConfig::mf(1), n, &mut StdRng::seed_from_u64(1));
            for j in 0..n {
                model.item_embedding_mut(u32::try_from(j).unwrap())[0] = j as f32;
            }
            let lanes = model.item_lanes();
            let mut out = vec![f32::NAN; 5];
            model.scores_for_user_into(&lanes, &[1.0], &mut out);
            assert_eq!(out, (0..n).map(|j| j as f32).collect::<Vec<_>>());
            let mut scorer = model.user_scorer(&lanes, &[1.0]);
            assert_eq!(
                (scorer.n_items(), scorer.n_blocks()),
                (n, n.div_ceil(LANES))
            );
            for b in (0..scorer.n_blocks()).rev() {
                let logits = scorer.block(b);
                for (l, &s) in logits.iter().enumerate().take(n - b * LANES) {
                    assert_eq!(s, (b * LANES + l) as f32);
                }
            }
        }
    }
}
