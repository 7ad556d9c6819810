//! Shared pairwise-distance kernel for the robust aggregators.
//!
//! Krum, Multi-Krum, and Bulyan all start from the same object: the symmetric
//! matrix of squared L2 distances between the round's uploads. Historically
//! each aggregator rebuilt it from scratch; [`DistanceMatrix`] computes it
//! once per round and every consumer reads from the same storage: Krum scores
//! every upload on it, and MultiKrum and Bulyan select their `m` best-scoring
//! uploads from those scores.
//!
//! # Determinism contract
//!
//! Every kernel in this module is bitwise-deterministic and pinned to the
//! summation order of the naive scalar reference:
//!
//! - [`squared_distance_blocked`] accumulates `(a[i]-b[i])²` strictly in index
//!   order (the unrolling only widens the independent subtract/multiply work,
//!   never the adds), so it returns the exact same bits as
//!   [`crate::vector::squared_l2_distance`].
//! - [`DistanceMatrix::from_uploads`] builds the whole matrix in two
//!   item-major passes, yet adds exactly the reference pair's terms to each
//!   cell in exactly the reference order (see its docs).
//! - [`DistanceMatrix::krum_scores`] sums each row's `keep` smallest distances
//!   in ascending value order via a partial select
//!   ([`crate::rank::sum_k_smallest`]), which is bitwise-identical to fully
//!   sorting the row and summing the prefix.
//!
//! The `kernel-parity` CI job pins these claims with proptest suites
//! (`cargo test --release -p frs-linalg --test kernel_parity`, and
//! `-p frs-federation --test distance_parity` for the upload matrix).

use crate::items::{Holder, ItemIndex};

/// Symmetric matrix of pairwise distances, stored dense and row-major
/// (`n × n`, diagonal zero).
#[derive(Debug, Clone)]
pub struct DistanceMatrix {
    n: usize,
    data: Vec<f32>,
}

/// One upload as [`DistanceMatrix::from_uploads`] reads it: its strictly
/// ascending item ids and row-major gradient block, borrowed in place, each
/// row's self-dot `⟨g,g⟩`, and an optional dense part (the flattened MLP
/// gradient) with its own self-dot. Items an upload does not hold count as
/// zero rows; no row is copied.
#[derive(Debug)]
pub struct UploadView<'a> {
    ids: &'a [u32],
    rows: &'a [f32],
    dim: usize,
    self_dots: Vec<f32>,
    dense: Option<(Vec<f32>, f32)>,
}

impl<'a> UploadView<'a> {
    /// Borrows `ids` (strictly ascending) and `rows` (`dim` floats per id,
    /// in id order) and takes the optional dense part, with every self-dot
    /// computed once by [`dot_blocked`].
    pub fn new(ids: &'a [u32], rows: &'a [f32], dim: usize, dense: Option<Vec<f32>>) -> Self {
        assert!(
            ids.windows(2).all(|w| w[0] < w[1]),
            "upload item ids must be strictly ascending"
        );
        assert_eq!(
            rows.len(),
            ids.len() * dim,
            "upload rows do not match its ids"
        );
        let self_dots = (0..ids.len())
            .map(|pos| {
                let row = &rows[pos * dim..(pos + 1) * dim];
                dot_blocked(row, row)
            })
            .collect();
        let dense = dense.map(|flat| {
            let self_dot = dot_blocked(&flat, &flat);
            (flat, self_dot)
        });
        UploadView {
            ids,
            rows,
            dim,
            self_dots,
            dense,
        }
    }

    /// Number of item rows.
    pub fn n_items(&self) -> usize {
        self.ids.len()
    }

    fn row(&self, pos: usize) -> &'a [f32] {
        &self.rows[pos * self.dim..(pos + 1) * self.dim]
    }
}

/// Sets `held[u]` to `mark` for each holder's upload `u`.
fn mark_holders(held: &mut [u32], holders: &[Holder], mark: u32) {
    for h in holders {
        held[h.upload()] = mark;
    }
}

/// Adds `term` to each cell whose upload the mask does not mark and `-0.0`
/// to each it does. `x + (-0.0)` is `x` bit for bit for every `x` an add can
/// produce (±0, subnormals, ±inf, quiet NaN), so a marked cell is left as it
/// was. Selecting by mask bits keeps the loop branch-free, so it vectorizes.
fn add_unless_held(cells: &mut [f32], held: &[u32], term: f32) {
    let term = term.to_bits();
    let neg_zero = (-0.0f32).to_bits();
    for (cell, &mask) in cells.iter_mut().zip(held) {
        *cell += f32::from_bits((term & !mask) | (neg_zero & mask));
    }
}

impl DistanceMatrix {
    /// Build the matrix by evaluating `dist(i, j)` once for every pair
    /// `i < j` and mirroring into both triangles. The diagonal is zero.
    pub fn from_fn(n: usize, mut dist: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = vec![0.0f32; n * n];
        for i in 0..n {
            for j in i + 1..n {
                let d = dist(i, j);
                data[i * n + j] = d;
                data[j * n + i] = d;
            }
        }
        DistanceMatrix { n, data }
    }

    /// The squared L2 distance between every pair of `uploads`, absent items
    /// counting as zero rows, in one item-major sweep.
    ///
    /// For `i < j`, cell `(i, j)` holds the bits of the reference chain: start
    /// at `+0.0`; add `i`'s items in ascending id — a shared item adds
    /// [`squared_distance_blocked`]`(g_i, g_j)`, an item only `i` holds its
    /// self-dot; add the self-dot of each item only `j` holds, in ascending
    /// id; add the dense term (squared distance, or the one present part's
    /// self-dot). The sweep adds exactly these terms to each cell in exactly
    /// this order, plus `-0.0`s, which change no bits. Only the interleaving
    /// *across* cells changes, and cells are independent.
    ///
    /// - **Pass A** walks the items in ascending id, from one [`ItemIndex`]
    ///   of the uploads that both passes read. For an item held by
    ///   `h_1 < … < h_c`, row `h_k` of the upper triangle gets one term per
    ///   partner `j > h_k`: the self-dot, or, where `j` holds the item too,
    ///   `-0.0` and then the squared distance. The holders' rows are laid out
    ///   once per item as a `c × dim` coordinate-major block, so each lane of
    ///   the distance loop is its own `-0.0 + d_0² + d_1² + …` chain, exactly
    ///   [`squared_distance_blocked`]'s, and the loop vectorizes across
    ///   holders.
    /// - The upper triangle is copied to the lower one, where column `j` of
    ///   the upper triangle (rows `i < j`) is contiguous.
    /// - **Pass B** walks the items again. Holder `j` adds its self-dot to each
    ///   cell `(i, j)` where `i` lacks the item, and `-0.0` where `i` holds it.
    /// - The dense term is added per pair with [`squared_distance_blocked`],
    ///   and the lower triangle is mirrored into the upper one.
    ///
    /// Scratch beside the `n × n` result is the index, O(total rows), plus
    /// O(n · dim): one item's block, its lanes, and a mark per upload. No
    /// row is copied round-wide.
    ///
    /// # Panics
    ///
    /// If two uploads hold one item with rows of different lengths, or both
    /// carry dense parts of different lengths ("distance over mismatched
    /// lengths").
    pub fn from_uploads(uploads: &[UploadView<'_>]) -> Self {
        let n = uploads.len();
        let mut data = vec![0.0f32; n * n];
        let mut rows: Vec<&[f32]> = Vec::new();
        let mut block = Vec::new();
        let mut lanes = Vec::new();

        // Pass A: the row upload's items, into the upper triangle.
        let index = ItemIndex::new(uploads.iter().map(|view| view.ids));
        let mut held = vec![0u32; n];
        for (_, holders) in index.iter() {
            let c = holders.len();
            rows.clear();
            rows.extend(holders.iter().map(|h| uploads[h.upload()].row(h.pos())));
            let dim = rows[0].len();
            assert!(
                rows.iter().all(|row| row.len() == dim),
                "distance over mismatched lengths"
            );
            block.clear();
            for d in 0..dim {
                block.extend(rows.iter().map(|row| row[d]));
            }
            mark_holders(&mut held, holders, u32::MAX);
            for (k, h) in holders.iter().enumerate() {
                let i = h.upload();
                // Lane m is `squared_distance_blocked(g_i, g_j)` for the m-th
                // later holder `j`: the same `-0.0` start, coordinate order
                // and operand order.
                lanes.clear();
                lanes.resize(c - k - 1, -0.0f32);
                for coord in block.chunks_exact(c) {
                    let a = coord[k];
                    for (acc, &b) in lanes.iter_mut().zip(&coord[k + 1..]) {
                        let t = a - b;
                        *acc += t * t;
                    }
                }
                let row = &mut data[i * n..(i + 1) * n];
                add_unless_held(
                    &mut row[i + 1..],
                    &held[i + 1..],
                    uploads[i].self_dots[h.pos()],
                );
                // The later holders got `-0.0` above; now their distance.
                for (later, &dist) in holders[k + 1..].iter().zip(&lanes) {
                    row[later.upload()] += dist;
                }
            }
            mark_holders(&mut held, holders, 0);
        }

        // Column j of the upper triangle becomes row j of the lower one,
        // contiguous for pass B.
        for i in 0..n {
            for j in i + 1..n {
                data[j * n + i] = data[i * n + j];
            }
        }

        // Pass B: the column upload's items, into the lower triangle.
        for (_, holders) in index.iter() {
            mark_holders(&mut held, holders, u32::MAX);
            for h in holders {
                let j = h.upload();
                add_unless_held(
                    &mut data[j * n..j * n + j],
                    &held[..j],
                    uploads[j].self_dots[h.pos()],
                );
            }
            mark_holders(&mut held, holders, 0);
        }

        // Dense term, then mirror into the upper triangle.
        for j in 0..n {
            for i in 0..j {
                let mut cell = data[j * n + i];
                match (&uploads[i].dense, &uploads[j].dense) {
                    (Some((a, _)), Some((b, _))) => cell += squared_distance_blocked(a, b),
                    (Some((_, self_dot)), None) | (None, Some((_, self_dot))) => cell += self_dot,
                    (None, None) => {}
                }
                data[j * n + i] = cell;
                data[i * n + j] = cell;
            }
        }
        DistanceMatrix { n, data }
    }

    /// Number of rows.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The stored distance between `i` and `j` (zero on the diagonal).
    pub fn get(&self, i: usize, j: usize) -> f32 {
        self.data[i * self.n + j]
    }

    /// Krum score for every row: the sum of its `n − f − 2` smallest
    /// distances to the other rows (Blanchard et al.'s closest-neighbour
    /// sum). Returns `None` when `n ≤ f + 2`, where the score is undefined
    /// and callers fall back to plain averaging.
    ///
    /// Summation is over the selected distances in ascending value order —
    /// bitwise-identical to sorting the whole row and summing the prefix.
    pub fn krum_scores(&self, f: usize) -> Option<Vec<(usize, f32)>> {
        let n = self.n;
        if n <= f + 2 {
            return None;
        }
        let keep = n - f - 2;
        let mut row = Vec::with_capacity(n - 1);
        let scores = (0..n)
            .map(|i| {
                row.clear();
                let cells = &self.data[i * n..(i + 1) * n];
                row.extend_from_slice(&cells[..i]);
                row.extend_from_slice(&cells[i + 1..]);
                (i, crate::rank::sum_k_smallest(&mut row, keep))
            })
            .collect();
        Some(scores)
    }
}

/// Squared L2 distance with the accumulation unrolled over 4-element chunks.
///
/// The subtract/multiply work of a chunk is expressed as four independent
/// temporaries (so the compiler is free to vectorize it) while the adds into
/// the accumulator stay strictly sequential in index order. Because every
/// floating-point operation has identical operands in an identical order, the
/// result is bitwise-equal to [`crate::vector::squared_l2_distance`].
pub fn squared_distance_blocked(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "distance over mismatched lengths");
    // `Iterator::sum::<f32>()` folds from -0.0, the IEEE additive identity;
    // start there so even empty/all-negative-zero inputs match bitwise.
    let mut acc = -0.0f32;
    let chunks = a.len() / 4 * 4;
    let mut i = 0;
    while i < chunks {
        let d0 = a[i] - b[i];
        let d1 = a[i + 1] - b[i + 1];
        let d2 = a[i + 2] - b[i + 2];
        let d3 = a[i + 3] - b[i + 3];
        let s0 = d0 * d0;
        let s1 = d1 * d1;
        let s2 = d2 * d2;
        let s3 = d3 * d3;
        acc += s0;
        acc += s1;
        acc += s2;
        acc += s3;
        i += 4;
    }
    while i < a.len() {
        let d = a[i] - b[i];
        acc += d * d;
        i += 1;
    }
    acc
}

/// Dot product with the same unrolling scheme as [`squared_distance_blocked`]:
/// independent per-lane multiplies, strictly sequential adds. Bitwise-equal to
/// [`crate::vector::dot`].
pub fn dot_blocked(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot over mismatched lengths");
    // Same -0.0 starting point as `Iterator::sum::<f32>()`; see
    // `squared_distance_blocked`.
    let mut acc = -0.0f32;
    let chunks = a.len() / 4 * 4;
    let mut i = 0;
    while i < chunks {
        let p0 = a[i] * b[i];
        let p1 = a[i + 1] * b[i + 1];
        let p2 = a[i + 2] * b[i + 2];
        let p3 = a[i + 3] * b[i + 3];
        acc += p0;
        acc += p1;
        acc += p2;
        acc += p3;
        i += 4;
    }
    while i < a.len() {
        acc += a[i] * b[i];
        i += 1;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector::squared_l2_distance;

    fn demo_points() -> Vec<Vec<f32>> {
        (0..9)
            .map(|i| (0..7).map(|k| ((i * 7 + k) as f32 * 0.37).sin()).collect())
            .collect()
    }

    fn demo_matrix() -> DistanceMatrix {
        let pts = demo_points();
        DistanceMatrix::from_fn(pts.len(), |i, j| squared_l2_distance(&pts[i], &pts[j]))
    }

    #[test]
    fn symmetric_with_zero_diagonal() {
        let m = demo_matrix();
        for i in 0..m.n() {
            assert_eq!(m.get(i, i), 0.0);
            for j in 0..m.n() {
                assert_eq!(m.get(i, j).to_bits(), m.get(j, i).to_bits());
            }
        }
    }

    /// One pair's reference chain, straight from the contract: from `+0.0`,
    /// `a`'s items in ascending id, then the items only `b` holds, then the
    /// dense term.
    fn reference_pair(
        a: &[(u32, Vec<f32>)],
        b: &[(u32, Vec<f32>)],
        dense_a: Option<&[f32]>,
        dense_b: Option<&[f32]>,
    ) -> f32 {
        let mut total = 0.0f32;
        for (id, ga) in a {
            match b.iter().find(|(other, _)| other == id) {
                Some((_, gb)) => total += squared_l2_distance(ga, gb),
                None => total += crate::vector::dot(ga, ga),
            }
        }
        for (id, gb) in b {
            if !a.iter().any(|(other, _)| other == id) {
                total += crate::vector::dot(gb, gb);
            }
        }
        match (dense_a, dense_b) {
            (Some(x), Some(y)) => total += squared_l2_distance(x, y),
            (Some(x), None) | (None, Some(x)) => total += crate::vector::dot(x, x),
            (None, None) => {}
        }
        total
    }

    #[test]
    fn from_uploads_keeps_reference_bits_on_special_values() {
        // Signed zeros, subnormals, and one row whose squares overflow to
        // +inf: the `-0.0` the sweep adds for shared items must leave each of
        // them bit for bit unchanged.
        let specials = [
            0.0,
            -0.0,
            f32::MIN_POSITIVE / 8.0,
            -f32::MIN_POSITIVE / 3.0,
            1.5,
            -2.25,
            3e-20,
            0.75,
        ];
        let pick = |k: usize| specials[k % specials.len()];
        // Upload 5 holds nothing; upload 6 holds only a dense part.
        let mut items: Vec<Vec<(u32, Vec<f32>)>> = (0..7usize)
            .map(|u| {
                (0..6u32)
                    .filter(|&x| u < 5 && !(u * 7 + x as usize * 3).is_multiple_of(4))
                    .map(|x| {
                        (
                            x,
                            (0..3).map(|d| pick(u * 5 + x as usize * 3 + d)).collect(),
                        )
                    })
                    .collect()
            })
            .collect();
        items[4][0].1 = vec![1e20, -1e20, 1.5];
        let dense: Vec<Option<Vec<f32>>> = (0..7usize)
            .map(|u| {
                u.is_multiple_of(2)
                    .then(|| (0..5).map(|d| pick(u + 2 * d)).collect())
            })
            .collect();
        let ids: Vec<Vec<u32>> = items
            .iter()
            .map(|rows| rows.iter().map(|(id, _)| *id).collect())
            .collect();
        let blocks: Vec<Vec<f32>> = items
            .iter()
            .map(|rows| rows.iter().flat_map(|(_, g)| g.iter().copied()).collect())
            .collect();
        let views: Vec<UploadView<'_>> = (0..items.len())
            .map(|u| UploadView::new(&ids[u], &blocks[u], 3, dense[u].clone()))
            .collect();
        let m = DistanceMatrix::from_uploads(&views);
        for i in 0..views.len() {
            assert_eq!(m.get(i, i).to_bits(), 0.0f32.to_bits());
            for j in i + 1..views.len() {
                let want = reference_pair(
                    &items[i],
                    &items[j],
                    dense[i].as_deref(),
                    dense[j].as_deref(),
                );
                assert_eq!(m.get(i, j).to_bits(), want.to_bits(), "cell ({i}, {j})");
                assert_eq!(m.get(j, i).to_bits(), want.to_bits(), "cell ({j}, {i})");
            }
        }
    }

    #[test]
    #[should_panic(expected = "distance over mismatched lengths")]
    fn from_uploads_rejects_mismatched_shared_rows() {
        let (a, b) = ([1.0f32, 2.0], [1.0f32, 2.0, 3.0]);
        let views = [
            UploadView::new(&[7], &a, 2, None),
            UploadView::new(&[7], &b, 3, None),
        ];
        DistanceMatrix::from_uploads(&views);
    }

    #[test]
    fn each_pair_evaluated_exactly_once() {
        let n = 13;
        let mut calls = std::collections::HashSet::new();
        let m = DistanceMatrix::from_fn(n, |i, j| {
            assert!(i < j, "only upper-triangle pairs may be requested");
            assert!(calls.insert((i, j)), "pair ({i},{j}) evaluated twice");
            (i + j) as f32
        });
        assert_eq!(calls.len(), n * (n - 1) / 2);
        assert_eq!(m.n(), n);
    }

    #[test]
    fn krum_scores_undefined_at_small_n() {
        let m = demo_matrix(); // n = 9
        assert!(m.krum_scores(9).is_none());
        assert!(m.krum_scores(7).is_none()); // n == f + 2
        assert!(m.krum_scores(6).is_some()); // n == f + 3
    }

    #[test]
    fn krum_scores_match_full_sort_reference() {
        let m = demo_matrix();
        let f = 2;
        let keep = m.n() - f - 2;
        let got = m.krum_scores(f).expect("defined");
        for (i, score) in got {
            let mut row: Vec<f32> = (0..m.n())
                .filter(|&j| j != i)
                .map(|j| m.get(i, j))
                .collect();
            row.sort_unstable_by(f32::total_cmp);
            let want: f32 = row[..keep].iter().sum();
            assert_eq!(score.to_bits(), want.to_bits(), "row {i}");
        }
    }

    #[test]
    fn blocked_kernels_are_bitwise_scalar() {
        let pts = demo_points();
        for a in &pts {
            for b in &pts {
                assert_eq!(
                    squared_distance_blocked(a, b).to_bits(),
                    squared_l2_distance(a, b).to_bits()
                );
                assert_eq!(
                    dot_blocked(a, b).to_bits(),
                    crate::vector::dot(a, b).to_bits()
                );
            }
        }
    }
}
