//! Coordinate-wise statistics.
//!
//! The robust-aggregation defenses (Median, TrimmedMean, Bulyan) reduce a set
//! of uploaded gradient rows coordinate by coordinate. [`CoordinateReducer`]
//! does it for all coordinates at once: it sorts every coordinate of the
//! rows with one data-oblivious network whose lanes are the rows' own
//! coordinates, then reads the statistic off the sorted rows.
//!
//! # Determinism contract
//!
//! The result is bit for bit that of sorting each coordinate's values with
//! `sort_unstable_by(f32::total_cmp)` and reducing the sorted column in
//! scalar code:
//!
//! - Values are sorted as `total_cmp`'s own integer keys. Two values with one
//!   key have one bit pattern, so the sorted column is unique, whatever the
//!   sort and the input order.
//! - [`CoordinateStat::TrimmedMean`] sums the kept values in ascending order
//!   from `-0.0`, as `Iterator::sum` does, then divides by their count. Once
//!   the sum is NaN it keeps that NaN's payload, as the scalar fold does.
//! - [`CoordinateStat::Median`] takes the middle value, and for an even count
//!   the `f32::max` fold from `-∞` of the lower half: its largest non-NaN
//!   value. A NaN-free lower half ends in that value, but `-NaN` sorts first
//!   and `+NaN` last, so the fold cannot be replaced by the last lower row.
//!   `max` may return either zero for `±0`; that choice cannot change the
//!   sum with the middle value, which is then `+0` or larger.
//!
//! `coordinate_parity` (frs-defense) holds the defenses to the scalar sort
//! and reduction, bit for bit.

/// One coordinate-wise statistic of the robust rules \[40\].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoordinateStat {
    /// The middle value; for an even count, the mean of the upper middle
    /// value and the largest non-NaN value below it.
    Median,
    /// The mean of the values left after dropping the `trim` smallest and
    /// the `trim` largest. If `2·trim ≥ n` the trim shrinks so at least one
    /// value remains.
    TrimmedMean {
        /// Values dropped from each end.
        trim: usize,
    },
}

/// Coordinates sorted per block: the rows are cut into blocks of this many
/// lanes, one 64-byte cache line of keys per row (a whole row of the
/// 16-dimensional item embeddings). A last partial block pads its spare
/// lanes with keys that are sorted along and never read.
const LANES: usize = 16;

/// One row's keys within a block.
type KeyRow = [i32; LANES];

/// The coordinate-wise reduction kernel, with its scratch kept across calls.
///
/// For one block of lanes, the `c` rows are copied once into `c` rows of
/// `total_cmp` keys and sorted by a bitonic network over the rows. A
/// compare-exchange of two rows is a lane-wise min/max of two whole rows, so
/// each lane sorts one coordinate without a transpose, and the loops
/// vectorize at the x86-64 baseline with no `unsafe`, intrinsics or build
/// flags. The network runs on the rows padded to a power of two with
/// `i32::MAX`. Padding never leaves the padded rows, so every
/// compare-exchange that touches one is a no-op and is skipped instead.
#[derive(Debug, Default)]
pub struct CoordinateReducer {
    keys: Vec<KeyRow>,
    out: Vec<f32>,
}

impl CoordinateReducer {
    /// `stat` of each coordinate over `rows`, times `scale`: the combined
    /// row, borrowed until the next call. Empty `rows` give an empty row.
    ///
    /// # Panics
    ///
    /// If the rows differ in length.
    pub fn reduce(&mut self, rows: &[&[f32]], stat: CoordinateStat, scale: f32) -> &[f32] {
        let dim = rows.first().map_or(0, |row| row.len());
        assert!(
            rows.iter().all(|row| row.len() == dim),
            "coordinate statistic over mismatched lengths"
        );
        let c = rows.len();
        self.out.clear();
        self.out.resize(dim, 0.0);
        for (block, out) in self.out.chunks_mut(LANES).enumerate() {
            let lanes = block * LANES..block * LANES + out.len();
            self.keys.clear();
            self.keys.extend(rows.iter().map(|row| {
                let mut keys = [0; LANES];
                for (key, x) in keys.iter_mut().zip(&row[lanes.clone()]) {
                    *key = total_order_key(x.to_bits().cast_signed());
                }
                keys
            }));
            sort_rows(&mut self.keys);
            let mut combined = match stat {
                CoordinateStat::Median => median(&self.keys),
                CoordinateStat::TrimmedMean { trim } => {
                    trimmed_mean(&self.keys, trim.min((c - 1) / 2))
                }
            };
            for v in &mut combined {
                *v *= scale;
            }
            out.copy_from_slice(&combined[..out.len()]);
        }
        &self.out
    }
}

/// `f32::total_cmp`'s key for the bits `bits`: every bit but the sign flipped
/// for a negative value, so integer order is the IEEE total order. The map is
/// its own inverse.
#[inline]
pub fn total_order_key(bits: i32) -> i32 {
    bits ^ ((bits >> 31).cast_unsigned() >> 1).cast_signed()
}

/// The value whose key is `key`.
fn key_value(key: i32) -> f32 {
    f32::from_bits(total_order_key(key).cast_unsigned())
}

/// Sorts each lane of `rows` ascending: the bitonic network in which every
/// compare-exchange puts the smaller key in the lower row. Each merge of
/// sorted runs compares each row with its mirror in the run, then runs
/// half-cleaners at halving gaps.
fn sort_rows(rows: &mut [KeyRow]) {
    let c = rows.len();
    let mut size = 2;
    while size / 2 < c {
        for start in (0..c).step_by(size) {
            for i in start..start + size / 2 {
                let mirror = 2 * start + size - 1 - i;
                if mirror < c {
                    compare_exchange(rows, i, mirror);
                }
            }
        }
        let mut gap = size / 4;
        while gap > 0 {
            for start in (0..c).step_by(2 * gap) {
                for i in start..(start + gap).min(c.saturating_sub(gap)) {
                    compare_exchange(rows, i, i + gap);
                }
            }
            gap /= 2;
        }
        size *= 2;
    }
}

/// Lane-wise min into row `i` and max into row `j > i`.
fn compare_exchange(rows: &mut [KeyRow], i: usize, j: usize) {
    let (head, tail) = rows.split_at_mut(j);
    let (lower, upper) = (&mut head[i], &mut tail[0]);
    for (a, b) in lower.iter_mut().zip(upper) {
        let (x, y) = (*a, *b);
        *a = x.min(y);
        *b = x.max(y);
    }
}

/// Per lane, the mean of sorted rows `[trim, c − trim)`: summed in ascending
/// order from `-0.0`, then divided by their count.
///
/// A sum that has met a NaN keeps that first NaN, as the scalar fold's
/// `acc + x` does when both operands are NaN. The select pins it: an add
/// keeps the payload of its first NaN operand, and the compiler may order
/// the operands either way (an unoptimized `*acc += x` here kept the later
/// NaN's payload).
fn trimmed_mean(sorted: &[KeyRow], trim: usize) -> [f32; LANES] {
    let c = sorted.len();
    let mut acc = [-0.0f32; LANES];
    for row in &sorted[trim..c - trim] {
        for (acc, &key) in acc.iter_mut().zip(row) {
            let sum = *acc + key_value(key);
            *acc = if acc.is_nan() { *acc } else { sum };
        }
    }
    let kept = (c - 2 * trim) as f32;
    acc.map(|sum| sum / kept)
}

/// Per lane, sorted row `c/2`; for even `c`, half the sum of the `f32::max`
/// fold of rows `[0, c/2)` from `-∞` and that row.
fn median(sorted: &[KeyRow]) -> [f32; LANES] {
    let c = sorted.len();
    let upper = sorted[c / 2].map(key_value);
    if c % 2 == 1 {
        return upper;
    }
    let mut lower = [f32::NEG_INFINITY; LANES];
    for row in &sorted[..c / 2] {
        for (lo, &key) in lower.iter_mut().zip(row) {
            *lo = lo.max(key_value(key));
        }
    }
    std::array::from_fn(|l| 0.5 * (lower[l] + upper[l]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn median_of(xs: &[f32]) -> f32 {
        let rows: Vec<[f32; 1]> = xs.iter().map(|&x| [x]).collect();
        let refs: Vec<&[f32]> = rows.iter().map(|r| r.as_slice()).collect();
        let mut reducer = CoordinateReducer::default();
        reducer
            .reduce(&refs, CoordinateStat::Median, 1.0)
            .first()
            .copied()
            .unwrap_or(0.0)
    }

    fn trimmed_mean_of(xs: &[f32], trim: usize) -> f32 {
        let rows: Vec<[f32; 1]> = xs.iter().map(|&x| [x]).collect();
        let refs: Vec<&[f32]> = rows.iter().map(|r| r.as_slice()).collect();
        CoordinateReducer::default().reduce(&refs, CoordinateStat::TrimmedMean { trim }, 1.0)[0]
    }

    #[test]
    fn median_odd_even() {
        assert_eq!(median_of(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_of(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median_of(&[]), 0.0);
        assert_eq!(median_of(&[7.0]), 7.0);
    }

    #[test]
    fn median_robust_to_outlier() {
        // One adversarial value cannot move the median beyond the benign range.
        let m = median_of(&[1.0, 1.1, 0.9, 1e9]);
        assert!((0.9..=1.1 + 1e-6).contains(&m));
    }

    #[test]
    fn median_lower_half_skips_nans() {
        // `-NaN` sorts first: the lower middle is the largest non-NaN below.
        assert_eq!(median_of(&[-f32::NAN, 1.0, 3.0, 5.0]), 2.0);
        assert_eq!(
            median_of(&[-f32::NAN, -f32::NAN, 3.0, 5.0]),
            f32::NEG_INFINITY
        );
    }

    #[test]
    fn trimmed_mean_removes_extremes() {
        assert_eq!(trimmed_mean_of(&[0.0, 10.0, 10.0, 10.0, 1000.0], 1), 10.0);
    }

    #[test]
    fn trimmed_mean_overtrim_degenerates_gracefully() {
        // trim=5 > n/2; must still return a finite sensible value.
        let v = trimmed_mean_of(&[1.0, 2.0], 5);
        assert!((1.0..=2.0).contains(&v));
    }

    #[test]
    fn coordinate_median_per_dim() {
        let a = [1.0f32, 100.0];
        let b = [2.0f32, -5.0];
        let c = [3.0f32, 0.0];
        let mut reducer = CoordinateReducer::default();
        let m = reducer.reduce(&[&a, &b, &c], CoordinateStat::Median, 1.0);
        assert_eq!(m, [2.0, 0.0]);
    }

    #[test]
    fn coordinate_trimmed_mean_per_dim() {
        let a = [0.0f32, 0.0];
        let b = [1.0f32, 1.0];
        let c = [2.0f32, 2.0];
        let d = [100.0f32, -100.0];
        let mut reducer = CoordinateReducer::default();
        let stat = CoordinateStat::TrimmedMean { trim: 1 };
        assert_eq!(reducer.reduce(&[&a, &b, &c, &d], stat, 1.0), [1.5, 0.5]);
        // The scale multiplies the statistic.
        assert_eq!(reducer.reduce(&[&a, &b, &c, &d], stat, 4.0), [6.0, 2.0]);
    }

    #[test]
    fn coordinate_reduce_empty_input() {
        let mut reducer = CoordinateReducer::default();
        assert!(reducer.reduce(&[], CoordinateStat::Median, 1.0).is_empty());
    }

    #[test]
    fn network_sorts_every_lane_at_every_count() {
        // Counts on both sides of each power of two.
        for c in [1usize, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 33, 64, 65, 100] {
            let mut rows: Vec<KeyRow> = (0..c)
                .map(|r| {
                    std::array::from_fn(|l| {
                        ((r * LANES + l) as i32).wrapping_mul(-1_640_531_535) >> 3
                    })
                })
                .collect();
            let mut want: Vec<Vec<i32>> = (0..LANES)
                .map(|l| rows.iter().map(|row| row[l]).collect())
                .collect();
            for col in &mut want {
                col.sort_unstable();
            }
            sort_rows(&mut rows);
            for (l, col) in want.iter().enumerate() {
                let got: Vec<i32> = rows.iter().map(|row| row[l]).collect();
                assert_eq!(&got, col, "c {c}, lane {l}");
            }
        }
    }

    #[test]
    fn lanes_past_one_block_reduce_independently() {
        // 37 lanes: two full blocks and a partial one; lane l of row r is
        // r·(l+1), so every lane's median is 2·(l+1).
        let rows: Vec<Vec<f32>> = (0..5)
            .map(|r| (0..37).map(|l| (r * (l + 1)) as f32).collect())
            .collect();
        let refs: Vec<&[f32]> = rows.iter().map(Vec::as_slice).collect();
        let mut reducer = CoordinateReducer::default();
        let want: Vec<f32> = (0..37).map(|l| (2 * (l + 1)) as f32).collect();
        assert_eq!(reducer.reduce(&refs, CoordinateStat::Median, 1.0), want);
        let stat = CoordinateStat::TrimmedMean { trim: 1 };
        assert_eq!(reducer.reduce(&refs, stat, 1.0), want);
    }

    #[test]
    #[should_panic(expected = "coordinate statistic over mismatched lengths")]
    fn mismatched_rows_are_rejected() {
        let (a, b) = ([1.0f32, 2.0], [1.0f32]);
        CoordinateReducer::default().reduce(&[&a, &b], CoordinateStat::Median, 1.0);
    }
}
