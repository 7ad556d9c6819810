//! Coordinate-wise parity: `Median`, `TrimmedMean` and `Bulyan` over the item
//! index and the row-lane sort are **bitwise** equal to the scalar code they
//! replaced.
//!
//! The references below are verbatim copies of that code: the `BTreeMap`
//! per-item gather, per-coordinate `median_inplace` (a select) and
//! `trimmed_mean_inplace` (a full `total_cmp` sort), and the old
//! `reduce_uploads` driver with each rule's closure. The rounds give items
//! every holder count on both sides of each power of two up to 257, dims 1
//! to 17 and an MLP part past one 64-lane block, values drawn from ±0,
//! subnormals, ±∞, NaNs of both signs with distinct payloads and exact
//! duplicates, and one item `u32::MAX − 1`, which an index sized by the
//! largest id could not allocate. Part of the CI `kernel-parity` job; run
//! locally with
//!
//! ```text
//! cargo test --release -p frs-defense --test coordinate_parity
//! ```

use std::collections::BTreeMap;

use frs_defense::{Bulyan, Median, TrimmedMean};
use frs_federation::{gather_mlp_gradients, upload_distance_matrix, Aggregator};
use frs_model::{GlobalGradients, MlpGradients};
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Verbatim scalar reference (do not "optimize" this — its entire value is
// staying exactly what the defenses used to compute).
// ---------------------------------------------------------------------------

fn gather_item_gradients<'a>(
    uploads: impl IntoIterator<Item = &'a GlobalGradients>,
) -> BTreeMap<u32, Vec<&'a [f32]>> {
    let mut by_item: BTreeMap<u32, Vec<&'a [f32]>> = BTreeMap::new();
    for upload in uploads {
        for (item, grad) in upload.iter() {
            by_item.entry(item).or_default().push(grad);
        }
    }
    by_item
}

fn mean(xs: &[f32]) -> f32 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f32>() / xs.len() as f32
}

fn median_inplace(xs: &mut [f32]) -> f32 {
    let n = xs.len();
    if n == 0 {
        return 0.0;
    }
    let mid = n / 2;
    let (_, &mut hi, _) = xs.select_nth_unstable_by(mid, |a, b| a.total_cmp(b));
    if n % 2 == 1 {
        hi
    } else {
        // Largest element of the lower half.
        let lo = xs[..mid].iter().copied().fold(f32::NEG_INFINITY, f32::max);
        0.5 * (lo + hi)
    }
}

fn trimmed_mean_inplace(xs: &mut [f32], trim: usize) -> f32 {
    let n = xs.len();
    if n == 0 {
        return 0.0;
    }
    let trim = trim.min((n - 1) / 2);
    xs.sort_unstable_by(|a, b| a.total_cmp(b));
    mean(&xs[trim..n - trim])
}

fn coordinate_median(vectors: &[&[f32]]) -> Vec<f32> {
    coordinate_reduce(vectors, median_inplace)
}

fn coordinate_trimmed_mean(vectors: &[&[f32]], trim: usize) -> Vec<f32> {
    coordinate_reduce(vectors, |buf| trimmed_mean_inplace(buf, trim))
}

fn coordinate_reduce(vectors: &[&[f32]], mut reduce: impl FnMut(&mut [f32]) -> f32) -> Vec<f32> {
    let Some(first) = vectors.first() else {
        return Vec::new();
    };
    let dim = first.len();
    debug_assert!(vectors.iter().all(|v| v.len() == dim));
    let mut scratch = vec![0.0f32; vectors.len()];
    let mut out = Vec::with_capacity(dim);
    for d in 0..dim {
        for (s, v) in scratch.iter_mut().zip(vectors) {
            *s = v[d];
        }
        out.push(reduce(&mut scratch));
    }
    out
}

fn reduce_uploads<'a>(
    uploads: impl IntoIterator<Item = &'a GlobalGradients> + Clone,
    reduce: impl Fn(&[&[f32]]) -> Vec<f32>,
) -> GlobalGradients {
    let mut out = GlobalGradients::new();
    for (item, grads) in gather_item_gradients(uploads.clone()) {
        out.add_item_grad(item, &reduce(&grads));
    }
    let mlp_uploads = gather_mlp_gradients(uploads);
    if let Some(first) = mlp_uploads.first() {
        let flats: Vec<Vec<f32>> = mlp_uploads.iter().map(|m| m.flatten()).collect();
        let refs: Vec<&[f32]> = flats.iter().map(|f| f.as_slice()).collect();
        out.mlp = Some(first.unflatten_like(&reduce(&refs)));
    }
    out
}

fn reference_median(uploads: &[GlobalGradients]) -> GlobalGradients {
    reduce_uploads(uploads, |grads| {
        let mut combined = coordinate_median(grads);
        frs_linalg::scale(&mut combined, grads.len() as f32);
        combined
    })
}

fn reference_trimmed_mean(uploads: &[GlobalGradients], trim_ratio: f64) -> GlobalGradients {
    reduce_uploads(uploads, |grads| {
        let trim = ((grads.len() as f64) * trim_ratio).ceil() as usize;
        let mut combined = coordinate_trimmed_mean(grads, trim);
        frs_linalg::scale(&mut combined, grads.len() as f32);
        combined
    })
}

/// Bulyan's selection as `frs_defense::krum` makes it (pinned by
/// `krum_parity`), in `(score, index)` order; `None` below the rule's size.
fn bulyan_selection(uploads: &[GlobalGradients], ratio: f64) -> Option<Vec<usize>> {
    let n = uploads.len();
    let f = ((n as f64) * ratio).ceil() as usize;
    let mut order = upload_distance_matrix(uploads).krum_scores(f)?;
    order.sort_unstable_by(|(ai, a), (bi, b)| a.total_cmp(b).then(ai.cmp(bi)));
    order.truncate(n.saturating_sub(2 * f).max(1));
    Some(order.into_iter().map(|(i, _)| i).collect())
}

fn reference_bulyan_reduce(selected: &[&GlobalGradients], ratio: f64) -> GlobalGradients {
    reduce_uploads(selected.iter().copied(), |grads| {
        let trim =
            (((grads.len() as f64) * ratio).ceil() as usize).min(grads.len().saturating_sub(1) / 2);
        let mut combined = coordinate_trimmed_mean(grads, trim);
        let kept = grads.len().saturating_sub(2 * trim).max(1) as f32;
        frs_linalg::scale(&mut combined, kept);
        combined
    })
}

// ---------------------------------------------------------------------------
// Fixtures
// ---------------------------------------------------------------------------

/// Holder counts on both sides of every power of two up to 257.
const HOLDER_COUNTS: [usize; 23] = [
    1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 127, 128, 129, 255, 256, 257,
];

/// The special values: signed zeros, subnormals, infinities, NaNs of both
/// signs with distinct payloads (quiet and signalling), and values whose
/// sums overflow.
const SPECIALS: [f32; 16] = [
    0.0,
    -0.0,
    1e-40,
    -1e-40,
    -3e-39,
    f32::INFINITY,
    f32::NEG_INFINITY,
    f32::from_bits(0x7FC0_0000),
    f32::from_bits(0x7FC0_1234),
    f32::from_bits(0xFFC0_0000),
    f32::from_bits(0xFFE0_5678),
    f32::from_bits(0x7F80_0001),
    f32::from_bits(0xFF80_4321),
    3e38,
    -3e38,
    f32::MIN_POSITIVE,
];

/// The finite special values, for rounds whose Krum scores must stay finite.
const FINITE_SPECIALS: [f32; 6] = [0.0, -0.0, 1e-40, -1e-40, -3e-39, f32::MIN_POSITIVE];

/// Values repeated often enough that columns hold exact duplicates.
const REPEATS: [f32; 4] = [0.25, -0.25, 1.5, -0.0];

const MLP_SHAPES: [(usize, usize); 2] = [(8, 8), (8, 4)];

/// Deterministic generator (xorshift64*) seeded by the proptest case.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() >> 33) as usize % n
    }

    /// One value: one of `specials` with odds 1/4, else a repeat or a fresh
    /// value in `[-1, 1)`.
    fn value(&mut self, specials: &[f32]) -> f32 {
        if self.below(4) == 0 {
            specials[self.below(specials.len())]
        } else if self.below(3) == 0 {
            REPEATS[self.below(REPEATS.len())]
        } else {
            ((self.next() >> 40) as f32 / 8_388_608.0) - 1.0
        }
    }

    fn row(&mut self, dim: usize, specials: &[f32]) -> Vec<f32> {
        (0..dim).map(|_| self.value(specials)).collect()
    }

    fn mlp(&mut self, specials: &[f32]) -> MlpGradients {
        let zeros = MlpGradients::zeros(&MLP_SHAPES, 4);
        let len = zeros.flatten().len();
        zeros.unflatten_like(&self.row(len, specials))
    }

    /// `k` distinct indices below `n`, in random order.
    fn pick(&mut self, n: usize, k: usize) -> Vec<usize> {
        let mut all: Vec<usize> = (0..n).collect();
        for i in 0..k {
            let j = i + self.below(n - i);
            all.swap(i, j);
        }
        all.truncate(k);
        all
    }
}

/// A round in which item `2k` is held by exactly `HOLDER_COUNTS[k]` of the
/// uploads, item `u32::MAX − 1` by a few, and the MLP part by `mlp_holders`.
fn counted_round(seed: u64, dim: usize, mlp_holders: usize) -> Vec<GlobalGradients> {
    let mut gen = Gen(seed | 1);
    let n = HOLDER_COUNTS[HOLDER_COUNTS.len() - 1] + 3;
    let mut uploads = vec![GlobalGradients::new(); n];
    let mut items: Vec<(u32, usize)> = (0u32..).step_by(2).zip(HOLDER_COUNTS).collect();
    items.push((u32::MAX - 1, 1 + gen.below(4)));
    for (item, count) in items {
        for u in gen.pick(n, count) {
            let row = gen.row(dim, &SPECIALS);
            uploads[u].add_item_grad(item, &row);
        }
    }
    for u in gen.pick(n, mlp_holders) {
        uploads[u].mlp = Some(gen.mlp(&SPECIALS));
    }
    uploads
}

/// A Bulyan round: `n` uploads over up to 12 items and `u32::MAX − 1`, with
/// finite values spread `n − u` wide in upload `u`, so the most central
/// uploads, which Bulyan selects first, are the last ones.
fn bulyan_round(seed: u64, n: usize, dim: usize, with_mlp: bool) -> Vec<GlobalGradients> {
    let mut gen = Gen(seed | 1);
    (0..n)
        .map(|u| {
            let spread = (n - u) as f32;
            let row = |gen: &mut Gen, len: usize| -> Vec<f32> {
                let mut row = gen.row(len, &FINITE_SPECIALS);
                frs_linalg::scale(&mut row, spread);
                row
            };
            let mut g = GlobalGradients::new();
            for item in (0..12u32).chain([u32::MAX - 1]) {
                if gen.below(3) > 0 {
                    g.add_item_grad(item, &row(&mut gen, dim));
                }
            }
            if with_mlp && gen.below(2) == 0 {
                let zeros = MlpGradients::zeros(&MLP_SHAPES, 4);
                g.mlp = Some(zeros.unflatten_like(&row(&mut gen, zeros.flatten().len())));
            }
            g
        })
        .collect()
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

fn assert_bitwise_eq(
    live: &GlobalGradients,
    reference: &GlobalGradients,
    what: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(live.ids(), reference.ids(), "{}: item support", what);
    for (item, grad) in live.iter() {
        let want = reference.get(item).expect("same support");
        prop_assert_eq!(bits(grad), bits(want), "{}: item {}", what, item);
    }
    let flat = |g: &GlobalGradients| g.mlp.as_ref().map(|m| bits(&m.flatten()));
    prop_assert_eq!(flat(live), flat(reference), "{}: MLP part", what);
    Ok(())
}

// ---------------------------------------------------------------------------
// Parity
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn median_and_trimmed_mean_are_bitwise_scalar(
        seed in any::<u64>(),
        dim in 1usize..18,
        mlp_pick in 0usize..HOLDER_COUNTS.len() + 1,
        ratio in 0.0f64..0.49,
    ) {
        // `mlp_pick` past the list means no upload carries an MLP part.
        let mlp_holders = HOLDER_COUNTS.get(mlp_pick).copied().unwrap_or(0);
        let uploads = counted_round(seed, dim, mlp_holders);
        assert_bitwise_eq(&Median.aggregate(&uploads), &reference_median(&uploads), "Median")?;
        for trim_ratio in [0.0, 0.1, ratio] {
            let live = TrimmedMean::new(trim_ratio).aggregate(&uploads);
            let want = reference_trimmed_mean(&uploads, trim_ratio);
            assert_bitwise_eq(&live, &want, &format!("TrimmedMean({trim_ratio})"))?;
        }
    }

    #[test]
    fn bulyan_is_bitwise_scalar_over_its_selection(
        seed in any::<u64>(),
        n in 10usize..70,
        dim in 1usize..18,
        ratio in 0.05f64..0.3,
        with_mlp in any::<bool>(),
    ) {
        let uploads = bulyan_round(seed, n, dim, with_mlp);
        let selection = bulyan_selection(&uploads, ratio).expect("n > f + 2");
        prop_assert!(
            selection.windows(2).any(|w| w[0] > w[1]),
            "the selection {:?} is in upload order", selection
        );
        let selected: Vec<&GlobalGradients> = selection.iter().map(|&i| &uploads[i]).collect();
        let live = Bulyan::new(ratio).aggregate(&uploads);
        assert_bitwise_eq(&live, &reference_bulyan_reduce(&selected, ratio), "Bulyan")?;
    }
}
