//! Golden tests: the Krum family over the shared distance matrix is
//! **bitwise** identical to the original per-defense scalar implementation.
//!
//! `reference_*` below is a verbatim copy of the pre-refactor aggregation
//! code (naive pairwise `upload_squared_distance`, full per-row sorts, clone
//! +sort-truncate selection, and Bulyan's `BTreeMap` per-item gather with a
//! per-coordinate sorting trimmed mean). The live defenses now run through
//! `upload_distance_matrix` / `DistanceMatrix::krum_scores` / MultiKrum's
//! `best_m` selection, which Bulyan shares, and Bulyan trims through the
//! item index and the row-lane sort — and must reproduce the reference
//! output to the bit, or experiment reports would silently change. Part of
//! the CI `kernel-parity` job; run locally with
//!
//! ```text
//! cargo test --release -p frs-defense --test krum_parity
//! ```

use std::collections::BTreeMap;

use frs_defense::{Bulyan, Krum, MultiKrum};
use frs_federation::{gather_mlp_gradients, sum_uploads, upload_squared_distance, Aggregator};
use frs_model::{GlobalGradients, MlpGradients};

// ---------------------------------------------------------------------------
// Verbatim pre-refactor reference implementation (do not "optimize" this —
// its entire value is staying exactly what the defenses used to compute).
// ---------------------------------------------------------------------------

/// The scalar per-item gather (`frs_federation::aggregate`) Bulyan's trimmed
/// mean reduced before the item index, verbatim.
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

/// The scalar coordinate-wise trimmed mean (`frs_linalg::stats`) before the
/// row-lane sort, verbatim, with the helpers it called.
fn coordinate_trimmed_mean(vectors: &[&[f32]], trim: usize) -> Vec<f32> {
    coordinate_reduce(vectors, |buf| trimmed_mean_inplace(buf, trim))
}

fn mean(xs: &[f32]) -> f32 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f32>() / xs.len() as f32
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

#[allow(clippy::needless_range_loop)] // dist is a symmetric matrix indexed both ways
fn reference_krum_scores(uploads: &[GlobalGradients], f: usize) -> Option<Vec<f32>> {
    let n = uploads.len();
    if n <= f + 2 {
        return None;
    }
    let keep = n - f - 2;
    let mut dist = vec![vec![0.0f32; n]; n];
    for i in 0..n {
        for j in (i + 1)..n {
            let d = upload_squared_distance(&uploads[i], &uploads[j]);
            dist[i][j] = d;
            dist[j][i] = d;
        }
    }
    let mut scores = Vec::with_capacity(n);
    for i in 0..n {
        let mut row: Vec<f32> = (0..n).filter(|&j| j != i).map(|j| dist[i][j]).collect();
        row.sort_unstable_by(|a, b| a.total_cmp(b));
        scores.push(row[..keep.min(row.len())].iter().sum());
    }
    Some(scores)
}

fn reference_best_m(scores: &[f32], m: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..scores.len()).collect();
    idx.sort_unstable_by(|&a, &b| scores[a].total_cmp(&scores[b]).then(a.cmp(&b)));
    idx.truncate(m.max(1));
    idx
}

fn f_of(n: usize, ratio: f64) -> usize {
    ((n as f64) * ratio).ceil() as usize
}

fn reference_krum(uploads: &[GlobalGradients], ratio: f64) -> GlobalGradients {
    let f = f_of(uploads.len(), ratio);
    match reference_krum_scores(uploads, f) {
        Some(scores) => {
            let mut chosen = uploads[reference_best_m(&scores, 1)[0]].clone();
            chosen.scale(uploads.len() as f32);
            chosen
        }
        None => sum_uploads(uploads),
    }
}

fn reference_multikrum(uploads: &[GlobalGradients], ratio: f64) -> GlobalGradients {
    let n = uploads.len();
    let f = f_of(n, ratio);
    match reference_krum_scores(uploads, f) {
        Some(scores) => {
            let m = n.saturating_sub(2 * f).max(1);
            let mut out = GlobalGradients::new();
            for i in reference_best_m(&scores, m) {
                out.axpy(1.0, &uploads[i]);
            }
            out
        }
        None => sum_uploads(uploads),
    }
}

fn reference_bulyan(uploads: &[GlobalGradients], ratio: f64) -> GlobalGradients {
    let n = uploads.len();
    let f = f_of(n, ratio);
    let Some(scores) = reference_krum_scores(uploads, f) else {
        return sum_uploads(uploads);
    };
    let m = n.saturating_sub(2 * f).max(1);
    let selected: Vec<GlobalGradients> = reference_best_m(&scores, m)
        .into_iter()
        .map(|i| uploads[i].clone())
        .collect();
    let mut out = GlobalGradients::new();
    for (item, grads) in gather_item_gradients(&selected) {
        let trim =
            (((grads.len() as f64) * ratio).ceil() as usize).min(grads.len().saturating_sub(1) / 2);
        let mut combined = coordinate_trimmed_mean(&grads, trim);
        let kept = grads.len().saturating_sub(2 * trim).max(1) as f32;
        frs_linalg::scale(&mut combined, kept);
        out.add_item_grad(item, &combined);
    }
    let mlp_uploads = gather_mlp_gradients(&selected);
    if let Some(first) = mlp_uploads.first() {
        let flats: Vec<Vec<f32>> = mlp_uploads.iter().map(|g| g.flatten()).collect();
        let refs: Vec<&[f32]> = flats.iter().map(|fl| fl.as_slice()).collect();
        let trim =
            (((refs.len() as f64) * ratio).ceil() as usize).min(refs.len().saturating_sub(1) / 2);
        let mut combined = coordinate_trimmed_mean(&refs, trim);
        let kept = refs.len().saturating_sub(2 * trim).max(1) as f32;
        frs_linalg::scale(&mut combined, kept);
        out.mlp = Some(first.unflatten_like(&combined));
    }
    out
}

// ---------------------------------------------------------------------------
// Fixtures
// ---------------------------------------------------------------------------

/// Tiny deterministic generator (xorshift64*) — fixtures must be identical
/// on every run and machine, with no external RNG dependency.
struct Gen(u64);

impl Gen {
    fn next_f32(&mut self) -> f32 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        // Map to [-1, 1) with plenty of mantissa variety.
        ((self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 40) as f32 / 8_388_608.0) - 1.0
    }
}

/// `n` uploads over up to 6 items (dim 2), every third carrying an MLP part.
fn seeded_uploads(n: usize, seed: u64, with_mlp: bool) -> Vec<GlobalGradients> {
    let mut gen = Gen(seed | 1);
    (0..n)
        .map(|i| {
            let mut g = GlobalGradients::new();
            for item in 0..6u32 {
                // Sparse support: each upload touches about half the items.
                if gen.next_f32() > 0.0 {
                    g.add_item_grad(item, &[gen.next_f32(), gen.next_f32()]);
                }
            }
            if with_mlp && i % 3 == 0 {
                let mut mlp = MlpGradients::zeros(&[(4, 2), (2, 2)], 2);
                let len = mlp.flatten().len();
                let vals: Vec<f32> = (0..len).map(|_| gen.next_f32()).collect();
                mlp = mlp.unflatten_like(&vals);
                g.mlp = Some(mlp);
            }
            g
        })
        .collect()
}

fn assert_bitwise_eq(live: &GlobalGradients, reference: &GlobalGradients, what: &str) {
    let keys = live.ids();
    let ref_keys = reference.ids();
    assert_eq!(keys, ref_keys, "{what}: item support differs");
    for (item, grad) in live.iter() {
        let bits: Vec<u32> = grad.iter().map(|x| x.to_bits()).collect();
        let ref_bits: Vec<u32> = reference
            .get(item)
            .unwrap()
            .iter()
            .map(|x| x.to_bits())
            .collect();
        assert_eq!(bits, ref_bits, "{what}: item {item} differs");
    }
    assert_eq!(
        live.mlp.is_some(),
        reference.mlp.is_some(),
        "{what}: MLP presence"
    );
    if let (Some(a), Some(b)) = (&live.mlp, &reference.mlp) {
        let bits: Vec<u32> = a.flatten().iter().map(|x| x.to_bits()).collect();
        let ref_bits: Vec<u32> = b.flatten().iter().map(|x| x.to_bits()).collect();
        assert_eq!(bits, ref_bits, "{what}: MLP part differs");
    }
}

// ---------------------------------------------------------------------------
// Golden parity over seeded rounds
// ---------------------------------------------------------------------------

#[test]
fn all_three_defenses_are_bitwise_reference_across_sizes_and_ratios() {
    for &with_mlp in &[false, true] {
        for n in 0..12usize {
            for &ratio in &[0.1f64, 0.25, 0.3, 0.4] {
                let uploads = seeded_uploads(n, 0xD15 + n as u64, with_mlp);
                let tag = format!("n={n} ratio={ratio} mlp={with_mlp}");
                assert_bitwise_eq(
                    &Krum::new(ratio).aggregate(&uploads),
                    &reference_krum(&uploads, ratio),
                    &format!("Krum {tag}"),
                );
                assert_bitwise_eq(
                    &MultiKrum::new(ratio).aggregate(&uploads),
                    &reference_multikrum(&uploads, ratio),
                    &format!("MultiKrum {tag}"),
                );
                assert_bitwise_eq(
                    &Bulyan::new(ratio).aggregate(&uploads),
                    &reference_bulyan(&uploads, ratio),
                    &format!("Bulyan {tag}"),
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Bulyan selection edge cases
// ---------------------------------------------------------------------------

#[test]
fn bulyan_at_the_f_boundary_falls_back_then_engages() {
    // ratio 0.3: n=4 → f=2, n ≤ f+2 → the rule is undefined and every
    // defense must fall back to the plain sum.
    let small = seeded_uploads(4, 7, false);
    let out = Bulyan::new(0.3).aggregate(&small);
    assert_bitwise_eq(&out, &sum_uploads(&small), "Bulyan fallback n=4");

    // n=5 → f=2, n = f+3: the smallest defined round (keep = 1 neighbour,
    // m = max(5−4, 1) = 1 — selection *and* trimming at their minima).
    let boundary = seeded_uploads(5, 7, false);
    let out = Bulyan::new(0.3).aggregate(&boundary);
    let reference = reference_bulyan(&boundary, 0.3);
    assert_bitwise_eq(&out, &reference, "Bulyan boundary n=5");
    assert_ne!(
        out,
        sum_uploads(&boundary),
        "a defined round must actually filter"
    );
}

#[test]
fn bulyan_breaks_krum_score_ties_by_index() {
    // Duplicate uploads ⇒ exactly tied Krum scores. The lexicographic
    // (score, index) selection must pick the *lowest index* of each tie
    // group — same as the reference stable sort-by-score.
    let base = seeded_uploads(3, 99, false);
    let mut uploads = Vec::new();
    for u in &base {
        uploads.push(u.clone());
        uploads.push(u.clone()); // every upload appears twice → all ties
    }
    for &ratio in &[0.1f64, 0.25] {
        let out = Bulyan::new(ratio).aggregate(&uploads);
        let reference = reference_bulyan(&uploads, ratio);
        assert_bitwise_eq(&out, &reference, &format!("Bulyan dup ties ratio={ratio}"));
        // Krum's single pick hits the same tie-break.
        assert_bitwise_eq(
            &Krum::new(ratio).aggregate(&uploads),
            &reference_krum(&uploads, ratio),
            &format!("Krum dup ties ratio={ratio}"),
        );
    }
}

#[test]
fn bulyan_single_survivor_prune() {
    // ratio 0.4, n=6: f=3 ⇒ m = max(6−6, 1) = 1 — the selection must keep
    // exactly one survivor and still match the reference, and the matrix
    // path must not under- or over-prune.
    let uploads = seeded_uploads(6, 0xBEE, false);
    let out = Bulyan::new(0.4).aggregate(&uploads);
    let reference = reference_bulyan(&uploads, 0.4);
    assert_bitwise_eq(&out, &reference, "Bulyan single survivor");

    // With one survivor the trimmed mean degenerates to that upload's own
    // gradients (trim 0, kept 1): the output support must equal the support
    // of exactly one input upload.
    let support = out.ids();
    assert!(
        uploads.iter().any(|u| u.ids() == support),
        "single-survivor output support must match one upload"
    );
}
