//! Ranking and top-k selection.
//!
//! Recommendation lists are "top-K by predicted score over uninteracted
//! items"; the popular-item miner is "top-N by accumulated Δ-Norm". Both run
//! over every item: the miner's selection is a partial `select_nth_unstable`
//! pass (O(m) expected) followed by a sort of only the k survivors, and a
//! recommendation list is one bounded insertion scan that checks an item's
//! eligibility only when its score would make the list.

/// Indices `0..scores.len()` sorted by descending score. Ties break by
/// ascending index so results are deterministic.
pub fn argsort_desc(scores: &[f32]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..scores.len()).collect();
    idx.sort_unstable_by(|&a, &b| scores[b].total_cmp(&scores[a]).then(a.cmp(&b)));
    idx
}

/// The `k` indices with the highest scores, in descending score order.
/// Returns all indices when `k >= len`.
pub fn top_k_desc(scores: &[f32], k: usize) -> Vec<usize> {
    let n = scores.len();
    if k == 0 || n == 0 {
        return Vec::new();
    }
    if k >= n {
        return argsort_desc(scores);
    }
    let mut idx: Vec<usize> = (0..n).collect();
    // Partition so the k largest (by score, ties by low index) sit in idx[..k].
    idx.select_nth_unstable_by(k - 1, |&a, &b| {
        scores[b].total_cmp(&scores[a]).then(a.cmp(&b))
    });
    idx.truncate(k);
    idx.sort_unstable_by(|&a, &b| scores[b].total_cmp(&scores[a]).then(a.cmp(&b)));
    idx
}

/// Like [`top_k_desc`] but only considers indices for which `eligible` returns
/// true — e.g. ranking uninteracted items only (ER@K excludes interacted
/// items, Eq. 3).
pub fn top_k_desc_filtered(
    scores: &[f32],
    k: usize,
    eligible: impl FnMut(usize) -> bool,
) -> Vec<usize> {
    let mut out = Vec::new();
    top_k_desc_filtered_into(scores, k, eligible, &mut out);
    out
}

/// [`top_k_desc_filtered`] writing into a caller-owned buffer so per-user
/// metric loops (ER@K over the whole population) allocate nothing after the
/// first user. `out` is cleared and left holding the result.
///
/// One bounded pass in index order: `out` keeps the best eligible indices
/// seen so far, at most `k`, in the full-sort order (`total_cmp` descending,
/// ties to the lower index). A later index can only enter a full list by
/// beating its last entry under `total_cmp`, since on a tie the earlier
/// index ranks first, and `eligible` is called only for indices that would
/// enter. Ranking a user's catalogue thus looks up the user's history for
/// about `k · ln(n / k)` items instead of all `n`.
pub fn top_k_desc_filtered_into(
    scores: &[f32],
    k: usize,
    mut eligible: impl FnMut(usize) -> bool,
    out: &mut Vec<usize>,
) {
    out.clear();
    if k == 0 {
        return;
    }
    // The k-th score once the list is full.
    let mut floor: Option<f32> = None;
    for (i, &s) in scores.iter().enumerate() {
        if floor.is_some_and(|f| s.total_cmp(&f).is_le()) || !eligible(i) {
            continue;
        }
        // Entries scoring at least `s` stay ahead: equal ones are earlier.
        let at = out.partition_point(|&j| scores[j].total_cmp(&s).is_ge());
        if out.len() == k {
            out.pop();
        }
        out.insert(at, i);
        if out.len() == k {
            floor = Some(scores[out[k - 1]]);
        }
    }
}

/// Sum of the `k` smallest values, accumulated in ascending value order.
///
/// Uses a partial `select_nth_unstable` pass and sorts only the surviving
/// prefix, but the summed value sequence — and therefore every intermediate
/// rounding step — is exactly the one a full ascending sort would produce, so
/// the result is bitwise-identical to `sort + prefix sum`. (Values tied at the
/// selection boundary are equal, so which of them land in the prefix cannot
/// change the sum.) Reorders `values` in place.
pub fn sum_k_smallest(values: &mut [f32], k: usize) -> f32 {
    let k = k.min(values.len());
    if k == 0 {
        // `Iterator::sum::<f32>()` of nothing is -0.0 (the IEEE additive
        // identity); return the same bits the reference prefix sum would.
        return values[..0].iter().sum();
    }
    if k < values.len() {
        values.select_nth_unstable_by(k - 1, |a, b| a.total_cmp(b));
    }
    values[..k].sort_unstable_by(|a, b| a.total_cmp(b));
    values[..k].iter().sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn argsort_orders_descending() {
        assert_eq!(argsort_desc(&[0.1, 0.9, 0.5]), vec![1, 2, 0]);
    }

    #[test]
    fn argsort_breaks_ties_by_index() {
        assert_eq!(argsort_desc(&[1.0, 1.0, 2.0]), vec![2, 0, 1]);
    }

    #[test]
    fn top_k_matches_argsort_prefix() {
        let scores = [0.3, 0.7, 0.7, -0.2, 1.5, 0.0, 0.9];
        for k in 0..=scores.len() + 1 {
            let full = argsort_desc(&scores);
            let got = top_k_desc(&scores, k);
            assert_eq!(got, full[..k.min(scores.len())].to_vec(), "k={k}");
        }
    }

    #[test]
    fn top_k_filtered_excludes_ineligible() {
        let scores = [10.0, 9.0, 8.0, 7.0];
        let got = top_k_desc_filtered(&scores, 2, |i| i != 0);
        assert_eq!(got, vec![1, 2]);
    }

    #[test]
    fn top_k_filtered_fewer_candidates_than_k() {
        let scores = [1.0, 2.0, 3.0];
        let got = top_k_desc_filtered(&scores, 10, |i| i % 2 == 0);
        assert_eq!(got, vec![2, 0]);
    }

    #[test]
    fn top_k_filtered_into_reuses_buffer() {
        let scores = [0.3, 0.7, 0.7, -0.2, 1.5, 0.0, 0.9];
        let mut buf = vec![99usize; 32];
        for k in 0..=scores.len() + 1 {
            top_k_desc_filtered_into(&scores, k, |i| i != 4, &mut buf);
            assert_eq!(buf, top_k_desc_filtered(&scores, k, |i| i != 4), "k={k}");
        }
        top_k_desc_filtered_into(&scores, 3, |_| false, &mut buf);
        assert!(buf.is_empty());
    }

    #[test]
    fn sum_k_smallest_matches_sorted_prefix() {
        let base = [3.5f32, -1.0, 2.25, -1.0, 0.0, 7.5, 2.25, -4.0, 0.5];
        for k in 0..=base.len() + 1 {
            let mut xs = base.to_vec();
            let got = sum_k_smallest(&mut xs, k);
            let mut sorted = base.to_vec();
            sorted.sort_unstable_by(f32::total_cmp);
            let want: f32 = sorted[..k.min(sorted.len())].iter().sum();
            assert_eq!(got.to_bits(), want.to_bits(), "k={k}");
        }
        assert_eq!(sum_k_smallest(&mut [], 3), 0.0);
    }
}
