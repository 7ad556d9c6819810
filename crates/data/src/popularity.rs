//! Zipf popularity weights and weighted sampling.
//!
//! Item popularity in real recommendation data follows a long-tail (Zipf-like)
//! law — Fig. 3 of the paper. The generator draws each interaction's item from
//! `P(rank r) ∝ 1/(r+1)^s`, with the exponent `s` calibrated per preset so the
//! top-15% share matches the paper's datasets.

use rand::Rng;

/// Unnormalized Zipf weights `w_r = 1/(r+1)^s` for ranks `0..n`.
pub fn zipf_weights(n: usize, exponent: f64) -> Vec<f64> {
    (0..n)
        .map(|r| 1.0 / ((r + 1) as f64).powf(exponent))
        .collect()
}

/// Cumulative-sum table for O(log n) weighted sampling.
#[derive(Debug, Clone)]
pub struct CumulativeSampler {
    cumulative: Vec<f64>,
    total: f64,
}

impl CumulativeSampler {
    /// Builds the table from non-negative weights; panics if all weights are
    /// zero, since nothing could ever be sampled.
    pub fn new(weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "no weights");
        let mut cumulative = Vec::with_capacity(weights.len());
        let mut acc = 0.0;
        for &w in weights {
            debug_assert!(w >= 0.0, "negative weight");
            acc += w;
            cumulative.push(acc);
        }
        assert!(acc > 0.0, "all weights zero");
        Self {
            cumulative,
            total: acc,
        }
    }

    /// Samples one index with probability proportional to its weight.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let x = rng.gen_range(0.0..self.total);
        // partition_point: first index whose cumulative weight exceeds x.
        self.cumulative
            .partition_point(|&c| c <= x)
            .min(self.cumulative.len() - 1)
    }

    /// Samples `count` *distinct* indices by rejection, in draw order.
    /// Suitable when `count` is well below the support size (our generator
    /// draws at most a few hundred items per user from thousands); falls
    /// back to taking the full support when `count >= n`. The picks live in
    /// `scratch`, which a caller reuses across calls so a million draws
    /// share one flag table.
    pub fn sample_distinct<'s, R: Rng + ?Sized>(
        &self,
        count: usize,
        rng: &mut R,
        scratch: &'s mut DistinctScratch,
    ) -> &'s [usize] {
        let n = self.cumulative.len();
        let DistinctScratch { seen, picked } = scratch;
        for &idx in picked.iter() {
            seen[idx] = false;
        }
        picked.clear();
        seen.resize(n, false);
        if count >= n {
            picked.extend(0..n);
            return picked;
        }
        // Rejection loop with a deterministic fallback: after too many
        // rejections (pathological weight skew) walk the remaining support.
        let max_tries = 50 * count + 200;
        let mut tries = 0;
        while picked.len() < count && tries < max_tries {
            tries += 1;
            let idx = self.sample(rng);
            if !seen[idx] {
                seen[idx] = true;
                picked.push(idx);
            }
        }
        if picked.len() < count {
            for (idx, seen_slot) in seen.iter_mut().enumerate() {
                if !*seen_slot {
                    *seen_slot = true;
                    picked.push(idx);
                    if picked.len() == count {
                        break;
                    }
                }
            }
        }
        picked
    }
}

/// Reusable working memory for [`CumulativeSampler::sample_distinct`]: a
/// flag per index and the last call's picks. Every raised flag belongs to a
/// pick, so the next call lowers them in O(picks) instead of zeroing the
/// whole table.
#[derive(Debug, Default)]
pub struct DistinctScratch {
    seen: Vec<bool>,
    picked: Vec<usize>,
}

/// Fraction of total weight carried by the `top_fraction` heaviest ranks —
/// the Fig. 3 calibration measure (top 15% of items vs share of interactions).
pub fn head_share(weights: &[f64], top_fraction: f64) -> f64 {
    let total = weights.iter().sum::<f64>(); // lint:allow(float-reduction-order): sequential fold in the caller's fixed weight order
    if total <= 0.0 {
        return 0.0;
    }
    let mut sorted = weights.to_vec();
    sorted.sort_unstable_by(|a, b| b.partial_cmp(a).unwrap());
    let head = ((weights.len() as f64 * top_fraction).ceil() as usize).min(weights.len());
    sorted[..head].iter().sum::<f64>() / total // lint:allow(float-reduction-order): sequential fold in descending sorted order
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zipf_weights_decrease() {
        let w = zipf_weights(10, 1.0);
        for pair in w.windows(2) {
            assert!(pair[0] > pair[1]);
        }
        assert!((w[0] - 1.0).abs() < 1e-12);
        assert!((w[1] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn zipf_exponent_zero_is_uniform() {
        let w = zipf_weights(5, 0.0);
        assert!(w.iter().all(|&x| (x - 1.0).abs() < 1e-12));
    }

    #[test]
    fn sampler_respects_weights() {
        let s = CumulativeSampler::new(&[1.0, 0.0, 3.0]);
        let mut rng = StdRng::seed_from_u64(1);
        let mut counts = [0usize; 3];
        for _ in 0..4000 {
            counts[s.sample(&mut rng)] += 1;
        }
        assert_eq!(counts[1], 0);
        let ratio = counts[2] as f64 / counts[0] as f64;
        assert!(ratio > 2.4 && ratio < 3.6, "ratio {ratio}");
    }

    #[test]
    fn sample_distinct_no_duplicates() {
        let s = CumulativeSampler::new(&zipf_weights(100, 1.2));
        let mut rng = StdRng::seed_from_u64(2);
        let mut scratch = DistinctScratch::default();
        let picks = s.sample_distinct(40, &mut rng, &mut scratch);
        assert_eq!(picks.len(), 40);
        let mut sorted = picks.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 40);
    }

    #[test]
    fn sample_distinct_exhausts_support() {
        let s = CumulativeSampler::new(&[1.0, 1.0, 1.0]);
        let mut rng = StdRng::seed_from_u64(3);
        let mut scratch = DistinctScratch::default();
        assert_eq!(s.sample_distinct(10, &mut rng, &mut scratch), &[0, 1, 2]);
    }

    #[test]
    fn sample_distinct_survives_extreme_skew() {
        // One weight dominates by 1e12: rejection alone would stall, the
        // fallback must still deliver distinct indices.
        let mut w = vec![1e-12; 50];
        w[0] = 1.0;
        let s = CumulativeSampler::new(&w);
        let mut rng = StdRng::seed_from_u64(4);
        let mut scratch = DistinctScratch::default();
        assert_eq!(s.sample_distinct(20, &mut rng, &mut scratch).len(), 20);
    }

    #[test]
    fn reused_scratch_draws_like_a_fresh_one() {
        // Same draws whether each call gets a fresh table or one table is
        // handed on — across support sizes, skews and the count ≥ n case.
        let samplers = [
            CumulativeSampler::new(&zipf_weights(60, 1.1)),
            CumulativeSampler::new(&[1.0, 1.0, 1.0]),
            CumulativeSampler::new(&zipf_weights(200, 0.4)),
        ];
        let (mut fresh_rng, mut reused_rng) = (StdRng::seed_from_u64(5), StdRng::seed_from_u64(5));
        let mut scratch = DistinctScratch::default();
        for call in 0..90 {
            let s = &samplers[call % samplers.len()];
            let count = call % 13;
            let fresh = s
                .sample_distinct(count, &mut fresh_rng, &mut DistinctScratch::default())
                .to_vec();
            assert_eq!(
                s.sample_distinct(count, &mut reused_rng, &mut scratch),
                fresh,
                "call {call}"
            );
        }
    }

    #[test]
    fn head_share_monotone_in_exponent() {
        let flat = head_share(&zipf_weights(1000, 0.5), 0.15);
        let steep = head_share(&zipf_weights(1000, 1.3), 0.15);
        assert!(steep > flat);
        assert!(steep > 0.5, "steep zipf should satisfy the Fig. 3 property");
    }
}
