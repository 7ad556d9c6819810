//! The benchmark's own arithmetic: percentile selection and the `max_qps`
//! ladder decision.

/// One percentile of a sample set, with the count it rests on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    pub value: f64,
    /// Samples the percentile was selected from.
    pub samples: usize,
    /// Samples ranked strictly above the selected one. A percentile is
    /// only worth reporting when at least ten samples lie beyond it.
    pub beyond: usize,
}

impl Percentile {
    /// How the percentile was taken, for the printed notes.
    pub fn note(&self) -> String {
        format!(
            "nearest rank of {} samples, {} beyond",
            self.samples, self.beyond
        )
    }
}

/// Nearest-rank percentile `q` (in `[0, 1]`) of `values`: the smallest
/// sample with at least `q` of all samples at or below it. `None` for an
/// empty set. NaN samples sort last.
pub fn percentile(values: &[f64], q: f64) -> Option<Percentile> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n);
    Some(Percentile {
        value: sorted[rank - 1],
        samples: n,
        beyond: n - rank,
    })
}

/// Nearest-rank median (the lower middle for an even count).
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 0.5).map(|p| p.value)
}

/// What one open-loop probe at a fixed rate observed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbeResult {
    pub sent: usize,
    /// Valid responses that arrived within the latency limit of their
    /// scheduled send time.
    pub answered_in_time: usize,
    /// p99 latency over every sent query, in microseconds; failed queries
    /// count as infinitely late.
    pub p99_us: f64,
}

/// A rung passes when at least 99% of its queries were answered within
/// the window and p99 stayed under the limit.
pub fn rung_passes(probe: &ProbeResult, p99_limit_us: f64) -> bool {
    probe.sent > 0 && probe.answered_in_time * 100 >= probe.sent * 99 && probe.p99_us < p99_limit_us
}

/// Binary search for the highest passing rung of an ascending ladder of
/// `rungs` rates, probing through `passes(index)`. Assumes a rate that
/// fails makes every higher rate fail; returns `None` when even the lowest
/// rung fails. Probes `ceil(log2(rungs + 1))` rungs.
pub fn highest_passing_rung(rungs: usize, mut passes: impl FnMut(usize) -> bool) -> Option<usize> {
    // Invariant: every rung <= `pass` passed (or `pass` is "below the
    // ladder"), every rung >= `fail` failed (or `fail` is past its top).
    let mut pass: Option<usize> = None;
    let mut fail = rungs;
    loop {
        let lo = pass.map_or(0, |p| p + 1);
        if lo >= fail {
            return pass;
        }
        let mid = lo + (fail - lo) / 2;
        if passes(mid) {
            pass = Some(mid);
        } else {
            fail = mid;
        }
    }
}

/// The geometric request-rate ladder `base * 2^(i / steps_per_doubling)`.
pub fn ladder(base: f64, steps_per_doubling: usize, rungs: usize) -> Vec<f64> {
    (0..rungs)
        .map(|i| base * (i as f64 / steps_per_doubling as f64).exp2())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_and_their_counts() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let p50 = percentile(&v, 0.5).unwrap();
        assert_eq!((p50.value, p50.samples, p50.beyond), (50.0, 100, 50));
        let p99 = percentile(&v, 0.99).unwrap();
        assert_eq!((p99.value, p99.beyond), (99.0, 1));
        assert_eq!(percentile(&v, 1.0).unwrap().value, 100.0);
        assert_eq!(percentile(&v, 0.0).unwrap().value, 1.0);
        // p99 of 1000 samples leaves exactly ten beyond it.
        let w: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p99 = percentile(&w, 0.99).unwrap();
        assert_eq!((p99.value, p99.beyond), (990.0, 10));
        assert_eq!(p99.note(), "nearest rank of 1000 samples, 10 beyond");
    }

    #[test]
    fn percentile_ignores_input_order_and_handles_edges() {
        assert_eq!(percentile(&[], 0.5), None);
        let one = percentile(&[7.0], 0.99).unwrap();
        assert_eq!((one.value, one.samples, one.beyond), (7.0, 1, 0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0), "lower middle");
        let inf = percentile(&[1.0, f64::INFINITY, 2.0], 0.99).unwrap();
        assert_eq!(inf.value, f64::INFINITY);
    }

    #[test]
    fn a_rung_needs_99_percent_answered_and_p99_under_the_limit() {
        let ok = ProbeResult {
            sent: 1000,
            answered_in_time: 990,
            p99_us: 4_000.0,
        };
        assert!(rung_passes(&ok, 20_000.0));
        assert!(!rung_passes(
            &ProbeResult {
                answered_in_time: 989,
                ..ok
            },
            20_000.0
        ));
        assert!(!rung_passes(&ok, 4_000.0), "the limit is strict");
        assert!(!rung_passes(
            &ProbeResult {
                sent: 0,
                answered_in_time: 0,
                p99_us: 0.0
            },
            20_000.0
        ));
    }

    #[test]
    fn ladder_search_finds_the_knee_in_logarithmic_probes() {
        for knee in 0..=16usize {
            let mut probes = Vec::new();
            let found = highest_passing_rung(16, |i| {
                probes.push(i);
                i < knee
            });
            assert_eq!(found, knee.checked_sub(1), "knee {knee}");
            assert!(probes.len() <= 5, "knee {knee}: {probes:?}");
            let mut unique = probes.clone();
            unique.sort_unstable();
            unique.dedup();
            assert_eq!(unique.len(), probes.len(), "no rung probed twice");
        }
        assert_eq!(highest_passing_rung(0, |_| true), None);
    }

    #[test]
    fn ladder_is_geometric() {
        let l = ladder(1000.0, 4, 9);
        assert_eq!(l.len(), 9);
        assert!((l[4] - 2000.0).abs() < 1e-9);
        assert!((l[8] - 4000.0).abs() < 1e-9);
        assert!(l.windows(2).all(|w| w[1] > w[0]));
    }
}
