//! Per-round and cumulative training statistics (cost analysis, Fig. 6b).

use std::time::Duration;

use serde::{Deserialize, Serialize};

/// What one communication round did and cost.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RoundStats {
    pub round: usize,
    /// Clients sampled this round.
    pub n_selected: usize,
    /// Of those, how many were attacker-controlled.
    pub n_malicious_selected: usize,
    /// Distinct items that received gradient uploads.
    pub n_items_updated: usize,
    /// Size of all uploads in bytes, as [`crate::wire::encoded_size`] counts them.
    pub upload_bytes: usize,
    /// Fan-out width the round's client computation actually used (under
    /// `RoundThreads::Auto` this can change between rounds as the shared
    /// core budget's lease grows or shrinks).
    pub n_threads: usize,
    /// Wall-clock time of the whole round.
    #[serde(skip, default)]
    pub elapsed: Duration,
}

/// Aggregate over a training run.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TrainingStats {
    pub rounds: usize,
    pub total_selected: usize,
    pub total_malicious_selected: usize,
    pub total_upload_bytes: usize,
    /// Largest per-round fan-out width observed across the run.
    pub max_round_threads: usize,
    /// Wall-clock time of the rounds this process ran, and their count.
    /// Both are serde-skipped, so a run restored from a checkpoint averages
    /// only the rounds it timed itself.
    #[serde(skip, default)]
    pub total_elapsed: Duration,
    #[serde(skip, default)]
    pub timed_rounds: u32,
}

impl TrainingStats {
    /// Folds one round into the running totals.
    pub fn absorb(&mut self, round: &RoundStats) {
        self.rounds += 1;
        self.total_selected += round.n_selected;
        self.total_malicious_selected += round.n_malicious_selected;
        self.total_upload_bytes += round.upload_bytes;
        self.max_round_threads = self.max_round_threads.max(round.n_threads);
        self.total_elapsed += round.elapsed;
        self.timed_rounds = self.timed_rounds.saturating_add(1);
    }

    /// Mean wall-clock time per timed round — the Fig. 6(b) measure.
    pub fn mean_round_time(&self) -> Duration {
        self.total_elapsed
            .checked_div(self.timed_rounds)
            .unwrap_or(Duration::ZERO)
    }

    /// Empirical fraction of sampled clients that were malicious.
    pub fn malicious_selection_rate(&self) -> f64 {
        if self.total_selected == 0 {
            0.0
        } else {
            self.total_malicious_selected as f64 / self.total_selected as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round(n_sel: usize, n_mal: usize) -> RoundStats {
        RoundStats {
            round: 0,
            n_selected: n_sel,
            n_malicious_selected: n_mal,
            n_items_updated: 10,
            upload_bytes: 100,
            n_threads: 2,
            elapsed: Duration::from_millis(10),
        }
    }

    #[test]
    fn absorb_accumulates() {
        let mut t = TrainingStats::default();
        t.absorb(&round(10, 1));
        t.absorb(&round(10, 0));
        assert_eq!(t.rounds, 2);
        assert_eq!(t.total_selected, 20);
        assert_eq!(t.total_malicious_selected, 1);
        assert!((t.malicious_selection_rate() - 0.05).abs() < 1e-12);
        assert_eq!(t.mean_round_time(), Duration::from_millis(10));
        assert_eq!(t.max_round_threads, 2);
    }

    #[test]
    fn empty_stats_are_safe() {
        let t = TrainingStats::default();
        assert_eq!(t.mean_round_time(), Duration::ZERO);
        assert_eq!(t.malicious_selection_rate(), 0.0);
    }
}
