//! Δ-Norm tracking (Eq. 7): `Δ-Norm_j^r = ‖v_j^{r+1} − v_j^r‖₂`.
//!
//! The tracker keeps the previous round's item table and, on every update,
//! returns/accumulates the per-item embedding displacement. It backs both the
//! Fig. 4 preliminary experiment (who dominates the top-50 Δ-Norm ranks) and
//! serves as the reference implementation that `pieck-core`'s Algorithm 1 is
//! tested against. As the reference it takes a plain `&Matrix` and keeps a
//! deep copy, where the miner shares the model's table version.

use frs_linalg::{l2_distance, Matrix};

/// Accumulates per-item Δ-Norm values across consecutive model snapshots.
#[derive(Debug, Clone)]
pub struct DeltaNormTracker {
    previous: Option<Matrix>,
    accumulated: Vec<f32>,
    observations: usize,
}

impl DeltaNormTracker {
    /// Tracker for `n_items` items.
    pub fn new(n_items: usize) -> Self {
        Self {
            previous: None,
            accumulated: vec![0.0; n_items],
            observations: 0,
        }
    }

    /// Observes the item table at a new round. Returns the per-item Δ-Norm
    /// against the previous observation (`None` on the first call, which only
    /// establishes the baseline).
    pub fn observe(&mut self, items: &Matrix) -> Option<Vec<f32>> {
        assert_eq!(items.rows(), self.accumulated.len(), "item count changed");
        let deltas = self.previous.as_ref().map(|prev| {
            let per_item: Vec<f32> = (0..items.rows())
                .map(|j| l2_distance(items.row(j), prev.row(j)))
                .collect();
            for (acc, &d) in self.accumulated.iter_mut().zip(&per_item) {
                *acc += d;
            }
            self.observations += 1;
            per_item
        });
        self.previous = Some(items.clone());
        deltas
    }

    /// Accumulated Δ-Norm per item over all observed transitions.
    pub fn accumulated(&self) -> &[f32] {
        &self.accumulated
    }

    /// Number of transitions observed so far.
    pub fn observations(&self) -> usize {
        self.observations
    }

    /// Item ids of the top-`n` accumulated Δ-Norm values, descending.
    pub fn top_n(&self, n: usize) -> Vec<u32> {
        frs_linalg::top_k_desc(&self.accumulated, n)
            .into_iter()
            .map(|i| i as u32) // lint:allow(lossy-index-cast): top_k_desc indices are below the u32-keyed catalog size
            .collect()
    }

    /// Resets accumulation but keeps the latest snapshot as baseline.
    pub fn reset_accumulation(&mut self) {
        self.accumulated.iter_mut().for_each(|v| *v = 0.0);
        self.observations = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(values: &[&[f32]]) -> Matrix {
        let cols = values[0].len();
        let flat: Vec<f32> = values.iter().flat_map(|r| r.iter().copied()).collect();
        Matrix::from_vec(values.len(), cols, flat)
    }

    #[test]
    fn first_observation_is_baseline_only() {
        let mut t = DeltaNormTracker::new(2);
        assert!(t.observe(&table(&[&[1.0, 0.0], &[0.0, 1.0]])).is_none());
        assert_eq!(t.observations(), 0);
    }

    #[test]
    fn deltas_measure_row_displacement() {
        let mut t = DeltaNormTracker::new(2);
        t.observe(&table(&[&[0.0, 0.0], &[1.0, 1.0]]));
        let d = t.observe(&table(&[&[3.0, 4.0], &[1.0, 1.0]])).unwrap();
        assert!((d[0] - 5.0).abs() < 1e-6);
        assert_eq!(d[1], 0.0);
    }

    #[test]
    fn accumulation_sums_over_rounds() {
        let mut t = DeltaNormTracker::new(1);
        t.observe(&table(&[&[0.0]]));
        t.observe(&table(&[&[1.0]]));
        t.observe(&table(&[&[3.0]]));
        assert!((t.accumulated()[0] - 3.0).abs() < 1e-6);
        assert_eq!(t.observations(), 2);
    }

    #[test]
    fn top_n_ranks_by_accumulated_change() {
        let mut t = DeltaNormTracker::new(3);
        t.observe(&table(&[&[0.0], &[0.0], &[0.0]]));
        t.observe(&table(&[&[1.0], &[5.0], &[2.0]]));
        assert_eq!(t.top_n(2), vec![1, 2]);
    }

    #[test]
    fn reset_keeps_baseline() {
        let mut t = DeltaNormTracker::new(1);
        t.observe(&table(&[&[0.0]]));
        t.observe(&table(&[&[2.0]]));
        t.reset_accumulation();
        assert_eq!(t.accumulated()[0], 0.0);
        // Next observation diffs against the *latest* snapshot (2.0), not the
        // original baseline.
        let d = t.observe(&table(&[&[3.0]])).unwrap();
        assert!((d[0] - 1.0).abs() < 1e-6);
    }
}
