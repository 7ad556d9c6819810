//! Algorithm 1: popular-item mining from Δ-Norm accumulation.
//!
//! The miner exploits the paper's Properties 1–2: popular items receive more
//! loss terms per round (long-tail interaction counts), so their embeddings
//! keep changing — by larger amounts, for longer — than unpopular items'.
//! A client that is sampled `R̃+1` times therefore accumulates
//! `Σ_r ‖v_j^{r} − v_j^{r-1}‖₂` per item across *its own receptions* of the
//! global model (it observes nothing between them) and takes the top-`N`.
//!
//! The same machinery serves both sides: malicious clients mine `P` to build
//! poison, and the defense's benign clients mine `P_i` to know what to
//! regularize.
//!
//! A miner keeps the last table it received as the model's shared version
//! ([`GlobalModel::shared_items`]), not as a copy of its own: every client
//! sampled in one round holds that round's one table, and a miner lets go
//! of it once its set is frozen.

use std::sync::Arc;

use frs_linalg::Matrix;
use frs_model::GlobalModel;
use serde::{Deserialize, Serialize, Value};

/// Incremental Δ-Norm miner (Algorithm 1).
#[derive(Debug, Clone)]
pub struct PopularItemMiner {
    /// `R̃`: transitions to accumulate before the popular set is frozen.
    mining_rounds: usize,
    /// `N`: size of the mined set.
    top_n: usize,
    /// The version of the item table received last; `None` before the
    /// first observation and after mining completes.
    previous: Option<Arc<Matrix>>,
    accumulated: Vec<f32>,
    transitions_seen: usize,
    mined: Option<Vec<u32>>,
}

impl PopularItemMiner {
    /// Miner that accumulates over `mining_rounds` (`R̃`, paper default 2)
    /// transitions and outputs the `top_n` (`N`) items.
    pub fn new(mining_rounds: usize, top_n: usize) -> Self {
        assert!(mining_rounds >= 1, "R̃ must be ≥ 1");
        assert!(top_n >= 1, "N must be ≥ 1");
        Self {
            mining_rounds,
            top_n,
            previous: None,
            accumulated: Vec::new(),
            transitions_seen: 0,
            mined: None,
        }
    }

    /// Feeds one observation of the global model (the client has just been
    /// sampled and received it). Returns `true` once mining is complete.
    pub fn observe(&mut self, model: &GlobalModel) -> bool {
        if self.mined.is_some() {
            return true;
        }
        let items = model.items();
        if self.accumulated.is_empty() {
            self.accumulated = vec![0.0; items.rows()];
        }
        if let Some(prev) = &self.previous {
            for j in 0..items.rows() {
                self.accumulated[j] += frs_linalg::l2_distance(items.row(j), prev.row(j));
            }
            self.transitions_seen += 1;
        }
        self.previous = Some(model.shared_items());
        if self.transitions_seen >= self.mining_rounds {
            let top = frs_linalg::top_k_desc(&self.accumulated, self.top_n);
            // lint:allow(lossy-index-cast): top_k_desc indices are below the u32-keyed catalog size
            self.mined = Some(top.into_iter().map(|i| i as u32).collect());
            // The table is no longer needed; let go of this version.
            self.previous = None;
        }
        self.mined.is_some()
    }

    /// The mined popular set `P`, in descending accumulated-Δ-Norm order
    /// (rank 0 = "most popular" by the miner's estimate). `None` until
    /// [`Self::observe`] has seen `R̃+1` models.
    pub fn mined(&self) -> Option<&[u32]> {
        self.mined.as_deref()
    }

    /// True once the popular set is frozen.
    pub fn is_complete(&self) -> bool {
        self.mined.is_some()
    }

    /// Accumulated Δ-Norm per item (diagnostics / Fig. 4 reproduction).
    pub fn accumulated(&self) -> &[f32] {
        &self.accumulated
    }

    /// How many transitions have been accumulated so far.
    pub fn transitions_seen(&self) -> usize {
        self.transitions_seen
    }

    /// Configured `N`.
    pub fn top_n(&self) -> usize {
        self.top_n
    }

    /// Serializes the miner's mutable progress (the last model snapshot,
    /// accumulated Δ-Norms, and the frozen set once mined) for mid-scenario
    /// checkpointing. The configuration (`R̃`, `N`) is rebuilt from the
    /// scenario, not persisted.
    pub fn checkpoint_state(&self) -> Value {
        MinerState {
            previous: self.previous.clone(),
            accumulated: self.accumulated.clone(),
            transitions_seen: self.transitions_seen,
            mined: self.mined.clone(),
        }
        .to_value()
    }

    /// Overlays progress captured by [`Self::checkpoint_state`] onto a
    /// freshly configured miner.
    pub fn restore_state(&mut self, state: &Value) -> Result<(), String> {
        let state = MinerState::from_value(state).map_err(|e| e.to_string())?;
        self.previous = state.previous;
        self.accumulated = state.accumulated;
        self.transitions_seen = state.transitions_seen;
        self.mined = state.mined;
        Ok(())
    }
}

/// Serialized mutable state of a [`PopularItemMiner`]. The table
/// serializes as the matrix it points at, so the bytes are those of a
/// miner that kept a copy.
#[derive(Serialize, Deserialize)]
struct MinerState {
    previous: Option<Arc<Matrix>>,
    accumulated: Vec<f32>,
    transitions_seen: usize,
    mined: Option<Vec<u32>>,
}

/// Precision of a mined set against ground-truth popularity: the fraction of
/// mined items that are within the true top-`reference_top` popularity ranks.
/// This is the quantitative version of the paper's Fig. 4 claim.
pub fn mining_precision(
    mined: &[u32],
    true_popularity_rank: &[usize],
    reference_top: usize,
) -> f64 {
    if mined.is_empty() {
        return 0.0;
    }
    let hits = mined
        .iter()
        .filter(|&&j| true_popularity_rank[j as usize] < reference_top)
        .count();
    hits as f64 / mined.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use frs_model::{GlobalGradients, GlobalModel, ModelConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn model_with_items(n: usize) -> GlobalModel {
        GlobalModel::new(&ModelConfig::mf(4), n, &mut StdRng::seed_from_u64(1))
    }

    /// Moves item `j` by `step` in every coordinate.
    fn shift_item(model: &mut GlobalModel, j: u32, step: f32) {
        let mut g = GlobalGradients::new();
        g.add_item_grad(j, &vec![-step; model.dim()]);
        model.apply_gradients(&g, 1.0);
    }

    #[test]
    fn needs_r_plus_one_observations() {
        let mut miner = PopularItemMiner::new(2, 3);
        let mut model = model_with_items(10);
        assert!(!miner.observe(&model)); // baseline
        shift_item(&mut model, 0, 0.5);
        assert!(!miner.observe(&model)); // 1st transition
        shift_item(&mut model, 0, 0.5);
        assert!(miner.observe(&model)); // 2nd transition → complete
        assert!(miner.is_complete());
        assert_eq!(miner.transitions_seen(), 2);
    }

    #[test]
    fn mines_items_that_move_most() {
        let mut miner = PopularItemMiner::new(2, 2);
        let mut model = model_with_items(10);
        miner.observe(&model);
        for _ in 0..2 {
            shift_item(&mut model, 7, 1.0);
            shift_item(&mut model, 3, 0.6);
            shift_item(&mut model, 5, 0.01);
            miner.observe(&model);
        }
        assert_eq!(miner.mined().unwrap(), &[7, 3]);
    }

    #[test]
    fn frozen_after_completion() {
        let mut miner = PopularItemMiner::new(1, 1);
        let mut model = model_with_items(5);
        miner.observe(&model);
        shift_item(&mut model, 2, 1.0);
        miner.observe(&model);
        let mined = miner.mined().unwrap().to_vec();
        // Later, a different item moves a lot — the frozen set must not change.
        shift_item(&mut model, 4, 100.0);
        miner.observe(&model);
        assert_eq!(miner.mined().unwrap(), mined.as_slice());
    }

    #[test]
    fn observes_only_what_client_receives() {
        // Two miners sampled at different cadences accumulate different
        // Δ-Norms — the miner never sees rounds it wasn't sampled in.
        let mut every_round = PopularItemMiner::new(2, 1);
        let mut sparse = PopularItemMiner::new(1, 1);
        let mut model = model_with_items(4);
        every_round.observe(&model);
        sparse.observe(&model);
        shift_item(&mut model, 1, 1.0);
        every_round.observe(&model); // sees intermediate state
        shift_item(&mut model, 1, 1.0);
        every_round.observe(&model);
        sparse.observe(&model); // sees only endpoints (one 2.0 jump)
        assert!(every_round.is_complete() && sparse.is_complete());
        assert_eq!(every_round.mined().unwrap(), &[1]);
        assert_eq!(sparse.mined().unwrap(), &[1]);
    }

    #[test]
    fn precision_counts_true_populars() {
        // Items 0,1 are truly popular (ranks 0,1); mined = [0, 5].
        let rank = vec![0usize, 1, 4, 3, 2, 5];
        assert!((mining_precision(&[0, 5], &rank, 2) - 0.5).abs() < 1e-12);
        assert_eq!(mining_precision(&[], &rank, 2), 0.0);
        assert!((mining_precision(&[0, 1], &rank, 2) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "R̃ must be ≥ 1")]
    fn zero_mining_rounds_rejected() {
        PopularItemMiner::new(0, 5);
    }

    #[test]
    fn checkpoint_roundtrip_mid_mining_continues_identically() {
        let mut reference = PopularItemMiner::new(2, 2);
        let mut model = model_with_items(8);
        reference.observe(&model);
        shift_item(&mut model, 6, 1.0);
        reference.observe(&model); // 1 of 2 transitions: mid-mining state

        // Snapshot, restore onto a freshly configured miner.
        let state = reference.checkpoint_state();
        let mut restored = PopularItemMiner::new(2, 2);
        restored.restore_state(&state).unwrap();
        assert_eq!(restored.transitions_seen(), 1);
        assert!(!restored.is_complete());

        // Both continue with the same observation and freeze the same set.
        shift_item(&mut model, 6, 1.0);
        shift_item(&mut model, 2, 0.4);
        assert!(reference.observe(&model));
        assert!(restored.observe(&model));
        assert_eq!(reference.mined(), restored.mined());
        assert_eq!(reference.accumulated(), restored.accumulated());
    }

    #[test]
    fn checkpoint_roundtrip_after_completion_keeps_frozen_set() {
        let mut miner = PopularItemMiner::new(1, 1);
        let mut model = model_with_items(5);
        miner.observe(&model);
        shift_item(&mut model, 3, 1.0);
        miner.observe(&model);
        let state = miner.checkpoint_state();
        let mut restored = PopularItemMiner::new(1, 1);
        restored.restore_state(&state).unwrap();
        assert!(restored.is_complete());
        assert_eq!(restored.mined(), miner.mined());
    }

    #[test]
    fn miners_of_one_round_share_its_table() {
        let mut model = model_with_items(6);
        let (mut a, mut b) = (PopularItemMiner::new(1, 2), PopularItemMiner::new(2, 2));
        a.observe(&model);
        b.observe(&model);
        let held = |m: &PopularItemMiner| Arc::clone(m.previous.as_ref().expect("a held table"));
        assert!(Arc::ptr_eq(&held(&a), &held(&b)), "one table for both");
        assert!(Arc::ptr_eq(&held(&a), &model.shared_items()));

        // The server's write copies the table; the miners keep the old one.
        let before = model.items().clone();
        shift_item(&mut model, 2, 1.0);
        assert!(!Arc::ptr_eq(&held(&a), &model.shared_items()));
        assert_eq!(*held(&b), before);

        assert!(a.observe(&model));
        assert!(a.previous.is_none(), "a completed miner holds no table");
        b.observe(&model);
        assert!(Arc::ptr_eq(&held(&b), &model.shared_items()));
    }

    #[test]
    fn mid_mining_checkpoint_writes_the_table_it_holds() {
        // The value a miner that kept its own copy of the table wrote: the
        // matrix under `previous`, beside the progress fields.
        let mut miner = PopularItemMiner::new(2, 2);
        let mut model = model_with_items(5);
        miner.observe(&model);
        shift_item(&mut model, 3, 0.5);
        miner.observe(&model);
        let held = model.items().clone();
        shift_item(&mut model, 1, 0.5);
        let want = Value::Object(serde::Map::from([
            ("previous".to_string(), held.to_value()),
            ("accumulated".to_string(), miner.accumulated().to_value()),
            ("transitions_seen".to_string(), 1usize.to_value()),
            ("mined".to_string(), Value::Null),
        ]));
        assert_eq!(miner.checkpoint_state(), want);
    }

    #[test]
    fn restore_rejects_garbage() {
        let mut miner = PopularItemMiner::new(1, 1);
        assert!(miner.restore_state(&Value::Bool(true)).is_err());
    }
}
