//! The rank probe behind ER@K and HR@K.
//!
//! Both reports ask one yes/no question per user and probe item — a target
//! for ER, the held-out item for HR — namely whether the item is in the
//! user's top-K list: the first K eligible (uninteracted) items in the
//! full-sort order, `total_cmp` descending with ties to the lower id. That
//! holds iff fewer than K eligible items rank ahead of the probe. So
//! [`rank_probes`] counts those items, up to K, and stops scoring the
//! catalogue once every probe has K ahead: a probe outside the top-K is
//! settled by the first K eligible items that beat it, usually within the
//! first few blocks. A probe inside the top-K still takes a full scan.
//!
//! *Why the decisions hold.* Each probe's score comes from its own block of
//! the scorer, whose lanes carry the bits the full pass writes for the same
//! item. Scores compare as `total_cmp`'s integer keys, a block's eight
//! lanes at once. An item is counted iff it beats the probe under the
//! full-sort order and is eligible, so a count below K is the probe's exact
//! position among the eligible items, and a count of K means it is not in
//! the list.

use frs_linalg::total_order_key;
use frs_model::{UserScorer, LANES};

/// One item a report asks about for one user.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Probe {
    item: u32,
    /// The item's score as an [`order_key`].
    key: i32,
    ahead: usize,
}

impl Probe {
    pub(crate) fn new(item: u32) -> Self {
        Self {
            item,
            key: 0,
            ahead: 0,
        }
    }

    /// Eligible items ranked ahead of this one, counted up to the `k` of
    /// the last [`rank_probes`] call: below `k` it is the item's zero-based
    /// rank in the user's list, and `k` means the item is not in the top-K.
    pub(crate) fn ahead(&self) -> usize {
        self.ahead
    }

    /// Bit `l` is set iff lane `l` of a block (`keys`, holding items
    /// `first ..`) ranks ahead of this probe: a higher [`order_key`], or the
    /// same key and a lower id.
    #[inline]
    fn beaten_by(&self, keys: &[i32; LANES], first: u32) -> u32 {
        // Lanes below `ties` hold lower ids than the probe.
        let ties = self.item.saturating_sub(first);
        let mut mask = 0;
        for (l, &key) in (0u32..).zip(keys) {
            let ahead = key > self.key || (key == self.key && l < ties);
            mask |= u32::from(ahead) << l;
        }
        mask
    }
}

/// `f32::total_cmp`'s order as an integer: `a.total_cmp(&b)` is
/// `order_key(a).cmp(&order_key(b))`, so equal keys are equal bits.
#[inline]
fn order_key(x: f32) -> i32 {
    total_order_key(x.to_bits().cast_signed())
}

/// Counts, for every probe, the items that rank ahead of it and pass
/// `eligible`, up to `k`, and stops once every probe has `k` ahead.
/// `eligible` is called at most once per item, and only for items that
/// rank ahead of an undecided probe.
pub(crate) fn rank_probes(
    scorer: &mut UserScorer<'_>,
    probes: &mut [Probe],
    k: usize,
    mut eligible: impl FnMut(u32) -> bool,
) {
    for probe in probes.iter_mut() {
        let item = probe.item as usize;
        probe.key = order_key(scorer.block(item / LANES)[item % LANES]);
        probe.ahead = 0;
    }
    let mut open = if k == 0 { 0 } else { probes.len() };
    let n_items = scorer.n_items();
    for b in 0..scorer.n_blocks() {
        if open == 0 {
            break;
        }
        let first = u32::try_from(b * LANES).expect("item ids fit in u32");
        let keys = scorer.block(b).map(order_key);
        let live = (1u32 << (n_items - b * LANES).min(LANES)) - 1;
        // Each lane's eligibility, once looked up.
        let mut known = [None; LANES];
        for probe in probes.iter_mut().filter(|p| p.ahead < k) {
            let mut beaten = probe.beaten_by(&keys, first) & live;
            while beaten != 0 && probe.ahead < k {
                let l = beaten.trailing_zeros();
                beaten &= beaten - 1;
                if *known[l as usize].get_or_insert_with(|| eligible(first + l)) {
                    probe.ahead += 1;
                }
            }
            if probe.ahead == k {
                open -= 1;
            }
        }
    }
}
