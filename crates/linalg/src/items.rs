//! The item index: a round's sparse uploads regrouped item by item.
//!
//! Each upload holds a strictly ascending list of item ids. The aggregation
//! kernels walk the round item-major: [`crate::DistanceMatrix::from_uploads`]
//! adds each item's terms to its holders' cells, and the coordinate-wise
//! rules reduce each item's holder rows ([`crate::CoordinateReducer`]).
//! [`ItemIndex`] lists every distinct item once, in ascending id, with its
//! holders in ascending upload order.
//!
//! It is built by a stable LSD radix sort of the `(item, upload, position)`
//! entries, taken in upload order: O(rows) work per pass, and scratch bounded
//! by the row count whatever the ids are. The keys are ids less the smallest
//! id, and a digit is as wide as the row count's bit length (8 to 16 bits),
//! or narrower when the keys need fewer bits. So a round whose ids span fewer
//! values than it has rows sorts in one pass, and a round that also holds id
//! `u32::MAX − 1` takes a few passes but no id-sized table.

/// One upload holding an item: the upload's index in the list the index was
/// built from, and the row's position in that upload.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Holder {
    item: u32,
    upload: u32,
    pos: u32,
}

impl Holder {
    /// The holding upload's index.
    pub fn upload(&self) -> usize {
        self.upload as usize
    }

    /// The item's row position in that upload.
    pub fn pos(&self) -> usize {
        self.pos as usize
    }
}

/// Every distinct item of a set of uploads with its holders; see the module
/// docs.
#[derive(Debug, Clone)]
pub struct ItemIndex {
    /// Grouped by item in ascending id; ascending upload within an item.
    holders: Vec<Holder>,
}

impl ItemIndex {
    /// Indexes uploads given as their id lists, each strictly ascending.
    ///
    /// # Panics
    ///
    /// If there are more uploads, or an upload holds more rows, than a
    /// `u32` counts.
    pub fn new<'a>(id_lists: impl IntoIterator<Item = &'a [u32]>) -> Self {
        let lists: Vec<&[u32]> = id_lists.into_iter().collect();
        assert!(
            u32::try_from(lists.len()).is_ok()
                && lists.iter().all(|ids| u32::try_from(ids.len()).is_ok()),
            "more uploads or rows than an item index counts"
        );
        debug_assert!(lists.iter().all(|ids| ids.windows(2).all(|w| w[0] < w[1])));
        let entries = lists.iter().zip(0u32..).flat_map(|(ids, upload)| {
            ids.iter()
                .zip(0u32..)
                .map(move |(&item, pos)| Holder { item, upload, pos })
        });
        let ids = lists.iter().flat_map(|ids| ids.iter().copied());
        let holders = match (ids.clone().min(), ids.max()) {
            (Some(min), Some(max)) => radix_sort_by_item(entries, min, max - min),
            _ => Vec::new(),
        };
        ItemIndex { holders }
    }

    /// `(item, holders)` for every distinct item, in ascending id; each
    /// item's holders in ascending upload order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &[Holder])> + '_ {
        self.holders
            .chunk_by(|a, b| a.item == b.item)
            .map(|run| (run[0].item, run))
    }
}

/// Stable LSD radix sort by item id of `entries`, whose items lie in
/// `[min, min + span]`: entries with one id keep their order. The keys are
/// `item − min`, and passes run only over digits where some key is nonzero.
/// The first pass scatters straight from `entries`, so a one-pass sort
/// allocates only its result.
fn radix_sort_by_item(
    entries: impl Iterator<Item = Holder> + Clone,
    min: u32,
    span: u32,
) -> Vec<Holder> {
    let rows = entries.clone().count();
    let row_bits = (usize::BITS - rows.leading_zeros()).clamp(8, 16);
    let bits = (u32::BITS - span.leading_zeros()).clamp(1, row_bits);
    let mask = (1usize << bits) - 1;
    let mut counts = vec![0usize; mask + 1];
    let mut sorted = vec![Holder::default(); rows];
    let low_digit = |item: u32| (item - min) as usize & mask;
    scatter(entries, low_digit, &mut counts, &mut sorted);
    let mut spare = Vec::new();
    let mut shift = bits;
    while span.checked_shr(shift).is_some_and(|rest| rest != 0) {
        spare.resize(rows, Holder::default());
        let digit = |item: u32| ((item - min) >> shift) as usize & mask;
        scatter(sorted.iter().copied(), digit, &mut counts, &mut spare);
        std::mem::swap(&mut sorted, &mut spare);
        shift += bits;
    }
    sorted
}

/// One stable counting pass of `entries` into `dest`, ordered by the digit
/// of each entry's item.
fn scatter(
    entries: impl Iterator<Item = Holder> + Clone,
    digit: impl Fn(u32) -> usize,
    counts: &mut [usize],
    dest: &mut [Holder],
) {
    counts.fill(0);
    for h in entries.clone() {
        counts[digit(h.item)] += 1;
    }
    let mut start = 0;
    for count in counts.iter_mut() {
        (*count, start) = (start, start + *count);
    }
    for h in entries {
        let slot = &mut counts[digit(h.item)];
        dest[*slot] = h;
        *slot += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat(index: &ItemIndex) -> Vec<(u32, Vec<(usize, usize)>)> {
        index
            .iter()
            .map(|(item, hs)| (item, hs.iter().map(|h| (h.upload(), h.pos())).collect()))
            .collect()
    }

    #[test]
    fn groups_items_ascending_with_holders_in_upload_order() {
        let lists: [&[u32]; 4] = [&[3, 9], &[], &[1, 3, 70_000], &[3, 70_000]];
        let index = ItemIndex::new(lists);
        assert_eq!(
            flat(&index),
            vec![
                (1, vec![(2, 0)]),
                (3, vec![(0, 0), (2, 1), (3, 0)]),
                (9, vec![(0, 1)]),
                (70_000, vec![(2, 2), (3, 1)]),
            ]
        );
    }

    #[test]
    fn extreme_ids_sort_in_bounded_scratch() {
        let lists: [&[u32]; 3] = [&[0, u32::MAX - 1], &[5, u32::MAX], &[u32::MAX - 1]];
        let index = ItemIndex::new(lists);
        assert_eq!(
            flat(&index),
            vec![
                (0, vec![(0, 0)]),
                (5, vec![(1, 0)]),
                (u32::MAX - 1, vec![(0, 1), (2, 0)]),
                (u32::MAX, vec![(1, 1)]),
            ]
        );
    }

    #[test]
    fn empty_and_single_id_rounds() {
        assert_eq!(ItemIndex::new([]).iter().count(), 0);
        let lists: [&[u32]; 2] = [&[], &[]];
        assert_eq!(ItemIndex::new(lists).iter().count(), 0);
        let lists: [&[u32]; 3] = [&[7], &[7], &[7]];
        assert_eq!(
            flat(&ItemIndex::new(lists)),
            vec![(7, vec![(0, 0), (1, 0), (2, 0)])]
        );
    }

    #[test]
    fn many_rows_match_a_stable_sort() {
        // Enough rows for 16-bit digits, over ids spanning all 32 bits.
        let lists: Vec<Vec<u32>> = (0..300u32)
            .map(|u| {
                let mut ids: Vec<u32> = (0..250u32)
                    .map(|k| (k.wrapping_mul(2_654_435_761) ^ u.wrapping_mul(40_503)) % 977)
                    .map(|x| x.wrapping_mul(4_397_141))
                    .collect();
                ids.sort_unstable();
                ids.dedup();
                ids
            })
            .collect();
        let index = ItemIndex::new(lists.iter().map(Vec::as_slice));
        let mut want: Vec<(u32, usize, usize)> = lists
            .iter()
            .enumerate()
            .flat_map(|(u, ids)| ids.iter().enumerate().map(move |(p, &id)| (id, u, p)))
            .collect();
        want.sort_by_key(|&(id, u, _)| (id, u));
        let got: Vec<(u32, usize, usize)> = index
            .iter()
            .flat_map(|(item, hs)| hs.iter().map(move |h| (item, h.upload(), h.pos())))
            .collect();
        assert_eq!(got, want);
    }
}
