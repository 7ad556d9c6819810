//! SoA embedding arena: row-major `f32` rows addressed by row id, held in
//! copy-on-write chunks.
//!
//! The million-client simulation keeps *all* personal user embeddings in a
//! single [`EmbeddingStore`] instead of one heap `Vec<f32>` per boxed client
//! struct: 1M users × dim 16 is 64 MB in 15,641 chunks of 4 KiB rather than
//! a million 64-byte allocations plus pointer chasing. The same type is the
//! dense per-user table that metric evaluation and the serve snapshots
//! consume.
//!
//! The rows live in a vector of `Arc`-shared chunks of [`CHUNK_FLOATS`]
//! floats, each holding `max(1, CHUNK_FLOATS / cols)` whole rows. Cloning a
//! store copies chunk pointers, not rows, and [`EmbeddingStore::row_mut`]
//! copies a chunk only while another store still shares it. Taking an
//! evaluation table or publishing a serve snapshot therefore costs
//! O(chunks), and the next round pays only for the chunks it dirties.
//! Nothing can write through a clone into another store, so a published
//! snapshot keeps the values it was taken with.

use std::ops::Range;
use std::sync::Arc;

use rand::Rng;

/// Floats per chunk (4 KiB): small enough that the chunks a round dirties
/// are cheap to copy, large enough that a clone of a million rows is a few
/// thousand pointer copies.
pub const CHUNK_FLOATS: usize = 1024;

/// Rows per chunk for `cols`-float rows (at least one, so a row wider than
/// [`CHUNK_FLOATS`] gets a chunk of its own).
fn chunk_rows(cols: usize) -> usize {
    (CHUNK_FLOATS / cols.max(1)).max(1)
}

/// Row-major `rows × cols` table of `f32` embeddings. A clone shares every
/// chunk until one side writes to it.
#[derive(Clone)]
pub struct EmbeddingStore {
    rows: usize,
    cols: usize,
    /// Copy-on-write chunks of `chunk_rows(cols)` rows each; the last holds
    /// the remaining rows (after a truncate, possibly more than `rows`).
    chunks: Vec<Arc<[f32]>>,
}

impl EmbeddingStore {
    /// A store whose chunks `make` builds in row order from each chunk's
    /// range of row-major float offsets.
    fn from_chunks(
        rows: usize,
        cols: usize,
        mut make: impl FnMut(Range<usize>) -> Arc<[f32]>,
    ) -> Self {
        let per = chunk_rows(cols);
        let chunks = (0..rows.div_ceil(per))
            .map(|c| {
                let end = ((c + 1) * per).min(rows);
                make(c * per * cols..end * cols)
            })
            .collect();
        Self { rows, cols, chunks }
    }

    /// All-zeros store.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self::from_chunks(rows, cols, |span| {
            std::iter::repeat_n(0.0, span.len()).collect()
        })
    }

    /// Store from per-row vectors (each must have the same length).
    pub fn from_rows(rows: Vec<Vec<f32>>) -> Self {
        let cols = rows.first().map_or(0, Vec::len);
        for row in &rows {
            assert_eq!(row.len(), cols, "ragged embedding rows");
        }
        let flat = rows.concat();
        Self::from_chunks(rows.len(), cols, |span| Arc::from(&flat[span]))
    }

    /// Uniform random store in `[-limit, limit]`, row by row — bit-identical
    /// to initializing each row with its own `rng` draw sequence.
    pub fn uniform<R: Rng + ?Sized>(rows: usize, cols: usize, limit: f32, rng: &mut R) -> Self {
        Self::from_chunks(rows, cols, |span| {
            span.map(|_| rng.gen_range(-limit..=limit)).collect()
        })
    }

    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Immutable view of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row {r} out of {} rows", self.rows);
        let per = chunk_rows(self.cols);
        let at = r % per * self.cols;
        &self.chunks[r / per][at..at + self.cols]
    }

    /// Mutable view of row `r`. Copies the row's chunk first when another
    /// store still shares it.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows, "row {r} out of {} rows", self.rows);
        let per = chunk_rows(self.cols);
        let at = r % per * self.cols;
        &mut Arc::make_mut(&mut self.chunks[r / per])[at..at + self.cols]
    }

    /// Drops rows beyond `n` (no-op when already at most `n` rows). Never
    /// copies: whole trailing chunks are released, and a partly kept chunk
    /// stays shared.
    pub fn truncate_rows(&mut self, n: usize) {
        if n < self.rows {
            self.rows = n;
            self.chunks.truncate(n.div_ceil(chunk_rows(self.cols)));
        }
    }

    /// Iterator over all rows in index order.
    pub fn rows_iter(&self) -> impl Iterator<Item = &[f32]> {
        (0..self.rows).map(move |r| self.row(r))
    }
}

impl std::fmt::Debug for EmbeddingStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EmbeddingStore")
            .field("rows", &self.rows)
            .field("cols", &self.cols)
            .finish()
    }
}

impl PartialEq for EmbeddingStore {
    /// Compares the logical rows only, however the chunks are shared.
    fn eq(&self, other: &Self) -> bool {
        self.rows == other.rows && self.cols == other.cols && self.rows_iter().eq(other.rows_iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// All logical rows, concatenated in row-major order.
    fn flat(s: &EmbeddingStore) -> Vec<f32> {
        s.rows_iter().flatten().copied().collect()
    }

    #[test]
    fn rows_address_the_flat_slab() {
        let mut s = EmbeddingStore::zeros(3, 2);
        s.row_mut(1).copy_from_slice(&[1.0, 2.0]);
        assert_eq!(s.row(0), &[0.0, 0.0]);
        assert_eq!(s.row(1), &[1.0, 2.0]);
        assert_eq!(flat(&s), &[0.0, 0.0, 1.0, 2.0, 0.0, 0.0]);
        assert_eq!(s.rows_iter().count(), 3);
    }

    #[test]
    fn chunks_hold_whole_rows() {
        for (cols, per) in [(16, 64), (7, 146), (1024, 1), (1500, 1), (0, 1024)] {
            assert_eq!(chunk_rows(cols), per, "cols {cols}");
        }
        let s = EmbeddingStore::zeros(1_001_000, 16);
        assert_eq!(s.chunks.len(), 15_641);
        let s = EmbeddingStore::zeros(990, 16);
        assert_eq!(s.chunks.len(), 16);
        assert_eq!(
            s.chunks[15].len(),
            (990 - 15 * 64) * 16,
            "last chunk is short"
        );
    }

    #[test]
    fn clone_shares_chunks_until_written() {
        let mut rng = StdRng::seed_from_u64(4);
        let original = EmbeddingStore::uniform(1000, 16, 0.1, &mut rng);
        let before = flat(&original);
        let mut copy = original.clone();
        assert!(original
            .chunks
            .iter()
            .zip(&copy.chunks)
            .all(|(a, b)| Arc::ptr_eq(a, b)));
        copy.row_mut(70).fill(9.0);
        copy.row_mut(71).fill(8.0);
        let shared: Vec<bool> = original
            .chunks
            .iter()
            .zip(&copy.chunks)
            .map(|(a, b)| Arc::ptr_eq(a, b))
            .collect();
        assert_eq!(shared.iter().filter(|s| !**s).count(), 1, "one dirty chunk");
        assert!(!shared[70 / 64]);
        assert_eq!(flat(&original), before, "the original keeps its values");
        assert_eq!(copy.row(70), &[9.0; 16]);
    }

    #[test]
    fn from_rows_round_trips() {
        let rows = vec![vec![1.0f32, 2.0], vec![3.0, 4.0]];
        let s = EmbeddingStore::from_rows(rows.clone());
        assert_eq!(s.rows(), 2);
        assert_eq!(s.cols(), 2);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(s.row(i), row.as_slice());
        }
    }

    #[test]
    fn uniform_matches_per_row_draws() {
        // The store init must be bit-identical to drawing each row in order —
        // this is what makes arenas reproduce eager per-client init.
        // Chunk boundaries must not reorder the draws: one chunk, several
        // chunks with a short last one, and rows wider than a chunk.
        for (rows, cols) in [(4, 3), (700, 3), (3, 1500)] {
            let mut a = StdRng::seed_from_u64(9);
            let s = EmbeddingStore::uniform(rows, cols, 0.1, &mut a);
            let mut b = StdRng::seed_from_u64(9);
            for r in 0..rows {
                use rand::Rng;
                let row: Vec<f32> = (0..cols).map(|_| b.gen_range(-0.1f32..=0.1)).collect();
                assert_eq!(s.row(r), row.as_slice());
            }
        }
    }

    #[test]
    fn truncate_drops_trailing_rows() {
        let mut s = EmbeddingStore::from_rows(vec![vec![1.0], vec![2.0], vec![3.0]]);
        s.truncate_rows(2);
        assert_eq!(s.rows(), 2);
        assert_eq!(flat(&s), &[1.0, 2.0]);
        s.truncate_rows(5);
        assert_eq!(s.rows(), 2, "growing truncate is a no-op");
    }

    #[test]
    fn truncate_never_copies() {
        let mut rng = StdRng::seed_from_u64(5);
        let original = EmbeddingStore::uniform(1000, 16, 0.1, &mut rng);
        let mut cut = original.clone();
        cut.truncate_rows(100);
        assert_eq!(cut.chunks.len(), 2);
        assert!(Arc::ptr_eq(&cut.chunks[1], &original.chunks[1]));
        assert_eq!(flat(&cut), flat(&original)[..100 * 16]);
        cut.truncate_rows(0);
        assert!(cut.chunks.is_empty());
        assert_eq!(cut, EmbeddingStore::zeros(0, 16));
    }
}
