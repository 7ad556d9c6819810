//! SoA embedding arena: row-major `f32` rows addressed by row id, held in
//! copy-on-write chunks.
//!
//! The million-client simulation keeps *all* personal user embeddings in a
//! single [`EmbeddingStore`] instead of one heap `Vec<f32>` per boxed client
//! struct: 1M users × dim 16 is 64 MB in 15,641 chunks of 4 KiB rather than
//! a million 64-byte allocations plus pointer chasing. The same type
//! carries the dense per-user table that metric evaluation and the serve
//! snapshots consume (see [`UserEmbeddings`]).
//!
//! The heap backing is a vector of `Arc`-shared chunks of [`CHUNK_FLOATS`]
//! floats, each holding `max(1, CHUNK_FLOATS / cols)` whole rows. Cloning a
//! store copies chunk pointers, not rows, and [`EmbeddingStore::row_mut`]
//! copies a chunk only while another store still shares it. Taking an
//! evaluation table or publishing a serve snapshot therefore costs
//! O(chunks), and the next round pays only for the chunks it dirties.
//! Nothing can write through a clone into another store, so a published
//! snapshot keeps the values it was taken with.
//!
//! For out-of-core catalogs/populations the backing can instead be an
//! anonymous file-backed `mmap(2)` region the kernel can page to disk under
//! memory pressure. The two backings are observationally identical: same
//! init, same row addressing, same bytes (`tests::mmap_matches_heap`). The
//! mapping is done through a raw `extern "C"` binding (the sanctioned crate
//! set has no `libc`), mirroring the signal(2) shim in
//! `frs_experiments::shutdown`.

use std::ops::Range;
use std::sync::Arc;

use rand::Rng;

/// Floats per heap chunk (4 KiB): small enough that the chunks a round
/// dirties are cheap to copy, large enough that a clone of a million rows
/// is a few thousand pointer copies.
pub const CHUNK_FLOATS: usize = 1024;

/// Rows per heap chunk for `cols`-float rows (at least one, so a row wider
/// than [`CHUNK_FLOATS`] gets a chunk of its own).
fn chunk_rows(cols: usize) -> usize {
    (CHUNK_FLOATS / cols.max(1)).max(1)
}

/// Row-major `rows × cols` table of `f32` embeddings.
pub struct EmbeddingStore {
    rows: usize,
    cols: usize,
    backing: Backing,
}

enum Backing {
    /// Copy-on-write chunks of `chunk_rows(cols)` rows each; the last holds
    /// the remaining rows (after a truncate, possibly more than `rows`).
    Heap(Vec<Arc<[f32]>>),
    #[cfg(unix)]
    Mmap(MmapSlab),
}

impl EmbeddingStore {
    /// A heap store whose chunks `make` builds in row order from each
    /// chunk's range of row-major float offsets.
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
        Self {
            rows,
            cols,
            backing: Backing::Heap(chunks),
        }
    }

    /// A heap store copied out of a row-major slab.
    fn from_flat(rows: usize, cols: usize, flat: &[f32]) -> Self {
        Self::from_chunks(rows, cols, |span| Arc::from(&flat[span]))
    }

    /// All-zeros heap-backed store.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self::from_chunks(rows, cols, |span| {
            std::iter::repeat_n(0.0, span.len()).collect()
        })
    }

    /// All-zeros store backed by an unlinked temporary file under `dir`,
    /// mapped shared so the kernel can page cold rows out. Falls back to the
    /// heap when the platform has no mmap or the mapping fails (the backing
    /// is execution-only: results never depend on it).
    pub fn zeros_mmap(rows: usize, cols: usize, dir: &std::path::Path) -> Self {
        #[cfg(unix)]
        {
            if let Some(slab) = MmapSlab::zeroed(rows * cols, dir) {
                return Self {
                    rows,
                    cols,
                    backing: Backing::Mmap(slab),
                };
            }
        }
        let _ = dir;
        Self::zeros(rows, cols)
    }

    /// Store from per-row vectors (each must have the same length).
    pub fn from_rows(rows: Vec<Vec<f32>>) -> Self {
        let cols = rows.first().map_or(0, Vec::len);
        for row in &rows {
            assert_eq!(row.len(), cols, "ragged embedding rows");
        }
        Self::from_flat(rows.len(), cols, &rows.concat())
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
        let cols = self.cols;
        match &self.backing {
            Backing::Heap(chunks) => {
                let per = chunk_rows(cols);
                let at = r % per * cols;
                &chunks[r / per][at..at + cols]
            }
            #[cfg(unix)]
            Backing::Mmap(m) => &m.as_slice()[r * cols..(r + 1) * cols],
        }
    }

    /// Mutable view of row `r`. Copies the row's chunk first when another
    /// store still shares it.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows, "row {r} out of {} rows", self.rows);
        let cols = self.cols;
        match &mut self.backing {
            Backing::Heap(chunks) => {
                let per = chunk_rows(cols);
                let at = r % per * cols;
                &mut Arc::make_mut(&mut chunks[r / per])[at..at + cols]
            }
            #[cfg(unix)]
            Backing::Mmap(m) => &mut m.as_mut_slice()[r * cols..(r + 1) * cols],
        }
    }

    /// True when the rows live in a file-backed mapping.
    pub fn is_mmap(&self) -> bool {
        match &self.backing {
            Backing::Heap(_) => false,
            #[cfg(unix)]
            Backing::Mmap(_) => true,
        }
    }

    /// Drops rows beyond `n` (no-op when already at most `n` rows). Never
    /// copies: whole trailing chunks are released, and a partly kept chunk
    /// stays shared.
    pub fn truncate_rows(&mut self, n: usize) {
        if n < self.rows {
            self.rows = n;
            if let Backing::Heap(chunks) = &mut self.backing {
                chunks.truncate(n.div_ceil(chunk_rows(self.cols)));
            }
        }
    }

    /// Iterator over all rows in index order.
    pub fn rows_iter(&self) -> impl Iterator<Item = &[f32]> {
        (0..self.rows).map(move |r| self.row(r))
    }
}

impl Clone for EmbeddingStore {
    /// A heap clone shares every chunk until one side writes to it. Clones
    /// of an mmap store always materialize to heap chunks — a clone is a
    /// working copy (metric evaluation, snapshot publication), not a second
    /// out-of-core population.
    fn clone(&self) -> Self {
        match &self.backing {
            Backing::Heap(chunks) => Self {
                rows: self.rows,
                cols: self.cols,
                backing: Backing::Heap(chunks.clone()),
            },
            #[cfg(unix)]
            Backing::Mmap(m) => Self::from_flat(self.rows, self.cols, m.as_slice()),
        }
    }
}

impl std::fmt::Debug for EmbeddingStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EmbeddingStore")
            .field("rows", &self.rows)
            .field("cols", &self.cols)
            .field("mmap", &self.is_mmap())
            .finish()
    }
}

impl PartialEq for EmbeddingStore {
    /// Compares the logical rows only, whatever the backing and however
    /// the chunks are shared.
    fn eq(&self, other: &Self) -> bool {
        self.rows == other.rows && self.cols == other.cols && self.rows_iter().eq(other.rows_iter())
    }
}

/// Read access to per-user embeddings, however they are stored: the legacy
/// `Vec<Vec<f32>>` tables unit tests build by hand, and the chunked
/// [`EmbeddingStore`] the simulation exports. Metrics and the serve layer
/// are generic over this, so both representations evaluate identically.
pub trait UserEmbeddings {
    /// The embedding of user `u`. Panics when `u` is out of range.
    fn user_embedding(&self, u: usize) -> &[f32];

    /// Number of users covered.
    fn n_rows(&self) -> usize;
}

impl UserEmbeddings for [Vec<f32>] {
    fn user_embedding(&self, u: usize) -> &[f32] {
        &self[u]
    }

    fn n_rows(&self) -> usize {
        self.len()
    }
}

impl UserEmbeddings for Vec<Vec<f32>> {
    fn user_embedding(&self, u: usize) -> &[f32] {
        &self[u]
    }

    fn n_rows(&self) -> usize {
        self.len()
    }
}

impl UserEmbeddings for EmbeddingStore {
    fn user_embedding(&self, u: usize) -> &[f32] {
        self.row(u)
    }

    fn n_rows(&self) -> usize {
        self.rows()
    }
}

impl<T: UserEmbeddings + ?Sized> UserEmbeddings for &T {
    fn user_embedding(&self, u: usize) -> &[f32] {
        (**self).user_embedding(u)
    }

    fn n_rows(&self) -> usize {
        (**self).n_rows()
    }
}

#[cfg(unix)]
mod mmap_sys {
    //! Raw mmap(2)/munmap(2) bindings — the sanctioned crate set carries no
    //! `libc`, same situation as the signal(2) shim in the experiments
    //! crate. Constants are the Linux/BSD values shared by every unix this
    //! project targets.

    pub const PROT_READ: i32 = 1;
    pub const PROT_WRITE: i32 = 2;
    pub const MAP_SHARED: i32 = 1;

    extern "C" {
        pub fn mmap(
            addr: *mut core::ffi::c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut core::ffi::c_void;
        pub fn munmap(addr: *mut core::ffi::c_void, len: usize) -> i32;
    }
}

/// An owned, shared, file-backed mapping of `len` zeroed `f32`s. The backing
/// file is unlinked immediately after mapping, so the region lives exactly
/// as long as this value and leaves nothing behind on any exit path.
#[cfg(unix)]
struct MmapSlab {
    ptr: *mut f32,
    len: usize,
}

// SAFETY: the slab owns its mapping exclusively (no aliasing handles exist);
// &self/&mut self access follows the usual borrow rules, so cross-thread
// moves and shared reads are as safe as for a Vec<f32>.
#[cfg(unix)]
unsafe impl Send for MmapSlab {}
#[cfg(unix)]
unsafe impl Sync for MmapSlab {}

#[cfg(unix)]
impl MmapSlab {
    /// Maps `len` zeroed floats from a fresh unlinked file in `dir`.
    /// Returns `None` when any step fails — callers fall back to the heap.
    fn zeroed(len: usize, dir: &std::path::Path) -> Option<Self> {
        use std::os::unix::io::AsRawFd;
        use std::sync::atomic::{AtomicU64, Ordering};

        /// Distinguishes the arenas of one process, so two of the same size
        /// never open (and truncate) each other's file.
        static NEXT_ARENA: AtomicU64 = AtomicU64::new(0);

        if len == 0 {
            return None;
        }
        let (file, path) = loop {
            let n = NEXT_ARENA.fetch_add(1, Ordering::Relaxed);
            let path = dir.join(format!("frs-arena-{}-{n}-{len}.mmap", std::process::id()));
            match std::fs::OpenOptions::new()
                .read(true)
                .write(true)
                .create_new(true)
                .open(&path)
            {
                Ok(file) => break (file, path),
                // A leftover of an earlier process with this pid: next name.
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => continue,
                Err(_) => return None,
            }
        };
        let bytes = len.checked_mul(std::mem::size_of::<f32>())?;
        if file.set_len(bytes as u64).is_err() {
            let _ = std::fs::remove_file(&path);
            return None;
        }
        let ptr = unsafe {
            mmap_sys::mmap(
                std::ptr::null_mut(),
                bytes,
                mmap_sys::PROT_READ | mmap_sys::PROT_WRITE,
                mmap_sys::MAP_SHARED,
                file.as_raw_fd(),
                0,
            )
        };
        // The file stays alive through the mapping; unlink so nothing
        // persists after the process (or an early-return drop of `file`).
        let _ = std::fs::remove_file(&path);
        if ptr.is_null() || ptr as isize == -1 {
            return None;
        }
        Some(Self {
            ptr: ptr.cast(),
            len,
        })
    }

    fn as_slice(&self) -> &[f32] {
        // SAFETY: ptr/len describe the owned mapping, valid for the slab's
        // lifetime; file-backed MAP_SHARED pages are zero-initialized.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }

    fn as_mut_slice(&mut self) -> &mut [f32] {
        // SAFETY: as above, plus &mut self guarantees exclusivity.
        unsafe { std::slice::from_raw_parts_mut(self.ptr, self.len) }
    }
}

#[cfg(unix)]
impl Drop for MmapSlab {
    fn drop(&mut self) {
        let bytes = self.len * std::mem::size_of::<f32>();
        // SAFETY: unmapping the exact region this slab mapped, exactly once.
        unsafe {
            mmap_sys::munmap(self.ptr.cast(), bytes);
        }
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

    fn chunks(s: &EmbeddingStore) -> &[Arc<[f32]>] {
        match &s.backing {
            Backing::Heap(chunks) => chunks,
            #[cfg(unix)]
            Backing::Mmap(_) => panic!("heap store expected"),
        }
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
        assert_eq!(chunks(&s).len(), 15_641);
        let s = EmbeddingStore::zeros(990, 16);
        assert_eq!(chunks(&s).len(), 16);
        assert_eq!(
            chunks(&s)[15].len(),
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
        assert!(chunks(&original)
            .iter()
            .zip(chunks(&copy))
            .all(|(a, b)| Arc::ptr_eq(a, b)));
        copy.row_mut(70).fill(9.0);
        copy.row_mut(71).fill(8.0);
        let shared: Vec<bool> = chunks(&original)
            .iter()
            .zip(chunks(&copy))
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
            assert_eq!(s.user_embedding(i), row.as_slice());
        }
    }

    #[test]
    fn uniform_matches_per_row_draws() {
        // The slab init must be bit-identical to drawing each row in order —
        // this is what makes heap arenas reproduce eager per-client init.
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
        assert_eq!(chunks(&cut).len(), 2);
        assert!(Arc::ptr_eq(&chunks(&cut)[1], &chunks(&original)[1]));
        assert_eq!(flat(&cut), flat(&original)[..100 * 16]);
        cut.truncate_rows(0);
        assert!(chunks(&cut).is_empty());
        assert_eq!(cut, EmbeddingStore::zeros(0, 16));
    }

    #[cfg(unix)]
    #[test]
    fn mmap_matches_heap() {
        let dir = std::env::temp_dir();
        let mut m = EmbeddingStore::zeros_mmap(5, 4, &dir);
        assert!(m.is_mmap(), "mmap backing must engage on unix");
        let mut h = EmbeddingStore::zeros(5, 4);
        assert_eq!(m, h, "both start zeroed");
        for r in 0..5 {
            for c in 0..4 {
                m.row_mut(r)[c] = (r * 4 + c) as f32;
                h.row_mut(r)[c] = (r * 4 + c) as f32;
            }
        }
        assert_eq!(m, h);
        let copy = m.clone();
        assert!(!copy.is_mmap(), "clones materialize to the heap");
        assert_eq!(copy, h);
    }

    /// Arenas of one size built at the same time from several threads get
    /// files of their own: none sees another's writes.
    #[cfg(unix)]
    #[test]
    fn same_size_mmap_arenas_never_alias() {
        const THREADS: usize = 4;
        const PER_THREAD: usize = 8;
        let dir = std::env::temp_dir();
        let start = std::sync::Barrier::new(THREADS);
        let stores: Vec<(f32, EmbeddingStore)> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..THREADS)
                .map(|t| {
                    let (dir, start) = (&dir, &start);
                    scope.spawn(move || {
                        start.wait();
                        (0..PER_THREAD)
                            .map(|i| {
                                let mut s = EmbeddingStore::zeros_mmap(64, 4, dir);
                                assert!(s.is_mmap());
                                let value = (t * PER_THREAD + i + 1) as f32;
                                for r in 0..64 {
                                    s.row_mut(r).fill(value);
                                }
                                (value, s)
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().unwrap())
                .collect()
        });
        assert_eq!(stores.len(), THREADS * PER_THREAD);
        for (value, s) in &stores {
            assert!(
                s.rows_iter().flatten().all(|v| v == value),
                "arena {value} was overwritten"
            );
        }
    }

    #[test]
    fn user_embeddings_trait_covers_both_representations() {
        fn first<E: UserEmbeddings + ?Sized>(e: &E) -> f32 {
            e.user_embedding(0)[0]
        }
        let table = vec![vec![7.0f32], vec![8.0]];
        assert_eq!(first(&table), 7.0);
        assert_eq!(table.n_rows(), 2);
        let store = EmbeddingStore::from_rows(table);
        assert_eq!(first(&store), 7.0);
        assert_eq!(store.n_rows(), 2);
    }
}
