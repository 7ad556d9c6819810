//! Copy-on-write properties of the chunked `EmbeddingStore`: random
//! sequences of clones, row writes, truncations and drops, checked against
//! a plain `Vec<Vec<f32>>` model of every live store. A clone must keep
//! exactly the values it had when it was taken, whatever its siblings do.
//!
//! The shapes cover the chunk edges: row counts that are not a multiple of
//! a chunk's rows, `cols` that do not divide `CHUNK_FLOATS`, rows wider
//! than a chunk, and zero rows.

use frs_model::store::CHUNK_FLOATS;
use frs_model::EmbeddingStore;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Row widths: dividing and not dividing `CHUNK_FLOATS`, a whole chunk per
/// row, and wider than a chunk.
const COLS: [usize; 7] = [1, 3, 7, 16, 100, CHUNK_FLOATS, CHUNK_FLOATS + 476];

#[derive(Debug, Clone, Copy)]
enum Op {
    Clone,
    Write,
    Truncate,
    Drop,
}

fn op(sel: usize) -> Op {
    [Op::Clone, Op::Write, Op::Truncate, Op::Drop][sel % 4]
}

/// Panics unless `store` holds exactly the rows of `model`.
fn check(store: &EmbeddingStore, cols: usize, model: &[Vec<f32>], what: &str) {
    assert_eq!(store.rows(), model.len(), "{what}: row count");
    assert_eq!(store.cols(), cols, "{what}: cols");
    for (r, want) in model.iter().enumerate() {
        assert_eq!(store.row(r), want.as_slice(), "{what}: row {r}");
    }
    assert_eq!(store.rows_iter().count(), model.len(), "{what}: rows_iter");
}

/// Builds a `rows × cols` store (zeros or seeded uniform) and runs `ops`
/// over the population of stores cloned from it, checking every live
/// store against its model after each step. Each op is
/// `(kind, store pick, row pick)`.
fn run_script(rows: usize, cols: usize, uniform: bool, seed: u64, ops: &[(usize, usize, usize)]) {
    let (first, model) = if uniform {
        let store = EmbeddingStore::uniform(rows, cols, 1.0, &mut StdRng::seed_from_u64(seed));
        let mut rng = StdRng::seed_from_u64(seed);
        let model: Vec<Vec<f32>> = (0..rows)
            .map(|_| (0..cols).map(|_| rng.gen_range(-1.0f32..=1.0)).collect())
            .collect();
        (store, model)
    } else {
        (
            EmbeddingStore::zeros(rows, cols),
            vec![vec![0.0; cols]; rows],
        )
    };
    let mut live = vec![(first, model)];
    for (step, &(kind, pick, row)) in ops.iter().enumerate() {
        let at = pick % live.len();
        match op(kind) {
            Op::Clone => {
                let copy = (live[at].0.clone(), live[at].1.clone());
                live.push(copy);
            }
            Op::Write => {
                let (store, model) = &mut live[at];
                if !model.is_empty() {
                    let r = row % model.len();
                    let value = step as f32 + 0.5;
                    store.row_mut(r).fill(value);
                    model[r].fill(value);
                }
            }
            Op::Truncate => {
                let (store, model) = &mut live[at];
                let n = row % (model.len() + 2);
                store.truncate_rows(n);
                model.truncate(n);
            }
            Op::Drop => {
                if live.len() > 1 {
                    live.swap_remove(at);
                }
            }
        }
        for (i, (store, model)) in live.iter().enumerate() {
            check(
                store,
                cols,
                model,
                &format!("step {step} ({:?}), store {i}", op(kind)),
            );
        }
    }
    // Equality is logical: a store equals a fresh one holding its rows.
    for (store, model) in &live {
        let mut deep = EmbeddingStore::zeros(model.len(), cols);
        for (r, row) in model.iter().enumerate() {
            deep.row_mut(r).copy_from_slice(row);
        }
        assert_eq!(*store, deep);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn clones_keep_their_values(
        rows in 0usize..150,
        cols_sel in 0usize..7,
        uniform in any::<bool>(),
        seed in any::<u64>(),
        ops in prop::collection::vec((0usize..4, any::<usize>(), any::<usize>()), 1..40),
    ) {
        let cols = COLS[cols_sel];
        // Keep wide rows to a handful so a case stays small.
        let rows = if cols >= CHUNK_FLOATS { rows % 6 } else { rows };
        run_script(rows, cols, uniform, seed, &ops);
    }
}

/// The chunk edges at fixed shapes: zero rows, one row, one short of a
/// chunk, exactly a chunk, one past it, and several chunks with a short
/// last one, for each row width.
#[test]
fn chunk_edges_keep_clones_intact() {
    let mut rng = StdRng::seed_from_u64(11);
    for cols in COLS {
        let per = (CHUNK_FLOATS / cols).max(1);
        for rows in [0, 1, per - 1, per, per + 1, 3 * per + per / 2] {
            let ops: Vec<(usize, usize, usize)> =
                (0..30).map(|_| (rng.gen(), rng.gen(), rng.gen())).collect();
            run_script(rows, cols, true, 3, &ops);
            run_script(rows, cols, false, 3, &ops);
        }
    }
}
