//! Upload-distance parity: the item-major distance sweep is **bitwise** equal
//! to the naive per-pair [`upload_squared_distance`], cell by cell.
//!
//! `upload_distance_matrix` is the shared kernel every Krum-family defense
//! consumes, so a single differing bit here would silently change defense
//! selections (and therefore whole experiment reports). Part of the CI
//! `kernel-parity` job; run locally with
//!
//! ```text
//! cargo test --release -p frs-federation --test distance_parity
//! ```

use frs_federation::{upload_distance_matrix, upload_squared_distance, upload_view};
use frs_model::{GlobalGradients, MlpGradients};
use proptest::prelude::*;

const MLP_SHAPES: [(usize, usize); 2] = [(4, 2), (2, 2)];

/// Raw material for one upload: sparse `(item, gradient)` pairs (duplicate
/// items accumulate, as in a real client round) plus an optional MLP part.
type RawUpload = (Vec<(u32, (f32, f32, f32))>, bool, Vec<(f32, f32)>);

fn upload_strategy() -> impl Strategy<Value = RawUpload> {
    (
        prop::collection::vec((0u32..10, (-5.0f32..5.0, -5.0f32..5.0, -5.0f32..5.0)), 0..7),
        any::<bool>(),
        prop::collection::vec((-2.0f32..2.0, -2.0f32..2.0), 9),
    )
}

fn build_upload(raw: &RawUpload) -> GlobalGradients {
    let (items, with_mlp, mlp_vals) = raw;
    let mut g = GlobalGradients::new();
    for (item, (a, b, c)) in items {
        g.add_item_grad(*item, &[*a, *b, *c]);
    }
    if *with_mlp {
        let mut mlp = MlpGradients::zeros(&MLP_SHAPES, 2);
        // Fill every parameter surface from the generated values so the
        // flattened-MLP distance term is exercised, not just zeros.
        let flat_len = mlp.flatten().len();
        let vals: Vec<f32> = mlp_vals.iter().flat_map(|&(x, y)| [x, y]).collect();
        assert!(vals.len() >= flat_len, "widen mlp_vals for these shapes");
        mlp = mlp.unflatten_like(&vals[..flat_len]);
        g.mlp = Some(mlp);
    }
    g
}

/// Raw material for one upload of a wide round: a kind selector (empty,
/// MLP-only, or sparse items), item draws `(a, b, c)` skewed to low ids by
/// `a·b·c / 10⁴`, 17 gradient values per draw (cut to the case's dim), and an
/// optional MLP part.
type WideUpload = (u8, Vec<((u32, u32, u32), Vec<f32>)>, bool, Vec<(f32, f32)>);

/// Dims the wide case sweeps: below, at and past the 4-wide unroll and the
/// `cell-mf-bulyan` width (16).
const WIDE_DIMS: [usize; 4] = [1, 3, 16, 17];

fn wide_upload_strategy() -> impl Strategy<Value = WideUpload> {
    (
        0u8..8,
        prop::collection::vec(
            (
                (0u32..100, 0u32..100, 0u32..100),
                prop::collection::vec(-5.0f32..5.0, 17),
            ),
            0..48,
        ),
        any::<bool>(),
        prop::collection::vec((-2.0f32..2.0, -2.0f32..2.0), 9),
    )
}

/// Kind 0 is an empty upload and kind 1 MLP-only; the rest hold items. The
/// product skew puts the lowest ids in most of the item-holding uploads and
/// leaves ids past ~60 to one upload or none.
fn build_wide_upload(raw: &WideUpload, dim: usize) -> GlobalGradients {
    let (kind, draws, with_mlp, mlp_vals) = raw;
    match kind {
        0 => build_upload(&(vec![], false, vec![])),
        1 => build_upload(&(vec![], true, mlp_vals.clone())),
        _ => {
            let mut g = build_upload(&(vec![], *with_mlp, mlp_vals.clone()));
            for ((a, b, c), vals) in draws {
                g.add_item_grad(a * b * c / 10_000, &vals[..dim]);
            }
            g
        }
    }
}

proptest! {
    #[test]
    fn view_distance_is_bitwise_naive(a in upload_strategy(), b in upload_strategy()) {
        let (ua, ub) = (build_upload(&a), build_upload(&b));
        prop_assert_eq!(
            upload_distance_matrix(&[ua.clone(), ub.clone()]).get(0, 1).to_bits(),
            upload_squared_distance(&ua, &ub).to_bits()
        );
        // And the transpose — the matrix stores each pair once and mirrors.
        prop_assert_eq!(
            upload_distance_matrix(&[ub.clone(), ua.clone()]).get(0, 1).to_bits(),
            upload_squared_distance(&ub, &ua).to_bits()
        );
        prop_assert_eq!(upload_view(&ua).n_items(), ua.n_items());
    }

    #[test]
    fn distance_matrix_is_bitwise_naive_per_cell(
        raws in prop::collection::vec(upload_strategy(), 0..7)
    ) {
        let uploads: Vec<GlobalGradients> = raws.iter().map(build_upload).collect();
        let matrix = upload_distance_matrix(&uploads);
        prop_assert_eq!(matrix.n(), uploads.len());
        for i in 0..uploads.len() {
            prop_assert_eq!(matrix.get(i, i).to_bits(), 0.0f32.to_bits());
            for j in 0..uploads.len() {
                if i < j {
                    // Cell (i, j) must hold the naive value computed in the
                    // (i, j) argument order — the reference chain's order.
                    let naive = upload_squared_distance(&uploads[i], &uploads[j]);
                    prop_assert_eq!(matrix.get(i, j).to_bits(), naive.to_bits());
                    prop_assert_eq!(matrix.get(j, i).to_bits(), naive.to_bits());
                }
            }
        }
    }

    #[test]
    fn wide_round_matrix_is_bitwise_naive_per_cell(
        dim_idx in 0usize..4,
        raws in prop::collection::vec(wide_upload_strategy(), 16..=64),
    ) {
        // The sweep's shape: many uploads sharing popular items, the naive
        // reference checked on every cell.
        let dim = WIDE_DIMS[dim_idx];
        let uploads: Vec<GlobalGradients> =
            raws.iter().map(|raw| build_wide_upload(raw, dim)).collect();
        let matrix = upload_distance_matrix(&uploads);
        prop_assert_eq!(matrix.n(), uploads.len());
        for i in 0..uploads.len() {
            prop_assert_eq!(matrix.get(i, i).to_bits(), 0.0f32.to_bits());
            for j in i + 1..uploads.len() {
                // Cell (i, j) holds the naive value in (i, j) argument order,
                // mirrored into (j, i); the message names the cell.
                let naive = upload_squared_distance(&uploads[i], &uploads[j]).to_bits();
                prop_assert!(
                    matrix.get(i, j).to_bits() == naive && matrix.get(j, i).to_bits() == naive,
                    "dim {dim}, cell ({i}, {j}): {} / {} vs naive {}",
                    matrix.get(i, j),
                    matrix.get(j, i),
                    f32::from_bits(naive)
                );
            }
        }
    }

    #[test]
    fn mlp_only_uploads_still_measure_distance(
        vals_a in prop::collection::vec((-2.0f32..2.0, -2.0f32..2.0), 9),
        vals_b in prop::collection::vec((-2.0f32..2.0, -2.0f32..2.0), 9),
    ) {
        // DL-FRS rounds where a client touched no items: the whole distance
        // is the flattened-MLP term.
        let ua = build_upload(&(vec![], true, vals_a));
        let ub = build_upload(&(vec![], true, vals_b));
        let none = build_upload(&(vec![], false, vec![]));
        for (x, y) in [(&ua, &ub), (&ua, &none), (&none, &ub)] {
            for (first, second) in [(x, y), (y, x)] {
                prop_assert_eq!(
                    upload_distance_matrix(&[first.clone(), second.clone()]).get(0, 1).to_bits(),
                    upload_squared_distance(first, second).to_bits()
                );
            }
        }
    }
}
