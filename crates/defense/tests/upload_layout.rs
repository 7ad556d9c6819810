//! Upload layout parity: `GlobalGradients`' sorted ids and flat row block
//! hold **bitwise** what a per-item `BTreeMap<u32, Vec<f32>>` fold holds.
//!
//! `MapUpload` below is the upload type as it was before the flat layout,
//! verbatim: one heap row per item, a first push copied, a repeat added in
//! place in push order, `axpy` merging item by item. Uploads are built from
//! random push sequences (repeated and out-of-order ids, rows holding signed
//! zeros and subnormals), and every fold the simulation runs — pushes,
//! `axpy`, `scale`, `sum_uploads`, `GlobalGradients::weighted_sum` and
//! NormBound's clipped sum — must match the map to the bit. Part of the CI
//! `kernel-parity` job; run locally with
//!
//! ```text
//! cargo test --release -p frs-defense --test upload_layout
//! ```

use std::collections::BTreeMap;

use frs_defense::NormBound;
use frs_federation::{sum_uploads, upload_norm, Aggregator};
use frs_model::{GlobalGradients, MlpGradients};
use proptest::prelude::*;

const DIM: usize = 3;
const N_IDS: u32 = 12;
const MLP_SHAPES: [(usize, usize); 1] = [(2, 2)];

// ---------------------------------------------------------------------------
// The per-item map fold (do not "optimize" this — its value is staying
// exactly what uploads used to compute).
// ---------------------------------------------------------------------------

#[derive(Clone, Default)]
struct MapUpload {
    items: BTreeMap<u32, Vec<f32>>,
    mlp: Option<MlpGradients>,
}

impl MapUpload {
    fn add_item_grad(&mut self, item: u32, grad: &[f32]) {
        match self.items.get_mut(&item) {
            Some(acc) => frs_linalg::add_assign(acc, grad),
            None => {
                self.items.insert(item, grad.to_vec());
            }
        }
    }

    fn axpy(&mut self, alpha: f32, other: &MapUpload) {
        for (&item, grad) in &other.items {
            match self.items.get_mut(&item) {
                Some(acc) => frs_linalg::axpy(alpha, grad, acc),
                None => {
                    let mut g = grad.clone();
                    frs_linalg::scale(&mut g, alpha);
                    self.items.insert(item, g);
                }
            }
        }
        if let Some(omlp) = &other.mlp {
            match &mut self.mlp {
                Some(m) => m.axpy(alpha, omlp),
                None => {
                    let mut m = omlp.clone();
                    m.scale(alpha);
                    self.mlp = Some(m);
                }
            }
        }
    }

    fn scale(&mut self, alpha: f32) {
        for grad in self.items.values_mut() {
            frs_linalg::scale(grad, alpha);
        }
        if let Some(m) = &mut self.mlp {
            m.scale(alpha);
        }
    }
}

// ---------------------------------------------------------------------------
// Fixtures
// ---------------------------------------------------------------------------

/// One float: mostly uniform, with signed zeros and subnormals mixed in.
fn value() -> impl Strategy<Value = f32> {
    (0u8..10, -4.0f32..4.0).prop_map(|(kind, x)| match kind {
        0 => 0.0,
        1 => -0.0,
        2 => f32::MIN_POSITIVE / 8.0,
        3 => -f32::MIN_POSITIVE / 3.0,
        _ => x,
    })
}

/// One upload's push sequence — ids arrive out of order and repeat, two or
/// three times each on average, so the fold order of repeats shows in the
/// bits — plus an optional MLP part.
type RawUpload = (Vec<(u32, Vec<f32>)>, bool, Vec<f32>);

fn raw_upload() -> impl Strategy<Value = RawUpload> {
    (
        prop::collection::vec((0u32..N_IDS, prop::collection::vec(value(), DIM)), 0..60),
        any::<bool>(),
        prop::collection::vec(value(), 8),
    )
}

fn mlp_of(raw: &RawUpload) -> Option<MlpGradients> {
    let (_, with_mlp, vals) = raw;
    with_mlp.then(|| MlpGradients::zeros(&MLP_SHAPES, 2).unflatten_like(vals))
}

fn build(raw: &RawUpload) -> (GlobalGradients, MapUpload) {
    let mut flat = GlobalGradients::new();
    let mut map = MapUpload::default();
    for (item, grad) in &raw.0 {
        flat.add_item_grad(*item, grad);
        map.add_item_grad(*item, grad);
    }
    flat.mlp = mlp_of(raw);
    map.mlp = mlp_of(raw);
    (flat, map)
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|x| x.to_bits()).collect()
}

fn assert_same(flat: &GlobalGradients, map: &MapUpload, what: &str) -> Result<(), TestCaseError> {
    let ids: Vec<u32> = map.items.keys().copied().collect();
    prop_assert!(flat.ids() == ids, "{what}: ids {:?} vs {ids:?}", flat.ids());
    prop_assert!(flat.n_items() == ids.len(), "{what}: item count");
    let mut rows = Vec::new();
    for ((id, row), (&map_id, map_row)) in flat.iter().zip(&map.items) {
        prop_assert!(id == map_id, "{what}: iteration order");
        prop_assert!(bits(row) == bits(map_row), "{what}: item {id} differs");
        prop_assert!(
            flat.get(id).map(bits) == Some(bits(map_row)),
            "{what}: get({id}) differs"
        );
        rows.extend_from_slice(map_row);
    }
    prop_assert!(
        bits(flat.rows()) == bits(&rows),
        "{what}: row block differs"
    );
    prop_assert!(flat.get(N_IDS).is_none(), "{what}: an id never pushed");
    let mlp_bits = |m: &Option<MlpGradients>| m.as_ref().map(|m| bits(&m.flatten()));
    prop_assert!(
        mlp_bits(&flat.mlp) == mlp_bits(&map.mlp),
        "{what}: MLP part differs"
    );
    Ok(())
}

proptest! {
    #[test]
    fn pushes_fold_like_the_map(raw in raw_upload()) {
        let (flat, map) = build(&raw);
        assert_same(&flat, &map, "pushes")?;
    }

    #[test]
    fn axpy_and_scale_match_the_map(
        a in raw_upload(),
        b in raw_upload(),
        alpha in value(),
        beta in value(),
    ) {
        let ((mut flat, mut map), (flat_b, map_b)) = (build(&a), build(&b));
        flat.axpy(alpha, &flat_b);
        map.axpy(alpha, &map_b);
        assert_same(&flat, &map, "axpy")?;
        flat.scale(beta);
        map.scale(beta);
        assert_same(&flat, &map, "axpy then scale")?;
    }

    #[test]
    fn one_pass_sums_match_the_map_fold(
        raws in prop::collection::vec(raw_upload(), 0..8),
        alphas in prop::collection::vec(value(), 8),
        threshold in 0.5f32..8.0,
    ) {
        let (flats, maps): (Vec<GlobalGradients>, Vec<MapUpload>) =
            raws.iter().map(build).unzip();
        let fold = |weights: &[f32]| {
            let mut acc = MapUpload::default();
            for (&alpha, map) in weights.iter().zip(&maps) {
                acc.axpy(alpha, map);
            }
            acc
        };

        assert_same(&sum_uploads(&flats), &fold(&[1.0; 8]), "sum_uploads")?;

        let weighted = GlobalGradients::weighted_sum(alphas.iter().copied().zip(&flats));
        assert_same(&weighted, &fold(&alphas), "weighted_sum")?;

        // NormBound: each upload clipped to the threshold, then summed.
        let factors: Vec<f32> = flats
            .iter()
            .map(|u| {
                let norm = upload_norm(u);
                if norm > threshold { threshold / norm } else { 1.0 }
            })
            .collect();
        let clipped = NormBound::new(threshold).aggregate(&flats);
        assert_same(&clipped, &fold(&factors), "NormBound")?;
    }
}

#[test]
#[should_panic(expected = "item gradient of length 2 in an upload of dim 3")]
fn summing_uploads_of_different_dims_panics() {
    let mut a = GlobalGradients::new();
    a.add_item_grad(1, &[1.0, 2.0, 3.0]);
    let mut b = GlobalGradients::new();
    b.add_item_grad(1, &[1.0, 2.0]);
    sum_uploads(&[a, b]);
}
