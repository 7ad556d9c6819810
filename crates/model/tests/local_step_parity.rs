//! Local-step parity: the two-phase kernel every benign client trains
//! through (`GlobalModel::local_step`, then `LocalStep::backward`) is
//! **bitwise** equal to training example by example with `forward` and
//! `backward`, the loop it replaced.
//!
//! Every logit, every `∂L/∂u` coordinate, every uploaded item row and every
//! MLP gradient must carry the per-example loop's bits, so uploads, user
//! rows and reports keep their bytes. The lists run from empty (which must
//! leave the upload's MLP part `None`) through partial blocks to
//! `2·LANES + 1` examples, with repeated items as BPR's pairing produces,
//! under the BCE and the BPR delta rules; coordinates include signed zeros,
//! subnormals and ±1e30. Part of the CI `kernel-parity` job; run locally
//! with
//!
//! ```text
//! cargo test --release -p frs-model --test local_step_parity
//! ```

use frs_model::{
    bce_logit_delta, bpr_logit_deltas, GlobalGradients, GlobalModel, LossKind, ModelConfig,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Items scored side by side by the kernel.
const LANES: usize = 8;

/// Edge values a coordinate may take: signed zeros, subnormals and huge
/// finite values.
const EDGES: [f32; 6] = [0.0, -0.0, 1e-40, -1e-40, 1e30, -1e30];

/// One coordinate: an edge value about a third of the time.
fn coord(rng: &mut StdRng) -> f32 {
    let pick = rng.gen_range(0..3 * EDGES.len());
    EDGES
        .get(pick)
        .copied()
        .unwrap_or_else(|| rng.gen_range(-2.0f32..2.0))
}

/// One case: a model family and shape, the user, some item rows to
/// overwrite, and the example list.
#[derive(Debug, Clone)]
struct Case {
    config: ModelConfig,
    seed: u64,
    n_items: usize,
    user: Vec<f32>,
    /// `(item, coordinates)` rows written over the drawn table.
    rows: Vec<(u32, Vec<f32>)>,
    items: Vec<u32>,
    loss: LossKind,
}

/// Draws a case: MF (`layers == 0`) or NCF with 1–3 hidden layers of
/// 1–8 units, 1–12 items (so long lists repeat items), and `len`
/// examples.
fn draw_case(seed: u64, dim: usize, layers: usize, n_items: usize, len: usize, bpr: bool) -> Case {
    let mut rng = StdRng::seed_from_u64(seed);
    let config = if layers == 0 {
        ModelConfig::mf(dim)
    } else {
        let mut config = ModelConfig::ncf(dim);
        config.mlp_hidden = (0..layers).map(|_| rng.gen_range(1..=8)).collect();
        config
    };
    let user = (0..dim).map(|_| coord(&mut rng)).collect();
    let rows = (0..rng.gen_range(0..=4))
        .map(|_| {
            let item = rng.gen_range(0..n_items as u32);
            (item, (0..dim).map(|_| coord(&mut rng)).collect())
        })
        .collect();
    let items = (0..len).map(|_| rng.gen_range(0..n_items as u32)).collect();
    Case {
        config,
        seed,
        n_items,
        user,
        rows,
        items,
        loss: if bpr { LossKind::Bpr } else { LossKind::Bce },
    }
}

impl Case {
    fn model(&self) -> GlobalModel {
        let mut model = GlobalModel::new(
            &self.config,
            self.n_items,
            &mut StdRng::seed_from_u64(self.seed),
        );
        for (item, row) in &self.rows {
            model.item_embedding_mut(*item).copy_from_slice(row);
        }
        model
    }

    /// The first half of the list is positive under BCE.
    fn n_positives(&self) -> usize {
        self.items.len() / 2
    }

    /// BPR's pairing of a client's positives and negatives into the list
    /// `pos₀, neg₀, pos₁, neg₁, …`: the first half of the items are the
    /// positives (or, if that half is empty, there are no pairs).
    fn bpr_lists(&self) -> (Vec<u32>, Vec<u32>) {
        let (positives, negatives) = self.items.split_at(self.n_positives());
        if positives.is_empty() {
            return (Vec::new(), Vec::new());
        }
        (positives.to_vec(), negatives.to_vec())
    }
}

/// The per-example BCE loop the kernel replaced, verbatim.
fn reference_bce(
    model: &GlobalModel,
    user: &[f32],
    positives: &[u32],
    negatives: &[u32],
    grads: &mut GlobalGradients,
    d_user: &mut [f32],
) {
    let n = (positives.len() + negatives.len()).max(1) as f32;
    let scale = 1.0 / n;
    for (&item, label) in positives
        .iter()
        .zip(std::iter::repeat(1.0f32))
        .chain(negatives.iter().zip(std::iter::repeat(0.0f32)))
    {
        let (logit, cache) = model.forward(user, item);
        let delta = bce_logit_delta(logit, label) * scale;
        model.backward(user, item, &cache, delta, d_user, grads);
    }
}

/// The per-example BPR loop the kernel replaced, verbatim.
fn reference_bpr(
    model: &GlobalModel,
    user: &[f32],
    positives: &[u32],
    negatives: &[u32],
    grads: &mut GlobalGradients,
    d_user: &mut [f32],
) {
    if positives.is_empty() || negatives.is_empty() {
        return;
    }
    let n_pairs = negatives.len();
    let scale = 1.0 / n_pairs as f32;
    for (pair_idx, &neg) in negatives.iter().enumerate() {
        let pos = positives[pair_idx % positives.len()];
        let (pos_logit, pos_cache) = model.forward(user, pos);
        let (neg_logit, neg_cache) = model.forward(user, neg);
        let (d_pos, d_neg) = bpr_logit_deltas(pos_logit, neg_logit);
        model.backward(user, pos, &pos_cache, d_pos * scale, d_user, grads);
        model.backward(user, neg, &neg_cache, d_neg * scale, d_user, grads);
    }
}

/// The kernel under the same delta rules as `BenignClient`'s.
fn kernel(
    model: &GlobalModel,
    case: &Case,
    grads: &mut GlobalGradients,
    d_user: &mut [f32],
) -> Result<(), TestCaseError> {
    let user = &case.user;
    match case.loss {
        LossKind::Bce => {
            let scale = 1.0 / case.items.len().max(1) as f32;
            let step = model.local_step(user, &case.items);
            check_logits(model, user, &case.items, step.logits())?;
            let bce = |logits: &mut [f32]| {
                for (e, x) in logits.iter_mut().enumerate() {
                    let label = if e < case.n_positives() { 1.0 } else { 0.0 };
                    *x = bce_logit_delta(*x, label) * scale;
                }
            };
            step.backward(bce, d_user, grads);
        }
        LossKind::Bpr => {
            let (positives, negatives) = case.bpr_lists();
            if positives.is_empty() || negatives.is_empty() {
                return Ok(());
            }
            let scale = 1.0 / negatives.len() as f32;
            let pairs: Vec<u32> = negatives
                .iter()
                .enumerate()
                .flat_map(|(i, &neg)| [positives[i % positives.len()], neg])
                .collect();
            let step = model.local_step(user, &pairs);
            check_logits(model, user, &pairs, step.logits())?;
            let bpr = |logits: &mut [f32]| {
                for pair in logits.chunks_exact_mut(2) {
                    let (d_pos, d_neg) = bpr_logit_deltas(pair[0], pair[1]);
                    pair[0] = d_pos * scale;
                    pair[1] = d_neg * scale;
                }
            };
            step.backward(bpr, d_user, grads);
        }
    }
    Ok(())
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Phase one's logits against `forward`'s.
fn check_logits(
    model: &GlobalModel,
    user: &[f32],
    items: &[u32],
    logits: &[f32],
) -> Result<(), TestCaseError> {
    let want: Vec<f32> = items.iter().map(|&j| model.forward(user, j).0).collect();
    prop_assert_eq!(bits(logits), bits(&want));
    Ok(())
}

/// Every item row and MLP gradient, as bits.
fn upload_bits(grads: &GlobalGradients) -> (Vec<u32>, Vec<u32>, Option<Vec<u32>>) {
    (
        grads.ids().to_vec(),
        bits(grads.rows()),
        grads.mlp.as_ref().map(|mlp| bits(&mlp.flatten())),
    )
}

fn check(case: &Case) -> Result<(), TestCaseError> {
    let model = case.model();
    let dim = model.dim();
    let mut want_grads = GlobalGradients::new();
    let mut want_user = vec![0.0f32; dim];
    match case.loss {
        LossKind::Bce => {
            let (positives, negatives) = case.items.split_at(case.n_positives());
            reference_bce(
                &model,
                &case.user,
                positives,
                negatives,
                &mut want_grads,
                &mut want_user,
            );
        }
        LossKind::Bpr => {
            let (positives, negatives) = case.bpr_lists();
            reference_bpr(
                &model,
                &case.user,
                &positives,
                &negatives,
                &mut want_grads,
                &mut want_user,
            );
        }
    }
    let mut got_grads = GlobalGradients::new();
    let mut got_user = vec![0.0f32; dim];
    kernel(&model, case, &mut got_grads, &mut got_user)?;
    prop_assert_eq!(bits(&got_user), bits(&want_user));
    prop_assert_eq!(upload_bits(&got_grads), upload_bits(&want_grads));
    Ok(())
}

/// An empty list uploads nothing: no item rows and, for NCF, no MLP part.
#[test]
fn empty_list_leaves_the_upload_empty() {
    for config in [ModelConfig::mf(4), ModelConfig::ncf(4)] {
        let model = GlobalModel::new(&config, 5, &mut StdRng::seed_from_u64(1));
        let user = [0.1f32; 4];
        let step = model.local_step(&user, &[]);
        assert!(step.logits().is_empty());
        let mut grads = GlobalGradients::new();
        let mut d_user = [0.0f32; 4];
        step.backward(|deltas| assert!(deltas.is_empty()), &mut d_user, &mut grads);
        assert!(grads.is_empty());
        assert!(grads.mlp.is_none(), "{:?}", config.kind);
        assert_eq!(bits(&d_user), bits(&[0.0; 4]));
    }
}

/// All-zero users of either sign against positive items: every MF product
/// is a zero of the user's sign, so a lane fold that started from `+0.0`
/// instead of `-0.0` shows in the sign bit.
#[test]
fn signed_zero_users_keep_their_sign() {
    let mut three_layers = ModelConfig::ncf(5);
    three_layers.mlp_hidden = vec![7, 4, 3];
    for config in [ModelConfig::mf(5), ModelConfig::ncf(5), three_layers] {
        for zero in [0.0f32, -0.0] {
            for len in [1, LANES, 2 * LANES + 1] {
                let mut case = draw_case(len as u64, 5, 0, 9, len, false);
                case.config = config.clone();
                case.user = vec![zero; 5];
                let drawn = case.model();
                case.rows = (0..9u32)
                    .map(|j| (j, drawn.item_embedding(j).iter().map(|x| x.abs()).collect()))
                    .collect();
                check(&case).unwrap();
            }
        }
    }
}

/// One example per lane count, so every partial block is covered for both
/// families whatever the proptest draws.
#[test]
fn every_block_length_matches_the_loop() {
    for config in [ModelConfig::mf(5), ModelConfig::ncf(5)] {
        for len in 0..=2 * LANES + 1 {
            for loss in [LossKind::Bce, LossKind::Bpr] {
                let case = Case {
                    config: config.clone(),
                    seed: len as u64,
                    n_items: 7,
                    user: vec![0.3, -0.2, 0.0, -0.0, 1e-40],
                    rows: vec![(2, vec![1e30, -1e30, 0.5, -0.0, 0.25])],
                    items: (0..len as u32).map(|e| (e * 3) % 7).collect(),
                    loss,
                };
                check(&case).unwrap();
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn kernel_matches_the_per_example_loop(
        seed in any::<u64>(),
        dim in 1usize..=17,
        layers in 0usize..=3,
        n_items in 1usize..=12,
        len in 0usize..=2 * LANES + 1,
    ) {
        for bpr in [false, true] {
            check(&draw_case(seed, dim, layers, n_items, len, bpr))?;
        }
    }
}
