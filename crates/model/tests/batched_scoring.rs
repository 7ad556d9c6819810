//! Scoring-kernel parity: the item-lane kernel
//! (`GlobalModel::scores_for_user_into` over `item_lanes`) and the serve
//! snapshot path built on it are **bitwise** equal to scoring every item
//! through the per-example `logit` call.
//!
//! The metrics crate ranks whole catalogues off the kernel; a single
//! differing bit would reorder ties and change ER/HR reports. Catalogues of
//! 0, 1, 7, 8, 9 and 13 items run an empty table, a lone padded block, one
//! exact block and a padded tail block. Part of the CI `kernel-parity` job;
//! run locally with
//!
//! ```text
//! cargo test --release -p frs-model --test batched_scoring
//! ```

use std::sync::Arc;

use frs_data::Dataset;
use frs_linalg::argsort_desc;
use frs_model::{EmbeddingStore, GlobalModel, ModelConfig};
use frs_serve::Snapshot;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const ITEM_COUNTS: [usize; 6] = [0, 1, 7, 8, 9, 13];

/// Edge values a user coordinate may take: signed zeros, subnormals, huge
/// finite values and infinities.
const EDGES: [f32; 8] = [
    0.0,
    -0.0,
    1e-40,
    -1e-40,
    1e30,
    -1e30,
    f32::INFINITY,
    f32::NEG_INFINITY,
];

/// A user embedding of `dim` coordinates, about half of them edge values.
fn user_strategy(dim: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec((0usize..2 * EDGES.len(), -2.0f32..2.0), dim).prop_map(|coords| {
        coords
            .into_iter()
            .map(|(pick, x)| EDGES.get(pick).copied().unwrap_or(x))
            .collect()
    })
}

/// NCF over `dim`-wide embeddings with the given hidden widths.
fn ncf(dim: usize, hidden: &[usize]) -> ModelConfig {
    let mut config = ModelConfig::ncf(dim);
    config.mlp_hidden = hidden.to_vec();
    config
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

fn per_item_logits(model: &GlobalModel, user: &[f32]) -> Vec<f32> {
    (0..model.n_items())
        .map(|j| model.logit(user, j as u32))
        .collect()
}

/// The kernel, into a dirty buffer, against per-item `logit`.
fn check_kernel(model: &GlobalModel, user: &[f32]) -> Result<(), TestCaseError> {
    let mut scores = vec![f32::NAN; 3];
    model.scores_for_user_into(&model.item_lanes(), user, &mut scores);
    prop_assert_eq!(bits(&scores), bits(&per_item_logits(model, user)));
    Ok(())
}

/// The serve path: a snapshot of a user with no history ranks the whole
/// catalogue, so every reported score must carry its item's `logit` bits,
/// in the full-sort order of those logits. Two queries run so the second
/// reads the snapshot's already-built lane table.
fn check_snapshot(model: &GlobalModel, user: &[f32]) -> Result<(), TestCaseError> {
    let n = model.n_items();
    let snapshot = Snapshot::new(
        0,
        false,
        model.clone(),
        EmbeddingStore::from_rows(vec![user.to_vec()]),
        Arc::new(Dataset::from_user_items(n, vec![Vec::new()])),
    );
    let logits = per_item_logits(model, user);
    let order = argsort_desc(&logits);
    for k in [n, n / 2] {
        let ranked = snapshot.top_k(0, k).map_err(TestCaseError::fail)?;
        prop_assert_eq!(ranked.len(), k);
        for (got, &j) in ranked.iter().zip(&order) {
            prop_assert_eq!(got.item as usize, j);
            prop_assert_eq!(got.score.to_bits(), logits[j].to_bits());
        }
    }
    Ok(())
}

fn check_all(config: &ModelConfig, seed: u64, user: &[f32]) -> Result<(), TestCaseError> {
    for n_items in ITEM_COUNTS {
        let mut rng = StdRng::seed_from_u64(seed);
        let model = GlobalModel::new(config, n_items, &mut rng);
        check_kernel(&model, user)?;
        check_snapshot(&model, user)?;
    }
    Ok(())
}

/// All-zero users of either sign against positive items: every MF product
/// is a zero of the user's sign, so a fold that started from `+0.0`
/// instead of `-0.0` shows in the sign bit.
#[test]
fn signed_zero_users_keep_their_sign() {
    for config in [ModelConfig::mf(5), ncf(5, &[6]), ncf(5, &[7, 4, 3])] {
        for n_items in ITEM_COUNTS {
            let mut model = GlobalModel::new(&config, n_items, &mut StdRng::seed_from_u64(9));
            for j in 0..n_items as u32 {
                for x in model.item_embedding_mut(j) {
                    *x = x.abs();
                }
            }
            for zero in [0.0f32, -0.0] {
                check_kernel(&model, &[zero; 5]).unwrap();
                check_snapshot(&model, &[zero; 5]).unwrap();
            }
        }
    }
}

proptest! {
    #[test]
    fn ncf_batched_scores_are_bitwise_per_item(
        seed in any::<u64>(),
        user in prop::collection::vec(-2.0f32..2.0, 8),
    ) {
        // ncf(8) → MLP shapes over a 24-wide input with two hidden layers:
        // prefix folding, hidden layers, and the projection all exercised.
        check_all(&ModelConfig::ncf(8), seed, &user)?;
    }

    #[test]
    fn mf_batched_scores_are_bitwise_per_item(
        seed in any::<u64>(),
        user in prop::collection::vec(-2.0f32..2.0, 4),
    ) {
        check_all(&ModelConfig::mf(4), seed, &user)?;
    }

    #[test]
    fn extreme_user_embeddings_stay_bitwise(
        seed in any::<u64>(),
        scale in 1.0f32..1e6,
    ) {
        // Saturated activations (deep in the leaky region / huge logits)
        // must not diverge between the lane kernel and per-item paths.
        let user: Vec<f32> = (0..8).map(|i| if i % 2 == 0 { scale } else { -scale }).collect();
        check_all(&ModelConfig::ncf(8), seed, &user)?;
    }

    #[test]
    fn edge_valued_users_stay_bitwise_for_mf(seed in any::<u64>(), user in user_strategy(5)) {
        check_all(&ModelConfig::mf(5), seed, &user)?;
    }

    #[test]
    fn edge_valued_users_stay_bitwise_for_one_hidden_layer(
        seed in any::<u64>(),
        user in user_strategy(5),
    ) {
        check_all(&ncf(5, &[6]), seed, &user)?;
    }

    #[test]
    fn edge_valued_users_stay_bitwise_for_three_hidden_layers(
        seed in any::<u64>(),
        user in user_strategy(5),
    ) {
        check_all(&ncf(5, &[7, 4, 3]), seed, &user)?;
    }
}
