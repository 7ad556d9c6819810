//! Defense parity: `PieckDefense::apply`, which computes Re1's norms once
//! per call and per unpopular item and Re2's `softmax(u)` once per call, is
//! **bitwise** equal to the per-pair loop it replaced, copied below as
//! [`reference_apply`].
//!
//! Every uploaded row and every `∂L/∂u` coordinate must carry the
//! reference's bits, so uploads, user rows and reports keep their bytes.
//! Each case mines a popular set that includes local items, draws local
//! items (repeats allowed) of which some have a norm at most
//! `f32::EPSILON`, and some popular items as small; coordinates include
//! signed zeros, subnormals and ±1e30. Part of the CI `kernel-parity` job;
//! run locally with
//!
//! ```text
//! cargo test --release -p pieck-core --test defense_parity
//! ```

use frs_federation::{LocalRegularizer, RoundContext};
use frs_linalg::{softmax, vector, SeedStream};
use frs_model::{GlobalGradients, GlobalModel, LossKind, ModelConfig};
use pieck_core::defense::exp_inverse_rank_weights;
use pieck_core::{DefenseConfig, PieckDefense};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Map, Serialize, Value};

/// Edge values a coordinate may take: signed zeros, subnormals and huge
/// finite values.
const EDGES: [f32; 6] = [0.0, -0.0, 1e-40, -1e-40, 1e30, -1e30];

/// `frs_linalg::vector::cosine_grad_wrt_b` as it was, norms and all.
fn reference_cosine_grad_wrt_b(a: &[f32], b: &[f32]) -> Vec<f32> {
    let na = vector::l2_norm(a);
    let nb = vector::l2_norm(b);
    if na <= f32::EPSILON || nb <= f32::EPSILON {
        return vec![0.0; b.len()];
    }
    let c = (vector::dot(a, b) / (na * nb)).clamp(-1.0, 1.0);
    let inv_ab = 1.0 / (na * nb);
    let inv_bb = 1.0 / (nb * nb);
    a.iter()
        .zip(b)
        .map(|(ai, bi)| ai * inv_ab - c * bi * inv_bb)
        .collect()
}

/// `frs_linalg::kl_grad_wrt_q` as it was, both softmaxes per call.
fn reference_kl_grad_wrt_q(p_logits: &[f32], q_logits: &[f32]) -> Vec<f32> {
    let p = softmax(p_logits);
    let q = softmax(q_logits);
    q.iter().zip(p).map(|(&qi, pi)| qi - pi).collect()
}

/// The Re1/Re2 gradient loop as it was before the norms were hoisted,
/// verbatim but for taking the mined set and the configuration as
/// arguments and calling the two copies above.
fn reference_apply(
    config: &DefenseConfig,
    popular: &[u32],
    model: &GlobalModel,
    user_embedding: &[f32],
    local_items: &[u32],
    grads: &mut GlobalGradients,
    d_user: &mut [f32],
) {
    let kappa = exp_inverse_rank_weights(popular.len());

    if config.use_re1 && config.beta > 0.0 {
        let unpopular: Vec<u32> = local_items
            .iter()
            .copied()
            .filter(|j| !popular.contains(j))
            .collect();
        if !unpopular.is_empty() {
            let inv_count = 1.0 / unpopular.len() as f32;
            for &j in &unpopular {
                let vj = model.item_embedding(j);
                let mut g = vec![0.0f32; vj.len()];
                for (rank, &k) in popular.iter().enumerate() {
                    let vk = model.item_embedding(k);
                    let dcos = reference_cosine_grad_wrt_b(vk, vj);
                    vector::axpy(kappa[rank], &dcos, &mut g);
                }
                vector::scale(&mut g, -config.beta * inv_count);
                grads.add_item_grad(j, &g);
            }
        }
    }

    if config.use_re2 && config.gamma > 0.0 {
        let mut g = vec![0.0f32; user_embedding.len()];
        for (rank, &k) in popular.iter().enumerate() {
            let dkl = reference_kl_grad_wrt_q(model.item_embedding(k), user_embedding);
            vector::axpy(kappa[rank], &dkl, &mut g);
        }
        vector::axpy(-config.gamma, &g, d_user);
    }
}

/// One coordinate: an edge value about a third of the time.
fn coord(rng: &mut StdRng) -> f32 {
    let pick = rng.gen_range(0..3 * EDGES.len());
    EDGES
        .get(pick)
        .copied()
        .unwrap_or_else(|| rng.gen_range(-2.0f32..2.0))
}

/// A defense whose miner has already frozen `popular`, restored from the
/// miner's checkpoint shape.
fn mined(config: &DefenseConfig, popular: &[u32]) -> PieckDefense {
    let mut defense = PieckDefense::new(config.clone());
    let state = Value::Object(Map::from([
        ("previous".to_string(), Value::Null),
        ("accumulated".to_string(), Vec::<f32>::new().to_value()),
        (
            "transitions_seen".to_string(),
            config.mining_rounds.to_value(),
        ),
        ("mined".to_string(), popular.to_vec().to_value()),
    ]));
    defense.restore_state(&state).expect("miner state restores");
    assert_eq!(defense.mined_popular(), Some(popular));
    defense
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Runs both versions on one drawn case and compares their bits.
fn check(seed: u64, dim: usize, top_n: usize, n_local: usize) -> Result<(), TestCaseError> {
    const N_ITEMS: usize = 24;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut model = GlobalModel::new(&ModelConfig::mf(dim), N_ITEMS, &mut rng);
    for item in 0..N_ITEMS as u32 {
        let row: Vec<f32> = match rng.gen_range(0..4) {
            // Norm at most f32::EPSILON: cosine_grad_wrt_b's zero branch.
            0 => (0..dim).map(|_| rng.gen_range(-1e-8f32..1e-8)).collect(),
            1 => (0..dim).map(|_| coord(&mut rng)).collect(),
            _ => continue,
        };
        model.item_embedding_mut(item).copy_from_slice(&row);
    }
    // Item 0 is always popular and local; item 1 is always local and tiny.
    model.item_embedding_mut(1).fill(1e-9);
    let mut popular: Vec<u32> = vec![0];
    while popular.len() < top_n {
        let k = rng.gen_range(2..N_ITEMS as u32);
        if !popular.contains(&k) {
            popular.push(k);
        }
    }
    let mut local: Vec<u32> = vec![0, 1];
    local.extend((0..n_local).map(|_| rng.gen_range(0..N_ITEMS as u32)));
    let user: Vec<f32> = (0..dim).map(|_| coord(&mut rng)).collect();
    let config = DefenseConfig {
        top_n,
        beta: [0.5f32, 5.0, 1e-3][rng.gen_range(0..3usize)],
        gamma: [0.5f32, 10.0, 1e-3][rng.gen_range(0..3usize)],
        use_re1: rng.gen_range(0..4) != 0,
        use_re2: rng.gen_range(0..4) != 0,
        ..DefenseConfig::default()
    };
    let ctx = RoundContext::new(5, 1.0, 1.0, 1, LossKind::Bce, SeedStream::new(seed));

    // Both start from a partly filled upload and user gradient, as a
    // client's base-loss step leaves them.
    let mut start_grads = GlobalGradients::new();
    for &j in local.iter().take(3) {
        let row: Vec<f32> = (0..dim).map(|_| coord(&mut rng)).collect();
        start_grads.add_item_grad(j, &row);
    }
    let start_user: Vec<f32> = (0..dim).map(|_| coord(&mut rng)).collect();

    let (mut want_grads, mut want_user) = (start_grads.clone(), start_user.clone());
    reference_apply(
        &config,
        &popular,
        &model,
        &user,
        &local,
        &mut want_grads,
        &mut want_user,
    );
    let (mut got_grads, mut got_user) = (start_grads, start_user);
    mined(&config, &popular).apply(&ctx, &model, &user, &local, &mut got_grads, &mut got_user);

    prop_assert_eq!(got_grads.ids(), want_grads.ids());
    prop_assert_eq!(bits(got_grads.rows()), bits(want_grads.rows()));
    prop_assert_eq!(bits(&got_user), bits(&want_user));
    Ok(())
}

/// The defaults, a popular local item and a tiny local item, at the paper's
/// `N = 10`.
#[test]
fn default_config_matches_the_reference() {
    for seed in 0..8 {
        check(seed, 16, 10, 12).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn apply_matches_the_per_pair_loop(
        seed in any::<u64>(),
        dim in 1usize..=17,
        top_n in 1usize..=12,
        n_local in 0usize..=20,
    ) {
        check(seed, dim, top_n, n_local)?;
    }
}
