//! Property-based tests of the model crate's gradient machinery: finiteness,
//! linearity in the loss delta, and agreement with finite differences on
//! random configurations.

use frs_model::{bce_logit_delta, bce_loss, GlobalGradients, GlobalModel, ModelConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn model_strategy() -> impl Strategy<Value = (GlobalModel, Vec<f32>)> {
    (
        1u64..1000,
        2usize..4,
        prop::collection::vec(-1.0f32..1.0, 8),
    )
        .prop_map(|(seed, kind_sel, user)| {
            let mut rng = StdRng::seed_from_u64(seed);
            let config = if kind_sel % 2 == 0 {
                ModelConfig::mf(8)
            } else {
                ModelConfig::ncf(8)
            };
            (GlobalModel::new(&config, 12, &mut rng), user)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn gradients_are_always_finite((model, user) in model_strategy(), item in 0u32..12) {
        let (logit, cache) = model.forward(&user, item);
        prop_assert!(logit.is_finite());
        let delta = bce_logit_delta(logit, 1.0);
        let mut d_user = vec![0.0f32; 8];
        let mut grads = GlobalGradients::new();
        model.backward(&user, item, &cache, delta, &mut d_user, &mut grads);
        prop_assert!(d_user.iter().all(|v| v.is_finite()));
        prop_assert!(grads.rows().iter().all(|v| v.is_finite()));
        if let Some(mlp) = &grads.mlp {
            prop_assert!(mlp.flatten().iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn backward_is_linear_in_delta((model, user) in model_strategy(), item in 0u32..12) {
        let (_, cache) = model.forward(&user, item);
        let run = |delta: f32| {
            let mut d_user = vec![0.0f32; 8];
            let mut grads = GlobalGradients::new();
            model.backward(&user, item, &cache, delta, &mut d_user, &mut grads);
            grads.get(item).unwrap().to_vec()
        };
        let g1 = run(0.5);
        let g2 = run(1.0);
        for (a, b) in g1.iter().zip(&g2) {
            prop_assert!((2.0 * a - b).abs() < 1e-4 * (1.0 + b.abs()));
        }
    }

    #[test]
    fn item_gradient_agrees_with_finite_difference(
        (mut model, user) in model_strategy(), item in 0u32..12
    ) {
        // The NCF hidden units are piecewise-linear (leaky ReLU); central
        // differences straddling a kink deviate from the one-sided analytic
        // gradient at isolated points. Directional agreement over the whole
        // vector is the robust property: cosine(analytic, fd) ≈ 1.
        let g = model.item_grad_of_logit(&user, item);
        let eps = 1e-3;
        let mut fd = vec![0.0f32; 8];
        for (i, slot) in fd.iter_mut().enumerate() {
            let orig = model.item_embedding(item)[i];
            model.item_embedding_mut(item)[i] = orig + eps;
            let up = model.logit(&user, item);
            model.item_embedding_mut(item)[i] = orig - eps;
            let dn = model.logit(&user, item);
            model.item_embedding_mut(item)[i] = orig;
            *slot = (up - dn) / (2.0 * eps);
        }
        let g_norm = frs_linalg::l2_norm(&g);
        let fd_norm = frs_linalg::l2_norm(&fd);
        if g_norm > 1e-4 && fd_norm > 1e-4 {
            let cos = frs_linalg::cosine(&g, &fd);
            prop_assert!(cos > 0.95, "cos(analytic, fd) = {cos}");
            prop_assert!(
                (g_norm - fd_norm).abs() / fd_norm.max(g_norm) < 0.25,
                "norms {g_norm} vs {fd_norm}"
            );
        }
    }

    #[test]
    fn bce_loss_nonnegative_and_delta_bounded(logit in -30.0f32..30.0, label in 0.0f32..=1.0) {
        prop_assert!(bce_loss(logit, label) >= -1e-6);
        let d = bce_logit_delta(logit, label);
        prop_assert!((-1.0..=1.0).contains(&d));
    }

    #[test]
    fn scores_for_user_consistent((model, user) in model_strategy()) {
        let mut scores = Vec::new();
        model.scores_for_user_into(&model.item_lanes(), &user, &mut scores);
        prop_assert_eq!(scores.len(), 12);
        for (j, &s) in scores.iter().enumerate() {
            prop_assert!((s - model.logit(&user, j as u32)).abs() < 1e-5);
        }
    }

    #[test]
    fn apply_gradients_is_reversible((mut model, _) in model_strategy(), item in 0u32..12) {
        let before = model.item_embedding(item).to_vec();
        let mut g = GlobalGradients::new();
        g.add_item_grad(item, &[0.5; 8]);
        model.apply_gradients(&g, 1.0);
        let mut neg = GlobalGradients::new();
        neg.add_item_grad(item, &[-0.5; 8]);
        model.apply_gradients(&neg, 1.0);
        let after = model.item_embedding(item);
        for (a, b) in before.iter().zip(after) {
            prop_assert!((a - b).abs() < 1e-5);
        }
    }
}
