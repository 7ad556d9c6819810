//! Model parity: the one-struct [`GlobalModel`] (an item table plus an
//! optional interaction MLP) is **bitwise** equal to the two-struct model it
//! replaced, the `GlobalModel` enum over `MfModel` and `NcfModel`.
//!
//! [`reference`] keeps those types as they were: the structs, the enum's
//! constructor and its `forward`, `backward`, `item_grad_of_logit`,
//! `user_grad_of_logit` and `apply_gradients` arms, and PIECK-UEA's two
//! family branches for an explicit item embedding. Their lane scorer is left
//! out: `batched_scoring` pins it to the per-item `logit`, so the reference
//! score of item `j` is the reference `logit` of `j`.
//!
//! Every logit, gradient, score, updated table and serialized value must
//! carry the reference's bits, so reports keep their bytes, checkpoints keep
//! their bytes, and a checkpoint written by the two-struct model resumes.
//! Coordinates are drawn from signed zeros, subnormals, ±1e30 and ordinary
//! magnitudes. Part of the CI `kernel-parity` job; run locally with
//!
//! ```text
//! cargo test --release -p frs-model --test model_parity
//! ```

use frs_model::{GlobalGradients, GlobalModel, ModelConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Number, Serialize, Value};

/// The two-struct model as it was before the merge.
mod reference {
    use frs_linalg::{vector, Matrix};
    use frs_model::mlp::{Mlp, MlpCache};
    use frs_model::{GlobalGradients, MlpGradients, ModelConfig, ModelKind};
    use rand::Rng;
    use serde::Serialize;

    /// MF-FRS global parameters: one embedding row per item.
    #[derive(Debug, Clone, PartialEq, Serialize)]
    pub struct MfModel {
        items: Matrix,
    }

    impl MfModel {
        /// Uniformly initialized item table (`U(−scale, scale)`).
        pub fn new<R: Rng + ?Sized>(n_items: usize, dim: usize, scale: f32, rng: &mut R) -> Self {
            Self {
                items: Matrix::uniform(n_items, dim, scale, rng),
            }
        }

        #[inline]
        pub fn item_embedding(&self, item: u32) -> &[f32] {
            self.items.row(item as usize)
        }

        #[inline]
        pub fn item_embedding_mut(&mut self, item: u32) -> &mut [f32] {
            self.items.row_mut(item as usize)
        }

        /// Raw score `u · v_j`.
        #[inline]
        pub fn logit(&self, user_emb: &[f32], item: u32) -> f32 {
            vector::dot(user_emb, self.item_embedding(item))
        }

        /// Per-example backward: given `delta = ∂L/∂logit`, accumulates
        /// `∂L/∂u += delta·v` into `d_user` and returns `∂L/∂v = delta·u`.
        pub fn backward(
            &self,
            user_emb: &[f32],
            item: u32,
            delta: f32,
            d_user: &mut [f32],
        ) -> Vec<f32> {
            let v = self.item_embedding(item);
            vector::axpy(delta, v, d_user);
            user_emb.iter().map(|&ui| delta * ui).collect()
        }

        /// Gradient of the logit w.r.t. the item embedding with the "user"
        /// side held constant — the poisonous-gradient primitive of Eq. (5).
        pub fn item_grad_of_logit(&self, user_emb: &[f32], _item: u32) -> Vec<f32> {
            user_emb.to_vec()
        }

        /// Applies `v_j ← v_j − lr·g` for one item.
        pub fn apply_item_gradient(&mut self, item: u32, grad: &[f32], lr: f32) {
            vector::axpy(-lr, grad, self.items.row_mut(item as usize));
        }
    }

    /// DL-FRS global parameters: item table + interaction MLP.
    #[derive(Debug, Clone, PartialEq, Serialize)]
    pub struct NcfModel {
        items: Matrix,
        mlp: Mlp,
        dim: usize,
    }

    impl NcfModel {
        /// Builds the item table and the MLP stack; `shapes` chain from
        /// `3·dim` (the `u ⊕ v ⊕ u⊙v` NeuMF input).
        pub fn new<R: Rng + ?Sized>(
            n_items: usize,
            dim: usize,
            shapes: &[(usize, usize)],
            scale: f32,
            rng: &mut R,
        ) -> Self {
            assert_eq!(
                shapes[0].0,
                3 * dim,
                "MLP input must be 3·dim (u ⊕ v ⊕ u⊙v)"
            );
            Self {
                items: Matrix::uniform(n_items, dim, scale, rng),
                mlp: Mlp::new(shapes, rng),
                dim,
            }
        }

        #[inline]
        pub fn item_embedding(&self, item: u32) -> &[f32] {
            self.items.row(item as usize)
        }

        #[inline]
        pub fn item_embedding_mut(&mut self, item: u32) -> &mut [f32] {
            self.items.row_mut(item as usize)
        }

        #[inline]
        pub fn mlp(&self) -> &Mlp {
            &self.mlp
        }

        /// Builds the NeuMF input `u ⊕ v ⊕ (u ⊙ v)` into `buf`.
        fn build_input(&self, user_emb: &[f32], item_emb: &[f32], buf: &mut Vec<f32>) {
            debug_assert_eq!(user_emb.len(), self.dim);
            debug_assert_eq!(item_emb.len(), self.dim);
            buf.clear();
            buf.extend_from_slice(user_emb);
            buf.extend_from_slice(item_emb);
            buf.extend(user_emb.iter().zip(item_emb).map(|(a, b)| a * b));
        }

        /// Splits `∂L/∂z₀` into user/item parts with the product rule:
        /// `∂L/∂u = dz[0..d] + dz[2d..3d] ⊙ v`, `∂L/∂v = dz[d..2d] + dz[2d..3d] ⊙ u`.
        fn split_input_grad(
            &self,
            d_input: &[f32],
            user_emb: &[f32],
            item_emb: &[f32],
        ) -> (Vec<f32>, Vec<f32>) {
            let d = self.dim;
            let (du_part, rest) = d_input.split_at(d);
            let (dv_part, dprod) = rest.split_at(d);
            let du: Vec<f32> = du_part
                .iter()
                .zip(dprod.iter().zip(item_emb))
                .map(|(&g, (&p, &v))| g + p * v)
                .collect();
            let dv: Vec<f32> = dv_part
                .iter()
                .zip(dprod.iter().zip(user_emb))
                .map(|(&g, (&p, &u))| g + p * u)
                .collect();
            (du, dv)
        }

        /// Raw (pre-sigmoid) interaction logit for explicit embedding pair.
        pub fn logit_with_embeddings(&self, user_emb: &[f32], item_emb: &[f32]) -> f32 {
            let mut buf = Vec::with_capacity(3 * self.dim);
            self.build_input(user_emb, item_emb, &mut buf);
            self.mlp.forward_logit_only(&buf)
        }

        /// Raw (pre-sigmoid) interaction logit for a stored item.
        pub fn logit(&self, user_emb: &[f32], item: u32) -> f32 {
            self.logit_with_embeddings(user_emb, self.item_embedding(item))
        }

        /// Forward with cache for a training example.
        pub fn forward(&self, user_emb: &[f32], item: u32) -> (f32, MlpCache) {
            let mut buf = Vec::with_capacity(3 * self.dim);
            self.build_input(user_emb, self.item_embedding(item), &mut buf);
            self.mlp.forward(&buf)
        }

        /// Backward for one example: accumulates MLP parameter gradients into
        /// `mlp_grads`, accumulates `∂L/∂u` into `d_user`, and returns `∂L/∂v`.
        pub fn backward(
            &self,
            user_emb: &[f32],
            item: u32,
            cache: &MlpCache,
            delta: f32,
            d_user: &mut [f32],
            mlp_grads: &mut MlpGradients,
        ) -> Vec<f32> {
            let d_input = self.mlp.backward(cache, delta, mlp_grads);
            let (du, dv) = self.split_input_grad(&d_input, user_emb, self.item_embedding(item));
            for (acc, g) in d_user.iter_mut().zip(du) {
                *acc += g;
            }
            dv
        }

        /// Gradient of the logit w.r.t. an explicit item embedding, holding
        /// the user slot and MLP parameters constant (Eq. 5 for DL-FRS).
        pub fn item_grad_with_embeddings(&self, user_emb: &[f32], item_emb: &[f32]) -> Vec<f32> {
            let mut buf = Vec::with_capacity(3 * self.dim);
            self.build_input(user_emb, item_emb, &mut buf);
            let (_, cache) = self.mlp.forward(&buf);
            let d_input = self.mlp.backward_input_only(&cache, 1.0);
            self.split_input_grad(&d_input, user_emb, item_emb).1
        }

        /// Gradient of the logit w.r.t. the stored item embedding.
        pub fn item_grad_of_logit(&self, user_emb: &[f32], item: u32) -> Vec<f32> {
            self.item_grad_with_embeddings(user_emb, self.item_embedding(item))
        }

        /// Gradient of the logit w.r.t. the *user* embedding, everything else
        /// constant (hard-user mining needs this).
        pub fn user_grad_of_logit(&self, user_emb: &[f32], item: u32) -> Vec<f32> {
            let item_emb = self.item_embedding(item);
            let mut buf = Vec::with_capacity(3 * self.dim);
            self.build_input(user_emb, item_emb, &mut buf);
            let (_, cache) = self.mlp.forward(&buf);
            let d_input = self.mlp.backward_input_only(&cache, 1.0);
            self.split_input_grad(&d_input, user_emb, item_emb).0
        }

        /// Applies `v_j ← v_j − lr·g` for one item.
        pub fn apply_item_gradient(&mut self, item: u32, grad: &[f32], lr: f32) {
            frs_linalg::axpy(-lr, grad, self.items.row_mut(item as usize));
        }

        /// Applies MLP parameter gradients.
        pub fn apply_mlp_gradients(&mut self, grads: &MlpGradients, lr: f32) {
            self.mlp.apply_gradients(grads, lr);
        }
    }

    /// Either base model behind one interface.
    #[derive(Debug, Clone, PartialEq, Serialize)]
    pub enum GlobalModel {
        Mf(MfModel),
        Ncf(NcfModel),
    }

    /// Per-example forward cache (only NCF needs to remember anything).
    #[derive(Debug, Clone)]
    pub enum ForwardCache {
        Mf,
        Ncf(MlpCache),
    }

    impl GlobalModel {
        /// Builds the configured model with `n_items` item rows.
        pub fn new<R: Rng + ?Sized>(config: &ModelConfig, n_items: usize, rng: &mut R) -> Self {
            config.validate().expect("invalid model config");
            match config.kind {
                ModelKind::Mf => GlobalModel::Mf(MfModel::new(
                    n_items,
                    config.embedding_dim,
                    config.init_scale,
                    rng,
                )),
                ModelKind::Ncf => GlobalModel::Ncf(NcfModel::new(
                    n_items,
                    config.embedding_dim,
                    &config.mlp_shapes(),
                    config.init_scale,
                    rng,
                )),
            }
        }

        pub fn item_embedding(&self, item: u32) -> &[f32] {
            match self {
                GlobalModel::Mf(m) => m.item_embedding(item),
                GlobalModel::Ncf(m) => m.item_embedding(item),
            }
        }

        pub fn item_embedding_mut(&mut self, item: u32) -> &mut [f32] {
            match self {
                GlobalModel::Mf(m) => m.item_embedding_mut(item),
                GlobalModel::Ncf(m) => m.item_embedding_mut(item),
            }
        }

        pub fn logit(&self, user_emb: &[f32], item: u32) -> f32 {
            match self {
                GlobalModel::Mf(m) => m.logit(user_emb, item),
                GlobalModel::Ncf(m) => m.logit(user_emb, item),
            }
        }

        /// Forward returning a cache for training examples.
        pub fn forward(&self, user_emb: &[f32], item: u32) -> (f32, ForwardCache) {
            match self {
                GlobalModel::Mf(m) => (m.logit(user_emb, item), ForwardCache::Mf),
                GlobalModel::Ncf(m) => {
                    let (logit, cache) = m.forward(user_emb, item);
                    (logit, ForwardCache::Ncf(cache))
                }
            }
        }

        /// Backward for one example: accumulates `∂L/∂u` into `d_user`, the
        /// item gradient and (for NCF) the MLP gradients into `grads`.
        pub fn backward(
            &self,
            user_emb: &[f32],
            item: u32,
            cache: &ForwardCache,
            delta: f32,
            d_user: &mut [f32],
            grads: &mut GlobalGradients,
        ) {
            match (self, cache) {
                (GlobalModel::Mf(m), ForwardCache::Mf) => {
                    let d_item = m.backward(user_emb, item, delta, d_user);
                    grads.add_item_grad(item, &d_item);
                }
                (GlobalModel::Ncf(m), ForwardCache::Ncf(mlp_cache)) => {
                    let mlp_grads = grads.mlp.get_or_insert_with(|| m.mlp().zero_gradients());
                    let d_item = m.backward(user_emb, item, mlp_cache, delta, d_user, mlp_grads);
                    grads.add_item_grad(item, &d_item);
                }
                _ => panic!("forward cache does not match model kind"),
            }
        }

        pub fn item_grad_of_logit(&self, user_emb: &[f32], item: u32) -> Vec<f32> {
            match self {
                GlobalModel::Mf(m) => m.item_grad_of_logit(user_emb, item),
                GlobalModel::Ncf(m) => m.item_grad_of_logit(user_emb, item),
            }
        }

        pub fn user_grad_of_logit(&self, user_emb: &[f32], item: u32) -> Vec<f32> {
            match self {
                GlobalModel::Mf(m) => m.item_embedding(item).to_vec(),
                GlobalModel::Ncf(m) => m.user_grad_of_logit(user_emb, item),
            }
        }

        /// Server-side update: `θ ← θ − lr · g` for every uploaded gradient.
        pub fn apply_gradients(&mut self, grads: &GlobalGradients, lr: f32) {
            match self {
                GlobalModel::Mf(m) => {
                    for (item, g) in grads.iter() {
                        m.apply_item_gradient(item, g, lr);
                    }
                }
                GlobalModel::Ncf(m) => {
                    for (item, g) in grads.iter() {
                        m.apply_item_gradient(item, g, lr);
                    }
                    if let Some(mlp_grads) = &grads.mlp {
                        m.apply_mlp_gradients(mlp_grads, lr);
                    }
                }
            }
        }

        /// PIECK-UEA's interaction logit with an explicit item embedding.
        pub fn logit_with_target(&self, pseudo_user: &[f32], target_emb: &[f32]) -> f32 {
            match self {
                GlobalModel::Mf(_) => vector::dot(pseudo_user, target_emb),
                GlobalModel::Ncf(m) => m.logit_with_embeddings(pseudo_user, target_emb),
            }
        }

        /// PIECK-UEA's `∂logit/∂(target embedding)`.
        pub fn item_grad_with_target(&self, pseudo_user: &[f32], target_emb: &[f32]) -> Vec<f32> {
            match self {
                GlobalModel::Mf(_) => pseudo_user.to_vec(),
                GlobalModel::Ncf(m) => m.item_grad_with_embeddings(pseudo_user, target_emb),
            }
        }
    }
}

/// Coordinates a draw may take besides an ordinary magnitude: signed zeros,
/// subnormals and ±1e30 (whose products overflow to infinities and NaNs).
const EDGES: [f32; 6] = [0.0, -0.0, 1e-40, -1e-40, 1e30, -1e30];

/// Coordinates drawn per case: every vector and item row below takes its
/// values from this pool, in order.
const POOL: usize = 512;

/// `POOL` coordinates, about a third of them edge values.
fn pool_strategy() -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec((0usize..3 * EDGES.len(), -2.0f32..2.0), POOL).prop_map(|coords| {
        coords
            .into_iter()
            .map(|(pick, x)| EDGES.get(pick).copied().unwrap_or(x))
            .collect()
    })
}

/// One drawn case: the family, the shape and the values.
#[derive(Debug)]
struct Case {
    seed: u64,
    ncf: bool,
    dim: usize,
    hidden: Vec<usize>,
    n_items: usize,
    delta: f32,
    lr: f32,
    pool: Vec<f32>,
}

impl Case {
    fn config(&self) -> ModelConfig {
        if self.ncf {
            let mut config = ModelConfig::ncf(self.dim);
            config.mlp_hidden = self.hidden.clone();
            config
        } else {
            ModelConfig::mf(self.dim)
        }
    }

    /// The `i`-th `dim`-wide vector of the pool.
    fn vector(&self, i: usize) -> &[f32] {
        &self.pool[i * self.dim..][..self.dim]
    }
}

fn case_strategy() -> impl Strategy<Value = Case> {
    (
        (any::<u64>(), any::<bool>(), 1usize..18),
        (prop::collection::vec(1usize..10, 1..4), 1usize..20),
        (-4.0f32..4.0, 0.01f32..2.0),
        pool_strategy(),
    )
        .prop_map(
            |((seed, ncf, dim), (hidden, n_items), (delta, lr), pool)| Case {
                seed,
                ncf,
                dim,
                hidden,
                n_items,
                delta,
                lr,
                pool,
            },
        )
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// `Value` equality with every number compared by its bits, so NaNs of one
/// pattern match and `0.0` differs from `-0.0`.
fn same_bits(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Number(Number::F64(x)), Value::Number(Number::F64(y))) => {
            x.to_bits() == y.to_bits()
        }
        (Value::Array(xs), Value::Array(ys)) => {
            xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| same_bits(x, y))
        }
        (Value::Object(xs), Value::Object(ys)) => {
            xs.len() == ys.len()
                && xs
                    .iter()
                    .zip(ys)
                    .all(|((kx, x), (ky, y))| kx == ky && same_bits(x, y))
        }
        _ => a == b,
    }
}

/// Item ids, gradient rows and MLP gradients of two uploads, as bits.
fn check_gradients(got: &GlobalGradients, want: &GlobalGradients) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.ids(), want.ids());
    prop_assert_eq!(bits(got.rows()), bits(want.rows()));
    prop_assert_eq!(
        got.mlp.as_ref().map(|g| bits(&g.flatten())),
        want.mlp.as_ref().map(|g| bits(&g.flatten()))
    );
    Ok(())
}

/// The merged model and the reference, built from one seed, with every odd
/// item row overwritten from the pool.
fn build(case: &Case) -> (GlobalModel, reference::GlobalModel) {
    let config = case.config();
    let mut model = GlobalModel::new(&config, case.n_items, &mut StdRng::seed_from_u64(case.seed));
    let mut old =
        reference::GlobalModel::new(&config, case.n_items, &mut StdRng::seed_from_u64(case.seed));
    for j in (1..case.n_items).step_by(2) {
        let row = case.vector(3 + j);
        model.item_embedding_mut(j as u32).copy_from_slice(row);
        old.item_embedding_mut(j as u32).copy_from_slice(row);
    }
    (model, old)
}

fn check_case(case: &Case) -> Result<(), TestCaseError> {
    let (mut model, mut old) = build(case);
    let (user, explicit, d_user0) = (case.vector(0), case.vector(1), case.vector(2));

    // Checkpoint bytes: the value, the JSON text, and both decoders.
    let value = model.to_value();
    prop_assert!(same_bits(&value, &old.to_value()));
    let text = serde_json::to_string(&model).map_err(|e| TestCaseError::fail(e.to_string()))?;
    prop_assert_eq!(&text, &serde_json::to_string(&old).unwrap());
    let decoded: GlobalModel =
        serde_json::from_str(&text).map_err(|e| TestCaseError::fail(e.to_string()))?;
    prop_assert!(same_bits(&decoded.to_value(), &value));
    let from_old =
        GlobalModel::from_value(&old.to_value()).map_err(|e| TestCaseError::fail(e.to_string()))?;
    prop_assert!(same_bits(&from_old.to_value(), &value));

    // Scores and the attacker surface.
    let mut scores = vec![f32::NAN; 2];
    model.scores_for_user_into(&model.item_lanes(), user, &mut scores);
    let want: Vec<f32> = (0..case.n_items as u32)
        .map(|j| old.logit(user, j))
        .collect();
    prop_assert_eq!(bits(&scores), bits(&want));
    prop_assert_eq!(
        model.logit_with_embeddings(user, explicit).to_bits(),
        old.logit_with_target(user, explicit).to_bits()
    );
    prop_assert_eq!(
        bits(&model.item_grad_with_embeddings(user, explicit)),
        bits(&old.item_grad_with_target(user, explicit))
    );

    // Training: forward, backward and the server update, item by item.
    let mut grads = GlobalGradients::new();
    let mut old_grads = GlobalGradients::new();
    for item in 0..case.n_items as u32 {
        prop_assert_eq!(
            model.logit(user, item).to_bits(),
            want[item as usize].to_bits()
        );
        prop_assert_eq!(
            bits(&model.item_grad_of_logit(user, item)),
            bits(&old.item_grad_of_logit(user, item))
        );
        prop_assert_eq!(
            bits(&model.user_grad_of_logit(user, item)),
            bits(&old.user_grad_of_logit(user, item))
        );
        let (logit, cache) = model.forward(user, item);
        let (old_logit, old_cache) = old.forward(user, item);
        prop_assert_eq!(logit.to_bits(), old_logit.to_bits());
        let mut d_user = d_user0.to_vec();
        let mut old_d_user = d_user0.to_vec();
        model.backward(user, item, &cache, case.delta, &mut d_user, &mut grads);
        old.backward(
            user,
            item,
            &old_cache,
            case.delta,
            &mut old_d_user,
            &mut old_grads,
        );
        prop_assert_eq!(bits(&d_user), bits(&old_d_user));
        check_gradients(&grads, &old_grads)?;
    }
    model.apply_gradients(&grads, case.lr);
    old.apply_gradients(&old_grads, case.lr);
    prop_assert_eq!(
        bits(model.items().as_slice()),
        bits(
            &(0..case.n_items as u32)
                .flat_map(|j| old.item_embedding(j).to_vec())
                .collect::<Vec<_>>()
        )
    );
    prop_assert!(same_bits(&model.to_value(), &old.to_value()));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn merged_model_matches_the_two_struct_reference(case in case_strategy()) {
        check_case(&case)?;
    }
}

/// Both families at the extremes of the drawn shapes: one coordinate, the
/// widest embedding, and one to three hidden layers.
#[test]
fn every_family_and_depth_matches_at_the_shape_extremes() {
    let pool: Vec<f32> = (0..POOL)
        .map(|i| EDGES[i % EDGES.len()] + 0.25 * (i % 7) as f32)
        .collect();
    for dim in [1, 17] {
        for (ncf, hidden) in [
            (false, vec![1]),
            (true, vec![1]),
            (true, vec![9, 4]),
            (true, vec![3, 9, 2]),
        ] {
            let case = Case {
                seed: 11,
                ncf,
                dim,
                hidden,
                n_items: 9,
                delta: -0.75,
                lr: 0.5,
                pool: pool.clone(),
            };
            check_case(&case).unwrap_or_else(|e| panic!("{case:?}: {e}"));
        }
    }
}
