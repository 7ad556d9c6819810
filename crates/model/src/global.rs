//! The global model: the item table both families share, plus the
//! interaction MLP only DL-FRS has.
//!
//! [`GlobalModel`] is the one type the federation protocol, every attack and
//! every defense program against. Its MLP slot is the only difference
//! between the paper's two families (Section III-A):
//!
//! - `None` is **MF-FRS**: `Ψ_MF(u, v) = u · v`, a *fixed* dot product, so
//!   the item table is the whole shared model and interaction-function
//!   attacks (A-RA/A-HUM) have nothing to poison (paper Table I).
//! - `Some` is **DL-FRS**: a learnable NeuMF MLP over
//!   `z₀ = u ⊕ v ⊕ (u ⊙ v)`, the concatenation augmented with the GMF
//!   element-wise product path of the NCF paper \[16\]. The product features
//!   make the learned score *multiplicative* in (user, item); without them a
//!   narrow MLP degenerates to an additive `f(u) + g(v)` scorer, in which
//!   promoting an item for anyone promotes it for everyone.
//!
//! PIECK is *model-agnostic* because it reads and poisons item embeddings
//! only: [`GlobalModel::logit_with_embeddings`] and
//! [`GlobalModel::item_grad_with_embeddings`] take an explicit item
//! embedding (the attacker's working copy of a target) and a mined popular
//! item's embedding in the user slot, whichever family is training.
//!
//! *One item table per model version.* The table is an immutable,
//! reference-counted version: [`GlobalModel::shared_items`] hands it out,
//! and a clone of the model (a serve snapshot, a checkpoint) shares it. The
//! two writers, [`GlobalModel::apply_gradients`] and
//! [`GlobalModel::item_embedding_mut`], copy the table first only while
//! another holder still shares it. So every popular-item miner that
//! observes a round holds that round's one table, and the server copies at
//! most one table per round, instead of each mining client keeping a deep
//! copy of its own.

use std::sync::Arc;

use frs_linalg::{sigmoid, vector, Matrix};
use rand::Rng;
use serde::{Deserialize, Error, Map, Serialize, Value};

use crate::config::{ModelConfig, ModelKind};
use crate::gradients::GlobalGradients;
use crate::lanes::{ItemLanes, UserScorer, LANES};
use crate::mlp::{Mlp, MlpCache};

/// One embedding row per item, and the DL-FRS interaction MLP (`None` for
/// MF-FRS's dot product). The item table is shared copy-on-write: see the
/// [module docs](self).
#[derive(Debug, Clone, PartialEq)]
pub struct GlobalModel {
    items: Arc<Matrix>,
    mlp: Option<Mlp>,
}

impl GlobalModel {
    /// Builds the configured model with `n_items` item rows: the item table
    /// (`U(−init_scale, init_scale)`) is drawn first, then the MLP, from the
    /// same `rng`.
    pub fn new<R: Rng + ?Sized>(config: &ModelConfig, n_items: usize, rng: &mut R) -> Self {
        config.validate().expect("invalid model config");
        let dim = config.embedding_dim;
        let items = Arc::new(Matrix::uniform(n_items, dim, config.init_scale, rng));
        let mlp = match config.kind {
            ModelKind::Mf => None,
            ModelKind::Ncf => {
                let shapes = config.mlp_shapes();
                assert_eq!(
                    shapes[0].0,
                    3 * dim,
                    "MLP input must be 3·dim (u ⊕ v ⊕ u⊙v)"
                );
                Some(Mlp::new(&shapes, rng))
            }
        };
        Self { items, mlp }
    }

    /// The interaction MLP (`None` for MF-FRS).
    pub(crate) fn mlp(&self) -> Option<&Mlp> {
        self.mlp.as_ref()
    }

    /// Which family this is.
    pub fn kind(&self) -> ModelKind {
        match self.mlp {
            None => ModelKind::Mf,
            Some(_) => ModelKind::Ncf,
        }
    }

    pub fn n_items(&self) -> usize {
        self.items.rows()
    }

    pub fn dim(&self) -> usize {
        self.items.cols()
    }

    /// Item `j`'s embedding row.
    #[inline]
    pub fn item_embedding(&self, item: u32) -> &[f32] {
        self.items.row(item as usize)
    }

    /// Mutable item embedding (tests and white-box tooling only; the
    /// federation always goes through [`Self::apply_gradients`]). Copies
    /// the table first if another holder shares it.
    pub fn item_embedding_mut(&mut self, item: u32) -> &mut [f32] {
        Arc::make_mut(&mut self.items).row_mut(item as usize)
    }

    /// The full item table — what the server ships to sampled clients.
    pub fn items(&self) -> &Matrix {
        &self.items
    }

    /// This version of the item table, shared rather than copied: what the
    /// popular-item miner keeps to diff against the next version it
    /// receives. The model's next write leaves it untouched.
    pub fn shared_items(&self) -> Arc<Matrix> {
        Arc::clone(&self.items)
    }

    /// Raw interaction logit for (user embedding, item).
    #[inline]
    pub fn logit(&self, user_emb: &[f32], item: u32) -> f32 {
        self.logit_with_embeddings(user_emb, self.item_embedding(item))
    }

    /// Raw interaction logit for an explicit embedding pair: `u · v`, or the
    /// MLP over `u ⊕ v ⊕ u⊙v`. PIECK-UEA puts a mined popular item's
    /// embedding in the user slot and its working copy of a target in the
    /// item slot.
    #[inline]
    pub fn logit_with_embeddings(&self, user_emb: &[f32], item_emb: &[f32]) -> f32 {
        match &self.mlp {
            None => vector::dot(user_emb, item_emb),
            Some(mlp) => mlp.forward_logit_only(&neumf_input(user_emb, item_emb)),
        }
    }

    /// Predicted preference score `x̂ ∈ (0,1)` (sigmoid of the logit for both
    /// families; for MF the paper's `u ⊙ v` feeds the BCE through a sigmoid).
    #[inline]
    pub fn predict(&self, user_emb: &[f32], item: u32) -> f32 {
        sigmoid(self.logit(user_emb, item))
    }

    /// Forward returning the MLP cache backprop needs (`None` for MF).
    pub fn forward(&self, user_emb: &[f32], item: u32) -> (f32, Option<MlpCache>) {
        let item_emb = self.item_embedding(item);
        match &self.mlp {
            None => (vector::dot(user_emb, item_emb), None),
            Some(mlp) => {
                let (logit, cache) = mlp.forward(&neumf_input(user_emb, item_emb));
                (logit, Some(cache))
            }
        }
    }

    /// Backward for one example: accumulates `∂L/∂u` into `d_user`, the item
    /// gradient and (for NCF) the MLP gradients into `grads`.
    pub fn backward(
        &self,
        user_emb: &[f32],
        item: u32,
        cache: &Option<MlpCache>,
        delta: f32,
        d_user: &mut [f32],
        grads: &mut GlobalGradients,
    ) {
        let item_emb = self.item_embedding(item);
        let d_item: Vec<f32> = match (&self.mlp, cache) {
            (None, None) => {
                vector::axpy(delta, item_emb, d_user);
                user_emb.iter().map(|&ui| delta * ui).collect()
            }
            (Some(mlp), Some(cache)) => {
                let mlp_grads = grads.mlp.get_or_insert_with(|| mlp.zero_gradients());
                let d_input = mlp.backward(cache, delta, mlp_grads);
                let (du, dv) = split_input_grad(&d_input, user_emb, item_emb);
                for (acc, g) in d_user.iter_mut().zip(du) {
                    *acc += g;
                }
                dv
            }
            _ => panic!("forward cache does not match model kind"),
        };
        grads.add_item_grad(item, &d_item);
    }

    /// Gradient of the logit w.r.t. the *item embedding only*, everything
    /// else constant — the poisonous-gradient primitive (Eq. 5). `user_emb`
    /// may be a real user, an approximated user, or (PIECK-UEA) a mined
    /// popular-item embedding standing in for a user.
    pub fn item_grad_of_logit(&self, user_emb: &[f32], item: u32) -> Vec<f32> {
        self.item_grad_with_embeddings(user_emb, self.item_embedding(item))
    }

    /// [`Self::item_grad_of_logit`] at an explicit item embedding: `u` for
    /// MF, the product-rule item part of the frozen MLP's input gradient
    /// for DL-FRS.
    pub fn item_grad_with_embeddings(&self, user_emb: &[f32], item_emb: &[f32]) -> Vec<f32> {
        match &self.mlp {
            None => user_emb.to_vec(),
            Some(mlp) => input_grads(mlp, user_emb, item_emb).1,
        }
    }

    /// Gradient of the logit w.r.t. the *user embedding*, holding items and
    /// interaction parameters constant. A-RA/A-HUM use this to optimize their
    /// synthetic "hard users".
    pub fn user_grad_of_logit(&self, user_emb: &[f32], item: u32) -> Vec<f32> {
        let item_emb = self.item_embedding(item);
        match &self.mlp {
            None => item_emb.to_vec(),
            Some(mlp) => input_grads(mlp, user_emb, item_emb).0,
        }
    }

    /// Server-side update: `θ ← θ − lr · g` for every uploaded gradient.
    /// Copies the item table first if another holder shares it.
    pub fn apply_gradients(&mut self, grads: &GlobalGradients, lr: f32) {
        let items = Arc::make_mut(&mut self.items);
        for (item, g) in grads.iter() {
            vector::axpy(-lr, g, items.row_mut(item as usize));
        }
        if let (Some(mlp), Some(mlp_grads)) = (&mut self.mlp, &grads.mlp) {
            mlp.apply_gradients(mlp_grads, lr);
        }
    }

    /// This model's item table regrouped for the scoring kernel
    /// ([`crate::lanes`]): build it once per evaluation (or per published
    /// snapshot) and pass it to every [`Self::user_scorer`] call.
    pub fn item_lanes(&self) -> ItemLanes {
        ItemLanes::new(&self.items)
    }

    /// One user's scoring pass over `lanes`, a block of [`LANES`] items at
    /// a time — the evaluation path (top-K lists and rank probes). Sigmoid
    /// is monotone, so ranking on logits is identical to ranking on
    /// predicted scores. `lanes` must be [`Self::item_lanes`] of this model
    /// state; every logit is bitwise-identical to the per-item
    /// [`Self::logit`].
    pub fn user_scorer<'a>(&'a self, lanes: &'a ItemLanes, user_emb: &'a [f32]) -> UserScorer<'a> {
        assert!(
            lanes.n_items() == self.n_items() && lanes.dim() == self.dim(),
            "item lanes built for another model shape"
        );
        UserScorer::new(lanes, self.mlp.as_ref(), user_emb)
    }

    /// Logits of every item for one user embedding, into a caller-owned
    /// buffer (cleared first): [`Self::user_scorer`] run over every block.
    pub fn scores_for_user_into(&self, lanes: &ItemLanes, user_emb: &[f32], out: &mut Vec<f32>) {
        let mut scorer = self.user_scorer(lanes, user_emb);
        let n_items = scorer.n_items();
        out.clear();
        out.reserve(n_items);
        for b in 0..scorer.n_blocks() {
            let live = (n_items - b * LANES).min(LANES);
            out.extend_from_slice(&scorer.block(b)[..live]);
        }
    }
}

/// The NeuMF input `z₀ = u ⊕ v ⊕ (u ⊙ v)`.
fn neumf_input(user_emb: &[f32], item_emb: &[f32]) -> Vec<f32> {
    debug_assert_eq!(user_emb.len(), item_emb.len());
    let mut z = Vec::with_capacity(3 * item_emb.len());
    z.extend_from_slice(user_emb);
    z.extend_from_slice(item_emb);
    z.extend(user_emb.iter().zip(item_emb).map(|(a, b)| a * b));
    z
}

/// Splits `∂L/∂z₀` into user/item parts with the product rule:
/// `∂L/∂u = dz[0..d] + dz[2d..3d] ⊙ v`, `∂L/∂v = dz[d..2d] + dz[2d..3d] ⊙ u`.
fn split_input_grad(d_input: &[f32], user_emb: &[f32], item_emb: &[f32]) -> (Vec<f32>, Vec<f32>) {
    let (du_part, rest) = d_input.split_at(item_emb.len());
    let (dv_part, dprod) = rest.split_at(item_emb.len());
    let product_rule = |part: &[f32], other: &[f32]| -> Vec<f32> {
        part.iter()
            .zip(dprod.iter().zip(other))
            .map(|(&g, (&p, &x))| g + p * x)
            .collect()
    };
    (
        product_rule(du_part, item_emb),
        product_rule(dv_part, user_emb),
    )
}

/// `(∂logit/∂u, ∂logit/∂v)` through a frozen MLP.
fn input_grads(mlp: &Mlp, user_emb: &[f32], item_emb: &[f32]) -> (Vec<f32>, Vec<f32>) {
    let (_, cache) = mlp.forward(&neumf_input(user_emb, item_emb));
    split_input_grad(&mlp.backward_input_only(&cache, 1.0), user_emb, item_emb)
}

/// Checkpoints keep the shape the two-struct model's derive wrote:
/// `{"Mf":{"items":…}}` and `{"Ncf":{"dim":…,"items":…,"mlp":…}}`.
impl Serialize for GlobalModel {
    fn to_value(&self) -> Value {
        let mut body = Map::new();
        body.insert("items".into(), self.items.to_value());
        let tag = match &self.mlp {
            None => "Mf",
            Some(mlp) => {
                body.insert("dim".into(), self.dim().to_value());
                body.insert("mlp".into(), mlp.to_value());
                "Ncf"
            }
        };
        Value::Object(Map::from([(tag.to_string(), Value::Object(body))]))
    }
}

/// Reads [`Serialize`]'s shape back. An unknown tag, a missing field, a
/// `dim` that disagrees with the item table or an MLP whose input is not
/// `3·dim` wide is an error.
impl Deserialize for GlobalModel {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let err = |msg: String| Error::new(format!("GlobalModel: {msg}"));
        let variant = v.as_object().filter(|map| map.len() == 1);
        let Some((tag, body)) = variant.and_then(|map| map.iter().next()) else {
            return Err(err(format!("expected one variant, got {}", v.kind())));
        };
        if tag != "Mf" && tag != "Ncf" {
            return Err(err(format!("unknown variant `{tag}`")));
        }
        let body = body
            .as_object()
            .ok_or_else(|| err(format!("expected object for {tag}, got {}", body.kind())))?;
        let field = |name: &str| {
            body.get(name)
                .ok_or_else(|| err(format!("missing field `{name}` for {tag}")))
        };
        let items = Arc::new(Matrix::from_value(field("items")?)?);
        if tag == "Mf" {
            return Ok(Self { items, mlp: None });
        }
        let dim = usize::from_value(field("dim")?)?;
        let mlp = Mlp::from_value(field("mlp")?)?;
        let input = mlp.shapes().first().map(|&(input, _)| input);
        if dim != items.cols() || input != dim.checked_mul(3) {
            return Err(err(format!(
                "dim {dim} and MLP input {input:?} disagree with {} item columns",
                items.cols()
            )));
        }
        Ok(Self {
            items,
            mlp: Some(mlp),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn both_models() -> Vec<GlobalModel> {
        let mut rng = StdRng::seed_from_u64(10);
        vec![
            GlobalModel::new(&ModelConfig::mf(4), 8, &mut rng),
            GlobalModel::new(&ModelConfig::ncf(4), 8, &mut rng),
        ]
    }

    /// A wider NCF for the end-to-end fitting test: width-2 hidden layers are
    /// degenerate (a single mostly-dead layer dominates the behaviour).
    fn trainable_models() -> Vec<GlobalModel> {
        let mut rng = StdRng::seed_from_u64(10);
        vec![
            GlobalModel::new(&ModelConfig::mf(4), 8, &mut rng),
            GlobalModel::new(&ModelConfig::ncf(8), 8, &mut rng),
        ]
    }

    /// Five 3-wide MF items drawn from `U(−0.5, 0.5)`.
    fn mf_model() -> GlobalModel {
        let mut config = ModelConfig::mf(3);
        config.init_scale = 0.5;
        GlobalModel::new(&config, 5, &mut StdRng::seed_from_u64(1))
    }

    /// Six 4-wide NCF items drawn from `U(−0.3, 0.3)`, hidden widths 6 and 3.
    fn ncf_model() -> GlobalModel {
        let mut config = ModelConfig::ncf(4);
        config.mlp_hidden = vec![6, 3];
        config.init_scale = 0.3;
        GlobalModel::new(&config, 6, &mut StdRng::seed_from_u64(3))
    }

    /// One example's item gradient through `forward` and `backward`, with
    /// `∂L/∂u` accumulated into `d_user`.
    fn backward_item_grad(
        m: &GlobalModel,
        u: &[f32],
        item: u32,
        delta: f32,
        d_user: &mut [f32],
    ) -> Vec<f32> {
        let (_, cache) = m.forward(u, item);
        let mut grads = GlobalGradients::new();
        m.backward(u, item, &cache, delta, d_user, &mut grads);
        grads.get(item).expect("item gradient recorded").to_vec()
    }

    /// Applies `v_item ← v_item − lr·grad` through the server update.
    fn apply_item_gradient(m: &mut GlobalModel, item: u32, grad: &[f32], lr: f32) {
        let mut grads = GlobalGradients::new();
        grads.add_item_grad(item, grad);
        m.apply_gradients(&grads, lr);
    }

    #[test]
    fn clones_share_the_item_table_until_a_write() {
        type Write = fn(&mut GlobalModel);
        let writes: [(&str, Write); 2] = [
            ("apply_gradients", |m| {
                apply_item_gradient(m, 3, &vec![0.5; m.dim()], 0.1)
            }),
            ("item_embedding_mut", |m| m.item_embedding_mut(3)[1] = 9.0),
        ];
        for model in both_models() {
            for (what, write) in writes {
                let (mut written, kept) = (model.clone(), model.clone());
                assert!(std::ptr::eq(written.items(), kept.items()), "{what}");
                // The reference: the same write on a deep copy.
                let mut reference = GlobalModel {
                    items: Arc::new(model.items().clone()),
                    mlp: model.mlp.clone(),
                };
                assert!(!std::ptr::eq(reference.items(), model.items()));
                write(&mut reference);
                write(&mut written);
                assert!(!std::ptr::eq(written.items(), kept.items()), "{what}");
                assert_eq!(written, reference, "{what}");
                assert_eq!(kept, model, "{what}: the other side keeps its values");
                assert!(Arc::ptr_eq(&kept.shared_items(), &model.shared_items()));
                // A sole holder writes in place.
                let alone = written.items() as *const Matrix;
                write(&mut written);
                assert!(std::ptr::eq(written.items(), alone), "{what}");
            }
        }
    }

    #[test]
    fn kinds_and_shapes() {
        let ms = both_models();
        assert_eq!(ms[0].kind(), ModelKind::Mf);
        assert_eq!(ms[1].kind(), ModelKind::Ncf);
        for m in &ms {
            assert_eq!(m.n_items(), 8);
            assert_eq!(m.dim(), 4);
            assert_eq!(m.item_embedding(3).len(), 4);
        }
    }

    #[test]
    fn predict_is_sigmoid_of_logit() {
        for m in both_models() {
            let u = [0.3, -0.2, 0.1, 0.5];
            let p = m.predict(&u, 2);
            assert!((p - sigmoid(m.logit(&u, 2))).abs() < 1e-7);
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn scores_for_user_matches_pointwise_logits() {
        for m in both_models() {
            let u = [0.1, 0.4, -0.3, 0.2];
            let mut scores = Vec::new();
            m.scores_for_user_into(&m.item_lanes(), &u, &mut scores);
            assert_eq!(scores.len(), m.n_items());
            for j in 0..m.n_items() {
                assert_eq!(scores[j].to_bits(), m.logit(&u, j as u32).to_bits());
            }
        }
    }

    #[test]
    fn backward_and_apply_reduce_bce_loss() {
        // Gradient-descend one (user, item) positive pair; the predicted
        // score must rise for both model families. Learning rates mirror the
        // paper's settings (η=1.0 for MF, small for DL — MLPs diverge at 1.0).
        for mut m in trainable_models() {
            let lr = match m.kind() {
                ModelKind::Mf => 1.0,
                ModelKind::Ncf => 0.1,
            };
            let dim = m.dim();
            let u: Vec<f32> = (0..dim).map(|i| 0.1 + 0.05 * i as f32).collect();
            let before = m.predict(&u, 5);
            for _ in 0..400 {
                let (logit, cache) = m.forward(&u, 5);
                let delta = crate::loss::bce_logit_delta(logit, 1.0);
                let mut d_user = vec![0.0; dim];
                let mut grads = GlobalGradients::new();
                m.backward(&u, 5, &cache, delta, &mut d_user, &mut grads);
                m.apply_gradients(&grads, lr);
            }
            let after = m.predict(&u, 5);
            assert!(after > before, "{:?}: {before} -> {after}", m.kind());
            assert!(after > 0.8, "{:?} should nearly fit: {after}", m.kind());
        }
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn item_grad_of_logit_finite_difference_both_kinds() {
        for m in both_models() {
            let u = [0.25, 0.15, -0.2, 0.3];
            let g = m.item_grad_of_logit(&u, 1);
            let eps = 1e-2;
            let mut m2 = m.clone();
            for i in 0..4 {
                let orig = m2.item_embedding(1)[i];
                m2.item_embedding_mut(1)[i] = orig + eps;
                let up = m2.logit(&u, 1);
                m2.item_embedding_mut(1)[i] = orig - eps;
                let dn = m2.logit(&u, 1);
                m2.item_embedding_mut(1)[i] = orig;
                let fd = (up - dn) / (2.0 * eps);
                assert!((g[i] - fd).abs() < 1e-2, "{:?} coord {i}", m.kind());
            }
        }
    }

    #[test]
    fn user_grad_of_logit_finite_difference_both_kinds() {
        for m in both_models() {
            let u = [0.25, 0.15, -0.2, 0.3];
            let g = m.user_grad_of_logit(&u, 6);
            let eps = 1e-2;
            for i in 0..4 {
                let mut up = u;
                up[i] += eps;
                let mut dn = u;
                dn[i] -= eps;
                let fd = (m.logit(&up, 6) - m.logit(&dn, 6)) / (2.0 * eps);
                assert!((g[i] - fd).abs() < 1e-2, "{:?} coord {i}", m.kind());
            }
        }
    }

    #[test]
    fn mlp_gradients_only_for_ncf() {
        for m in both_models() {
            let u = [0.1, 0.1, 0.1, 0.1];
            let (logit, cache) = m.forward(&u, 0);
            let delta = crate::loss::bce_logit_delta(logit, 0.0);
            let mut d_user = vec![0.0; 4];
            let mut grads = GlobalGradients::new();
            m.backward(&u, 0, &cache, delta, &mut d_user, &mut grads);
            match m.kind() {
                ModelKind::Mf => assert!(grads.mlp.is_none()),
                ModelKind::Ncf => assert!(grads.mlp.is_some()),
            }
        }
    }

    #[test]
    fn logit_is_dot_product() {
        let m = mf_model();
        let u = [1.0, 2.0, 3.0];
        let expect = vector::dot(&u, m.item_embedding(2));
        assert_eq!(m.logit(&u, 2), expect);
        assert_eq!(m.logit_with_embeddings(&u, m.item_embedding(2)), expect);
        assert_eq!(m.item_grad_with_embeddings(&u, &[9.0; 3]), u.to_vec());
    }

    #[test]
    fn backward_returns_scaled_user() {
        let m = mf_model();
        let u = [1.0, -1.0, 0.5];
        let mut d_user = vec![0.0; 3];
        let d_item = backward_item_grad(&m, &u, 1, 2.0, &mut d_user);
        assert_eq!(d_item, vec![2.0, -2.0, 1.0]);
        // d_user = delta * v.
        let v = m.item_embedding(1);
        for i in 0..3 {
            assert!((d_user[i] - 2.0 * v[i]).abs() < 1e-6);
        }
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn backward_matches_finite_difference() {
        let mut m = mf_model();
        let u = [0.3, -0.8, 0.2];
        let mut d_user = vec![0.0; 3];
        let d_item = backward_item_grad(&m, &u, 0, 1.0, &mut d_user);
        let eps = 1e-3;
        for i in 0..3 {
            let orig = m.item_embedding(0)[i];
            m.item_embedding_mut(0)[i] = orig + eps;
            let up = m.logit(&u, 0);
            m.item_embedding_mut(0)[i] = orig - eps;
            let dn = m.logit(&u, 0);
            m.item_embedding_mut(0)[i] = orig;
            assert!((d_item[i] - (up - dn) / (2.0 * eps)).abs() < 1e-3);
        }
    }

    #[test]
    fn apply_item_gradient_descends() {
        let mut m = mf_model();
        let u = [1.0, 1.0, 1.0];
        let before = m.logit(&u, 3);
        // Gradient of −logit w.r.t. v is −u; applying it should raise the score.
        let grad: Vec<f32> = u.iter().map(|&x| -x).collect();
        apply_item_gradient(&mut m, 3, &grad, 0.1);
        assert!(m.logit(&u, 3) > before);
    }

    #[test]
    fn logit_matches_forward() {
        let m = ncf_model();
        let u = [0.1, -0.2, 0.3, 0.05];
        let (logit, _) = m.forward(&u, 2);
        assert_eq!(m.logit(&u, 2), logit);
        assert_eq!(m.logit_with_embeddings(&u, m.item_embedding(2)), logit);
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn backward_splits_user_item_gradients() {
        let m = ncf_model();
        let u = [0.4, -0.1, 0.2, 0.3];
        let mut d_user = vec![0.0; 4];
        let d_item = backward_item_grad(&m, &u, 1, 1.0, &mut d_user);
        assert_eq!(d_item.len(), 4);

        // Finite-difference check of d_item (product rule included).
        let eps = 1e-2;
        let mut m2 = m.clone();
        for i in 0..4 {
            let orig = m2.item_embedding(1)[i];
            m2.item_embedding_mut(1)[i] = orig + eps;
            let up = m2.logit(&u, 1);
            m2.item_embedding_mut(1)[i] = orig - eps;
            let dn = m2.logit(&u, 1);
            m2.item_embedding_mut(1)[i] = orig;
            let fd = (up - dn) / (2.0 * eps);
            assert!(
                (d_item[i] - fd).abs() < 1e-2,
                "item grad {i}: {} vs {fd}",
                d_item[i]
            );
        }

        // Finite-difference check of d_user.
        for i in 0..4 {
            let mut up_u = u;
            up_u[i] += eps;
            let mut dn_u = u;
            dn_u[i] -= eps;
            let fd = (m.logit(&up_u, 1) - m.logit(&dn_u, 1)) / (2.0 * eps);
            assert!(
                (d_user[i] - fd).abs() < 1e-2,
                "user grad {i}: {} vs {fd}",
                d_user[i]
            );
        }
    }

    #[test]
    fn item_grad_of_logit_matches_backward() {
        let m = ncf_model();
        let u = [0.2, 0.2, -0.3, 0.1];
        let mut d_user = vec![0.0; 4];
        let via_backward = backward_item_grad(&m, &u, 4, 1.0, &mut d_user);
        let direct = m.item_grad_of_logit(&u, 4);
        for (a, b) in via_backward.iter().zip(&direct) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn user_grad_matches_finite_difference() {
        let m = ncf_model();
        let u = [0.3, -0.25, 0.15, 0.2];
        let g = m.user_grad_of_logit(&u, 3);
        let eps = 1e-2;
        for i in 0..4 {
            let mut up = u;
            up[i] += eps;
            let mut dn = u;
            dn[i] -= eps;
            let fd = (m.logit(&up, 3) - m.logit(&dn, 3)) / (2.0 * eps);
            assert!((g[i] - fd).abs() < 1e-2, "coord {i}");
        }
    }

    #[test]
    fn score_is_multiplicative_not_additive() {
        // With product features, zeroing the user must change the *item
        // sensitivity* of the score: ∂logit/∂v at u and at 2u differ beyond
        // a constant — catch regressions to an additive scorer.
        let m = ncf_model();
        let u: Vec<f32> = vec![0.4, -0.3, 0.2, 0.5];
        let u2: Vec<f32> = u.iter().map(|x| 2.0 * x).collect();
        let g1 = m.item_grad_of_logit(&u, 0);
        let g2 = m.item_grad_of_logit(&u2, 0);
        let diff: f32 = g1.iter().zip(&g2).map(|(a, b)| (a - b).abs()).sum();
        assert!(diff > 1e-4, "item gradient must depend on the user: {diff}");
    }

    #[test]
    fn apply_gradients_moves_score() {
        let mut m = ncf_model();
        let u = [0.5, 0.5, 0.5, 0.5];
        let before = m.logit(&u, 0);
        let g = m.item_grad_of_logit(&u, 0);
        let neg: Vec<f32> = g.iter().map(|&x| -x).collect();
        apply_item_gradient(&mut m, 0, &neg, 0.5);
        assert!(m.logit(&u, 0) >= before);
    }

    #[test]
    fn decoder_errors_instead_of_panicking() {
        let ncf = both_models().pop().unwrap().to_value();
        let edit = |f: &dyn Fn(&mut Map)| {
            let mut value = ncf.clone();
            if let Value::Object(outer) = &mut value {
                if let Some(Value::Object(body)) = outer.get_mut("Ncf") {
                    f(body);
                }
            }
            GlobalModel::from_value(&value)
        };
        let renamed = Value::Object(Map::from([(
            "Lstm".to_string(),
            ncf.as_object().unwrap()["Ncf"].clone(),
        )]));
        let cases = [
            ("unknown tag", GlobalModel::from_value(&renamed)),
            ("not an object", GlobalModel::from_value(&Value::Null)),
            ("two tags", {
                let mut two = ncf.as_object().unwrap().clone();
                two.insert("Mf".into(), Value::Null);
                GlobalModel::from_value(&Value::Object(two))
            }),
            ("missing items", edit(&|b| drop(b.remove("items")))),
            ("missing dim", edit(&|b| drop(b.remove("dim")))),
            ("missing mlp", edit(&|b| drop(b.remove("mlp")))),
            (
                "wrong dim",
                edit(&|b| drop(b.insert("dim".into(), 5usize.to_value()))),
            ),
            (
                "huge dim",
                edit(&|b| drop(b.insert("dim".into(), usize::MAX.to_value()))),
            ),
            ("empty body", edit(&|b| b.clear())),
            (
                "body not an object",
                GlobalModel::from_value(&Value::Object(Map::from([(
                    "Mf".to_string(),
                    3usize.to_value(),
                )]))),
            ),
        ];
        for (what, result) in cases {
            assert!(result.is_err(), "{what} must be an error");
        }
        // Shapes the kernels index: a short item table, and MLPs whose
        // parts do not fit together.
        let short_mf = Value::Object(Map::from([(
            "Mf".to_string(),
            Value::Object(Map::from([(
                "items".to_string(),
                Value::Object(Map::from([
                    ("rows".to_string(), 3usize.to_value()),
                    ("cols".to_string(), 2usize.to_value()),
                    ("data".to_string(), vec![0.5f32, 0.5].to_value()),
                ])),
            )])),
        )]));
        assert!(
            GlobalModel::from_value(&short_mf).is_err(),
            "short item data"
        );
        let edit_mlp = |f: &dyn Fn(&mut Map)| {
            edit(&|body| {
                if let Some(Value::Object(mlp)) = body.get_mut("mlp") {
                    f(mlp);
                }
            })
        };
        let list = |mlp: &mut Map, name: &str, f: &dyn Fn(&mut Vec<Value>)| {
            if let Some(Value::Array(items)) = mlp.get_mut(name) {
                f(items);
            }
        };
        let mlp_cases = [
            (
                "layers that do not chain",
                edit_mlp(&|m| list(m, "weights", &|w| w[1] = Matrix::zeros(2, 3).to_value())),
            ),
            (
                "a bias of the wrong length",
                edit_mlp(&|m| list(m, "biases", &|b| b[1] = vec![0.01f32; 3].to_value())),
            ),
            (
                "fewer biases than layers",
                edit_mlp(&|m| list(m, "biases", &|b| drop(b.pop()))),
            ),
            (
                "a projection for another last layer",
                edit_mlp(&|m| drop(m.insert("projection".into(), vec![0.5f32; 5].to_value()))),
            ),
            (
                "no layers",
                edit_mlp(&|m| {
                    list(m, "weights", &|w| w.clear());
                    list(m, "biases", &|b| b.clear());
                }),
            ),
        ];
        for (what, result) in mlp_cases {
            assert!(result.is_err(), "{what} must be an error");
        }
        assert_eq!(edit(&|_| ()).unwrap(), both_models().pop().unwrap());
        let narrow = GlobalModel::new(&ModelConfig::ncf(2), 8, &mut StdRng::seed_from_u64(1));
        let swapped = edit(&|b| drop(b.insert("mlp".into(), narrow.mlp.to_value())));
        assert!(swapped.is_err(), "an MLP for another dim must be an error");
    }
}
