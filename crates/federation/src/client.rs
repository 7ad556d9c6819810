//! Clients: the benign training logic and the trait malicious actors implement.

use std::sync::Arc;

use frs_data::{Dataset, NegativeSampler};
use frs_linalg::vector;
use frs_model::{bce_logit_delta, bpr_logit_deltas, GlobalGradients, GlobalModel, LossKind};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::context::RoundContext;

/// A participant in the federation. Implemented by [`BenignClient`] and by
/// every attack in `pieck-core` / `frs-attacks`.
pub trait Client: Send {
    /// Stable client id (== user id for benign clients).
    fn id(&self) -> usize;

    /// Whether this client is controlled by the attacker (used only by
    /// bookkeeping/metrics — the *server cannot see this*).
    fn is_malicious(&self) -> bool {
        false
    }

    /// One local round: receive the global model, train (or craft poison),
    /// return the gradient upload.
    fn local_round(&mut self, ctx: &RoundContext, model: &GlobalModel) -> GlobalGradients;

    /// The private user embedding, when one exists (benign clients). Metrics
    /// use this for evaluation; the server never does.
    fn user_embedding(&self) -> Option<&[f32]> {
        None
    }

    /// Serializable snapshot of this client's *mutable* state, for
    /// mid-scenario checkpointing. The immutable parts (dataset, ids, seeds,
    /// hyper-parameters) are rebuilt deterministically from the scenario
    /// config, so stateless clients keep the `Value::Null` default.
    fn checkpoint_state(&self) -> serde::Value {
        serde::Value::Null
    }

    /// Overlays a state snapshot captured by [`Client::checkpoint_state`]
    /// onto a freshly built client. The default accepts only `Null` — a
    /// stateful snapshot reaching a stateless client is a config mismatch,
    /// not something to ignore silently.
    fn restore_state(&mut self, state: &serde::Value) -> Result<(), String> {
        if state.is_null() {
            Ok(())
        } else {
            Err(format!(
                "client {} holds no restorable state but checkpoint carries {}",
                self.id(),
                state.kind()
            ))
        }
    }
}

/// Client-side defense hook (the paper's Section V-B regularizers plug in
/// here). Implementations keep their own state (e.g. Δ-Norm mining history).
pub trait LocalRegularizer: Send {
    /// Called every time the owning client is sampled, before training, with
    /// the freshly received global model.
    fn observe(&mut self, ctx: &RoundContext, model: &GlobalModel);

    /// Contributes additional gradients from the regularization terms.
    /// Implementations *add* their terms to `grads` (item side) and `d_user`
    /// (user side); the benign client then applies/uploads them alongside the
    /// base-loss gradients.
    fn apply(
        &mut self,
        ctx: &RoundContext,
        model: &GlobalModel,
        user_embedding: &[f32],
        local_items: &[u32],
        grads: &mut GlobalGradients,
        d_user: &mut [f32],
    );

    /// Display name for experiment tables.
    fn name(&self) -> &'static str;

    /// Serializable snapshot of the regularizer's mutable state (mining
    /// history, accumulated Δ-Norms, …). Stateless regularizers keep the
    /// `Value::Null` default. The owning [`BenignClient`] embeds this in its
    /// own checkpoint state.
    fn checkpoint_state(&self) -> serde::Value {
        serde::Value::Null
    }

    /// Overlays a snapshot captured by [`LocalRegularizer::checkpoint_state`].
    fn restore_state(&mut self, state: &serde::Value) -> Result<(), String> {
        if state.is_null() {
            Ok(())
        } else {
            Err(format!(
                "regularizer {} holds no restorable state but checkpoint carries {}",
                self.name(),
                state.kind()
            ))
        }
    }
}

/// An honest user: trains on its private interactions and uploads true
/// gradients (Section III-A steps 2–3).
pub struct BenignClient {
    user_id: usize,
    train: Arc<Dataset>,
    user_embedding: Vec<f32>,
    regularizer: Option<Box<dyn LocalRegularizer>>,
}

impl BenignClient {
    /// Creates the client with a small random personal embedding.
    pub fn new(
        user_id: usize,
        train: Arc<Dataset>,
        dim: usize,
        init_scale: f32,
        seed: u64,
    ) -> Self {
        let mut user_embedding = vec![0.0; dim];
        Self::init_embedding(&mut user_embedding, init_scale, seed);
        Self::from_parts(user_id, train, user_embedding, None)
    }

    /// The seeded initial embedding draw, written into `row`; factored out
    /// so arena users (see [`LazyClientPool`](crate::LazyClientPool))
    /// initialize their rows in place, bit-identically to boxed
    /// `BenignClient`s.
    pub fn init_embedding(row: &mut [f32], init_scale: f32, seed: u64) {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        for x in row {
            *x = rng.gen_range(-init_scale..=init_scale);
        }
    }

    /// Assembles a client around an already-materialized embedding (the
    /// lazy-pool path, which owns embeddings in an arena between rounds).
    pub fn from_parts(
        user_id: usize,
        train: Arc<Dataset>,
        user_embedding: Vec<f32>,
        regularizer: Option<Box<dyn LocalRegularizer>>,
    ) -> Self {
        Self {
            user_id,
            train,
            user_embedding,
            regularizer,
        }
    }

    /// Tears the client back down into the state the lazy pool persists
    /// between rounds: the trained embedding and the (stateful) regularizer.
    pub fn into_parts(self) -> (Vec<f32>, Option<Box<dyn LocalRegularizer>>) {
        (self.user_embedding, self.regularizer)
    }

    /// Installs the client-side defense (our Section V-B method).
    pub fn with_regularizer(mut self, reg: Box<dyn LocalRegularizer>) -> Self {
        self.regularizer = Some(reg);
        self
    }

    /// Mean BCE training loss over a local round dataset (diagnostics only).
    pub fn local_loss(&self, model: &GlobalModel, positives: &[u32], negatives: &[u32]) -> f32 {
        let total = positives.len() + negatives.len();
        if total == 0 {
            return 0.0;
        }
        let mut sum = 0.0;
        for &j in positives {
            sum += frs_model::bce_loss(model.logit(&self.user_embedding, j), 1.0);
        }
        for &j in negatives {
            sum += frs_model::bce_loss(model.logit(&self.user_embedding, j), 0.0);
        }
        sum / total as f32
    }

    /// Pointwise BCE (Eq. 2) over the local dataset, positives then
    /// negatives: one local-step kernel pass whose deltas are
    /// `(σ(s) − x) / |D|`.
    fn train_bce(
        &self,
        model: &GlobalModel,
        local_items: &[u32],
        n_positives: usize,
        grads: &mut GlobalGradients,
        d_user: &mut [f32],
    ) {
        let scale = 1.0 / local_items.len().max(1) as f32;
        let bce = |logits: &mut [f32]| {
            for (e, x) in logits.iter_mut().enumerate() {
                let label = if e < n_positives { 1.0 } else { 0.0 };
                *x = bce_logit_delta(*x, label) * scale;
            }
        };
        model
            .local_step(&self.user_embedding, local_items)
            .backward(bce, d_user, grads);
    }

    /// Pairwise BPR: positive `i mod |P|` against negative `i`, so every
    /// negative is consumed exactly once (the sampler drew `q·|P|`). One
    /// local-step kernel pass over the list `pos₀, neg₀, pos₁, neg₁, …`.
    fn train_bpr(
        &self,
        model: &GlobalModel,
        positives: &[u32],
        negatives: &[u32],
        grads: &mut GlobalGradients,
        d_user: &mut [f32],
    ) {
        if positives.is_empty() || negatives.is_empty() {
            return;
        }
        let scale = 1.0 / negatives.len() as f32;
        let pairs: Vec<u32> = negatives
            .iter()
            .enumerate()
            .flat_map(|(i, &neg)| [positives[i % positives.len()], neg])
            .collect();
        let bpr = |logits: &mut [f32]| {
            for pair in logits.chunks_exact_mut(2) {
                let (d_pos, d_neg) = bpr_logit_deltas(pair[0], pair[1]);
                pair[0] = d_pos * scale;
                pair[1] = d_neg * scale;
            }
        };
        model
            .local_step(&self.user_embedding, &pairs)
            .backward(bpr, d_user, grads);
    }
}

impl Client for BenignClient {
    fn id(&self) -> usize {
        self.user_id
    }

    fn local_round(&mut self, ctx: &RoundContext, model: &GlobalModel) -> GlobalGradients {
        if let Some(reg) = &mut self.regularizer {
            reg.observe(ctx, model);
        }

        let mut rng = ctx.client_rng(self.user_id);
        let sampler = NegativeSampler::new(ctx.negative_ratio);
        let positives = self.train.items_of(self.user_id);
        let negatives = sampler.sample(&self.train, self.user_id, &mut rng);
        let mut local_items = Vec::with_capacity(positives.len() + negatives.len());
        local_items.extend_from_slice(positives);
        local_items.extend_from_slice(&negatives);

        let mut grads = GlobalGradients::new();
        let mut d_user = vec![0.0f32; self.user_embedding.len()];
        match ctx.loss {
            LossKind::Bce => self.train_bce(
                model,
                &local_items,
                positives.len(),
                &mut grads,
                &mut d_user,
            ),
            LossKind::Bpr => self.train_bpr(model, positives, &negatives, &mut grads, &mut d_user),
        }

        // Defense regularizers contribute extra gradients on top of the
        // original loss (Eq. 16: L_def = L − β·Re1 − γ·Re2 — the sign is the
        // regularizer's responsibility).
        if let Some(reg) = &mut self.regularizer {
            reg.apply(
                ctx,
                model,
                &self.user_embedding,
                &local_items,
                &mut grads,
                &mut d_user,
            );
        }

        // Local step on the private embedding (Section III-A step 3).
        vector::axpy(-ctx.client_lr, &d_user, &mut self.user_embedding);
        grads
    }

    fn user_embedding(&self) -> Option<&[f32]> {
        Some(&self.user_embedding)
    }

    fn checkpoint_state(&self) -> serde::Value {
        let state = BenignClientState {
            user_embedding: self.user_embedding.clone(),
            regularizer: match &self.regularizer {
                Some(reg) => reg.checkpoint_state(),
                None => serde::Value::Null,
            },
        };
        serde::Serialize::to_value(&state)
    }

    fn restore_state(&mut self, state: &serde::Value) -> Result<(), String> {
        let state: BenignClientState =
            serde::Deserialize::from_value(state).map_err(|e| e.to_string())?;
        if state.user_embedding.len() != self.user_embedding.len() {
            return Err(format!(
                "user {} embedding dim mismatch: checkpoint {}, simulation {}",
                self.user_id,
                state.user_embedding.len(),
                self.user_embedding.len()
            ));
        }
        self.user_embedding = state.user_embedding;
        match (&mut self.regularizer, &state.regularizer) {
            (Some(reg), v) => reg.restore_state(v),
            (None, v) if v.is_null() => Ok(()),
            (None, v) => Err(format!(
                "user {} has no regularizer but checkpoint carries {}",
                self.user_id,
                v.kind()
            )),
        }
    }
}

/// Serialized mutable state of a [`BenignClient`]. Shared with the lazy
/// client pool, which emits the identical shape for arena-resident users so
/// checkpoints are interchangeable between arena users and boxed clients.
#[derive(serde::Serialize, serde::Deserialize)]
pub(crate) struct BenignClientState {
    pub(crate) user_embedding: Vec<f32>,
    /// The installed [`LocalRegularizer`]'s own state tree (`Null` when no
    /// defense is installed or the defense is stateless).
    #[serde(default)]
    pub(crate) regularizer: serde::Value,
}

#[cfg(test)]
mod tests {
    use super::*;
    use frs_data::{synth, DatasetSpec};
    use frs_linalg::SeedStream;
    use frs_model::ModelConfig;

    fn setup(loss: LossKind) -> (GlobalModel, BenignClient, RoundContext) {
        let mut rng = StdRng::seed_from_u64(1);
        let data = Arc::new(synth::generate(&DatasetSpec::tiny(), &mut rng));
        let model = GlobalModel::new(&ModelConfig::mf(8), data.n_items(), &mut rng);
        let client = BenignClient::new(0, data, 8, 0.1, 99);
        let ctx = RoundContext::new(0, 0.5, 0.5, 1, loss, SeedStream::new(5));
        (model, client, ctx)
    }

    #[test]
    fn upload_covers_local_items_only() {
        let (model, mut client, ctx) = setup(LossKind::Bce);
        let positives: Vec<u32> = client.train.items_of(0).to_vec();
        let grads = client.local_round(&ctx, &model);
        // Every positive must carry a gradient; total items = positives +
        // sampled negatives ≤ 2·|positives|.
        for &j in &positives {
            assert!(grads.get(j).is_some(), "positive {j} missing");
        }
        assert!(grads.n_items() <= 2 * positives.len());
        assert!(grads.mlp.is_none(), "MF uploads no MLP gradients");
    }

    #[test]
    fn user_embedding_moves_during_training() {
        let (model, mut client, ctx) = setup(LossKind::Bce);
        let before = client.user_embedding().unwrap().to_vec();
        client.local_round(&ctx, &model);
        let after = client.user_embedding().unwrap();
        assert!(vector::l2_distance(&before, after) > 0.0);
    }

    #[test]
    fn repeated_rounds_reduce_local_loss() {
        let (mut model, mut client, _) = setup(LossKind::Bce);
        let positives: Vec<u32> = client.train.items_of(0).to_vec();
        let mut rng = StdRng::seed_from_u64(3);
        let sampler = NegativeSampler::new(1);
        let negatives = sampler.sample(&client.train, 0, &mut rng);
        let before = client.local_loss(&model, &positives, &negatives);
        for r in 0..30 {
            let ctx = RoundContext::new(r, 0.5, 0.5, 1, LossKind::Bce, SeedStream::new(5));
            let grads = client.local_round(&ctx, &model);
            model.apply_gradients(&grads, 0.5);
        }
        let after = client.local_loss(&model, &positives, &negatives);
        assert!(after < before, "{before} -> {after}");
    }

    #[test]
    fn bpr_training_also_learns() {
        let (mut model, mut client, _) = setup(LossKind::Bpr);
        let positives: Vec<u32> = client.train.items_of(0).to_vec();
        for r in 0..30 {
            let ctx = RoundContext::new(r, 0.5, 0.5, 1, LossKind::Bpr, SeedStream::new(5));
            let grads = client.local_round(&ctx, &model);
            model.apply_gradients(&grads, 0.5);
        }
        // After training, the mean positive logit should exceed the mean
        // logit of uninteracted probe items.
        let u = client.user_embedding().unwrap();
        let pos_mean: f32 =
            positives.iter().map(|&j| model.logit(u, j)).sum::<f32>() / positives.len() as f32;
        let probe: Vec<u32> = (0..client.train.n_items() as u32)
            .filter(|&j| !client.train.interacted(0, j))
            .take(20)
            .collect();
        let neg_mean: f32 =
            probe.iter().map(|&j| model.logit(u, j)).sum::<f32>() / probe.len() as f32;
        assert!(pos_mean > neg_mean, "pos {pos_mean} vs neg {neg_mean}");
    }

    #[test]
    fn rounds_are_deterministic() {
        let (model, mut c1, ctx) = setup(LossKind::Bce);
        let (_, mut c2, _) = setup(LossKind::Bce);
        let g1 = c1.local_round(&ctx, &model);
        let g2 = c2.local_round(&ctx, &model);
        assert_eq!(g1, g2);
    }

    #[test]
    fn benign_client_is_not_malicious() {
        let (_, client, _) = setup(LossKind::Bce);
        assert!(!client.is_malicious());
        assert_eq!(client.id(), 0);
    }
}
