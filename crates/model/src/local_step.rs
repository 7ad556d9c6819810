//! The local-step kernel: how every benign client trains, for both model
//! families and both losses.
//!
//! A client's round is an ordered list of examples (item ids, repeats
//! allowed) scored against its user embedding. The kernel splits it into
//! two phases around the loss:
//!
//! 1. [`GlobalModel::local_step`] scores the whole list, `LANES` items at a
//!    time: MF runs eight `dot` folds side by side off the item rows, and
//!    folds a tail of fewer than `LANES` items one by one; NCF runs the
//!    evaluation kernel's lane step ([`crate::lanes`]), which folds the
//!    user's share of each first-layer neuron once per client, and keeps
//!    every hidden layer's pre-activations for the backward pass.
//! 2. [`LocalStep::backward`] has the caller's loss rule turn the logits
//!    into one logit delta per example, in place, and backpropagates them
//!    in example order into `∂L/∂u` and the upload, through per-client
//!    scratch instead of per-example allocations.
//!
//! *Why the bits hold.* Phase one computes each example's logit and
//! pre-activations with the per-example `forward`'s operands in its order
//! (the lane step is pinned to `logit` by `batched_scoring`); the model and
//! the user embedding do not change within a step, so scoring the whole list
//! before the first backward changes nothing. Phase two then makes every add
//! into every accumulator (`d_user`, each item row, each MLP gradient) with
//! `backward`'s operands in example order. `local_step_parity` holds the
//! kernel to the per-example `forward`/`backward` loop, bit for bit.

use frs_linalg::vector;

use crate::gradients::GlobalGradients;
use crate::lanes::{Lane, LANES};
use crate::mlp::BackwardScratch;
use crate::GlobalModel;

/// One client's scored example list between the two phases: see the
/// [module docs](self).
pub struct LocalStep<'a> {
    model: &'a GlobalModel,
    user_emb: &'a [f32],
    items: &'a [u32],
    logits: Vec<f32>,
    /// NCF only: block `b`'s hidden pre-activations (see
    /// `BatchScorer::pre_activations`) at `tape[b·H..(b+1)·H]`, `H` the
    /// MLP's hidden units.
    tape: Vec<Lane>,
}

impl GlobalModel {
    /// Phase one of the local-step kernel: scores `items` for `user_emb`.
    /// Each logit is bitwise-identical to [`Self::forward`]'s for that item.
    pub fn local_step<'a>(&'a self, user_emb: &'a [f32], items: &'a [u32]) -> LocalStep<'a> {
        let dim = self.dim();
        assert_eq!(user_emb.len(), dim, "user embedding of another dim");
        let mut logits = Vec::with_capacity(items.len());
        let mut tape = Vec::new();
        match self.mlp() {
            None => {
                // Eight `dot` folds side by side, straight off the item rows;
                // the last `< LANES` items, the whole list for most clients
                // of a sparse population, fold one by one, as `forward` does.
                let mut blocks = items.chunks_exact(LANES);
                for block in &mut blocks {
                    let rows: [&[f32]; LANES] =
                        std::array::from_fn(|lane| &self.item_embedding(block[lane])[..dim]);
                    let mut acc = [-0.0; LANES];
                    for (c, &u) in user_emb.iter().enumerate() {
                        for (a, row) in acc.iter_mut().zip(&rows) {
                            *a += u * row[c];
                        }
                    }
                    logits.extend_from_slice(&acc);
                }
                let tail = blocks.remainder().iter();
                logits.extend(tail.map(|&item| vector::dot(user_emb, self.item_embedding(item))));
            }
            Some(mlp) => {
                let mut scorer = mlp.batch_scorer(user_emb);
                tape.reserve(items.len().div_ceil(LANES) * mlp.hidden_units());
                // Each lane's suffix `v ⊕ (u ⊙ v)`, coordinate-major.
                let mut suffix = vec![[0.0; LANES]; 2 * dim];
                for chunk in items.chunks(LANES) {
                    let (item_part, product_part) = suffix.split_at_mut(dim);
                    for (lane, &item) in chunk.iter().enumerate() {
                        let v = self.item_embedding(item);
                        for (((coord, product), &x), &u) in item_part
                            .iter_mut()
                            .zip(&mut *product_part)
                            .zip(v)
                            .zip(user_emb)
                        {
                            coord[lane] = x;
                            product[lane] = u * x;
                        }
                    }
                    let block_logits = scorer.logits(&suffix);
                    logits.extend_from_slice(&block_logits[..chunk.len()]);
                    tape.extend_from_slice(scorer.pre_activations());
                }
            }
        }
        LocalStep {
            model: self,
            user_emb,
            items,
            logits,
            tape,
        }
    }
}

impl LocalStep<'_> {
    /// The examples' logits, in list order.
    pub fn logits(&self) -> &[f32] {
        &self.logits
    }

    /// Phase two: `delta_rule` (the loss) rewrites the logits in place into
    /// each example's `∂L/∂logit`, and those deltas backpropagate in list
    /// order. Accumulates `∂L/∂u` into `d_user`, and each item gradient and
    /// (NCF, for a non-empty list) the MLP gradients into `grads`, as one
    /// [`GlobalModel::backward`] call per example in list order would.
    pub fn backward(
        self,
        delta_rule: impl FnOnce(&mut [f32]),
        d_user: &mut [f32],
        grads: &mut GlobalGradients,
    ) {
        let Self {
            model,
            user_emb,
            items,
            logits: mut deltas,
            tape,
        } = self;
        delta_rule(&mut deltas);
        let dim = model.dim();
        let examples = items.iter().zip(&deltas);
        let Some(mlp) = model.mlp() else {
            let mut d_item = vec![0.0; dim];
            for (&item, &delta) in examples {
                vector::axpy(delta, model.item_embedding(item), d_user);
                for (g, &u) in d_item.iter_mut().zip(user_emb) {
                    *g = delta * u;
                }
                grads.add_item_grad(item, &d_item);
            }
            return;
        };
        if items.is_empty() {
            return;
        }
        let mut mlp_grads = grads.mlp.take().unwrap_or_else(|| mlp.zero_gradients());
        let hidden = mlp.hidden_units();
        // z₀ = u ⊕ v ⊕ (u ⊙ v), as `forward` builds it; `u` never changes.
        let mut input = vec![0.0; 3 * dim];
        input[..dim].copy_from_slice(user_emb);
        let mut pre = vec![0.0; hidden];
        let mut d_item = vec![0.0; dim];
        let mut scratch = BackwardScratch::default();
        for (e, (&item, &delta)) in examples.enumerate() {
            let v = model.item_embedding(item);
            let (v_part, product_part) = input[dim..].split_at_mut(dim);
            v_part.copy_from_slice(v);
            for ((p, &a), &b) in product_part.iter_mut().zip(user_emb).zip(v) {
                *p = a * b;
            }
            let lane = e % LANES;
            for (p, unit) in pre.iter_mut().zip(&tape[e / LANES * hidden..][..hidden]) {
                *p = unit[lane];
            }
            let d_input = mlp.backward_recorded(&input, &pre, delta, &mut mlp_grads, &mut scratch);
            // The product rule of `split_input_grad`: ∂L/∂u = dz[0..d] +
            // dz[2d..3d] ⊙ v into `d_user`, ∂L/∂v = dz[d..2d] + dz[2d..3d] ⊙ u
            // into the upload.
            let (du, rest) = d_input.split_at(dim);
            let (dv, dprod) = rest.split_at(dim);
            for (((acc, &g), &p), &x) in d_user.iter_mut().zip(du).zip(dprod).zip(v) {
                *acc += g + p * x;
            }
            for (((out, &g), &p), &x) in d_item.iter_mut().zip(dv).zip(dprod).zip(user_emb) {
                *out = g + p * x;
            }
            grads.add_item_grad(item, &d_item);
        }
        grads.mlp = Some(mlp_grads);
    }
}
