//! The NCF interaction MLP (Eq. 1) with hand-derived backprop.
//!
//! `logit(z₀) = hᵀ · a_L` where `a_l = ReLU(W_l a_{l-1} + b_l)` and
//! `z₀ = u ⊕ v ⊕ (u ⊙ v)`. [`Mlp::forward`] records the per-layer
//! pre-activations and activations in an [`MlpCache`]; [`Mlp::backward`]
//! consumes that cache and a logit delta to produce parameter gradients
//! (accumulated into [`MlpGradients`]) and the gradient with respect to the
//! input `z₀` (split by the caller into `∂/∂u` and `∂/∂v`).

use frs_linalg::{leaky_relu, leaky_relu_grad, vector, Matrix};
use rand::Rng;
use serde::{Deserialize, Error, Serialize, Value};

use crate::gradients::MlpGradients;
use crate::lanes::{fold_lanes, Lane, LANES};

/// Negative-side slope of the hidden activation. See
/// [`frs_linalg::leaky_relu`] for why the hidden units are leaky.
pub const LEAK: f32 = 0.01;

/// Learnable interaction function: L dense + (leaky-)ReLU layers and a
/// projection `h`.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Mlp {
    /// `weights[l]` maps layer-`l` input to output: shape `(out, in)`.
    weights: Vec<Matrix>,
    biases: Vec<Vec<f32>>,
    /// Final projection `h` (length = last hidden size).
    projection: Vec<f32>,
}

/// Intermediate values from one forward pass, needed by backprop.
#[derive(Debug, Clone)]
pub struct MlpCache {
    /// The input `z₀ = u ⊕ v ⊕ (u ⊙ v)`.
    input: Vec<f32>,
    /// Pre-activation `W_l a_{l-1} + b_l` per layer.
    pre_activations: Vec<Vec<f32>>,
    /// Post-ReLU activations per layer.
    activations: Vec<Vec<f32>>,
}

impl Mlp {
    /// Xavier-initialized MLP for the given `(in, out)` layer shapes.
    pub fn new<R: Rng + ?Sized>(shapes: &[(usize, usize)], rng: &mut R) -> Self {
        assert!(!shapes.is_empty(), "MLP needs at least one layer");
        for pair in shapes.windows(2) {
            assert_eq!(pair[0].1, pair[1].0, "layer shapes must chain");
        }
        let weights: Vec<Matrix> = shapes
            .iter()
            .map(|&(i, o)| Matrix::xavier_uniform(o, i, rng))
            .collect();
        // Small positive bias keeps ReLU units alive at init — with the tiny
        // embedding inputs of a fresh FRS, zero-init biases can leave whole
        // layers dead and stall training entirely.
        let biases: Vec<Vec<f32>> = shapes.iter().map(|&(_, o)| vec![0.01; o]).collect();
        let last = shapes.last().unwrap().1;
        let limit = (6.0 / (last + 1) as f32).sqrt();
        let projection = (0..last).map(|_| rng.gen_range(-limit..=limit)).collect();
        Self {
            weights,
            biases,
            projection,
        }
    }

    /// Input dimension (`3d` for the NeuMF input).
    pub fn input_dim(&self) -> usize {
        self.weights[0].cols()
    }

    /// `(in, out)` shape of every layer.
    pub fn shapes(&self) -> Vec<(usize, usize)> {
        self.weights.iter().map(|w| (w.cols(), w.rows())).collect()
    }

    /// Length of the projection vector `h`.
    pub fn projection_len(&self) -> usize {
        self.projection.len()
    }

    /// Zero-gradient container matching this MLP's shapes.
    pub fn zero_gradients(&self) -> MlpGradients {
        MlpGradients::zeros(&self.shapes(), self.projection_len())
    }

    /// Forward pass returning the raw logit and the cache for backprop.
    pub fn forward(&self, input: &[f32]) -> (f32, MlpCache) {
        debug_assert_eq!(input.len(), self.input_dim());
        let n_layers = self.weights.len();
        let mut pre_activations = Vec::with_capacity(n_layers);
        let mut activations = Vec::with_capacity(n_layers);
        let mut current = input.to_vec();
        for (w, b) in self.weights.iter().zip(&self.biases) {
            let mut pre = w.matvec(&current);
            vector::add_assign(&mut pre, b);
            let act: Vec<f32> = pre.iter().map(|&x| leaky_relu(x, LEAK)).collect();
            pre_activations.push(pre);
            current = act.clone();
            activations.push(act);
        }
        let logit = vector::dot(&self.projection, &current);
        (
            logit,
            MlpCache {
                input: input.to_vec(),
                pre_activations,
                activations,
            },
        )
    }

    /// Forward without building a cache — used on the evaluation path where
    /// millions of scores are computed per round.
    pub fn forward_logit_only(&self, input: &[f32]) -> f32 {
        debug_assert_eq!(input.len(), self.input_dim());
        let mut current = input.to_vec();
        for (w, b) in self.weights.iter().zip(&self.biases) {
            let mut pre = w.matvec(&current);
            vector::add_assign(&mut pre, b);
            for x in pre.iter_mut() {
                *x = leaky_relu(*x, LEAK);
            }
            current = pre;
        }
        vector::dot(&self.projection, &current)
    }

    /// Backward pass for one example.
    ///
    /// `logit_delta = ∂L/∂logit`. Parameter gradients are *accumulated* into
    /// `grads` (callers sum over their local dataset); the return value is
    /// `∂L/∂z₀`, the gradient w.r.t. the concatenated input.
    pub fn backward(
        &self,
        cache: &MlpCache,
        logit_delta: f32,
        grads: &mut MlpGradients,
    ) -> Vec<f32> {
        let n_layers = self.weights.len();
        // ∂L/∂h = delta · a_L
        vector::axpy(
            logit_delta,
            &cache.activations[n_layers - 1],
            &mut grads.projection,
        );
        // delta on the last activation.
        let mut delta: Vec<f32> = self.projection.iter().map(|&h| logit_delta * h).collect();
        for l in (0..n_layers).rev() {
            // Through the ReLU.
            for (d, &pre) in delta.iter_mut().zip(&cache.pre_activations[l]) {
                *d *= leaky_relu_grad(pre, LEAK);
            }
            // Parameter gradients: ∂L/∂W_l += delta ⊗ input_l; ∂L/∂b_l += delta.
            let layer_input: &[f32] = if l == 0 {
                &cache.input
            } else {
                &cache.activations[l - 1]
            };
            grads.weights[l].add_outer(1.0, &delta, layer_input);
            vector::add_assign(&mut grads.biases[l], &delta);
            // Push delta to the previous layer.
            delta = self.weights[l].matvec_transposed(&delta);
        }
        delta
    }

    /// Backward pass that computes only `∂L/∂z₀`, skipping parameter-gradient
    /// accumulation. Attackers use this: PIECK uploads item gradients only,
    /// treating the interaction parameters as constants.
    pub fn backward_input_only(&self, cache: &MlpCache, logit_delta: f32) -> Vec<f32> {
        let n_layers = self.weights.len();
        let mut delta: Vec<f32> = self.projection.iter().map(|&h| logit_delta * h).collect();
        for l in (0..n_layers).rev() {
            for (d, &pre) in delta.iter_mut().zip(&cache.pre_activations[l]) {
                *d *= leaky_relu_grad(pre, LEAK);
            }
            delta = self.weights[l].matvec_transposed(&delta);
        }
        delta
    }

    /// Applies `params ← params − lr · grads` (the server-side update).
    pub fn apply_gradients(&mut self, grads: &MlpGradients, lr: f32) {
        for (w, gw) in self.weights.iter_mut().zip(&grads.weights) {
            w.axpy_matrix(-lr, gw);
        }
        for (b, gb) in self.biases.iter_mut().zip(&grads.biases) {
            vector::axpy(-lr, gb, b);
        }
        vector::axpy(-lr, &grads.projection, &mut self.projection);
    }

    /// Total number of learnable scalars (reported in cost analyses).
    pub fn n_parameters(&self) -> usize {
        self.weights
            .iter()
            .map(|w| w.rows() * w.cols())
            .sum::<usize>()
            + self.biases.iter().map(Vec::len).sum::<usize>()
            + self.projection.len()
    }

    /// Prepares a [`BatchScorer`] for a batch of inputs sharing a common
    /// `prefix` (the user embedding `u` of the `u ⊕ v ⊕ u⊙v` input, for
    /// NCF score-all-items and for a client's local step): each first-layer
    /// neuron's dot product over the prefix coordinates is folded once here
    /// and continued per item, and all activation scratch is allocated once
    /// and reused across the batch.
    pub(crate) fn batch_scorer(&self, prefix: &[f32]) -> BatchScorer<'_> {
        assert!(
            prefix.len() <= self.input_dim(),
            "prefix longer than the MLP input"
        );
        let w0 = &self.weights[0];
        let prefix_acc: Vec<f32> = (0..w0.rows())
            .map(|r| vector::dot(&w0.row(r)[..prefix.len()], prefix))
            .collect();
        let hidden = self.hidden_units();
        BatchScorer {
            mlp: self,
            prefix_len: prefix.len(),
            prefix_acc,
            pre: vec![[0.0; LANES]; hidden],
            act: vec![[0.0; LANES]; hidden],
        }
    }

    /// Hidden units over all layers: the length of one example's
    /// pre-activation record in the local-step kernel.
    pub(crate) fn hidden_units(&self) -> usize {
        self.biases.iter().map(Vec::len).sum::<usize>()
    }

    /// [`Self::backward`] for one example whose forward pass the
    /// local-step kernel ran: `input` is its `z₀` and `pre` its hidden
    /// pre-activations, layer after layer. Parameter gradients accumulate
    /// into `grads` exactly as `backward` adds them; the returned `∂L/∂z₀`
    /// lives in `scratch`, and nothing is allocated once `scratch` has
    /// grown.
    pub(crate) fn backward_recorded<'s>(
        &self,
        input: &[f32],
        pre: &[f32],
        logit_delta: f32,
        grads: &mut MlpGradients,
        scratch: &'s mut BackwardScratch,
    ) -> &'s [f32] {
        debug_assert_eq!(pre.len(), self.hidden_units());
        let BackwardScratch { act, delta, next } = scratch;
        act.clear();
        act.extend(pre.iter().map(|&x| leaky_relu(x, LEAK)));
        let mut end = pre.len();
        let last = end - self.projection.len();
        vector::axpy(logit_delta, &act[last..], &mut grads.projection);
        delta.clear();
        delta.extend(self.projection.iter().map(|&h| logit_delta * h));
        for l in (0..self.weights.len()).rev() {
            let start = end - self.biases[l].len();
            for (d, &p) in delta.iter_mut().zip(&pre[start..end]) {
                *d *= leaky_relu_grad(p, LEAK);
            }
            let layer_input: &[f32] = if l == 0 {
                input
            } else {
                &act[start - self.biases[l - 1].len()..start]
            };
            grads.weights[l].add_outer(1.0, delta, layer_input);
            vector::add_assign(&mut grads.biases[l], delta);
            self.weights[l].matvec_transposed_into(delta, next);
            std::mem::swap(delta, next);
            end = start;
        }
        delta
    }
}

/// Per-client buffers for [`Mlp::backward_recorded`].
#[derive(Debug, Default)]
pub(crate) struct BackwardScratch {
    act: Vec<f32>,
    delta: Vec<f32>,
    next: Vec<f32>,
}

/// Batched [`Mlp::forward_logit_only`] over inputs `prefix ⊕ suffix` with a
/// fixed prefix, `LANES` suffixes at a time — see [`Mlp::batch_scorer`].
///
/// Each lane of [`logits`](Self::logits) is bitwise-identical to
/// `forward_logit_only(prefix ⊕ suffix)`: a first-layer dot product is one
/// left-to-right fold over the input, so resuming it from the precomputed
/// prefix partial performs the exact same operation sequence; the hidden
/// layers and the projection fold from `-0.0` in the same order, per lane.
/// The `kernel-parity` CI job pins this with the `batched_scoring` proptest
/// suite.
pub(crate) struct BatchScorer<'a> {
    mlp: &'a Mlp,
    prefix_len: usize,
    prefix_acc: Vec<f32>,
    /// The last block's hidden pre-activations, layer after layer.
    pre: Vec<Lane>,
    /// Their leaky ReLUs, in the same layout.
    act: Vec<Lane>,
}

impl BatchScorer<'_> {
    /// The logits of the `LANES` inputs `prefix ⊕ suffix_l`, where
    /// `suffix[i][l]` is coordinate `i` of lane `l`'s suffix. Each hidden
    /// layer's pre-activations stay readable through
    /// [`Self::pre_activations`] until the next call. Allocation-free.
    pub(crate) fn logits(&mut self, suffix: &[Lane]) -> Lane {
        let mlp = self.mlp;
        debug_assert_eq!(self.prefix_len + suffix.len(), mlp.input_dim());
        let w0 = &mlp.weights[0];
        let first = self.pre.iter_mut().zip(&mut self.act);
        for (r, ((pre, act), (&acc0, &bias))) in first
            .zip(self.prefix_acc.iter().zip(&mlp.biases[0]))
            .enumerate()
        {
            let mut acc = [acc0; LANES];
            fold_lanes(&mut acc, &w0.row(r)[self.prefix_len..], suffix);
            (*pre, *act) = activate(acc, bias);
        }
        // Layer `l`'s input is the activations at `start..end`; its outputs
        // follow them.
        let (mut start, mut end) = (0, mlp.biases[0].len());
        for (w, biases) in mlp.weights.iter().zip(&mlp.biases).skip(1) {
            let (done, outputs) = self.act.split_at_mut(end);
            let input = &done[start..];
            let units = self.pre[end..].iter_mut().zip(outputs);
            for (r, ((pre, act), &bias)) in units.zip(biases).enumerate() {
                let mut acc = [-0.0; LANES];
                fold_lanes(&mut acc, w.row(r), input);
                (*pre, *act) = activate(acc, bias);
            }
            (start, end) = (end, end + biases.len());
        }
        let mut logits = [-0.0; LANES];
        fold_lanes(&mut logits, &mlp.projection, &self.act[start..end]);
        logits
    }

    /// The last block's hidden pre-activations, layer after layer: unit `r`
    /// of the whole stack is entry `r`, one value per lane.
    pub(crate) fn pre_activations(&self) -> &[Lane] {
        &self.pre
    }
}

/// A neuron's bias and leaky ReLU, per lane: the `add_assign` and
/// `leaky_relu` steps of [`Mlp::forward_logit_only`]. Returns the
/// pre-activations and the activations.
#[inline]
fn activate(acc: Lane, bias: f32) -> (Lane, Lane) {
    let pre = acc.map(|a| a + bias);
    (pre, pre.map(|p| leaky_relu(p, LEAK)))
}

/// Reads the derived field layout back and checks the shapes the forward
/// and backward passes index: at least one layer, layers that chain, one
/// bias per layer with one entry per output, and a projection as long as
/// the last layer's output. A mismatch is an error, never a later panic.
impl Deserialize for Mlp {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let obj = v
            .as_object()
            .ok_or_else(|| Error::new(format!("expected object for Mlp, got {}", v.kind())))?;
        let field = |name: &str| {
            obj.get(name)
                .ok_or_else(|| Error::new(format!("missing field `{name}` for Mlp")))
        };
        let mlp = Self {
            weights: Deserialize::from_value(field("weights")?)?,
            biases: Deserialize::from_value(field("biases")?)?,
            projection: Deserialize::from_value(field("projection")?)?,
        };
        mlp.check_shapes()
            .map_err(|msg| Error::new(format!("Mlp: {msg}")))?;
        Ok(mlp)
    }
}

impl Mlp {
    fn check_shapes(&self) -> Result<(), String> {
        let Some(last) = self.weights.last() else {
            return Err("no layers".into());
        };
        for (l, pair) in self.weights.windows(2).enumerate() {
            if pair[0].rows() != pair[1].cols() {
                return Err(format!(
                    "layer {l} has {} outputs but layer {} takes {} inputs",
                    pair[0].rows(),
                    l + 1,
                    pair[1].cols()
                ));
            }
        }
        if self.biases.len() != self.weights.len() {
            return Err(format!(
                "{} biases for {} layers",
                self.biases.len(),
                self.weights.len()
            ));
        }
        for (l, (w, b)) in self.weights.iter().zip(&self.biases).enumerate() {
            if b.len() != w.rows() {
                return Err(format!(
                    "layer {l} has {} outputs but {} biases",
                    w.rows(),
                    b.len()
                ));
            }
        }
        if self.projection.len() != last.rows() {
            return Err(format!(
                "projection of {} for a last layer of {} outputs",
                self.projection.len(),
                last.rows()
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn mlp() -> Mlp {
        let mut rng = StdRng::seed_from_u64(42);
        Mlp::new(&[(8, 4), (4, 3)], &mut rng)
    }

    #[test]
    fn forward_shapes_and_determinism() {
        let m = mlp();
        let input: Vec<f32> = (0..8).map(|i| i as f32 * 0.1 - 0.4).collect();
        let (a, _) = m.forward(&input);
        let (b, _) = m.forward(&input);
        assert_eq!(a, b);
        assert_eq!(m.forward_logit_only(&input), a);
    }

    #[test]
    fn cache_records_all_layers() {
        let m = mlp();
        let input = vec![0.1f32; 8];
        let (_, cache) = m.forward(&input);
        assert_eq!(cache.pre_activations.len(), 2);
        assert_eq!(cache.activations[0].len(), 4);
        assert_eq!(cache.activations[1].len(), 3);
    }

    /// The heart of the DL-FRS reproduction: analytic gradients must match
    /// finite differences for every parameter group and for the input.
    #[test]
    fn backward_matches_finite_difference() {
        let m = mlp();
        let input: Vec<f32> = (0..8).map(|i| (i as f32 * 0.37).sin()).collect();
        let (_, cache) = m.forward(&input);
        let mut grads = m.zero_gradients();
        let d_input = m.backward(&cache, 1.0, &mut grads);
        let eps = 1e-2;

        // Input gradient.
        for i in 0..input.len() {
            let mut ip = input.clone();
            ip[i] += eps;
            let mut im = input.clone();
            im[i] -= eps;
            let fd = (m.forward_logit_only(&ip) - m.forward_logit_only(&im)) / (2.0 * eps);
            assert!(
                (d_input[i] - fd).abs() < 1e-2,
                "input[{i}]: analytic {} vs fd {fd}",
                d_input[i]
            );
        }

        // Weight gradients (probe a few entries per layer).
        for l in 0..2 {
            for (r, c) in [(0usize, 0usize), (1, 2), (2, 1)] {
                let probe = |m2: &Mlp| m2.forward_logit_only(&input);
                let mut mp = m.clone();
                mp.weights[l].row_mut(r)[c] += eps;
                let mut mm = m.clone();
                mm.weights[l].row_mut(r)[c] -= eps;
                let fd = (probe(&mp) - probe(&mm)) / (2.0 * eps);
                let analytic = grads.weights[l].row(r)[c];
                assert!(
                    (analytic - fd).abs() < 1e-2,
                    "W{l}[{r}][{c}]: analytic {analytic} vs fd {fd}"
                );
            }
        }

        // Bias gradients.
        for l in 0..2 {
            let mut mp = m.clone();
            mp.biases[l][0] += eps;
            let mut mm = m.clone();
            mm.biases[l][0] -= eps;
            let fd = (mp.forward_logit_only(&input) - mm.forward_logit_only(&input)) / (2.0 * eps);
            assert!((grads.biases[l][0] - fd).abs() < 1e-2, "b{l}[0]");
        }

        // Projection gradient equals the last activation.
        let mut mp = m.clone();
        mp.projection[1] += eps;
        let mut mm = m.clone();
        mm.projection[1] -= eps;
        let fd = (mp.forward_logit_only(&input) - mm.forward_logit_only(&input)) / (2.0 * eps);
        assert!((grads.projection[1] - fd).abs() < 1e-2);
    }

    #[test]
    fn backward_scales_linearly_with_delta() {
        let m = mlp();
        let input = vec![0.2f32; 8];
        let (_, cache) = m.forward(&input);
        let mut g1 = m.zero_gradients();
        let d1 = m.backward(&cache, 1.0, &mut g1);
        let mut g2 = m.zero_gradients();
        let d2 = m.backward(&cache, 2.0, &mut g2);
        for (a, b) in d1.iter().zip(&d2) {
            assert!((2.0 * a - b).abs() < 1e-5);
        }
        assert!((2.0 * g1.projection[0] - g2.projection[0]).abs() < 1e-5);
    }

    #[test]
    fn apply_gradients_descends_loss() {
        // One SGD step on the squared logit should shrink |logit|.
        let mut m = mlp();
        let input = vec![0.5f32; 8];
        for _ in 0..50 {
            let (logit, cache) = m.forward(&input);
            let mut grads = m.zero_gradients();
            m.backward(&cache, logit, &mut grads); // dL/dlogit for L = logit²/2
            m.apply_gradients(&grads, 0.05);
        }
        let (final_logit, _) = m.forward(&input);
        assert!(final_logit.abs() < 0.05, "logit {final_logit}");
    }

    #[test]
    fn batch_scorer_bitwise_matches_forward_logit_only() {
        // Input dim 8; one input per lane, from mild values to saturating
        // ones.
        let m = mlp();
        let inputs: Vec<Vec<f32>> = (0..LANES)
            .map(|t| {
                let scale = [1.0f32, 1e3, 1e30][t % 3];
                (0..8)
                    .map(|i| ((t * 8 + i) as f32 * 0.61).sin() * scale)
                    .collect()
            })
            .collect();
        for split in 0..=8usize {
            let mut scorer = m.batch_scorer(&inputs[0][..split]);
            let suffix: Vec<Lane> = (split..8)
                .map(|i| std::array::from_fn(|l| inputs[l][i]))
                .collect();
            let got = scorer.logits(&suffix);
            for (lane, input) in inputs.iter().enumerate() {
                let mut whole = inputs[0][..split].to_vec();
                whole.extend_from_slice(&input[split..]);
                let want = m.forward_logit_only(&whole);
                assert_eq!(
                    got[lane].to_bits(),
                    want.to_bits(),
                    "split={split} lane={lane}"
                );
            }
        }
    }

    #[test]
    fn n_parameters_counts_everything() {
        let m = mlp();
        assert_eq!(m.n_parameters(), 8 * 4 + 4 * 3 + 4 + 3 + 3);
    }

    #[test]
    #[should_panic(expected = "chain")]
    fn mismatched_shapes_panic() {
        let mut rng = StdRng::seed_from_u64(0);
        Mlp::new(&[(8, 4), (5, 3)], &mut rng);
    }
}
