//! Recommender base models with hand-derived gradients.
//!
//! The paper evaluates two model families (Section III-A), and one type
//! holds both: [`GlobalModel`] is the item-embedding table plus an optional
//! interaction MLP ([`global`]).
//!
//! - **MF-FRS** (no MLP): `Ψ_MF(u, v) = u ⊙ v`, a *fixed* dot-product
//!   interaction function. The global model is just the item-embedding table.
//! - **DL-FRS** (an MLP): Neural Collaborative Filtering, where
//!   `Ψ_DL(u, v) = sigmoid(hᵀ · φ_L(…φ_1(u ⊕ v ⊕ u⊙v)))` with learnable MLP
//!   weights `W_l, b_l` and projection `h` shared through the federation. The
//!   MLP forward/backward pass is hand-derived in [`mlp`] and verified
//!   against finite differences in the test suite.
//!
//! The federation layer, the attacks and the defenses all program against
//! [`GlobalModel`], and PIECK reads and poisons its item embeddings only —
//! this is what makes PIECK "model-agnostic" expressible in code.
//!
//! Losses live in [`loss`]: pointwise BCE (Eq. 2, the default) and pairwise
//! BPR (supplementary Table XI). A benign client trains through one kernel,
//! [`local_step`]: it scores its examples eight at a time and backpropagates
//! the loss's deltas in example order.
// Item and user indices flow through u32 wire ids and usize slabs; a
// silently truncating cast corrupts an embedding row, so truncation must
// be explicit (`try_from`) or locally allowed with a range proof.
#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]

pub mod config;
pub mod global;
pub mod gradients;
pub mod lanes;
pub mod local_step;
pub mod loss;
pub mod mlp;
pub mod store;

pub use config::{ModelConfig, ModelKind};
pub use global::GlobalModel;
pub use gradients::{GlobalGradients, MlpGradients};
pub use lanes::{ItemLanes, UserScorer, LANES};
pub use local_step::LocalStep;
pub use loss::{bce_logit_delta, bce_loss, bpr_logit_deltas, bpr_loss, LossKind};
pub use mlp::Mlp;
pub use store::EmbeddingStore;
