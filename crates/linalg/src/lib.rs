//! Dense linear-algebra and statistics primitives for the PIECK reproduction.
//!
//! Every numeric building block the federated-recommendation stack needs lives
//! here: embedding vectors ([`vector`]), row-major embedding tables
//! ([`matrix`]), numerically stable activations ([`activation`]), softmax-based
//! KL divergence with analytic gradients ([`mod@softmax`]), robust statistics used
//! by the server-side defenses ([`stats`]), ranking / top-k selection used
//! by recommendation lists and the popular-item miner ([`rank`]), and the
//! item-major kernels the robust aggregators consume: the item index over a
//! round's sparse uploads ([`items`]) and the shared pairwise-distance
//! matrix ([`distance`]).
//!
//! The crate is deliberately dependency-light (only `rand` for initializers)
//! and every operation is deterministic given its inputs, which keeps the whole
//! simulation reproducible from a single seed.

pub mod activation;
pub mod distance;
pub mod items;
pub mod matrix;
pub mod rank;
pub mod rng;
pub mod softmax;
pub mod stats;
pub mod vector;

pub use activation::{
    leaky_relu, leaky_relu_grad, log_sigmoid, relu, relu_grad, relu_inplace, sigmoid,
};
pub use distance::{dot_blocked, squared_distance_blocked, DistanceMatrix, UploadView};
pub use items::{Holder, ItemIndex};
pub use matrix::Matrix;
pub use rank::{
    argsort_desc, sum_k_smallest, top_k_desc, top_k_desc_filtered, top_k_desc_filtered_into,
};
pub use rng::SeedStream;
pub use softmax::{
    kl_divergence, kl_grad_at_softmax_q, kl_grad_wrt_p, kl_grad_wrt_q, log_softmax, softmax,
};
pub use stats::{total_order_key, CoordinateReducer, CoordinateStat};
pub use vector::{
    add_assign, axpy, clip_l2_norm, cosine, cosine_grad_wrt_b, dot, l2_distance, l2_norm,
    mean_vector, scale, squared_l2_distance, sub,
};
