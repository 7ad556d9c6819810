//! Server-side robust-aggregation defenses (paper Section VII-A4).
//!
//! Each defense replaces the server's `Agg(·)` for every parameter group —
//! per-item gradient sets and (via the flatten default of
//! [`frs_federation::Aggregator`]) the DL-FRS MLP uploads:
//!
//! - [`NormBound`] \[33\]: clip every upload's L2 norm, then sum.
//! - [`Median`] \[40\]: coordinate-wise median.
//! - [`TrimmedMean`] \[40\]: drop the `β`-fraction extremes per coordinate,
//!   average the rest.
//! - [`Krum`] / [`MultiKrum`] \[5\]: select the upload(s) closest to their
//!   neighbours in squared-Euclidean space.
//! - [`Bulyan`] \[25\]: MultiKrum selection followed by a trimmed mean.
//!
//! Section V-A explains why all of them fail against PIECK: for a cold target
//! item the *expected majority* of uploaded gradients is poisonous
//! (`Ẽ(v_j) ≫ p̃`, Eq. 11), so majority-seeking statistics faithfully keep the
//! poison. The paper's actual defense is client-side
//! (`pieck_core::defense`); it is the ordinary `"ours"` row of the
//! [`catalog`], parameterized through its selection's params like every
//! other row.

pub mod catalog;
pub mod krum;
pub mod median;
pub mod norm_bound;
pub mod registry;

pub use catalog::DefenseKind;
pub use krum::{Bulyan, Krum, MultiKrum};
pub use median::{Median, TrimmedMean};
pub use norm_bound::NormBound;
pub use registry::{DefenseBuildCtx, DefenseInstance, DefenseSel, RegularizerFactory};
