//! Baseline targeted model-poisoning attacks (paper Section II / Table I).
//!
//! | Attack | Prior knowledge | MF-FRS | DL-FRS |
//! |---|---|---|---|
//! | [`FedRecAttack`] \[32\] | historical interactions | ✓ | ✓ |
//! | [`PipAttack`] \[42\] | items' popularity levels | ✓ | ✓ |
//! | [`ARaClient`] (A-RA) \[31\] | none | ✗ (inert) | ✓ |
//! | [`AHumClient`] (A-HUM) \[31\] | none | partially | ✓ |
//!
//! Following the paper's fair-comparison protocol (Section VII-A3), the prior
//! knowledge of FedRecAttack and PipAttack is *masked by default* — each
//! constructor takes an `Option` that the experiment harness leaves `None` —
//! which is exactly what cripples them in Table III. The unmasked variants
//! exist for completeness and for the knowledge-ablation benches.
//!
//! All baselines implement [`frs_federation::Client`] just like
//! [`pieck_core::PieckClient`], so every experiment swaps attacks by swapping
//! client constructors.

pub mod approx;
pub mod catalog;
pub mod fedrecattack;
pub mod interaction;
pub mod pipattack;
pub mod registry;
pub mod scaled;
pub mod variants;

pub use approx::{hard_user_mining, random_user_embeddings};
pub use catalog::AttackKind;
pub use fedrecattack::FedRecAttack;
pub use interaction::{AHumClient, ARaClient};
pub use pipattack::PipAttack;
pub use registry::{AttackBuildCtx, AttackSel};
pub use scaled::ScaledClient;
