//! The attack family of the shared registry (`frs_federation::registry`).
//!
//! Attacks are [`AttackFactory`] trait objects looked up by name. A factory
//! turns a scenario-level [`AttackBuildCtx`] plus the selection's
//! [`AttackParams`] into the scenario's malicious population. [`Attacks`] is
//! the family's [`Catalog`]: its registry holds the [`AttackKind`] rows and
//! the Table VI / IX variants (`crate::variants`), and a new attack is a new
//! row there.
//!
//! Scenarios reference attacks through [`AttackSel`], the shared
//! [`Selection`] over this catalog (`"pieck-uea"`,
//! `pieck-uea:scale=2.0,top_n=20` on the CLI); see
//! `frs_federation::registry` for its wire forms. A selection's build checks
//! its params against the factory's [`param_schema`](Factory::param_schema)
//! before the factory runs, and the factory rejects mistyped and
//! out-of-range values, so a typo'd `--attack` spec fails at startup (the
//! CLI probes a `count = 0` build) instead of three cells into a sweep.
//!
//! ```
//! use frs_attacks::{AttackBuildCtx, AttackSel};
//!
//! let sel = AttackSel::parse("pieck-uea:top_n=20").unwrap();
//! assert_eq!(sel.label(), "PIECK-UEA");
//! let targets = [7];
//! assert_eq!(sel.build_clients(&AttackBuildCtx::minimal(100, 3, &targets)).len(), 3);
//! assert!(AttackSel::parse("pieck-uea:top_m=20")
//!     .unwrap()
//!     .try_build_clients(&AttackBuildCtx::minimal(0, 0, &[]))
//!     .is_err());
//! ```
//!
//! [`AttackKind`]: crate::AttackKind

use std::sync::OnceLock;

use frs_federation::registry::{Catalog, Factory, Registry, Selection};
use frs_federation::Client;
use frs_model::ModelKind;

use crate::catalog::AttackKind;
use crate::variants::{IpeAblation, MultiTargetPieck};

pub use frs_federation::params::{ParamSpec, ParamValue};

/// The canonical attack hyper-parameter payload an [`AttackSel`] carries:
/// the shared [`frs_federation::params::Params`] map (sorted keys, one
/// variant per numeric value, no non-finite numbers — see that module for
/// the caching invariants), aliased for readability. The defense registry
/// aliases the same type as `frs_defense::DefenseParams`.
pub type AttackParams = frs_federation::params::Params;

/// A serializable, registry-backed reference to an attack (see the module
/// docs).
pub type AttackSel = Selection<Attacks>;

/// Everything a scenario knows that an attack factory may consume when
/// populating a run with malicious clients. Scenario-level values
/// (`mined_top_n`, `poison_scale`) are *defaults*; selection params
/// override them per factory schema.
#[derive(Debug, Clone)]
pub struct AttackBuildCtx<'a> {
    /// First client id to assign; ids must be dense `first_id..first_id+count`.
    pub first_id: usize,
    /// Number of malicious clients to build.
    pub count: usize,
    /// Target items `T` to promote.
    pub targets: &'a [u32],
    /// Mined popular-set size `N` of the scenario (PIECK variants and
    /// mining-based attacks; the `top_n` param overrides).
    pub mined_top_n: usize,
    /// Scale applied to gradient-style poison uploads (the `scale` param
    /// overrides).
    pub poison_scale: f32,
    /// Scenario root seed.
    pub seed: u64,
    /// Base-model family the federation trains.
    pub model: ModelKind,
    /// Item/user embedding dimension of the global model.
    pub embedding_dim: usize,
    /// Item-catalogue size declared by the dataset spec (0 when unknown,
    /// e.g. not-yet-loaded file-backed dumps).
    pub n_items: usize,
    /// Benign-user count declared by the dataset spec (0 when unknown).
    pub n_users: usize,
}

impl<'a> AttackBuildCtx<'a> {
    /// A context carrying only the population coordinates; everything else
    /// is a neutral default. Used by the CLI's startup try-build probe
    /// (`count = 0`: params are validated, no client is constructed) and by
    /// tests.
    pub fn minimal(first_id: usize, count: usize, targets: &'a [u32]) -> Self {
        Self {
            first_id,
            count,
            targets,
            mined_top_n: 10,
            poison_scale: 1.0,
            seed: 0,
            model: ModelKind::Mf,
            embedding_dim: 0,
            n_items: 0,
            n_users: 0,
        }
    }
}

/// A named attack that can populate a scenario with malicious clients.
pub trait AttackFactory: Factory {
    /// Builds `ctx.count` malicious clients with dense ids starting at
    /// `ctx.first_id`. Every key of `params` is in the declared schema;
    /// implementations check the values **before** constructing any client
    /// (a `count = 0` probe must still reject bad values), falling back to
    /// context-derived defaults for missing keys.
    fn build_clients(
        &self,
        ctx: &AttackBuildCtx<'_>,
        params: &AttackParams,
    ) -> Result<Vec<Box<dyn Client>>, String>;
}

/// The attack family: [`AttackFactory`] entries building client
/// populations from an [`AttackBuildCtx`].
pub enum Attacks {}

impl Catalog for Attacks {
    type Factory = dyn AttackFactory;
    type Ctx<'a> = AttackBuildCtx<'a>;
    type Built = Vec<Box<dyn Client>>;
    const NOUN: &'static str = "attack";

    fn registry() -> &'static Registry<dyn AttackFactory> {
        static REGISTRY: OnceLock<Registry<dyn AttackFactory>> = OnceLock::new();
        fn boxed(factory: impl AttackFactory + 'static) -> Box<dyn AttackFactory> {
            Box::new(factory)
        }
        // The paper's Table VI / Table IX variants are ordinary catalog
        // rows next to the `AttackKind` ones.
        REGISTRY.get_or_init(|| {
            let rows = AttackKind::all().map(boxed).into_iter();
            let variants = IpeAblation::all().map(boxed).into_iter();
            Registry::new(
                rows.chain(variants)
                    .chain(MultiTargetPieck::all().map(boxed)),
            )
        })
    }

    fn build(
        factory: &Self::Factory,
        ctx: &AttackBuildCtx<'_>,
        params: &AttackParams,
    ) -> Result<Vec<Box<dyn Client>>, String> {
        factory.build_clients(ctx, params)
    }
}

/// Looks an attack up by catalog name.
pub fn attack_factory(name: &str) -> Option<&'static dyn AttackFactory> {
    Attacks::registry().get(name)
}

impl From<AttackKind> for AttackSel {
    fn from(kind: AttackKind) -> Self {
        AttackSel::named(kind.name())
    }
}

/// Name-only comparison: a parameterized `pieck-uea:scale=2` still *is* the
/// `PieckUea` attack for labelling/reporting purposes.
impl PartialEq<AttackKind> for AttackSel {
    fn eq(&self, kind: &AttackKind) -> bool {
        self.name() == kind.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtins_are_registered() {
        for kind in AttackKind::all() {
            let f = attack_factory(kind.name()).unwrap_or_else(|| panic!("{kind:?}"));
            assert_eq!(f.name(), kind.name());
            assert_eq!(f.label(), kind.label());
        }
        assert!(Attacks::registry().iter().count() >= AttackKind::all().len());
    }

    #[test]
    fn selection_path_validates_schema_even_for_lazy_factories() {
        // No builtin checks its keys itself: the selection path rejects
        // typo'd keys structurally…
        let probe = AttackBuildCtx::minimal(0, 0, &[]);
        let err = AttackSel::named("pieck-uea")
            .with_param("top_m", 20usize)
            .try_build_clients(&probe)
            .err()
            .unwrap();
        assert!(err.contains("unknown parameter"), "{err}");
        // …and declared keys still pass through.
        assert!(AttackSel::named("pieck-uea")
            .with_param("top_n", 20usize)
            .try_build_clients(&probe)
            .is_ok());
    }

    #[test]
    fn sel_compares_against_kinds_and_serializes_as_string() {
        let sel: AttackSel = AttackKind::PieckUea.into();
        assert_eq!(sel, AttackKind::PieckUea);
        assert_ne!(sel, AttackKind::PieckIpe);
        assert!(AttackSel::none().is_none());
        let v = serde::Serialize::to_value(&sel);
        assert_eq!(v.as_str(), Some("pieck-uea"));
        let back: AttackSel = serde::Deserialize::from_value(&v).unwrap();
        assert_eq!(back, sel);
    }

    #[test]
    fn parameterized_sel_serializes_as_object_and_round_trips() {
        let sel = AttackSel::named("pieck-uea")
            .with_param("scale", 2.0f32)
            .with_param("top_n", 20usize);
        let v = serde::Serialize::to_value(&sel);
        let obj = v.as_object().expect("object form");
        assert_eq!(obj.get("name").and_then(|n| n.as_str()), Some("pieck-uea"));
        let back: AttackSel = serde::Deserialize::from_value(&v).unwrap();
        assert_eq!(back, sel);
        // A params difference is a selection difference…
        assert_ne!(sel, AttackSel::named("pieck-uea").with_param("scale", 3u64));
        // …but name-vs-kind comparison ignores params.
        assert_eq!(sel, AttackKind::PieckUea);
    }

    #[test]
    fn parses_cli_specs() {
        assert_eq!(
            AttackSel::parse("pieck-uea").unwrap(),
            AttackSel::named("pieck-uea")
        );
        let sel = AttackSel::parse("pieck-uea:scale=2.0,top_n=20").unwrap();
        assert_eq!(sel.name(), "pieck-uea");
        assert_eq!(sel.params().get_f32("scale").unwrap(), Some(2.0));
        assert_eq!(sel.params().get_usize("top_n").unwrap(), Some(20));
        // Whole floats normalize: `scale=2.0` keys and prints like `scale=2`.
        assert_eq!(sel.to_string(), "pieck-uea:scale=2,top_n=20");
        assert_eq!(AttackSel::parse(&sel.to_string()).unwrap(), sel);
        assert_eq!(
            sel,
            AttackSel::named("pieck-uea")
                .with_param("scale", 2.0f32)
                .with_param("top_n", 20usize)
        );

        assert!(AttackSel::parse("").is_err());
        assert!(AttackSel::parse("pieck-uea:scale").is_err());
        assert!(AttackSel::parse(":scale=1").is_err());
    }

    #[test]
    fn unknown_attack_is_a_clean_error_with_catalogue() {
        let err = AttackSel::named("does-not-exist")
            .try_build_clients(&AttackBuildCtx::minimal(0, 1, &[]))
            .err()
            .unwrap();
        assert!(err.contains("not registered"), "{err}");
        assert!(err.contains("pieck-uea"), "lists the catalogue: {err}");
    }

    #[test]
    #[should_panic(expected = "not registered")]
    fn unknown_attack_panics_on_the_harness_path() {
        AttackSel::named("does-not-exist").build_clients(&AttackBuildCtx::minimal(0, 1, &[]));
    }
}
