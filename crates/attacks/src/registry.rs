//! The attack family of the shared registry (`frs_federation::registry`).
//!
//! Attacks are [`AttackFactory`] trait objects registered by name. A factory
//! turns a scenario-level [`AttackBuildCtx`] plus the selection's
//! [`AttackParams`] into the scenario's malicious population. [`Attacks`] is
//! the family's [`Catalog`]: its registry starts out holding the
//! [`AttackKind`] rows and the Table VI / IX variants, and out-of-crate
//! attacks plug in through [`register_attack`] without touching any core
//! code.
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
//! use frs_attacks::{register_attack, AttackBuildCtx, AttackSel, FnAttackFactory};
//!
//! register_attack(FnAttackFactory::new("my-attack", "MyAttack", |ctx: &AttackBuildCtx| {
//!     Vec::new() // build `ctx.count` malicious clients here
//! }));
//! assert!(AttackSel::named("my-attack").resolve().is_some());
//! ```
//!
//! [`AttackKind`]: crate::AttackKind

use std::sync::{Arc, OnceLock};

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
        fn shared(factory: impl AttackFactory + 'static) -> Arc<dyn AttackFactory> {
            Arc::new(factory)
        }
        // The paper's Table VI / Table IX variants are ordinary catalog
        // rows next to the `AttackKind` ones.
        REGISTRY.get_or_init(|| {
            let rows = AttackKind::all().map(shared).into_iter();
            let variants = IpeAblation::all().map(shared).into_iter();
            Registry::new(
                rows.chain(variants)
                    .chain(MultiTargetPieck::all().map(shared)),
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

/// Registers (or replaces) an attack under its name. Returns the previously
/// registered factory of that name, if any.
pub fn register_attack(factory: impl AttackFactory + 'static) -> Option<Arc<dyn AttackFactory>> {
    Attacks::registry().register(Arc::new(factory))
}

/// Looks an attack up by registry name.
pub fn attack_factory(name: &str) -> Option<Arc<dyn AttackFactory>> {
    Attacks::registry().get(name)
}

/// All registered attack names, sorted.
pub fn registered_attacks() -> Vec<String> {
    Attacks::registry().names()
}

type AttackBuildFn = Box<
    dyn Fn(&AttackBuildCtx<'_>, &AttackParams) -> Result<Vec<Box<dyn Client>>, String>
        + Send
        + Sync,
>;

/// Closure-backed [`AttackFactory`] for ad-hoc attacks (ablations, tests,
/// downstream experiments):
///
/// ```ignore
/// register_attack(
///     FnAttackFactory::parameterized("flood", "Flood", |ctx, params| {
///         let strength = params.get_f32("strength")?.unwrap_or(1.0);
///         Ok((0..ctx.count).map(|i| make_client(ctx.first_id + i, strength)).collect())
///     })
///     .with_param_schema([ParamSpec::new("strength", "upload magnitude", "1.0")])
///     .with_fingerprint("flood-v1"),
/// );
/// ```
pub struct FnAttackFactory {
    name: String,
    label: String,
    fingerprint: Option<String>,
    schema: Vec<ParamSpec>,
    /// Whether the build closure actually receives the params (the
    /// [`FnAttackFactory::parameterized`] constructor). Guards
    /// [`FnAttackFactory::with_param_schema`] against declaring keys a
    /// params-blind closure would validate, cache-key, and then silently
    /// ignore.
    params_aware: bool,
    build: AttackBuildFn,
}

impl FnAttackFactory {
    /// A parameter-less attack from an infallible closure. Chain `with_*`
    /// builder methods for schemas and fingerprints, then hand the result
    /// to [`register_attack`].
    pub fn new(
        name: impl Into<String>,
        label: impl Into<String>,
        build: impl Fn(&AttackBuildCtx<'_>) -> Vec<Box<dyn Client>> + Send + Sync + 'static,
    ) -> Self {
        Self {
            params_aware: false,
            ..Self::parameterized(name, label, move |ctx, _params| Ok(build(ctx)))
        }
    }

    /// A params-aware, fallible attack: the closure also sees the
    /// selection's [`AttackParams`] and reports bad values as `Err`.
    /// Declare the accepted keys with
    /// [`FnAttackFactory::with_param_schema`], or every non-empty params
    /// map is rejected before the closure runs.
    pub fn parameterized(
        name: impl Into<String>,
        label: impl Into<String>,
        build: impl Fn(&AttackBuildCtx<'_>, &AttackParams) -> Result<Vec<Box<dyn Client>>, String>
            + Send
            + Sync
            + 'static,
    ) -> Self {
        Self {
            name: name.into(),
            label: label.into(),
            fingerprint: None,
            schema: Vec::new(),
            params_aware: true,
            build: Box::new(build),
        }
    }

    /// Declares a behaviour fingerprint (see [`Factory::fingerprint`]).
    pub fn with_fingerprint(mut self, fingerprint: impl Into<String>) -> Self {
        self.fingerprint = Some(fingerprint.into());
        self
    }

    /// Declares the accepted parameters. Without a schema, any non-empty
    /// [`AttackParams`] fails the build. Only valid on a
    /// [`FnAttackFactory::parameterized`] factory — a params-blind closure
    /// with a declared schema would validate and cache-key params it then
    /// silently ignores (the inert-knob bug class), so that combination
    /// panics at registration time.
    pub fn with_param_schema(mut self, schema: impl IntoIterator<Item = ParamSpec>) -> Self {
        assert!(
            self.params_aware,
            "attack `{}`: with_param_schema needs FnAttackFactory::parameterized \
             (a params-blind closure would silently ignore the declared keys)",
            self.name
        );
        self.schema = schema.into_iter().collect();
        self
    }
}

impl Factory for FnAttackFactory {
    fn name(&self) -> &str {
        &self.name
    }

    fn label(&self) -> &str {
        &self.label
    }

    fn param_schema(&self) -> Vec<ParamSpec> {
        self.schema.clone()
    }

    fn fingerprint(&self) -> Option<String> {
        self.fingerprint.clone()
    }
}

impl AttackFactory for FnAttackFactory {
    fn build_clients(
        &self,
        ctx: &AttackBuildCtx<'_>,
        params: &AttackParams,
    ) -> Result<Vec<Box<dyn Client>>, String> {
        (self.build)(ctx, params)
    }
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
        assert!(registered_attacks().len() >= AttackKind::all().len());
    }

    #[test]
    fn fingerprints_surface_through_selections() {
        assert!(AttackSel::named("never-registered").fingerprint().is_none());
        register_attack(FnAttackFactory::new("fp-none", "FpNone", |_| Vec::new()));
        assert!(AttackSel::named("fp-none").fingerprint().is_none());
        register_attack(
            FnAttackFactory::new("fp-some", "FpSome", |_| Vec::new())
                .with_fingerprint("lambda=0.5"),
        );
        assert_eq!(
            AttackSel::named("fp-some").fingerprint().as_deref(),
            Some("lambda=0.5")
        );
        // Built-ins are code, not closures: no fingerprint.
        assert!(AttackSel::from(AttackKind::PieckUea)
            .fingerprint()
            .is_none());
    }

    #[test]
    fn custom_factory_round_trips() {
        register_attack(FnAttackFactory::new("reg-test", "RegTest", |ctx| {
            assert_eq!(ctx.count, 0);
            Vec::new()
        }));
        let sel = AttackSel::named("reg-test");
        assert_eq!(sel.label(), "RegTest");
        assert!(sel
            .build_clients(&AttackBuildCtx::minimal(0, 0, &[]))
            .is_empty());
    }

    #[test]
    fn fn_factory_rejects_params_without_schema() {
        register_attack(FnAttackFactory::new("no-params", "NoParams", |_| {
            Vec::new()
        }));
        let sel = AttackSel::named("no-params").with_param("tau", 0.5f32);
        let err = sel
            .try_build_clients(&AttackBuildCtx::minimal(0, 0, &[]))
            .err()
            .unwrap();
        assert!(err.contains("takes no parameters"), "{err}");
    }

    #[test]
    fn parameterized_fn_factory_sees_params_and_validates_keys() {
        register_attack(
            FnAttackFactory::parameterized("param-attack", "ParamAttack", |ctx, params| {
                let strength = params.get_f32("strength")?.unwrap_or(1.0);
                assert_eq!(strength, 0.25);
                assert_eq!(ctx.count, 0);
                Ok(Vec::new())
            })
            .with_param_schema([ParamSpec::new("strength", "upload magnitude", "1.0")])
            .with_fingerprint("param-attack-v1"),
        );
        let sel = AttackSel::named("param-attack").with_param("strength", 0.25f32);
        assert!(sel
            .try_build_clients(&AttackBuildCtx::minimal(0, 0, &[]))
            .is_ok());
        assert_eq!(
            sel.fingerprint().as_deref(),
            Some("param-attack-v1"),
            "builder fingerprint surfaces"
        );

        // Unknown keys fail against the declared schema.
        let bad = AttackSel::named("param-attack").with_param("strenght", 0.25f32);
        let err = bad
            .try_build_clients(&AttackBuildCtx::minimal(0, 0, &[]))
            .err()
            .unwrap();
        assert!(err.contains("unknown parameter"), "{err}");
    }

    #[test]
    #[should_panic(expected = "with_param_schema needs FnAttackFactory::parameterized")]
    fn schema_on_a_params_blind_closure_panics_at_registration() {
        // A schema on a closure that never sees the params would validate
        // and cache-key keys it silently ignores — refuse it up front.
        let _ = FnAttackFactory::new("blind", "Blind", |_| Vec::new())
            .with_param_schema([ParamSpec::new("x", "ignored", "1")]);
    }

    #[test]
    fn selection_path_validates_schema_even_for_lazy_factories() {
        /// An out-of-crate factory that "forgets" its check_known preamble.
        struct Lazy;
        impl Factory for Lazy {
            fn name(&self) -> &str {
                "lazy"
            }
            fn param_schema(&self) -> Vec<ParamSpec> {
                vec![ParamSpec::new("k", "the only key", "1")]
            }
        }
        impl AttackFactory for Lazy {
            fn build_clients(
                &self,
                _ctx: &AttackBuildCtx<'_>,
                _params: &AttackParams,
            ) -> Result<Vec<Box<dyn Client>>, String> {
                Ok(Vec::new())
            }
        }
        register_attack(Lazy);
        let probe = AttackBuildCtx::minimal(0, 0, &[]);
        // The selection path rejects typo'd keys structurally…
        let err = AttackSel::named("lazy")
            .with_param("kk", 1u64)
            .try_build_clients(&probe)
            .err()
            .unwrap();
        assert!(err.contains("unknown parameter"), "{err}");
        // …and declared keys still pass through.
        assert!(AttackSel::named("lazy")
            .with_param("k", 1u64)
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
