//! Selecting a defense: [`DefenseSel`], the [`DefenseBuildCtx`] its row
//! builds from, and the [`DefenseInstance`] it builds.
//!
//! Defenses are the rows of [`DefenseKind`], the family's [`Catalog`]. A
//! row turns a scenario-level [`DefenseBuildCtx`] plus the selection's
//! params into a [`DefenseInstance`]: the server-side [`Aggregator`] and —
//! for client-side schemes like the paper's regularization defense — a
//! per-client [`LocalRegularizer`] factory the harness invokes once per
//! benign client. A new defense is one more variant.
//!
//! Scenarios reference defenses through [`DefenseSel`], the shared
//! [`Selection`] over this catalog (`"ours"`, `ours:beta=0.9` on the CLI);
//! see `frs_federation::registry` for its wire forms and for the schema
//! check every build runs before the row does.
//!
//! The paper's own defense (`"ours"`) is a row like every other: its β/γ
//! weights, the Re1/Re2 ablation switches, and the mining parameters are
//! ordinary params, with model-tuned defaults supplied by the
//! [`DefenseBuildCtx`]. There is no harness special case. A bad value,
//! such as a non-positive NormBound threshold, is an `Err` from the build,
//! never a panic.
//!
//! ```
//! use frs_defense::{DefenseBuildCtx, DefenseSel};
//!
//! let ctx = DefenseBuildCtx::minimal(0.05, 1.0);
//! let ours = DefenseSel::parse("ours:re1=false").unwrap().build(&ctx);
//! assert!(ours.regularizer_for(0).is_some());
//! let krum = DefenseSel::named("krum").build(&ctx);
//! assert!(krum.regularizer_for(0).is_none());
//! assert!(DefenseSel::parse("none:shards=2").unwrap().try_build(&ctx).is_err());
//! ```
//!
//! [`Catalog`]: frs_federation::Catalog

use frs_federation::registry::Selection;
use frs_federation::{Aggregator, LocalRegularizer};
use frs_model::ModelKind;

use crate::catalog::DefenseKind;

pub use frs_federation::RegularizerFactory;

/// A serializable reference to a defense row (see the module docs).
pub type DefenseSel = Selection<DefenseKind>;

/// Everything a scenario knows that a defense may consume when
/// instantiating — the paper's defense needs most of it (mined `N`, the
/// base-model family its β/γ are tuned per, the embedding dimension, and
/// the root seed); server-side rules typically read only the first two
/// fields.
#[derive(Debug, Clone)]
pub struct DefenseBuildCtx {
    /// Malicious fraction `p̃` the defense is tuned for.
    pub assumed_malicious_ratio: f64,
    /// Clipping threshold for NormBound-style defenses.
    pub norm_bound_threshold: f32,
    /// Mined popular-set size `N` of the scenario (the defense miner
    /// matches the attacker's, Section V-B).
    pub mined_top_n: usize,
    /// Base-model family the federation trains.
    pub model: ModelKind,
    /// Item/user embedding dimension.
    pub embedding_dim: usize,
    /// Model-tuned default weight β of Re1 (the paper tunes β/γ per base
    /// model; DL item updates land with a much smaller server learning
    /// rate, so its regularizers need proportionally more weight).
    pub default_beta: f32,
    /// Model-tuned default weight γ of Re2.
    pub default_gamma: f32,
    /// Scenario root seed, for defenses that randomize.
    pub seed: u64,
}

impl DefenseBuildCtx {
    /// A context carrying only the two classic server-side knobs; the rest
    /// are neutral defaults. Used by the CLI's startup try-build probe and
    /// by tests.
    pub fn minimal(assumed_malicious_ratio: f64, norm_bound_threshold: f32) -> Self {
        Self {
            assumed_malicious_ratio,
            norm_bound_threshold,
            mined_top_n: 10,
            model: ModelKind::Mf,
            embedding_dim: 0,
            default_beta: 0.5,
            default_gamma: 0.5,
            seed: 0,
        }
    }
}

/// A fully instantiated defense: what a [`DefenseKind`] row builds and the
/// harness wires into a simulation.
pub struct DefenseInstance {
    /// The server-side aggregation rule (client-side defenses pair with a
    /// plain sum here).
    pub aggregator: Box<dyn Aggregator>,
    /// Per-client regularizer factory; `None` for pure server-side rules.
    pub regularizer_factory: Option<RegularizerFactory>,
}

impl std::fmt::Debug for DefenseInstance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DefenseInstance")
            .field("aggregator", &self.aggregator.name())
            .field("client_side", &self.regularizer_factory.is_some())
            .finish()
    }
}

impl DefenseInstance {
    /// A pure server-side defense.
    pub fn server(aggregator: Box<dyn Aggregator>) -> Self {
        Self {
            aggregator,
            regularizer_factory: None,
        }
    }

    /// A client-side defense: `factory` is invoked once per benign client.
    pub fn client(aggregator: Box<dyn Aggregator>, factory: RegularizerFactory) -> Self {
        Self {
            aggregator,
            regularizer_factory: Some(factory),
        }
    }

    /// A fresh regularizer for `client_id`, when the defense is client-side.
    pub fn regularizer_for(&self, client_id: usize) -> Option<Box<dyn LocalRegularizer>> {
        self.regularizer_factory.as_ref().map(|f| f(client_id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use frs_federation::{Catalog, ParamValue, Params};

    #[test]
    fn builtins_are_registered() {
        // Every row's name resolves back to that row, and the names ascend
        // strictly, so no two rows share one.
        let rows = DefenseKind::rows();
        assert_eq!(rows.len(), 8);
        for &row in rows {
            assert_eq!(DefenseSel::from(row).resolve(), Some(row));
        }
        assert!(
            rows.windows(2).all(|w| w[0].name() < w[1].name()),
            "{rows:?}"
        );
    }

    #[test]
    fn selection_path_validates_schema_even_for_lazy_factories() {
        // No builtin checks its keys itself: the selection path rejects
        // typo'd keys structurally…
        let ctx = DefenseBuildCtx::minimal(0.05, 1.0);
        let err = DefenseSel::named("krum")
            .with_param("ration", 0.1f32)
            .try_build(&ctx)
            .unwrap_err();
        assert!(err.contains("unknown parameter"), "{err}");
        // …and declared keys still pass through.
        assert!(DefenseSel::named("krum")
            .with_param("ratio", 0.1f32)
            .try_build(&ctx)
            .is_ok());
    }

    #[test]
    fn sel_compares_and_serializes() {
        let sel: DefenseSel = DefenseKind::Ours.into();
        assert_eq!(sel, DefenseKind::Ours);
        assert!(sel.resolve().unwrap().is_client_side());
        assert!(DefenseSel::none().is_none());
        let v = serde::Serialize::to_value(&sel);
        assert_eq!(v.as_str(), Some("ours"));
        let back: DefenseSel = serde::Deserialize::from_value(&v).unwrap();
        assert_eq!(back, sel);
    }

    #[test]
    fn parameterized_sel_serializes_as_object_and_round_trips() {
        let sel = DefenseSel::named("ours")
            .with_param("beta", 0.9f32)
            .with_param("re2", false);
        let v = serde::Serialize::to_value(&sel);
        let obj = v.as_object().expect("object form");
        assert_eq!(obj.get("name").and_then(|n| n.as_str()), Some("ours"));
        let back: DefenseSel = serde::Deserialize::from_value(&v).unwrap();
        assert_eq!(back, sel);
        // Canonical text is stable regardless of insertion order.
        let sel2 = DefenseSel::named("ours")
            .with_param("re2", false)
            .with_param("beta", 0.9f32);
        assert_eq!(
            serde_json_canonical(&sel),
            serde_json_canonical(&sel2),
            "sorted-key params canonicalize identically"
        );
        // A params difference is a selection difference.
        assert_ne!(sel, DefenseSel::named("ours").with_param("beta", 1.0f32));
        // …but name-vs-kind comparison ignores params.
        assert_eq!(sel, DefenseKind::Ours);
    }

    fn serde_json_canonical(sel: &DefenseSel) -> String {
        // Local mini-canonicalizer: Display is already canonical for params
        // (sorted BTreeMap), so the CLI form doubles as a canonical text.
        sel.to_string()
    }

    #[test]
    fn parses_cli_specs() {
        assert_eq!(
            DefenseSel::parse("ours").unwrap(),
            DefenseSel::named("ours")
        );
        let sel = DefenseSel::parse("ours:beta=0.9,re2=false,top_n=5").unwrap();
        assert_eq!(sel.name(), "ours");
        assert_eq!(sel.params().get_f32("beta").unwrap(), Some(0.9));
        assert_eq!(sel.params().get_bool("re2").unwrap(), Some(false));
        assert_eq!(sel.params().get_usize("top_n").unwrap(), Some(5));
        assert_eq!(sel.to_string(), "ours:beta=0.9,re2=false,top_n=5");
        assert_eq!(DefenseSel::parse(&sel.to_string()).unwrap(), sel);

        assert!(DefenseSel::parse("").is_err());
        assert!(DefenseSel::parse("ours:beta").is_err());
        assert!(DefenseSel::parse(":beta=1").is_err());
    }

    #[test]
    fn f32_params_key_like_their_cli_spelling() {
        // `0.9f32 as f64` would be 0.90000003…, addressing a different
        // cache cell than the CLI's `beta=0.9`; the From impl converts via
        // the shortest decimal instead, and get_f32 rounds back losslessly.
        let programmatic = DefenseSel::named("ours").with_param("beta", 0.9f32);
        let cli = DefenseSel::parse("ours:beta=0.9").unwrap();
        assert_eq!(programmatic, cli);
        assert_eq!(programmatic.to_string(), "ours:beta=0.9");
        assert_eq!(programmatic.params().get_f32("beta").unwrap(), Some(0.9));
    }

    #[test]
    fn whole_floats_normalize_to_ints_across_all_paths() {
        // NCF's tuned weights are integral (β=5, γ=10): the CLI text, the
        // programmatic f32/f64, and the JSON wire form must all land on the
        // same variant — and therefore the same canonical bytes/cache key.
        let cli = DefenseSel::parse("ours:beta=5").unwrap();
        let from_f32 = DefenseSel::named("ours").with_param("beta", 5.0f32);
        let from_f64 = DefenseSel::named("ours").with_param("beta", 5.0f64);
        assert_eq!(cli, from_f32);
        assert_eq!(cli, from_f64);
        assert_eq!(from_f32.params().get_f32("beta").unwrap(), Some(5.0));
        // Display/parse round-trips.
        assert_eq!(DefenseSel::parse(&from_f32.to_string()).unwrap(), from_f32);
        // Wire form: a JSON 5.0 deserializes to the same selection.
        let wire: ParamValue =
            serde::Deserialize::from_value(&serde::Value::Number(serde::Number::F64(5.0))).unwrap();
        assert_eq!(wire, ParamValue::Int(5));
        // Fractional values stay floats and round-trip too.
        let frac = DefenseSel::named("ours").with_param("beta", 0.9f32);
        assert_eq!(DefenseSel::parse(&frac.to_string()).unwrap(), frac);
        // The CLI text `beta=5.0` normalizes like everything else, and a
        // serialize/deserialize round trip is idempotent.
        let cli_float = DefenseSel::parse("ours:beta=5.0").unwrap();
        assert_eq!(cli_float, cli);
        let wire_rt: DefenseSel =
            serde::Deserialize::from_value(&serde::Serialize::to_value(&cli_float)).unwrap();
        assert_eq!(wire_rt, cli_float);
    }

    #[test]
    fn f32_overflow_is_a_clean_error_not_infinity() {
        // 1e39 is a finite f64 but narrows to f32::INFINITY — it must not
        // slip past the finiteness guards as an "infinite β".
        let params = Params::new().with("beta", 1e39f64);
        assert!(params.get_f32("beta").unwrap_err().contains("f32"));
        assert_eq!(params.get_f64("beta").unwrap(), Some(1e39));
        let sel = DefenseSel::parse("ours:beta=1e39").unwrap();
        let err = sel
            .try_build(&DefenseBuildCtx::minimal(0.05, 0.05))
            .unwrap_err();
        assert!(err.contains("f32"), "{err}");
    }

    #[test]
    fn non_finite_params_are_rejected() {
        // CLI: `nan`/`inf` parse as strings (they would canonicalize to
        // JSON null and collide cache keys), so typed accessors error.
        assert_eq!(ParamValue::parse("nan"), ParamValue::Str("nan".into()));
        assert_eq!(ParamValue::parse("-inf"), ParamValue::Str("-inf".into()));
        let params = Params::new().with("beta", ParamValue::parse("nan"));
        assert!(params.get_f32("beta").is_err());
        // Wire form: a non-finite number fails deserialization.
        let bad: Result<ParamValue, _> =
            serde::Deserialize::from_value(&serde::Value::Number(serde::Number::F64(f64::NAN)));
        assert!(bad.is_err());
    }

    #[test]
    #[should_panic(expected = "must be finite")]
    fn non_finite_programmatic_params_panic() {
        let _ = Params::new().with("beta", f64::INFINITY);
    }

    #[test]
    fn param_value_types_round_trip_and_check() {
        let params = Params::new()
            .with("b", true)
            .with("f", 0.5f32)
            .with("i", 7usize)
            .with("s", "hello");
        assert_eq!(params.get_bool("b").unwrap(), Some(true));
        assert_eq!(params.get_f32("f").unwrap(), Some(0.5));
        assert_eq!(params.get_f64("i").unwrap(), Some(7.0));
        assert_eq!(params.get_usize("i").unwrap(), Some(7));
        assert!(params.get_bool("f").is_err());
        assert!(params.get_f32("s").is_err());
        assert!(params.get_usize("f").is_err());
        assert_eq!(params.get_f32("missing").unwrap(), None);
        assert!(params.check_known(&["b", "f", "i", "s"], "t").is_ok());
        let err = params.check_known(&["b"], "t").unwrap_err();
        assert!(err.contains("unknown parameter"), "{err}");

        let v = serde::Serialize::to_value(&params);
        let back: Params = serde::Deserialize::from_value(&v).unwrap();
        assert_eq!(back, params);
    }
}
