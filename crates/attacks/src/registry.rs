//! Selecting an attack: [`AttackSel`] and the [`AttackBuildCtx`] its row
//! builds from.
//!
//! Attacks are the rows of [`AttackKind`], the family's [`Catalog`]: the
//! Table III attacks and the Table VI / IX variants (`crate::variants`). A
//! row turns a scenario-level [`AttackBuildCtx`] plus the selection's params
//! into the scenario's malicious population, and a new attack is one more
//! variant.
//!
//! Scenarios reference attacks through [`AttackSel`], the shared
//! [`Selection`] over this catalog (`"pieck-uea"`,
//! `pieck-uea:scale=2.0,top_n=20` on the CLI); see
//! `frs_federation::registry` for its wire forms. A selection's build checks
//! its params against the row's [`param_schema`] before the row builds, and
//! the row rejects mistyped and out-of-range values, so a typo'd `--attack`
//! spec fails at startup (the CLI probes a `count = 0` build) instead of
//! three cells into a sweep.
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
//! [`Catalog`]: frs_federation::Catalog
//! [`param_schema`]: frs_federation::Catalog::param_schema

use frs_federation::registry::Selection;
use frs_model::ModelKind;

use crate::catalog::AttackKind;

/// A serializable reference to an attack row (see the module docs).
pub type AttackSel = Selection<AttackKind>;

/// Everything a scenario knows that an attack row may consume when
/// populating a run with malicious clients. Scenario-level values
/// (`mined_top_n`, `poison_scale`) are *defaults*; selection params
/// override them per row schema.
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

#[cfg(test)]
mod tests {
    use super::*;
    use frs_federation::Catalog;

    #[test]
    fn builtins_are_registered() {
        // Every row's name resolves back to that row, and the names ascend
        // strictly, so no two rows share one.
        let rows = AttackKind::rows();
        assert_eq!(rows.len(), 15);
        for &row in rows {
            assert_eq!(AttackSel::from(row).resolve(), Some(row));
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
