//! One fixed catalog and one selection type for every factory family.
//!
//! Attacks and defenses are both *named factories*: a [`Registry`] maps a
//! kebab-case name to a trait object, and a scenario references an entry
//! through a [`Selection`], the name plus a canonical [`Params`] payload.
//! The families differ only in what a factory is handed and what it
//! returns. A [`Catalog`] names those types once per family
//! (`frs_attacks::Attacks`, `frs_defense::Defenses`) and builds the
//! family's registry from its builtin rows; everything else lives here,
//! once:
//!
//! - [`Factory`]: the name, label and parameter schema every entry
//!   declares;
//! - [`Registry`]: the immutable name → factory map, looked up and listed;
//! - [`Selection`]: the serializable reference. [`Selection::try_build`] is
//!   the one place a name is resolved, params are checked against the
//!   factory's declared schema, and the factory runs. A factory therefore
//!   never sees a key it did not declare, and checks only values.
//!
//! The catalogs are closed: a new attack or defense is a new row in its
//! family's catalog, so every cell is rebuilt from its serialized config
//! alone and a name always means the same code.
//!
//! A selection serializes as the plain name string when its params are
//! empty (`"pieck-uea"`) and as `{"name": "pieck-uea", "params": {…}}`
//! otherwise; both forms deserialize. The params map is sorted-key and
//! canonical, so structurally equal selections always produce the same
//! bytes, which is what lets suite cache keys see hyper-parameters. The
//! CLI form is `name[:k=v,…]` ([`Selection::parse`], [`Display`]).
//!
//! [`Display`]: std::fmt::Display

use std::collections::BTreeMap;
use std::fmt;
use std::marker::PhantomData;

use crate::client::Client;
use crate::params::{ParamSpec, ParamValue, Params};

/// The catalog name of every family's baseline entry: no attack, no
/// defense.
const NONE: &str = "none";

/// What every catalog entry declares, whatever it builds.
pub trait Factory: Send + Sync {
    /// Stable catalog key (kebab-case).
    fn name(&self) -> &str;

    /// Row label for experiment tables; defaults to the catalog name.
    fn label(&self) -> &str {
        self.name()
    }

    /// The parameters this factory accepts, for validation and for the
    /// `paper attacks list` / `paper defenses list` catalogs. Empty (the
    /// default) means "takes none".
    fn param_schema(&self) -> Vec<ParamSpec> {
        Vec::new()
    }
}

/// A family of factories: the types a build consumes and produces, and the
/// family's fixed catalog.
pub trait Catalog: 'static {
    /// The family's factory trait object, e.g. `dyn AttackFactory`.
    type Factory: ?Sized + Factory;
    /// What a scenario hands a factory.
    type Ctx<'a>;
    /// What a build returns.
    type Built;
    /// The family's noun in error messages ("attack", "defense").
    const NOUN: &'static str;

    /// The family's registry of builtin entries, built on first use.
    fn registry() -> &'static Registry<Self::Factory>;

    /// Runs `factory`. Every key of `params` is declared in the factory's
    /// schema; checking the values is the factory's job.
    fn build(
        factory: &Self::Factory,
        ctx: &Self::Ctx<'_>,
        params: &Params,
    ) -> Result<Self::Built, String>;
}

/// An immutable name → factory map, built once per family by
/// [`Catalog::registry`].
pub struct Registry<F: ?Sized> {
    entries: BTreeMap<String, Box<F>>,
}

impl<F: ?Sized + Factory> Registry<F> {
    /// A registry holding `entries`, each under its own name.
    pub fn new(entries: impl IntoIterator<Item = Box<F>>) -> Self {
        let entries = entries
            .into_iter()
            .map(|factory| (factory.name().to_string(), factory))
            .collect();
        Self { entries }
    }

    /// Looks a factory up by name.
    pub fn get(&self, name: &str) -> Option<&F> {
        self.entries.get(name).map(|factory| &**factory)
    }

    /// Every entry, in name order.
    pub fn iter(&self) -> impl Iterator<Item = &F> {
        self.entries.values().map(|factory| &**factory)
    }
}

/// A serializable reference to an entry of catalog `C`: its catalog name
/// plus a canonical [`Params`] payload. This is what scenario
/// configurations carry; see the module docs for its wire and CLI forms.
pub struct Selection<C> {
    name: String,
    params: Params,
    catalog: PhantomData<fn() -> C>,
}

impl<C: Catalog> Selection<C> {
    /// References an entry by name, with no parameter overrides. The name
    /// is resolved only when the selection is labelled or built.
    pub fn named(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            params: Params::new(),
            catalog: PhantomData,
        }
    }

    /// The baseline entry: no attack, or no defense.
    pub fn none() -> Self {
        Self::named(NONE)
    }

    /// True for the baseline entry.
    pub fn is_none(&self) -> bool {
        self.name == NONE
    }

    /// Parses the CLI form `name[:k=v,…]` (e.g. `pieck-uea:scale=2.0,top_n=20`).
    pub fn parse(spec: &str) -> Result<Self, String> {
        let (name, params) = match spec.split_once(':') {
            None => (spec.trim(), Params::new()),
            Some((name, list)) => (name.trim(), Params::parse_list(list)?),
        };
        if name.is_empty() {
            return Err(format!("empty {} name", C::NOUN));
        }
        Ok(Self {
            params,
            ..Self::named(name)
        })
    }

    /// Catalog key.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The parameter payload.
    pub fn params(&self) -> &Params {
        &self.params
    }

    /// Sets a parameter (builder form).
    pub fn with_param(mut self, key: impl Into<String>, value: impl Into<ParamValue>) -> Self {
        self.params.set(key, value);
        self
    }

    /// Sets a parameter in place.
    pub fn set_param(&mut self, key: impl Into<String>, value: impl Into<ParamValue>) {
        self.params.set(key, value);
    }

    /// Resolves through the catalog's registry.
    pub fn resolve(&self) -> Option<&'static C::Factory> {
        C::registry().get(&self.name)
    }

    /// Table row label: the factory's, falling back to the raw name for
    /// unknown references. Params do not change the label; they surface
    /// through the variant axis and progress events instead.
    pub fn label(&self) -> String {
        self.resolve()
            .map_or_else(|| self.name.clone(), |f| f.label().to_string())
    }

    /// Whether the resolved factory's schema declares `key`. Unknown names
    /// accept every key: they have no schema, and the build rejects the
    /// name itself.
    pub fn accepts(&self, key: &str) -> bool {
        self.resolve()
            .is_none_or(|f| f.param_schema().iter().any(|spec| spec.key == key))
    }

    /// Builds the entry. `Err` for unknown names, for params the
    /// factory's schema does not declare, and for the factory's own value
    /// errors (type mismatches, out-of-range values). The CLI probes this
    /// at startup, so a bad `--attack`/`--defense` spec is a clean exit
    /// instead of a panic three cells into a sweep.
    pub fn try_build(&self, ctx: &C::Ctx<'_>) -> Result<C::Built, String> {
        let factory = self.resolve().ok_or_else(|| {
            format!(
                "{} `{}` is not registered (known: {:?})",
                C::NOUN,
                self.name,
                C::registry().iter().map(Factory::name).collect::<Vec<_>>()
            )
        })?;
        let schema = factory.param_schema();
        let known: Vec<&str> = schema.iter().map(|spec| spec.key.as_str()).collect();
        self.params.check_known(&known, &self.name).map_err(|e| {
            if known.is_empty() {
                format!(
                    "{} `{}` takes no parameters (got `{}`): {e}",
                    C::NOUN,
                    self.name,
                    self.params
                )
            } else {
                e
            }
        })?;
        C::build(factory, ctx, &self.params)
    }

    /// Builds the entry; panics on configuration errors (the harness path:
    /// a scenario referencing a bad entry is a programming error).
    pub fn build(&self, ctx: &C::Ctx<'_>) -> C::Built {
        self.try_build(ctx)
            .unwrap_or_else(|e| panic!("cannot build {} `{self}`: {e}", C::NOUN))
    }
}

/// Catalogs whose entries build client populations (the attack family)
/// keep the `build_clients` spelling.
impl<C: Catalog<Built = Vec<Box<dyn Client>>>> Selection<C> {
    /// [`Selection::try_build`], returning the built clients.
    pub fn try_build_clients(&self, ctx: &C::Ctx<'_>) -> Result<Vec<Box<dyn Client>>, String> {
        self.try_build(ctx)
    }

    /// [`Selection::build`], returning the built clients.
    pub fn build_clients(&self, ctx: &C::Ctx<'_>) -> Vec<Box<dyn Client>> {
        self.build(ctx)
    }
}

impl<C> Clone for Selection<C> {
    fn clone(&self) -> Self {
        Self {
            name: self.name.clone(),
            params: self.params.clone(),
            catalog: PhantomData,
        }
    }
}

impl<C> PartialEq for Selection<C> {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name && self.params == other.params
    }
}

impl<C> Eq for Selection<C> {}

impl<C> std::hash::Hash for Selection<C> {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.name.hash(state);
        self.params.hash(state);
    }
}

impl<C: Catalog> fmt::Debug for Selection<C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Selection")
            .field("catalog", &C::NOUN)
            .field("name", &self.name)
            .field("params", &self.params)
            .finish()
    }
}

/// The CLI form: `name` or `name:k=v,…`.
impl<C> fmt::Display for Selection<C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name)?;
        if !self.params.is_empty() {
            write!(f, ":{}", self.params)?;
        }
        Ok(())
    }
}

impl<C> serde::Serialize for Selection<C> {
    fn to_value(&self) -> serde::Value {
        if self.params.is_empty() {
            serde::Value::String(self.name.clone())
        } else {
            let mut map = serde::Map::new();
            map.insert("name".into(), serde::Value::String(self.name.clone()));
            map.insert("params".into(), serde::Serialize::to_value(&self.params));
            serde::Value::Object(map)
        }
    }
}

impl<C: Catalog> serde::Deserialize for Selection<C> {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        match v {
            serde::Value::String(name) => Ok(Self::named(name)),
            serde::Value::Object(map) => {
                let name = map.get("name").and_then(|n| n.as_str()).ok_or_else(|| {
                    serde::Error::new(format!("{} object needs a `name` string", C::NOUN))
                })?;
                let params = match map.get("params") {
                    None => Params::new(),
                    Some(p) => serde::Deserialize::from_value(p)?,
                };
                Ok(Self {
                    params,
                    ..Self::named(name)
                })
            }
            other => Err(serde::Error::new(format!(
                "expected {} name or {{name, params}}, got {}",
                C::NOUN,
                other.kind()
            ))),
        }
    }
}
