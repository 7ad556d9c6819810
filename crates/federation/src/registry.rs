//! One catalog trait and one selection type for every family of rows.
//!
//! Attacks and defenses are both *closed catalogs*: each family is an enum
//! whose variants are its rows (`frs_attacks::AttackKind`,
//! `frs_defense::DefenseKind`), and a scenario references a row through a
//! [`Selection`], its kebab-case name plus a canonical [`Params`] payload.
//! [`Catalog`] is what every row enum implements: its name, label and
//! parameter schema, the context a build is handed and what it returns.
//! [`Selection::try_build`] is the one place a name is resolved to its
//! row, params are checked against the row's declared schema, and the row
//! builds. A row therefore never sees a key it did not declare, and checks
//! only values.
//!
//! A new attack or defense is one more variant plus its match arms, so
//! every cell is rebuilt from its serialized config alone and a name always
//! means the same code.
//!
//! A selection serializes as the plain name string when its params are
//! empty (`"pieck-uea"`) and as `{"name": "pieck-uea", "params": {…}}`
//! otherwise; both forms deserialize. The params map is sorted-key and
//! canonical, so structurally equal selections always produce the same
//! bytes, which is what lets suite cache keys see hyper-parameters. The
//! CLI form is `name[:k=v,…]` ([`Selection::parse`], [`Display`]).
//!
//! [`Display`]: std::fmt::Display

use std::fmt;
use std::marker::PhantomData;

use crate::client::Client;
use crate::params::{ParamSpec, ParamValue, Params};

/// The catalog name of every family's baseline row: no attack, no defense.
const NONE: &str = "none";

/// A family's row enum: every builtin attack, or every builtin defense.
pub trait Catalog: Copy + 'static {
    /// The family's noun in error messages ("attack", "defense").
    const NOUN: &'static str;
    /// What a scenario hands a build.
    type Ctx<'a>;
    /// What a build returns.
    type Built;

    /// Every row, in name order.
    fn rows() -> &'static [Self];

    /// Stable catalog key (kebab-case).
    fn name(self) -> &'static str;

    /// Row label for experiment tables.
    fn label(self) -> &'static str;

    /// The parameters this row accepts, for validation and for the `paper
    /// attacks list` / `paper defenses list` catalogs. Empty means "takes
    /// none".
    fn param_schema(self) -> Vec<ParamSpec>;

    /// Builds the row. Every key of `params` is declared in its schema;
    /// checking the values is the row's job.
    fn build(self, ctx: &Self::Ctx<'_>, params: &Params) -> Result<Self::Built, String>;
}

/// A serializable reference to a row of catalog `C`: its name plus a
/// canonical [`Params`] payload. This is what scenario configurations
/// carry; see the module docs for its wire and CLI forms.
pub struct Selection<C> {
    name: String,
    params: Params,
    catalog: PhantomData<fn() -> C>,
}

impl<C: Catalog> Selection<C> {
    /// References a row by name, with no parameter overrides. The name is
    /// resolved only when the selection is labelled or built.
    pub fn named(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            params: Params::new(),
            catalog: PhantomData,
        }
    }

    /// The baseline row: no attack, or no defense.
    pub fn none() -> Self {
        Self::named(NONE)
    }

    /// True for the baseline row.
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

    /// The row this selection names; `None` for an unknown name.
    pub fn resolve(&self) -> Option<C> {
        C::rows().iter().copied().find(|r| r.name() == self.name)
    }

    /// Table row label: the row's, falling back to the raw name for
    /// unknown references. Params do not change the label; they surface
    /// through the variant axis and progress events instead.
    pub fn label(&self) -> String {
        self.resolve()
            .map_or_else(|| self.name.clone(), |row| row.label().to_string())
    }

    /// Whether the row's schema declares `key`. Unknown names accept every
    /// key: they have no schema, and the build rejects the name itself.
    pub fn accepts(&self, key: &str) -> bool {
        self.resolve()
            .is_none_or(|row| row.param_schema().iter().any(|spec| spec.key == key))
    }

    /// Builds the row. `Err` for unknown names, for params the row's
    /// schema does not declare, and for the row's own value errors (type
    /// mismatches, out-of-range values). The CLI probes this at startup, so
    /// a bad `--attack`/`--defense` spec is a clean exit instead of a panic
    /// three cells into a sweep.
    pub fn try_build(&self, ctx: &C::Ctx<'_>) -> Result<C::Built, String> {
        let name = &self.name;
        let row = self.resolve().ok_or_else(|| {
            let known: Vec<&str> = C::rows().iter().map(|r| r.name()).collect();
            format!("{} `{name}` is not registered (known: {known:?})", C::NOUN)
        })?;
        let schema = row.param_schema();
        let known: Vec<&str> = schema.iter().map(|spec| spec.key.as_str()).collect();
        self.params.check_known(&known, name).map_err(|e| {
            if known.is_empty() {
                format!(
                    "{} `{name}` takes no parameters (got `{}`): {e}",
                    C::NOUN,
                    self.params
                )
            } else {
                e
            }
        })?;
        row.build(ctx, &self.params)
    }

    /// Builds the row; panics on configuration errors (the harness path: a
    /// scenario referencing a bad row is a programming error).
    pub fn build(&self, ctx: &C::Ctx<'_>) -> C::Built {
        self.try_build(ctx)
            .unwrap_or_else(|e| panic!("cannot build {} `{self}`: {e}", C::NOUN))
    }
}

/// Catalogs whose rows build client populations (the attack family) keep
/// the `build_clients` spelling.
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

impl<C: Catalog> From<C> for Selection<C> {
    fn from(row: C) -> Self {
        Self::named(row.name())
    }
}

/// Name-only comparison: a parameterized `pieck-uea:scale=2` still *is* the
/// `PieckUea` row for labelling and reporting.
impl<C: Catalog> PartialEq<C> for Selection<C> {
    fn eq(&self, row: &C) -> bool {
        self.name == row.name()
    }
}

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
