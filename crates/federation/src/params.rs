//! Canonical parameter payloads shared by the attack and defense catalogs.
//!
//! Both `frs_attacks::AttackSel` and `frs_defense::DefenseSel` reference a
//! catalog row by name plus a serializable hyper-parameter map. The map's
//! invariants are what make suite caching sound, so they live here — once,
//! below both catalogs — instead of being duplicated per side:
//!
//! - **Canonical bytes.** [`Params`] is a sorted-key map of JSON-shaped
//!   [`ParamValue`]s, so structurally equal payloads always serialize to the
//!   same byte string regardless of construction order or path.
//! - **One variant per value.** Whole non-negative floats normalize to
//!   [`ParamValue::Int`] on *every* ingest path (CLI text, `From<f32>`/
//!   `From<f64>`, the JSON wire), so `scale=2`, `2.0f32`, and a JSON `2.0`
//!   address one cache cell, not three.
//! - **No non-finite numbers.** NaN/∞ would canonicalize to JSON `null` and
//!   collide distinct configs onto one key; they are rejected (or kept as
//!   strings that fail the typed accessors) on every path, and `get_f32`
//!   refuses f64 values that would narrow to infinity.
//!
//! [`ParamSpec`] is the declared schema entry rows validate against
//! ([`Params::check_known`]) and the CLI catalogs print.

use std::collections::BTreeMap;

/// One row hyper-parameter value. Kept deliberately JSON-shaped so the
/// whole params map canonicalizes exactly like every other config field.
#[derive(Debug, Clone, PartialEq)]
pub enum ParamValue {
    Bool(bool),
    Int(u64),
    Float(f64),
    Str(String),
}

impl ParamValue {
    /// Parses a CLI-style value: `true`/`false`, an unsigned integer, a
    /// float, or (fallback) a bare string. Non-finite floats (`nan`,
    /// `inf`) stay strings — they would canonicalize to JSON `null`,
    /// colliding distinct configs onto one cache key, so the typed
    /// accessors reject them with a clean type error instead.
    pub fn parse(s: &str) -> Self {
        match s {
            "true" => ParamValue::Bool(true),
            "false" => ParamValue::Bool(false),
            _ => {
                if let Ok(i) = s.parse::<u64>() {
                    ParamValue::Int(i)
                } else if let Ok(f) = s.parse::<f64>() {
                    if f.is_finite() {
                        // Same normalization as `From<f64>`: `scale=5.0`
                        // must key like `scale=5`.
                        normalized_float(f)
                    } else {
                        ParamValue::Str(s.to_string())
                    }
                } else {
                    ParamValue::Str(s.to_string())
                }
            }
        }
    }
}

impl Eq for ParamValue {}

#[allow(clippy::derived_hash_with_manual_eq)]
impl std::hash::Hash for ParamValue {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        match self {
            ParamValue::Bool(b) => (0u8, b).hash(state),
            ParamValue::Int(i) => (1u8, i).hash(state),
            ParamValue::Float(f) => (2u8, f.to_bits()).hash(state),
            ParamValue::Str(s) => (3u8, s).hash(state),
        }
    }
}

impl std::fmt::Display for ParamValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParamValue::Bool(b) => write!(f, "{b}"),
            ParamValue::Int(i) => write!(f, "{i}"),
            ParamValue::Float(x) => write!(f, "{x}"),
            ParamValue::Str(s) => f.write_str(s),
        }
    }
}

/// Canonicalizes a finite float: whole non-negative values become
/// [`ParamValue::Int`], so `beta=5` from the CLI, `with_param("beta",
/// 5.0f32)`, and a JSON `"beta": 5.0` all produce the same variant — and
/// with it the same canonical bytes and cache key. (Negative or huge whole
/// floats stay `Float`; their Display text re-parses to `Float` too, so
/// every path still agrees.)
fn normalized_float(v: f64) -> ParamValue {
    if v.fract() == 0.0 && (0.0..=u64::MAX as f64).contains(&v) {
        // The guard admits only integral values inside u64's range.
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        ParamValue::Int(v as u64)
    } else {
        ParamValue::Float(v)
    }
}

impl From<bool> for ParamValue {
    fn from(v: bool) -> Self {
        ParamValue::Bool(v)
    }
}
impl From<u64> for ParamValue {
    fn from(v: u64) -> Self {
        ParamValue::Int(v)
    }
}
impl From<usize> for ParamValue {
    fn from(v: usize) -> Self {
        ParamValue::Int(v as u64)
    }
}
impl From<u32> for ParamValue {
    fn from(v: u32) -> Self {
        ParamValue::Int(v as u64)
    }
}
impl From<f64> for ParamValue {
    /// Whole non-negative values normalize to `Int` (matching what the CLI
    /// parser produces for the same text). Panics on non-finite values:
    /// the canonical JSON form has no NaN/∞ (they would serialize as
    /// `null` and collide cache keys).
    fn from(v: f64) -> Self {
        assert!(v.is_finite(), "factory params must be finite, got {v}");
        normalized_float(v)
    }
}
impl From<f32> for ParamValue {
    /// Converts via the value's shortest decimal representation, so an
    /// `0.9f32` keys and displays identically to the CLI's `beta=0.9`
    /// (a plain `as f64` widening would store `0.90000003…` and address a
    /// different cache cell than the same value given on the command
    /// line); whole values normalize to `Int` like the CLI's. The typed
    /// `get_f32` accessor rounds back losslessly.
    fn from(v: f32) -> Self {
        assert!(v.is_finite(), "factory params must be finite, got {v}");
        normalized_float(v.to_string().parse().expect("f32 display round-trips"))
    }
}
impl From<&str> for ParamValue {
    fn from(v: &str) -> Self {
        ParamValue::Str(v.to_string())
    }
}
impl From<String> for ParamValue {
    fn from(v: String) -> Self {
        ParamValue::Str(v)
    }
}

impl serde::Serialize for ParamValue {
    fn to_value(&self) -> serde::Value {
        match self {
            ParamValue::Bool(b) => serde::Value::Bool(*b),
            ParamValue::Int(i) => serde::Value::Number(serde::Number::U64(*i)),
            ParamValue::Float(f) => serde::Value::Number(serde::Number::F64(*f)),
            ParamValue::Str(s) => serde::Value::String(s.clone()),
        }
    }
}

impl serde::Deserialize for ParamValue {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        match v {
            serde::Value::Bool(b) => Ok(ParamValue::Bool(*b)),
            serde::Value::String(s) => Ok(ParamValue::Str(s.clone())),
            serde::Value::Number(serde::Number::U64(i)) => Ok(ParamValue::Int(*i)),
            serde::Value::Number(serde::Number::I64(i)) if *i >= 0 => {
                Ok(ParamValue::Int(*i as u64))
            }
            serde::Value::Number(serde::Number::I64(i)) => Ok(ParamValue::Float(*i as f64)),
            serde::Value::Number(serde::Number::F64(f)) if f.is_finite() => {
                // Same normalization as `From<f64>`: a hand-written
                // `"beta": 5.0` must key like the CLI's `beta=5`.
                Ok(normalized_float(*f))
            }
            serde::Value::Number(serde::Number::F64(f)) => Err(serde::Error::new(format!(
                "param values must be finite, got {f}"
            ))),
            other => Err(serde::Error::new(format!(
                "expected param value, got {}",
                other.kind()
            ))),
        }
    }
}

/// A canonical (sorted-key) map of row hyper-parameters — the
/// serializable payload an `AttackSel`/`DefenseSel` carries alongside its
/// catalog name. Missing keys mean "use the row's context-derived
/// default".
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct Params {
    entries: BTreeMap<String, ParamValue>,
}

impl Params {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Sets a parameter (builder form).
    pub fn with(mut self, key: impl Into<String>, value: impl Into<ParamValue>) -> Self {
        self.set(key, value);
        self
    }

    /// Sets a parameter in place.
    pub fn set(&mut self, key: impl Into<String>, value: impl Into<ParamValue>) {
        self.entries.insert(key.into(), value.into());
    }

    pub fn get(&self, key: &str) -> Option<&ParamValue> {
        self.entries.get(key)
    }

    /// Sorted parameter keys.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.entries.keys().map(String::as_str)
    }

    /// Sorted `(key, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &ParamValue)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// `f32` accessor; `Err` when the key holds a non-numeric value or one
    /// that overflows `f32` (narrowing `1e39` to `f32::INFINITY` would
    /// smuggle a non-finite weight past every finiteness guard).
    pub fn get_f32(&self, key: &str) -> Result<Option<f32>, String> {
        match self.get_f64(key)? {
            None => Ok(None),
            Some(x) => {
                // Narrowing is the accessor's contract; the finiteness check
                // below rejects values outside f32's range.
                #[allow(clippy::cast_possible_truncation)]
                let narrowed = x as f32;
                if narrowed.is_finite() {
                    Ok(Some(narrowed))
                } else {
                    Err(format!("param `{key}` = {x} does not fit an f32"))
                }
            }
        }
    }

    /// `f64` accessor; `Err` when the key holds a non-numeric value.
    pub fn get_f64(&self, key: &str) -> Result<Option<f64>, String> {
        match self.entries.get(key) {
            None => Ok(None),
            Some(ParamValue::Float(f)) => Ok(Some(*f)),
            Some(ParamValue::Int(i)) => Ok(Some(*i as f64)),
            Some(other) => Err(format!("param `{key}` must be a number, got `{other}`")),
        }
    }

    /// `bool` accessor; `Err` when the key holds a non-boolean value.
    pub fn get_bool(&self, key: &str) -> Result<Option<bool>, String> {
        match self.entries.get(key) {
            None => Ok(None),
            Some(ParamValue::Bool(b)) => Ok(Some(*b)),
            Some(other) => Err(format!("param `{key}` must be a bool, got `{other}`")),
        }
    }

    /// `usize` accessor; `Err` when the key holds a non-integer value.
    pub fn get_usize(&self, key: &str) -> Result<Option<usize>, String> {
        match self.entries.get(key) {
            None => Ok(None),
            Some(ParamValue::Int(i)) => usize::try_from(*i)
                .map(Some)
                .map_err(|_| format!("param `{key}` = {i} does not fit a usize")),
            Some(other) => Err(format!("param `{key}` must be an integer, got `{other}`")),
        }
    }

    /// `&str` accessor; `Err` when the key holds a non-string value.
    pub fn get_str(&self, key: &str) -> Result<Option<&str>, String> {
        match self.entries.get(key) {
            None => Ok(None),
            Some(ParamValue::Str(s)) => Ok(Some(s.as_str())),
            Some(other) => Err(format!("param `{key}` must be a string, got `{other}`")),
        }
    }

    /// Errors when any key is not in `known` — every build checks this first so
    /// a typo'd `--defense ours:betta=1` or `--attack pieck-uea:topn=5`
    /// fails loudly instead of silently running the defaults.
    pub fn check_known(&self, known: &[&str], owner: &str) -> Result<(), String> {
        let unknown: Vec<&str> = self.keys().filter(|k| !known.contains(k)).collect();
        if unknown.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "unknown parameter(s) {unknown:?} for `{owner}` (known: {known:?})"
            ))
        }
    }

    /// Parses a CLI-style `k=v,k=v,…` list. A key given twice is an error:
    /// letting the last value win would leave the first silently inert.
    pub fn parse_list(s: &str) -> Result<Self, String> {
        let mut params = Self::new();
        for pair in s.split(',') {
            let pair = pair.trim();
            if pair.is_empty() {
                continue;
            }
            let (key, value) = pair
                .split_once('=')
                .ok_or_else(|| format!("bad param `{pair}`; expected key=value"))?;
            let key = key.trim();
            if key.is_empty() {
                return Err(format!("bad param `{pair}`; empty key"));
            }
            if params.get(key).is_some() {
                return Err(format!("param `{key}` given twice"));
            }
            params.set(key, ParamValue::parse(value.trim()));
        }
        Ok(params)
    }
}

/// Renders as the CLI form: `k=v,k=v` in sorted key order (empty string for
/// no params).
impl std::fmt::Display for Params {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, (k, v)) in self.entries.iter().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            write!(f, "{k}={v}")?;
        }
        Ok(())
    }
}

impl serde::Serialize for Params {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(
            self.entries
                .iter()
                .map(|(k, v)| (k.clone(), serde::Serialize::to_value(v)))
                .collect(),
        )
    }
}

impl serde::Deserialize for Params {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let obj = v.as_object().ok_or_else(|| {
            serde::Error::new(format!("expected params object, got {}", v.kind()))
        })?;
        let mut entries = BTreeMap::new();
        for (k, v) in obj {
            entries.insert(k.clone(), serde::Deserialize::from_value(v)?);
        }
        Ok(Self { entries })
    }
}

/// Declared schema entry of one row parameter (`paper attacks list` /
/// `paper defenses list` and [`Params::check_known`] feed off the row's
/// schema).
#[derive(Debug, Clone)]
pub struct ParamSpec {
    /// Parameter key (`beta`, `top_n`, `scale`, …).
    pub key: String,
    /// One-line description.
    pub doc: String,
    /// Human-readable default ("0.5", "scenario malicious_ratio", …).
    pub default: String,
}

impl ParamSpec {
    pub fn new(key: impl Into<String>, doc: impl Into<String>, default: impl Into<String>) -> Self {
        Self {
            key: key.into(),
            doc: doc.into(),
            default: default.into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_cli_values() {
        assert_eq!(ParamValue::parse("true"), ParamValue::Bool(true));
        assert_eq!(ParamValue::parse("false"), ParamValue::Bool(false));
        assert_eq!(ParamValue::parse("7"), ParamValue::Int(7));
        assert_eq!(ParamValue::parse("0.9"), ParamValue::Float(0.9));
        assert_eq!(ParamValue::parse("kl"), ParamValue::Str("kl".into()));
        // Whole floats normalize to Int on the CLI path too.
        assert_eq!(ParamValue::parse("5.0"), ParamValue::Int(5));
    }

    #[test]
    fn whole_floats_normalize_to_ints_across_all_ingest_paths() {
        assert_eq!(ParamValue::from(5.0f32), ParamValue::Int(5));
        assert_eq!(ParamValue::from(5.0f64), ParamValue::Int(5));
        assert_eq!(ParamValue::parse("5"), ParamValue::Int(5));
        let wire: ParamValue =
            serde::Deserialize::from_value(&serde::Value::Number(serde::Number::F64(5.0))).unwrap();
        assert_eq!(wire, ParamValue::Int(5));
        // Fractional values survive as floats, via the shortest decimal for
        // f32 so the programmatic and CLI spellings agree.
        assert_eq!(ParamValue::from(0.9f32), ParamValue::Float(0.9));
        assert_eq!(ParamValue::parse("0.9"), ParamValue::Float(0.9));
        // Negative whole floats stay floats, and their Display re-parses to
        // the same variant (every path agrees even off the fast path).
        let neg = ParamValue::from(-3.0f64);
        assert_eq!(ParamValue::parse(&neg.to_string()), neg);
    }

    #[test]
    fn non_finite_values_are_rejected_on_every_path() {
        // CLI: `nan`/`inf` parse as strings, so typed accessors error.
        assert_eq!(ParamValue::parse("nan"), ParamValue::Str("nan".into()));
        assert_eq!(ParamValue::parse("-inf"), ParamValue::Str("-inf".into()));
        let params = Params::new().with("x", ParamValue::parse("nan"));
        assert!(params.get_f32("x").is_err());
        // Wire: a non-finite number fails deserialization.
        let bad: Result<ParamValue, _> =
            serde::Deserialize::from_value(&serde::Value::Number(serde::Number::F64(f64::NAN)));
        assert!(bad.is_err());
    }

    #[test]
    #[should_panic(expected = "must be finite")]
    fn non_finite_programmatic_f64_panics() {
        let _ = Params::new().with("x", f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "must be finite")]
    fn non_finite_programmatic_f32_panics() {
        let _ = Params::new().with("x", f32::NAN);
    }

    #[test]
    fn f32_overflow_is_a_clean_error_not_infinity() {
        // 1e39 is a finite f64 but narrows to f32::INFINITY — it must not
        // slip past finiteness guards as an "infinite" weight.
        let params = Params::new().with("x", 1e39f64);
        assert!(params.get_f32("x").unwrap_err().contains("f32"));
        assert_eq!(params.get_f64("x").unwrap(), Some(1e39));
    }

    #[test]
    fn typed_accessors_round_trip_and_check() {
        let params = Params::new()
            .with("b", true)
            .with("f", 0.5f32)
            .with("i", 7usize)
            .with("s", "hello");
        assert_eq!(params.get_bool("b").unwrap(), Some(true));
        assert_eq!(params.get_f32("f").unwrap(), Some(0.5));
        assert_eq!(params.get_f64("i").unwrap(), Some(7.0));
        assert_eq!(params.get_usize("i").unwrap(), Some(7));
        assert_eq!(params.get_str("s").unwrap(), Some("hello"));
        assert!(params.get_bool("f").is_err());
        assert!(params.get_f32("s").is_err());
        assert!(params.get_usize("f").is_err());
        assert!(params.get_str("i").is_err());
        assert_eq!(params.get_f32("missing").unwrap(), None);
        assert!(params.check_known(&["b", "f", "i", "s"], "t").is_ok());
        let err = params.check_known(&["b"], "t").unwrap_err();
        assert!(err.contains("unknown parameter"), "{err}");

        let v = serde::Serialize::to_value(&params);
        let back: Params = serde::Deserialize::from_value(&v).unwrap();
        assert_eq!(back, params);
    }

    #[test]
    fn parse_list_and_display_round_trip() {
        let params = Params::parse_list("scale=2.0, top_n=20,metric=kl").unwrap();
        assert_eq!(params.get_f32("scale").unwrap(), Some(2.0));
        assert_eq!(params.get_usize("top_n").unwrap(), Some(20));
        assert_eq!(params.get_str("metric").unwrap(), Some("kl"));
        // Display is the canonical CLI form: sorted keys, normalized values.
        assert_eq!(params.to_string(), "metric=kl,scale=2,top_n=20");
        assert_eq!(Params::parse_list(&params.to_string()).unwrap(), params);

        assert!(Params::parse_list("scale").is_err());
        assert!(Params::parse_list("=1").is_err());
        assert!(Params::parse_list("").unwrap().is_empty());
    }

    #[test]
    fn a_key_given_twice_is_rejected() {
        // Letting the last value win would leave the first silently inert.
        for (list, key) in [
            ("scale=2,scale=3", "scale"),
            ("scale=2, scale =2", "scale"),
            ("top_n=5,scale=1,top_n=5", "top_n"),
        ] {
            let err = Params::parse_list(list).unwrap_err();
            assert!(
                err.contains(&format!("`{key}` given twice")),
                "{list}: {err}"
            );
        }
    }
}
