//! Printing: one line per metric as it is measured, and the closing JSON
//! line in the shape `BENCHMARK.json` declares.

use std::fmt::Write as _;

/// The manifest whose metric lists the closing line must hold.
const MANIFEST: &str = include_str!("../../BENCHMARK.json");

/// The `(name, unit)` pairs `manifest` declares for a mode: `end_to_end`
/// untraced, `per_layer` traced, sorted by name.
pub fn declared(manifest: &str, traced: bool) -> Result<Vec<(String, String)>, String> {
    let key = if traced { "per_layer" } else { "end_to_end" };
    let json: serde_json::Value =
        serde_json::from_str(manifest).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = json
        .as_object()
        .and_then(|o| o.get(key))
        .and_then(|v| v.as_array())
        .ok_or_else(|| format!("BENCHMARK.json has no `{key}` list"))?;
    let mut out = Vec::new();
    for (i, m) in list.iter().enumerate() {
        let field = |f: &str| {
            m.as_object()
                .and_then(|o| o.get(f))
                .and_then(|v| v.as_str())
                .map(String::from)
        };
        match (field("name"), field("unit")) {
            (Some(name), Some(unit)) => out.push((name, unit)),
            _ => {
                return Err(format!(
                    "BENCHMARK.json `{key}` entry {i} lacks a name or unit"
                ))
            }
        }
    }
    out.sort();
    Ok(out)
}

/// A run's metrics and the tally of its output checks.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<(String, f64, String)>,
    attempted: u64,
    failed: u64,
}

impl Report {
    /// Records a metric and prints it with its unit and how it was taken.
    pub fn metric(&mut self, name: &str, value: f64, unit: &str, how: impl AsRef<str>) {
        println!("{name} = {value} {unit}  ({})", how.as_ref());
        self.metrics
            .push((name.to_string(), value, unit.to_string()));
    }

    /// Prints a number this mode does not declare (the other mode, or
    /// `BENCHMARK.json`, may), in the same form as a metric.
    pub fn info(&self, name: &str, value: f64, unit: &str, how: impl AsRef<str>) {
        println!(
            "{name} = {value} {unit}  ({}; not in the closing line)",
            how.as_ref()
        );
    }

    /// Prints context that is not a metric (host conditions, outcomes).
    pub fn note(&self, text: impl AsRef<str>) {
        println!("# {}", text.as_ref());
    }

    /// Counts one output check; a failed check is printed and fails the run.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            println!("CHECK FAILED: {}", what());
        }
    }

    /// Counts `attempted` operations of which `failed` failed (queries).
    pub fn count(&mut self, attempted: usize, failed: usize) {
        self.attempted += attempted as u64;
        self.failed += failed as u64;
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.metrics.iter().all(|(_, v, _)| v.is_finite())
    }

    /// Checks that the closing line holds exactly the metrics, with their
    /// units, that `BENCHMARK.json` declares for this mode.
    pub fn check_declared(&mut self, traced: bool) {
        let printed: Vec<(String, String)> = self
            .metrics
            .iter()
            .map(|(name, _, unit)| (name.clone(), unit.clone()))
            .collect();
        let outcome = declared(MANIFEST, traced).and_then(|want| {
            let missing: Vec<_> = want.iter().filter(|m| !printed.contains(m)).collect();
            let extra: Vec<_> = printed.iter().filter(|m| !want.contains(m)).collect();
            if missing.is_empty() && extra.is_empty() {
                Ok(())
            } else {
                Err(format!(
                    "the closing line misses {missing:?} and holds undeclared {extra:?}"
                ))
            }
        });
        self.check(outcome.is_ok(), || outcome.unwrap_err());
    }

    /// Failed operations over attempted ones.
    pub fn fail_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The closing line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn json_line(&self) -> String {
        let mut metrics = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                metrics.push(',');
            }
            let value = if value.is_finite() {
                value.to_string()
            } else {
                "null".to_string()
            };
            let _ = write!(
                metrics,
                "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_the_declared_shape() {
        let mut r = Report::default();
        r.metric("setup_s", 0.0125, "s", "median of 3");
        r.metric("rounds_per_s", 3.5, "rounds/s", "");
        r.check(true, String::new);
        r.count(10, 0);
        let line = r.json_line();
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":11,\"failed\":0,\"metrics\":{\
             \"setup_s\":{\"value\":0.0125,\"unit\":\"s\"},\
             \"rounds_per_s\":{\"value\":3.5,\"unit\":\"rounds/s\"}}}"
        );
        let parsed: serde_json::Value = serde_json::from_str(&line).unwrap();
        assert!(parsed.as_object().unwrap().contains_key("metrics"));
    }

    #[test]
    fn reads_each_modes_metrics_from_the_manifest() {
        let manifest = r#"{"end_to_end": [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.1}],
            "per_layer": [{"name": "b.ms", "unit": "ms", "better": "lower"},
                          {"name": "a.count", "unit": "count", "better": "higher"}]}"#;
        let pair = |n: &str, u: &str| (n.to_string(), u.to_string());
        assert_eq!(declared(manifest, false), Ok(vec![pair("setup_s", "s")]));
        assert_eq!(
            declared(manifest, true),
            Ok(vec![pair("a.count", "count"), pair("b.ms", "ms")])
        );
        assert!(declared("{}", true).is_err());
        assert!(declared(r#"{"per_layer": [{"name": "x"}]}"#, true).is_err());
    }

    #[test]
    fn the_closing_line_must_hold_the_declared_metrics() {
        let mut r = Report::default();
        for (name, unit) in declared(MANIFEST, false).unwrap() {
            r.metric(&name, 1.0, &unit, "");
        }
        r.check_declared(false);
        assert!(r.correct());
        r.check_declared(true);
        assert!(
            !r.correct(),
            "end-to-end metrics are not the per-layer list"
        );
    }

    #[test]
    fn a_failed_check_or_a_non_finite_metric_is_incorrect() {
        let mut r = Report::default();
        r.check(false, || "boom".into());
        assert!(!r.correct());
        assert!((r.fail_share() - 1.0).abs() < 1e-12);
        let mut r = Report::default();
        r.metric("query_p99_us", f64::INFINITY, "us", "");
        assert!(!r.correct());
        assert!(r.json_line().contains("\"value\":null"));
    }
}
