//! The run report: metrics with units, provenance, output checks and
//! operation counts, rendered as the final result line and as a detailed
//! JSON file.

use std::fmt::Write as _;

/// One measured metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// One output or accounting check.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// Evidence, for the detailed report.
    pub detail: String,
}

/// Everything one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Measured metrics, end-to-end and per-layer alike.
    pub metrics: Vec<Metric>,
    /// Provenance and input sizes: `(key, JSON value)`.
    pub info: Vec<(String, String)>,
    /// Checks, in the order they ran.
    pub checks: Vec<Check>,
    /// Operations attempted (documents, requests, publish rounds).
    pub attempted: u64,
    /// Operations that errored, panicked or failed an output check.
    pub failed: u64,
}

impl Report {
    /// Records a metric (a later value for the same name replaces it).
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        self.metrics.retain(|m| m.name != name);
        self.metrics.push(Metric { name, value, unit });
    }

    /// Records a numeric or boolean provenance entry.
    pub fn info(&mut self, key: &str, value: impl std::fmt::Display) {
        self.info.push((key.to_string(), value.to_string()));
    }

    /// Records a string provenance entry.
    pub fn info_str(&mut self, key: &str, value: &str) {
        self.info.push((key.to_string(), quote(value)));
    }

    /// Records a check and returns whether it held.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) -> bool {
        self.checks.push(Check {
            name: name.to_string(),
            ok,
            detail: detail.into(),
        });
        ok
    }

    /// Adds to the operation counts.
    pub fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// True when every check held and every metric is a finite number.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok) && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The result line: `correct`, `attempted`, `failed`, and the metrics
    /// named in `wanted` (`(name, unit)`). A wanted metric the run did not
    /// record is an error when `required`, else reported as 0 — the layer
    /// did no work in this workload.
    pub fn result_line(&self, wanted: &[(&str, &str)], required: bool) -> Result<String, String> {
        let mut metrics = String::new();
        for (i, (name, unit)) in wanted.iter().enumerate() {
            let value = match self.metrics.iter().find(|m| m.name == *name) {
                Some(m) if m.unit == *unit => m.value,
                Some(m) => return Err(format!("{name} recorded in {} not {unit}", m.unit)),
                None if required => return Err(format!("metric {name} was not measured")),
                None => 0.0,
            };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}{}: {{\"value\": {}, \"unit\": {}}}",
                quote(name),
                num(value),
                quote(unit)
            );
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed
        ))
    }

    /// The detailed report as pretty JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"info\": {");
        for (i, (k, v)) in self.info.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            let _ = write!(out, "{sep}    {}: {v}", quote(k));
        }
        out.push_str("\n  },\n  \"correct\": ");
        let _ = write!(
            out,
            "{},\n  \"attempted\": {},\n  \"failed\": {},\n",
            self.correct(),
            self.attempted,
            self.failed
        );
        out.push_str("  \"metrics\": {");
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            let _ = write!(
                out,
                "{sep}    {}: {{\"value\": {}, \"unit\": {}}}",
                quote(&m.name),
                num(m.value),
                quote(m.unit)
            );
        }
        out.push_str("\n  },\n  \"checks\": [");
        for (i, c) in self.checks.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            let _ = write!(
                out,
                "{sep}    {{\"name\": {}, \"ok\": {}, \"detail\": {}}}",
                quote(&c.name),
                c.ok,
                quote(&c.detail)
            );
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// A human-readable summary.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.info {
            let _ = writeln!(out, "{k:>32}  {v}");
        }
        for m in &self.metrics {
            let _ = writeln!(out, "{:>40}  {} {}", m.name, num(m.value), m.unit);
        }
        for c in &self.checks {
            let _ = writeln!(
                out,
                "check {:<36} {}  {}",
                c.name,
                if c.ok { "ok" } else { "FAILED" },
                c.detail
            );
        }
        let _ = writeln!(
            out,
            "attempted {} failed {} correct {}",
            self.attempted,
            self.failed,
            self.correct()
        );
        out
    }
}

/// A JSON number with all its digits (`null` when not finite).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// A JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_lists_wanted_metrics_with_units() {
        let mut r = Report::default();
        r.metric("setup_s", 0.0125, "s");
        r.metric("latency_ms", 1.5, "ms");
        r.ops(10, 0);
        r.check("outputs", true, "");
        let line = r
            .result_line(&[("setup_s", "s"), ("latency_ms", "ms")], true)
            .unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.0125, \"unit\": \"s\"}, \"latency_ms\": {\"value\": 1.5, \"unit\": \"ms\"}}}"
        );
        assert!(r.result_line(&[("missing", "s")], true).is_err());
        assert!(r.result_line(&[("setup_s", "ms")], true).is_err());
        assert!(r
            .result_line(&[("idle_layer_us", "us")], false)
            .unwrap()
            .contains("\"value\": 0.0"));
    }

    #[test]
    fn a_failed_check_or_a_non_finite_metric_makes_the_run_incorrect() {
        let mut r = Report::default();
        r.check("a", true, "");
        assert!(r.correct());
        r.metric("x", f64::NAN, "ms");
        assert!(!r.correct());
        let mut r = Report::default();
        r.check("b", false, "mismatch");
        assert!(!r.correct());
        assert!(r.to_json().contains("\"ok\": false"));
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(quote("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
