//! What one run found: correctness, attempt and failure counts, and the
//! measured values, printed as `name value unit (n=samples)` lines and
//! one final JSON object.

use crate::table::Metric;
use std::collections::BTreeMap;
use uavnet_json::Json;

/// A measured value and the number of samples behind it.
#[derive(Debug, Clone, Copy)]
pub struct Value {
    /// The value in the metric's unit.
    pub value: f64,
    /// Samples it was derived from.
    pub samples: usize,
}

/// The findings of one run.
#[derive(Debug, Default)]
pub struct Report {
    /// Requests or deltas attempted in the measured phase.
    pub attempted: u64,
    /// Attempts that failed: solver errors, `Busy`/`Error` replies,
    /// missing or mismatched frames.
    pub failed: u64,
    /// Correctness violations; any one makes the run incorrect.
    pub problems: Vec<String>,
    values: BTreeMap<&'static str, Value>,
}

impl Report {
    /// Stores a metric value; `None` (no samples) is recorded as a
    /// problem, since every listed metric must be measured.
    pub fn set(&mut self, name: &'static str, value: Option<f64>, samples: usize) {
        match value {
            Some(value) if value.is_finite() => {
                self.values.insert(name, Value { value, samples });
            }
            _ => self
                .problems
                .push(format!("{name}: no finite value measured")),
        }
    }

    /// Records a correctness violation unless `ok`.
    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(problem());
        }
    }

    /// Whether every check held.
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// The value of `name`, if measured.
    pub fn get(&self, name: &str) -> Option<Value> {
        self.values.get(name).copied()
    }

    /// The human-readable lines and the result object for `metrics`. A
    /// listed metric that was not measured is a problem.
    pub fn render<'a>(&mut self, metrics: impl Iterator<Item = &'a Metric>) -> (String, Json) {
        let mut lines = String::new();
        let mut members = Vec::new();
        for m in metrics {
            let Some(v) = self.get(m.name) else {
                self.problems.push(format!("{}: not measured", m.name));
                continue;
            };
            lines.push_str(&format!(
                "{} {} {} (n={})\n",
                m.name, v.value, m.unit, v.samples
            ));
            members.push((
                m.name.to_string(),
                Json::Obj(vec![
                    ("value".into(), Json::Num(v.value)),
                    ("unit".into(), Json::Str(m.unit.into())),
                ]),
            ));
        }
        for p in &self.problems {
            lines.push_str(&format!("INCORRECT: {p}\n"));
        }
        let result = Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), Json::Num(self.attempted.max(1) as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("metrics".into(), Json::Obj(members)),
        ]);
        (lines, result)
    }
}

/// Peak resident set (`VmHWM`) of this process in MiB, from
/// `/proc/self/status`.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
