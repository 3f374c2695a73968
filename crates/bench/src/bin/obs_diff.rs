//! Snapshot-diff regression gate over `uavnet-obs` metric snapshots
//! (`sweep_report --obs-metrics` / `service_report --obs-metrics`
//! output), generalized to a per-scale baseline matrix: any number of
//! BASELINE CURRENT pairs is compared in one invocation and any
//! failing pair fails the run.
//!
//! Compares each CURRENT against its BASELINE and exits nonzero when
//! a gated metric drifted beyond its relative tolerance. Gated by
//! default are the *deterministic* metrics — counters, phase
//! invocation counts, and histogram sample counts — which for a
//! pinned scenario and pinned CLI flags are exact integers
//! independent of machine speed and thread count; any drift means the
//! algorithm's work profile changed, which is exactly what the gate
//! exists to catch (an intentional change regenerates the committed
//! baseline). Failure counters (`*.failures`, `*.panics`) are
//! special-cased: any increase fails regardless of tolerance.
//! Wall-clock-dependent counters (`service.slow_deltas`, which
//! compares elapsed time against a threshold) are excluded from the
//! deterministic gate entirely. Timing metrics (`*_ns` totals,
//! self-times, percentiles) are machine-dependent and not compared;
//! wall-clock regressions are the end-to-end benchmark's job.
//!
//! Usage:
//!
//! ```text
//! obs_diff BASELINE.json CURRENT.json [BASELINE2.json CURRENT2.json]...
//!          [--tol REL]              # default drift tolerance (default 0.10)
//!          [--tol-metric NAME=REL]  # per-metric override, repeatable
//! ```
//!
//! Exit codes: 0 pass, 1 regression, 2 usage/parse error.

use std::collections::BTreeMap;
use std::process::ExitCode;

use uavnet_bench::report::{Args, Harness};
use uavnet_json::Json;

const HARNESS: Harness = Harness {
    name: "obs_diff",
    usage: "usage: obs_diff BASELINE.json CURRENT.json [BASELINE2.json CURRENT2.json]... \
            [--tol REL] [--tol-metric NAME=REL]...",
};

struct Options {
    /// (baseline, current) snapshot pairs, gated independently.
    pairs: Vec<(String, String)>,
    tol: f64,
    per_metric: BTreeMap<String, f64>,
}

#[derive(PartialEq)]
enum Status {
    Ok,
    Fail,
    Note,
}

struct Row {
    name: String,
    base: Option<f64>,
    cur: Option<f64>,
    status: Status,
    note: String,
}

fn parse_args(args: &mut Args) -> Result<Options, String> {
    let mut positional = Vec::new();
    let mut opts = Options {
        pairs: Vec::new(),
        tol: 0.10,
        per_metric: BTreeMap::new(),
    };
    while let Some(arg) = args.next_flag() {
        match arg.as_str() {
            "--tol" => opts.tol = args.number(&arg)?,
            "--tol-metric" => {
                let spec = args.value(&arg)?;
                let (name, rel) = spec
                    .split_once('=')
                    .ok_or_else(|| format!("--tol-metric wants NAME=REL, got {spec:?}"))?;
                let rel = rel
                    .parse()
                    .map_err(|_| format!("--tol-metric expects a number, got {rel:?}"))?;
                opts.per_metric.insert(name.to_string(), rel);
            }
            other if other.starts_with('-') => return Err(format!("unknown flag {other:?}")),
            other => positional.push(other.to_string()),
        }
    }
    if positional.is_empty() || positional.len() % 2 != 0 {
        return Err("expects BASELINE CURRENT pairs".to_string());
    }
    let mut it = positional.into_iter();
    while let (Some(b), Some(c)) = (it.next(), it.next()) {
        opts.pairs.push((b, c));
    }
    Ok(opts)
}

fn load(path: &str) -> Json {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| HARNESS.refuse(&format!("cannot read {path}: {e}")));
    let doc = Json::parse(&text)
        .unwrap_or_else(|e| HARNESS.refuse(&format!("{path} is not valid JSON: {e}")));
    if let Err(msg) = check_schema(&doc) {
        HARNESS.refuse(&format!("{path} {msg}"));
    }
    doc
}

/// Accepts only snapshots of the current obs schema.
fn check_schema(doc: &Json) -> Result<(), String> {
    match doc.get("schema").and_then(Json::as_str) {
        Some(uavnet_obs::SCHEMA) => Ok(()),
        Some(other) => Err(format!(
            "has unsupported schema {other:?} (want {:?})",
            uavnet_obs::SCHEMA
        )),
        None => Err("has no \"schema\" field — not an obs snapshot".into()),
    }
}

/// Counters whose value depends on wall-clock time, not on the work
/// profile — excluded from the deterministic gate.
const TIMING_DEPENDENT_COUNTERS: &[&str] = &["service.slow_deltas"];

/// Flattens the gated (deterministic) metrics of a snapshot:
/// `counters.*`, `phases.<name>.count`, `hists.<name>.count`.
fn gated_metrics(doc: &Json) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    if let Some(counters) = doc.get("counters").and_then(Json::as_obj) {
        for (name, v) in counters {
            if TIMING_DEPENDENT_COUNTERS.contains(&name.as_str()) {
                continue;
            }
            if let Some(n) = v.as_f64() {
                out.insert(name.clone(), n);
            }
        }
    }
    for (section, field) in [("phases", "count"), ("hists", "count")] {
        if let Some(obj) = doc.get(section).and_then(Json::as_obj) {
            for (name, v) in obj {
                if let Some(n) = v.get(field).and_then(Json::as_f64) {
                    out.insert(format!("{section}.{name}.{field}"), n);
                }
            }
        }
    }
    out
}

fn is_failure_counter(name: &str) -> bool {
    name.ends_with(".failures") || name.ends_with(".panics") || name.contains("poisoned")
}

fn rel_change(base: f64, cur: f64) -> f64 {
    (cur - base) / base.abs().max(1.0)
}

fn compare(base: &BTreeMap<String, f64>, cur: &BTreeMap<String, f64>, opts: &Options) -> Vec<Row> {
    let mut rows = Vec::new();
    for (name, &b) in base {
        let tol = *opts.per_metric.get(name).unwrap_or(&opts.tol);
        match cur.get(name) {
            None => rows.push(Row {
                name: name.clone(),
                base: Some(b),
                cur: None,
                status: Status::Fail,
                note: "metric disappeared".into(),
            }),
            Some(&c) => {
                let drift = rel_change(b, c);
                let (status, note) = if is_failure_counter(name) {
                    if c > b {
                        (Status::Fail, format!("failure counter rose {b} -> {c}"))
                    } else {
                        (Status::Ok, String::new())
                    }
                } else if drift.abs() > tol {
                    (
                        Status::Fail,
                        format!("drift {:+.1}% exceeds ±{:.1}%", drift * 100.0, tol * 100.0),
                    )
                } else {
                    (Status::Ok, String::new())
                };
                rows.push(Row {
                    name: name.clone(),
                    base: Some(b),
                    cur: Some(c),
                    status,
                    note,
                });
            }
        }
    }
    for (name, &c) in cur {
        if !base.contains_key(name) {
            rows.push(Row {
                name: name.clone(),
                base: None,
                cur: Some(c),
                status: Status::Note,
                note: "new metric (not in baseline)".into(),
            });
        }
    }
    rows
}

fn fmt_value(v: Option<f64>) -> String {
    match v {
        None => "-".into(),
        Some(v) if v.fract() == 0.0 && v.abs() < 1e15 => format!("{}", v as i64),
        Some(v) => format!("{v:.3}"),
    }
}

fn print_rows(rows: &[Row]) {
    for r in rows {
        let delta = match (r.base, r.cur) {
            (Some(b), Some(c)) => format!("{:+.2}%", rel_change(b, c) * 100.0),
            _ => "-".into(),
        };
        let mark = match r.status {
            Status::Ok => "ok  ",
            Status::Fail => "FAIL",
            Status::Note => "note",
        };
        println!(
            "{mark}  {:<40} {:>14} {:>14} {:>9}  {}",
            r.name,
            fmt_value(r.base),
            fmt_value(r.cur),
            delta,
            r.note
        );
    }
}

fn provenance_line(doc: &Json) -> String {
    let field = |key: &str| doc.get("provenance").and_then(|p| p.get(key));
    format!(
        "git {} features [{}] threads {} instance {}",
        field("git_sha").and_then(Json::as_str).unwrap_or("?"),
        field("features").and_then(Json::as_str).unwrap_or(""),
        fmt_value(field("threads").and_then(Json::as_f64)),
        field("instance_fingerprint")
            .and_then(Json::as_str)
            .unwrap_or("?"),
    )
}

fn fingerprint(doc: &Json) -> Option<String> {
    doc.get("provenance")?
        .get("instance_fingerprint")?
        .as_str()
        .map(str::to_string)
}

/// Gates one BASELINE/CURRENT pair; returns whether it failed.
fn diff_pair(baseline: &str, current: &str, opts: &Options) -> bool {
    let base_doc = load(baseline);
    let cur_doc = load(current);

    println!("baseline: {baseline}");
    println!("          {}", provenance_line(&base_doc));
    println!("current:  {current}");
    println!("          {}", provenance_line(&cur_doc));
    println!();

    if let (Some(bf), Some(cf)) = (fingerprint(&base_doc), fingerprint(&cur_doc)) {
        if bf != cf {
            println!(
                "note  instance fingerprint mismatch ({bf} vs {cf}): \
                 the runs measured different instances, counter drift is expected"
            );
            println!();
        }
    }

    let rows = compare(&gated_metrics(&base_doc), &gated_metrics(&cur_doc), opts);
    println!(
        "deterministic metrics (gated, tol {:.0}%):",
        opts.tol * 100.0
    );
    print_rows(&rows);
    rows.iter().any(|r| r.status == Status::Fail)
}

fn main() -> ExitCode {
    let opts = HARNESS.options(parse_args);
    let mut failed_pairs = Vec::new();
    for (i, (baseline, current)) in opts.pairs.iter().enumerate() {
        if opts.pairs.len() > 1 {
            println!("=== pair {}/{} ===", i + 1, opts.pairs.len());
        }
        if diff_pair(baseline, current, &opts) {
            failed_pairs.push(current.clone());
        }
        println!();
    }
    if !failed_pairs.is_empty() {
        println!(
            "obs_diff: REGRESSION — gated metrics drifted beyond tolerance in {}",
            failed_pairs.join(", ")
        );
        ExitCode::from(1)
    } else {
        println!("obs_diff: ok ({} pair(s))", opts.pairs.len());
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_the_current_schema_is_accepted() {
        let snapshot = |schema: &str| Json::parse(&format!(r#"{{"schema":"{schema}"}}"#)).unwrap();
        assert!(check_schema(&snapshot(uavnet_obs::SCHEMA)).is_ok());
        let err = check_schema(&snapshot("uavnet-obs/2")).unwrap_err();
        assert!(err.contains("unsupported schema \"uavnet-obs/2\""), "{err}");
        assert!(check_schema(&Json::parse("{}").unwrap()).is_err());
    }
}
