//! `benchmark compare`: base runs against head runs, per metric and
//! workload, with the pair rule and the regression bounds of the table.
//!
//! * **improved** — head wins at least 9 of every 10 pairs (ties count
//!   for neither) and the medians differ by more than the base's
//!   interquartile range;
//! * **regressed** — head's median is worse than base's by more than
//!   the metric's bound (per-layer metrics, which have no bound: head
//!   loses 9 of 10 pairs and the medians differ by more than the base
//!   IQR);
//! * **unresolved** — neither, but the base's own spread is wider than
//!   the bound, unless every head run beats every base run;
//! * **unchanged** — otherwise.
//!
//! Failures count before any metric: a `failed_frac` row per workload
//! compares the share of failed attempts over all runs of each side,
//! with no tolerance. When head fails more often, that row regresses
//! and no metric of the workload counts as improved, since head was
//! judged only on the attempts that got through.
//!
//! Pairs are formed in the order the runs are given.

use crate::stats::quartiles;
use crate::table::{self, Better, Metric};
use std::collections::BTreeMap;
use uavnet_json::Json;

/// Share of pairs head must win for a significant difference.
const PAIR_WIN_SHARE: f64 = 0.9;

/// The outcome of comparing one metric on one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Head is better by the pair rule.
    Improved,
    /// Head is worse beyond the bound.
    Regressed,
    /// Base spread exceeds the bound, or head fails more often; no
    /// claim either way.
    Unresolved,
    /// Within the bound.
    Unchanged,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
            Verdict::Unchanged => "unchanged",
        }
    }
}

/// Applies the rules of the module docs to one metric's base and head
/// values (both non-empty).
pub fn verdict(metric: &Metric, base: &[f64], head: &[f64]) -> Verdict {
    let better = |a: f64, b: f64| match metric.better {
        Better::Lower => a < b,
        Better::Higher => a > b,
    };
    let (Some((b1, bm, b3)), Some((_, hm, _))) = (quartiles(base), quartiles(head)) else {
        return Verdict::Unresolved;
    };
    let pairs = base.len().min(head.len());
    let wins = |a: &[f64], b: &[f64]| a.iter().zip(b).filter(|&(&x, &y)| better(x, y)).count();
    let significant =
        |w: usize| w as f64 >= PAIR_WIN_SHARE * pairs as f64 && (hm - bm).abs() > b3 - b1;
    if significant(wins(head, base)) && better(hm, bm) {
        return Verdict::Improved;
    }
    let Some(bound) = metric.bound else {
        return if significant(wins(base, head)) && better(bm, hm) {
            Verdict::Regressed
        } else {
            Verdict::Unchanged
        };
    };
    let worse_by = match metric.better {
        Better::Lower => hm - bm,
        Better::Higher => bm - hm,
    };
    if worse_by > bound * bm.abs() {
        return Verdict::Regressed;
    }
    let all_head_better = head.iter().all(|&h| base.iter().all(|&b| better(h, b)));
    if b3 - b1 > bound * bm.abs() && !all_head_better {
        Verdict::Unresolved
    } else {
        Verdict::Unchanged
    }
}

/// One saved run.
#[derive(Debug, Clone)]
pub struct Run {
    /// Workload name.
    pub workload: String,
    /// Attempts in the measured phase.
    pub attempted: u64,
    /// Attempts that failed.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
}

fn load(path: &str) -> Result<Run, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let json = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let workload = json
        .get("workload")
        .and_then(Json::as_str)
        .ok_or_else(|| format!("{path}: no workload (write runs with --out)"))?;
    if json.get("correct") != Some(&Json::Bool(true)) {
        return Err(format!("{path}: the run was not correct"));
    }
    let count = |key: &str| {
        json.get(key)
            .and_then(Json::as_usize)
            .map(|n| n as u64)
            .ok_or_else(|| format!("{path}: no {key} count"))
    };
    let metrics = json
        .get("metrics")
        .and_then(Json::as_obj)
        .ok_or_else(|| format!("{path}: no metrics"))?
        .iter()
        .map(|(name, v)| {
            let value = v.get("value").and_then(Json::as_f64);
            value
                .map(|x| (name.clone(), x))
                .ok_or_else(|| format!("{path}: {name} has no value"))
        })
        .collect::<Result<_, _>>()?;
    Ok(Run {
        workload: workload.to_string(),
        attempted: count("attempted")?,
        failed: count("failed")?,
        metrics,
    })
}

/// One line of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: &'static str,
    /// Metric name, or `failed_frac`.
    pub metric: &'static str,
    /// Base and head columns, already formatted.
    pub base: String,
    /// See `base`.
    pub head: String,
    /// Pairs head won, and pairs formed.
    pub wins: (usize, usize),
    /// The verdict.
    pub verdict: Verdict,
}

fn fmt3((q1, m, q3): (f64, f64, f64)) -> String {
    format!("{m:.4} [{q1:.4}, {q3:.4}]")
}

/// Failed attempts over attempts, summed over `runs`.
fn failure_share(runs: &[&Run]) -> f64 {
    let failed: u64 = runs.iter().map(|r| r.failed).sum();
    let attempted: u64 = runs.iter().map(|r| r.attempted).sum();
    failed as f64 / attempted.max(1) as f64
}

fn runs_of<'a>(runs: &'a [Run], workload: &str) -> Vec<&'a Run> {
    runs.iter().filter(|r| r.workload == workload).collect()
}

/// Every row for the workloads and metrics both sides ran.
pub fn rows(base: &[Run], head: &[Run]) -> Vec<Row> {
    let mut out = Vec::new();
    for w in &table::WORKLOADS {
        let of = |runs| runs_of(runs, w.name);
        let (b_runs, h_runs) = (of(base), of(head));
        if b_runs.is_empty() || h_runs.is_empty() {
            continue;
        }
        let (b_share, h_share) = (failure_share(&b_runs), failure_share(&h_runs));
        let more_failures = h_share > b_share;
        let share_wins = b_runs
            .iter()
            .zip(&h_runs)
            .filter(|&(&b, &h)| failure_share(&[h]) < failure_share(&[b]))
            .count();
        out.push(Row {
            workload: w.name,
            metric: "failed_frac",
            base: format!("{b_share:.4}"),
            head: format!("{h_share:.4}"),
            wins: (share_wins, b_runs.len().min(h_runs.len())),
            verdict: if more_failures {
                Verdict::Regressed
            } else if h_share < b_share {
                Verdict::Improved
            } else {
                Verdict::Unchanged
            },
        });
        for m in table::END_TO_END.iter().chain(table::per_layer()) {
            let values = |runs: &[&Run]| -> Vec<f64> {
                runs.iter()
                    .filter_map(|r| r.metrics.get(m.name).copied())
                    .collect()
            };
            let (b, h) = (values(&b_runs), values(&h_runs));
            let (Some(bq), Some(hq)) = (quartiles(&b), quartiles(&h)) else {
                continue;
            };
            let mut v = verdict(m, &b, &h);
            if more_failures && v == Verdict::Improved {
                v = Verdict::Unresolved;
            }
            let wins = h
                .iter()
                .zip(&b)
                .filter(|&(&x, &y)| match m.better {
                    Better::Lower => x < y,
                    Better::Higher => x > y,
                })
                .count();
            out.push(Row {
                workload: w.name,
                metric: m.name,
                base: fmt3(bq),
                head: fmt3(hq),
                wins: (wins, b.len().min(h.len())),
                verdict: v,
            });
        }
    }
    out
}

/// Prints the comparison table; exit code 1 when anything regressed, 2
/// when a run file cannot be read.
pub fn run(base: &[String], head: &[String]) -> i32 {
    let load_all = |paths: &[String]| paths.iter().map(|p| load(p)).collect::<Result<Vec<_>, _>>();
    let (base, head) = match (load_all(base), load_all(head)) {
        (Ok(b), Ok(h)) => (b, h),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("benchmark compare: {e}");
            return 2;
        }
    };
    println!(
        "workload metric | base median [q1, q3] | head median [q1, q3] | head wins/pairs | verdict"
    );
    let rows = rows(&base, &head);
    for r in &rows {
        println!(
            "{} {} | {} | {} | {}/{} | {}",
            r.workload,
            r.metric,
            r.base,
            r.head,
            r.wins.0,
            r.wins.1,
            r.verdict.label()
        );
    }
    i32::from(rows.iter().any(|r| r.verdict == Verdict::Regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    const LATENCY: Metric = Metric {
        name: "latency_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: Some(0.10),
        note: "",
    };

    fn around(center: f64, jitter: f64) -> Vec<f64> {
        (0..10)
            .map(|i| center + jitter * (i as f64 - 4.5))
            .collect()
    }

    #[test]
    fn clear_speedup_is_improved() {
        assert_eq!(
            verdict(&LATENCY, &around(100.0, 0.5), &around(80.0, 0.5)),
            Verdict::Improved
        );
    }

    #[test]
    fn slowdown_beyond_the_bound_is_regressed() {
        assert_eq!(
            verdict(&LATENCY, &around(100.0, 0.5), &around(115.0, 0.5)),
            Verdict::Regressed
        );
    }

    #[test]
    fn small_slowdown_within_the_bound_is_unchanged() {
        assert_eq!(
            verdict(&LATENCY, &around(100.0, 0.5), &around(104.0, 0.5)),
            Verdict::Unchanged
        );
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved() {
        // Base quartiles span ~25% of the median.
        let noisy = around(100.0, 5.0);
        assert_eq!(
            verdict(&LATENCY, &noisy, &around(101.0, 5.0)),
            Verdict::Unresolved
        );
    }

    #[test]
    fn per_layer_metrics_use_the_pair_rule_alone() {
        let count = Metric {
            bound: None,
            ..LATENCY
        };
        assert_eq!(verdict(&count, &[5.0; 10], &[5.0; 10]), Verdict::Unchanged);
        assert_eq!(verdict(&count, &[5.0; 10], &[7.0; 10]), Verdict::Regressed);
        assert_eq!(verdict(&count, &[5.0; 10], &[4.0; 10]), Verdict::Improved);
    }

    fn runs(latencies: &[f64], failed: u64) -> Vec<Run> {
        latencies
            .iter()
            .map(|&ms| Run {
                workload: "plan-paper".into(),
                attempted: 100,
                failed,
                metrics: BTreeMap::from([("latency_p50_ms".to_string(), ms)]),
            })
            .collect()
    }

    fn row<'a>(rows: &'a [Row], metric: &str) -> &'a Row {
        rows.iter().find(|r| r.metric == metric).expect("row")
    }

    #[test]
    fn a_head_that_fails_more_regresses_and_claims_no_gain() {
        // Head sheds 10% of its attempts and is faster on the rest.
        let rows = rows(&runs(&around(100.0, 0.5), 0), &runs(&around(70.0, 0.5), 10));
        assert_eq!(row(&rows, "failed_frac").verdict, Verdict::Regressed);
        assert_eq!(row(&rows, "latency_p50_ms").verdict, Verdict::Unresolved);
    }

    #[test]
    fn equal_failure_shares_leave_the_metrics_alone() {
        let rows = rows(&runs(&around(100.0, 0.5), 0), &runs(&around(70.0, 0.5), 0));
        assert_eq!(row(&rows, "failed_frac").verdict, Verdict::Unchanged);
        assert_eq!(row(&rows, "latency_p50_ms").verdict, Verdict::Improved);
        assert!(rows.iter().all(|r| r.workload == "plan-paper"));
    }
}
