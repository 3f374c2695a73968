//! Golden tests of the three obs artifact encoders: the JSON-lines
//! event log ([`Event::to_json_line`]) is pinned byte for byte, the
//! metrics snapshot ([`MetricsSnapshot::to_json`]) and the Chrome
//! trace-event export ([`dump_trace_event`]) by the values they parse
//! to. Every event kind appears once, and the provenance `features`
//! string carries each character class the string escaper treats
//! specially.

use uavnet_json::Json;
use uavnet_obs::{
    dump_trace_event, Event, EventKind, HistStat, MetricsSnapshot, PhaseStat, Provenance,
};

fn provenance() -> Provenance {
    Provenance {
        git_sha: "1a2b3c4d5e6f".to_string(),
        features: "obs,\"q\"\\b\nl\tt\u{1}".to_string(),
        threads: 4,
        instance_fingerprint: 0x00d1_f5a2_b9c3_e870,
    }
}

fn events() -> Vec<Event> {
    let kinds = vec![
        (
            0,
            EventKind::SessionStart {
                provenance: provenance(),
            },
        ),
        (
            12_034,
            EventKind::Span {
                name: "alg1_plan",
                id: 2,
                parent_id: Some(1),
                tid: 1,
                ns: 11_020,
                self_ns: 11_020,
            },
        ),
        (
            15_000,
            EventKind::Span {
                name: "report",
                id: 1,
                parent_id: None,
                tid: 3,
                ns: 15_000,
                self_ns: 3_980,
            },
        ),
        (
            15_100,
            EventKind::Run {
                name: "sweep",
                fields: vec![("s", 2), ("served", 118)],
            },
        ),
        (
            15_200,
            EventKind::Counter {
                name: "sweep.gain_queries",
                value: 5_310,
            },
        ),
        (
            15_300,
            EventKind::Gauge {
                name: "service.queue_depth",
                value: 3,
            },
        ),
        (
            15_400,
            EventKind::Hist {
                name: "greedy.gain_query_ns",
                count: 5_310,
                sum_ns: 9_120_034,
                max_ns: 88_012,
                buckets: vec![(1_535, 12), (1_791, 940), (88_012, 5_310)],
            },
        ),
        (15_500, EventKind::SessionEnd),
    ];
    kinds
        .into_iter()
        .zip(0..)
        .map(|((t_ns, kind), seq)| Event { seq, t_ns, kind })
        .collect()
}

#[test]
fn event_lines_are_byte_exact() {
    let lines: Vec<String> = events().iter().map(Event::to_json_line).collect();
    let expected = [
        r#"{"seq":0,"t_ns":0,"type":"session_start","schema":"uavnet-obs/3","git_sha":"1a2b3c4d5e6f","features":"obs,\"q\"\\b\nl\tt\u0001","threads":4,"instance_fingerprint":"0x00d1f5a2b9c3e870"}"#,
        r#"{"seq":1,"t_ns":12034,"type":"span","name":"alg1_plan","id":2,"parent_id":1,"tid":1,"ns":11020,"self_ns":11020}"#,
        r#"{"seq":2,"t_ns":15000,"type":"span","name":"report","id":1,"tid":3,"ns":15000,"self_ns":3980}"#,
        r#"{"seq":3,"t_ns":15100,"type":"run","name":"sweep","fields":{"s":2,"served":118}}"#,
        r#"{"seq":4,"t_ns":15200,"type":"counter","name":"sweep.gain_queries","value":5310}"#,
        r#"{"seq":5,"t_ns":15300,"type":"gauge","name":"service.queue_depth","value":3}"#,
        r#"{"seq":6,"t_ns":15400,"type":"hist","name":"greedy.gain_query_ns","count":5310,"sum_ns":9120034,"max_ns":88012,"buckets":[[1535,12],[1791,940],[88012,5310]]}"#,
        r#"{"seq":7,"t_ns":15500,"type":"session_end"}"#,
    ];
    assert_eq!(lines, expected);
    // The escapes decode back to the original provenance string.
    let header = Json::parse(&lines[0]).expect("event line is JSON");
    assert_eq!(
        header.get("features").and_then(Json::as_str),
        Some(provenance().features.as_str())
    );
}

#[test]
fn snapshot_json_parses_to_expected_values() {
    let snapshot = MetricsSnapshot {
        provenance: provenance(),
        counters: vec![("sweep.gain_queries", 5_310), ("greedy.bound_hits", 120)],
        phases: vec![PhaseStat {
            name: "greedy",
            total_ns: 9_000,
            self_ns: 8_000,
            count: 3,
            p50_ns: 2_047,
            p90_ns: 4_095,
            p99_ns: 4_095,
            max_ns: 4_000,
        }],
        hists: vec![HistStat {
            name: "greedy.gain_query_ns",
            count: 5_310,
            sum_ns: 9_120_034,
            p50_ns: 1_791,
            p90_ns: 2_047,
            p99_ns: 8_191,
            max_ns: 88_012,
        }],
        gauges: vec![("service.queue_depth", 3)],
    };
    let expected = r#"{
  "schema": "uavnet-obs/3",
  "provenance": {
    "git_sha": "1a2b3c4d5e6f",
    "features": "obs,\"q\"\\b\nl\tt\u0001",
    "threads": 4,
    "instance_fingerprint": "0x00d1f5a2b9c3e870"
  },
  "counters": { "sweep.gain_queries": 5310, "greedy.bound_hits": 120 },
  "phases": {
    "greedy": { "total_ns": 9000, "self_ns": 8000, "count": 3,
                "p50_ns": 2047, "p90_ns": 4095, "p99_ns": 4095, "max_ns": 4000 }
  },
  "hists": {
    "greedy.gain_query_ns": { "count": 5310, "sum_ns": 9120034,
                              "p50_ns": 1791, "p90_ns": 2047, "p99_ns": 8191, "max_ns": 88012 }
  },
  "gauges": { "service.queue_depth": 3 }
}"#;
    let text = snapshot.to_json();
    assert!(text.ends_with('\n'), "the snapshot ends with a newline");
    assert_eq!(
        Json::parse(&text).expect("snapshot is JSON"),
        Json::parse(expected).unwrap()
    );
}

#[test]
fn trace_event_json_parses_to_expected_values() {
    let expected = r#"{"displayTimeUnit":"ms","traceEvents":[
{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"uavnet"}},
{"name":"session_start","cat":"session","ph":"i","s":"g","pid":1,"tid":0,"ts":0.000,"args":{"schema":"uavnet-obs/3","git_sha":"1a2b3c4d5e6f","features":"obs,\"q\"\\b\nl\tt\u0001","threads":4,"instance_fingerprint":"0x00d1f5a2b9c3e870"}},
{"name":"alg1_plan","cat":"span","ph":"X","pid":1,"tid":1,"ts":1.014,"dur":11.020,"args":{"id":2,"parent_id":1,"self_ns":11020}},
{"name":"report","cat":"span","ph":"X","pid":1,"tid":3,"ts":0.000,"dur":15.000,"args":{"id":1,"self_ns":3980}},
{"name":"sweep","cat":"run","ph":"i","s":"g","pid":1,"tid":0,"ts":15.100,"args":{"s":2,"served":118}},
{"name":"sweep.gain_queries","cat":"metric","ph":"C","pid":1,"tid":0,"ts":15.200,"args":{"value":5310}},
{"name":"service.queue_depth","cat":"metric","ph":"C","pid":1,"tid":0,"ts":15.300,"args":{"value":3}},
{"name":"session_end","cat":"session","ph":"i","s":"g","pid":1,"tid":0,"ts":15.500}
]}"#;
    let text = dump_trace_event(&events());
    assert!(text.ends_with('\n'), "the trace ends with a newline");
    assert_eq!(
        Json::parse(&text).expect("trace is JSON"),
        Json::parse(expected).unwrap()
    );
}

/// Whether `line` reads `name{label="value",…} number` (or `name
/// number`), with label values escaped as the Prometheus text format
/// requires: only `\\`, `\"` and `\n` may follow a backslash, and a
/// bare `"` ends the value.
fn is_prometheus_sample(line: &str) -> bool {
    let ident = |s: &str| {
        !s.is_empty()
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
            && !s.starts_with(|c: char| c.is_ascii_digit())
    };
    let (series, value) = match line.rsplit_once(' ') {
        Some(split) => split,
        None => return false,
    };
    if value.parse::<f64>().is_err() {
        return false;
    }
    let Some((name, labels)) = series.split_once('{') else {
        return ident(series);
    };
    if !ident(name) {
        return false;
    }
    let mut rest = labels;
    loop {
        let Some((label, after)) = rest.split_once("=\"") else {
            return false;
        };
        if !ident(label) {
            return false;
        }
        let mut chars = after.char_indices();
        let end = loop {
            match chars.next() {
                Some((_, '\\')) => match chars.next() {
                    Some((_, '\\' | '"' | 'n')) => {}
                    _ => return false,
                },
                Some((i, '"')) => break i,
                Some(_) => {}
                None => return false,
            }
        };
        rest = &after[end + 1..];
        if rest == "}" {
            return true;
        }
        match rest.strip_prefix(',') {
            Some(next) => rest = next,
            None => return false,
        }
    }
}

#[test]
fn prometheus_label_values_are_escaped() {
    let snapshot = MetricsSnapshot {
        provenance: Provenance {
            features: "obs,\"quoted\"\nsecond".to_string(),
            ..provenance()
        },
        counters: vec![("sweep.gain_queries", 5_310)],
        phases: vec![PhaseStat {
            name: "greedy",
            total_ns: 9_000,
            self_ns: 8_000,
            count: 3,
            p50_ns: 2_047,
            p90_ns: 4_095,
            p99_ns: 4_095,
            max_ns: 4_000,
        }],
        hists: vec![HistStat {
            name: "greedy.gain_query_ns",
            count: 5_310,
            sum_ns: 9_120_034,
            p50_ns: 1_791,
            p90_ns: 2_047,
            p99_ns: 8_191,
            max_ns: 88_012,
        }],
        gauges: vec![("service.queue_depth", 3)],
    };
    let text = snapshot.to_prometheus();
    for line in text.lines().filter(|l| !l.starts_with('#')) {
        assert!(is_prometheus_sample(line), "malformed sample line {line:?}");
    }
    assert!(
        text.contains(r#"features="obs,\"quoted\"\nsecond""#),
        "{text}"
    );
}
