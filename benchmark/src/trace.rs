//! The benchmark's own spans, kept in memory and written at exit as
//! Chrome trace-event JSON (loadable in Perfetto). Spans are recorded
//! from timestamps the benchmark already takes around each call into a
//! layer; the program under test is not instrumented.

use std::time::Instant;
use uavnet_json::Json;

/// The thread a span ran on, shown as one Perfetto track each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Track {
    /// The calling thread: requests, solves, encodes and sends.
    Caller = 1,
    /// The publisher connection's reply reader.
    Acks = 2,
    /// The `deployments` subscriber.
    Frames = 3,
    /// The in-process replay after the wire run.
    Replay = 4,
}

impl Track {
    fn label(self) -> &'static str {
        match self {
            Track::Caller => "caller",
            Track::Acks => "acks",
            Track::Frames => "frames",
            Track::Replay => "replay",
        }
    }
}

/// One finished span.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    /// Request or delta id every span of that request shares.
    id: String,
    parent: Option<usize>,
    track: Track,
    start: Instant,
    end: Instant,
}

/// In-memory span store; `record` returns the span's index, which
/// children pass as their parent.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty store; timestamps are written relative to `origin`.
    pub fn new(origin: Instant) -> Self {
        Tracer {
            origin,
            spans: Vec::new(),
        }
    }

    /// Records a finished span and returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        id: &str,
        parent: Option<usize>,
        track: Track,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.spans.push(Span {
            name,
            id: id.to_string(),
            parent,
            track,
            start,
            end: end.max(start),
        });
        self.spans.len() - 1
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Chrome trace-event JSON: one complete (`"ph": "X"`) event per
    /// span with its id, index and parent index in `args`, plus track
    /// names.
    pub fn to_chrome_json(&self) -> String {
        let us = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as f64 / 1e3;
        let mut events: Vec<Json> = [Track::Caller, Track::Acks, Track::Frames, Track::Replay]
            .iter()
            .map(|&t| {
                Json::Obj(vec![
                    ("name".into(), Json::Str("thread_name".into())),
                    ("ph".into(), Json::Str("M".into())),
                    ("pid".into(), Json::Num(1.0)),
                    ("tid".into(), Json::Num(t as u8 as f64)),
                    (
                        "args".into(),
                        Json::Obj(vec![("name".into(), Json::Str(t.label().into()))]),
                    ),
                ])
            })
            .collect();
        for (index, s) in self.spans.iter().enumerate() {
            events.push(Json::Obj(vec![
                ("name".into(), Json::Str(s.name.into())),
                ("cat".into(), Json::Str("benchmark".into())),
                ("ph".into(), Json::Str("X".into())),
                ("ts".into(), Json::Num(us(s.start))),
                ("dur".into(), Json::Num(us(s.end) - us(s.start))),
                ("pid".into(), Json::Num(1.0)),
                ("tid".into(), Json::Num(s.track as u8 as f64)),
                (
                    "args".into(),
                    Json::Obj(vec![
                        ("id".into(), Json::Str(s.id.clone())),
                        ("span".into(), Json::Num(index as f64)),
                        (
                            "parent".into(),
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                    ]),
                ),
            ]));
        }
        Json::Obj(vec![
            ("traceEvents".into(), Json::Arr(events)),
            ("displayTimeUnit".into(), Json::Str("ms".into())),
        ])
        .dump_line()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use std::time::Duration;

    #[test]
    fn trace_parses_with_one_root_per_request_id() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let mut tracer = Tracer::new(t0);
        for (i, id) in ["req-0", "req-1"].iter().enumerate() {
            let base = 100 * i as u64;
            let root = tracer.record("request", id, None, Track::Caller, at(base), at(base + 50));
            tracer.record(
                "solve",
                id,
                Some(root),
                Track::Caller,
                at(base),
                at(base + 40),
            );
            tracer.record(
                "validate",
                id,
                Some(root),
                Track::Caller,
                at(base + 40),
                at(base + 50),
            );
        }
        let root = tracer.record("delta", "7", None, Track::Caller, at(300), at(320));
        tracer.record("frame", "7", Some(root), Track::Frames, at(301), at(320));
        tracer.record("apply", "7", Some(root), Track::Replay, at(400), at(410));

        let json = Json::parse(&tracer.to_chrome_json()).expect("trace is valid JSON");
        let events = json.get("traceEvents").and_then(Json::as_arr).unwrap();
        let spans: Vec<&Json> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .collect();
        assert_eq!(spans.len(), tracer.len());
        let mut roots: BTreeMap<&str, usize> = BTreeMap::new();
        for e in &spans {
            let args = e.get("args").unwrap();
            let id = args.get("id").and_then(Json::as_str).unwrap();
            let entry = roots.entry(id).or_default();
            match args.get("parent") {
                Some(Json::Null) => *entry += 1,
                Some(parent) => {
                    let p = parent.as_usize().unwrap();
                    let parent_id = spans[p].get("args").unwrap().get("id");
                    assert_eq!(parent_id.and_then(Json::as_str), Some(id));
                }
                None => panic!("span without a parent field"),
            }
            assert!(e.get("dur").and_then(Json::as_f64).unwrap() >= 0.0);
        }
        assert_eq!(
            roots,
            BTreeMap::from([("7", 1), ("req-0", 1), ("req-1", 1)])
        );
    }
}
