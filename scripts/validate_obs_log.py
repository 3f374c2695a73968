#!/usr/bin/env python3
"""Validate a uavnet-obs JSON-lines event log and metrics snapshot.

Usage: validate_obs_log.py EVENTS.jsonl [METRICS.json] [--single-root]

Accepts the current schema, `uavnet-obs/3`, and checks the contract
downstream tooling (obs_diff, the CI artifact consumers) relies on. A
log or snapshot with any other schema id exits 2.

* every line is a self-contained JSON object with integer `seq`,
  integer `t_ns` and a known `type`;
* `seq` starts at 0 and increases strictly; `t_ns` never decreases;
* the log opens with exactly one `session_start` carrying the schema
  id and closes with exactly one `session_end`;
* `span` lines carry `name` (string) and `ns` (int); `counter` lines
  carry `name` and `value`; `run` lines carry `name` and a flat
  string->int `fields` object;
* the snapshot (if given) carries the same schema id and its counters
  equal the final `counter` events of the log;
* the `session_start` header carries provenance: string `git_sha`,
  string `features`, int `threads`, and an `instance_fingerprint`
  formatted as an 18-char `0x`-prefixed hex string;
* `span` lines carry a unique positive int `id`, `self_ns` with
  `0 <= self_ns <= ns`, and an optional int `parent_id` that
  references another span's `id` with `parent_id < id` (ids are
  allocated on span *entry*, so a parent always has the smaller id
  even though its event line — written on *exit* — appears later;
  the ordering also makes the parent relation acyclic by
  construction);
* with `--single-root`, exactly one span has no `parent_id` (the log
  is one rooted tree, as `sweep_report` produces);
* `hist` lines carry int `count`/`sum_ns`/`max_ns` and `buckets` as
  [upper_bound, cumulative_count] pairs with strictly increasing
  bounds and monotone non-decreasing cumulative counts ending at
  `count`;
* the snapshot's `provenance` equals the log header's, its phases
  report `self_ns <= total_ns` plus p50/p90/p99/max percentiles when
  non-empty, and its `hists` section agrees with the log's trailing
  `hist` events where names coincide;
* `span` lines carry a non-negative int `tid` (stable per-thread
  ordinal, so cross-thread span parenting is reconstructible);
* `gauge` lines carry `name` and a non-negative int `value`;
* the snapshot carries a `gauges` object agreeing with the log's
  trailing `gauge` events.

Exits 1 with a line-numbered message on the first violation.
"""

import json
import re
import sys

SCHEMA = "uavnet-obs/3"
TYPES = {"session_start", "session_end", "span", "counter", "run", "hist", "gauge"}
FINGERPRINT_RE = re.compile(r"^0x[0-9a-f]{16}$")


def fail(msg, code=1):
    print(f"validate_obs_log: {msg}", file=sys.stderr)
    sys.exit(code)


def check_schema(where, schema):
    if schema != SCHEMA:
        fail(f"{where}: unsupported schema {schema!r} (want {SCHEMA!r})", code=2)


def check_hist_fields(where, e):
    for key in ("count", "sum_ns", "max_ns"):
        if not isinstance(e.get(key), int) or e[key] < 0:
            fail(f"{where}: hist needs non-negative int {key!r}")
    buckets = e.get("buckets")
    if not isinstance(buckets, list):
        fail(f"{where}: hist needs a buckets array")
    prev_bound, prev_cum = -1, 0
    for pair in buckets:
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or not all(isinstance(x, int) for x in pair)
        ):
            fail(f"{where}: hist bucket {pair!r} is not an [int, int] pair")
        bound, cum = pair
        if bound <= prev_bound:
            fail(f"{where}: hist bucket bounds not strictly increasing at {bound}")
        if cum < prev_cum:
            fail(f"{where}: hist cumulative counts decrease at bound {bound}")
        prev_bound, prev_cum = bound, cum
    if buckets and prev_cum != e["count"]:
        fail(f"{where}: hist cumulative total {prev_cum} != count {e['count']}")
    if not buckets and e["count"] != 0:
        fail(f"{where}: hist count {e['count']} but no buckets")


def check_provenance_fields(where, e):
    if not isinstance(e.get("git_sha"), str) or not e["git_sha"]:
        fail(f"{where}: provenance needs a non-empty string git_sha")
    if not isinstance(e.get("features"), str):
        fail(f"{where}: provenance needs a string features list")
    if not isinstance(e.get("threads"), int) or e["threads"] < 1:
        fail(f"{where}: provenance needs a positive int threads")
    fp = e.get("instance_fingerprint")
    if not isinstance(fp, str) or not FINGERPRINT_RE.match(fp):
        fail(
            f"{where}: instance_fingerprint {fp!r} is not an 18-char "
            "0x-prefixed hex string"
        )


def validate_events(path, single_root):
    events = []
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                fail(f"{path}:{lineno}: blank line")
            try:
                e = json.loads(line)
            except json.JSONDecodeError as err:
                fail(f"{path}:{lineno}: invalid JSON: {err}")
            for key, ty in (("seq", int), ("t_ns", int), ("type", str)):
                if not isinstance(e.get(key), ty):
                    fail(f"{path}:{lineno}: missing/mistyped {key!r}")
            if e["type"] == "session_start":
                check_schema(f"{path}:{lineno}", e.get("schema"))
                check_provenance_fields(f"{path}:{lineno}", e)
            events.append((lineno, e))

    if not events:
        fail(f"{path}: empty log")
    if events[0][1]["type"] != "session_start":
        fail(f"{path}: log must open with session_start")
    span_ids = {}
    parent_refs = []
    roots = []
    hist_events = {}
    gauge_events = {}
    for lineno, e in events:
        where = f"{path}:{lineno}"
        if e["type"] not in TYPES:
            fail(f"{where}: unknown type {e['type']!r}")
        if e["type"] == "span":
            if not isinstance(e.get("name"), str) or not isinstance(e.get("ns"), int):
                fail(f"{where}: span needs string name and int ns")
            sid = e.get("id")
            if not isinstance(sid, int) or sid < 1:
                fail(f"{where}: span needs a positive int id")
            if sid in span_ids:
                fail(f"{where}: duplicate span id {sid}")
            span_ids[sid] = lineno
            self_ns = e.get("self_ns")
            if not isinstance(self_ns, int) or not 0 <= self_ns <= e["ns"]:
                fail(f"{where}: span needs int self_ns in [0, ns]")
            parent = e.get("parent_id")
            if parent is None:
                roots.append((lineno, e["name"]))
            else:
                if not isinstance(parent, int):
                    fail(f"{where}: span parent_id must be an int")
                if parent >= sid:
                    fail(
                        f"{where}: span parent_id {parent} >= id {sid} "
                        "(parents are entered, and numbered, first)"
                    )
                parent_refs.append((lineno, parent))
            tid = e.get("tid")
            if not isinstance(tid, int) or tid < 1:
                fail(f"{where}: span needs a positive int tid")
        if e["type"] == "gauge":
            if not isinstance(e.get("name"), str):
                fail(f"{where}: gauge needs a string name")
            value = e.get("value")
            if not isinstance(value, int) or value < 0:
                fail(f"{where}: gauge {e['name']!r} needs a non-negative int value")
            gauge_events[e["name"]] = value
        if e["type"] == "counter":
            if not isinstance(e.get("name"), str) or not isinstance(e.get("value"), int):
                fail(f"{where}: counter needs string name and int value")
        if e["type"] == "hist":
            if not isinstance(e.get("name"), str):
                fail(f"{where}: hist needs a string name")
            check_hist_fields(where, e)
            hist_events[e["name"]] = e
        if e["type"] == "run":
            fields = e.get("fields")
            if not isinstance(e.get("name"), str) or not isinstance(fields, dict):
                fail(f"{where}: run needs string name and fields object")
            for k, v in fields.items():
                if not isinstance(k, str) or not isinstance(v, int):
                    fail(f"{where}: run field {k!r} must map string->int")

    for (_, prev), (lineno, cur) in zip(events, events[1:]):
        if cur["seq"] <= prev["seq"]:
            fail(f"{path}:{lineno}: seq {cur['seq']} not after {prev['seq']}")
        if cur["t_ns"] < prev["t_ns"]:
            fail(f"{path}:{lineno}: t_ns went backwards")
    starts = [e for _, e in events if e["type"] == "session_start"]
    ends = [e for _, e in events if e["type"] == "session_end"]
    if len(starts) != 1:
        fail(f"{path}: expected exactly one session_start")
    if len(ends) != 1 or events[-1][1]["type"] != "session_end":
        fail(f"{path}: expected exactly one trailing session_end")
    if events[0][1]["seq"] != 0:
        fail(f"{path}: session_start must have seq 0")

    # Referential integrity: children close (and log) before their
    # parents, so a parent_id may point at a line appearing later —
    # resolve against the full id set.
    for lineno, parent in parent_refs:
        if parent not in span_ids:
            fail(f"{path}:{lineno}: span parent_id {parent} matches no span id")
    if single_root and len(roots) != 1:
        fail(
            f"{path}: expected exactly one root span, found "
            f"{[(n, l) for l, n in roots]}"
        )

    counters = {e["name"]: e["value"] for _, e in events if e["type"] == "counter"}
    return starts[0], counters, hist_events, gauge_events


def validate_metrics(path, session_start, final_counters, hist_events, gauge_events):
    with open(path) as f:
        snap = json.load(f)
    check_schema(path, snap.get("schema"))
    counters = snap.get("counters")
    phases = snap.get("phases")
    if not isinstance(counters, dict) or not isinstance(phases, dict):
        fail(f"{path}: needs counters and phases objects")
    for name, value in counters.items():
        if not isinstance(value, int) or value < 0:
            fail(f"{path}: counter {name!r} not a non-negative int")
    for name, p in phases.items():
        if not isinstance(p.get("total_ns"), int) or not isinstance(p.get("count"), int):
            fail(f"{path}: phase {name!r} needs int total_ns and count")
    if counters != final_counters:
        diff = {
            k: (final_counters.get(k), counters.get(k))
            for k in set(counters) | set(final_counters)
            if counters.get(k) != final_counters.get(k)
        }
        fail(f"{path}: snapshot counters diverge from the event log: {diff}")

    prov = snap.get("provenance")
    if not isinstance(prov, dict):
        fail(f"{path}: snapshot needs a provenance object")
    check_provenance_fields(path, prov)
    for key in ("git_sha", "features", "threads", "instance_fingerprint"):
        if prov.get(key) != session_start.get(key):
            fail(
                f"{path}: provenance {key!r} {prov.get(key)!r} != "
                f"log header {session_start.get(key)!r}"
            )
    for name, p in phases.items():
        if not isinstance(p.get("self_ns"), int) or p["self_ns"] > p["total_ns"]:
            fail(f"{path}: phase {name!r} needs int self_ns <= total_ns")
        if p["count"] > 0:
            for key in ("p50_ns", "p90_ns", "p99_ns", "max_ns"):
                if not isinstance(p.get(key), int):
                    fail(f"{path}: phase {name!r} with samples needs int {key}")
            if not p["p50_ns"] <= p["p90_ns"] <= p["p99_ns"] <= p["max_ns"]:
                fail(f"{path}: phase {name!r} percentiles not monotone")
    hists = snap.get("hists")
    if not isinstance(hists, dict):
        fail(f"{path}: snapshot needs a hists object")
    for name, h in hists.items():
        for key in ("count", "sum_ns", "p50_ns", "p90_ns", "p99_ns", "max_ns"):
            if not isinstance(h.get(key), int) or h[key] < 0:
                fail(f"{path}: hist {name!r} needs non-negative int {key}")
        if not h["p50_ns"] <= h["p90_ns"] <= h["p99_ns"] <= h["max_ns"]:
            fail(f"{path}: hist {name!r} percentiles not monotone")
        if name in hist_events and hist_events[name]["count"] != h["count"]:
            fail(
                f"{path}: hist {name!r} count {h['count']} != event-log "
                f"count {hist_events[name]['count']}"
            )

    gauges = snap.get("gauges")
    if not isinstance(gauges, dict):
        fail(f"{path}: snapshot needs a gauges object")
    for name, value in gauges.items():
        if not isinstance(value, int) or value < 0:
            fail(f"{path}: gauge {name!r} not a non-negative int")
        if name in gauge_events and gauge_events[name] != value:
            fail(
                f"{path}: gauge {name!r} value {value} != event-log "
                f"value {gauge_events[name]}"
            )


def main():
    args = [a for a in sys.argv[1:] if a != "--single-root"]
    single_root = "--single-root" in sys.argv[1:]
    if len(args) not in (1, 2):
        fail("usage: validate_obs_log.py EVENTS.jsonl [METRICS.json] [--single-root]")
    session_start, final_counters, hist_events, gauge_events = validate_events(
        args[0], single_root
    )
    if len(args) == 2:
        validate_metrics(args[1], session_start, final_counters, hist_events, gauge_events)
    print(f"validate_obs_log: ok — {len(final_counters)} counters, schema {SCHEMA}")


if __name__ == "__main__":
    main()
