//! Tracing/metrics facade for the `uavnet` pipeline. Its one
//! dependency is `uavnet-json`, which writes every artifact.
//!
//! Every solver phase — Algorithm 1 segment planning, seed
//! enumeration, lazy-greedy selection, matching, MST/gateway
//! connection, the verify oracles — reports into this crate through
//! four primitives:
//!
//! * [`Counter`] — a named monotone `u64` (gain queries, BFS restarts,
//!   CELF bound hits, …). All counters are declared centrally in
//!   [`counters`] so a snapshot can enumerate them without life-before-
//!   main registration tricks. A counter is the obs view of a number
//!   some solver record owns; the solver derives it from that record
//!   in one place, and the kernel crates (`uavnet-flow`,
//!   `uavnet-matroid`, `uavnet-graph`) never depend on this crate.
//! * [`Phase`] — a named wall-clock accumulator (`total_ns`,
//!   `self_ns`, `count`, plus a latency [`Histogram`] of the recorded
//!   durations), fed either by a [`SpanGuard`] (RAII timing of one
//!   call, participating in the span tree) or by [`Phase::record_ns`]
//!   when the caller already aggregated timings (the subset sweep
//!   folds per-worker phase nanos first and reports once). Declared
//!   centrally in [`phases`].
//! * [`LatencyHist`] — a named log-linear [`Histogram`] for
//!   per-operation latencies too frequent for the event log
//!   (per-gain-query, per-tile, per-subscriber-write). A span phase
//!   already histograms its own durations, so a [`LatencyHist`] times
//!   only what no phase does. Recording is a few relaxed
//!   atomics and emits **no** events; percentiles surface in the
//!   [`MetricsSnapshot`] and as `hist` lines at session end. Declared
//!   centrally in [`hists`].
//! * [`Event`] — a structured record appended to the in-memory session
//!   log and exportable as JSON-lines ([`Event::to_json_line`]):
//!   session boundaries, span completions, histogram dumps, and
//!   per-run records with arbitrary `u64` fields ([`emit_run`]).
//!
//! # Span trees
//!
//! Every [`SpanGuard`] carries a session-unique `id` and the `id` of
//! the innermost span still open **on the same thread** (a
//! thread-local parent stack), so span events form a forest — one
//! rooted tree per top-level span. On drop, a span knows how much of
//! its elapsed time was consumed by same-thread child spans and
//! reports the remainder as **self-time**, giving flamegraph-style
//! attribution across `alg1_plan → enumeration → greedy → matching →
//! connection` without any post-processing. [`Phase::record_ns`]
//! events (pre-aggregated, cross-thread sums) attach to the tree under
//! the caller's current span for attribution, but do **not** subtract
//! from the parent's wall-clock self-time — a sum over `T` worker
//! threads can legitimately exceed the parent's elapsed time, so their
//! `self_ns` equals their `ns` and the parent's self-time stays a
//! same-thread wall-clock quantity.
//!
//! # Sessions
//!
//! Recording is **off** until [`session_begin`] stamps the caller's
//! [`Provenance`] and flips the global active flag; [`session_end`]
//! flips it back and returns a [`MetricsSnapshot`] of every counter,
//! phase and histogram. The embedder that begins a session owns it:
//! library code (the solver service included) records into whatever
//! session is active and never begins or ends one. Instrumentation
//! call sites never check the flag
//! themselves — [`Counter::add`], [`Phase::span`], [`LatencyHist`]
//! timers and [`emit_run`] are no-ops while inactive — so enabling a
//! session changes *observation only*, never solver behavior
//! (`tests/proptest_obs.rs` proves placements, assignments and
//! deterministic stats are bit-identical either way).
//!
//! All internal locks recover from poisoning via
//! `PoisonError::into_inner`: a sweep worker that panics mid-record
//! can never turn an obs lock into a second panic in the thread that
//! joins it and keeps reporting.
//!
//! # Compile-time gating
//!
//! Without the `enabled` cargo feature every public function keeps its
//! signature but compiles to an inlined empty body: no atomics, no
//! clock reads, no branches on the hot path. The solver crates expose
//! this as their `obs` feature (e.g. `uavnet-core/obs`); the perf gate
//! in CI runs with the feature off and must see zero overhead. The
//! [`Histogram`] *type* stays available in both builds (it is a plain
//! concurrent data structure); only the global instrumentation is
//! gated.
//!
//! # Event schema (`uavnet-obs/3`)
//!
//! One JSON object per line, every line carrying `seq` (global
//! sequence number), `t_ns` (nanoseconds since session start) and
//! `type`:
//!
//! ```json
//! {"seq":0,"t_ns":0,"type":"session_start","schema":"uavnet-obs/3","git_sha":"1a2b3c4d5e6f","features":"enabled","threads":8,"instance_fingerprint":"0x00d1f5a2b9c3e870"}
//! {"seq":1,"t_ns":12034,"type":"span","name":"alg1_plan","id":2,"parent_id":1,"tid":1,"ns":11020,"self_ns":11020}
//! {"seq":2,"t_ns":842113,"type":"run","name":"sweep","fields":{"s":2,"served":118}}
//! {"seq":3,"t_ns":850010,"type":"counter","name":"sweep.gain_queries","value":5310}
//! {"seq":4,"t_ns":850200,"type":"gauge","name":"service.queue_depth","value":3}
//! {"seq":5,"t_ns":850400,"type":"hist","name":"greedy.gain_query_ns","count":5310,"sum_ns":9120034,"max_ns":88012,"buckets":[[1535,12],[1791,940],[88012,5310]]}
//! {"seq":6,"t_ns":851090,"type":"session_end"}
//! ```
//!
//! Span `id`s are unique within a session and `parent_id` (omitted for
//! roots) always references another span of the same log — children
//! close before their parents, so the referenced span's own line
//! appears *later*. Schema 3 adds: a `tid` on span lines (a stable
//! per-thread ordinal, so a viewer can lay spans out on thread
//! tracks), explicit cross-thread parents ([`Phase::span_under`] lets
//! a span on one thread attach under a [`SpanHandle`] captured on
//! another — `parent_id < id` and referential integrity still hold
//! because ids are allocated on entry), `gauge` lines for the
//! last-value [`Gauge`] metrics, and the [`dump_trace_event`] exporter
//! rendering the span forest as a Chrome trace-event (Perfetto
//! loadable) JSON document. `hist` buckets are `[inclusive_upper_bound,
//! cumulative_count]` pairs with strictly increasing bounds and
//! monotone counts. `counter`, `gauge` and `hist` lines are emitted
//! once per declared metric by [`session_end`], so a complete log
//! always ends with the final values followed by `session_end`.
//! `scripts/validate_obs_log.py` checks all of it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod hist;

pub use hist::{bucket_index, bucket_lower, bucket_upper, Histogram, Quantiles, NUM_BUCKETS};

#[cfg(feature = "enabled")]
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
#[cfg(feature = "enabled")]
use std::sync::{Mutex, MutexGuard};
#[cfg(feature = "enabled")]
use std::time::Instant;
use uavnet_json::Json;

/// Schema identifier stamped on session-start events and snapshots.
pub const SCHEMA: &str = "uavnet-obs/3";

static ACTIVE: AtomicBool = AtomicBool::new(false);

#[cfg(feature = "enabled")]
static SEQ: AtomicU64 = AtomicU64::new(0);

/// Next span id; 0 is reserved as "no span" so ids start at 1.
#[cfg(feature = "enabled")]
static SPAN_NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// Bumped by every `session_begin` so thread-local span stacks from a
/// previous session are recognized as stale and discarded.
#[cfg(feature = "enabled")]
static SESSION_EPOCH: AtomicU64 = AtomicU64::new(0);

#[cfg(feature = "enabled")]
static EVENTS: Mutex<Vec<Event>> = Mutex::new(Vec::new());

#[cfg(feature = "enabled")]
static SESSION_START: Mutex<Option<Instant>> = Mutex::new(None);

#[cfg(feature = "enabled")]
static PROVENANCE: Mutex<Option<Provenance>> = Mutex::new(None);

/// Locks a mutex, recovering the guard from a poisoned lock: a worker
/// that panicked while recording must never escalate into a second
/// panic at the next observation site (the event log is append-only
/// `u64`/`Vec` state, so the worst a poisoned lock can hide is a
/// half-appended session from the panicking thread — which the
/// validator would flag, not corrupt memory).
#[cfg(feature = "enabled")]
fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// One frame of the thread-local parent stack: the open span's id and
/// the nanoseconds its already-closed same-thread children consumed.
#[cfg(feature = "enabled")]
struct Frame {
    id: u64,
    child_ns: u64,
}

#[cfg(feature = "enabled")]
thread_local! {
    /// `(session epoch, open spans innermost-last)` for this thread.
    static SPAN_STACK: RefCell<(u64, Vec<Frame>)> = const { RefCell::new((0, Vec::new())) };
}

/// Process-global thread ordinal allocator for span `tid`s. Ordinals
/// start at 1 and are *not* reset per session: a `tid` identifies a
/// thread for trace layout, not a session-scoped object, and resetting
/// would let two live threads share an ordinal.
#[cfg(feature = "enabled")]
static THREAD_NEXT_ORDINAL: AtomicU64 = AtomicU64::new(1);

#[cfg(feature = "enabled")]
thread_local! {
    /// Lazily-assigned stable ordinal of this thread (0 = unassigned).
    static THREAD_ORDINAL: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// A small stable ordinal for the calling thread, assigned on first
/// use. Spans carry it as `tid` so a trace viewer can lay them out on
/// per-thread tracks.
#[cfg(feature = "enabled")]
fn thread_ordinal() -> u64 {
    THREAD_ORDINAL.with(|t| {
        if t.get() == 0 {
            t.set(THREAD_NEXT_ORDINAL.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

/// Whether the instrumentation was compiled in (the `enabled` cargo
/// feature). When `false`, every other function in this crate is an
/// inlined no-op.
#[inline]
pub const fn is_enabled() -> bool {
    cfg!(feature = "enabled")
}

/// Whether a recording session is currently active.
#[inline]
pub fn session_active() -> bool {
    is_enabled() && ACTIVE.load(Ordering::Relaxed)
}

/// Run provenance stamped on the `session_start` event and the
/// [`MetricsSnapshot`], so two recorded runs can be compared knowing
/// *what* produced them (`obs_diff` refuses nothing but prints all of
/// it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Provenance {
    /// Git commit of the build (`UAVNET_GIT_SHA` build-time env,
    /// `"unknown"` outside a git checkout).
    pub git_sha: String,
    /// Comma-separated cargo features relevant to the run. Defaults to
    /// this crate's own gate; binaries widen it with theirs.
    pub features: String,
    /// Worker/available threads for the run.
    pub threads: u64,
    /// FNV-1a fingerprint of the problem instance(s), 0 when not
    /// supplied (see `Instance::fingerprint` in `uavnet-core`).
    pub instance_fingerprint: u64,
}

impl Provenance {
    /// Provenance derivable without caller input: build git SHA, this
    /// crate's feature gate, and `std::thread::available_parallelism`.
    /// The instance fingerprint is 0 until the caller sets it before
    /// [`session_begin`].
    pub fn detect() -> Self {
        Provenance {
            git_sha: env!("UAVNET_GIT_SHA").to_string(),
            features: if cfg!(feature = "enabled") {
                "enabled".to_string()
            } else {
                String::new()
            },
            threads: std::thread::available_parallelism()
                .map(|n| n.get() as u64)
                .unwrap_or(1),
            instance_fingerprint: 0,
        }
    }
}

/// Why [`session_begin`] could not start a session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionError {
    /// The `enabled` feature is compiled out; recording is impossible
    /// in this build.
    Disabled,
    /// A session is already recording. Sessions are re-entrant
    /// sequentially (begin → end → begin again in one process), never
    /// concurrently — end the active one first.
    AlreadyActive,
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::Disabled => {
                write!(
                    f,
                    "obs instrumentation compiled out (feature `enabled` off)"
                )
            }
            SessionError::AlreadyActive => {
                write!(f, "an obs session is already active (double session_begin)")
            }
        }
    }
}

impl std::error::Error for SessionError {}

/// Starts a recording session: resets every counter, phase, histogram
/// and the event log, stamps `provenance` ([`Provenance::detect`] plus
/// whatever the caller knows) on the log's `session_start` header,
/// then activates recording.
///
/// Sessions are re-entrant within one process: begin → end → begin
/// again records a fresh log each time. Each begin bumps the session
/// epoch, so span-parent stacks left on *other* threads by a previous
/// session are recognized as stale and discarded at their next use;
/// the calling thread's stack is reset eagerly here.
///
/// # Errors
///
/// [`SessionError::Disabled`] when the instrumentation is compiled
/// out, [`SessionError::AlreadyActive`] when a session is already
/// recording. Either way nothing is reset.
pub fn session_begin(provenance: Provenance) -> Result<(), SessionError> {
    #[cfg(feature = "enabled")]
    {
        if ACTIVE.swap(true, Ordering::SeqCst) {
            return Err(SessionError::AlreadyActive);
        }
        for c in counters::ALL {
            c.value.store(0, Ordering::Relaxed);
        }
        for p in phases::ALL {
            p.total_ns.store(0, Ordering::Relaxed);
            p.self_ns.store(0, Ordering::Relaxed);
            p.count.store(0, Ordering::Relaxed);
            p.hist.reset();
        }
        for h in hists::ALL {
            h.hist.reset();
        }
        for g in gauges::ALL {
            g.value.store(0, Ordering::Relaxed);
        }
        SEQ.store(0, Ordering::Relaxed);
        SPAN_NEXT_ID.store(1, Ordering::Relaxed);
        let epoch = SESSION_EPOCH.fetch_add(1, Ordering::SeqCst) + 1;
        SPAN_STACK.with(|s| {
            let mut s = s.borrow_mut();
            s.0 = epoch;
            s.1.clear();
        });
        lock_recover(&EVENTS).clear();
        *lock_recover(&SESSION_START) = Some(Instant::now());
        *lock_recover(&PROVENANCE) = Some(provenance.clone());
        push_event(EventKind::SessionStart { provenance });
        Ok(())
    }
    #[cfg(not(feature = "enabled"))]
    {
        let _ = provenance;
        Err(SessionError::Disabled)
    }
}

/// Ends the active session: emits one `counter` event per declared
/// counter, one `gauge` event per declared gauge, and one `hist` event
/// per non-empty histogram (phase duration histograms under the phase
/// name, latency histograms under their own), then a `session_end`
/// marker, deactivates recording and returns the final
/// [`MetricsSnapshot`]. Returns `None` when the
/// instrumentation is compiled out or no session was active.
pub fn session_end() -> Option<MetricsSnapshot> {
    #[cfg(feature = "enabled")]
    {
        if !ACTIVE.load(Ordering::SeqCst) {
            return None;
        }
        for c in counters::ALL {
            push_event(EventKind::Counter {
                name: c.name,
                value: c.get(),
            });
        }
        for g in gauges::ALL {
            push_event(EventKind::Gauge {
                name: g.name,
                value: g.get(),
            });
        }
        for p in phases::ALL {
            if p.hist.count() > 0 {
                push_event(hist_event(p.name, &p.hist));
            }
        }
        for h in hists::ALL {
            if h.hist.count() > 0 {
                push_event(hist_event(h.name, &h.hist));
            }
        }
        push_event(EventKind::SessionEnd);
        let snap = snapshot();
        ACTIVE.store(false, Ordering::SeqCst);
        // Clear the start instant so a late event from a straggler
        // thread cannot stamp times relative to the ended session;
        // the next begin installs a fresh one before re-activating.
        *lock_recover(&SESSION_START) = None;
        Some(snap)
    }
    #[cfg(not(feature = "enabled"))]
    None
}

#[cfg(feature = "enabled")]
fn hist_event(name: &'static str, h: &Histogram) -> EventKind {
    EventKind::Hist {
        name,
        count: h.count(),
        sum_ns: h.sum(),
        max_ns: h.max(),
        buckets: h.cumulative_buckets(),
    }
}

/// The current values of every declared counter, phase and histogram,
/// whether or not a session is active. Empty (with detected
/// provenance) when the instrumentation is compiled out.
pub fn snapshot() -> MetricsSnapshot {
    #[cfg(feature = "enabled")]
    {
        MetricsSnapshot {
            provenance: lock_recover(&PROVENANCE)
                .clone()
                .unwrap_or_else(Provenance::detect),
            counters: counters::ALL.iter().map(|c| (c.name, c.get())).collect(),
            phases: phases::ALL
                .iter()
                .map(|p| {
                    let q = p.hist.quantiles();
                    PhaseStat {
                        name: p.name,
                        total_ns: p.total_ns.load(Ordering::Relaxed),
                        self_ns: p.self_ns.load(Ordering::Relaxed),
                        count: p.count.load(Ordering::Relaxed),
                        p50_ns: q.p50,
                        p90_ns: q.p90,
                        p99_ns: q.p99,
                        max_ns: q.max,
                    }
                })
                .collect(),
            hists: hists::ALL
                .iter()
                .map(|h| HistStat::from_quantiles(h.name, h.hist.quantiles()))
                .collect(),
            gauges: gauges::ALL.iter().map(|g| (g.name, g.get())).collect(),
        }
    }
    #[cfg(not(feature = "enabled"))]
    MetricsSnapshot {
        provenance: Provenance::detect(),
        counters: Vec::new(),
        phases: Vec::new(),
        hists: Vec::new(),
        gauges: Vec::new(),
    }
}

/// Drains and returns the accumulated session events (oldest first).
/// Empty when the instrumentation is compiled out.
pub fn drain_events() -> Vec<Event> {
    #[cfg(feature = "enabled")]
    {
        std::mem::take(&mut *lock_recover(&EVENTS))
    }
    #[cfg(not(feature = "enabled"))]
    Vec::new()
}

/// Appends a `run` event with the given name and `u64` fields to the
/// session log — the structured per-run record (e.g. one per subset
/// sweep with served counts, bound tightness, relay budget
/// consumption). No-op while no session is active.
#[inline]
pub fn emit_run(name: &'static str, fields: &[(&'static str, u64)]) {
    #[cfg(feature = "enabled")]
    if session_active() {
        push_event(EventKind::Run {
            name,
            fields: fields.to_vec(),
        });
    }
    #[cfg(not(feature = "enabled"))]
    {
        let _ = (name, fields);
    }
}

#[cfg(feature = "enabled")]
fn push_event(kind: EventKind) {
    // Allocate seq and read the clock only while holding the log lock:
    // with emitters on several threads (service reader + worker), doing
    // either outside the lock lets two events land in the vec with
    // out-of-order seq/t_ns, which the log validator rejects. Lock
    // order is EVENTS → SESSION_START; nothing locks them in reverse.
    let mut events = lock_recover(&EVENTS);
    let t_ns = lock_recover(&SESSION_START)
        .map(|s| s.elapsed().as_nanos() as u64)
        .unwrap_or(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    events.push(Event { seq, t_ns, kind });
}

/// A named monotone counter. Declare instances in [`counters`]; call
/// sites do `counters::SWEEP_GAIN_QUERIES.add(1)`.
#[derive(Debug)]
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
}

impl Counter {
    /// A zeroed counter with the given snapshot name.
    pub const fn new(name: &'static str) -> Self {
        Counter {
            name,
            value: AtomicU64::new(0),
        }
    }

    /// The snapshot/event name.
    #[inline]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Adds `n` when a session is active; no-op (and compiled out
    /// without the `enabled` feature) otherwise.
    #[inline]
    pub fn add(&self, n: u64) {
        #[cfg(feature = "enabled")]
        if session_active() {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
        #[cfg(not(feature = "enabled"))]
        let _ = n;
    }

    /// The current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A named last-value metric (queue depth, uptime seconds): unlike a
/// [`Counter`] it can move in both directions, and a snapshot reports
/// the most recent [`set`](Gauge::set), not an accumulation. Declared
/// centrally in [`gauges`]; reset to 0 on session begin; the final
/// value is emitted as one `gauge` event by [`session_end`].
#[derive(Debug)]
pub struct Gauge {
    name: &'static str,
    value: AtomicU64,
}

impl Gauge {
    /// A zeroed gauge with the given snapshot name.
    pub const fn new(name: &'static str) -> Self {
        Gauge {
            name,
            value: AtomicU64::new(0),
        }
    }

    /// The snapshot/event name.
    #[inline]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Stores `v` when a session is active; no-op (and compiled out
    /// without the `enabled` feature) otherwise.
    #[inline]
    pub fn set(&self, v: u64) {
        #[cfg(feature = "enabled")]
        if session_active() {
            self.value.store(v, Ordering::Relaxed);
        }
        #[cfg(not(feature = "enabled"))]
        let _ = v;
    }

    /// The most recently stored value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A named wall-clock accumulator with a latency histogram of its
/// recordings. Declare instances in [`phases`]; time a call with
/// [`Phase::span`] or fold pre-aggregated nanoseconds in with
/// [`Phase::record_ns`].
#[derive(Debug)]
pub struct Phase {
    name: &'static str,
    total_ns: AtomicU64,
    self_ns: AtomicU64,
    count: AtomicU64,
    hist: Histogram,
}

impl Phase {
    /// A zeroed phase with the given snapshot name.
    pub const fn new(name: &'static str) -> Self {
        Phase {
            name,
            total_ns: AtomicU64::new(0),
            self_ns: AtomicU64::new(0),
            count: AtomicU64::new(0),
            hist: Histogram::new(),
        }
    }

    /// The snapshot/event name.
    #[inline]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Accumulated nanoseconds.
    #[inline]
    pub fn total_ns(&self) -> u64 {
        self.total_ns.load(Ordering::Relaxed)
    }

    /// Accumulated self-time: total minus time spent in same-thread
    /// child spans (pre-aggregated [`Phase::record_ns`] recordings
    /// count fully as self-time).
    #[inline]
    pub fn self_ns(&self) -> u64 {
        self.self_ns.load(Ordering::Relaxed)
    }

    /// Number of recordings folded in.
    #[inline]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// The duration histogram of this phase's recordings.
    #[inline]
    pub fn histogram(&self) -> &Histogram {
        &self.hist
    }

    /// Folds pre-aggregated `ns` into the phase and appends a `span`
    /// event attached under the caller's innermost open span (for tree
    /// attribution; it does not reduce the parent's self-time — see
    /// the [crate docs](crate)). No-op while no session is active.
    #[inline]
    pub fn record_ns(&'static self, ns: u64) {
        self.record_ns_under(None, ns);
    }

    /// [`Phase::record_ns`] with an explicit parent: the emitted span
    /// attaches under `parent` when it is `Some` and still belongs to
    /// the current session, falling back to the caller's innermost
    /// open same-thread span otherwise. This is how a worker thread
    /// attributes a pre-measured duration (e.g. queue wait measured
    /// from an enqueue timestamp) to a span opened on another thread.
    #[inline]
    pub fn record_ns_under(&'static self, parent: Option<SpanHandle>, ns: u64) {
        #[cfg(feature = "enabled")]
        if session_active() {
            let epoch = SESSION_EPOCH.load(Ordering::Relaxed);
            let parent_id = parent
                .filter(|h| h.epoch == epoch)
                .map(|h| h.id)
                .or_else(|| {
                    SPAN_STACK.with(|s| {
                        let s = s.borrow();
                        if s.0 == epoch {
                            s.1.last().map(|f| f.id)
                        } else {
                            None
                        }
                    })
                });
            let id = SPAN_NEXT_ID.fetch_add(1, Ordering::Relaxed);
            self.accumulate(ns, ns);
            push_event(EventKind::Span {
                name: self.name,
                id,
                parent_id,
                tid: thread_ordinal(),
                ns,
                self_ns: ns,
            });
        }
        #[cfg(not(feature = "enabled"))]
        let _ = (parent, ns);
    }

    #[cfg(feature = "enabled")]
    fn accumulate(&self, ns: u64, self_ns: u64) {
        self.total_ns.fetch_add(ns, Ordering::Relaxed);
        self.self_ns.fetch_add(self_ns, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.hist.record(ns);
    }

    /// An RAII guard that records the elapsed wall-clock into this
    /// phase when dropped, as a node of the session's span tree (its
    /// parent is the innermost span still open on this thread). Reads
    /// the clock only while a session is active.
    #[inline]
    pub fn span(&'static self) -> SpanGuard {
        self.span_under(None)
    }

    /// [`Phase::span`] with an explicit cross-thread parent: when
    /// `parent` is `Some` and still belongs to the current session, the
    /// new span's `parent_id` is the handle's span instead of this
    /// thread's innermost open span. The guard still joins *this*
    /// thread's parent stack, so same-thread children opened inside it
    /// nest normally and its elapsed time is credited to the local
    /// enclosing frame (if any). This is how a span opened on the
    /// service worker thread attaches under the worker root, and how a
    /// reader-thread ingress span attaches under the same root — the
    /// cross-thread edge of the trace.
    #[inline]
    pub fn span_under(&'static self, parent: Option<SpanHandle>) -> SpanGuard {
        #[cfg(feature = "enabled")]
        {
            if !session_active() {
                return SpanGuard { inner: None };
            }
            let epoch = SESSION_EPOCH.load(Ordering::Relaxed);
            let id = SPAN_NEXT_ID.fetch_add(1, Ordering::Relaxed);
            let explicit = parent.filter(|h| h.epoch == epoch).map(|h| h.id);
            let local = SPAN_STACK.with(|s| {
                let mut s = s.borrow_mut();
                if s.0 != epoch {
                    s.1.clear();
                    s.0 = epoch;
                }
                let parent = s.1.last().map(|f| f.id);
                s.1.push(Frame { id, child_ns: 0 });
                parent
            });
            SpanGuard {
                inner: Some(SpanInner {
                    phase: self,
                    start: Instant::now(),
                    id,
                    parent_id: explicit.or(local),
                    epoch,
                }),
            }
        }
        #[cfg(not(feature = "enabled"))]
        {
            let _ = parent;
            SpanGuard {}
        }
    }
}

/// A copyable reference to an open span, obtained from
/// [`SpanGuard::handle`] and consumed by [`Phase::span_under`] /
/// [`Phase::record_ns_under`] to parent spans across threads. The
/// handle stays valid for the rest of its session (ids are allocated
/// on entry, so `parent_id < id` holds even if the referenced span
/// closes first); a handle from an ended session is silently ignored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanHandle {
    #[cfg(feature = "enabled")]
    id: u64,
    #[cfg(feature = "enabled")]
    epoch: u64,
}

#[cfg(feature = "enabled")]
#[derive(Debug)]
struct SpanInner {
    phase: &'static Phase,
    start: Instant,
    id: u64,
    parent_id: Option<u64>,
    epoch: u64,
}

/// RAII timer returned by [`Phase::span`]; records on drop, reporting
/// total and self nanoseconds plus its `id`/`parent_id` in the span
/// tree.
#[derive(Debug)]
#[must_use = "dropping a SpanGuard immediately records a zero-length span"]
pub struct SpanGuard {
    #[cfg(feature = "enabled")]
    inner: Option<SpanInner>,
}

impl SpanGuard {
    /// A copyable cross-thread handle to this span, or `None` when the
    /// guard is not recording (no active session at creation, or the
    /// instrumentation is compiled out). Hand the handle to another
    /// thread and open children under it with [`Phase::span_under`];
    /// the guard itself must still be dropped on its own thread.
    #[inline]
    pub fn handle(&self) -> Option<SpanHandle> {
        #[cfg(feature = "enabled")]
        {
            self.inner.as_ref().map(|i| SpanHandle {
                id: i.id,
                epoch: i.epoch,
            })
        }
        #[cfg(not(feature = "enabled"))]
        None
    }
}

impl Drop for SpanGuard {
    #[inline]
    fn drop(&mut self) {
        #[cfg(feature = "enabled")]
        if let Some(inner) = self.inner.take() {
            let ns = inner.start.elapsed().as_nanos() as u64;
            // Pop our frame (collecting child time) and credit our
            // elapsed time to the parent frame, unless the session
            // rolled over while we were open.
            let child_ns = SPAN_STACK.with(|s| {
                let mut s = s.borrow_mut();
                if s.0 != inner.epoch {
                    return None;
                }
                let pos = s.1.iter().rposition(|f| f.id == inner.id)?;
                let frame = s.1.remove(pos);
                if pos > 0 {
                    s.1[pos - 1].child_ns += ns;
                }
                Some(frame.child_ns)
            });
            let Some(child_ns) = child_ns else { return };
            if !session_active() || SESSION_EPOCH.load(Ordering::Relaxed) != inner.epoch {
                return;
            }
            let self_ns = ns.saturating_sub(child_ns);
            inner.phase.accumulate(ns, self_ns);
            push_event(EventKind::Span {
                name: inner.phase.name,
                id: inner.id,
                parent_id: inner.parent_id,
                tid: thread_ordinal(),
                ns,
                self_ns,
            });
        }
    }
}

/// A named latency histogram for per-operation timings too frequent
/// for the event log. Recording is a few relaxed atomics (no lock, no
/// event); percentiles surface in the [`MetricsSnapshot`] and as one
/// `hist` line at session end. Declare instances in [`hists`].
#[derive(Debug)]
pub struct LatencyHist {
    name: &'static str,
    hist: Histogram,
}

impl LatencyHist {
    /// An empty latency histogram with the given snapshot name.
    pub const fn new(name: &'static str) -> Self {
        LatencyHist {
            name,
            hist: Histogram::new(),
        }
    }

    /// The snapshot/event name.
    #[inline]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The underlying histogram (always readable; only instrumented
    /// recording is feature/session gated).
    #[inline]
    pub fn histogram(&self) -> &Histogram {
        &self.hist
    }

    /// Records one latency when a session is active; no-op (compiled
    /// out without the `enabled` feature) otherwise.
    #[inline]
    pub fn record_ns(&self, ns: u64) {
        #[cfg(feature = "enabled")]
        if session_active() {
            self.hist.record(ns);
        }
        #[cfg(not(feature = "enabled"))]
        let _ = ns;
    }

    /// An RAII timer recording the elapsed nanoseconds into this
    /// histogram on drop. Reads the clock only while a session is
    /// active; never emits events and never touches the span stack, so
    /// it is safe (and cheap) on per-query hot paths.
    #[inline]
    pub fn timer(&'static self) -> HistTimer {
        HistTimer {
            #[cfg(feature = "enabled")]
            inner: session_active().then(|| (self, Instant::now())),
        }
    }
}

/// RAII timer returned by [`LatencyHist::timer`]; records on drop.
#[derive(Debug)]
#[must_use = "dropping a HistTimer immediately records a zero latency"]
pub struct HistTimer {
    #[cfg(feature = "enabled")]
    inner: Option<(&'static LatencyHist, Instant)>,
}

impl Drop for HistTimer {
    #[inline]
    fn drop(&mut self) {
        #[cfg(feature = "enabled")]
        if let Some((h, start)) = self.inner.take() {
            if session_active() {
                h.hist.record(start.elapsed().as_nanos() as u64);
            }
        }
    }
}

/// One structured record of the session log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Global sequence number within the session (0-based).
    pub seq: u64,
    /// Nanoseconds since session start when the event was recorded.
    pub t_ns: u64,
    /// What happened.
    pub kind: EventKind,
}

/// The payload of an [`Event`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// A session began (always `seq` 0); carries the run provenance.
    SessionStart {
        /// Who/what produced this log.
        provenance: Provenance,
    },
    /// A session ended; the log is complete.
    SessionEnd,
    /// A [`Phase`] recording completed — one node of the span tree.
    Span {
        /// The phase name.
        name: &'static str,
        /// Session-unique span id (ids start at 1).
        id: u64,
        /// Id of the parent span — the innermost same-thread span open
        /// at creation, or the explicit [`SpanHandle`] given to
        /// [`Phase::span_under`]/[`Phase::record_ns_under`]; `None`
        /// for roots.
        parent_id: Option<u64>,
        /// Stable ordinal of the thread the span ran on (schema 3).
        tid: u64,
        /// Recorded nanoseconds.
        ns: u64,
        /// Nanoseconds not attributed to same-thread child spans.
        self_ns: u64,
    },
    /// A counter's final value, emitted by [`session_end`].
    Counter {
        /// The counter name.
        name: &'static str,
        /// Value at session end.
        value: u64,
    },
    /// A gauge's final value, emitted by [`session_end`] (schema 3).
    Gauge {
        /// The gauge name.
        name: &'static str,
        /// Last value set during the session.
        value: u64,
    },
    /// A histogram's final state, emitted by [`session_end`] for every
    /// non-empty phase/latency histogram.
    Hist {
        /// The phase or latency-histogram name.
        name: &'static str,
        /// Number of recorded values.
        count: u64,
        /// Sum of recorded values.
        sum_ns: u64,
        /// Exact maximum recorded value.
        max_ns: u64,
        /// `[inclusive_upper_bound, cumulative_count]` per non-empty
        /// bucket; bounds strictly increasing, counts monotone.
        buckets: Vec<(u64, u64)>,
    },
    /// A per-run record emitted by [`emit_run`].
    Run {
        /// Record name (e.g. `"sweep"`).
        name: &'static str,
        /// Named `u64` fields.
        fields: Vec<(&'static str, u64)>,
    },
}

impl Event {
    /// Serializes the event as one JSON-lines line (no trailing
    /// newline), following the [crate-level schema](crate).
    pub fn to_json_line(&self) -> String {
        let mut members = vec![
            ("seq", num(self.seq)),
            ("t_ns", num(self.t_ns)),
            ("type", text(self.kind.type_name())),
        ];
        match &self.kind {
            EventKind::SessionStart { provenance } => {
                members.push(("schema", text(SCHEMA)));
                members.extend(provenance.members());
            }
            EventKind::SessionEnd => {}
            EventKind::Span {
                name,
                id,
                parent_id,
                tid,
                ns,
                self_ns,
            } => {
                members.extend([("name", text(name)), ("id", num(*id))]);
                members.extend(parent_id.map(|p| ("parent_id", num(p))));
                members.extend([
                    ("tid", num(*tid)),
                    ("ns", num(*ns)),
                    ("self_ns", num(*self_ns)),
                ]);
            }
            EventKind::Counter { name, value } | EventKind::Gauge { name, value } => {
                members.extend([("name", text(name)), ("value", num(*value))]);
            }
            EventKind::Hist {
                name,
                count,
                sum_ns,
                max_ns,
                buckets,
            } => {
                let buckets = buckets
                    .iter()
                    .map(|&(bound, cumulative)| Json::Arr(vec![num(bound), num(cumulative)]))
                    .collect();
                members.extend([
                    ("name", text(name)),
                    ("count", num(*count)),
                    ("sum_ns", num(*sum_ns)),
                    ("max_ns", num(*max_ns)),
                    ("buckets", Json::Arr(buckets)),
                ]);
            }
            EventKind::Run { name, fields } => {
                members.extend([("name", text(name)), ("fields", run_fields(fields))]);
            }
        }
        object(members).dump_line()
    }
}

impl EventKind {
    /// The `type` member of the event's JSON-lines line.
    fn type_name(&self) -> &'static str {
        match self {
            EventKind::SessionStart { .. } => "session_start",
            EventKind::SessionEnd => "session_end",
            EventKind::Span { .. } => "span",
            EventKind::Counter { .. } => "counter",
            EventKind::Gauge { .. } => "gauge",
            EventKind::Hist { .. } => "hist",
            EventKind::Run { .. } => "run",
        }
    }
}

impl Provenance {
    /// The provenance as JSON object members, shared by the event log's
    /// `session_start` line, the snapshot's `provenance` object and the
    /// trace's `session_start` args.
    fn members(&self) -> [(&'static str, Json); 4] {
        [
            ("git_sha", text(&self.git_sha)),
            ("features", text(&self.features)),
            ("threads", num(self.threads)),
            (
                "instance_fingerprint",
                Json::Str(format!("{:#018x}", self.instance_fingerprint)),
            ),
        ]
    }
}

/// A JSON number; exact for every value below 2^53, the range every
/// obs counter, duration and id stays in.
fn num(value: u64) -> Json {
    Json::Num(value as f64)
}

fn text(value: &str) -> Json {
    Json::Str(value.to_string())
}

fn object<'a>(members: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
    Json::Obj(
        members
            .into_iter()
            .map(|(key, value)| (key.to_string(), value))
            .collect(),
    )
}

/// A `run` record's fields as one JSON object.
fn run_fields(fields: &[(&str, u64)]) -> Json {
    object(fields.iter().map(|&(key, value)| (key, num(value))))
}

/// Final value of one [`Phase`] inside a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseStat {
    /// The phase name.
    pub name: &'static str,
    /// Accumulated nanoseconds.
    pub total_ns: u64,
    /// Accumulated self-time nanoseconds (total minus same-thread
    /// child spans).
    pub self_ns: u64,
    /// Number of recordings.
    pub count: u64,
    /// Median recording duration (bucket resolution).
    pub p50_ns: u64,
    /// 90th-percentile recording duration.
    pub p90_ns: u64,
    /// 99th-percentile recording duration.
    pub p99_ns: u64,
    /// Exact maximum recording duration.
    pub max_ns: u64,
}

/// Final percentiles of one [`LatencyHist`] inside a
/// [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistStat {
    /// The histogram name.
    pub name: &'static str,
    /// Number of recorded latencies.
    pub count: u64,
    /// Sum of recorded latencies.
    pub sum_ns: u64,
    /// Median latency (bucket resolution).
    pub p50_ns: u64,
    /// 90th-percentile latency.
    pub p90_ns: u64,
    /// 99th-percentile latency.
    pub p99_ns: u64,
    /// Exact maximum latency.
    pub max_ns: u64,
}

impl HistStat {
    #[cfg(feature = "enabled")]
    fn from_quantiles(name: &'static str, q: Quantiles) -> Self {
        HistStat {
            name,
            count: q.count,
            sum_ns: q.sum,
            p50_ns: q.p50,
            p90_ns: q.p90,
            p99_ns: q.p99,
            max_ns: q.max,
        }
    }
}

/// End-of-run values of every declared counter, phase and latency
/// histogram, plus the run provenance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Who/what produced this snapshot.
    pub provenance: Provenance,
    /// `(name, value)` per counter, in declaration order.
    pub counters: Vec<(&'static str, u64)>,
    /// Per-phase totals, self-times and percentiles, in declaration
    /// order.
    pub phases: Vec<PhaseStat>,
    /// Per-latency-histogram percentiles, in declaration order.
    pub hists: Vec<HistStat>,
    /// `(name, last value)` per gauge, in declaration order.
    pub gauges: Vec<(&'static str, u64)>,
}

impl MetricsSnapshot {
    /// The value of a counter by name, if declared.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// The last value of a gauge by name, if declared.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// The stats of a phase by name, if declared.
    pub fn phase(&self, name: &str) -> Option<&PhaseStat> {
        self.phases.iter().find(|p| p.name == name)
    }

    /// The stats of a latency histogram by name, if declared.
    pub fn hist(&self, name: &str) -> Option<&HistStat> {
        self.hists.iter().find(|h| h.name == name)
    }

    /// Serializes the snapshot as a pretty-printed JSON document:
    /// `{"schema":…,"provenance":{…},"counters":{…},
    /// "phases":{name:{"total_ns":…,"self_ns":…,"count":…,"p50_ns":…,…}},
    /// "hists":{name:{"count":…,"sum_ns":…,"p50_ns":…,…}},
    /// "gauges":{…}}`.
    pub fn to_json(&self) -> String {
        let values = |pairs: &[(&'static str, u64)]| {
            object(pairs.iter().map(|&(name, value)| (name, num(value))))
        };
        let phases = self.phases.iter().map(|p| {
            let stats = [
                ("total_ns", p.total_ns),
                ("self_ns", p.self_ns),
                ("count", p.count),
                ("p50_ns", p.p50_ns),
                ("p90_ns", p.p90_ns),
                ("p99_ns", p.p99_ns),
                ("max_ns", p.max_ns),
            ];
            (p.name, values(&stats))
        });
        let hists = self.hists.iter().map(|h| {
            let stats = [
                ("count", h.count),
                ("sum_ns", h.sum_ns),
                ("p50_ns", h.p50_ns),
                ("p90_ns", h.p90_ns),
                ("p99_ns", h.p99_ns),
                ("max_ns", h.max_ns),
            ];
            (h.name, values(&stats))
        });
        object([
            ("schema", text(SCHEMA)),
            ("provenance", object(self.provenance.members())),
            ("counters", values(&self.counters)),
            ("phases", object(phases)),
            ("hists", object(hists)),
            ("gauges", values(&self.gauges)),
        ])
        .dump()
    }

    /// Serializes the snapshot in the Prometheus text exposition
    /// format (0.0.4): counters as `uavnet_<name>_total`, gauges as
    /// `uavnet_<name>`, phases as
    /// `uavnet_phase_{total_ns,self_ns,count}{phase="…"}` gauges plus
    /// `uavnet_phase_duration_ns{phase="…",quantile="…"}` summaries,
    /// latency histograms as `uavnet_latency_ns{hist="…",quantile="…"}`
    /// summaries with `_sum`/`_count`, and the provenance as a
    /// `uavnet_build_info` gauge. Every family carries `# HELP` and
    /// `# TYPE` lines. Dots in metric names become underscores.
    pub fn to_prometheus(&self) -> String {
        fn sanitize(name: &str) -> String {
            name.chars()
                .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
                .collect()
        }
        // A label value with `\`, `"` and newline escaped, the three
        // characters the text format cannot carry verbatim.
        fn label(value: &str) -> String {
            let mut escaped = String::with_capacity(value.len());
            for c in value.chars() {
                match c {
                    '\\' => escaped.push_str("\\\\"),
                    '"' => escaped.push_str("\\\""),
                    '\n' => escaped.push_str("\\n"),
                    c => escaped.push(c),
                }
            }
            escaped
        }
        let mut s = String::new();
        s.push_str("# HELP uavnet_build_info Run provenance (value is always 1).\n");
        s.push_str("# TYPE uavnet_build_info gauge\n");
        s.push_str(&format!(
            "uavnet_build_info{{schema=\"{}\",git_sha=\"{}\",features=\"{}\",threads=\"{}\",instance_fingerprint=\"{:#018x}\"}} 1\n",
            label(SCHEMA),
            label(&self.provenance.git_sha),
            label(&self.provenance.features),
            self.provenance.threads,
            self.provenance.instance_fingerprint
        ));
        for (name, value) in &self.counters {
            let m = format!("uavnet_{}_total", sanitize(name));
            s.push_str(&format!(
                "# HELP {m} Final value of obs counter \"{name}\".\n# TYPE {m} counter\n{m} {value}\n"
            ));
        }
        for (name, value) in &self.gauges {
            let m = format!("uavnet_{}", sanitize(name));
            s.push_str(&format!(
                "# HELP {m} Last value of obs gauge \"{name}\".\n# TYPE {m} gauge\n{m} {value}\n"
            ));
        }
        s.push_str("# HELP uavnet_phase_total_ns Accumulated wall-clock nanoseconds per phase.\n");
        s.push_str("# TYPE uavnet_phase_total_ns gauge\n");
        s.push_str(
            "# HELP uavnet_phase_self_ns Accumulated self-time nanoseconds per phase (total minus same-thread child spans).\n",
        );
        s.push_str("# TYPE uavnet_phase_self_ns gauge\n");
        s.push_str("# HELP uavnet_phase_count Number of recordings per phase.\n");
        s.push_str("# TYPE uavnet_phase_count gauge\n");
        s.push_str(
            "# HELP uavnet_phase_duration_ns Quantiles of per-recording phase durations in nanoseconds.\n",
        );
        s.push_str("# TYPE uavnet_phase_duration_ns summary\n");
        for p in &self.phases {
            let phase = label(p.name);
            s.push_str(&format!(
                "uavnet_phase_total_ns{{phase=\"{phase}\"}} {}\nuavnet_phase_self_ns{{phase=\"{phase}\"}} {}\nuavnet_phase_count{{phase=\"{phase}\"}} {}\n",
                p.total_ns, p.self_ns, p.count
            ));
            for (q, v) in [("0.5", p.p50_ns), ("0.9", p.p90_ns), ("0.99", p.p99_ns)] {
                s.push_str(&format!(
                    "uavnet_phase_duration_ns{{phase=\"{phase}\",quantile=\"{q}\"}} {v}\n"
                ));
            }
        }
        s.push_str(
            "# HELP uavnet_phase_duration_ns_max Exact maximum recording duration per phase in nanoseconds.\n",
        );
        s.push_str("# TYPE uavnet_phase_duration_ns_max gauge\n");
        for p in &self.phases {
            s.push_str(&format!(
                "uavnet_phase_duration_ns_max{{phase=\"{}\"}} {}\n",
                label(p.name),
                p.max_ns
            ));
        }
        s.push_str(
            "# HELP uavnet_latency_ns Quantiles of per-operation latencies in nanoseconds.\n",
        );
        s.push_str("# TYPE uavnet_latency_ns summary\n");
        for h in &self.hists {
            let hist = label(h.name);
            for (q, v) in [("0.5", h.p50_ns), ("0.9", h.p90_ns), ("0.99", h.p99_ns)] {
                s.push_str(&format!(
                    "uavnet_latency_ns{{hist=\"{hist}\",quantile=\"{q}\"}} {v}\n"
                ));
            }
            s.push_str(&format!(
                "uavnet_latency_ns_sum{{hist=\"{hist}\"}} {}\nuavnet_latency_ns_count{{hist=\"{hist}\"}} {}\n",
                h.sum_ns, h.count
            ));
        }
        s.push_str(
            "# HELP uavnet_latency_ns_max Exact maximum recorded latency per histogram in nanoseconds.\n",
        );
        s.push_str("# TYPE uavnet_latency_ns_max gauge\n");
        for h in &self.hists {
            s.push_str(&format!(
                "uavnet_latency_ns_max{{hist=\"{}\"}} {}\n",
                label(h.name),
                h.max_ns
            ));
        }
        s
    }
}

/// Renders a drained session log as a Chrome trace-event JSON document
/// (the `{"traceEvents":[…]}` format Perfetto and `chrome://tracing`
/// load directly).
///
/// Mapping: every `span` event becomes a complete (`"ph":"X"`) event
/// on its thread's track — `ts` is the span's *start* (`t_ns − ns`,
/// since obs stamps spans on close) and `dur` its length, both in
/// fractional microseconds; the obs span `id`, `parent_id` and
/// `self_ns` ride along in `args`, preserving the cross-thread edges a
/// flamegraph per track cannot show. `run` events become instants
/// (`"ph":"i"`) with their fields as args; `counter` and `gauge`
/// events become Chrome counter (`"ph":"C"`) samples so final values
/// show up as tracks; `session_start`/`session_end` become global
/// instants (provenance as args). `hist` events are skipped — bucket
/// arrays have no trace-event shape; they stay in the JSON-lines log.
///
/// This is a pure function over already-drained events: it works on
/// any build (the `enabled` feature only gates *collection*).
pub fn dump_trace_event(events: &[Event]) -> String {
    let micros = |ns: u64| Json::Num(ns as f64 / 1_000.0);
    // A global instant (`"s":"g"`) on the process track.
    let instant = |name: &str, cat: &str, t_ns: u64, args: Option<Json>| {
        let mut members = vec![
            ("name", text(name)),
            ("cat", text(cat)),
            ("ph", text("i")),
            ("s", text("g")),
            ("pid", num(1)),
            ("tid", num(0)),
            ("ts", micros(t_ns)),
        ];
        members.extend(args.map(|args| ("args", args)));
        object(members)
    };
    let mut trace = vec![object([
        ("name", text("process_name")),
        ("ph", text("M")),
        ("pid", num(1)),
        ("tid", num(0)),
        ("args", object([("name", text("uavnet"))])),
    ])];
    for e in events {
        trace.push(match &e.kind {
            EventKind::Span {
                name,
                id,
                parent_id,
                tid,
                ns,
                self_ns,
            } => {
                let mut args = vec![("id", num(*id))];
                args.extend(parent_id.map(|p| ("parent_id", num(p))));
                args.push(("self_ns", num(*self_ns)));
                object([
                    ("name", text(name)),
                    ("cat", text("span")),
                    ("ph", text("X")),
                    ("pid", num(1)),
                    ("tid", num(*tid)),
                    ("ts", micros(e.t_ns.saturating_sub(*ns))),
                    ("dur", micros(*ns)),
                    ("args", object(args)),
                ])
            }
            EventKind::Run { name, fields } => {
                instant(name, "run", e.t_ns, Some(run_fields(fields)))
            }
            EventKind::Counter { name, value } | EventKind::Gauge { name, value } => object([
                ("name", text(name)),
                ("cat", text("metric")),
                ("ph", text("C")),
                ("pid", num(1)),
                ("tid", num(0)),
                ("ts", micros(e.t_ns)),
                ("args", object([("value", num(*value))])),
            ]),
            EventKind::SessionStart { provenance } => {
                let args = std::iter::once(("schema", text(SCHEMA))).chain(provenance.members());
                instant("session_start", "session", e.t_ns, Some(object(args)))
            }
            EventKind::SessionEnd => instant("session_end", "session", e.t_ns, None),
            EventKind::Hist { .. } => continue,
        });
    }
    let document = object([
        ("displayTimeUnit", text("ms")),
        ("traceEvents", Json::Arr(trace)),
    ]);
    document.dump_line() + "\n"
}

/// Every counter of the pipeline, declared centrally so snapshots can
/// enumerate them. Names are dot-separated `snake_case` and stable —
/// they are the public schema of the event log.
///
/// A counter is the obs view of a number another record owns: the
/// `sweep.*`, `greedy.*`, `matching.*`, `connect.*` and `strategy.*`
/// counters are added once per sweep from its
/// `ApproxStats`, the `resolve.*` counters once per applied delta from
/// its `DeltaOutcome` (both in `uavnet-core`'s obs bridge), and the
/// `service.*` counters by the service's threads. A count another metric
/// already carries (a phase's `count`, a histogram's sample count) is
/// not declared twice.
pub mod counters {
    use super::Counter;

    /// Subset sweeps completed ([`emit_run`](super::emit_run) `"sweep"`
    /// records carry the per-run detail).
    pub static SWEEP_RUNS: Counter = Counter::new("sweep.runs");
    /// `s`-subsets enumerated before chain pruning.
    pub static SWEEP_SUBSETS_ENUMERATED: Counter = Counter::new("sweep.subsets_enumerated");
    /// Subsets dropped by chain pruning.
    pub static SWEEP_SUBSETS_CHAIN_PRUNED: Counter = Counter::new("sweep.subsets_chain_pruned");
    /// Subsets fully evaluated (greedy + connection + scoring).
    pub static SWEEP_SUBSETS_EVALUATED: Counter = Counter::new("sweep.subsets_evaluated");
    /// Evaluated subsets whose connected set exceeded the fleet.
    pub static SWEEP_SUBSETS_UNCONNECTABLE: Counter = Counter::new("sweep.subsets_unconnectable");
    /// Marginal-gain queries issued by the sweep's greedy, those the
    /// gain memo answered included.
    pub static SWEEP_GAIN_QUERIES: Counter = Counter::new("sweep.gain_queries");
    /// Lazy-greedy heap pops satisfied by a still-current cached gain
    /// (no oracle evaluation needed) — CELF bound hits. The cache
    /// misses are the sweep's gain queries.
    pub static GREEDY_BOUND_HITS: Counter = Counter::new("greedy.bound_hits");
    /// Full heap re-seeds after a bound invalidation
    /// (radio-class change between picks).
    pub static GREEDY_BOUND_RESEEDS: Counter = Counter::new("greedy.bound_reseeds");
    /// Elements committed by the lazy greedy.
    pub static GREEDY_COMMITS: Counter = Counter::new("greedy.commits");
    /// Gain queries the sweep's gain memo answered without a trial
    /// insertion (a subset earlier in the same work item had asked the
    /// same location on the same committed prefix).
    pub static GREEDY_GAIN_MEMO_HITS: Counter = Counter::new("greedy.gain_memo_hits");
    /// Augmenting-path BFS runs started by the sweep's matching
    /// oracle.
    pub static MATCHING_BFS_RESTARTS: Counter = Counter::new("matching.bfs_restarts");
    /// Users claimed by the free-user pre-pass (length-1 augmenting
    /// paths applied without a BFS restart).
    pub static MATCHING_PREPASS_HITS: Counter = Counter::new("matching.prepass_hits");
    /// MST relay connections of two or more chosen locations.
    pub static CONNECT_MST_CONNECTIONS: Counter = Counter::new("connect.mst_connections");
    /// Relay cells added across all connections.
    pub static CONNECT_RELAYS_ADDED: Counter = Counter::new("connect.relays_added");
    /// Gateway extensions that had to add cells.
    pub static CONNECT_GATEWAY_EXTENSIONS: Counter = Counter::new("connect.gateway_extensions");
    /// Connections and gateway extensions that found no path.
    pub static CONNECT_FAILURES: Counter = Counter::new("connect.failures");
    /// Differential-oracle checks executed.
    pub static VERIFY_CHECKS: Counter = Counter::new("verify.checks");
    /// Differential-oracle checks that found a divergence.
    pub static VERIFY_FAILURES: Counter = Counter::new("verify.failures");
    /// Full cold re-solves the incremental loop fell back to.
    pub static RESOLVE_COLD_SOLVES: Counter = Counter::new("resolve.cold_solves");
    /// Stations whose coverage was re-derived after a delta.
    pub static RESOLVE_STATIONS_REFRESHED: Counter = Counter::new("resolve.stations_refreshed");
    /// Sweeps that ran a guided (non-exhaustive) seed strategy.
    pub static STRATEGY_GUIDED_RUNS: Counter = Counter::new("strategy.guided_runs");
    /// Subsets the exhaustive sweep skipped above its watermark (the
    /// ranks after the first subset that serves `min(Σ capacities, n)`),
    /// recorded for every exhaustive sweep.
    pub static STRATEGY_BOUND_PRUNED: Counter = Counter::new("strategy.bound_pruned");
    /// Subsets fully evaluated by the beam strategy's final beam.
    pub static STRATEGY_BEAM_EVALUATIONS: Counter = Counter::new("strategy.beam_evaluations");
    /// `degradation` frames published to subscribers.
    pub static SERVICE_PUBLISH_DEGRADATION: Counter = Counter::new("service.publish.degradation");
    /// Publishes rejected with a typed `Busy` because the bounded
    /// ingress queue was full.
    pub static SERVICE_BUSY_REJECTIONS: Counter = Counter::new("service.busy_rejections");
    /// Deltas whose enqueue-to-publish latency exceeded the
    /// configured slow-delta threshold (timing-dependent: excluded
    /// from the deterministic `obs_diff` gate).
    pub static SERVICE_SLOW_DELTAS: Counter = Counter::new("service.slow_deltas");
    /// Subscriber connections dropped during publish fan-out (write
    /// failed or timed out).
    pub static SERVICE_SUBSCRIBER_DROPS: Counter = Counter::new("service.subscriber_drops");

    /// Every declared counter, in schema order.
    pub static ALL: &[&Counter] = &[
        &SWEEP_RUNS,
        &SWEEP_SUBSETS_ENUMERATED,
        &SWEEP_SUBSETS_CHAIN_PRUNED,
        &SWEEP_SUBSETS_EVALUATED,
        &SWEEP_SUBSETS_UNCONNECTABLE,
        &SWEEP_GAIN_QUERIES,
        &GREEDY_BOUND_HITS,
        &GREEDY_BOUND_RESEEDS,
        &GREEDY_COMMITS,
        &GREEDY_GAIN_MEMO_HITS,
        &MATCHING_BFS_RESTARTS,
        &MATCHING_PREPASS_HITS,
        &CONNECT_MST_CONNECTIONS,
        &CONNECT_RELAYS_ADDED,
        &CONNECT_GATEWAY_EXTENSIONS,
        &CONNECT_FAILURES,
        &VERIFY_CHECKS,
        &VERIFY_FAILURES,
        &RESOLVE_COLD_SOLVES,
        &RESOLVE_STATIONS_REFRESHED,
        &STRATEGY_GUIDED_RUNS,
        &STRATEGY_BOUND_PRUNED,
        &STRATEGY_BEAM_EVALUATIONS,
        &SERVICE_PUBLISH_DEGRADATION,
        &SERVICE_BUSY_REJECTIONS,
        &SERVICE_SLOW_DELTAS,
        &SERVICE_SUBSCRIBER_DROPS,
    ];
}

/// Every wall-clock phase of the pipeline, declared centrally. Names
/// are stable `snake_case` — the public schema of span events.
pub mod phases {
    use super::Phase;

    /// One whole recorded report/run — the root of the span tree when
    /// a binary wraps its work in a single top-level span (as
    /// `sweep_report` does).
    pub static REPORT: Phase = Phase::new("report");
    /// Algorithm 1 segment planning ([`SegmentPlan::optimal`]).
    ///
    /// [`SegmentPlan::optimal`]: https://docs.rs/uavnet-core
    pub static ALG1_PLAN: Phase = Phase::new("alg1_plan");
    /// Building the per-instance connectivity substrate.
    pub static SUBSTRATE_BUILD: Phase = Phase::new("substrate_build");
    /// Combination generation + chain pruning, summed across workers.
    pub static ENUMERATION: Phase = Phase::new("enumeration");
    /// Lazy greedy (matroid build, gain queries, commits), summed
    /// across workers.
    pub static GREEDY: Phase = Phase::new("greedy");
    /// MST relay connection + gateway extension, summed across workers.
    pub static CONNECTION: Phase = Phase::new("connection");
    /// Relay deployment + scoring, summed across workers.
    pub static SCORING: Phase = Phase::new("scoring");
    /// Hop-structure queries answered from the substrate (also counted
    /// inside `greedy`/`connection`).
    pub static SUBSTRATE_QUERY: Phase = Phase::new("substrate_query");
    /// End-to-end wall clock of one subset sweep.
    pub static SWEEP_TOTAL: Phase = Phase::new("sweep_total");
    /// Differential-oracle batteries (`uavnet-core::verify`).
    pub static VERIFY: Phase = Phase::new("verify");
    /// One connectivity repair (component triage, MST re-bridging,
    /// gateway re-extension) in the incremental loop or fault harness.
    pub static REPAIR: Phase = Phase::new("repair");
    /// One `SolverLoop::apply` call — the incremental re-solve of a
    /// single delta (instance patch, matching re-derivation, repair or
    /// cold fallback).
    pub static RESOLVE_APPLY: Phase = Phase::new("resolve.apply");
    /// The in-place instance patch of a mobility or surge delta
    /// (re-encoding the coverage lists the changed users can affect),
    /// inside `resolve.apply`.
    pub static RESOLVE_PATCH: Phase = Phase::new("resolve.patch");
    /// Re-deriving the standing matching from scratch from the
    /// placements after a mobility, surge or repair delta, inside
    /// `resolve.apply`.
    pub static RESOLVE_REFRESH: Phase = Phase::new("resolve.refresh");
    /// The solver-service worker thread's whole lifetime — the root
    /// span every per-delta service span attaches under (directly or
    /// via a cross-thread [`SpanHandle`](super::SpanHandle)).
    pub static SERVICE_WORKER: Phase = Phase::new("service.worker");
    /// Reader-thread handling of one `Publish`: decode + enqueue (or
    /// `Busy`), attached under the worker root across threads.
    pub static SERVICE_INGRESS: Phase = Phase::new("service.ingress");
    /// Time one delta spent in the bounded ingress queue, measured
    /// from its enqueue timestamp when the worker dequeues it
    /// (pre-aggregated; recorded via
    /// [`record_ns_under`](super::Phase::record_ns_under)).
    pub static SERVICE_QUEUE_WAIT: Phase = Phase::new("service.queue_wait");
    /// Worker-side application of one delta (wraps `SolverLoop::apply`
    /// incl. repair).
    pub static SERVICE_APPLY: Phase = Phase::new("service.apply");
    /// Publish fan-out of one delta's `deployments`/`degradation`
    /// frames to all subscribers.
    pub static SERVICE_PUBLISH: Phase = Phase::new("service.publish");

    /// Every declared phase, in schema order.
    pub static ALL: &[&Phase] = &[
        &REPORT,
        &ALG1_PLAN,
        &SUBSTRATE_BUILD,
        &ENUMERATION,
        &GREEDY,
        &CONNECTION,
        &SCORING,
        &SUBSTRATE_QUERY,
        &SWEEP_TOTAL,
        &VERIFY,
        &REPAIR,
        &RESOLVE_APPLY,
        &RESOLVE_PATCH,
        &RESOLVE_REFRESH,
        &SERVICE_WORKER,
        &SERVICE_INGRESS,
        &SERVICE_QUEUE_WAIT,
        &SERVICE_APPLY,
        &SERVICE_PUBLISH,
    ];
}

/// Every per-operation latency histogram, declared centrally. Names
/// are stable — the public schema of `hist` events and the snapshot's
/// `hists` section.
pub mod hists {
    use super::LatencyHist;

    /// Latency of one marginal-gain (trial-insertion) query of the
    /// coverage oracle, timed as the work runs. Only the queries that
    /// ran are timed, not those the sweep's gain memo answered: in a
    /// sweep its sample count is the sweep's gain queries minus its
    /// gain memo hits, plus those of work items that ran above the
    /// final watermark when a subset saturates the fleet.
    pub static GAIN_QUERY: LatencyHist = LatencyHist::new("greedy.gain_query_ns");
    /// Latency of writing one published frame to one subscriber
    /// socket during fan-out.
    pub static SUBSCRIBER_WRITE: LatencyHist = LatencyHist::new("service.subscriber_write_ns");

    /// Every declared latency histogram, in schema order.
    pub static ALL: &[&LatencyHist] = &[&GAIN_QUERY, &SUBSCRIBER_WRITE];
}

/// Every gauge of the pipeline, declared centrally. A gauge reports a
/// *last value* (schema 3): snapshots and the `gauge` lines emitted at
/// session end carry whatever was most recently
/// [`set`](crate::Gauge::set).
pub mod gauges {
    use super::Gauge;

    /// Depth of the solver-service bounded ingress queue, sampled by
    /// the worker each time it dequeues a job.
    pub static SERVICE_QUEUE_DEPTH: Gauge = Gauge::new("service.queue_depth");
    /// Whole seconds since the solver service started, refreshed on
    /// worker activity.
    pub static SERVICE_UPTIME_SECONDS: Gauge = Gauge::new("service.uptime_seconds");

    /// Every declared gauge, in schema order.
    pub static ALL: &[&Gauge] = &[&SERVICE_QUEUE_DEPTH, &SERVICE_UPTIME_SECONDS];
}

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg(not(feature = "enabled"))]
    #[test]
    fn disabled_build_is_inert() {
        assert!(!is_enabled());
        assert_eq!(
            session_begin(Provenance::detect()),
            Err(SessionError::Disabled)
        );
        assert!(!session_active());
        counters::SWEEP_GAIN_QUERIES.add(5);
        assert_eq!(counters::SWEEP_GAIN_QUERIES.get(), 0);
        phases::GREEDY.record_ns(1_000);
        drop(phases::GREEDY.span());
        assert_eq!(phases::GREEDY.total_ns(), 0);
        assert_eq!(phases::GREEDY.self_ns(), 0);
        hists::GAIN_QUERY.record_ns(77);
        drop(hists::GAIN_QUERY.timer());
        assert_eq!(hists::GAIN_QUERY.histogram().count(), 0);
        gauges::SERVICE_QUEUE_DEPTH.set(9);
        assert_eq!(gauges::SERVICE_QUEUE_DEPTH.get(), 0);
        emit_run("sweep", &[("s", 1)]);
        assert!(drain_events().is_empty());
        assert!(session_end().is_none());
        let snap = snapshot();
        assert!(snap.counters.is_empty() && snap.phases.is_empty() && snap.hists.is_empty());
        assert!(snap.gauges.is_empty());
        // Provenance is still detectable (threads, git sha) so the
        // snapshot header never lies about the build.
        assert!(!snap.provenance.git_sha.is_empty());
        assert!(snap.provenance.features.is_empty());
    }

    // The enabled-path tests mutate the global session; serialize them
    // so the parallel test runner cannot interleave recordings.
    #[cfg(feature = "enabled")]
    static TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[cfg(feature = "enabled")]
    #[test]
    fn session_records_counters_phases_hists_and_events() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        assert!(is_enabled());
        assert!(session_begin(Provenance::detect()).is_ok());
        assert!(
            session_begin(Provenance::detect()).is_err(),
            "nested sessions are rejected"
        );
        assert!(session_active());

        counters::SWEEP_GAIN_QUERIES.add(3);
        counters::SWEEP_GAIN_QUERIES.add(4);
        phases::GREEDY.record_ns(1_000);
        {
            let _span = phases::ALG1_PLAN.span();
        }
        hists::GAIN_QUERY.record_ns(250);
        drop(hists::GAIN_QUERY.timer());
        gauges::SERVICE_QUEUE_DEPTH.set(4);
        gauges::SERVICE_QUEUE_DEPTH.set(2);
        emit_run("sweep", &[("s", 2), ("served", 17)]);

        let snap = session_end().expect("active session yields a snapshot");
        assert!(!session_active());
        assert_eq!(snap.counter("sweep.gain_queries"), Some(7));
        // Gauges report the last value set, not an accumulation.
        assert_eq!(snap.gauge("service.queue_depth"), Some(2));
        assert_eq!(snap.gauge("no.such.gauge"), None);
        let greedy = snap.phase("greedy").unwrap();
        assert_eq!((greedy.total_ns, greedy.count), (1_000, 1));
        // record_ns counts fully as self-time and feeds the histogram.
        assert_eq!(greedy.self_ns, 1_000);
        assert_eq!(greedy.max_ns, 1_000);
        assert!(greedy.p50_ns >= 1_000 && greedy.p50_ns <= 1_000 + 1_000 / 8);
        assert_eq!(snap.phase("alg1_plan").unwrap().count, 1);
        assert_eq!(snap.counter("no.such.counter"), None);
        let gq = snap.hist("greedy.gain_query_ns").unwrap();
        assert_eq!(gq.count, 2);
        assert_eq!(gq.max_ns, gq.max_ns.max(250));
        assert!(snap.hist("no.such.hist").is_none());

        let events = drain_events();
        assert!(matches!(events[0].kind, EventKind::SessionStart { .. }));
        assert!(matches!(events.last().unwrap().kind, EventKind::SessionEnd));
        // seq strictly increasing, t_ns monotone non-decreasing.
        for w in events.windows(2) {
            assert!(w[1].seq > w[0].seq);
            assert!(w[1].t_ns >= w[0].t_ns);
        }
        // One counter event per declared counter, before session_end.
        let counter_events = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Counter { .. }))
            .count();
        assert_eq!(counter_events, counters::ALL.len());
        // One gauge event per declared gauge, carrying the last value.
        let gauge_events: Vec<_> = events
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::Gauge { name, value } => Some((*name, *value)),
                _ => None,
            })
            .collect();
        assert_eq!(gauge_events.len(), gauges::ALL.len());
        assert!(gauge_events.contains(&("service.queue_depth", 2)));
        // One hist event per non-empty histogram: greedy + alg1_plan
        // phase hists plus the gain-query latency hist.
        let hist_events: Vec<_> = events
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::Hist {
                    name,
                    buckets,
                    count,
                    ..
                } => Some((*name, buckets, *count)),
                _ => None,
            })
            .collect();
        assert_eq!(hist_events.len(), 3);
        for (name, buckets, count) in &hist_events {
            assert!(!buckets.is_empty(), "{name}: empty hist event");
            assert_eq!(buckets.last().unwrap().1, *count, "{name}: cum != count");
            for w in buckets.windows(2) {
                assert!(w[0].0 < w[1].0 && w[0].1 <= w[1].1, "{name}: not monotone");
            }
        }
        // The run event survives with its fields.
        let run = events
            .iter()
            .find_map(|e| match &e.kind {
                EventKind::Run { name, fields } if *name == "sweep" => Some(fields.clone()),
                _ => None,
            })
            .expect("run event recorded");
        assert_eq!(run, vec![("s", 2), ("served", 17)]);

        // JSON-lines round-trip shape (schema smoke test).
        let line = events[0].to_json_line();
        assert!(line.starts_with("{\"seq\":0,"));
        assert!(line.contains("\"type\":\"session_start\""));
        assert!(line.contains(SCHEMA));
        assert!(line.contains("\"git_sha\":"));
        assert!(line.contains("\"features\":"));
        assert!(line.contains("\"threads\":"));
        assert!(line.contains("\"instance_fingerprint\":\"0x"));
        let span_line = events
            .iter()
            .find(|e| matches!(e.kind, EventKind::Span { .. }))
            .unwrap()
            .to_json_line();
        assert!(span_line.contains("\"type\":\"span\""));
        assert!(span_line.contains("\"ns\":"));
        assert!(span_line.contains("\"id\":"));
        assert!(span_line.contains("\"tid\":"));
        assert!(span_line.contains("\"self_ns\":"));
        let gauge_line = events
            .iter()
            .find(|e| matches!(e.kind, EventKind::Gauge { .. }))
            .unwrap()
            .to_json_line();
        assert!(gauge_line.contains("\"type\":\"gauge\""));
        assert!(gauge_line.contains("\"value\":"));
        let hist_line = events
            .iter()
            .find(|e| matches!(e.kind, EventKind::Hist { .. }))
            .unwrap()
            .to_json_line();
        assert!(hist_line.contains("\"type\":\"hist\""));
        assert!(hist_line.contains("\"buckets\":[["));
        // Counters/phases no longer record once the session closed.
        counters::SWEEP_GAIN_QUERIES.add(9);
        assert_eq!(counters::SWEEP_GAIN_QUERIES.get(), 7);

        // Snapshot JSON contains every declared name plus provenance.
        let json = snap.to_json();
        assert!(json.contains("\"provenance\""));
        assert!(json.contains("\"instance_fingerprint\""));
        for c in counters::ALL {
            assert!(json.contains(c.name()), "{} missing", c.name());
        }
        for p in phases::ALL {
            assert!(json.contains(p.name()), "{} missing", p.name());
        }
        for h in hists::ALL {
            assert!(json.contains(h.name()), "{} missing", h.name());
        }
        for g in gauges::ALL {
            assert!(json.contains(g.name()), "{} missing", g.name());
        }
        assert!(json.contains("\"gauges\""));
        // Prometheus export covers the same schema.
        let prom = snap.to_prometheus();
        assert!(prom.contains("uavnet_build_info{schema=\"uavnet-obs/3\""));
        assert!(prom.contains("uavnet_sweep_gain_queries_total 7"));
        assert!(prom.contains("uavnet_service_queue_depth 2"));
        assert!(prom.contains("uavnet_phase_self_ns{phase=\"greedy\"} 1000"));
        assert!(prom.contains("uavnet_phase_duration_ns{phase=\"greedy\",quantile=\"0.5\"}"));
        assert!(prom.contains("uavnet_latency_ns{hist=\"greedy.gain_query_ns\",quantile=\"0.99\"}"));
        assert!(prom.contains("uavnet_latency_ns_count{hist=\"greedy.gain_query_ns\"} 2"));
        // Satellite: every exposed metric family carries a # HELP line.
        let helped: std::collections::HashSet<&str> = prom
            .lines()
            .filter_map(|l| l.strip_prefix("# HELP "))
            .filter_map(|l| l.split_whitespace().next())
            .collect();
        for line in prom.lines() {
            if line.starts_with('#') || line.is_empty() {
                continue;
            }
            let name = line.split(['{', ' ']).next().unwrap();
            // `_sum`/`_count` lines belong to their summary family's
            // HELP; everything else must carry its own.
            let summary_base = name
                .strip_suffix("_sum")
                .or_else(|| name.strip_suffix("_count"));
            assert!(
                helped.contains(name) || summary_base.is_some_and(|b| helped.contains(b)),
                "metric family {name} has no # HELP line"
            );
        }
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn spans_form_a_tree_with_self_time() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        assert!(session_begin(Provenance::detect()).is_ok());
        {
            let _root = phases::REPORT.span();
            {
                let _child = phases::ALG1_PLAN.span();
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            // Pre-aggregated fold: attaches under the root for
            // attribution but does not reduce its self-time.
            phases::GREEDY.record_ns(5_000);
        }
        session_end().unwrap();
        let events = drain_events();
        let spans: Vec<(&str, u64, Option<u64>, u64, u64)> = events
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::Span {
                    name,
                    id,
                    parent_id,
                    ns,
                    self_ns,
                    ..
                } => Some((*name, *id, *parent_id, *ns, *self_ns)),
                _ => None,
            })
            .collect();
        assert_eq!(spans.len(), 3);
        let alg1 = spans.iter().find(|s| s.0 == "alg1_plan").unwrap();
        let greedy = spans.iter().find(|s| s.0 == "greedy").unwrap();
        let root = spans.iter().find(|s| s.0 == "report").unwrap();
        // Unique nonzero ids; children point at the root; the root is
        // the only parentless span (a single rooted tree).
        assert!(spans.iter().all(|s| s.1 != 0));
        assert_eq!(alg1.2, Some(root.1));
        assert_eq!(greedy.2, Some(root.1));
        assert_eq!(root.2, None);
        assert_eq!(spans.iter().filter(|s| s.2.is_none()).count(), 1);
        // Child spans are leaves here: self == total. The root's
        // self-time excludes the timed child but not the record_ns
        // fold.
        assert_eq!(alg1.4, alg1.3);
        assert_eq!(greedy.4, greedy.3);
        assert_eq!(root.4, root.3 - alg1.3);
        assert!(root.3 >= alg1.3);
        // Phase accumulators mirror the span events.
        assert_eq!(phases::REPORT.self_ns(), root.4);
        assert_eq!(phases::REPORT.total_ns(), root.3);
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn poisoned_locks_recover_and_recording_continues() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        // Poison every internal lock the way a panicking worker would:
        // by unwinding while the guard is held.
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        for poison in [
            || {
                let _g = EVENTS.lock().unwrap();
                panic!("worker died holding the event log");
            },
            || {
                let _g = SESSION_START.lock().unwrap();
                panic!("worker died holding the clock");
            },
            || {
                let _g = PROVENANCE.lock().unwrap();
                panic!("worker died holding the provenance");
            },
        ] {
            assert!(std::panic::catch_unwind(poison).is_err());
        }
        std::panic::set_hook(hook);
        assert!(EVENTS.lock().is_err(), "EVENTS should now be poisoned");

        // Every session primitive must keep working: begin, record,
        // end, drain — no second panic, a complete log.
        assert!(
            session_begin(Provenance::detect()).is_ok(),
            "session_begin must recover the locks"
        );
        counters::SWEEP_RUNS.add(1);
        phases::GREEDY.record_ns(123);
        emit_run("sweep", &[("s", 1)]);
        let snap = session_end().expect("session_end must recover the locks");
        assert_eq!(snap.counter("sweep.runs"), Some(1));
        let events = drain_events();
        assert!(matches!(events[0].kind, EventKind::SessionStart { .. }));
        assert!(matches!(events.last().unwrap().kind, EventKind::SessionEnd));
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn double_begin_is_typed_and_leaves_session_intact() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        assert!(session_begin(Provenance::detect()).is_ok());
        counters::SWEEP_RUNS.add(3);
        // The second begin must fail without resetting anything.
        assert_eq!(
            session_begin(Provenance::detect()),
            Err(SessionError::AlreadyActive)
        );
        assert_eq!(counters::SWEEP_RUNS.get(), 3);
        let snap = session_end().unwrap();
        assert_eq!(snap.counter("sweep.runs"), Some(3));
        drain_events();
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn sessions_are_reentrant_within_one_process() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        // First session: leave a span-parent stack entry behind by
        // recording from a root span, then end cleanly.
        assert!(session_begin(Provenance::detect()).is_ok());
        {
            let _root = phases::REPORT.span();
            phases::GREEDY.record_ns(1_000);
        }
        counters::SWEEP_RUNS.add(7);
        session_end().unwrap();
        let first = drain_events();
        assert!(matches!(first[0].kind, EventKind::SessionStart { .. }));
        assert!(matches!(first.last().unwrap().kind, EventKind::SessionEnd));

        // Second session in the same process: everything must come up
        // zeroed with fresh span ids rooted at a parentless span.
        assert!(session_begin(Provenance::detect()).is_ok());
        assert_eq!(counters::SWEEP_RUNS.get(), 0);
        {
            let _root = phases::REPORT.span();
            phases::GREEDY.record_ns(2_000);
        }
        session_end().unwrap();
        let second = drain_events();
        let roots: Vec<_> = second
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::Span {
                    parent_id: None, ..
                } => Some(e.seq),
                _ => None,
            })
            .collect();
        assert_eq!(roots.len(), 1, "second session must have one rooted tree");
        // Sequence numbers restart per session.
        assert_eq!(second[0].seq, 0);
        assert!(matches!(second[0].kind, EventKind::SessionStart { .. }));
        assert!(matches!(second.last().unwrap().kind, EventKind::SessionEnd));
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn span_handles_parent_across_threads() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        assert!(session_begin(Provenance::detect()).is_ok());
        let root = phases::SERVICE_WORKER.span();
        let handle = root.handle().expect("recording span yields a handle");
        // A thread with an empty local stack attaches under the handle,
        // its same-thread children nest below it, and an explicit-parent
        // record_ns lands under the handle too.
        std::thread::spawn(move || {
            {
                let outer = phases::SERVICE_APPLY.span_under(Some(handle));
                assert!(outer.handle().is_some());
                let _inner = phases::REPAIR.span();
            }
            phases::SERVICE_QUEUE_WAIT.record_ns_under(Some(handle), 7_000);
        })
        .join()
        .unwrap();
        drop(root);
        session_end().unwrap();
        let events = drain_events();
        let spans: Vec<(&str, u64, Option<u64>, u64)> = events
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::Span {
                    name,
                    id,
                    parent_id,
                    tid,
                    ..
                } => Some((*name, *id, *parent_id, *tid)),
                _ => None,
            })
            .collect();
        assert_eq!(spans.len(), 4);
        let root_s = spans.iter().find(|s| s.0 == "service.worker").unwrap();
        let apply = spans.iter().find(|s| s.0 == "service.apply").unwrap();
        let repair = spans.iter().find(|s| s.0 == "repair").unwrap();
        let wait = spans.iter().find(|s| s.0 == "service.queue_wait").unwrap();
        assert_eq!(root_s.2, None);
        assert_eq!(apply.2, Some(root_s.1));
        assert_eq!(repair.2, Some(apply.1));
        assert_eq!(wait.2, Some(root_s.1));
        // Parent ids are always smaller (allocated on entry), so the
        // log keeps referential integrity even though the cross-thread
        // children closed before the root.
        for s in &spans {
            if let Some(p) = s.2 {
                assert!(p < s.1, "{}: parent_id {p} >= id {}", s.0, s.1);
            }
        }
        // The spawned thread got its own tid; same-thread spans share.
        assert_ne!(apply.3, root_s.3);
        assert_eq!(apply.3, repair.3);
        assert_eq!(apply.3, wait.3);
        // Cross-thread children do not subtract from the root's
        // wall-clock self-time.
        assert_eq!(
            phases::SERVICE_WORKER.self_ns(),
            phases::SERVICE_WORKER.total_ns()
        );
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn stale_handles_from_an_ended_session_are_ignored() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        assert!(session_begin(Provenance::detect()).is_ok());
        let handle = {
            let root = phases::SERVICE_WORKER.span();
            root.handle().unwrap()
        };
        session_end().unwrap();
        drain_events();
        // New session: the stale handle must not smuggle a dangling
        // parent_id into the fresh log.
        assert!(session_begin(Provenance::detect()).is_ok());
        {
            let _s = phases::SERVICE_APPLY.span_under(Some(handle));
        }
        phases::SERVICE_QUEUE_WAIT.record_ns_under(Some(handle), 1_000);
        session_end().unwrap();
        let events = drain_events();
        for e in &events {
            if let EventKind::Span {
                name, parent_id, ..
            } = &e.kind
            {
                assert_eq!(*parent_id, None, "{name}: stale parent survived");
            }
        }
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn trace_event_export_is_perfetto_shaped() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        assert!(session_begin(Provenance::detect()).is_ok());
        {
            let _root = phases::REPORT.span();
            let _child = phases::ALG1_PLAN.span();
        }
        gauges::SERVICE_QUEUE_DEPTH.set(3);
        emit_run("sweep", &[("s", 2)]);
        session_end().unwrap();
        let events = drain_events();
        let trace = dump_trace_event(&events);
        let doc = uavnet_json::Json::parse(&trace).expect("trace is valid JSON");
        let items = doc
            .get("traceEvents")
            .and_then(|v| v.as_arr())
            .expect("traceEvents array");
        let mut complete = 0u32;
        let mut counters_seen = 0u32;
        let mut instants = 0u32;
        for item in items {
            let ph = item.get("ph").unwrap().as_str().unwrap();
            match ph {
                "X" => {
                    complete += 1;
                    // Complete events carry ts + dur in microseconds
                    // and the obs span id in args.
                    assert!(item.get("ts").unwrap().as_f64().unwrap() >= 0.0);
                    assert!(item.get("dur").unwrap().as_f64().unwrap() >= 0.0);
                    assert!(item.get("tid").unwrap().as_f64().unwrap() >= 1.0);
                    assert!(item.get("args").unwrap().get("id").is_some());
                }
                "C" => counters_seen += 1,
                "i" => instants += 1,
                "M" => {}
                other => panic!("unexpected phase {other}"),
            }
        }
        assert_eq!(complete, 2, "one X event per span");
        // All counters + gauges, emitted at session end.
        assert_eq!(
            counters_seen as usize,
            counters::ALL.len() + gauges::ALL.len()
        );
        // session_start, session_end and the run record.
        assert_eq!(instants, 3);
        // The child's ts must not precede its parent's (start times
        // reconstructed from close-time minus duration).
        let ts_of = |wanted: &str| -> f64 {
            items
                .iter()
                .find(|i| {
                    i.get("ph").and_then(|p| p.as_str()) == Some("X")
                        && i.get("name").and_then(|n| n.as_str()) == Some(wanted)
                })
                .and_then(|i| i.get("ts"))
                .and_then(|t| t.as_f64())
                .unwrap()
        };
        assert!(ts_of("alg1_plan") >= ts_of("report"));
    }
}
