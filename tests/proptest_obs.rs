//! Observation must never perturb the solver: on random scenarios,
//! running the sweep inside an active `uavnet-obs` recording session
//! must reproduce the unobserved run bit-for-bit — same placements,
//! same assignment, same deterministic statistics — and the mirrored
//! obs counters must agree with the deterministic stats they were
//! folded from.
//!
//! The suite is meaningful in both builds: with the `obs` feature the
//! session actually records (and the counter cross-checks fire);
//! without it `session_begin` refuses and both runs are trivially
//! unobserved, which pins the no-op facade's API.
//!
//! The observed/unobserved comparisons run single-threaded through one
//! `#[test]` wrapper per property, because the obs session is a global
//! — a concurrently recording test would double-count into it.

use std::collections::HashSet;
use std::sync::Mutex;

use proptest::prelude::*;
use uavnet::channel::UavRadio;
use uavnet::core::{
    approx_alg_with_stats, ApproxConfig, CoreError, Delta, Instance, LoopConfig, ResolveStats,
    SolverLoop, User,
};
use uavnet::geom::{AreaSpec, GridSpec, Point2};
use uavnet::obs;
use uavnet::obs::EventKind;
use uavnet_service::{ClientConfig, ServiceClient, ServiceConfig, SolverService};

/// The obs session is process-global; tests in this binary serialize
/// on this lock so a concurrently recording test cannot double-count.
static OBS_LOCK: Mutex<()> = Mutex::new(());

prop_compose! {
    fn instances()(
        seed_users in proptest::collection::vec((0.0f64..900.0, 0.0f64..900.0), 1..14),
        caps in proptest::collection::vec(1u32..6, 2..5),
        uav_range in 320.0f64..700.0,
        user_range in 250.0f64..500.0,
    ) -> Instance {
        let grid = GridSpec::new(
            AreaSpec::new(900.0, 900.0, 500.0).unwrap(),
            300.0,
            300.0,
        )
        .unwrap()
        .build();
        let mut b = Instance::builder(grid, uav_range);
        for (x, y) in seed_users {
            b.add_user(Point2::new(x, y), 2_000.0);
        }
        for cap in caps {
            b.add_uav(cap, UavRadio::new(30.0, 5.0, user_range));
        }
        b.build().expect("valid instance")
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn observed_sweep_is_bit_identical_to_unobserved(
        instance in instances(),
        s in 1usize..=2,
    ) {
            let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
            let s = s.min(instance.num_uavs());
            let config = ApproxConfig::with_s(s).threads(2);

            prop_assert!(!obs::session_active(), "leaked session from a prior case");
            let (plain_sol, plain_stats) = approx_alg_with_stats(&instance, &config).unwrap();

            let began = obs::session_begin(obs::Provenance::detect()).is_ok();
            prop_assert_eq!(began, obs::is_enabled());
            let observed = approx_alg_with_stats(&instance, &config);
            let snap = obs::session_end();
            let events = obs::drain_events();
            let (obs_sol, obs_stats) = observed.unwrap();

            // The solution and every deterministic statistic are
            // unchanged by observation.
            prop_assert_eq!(
                obs_sol.deployment().placements(),
                plain_sol.deployment().placements()
            );
            prop_assert_eq!(obs_sol.served_users(), plain_sol.served_users());
            prop_assert_eq!(&obs_stats.plan, &plain_stats.plan);
            prop_assert_eq!(obs_stats.seed_pool_size, plain_stats.seed_pool_size);
            prop_assert_eq!(obs_stats.subsets_enumerated, plain_stats.subsets_enumerated);
            prop_assert_eq!(obs_stats.subsets_chain_pruned, plain_stats.subsets_chain_pruned);
            prop_assert_eq!(obs_stats.subsets_evaluated, plain_stats.subsets_evaluated);
            prop_assert_eq!(
                obs_stats.subsets_unconnectable,
                plain_stats.subsets_unconnectable
            );
            prop_assert_eq!(&obs_stats.best_seeds, &plain_stats.best_seeds);
            prop_assert_eq!(obs_stats.gain_queries, plain_stats.gain_queries);
            prop_assert_eq!(obs_stats.kernel, plain_stats.kernel);

            if obs::is_enabled() {
                // The mirrored counters agree with the deterministic
                // stats they were folded from.
                let snap = snap.expect("active session yields a snapshot");
                prop_assert_eq!(snap.counter("sweep.runs"), Some(1));
                prop_assert_eq!(
                    snap.counter("sweep.gain_queries"),
                    Some(obs_stats.gain_queries)
                );
                prop_assert_eq!(
                    snap.counter("sweep.subsets_enumerated"),
                    Some(obs_stats.subsets_enumerated as u64)
                );
                prop_assert_eq!(
                    snap.counter("sweep.subsets_evaluated"),
                    Some(obs_stats.subsets_evaluated as u64)
                );
                // Counts another record owns come from that record: one
                // Algorithm 1 plan and one substrate build are one span
                // each.
                for phase in ["alg1_plan", "substrate_build", "sweep_total"] {
                    prop_assert_eq!(snap.phase(phase).map(|p| p.count), Some(1), "{}", phase);
                }
                let k = &obs_stats.kernel;
                for (name, value) in [
                    ("greedy.bound_hits", k.greedy_bound_hits),
                    ("greedy.bound_reseeds", k.greedy_bound_reseeds),
                    ("greedy.commits", k.greedy_commits),
                    ("greedy.gain_memo_hits", k.gain_memo_hits),
                    ("matching.bfs_restarts", k.matching_bfs_restarts),
                    ("matching.prepass_hits", k.matching_prepass_hits),
                    ("connect.mst_connections", k.mst_connections),
                    ("connect.relays_added", k.relays_added),
                    ("connect.gateway_extensions", k.gateway_extensions),
                    ("connect.failures", k.connect_failures),
                ] {
                    prop_assert_eq!(snap.counter(name), Some(value), "{}", name);
                }
                // The gain-query latency samples are exactly the
                // sweep's gain queries that ran, the gain memo's answers
                // aside: the histogram never drops a timing under
                // concurrency. It times the work as it runs, so a sweep
                // that stopped at a fleet-saturating subset also timed
                // the work items above its final watermark that its
                // counters drop.
                let gain_hist = snap
                    .hist("greedy.gain_query_ns")
                    .expect("gain-query latency histogram present");
                let ran = obs_stats.gain_queries - k.gain_memo_hits;
                if obs_stats.subsets_bound_pruned == 0 {
                    prop_assert_eq!(gain_hist.count, ran);
                } else {
                    prop_assert!(gain_hist.count >= ran);
                }
                prop_assert!(gain_hist.p50_ns <= gain_hist.p90_ns);
                prop_assert!(gain_hist.p90_ns <= gain_hist.p99_ns);
                prop_assert!(gain_hist.p99_ns <= gain_hist.max_ns);
                // Span events form a forest: unique ids, parents
                // numbered before children (ids are allocated on span
                // entry), every parent reference resolving, and
                // self-time never exceeding wall time.
                let mut span_ids = HashSet::new();
                for e in &events {
                    if let EventKind::Span {
                        id,
                        parent_id,
                        ns,
                        self_ns,
                        ..
                    } = &e.kind
                    {
                        prop_assert!(span_ids.insert(*id), "duplicate span id {}", id);
                        prop_assert!(self_ns <= ns, "self_ns {} > ns {}", self_ns, ns);
                        if let Some(p) = parent_id {
                            prop_assert!(p < id, "parent id {} not before child {}", p, id);
                        }
                    }
                }
                prop_assert!(!span_ids.is_empty(), "an observed sweep emits spans");
                for e in &events {
                    if let EventKind::Span {
                        parent_id: Some(p), ..
                    } = &e.kind
                    {
                        prop_assert!(span_ids.contains(p), "dangling parent id {}", p);
                    }
                }
                // A complete JSON-lines log: session markers, one
                // counter line per declared counter, and a "sweep" run
                // record.
                prop_assert!(events
                    .first()
                    .is_some_and(|e| e.to_json_line().contains("session_start")));
                prop_assert!(events
                    .last()
                    .is_some_and(|e| e.to_json_line().contains("session_end")));
                let runs = events
                    .iter()
                    .filter(|e| e.to_json_line().contains("\"type\":\"run\""))
                    .count();
                prop_assert_eq!(runs, 1);
            } else {
                prop_assert!(snap.is_none());
                prop_assert!(events.is_empty());
            }
    }
}

/// Fixture for the service-path twin of the bit-identity property:
/// roomy enough that random moves, a kill and a surge all change
/// coverage, small enough that a cold solve stays fast.
fn service_instance() -> Instance {
    let grid = GridSpec::new(
        AreaSpec::new(1_500.0, 1_500.0, 500.0).unwrap(),
        300.0,
        300.0,
    )
    .unwrap()
    .build();
    let mut b = Instance::builder(grid, 450.0);
    for i in 0..8 {
        b.add_user(Point2::new(150.0 + 20.0 * i as f64, 150.0), 2_000.0);
    }
    for i in 0..8 {
        b.add_user(Point2::new(1_200.0 + 10.0 * i as f64, 1_200.0), 2_000.0);
    }
    for _ in 0..4 {
        b.add_uav(4, UavRadio::new(30.0, 5.0, 400.0));
    }
    for _ in 0..2 {
        b.add_uav(6, UavRadio::new(33.0, 6.0, 500.0));
    }
    b.build().unwrap()
}

fn service_loop_config() -> LoopConfig {
    LoopConfig::new(ApproxConfig::with_s(1))
}

/// A randomized delta plan over [`service_instance`]. The kill target
/// is a *slot* into the cold-solve placements, resolved against the
/// seed snapshot at replay time, so the plan never references an
/// unplaced UAV — and resolves identically in both runs because the
/// cold solve is deterministic.
#[derive(Debug, Clone)]
struct DeltaPlan {
    moves_a: Vec<(usize, f64, f64)>,
    kill_slot: usize,
    surge_n: usize,
    moves_b: Vec<(usize, f64, f64)>,
}

prop_compose! {
    fn delta_plans()(
        moves_a in proptest::collection::vec((0usize..16, 0.0f64..1_400.0, 0.0f64..1_400.0), 1..4),
        kill_slot in 0usize..6,
        surge_n in 0usize..3,
        moves_b in proptest::collection::vec((0usize..16, 0.0f64..1_400.0, 0.0f64..1_400.0), 1..4),
    ) -> DeltaPlan {
        DeltaPlan { moves_a, kill_slot, surge_n, moves_b }
    }
}

fn moves_delta(moves: &[(usize, f64, f64)]) -> Delta {
    Delta::UserMoved(
        moves
            .iter()
            .map(|&(i, x, y)| (i as u32, Point2::new(x, y)))
            .collect(),
    )
}

/// `(epoch, placements, served)` observed after each applied delta.
type ServiceObservations = Vec<(u64, Vec<(usize, usize)>, usize)>;

/// Replay `plan` through a spawned [`SolverService`], returning the
/// post-delta observations, the final summary and, when `record` is
/// set, the snapshot of an obs session begun right after the spawn
/// (so after the cold solve) and ended after the service drained.
fn run_service_plan(
    plan: &DeltaPlan,
    record: bool,
) -> (
    ServiceObservations,
    uavnet_service::ServiceSummary,
    Option<obs::MetricsSnapshot>,
) {
    let handle = SolverService::spawn(
        service_instance(),
        service_loop_config(),
        ServiceConfig::default(),
    )
    .expect("spawn service");
    if record {
        obs::session_begin(obs::Provenance::detect()).expect("begin the recorded run's session");
    }
    let mut publisher =
        ServiceClient::connect(handle.addr(), ClientConfig::default()).expect("connect");

    let seed = publisher.snapshot().expect("seed snapshot");
    let kill = seed.placements[plan.kill_slot % seed.placements.len()].0;
    let mut deltas = vec![moves_delta(&plan.moves_a), Delta::KillUavs(vec![kill])];
    if plan.surge_n > 0 {
        deltas.push(Delta::UserSurge(
            (0..plan.surge_n)
                .map(|i| User {
                    pos: Point2::new(300.0 + 40.0 * i as f64, 200.0),
                    min_rate_bps: 2_000.0,
                })
                .collect(),
        ));
    }
    deltas.push(moves_delta(&plan.moves_b));

    let mut observed = Vec::with_capacity(deltas.len());
    for delta in &deltas {
        publisher.publish(delta).expect("publish");
        let snap = publisher.snapshot().expect("snapshot");
        observed.push((snap.epoch, snap.placements, snap.served));
    }
    let summary = handle.shutdown_and_join().expect("shutdown");
    (observed, summary, obs::session_end())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Service-path twin of
    /// [`observed_sweep_is_bit_identical_to_unobserved`]: streaming
    /// the same delta plan through the TCP boundary with and without
    /// a recording obs session must produce bit-identical epochs,
    /// placements, served counts and cumulative solver stats — the
    /// whole tracing tentpole (spans, gauges, queue-wait histograms)
    /// is observation-only.
    #[test]
    fn observed_service_stream_is_bit_identical_to_unobserved(plan in delta_plans()) {
        let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        prop_assert!(!obs::session_active(), "leaked session from a prior case");
        obs::drain_events();

        let (plain_obs, plain_summary, plain_metrics) = run_service_plan(&plan, false);
        // Mirror the loopback suite: ask for recording only when the
        // obs feature can honor it, so the non-obs build still pins
        // the service path end to end.
        let (rec_obs, rec_summary, rec_metrics) = run_service_plan(&plan, obs::is_enabled());
        let events = obs::drain_events();

        prop_assert_eq!(&rec_obs, &plain_obs);
        prop_assert_eq!(rec_summary.epochs, plain_summary.epochs);
        prop_assert_eq!(rec_summary.served, plain_summary.served);
        prop_assert_eq!(&rec_summary.placements, &plain_summary.placements);
        prop_assert_eq!(&rec_summary.stats, &plain_summary.stats);
        prop_assert!(rec_summary.worker_panic.is_none());
        prop_assert!(plain_metrics.is_none());

        if obs::is_enabled() {
            let metrics = rec_metrics.as_ref().expect("recorded service run snapshots");
            for phase in ["service.queue_wait", "service.publish", "resolve.apply"] {
                prop_assert_eq!(
                    metrics.phase(phase).map(|p| p.count),
                    Some(rec_summary.epochs),
                    "{}",
                    phase
                );
            }
            // The session opens after the cold solve, so its resolve
            // counters are exactly the loop's stats.
            assert_resolve_counters_match(metrics, &rec_summary.stats);
            prop_assert!(!events.is_empty(), "recorded run emits events");
        } else {
            prop_assert!(rec_metrics.is_none());
            prop_assert!(events.is_empty());
        }
    }
}

fn twelve_user_instance() -> Instance {
    let grid = GridSpec::new(AreaSpec::new(900.0, 900.0, 500.0).unwrap(), 300.0, 300.0)
        .unwrap()
        .build();
    let mut b = Instance::builder(grid, 600.0);
    for i in 0..12 {
        b.add_user(Point2::new(70.0 * i as f64, 450.0), 2_000.0);
    }
    b.add_uav(6, UavRadio::new(30.0, 5.0, 450.0));
    b.add_uav(4, UavRadio::new(28.0, 4.0, 400.0));
    b.build().unwrap()
}

/// A worker panicking mid-sweep *inside a recording session* must
/// surface as the typed [`CoreError::Sweep`] (not abort, not poison
/// the process-global obs state): the interrupted session still
/// closes into a coherent snapshot and log, and the next session
/// records a clean run as if nothing happened. This is the
/// integration-level twin of the obs crate's poisoned-lock unit
/// tests — lock recovery via `PoisonError::into_inner` is what keeps
/// the facade usable after an unwind.
#[test]
fn worker_panic_yields_typed_error_and_obs_recovers() {
    let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let instance = twelve_user_instance();
    let config = ApproxConfig::with_s(1).threads(2).inject_worker_panic_at(0);

    let began = obs::session_begin(obs::Provenance::detect()).is_ok();
    assert_eq!(began, obs::is_enabled());
    let err = approx_alg_with_stats(&instance, &config).unwrap_err();
    assert!(
        matches!(err, CoreError::Sweep(_)),
        "expected CoreError::Sweep, got {err:?}"
    );
    let snap = obs::session_end();
    let events = obs::drain_events();
    if obs::is_enabled() {
        let snap = snap.expect("interrupted session still snapshots");
        // Work recorded before the panic survives; the aborted sweep
        // was never folded in.
        assert_eq!(snap.phase("alg1_plan").map(|p| p.count), Some(1));
        assert_eq!(snap.counter("sweep.runs"), Some(0));
        assert!(events
            .last()
            .is_some_and(|e| e.to_json_line().contains("session_end")));
    } else {
        assert!(snap.is_none());
        assert!(events.is_empty());
    }

    // The facade is not wedged: a fresh session records a full run.
    let began = obs::session_begin(obs::Provenance::detect()).is_ok();
    assert_eq!(began, obs::is_enabled());
    approx_alg_with_stats(&instance, &ApproxConfig::with_s(1).threads(2)).unwrap();
    let snap = obs::session_end();
    obs::drain_events();
    if obs::is_enabled() {
        let snap = snap.expect("clean session snapshots");
        assert_eq!(snap.counter("sweep.runs"), Some(1));
        assert!(snap.counter("sweep.gain_queries").unwrap() > 0);
    }
}

#[test]
fn repeated_sessions_reset_cleanly() {
    // Two identical observed runs in back-to-back sessions must report
    // identical counters: session_begin resets all state.
    let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let instance = twelve_user_instance();
    let config = ApproxConfig::with_s(1);

    let mut snaps = Vec::new();
    for _ in 0..2 {
        let began = obs::session_begin(obs::Provenance::detect()).is_ok();
        assert_eq!(began, obs::is_enabled());
        approx_alg_with_stats(&instance, &config).unwrap();
        snaps.push(obs::session_end());
        obs::drain_events();
    }
    if obs::is_enabled() {
        let a = snaps[0].as_ref().unwrap();
        let b = snaps[1].as_ref().unwrap();
        assert_eq!(
            a.counters, b.counters,
            "counters must not leak across sessions"
        );
    } else {
        assert!(snaps.iter().all(Option::is_none));
    }
}

/// Every `resolve.*` counter in `metrics` equals the [`ResolveStats`]
/// field it is derived from.
fn assert_resolve_counters_match(metrics: &obs::MetricsSnapshot, stats: &ResolveStats) {
    let mut seen = 0;
    for &(name, value) in &metrics.counters {
        let owner = match name {
            "resolve.stations_refreshed" => stats.stations_refreshed,
            "resolve.cold_solves" => stats.cold_solves,
            _ if name.starts_with("resolve.") => panic!("{name} has no ResolveStats owner"),
            _ => continue,
        };
        assert_eq!(value, owner as u64, "{name}");
        seen += 1;
    }
    assert_eq!(seen, 2, "every resolve counter is in the snapshot");
}

/// The resolve counters are derived from the loop's own stats, so they
/// agree after every call — rejected deltas included, which count
/// nowhere but in the `resolve.apply` phase.
#[test]
fn resolve_counters_agree_with_resolve_stats() {
    let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mut solver = SolverLoop::new(service_instance(), service_loop_config()).unwrap();
    let began = obs::session_begin(obs::Provenance::detect()).is_ok();
    assert_eq!(began, obs::is_enabled());
    let kill = solver.placements()[0].0;
    let deltas = [
        (moves_delta(&[(0, 700.0, 700.0), (9, 160.0, 1_250.0)]), true),
        (Delta::KillUavs(vec![99]), false),
        (moves_delta(&[(1, 5_000.0, 100.0)]), false),
        (
            Delta::UserSurge(vec![User {
                pos: Point2::new(320.0, 200.0),
                min_rate_bps: 2_000.0,
            }]),
            true,
        ),
        (Delta::KillUavs(vec![kill]), true),
        (moves_delta(&[(12, 400.0, 420.0)]), true),
    ];
    for (calls, (delta, applies)) in (1u64..).zip(deltas) {
        assert_eq!(solver.apply(delta).is_ok(), applies, "call {calls}");
        if obs::is_enabled() {
            let snap = obs::snapshot();
            assert_eq!(snap.phase("resolve.apply").map(|p| p.count), Some(calls));
            assert_resolve_counters_match(&snap, solver.stats());
        }
    }
    assert_eq!(solver.stats().deltas_applied, 4);
    assert!(solver.stats().stations_refreshed > 0 && solver.stats().repairs == 1);
    obs::session_end();
    obs::drain_events();
}
