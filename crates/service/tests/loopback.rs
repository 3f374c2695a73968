//! Loopback integration: a real TCP round trip through the service
//! must be observationally identical to driving the incremental
//! [`SolverLoop`] in-process, plus the robustness guarantees —
//! bounded-queue backpressure, graceful drain with a final snapshot,
//! worker-panic containment, and live HTTP telemetry.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Mutex;
use std::time::Duration;

use uavnet_channel::UavRadio;
use uavnet_core::{ApproxConfig, Delta, Instance, LoopConfig, SolverLoop, User};
use uavnet_geom::{AreaSpec, GridSpec, Point2};
use uavnet_service::{
    proto::{Request, TOPIC_DEGRADATION, TOPIC_DEPLOYMENTS},
    ClientConfig, Reply, ServiceClient, ServiceConfig, ServiceError, SolverService,
};

/// Same shape as the incremental engine's own fixture: a 5×5 grid
/// with two user clusters and a 6-UAV fleet, roomy enough for kills,
/// surges and moves to all change coverage.
fn build_instance() -> Instance {
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

fn loop_config() -> LoopConfig {
    LoopConfig::new(ApproxConfig::with_s(1))
}

/// The delta stream replayed in the bit-identity test: mobility,
/// a kill, and a surge.
fn delta_stream(first_uav: usize) -> Vec<Delta> {
    vec![
        Delta::UserMoved(vec![
            (0, Point2::new(700.0, 700.0)),
            (3, Point2::new(160.0, 1_250.0)),
        ]),
        Delta::KillUavs(vec![first_uav]),
        Delta::UserSurge(
            (0..3)
                .map(|i| User {
                    pos: Point2::new(200.0 + i as f64, 160.0),
                    min_rate_bps: 2_000.0,
                })
                .collect(),
        ),
        Delta::UserMoved(vec![(10, Point2::new(400.0, 420.0))]),
    ]
}

/// The obs session is process-global: every test that runs a solver
/// takes this lock, so no sweep lands in another test's recording.
static OBS_LOCK: Mutex<()> = Mutex::new(());

/// Begins an obs session owned by the test, as an embedder owns it,
/// when the instrumentation is compiled in, and opens the root span
/// whose handle parents the service worker's span. Returns whether a
/// session records, plus the root guard: drop it after
/// `shutdown_and_join`, then end the session.
fn begin_recording() -> (bool, uavnet_obs::SpanGuard) {
    let record_obs = uavnet_obs::is_enabled();
    if record_obs {
        uavnet_obs::session_begin(uavnet_obs::Provenance::detect())
            .expect("begin the test's obs session");
    }
    (record_obs, uavnet_obs::phases::REPORT.span())
}

fn client(addr: SocketAddr) -> ServiceClient {
    ServiceClient::connect(addr, ClientConfig::default()).expect("connect")
}

/// Minimal HTTP GET against the telemetry endpoint; returns the
/// status line and the body.
fn http_get(addr: SocketAddr, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect http");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: loopback\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    stream.flush().unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read http response");
    let (head, body) = raw.split_once("\r\n\r\n").expect("http header terminator");
    let status = head.lines().next().unwrap_or_default().to_string();
    (status, body.to_string())
}

#[test]
fn loopback_stream_is_bit_identical_to_in_process_solver() {
    let _obs = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let instance = build_instance();
    let mut twin = SolverLoop::new(instance.clone(), loop_config()).expect("in-process twin");
    let handle = SolverService::spawn(instance, loop_config(), ServiceConfig::default())
        .expect("spawn service");

    let mut subscriber = client(handle.addr());
    subscriber
        .subscribe(&[TOPIC_DEPLOYMENTS, TOPIC_DEGRADATION])
        .expect("subscribe");

    let mut publisher = client(handle.addr());
    publisher.ping().expect("ping");

    // The service cold-solved the same instance with the same config,
    // so before any delta the snapshot must already coincide.
    let seed = publisher.snapshot().expect("seed snapshot");
    assert_eq!(seed.epoch, 0);
    assert_eq!(seed.placements, twin.placements().to_vec());
    assert_eq!(seed.served, twin.served_users());

    let first_uav = twin.placements()[0].0;
    let mut degradations = 0;
    for (i, delta) in delta_stream(first_uav).into_iter().enumerate() {
        let served_before = twin.served_users();
        let remote = publisher.publish(&delta).expect("publish delta");
        let local = twin.apply(delta).expect("twin apply");
        assert_eq!(remote.served, local.served, "delta {i}: served");
        assert_eq!(
            remote.stations_refreshed, local.stations_refreshed,
            "delta {i}: stations refreshed"
        );
        assert_eq!(
            remote.dropped_placements, local.dropped_placements,
            "delta {i}: dropped placements"
        );
        assert_eq!(remote.cold_solved, local.cold_solved, "delta {i}: cold");

        // Each absorbed delta is published to subscribers; the server
        // emits a degradation report exactly when the outcome shows
        // lost coverage or repair spend, so the expectation is
        // computable from the acked outcome itself.
        let event = subscriber.next_event().expect("deployment event");
        let Reply::Deployment(dep) = event else {
            panic!("expected deployment event, got {event:?}");
        };
        assert_eq!(dep.epoch as usize, i + 1);
        assert_eq!(dep.placements, twin.placements().to_vec(), "delta {i}");
        assert_eq!(dep.served, twin.served_users());
        let expect_degradation = remote.served < served_before
            || remote.dropped_placements > 0
            || remote.relays_spent > 0
            || remote.cold_solved;
        if expect_degradation {
            match subscriber.next_event().expect("degradation event") {
                Reply::Degradation(d) => {
                    degradations += 1;
                    assert_eq!(d.epoch, dep.epoch);
                    assert_eq!(d.served_before, served_before);
                    assert_eq!(d.served_after, dep.served);
                }
                other => panic!("expected degradation event, got {other:?}"),
            }
        }
    }
    assert!(
        degradations > 0,
        "killing a placed UAV must produce at least one degradation report"
    );

    // Oracle 7 on the in-process twin: incremental result equals a
    // cold rescore of the same survivor state. (Under debug-validate
    // the server ran the same oracle inline after every apply.)
    let cold = twin.cold_rescore().expect("cold rescore");
    assert_eq!(twin.served_users(), cold.served_users());

    // Final bit-identity of the full placement vector over the wire.
    let snap = publisher.snapshot().expect("final snapshot");
    assert_eq!(snap.placements, twin.placements().to_vec());
    assert_eq!(snap.served, twin.served_users());

    let summary = handle.shutdown_and_join().expect("summary");
    assert_eq!(summary.epochs, 4);
    assert_eq!(summary.placements, twin.placements().to_vec());
    assert!(summary.worker_panic.is_none());
}

#[test]
fn subscriber_diffs_replay_onto_previous_deployment() {
    let _obs = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let instance = build_instance();
    let handle = SolverService::spawn(instance, loop_config(), ServiceConfig::default())
        .expect("spawn service");

    let mut subscriber = client(handle.addr());
    subscriber
        .subscribe(&[TOPIC_DEPLOYMENTS])
        .expect("subscribe");
    let mut publisher = client(handle.addr());

    let mut prev = publisher.snapshot().expect("seed").placements;
    let first_uav = prev[0].0;
    for delta in delta_stream(first_uav) {
        publisher.publish(&delta).expect("publish");
        let Reply::Deployment(dep) = subscriber.next_event().expect("event") else {
            panic!("expected deployment");
        };
        let mut replayed: Vec<(usize, usize)> = prev
            .iter()
            .copied()
            .filter(|p| !dep.removed.contains(p))
            .chain(dep.added.iter().copied())
            .collect();
        replayed.sort_unstable();
        let mut full = dep.placements.clone();
        full.sort_unstable();
        assert_eq!(replayed, full, "diff must replay onto previous deployment");
        prev = dep.placements;
    }
    handle.shutdown_and_join().expect("summary");
}

#[test]
fn flood_gets_typed_busy_and_queue_stays_bounded() {
    let _obs = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let instance = build_instance();
    let config = ServiceConfig {
        queue_capacity: 2,
        apply_delay: Duration::from_millis(30),
        ..ServiceConfig::default()
    };
    let handle = SolverService::spawn(instance, loop_config(), config).expect("spawn service");

    // Flood 24 mobility frames down one connection without reading
    // replies: the reader must answer from the bounded queue only —
    // acks for what fit, typed Busy for the overflow — never buffer.
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let total = 24u64;
    for seq in 0..total {
        let req = Request::Publish {
            topic: "deltas/mobility".to_string(),
            seq,
            trace_id: None,
            payload: uavnet_json::Json::parse(r#"{"moves":[[0,710.0,690.0]]}"#).unwrap(),
        };
        stream.write_all(req.to_line().as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
    }
    stream.flush().unwrap();

    let mut reader = BufReader::new(stream);
    let mut acks = 0u64;
    let mut busys = 0u64;
    let mut line = String::new();
    for _ in 0..total {
        line.clear();
        reader.read_line(&mut line).expect("read reply");
        match Reply::from_line(line.trim_end()).expect("decode reply") {
            Reply::Ack { .. } => acks += 1,
            Reply::Busy { queue_capacity, .. } => {
                busys += 1;
                assert_eq!(queue_capacity, 2, "busy reports the bounded capacity");
            }
            other => panic!("unexpected flood reply: {other:?}"),
        }
    }
    assert_eq!(acks + busys, total);
    assert!(
        busys > 0,
        "a 30ms-per-apply worker behind a 2-slot queue must shed load"
    );
    assert!(acks > 0, "queued deltas still get applied and acked");

    // After the flood drains, a retrying client gets through: the
    // service degraded politely instead of dying or buffering.
    let mut retry = client(handle.addr());
    retry
        .publish(&Delta::UserMoved(vec![(1, Point2::new(500.0, 500.0))]))
        .expect("publish after flood");

    let summary = handle.shutdown_and_join().expect("summary");
    assert_eq!(summary.epochs, acks + 1);
    assert!(summary.worker_panic.is_none());
}

#[test]
fn graceful_shutdown_drains_in_flight_deltas_and_publishes_final_snapshot() {
    let _obs = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let instance = build_instance();
    let config = ServiceConfig {
        apply_delay: Duration::from_millis(10),
        ..ServiceConfig::default()
    };
    let handle = SolverService::spawn(instance, loop_config(), config).expect("spawn service");

    let mut subscriber = client(handle.addr());
    subscriber
        .subscribe(&[TOPIC_DEPLOYMENTS])
        .expect("subscribe");

    // Enqueue 5 deltas and the shutdown request back-to-back without
    // waiting for acks: all five are in flight when shutdown lands,
    // and the drain contract says every one must still be applied.
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let total = 5u64;
    for seq in 0..total {
        let req = Request::Publish {
            topic: "deltas/mobility".to_string(),
            seq,
            trace_id: None,
            payload: uavnet_json::Json::parse(&format!(
                r#"{{"moves":[[{seq},700.0,{}]]}}"#,
                650.0 + seq as f64
            ))
            .unwrap(),
        };
        stream.write_all(req.to_line().as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
    }
    stream
        .write_all((Request::Shutdown.to_line() + "\n").as_bytes())
        .unwrap();
    stream.flush().unwrap();

    // The publisher connection sees every ack plus the shutdown
    // confirmation (order between the two writers is unspecified).
    let mut reader = BufReader::new(stream);
    let mut acks = 0u64;
    let mut shutting_down = false;
    let mut line = String::new();
    while acks < total || !shutting_down {
        line.clear();
        reader.read_line(&mut line).expect("read reply");
        match Reply::from_line(line.trim_end()).expect("decode reply") {
            Reply::Ack { .. } => acks += 1,
            Reply::ShuttingDown => shutting_down = true,
            other => panic!("unexpected reply during drain: {other:?}"),
        }
    }

    // The subscriber sees all five deployments, then the final
    // snapshot marked `is_final`.
    let mut finals = 0;
    let mut epochs_seen = 0u64;
    loop {
        let Reply::Deployment(dep) = subscriber.next_event().expect("event") else {
            panic!("expected deployment");
        };
        if dep.is_final {
            finals += 1;
            assert_eq!(dep.epoch, total, "final snapshot carries the last epoch");
            break;
        }
        epochs_seen += 1;
        assert_eq!(dep.epoch, epochs_seen);
    }
    assert_eq!(epochs_seen, total);
    assert_eq!(finals, 1);

    let summary = handle.shutdown_and_join().expect("summary");
    assert_eq!(summary.epochs, total);
}

#[test]
fn worker_panic_is_contained_and_poisons_the_loop() {
    let _obs = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let instance = build_instance();
    let config = ServiceConfig {
        inject_panic_on_seq: Some(1),
        ..ServiceConfig::default()
    };
    let handle = SolverService::spawn(instance, loop_config(), config).expect("spawn service");

    let mut publisher = client(handle.addr());
    let move_delta = Delta::UserMoved(vec![(0, Point2::new(710.0, 690.0))]);
    publisher.publish(&move_delta).expect("seq 0 applies");
    assert!(handle.is_healthy());

    // Seq 1 panics inside the worker; the client gets a typed remote
    // error, not a hang or a dropped connection.
    let err = publisher.publish(&move_delta).expect_err("seq 1 panics");
    match err {
        ServiceError::Remote(m) => assert!(m.contains("panicked"), "got: {m}"),
        other => panic!("expected remote error, got {other:?}"),
    }
    assert!(!handle.is_healthy(), "panic flips liveness");

    // The loop is poisoned: further deltas and snapshots are refused
    // with typed errors, the connection and process stay up.
    let err = publisher.publish(&move_delta).expect_err("poisoned");
    match err {
        ServiceError::Remote(m) => assert!(m.contains("poisoned"), "got: {m}"),
        other => panic!("expected remote error, got {other:?}"),
    }
    let err = publisher.snapshot().expect_err("snapshot refused");
    assert!(matches!(err, ServiceError::Remote(_)));

    // Telemetry reflects the poisoning: /healthz 503, /metrics live.
    let (status, body) = http_get(handle.http_addr(), "/healthz");
    assert!(status.contains("503"), "got: {status}");
    assert!(body.contains("unhealthy"));
    let (status, body) = http_get(handle.http_addr(), "/metrics");
    assert!(status.contains("200"));
    assert!(body.contains("uavnet_service_healthy 0"));
    assert!(body.contains("uavnet_service_deltas_applied_total 1"));

    let summary = handle.shutdown_and_join().expect("summary");
    assert_eq!(summary.epochs, 1);
    assert!(summary
        .worker_panic
        .as_deref()
        .is_some_and(|m| m.contains("injected")));
}

#[test]
fn http_endpoint_serves_metrics_health_and_404() {
    let _obs = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let instance = build_instance();
    // Record an obs session when the instrumentation is compiled in,
    // so /metrics carries live resolve.* counters.
    let (record_obs, root) = begin_recording();
    let config = ServiceConfig {
        obs_parent: root.handle(),
        ..ServiceConfig::default()
    };
    let handle = SolverService::spawn(instance, loop_config(), config).expect("spawn service");

    let (status, body) = http_get(handle.http_addr(), "/healthz");
    assert!(status.contains("200"), "got: {status}");
    assert_eq!(body, "ok\n");

    let mut publisher = client(handle.addr());
    publisher
        .publish(&Delta::UserMoved(vec![(0, Point2::new(710.0, 690.0))]))
        .expect("publish");

    let (status, body) = http_get(handle.http_addr(), "/metrics");
    assert!(status.contains("200"));
    assert!(body.contains("uavnet_service_healthy 1"));
    assert!(body.contains("uavnet_service_deltas_applied_total 1"));
    let mut families: Vec<&str> = body
        .lines()
        .filter_map(|l| l.strip_prefix("# TYPE "))
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    let declared = families.len();
    families.sort_unstable();
    families.dedup();
    assert_eq!(
        families.len(),
        declared,
        "a family is declared twice:\n{body}"
    );
    if record_obs {
        assert!(
            body.contains("uavnet_phase_count{phase=\"resolve.apply\"} 1"),
            "live resolve phases must be scrapeable:\n{body}"
        );
    }

    let (status, _) = http_get(handle.http_addr(), "/nope");
    assert!(status.contains("404"), "got: {status}");

    let summary = handle.shutdown_and_join().expect("summary");
    assert_eq!(summary.epochs, 1);
    drop(root);
    let metrics = uavnet_obs::session_end();
    if record_obs {
        assert!(metrics.is_some(), "recorded session yields a snapshot");
    }
}

#[test]
fn trace_id_round_trips_and_span_tree_is_single_rooted() {
    let _obs = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (record_obs, root) = begin_recording();

    let instance = build_instance();
    let config = ServiceConfig {
        obs_parent: root.handle(),
        ..ServiceConfig::default()
    };
    let handle = SolverService::spawn(instance, loop_config(), config).expect("spawn service");

    let mut subscriber = client(handle.addr());
    subscriber
        .subscribe(&[TOPIC_DEPLOYMENTS, TOPIC_DEGRADATION])
        .expect("subscribe");
    let mut publisher = client(handle.addr());

    // A traced publish echoes the id on the ack and stamps it on the
    // correlated deployment frame.
    let receipt = publisher
        .publish_traced(
            &Delta::UserMoved(vec![(0, Point2::new(710.0, 690.0))]),
            Some("req-42"),
        )
        .expect("traced publish");
    assert_eq!(receipt.trace_id.as_deref(), Some("req-42"));
    assert!(receipt.rtt > Duration::ZERO, "rtt is measured");
    let Reply::Deployment(dep) = subscriber.next_event().expect("event") else {
        panic!("expected deployment");
    };
    assert_eq!(dep.trace_id.as_deref(), Some("req-42"));

    // An untraced publish stays untraced end to end.
    let receipt = publisher
        .publish_traced(
            &Delta::UserMoved(vec![(1, Point2::new(500.0, 510.0))]),
            None,
        )
        .expect("untraced publish");
    assert_eq!(receipt.trace_id, None);
    let Reply::Deployment(dep) = subscriber.next_event().expect("event") else {
        panic!("expected deployment");
    };
    assert_eq!(dep.trace_id, None);

    let kill_target = dep.placements[0].0;
    let receipt = publisher
        .publish_traced(&Delta::KillUavs(vec![kill_target]), Some("req-kill"))
        .expect("traced kill");
    assert_eq!(receipt.trace_id.as_deref(), Some("req-kill"));
    // The kill's deployment *and* degradation frames carry the id.
    let Reply::Deployment(dep) = subscriber.next_event().expect("event") else {
        panic!("expected deployment");
    };
    assert_eq!(dep.trace_id.as_deref(), Some("req-kill"));
    let Reply::Degradation(deg) = subscriber.next_event().expect("degradation") else {
        panic!("expected degradation");
    };
    assert_eq!(deg.trace_id.as_deref(), Some("req-kill"));

    let summary = handle.shutdown_and_join().expect("summary");
    assert_eq!(summary.epochs, 3);
    drop(root);

    if record_obs {
        // The recorded span tree must be single-rooted at the test's
        // `report` span with `service.worker` below it, and every
        // cross-thread per-delta span (ingress on the reader,
        // queue-wait/apply/publish on the worker) attached below
        // that, ids parent-before-child.
        uavnet_obs::session_end().expect("recorded session yields a snapshot");
        let events = uavnet_obs::drain_events();
        let spans: Vec<(&'static str, u64, Option<u64>)> = events
            .iter()
            .filter_map(|e| match e.kind {
                uavnet_obs::EventKind::Span {
                    name,
                    id,
                    parent_id,
                    ..
                } => Some((name, id, parent_id)),
                _ => None,
            })
            .collect();
        let roots: Vec<_> = spans.iter().filter(|s| s.2.is_none()).collect();
        assert_eq!(roots.len(), 1, "single root, got {roots:?}");
        assert_eq!(roots[0].0, "report");
        assert!(
            spans
                .iter()
                .any(|s| s.0 == "service.worker" && s.2 == Some(roots[0].1)),
            "service.worker hangs under the root: {spans:?}"
        );
        for stage in [
            "service.ingress",
            "service.queue_wait",
            "service.apply",
            "service.publish",
            "resolve.apply",
        ] {
            assert!(
                spans.iter().any(|s| s.0 == stage && s.2.is_some()),
                "stage {stage} must appear as a parented span: {spans:?}"
            );
        }
        for (name, id, parent) in &spans {
            if let Some(p) = parent {
                assert!(p < id, "parent id precedes child ({name})");
            }
        }
    }
}
