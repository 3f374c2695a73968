//! Loopback smoke benchmark for the long-running solver service
//! (`uavnet-service`): drives a pinned-scale instance through a real
//! TCP delta stream with per-request trace ids, checks the published
//! deployment is bit-identical to an in-process [`SolverLoop`] twin,
//! runs verify oracle 7 ([`check_incremental`]) over the same delta
//! mix, scrapes `/metrics` when the obs instrumentation is compiled
//! in, and merges a `service` section — including per-stage
//! queue-wait / apply / repair / publish latency percentiles — into
//! `BENCH_sweep.json`.
//!
//! Usage: `cargo run --release -p uavnet-bench --bin service_report --
//! [--scale quick|large] [--threads N] [--ticks N] [--out PATH]
//! [--obs-log PATH] [--obs-metrics PATH] [--obs-prom PATH]
//! [--trace-out PATH]`
//!
//! The obs flags need the instrumentation compiled in (`--features
//! obs`): `--obs-log` writes the `uavnet-obs/3` event log,
//! `--obs-metrics`/`--obs-prom` the final snapshot (JSON /
//! Prometheus), and `--trace-out` a Chrome trace-event file of the
//! span tree, loadable in Perfetto (`ui.perfetto.dev`).
//!
//! The report *merges*: an existing `--out` file keeps every other
//! top-level section (sweep and resolve evidence) and only the
//! `service` member is replaced. Once it is written, a recorded run
//! checks that the repair stage saw at least one sample and exits 1
//! otherwise (exit codes in `uavnet_bench::report`).

use std::io::{Read, Write};
use std::net::TcpStream;
use std::process::ExitCode;
use std::time::Duration;

use uavnet_bench::report::{self, obj, Args, Common, Harness};
use uavnet_bench::{Scale, MOBILITY_THRESHOLD_M};
use uavnet_core::{check_incremental, ApproxConfig, Delta, Instance, SolverLoop};
use uavnet_json::Json;
use uavnet_service::{
    proto::TOPIC_DEPLOYMENTS, ClientConfig, Reply, ServiceClient, ServiceConfig, SolverService,
};

const HARNESS: Harness = Harness {
    name: "service_report",
    usage: "usage: service_report [--scale quick|large] [--threads N] [--ticks N] \
            [--out PATH] [--obs-log PATH] [--obs-metrics PATH] [--obs-prom PATH] \
            [--trace-out PATH]",
};

/// Everything `main` needs, parsed and validated.
#[derive(Debug)]
struct Options {
    common: Common,
    scale: Scale,
    ticks: usize,
}

fn parse_args(args: &mut Args) -> Result<Options, String> {
    let mut scale = Scale::quick();
    let mut ticks = None;
    let mut common = Common::default();
    while let Some(flag) = args.next_flag() {
        match flag.as_str() {
            "--scale" => scale = args.scales(&["quick", "large"])?.remove(0),
            "--ticks" => ticks = Some(args.positive(&flag)?),
            "--trace-out" => common.obs.trace = Some(args.value(&flag)?),
            _ => common.parse_flag(&flag, args)?,
        }
    }
    // Large runs default shorter: every delta also cold-rescored by
    // the oracle, and a 100k-user rescore dominates the wall clock.
    let ticks = ticks.unwrap_or(if scale.name == "quick" { 24 } else { 6 });
    Ok(Options {
        common,
        scale,
        ticks,
    })
}

/// The recorded repair stage saw at least one sample: the spliced-in
/// UAV kill reached the solver's repair path.
fn check_repair_stage(repair_count: u64) -> Result<(), String> {
    report::at_least("stages.repair.count", repair_count as f64, 1.0)
}

/// The streamed workload: `ticks` mobility batches with a UAV kill
/// spliced into the middle — the disaster the service exists to
/// absorb online.
fn delta_stream(instance: &Instance, ticks: usize, seed: u64) -> Vec<Delta> {
    let mut mobility = uavnet_bench::mobility(instance, seed);
    let mut deltas = Vec::with_capacity(ticks + 1);
    for tick in 0..ticks {
        if tick == ticks / 2 {
            deltas.push(Delta::KillUavs(vec![0]));
        }
        deltas.push(Delta::UserMoved(mobility.step_deltas(MOBILITY_THRESHOLD_M)));
    }
    deltas
}

/// Minimal HTTP GET against the service telemetry endpoint.
fn http_get(addr: std::net::SocketAddr, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect telemetry endpoint");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: loopback\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read http response");
    let (head, body) = raw.split_once("\r\n\r\n").expect("http header terminator");
    (
        head.lines().next().unwrap_or_default().to_string(),
        body.to_string(),
    )
}

/// One per-stage latency block for the report: sample count and
/// p50/p90/p99 nanoseconds.
fn stage_json(count: u64, p50: u64, p90: u64, p99: u64) -> Json {
    obj(vec![
        ("count", Json::Num(count as f64)),
        ("p50_ns", Json::Num(p50 as f64)),
        ("p90_ns", Json::Num(p90 as f64)),
        ("p99_ns", Json::Num(p99 as f64)),
    ])
}

fn main() -> ExitCode {
    let Options {
        common,
        scale,
        ticks,
    } = HARNESS.options(parse_args);
    let threads = common.threads;
    let run = HARNESS.start(&common);

    let instance = scale.instance(scale.n_max(), scale.k_max());
    let loop_config = scale.loop_config(threads);
    let deltas = delta_stream(&instance, ticks, scale.seed ^ 0x5e51);

    // The in-process twin the wire protocol must coincide with.
    let mut twin =
        SolverLoop::new(instance.clone(), loop_config.clone()).expect("in-process solver");
    let served_first = twin.served_users();

    // The report owns the obs session (rather than handing it to the
    // service via `record_obs`): the in-process twin and the oracle
    // replay run on this thread inside the same session, and the
    // report-level root span below keeps the whole log — twin, oracle
    // and the service worker's tree, attached via the explicit parent
    // handle — one rooted tree.
    let record_obs = uavnet_obs::is_enabled();
    if record_obs {
        run.begin_recording(threads, report::fingerprint([&instance]));
    }
    let report_span = uavnet_obs::phases::REPORT.span();
    let handle = SolverService::spawn(
        instance.clone(),
        loop_config,
        ServiceConfig {
            obs_parent: report_span.handle(),
            ..ServiceConfig::default()
        },
    )
    .expect("spawn solver service");

    let mut subscriber =
        ServiceClient::connect(handle.addr(), ClientConfig::default()).expect("connect subscriber");
    subscriber
        .subscribe(&[TOPIC_DEPLOYMENTS])
        .expect("subscribe deployments");
    let mut publisher =
        ServiceClient::connect(handle.addr(), ClientConfig::default()).expect("connect publisher");

    // The client measures publish RTT itself (send → ack) and the
    // server echoes each trace id on the ack and stamps it on the
    // correlated deployment frame.
    let mut rtt_ns: Vec<u64> = Vec::with_capacity(deltas.len());
    let mut deployments = 0u64;
    for (i, delta) in deltas.iter().enumerate() {
        let trace_id = format!("delta-{i}");
        let receipt = publisher
            .publish_traced(delta, Some(&trace_id))
            .expect("publish delta");
        assert_eq!(
            receipt.trace_id.as_deref(),
            Some(trace_id.as_str()),
            "delta {i}: ack must echo the trace id"
        );
        rtt_ns.push(receipt.rtt.as_nanos() as u64);
        let local = twin.apply(delta.clone()).expect("twin apply");
        let remote = &receipt.outcome;
        assert_eq!(
            (remote.served, remote.dirty_tiles, remote.dropped_placements),
            (local.served, local.dirty_tiles, local.dropped_placements),
            "delta {i}: wire outcome diverged from the in-process solver"
        );
        match subscriber.next_event().expect("deployment event") {
            Reply::Deployment(dep) => {
                deployments += 1;
                assert_eq!(
                    dep.trace_id.as_deref(),
                    Some(trace_id.as_str()),
                    "delta {i}: deployment frame must carry the trace id"
                );
                assert_eq!(
                    dep.placements,
                    twin.placements().to_vec(),
                    "delta {i}: published deployment diverged"
                );
            }
            other => panic!("expected deployment event, got {other:?}"),
        }
    }

    // Bit-identity of the final deployment over the wire.
    let snap = publisher.snapshot().expect("final snapshot");
    assert_eq!(snap.placements, twin.placements().to_vec());
    assert_eq!(snap.served, twin.served_users());
    let served_last = snap.served;

    // Verify oracle 7 over the same delta mix: the incremental result
    // equals a cold rescore at every step.
    check_incremental(
        &instance,
        &ApproxConfig::with_s(1).threads(threads),
        &deltas,
    )
    .expect("verify oracle 7 rejected the incremental solver");

    // Scrape live telemetry while the service still runs.
    let (health_status, _) = http_get(handle.http_addr(), "/healthz");
    assert!(health_status.contains("200"), "got: {health_status}");
    let (metrics_status, metrics_body) = http_get(handle.http_addr(), "/metrics");
    assert!(metrics_status.contains("200"), "got: {metrics_status}");
    assert!(metrics_body.contains("uavnet_service_healthy 1"));
    assert!(metrics_body.contains(&format!(
        "uavnet_service_deltas_applied_total {}",
        deltas.len()
    )));
    if record_obs {
        assert!(
            metrics_body.contains("uavnet_resolve_deltas_total"),
            "obs build must scrape live resolve.* counters:\n{metrics_body}"
        );
        assert!(
            metrics_body.contains("uavnet_service_uptime_seconds"),
            "obs build must scrape service gauges:\n{metrics_body}"
        );
    }

    let summary = handle.shutdown_and_join().expect("service summary");
    assert_eq!(summary.epochs, deltas.len() as u64);
    assert!(summary.worker_panic.is_none());
    assert_eq!(summary.placements, twin.placements().to_vec());

    // Close the report root (the worker's root, its child, already
    // closed at drain), end the session we began and write its
    // artifacts: the session is closed, so the buffered events are
    // the complete single-root log.
    drop(report_span);
    let metrics = run.end_recording();

    // Per-stage latency attribution from the recorded session:
    // queue-wait / apply / publish from the `service.*` phases, repair
    // from the solver's repair histogram.
    let stages = metrics.as_ref().map(|metrics| {
        let mut stages = Vec::new();
        for (label, phase) in [
            ("queue_wait", "service.queue_wait"),
            ("apply", "service.apply"),
            ("publish", "service.publish"),
        ] {
            let p = metrics
                .phase(phase)
                .unwrap_or_else(|| panic!("recorded session must carry phase {phase}"));
            assert_eq!(
                p.count,
                deltas.len() as u64,
                "{phase}: one span per published delta"
            );
            stages.push((label, stage_json(p.count, p.p50_ns, p.p90_ns, p.p99_ns)));
        }
        let repair = metrics
            .hist("resolve.repair_ns")
            .expect("recorded session must carry the repair histogram");
        stages.push((
            "repair",
            stage_json(repair.count, repair.p50_ns, repair.p90_ns, repair.p99_ns),
        ));
        (obj(stages), repair.count)
    });

    let rtt_median = report::median(&mut rtt_ns);
    eprintln!(
        "service_report: {} n={} K={} deltas={} -> {} deployments published, \
         served {} -> {}, median publish rtt {:.3} ms, bit-identical, oracle ok",
        scale.name,
        instance.num_users(),
        instance.num_uavs(),
        deltas.len(),
        deployments,
        served_first,
        served_last,
        rtt_median as f64 / 1e6,
    );

    let mut section = vec![
        ("scale", Json::Str(scale.name.into())),
        ("users", Json::Num(instance.num_users() as f64)),
        ("uavs", Json::Num(instance.num_uavs() as f64)),
        ("threads", Json::Num(threads as f64)),
        ("deltas", Json::Num(deltas.len() as f64)),
        ("deployments_published", Json::Num(deployments as f64)),
        ("served_first", Json::Num(served_first as f64)),
        ("served_last", Json::Num(served_last as f64)),
        ("publish_rtt_median_ns", Json::Num(rtt_median as f64)),
        ("trace_ids_round_tripped", Json::Bool(true)),
        ("bit_identical_to_in_process", Json::Bool(true)),
        ("incremental_equals_cold", Json::Bool(true)),
        ("metrics_scraped_live", Json::Bool(record_obs)),
        ("repairs", Json::Num(summary.stats.repairs as f64)),
        ("relays_spent", Json::Num(summary.stats.relays_spent as f64)),
    ];
    let mut checks = Vec::new();
    if let Some((stages, repair_count)) = stages {
        section.push(("stages", stages));
        checks.push(check_repair_stage(repair_count));
    }
    run.finish(vec![("service", obj(section))], checks)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &str) -> Result<Options, String> {
        parse_args(&mut Args::new(args.split_whitespace().map(String::from)))
    }

    #[test]
    fn defaults_are_quick_with_scale_dependent_ticks() {
        let opts = parse("").unwrap();
        assert_eq!(opts.common, Common::default());
        assert_eq!((opts.scale.name, opts.ticks), ("quick", 24));
        let large = parse("--scale large").unwrap();
        assert_eq!((large.scale.name, large.ticks), ("large", 6));
        assert_eq!(parse("--ticks 3 --scale large").unwrap().ticks, 3);
    }

    #[test]
    fn full_flag_surface_parses() {
        let opts = parse(
            "--scale quick --threads 3 --ticks 5 --out x.json \
             --obs-log l --obs-metrics m --obs-prom p --trace-out t",
        )
        .unwrap();
        assert_eq!((opts.common.threads, opts.ticks), (3, 5));
        assert_eq!(opts.common.out, "x.json");
        let obs = &opts.common.obs;
        let set = [&obs.log, &obs.metrics, &obs.prom, &obs.trace].map(Option::is_some);
        assert_eq!(set, [true; 4]);
    }

    #[test]
    fn bad_flags_are_errors_naming_the_flag() {
        for args in [
            "--bogus",
            "--ticks",
            "--trace-out",
            "--threads two",
            "--threads 0",
            "--ticks -3",
            "--ticks 0",
            "--scale all",
            "--scale xlarge",
        ] {
            let err = parse(args).unwrap_err();
            let flag = args.split_whitespace().next().unwrap();
            assert!(err.contains(flag), "{args}: {err}");
        }
    }

    #[test]
    fn repair_stage_needs_one_sample() {
        assert!(check_repair_stage(1).is_ok());
        let err = check_repair_stage(0).unwrap_err();
        assert!(err.contains("stages.repair.count = 0"), "{err}");
    }
}
