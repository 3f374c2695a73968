//! The live re-deployment workload (`stream-large`): one scenario
//! behind the solver service on loopback, an open loop at a fixed rate
//! timed from each delta's due time, then a closed loop that measures
//! the service's capacity.

use crate::cli::RunArgs;
use crate::gen::{open_loop, DeltaGen, Rng, WallClock};
use crate::live::{
    kill_probe, layer_metrics, rebuild_instance, record_spans, replay, Sent, Session, REPLY_TIMEOUT,
};
use crate::plan::{probe_build, probe_shard, served_bound, sweep_metrics};
use crate::report::{peak_rss_mib, Report};
use crate::stats::{highest_tail, median};
use crate::table::{scenario, StreamParams, THREADS};
use crate::trace::Tracer;
use std::time::{Duration, Instant};
use uavnet_core::{approx_alg_with_stats, ApproxConfig, LoopConfig};

/// Input-stream label of the delta generator.
const STREAM_DELTAS: u64 = 4;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs the live workload; see the module docs.
pub fn run(p: &StreamParams, args: &RunArgs, tracer: Option<&mut Tracer>, report: &mut Report) {
    let config = ApproxConfig::with_s(p.s).threads(THREADS);
    let loop_config = LoopConfig::new(config.clone());
    let spec = match scenario(p.side_m, p.users, p.uavs, p.capacity, p.scenario_seed) {
        Ok(s) => s,
        Err(e) => return report.check(false, || format!("scenario: {e}")),
    };

    // Set-up runs several times for a steady median; the last one
    // serves the stream. The generator's model of the zone and the
    // instance's fingerprint are taken outside the timed interval; the
    // benchmark keeps no copy of the instance while the stream runs.
    let (mut setups, mut instantiations) = (Vec::new(), Vec::new());
    let mut live = None;
    for _ in 0..p.setups {
        if let Some((previous, _, _)) = live.take() {
            if let Err(e) = Session::close(previous) {
                return report.check(false, || format!("set-up: {e}"));
            }
        }
        let start = Instant::now();
        let instance = match spec.instantiate() {
            Ok(i) => i,
            Err(e) => return report.check(false, || format!("set-up: {e}")),
        };
        let instantiated = start.elapsed();
        let gen = DeltaGen::new(&instance, p.mix, Rng::new(args.seed, STREAM_DELTAS));
        let fingerprint = instance.fingerprint();
        let spawn_start = Instant::now();
        match Session::open(instance, loop_config.clone()) {
            Ok(session) => live = Some((session, gen, fingerprint)),
            Err(e) => return report.check(false, || format!("set-up: {e}")),
        }
        instantiations.push(ms(instantiated));
        setups.push((instantiated + spawn_start.elapsed()).as_secs_f64());
    }
    report.set("setup_s", median(&setups), setups.len());
    report.set(
        "workload.instantiate_ms",
        median(&instantiations),
        instantiations.len(),
    );
    let Some((mut session, mut gen, fingerprint)) = live else {
        return report.check(false, || "no set-up ran".to_string());
    };

    let traced_run = tracer.is_some();
    let mut sent: Vec<Sent> = Vec::new();
    let mut error = None;
    let start = Instant::now();
    let end = start + Duration::from_secs(args.seconds);
    let open_for = Duration::from_secs_f64(args.seconds as f64 * p.open_share);
    // A traced run keeps the encoded frame of every delta after the
    // first half of the open loop, for the decode probe: the open
    // loop's two halves give the tracing overhead.
    let lags = open_loop(
        &WallClock,
        start,
        p.rate_per_s,
        start + open_for,
        |seq, due| {
            let keep_line = traced_run && due - start >= open_for / 2;
            match session.send(seq, gen.next_delta(), due, false, keep_line) {
                Ok(s) => sent.push(s),
                Err(e) => error = Some(e),
            }
            error.is_none()
        },
    );
    let open_count = sent.len();
    // The open loop's backlog drains first, so the closed loop measures
    // the service alone.
    let drained_by = Instant::now() + REPLY_TIMEOUT;
    for s in &sent {
        if !session.await_frame(s.seq, drained_by) {
            break;
        }
    }
    let closed_start = Instant::now();
    // Every fault kind at least once, even in a short run.
    let min_deltas = 4 * p.mix.fault_every;
    while error.is_none() && (Instant::now() < end || (sent.len() as u64) < min_deltas) {
        let seq = sent.len() as u64;
        match session.send(seq, gen.next_delta(), Instant::now(), true, traced_run) {
            Ok(s) => sent.push(s),
            Err(e) => error = Some(e),
        }
        if !session.await_frame(seq, Instant::now() + REPLY_TIMEOUT) {
            break;
        }
    }
    let closed_wall = closed_start.elapsed();
    let closed_count = sent.len() - open_count;
    if let Some(e) = error {
        report.check(false, || format!("stream: {e}"));
    }
    let wire = match session.close() {
        Ok(w) => w,
        Err(e) => return report.check(false, || format!("stream: {e}")),
    };
    report.set("peak_rss_mb", peak_rss_mib(), 1);
    report.attempted = sent.len() as u64;
    wire.account(&sent, report);

    let open_e2e: Vec<f64> = sent[..open_count]
        .iter()
        .filter_map(|s| wire.e2e(s).map(ms))
        .collect();
    report.set("latency_p50_ms", median(&open_e2e), open_e2e.len());
    if let Some((label, v)) = highest_tail(&open_e2e) {
        println!("latency_{label}_ms {v} ms (n={})", open_e2e.len());
    }
    report.set(
        "throughput_per_s",
        Some(closed_count as f64 / closed_wall.as_secs_f64()),
        closed_count,
    );

    // Timing is over: build the zone again (instantiation is
    // deterministic), replay the stream in process, checking the wire
    // bit for bit, and score the state the open loop left. The open
    // loop sends a fixed number of deltas, so that state, unlike the
    // closed loop's, is the same on every run of one seed.
    let initial = match spec.instantiate() {
        Ok(i) if i.fingerprint() == fingerprint => i,
        Ok(_) => return report.check(false, || "the zone instantiated differently".into()),
        Err(e) => return report.check(false, || format!("replay set-up: {e}")),
    };
    if traced_run {
        let (b0, b1) = probe_build(&initial, report);
        report.set("model.build_ms", Some(ms(b1 - b0)), 1);
        report.set(
            "model.coverage_mib",
            Some(initial.coverage_memory().compressed_bytes as f64 / (1 << 20) as f64),
            1,
        );
    }
    let Some(last_open) = (open_count as u64).checked_sub(1) else {
        return report.check(false, || "the open loop sent nothing".into());
    };
    let mut replayed = replay(
        initial,
        &loop_config,
        &sent,
        &wire,
        Some(last_open),
        traced_run,
        report,
    );
    let (Some((snapshot, severed)), Some(served)) =
        (replayed.snapshot.take(), wire.served_after(last_open))
    else {
        return report.check(false, || {
            "the open loop's last delta was not replayed".into()
        });
    };
    let reference = match rebuild_instance(snapshot.instance(), &snapshot.dead_uavs(), &severed) {
        Ok(i) => i,
        Err(e) => return report.check(false, || format!("reference instance: {e}")),
    };
    drop(snapshot);
    let solve_start = Instant::now();
    let (solution, stats) = match approx_alg_with_stats(&reference, &config) {
        Ok(r) => r,
        Err(e) => return report.check(false, || format!("reference solve: {e}")),
    };
    let solve_wall = solve_start.elapsed();
    let valid = solution.validate(&reference);
    report.check(valid.is_ok(), || {
        format!("reference solve invalid: {valid:?}")
    });
    // Scored against the fixed upper bound rather than the cold
    // re-solve, which is itself a heuristic: a better cold solver must
    // not read as a worse stream.
    let bound = served_bound(&reference);
    report.set("served_ratio", Some(served as f64 / bound), 1);
    println!(
        "served: after the open loop the stream serves {served} of at most {bound} users, \
         a cold re-solve of that zone {}",
        solution.served_users()
    );

    let Some(t) = tracer else {
        return;
    };
    record_spans(t, &sent, &wire, &replayed);
    // The reference solve is the stream's one cold sweep: it carries
    // the sweep-layer numbers, and the shard probe runs on it too.
    sweep_metrics(&[&stats], &[(solve_wall, &stats)], report);
    probe_shard(&reference, &config, &solution, report);
    drop(reference);
    // Kills are not part of the timed stream (a single random loss
    // swings the final coverage between 10% and 100%, see the README);
    // every single-UAV loss of the final deployment is measured here.
    if let Some(last) = replayed.solver.take() {
        let severed = replayed.severed.clone();
        kill_probe(&last, &config, &severed, &mut replayed, report);
    }
    let assigns: Vec<f64> = replayed.assigns.iter().copied().map(ms).collect();
    report.set("flow.assign_ms", median(&assigns), assigns.len());
    layer_metrics(&sent, &wire, &replayed, report);
    let lag_ms: Vec<f64> = lags.iter().copied().map(ms).collect();
    report.set(
        "generator.lag_max_ms",
        lag_ms.iter().copied().reduce(f64::max),
        lag_ms.len(),
    );
    let half = |traced: bool| -> Vec<f64> {
        sent[..open_count]
            .iter()
            .filter(|s| s.line.is_some() == traced)
            .filter_map(|s| wire.e2e(s).map(ms))
            .collect()
    };
    let overhead = median(&half(true))
        .zip(median(&half(false)))
        .map(|(traced, untraced)| traced / untraced - 1.0);
    report.set("generator.trace_overhead_frac", overhead, open_e2e.len());
}
