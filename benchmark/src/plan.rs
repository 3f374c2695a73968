//! The cold-planning workloads (`plan-*`): a closed loop with one
//! caller cold-solving a pinned pool of scenarios built during set-up,
//! in whole passes.

use crate::cli::RunArgs;
use crate::gen::{DeltaGen, Kind, Rng};
use crate::live::{layer_metrics, rebuild_instance, record_spans, replay, Session, REPLY_TIMEOUT};
use crate::report::{peak_rss_mib, Report};
use crate::stats::{highest_tail, mean, median};
use crate::table::{scenario, PlanParams, MIX, THREADS};
use crate::trace::{Tracer, Track};
use std::time::{Duration, Instant};
use uavnet_core::{
    approx_alg_sharded, approx_alg_with_stats, assign_users, ApproxConfig, ApproxStats, CoreError,
    Instance, LoopConfig, ShardConfig, Solution,
};

/// Input-stream labels, so each stream of one seed draws independently.
const POOL_ORDER: u64 = 1;
const PROBE_DELTAS: u64 = 2;

/// Passes over the pool every measured phase completes whatever
/// `--seconds` says. From the second pass on, every solve repeats an
/// earlier one of the same scenario and must reproduce it.
const MIN_PASSES: usize = 2;

/// Traced requests whose instance is also rebuilt through the public
/// builder (a full build each, seconds at the largest scale).
const BUILD_PROBES: usize = 3;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn solve(
    instance: &Instance,
    config: &ApproxConfig,
    sharded: bool,
) -> Result<(Solution, ApproxStats), CoreError> {
    if sharded {
        approx_alg_sharded(instance, config, &ShardConfig::new())
    } else {
        approx_alg_with_stats(instance, config)
    }
}

/// Times rebuilding `instance` from its users and fleet through the
/// public builder (the `model` layer's construction cost) and checks
/// the copy is the same instance.
pub fn probe_build(instance: &Instance, report: &mut Report) -> (Instant, Instant) {
    let start = Instant::now();
    let rebuilt = rebuild_instance(instance, &[], &[]);
    let end = Instant::now();
    report.check(
        rebuilt.is_ok_and(|r| {
            r.fingerprint() == instance.fingerprint()
                && r.coverage_memory() == instance.coverage_memory()
        }),
        || "model: rebuilding a scenario gave a different instance".to_string(),
    );
    (start, end)
}

type Count = fn(&ApproxStats) -> usize;
type Nanos = fn(&ApproxStats) -> u64;

/// Deterministic counts of a sweep, reported as means per solve.
const COUNTS: [(&str, Count); 7] = [
    ("sweep.gain_queries", |s| s.gain_queries as usize),
    ("sweep.subsets_enumerated", |s| s.subsets_enumerated),
    ("sweep.subsets_evaluated", |s| s.subsets_evaluated),
    ("sweep.subsets_chain_pruned", |s| s.subsets_chain_pruned),
    ("sweep.subsets_bound_pruned", |s| s.subsets_bound_pruned),
    ("shard.tiles_solved", |s| s.tiles_solved),
    ("shard.view_escapes", |s| s.view_escapes),
];

/// `SweepProfile` phases, reported as medians per solve (CPU summed
/// over the sweep threads, not wall).
const PHASES: [(&str, Nanos); 7] = [
    ("sweep.enumeration_cpu_ms", |s| s.profile.enumeration_ns),
    ("sweep.greedy_cpu_ms", |s| s.profile.greedy_ns),
    ("sweep.connection_cpu_ms", |s| s.profile.connection_ns),
    ("sweep.scoring_cpu_ms", |s| s.profile.scoring_ns),
    ("substrate.build_ms", |s| s.profile.substrate_build_ns),
    ("substrate.query_cpu_ms", |s| s.profile.substrate_query_ns),
    ("shard.tile_view_cpu_ms", |s| s.profile.tile_view_ns),
];

/// Sets the `sweep`, `substrate` and `shard` metrics: counts as means
/// over `counted` (a fixed set of solves, so they repeat exactly), times
/// as medians over `timed` solves.
pub fn sweep_metrics(
    counted: &[&ApproxStats],
    timed: &[(Duration, &ApproxStats)],
    report: &mut Report,
) {
    for (name, count) in COUNTS {
        let values: Vec<f64> = counted.iter().map(|s| count(s) as f64).collect();
        report.set(name, mean(&values), values.len());
    }
    let total = |count: Count| counted.iter().map(|s| count(s) as f64).sum::<f64>();
    report.set(
        "sweep.evaluated_frac",
        Some(total(|s| s.subsets_evaluated) / total(|s| s.subsets_enumerated).max(1.0)),
        counted.len(),
    );
    for (name, nanos) in PHASES {
        let values: Vec<f64> = timed.iter().map(|(_, s)| nanos(s) as f64 / 1e6).collect();
        report.set(name, median(&values), values.len());
    }
    let walls: Vec<f64> = timed.iter().map(|&(d, _)| ms(d)).collect();
    report.set("sweep.solve_ms", median(&walls), walls.len());
    let queries: f64 = timed.iter().map(|(_, s)| s.gain_queries as f64).sum();
    let seconds: f64 = timed.iter().map(|(d, _)| d.as_secs_f64()).sum();
    report.set(
        "sweep.gain_queries_per_s",
        Some(queries / seconds),
        walls.len(),
    );
}

/// Solves `instance` through the tile-sharded sweep, checks it matches
/// the monolithic `reference` bit for bit, and sets the `shard` metrics
/// from it: the shard layer's numbers on a workload that does not shard
/// by itself.
pub fn probe_shard(
    instance: &Instance,
    config: &ApproxConfig,
    reference: &Solution,
    report: &mut Report,
) {
    match approx_alg_sharded(instance, config, &ShardConfig::new()) {
        Ok((sharded, stats)) => {
            report.check(
                sharded.served_users() == reference.served_users()
                    && sharded.deployment().placements() == reference.deployment().placements(),
                || "shard: sharded sweep differs from the monolithic one".to_string(),
            );
            report.set("shard.tiles_solved", Some(stats.tiles_solved as f64), 1);
            report.set("shard.view_escapes", Some(stats.view_escapes as f64), 1);
            report.set(
                "shard.tile_view_cpu_ms",
                Some(stats.profile.tile_view_ns as f64 / 1e6),
                1,
            );
        }
        Err(e) => report.check(false, || format!("shard probe: {e}")),
    }
}

/// Instantiates the pinned pool `setup_passes` times, keeping one pool
/// in memory at a time, and sets `setup_s` from the per-scenario times.
/// Every pass must build the same instances.
fn set_up(p: &PlanParams, report: &mut Report) -> Option<Vec<Instance>> {
    let mut setups = Vec::new();
    let mut pool: Vec<Instance> = Vec::new();
    let mut fingerprints = Vec::new();
    for _ in 0..p.setup_passes {
        pool.clear();
        for &seed in p.pool {
            let start = Instant::now();
            let built = scenario(p.side_m, p.users, p.uavs, p.capacity, seed)
                .and_then(|spec| spec.instantiate());
            setups.push(start.elapsed().as_secs_f64());
            match built {
                Ok(instance) => pool.push(instance),
                Err(e) => {
                    report.check(false, || format!("scenario {seed}: set-up: {e}"));
                    return None;
                }
            }
        }
        let pass: Vec<u64> = pool.iter().map(Instance::fingerprint).collect();
        report.check(fingerprints.is_empty() || fingerprints == pass, || {
            "set-up: instantiating the pinned pool twice gave different instances".to_string()
        });
        fingerprints = pass;
    }
    report.set("setup_s", median(&setups), setups.len());
    report.set(
        "workload.instantiate_ms",
        median(&setups).map(|s| s * 1e3),
        setups.len(),
    );
    Some(pool)
}

/// What one measured phase saw.
#[derive(Default)]
struct Phase {
    /// Scenario index and solve latency in ms of every solve.
    latencies: Vec<(usize, f64)>,
    /// Wall time of the whole phase.
    wall: Duration,
    /// Gaps between one request's end and the next solve, in ms.
    lags: Vec<f64>,
    /// Traced phase only: solve wall time and stats of every solve.
    timed: Vec<(Duration, ApproxStats)>,
    /// Traced phase only: `assign_users` times in ms.
    assigns: Vec<f64>,
    /// Traced phase only: instance rebuild times in ms.
    builds: Vec<f64>,
}

/// The closed-loop caller: cycles the pool in the seed's order.
struct Caller<'a> {
    pool: &'a [Instance],
    order: Vec<usize>,
    config: ApproxConfig,
    sharded: bool,
    /// Each scenario's first solve; later solves must reproduce it.
    first: Vec<Option<(Solution, ApproxStats)>>,
    requests: usize,
}

impl Caller<'_> {
    /// Solves the pool in whole passes, at least [`MIN_PASSES`], until
    /// `seconds` have passed. `tracer` adds the per-request probes and
    /// spans, each after the timed solve.
    fn phase(
        &mut self,
        seconds: f64,
        mut tracer: Option<&mut Tracer>,
        report: &mut Report,
    ) -> Phase {
        let n = self.order.len();
        let begun = Instant::now();
        let deadline = begun + Duration::from_secs_f64(seconds);
        let mut phase = Phase::default();
        let mut idle_from = begun;
        let mut i = 0;
        while i < MIN_PASSES * n || i % n != 0 || Instant::now() < deadline {
            let k = self.order[i % n];
            i += 1;
            let instance = &self.pool[k];
            let id = format!("req-{}", self.requests);
            self.requests += 1;
            let start = Instant::now();
            phase.lags.push(ms(start - idle_from));
            let result = solve(instance, &self.config, self.sharded);
            let solved = Instant::now();
            report.attempted += 1;
            let (solution, stats) = match result {
                Ok(r) => r,
                Err(e) => {
                    report.failed += 1;
                    eprintln!("{id}: solver error: {e}");
                    idle_from = Instant::now();
                    continue;
                }
            };
            let valid = solution.validate(instance);
            let validated = Instant::now();
            report.check(valid.is_ok(), || {
                format!("{id}: invalid solution: {valid:?}")
            });
            phase.latencies.push((k, ms(solved - start)));
            match &self.first[k] {
                None => self.first[k] = Some((solution.clone(), stats.clone())),
                Some((a, _)) => report.check(
                    a.served_users() == solution.served_users()
                        && a.deployment().placements() == solution.deployment().placements(),
                    || format!("{id}: scenario {k} solved again differs from its first solve"),
                ),
            }
            if let Some(t) = tracer.as_deref_mut() {
                let times = [start, solved, validated];
                phase.probe(t, &id, instance, &solution, stats, times, report);
            }
            idle_from = Instant::now();
        }
        phase.wall = begun.elapsed();
        phase
    }

    /// Served users over [`served_bound`], mean over the pool; `None`
    /// unless every scenario was solved.
    fn served_ratio(&self) -> Option<f64> {
        let ratios: Vec<f64> = self
            .pool
            .iter()
            .zip(&self.first)
            .filter_map(|(instance, first)| {
                let (solution, _) = first.as_ref()?;
                Some(solution.served_users() as f64 / served_bound(instance))
            })
            .collect();
        mean(&ratios).filter(|_| ratios.len() == self.pool.len())
    }
}

/// min(n, fleet capacity), at least 1: no deployment serves more.
pub fn served_bound(instance: &Instance) -> f64 {
    let capacity: u64 = instance.uavs().iter().map(|u| u64::from(u.capacity)).sum();
    capacity.min(instance.num_users() as u64).max(1) as f64
}

impl Phase {
    /// The median solve latency of each of the `scenarios`, averaged.
    /// Scenarios of one pool differ in cost, and a plain median over
    /// all solves would fall in the gap between two of them and jump
    /// across it from run to run.
    fn p50(&self, scenarios: usize) -> Option<f64> {
        let medians: Option<Vec<f64>> = (0..scenarios)
            .map(|k| {
                let of_k: Vec<f64> = self
                    .latencies
                    .iter()
                    .filter(|&&(s, _)| s == k)
                    .map(|&(_, ms)| ms)
                    .collect();
                median(&of_k)
            })
            .collect();
        mean(&medians?)
    }

    /// The traced request's probes, after its timed solve: the matching
    /// kernel on the returned deployment, an instance rebuild on the
    /// first few, and the request's spans.
    #[allow(clippy::too_many_arguments)]
    fn probe(
        &mut self,
        t: &mut Tracer,
        id: &str,
        instance: &Instance,
        solution: &Solution,
        stats: ApproxStats,
        [start, solved, validated]: [Instant; 3],
        report: &mut Report,
    ) {
        let assign_start = Instant::now();
        let assignment = assign_users(instance, solution.deployment().placements());
        let assigned = Instant::now();
        self.assigns.push(ms(assigned - assign_start));
        report.check(assignment.served == solution.served_users(), || {
            format!(
                "{id}: assignment serves {}, solution {}",
                assignment.served,
                solution.served_users()
            )
        });
        let build = (self.builds.len() < BUILD_PROBES).then(|| probe_build(instance, report));
        let root = t.record("request", id, None, Track::Caller, start, Instant::now());
        t.record("solve", id, Some(root), Track::Caller, start, solved);
        t.record("validate", id, Some(root), Track::Caller, solved, validated);
        t.record(
            "assign",
            id,
            Some(root),
            Track::Caller,
            assign_start,
            assigned,
        );
        if let Some((b0, b1)) = build {
            self.builds.push(ms(b1 - b0));
            t.record("build", id, Some(root), Track::Caller, b0, b1);
        }
        self.timed.push((solved - start, stats));
    }
}

/// Runs a planning workload: set-up builds the pool, then the measured
/// phase solves it for `--seconds`. A traced run measures an untraced
/// half, then a traced half whose requests carry the per-layer probes.
pub fn run(p: &PlanParams, args: &RunArgs, tracer: Option<&mut Tracer>, report: &mut Report) {
    let Some(pool) = set_up(p, report) else {
        return;
    };
    let mut order: Vec<usize> = (0..pool.len()).collect();
    let mut rng = Rng::new(args.seed, POOL_ORDER);
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i + 1));
    }
    let mut caller = Caller {
        pool: &pool,
        order,
        config: ApproxConfig::with_s(p.s).threads(THREADS),
        sharded: p.sharded,
        first: vec![None; pool.len()],
        requests: 0,
    };
    let seconds = args.seconds as f64;
    let share = if tracer.is_some() { 0.5 } else { 1.0 };
    let untraced = caller.phase(seconds * share, None, report);
    report.set("peak_rss_mb", peak_rss_mib(), 1);
    let solves = untraced.latencies.len();
    report.set("latency_p50_ms", untraced.p50(pool.len()), solves);
    let all: Vec<f64> = untraced.latencies.iter().map(|&(_, ms)| ms).collect();
    if let Some((label, v)) = highest_tail(&all) {
        println!("latency_{label}_ms {v} ms (n={solves})");
    }
    report.set(
        "throughput_per_s",
        Some(solves as f64 / untraced.wall.as_secs_f64()),
        solves,
    );
    report.set("served_ratio", caller.served_ratio(), pool.len());

    let Some(t) = tracer else {
        return;
    };
    let traced = caller.phase(seconds * share, Some(&mut *t), report);
    let counted: Vec<&ApproxStats> = caller.first.iter().flatten().map(|(_, s)| s).collect();
    let timed: Vec<(Duration, &ApproxStats)> = traced.timed.iter().map(|(d, s)| (*d, s)).collect();
    sweep_metrics(&counted, &timed, report);
    let Some((solution, _)) = &caller.first[0] else {
        return report.check(false, || "scenario 0 was never solved".to_string());
    };
    if !p.sharded {
        probe_shard(&pool[0], &caller.config, solution, report);
    }
    report.set(
        "flow.assign_ms",
        median(&traced.assigns),
        traced.assigns.len(),
    );
    report.set(
        "model.build_ms",
        median(&traced.builds),
        traced.builds.len(),
    );
    let coverage: Vec<f64> = pool
        .iter()
        .map(|i| i.coverage_memory().compressed_bytes as f64 / (1 << 20) as f64)
        .collect();
    report.set("model.coverage_mib", mean(&coverage), coverage.len());
    report.set(
        "generator.lag_max_ms",
        traced.lags.iter().copied().reduce(f64::max),
        traced.lags.len(),
    );
    let overhead = traced
        .p50(pool.len())
        .zip(untraced.p50(pool.len()))
        .map(|(a, b)| a / b - 1.0);
    report.set(
        "generator.trace_overhead_frac",
        overhead,
        traced.latencies.len() + untraced.latencies.len(),
    );

    // The live layers on this workload: the first scenario behind the
    // service, one delta of each kind, closed loop, then the replay.
    let config = caller.config.clone();
    drop(caller);
    if let Some(instance) = pool.into_iter().next() {
        live_probe(instance, &config, args.seed, t, report);
    }
}

fn live_probe(
    instance: Instance,
    config: &ApproxConfig,
    seed: u64,
    tracer: &mut Tracer,
    report: &mut Report,
) {
    let loop_config = LoopConfig::new(config.clone());
    let mut gen = DeltaGen::new(&instance, MIX, Rng::new(seed, PROBE_DELTAS));
    let mut session = match Session::open(instance.clone(), loop_config.clone()) {
        Ok(s) => s,
        Err(e) => return report.check(false, || format!("live probe: {e}")),
    };
    let mut sent = Vec::new();
    for (seq, kind) in (0u64..).zip([Kind::Move, Kind::Surge, Kind::Sever, Kind::Kill]) {
        match session.send(seq, gen.make(kind), Instant::now(), true, true) {
            Ok(s) => sent.push(s),
            Err(e) => {
                report.check(false, || format!("live probe: {e}"));
                break;
            }
        }
        if !session.await_frame(seq, Instant::now() + REPLY_TIMEOUT) {
            break;
        }
    }
    let wire = match session.close() {
        Ok(w) => w,
        Err(e) => return report.check(false, || format!("live probe: {e}")),
    };
    let mut probe = Report::default();
    wire.account(&sent, &mut probe);
    report.check(probe.failed == 0 && probe.correct(), || {
        format!("live probe: {} failed, {:?}", probe.failed, probe.problems)
    });
    let replayed = replay(instance, &loop_config, &sent, &wire, None, true, report);
    record_spans(tracer, &sent, &wire, &replayed);
    layer_metrics(&sent, &wire, &replayed, report);
}
