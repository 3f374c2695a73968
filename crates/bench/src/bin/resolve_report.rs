//! Benchmarks the incremental re-solve engine
//! ([`uavnet_core::SolverLoop`]) and merges a `resolve` section into
//! `BENCH_sweep.json`.
//!
//! Two workloads, one per scale:
//!
//! * `quick` — a sustained mobility stream: the FIG6 quick instance is
//!   cold-solved once, then driven through `--ticks` Gaussian-walk
//!   mobility ticks ([`uavnet_bench::mobility`]), each applied as one
//!   `Delta::UserMoved` batch. Reported as `updates_per_sec`
//!   (user-position updates absorbed per second of solver time) and
//!   `ticks_per_sec`, checked against the committed
//!   `updates_per_sec_floor`.
//! * `large` — repair-vs-resolve latency at 100 000 users: for every
//!   deployed UAV, a standing loop absorbs the single-UAV-loss delta
//!   and the median repair latency is compared with the median cold
//!   `approx_alg` re-solve on the same instance (`repair_speedup`,
//!   checked at ≥ 10×).
//!
//! Both scales also run verify oracle 7
//! ([`uavnet_core::check_incremental`]) over a representative delta
//! interleaving and record the verdict as `incremental_equals_cold` —
//! the binary panics rather than write numbers for a divergent solver.
//!
//! Usage: `cargo run --release -p uavnet-bench --bin resolve_report --
//! [--threads N] [--ticks N] [--out PATH] [--scale quick|large|all]
//! [--obs-log PATH] [--obs-metrics PATH] [--obs-prom PATH]`
//!
//! The report *merges*: an existing `--out` file keeps every other
//! top-level section (the sweep evidence) and only the `resolve`
//! member is replaced. The `--obs-*` flags mirror `sweep_report` and
//! need the `obs` cargo feature. Once the report is written, the
//! binary checks both floors and exits 1 if either failed (exit codes
//! in `uavnet_bench::report`).

use std::process::ExitCode;
use std::time::Instant;

use uavnet_bench::report::{self, obj, round_to, Args, Common, Harness};
use uavnet_bench::{Scale, MOBILITY_SIGMA_M, MOBILITY_THRESHOLD_M};
use uavnet_core::{approx_alg, check_incremental, ApproxConfig, Delta, Instance, SolverLoop, User};
use uavnet_geom::Point2;
use uavnet_json::Json;

const HARNESS: Harness = Harness {
    name: "resolve_report",
    usage: "usage: resolve_report [--threads N] [--ticks N] [--out PATH] \
            [--scale quick|large|all] \
            [--obs-log PATH] [--obs-metrics PATH] [--obs-prom PATH]",
};

/// Committed floor for the quick-scale mobility stream. Measured
/// ≈ two orders of magnitude higher on an idle dev box; the floor only
/// guards against catastrophic regressions (an accidental cold solve
/// per tick), not machine-to-machine noise.
const UPDATES_PER_SEC_FLOOR: f64 = 2_000.0;

/// Committed floor for the large-scale single-UAV-loss repair against
/// a cold re-solve (recorded ~1000×).
const REPAIR_SPEEDUP_FLOOR: f64 = 10.0;

/// Everything `main` needs, parsed and validated.
#[derive(Debug)]
struct Options {
    common: Common,
    ticks: usize,
    scales: Vec<Scale>,
}

fn parse_args(args: &mut Args) -> Result<Options, String> {
    let mut opts = Options {
        common: Common::default(),
        ticks: 200,
        scales: vec![Scale::quick()],
    };
    while let Some(flag) = args.next_flag() {
        match flag.as_str() {
            "--ticks" => opts.ticks = args.positive(&flag)?,
            "--scale" => opts.scales = args.scales(&["quick", "large", "all"])?,
            _ => opts.common.parse_flag(&flag, args)?,
        }
    }
    Ok(opts)
}

/// The quick mobility stream absorbed at least the committed updates/s.
fn check_updates_per_sec(updates_per_sec: f64) -> Result<(), String> {
    report::at_least(
        "quick updates_per_sec",
        updates_per_sec,
        UPDATES_PER_SEC_FLOOR,
    )
}

/// The large kill-repair beat a cold re-solve by the committed factor
/// (checked on the reported, one-decimal value).
fn check_repair_speedup(repair_speedup: f64) -> Result<(), String> {
    report::at_least("large repair_speedup", repair_speedup, REPAIR_SPEEDUP_FLOOR)
}

/// A delta mix representative of a disaster-zone shift: one mobility
/// batch, a demand surge, a link cut, and a UAV loss.
fn oracle_deltas(instance: &Instance, sim_seed: u64) -> Vec<Delta> {
    let area = instance.grid().spec().area();
    let mut mobility = uavnet_bench::mobility(instance, sim_seed);
    let surge: Vec<User> = (0..5)
        .map(|i| User {
            pos: Point2::new(
                area.length_m() * 0.5 + 40.0 * i as f64,
                area.width_m() * 0.5,
            ),
            min_rate_bps: 2_000.0,
        })
        .collect();
    let cut = instance
        .location_graph()
        .edges()
        .next()
        .map(|(a, b)| Delta::SeverLinks(vec![(a, b)]));
    let mut deltas = vec![
        Delta::UserMoved(mobility.step_deltas(MOBILITY_THRESHOLD_M)),
        Delta::UserSurge(surge),
        Delta::KillUavs(vec![0]),
        Delta::UserMoved(mobility.step_deltas(MOBILITY_THRESHOLD_M)),
    ];
    deltas.extend(cut);
    deltas
}

/// Verify oracle 7 over [`oracle_deltas`]: panics on a divergent
/// solver, so the report never records numbers for one.
fn check_oracle(scale: &Scale, instance: &Instance, threads: usize) {
    let config = ApproxConfig::with_s(1).threads(threads);
    let deltas = oracle_deltas(instance, scale.seed ^ 0x5eed);
    if let Err(e) = check_incremental(instance, &config, &deltas) {
        let name = scale.name;
        panic!("verify oracle 7 rejected the incremental solver at scale {name}: {e}");
    }
}

fn stats_json(solver: &SolverLoop) -> Json {
    let s = solver.stats();
    obj(vec![
        ("deltas_applied", Json::Num(s.deltas_applied as f64)),
        ("repairs", Json::Num(s.repairs as f64)),
        ("cold_solves", Json::Num(s.cold_solves as f64)),
        ("dirty_tiles", Json::Num(s.dirty_tiles as f64)),
        ("stations_refreshed", Json::Num(s.stations_refreshed as f64)),
        ("relays_spent", Json::Num(s.relays_spent as f64)),
        ("dropped_placements", Json::Num(s.dropped_placements as f64)),
        ("matching_rebuilds", Json::Num(s.matching_rebuilds as f64)),
    ])
}

/// The quick section: a standing loop driven through `ticks` mobility
/// batches, timing only the solver's `apply`, not the simulator; with
/// its updates/s verdict.
fn quick_section(scale: &Scale, threads: usize, ticks: usize) -> (Json, Result<(), String>) {
    let instance = scale.instance(scale.n_max(), scale.k_max());
    let mut solver =
        SolverLoop::new(instance.clone(), scale.loop_config(threads)).expect("quick cold solve");
    let served_first = solver.served_users();
    let mut mobility = uavnet_bench::mobility(&instance, scale.seed);
    let (mut moved_updates, mut wall_ns) = (0u64, 0u64);
    for _ in 0..ticks {
        let batch = mobility.step_deltas(MOBILITY_THRESHOLD_M);
        moved_updates += batch.len() as u64;
        let t = Instant::now();
        solver
            .apply(Delta::UserMoved(batch))
            .expect("quick mobility stream");
        wall_ns += t.elapsed().as_nanos() as u64;
    }
    let served_last = solver.served_users();
    let secs = wall_ns as f64 / 1e9;
    let updates_per_sec = moved_updates as f64 / secs;
    let ticks_per_sec = ticks as f64 / secs;
    check_oracle(scale, &instance, threads);
    eprintln!(
        "resolve_report: quick n={} K={} ticks={ticks} updates={moved_updates} -> \
         {updates_per_sec:.0} updates/s ({ticks_per_sec:.0} ticks/s), \
         served {served_first} -> {served_last}, oracle ok",
        instance.num_users(),
        instance.num_uavs(),
    );
    let section = obj(vec![
        ("users", Json::Num(instance.num_users() as f64)),
        ("uavs", Json::Num(instance.num_uavs() as f64)),
        ("threads", Json::Num(threads as f64)),
        ("mobility_ticks", Json::Num(ticks as f64)),
        ("mobility_sigma_m", Json::Num(MOBILITY_SIGMA_M)),
        ("moved_user_updates", Json::Num(moved_updates as f64)),
        ("wall_ns", Json::Num(wall_ns as f64)),
        ("updates_per_sec", Json::Num(round_to(updates_per_sec, 1))),
        ("ticks_per_sec", Json::Num(round_to(ticks_per_sec, 1))),
        ("updates_per_sec_floor", Json::Num(UPDATES_PER_SEC_FLOOR)),
        ("served_users_first", Json::Num(served_first as f64)),
        ("served_users_last", Json::Num(served_last as f64)),
        ("incremental_equals_cold", Json::Bool(true)),
        ("stats", stats_json(&solver)),
    ]);
    (section, check_updates_per_sec(updates_per_sec))
}

/// The large section and its repair-speedup verdict.
fn large_section(scale: &Scale, threads: usize) -> (Json, Result<(), String>) {
    let t_build = Instant::now();
    let instance = scale.instance(scale.n_max(), scale.k_max());
    let build_ms = t_build.elapsed().as_millis();
    let config = scale.loop_config(threads);
    let solution = approx_alg(&instance, &config.approx).expect("large cold solve");
    eprintln!(
        "resolve_report: large n={} K={} built in {build_ms} ms, cold solve serves {}",
        instance.num_users(),
        instance.num_uavs(),
        solution.served_users(),
    );

    // Median cold re-solve latency — the price paid per delta without
    // the incremental engine.
    let mut cold_ns: Vec<u64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            let sol = approx_alg(&instance, &config.approx).expect("cold re-solve");
            assert_eq!(sol.served_users(), solution.served_users());
            t.elapsed().as_nanos() as u64
        })
        .collect();
    let cold_median = report::median(&mut cold_ns);

    // Median single-UAV-loss repair latency: each deployed UAV dies
    // once against a fresh standing loop seeded from the same cold
    // solution.
    let deployed: Vec<usize> = solution
        .deployment()
        .placements()
        .iter()
        .map(|&(uav, _)| uav)
        .collect();
    assert!(!deployed.is_empty(), "degenerate large scenario");
    let mut repair_ns = Vec::with_capacity(deployed.len());
    for &uav in &deployed {
        let mut solver = SolverLoop::from_solution(instance.clone(), &solution, config.clone())
            .expect("standing loop");
        let t = Instant::now();
        solver
            .apply(Delta::KillUavs(vec![uav]))
            .unwrap_or_else(|e| panic!("killing UAV {uav} must be absorbable: {e}"));
        repair_ns.push(t.elapsed().as_nanos() as u64);
    }
    let repair_median = report::median(&mut repair_ns);
    let speedup = round_to(cold_median as f64 / repair_median as f64, 1);
    check_oracle(scale, &instance, threads);
    eprintln!(
        "resolve_report: large kill-repair median {:.3} ms vs cold re-solve median \
         {:.3} ms -> {speedup:.1}x, oracle ok",
        repair_median as f64 / 1e6,
        cold_median as f64 / 1e6,
    );
    let section = obj(vec![
        ("users", Json::Num(instance.num_users() as f64)),
        ("uavs", Json::Num(instance.num_uavs() as f64)),
        ("threads", Json::Num(threads as f64)),
        ("single_uav_loss_deltas", Json::Num(deployed.len() as f64)),
        ("kill_repair_ns_median", Json::Num(repair_median as f64)),
        ("cold_solve_ns_median", Json::Num(cold_median as f64)),
        ("repair_speedup", Json::Num(speedup)),
        ("incremental_equals_cold", Json::Bool(true)),
    ]);
    (section, check_repair_speedup(speedup))
}

fn main() -> ExitCode {
    let opts = HARNESS.options(parse_args);
    let threads = opts.common.threads;
    let run = HARNESS.start(&opts.common);
    if opts.common.obs.any() {
        // The instances are built inside the recording window, so the
        // session carries no instance fingerprint.
        run.begin_recording(threads, 0);
    }
    let mut resolve = vec![(
        "regenerate",
        Json::Str(
            "cargo run --release -p uavnet-bench --bin resolve_report -- --scale all --threads 2"
                .into(),
        ),
    )];
    let mut checks = Vec::new();
    {
        let _report_span = uavnet_obs::phases::REPORT.span();
        for scale in &opts.scales {
            let (section, check) = if scale.name == "quick" {
                quick_section(scale, threads, opts.ticks)
            } else {
                large_section(scale, threads)
            };
            resolve.push((scale.name, section));
            checks.push(check);
        }
    }
    run.end_recording();
    run.finish(vec![("resolve", obj(resolve))], checks)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &str) -> Result<Options, String> {
        parse_args(&mut Args::new(args.split_whitespace().map(String::from)))
    }

    fn scale_names(opts: &Options) -> Vec<&'static str> {
        opts.scales.iter().map(|s| s.name).collect()
    }

    #[test]
    fn defaults_are_quick_two_hundred_ticks() {
        let opts = parse("").unwrap();
        assert_eq!(opts.common, Common::default());
        assert_eq!(opts.ticks, 200);
        assert_eq!(scale_names(&opts), ["quick"]);
    }

    #[test]
    fn full_flag_surface_parses() {
        let opts = parse(
            "--threads 4 --ticks 9 --out x.json --scale all \
             --obs-log l --obs-metrics m --obs-prom p",
        )
        .unwrap();
        assert_eq!((opts.common.threads, opts.ticks), (4, 9));
        assert_eq!(opts.common.out, "x.json");
        assert_eq!(scale_names(&opts), ["quick", "large"]);
        let obs = &opts.common.obs;
        assert_eq!(
            [&obs.log, &obs.metrics, &obs.prom].map(Option::is_some),
            [true; 3]
        );
    }

    #[test]
    fn bad_flags_are_errors_naming_the_flag() {
        for args in [
            "--bogus",
            "--ticks",
            "--out",
            "--threads two",
            "--threads 0",
            "--ticks many",
            "--ticks 0",
            "--scale xlarge",
            "--trace-out t.json",
        ] {
            let err = parse(args).unwrap_err();
            let flag = args.split_whitespace().next().unwrap();
            assert!(err.contains(flag), "{args}: {err}");
        }
    }

    #[test]
    fn updates_floor_passes_at_the_boundary() {
        assert!(check_updates_per_sec(UPDATES_PER_SEC_FLOOR).is_ok());
        let err = check_updates_per_sec(UPDATES_PER_SEC_FLOOR - 0.1).unwrap_err();
        assert!(err.contains("1999.9") && err.contains("2000"), "{err}");
    }

    #[test]
    fn repair_speedup_floor_passes_at_the_boundary() {
        assert!(check_repair_speedup(10.0).is_ok());
        let err = check_repair_speedup(9.9).unwrap_err();
        assert!(err.contains("9.9") && err.contains("10"), "{err}");
    }
}
