//! Regenerates `BENCH_sweep.json`: machine-readable evidence for the
//! subset-sweep hot path. For each selected scale it runs the
//! FIG6-style workload (`n = n_max`, `K = k_max`, every `s` in
//! `s_sweep`) through [`approx_alg_with_stats`] and records the
//! instance build time and coverage-table memory, the sweep wall clock
//! (mean and min), the per-phase [`SweepProfile`] nanoseconds (summed
//! across worker threads), gain queries per second (the query *count*
//! is deterministic and thread-count invariant) and the subset
//! accounting. `--seed-strategy` adds a per-scale `strategy` section from the
//! scale's `strategy_sweep` matrix, with `speedup_vs_exhaustive` and
//! `served_ratio_vs_exhaustive` wherever the matrix carries the
//! exhaustive baseline at the same `s`.
//!
//! # Measurement protocol (interleaved, warmup-separated)
//!
//! A warm-up pass runs every configuration of a scale once untimed
//! (heating caches and capturing the deterministic statistics every
//! timed rep must reproduce), then `reps` rounds each time one rep of
//! every configuration in A/B/A/B order, so drift hits all of them
//! alike. `wall_ns_min` is the min over rounds (what the strategy
//! comparisons use), `wall_ns_mean` the mean (what the historical
//! `baseline_wall_ns` figures were recorded with).
//!
//! Usage: `cargo run --release -p uavnet-bench --bin sweep_report --
//! [--threads N] [--reps N] [--out PATH]
//! [--scale quick|large|xlarge|all]
//! [--seed-strategy all|exhaustive|beam[:N]]
//! [--obs-log PATH] [--obs-metrics PATH] [--obs-prom PATH]`
//!
//! `--reps` overrides every selected scale's rep count.
//! `--seed-strategy all` measures the full matrix;
//! naming one strategy keeps it plus its exhaustive baselines
//! (`beam:N` overrides the beam width). The `--obs-*` flags need
//! `--features obs`; instances are built before the recording window
//! opens, so the session header carries their combined fingerprint.
//!
//! Once the report is written, the binary checks every strategy entry
//! and exits 1 if one fails (exit codes in `uavnet_bench::report`):
//! an exhaustive entry evaluates or prunes each enumerated rank
//! exactly once, and a beam entry serves at least 3/4 of the
//! exhaustive sweep at its `s` (`STRATEGY_QUALITY_NUM · served ≥
//! STRATEGY_QUALITY_DEN · exhaustive_served`). Wall-clock floors are
//! left to the caller, because they depend on the machine and flags.
//!
//! [`SweepProfile`]: uavnet_core::SweepProfile

use std::process::ExitCode;
use std::time::Instant;

use uavnet_bench::report::{self, obj, round_to, Args, Common, Harness};
use uavnet_bench::Scale;
use uavnet_core::{
    approx_alg_with_stats, ApproxConfig, ApproxStats, Instance, SeedStrategyKind, Solution,
    STRATEGY_QUALITY_DEN, STRATEGY_QUALITY_NUM,
};
use uavnet_json::Json;

/// Pre-optimization wall-clock means (ns) per `(scale, s)`, measured
/// at `threads = 2`: the growth seed's seed-commit algorithm for
/// `quick` (mean of 3 × 10 `fig6_s_sweep` Criterion samples), and the
/// pre-compression (`Vec<Vec<u32>>` coverage tables) sweep for
/// `large`, re-measured as the mean of 5 × 3 interleaved
/// `sweep_report --scale large --reps 3 --threads 2` runs on the same
/// box and sitting as the current numbers. `speedup_vs_baseline` on
/// `large` is therefore an apples-to-apples wall ratio against the
/// uncompressed layout: parity-to-slightly-below-1 is the accepted
/// cost of the 57 % coverage-table memory cut (see DESIGN.md).
const BASELINE_WALL_NS: &[(&str, usize, u64)] = &[
    ("quick", 1, 938_750),
    ("quick", 2, 4_566_690),
    ("large", 1, 197_000_000),
];

const HARNESS: Harness = Harness {
    name: "sweep_report",
    usage: "usage: sweep_report [--threads N] [--reps N] [--out PATH] \
            [--scale quick|large|xlarge|all] \
            [--seed-strategy all|exhaustive|beam[:N]] \
            [--obs-log PATH] [--obs-metrics PATH] [--obs-prom PATH]",
};

fn baseline_wall_ns(scale: &str, s: usize) -> Option<u64> {
    BASELINE_WALL_NS
        .iter()
        .find(|&&(name, bs, _)| name == scale && bs == s)
        .map(|&(_, _, ns)| ns)
}

/// What `--seed-strategy` selected from each scale's strategy matrix.
#[derive(Clone, Copy, Debug)]
enum StrategySel {
    /// Run the scale's full `strategy_sweep` matrix.
    All,
    /// Run one strategy (plus its exhaustive baselines); a `beam:N`
    /// argument carries the user's width into the matrix's beam slots.
    One(SeedStrategyKind),
}

/// One measured configuration: the plain `s_sweep` runs carry
/// `strategy: None`; strategy-matrix runs carry the kind.
struct Spec {
    s: usize,
    strategy: Option<SeedStrategyKind>,
}

impl Spec {
    fn config(&self, threads: usize) -> ApproxConfig {
        let config = ApproxConfig::with_s(self.s).threads(threads);
        match self.strategy {
            Some(kind) => config.seed_strategy(kind),
            None => config,
        }
    }

    fn label(&self) -> String {
        match self.strategy {
            Some(kind) => format!("s={} strategy={kind}", self.s),
            None => format!("s={}", self.s),
        }
    }
}

/// Per-spec outcome of the interleaved measurement: the warm-up run's
/// deterministic statistics and served count plus the timing
/// aggregates.
struct Timed {
    wall_ns_mean: u64,
    wall_ns_min: u64,
    stats: ApproxStats,
    served: usize,
}

fn solve(instance: &Instance, spec: &Spec, threads: usize) -> (Solution, ApproxStats) {
    approx_alg_with_stats(instance, &spec.config(threads))
        .unwrap_or_else(|e| panic!("sweep {} failed: {e}", spec.label()))
}

/// The shared measurement protocol: one untimed warm-up pass over all
/// specs (the source of the deterministic statistics), then `reps`
/// rounds that each time a single rep of every spec in order, so
/// machine drift is spread evenly across configurations.
fn measure_interleaved(
    instance: &Instance,
    specs: &[Spec],
    threads: usize,
    reps: u32,
) -> Vec<Timed> {
    let mut timed: Vec<Timed> = specs
        .iter()
        .map(|spec| {
            let (solution, stats) = solve(instance, spec, threads);
            Timed {
                wall_ns_mean: 0,
                wall_ns_min: u64::MAX,
                stats,
                served: solution.served_users(),
            }
        })
        .collect();
    for _ in 0..reps {
        for (spec, t) in specs.iter().zip(timed.iter_mut()) {
            let start = Instant::now();
            let (rep_sol, _) = solve(instance, spec, threads);
            let ns = start.elapsed().as_nanos() as u64;
            assert_eq!(
                rep_sol.served_users(),
                t.served,
                "non-deterministic sweep at {}",
                spec.label()
            );
            t.wall_ns_mean += ns;
            t.wall_ns_min = t.wall_ns_min.min(ns);
        }
    }
    for t in &mut timed {
        t.wall_ns_mean /= u64::from(reps.max(1));
    }
    timed
}

fn queries_per_sec(queries: u64, wall_ns: u64) -> f64 {
    queries as f64 * 1e9 / wall_ns as f64
}

fn subsets_json(stats: &ApproxStats) -> Json {
    obj(vec![
        ("enumerated", Json::Num(stats.subsets_enumerated as f64)),
        ("chain_pruned", Json::Num(stats.subsets_chain_pruned as f64)),
        ("bound_pruned", Json::Num(stats.subsets_bound_pruned as f64)),
        ("evaluated", Json::Num(stats.subsets_evaluated as f64)),
        (
            "unconnectable",
            Json::Num(stats.subsets_unconnectable as f64),
        ),
    ])
}

/// An exhaustive sweep evaluates or prunes every enumerated rank
/// exactly once: `accounted` is `[evaluated, chain_pruned,
/// bound_pruned]`.
fn check_accounting(label: &str, enumerated: usize, accounted: [usize; 3]) -> Result<(), String> {
    let sum: usize = accounted.iter().sum();
    if sum == enumerated {
        Ok(())
    } else {
        Err(format!(
            "{label}: evaluated + chain_pruned + bound_pruned = {sum}, want enumerated = {enumerated}"
        ))
    }
}

/// A guided strategy serves at least `STRATEGY_QUALITY_DEN /
/// STRATEGY_QUALITY_NUM` (3/4) of the exhaustive sweep at the same `s`
/// (an exhaustive count of 0 counts as 1, as the reported ratio does).
fn check_beam_quality(label: &str, served: usize, exhaustive_served: usize) -> Result<(), String> {
    if STRATEGY_QUALITY_NUM * served >= STRATEGY_QUALITY_DEN * exhaustive_served.max(1) {
        Ok(())
    } else {
        Err(format!(
            "{label}: served {served} of exhaustive {exhaustive_served}, \
             below the {STRATEGY_QUALITY_DEN}/{STRATEGY_QUALITY_NUM} floor"
        ))
    }
}

/// One plain `s_sweep` entry.
fn run_json(scale: &str, s: usize, threads: usize, reps: u32, t: &Timed) -> Json {
    let p = &t.stats.profile;
    let queries = t.stats.gain_queries;
    let mut members = vec![
        ("s", Json::Num(s as f64)),
        ("threads", Json::Num(threads as f64)),
        ("reps", Json::Num(f64::from(reps))),
        ("served_users", Json::Num(t.served as f64)),
        ("wall_ns_mean", Json::Num(t.wall_ns_mean as f64)),
        ("wall_ns_min", Json::Num(t.wall_ns_min as f64)),
    ];
    if let Some(base_ns) = baseline_wall_ns(scale, s) {
        let before_qps = queries_per_sec(queries, base_ns);
        let speedup = base_ns as f64 / t.wall_ns_mean as f64;
        members.extend([
            ("baseline_wall_ns", Json::Num(base_ns as f64)),
            (
                "baseline_gain_queries_per_sec",
                Json::Num(round_to(before_qps, 1)),
            ),
            ("speedup_vs_baseline", Json::Num(round_to(speedup, 2))),
        ]);
    }
    let after_qps = queries_per_sec(queries, t.wall_ns_mean);
    members.extend([
        ("gain_queries", Json::Num(queries as f64)),
        ("gain_queries_per_sec", Json::Num(round_to(after_qps, 1))),
        (
            "phases_ns",
            obj(vec![
                ("enumeration", Json::Num(p.enumeration_ns as f64)),
                ("greedy", Json::Num(p.greedy_ns as f64)),
                ("connection", Json::Num(p.connection_ns as f64)),
                ("scoring", Json::Num(p.scoring_ns as f64)),
                ("substrate_build", Json::Num(p.substrate_build_ns as f64)),
                ("substrate_query", Json::Num(p.substrate_query_ns as f64)),
            ]),
        ),
        (
            "subset_buffer_peak_bytes",
            Json::Num(p.subset_buffer_peak_bytes as f64),
        ),
        ("subsets", subsets_json(&t.stats)),
    ]);
    obj(members)
}

fn strategy_json(
    s: usize,
    kind: SeedStrategyKind,
    t: &Timed,
    baseline: Option<&Timed>,
    reps: u32,
) -> Json {
    let mut members = vec![
        ("s", Json::Num(s as f64)),
        ("strategy", Json::Str(kind.to_string())),
        ("reps", Json::Num(f64::from(reps))),
        ("served_users", Json::Num(t.served as f64)),
        ("wall_ns_mean", Json::Num(t.wall_ns_mean as f64)),
        ("wall_ns_min", Json::Num(t.wall_ns_min as f64)),
        (
            "substrate_build_ns",
            Json::Num(t.stats.profile.substrate_build_ns as f64),
        ),
    ];
    if let (false, Some(exh)) = (kind == SeedStrategyKind::Exhaustive, baseline) {
        let speedup = exh.wall_ns_min as f64 / t.wall_ns_min.max(1) as f64;
        let ratio = t.served as f64 / exh.served.max(1) as f64;
        members.extend([
            ("speedup_vs_exhaustive", Json::Num(round_to(speedup, 2))),
            ("served_ratio_vs_exhaustive", Json::Num(round_to(ratio, 4))),
        ]);
    }
    members.extend([
        ("gain_queries", Json::Num(t.stats.gain_queries as f64)),
        ("subsets", subsets_json(&t.stats)),
    ]);
    obj(members)
}

/// The `(s, strategy)` pairs to measure for a scale: the full
/// `strategy_sweep` matrix under `--seed-strategy all`, or one
/// strategy plus its exhaustive baselines when a name was given.
fn strategy_matrix(scale: &Scale, sel: Option<StrategySel>) -> Vec<(usize, SeedStrategyKind)> {
    let Some(sel) = sel else {
        return Vec::new();
    };
    scale
        .strategy_sweep
        .iter()
        .flat_map(|(s, kinds)| kinds.iter().map(move |&k| (*s, k)))
        .filter_map(|(s, kind)| match sel {
            StrategySel::All => Some((s, kind)),
            StrategySel::One(want) => {
                if kind == SeedStrategyKind::Exhaustive {
                    Some((s, kind))
                } else if std::mem::discriminant(&kind) == std::mem::discriminant(&want) {
                    // The user's beam width wins over the matrix default.
                    Some((s, want))
                } else {
                    None
                }
            }
        })
        .collect()
}

/// Measures one scale: its report section and the verdicts of its
/// strategy checks.
fn scale_json(
    scale: &Scale,
    instance: &Instance,
    build_ns: u64,
    threads: usize,
    reps: u32,
    sel: Option<StrategySel>,
) -> (Json, Vec<Result<(), String>>) {
    let mem = instance.coverage_memory();
    eprintln!(
        "sweep_report: scale={} n={} K={} m={} build {:.3} ms, coverage {:.1} KiB \
         compressed / {:.1} KiB plain (threads={threads} reps={reps})",
        scale.name,
        instance.num_users(),
        instance.num_uavs(),
        instance.num_locations(),
        build_ns as f64 / 1e6,
        mem.compressed_bytes as f64 / 1024.0,
        mem.uncompressed_bytes as f64 / 1024.0,
    );

    let matrix = strategy_matrix(scale, sel);
    let mut specs: Vec<Spec> = scale
        .s_sweep
        .iter()
        .map(|&s| Spec { s, strategy: None })
        .collect();
    let plain = specs.len();
    specs.extend(matrix.iter().map(|&(s, kind)| Spec {
        s,
        strategy: Some(kind),
    }));

    let timed = measure_interleaved(instance, &specs, threads, reps);

    let runs: Vec<Json> = timed[..plain]
        .iter()
        .zip(&scale.s_sweep)
        .map(|(t, &s)| {
            eprintln!(
                "  s={s}: mean {:.3} ms, {} gain queries, {:.0} queries/s",
                t.wall_ns_mean as f64 / 1e6,
                t.stats.gain_queries,
                queries_per_sec(t.stats.gain_queries, t.wall_ns_mean),
            );
            run_json(scale.name, s, threads, reps, t)
        })
        .collect();

    let mut strategy_runs = Vec::new();
    let mut checks = Vec::new();
    for (i, &(s, kind)) in matrix.iter().enumerate() {
        let t = &timed[plain + i];
        let baseline = matrix
            .iter()
            .position(|&(bs, bk)| bs == s && bk == SeedStrategyKind::Exhaustive)
            .map(|j| &timed[plain + j]);
        eprintln!(
            "  strategy s={s} {kind}: min {:.3} ms, served {}, \
             evaluated {} / bound-pruned {} of {} enumerated",
            t.wall_ns_min as f64 / 1e6,
            t.served,
            t.stats.subsets_evaluated,
            t.stats.subsets_bound_pruned,
            t.stats.subsets_enumerated,
        );
        let label = format!("{} s={s} {kind}", scale.name);
        match (kind, baseline) {
            (SeedStrategyKind::Exhaustive, _) => {
                let st = &t.stats;
                let accounted = [
                    st.subsets_evaluated,
                    st.subsets_chain_pruned,
                    st.subsets_bound_pruned,
                ];
                checks.push(check_accounting(&label, st.subsets_enumerated, accounted));
            }
            (_, Some(exh)) => checks.push(check_beam_quality(&label, t.served, exh.served)),
            (_, None) => {}
        }
        strategy_runs.push(strategy_json(s, kind, t, baseline, reps));
    }

    let mut members = vec![
        ("scale", Json::Str(scale.name.into())),
        (
            "instance",
            obj(vec![
                ("users", Json::Num(instance.num_users() as f64)),
                ("uavs", Json::Num(instance.num_uavs() as f64)),
                (
                    "candidate_locations",
                    Json::Num(instance.num_locations() as f64),
                ),
                ("build_ns", Json::Num(build_ns as f64)),
                (
                    "coverage_memory",
                    obj(vec![
                        ("compressed_bytes", Json::Num(mem.compressed_bytes as f64)),
                        (
                            "uncompressed_bytes",
                            Json::Num(mem.uncompressed_bytes as f64),
                        ),
                        ("lists", Json::Num(mem.lists as f64)),
                        ("ids_lists", Json::Num(mem.ids_lists as f64)),
                        ("bitset_lists", Json::Num(mem.bitset_lists as f64)),
                    ]),
                ),
            ]),
        ),
        ("runs", Json::Arr(runs)),
    ];
    if !strategy_runs.is_empty() {
        members.push(("strategy", Json::Arr(strategy_runs)));
    }
    (obj(members), checks)
}

/// Everything `main` needs, parsed and validated. Kept separate from
/// `main` so the whole flag surface is unit-testable without spawning
/// processes; any `Err` exits 2 with the usage line — the binary must
/// never panic on operator input.
#[derive(Debug)]
struct CliOptions {
    common: Common,
    reps_override: Option<u32>,
    scales: Vec<Scale>,
    sel: Option<StrategySel>,
}

fn parse_args(args: &mut Args) -> Result<CliOptions, String> {
    let mut opts = CliOptions {
        common: Common::default(),
        reps_override: None,
        scales: vec![Scale::quick()],
        sel: None,
    };
    while let Some(flag) = args.next_flag() {
        match flag.as_str() {
            "--reps" => opts.reps_override = Some(args.positive(&flag)?),
            "--scale" => opts.scales = args.scales(&["quick", "large", "xlarge", "all"])?,
            "--seed-strategy" => {
                let raw = args.value(&flag)?;
                opts.sel = Some(if raw == "all" {
                    StrategySel::All
                } else {
                    StrategySel::One(raw.parse().map_err(|e| format!("--seed-strategy: {e}"))?)
                });
            }
            _ => opts.common.parse_flag(&flag, args)?,
        }
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = HARNESS.options(parse_args);
    let threads = opts.common.threads;
    let run = HARNESS.start(&opts.common);

    // Instances are built before the recording window opens so the
    // session header can carry their combined fingerprint; per-run
    // work (substrate builds included) still happens inside it.
    let prepared: Vec<(&Scale, Instance, u64)> = opts
        .scales
        .iter()
        .map(|scale| {
            let t_build = Instant::now();
            let instance = scale.instance(scale.n_max(), scale.k_max());
            let build_ns = t_build.elapsed().as_nanos() as u64;
            (scale, instance, build_ns)
        })
        .collect();
    if opts.common.obs.any() {
        let fingerprint = report::fingerprint(prepared.iter().map(|(_, instance, _)| instance));
        run.begin_recording(threads, fingerprint);
    }

    let mut scales = Vec::new();
    let mut checks = Vec::new();
    {
        // All recorded spans nest under this root, so the event log
        // forms a single rooted tree (a no-op without a session).
        let _report_span = uavnet_obs::phases::REPORT.span();
        for (scale, instance, build_ns) in &prepared {
            let (section, scale_checks) = scale_json(
                scale,
                instance,
                *build_ns,
                threads,
                opts.reps_override.unwrap_or(scale.reps),
                opts.sel,
            );
            scales.push(section);
            checks.extend(scale_checks);
        }
    }
    run.end_recording();

    // The incremental-engine (`resolve_report`) and service-smoke
    // (`service_report`) sections live in the same file and survive a
    // sweep regeneration.
    let members = vec![
        ("benchmark", Json::Str("sweep_hotpath".into())),
        (
            "baseline",
            Json::Str(
                "threads = 2 means: growth-seed seed-commit algorithm (quick, fig6_s_sweep), \
                 pre-compression Vec<Vec<u32>> coverage tables (large, interleaved same-box \
                 re-measurement)"
                    .into(),
            ),
        ),
        (
            "regenerate",
            Json::Str(
                "cargo run --release -p uavnet-bench --bin sweep_report -- --scale all \
                 --threads 2 --seed-strategy all"
                    .into(),
            ),
        ),
        ("scales", Json::Arr(scales)),
    ];
    run.finish(members, checks)
}

#[cfg(test)]
mod cli_tests {
    use super::*;
    use uavnet_core::SeedStrategyKind;

    fn parse(args: &str) -> Result<CliOptions, String> {
        parse_args(&mut Args::new(args.split_whitespace().map(String::from)))
    }

    fn scale_names(opts: &CliOptions) -> Vec<&'static str> {
        opts.scales.iter().map(|s| s.name).collect()
    }

    #[test]
    fn defaults_are_quick_two_threads() {
        let opts = parse("").expect("no args is valid");
        assert_eq!(opts.common, Common::default());
        assert_eq!(opts.reps_override, None);
        assert_eq!(scale_names(&opts), ["quick"]);
        assert!(opts.sel.is_none());
    }

    #[test]
    fn full_flag_surface_parses() {
        let opts = parse(
            "--threads 4 --reps 7 --out x.json --scale all --seed-strategy beam:8 \
             --obs-log l.jsonl --obs-metrics m.json --obs-prom p.prom",
        )
        .expect("valid");
        assert_eq!(opts.common.threads, 4);
        assert_eq!(opts.reps_override, Some(7));
        assert_eq!(opts.common.out, "x.json");
        assert_eq!(scale_names(&opts), ["quick", "large", "xlarge"]);
        match opts.sel {
            Some(StrategySel::One(SeedStrategyKind::Beam { width: 8 })) => {}
            _ => panic!("beam:8 must select a width-8 beam"),
        }
        assert_eq!(opts.common.obs.log.as_deref(), Some("l.jsonl"));
        assert_eq!(opts.common.obs.metrics.as_deref(), Some("m.json"));
        assert_eq!(opts.common.obs.prom.as_deref(), Some("p.prom"));
    }

    #[test]
    fn seed_strategy_all_and_named() {
        assert!(matches!(
            parse("--seed-strategy all").unwrap().sel,
            Some(StrategySel::All)
        ));
        assert!(matches!(
            parse("--seed-strategy exhaustive").unwrap().sel,
            Some(StrategySel::One(SeedStrategyKind::Exhaustive))
        ));
        // The retired strategy name is an operator error (exit 2).
        let err = parse("--seed-strategy bound-pruned").unwrap_err();
        assert!(err.contains("bound-pruned"), "got: {err}");
    }

    #[test]
    fn unknown_seed_strategy_is_an_error_not_a_panic() {
        let err = parse("--seed-strategy genetic").unwrap_err();
        assert!(err.contains("--seed-strategy"), "got: {err}");
        assert!(err.contains("genetic"), "got: {err}");
    }

    #[test]
    fn malformed_beam_widths_are_errors() {
        for bad in ["beam:0", "beam:abc", "beam:-1", "beam:"] {
            let err = parse(&format!("--seed-strategy {bad}")).unwrap_err();
            assert!(err.contains("beam"), "{bad}: {err}");
        }
    }

    #[test]
    fn unknown_scale_is_an_error() {
        let err = parse("--scale huge").unwrap_err();
        assert!(err.contains("huge"), "got: {err}");
        assert!(err.contains("quick|large|xlarge|all"), "got: {err}");
    }

    #[test]
    fn malformed_numbers_are_errors() {
        for args in ["--threads two", "--threads -1", "--reps 1.5", "--reps many"] {
            let err = parse(args).unwrap_err();
            assert!(err.contains("expects a number"), "{args}: {err}");
        }
    }

    #[test]
    fn zero_threads_and_zero_reps_are_rejected() {
        assert!(parse("--threads 0")
            .unwrap_err()
            .contains("--threads must be positive"));
        assert!(parse("--reps 0")
            .unwrap_err()
            .contains("--reps must be positive"));
    }

    #[test]
    fn missing_values_are_errors() {
        for flag in
            "--threads --reps --out --scale --seed-strategy --obs-log --obs-metrics --obs-prom"
                .split_whitespace()
        {
            assert_eq!(parse(flag).unwrap_err(), format!("{flag} needs a value"));
        }
    }

    #[test]
    fn unknown_flags_are_errors() {
        // A typo'd flag, a positional, the service-only trace flag and
        // the retired `--sharded`.
        for args in ["--frobnicate", "quick", "--trace-out t.json", "--sharded"] {
            let err = parse(args).unwrap_err();
            assert!(err.contains("unknown argument"), "{args}: {err}");
        }
    }

    #[test]
    fn accounting_fails_one_rank_short() {
        assert!(check_accounting("quick s=2 exhaustive", 10, [5, 3, 2]).is_ok());
        let err = check_accounting("quick s=2 exhaustive", 10, [4, 3, 2]).unwrap_err();
        assert!(err.contains("= 9, want enumerated = 10"), "{err}");
    }

    #[test]
    fn beam_quality_floor_is_three_quarters() {
        assert!(check_beam_quality("quick s=2 beam:8", 3, 4).is_ok());
        let err = check_beam_quality("quick s=2 beam:8", 2, 3).unwrap_err();
        assert!(err.contains("served 2 of exhaustive 3"), "{err}");
        // An exhaustive count of 0 counts as 1, as the reported ratio does.
        assert!(check_beam_quality("x", 0, 0).is_err());
        assert!(check_beam_quality("x", 1, 0).is_ok());
    }
}
