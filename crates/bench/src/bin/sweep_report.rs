//! Regenerates `BENCH_sweep.json`: machine-readable evidence for the
//! subset-sweep hot path — the zero-allocation matching kernel, the
//! streaming enumeration, (PR 3) the spatial-index instance build plus
//! the shared connectivity substrate, (PR 6) the compressed coverage
//! tables plus the tile-sharded sweep, and (PR 8) the pruned
//! seed-search strategies behind the [`SeedStrategyKind`] dispatch.
//!
//! For each selected scale, runs the FIG6-style workload
//! (`n = n_max`, `K = k_max`, every `s` in `s_sweep`) through
//! [`approx_alg_with_stats`] (or [`approx_alg_sharded`] for scales
//! marked `sharded`, currently `xlarge` at one million users) and
//! reports:
//!
//! * instance-construction time (`build_ns` — the spatial-index
//!   coverage build; the `large`/`xlarge` scales at 100 000 / 1 000 000
//!   users exist to exercise exactly this path),
//! * the coverage-table memory footprint from the instance build
//!   (compressed store vs the `Vec<Vec<u32>>` layout it replaced, with
//!   per-encoding list tallies),
//! * wall-clock per sweep (mean and min over the scale's reps),
//! * per-phase wall-clock from [`SweepProfile`] (enumeration, greedy,
//!   connection, scoring — summed across worker threads — plus the
//!   one-time substrate build, the portion of greedy/connection spent
//!   on substrate reads, and tile-view construction on sharded runs),
//! * marginal-gain queries per second (the sweep's throughput metric;
//!   the query *count* is deterministic, thread-count invariant and
//!   identical between the sharded and monolithic paths, so
//!   before/after throughput is directly comparable),
//! * peak subset-combination buffer bytes,
//! * on scales marked `check_sharded` (quick, large), the verdict of
//!   the sharded-vs-monolithic differential oracle
//!   ([`check_sharded_sweep`]) as `"sharded_equals_monolithic"`,
//! * with `--seed-strategy`, a per-scale `"strategy"` section driven
//!   by the scale's `strategy_sweep` matrix: each strategy's wall
//!   clock and honest subset accounting (enumerated / chain-pruned /
//!   bound-pruned / evaluated), and — where the matrix also carries
//!   the exhaustive baseline at the same `s` — `speedup_vs_exhaustive`
//!   and `served_ratio_vs_exhaustive`.
//!
//! # Measurement protocol (interleaved, warmup-separated)
//!
//! All wall times in the report come from one shared protocol per
//! scale, generalized from `scripts/obs_overhead.py`'s
//! alternating-round discipline: first a warm-up pass runs every
//! configuration once untimed (heating caches and capturing the
//! deterministic statistics plus the served count every timed rep must
//! reproduce), then `reps` timing rounds each measure exactly one rep of
//! every configuration in A/B/A/B order. Clock drift, thermal ramps
//! and scheduler noise therefore hit all configurations of a scale
//! alike instead of biasing whichever ran last; `wall_ns_min` is the
//! min over rounds (the low-noise statistic the strategy comparisons
//! use) and `wall_ns_mean` the mean (the statistic the historical
//! `baseline_wall_ns` figures were recorded with).
//!
//! The `baseline_wall_ns` figures are pre-optimization means of the
//! `fig6_s_sweep` Criterion bench on the same instance: the growth
//! seed's seed-commit algorithm for the `quick` scale, and the PR 5
//! monolithic sweep for the `large` scale — so the JSON carries its
//! own before/after comparison.
//!
//! Usage: `cargo run --release -p uavnet-bench --bin sweep_report --
//! [--threads N] [--reps N] [--out PATH]
//! [--scale quick|large|xlarge|all] [--sharded]
//! [--seed-strategy all|exhaustive|beam[:N]]
//! [--obs-log PATH] [--obs-metrics PATH] [--obs-prom PATH]`
//!
//! `--reps` overrides every selected scale's default rep count;
//! `--sharded` forces the tile-sharded solver on every selected scale
//! (scales marked `sharded` use it regardless; strategy runs always
//! use the monolithic dispatch — guided strategies delegate there
//! anyway). `--seed-strategy all` measures each scale's full
//! `strategy_sweep` matrix; naming one strategy filters the matrix to
//! that strategy plus its exhaustive baselines (`beam:N` overrides the
//! matrix beam width). Unknown flags, a flag missing its value, or an
//! unknown scale print the usage line and exit nonzero instead of
//! panicking.
//!
//! The `--obs-*` flags require the `obs` cargo feature
//! (`--features obs`): they wrap the whole report in a `uavnet-obs`
//! recording session and write the JSON-lines event log, the
//! end-of-run metrics snapshot, and/or a Prometheus text-format
//! export of that snapshot to the given paths. The session header
//! carries run provenance (git SHA, features, thread count, and an
//! FNV-1a fingerprint folded over every instance measured), so
//! instances are constructed *before* the recording window opens;
//! everything measured afterwards nests under a single `report` root
//! span, giving the event log one rooted span tree.

use std::time::Instant;

use uavnet_bench::json::Json;
use uavnet_bench::Scale;
use uavnet_core::{
    approx_alg_sharded, approx_alg_with_stats, check_sharded_sweep, ApproxConfig, ApproxStats,
    Instance, SeedStrategyKind, ShardConfig, Solution,
};

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

const USAGE: &str = "usage: sweep_report [--threads N] [--reps N] [--out PATH] \
     [--scale quick|large|xlarge|all] [--sharded] \
     [--seed-strategy all|exhaustive|beam[:N]] \
     [--obs-log PATH] [--obs-metrics PATH] [--obs-prom PATH]";

fn fail_usage(msg: &str) -> ! {
    eprintln!("sweep_report: {msg}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

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
/// `strategy: None`; strategy-matrix runs carry the kind and are
/// always monolithic.
struct Spec {
    s: usize,
    strategy: Option<SeedStrategyKind>,
    sharded: bool,
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
    total_ns: u64,
    stats: ApproxStats,
    served: usize,
}

fn solve(instance: &Instance, spec: &Spec, threads: usize) -> (Solution, ApproxStats) {
    let config = spec.config(threads);
    let result = if spec.sharded {
        approx_alg_sharded(instance, &config, &ShardConfig::new())
    } else {
        approx_alg_with_stats(instance, &config)
    };
    result.unwrap_or_else(|e| panic!("sweep {} failed: {e}", spec.label()))
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
                total_ns: 0,
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
            t.total_ns += ns;
            t.wall_ns_min = t.wall_ns_min.min(ns);
        }
    }
    for t in &mut timed {
        t.wall_ns_mean = t.total_ns / u64::from(reps.max(1));
    }
    timed
}

struct RunReport {
    s: usize,
    reps: u32,
    sharded: bool,
    /// Verdict of [`check_sharded_sweep`]; `None` when the oracle was
    /// not run at this scale.
    sharded_equals_monolithic: Option<bool>,
    wall_ns_mean: u64,
    wall_ns_min: u64,
    stats: ApproxStats,
    served: usize,
}

fn queries_per_sec(queries: u64, wall_ns: u64) -> f64 {
    queries as f64 * 1e9 / wall_ns as f64
}

fn run_json(r: &RunReport, threads: usize, scale_name: &str) -> String {
    let p = &r.stats.profile;
    let after_qps = queries_per_sec(r.stats.gain_queries, r.wall_ns_mean);
    let (baseline_fields, speedup_fields) = match baseline_wall_ns(scale_name, r.s) {
        Some(base_ns) => {
            let before_qps = queries_per_sec(r.stats.gain_queries, base_ns);
            (
                format!(
                    "        \"baseline_wall_ns\": {base_ns},\n        \
                     \"baseline_gain_queries_per_sec\": {before_qps:.1},\n"
                ),
                format!(
                    "        \"speedup_vs_baseline\": {:.2},\n",
                    base_ns as f64 / r.wall_ns_mean as f64
                ),
            )
        }
        None => (String::new(), String::new()),
    };
    let oracle_field = match r.sharded_equals_monolithic {
        Some(ok) => format!("        \"sharded_equals_monolithic\": {ok},\n"),
        None => String::new(),
    };
    format!(
        "      {{\n        \"s\": {s},\n        \"threads\": {threads},\n        \
         \"reps\": {reps},\n        \"sharded\": {sharded},\n{oracle_field}        \
         \"served_users\": {served},\n        \
         \"wall_ns_mean\": {mean},\n        \"wall_ns_min\": {min},\n\
         {baseline_fields}{speedup_fields}        \
         \"gain_queries\": {queries},\n        \
         \"gain_queries_per_sec\": {qps:.1},\n        \
         \"phases_ns\": {{\n          \"enumeration\": {enumeration},\n          \
         \"greedy\": {greedy},\n          \"connection\": {connection},\n          \
         \"scoring\": {scoring},\n          \
         \"substrate_build\": {sub_build},\n          \
         \"substrate_query\": {sub_query},\n          \
         \"tile_view\": {tile_view}\n        }},\n        \
         \"subset_buffer_peak_bytes\": {peak},\n        \
         \"subsets\": {{\n          \"enumerated\": {enumerated},\n          \
         \"chain_pruned\": {pruned},\n          \"bound_pruned\": {bound},\n          \
         \"evaluated\": {evaluated},\n          \
         \"unconnectable\": {unconnectable}\n        }},\n        \
         \"tiles_solved\": {tiles},\n        \"view_escapes\": {escapes}\n      }}",
        s = r.s,
        reps = r.reps,
        sharded = r.sharded,
        served = r.served,
        mean = r.wall_ns_mean,
        min = r.wall_ns_min,
        queries = r.stats.gain_queries,
        qps = after_qps,
        enumeration = p.enumeration_ns,
        greedy = p.greedy_ns,
        connection = p.connection_ns,
        scoring = p.scoring_ns,
        sub_build = p.substrate_build_ns,
        sub_query = p.substrate_query_ns,
        tile_view = p.tile_view_ns,
        peak = p.subset_buffer_peak_bytes,
        enumerated = r.stats.subsets_enumerated,
        pruned = r.stats.subsets_chain_pruned,
        bound = r.stats.subsets_bound_pruned,
        evaluated = r.stats.subsets_evaluated,
        unconnectable = r.stats.subsets_unconnectable,
        tiles = r.stats.tiles_solved,
        escapes = r.stats.view_escapes,
    )
}

fn strategy_json(
    s: usize,
    kind: SeedStrategyKind,
    t: &Timed,
    baseline: Option<&Timed>,
    reps: u32,
) -> String {
    let comparison = match (kind, baseline) {
        (SeedStrategyKind::Exhaustive, _) | (_, None) => String::new(),
        (_, Some(exh)) => format!(
            "        \"speedup_vs_exhaustive\": {:.2},\n        \
             \"served_ratio_vs_exhaustive\": {:.4},\n",
            exh.wall_ns_min as f64 / t.wall_ns_min.max(1) as f64,
            t.served as f64 / exh.served.max(1) as f64,
        ),
    };
    format!(
        "      {{\n        \"s\": {s},\n        \"strategy\": \"{kind}\",\n        \
         \"reps\": {reps},\n        \
         \"served_users\": {served},\n        \
         \"wall_ns_mean\": {mean},\n        \"wall_ns_min\": {min},\n        \
         \"substrate_build_ns\": {sub_build},\n{comparison}        \
         \"gain_queries\": {queries},\n        \
         \"subsets\": {{\n          \"enumerated\": {enumerated},\n          \
         \"chain_pruned\": {pruned},\n          \"bound_pruned\": {bound},\n          \
         \"evaluated\": {evaluated},\n          \
         \"unconnectable\": {unconnectable}\n        }}\n      }}",
        served = t.served,
        mean = t.wall_ns_mean,
        min = t.wall_ns_min,
        sub_build = t.stats.profile.substrate_build_ns,
        queries = t.stats.gain_queries,
        enumerated = t.stats.subsets_enumerated,
        pruned = t.stats.subsets_chain_pruned,
        bound = t.stats.subsets_bound_pruned,
        evaluated = t.stats.subsets_evaluated,
        unconnectable = t.stats.subsets_unconnectable,
    )
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

fn scale_json(
    scale: &Scale,
    instance: &Instance,
    build_ns: u64,
    threads: usize,
    reps: u32,
    sharded: bool,
    sel: Option<StrategySel>,
) -> String {
    let mem = instance.coverage_memory();
    eprintln!(
        "sweep_report: scale={} n={} K={} m={} build {:.3} ms, coverage {:.1} KiB \
         compressed / {:.1} KiB plain (threads={threads} reps={reps}{})",
        scale.name,
        instance.num_users(),
        instance.num_uavs(),
        instance.num_locations(),
        build_ns as f64 / 1e6,
        mem.compressed_bytes as f64 / 1024.0,
        mem.uncompressed_bytes as f64 / 1024.0,
        if sharded { " sharded" } else { "" },
    );

    let matrix = strategy_matrix(scale, sel);
    let mut specs: Vec<Spec> = scale
        .s_sweep
        .iter()
        .map(|&s| Spec {
            s,
            strategy: None,
            sharded,
        })
        .collect();
    let plain = specs.len();
    specs.extend(matrix.iter().map(|&(s, kind)| Spec {
        s,
        strategy: Some(kind),
        sharded: false,
    }));

    let timed = measure_interleaved(instance, &specs, threads, reps);

    let runs: Vec<String> = timed[..plain]
        .iter()
        .zip(&scale.s_sweep)
        .map(|(t, &s)| {
            let mut report = RunReport {
                s,
                reps,
                sharded,
                sharded_equals_monolithic: None,
                wall_ns_mean: t.wall_ns_mean,
                wall_ns_min: t.wall_ns_min,
                stats: t.stats.clone(),
                served: t.served,
            };
            if scale.check_sharded {
                let config = ApproxConfig::with_s(s).threads(threads);
                check_sharded_sweep(instance, &config)
                    .unwrap_or_else(|e| panic!("sharded differential oracle failed at s={s}: {e}"));
                report.sharded_equals_monolithic = Some(true);
            }
            eprintln!(
                "  s={s}: mean {:.3} ms, {} gain queries, {:.0} queries/s{}",
                report.wall_ns_mean as f64 / 1e6,
                report.stats.gain_queries,
                queries_per_sec(report.stats.gain_queries, report.wall_ns_mean),
                match report.sharded_equals_monolithic {
                    Some(true) => ", sharded == monolithic",
                    _ => "",
                },
            );
            run_json(&report, threads, scale.name)
        })
        .collect();

    let strategy_runs: Vec<String> = matrix
        .iter()
        .enumerate()
        .map(|(i, &(s, kind))| {
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
            strategy_json(s, kind, t, baseline, reps)
        })
        .collect();
    let strategy_block = if strategy_runs.is_empty() {
        String::new()
    } else {
        format!(
            ",\n      \"strategy\": [\n{}\n      ]",
            strategy_runs.join(",\n")
        )
    };

    format!(
        "    {{\n      \"scale\": \"{name}\",\n      \
         \"instance\": {{\n        \"users\": {n},\n        \"uavs\": {k},\n        \
         \"candidate_locations\": {m},\n        \"build_ns\": {build_ns},\n        \
         \"coverage_memory\": {{\n          \
         \"compressed_bytes\": {cbytes},\n          \
         \"uncompressed_bytes\": {ubytes},\n          \
         \"lists\": {lists},\n          \
         \"ids_lists\": {ids},\n          \
         \"run_lists\": {runs_enc},\n          \
         \"bitset_lists\": {bits}\n        }}\n      }},\n      \
         \"runs\": [\n{runs}\n      ]{strategy_block}\n    }}",
        name = scale.name,
        n = instance.num_users(),
        k = instance.num_uavs(),
        m = instance.num_locations(),
        cbytes = mem.compressed_bytes,
        ubytes = mem.uncompressed_bytes,
        lists = mem.lists,
        ids = mem.ids_lists,
        runs_enc = mem.run_lists,
        bits = mem.bitset_lists,
        runs = runs.join(",\n"),
    )
}

/// Which scales `--scale` selected, resolved eagerly so malformed
/// names surface from [`parse_args`] rather than mid-run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum ScaleSel {
    Quick,
    Large,
    Xlarge,
    All,
}

impl ScaleSel {
    fn scales(self) -> Vec<Scale> {
        match self {
            ScaleSel::Quick => vec![Scale::quick()],
            ScaleSel::Large => vec![Scale::large()],
            ScaleSel::Xlarge => vec![Scale::xlarge()],
            ScaleSel::All => vec![Scale::quick(), Scale::large(), Scale::xlarge()],
        }
    }
}

/// Everything `main` needs, parsed and validated. Kept separate from
/// `main` so the whole flag surface is unit-testable without spawning
/// processes; any `Err` exits 2 through [`fail_usage`] — the binary
/// must never panic on operator input.
#[derive(Debug)]
struct CliOptions {
    threads: usize,
    reps_override: Option<u32>,
    out: String,
    scale: ScaleSel,
    force_sharded: bool,
    sel: Option<StrategySel>,
    obs_log: Option<String>,
    obs_metrics: Option<String>,
    obs_prom: Option<String>,
}

fn parse_num<T: std::str::FromStr>(raw: &str, name: &str) -> Result<T, String> {
    raw.parse()
        .map_err(|_| format!("{name} expects a number, got {raw:?}"))
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<CliOptions, String> {
    let mut opts = CliOptions {
        threads: 2,
        reps_override: None,
        out: String::from("BENCH_sweep.json"),
        scale: ScaleSel::Quick,
        force_sharded: false,
        sel: None,
        obs_log: None,
        obs_metrics: None,
        obs_prom: None,
    };
    let mut args = args;
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().ok_or_else(|| format!("{name} needs a value"));
        match arg.as_str() {
            "--threads" => opts.threads = parse_num(&value("--threads")?, "--threads")?,
            "--reps" => opts.reps_override = Some(parse_num(&value("--reps")?, "--reps")?),
            "--out" => opts.out = value("--out")?,
            "--scale" => {
                opts.scale = match value("--scale")?.as_str() {
                    "quick" => ScaleSel::Quick,
                    "large" => ScaleSel::Large,
                    "xlarge" => ScaleSel::Xlarge,
                    "all" => ScaleSel::All,
                    other => {
                        return Err(format!(
                            "unknown --scale {other:?} (expected quick|large|xlarge|all)"
                        ))
                    }
                }
            }
            "--sharded" => opts.force_sharded = true,
            "--seed-strategy" => {
                let raw = value("--seed-strategy")?;
                opts.sel = Some(if raw == "all" {
                    StrategySel::All
                } else {
                    StrategySel::One(raw.parse().map_err(|e| format!("--seed-strategy: {e}"))?)
                });
            }
            "--obs-log" => opts.obs_log = Some(value("--obs-log")?),
            "--obs-metrics" => opts.obs_metrics = Some(value("--obs-metrics")?),
            "--obs-prom" => opts.obs_prom = Some(value("--obs-prom")?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if opts.threads == 0 {
        return Err("--threads must be positive".to_string());
    }
    if opts.reps_override == Some(0) {
        return Err("--reps must be positive".to_string());
    }
    Ok(opts)
}

fn main() {
    let CliOptions {
        threads,
        reps_override,
        out,
        scale,
        force_sharded,
        sel,
        obs_log,
        obs_metrics,
        obs_prom,
    } = parse_args(std::env::args().skip(1)).unwrap_or_else(|msg| fail_usage(&msg));
    let scales = scale.scales();

    let want_obs = obs_log.is_some() || obs_metrics.is_some() || obs_prom.is_some();
    if want_obs && !uavnet_obs::is_enabled() {
        eprintln!(
            "sweep_report: --obs-log/--obs-metrics/--obs-prom need the instrumentation \
             compiled in; rebuild with `--features obs`"
        );
        std::process::exit(2);
    }

    // Instances are built before the recording window opens so the
    // session header can carry their combined fingerprint; per-run
    // work (substrate builds included) still happens inside it.
    let prepared: Vec<(Scale, Instance, u64)> = scales
        .into_iter()
        .map(|scale| {
            let t_build = Instant::now();
            let instance = scale.instance(scale.n_max(), scale.k_max());
            let build_ns = t_build.elapsed().as_nanos() as u64;
            (scale, instance, build_ns)
        })
        .collect();

    if want_obs {
        let mut provenance = uavnet_obs::Provenance::detect();
        provenance.features = if uavnet_obs::is_enabled() {
            "obs,enabled".to_string()
        } else {
            String::new()
        };
        provenance.threads = threads as u64;
        provenance.instance_fingerprint = prepared
            .iter()
            .fold(0xcbf2_9ce4_8422_2325, |h: u64, (_, instance, _)| {
                (h ^ instance.fingerprint()).wrapping_mul(0x0100_0000_01b3)
            });
        assert!(
            uavnet_obs::session_begin_with(provenance),
            "obs session already active"
        );
    }

    let scale_blocks: Vec<String> = {
        // All recorded spans nest under this root, so the event log
        // forms a single rooted tree (a no-op without a session).
        let _report_span = uavnet_obs::phases::REPORT.span();
        prepared
            .iter()
            .map(|(scale, instance, build_ns)| {
                scale_json(
                    scale,
                    instance,
                    *build_ns,
                    threads,
                    reps_override.unwrap_or(scale.reps),
                    scale.sharded || force_sharded,
                    sel,
                )
            })
            .collect()
    };

    if want_obs {
        let snap = uavnet_obs::session_end().expect("obs session was begun above");
        let events = uavnet_obs::drain_events();
        if let Some(path) = &obs_log {
            let mut lines = String::with_capacity(events.len() * 64);
            for e in &events {
                lines.push_str(&e.to_json_line());
                lines.push('\n');
            }
            std::fs::write(path, lines).expect("write obs event log");
            eprintln!("sweep_report: wrote {path} ({} events)", events.len());
        }
        if let Some(path) = &obs_metrics {
            std::fs::write(path, snap.to_json()).expect("write obs metrics snapshot");
            eprintln!("sweep_report: wrote {path}");
        }
        if let Some(path) = &obs_prom {
            std::fs::write(path, snap.to_prometheus()).expect("write obs prometheus export");
            eprintln!("sweep_report: wrote {path}");
        }
    }

    let json = format!(
        "{{\n  \"benchmark\": \"sweep_hotpath\",\n  \
         \"baseline\": \"threads = 2 means: growth-seed seed-commit algorithm (quick, fig6_s_sweep), pre-compression Vec<Vec<u32>> coverage tables (large, interleaved same-box re-measurement)\",\n  \
         \"regenerate\": \"cargo run --release -p uavnet-bench --bin sweep_report -- --scale all --threads 2 --seed-strategy all\",\n  \
         \"scales\": [\n{blocks}\n  ]\n}}\n",
        blocks = scale_blocks.join(",\n"),
    );
    // The incremental-engine (`resolve_report`) and service-smoke
    // (`service_report`) sections live in the same file; carry them
    // across a sweep regeneration instead of clobbering them.
    let old = std::fs::read_to_string(&out)
        .ok()
        .and_then(|old| Json::parse(&old).ok());
    let json = match old {
        Some(old) => {
            let mut doc = Json::parse(&json).expect("sweep_report emits valid JSON");
            for section in ["resolve", "service"] {
                if let Some(kept) = old.get(section) {
                    doc.set(section, kept.clone());
                }
            }
            doc.dump()
        }
        None => json,
    };
    std::fs::write(&out, json).expect("write report");
    eprintln!("sweep_report: wrote {out}");
}

#[cfg(test)]
mod cli_tests {
    use super::*;
    use uavnet_core::SeedStrategyKind;

    fn parse(args: &[&str]) -> Result<CliOptions, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_are_quick_two_threads() {
        let opts = parse(&[]).expect("no args is valid");
        assert_eq!(opts.threads, 2);
        assert_eq!(opts.reps_override, None);
        assert_eq!(opts.out, "BENCH_sweep.json");
        assert_eq!(opts.scale, ScaleSel::Quick);
        assert!(!opts.force_sharded);
        assert!(opts.sel.is_none());
    }

    #[test]
    fn full_flag_surface_parses() {
        let opts = parse(&[
            "--threads",
            "4",
            "--reps",
            "7",
            "--out",
            "x.json",
            "--scale",
            "all",
            "--sharded",
            "--seed-strategy",
            "beam:8",
            "--obs-log",
            "l.jsonl",
            "--obs-metrics",
            "m.json",
            "--obs-prom",
            "p.prom",
        ])
        .expect("valid");
        assert_eq!(opts.threads, 4);
        assert_eq!(opts.reps_override, Some(7));
        assert_eq!(opts.out, "x.json");
        assert_eq!(opts.scale, ScaleSel::All);
        assert!(opts.force_sharded);
        match opts.sel {
            Some(StrategySel::One(SeedStrategyKind::Beam { width: 8 })) => {}
            _ => panic!("beam:8 must select a width-8 beam"),
        }
        assert_eq!(opts.obs_log.as_deref(), Some("l.jsonl"));
        assert_eq!(opts.obs_metrics.as_deref(), Some("m.json"));
        assert_eq!(opts.obs_prom.as_deref(), Some("p.prom"));
    }

    #[test]
    fn seed_strategy_all_and_named() {
        assert!(matches!(
            parse(&["--seed-strategy", "all"]).unwrap().sel,
            Some(StrategySel::All)
        ));
        assert!(matches!(
            parse(&["--seed-strategy", "exhaustive"]).unwrap().sel,
            Some(StrategySel::One(SeedStrategyKind::Exhaustive))
        ));
        // The retired strategy name is an operator error (exit 2).
        let err = parse(&["--seed-strategy", "bound-pruned"]).unwrap_err();
        assert!(err.contains("bound-pruned"), "got: {err}");
    }

    #[test]
    fn unknown_seed_strategy_is_an_error_not_a_panic() {
        let err = parse(&["--seed-strategy", "genetic"]).unwrap_err();
        assert!(err.contains("--seed-strategy"), "got: {err}");
        assert!(err.contains("genetic"), "got: {err}");
    }

    #[test]
    fn malformed_beam_widths_are_errors() {
        for bad in ["beam:0", "beam:abc", "beam:-1", "beam:"] {
            let err = parse(&["--seed-strategy", bad]).unwrap_err();
            assert!(err.contains("beam"), "{bad}: {err}");
        }
    }

    #[test]
    fn unknown_scale_is_an_error() {
        let err = parse(&["--scale", "huge"]).unwrap_err();
        assert!(err.contains("huge"), "got: {err}");
        assert!(err.contains("quick|large|xlarge|all"), "got: {err}");
    }

    #[test]
    fn malformed_numbers_are_errors() {
        for args in [
            &["--threads", "two"][..],
            &["--threads", "-1"],
            &["--reps", "1.5"],
            &["--reps", "many"],
        ] {
            let err = parse(args).unwrap_err();
            assert!(err.contains("expects a number"), "{args:?}: {err}");
        }
    }

    #[test]
    fn zero_threads_and_zero_reps_are_rejected() {
        assert!(parse(&["--threads", "0"])
            .unwrap_err()
            .contains("--threads must be positive"));
        assert!(parse(&["--reps", "0"])
            .unwrap_err()
            .contains("--reps must be positive"));
    }

    #[test]
    fn missing_values_are_errors() {
        for flag in [
            "--threads",
            "--reps",
            "--out",
            "--scale",
            "--seed-strategy",
            "--obs-log",
            "--obs-metrics",
            "--obs-prom",
        ] {
            let err = parse(&[flag]).unwrap_err();
            assert_eq!(err, format!("{flag} needs a value"));
        }
    }

    #[test]
    fn unknown_flags_are_errors() {
        let err = parse(&["--frobnicate"]).unwrap_err();
        assert!(err.contains("unknown argument"), "got: {err}");
        // A typo'd positional is rejected the same way.
        assert!(parse(&["quick"]).unwrap_err().contains("unknown argument"));
    }

    #[test]
    fn scale_selectors_resolve() {
        assert_eq!(ScaleSel::Quick.scales().len(), 1);
        assert_eq!(ScaleSel::All.scales().len(), 3);
    }
}
