//! What the benchmark runs and reports: the workloads with their pinned
//! scenario parameters, and every metric with its unit, direction,
//! regression bound and the end-to-end metric it should move. The root
//! `BENCHMARK.json` mirrors this table; a unit test keeps the two equal.

use crate::gen::Kind;
use uavnet_workload::{ScenarioSpec, UserDistribution, WorkloadError};

/// Seconds one run measures when `--seconds` is not given
/// (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 20;

/// Solver worker threads: the benchmark machine has two cores, and one
/// process drives the whole load.
pub const THREADS: usize = 2;

/// Grid cell side of every scenario, in meters (m = (side / cell)²).
pub const CELL_M: f64 = 300.0;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// The `better` string of `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Metric name as printed and as keyed in the result JSON.
    pub name: &'static str,
    /// Unit string.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the base median by which an end-to-end metric may
    /// worsen before a change counts as a regression; `None` for
    /// per-layer metrics, which have no bound.
    pub bound: Option<f64>,
    /// What it measures (end-to-end) or which end-to-end metric on
    /// which workload it should move (per-layer).
    pub note: &'static str,
}

/// A cold-planning workload: closed loop, one caller cold-solving a
/// pool of scenarios built during set-up, in whole passes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanParams {
    /// Scenario seeds of the pool. They are pinned, not drawn from
    /// `--seed`, so `served_ratio` is the same number on every run; the
    /// seed only orders each pass.
    pub pool: &'static [u64],
    /// Times set-up instantiates the whole pool; `setup_s` is the
    /// median per-scenario instantiate over all of them.
    pub setup_passes: usize,
    /// Zone side in meters (square zone).
    pub side_m: f64,
    /// Users `n` per scenario.
    pub users: usize,
    /// Fleet size `K`.
    pub uavs: usize,
    /// Capacity range `[C_min, C_max]`.
    pub capacity: (u32, u32),
    /// Seed-subset size `s`.
    pub s: usize,
    /// Solve through the tile-sharded sweep instead of the monolithic
    /// one.
    pub sharded: bool,
}

/// The live re-deployment workload: one scenario behind the solver
/// service, an open-loop phase at a fixed rate, then a closed loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamParams {
    /// The zone is pinned: at this size the per-delta cost depends on
    /// where the user clusters fall, so a zone drawn from `--seed` would
    /// make runs of different seeds measure different zones. The seed
    /// drives the delta stream instead.
    pub scenario_seed: u64,
    /// Zone side in meters.
    pub side_m: f64,
    /// Users `n` at the start of the stream.
    pub users: usize,
    /// Fleet size `K`.
    pub uavs: usize,
    /// Capacity range `[C_min, C_max]`.
    pub capacity: (u32, u32),
    /// Seed-subset size `s` of the service's cold solves.
    pub s: usize,
    /// Open-loop publish rate.
    pub rate_per_s: f64,
    /// Share of the measured seconds spent in the open loop; the rest
    /// is the closed loop.
    pub open_share: f64,
    /// Set-ups per run (instantiate, spawn, connect); `setup_s` is
    /// their median and the last one serves the stream.
    pub setups: usize,
    /// The delta mix.
    pub mix: DeltaMix,
}

/// How the generator builds deltas.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeltaMix {
    /// Share of the current users one mobility delta moves.
    pub move_share: f64,
    /// Gaussian step of a moved user, in meters (clamped to the zone).
    pub sigma_m: f64,
    /// Every this-many-th delta is a fault, cycling through `faults`.
    pub fault_every: u64,
    /// The fault kinds, in cycle order.
    pub faults: &'static [Kind],
    /// Users one surge adds.
    pub surge_users: usize,
}

/// The load a workload puts on the system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Load {
    /// Cold planning solves.
    Plan(PlanParams),
    /// Live re-deployment over the service boundary.
    Stream(StreamParams),
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Why it exists (one line, `BENCHMARK.json`'s `why`).
    pub why: &'static str,
    /// Its pinned load.
    pub load: Load,
}

/// The fat-tailed user placement of the paper's evaluation.
const USERS: UserDistribution = UserDistribution::FatTailed {
    clusters: 12,
    zipf_exponent: 1.2,
};

/// The delta mix of the live workload (and of the traced live probe
/// every planning workload runs).
pub const MIX: DeltaMix = DeltaMix {
    move_share: 0.01,
    sigma_m: 25.0,
    fault_every: 10,
    faults: &[Kind::Sever, Kind::Surge],
    surge_users: 50,
};

/// Every workload. The scenario parameters live here and nowhere else,
/// built directly with `ScenarioSpec::builder()`, so library edits
/// cannot silently change what is measured.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "plan-paper",
        why: "The paper's laptop FIG6 regime, n=600 K=20 m=100 s=2 cap 10-60: \
              tables stay in cache and seed enumeration plus greedy/matching do \
              the work; bound-pruned loses here",
        load: Load::Plan(PlanParams {
            pool: &[1, 2, 3, 4],
            setup_passes: 25,
            side_m: 3_000.0,
            users: 600,
            uavs: 20,
            capacity: (10, 60),
            s: 2,
            sharded: false,
        }),
    },
    Workload {
        name: "plan-large",
        why: "A big instance, n=100000 K=8 m=400 s=2 cap 50-300: greedy/matching \
              and the substrate dominate, the side of the seed-strategy choice \
              where bound-pruned wins",
        load: Load::Plan(PlanParams {
            pool: &[1, 2, 3, 4],
            setup_passes: 5,
            side_m: 6_000.0,
            users: 100_000,
            uavs: 8,
            capacity: (50, 300),
            s: 2,
            sharded: false,
        }),
    },
    Workload {
        name: "plan-xlarge",
        why: "The scale ceiling, sharded sweep at n=1000000 K=8 m=1600 s=1: tile \
              views, coverage tables larger than cache and the instance build \
              dominate; holds the memory metric",
        load: Load::Plan(PlanParams {
            pool: &[1, 2],
            setup_passes: 2,
            side_m: 12_000.0,
            users: 1_000_000,
            uavs: 8,
            capacity: (50, 300),
            s: 1,
            sharded: true,
        }),
    },
    Workload {
        name: "stream-large",
        why: "Live re-deployment of a pinned zone over loopback, n=100000 K=8 m=400 \
              s=1, 4/s open loop then closed loop, 1% moves and a fault every 10th \
              delta: incremental engine and service path",
        load: Load::Stream(StreamParams {
            scenario_seed: 7,
            side_m: 6_000.0,
            users: 100_000,
            uavs: 8,
            capacity: (50, 300),
            s: 1,
            rate_per_s: 4.0,
            open_share: 0.75,
            setups: 3,
            mix: MIX,
        }),
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The pinned scenario of a workload for one scenario seed.
///
/// # Errors
///
/// The workload crate's validation error (never for the pinned
/// parameters above).
pub fn scenario(
    side_m: f64,
    users: usize,
    uavs: usize,
    capacity: (u32, u32),
    seed: u64,
) -> Result<ScenarioSpec, WorkloadError> {
    ScenarioSpec::builder()
        .area_m(side_m, side_m)
        .cell_m(CELL_M)
        .users(users)
        .distribution(USERS)
        .uavs(uavs)
        .capacity_range(capacity.0, capacity.1)
        .seed(seed)
        .build()
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
        note: "",
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    note: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
        note,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics, reported by every workload with `--trace 0`.
pub const END_TO_END: [Metric; 5] = [
    Metric {
        note: "median set-up of one scenario: instantiate, over several passes \
               over the pool (plan-*); instantiate, service spawn with its cold \
               solve, and connects, over 3 set-ups (stream-large)",
        ..e2e("setup_s", "s", Lower, 0.25)
    },
    Metric {
        note: "median request latency: instance in hand to returned solution, \
               per scenario, averaged over the pool (plan-*); open-loop delta \
               scheduled send to its deployments frame (stream-large)",
        ..e2e("latency_p50_ms", "ms", Lower, 0.25)
    },
    Metric {
        note: "solves per wall-clock second of the measured phase, validation \
               and checks included (plan-*); closed-loop deltas per second, the \
               service capacity (stream-large)",
        ..e2e("throughput_per_s", "1/s", Higher, 0.25)
    },
    Metric {
        note: "served users over min(n, fleet capacity), mean over the pinned \
               pool (plan-*), or after the open loop (stream-large); \
               deterministic for a seed",
        ..e2e("served_ratio", "ratio", Higher, 0.002)
    },
    Metric {
        note: "VmHWM of the benchmark process when the measured phase ends",
        ..e2e("peak_rss_mb", "MiB", Lower, 0.2)
    },
];

/// Per-layer metrics, reported by every workload with `--trace 1`.
pub const PER_LAYER: [Metric; 45] = [
    layer(
        "workload.instantiate_ms",
        "ms",
        Lower,
        "setup_s on plan-xlarge, plan-large",
    ),
    layer("model.build_ms", "ms", Lower, "setup_s on plan-xlarge"),
    layer(
        "model.coverage_mib",
        "MiB",
        Lower,
        "peak_rss_mb on plan-xlarge",
    ),
    layer(
        "model.with_moved_users_ms",
        "ms",
        Lower,
        "latency_p50_ms on stream-large",
    ),
    layer(
        "model.with_extra_users_ms",
        "ms",
        Lower,
        "latency tail on stream-large",
    ),
    layer(
        "model.with_severed_links_ms",
        "ms",
        Lower,
        "latency tail on stream-large",
    ),
    layer(
        "sweep.solve_ms",
        "ms",
        Lower,
        "latency_p50_ms on plan-paper, plan-large",
    ),
    layer(
        "sweep.gain_queries_per_s",
        "1/s",
        Higher,
        "latency_p50_ms on plan-paper, plan-large",
    ),
    layer(
        "sweep.gain_queries",
        "count",
        Lower,
        "latency_p50_ms on plan-*",
    ),
    layer(
        "sweep.subsets_enumerated",
        "count",
        Lower,
        "latency_p50_ms on plan-*",
    ),
    layer(
        "sweep.subsets_evaluated",
        "count",
        Lower,
        "latency_p50_ms on plan-*",
    ),
    layer(
        "sweep.subsets_chain_pruned",
        "count",
        Higher,
        "latency_p50_ms on plan-*",
    ),
    layer(
        "sweep.subsets_bound_pruned",
        "count",
        Higher,
        "latency_p50_ms on plan-large (0 under the exhaustive default)",
    ),
    layer(
        "sweep.evaluated_frac",
        "ratio",
        Lower,
        "latency_p50_ms on plan-*: evaluated over enumerated subsets",
    ),
    layer(
        "sweep.enumeration_cpu_ms",
        "ms",
        Lower,
        "latency_p50_ms on plan-*; CPU summed over threads, not wall",
    ),
    layer(
        "sweep.greedy_cpu_ms",
        "ms",
        Lower,
        "latency_p50_ms on plan-*; CPU summed over threads, not wall",
    ),
    layer(
        "sweep.connection_cpu_ms",
        "ms",
        Lower,
        "latency_p50_ms on plan-*; CPU summed over threads, not wall",
    ),
    layer(
        "sweep.scoring_cpu_ms",
        "ms",
        Lower,
        "latency_p50_ms on plan-*; CPU summed over threads, not wall",
    ),
    layer(
        "substrate.build_ms",
        "ms",
        Lower,
        "latency_p50_ms on plan-xlarge, plan-large",
    ),
    layer(
        "substrate.query_cpu_ms",
        "ms",
        Lower,
        "latency_p50_ms on plan-xlarge, plan-large; CPU, not wall",
    ),
    layer(
        "shard.tiles_solved",
        "count",
        Lower,
        "latency_p50_ms on plan-xlarge",
    ),
    layer(
        "shard.view_escapes",
        "count",
        Lower,
        "latency_p50_ms on plan-xlarge",
    ),
    layer(
        "shard.tile_view_cpu_ms",
        "ms",
        Lower,
        "latency_p50_ms on plan-xlarge; CPU, not wall",
    ),
    layer(
        "flow.assign_ms",
        "ms",
        Lower,
        "latency_p50_ms on plan-paper, plan-large",
    ),
    layer(
        "incremental.apply_move_ms",
        "ms",
        Lower,
        "latency_p50_ms on stream-large",
    ),
    layer(
        "incremental.apply_surge_ms",
        "ms",
        Lower,
        "latency tail on stream-large",
    ),
    layer(
        "incremental.apply_sever_ms",
        "ms",
        Lower,
        "latency tail on stream-large",
    ),
    layer(
        "incremental.apply_kill_ms",
        "ms",
        Lower,
        "latency tail on stream-large",
    ),
    layer(
        "incremental.dirty_tiles",
        "count",
        Lower,
        "latency_p50_ms on stream-large",
    ),
    layer(
        "incremental.stations_refreshed",
        "count",
        Lower,
        "latency_p50_ms on stream-large",
    ),
    layer(
        "incremental.repairs",
        "count",
        Lower,
        "latency tail on stream-large",
    ),
    layer(
        "incremental.cold_solves",
        "count",
        Lower,
        "latency tail on stream-large",
    ),
    layer(
        "incremental.matching_rebuilds",
        "count",
        Lower,
        "latency_p50_ms on stream-large",
    ),
    layer(
        "incremental.dropped_placements",
        "count",
        Lower,
        "served_ratio on stream-large",
    ),
    layer(
        "incremental.relays_spent",
        "count",
        Lower,
        "served_ratio on stream-large",
    ),
    layer(
        "incremental.kill_served_ratio",
        "ratio",
        Higher,
        "served_ratio on stream-large",
    ),
    layer(
        "proto.publish_bytes",
        "B",
        Lower,
        "latency_p50_ms on stream-large (per mobility delta)",
    ),
    layer(
        "proto.publish_encode_us",
        "us",
        Lower,
        "latency_p50_ms on stream-large (per mobility delta)",
    ),
    layer(
        "proto.publish_decode_us",
        "us",
        Lower,
        "latency_p50_ms on stream-large (per mobility delta)",
    ),
    layer(
        "proto.frame_decode_us",
        "us",
        Lower,
        "latency_p50_ms on stream-large",
    ),
    layer(
        "service.publish_rtt_ms",
        "ms",
        Lower,
        "throughput_per_s on stream-large",
    ),
    layer(
        "service.ack_to_frame_ms",
        "ms",
        Lower,
        "latency_p50_ms on stream-large",
    ),
    layer(
        "service.residual_ms",
        "ms",
        Lower,
        "latency_p50_ms on stream-large",
    ),
    layer(
        "service.busy_replies",
        "count",
        Lower,
        "failed count on stream-large",
    ),
    layer(
        "generator.lag_max_ms",
        "ms",
        Lower,
        "must stay far below latency_p50_ms, or the run measures the generator",
    ),
];

/// The tracing overhead is measured, not modelled: a traced run spends
/// its first half untraced and its second half traced, same workload
/// and seed, and compares the two headline latencies.
pub const TRACE_OVERHEAD: Metric = layer(
    "generator.trace_overhead_frac",
    "ratio",
    Lower,
    "latency_p50_ms of the traced half of a traced run over its untraced \
     half, minus 1",
);

/// Every per-layer metric in `BENCHMARK.json` order.
pub fn per_layer() -> impl Iterator<Item = &'static Metric> {
    PER_LAYER.iter().chain(std::iter::once(&TRACE_OVERHEAD))
}

/// The `--list` text: workloads, then metrics, from this table.
pub fn listing() -> String {
    let mut out = String::from("workloads:\n");
    for w in &WORKLOADS {
        out.push_str(&format!("  {:<13} {}\n", w.name, w.why));
    }
    out.push_str("end-to-end metrics (--trace 0):\n");
    for m in &END_TO_END {
        out.push_str(&format!(
            "  {:<32} {:<6} {:<6} bound {:<5} {}\n",
            m.name,
            m.unit,
            m.better.name(),
            m.bound.unwrap_or_default(),
            m.note
        ));
    }
    out.push_str("per-layer metrics (--trace 1):\n");
    for m in per_layer() {
        out.push_str(&format!(
            "  {:<32} {:<6} {:<6} moves {}\n",
            m.name,
            m.unit,
            m.better.name(),
            m.note
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use uavnet_json::Json;

    fn manifest() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn strings(v: &Json) -> Vec<&str> {
        v.as_arr()
            .expect("array")
            .iter()
            .map(|s| s.as_str().expect("string"))
            .collect()
    }

    fn metric_rows(v: &Json) -> Vec<(String, String, String, Option<f64>)> {
        v.as_arr()
            .expect("metric array")
            .iter()
            .map(|m| {
                (
                    m.get("name").and_then(Json::as_str).unwrap().to_string(),
                    m.get("unit").and_then(Json::as_str).unwrap().to_string(),
                    m.get("better").and_then(Json::as_str).unwrap().to_string(),
                    m.get("bound").and_then(Json::as_f64),
                )
            })
            .collect()
    }

    fn table_rows<'a>(
        metrics: impl Iterator<Item = &'a Metric>,
    ) -> Vec<(String, String, String, Option<f64>)> {
        metrics
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.better.name().to_string(),
                    m.bound,
                )
            })
            .collect()
    }

    #[test]
    fn manifest_matches_the_table() {
        let json = manifest();
        let keys: Vec<&str> = json
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(
            json.get("run_seconds").and_then(Json::as_usize),
            Some(RUN_SECONDS as usize)
        );
        assert_eq!(strings(json.get("paths").unwrap()), ["benchmark"]);
        let command = strings(json.get("command").unwrap());
        assert!(command.contains(&"benchmark/Cargo.toml"), "{command:?}");
        let workloads: Vec<(&str, &str)> = json
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| {
                (
                    w.get("name").and_then(Json::as_str).unwrap(),
                    w.get("why").and_then(Json::as_str).unwrap(),
                )
            })
            .collect();
        let table: Vec<(&str, &str)> = WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
        assert_eq!(workloads, table);
        assert_eq!(
            metric_rows(json.get("end_to_end").unwrap()),
            table_rows(END_TO_END.iter())
        );
        assert_eq!(
            metric_rows(json.get("per_layer").unwrap()),
            table_rows(per_layer())
        );
    }

    #[test]
    fn pinned_scenario_parameters_match_the_stated_reasons() {
        for w in &WORKLOADS {
            let (side, users, uavs, s) = match w.load {
                Load::Plan(p) => {
                    let mut pool = p.pool.to_vec();
                    pool.sort_unstable();
                    pool.dedup();
                    assert!(pool.len() == p.pool.len() && !pool.is_empty());
                    assert!(p.setup_passes >= 2, "setup_s is a median of several");
                    (p.side_m, p.users, p.uavs, p.s)
                }
                Load::Stream(p) => {
                    assert!(w.why.contains(&format!("{}/s", p.rate_per_s)));
                    assert!(w.why.contains(&format!("every {}th", p.mix.fault_every)));
                    assert!(w
                        .why
                        .contains(&format!("{}% moves", p.mix.move_share * 100.0)));
                    (p.side_m, p.users, p.uavs, p.s)
                }
            };
            let m = ((side / CELL_M) as usize).pow(2);
            let stated = format!("n={users} K={uavs} m={m} s={s}");
            assert!(
                w.why.contains(&stated),
                "{}: {stated} not in {:?}",
                w.name,
                w.why
            );
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
            let spec = match w.load {
                Load::Plan(p) => scenario(p.side_m, p.users, p.uavs, p.capacity, 1),
                Load::Stream(p) => scenario(p.side_m, p.users, p.uavs, p.capacity, 1),
            }
            .expect("pinned parameters validate");
            assert_eq!((spec.num_users(), spec.num_uavs()), (users, uavs));
        }
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(per_layer())
            .map(|m| m.name)
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| (0.0..=0.25).contains(&b))));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        let widest = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(
            (setup.unit, setup.better, setup.bound),
            ("s", Lower, Some(widest))
        );
    }
}
