//! Benchmark harness regenerating every figure of the paper's
//! evaluation (§IV).
//!
//! The paper reports four results, each reproduced by a function here
//! and runnable through the `figures` binary:
//!
//! | id | paper | here |
//! |----|-------|------|
//! | FIG4 | served users vs `K = 2…20` (`n = 3000`, `s = 3`) | [`fig4`] |
//! | FIG5 | served users vs `n = 1000…3000` (`K = 20`, `s = 3`) | [`fig5`] |
//! | FIG6A | served users vs `s = 1…4` (`n = 3000`, `K = 20`) | [`fig6`] |
//! | FIG6B | running time vs `s = 1…4` | [`fig6`] (timed) |
//!
//! Absolute numbers are not expected to match the authors' testbed;
//! the *shape* — who wins, by roughly what factor, where the curves
//! bend — is the reproduction target (see EXPERIMENTS.md). The
//! [`Scale`] type trades grid resolution and user counts for runtime;
//! `Scale::paper()` uses the published parameters verbatim.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod report;

use std::time::Instant;
use uavnet_baselines::{
    DeploymentAlgorithm, GreedyAssign, MaxThroughput, Mcs, MotionCtrl, RandomConnected,
};
use uavnet_core::{
    approx_alg, ApproxConfig, CoreError, Instance, LoopConfig, SeedStrategyKind, Solution,
    DEFAULT_BEAM_WIDTH,
};
use uavnet_workload::{MobilityModel, MobilitySimulator, ScenarioSpec, UserDistribution};

/// `approAlg` wrapped as a [`DeploymentAlgorithm`], clamping `s` to
/// the fleet size (the paper plots `K = 2` with `s = 3`, which only
/// makes sense as `s = min(s, K)`).
#[derive(Debug, Clone, Copy)]
pub struct Appro {
    /// The seed-subset size `s`.
    pub s: usize,
    /// Worker threads for the subset sweep.
    pub threads: usize,
}

impl DeploymentAlgorithm for Appro {
    fn name(&self) -> &'static str {
        "approAlg"
    }

    fn deploy(&self, instance: &Instance) -> Result<Solution, CoreError> {
        let s = self.s.min(instance.num_uavs());
        approx_alg(instance, &ApproxConfig::with_s(s).threads(self.threads))
    }
}

/// Experiment scale: geometry resolution and sweep ranges.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Human-readable label printed in table headers.
    pub name: &'static str,
    /// Zone side length in meters (square zone).
    pub area_side_m: f64,
    /// Grid cell side `λ` in meters.
    pub cell_m: f64,
    /// User counts for the FIG5 sweep; its maximum is FIG4/FIG6's `n`.
    pub n_sweep: Vec<usize>,
    /// Fleet sizes for the FIG4 sweep; its maximum is FIG5/FIG6's `K`.
    pub k_sweep: Vec<usize>,
    /// Seed counts for the FIG6 sweep.
    pub s_sweep: Vec<usize>,
    /// The `s` used by `approAlg` in FIG4/FIG5.
    pub s_default: usize,
    /// Scenario repetitions per point in FIG4/FIG5 (served counts are
    /// averaged); FIG6 always uses one trial because it reports
    /// wall-clock times.
    pub trials: usize,
    /// RNG seed for scenario generation.
    pub seed: u64,
    /// Default measured repetitions for the `sweep_report` evidence
    /// run (overridable with its `--reps` flag). Scales dominated by
    /// instance construction keep this low so a full regeneration
    /// stays interactive.
    pub reps: u32,
    /// Seed-strategy comparison matrix for the BENCH_sweep.json
    /// `strategy` section: `(s, strategies)` rows, each running every
    /// listed strategy on the same instance so speedups and served
    /// ratios are apples-to-apples. Kept separate from `s_sweep` (the
    /// exhaustive wall-time evidence) because guided strategies unlock
    /// `s` values the exhaustive sweep cannot finish.
    pub strategy_sweep: Vec<(usize, Vec<SeedStrategyKind>)>,
}

impl Scale {
    /// Tiny scale for CI and Criterion micro-runs (seconds).
    pub fn quick() -> Self {
        Scale {
            name: "quick",
            area_side_m: 1_500.0,
            cell_m: 300.0,
            n_sweep: vec![40, 80, 120],
            k_sweep: vec![2, 4, 6],
            s_sweep: vec![1, 2],
            s_default: 2,
            trials: 2,
            seed: 1,
            reps: 20,
            strategy_sweep: vec![(
                2,
                vec![
                    SeedStrategyKind::Exhaustive,
                    SeedStrategyKind::Beam {
                        width: DEFAULT_BEAM_WIDTH,
                    },
                ],
            )],
        }
    }

    /// Laptop scale (default of the `figures` binary): the paper's
    /// 3 km × 3 km zone and capacity range, with a 300 m grid
    /// (`m = 100` candidates instead of 3 600) and a 5× reduced user
    /// population, preserving the users-per-capacity ratio trends.
    pub fn laptop() -> Self {
        Scale {
            name: "laptop",
            area_side_m: 3_000.0,
            cell_m: 300.0,
            n_sweep: vec![200, 300, 400, 500, 600],
            k_sweep: vec![2, 4, 6, 8, 10, 12, 14, 16, 18, 20],
            s_sweep: vec![1, 2, 3],
            s_default: 3,
            trials: 3,
            seed: 20_230_101,
            reps: 5,
            strategy_sweep: Vec::new(),
        }
    }

    /// Stress scale for the instance-construction and connectivity
    /// layers: 100 000 users on a 6 km × 6 km zone (m = 400
    /// candidates). Only feasible because the coverage tables are
    /// built through the grid-binned spatial index — the all-pairs
    /// scan is quadratic in `users × locations` at this size. One
    /// `s = 1` sweep point; used by the `sweep_report --scale large`
    /// evidence run.
    pub fn large() -> Self {
        Scale {
            name: "large",
            area_side_m: 6_000.0,
            cell_m: 300.0,
            n_sweep: vec![100_000],
            k_sweep: vec![8],
            s_sweep: vec![1],
            s_default: 1,
            trials: 1,
            seed: 7,
            reps: 2,
            strategy_sweep: vec![
                (2, vec![SeedStrategyKind::Exhaustive]),
                (
                    3,
                    vec![SeedStrategyKind::Beam {
                        width: DEFAULT_BEAM_WIDTH,
                    }],
                ),
            ],
        }
    }

    /// The scale ceiling: one million users on a 12 km × 12 km zone
    /// (m = 1 600 candidates). Exists to exercise the compressed
    /// coverage tables (packed bitsets keep the footprint O(users))
    /// and a sweep whose matching spans a million users. Used by the
    /// `sweep_report --scale xlarge` evidence run.
    pub fn xlarge() -> Self {
        Scale {
            name: "xlarge",
            area_side_m: 12_000.0,
            cell_m: 300.0,
            n_sweep: vec![1_000_000],
            k_sweep: vec![8],
            s_sweep: vec![1],
            s_default: 1,
            trials: 1,
            seed: 11,
            reps: 1,
            strategy_sweep: Vec::new(),
        }
    }

    /// The paper's published parameters (λ = 50 m ⇒ m = 3 600
    /// candidates, n up to 3 000). `approAlg` with `s ≥ 2` at this
    /// scale reproduces the paper's own 95 s – 47 min runtimes and
    /// beyond; reserve for overnight runs.
    pub fn paper() -> Self {
        Scale {
            name: "paper",
            area_side_m: 3_000.0,
            cell_m: 50.0,
            n_sweep: vec![1_000, 1_500, 2_000, 2_500, 3_000],
            k_sweep: vec![2, 4, 6, 8, 10, 12, 14, 16, 18, 20],
            s_sweep: vec![1, 2, 3, 4],
            s_default: 3,
            trials: 1,
            seed: 20_230_101,
            reps: 1,
            strategy_sweep: Vec::new(),
        }
    }

    /// The report scale called `name`: `quick`, `large` or `xlarge`.
    pub fn named(name: &str) -> Option<Scale> {
        match name {
            "quick" => Some(Scale::quick()),
            "large" => Some(Scale::large()),
            "xlarge" => Some(Scale::xlarge()),
            _ => None,
        }
    }

    /// The incremental-loop configuration the resolve and service
    /// reports run at this scale: `s = 1` cold solves on `threads`
    /// threads. Quick's 5×5 grid fits one tile per station
    /// neighborhood at side 2; larger grids keep the default 16-cell
    /// tiles.
    pub fn loop_config(&self, threads: usize) -> LoopConfig {
        let mut config = LoopConfig::new(ApproxConfig::with_s(1).threads(threads));
        if self.name == "quick" {
            config.tile_cells = 2;
        }
        config
    }

    /// Builds the instance for `n` users and `k` UAVs at this scale.
    ///
    /// # Panics
    ///
    /// Panics if the scale parameters are inconsistent (programmer
    /// error in a hand-built scale).
    pub fn instance(&self, n: usize, k: usize) -> Instance {
        self.instance_for_trial(n, k, 0)
    }

    /// Like [`Scale::instance`] with a per-trial seed offset.
    pub fn instance_for_trial(&self, n: usize, k: usize, trial: u64) -> Instance {
        ScenarioSpec::builder()
            .area_m(self.area_side_m, self.area_side_m)
            .cell_m(self.cell_m)
            .users(n)
            .distribution(UserDistribution::FatTailed {
                clusters: 12,
                zipf_exponent: 1.2,
            })
            .uavs(k)
            .capacity_range(self.capacity_range().0, self.capacity_range().1)
            .seed(self.seed.wrapping_add(trial * 1_000_003))
            .build()
            .expect("scale parameters are valid")
            .instantiate()
            .expect("scenario instantiates")
    }

    /// The capacity range, scaled with the user population so that
    /// fleet capacity stays meaningfully scarce (the paper's
    /// `[50, 300]` is calibrated for 1 000–3 000 users).
    pub fn capacity_range(&self) -> (u32, u32) {
        let n_max = *self.n_sweep.last().expect("non-empty sweep") as f64;
        let scale = (n_max / 3_000.0).min(1.0);
        (
            ((50.0 * scale).round() as u32).max(2),
            ((300.0 * scale).round() as u32).max(10),
        )
    }

    /// The largest `n` (used by FIG4/FIG6).
    pub fn n_max(&self) -> usize {
        *self.n_sweep.last().expect("non-empty sweep")
    }

    /// The largest `K` (used by FIG5/FIG6).
    pub fn k_max(&self) -> usize {
        *self.k_sweep.last().expect("non-empty sweep")
    }
}

/// Per-step Gaussian displacement (m) of the reports' mobility
/// streams.
pub const MOBILITY_SIGMA_M: f64 = 25.0;

/// Moves shorter than this (m) are dropped from a mobility batch as
/// jitter: pass it to [`MobilitySimulator::step_deltas`].
pub const MOBILITY_THRESHOLD_M: f64 = 5.0;

/// The mobility stream the resolve and service reports drive: a
/// Gaussian walk ([`MOBILITY_SIGMA_M`]) of `instance`'s users.
pub fn mobility(instance: &Instance, seed: u64) -> MobilitySimulator {
    MobilitySimulator::new(
        instance.grid().spec().area(),
        instance.users().iter().map(|u| u.pos).collect(),
        MobilityModel::GaussianWalk {
            sigma_m: MOBILITY_SIGMA_M,
        },
        seed,
    )
}

/// One measurement: an algorithm's served users and wall-clock time.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Algorithm display name.
    pub algorithm: &'static str,
    /// Users served by the scored solution.
    pub served: usize,
    /// Wall-clock seconds of the deploy call.
    pub seconds: f64,
}

/// One x-axis point of a figure: the swept value and one measurement
/// per algorithm.
#[derive(Debug, Clone)]
pub struct SeriesPoint {
    /// The swept parameter value (`K`, `n`, or `s`).
    pub x: usize,
    /// Measurements, in the algorithm order of [`algorithm_set`].
    pub measurements: Vec<Measurement>,
}

/// The five algorithms of the paper's evaluation, `approAlg` first,
/// plus the random control at the end.
pub fn algorithm_set(s: usize, threads: usize) -> Vec<Box<dyn DeploymentAlgorithm>> {
    vec![
        Box::new(Appro { s, threads }),
        Box::new(MaxThroughput),
        Box::new(Mcs),
        Box::new(GreedyAssign),
        Box::new(MotionCtrl::default()),
        Box::new(RandomConnected::new(7)),
    ]
}

fn measure(algo: &dyn DeploymentAlgorithm, instance: &Instance) -> Measurement {
    let start = Instant::now();
    let solution = algo
        .deploy(instance)
        .unwrap_or_else(|e| panic!("{} failed: {e}", algo.name()));
    let seconds = start.elapsed().as_secs_f64();
    solution
        .validate(instance)
        .unwrap_or_else(|e| panic!("{} produced an invalid solution: {e}", algo.name()));
    Measurement {
        algorithm: algo.name(),
        served: solution.served_users(),
        seconds,
    }
}

/// Averages one sweep point over the scale's trial count.
fn averaged_point(scale: &Scale, x: usize, n: usize, k: usize, threads: usize) -> SeriesPoint {
    let trials = scale.trials.max(1);
    let mut sums: Vec<Measurement> = Vec::new();
    for t in 0..trials {
        let instance = scale.instance_for_trial(n, k, t as u64);
        let algos = algorithm_set(scale.s_default, threads);
        for (i, a) in algos.iter().enumerate() {
            let m = measure(a.as_ref(), &instance);
            if t == 0 {
                sums.push(m);
            } else {
                sums[i].served += m.served;
                sums[i].seconds += m.seconds;
            }
        }
    }
    for m in &mut sums {
        m.served = (m.served as f64 / trials as f64).round() as usize;
        m.seconds /= trials as f64;
    }
    SeriesPoint {
        x,
        measurements: sums,
    }
}

/// FIG4: served users vs the number of UAVs `K` (averaged over the
/// scale's trials).
pub fn fig4(scale: &Scale, threads: usize) -> Vec<SeriesPoint> {
    let n = scale.n_max();
    scale
        .k_sweep
        .iter()
        .map(|&k| averaged_point(scale, k, n, k, threads))
        .collect()
}

/// FIG5: served users vs the number of users `n` (averaged over the
/// scale's trials).
pub fn fig5(scale: &Scale, threads: usize) -> Vec<SeriesPoint> {
    let k = scale.k_max();
    scale
        .n_sweep
        .iter()
        .map(|&n| averaged_point(scale, n, n, k, threads))
        .collect()
}

/// FIG6(a) + FIG6(b): served users *and* running time vs the seed
/// count `s` (baselines are `s`-independent; their rows repeat so the
/// table mirrors the paper's plot).
pub fn fig6(scale: &Scale, threads: usize) -> Vec<SeriesPoint> {
    let n = scale.n_max();
    let k = scale.k_max();
    let instance = scale.instance(n, k);
    scale
        .s_sweep
        .iter()
        .map(|&s| {
            let algos = algorithm_set(s, threads);
            SeriesPoint {
                x: s,
                measurements: algos
                    .iter()
                    .map(|a| measure(a.as_ref(), &instance))
                    .collect(),
            }
        })
        .collect()
}

/// One row of the ablation study: a configuration label with its
/// outcome.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Configuration label.
    pub label: &'static str,
    /// Users served.
    pub served: usize,
    /// Wall-clock seconds.
    pub seconds: f64,
    /// Seed subsets fully evaluated.
    pub subsets: usize,
}

/// Ablation study over `approAlg`'s engineering choices (DESIGN.md):
/// chain pruning, empty-seed pruning and the leftover-deployment
/// pass, each toggled against the default, plus the literal paper
/// configuration (everything off). Runs at `(n_max, k_max)` of the
/// scale with the given `s`.
pub fn ablation(scale: &Scale, s: usize, threads: usize) -> Vec<AblationRow> {
    use uavnet_core::approx_alg_with_stats;
    let instance = scale.instance(scale.n_max(), scale.k_max());
    let configs: Vec<(&'static str, ApproxConfig)> = vec![
        ("default", ApproxConfig::with_s(s)),
        (
            "no chain pruning",
            ApproxConfig::with_s(s).prune_chain(false),
        ),
        (
            "no empty-seed pruning",
            ApproxConfig::with_s(s).prune_empty_seeds(false),
        ),
        (
            "no leftover pass",
            ApproxConfig::with_s(s).leftover_deployment(false),
        ),
        (
            "literal paper",
            ApproxConfig::with_s(s)
                .prune_chain(false)
                .prune_empty_seeds(false)
                .leftover_deployment(false),
        ),
    ];
    configs
        .into_iter()
        .map(|(label, config)| {
            let config = config.threads(threads);
            let start = Instant::now();
            let (sol, stats) =
                approx_alg_with_stats(&instance, &config).expect("ablation config solves");
            let seconds = start.elapsed().as_secs_f64();
            sol.validate(&instance).expect("ablation solution valid");
            AblationRow {
                label,
                served: sol.served_users(),
                seconds,
                subsets: stats.subsets_evaluated,
            }
        })
        .collect()
}

/// Renders the ablation rows as a markdown-style table.
pub fn render_ablation_table(title: &str, rows: &[AblationRow]) -> String {
    let mut out =
        format!("## {title}\n\n| configuration | served | time | subsets |\n|---|---|---|---|\n");
    for r in rows {
        out.push_str(&format!(
            "| {} | {} | {:.3}s | {} |\n",
            r.label, r.served, r.seconds, r.subsets
        ));
    }
    out
}

/// Renders a series as a markdown-style table of served users.
pub fn render_served_table(title: &str, x_label: &str, points: &[SeriesPoint]) -> String {
    render_table(title, x_label, points, |m| m.served.to_string())
}

/// Renders a series as a markdown-style table of running times.
pub fn render_time_table(title: &str, x_label: &str, points: &[SeriesPoint]) -> String {
    render_table(title, x_label, points, |m| format!("{:.3}s", m.seconds))
}

/// Renders a series as CSV: one row per x value, one column per
/// algorithm, served counts and seconds interleaved
/// (`<name>_served,<name>_s`).
pub fn render_csv(x_label: &str, points: &[SeriesPoint]) -> String {
    let mut out = String::new();
    let Some(first) = points.first() else {
        return out;
    };
    out.push_str(x_label);
    for m in &first.measurements {
        out.push_str(&format!(",{0}_served,{0}_s", m.algorithm));
    }
    out.push('\n');
    for p in points {
        out.push_str(&p.x.to_string());
        for m in &p.measurements {
            out.push_str(&format!(",{},{:.6}", m.served, m.seconds));
        }
        out.push('\n');
    }
    out
}

fn render_table(
    title: &str,
    x_label: &str,
    points: &[SeriesPoint],
    cell: impl Fn(&Measurement) -> String,
) -> String {
    let mut out = String::new();
    out.push_str(&format!("## {title}\n\n"));
    if points.is_empty() {
        out.push_str("(no data)\n");
        return out;
    }
    let names: Vec<&str> = points[0].measurements.iter().map(|m| m.algorithm).collect();
    out.push_str(&format!("| {x_label} |"));
    for n in &names {
        out.push_str(&format!(" {n} |"));
    }
    out.push('\n');
    out.push_str(&format!("|{}", "---|".repeat(names.len() + 1)));
    out.push('\n');
    for p in points {
        out.push_str(&format!("| {} |", p.x));
        for m in &p.measurements {
            out.push_str(&format!(" {} |", cell(m)));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_scale_fig4_runs_and_orders_sanely() {
        let scale = Scale::quick();
        let points = fig4(&scale, 2);
        assert_eq!(points.len(), scale.k_sweep.len());
        // The quick workload is capacity-saturated (every algorithm
        // ties at K = 2 and K = 4), so outranking the random control
        // per point is tie-break luck, not signal. The meaningful
        // shape check: approAlg stays within 95% of the best baseline
        // at every point despite paying for connectivity and relays.
        for p in &points {
            assert_eq!(p.measurements.len(), 6);
            let appro = p.measurements[0].served;
            let best = p.measurements.iter().map(|m| m.served).max().unwrap();
            assert!(
                appro * 20 >= best * 19,
                "K={}: approAlg {appro} below 95% of best {best}",
                p.x
            );
        }
        // More UAVs never hurt approAlg on this workload.
        let first = points.first().unwrap().measurements[0].served;
        let last = points.last().unwrap().measurements[0].served;
        assert!(last >= first);
    }

    #[test]
    fn quick_scale_fig5_grows_with_n() {
        let scale = Scale::quick();
        let points = fig5(&scale, 2);
        let served: Vec<usize> = points.iter().map(|p| p.measurements[0].served).collect();
        // Each n draws a fresh scenario, so adjacent points can dip;
        // the trend across the sweep must still be growth.
        assert!(
            served.last().unwrap() > served.first().unwrap(),
            "{served:?}"
        );
    }

    #[test]
    fn quick_scale_fig6_s_improves_or_holds() {
        let scale = Scale::quick();
        let points = fig6(&scale, 2);
        assert_eq!(points.len(), scale.s_sweep.len());
        for p in &points {
            assert!(p.measurements[0].seconds >= 0.0);
        }
    }

    #[test]
    fn tables_render_all_columns() {
        let points = vec![SeriesPoint {
            x: 4,
            measurements: vec![
                Measurement {
                    algorithm: "approAlg",
                    served: 10,
                    seconds: 0.5,
                },
                Measurement {
                    algorithm: "MCS",
                    served: 8,
                    seconds: 0.1,
                },
            ],
        }];
        let t = render_served_table("Fig 4", "K", &points);
        assert!(t.contains("approAlg"));
        assert!(t.contains("| 4 | 10 | 8 |"));
        let t = render_time_table("Fig 6b", "s", &points);
        assert!(t.contains("0.500s"));
    }

    #[test]
    fn csv_has_header_and_rows() {
        let points = vec![
            SeriesPoint {
                x: 2,
                measurements: vec![Measurement {
                    algorithm: "approAlg",
                    served: 7,
                    seconds: 0.25,
                }],
            },
            SeriesPoint {
                x: 4,
                measurements: vec![Measurement {
                    algorithm: "approAlg",
                    served: 9,
                    seconds: 0.5,
                }],
            },
        ];
        let csv = render_csv("K", &points);
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some("K,approAlg_served,approAlg_s"));
        assert_eq!(lines.next(), Some("2,7,0.250000"));
        assert_eq!(lines.next(), Some("4,9,0.500000"));
        assert!(render_csv("K", &[]).is_empty());
    }

    #[test]
    fn ablation_rows_cover_all_configurations() {
        let scale = Scale::quick();
        let rows = ablation(&scale, 1, 2);
        assert_eq!(rows.len(), 5);
        let default = rows.iter().find(|r| r.label == "default").unwrap();
        let literal = rows.iter().find(|r| r.label == "literal paper").unwrap();
        // Pruning can only shrink the evaluated enumeration.
        assert!(default.subsets <= literal.subsets);
        // The leftover pass only adds served users relative to the
        // same sweep without it.
        let no_leftover = rows.iter().find(|r| r.label == "no leftover pass").unwrap();
        assert!(default.served >= no_leftover.served);
    }

    #[test]
    fn capacity_range_scales_with_population() {
        let quick = Scale::quick();
        let (lo, hi) = quick.capacity_range();
        assert!(lo >= 2 && hi <= 300 && lo < hi);
        let paper = Scale::paper();
        assert_eq!(paper.capacity_range(), (50, 300));
    }

    #[test]
    fn large_scale_meets_the_stress_floor() {
        let large = Scale::large();
        assert!(large.n_max() >= 100_000);
        // Population beyond the paper's calibration point keeps the
        // full capacity range.
        assert_eq!(large.capacity_range(), (50, 300));
        assert_eq!(large.s_sweep, vec![1]);
    }

    #[test]
    fn xlarge_scale_meets_the_million_user_floor() {
        let xl = Scale::xlarge();
        assert_eq!(xl.n_max(), 1_000_000);
        assert_eq!(xl.reps, 1);
        assert_eq!(xl.capacity_range(), (50, 300));
        // 12 km at 300 m cells: 40 × 40 candidate grid.
        let cells = (xl.area_side_m / xl.cell_m) as usize;
        assert_eq!(cells * cells, 1_600);
    }
}
