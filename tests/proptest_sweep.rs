//! Equivalence properties of the streaming subset sweep: on random
//! small scenarios, the streaming enumeration (first-member blocks
//! handed out by an atomic cursor, a gain memo per block, per-thread
//! workspaces, the stop at the first subset that saturates the fleet)
//! must reproduce the materialized reference sweep bit-for-bit — same
//! solution, same winning seeds, statistics related as verify oracle 2
//! demands — at every thread count. One ignored test runs oracle 2 on
//! the pinned scenarios of the benchmark's three planning workloads,
//! up to a million users (about 35 s in release on two cores):
//! `cargo test --release -q --test proptest_sweep -- --ignored`.

use proptest::prelude::*;
use uavnet::channel::UavRadio;
use uavnet::core::{approx_alg_with_stats, check_sweep_oracles, ApproxConfig, Instance};
use uavnet::geom::{AreaSpec, GridSpec, Point2};
use uavnet::workload::{ScenarioSpec, UserDistribution};

prop_compose! {
    fn instances()(
        seed_users in proptest::collection::vec((0.0f64..900.0, 0.0f64..900.0), 1..18),
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
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn streaming_sweep_matches_materialized_reference(
        instance in instances(),
        s in 1usize..=2,
    ) {
        let s = s.min(instance.num_uavs());
        for threads in [1usize, 2, 4, 8] {
            let config = ApproxConfig::with_s(s).threads(threads);
            if let Err(e) = check_sweep_oracles(&instance, &config) {
                prop_assert!(false, "{} threads: {}", threads, e);
            }
        }
    }

    #[test]
    fn streaming_sweep_is_identical_across_thread_counts(
        instance in instances(),
        s in 1usize..=2,
    ) {
        let s = s.min(instance.num_uavs());
        let mut runs = [1usize, 2, 4, 8].into_iter().map(|threads| {
            approx_alg_with_stats(&instance, &ApproxConfig::with_s(s).threads(threads)).unwrap()
        });
        let (first_sol, first_stats) = runs.next().unwrap();
        for (sol, stats) in runs {
            prop_assert_eq!(
                sol.deployment().placements(),
                first_sol.deployment().placements()
            );
            prop_assert_eq!(sol.served_users(), first_sol.served_users());
            prop_assert_eq!(stats.subsets_enumerated, first_stats.subsets_enumerated);
            prop_assert_eq!(stats.subsets_chain_pruned, first_stats.subsets_chain_pruned);
            prop_assert_eq!(stats.subsets_bound_pruned, first_stats.subsets_bound_pruned);
            prop_assert_eq!(stats.subsets_evaluated, first_stats.subsets_evaluated);
            prop_assert_eq!(stats.subsets_unconnectable, first_stats.subsets_unconnectable);
            prop_assert_eq!(stats.best_seeds.clone(), first_stats.best_seeds.clone());
            prop_assert_eq!(stats.gain_queries, first_stats.gain_queries);
            prop_assert_eq!(stats.kernel, first_stats.kernel);
        }
    }
}

/// Oracle 2 at benchmarked scale: the pinned scenarios of the
/// benchmark's planning workloads, built with the same `ScenarioSpec`
/// parameters — fat-tailed users (12 clusters, Zipf 1.2) on 300 m
/// cells — on 2 threads: `plan-paper` and `plan-large` at `s = 2`
/// (seeds 1–4), and `plan-xlarge`, a million users, at `s = 1` (seeds
/// 1–2). Seconds per scenario in release, hence ignored by default.
#[test]
#[ignore = "benchmark-scale scenarios; run in release with --ignored"]
fn sweep_matches_materialized_reference_on_benchmark_scenarios() {
    for (workload, side_m, users, uavs, (c_min, c_max), s, seeds) in [
        ("plan-paper", 3_000.0, 600, 20, (10, 60), 2, 1..=4u64),
        ("plan-large", 6_000.0, 100_000, 8, (50, 300), 2, 1..=4),
        ("plan-xlarge", 12_000.0, 1_000_000, 8, (50, 300), 1, 1..=2),
    ] {
        let config = ApproxConfig::with_s(s).threads(2);
        for seed in seeds {
            let instance = ScenarioSpec::builder()
                .area_m(side_m, side_m)
                .cell_m(300.0)
                .users(users)
                .distribution(UserDistribution::FatTailed {
                    clusters: 12,
                    zipf_exponent: 1.2,
                })
                .uavs(uavs)
                .capacity_range(c_min, c_max)
                .seed(seed)
                .build()
                .and_then(|spec| spec.instantiate())
                .expect("the pinned scenario builds");
            if let Err(e) = check_sweep_oracles(&instance, &config) {
                panic!("{workload} seed {seed}: {e}");
            }
            if workload == "plan-paper" {
                let stats = approx_alg_with_stats(&instance, &config).unwrap().1;
                assert!(
                    stats.kernel.gain_memo_hits > 0,
                    "{workload} seed {seed}: the gain memo answered nothing"
                );
            }
        }
    }
}
