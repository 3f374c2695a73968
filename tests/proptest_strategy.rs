//! Properties of the pluggable seed-search strategies: on random
//! small scenarios, every [`SeedStrategyKind`] must be deterministic
//! and thread-count invariant — the exhaustive sweep's bound-pruned
//! counter and kernel counts included, since its join keeps exactly
//! the work at or below the final watermark however the workers raced —
//! the exhaustive sweep must reproduce the materialized reference sweep
//! bit-for-bit (it skips only ranks above the first subset that serves
//! `min(Σ C_k, n)`, which cannot win), it may skip ranks only behind
//! such a subset, and the strategy-quality differential oracle must
//! accept every strategy the solver ships.

use proptest::prelude::*;
use uavnet::channel::UavRadio;
use uavnet::core::{
    approx_alg_materialized, approx_alg_with_stats, check_strategy_quality, ApproxConfig, Instance,
    SeedStrategyKind, DEFAULT_BEAM_WIDTH,
};
use uavnet::geom::{AreaSpec, GridSpec, Point2};

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

fn all_strategies() -> [SeedStrategyKind; 2] {
    [
        SeedStrategyKind::Exhaustive,
        SeedStrategyKind::Beam {
            width: DEFAULT_BEAM_WIDTH,
        },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn every_strategy_is_identical_across_thread_counts(
        instance in instances(),
        s in 1usize..=2,
    ) {
        let s = s.min(instance.num_uavs());
        for strategy in all_strategies() {
            let mut runs = [1usize, 2, 4, 8].into_iter().map(|threads| {
                let config = ApproxConfig::with_s(s)
                    .threads(threads)
                    .seed_strategy(strategy);
                approx_alg_with_stats(&instance, &config).unwrap()
            });
            let (first_sol, first_stats) = runs.next().unwrap();
            for (sol, stats) in runs {
                prop_assert_eq!(
                    sol.deployment().placements(),
                    first_sol.deployment().placements(),
                    "strategy {} placement depends on thread count",
                    strategy
                );
                prop_assert_eq!(sol.served_users(), first_sol.served_users());
                prop_assert_eq!(stats.subsets_enumerated, first_stats.subsets_enumerated);
                prop_assert_eq!(stats.subsets_chain_pruned, first_stats.subsets_chain_pruned);
                prop_assert_eq!(stats.subsets_bound_pruned, first_stats.subsets_bound_pruned);
                prop_assert_eq!(stats.subsets_evaluated, first_stats.subsets_evaluated);
                prop_assert_eq!(stats.subsets_unconnectable, first_stats.subsets_unconnectable);
                prop_assert_eq!(stats.gain_queries, first_stats.gain_queries);
                prop_assert_eq!(stats.kernel, first_stats.kernel);
                prop_assert_eq!(stats.best_seeds.clone(), first_stats.best_seeds.clone());
            }
        }
    }

    #[test]
    fn exhaustive_matches_materialized_bit_for_bit(
        instance in instances(),
        s in 1usize..=2,
        threads in 1usize..=4,
    ) {
        let s = s.min(instance.num_uavs());
        let config = ApproxConfig::with_s(s).threads(threads);
        let (sol, stats) = approx_alg_with_stats(&instance, &config).unwrap();
        let (ref_sol, ref_stats) = approx_alg_materialized(&instance, &config).unwrap();

        prop_assert_eq!(
            sol.deployment().placements(),
            ref_sol.deployment().placements()
        );
        prop_assert_eq!(sol.served_users(), ref_sol.served_users());
        prop_assert_eq!(stats.best_seeds.clone(), ref_stats.best_seeds.clone());
        // The sweep sees the same subset universe, and every rank it
        // skips above the watermark is counted (bound-pruned), never
        // lost: the accounting identity covers the whole universe for
        // both.
        prop_assert_eq!(stats.subsets_enumerated, ref_stats.subsets_enumerated);
        prop_assert_eq!(ref_stats.subsets_bound_pruned, 0);
        prop_assert_eq!(
            stats.subsets_evaluated + stats.subsets_bound_pruned + stats.subsets_chain_pruned,
            ref_stats.subsets_evaluated + ref_stats.subsets_chain_pruned
        );
        prop_assert!(stats.subsets_evaluated <= ref_stats.subsets_evaluated);
    }

    #[test]
    fn quality_oracle_accepts_every_shipped_strategy(
        instance in instances(),
        s in 1usize..=2,
    ) {
        let s = s.min(instance.num_uavs());
        let config = ApproxConfig::with_s(s).threads(2);
        check_strategy_quality(&instance, &config).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The exhaustive sweep skips a rank without a chain check only
    /// above its watermark: behind a subset that already serves every
    /// user the fleet can hold, `min(Σ C_k, n)`. Any skip must therefore
    /// come with a solution at that ceiling.
    #[test]
    fn skipped_ranks_imply_a_saturated_fleet(
        instance in instances(),
        s in 1usize..=2,
    ) {
        let s = s.min(instance.num_uavs());
        let config = ApproxConfig::with_s(s).threads(2);
        let (sol, stats) = approx_alg_with_stats(&instance, &config).unwrap();
        let capacity: usize = instance.uavs().iter().map(|u| u.capacity as usize).sum();
        let ceiling = capacity.min(instance.num_users());
        if stats.subsets_bound_pruned > 0 {
            prop_assert_eq!(
                sol.served_users(),
                ceiling,
                "skipped {} below the ceiling",
                stats.subsets_bound_pruned
            );
        }
    }
}
