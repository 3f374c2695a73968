//! Property tests over the scale layer: the spatial-index coverage
//! builder against the all-pairs reference, the compressed coverage
//! tables against their decode, in-place mobility and surge patches
//! against a fresh build, the connectivity substrate (precomputed hop
//! rows + canonical paths) against fresh per-call BFS, and the sweep's
//! invariance to its thread count.

use proptest::collection::vec;
use proptest::prelude::*;

use uavnet::channel::{AtgChannel, ChannelParams, Environment, UavRadio};
use uavnet::core::{
    approx_alg_with_stats, check_connection_substrate, ApproxConfig, Instance, User,
};
use uavnet::geom::{AreaSpec, GridSpec, Point2, Point3};
use uavnet::graph::{
    bfs_hops, connected_components, ConnectivitySubstrate, Graph, UNREACHABLE_HOPS,
};

/// A user's minimum-rate demand, resolved against an instance's
/// channel and radio classes by [`min_rate`].
#[derive(Debug, Clone, Copy)]
struct Demand {
    /// A 2 kbit/s voice call; otherwise a rate between one class's
    /// rates at `R_user` and overhead, above that class's rate floor,
    /// which only the exact channel decides.
    voice: bool,
    /// The class a non-voice demand is drawn against.
    class: usize,
    /// Where in that class's rate range a non-voice demand lies.
    t: f64,
}

prop_compose! {
    fn demands()(voice in 0u8..2, class in 0usize..2, t in 0.0f64..1.0) -> Demand {
        Demand { voice: voice == 1, class, t }
    }
}

prop_compose! {
    /// Channel parameters of one of the four environments, or of a
    /// channel whose rate does not fall with ground distance (high-rise
    /// with its excess losses swapped, so the rate rises toward the
    /// coverage edge; or urban with a negated S-curve slope), on which
    /// no class has a rate floor and every verdict is exact.
    fn channels()(shape in 0u8..6) -> ChannelParams {
        let mut b = ChannelParams::builder();
        match shape {
            0 => b.environment(Environment::Suburban),
            1 => b.environment(Environment::Urban),
            2 => b.environment(Environment::DenseUrban),
            3 => b.environment(Environment::Highrise),
            4 => b.environment(Environment::Highrise).excess_loss_db(34.0, 2.3),
            _ => b.s_curve(9.61, -0.16),
        };
        b.build()
    }
}

/// The minimum rate `demand` asks for, given the channel, the two
/// radio classes and the hovering altitude.
fn min_rate(atg: &AtgChannel, radios: [UavRadio; 2], altitude: f64, demand: Demand) -> f64 {
    if demand.voice {
        return 2_000.0;
    }
    let radio = radios[demand.class];
    let uav = Point3::new(0.0, 0.0, altitude);
    let edge = atg.data_rate_bps(&radio, uav, Point2::new(radio.user_range_m(), 0.0));
    let overhead = atg.data_rate_bps(&radio, uav, Point2::ORIGIN);
    edge.min(overhead) + demand.t * (edge - overhead).abs()
}

/// The two radio classes of an instance built by `instances()`: UAVs
/// alternate between them (a one-UAV fleet has only the first).
fn class_radios(instance: &Instance) -> [UavRadio; 2] {
    let uavs = instance.uavs();
    [uavs[0].radio, uavs[uavs.len().min(2) - 1].radio]
}

prop_compose! {
    /// Random small scenario whose UAVs alternate between two radio
    /// classes; some draws get a gateway so the gateway-extension arm
    /// of the substrate oracle is exercised. A third of the draws give
    /// every user 2 kbit/s, so the builder admits whole classes without
    /// reading users; the rest mix voice calls with demands inside a
    /// class's rate range.
    fn instances()(
        seed_users in vec((0.0f64..1_500.0, 0.0f64..1_500.0, demands()), 1..30),
        caps in vec(1u32..8, 1..5),
        uav_range in 320.0f64..700.0,
        user_range in 250.0f64..500.0,
        weak in (-40.0f64..30.0, 250.0f64..500.0),
        params in channels(),
        voice_only in 0u8..3,
        gateway in proptest::option::of((0.0f64..1_500.0, 0.0f64..1_500.0)),
    ) -> Instance {
        let grid = GridSpec::new(
            AreaSpec::new(1_500.0, 1_500.0, 500.0).unwrap(),
            300.0,
            300.0,
        )
        .unwrap()
        .build();
        let atg = AtgChannel::new(params);
        let radios = [UavRadio::new(30.0, 5.0, user_range), UavRadio::new(weak.0, 3.0, weak.1)];
        let mut b = Instance::builder(grid, uav_range);
        b.atg_channel(atg);
        for (x, y, demand) in seed_users {
            let rate = match voice_only {
                0 => 2_000.0,
                _ => min_rate(&atg, radios, 300.0, demand),
            };
            b.add_user(Point2::new(x, y), rate);
        }
        for (k, cap) in caps.into_iter().enumerate() {
            b.add_uav(cap, radios[k % 2]);
        }
        if let Some((gx, gy)) = gateway {
            b.gateway(Point2::new(gx, gy));
        }
        b.build().expect("valid instance")
    }
}

prop_compose! {
    /// A position in the 1 500 m zone of `instances()`; about half lie
    /// on an edge or a corner, where the range checks are inclusive.
    fn zone_points()(
        x in 0.0f64..1_500.0,
        y in 0.0f64..1_500.0,
        place in 0u8..10,
    ) -> Point2 {
        let snap = |v: f64| if v < 750.0 { 0.0 } else { 1_500.0 };
        match place {
            0 => Point2::new(0.0, y),
            1 => Point2::new(1_500.0, y),
            2 => Point2::new(x, 0.0),
            3 => Point2::new(x, 1_500.0),
            4 => Point2::new(snap(x), snap(y)),
            _ => Point2::new(x, y),
        }
    }
}

/// One mutation of a `patched_instance_equals_fresh_build` run.
#[derive(Debug, Clone)]
enum PatchStep {
    /// Raw ids (taken modulo the user count) and their new positions.
    Move(Vec<(u32, Point2)>),
    /// Users appended by a surge.
    Surge(Vec<(Point2, Demand)>),
}

prop_compose! {
    /// A move batch of 1–40 ids drawn with replacement (so ids repeat)
    /// or a surge of 1–10 users.
    fn patch_steps()(
        surge in 0u8..2,
        moves in vec((0u32..1_000, zone_points()), 1..41),
        extra in vec((zone_points(), demands()), 1..11),
    ) -> PatchStep {
        if surge == 1 {
            PatchStep::Surge(extra)
        } else {
            PatchStep::Move(moves)
        }
    }
}

/// A fresh build of `instance`'s users, fleet, channels and gateway.
fn fresh_build(instance: &Instance) -> Instance {
    let mut b = Instance::builder(instance.grid().clone(), instance.uav_channel().range_m());
    b.atg_channel(*instance.atg())
        .users(instance.users().iter().copied())
        .uavs(instance.uavs().iter().copied());
    if let Some(gw) = instance.gateway() {
        b.gateway(gw);
    }
    b.build().expect("a patched instance rebuilds")
}

prop_compose! {
    /// Random sparse-to-dense undirected graph, possibly disconnected.
    fn graphs()(n in 2usize..28)(
        n in Just(n),
        edges in vec((0usize..28, 0usize..28), 0..70),
    ) -> Graph {
        Graph::from_edges(
            n,
            edges
                .into_iter()
                .map(|(u, v)| (u % n, v % n))
                .filter(|&(u, v)| u != v),
        )
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Tentpole part 1: the grid-binned spatial index must build the
    /// exact coverage tables of the all-pairs scan — same sorted user
    /// ids for every (class, location) pair. Since `coverage_tables`
    /// now decodes the compressed store, this simultaneously pins that
    /// every ids/bitset entry decodes bit-identically to the
    /// brute-force list.
    #[test]
    fn spatial_coverage_tables_match_bruteforce(instance in instances()) {
        let brute = instance.coverage_tables_bruteforce();
        prop_assert_eq!(instance.coverage_tables(), &brute[..]);
        for per_loc in instance.coverage_tables() {
            for users in per_loc {
                prop_assert!(users.windows(2).all(|w| w[0] < w[1]), "unsorted/dup: {users:?}");
            }
        }
        // The compressed store must never report more bytes than the
        // plain Vec<Vec<u32>> layout it replaced, and its per-encoding
        // tallies must account for every list.
        let mem = instance.coverage_memory();
        prop_assert_eq!(mem.lists, mem.ids_lists + mem.bitset_lists);
        prop_assert!(
            mem.compressed_bytes <= mem.uncompressed_bytes,
            "compressed {} > uncompressed {}",
            mem.compressed_bytes,
            mem.uncompressed_bytes
        );
    }

    /// The sweep is invariant to its thread count: placements, served
    /// users, gain queries, kernel work, the subset counts and the best
    /// seeds at 2–4 threads equal the 1-thread run's. The name dates
    /// from the tile-sharded sweep this property used to compare
    /// against; that sweep is gone, and the name stays so the test's
    /// history remains traceable.
    #[test]
    fn sharded_sweep_invariant_to_tiling(
        instance in instances(),
        s in 1usize..3,
    ) {
        let s = s.min(instance.num_uavs());
        let solve = |threads| {
            approx_alg_with_stats(&instance, &ApproxConfig::with_s(s).threads(threads)).unwrap()
        };
        let (first, first_stats) = solve(1);
        for threads in 2..=4 {
            let (sol, stats) = solve(threads);
            prop_assert_eq!(sol.deployment().placements(), first.deployment().placements());
            prop_assert_eq!(sol.served_users(), first.served_users());
            prop_assert_eq!(stats.gain_queries, first_stats.gain_queries);
            prop_assert_eq!(stats.kernel, first_stats.kernel);
            prop_assert_eq!(stats.subsets_enumerated, first_stats.subsets_enumerated);
            prop_assert_eq!(stats.subsets_chain_pruned, first_stats.subsets_chain_pruned);
            prop_assert_eq!(stats.subsets_bound_pruned, first_stats.subsets_bound_pruned);
            prop_assert_eq!(stats.subsets_evaluated, first_stats.subsets_evaluated);
            prop_assert_eq!(stats.subsets_unconnectable, first_stats.subsets_unconnectable);
            prop_assert_eq!(&stats.best_seeds, &first_stats.best_seeds);
        }
    }

    /// Mobility and surge deltas patch only the coverage lists they
    /// can change; after every step the patched instance must equal a
    /// fresh build of the same users (decoded lists, encoded bytes,
    /// best coverage per cell, users and fingerprint) and the
    /// all-pairs exact-channel tables.
    #[test]
    fn patched_instance_equals_fresh_build(
        instance in instances(),
        steps in vec(patch_steps(), 1..5),
    ) {
        let mut patched = instance;
        for step in steps {
            patched = match step {
                PatchStep::Move(moves) => {
                    let n = patched.num_users() as u32;
                    let moves: Vec<(u32, Point2)> =
                        moves.into_iter().map(|(id, pos)| (id % n, pos)).collect();
                    patched.with_moved_users(&moves).unwrap()
                }
                PatchStep::Surge(points) => {
                    let (atg, radios) = (patched.atg(), class_radios(&patched));
                    let altitude = patched.grid().spec().altitude_m();
                    let extra: Vec<User> = points
                        .into_iter()
                        .map(|(pos, demand)| User {
                            pos,
                            min_rate_bps: min_rate(atg, radios, altitude, demand),
                        })
                        .collect();
                    patched.with_extra_users(&extra).unwrap()
                }
            };
            let fresh = fresh_build(&patched);
            prop_assert_eq!(patched.coverage_tables(), fresh.coverage_tables());
            // Both share the builder's predicate; the all-pairs scan
            // with the exact channel is the independent check.
            prop_assert_eq!(patched.coverage_tables(), patched.coverage_tables_bruteforce());
            prop_assert_eq!(patched.coverage_memory(), fresh.coverage_memory());
            for loc in 0..patched.num_locations() {
                prop_assert_eq!(patched.best_coverage_count(loc), fresh.best_coverage_count(loc));
            }
            prop_assert_eq!(patched.users(), fresh.users());
            prop_assert_eq!(patched.fingerprint(), fresh.fingerprint());
        }
    }

    /// Tentpole part 2: every substrate hop row equals a fresh BFS
    /// from that node, with `u16::MAX` standing in for `None`, and the
    /// component/reachability structures agree with
    /// [`connected_components`].
    #[test]
    fn substrate_hops_equal_fresh_bfs(g in graphs()) {
        let sub = ConnectivitySubstrate::build(&g).unwrap();
        let mut comp = vec![usize::MAX; g.num_nodes()];
        for (id, members) in connected_components(&g).iter().enumerate() {
            for &v in members {
                comp[v] = id;
            }
        }
        for u in 0..g.num_nodes() {
            let fresh = bfs_hops(&g, u);
            for v in 0..g.num_nodes() {
                let row = sub.hop_row(u)[v];
                let row = (row != UNREACHABLE_HOPS).then_some(u32::from(row));
                prop_assert_eq!(row, fresh[v], "hops {}->{}", u, v);
                prop_assert_eq!(sub.reachable(u, v), comp[u] == comp[v]);
            }
        }
    }

    /// End-to-end connection oracle on real location graphs: substrate
    /// relay selection and gateway extension must be bit-for-bit the
    /// brute-force BFS results (value *and* error cases).
    #[test]
    fn substrate_connection_equals_bruteforce(
        instance in instances(),
        raw_sets in vec(vec(0usize..64, 1..5), 1..4),
    ) {
        let m = instance.num_locations();
        let node_sets: Vec<Vec<usize>> = raw_sets
            .into_iter()
            .map(|s| {
                let mut s: Vec<usize> = s.into_iter().map(|v| v % m).collect();
                s.sort_unstable();
                s.dedup();
                s
            })
            .collect();
        check_connection_substrate(&instance, &node_sets).unwrap();
    }
}
