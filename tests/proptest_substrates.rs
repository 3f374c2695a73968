//! Property-based tests over the substrate crates: flows, matchings,
//! matroids, MSTs and hop metrics.

use proptest::collection::vec;
use proptest::prelude::*;

use uavnet::flow::{CapacitatedMatching, FlowNetwork, UserList};
use uavnet::graph::{bfs_hops, hop_distance, prim_mst, Graph, UnionFind};
use uavnet::matroid::{check_axioms_exhaustive, Matroid, NestedFamilyMatroid, PartitionMatroid};

/// Builds the assignment flow network and returns its max flow.
fn flow_value(num_users: usize, stations: &[(u32, Vec<u32>)]) -> i64 {
    let k = stations.len();
    let source = 0;
    let sink = 1 + num_users + k;
    let mut net = FlowNetwork::new(sink + 1);
    for u in 0..num_users {
        net.add_arc(source, 1 + u, 1);
    }
    for (i, (cap, users)) in stations.iter().enumerate() {
        let st = 1 + num_users + i;
        for &u in users {
            net.add_arc(1 + u as usize, st, 1);
        }
        net.add_arc(st, sink, i64::from(*cap));
    }
    net.max_flow(source, sink)
}

/// [`CapacitatedMatching::solve`] over plain id lists.
fn solve_ids(num_users: usize, stations: &[(u32, Vec<u32>)]) -> CapacitatedMatching {
    CapacitatedMatching::solve(
        num_users,
        stations
            .iter()
            .map(|(cap, users)| (*cap, UserList::Ids(users))),
    )
}

prop_compose! {
    fn station_instances()(num_users in 1usize..15)(
        num_users in Just(num_users),
        stations in vec(
            (0u32..5, vec(0u32..15, 0..10)),
            0..6
        )
    ) -> (usize, Vec<(u32, Vec<u32>)>) {
        let stations = stations
            .into_iter()
            .map(|(cap, users)| {
                let mut users: Vec<u32> = users
                    .into_iter()
                    .map(|u| u % num_users as u32)
                    .collect();
                users.sort_unstable();
                users.dedup();
                (cap, users)
            })
            .collect();
        (num_users, stations)
    }
}

proptest! {
    #[test]
    fn matching_cardinality_equals_max_flow((num_users, stations) in station_instances()) {
        let matching = solve_ids(num_users, &stations);
        let flow = flow_value(num_users, &stations);
        prop_assert_eq!(matching.matched_count() as i64, flow);
    }

    #[test]
    fn matching_respects_capacity_and_coverage((num_users, stations) in station_instances()) {
        let matching = solve_ids(num_users, &stations);
        let mut loads = vec![0u32; stations.len()];
        for (user, st) in matching.assignment().enumerate() {
            if let Some(st) = st {
                prop_assert!(stations[st].1.contains(&(user as u32)));
                loads[st] += 1;
            }
        }
        for (st, &load) in loads.iter().enumerate() {
            prop_assert!(load <= stations[st].0);
        }
    }

    #[test]
    fn evaluate_station_is_a_pure_query(
        (num_users, stations) in station_instances(),
        cap in 0u32..5,
        probe in vec(0u32..15, 0..10)
    ) {
        let mut matching = solve_ids(num_users, &stations);
        let probe: Vec<u32> = {
            let mut p: Vec<u32> = probe.into_iter().map(|u| u % num_users as u32).collect();
            p.sort_unstable();
            p.dedup();
            p
        };
        let before: Vec<_> = matching.assignment().collect();
        let matched_before = matching.matched_count();
        let g1 = matching.evaluate_station(cap, &probe);
        let g2 = matching.evaluate_station(cap, &probe);
        prop_assert_eq!(g1, g2);
        prop_assert_eq!(matching.assignment().collect::<Vec<_>>(), before);
        prop_assert_eq!(matching.matched_count(), matched_before);
    }

    #[test]
    fn nested_matroid_satisfies_axioms(
        depths in vec(proptest::option::of(0usize..3), 1..8),
        q0 in 0usize..8,
        q1 in 0usize..5,
        q2 in 0usize..3,
    ) {
        let m = NestedFamilyMatroid::new(depths, vec![q0, q1, q2]);
        prop_assert!(check_axioms_exhaustive(&m).is_ok());
    }

    #[test]
    fn partition_matroid_satisfies_axioms(
        parts in vec(0usize..3, 1..8),
        budgets in vec(0usize..4, 3..4),
    ) {
        let m = PartitionMatroid::new(parts, budgets);
        prop_assert!(check_axioms_exhaustive(&m).is_ok());
    }

    #[test]
    fn matroid_can_extend_consistent_with_independence(
        depths in vec(proptest::option::of(0usize..3), 1..8),
        q in vec(0usize..6, 3..4),
        set_bits in 0usize..256,
        e in 0usize..8,
    ) {
        let m = NestedFamilyMatroid::new(depths.clone(), q);
        let n = depths.len();
        let e = e % n;
        let set: Vec<usize> = (0..n)
            .filter(|&i| i != e && set_bits >> i & 1 == 1)
            .collect();
        if m.is_independent(&set) {
            let mut with = set.clone();
            with.push(e);
            prop_assert_eq!(m.can_extend(&set, e), m.is_independent(&with));
        }
    }

    #[test]
    fn bfs_hops_is_a_metric_on_random_graphs(
        edges in vec((0usize..12, 0usize..12), 0..30)
    ) {
        let edges: Vec<(usize, usize)> = edges.into_iter().filter(|&(u, v)| u != v).collect();
        let g = Graph::from_edges(12, edges);
        // Symmetry and triangle inequality on a sample of triples.
        for u in 0..4 {
            for v in 0..4 {
                prop_assert_eq!(hop_distance(&g, u, v), hop_distance(&g, v, u));
                for w in 0..4 {
                    if let (Some(duv), Some(dvw)) =
                        (hop_distance(&g, u, v), hop_distance(&g, v, w))
                    {
                        let duw = hop_distance(&g, u, w).expect("reachable via v");
                        prop_assert!(duw <= duv + dvw);
                    }
                }
            }
        }
        // BFS layers differ by exactly one along edges.
        let d = bfs_hops(&g, 0);
        for (u, v) in g.edges() {
            if let (Some(du), Some(dv)) = (d[u], d[v]) {
                prop_assert!(du.abs_diff(dv) <= 1);
            }
        }
    }

    #[test]
    fn prim_matches_kruskal_on_random_weighted_graphs(
        weights in vec(1u32..100, 45) // complete graph on 10 nodes
    ) {
        let k = 10;
        let mut matrix = vec![vec![None; k]; k];
        let mut edges = Vec::new();
        let mut it = weights.into_iter();
        // Symmetric writes (`matrix[u][v]` and `matrix[v][u]`) don't
        // translate to a disjoint iterator borrow.
        #[allow(clippy::needless_range_loop)]
        for u in 0..k {
            for v in u + 1..k {
                let w = it.next().expect("45 weights for K10");
                matrix[u][v] = Some(w);
                matrix[v][u] = Some(w);
                edges.push((u, v, w));
            }
        }
        let prim_total: u32 = prim_mst(&matrix).expect("complete graph").iter().map(|e| e.2).sum();
        edges.sort_by_key(|e| e.2);
        let mut uf = UnionFind::new(k);
        let kruskal_total: u32 = edges
            .into_iter()
            .filter(|&(u, v, _)| uf.union(u, v))
            .map(|e| e.2)
            .sum();
        prop_assert_eq!(prim_total, kruskal_total);
    }

    #[test]
    fn incremental_flow_matches_fresh_flow(
        first in vec((0usize..8, 0usize..8, 0i64..10), 0..14),
        second in vec((0usize..8, 0usize..8, 0i64..10), 0..14),
    ) {
        let clean = |arcs: &[(usize, usize, i64)]| -> Vec<(usize, usize, i64)> {
            arcs.iter().copied().filter(|&(u, v, _)| u != v).collect()
        };
        let (first, second) = (clean(&first), clean(&second));
        let mut incremental = FlowNetwork::new(8);
        for &(u, v, c) in &first {
            incremental.add_arc(u, v, c);
        }
        let f1 = incremental.max_flow(0, 7);
        for &(u, v, c) in &second {
            incremental.add_arc(u, v, c);
        }
        let f2 = incremental.max_flow(0, 7);

        let mut fresh = FlowNetwork::new(8);
        for &(u, v, c) in first.iter().chain(second.iter()) {
            fresh.add_arc(u, v, c);
        }
        prop_assert_eq!(f1 + f2, fresh.max_flow(0, 7));
    }
}
