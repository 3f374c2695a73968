//! Minimum-cost maximum flow (successive shortest paths with
//! potentials).
//!
//! Used for *rate-aware* user assignment: among all assignments that
//! serve the maximum number of users (the max flow), pick one that
//! maximizes the total data rate — encode each user→UAV arc with cost
//! `R_max − rate` and run min-cost max-flow (see
//! `uavnet_core::assign_users_max_rate`).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Identifier of a forward arc returned by [`MinCostFlow::add_arc`].
pub type CostArcId = usize;

#[derive(Debug, Clone, Copy)]
struct Arc {
    to: usize,
    cap: i64,
    cost: i64,
}

/// An integral min-cost max-flow solver (successive shortest paths,
/// Dijkstra with Johnson potentials; all arc costs must be
/// non-negative).
///
/// # Examples
///
/// ```
/// use uavnet_flow::MinCostFlow;
/// // Two parallel s→t paths: capacity 1 & cost 1, capacity 1 & cost 5.
/// let mut net = MinCostFlow::new(2);
/// net.add_arc(0, 1, 1, 1);
/// net.add_arc(0, 1, 1, 5);
/// let (flow, cost) = net.run(0, 1);
/// assert_eq!((flow, cost), (2, 6));
/// ```
#[derive(Debug, Clone)]
pub struct MinCostFlow {
    arcs: Vec<Arc>,
    adj: Vec<Vec<CostArcId>>,
}

impl MinCostFlow {
    /// Creates a network with `n` nodes.
    pub fn new(n: usize) -> Self {
        MinCostFlow {
            arcs: Vec::new(),
            adj: vec![Vec::new(); n],
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.adj.len()
    }

    /// Appends an isolated node, returning its id.
    pub fn add_node(&mut self) -> usize {
        self.adj.push(Vec::new());
        self.adj.len() - 1
    }

    /// Adds a directed arc with capacity `cap` and per-unit cost
    /// `cost`, returning its id.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range, `cap < 0`, or
    /// `cost < 0` (the solver relies on non-negative costs).
    pub fn add_arc(&mut self, from: usize, to: usize, cap: i64, cost: i64) -> CostArcId {
        let n = self.num_nodes();
        assert!(from < n && to < n, "arc ({from},{to}) out of range");
        assert!(cap >= 0, "negative capacity {cap}");
        assert!(cost >= 0, "negative cost {cost}");
        let id = self.arcs.len();
        self.arcs.push(Arc { to, cap, cost });
        self.arcs.push(Arc {
            to: from,
            cap: 0,
            cost: -cost,
        });
        self.adj[from].push(id);
        self.adj[to].push(id + 1);
        id
    }

    /// Flow routed through a forward arc.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a forward arc id.
    #[inline]
    pub fn flow_on(&self, id: CostArcId) -> i64 {
        assert!(
            id.is_multiple_of(2) && id < self.arcs.len(),
            "bad arc id {id}"
        );
        self.arcs[id ^ 1].cap
    }

    /// Computes the minimum-cost **maximum** flow from `source` to
    /// `sink`, returning `(flow, total_cost)`.
    ///
    /// # Panics
    ///
    /// Panics if `source == sink` or either is out of range.
    pub fn run(&mut self, source: usize, sink: usize) -> (i64, i64) {
        let n = self.num_nodes();
        assert!(source < n && sink < n, "source/sink out of range");
        assert_ne!(source, sink, "source equals sink");
        let mut potential = vec![0i64; n];
        let mut total_flow = 0i64;
        let mut total_cost = 0i64;
        loop {
            // Dijkstra over reduced costs.
            let mut dist = vec![i64::MAX; n];
            let mut prev_arc = vec![usize::MAX; n];
            let mut heap = BinaryHeap::new();
            dist[source] = 0;
            heap.push(Reverse((0i64, source)));
            while let Some(Reverse((d, u))) = heap.pop() {
                if d > dist[u] {
                    continue;
                }
                for &id in &self.adj[u] {
                    let a = self.arcs[id];
                    if a.cap <= 0 || dist[u] == i64::MAX {
                        continue;
                    }
                    let reduced = a.cost + potential[u] - potential[a.to];
                    debug_assert!(reduced >= 0, "negative reduced cost");
                    let nd = dist[u] + reduced;
                    if nd < dist[a.to] {
                        dist[a.to] = nd;
                        prev_arc[a.to] = id;
                        heap.push(Reverse((nd, a.to)));
                    }
                }
            }
            if dist[sink] == i64::MAX {
                break;
            }
            for v in 0..n {
                if dist[v] < i64::MAX {
                    potential[v] += dist[v];
                }
            }
            // Bottleneck along the shortest path.
            let mut bottleneck = i64::MAX;
            let mut v = sink;
            while v != source {
                let id = prev_arc[v];
                bottleneck = bottleneck.min(self.arcs[id].cap);
                v = self.arcs[id ^ 1].to;
            }
            // Apply.
            let mut v = sink;
            while v != source {
                let id = prev_arc[v];
                self.arcs[id].cap -= bottleneck;
                self.arcs[id ^ 1].cap += bottleneck;
                total_cost += bottleneck * self.arcs[id].cost;
                v = self.arcs[id ^ 1].to;
            }
            total_flow += bottleneck;
        }
        (total_flow, total_cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FlowNetwork;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn prefers_cheap_paths_first() {
        // s→a→t cost 2, s→b→t cost 10; capacities 1 each.
        let mut net = MinCostFlow::new(4);
        let cheap = net.add_arc(0, 1, 1, 1);
        net.add_arc(1, 3, 1, 1);
        let dear = net.add_arc(0, 2, 1, 5);
        net.add_arc(2, 3, 1, 5);
        let (flow, cost) = net.run(0, 3);
        assert_eq!(flow, 2);
        assert_eq!(cost, 12);
        assert_eq!(net.flow_on(cheap), 1);
        assert_eq!(net.flow_on(dear), 1);
    }

    #[test]
    fn takes_a_costlier_detour_for_more_flow() {
        // Max flow requires the expensive arc even though a cheap
        // partial flow exists.
        let mut net = MinCostFlow::new(4);
        net.add_arc(0, 1, 2, 0);
        net.add_arc(1, 3, 1, 0);
        net.add_arc(1, 2, 1, 7);
        net.add_arc(2, 3, 1, 0);
        let (flow, cost) = net.run(0, 3);
        assert_eq!(flow, 2);
        assert_eq!(cost, 7);
    }

    #[test]
    fn flow_value_matches_dinic_on_random_networks() {
        let mut rng = SmallRng::seed_from_u64(11);
        for _ in 0..30 {
            let n = rng.gen_range(2..8);
            let arcs: Vec<(usize, usize, i64, i64)> = (0..rng.gen_range(0..16))
                .map(|_| {
                    (
                        rng.gen_range(0..n),
                        rng.gen_range(0..n),
                        rng.gen_range(0..5),
                        rng.gen_range(0..10),
                    )
                })
                .filter(|&(u, v, _, _)| u != v)
                .collect();
            let mut mc = MinCostFlow::new(n);
            let mut dinic = FlowNetwork::new(n);
            for &(u, v, cap, cost) in &arcs {
                mc.add_arc(u, v, cap, cost);
                dinic.add_arc(u, v, cap);
            }
            let (flow, _) = mc.run(0, n - 1);
            assert_eq!(flow, dinic.max_flow(0, n - 1));
        }
    }

    #[test]
    fn cost_optimality_vs_bruteforce_assignment() {
        // 3 workers × 3 jobs, unit assignment: compare against the
        // best of all 6 permutations.
        let costs = [[4i64, 1, 3], [2, 0, 5], [3, 2, 2]];
        let mut net = MinCostFlow::new(8); // s, w0..2, j0..2, t
        for (w, row) in costs.iter().enumerate() {
            net.add_arc(0, 1 + w, 1, 0);
            for (j, &cost) in row.iter().enumerate() {
                net.add_arc(1 + w, 4 + j, 1, cost);
            }
        }
        for j in 0..3 {
            net.add_arc(4 + j, 7, 1, 0);
        }
        let (flow, cost) = net.run(0, 7);
        assert_eq!(flow, 3);
        // Brute force over permutations.
        let perms = [
            [0, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ];
        let best: i64 = perms
            .iter()
            .map(|p| (0..3).map(|w| costs[w][p[w]]).sum())
            .min()
            .unwrap();
        assert_eq!(cost, best);
    }

    #[test]
    fn zero_flow_costs_nothing() {
        let mut net = MinCostFlow::new(3);
        net.add_arc(0, 1, 5, 3);
        let (flow, cost) = net.run(0, 2);
        assert_eq!((flow, cost), (0, 0));
    }

    #[test]
    fn add_node_extends_network() {
        let mut net = MinCostFlow::new(2);
        let mid = net.add_node();
        net.add_arc(0, mid, 2, 1);
        net.add_arc(mid, 1, 2, 1);
        assert_eq!(net.run(0, 1), (2, 4));
    }

    #[test]
    #[should_panic(expected = "negative cost")]
    fn rejects_negative_costs() {
        let mut net = MinCostFlow::new(2);
        net.add_arc(0, 1, 1, -1);
    }
}
