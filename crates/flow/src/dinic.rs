//! Dinic's maximum-flow algorithm with incremental re-augmentation.

use std::collections::VecDeque;

/// Identifier of a forward arc returned by [`FlowNetwork::add_arc`].
///
/// The reverse (residual) arc is stored internally at `id ^ 1`.
pub type ArcId = usize;

#[derive(Debug, Clone, Copy)]
struct Arc {
    to: usize,
    cap: i64,
}

/// A flow network with integral capacities solved by Dinic's algorithm.
///
/// Nodes are `0 .. num_nodes`; arcs are directed and carry a residual
/// capacity. Calling [`max_flow`](FlowNetwork::max_flow) pushes as much
/// *additional* flow as the current residual network allows, so the
/// following incremental pattern works:
///
/// 1. build a network, run `max_flow` → `f₁`;
/// 2. add more arcs/nodes;
/// 3. run `max_flow` again → `f₂` (only the extra flow);
/// 4. total flow = `f₁ + f₂`.
///
/// # Examples
///
/// ```
/// use uavnet_flow::FlowNetwork;
/// let mut net = FlowNetwork::new(3);
/// let a = net.add_arc(0, 1, 2);
/// net.add_arc(1, 2, 1);
/// assert_eq!(net.max_flow(0, 2), 1);
/// assert_eq!(net.flow_on(a), 1);
/// // Widen the bottleneck and re-augment.
/// net.add_arc(1, 2, 5);
/// assert_eq!(net.max_flow(0, 2), 1); // one extra unit
/// assert_eq!(net.flow_on(a), 2);
/// ```
#[derive(Debug, Clone)]
pub struct FlowNetwork {
    arcs: Vec<Arc>,
    adj: Vec<Vec<ArcId>>,
    // scratch buffers reused across runs
    level: Vec<i32>,
    iter: Vec<usize>,
}

impl FlowNetwork {
    /// Creates a network with `n` nodes and no arcs.
    pub fn new(n: usize) -> Self {
        FlowNetwork {
            arcs: Vec::new(),
            adj: vec![Vec::new(); n],
            level: vec![-1; n],
            iter: vec![0; n],
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.adj.len()
    }

    /// Appends a new isolated node and returns its id.
    pub fn add_node(&mut self) -> usize {
        self.adj.push(Vec::new());
        self.level.push(-1);
        self.iter.push(0);
        self.adj.len() - 1
    }

    /// Adds a directed arc `from → to` with capacity `cap` and returns
    /// its [`ArcId`].
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range or `cap < 0`.
    pub fn add_arc(&mut self, from: usize, to: usize, cap: i64) -> ArcId {
        let n = self.num_nodes();
        assert!(from < n && to < n, "arc ({from},{to}) out of range");
        assert!(cap >= 0, "negative capacity {cap}");
        let id = self.arcs.len();
        self.arcs.push(Arc { to, cap });
        self.arcs.push(Arc { to: from, cap: 0 });
        self.adj[from].push(id);
        self.adj[to].push(id + 1);
        id
    }

    /// The flow currently routed through a forward arc (equals the
    /// residual capacity accumulated on its reverse arc).
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a forward arc id from
    /// [`add_arc`](FlowNetwork::add_arc).
    #[inline]
    pub fn flow_on(&self, id: ArcId) -> i64 {
        assert!(
            id.is_multiple_of(2) && id < self.arcs.len(),
            "bad arc id {id}"
        );
        self.arcs[id ^ 1].cap
    }

    fn bfs_levels(&mut self, source: usize, sink: usize) -> bool {
        self.level.iter_mut().for_each(|l| *l = -1);
        let mut q = VecDeque::new();
        self.level[source] = 0;
        q.push_back(source);
        while let Some(u) = q.pop_front() {
            for &id in &self.adj[u] {
                let a = self.arcs[id];
                if a.cap > 0 && self.level[a.to] < 0 {
                    self.level[a.to] = self.level[u] + 1;
                    q.push_back(a.to);
                }
            }
        }
        self.level[sink] >= 0
    }

    fn dfs_push(&mut self, u: usize, sink: usize, pushed: i64) -> i64 {
        if u == sink {
            return pushed;
        }
        while self.iter[u] < self.adj[u].len() {
            let id = self.adj[u][self.iter[u]];
            let Arc { to, cap } = self.arcs[id];
            if cap > 0 && self.level[to] == self.level[u] + 1 {
                let d = self.dfs_push(to, sink, pushed.min(cap));
                if d > 0 {
                    self.arcs[id].cap -= d;
                    self.arcs[id ^ 1].cap += d;
                    return d;
                }
            }
            self.iter[u] += 1;
        }
        0
    }

    /// Pushes the maximum additional flow from `source` to `sink` given
    /// the current residual capacities, returning the amount pushed.
    ///
    /// # Panics
    ///
    /// Panics if `source == sink` or either is out of range.
    pub fn max_flow(&mut self, source: usize, sink: usize) -> i64 {
        let n = self.num_nodes();
        assert!(source < n && sink < n, "source/sink out of range");
        assert_ne!(source, sink, "source equals sink");
        let mut flow = 0;
        while self.bfs_levels(source, sink) {
            self.iter.iter_mut().for_each(|i| *i = 0);
            loop {
                let pushed = self.dfs_push(source, sink, i64::MAX);
                if pushed == 0 {
                    break;
                }
                flow += pushed;
            }
        }
        flow
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_path() {
        let mut net = FlowNetwork::new(4);
        net.add_arc(0, 1, 4);
        net.add_arc(1, 2, 2);
        net.add_arc(2, 3, 9);
        assert_eq!(net.max_flow(0, 3), 2);
    }

    #[test]
    fn parallel_paths_sum() {
        let mut net = FlowNetwork::new(4);
        net.add_arc(0, 1, 3);
        net.add_arc(1, 3, 3);
        net.add_arc(0, 2, 5);
        net.add_arc(2, 3, 4);
        assert_eq!(net.max_flow(0, 3), 7);
    }

    #[test]
    fn classic_cross_network() {
        // The textbook 6-node example with a cross edge.
        let mut net = FlowNetwork::new(6);
        net.add_arc(0, 1, 10);
        net.add_arc(0, 2, 10);
        net.add_arc(1, 2, 2);
        net.add_arc(1, 3, 4);
        net.add_arc(1, 4, 8);
        net.add_arc(2, 4, 9);
        net.add_arc(3, 5, 10);
        net.add_arc(4, 3, 6);
        net.add_arc(4, 5, 10);
        assert_eq!(net.max_flow(0, 5), 19);
    }

    #[test]
    fn flow_conservation_holds() {
        let mut net = FlowNetwork::new(5);
        let arcs = [
            net.add_arc(0, 1, 7),
            net.add_arc(0, 2, 3),
            net.add_arc(1, 3, 4),
            net.add_arc(2, 3, 5),
            net.add_arc(1, 2, 2),
            net.add_arc(3, 4, 8),
        ];
        let f = net.max_flow(0, 4);
        // Net flow out of every interior node is zero.
        let ends = [(0, 1), (0, 2), (1, 3), (2, 3), (1, 2), (3, 4)];
        for node in 1..4 {
            let mut net_out = 0;
            for (i, &(u, v)) in ends.iter().enumerate() {
                let fl = net.flow_on(arcs[i]);
                if u == node {
                    net_out += fl;
                }
                if v == node {
                    net_out -= fl;
                }
            }
            assert_eq!(net_out, 0, "node {node}");
        }
        // Flow out of the source equals the reported max flow.
        let src_out = net.flow_on(arcs[0]) + net.flow_on(arcs[1]);
        assert_eq!(src_out, f);
    }

    #[test]
    fn incremental_augmentation_matches_fresh_solve() {
        // Build in two stages and compare with a from-scratch solve.
        let mut inc = FlowNetwork::new(5);
        inc.add_arc(0, 1, 2);
        inc.add_arc(1, 4, 1);
        inc.add_arc(0, 2, 2);
        inc.add_arc(2, 4, 2);
        let f1 = inc.max_flow(0, 4);
        inc.add_arc(1, 3, 5);
        inc.add_arc(3, 4, 5);
        let f2 = inc.max_flow(0, 4);

        let mut fresh = FlowNetwork::new(5);
        fresh.add_arc(0, 1, 2);
        fresh.add_arc(1, 4, 1);
        fresh.add_arc(0, 2, 2);
        fresh.add_arc(2, 4, 2);
        fresh.add_arc(1, 3, 5);
        fresh.add_arc(3, 4, 5);
        assert_eq!(f1 + f2, fresh.max_flow(0, 4));
    }

    #[test]
    fn add_node_grows_network() {
        let mut net = FlowNetwork::new(2);
        let mid = net.add_node();
        assert_eq!(mid, 2);
        net.add_arc(0, mid, 4);
        net.add_arc(mid, 1, 3);
        assert_eq!(net.max_flow(0, 1), 3);
    }

    #[test]
    fn zero_capacity_blocks() {
        let mut net = FlowNetwork::new(2);
        net.add_arc(0, 1, 0);
        assert_eq!(net.max_flow(0, 1), 0);
    }

    #[test]
    fn disconnected_is_zero() {
        let mut net = FlowNetwork::new(3);
        net.add_arc(0, 1, 5);
        assert_eq!(net.max_flow(0, 2), 0);
    }

    #[test]
    #[should_panic(expected = "source equals sink")]
    fn rejects_equal_source_sink() {
        let mut net = FlowNetwork::new(2);
        net.max_flow(1, 1);
    }

    #[test]
    #[should_panic(expected = "negative capacity")]
    fn rejects_negative_capacity() {
        let mut net = FlowNetwork::new(2);
        net.add_arc(0, 1, -3);
    }

    #[test]
    fn assignment_shaped_network() {
        // 4 users, 2 stations with caps 1 and 2; user 3 uncovered.
        // s=0, users 1..=4, stations 5..=6, t=7.
        let mut net = FlowNetwork::new(8);
        for u in 1..=4 {
            net.add_arc(0, u, 1);
        }
        // station 5 covers users 1,2; station 6 covers users 2,3.
        net.add_arc(1, 5, 1);
        net.add_arc(2, 5, 1);
        net.add_arc(2, 6, 1);
        net.add_arc(3, 6, 1);
        net.add_arc(5, 7, 1);
        net.add_arc(6, 7, 2);
        assert_eq!(net.max_flow(0, 7), 3);
    }
}
