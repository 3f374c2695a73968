//! Connecting a chosen location set through relay nodes (Fig. 3 of the
//! paper).
//!
//! Given the greedily chosen locations `V'_j`, Algorithm 2 builds a
//! complete weighted graph `G'_j` whose edge weights are pairwise hop
//! distances in the candidate graph `G`, finds a minimum spanning tree
//! `T'_j`, and replaces every tree edge by a shortest path in `G`. The
//! union of those paths is the connected subgraph `G_j`; its non-`V'_j`
//! nodes are the relay locations.

use std::error::Error;
use std::fmt;
use uavnet_graph::{
    bfs_hops, prim_mst, shortest_path, ConnectivitySubstrate, Graph, Hops, UNREACHABLE_HOPS,
};

/// Error from [`connect_via_mst`] / [`extend_to_gateway`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConnectError {
    /// Two of the requested nodes lie in different components of the
    /// candidate graph, so no relay chain can join them.
    Unreachable {
        /// One endpoint.
        a: usize,
        /// The other endpoint.
        b: usize,
    },
    /// A requested node does not exist in the candidate graph.
    NodeOutOfRange {
        /// The offending node.
        node: usize,
        /// Number of nodes in the graph.
        num_nodes: usize,
    },
    /// The same node was requested twice.
    DuplicateNode {
        /// The repeated node.
        node: usize,
    },
    /// [`extend_to_gateway`] was called with no deployed location.
    EmptyDeployment,
}

impl fmt::Display for ConnectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConnectError::Unreachable { a, b } => {
                write!(f, "locations {a} and {b} cannot be connected by relays")
            }
            ConnectError::NodeOutOfRange { node, num_nodes } => {
                write!(f, "node {node} outside the {num_nodes}-node graph")
            }
            ConnectError::DuplicateNode { node } => write!(f, "duplicate node {node}"),
            ConnectError::EmptyDeployment => {
                write!(f, "cannot extend an empty deployment to the gateway")
            }
        }
    }
}

impl Error for ConnectError {}

/// Connects `nodes` inside `graph` with relay nodes: MST over pairwise
/// hop distances, each tree edge expanded to a shortest path, followed
/// by the Kou–Markowsky–Berman clean-up (take a spanning tree of the
/// union and iteratively prune relay leaves), so no relay is kept that
/// the terminals do not need.
///
/// Returns the full connected node set: first the input `nodes` (in
/// their given order), then the surviving relay nodes. The induced
/// subgraph over the returned set is connected.
///
/// # Errors
///
/// * [`ConnectError::Unreachable`] if the nodes span multiple
///   components of `graph`;
/// * [`ConnectError::NodeOutOfRange`] / [`ConnectError::DuplicateNode`]
///   on malformed input — typed errors, not panics, so fault-injected
///   location sets degrade gracefully.
///
/// # Examples
///
/// ```
/// use uavnet_core::connect_via_mst;
/// use uavnet_graph::Graph;
///
/// // A path 0-1-2-3-4: connecting {0, 4} needs relays 1, 2, 3.
/// let g = Graph::from_edges(5, (0..4).map(|i| (i, i + 1)));
/// let all = connect_via_mst(&g, &[0, 4])?;
/// assert_eq!(all.len(), 5);
/// # Ok::<(), uavnet_core::ConnectError>(())
/// ```
pub fn connect_via_mst(graph: &Graph, nodes: &[usize]) -> Result<Vec<usize>, ConnectError> {
    let k = nodes.len();
    for (i, &v) in nodes.iter().enumerate() {
        if v >= graph.num_nodes() {
            return Err(ConnectError::NodeOutOfRange {
                node: v,
                num_nodes: graph.num_nodes(),
            });
        }
        if nodes[..i].contains(&v) {
            return Err(ConnectError::DuplicateNode { node: v });
        }
    }
    if k <= 1 {
        return Ok(nodes.to_vec());
    }
    // Pairwise hop distances via one BFS per node.
    let mut weights: Vec<Vec<Option<Hops>>> = vec![vec![None; k]; k];
    for (i, &v) in nodes.iter().enumerate() {
        let d = bfs_hops(graph, v);
        for (j, &w) in nodes.iter().enumerate() {
            weights[i][j] = d[w];
        }
    }
    let mst = match prim_mst(&weights) {
        Ok(mst) => mst,
        Err(_) => {
            // Find a concrete unreachable pair for the error message.
            let d = bfs_hops(graph, nodes[0]);
            let b = nodes
                .iter()
                .copied()
                .find(|&w| d[w].is_none())
                .unwrap_or(nodes[0]);
            return Err(ConnectError::Unreachable { a: nodes[0], b });
        }
    };
    let mut all = nodes.to_vec();
    let mut in_set = vec![false; graph.num_nodes()];
    for &v in nodes {
        in_set[v] = true;
    }
    for &(i, j, _) in &mst {
        // INVARIANT (unwrap audit): the MST edge (i, j) exists only if
        // weights[i][j] was Some, and that weight came from
        // `bfs_hops(graph, nodes[i])` over THIS graph — so the same
        // BFS front reaches nodes[j] here too. No caller input can
        // break the agreement; both reads are derived from one graph
        // within this call.
        let path = shortest_path(graph, nodes[i], nodes[j])
            .expect("MST edge implies a finite hop distance");
        for v in path {
            if !in_set[v] {
                in_set[v] = true;
                all.push(v);
            }
        }
    }
    let pruned = prune_relay_leaves(graph, nodes, all);
    #[cfg(feature = "debug-validate")]
    {
        assert!(
            uavnet_graph::is_connected_subset(graph, &pruned),
            "debug-validate: pruned relay set is not induced-connected"
        );
        assert!(
            nodes.iter().all(|v| pruned.contains(v)),
            "debug-validate: pruning dropped a terminal"
        );
    }
    Ok(pruned)
}

/// [`connect_via_mst`] with the hop structure read from a precomputed
/// [`ConnectivitySubstrate`] instead of per-call BFS: the `k` full
/// BFS runs for pairwise weights become `O(k²)` row lookups, and
/// unreachability is detected from the rows. Only the `k − 1` tree
/// edges still extract a path, via the same [`shortest_path`] BFS as
/// [`connect_via_mst`]. `graph` must be the graph the substrate was
/// built from.
///
/// Produces **exactly** the node set of [`connect_via_mst`] — same
/// relays, same order — because the weights are value-identical and
/// the path extraction is literally shared; `verify.rs` checks this
/// differentially and `debug-validate` builds assert it inline.
///
/// # Errors
///
/// Same contract as [`connect_via_mst`].
pub fn connect_via_substrate(
    graph: &Graph,
    sub: &ConnectivitySubstrate,
    nodes: &[usize],
) -> Result<Vec<usize>, ConnectError> {
    let k = nodes.len();
    for (i, &v) in nodes.iter().enumerate() {
        if v >= sub.num_nodes() {
            return Err(ConnectError::NodeOutOfRange {
                node: v,
                num_nodes: sub.num_nodes(),
            });
        }
        if nodes[..i].contains(&v) {
            return Err(ConnectError::DuplicateNode { node: v });
        }
    }
    if k <= 1 {
        return Ok(nodes.to_vec());
    }
    let mut weights: Vec<Vec<Option<Hops>>> = vec![vec![None; k]; k];
    for (i, &v) in nodes.iter().enumerate() {
        let row = sub.hop_row(v);
        for (j, &w) in nodes.iter().enumerate() {
            weights[i][j] = match row[w] {
                UNREACHABLE_HOPS => None,
                d => Some(Hops::from(d)),
            };
        }
    }
    let mst = match prim_mst(&weights) {
        Ok(mst) => mst,
        Err(_) => {
            let row = sub.hop_row(nodes[0]);
            let b = nodes
                .iter()
                .copied()
                .find(|&w| row[w] == UNREACHABLE_HOPS)
                .unwrap_or(nodes[0]);
            return Err(ConnectError::Unreachable { a: nodes[0], b });
        }
    };
    let mut all = nodes.to_vec();
    let mut in_set = vec![false; sub.num_nodes()];
    for &v in nodes {
        in_set[v] = true;
    }
    // Path extraction deliberately shares `shortest_path` with
    // `connect_via_mst`: only s − 1 tree edges need a path, and using
    // the same BFS keeps the chosen relays bit-for-bit identical.
    for &(i, j, _) in &mst {
        // Unlike `connect_via_mst`, finiteness of the MST weight here
        // comes from the *substrate's* hop rows while the path runs a
        // BFS on `graph` — if a caller hands a graph the substrate was
        // not built from (a documented misuse that malformed input can
        // reach), the two can disagree. Degrade to a typed error
        // instead of panicking.
        let Some(path) = shortest_path(graph, nodes[i], nodes[j]) else {
            return Err(ConnectError::Unreachable {
                a: nodes[i],
                b: nodes[j],
            });
        };
        for v in path {
            if !in_set[v] {
                in_set[v] = true;
                all.push(v);
            }
        }
    }
    let pruned = prune_relay_leaves(graph, nodes, all);
    #[cfg(feature = "debug-validate")]
    {
        assert_eq!(
            Ok(&pruned),
            connect_via_mst(graph, nodes).as_ref(),
            "debug-validate: substrate connection diverges from BFS connection"
        );
    }
    Ok(pruned)
}

/// KMB step 4–5: spanning tree of the induced union, then iterative
/// removal of non-terminal leaves. Keeps the terminal-first ordering.
fn prune_relay_leaves(graph: &Graph, terminals: &[usize], all: Vec<usize>) -> Vec<usize> {
    if all.len() <= terminals.len() {
        return all;
    }
    let n = graph.num_nodes();
    let mut in_set = vec![false; n];
    for &v in &all {
        in_set[v] = true;
    }
    let mut is_terminal = vec![false; n];
    for &t in terminals {
        is_terminal[t] = true;
    }
    // BFS spanning tree of the induced subgraph.
    let mut parent = vec![usize::MAX; n];
    let mut tree_degree = vec![0usize; n];
    let mut visited = vec![false; n];
    let mut queue = std::collections::VecDeque::new();
    visited[all[0]] = true;
    queue.push_back(all[0]);
    while let Some(u) = queue.pop_front() {
        for &w in graph.neighbors(u) {
            if in_set[w] && !visited[w] {
                visited[w] = true;
                parent[w] = u;
                tree_degree[w] += 1;
                tree_degree[u] += 1;
                queue.push_back(w);
            }
        }
    }
    // Iteratively shed relay leaves.
    let mut removed = vec![false; n];
    let mut leaves: Vec<usize> = all
        .iter()
        .copied()
        .filter(|&v| tree_degree[v] <= 1 && !is_terminal[v])
        .collect();
    while let Some(v) = leaves.pop() {
        if removed[v] || tree_degree[v] > 1 || is_terminal[v] {
            continue;
        }
        removed[v] = true;
        let p = parent[v];
        if p != usize::MAX && !removed[p] {
            tree_degree[p] -= 1;
            if tree_degree[p] <= 1 && !is_terminal[p] {
                leaves.push(p);
            }
        }
    }
    all.into_iter().filter(|&v| !removed[v]).collect()
}

/// Extends a connected location set with relay cells until it touches
/// a gateway-capable cell (Fig. 1's uplink requirement). Returns the
/// *additional* cells, in path order ending at the gateway cell;
/// empty when the set already contains one.
///
/// # Errors
///
/// * [`ConnectError::Unreachable`] if no gateway-capable cell is
///   reachable from the set;
/// * [`ConnectError::EmptyDeployment`] /
///   [`ConnectError::NodeOutOfRange`] on malformed input.
pub fn extend_to_gateway(
    graph: &Graph,
    current: &[usize],
    mut is_gateway: impl FnMut(usize) -> bool,
) -> Result<Vec<usize>, ConnectError> {
    if current.is_empty() {
        return Err(ConnectError::EmptyDeployment);
    }
    if let Some(&node) = current.iter().find(|&&v| v >= graph.num_nodes()) {
        return Err(ConnectError::NodeOutOfRange {
            node,
            num_nodes: graph.num_nodes(),
        });
    }
    if current.iter().any(|&l| is_gateway(l)) {
        return Ok(Vec::new());
    }
    let dist = uavnet_graph::multi_source_hops(graph, current.iter().copied());
    let target = (0..graph.num_nodes())
        .filter(|&c| is_gateway(c))
        .filter_map(|c| dist[c].map(|d| (d, c)))
        .min();
    let Some((_, target)) = target else {
        return Err(ConnectError::Unreachable {
            a: current[0],
            b: (0..graph.num_nodes())
                .find(|&c| is_gateway(c))
                .unwrap_or(current[0]),
        });
    };
    // Walk back from the target to the nearest set member.
    //
    // INVARIANT (unwrap audit) for both expects below: `target` was
    // selected because `multi_source_hops(graph, current)` assigned it
    // a finite distance, i.e. some member of `current` reaches it in
    // THIS graph. Hop distances are symmetric in an undirected graph,
    // so `bfs_hops(graph, target)` reaches that member (first expect)
    // and `shortest_path(graph, start, target)` finds the path (second
    // expect). All three traversals run on the same graph within this
    // call, so no caller input can make them disagree.
    let back = bfs_hops(graph, target);
    let (_, start) = current
        .iter()
        .filter_map(|&v| back[v].map(|d| (d, v)))
        .min()
        .expect("target reachable implies a finite back-distance");
    let path = shortest_path(graph, start, target)
        .expect("finite back-distance implies a path on the same graph");
    Ok(path.into_iter().filter(|v| !current.contains(v)).collect())
}

/// [`extend_to_gateway`] from precomputed hop rows: the multi-source
/// BFS for the nearest gateway-capable cell and the full walk-back BFS
/// both become row reads (same `(distance, index)` minimization), and
/// only the single connecting path is extracted — via the same
/// [`shortest_path`] BFS — so the output is bit-for-bit identical.
///
/// `gateway_cells` must be sorted ascending (as
/// `Instance::gateway_cells` returns them); `graph` must be the graph
/// the substrate was built from.
///
/// # Errors
///
/// Same contract as [`extend_to_gateway`].
pub fn extend_to_gateway_substrate(
    graph: &Graph,
    sub: &ConnectivitySubstrate,
    current: &[usize],
    gateway_cells: &[usize],
) -> Result<Vec<usize>, ConnectError> {
    if current.is_empty() {
        return Err(ConnectError::EmptyDeployment);
    }
    if let Some(&node) = current.iter().find(|&&v| v >= sub.num_nodes()) {
        return Err(ConnectError::NodeOutOfRange {
            node,
            num_nodes: sub.num_nodes(),
        });
    }
    if current
        .iter()
        .any(|v| gateway_cells.binary_search(v).is_ok())
    {
        return Ok(Vec::new());
    }
    // Nearest gateway cell over the min-of-rows multi-source metric.
    let target = gateway_cells
        .iter()
        .filter_map(|&c| {
            current
                .iter()
                .map(|&v| sub.hop_row(v)[c])
                .min()
                .filter(|&d| d != UNREACHABLE_HOPS)
                .map(|d| (d, c))
        })
        .min();
    let Some((_, target)) = target else {
        return Err(ConnectError::Unreachable {
            a: current[0],
            b: gateway_cells.first().copied().unwrap_or(current[0]),
        });
    };
    // INVARIANT (unwrap audit): `target` won the min above because
    // some member of `current` has a finite substrate distance to it;
    // the substrate's hop matrix is symmetric, so the walk-back min
    // over the same matrix is non-empty. Both reads come from the one
    // substrate, so the expect is unreachable for any caller input.
    let back = sub.hop_row(target);
    let (_, start) = current
        .iter()
        .filter_map(|&v| (back[v] != UNREACHABLE_HOPS).then_some((back[v], v)))
        .min()
        .expect("target reachable implies a finite back-distance");
    // The path, however, is extracted from `graph` while reachability
    // was established on the substrate — a caller passing a graph the
    // substrate was not built from can make them disagree, so that
    // mismatch degrades to a typed error rather than a panic.
    let Some(path) = shortest_path(graph, start, target) else {
        return Err(ConnectError::Unreachable {
            a: start,
            b: target,
        });
    };
    Ok(path.into_iter().filter(|v| !current.contains(v)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use uavnet_graph::is_connected_subset;

    fn grid_graph(cols: usize, rows: usize) -> Graph {
        let mut g = Graph::new(cols * rows);
        for r in 0..rows {
            for c in 0..cols {
                let v = r * cols + c;
                if c + 1 < cols {
                    g.add_edge(v, v + 1);
                }
                if r + 1 < rows {
                    g.add_edge(v, v + cols);
                }
            }
        }
        g
    }

    #[test]
    fn single_and_empty_inputs() {
        let g = grid_graph(3, 3);
        assert_eq!(connect_via_mst(&g, &[]).unwrap(), Vec::<usize>::new());
        assert_eq!(connect_via_mst(&g, &[5]).unwrap(), vec![5]);
    }

    #[test]
    fn adjacent_nodes_need_no_relays() {
        let g = grid_graph(3, 3);
        let all = connect_via_mst(&g, &[0, 1, 2]).unwrap();
        assert_eq!(all, vec![0, 1, 2]);
    }

    #[test]
    fn corners_of_grid_get_relays() {
        let g = grid_graph(3, 3);
        let all = connect_via_mst(&g, &[0, 8]).unwrap();
        assert!(all.len() >= 5, "needs 3 relays at least: {all:?}");
        assert!(is_connected_subset(&g, &all));
        // Inputs come first.
        assert_eq!(&all[..2], &[0, 8]);
    }

    #[test]
    fn result_is_always_induced_connected() {
        let g = grid_graph(4, 4);
        for nodes in [
            vec![0, 15],
            vec![3, 12, 0],
            vec![5, 10, 6, 9],
            vec![0, 3, 12, 15],
        ] {
            let all = connect_via_mst(&g, &nodes).unwrap();
            assert!(is_connected_subset(&g, &all), "{nodes:?} -> {all:?}");
            // Every requested node is present.
            for v in &nodes {
                assert!(all.contains(v));
            }
            // No duplicates.
            let mut sorted = all.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), all.len());
        }
    }

    #[test]
    fn relay_count_is_modest_on_a_line() {
        // Connecting the two ends of an n-path requires exactly the
        // n − 2 interior nodes.
        let g = Graph::from_edges(7, (0..6).map(|i| (i, i + 1)));
        let all = connect_via_mst(&g, &[0, 6]).unwrap();
        assert_eq!(all.len(), 7);
    }

    #[test]
    fn unreachable_nodes_error() {
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]);
        let err = connect_via_mst(&g, &[0, 3]).unwrap_err();
        assert!(matches!(err, ConnectError::Unreachable { .. }));
        assert!(err.to_string().contains("connected"));
    }

    #[test]
    fn malformed_inputs_are_typed_errors() {
        let g = grid_graph(2, 2);
        assert_eq!(
            connect_via_mst(&g, &[0, 0]),
            Err(ConnectError::DuplicateNode { node: 0 })
        );
        assert_eq!(
            connect_via_mst(&g, &[0, 7]),
            Err(ConnectError::NodeOutOfRange {
                node: 7,
                num_nodes: 4
            })
        );
        assert_eq!(
            extend_to_gateway(&g, &[9], |_| true),
            Err(ConnectError::NodeOutOfRange {
                node: 9,
                num_nodes: 4
            })
        );
    }

    #[test]
    fn pruning_preserves_terminals_and_connectivity() {
        let g = grid_graph(6, 6);
        for terminals in [
            vec![0, 35, 5, 30],
            vec![0, 35],
            vec![7, 28, 10, 25, 17],
            vec![0, 5, 30, 35, 14, 21],
        ] {
            let all = connect_via_mst(&g, &terminals).unwrap();
            assert!(is_connected_subset(&g, &all), "{terminals:?}");
            for t in &terminals {
                assert!(all.contains(t));
            }
            // Pruned result: every relay has tree-degree ≥ 2 in SOME
            // spanning structure, so no relay can be dropped while
            // keeping the terminals connected through the same cells —
            // weaker check: dropping any single relay disconnects or
            // orphans something, OR the relay lies on a cycle. At
            // minimum: the relay count stays within the MST bound.
            assert!(all.len() <= 36);
        }
    }

    #[test]
    fn pruning_strips_crossing_artifacts() {
        // A plus-shaped graph: terminals at the four arm tips, center
        // shared. Expanding MST edges can union overlapping paths; the
        // pruned result must not exceed the plus itself.
        let mut g = Graph::new(9);
        // center 4; arms: 0-1-4, 2-3-4, 4-5-6, 4-7-8
        g.add_edge(0, 1);
        g.add_edge(1, 4);
        g.add_edge(2, 3);
        g.add_edge(3, 4);
        g.add_edge(4, 5);
        g.add_edge(5, 6);
        g.add_edge(4, 7);
        g.add_edge(7, 8);
        let all = connect_via_mst(&g, &[0, 2, 6, 8]).unwrap();
        assert_eq!(all.len(), 9); // the whole plus is needed
        assert!(is_connected_subset(&g, &all));
    }

    #[test]
    fn gateway_extension_noop_when_present() {
        let g = grid_graph(3, 3);
        let extra = extend_to_gateway(&g, &[0, 1], |c| c == 1).unwrap();
        assert!(extra.is_empty());
    }

    #[test]
    fn gateway_extension_builds_a_relay_path() {
        // Set at the NW corner, gateway only at the SE corner of a
        // 3×3 grid: needs a chain of relays ending at cell 8.
        let g = grid_graph(3, 3);
        let current = vec![0usize];
        let extra = extend_to_gateway(&g, &current, |c| c == 8).unwrap();
        assert_eq!(extra.last(), Some(&8));
        let mut all = current.clone();
        all.extend(extra);
        assert!(is_connected_subset(&g, &all));
        assert_eq!(all.len(), 5); // 4 hops → 4 new cells
    }

    #[test]
    fn gateway_extension_picks_the_nearest_capable_cell() {
        let g = grid_graph(3, 3);
        let extra = extend_to_gateway(&g, &[4], |c| c == 0 || c == 1).unwrap();
        assert_eq!(extra, vec![1]); // 1 is adjacent to the center
    }

    #[test]
    fn gateway_extension_unreachable_errors() {
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]);
        let err = extend_to_gateway(&g, &[0], |c| c == 3).unwrap_err();
        assert!(matches!(err, ConnectError::Unreachable { .. }));
        // No gateway cell at all behaves the same.
        let err = extend_to_gateway(&g, &[0], |_| false).unwrap_err();
        assert!(matches!(err, ConnectError::Unreachable { .. }));
    }

    #[test]
    fn gateway_extension_rejects_empty_set() {
        let g = grid_graph(2, 2);
        assert_eq!(
            extend_to_gateway(&g, &[], |_| true),
            Err(ConnectError::EmptyDeployment)
        );
    }

    #[test]
    fn substrate_connection_equals_bfs_connection() {
        let g = grid_graph(5, 5);
        let sub = ConnectivitySubstrate::build(&g).unwrap();
        for nodes in [
            vec![],
            vec![12],
            vec![0, 24],
            vec![4, 20, 0],
            vec![6, 18, 8, 16],
            vec![0, 4, 20, 24, 12],
        ] {
            assert_eq!(
                connect_via_substrate(&g, &sub, &nodes),
                connect_via_mst(&g, &nodes),
                "{nodes:?}"
            );
        }
        // Errors match too.
        let split = Graph::from_edges(4, [(0, 1), (2, 3)]);
        let sub = ConnectivitySubstrate::build(&split).unwrap();
        assert_eq!(
            connect_via_substrate(&split, &sub, &[0, 3]),
            connect_via_mst(&split, &[0, 3])
        );
        assert_eq!(
            connect_via_substrate(&split, &sub, &[0, 0]),
            Err(ConnectError::DuplicateNode { node: 0 })
        );
        assert_eq!(
            connect_via_substrate(&split, &sub, &[9]),
            Err(ConnectError::NodeOutOfRange {
                node: 9,
                num_nodes: 4
            })
        );
    }

    #[test]
    fn substrate_gateway_extension_equals_bfs_extension() {
        let g = grid_graph(4, 4);
        let sub = ConnectivitySubstrate::build(&g).unwrap();
        for (current, gates) in [
            (vec![0usize], vec![15usize]),
            (vec![5, 6], vec![0, 12, 15]),
            (vec![3], vec![3]),
            (vec![10], vec![]),
        ] {
            let via_bfs = extend_to_gateway(&g, &current, |c| gates.binary_search(&c).is_ok());
            let via_sub = extend_to_gateway_substrate(&g, &sub, &current, &gates);
            assert_eq!(via_sub, via_bfs, "{current:?} gates {gates:?}");
        }
        assert_eq!(
            extend_to_gateway_substrate(&g, &sub, &[], &[0]),
            Err(ConnectError::EmptyDeployment)
        );
        let split = Graph::from_edges(4, [(0, 1), (2, 3)]);
        let sub = ConnectivitySubstrate::build(&split).unwrap();
        assert_eq!(
            extend_to_gateway_substrate(&split, &sub, &[0], &[3]),
            Err(ConnectError::Unreachable { a: 0, b: 3 })
        );
    }
}
