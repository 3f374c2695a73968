//! Breadth-first hop metrics and shortest-path reconstruction.

use crate::{Graph, Hops};
use std::collections::VecDeque;

/// Hop distance from `source` to every node (`None` = unreachable).
///
/// # Examples
///
/// ```
/// use uavnet_graph::{Graph, bfs_hops};
/// let g = Graph::from_edges(4, [(0, 1), (1, 2)]);
/// assert_eq!(bfs_hops(&g, 0), vec![Some(0), Some(1), Some(2), None]);
/// ```
///
/// # Panics
///
/// Panics if `source` is out of range.
pub fn bfs_hops(g: &Graph, source: usize) -> Vec<Option<Hops>> {
    multi_source_hops(g, std::iter::once(source))
}

/// Hop distance from the nearest of several `sources` to every node.
///
/// This is the metric `d_l` of §III-C: the minimum hop count between a
/// location and the seed set `{v*_1 … v*_s}`.
///
/// # Panics
///
/// Panics if any source is out of range.
pub fn multi_source_hops(g: &Graph, sources: impl IntoIterator<Item = usize>) -> Vec<Option<Hops>> {
    let n = g.num_nodes();
    let mut dist: Vec<Option<Hops>> = vec![None; n];
    let mut queue = VecDeque::new();
    for s in sources {
        assert!(s < n, "source {s} out of range for {n} nodes");
        if dist[s].is_none() {
            dist[s] = Some(0);
            queue.push_back(s);
        }
    }
    while let Some(u) = queue.pop_front() {
        let du = dist[u].expect("queued nodes have distances");
        for &v in g.neighbors(u) {
            if dist[v].is_none() {
                dist[v] = Some(du + 1);
                queue.push_back(v);
            }
        }
    }
    dist
}

/// The hop distance between two nodes, or `None` if disconnected.
pub fn hop_distance(g: &Graph, u: usize, v: usize) -> Option<Hops> {
    if u == v {
        return Some(0);
    }
    bfs_hops(g, u)[v]
}

/// A shortest path from `u` to `v` as a node sequence `[u, …, v]`, or
/// `None` if disconnected.
///
/// Ties between equal-length paths are broken by BFS discovery order
/// (the first dequeued node to reach a cell becomes its parent), which
/// is deterministic for a given adjacency insertion order. Layers that
/// need to reproduce these exact sequences (the substrate-backed
/// connection in `uavnet-core`) call this same function rather than
/// re-deriving paths from hop tables.
///
/// # Examples
///
/// ```
/// use uavnet_graph::{Graph, shortest_path};
/// let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)]);
/// let p = shortest_path(&g, 1, 3).unwrap();
/// assert_eq!(p.len(), 3); // 1-0-3 or 1-2-3
/// assert_eq!(p[0], 1);
/// assert_eq!(p[2], 3);
/// ```
pub fn shortest_path(g: &Graph, u: usize, v: usize) -> Option<Vec<usize>> {
    let n = g.num_nodes();
    if u >= n || v >= n {
        return None;
    }
    if u == v {
        return Some(vec![u]);
    }
    let mut parent: Vec<Option<usize>> = vec![None; n];
    let mut seen = vec![false; n];
    let mut queue = VecDeque::new();
    seen[u] = true;
    queue.push_back(u);
    'outer: while let Some(x) = queue.pop_front() {
        for &y in g.neighbors(x) {
            if !seen[y] {
                seen[y] = true;
                parent[y] = Some(x);
                if y == v {
                    break 'outer;
                }
                queue.push_back(y);
            }
        }
    }
    if !seen[v] {
        return None;
    }
    let mut path = vec![v];
    let mut cur = v;
    while let Some(p) = parent[cur] {
        path.push(p);
        cur = p;
    }
    path.reverse();
    debug_assert_eq!(path[0], u);
    Some(path)
}

/// The connected components of `g`, each as a sorted node list; the
/// list of components is sorted by smallest member.
///
/// # Examples
///
/// ```
/// use uavnet_graph::{Graph, connected_components};
/// let g = Graph::from_edges(5, [(0, 1), (3, 4)]);
/// let comps = connected_components(&g);
/// assert_eq!(comps, vec![vec![0, 1], vec![2], vec![3, 4]]);
/// ```
pub fn connected_components(g: &Graph) -> Vec<Vec<usize>> {
    let n = g.num_nodes();
    let mut seen = vec![false; n];
    let mut out = Vec::new();
    for start in 0..n {
        if seen[start] {
            continue;
        }
        let mut comp = vec![start];
        seen[start] = true;
        let mut queue = VecDeque::from([start]);
        while let Some(u) = queue.pop_front() {
            for &v in g.neighbors(u) {
                if !seen[v] {
                    seen[v] = true;
                    comp.push(v);
                    queue.push_back(v);
                }
            }
        }
        comp.sort_unstable();
        out.push(comp);
    }
    out
}

/// Whether the sub-graph induced by `subset` is connected (an empty or
/// singleton subset counts as connected).
///
/// This is the paper's constraint (iii): the deployed UAV network must
/// be connected.
///
/// # Examples
///
/// ```
/// use uavnet_graph::{Graph, is_connected_subset};
/// let g = Graph::from_edges(5, [(0, 1), (1, 2), (3, 4)]);
/// assert!(is_connected_subset(&g, &[0, 1, 2]));
/// assert!(!is_connected_subset(&g, &[0, 1, 3]));
/// ```
pub fn is_connected_subset(g: &Graph, subset: &[usize]) -> bool {
    if subset.len() <= 1 {
        return true;
    }
    let mut unreached = vec![false; g.num_nodes()];
    for &v in subset {
        unreached[v] = true;
    }
    // BFS from the first member through members only.
    unreached[subset[0]] = false;
    let mut queue = VecDeque::from([subset[0]]);
    while let Some(u) = queue.pop_front() {
        for &v in g.neighbors(u) {
            if unreached[v] {
                unreached[v] = false;
                queue.push_back(v);
            }
        }
    }
    subset.iter().all(|&v| !unreached[v])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_graph(n: usize) -> Graph {
        Graph::from_edges(n, (0..n - 1).map(|i| (i, i + 1)))
    }

    #[test]
    fn hops_on_path() {
        let g = path_graph(5);
        let d = bfs_hops(&g, 0);
        assert_eq!(d, vec![Some(0), Some(1), Some(2), Some(3), Some(4)]);
    }

    #[test]
    fn hops_unreachable() {
        let g = Graph::from_edges(4, [(0, 1)]);
        let d = bfs_hops(&g, 0);
        assert_eq!(d[2], None);
        assert_eq!(d[3], None);
    }

    #[test]
    fn multi_source_takes_minimum() {
        let g = path_graph(7);
        let d = multi_source_hops(&g, [0, 6]);
        assert_eq!(
            d.iter().map(|x| x.unwrap()).collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 2, 1, 0]
        );
    }

    #[test]
    fn multi_source_empty_sources() {
        let g = path_graph(3);
        let d = multi_source_hops(&g, std::iter::empty());
        assert!(d.iter().all(|x| x.is_none()));
    }

    #[test]
    fn hop_distance_symmetry() {
        let g = Graph::from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 4)]);
        for u in 0..6 {
            for v in 0..6 {
                assert_eq!(hop_distance(&g, u, v), hop_distance(&g, v, u));
            }
        }
        assert_eq!(hop_distance(&g, 0, 5), None);
        assert_eq!(hop_distance(&g, 5, 5), Some(0));
    }

    #[test]
    fn shortest_path_endpoints_and_length() {
        let g = Graph::from_edges(6, [(0, 1), (1, 2), (2, 3), (0, 4), (4, 3)]);
        let p = shortest_path(&g, 0, 3).unwrap();
        assert_eq!(p.first(), Some(&0));
        assert_eq!(p.last(), Some(&3));
        assert_eq!(p.len() as u32 - 1, hop_distance(&g, 0, 3).unwrap());
        // Each consecutive pair is an edge.
        for w in p.windows(2) {
            assert!(g.has_edge(w[0], w[1]));
        }
    }

    #[test]
    fn shortest_path_same_node() {
        let g = path_graph(3);
        assert_eq!(shortest_path(&g, 1, 1), Some(vec![1]));
    }

    #[test]
    fn shortest_path_disconnected_is_none() {
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]);
        assert_eq!(shortest_path(&g, 0, 3), None);
    }

    #[test]
    fn connected_subset_checks() {
        let g = Graph::from_edges(6, [(0, 1), (1, 2), (3, 4)]);
        assert!(is_connected_subset(&g, &[]));
        assert!(is_connected_subset(&g, &[5]));
        assert!(is_connected_subset(&g, &[0, 1]));
        assert!(is_connected_subset(&g, &[0, 2, 1]));
        assert!(!is_connected_subset(&g, &[0, 2])); // 1 missing: not induced-connected
        assert!(!is_connected_subset(&g, &[0, 3]));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bfs_rejects_bad_source() {
        let g = path_graph(3);
        let _ = bfs_hops(&g, 5);
    }

    #[test]
    fn components_partition_the_nodes() {
        let g = Graph::from_edges(7, [(0, 1), (1, 2), (4, 5)]);
        let comps = connected_components(&g);
        assert_eq!(comps, vec![vec![0, 1, 2], vec![3], vec![4, 5], vec![6]]);
        let total: usize = comps.iter().map(|c| c.len()).sum();
        assert_eq!(total, 7);
    }

    #[test]
    fn components_of_empty_graph() {
        assert!(connected_components(&Graph::new(0)).is_empty());
        assert_eq!(connected_components(&Graph::new(1)), vec![vec![0]]);
    }
}
