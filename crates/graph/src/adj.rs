//! Undirected adjacency-list graph.

use std::fmt;

/// A simple undirected graph over nodes `0 .. n`.
///
/// Parallel edges and self-loops are rejected, matching the UAV
/// connectivity graphs of the paper (a link either exists or it does
/// not).
///
/// # Examples
///
/// ```
/// use uavnet_graph::Graph;
/// let mut g = Graph::new(3);
/// g.add_edge(0, 1);
/// assert!(g.has_edge(1, 0));
/// assert_eq!(g.degree(1), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    adj: Vec<Vec<usize>>,
    num_edges: usize,
}

impl Graph {
    /// Creates an edgeless graph with `n` nodes.
    pub fn new(n: usize) -> Self {
        Graph {
            adj: vec![Vec::new(); n],
            num_edges: 0,
        }
    }

    /// Builds a graph from an edge list.
    ///
    /// Duplicate edges are ignored.
    ///
    /// # Panics
    ///
    /// Panics if any endpoint is `>= n` or an edge is a self-loop.
    pub fn from_edges(n: usize, edges: impl IntoIterator<Item = (usize, usize)>) -> Self {
        let mut g = Graph::new(n);
        for (u, v) in edges {
            if !g.has_edge(u, v) {
                g.add_edge(u, v);
            }
        }
        g
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.adj.len()
    }

    /// Number of (undirected) edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Adds the undirected edge `{u, v}`.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range, `u == v`, or the edge
    /// already exists.
    pub fn add_edge(&mut self, u: usize, v: usize) {
        let n = self.num_nodes();
        assert!(u < n && v < n, "edge ({u},{v}) out of range for {n} nodes");
        assert_ne!(u, v, "self-loop at {u} rejected");
        assert!(!self.has_edge(u, v), "duplicate edge ({u},{v})");
        self.adj[u].push(v);
        self.adj[v].push(u);
        self.num_edges += 1;
    }

    /// Whether the edge `{u, v}` exists.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range.
    #[inline]
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        // Scan the shorter list.
        let (a, b) = if self.adj[u].len() <= self.adj[v].len() {
            (u, v)
        } else {
            (v, u)
        };
        self.adj[a].contains(&b)
    }

    /// Neighbors of `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    #[inline]
    pub fn neighbors(&self, u: usize) -> &[usize] {
        &self.adj[u]
    }

    /// Degree of `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    #[inline]
    pub fn degree(&self, u: usize) -> usize {
        self.adj[u].len()
    }

    /// Iterator over all edges `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.adj
            .iter()
            .enumerate()
            .flat_map(|(u, nbrs)| nbrs.iter().filter(move |&&v| u < v).map(move |&v| (u, v)))
    }
}

impl fmt::Display for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "graph with {} nodes, {} edges",
            self.num_nodes(),
            self.num_edges()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph() {
        let g = Graph::new(5);
        assert_eq!(g.num_nodes(), 5);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.degree(0), 0);
        assert_eq!(g.edges().count(), 0);
    }

    #[test]
    fn edges_are_bidirectional() {
        let mut g = Graph::new(3);
        g.add_edge(0, 2);
        assert!(g.has_edge(0, 2));
        assert!(g.has_edge(2, 0));
        assert!(!g.has_edge(0, 1));
        assert_eq!(g.neighbors(0), &[2]);
        assert_eq!(g.neighbors(2), &[0]);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn rejects_self_loop() {
        let mut g = Graph::new(3);
        g.add_edge(1, 1);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn rejects_duplicate_edge() {
        let mut g = Graph::new(3);
        g.add_edge(0, 1);
        g.add_edge(1, 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range() {
        let mut g = Graph::new(3);
        g.add_edge(0, 3);
    }

    #[test]
    fn from_edges_dedups() {
        let g = Graph::from_edges(4, [(0, 1), (1, 0), (2, 3), (0, 1)]);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn edges_iterator_canonical_order() {
        let g = Graph::from_edges(4, [(3, 1), (0, 2)]);
        let mut es: Vec<_> = g.edges().collect();
        es.sort_unstable();
        assert_eq!(es, vec![(0, 2), (1, 3)]);
    }

    #[test]
    fn display_mentions_counts() {
        let g = Graph::from_edges(4, [(0, 1)]);
        assert!(g.to_string().contains("4 nodes"));
        assert!(g.to_string().contains("1 edges"));
    }
}
