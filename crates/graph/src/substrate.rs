//! Precomputed read-only connectivity substrate over a fixed graph.
//!
//! The subset sweep of Algorithm 2 asks the same hop-structure
//! questions — "how far apart are these two locations?", "are they in
//! the same component?", "give me a shortest relay path" — thousands
//! of times per run, once per seed subset. [`ConnectivitySubstrate`]
//! answers all of them from tables built **once** per instance:
//!
//! * the full all-pairs hop matrix in `u16` (`u16::MAX` = unreachable),
//!   filled 64 sources at a time by bit-parallel BFS layers (the
//!   multi-source BFS of Then et al., VLDB 2015) over a CSR copy of the
//!   adjacency local to the build;
//! * component ids plus one membership bitset per component, so
//!   reachability is a word-indexed bit test and "how many candidates
//!   can this seed reach" is a precomputed count.
//!
//! Shared immutably (`&ConnectivitySubstrate`) across sweep threads:
//! every query is a read, no locks. The tables replace the *distance*
//! BFS runs of the sweep hot path (pairwise weights, matroid depths,
//! gateway metrics); the handful of actual relay-path extractions per
//! subset stay on [`crate::shortest_path`] so substrate-backed and
//! BFS-backed connection code pick **bit-for-bit identical** relays
//! (same discovery-order tie-breaks), which the differential oracles
//! in `uavnet-core::verify` rely on.

use crate::{Graph, Hops};

/// Hop value marking an unreachable pair in the `u16` matrix.
pub const UNREACHABLE_HOPS: u16 = u16::MAX;

/// Why a [`ConnectivitySubstrate`] could not be built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum SubstrateError {
    /// The graph has more nodes than the `u16` hop encoding can
    /// address: every finite distance must fit in `u16` with
    /// [`UNREACHABLE_HOPS`] reserved as the no-path sentinel.
    TooManyNodes {
        /// Nodes in the offending graph.
        nodes: usize,
        /// Largest supported node count (`u16::MAX - 1`).
        max: usize,
    },
}

impl std::fmt::Display for SubstrateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubstrateError::TooManyNodes { nodes, max } => {
                write!(f, "substrate supports at most {max} nodes, got {nodes}")
            }
        }
    }
}

impl std::error::Error for SubstrateError {}

/// All-pairs hop distances, components and reachability bitsets of a
/// fixed graph, built once and then queried lock-free from any thread.
///
/// Memory: `2 n²` bytes for the hop matrix plus `⌈n/64⌉` words per
/// component for the component bitsets — ~26 MB at the paper's
/// `m = 3600` candidate locations, negligible at evaluation scales.
///
/// # Examples
///
/// ```
/// use uavnet_graph::{ConnectivitySubstrate, Graph};
///
/// let g = Graph::from_edges(5, [(0, 1), (1, 2), (3, 4)]);
/// let sub = ConnectivitySubstrate::build(&g).expect("graph fits the u16 hop encoding");
/// assert_eq!(sub.hops(0, 2), Some(2));
/// assert_eq!(sub.hops(0, 3), None);
/// assert!(sub.reachable(3, 4));
/// assert_eq!(sub.component_size(0), 3);
/// ```
#[derive(Debug, Clone)]
pub struct ConnectivitySubstrate {
    n: usize,
    /// Row-major `n × n` hop matrix; [`UNREACHABLE_HOPS`] = no path.
    hops: Vec<u16>,
    /// Component id per node (ids are dense, by smallest member).
    component: Vec<u32>,
    /// Nodes per component, indexed by component id.
    component_sizes: Vec<u32>,
    /// One membership bitset per component, each `words_per_row` words.
    component_bits: Vec<u64>,
    words_per_row: usize,
}

impl ConnectivitySubstrate {
    /// Builds the substrate: bit-parallel BFS layers from 64 sources
    /// at a time for the hop matrix (`⌈n/64⌉` batches, each costing at
    /// most what 64 single-source BFS runs would), one labeling pass for
    /// components and their bitsets.
    ///
    /// # Errors
    ///
    /// [`SubstrateError::TooManyNodes`] if the graph has `u16::MAX`
    /// nodes or more (hop distances must fit in `u16` with
    /// [`UNREACHABLE_HOPS`] reserved). Checked before any allocation —
    /// a full hop matrix at that scale would be ≥ 8 GB, so the limit
    /// must fail fast instead of attempting the build.
    pub fn build(g: &Graph) -> Result<Self, SubstrateError> {
        let n = g.num_nodes();
        if n >= UNREACHABLE_HOPS as usize {
            return Err(SubstrateError::TooManyNodes {
                nodes: n,
                max: UNREACHABLE_HOPS as usize - 1,
            });
        }
        // CSR adjacency for the BFS runs below: node `u`'s neighbors
        // are `neighbors[offsets[u]..offsets[u + 1]]`.
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u32);
        let mut neighbors: Vec<u32> = Vec::new();
        for u in 0..n {
            neighbors.extend(g.neighbors(u).iter().map(|&v| v as u32));
            offsets.push(neighbors.len() as u32);
        }

        // Components by BFS over the CSR, labeled by smallest member.
        let mut component = vec![u32::MAX; n];
        let mut component_sizes: Vec<u32> = Vec::new();
        let mut queue: std::collections::VecDeque<u32> = std::collections::VecDeque::new();
        for start in 0..n {
            if component[start] != u32::MAX {
                continue;
            }
            let id = component_sizes.len() as u32;
            component_sizes.push(0);
            component[start] = id;
            queue.push_back(start as u32);
            while let Some(u) = queue.pop_front() {
                component_sizes[id as usize] += 1;
                let (s, e) = (
                    offsets[u as usize] as usize,
                    offsets[u as usize + 1] as usize,
                );
                for &v in &neighbors[s..e] {
                    if component[v as usize] == u32::MAX {
                        component[v as usize] = id;
                        queue.push_back(v);
                    }
                }
            }
        }
        let words_per_row = n.div_ceil(64).max(1);
        let mut component_bits = vec![0u64; component_sizes.len() * words_per_row];
        for (v, &c) in component.iter().enumerate() {
            component_bits[c as usize * words_per_row + v / 64] |= 1u64 << (v % 64);
        }

        // All-pairs hops, 64 sources at a time: bit `i` of a node's word
        // stands for source `b0 + i`, so one pass over a BFS layer
        // advances all 64 searches. `seen[v]` holds the sources that
        // have reached `v`, `next[v]` those a layer's frontier offers
        // it; `frontier` lists the layer's nodes with their newly
        // reached sources and `offered` the nodes `next` touched, so a
        // batch costs at most 64 BFS runs on any graph. Distances are
        // symmetric, so `v`'s new sources land in the contiguous span
        // `b0..b0 + 64` of `v`'s own row.
        let mut hops = vec![UNREACHABLE_HOPS; n * n];
        let mut seen = vec![0u64; n];
        let mut next = vec![0u64; n];
        let mut frontier: Vec<(u32, u64)> = Vec::new();
        let mut offered: Vec<u32> = Vec::new();
        for b0 in (0..n).step_by(64) {
            let batch = (n - b0).min(64);
            seen.fill(0);
            for i in 0..batch {
                let src = b0 + i;
                seen[src] = 1 << i;
                frontier.push((src as u32, 1 << i));
                hops[src * n + src] = 0;
            }
            // `n < u16::MAX` (checked above) bounds every level.
            let mut level = 0u16;
            while !frontier.is_empty() {
                level += 1;
                for &(u, sources) in &frontier {
                    let u = u as usize;
                    let (s, e) = (offsets[u] as usize, offsets[u + 1] as usize);
                    for &v in &neighbors[s..e] {
                        if next[v as usize] == 0 {
                            offered.push(v);
                        }
                        next[v as usize] |= sources;
                    }
                }
                frontier.clear();
                for &v in &offered {
                    let v = v as usize;
                    let fresh = next[v] & !seen[v];
                    next[v] = 0;
                    if fresh != 0 {
                        seen[v] |= fresh;
                        frontier.push((v as u32, fresh));
                        let span = &mut hops[v * n + b0..v * n + b0 + batch];
                        let mut bits = fresh;
                        while bits != 0 {
                            span[bits.trailing_zeros() as usize] = level;
                            bits &= bits - 1;
                        }
                    }
                }
                offered.clear();
            }
        }

        let sub = ConnectivitySubstrate {
            n,
            hops,
            component,
            component_sizes,
            component_bits,
            words_per_row,
        };
        #[cfg(feature = "debug-validate")]
        for u in 0..n {
            for (v, fresh) in crate::bfs_hops(g, u).into_iter().enumerate() {
                assert_eq!(
                    sub.hops(u, v),
                    fresh,
                    "debug-validate: substrate hop ({u}, {v}) diverges from BFS"
                );
            }
        }
        Ok(sub)
    }

    /// Number of nodes of the indexed graph.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Hop distance between `u` and `v`, `None` when unreachable.
    ///
    /// # Panics
    ///
    /// Panics if `u` or `v` is out of range.
    #[inline]
    pub fn hops(&self, u: usize, v: usize) -> Option<Hops> {
        assert!(u < self.n && v < self.n, "node out of range");
        match self.hops[u * self.n + v] {
            UNREACHABLE_HOPS => None,
            d => Some(Hops::from(d)),
        }
    }

    /// The raw `u16` hop row of `u` ([`UNREACHABLE_HOPS`] = no path),
    /// one entry per node.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    #[inline]
    pub fn hop_row(&self, u: usize) -> &[u16] {
        &self.hops[u * self.n..(u + 1) * self.n]
    }

    /// Whether `u` and `v` share a component (one bit test).
    ///
    /// # Panics
    ///
    /// Panics if `u` or `v` is out of range.
    #[inline]
    pub fn reachable(&self, u: usize, v: usize) -> bool {
        let row = self.reachability_row(u);
        row[v / 64] & (1u64 << (v % 64)) != 0
    }

    /// The membership bitset of `u`'s component: bit `v` set iff `v`
    /// is reachable from `u` (including `u` itself).
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    #[inline]
    pub fn reachability_row(&self, u: usize) -> &[u64] {
        let c = self.component[u] as usize;
        &self.component_bits[c * self.words_per_row..(c + 1) * self.words_per_row]
    }

    /// Dense component id of `u` (components numbered by smallest
    /// member).
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    #[inline]
    pub fn component_of(&self, u: usize) -> usize {
        self.component[u] as usize
    }

    /// Number of connected components.
    #[inline]
    pub fn num_components(&self) -> usize {
        self.component_sizes.len()
    }

    /// Number of nodes in `u`'s component (≥ 1: `u` counts itself).
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    #[inline]
    pub fn component_size(&self, u: usize) -> usize {
        self.component_sizes[self.component[u] as usize] as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{bfs_hops, connected_components};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

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

    /// The location graph of a `cols × rows` grid of 300 m cells at
    /// 600 m range (cells at most two steps apart are linked), less the
    /// links `severed` rejects.
    fn range_grid(cols: usize, rows: usize, severed: impl Fn(usize, usize) -> bool) -> Graph {
        let mut g = Graph::new(cols * rows);
        for (r, c) in (0..rows).flat_map(|r| (0..cols).map(move |c| (r, c))) {
            for (dr, dc) in [(0i64, 1i64), (0, 2), (1, -1), (1, 0), (1, 1), (2, 0)] {
                let (r2, c2) = (r as i64 + dr, c as i64 + dc);
                if (0..rows as i64).contains(&r2) && (0..cols as i64).contains(&c2) {
                    let (u, v) = (r * cols + c, r2 as usize * cols + c2 as usize);
                    if !severed(u, v) {
                        g.add_edge(u, v);
                    }
                }
            }
        }
        g
    }

    #[test]
    fn hops_match_bfs_everywhere() {
        let mut rng = SmallRng::seed_from_u64(64);
        let mut graphs = vec![
            grid_graph(4, 3),
            Graph::from_edges(7, [(0, 1), (1, 2), (4, 5), (5, 6), (4, 6)]),
            Graph::new(3),
            Graph::new(0),
            // Isolated nodes and several components across two batches.
            Graph::from_edges(
                100,
                (0..30)
                    .map(|v| (v, v + 1))
                    .chain((40..50).map(|v| (v, 99 - v)))
                    .chain([(70, 71), (71, 72)]),
            ),
            range_grid(20, 8, |u, v| (u * 7 + v) % 5 == 0),
        ];
        // Around the 64-source batch edges: a path (one layer per
        // node) and sparse random graphs.
        for n in [63, 64, 65, 129] {
            graphs.push(Graph::from_edges(n, (1..n).map(|v| (v - 1, v))));
            let mut g = Graph::new(n);
            for _ in 0..n {
                let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
                if u != v && !g.has_edge(u, v) {
                    g.add_edge(u, v);
                }
            }
            graphs.push(g);
        }
        for g in graphs {
            let sub = ConnectivitySubstrate::build(&g).unwrap();
            for u in 0..g.num_nodes() {
                let fresh = bfs_hops(&g, u);
                for (v, &expected) in fresh.iter().enumerate() {
                    assert_eq!(
                        sub.hops(u, v),
                        expected,
                        "({u}, {v}) of {} nodes",
                        g.num_nodes()
                    );
                }
            }
        }
    }

    #[test]
    fn components_and_reachability_agree() {
        let g = Graph::from_edges(8, [(0, 1), (1, 2), (3, 4), (6, 7)]);
        let sub = ConnectivitySubstrate::build(&g).unwrap();
        let comps = connected_components(&g);
        assert_eq!(sub.num_components(), comps.len());
        for (id, comp) in comps.iter().enumerate() {
            for &v in comp {
                assert_eq!(sub.component_of(v), id);
                assert_eq!(sub.component_size(v), comp.len());
            }
        }
        for u in 0..8 {
            for v in 0..8 {
                assert_eq!(
                    sub.reachable(u, v),
                    sub.hops(u, v).is_some(),
                    "reachable({u}, {v})"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn hop_query_rejects_out_of_range() {
        let sub = ConnectivitySubstrate::build(&Graph::new(2)).unwrap();
        let _ = sub.hops(0, 5);
    }

    #[test]
    fn node_limit_boundary() {
        // At and above u16::MAX nodes the build is a typed error, not a
        // panic. Only the error side is exercised at the boundary: the
        // check must reject the graph *before* allocating anything (a
        // hop matrix for the largest legal graph is already ~8.6 GB,
        // far beyond what a test should touch), so an instant failure
        // here also proves the fail-fast ordering.
        let max = UNREACHABLE_HOPS as usize - 1;
        for n in [max + 1, max + 2, max + 1000] {
            assert_eq!(
                ConnectivitySubstrate::build(&Graph::new(n)).unwrap_err(),
                SubstrateError::TooManyNodes { nodes: n, max },
            );
        }
        assert!(
            ConnectivitySubstrate::build(&Graph::new(max + 1))
                .unwrap_err()
                .to_string()
                .contains("at most 65534 nodes"),
            "error message names the documented limit"
        );
    }
}
