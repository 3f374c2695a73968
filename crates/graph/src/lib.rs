//! Graph substrate for `uavnet`: adjacency graphs, BFS hop metrics,
//! minimum spanning trees, Eulerian paths and connectivity utilities.
//!
//! The deployment algorithms in the paper operate on the *candidate
//! hovering location graph* `G[V]` — nodes are grid cells, edges join
//! cells whose centers are within the UAV communication range `R_uav`.
//! This crate provides everything the algorithms need over that graph:
//!
//! * [`Graph`] — a compact undirected adjacency-list graph;
//! * [`bfs_hops`] / [`multi_source_hops`] / [`shortest_path`] — hop
//!   metrics and path reconstruction (used for the matroid `M2` hop
//!   budgets and for expanding MST edges into relay paths);
//! * [`prim_mst`] — MST over a dense weight matrix (used to connect the
//!   greedily chosen locations, Fig. 3 of the paper);
//! * [`euler`] — Eulerian tours/paths over doubled spanning trees and the
//!   segment-splitting used in the approximation-ratio analysis (Fig. 2);
//! * [`ConnectivitySubstrate`] — a precomputed all-pairs hop matrix
//!   with component bitsets, built once per instance and shared
//!   read-only across sweep threads;
//! * [`UnionFind`] and connectivity helpers.
//!
//! # Examples
//!
//! ```
//! use uavnet_graph::{Graph, bfs_hops};
//!
//! let mut g = Graph::new(4);
//! g.add_edge(0, 1);
//! g.add_edge(1, 2);
//! let hops = bfs_hops(&g, 0);
//! assert_eq!(hops[2], Some(2));
//! assert_eq!(hops[3], None); // node 3 is unreachable
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adj;
mod bfs;
pub mod euler;
mod mst;
mod substrate;
mod unionfind;

pub use adj::Graph;
pub use bfs::{
    bfs_hops, connected_components, hop_distance, is_connected_subset, multi_source_hops,
    shortest_path,
};
pub use mst::{prim_mst, MstError};
pub use substrate::{ConnectivitySubstrate, SubstrateError, UNREACHABLE_HOPS};
pub use unionfind::UnionFind;

/// Hop count type: BFS layers are small, `u32` is ample.
pub type Hops = u32;
