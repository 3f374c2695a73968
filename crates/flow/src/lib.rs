//! Integral maximum flow and capacitated bipartite matching.
//!
//! The optimal user-assignment subroutine of the paper (§II-D, Lemma 1)
//! is an integral max-flow problem on a 4-layer network
//! `s → users → deployed UAVs → t`, where user arcs have capacity 1 and
//! the arc from UAV `k` to `t` has capacity `C_k`. This crate provides:
//!
//! * [`FlowNetwork`] — a general Dinic max-flow solver with integral
//!   capacities. Arcs can be added *after* a flow has been computed and
//!   the flow re-augmented incrementally, which the deployment
//!   algorithms exploit when they grow the UAV set one location at a
//!   time;
//! * [`CapacitatedMatching`] — a specialized incremental structure for
//!   the same problem (unit-capacity users, capacitated stations) with
//!   cheap-rollback trial insertions, used by the lazy-greedy inner
//!   loop of Algorithm 2 to evaluate marginal coverage gains thousands
//!   of times without recomputing flows from scratch.
//!
//! The two implementations are cross-checked by property tests: for any
//! instance, the matching cardinality equals the max-flow value.
//!
//! # Examples
//!
//! ```
//! use uavnet_flow::FlowNetwork;
//!
//! // s=0, a=1, b=2, t=3 with a bottleneck of 3.
//! let mut net = FlowNetwork::new(4);
//! net.add_arc(0, 1, 5);
//! net.add_arc(1, 2, 3);
//! net.add_arc(2, 3, 5);
//! assert_eq!(net.max_flow(0, 3), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dinic;
mod matching;
mod users;

pub use dinic::{ArcId, FlowNetwork};
pub use matching::{CapacitatedMatching, MatchingCounts, StationId};
pub use users::{UserList, UserListIter};
