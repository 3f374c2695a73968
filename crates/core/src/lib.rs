//! The maximum connected coverage problem for heterogeneous UAV
//! networks — the primary contribution of the reproduced paper.
//!
//! # Problem (§II-C)
//!
//! Deploy `K` heterogeneous UAVs (capacities `C_1 ≥ … ≥ C_K`, possibly
//! different radios) at candidate hovering locations on a grid so that
//! the number of served users is maximized, subject to:
//!
//! 1. each user is served by at most one UAV, within that UAV's
//!    coverage radius, at a data rate ≥ the user's minimum;
//! 2. UAV `k` serves at most `C_k` users;
//! 3. the deployed UAVs form a connected network under the UAV-to-UAV
//!    range `R_uav`.
//!
//! # What this crate provides
//!
//! * [`Instance`] — the problem input (grid, users, fleet, channels)
//!   with precomputed coverage tables and the location graph;
//! * [`assign_users`] — the **optimal** user assignment for a fixed
//!   deployment via integral max-flow (§II-D, Lemma 1);
//! * [`SegmentPlan`] — Algorithm 1: the optimal segment budget
//!   (`L_max`, `p*_1 … p*_{s+1}`) from the relay bound `g(…)` (Eq. 2,
//!   Lemma 2) and the hop budgets `Q_h` (Eq. 1);
//! * [`approx_alg`] — Algorithm 2, the `O(√(s/K))`-approximation:
//!   enumerate `s`-subsets of seed locations, run the two-matroid lazy
//!   greedy per subset, connect the chosen locations through an MST of
//!   shortest relay paths, and keep the best feasible deployment;
//! * [`Solution`] / [`Solution::validate`] — deployments with their
//!   assignments and an independent feasibility checker;
//! * [`exact_optimum`] — a brute-force reference for tiny instances,
//!   used by the test-suite to sanity-check the approximation ratio;
//! * the `verify` module — differential oracles over every redundant
//!   implementation pair (matching vs max-flow, streaming vs
//!   materialized sweep, closed-form vs `Σ Q_h` relay bound,
//!   substrate-backed vs per-call-BFS connection, approx vs exact with
//!   the Theorem 1 floor, incremental loop vs cold rescore); the
//!   hot-path cross-checks compile in under the `debug-validate` cargo
//!   feature;
//! * [`SolverLoop`] — the standing deployment that absorbs user moves,
//!   surges, UAV losses and link cuts ([`Delta`]) by localized repair:
//!   the one repair path, for the service and fault injection alike.
//!
//! # Examples
//!
//! ```
//! use uavnet_core::{ApproxConfig, Instance, approx_alg};
//! use uavnet_channel::{AtgChannel, UavRadio};
//! use uavnet_geom::{AreaSpec, GridSpec, Point2};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let grid = GridSpec::new(AreaSpec::new(900.0, 900.0, 500.0)?, 300.0, 300.0)?.build();
//! let mut builder = Instance::builder(grid, 600.0);
//! for i in 0..20 {
//!     builder.add_user(Point2::new(45.0 * i as f64, 400.0), 2_000.0);
//! }
//! builder.add_uav(8, UavRadio::new(30.0, 5.0, 500.0));
//! builder.add_uav(5, UavRadio::new(28.0, 4.0, 400.0));
//! let instance = builder.build()?;
//!
//! let solution = approx_alg(&instance, &ApproxConfig::with_s(1))?;
//! solution.validate(&instance)?;
//! assert!(solution.served_users() > 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod alg1;
mod approx;
mod assign;
mod connecting;
mod coverage;
mod error;
mod exact;
mod incremental;
mod model;
mod obs;
mod oracle;
mod seed_matroid;
mod segments;
mod solution;
mod strategy;
mod verify;

pub use alg1::SegmentPlan;
#[doc(hidden)]
pub use approx::approx_alg_materialized;
pub use approx::{
    approx_alg, approx_alg_sharded, approx_alg_with_stats, ApproxConfig, ApproxStats, KernelCounts,
    ShardConfig, SweepProfile,
};
pub use assign::{assign_users, assign_users_max_flow, Assignment};
pub use connecting::{
    connect_via_mst, connect_via_substrate, extend_to_gateway, extend_to_gateway_substrate,
    ConnectError,
};
pub use coverage::{CoverageMemory, CoverageTables};
pub use error::CoreError;
pub use exact::exact_optimum;
pub use incremental::{
    diff_deployments, Delta, DeltaOutcome, DeploymentDiff, LoopConfig, ResolveStats, SolverLoop,
};
pub use model::{Instance, InstanceBuilder, Uav, User};
pub use oracle::CoverageOracle;
pub use seed_matroid::{seed_matroid, seed_matroid_substrate};
pub use segments::{g_upper_bound, g_via_q_sums, h_max, q_budgets};
pub use solution::{
    score_deployment, try_score_deployment, Deployment, Solution, SolutionSummary, ValidationError,
};
pub use strategy::{SeedStrategyKind, DEFAULT_BEAM_WIDTH};
pub use verify::{
    check_against_exact, check_assignment_oracles, check_connection_substrate, check_incremental,
    check_relay_bound, check_strategy_quality, check_sweep_oracles, theorem1_ratio_holds,
    verify_pipeline, VerifyError, STRATEGY_QUALITY_DEN, STRATEGY_QUALITY_NUM,
};
