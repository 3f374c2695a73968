//! Matroids and monotone submodular maximization (§II-E, §III-B/C of
//! the paper).
//!
//! The approximation algorithm casts UAV placement as maximizing a
//! monotone submodular coverage function subject to the intersection of
//! two matroids:
//!
//! * `M1` — a **partition matroid** over (UAV, location) pairs: each
//!   UAV occupies at most one location ([`PartitionMatroid`]);
//! * `M2` — a **hop-budget matroid** around the enumerated seed
//!   locations: at most `Q_h` chosen locations may be `≥ h` hops from
//!   the seeds, for every `h` (Eq. 1 of the paper). The sets
//!   `{v : d(v) ≥ h}` are nested, so these budgets define a matroid over
//!   a *chain* — implemented by [`NestedFamilyMatroid`].
//!
//! [`lazy_greedy`] implements the Fisher–Nemhauser–Wolsey greedy with
//! lazy (priority-queue) marginal evaluation, which achieves a
//! `1/(ρ+1)` approximation under `ρ` matroid constraints — `1/3` for
//! the paper's two matroids.
//!
//! # Examples
//!
//! ```
//! use uavnet_matroid::{Matroid, UniformMatroid};
//! let m = UniformMatroid::new(10, 3);
//! assert!(m.is_independent(&[0, 5, 9]));
//! assert!(!m.is_independent(&[0, 1, 2, 3]));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod greedy;
mod matroid;
mod nested;
mod partition;

pub use greedy::{
    lazy_greedy, lazy_greedy_with, GreedyCounts, GreedyOptions, LazyGreedyWorkspace, MarginalOracle,
};
pub use matroid::{check_axioms_exhaustive, Matroid, UniformMatroid};
pub use nested::NestedFamilyMatroid;
pub use partition::PartitionMatroid;
