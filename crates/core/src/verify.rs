//! Differential verification harness.
//!
//! The repo carries several *pairs* of independent implementations of
//! the same quantity — the incremental matching vs the literal Lemma 1
//! max-flow, the streaming vs the materialized subset sweep, the
//! closed-form relay bound vs its `Σ Q_h` derivation, and the
//! approximation vs the brute-force optimum. This module turns each
//! pair into an executable **differential oracle**: run both sides,
//! compare, and report any divergence as a typed [`VerifyError`]
//! instead of silently trusting one implementation.
//!
//! Faults (killed UAVs, severed links, user surges) have no harness of
//! their own: they are [`Delta`]s, repaired by [`SolverLoop::apply`]
//! and checked by oracle 7 ([`check_incremental`]).
//!
//! The cheap oracle checks are additionally wired into the hot paths
//! behind the `debug-validate` cargo feature (see
//! [`crate::solution::score_deployment`], [`connect_via_mst`] and the
//! solver crates), so any CI run with that feature cross-checks every
//! deployment the algorithms score.

use crate::approx::{
    approx_alg, approx_alg_materialized, approx_alg_with_stats, build_substrate, next_combination,
    ApproxConfig, KernelCounts,
};
use crate::assign::{assign_users, assign_users_max_flow};
use crate::connecting::{
    connect_via_mst, connect_via_substrate, extend_to_gateway, extend_to_gateway_substrate,
};
use crate::exact::exact_optimum;
use crate::incremental::{Delta, LoopConfig, SolverLoop};
use crate::solution::Solution;
use crate::strategy::{served_ceiling, SearchContext, SeedStrategyKind, DEFAULT_BEAM_WIDTH};
use crate::{CoreError, Instance, SegmentPlan};
use std::error::Error;
use std::fmt;
use uavnet_geom::CellIndex;
use uavnet_graph::{bfs_hops, ConnectivitySubstrate, UNREACHABLE_HOPS};

/// A divergence found by one of the differential oracles.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum VerifyError {
    /// The incremental matching and the Lemma 1 max-flow disagree on
    /// the optimal served-user count for the same deployment.
    AssignmentMismatch {
        /// Served count from [`assign_users`].
        matching: usize,
        /// Served count from [`assign_users_max_flow`].
        max_flow: usize,
    },
    /// An assignment's per-station loads do not sum to its served
    /// count (an internally inconsistent result).
    LoadSumMismatch {
        /// Which oracle produced it (`"matching"` / `"max-flow"`).
        oracle: &'static str,
        /// Sum of the per-placement loads.
        load_sum: usize,
        /// Claimed served count.
        served: usize,
    },
    /// The streaming and the materialized subset sweep disagree.
    SweepMismatch {
        /// Which deterministic field diverged.
        field: &'static str,
        /// Value from the streaming sweep.
        streaming: String,
        /// Value from the materialized reference.
        materialized: String,
    },
    /// The closed-form relay bound `g` (Eq. 2) disagrees with its
    /// unsimplified `Σ Q_h` derivation (Lemma 2, inequality 4).
    RelayBoundMismatch {
        /// The segment sizes `p_1 … p_{s+1}`.
        p: Vec<usize>,
        /// [`crate::g_upper_bound`] value.
        closed_form: usize,
        /// [`crate::g_via_q_sums`] value.
        q_sum: usize,
    },
    /// The substrate-backed connection path (precomputed hop rows for
    /// every distance decision) diverged from the brute-force per-call
    /// BFS on the same node set.
    ConnectionMismatch {
        /// Which stage diverged (`"hops"`, `"connection"`,
        /// `"gateway_extension"`).
        stage: &'static str,
        /// The node set the two implementations were given.
        nodes: Vec<usize>,
        /// Result from the substrate-backed implementation.
        substrate: String,
        /// Result from the brute-force BFS implementation.
        brute_force: String,
    },
    /// The connectivity substrate could not be built for the
    /// instance's location graph, so the substrate-vs-BFS oracle has
    /// nothing to compare against.
    Substrate(uavnet_graph::SubstrateError),
    /// The incremental solver loop diverged from a cold rescore of
    /// the same placements on the mutated instance (oracle 7).
    IncrementalMismatch {
        /// Which quantity diverged (`"served_users"`).
        field: &'static str,
        /// Value maintained incrementally by the solver loop.
        incremental: String,
        /// Value from the cold rescore.
        cold: String,
    },
    /// The approximation fell below the proven Theorem 1 floor
    /// `served · 3Δ ≥ OPT` (or exceeded the optimum).
    RatioViolated {
        /// Users served by the approximation.
        served: usize,
        /// The brute-force optimum.
        opt: usize,
        /// The plan's `Δ`.
        delta: usize,
    },
    /// A non-value-preserving seed strategy's served count fell below
    /// the committed quality floor relative to full enumeration
    /// (oracle 8).
    StrategyQualityViolated {
        /// The guided strategy's stable name.
        strategy: &'static str,
        /// Users served by the guided strategy.
        served: usize,
        /// Users served by exhaustive enumeration.
        exhaustive: usize,
    },
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::AssignmentMismatch { matching, max_flow } => write!(
                f,
                "matching served {matching} users but max-flow served {max_flow}"
            ),
            VerifyError::LoadSumMismatch {
                oracle,
                load_sum,
                served,
            } => write!(
                f,
                "{oracle} assignment loads sum to {load_sum} but claims {served} served"
            ),
            VerifyError::SweepMismatch {
                field,
                streaming,
                materialized,
            } => write!(
                f,
                "subset sweep diverged on {field}: streaming {streaming} vs materialized {materialized}"
            ),
            VerifyError::RelayBoundMismatch { p, closed_form, q_sum } => write!(
                f,
                "relay bound for p={p:?}: closed form {closed_form} vs Q-sum {q_sum}"
            ),
            VerifyError::ConnectionMismatch {
                stage,
                nodes,
                substrate,
                brute_force,
            } => write!(
                f,
                "substrate connection diverged at {stage} for nodes {nodes:?}: \
                 substrate {substrate} vs brute-force {brute_force}"
            ),
            VerifyError::Substrate(e) => {
                write!(f, "connection oracle could not build its substrate: {e}")
            }
            VerifyError::IncrementalMismatch {
                field,
                incremental,
                cold,
            } => write!(
                f,
                "incremental solver diverged on {field}: incremental {incremental} vs cold {cold}"
            ),
            VerifyError::RatioViolated { served, opt, delta } => write!(
                f,
                "served {served} violates the 1/(3Δ) guarantee against opt {opt} (Δ = {delta})"
            ),
            VerifyError::StrategyQualityViolated {
                strategy,
                served,
                exhaustive,
            } => write!(
                f,
                "{strategy} strategy served {served} users, below the committed \
                 {STRATEGY_QUALITY_NUM}·(served+1) ≥ {STRATEGY_QUALITY_DEN}·exhaustive \
                 floor against exhaustive's {exhaustive}"
            ),
        }
    }
}

impl Error for VerifyError {}

/// Differential oracle 1 — Lemma 1: the incremental capacitated
/// matching ([`assign_users`]) and the literal max-flow construction
/// ([`assign_users_max_flow`]) must agree on the optimal served count,
/// and each must be internally consistent (loads summing to the
/// served count).
///
/// Individual user→UAV arcs may legitimately differ (multiple optima);
/// only the optimum value and the bookkeeping invariants are compared.
///
/// # Errors
///
/// [`VerifyError::AssignmentMismatch`] / [`VerifyError::LoadSumMismatch`].
///
/// # Panics
///
/// Panics if a placement references an out-of-range UAV or location
/// (same contract as the two assignment functions).
pub fn check_assignment_oracles(
    instance: &Instance,
    placements: &[(usize, CellIndex)],
) -> Result<(), VerifyError> {
    let a = assign_users(instance, placements);
    let b = assign_users_max_flow(instance, placements);
    let sum_a: usize = a.loads.iter().map(|&l| l as usize).sum();
    let sum_b: usize = b.loads.iter().map(|&l| l as usize).sum();
    if sum_a != a.served {
        return Err(VerifyError::LoadSumMismatch {
            oracle: "matching",
            load_sum: sum_a,
            served: a.served,
        });
    }
    if sum_b != b.served {
        return Err(VerifyError::LoadSumMismatch {
            oracle: "max-flow",
            load_sum: sum_b,
            served: b.served,
        });
    }
    if a.served != b.served {
        return Err(VerifyError::AssignmentMismatch {
            matching: a.served,
            max_flow: b.served,
        });
    }
    Ok(())
}

/// Differential oracle 2 — the streaming subset sweep against the
/// materialized sequential reference, which evaluates every chain
/// survivor without a gain memo: the solution, the winning seeds, the
/// plan, the pool size and the enumeration size must be bit-for-bit
/// identical, and the reference's `gain_memo_hits` must be zero.
///
/// When the sweep skipped no rank above its watermark, the subset
/// counters, `gain_queries` and the greedy and connection fields of
/// `kernel` must be identical too. The two matching counters
/// (`matching_bfs_restarts`, `matching_prepass_hits`) count only the
/// trial insertions that ran, and the memo's answers are exactly the
/// trial insertions the sweep skips: each must be at most the
/// reference's, and equal to it when the memo answered nothing.
///
/// Otherwise the sweep must have stopped exactly at the first subset
/// serving `min(Σ capacities, n)`, at rank `W = enumerated −
/// bound_pruned − 1`: the solution serves that ceiling, the winning
/// seeds are the combination at rank `W`, exactly `evaluated − 1` chain
/// survivors lie below `W`, and `evaluated + chain_pruned +
/// bound_pruned == enumerated`.
///
/// # Errors
///
/// [`VerifyError::SweepMismatch`] naming the first diverging field;
/// propagates solver errors ([`CoreError`]) unchanged.
pub fn check_sweep_oracles(instance: &Instance, config: &ApproxConfig) -> Result<(), CoreError> {
    let (sol, stats) = approx_alg_with_stats(instance, config)?;
    let (ref_sol, ref_stats) = approx_alg_materialized(instance, config)?;
    let mismatch = |field: &'static str, s: String, m: String| {
        Err(CoreError::Verification(VerifyError::SweepMismatch {
            field,
            streaming: s,
            materialized: m,
        }))
    };
    let exact = [
        (
            "placements",
            format!("{:?}", sol.deployment().placements()),
            format!("{:?}", ref_sol.deployment().placements()),
        ),
        (
            "served",
            sol.served_users().to_string(),
            ref_sol.served_users().to_string(),
        ),
        (
            "best_seeds",
            format!("{:?}", stats.best_seeds),
            format!("{:?}", ref_stats.best_seeds),
        ),
        (
            "plan",
            format!("{:?}", stats.plan),
            format!("{:?}", ref_stats.plan),
        ),
        (
            "seed_pool_size",
            stats.seed_pool_size.to_string(),
            ref_stats.seed_pool_size.to_string(),
        ),
        (
            "subsets_enumerated",
            stats.subsets_enumerated.to_string(),
            ref_stats.subsets_enumerated.to_string(),
        ),
    ];
    for (field, s, m) in exact {
        if s != m {
            return mismatch(field, s, m);
        }
    }
    if ref_stats.kernel.gain_memo_hits != 0 {
        return mismatch(
            "kernel.gain_memo_hits of the memo-free reference",
            "0".to_string(),
            ref_stats.kernel.gain_memo_hits.to_string(),
        );
    }
    if stats.subsets_bound_pruned > 0 {
        let ceiling = served_ceiling(instance);
        if sol.served_users() != ceiling {
            return mismatch(
                "served",
                sol.served_users().to_string(),
                ceiling.to_string(),
            );
        }
        let accounted =
            stats.subsets_evaluated + stats.subsets_chain_pruned + stats.subsets_bound_pruned;
        if accounted != stats.subsets_enumerated {
            return mismatch(
                "evaluated + chain_pruned + bound_pruned",
                accounted.to_string(),
                ref_stats.subsets_enumerated.to_string(),
            );
        }
        // Recount the ranks below the watermark from the same pool and
        // chain tables the sweep used.
        let Some(w) = (stats.subsets_enumerated - stats.subsets_bound_pruned).checked_sub(1) else {
            return mismatch(
                "subsets_bound_pruned",
                stats.subsets_bound_pruned.to_string(),
                "fewer than enumerated".to_string(),
            );
        };
        let substrate = build_substrate(instance)?;
        let ctx = SearchContext::new(instance, config, &stats.plan, &substrate);
        let mut combo: Vec<usize> = (0..config.s()).collect();
        let mut survivors_below = 0usize;
        for _ in 0..w {
            survivors_below += usize::from(ctx.chain_feasible(&combo));
            next_combination(&mut combo, ctx.pool.len());
        }
        let seeds_at_w: Vec<CellIndex> = combo.iter().map(|&i| ctx.pool[i]).collect();
        if stats.best_seeds.as_ref() != Some(&seeds_at_w) {
            return mismatch(
                "best_seeds",
                format!("{:?}", stats.best_seeds),
                format!("{seeds_at_w:?} at rank {w}"),
            );
        }
        if stats.subsets_evaluated != survivors_below + 1 {
            return mismatch(
                "subsets_evaluated",
                stats.subsets_evaluated.to_string(),
                format!("{} (chain survivors through rank {w})", survivors_below + 1),
            );
        }
        return Ok(());
    }
    for (field, s, m) in [
        (
            "subsets_chain_pruned",
            stats.subsets_chain_pruned,
            ref_stats.subsets_chain_pruned,
        ),
        (
            "subsets_evaluated",
            stats.subsets_evaluated,
            ref_stats.subsets_evaluated,
        ),
        (
            "subsets_unconnectable",
            stats.subsets_unconnectable,
            ref_stats.subsets_unconnectable,
        ),
        (
            "gain_queries",
            stats.gain_queries as usize,
            ref_stats.gain_queries as usize,
        ),
    ] {
        if s != m {
            return mismatch(field, s.to_string(), m.to_string());
        }
    }
    let (k, r) = (stats.kernel, ref_stats.kernel);
    // Only the matching work behind the memo's answers may differ.
    let memo_free = KernelCounts {
        gain_memo_hits: 0,
        matching_bfs_restarts: r.matching_bfs_restarts,
        matching_prepass_hits: r.matching_prepass_hits,
        ..k
    };
    if memo_free != r {
        return mismatch("kernel", format!("{k:?}"), format!("{r:?}"));
    }
    for (field, s, m) in [
        (
            "kernel.matching_bfs_restarts",
            k.matching_bfs_restarts,
            r.matching_bfs_restarts,
        ),
        (
            "kernel.matching_prepass_hits",
            k.matching_prepass_hits,
            r.matching_prepass_hits,
        ),
    ] {
        if s > m || (k.gain_memo_hits == 0 && s != m) {
            return mismatch(field, s.to_string(), m.to_string());
        }
    }
    Ok(())
}

/// Numerator of the committed quality floor for non-value-preserving
/// seed strategies: `NUM · (served + 1) ≥ DEN · served_exhaustive`.
/// The `+1` absorbs rounding on tiny instances where a single user is
/// a large fraction of the optimum; the ratio itself (3/4) was chosen
/// against measured quick-scale beam results, which sit at parity with
/// exhaustive enumeration (see EXPERIMENTS.md).
pub const STRATEGY_QUALITY_NUM: usize = 4;
/// Denominator of the committed quality floor; see
/// [`STRATEGY_QUALITY_NUM`].
pub const STRATEGY_QUALITY_DEN: usize = 3;

/// Differential oracle 8 — the beam against exhaustive enumeration, on
/// the same instance and configuration (oracle 2 already pins the
/// exhaustive sweep to the unpruned reference):
///
/// * the beam (at [`DEFAULT_BEAM_WIDTH`]) must serve at least the
///   committed quality fraction of the exhaustive count
///   (`4·(served+1) ≥ 3·exhaustive`);
/// * on instances small enough for [`exact_optimum`], both must
///   additionally clear the integer Theorem 1 floor
///   `served · 3Δ ≥ OPT`.
///
/// The incoming `config`'s own strategy setting is ignored — each side
/// of every comparison pins its strategy explicitly.
///
/// # Errors
///
/// [`VerifyError::StrategyQualityViolated`] /
/// [`VerifyError::RatioViolated`] wrapped in [`CoreError`]; solver
/// errors propagate unchanged.
pub fn check_strategy_quality(instance: &Instance, config: &ApproxConfig) -> Result<(), CoreError> {
    let base = config.clone().seed_strategy(SeedStrategyKind::Exhaustive);
    let (exh, exh_stats) = approx_alg_with_stats(instance, &base)?;

    let beam_config = base.clone().seed_strategy(SeedStrategyKind::Beam {
        width: DEFAULT_BEAM_WIDTH,
    });
    let (beam, _) = approx_alg_with_stats(instance, &beam_config)?;
    if STRATEGY_QUALITY_NUM * (beam.served_users() + 1) < STRATEGY_QUALITY_DEN * exh.served_users()
    {
        return Err(CoreError::Verification(
            VerifyError::StrategyQualityViolated {
                strategy: "beam",
                served: beam.served_users(),
                exhaustive: exh.served_users(),
            },
        ));
    }

    if instance.num_locations() <= 16 && instance.num_uavs() <= 4 {
        let opt = exact_optimum(instance)?;
        let delta = exh_stats.plan.delta();
        for sol in [&exh, &beam] {
            if !theorem1_ratio_holds(sol.served_users(), opt.served_users(), delta) {
                return Err(CoreError::Verification(VerifyError::RatioViolated {
                    served: sol.served_users(),
                    opt: opt.served_users(),
                    delta,
                }));
            }
        }
    }
    Ok(())
}

/// Differential oracle 3 — Lemma 2's algebra: the closed-form relay
/// bound [`crate::g_upper_bound`] must equal the direct
/// `s + Σ middle + Σ_{h≥1} Q_h` evaluation
/// ([`crate::g_via_q_sums`]) for the given segment sizes.
///
/// # Errors
///
/// [`VerifyError::RelayBoundMismatch`].
///
/// # Panics
///
/// Panics if `p` has fewer than two entries (same contract as the
/// bound functions themselves).
pub fn check_relay_bound(p: &[usize]) -> Result<(), VerifyError> {
    let s = p.len() - 1;
    let l = p.iter().sum::<usize>() + s;
    let closed_form = crate::g_upper_bound(p);
    let q_sum = crate::g_via_q_sums(l, p);
    if closed_form != q_sum {
        return Err(VerifyError::RelayBoundMismatch {
            p: p.to_vec(),
            closed_form,
            q_sum,
        });
    }
    Ok(())
}

/// Theorem 1's guarantee `served ≥ OPT / (3Δ)`, checked in pure
/// integer arithmetic as `served · 3 · Δ ≥ OPT` (saturating, so huge
/// inputs err on the accepting side rather than overflowing). The
/// float-floor formulation this replaces could demand one user too
/// many when `OPT` is an exact multiple of `3Δ`.
pub fn theorem1_ratio_holds(served: usize, opt: usize, delta: usize) -> bool {
    served.saturating_mul(3).saturating_mul(delta) >= opt
}

/// Differential oracle 4 — the approximation against the brute-force
/// optimum on a small instance: `approx ≤ OPT` and the Theorem 1
/// floor `approx · 3Δ ≥ OPT` must both hold.
///
/// Returns the `(approx, optimum)` pair on success so callers can
/// report the realized ratio.
///
/// # Errors
///
/// [`VerifyError::RatioViolated`] (wrapped in [`CoreError`]) on a
/// violated guarantee; [`CoreError::InvalidParameters`] when the
/// instance exceeds the exact solver's guards (`m > 16` or `K > 4`).
pub fn check_against_exact(
    instance: &Instance,
    config: &ApproxConfig,
) -> Result<(Solution, Solution), CoreError> {
    let opt = exact_optimum(instance)?;
    let apx = approx_alg(instance, config)?;
    let plan = SegmentPlan::optimal(instance.num_uavs(), config.s())?;
    let delta = plan.delta();
    if apx.served_users() > opt.served_users()
        || !theorem1_ratio_holds(apx.served_users(), opt.served_users(), delta)
    {
        return Err(VerifyError::RatioViolated {
            served: apx.served_users(),
            opt: opt.served_users(),
            delta,
        }
        .into());
    }
    Ok((apx, opt))
}

/// Differential oracle 5 — the connectivity substrate against fresh
/// BFS, on concrete node sets: for every node mentioned in
/// `node_sets`, the substrate's precomputed hop row must equal a fresh
/// [`bfs_hops`] run, and for every set the substrate-backed relay
/// connection ([`connect_via_substrate`]) and gateway extension
/// ([`extend_to_gateway_substrate`]) must reproduce the brute-force
/// results ([`connect_via_mst`] / [`extend_to_gateway`]) bit-for-bit —
/// same relay cells in the same order, or the same typed error.
///
/// Exact equality — not just equal cost — is the contract: every
/// distance decision reads values that are identical by construction,
/// and the few actual path extractions go through the shared
/// [`uavnet_graph::shortest_path`] BFS on both sides.
///
/// # Errors
///
/// [`VerifyError::ConnectionMismatch`] naming the first diverging
/// stage (`"hops"`, `"connection"`, or `"gateway_extension"`);
/// [`VerifyError::Substrate`] if the location graph exceeds the
/// substrate's node limit.
///
/// # Panics
///
/// Panics if a node set mentions a cell outside the instance's grid.
pub fn check_connection_substrate(
    instance: &Instance,
    node_sets: &[Vec<CellIndex>],
) -> Result<(), VerifyError> {
    let graph = instance.location_graph();
    let sub = ConnectivitySubstrate::build(graph).map_err(VerifyError::Substrate)?;
    let mut gateway_cells = instance.gateway_cells();
    gateway_cells.sort_unstable();
    for nodes in node_sets {
        for &v in nodes {
            let fresh = bfs_hops(graph, v);
            let row = sub.hop_row(v);
            let diverged = fresh.iter().zip(row.iter()).position(|(f, &r)| {
                let r = (r != UNREACHABLE_HOPS).then_some(u32::from(r));
                *f != r
            });
            if let Some(w) = diverged {
                return Err(VerifyError::ConnectionMismatch {
                    stage: "hops",
                    nodes: nodes.clone(),
                    substrate: format!("row[{v}][{w}] = {:?}", row[w]),
                    brute_force: format!("bfs_hops[{v}][{w}] = {:?}", fresh[w]),
                });
            }
        }
        let via_sub = connect_via_substrate(graph, &sub, nodes);
        let via_bfs = connect_via_mst(graph, nodes);
        if via_sub != via_bfs {
            return Err(VerifyError::ConnectionMismatch {
                stage: "connection",
                nodes: nodes.clone(),
                substrate: format!("{via_sub:?}"),
                brute_force: format!("{via_bfs:?}"),
            });
        }
        // Exercise the gateway extension on whatever the connection
        // produced (union of endpoints and relays), mirroring how the
        // sweep chains the two calls.
        if let Ok(relays) = via_bfs {
            let mut all: Vec<usize> = nodes.iter().copied().chain(relays).collect();
            all.sort_unstable();
            all.dedup();
            let ext_sub = extend_to_gateway_substrate(graph, &sub, &all, &gateway_cells);
            let ext_bfs =
                extend_to_gateway(graph, &all, |v| gateway_cells.binary_search(&v).is_ok());
            if ext_sub != ext_bfs {
                return Err(VerifyError::ConnectionMismatch {
                    stage: "gateway_extension",
                    nodes: nodes.clone(),
                    substrate: format!("{ext_sub:?}"),
                    brute_force: format!("{ext_bfs:?}"),
                });
            }
        }
    }
    Ok(())
}

/// Runs the full differential battery appropriate for `instance` in
/// one call: the sweep oracle pair, the relay-bound algebra for the
/// plan's segment sizes, the
/// assignment oracle pair on the winning deployment, the
/// substrate-vs-BFS connection oracle on the winning
/// locations, and independent [`Solution::validate`]. Small
/// instances (within the exact solver's guards) additionally get the
/// exact-vs-approx ratio check.
///
/// Returns the verified solution.
///
/// # Errors
///
/// The first failing oracle as a [`CoreError`].
pub fn verify_pipeline(instance: &Instance, config: &ApproxConfig) -> Result<Solution, CoreError> {
    let _span = uavnet_obs::phases::VERIFY.span();
    tally(check_sweep_oracles(instance, config))?;
    let (sol, stats) = approx_alg_with_stats(instance, config)?;
    tally(check_relay_bound(stats.plan.p()).map_err(CoreError::from))?;
    tally(
        check_assignment_oracles(instance, sol.deployment().placements()).map_err(CoreError::from),
    )?;
    let mut winning_locs: Vec<CellIndex> = sol
        .deployment()
        .placements()
        .iter()
        .map(|&(_, loc)| loc)
        .collect();
    winning_locs.sort_unstable();
    winning_locs.dedup();
    tally(check_connection_substrate(instance, &[winning_locs]).map_err(CoreError::from))?;
    tally(sol.validate(instance).map_err(CoreError::from))?;
    if instance.num_locations() <= 16 && instance.num_uavs() <= 4 {
        tally(check_against_exact(instance, config).map(|_| ()))?;
    }
    Ok(sol)
}

/// Counts one oracle check (and its failure, if any) into the active
/// obs session, passing the result through unchanged.
fn tally<T>(result: Result<T, CoreError>) -> Result<T, CoreError> {
    uavnet_obs::counters::VERIFY_CHECKS.add(1);
    if result.is_err() {
        uavnet_obs::counters::VERIFY_FAILURES.add(1);
    }
    result
}

/// Verify oracle 7: drives a [`SolverLoop`] from a cold solve through
/// `deltas`, and after **every** delta checks the incremental state
/// against a cold rescore of the same placements on the mutated
/// instance — served counts must be equal (the maximum matching value
/// is unique) and the materialized incremental solution must pass
/// independent validation.
///
/// # Errors
///
/// * [`VerifyError::IncrementalMismatch`] (as
///   [`CoreError::Verification`]) on a served-count divergence;
/// * [`CoreError::Validation`] if the incremental solution fails
///   validation;
/// * any typed error of the loop itself (e.g. [`CoreError::Connect`]
///   for an unrepairable delta) — propagated, never a panic.
pub fn check_incremental(
    instance: &Instance,
    config: &ApproxConfig,
    deltas: &[Delta],
) -> Result<(), CoreError> {
    tally(check_incremental_inner(instance, config, deltas))
}

fn check_incremental_inner(
    instance: &Instance,
    config: &ApproxConfig,
    deltas: &[Delta],
) -> Result<(), CoreError> {
    let mut solver = SolverLoop::new(instance.clone(), LoopConfig::new(config.clone()))?;
    for delta in deltas {
        solver.apply(delta.clone())?;
        let cold = solver.cold_rescore()?;
        if solver.served_users() != cold.served_users() {
            return Err(CoreError::from(VerifyError::IncrementalMismatch {
                field: "served_users",
                incremental: solver.served_users().to_string(),
                cold: cold.served_users().to_string(),
            }));
        }
        solver.solution().validate(solver.instance())?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use uavnet_channel::UavRadio;
    use uavnet_geom::{AreaSpec, GridSpec, Point2};

    fn instance_3x3(uav_range: f64, caps: &[u32]) -> Instance {
        let grid = GridSpec::new(AreaSpec::new(900.0, 900.0, 500.0).unwrap(), 300.0, 300.0)
            .unwrap()
            .build();
        let mut b = Instance::builder(grid, uav_range);
        b.add_user(Point2::new(150.0, 150.0), 2_000.0);
        b.add_user(Point2::new(160.0, 150.0), 2_000.0);
        b.add_user(Point2::new(450.0, 450.0), 2_000.0);
        b.add_user(Point2::new(750.0, 750.0), 2_000.0);
        for &c in caps {
            b.add_uav(c, UavRadio::new(30.0, 5.0, 350.0));
        }
        b.build().unwrap()
    }

    #[test]
    fn assignment_oracles_agree_on_varied_deployments() {
        let inst = instance_3x3(450.0, &[2, 2, 1]);
        for placements in [
            vec![],
            vec![(0usize, 0usize)],
            vec![(0, 0), (1, 4)],
            vec![(2, 8), (0, 0), (1, 4)],
        ] {
            check_assignment_oracles(&inst, &placements).unwrap();
        }
    }

    #[test]
    fn relay_bound_oracle_accepts_lemma2_algebra() {
        for p in [
            vec![0usize, 0],
            vec![1, 2, 2, 2],
            vec![5, 3],
            vec![0, 4, 4, 0],
            vec![3, 3, 3, 3, 3],
        ] {
            check_relay_bound(&p).unwrap();
        }
    }

    #[test]
    fn ratio_check_is_integer_exact() {
        // served = 2, opt = 6, Δ = 1: 2·3·1 = 6 ≥ 6 — exactly on the
        // floor must PASS (the float-floor version rejected this).
        assert!(theorem1_ratio_holds(2, 6, 1));
        assert!(!theorem1_ratio_holds(1, 6, 1)); // 3 < 6
        assert!(theorem1_ratio_holds(0, 0, 3)); // degenerate: no users
        assert!(theorem1_ratio_holds(usize::MAX / 2, usize::MAX, 7)); // saturates
    }

    #[test]
    fn sweep_and_exact_oracles_pass_on_a_small_instance() {
        let inst = instance_3x3(450.0, &[2, 1]);
        let config = ApproxConfig::with_s(1).threads(2);
        check_sweep_oracles(&inst, &config).unwrap();
        let (apx, opt) = check_against_exact(&inst, &config).unwrap();
        assert!(apx.served_users() <= opt.served_users());
        let sol = verify_pipeline(&inst, &config).unwrap();
        assert_eq!(sol.served_users(), apx.served_users());
    }

    #[test]
    fn connection_substrate_oracle_passes_on_varied_node_sets() {
        let inst = instance_3x3(450.0, &[2, 2, 1]);
        // Singletons, adjacent pairs, a spread triple needing relays,
        // and the full diagonal; all must agree with brute-force BFS
        // on hops, relay selection and gateway extension.
        check_connection_substrate(
            &inst,
            &[
                vec![0],
                vec![0, 1],
                vec![0, 8],
                vec![0, 4, 8],
                vec![2, 6],
                vec![0, 2, 6, 8],
            ],
        )
        .unwrap();
        // A short UAV range disconnects the location graph; the two
        // implementations must agree on the typed error too.
        let sparse = instance_3x3(250.0, &[2, 1]);
        check_connection_substrate(&sparse, &[vec![0, 8], vec![0], vec![3, 5]]).unwrap();
    }

    #[test]
    fn connection_mismatch_display_names_the_stage() {
        let err = VerifyError::ConnectionMismatch {
            stage: "connection",
            nodes: vec![0, 4],
            substrate: "Ok([0, 4, 2])".into(),
            brute_force: "Ok([0, 4, 1])".into(),
        };
        let msg = err.to_string();
        assert!(msg.contains("connection"), "{msg}");
        assert!(msg.contains("[0, 4]"), "{msg}");
    }
}
