//! Bridge from the solver's run statistics to the `uavnet-obs` facade.
//!
//! Every counted number has one owner: the sweep's [`ApproxStats`] /
//! [`SweepProfile`](crate::SweepProfile), which the kernels feed
//! through the workers' tallies, and the incremental loop's
//! [`DeltaOutcome`]. Those are the public stats API and stay
//! deterministic and thread-count invariant. This module derives the
//! obs counters and phases from them once per run or delta, so an
//! active obs session sees the same values the caller gets — nothing
//! is counted twice and nothing observable changes when no session is
//! recording. Apart from the verify battery's check tally, no other
//! solver code writes an obs counter.

use crate::approx::{ApproxConfig, ApproxStats};
use crate::incremental::DeltaOutcome;
use crate::solution::Solution;
use uavnet_obs::{counters, emit_run, phases};

/// Records one completed subset sweep into the active obs session:
/// folds the per-phase nanoseconds into the obs phases, bumps the
/// sweep counters and emits a `"sweep"` run event. No-op (down to an
/// empty inlined body without the `obs` feature) when no session is
/// active.
pub(crate) fn record_sweep(config: &ApproxConfig, stats: &ApproxStats, solution: &Solution) {
    if !uavnet_obs::session_active() {
        return;
    }
    counters::SWEEP_RUNS.add(1);
    counters::SWEEP_SUBSETS_ENUMERATED.add(stats.subsets_enumerated as u64);
    counters::SWEEP_SUBSETS_CHAIN_PRUNED.add(stats.subsets_chain_pruned as u64);
    counters::SWEEP_SUBSETS_EVALUATED.add(stats.subsets_evaluated as u64);
    counters::SWEEP_SUBSETS_UNCONNECTABLE.add(stats.subsets_unconnectable as u64);
    counters::SWEEP_GAIN_QUERIES.add(stats.gain_queries);
    let k = &stats.kernel;
    for (counter, n) in [
        (&counters::GREEDY_BOUND_HITS, k.greedy_bound_hits),
        (&counters::GREEDY_BOUND_RESEEDS, k.greedy_bound_reseeds),
        (&counters::GREEDY_COMMITS, k.greedy_commits),
        (&counters::GREEDY_GAIN_MEMO_HITS, k.gain_memo_hits),
        (&counters::MATCHING_BFS_RESTARTS, k.matching_bfs_restarts),
        (&counters::MATCHING_PREPASS_HITS, k.matching_prepass_hits),
        (&counters::CONNECT_MST_CONNECTIONS, k.mst_connections),
        (&counters::CONNECT_RELAYS_ADDED, k.relays_added),
        (&counters::CONNECT_GATEWAY_EXTENSIONS, k.gateway_extensions),
        (&counters::CONNECT_FAILURES, k.connect_failures),
    ] {
        counter.add(n);
    }
    // Every enumerative run records how many subsets it skipped above
    // its watermark; the guided-run counters belong to the beam.
    match config.strategy() {
        crate::strategy::SeedStrategyKind::Exhaustive => {
            counters::STRATEGY_BOUND_PRUNED.add(stats.subsets_bound_pruned as u64);
        }
        crate::strategy::SeedStrategyKind::Beam { .. } => {
            counters::STRATEGY_GUIDED_RUNS.add(1);
            counters::STRATEGY_BEAM_EVALUATIONS.add(stats.subsets_evaluated as u64);
        }
    }

    let p = &stats.profile;
    phases::ENUMERATION.record_ns(p.enumeration_ns);
    phases::GREEDY.record_ns(p.greedy_ns);
    phases::CONNECTION.record_ns(p.connection_ns);
    phases::SCORING.record_ns(p.scoring_ns);
    phases::SUBSTRATE_QUERY.record_ns(p.substrate_query_ns);

    emit_run(
        "sweep",
        &[
            ("s", config.s() as u64),
            ("threads", config.num_threads() as u64),
            ("seed_pool", stats.seed_pool_size as u64),
            ("subsets_enumerated", stats.subsets_enumerated as u64),
            ("subsets_chain_pruned", stats.subsets_chain_pruned as u64),
            ("subsets_bound_pruned", stats.subsets_bound_pruned as u64),
            ("subsets_evaluated", stats.subsets_evaluated as u64),
            ("subsets_unconnectable", stats.subsets_unconnectable as u64),
            ("gain_queries", stats.gain_queries),
            ("served_users", solution.served_users() as u64),
            ("deployed_uavs", solution.deployment().len() as u64),
        ],
    );
}

/// Records one successfully applied delta into the active obs session.
/// Rejected deltas leave no counts; the `resolve.apply` phase counts
/// every call.
pub(crate) fn record_delta(outcome: &DeltaOutcome) {
    counters::RESOLVE_DIRTY_TILES.add(outcome.dirty_tiles as u64);
    counters::RESOLVE_STATIONS_REFRESHED.add(outcome.stations_refreshed as u64);
    counters::RESOLVE_COLD_SOLVES.add(u64::from(outcome.cold_solved));
}
