//! Seed search — the engine of Algorithm 2's subset sweep.
//!
//! [`SeedStrategyKind`] selects one of two searches over a prepared
//! [`SearchContext`]:
//!
//! * [`SeedStrategyKind::Exhaustive`] — the **value-exact** engine:
//!   every rank of the `C(pool, s)` enumeration is either evaluated or
//!   provably unable to win. Besides chain pruning it skips only the
//!   ranks above the *watermark*: the lowest rank found so far whose
//!   subset serves `min(Σ capacities, n)`, which no later rank can beat,
//!   not even on the tie-break. Its winner is therefore bit-identical to
//!   evaluating every chain survivor
//!   ([`approx_alg_materialized`](crate::approx_alg_materialized)).
//! * [`SeedStrategyKind::Beam`] — **density-guided beam search**: seeds
//!   grow from the highest-coverage cells of the spatial index's
//!   coverage tables, a beam of width `B` survives each depth, and only
//!   the final beam is fully evaluated. Quality is gated by
//!   [`check_strategy_quality`](crate::check_strategy_quality) rather
//!   than an identity proof.
//!
//! The exhaustive engine is one worker loop over one kind of work
//! item, the *first-member block*: the ranks of every combination whose
//! first pool member is `i`, one contiguous range of the lexicographic
//! order. The workers claim the blocks in rank order from an atomic
//! cursor and evaluate every subset in one workspace each, whose
//! matching spans the whole instance (its reset costs the users the
//! committed stations serve, not the user count). Every block runs the
//! same per-rank body — watermark check, unrank, fault-injection hook,
//! chain check, evaluate — with the worker's [`GainMemo`] cleared at
//! its start, so the subsets of a block share their gain queries.
//!
//! Every search is deterministic and thread-count invariant: ties
//! break on enumeration rank (equivalently the lexicographic order of
//! the seed subset), and the exhaustive engine counts each block on its
//! own. Its join keeps the counters of the blocks that start at or
//! below the final watermark `W`, which cover exactly the ranks
//! `0..=W`, whichever thread ran them and however far past `W` the
//! other workers got.

use crate::approx::{
    binomial, chain_feasible, next_combination, panic_payload_message, seed_pool,
    unrank_combination, ApproxConfig, GainMemo, KernelCounts, SubsetOutcome, SweepProfile,
    SweepWorkspace,
};
use crate::{CoreError, Instance, SegmentPlan};
use std::cmp::Reverse;
use std::fmt;
use std::ops::Range;
use std::str::FromStr;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;
use uavnet_geom::CellIndex;
use uavnet_graph::ConnectivitySubstrate;

/// Default beam width of [`SeedStrategyKind::Beam`]. Wide enough that
/// quick-scale proptest instances (`C(pool, s)` below the width) suffer
/// no truncation at all — there the beam degenerates to exhaustive
/// enumeration with chain pruning — while keeping the large-scale
/// evaluation count constant instead of combinatorial.
pub const DEFAULT_BEAM_WIDTH: usize = 64;

/// The watermark before any subset has saturated the fleet. Never a
/// rank: ranks stay below `C(pool, s)`, which saturates at `u64::MAX`.
const NO_WATERMARK: u64 = u64::MAX;

/// Which seed-search strategy the subset sweep runs.
///
/// Parsed from the CLI spelling used by `sweep_report --seed-strategy`:
///
/// ```
/// use uavnet_core::SeedStrategyKind;
/// assert_eq!("exhaustive".parse(), Ok(SeedStrategyKind::Exhaustive));
/// assert_eq!("beam:8".parse(), Ok(SeedStrategyKind::Beam { width: 8 }));
/// assert!("bound-pruned".parse::<SeedStrategyKind>().is_err());
/// assert_eq!(SeedStrategyKind::default(), SeedStrategyKind::Exhaustive);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SeedStrategyKind {
    /// The full `C(pool, s)` enumeration (the literal Algorithm 2
    /// engine), skipping only subsets that provably cannot win.
    #[default]
    Exhaustive,
    /// Density-guided beam search evaluating at most `width` subsets.
    Beam {
        /// Beam width `B`: states kept per depth and final evaluations.
        width: usize,
    },
}

impl SeedStrategyKind {
    /// Stable machine-readable name (`"exhaustive"`, `"beam"`), used in
    /// stats, obs events and BENCH_sweep.json.
    pub fn name(self) -> &'static str {
        match self {
            SeedStrategyKind::Exhaustive => "exhaustive",
            SeedStrategyKind::Beam { .. } => "beam",
        }
    }
}

impl fmt::Display for SeedStrategyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SeedStrategyKind::Beam { width } => write!(f, "beam:{width}"),
            other => f.write_str(other.name()),
        }
    }
}

impl FromStr for SeedStrategyKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "exhaustive" => Ok(SeedStrategyKind::Exhaustive),
            "beam" => Ok(SeedStrategyKind::Beam {
                width: DEFAULT_BEAM_WIDTH,
            }),
            other => match other.strip_prefix("beam:") {
                Some(w) => match w.parse::<usize>() {
                    Ok(width) if width >= 1 => Ok(SeedStrategyKind::Beam { width }),
                    _ => Err(format!("invalid beam width {w:?} (want beam:<N≥1>)")),
                },
                None => Err(format!(
                    "unknown seed strategy {other:?} (want exhaustive | beam[:N])"
                )),
            },
        }
    }
}

/// Everything a search needs about one instance: the problem, the
/// plan, the shared connectivity substrate, and the precomputed seed
/// pool with its chain-pruning tables. Built once per sweep by the
/// driver in `approx.rs`.
pub(crate) struct SearchContext<'a> {
    pub(crate) instance: &'a Instance,
    pub(crate) config: &'a ApproxConfig,
    pub(crate) plan: &'a SegmentPlan,
    pub(crate) substrate: &'a ConnectivitySubstrate,
    pub(crate) pool: Vec<usize>,
    pub(crate) chain_budgets: Vec<usize>,
    pub(crate) pool_dists: Option<Vec<Vec<Option<u32>>>>,
}

impl<'a> SearchContext<'a> {
    pub(crate) fn new(
        instance: &'a Instance,
        config: &'a ApproxConfig,
        plan: &'a SegmentPlan,
        substrate: &'a ConnectivitySubstrate,
    ) -> Self {
        let pool = seed_pool(instance, config, substrate);
        let s = config.s();
        let chain_budgets: Vec<usize> = plan.p()[1..s].iter().map(|&p| p + 1).collect();
        let pool_dists = crate::approx::pool_distances(config, &pool, substrate);
        SearchContext {
            instance,
            config,
            plan,
            substrate,
            pool,
            chain_budgets,
            pool_dists,
        }
    }

    /// Whether the pool-index combination survives chain pruning.
    pub(crate) fn chain_feasible(&self, combo: &[usize]) -> bool {
        match &self.pool_dists {
            Some(d) => chain_feasible(d, combo, &self.chain_budgets),
            None => true,
        }
    }
}

/// The lexicographic rank of an ascending `s`-combination of `0..n` —
/// the inverse of [`unrank_combination`].
fn rank_of_combination(combo: &[usize], n: usize, s: usize) -> u64 {
    debug_assert!(combo.windows(2).all(|w| w[0] < w[1]));
    let mut rank = 0u64;
    let mut prev = 0usize;
    for (j, &c) in combo.iter().enumerate() {
        for v in prev..c {
            rank = rank.saturating_add(binomial(n - v - 1, s - j - 1));
        }
        prev = c + 1;
    }
    rank
}

/// The ranks of every `s`-combination of `0..n` whose first element is
/// `i0` — one contiguous block of the lexicographic order, empty when
/// fewer than `s` elements start at `i0`.
fn first_member_block(i0: usize, n: usize, s: usize) -> Range<u64> {
    if n - i0 < s {
        return 0..0;
    }
    let first: Vec<usize> = (i0..i0 + s).collect();
    let start = rank_of_combination(&first, n, s);
    start..start.saturating_add(binomial(n - i0 - 1, s - 1))
}

/// (served, rank, placements, seeds) of a candidate during a sweep.
pub(crate) type RankedBest = Option<(usize, u64, Vec<(usize, CellIndex)>, Vec<CellIndex>)>;

/// Whether `(served, rank)` beats `best`: more users served, or as many
/// at a lower enumeration rank.
pub(crate) fn beats(best: &RankedBest, served: usize, rank: u64) -> bool {
    best.as_ref()
        .is_none_or(|(bs, br, _, _)| served > *bs || (served == *bs && rank < *br))
}

/// The deterministic counters and phase timings of a search (or one
/// work item's share of it, summed when the workers are joined), in
/// the units [`ApproxStats`](crate::ApproxStats) reports.
#[derive(Debug, Default)]
pub(crate) struct Tally {
    pub(crate) enumerated: usize,
    pub(crate) chain_pruned: usize,
    pub(crate) bound_pruned: usize,
    pub(crate) evaluated: usize,
    pub(crate) unconnectable: usize,
    pub(crate) gain_queries: u64,
    pub(crate) kernel: KernelCounts,
    pub(crate) profile: SweepProfile,
}

impl Tally {
    /// Adds `other`'s phase times and, when `commit`, its counters: the
    /// profile keeps the time of work the join discards, the counters
    /// only the work the result rests on.
    fn absorb(&mut self, other: Tally, commit: bool) {
        let (p, q) = (&mut self.profile, other.profile);
        p.enumeration_ns += q.enumeration_ns;
        p.greedy_ns += q.greedy_ns;
        p.connection_ns += q.connection_ns;
        p.scoring_ns += q.scoring_ns;
        p.substrate_query_ns += q.substrate_query_ns;
        if !commit {
            return;
        }
        self.enumerated += other.enumerated;
        self.chain_pruned += other.chain_pruned;
        self.bound_pruned += other.bound_pruned;
        self.evaluated += other.evaluated;
        self.unconnectable += other.unconnectable;
        self.gain_queries += other.gain_queries;
        self.kernel += other.kernel;
    }
}

/// Runs the configured search over `ctx`.
///
/// # Errors
///
/// [`CoreError::Sweep`] if a worker panicked; every worker is joined
/// first.
pub(crate) fn search(ctx: &SearchContext<'_>) -> Result<(RankedBest, Tally), CoreError> {
    match ctx.config.strategy() {
        SeedStrategyKind::Exhaustive => exhaustive(ctx),
        SeedStrategyKind::Beam { width } => Ok(beam(ctx, width)),
    }
}

/// The exhaustive engine. The workers claim the first-member blocks in
/// rank order and walk every rank at or below the watermark,
/// chain-pruning or evaluating it; a subset at the ceiling
/// `min(Σ capacities, n)` lowers the watermark to its rank. Each block
/// is counted on its own: the join keeps every block's phase times but
/// only the counters of the blocks that start at or below the final
/// watermark `W`. Those cover exactly the ranks `0..=W`: blocks are
/// disjoint rank ranges, no rank at or below `W` is ever skipped, and
/// the block holding `W` stops right after it. A panicking worker
/// surfaces as [`CoreError::Sweep`] rather than aborting the process,
/// once every worker has been joined.
fn exhaustive(ctx: &SearchContext<'_>) -> Result<(RankedBest, Tally), CoreError> {
    let s = ctx.config.s();
    let total = binomial(ctx.pool.len(), s);
    // The non-empty blocks: those of pool positions `0..=pool − s`.
    let blocks = (ctx.pool.len() + 1).saturating_sub(s);
    let threads = ctx.config.num_threads().min(blocks.max(1));
    let ceiling = served_ceiling(ctx.instance);
    let cursor = AtomicUsize::new(0);
    let watermark = AtomicU64::new(NO_WATERMARK);
    let worker = || Worker::new(ctx, ceiling, &watermark).run(blocks, &cursor);
    let joined: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads).map(|_| scope.spawn(worker)).collect();
        handles.into_iter().map(|h| h.join()).collect()
    });
    let w = watermark.into_inner();
    let mut best: RankedBest = None;
    let mut tally = Tally::default();
    let mut worker_panic: Option<String> = None;
    for result in joined {
        match result {
            Ok((cand, done)) => {
                // A worker's best may come from a discarded item; it then
                // ranks above `W` and loses to `W`'s saturating subset.
                if let Some(c) = cand {
                    if beats(&best, c.0, c.1) {
                        best = Some(c);
                    }
                }
                for (first, part) in done {
                    tally.absorb(part, first <= w);
                }
            }
            Err(payload) => {
                worker_panic.get_or_insert_with(|| panic_payload_message(&*payload));
            }
        }
    }
    if let Some(message) = worker_panic {
        return Err(CoreError::Sweep(message));
    }
    tally.enumerated = total as usize;
    if w != NO_WATERMARK {
        tally.bound_pruned = (total - w - 1) as usize;
    }
    tally.profile.subset_buffer_peak_bytes = threads * s * 2 * std::mem::size_of::<usize>();
    Ok((best, tally))
}

/// `min(Σ capacities, n)`: no deployment serves more users.
pub(crate) fn served_ceiling(instance: &Instance) -> usize {
    let capacity: usize = instance.uavs().iter().map(|u| u.capacity as usize).sum();
    capacity.min(instance.num_users())
}

/// One exhaustive worker: its best candidate, the tally of every block
/// it ran and the reusable buffers of its loop.
struct Worker<'c> {
    ctx: &'c SearchContext<'c>,
    /// The [`served_ceiling`].
    ceiling: usize,
    /// The lowest rank found at the ceiling so far. Relaxed throughout:
    /// it publishes no other data, a stale (higher) reading only costs
    /// work the join discards, and the join reads the final value after
    /// every worker has been joined.
    watermark: &'c AtomicU64,
    /// Created on the first evaluation: a worker that gets no block
    /// never allocates the instance-sized matching.
    ws: Option<SweepWorkspace<'c>>,
    /// The gain memo of the block in hand.
    memo: GainMemo,
    combo: Vec<usize>,
    seeds: Vec<CellIndex>,
    best: RankedBest,
    /// The first rank and the tally of every block run, in run order.
    done: Vec<(u64, Tally)>,
}

impl<'c> Worker<'c> {
    fn new(ctx: &'c SearchContext<'c>, ceiling: usize, watermark: &'c AtomicU64) -> Self {
        let s = ctx.config.s();
        Worker {
            ctx,
            ceiling,
            watermark,
            ws: None,
            memo: GainMemo::default(),
            combo: Vec::with_capacity(s),
            seeds: Vec::with_capacity(s),
            best: None,
            done: Vec::new(),
        }
    }

    fn watermark(&self) -> u64 {
        self.watermark.load(Ordering::Relaxed)
    }

    /// Claims blocks until the cursor passes the last one or the
    /// watermark.
    fn run(mut self, blocks: usize, cursor: &AtomicUsize) -> (RankedBest, Vec<(u64, Tally)>) {
        let (n, s) = (self.ctx.pool.len(), self.ctx.config.s());
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= blocks {
                break;
            }
            let block = first_member_block(i, n, s);
            // Blocks are claimed in rank order: every later one starts
            // past the watermark too.
            if block.start > self.watermark() {
                break;
            }
            self.sweep(block);
        }
        (self.best, self.done)
    }

    /// Walks the consecutive ranks of one first-member block, with a
    /// cleared gain memo, while they stay at or below the watermark: each
    /// is unranked (or advanced from its predecessor), offered to the
    /// fault-injection hook, chain-checked, and evaluated when it
    /// survives. A subset at the ceiling lowers the watermark to its rank
    /// and ends the block. Records the block with its tally.
    fn sweep(&mut self, ranks: Range<u64>) {
        let ctx = self.ctx;
        let (n, s) = (ctx.pool.len(), ctx.config.s());
        let mut tally = Tally::default();
        self.memo.clear();
        for rank in ranks.clone() {
            if rank > self.watermark() {
                break;
            }
            let t_enum = Instant::now();
            if rank == ranks.start {
                unrank_combination(rank, n, s, &mut self.combo);
            } else {
                let advanced = next_combination(&mut self.combo, n);
                debug_assert!(advanced, "rank < total implies a successor");
            }
            // The injection hook fires on *reaching* the rank, before
            // any pruning: tests pick ranks without knowing which ones
            // will be pruned.
            if ctx.config.panic_rank() == Some(rank) {
                panic!("injected worker panic at enumeration rank {rank}");
            }
            let feasible = ctx.chain_feasible(&self.combo);
            tally.profile.enumeration_ns += t_enum.elapsed().as_nanos() as u64;
            if !feasible {
                tally.chain_pruned += 1;
            } else if self.evaluate(rank, &mut tally) {
                self.watermark.fetch_min(rank, Ordering::Relaxed);
                break;
            }
        }
        self.done.push((ranks.start, tally));
    }

    /// Evaluates the current combination, counting its gain queries and
    /// kernel work into `tally`. Returns whether the subset serves the
    /// ceiling.
    fn evaluate(&mut self, rank: u64, tally: &mut Tally) -> bool {
        let ctx = self.ctx;
        tally.evaluated += 1;
        self.seeds.clear();
        self.seeds.extend(self.combo.iter().map(|&i| ctx.pool[i]));
        let ws = self
            .ws
            .get_or_insert_with(|| SweepWorkspace::with_substrate(ctx.instance, ctx.substrate));
        let (queries, kernel) = (ws.gain_queries(), ws.counts());
        let outcome = ws.solve_subset(ctx.plan, &self.seeds, &mut self.memo, &mut tally.profile);
        tally.gain_queries += ws.gain_queries() - queries;
        tally.kernel += ws.counts() - kernel;
        match outcome {
            SubsetOutcome::Served(served) => {
                if beats(&self.best, served, rank) {
                    self.best = Some((served, rank, ws.placements().to_vec(), self.seeds.clone()));
                }
                served >= self.ceiling
            }
            SubsetOutcome::Unconnectable => {
                tally.unconnectable += 1;
                false
            }
        }
    }
}

/// Density-guided beam search seeded from the highest-coverage cells.
///
/// Depth 1 admits the `width` pool members with the largest
/// [`Instance::best_coverage_count`] (the spatial index's per-cell
/// user-density signal); each further depth extends every beam state
/// with every pool member, dedupes, drops partial subsets that already
/// violate the chain budgets (the feasible prefix of any feasible full
/// ordering always survives, so no feasible final subset becomes
/// unreachable — only truncation loses candidates), scores states by
/// summed density and keeps the best `width`. Only the final beam is
/// fully evaluated, sequentially in lexicographic order and ranked by
/// position, so ties break exactly like the enumerative engine; one gain
/// memo serves the whole final beam, which keeps its counts
/// deterministic because the evaluation is sequential. When
/// `C(pool, s)` fits inside the width the beam degenerates to
/// exhaustive enumeration with chain pruning.
///
/// The injected-panic test hook (`inject_worker_panic_at`) addresses
/// enumeration ranks, which the beam does not have, so it ignores the
/// hook.
fn beam(ctx: &SearchContext<'_>, width: usize) -> (RankedBest, Tally) {
    let instance = ctx.instance;
    let s = ctx.config.s();
    let width = width.max(1);
    let pool_len = ctx.pool.len();
    let t_enum = Instant::now();
    let density: Vec<u64> = ctx
        .pool
        .iter()
        .map(|&v| instance.best_coverage_count(v) as u64)
        .collect();
    let mut tally = Tally::default();
    let mut peak_states = 0usize;

    let mut order: Vec<usize> = (0..pool_len).collect();
    order.sort_by_key(|&p| (Reverse(density[p]), p));
    let mut beam: Vec<Vec<usize>> = order.iter().take(width).map(|&p| vec![p]).collect();
    tally.enumerated += beam.len();

    for depth in 2..=s {
        let mut candidates: Vec<Vec<usize>> = Vec::new();
        for state in &beam {
            for q in 0..pool_len {
                if state.contains(&q) {
                    continue;
                }
                let mut next = Vec::with_capacity(depth);
                next.extend_from_slice(state);
                next.push(q);
                next.sort_unstable();
                candidates.push(next);
            }
        }
        candidates.sort_unstable();
        candidates.dedup();
        peak_states = peak_states.max(candidates.len() * depth);
        tally.enumerated += candidates.len();
        if let Some(d) = &ctx.pool_dists {
            let before = candidates.len();
            candidates.retain(|c| chain_feasible(d, c, &ctx.chain_budgets[..depth - 1]));
            tally.chain_pruned += before - candidates.len();
        }
        let score = |state: &[usize]| -> u64 { state.iter().map(|&p| density[p]).sum::<u64>() };
        candidates.sort_by(|a, b| score(b).cmp(&score(a)).then_with(|| a.cmp(b)));
        candidates.truncate(width);
        candidates.sort_unstable();
        beam = candidates;
        if beam.is_empty() {
            break;
        }
    }
    tally.profile.enumeration_ns += t_enum.elapsed().as_nanos() as u64;

    let mut ws = SweepWorkspace::with_substrate(instance, ctx.substrate);
    let mut memo = GainMemo::default();
    let mut best: RankedBest = None;
    let mut seeds: Vec<CellIndex> = Vec::with_capacity(s);
    for (rank, state) in (0u64..).zip(&beam) {
        seeds.clear();
        seeds.extend(state.iter().map(|&p| ctx.pool[p]));
        tally.evaluated += 1;
        match ws.solve_subset(ctx.plan, &seeds, &mut memo, &mut tally.profile) {
            SubsetOutcome::Served(served) => {
                if beats(&best, served, rank) {
                    best = Some((served, rank, ws.placements().to_vec(), seeds.clone()));
                }
            }
            SubsetOutcome::Unconnectable => tally.unconnectable += 1,
        }
    }
    tally.gain_queries = ws.gain_queries();
    tally.kernel = ws.counts();
    tally.profile.subset_buffer_peak_bytes = peak_states
        .max(width * s)
        .max(pool_len)
        .saturating_mul(std::mem::size_of::<usize>());
    (best, tally)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{approx_alg_with_stats, ApproxConfig};
    use uavnet_channel::UavRadio;
    use uavnet_geom::{AreaSpec, GridSpec, Point2};

    fn grid(cell: f64, side: f64) -> uavnet_geom::Grid {
        GridSpec::new(AreaSpec::new(side, side, 500.0).unwrap(), cell, 300.0)
            .unwrap()
            .build()
    }

    fn two_cluster_instance() -> Instance {
        let mut b = Instance::builder(grid(300.0, 1500.0), 450.0);
        for i in 0..6 {
            b.add_user(Point2::new(100.0 + 10.0 * i as f64, 120.0), 2_000.0);
        }
        for i in 0..6 {
            b.add_user(Point2::new(1_350.0 + 10.0 * i as f64, 1_380.0), 2_000.0);
        }
        b.add_user(Point2::new(750.0, 750.0), 2_000.0);
        for cap in [4u32, 3, 3, 2, 2, 2] {
            b.add_uav(cap, UavRadio::new(30.0, 5.0, 400.0));
        }
        b.build().unwrap()
    }

    #[test]
    fn kind_parses_displays_and_names() {
        for (text, kind) in [
            ("exhaustive", SeedStrategyKind::Exhaustive),
            (
                "beam",
                SeedStrategyKind::Beam {
                    width: DEFAULT_BEAM_WIDTH,
                },
            ),
            ("beam:7", SeedStrategyKind::Beam { width: 7 }),
        ] {
            assert_eq!(text.parse::<SeedStrategyKind>(), Ok(kind));
        }
        assert!("beam:0".parse::<SeedStrategyKind>().is_err());
        assert!("beam:x".parse::<SeedStrategyKind>().is_err());
        for retired in ["simulated-annealing", "bound-pruned", "bound_pruned"] {
            assert!(retired.parse::<SeedStrategyKind>().is_err(), "{retired}");
        }
        assert_eq!(SeedStrategyKind::Beam { width: 9 }.to_string(), "beam:9");
        assert_eq!(SeedStrategyKind::Exhaustive.to_string(), "exhaustive");
        assert_eq!(SeedStrategyKind::Beam { width: 9 }.name(), "beam");
    }

    #[test]
    fn rank_of_combination_inverts_unranking() {
        for (n, s) in [(1usize, 1usize), (5, 1), (6, 2), (7, 3), (8, 5)] {
            let mut combo = Vec::new();
            for rank in 0..binomial(n, s) {
                unrank_combination(rank, n, s, &mut combo);
                assert_eq!(rank_of_combination(&combo, n, s), rank, "C({n},{s})");
            }
        }
    }

    #[test]
    fn untruncated_beam_matches_exhaustive() {
        // C(pool, 2) on this instance is far below a width of 1024, so
        // the beam degenerates to evaluating every chain survivor — the
        // unpruned reference sweep.
        let inst = two_cluster_instance();
        let exhaustive = ApproxConfig::with_s(2).threads(2);
        let beam = exhaustive
            .clone()
            .seed_strategy(SeedStrategyKind::Beam { width: 1024 });
        let (sol_e, stats_e) = crate::approx_alg_materialized(&inst, &exhaustive).unwrap();
        let (sol_b, stats_b) = approx_alg_with_stats(&inst, &beam).unwrap();
        assert_eq!(
            sol_b.deployment().placements(),
            sol_e.deployment().placements()
        );
        assert_eq!(sol_b.served_users(), sol_e.served_users());
        assert_eq!(stats_b.best_seeds, stats_e.best_seeds);
        assert_eq!(stats_b.subsets_evaluated, stats_e.subsets_evaluated);
        assert_eq!(stats_b.strategy, "beam");
    }

    /// Two clusters and a straggler that a fleet of `Σ C_k = 13` can
    /// just serve (`n = 11`): the lowest ranks serve fewer, and at
    /// `s = 2` the first saturating rank lies deep in the enumeration.
    fn two_clusters_and_a_straggler() -> Instance {
        let mut b = Instance::builder(grid(300.0, 1500.0), 370.0);
        for (x, y) in [
            (1_000.0, 670.0),
            (1_010.0, 640.0),
            (970.0, 670.0),
            (1_020.0, 630.0),
            (1_035.0, 615.0),
            (1_035.0, 605.0),
            (1_250.0, 245.0),
            (1_275.0, 190.0),
            (1_225.0, 190.0),
            (1_235.0, 265.0),
            (525.0, 1_005.0),
        ] {
            b.add_user(Point2::new(x, y), 2_000.0);
        }
        for cap in [4u32, 3, 6] {
            b.add_uav(cap, UavRadio::new(30.0, 5.0, 430.0));
        }
        b.build().unwrap()
    }

    #[test]
    fn saturation_tail_is_value_exact_and_thread_count_invariant() {
        // One dense hotspot that every cell covers and a small fleet:
        // the lowest chain-feasible rank already saturates the fleet.
        let mut b = Instance::builder(grid(300.0, 900.0), 450.0);
        for i in 0..20 {
            b.add_user(Point2::new(400.0 + 5.0 * i as f64, 460.0), 2_000.0);
        }
        for cap in [3u32, 2, 2] {
            b.add_uav(cap, UavRadio::new(30.0, 5.0, 500.0));
        }
        let hotspot = b.build().unwrap();
        let late = two_clusters_and_a_straggler();
        for (inst, s) in [(&hotspot, 1usize), (&hotspot, 2), (&late, 1), (&late, 2)] {
            // Repeated 8-thread runs race the workers past the watermark
            // in different ways; the committed counts must not notice.
            let runs: Vec<_> = [1usize, 2, 4, 8, 8, 8, 8, 8]
                .iter()
                .map(|&t| {
                    let config = ApproxConfig::with_s(s).threads(t);
                    crate::check_sweep_oracles(inst, &config).unwrap();
                    approx_alg_with_stats(inst, &config).unwrap().1
                })
                .collect();
            let first = &runs[0];
            assert!(
                first.subsets_bound_pruned > 0,
                "s = {s}: the tail skipped nothing"
            );
            assert_eq!(
                first.subsets_enumerated,
                first.subsets_evaluated + first.subsets_chain_pruned + first.subsets_bound_pruned
            );
            for stats in &runs[1..] {
                assert_eq!(stats.subsets_chain_pruned, first.subsets_chain_pruned);
                assert_eq!(stats.subsets_bound_pruned, first.subsets_bound_pruned);
                assert_eq!(stats.subsets_evaluated, first.subsets_evaluated);
                assert_eq!(stats.subsets_unconnectable, first.subsets_unconnectable);
                assert_eq!(stats.gain_queries, first.gain_queries);
                assert_eq!(stats.kernel, first.kernel);
                assert_eq!(stats.best_seeds, first.best_seeds);
            }
        }
        // The late fixture's C(15, 2) = 105 ranks go out as first-member
        // blocks: its first saturating rank must lie past the first block,
        // behind chain survivors that serve fewer, so the 8 workers race
        // past it on later blocks.
        let stats = approx_alg_with_stats(&late, &ApproxConfig::with_s(2).threads(8))
            .unwrap()
            .1;
        assert_eq!(stats.subsets_enumerated, 105);
        assert!(stats.subsets_evaluated > 1, "the first survivor saturates");
        let watermark = (stats.subsets_enumerated - stats.subsets_bound_pruned - 1) as u64;
        let first_block = first_member_block(0, 15, 2);
        assert_eq!(first_block, 0..14);
        assert!(
            watermark >= first_block.end,
            "first saturating rank {watermark}"
        );
    }

    #[test]
    fn narrow_beam_still_produces_a_valid_competitive_solution() {
        let inst = two_cluster_instance();
        let (sol, stats) = approx_alg_with_stats(
            &inst,
            &ApproxConfig::with_s(2)
                .threads(2)
                .seed_strategy(SeedStrategyKind::Beam { width: 2 }),
        )
        .unwrap();
        sol.validate(&inst).unwrap();
        assert!(stats.subsets_evaluated <= 2);
        assert!(sol.served_users() > 0);
    }
}
