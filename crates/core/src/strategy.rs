//! Seed-search strategies behind the [`SeedStrategy`] trait — the
//! pluggable engine of Algorithm 2's subset sweep.
//!
//! Two strategies ship:
//!
//! * [`SeedStrategyKind::Exhaustive`] — the **value-exact** engine:
//!   every rank of the `C(pool, s)` enumeration is either evaluated or
//!   provably unable to win. Besides chain pruning it skips subsets whose
//!   admissible served-count upper bound cannot beat a *primer*
//!   incumbent evaluated before any worker starts (see [`Primer`]), so
//!   its winner is bit-identical to evaluating every chain survivor
//!   ([`approx_alg_materialized`](crate::approx_alg_materialized)).
//! * [`SeedStrategyKind::Beam`] — **density-guided beam search**: seeds
//!   grow from the highest-coverage cells of the spatial index's
//!   coverage tables, a beam of width `B` survives each depth, and only
//!   the final beam is fully evaluated. Quality is gated by
//!   [`check_strategy_quality`](crate::check_strategy_quality) rather
//!   than an identity proof.
//!
//! Every strategy is deterministic and thread-count invariant: ties
//! break on enumeration rank (equivalently the lexicographic order of
//! the seed subset), and every pruning decision is a pure function of
//! the rank's combination and the primer, fixed before workers spawn.

use crate::approx::{
    binomial, chain_feasible, next_combination, panic_payload_message, seed_pool,
    unrank_combination, ApproxConfig, PhaseNanos, SubsetOutcome, SweepProfile, SweepWorkspace,
};
use crate::{CoreError, Instance, SegmentPlan};
use std::cmp::Reverse;
use std::fmt;
use std::panic::AssertUnwindSafe;
use std::str::FromStr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use uavnet_geom::CellIndex;
use uavnet_graph::{ConnectivitySubstrate, UNREACHABLE_HOPS};

/// Default beam width of [`SeedStrategyKind::Beam`]. Wide enough that
/// quick-scale proptest instances (`C(pool, s)` below the width) suffer
/// no truncation at all — there the beam degenerates to exhaustive
/// enumeration with chain pruning — while keeping the large-scale
/// evaluation count constant instead of combinatorial.
pub const DEFAULT_BEAM_WIDTH: usize = 64;

/// How many top-ranked pool positions the primer combines when
/// looking for its second candidate.
const PRIMER_POOL: usize = 24;

/// How many combinations each primer candidate search tries before
/// giving up on a chain-feasible one.
const PRIMER_TRIES: usize = 512;

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

    /// Instantiates the strategy behind this kind.
    pub fn build(self) -> Box<dyn SeedStrategy> {
        match self {
            SeedStrategyKind::Exhaustive => Box::new(ExhaustiveEnumeration),
            SeedStrategyKind::Beam { width } => Box::new(DensityBeam { width }),
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

/// Everything a strategy needs to search one instance: the problem,
/// the plan, the shared connectivity substrate, and the precomputed
/// seed pool with its chain-pruning tables. Built internally by
/// [`approx_alg_with_stats`](crate::approx_alg_with_stats); strategies
/// never construct one themselves.
pub struct SearchContext<'a> {
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

    /// The seed pool: candidate locations admitted to the enumeration,
    /// ascending.
    pub fn pool(&self) -> &[usize] {
        &self.pool
    }

    /// Total `C(pool, s)` subsets of the full enumeration (saturating).
    pub fn total_subsets(&self) -> u64 {
        binomial(self.pool.len(), self.config.s())
    }

    /// Whether the pool-index combination survives chain pruning.
    pub(crate) fn chain_feasible(&self, combo: &[usize]) -> bool {
        match &self.pool_dists {
            Some(d) => chain_feasible(d, combo, &self.chain_budgets),
            None => true,
        }
    }
}

/// The winning candidate of a strategy's search.
#[derive(Debug, Clone)]
pub struct BestCandidate {
    /// Users served by the candidate's deployment (before the
    /// leftover pass).
    pub served: usize,
    /// The seed subset, in ascending location order.
    pub seeds: Vec<CellIndex>,
    /// The full deployment: greedy picks, forced seeds, then relays.
    pub placements: Vec<(usize, CellIndex)>,
}

/// What a strategy's search produced, in the units
/// [`ApproxStats`](crate::ApproxStats) reports.
#[derive(Debug, Clone)]
pub struct SearchResult {
    /// The best candidate, if any subset produced a deployment.
    pub best: Option<BestCandidate>,
    /// Subsets considered before any pruning (for the exhaustive
    /// strategy this is `C(pool, s)`; the beam counts generated states
    /// instead).
    pub subsets_enumerated: usize,
    /// Subsets dropped by chain pruning.
    pub subsets_chain_pruned: usize,
    /// Subsets skipped because their admissible upper bound could not
    /// beat the primer incumbent (exhaustive strategy only).
    pub subsets_bound_pruned: usize,
    /// Subsets fully evaluated (greedy + connection + scoring).
    pub subsets_evaluated: usize,
    /// Evaluated subsets whose connected set exceeded the fleet.
    pub subsets_unconnectable: usize,
    /// Marginal-gain queries issued across the search.
    pub gain_queries: u64,
    /// Phase timings; `substrate_build_ns` is filled by the caller.
    pub profile: SweepProfile,
}

/// A seed-search strategy: given a prepared [`SearchContext`], find
/// the best seed subset and report honest work statistics.
///
/// # Contract
///
/// * **Determinism** — for a fixed instance and configuration, `search`
///   must return the same [`BestCandidate`] and the same deterministic
///   counters (`subsets_*`, `gain_queries`) regardless of
///   [`ApproxConfig::num_threads`]. Ties between equal-served subsets
///   break toward the lexicographically smallest seed subset
///   (equivalently, the lowest enumeration rank).
/// * **Honest stats** — `subsets_evaluated` counts real
///   greedy+connection+scoring evaluations; pruned work is reported in
///   the pruning counters, never hidden.
pub trait SeedStrategy {
    /// Stable machine-readable strategy name.
    fn name(&self) -> &'static str;

    /// Searches the context for the best seed subset.
    ///
    /// # Errors
    ///
    /// [`CoreError::Sweep`] if a worker thread panicked (all workers
    /// are drained first).
    fn search(&self, ctx: &SearchContext<'_>) -> Result<SearchResult, CoreError>;

    /// An upper bound on how many subsets this strategy would evaluate,
    /// short-circuiting once the count exceeds `limit` (the returned
    /// value is then at least `limit + 1`). Used by the `max_subsets`
    /// guard *before* any worker spawns.
    fn planned_evaluations(&self, ctx: &SearchContext<'_>, limit: usize) -> usize {
        chain_survivors_capped(
            ctx.pool.len(),
            ctx.config.s(),
            ctx.pool_dists.as_deref(),
            &ctx.chain_budgets,
            limit,
        )
    }
}

/// Counts chain-pruning survivors of the `C(pool_len, s)` enumeration,
/// stopping as soon as the count exceeds `limit`. Shared by the
/// monolithic and sharded pre-spawn `max_subsets` guards.
pub(crate) fn chain_survivors_capped(
    pool_len: usize,
    s: usize,
    pool_dists: Option<&[Vec<Option<u32>>]>,
    budgets: &[usize],
    limit: usize,
) -> usize {
    let mut combo: Vec<usize> = (0..s).collect();
    let mut count = 0usize;
    loop {
        let keep = match pool_dists {
            Some(d) => chain_feasible(d, &combo, budgets),
            None => true,
        };
        if keep {
            count += 1;
            if count > limit {
                return count;
            }
        }
        if !next_combination(&mut combo, pool_len) {
            return count;
        }
    }
}

/// The lexicographic rank of an ascending `s`-combination of `0..n` —
/// the inverse of [`unrank_combination`].
pub(crate) fn rank_of_combination(combo: &[usize], n: usize, s: usize) -> u64 {
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

/// (served, rank, placements, seeds) of a candidate during a sweep.
pub(crate) type RankedBest = Option<(usize, u64, Vec<(usize, CellIndex)>, Vec<CellIndex>)>;

/// Whether `(served, rank)` beats `best`: more users served, or as many
/// at a lower enumeration rank.
pub(crate) fn beats(best: &RankedBest, served: usize, rank: u64) -> bool {
    best.as_ref()
        .is_none_or(|(bs, br, _, _)| served > *bs || (served == *bs && rank < *br))
}

/// One worker's share of the deterministic counters and phase timings,
/// summed when the workers are joined.
#[derive(Debug, Default)]
pub(crate) struct Tally {
    pub(crate) chain_pruned: usize,
    pub(crate) bound_pruned: usize,
    pub(crate) evaluated: usize,
    pub(crate) unconnectable: usize,
    pub(crate) gain_queries: u64,
    pub(crate) tiles_solved: usize,
    pub(crate) view_escapes: usize,
    pub(crate) profile: PhaseNanos,
}

impl Tally {
    fn absorb(&mut self, other: Tally) {
        self.chain_pruned += other.chain_pruned;
        self.bound_pruned += other.bound_pruned;
        self.evaluated += other.evaluated;
        self.unconnectable += other.unconnectable;
        self.gain_queries += other.gain_queries;
        self.tiles_solved += other.tiles_solved;
        self.view_escapes += other.view_escapes;
        let (p, q) = (&mut self.profile, other.profile);
        p.enumeration += q.enumeration;
        p.greedy += q.greedy;
        p.connection += q.connection;
        p.scoring += q.scoring;
        p.substrate_query += q.substrate_query;
        p.tile_view += q.tile_view;
    }

    /// The phase timings as a [`SweepProfile`]; `substrate_build_ns` is
    /// filled by the caller.
    pub(crate) fn sweep_profile(&self, subset_buffer_peak_bytes: usize) -> SweepProfile {
        let p = &self.profile;
        SweepProfile {
            enumeration_ns: p.enumeration,
            greedy_ns: p.greedy,
            connection_ns: p.connection,
            scoring_ns: p.scoring,
            subset_buffer_peak_bytes,
            substrate_build_ns: 0,
            substrate_query_ns: p.substrate_query,
            tile_view_ns: p.tile_view,
        }
    }
}

/// Runs `threads` copies of `worker` and joins every one of them
/// before returning, folding each worker's best into `best` (by served
/// desc, rank asc — bit-identical to a sequential sweep for any
/// scheduling) and its tally into `tally`. A panicking worker surfaces
/// as [`CoreError::Sweep`] rather than aborting the process.
pub(crate) fn join_workers<W>(
    threads: usize,
    worker: W,
    mut best: RankedBest,
    mut tally: Tally,
) -> Result<(RankedBest, Tally), CoreError>
where
    W: Fn() -> (RankedBest, Tally) + Sync,
{
    let joined: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads).map(|_| scope.spawn(&worker)).collect();
        handles.into_iter().map(|h| h.join()).collect()
    });
    let mut worker_panic: Option<String> = None;
    for result in joined {
        match result {
            Ok((cand, part)) => {
                tally.absorb(part);
                if let Some(c) = cand {
                    if beats(&best, c.0, c.1) {
                        best = Some(c);
                    }
                }
            }
            Err(payload) => {
                worker_panic.get_or_insert_with(|| panic_payload_message(&*payload));
            }
        }
    }
    match worker_panic {
        Some(message) => Err(CoreError::Sweep(message)),
        None => Ok((best, tally)),
    }
}

/// How the exhaustive sweep treats one enumeration rank, as decided by
/// [`Primer::classify`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RankClass {
    /// Past a primer that already serves `min(Σ capacities, n)`: no
    /// later rank can win, not even on the tie-break. Counted as
    /// bound-pruned without a chain check; the sweeps stop here.
    Tail,
    /// Rejected by chain pruning.
    ChainPruned,
    /// One of the primer's own candidates, evaluated before the
    /// workers started.
    Primer,
    /// Its admissible bound is below the incumbent's served count, or
    /// equal to it at a higher rank.
    BoundPruned,
    /// Must be evaluated.
    Evaluate,
}

/// The incumbent of the exhaustive sweep, fixed before any worker
/// starts, together with the tables of its admissible bound.
///
/// # The admissible bound
///
/// For a seed subset `S`, every greedy pick lands in the hop-budget
/// matroid's ground set — cells within `h_max` hops of some seed — so
/// users served by those UAVs lie in `∪_{v∈S} U_h(v)`, where `U_h(v)`
/// is the union over all radio classes of users coverable from any
/// cell within `h_max` hops of `v`. UAVs deployed *outside* those
/// balls are relay/gateway commitments, which always continue down the
/// capacity order after at least the `s` seeds, so their total served
/// users cannot exceed `tail_caps = Σ` capacities of the fleet ranked
/// `≥ s` by capacity. Hence
///
/// `served(S) ≤ min(Σ capacities, n, Σ_{v∈S} ūh(v) + tail_caps)`
///
/// is an admissible (never under-estimating) bound on the pre-leftover
/// served count — exactly the quantity subsets compete on — for any
/// `ūh(v) ≥ |U_h(v)|`; the implementation uses the cheap cached-count
/// over-estimate from [`reach_coverage_bounds`].
///
/// # The primer
///
/// Up to two chain-feasible candidates are evaluated on the calling
/// thread, in rank order:
///
/// 1. the lowest-rank chain-feasible combination — under the canonical
///    greedy pool order (see [`crate::ApproxConfig::seed_strategy`])
///    this is usually the winner itself, so every later rank with an
///    equal bound tie-prunes;
/// 2. the first chain-feasible combination of the highest-`ūh` pool
///    positions — a served-count safety net for instances where the
///    greedy order's head does not saturate the fleet.
///
/// Evaluation stops early once a candidate reaches `min(Σ capacities,
/// n)`: every later rank — the second candidate included — belongs to
/// the [`RankClass::Tail`]. Because the incumbent never changes once
/// workers run, [`classify`](Self::classify) is a pure function of the
/// combination, and every counter is independent of the thread count
/// and of how the sharded sweep tiles the grid.
pub(crate) struct Primer {
    /// `(served, rank)` of the best primer candidate: the sweep's
    /// fixed incumbent.
    incumbent: Option<(usize, u64)>,
    /// Ranks the primer evaluated.
    ranks: Vec<u64>,
    /// `ūh` per pool position.
    reach: Vec<u64>,
    tail_caps: u64,
    cap_bound: u64,
}

impl Primer {
    /// Builds the bound tables and evaluates the primer candidates;
    /// also returns the best candidate and the primer's own work (the
    /// bound-table setup counts as enumeration), which seed the sweep's
    /// reduction.
    ///
    /// # Errors
    ///
    /// [`CoreError::Sweep`] if evaluating a candidate panicked.
    pub(crate) fn evaluate(
        ctx: &SearchContext<'_>,
    ) -> Result<(Primer, RankedBest, Tally), CoreError> {
        std::panic::catch_unwind(AssertUnwindSafe(|| Primer::evaluate_inner(ctx)))
            .map_err(|payload| CoreError::Sweep(panic_payload_message(&*payload)))
    }

    fn evaluate_inner(ctx: &SearchContext<'_>) -> (Primer, RankedBest, Tally) {
        let instance = ctx.instance;
        let s = ctx.config.s();
        let pool_len = ctx.pool.len();
        let t_setup = Instant::now();
        let reach = reach_coverage_bounds(ctx);
        let cap_total: u64 = instance.uavs().iter().map(|u| u64::from(u.capacity)).sum();
        let tail_caps: u64 = instance.uavs_by_capacity()[s..]
            .iter()
            .map(|&u| u64::from(instance.uavs()[u].capacity))
            .sum();
        let cap_bound = cap_total.min(instance.num_users() as u64);

        let mut candidates: Vec<Vec<usize>> = Vec::with_capacity(2);
        candidates.extend(first_feasible(ctx, pool_len, |slots| slots.to_vec()));
        let mut order: Vec<usize> = (0..pool_len).collect();
        order.sort_by_key(|&p| (Reverse(reach[p]), p));
        order.truncate(PRIMER_POOL);
        if let Some(top) = first_feasible(ctx, order.len(), |slots| {
            let mut positions: Vec<usize> = slots.iter().map(|&i| order[i]).collect();
            positions.sort_unstable();
            positions
        }) {
            if !candidates.contains(&top) {
                candidates.push(top);
            }
        }
        let mut candidates: Vec<(u64, Vec<usize>)> = candidates
            .into_iter()
            .map(|c| (rank_of_combination(&c, pool_len, s), c))
            .collect();
        candidates.sort_unstable();

        let mut tally = Tally::default();
        tally.profile.enumeration = t_setup.elapsed().as_nanos() as u64;
        let mut best: RankedBest = None;
        let mut ranks = Vec::with_capacity(candidates.len());
        let mut ws = SweepWorkspace::with_substrate(instance, ctx.substrate);
        for (rank, positions) in candidates {
            if best
                .as_ref()
                .is_some_and(|(served, ..)| *served as u64 >= cap_bound)
            {
                break;
            }
            let seeds: Vec<CellIndex> = positions.iter().map(|&p| ctx.pool[p]).collect();
            tally.evaluated += 1;
            ranks.push(rank);
            match ws.solve_subset(ctx.plan, &seeds, &mut tally.profile) {
                SubsetOutcome::Served(served) => {
                    if beats(&best, served, rank) {
                        best = Some((served, rank, ws.placements().to_vec(), seeds));
                    }
                }
                SubsetOutcome::Unconnectable => tally.unconnectable += 1,
                SubsetOutcome::EscapedView => {
                    unreachable!("the primer runs without a tile view")
                }
            }
        }
        tally.gain_queries = ws.gain_queries();
        let primer = Primer {
            incumbent: best.as_ref().map(|(served, rank, _, _)| (*served, *rank)),
            ranks,
            reach,
            tail_caps,
            cap_bound,
        };
        (primer, best, tally)
    }

    /// The first rank of the [`RankClass::Tail`]: `total` when the
    /// primer does not saturate the fleet.
    pub(crate) fn tail_start(&self, total: u64) -> u64 {
        match self.incumbent {
            Some((served, rank)) if served as u64 >= self.cap_bound => (rank + 1).min(total),
            _ => total,
        }
    }

    /// Classifies the rank-`rank` pool-index combination `combo`; the
    /// classes are checked in the order they are declared in
    /// [`RankClass`].
    pub(crate) fn classify(
        &self,
        ctx: &SearchContext<'_>,
        combo: &[usize],
        rank: u64,
    ) -> RankClass {
        if rank >= self.tail_start(u64::MAX) {
            return RankClass::Tail;
        }
        if !ctx.chain_feasible(combo) {
            return RankClass::ChainPruned;
        }
        if self.ranks.contains(&rank) {
            return RankClass::Primer;
        }
        if let Some((served, inc_rank)) = self.incumbent {
            let optimistic = self.tail_caps + combo.iter().map(|&p| self.reach[p]).sum::<u64>();
            let bound = optimistic.min(self.cap_bound);
            let served = served as u64;
            if bound < served || (bound == served && rank > inc_rank) {
                return RankClass::BoundPruned;
            }
        }
        RankClass::Evaluate
    }
}

/// The first chain-feasible combination, within [`PRIMER_TRIES`], of
/// `s` slots out of `0..n`, with `positions` mapping slots to ascending
/// pool positions.
fn first_feasible(
    ctx: &SearchContext<'_>,
    n: usize,
    positions: impl Fn(&[usize]) -> Vec<usize>,
) -> Option<Vec<usize>> {
    let s = ctx.config.s();
    if n < s {
        return None;
    }
    let mut slots: Vec<usize> = (0..s).collect();
    for _ in 0..PRIMER_TRIES {
        let combo = positions(&slots);
        if ctx.chain_feasible(&combo) {
            return Some(combo);
        }
        if !next_combination(&mut slots, n) {
            break;
        }
    }
    None
}

/// Admissible over-count of `|U_h(v)|` per pool position: the sum,
/// over every cell within `h_max` hops of the pool member and every
/// radio class, of the cached coverable-list length. Summing without
/// deduplication can only *over*-estimate the true union size, so the
/// bound stays admissible, while the cached per-(class, cell) counts
/// turn the computation into O(cells) table lookups per position
/// instead of a full user-list traversal.
fn reach_coverage_bounds(ctx: &SearchContext<'_>) -> Vec<u64> {
    let instance = ctx.instance;
    let h_max = ctx.plan.h_max();
    let classes = instance.num_radio_classes();
    let cell_counts: Vec<u64> = (0..instance.num_locations())
        .map(|w| {
            (0..classes)
                .map(|class| instance.coverable_class_count(class, w) as u64)
                .sum()
        })
        .collect();
    ctx.pool
        .iter()
        .map(|&v| {
            ctx.substrate
                .hop_row(v)
                .iter()
                .zip(&cell_counts)
                .filter(|&(&hops, _)| hops != UNREACHABLE_HOPS && hops as usize <= h_max)
                .map(|(_, &count)| count)
                .sum()
        })
        .collect()
}

/// The literal Algorithm 2 engine: the full `C(pool, s)` enumeration
/// behind a chunked atomic cursor, one reusable workspace per worker.
/// Every rank is [classified](Primer::classify) against the primer
/// before any evaluation, and the cursor stops where the primer's
/// saturated tail begins.
pub struct ExhaustiveEnumeration;

impl SeedStrategy for ExhaustiveEnumeration {
    fn name(&self) -> &'static str {
        "exhaustive"
    }

    fn search(&self, ctx: &SearchContext<'_>) -> Result<SearchResult, CoreError> {
        let s = ctx.config.s();
        let pool = &ctx.pool;
        let total = binomial(pool.len(), s);
        let (primer, primer_best, mut base) = Primer::evaluate(ctx)?;
        let end = primer.tail_start(total);
        let threads_cfg = ctx.config.num_threads();
        let chunk = (end / (threads_cfg as u64 * 4)).clamp(1, 64);
        let cursor = AtomicU64::new(0);
        let threads = threads_cfg.min(end.div_ceil(chunk).max(1) as usize);

        let worker = || -> (RankedBest, Tally) {
            let mut ws = SweepWorkspace::with_substrate(ctx.instance, ctx.substrate);
            let mut tally = Tally::default();
            let mut combo: Vec<usize> = Vec::with_capacity(s);
            let mut seeds: Vec<CellIndex> = Vec::with_capacity(s);
            let mut local_best: RankedBest = None;
            loop {
                let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                if start >= end {
                    break;
                }
                for rank in start..(start + chunk).min(end) {
                    let t_enum = Instant::now();
                    if rank == start {
                        unrank_combination(rank, pool.len(), s, &mut combo);
                    } else {
                        let advanced = next_combination(&mut combo, pool.len());
                        debug_assert!(advanced, "rank < total implies a successor");
                    }
                    // The injection hook fires on *reaching* the rank,
                    // before any pruning: tests pick ranks without
                    // knowing which ones will be pruned.
                    if ctx.config.panic_rank() == Some(rank) {
                        panic!("injected worker panic at enumeration rank {rank}");
                    }
                    let class = primer.classify(ctx, &combo, rank);
                    tally.profile.enumeration += t_enum.elapsed().as_nanos() as u64;
                    match class {
                        RankClass::Evaluate => {}
                        RankClass::ChainPruned => {
                            tally.chain_pruned += 1;
                            continue;
                        }
                        RankClass::BoundPruned => {
                            tally.bound_pruned += 1;
                            continue;
                        }
                        RankClass::Primer => continue,
                        RankClass::Tail => unreachable!("the cursor stops before the tail"),
                    }
                    tally.evaluated += 1;
                    seeds.clear();
                    seeds.extend(combo.iter().map(|&i| pool[i]));
                    match ws.solve_subset(ctx.plan, &seeds, &mut tally.profile) {
                        SubsetOutcome::Served(served) => {
                            if beats(&local_best, served, rank) {
                                local_best =
                                    Some((served, rank, ws.placements().to_vec(), seeds.clone()));
                            }
                        }
                        SubsetOutcome::Unconnectable => tally.unconnectable += 1,
                        SubsetOutcome::EscapedView => {
                            unreachable!("the monolithic sweep runs without a tile view")
                        }
                    }
                }
            }
            tally.gain_queries = ws.gain_queries();
            (local_best, tally)
        };

        base.bound_pruned = (total - end) as usize;
        let (best, tally) = join_workers(threads, worker, primer_best, base)?;
        Ok(SearchResult {
            best: best.map(|(served, _, placements, seeds)| BestCandidate {
                served,
                seeds,
                placements,
            }),
            subsets_enumerated: total as usize,
            subsets_chain_pruned: tally.chain_pruned,
            subsets_bound_pruned: tally.bound_pruned,
            subsets_evaluated: tally.evaluated,
            subsets_unconnectable: tally.unconnectable,
            gain_queries: tally.gain_queries,
            profile: tally.sweep_profile(threads * s * 2 * std::mem::size_of::<usize>()),
        })
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
/// fully evaluated, sequentially in lexicographic order so ties break
/// exactly like the enumerative strategies. When `C(pool, s)` fits
/// inside the width the beam degenerates to exhaustive enumeration
/// with chain pruning.
///
/// The injected-panic test hook (`inject_worker_panic_at`) addresses
/// enumeration ranks, which the beam does not have; like the sharded
/// sweep, it ignores the hook.
pub struct DensityBeam {
    /// Beam width `B`.
    pub width: usize,
}

impl SeedStrategy for DensityBeam {
    fn name(&self) -> &'static str {
        "beam"
    }

    fn search(&self, ctx: &SearchContext<'_>) -> Result<SearchResult, CoreError> {
        let instance = ctx.instance;
        let s = ctx.config.s();
        let width = self.width.max(1);
        let pool_len = ctx.pool.len();
        let t_enum = Instant::now();
        let density: Vec<u64> = ctx
            .pool
            .iter()
            .map(|&v| instance.best_coverage_count(v) as u64)
            .collect();
        let mut enumerated = 0usize;
        let mut chain_pruned = 0usize;
        let mut peak_states = 0usize;

        let mut order: Vec<usize> = (0..pool_len).collect();
        order.sort_by_key(|&p| (Reverse(density[p]), p));
        let mut beam: Vec<Vec<usize>> = order.iter().take(width).map(|&p| vec![p]).collect();
        enumerated += beam.len();

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
            enumerated += candidates.len();
            if let Some(d) = &ctx.pool_dists {
                let before = candidates.len();
                candidates.retain(|c| chain_feasible(d, c, &ctx.chain_budgets[..depth - 1]));
                chain_pruned += before - candidates.len();
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
        let mut profile = PhaseNanos::default();
        profile.enumeration += t_enum.elapsed().as_nanos() as u64;

        // Full evaluation of the final beam, in lexicographic subset
        // order: accepting only strict improvements makes the earliest
        // (lowest-rank) subset win ties, like the enumerative engines.
        let mut ws = SweepWorkspace::with_substrate(instance, ctx.substrate);
        let mut evaluated = 0usize;
        let mut unconnectable = 0usize;
        let mut best: Option<(usize, Vec<usize>)> = None;
        let mut best_placements: Vec<(usize, CellIndex)> = Vec::new();
        let mut seeds: Vec<CellIndex> = Vec::with_capacity(s);
        for state in &beam {
            seeds.clear();
            seeds.extend(state.iter().map(|&p| ctx.pool[p]));
            match ws.solve_subset(ctx.plan, &seeds, &mut profile) {
                SubsetOutcome::Served(served) => {
                    evaluated += 1;
                    let better = match &best {
                        None => true,
                        Some((bs, _)) => served > *bs,
                    };
                    if better {
                        best = Some((served, state.clone()));
                        best_placements = ws.placements().to_vec();
                    }
                }
                SubsetOutcome::Unconnectable => {
                    evaluated += 1;
                    unconnectable += 1;
                }
                SubsetOutcome::EscapedView => {
                    unreachable!("the monolithic sweep runs without a tile view")
                }
            }
        }
        let gain_queries = ws.gain_queries();

        Ok(SearchResult {
            best: best.map(|(served, state)| BestCandidate {
                served,
                seeds: state.iter().map(|&p| ctx.pool[p]).collect(),
                placements: best_placements,
            }),
            subsets_enumerated: enumerated,
            subsets_chain_pruned: chain_pruned,
            subsets_bound_pruned: 0,
            subsets_evaluated: evaluated,
            subsets_unconnectable: unconnectable,
            gain_queries,
            profile: SweepProfile {
                enumeration_ns: profile.enumeration,
                greedy_ns: profile.greedy,
                connection_ns: profile.connection,
                scoring_ns: profile.scoring,
                subset_buffer_peak_bytes: peak_states
                    .max(width * s)
                    .max(pool_len)
                    .saturating_mul(std::mem::size_of::<usize>()),
                substrate_build_ns: 0,
                substrate_query_ns: profile.substrate_query,
                tile_view_ns: 0,
            },
        })
    }

    fn planned_evaluations(&self, ctx: &SearchContext<'_>, _limit: usize) -> usize {
        usize::try_from(ctx.total_subsets())
            .unwrap_or(usize::MAX)
            .min(self.width.max(1))
    }
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
    fn chain_survivor_cap_matches_direct_count() {
        // No distances: every combination survives.
        assert_eq!(chain_survivors_capped(6, 2, None, &[], usize::MAX), 15);
        assert_eq!(chain_survivors_capped(6, 2, None, &[], 4), 5); // capped
        let d = vec![
            vec![Some(0), Some(1), Some(2)],
            vec![Some(1), Some(0), Some(1)],
            vec![Some(2), Some(1), Some(0)],
        ];
        // Budget 1: {0,1} and {1,2} survive, {0,2} is pruned.
        assert_eq!(chain_survivors_capped(3, 2, Some(&d), &[1], usize::MAX), 2);
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

    #[test]
    fn bound_pruning_is_value_exact_and_thread_count_invariant() {
        // One dense hotspot and a small fleet: the primer saturates the
        // fleet, so the admissible bound has a tail to skip.
        let mut b = Instance::builder(grid(300.0, 1500.0), 450.0);
        for i in 0..20 {
            b.add_user(Point2::new(700.0 + 5.0 * i as f64, 760.0), 2_000.0);
        }
        for cap in [3u32, 2, 2] {
            b.add_uav(cap, UavRadio::new(30.0, 5.0, 400.0));
        }
        let inst = b.build().unwrap();
        for s in [1usize, 2] {
            let runs: Vec<_> = [1usize, 2, 4]
                .iter()
                .map(|&t| {
                    let config = ApproxConfig::with_s(s).threads(t);
                    crate::check_sweep_oracles(&inst, &config).unwrap();
                    approx_alg_with_stats(&inst, &config).unwrap().1
                })
                .collect();
            let first = &runs[0];
            assert!(
                first.subsets_bound_pruned > 0,
                "s = {s}: the bound never fired"
            );
            assert_eq!(
                first.subsets_enumerated,
                first.subsets_evaluated + first.subsets_chain_pruned + first.subsets_bound_pruned
            );
            for stats in &runs[1..] {
                assert_eq!(stats.subsets_chain_pruned, first.subsets_chain_pruned);
                assert_eq!(stats.subsets_bound_pruned, first.subsets_bound_pruned);
                assert_eq!(stats.subsets_evaluated, first.subsets_evaluated);
                assert_eq!(stats.gain_queries, first.gain_queries);
            }
        }
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

    #[test]
    fn strategy_adjusted_guard_lets_a_narrow_beam_through() {
        // The raw enumeration exceeds the limit, but the beam plans at
        // most `width` evaluations — the guard must use the latter.
        let inst = two_cluster_instance();
        let config = ApproxConfig::with_s(2)
            .max_subsets(4)
            .seed_strategy(SeedStrategyKind::Beam { width: 3 });
        let (sol, _) = approx_alg_with_stats(&inst, &config).unwrap();
        sol.validate(&inst).unwrap();
        let exhaustive = ApproxConfig::with_s(2).max_subsets(4);
        assert!(matches!(
            approx_alg_with_stats(&inst, &exhaustive),
            Err(CoreError::InvalidParameters(_))
        ));
    }
}
