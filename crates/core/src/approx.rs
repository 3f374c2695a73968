//! Algorithm 2 — `approAlg`, the `O(√(s/K))`-approximation for the
//! maximum connected coverage problem (§III-E).
//!
//! For every `s`-subset of candidate locations (the *seeds*
//! `{v*_1 … v*_s}`):
//!
//! 1. run the two-matroid lazy greedy: deploy UAVs in non-increasing
//!    capacity order, each at the feasible location (w.r.t. the
//!    hop-budget matroid `M2`) with the largest exact marginal gain of
//!    the optimal assignment;
//! 2. connect the chosen locations with an MST over hop distances,
//!    expanding tree edges to shortest relay paths (Fig. 3);
//! 3. discard the subset if the connected set needs more than `K`
//!    UAVs; otherwise deploy the remaining (smaller) UAVs on the relay
//!    locations and score the deployment with the optimal assignment.
//!
//! The best subset wins. Two prunings keep the `C(m, s)` enumeration
//! tractable (both on by default; disable both to run the *literal*
//! paper algorithm with its full `O(K² n² m^{s+1})` enumeration):
//!
//! * **empty-seed pruning** — drops locations covering zero users from
//!   the seed pool (they can still appear as greedy picks or relays);
//! * **chain pruning** — the ratio analysis positions its witness
//!   seeds along a path split, so consecutive witness seeds sit at
//!   most `p*_i + 1` hops apart; subsets admitting no such ordering
//!   are skipped.
//!
//! Both prunings are heuristics: they retain the analysis' witness
//! subsets in the common case but may skip a subset that would have
//! scored higher (the relay bound `g` is only an upper bound on the
//! true connection cost). The test-suite checks that pruned runs never
//! *exceed* unpruned runs and stay competitive; EXPERIMENTS.md
//! quantifies the gap at evaluation scale.
//!
//! A third engineering default, the **leftover pass**, re-deploys the
//! `K − q_j` UAVs the paper's listing leaves grounded: each round it
//! spends `d` leftover UAVs to reach the unoccupied cell `d` hops from
//! the network with the best gain-per-UAV, relays included — a strict
//! improvement that preserves connectivity (and the gateway link).
//! `ApproxConfig::leftover_deployment(false)` restores the literal
//! behavior.
//!
//! `approx_alg` is the *cold* solver: it considers every candidate
//! location and every UAV from a blank slate. The incremental engine
//! ([`crate::SolverLoop`]) holds a standing deployment and falls back
//! to this function only when a delta drops too large a fraction of
//! the fleet to be worth repairing in place.

use crate::connecting::{connect_via_mst, connect_via_substrate};
use crate::oracle::CoverageOracle;
use crate::seed_matroid::{seed_matroid, seed_matroid_substrate};
use crate::solution::{score_deployment, Solution};
use crate::strategy::{beats, search, RankedBest, SearchContext, SeedStrategyKind, Tally};
use crate::{CoreError, Instance, SegmentPlan};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::time::Instant;
use uavnet_geom::CellIndex;
use uavnet_graph::{ConnectivitySubstrate, UNREACHABLE_HOPS};
use uavnet_matroid::{
    lazy_greedy_with, GreedyOptions, LazyGreedyWorkspace, MarginalOracle, Matroid as _,
};

/// Configuration of [`approx_alg`].
///
/// # Examples
///
/// ```
/// use uavnet_core::ApproxConfig;
/// let config = ApproxConfig::with_s(3).threads(4).prune_chain(false);
/// assert_eq!(config.s(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct ApproxConfig {
    s: usize,
    prune_chain: bool,
    prune_empty_seeds: bool,
    threads: usize,
    deploy_leftovers: bool,
    panic_at_rank: Option<u64>,
    strategy: SeedStrategyKind,
}

impl ApproxConfig {
    /// A configuration with seed count `s` and default pruning
    /// (both prunings on, one worker thread per available core).
    pub fn with_s(s: usize) -> Self {
        let threads = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1);
        ApproxConfig {
            s,
            prune_chain: true,
            prune_empty_seeds: true,
            threads,
            deploy_leftovers: true,
            panic_at_rank: None,
            strategy: SeedStrategyKind::Exhaustive,
        }
    }

    /// Selects the seed-search strategy of the subset sweep (default
    /// [`SeedStrategyKind::Exhaustive`], whose winner is bit-identical
    /// to evaluating every chain survivor); `Beam` trades a verified
    /// quality factor for a non-combinatorial evaluation count.
    pub fn seed_strategy(mut self, strategy: SeedStrategyKind) -> Self {
        self.strategy = strategy;
        self
    }

    /// Fault injection for the panic-containment tests: the worker
    /// holding enumeration rank `rank` panics right before evaluating
    /// it, simulating an oracle blowing up mid-sweep. Always compiled
    /// (integration tests cannot see `cfg(test)` items) but hidden —
    /// not part of the public API surface.
    #[doc(hidden)]
    pub fn inject_worker_panic_at(mut self, rank: u64) -> Self {
        self.panic_at_rank = Some(rank);
        self
    }

    /// Enables/disables the leftover pass: after the winning subset is
    /// connected, UAVs that Algorithm 2 would leave grounded
    /// (`q_j < K`) are deployed greedily on cells adjacent to the
    /// network while their marginal gain is positive. A strict
    /// improvement that preserves connectivity; disable for the
    /// literal paper algorithm.
    pub fn leftover_deployment(mut self, on: bool) -> Self {
        self.deploy_leftovers = on;
        self
    }

    /// Sets the number of worker threads for the subset sweep. The
    /// result is deterministic regardless of this value.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Enables/disables the consecutive-seed hop-distance pruning.
    pub fn prune_chain(mut self, on: bool) -> Self {
        self.prune_chain = on;
        self
    }

    /// Enables/disables dropping zero-coverage locations from the seed
    /// pool.
    pub fn prune_empty_seeds(mut self, on: bool) -> Self {
        self.prune_empty_seeds = on;
        self
    }

    /// The seed count `s`.
    pub fn s(&self) -> usize {
        self.s
    }

    /// Whether chain pruning is enabled.
    pub fn is_chain_pruning(&self) -> bool {
        self.prune_chain
    }

    /// Whether empty-seed pruning is enabled.
    pub fn is_empty_seed_pruning(&self) -> bool {
        self.prune_empty_seeds
    }

    /// Whether the leftover-deployment pass is enabled.
    pub fn is_leftover_deployment(&self) -> bool {
        self.deploy_leftovers
    }

    /// Worker threads for the subset sweep.
    pub fn num_threads(&self) -> usize {
        self.threads
    }

    /// The configured seed-search strategy.
    pub fn strategy(&self) -> SeedStrategyKind {
        self.strategy
    }

    /// The injected-panic enumeration rank, if any (test hook).
    pub(crate) fn panic_rank(&self) -> Option<u64> {
        self.panic_at_rank
    }
}

/// Run statistics of [`approx_alg_with_stats`].
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct ApproxStats {
    /// The segment plan from Algorithm 1.
    pub plan: SegmentPlan,
    /// Locations admitted to the seed pool.
    pub seed_pool_size: usize,
    /// `s`-subsets enumerated before any pruning. The exhaustive
    /// strategy reports `C(pool, s)`, and `enumerated = evaluated +
    /// chain_pruned + bound_pruned` always holds for it (every rank is
    /// evaluated, chain-pruned or above the watermark); the beam
    /// reports generated states (truncation drops the rest).
    pub subsets_enumerated: usize,
    /// Subsets dropped by the chain pruning.
    pub subsets_chain_pruned: usize,
    /// Subsets above the watermark `W`, the lowest rank whose subset
    /// serves `min(Σ capacities, n)`: no later rank can beat it, so the
    /// `enumerated − W − 1` ranks after it are skipped without a chain
    /// check. Zero when no subset saturates the fleet, for the beam and
    /// for the materialized reference.
    pub subsets_bound_pruned: usize,
    /// Subsets fully evaluated (greedy + connection + scoring).
    pub subsets_evaluated: usize,
    /// Evaluated subsets whose connected set exceeded `K` UAVs or
    /// could not be connected at all.
    pub subsets_unconnectable: usize,
    /// The winning seed subset, if any subset produced a deployment.
    pub best_seeds: Option<Vec<CellIndex>>,
    /// Marginal-gain queries the greedy issued across the whole sweep,
    /// those the sweep's gain memo answered without a trial insertion
    /// included ([`KernelCounts::gain_memo_hits`]), so the count equals
    /// the memo-free materialized reference's. Deterministic for a given
    /// instance and configuration, independent of the thread count.
    pub gain_queries: u64,
    /// Work of the per-subset kernels (greedy, matching, connection)
    /// over every evaluated subset; deterministic and thread-count
    /// invariant like `gain_queries`.
    pub kernel: KernelCounts,
    /// Always zero. Exists only because the benchmark (`benchmark/`)
    /// still reads it, until the benchmark change queued as ROADMAP
    /// item 7 removes it.
    pub tiles_solved: usize,
    /// Always zero. Exists only because the benchmark (`benchmark/`)
    /// still reads it, until the benchmark change queued as ROADMAP
    /// item 7 removes it.
    pub view_escapes: usize,
    /// Stable name of the seed-search strategy that ran
    /// ([`SeedStrategyKind::name`]).
    pub strategy: &'static str,
    /// Wall-clock and memory profile of the sweep (not deterministic;
    /// excluded from equivalence comparisons).
    pub profile: SweepProfile,
}

/// Work counts of Algorithm 2's per-subset kernels — the lazy greedy,
/// the matching behind its gain queries and commits, and the MST
/// connection — summed over the subsets a sweep evaluated.
///
/// Each kernel counts into its own workspace, and the sweep keeps a
/// work item's share of it only when the item starts at or below the
/// final watermark. The gain memo's scope is one work item, a
/// first-member block. The totals therefore do not depend on the thread
/// count. When the sweep skipped no rank above its watermark, the
/// memo-free materialized reference reproduces the greedy and
/// connection fields. It runs at least as much matching work, and
/// exactly as much when the memo answered nothing. The leftover pass
/// and the final scoring are not counted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct KernelCounts {
    /// Lazy-greedy heap pops answered by a still-current cached gain,
    /// without an oracle evaluation (CELF bound hits).
    pub greedy_bound_hits: u64,
    /// Lazy-greedy heap re-seeds after a radio-class change between
    /// picks invalidated the cached gains.
    pub greedy_bound_reseeds: u64,
    /// Locations the lazy greedy committed.
    pub greedy_commits: u64,
    /// Gain queries the sweep's gain memo answered from an earlier
    /// subset of the same work item with the same committed prefix,
    /// without a trial insertion. Zero for the materialized reference.
    pub gain_memo_hits: u64,
    /// Augmenting-path BFS runs of the matching, in the gain queries
    /// that ran and the commits alike.
    pub matching_bfs_restarts: u64,
    /// Users the matching's free-user pre-pass claimed without a BFS,
    /// in the gain queries that ran and the commits alike.
    pub matching_prepass_hits: u64,
    /// MST connections of two or more chosen locations.
    pub mst_connections: u64,
    /// Relay cells those connections added.
    pub relays_added: u64,
    /// Gateway extensions that had to add cells.
    pub gateway_extensions: u64,
    /// Connections and gateway extensions that found no path.
    pub connect_failures: u64,
}

impl KernelCounts {
    fn zip(self, o: Self, f: impl Fn(u64, u64) -> u64) -> Self {
        KernelCounts {
            greedy_bound_hits: f(self.greedy_bound_hits, o.greedy_bound_hits),
            greedy_bound_reseeds: f(self.greedy_bound_reseeds, o.greedy_bound_reseeds),
            greedy_commits: f(self.greedy_commits, o.greedy_commits),
            gain_memo_hits: f(self.gain_memo_hits, o.gain_memo_hits),
            matching_bfs_restarts: f(self.matching_bfs_restarts, o.matching_bfs_restarts),
            matching_prepass_hits: f(self.matching_prepass_hits, o.matching_prepass_hits),
            mst_connections: f(self.mst_connections, o.mst_connections),
            relays_added: f(self.relays_added, o.relays_added),
            gateway_extensions: f(self.gateway_extensions, o.gateway_extensions),
            connect_failures: f(self.connect_failures, o.connect_failures),
        }
    }
}

impl std::ops::AddAssign for KernelCounts {
    fn add_assign(&mut self, o: Self) {
        *self = self.zip(o, |a, b| a + b);
    }
}

impl std::ops::Sub for KernelCounts {
    type Output = Self;
    fn sub(self, o: Self) -> Self {
        self.zip(o, |a, b| a - b)
    }
}

/// Per-phase wall-clock profile of the subset sweep, summed across
/// worker threads — phase totals therefore exceed elapsed time when
/// several workers run in parallel. It times the work as it ran,
/// including work items above the final watermark that the counters
/// drop.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct SweepProfile {
    /// Nanoseconds spent generating combinations and chain-pruning.
    pub enumeration_ns: u64,
    /// Nanoseconds in the lazy greedy (matroid build, gain queries,
    /// commits), the gain memo's lookups and inserts included.
    pub greedy_ns: u64,
    /// Nanoseconds connecting picks via MST / gateway extension.
    pub connection_ns: u64,
    /// Nanoseconds deploying relay UAVs and scoring the deployment.
    pub scoring_ns: u64,
    /// Peak bytes held in subset-combination buffers across all
    /// workers: the streaming sweep keeps `O(s · threads)` indices in
    /// flight instead of materializing all `C(m, s)` subsets.
    pub subset_buffer_peak_bytes: usize,
    /// Nanoseconds building the per-sweep [`ConnectivitySubstrate`]
    /// (all-pairs hop matrix + component bitsets). Paid once; every
    /// subset afterwards reads rows instead of re-running BFS.
    pub substrate_build_ns: u64,
    /// Nanoseconds answering hop-structure queries from the substrate
    /// (matroid depths, MST weights, path descent, gateway extension),
    /// summed across workers. Also included in `greedy_ns` /
    /// `connection_ns`; reported separately so the build-once-query-
    /// often trade is visible in `sweep_report`.
    pub substrate_query_ns: u64,
    /// Always zero. Exists only because the benchmark (`benchmark/`)
    /// still reads it, until the benchmark change queued as ROADMAP
    /// item 7 removes it.
    pub tile_view_ns: u64,
}

/// Runs Algorithm 2 and returns the best solution found.
///
/// Always returns a valid, connected deployment: if every seed subset
/// fails the relay budget, it falls back to the single best location
/// for the largest UAV (a one-node network is trivially connected).
///
/// # Errors
///
/// * [`CoreError::InvalidParameters`] if `s` is zero or exceeds the
///   fleet size or the number of candidate locations.
/// * [`CoreError::Substrate`] if the location graph exceeds the
///   connectivity substrate's `u16` hop-matrix node limit.
/// * [`CoreError::Sweep`] if a worker thread panicked; every other
///   worker is joined before the error is returned, so no thread
///   outlives the call.
///
/// See the [crate-level example](crate) for usage.
pub fn approx_alg(instance: &Instance, config: &ApproxConfig) -> Result<Solution, CoreError> {
    approx_alg_with_stats(instance, config).map(|(sol, _)| sol)
}

/// [`approx_alg`] plus run statistics.
pub fn approx_alg_with_stats(
    instance: &Instance,
    config: &ApproxConfig,
) -> Result<(Solution, ApproxStats), CoreError> {
    let (solution, stats) = sweep(instance, config, search)?;
    crate::obs::record_sweep(config, &stats, &solution);
    Ok((solution, stats))
}

/// [`approx_alg_with_stats`]; `shard` is ignored.
///
/// Exists only because the benchmark (`benchmark/`) still calls it,
/// until the benchmark change queued as ROADMAP item 7 removes it.
///
/// # Errors
///
/// Those of [`approx_alg_with_stats`].
pub fn approx_alg_sharded(
    instance: &Instance,
    config: &ApproxConfig,
    _shard: &ShardConfig,
) -> Result<(Solution, ApproxStats), CoreError> {
    approx_alg_with_stats(instance, config)
}

/// The argument of [`approx_alg_sharded`], without options.
///
/// Exists only because the benchmark (`benchmark/`) still passes one,
/// until the benchmark change queued as ROADMAP item 7 removes it.
#[derive(Debug, Clone, Default)]
pub struct ShardConfig;

impl ShardConfig {
    /// The one configuration.
    pub fn new() -> Self {
        ShardConfig
    }
}

/// The one driver of Algorithm 2, behind [`approx_alg_with_stats`] and
/// the materialized reference; they differ only in `search`.
///
/// The preamble checks `s`, plans the segments, short-circuits an
/// unsatisfiable gateway, builds the connectivity substrate (timed) and
/// prepares the [`SearchContext`]. The finish takes the winner's
/// placements (or the single-UAV fallback when no subset produced a
/// deployment), runs the leftover pass and scores the result.
pub(crate) fn sweep(
    instance: &Instance,
    config: &ApproxConfig,
    search: impl FnOnce(&SearchContext<'_>) -> Result<(RankedBest, Tally), CoreError>,
) -> Result<(Solution, ApproxStats), CoreError> {
    let s = config.s;
    let m = instance.num_locations();
    if s > m {
        return Err(CoreError::InvalidParameters(format!(
            "s = {s} exceeds the {m} candidate locations"
        )));
    }
    let plan = SegmentPlan::optimal(instance.num_uavs(), s)?;
    // An unreachable uplink admits only the empty deployment: nothing
    // to search, and zeroed statistics.
    let infeasible = gateway_unsatisfiable(instance);
    let _sweep_span = (!infeasible).then(|| uavnet_obs::phases::SWEEP_TOTAL.span());
    let (best, tally, seed_pool_size) = if infeasible {
        (None, Tally::default(), 0)
    } else {
        // Build the shared connectivity substrate once: every worker
        // then reads precomputed hop rows for matroid depths, MST
        // weights and relay paths instead of re-running BFS per subset.
        let t_substrate = Instant::now();
        let substrate = build_substrate(instance)?;
        let substrate_build_ns = t_substrate.elapsed().as_nanos() as u64;
        let ctx = SearchContext::new(instance, config, &plan, &substrate);
        let (best, mut tally) = search(&ctx)?;
        tally.profile.substrate_build_ns = substrate_build_ns;
        (best, tally, ctx.pool.len())
    };

    let stats = ApproxStats {
        plan,
        seed_pool_size,
        subsets_enumerated: tally.enumerated,
        subsets_chain_pruned: tally.chain_pruned,
        subsets_bound_pruned: tally.bound_pruned,
        subsets_evaluated: tally.evaluated,
        subsets_unconnectable: tally.unconnectable,
        best_seeds: best.as_ref().map(|(.., seeds)| seeds.clone()),
        gain_queries: tally.gain_queries,
        kernel: tally.kernel,
        tiles_solved: 0,
        view_escapes: 0,
        strategy: config.strategy.name(),
        profile: tally.profile,
    };
    let mut placements = Vec::new();
    if !infeasible {
        placements = match best {
            Some((_, _, placements, _)) => placements,
            None => fallback_single_uav(instance),
        };
        if config.deploy_leftovers {
            deploy_leftovers(instance, &mut placements);
        }
    }
    let solution = score_deployment(instance, placements);
    #[cfg(feature = "debug-validate")]
    solution
        .validate(instance)
        .expect("debug-validate: sweep produced a solution its own validator rejects");
    Ok((solution, stats))
}

/// The instance's connectivity substrate, timed as the
/// `substrate_build` phase.
pub(crate) fn build_substrate(instance: &Instance) -> Result<ConnectivitySubstrate, CoreError> {
    let _span = uavnet_obs::phases::SUBSTRATE_BUILD.span();
    Ok(ConnectivitySubstrate::build(instance.location_graph())?)
}

/// The seed pool: locations admitted as enumeration candidates, in
/// the canonical greedy max-marginal-coverage order.
///
/// Under empty-seed pruning, zero-coverage locations are dropped, and
/// so is every location whose substrate component holds fewer than `s`
/// surviving pool members: any `s`-subset containing such a location
/// either spans components (unconnectable) or cannot be formed at all,
/// so `next_combination` / `unrank_combination` never have to
/// enumerate it. The filter is value-preserving — it only removes
/// subsets the connection step would reject.
///
/// The surviving pool is then put in greedy max-marginal-coverage
/// order via [`marginal_coverage_order`]: position 0 is the cell
/// covering the most users, position 1 the cell covering the most
/// *additional* users, and so on (ties by cell index). This CELF-style
/// canonical order defines the enumeration ranks every strategy
/// shares, and it makes the low ranks *complementary* — one cell per
/// user hotspot — instead of packing them with overlapping cells from
/// the densest cluster. Two things follow. First, the sweep's
/// tie-break (lowest rank among equally-served maxima) prefers the
/// deployment built from maximally complementary dense cells, a
/// meaningful canonical representative. Second, a maximum-serving
/// subset tends to appear at a *low* rank, and the exhaustive sweep
/// skips every rank after the first subset that saturates the fleet.
/// The order changes only which of several equally-served subsets
/// wins, and how many ranks that stop skips; the served count and the
/// subset universe are order-invariant.
pub(crate) fn seed_pool(
    instance: &Instance,
    config: &ApproxConfig,
    sub: &ConnectivitySubstrate,
) -> Vec<usize> {
    let m = instance.num_locations();
    let s = config.s;
    let mut pool: Vec<usize> = (0..m)
        .filter(|&v| !config.prune_empty_seeds || instance.best_coverage_count(v) > 0)
        .collect();
    if config.prune_empty_seeds && s >= 2 {
        let mut members_per_component = vec![0usize; sub.num_components()];
        for &v in &pool {
            members_per_component[sub.component_of(v)] += 1;
        }
        pool.retain(|&v| members_per_component[sub.component_of(v)] >= s);
    }
    if pool.len() < s {
        // Degenerate coverage: refill so that the enumeration exists.
        pool = (0..m).collect();
    }
    marginal_coverage_order(instance, &mut pool);
    pool
}

/// Reorders `pool` into greedy max-marginal-coverage order with the
/// classic lazy (CELF) evaluation: each cell's cached gain is an upper
/// bound on its current marginal coverage (marginals only shrink as
/// users get claimed), so a popped entry whose cache is stale is
/// re-counted and re-queued rather than rescanning every candidate per
/// step. Coverage is the union over all radio classes, deduplicated
/// with an epoch stamp. Deterministic: the heap orders by
/// `(gain, Reverse(cell))`, so equal gains resolve to the smallest
/// cell index, and exhausted cells (gain 0) fall out in cell order.
fn marginal_coverage_order(instance: &Instance, pool: &mut [usize]) {
    if pool.len() <= 1 {
        return;
    }
    let classes = instance.num_radio_classes();
    let n = instance.num_users();
    let mut claimed = vec![false; n];
    let mut seen: Vec<u32> = vec![0; n];
    let mut epoch = 0u32;
    let mut marginal = |v: usize, claimed: &[bool], seen: &mut [u32]| -> u64 {
        epoch += 1;
        let mut count = 0u64;
        for class in 0..classes {
            instance.coverable_class(class, v).for_each_while(|u| {
                let u = u as usize;
                if seen[u] != epoch && !claimed[u] {
                    seen[u] = epoch;
                    count += 1;
                }
                true
            });
        }
        count
    };
    // (cached gain, Reverse(cell), commit round the cache was taken in).
    let mut heap: BinaryHeap<(u64, Reverse<usize>, usize)> = pool
        .iter()
        .map(|&v| (marginal(v, &claimed, &mut seen), Reverse(v), 0))
        .collect();
    let mut round = 0usize;
    let mut order = Vec::with_capacity(pool.len());
    while let Some((gain, Reverse(v), cached_round)) = heap.pop() {
        if cached_round == round || gain == 0 {
            // Fresh (or unimprovably empty): commit and claim.
            for class in 0..classes {
                instance.coverable_class(class, v).for_each_while(|u| {
                    claimed[u as usize] = true;
                    true
                });
            }
            order.push(v);
            round += 1;
        } else {
            heap.push((marginal(v, &claimed, &mut seen), Reverse(v), round));
        }
    }
    pool.copy_from_slice(&order);
}

/// Hop distances between pool members for the chain pruning (`None`
/// when the pruning is off or trivial), filled from the substrate's
/// precomputed rows — `O(pool²)` lookups, no BFS.
pub(crate) fn pool_distances(
    config: &ApproxConfig,
    pool: &[usize],
    sub: &ConnectivitySubstrate,
) -> Option<Vec<Vec<Option<u32>>>> {
    if !config.prune_chain || config.s < 2 {
        return None;
    }
    Some(
        pool.iter()
            .map(|&v| {
                let row = sub.hop_row(v);
                pool.iter()
                    .map(|&w| match row[w] {
                        UNREACHABLE_HOPS => None,
                        d => Some(u32::from(d)),
                    })
                    .collect()
            })
            .collect(),
    )
}

/// Reference implementation of the subset sweep kept for equivalence
/// testing: materializes every chain-pruning survivor up front and
/// evaluates them all sequentially, each with a fresh workspace and a
/// fresh gain memo (so no gain query is ever answered from the memo) on
/// the brute-force BFS backend — no stop at a fleet-saturating subset. It
/// shares the driver's preamble and finish with
/// [`approx_alg_with_stats`] and produces exactly the same solution; see
/// [`check_sweep_oracles`](crate::check_sweep_oracles) for how their
/// statistics relate.
#[doc(hidden)]
pub fn approx_alg_materialized(
    instance: &Instance,
    config: &ApproxConfig,
) -> Result<(Solution, ApproxStats), CoreError> {
    let config = config.clone().seed_strategy(SeedStrategyKind::Exhaustive);
    sweep(instance, &config, |ctx| {
        // The substrate still decides pool construction and chain
        // pruning (those must match the streaming sweep
        // subset-for-subset), but every per-subset computation below
        // runs on the BFS backend — this path is the differential
        // oracle for the substrate-backed one.
        let mut tally = Tally::default();
        let mut subsets: Vec<Vec<CellIndex>> = Vec::new();
        let mut combo = (0..config.s).collect::<Vec<usize>>();
        loop {
            tally.enumerated += 1;
            if ctx.chain_feasible(&combo) {
                subsets.push(combo.iter().map(|&i| ctx.pool[i]).collect());
            } else {
                tally.chain_pruned += 1;
            }
            if !next_combination(&mut combo, ctx.pool.len()) {
                break;
            }
        }
        let mut best: RankedBest = None;
        for (rank, seeds) in (0u64..).zip(subsets) {
            let mut ws = SweepWorkspace::new(instance);
            tally.evaluated += 1;
            let memo = &mut GainMemo::default();
            match ws.solve_subset(ctx.plan, &seeds, memo, &mut tally.profile) {
                SubsetOutcome::Served(served) => {
                    if beats(&best, served, rank) {
                        best = Some((served, rank, ws.placements().to_vec(), seeds));
                    }
                }
                SubsetOutcome::Unconnectable => tally.unconnectable += 1,
            }
            tally.gain_queries += ws.gain_queries();
            tally.kernel += ws.counts();
        }
        Ok((best, tally))
    })
}

/// Greedily deploys the UAVs Algorithm 2 left grounded (`q_j < K`),
/// while the marginal gain of the optimal assignment stays positive.
///
/// Each round considers every *reachable* unoccupied cell: a cell `d`
/// hops from the network costs `d` leftover UAVs (`d − 1` zero-gain
/// relays along a shortest path, then the serving UAV). The round
/// deploys the chain maximizing gain per UAV spent, so the pass can
/// bridge toward a distant user pocket when enough fleet remains —
/// connectivity (and any gateway link) is preserved by construction.
pub(crate) fn deploy_leftovers(instance: &Instance, placements: &mut Vec<(usize, CellIndex)>) {
    use std::collections::VecDeque;
    use uavnet_flow::CapacitatedMatching;
    use uavnet_graph::{multi_source_hops, shortest_path};
    let graph = instance.location_graph();
    let m = instance.num_locations();
    // Undeployed UAVs, largest capacity first: servers pop from the
    // front, relay duty goes to the smallest leftovers at the back.
    let deployed: Vec<usize> = placements.iter().map(|&(u, _)| u).collect();
    let mut remaining: VecDeque<usize> = instance
        .uavs_by_capacity()
        .iter()
        .copied()
        .filter(|u| !deployed.contains(u))
        .collect();
    let mut matching = CapacitatedMatching::new(instance.num_users());
    let mut occupied = vec![false; m];
    for &(uav, loc) in placements.iter() {
        let st =
            matching.add_station_list(instance.uavs()[uav].capacity, instance.coverable(uav, loc));
        matching.saturate(st);
        occupied[loc] = true;
    }
    while let Some(&server) = remaining.front() {
        let budget = remaining.len();
        // Hop distance from the current network; with nothing deployed
        // yet, any single cell costs one UAV.
        let dist: Vec<Option<u32>> = if placements.is_empty() {
            vec![Some(1); m]
        } else {
            multi_source_hops(graph, placements.iter().map(|&(_, l)| l))
        };
        let cap = instance.uavs()[server].capacity;
        let mut best: Option<(f64, u32, usize)> = None; // (ratio, dist, cell)
        for c in 0..m {
            if occupied[c] {
                continue;
            }
            let Some(d) = dist[c] else { continue };
            let d = d.max(1);
            if d as usize > budget {
                continue;
            }
            let gain = matching.evaluate_station_list(cap, instance.coverable(server, c));
            if gain == 0 {
                continue;
            }
            let ratio = f64::from(gain) / f64::from(d);
            let better = match best {
                None => true,
                Some((br, bd, bc)) => {
                    ratio > br + 1e-12 || ((ratio - br).abs() <= 1e-12 && (d, c) < (bd, bc))
                }
            };
            if better {
                best = Some((ratio, d, c));
            }
        }
        let Some((_, d, target)) = best else { break };
        fn place(
            instance: &Instance,
            matching: &mut CapacitatedMatching,
            occupied: &mut [bool],
            placements: &mut Vec<(usize, CellIndex)>,
            uav: usize,
            loc: usize,
        ) {
            let st = matching
                .add_station_list(instance.uavs()[uav].capacity, instance.coverable(uav, loc));
            matching.saturate(st);
            occupied[loc] = true;
            placements.push((uav, loc));
        }
        if placements.is_empty() || d == 1 {
            let uav = remaining.pop_front().expect("checked front");
            place(
                instance,
                &mut matching,
                &mut occupied,
                placements,
                uav,
                target,
            );
            continue;
        }
        // Walk a shortest chain from the network to the target: relay
        // cells take the smallest leftovers, the target takes `server`.
        let start = placements
            .iter()
            .map(|&(_, l)| l)
            .min_by_key(|&l| uavnet_graph::hop_distance(graph, l, target).unwrap_or(u32::MAX))
            .expect("non-empty placements");
        let path = shortest_path(graph, start, target).expect("finite hop distance");
        for &cell in path.iter().skip(1) {
            if occupied[cell] {
                continue; // an existing network cell en route
            }
            let uav = if cell == target {
                remaining.pop_front().expect("budget checked")
            } else {
                remaining.pop_back().expect("budget checked")
            };
            place(
                instance,
                &mut matching,
                &mut occupied,
                placements,
                uav,
                cell,
            );
        }
    }
}

/// Whether the scenario has a gateway that no candidate cell can
/// reach. The uplink constraint is then unsatisfiable — every
/// non-empty deployment fails [`Solution::validate`] — so the sweep
/// short-circuits to the empty deployment instead of "deploying" UAVs
/// with no Internet path.
fn gateway_unsatisfiable(instance: &Instance) -> bool {
    instance.gateway().is_some() && instance.gateway_cells().is_empty()
}

/// Best-effort fallback: the largest UAV alone at its best location
/// (restricted to gateway-capable cells when the scenario has an
/// uplink and any cell can reach it).
fn fallback_single_uav(instance: &Instance) -> Vec<(usize, CellIndex)> {
    let uav = instance.uavs_by_capacity()[0];
    let gateway_cells = instance.gateway_cells();
    let candidates: Vec<usize> = if instance.gateway().is_some() && !gateway_cells.is_empty() {
        gateway_cells
    } else {
        (0..instance.num_locations()).collect()
    };
    let best_loc = candidates
        .into_iter()
        .max_by_key(|&loc| {
            (
                instance
                    .coverage_count(uav, loc)
                    .min(instance.uavs()[uav].capacity as usize),
                std::cmp::Reverse(loc),
            )
        })
        .expect("grids have at least one cell");
    vec![(uav, best_loc)]
}

/// Advances `combo` to the next size-`|combo|` combination of
/// `0..n` in lexicographic order; `false` when exhausted.
pub(crate) fn next_combination(combo: &mut [usize], n: usize) -> bool {
    let s = combo.len();
    let mut i = s;
    while i > 0 {
        i -= 1;
        if combo[i] < n - s + i {
            combo[i] += 1;
            for j in i + 1..s {
                combo[j] = combo[j - 1] + 1;
            }
            return true;
        }
    }
    false
}

/// Does some ordering of `combo` respect consecutive hop budgets?
pub(crate) fn chain_feasible(
    pool_dists: &[Vec<Option<u32>>],
    combo: &[usize],
    budgets: &[usize],
) -> bool {
    debug_assert_eq!(budgets.len() + 1, combo.len());
    let mut perm: Vec<usize> = combo.to_vec();
    permute_check(&mut perm, 0, pool_dists, budgets)
}

fn permute_check(
    perm: &mut [usize],
    fixed: usize,
    d: &[Vec<Option<u32>>],
    budgets: &[usize],
) -> bool {
    let n = perm.len();
    if fixed == n {
        return true;
    }
    for i in fixed..n {
        perm.swap(fixed, i);
        let ok = fixed == 0
            || matches!(d[perm[fixed - 1]][perm[fixed]], Some(dist) if dist as usize <= budgets[fixed - 1]);
        if ok && permute_check(perm, fixed + 1, d, budgets) {
            perm.swap(fixed, i);
            return true;
        }
        perm.swap(fixed, i);
    }
    false
}

/// What [`SweepWorkspace::solve_subset`] decided about one seed subset.
#[derive(Debug, Clone, Copy)]
pub(crate) enum SubsetOutcome {
    /// The subset produced a connected deployment serving this many
    /// users; the placements are on the workspace.
    Served(usize),
    /// The connected set exceeded the fleet (or a component could not
    /// be connected at all).
    Unconnectable,
}

/// Answers to the lazy greedy's gain queries, shared by the seed
/// subsets of one work item.
///
/// A gain query's answer depends only on the greedy's committed
/// prefix: the `k`-th commit always deploys the `k`-th UAV of
/// `uavs_by_capacity`, and the increase of a maximum matching is
/// unique. So the memo keys each answer by the exact prefix, a node of
/// a trie over committed locations, and by the location asked about;
/// node ids are exact, never a hash of the prefix. Subsets that share
/// their first seed mostly commit the same first picks and then ask the
/// same questions again. Each subset's own matroid and heap still decide
/// which locations the greedy asks about, so an answer from the memo
/// cannot change any pick.
///
/// The sweep clears the memo at the start of every work item, so every
/// counter stays independent of the thread count.
#[derive(Debug, Default)]
pub(crate) struct GainMemo {
    /// Trie edges `(node, location) → child`; node 0 is the empty
    /// prefix.
    children: HashMap<MemoKey, usize>,
    /// `(node, location) → gain` of deploying the next UAV at
    /// `location` on top of the node's prefix.
    gains: HashMap<MemoKey, u64>,
    /// Trie nodes allocated besides the root.
    nodes: usize,
    /// The trie node of the current subset's committed prefix.
    cursor: usize,
}

/// A trie node and a location.
type MemoKey = (usize, CellIndex);

impl GainMemo {
    /// Forgets every answer: the start of a work item.
    pub(crate) fn clear(&mut self) {
        self.children.clear();
        self.gains.clear();
        self.nodes = 0;
        self.begin_subset();
    }

    /// Returns the cursor to the empty prefix.
    fn begin_subset(&mut self) {
        self.cursor = 0;
    }

    /// The recorded gain of `loc` on top of the current prefix.
    fn gain(&self, loc: CellIndex) -> Option<u64> {
        self.gains.get(&(self.cursor, loc)).copied()
    }

    /// Remembers the gain of `loc` on top of the current prefix.
    fn record(&mut self, loc: CellIndex, gain: u64) {
        self.gains.insert((self.cursor, loc), gain);
    }

    /// Moves the cursor past a commit of `loc`.
    fn advance(&mut self, loc: CellIndex) {
        let fresh = self.nodes + 1;
        let child = *self.children.entry((self.cursor, loc)).or_insert(fresh);
        if child == fresh {
            self.nodes = fresh;
        }
        self.cursor = child;
    }
}

/// The lazy greedy's oracle in the sweep: a [`CoverageOracle`] whose
/// gain queries the [`GainMemo`] answers when it can.
struct MemoizedOracle<'o, 'a> {
    oracle: &'o mut CoverageOracle<'a>,
    memo: &'o mut GainMemo,
    /// Queries the memo answered.
    hits: u64,
}

impl MarginalOracle for MemoizedOracle<'_, '_> {
    fn gain(&mut self, loc: usize) -> u64 {
        if let Some(gain) = self.memo.gain(loc) {
            #[cfg(feature = "debug-validate")]
            assert_eq!(
                self.oracle.gain_uncounted(loc),
                gain,
                "debug-validate: the gain memo's answer for location {loc} differs from a trial insertion"
            );
            self.hits += 1;
            return gain;
        }
        let gain = self.oracle.gain(loc);
        self.memo.record(loc, gain);
        gain
    }

    fn commit(&mut self, loc: usize) {
        self.oracle.commit(loc);
        self.memo.advance(loc);
    }

    fn gain_upper_bound(&self, loc: usize) -> u64 {
        self.oracle.gain_upper_bound(loc)
    }

    fn bounds_carry_over(&self, prev: usize, next: usize) -> bool {
        self.oracle.bounds_carry_over(prev, next)
    }
}

/// Per-worker reusable state for the subset sweep: the coverage oracle
/// (whose incremental-matching buffers persist across subsets via
/// [`CoverageOracle::reset`]), the lazy-greedy workspace, and the
/// ground/relay scratch vectors. One workspace evaluates thousands of
/// subsets without allocating on the oracle's query path. The
/// [`GainMemo`] is the caller's, kept across the subsets of a work
/// item.
pub(crate) struct SweepWorkspace<'a> {
    instance: &'a Instance,
    /// Precomputed hop structure; `None` runs the brute-force BFS
    /// backend (the materialized differential oracle).
    substrate: Option<&'a ConnectivitySubstrate>,
    /// Sorted gateway-capable cells, for the substrate extension path.
    gateway_cells: Vec<CellIndex>,
    oracle: CoverageOracle<'a>,
    greedy: LazyGreedyWorkspace,
    /// The connection fields of [`counts`](Self::counts); the greedy
    /// and matching fields stay zero here.
    connect: KernelCounts,
    /// Gain queries the memo answered.
    memo_hits: u64,
    ground: Vec<usize>,
    locs: Vec<usize>,
    relays: Vec<usize>,
}

impl<'a> SweepWorkspace<'a> {
    pub(crate) fn new(instance: &'a Instance) -> Self {
        SweepWorkspace {
            instance,
            substrate: None,
            gateway_cells: instance.gateway_cells(),
            oracle: CoverageOracle::new(instance),
            greedy: LazyGreedyWorkspace::new(),
            connect: KernelCounts::default(),
            memo_hits: 0,
            ground: Vec::new(),
            locs: Vec::new(),
            relays: Vec::new(),
        }
    }

    pub(crate) fn with_substrate(instance: &'a Instance, sub: &'a ConnectivitySubstrate) -> Self {
        let mut ws = SweepWorkspace::new(instance);
        ws.substrate = Some(sub);
        ws
    }

    /// The full deployment (greedy picks, forced seeds, then relays)
    /// of the last successful [`solve_subset`](Self::solve_subset).
    pub(crate) fn placements(&self) -> &[(usize, CellIndex)] {
        self.oracle.placements()
    }

    /// Cumulative gain queries across every subset this workspace
    /// evaluated, the memo's answers included.
    pub(crate) fn gain_queries(&self) -> u64 {
        self.oracle.gain_queries() + self.memo_hits
    }

    /// Cumulative kernel work across every subset this workspace
    /// evaluated.
    pub(crate) fn counts(&self) -> KernelCounts {
        let (greedy, matching) = (self.greedy.counts(), self.oracle.matching_counts());
        KernelCounts {
            greedy_bound_hits: greedy.bound_hits,
            greedy_bound_reseeds: greedy.bound_reseeds,
            greedy_commits: greedy.commits,
            gain_memo_hits: self.memo_hits,
            matching_bfs_restarts: matching.bfs_restarts,
            matching_prepass_hits: matching.prepass_hits,
            ..self.connect
        }
    }

    /// Greedy + connection + scoring for one seed subset, the greedy's
    /// gain queries going through `memo`; on [`SubsetOutcome::Served`]
    /// the deployment is [`placements`](Self::placements).
    pub(crate) fn solve_subset(
        &mut self,
        plan: &SegmentPlan,
        seeds: &[usize],
        memo: &mut GainMemo,
        profile: &mut SweepProfile,
    ) -> SubsetOutcome {
        let instance = self.instance;
        let graph = instance.location_graph();
        let t = Instant::now();
        self.oracle.reset();
        memo.begin_subset();
        let m2 = match self.substrate {
            Some(sub) => seed_matroid_substrate(sub, seeds, plan),
            None => seed_matroid(graph, seeds, plan),
        };
        if self.substrate.is_some() {
            profile.substrate_query_ns += t.elapsed().as_nanos() as u64;
        }
        self.ground.clear();
        self.ground
            .extend((0..instance.num_locations()).filter(|&v| m2.depth_of(v).is_some()));
        let mut oracle = MemoizedOracle {
            oracle: &mut self.oracle,
            memo: &mut *memo,
            hits: 0,
        };
        lazy_greedy_with(
            &mut self.greedy,
            &mut oracle,
            &self.ground,
            |set, e| m2.can_extend(set, e),
            GreedyOptions {
                max_picks: plan.l_max(),
                allow_zero_gain: false,
            },
        );
        self.memo_hits += oracle.hits;
        // Seeds must end up in the chosen set (§III-E); commit any the
        // greedy skipped for lack of marginal value.
        for &seed in seeds {
            if !self.oracle.placements().iter().any(|&(_, l)| l == seed) {
                if self.oracle.next_uav().is_none() {
                    return SubsetOutcome::Unconnectable;
                }
                self.oracle.commit(seed);
            }
        }
        self.locs.clear();
        self.locs
            .extend(self.oracle.placements().iter().map(|&(_, l)| l));
        profile.greedy_ns += t.elapsed().as_nanos() as u64;

        let t = Instant::now();
        let connected = match self.substrate {
            Some(sub) => connect_via_substrate(graph, sub, &self.locs),
            None => connect_via_mst(graph, &self.locs),
        };
        let Ok(mut all) = connected else {
            self.connect.connect_failures += 1;
            profile.connection_ns += t.elapsed().as_nanos() as u64;
            return SubsetOutcome::Unconnectable;
        };
        if self.locs.len() > 1 {
            self.connect.mst_connections += 1;
            self.connect.relays_added += (all.len() - self.locs.len()) as u64;
        }
        if instance.gateway().is_some() {
            let extended = match self.substrate {
                Some(sub) => crate::connecting::extend_to_gateway_substrate(
                    graph,
                    sub,
                    &all,
                    &self.gateway_cells,
                ),
                None => crate::connecting::extend_to_gateway(graph, &all, |c| {
                    instance.is_gateway_cell(c)
                }),
            };
            let Ok(extra) = extended else {
                self.connect.connect_failures += 1;
                profile.connection_ns += t.elapsed().as_nanos() as u64;
                return SubsetOutcome::Unconnectable;
            };
            self.connect.gateway_extensions += u64::from(!extra.is_empty());
            all.extend(extra);
        }
        let connection = t.elapsed().as_nanos() as u64;
        profile.connection_ns += connection;
        if self.substrate.is_some() {
            profile.substrate_query_ns += connection;
        }
        if all.len() > instance.num_uavs() {
            return SubsetOutcome::Unconnectable;
        }

        // Deploy the remaining (smaller) UAVs on the relays; give
        // larger leftovers to relays with more coverable users. Commits
        // continue down `uavs_by_capacity`, so scoring rides the same
        // incremental matching instead of re-solving the assignment
        // from scratch.
        let t = Instant::now();
        self.relays.clear();
        self.relays.extend_from_slice(&all[self.locs.len()..]);
        self.relays
            .sort_by_key(|&v| (Reverse(instance.best_coverage_count(v)), v));
        for i in 0..self.relays.len() {
            let relay = self.relays[i];
            debug_assert!(self.oracle.next_uav().is_some(), "fleet bound checked");
            self.oracle.commit(relay);
        }
        let served = self.oracle.served();
        profile.scoring_ns += t.elapsed().as_nanos() as u64;
        SubsetOutcome::Served(served)
    }
}

/// Extracts a human-readable message from a joined thread's panic
/// payload. `panic!` with a format string yields a `String`, a literal
/// yields `&'static str`; anything else (a custom `panic_any` value)
/// gets a placeholder rather than being dropped silently.
pub(crate) fn panic_payload_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked with a non-string payload".to_string()
    }
}

/// `C(n, k)`, saturating at `u64::MAX`. Exact for every value the sweep
/// can actually enumerate; a saturated total only means the cursor
/// never reaches the end.
pub(crate) fn binomial(n: usize, k: usize) -> u64 {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut r: u128 = 1;
    for i in 0..k {
        // Incrementally exact: after this step r = C(n - k + 1 + i, i + 1).
        r = r * (n - k + 1 + i) as u128 / (i + 1) as u128;
        if r > u64::MAX as u128 {
            return u64::MAX;
        }
    }
    r as u64
}

/// Writes the `rank`-th (0-based, lexicographic) `s`-combination of
/// `0..n` into `combo` — combinadic unranking, the random-access
/// counterpart of [`next_combination`].
pub(crate) fn unrank_combination(mut rank: u64, n: usize, s: usize, combo: &mut Vec<usize>) {
    debug_assert!(rank < binomial(n, s));
    combo.clear();
    let mut next = 0usize;
    for remaining in (1..=s).rev() {
        loop {
            // Combinations starting with `next` among those left.
            let with_next = binomial(n - next - 1, remaining - 1);
            if rank < with_next {
                combo.push(next);
                next += 1;
                break;
            }
            rank -= with_next;
            next += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uavnet_channel::UavRadio;
    use uavnet_geom::{AreaSpec, GridSpec, Point2};

    fn grid(cell: f64, side: f64) -> uavnet_geom::Grid {
        GridSpec::new(AreaSpec::new(side, side, 500.0).unwrap(), cell, 300.0)
            .unwrap()
            .build()
    }

    /// Two user clusters at opposite corners plus a sparse middle.
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
    fn solves_and_validates_two_clusters() {
        let inst = two_cluster_instance();
        let (sol, stats) =
            approx_alg_with_stats(&inst, &ApproxConfig::with_s(1).threads(2)).unwrap();
        sol.validate(&inst).unwrap();
        assert!(sol.served_users() >= 6, "served {}", sol.served_users());
        assert!(stats.subsets_evaluated > 0);
        assert!(stats.best_seeds.is_some());
    }

    #[test]
    fn s2_stays_close_to_s1_on_clusters() {
        // Only the *guarantee* is monotone in s, not every realized
        // value; on this instance the two must stay within a couple of
        // users of each other.
        let inst = two_cluster_instance();
        let s1 = approx_alg(&inst, &ApproxConfig::with_s(1).threads(2)).unwrap();
        let s2 = approx_alg(&inst, &ApproxConfig::with_s(2).threads(2)).unwrap();
        s1.validate(&inst).unwrap();
        s2.validate(&inst).unwrap();
        assert!(
            s2.served_users() + 2 >= s1.served_users(),
            "s=2 served {} far below s=1 served {}",
            s2.served_users(),
            s1.served_users()
        );
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let inst = two_cluster_instance();
        let a = approx_alg(&inst, &ApproxConfig::with_s(2).threads(1)).unwrap();
        let b = approx_alg(&inst, &ApproxConfig::with_s(2).threads(4)).unwrap();
        assert_eq!(a.served_users(), b.served_users());
        assert_eq!(a.deployment().placements(), b.deployment().placements());
    }

    #[test]
    fn pruned_run_never_beats_unpruned() {
        let inst = two_cluster_instance();
        let pruned = approx_alg(&inst, &ApproxConfig::with_s(2).threads(2)).unwrap();
        let unpruned = approx_alg(
            &inst,
            &ApproxConfig::with_s(2)
                .threads(2)
                .prune_chain(false)
                .prune_empty_seeds(false),
        )
        .unwrap();
        pruned.validate(&inst).unwrap();
        unpruned.validate(&inst).unwrap();
        // The pruned sweep evaluates a subset of the full enumeration.
        assert!(pruned.served_users() <= unpruned.served_users());
        // …and still retains a competitive value on this instance.
        assert!(2 * pruned.served_users() >= unpruned.served_users());
    }

    #[test]
    fn rejects_oversized_s() {
        let inst = two_cluster_instance();
        assert!(approx_alg(&inst, &ApproxConfig::with_s(0)).is_err());
        assert!(approx_alg(&inst, &ApproxConfig::with_s(7)).is_err()); // K = 6
    }

    #[test]
    fn single_uav_fleet_still_works() {
        let mut b = Instance::builder(grid(300.0, 900.0), 600.0);
        b.add_user(Point2::new(450.0, 450.0), 2_000.0);
        b.add_user(Point2::new(460.0, 450.0), 2_000.0);
        b.add_uav(1, UavRadio::new(30.0, 5.0, 500.0));
        let inst = b.build().unwrap();
        let sol = approx_alg(&inst, &ApproxConfig::with_s(1)).unwrap();
        sol.validate(&inst).unwrap();
        assert_eq!(sol.served_users(), 1);
        assert_eq!(sol.deployment().len(), 1);
    }

    #[test]
    fn no_coverable_users_falls_back_gracefully() {
        let mut b = Instance::builder(grid(300.0, 900.0), 600.0);
        b.add_user(Point2::new(450.0, 450.0), 1e15); // unservable rate
        b.add_uav(2, UavRadio::new(30.0, 5.0, 500.0));
        b.add_uav(2, UavRadio::new(30.0, 5.0, 500.0));
        let inst = b.build().unwrap();
        let sol = approx_alg(&inst, &ApproxConfig::with_s(1)).unwrap();
        sol.validate(&inst).unwrap();
        assert_eq!(sol.served_users(), 0);
    }

    #[test]
    fn chain_feasibility_logic() {
        // Pool of 3 nodes on a line: distances 0-1: 1, 1-2: 1, 0-2: 2.
        let d = vec![
            vec![Some(0), Some(1), Some(2)],
            vec![Some(1), Some(0), Some(1)],
            vec![Some(2), Some(1), Some(0)],
        ];
        // Budget 1 between consecutive seeds: {0, 2} infeasible, but
        // {0, 1} and any ordering of {0, 1, 2} with budgets [1, 1]
        // feasible via the middle node.
        assert!(chain_feasible(&d, &[0, 1], &[1]));
        assert!(!chain_feasible(&d, &[0, 2], &[1]));
        assert!(chain_feasible(&d, &[0, 2], &[2]));
        assert!(chain_feasible(&d, &[0, 1, 2], &[1, 1]));
        assert!(chain_feasible(&d, &[2, 0, 1], &[1, 1])); // order-free
    }

    #[test]
    fn config_accessors_reflect_builders() {
        let c = ApproxConfig::with_s(3);
        assert_eq!(c.s(), 3);
        assert!(c.is_chain_pruning());
        assert!(c.is_empty_seed_pruning());
        assert!(c.is_leftover_deployment());
        assert!(c.num_threads() >= 1);
        let c = c
            .prune_chain(false)
            .prune_empty_seeds(false)
            .leftover_deployment(false)
            .threads(0); // clamped up to 1
        assert!(!c.is_chain_pruning());
        assert!(!c.is_empty_seed_pruning());
        assert!(!c.is_leftover_deployment());
        assert_eq!(c.num_threads(), 1);
    }

    #[test]
    fn more_uavs_than_cells_is_handled() {
        // K = 12 UAVs over a 3×3 grid (m = 9): at most 9 can deploy.
        let mut b = Instance::builder(grid(300.0, 900.0), 450.0);
        for i in 0..10 {
            b.add_user(Point2::new(80.0 + 75.0 * i as f64, 450.0), 2_000.0);
        }
        for _ in 0..12 {
            b.add_uav(1, UavRadio::new(30.0, 5.0, 400.0));
        }
        let inst = b.build().unwrap();
        let sol = approx_alg(&inst, &ApproxConfig::with_s(1).threads(1)).unwrap();
        sol.validate(&inst).unwrap();
        assert!(sol.deployment().len() <= 9);
        assert!(sol.served_users() > 0);
    }

    #[test]
    fn gateway_constraint_is_honored() {
        // Same two-cluster zone, but the uplink vehicle parks at the
        // south-west corner; the winning deployment must reach it.
        let mut b = Instance::builder(grid(300.0, 1500.0), 450.0);
        for i in 0..6 {
            b.add_user(Point2::new(1_300.0 + 10.0 * i as f64, 1_380.0), 2_000.0);
        }
        b.gateway(Point2::new(0.0, 0.0));
        for cap in [4u32, 3, 3, 2, 2, 2, 2, 2] {
            b.add_uav(cap, UavRadio::new(30.0, 5.0, 400.0));
        }
        let inst = b.build().unwrap();
        assert!(!inst.gateway_cells().is_empty());
        let sol = approx_alg(&inst, &ApproxConfig::with_s(1).threads(2)).unwrap();
        sol.validate(&inst).unwrap();
        assert!(sol
            .deployment()
            .locations()
            .iter()
            .any(|&l| inst.is_gateway_cell(l)));
        assert!(sol.served_users() > 0);
    }

    #[test]
    fn stats_account_for_all_subsets() {
        let inst = two_cluster_instance();
        let (_, stats) = approx_alg_with_stats(&inst, &ApproxConfig::with_s(2).threads(2)).unwrap();
        assert_eq!(
            stats.subsets_enumerated,
            stats.subsets_evaluated + stats.subsets_chain_pruned + stats.subsets_bound_pruned
        );
        assert!(stats.subsets_unconnectable <= stats.subsets_evaluated);
        assert!(stats.gain_queries > 0);
    }

    #[test]
    fn binomial_matches_pascal_triangle() {
        for n in 0..20usize {
            for k in 0..=n {
                let expect = if k == 0 {
                    1
                } else {
                    binomial(n - 1, k - 1).saturating_add(binomial(n.saturating_sub(1), k))
                };
                assert_eq!(binomial(n, k), expect, "C({n}, {k})");
            }
        }
        assert_eq!(binomial(3, 5), 0);
        assert_eq!(binomial(u32::MAX as usize, 20), u64::MAX); // saturates
    }

    #[test]
    fn unranking_agrees_with_lexicographic_enumeration() {
        for (n, s) in [(1usize, 1usize), (5, 1), (6, 2), (7, 3), (8, 5)] {
            let mut combo = (0..s).collect::<Vec<usize>>();
            let mut rank = 0u64;
            loop {
                let mut unranked = Vec::new();
                unrank_combination(rank, n, s, &mut unranked);
                assert_eq!(unranked, combo, "rank {rank} of C({n}, {s})");
                rank += 1;
                if !next_combination(&mut combo, n) {
                    break;
                }
            }
            assert_eq!(rank, binomial(n, s));
        }
    }

    #[test]
    fn streaming_matches_materialized_reference() {
        let inst = two_cluster_instance();
        for s in [1usize, 2] {
            let config = ApproxConfig::with_s(s).threads(4);
            crate::check_sweep_oracles(&inst, &config).unwrap();
        }
    }

    #[test]
    fn unreachable_gateway_returns_the_empty_deployment() {
        let mut b = Instance::builder(grid(300.0, 1500.0), 450.0);
        b.add_user(Point2::new(100.0, 120.0), 2_000.0);
        b.add_uav(4, UavRadio::new(30.0, 5.0, 400.0));
        b.gateway(Point2::new(1.0e6, 1.0e6));
        let inst = b.build().unwrap();
        assert!(inst.gateway_cells().is_empty());
        let config = ApproxConfig::with_s(1).threads(2);
        let (sol, stats) = approx_alg_with_stats(&inst, &config).unwrap();
        sol.validate(&inst).unwrap();
        assert!(sol.deployment().placements().is_empty());
        assert_eq!(sol.served_users(), 0);
        assert_eq!(stats.gain_queries, 0);
    }

    #[test]
    fn gain_memo_answers_shared_prefixes_exactly_at_every_thread_count() {
        let inst = two_cluster_instance();
        let config = ApproxConfig::with_s(2).threads(2);
        crate::check_sweep_oracles(&inst, &config).unwrap();
        let hits: Vec<u64> = [1usize, 2, 4, 8]
            .iter()
            .map(|&t| {
                approx_alg_with_stats(&inst, &ApproxConfig::with_s(2).threads(t))
                    .unwrap()
                    .1
                    .kernel
                    .gain_memo_hits
            })
            .collect();
        assert!(hits[0] > 0, "the memo answered nothing");
        assert!(hits.iter().all(|&h| h == hits[0]), "{hits:?}");
    }

    #[test]
    fn gain_queries_are_thread_count_invariant() {
        let inst = two_cluster_instance();
        let counts: Vec<u64> = [1usize, 2, 8]
            .iter()
            .map(|&t| {
                approx_alg_with_stats(&inst, &ApproxConfig::with_s(2).threads(t))
                    .unwrap()
                    .1
                    .gain_queries
            })
            .collect();
        assert_eq!(counts[0], counts[1]);
        assert_eq!(counts[0], counts[2]);
    }
}
