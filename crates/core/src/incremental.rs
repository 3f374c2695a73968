//! Incremental re-solve engine: a standing solver absorbing deltas.
//!
//! The batch pipeline ([`approx_alg`](crate::approx_alg)) solves one
//! frozen instance; the ROADMAP's north-star is a long-running service
//! that keeps a deployment current as users move, UAVs fail and links
//! drop. [`SolverLoop`] is that service core: it owns a standing
//! deployment, the matching kernel that scored it and the shared
//! [`ConnectivitySubstrate`], consumes a typed [`Delta`] stream, and
//! applies *localized* repair instead of a full re-solve:
//!
//! * **instance patch** — moves and surges re-encode only the coverage
//!   lists within range of a changed user, in place
//!   (see [`Instance::with_moved_users`]);
//! * **dirty-tile invalidation** — user-affecting deltas mark the
//!   [`TilePartition`] tiles around every changed position (dilated by
//!   the fleet's maximum coverage radius), and only stations hovering
//!   in a dirty tile have their coverage re-derived;
//! * **matching maintenance** — refreshed stations are deactivated and
//!   re-added in the epoch-stamped kernel
//!   ([`CapacitatedMatching`]); one
//!   [`resaturate`](CapacitatedMatching::resaturate) pass then restores
//!   the maximum matching (no cold rebuild);
//! * **connectivity repair** — kills and link cuts go through
//!   [`plan_repair`]: component triage, MST re-bridging and gateway
//!   re-extension on the substrate, spending spare UAVs as relays.
//!   This is the only repair path; fault injection drives it through
//!   [`SolverLoop::from_solution`] and [`SolverLoop::apply`].
//!
//! Correctness is pinned by verify **oracle 7**
//! ([`check_incremental`](crate::verify::check_incremental)): after any
//! delta sequence the incrementally maintained assignment must serve
//! exactly as many users as a cold rescore of the same placements on
//! the mutated instance (the maximum matching value is unique), and the
//! materialized solution must pass independent validation. Under
//! `debug-validate` every [`SolverLoop::apply`] call runs that
//! comparison inline.

use crate::approx::{approx_alg, build_substrate, ApproxConfig};
use crate::assign::{assign_users, Assignment};
use crate::connecting::{connect_via_substrate, extend_to_gateway_substrate};
use crate::model::User;
use crate::solution::{check_placement_ranges, try_score_deployment, Solution};
use crate::{CoreError, Instance};
use std::cmp::Reverse;
use uavnet_flow::CapacitatedMatching;
use uavnet_geom::{CellIndex, Point2, TilePartition};
use uavnet_graph::{connected_components, ConnectivitySubstrate};

/// One mutation of the live scenario, as emitted by mobility ticks and
/// fault detectors.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Delta {
    /// A batch of users changed position (one mobility tick; see
    /// `uavnet_workload::MobilitySimulator::step_deltas`).
    UserMoved(Vec<(u32, Point2)>),
    /// The listed UAVs (fleet indices) crashed or were withdrawn.
    /// Kills are cumulative across deltas; re-killing a dead UAV is a
    /// no-op.
    KillUavs(Vec<usize>),
    /// The listed inter-UAV links (unordered cell pairs) are jammed or
    /// shadowed. Cumulative; severing a missing edge is a no-op.
    SeverLinks(Vec<(CellIndex, CellIndex)>),
    /// Extra users appeared (a demand surge); they take the next free
    /// user ids.
    UserSurge(Vec<User>),
}

/// Tuning of a [`SolverLoop`].
#[derive(Debug, Clone)]
pub struct LoopConfig {
    /// Configuration for cold solves (the initial deployment and the
    /// full re-solve fallback).
    pub approx: ApproxConfig,
    /// Tile side (grid cells) of the dirty-tile partition; `0` puts
    /// the whole grid in one tile (every user delta refreshes every
    /// station — correct, never fast).
    pub tile_cells: usize,
}

impl LoopConfig {
    /// A configuration with the default tile side (16 cells).
    pub fn new(approx: ApproxConfig) -> Self {
        LoopConfig {
            approx,
            tile_cells: 16,
        }
    }
}

/// When a repair abandons more than this fraction of the standing
/// placements *and no UAV has died*, the loop falls back to a full cold
/// solve on the mutated instance instead of limping on with the
/// remnant. (With dead UAVs the instance cannot express the reduced
/// fleet, so the localized repair result stands.)
const COLD_SOLVE_DROP_FRACTION: f64 = 0.5;

/// Cumulative work counters of a [`SolverLoop`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct ResolveStats {
    /// Deltas applied successfully.
    pub deltas_applied: usize,
    /// Connectivity repairs planned (kill/sever paths).
    pub repairs: usize,
    /// Full cold re-solves (fallback path).
    pub cold_solves: usize,
    /// Dirty tiles marked across all user deltas.
    pub dirty_tiles: usize,
    /// Stations whose coverage was re-derived.
    pub stations_refreshed: usize,
    /// Spare UAVs spent as relays or gateway bridges.
    pub relays_spent: usize,
    /// Standing placements abandoned by repairs.
    pub dropped_placements: usize,
    /// Matching-kernel compaction rebuilds.
    pub matching_rebuilds: usize,
}

/// What one [`SolverLoop::apply`] call did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct DeltaOutcome {
    /// Users served after the delta.
    pub served: usize,
    /// Dirty tiles this delta marked.
    pub dirty_tiles: usize,
    /// Stations this delta refreshed.
    pub stations_refreshed: usize,
    /// Spare UAVs this delta spent as relays.
    pub relays_spent: usize,
    /// Standing placements this delta abandoned.
    pub dropped_placements: usize,
    /// Whether the delta escalated to a full cold re-solve.
    pub cold_solved: bool,
}

/// What a connectivity repair decided: the placements to keep (kept
/// survivors plus spare relays) and what it cost.
struct RepairPlan {
    /// Surviving placements plus `(spare, relay cell)` bridges.
    pub placements: Vec<(usize, CellIndex)>,
    /// Spares spent on relay/gateway cells.
    pub relays_spent: usize,
    /// Survivors abandoned (stranded components or budget shortfall).
    pub dropped: usize,
}

/// A repair planned by [`SolverLoop`] but not yet installed: the
/// connectivity plan and, when the fallback fired, the cold solve's
/// placements that replace it.
struct Repair {
    plan: RepairPlan,
    cold: Option<Vec<(usize, CellIndex)>>,
}

/// The repair planner behind the [`SolverLoop`] kill/sever paths:
///
/// 1. if the survivors' network fell apart, keep the connected
///    component serving the most users ([`best_component`]);
/// 2. reconnect through an MST over the survivors' cells and re-extend
///    to the gateway, spending spare (alive, undeployed) UAVs as
///    relays — largest spares on the most coverable relay cells; when
///    the spare budget is short, abandon the least-coverable survivor
///    and retry.
///
/// `dead[uav]` marks UAVs that are gone for good: they are excluded
/// from the spare pool even though they no longer appear among the
/// placements — the fix for the repair-after-repair staleness bug
/// where a second pass re-deployed first-pass casualties as relays.
///
/// Distance decisions read `sub`'s precomputed hop rows, so `sub` must
/// have been built from `degraded`'s location graph.
fn plan_repair(
    degraded: &Instance,
    sub: &ConnectivitySubstrate,
    mut survivors: Vec<(usize, CellIndex)>,
    dead: &[bool],
) -> Result<RepairPlan, CoreError> {
    let _span = uavnet_obs::phases::REPAIR.span();
    let graph = degraded.location_graph();
    let mut dropped = 0usize;

    // Severed links may have split the *location graph* itself,
    // stranding survivors in different graph components no relay chain
    // can bridge. Keep the most valuable stranded group. (Survivors
    // that are merely non-adjacent within one component are fine — the
    // budget loop bridges them with relays.)
    if survivors.len() > 1 {
        let keep = best_component(degraded, &survivors);
        dropped += survivors.len() - keep.len();
        survivors = keep;
    }

    // Spare fleet: alive UAVs not deployed anywhere, largest capacity
    // first — servers of the repair's relay chain.
    let deployed: Vec<usize> = survivors.iter().map(|&(u, _)| u).collect();
    let spares: Vec<usize> = degraded
        .uavs_by_capacity()
        .iter()
        .copied()
        .filter(|&u| !dead[u] && !deployed.contains(&u))
        .collect();
    let gateway_cells = degraded.gateway_cells();

    // Reconnect within the spare budget, abandoning the
    // least-coverable survivor on shortfall. Terminates because the
    // survivor set strictly shrinks; one survivor needs no relays.
    let mut relay_cells: Vec<usize>;
    loop {
        if survivors.is_empty() {
            relay_cells = Vec::new();
            break;
        }
        let locs: Vec<usize> = survivors.iter().map(|&(_, l)| l).collect();
        let all = connect_via_substrate(graph, sub, &locs)?;
        let mut extra_cells: Vec<usize> = all[locs.len()..].to_vec();
        if degraded.gateway().is_some() {
            // The gateway being unreachable from this component cannot
            // be fixed by shrinking the component further — propagate.
            let gw = extend_to_gateway_substrate(graph, sub, &all, &gateway_cells)?;
            extra_cells.extend(gw);
        }
        if extra_cells.len() <= spares.len() {
            relay_cells = extra_cells;
            break;
        }
        let (victim, _) = survivors
            .iter()
            .enumerate()
            .min_by_key(|&(i, &(uav, loc))| (degraded.coverage_count(uav, loc), i))
            .expect("survivors is non-empty");
        survivors.remove(victim);
        dropped += 1;
    }

    // Largest spares on the most coverable relay cells (ties by cell).
    relay_cells.sort_by_key(|&v| (Reverse(degraded.best_coverage_count(v)), v));
    let relays_spent = relay_cells.len();
    let mut placements = survivors;
    for (cell, &uav) in relay_cells.into_iter().zip(spares.iter()) {
        placements.push((uav, cell));
    }
    Ok(RepairPlan {
        placements,
        relays_spent,
        dropped,
    })
}

/// The survivors of the location-graph component serving the most
/// users (ties: more placements, then the smaller first placement
/// index) — deterministic triage after severed links split the graph.
/// Returns all survivors unchanged when they share one component.
fn best_component(
    degraded: &Instance,
    survivors: &[(usize, CellIndex)],
) -> Vec<(usize, CellIndex)> {
    let mut comp_of = vec![usize::MAX; degraded.num_locations()];
    for (ci, comp) in connected_components(degraded.location_graph())
        .iter()
        .enumerate()
    {
        for &v in comp {
            comp_of[v] = ci;
        }
    }
    let mut groups: Vec<(usize, Vec<(usize, CellIndex)>)> = Vec::new();
    for &(uav, loc) in survivors {
        match groups.iter_mut().find(|(c, _)| *c == comp_of[loc]) {
            Some((_, g)) => g.push((uav, loc)),
            None => groups.push((comp_of[loc], vec![(uav, loc)])),
        }
    }
    if groups.len() <= 1 {
        return survivors.to_vec();
    }
    // Groups are in first-occurrence order; `Reverse(i)` makes every
    // key distinct, so ties on (served, size) go to the group holding
    // the earliest placement.
    groups
        .into_iter()
        .enumerate()
        .max_by_key(|(i, (_, g))| (assign_users(degraded, g).served, g.len(), Reverse(*i)))
        .map(|(_, (_, g))| g)
        .unwrap_or_default()
}

/// A standing deployment that absorbs a [`Delta`] stream by localized
/// repair instead of re-solving from scratch (see the module docs).
///
/// # Failure contract
///
/// Every unrepairable situation is a typed [`CoreError`], never a
/// panic, and [`apply`](SolverLoop::apply) is all-or-nothing: a move or
/// surge batch is validated whole before the instance is patched in
/// place, and every fallible piece of a topology delta (the severed
/// instance, the rebuilt substrate, the repair plan and the cold-solve
/// fallback) is built aside and installed only once all of them
/// succeeded. After an error the loop is exactly as it was before the
/// call — same instance, placements, matching, dead set and stats —
/// and keeps absorbing deltas.
///
/// # Examples
///
/// ```
/// # use uavnet_core::{ApproxConfig, Delta, Instance, LoopConfig, SolverLoop};
/// # use uavnet_channel::UavRadio;
/// # use uavnet_geom::{AreaSpec, GridSpec, Point2};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// # let grid = GridSpec::new(AreaSpec::new(600.0, 600.0, 500.0)?, 300.0, 300.0)?.build();
/// # let mut b = Instance::builder(grid, 600.0);
/// # b.add_user(Point2::new(150.0, 150.0), 2_000.0);
/// # b.add_user(Point2::new(450.0, 150.0), 2_000.0);
/// # b.add_uav(5, UavRadio::new(30.0, 5.0, 500.0));
/// # b.add_uav(5, UavRadio::new(30.0, 5.0, 500.0));
/// # let instance = b.build()?;
/// let mut solver = SolverLoop::new(instance, LoopConfig::new(ApproxConfig::with_s(1)))?;
/// let outcome = solver.apply(Delta::UserMoved(vec![(0, Point2::new(400.0, 150.0))]))?;
/// assert_eq!(outcome.served, solver.served_users());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SolverLoop {
    instance: Instance,
    substrate: ConnectivitySubstrate,
    partition: TilePartition,
    config: LoopConfig,
    /// Cumulatively killed UAVs — never redeployed, never spares.
    dead: Vec<bool>,
    placements: Vec<(usize, CellIndex)>,
    /// The standing matching; `station_of[i]` is the kernel station
    /// backing `placements[i]`. Deactivated (refreshed/dropped)
    /// stations linger with zero capacity until a compaction rebuild.
    matching: CapacitatedMatching,
    station_of: Vec<usize>,
    dead_stations: usize,
    /// Chebyshev tile dilation radius covering the fleet's largest
    /// coverage range (precomputed; see [`Self::mark_dirty`]).
    dilation: usize,
    /// Dirty-tile scratch, one flag per tile.
    tile_dirty: Vec<bool>,
    stats: ResolveStats,
}

impl SolverLoop {
    /// Cold-solves `instance` and stands up the loop on the result.
    ///
    /// # Errors
    ///
    /// Any [`CoreError`] of the cold solve or the substrate build.
    pub fn new(instance: Instance, config: LoopConfig) -> Result<Self, CoreError> {
        let solution = approx_alg(&instance, &config.approx)?;
        Self::from_solution(instance, &solution, config)
    }

    /// Stands up the loop on an existing solution for `instance` (e.g.
    /// the output of a prior cold solve, or a deployment to inject
    /// faults into).
    ///
    /// # Errors
    ///
    /// * [`CoreError::Validation`] when a placement names a UAV outside
    ///   the fleet or a cell outside the grid (a solution scored on
    ///   another instance);
    /// * [`CoreError::Substrate`] when the location graph exceeds the
    ///   substrate's node limit.
    pub fn from_solution(
        instance: Instance,
        solution: &Solution,
        config: LoopConfig,
    ) -> Result<Self, CoreError> {
        check_placement_ranges(&instance, solution.deployment().placements())?;
        let substrate = build_substrate(&instance)?;
        let partition = TilePartition::build(
            instance.grid().cols(),
            instance.grid().rows(),
            config.tile_cells,
        );
        let tile_m = partition.tile_cells() as f64 * instance.grid().spec().cell_m();
        let max_range_m = instance
            .uavs()
            .iter()
            .map(|u| u.radio.user_range_m())
            .fold(0.0f64, f64::max);
        if !max_range_m.is_finite() || !tile_m.is_finite() || tile_m <= 0.0 {
            return Err(CoreError::InvalidParameters(format!(
                "dilation inputs must be finite and positive: \
                 max user range {max_range_m} m over {tile_m} m tiles"
            )));
        }
        // A station's coverage can only change when an affected user
        // position lies within its radio range; one extra tile absorbs
        // the within-cell and within-tile offsets. Over-dilation is a
        // performance loss, never a correctness one — but it must stay
        // clamped to the partition dims: a degenerate tiny tile_m
        // otherwise saturates the f64→usize cast and the `+ 1` / the
        // `tr + d + 1` tile arithmetic in `mark_dirty` overflows.
        let tile_cols = instance.grid().cols().div_ceil(partition.tile_cells());
        let tile_rows = instance.grid().rows().div_ceil(partition.tile_cells());
        let dilation = ((max_range_m / tile_m).ceil() as usize)
            .saturating_add(1)
            .min(tile_cols.max(tile_rows));
        let num_tiles = partition.num_tiles();
        let mut solver = SolverLoop {
            dead: vec![false; instance.num_uavs()],
            placements: solution.deployment().placements().to_vec(),
            matching: CapacitatedMatching::new(0),
            station_of: Vec::new(),
            dead_stations: 0,
            dilation,
            tile_dirty: vec![false; num_tiles],
            stats: ResolveStats::default(),
            instance,
            substrate,
            partition,
            config,
        };
        solver.rebuild_matching();
        solver.stats.matching_rebuilds = 0; // the seed build is not a compaction
        Ok(solver)
    }

    /// The (possibly mutated) instance the deployment lives on.
    #[inline]
    pub fn instance(&self) -> &Instance {
        &self.instance
    }

    /// The standing placements.
    #[inline]
    pub fn placements(&self) -> &[(usize, CellIndex)] {
        &self.placements
    }

    /// Users currently served (the standing maximum-matching value) —
    /// `O(1)`.
    #[inline]
    pub fn served_users(&self) -> usize {
        self.matching.matched_count()
    }

    /// Fleet indices killed so far, ascending.
    pub fn dead_uavs(&self) -> Vec<usize> {
        self.dead
            .iter()
            .enumerate()
            .filter(|&(_, &d)| d)
            .map(|(u, _)| u)
            .collect()
    }

    /// Cumulative work counters.
    #[inline]
    pub fn stats(&self) -> &ResolveStats {
        &self.stats
    }

    /// Materializes the standing deployment and assignment as a
    /// [`Solution`] (valid against [`instance`](Self::instance)).
    pub fn solution(&self) -> Solution {
        let mut station_to_place = vec![usize::MAX; self.matching.num_stations()];
        for (i, &st) in self.station_of.iter().enumerate() {
            station_to_place[st] = i;
        }
        // Deactivated stations serve nobody, so every mapped station id
        // belongs to a live placement.
        let user_placement = self
            .matching
            .assignment()
            .map(|a| a.map(|st| station_to_place[st]))
            .collect();
        let loads = self
            .station_of
            .iter()
            .map(|&st| self.matching.station_load(st))
            .collect();
        let assignment = Assignment {
            user_placement,
            served: self.matching.matched_count(),
            loads,
        };
        Solution::from_parts(self.placements.clone(), assignment)
    }

    /// Scores the standing placements from scratch on the current
    /// instance — the cold half of oracle 7.
    ///
    /// # Errors
    ///
    /// [`CoreError::Validation`] if the standing placements no longer
    /// form a deployable set (a loop invariant violation).
    pub fn cold_rescore(&self) -> Result<Solution, CoreError> {
        try_score_deployment(&self.instance, self.placements.clone())
    }

    /// Applies one delta by localized repair and returns what it did.
    ///
    /// # Errors
    ///
    /// * [`CoreError::InvalidParameters`] for out-of-range UAV ids,
    ///   user ids or link endpoints;
    /// * [`CoreError::InvalidInstance`] for surge/move positions or
    ///   rates the instance builder would reject;
    /// * [`CoreError::Connect`] when no relay chain can restore the
    ///   gateway link;
    /// * [`CoreError::Substrate`] if a severed-link rebuild exceeds
    ///   the substrate's limits.
    pub fn apply(&mut self, delta: Delta) -> Result<DeltaOutcome, CoreError> {
        let _span = uavnet_obs::phases::RESOLVE_APPLY.span();
        let before = self.stats.clone();
        let cold_solved = match delta {
            Delta::KillUavs(ids) => self.apply_kill(&ids)?,
            Delta::SeverLinks(links) => self.apply_sever(&links)?,
            Delta::UserSurge(users) => self.apply_surge(&users)?,
            Delta::UserMoved(moves) => self.apply_moves(&moves)?,
        };
        self.stats.deltas_applied += 1;
        #[cfg(feature = "debug-validate")]
        self.assert_matches_cold_rescore();
        let outcome = DeltaOutcome {
            served: self.served_users(),
            dirty_tiles: self.stats.dirty_tiles - before.dirty_tiles,
            stations_refreshed: self.stats.stations_refreshed - before.stations_refreshed,
            relays_spent: self.stats.relays_spent - before.relays_spent,
            dropped_placements: self.stats.dropped_placements - before.dropped_placements,
            cold_solved,
        };
        crate::obs::record_delta(&outcome);
        Ok(outcome)
    }

    /// Inline oracle 7: the incremental matching must serve exactly as
    /// many users as a cold rescore of the same placements (the
    /// maximum matching value is unique), and the materialized
    /// solution must validate. Compiled only under `debug-validate`.
    #[cfg(feature = "debug-validate")]
    fn assert_matches_cold_rescore(&self) {
        let cold = self
            .cold_rescore()
            .expect("debug-validate: cold rescore of the incremental deployment failed");
        assert_eq!(
            self.served_users(),
            cold.served_users(),
            "debug-validate: incremental served count diverged from cold rescore"
        );
        self.solution()
            .validate(&self.instance)
            .expect("debug-validate: incremental solution failed validation");
    }

    fn apply_kill(&mut self, ids: &[usize]) -> Result<bool, CoreError> {
        if let Some(&bad) = ids.iter().find(|&&u| u >= self.instance.num_uavs()) {
            return Err(CoreError::InvalidParameters(format!(
                "killed UAV {bad} outside the fleet of {}",
                self.instance.num_uavs()
            )));
        }
        let mut dead = self.dead.clone();
        let mut survivors = self.placements.clone();
        let mut station_of = self.station_of.clone();
        let mut casualties = Vec::new();
        for &u in ids {
            if dead[u] {
                continue; // re-kill is a no-op
            }
            dead[u] = true;
            if let Some(i) = survivors.iter().position(|&(uav, _)| uav == u) {
                casualties.push(station_of.swap_remove(i));
                survivors.swap_remove(i);
            }
        }
        // Only spares died: the standing network is untouched.
        let repair = if casualties.is_empty() {
            None
        } else {
            let survivors = survivors.clone();
            Some(self.plan_connectivity(&self.instance, &self.substrate, survivors, &dead)?)
        };
        self.dead = dead;
        for st in casualties {
            self.matching.deactivate_station(st);
            self.dead_stations += 1;
        }
        self.placements = survivors;
        self.station_of = station_of;
        Ok(match repair {
            Some(repair) => self.commit_repair(repair),
            None => false,
        })
    }

    fn apply_sever(&mut self, links: &[(CellIndex, CellIndex)]) -> Result<bool, CoreError> {
        let instance = self.instance.with_severed_links(links)?;
        let substrate = build_substrate(&instance)?;
        // Coverage and user ids are untouched — only the topology
        // needs repair.
        let repair =
            self.plan_connectivity(&instance, &substrate, self.placements.clone(), &self.dead)?;
        self.instance = instance;
        self.substrate = substrate;
        Ok(self.commit_repair(repair))
    }

    fn apply_surge(&mut self, users: &[User]) -> Result<bool, CoreError> {
        self.patch_instance(&[], users)?;
        // Existing ids are preserved, so the standing assignment stays
        // valid; grow_users re-derives the free bitset so the surged
        // ids become visible to the word-AND pre-passes.
        self.matching.grow_users(self.instance.num_users());
        // Stations near a surged user may now cover it; their kernel
        // adjacency was frozen at add time, so refresh them.
        self.begin_dirty();
        for user in users {
            if let Some(cell) = self.instance.grid().locate(user.pos) {
                self.mark_dirty(cell);
            }
        }
        self.refresh_dirty_stations();
        Ok(false)
    }

    fn apply_moves(&mut self, moves: &[(u32, Point2)]) -> Result<bool, CoreError> {
        // Old cells first: a station that only covered the *previous*
        // position must be refreshed too. They are read before the
        // patch and marked once it succeeded, so a rejected batch
        // leaves the stats alone.
        let grid = self.instance.grid();
        let users = self.instance.users();
        let old_cells: Vec<CellIndex> = moves
            .iter()
            .filter_map(|&(id, _)| grid.locate(users.get(id as usize)?.pos))
            .collect();
        self.patch_instance(moves, &[])?;
        self.begin_dirty();
        for cell in old_cells {
            self.mark_dirty(cell);
        }
        for &(_, pos) in moves {
            if let Some(cell) = self.instance.grid().locate(pos) {
                self.mark_dirty(cell);
            }
        }
        self.refresh_dirty_stations();
        Ok(false)
    }

    /// Patches the standing instance in place (see
    /// [`Instance::with_moved_users`]); all-or-nothing.
    fn patch_instance(&mut self, moves: &[(u32, Point2)], extra: &[User]) -> Result<(), CoreError> {
        let _span = uavnet_obs::phases::RESOLVE_PATCH.span();
        self.instance.patch_users(moves, extra)
    }

    /// Plans connectivity for `survivors` on a (possibly new) instance
    /// and substrate after a topology change, including the cold-solve
    /// fallback, without touching the loop.
    fn plan_connectivity(
        &self,
        instance: &Instance,
        substrate: &ConnectivitySubstrate,
        survivors: Vec<(usize, CellIndex)>,
        dead: &[bool],
    ) -> Result<Repair, CoreError> {
        let standing = survivors.len();
        let plan = plan_repair(instance, substrate, survivors, dead)?;
        // Fallback: a repair that abandoned most of the deployment is
        // worse than re-solving — but only the full fleet can be
        // re-solved (the instance cannot express dead UAVs).
        let cold = if standing > 0
            && !dead.iter().any(|&d| d)
            && (plan.dropped as f64) > COLD_SOLVE_DROP_FRACTION * standing as f64
        {
            let solution = approx_alg(instance, &self.config.approx)?;
            Some(solution.deployment().placements().to_vec())
        } else {
            None
        };
        Ok(Repair { plan, cold })
    }

    /// Installs a planned repair, applying its drops and relay
    /// additions to the matching (or the cold solve's placements).
    /// Returns whether the cold-solve fallback fired.
    fn commit_repair(&mut self, repair: Repair) -> bool {
        let plan = repair.plan;
        self.stats.repairs += 1;
        self.stats.relays_spent += plan.relays_spent;
        self.stats.dropped_placements += plan.dropped;
        if let Some(placements) = repair.cold {
            self.stats.cold_solves += 1;
            self.placements = placements;
            self.rebuild_matching();
            return true;
        }

        // Diff the plan against the standing placements on exact
        // (uav, cell) pairs: a stranded UAV can return as a relay at a
        // *different* cell, which is a drop plus an addition — not a
        // keep. Drop what the plan abandoned, add what it placed.
        let mut i = 0;
        while i < self.placements.len() {
            if plan.placements.contains(&self.placements[i]) {
                i += 1;
            } else {
                self.matching.deactivate_station(self.station_of[i]);
                self.dead_stations += 1;
                self.placements.swap_remove(i);
                self.station_of.swap_remove(i);
            }
        }
        for &(uav, cell) in &plan.placements {
            if !self.placements.contains(&(uav, cell)) {
                let st = self.matching.add_station_list(
                    self.instance.uavs()[uav].capacity,
                    self.instance.coverable(uav, cell),
                );
                self.placements.push((uav, cell));
                self.station_of.push(st);
            }
        }
        self.maybe_compact();
        self.matching.resaturate();
        false
    }

    /// Clears the dirty-tile scratch for a new user-affecting delta.
    fn begin_dirty(&mut self) {
        self.tile_dirty.fill(false);
    }

    /// Marks the tile of `cell` and its Chebyshev `dilation`
    /// neighborhood dirty.
    fn mark_dirty(&mut self, cell: CellIndex) {
        let tile = self.partition.tile_cells();
        let tile_cols = self.instance.grid().cols().div_ceil(tile);
        let tile_rows = self.instance.grid().rows().div_ceil(tile);
        let (c, r) = self.instance.grid().col_row(cell);
        let (tc, tr) = (c / tile, r / tile);
        let d = self.dilation;
        for ty in tr.saturating_sub(d)..(tr + d + 1).min(tile_rows) {
            for tx in tc.saturating_sub(d)..(tc + d + 1).min(tile_cols) {
                let t = ty * tile_cols + tx;
                if !self.tile_dirty[t] {
                    self.tile_dirty[t] = true;
                    self.stats.dirty_tiles += 1;
                }
            }
        }
    }

    /// Re-derives coverage for every station hovering in a dirty tile
    /// (deactivate + re-add with the current instance's list), then
    /// restores matching maximality with one resaturation pass.
    fn refresh_dirty_stations(&mut self) {
        let _span = uavnet_obs::phases::RESOLVE_REFRESH.span();
        for i in 0..self.placements.len() {
            let (uav, loc) = self.placements[i];
            if !self.tile_dirty[self.partition.tile_of(loc)] {
                continue;
            }
            self.matching.deactivate_station(self.station_of[i]);
            self.dead_stations += 1;
            let st = self.matching.add_station_list(
                self.instance.uavs()[uav].capacity,
                self.instance.coverable(uav, loc),
            );
            self.station_of[i] = st;
            self.stats.stations_refreshed += 1;
        }
        self.maybe_compact();
        self.matching.resaturate();
    }

    /// Rebuilds the matching from the live placements when deactivated
    /// stations outnumber them (the kernel's arenas and BFS scratch
    /// grow with every refresh; compaction bounds them to 2× live).
    fn maybe_compact(&mut self) {
        if self.dead_stations > self.placements.len() {
            self.rebuild_matching();
        }
    }

    /// Cold-rebuilds the standing matching from `placements` (each
    /// station added and saturated in order — a maximum matching).
    fn rebuild_matching(&mut self) {
        let mut matching = CapacitatedMatching::new(self.instance.num_users());
        self.station_of.clear();
        for &(uav, loc) in &self.placements {
            let st = matching.add_station_list(
                self.instance.uavs()[uav].capacity,
                self.instance.coverable(uav, loc),
            );
            matching.saturate(st);
            self.station_of.push(st);
        }
        self.matching = matching;
        self.dead_stations = 0;
        self.stats.matching_rebuilds += 1;
    }
}

/// Placement-level difference between two standing deployments —
/// what the service's `deployments` topic publishes after each
/// absorbed delta instead of re-sending the full placement list.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeploymentDiff {
    /// Placements present after but not before, in `after` order.
    pub added: Vec<(usize, CellIndex)>,
    /// Placements present before but not after, in `before` order.
    pub removed: Vec<(usize, CellIndex)>,
}

impl DeploymentDiff {
    /// `true` when the deployments are identical as sets.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty()
    }
}

/// Diffs two placement lists as sets of `(uav, cell)` pairs.
///
/// A UAV that moved shows up once in `removed` (old cell) and once in
/// `added` (new cell). Runs in `O((n + m) log (n + m))`.
pub fn diff_deployments(
    before: &[(usize, CellIndex)],
    after: &[(usize, CellIndex)],
) -> DeploymentDiff {
    let mut before_sorted = before.to_vec();
    let mut after_sorted = after.to_vec();
    before_sorted.sort_unstable();
    after_sorted.sort_unstable();
    DeploymentDiff {
        added: after
            .iter()
            .filter(|p| before_sorted.binary_search(p).is_err())
            .copied()
            .collect(),
        removed: before
            .iter()
            .filter(|p| after_sorted.binary_search(p).is_err())
            .copied()
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uavnet_channel::UavRadio;
    use uavnet_geom::{AreaSpec, GridSpec};

    /// A 5×5 grid with two user clusters and a 6-UAV fleet; roomy
    /// enough for kills, surges and moves to all change coverage.
    fn build_instance(gateway: Option<Point2>) -> Instance {
        let grid = GridSpec::new(
            AreaSpec::new(1_500.0, 1_500.0, 500.0).unwrap(),
            300.0,
            300.0,
        )
        .unwrap()
        .build();
        let mut b = Instance::builder(grid, 450.0);
        for i in 0..8 {
            b.add_user(Point2::new(150.0 + 20.0 * i as f64, 150.0), 2_000.0);
        }
        for i in 0..8 {
            b.add_user(Point2::new(1_200.0 + 10.0 * i as f64, 1_200.0), 2_000.0);
        }
        for _ in 0..4 {
            b.add_uav(4, UavRadio::new(30.0, 5.0, 400.0));
        }
        for _ in 0..2 {
            b.add_uav(6, UavRadio::new(33.0, 6.0, 500.0));
        }
        if let Some(gw) = gateway {
            b.gateway(gw);
        }
        b.build().unwrap()
    }

    fn config() -> LoopConfig {
        let mut cfg = LoopConfig::new(ApproxConfig::with_s(1));
        cfg.tile_cells = 2;
        cfg
    }

    /// Oracle-7 helper: incremental served == cold rescore served and
    /// the materialized solution validates.
    fn assert_cold_equivalent(solver: &SolverLoop) {
        let cold = solver.cold_rescore().expect("cold rescore");
        assert_eq!(solver.served_users(), cold.served_users());
        solver
            .solution()
            .validate(solver.instance())
            .expect("validate");
    }

    #[test]
    fn seed_matches_cold_solve() {
        let instance = build_instance(None);
        let solver = SolverLoop::new(instance.clone(), config()).unwrap();
        let cold = approx_alg(&instance, &config().approx).unwrap();
        assert_eq!(solver.served_users(), cold.served_users());
        assert_eq!(solver.solution().deployment(), cold.deployment());
        assert_cold_equivalent(&solver);
    }

    #[test]
    fn kill_drops_placement_and_stays_consistent() {
        let instance = build_instance(None);
        let mut solver = SolverLoop::new(instance, config()).unwrap();
        let victim = solver.placements()[0].0;
        let before = solver.served_users();
        let out = solver.apply(Delta::KillUavs(vec![victim])).unwrap();
        assert!(solver.placements().iter().all(|&(u, _)| u != victim));
        assert!(out.served <= before);
        assert_eq!(solver.dead_uavs(), vec![victim]);
        assert_cold_equivalent(&solver);
        // Re-killing is a no-op.
        let served = solver.served_users();
        solver.apply(Delta::KillUavs(vec![victim])).unwrap();
        assert_eq!(solver.served_users(), served);
        assert_cold_equivalent(&solver);
    }

    #[test]
    fn killed_uav_never_returns_as_relay() {
        let instance = build_instance(None);
        let mut solver = SolverLoop::new(instance, config()).unwrap();
        let victims: Vec<usize> = solver.placements().iter().map(|&(u, _)| u).collect();
        for v in victims {
            solver.apply(Delta::KillUavs(vec![v])).unwrap();
            let dead = solver.dead_uavs();
            assert!(solver.placements().iter().all(|(u, _)| !dead.contains(u)));
            assert_cold_equivalent(&solver);
        }
    }

    #[test]
    fn surge_serves_new_users() {
        let instance = build_instance(None);
        let mut solver = SolverLoop::new(instance, config()).unwrap();
        let before = solver.served_users();
        // Surge next to the first cluster, well inside coverage.
        let surge: Vec<User> = (0..3)
            .map(|i| User {
                pos: Point2::new(200.0 + i as f64, 160.0),
                min_rate_bps: 2_000.0,
            })
            .collect();
        let out = solver.apply(Delta::UserSurge(surge)).unwrap();
        assert!(out.served >= before);
        assert_eq!(solver.instance().num_users(), 19);
        assert_cold_equivalent(&solver);
    }

    #[test]
    fn moves_track_users_across_tiles() {
        let instance = build_instance(None);
        let mut solver = SolverLoop::new(instance, config()).unwrap();
        // March the first cluster toward the second, one hop at a time.
        for step in 0..5 {
            let moves: Vec<(u32, Point2)> = (0..8)
                .map(|id| {
                    let x = 150.0 + 20.0 * id as f64 + 200.0 * (step + 1) as f64;
                    (id, Point2::new(x.min(1_400.0), 150.0))
                })
                .collect();
            solver.apply(Delta::UserMoved(moves)).unwrap();
            assert_cold_equivalent(&solver);
        }
    }

    #[test]
    fn sever_triggers_repair_with_gateway() {
        let instance = build_instance(Some(Point2::new(150.0, 150.0)));
        let mut solver = SolverLoop::new(instance, config()).unwrap();
        // Sever every edge of the first placement's cell; repair must
        // keep the solution valid (possibly dropping placements).
        let loc = solver.placements()[0].1;
        let links: Vec<(CellIndex, CellIndex)> = solver
            .instance()
            .location_graph()
            .neighbors(loc)
            .iter()
            .map(|&n| (loc, n))
            .collect();
        match solver.apply(Delta::SeverLinks(links)) {
            Ok(_) => assert_cold_equivalent(&solver),
            Err(CoreError::Connect(_)) => {} // gateway genuinely cut off
            Err(e) => panic!("unexpected error: {e}"),
        }
    }

    #[test]
    fn failed_delta_leaves_the_loop_unchanged() {
        // Only cell 0 reaches the uplink; severing every edge of cell 0
        // leaves no relay chain to the gateway, so the repair fails.
        let instance = build_instance(Some(Point2::new(0.0, 0.0)));
        assert_eq!(instance.gateway_cells(), vec![0]);
        let mut solver = SolverLoop::new(instance.clone(), config()).unwrap();
        let before = solver.clone();
        let links: Vec<(CellIndex, CellIndex)> = instance
            .location_graph()
            .neighbors(0)
            .iter()
            .map(|&n| (0, n))
            .collect();
        let err = solver.apply(Delta::SeverLinks(links)).unwrap_err();
        assert!(matches!(err, CoreError::Connect(_)), "{err}");
        assert_eq!(
            solver.instance().location_graph().num_edges(),
            instance.location_graph().num_edges()
        );
        assert_eq!(solver.placements(), before.placements());
        assert_eq!(solver.served_users(), before.served_users());
        assert_eq!(solver.dead_uavs(), before.dead_uavs());
        assert_eq!(solver.stats(), before.stats());
        solver.solution().validate(solver.instance()).unwrap();

        // The loop keeps absorbing deltas exactly like one that never
        // saw the failed delta (oracle 7 holds throughout).
        let moved = Delta::UserMoved(vec![(0, Point2::new(450.0, 150.0))]);
        let mut fresh = before;
        solver.apply(moved.clone()).unwrap();
        fresh.apply(moved.clone()).unwrap();
        assert_cold_equivalent(&solver);
        assert_eq!(
            solver.solution().deployment(),
            fresh.solution().deployment()
        );
        assert_eq!(solver.served_users(), fresh.served_users());
        assert_eq!(solver.stats(), fresh.stats());
        crate::check_incremental(&instance, &config().approx, &[moved]).unwrap();
    }

    #[test]
    fn failed_moves_and_kills_leave_the_loop_unchanged() {
        let instance = build_instance(None);
        let mut solver = SolverLoop::new(instance, config()).unwrap();
        let before = solver.clone();
        // A valid move ahead of a bad id must not leave dirty-tile work
        // behind; neither may a kill list with a bad id.
        let moves = vec![(0, Point2::new(700.0, 700.0)), (999, Point2::new(0.0, 0.0))];
        assert!(solver.apply(Delta::UserMoved(moves)).is_err());
        let victim = solver.placements()[0].0;
        assert!(solver.apply(Delta::KillUavs(vec![victim, 99])).is_err());
        // Bad positions and rates are caught before the instance is
        // patched, wherever they sit in the batch: a last entry outside
        // the zone, a NaN coordinate, a surge with a zero rate.
        let ok = Point2::new(700.0, 700.0);
        for bad in [
            Delta::UserMoved(vec![(0, ok), (3, ok), (5, Point2::new(1_500.5, 10.0))]),
            Delta::UserMoved(vec![(0, ok), (2, Point2::new(f64::NAN, 100.0)), (4, ok)]),
            Delta::UserSurge(vec![
                User {
                    pos: ok,
                    min_rate_bps: 2_000.0,
                },
                User {
                    pos: ok,
                    min_rate_bps: 0.0,
                },
            ]),
        ] {
            let err = solver.apply(bad).unwrap_err();
            assert!(matches!(err, CoreError::InvalidInstance(_)), "{err}");
        }
        assert_eq!(solver.stats(), before.stats());
        assert_eq!(solver.placements(), before.placements());
        assert_eq!(solver.served_users(), before.served_users());
        assert_eq!(solver.dead_uavs(), before.dead_uavs());
        assert_eq!(solver.instance().users(), before.instance().users());
        assert_eq!(
            solver.instance().coverage_tables(),
            before.instance().coverage_tables()
        );
        assert_cold_equivalent(&solver);

        // The loop goes on exactly like one that never saw them.
        let moved = Delta::UserMoved(vec![(5, Point2::new(1_250.0, 1_250.0))]);
        let mut fresh = before;
        assert_eq!(
            solver.apply(moved.clone()).unwrap(),
            fresh.apply(moved).unwrap()
        );
        assert_eq!(
            solver.solution().deployment(),
            fresh.solution().deployment()
        );
        assert_eq!(solver.stats(), fresh.stats());
        assert_eq!(
            solver.instance().coverage_tables(),
            fresh.instance().coverage_tables()
        );
    }

    #[test]
    fn a_repeated_id_ends_at_its_last_position() {
        let instance = build_instance(None);
        // User 7 starts at (290, 150). `b` and `a` lie out of coverage
        // range of the start and of each other: a patch that took `a`
        // as the old position would leave user 7 in the lists of the
        // cells around its start.
        let (a, b) = (Point2::new(150.0, 1_400.0), Point2::new(1_200.0, 150.0));
        let mut twice = SolverLoop::new(instance, config()).unwrap();
        let mut once = twice.clone();
        let out_twice = twice.apply(Delta::UserMoved(vec![(7, a), (7, b)])).unwrap();
        let out_once = once.apply(Delta::UserMoved(vec![(7, b)])).unwrap();
        assert_eq!(out_twice, out_once);
        assert_eq!(twice.served_users(), once.served_users());
        assert_eq!(twice.instance().users(), once.instance().users());
        let tables = twice.instance().coverage_tables();
        assert_eq!(tables, once.instance().coverage_tables());
        assert_eq!(tables, twice.instance().coverage_tables_bruteforce());
        assert_cold_equivalent(&twice);
    }

    #[test]
    fn interleaved_deltas_stay_cold_equivalent() {
        let instance = build_instance(None);
        let mut solver = SolverLoop::new(instance, config()).unwrap();
        let victim = solver.placements()[0].0;
        let deltas = vec![
            Delta::UserMoved(vec![(0, Point2::new(700.0, 700.0))]),
            Delta::KillUavs(vec![victim]),
            Delta::UserSurge(vec![User {
                pos: Point2::new(1_250.0, 1_250.0),
                min_rate_bps: 2_000.0,
            }]),
            Delta::UserMoved(vec![(16, Point2::new(200.0, 200.0))]),
            Delta::KillUavs(vec![victim]), // repeat: no-op
        ];
        for d in deltas {
            solver.apply(d).unwrap();
            assert_cold_equivalent(&solver);
        }
        assert_eq!(solver.stats().deltas_applied, 5);
    }

    #[test]
    fn compaction_preserves_equivalence() {
        let instance = build_instance(None);
        let mut solver = SolverLoop::new(instance, config()).unwrap();
        // Enough refresh churn to force several compaction rebuilds.
        for step in 0..20 {
            let y = 150.0 + 50.0 * (step % 4) as f64;
            solver
                .apply(Delta::UserMoved(vec![(0, Point2::new(150.0, y))]))
                .unwrap();
        }
        assert!(solver.stats().matching_rebuilds > 0);
        assert_cold_equivalent(&solver);
    }

    #[test]
    fn kill_out_of_range_is_typed() {
        let instance = build_instance(None);
        let mut solver = SolverLoop::new(instance, config()).unwrap();
        let err = solver.apply(Delta::KillUavs(vec![99])).unwrap_err();
        assert!(matches!(err, CoreError::InvalidParameters(_)));
    }

    #[test]
    fn move_out_of_range_is_typed() {
        let instance = build_instance(None);
        let mut solver = SolverLoop::new(instance, config()).unwrap();
        let err = solver
            .apply(Delta::UserMoved(vec![(999, Point2::new(0.0, 0.0))]))
            .unwrap_err();
        assert!(matches!(err, CoreError::InvalidParameters(_)));
    }

    /// Regression: a huge-but-finite fleet range (or equivalently a
    /// degenerate tiny `tile_m`) made the dilation ratio saturate the
    /// f64→usize cast, and the unclamped `+ 1` overflowed in debug
    /// builds (wrapping the tile arithmetic in release). The dilation
    /// must clamp to the partition dims and stay correct.
    #[test]
    fn extreme_dilation_ratio_clamps_to_partition() {
        let grid = GridSpec::new(
            AreaSpec::new(1_500.0, 1_500.0, 500.0).unwrap(),
            300.0,
            300.0,
        )
        .unwrap()
        .build();
        let mut b = Instance::builder(grid, 450.0);
        for i in 0..8 {
            b.add_user(Point2::new(150.0 + 20.0 * i as f64, 150.0), 2_000.0);
        }
        // Effective tile_m / range ratio beyond 2^64: the old code
        // panicked inside `SolverLoop::new` before applying anything.
        b.add_uav(4, UavRadio::new(30.0, 5.0, 1e300));
        b.add_uav(4, UavRadio::new(30.0, 5.0, 400.0));
        let instance = b.build().unwrap();
        let mut solver = SolverLoop::new(instance, config()).unwrap();
        solver
            .apply(Delta::UserMoved(vec![(0, Point2::new(1_200.0, 1_200.0))]))
            .unwrap();
        assert_cold_equivalent(&solver);
    }

    /// A `tile_cells` large enough to push `tile_m` past f64 range
    /// must fail with a typed error, not a saturated dilation.
    #[test]
    fn non_finite_tile_m_is_typed() {
        let grid = GridSpec::new(AreaSpec::new(1e300, 1e300, 500.0).unwrap(), 1e300, 300.0)
            .unwrap()
            .build();
        let mut b = Instance::builder(grid, 450.0);
        b.add_user(Point2::new(1.0, 1.0), 2_000.0);
        b.add_uav(4, UavRadio::new(30.0, 5.0, 400.0));
        let instance = b.build().unwrap();
        let mut cfg = config();
        cfg.tile_cells = usize::MAX; // tile_m = usize::MAX · 1e300 m = inf
        let err = SolverLoop::new(instance, cfg).unwrap_err();
        assert!(matches!(err, CoreError::InvalidParameters(_)));
    }

    #[test]
    fn deployment_diff_tracks_moves_kills_and_adds() {
        let before = [(0, 3), (1, 7), (2, 9)];
        let after = [(0, 3), (1, 8), (3, 2)];
        let diff = diff_deployments(&before, &after);
        assert_eq!(diff.added, vec![(1, 8), (3, 2)]);
        assert_eq!(diff.removed, vec![(1, 7), (2, 9)]);
        assert!(!diff.is_empty());
        assert!(diff_deployments(&before, &before).is_empty());
        // Order-insensitive: a permuted deployment is not a change.
        let permuted = [(2, 9), (0, 3), (1, 7)];
        assert!(diff_deployments(&before, &permuted).is_empty());
    }
}
