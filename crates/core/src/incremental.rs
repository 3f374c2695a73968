//! Incremental re-solve engine: a standing solver absorbing deltas.
//!
//! The batch pipeline ([`approx_alg`](crate::approx_alg)) solves one
//! frozen instance; a long-running service must keep a deployment
//! current as users move, UAVs fail and links drop. [`SolverLoop`] is
//! that service core: it owns a standing deployment, its maximum
//! matching and the shared [`ConnectivitySubstrate`], consumes a typed
//! [`Delta`] stream, and repairs locally instead of re-solving:
//!
//! * **instance patch** — moves and surges re-encode only the coverage
//!   lists within range of a changed user, in place
//!   (see [`Instance::with_moved_users`]);
//! * **matching re-derivation** — after every delta that changes the
//!   users or the placements, the matching is rebuilt from scratch from
//!   the placements by [`CapacitatedMatching::solve`], the routine
//!   behind [`assign_users`]. Station `i` is placement `i`, so the
//!   loop's state is a function of (instance, placements, dead set)
//!   alone;
//! * **connectivity repair** — kills and link cuts go through
//!   [`plan_repair`]: component triage, MST re-bridging and gateway
//!   re-extension on the substrate, spending spare UAVs as relays.
//!   This is the only repair path; fault injection drives it through
//!   [`SolverLoop::from_solution`] and [`SolverLoop::apply`].
//!
//! Correctness is pinned by verify **oracle 7**
//! ([`check_incremental`](crate::verify::check_incremental)): after any
//! delta sequence the standing solution — placements, per-user
//! assignment and loads — must equal a cold rescore of the same
//! placements on the mutated instance, and pass independent
//! validation. Under `debug-validate` every [`SolverLoop::apply`] call
//! runs that comparison inline.

use crate::approx::{approx_alg, build_substrate, ApproxConfig};
use crate::assign::{assign_users, match_placements, Assignment};
use crate::connecting::{connect_via_substrate, extend_to_gateway_substrate};
use crate::model::User;
use crate::solution::{check_placement_ranges, try_score_deployment, Solution};
use crate::{CoreError, Instance};
use std::cmp::Reverse;
use uavnet_flow::CapacitatedMatching;
use uavnet_geom::{CellIndex, Point2};
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
}

impl LoopConfig {
    /// A loop whose cold solves run `approx`.
    pub fn new(approx: ApproxConfig) -> Self {
        LoopConfig { approx }
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
    /// Always 0: no delta marks tiles since the matching is re-derived
    /// whole (see the module docs). Kept for readers of the field.
    pub dirty_tiles: usize,
    /// Stations whose coverage moves and surges re-derived.
    pub stations_refreshed: usize,
    /// Spare UAVs spent as relays or gateway bridges.
    pub relays_spent: usize,
    /// Standing placements abandoned by repairs.
    pub dropped_placements: usize,
    /// Always 0: a matching re-derived whole has nothing to compact.
    /// Kept for readers of the field.
    pub matching_rebuilds: usize,
}

/// What one [`SolverLoop::apply`] call did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct DeltaOutcome {
    /// Users served after the delta.
    pub served: usize,
    /// Always 0 (see [`ResolveStats::dirty_tiles`]).
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
    config: LoopConfig,
    /// Cumulatively killed UAVs — never redeployed, never spares.
    dead: Vec<bool>,
    placements: Vec<(usize, CellIndex)>,
    /// The maximum matching of `placements` on `instance`: station `i`
    /// is placement `i`, re-derived whenever either changes.
    matching: CapacitatedMatching,
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
        let placements = solution.deployment().placements().to_vec();
        Ok(SolverLoop {
            dead: vec![false; instance.num_uavs()],
            matching: match_placements(&instance, &placements),
            placements,
            stats: ResolveStats::default(),
            instance,
            substrate,
            config,
        })
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
    /// [`Solution`] (valid against [`instance`](Self::instance), and
    /// equal to [`cold_rescore`](Self::cold_rescore)'s).
    pub fn solution(&self) -> Solution {
        Solution::from_parts(
            self.placements.clone(),
            Assignment::of_matching(&self.matching),
        )
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
            Delta::UserSurge(users) => self.apply_users(&[], &users)?,
            Delta::UserMoved(moves) => self.apply_users(&moves, &[])?,
        };
        self.stats.deltas_applied += 1;
        #[cfg(feature = "debug-validate")]
        self.assert_matches_cold_rescore();
        let outcome = DeltaOutcome {
            served: self.served_users(),
            dirty_tiles: 0,
            stations_refreshed: self.stats.stations_refreshed - before.stations_refreshed,
            relays_spent: self.stats.relays_spent - before.relays_spent,
            dropped_placements: self.stats.dropped_placements - before.dropped_placements,
            cold_solved,
        };
        crate::obs::record_delta(&outcome);
        Ok(outcome)
    }

    /// Inline oracle 7: the standing solution must equal a cold rescore
    /// of the same placements — placements, per-user assignment and
    /// loads — and validate. Compiled only under `debug-validate`.
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
        assert!(
            self.solution() == cold,
            "debug-validate: incremental assignment diverged from cold rescore"
        );
        cold.validate(&self.instance)
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
        for &u in ids {
            if dead[u] {
                continue; // re-kill is a no-op
            }
            dead[u] = true;
            if let Some(i) = survivors.iter().position(|&(uav, _)| uav == u) {
                survivors.swap_remove(i);
            }
        }
        // Only spares died: the standing network is untouched.
        if survivors.len() == self.placements.len() {
            self.dead = dead;
            return Ok(false);
        }
        let repair =
            self.plan_connectivity(&self.instance, &self.substrate, survivors.clone(), &dead)?;
        self.dead = dead;
        self.placements = survivors;
        Ok(self.commit_repair(repair))
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

    /// Moves and surges: patches the standing instance in place (see
    /// [`Instance::with_moved_users`]; all-or-nothing), then re-derives
    /// the matching. Existing user ids are preserved.
    fn apply_users(&mut self, moves: &[(u32, Point2)], extra: &[User]) -> Result<bool, CoreError> {
        {
            let _span = uavnet_obs::phases::RESOLVE_PATCH.span();
            self.instance.patch_users(moves, extra)?;
        }
        if !moves.is_empty() || !extra.is_empty() {
            self.stats.stations_refreshed += self.placements.len();
            self.rematch();
        }
        Ok(false)
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

    /// Installs a planned repair — its drops and relay additions, or
    /// the cold solve's placements — and re-derives the matching.
    /// Returns whether the cold-solve fallback fired.
    fn commit_repair(&mut self, repair: Repair) -> bool {
        let plan = repair.plan;
        self.stats.repairs += 1;
        self.stats.relays_spent += plan.relays_spent;
        self.stats.dropped_placements += plan.dropped;
        let cold_solved = repair.cold.is_some();
        if let Some(placements) = repair.cold {
            self.stats.cold_solves += 1;
            self.placements = placements;
        } else {
            // Diff the plan against the standing placements on exact
            // (uav, cell) pairs: a stranded UAV can return as a relay
            // at a *different* cell, which is a drop plus an addition —
            // not a keep. Drop what the plan abandoned, append what it
            // placed.
            let mut i = 0;
            while i < self.placements.len() {
                if plan.placements.contains(&self.placements[i]) {
                    i += 1;
                } else {
                    self.placements.swap_remove(i);
                }
            }
            for &placement in &plan.placements {
                if !self.placements.contains(&placement) {
                    self.placements.push(placement);
                }
            }
        }
        self.rematch();
        cold_solved
    }

    /// Re-derives the standing matching from scratch from the
    /// placements on the current instance.
    fn rematch(&mut self) {
        let _span = uavnet_obs::phases::RESOLVE_REFRESH.span();
        self.matching = match_placements(&self.instance, &self.placements);
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
        LoopConfig::new(ApproxConfig::with_s(1))
    }

    /// Oracle-7 helper: the standing solution equals a cold rescore
    /// (served count, per-user assignment and loads) and validates.
    fn assert_cold_equivalent(solver: &SolverLoop) {
        let cold = solver.cold_rescore().expect("cold rescore");
        assert_eq!(solver.served_users(), cold.served_users());
        assert_eq!(solver.solution(), cold);
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
    fn moves_track_users_across_cells() {
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
        // A valid move ahead of a bad id must not leave anything
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

    /// Regression: a huge-but-finite fleet range once overflowed the
    /// loop's set-up arithmetic (a range-to-cell ratio past 2^64) and
    /// panicked inside `SolverLoop::new`. Such a UAV must stand up and
    /// absorb moves like any other.
    #[test]
    fn huge_radio_range_stays_cold_equivalent() {
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
        b.add_uav(4, UavRadio::new(30.0, 5.0, 1e300));
        b.add_uav(4, UavRadio::new(30.0, 5.0, 400.0));
        let instance = b.build().unwrap();
        let mut solver = SolverLoop::new(instance, config()).unwrap();
        solver
            .apply(Delta::UserMoved(vec![(0, Point2::new(1_200.0, 1_200.0))]))
            .unwrap();
        assert_cold_equivalent(&solver);
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
