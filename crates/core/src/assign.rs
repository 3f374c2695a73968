//! The optimal user-assignment subroutine (§II-D, Lemma 1).

use crate::Instance;
use uavnet_flow::{CapacitatedMatching, FlowNetwork};
use uavnet_geom::CellIndex;

/// An assignment of users to deployed UAVs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Assignment {
    /// For each user, the index into the deployment's placement list of
    /// the UAV serving it (`None` = unserved).
    pub user_placement: Vec<Option<usize>>,
    /// Number of served users.
    pub served: usize,
    /// Users served by each placement.
    pub loads: Vec<u32>,
}

/// Computes the **optimal** assignment of users to the deployed UAVs
/// `placements = [(uav, location), …]`: the maximum number of users
/// served subject to coverage admissibility and per-UAV capacities.
///
/// Uses the incremental capacitated-matching solver; the result equals
/// the integral max-flow of Lemma 1 (see
/// [`assign_users_max_flow`] and the cross-check tests).
///
/// # Panics
///
/// Panics if a placement references an out-of-range UAV or location.
///
/// # Examples
///
/// ```
/// # use uavnet_core::{Instance, assign_users};
/// # use uavnet_channel::UavRadio;
/// # use uavnet_geom::{AreaSpec, GridSpec, Point2};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// # let grid = GridSpec::new(AreaSpec::new(600.0, 600.0, 500.0)?, 300.0, 300.0)?.build();
/// # let mut b = Instance::builder(grid, 600.0);
/// # b.add_user(Point2::new(150.0, 150.0), 2_000.0);
/// # b.add_uav(5, UavRadio::new(30.0, 5.0, 500.0));
/// # let instance = b.build()?;
/// let assignment = assign_users(&instance, &[(0, 0)]);
/// assert_eq!(assignment.served, 1);
/// # Ok(())
/// # }
/// ```
pub fn assign_users(instance: &Instance, placements: &[(usize, CellIndex)]) -> Assignment {
    Assignment::of_matching(&match_placements(instance, placements))
}

/// The maximum matching of `placements` on `instance`
/// ([`CapacitatedMatching::solve`]): station `i` is placement `i`,
/// added and saturated in placement order.
///
/// # Panics
///
/// Panics if a placement references an out-of-range UAV or location.
pub(crate) fn match_placements(
    instance: &Instance,
    placements: &[(usize, CellIndex)],
) -> CapacitatedMatching {
    CapacitatedMatching::solve(
        instance.num_users(),
        placements
            .iter()
            .map(|&(uav, loc)| (instance.uavs()[uav].capacity, instance.coverable(uav, loc))),
    )
}

impl Assignment {
    /// Reads the assignment off a matching whose station `i` is
    /// placement `i` (see [`match_placements`]).
    pub(crate) fn of_matching(matching: &CapacitatedMatching) -> Self {
        Assignment {
            user_placement: matching.assignment().collect(),
            served: matching.matched_count(),
            loads: (0..matching.num_stations())
                .map(|st| matching.station_load(st))
                .collect(),
        }
    }
}

/// Literal Lemma 1 implementation: builds the 4-layer flow network
/// `s → users → UAVs → t` and runs Dinic's algorithm. Semantically
/// identical to [`assign_users`]; exposed for verification and for the
/// doc-faithful construction.
pub fn assign_users_max_flow(instance: &Instance, placements: &[(usize, CellIndex)]) -> Assignment {
    let n = instance.num_users();
    let k = placements.len();
    let source = 0;
    let sink = 1 + n + k;
    let mut net = FlowNetwork::new(sink + 1);
    let mut user_arcs = Vec::with_capacity(n);
    for u in 0..n {
        user_arcs.push(net.add_arc(source, 1 + u, 1));
    }
    // Remember the coverage arcs so the assignment can be read back.
    let mut cover_arcs: Vec<(usize, usize, usize)> = Vec::new(); // (arc, user, placement)
    for (pi, &(uav, loc)) in placements.iter().enumerate() {
        let st_node = 1 + n + pi;
        for u in instance.coverable(uav, loc).iter() {
            let arc = net.add_arc(1 + u as usize, st_node, 1);
            cover_arcs.push((arc, u as usize, pi));
        }
        net.add_arc(st_node, sink, i64::from(instance.uavs()[uav].capacity));
    }
    let served = net.max_flow(source, sink) as usize;
    let mut user_placement = vec![None; n];
    let mut loads = vec![0u32; k];
    for &(arc, user, pi) in &cover_arcs {
        if net.flow_on(arc) == 1 {
            debug_assert!(user_placement[user].is_none());
            user_placement[user] = Some(pi);
            loads[pi] += 1;
        }
    }
    debug_assert_eq!(
        user_placement.iter().filter(|p| p.is_some()).count(),
        served
    );
    Assignment {
        user_placement,
        served,
        loads,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uavnet_channel::UavRadio;
    use uavnet_geom::{AreaSpec, GridSpec, Point2};

    fn instance_with(
        users: &[(f64, f64)],
        uavs: &[(u32, f64)], // (capacity, user range)
    ) -> Instance {
        let grid = GridSpec::new(AreaSpec::new(900.0, 900.0, 500.0).unwrap(), 300.0, 300.0)
            .unwrap()
            .build();
        let mut b = Instance::builder(grid, 600.0);
        for &(x, y) in users {
            b.add_user(Point2::new(x, y), 2_000.0);
        }
        for &(cap, range) in uavs {
            b.add_uav(cap, UavRadio::new(30.0, 5.0, range));
        }
        b.build().unwrap()
    }

    #[test]
    fn single_uav_capacity_binds() {
        // 4 users around cell 4's center; capacity 2.
        let inst = instance_with(
            &[
                (440.0, 450.0),
                (460.0, 450.0),
                (450.0, 440.0),
                (450.0, 460.0),
            ],
            &[(2, 500.0)],
        );
        let a = assign_users(&inst, &[(0, 4)]);
        assert_eq!(a.served, 2);
        assert_eq!(a.loads, vec![2]);
        assert_eq!(a.user_placement.iter().filter(|p| p.is_some()).count(), 2);
    }

    #[test]
    fn two_uavs_split_users() {
        // Users near opposite corners; one UAV each.
        let inst = instance_with(
            &[(150.0, 150.0), (160.0, 150.0), (750.0, 750.0)],
            &[(2, 300.0), (2, 300.0)],
        );
        let a = assign_users(&inst, &[(0, 0), (1, 8)]);
        assert_eq!(a.served, 3);
        assert_eq!(a.loads, vec![2, 1]);
    }

    #[test]
    fn max_flow_agrees_with_matching() {
        let inst = instance_with(
            &[
                (150.0, 150.0),
                (160.0, 160.0),
                (450.0, 450.0),
                (460.0, 450.0),
                (750.0, 750.0),
                (740.0, 760.0),
                (150.0, 750.0),
            ],
            &[(2, 400.0), (3, 500.0), (1, 300.0)],
        );
        for placements in [
            vec![(0usize, 0usize)],
            vec![(0, 0), (1, 4)],
            vec![(0, 0), (1, 4), (2, 8)],
            vec![(2, 4), (1, 0), (0, 8)],
        ] {
            let a = assign_users(&inst, &placements);
            let b = assign_users_max_flow(&inst, &placements);
            assert_eq!(a.served, b.served, "{placements:?}");
            assert_eq!(a.loads.iter().sum::<u32>() as usize, a.served);
            assert_eq!(b.loads.iter().sum::<u32>() as usize, b.served);
        }
    }

    #[test]
    fn assignment_only_uses_coverable_pairs() {
        let inst = instance_with(
            &[(150.0, 150.0), (750.0, 750.0)],
            &[(5, 250.0)], // short range: covers at most one corner
        );
        let a = assign_users(&inst, &[(0, 0)]);
        assert_eq!(a.served, 1);
        assert_eq!(a.user_placement[1], None);
        let b = assign_users_max_flow(&inst, &[(0, 0)]);
        assert_eq!(b.user_placement[1], None);
    }

    #[test]
    fn empty_deployment_serves_nobody() {
        let inst = instance_with(&[(150.0, 150.0)], &[(5, 500.0)]);
        let a = assign_users(&inst, &[]);
        assert_eq!(a.served, 0);
        assert!(a.loads.is_empty());
        assert_eq!(a.user_placement, vec![None]);
    }

    #[test]
    fn reassignment_beats_greedy_order() {
        // One central cluster coverable by both UAVs, one far user only
        // coverable by the second: optimal must route around greed.
        let inst = instance_with(
            &[(450.0, 450.0), (460.0, 460.0), (150.0, 450.0)],
            &[(1, 600.0), (2, 600.0)],
        );
        // UAV 1 (cap 2) at cell 4 reaches all three; UAV 0 (cap 1) at
        // cell 4 too would waste overlap — place UAV 0 at cell 3 (west).
        let a = assign_users(&inst, &[(1, 4), (0, 3)]);
        assert_eq!(a.served, 3);
    }
}
