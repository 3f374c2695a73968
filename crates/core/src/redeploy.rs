//! Re-deployment after user movement (§II-C).
//!
//! "The users in the disaster zone may move around… an optimal
//! deployment of the UAVs may become sub-optimal sometime later. We
//! thus need to re-deploy the UAVs… and invoke the proposed algorithm"
//! — this module provides both halves of that loop:
//!
//! * [`rescore`] — keep the fleet where it is and recompute the
//!   optimal assignment against the *new* user positions (the cheap
//!   "do nothing" option a dispatcher compares against);
//! * [`redeploy`] — run Algorithm 2 on the new instance and report the
//!   fleet movement the new plan requires.
//!
//! Both are *batch* operations: they rebuild the assignment (and, for
//! [`redeploy`], the whole plan) from scratch on every call. When user
//! movement arrives as a stream of small deltas rather than a fresh
//! snapshot, [`crate::SolverLoop`] amortizes this work by repairing
//! only the stations whose coverage tiles were dirtied.

use crate::approx::{approx_alg, ApproxConfig};
use crate::solution::{score_deployment, Solution};
use crate::{CoreError, Instance};

/// Fleet-movement summary of a re-deployment.
///
/// Launch-site convention: UAVs entering or leaving the air are **not**
/// `moved_uavs` — they are counted separately as
/// [`launched`](Self::launched) / [`grounded`](Self::grounded),
/// because no launch site is modeled and their flight distance is
/// unknown. This keeps `moved_uavs` and `total_move_m` consistent: a
/// UAV contributes to `moved_uavs` exactly when its (possibly zero-m)
/// cell-to-cell flight is part of `total_move_m`, so
/// `moved_uavs == 0 ⇔ total_move_m == 0`.
#[derive(Debug, Clone, PartialEq)]
pub struct RedeployStats {
    /// UAVs deployed in *both* plans whose hovering cell changed; each
    /// contributes its cell-center distance to
    /// [`total_move_m`](RedeployStats::total_move_m).
    pub moved_uavs: usize,
    /// UAVs deployed in the new plan but not the old one (flight from
    /// the unmodeled launch site, 0 m by convention).
    pub launched: usize,
    /// UAVs deployed in the old plan but not the new one.
    pub grounded: usize,
    /// Total horizontal flight distance (m) of UAVs deployed in both
    /// plans.
    pub total_move_m: f64,
    /// Users served if the fleet had stayed put ([`rescore`] value).
    pub stay_served: usize,
}

/// Re-scores a previous deployment against a new instance: the fleet
/// stays put, only the user assignment is recomputed (optimally).
///
/// # Errors
///
/// [`CoreError::InvalidParameters`] if the previous deployment does
/// not fit the new instance (different fleet size or grid).
pub fn rescore(instance: &Instance, previous: &Solution) -> Result<Solution, CoreError> {
    let placements = previous.deployment().placements().to_vec();
    for &(uav, loc) in &placements {
        if uav >= instance.num_uavs() || loc >= instance.num_locations() {
            return Err(CoreError::InvalidParameters(format!(
                "previous placement (UAV {uav}, cell {loc}) does not fit the new instance"
            )));
        }
    }
    Ok(score_deployment(instance, placements))
}

/// Runs Algorithm 2 on the updated instance and reports how far the
/// fleet must fly relative to `previous`.
///
/// # Errors
///
/// Propagates [`approx_alg`] and [`rescore`] errors.
pub fn redeploy(
    instance: &Instance,
    previous: &Solution,
    config: &ApproxConfig,
) -> Result<(Solution, RedeployStats), CoreError> {
    let stay = rescore(instance, previous)?;
    let solution = approx_alg(instance, config)?;
    let grid = instance.grid();
    let old: std::collections::HashMap<usize, usize> = previous
        .deployment()
        .placements()
        .iter()
        .map(|&(uav, loc)| (uav, loc))
        .collect();
    let new: std::collections::HashMap<usize, usize> = solution
        .deployment()
        .placements()
        .iter()
        .map(|&(uav, loc)| (uav, loc))
        .collect();
    let mut moved = 0usize;
    let mut launched = 0usize;
    let mut grounded = 0usize;
    let mut total_m = 0.0f64;
    for uav in 0..instance.num_uavs() {
        match (old.get(&uav), new.get(&uav)) {
            (Some(&a), Some(&b)) if a != b => {
                moved += 1;
                total_m += grid.cell_center(a).distance(grid.cell_center(b));
            }
            (Some(_), None) => grounded += 1,
            (None, Some(_)) => launched += 1,
            _ => {}
        }
    }
    Ok((
        solution,
        RedeployStats {
            moved_uavs: moved,
            launched,
            grounded,
            total_move_m: total_m,
            stay_served: stay.served_users(),
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use uavnet_channel::UavRadio;
    use uavnet_geom::{AreaSpec, GridSpec, Point2};

    fn grid() -> uavnet_geom::Grid {
        GridSpec::new(
            AreaSpec::new(1_500.0, 1_500.0, 500.0).unwrap(),
            300.0,
            300.0,
        )
        .unwrap()
        .build()
    }

    fn instance_with_users(users: &[Point2]) -> Instance {
        let mut b = Instance::builder(grid(), 450.0);
        for &p in users {
            b.add_user(p, 2_000.0);
        }
        b.add_uav(4, UavRadio::new(30.0, 5.0, 350.0));
        b.add_uav(3, UavRadio::new(30.0, 5.0, 350.0));
        b.build().unwrap()
    }

    fn cluster(at: Point2, n: usize) -> Vec<Point2> {
        (0..n)
            .map(|i| Point2::new(at.x + 8.0 * i as f64, at.y))
            .collect()
    }

    #[test]
    fn rescore_keeps_the_fleet_put() {
        let before = instance_with_users(&cluster(Point2::new(120.0, 150.0), 5));
        let sol = approx_alg(&before, &ApproxConfig::with_s(1)).unwrap();
        // Users wander to the opposite corner.
        let after = instance_with_users(&cluster(Point2::new(1_320.0, 1_350.0), 5));
        let stay = rescore(&after, &sol).unwrap();
        assert_eq!(
            stay.deployment().placements(),
            sol.deployment().placements()
        );
        // The old spot serves nobody anymore.
        assert_eq!(stay.served_users(), 0);
    }

    #[test]
    fn redeploy_chases_the_users() {
        let before = instance_with_users(&cluster(Point2::new(120.0, 150.0), 5));
        let sol = approx_alg(&before, &ApproxConfig::with_s(1)).unwrap();
        assert_eq!(sol.served_users(), 5);
        let after = instance_with_users(&cluster(Point2::new(1_320.0, 1_350.0), 5));
        let (new_sol, stats) = redeploy(&after, &sol, &ApproxConfig::with_s(1)).unwrap();
        new_sol.validate(&after).unwrap();
        assert_eq!(new_sol.served_users(), 5);
        assert_eq!(stats.stay_served, 0);
        assert!(stats.moved_uavs >= 1);
        assert!(stats.total_move_m > 1_000.0, "moved {}", stats.total_move_m);
    }

    #[test]
    fn redeploy_reports_no_movement_when_users_stay() {
        let users = cluster(Point2::new(120.0, 150.0), 5);
        let before = instance_with_users(&users);
        let sol = approx_alg(&before, &ApproxConfig::with_s(1)).unwrap();
        let (new_sol, stats) = redeploy(&before, &sol, &ApproxConfig::with_s(1)).unwrap();
        assert_eq!(new_sol.served_users(), sol.served_users());
        assert_eq!(stats.stay_served, sol.served_users());
        // The algorithm is deterministic, so the same instance yields
        // the same deployment — zero movement, zero fleet churn.
        assert_eq!(stats.moved_uavs, 0);
        assert_eq!(stats.launched, 0);
        assert_eq!(stats.grounded, 0);
        assert_eq!(stats.total_move_m, 0.0);
    }

    #[test]
    fn launched_and_grounded_do_not_inflate_moved_uavs() {
        // Old plan: both UAVs airborne. New users need only one, so
        // the new plan grounds the other — that must show up as
        // `grounded`, not as a phantom zero-distance move.
        // Two clusters one diagonal cell apart, so a connected pair of
        // UAVs can serve both (424 m between cell centers < 450 m).
        let before = instance_with_users(
            &[
                cluster(Point2::new(120.0, 150.0), 4),
                cluster(Point2::new(420.0, 450.0), 3),
            ]
            .concat(),
        );
        let sol = approx_alg(&before, &ApproxConfig::with_s(1)).unwrap();
        let airborne_before = sol.deployment().placements().len();
        assert_eq!(airborne_before, 2, "both UAVs should fly at first");
        // A single tight cluster of 4 users fits the capacity-4 UAV.
        let after = instance_with_users(&cluster(Point2::new(720.0, 750.0), 4));
        let (new_sol, stats) = redeploy(&after, &sol, &ApproxConfig::with_s(1)).unwrap();
        let airborne_after = new_sol.deployment().placements().len();
        // Fleet-churn bookkeeping must balance exactly.
        assert_eq!(
            airborne_before + stats.launched - stats.grounded,
            airborne_after
        );
        // The consistency contract: movement distance comes only from
        // UAVs counted in `moved_uavs`.
        if stats.moved_uavs == 0 {
            assert_eq!(stats.total_move_m, 0.0);
        } else {
            assert!(stats.total_move_m > 0.0);
        }
        if airborne_after < airborne_before {
            assert!(stats.grounded >= airborne_before - airborne_after);
        }
    }

    #[test]
    fn rescore_rejects_mismatched_instance() {
        let before = instance_with_users(&cluster(Point2::new(120.0, 150.0), 5));
        let sol = approx_alg(&before, &ApproxConfig::with_s(1)).unwrap();
        // A new instance with a single-UAV fleet cannot host UAV 1.
        let mut b = Instance::builder(grid(), 450.0);
        b.add_user(Point2::new(120.0, 150.0), 2_000.0);
        b.add_uav(4, UavRadio::new(30.0, 5.0, 350.0));
        let small = b.build().unwrap();
        if sol.deployment().placements().iter().any(|&(u, _)| u >= 1) {
            assert!(rescore(&small, &sol).is_err());
        }
    }
}
