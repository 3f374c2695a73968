//! Deployments, solutions and independent feasibility validation.

use crate::assign::{assign_users, Assignment};
use crate::Instance;
use std::error::Error;
use std::fmt;
use uavnet_geom::CellIndex;
use uavnet_graph::is_connected_subset;

/// A deployment: which UAV hovers at which candidate location.
///
/// Invariants (checked by [`Deployment::new`]): UAV indices are
/// distinct, locations are distinct (one UAV per grid cell, §II-A).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Deployment {
    placements: Vec<(usize, CellIndex)>,
}

impl Deployment {
    /// Creates a deployment from `(uav, location)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if a UAV or location appears twice. Untrusted inputs
    /// (e.g. fault-injected or deserialized placements) should go
    /// through [`Deployment::try_new`] instead.
    pub fn new(placements: Vec<(usize, CellIndex)>) -> Self {
        match Self::try_new(placements) {
            Ok(d) => d,
            Err(e) => panic!("invalid deployment: {e}"),
        }
    }

    /// Creates a deployment from `(uav, location)` pairs, returning a
    /// typed error instead of panicking on duplicates — the
    /// `Result`-based boundary used by the verification and
    /// fault-injection paths.
    ///
    /// # Errors
    ///
    /// [`ValidationError::DuplicateUav`] or
    /// [`ValidationError::DuplicateLocation`] on the first repeated
    /// entry.
    pub fn try_new(placements: Vec<(usize, CellIndex)>) -> Result<Self, ValidationError> {
        for (i, &(uav, loc)) in placements.iter().enumerate() {
            for &(uav2, loc2) in &placements[..i] {
                if uav == uav2 {
                    return Err(ValidationError::DuplicateUav { uav });
                }
                if loc == loc2 {
                    return Err(ValidationError::DuplicateLocation { loc });
                }
            }
        }
        Ok(Deployment { placements })
    }

    /// The `(uav, location)` pairs.
    #[inline]
    pub fn placements(&self) -> &[(usize, CellIndex)] {
        &self.placements
    }

    /// Number of deployed UAVs.
    #[inline]
    pub fn len(&self) -> usize {
        self.placements.len()
    }

    /// Whether no UAV is deployed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.placements.is_empty()
    }

    /// The occupied locations, in placement order.
    pub fn locations(&self) -> Vec<CellIndex> {
        self.placements.iter().map(|&(_, l)| l).collect()
    }
}

/// A deployment together with its (optimal) user assignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Solution {
    deployment: Deployment,
    assignment: Assignment,
}

impl Solution {
    pub(crate) fn from_parts(placements: Vec<(usize, CellIndex)>, assignment: Assignment) -> Self {
        Solution {
            deployment: Deployment::new(placements),
            assignment,
        }
    }

    /// The deployment.
    #[inline]
    pub fn deployment(&self) -> &Deployment {
        &self.deployment
    }

    /// Number of users served.
    #[inline]
    pub fn served_users(&self) -> usize {
        self.assignment.served
    }

    /// For each user, the index (into
    /// [`Deployment::placements`]) of the UAV serving it.
    #[inline]
    pub fn user_placement(&self) -> &[Option<usize>] {
        &self.assignment.user_placement
    }

    /// Users served by each placement.
    #[inline]
    pub fn loads(&self) -> &[u32] {
        &self.assignment.loads
    }

    /// Independently re-checks every constraint of the problem
    /// definition (§II-C) against `instance`:
    ///
    /// 1. placements reference valid, distinct UAVs and locations and
    ///    use at most `K` UAVs;
    /// 2. every served user is admissible for its UAV (coverage radius
    ///    *and* minimum data rate, re-derived from the channel model);
    /// 3. no UAV exceeds its service capacity;
    /// 4. the deployed locations form a connected sub-network under
    ///    `R_uav`.
    ///
    /// # Errors
    ///
    /// The first violated constraint, as a [`ValidationError`].
    pub fn validate(&self, instance: &Instance) -> Result<(), ValidationError> {
        let placements = self.deployment.placements();
        if placements.len() > instance.num_uavs() {
            return Err(ValidationError::TooManyUavs {
                deployed: placements.len(),
                fleet: instance.num_uavs(),
            });
        }
        check_placement_ranges(instance, placements)?;
        // Assignment sanity plus constraint (i) and (ii).
        let mut loads = vec![0u32; placements.len()];
        if self.assignment.user_placement.len() != instance.num_users() {
            return Err(ValidationError::AssignmentShape {
                got: self.assignment.user_placement.len(),
                expected: instance.num_users(),
            });
        }
        let mut served = 0usize;
        for (user, pl) in self.assignment.user_placement.iter().enumerate() {
            let Some(pi) = *pl else { continue };
            served += 1;
            let Some(&(uav, loc)) = placements.get(pi) else {
                return Err(ValidationError::BadPlacementIndex { user, index: pi });
            };
            let radio = &instance.uavs()[uav].radio;
            let u = &instance.users()[user];
            let hover = instance.grid().hover_position(loc);
            if !instance
                .atg()
                .can_serve(radio, hover, u.pos, u.min_rate_bps)
            {
                return Err(ValidationError::UserNotAdmissible { user, uav, loc });
            }
            loads[pi] += 1;
        }
        if served != self.assignment.served {
            return Err(ValidationError::ServedCountMismatch {
                claimed: self.assignment.served,
                actual: served,
            });
        }
        for (pi, &(uav, _)) in placements.iter().enumerate() {
            let cap = instance.uavs()[uav].capacity;
            if loads[pi] > cap {
                return Err(ValidationError::OverCapacity {
                    uav,
                    load: loads[pi],
                    capacity: cap,
                });
            }
        }
        // Constraint (iii): connectivity.
        let locs = self.deployment.locations();
        if !is_connected_subset(instance.location_graph(), &locs) {
            return Err(ValidationError::Disconnected);
        }
        // Gateway constraint (Fig. 1): some UAV must reach the uplink.
        if instance.gateway().is_some()
            && !locs.is_empty()
            && !locs.iter().any(|&l| instance.is_gateway_cell(l))
        {
            return Err(ValidationError::NoGateway);
        }
        Ok(())
    }
}

/// Aggregate quality metrics of a [`Solution`]; see
/// [`Solution::summary`].
#[derive(Debug, Clone, PartialEq)]
pub struct SolutionSummary {
    /// Users served.
    pub served: usize,
    /// Fraction of all users served, in `[0, 1]`.
    pub coverage: f64,
    /// Number of deployed UAVs.
    pub deployed_uavs: usize,
    /// Mean load / capacity over deployed UAVs, in `[0, 1]`.
    pub mean_utilization: f64,
    /// Jain's fairness index of the per-UAV loads, in `(0, 1]`
    /// (1 = perfectly even; `1/q` = one UAV carries everything).
    pub load_fairness: f64,
}

impl Solution {
    /// Computes aggregate quality metrics against `instance`.
    ///
    /// # Panics
    ///
    /// Panics if a placement references an out-of-range UAV (validate
    /// first for untrusted solutions).
    pub fn summary(&self, instance: &Instance) -> SolutionSummary {
        let placements = self.deployment.placements();
        let q = placements.len();
        let served = self.served_users();
        let coverage = if instance.num_users() == 0 {
            0.0
        } else {
            served as f64 / instance.num_users() as f64
        };
        let mut util_sum = 0.0;
        for (pi, &(uav, _)) in placements.iter().enumerate() {
            let cap = instance.uavs()[uav].capacity.max(1);
            util_sum += f64::from(self.loads()[pi]) / f64::from(cap);
        }
        let mean_utilization = if q == 0 { 0.0 } else { util_sum / q as f64 };
        let load_fairness = jain_index(self.loads());
        SolutionSummary {
            served,
            coverage,
            deployed_uavs: q,
            mean_utilization,
            load_fairness,
        }
    }
}

/// Jain's fairness index `(Σx)² / (n·Σx²)`; 1.0 for an empty or
/// all-zero vector by convention.
fn jain_index(xs: &[u32]) -> f64 {
    let n = xs.len();
    if n == 0 {
        return 1.0;
    }
    let sum: f64 = xs.iter().map(|&x| f64::from(x)).sum();
    let sq: f64 = xs.iter().map(|&x| f64::from(x) * f64::from(x)).sum();
    if sq == 0.0 {
        return 1.0;
    }
    sum * sum / (n as f64 * sq)
}

/// Scores a deployment with the optimal assignment (Lemma 1) and wraps
/// it as a [`Solution`] — the shared scoring path used by `approAlg`
/// and by every baseline, so algorithm comparisons measure placement
/// quality only.
///
/// # Panics
///
/// Panics if a placement references an out-of-range UAV or location,
/// or repeats a UAV or location. Untrusted placements should go
/// through [`try_score_deployment`].
pub fn score_deployment(instance: &Instance, placements: Vec<(usize, CellIndex)>) -> Solution {
    #[cfg(feature = "debug-validate")]
    crate::verify::check_assignment_oracles(instance, &placements)
        .expect("debug-validate: matching and max-flow assignments diverged");
    let assignment = assign_users(instance, &placements);
    Solution::from_parts(placements, assignment)
}

/// [`score_deployment`] behind a `Result` boundary: placements are
/// checked for range and duplicates first, so forged or fault-injected
/// inputs yield typed errors instead of panics.
///
/// # Errors
///
/// [`CoreError::Validation`](crate::CoreError::Validation) wrapping the
/// first malformed placement (bad index or duplicate).
pub fn try_score_deployment(
    instance: &Instance,
    placements: Vec<(usize, CellIndex)>,
) -> Result<Solution, crate::CoreError> {
    check_placement_ranges(instance, &placements)?;
    let deployment = Deployment::try_new(placements)?;
    let assignment = assign_users(instance, deployment.placements());
    Ok(Solution {
        deployment,
        assignment,
    })
}

/// Checks that every placement names a UAV of `instance`'s fleet and a
/// cell of its grid.
///
/// # Errors
///
/// [`ValidationError::BadUavIndex`] or
/// [`ValidationError::BadLocationIndex`] for the first placement out of
/// range.
pub(crate) fn check_placement_ranges(
    instance: &Instance,
    placements: &[(usize, CellIndex)],
) -> Result<(), ValidationError> {
    for &(uav, loc) in placements {
        if uav >= instance.num_uavs() {
            return Err(ValidationError::BadUavIndex { uav });
        }
        if loc >= instance.num_locations() {
            return Err(ValidationError::BadLocationIndex { loc });
        }
    }
    Ok(())
}

/// A violated constraint found by [`Solution::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ValidationError {
    /// More UAVs deployed than exist in the fleet.
    TooManyUavs {
        /// Number of placements.
        deployed: usize,
        /// Fleet size `K`.
        fleet: usize,
    },
    /// A placement references a UAV outside the fleet.
    BadUavIndex {
        /// The offending UAV index.
        uav: usize,
    },
    /// The same UAV appears in two placements.
    DuplicateUav {
        /// The repeated UAV index.
        uav: usize,
    },
    /// The same location hosts two UAVs (one UAV per cell, §II-A).
    DuplicateLocation {
        /// The repeated location index.
        loc: usize,
    },
    /// A placement references a non-existent location.
    BadLocationIndex {
        /// The offending location index.
        loc: usize,
    },
    /// The assignment vector length does not match the user count.
    AssignmentShape {
        /// Length found.
        got: usize,
        /// Length expected.
        expected: usize,
    },
    /// A user points at a placement index that does not exist.
    BadPlacementIndex {
        /// The user.
        user: usize,
        /// The dangling placement index.
        index: usize,
    },
    /// A served user is outside its UAV's radius or below its rate.
    UserNotAdmissible {
        /// The user.
        user: usize,
        /// The UAV claimed to serve it.
        uav: usize,
        /// The UAV's location.
        loc: usize,
    },
    /// A UAV serves more users than its capacity (constraint ii).
    OverCapacity {
        /// The UAV.
        uav: usize,
        /// Users assigned.
        load: u32,
        /// Its capacity `C_k`.
        capacity: u32,
    },
    /// The claimed served count disagrees with the assignment.
    ServedCountMismatch {
        /// Claimed count.
        claimed: usize,
        /// Recounted value.
        actual: usize,
    },
    /// The deployed UAV network is not connected (constraint iii).
    Disconnected,
    /// The scenario has an Internet gateway but no deployed UAV can
    /// reach it.
    NoGateway,
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidationError::TooManyUavs { deployed, fleet } => {
                write!(f, "{deployed} UAVs deployed but the fleet has {fleet}")
            }
            ValidationError::BadUavIndex { uav } => write!(f, "unknown UAV index {uav}"),
            ValidationError::DuplicateUav { uav } => write!(f, "UAV {uav} placed twice"),
            ValidationError::DuplicateLocation { loc } => {
                write!(f, "location {loc} used twice")
            }
            ValidationError::BadLocationIndex { loc } => {
                write!(f, "unknown location index {loc}")
            }
            ValidationError::AssignmentShape { got, expected } => {
                write!(f, "assignment covers {got} users, expected {expected}")
            }
            ValidationError::BadPlacementIndex { user, index } => {
                write!(f, "user {user} assigned to missing placement {index}")
            }
            ValidationError::UserNotAdmissible { user, uav, loc } => {
                write!(f, "user {user} not servable by UAV {uav} at location {loc}")
            }
            ValidationError::OverCapacity {
                uav,
                load,
                capacity,
            } => write!(f, "UAV {uav} serves {load} users over capacity {capacity}"),
            ValidationError::ServedCountMismatch { claimed, actual } => {
                write!(f, "claimed {claimed} served users, recounted {actual}")
            }
            ValidationError::Disconnected => write!(f, "deployed UAV network is disconnected"),
            ValidationError::NoGateway => {
                write!(f, "no deployed UAV is within range of the gateway vehicle")
            }
        }
    }
}

impl Error for ValidationError {}

#[cfg(test)]
mod tests {
    use super::*;
    use uavnet_channel::UavRadio;
    use uavnet_geom::{AreaSpec, GridSpec, Point2};

    fn instance() -> Instance {
        let grid = GridSpec::new(AreaSpec::new(900.0, 900.0, 500.0).unwrap(), 300.0, 300.0)
            .unwrap()
            .build();
        let mut b = Instance::builder(grid, 320.0);
        b.add_user(Point2::new(150.0, 150.0), 2_000.0);
        b.add_user(Point2::new(160.0, 150.0), 2_000.0);
        b.add_user(Point2::new(750.0, 750.0), 2_000.0);
        b.add_uav(2, UavRadio::new(30.0, 5.0, 400.0));
        b.add_uav(1, UavRadio::new(30.0, 5.0, 400.0));
        b.build().unwrap()
    }

    #[test]
    fn score_and_validate_roundtrip() {
        let inst = instance();
        // Cells 0 and 1 are adjacent under R_uav = 320.
        let sol = score_deployment(&inst, vec![(0, 0), (1, 1)]);
        assert_eq!(sol.served_users(), 2);
        sol.validate(&inst).unwrap();
        assert_eq!(sol.deployment().len(), 2);
        assert_eq!(sol.loads().iter().sum::<u32>(), 2);
    }

    #[test]
    fn disconnected_deployment_fails_validation() {
        let inst = instance();
        // Cells 0 and 8 are far apart (no path among chosen subset).
        let sol = score_deployment(&inst, vec![(0, 0), (1, 8)]);
        assert_eq!(sol.validate(&inst), Err(ValidationError::Disconnected));
    }

    #[test]
    fn forged_overload_is_caught() {
        let inst = instance();
        let placements = vec![(1usize, 0usize)]; // UAV 1 has capacity 1
        let assignment = Assignment {
            user_placement: vec![Some(0), Some(0), None],
            served: 2,
            loads: vec![2],
        };
        let sol = Solution::from_parts(placements, assignment);
        assert!(matches!(
            sol.validate(&inst),
            Err(ValidationError::OverCapacity { uav: 1, .. })
        ));
    }

    #[test]
    fn forged_unreachable_user_is_caught() {
        let inst = instance();
        let placements = vec![(0usize, 0usize)];
        let assignment = Assignment {
            user_placement: vec![None, None, Some(0)], // user 2 is far away
            served: 1,
            loads: vec![1],
        };
        let sol = Solution::from_parts(placements, assignment);
        assert!(matches!(
            sol.validate(&inst),
            Err(ValidationError::UserNotAdmissible { user: 2, .. })
        ));
    }

    #[test]
    fn forged_served_count_is_caught() {
        let inst = instance();
        let assignment = Assignment {
            user_placement: vec![Some(0), None, None],
            served: 2,
            loads: vec![1],
        };
        let sol = Solution::from_parts(vec![(0, 0)], assignment);
        assert!(matches!(
            sol.validate(&inst),
            Err(ValidationError::ServedCountMismatch { .. })
        ));
    }

    #[test]
    fn empty_deployment_is_valid() {
        let inst = instance();
        let sol = score_deployment(&inst, vec![]);
        sol.validate(&inst).unwrap();
        assert_eq!(sol.served_users(), 0);
        assert!(sol.deployment().is_empty());
    }

    #[test]
    fn try_new_returns_typed_duplicate_errors() {
        assert_eq!(
            Deployment::try_new(vec![(0, 0), (0, 1)]),
            Err(ValidationError::DuplicateUav { uav: 0 })
        );
        assert_eq!(
            Deployment::try_new(vec![(0, 3), (1, 3)]),
            Err(ValidationError::DuplicateLocation { loc: 3 })
        );
        assert!(Deployment::try_new(vec![(0, 0), (1, 1)]).is_ok());
    }

    #[test]
    fn try_score_deployment_rejects_malformed_placements() {
        let inst = instance();
        assert!(matches!(
            try_score_deployment(&inst, vec![(9, 0)]),
            Err(crate::CoreError::Validation(ValidationError::BadUavIndex {
                uav: 9
            }))
        ));
        assert!(matches!(
            try_score_deployment(&inst, vec![(0, 99)]),
            Err(crate::CoreError::Validation(
                ValidationError::BadLocationIndex { loc: 99 }
            ))
        ));
        assert!(matches!(
            try_score_deployment(&inst, vec![(0, 0), (1, 0)]),
            Err(crate::CoreError::Validation(
                ValidationError::DuplicateLocation { loc: 0 }
            ))
        ));
        let sol = try_score_deployment(&inst, vec![(0, 0), (1, 1)]).unwrap();
        assert_eq!(sol.served_users(), 2);
    }

    #[test]
    #[should_panic(expected = "placed twice")]
    fn deployment_rejects_duplicate_uav() {
        let _ = Deployment::new(vec![(0, 0), (0, 1)]);
    }

    #[test]
    #[should_panic(expected = "used twice")]
    fn deployment_rejects_duplicate_location() {
        let _ = Deployment::new(vec![(0, 3), (1, 3)]);
    }

    #[test]
    fn summary_metrics_are_sane() {
        let inst = instance();
        let sol = score_deployment(&inst, vec![(0, 0), (1, 1)]);
        let s = sol.summary(&inst);
        assert_eq!(s.served, 2);
        assert!((s.coverage - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.deployed_uavs, 2);
        // UAV 0 (cap 2) serves both close users, UAV 1 (cap 1) none:
        // utilization = (2/2 + 0/1)/2 = 0.5, or the assignment splits
        // them; either way utilization ∈ (0, 1].
        assert!(s.mean_utilization > 0.0 && s.mean_utilization <= 1.0);
        assert!(s.load_fairness > 0.0 && s.load_fairness <= 1.0);
    }

    #[test]
    fn jain_index_extremes() {
        assert_eq!(jain_index(&[]), 1.0);
        assert_eq!(jain_index(&[0, 0]), 1.0);
        assert!((jain_index(&[5, 5, 5]) - 1.0).abs() < 1e-12);
        // One worker carries everything: 1/n.
        assert!((jain_index(&[9, 0, 0]) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_solution_summary() {
        let inst = instance();
        let sol = score_deployment(&inst, vec![]);
        let s = sol.summary(&inst);
        assert_eq!(s.served, 0);
        assert_eq!(s.coverage, 0.0);
        assert_eq!(s.deployed_uavs, 0);
        assert_eq!(s.mean_utilization, 0.0);
        assert_eq!(s.load_fairness, 1.0);
    }

    #[test]
    fn gateway_violation_is_caught() {
        let grid = GridSpec::new(AreaSpec::new(900.0, 900.0, 500.0).unwrap(), 300.0, 300.0)
            .unwrap()
            .build();
        let mut b = Instance::builder(grid, 450.0);
        b.add_user(Point2::new(750.0, 750.0), 2_000.0);
        b.gateway(Point2::new(0.0, 0.0));
        b.add_uav(2, UavRadio::new(30.0, 5.0, 400.0));
        let inst = b.build().unwrap();
        // Cell 8 (NE corner) is far from the SW gateway vehicle.
        let bad = score_deployment(&inst, vec![(0, 8)]);
        assert_eq!(bad.validate(&inst), Err(ValidationError::NoGateway));
        // Cell 0 reaches the gateway (hover (150,150,300) → origin).
        let good = score_deployment(&inst, vec![(0, 0)]);
        good.validate(&inst).unwrap();
    }

    #[test]
    fn validation_error_messages() {
        let e = ValidationError::OverCapacity {
            uav: 2,
            load: 7,
            capacity: 5,
        };
        assert!(e.to_string().contains("7"));
        assert!(ValidationError::Disconnected
            .to_string()
            .contains("disconnected"));
    }
}
