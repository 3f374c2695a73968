//! User mobility (§II-C): "the users in the disaster zone may move
//! around… we thus need to re-deploy the UAVs… later", with the most
//! recent locations re-detected from on-board cameras.
//!
//! [`MobilitySimulator`] evolves a user population step by step under
//! a pluggable [`MobilityModel`]. [`MobilitySimulator::step_deltas`]
//! reports each step as the per-user moves a re-deployment loop
//! consumes (`uavnet_core::SolverLoop` takes them as one
//! `Delta::UserMoved`; see `examples/mobility_redeploy.rs`).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use uavnet_geom::{AreaSpec, Point2};

/// How users move between deployment epochs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MobilityModel {
    /// Independent Gaussian drift: each step adds `N(0, σ²)` per axis
    /// (evacuees milling around their shelter).
    GaussianWalk {
        /// Per-step standard deviation in meters.
        sigma_m: f64,
    },
    /// Random waypoint: every user walks toward a private uniformly
    /// random target at a fixed speed, drawing a new target on
    /// arrival (directed movement toward exits/assembly points).
    RandomWaypoint {
        /// Distance covered per step in meters.
        speed_m_per_step: f64,
    },
}

/// Deterministic, seedable user-mobility simulation over a disaster
/// zone.
///
/// # Examples
///
/// ```
/// use uavnet_geom::{AreaSpec, Point2};
/// use uavnet_workload::{MobilityModel, MobilitySimulator};
///
/// # fn main() -> Result<(), uavnet_geom::GeomError> {
/// let area = AreaSpec::new(1_000.0, 1_000.0, 500.0)?;
/// let start = vec![Point2::new(500.0, 500.0); 10];
/// let mut sim = MobilitySimulator::new(area, start, MobilityModel::GaussianWalk { sigma_m: 30.0 }, 7);
/// sim.step();
/// assert!(sim.positions().iter().all(|p| area.contains(*p)));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct MobilitySimulator {
    area: AreaSpec,
    model: MobilityModel,
    positions: Vec<Point2>,
    targets: Vec<Point2>,
    rng: SmallRng,
    steps: usize,
}

impl MobilitySimulator {
    /// Creates a simulator from initial positions.
    ///
    /// # Panics
    ///
    /// Panics if the model's parameter is not strictly positive and
    /// finite.
    pub fn new(area: AreaSpec, positions: Vec<Point2>, model: MobilityModel, seed: u64) -> Self {
        let param = match model {
            MobilityModel::GaussianWalk { sigma_m } => sigma_m,
            MobilityModel::RandomWaypoint { speed_m_per_step } => speed_m_per_step,
        };
        assert!(
            param.is_finite() && param > 0.0,
            "mobility parameter must be positive, got {param}"
        );
        let mut rng = SmallRng::seed_from_u64(seed);
        let targets = positions
            .iter()
            .map(|_| uniform_point(&mut rng, area))
            .collect();
        MobilitySimulator {
            area,
            model,
            positions,
            targets,
            rng,
            steps: 0,
        }
    }

    /// Current user positions.
    #[inline]
    pub fn positions(&self) -> &[Point2] {
        &self.positions
    }

    /// Number of steps simulated so far.
    #[inline]
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Advances the simulation one step and returns the new positions.
    pub fn step(&mut self) -> &[Point2] {
        match self.model {
            MobilityModel::GaussianWalk { sigma_m } => {
                for p in &mut self.positions {
                    let (dx, dy) = gaussian_pair(&mut self.rng, sigma_m);
                    *p = self.area.clamp(Point2::new(p.x + dx, p.y + dy));
                }
            }
            MobilityModel::RandomWaypoint { speed_m_per_step } => {
                for (p, t) in self.positions.iter_mut().zip(self.targets.iter_mut()) {
                    let dist = p.distance(*t);
                    if dist <= speed_m_per_step {
                        *p = *t;
                        *t = uniform_point(&mut self.rng, self.area);
                    } else {
                        let f = speed_m_per_step / dist;
                        *p = Point2::new(p.x + f * (t.x - p.x), p.y + f * (t.y - p.y));
                    }
                }
            }
        }
        self.steps += 1;
        &self.positions
    }

    /// Runs `n` steps and returns the final positions.
    pub fn run(&mut self, n: usize) -> &[Point2] {
        for _ in 0..n {
            self.step();
        }
        &self.positions
    }

    /// Advances one step and emits `(user_id, new_position)` for every
    /// user displaced by at least `threshold_m` meters, ready to feed
    /// an incremental solver as a `UserMoved` batch (see
    /// `uavnet_core::Delta`).
    ///
    /// A zero threshold reports every user each tick; a camera-grade
    /// threshold (tens of meters) suppresses jitter that cannot change
    /// cell membership.
    ///
    /// # Panics
    ///
    /// Panics if `threshold_m` is negative or NaN.
    pub fn step_deltas(&mut self, threshold_m: f64) -> Vec<(u32, Point2)> {
        assert!(
            threshold_m >= 0.0,
            "displacement threshold must be non-negative, got {threshold_m}"
        );
        let before = self.positions.clone();
        self.step();
        before
            .iter()
            .zip(self.positions.iter())
            .enumerate()
            .filter(|(_, (old, new))| old.distance(**new) >= threshold_m)
            .map(|(id, (_, new))| (id as u32, *new))
            .collect()
    }
}

fn uniform_point(rng: &mut SmallRng, area: AreaSpec) -> Point2 {
    Point2::new(
        rng.gen_range(0.0..=area.length_m()),
        rng.gen_range(0.0..=area.width_m()),
    )
}

fn gaussian_pair(rng: &mut SmallRng, sigma: f64) -> (f64, f64) {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen();
    let r = sigma * (-2.0 * u1.ln()).sqrt();
    let theta = 2.0 * std::f64::consts::PI * u2;
    (r * theta.cos(), r * theta.sin())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn area() -> AreaSpec {
        AreaSpec::new(1_000.0, 800.0, 500.0).unwrap()
    }

    fn start() -> Vec<Point2> {
        (0..50)
            .map(|i| {
                Point2::new(
                    20.0 * (i % 10) as f64 + 100.0,
                    15.0 * (i / 10) as f64 + 100.0,
                )
            })
            .collect()
    }

    #[test]
    fn walk_stays_in_area_forever() {
        let mut sim = MobilitySimulator::new(
            area(),
            start(),
            MobilityModel::GaussianWalk { sigma_m: 120.0 },
            3,
        );
        for _ in 0..100 {
            sim.step();
            assert!(sim.positions().iter().all(|p| area().contains(*p)));
        }
        assert_eq!(sim.steps(), 100);
    }

    #[test]
    fn walk_actually_moves() {
        let before = start();
        let mut sim = MobilitySimulator::new(
            area(),
            before.clone(),
            MobilityModel::GaussianWalk { sigma_m: 25.0 },
            3,
        );
        sim.step();
        let moved = before
            .iter()
            .zip(sim.positions())
            .filter(|(a, b)| a.distance(**b) > 1.0)
            .count();
        assert!(moved > 40, "only {moved} users moved");
    }

    #[test]
    fn step_deltas_matches_plain_step() {
        let mk = || {
            MobilitySimulator::new(
                area(),
                start(),
                MobilityModel::GaussianWalk { sigma_m: 40.0 },
                11,
            )
        };
        let mut plain = mk();
        let mut delta = mk();
        plain.step();
        let moves = delta.step_deltas(0.0);
        // Zero threshold reports every user, with the same trajectory
        // the plain stepper produces from the same seed.
        assert_eq!(moves.len(), start().len());
        assert_eq!(plain.positions(), delta.positions());
        for (id, pos) in moves {
            assert_eq!(plain.positions()[id as usize], pos);
        }
        assert_eq!(delta.steps(), 1);
    }

    #[test]
    fn step_deltas_threshold_filters_small_displacements() {
        let mut sim = MobilitySimulator::new(
            area(),
            start(),
            MobilityModel::GaussianWalk { sigma_m: 20.0 },
            5,
        );
        let before = sim.positions().to_vec();
        let threshold = 25.0;
        let moves = sim.step_deltas(threshold);
        let after = sim.positions().to_vec();
        // Exactly the users displaced >= threshold are reported.
        let expected: Vec<u32> = before
            .iter()
            .zip(after.iter())
            .enumerate()
            .filter(|(_, (a, b))| a.distance(**b) >= threshold)
            .map(|(i, _)| i as u32)
            .collect();
        let got: Vec<u32> = moves.iter().map(|&(id, _)| id).collect();
        assert_eq!(got, expected);
        assert!(moves.len() < start().len(), "threshold filtered nothing");
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn step_deltas_rejects_negative_threshold() {
        let mut sim = MobilitySimulator::new(
            area(),
            start(),
            MobilityModel::GaussianWalk { sigma_m: 20.0 },
            5,
        );
        sim.step_deltas(-1.0);
    }

    #[test]
    fn waypoint_speed_bounds_displacement() {
        let speed = 15.0;
        let mut sim = MobilitySimulator::new(
            area(),
            start(),
            MobilityModel::RandomWaypoint {
                speed_m_per_step: speed,
            },
            5,
        );
        let before = sim.positions().to_vec();
        sim.step();
        for (a, b) in before.iter().zip(sim.positions()) {
            assert!(a.distance(*b) <= speed + 1e-9);
        }
    }

    #[test]
    fn waypoint_reaches_and_replaces_targets() {
        // With a huge speed, each step lands exactly on the target.
        let mut sim = MobilitySimulator::new(
            area(),
            vec![Point2::new(0.0, 0.0)],
            MobilityModel::RandomWaypoint {
                speed_m_per_step: 10_000.0,
            },
            5,
        );
        let first = sim.step()[0];
        let second = sim.step()[0];
        assert_ne!(first, second, "target should be redrawn after arrival");
    }

    #[test]
    fn determinism_per_seed() {
        let mk = |seed| {
            let mut sim = MobilitySimulator::new(
                area(),
                start(),
                MobilityModel::GaussianWalk { sigma_m: 40.0 },
                seed,
            );
            sim.run(10).to_vec()
        };
        assert_eq!(mk(9), mk(9));
        assert_ne!(mk(9), mk(10));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_bad_sigma() {
        let _ = MobilitySimulator::new(
            area(),
            start(),
            MobilityModel::GaussianWalk { sigma_m: 0.0 },
            1,
        );
    }
}
