//! Declarative scenario specifications.

use crate::{sample_fleet, sample_users, FleetStyle, UserDistribution};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::error::Error;
use std::fmt;
use uavnet_core::{CoreError, Instance};
use uavnet_geom::{AreaSpec, GeomError, GridSpec};

/// Error raised when a scenario specification is invalid or cannot be
/// instantiated.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadError {
    /// A parameter failed validation.
    InvalidParameter(String),
    /// The underlying geometry was rejected.
    Geometry(GeomError),
    /// The instance builder rejected the generated scenario.
    Core(CoreError),
}

impl fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadError::InvalidParameter(msg) => write!(f, "invalid parameter: {msg}"),
            WorkloadError::Geometry(e) => write!(f, "geometry: {e}"),
            WorkloadError::Core(e) => write!(f, "instance: {e}"),
        }
    }
}

impl Error for WorkloadError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            WorkloadError::Geometry(e) => Some(e),
            WorkloadError::Core(e) => Some(e),
            WorkloadError::InvalidParameter(_) => None,
        }
    }
}

impl From<GeomError> for WorkloadError {
    fn from(e: GeomError) -> Self {
        WorkloadError::Geometry(e)
    }
}

impl From<CoreError> for WorkloadError {
    fn from(e: CoreError) -> Self {
        WorkloadError::Core(e)
    }
}

/// A complete, reproducible description of one experimental scenario.
///
/// Every field is plain data; instantiation is a
/// pure function of the spec, so two runs with the same spec solve the
/// same instance bit-for-bit.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    area_length_m: f64,
    area_width_m: f64,
    area_height_m: f64,
    cell_m: f64,
    altitude_m: f64,
    num_users: usize,
    distribution: UserDistribution,
    min_rate_bps: f64,
    num_uavs: usize,
    capacity_min: u32,
    capacity_max: u32,
    tx_power_dbm: f64,
    antenna_gain_dbi: f64,
    user_range_m: f64,
    uav_range_m: f64,
    fleet_style: FleetStyle,
    gateway: Option<(f64, f64)>,
    auto_altitude_pl_db: Option<f64>,
    seed: u64,
}

impl ScenarioSpec {
    /// Starts a builder preloaded with laptop-scale defaults derived
    /// from the paper's evaluation (3 km × 3 km zone, fat-tailed
    /// users, capacities in `[50, 300]`, `H = 300 m`, `R_uav = 600 m`,
    /// `R_user = 500 m`) — with a 300 m grid cell instead of the
    /// paper's 50 m so that `approAlg`'s subset sweep stays tractable
    /// on a laptop (see EXPERIMENTS.md).
    pub fn builder() -> ScenarioSpecBuilder {
        ScenarioSpecBuilder::default()
    }

    /// The paper's Figure 4/5/6 environment at reduced grid
    /// resolution: `n` users, `K` UAVs, everything else §IV-A.
    pub fn paper_figure(n: usize, k: usize, seed: u64) -> Result<ScenarioSpec, WorkloadError> {
        ScenarioSpec::builder().users(n).uavs(k).seed(seed).build()
    }

    /// Instantiates the scenario into a solvable [`Instance`].
    ///
    /// # Errors
    ///
    /// [`WorkloadError`] if the geometry or generated data is
    /// rejected (should not happen for a validated spec).
    pub fn instantiate(&self) -> Result<Instance, WorkloadError> {
        let area = AreaSpec::new(self.area_length_m, self.area_width_m, self.area_height_m)?;
        // §II-A: H_uav is "the optimal altitude for the maximum
        // coverage from the sky", computable per Al-Hourani et al.
        let altitude = match self.auto_altitude_pl_db {
            Some(budget) => {
                let params = uavnet_channel::ChannelParams::default();
                let (h, _) = uavnet_channel::optimal_altitude_m(
                    &params,
                    budget,
                    (50.0, self.area_height_m.max(51.0)),
                );
                h
            }
            None => self.altitude_m,
        };
        let grid = GridSpec::new(area, self.cell_m, altitude)?.build();
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let users = sample_users(&mut rng, area, self.num_users, self.distribution);
        let fleet = sample_fleet(
            &mut rng,
            self.num_uavs,
            self.capacity_min,
            self.capacity_max,
            self.tx_power_dbm,
            self.antenna_gain_dbi,
            self.user_range_m,
            self.fleet_style,
        );
        let mut builder = Instance::builder(grid, self.uav_range_m);
        if let Some((x, y)) = self.gateway {
            builder.gateway(uavnet_geom::Point2::new(x, y));
        }
        for pos in users {
            builder.add_user(pos, self.min_rate_bps);
        }
        builder.uavs(fleet);
        Ok(builder.build()?)
    }

    /// Number of users `n`.
    pub fn num_users(&self) -> usize {
        self.num_users
    }

    /// Number of UAVs `K`.
    pub fn num_uavs(&self) -> usize {
        self.num_uavs
    }

    /// The RNG seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }
}

/// Builder for [`ScenarioSpec`]; see [`ScenarioSpec::builder`].
#[derive(Debug, Clone)]
pub struct ScenarioSpecBuilder {
    spec: ScenarioSpec,
}

impl Default for ScenarioSpecBuilder {
    fn default() -> Self {
        ScenarioSpecBuilder {
            spec: ScenarioSpec {
                area_length_m: 3_000.0,
                area_width_m: 3_000.0,
                area_height_m: 500.0,
                cell_m: 300.0,
                altitude_m: 300.0,
                num_users: 1_000,
                distribution: UserDistribution::default(),
                min_rate_bps: 2_000.0,
                num_uavs: 10,
                capacity_min: 50,
                capacity_max: 300,
                tx_power_dbm: 30.0,
                antenna_gain_dbi: 5.0,
                user_range_m: 500.0,
                uav_range_m: 600.0,
                fleet_style: FleetStyle::CommonRadio,
                gateway: None,
                auto_altitude_pl_db: None,
                seed: 0,
            },
        }
    }
}

impl ScenarioSpecBuilder {
    /// Sets the zone footprint in meters.
    pub fn area_m(&mut self, length: f64, width: f64) -> &mut Self {
        self.spec.area_length_m = length;
        self.spec.area_width_m = width;
        self
    }

    /// Sets the grid cell side `λ` in meters.
    pub fn cell_m(&mut self, cell: f64) -> &mut Self {
        self.spec.cell_m = cell;
        self
    }

    /// Sets the hovering altitude `H_uav` in meters.
    pub fn altitude_m(&mut self, altitude: f64) -> &mut Self {
        self.spec.altitude_m = altitude;
        self
    }

    /// Sets the number of users `n`.
    pub fn users(&mut self, n: usize) -> &mut Self {
        self.spec.num_users = n;
        self
    }

    /// Sets the user placement distribution.
    pub fn distribution(&mut self, d: UserDistribution) -> &mut Self {
        self.spec.distribution = d;
        self
    }

    /// Sets the common minimum data rate in bit/s.
    pub fn min_rate_bps(&mut self, rate: f64) -> &mut Self {
        self.spec.min_rate_bps = rate;
        self
    }

    /// Sets the fleet size `K`.
    pub fn uavs(&mut self, k: usize) -> &mut Self {
        self.spec.num_uavs = k;
        self
    }

    /// Sets the capacity range `[C_min, C_max]`.
    pub fn capacity_range(&mut self, min: u32, max: u32) -> &mut Self {
        self.spec.capacity_min = min;
        self.spec.capacity_max = max;
        self
    }

    /// Sets the base radio (transmit power dBm, antenna gain dBi).
    pub fn radio(&mut self, tx_power_dbm: f64, antenna_gain_dbi: f64) -> &mut Self {
        self.spec.tx_power_dbm = tx_power_dbm;
        self.spec.antenna_gain_dbi = antenna_gain_dbi;
        self
    }

    /// Sets the user coverage radius `R_user` in meters.
    pub fn user_range_m(&mut self, range: f64) -> &mut Self {
        self.spec.user_range_m = range;
        self
    }

    /// Sets the UAV-to-UAV range `R_uav` in meters.
    pub fn uav_range_m(&mut self, range: f64) -> &mut Self {
        self.spec.uav_range_m = range;
        self
    }

    /// Sets how radios scale with capacity.
    pub fn fleet_style(&mut self, style: FleetStyle) -> &mut Self {
        self.spec.fleet_style = style;
        self
    }

    /// Derives the hovering altitude from the channel model instead of
    /// using the fixed default: the Al-Hourani optimal altitude for a
    /// maximum tolerable pathloss of `budget_db`, clamped to the
    /// zone's ceiling (§II-A's "optimal altitude for the maximum
    /// coverage").
    pub fn auto_altitude(&mut self, budget_db: f64) -> &mut Self {
        self.spec.auto_altitude_pl_db = Some(budget_db);
        self
    }

    /// Parks the Internet gateway vehicle at a ground position; a
    /// valid deployment must then keep one UAV within `R_uav` of it.
    pub fn gateway_m(&mut self, x: f64, y: f64) -> &mut Self {
        self.spec.gateway = Some((x, y));
        self
    }

    /// Sets the RNG seed.
    pub fn seed(&mut self, seed: u64) -> &mut Self {
        self.spec.seed = seed;
        self
    }

    /// Validates and returns the spec.
    ///
    /// # Errors
    ///
    /// [`WorkloadError::InvalidParameter`] for empty fleets/user sets,
    /// inverted capacity ranges or non-positive ranges;
    /// [`WorkloadError::Geometry`] if the grid parameters are invalid.
    pub fn build(&self) -> Result<ScenarioSpec, WorkloadError> {
        let s = &self.spec;
        if s.num_users == 0 {
            return Err(WorkloadError::InvalidParameter("users must be > 0".into()));
        }
        if s.num_uavs == 0 {
            return Err(WorkloadError::InvalidParameter("uavs must be > 0".into()));
        }
        if s.capacity_min > s.capacity_max {
            return Err(WorkloadError::InvalidParameter(format!(
                "capacity range [{}, {}] is empty",
                s.capacity_min, s.capacity_max
            )));
        }
        for (what, v) in [
            ("user_range_m", s.user_range_m),
            ("uav_range_m", s.uav_range_m),
            ("min_rate_bps", s.min_rate_bps),
        ] {
            if !(v.is_finite() && v > 0.0) {
                return Err(WorkloadError::InvalidParameter(format!("{what} = {v}")));
            }
        }
        // Validate the geometry eagerly so errors surface at build.
        let area = AreaSpec::new(s.area_length_m, s.area_width_m, s.area_height_m)?;
        GridSpec::new(area, s.cell_m, s.altitude_m)?;
        Ok(s.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_build_and_instantiate() {
        let spec = ScenarioSpec::builder().users(50).uavs(4).build().unwrap();
        let inst = spec.instantiate().unwrap();
        assert_eq!(inst.num_users(), 50);
        assert_eq!(inst.num_uavs(), 4);
        assert_eq!(inst.num_locations(), 100); // (3000/300)²
    }

    #[test]
    fn instantiation_is_deterministic() {
        let spec = ScenarioSpec::builder()
            .users(30)
            .uavs(3)
            .seed(9)
            .build()
            .unwrap();
        let a = spec.instantiate().unwrap();
        let b = spec.instantiate().unwrap();
        assert_eq!(a.users(), b.users());
        assert_eq!(a.uavs(), b.uavs());
        let other = ScenarioSpec::builder()
            .users(30)
            .uavs(3)
            .seed(10)
            .build()
            .unwrap();
        let c = other.instantiate().unwrap();
        assert_ne!(a.users(), c.users());
    }

    #[test]
    fn paper_figure_shorthand() {
        let spec = ScenarioSpec::paper_figure(100, 8, 3).unwrap();
        assert_eq!(spec.num_users(), 100);
        assert_eq!(spec.num_uavs(), 8);
        assert_eq!(spec.seed(), 3);
    }

    #[test]
    fn validation_failures() {
        assert!(ScenarioSpec::builder().users(0).build().is_err());
        assert!(ScenarioSpec::builder().uavs(0).build().is_err());
        assert!(ScenarioSpec::builder()
            .capacity_range(10, 5)
            .build()
            .is_err());
        assert!(ScenarioSpec::builder().user_range_m(-1.0).build().is_err());
        assert!(ScenarioSpec::builder().cell_m(7.0).build().is_err()); // 3000 % 7 ≠ 0
    }

    #[test]
    fn auto_altitude_changes_the_hovering_plane() {
        let fixed = ScenarioSpec::builder()
            .users(20)
            .uavs(2)
            .seed(4)
            .build()
            .unwrap()
            .instantiate()
            .unwrap();
        let auto = ScenarioSpec::builder()
            .users(20)
            .uavs(2)
            .seed(4)
            .auto_altitude(105.0)
            .build()
            .unwrap()
            .instantiate()
            .unwrap();
        let h_fixed = fixed.grid().spec().altitude_m();
        let h_auto = auto.grid().spec().altitude_m();
        assert_eq!(h_fixed, 300.0);
        assert_ne!(h_auto, 300.0);
        // Clamped to the zone ceiling.
        assert!(h_auto > 50.0 && h_auto <= 500.0, "h = {h_auto}");
    }

    #[test]
    fn error_chain_exposes_source() {
        let err = ScenarioSpec::builder().cell_m(7.0).build().unwrap_err();
        assert!(err.source().is_some());
        assert!(err.to_string().contains("geometry"));
    }
}
