//! The problem instance: users, the heterogeneous fleet, channels, the
//! candidate-location graph and precomputed coverage tables.

use crate::coverage::{CoverageMemory, CoverageTables};
use crate::CoreError;
use uavnet_channel::{AtgChannel, UavRadio, UavToUavChannel};
use uavnet_flow::UserList;
use uavnet_geom::{AreaSpec, CellIndex, Grid, Point2, Point3, SpatialIndex};
use uavnet_graph::Graph;

/// A ground user: position and minimum data-rate requirement
/// `r_i^min` in bit/s (§II-A).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct User {
    /// Position on the ground plane.
    pub pos: Point2,
    /// Minimum acceptable data rate in bit/s (e.g. 2 000 for voice).
    pub min_rate_bps: f64,
}

/// A UAV of the heterogeneous fleet: service capacity `C_k` and the
/// radio of its mounted base station.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Uav {
    /// Maximum number of simultaneously served users.
    pub capacity: u32,
    /// The mounted base-station radio (power, gain, coverage radius).
    pub radio: UavRadio,
}

/// A preprocessed instance of the maximum connected coverage problem.
///
/// Construction (via [`Instance::builder`]) precomputes:
///
/// * the **location graph** `G[V]`: an edge joins two candidate
///   hovering locations within `R_uav` of each other;
/// * **coverage tables**: for every distinct radio class and location,
///   the list of users that a UAV with that radio could serve there
///   (range *and* rate admissible). A demand at or below the class's
///   [`rate_floor_bps`](AtgChannel::rate_floor_bps) is admitted on
///   the range test alone, and only higher demands evaluate the exact
///   [`AtgChannel::can_serve`], with the same lists as the exact test
///   alone.
///
/// The public API never mutates an instance:
/// [`with_moved_users`](Instance::with_moved_users),
/// [`with_extra_users`](Instance::with_extra_users) and
/// [`with_severed_links`](Instance::with_severed_links) return changed
/// copies. The incremental engine ([`SolverLoop`](crate::SolverLoop))
/// patches its own instance in place with the code behind the first
/// two, which re-derives only the coverage lists the changed users can
/// affect.
#[derive(Debug, Clone)]
pub struct Instance {
    grid: Grid,
    users: Vec<User>,
    uavs: Vec<Uav>,
    atg: AtgChannel,
    uav_channel: UavToUavChannel,
    location_graph: Graph,
    /// Distinct radio classes; `radio_class[k]` maps UAV `k` to one.
    radio_class: Vec<usize>,
    /// Compressed `(class, location)` → coverable-user lists.
    coverage: CoverageTables,
    /// `best_coverage[location]` = max coverage count over all classes.
    best_coverage: Vec<usize>,
    /// UAV indices sorted by capacity, largest first.
    uavs_by_capacity: Vec<usize>,
    /// Ground position of the Internet uplink (emergency vehicle).
    gateway: Option<Point2>,
    /// `gateway_cells[loc]`: hovering there reaches the uplink.
    gateway_cells: Vec<bool>,
}

impl Instance {
    /// Starts building an instance over `grid` with UAV-to-UAV range
    /// `uav_range_m` and the default urban air-to-ground channel.
    pub fn builder(grid: Grid, uav_range_m: f64) -> InstanceBuilder {
        InstanceBuilder {
            grid,
            users: Vec::new(),
            uavs: Vec::new(),
            atg: AtgChannel::default(),
            uav_channel: UavToUavChannel::new(uav_range_m),
            gateway: None,
        }
    }

    /// The hovering-plane grid.
    #[inline]
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// The ground users.
    #[inline]
    pub fn users(&self) -> &[User] {
        &self.users
    }

    /// Number of users `n`.
    #[inline]
    pub fn num_users(&self) -> usize {
        self.users.len()
    }

    /// The fleet, in the order UAVs were added.
    #[inline]
    pub fn uavs(&self) -> &[Uav] {
        &self.uavs
    }

    /// Number of UAVs `K`.
    #[inline]
    pub fn num_uavs(&self) -> usize {
        self.uavs.len()
    }

    /// Number of candidate hovering locations `m`.
    #[inline]
    pub fn num_locations(&self) -> usize {
        self.grid.num_cells()
    }

    /// A stable FNV-1a fingerprint of the problem instance — the
    /// dimensions, every user's position and rate demand, and every
    /// UAV's capacity and radio. Two instances built from the same
    /// inputs hash identically on any platform (the hash folds IEEE
    /// bit patterns, not rounded values), so the fingerprint stamped
    /// into a run's obs provenance (`uavnet_obs::Provenance`)
    /// identifies *what* was solved when two recordings are diffed.
    pub fn fingerprint(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET;
        let mut fold = |v: u64| h = (h ^ v).wrapping_mul(FNV_PRIME);
        fold(self.users.len() as u64);
        fold(self.uavs.len() as u64);
        fold(self.grid.num_cells() as u64);
        for u in &self.users {
            fold(u.pos.x.to_bits());
            fold(u.pos.y.to_bits());
            fold(u.min_rate_bps.to_bits());
        }
        for k in &self.uavs {
            fold(u64::from(k.capacity));
            fold(k.radio.tx_power_dbm().to_bits());
            fold(k.radio.antenna_gain_dbi().to_bits());
            fold(k.radio.user_range_m().to_bits());
        }
        h
    }

    /// The air-to-ground channel model.
    #[inline]
    pub fn atg(&self) -> &AtgChannel {
        &self.atg
    }

    /// The UAV-to-UAV channel model.
    #[inline]
    pub fn uav_channel(&self) -> &UavToUavChannel {
        &self.uav_channel
    }

    /// The candidate-location connectivity graph `G[V]`.
    #[inline]
    pub fn location_graph(&self) -> &Graph {
        &self.location_graph
    }

    /// UAV indices sorted by capacity, largest first (ties by index).
    ///
    /// Algorithm 2 deploys UAVs in exactly this order.
    #[inline]
    pub fn uavs_by_capacity(&self) -> &[usize] {
        &self.uavs_by_capacity
    }

    /// The ground position of the Internet gateway (an emergency
    /// communication vehicle, Fig. 1 of the paper), if the scenario
    /// has one.
    #[inline]
    pub fn gateway(&self) -> Option<Point2> {
        self.gateway
    }

    /// Whether a UAV hovering at `loc` can relay to the gateway
    /// vehicle (3-D distance within `R_uav`).
    ///
    /// # Panics
    ///
    /// Panics if `loc` is out of range.
    #[inline]
    pub fn is_gateway_cell(&self, loc: CellIndex) -> bool {
        self.gateway_cells[loc]
    }

    /// All gateway-capable cells (empty when no gateway is set, or the
    /// vehicle parked out of range of every cell).
    pub fn gateway_cells(&self) -> Vec<CellIndex> {
        self.gateway_cells
            .iter()
            .enumerate()
            .filter(|&(_, &g)| g)
            .map(|(i, _)| i)
            .collect()
    }

    /// The radio-class index of a UAV: two UAVs share a class iff
    /// their radios are identical, so they cover exactly the same
    /// users from every location.
    ///
    /// # Panics
    ///
    /// Panics if `uav` is out of range.
    #[inline]
    pub fn radio_class(&self, uav: usize) -> usize {
        self.radio_class[uav]
    }

    /// Users that UAV `uav` could serve from location `loc`, as a
    /// borrowed ascending [`UserList`] over the compressed tables.
    /// Admissibility covers both the coverage radius of the UAV's
    /// radio and each user's minimum rate.
    ///
    /// # Panics
    ///
    /// Panics if `uav` or `loc` is out of range.
    #[inline]
    pub fn coverable(&self, uav: usize, loc: CellIndex) -> UserList<'_> {
        self.coverage.list(self.radio_class[uav], loc)
    }

    /// Number of users coverable by UAV `uav` from `loc` — an O(1)
    /// lookup of the cached list length.
    #[inline]
    pub fn coverage_count(&self, uav: usize, loc: CellIndex) -> usize {
        self.coverage.count(self.radio_class[uav], loc)
    }

    /// Coverable users by radio class instead of UAV index — the tile
    /// view builder walks every (class, location) pair once.
    #[inline]
    pub(crate) fn coverable_class(&self, class: usize, loc: CellIndex) -> UserList<'_> {
        self.coverage.list(class, loc)
    }

    /// Number of distinct radio classes across the fleet.
    #[inline]
    pub(crate) fn num_radio_classes(&self) -> usize {
        self.coverage.num_classes()
    }

    /// Memory accounting for the compressed coverage tables
    /// (compressed vs would-be-uncompressed bytes and the per-encoding
    /// list tallies). Reported per scale in `BENCH_sweep.json`.
    pub fn coverage_memory(&self) -> CoverageMemory {
        self.coverage.memory()
    }

    /// The largest coverage count over the fleet at `loc` — a cheap
    /// upper bound used for seed pruning and relay ordering.
    /// Precomputed at build time, so this is a plain table lookup.
    ///
    /// # Panics
    ///
    /// Panics if `loc` is out of range.
    #[inline]
    pub fn best_coverage_count(&self, loc: CellIndex) -> usize {
        self.best_coverage[loc]
    }

    /// The radio of every class, by class id. Class ids follow the
    /// first occurrence of each radio in the fleet, as the builder
    /// assigns them.
    fn class_radios(&self) -> Vec<UavRadio> {
        let mut radios = Vec::with_capacity(self.num_radio_classes());
        for (uav, &class) in self.radio_class.iter().enumerate() {
            if class == radios.len() {
                radios.push(self.uavs[uav].radio);
            }
        }
        radios
    }

    /// Recomputes the coverage tables by the all-pairs reference scan
    /// (no spatial index), in the same `coverage[class][location]`
    /// layout. Exists solely so tests can differentially check the
    /// indexed builder; not part of the public API surface.
    #[doc(hidden)]
    pub fn coverage_tables_bruteforce(&self) -> Vec<Vec<Vec<u32>>> {
        self.class_radios()
            .iter()
            .map(|radio| {
                (0..self.num_locations())
                    .map(|loc| coverable_bruteforce(&self.atg, radio, &self.grid, loc, &self.users))
                    .collect()
            })
            .collect()
    }

    /// The coverage tables decoded into the legacy `[class][location]`
    /// → sorted-user-ids layout. Exists for differential tests; use
    /// [`Instance::coverable`] in algorithm code (it borrows the
    /// compressed store instead of allocating).
    #[doc(hidden)]
    pub fn coverage_tables(&self) -> Vec<Vec<Vec<u32>>> {
        self.coverage.decode_all()
    }

    /// A degraded copy of this instance whose location graph lost the
    /// given UAV-to-UAV links (unordered cell pairs; pairs that were
    /// never edges are ignored). Coverage tables, fleet and users are
    /// shared semantics — only connectivity changes. Applies
    /// [`Delta::SeverLinks`](crate::Delta::SeverLinks): jammed or
    /// shadowed inter-UAV links.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameters`] if a pair references a
    /// non-existent location.
    pub fn with_severed_links(
        &self,
        severed: &[(CellIndex, CellIndex)],
    ) -> Result<Instance, CoreError> {
        let m = self.num_locations();
        for &(a, b) in severed {
            if a >= m || b >= m {
                return Err(CoreError::InvalidParameters(format!(
                    "severed link ({a}, {b}) references a location outside 0..{m}"
                )));
            }
        }
        let cut = |u: usize, v: usize| {
            severed
                .iter()
                .any(|&(a, b)| (a, b) == (u, v) || (a, b) == (v, u))
        };
        let graph = Graph::from_edges(m, self.location_graph.edges().filter(|&(u, v)| !cut(u, v)));
        let mut degraded = self.clone();
        degraded.location_graph = graph;
        Ok(degraded)
    }

    /// A copy of this instance with `extra` users appended (a demand
    /// surge). Existing user ids are preserved, the new users take ids
    /// `n..n + extra.len()`; only the coverage lists within range of a
    /// new user are re-encoded, and the location graph (possibly
    /// degraded by severed links) is kept.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidInstance`] if an extra user lies outside the
    /// zone or has an invalid minimum rate, or the user count would
    /// exceed `u32::MAX`.
    pub fn with_extra_users(&self, extra: &[User]) -> Result<Instance, CoreError> {
        let mut surged = self.clone();
        surged.patch_users(&[], extra)?;
        Ok(surged)
    }

    /// A copy of this instance with the listed users relocated (a
    /// mobility tick). Every user keeps its id, rate demand and
    /// ordering — only positions change, and a repeated id ends at its
    /// last position. Only the coverage lists within range of an old
    /// or new position are re-encoded, and the location graph
    /// (possibly degraded by severed links) is kept.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameters`] if a move names a user id that
    /// does not exist; [`CoreError::InvalidInstance`] if a new position
    /// lies outside the zone or is not finite.
    pub fn with_moved_users(&self, moves: &[(u32, Point2)]) -> Result<Instance, CoreError> {
        let mut moved = self.clone();
        moved.patch_users(moves, &[])?;
        Ok(moved)
    }

    /// Moves the `moves` users and appends the `extra` ones in place,
    /// re-deriving only the coverage lists they can change. The whole
    /// batch is validated before anything is mutated, so an error
    /// leaves the instance untouched. The result equals a fresh build
    /// of the same users, fleet and gateway (checked after every patch
    /// under `debug-validate`), with this instance's location graph.
    ///
    /// A user's membership can change only in the lists of cells
    /// within its class's range of its old or its new position, so
    /// those are the only cells visited, with the builder's own
    /// prefilter and admissibility predicate (range, then the class's
    /// rate floor, then the exact channel for demands above it).
    ///
    /// # Errors
    ///
    /// As [`with_moved_users`](Self::with_moved_users) and
    /// [`with_extra_users`](Self::with_extra_users).
    pub(crate) fn patch_users(
        &mut self,
        moves: &[(u32, Point2)],
        extra: &[User],
    ) -> Result<(), CoreError> {
        let n = self.users.len();
        if let Some(&(id, _)) = moves.iter().find(|&&(id, _)| id as usize >= n) {
            return Err(CoreError::InvalidParameters(format!(
                "moved user {id} outside 0..{n}"
            )));
        }
        let area = self.grid.spec().area();
        for &(id, pos) in moves {
            let user = User {
                pos,
                ..self.users[id as usize]
            };
            check_user(&area, id as usize, &user)?;
        }
        for (i, user) in extra.iter().enumerate() {
            check_user(&area, n + i, user)?;
        }
        if n + extra.len() > u32::MAX as usize {
            return Err(CoreError::InvalidInstance(
                "more than u32::MAX users".into(),
            ));
        }

        // One entry per changed user: its id, its position before the
        // batch (none for a surged user) and its new state. A repeated
        // id keeps its last position: reversed, a stable sort by id and
        // a dedup keep exactly that entry.
        let mut last: Vec<(u32, Point2)> = moves.iter().rev().copied().collect();
        last.sort_by_key(|&(id, _)| id);
        last.dedup_by_key(|&mut (id, _)| id);
        let changed: Vec<(u32, Option<Point2>, User)> = last
            .iter()
            .map(|&(id, pos)| {
                let old = self.users[id as usize];
                (id, Some(old.pos), User { pos, ..old })
            })
            .chain(
                extra
                    .iter()
                    .enumerate()
                    .map(|(i, &user)| ((n + i) as u32, None, user)),
            )
            .collect();

        let m = self.num_locations();
        let altitude = self.grid.spec().altitude_m();
        let mut edits: Vec<(usize, u32, bool)> = Vec::new();
        for (class, radio) in self.class_radios().iter().enumerate() {
            let range = radio.user_range_m();
            let range_sq = range * range;
            let floor = self.atg.rate_floor_bps(radio, altitude);
            for &(id, old, user) in &changed {
                for loc in self.grid.cells_within(user.pos, range) {
                    let hover = self.grid.hover_position(loc);
                    let d_sq = hover.to_plane().distance_sq(user.pos);
                    let member = admits(&self.atg, radio, floor, hover, d_sq, &user);
                    if member != self.coverage.list(class, loc).contains(id) {
                        edits.push((class * m + loc, id, member));
                    }
                }
                let Some(old) = old else { continue };
                for loc in self.grid.cells_within(old, range) {
                    // Cells in range of the new position were decided
                    // above; the rest can only lose the user.
                    if self.grid.cell_center(loc).distance_sq(user.pos) > range_sq
                        && self.coverage.list(class, loc).contains(id)
                    {
                        edits.push((class * m + loc, id, false));
                    }
                }
            }
        }
        edits.sort_unstable();

        self.coverage = self.coverage.with_edits(&edits);
        for &(id, pos) in &last {
            self.users[id as usize].pos = pos;
        }
        self.users.extend_from_slice(extra);
        for loc in edits.iter().map(|&(entry, _, _)| entry % m) {
            self.best_coverage[loc] = (0..self.coverage.num_classes())
                .map(|class| self.coverage.count(class, loc))
                .max()
                .unwrap_or(0);
        }
        #[cfg(feature = "debug-validate")]
        self.assert_matches_fresh_build();
        Ok(())
    }

    /// The patch oracle: a patched instance must equal a fresh build of
    /// the same users, fleet and gateway. Compiled only under
    /// `debug-validate`.
    #[cfg(feature = "debug-validate")]
    fn assert_matches_fresh_build(&self) {
        let fresh = InstanceBuilder {
            grid: self.grid.clone(),
            users: self.users.clone(),
            uavs: self.uavs.clone(),
            atg: self.atg,
            uav_channel: self.uav_channel,
            gateway: self.gateway,
        }
        .build()
        .expect("debug-validate: a patched instance must rebuild");
        assert_eq!(
            self.users, fresh.users,
            "debug-validate: patched users diverge from a fresh build"
        );
        assert!(
            self.coverage == fresh.coverage,
            "debug-validate: patched coverage tables diverge from a fresh build"
        );
        assert_eq!(
            self.best_coverage, fresh.best_coverage,
            "debug-validate: patched best coverage diverges from a fresh build"
        );
        assert_eq!(
            self.coverage_memory(),
            fresh.coverage_memory(),
            "debug-validate: patched coverage memory diverges from a fresh build"
        );
    }
}

/// The builder's per-user admissibility check: inside the zone (which
/// also rejects non-finite coordinates) with a finite, positive
/// minimum rate.
fn check_user(area: &AreaSpec, i: usize, user: &User) -> Result<(), CoreError> {
    if !area.contains(user.pos) {
        return Err(CoreError::InvalidInstance(format!(
            "user {i} at {} outside the disaster zone",
            user.pos
        )));
    }
    if !(user.min_rate_bps.is_finite() && user.min_rate_bps > 0.0) {
        return Err(CoreError::InvalidInstance(format!(
            "user {i} has invalid minimum rate {}",
            user.min_rate_bps
        )));
    }
    Ok(())
}

/// Reference all-pairs coverage scan for one (radio, location) pair:
/// the planar `d² ≤ r²` prefilter followed by the full admissibility
/// check, exactly what the indexed builder must reproduce.
fn coverable_bruteforce(
    atg: &AtgChannel,
    radio: &UavRadio,
    grid: &Grid,
    loc: CellIndex,
    users: &[User],
) -> Vec<u32> {
    let center = grid.cell_center(loc);
    let hover = grid.hover_position(loc);
    let range_sq = radio.user_range_m() * radio.user_range_m();
    let mut list = Vec::new();
    for (uid, user) in users.iter().enumerate() {
        if user.pos.distance_sq(center) > range_sq {
            continue;
        }
        if atg.can_serve(radio, hover, user.pos, user.min_rate_bps) {
            list.push(uid as u32);
        }
    }
    list
}

/// The builder's admissibility predicate, equal to
/// [`AtgChannel::can_serve`] for a user at squared planar distance
/// `d_sq` from `hover` (as [`Point2::distance_sq`] computes it, so
/// `d_sq.sqrt()` is bitwise `can_serve`'s range distance): the same
/// range test, then the radio's rate `floor`
/// ([`AtgChannel::rate_floor_bps`]), and the exact channel only for
/// demands above it.
fn admits(
    atg: &AtgChannel,
    radio: &UavRadio,
    floor: Option<f64>,
    hover: Point3,
    d_sq: f64,
    user: &User,
) -> bool {
    d_sq.sqrt() <= radio.user_range_m()
        && (floor.is_some_and(|f| user.min_rate_bps <= f)
            || atg.can_serve(radio, hover, user.pos, user.min_rate_bps))
}

/// Builder for [`Instance`]; see [`Instance::builder`].
#[derive(Debug, Clone)]
pub struct InstanceBuilder {
    grid: Grid,
    users: Vec<User>,
    uavs: Vec<Uav>,
    atg: AtgChannel,
    uav_channel: UavToUavChannel,
    gateway: Option<Point2>,
}

impl InstanceBuilder {
    /// Overrides the air-to-ground channel model.
    pub fn atg_channel(&mut self, atg: AtgChannel) -> &mut Self {
        self.atg = atg;
        self
    }

    /// Places the Internet gateway (emergency communication vehicle)
    /// at a ground position. When set, a valid deployment must keep at
    /// least one UAV within `R_uav` (3-D) of this point — the *gateway
    /// UAV* of Fig. 1.
    pub fn gateway(&mut self, pos: Point2) -> &mut Self {
        self.gateway = Some(pos);
        self
    }

    /// Adds a user at `pos` with minimum rate `min_rate_bps`.
    pub fn add_user(&mut self, pos: Point2, min_rate_bps: f64) -> &mut Self {
        self.users.push(User { pos, min_rate_bps });
        self
    }

    /// Adds every user from an iterator.
    pub fn users(&mut self, users: impl IntoIterator<Item = User>) -> &mut Self {
        self.users.extend(users);
        self
    }

    /// Adds a UAV with service capacity `capacity` and `radio`.
    pub fn add_uav(&mut self, capacity: u32, radio: UavRadio) -> &mut Self {
        self.uavs.push(Uav { capacity, radio });
        self
    }

    /// Adds every UAV from an iterator.
    pub fn uavs(&mut self, uavs: impl IntoIterator<Item = Uav>) -> &mut Self {
        self.uavs.extend(uavs);
        self
    }

    /// Validates and preprocesses the instance.
    ///
    /// The coverage tables come from one scan of a spatial index per
    /// (radio class, location), which visits only the users in the bins
    /// around the location. Each radio class gets its
    /// [`rate_floor_bps`](AtgChannel::rate_floor_bps) once: when the
    /// floor admits the highest minimum rate of all users (uniform
    /// voice-rate demand), every user the index returns is served and
    /// no user record or channel is consulted; otherwise an in-range
    /// user demanding at most the floor is served, and only higher
    /// demands evaluate [`AtgChannel::can_serve`]. Under
    /// `debug-validate` every list is checked against the exact
    /// all-pairs scan.
    ///
    /// A zone with **zero users** is a valid (degenerate) instance:
    /// every deployment serves nobody, but the solvers, validators and
    /// the solver loop's repair all degrade gracefully instead of
    /// erroring — a disaster zone can empty out mid-mission.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidInstance`] if there are no UAVs, a user lies
    /// outside the disaster zone, or a user has a non-positive minimum
    /// rate.
    pub fn build(&self) -> Result<Instance, CoreError> {
        if self.uavs.is_empty() {
            return Err(CoreError::InvalidInstance("fleet is empty".into()));
        }
        let area = self.grid.spec().area();
        for (i, user) in self.users.iter().enumerate() {
            check_user(&area, i, user)?;
        }
        if self.users.len() > u32::MAX as usize {
            return Err(CoreError::InvalidInstance(
                "more than u32::MAX users".into(),
            ));
        }

        let m = self.grid.num_cells();
        // Location graph: edges within R_uav (same altitude, so the
        // planar distance is the full distance).
        let mut location_graph = Graph::new(m);
        let range = self.uav_channel.range_m();
        for j in 0..m {
            let cj = self.grid.cell_center(j);
            for l in self.grid.cells_within(cj, range) {
                if l > j {
                    location_graph.add_edge(j, l);
                }
            }
        }

        // Distinct radio classes (bitwise-identical radios share one).
        let mut classes: Vec<UavRadio> = Vec::new();
        let mut radio_class = Vec::with_capacity(self.uavs.len());
        for uav in &self.uavs {
            let id = classes
                .iter()
                .position(|r| r == &uav.radio)
                .unwrap_or_else(|| {
                    classes.push(uav.radio);
                    classes.len() - 1
                });
            radio_class.push(id);
        }

        // Spatial index over user positions, binned by the coarsest
        // coverage radius: a per-class query then touches only the
        // bins overlapping that class's coverage disc, making the
        // tables O(users + hits) per location instead of all-pairs.
        let max_range = classes
            .iter()
            .map(|r| r.user_range_m())
            .fold(0.0_f64, f64::max);
        let user_index = SpatialIndex::build(self.users.iter().map(|u| u.pos), max_range);
        let max_rate = self
            .users
            .iter()
            .map(|u| u.min_rate_bps)
            .fold(0.0_f64, f64::max);
        let altitude = self.grid.spec().altitude_m();

        // Coverage tables per class and location, via the index. The
        // inclusive d² ≤ r² planar prefilter happens inside the index
        // scan; `admits` decides the survivors. When the class's rate
        // floor admits even the most demanding user, every survivor is
        // served (the prefilter implies `admits`' range test, since
        // √fl(R²) = R in binary floating point) and no user record is
        // read. Ids arrive as ascending per-bin runs, so each list is
        // merged back into ascending-uid order before encoding. Each
        // list is encoded into the compressed store as soon as it is
        // built — the uncompressed `Vec<Vec<u32>>` shape never
        // materializes; one scratch buffer is reused throughout.
        let mut coverage = CoverageTables::with_shape(classes.len(), m);
        let mut list: Vec<u32> = Vec::new();
        let (atg, users) = (&self.atg, &self.users);
        for radio in &classes {
            let range = radio.user_range_m();
            let floor = atg.rate_floor_bps(radio, altitude);
            let all_served = floor.is_some_and(|f| max_rate <= f);
            for loc in 0..m {
                let center = self.grid.cell_center(loc);
                let hover = self.grid.hover_position(loc);
                list.clear();
                user_index.for_each_within(center, range, |uid, d_sq| {
                    if all_served || admits(atg, radio, floor, hover, d_sq, &users[uid as usize]) {
                        list.push(uid);
                    }
                });
                list.sort();
                #[cfg(feature = "debug-validate")]
                {
                    let brute = coverable_bruteforce(atg, radio, &self.grid, loc, users);
                    assert_eq!(
                        list, brute,
                        "debug-validate: spatial coverage table diverges at loc {loc}"
                    );
                }
                // `push_list` re-decodes the encoded list under
                // `debug-validate`, closing the compression oracle.
                coverage.push_list(&list);
            }
        }
        let coverage = coverage.finish();

        let best_coverage: Vec<usize> = (0..m)
            .map(|loc| {
                (0..classes.len())
                    .map(|class| coverage.count(class, loc))
                    .max()
                    .unwrap_or(0)
            })
            .collect();

        let mut uavs_by_capacity: Vec<usize> = (0..self.uavs.len()).collect();
        uavs_by_capacity.sort_by_key(|&k| (std::cmp::Reverse(self.uavs[k].capacity), k));

        let gateway_cells: Vec<bool> = match self.gateway {
            Some(pos) => {
                let ground = pos.at_altitude(0.0);
                (0..m)
                    .map(|loc| {
                        self.grid.hover_position(loc).distance(ground) <= self.uav_channel.range_m()
                    })
                    .collect()
            }
            None => vec![false; m],
        };

        Ok(Instance {
            grid: self.grid.clone(),
            users: self.users.clone(),
            uavs: self.uavs.clone(),
            atg: self.atg,
            uav_channel: self.uav_channel,
            location_graph,
            radio_class,
            coverage,
            best_coverage,
            uavs_by_capacity,
            gateway: self.gateway,
            gateway_cells,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uavnet_geom::{AreaSpec, GridSpec};

    fn grid_900(cell: f64) -> Grid {
        GridSpec::new(AreaSpec::new(900.0, 900.0, 500.0).unwrap(), cell, 300.0)
            .unwrap()
            .build()
    }

    fn radio() -> UavRadio {
        UavRadio::new(30.0, 5.0, 500.0)
    }

    #[test]
    fn build_small_instance() {
        let mut b = Instance::builder(grid_900(300.0), 600.0);
        b.add_user(Point2::new(450.0, 450.0), 2_000.0);
        b.add_uav(10, radio());
        let inst = b.build().unwrap();
        assert_eq!(inst.num_users(), 1);
        assert_eq!(inst.num_uavs(), 1);
        assert_eq!(inst.num_locations(), 9);
    }

    #[test]
    fn rejects_empty_fleet_but_allows_zero_users() {
        let b = Instance::builder(grid_900(300.0), 600.0);
        assert!(matches!(b.build(), Err(CoreError::InvalidInstance(_))));
        let mut b = Instance::builder(grid_900(300.0), 600.0);
        b.add_user(Point2::new(1.0, 1.0), 2_000.0);
        assert!(b.build().is_err()); // users but no fleet
                                     // A fleet over an evacuated zone is a valid degenerate instance.
        let mut b = Instance::builder(grid_900(300.0), 600.0);
        b.add_uav(10, radio());
        let inst = b.build().unwrap();
        assert_eq!(inst.num_users(), 0);
        for loc in 0..inst.num_locations() {
            assert_eq!(inst.coverage_count(0, loc), 0);
        }
    }

    #[test]
    fn severed_links_disappear_from_the_graph() {
        let mut b = Instance::builder(grid_900(300.0), 350.0);
        b.add_user(Point2::new(450.0, 450.0), 2_000.0);
        b.add_uav(10, radio());
        let inst = b.build().unwrap();
        assert!(inst.location_graph().has_edge(0, 1));
        let degraded = inst.with_severed_links(&[(1, 0), (4, 5)]).unwrap();
        assert!(!degraded.location_graph().has_edge(0, 1));
        assert!(!degraded.location_graph().has_edge(4, 5));
        assert!(degraded.location_graph().has_edge(1, 2)); // untouched
        assert_eq!(degraded.num_users(), 1);
        // Out-of-range pairs are rejected, not panicked on.
        assert!(matches!(
            inst.with_severed_links(&[(0, 99)]),
            Err(CoreError::InvalidParameters(_))
        ));
    }

    #[test]
    fn extra_users_extend_coverage_tables() {
        let mut b = Instance::builder(grid_900(300.0), 600.0);
        b.add_user(Point2::new(150.0, 150.0), 2_000.0);
        b.add_uav(10, radio());
        let inst = b.build().unwrap();
        let surged = inst
            .with_extra_users(&[User {
                pos: Point2::new(160.0, 150.0),
                min_rate_bps: 2_000.0,
            }])
            .unwrap();
        assert_eq!(surged.num_users(), 2);
        assert_eq!(surged.coverable(0, 0).to_vec(), vec![0, 1]);
        // Invalid extras are typed errors.
        assert!(surged
            .with_extra_users(&[User {
                pos: Point2::new(-5.0, 0.0),
                min_rate_bps: 2_000.0,
            }])
            .is_err());
        // A severed graph survives the surge rebuild.
        let degraded = inst.with_severed_links(&[(0, 1)]).unwrap();
        let both = degraded
            .with_extra_users(&[User {
                pos: Point2::new(450.0, 450.0),
                min_rate_bps: 2_000.0,
            }])
            .unwrap();
        assert!(!both.location_graph().has_edge(0, 1));
    }

    #[test]
    fn rejects_user_outside_zone() {
        let mut b = Instance::builder(grid_900(300.0), 600.0);
        b.add_user(Point2::new(1_000.0, 0.0), 2_000.0);
        b.add_uav(10, radio());
        let err = b.build().unwrap_err();
        assert!(err.to_string().contains("outside"));
    }

    #[test]
    fn rejects_invalid_min_rate() {
        let mut b = Instance::builder(grid_900(300.0), 600.0);
        b.add_user(Point2::new(10.0, 10.0), 0.0);
        b.add_uav(10, radio());
        assert!(b.build().is_err());
    }

    #[test]
    fn location_graph_edges_respect_range() {
        // 3×3 grid of 300 m cells: horizontal neighbors are 300 m
        // apart, diagonal ≈ 424 m; R_uav = 350 m joins only the
        // orthogonal neighbors.
        let mut b = Instance::builder(grid_900(300.0), 350.0);
        b.add_user(Point2::new(450.0, 450.0), 2_000.0);
        b.add_uav(10, radio());
        let inst = b.build().unwrap();
        let g = inst.location_graph();
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(0, 4)); // diagonal
                                    // Each interior node has exactly 4 neighbors.
        assert_eq!(g.degree(4), 4);
    }

    #[test]
    fn coverage_respects_radius_and_rate() {
        let grid = grid_900(300.0);
        let mut b = Instance::builder(grid, 600.0);
        // User near cell 0's center and another far away.
        b.add_user(Point2::new(150.0, 150.0), 2_000.0);
        b.add_user(Point2::new(850.0, 850.0), 2_000.0);
        b.add_uav(10, UavRadio::new(30.0, 5.0, 200.0));
        let inst = b.build().unwrap();
        assert_eq!(inst.coverable(0, 0).to_vec(), vec![0]);
        assert_eq!(inst.coverage_count(0, 8), 1);
        // The middle cell (center 450,450) reaches neither with a
        // 200 m radius.
        assert_eq!(inst.coverage_count(0, 4), 0);
    }

    #[test]
    fn impossible_rate_excludes_user() {
        let mut b = Instance::builder(grid_900(300.0), 600.0);
        b.add_user(Point2::new(150.0, 150.0), 1e15); // absurd requirement
        b.add_uav(10, radio());
        let inst = b.build().unwrap();
        for loc in 0..inst.num_locations() {
            assert_eq!(inst.coverage_count(0, loc), 0);
        }
    }

    #[test]
    fn radio_classes_are_shared() {
        let mut b = Instance::builder(grid_900(300.0), 600.0);
        b.add_user(Point2::new(150.0, 150.0), 2_000.0);
        // Three UAVs, two distinct radios.
        b.add_uav(10, radio());
        b.add_uav(20, radio());
        b.add_uav(30, UavRadio::new(28.0, 4.0, 350.0));
        let inst = b.build().unwrap();
        assert_eq!(inst.radio_class[0], inst.radio_class[1]);
        assert_ne!(inst.radio_class[0], inst.radio_class[2]);
        assert_eq!(inst.coverage.num_classes(), 2);
    }

    #[test]
    fn capacity_order_is_descending_with_stable_ties() {
        let mut b = Instance::builder(grid_900(300.0), 600.0);
        b.add_user(Point2::new(150.0, 150.0), 2_000.0);
        b.add_uav(10, radio());
        b.add_uav(30, radio());
        b.add_uav(10, radio());
        b.add_uav(20, radio());
        let inst = b.build().unwrap();
        assert_eq!(inst.uavs_by_capacity(), &[1, 3, 0, 2]);
    }

    #[test]
    fn indexed_coverage_matches_bruteforce() {
        // Two radio classes with very different radii over a scattered
        // population: the spatial-index build must reproduce the
        // reference scan exactly, per class and location.
        let mut b = Instance::builder(grid_900(300.0), 600.0);
        let mut state = 0xc0ffee_u64;
        for _ in 0..80 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let x = (state >> 33) as f64 % 900.0;
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let y = (state >> 33) as f64 % 900.0;
            b.add_user(Point2::new(x, y), 2_000.0);
        }
        b.add_uav(10, UavRadio::new(30.0, 5.0, 150.0));
        b.add_uav(10, radio()); // 500 m class
        let inst = b.build().unwrap();
        let brute = inst.coverage_tables_bruteforce();
        let tables = inst.coverage_tables();
        assert_eq!(tables, brute);
        // Every list is sorted and deduplicated.
        for per_loc in &tables {
            for list in per_loc {
                assert!(list.windows(2).all(|w| w[0] < w[1]));
            }
        }
        // The compression must never cost more than the naive layout.
        let mem = inst.coverage_memory();
        assert!(mem.compressed_bytes <= mem.uncompressed_bytes + 24 * mem.lists);
        assert_eq!(mem.lists, mem.ids_lists + mem.bitset_lists);
    }

    #[test]
    fn best_coverage_count_takes_max_over_classes() {
        let mut b = Instance::builder(grid_900(300.0), 600.0);
        b.add_user(Point2::new(150.0, 150.0), 2_000.0);
        b.add_user(Point2::new(450.0, 150.0), 2_000.0);
        b.add_uav(10, UavRadio::new(30.0, 5.0, 100.0)); // tiny radius
        b.add_uav(10, radio()); // big radius
        let inst = b.build().unwrap();
        assert_eq!(inst.best_coverage_count(0), 2);
    }
}
