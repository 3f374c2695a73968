//! The coverage marginal-gain oracle driving the greedy of Algorithm 2.

use crate::Instance;
use uavnet_flow::{CapacitatedMatching, MatchingCounts};
use uavnet_geom::CellIndex;
use uavnet_matroid::MarginalOracle;

/// A [`MarginalOracle`] over candidate locations: the `k`-th committed
/// location receives the `k`-th UAV of the capacity-sorted fleet, and
/// the marginal gain of a location is the *exact* increase of the
/// optimal assignment (`n_{k,l} − n_{k−1}` in Algorithm 2), computed by
/// trial insertion into the incremental matching.
///
/// Because the fleet is processed in non-increasing capacity order and
/// the assignment value is submodular in the station set, earlier gain
/// evaluations upper-bound later ones — exactly the contract the lazy
/// greedy requires.
///
/// The oracle is designed for *workspace reuse*: [`reset`](Self::reset)
/// rolls it back to the no-UAV state while keeping the matching's
/// internal buffers allocated, so a sweep that evaluates thousands of
/// seed subsets against the same instance pays for its scratch memory
/// once, and each reset costs the users the committed locations serve,
/// not the user count nor their coverable lists. Gain queries
/// themselves are allocation-free trial insertions into the incremental
/// matching.
///
/// # Examples
///
/// ```
/// # use uavnet_core::{CoverageOracle, Instance};
/// # use uavnet_channel::UavRadio;
/// # use uavnet_geom::{AreaSpec, GridSpec, Point2};
/// # use uavnet_matroid::MarginalOracle;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// # let grid = GridSpec::new(AreaSpec::new(600.0, 600.0, 500.0)?, 300.0, 300.0)?.build();
/// # let mut b = Instance::builder(grid, 600.0);
/// # b.add_user(Point2::new(150.0, 150.0), 2_000.0);
/// # b.add_uav(5, UavRadio::new(30.0, 5.0, 500.0));
/// # let instance = b.build()?;
/// let mut oracle = CoverageOracle::new(&instance);
/// assert_eq!(oracle.gain(0), 1); // the first UAV would serve the user
/// oracle.commit(0);
/// assert_eq!(oracle.served(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CoverageOracle<'a> {
    instance: &'a Instance,
    matching: CapacitatedMatching,
    placements: Vec<(usize, CellIndex)>,
    gain_queries: u64,
}

impl<'a> CoverageOracle<'a> {
    /// Creates an oracle with no UAV committed yet.
    pub fn new(instance: &'a Instance) -> Self {
        CoverageOracle {
            instance,
            matching: CapacitatedMatching::new(instance.num_users()),
            placements: Vec::new(),
            gain_queries: 0,
        }
    }

    /// Rolls the oracle back to the no-UAV state, keeping the
    /// matching's scratch buffers (and the cumulative query counter) so
    /// the next run allocates nothing. Costs the served users, not the
    /// user count ([`CapacitatedMatching::reset`]).
    pub fn reset(&mut self) {
        self.matching.reset();
        self.placements.clear();
    }

    /// Cumulative number of [`gain`](MarginalOracle::gain) queries
    /// served over the oracle's lifetime (*not* cleared by
    /// [`reset`](Self::reset)) — the sweep's throughput denominator.
    pub fn gain_queries(&self) -> u64 {
        self.gain_queries
    }

    /// The matching kernel's work over the oracle's lifetime (kept by
    /// [`reset`](Self::reset), like [`gain_queries`](Self::gain_queries)).
    pub(crate) fn matching_counts(&self) -> MatchingCounts {
        self.matching.counts()
    }

    /// The UAV that the next commit will deploy, or `None` when the
    /// whole fleet is placed.
    pub fn next_uav(&self) -> Option<usize> {
        self.instance
            .uavs_by_capacity()
            .get(self.placements.len())
            .copied()
    }

    /// `(uav, location)` pairs committed so far, in commit order.
    pub fn placements(&self) -> &[(usize, CellIndex)] {
        &self.placements
    }

    /// Users served by the committed placements (kept maximum after
    /// every commit).
    pub fn served(&self) -> usize {
        self.matching.matched_count()
    }

    /// [`gain`](MarginalOracle::gain) without counting: no gain query,
    /// no matching work and no latency sample. The sweep re-derives its
    /// gain memo's answers with it, so a validating build reports the
    /// same statistics as a plain one.
    #[cfg(feature = "debug-validate")]
    pub(crate) fn gain_uncounted(&mut self, loc: CellIndex) -> u64 {
        let uav = self
            .next_uav()
            .expect("gain queried with the whole fleet already placed");
        let cap = self.instance.uavs()[uav].capacity;
        let users = self.instance.coverable(uav, loc);
        u64::from(self.matching.evaluate_station_list_uncounted(cap, users))
    }
}

impl MarginalOracle for CoverageOracle<'_> {
    fn gain(&mut self, loc: usize) -> u64 {
        let uav = self
            .next_uav()
            .expect("gain queried with the whole fleet already placed");
        self.gain_queries += 1;
        let _timer = uavnet_obs::hists::GAIN_QUERY.timer();
        let cap = self.instance.uavs()[uav].capacity;
        let users = self.instance.coverable(uav, loc);
        u64::from(self.matching.evaluate_station_list(cap, users))
    }

    fn commit(&mut self, loc: usize) {
        let uav = self
            .next_uav()
            .expect("commit called with the whole fleet already placed");
        let cap = self.instance.uavs()[uav].capacity;
        let users = self.instance.coverable(uav, loc);
        let st = self.matching.add_station_list(cap, users);
        self.matching.saturate(st);
        self.placements.push((uav, loc));
    }

    fn gain_upper_bound(&self, loc: usize) -> u64 {
        // Admissible for any matching state: a station can serve at
        // most its capacity and at most the users it can reach. Exact
        // on an empty matching, so the first pick of every subset costs
        // only the top-tie evaluations instead of a full ground scan.
        match self.next_uav() {
            Some(uav) => {
                let cap = u64::from(self.instance.uavs()[uav].capacity);
                cap.min(self.instance.coverage_count(uav, loc) as u64)
            }
            None => 0,
        }
    }

    fn bounds_carry_over(&self, prev: usize, next: usize) -> bool {
        // Capacities are non-increasing along `uavs_by_capacity`, so
        // bounds carry exactly when the radio (hence the coverable-user
        // sets) stays the same.
        let order = self.instance.uavs_by_capacity();
        match (order.get(prev), order.get(next)) {
            (Some(&a), Some(&b)) => self.instance.radio_class(a) == self.instance.radio_class(b),
            _ => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assign_users;
    use uavnet_channel::UavRadio;
    use uavnet_geom::{AreaSpec, GridSpec, Point2};

    fn instance() -> Instance {
        let grid = GridSpec::new(AreaSpec::new(900.0, 900.0, 500.0).unwrap(), 300.0, 300.0)
            .unwrap()
            .build();
        let mut b = Instance::builder(grid, 600.0);
        // Cluster of 3 users near cell 0 and 2 near cell 8.
        b.add_user(Point2::new(140.0, 150.0), 2_000.0);
        b.add_user(Point2::new(150.0, 140.0), 2_000.0);
        b.add_user(Point2::new(160.0, 150.0), 2_000.0);
        b.add_user(Point2::new(750.0, 740.0), 2_000.0);
        b.add_user(Point2::new(740.0, 750.0), 2_000.0);
        b.add_uav(2, UavRadio::new(30.0, 5.0, 300.0));
        b.add_uav(4, UavRadio::new(30.0, 5.0, 300.0));
        b.build().unwrap()
    }

    #[test]
    fn capacity_order_drives_commits() {
        let inst = instance();
        let mut o = CoverageOracle::new(&inst);
        // First commit uses UAV 1 (capacity 4).
        assert_eq!(o.next_uav(), Some(1));
        o.commit(0);
        assert_eq!(o.next_uav(), Some(0));
        assert_eq!(o.placements(), &[(1, 0)]);
        assert_eq!(o.served(), 3);
        o.commit(8);
        assert_eq!(o.served(), 5);
        assert_eq!(o.next_uav(), None);
    }

    #[test]
    fn gain_matches_commit_effect() {
        let inst = instance();
        let mut o = CoverageOracle::new(&inst);
        let g0 = o.gain(0);
        let before = o.served();
        o.commit(0);
        assert_eq!(o.served() - before, g0 as usize);
        let g8 = o.gain(8);
        let before = o.served();
        o.commit(8);
        assert_eq!(o.served() - before, g8 as usize);
    }

    #[test]
    fn gain_is_capped_by_capacity() {
        let inst = instance();
        let mut o = CoverageOracle::new(&inst);
        // First UAV has capacity 4 ≥ 3 users near cell 0.
        assert_eq!(o.gain(0), 3);
        o.commit(0);
        // Second UAV (capacity 2) at cell 8 serves the 2 remaining.
        assert_eq!(o.gain(8), 2);
        // Re-placing at cell 0 gains nothing (all covered there).
        assert_eq!(o.gain(0), 0);
    }

    #[test]
    fn served_agrees_with_fresh_optimal_assignment() {
        let inst = instance();
        let mut o = CoverageOracle::new(&inst);
        o.commit(4); // center: big UAV covers some of both clusters?
        o.commit(0);
        let fresh = assign_users(&inst, o.placements());
        assert_eq!(o.served(), fresh.served);
    }

    #[test]
    #[should_panic(expected = "fleet already placed")]
    fn commit_beyond_fleet_panics() {
        let inst = instance();
        let mut o = CoverageOracle::new(&inst);
        o.commit(0);
        o.commit(1);
        o.commit(2);
    }
}
