//! Heterogeneous fleet sampling.

use rand::Rng;
use uavnet_channel::UavRadio;
use uavnet_core::Uav;

/// How the fleet's radios relate to its capacities.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FleetStyle {
    /// Every UAV carries the same radio (the paper's evaluation:
    /// heterogeneous *capacities*, common `R_user`).
    CommonRadio,
    /// Radio strength scales with capacity: a UAV at the top of the
    /// capacity range gets the full coverage radius and transmit
    /// power; one at the bottom gets 70 % of the radius and −6 dB
    /// transmit power (Matrice 600- vs Matrice 300-class payloads).
    CapacityScaledRadio,
}

/// Samples `k` UAVs with capacities uniform in
/// `[capacity_min, capacity_max]`.
///
/// The base radio is `(tx_power_dbm, antenna_gain_dbi, user_range_m)`;
/// `style` decides whether weaker UAVs also carry weaker radios.
///
/// # Panics
///
/// Panics if `capacity_min > capacity_max` or `user_range_m ≤ 0`.
///
/// # Examples
///
/// ```
/// use uavnet_workload::{sample_fleet, FleetStyle};
/// use rand::SeedableRng;
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
/// let fleet = sample_fleet(&mut rng, 20, 50, 300, 30.0, 5.0, 500.0, FleetStyle::CommonRadio);
/// assert_eq!(fleet.len(), 20);
/// assert!(fleet.iter().all(|u| (50..=300).contains(&u.capacity)));
/// ```
#[allow(clippy::too_many_arguments)]
pub fn sample_fleet<R: Rng>(
    rng: &mut R,
    k: usize,
    capacity_min: u32,
    capacity_max: u32,
    tx_power_dbm: f64,
    antenna_gain_dbi: f64,
    user_range_m: f64,
    style: FleetStyle,
) -> Vec<Uav> {
    assert!(
        capacity_min <= capacity_max,
        "capacity range [{capacity_min}, {capacity_max}] is empty"
    );
    (0..k)
        .map(|_| {
            let capacity = rng.gen_range(capacity_min..=capacity_max);
            let radio = match style {
                FleetStyle::CommonRadio => {
                    UavRadio::new(tx_power_dbm, antenna_gain_dbi, user_range_m)
                }
                FleetStyle::CapacityScaledRadio => {
                    let rel = if capacity_max == capacity_min {
                        1.0
                    } else {
                        f64::from(capacity - capacity_min) / f64::from(capacity_max - capacity_min)
                    };
                    UavRadio::new(
                        tx_power_dbm - 6.0 * (1.0 - rel),
                        antenna_gain_dbi,
                        user_range_m * (0.7 + 0.3 * rel),
                    )
                }
            };
            Uav { capacity, radio }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn capacities_stay_in_range() {
        let mut rng = SmallRng::seed_from_u64(5);
        let fleet = sample_fleet(
            &mut rng,
            200,
            50,
            300,
            30.0,
            5.0,
            500.0,
            FleetStyle::CommonRadio,
        );
        assert!(fleet.iter().all(|u| (50..=300).contains(&u.capacity)));
        // Heterogeneity: with 200 draws the spread should be wide.
        let min = fleet.iter().map(|u| u.capacity).min().unwrap();
        let max = fleet.iter().map(|u| u.capacity).max().unwrap();
        assert!(max - min > 150, "spread {min}..{max} too narrow");
    }

    #[test]
    fn common_radio_is_identical() {
        let mut rng = SmallRng::seed_from_u64(5);
        let fleet = sample_fleet(
            &mut rng,
            10,
            50,
            300,
            30.0,
            5.0,
            500.0,
            FleetStyle::CommonRadio,
        );
        for u in &fleet {
            assert_eq!(u.radio, fleet[0].radio);
        }
    }

    #[test]
    fn scaled_radio_tracks_capacity() {
        let mut rng = SmallRng::seed_from_u64(5);
        let fleet = sample_fleet(
            &mut rng,
            50,
            50,
            300,
            30.0,
            5.0,
            500.0,
            FleetStyle::CapacityScaledRadio,
        );
        for u in &fleet {
            assert!(u.radio.user_range_m() >= 0.7 * 500.0 - 1e-9);
            assert!(u.radio.user_range_m() <= 500.0 + 1e-9);
        }
        let strongest = fleet.iter().max_by_key(|u| u.capacity).unwrap();
        let weakest = fleet.iter().min_by_key(|u| u.capacity).unwrap();
        assert!(strongest.radio.user_range_m() > weakest.radio.user_range_m());
        assert!(strongest.radio.tx_power_dbm() > weakest.radio.tx_power_dbm());
    }

    #[test]
    fn degenerate_capacity_range() {
        let mut rng = SmallRng::seed_from_u64(5);
        let fleet = sample_fleet(
            &mut rng,
            5,
            100,
            100,
            30.0,
            5.0,
            500.0,
            FleetStyle::CapacityScaledRadio,
        );
        assert!(fleet.iter().all(|u| u.capacity == 100));
        assert!(fleet
            .iter()
            .all(|u| (u.radio.user_range_m() - 500.0).abs() < 1e-9));
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn rejects_inverted_range() {
        let mut rng = SmallRng::seed_from_u64(5);
        let _ = sample_fleet(
            &mut rng,
            5,
            300,
            50,
            30.0,
            5.0,
            500.0,
            FleetStyle::CommonRadio,
        );
    }
}
