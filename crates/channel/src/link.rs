//! End-to-end link models: UAV radios, the air-to-ground channel, and the
//! UAV-to-UAV channel.

use crate::{
    elevation_angle_deg, free_space_pathloss_db, los_probability, shannon_rate_bps, snr_db,
    snr_linear_from_db, ChannelParams,
};
use uavnet_geom::{Point2, Point3};

/// The base-station radio mounted on a UAV: transmit power, antenna gain,
/// and the nominal user coverage radius `R_user^k`.
///
/// Heterogeneity across the fleet (the paper's core premise) shows up
/// here: a DJI Matrice 600-class UAV carries a stronger radio (larger
/// `R_user`, higher power) than a Matrice 300-class UAV.
///
/// # Examples
///
/// ```
/// use uavnet_channel::UavRadio;
/// let strong = UavRadio::new(33.0, 6.0, 500.0);
/// let weak = UavRadio::new(27.0, 3.0, 350.0);
/// assert!(strong.user_range_m() > weak.user_range_m());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UavRadio {
    tx_power_dbm: f64,
    antenna_gain_dbi: f64,
    user_range_m: f64,
}

impl UavRadio {
    /// Creates a radio with transmit power `P_t` (dBm), antenna gain
    /// `g_t` (dBi) and user coverage radius `R_user` (m, measured as a
    /// *planar* ground distance per §II-B).
    ///
    /// # Panics
    ///
    /// Panics if `user_range_m` is not strictly positive and finite.
    pub fn new(tx_power_dbm: f64, antenna_gain_dbi: f64, user_range_m: f64) -> Self {
        assert!(
            user_range_m.is_finite() && user_range_m > 0.0,
            "user range must be positive, got {user_range_m}"
        );
        UavRadio {
            tx_power_dbm,
            antenna_gain_dbi,
            user_range_m,
        }
    }

    /// Transmit power `P_t` in dBm.
    #[inline]
    pub fn tx_power_dbm(&self) -> f64 {
        self.tx_power_dbm
    }

    /// Antenna gain `g_t` in dBi.
    #[inline]
    pub fn antenna_gain_dbi(&self) -> f64 {
        self.antenna_gain_dbi
    }

    /// Planar user coverage radius `R_user` in meters.
    #[inline]
    pub fn user_range_m(&self) -> f64 {
        self.user_range_m
    }
}

/// Relative widening of [`AtgChannel::rate_floor_bps`], applied to
/// the linear SNR and again to the rate. It is far above the rounding
/// of a link budget (~1e-13 relative), so it covers the gap between
/// the ideal monotone rate curve and the computed one.
const FLOOR_MARGIN: f64 = 1e-9;

/// The air-to-ground channel of §II-B, combining LoS probability and
/// excess losses into a mean pathloss, SNR and data rate.
///
/// Admissibility ([`can_serve`](Self::can_serve)) is the exact test.
/// Coverage-table builders call it only for demands above a radio's
/// [`rate_floor_bps`](Self::rate_floor_bps), which with uniform
/// voice-rate demand is nowhere.
///
/// # Examples
///
/// ```
/// use uavnet_channel::{AtgChannel, ChannelParams, UavRadio};
/// use uavnet_geom::{Point2, Point3};
///
/// let ch = AtgChannel::new(ChannelParams::default());
/// let radio = UavRadio::new(30.0, 5.0, 500.0);
/// let uav = Point3::new(500.0, 500.0, 300.0);
/// let near = Point2::new(520.0, 500.0);
/// let far = Point2::new(980.0, 500.0);
/// assert!(ch.data_rate_bps(&radio, uav, near) > ch.data_rate_bps(&radio, uav, far));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AtgChannel {
    params: ChannelParams,
}

impl AtgChannel {
    /// Creates a channel from its parameters.
    pub fn new(params: ChannelParams) -> Self {
        AtgChannel { params }
    }

    /// The parameters in effect.
    #[inline]
    pub fn params(&self) -> &ChannelParams {
        &self.params
    }

    /// Mean pathloss `PL_{i,j}` (dB) between a UAV at `uav` and a ground
    /// user at `user` (on the `z = 0` plane):
    /// `P_LoS·L_LoS + (1−P_LoS)·L_NLoS`.
    pub fn mean_pathloss_db(&self, uav: Point3, user: Point2) -> f64 {
        let ground = user.at_altitude(0.0);
        let slant = uav.distance(ground);
        let horizontal = uav.horizontal_distance(ground);
        let theta = elevation_angle_deg(horizontal, uav.z);
        let p_los = los_probability(theta, self.params.s_curve_a(), self.params.s_curve_b());
        let fspl = free_space_pathloss_db(slant, self.params.carrier_hz());
        let l_los = fspl + self.params.eta_los_db();
        let l_nlos = fspl + self.params.eta_nlos_db();
        p_los * l_los + (1.0 - p_los) * l_nlos
    }

    /// Received SNR (dB) at `user` from a UAV with `radio` hovering at
    /// `uav`.
    pub fn snr_db(&self, radio: &UavRadio, uav: Point3, user: Point2) -> f64 {
        snr_db(
            radio.tx_power_dbm(),
            radio.antenna_gain_dbi(),
            self.mean_pathloss_db(uav, user),
            self.params.noise_dbm(),
        )
    }

    /// Achievable Shannon rate (bit/s) for `user` over the per-user
    /// sub-band `B_w`.
    pub fn data_rate_bps(&self, radio: &UavRadio, uav: Point3, user: Point2) -> f64 {
        let snr = snr_linear_from_db(self.snr_db(radio, uav, user));
        shannon_rate_bps(self.params.bandwidth_hz(), snr)
    }

    /// Whether `user` can be *served* by a UAV with `radio` at `uav`:
    /// within the planar coverage radius **and** achieving at least
    /// `min_rate_bps`.
    ///
    /// This is the admissibility predicate of constraint (i) in the
    /// problem definition (§II-C).
    pub fn can_serve(
        &self,
        radio: &UavRadio,
        uav: Point3,
        user: Point2,
        min_rate_bps: f64,
    ) -> bool {
        let horizontal = uav.to_plane().distance(user);
        if horizontal > radio.user_range_m() {
            return false;
        }
        self.data_rate_bps(radio, uav, user) >= min_rate_bps
    }

    /// A lower bound on the rate a UAV with `radio` hovering at
    /// `altitude_m` offers anywhere within its coverage radius
    /// `R_user`: the rate at ground distance `R_user`, widened down by
    /// a relative margin of 1e-9 (applied to the SNR before the
    /// Shannon map, whose `1 + SNR` rounding quantizes low rates
    /// coarsely, and again to the rate). An in-range user demanding at
    /// most this much is served without evaluating the channel.
    ///
    /// That the rate at `R_user` bounds the disc rests on the rate
    /// falling with ground distance. It does when NLoS loses at least
    /// as much as LoS, both S-curve constants are non-negative and the
    /// UAV is not below ground (then the LoS probability falls with
    /// distance, and the free-space loss rises). Otherwise, or if the
    /// floor is not finite, this is `None` and every verdict is left
    /// to [`can_serve`](Self::can_serve).
    ///
    /// # Examples
    ///
    /// ```
    /// use uavnet_channel::{AtgChannel, UavRadio};
    /// use uavnet_geom::{Point2, Point3};
    ///
    /// let ch = AtgChannel::default();
    /// let radio = UavRadio::new(30.0, 5.0, 500.0);
    /// let floor = ch.rate_floor_bps(&radio, 300.0).unwrap();
    /// assert!(2_000.0 <= floor); // a voice call is served anywhere in range
    /// let uav = Point3::new(0.0, 0.0, 300.0);
    /// assert!(floor < ch.data_rate_bps(&radio, uav, Point2::new(500.0, 0.0)));
    /// ```
    pub fn rate_floor_bps(&self, radio: &UavRadio, altitude_m: f64) -> Option<f64> {
        let p = &self.params;
        let monotone = p.eta_nlos_db() >= p.eta_los_db()
            && p.s_curve_a() >= 0.0
            && p.s_curve_b() >= 0.0
            && altitude_m >= 0.0;
        let uav = Point3::new(0.0, 0.0, altitude_m);
        let edge = Point2::new(radio.user_range_m(), 0.0);
        let widen = 1.0 - FLOOR_MARGIN;
        let snr = snr_linear_from_db(self.snr_db(radio, uav, edge));
        let floor = shannon_rate_bps(p.bandwidth_hz(), snr * widen) * widen;
        (monotone && floor.is_finite()).then_some(floor)
    }
}

impl Default for AtgChannel {
    fn default() -> Self {
        AtgChannel::new(ChannelParams::default())
    }
}

/// The UAV-to-UAV channel: free-space propagation plus a hard
/// communication range `R_uav` (§II-B).
///
/// # Examples
///
/// ```
/// use uavnet_channel::UavToUavChannel;
/// use uavnet_geom::Point3;
///
/// let ch = UavToUavChannel::new(600.0);
/// let a = Point3::new(0.0, 0.0, 300.0);
/// let b = Point3::new(500.0, 0.0, 300.0);
/// let c = Point3::new(700.0, 0.0, 300.0);
/// assert!(ch.connected(a, b));
/// assert!(!ch.connected(a, c));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UavToUavChannel {
    range_m: f64,
}

impl UavToUavChannel {
    /// Creates the channel with communication range `R_uav` meters.
    ///
    /// # Panics
    ///
    /// Panics if `range_m` is not strictly positive and finite.
    pub fn new(range_m: f64) -> Self {
        assert!(
            range_m.is_finite() && range_m > 0.0,
            "UAV range must be positive, got {range_m}"
        );
        UavToUavChannel { range_m }
    }

    /// Communication range `R_uav` in meters.
    #[inline]
    pub fn range_m(&self) -> f64 {
        self.range_m
    }

    /// Whether two hovering UAVs can communicate directly.
    #[inline]
    pub fn connected(&self, a: Point3, b: Point3) -> bool {
        a.distance_sq(b) <= self.range_m * self.range_m
    }

    /// Free-space pathloss between two UAVs at `carrier_hz`.
    pub fn pathloss_db(&self, a: Point3, b: Point3, carrier_hz: f64) -> f64 {
        free_space_pathloss_db(a.distance(b), carrier_hz)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn urban() -> AtgChannel {
        AtgChannel::default()
    }

    #[test]
    fn pathloss_grows_with_horizontal_distance() {
        let ch = urban();
        let uav = Point3::new(0.0, 0.0, 300.0);
        let mut last = 0.0;
        for d in [0.0, 100.0, 300.0, 600.0, 1_500.0] {
            let pl = ch.mean_pathloss_db(uav, Point2::new(d, 0.0));
            assert!(pl > last, "d={d}: {pl} vs {last}");
            last = pl;
        }
    }

    #[test]
    fn pathloss_between_los_and_nlos_bounds() {
        let ch = urban();
        let uav = Point3::new(0.0, 0.0, 300.0);
        let user = Point2::new(400.0, 0.0);
        let pl = ch.mean_pathloss_db(uav, user);
        let slant = uav.distance(user.at_altitude(0.0));
        let fspl = free_space_pathloss_db(slant, ch.params().carrier_hz());
        assert!(pl >= fspl + ch.params().eta_los_db());
        assert!(pl <= fspl + ch.params().eta_nlos_db());
    }

    #[test]
    fn overhead_user_is_nearly_pure_los() {
        let ch = urban();
        let uav = Point3::new(0.0, 0.0, 300.0);
        let pl = ch.mean_pathloss_db(uav, Point2::new(0.0, 0.0));
        let fspl = free_space_pathloss_db(300.0, ch.params().carrier_hz());
        // With P_LoS ≈ 1 the mean loss should sit within 0.5 dB of the
        // LoS loss.
        assert!((pl - (fspl + ch.params().eta_los_db())).abs() < 0.5);
    }

    #[test]
    fn rate_positive_at_typical_disaster_geometry() {
        // The paper's setting: H = 300 m, R_user = 500 m, 180 kHz band.
        let ch = urban();
        let radio = UavRadio::new(30.0, 5.0, 500.0);
        let uav = Point3::new(0.0, 0.0, 300.0);
        let edge_user = Point2::new(500.0, 0.0);
        let rate = ch.data_rate_bps(&radio, uav, edge_user);
        // Well above the 2 kbps voice floor of §II-A.
        assert!(rate > 2_000.0, "rate at cell edge = {rate}");
    }

    #[test]
    fn can_serve_enforces_radius() {
        let ch = urban();
        let radio = UavRadio::new(30.0, 5.0, 500.0);
        let uav = Point3::new(0.0, 0.0, 300.0);
        assert!(ch.can_serve(&radio, uav, Point2::new(499.0, 0.0), 2_000.0));
        assert!(!ch.can_serve(&radio, uav, Point2::new(501.0, 0.0), 2_000.0));
    }

    #[test]
    fn can_serve_enforces_rate() {
        let ch = urban();
        // A deliberately feeble radio: −40 dBm transmit power.
        let radio = UavRadio::new(-40.0, 0.0, 500.0);
        let uav = Point3::new(0.0, 0.0, 300.0);
        let user = Point2::new(400.0, 0.0);
        let rate = ch.data_rate_bps(&radio, uav, user);
        assert!(ch.can_serve(&radio, uav, user, rate * 0.9));
        assert!(!ch.can_serve(&radio, uav, user, rate * 1.1));
    }

    #[test]
    fn rate_floor_sits_just_below_the_edge_rate() {
        let ch = urban();
        let radio = UavRadio::new(30.0, 5.0, 500.0);
        let uav = Point3::new(0.0, 0.0, 300.0);
        let floor = ch.rate_floor_bps(&radio, 300.0).unwrap();
        let edge = ch.data_rate_bps(&radio, uav, Point2::new(500.0, 0.0));
        assert!(floor < edge && edge - floor < edge * 1e-8);
    }

    #[test]
    fn rate_floor_is_none_without_monotonicity() {
        let radio = UavRadio::new(30.0, 5.0, 500.0);
        let swapped = ChannelParams::builder().excess_loss_db(20.0, 1.0).build();
        let inverted = ChannelParams::builder().s_curve(9.61, -0.16).build();
        let negative_a = ChannelParams::builder().s_curve(-1.0, 0.16).build();
        for params in [swapped, inverted, negative_a] {
            let floor = AtgChannel::new(params).rate_floor_bps(&radio, 300.0);
            assert_eq!(floor, None, "{params:?}");
        }
        assert_eq!(urban().rate_floor_bps(&radio, -1.0), None);
        let blazing = UavRadio::new(f64::INFINITY, 0.0, 500.0);
        assert_eq!(urban().rate_floor_bps(&blazing, 300.0), None);
    }

    #[test]
    fn stronger_radio_gets_better_rate() {
        let ch = urban();
        let weak = UavRadio::new(27.0, 3.0, 350.0);
        let strong = UavRadio::new(33.0, 6.0, 500.0);
        let uav = Point3::new(0.0, 0.0, 300.0);
        let user = Point2::new(200.0, 100.0);
        assert!(ch.data_rate_bps(&strong, uav, user) > ch.data_rate_bps(&weak, uav, user));
    }

    #[test]
    fn uav_channel_range_is_sharp() {
        let ch = UavToUavChannel::new(600.0);
        let a = Point3::new(0.0, 0.0, 300.0);
        assert!(ch.connected(a, Point3::new(600.0, 0.0, 300.0)));
        assert!(!ch.connected(a, Point3::new(600.1, 0.0, 300.0)));
    }

    #[test]
    fn uav_channel_is_symmetric() {
        let ch = UavToUavChannel::new(600.0);
        let a = Point3::new(12.0, 40.0, 300.0);
        let b = Point3::new(520.0, 140.0, 300.0);
        assert_eq!(ch.connected(a, b), ch.connected(b, a));
        assert_eq!(ch.pathloss_db(a, b, 2.0e9), ch.pathloss_db(b, a, 2.0e9));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn radio_rejects_bad_range() {
        let _ = UavRadio::new(30.0, 5.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn uav_channel_rejects_bad_range() {
        let _ = UavToUavChannel::new(f64::NAN);
    }
}
