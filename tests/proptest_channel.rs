//! Property tests for the wireless channel models (§II-B).

use proptest::prelude::*;
use uavnet::channel::{
    coverage_radius_m, elevation_angle_deg, free_space_pathloss_db, los_probability,
    shannon_rate_bps, snr_linear_from_db, AtgChannel, ChannelParams, Environment, UavRadio,
};
use uavnet::geom::{Point2, Point3};

fn environments() -> impl Strategy<Value = Environment> {
    prop_oneof![
        Just(Environment::Suburban),
        Just(Environment::Urban),
        Just(Environment::DenseUrban),
        Just(Environment::Highrise),
    ]
}

proptest! {
    #[test]
    fn los_probability_stays_in_unit_interval(
        theta in 0.0f64..90.0,
        env in environments(),
    ) {
        let (a, b) = env.s_curve();
        let p = los_probability(theta, a, b);
        prop_assert!((0.0..=1.0).contains(&p));
    }

    #[test]
    fn los_probability_monotone_in_elevation(
        theta in 0.0f64..89.0,
        delta in 0.01f64..1.0,
        env in environments(),
    ) {
        let (a, b) = env.s_curve();
        prop_assert!(los_probability(theta + delta, a, b) >= los_probability(theta, a, b));
    }

    #[test]
    fn fspl_monotone_in_distance(
        d in 1.0f64..50_000.0,
        delta in 0.1f64..1_000.0,
        fc in 0.5e9f64..6.0e9,
    ) {
        prop_assert!(free_space_pathloss_db(d + delta, fc) > free_space_pathloss_db(d, fc));
    }

    #[test]
    fn mean_pathloss_monotone_in_ground_distance(
        d in 0.0f64..5_000.0,
        delta in 1.0f64..500.0,
        altitude in 50.0f64..1_000.0,
        env in environments(),
    ) {
        let params = ChannelParams::builder().environment(env).build();
        let ch = AtgChannel::new(params);
        let uav = Point3::new(0.0, 0.0, altitude);
        let near = ch.mean_pathloss_db(uav, Point2::new(d, 0.0));
        let far = ch.mean_pathloss_db(uav, Point2::new(d + delta, 0.0));
        prop_assert!(far >= near - 1e-9, "PL({d}) = {near} > PL({}) = {far}", d + delta);
    }

    #[test]
    fn rate_decreases_with_distance_and_is_positive(
        d in 0.0f64..3_000.0,
        delta in 1.0f64..500.0,
        altitude in 100.0f64..800.0,
    ) {
        let ch = AtgChannel::default();
        let radio = UavRadio::new(30.0, 5.0, 10_000.0);
        let uav = Point3::new(0.0, 0.0, altitude);
        let near = ch.data_rate_bps(&radio, uav, Point2::new(d, 0.0));
        let far = ch.data_rate_bps(&radio, uav, Point2::new(d + delta, 0.0));
        prop_assert!(near >= far - 1e-9);
        prop_assert!(far > 0.0);
    }

    #[test]
    fn coverage_radius_consistent_with_pathloss(
        budget in 90.0f64..130.0,
        altitude in 100.0f64..600.0,
    ) {
        let params = ChannelParams::default();
        let r = coverage_radius_m(&params, budget, altitude);
        prop_assume!(r > 0.0 && r < 0.9e6);
        let ch = AtgChannel::new(params);
        let uav = Point3::new(0.0, 0.0, altitude);
        // Just inside the radius the budget holds; just outside it fails.
        let inside = ch.mean_pathloss_db(uav, Point2::new((r - 1.0).max(0.0), 0.0));
        let outside = ch.mean_pathloss_db(uav, Point2::new(r + 1.0, 0.0));
        prop_assert!(inside <= budget + 0.01);
        prop_assert!(outside >= budget - 0.01);
    }

    #[test]
    fn elevation_angle_bounds(h in 0.0f64..10_000.0, alt in 1.0f64..2_000.0) {
        let e = elevation_angle_deg(h, alt);
        prop_assert!((0.0..=90.0).contains(&e));
    }

    #[test]
    fn snr_and_rate_roundtrip_sanity(snr_db in -50.0f64..80.0) {
        let lin = snr_linear_from_db(snr_db);
        prop_assert!(lin > 0.0);
        let rate = shannon_rate_bps(180e3, lin);
        prop_assert!(rate >= 0.0);
        // 3 dB more SNR never lowers the rate.
        let rate_up = shannon_rate_bps(180e3, snr_linear_from_db(snr_db + 3.0));
        prop_assert!(rate_up > rate);
    }

    #[test]
    fn can_serve_is_consistent_with_its_parts(
        x in -600.0f64..600.0,
        y in -600.0f64..600.0,
        range in 100.0f64..800.0,
        min_rate in 1_000.0f64..1e6,
    ) {
        let ch = AtgChannel::default();
        let radio = UavRadio::new(30.0, 5.0, range);
        let uav = Point3::new(0.0, 0.0, 300.0);
        let user = Point2::new(x, y);
        let served = ch.can_serve(&radio, uav, user, min_rate);
        let in_range = user.distance(Point2::ORIGIN) <= range;
        let rate_ok = ch.data_rate_bps(&radio, uav, user) >= min_rate;
        prop_assert_eq!(served, in_range && rate_ok);
    }
}

prop_compose! {
    /// Channel parameters of one of the four environments, as is or
    /// with a shape under which the rate need not fall with ground
    /// distance: the excess losses swapped (`η_NLoS < η_LoS`) or the
    /// S-curve slope `b` negated. The flag says whether the rate is
    /// monotone.
    fn floor_params()(env in environments(), shape in 0u8..6) -> (ChannelParams, bool) {
        let mut builder = ChannelParams::builder();
        builder.environment(env);
        let (los, nlos) = env.excess_loss_db();
        let (a, b) = env.s_curve();
        match shape {
            0 => builder.excess_loss_db(nlos, los),
            1 => builder.s_curve(a, -b),
            _ => &mut builder,
        };
        (builder.build(), shape >= 2)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    /// An in-range user demanding exactly a radio's rate floor (and
    /// so any lower demand) is served by the exact `can_serve`, from
    /// the hover point to exactly `R_user`, and the floor sits within
    /// 1e-8 of the rate at `R_user`. Half the users sit at `R_user` up
    /// to rounding, where an unwidened floor fails. A channel whose
    /// rate need not fall with distance has no floor.
    #[test]
    fn rate_floor_never_contradicts_can_serve(
        (params, monotone) in floor_params(),
        altitude in 50.0f64..1_000.0,
        (tx_dbm, gain_dbi) in (-40.0f64..40.0, 0.0f64..10.0),
        range in 100.0f64..2_000.0,
        (center_x, center_y) in (0.0f64..12_000.0, 0.0f64..12_000.0),
        angle in 0.0f64..std::f64::consts::TAU,
        (place, frac) in (0u8..4, 0.0f64..1.2),
    ) {
        let ch = AtgChannel::new(params);
        let radio = UavRadio::new(tx_dbm, gain_dbi, range);
        let floor = ch.rate_floor_bps(&radio, altitude);
        prop_assert_eq!(floor.is_some(), monotone, "{:?}", params);
        prop_assume!(monotone);
        let floor = floor.unwrap();
        let origin = Point3::new(0.0, 0.0, altitude);
        let at_edge = ch.data_rate_bps(&radio, origin, Point2::new(range, 0.0));
        prop_assert!(floor <= at_edge && at_edge - floor <= at_edge * 1e-8);

        // Exactly R_user from a UAV at the origin, R_user up to
        // rounding from an off-origin UAV, or anywhere in [0, 1.2·R].
        let (uav, user) = match place {
            0 => (origin, Point2::new(range, 0.0)),
            1 | 2 => (
                Point3::new(center_x, center_y, altitude),
                Point2::new(center_x + range * angle.cos(), center_y + range * angle.sin()),
            ),
            _ => (
                Point3::new(center_x, center_y, altitude),
                Point2::new(
                    center_x + frac * range * angle.cos(),
                    center_y + frac * range * angle.sin(),
                ),
            ),
        };
        if uav.to_plane().distance(user) <= range {
            prop_assert!(
                ch.can_serve(&radio, uav, user, floor),
                "floor {} rate {}",
                floor,
                ch.data_rate_bps(&radio, uav, user)
            );
        }
    }
}
