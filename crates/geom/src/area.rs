//! The rectangular disaster-zone model.

use crate::{GeomError, Point2};
use std::fmt;

/// The 3-dimensional disaster zone of §II-A: length `α`, width `β`, height
/// `γ`, all in meters.
///
/// Ground users live on the `z = 0` plane inside `[0, α] × [0, β]`; UAVs
/// hover at some altitude `H_uav ≤ γ`.
///
/// # Examples
///
/// ```
/// use uavnet_geom::AreaSpec;
/// # fn main() -> Result<(), uavnet_geom::GeomError> {
/// let area = AreaSpec::new(3_000.0, 3_000.0, 500.0)?;
/// assert_eq!(area.surface_m2(), 9_000_000.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AreaSpec {
    length_m: f64,
    width_m: f64,
    height_m: f64,
}

impl AreaSpec {
    /// Creates a disaster zone of `length × width` meters with maximum
    /// usable altitude `height` meters.
    ///
    /// # Errors
    ///
    /// Returns [`GeomError::NonPositiveDimension`] if any dimension is not
    /// a strictly positive finite number.
    pub fn new(length_m: f64, width_m: f64, height_m: f64) -> Result<Self, GeomError> {
        for (what, value) in [
            ("length", length_m),
            ("width", width_m),
            ("height", height_m),
        ] {
            if !(value.is_finite() && value > 0.0) {
                return Err(GeomError::NonPositiveDimension { what, value });
            }
        }
        Ok(AreaSpec {
            length_m,
            width_m,
            height_m,
        })
    }

    /// The paper's default 3 km × 3 km zone with a 500 m ceiling.
    pub fn paper_default() -> Self {
        AreaSpec {
            length_m: 3_000.0,
            width_m: 3_000.0,
            height_m: 500.0,
        }
    }

    /// East-west extent `α` in meters.
    #[inline]
    pub fn length_m(&self) -> f64 {
        self.length_m
    }

    /// North-south extent `β` in meters.
    #[inline]
    pub fn width_m(&self) -> f64 {
        self.width_m
    }

    /// Vertical extent `γ` in meters.
    #[inline]
    pub fn height_m(&self) -> f64 {
        self.height_m
    }

    /// Ground surface area in m².
    #[inline]
    pub fn surface_m2(&self) -> f64 {
        self.length_m * self.width_m
    }

    /// Whether a planar point lies inside the zone footprint
    /// (boundary inclusive).
    #[inline]
    pub fn contains(&self, p: Point2) -> bool {
        (0.0..=self.length_m).contains(&p.x) && (0.0..=self.width_m).contains(&p.y)
    }

    /// Clamps a planar point into the zone footprint.
    #[inline]
    pub fn clamp(&self, p: Point2) -> Point2 {
        Point2::new(p.x.clamp(0.0, self.length_m), p.y.clamp(0.0, self.width_m))
    }

    /// The geometric center of the footprint.
    #[inline]
    pub fn center(&self) -> Point2 {
        Point2::new(self.length_m / 2.0, self.width_m / 2.0)
    }
}

impl fmt::Display for AreaSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.0}m x {:.0}m x {:.0}m zone",
            self.length_m, self.width_m, self.height_m
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_nonpositive_dimensions() {
        assert!(AreaSpec::new(0.0, 10.0, 10.0).is_err());
        assert!(AreaSpec::new(10.0, -1.0, 10.0).is_err());
        assert!(AreaSpec::new(10.0, 10.0, f64::NAN).is_err());
        assert!(AreaSpec::new(10.0, 10.0, f64::INFINITY).is_err());
    }

    #[test]
    fn paper_default_matches_evaluation_setup() {
        let a = AreaSpec::paper_default();
        assert_eq!(a.length_m(), 3_000.0);
        assert_eq!(a.width_m(), 3_000.0);
        assert_eq!(a.height_m(), 500.0);
    }

    #[test]
    fn contains_is_boundary_inclusive() {
        let a = AreaSpec::new(100.0, 50.0, 10.0).unwrap();
        assert!(a.contains(Point2::new(0.0, 0.0)));
        assert!(a.contains(Point2::new(100.0, 50.0)));
        assert!(!a.contains(Point2::new(100.1, 50.0)));
        assert!(!a.contains(Point2::new(-0.1, 0.0)));
    }

    #[test]
    fn clamp_pulls_points_inside() {
        let a = AreaSpec::new(100.0, 50.0, 10.0).unwrap();
        assert_eq!(a.clamp(Point2::new(-5.0, 60.0)), Point2::new(0.0, 50.0));
        assert_eq!(a.clamp(Point2::new(20.0, 20.0)), Point2::new(20.0, 20.0));
    }

    #[test]
    fn center_is_centroid() {
        let a = AreaSpec::new(100.0, 50.0, 10.0).unwrap();
        assert_eq!(a.center(), Point2::new(50.0, 25.0));
    }

    #[test]
    fn display_mentions_dimensions() {
        let a = AreaSpec::new(100.0, 50.0, 10.0).unwrap();
        let s = a.to_string();
        assert!(s.contains("100") && s.contains("50"));
    }
}
