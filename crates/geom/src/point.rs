//! Planar and spatial points with Euclidean metrics.

use std::fmt;
use std::ops::{Add, Sub};

/// A point in the horizontal plane, in meters.
///
/// Ground users live at `(x, y, 0)`; candidate hovering locations live at
/// `(x, y, H_uav)`. Both are represented by a `Point2` plus, where needed,
/// an altitude (see [`Point3`] and [`Point2::at_altitude`]).
///
/// # Examples
///
/// ```
/// use uavnet_geom::Point2;
/// let a = Point2::new(0.0, 0.0);
/// let b = Point2::new(3.0, 4.0);
/// assert_eq!(a.distance(b), 5.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point2 {
    /// East coordinate in meters.
    pub x: f64,
    /// North coordinate in meters.
    pub y: f64,
}

impl Point2 {
    /// Creates a point from its coordinates in meters.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Point2 { x, y }
    }

    /// The origin `(0, 0)`.
    pub const ORIGIN: Point2 = Point2 { x: 0.0, y: 0.0 };

    /// Squared Euclidean distance to `other`, in m².
    ///
    /// Cheaper than [`Point2::distance`]; prefer it for comparisons
    /// against a squared radius.
    #[inline]
    pub fn distance_sq(self, other: Point2) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// Euclidean distance to `other`, in meters.
    #[inline]
    pub fn distance(self, other: Point2) -> f64 {
        self.distance_sq(other).sqrt()
    }

    /// Lifts this planar point to altitude `z` meters.
    #[inline]
    pub fn at_altitude(self, z: f64) -> Point3 {
        Point3::new(self.x, self.y, z)
    }

    /// Midpoint of the segment between `self` and `other`.
    #[inline]
    pub fn midpoint(self, other: Point2) -> Point2 {
        Point2::new((self.x + other.x) / 2.0, (self.y + other.y) / 2.0)
    }

    /// Whether every coordinate is finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }
}

impl Add for Point2 {
    type Output = Point2;
    #[inline]
    fn add(self, rhs: Point2) -> Point2 {
        Point2::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl Sub for Point2 {
    type Output = Point2;
    #[inline]
    fn sub(self, rhs: Point2) -> Point2 {
        Point2::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl fmt::Display for Point2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.1}, {:.1})", self.x, self.y)
    }
}

impl From<(f64, f64)> for Point2 {
    fn from((x, y): (f64, f64)) -> Self {
        Point2::new(x, y)
    }
}

/// A point in 3-D space, in meters.
///
/// Used to measure slant (air-to-ground) distances between a hovering UAV
/// and a ground user.
///
/// # Examples
///
/// ```
/// use uavnet_geom::{Point2, Point3};
/// let user = Point2::new(0.0, 0.0).at_altitude(0.0);
/// let uav = Point3::new(0.0, 0.0, 300.0);
/// assert_eq!(user.distance(uav), 300.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point3 {
    /// East coordinate in meters.
    pub x: f64,
    /// North coordinate in meters.
    pub y: f64,
    /// Altitude in meters.
    pub z: f64,
}

impl Point3 {
    /// Creates a point from its coordinates in meters.
    #[inline]
    pub const fn new(x: f64, y: f64, z: f64) -> Self {
        Point3 { x, y, z }
    }

    /// Squared Euclidean distance to `other`, in m².
    #[inline]
    pub fn distance_sq(self, other: Point3) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        let dz = self.z - other.z;
        dx * dx + dy * dy + dz * dz
    }

    /// Euclidean distance to `other`, in meters.
    #[inline]
    pub fn distance(self, other: Point3) -> f64 {
        self.distance_sq(other).sqrt()
    }

    /// Projects onto the horizontal plane, discarding altitude.
    #[inline]
    pub fn to_plane(self) -> Point2 {
        Point2::new(self.x, self.y)
    }

    /// Horizontal (plane-projected) distance to `other`, in meters.
    #[inline]
    pub fn horizontal_distance(self, other: Point3) -> f64 {
        self.to_plane().distance(other.to_plane())
    }
}

impl fmt::Display for Point3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.1}, {:.1}, {:.1})", self.x, self.y, self.z)
    }
}

impl From<(f64, f64, f64)> for Point3 {
    fn from((x, y, z): (f64, f64, f64)) -> Self {
        Point3::new(x, y, z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_345() {
        let a = Point2::new(1.0, 1.0);
        let b = Point2::new(4.0, 5.0);
        assert_eq!(a.distance(b), 5.0);
        assert_eq!(a.distance_sq(b), 25.0);
    }

    #[test]
    fn distance_is_symmetric() {
        let a = Point2::new(-3.5, 10.0);
        let b = Point2::new(7.25, -2.0);
        assert_eq!(a.distance(b), b.distance(a));
    }

    #[test]
    fn distance_to_self_is_zero() {
        let a = Point2::new(12.0, -9.0);
        assert_eq!(a.distance(a), 0.0);
        let p = a.at_altitude(100.0);
        assert_eq!(p.distance(p), 0.0);
    }

    #[test]
    fn slant_distance_uses_altitude() {
        let ground = Point3::new(0.0, 0.0, 0.0);
        let uav = Point3::new(300.0, 400.0, 0.0);
        assert_eq!(ground.distance(uav), 500.0);
        let uav_high = Point3::new(0.0, 400.0, 300.0);
        assert_eq!(ground.distance(uav_high), 500.0);
    }

    #[test]
    fn horizontal_distance_ignores_altitude() {
        let a = Point3::new(0.0, 0.0, 123.0);
        let b = Point3::new(3.0, 4.0, 999.0);
        assert_eq!(a.horizontal_distance(b), 5.0);
    }

    #[test]
    fn arithmetic_ops() {
        let a = Point2::new(1.0, 2.0);
        let b = Point2::new(0.5, -1.0);
        assert_eq!(a + b, Point2::new(1.5, 1.0));
        assert_eq!(a - b, Point2::new(0.5, 3.0));
    }

    #[test]
    fn midpoint_is_halfway() {
        let a = Point2::new(0.0, 0.0);
        let b = Point2::new(10.0, 4.0);
        let m = a.midpoint(b);
        assert_eq!(m, Point2::new(5.0, 2.0));
        assert!((a.distance(m) - b.distance(m)).abs() < 1e-12);
    }

    #[test]
    fn conversions() {
        let p: Point2 = (2.0, 3.0).into();
        assert_eq!(p, Point2::new(2.0, 3.0));
        let q: Point3 = (2.0, 3.0, 4.0).into();
        assert_eq!(q.to_plane(), p);
    }

    #[test]
    fn is_finite_rejects_nan() {
        assert!(Point2::new(1.0, 2.0).is_finite());
        assert!(!Point2::new(f64::NAN, 2.0).is_finite());
        assert!(!Point2::new(1.0, f64::INFINITY).is_finite());
    }

    #[test]
    fn display_formats() {
        assert_eq!(Point2::new(1.0, 2.0).to_string(), "(1.0, 2.0)");
        assert_eq!(Point3::new(1.0, 2.0, 3.0).to_string(), "(1.0, 2.0, 3.0)");
    }

    #[test]
    fn points_are_threadsafe() {
        fn assert_caps<T: Send + Sync>() {}
        assert_caps::<Point2>();
        assert_caps::<Point3>();
    }
}
