//! Uniform-grid spatial index over planar points.
//!
//! [`SpatialIndex`] bins a fixed point set (ground users) into square
//! bins of a caller-chosen side — keyed to the coarsest coverage radius
//! `R_user^k` of the fleet — so that "points within `r` of a query
//! center" touches only the bins overlapping the query disc instead of
//! the whole population. Instance construction uses it to build the
//! per-class coverage tables in `O(points + hits)` per location.

use crate::Point2;

/// An immutable uniform-grid index over a point set.
///
/// Points are stored in CSR layout: `starts[b]..starts[b + 1]` slices
/// `ids` with the (ascending) indices of the points falling into bin
/// `b`, and `pts` with their coordinates in the same order, so a query
/// streams through contiguous memory instead of gathering by id. It
/// scans the bins overlapping the query disc's bounding box and
/// applies the exact `d² ≤ r²` test per point.
///
/// # Examples
///
/// ```
/// use uavnet_geom::{Point2, SpatialIndex};
///
/// let pts = [Point2::new(10.0, 10.0), Point2::new(500.0, 500.0)];
/// let index = SpatialIndex::build(pts.iter().copied(), 100.0);
/// let mut near: Vec<(u32, f64)> = Vec::new();
/// index.for_each_within(Point2::new(0.0, 0.0), 50.0, |id, d_sq| near.push((id, d_sq)));
/// assert_eq!(near, vec![(0, 200.0)]);
/// ```
#[derive(Debug, Clone)]
pub struct SpatialIndex {
    bin_m: f64,
    min_x: f64,
    min_y: f64,
    cols: usize,
    rows: usize,
    /// CSR offsets: bin `b` holds `ids[starts[b]..starts[b + 1]]`.
    starts: Vec<u32>,
    /// Point indices grouped by bin, ascending within each bin.
    ids: Vec<u32>,
    /// `pts[i]` is the position of point `ids[i]`.
    pts: Vec<Point2>,
}

impl SpatialIndex {
    /// Builds an index over `points` (point `i` is the `i`-th item)
    /// with square bins of side `bin_m`. The iterator is walked three
    /// times, so callers can index positions held inside larger
    /// records without first copying them out.
    ///
    /// The bin side should be on the order of the largest query radius:
    /// a radius-`r` query then touches at most `⌈r/bin⌉ + 2` bins per
    /// axis. A non-finite or non-positive `bin_m` falls back to a
    /// single bin (the index degrades to a linear scan, never breaks).
    ///
    /// # Panics
    ///
    /// Panics if there are more than `u32::MAX` points.
    pub fn build(points: impl Iterator<Item = Point2> + Clone, bin_m: f64) -> Self {
        let bin_m = if bin_m.is_finite() && bin_m > 0.0 {
            bin_m
        } else {
            f64::INFINITY
        };
        let (mut min_x, mut min_y) = (f64::INFINITY, f64::INFINITY);
        let (mut max_x, mut max_y) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
        let mut len = 0usize;
        for p in points.clone() {
            min_x = min_x.min(p.x);
            min_y = min_y.min(p.y);
            max_x = max_x.max(p.x);
            max_y = max_y.max(p.y);
            len += 1;
        }
        assert!(len <= u32::MAX as usize, "too many points");
        if len == 0 {
            return SpatialIndex {
                bin_m: 1.0,
                min_x: 0.0,
                min_y: 0.0,
                cols: 1,
                rows: 1,
                starts: vec![0, 0],
                ids: Vec::new(),
                pts: Vec::new(),
            };
        }
        let span_x = (max_x - min_x).max(0.0);
        let span_y = (max_y - min_y).max(0.0);
        let (cols, rows, bin_m) = if bin_m.is_finite() {
            (
                (span_x / bin_m).floor() as usize + 1,
                (span_y / bin_m).floor() as usize + 1,
                bin_m,
            )
        } else {
            (1, 1, span_x.max(span_y).max(1.0) + 1.0)
        };
        let num_bins = cols * rows;
        // Counting sort into CSR: count per bin, prefix-sum, fill.
        let bin_of = |p: &Point2| -> usize {
            let bx = (((p.x - min_x) / bin_m) as usize).min(cols - 1);
            let by = (((p.y - min_y) / bin_m) as usize).min(rows - 1);
            by * cols + bx
        };
        let mut counts = vec![0u32; num_bins + 1];
        for p in points.clone() {
            counts[bin_of(&p) + 1] += 1;
        }
        for b in 0..num_bins {
            counts[b + 1] += counts[b];
        }
        let starts = counts.clone();
        let mut ids = vec![0u32; len];
        let mut pts = vec![Point2::ORIGIN; len];
        let mut cursor = counts;
        for (i, p) in points.enumerate() {
            let b = bin_of(&p);
            let slot = cursor[b] as usize;
            ids[slot] = i as u32;
            pts[slot] = p;
            cursor[b] += 1;
        }
        SpatialIndex {
            bin_m,
            min_x,
            min_y,
            cols,
            rows,
            starts,
            ids,
            pts,
        }
    }

    /// Number of indexed points.
    #[inline]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the index holds no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The bin side actually in use (meters).
    #[inline]
    pub fn bin_m(&self) -> f64 {
        self.bin_m
    }

    /// Calls `f(id, d²)` for every indexed point within `radius_m`
    /// (Euclidean, inclusive: `d² ≤ r²`) of `center`, where `d²` is
    /// [`Point2::distance_sq`] from the point to `center`.
    ///
    /// Ids arrive as one ascending run per scanned bin (at most nine
    /// when `radius_m` is at most the bin side) but are **not**
    /// globally sorted; callers needing sorted output must sort, and a
    /// run-aware sort such as `slice::sort` merges the runs cheaply.
    pub fn for_each_within(&self, center: Point2, radius_m: f64, mut f: impl FnMut(u32, f64)) {
        if radius_m < 0.0 || !radius_m.is_finite() || self.ids.is_empty() {
            return;
        }
        let r_sq = radius_m * radius_m;
        let lo_bx = (((center.x - radius_m - self.min_x) / self.bin_m).floor()).max(0.0) as usize;
        let lo_by = (((center.y - radius_m - self.min_y) / self.bin_m).floor()).max(0.0) as usize;
        let hi_bx =
            ((((center.x + radius_m - self.min_x) / self.bin_m).floor()) as isize).max(-1) as usize;
        let hi_by =
            ((((center.y + radius_m - self.min_y) / self.bin_m).floor()) as isize).max(-1) as usize;
        if lo_bx >= self.cols || lo_by >= self.rows || hi_bx == usize::MAX || hi_by == usize::MAX {
            return;
        }
        let hi_bx = hi_bx.min(self.cols - 1);
        let hi_by = hi_by.min(self.rows - 1);
        for by in lo_by..=hi_by {
            // The bins `lo_bx..=hi_bx` of one row are adjacent in CSR.
            let s = self.starts[by * self.cols + lo_bx] as usize;
            let e = self.starts[by * self.cols + hi_bx + 1] as usize;
            for (&id, p) in self.ids[s..e].iter().zip(&self.pts[s..e]) {
                let d_sq = p.distance_sq(center);
                if d_sq <= r_sq {
                    f(id, d_sq);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cloud() -> Vec<Point2> {
        // Deterministic pseudo-random cloud over a 1 km square.
        let mut pts = Vec::new();
        let mut state = 0x9e37u64;
        for _ in 0..200 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let x = (state >> 33) as f64 % 1000.0;
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let y = (state >> 33) as f64 % 1000.0;
            pts.push(Point2::new(x, y));
        }
        pts
    }

    fn brute(points: &[Point2], center: Point2, r: f64) -> Vec<u32> {
        (0..points.len() as u32)
            .filter(|&i| points[i as usize].distance_sq(center) <= r * r)
            .collect()
    }

    #[test]
    fn matches_bruteforce_across_radii_and_bins() {
        let pts = cloud();
        for bin in [30.0, 100.0, 333.0, 5000.0] {
            let index = SpatialIndex::build(pts.iter().copied(), bin);
            for (cx, cy, r) in [
                (0.0, 0.0, 150.0),
                (500.0, 500.0, 100.0),
                (990.0, 10.0, 400.0),
                (500.0, 500.0, 0.0),
                (-200.0, -200.0, 100.0),
                (500.0, 500.0, 5000.0),
            ] {
                let center = Point2::new(cx, cy);
                let mut got = Vec::new();
                index.for_each_within(center, r, |id, d_sq| {
                    assert_eq!(d_sq, pts[id as usize].distance_sq(center));
                    got.push(id);
                });
                got.sort_unstable();
                assert_eq!(
                    got,
                    brute(&pts, center, r),
                    "bin {bin} r {r} at ({cx},{cy})"
                );
            }
        }
    }

    #[test]
    fn empty_and_degenerate_inputs() {
        let empty = SpatialIndex::build(std::iter::empty(), 100.0);
        assert!(empty.is_empty());
        let mut hits = 0;
        empty.for_each_within(Point2::new(0.0, 0.0), 1e9, |_, _| hits += 1);
        assert_eq!(hits, 0);

        // All points coincident; zero span still indexes.
        let pts = [Point2::new(5.0, 5.0); 4];
        let idx = SpatialIndex::build(pts.iter().copied(), 10.0);
        assert_eq!(idx.len(), 4);
        let mut got = Vec::new();
        idx.for_each_within(Point2::new(5.0, 5.0), 0.0, |id, _| got.push(id));
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2, 3]);
    }

    #[test]
    fn invalid_bin_degrades_to_single_bin() {
        let pts = cloud();
        for bad in [0.0, -5.0, f64::NAN, f64::INFINITY] {
            let idx = SpatialIndex::build(pts.iter().copied(), bad);
            let center = Point2::new(400.0, 600.0);
            let mut got = Vec::new();
            idx.for_each_within(center, 250.0, |id, _| got.push(id));
            got.sort_unstable();
            assert_eq!(got, brute(&pts, center, 250.0), "bin {bad}");
        }
    }

    #[test]
    fn negative_or_nan_radius_yields_nothing() {
        let pts = cloud();
        let idx = SpatialIndex::build(pts.iter().copied(), 100.0);
        for r in [-1.0, f64::NAN] {
            let mut hits = 0;
            idx.for_each_within(Point2::new(500.0, 500.0), r, |_, _| hits += 1);
            assert_eq!(hits, 0);
        }
    }

    #[test]
    fn boundary_distance_is_inclusive() {
        let pts = [Point2::new(0.0, 0.0), Point2::new(100.0, 0.0)];
        let idx = SpatialIndex::build(pts.iter().copied(), 50.0);
        let mut got = Vec::new();
        idx.for_each_within(Point2::new(0.0, 0.0), 100.0, |id, _| got.push(id));
        got.sort_unstable();
        assert_eq!(got, vec![0, 1]); // d == r is inside
    }
}
