//! The hovering-plane grid of candidate UAV locations.

use crate::{AreaSpec, GeomError, Point2, Point3};
use std::fmt;

/// Index of a grid cell / candidate hovering location (`v_j` in the paper).
///
/// Cells are numbered row-major: index `= row * cols + col`, with `col`
/// increasing eastwards and `row` increasing northwards.
pub type CellIndex = usize;

/// Parameters of the hovering-plane grid: the disaster zone, the cell side
/// `λ`, and the common hovering altitude `H_uav` (§II-A).
///
/// # Examples
///
/// ```
/// use uavnet_geom::{AreaSpec, GridSpec};
/// # fn main() -> Result<(), uavnet_geom::GeomError> {
/// let spec = GridSpec::new(AreaSpec::paper_default(), 50.0, 300.0)?;
/// let grid = spec.build();
/// assert_eq!(grid.num_cells(), 3_600); // (3000/50)^2
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridSpec {
    area: AreaSpec,
    cell_m: f64,
    altitude_m: f64,
}

impl GridSpec {
    /// Creates a grid specification.
    ///
    /// # Errors
    ///
    /// * [`GeomError::NonPositiveDimension`] if `cell_m` or `altitude_m`
    ///   is not a strictly positive finite number;
    /// * [`GeomError::NotDivisible`] if the area's length or width is not
    ///   an (almost exact) integer multiple of `cell_m`, as the paper
    ///   assumes.
    pub fn new(area: AreaSpec, cell_m: f64, altitude_m: f64) -> Result<Self, GeomError> {
        for (what, value) in [("cell side", cell_m), ("altitude", altitude_m)] {
            if !(value.is_finite() && value > 0.0) {
                return Err(GeomError::NonPositiveDimension { what, value });
            }
        }
        for side in [area.length_m(), area.width_m()] {
            let ratio = side / cell_m;
            if (ratio - ratio.round()).abs() > 1e-9 || ratio.round() < 1.0 {
                return Err(GeomError::NotDivisible { side, cell: cell_m });
            }
        }
        Ok(GridSpec {
            area,
            cell_m,
            altitude_m,
        })
    }

    /// The enclosing disaster zone.
    #[inline]
    pub fn area(&self) -> AreaSpec {
        self.area
    }

    /// Cell side `λ` in meters.
    #[inline]
    pub fn cell_m(&self) -> f64 {
        self.cell_m
    }

    /// Hovering altitude `H_uav` in meters.
    #[inline]
    pub fn altitude_m(&self) -> f64 {
        self.altitude_m
    }

    /// Materializes the grid (cell counts and center coordinates).
    pub fn build(self) -> Grid {
        let cols = (self.area.length_m() / self.cell_m).round() as usize;
        let rows = (self.area.width_m() / self.cell_m).round() as usize;
        let mut centers = Vec::with_capacity(cols * rows);
        for row in 0..rows {
            for col in 0..cols {
                centers.push(Point2::new(
                    (col as f64 + 0.5) * self.cell_m,
                    (row as f64 + 0.5) * self.cell_m,
                ));
            }
        }
        Grid {
            spec: self,
            cols,
            rows,
            centers,
        }
    }
}

/// The materialized hovering-plane grid: `m = cols × rows` candidate
/// hovering locations, one per cell center, all at altitude `H_uav`.
///
/// At most one UAV may occupy a cell (collision avoidance, §II-A); that
/// constraint is enforced by the deployment algorithms, not by this type.
#[derive(Debug, Clone, PartialEq)]
pub struct Grid {
    spec: GridSpec,
    cols: usize,
    rows: usize,
    centers: Vec<Point2>,
}

impl Grid {
    /// The specification this grid was built from.
    #[inline]
    pub fn spec(&self) -> GridSpec {
        self.spec
    }

    /// Number of columns (`α / λ`).
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of rows (`β / λ`).
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Total number of candidate hovering locations `m`.
    #[inline]
    pub fn num_cells(&self) -> usize {
        self.centers.len()
    }

    /// Planar center of cell `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= self.num_cells()`.
    #[inline]
    pub fn cell_center(&self, idx: CellIndex) -> Point2 {
        self.centers[idx]
    }

    /// Hovering position (center of cell `idx` at altitude `H_uav`).
    ///
    /// # Panics
    ///
    /// Panics if `idx >= self.num_cells()`.
    #[inline]
    pub fn hover_position(&self, idx: CellIndex) -> Point3 {
        self.centers[idx].at_altitude(self.spec.altitude_m())
    }

    /// All cell centers, indexed by [`CellIndex`].
    #[inline]
    pub fn centers(&self) -> &[Point2] {
        &self.centers
    }

    /// Converts `(col, row)` to a cell index.
    ///
    /// # Panics
    ///
    /// Panics if `col >= cols` or `row >= rows`.
    #[inline]
    pub fn index(&self, col: usize, row: usize) -> CellIndex {
        assert!(col < self.cols, "col {col} out of range {}", self.cols);
        assert!(row < self.rows, "row {row} out of range {}", self.rows);
        row * self.cols + col
    }

    /// Converts a cell index back to `(col, row)`.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= self.num_cells()`.
    #[inline]
    pub fn col_row(&self, idx: CellIndex) -> (usize, usize) {
        assert!(idx < self.num_cells(), "cell {idx} out of range");
        (idx % self.cols, idx / self.cols)
    }

    /// The cell containing a planar point, or `None` if the point lies
    /// outside the zone footprint.
    pub fn locate(&self, p: Point2) -> Option<CellIndex> {
        if !self.spec.area().contains(p) {
            return None;
        }
        let cell = self.spec.cell_m();
        let col = ((p.x / cell) as usize).min(self.cols - 1);
        let row = ((p.y / cell) as usize).min(self.rows - 1);
        Some(self.index(col, row))
    }

    /// Iterator over the cell indices whose centers lie within `radius_m`
    /// (Euclidean, planar) of `center`. Uses the grid structure to visit
    /// only the bounding box of the disc.
    pub fn cells_within(&self, center: Point2, radius_m: f64) -> NeighborIter<'_> {
        let cell = self.spec.cell_m();
        let lo_col = (((center.x - radius_m) / cell).floor().max(0.0)) as usize;
        let lo_row = (((center.y - radius_m) / cell).floor().max(0.0)) as usize;
        let hi_col = (((center.x + radius_m) / cell).ceil() as isize).min(self.cols as isize - 1);
        let hi_row = (((center.y + radius_m) / cell).ceil() as isize).min(self.rows as isize - 1);
        NeighborIter {
            grid: self,
            center,
            radius_sq: radius_m * radius_m,
            lo_col,
            hi_col: hi_col.max(lo_col as isize - 1) as usize,
            row: lo_row,
            hi_row: hi_row.max(lo_row as isize - 1) as usize,
            col: lo_col,
            done: hi_col < lo_col as isize || hi_row < lo_row as isize,
        }
    }

    /// The 4-neighborhood (N/S/E/W) of a cell, clipped to the grid.
    pub fn orthogonal_neighbors(&self, idx: CellIndex) -> Vec<CellIndex> {
        let (col, row) = self.col_row(idx);
        let mut out = Vec::with_capacity(4);
        if col > 0 {
            out.push(self.index(col - 1, row));
        }
        if col + 1 < self.cols {
            out.push(self.index(col + 1, row));
        }
        if row > 0 {
            out.push(self.index(col, row - 1));
        }
        if row + 1 < self.rows {
            out.push(self.index(col, row + 1));
        }
        out
    }
}

impl fmt::Display for Grid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}x{} grid (cell {:.0}m, altitude {:.0}m)",
            self.cols,
            self.rows,
            self.spec.cell_m(),
            self.spec.altitude_m()
        )
    }
}

/// Iterator produced by [`Grid::cells_within`].
#[derive(Debug)]
pub struct NeighborIter<'a> {
    grid: &'a Grid,
    center: Point2,
    radius_sq: f64,
    lo_col: usize,
    hi_col: usize,
    row: usize,
    hi_row: usize,
    col: usize,
    done: bool,
}

impl Iterator for NeighborIter<'_> {
    type Item = CellIndex;

    fn next(&mut self) -> Option<CellIndex> {
        if self.done {
            return None;
        }
        loop {
            if self.row > self.hi_row {
                self.done = true;
                return None;
            }
            let idx = self.grid.index(self.col, self.row);
            let inside = self.grid.cell_center(idx).distance_sq(self.center) <= self.radius_sq;
            // advance cursor
            if self.col == self.hi_col {
                self.col = self.lo_col;
                self.row += 1;
            } else {
                self.col += 1;
            }
            if inside {
                return Some(idx);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_grid() -> Grid {
        let area = AreaSpec::new(400.0, 300.0, 100.0).unwrap();
        GridSpec::new(area, 100.0, 50.0).unwrap().build()
    }

    #[test]
    fn dimensions_match_spec() {
        let g = small_grid();
        assert_eq!(g.cols(), 4);
        assert_eq!(g.rows(), 3);
        assert_eq!(g.num_cells(), 12);
    }

    #[test]
    fn rejects_indivisible_cell() {
        let area = AreaSpec::new(400.0, 300.0, 100.0).unwrap();
        assert!(matches!(
            GridSpec::new(area, 150.0, 50.0),
            Err(GeomError::NotDivisible { .. })
        ));
    }

    #[test]
    fn rejects_bad_altitude_and_cell() {
        let area = AreaSpec::new(400.0, 300.0, 100.0).unwrap();
        assert!(GridSpec::new(area, 0.0, 50.0).is_err());
        assert!(GridSpec::new(area, 100.0, -1.0).is_err());
    }

    #[test]
    fn centers_are_cell_midpoints() {
        let g = small_grid();
        assert_eq!(g.cell_center(0), Point2::new(50.0, 50.0));
        assert_eq!(g.cell_center(1), Point2::new(150.0, 50.0));
        assert_eq!(g.cell_center(4), Point2::new(50.0, 150.0));
        assert_eq!(g.cell_center(11), Point2::new(350.0, 250.0));
    }

    #[test]
    fn index_roundtrip() {
        let g = small_grid();
        for idx in 0..g.num_cells() {
            let (c, r) = g.col_row(idx);
            assert_eq!(g.index(c, r), idx);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn index_panics_out_of_range() {
        let g = small_grid();
        let _ = g.index(4, 0);
    }

    #[test]
    fn locate_finds_containing_cell() {
        let g = small_grid();
        assert_eq!(g.locate(Point2::new(10.0, 10.0)), Some(0));
        assert_eq!(g.locate(Point2::new(399.9, 299.9)), Some(11));
        // boundary point snaps into the last cell
        assert_eq!(g.locate(Point2::new(400.0, 300.0)), Some(11));
        assert_eq!(g.locate(Point2::new(401.0, 0.0)), None);
    }

    #[test]
    fn locate_agrees_with_centers() {
        let g = small_grid();
        for idx in 0..g.num_cells() {
            assert_eq!(g.locate(g.cell_center(idx)), Some(idx));
        }
    }

    #[test]
    fn hover_position_has_altitude() {
        let g = small_grid();
        let p = g.hover_position(0);
        assert_eq!(p.z, 50.0);
        assert_eq!(p.to_plane(), g.cell_center(0));
    }

    #[test]
    fn cells_within_radius_matches_bruteforce() {
        let g = small_grid();
        let center = Point2::new(170.0, 140.0);
        for radius in [0.0, 60.0, 120.0, 500.0] {
            let mut fast: Vec<_> = g.cells_within(center, radius).collect();
            fast.sort_unstable();
            let brute: Vec<_> = (0..g.num_cells())
                .filter(|&i| g.cell_center(i).distance(center) <= radius)
                .collect();
            assert_eq!(fast, brute, "radius {radius}");
        }
    }

    #[test]
    fn cells_within_offgrid_center() {
        let g = small_grid();
        // center far outside the grid still behaves
        let got: Vec<_> = g
            .cells_within(Point2::new(-1000.0, -1000.0), 100.0)
            .collect();
        assert!(got.is_empty());
        let all: Vec<_> = g.cells_within(Point2::new(-1000.0, -1000.0), 1e6).collect();
        assert_eq!(all.len(), g.num_cells());
    }

    #[test]
    fn orthogonal_neighbors_clip_at_edges() {
        let g = small_grid();
        let corner = g.orthogonal_neighbors(0);
        assert_eq!(corner.len(), 2);
        let middle = g.orthogonal_neighbors(g.index(1, 1));
        assert_eq!(middle.len(), 4);
    }

    #[test]
    fn paper_grid_has_3600_cells() {
        let g = GridSpec::new(AreaSpec::paper_default(), 50.0, 300.0)
            .unwrap()
            .build();
        assert_eq!(g.num_cells(), 3600);
        assert_eq!(g.cols(), 60);
    }

    #[test]
    fn display_mentions_shape() {
        let g = small_grid();
        assert!(g.to_string().contains("4x3"));
    }
}
