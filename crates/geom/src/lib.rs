//! Geometry and grid substrate for UAV hovering-plane models.
//!
//! This crate provides the spatial primitives used throughout `uavnet`:
//!
//! * [`Point2`] / [`Point3`] — positions of ground users and hovering UAVs;
//! * [`AreaSpec`] — the rectangular disaster zone (length `α`, width `β`,
//!   height `γ` in the paper's notation);
//! * [`Grid`] — the partition of the hovering plane at altitude `H_uav`
//!   into `m = (α/λ) × (β/λ)` square cells of side `λ`, whose centers are
//!   the candidate hovering locations `v_1 … v_m`;
//! * [`SpatialIndex`] — a uniform-grid point index answering "users
//!   within `R_user^k` of a location" by scanning only neighboring bins,
//!   the workhorse behind `O(users + hits)` coverage-table construction.
//!
//! # Examples
//!
//! ```
//! use uavnet_geom::{AreaSpec, GridSpec, Point2};
//!
//! # fn main() -> Result<(), uavnet_geom::GeomError> {
//! let area = AreaSpec::new(3_000.0, 3_000.0, 500.0)?;
//! let grid = GridSpec::new(area, 300.0, 300.0)?.build();
//! assert_eq!(grid.num_cells(), 100);
//! let c = grid.cell_center(0);
//! assert_eq!(c, Point2::new(150.0, 150.0));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod area;
mod grid;
mod point;
mod spatial;

pub use area::AreaSpec;
pub use grid::{CellIndex, Grid, GridSpec, NeighborIter};
pub use point::{Point2, Point3};
pub use spatial::SpatialIndex;

use std::error::Error;
use std::fmt;

/// Error raised when constructing geometric specifications from invalid
/// parameters.
#[derive(Debug, Clone, PartialEq)]
pub enum GeomError {
    /// A dimension (length, width, height, cell side, altitude) was not a
    /// strictly positive finite number.
    NonPositiveDimension {
        /// Which parameter was rejected.
        what: &'static str,
        /// The offending value.
        value: f64,
    },
    /// The area sides are not divisible by the requested grid cell side.
    ///
    /// The paper assumes `α` and `β` are divisible by `λ` (§II-A); we
    /// enforce it so every cell is exactly square.
    NotDivisible {
        /// The side length of the area that failed the check.
        side: f64,
        /// The requested cell side `λ`.
        cell: f64,
    },
}

impl fmt::Display for GeomError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GeomError::NonPositiveDimension { what, value } => {
                write!(f, "{what} must be a positive finite number, got {value}")
            }
            GeomError::NotDivisible { side, cell } => {
                write!(f, "area side {side} is not divisible by cell side {cell}")
            }
        }
    }
}

impl Error for GeomError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_nonempty() {
        let e = GeomError::NonPositiveDimension {
            what: "length",
            value: -1.0,
        };
        assert!(!e.to_string().is_empty());
        let e = GeomError::NotDivisible {
            side: 3000.0,
            cell: 37.0,
        };
        assert!(e.to_string().contains("divisible"));
    }

    #[test]
    fn errors_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<GeomError>();
    }
}
