//! # silc-geom — integer lambda-grid geometry for silicon compilation
//!
//! This crate is the geometric substrate of the SILC silicon compiler: every
//! mask feature a silicon compiler emits is ultimately a polygon on an integer
//! grid. Following the Mead–Conway design style the paper builds on, all
//! coordinates are expressed in **lambda** (`λ`), the scalable resolution unit
//! of the process; conversion to physical units (centimicrons, as used by the
//! Caltech Intermediate Form) happens only at the manufacturing interface.
//!
//! The crate provides:
//!
//! * [`Point`] and [`Vector`] — positions and displacements on the grid.
//! * [`Rect`] — axis-aligned rectangles, the workhorse of Manhattan layout.
//! * [`Polygon`] — simple polygons for non-rectangular artwork.
//! * [`Path`] — wires: centre-line point sequences with a width.
//! * [`Orientation`] and [`Transform`] — the eight Manhattan symmetries
//!   (rotations by multiples of 90° and mirrorings) plus translation, closed
//!   under composition, as required for hierarchical cell instantiation.
//! * [`Interval`] and [`IntervalSet`] — one-dimensional interval algebra used
//!   by the design-rule checker and the routers.
//! * [`Fingerprint`], [`Fp`], [`FpHasher`] — stable 128-bit content hashing,
//!   the key substrate of the `silc-incr` incremental compilation engine.
//!
//! # Example
//!
//! ```
//! use silc_geom::{Point, Rect, Transform, Orientation};
//!
//! # fn main() -> Result<(), silc_geom::GeomError> {
//! let r = Rect::new(Point::new(0, 0), Point::new(4, 2))?;
//! let t = Transform::new(Orientation::R90, Point::new(10, 0));
//! let moved = t.apply_rect(r);
//! assert_eq!(moved.width(), 2);
//! assert_eq!(moved.height(), 4);
//! # Ok(())
//! # }
//! ```

mod error;
mod fp;
mod index;
mod interval;
mod path;
mod point;
mod polygon;
mod rect;
mod transform;

pub use error::GeomError;
pub use fp::{Fingerprint, Fp, FpHasher};
pub use index::{band_decompose, Bands, RectIndex};
pub use interval::{Interval, IntervalSet};
pub use path::Path;
pub use point::{Point, Vector};
pub use polygon::Polygon;
pub use rect::Rect;
pub use transform::{Orientation, Transform};

/// The coordinate type used throughout SILC: a signed 64-bit integer count of
/// lambda units (or, at the CIF boundary, centimicrons).
///
/// Sixty-four bits comfortably covers any die: a 1 cm die at λ = 0.25 µm is
/// only 4×10⁴ λ across.
pub type Coord = i64;

/// Largest coordinate magnitude the front ends (SIL elaboration, the CIF
/// reader) accept: `|v| ≤ 2⁴⁰ λ`, seven orders of magnitude beyond any
/// die. Inside the bound, sums of coordinates and products of two extents
/// stay far from the ends of 128-bit arithmetic, and differences from the
/// ends of [`Coord`].
pub const MAX_COORD: Coord = 1 << 40;
