//! # silc-layout — the hierarchical layout database
//!
//! The physical-description substrate of SILC. A design is a [`Library`] of
//! [`Cell`]s; each cell holds mask [`Element`]s (layer-tagged shapes) and
//! [`Instance`]s of other cells, placed under Manhattan transforms and
//! optionally arrayed. This mirrors the structure the paper requires of a
//! graphics language: **repetition** (arrays), **parameterisation** (cells
//! are generated by the `silc-lang` compiler), and **hierarchy** (instances).
//!
//! The database is a DAG by construction: [`Library::add_cell`] takes a
//! cell only once every cell it places is in the library, so ids run
//! children before parents, flattening ([`flatten`]) always terminates,
//! and one sweep down the ids counts what a design uses
//! ([`Library::copies`]).
//!
//! Layers are the Mead–Conway nMOS set ([`Layer`]), matching the process the
//! paper's reference \[1\] (Mead & Conway, *Introduction to VLSI Systems*)
//! describes and the CIF layer names of reference \[8\].
//!
//! # Example
//!
//! ```
//! use silc_layout::{Cell, Element, Instance, Layer, Library};
//! use silc_geom::{Point, Rect, Transform};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut lib = Library::new();
//! let mut inv = Cell::new("inv");
//! inv.push_element(Element::rect(Layer::Diffusion, Rect::new(Point::new(0,0), Point::new(2,8))?));
//! let inv_id = lib.add_cell(inv)?;
//!
//! let mut row = Cell::new("row");
//! row.push_instance(Instance::array(inv_id, Transform::IDENTITY, 4, 1, 10, 0)?);
//! let row_id = lib.add_cell(row)?;
//!
//! let flat = silc_layout::flatten(&lib, row_id)?;
//! assert_eq!(flat.len(), 4);
//! # Ok(())
//! # }
//! ```

mod cell;
mod error;
mod extent;
mod flatten;
mod fp;
mod layer;
mod library;
mod shape;
mod stats;

pub use cell::{Cell, Instance, Port};
pub use error::LayoutError;
pub use extent::{Extent, Extents};
pub use flatten::{flatten, flatten_to_rects, rects_by_layer, MAX_FLAT_ELEMENTS};
pub use layer::Layer;
pub use library::{CellId, Library};
pub use shape::{Element, Shape};
pub use stats::{union_area, CellStats};
