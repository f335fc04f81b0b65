//! # silc-cif — the Caltech Intermediate Form, reader and writer
//!
//! CIF (Sproull & Lyon, the paper's reference \[8\]) is "the interface to
//! manufacturing": a textual format describing mask geometry, symbol
//! definitions and symbol calls. A silicon compiler's final output is a CIF
//! file; this crate provides both directions:
//!
//! * [`CifWriter`] serialises a [`silc_layout::Library`] hierarchy to CIF
//!   2.0 text, preserving hierarchy (`DS`/`DF`/`C`) and arrays (expanded to
//!   calls), with symbol names carried in `9` user-extension commands.
//! * [`parse`] reads CIF text back into a library (coordinates in
//!   centimicrons, CIF's base unit), supporting nested comments, symbol
//!   scaling, Manhattan rotations and mirrors, boxes, polygons, wires and
//!   layer selection.
//!
//! Writing uses the *doubled-coordinate* convention: symbol definitions are
//! emitted at half the physical scale factor with all coordinates doubled,
//! so box centres — which CIF specifies exactly — stay integral even for
//! odd-lambda geometry.
//!
//! # Example: round trip
//!
//! ```
//! use silc_layout::{Cell, Element, Layer, Library};
//! use silc_geom::{Point, Rect};
//! use silc_cif::{CifWriter, parse};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut lib = Library::new();
//! let mut c = Cell::new("inv");
//! c.push_element(Element::rect(Layer::Poly, Rect::new(Point::new(0,0), Point::new(2,8))?));
//! let id = lib.add_cell(c)?;
//!
//! let text = CifWriter::new().write_to_string(&lib, id)?;
//! let design = parse(&text)?;
//! assert_eq!(design.symbol_count(), 1);
//! # Ok(())
//! # }
//! ```

mod error;
mod parse;
mod write;

pub use error::CifError;
pub use parse::{parse, CifDesign};
pub use write::CifWriter;
