//! # silc-drc — lambda design-rule checking
//!
//! The Mead–Conway design style the paper builds on expresses all process
//! tolerances as multiples of a single scalable length λ. This crate
//! implements a checker for those **lambda rules** over the layout
//! database:
//!
//! * **minimum width** per layer (with redundant-rectangle exemption);
//! * **minimum spacing** per layer pair, measured between *merged* regions
//!   so abutting or overlapping artwork of one net never self-reports, and
//!   including same-region notches;
//! * **contact enclosure** — every cut must be surrounded by metal and by
//!   poly or diffusion;
//! * **transistor gate overhang** — poly must extend past the gate and
//!   diffusion past the channel, the rule that makes self-aligned nMOS
//!   transistors work.
//!
//! The default [`RuleSet::mead_conway_nmos`] encodes the textbook nMOS
//! rules (diff 2λ/3λ, poly 2λ/2λ, metal 3λ/3λ, poly–diff separation 1λ,
//! 2×2λ contacts with 1λ surround, 2λ gate overhangs).
//!
//! The checker proper is flat: [`check_flat`] runs every rule over one
//! layer-indexed rectangle list. [`check`] first tries to prove a design
//! with arrays clean from its hierarchy — each distinct cell's artwork
//! checked once, tiles shown apart from their lattice neighbours — and
//! flattens only when that proof gives up; the report is the flat
//! checker's either way.
//!
//! # Example
//!
//! ```
//! use silc_drc::{check, RuleSet};
//! use silc_layout::{Cell, Element, Layer, Library};
//! use silc_geom::{Point, Rect};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut lib = Library::new();
//! let mut c = Cell::new("narrow");
//! // A 1-lambda-wide metal wire: violates the 3-lambda metal width rule.
//! c.push_element(Element::rect(Layer::Metal, Rect::new(Point::new(0,0), Point::new(1,10))?));
//! let id = lib.add_cell(c)?;
//! let report = check(&lib, id, &RuleSet::mead_conway_nmos())?;
//! assert_eq!(report.violations.len(), 1);
//! # Ok(())
//! # }
//! ```

mod check;
mod hier;
mod region;
mod rules;

// Alias shim for the frozen ledger; ROADMAP's benchmark-only follow-up drops it.
#[doc(hidden)]
pub use check::check_flat as check_flat_serial;
pub use check::{check, check_flat, check_traced, Report, RuleKind, Violation};
pub use region::{covered, merge_rects, region_contains_rect, Cover, Merged, UnionFind};
pub use rules::RuleSet;
