//! The leaf cell library: hand-crafted Mead–Conway nMOS transistor
//! cells whose pins land exactly on routing-track crossings.
//!
//! Each cell is a single transistor — a horizontal diffusion bar
//! crossed by a vertical poly gate — with all three terminals brought
//! up to metal landing pads, so the router only ever attaches to metal.
//! Pin positions are expressed in *track offsets* from the cell's
//! placement site: source at `(+0, +0)`, gate at `(+1, +2)`, drain at
//! `(+2, +0)`. Geometry is parameterized by the stack pitch so the pins
//! stay on-grid for any pitch ≥ 7 lambda.

use crate::stack::RouteStack;
use crate::PnrError;
use silc_geom::{Coord, Point, Rect};
use silc_layout::Layer;

/// Which net a cell rectangle belongs to, for the obstruction map.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PinRole {
    /// Part of the gate terminal (poly, gate cut, gate pad).
    Gate,
    /// Part of the source terminal.
    Src,
    /// Part of the drain terminal.
    Drn,
    /// Electrically internal or ambiguous (the diffusion bar, implant).
    Internal,
}

/// One pin of a leaf cell.
#[derive(Debug, Clone, Copy)]
pub struct CellPin {
    /// Port name on the transistor instance (`gate`/`src`/`drn`).
    pub port: &'static str,
    /// Which terminal this is.
    pub role: PinRole,
    /// Track-column offset from the placement site.
    pub dcol: i64,
    /// Track-row offset from the placement site.
    pub drow: i64,
}

/// A placeable transistor cell: tagged lambda geometry plus on-grid
/// pins, with the cell origin at lambda `(0, 0)` and the source pin at
/// the stack origin offset.
#[derive(Debug, Clone)]
pub struct LeafCell {
    /// Instance kind this cell implements (`"enh"` or `"dep"`).
    pub kind: &'static str,
    /// Geometry, tagged with the terminal it belongs to.
    pub rects: Vec<(Layer, Rect, PinRole)>,
    /// The three terminals, in `gate`, `src`, `drn` order.
    pub pins: [CellPin; 3],
    /// Footprint in tracks: the cell covers columns `site.0 ..=
    /// site.0 + cols - 1` and likewise rows.
    pub cols: i64,
    /// Footprint rows (see [`LeafCell::cols`]).
    pub rows: i64,
}

/// The narrowest track pitch that keeps the cell's internal spacings.
pub(crate) const MIN_PITCH: Coord = 7;

fn rect(x0: Coord, y0: Coord, x1: Coord, y1: Coord) -> Rect {
    Rect::new(Point::new(x0, y0), Point::new(x1, y1)).expect("cell rect has positive extent")
}

/// Builds the transistor cell for `kind` on `stack`.
///
/// # Errors
///
/// [`PnrError::UnsupportedKind`] for kinds outside `enh`/`dep`. Every
/// stack holds the cell: [`RouteStack::from_rules`] refuses a pitch
/// below 7 lambda.
pub fn leaf_cell(kind: &str, stack: &RouteStack) -> Result<LeafCell, PnrError> {
    if kind != "enh" && kind != "dep" {
        return Err(PnrError::UnsupportedKind {
            instance: String::new(),
            kind: kind.to_string(),
        });
    }
    let p = stack.pitch();
    // Local lambda frame: source pin at (2, 4), gate pin at (2+p, 4+2p),
    // drain pin at (2+2p, 4). All values below keep the Mead–Conway
    // rules internally and leave >= spacing to anything on neighbouring
    // tracks (see the DRC proptests).
    let mut rects = vec![
        // Diffusion bar under source, channel and drain.
        (
            Layer::Diffusion,
            rect(0, 2, 4 + 2 * p, 6),
            PinRole::Internal,
        ),
        // Vertical poly gate: 2 wide, 2-lambda overhang below the bar,
        // rising into the gate landing pad.
        (Layer::Poly, rect(1 + p, 0, 3 + p, 3 + 2 * p), PinRole::Gate),
        (
            Layer::Poly,
            rect(p, 2 + 2 * p, 4 + p, 6 + 2 * p),
            PinRole::Gate,
        ),
        // Source: cut + metal pad.
        (Layer::Contact, rect(1, 3, 3, 5), PinRole::Src),
        (Layer::Metal, rect(0, 2, 4, 6), PinRole::Src),
        // Drain: cut + metal pad.
        (
            Layer::Contact,
            rect(1 + 2 * p, 3, 3 + 2 * p, 5),
            PinRole::Drn,
        ),
        (Layer::Metal, rect(2 * p, 2, 4 + 2 * p, 6), PinRole::Drn),
        // Gate: cut + metal pad on top of the poly pad.
        (
            Layer::Contact,
            rect(1 + p, 3 + 2 * p, 3 + p, 5 + 2 * p),
            PinRole::Gate,
        ),
        (
            Layer::Metal,
            rect(p, 2 + 2 * p, 4 + p, 6 + 2 * p),
            PinRole::Gate,
        ),
    ];
    if kind == "dep" {
        // Implant covering the channel turns the device depletion-mode.
        rects.push((Layer::Implant, rect(p - 1, 0, 5 + p, 8), PinRole::Internal));
    }
    Ok(LeafCell {
        kind: if kind == "dep" { "dep" } else { "enh" },
        rects,
        pins: [
            CellPin {
                port: "gate",
                role: PinRole::Gate,
                dcol: 1,
                drow: 2,
            },
            CellPin {
                port: "src",
                role: PinRole::Src,
                dcol: 0,
                drow: 0,
            },
            CellPin {
                port: "drn",
                role: PinRole::Drn,
                dcol: 2,
                drow: 0,
            },
        ],
        cols: 3,
        rows: 3,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pins_sit_on_track_crossings() {
        let stack = RouteStack::mead_conway_nmos();
        let cell = leaf_cell("enh", &stack).unwrap();
        // Cell placed at site (a, b) has lambda origin
        // (track_x(a) - 2, track_y(b) - 4); check the pin pads are the
        // 4x4 squares centered on their crossings for site (0, 0).
        let ox = stack.track_x(0) - 2;
        let oy = stack.track_y(0) - 4;
        for pin in cell.pins {
            let at = stack.crossing(pin.dcol, pin.drow);
            let pad = cell
                .rects
                .iter()
                .find(|(l, r, role)| {
                    *l == Layer::Metal
                        && *role == pin.role
                        && r.translate(silc_geom::Vector::new(ox, oy))
                            .contains_point(at)
                })
                .map(|(_, r, _)| r.translate(silc_geom::Vector::new(ox, oy)));
            let pad = pad.unwrap_or_else(|| panic!("no metal pad under pin {}", pin.port));
            assert_eq!(
                pad.center(),
                at,
                "pad centered on crossing for {}",
                pin.port
            );
        }
    }

    #[test]
    fn dep_cell_implant_covers_channel() {
        let stack = RouteStack::mead_conway_nmos();
        let cell = leaf_cell("dep", &stack).unwrap();
        let poly: Vec<Rect> = cell
            .rects
            .iter()
            .filter(|(l, _, _)| *l == Layer::Poly)
            .map(|&(_, r, _)| r)
            .collect();
        let diff: Vec<Rect> = cell
            .rects
            .iter()
            .filter(|(l, _, _)| *l == Layer::Diffusion)
            .map(|&(_, r, _)| r)
            .collect();
        let implant: Vec<Rect> = cell
            .rects
            .iter()
            .filter(|(l, _, _)| *l == Layer::Implant)
            .map(|&(_, r, _)| r)
            .collect();
        let channel = poly
            .iter()
            .find_map(|p| diff.iter().find_map(|d| p.intersection(*d)))
            .expect("gate crosses the bar");
        assert!(implant.iter().any(|i| i.contains_rect(channel)));
    }

    #[test]
    fn unknown_kind_is_rejected() {
        let stack = RouteStack::mead_conway_nmos();
        let err = leaf_cell("nand2", &stack).unwrap_err();
        assert!(err.to_string().contains("nand2"));
    }
}
