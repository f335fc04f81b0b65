//! The leaf cell library: hand-crafted Mead–Conway nMOS transistor
//! cells whose pins land exactly on routing-track crossings.
//!
//! Each cell is a single transistor — a horizontal diffusion bar
//! crossed by a vertical poly gate — with all three terminals brought
//! up to metal landing pads, so the router only ever attaches to metal.
//! Pin positions are expressed in *track offsets* from the cell's
//! placement site: source at `(+0, +0)`, gate at `(+1, +2)`, drain at
//! `(+2, +0)`. Geometry is parameterized by the stack pitch so the pins
//! stay on-grid for any pitch. Whether a deck can hold the cell is the
//! checker's verdict on the drawn artwork, not a number kept here:
//! [`RouteStack::from_rules`](crate::RouteStack::from_rules) draws both
//! cells once and refuses a deck under which either is not clean.

use silc_geom::{Coord, Point, Rect};
use silc_layout::Layer;

/// The instance kinds the library places, in the order a
/// [`RouteStack`](crate::RouteStack) keeps their cells.
pub(crate) const KINDS: [&str; 2] = ["enh", "dep"];

/// One pin of a leaf cell.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct CellPin {
    /// Port name on the transistor instance (`gate`/`src`/`drn`).
    pub(crate) port: &'static str,
    /// Track-column offset from the placement site.
    pub(crate) dcol: i64,
    /// Track-row offset from the placement site.
    pub(crate) drow: i64,
}

/// A placeable transistor cell: tagged lambda geometry plus on-grid
/// pins, with the cell origin at lambda `(0, 0)` and the source pin at
/// the stack origin offset.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct LeafCell {
    /// Geometry, tagged with the index in `pins` of the terminal it
    /// belongs to; `None` is electrically internal (the diffusion bar,
    /// implant).
    pub(crate) rects: Vec<(Layer, Rect, Option<usize>)>,
    /// The three terminals, in `gate`, `src`, `drn` order.
    pub(crate) pins: [CellPin; 3],
}

const GATE: Option<usize> = Some(0);
const SRC: Option<usize> = Some(1);
const DRN: Option<usize> = Some(2);

fn rect(x0: Coord, y0: Coord, x1: Coord, y1: Coord) -> Rect {
    Rect::new(Point::new(x0, y0), Point::new(x1, y1)).expect("cell rect has positive extent")
}

/// Draws the transistor cell on track pitch `p`: enhancement-mode, or
/// depletion-mode when `dep`.
pub(crate) fn leaf_cell(dep: bool, p: Coord) -> LeafCell {
    // Local lambda frame: source pin at (2, 4), gate pin at (2+p, 4+2p),
    // drain pin at (2+2p, 4).
    let mut rects = vec![
        // Diffusion bar under source, channel and drain.
        (Layer::Diffusion, rect(0, 2, 4 + 2 * p, 6), None),
        // Vertical poly gate: 2 wide, 2-lambda overhang below the bar,
        // rising into the gate landing pad.
        (Layer::Poly, rect(1 + p, 0, 3 + p, 3 + 2 * p), GATE),
        (Layer::Poly, rect(p, 2 + 2 * p, 4 + p, 6 + 2 * p), GATE),
        // Source: cut + metal pad.
        (Layer::Contact, rect(1, 3, 3, 5), SRC),
        (Layer::Metal, rect(0, 2, 4, 6), SRC),
        // Drain: cut + metal pad.
        (Layer::Contact, rect(1 + 2 * p, 3, 3 + 2 * p, 5), DRN),
        (Layer::Metal, rect(2 * p, 2, 4 + 2 * p, 6), DRN),
        // Gate: cut + metal pad on top of the poly pad.
        (
            Layer::Contact,
            rect(1 + p, 3 + 2 * p, 3 + p, 5 + 2 * p),
            GATE,
        ),
        (Layer::Metal, rect(p, 2 + 2 * p, 4 + p, 6 + 2 * p), GATE),
    ];
    if dep {
        // Implant covering the channel turns the device depletion-mode.
        rects.push((Layer::Implant, rect(p - 1, 0, 5 + p, 8), None));
    }
    LeafCell {
        rects,
        pins: [
            CellPin {
                port: "gate",
                dcol: 1,
                drow: 2,
            },
            CellPin {
                port: "src",
                dcol: 0,
                drow: 0,
            },
            CellPin {
                port: "drn",
                dcol: 2,
                drow: 0,
            },
        ],
    }
}

#[cfg(test)]
mod tests {
    use crate::RouteStack;
    use silc_geom::Rect;
    use silc_layout::Layer;

    #[test]
    fn pins_sit_on_track_crossings() {
        let stack = RouteStack::mead_conway_nmos();
        let cell = stack.cell("m0", "enh").unwrap();
        // Cell placed at site (a, b) has lambda origin
        // (track_x(a) - 2, track_y(b) - 4); check the pin pads are the
        // 4x4 squares centered on their crossings for site (0, 0).
        let ox = stack.track_x(0) - 2;
        let oy = stack.track_y(0) - 4;
        for (i, pin) in cell.pins.iter().enumerate() {
            let at = stack.crossing(pin.dcol, pin.drow);
            let pad = cell
                .rects
                .iter()
                .find(|(l, r, owner)| {
                    *l == Layer::Metal
                        && *owner == Some(i)
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
        let cell = stack.cell("m0", "dep").unwrap();
        let on = |layer: Layer| -> Vec<Rect> {
            cell.rects
                .iter()
                .filter(|(l, _, _)| *l == layer)
                .map(|&(_, r, _)| r)
                .collect()
        };
        let (poly, diff, implant) = (on(Layer::Poly), on(Layer::Diffusion), on(Layer::Implant));
        let channel = poly
            .iter()
            .find_map(|p| diff.iter().find_map(|d| p.intersection(*d)))
            .expect("gate crosses the bar");
        assert!(implant.iter().any(|i| i.contains_rect(channel)));
    }

    #[test]
    fn unknown_kind_is_rejected() {
        let stack = RouteStack::mead_conway_nmos();
        let err = stack.cell("u7", "nand2").unwrap_err();
        assert!(err.to_string().contains("nand2"), "{err}");
    }
}
