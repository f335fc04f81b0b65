//! The `RectIndex`-backed obstruction and congestion map.
//!
//! The router never reasons about cells or wires directly; it asks this
//! map whether a *candidate action* — occupying a track crossing on a
//! stack layer, or dropping a via — would violate a spacing rule or
//! touch another net's geometry. Queries are evaluated against the
//! exact DRC predicate (conflict iff the rects touch or both axis gaps
//! are below the spacing rule), with a conservative pad-sized probe, so
//! a routed layout is DRC-clean by construction.
//!
//! The map is built once from the cell geometry, which never changes
//! during routing; other nets' routes are the router's own soft state.

use crate::stack::RouteStack;
use silc_drc::RuleSet;
use silc_geom::{Coord, Rect, RectIndex};
use silc_layout::Layer;

/// Net tag for geometry that belongs to no routable net (the diffusion
/// bar, implants): it conflicts with every net.
pub(crate) const NO_NET: u32 = u32::MAX;

/// One layer's tagged geometry.
pub(crate) struct LayerObs {
    index: RectIndex,
    nets: Vec<u32>,
}

impl LayerObs {
    pub(crate) fn build(rects: &[(Rect, u32)]) -> LayerObs {
        let bare: Vec<Rect> = rects.iter().map(|&(r, _)| r).collect();
        LayerObs {
            index: RectIndex::build(&bare),
            nets: rects.iter().map(|&(_, n)| n).collect(),
        }
    }

    /// True when `probe` for `net` conflicts with some other net's
    /// geometry under `spacing`: it touches it, or sits closer than
    /// `spacing` on both axes (the DRC spacing predicate).
    fn conflicts(&self, probe: Rect, spacing: Coord, net: u32) -> bool {
        self.index.any(probe, spacing, |id, r| {
            if self.nets[id as usize] == net {
                return false;
            }
            if probe.touches(r) {
                return true;
            }
            let (gx, gy) = probe.axis_gaps(r);
            gx < spacing && gy < spacing
        })
    }
}

/// The full obstruction map for one routing round.
pub(crate) struct ObstructionMap {
    /// Per stack layer, in stack order.
    layers: Vec<LayerObs>,
    /// Via cuts (cell contacts + committed route vias).
    cuts: LayerObs,
    /// All diffusion: poly must stay clear of it regardless of net.
    diff: RectIndex,
    poly_diff_spacing: Coord,
}

impl ObstructionMap {
    /// Builds the map from tagged per-mask-layer rects. `tagged` is
    /// indexed by [`Layer::index`], each entry `(rect, net)`.
    pub(crate) fn build(stack: &RouteStack, tagged: &[Vec<(Rect, u32)>]) -> ObstructionMap {
        let layers = stack
            .layers
            .iter()
            .map(|rl| LayerObs::build(&tagged[rl.layer.index()]))
            .collect();
        let cuts = LayerObs::build(&tagged[stack.via.cut_layer.index()]);
        let diff_rects: Vec<Rect> = tagged[Layer::Diffusion.index()]
            .iter()
            .map(|&(r, _)| r)
            .collect();
        ObstructionMap {
            layers,
            cuts,
            diff: RectIndex::build(&diff_rects),
            poly_diff_spacing: RuleSet::mead_conway_nmos()
                .min_spacing(Layer::Poly, Layer::Diffusion),
        }
    }

    /// Poly may not touch or crowd diffusion: any contact would form a
    /// spurious transistor, so this check ignores net identity.
    fn clear_of_diffusion(&self, probe: Rect) -> bool {
        !self.diff.any(probe, self.poly_diff_spacing, |_, r| {
            if probe.touches(r) {
                return true;
            }
            let (gx, gy) = probe.axis_gaps(r);
            gx < self.poly_diff_spacing && gy < self.poly_diff_spacing
        })
    }

    /// Can `net` occupy the track crossing `(col, row)` on stack layer
    /// `l`? Probed with the full via-pad footprint, which dominates
    /// every wire width, so one positive answer covers wires and pads
    /// alike.
    pub(crate) fn can_occupy(
        &self,
        stack: &RouteStack,
        l: usize,
        col: i64,
        row: i64,
        net: u32,
    ) -> bool {
        let rl = &stack.layers[l];
        let probe = stack.pad_rect(col, row);
        if self.layers[l].conflicts(probe, rl.spacing, net) {
            return false;
        }
        if rl.layer == Layer::Poly && !self.clear_of_diffusion(probe) {
            return false;
        }
        true
    }

    /// Can `net` drop a via at `(col, row)`? Requires the landing pad
    /// to be placeable on both joined layers plus cut-to-cut clearance.
    pub(crate) fn can_via(&self, stack: &RouteStack, col: i64, row: i64, net: u32) -> bool {
        (0..stack.layers.len()).all(|l| self.can_occupy(stack, l, col, row, net))
            && !self
                .cuts
                .conflicts(stack.cut_rect(col, row), stack.via.spacing, net)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use silc_geom::Point;

    fn empty_tagged() -> Vec<Vec<(Rect, u32)>> {
        vec![Vec::new(); Layer::ALL.len()]
    }

    #[test]
    fn empty_map_is_free() {
        let stack = RouteStack::mead_conway_nmos();
        let obs = ObstructionMap::build(&stack, &empty_tagged());
        assert!(obs.can_occupy(&stack, 0, 3, 3, 7));
        assert!(obs.can_occupy(&stack, 1, 3, 3, 7));
        assert!(obs.can_via(&stack, 3, 3, 7));
    }

    #[test]
    fn other_net_pad_blocks_same_crossing_but_not_neighbour() {
        let stack = RouteStack::mead_conway_nmos();
        let mut tagged = empty_tagged();
        // Net 1 owns a via pad at crossing (2, 2).
        tagged[Layer::Metal.index()].push((stack.pad_rect(2, 2), 1));
        let obs = ObstructionMap::build(&stack, &tagged);
        assert!(!obs.can_occupy(&stack, 1, 2, 2, 9), "same crossing blocked");
        assert!(obs.can_occupy(&stack, 1, 2, 2, 1), "owner may reuse it");
        assert!(obs.can_occupy(&stack, 1, 3, 2, 9), "next track is legal");
        assert!(obs.can_occupy(&stack, 0, 2, 2, 9), "other layer unaffected");
    }

    #[test]
    fn poly_keeps_clear_of_diffusion() {
        let stack = RouteStack::mead_conway_nmos();
        let mut tagged = empty_tagged();
        // A diffusion bar crossing track column 4 at row 1.
        let y = stack.track_y(1);
        tagged[Layer::Diffusion.index()].push((
            Rect::new(
                Point::new(stack.track_x(3), y - 2),
                Point::new(stack.track_x(5), y + 2),
            )
            .unwrap(),
            NO_NET,
        ));
        let obs = ObstructionMap::build(&stack, &tagged);
        assert!(
            !obs.can_occupy(&stack, 0, 4, 1, 3),
            "poly blocked on the bar"
        );
        assert!(!obs.can_via(&stack, 4, 1, 3), "via blocked on the bar");
        assert!(obs.can_occupy(&stack, 1, 4, 1, 3), "metal may cross");
        assert!(obs.can_occupy(&stack, 0, 4, 3, 3), "poly fine two rows up");
    }

    #[test]
    fn cut_spacing_blocks_adjacent_foreign_cut_only_when_close() {
        let stack = RouteStack::mead_conway_nmos();
        let mut tagged = empty_tagged();
        tagged[Layer::Contact.index()].push((stack.cut_rect(2, 2), 1));
        let obs = ObstructionMap::build(&stack, &tagged);
        assert!(!obs.can_via(&stack, 2, 2, 9), "coincident foreign cut");
        assert!(obs.can_via(&stack, 2, 2, 1), "own cut may stack");
        assert!(obs.can_via(&stack, 3, 2, 9), "one track over is clear");
    }
}
