//! The routing grid and its static site-access table.
//!
//! The router never reasons about cells or wires directly; it asks
//! whether a *candidate action* — occupying a track crossing on a stack
//! layer, or dropping a via — would violate a spacing rule or touch
//! another net's geometry. The answer is evaluated against the exact DRC
//! predicate (conflict iff the rects touch or both axis gaps are below
//! the spacing rule), with a conservative pad-sized probe, so a routed
//! layout is DRC-clean by construction.
//!
//! Cell geometry never changes during routing, and the answer to "may
//! net `n` use this site" is the same for every net but one: a site is
//! [`FREE`], owned by one net, or [`BLOCKED`] — the [`meet`] of the tags
//! of every rect too close to its probe. [`Sites::build`] paints each
//! cell rect onto the sites it reaches, once per run, and the searches
//! read only the table.

use crate::stack::RouteStack;
use silc_drc::RuleSet;
use silc_geom::{Coord, Rect};
use silc_layout::Layer;

/// Net tag for geometry that belongs to no routable net (the diffusion
/// bar, implants): it conflicts with every net, so it is [`BLOCKED`].
pub(crate) const NO_NET: u32 = u32::MAX;
/// Site access: no net may use the site.
pub(crate) const BLOCKED: u32 = NO_NET;
/// Site access: no geometry in reach, every net may use the site.
pub(crate) const FREE: u32 = u32::MAX - 1;

/// The meet of two site accesses: `FREE ∧ x = x`, `n ∧ n = n`, and
/// anything else is [`BLOCKED`]. A site admits a net iff both operands
/// do.
pub(crate) fn meet(a: u32, b: u32) -> u32 {
    if a == FREE || a == b {
        b
    } else if b == FREE {
        a
    } else {
        BLOCKED
    }
}

/// Whether a site with `access` admits `net`.
pub(crate) fn admits(access: u32, net: u32) -> bool {
    debug_assert!(net < FREE, "net id {net} collides with a sentinel");
    access == FREE || access == net
}

/// The routing grid's node space: `(layer, col, row)` packed to `u32`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Grid {
    pub cols: i64,
    pub rows: i64,
    pub layers: usize,
}

impl Grid {
    /// Track crossings on one layer.
    pub fn plane(&self) -> usize {
        (self.cols * self.rows) as usize
    }
    pub fn len(&self) -> usize {
        self.layers * self.plane()
    }
    pub fn idx(&self, l: usize, c: i64, r: i64) -> u32 {
        ((l as i64 * self.rows + r) * self.cols + c) as u32
    }
    pub fn decode(&self, idx: u32) -> (usize, i64, i64) {
        // `u32` division: the search decodes every node it expands.
        let (cols, plane) = (self.cols as u32, self.plane() as u32);
        let (l, in_plane) = (idx / plane, idx % plane);
        (
            l as usize,
            (in_plane % cols).into(),
            (in_plane / cols).into(),
        )
    }
}

/// The DRC spacing predicate: `a` and `b` touch, or sit closer than
/// `spacing` on both axes.
fn too_close(a: Rect, b: Rect, spacing: Coord) -> bool {
    if a.touches(b) {
        return true;
    }
    let (gx, gy) = a.axis_gaps(b);
    gx < spacing && gy < spacing
}

/// One static access per routing node, and one per crossing for a via
/// there (both pads plus the cut).
pub(crate) struct Sites {
    node: Vec<u32>,
    via: Vec<u32>,
}

impl Sites {
    /// Builds the table for `grid` from the cell geometry `tagged`
    /// (indexed by [`Layer::index`], each entry `(rect, net)`).
    ///
    /// A node is probed with the full via-pad footprint, which dominates
    /// every wire width, so one answer covers wires and pads alike. Poly
    /// may not touch or crowd diffusion whatever its net — any contact
    /// would form a spurious transistor — so diffusion blocks poly
    /// nodes. A via needs its pad on every joined layer and its cut
    /// clear of other nets' cuts.
    pub fn build(stack: &RouteStack, grid: Grid, tagged: &[Vec<(Rect, u32)>]) -> Sites {
        let plane = grid.plane();
        let (pad, cut) = (|c, r| stack.pad_rect(c, r), |c, r| stack.cut_rect(c, r));
        let mut node = vec![FREE; grid.len()];
        for (l, rl) in stack.layers.iter().enumerate() {
            let sites = &mut node[l * plane..(l + 1) * plane];
            for &(rect, net) in &tagged[rl.layer.index()] {
                paint(sites, grid, stack, (rect, net), rl.spacing, pad);
            }
            if rl.layer == Layer::Poly {
                let spacing =
                    RuleSet::mead_conway_nmos().min_spacing(Layer::Poly, Layer::Diffusion);
                for &(rect, _) in &tagged[Layer::Diffusion.index()] {
                    paint(sites, grid, stack, (rect, BLOCKED), spacing, pad);
                }
            }
        }
        let mut via = vec![FREE; plane];
        for &tagged_cut in &tagged[stack.via.cut_layer.index()] {
            paint(&mut via, grid, stack, tagged_cut, stack.via.spacing, cut);
        }
        for (flat, access) in via.iter_mut().enumerate() {
            *access = (0..grid.layers).fold(*access, |a, l| meet(a, node[l * plane + flat]));
        }
        Sites { node, via }
    }

    /// May `net` occupy node `idx`?
    pub fn occupy(&self, idx: u32, net: u32) -> bool {
        admits(self.node[idx as usize], net)
    }

    /// May `net` drop a via at the crossing under node `idx`?
    pub fn via(&self, grid: Grid, idx: u32, net: u32) -> bool {
        admits(self.via[idx as usize % grid.plane()], net)
    }
}

/// Meets `net` into every site of one layer's `sites` whose `probe` is
/// too close to `rect` under `spacing`. Only crossings within a pad and
/// a spacing of the rect can be, so only those are asked.
fn paint(
    sites: &mut [u32],
    grid: Grid,
    stack: &RouteStack,
    (rect, net): (Rect, u32),
    spacing: Coord,
    probe: impl Fn(i64, i64) -> Rect,
) {
    let reach = stack.via.pad() + spacing;
    let tracks = |lo: Coord, hi: Coord, origin: Coord, n: i64| {
        let first = (lo - reach - origin).div_euclid(stack.pitch).max(0);
        let last = (hi + reach - origin).div_euclid(stack.pitch).min(n - 1);
        first..=last
    };
    for r in tracks(rect.bottom(), rect.top(), stack.origin.y, grid.rows) {
        for c in tracks(rect.left(), rect.right(), stack.origin.x, grid.cols) {
            if too_close(probe(c, r), rect, spacing) {
                let site = &mut sites[(r * grid.cols + c) as usize];
                *site = meet(*site, net);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{gen::random_netlist, place, Floorplan};
    use silc_geom::{Point, RectIndex};
    use silc_trace::Tracer;

    /// One layer's tagged geometry behind a rectangle index.
    struct LayerObs {
        index: RectIndex,
        nets: Vec<u32>,
    }

    impl LayerObs {
        fn build(rects: &[(Rect, u32)]) -> LayerObs {
            let bare: Vec<Rect> = rects.iter().map(|&(r, _)| r).collect();
            LayerObs {
                index: RectIndex::build(&bare),
                nets: rects.iter().map(|&(_, n)| n).collect(),
            }
        }

        /// True when `probe` for `net` conflicts with some other net's
        /// geometry under `spacing`.
        fn conflicts(&self, probe: Rect, spacing: Coord, net: u32) -> bool {
            self.index.any(probe, spacing, |id, r| {
                self.nets[id as usize] != net && too_close(probe, r, spacing)
            })
        }
    }

    /// The per-query obstruction map the router asked before [`Sites`]:
    /// the oracle the table must agree with.
    struct ObstructionMap {
        layers: Vec<LayerObs>,
        cuts: LayerObs,
        diff: RectIndex,
        poly_diff_spacing: Coord,
    }

    impl ObstructionMap {
        fn build(stack: &RouteStack, tagged: &[Vec<(Rect, u32)>]) -> ObstructionMap {
            let layer = |l: Layer| LayerObs::build(&tagged[l.index()]);
            ObstructionMap {
                layers: stack.layers.iter().map(|rl| layer(rl.layer)).collect(),
                cuts: layer(stack.via.cut_layer),
                diff: layer(Layer::Diffusion).index,
                poly_diff_spacing: RuleSet::mead_conway_nmos()
                    .min_spacing(Layer::Poly, Layer::Diffusion),
            }
        }

        fn can_occupy(&self, stack: &RouteStack, l: usize, col: i64, row: i64, net: u32) -> bool {
            let rl = &stack.layers[l];
            let probe = stack.pad_rect(col, row);
            !self.layers[l].conflicts(probe, rl.spacing, net)
                && (rl.layer != Layer::Poly || self.clear_of_diffusion(probe))
        }

        /// Poly may not touch or crowd diffusion, whatever the nets.
        fn clear_of_diffusion(&self, probe: Rect) -> bool {
            let spacing = self.poly_diff_spacing;
            !self
                .diff
                .any(probe, spacing, |_, r| too_close(probe, r, spacing))
        }

        fn can_via(&self, stack: &RouteStack, col: i64, row: i64, net: u32) -> bool {
            (0..stack.layers.len()).all(|l| self.can_occupy(stack, l, col, row, net))
                && !self
                    .cuts
                    .conflicts(stack.cut_rect(col, row), stack.via.spacing, net)
        }
    }

    fn empty_tagged() -> Vec<Vec<(Rect, u32)>> {
        vec![Vec::new(); Layer::ALL.len()]
    }

    /// The oracle and the table over an 8 x 8 grid.
    fn both(tagged: &[Vec<(Rect, u32)>]) -> (RouteStack, ObstructionMap, Grid, Sites) {
        let stack = RouteStack::mead_conway_nmos();
        let grid = Grid {
            cols: 8,
            rows: 8,
            layers: stack.layers.len(),
        };
        let obs = ObstructionMap::build(&stack, tagged);
        let sites = Sites::build(&stack, grid, tagged);
        (stack, obs, grid, sites)
    }

    /// `(occupy layer 0, occupy layer 1, via)` at `(col, row)` for
    /// `net`, asserted equal between oracle and table.
    fn ask(tagged: &[Vec<(Rect, u32)>], col: i64, row: i64, net: u32) -> (bool, bool, bool) {
        let (stack, obs, grid, sites) = both(tagged);
        let table = (
            sites.occupy(grid.idx(0, col, row), net),
            sites.occupy(grid.idx(1, col, row), net),
            sites.via(grid, grid.idx(0, col, row), net),
        );
        let oracle = (
            obs.can_occupy(&stack, 0, col, row, net),
            obs.can_occupy(&stack, 1, col, row, net),
            obs.can_via(&stack, col, row, net),
        );
        assert_eq!(table, oracle, "({col}, {row}) for net {net}");
        table
    }

    #[test]
    fn empty_map_is_free() {
        assert_eq!(ask(&empty_tagged(), 3, 3, 7), (true, true, true));
    }

    #[test]
    fn other_net_pad_blocks_same_crossing_but_not_neighbour() {
        let stack = RouteStack::mead_conway_nmos();
        let mut tagged = empty_tagged();
        // Net 1 owns a via pad at crossing (2, 2).
        tagged[Layer::Metal.index()].push((stack.pad_rect(2, 2), 1));
        let (_, metal, _) = ask(&tagged, 2, 2, 9);
        assert!(!metal, "same crossing blocked");
        let (poly, metal, _) = ask(&tagged, 2, 2, 1);
        assert!(poly && metal, "owner may reuse it; other layer unaffected");
        let (_, metal, _) = ask(&tagged, 3, 2, 9);
        assert!(metal, "next track is legal");
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
        let (poly, metal, via) = ask(&tagged, 4, 1, 3);
        assert!(!poly, "poly blocked on the bar");
        assert!(!via, "via blocked on the bar");
        assert!(metal, "metal may cross");
        let (poly, _, _) = ask(&tagged, 4, 3, 3);
        assert!(poly, "poly fine two rows up");
    }

    #[test]
    fn cut_spacing_blocks_adjacent_foreign_cut_only_when_close() {
        let stack = RouteStack::mead_conway_nmos();
        let mut tagged = empty_tagged();
        tagged[Layer::Contact.index()].push((stack.cut_rect(2, 2), 1));
        assert!(!ask(&tagged, 2, 2, 9).2, "coincident foreign cut");
        assert!(ask(&tagged, 2, 2, 1).2, "own cut may stack");
        assert!(ask(&tagged, 3, 2, 9).2, "one track over is clear");
    }

    /// The three ways a probe's neighbourhood can meet: one net on both
    /// sides, two nets, and geometry that belongs to no net.
    #[test]
    fn the_meet_admits_exactly_what_the_oracle_does() {
        let stack = RouteStack::mead_conway_nmos();
        // Pads one track west and east of (2, 2), widened by a lambda so
        // that they crowd its probe.
        let (west, east) = (stack.pad_rect(1, 2), stack.pad_rect(3, 2));
        let cases = [
            ([(west, 1), (east, 1)], 1),
            ([(west, 1), (east, 2)], BLOCKED),
            ([(west, 1), (east, NO_NET)], BLOCKED),
        ];
        for (rects, want) in cases {
            let mut tagged = empty_tagged();
            tagged[Layer::Metal.index()] = rects.iter().map(|&(r, n)| (r.grow(1, 0), n)).collect();
            let (_, _, grid, sites) = both(&tagged);
            assert_eq!(sites.node[grid.idx(1, 2, 2) as usize], want, "{rects:?}");
            for net in [1, 2, 3] {
                assert_eq!(ask(&tagged, 2, 2, net).1, admits(want, net), "{rects:?}");
            }
        }
        assert_eq!(meet(FREE, FREE), FREE);
        assert_eq!(meet(FREE, 4), 4);
        assert_eq!(meet(4, FREE), 4);
        assert!(!admits(BLOCKED, 0));
    }

    /// Every node and crossing of seeded placements, for every net of
    /// the netlist and one it does not have: the painted table answers
    /// what the per-query predicates answer.
    #[test]
    fn sites_agree_with_the_per_query_oracle() {
        let stack = RouteStack::mead_conway_nmos();
        for (cells, seed) in [(8, 3), (16, 5), (32, 7), (48, 11)] {
            let netlist = random_netlist(seed, cells);
            let fp = Floorplan::squarish(cells);
            let placement = place(&netlist, &stack, &fp, &Tracer::disabled()).unwrap();
            let tagged = placement.tagged_rects(&stack).unwrap();
            let grid = Grid {
                cols: fp.grid_cols(),
                rows: fp.grid_rows(),
                layers: stack.layers.len(),
            };
            let obs = ObstructionMap::build(&stack, &tagged);
            let sites = Sites::build(&stack, grid, &tagged);
            let foreign = netlist.nets().len() as u32;
            for net in 0..=foreign {
                for idx in 0..grid.len() as u32 {
                    let (l, c, r) = grid.decode(idx);
                    assert_eq!(
                        sites.occupy(idx, net),
                        obs.can_occupy(&stack, l, c, r, net),
                        "{cells} cells, seed {seed}: node ({l}, {c}, {r}), net {net}"
                    );
                    if l == 0 {
                        assert_eq!(
                            sites.via(grid, idx, net),
                            obs.can_via(&stack, c, r, net),
                            "{cells} cells, seed {seed}: via ({c}, {r}), net {net}"
                        );
                    }
                }
            }
        }
    }
}
