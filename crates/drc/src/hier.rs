//! Proving a hierarchy clean without flattening it.
//!
//! A cell is made of *parts*: its own artwork, and each of its instances
//! (an array counts as one part). [`prove_clean`] shows that the
//! flattened design holds no violation from three facts:
//!
//! 1. every part is clean on its own — a cell's artwork goes to the flat
//!    checker once, however often the cell is placed;
//! 2. every placement is a pure translation (`R0`): merged bands are
//!    horizontal, so what the checker sees of a part (its notches above
//!    all) survives a translation but not a rotation or a mirror;
//! 3. no two parts come within [`RuleSet::clearance`] of each other, layer
//!    pair by layer pair, bounding box against bounding box (L∞).
//!
//! With (3) no rectangle of one part touches a same-layer rectangle of
//! another, so merging unions the parts' bands untouched; poly of one part
//! never meets diffusion of another, so no new gate appears; and every
//! spacing pair across parts is at least its rule apart. The other rules —
//! width with its redundancy exemption, contact surround, gate overhang,
//! butting contacts — ask whether something is *covered*, and more
//! geometry only covers more, so they need no gap. Inside an array, (3)
//! is one question per layer pair: does any lattice step but zero bring
//! the tile's layer-b box within clearance of its layer-a box?
//!
//! A cell whose parts fail (2) or (3) but that is used twice or more — an
//! array tile, or a cell placed more than once — is flattened on its own
//! and checked as one part. Any other failure, and any violation in a
//! part, gives up, and the caller checks the flattened design, so a dirty
//! design's report is the flat checker's own, order included. No part is
//! checked until the structure holds, so a structure that fails costs no
//! checking the fallback repeats.

use crate::check::{violations, Report};
use crate::RuleSet;
use silc_geom::{Coord, Orientation, Rect, RectIndex, Vector};
use silc_layout::{flatten_to_rects, rects_by_layer, CellId, Extents, Instance, Layer, Library};
use silc_trace::{span, Tracer};

const LAYERS: usize = Layer::ALL.len();

/// One part's bounding box on each layer, indexed by [`Layer::index`].
type Boxes = [Option<Rect>; LAYERS];

/// How a cell's geometry reaches the flat checker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    /// Its parts keep apart: only its own artwork is checked.
    Split,
    /// Its parts meet, but it is used twice or more: it is flattened and
    /// checked once.
    Whole,
    /// Its parts meet and it is used once: the proof gives up.
    Tangled,
}

struct Prover<'a> {
    lib: &'a Library,
    extents: Extents<'a>,
    clearance: [[Coord; LAYERS]; LAYERS],
    /// The largest clearance: parts farther apart need no closer look.
    reach: Coord,
    /// Copies of each cell in the flattened design.
    copies: Vec<u64>,
    verdicts: Vec<Option<Verdict>>,
}

/// The report of a design proven clean from its hierarchy, or `None`
/// when the proof gives up (always, for a design without arrays: it has
/// nothing to gain). Records a `drc.prove` span and the
/// `drc.rects_examined` counter; on success also `drc.cells_proved`,
/// `drc.rects_checked` and `drc.violations`.
pub(crate) fn prove_clean(
    lib: &Library,
    root: CellId,
    rules: &RuleSet,
    tracer: &Tracer,
) -> Option<Report> {
    let copies = copies_if_arrayed(lib, root)?;
    let _s = span!(tracer, "drc.prove");
    let clearance = Layer::ALL.map(|a| Layer::ALL.map(|b| rules.clearance(a, b)));
    let mut prover = Prover {
        lib,
        extents: Extents::new(lib),
        reach: clearance.iter().flatten().copied().max().unwrap_or(0),
        clearance,
        copies,
        verdicts: vec![None; lib.len()],
    };
    if prover.visit(root) == Verdict::Tangled {
        return None;
    }
    let mut examined = 0;
    let clean = prover.parts(root)?.iter().all(|layers| {
        examined += layers.iter().map(Vec::len).sum::<usize>();
        violations(layers, rules, &Tracer::disabled()).is_empty()
    });
    tracer.add("drc.rects_examined", examined as u64);
    if !clean {
        return None;
    }
    let rects_checked = prover.extents.of(root, Orientation::R0).ok()?.rects as usize;
    let proved = prover.verdicts.iter().flatten();
    let proved = proved.filter(|&&v| v != Verdict::Tangled).count();
    tracer.add("drc.cells_proved", proved as u64);
    tracer.add("drc.rects_checked", rects_checked as u64);
    tracer.add("drc.violations", 0);
    Some(Report {
        rules: rules.name.clone(),
        violations: Vec::new(),
        rects_checked,
    })
}

/// Copies of each cell in the design under `root`, or `None` when no
/// array is reachable from it.
fn copies_if_arrayed(lib: &Library, root: CellId) -> Option<Vec<u64>> {
    let mut copies = vec![0u64; lib.len()];
    *copies.get_mut(root.raw() as usize)? = 1;
    let mut arrayed = false;
    // Parents before children, so a cell's count is final when read.
    for id in lib.topological_order().into_iter().rev() {
        let n = copies[id.raw() as usize];
        for inst in lib.cell(id)?.instances().iter().filter(|_| n > 0) {
            arrayed |= inst.count() > 1;
            let slot = &mut copies[inst.cell.raw() as usize];
            *slot = slot.saturating_add(n.saturating_mul(inst.count()));
        }
    }
    arrayed.then_some(copies)
}

impl Prover<'_> {
    fn visit(&mut self, id: CellId) -> Verdict {
        let at = id.raw() as usize;
        if let Some(verdict) = self.verdicts[at] {
            return verdict;
        }
        let verdict = if self.splits(id) {
            Verdict::Split
        } else if self.copies[at] >= 2 {
            Verdict::Whole
        } else {
            Verdict::Tangled
        };
        self.verdicts[at] = Some(verdict);
        verdict
    }

    /// What the flat checker must see of a design whose root splits, as
    /// layer-indexed rectangles: the artwork of every cell reached through
    /// split cells alone, and each whole cell so reached, but nothing
    /// inside one (a tile's contact may lean on its parent's metal).
    /// `None` when a whole cell cannot be flattened.
    fn parts(&self, root: CellId) -> Option<Vec<Vec<Vec<Rect>>>> {
        let mut seen = vec![false; self.verdicts.len()];
        let (mut stack, mut out) = (vec![root], Vec::new());
        while let Some(id) = stack.pop() {
            let at = id.raw() as usize;
            if std::mem::replace(&mut seen[at], true) {
                continue;
            }
            // A split cell's children split or are whole.
            let Some(cell) = self
                .lib
                .cell(id)
                .filter(|_| self.verdicts[at] == Some(Verdict::Split))
            else {
                out.push(flatten_to_rects(self.lib, id).ok()?);
                continue;
            };
            if !cell.elements().is_empty() {
                out.push(rects_by_layer(cell.elements()));
            }
            stack.extend(cell.instances().iter().map(|i| i.cell));
        }
        Some(out)
    }

    /// True when `id`'s parts are all translations of provable cells and
    /// keep their clearances from each other.
    fn splits(&mut self, id: CellId) -> bool {
        let lib = self.lib;
        let Some(cell) = lib.cell(id) else {
            return false;
        };
        let mut own = [None; LAYERS];
        for e in cell.elements() {
            join(&mut own[e.layer.index()], e.bbox());
        }
        let mut parts = vec![own];
        for inst in cell.instances() {
            if inst.transform.orientation != Orientation::R0
                || inst.count() == 0
                || self.visit(inst.cell) == Verdict::Tangled
            {
                return false;
            }
            let Ok(tile) = self.extents.of(inst.cell, Orientation::R0) else {
                return false;
            };
            if !self.lattice_apart(&tile.layers, inst) {
                return false;
            }
            parts.push(tile.layers.map(|r| r.map(|r| spread(r, inst))));
        }
        self.parts_apart(&parts)
    }

    /// True when no two copies of an array come within clearance: for
    /// each layer pair, no lattice step but zero brings the tile's
    /// layer-b box within clearance of its layer-a box on both axes.
    fn lattice_apart(&self, tile: &Boxes, inst: &Instance) -> bool {
        inst.count() < 2
            || self.pairs(tile, tile).all(|(a, b, d)| {
                let i = steps(
                    a.left() - b.right() - d,
                    a.right() - b.left() + d,
                    inst.dx,
                    inst.cols,
                );
                let j = steps(
                    a.bottom() - b.top() - d,
                    a.top() - b.bottom() + d,
                    inst.dy,
                    inst.rows,
                );
                !matches!((i, j), (Some(i), Some(j)) if i != (0, 0) || j != (0, 0))
            })
    }

    /// True when no two of `parts` come within clearance; only parts
    /// whose bounding boxes are within the largest clearance are compared.
    fn parts_apart(&self, parts: &[Boxes]) -> bool {
        let parts: Vec<(Rect, &Boxes)> = parts
            .iter()
            .filter_map(|p| bbox(p).map(|b| (b, p)))
            .collect();
        let bounds: Vec<Rect> = parts.iter().map(|&(b, _)| b).collect();
        let index = RectIndex::build(&bounds);
        let mut near = Vec::new();
        for (i, &(b, p)) in parts.iter().enumerate() {
            index.query_into(b, self.reach, &mut near);
            let later = near.iter().map(|&j| j as usize).filter(|&j| j > i);
            if later.into_iter().any(|j| !self.apart(p, parts[j].1)) {
                return false;
            }
        }
        true
    }

    /// True when every layer pair of `p` and `q` keeps its clearance.
    fn apart(&self, p: &Boxes, q: &Boxes) -> bool {
        self.pairs(p, q).all(|(a, b, d)| {
            let (gx, gy) = a.axis_gaps(b);
            gx >= d || gy >= d
        })
    }

    /// Each layer pair with geometry in both `p` and `q` and a clearance
    /// to keep: `(p`'s box, `q`'s box, clearance`)`.
    fn pairs<'s>(
        &'s self,
        p: &'s Boxes,
        q: &'s Boxes,
    ) -> impl Iterator<Item = (Rect, Rect, Coord)> + 's {
        p.iter().zip(&self.clearance).flat_map(move |(a, row)| {
            q.iter()
                .zip(row)
                .filter_map(move |(b, &d)| Some(((*a)?, (*b)?, d)).filter(|_| d > 0))
        })
    }
}

/// The range of `k` in `-(n-1)..=n-1` with `lo < k·step < hi`, if any.
fn steps(lo: Coord, hi: Coord, step: Coord, n: u32) -> Option<(Coord, Coord)> {
    let last = Coord::from(n) - 1;
    let (lo, hi, step) = if step < 0 {
        (-hi, -lo, -step)
    } else {
        (lo, hi, step)
    };
    let (min, max) = match step {
        0 if lo < 0 && 0 < hi => (-last, last),
        0 => return None,
        _ => (lo.div_euclid(step) + 1, (hi - 1).div_euclid(step)),
    };
    let (min, max) = (min.max(-last), max.min(last));
    (min <= max).then_some((min, max))
}

/// `r` over every copy of `inst`: from the first to the last.
fn spread(r: Rect, inst: &Instance) -> Rect {
    let at = inst.transform.offset.to_vector();
    let last = Vector::new(
        at.x + inst.dx * Coord::from(inst.cols - 1),
        at.y + inst.dy * Coord::from(inst.rows - 1),
    );
    r.translate(at).union(r.translate(last))
}

fn join(slot: &mut Option<Rect>, r: Rect) {
    *slot = Some(slot.map_or(r, |s| s.union(r)));
}

fn bbox(boxes: &Boxes) -> Option<Rect> {
    boxes.iter().flatten().copied().reduce(|a, b| a.union(b))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steps_are_the_lattice_points_strictly_inside() {
        // k·5 in (-7, 12): k = -1..=2, clamped to four columns (±3).
        assert_eq!(steps(-7, 12, 5, 4), Some((-1, 2)));
        // A negative pitch mirrors the range.
        assert_eq!(steps(-7, 12, -5, 4), Some((-2, 1)));
        // Bounds are open: k·5 in (-5, 5) is k = 0 alone.
        assert_eq!(steps(-5, 5, 5, 9), Some((0, 0)));
        // Clamped to the array, and empty once outside it.
        assert_eq!(steps(-100, 100, 5, 3), Some((-2, 2)));
        assert_eq!(steps(20, 30, 5, 3), None);
        // A zero pitch puts every copy at zero.
        assert_eq!(steps(-1, 1, 0, 3), Some((-2, 2)));
        assert_eq!(steps(1, 4, 0, 3), None);
    }
}
