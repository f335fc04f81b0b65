//! # Spatial indexing for rectangle sets
//!
//! The geometry kernel behind the design-rule checker, the circuit
//! extractor and the router's obstruction map. All three keep asking
//! *which rectangles lie within distance `s` of this one?*, and scanning
//! every rectangle for the answer is O(n²) over a flat layout.
//! [`RectIndex`] bins rectangles into a uniform grid, so a lookup inspects
//! only the bins the probe (grown by its margin) overlaps. Its contract:
//!
//! * **Bounded grid.** The bin edge is the power of two at or below
//!   `max(2·mean feature, √(extent area / n))`, doubled until the grid
//!   has at most `4·n` bins: index memory follows the rectangle count
//!   whatever the extent. Sizing is done in 128-bit arithmetic and cannot
//!   overflow; binning a coordinate is a shift.
//! * **No allocation per lookup.** [`RectIndex::query_into`] fills a
//!   caller-owned buffer and [`RectIndex::any`] calls a visitor.
//! * **Deterministic order.** `query_into` yields ids in ascending
//!   insertion order, so algorithms built on the index produce output
//!   byte-identical to their brute-force counterparts.
//! * **CSR storage, anchor deduplication.** Bins are one flat
//!   `starts`/`entries` pair; a rectangle spanning several bins is reported
//!   once per lookup, from the first bin of the lookup window it occupies.
//! * **Small inputs skip the grid** and are scanned.
//!
//! [`band_decompose`] is the companion sweep: it cuts a bag of overlapping
//! rectangles into disjoint maximal horizontal bands (the canonical form
//! the DRC merges regions from) and reports which of them touch.

use crate::{Coord, Point, Rect};

/// Inputs smaller than this skip grid construction; linear scans win.
const GRID_THRESHOLD: usize = 16;

/// A uniform-grid spatial index over a fixed set of rectangles.
///
/// Build once with [`RectIndex::build`], then run any number of
/// [`query_into`](RectIndex::query_into) / [`any`](RectIndex::any) /
/// [`query_point_into`](RectIndex::query_point_into) lookups. Rectangle
/// ids are indices into the original slice (and into
/// [`rect`](RectIndex::rect)).
///
/// # Example
///
/// ```
/// use silc_geom::{Point, Rect, RectIndex};
/// # fn main() -> Result<(), silc_geom::GeomError> {
/// let rects = vec![
///     Rect::new(Point::new(0, 0), Point::new(2, 2))?,
///     Rect::new(Point::new(10, 10), Point::new(12, 12))?,
/// ];
/// let index = RectIndex::build(&rects);
/// let mut near = Vec::new();
/// // Only the nearby rect is a candidate within margin 3.
/// index.query_into(rects[0], 3, &mut near);
/// assert_eq!(near, [0]);
/// index.query_into(rects[0], 20, &mut near);
/// assert_eq!(near, [0, 1]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct RectIndex {
    rects: Vec<Rect>,
    grid: Option<Grid>,
}

#[derive(Debug, Clone)]
struct Grid {
    origin: Point,
    /// Bins are `1 << shift` lambda on a side.
    shift: u32,
    nx: u32,
    ny: u32,
    /// CSR row starts, length `nx * ny + 1`.
    starts: Vec<u32>,
    /// Rectangle ids, grouped by bin, ascending within a bin.
    entries: Vec<u32>,
    /// Per-rectangle minimum (bx, by) bin, for anchor deduplication.
    anchors: Vec<(u32, u32)>,
}

impl Grid {
    /// The bin (along one axis of `n` bins starting at `origin`) holding
    /// coordinate `v`; coordinates outside the grid clamp to its ends.
    fn bin_of(&self, v: Coord, origin: Coord, n: u32) -> u32 {
        if v <= origin {
            return 0;
        }
        (v.abs_diff(origin) >> self.shift).min(u64::from(n - 1)) as u32
    }

    /// The inclusive bin window `(bx0, by0, bx1, by1)` of `[l, b, r, t]`.
    fn window(&self, [l, b, r, t]: [Coord; 4]) -> (u32, u32, u32, u32) {
        (
            self.bin_of(l, self.origin.x, self.nx),
            self.bin_of(b, self.origin.y, self.ny),
            self.bin_of(r, self.origin.x, self.nx),
            self.bin_of(t, self.origin.y, self.ny),
        )
    }
}

impl RectIndex {
    /// Builds an index over `rects`. Ids are slice positions.
    pub fn build(rects: &[Rect]) -> RectIndex {
        let rects = rects.to_vec();
        if rects.len() < GRID_THRESHOLD {
            return RectIndex { rects, grid: None };
        }
        let bounds = rects
            .iter()
            .copied()
            .reduce(|a, b| a.union(b))
            .expect("len checked above");
        let origin = bounds.min();
        let n = rects.len() as u128;
        let width = u128::from(bounds.right().abs_diff(bounds.left()));
        let height = u128::from(bounds.top().abs_diff(bounds.bottom()));
        let mean_dim = rects
            .iter()
            .map(|r| {
                (u128::from(r.right().abs_diff(r.left()))
                    + u128::from(r.top().abs_diff(r.bottom())))
                    / 2
            })
            .sum::<u128>()
            / n;

        // Bin edge: twice the mean feature, but not so fine that an evenly
        // spread layout would get much more than a bin per rectangle;
        // doubling then caps skewed extents at four bins per rectangle
        // (at shift 63 an axis has two bins at most, so the loop ends).
        let bins = |shift: u32| ((width >> shift) + 1) * ((height >> shift) + 1);
        let max_bins = (4 * n).min(u128::from(u32::MAX));
        let edge = (2 * mean_dim).max((width * height / n).isqrt()).max(1);
        let mut shift = edge.ilog2().min(63);
        while bins(shift) > max_bins {
            shift += 1;
        }
        let mut grid = Grid {
            origin,
            shift,
            nx: ((width >> shift) + 1) as u32,
            ny: ((height >> shift) + 1) as u32,
            starts: Vec::new(),
            entries: Vec::new(),
            anchors: Vec::new(),
        };

        // CSR fill: count, prefix-sum, scatter.
        let nx = grid.nx as usize;
        let windows: Vec<(u32, u32, u32, u32)> = rects
            .iter()
            .map(|r| grid.window([r.left(), r.bottom(), r.right(), r.top()]))
            .collect();
        let bins_of = |&(bx0, by0, bx1, by1): &(u32, u32, u32, u32)| {
            (by0..=by1)
                .flat_map(move |by| (bx0..=bx1).map(move |bx| by as usize * nx + bx as usize))
        };
        let mut starts = vec![0u32; nx * grid.ny as usize + 1];
        for bin in windows.iter().flat_map(bins_of) {
            starts[bin + 1] += 1;
        }
        for i in 1..starts.len() {
            starts[i] += starts[i - 1];
        }
        let mut cursor = starts.clone();
        grid.entries = vec![0u32; starts[starts.len() - 1] as usize];
        for (id, window) in (0u32..).zip(&windows) {
            for bin in bins_of(window) {
                grid.entries[cursor[bin] as usize] = id;
                cursor[bin] += 1;
            }
        }
        grid.starts = starts;
        grid.anchors = windows.iter().map(|w| (w.0, w.1)).collect();
        RectIndex {
            rects,
            grid: Some(grid),
        }
    }

    /// Number of indexed rectangles.
    pub fn len(&self) -> usize {
        self.rects.len()
    }

    /// True when the index holds no rectangles.
    pub fn is_empty(&self) -> bool {
        self.rects.is_empty()
    }

    /// Number of grid bins behind this index (at most `4 · len()`), or 0
    /// when the input was small enough that lookups are linear scans.
    pub fn bin_count(&self) -> usize {
        self.grid.as_ref().map_or(0, |g| g.starts.len() - 1)
    }

    /// The indexed rectangle with id `id`.
    pub fn rect(&self, id: u32) -> Rect {
        self.rects[id as usize]
    }

    /// Calls `visit(id, rect)` for every rectangle touching the closed
    /// window `[l, b, r, t]`, once each, in no particular order, until a
    /// call returns true; returns whether one did.
    fn scan(&self, window: [Coord; 4], mut visit: impl FnMut(u32, Rect) -> bool) -> bool {
        let [l, b, r, t] = window;
        let touches = |c: Rect| c.left() <= r && l <= c.right() && c.bottom() <= t && b <= c.top();
        let Some(grid) = &self.grid else {
            return (0u32..)
                .zip(&self.rects)
                .any(|(id, &c)| touches(c) && visit(id, c));
        };
        let (qbx0, qby0, qbx1, qby1) = grid.window(window);
        for by in qby0..=qby1 {
            for bx in qbx0..=qbx1 {
                let bin = by as usize * grid.nx as usize + bx as usize;
                let entries =
                    &grid.entries[grid.starts[bin] as usize..grid.starts[bin + 1] as usize];
                for &id in entries {
                    // Anchor dedup: only the first window bin this
                    // rectangle occupies reports it.
                    let (abx, aby) = grid.anchors[id as usize];
                    if abx.max(qbx0) != bx || aby.max(qby0) != by {
                        continue;
                    }
                    let c = self.rects[id as usize];
                    if touches(c) && visit(id, c) {
                        return true;
                    }
                }
            }
        }
        false
    }

    /// `probe` grown by `margin`, as a closed window.
    fn grown(probe: Rect, margin: Coord) -> [Coord; 4] {
        let g = probe.grow(margin, margin);
        [g.left(), g.bottom(), g.right(), g.top()]
    }

    /// Replaces the contents of `out` with the ids of every rectangle that
    /// touches (overlaps or abuts, including corner contact) `probe` grown
    /// outward by `margin`, in ascending id order. With `margin = s` that
    /// is a superset of every rectangle within spacing `s` of `probe` on
    /// both axes — the candidate set a spacing rule must examine.
    pub fn query_into(&self, probe: Rect, margin: Coord, out: &mut Vec<u32>) {
        out.clear();
        self.scan(Self::grown(probe, margin), |id, _| {
            out.push(id);
            false
        });
        // Ids ascend within a bin; only a multi-bin window needs sorting.
        if !out.is_sorted() {
            out.sort_unstable();
        }
    }

    /// True when `pred(id, rect)` holds for some rectangle touching
    /// `probe` grown by `margin`. Candidates are visited once each, in no
    /// particular order, and the scan stops at the first hit.
    pub fn any(&self, probe: Rect, margin: Coord, pred: impl FnMut(u32, Rect) -> bool) -> bool {
        self.scan(Self::grown(probe, margin), pred)
    }

    /// Fills `out` with the ids of every rectangle containing `p`
    /// (boundary inclusive), in ascending id order.
    pub fn query_point_into(&self, p: Point, out: &mut Vec<u32>) {
        out.clear();
        // A rectangle containing p occupies p's bin, so the window is one
        // bin and its entries already ascend.
        self.scan([p.x, p.y, p.x, p.y], |id, _| {
            out.push(id);
            false
        });
    }
}

/// What [`band_decompose`] makes of a bag of rectangles.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Bands {
    /// Disjoint maximal rectangles covering the union of the input exactly,
    /// sorted by `(left, right, bottom)`.
    pub rects: Vec<Rect>,
    /// Every pair `(i, j)`, `i < j`, of `rects` that touch (edge or
    /// corner), in ascending order: the connectivity of the union.
    pub touching: Vec<(u32, u32)>,
}

/// A maximal covered x-span of the band below the sweep line: the
/// rectangle `id` that opened at `y0` and is still growing upward.
#[derive(Clone, Copy)]
struct Span {
    lo: Coord,
    hi: Coord,
    y0: Coord,
    id: u32,
}

/// Sorts `items` by `(major, minor)`, keeping items equal in both in
/// their original order. One branch-free sort of packed `(major,
/// position)` integers orders the majors, several times faster than
/// comparing tuples; each run of equal majors is then put in minor order.
fn sort_by_two<T: Copy>(
    items: &mut Vec<T>,
    major: impl Fn(&T) -> Coord,
    minor: impl Fn(&T) -> Coord,
) {
    let mut keys: Vec<u128> = (0u128..)
        .zip(items.iter())
        .map(|(at, item)| (u128::from(major(item).abs_diff(Coord::MIN)) << 64) | at)
        .collect();
    keys.sort_unstable();
    *items = keys.iter().map(|&key| items[key as u64 as usize]).collect();
    for run in items.chunk_by_mut(|a, b| major(a) == major(b)) {
        run.sort_by_key(&minor);
    }
}

/// Decomposes a bag of (possibly overlapping) rectangles into disjoint
/// maximal rectangles by horizontal-band sweep.
///
/// The sweep line stops at every distinct rectangle bottom and top. It
/// keeps the x-intervals crossing the line sorted by left edge, and the
/// maximal covered spans of the band below. At a stop only the spans the
/// ending and starting intervals reach can change: one pass over that
/// window re-merges its intervals into the spans of the band above; a
/// span identical to one below is carried on, and a rectangle is emitted
/// only when a span closes. Beyond one scan for the intervals that end, a
/// stop costs what it changes, and the output is never sliced and
/// re-fused: a long wire crossing thousands of stops is emitted once.
///
/// Two output rectangles can only touch across a stop, one closing where
/// the other opens, so the sweep also reports every touching pair — the
/// region connectivity the DRC would otherwise need an index to find.
///
/// Output is deterministic and depends only on the union of the input.
pub fn band_decompose(rects: &[Rect]) -> Bands {
    // Rectangles enter the sweep in (bottom, left) order.
    let mut pending = rects.to_vec();
    pending.sort_unstable_by_key(|r| (r.bottom(), r.left()));
    let mut pending = pending.as_slice();

    // Intervals crossing the line, by left edge: (left, right, top).
    let mut active: Vec<(Coord, Coord, Coord)> = Vec::new();
    let mut expire = Coord::MAX; // lowest top among `active`
    let mut open: Vec<Span> = Vec::new();
    // Per stop: the window's intervals and spans above the line and the
    // spans that closed there, all ascending.
    let (mut crossing, mut above, mut closed) = (Vec::new(), Vec::<Span>::new(), Vec::new());
    // Output rectangles tagged with the order they opened in, and the
    // touching pairs in those tags.
    let mut out: Vec<(Rect, u32)> = Vec::new();
    let mut pairs: Vec<(u32, u32)> = Vec::new();
    let mut spans = 0u32;

    loop {
        let y = match (pending.first(), active.is_empty()) {
            (None, true) => break,
            (Some(r), true) => r.bottom(),
            (None, false) => expire,
            (Some(r), false) => expire.min(r.bottom()),
        };
        let entering = pending.iter().take_while(|r| r.bottom() == y).count();
        let (entering, rest) = pending.split_at(entering);
        pending = rest;

        // The x-range the ending and starting intervals cover, widened to
        // whole spans of the band below: nothing outside it changes.
        let (mut x0, mut x1) = (Coord::MAX, Coord::MIN);
        expire = Coord::MAX;
        for &(left, right, top) in &active {
            if top > y {
                expire = expire.min(top);
            } else {
                (x0, x1) = (x0.min(left), x1.max(right));
            }
        }
        for r in entering {
            expire = expire.min(r.top());
            (x0, x1) = (x0.min(r.left()), x1.max(r.right()));
        }
        let s0 = open.partition_point(|s| s.hi < x0);
        let s1 = open.partition_point(|s| s.lo <= x1);
        if s0 < s1 {
            (x0, x1) = (x0.min(open[s0].lo), x1.max(open[s1 - 1].hi));
        }
        let a0 = active.partition_point(|a| a.0 < x0);
        let a1 = active.partition_point(|a| a.0 <= x1);

        // Merge the window's surviving and entering intervals, in left
        // order, into the spans above the line.
        let (stay, below) = (&active[a0..a1], &open[s0..s1]);
        let (mut i, mut j, mut k) = (0, 0, 0);
        let mut span: Option<(Coord, Coord)> = None;
        loop {
            while i < stay.len() && stay[i].2 <= y {
                i += 1;
            }
            let next = if j < entering.len() && (i == stay.len() || entering[j].left() < stay[i].0)
            {
                j += 1;
                let r = entering[j - 1];
                Some((r.left(), r.right(), r.top()))
            } else {
                i += 1;
                stay.get(i - 1).copied()
            };
            match (next, &mut span) {
                (Some((l, r, _)), Some((_, hi))) if l <= *hi => *hi = (*hi).max(r),
                _ => {
                    if let Some((lo, hi)) = span {
                        // The span is complete: carry the identical span
                        // of the band below, close the ones left of it.
                        while k < below.len() && below[k].lo < lo {
                            closed.push(below[k]);
                            k += 1;
                        }
                        if k < below.len() && (below[k].lo, below[k].hi) == (lo, hi) {
                            above.push(below[k]);
                            k += 1;
                        } else {
                            let (y0, id) = (y, spans);
                            above.push(Span { lo, hi, y0, id });
                            spans += 1; // ids count spans in opening order
                        }
                    }
                    span = next.map(|(l, r, _)| (l, r));
                }
            }
            let Some(interval) = next else { break };
            crossing.push(interval);
        }
        closed.extend_from_slice(&below[k..]);

        // A closing span touches the spans above that its x-range meets
        // (all newly opened: carried ones kept their gap to it).
        let mut first = 0;
        for c in closed.drain(..) {
            let rect = Rect::new(Point::new(c.lo, c.y0), Point::new(c.hi, y));
            out.push((rect.expect("bands have extent"), c.id));
            while first < above.len() && above[first].hi < c.lo {
                first += 1;
            }
            let meets = above[first..].iter().take_while(|o| o.lo <= c.hi);
            pairs.extend(meets.map(|o| (c.id, o.id)));
        }
        active.splice(a0..a1, crossing.drain(..));
        open.splice(s0..s1, above.drain(..));
    }

    // Rectangles sharing a left edge are disjoint in y, and closed
    // bottom-up: a stable sort by (left, right) leaves them by bottom.
    sort_by_two(&mut out, |(r, _)| r.left(), |(r, _)| r.right());
    let mut at = vec![0u32; out.len()];
    for (i, &(_, id)) in (0u32..).zip(&out) {
        at[id as usize] = i;
    }
    let mut touching: Vec<(u32, u32)> = pairs
        .iter()
        .map(|&(a, b)| (at[a as usize], at[b as usize]))
        .map(|(a, b)| (a.min(b), a.max(b)))
        .collect();
    touching.sort_unstable();
    Bands {
        rects: out.into_iter().map(|(r, _)| r).collect(),
        touching,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn rect(x: i64, y: i64, w: i64, h: i64) -> Rect {
        Rect::from_origin_size(Point::new(x, y), w, h).unwrap()
    }

    /// `query_into` on a buffer that already holds stale ids, checked
    /// against the visitor: both lookups must report the same set.
    fn query(idx: &RectIndex, probe: Rect, margin: Coord) -> Vec<u32> {
        let mut out = vec![u32::MAX; 3];
        idx.query_into(probe, margin, &mut out);
        let mut visited = Vec::new();
        assert!(!idx.any(probe, margin, |id, r| {
            assert_eq!(r, idx.rect(id));
            visited.push(id);
            false
        }));
        visited.sort_unstable();
        assert_eq!(visited, out);
        assert!(idx.bin_count() <= 4 * idx.len().max(16));
        out
    }

    fn query_point(idx: &RectIndex, p: Point) -> Vec<u32> {
        let mut out = vec![u32::MAX; 3];
        idx.query_point_into(p, &mut out);
        out
    }

    /// Brute-force oracle for query().
    fn brute_query(rects: &[Rect], probe: Rect, margin: Coord) -> Vec<u32> {
        let grown = Rect::new(
            Point::new(probe.left() - margin, probe.bottom() - margin),
            Point::new(probe.right() + margin, probe.top() + margin),
        )
        .unwrap();
        (0..rects.len() as u32)
            .filter(|&i| rects[i as usize].touches(grown))
            .collect()
    }

    /// Decoder-like layouts: L-shaped wires, every one at its own y, the
    /// case a slice-per-band sweep is quadratic on.
    fn decoder_like(specs: &[(i64, i64, i64)]) -> Vec<Rect> {
        let mut rects = Vec::new();
        for (i, &(pitch, run, width)) in specs.iter().enumerate() {
            let (x, y) = (i as i64 * pitch, -10 - i as i64 * run);
            rects.push(rect(x, y, width, 12 - y)); // drop from the driver row
            rects.push(rect(-10, y, x + 10 + width, width)); // run to the bus
        }
        rects
    }

    /// Sparse layouts: small clusters a million lambda and more apart.
    fn sparse(specs: &[(i64, i64, i64, i64, i64, i64)]) -> Vec<Rect> {
        specs
            .iter()
            .map(|&(cx, cy, x, y, w, h)| rect(cx * 1_000_000 + x, cy * 3_000_000 + y, w, h))
            .collect()
    }

    #[test]
    fn small_input_linear_path() {
        let rects = vec![rect(0, 0, 2, 2), rect(5, 0, 2, 2), rect(100, 100, 2, 2)];
        let idx = RectIndex::build(&rects);
        assert_eq!(query(&idx, rects[0], 3), vec![0, 1]);
        assert_eq!(query(&idx, rects[0], 0), vec![0]);
        assert_eq!(idx.len(), 3);
        assert!(!idx.is_empty());
    }

    #[test]
    fn grid_path_finds_edge_and_corner_touches() {
        // 40 rects in a row, each abutting the next: force the grid path.
        let rects: Vec<Rect> = (0..40).map(|i| rect(i * 4, 0, 4, 4)).collect();
        let idx = RectIndex::build(&rects);
        assert!(idx.bin_count() > 0);
        // Rect 10 touches 9 and 11 (shared edges) at margin 0.
        assert_eq!(query(&idx, rects[10], 0), vec![9, 10, 11]);
        // Corner touch across a diagonal.
        let mut diag: Vec<Rect> = (0..20).map(|i| rect(i * 3, i * 3, 3, 3)).collect();
        diag.push(rect(100, 0, 2, 2)); // far away
        let idx = RectIndex::build(&diag);
        assert_eq!(query(&idx, diag[5], 0), vec![4, 5, 6]);
    }

    #[test]
    fn any_stops_at_the_first_hit() {
        let rects: Vec<Rect> = (0..40).map(|i| rect(i * 4, 0, 4, 4)).collect();
        let idx = RectIndex::build(&rects);
        let mut calls = 0;
        assert!(idx.any(rects[10], 0, |_, _| {
            calls += 1;
            true
        }));
        assert_eq!(calls, 1);
        assert!(!idx.any(rect(0, 100, 4, 4), 0, |_, _| true));
    }

    #[test]
    fn query_point_hits_boundary() {
        let rects: Vec<Rect> = (0..30).map(|i| rect(i * 10, 0, 5, 5)).collect();
        let idx = RectIndex::build(&rects);
        assert_eq!(query_point(&idx, Point::new(12, 3)), vec![1]);
        assert_eq!(query_point(&idx, Point::new(15, 5)), vec![1]); // corner
        assert!(query_point(&idx, Point::new(7, 3)).is_empty());
    }

    #[test]
    fn empty_index() {
        let idx = RectIndex::build(&[]);
        assert!(idx.is_empty());
        assert!(query(&idx, rect(0, 0, 1, 1), 100).is_empty());
        assert!(query_point(&idx, Point::ORIGIN).is_empty());
    }

    #[test]
    fn grid_is_bounded_by_the_rect_count_not_the_extent() {
        // Forty rects a billion lambda apart, then a pathologically thin
        // row, then coordinates at both ends of the range.
        let far: Vec<Rect> = (0..40).map(|i| rect(i * 1_000_000_000, i, 2, 2)).collect();
        let row: Vec<Rect> = (0..64).map(|i| rect(i * 1_000_000, 0, 1, 1)).collect();
        let mut ends = row.clone();
        ends.push(rect(i64::MIN, i64::MIN, 4, 4));
        ends.push(rect(i64::MAX - 4, i64::MAX - 4, 4, 4));
        for rects in [far, row, ends] {
            let idx = RectIndex::build(&rects);
            assert!(idx.bin_count() <= 4 * rects.len(), "{}", idx.bin_count());
            for (i, &r) in rects.iter().enumerate() {
                assert_eq!(query(&idx, r, 0), vec![i as u32]);
                let reach = r.grow(i64::MAX, i64::MAX);
                let within: Vec<u32> = (0..rects.len() as u32)
                    .filter(|&j| rects[j as usize].touches(reach))
                    .collect();
                assert_eq!(query(&idx, r, i64::MAX), within);
            }
        }
    }

    #[test]
    fn band_decompose_basics() {
        assert_eq!(band_decompose(&[]), Bands::default());
        // Two abutting halves fuse into one rect.
        let out = band_decompose(&[rect(0, 0, 4, 2), rect(0, 2, 4, 2)]).rects;
        assert_eq!(out, vec![rect(0, 0, 4, 4)]);
        // Overlap resolves to disjoint cover of the union.
        let out = band_decompose(&[rect(0, 0, 4, 4), rect(2, 2, 4, 4)]).rects;
        let area: i64 = out.iter().map(Rect::area).sum();
        assert_eq!(area, 28);
        for (i, a) in out.iter().enumerate() {
            for b in &out[i + 1..] {
                assert!(!a.overlaps(*b));
            }
        }
    }

    #[test]
    fn band_decompose_emits_a_crossed_wire_once() {
        // A tall wire passing 50 stubs that do not touch it stays one
        // rectangle: nothing is sliced at the stubs' tops and bottoms.
        let mut rects = vec![rect(0, 0, 4, 1000)];
        rects.extend((0..50).map(|i| rect(10, i * 20, 30, 4)));
        let out = band_decompose(&rects);
        assert_eq!(out.rects.len(), 51);
        assert_eq!(out.rects[0], rects[0]);
        assert!(out.touching.is_empty());
        // An L, a rect meeting its corner, and one a lambda away: bands
        // come out by (left, right, bottom), touching pairs ascending.
        let out = band_decompose(&[
            rect(0, 0, 2, 10),
            rect(0, 0, 10, 2),
            rect(10, 2, 3, 3),
            rect(3, 3, 2, 2),
        ]);
        let bands = vec![
            rect(0, 2, 2, 8),
            rect(0, 0, 10, 2),
            rect(3, 3, 2, 2),
            rect(10, 2, 3, 3),
        ];
        assert_eq!(out.rects, bands);
        assert_eq!(out.touching, vec![(0, 1), (1, 3)]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn query_matches_brute_force(
            specs in prop::collection::vec((0i64..60, 0i64..60, 1i64..10, 1i64..10), 1..60),
            wires in prop::collection::vec((6i64..16, 5i64..9, 2i64..5), 8..40),
            clusters in prop::collection::vec(
                (0i64..4, 0i64..4, 0i64..30, 0i64..30, 1i64..10, 1i64..10), 16..60),
            probe in (0i64..60, 0i64..60, 1i64..10, 1i64..10),
            pick in 0usize..80,
            margin in 0i64..8,
        ) {
            let rects: Vec<Rect> = specs.iter().map(|&(x, y, w, h)| rect(x, y, w, h)).collect();
            let idx = RectIndex::build(&rects);
            let p = rect(probe.0, probe.1, probe.2, probe.3);
            prop_assert_eq!(query(&idx, p, margin), brute_query(&rects, p, margin));
            for rects in [decoder_like(&wires), sparse(&clusters)] {
                let idx = RectIndex::build(&rects);
                let p = rects[pick % rects.len()];
                prop_assert_eq!(query(&idx, p, margin), brute_query(&rects, p, margin));
            }
        }

        #[test]
        fn query_point_matches_brute_force(
            specs in prop::collection::vec((0i64..40, 0i64..40, 1i64..8, 1i64..8), 1..50),
            px in 0i64..48, py in 0i64..48,
        ) {
            let rects: Vec<Rect> = specs.iter().map(|&(x, y, w, h)| rect(x, y, w, h)).collect();
            let idx = RectIndex::build(&rects);
            let p = Point::new(px, py);
            let brute: Vec<u32> = (0..rects.len() as u32)
                .filter(|&i| rects[i as usize].contains_point(p))
                .collect();
            prop_assert_eq!(query_point(&idx, p), brute);
        }

        #[test]
        fn band_decompose_preserves_area_and_disjointness(
            specs in prop::collection::vec((0i64..30, 0i64..30, 1i64..10, 1i64..10), 1..20),
        ) {
            let rects: Vec<Rect> = specs.iter().map(|&(x, y, w, h)| rect(x, y, w, h)).collect();
            let bands = band_decompose(&rects).rects;
            for (i, a) in bands.iter().enumerate() {
                for b in &bands[i + 1..] {
                    prop_assert!(!a.overlaps(*b), "{a} overlaps {b}");
                }
            }
            // Exact cover: every input corner-sample point is covered
            // iff some input rect covers it.
            for &(x, y, w, h) in &specs {
                let inner = Point::new(x + w / 2, y + h / 2);
                prop_assert!(bands.iter().any(|b| b.contains_point(inner)));
            }
            let total_input_bbox = rects.iter().copied().reduce(|a, b| a.union(b)).unwrap();
            let band_bbox = bands.iter().copied().reduce(|a, b| a.union(b)).unwrap();
            prop_assert_eq!(total_input_bbox, band_bbox);
        }
    }
}
