use silc_geom::{band_decompose, Bands, Coord, Point, Rect, RectIndex};

/// A connected group of merged rectangles on one layer — one electrical
/// region of mask geometry.
///
/// The bounding box is computed once at construction and used as a cheap
/// prefilter by [`touches_rect`](Region::touches_rect) and
/// [`contains_point`](Region::contains_point): most probes miss the bbox
/// and never scan the rectangle list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Region {
    /// Disjoint rectangles covering the region exactly.
    rects: Vec<Rect>,
    /// Union of all rects, cached at construction.
    bbox: Rect,
}

impl Region {
    /// Builds a region from its covering rectangles.
    ///
    /// # Panics
    ///
    /// Panics on an empty rectangle list, which [`merge_rects`] never
    /// produces.
    pub fn new(rects: Vec<Rect>) -> Region {
        let bbox = rects
            .iter()
            .copied()
            .reduce(|a, b| a.union(b))
            .expect("regions are non-empty");
        Region { rects, bbox }
    }

    /// Bounding box of the region (cached; O(1)).
    pub fn bbox(&self) -> Rect {
        self.bbox
    }

    /// The disjoint rectangles covering the region.
    pub fn rects(&self) -> &[Rect] {
        &self.rects
    }

    /// Total area (rects are disjoint, so a plain sum).
    pub fn area(&self) -> Coord {
        self.rects.iter().map(Rect::area).sum()
    }

    /// True when the region touches `r` (shares at least a boundary
    /// point). Bbox prefilter first, then the rect list.
    pub fn touches_rect(&self, r: Rect) -> bool {
        self.bbox.touches(r) && self.rects.iter().any(|a| a.touches(r))
    }

    /// True when `p` lies on or inside the region.
    pub fn contains_point(&self, p: Point) -> bool {
        self.bbox.contains_point(p) && self.rects.iter().any(|a| a.contains_point(p))
    }
}

/// A layer's merged geometry as one flat list: the disjoint maximal-band
/// rectangles of every region, regions in [`merge_rects`] order, each
/// region's rectangles contiguous. This is what the checker iterates and
/// indexes; [`merge_rects`] is the same data grouped into [`Region`]s.
#[derive(Debug, Default)]
pub(crate) struct Merged {
    pub(crate) rects: Vec<Rect>,
    /// End offset of each region in `rects`.
    ends: Vec<u32>,
}

impl Merged {
    /// The rectangles of each region, in region order.
    pub(crate) fn regions(&self) -> impl Iterator<Item = &[Rect]> {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        starts
            .zip(&self.ends)
            .map(|(start, &end)| &self.rects[start as usize..end as usize])
    }
}

/// Disjoint sets over `0..n`, for grouping what touches into regions and
/// nets. [`UnionFind::union`] makes the second set's representative the
/// merged set's, so the representatives, and any numbering derived from
/// them, depend only on the order of the unions.
#[derive(Debug)]
pub struct UnionFind {
    parent: Vec<u32>,
}

impl UnionFind {
    /// `n` singleton sets.
    ///
    /// # Panics
    ///
    /// Panics when `n` does not fit in a `u32`.
    pub fn new(n: usize) -> UnionFind {
        let n = u32::try_from(n).expect("at most 2^32 elements");
        UnionFind {
            parent: (0..n).collect(),
        }
    }

    /// Representative of `i`'s set, compressing the path walked.
    pub fn find(&mut self, mut i: usize) -> usize {
        let mut root = i;
        while self.parent[root] as usize != root {
            root = self.parent[root] as usize;
        }
        while self.parent[i] as usize != root {
            i = std::mem::replace(&mut self.parent[i], root as u32) as usize;
        }
        root
    }

    /// Merges the sets of `a` and `b`, under `b`'s representative.
    pub fn union(&mut self, a: usize, b: usize) {
        let (a, b) = (self.find(a), self.find(b));
        if a != b {
            self.parent[a] = b as u32;
        }
    }
}

/// [`merge_rects`] as a flat list.
pub(crate) fn merge_flat(rects: &[Rect]) -> Merged {
    let Bands {
        rects: bands,
        touching,
    } = band_decompose(rects);

    // Union-find over the touching pairs in ascending (i, j) order — the
    // order decides each region's representative, which breaks ties in
    // the sort below.
    let mut sets = UnionFind::new(bands.len());
    for (i, j) in touching {
        sets.union(i as usize, j as usize);
    }

    // Each region's bounding-box corner, kept at its representative.
    let roots: Vec<u32> = (0..bands.len()).map(|i| sets.find(i) as u32).collect();
    let mut corner = vec![(Coord::MAX, Coord::MAX); bands.len()];
    for (&root, rect) in roots.iter().zip(&bands) {
        let (left, bottom) = corner[root as usize];
        corner[root as usize] = (left.min(rect.left()), bottom.min(rect.bottom()));
    }
    // Regions by corner, ties in ascending representative order; the sort
    // is stable, so rects stay in band order within their region.
    let mut order: Vec<usize> = (0..bands.len()).collect();
    order.sort_by_key(|&i| (corner[roots[i] as usize], roots[i]));
    let ends = (1..=order.len())
        .filter(|&k| k == order.len() || roots[order[k]] != roots[order[k - 1]])
        .map(|k| k as u32)
        .collect();
    Merged {
        rects: order.iter().map(|&i| bands[i]).collect(),
        ends,
    }
}

/// Canonicalises a bag of (possibly overlapping) rectangles into disjoint
/// maximal-band rectangles, grouped into connected [`Region`]s.
///
/// The decomposition ([`band_decompose`]) sweeps the union bottom to top
/// into maximal horizontal spans, fused vertically while a span persists.
/// Two rects belong to the same region when they touch (edge or corner);
/// the sweep reports the touching pairs, so no rect is ever compared with
/// one that is not its neighbour.
///
/// Output is deterministic: regions sorted by `(bbox.left, bbox.bottom,
/// first-rect order)`, rects within a region in band order.
pub fn merge_rects(rects: &[Rect]) -> Vec<Region> {
    let merged = merge_flat(rects);
    merged.regions().map(|r| Region::new(r.to_vec())).collect()
}

/// True when the union of `rects` fully contains `r`: the all-rects
/// coverage test of the brute-force oracles. The checker proper asks
/// [`covered`], which looks only at an index's candidates.
pub fn region_contains_rect(rects: &[Rect], r: Rect) -> bool {
    let clipped: Vec<Rect> = rects.iter().filter_map(|a| a.intersection(r)).collect();
    silc_layout::union_area(&clipped) == r.area()
}

/// Reusable buffers for [`covered`]: what is left of the probe while the
/// covering rectangles are carved out of it.
#[derive(Debug, Default)]
pub struct Cover {
    left: Vec<Rect>,
    carved: Vec<Rect>,
}

impl Cover {
    /// Starts a test of whether `needed` gets covered.
    pub fn start(&mut self, needed: Rect) {
        self.left.clear();
        self.left.push(needed);
    }

    /// Carves `r` out of what is left; true once nothing is. A single
    /// `r` containing the whole probe answers in one step, which is the
    /// case for every clean gate and contact.
    pub fn add(&mut self, r: Rect) -> bool {
        self.carved.clear();
        for piece in &self.left {
            piece.subtract_into(r, &mut self.carved);
        }
        std::mem::swap(&mut self.left, &mut self.carved);
        self.left.is_empty()
    }
}

/// True when the rectangles of `index` fully cover `needed` (the
/// enclosure rules' coverage test). Only rectangles touching `needed`
/// can contribute, so only those are looked up; `cover` is scratch space
/// reused from call to call.
pub fn covered(index: &RectIndex, needed: Rect, cover: &mut Cover) -> bool {
    cover.start(needed);
    index.any(needed, 0, |_, r| cover.add(r))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn rect(x: i64, y: i64, w: i64, h: i64) -> Rect {
        Rect::from_origin_size(Point::new(x, y), w, h).unwrap()
    }

    #[test]
    fn disjoint_rects_are_separate_regions() {
        let regions = merge_rects(&[rect(0, 0, 2, 2), rect(10, 0, 2, 2)]);
        assert_eq!(regions.len(), 2);
    }

    #[test]
    fn overlapping_rects_merge() {
        let regions = merge_rects(&[rect(0, 0, 4, 4), rect(2, 2, 4, 4)]);
        assert_eq!(regions.len(), 1);
        assert_eq!(regions[0].area(), 28);
        // Rects inside a region are disjoint.
        let rs = regions[0].rects();
        for (i, a) in rs.iter().enumerate() {
            for b in &rs[i + 1..] {
                assert!(!a.overlaps(*b));
            }
        }
    }

    #[test]
    fn abutting_rects_merge_into_one_rect() {
        // Two abutting halves become a single rect after vertical merging.
        let regions = merge_rects(&[rect(0, 0, 4, 2), rect(0, 2, 4, 2)]);
        assert_eq!(regions.len(), 1);
        assert_eq!(regions[0].rects(), &[rect(0, 0, 4, 4)]);
    }

    #[test]
    fn corner_touching_rects_same_region() {
        let regions = merge_rects(&[rect(0, 0, 2, 2), rect(2, 2, 2, 2)]);
        assert_eq!(regions.len(), 1);
        assert_eq!(regions[0].rects().len(), 2);
    }

    #[test]
    fn identical_rects_deduplicate() {
        let regions = merge_rects(&[rect(0, 0, 5, 5), rect(0, 0, 5, 5)]);
        assert_eq!(regions.len(), 1);
        assert_eq!(regions[0].area(), 25);
    }

    #[test]
    fn empty_input() {
        assert!(merge_rects(&[]).is_empty());
    }

    #[test]
    fn bbox_is_cached_and_correct() {
        let region = Region::new(vec![rect(0, 0, 2, 2), rect(8, 6, 2, 2)]);
        assert_eq!(region.bbox(), rect(0, 0, 10, 8));
        // Prefilter rejects probes outside the bbox, accepts touching.
        assert!(!region.touches_rect(rect(20, 20, 2, 2)));
        assert!(region.touches_rect(rect(2, 2, 2, 2))); // corner of first rect
        assert!(!region.touches_rect(rect(4, 0, 1, 1))); // inside bbox, off both rects
        assert!(region.contains_point(Point::new(9, 7)));
        assert!(!region.contains_point(Point::new(5, 5)));
    }

    #[test]
    fn containment_test() {
        let cover = [rect(0, 0, 4, 4), rect(4, 0, 4, 4)];
        let index = RectIndex::build(&cover);
        let mut scratch = Cover::default();
        for (probe, inside) in [
            (rect(1, 1, 6, 2), true),
            (rect(1, 1, 8, 2), false),
            (rect(0, 0, 8, 4), true),
            (rect(1, 1, 2, 2), true), // one rect contains it
        ] {
            assert_eq!(region_contains_rect(&cover, probe), inside, "{probe}");
            assert_eq!(covered(&index, probe, &mut scratch), inside, "{probe}");
        }
        assert!(!region_contains_rect(&[], rect(0, 0, 1, 1)));
        assert!(!covered(
            &RectIndex::build(&[]),
            rect(0, 0, 1, 1),
            &mut scratch
        ));
    }

    /// Brute-force oracle: the pre-index merge algorithm, kept verbatim
    /// (modulo hashing → first-member grouping) for equivalence testing.
    fn merge_rects_brute(rects: &[Rect]) -> Vec<Region> {
        if rects.is_empty() {
            return Vec::new();
        }
        let mut ys: Vec<Coord> = rects.iter().flat_map(|r| [r.bottom(), r.top()]).collect();
        ys.sort_unstable();
        ys.dedup();
        let mut bands: Vec<Rect> = Vec::new();
        for w in ys.windows(2) {
            let (y0, y1) = (w[0], w[1]);
            let mut spans: Vec<(Coord, Coord)> = rects
                .iter()
                .filter(|r| r.bottom() <= y0 && y1 <= r.top())
                .map(|r| (r.left(), r.right()))
                .collect();
            if spans.is_empty() {
                continue;
            }
            spans.sort_unstable();
            let mut merged: Vec<(Coord, Coord)> = Vec::new();
            for (lo, hi) in spans {
                match merged.last_mut() {
                    Some(last) if lo <= last.1 => last.1 = last.1.max(hi),
                    _ => merged.push((lo, hi)),
                }
            }
            for (lo, hi) in merged {
                bands.push(Rect::new(Point::new(lo, y0), Point::new(hi, y1)).unwrap());
            }
        }
        bands.sort_by_key(|r| (r.left(), r.right(), r.bottom()));
        let mut merged: Vec<Rect> = Vec::new();
        for band in bands {
            match merged.last_mut() {
                Some(last)
                    if last.left() == band.left()
                        && last.right() == band.right()
                        && last.top() == band.bottom() =>
                {
                    *last = last.union(band);
                }
                _ => merged.push(band),
            }
        }
        let n = merged.len();
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(parent: &mut [usize], i: usize) -> usize {
            if parent[i] != i {
                let root = find(parent, parent[i]);
                parent[i] = root;
            }
            parent[i]
        }
        for (i, a) in merged.iter().enumerate() {
            for (j, b) in merged.iter().enumerate().skip(i + 1) {
                if a.touches(*b) {
                    let (a, b) = (find(&mut parent, i), find(&mut parent, j));
                    if a != b {
                        parent[a] = b;
                    }
                }
            }
        }
        let mut groups: std::collections::BTreeMap<usize, Vec<Rect>> =
            std::collections::BTreeMap::new();
        for (i, &r) in merged.iter().enumerate() {
            let root = find(&mut parent, i);
            groups.entry(root).or_default().push(r);
        }
        let mut regions: Vec<Region> = groups.into_values().map(Region::new).collect();
        regions.sort_by_key(|r| {
            let b = r.bbox();
            (b.left(), b.bottom())
        });
        regions
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn merge_preserves_area_and_disjointness(
            specs in prop::collection::vec((0i64..30, 0i64..30, 1i64..10, 1i64..10), 1..12),
        ) {
            let rects: Vec<_> = specs.iter().map(|&(x, y, w, h)| rect(x, y, w, h)).collect();
            let regions = merge_rects(&rects);
            let merged_area: i64 = regions.iter().map(Region::area).sum();
            // The union's area, one unit square at a time.
            let grid_area = (0i64..40)
                .flat_map(|x| (0i64..40).map(move |y| rect(x, y, 1, 1)))
                .filter(|&unit| rects.iter().any(|r| r.contains_rect(unit)))
                .count();
            prop_assert_eq!(merged_area, grid_area as i64);
            // All rects across all regions are pairwise disjoint.
            let all: Vec<Rect> = regions.iter().flat_map(|r| r.rects().to_vec()).collect();
            for (i, a) in all.iter().enumerate() {
                for b in &all[i + 1..] {
                    prop_assert!(!a.overlaps(*b), "{a} overlaps {b}");
                }
            }
            // Different regions never touch.
            for (i, ra) in regions.iter().enumerate() {
                for rb in &regions[i + 1..] {
                    for a in ra.rects() {
                        prop_assert!(!rb.touches_rect(*a));
                    }
                }
            }
        }

        #[test]
        fn merge_matches_brute_force(
            specs in prop::collection::vec((0i64..40, 0i64..40, 1i64..12, 1i64..12), 1..40),
            wires in prop::collection::vec((6i64..16, 3i64..9, 1i64..5), 8..40),
            clusters in prop::collection::vec(
                (0i64..3, 0i64..3, 0i64..24, 0i64..24, 1i64..8, 1i64..8), 16..60),
        ) {
            let rects: Vec<_> = specs.iter().map(|&(x, y, w, h)| rect(x, y, w, h)).collect();
            prop_assert_eq!(merge_rects(&rects), merge_rects_brute(&rects));
            // Decoder-like: L-shaped wires, every one at its own y.
            let rects: Vec<_> = (0i64..)
                .zip(&wires)
                .flat_map(|(i, &(pitch, run, width))| {
                    let (x, y) = (i * pitch, -10 - i * run);
                    [rect(x, y, width, 12 - y), rect(-10, y, x + 10 + width, width)]
                })
                .collect();
            prop_assert_eq!(merge_rects(&rects), merge_rects_brute(&rects));
            // Sparse: clusters a million lambda and more apart.
            let rects: Vec<_> = clusters
                .iter()
                .map(|&(cx, cy, x, y, w, h)| rect(cx * 1_000_000 + x, cy * 3_000_000 + y, w, h))
                .collect();
            prop_assert_eq!(merge_rects(&rects), merge_rects_brute(&rects));
        }
    }
}
