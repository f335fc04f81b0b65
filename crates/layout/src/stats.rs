use crate::{flat_bbox, flatten, rects_by_layer, CellId, LayoutError, Library};
use silc_geom::{band_decompose, Coord, Rect};

/// Exact area of the union of a set of rectangles (overlaps counted once):
/// the summed area of the disjoint rectangles [`band_decompose`] cuts the
/// union into.
///
/// This is how mask-level area is measured: generators routinely overlap
/// rectangles (wire joints, contact surrounds) and double-counting would
/// distort every area experiment.
///
/// # Example
///
/// ```
/// use silc_layout::union_area;
/// use silc_geom::{Point, Rect};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let a = Rect::new(Point::new(0, 0), Point::new(4, 4))?;
/// let b = Rect::new(Point::new(2, 2), Point::new(6, 6))?;
/// assert_eq!(union_area(&[a, b]), 16 + 16 - 4);
/// # Ok(())
/// # }
/// ```
pub fn union_area(rects: &[Rect]) -> Coord {
    band_decompose(rects).rects.iter().map(Rect::area).sum()
}

/// Summary statistics for a cell hierarchy — the measurements experiments
/// E2/E3/E6 report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellStats {
    /// Name of the root cell.
    pub name: String,
    /// Artwork elements in the root's *definition* (pre-expansion).
    pub local_elements: usize,
    /// Artwork elements after full expansion.
    pub flat_elements: usize,
    /// Bounding box of the expanded design (None for an empty cell).
    pub bbox: Option<Rect>,
    /// Union area per layer, indexed by [`Layer::index`](crate::Layer::index).
    pub area_by_layer: Vec<Coord>,
}

impl CellStats {
    /// Computes statistics for `root`.
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError::UnknownCell`] if `root` is not in the
    /// library.
    pub fn compute(lib: &Library, root: CellId) -> Result<CellStats, LayoutError> {
        let cell = lib
            .cell(root)
            .ok_or(LayoutError::UnknownCell { id: root })?;
        let flat = flatten(lib, root)?;
        Ok(CellStats {
            name: cell.name().to_string(),
            local_elements: cell.elements().len(),
            flat_elements: flat.len(),
            bbox: flat_bbox(&flat),
            area_by_layer: rects_by_layer(&flat)
                .iter()
                .map(|v| union_area(v))
                .collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cell, Element, Instance, Layer};
    use proptest::prelude::*;
    use silc_geom::{Point, Transform};

    fn rect(x: i64, y: i64, w: i64, h: i64) -> Rect {
        Rect::from_origin_size(Point::new(x, y), w, h).unwrap()
    }

    #[test]
    fn union_of_disjoint_adds() {
        assert_eq!(union_area(&[rect(0, 0, 2, 2), rect(10, 10, 3, 3)]), 4 + 9);
    }

    #[test]
    fn union_of_identical_counts_once() {
        assert_eq!(union_area(&[rect(0, 0, 5, 5), rect(0, 0, 5, 5)]), 25);
    }

    #[test]
    fn union_of_overlapping() {
        assert_eq!(union_area(&[rect(0, 0, 4, 4), rect(2, 2, 4, 4)]), 28);
    }

    #[test]
    fn union_of_nested() {
        assert_eq!(union_area(&[rect(0, 0, 10, 10), rect(3, 3, 2, 2)]), 100);
    }

    #[test]
    fn union_empty() {
        assert_eq!(union_area(&[]), 0);
    }

    #[test]
    fn union_cross_shape() {
        // Plus sign: horizontal 10x2 and vertical 2x10 crossing at centre.
        let h = rect(-5, -1, 10, 2);
        let v = rect(-1, -5, 2, 10);
        assert_eq!(union_area(&[h, v]), 20 + 20 - 4);
    }

    #[test]
    fn stats_of_array() {
        let mut lib = Library::new();
        let mut bit = Cell::new("bit");
        bit.push_element(Element::rect(Layer::Metal, rect(0, 0, 3, 3)));
        let bit_id = lib.add_cell(bit).unwrap();
        let mut word = Cell::new("word");
        word.push_instance(Instance::array(bit_id, Transform::IDENTITY, 8, 1, 4, 0).unwrap());
        let word_id = lib.add_cell(word).unwrap();

        let stats = CellStats::compute(&lib, word_id).unwrap();
        assert_eq!(stats.local_elements, 0);
        assert_eq!(stats.flat_elements, 8);
        // 3-wide boxes on a 4 pitch: disjoint, 8 * 9 = 72.
        assert_eq!(stats.area_by_layer[Layer::Metal.index()], 72);
        assert_eq!(stats.area_by_layer.iter().sum::<Coord>(), 72);
        assert_eq!(stats.bbox.unwrap(), rect(0, 0, 4 * 7 + 3, 3));
    }

    #[test]
    fn stats_of_empty_cell() {
        let mut lib = Library::new();
        let id = lib.add_cell(Cell::new("void")).unwrap();
        let stats = CellStats::compute(&lib, id).unwrap();
        assert_eq!(stats.bbox, None);
        assert_eq!(stats.flat_elements, 0);
        assert!(stats.area_by_layer.iter().all(|&a| a == 0));
    }

    /// Brute-force union area on a small grid for cross-checking.
    fn naive_union_area(rects: &[Rect]) -> i64 {
        let mut count = 0;
        for x in -20..60i64 {
            for y in -20..60i64 {
                let cell = rect(x, y, 1, 1);
                if rects.iter().any(|r| r.contains_rect(cell)) {
                    count += 1;
                }
            }
        }
        count
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn sweep_matches_naive(specs in prop::collection::vec((0i64..30, 0i64..30, 1i64..12, 1i64..12), 1..12)) {
            let rects: Vec<_> = specs.iter().map(|&(x, y, w, h)| rect(x, y, w, h)).collect();
            prop_assert_eq!(union_area(&rects), naive_union_area(&rects));
        }

        #[test]
        fn union_bounded_by_sum_and_bbox(specs in prop::collection::vec((0i64..30, 0i64..30, 1i64..12, 1i64..12), 1..12)) {
            let rects: Vec<_> = specs.iter().map(|&(x, y, w, h)| rect(x, y, w, h)).collect();
            let u = union_area(&rects);
            let sum: i64 = rects.iter().map(|r| r.area()).sum();
            let bbox = rects.iter().copied().reduce(|a, b| a.union(b)).unwrap();
            prop_assert!(u <= sum);
            prop_assert!(u <= bbox.area());
            prop_assert!(u >= rects.iter().map(|r| r.area()).max().unwrap());
        }
    }
}
