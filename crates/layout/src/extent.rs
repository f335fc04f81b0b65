use crate::{CellId, Layer, LayoutError, Library, Shape};
use silc_geom::{Orientation, Point, Rect, Transform};

/// What the hierarchy under a cell expands to — per-layer bounding boxes
/// and element and rectangle counts — computed without expanding it.
///
/// Each cell is summarised once per orientation it is placed in, however
/// many copies the design holds, so a 96×96 array costs what one tile
/// does. Every field equals what flattening would measure:
/// [`flatten`](crate::flatten)'s length, the element bounding boxes, and
/// [`flatten_to_rects`](crate::flatten_to_rects)'s total.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Extent {
    /// Bounding box of each layer's artwork, indexed by [`Layer::index`].
    pub layers: [Option<Rect>; Layer::ALL.len()],
    /// Artwork elements after expansion.
    pub elements: u64,
    /// Rectangles after expansion.
    pub rects: u64,
}

impl Extent {
    /// Bounding box of all the artwork (`None` for an empty design).
    pub fn bbox(&self) -> Option<Rect> {
        self.layers
            .iter()
            .flatten()
            .copied()
            .reduce(|a, b| a.union(b))
    }
}

/// The [`Extent`]s of one library's cells, each computed once.
#[derive(Debug)]
pub struct Extents<'a> {
    lib: &'a Library,
    /// Where in `memo` each `(cell, orientation)` sits, at
    /// `cell · 8 + orientation`; `u32::MAX` until computed.
    slots: Vec<u32>,
    memo: Vec<Extent>,
}

impl<'a> Extents<'a> {
    /// An empty memo over `lib`.
    pub fn new(lib: &'a Library) -> Extents<'a> {
        Extents {
            lib,
            slots: vec![u32::MAX; lib.len() * Orientation::ALL.len()],
            memo: Vec::new(),
        }
    }

    /// The extent of `id` placed at the origin under `orientation`.
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError::UnknownCell`] if `id` is not in the library.
    pub fn of(&mut self, id: CellId, orientation: Orientation) -> Result<Extent, LayoutError> {
        let cell = self.lib.cell(id).ok_or(LayoutError::UnknownCell { id })?;
        let slot = id.raw() as usize * Orientation::ALL.len() + orientation as usize;
        if let Some(&extent) = self.memo.get(self.slots[slot] as usize) {
            return Ok(extent);
        }
        let t = Transform::new(orientation, Point::ORIGIN);
        let mut out = Extent::default();
        for e in cell.elements() {
            // A box, by far the common shape, needs no transformed copy.
            let (bbox, rects) = match &e.shape {
                Shape::Rect(r) => (t.apply_rect(*r), 1),
                shape => {
                    let shape = shape.transform(t);
                    (shape.bbox(), shape.to_rects().len() as u64)
                }
            };
            let slot = &mut out.layers[e.layer.index()];
            *slot = Some(slot.map_or(bbox, |b| b.union(bbox)));
            out.elements += 1;
            out.rects += rects;
        }
        for inst in cell.instances().iter().filter(|i| i.count() > 0) {
            let child = self.of(inst.cell, orientation.compose(inst.transform.orientation))?;
            // Copies differ by a translation; the outermost two sit at
            // opposite corners of the array.
            let base = inst.transform.offset;
            let (first, last) = (
                t.apply(base).to_vector(),
                t.apply(Point::new(
                    base.x + inst.dx * i64::from(inst.cols - 1),
                    base.y + inst.dy * i64::from(inst.rows - 1),
                ))
                .to_vector(),
            );
            for (slot, r) in out.layers.iter_mut().zip(child.layers) {
                if let Some(r) = r {
                    let spread = r.translate(first).union(r.translate(last));
                    *slot = Some(slot.map_or(spread, |b| b.union(spread)));
                }
            }
            out.elements = out
                .elements
                .saturating_add(child.elements.saturating_mul(inst.count()));
            out.rects = out
                .rects
                .saturating_add(child.rects.saturating_mul(inst.count()));
        }
        self.slots[slot] = self.memo.len() as u32;
        self.memo.push(out);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{flatten, flatten_to_rects, Cell, Element, Instance};
    use proptest::prelude::*;
    use silc_geom::Path;

    fn flat_bbox(flat: &[Element]) -> Option<Rect> {
        flat.iter().map(Element::bbox).reduce(|a, b| a.union(b))
    }

    fn rect(x: i64, y: i64, w: i64, h: i64) -> Rect {
        Rect::from_origin_size(Point::new(x, y), w, h).unwrap()
    }

    /// A leaf with an odd-width wire (its bounding box is not symmetric,
    /// so it does not commute with a rotation) under a random transform
    /// stack of arrays and single placements.
    fn library(o: [usize; 3], arrays: [(u32, u32, i64, i64); 2]) -> (Library, CellId) {
        let mut lib = Library::new();
        let mut leaf = Cell::new("leaf");
        leaf.push_element(Element::rect(Layer::Metal, rect(0, 0, 3, 7)));
        let wire = Path::new(
            3,
            vec![Point::new(1, 1), Point::new(9, 1), Point::new(9, 5)],
        )
        .unwrap();
        leaf.push_element(Element::new(Layer::Poly, wire));
        let leaf = lib.add_cell(leaf).unwrap();
        let mut mid = Cell::new("mid");
        let (cols, rows, dx, dy) = arrays[0];
        let t = Transform::new(Orientation::ALL[o[0]], Point::new(5, -3));
        mid.push_instance(Instance::array(leaf, t, cols, rows, dx, dy).unwrap());
        mid.push_element(Element::rect(Layer::Diffusion, rect(-4, 2, 2, 2)));
        let mid = lib.add_cell(mid).unwrap();
        let mut top = Cell::new("top");
        let (cols, rows, dx, dy) = arrays[1];
        let t = Transform::new(Orientation::ALL[o[1]], Point::new(-20, 11));
        top.push_instance(Instance::array(mid, t, cols, rows, dx, dy).unwrap());
        let t = Transform::new(Orientation::ALL[o[2]], Point::new(40, 0));
        top.push_instance(Instance::place(leaf, t));
        let top = lib.add_cell(top).unwrap();
        (lib, top)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn extent_is_what_flattening_measures(
            o in (0usize..8, 0usize..8, 0usize..8),
            a in (1u32..4, 1u32..4, -30i64..30, -30i64..30),
            b in (1u32..4, 1u32..4, -60i64..60, -60i64..60),
            outer in 0usize..8,
        ) {
            let (lib, top) = library([o.0, o.1, o.2], [a, b]);
            let mut extents = Extents::new(&lib);
            let extent = extents.of(top, Orientation::R0).unwrap();
            let flat = flatten(&lib, top).unwrap();
            prop_assert_eq!(extent.elements, flat.len() as u64);
            prop_assert_eq!(extent.bbox(), flat_bbox(&flat));
            let layers = flatten_to_rects(&lib, top).unwrap();
            prop_assert_eq!(extent.rects, layers.iter().map(Vec::len).sum::<usize>() as u64);
            for layer in Layer::ALL {
                let on_layer = flat.iter().filter(|f| f.layer == layer);
                let want = on_layer.map(Element::bbox).reduce(|a, b| a.union(b));
                prop_assert_eq!(extent.layers[layer.index()], want);
            }
            // Under an outer orientation: what a parent placing `top` so sees.
            let mut outer_lib = lib.clone();
            let mut wrap = Cell::new("wrap");
            let t = Transform::new(Orientation::ALL[outer], Point::ORIGIN);
            wrap.push_instance(Instance::place(top, t));
            let wrap = outer_lib.add_cell(wrap).unwrap();
            let flat = flatten(&outer_lib, wrap).unwrap();
            let turned = extents.of(top, Orientation::ALL[outer]).unwrap();
            prop_assert_eq!(turned.bbox(), flat_bbox(&flat));
        }
    }

    #[test]
    fn unknown_cell_rejected() {
        let lib = Library::new();
        let err = Extents::new(&lib).of(CellId::from_raw(3), Orientation::R0);
        assert!(matches!(err, Err(LayoutError::UnknownCell { .. })));
    }
}
