use crate::{Cell, CellId, Instance, Layer, LayoutError, Library, Shape};
use silc_geom::{Coord, Orientation, Point, Rect, Transform, Vector};

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

    /// Each layer's box over every copy of `inst`, as a parent turned by
    /// `o` sees it, when `self` is one copy's extent under `o`: the copies
    /// differ by a translation, so a box runs from the first copy to the
    /// last. `inst` must have a copy.
    pub fn spread(&self, inst: &Instance, o: Orientation) -> [Option<Rect>; Layer::ALL.len()] {
        let first = inst.transform.offset.to_vector();
        let (cols, rows) = (Coord::from(inst.cols - 1), Coord::from(inst.rows - 1));
        let last = o.apply(first + Vector::new(inst.dx * cols, inst.dy * rows));
        let first = o.apply(first);
        let span = |r: Rect| r.translate(first).union(r.translate(last));
        self.layers.map(|r| r.map(span))
    }
}

/// The [`Extent`] of every cell the design under one root reaches, under
/// every orientation it is reached in.
///
/// Ids run children before parents, so the table is two loops over them
/// and never a call stack: descending ids mark which of the eight
/// orientations reach each cell, starting from the root's `R0`; ascending
/// ids then sum each reached pair from the cell's own elements and its
/// children's entries, which are already in the table. Each cell is
/// summarised once per orientation it is reached in, however many copies
/// the design holds, so a 96×96 array costs what one tile does.
#[derive(Debug)]
pub struct Extents {
    /// Each cell's extent under each orientation the root reaches it in,
    /// indexed by raw id.
    table: Vec<Vec<(Orientation, Extent)>>,
}

impl Extents {
    /// The table of the design under `root`.
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError::UnknownCell`] if `root` is not in the library.
    pub fn new(lib: &Library, root: CellId) -> Result<Extents, LayoutError> {
        lib.cell(root)
            .ok_or(LayoutError::UnknownCell { id: root })?;
        let n = root.raw() as usize + 1;
        // Bit `o` of a cell's mask: the root reaches it under `ALL[o]`.
        let mut reach = vec![0u8; n];
        reach[n - 1] = 1 << Orientation::R0 as u8;
        for (id, cell) in lib.iter().take(n).rev() {
            for o in orientations(reach[id.raw() as usize]) {
                for i in cell.instances().iter().filter(|i| i.count() > 0) {
                    reach[i.cell.raw() as usize] |= 1 << o.compose(i.transform.orientation) as u8;
                }
            }
        }
        let mut extents = Extents { table: Vec::new() };
        for ((_, cell), mask) in lib.iter().zip(reach) {
            let mut entries = Vec::with_capacity(mask.count_ones() as usize);
            entries.extend(orientations(mask).map(|o| (o, sum(&extents, cell, o))));
            extents.table.push(entries);
        }
        Ok(extents)
    }

    /// The extent of the root itself.
    pub fn root(&self) -> Extent {
        // The root is the last cell, and only `R0` reaches it.
        self.table[self.table.len() - 1][0].1
    }

    /// The extent of `id` placed at the origin under `orientation`, or
    /// `None` when the root does not reach `id` so.
    pub fn of(&self, id: CellId, orientation: Orientation) -> Option<&Extent> {
        let entries = self.table.get(id.raw() as usize)?;
        entries.iter().find(|e| e.0 == orientation).map(|e| &e.1)
    }
}

/// `cell`'s extent under `o`, from its own elements and the entries `done`
/// holds for its children.
fn sum(done: &Extents, cell: &Cell, o: Orientation) -> Extent {
    let t = Transform::new(o, Point::ORIGIN);
    let mut out = Extent::default();
    for e in cell.elements() {
        let shape = e.shape.transform(t);
        let slot = &mut out.layers[e.layer.index()];
        *slot = Some(slot.map_or(shape.bbox(), |b| b.union(shape.bbox())));
        out.elements += 1;
        // A box, by far the common shape, is one rectangle: none is built.
        out.rects += match shape {
            Shape::Rect(_) => 1,
            shape => shape.to_rects().len() as u64,
        };
    }
    for inst in cell.instances().iter().filter(|i| i.count() > 0) {
        let turned = o.compose(inst.transform.orientation);
        let child = done
            .of(inst.cell, turned)
            .expect("children are summed first");
        for (slot, r) in out.layers.iter_mut().zip(child.spread(inst, o)) {
            if let Some(r) = r {
                *slot = Some(slot.map_or(r, |b| b.union(r)));
            }
        }
        out.elements = out
            .elements
            .saturating_add(child.elements.saturating_mul(inst.count()));
        out.rects = out
            .rects
            .saturating_add(child.rects.saturating_mul(inst.count()));
    }
    out
}

/// The orientations whose bits `mask` sets.
fn orientations(mask: u8) -> impl Iterator<Item = Orientation> {
    Orientation::ALL
        .into_iter()
        .filter(move |&o| mask & (1 << o as u8) != 0)
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

    /// The recursive walk `flatten` replaced: the oracle of its order.
    fn recursive_flatten(lib: &Library, id: CellId, t: Transform, out: &mut Vec<Element>) {
        let cell = lib.cell(id).unwrap();
        out.extend(cell.elements().iter().map(|e| e.transform(t)));
        for inst in cell.instances() {
            for placement in inst.placements() {
                recursive_flatten(lib, inst.cell, t.then(placement), out);
            }
        }
    }

    /// `extent` against what flattening the design under `root` measures.
    fn measures(lib: &Library, root: CellId, extent: Extent) -> Result<(), TestCaseError> {
        let flat = flatten(lib, root).unwrap();
        prop_assert_eq!(extent.elements, flat.len() as u64);
        prop_assert_eq!(extent.bbox(), flat_bbox(&flat));
        let layers = flatten_to_rects(lib, root).unwrap();
        prop_assert_eq!(
            extent.rects,
            layers.iter().map(Vec::len).sum::<usize>() as u64
        );
        for layer in Layer::ALL {
            let on_layer = flat.iter().filter(|f| f.layer == layer);
            let want = on_layer.map(Element::bbox).reduce(|a, b| a.union(b));
            prop_assert_eq!(extent.layers[layer.index()], want);
        }
        Ok(())
    }

    /// `lib` with a cell placing `id` once under `o`, and that cell.
    fn wrapped(lib: &Library, id: CellId, o: Orientation) -> (Library, CellId) {
        let mut lib = lib.clone();
        let mut wrap = Cell::new("wrap");
        wrap.push_instance(Instance::place(id, Transform::new(o, Point::ORIGIN)));
        let wrap = lib.add_cell(wrap).unwrap();
        (lib, wrap)
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
            measures(&lib, top, Extents::new(&lib, top).unwrap().root())?;
            // Under an outer orientation: the table of a parent placing
            // `top` so.
            let (lib, wrap) = wrapped(&lib, top, Orientation::ALL[outer]);
            measures(&lib, wrap, Extents::new(&lib, wrap).unwrap().root())?;
        }

        #[test]
        fn flatten_keeps_the_recursive_order(
            o in (0usize..8, 0usize..8, 0usize..8),
            a in (1u32..4, 1u32..4, -30i64..30, -30i64..30),
            b in (1u32..4, 1u32..4, -60i64..60, -60i64..60),
        ) {
            let (lib, top) = library([o.0, o.1, o.2], [a, b]);
            let mut want = Vec::new();
            recursive_flatten(&lib, top, Transform::IDENTITY, &mut want);
            prop_assert_eq!(flatten(&lib, top).unwrap(), want);
        }
    }

    #[test]
    fn a_cell_reached_under_two_orientations_holds_both() {
        // `top` places `leaf` under R90, and `mid` under MX, which places
        // `leaf` under R90 again: two orientations reach `leaf`, R0 not.
        let (lib, top) = library([1, 4, 1], [(2, 1, 10, 0), (1, 2, 0, 20)]);
        let extents = Extents::new(&lib, top).unwrap();
        let leaf = CellId::from_raw(0);
        let turned = Orientation::MX.compose(Orientation::R90);
        for o in Orientation::ALL {
            let got = extents.of(leaf, o);
            if o == Orientation::R90 || o == turned {
                let (lib, wrap) = wrapped(&lib, leaf, o);
                measures(&lib, wrap, *got.unwrap()).unwrap();
            } else {
                assert_eq!(got, None, "{o:?}");
            }
        }
        assert_ne!(turned, Orientation::R90);
    }

    #[test]
    fn unknown_cell_rejected() {
        let lib = Library::new();
        let err = Extents::new(&lib, CellId::from_raw(3));
        assert!(matches!(err, Err(LayoutError::UnknownCell { .. })));
    }
}
