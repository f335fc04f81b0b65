use crate::{CellId, Element, Instance, Layer, LayoutError, Library};
use silc_geom::{Rect, Transform};

/// Most elements [`flatten`] expands one design into, and most cell
/// copies it walks: 2²². Over the tests, the examples and the benchmark
/// corpora (seeds 5, 11 and 23, through `compile`, `pnr` and `verify`)
/// a flattening walks at most 9 794 copies (the 36 864-rectangle
/// crossbar) and expands at most 532 544 elements (the routed layout of
/// the 36 864-rectangle adder). The CIF writer emits at most as many
/// `C` calls; the most there are 50 000, a test's 50 000-deep symbol
/// chain (7 397 in the corpora). A design past a bound is refused before
/// any walk rather than allowed to exhaust memory or hold a worker; one
/// of more elements is still checked from its hierarchy when its arrays
/// keep apart.
pub const MAX_FLAT_ELEMENTS: usize = 1 << 22;

/// Flattens the hierarchy under `root` into a list of elements in root
/// coordinates, expanding instance arrays.
///
/// Because the library is a DAG by construction, flattening always
/// terminates; cost is proportional to the *expanded* size of the design,
/// which is exactly the leverage hierarchical description buys (experiment
/// E2 measures this ratio). The walk keeps its own stack, one frame a
/// level, never the call stack, so depth costs heap and not thread stack.
/// Elements come out depth first: a cell's own artwork, then each copy of
/// each of its instances, row by row. The flat DRC report keeps that order.
///
/// # Errors
///
/// Returns [`LayoutError::UnknownCell`] if `root` is not in the library,
/// [`LayoutError::TooLarge`] if the design expands to more than
/// [`MAX_FLAT_ELEMENTS`] elements, and [`LayoutError::TooManyCopies`] if
/// it places more than that many cell copies, each a step of the walk
/// even when empty. Both are counted before anything is expanded.
///
/// # Example
///
/// ```
/// use silc_layout::{flatten, Cell, Element, Instance, Layer, Library};
/// use silc_geom::{Point, Rect, Transform};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut lib = Library::new();
/// let mut bit = Cell::new("bit");
/// bit.push_element(Element::rect(Layer::Metal, Rect::new(Point::new(0,0), Point::new(3,3))?));
/// let bit_id = lib.add_cell(bit)?;
/// let mut word = Cell::new("word");
/// word.push_instance(Instance::array(bit_id, Transform::IDENTITY, 8, 1, 4, 0)?);
/// let word_id = lib.add_cell(word)?;
/// assert_eq!(flatten(&lib, word_id)?.len(), 8);
/// # Ok(())
/// # }
/// ```
pub fn flatten(lib: &Library, root: CellId) -> Result<Vec<Element>, LayoutError> {
    if lib.cell(root).is_none() {
        return Err(LayoutError::UnknownCell { id: root });
    }
    let (mut copies, mut elements) = (0u64, 0u64);
    for (n, (_, cell)) in lib.copies(root).into_iter().zip(lib.iter()) {
        copies = copies.saturating_add(n);
        elements = elements.saturating_add(n.saturating_mul(cell.elements().len() as u64));
    }
    let limit = MAX_FLAT_ELEMENTS;
    if elements > limit as u64 {
        return Err(LayoutError::TooLarge { elements, limit });
    }
    if copies > limit as u64 {
        return Err(LayoutError::TooManyCopies { copies, limit });
    }
    let mut out = Vec::with_capacity(elements as usize);
    // One frame a level: a transform and the copies still to come under it.
    let top = [Instance::place(root, Transform::IDENTITY)];
    let mut stack = vec![(Transform::IDENTITY, placed(&top))];
    while let Some((t, next)) = stack.last_mut() {
        let Some((id, placement)) = next.next() else {
            stack.pop();
            continue;
        };
        let t = t.then(placement);
        let cell = lib.cell(id).expect("a library's instances name its cells");
        out.extend(cell.elements().iter().map(|e| e.transform(t)));
        stack.push((t, placed(cell.instances())));
    }
    Ok(out)
}

/// Every copy `instances` place, instance by instance and row by row: the
/// child and its transform in the parent.
fn placed(instances: &[Instance]) -> impl Iterator<Item = (CellId, Transform)> + '_ {
    let instances = instances.iter();
    instances.flat_map(|i| i.placements().map(|p| (i.cell, p)))
}

/// Flattens and decomposes every element into per-layer rectangles — the
/// form the design-rule checker and extractor consume.
///
/// Returns a vector indexed by [`Layer::index`], each entry holding that
/// layer's rectangles in root coordinates.
///
/// # Errors
///
/// Those of [`flatten`].
pub fn flatten_to_rects(lib: &Library, root: CellId) -> Result<Vec<Vec<Rect>>, LayoutError> {
    Ok(rects_by_layer(&flatten(lib, root)?))
}

/// Decomposes elements into per-layer rectangles, indexed by
/// [`Layer::index`]: the form [`flatten_to_rects`] returns, for a caller
/// holding elements of its own (one cell's artwork, say).
pub fn rects_by_layer<'e>(elements: impl IntoIterator<Item = &'e Element>) -> Vec<Vec<Rect>> {
    let mut layers: Vec<Vec<Rect>> = vec![Vec::new(); Layer::ALL.len()];
    for e in elements {
        layers[e.layer.index()].extend(e.shape.to_rects());
    }
    layers
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cell, Instance};
    use silc_geom::{Orientation, Point};

    fn rect(x: i64, y: i64, w: i64, h: i64) -> Rect {
        Rect::from_origin_size(Point::new(x, y), w, h).unwrap()
    }

    fn lib_with_bit() -> (Library, CellId) {
        let mut lib = Library::new();
        let mut bit = Cell::new("bit");
        bit.push_element(Element::rect(Layer::Metal, rect(0, 0, 3, 3)));
        let id = lib.add_cell(bit).unwrap();
        (lib, id)
    }

    #[test]
    fn flatten_leaf_is_identity() {
        let (lib, bit) = lib_with_bit();
        let flat = flatten(&lib, bit).unwrap();
        assert_eq!(flat.len(), 1);
        assert_eq!(flat[0].bbox(), rect(0, 0, 3, 3));
    }

    #[test]
    fn flatten_expands_arrays() {
        let (mut lib, bit) = lib_with_bit();
        let mut word = Cell::new("word");
        word.push_instance(Instance::array(bit, Transform::IDENTITY, 4, 2, 10, 20).unwrap());
        let word_id = lib.add_cell(word).unwrap();
        let flat = flatten(&lib, word_id).unwrap();
        assert_eq!(flat.len(), 8);
        // Last copy sits at (30, 20).
        let bboxes: Vec<_> = flat.iter().map(|f| f.bbox()).collect();
        assert!(bboxes.contains(&rect(30, 20, 3, 3)));
    }

    #[test]
    fn nested_transforms_compose() {
        let (mut lib, bit) = lib_with_bit();
        let mut mid = Cell::new("mid");
        mid.push_instance(Instance::place(
            bit,
            Transform::new(Orientation::R90, Point::new(10, 0)),
        ));
        let mid_id = lib.add_cell(mid).unwrap();
        let mut top = Cell::new("top");
        top.push_instance(Instance::place(
            mid_id,
            Transform::new(Orientation::R90, Point::new(0, 100)),
        ));
        let top_id = lib.add_cell(top).unwrap();
        let flat = flatten(&lib, top_id).unwrap();
        assert_eq!(flat.len(), 1);
        // Composition: R90 then R90 is R180; bit (0..3, 0..3) under
        // mid-transform lands at (7..10, 0..3); under top R90+(0,100) that
        // maps to x in (-3..0), y in (107..110).
        assert_eq!(flat[0].bbox(), rect(-3, 107, 3, 3));
    }

    #[test]
    fn unknown_root_rejected() {
        let lib = Library::new();
        assert!(flatten(&lib, CellId::from_raw(0)).is_err());
    }

    #[test]
    fn rects_bucketed_by_layer() {
        let (mut lib, bit) = lib_with_bit();
        let mut top = Cell::new("top");
        top.push_element(Element::rect(Layer::Poly, rect(50, 0, 2, 2)));
        top.push_instance(Instance::array(bit, Transform::IDENTITY, 3, 1, 5, 0).unwrap());
        let top_id = lib.add_cell(top).unwrap();
        let layers = flatten_to_rects(&lib, top_id).unwrap();
        assert_eq!(layers[Layer::Metal.index()].len(), 3);
        assert_eq!(layers[Layer::Poly.index()].len(), 1);
        assert!(layers[Layer::Contact.index()].is_empty());
    }

    #[test]
    fn copies_are_counted_before_the_walk() {
        // Ten billion copies of an empty cell: nothing to expand, but a
        // walk over them would take minutes.
        let mut lib = Library::new();
        let empty = lib.add_cell(Cell::new("empty")).unwrap();
        let mut top = Cell::new("top");
        let grid = Instance::array(empty, Transform::IDENTITY, 100_000, 100_000, 0, 0).unwrap();
        top.push_instance(grid);
        let top = lib.add_cell(top).unwrap();
        assert_eq!(
            flatten(&lib, top),
            Err(LayoutError::TooManyCopies {
                copies: 10_000_000_001,
                limit: MAX_FLAT_ELEMENTS
            })
        );
    }

    #[test]
    fn diamond_sharing_expands_twice() {
        // top instantiates mid twice; mid instantiates bit once: 2 copies.
        let (mut lib, bit) = lib_with_bit();
        let mut mid = Cell::new("mid");
        mid.push_instance(Instance::place(bit, Transform::IDENTITY));
        let mid_id = lib.add_cell(mid).unwrap();
        let mut top = Cell::new("top");
        top.push_instance(Instance::place(mid_id, Transform::IDENTITY));
        top.push_instance(Instance::place(
            mid_id,
            Transform::translate(Point::new(100, 0)),
        ));
        let top_id = lib.add_cell(top).unwrap();
        assert_eq!(flatten(&lib, top_id).unwrap().len(), 2);
    }
}
