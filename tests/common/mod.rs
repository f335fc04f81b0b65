//! Helpers shared by the integration tests.

/// Plants, under the `elaborate` key of `source`, a design that decodes to
/// a chain `depth` cells deep: a 3×2 array of one box at the bottom, each
/// cell above placing the one below. A cache directory holds what a
/// compiler wrote, and a library's decoder bounds no depth.
pub fn plant_deep_chain(cache: &std::path::Path, source: &str, depth: u32) {
    use silc::geom::{Fingerprint, Persist, Point, Rect, Transform};
    use silc::layout::{Cell, Element, Instance, Layer, Library};
    let mut library = Library::new();
    let mut leaf = Cell::new("c0");
    let r = Rect::new(Point::new(0, 0), Point::new(4, 4)).unwrap();
    leaf.push_element(Element::rect(Layer::Metal, r));
    let mut top = library.add_cell(leaf).unwrap();
    for i in 1..depth {
        let mut cell = Cell::new(format!("c{i}"));
        let t = Transform::translate(Point::new(1, 2));
        cell.push_instance(match i {
            1 => Instance::array(top, t, 3, 2, 10, 10).unwrap(),
            _ => Instance::place(top, t),
        });
        top = library.add_cell(cell).unwrap();
    }
    let mut e = silc::geom::Enc::new();
    silc::lang::Design { library, top }.encode(&mut e);
    let key = (source, silc::lang::PRELUDE).fingerprint();
    let cache = silc::incr::DiskCache::open(cache).unwrap();
    assert!(cache.store(silc::incr::Stage::ELABORATE, key, &e.into_bytes()) > 0);
}
