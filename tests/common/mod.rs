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

/// Two prelude inverters on shared rails: `x = NOT a`, `y = NOT b`. The
/// outputs tell the inputs apart, so a mask with `a` and `b` swapped is
/// refuted.
pub const TWO_INVERTERS: &str = "place std_inv() at (0, 0);
place std_inv() at (40, 0);
box diff (0, -4) (44, 1);
box diff (0, 29) (44, 34);
port a poly (-4, 9);
port b poly (36, 9);
port x metal (12, 15);
port y metal (52, 15);
port gnd diff (2, -2);
port vdd diff (2, 32);";

/// Rewrites in place the `pnr` entry that `silc pnr` stored in `cache`
/// for `source`: same stage, same key (the routed netlist, the routing
/// stack and the floorplan, as `pnr_products` keys them), with only its
/// CIF passed through `edit`.
pub fn plant_routed_cif(cache: &std::path::Path, source: &str, edit: impl FnOnce(&str) -> String) {
    use silc::geom::{Dec, Enc, Fingerprint, Persist};
    use silc::incr::{DiskCache, Engine, JobStats, PnrSnapshot, Stage};
    let design = silc::incr::elaborate(&Engine::in_memory(), source, &mut JobStats::default())
        .expect("elaborates");
    let netlist = silc::extract::extract(&design.library, design.top)
        .expect("extracts")
        .netlist;
    let stack = silc::pnr::RouteStack::mead_conway_nmos();
    let floorplan = silc::pnr::Floorplan::squarish(netlist.instances().len());
    let key = (&netlist, &stack, &floorplan).fingerprint();
    let cache = DiskCache::open(cache).unwrap();
    let payload = cache.load(Stage::PNR, key).expect("pnr stored its entry");
    let mut routed = PnrSnapshot::decode(&mut Dec::new(&payload)).expect("decodes");
    routed.cif = edit(&routed.cif);
    let mut e = Enc::new();
    routed.encode(&mut e);
    assert!(cache.store(Stage::PNR, key, &e.into_bytes()) > 0);
}

/// The routed CIF with the labels of ports `a` and `b` swapped.
pub fn swap_a_and_b(cif: &str) -> String {
    assert!(cif.contains("94 a ") && cif.contains("94 b "), "{cif}");
    cif.replace("94 a ", "94 @ ")
        .replace("94 b ", "94 a ")
        .replace("94 @ ", "94 b ")
}
