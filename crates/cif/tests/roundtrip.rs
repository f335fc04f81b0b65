//! Write-then-parse round-trip tests: the CIF emitted by [`CifWriter`] must
//! read back into geometry that is exactly the original scaled by the
//! physical scale factor (250 centimicrons per lambda by default).

use proptest::prelude::*;
use silc_cif::{parse, CifWriter};
use silc_geom::{Orientation, Point, Rect, Transform};
use silc_layout::{flatten, Cell, CellId, Element, Instance, Layer, Library};

const SCALE: i64 = 250;

/// Flattens and returns sorted (layer, bbox) pairs for comparison.
fn signature(lib: &Library, root: CellId) -> Vec<(usize, i64, i64, i64, i64)> {
    let mut v: Vec<_> = flatten(lib, root)
        .unwrap()
        .into_iter()
        .map(|f| {
            let b = f.bbox();
            (f.layer.index(), b.left(), b.bottom(), b.right(), b.top())
        })
        .collect();
    v.sort_unstable();
    v
}

fn scaled(sig: &[(usize, i64, i64, i64, i64)], k: i64) -> Vec<(usize, i64, i64, i64, i64)> {
    sig.iter()
        .map(|&(l, a, b, c, d)| (l, a * k, b * k, c * k, d * k))
        .collect()
}

#[test]
fn simple_hierarchy_roundtrips() {
    let mut lib = Library::new();
    let mut inv = Cell::new("inv");
    inv.push_element(Element::rect(
        Layer::Diffusion,
        Rect::from_origin_size(Point::new(0, 0), 2, 8).unwrap(),
    ));
    inv.push_element(Element::rect(
        Layer::Poly,
        Rect::from_origin_size(Point::new(-2, 3), 6, 2).unwrap(),
    ));
    let inv_id = lib.add_cell(inv).unwrap();
    let mut row = Cell::new("row");
    row.push_instance(Instance::array(inv_id, Transform::IDENTITY, 4, 1, 10, 0).unwrap());
    let row_id = lib.add_cell(row).unwrap();

    let text = CifWriter::new().write_to_string(&lib, row_id).unwrap();
    let design = parse(&text).unwrap();

    let original = signature(&lib, row_id);
    let reread = signature(&design.library, design.top);
    assert_eq!(reread, scaled(&original, SCALE));
    // Names survive the 9-extension.
    assert!(design.library.cell_by_name("inv").is_some());
    assert!(design.library.cell_by_name("row").is_some());
}

#[test]
fn every_orientation_roundtrips() {
    for orientation in Orientation::ALL {
        let mut lib = Library::new();
        let mut leaf = Cell::new("leaf");
        // Asymmetric artwork so orientation errors show up in the bbox.
        leaf.push_element(Element::rect(
            Layer::Metal,
            Rect::from_origin_size(Point::new(1, 2), 5, 3).unwrap(),
        ));
        let leaf_id = lib.add_cell(leaf).unwrap();
        let mut top = Cell::new("top");
        top.push_instance(Instance::place(
            leaf_id,
            Transform::new(orientation, Point::new(17, -9)),
        ));
        let top_id = lib.add_cell(top).unwrap();

        let text = CifWriter::new().write_to_string(&lib, top_id).unwrap();
        let design = parse(&text).unwrap_or_else(|e| panic!("{orientation}: {e}\n{text}"));
        assert_eq!(
            signature(&design.library, design.top),
            scaled(&signature(&lib, top_id), SCALE),
            "orientation {orientation} failed\n{text}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn random_two_level_designs_roundtrip(
        leaf_rects in prop::collection::vec(
            (0usize..3, -20i64..20, -20i64..20, 1i64..15, 1i64..15), 1..6),
        placements in prop::collection::vec(
            (0usize..8, -50i64..50, -50i64..50), 1..6),
    ) {
        let layers = [Layer::Diffusion, Layer::Poly, Layer::Metal];
        let mut lib = Library::new();
        let mut leaf = Cell::new("leaf");
        for &(li, x, y, w, h) in &leaf_rects {
            leaf.push_element(Element::rect(
                layers[li],
                Rect::from_origin_size(Point::new(x, y), w, h).unwrap(),
            ));
        }
        let leaf_id = lib.add_cell(leaf).unwrap();
        let mut top = Cell::new("top");
        for &(oi, x, y) in &placements {
            top.push_instance(Instance::place(
                leaf_id,
                Transform::new(Orientation::ALL[oi], Point::new(x, y)),
            ));
        }
        let top_id = lib.add_cell(top).unwrap();

        let text = CifWriter::new().write_to_string(&lib, top_id).unwrap();
        let design = parse(&text).unwrap();
        prop_assert_eq!(
            signature(&design.library, design.top),
            scaled(&signature(&lib, top_id), SCALE)
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    /// Deep hierarchies: several distinct leaf cells, a mid-level cell
    /// mixing single placements and arrays, and a top cell that also
    /// instances a leaf directly. Every cell, element, and transform must
    /// survive the write/parse cycle.
    #[test]
    fn random_multi_cell_hierarchies_roundtrip(
        leaves in prop::collection::vec(
            prop::collection::vec(
                (0usize..3, -20i64..20, -20i64..20, 1i64..15, 1i64..15), 1..4),
            2..4),
        mid_placements in prop::collection::vec(
            (0usize..4, 0usize..8, -60i64..60, -60i64..60), 1..5),
        arrays in prop::collection::vec(
            (0usize..4, 1u32..4, 1u32..3, 20i64..40, 20i64..40), 0..3),
        top_orientation in 0usize..8,
    ) {
        let layer_choices = [Layer::Diffusion, Layer::Poly, Layer::Metal];
        let mut lib = Library::new();
        let mut leaf_ids = Vec::new();
        for (n, rects) in leaves.iter().enumerate() {
            let mut leaf = Cell::new(format!("leaf{n}"));
            for &(li, x, y, w, h) in rects {
                leaf.push_element(Element::rect(
                    layer_choices[li],
                    Rect::from_origin_size(Point::new(x, y), w, h).unwrap(),
                ));
            }
            leaf_ids.push(lib.add_cell(leaf).unwrap());
        }
        let pick = |i: usize| leaf_ids[i % leaf_ids.len()];
        let mut mid = Cell::new("mid");
        // The writer only emits cells reachable from the root, so instance
        // every leaf at least once.
        for (n, &id) in leaf_ids.iter().enumerate() {
            mid.push_instance(Instance::place(
                id,
                Transform::new(Orientation::ALL[n % 8], Point::new(80 * n as i64, -45)),
            ));
        }
        for &(ci, oi, x, y) in &mid_placements {
            mid.push_instance(Instance::place(
                pick(ci),
                Transform::new(Orientation::ALL[oi], Point::new(x, y)),
            ));
        }
        for &(ci, nx, ny, dx, dy) in &arrays {
            mid.push_instance(
                Instance::array(pick(ci), Transform::IDENTITY, nx, ny, dx, dy).unwrap(),
            );
        }
        let mid_id = lib.add_cell(mid).unwrap();
        let mut top = Cell::new("top");
        top.push_instance(Instance::place(
            mid_id,
            Transform::new(Orientation::ALL[top_orientation], Point::new(-13, 27)),
        ));
        top.push_instance(Instance::place(pick(0), Transform::IDENTITY));
        let top_id = lib.add_cell(top).unwrap();

        let text = CifWriter::new().write_to_string(&lib, top_id).unwrap();
        let design = parse(&text).unwrap();
        prop_assert_eq!(
            signature(&design.library, design.top),
            scaled(&signature(&lib, top_id), SCALE)
        );
        for n in 0..leaves.len() {
            let name = format!("leaf{n}");
            prop_assert!(design.library.cell_by_name(&name).is_some());
        }
        prop_assert!(design.library.cell_by_name("mid").is_some());
        prop_assert!(design.library.cell_by_name("top").is_some());
    }
}

#[test]
fn ports_roundtrip_as_labels() {
    use silc_layout::Port;
    let mut lib = Library::new();
    let mut c = Cell::new("padframe");
    c.push_element(Element::rect(
        Layer::Metal,
        Rect::from_origin_size(Point::new(0, 0), 8, 8).unwrap(),
    ));
    c.push_port(Port::new("vdd", Layer::Metal, Point::new(0, 8)));
    c.push_port(Port::new("gnd", Layer::Diffusion, Point::new(0, 0)));
    let id = lib.add_cell(c).unwrap();

    let text = CifWriter::new().write_to_string(&lib, id).unwrap();
    assert!(text.contains("94 vdd 0 16 NM;"), "{text}");
    let design = parse(&text).unwrap();
    let cell_id = design.library.cell_by_name("padframe").unwrap();
    let cell = design.library.cell(cell_id).unwrap();
    // Coordinates come back in centimicrons (250 per lambda).
    let vdd = cell.port("vdd").expect("vdd label survives");
    assert_eq!(vdd.at, Point::new(0, 8 * 250));
    assert_eq!(vdd.layer, Layer::Metal);
    let gnd = cell.port("gnd").expect("gnd label survives");
    assert_eq!(gnd.layer, Layer::Diffusion);
}

#[test]
fn foreign_nine_extensions_still_skipped() {
    // 91/92/95... extensions from other tools must not break parsing.
    let d = parse("DS 1; 91 whatever 1 2 3; L NM; B 4 4 0 0; 95 x; DF; E").unwrap();
    assert_eq!(d.symbol_count(), 1);
}
