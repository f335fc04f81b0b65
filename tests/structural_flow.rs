//! Integration: the full structural silicon-compilation flow — a SIL
//! program compiled to layout, design-rule checked, written to CIF, read
//! back, and extracted to transistors.

use silc::cif::{parse, CifWriter};
use silc::drc::{check, check_flat, RuleSet};
use silc::extract::extract;
use silc::lang::Compiler;
use silc::layout::{flatten, flatten_to_rects, CellStats, Layer};

/// A small but complete design: an inverter column with proper contacts,
/// used by several tests below.
const INVERTER_COLUMN: &str = r#"
    cell inv() {
        // Pulldown and depletion pullup on one diffusion strip.
        box diff (0, 0) (4, 30);
        box poly (-4, 8) (8, 10);
        box poly (-4, 20) (8, 22);
        box implant (-2, 18) (6, 24);
        // Output contact: metal landing with proper surrounds.
        box contact (1, 14) (3, 16);
        box metal (0, 13) (12, 17);
    }
    cell column(n) { array inv() at (0, 0) step (0, 0) (0, 36) count 1 n; }
    place column(4) at (0, 0);
"#;

#[test]
fn sil_to_drc_clean_layout() {
    let design = Compiler::new().compile(INVERTER_COLUMN).expect("compiles");
    let report =
        check(&design.library, design.top, &RuleSet::mead_conway_nmos()).expect("root exists");
    assert!(report.is_clean(), "{report}");
    let stats = CellStats::compute(&design.library, design.top).expect("stats");
    assert_eq!(stats.flat_elements, 4 * 6);
}

#[test]
fn cif_roundtrip_preserves_flat_geometry() {
    let design = Compiler::new().compile(INVERTER_COLUMN).expect("compiles");
    let text = CifWriter::new()
        .write_to_string(&design.library, design.top)
        .expect("writes");
    let reread = parse(&text).expect("parses back");

    // Compare flattened (layer, bbox) multisets, scaled by 250 cµ/λ.
    let mut original: Vec<(usize, i64, i64, i64, i64)> = flatten(&design.library, design.top)
        .expect("flattens")
        .iter()
        .map(|f| {
            let b = f.bbox();
            (
                f.layer.index(),
                b.left() * 250,
                b.bottom() * 250,
                b.right() * 250,
                b.top() * 250,
            )
        })
        .collect();
    let mut reparsed: Vec<(usize, i64, i64, i64, i64)> = flatten(&reread.library, reread.top)
        .expect("flattens")
        .iter()
        .map(|f| {
            let b = f.bbox();
            (f.layer.index(), b.left(), b.bottom(), b.right(), b.top())
        })
        .collect();
    original.sort_unstable();
    reparsed.sort_unstable();
    assert_eq!(original, reparsed);
}

#[test]
fn extraction_counts_inverter_devices() {
    let design = Compiler::new().compile(INVERTER_COLUMN).expect("compiles");
    let extracted = extract(&design.library, design.top).expect("extracts");
    // Four inverters, two transistors each; the pullups are depletion.
    assert_eq!(extracted.transistor_count(), 8);
    let dep = extracted
        .transistors
        .iter()
        .filter(|(k, _)| k == "dep")
        .count();
    assert_eq!(dep, 4);
}

#[test]
fn drc_catches_a_deliberate_spacing_error() {
    // Shrink the array pitch so adjacent diffusion strips violate the
    // 3-lambda spacing rule.
    let bad = INVERTER_COLUMN.replace("(0, 36)", "(5, 0)");
    let design = Compiler::new().compile(&bad).expect("compiles");
    let report =
        check(&design.library, design.top, &RuleSet::mead_conway_nmos()).expect("root exists");
    assert!(!report.is_clean(), "pitch-5 columns must violate spacing");
}

#[test]
fn flat_rects_agree_between_paths() {
    // flatten + to_rects and flatten_to_rects must agree on totals.
    let design = Compiler::new().compile(INVERTER_COLUMN).expect("compiles");
    let by_layer = flatten_to_rects(&design.library, design.top).expect("flattens");
    let total: usize = by_layer.iter().map(Vec::len).sum();
    let via_elements: usize = flatten(&design.library, design.top)
        .expect("flattens")
        .iter()
        .map(|f| f.shape.to_rects().len())
        .sum();
    assert_eq!(total, via_elements);
    assert!(!by_layer[Layer::Implant.index()].is_empty());

    // And the flat form feeds the checker identically.
    let report_flat = check_flat(&by_layer, &RuleSet::mead_conway_nmos());
    let report_lib =
        check(&design.library, design.top, &RuleSet::mead_conway_nmos()).expect("root exists");
    assert_eq!(report_flat.violations, report_lib.violations);
}

#[test]
fn generators_compose_with_language_output() {
    // A PLA generated by silc-pla dropped into the same library as
    // SIL-compiled cells, then checked together.
    let design = Compiler::new().compile(INVERTER_COLUMN).expect("compiles");
    let mut lib = design.library;
    let table = silc::logic::functions::majority(3);
    let spec =
        silc::pla::PlaSpec::from_truth_table(&table, silc::pla::Minimize::Exact).expect("spec");
    let pla_id = silc::pla::generate_layout(&spec, &mut lib, "maj3").expect("generates");
    let report = check(&lib, pla_id, &RuleSet::mead_conway_nmos()).expect("root");
    assert!(report.is_clean(), "{report}");
}

#[test]
fn full_chip_plan_composes_clean() {
    // The pdp8_chip example's flow, asserted: three compiler paths
    // (SIL datapath, derived control PLA, memory generator) composed via
    // Library::import into one DRC-clean plan.
    use silc::geom::{Point, Transform};
    use silc::layout::{Cell, CellStats, Instance};

    let datapath = Compiler::new()
        .compile(
            "cell reg_bit() {
                box diff (0, 0) (2, 12);
                box poly (-2, 3) (4, 5);
                box metal (4, 0) (7, 12);
             }
             cell datapath(regs, bits) {
                array reg_bit() at (0, 0) step (12, 0) (0, 18) count bits regs;
             }
             place datapath(3, 8) at (0, 0);",
        )
        .expect("compiles");
    let mut lib = datapath.library;
    let datapath_id = lib.cell_by_name("datapath$i3_i8").expect("elaborated");

    let table = silc::logic::functions::traffic_light();
    let spec =
        silc::pla::PlaSpec::from_truth_table(&table, silc::pla::Minimize::Exact).expect("spec");
    let mut pla_lib = silc::layout::Library::new();
    let pla_id = silc::pla::generate_layout(&spec, &mut pla_lib, "ctl").expect("generates");
    let map = lib.import(&pla_lib);
    let pla_id = map[pla_id.raw() as usize];

    let ram = silc::mem::RamArray::new(8, 8).expect("ram");
    let mut ram_lib = silc::layout::Library::new();
    let ram_id = ram.generate(&mut ram_lib, "mem").expect("generates");
    let map = lib.import(&ram_lib);
    let ram_id = map[ram_id.raw() as usize];

    let dp_bbox = CellStats::compute(&lib, datapath_id)
        .expect("stats")
        .bbox
        .expect("geometry");
    let pla_bbox = CellStats::compute(&lib, pla_id)
        .expect("stats")
        .bbox
        .expect("geometry");

    let mut chip = Cell::new("chip");
    chip.push_instance(Instance::place(datapath_id, Transform::IDENTITY));
    chip.push_instance(Instance::place(
        pla_id,
        Transform::translate(Point::new(
            -pla_bbox.left(),
            dp_bbox.top() + 12 - pla_bbox.bottom(),
        )),
    ));
    chip.push_instance(Instance::place(
        ram_id,
        Transform::translate(Point::new(dp_bbox.right().max(pla_bbox.width()) + 16, 6)),
    ));
    let chip_id = lib.add_cell(chip).expect("chip cell");

    let report = check(&lib, chip_id, &RuleSet::mead_conway_nmos()).expect("root");
    assert!(report.is_clean(), "{report}");
    let stats = CellStats::compute(&lib, chip_id).expect("stats");
    assert!(stats.flat_elements > 200);
}
