//! The standard-cell prelude: every `std_*` cell compiles, is DRC-clean,
//! and extracts to the device structure it claims.

use silc_drc::{check, RuleSet};
use silc_lang::Compiler;

#[test]
fn every_prelude_cell_is_drc_clean() {
    for cell in [
        "std_contact_md",
        "std_contact_mp",
        "std_butting",
        "std_pullup",
        "std_pass",
        "std_inv",
    ] {
        let source = format!("place {cell}() at (0, 0);");
        let design = Compiler::new()
            .compile(&source)
            .unwrap_or_else(|e| panic!("{cell}: {e}"));
        let report = check(&design.library, design.top, &RuleSet::mead_conway_nmos())
            .unwrap_or_else(|e| panic!("{cell}: {e}"));
        assert!(report.is_clean(), "{cell}: {report}");
    }
}

/// The extracted `std_inv` cell (whose ports name the nets), lowered
/// by the verify engine.
fn std_inv_network() -> silc_verify::Network {
    let design = Compiler::new()
        .compile("place std_inv() at (0, 0);")
        .expect("compiles");
    let cell_id = design.library.cell_by_name("std_inv").expect("in library");
    let extracted = silc_extract::extract(&design.library, cell_id).expect("extracts");
    assert_eq!(extracted.transistor_count(), 2);
    silc_verify::network_from_netlist(&extracted.netlist).expect("lowers")
}

fn check_inv(net: &silc_verify::Network, rows: &str) -> silc_verify::Report {
    let table =
        silc_logic::TruthTable::parse_pla(&format!(".i 1\n.o 1\n.ilb inp\n.ob out\n{rows}.e\n"))
            .expect("table");
    silc_verify::check_against_table_traced(
        net,
        &table,
        &silc_verify::Options::default(),
        &silc_trace::Tracer::disabled(),
    )
    .expect("decides")
}

#[test]
fn prelude_inverter_extracts_and_inverts() {
    let net = std_inv_network();
    assert_eq!(net.input_names(), ["inp"]);
    let report = check_inv(&net, "0 1\n");
    assert!(report.equivalent, "{}", report.summary());
    assert_eq!(report.exact_decided, 1);
}

#[test]
fn prelude_inverter_inverts_on_every_input_pattern() {
    let net = std_inv_network();
    // Both patterns listed with their outputs are proven; flipping either
    // one's output is refuted.
    let rows = [("0", '1'), ("1", '0')];
    for flip in [None, Some(0), Some(1)] {
        let table: String = rows
            .iter()
            .enumerate()
            .map(|(i, &(inp, out))| {
                let out = match (Some(i) == flip, out) {
                    (true, '1') => '0',
                    (true, _) => '1',
                    (false, o) => o,
                };
                format!("{inp} {out}\n")
            })
            .collect();
        let report = check_inv(&net, &table);
        assert_eq!(
            report.equivalent,
            flip.is_none(),
            "flip {flip:?}: {}",
            report.summary()
        );
    }
}

#[test]
fn butting_contact_joins_poly_and_diffusion() {
    let design = Compiler::new()
        .compile("place std_butting() at (0, 0);")
        .expect("compiles");
    let cell_id = design
        .library
        .cell_by_name("std_butting")
        .expect("in library");
    let extracted = silc_extract::extract(&design.library, cell_id).expect("extracts");
    // No transistor, and poly+diff+metal are ONE net.
    assert_eq!(extracted.transistor_count(), 0);
    assert_eq!(extracted.nets, 1);
}

#[test]
fn user_cells_compose_with_prelude() {
    // Two pass transistors and a pullup wired side by side.
    let design = Compiler::new()
        .compile(
            "cell gate_pair() {
                place std_pass() at (0, 0);
                place std_pass() at (0, 12);
                place std_pullup() at (20, 6);
            }
            place gate_pair() at (0, 0);",
        )
        .expect("compiles");
    let report =
        check(&design.library, design.top, &RuleSet::mead_conway_nmos()).expect("root exists");
    assert!(report.is_clean(), "{report}");
    let extracted = silc_extract::extract(&design.library, design.top).expect("extracts");
    assert_eq!(extracted.transistor_count(), 3); // 2 pass + 1 pullup
}

#[test]
fn user_redefinition_of_std_cells_is_rejected() {
    let err = Compiler::new()
        .compile("cell std_inv() { box metal (0,0) (4,4); } place std_inv() at (0,0);")
        .unwrap_err();
    assert!(err.to_string().contains("std_inv"), "{err}");
}
