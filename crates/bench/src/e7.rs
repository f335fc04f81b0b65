//! E7 — verification: generated layouts are DRC-clean, seeded errors are
//! caught, the behavioral description simulates identically to the ISA
//! reference, and extraction matches intent.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use silc_drc::{check, check_flat, RuleSet};
use silc_geom::{Point, Rect};
use silc_layout::{Layer, Library};
use silc_logic::functions::benchmark_suite;
use silc_pdp8::{assemble, IspCrossCheck};
use silc_pla::{generate_layout, Minimize, PlaSpec};

/// One verification check's outcome.
#[derive(Debug, Clone)]
pub struct VerifyRow {
    /// Check name.
    pub check: String,
    /// Did it pass?
    pub pass: bool,
    /// Detail (counts, rates).
    pub detail: String,
}

/// All generator layouts pass DRC.
pub fn generators_drc_clean() -> Vec<VerifyRow> {
    let mut rows = Vec::new();
    for (name, table) in benchmark_suite() {
        let spec = PlaSpec::from_truth_table(&table, Minimize::Heuristic).expect("spec");
        let mut lib = Library::new();
        let id = generate_layout(&spec, &mut lib, name).expect("layout");
        let report = check(&lib, id, &RuleSet::mead_conway_nmos()).expect("root");
        rows.push(VerifyRow {
            check: format!("drc:pla:{name}"),
            pass: report.is_clean(),
            detail: format!("{} rects", report.rects_checked),
        });
    }
    {
        let rom = silc_mem::RomSpec::new(4, 8, &(0..16).map(|i| i * 13 % 256).collect::<Vec<_>>())
            .expect("rom");
        let mut lib = Library::new();
        let id = rom.generate(&mut lib, "rom16x8").expect("layout");
        let report = check(&lib, id, &RuleSet::mead_conway_nmos()).expect("root");
        rows.push(VerifyRow {
            check: "drc:rom16x8".into(),
            pass: report.is_clean(),
            detail: format!("{} rects", report.rects_checked),
        });
    }
    {
        let ram = silc_mem::RamArray::new(16, 8).expect("ram");
        let mut lib = Library::new();
        let id = ram.generate(&mut lib, "ram16x8").expect("layout");
        let report = check(&lib, id, &RuleSet::mead_conway_nmos()).expect("root");
        rows.push(VerifyRow {
            check: "drc:ram16x8".into(),
            pass: report.is_clean(),
            detail: format!("{} rects", report.rects_checked),
        });
    }
    rows
}

/// Seeds `count` deliberate violations into otherwise-clean geometry and
/// reports how many distinct seeds the checker flags.
pub fn seeded_error_detection(count: usize, seed: u64) -> VerifyRow {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut detected = 0usize;
    for _ in 0..count {
        // A clean base: two wide, well-separated metal wires.
        let mut layers: Vec<Vec<Rect>> = vec![Vec::new(); Layer::ALL.len()];
        layers[Layer::Metal.index()] = vec![
            Rect::new(Point::new(0, 0), Point::new(4, 40)).expect("rect"),
            Rect::new(Point::new(20, 0), Point::new(24, 40)).expect("rect"),
        ];
        // Inject one random violation of a random kind.
        match rng.gen_range(0..3u32) {
            0 => {
                // Narrow sliver poking out of the first wire.
                let y = rng.gen_range(0..30i64);
                layers[Layer::Metal.index()]
                    .push(Rect::new(Point::new(4, y), Point::new(6, y + 1)).expect("rect"));
            }
            1 => {
                // A third wire too close to the second.
                let gap = rng.gen_range(1..3i64);
                layers[Layer::Metal.index()].push(
                    Rect::new(Point::new(24 + gap, 0), Point::new(28 + gap, 40)).expect("rect"),
                );
            }
            _ => {
                // A bare contact.
                let y = rng.gen_range(0..30i64);
                layers[Layer::Contact.index()]
                    .push(Rect::new(Point::new(40, y), Point::new(42, y + 2)).expect("rect"));
            }
        }
        if !check_flat(&layers, &RuleSet::mead_conway_nmos()).is_clean() {
            detected += 1;
        }
    }
    VerifyRow {
        check: "drc:seeded-errors".into(),
        pass: detected == count,
        detail: format!("{detected}/{count} detected"),
    }
}

/// The behavioral PDP-8 agrees with the ISA reference on a program suite.
pub fn isp_cross_checks() -> Vec<VerifyRow> {
    let programs: Vec<(&str, &str)> = vec![
        (
            "sum-loop",
            "*200
                     cla cll
             loop,   tad total
                     tad count
                     dca total
                     isz count
                     jmp loop
                     hlt
             count,  7774
             total,  0000",
        ),
        (
            "rotate-mask",
            "*200
             cla cll
             tad v
             rtl
             cma
             and m
             hlt
             v, 1234
             m, 0770",
        ),
        (
            "subroutine",
            "*200
                    cla
                    jms inc2
                    jms inc2
                    hlt
             inc2,  0000
                    iac
                    iac
                    jmp i inc2",
        ),
    ];
    programs
        .into_iter()
        .map(|(name, src)| {
            let program = assemble(src).expect("test program assembles");
            let result = IspCrossCheck::run(&program, 2000).expect("simulates");
            VerifyRow {
                check: format!("isp:{name}"),
                pass: result.matches,
                detail: format!("{} isl cycles", result.isl_cycles),
            }
        })
        .collect()
}

/// Extraction of a known inverter recovers the intended netlist.
pub fn extraction_lvs() -> VerifyRow {
    use silc_layout::{Cell, Element, Port};
    let rect = |x0, y0, x1, y1| Rect::new(Point::new(x0, y0), Point::new(x1, y1)).expect("rect");
    let mut lib = Library::new();
    let mut c = Cell::new("inv");
    c.push_element(Element::rect(Layer::Diffusion, rect(0, 0, 4, 30)));
    c.push_element(Element::rect(Layer::Poly, rect(-4, 8, 8, 10)));
    c.push_element(Element::rect(Layer::Poly, rect(-4, 20, 8, 22)));
    c.push_element(Element::rect(Layer::Implant, rect(-2, 18, 6, 24)));
    c.push_element(Element::rect(Layer::Contact, rect(1, 14, 3, 16)));
    c.push_element(Element::rect(Layer::Metal, rect(0, 13, 12, 17)));
    c.push_element(Element::rect(Layer::Buried, rect(-4, 14, 0, 21)));
    c.push_port(Port::new("in", Layer::Poly, Point::new(-4, 9)));
    c.push_port(Port::new("out", Layer::Metal, Point::new(12, 15)));
    c.push_port(Port::new("gnd", Layer::Diffusion, Point::new(2, 0)));
    c.push_port(Port::new("vdd", Layer::Diffusion, Point::new(2, 30)));
    let id = lib.add_cell(c).expect("cell");
    let extracted = silc_extract::extract(&lib, id).expect("extracts");

    let mut intended = silc_netlist::Netlist::new("inv");
    let inn = intended.add_net("in");
    let out = intended.add_net("out");
    let gnd = intended.add_net("gnd");
    let vdd = intended.add_net("vdd");
    intended
        .add_instance("m0", "enh", &[("gate", inn), ("src", gnd), ("drn", out)])
        .expect("instance");
    intended
        .add_instance("m1", "dep", &[("gate", out), ("src", out), ("drn", vdd)])
        .expect("instance");

    VerifyRow {
        check: "extract:inverter-lvs".into(),
        pass: extracted.netlist.structurally_matches(&intended),
        detail: format!(
            "{} transistors, {} nets",
            extracted.transistor_count(),
            extracted.nets
        ),
    }
}

/// Layout -> extraction -> equivalence check: the drawn inverter's
/// extracted netlist must compute `out = NOT in`.
pub fn extraction_functional() -> VerifyRow {
    use silc_layout::{Cell, Element, Port};
    let rect = |x0, y0, x1, y1| Rect::new(Point::new(x0, y0), Point::new(x1, y1)).expect("rect");
    let mut lib = Library::new();
    let mut c = Cell::new("inv");
    c.push_element(Element::rect(Layer::Diffusion, rect(0, 0, 4, 30)));
    c.push_element(Element::rect(Layer::Poly, rect(-4, 8, 8, 10)));
    c.push_element(Element::rect(Layer::Poly, rect(-4, 20, 8, 22)));
    c.push_element(Element::rect(Layer::Implant, rect(-2, 18, 6, 24)));
    c.push_element(Element::rect(Layer::Contact, rect(1, 14, 3, 16)));
    c.push_element(Element::rect(Layer::Metal, rect(0, 13, 12, 17)));
    c.push_element(Element::rect(Layer::Buried, rect(-4, 14, 0, 21)));
    c.push_port(Port::new("in", Layer::Poly, Point::new(-4, 9)));
    c.push_port(Port::new("out", Layer::Metal, Point::new(12, 15)));
    c.push_port(Port::new("gnd", Layer::Diffusion, Point::new(2, 0)));
    c.push_port(Port::new("vdd", Layer::Diffusion, Point::new(2, 30)));
    let id = lib.add_cell(c).expect("cell");
    let extracted = silc_extract::extract(&lib, id).expect("extracts");

    let table = silc_logic::TruthTable::parse_pla(".i 1\n.o 1\n.ilb in\n.ob out\n0 1\n.e\n")
        .expect("table");
    let pass = silc_verify::network_from_netlist(&extracted.netlist)
        .and_then(|net| {
            silc_verify::check_against_table_traced(
                &net,
                &table,
                &silc_verify::Options::default(),
                &silc_trace::Tracer::disabled(),
            )
        })
        .is_ok_and(|report| report.equivalent);
    VerifyRow {
        check: "extract:inverter-verify".into(),
        pass,
        detail: "layout proven out = NOT in".into(),
    }
}

/// The full verification battery.
pub fn run() -> Vec<VerifyRow> {
    let mut rows = generators_drc_clean();
    rows.push(seeded_error_detection(25, 0x51C0));
    rows.extend(isp_cross_checks());
    rows.push(extraction_lvs());
    rows.push(extraction_functional());
    rows
}

/// Formats rows for display.
pub fn table(rows: &[VerifyRow]) -> Vec<Vec<String>> {
    rows.iter()
        .map(|r| {
            vec![
                r.check.clone(),
                if r.pass { "PASS" } else { "FAIL" }.to_string(),
                r.detail.clone(),
            ]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn whole_battery_passes() {
        for row in run() {
            assert!(row.pass, "{} failed: {}", row.check, row.detail);
        }
    }
}
