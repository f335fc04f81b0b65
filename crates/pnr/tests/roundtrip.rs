//! The tentpole guarantees of place-and-route, proptest-enforced:
//!
//! 1. every routed layout passes the full Mead–Conway DRC (width,
//!    spacing, contact and gate passes);
//! 2. extraction recovers the source netlist's connectivity
//!    (`structurally_matches` round-trip);
//! 3. routing is deterministic run to run: no hash order leaks into the
//!    geometry, ports or report.

use proptest::prelude::*;
use silc_drc::{check_flat, RuleSet};
use silc_layout::Layer;
use silc_pnr::{gen::random_netlist, place_and_route, Floorplan, RouteStack};

/// Flattens the (single-cell) routed library to per-layer rects.
fn flat_layers(out: &silc_pnr::PnrResult) -> Vec<Vec<silc_geom::Rect>> {
    let cell = out.library.cell(out.root).expect("root exists");
    let mut layers = vec![Vec::new(); Layer::ALL.len()];
    for e in cell.elements() {
        for r in e.shape.to_rects() {
            layers[e.layer.index()].push(r);
        }
    }
    layers
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Routed geometry is DRC-clean and extracts back to the source.
    #[test]
    fn routed_layouts_are_drc_clean_and_extract_back(
        seed in 0u64..1000,
        cells in 1usize..14,
        per_row in 1usize..5,
    ) {
        let netlist = random_netlist(seed, cells);
        let stack = RouteStack::mead_conway_nmos();
        let fp = Floorplan::for_cells(cells, per_row);
        let out = place_and_route(&netlist, &stack, &fp, false)
            .expect("corpus netlists route completely");
        prop_assert_eq!(out.report.routed, out.report.nets);

        let layers = flat_layers(&out);
        let report = check_flat(&layers, &RuleSet::mead_conway_nmos());
        prop_assert!(
            report.is_clean(),
            "DRC violations in routed layout (seed {}): {:?}",
            seed,
            report.violations
        );

        let extracted = silc_extract::extract(&out.library, out.root)
            .expect("routed layout extracts");
        prop_assert!(
            extracted.netlist.structurally_matches(&netlist),
            "round-trip mismatch (seed {seed}):\nextracted:\n{}\nsource:\n{}",
            extracted.netlist,
            netlist
        );
    }

    /// Two runs of one netlist agree exactly (every `HashMap` in the
    /// router is seeded afresh per run, so an order leak would show).
    #[test]
    fn routing_is_deterministic_run_to_run(
        seed in 0u64..500,
        cells in 2usize..12,
    ) {
        let netlist = random_netlist(seed, cells);
        let stack = RouteStack::mead_conway_nmos();
        let fp = Floorplan::for_cells(cells, 3);
        let first = place_and_route(&netlist, &stack, &fp, false).expect("routes");
        let second = place_and_route(&netlist, &stack, &fp, false).expect("routes");
        let (a, b) = (
            first.library.cell(first.root).unwrap(),
            second.library.cell(second.root).unwrap(),
        );
        prop_assert_eq!(a.elements(), b.elements());
        prop_assert_eq!(a.ports(), b.ports());
        prop_assert_eq!(first.report, second.report);
    }
}

/// A fixed smoke case pinning the E10 shape: all nets route, DRC is
/// clean, and the extract-back netlist matches, at a size the proptest
/// ranges do not reach.
#[test]
fn medium_floorplan_routes_clean() {
    let netlist = random_netlist(2024, 24);
    let stack = RouteStack::mead_conway_nmos();
    let fp = Floorplan::for_cells(24, 6);
    let out = place_and_route(&netlist, &stack, &fp, true).expect("routes");
    assert_eq!(out.report.routed, out.report.nets);
    let layers = flat_layers(&out);
    assert!(check_flat(&layers, &RuleSet::mead_conway_nmos()).is_clean());
    let extracted = silc_extract::extract(&out.library, out.root).unwrap();
    assert!(extracted.netlist.structurally_matches(&netlist));
}

/// Whether a deck holds the transistor cell is the checker's verdict:
/// decks tighter than Mead–Conway whose rules the cell keeps (poly and
/// metal spacing 1 and 2 under 4-lambda pads: pitches 5 and 6) are
/// accepted, route clean under their own rules and extract back.
#[test]
fn tighter_decks_route_clean_under_their_own_rules() {
    for (spacing, pitch) in [(1, 5), (2, 6)] {
        let mut rules = RuleSet::mead_conway_nmos();
        rules.set_min_spacing(Layer::Poly, Layer::Poly, spacing);
        rules.set_min_spacing(Layer::Metal, Layer::Metal, spacing);
        let stack = RouteStack::from_rules(&rules).expect("the cell is clean under the deck");
        assert_eq!(stack.pitch(), pitch);
        for seed in 0..4 {
            let netlist = random_netlist(seed, 16);
            let fp = Floorplan::squarish(16);
            let out = place_and_route(&netlist, &stack, &fp, false).expect("routes");
            let report = check_flat(&flat_layers(&out), &rules);
            assert!(
                report.is_clean(),
                "spacing {spacing}, seed {seed}: {:?}",
                report.violations
            );
            let extracted = silc_extract::extract(&out.library, out.root).unwrap();
            assert!(
                extracted.netlist.structurally_matches(&netlist),
                "spacing {spacing}, seed {seed}"
            );
        }
    }
}
