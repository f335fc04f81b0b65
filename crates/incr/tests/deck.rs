//! The `pnr` stage checks the mask it routed against the deck its stack
//! was derived from, not against a deck of its own.

use silc_drc::{RuleKind, RuleSet};
use silc_incr::{pnr_products, Engine, JobStats};
use silc_layout::Layer;
use silc_pnr::{gen::random_netlist, Floorplan, RouteStack};

#[test]
fn the_pnr_stage_checks_against_the_stacks_deck() {
    // The `dep` cells of this netlist draw a 6-lambda implant.
    let netlist = random_netlist(7, 6);
    let floorplan = Floorplan::squarish(netlist.instances().len());
    let rules_broken = |stack: &RouteStack| {
        let (engine, stats) = (Engine::in_memory(), &mut JobStats::default());
        let out = pnr_products(&engine, &netlist, stack, &floorplan, false, stats).unwrap();
        let mut rules: Vec<RuleKind> = out.drc.violations.iter().map(|v| v.rule).collect();
        rules.dedup();
        rules
    };
    assert_eq!(rules_broken(&RouteStack::mead_conway_nmos()), []);

    // A second deck carries its own name, so its stack keys apart.
    let mut rules = RuleSet::mead_conway_nmos();
    rules.name = "mead-conway-nmos-wide-implant".into();
    rules.set_min_width(Layer::Implant, 10);
    let implant = RuleKind::MinWidth {
        layer: Layer::Implant,
        required: 10,
    };
    let stack = RouteStack::from_rules(&rules).unwrap();
    assert_eq!(rules_broken(&stack), [implant]);
}
