//! The `pnr` stage checks the mask it routed against the deck its stack
//! was derived from, not against a deck of its own, and keys its result
//! by that whole deck.

use silc_drc::{RuleKind, RuleSet};
use silc_incr::{pnr_products, Engine, JobStats};
use silc_layout::Layer;
use silc_pnr::{gen::random_netlist, Floorplan, RouteStack};

#[test]
fn the_pnr_stage_checks_against_the_stacks_deck() {
    // The `dep` cells of this netlist sit on neighbouring sites.
    let netlist = random_netlist(7, 6);
    let floorplan = Floorplan::squarish(netlist.instances().len());
    let engine = Engine::in_memory();
    let rules_broken = |stack: &RouteStack| {
        let stats = &mut JobStats::default();
        let out = pnr_products(&engine, &netlist, stack, &floorplan, false, stats).unwrap();
        let mut rules: Vec<RuleKind> = out.drc.violations.iter().map(|v| v.rule).collect();
        rules.dedup();
        rules
    };
    assert_eq!(rules_broken(&RouteStack::mead_conway_nmos()), []);

    // Same name, one rule more: each cell's single implant passes it, the
    // routed chip's neighbouring implants do not, and the one engine
    // answers each deck by its own key.
    let mut rules = RuleSet::mead_conway_nmos();
    rules.set_min_spacing(Layer::Implant, Layer::Implant, 40);
    let spacing = RuleKind::MinSpacing {
        a: Layer::Implant,
        b: Layer::Implant,
        required: 40,
    };
    let stack = RouteStack::from_rules(&rules).unwrap();
    assert_eq!(rules_broken(&stack), [spacing]);
}
