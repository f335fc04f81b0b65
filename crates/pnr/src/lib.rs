//! # silc-pnr — gridded place-and-route over a declared layer stack
//!
//! The paper calls wiring management the central complexity problem of
//! silicon compilation. This crate is the workspace's answer for
//! arbitrary floorplans: a declared routing [`RouteStack`] (per-layer
//! direction, pitch, via rules), a greedy row-based placer legalizing
//! transistor netlists onto grid-aligned sites, and a per-net gridded
//! maze router — A* over track crossings, layer changes via vias —
//! running against a site-access table painted once per run from the
//! cell geometry, with bounded rip-up-and-reroute.
//!
//! The output is ordinary [`silc_layout`] geometry: it flows into DRC,
//! extraction and CIF emission unchanged, and the round-trip is closed
//! by construction — a routed layout is DRC-clean (the site table
//! evaluates the exact spacing predicates) and extracts back to a
//! netlist that [`silc_netlist::Netlist::structurally_matches`] the
//! source (proptest-enforced).
//!
//! # Example
//!
//! ```
//! use silc_pnr::{place_and_route, Floorplan, RouteStack};
//!
//! let netlist = silc_pnr::gen::random_netlist(1, 4);
//! let fp = Floorplan::for_cells(4, 2);
//! let out = place_and_route(&netlist, &RouteStack::mead_conway_nmos(), &fp, false)?;
//! assert_eq!(out.report.routed, out.report.nets);
//! # Ok::<(), silc_pnr::PnrError>(())
//! ```

pub mod cells;
mod error;
pub mod gen;
mod grid;
mod place;
mod route;
mod stack;

pub use error::PnrError;
pub use place::{place, Floorplan, PlacedCell, PlacedPin, Placement};
pub use route::MAX_RIPUP_ROUNDS;
pub use stack::{Dir, RouteLayer, RouteStack, ViaRule};

use silc_layout::{Cell, CellId, Element, Library, Port};
use silc_netlist::Netlist;
use silc_trace::Tracer;

/// Counters summarizing one place-and-route run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PnrReport {
    /// Cells placed.
    pub cells: u64,
    /// Multi-pin nets needing routing.
    pub nets: u64,
    /// Nets successfully routed (equals `nets` on success).
    pub routed: u64,
    /// Total routed wirelength in lambda.
    pub wirelength: u64,
    /// Vias dropped.
    pub vias: u64,
    /// Routing rounds executed.
    pub rounds: u64,
    /// Rounds that performed rip-up-and-reroute.
    pub ripup_rounds: u64,
    /// A* nodes expanded across all searches.
    pub nodes_expanded: u64,
    /// Routing-grid width in track columns.
    pub grid_cols: i64,
    /// Routing-grid height in track rows.
    pub grid_rows: i64,
}

/// A completed place-and-route: real layout geometry plus counters.
#[derive(Debug, Clone)]
pub struct PnrResult {
    /// Single-cell library holding the routed design.
    pub library: Library,
    /// The routed root cell.
    pub root: CellId,
    /// Run counters.
    pub report: PnrReport,
}

/// Places and routes `netlist` into `floorplan` on `stack`.
///
/// # Errors
///
/// See [`PnrError`]; every variant carries the failing net, track or
/// stack context.
pub fn place_and_route(
    netlist: &Netlist,
    stack: &RouteStack,
    floorplan: &Floorplan,
    // Ignored shim for the frozen ledger; ROADMAP's benchmark-only follow-up drops it.
    _parallel: bool,
) -> Result<PnrResult, PnrError> {
    place_and_route_traced(netlist, stack, floorplan, &Tracer::disabled())
}

/// [`place_and_route`] with tracing: emits `pnr.place`/`pnr.route`
/// spans and `pnr.*` counters.
pub fn place_and_route_traced(
    netlist: &Netlist,
    stack: &RouteStack,
    floorplan: &Floorplan,
    tracer: &Tracer,
) -> Result<PnrResult, PnrError> {
    let placement = place(netlist, stack, floorplan, tracer)?;
    let cell_rects = placement.tagged_rects(stack)?;
    let outcome = route::route_all(stack, &placement, &cell_rects, tracer)?;

    // Assemble the routed design as one flat root cell: cell geometry
    // in placement order, then per-net route geometry in net-id order,
    // then one port per connected net (so extraction recovers source
    // net names).
    let mut root = Cell::new(root_name(netlist.name()));
    for (i, layer_rects) in cell_rects.iter().enumerate() {
        let layer = silc_layout::Layer::ALL[i];
        for &(r, _) in layer_rects {
            root.push_element(Element::rect(layer, r));
        }
    }
    let mut wirelength = 0u64;
    let mut vias = 0u64;
    for segments in outcome.committed.values() {
        let g = route::net_geometry(stack, segments);
        wirelength += g.wirelength;
        vias += g.vias;
        for (layer, r) in g.rects {
            root.push_element(Element::rect(layer, r));
        }
    }
    let pin_layer = stack
        .layer_for_dir(Dir::Horiz)
        .expect("checked during routing");
    let port_layer = stack.layers[pin_layer].layer;
    let mut seen = std::collections::BTreeSet::new();
    let mut ports: Vec<(u32, Port)> = Vec::new();
    for cell in &placement.cells {
        for pin in &cell.pins {
            if seen.insert(pin.net) {
                ports.push((
                    pin.net,
                    Port::new(
                        pin.net_name.clone(),
                        port_layer,
                        stack.crossing(pin.col, pin.row),
                    ),
                ));
            }
        }
    }
    ports.sort_by_key(|&(net, _)| net);
    for (_, port) in ports {
        root.push_port(port);
    }

    let report = PnrReport {
        cells: placement.cells.len() as u64,
        nets: {
            // Multi-pin nets are exactly the routing tasks.
            outcome.committed.len() as u64
        },
        routed: outcome.committed.len() as u64,
        wirelength,
        vias,
        rounds: outcome.rounds,
        ripup_rounds: outcome.ripup_rounds,
        nodes_expanded: outcome.nodes_expanded,
        grid_cols: placement.floorplan.grid_cols(),
        grid_rows: placement.floorplan.grid_rows(),
    };
    tracer.add("pnr.nets", report.nets);
    tracer.add("pnr.routed", report.routed);
    tracer.add("pnr.wirelength", report.wirelength);
    tracer.add("pnr.vias", report.vias);

    let mut library = Library::new();
    let root = library
        .add_cell(root)
        .expect("fresh library accepts the root cell");
    Ok(PnrResult {
        library,
        root,
        report,
    })
}

/// CIF-safe root cell name derived from the netlist name.
fn root_name(netlist_name: &str) -> String {
    let mut name: String = netlist_name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if name.is_empty() {
        name.push_str("pnr");
    } else {
        name.push_str("_pnr");
    }
    name
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routes_a_small_netlist_completely() {
        let netlist = gen::random_netlist(3, 6);
        let stack = RouteStack::mead_conway_nmos();
        let fp = Floorplan::for_cells(6, 3);
        let out = place_and_route(&netlist, &stack, &fp, false).unwrap();
        assert_eq!(out.report.cells, 6);
        assert_eq!(out.report.routed, out.report.nets);
        assert!(out.report.wirelength > 0);
        let root = out.library.cell(out.root).unwrap();
        assert!(!root.elements().is_empty());
        assert!(!root.ports().is_empty());
    }

    #[test]
    fn traced_run_emits_pnr_counters() {
        let netlist = gen::random_netlist(9, 4);
        let stack = RouteStack::mead_conway_nmos();
        let fp = Floorplan::for_cells(4, 2);
        let tracer = Tracer::enabled();
        place_and_route_traced(&netlist, &stack, &fp, &tracer).unwrap();
        let report = tracer.finish();
        assert!(report.counter("pnr.nets").is_some());
        assert!(report.counter("pnr.routed").is_some());
        assert!(report.stage_us("pnr.place") > 0 || report.stage_us("pnr.route") > 0);
        // The site table is built once, apart from the searches it serves.
        assert!(report.spans().iter().any(|s| s.name == "pnr.sites"));
        let searches = report.counter("pnr.searches").unwrap();
        assert!(searches > 0 && searches <= report.counter("pnr.nodes_expanded").unwrap());
    }
}
