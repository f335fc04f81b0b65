//! Greedy row-based placement.
//!
//! The floorplan is a regular array of cell sites on the routing grid.
//! Sites are filled row by row, left to right; at each site the placer
//! greedily picks the unplaced instance sharing the most nets with
//! already-placed ones (ties to netlist order), which keeps connected
//! transistors close without any iterative optimization. Every site is
//! grid-aligned by construction, so "legalization" is exact: a cell's
//! pins land on track crossings the moment it is placed.

use crate::cells::{leaf_cell, LeafCell, PinRole};
use crate::stack::RouteStack;
use crate::PnrError;
use silc_geom::{Fingerprint, FpHasher, Rect, Vector};
use silc_layout::Layer;
use silc_netlist::Netlist;
use silc_trace::Tracer;
use std::collections::{HashMap, HashSet};

/// A regular array of cell sites on the track grid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Floorplan {
    /// Cell sites per row.
    pub cells_per_row: usize,
    /// Number of site rows.
    pub site_rows: usize,
    /// Track columns between neighbouring sites in a row.
    pub col_pitch: i64,
    /// Track rows between neighbouring site rows.
    pub row_pitch: i64,
    /// Free routing tracks kept around the cell array.
    pub margin: i64,
}

impl Floorplan {
    /// A floorplan with enough sites for `cells` instances at
    /// `cells_per_row` sites per row, with default routing slack:
    /// three free tracks between sites in both axes and four margin
    /// tracks (source pins are only enterable from the left by cell
    /// construction, so the margins carry most vertical traffic).
    ///
    /// Tall, narrow arrays get wider margins: with few cells per row
    /// almost every net must run vertically past other rows, and the
    /// margin columns are most of the vertical capacity, so the margin
    /// grows with the rows-to-columns imbalance.
    pub fn for_cells(cells: usize, cells_per_row: usize) -> Floorplan {
        let cells_per_row = cells_per_row.max(1);
        let site_rows = cells.div_ceil(cells_per_row).max(1);
        let imbalance = site_rows.div_ceil(2 * cells_per_row).saturating_sub(1) as i64;
        Floorplan {
            cells_per_row,
            site_rows,
            col_pitch: 6,
            row_pitch: 6,
            margin: 4 + 2 * imbalance,
        }
    }

    /// A roughly square floorplan for `cells` instances: the smallest
    /// row width whose square holds them all. The front-ends (`silc
    /// pnr`, batch `pnr` jobs, serve `pnr` requests) all place through
    /// this, so the same netlist fingerprints to the same floorplan —
    /// and the same cache entry — everywhere.
    pub fn squarish(cells: usize) -> Floorplan {
        let per_row = (1usize..).find(|r| r * r >= cells).unwrap_or(1);
        Floorplan::for_cells(cells, per_row)
    }

    /// Total cell sites.
    pub fn capacity(&self) -> usize {
        self.cells_per_row * self.site_rows
    }

    /// Track origin of site `i` (row-major).
    pub fn site(&self, i: usize) -> (i64, i64) {
        let col = (i % self.cells_per_row) as i64;
        let row = (i / self.cells_per_row) as i64;
        (
            self.margin + col * self.col_pitch,
            self.margin + row * self.row_pitch,
        )
    }

    /// Routing-grid width in track columns (cells are 3 columns wide).
    pub fn grid_cols(&self) -> i64 {
        2 * self.margin + (self.cells_per_row as i64 - 1) * self.col_pitch + 3
    }

    /// Routing-grid height in track rows (cells are 3 rows tall).
    pub fn grid_rows(&self) -> i64 {
        2 * self.margin + (self.site_rows as i64 - 1) * self.row_pitch + 3
    }
}

impl Fingerprint for Floorplan {
    fn fp_hash(&self, h: &mut FpHasher) {
        h.write_len(self.cells_per_row);
        h.write_len(self.site_rows);
        h.write_i64(self.col_pitch);
        h.write_i64(self.row_pitch);
        h.write_i64(self.margin);
    }
}

/// One pin of a placed cell, resolved to a track crossing.
#[derive(Debug, Clone)]
pub struct PlacedPin {
    /// The net this pin belongs to (netlist net id).
    pub net: u32,
    /// Net name, for diagnostics.
    pub net_name: String,
    /// Track column.
    pub col: i64,
    /// Track row.
    pub row: i64,
}

/// A legalized cell.
#[derive(Debug, Clone)]
pub struct PlacedCell {
    /// Instance name from the netlist.
    pub instance: String,
    /// Cell kind (`enh`/`dep`).
    pub kind: String,
    /// Track origin of the site this cell occupies.
    pub site: (i64, i64),
    /// Pins, in the cell library's `gate`, `src`, `drn` order.
    pub pins: Vec<PlacedPin>,
}

/// A full legalized placement.
#[derive(Debug, Clone)]
pub struct Placement {
    /// Placed cells, in site order.
    pub cells: Vec<PlacedCell>,
    /// The floorplan placed into.
    pub floorplan: Floorplan,
}

impl Placement {
    /// All cell geometry in root-cell lambda coordinates, tagged with
    /// the owning net ([`crate::grid::NO_NET`] for internal rects),
    /// indexed by [`Layer::index`].
    pub(crate) fn tagged_rects(
        &self,
        stack: &RouteStack,
    ) -> Result<Vec<Vec<(Rect, u32)>>, PnrError> {
        let mut out = vec![Vec::new(); Layer::ALL.len()];
        for cell in &self.cells {
            let leaf = leaf_cell(&cell.kind, stack)?;
            let offset = cell_offset(stack, cell.site);
            let net_for = |role: PinRole| -> u32 {
                leaf.pins
                    .iter()
                    .position(|p| p.role == role)
                    .and_then(|i| cell.pins.get(i))
                    .map(|p| p.net)
                    .unwrap_or(crate::grid::NO_NET)
            };
            for &(layer, r, role) in &leaf.rects {
                let net = match role {
                    PinRole::Internal => crate::grid::NO_NET,
                    role => net_for(role),
                };
                out[layer.index()].push((r.translate(offset), net));
            }
        }
        Ok(out)
    }
}

/// Lambda offset moving a leaf cell's local frame onto `site`.
pub(crate) fn cell_offset(stack: &RouteStack, site: (i64, i64)) -> Vector {
    // The leaf cell keeps its source pin at the stack origin, crossing
    // (0, 0); site (a, b) must put it on crossing (a, b).
    stack.crossing(site.0, site.1) - RouteStack::ORIGIN
}

/// Places `netlist` into `floorplan` on `stack`.
///
/// # Errors
///
/// [`PnrError::FloorplanTooSmall`] when instances outnumber sites,
/// [`PnrError::UnsupportedKind`] for non-transistor instances or
/// missing ports.
pub fn place(
    netlist: &Netlist,
    stack: &RouteStack,
    floorplan: &Floorplan,
    tracer: &Tracer,
) -> Result<Placement, PnrError> {
    let _span = tracer.span("pnr.place");
    let instances = netlist.instances();
    if instances.len() > floorplan.capacity() {
        return Err(PnrError::FloorplanTooSmall {
            cells: instances.len(),
            capacity: floorplan.capacity(),
        });
    }

    // Greedy ordering: next cell is the unplaced instance most
    // connected to the placed set.
    let nets_of: Vec<HashSet<u32>> = instances
        .iter()
        .map(|inst| inst.connections.iter().map(|&(_, n)| n.raw()).collect())
        .collect();
    let mut placed_nets: HashSet<u32> = HashSet::new();
    let mut remaining: Vec<usize> = (0..instances.len()).collect();
    let mut order = Vec::with_capacity(instances.len());
    while !remaining.is_empty() {
        let (pos, &best) = remaining
            .iter()
            .enumerate()
            .max_by_key(|(pos, &i)| {
                let shared = nets_of[i].intersection(&placed_nets).count();
                // Ties go to the earliest instance: reverse the index.
                (shared, usize::MAX - *pos)
            })
            .expect("remaining is non-empty");
        remaining.remove(pos);
        placed_nets.extend(nets_of[best].iter().copied());
        order.push(best);
    }

    let mut cells = Vec::with_capacity(order.len());
    for (slot, &i) in order.iter().enumerate() {
        let inst = &instances[i];
        let leaf: LeafCell = leaf_cell(&inst.kind, stack).map_err(|e| match e {
            PnrError::UnsupportedKind { kind, .. } => PnrError::UnsupportedKind {
                instance: inst.name.clone(),
                kind,
            },
            other => other,
        })?;
        let bound: HashMap<&str, u32> = inst
            .connections
            .iter()
            .map(|(p, n)| (p.as_str(), n.raw()))
            .collect();
        let site = floorplan.site(slot);
        let mut pins = Vec::with_capacity(leaf.pins.len());
        for pin in leaf.pins {
            let net = *bound
                .get(pin.port)
                .ok_or_else(|| PnrError::UnsupportedKind {
                    instance: inst.name.clone(),
                    kind: format!("{} (missing port `{}`)", inst.kind, pin.port),
                })?;
            pins.push(PlacedPin {
                net,
                net_name: net_name(netlist, net),
                col: site.0 + pin.dcol,
                row: site.1 + pin.drow,
            });
        }
        cells.push(PlacedCell {
            instance: inst.name.clone(),
            kind: inst.kind.clone(),
            site,
            pins,
        });
    }
    tracer.add("pnr.cells", cells.len() as u64);
    Ok(Placement {
        cells,
        floorplan: floorplan.clone(),
    })
}

fn net_name(netlist: &Netlist, raw: u32) -> String {
    netlist
        .nets()
        .get(raw as usize)
        .map(|n| n.name.clone())
        .unwrap_or_else(|| format!("net{raw}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_netlist() -> Netlist {
        let mut n = Netlist::new("tiny");
        let a = n.add_net("a");
        let b = n.add_net("b");
        let c = n.add_net("c");
        n.add_instance("m0", "enh", &[("gate", a), ("src", b), ("drn", c)])
            .unwrap();
        n.add_instance("m1", "enh", &[("gate", b), ("src", c), ("drn", a)])
            .unwrap();
        n
    }

    #[test]
    fn places_all_cells_on_distinct_sites() {
        let stack = RouteStack::mead_conway_nmos();
        let fp = Floorplan::for_cells(2, 2);
        let p = place(&tiny_netlist(), &stack, &fp, &Tracer::disabled()).unwrap();
        assert_eq!(p.cells.len(), 2);
        assert_ne!(p.cells[0].site, p.cells[1].site);
        for cell in &p.cells {
            assert_eq!(cell.pins.len(), 3);
        }
    }

    #[test]
    fn overfull_floorplan_is_rejected_with_counts() {
        let stack = RouteStack::mead_conway_nmos();
        let fp = Floorplan {
            cells_per_row: 1,
            site_rows: 1,
            col_pitch: 6,
            row_pitch: 5,
            margin: 2,
        };
        let err = place(&tiny_netlist(), &stack, &fp, &Tracer::disabled()).unwrap_err();
        assert_eq!(
            err,
            PnrError::FloorplanTooSmall {
                cells: 2,
                capacity: 1
            }
        );
    }

    #[test]
    fn non_transistor_kind_is_named_in_error() {
        let stack = RouteStack::mead_conway_nmos();
        let mut n = Netlist::new("bad");
        let a = n.add_net("a");
        n.add_instance("u7", "nand2", &[("a", a)]).unwrap();
        let fp = Floorplan::for_cells(1, 1);
        let msg = place(&n, &stack, &fp, &Tracer::disabled())
            .unwrap_err()
            .to_string();
        assert!(msg.contains("u7") && msg.contains("nand2"), "{msg}");
    }
}
