//! Greedy row-based placement.
//!
//! The floorplan is a regular array of cell sites on the routing grid.
//! Sites are filled row by row, left to right; at each site the placer
//! greedily picks the unplaced instance sharing the most nets with
//! already-placed ones (ties to netlist order), which keeps connected
//! transistors close without any iterative optimization. Scores only
//! grow, so a lazy max-heap picks in O((N + pins) log N). Every site is
//! grid-aligned by construction, so "legalization" is exact: a cell's
//! pins land on track crossings the moment it is placed.

use crate::stack::RouteStack;
use crate::PnrError;
use silc_geom::{Fingerprint, FpHasher, Rect, Vector};
use silc_layout::Layer;
use silc_netlist::Netlist;
use silc_trace::Tracer;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

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
            let leaf = stack.cell(&cell.instance, &cell.kind)?;
            let offset = cell_offset(stack, cell.site);
            for &(layer, r, pin) in &leaf.rects {
                let net = pin
                    .and_then(|i| cell.pins.get(i))
                    .map_or(crate::grid::NO_NET, |p| p.net);
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

    let nets_of: Vec<Vec<u32>> = instances
        .iter()
        .map(|inst| {
            let mut nets: Vec<u32> = inst.connections.iter().map(|&(_, n)| n.raw()).collect();
            nets.sort_unstable();
            nets.dedup();
            nets
        })
        .collect();
    let order = greedy_order(&nets_of, netlist.nets().len(), tracer);

    let mut cells = Vec::with_capacity(order.len());
    for (slot, &i) in order.iter().enumerate() {
        let inst = &instances[i];
        let leaf = stack.cell(&inst.name, &inst.kind)?;
        let site = floorplan.site(slot);
        let mut pins = Vec::with_capacity(leaf.pins.len());
        for pin in &leaf.pins {
            // The last binding of a port wins, as in a map built from them.
            let net = inst
                .connections
                .iter()
                .rfind(|(p, _)| p == pin.port)
                .map(|&(_, n)| n.raw())
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

/// The greedy order over instances bound to the sorted, deduplicated
/// `nets_of` (ids below `net_count`): each next instance is the unplaced
/// one sharing the most nets with those placed, ties to the lowest
/// index. A score only grows, so every rise pushes a fresh heap entry
/// and a popped entry whose score is stale is skipped. The candidates
/// popped are counted as `pnr.place.candidates`.
fn greedy_order(nets_of: &[Vec<u32>], net_count: usize, tracer: &Tracer) -> Vec<usize> {
    let mut on_net: Vec<Vec<usize>> = vec![Vec::new(); net_count];
    for (i, nets) in nets_of.iter().enumerate() {
        for &n in nets {
            on_net[n as usize].push(i);
        }
    }
    let mut shared = vec![0usize; nets_of.len()];
    let mut placed = vec![false; nets_of.len()];
    let mut net_placed = vec![false; net_count];
    let mut heap: BinaryHeap<(usize, Reverse<usize>)> =
        (0..nets_of.len()).map(|i| (0, Reverse(i))).collect();
    let mut order = Vec::with_capacity(nets_of.len());
    let mut candidates = 0u64;
    while let Some((score, Reverse(i))) = heap.pop() {
        candidates += 1;
        if placed[i] || score != shared[i] {
            continue;
        }
        placed[i] = true;
        order.push(i);
        for &n in &nets_of[i] {
            if std::mem::replace(&mut net_placed[n as usize], true) {
                continue;
            }
            for &j in &on_net[n as usize] {
                if !placed[j] {
                    shared[j] += 1;
                    heap.push((shared[j], Reverse(j)));
                }
            }
        }
    }
    tracer.add("pnr.place.candidates", candidates);
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;

    /// The O(N²·deg) scan the heap replaced, over each instance's set of
    /// nets: the oracle of the placement order.
    fn scan_order(netlist: &Netlist) -> Vec<&str> {
        let instances = netlist.instances();
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
            order.push(instances[best].name.as_str());
        }
        order
    }

    fn placed_order(netlist: &Netlist) -> Vec<String> {
        let fp = Floorplan::squarish(netlist.instances().len());
        let stack = RouteStack::mead_conway_nmos();
        let p = place(netlist, &stack, &fp, &Tracer::disabled()).unwrap();
        p.cells.into_iter().map(|c| c.instance).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// On a small net pool most instances tie and many bind one net
        /// to two of their ports; the heap picks as the scan does.
        #[test]
        fn heap_order_is_the_scan_order(
            pool in 1usize..8,
            pins in prop::collection::vec((0usize..8, 0usize..8, 0usize..8), 1..48),
        ) {
            let mut n = Netlist::new("ties");
            let nets: Vec<_> = (0..pool).map(|i| n.add_net(format!("w{i}"))).collect();
            for (t, &(g, s, d)) in pins.iter().enumerate() {
                let (g, s, d) = (nets[g % pool], nets[s % pool], nets[d % pool]);
                let kind = if t % 5 == 0 { "dep" } else { "enh" };
                n.add_instance(format!("m{t}"), kind, &[("gate", g), ("src", s), ("drn", d)])
                    .unwrap();
            }
            prop_assert_eq!(placed_order(&n), scan_order(&n));
        }

        #[test]
        fn heap_order_is_the_scan_order_on_seeded_netlists(
            seed in 0u64..1000,
            cells in 1usize..80,
        ) {
            let n = crate::gen::random_netlist(seed, cells);
            prop_assert_eq!(placed_order(&n), scan_order(&n));
        }
    }

    /// The candidates the placer examines grow at most as n log n: at n,
    /// 2n and 4n cells, within twice the n-cell rate. A quadratic scan
    /// reads 3.2x that rate at 4n.
    #[test]
    fn placement_work_grows_at_most_as_n_log_n() {
        let work = |cells: usize| {
            let netlist = crate::gen::random_netlist(5, cells);
            let fp = Floorplan::squarish(cells);
            let tracer = Tracer::enabled();
            place(&netlist, &RouteStack::mead_conway_nmos(), &fp, &tracer).unwrap();
            tracer.finish().counter("pnr.place.candidates").unwrap() as f64
        };
        let n_log_n = |n: usize| n as f64 * (n as f64).log2();
        let n = 256;
        let rate = work(n) / n_log_n(n);
        for m in [2 * n, 4 * n] {
            let w = work(m);
            assert!(
                w <= 2.0 * rate * n_log_n(m),
                "{w} candidates at {m} cells against {rate:.2} n log n at {n}"
            );
        }
    }

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
