//! # silc-extract — circuit extraction from mask geometry
//!
//! The inverse of layout generation: recover the structural description
//! (a transistor [`silc_netlist::Netlist`]) from the physical one. This
//! closes the loop between the paper's three descriptions — a compiled
//! layout can be extracted and compared against the intended structure
//! (layout-versus-schematic), which is how experiment E7 verifies the
//! generators.
//!
//! Extraction model (Mead–Conway nMOS):
//!
//! * conducting regions are connected geometry on diffusion, poly and
//!   metal — with diffusion **split at transistor channels** (poly over
//!   diffusion interrupts the diffusion wire);
//! * contact cuts join the metal region above them to the poly or
//!   diffusion region below; buried contacts join poly to diffusion;
//! * every poly∩diffusion crossing is a transistor: gate = the poly
//!   region, source/drain = the diffusion regions abutting the channel;
//!   an implant over the channel makes it a depletion device
//!   (`"dep"`), otherwise enhancement (`"enh"`);
//! * nets covering a cell [`silc_layout::Port`] inherit the port's name.
//!
//! All geometric resolution (which region does this cut/port/channel
//! touch?) runs through [`silc_geom::RectIndex`] lookups rather than
//! layer-wide scans. The all-pairs reference implementation survives as
//! `extract_brute` (compiled for tests only) and anchors the equivalence
//! proptests.
//!
//! # Example
//!
//! ```
//! use silc_extract::extract;
//! use silc_layout::{Cell, Element, Layer, Library};
//! use silc_geom::{Point, Rect};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut lib = Library::new();
//! let mut c = Cell::new("t");
//! // A poly line crossing a diffusion line: one transistor.
//! c.push_element(Element::rect(Layer::Diffusion, Rect::new(Point::new(0, 4), Point::new(12, 8))?));
//! c.push_element(Element::rect(Layer::Poly, Rect::new(Point::new(5, 0), Point::new(7, 12))?));
//! let id = lib.add_cell(c)?;
//! let extracted = extract(&lib, id)?;
//! assert_eq!(extracted.transistor_count(), 1);
//! # Ok(())
//! # }
//! ```

use silc_drc::{covered, merge_rects, Cover, Region};
use silc_geom::{Fingerprint, FpHasher, Point, Rect, RectIndex};
use silc_layout::{CellId, Layer, LayoutError, Library};
use silc_netlist::{Netlist, NetlistError};
use silc_trace::{span, Tracer};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// Error produced by extraction.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ExtractError {
    /// The root cell is not in the library.
    Layout(String),
    /// A gate had fewer or more than two adjacent diffusion regions —
    /// malformed transistor geometry.
    MalformedTransistor {
        /// Where the gate is.
        at: Rect,
        /// Number of adjacent diffusion regions found.
        diffusions: usize,
    },
    /// Netlist construction failed (duplicate names).
    Netlist(String),
}

impl fmt::Display for ExtractError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExtractError::Layout(m) => write!(f, "layout access failed: {m}"),
            ExtractError::MalformedTransistor { at, diffusions } => write!(
                f,
                "gate at {at} touches {diffusions} diffusion region(s), expected 2"
            ),
            ExtractError::Netlist(m) => write!(f, "netlist construction failed: {m}"),
        }
    }
}

impl Error for ExtractError {}

impl From<LayoutError> for ExtractError {
    fn from(e: LayoutError) -> ExtractError {
        ExtractError::Layout(e.to_string())
    }
}

impl From<NetlistError> for ExtractError {
    fn from(e: NetlistError) -> ExtractError {
        ExtractError::Netlist(e.to_string())
    }
}

/// The result of extraction.
#[derive(Debug)]
pub struct Extracted {
    /// The recovered transistor-level netlist.
    pub netlist: Netlist,
    /// One entry per transistor: (kind, gate rect).
    pub transistors: Vec<(String, Rect)>,
    /// Number of electrically distinct nets found.
    pub nets: usize,
}

impl Extracted {
    /// Number of recovered transistors.
    pub fn transistor_count(&self) -> usize {
        self.transistors.len()
    }
}

impl Fingerprint for Extracted {
    fn fp_hash(&self, h: &mut FpHasher) {
        self.netlist.fp_hash(h);
        h.write_len(self.transistors.len());
        for (kind, at) in &self.transistors {
            h.write_str(kind);
            at.fp_hash(h);
        }
        h.write_len(self.nets);
    }
}

/// Spatially indexed membership lookup over a list of [`Region`]s.
///
/// Region rects are concatenated in region order, so indexed rect ids are
/// non-decreasing in region id — the first (lowest-id) candidate a query
/// returns belongs to the first region a linear
/// `regions.iter().position(..)` scan would find, which keeps every
/// lookup equivalent to the brute-force scan it replaces.
struct RegionLookup {
    index: RectIndex,
    /// Indexed rect id → region id (non-decreasing).
    owner: Vec<u32>,
}

impl RegionLookup {
    fn build(regions: &[Region]) -> RegionLookup {
        let mut rects = Vec::new();
        let mut owner = Vec::new();
        for (i, region) in regions.iter().enumerate() {
            for &r in region.rects() {
                rects.push(r);
                owner.push(i as u32);
            }
        }
        RegionLookup {
            index: RectIndex::build(&rects),
            owner,
        }
    }

    /// Index of the first region touching `probe` — equivalent to
    /// `regions.iter().position(|r| r.touches_rect(probe))`.
    fn first_touching(&self, probe: Rect) -> Option<usize> {
        // Rect ids are non-decreasing in region id: the lowest id wins.
        let mut first = u32::MAX;
        self.index.any(probe, 0, |id, _| {
            first = first.min(id);
            false
        });
        self.owner
            .get(first as usize)
            .map(|&region| region as usize)
    }

    /// Index of the first region containing point `p` — equivalent to a
    /// linear scan with `contains_point`.
    fn first_containing(&self, p: Point) -> Option<usize> {
        let mut ids = Vec::new();
        self.index.query_point_into(p, &mut ids);
        ids.first().map(|&id| self.owner[id as usize] as usize)
    }

    /// Sorted, deduplicated indices of every region touching any of
    /// `probes`.
    fn touching_any(&self, probes: &[Rect]) -> Vec<usize> {
        let mut out = Vec::new();
        for &p in probes {
            self.index.any(p, 0, |id, _| {
                out.push(self.owner[id as usize] as usize);
                false
            });
        }
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// Extracts the transistor netlist of the flattened hierarchy under
/// `root`.
///
/// Net naming: a net whose geometry covers a port *of the root cell*
/// takes that port's name; other nets are named `n0`, `n1`, ... in a
/// deterministic (geometry-sorted) order.
///
/// # Errors
///
/// * [`ExtractError::Layout`] — unknown root;
/// * [`ExtractError::MalformedTransistor`] — a channel without exactly
///   two source/drain regions.
pub fn extract(lib: &Library, root: CellId) -> Result<Extracted, ExtractError> {
    extract_traced(lib, root, &Tracer::disabled())
}

/// [`extract`] with a [`Tracer`]: records `extract.{flatten,channels,
/// regions,netlist}` spans plus `extract.transistors` / `extract.nets`
/// counters. With a disabled tracer this is exactly [`extract`].
///
/// # Errors
///
/// Same as [`extract`].
pub fn extract_traced(
    lib: &Library,
    root: CellId,
    tracer: &Tracer,
) -> Result<Extracted, ExtractError> {
    let layers = {
        let _s = span!(tracer, "extract.flatten");
        silc_layout::flatten_to_rects(lib, root)?
    };
    let poly_rects = &layers[Layer::Poly.index()];
    let diff_rects = &layers[Layer::Diffusion.index()];
    let metal_rects = &layers[Layer::Metal.index()];
    let cut_rects = &layers[Layer::Contact.index()];
    let buried_rects = &layers[Layer::Buried.index()];
    let implant_rects = &layers[Layer::Implant.index()];

    // Channels: connected components of poly ∩ diff. A crossing fully
    // covered by a contact cut is a butting contact — a shorted junction,
    // not a transistor. Candidate diffusion and covering cuts both come
    // from index queries around each poly rect.
    let channel_span = span!(tracer, "extract.channels");
    let diff_index = RectIndex::build(diff_rects);
    let cut_index = RectIndex::build(cut_rects);
    let mut crossings: Vec<Rect> = Vec::new();
    let (mut near, mut cover) = (Vec::new(), Cover::default());
    for p in poly_rects {
        diff_index.query_into(*p, 0, &mut near);
        for &j in &near {
            if let Some(g) = p.intersection(diff_index.rect(j)) {
                if !covered(&cut_index, g, &mut cover) {
                    crossings.push(g);
                }
            }
        }
    }
    let gates: Vec<Region> = merge_rects(&crossings);
    drop(channel_span);

    let region_span = span!(tracer, "extract.regions");
    // Source/drain diffusion: diffusion minus channels.
    let gate_rects: Vec<Rect> = gates.iter().flat_map(|g| g.rects().to_vec()).collect();
    let sd_rects = subtract_rects(diff_rects, &gate_rects);

    // Conducting regions.
    let diff_regions = merge_rects(&sd_rects);
    let poly_regions = merge_rects(poly_rects);
    let metal_regions = merge_rects(metal_rects);
    let diff_lookup = RegionLookup::build(&diff_regions);
    let poly_lookup = RegionLookup::build(&poly_regions);
    let metal_lookup = RegionLookup::build(&metal_regions);
    tracer.add(
        "extract.regions",
        (diff_regions.len() + poly_regions.len() + metal_regions.len()) as u64,
    );
    drop(region_span);

    // Node indexing: diff | poly | metal.
    let nd = diff_regions.len();
    let np = poly_regions.len();
    let total = nd + np + metal_regions.len();
    let mut uf = UnionFind::new(total);
    let diff_node = |i: usize| i;
    let poly_node = |i: usize| nd + i;
    let metal_node = |i: usize| nd + np + i;

    // Contacts join metal to poly/diffusion; buried joins poly to
    // diffusion. Each cut resolves its regions by index lookup.
    for cut in cut_rects {
        let m = metal_lookup.first_touching(*cut);
        let p = poly_lookup.first_touching(*cut);
        let d = diff_lookup.first_touching(*cut);
        if let (Some(m), Some(p)) = (m, p) {
            uf.union(metal_node(m), poly_node(p));
        }
        if let (Some(m), Some(d)) = (m, d) {
            uf.union(metal_node(m), diff_node(d));
        }
        // A cut with both poly and diffusion under it is a butting
        // contact joining all three.
        if let (Some(p), Some(d)) = (p, d) {
            uf.union(poly_node(p), diff_node(d));
        }
    }
    for buried in buried_rects {
        let p = poly_lookup.first_touching(*buried);
        let d = diff_lookup.first_touching(*buried);
        if let (Some(p), Some(d)) = (p, d) {
            uf.union(poly_node(p), diff_node(d));
        }
    }

    // Net naming: root ports claim their nets.
    let root_cell = lib
        .cell(root)
        .ok_or_else(|| ExtractError::Layout("no root".into()))?;
    let mut net_names: HashMap<usize, String> = HashMap::new();
    for port in root_cell.ports() {
        let region_node = match port.layer {
            Layer::Diffusion => diff_lookup.first_containing(port.at).map(diff_node),
            Layer::Poly => poly_lookup.first_containing(port.at).map(poly_node),
            Layer::Metal => metal_lookup.first_containing(port.at).map(metal_node),
            _ => None,
        };
        if let Some(node) = region_node {
            net_names.entry(uf.find(node)).or_insert(port.name.clone());
        }
    }

    let netlist_span = span!(tracer, "extract.netlist");
    let implant_index = RectIndex::build(implant_rects);
    let resolved = gates.iter().map(|gate| {
        let gbox = gate.bbox();
        let gp = poly_lookup
            .touching_any(gate.rects())
            .first()
            .copied()
            .ok_or(ExtractError::MalformedTransistor {
                at: gbox,
                diffusions: 0,
            })?;
        let sd = diff_lookup.touching_any(gate.rects());
        if sd.len() != 2 {
            return Err(ExtractError::MalformedTransistor {
                at: gbox,
                diffusions: sd.len(),
            });
        }
        let kind = if implant_index.any(gbox, 0, |_, implant| implant.contains_rect(gbox)) {
            "dep"
        } else {
            "enh"
        };
        Ok((gbox, gp, [sd[0], sd[1]], kind))
    });

    let extracted = assemble(root_cell.name(), (nd, total), uf, &net_names, resolved)?;
    drop(netlist_span);
    tracer.add("extract.transistors", extracted.transistors.len() as u64);
    tracer.add("extract.nets", extracted.nets as u64);
    Ok(extracted)
}

/// What one gate's geometry resolves to: its box, its poly region, its
/// two source/drain diffusion regions and its device kind.
type Gate = Result<(Rect, usize, [usize; 2], &'static str), ExtractError>;

/// Builds the netlist from the resolved gates in gate order, which fixes
/// the anonymous net numbering and the first error reported. Nodes are
/// numbered diffusion regions (`nd` of them), then poly, then metal,
/// `total` in all.
fn assemble(
    name: &str,
    (nd, total): (usize, usize),
    mut uf: UnionFind,
    net_names: &HashMap<usize, String>,
    gates: impl IntoIterator<Item = Gate>,
) -> Result<Extracted, ExtractError> {
    let mut netlist = Netlist::new(name.to_string());
    let mut net_of_node: HashMap<usize, silc_netlist::NetId> = HashMap::new();
    let mut next_anon = 0usize;
    let mut net_id = |node: usize, uf: &mut UnionFind, netlist: &mut Netlist| {
        let rep = uf.find(node);
        *net_of_node.entry(rep).or_insert_with(|| {
            netlist.add_net(net_names.get(&rep).cloned().unwrap_or_else(|| {
                next_anon += 1;
                format!("n{}", next_anon - 1)
            }))
        })
    };

    let mut transistors: Vec<(String, Rect)> = Vec::new();
    for (t, gate) in gates.into_iter().enumerate() {
        let (gbox, gp, sd, kind) = gate?;
        let g_net = net_id(nd + gp, &mut uf, &mut netlist);
        let mut s_net = net_id(sd[0], &mut uf, &mut netlist);
        let mut d_net = net_id(sd[1], &mut uf, &mut netlist);
        // Canonical source/drain order so signatures are stable.
        if netlist.net_name(s_net) > netlist.net_name(d_net) {
            std::mem::swap(&mut s_net, &mut d_net);
        }
        netlist.add_instance(
            format!("m{t}"),
            kind,
            &[("gate", g_net), ("src", s_net), ("drn", d_net)],
        )?;
        transistors.push((kind.to_string(), gbox));
    }

    // Count all electrically distinct regions, including floating ones
    // that no transistor touches.
    let mut reps: Vec<usize> = (0..total).map(|i| uf.find(i)).collect();
    reps.sort_unstable();
    reps.dedup();
    Ok(Extracted {
        netlist,
        transistors,
        nets: reps.len(),
    })
}

/// Subtracts `cuts` from `base`, returning disjoint rectangles covering
/// `base − cuts` exactly.
///
/// Each base rectangle is carved independently against only the cuts that
/// touch it (an index query); cuts are applied in input order, so the
/// output is identical — rect for rect — to the all-pairs sweep that
/// applied every cut to every evolving slab.
fn subtract_rects(base: &[Rect], cuts: &[Rect]) -> Vec<Rect> {
    let cut_index = RectIndex::build(cuts);
    let mut out: Vec<Rect> = Vec::with_capacity(base.len());
    let (mut near, mut slabs, mut carved) = (Vec::new(), Vec::new(), Vec::new());
    for &b in base {
        slabs.clear();
        slabs.push(b);
        // Ascending ids = original cut order; cuts missing the base rect
        // cannot intersect any slab carved from it.
        cut_index.query_into(b, 0, &mut near);
        for &c in &near {
            carved.clear();
            for r in &slabs {
                r.subtract_into(cut_index.rect(c), &mut carved);
            }
            std::mem::swap(&mut slabs, &mut carved);
        }
        out.extend_from_slice(&slabs);
    }
    out
}

struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> UnionFind {
        UnionFind {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, i: usize) -> usize {
        if self.parent[i] != i {
            let root = self.find(self.parent[i]);
            self.parent[i] = root;
        }
        self.parent[i]
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra] = rb;
        }
    }
}

/// The all-pairs reference extractor: every geometric resolution is a
/// linear scan, exactly as the pre-index implementation did it. Kept as
/// the equivalence oracle for the proptests. O(n²).
#[cfg(test)]
fn extract_brute(lib: &Library, root: CellId) -> Result<Extracted, ExtractError> {
    let layers = silc_layout::flatten_to_rects(lib, root)?;
    let poly_rects = &layers[Layer::Poly.index()];
    let diff_rects = &layers[Layer::Diffusion.index()];
    let metal_rects = &layers[Layer::Metal.index()];
    let cut_rects = &layers[Layer::Contact.index()];
    let buried_rects = &layers[Layer::Buried.index()];
    let implant_rects = &layers[Layer::Implant.index()];

    let mut crossings: Vec<Rect> = Vec::new();
    for p in poly_rects {
        for d in diff_rects {
            if let Some(g) = p.intersection(*d) {
                if !silc_drc::region_contains_rect(cut_rects, g) {
                    crossings.push(g);
                }
            }
        }
    }
    let gates: Vec<Region> = merge_rects(&crossings);

    let gate_rects: Vec<Rect> = gates.iter().flat_map(|g| g.rects().to_vec()).collect();
    let sd_rects = brute_subtract_rects(diff_rects, &gate_rects);

    let diff_regions = merge_rects(&sd_rects);
    let poly_regions = merge_rects(poly_rects);
    let metal_regions = merge_rects(metal_rects);

    let nd = diff_regions.len();
    let np = poly_regions.len();
    let total = nd + np + metal_regions.len();
    let mut uf = UnionFind::new(total);
    let diff_node = |i: usize| i;
    let poly_node = |i: usize| nd + i;
    let metal_node = |i: usize| nd + np + i;

    for cut in cut_rects {
        let m = metal_regions.iter().position(|r| r.touches_rect(*cut));
        let p = poly_regions.iter().position(|r| r.touches_rect(*cut));
        let d = diff_regions.iter().position(|r| r.touches_rect(*cut));
        if let (Some(m), Some(p)) = (m, p) {
            uf.union(metal_node(m), poly_node(p));
        }
        if let (Some(m), Some(d)) = (m, d) {
            uf.union(metal_node(m), diff_node(d));
        }
        if let (Some(p), Some(d)) = (p, d) {
            uf.union(poly_node(p), diff_node(d));
        }
    }
    for buried in buried_rects {
        let p = poly_regions.iter().position(|r| r.touches_rect(*buried));
        let d = diff_regions.iter().position(|r| r.touches_rect(*buried));
        if let (Some(p), Some(d)) = (p, d) {
            uf.union(poly_node(p), diff_node(d));
        }
    }

    let root_cell = lib
        .cell(root)
        .ok_or_else(|| ExtractError::Layout("no root".into()))?;
    let mut net_names: HashMap<usize, String> = HashMap::new();
    for port in root_cell.ports() {
        let covers = |r: &&Region| r.contains_point(port.at);
        let region_node = match port.layer {
            Layer::Diffusion => diff_regions.iter().position(|r| covers(&r)).map(diff_node),
            Layer::Poly => poly_regions.iter().position(|r| covers(&r)).map(poly_node),
            Layer::Metal => metal_regions
                .iter()
                .position(|r| covers(&r))
                .map(metal_node),
            _ => None,
        };
        if let Some(node) = region_node {
            net_names.entry(uf.find(node)).or_insert(port.name.clone());
        }
    }

    let resolved: Vec<Gate> =
        gates
            .iter()
            .map(|gate| {
                let gbox = gate.bbox();
                let touches = |r: &Region| gate.rects().iter().any(|g| r.touches_rect(*g));
                let gp = poly_regions.iter().position(touches).ok_or(
                    ExtractError::MalformedTransistor {
                        at: gbox,
                        diffusions: 0,
                    },
                )?;
                let sd: Vec<usize> = (0..nd).filter(|&i| touches(&diff_regions[i])).collect();
                if sd.len() != 2 {
                    return Err(ExtractError::MalformedTransistor {
                        at: gbox,
                        diffusions: sd.len(),
                    });
                }
                let implanted = implant_rects.iter().any(|imp| imp.contains_rect(gbox));
                Ok((
                    gbox,
                    gp,
                    [sd[0], sd[1]],
                    if implanted { "dep" } else { "enh" },
                ))
            })
            .collect();
    assemble(root_cell.name(), (nd, total), uf, &net_names, resolved)
}

/// The original all-cuts-over-all-slabs subtraction, kept for the oracle.
#[cfg(test)]
fn brute_subtract_rects(base: &[Rect], cuts: &[Rect]) -> Vec<Rect> {
    let mut result: Vec<Rect> = base.to_vec();
    for cut in cuts {
        let mut next: Vec<Rect> = Vec::with_capacity(result.len());
        for r in result {
            r.subtract_into(*cut, &mut next);
        }
        result = next;
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use silc_layout::{Cell, Element, Port};

    fn rect(x0: i64, y0: i64, x1: i64, y1: i64) -> Rect {
        Rect::new(Point::new(x0, y0), Point::new(x1, y1)).unwrap()
    }

    /// A complete nMOS inverter: depletion pullup + enhancement pulldown.
    fn inverter(lib: &mut Library) -> CellId {
        let mut c = Cell::new("inv");
        // Vertical diffusion strip from gnd to vdd.
        c.push_element(Element::rect(Layer::Diffusion, rect(0, 0, 4, 30)));
        // Pulldown gate: input poly crossing at y 8..10.
        c.push_element(Element::rect(Layer::Poly, rect(-4, 8, 8, 10)));
        // Pullup gate at y 20..22, with implant making it depletion.
        c.push_element(Element::rect(Layer::Poly, rect(-4, 20, 8, 22)));
        c.push_element(Element::rect(Layer::Implant, rect(-2, 18, 6, 24)));
        // Output contact on the middle diffusion island, metal out.
        c.push_element(Element::rect(Layer::Contact, rect(1, 14, 3, 16)));
        c.push_element(Element::rect(Layer::Metal, rect(0, 13, 12, 17)));
        // Buried contact tying the pullup gate to the output (standard
        // depletion-load connection).
        c.push_element(Element::rect(Layer::Buried, rect(-4, 14, 0, 21)));
        // Ports.
        c.push_port(Port::new("in", Layer::Poly, Point::new(-4, 9)));
        c.push_port(Port::new("out", Layer::Metal, Point::new(12, 15)));
        c.push_port(Port::new("gnd", Layer::Diffusion, Point::new(2, 0)));
        c.push_port(Port::new("vdd", Layer::Diffusion, Point::new(2, 30)));
        lib.add_cell(c).unwrap()
    }

    #[test]
    fn single_transistor() {
        let mut lib = Library::new();
        let mut c = Cell::new("t");
        c.push_element(Element::rect(Layer::Diffusion, rect(0, 4, 12, 8)));
        c.push_element(Element::rect(Layer::Poly, rect(5, 0, 7, 12)));
        let id = lib.add_cell(c).unwrap();
        let x = extract(&lib, id).unwrap();
        assert_eq!(x.transistor_count(), 1);
        assert_eq!(x.transistors[0].0, "enh");
        // Three nets: gate poly, two diffusion islands.
        assert_eq!(x.nets, 3);
    }

    #[test]
    fn implant_makes_depletion() {
        let mut lib = Library::new();
        let mut c = Cell::new("t");
        c.push_element(Element::rect(Layer::Diffusion, rect(0, 4, 12, 8)));
        c.push_element(Element::rect(Layer::Poly, rect(5, 0, 7, 12)));
        c.push_element(Element::rect(Layer::Implant, rect(3, 2, 9, 10)));
        let id = lib.add_cell(c).unwrap();
        let x = extract(&lib, id).unwrap();
        assert_eq!(x.transistors[0].0, "dep");
    }

    #[test]
    fn inverter_extracts_fully() {
        let mut lib = Library::new();
        let id = inverter(&mut lib);
        let x = extract(&lib, id).unwrap();
        assert_eq!(x.transistor_count(), 2);
        let kinds: Vec<&str> = x.transistors.iter().map(|(k, _)| k.as_str()).collect();
        assert!(kinds.contains(&"enh"));
        assert!(kinds.contains(&"dep"));
        // Named nets: in, out, gnd, vdd.
        let names: Vec<&str> = x.netlist.nets().iter().map(|n| n.name.as_str()).collect();
        for expected in ["in", "out", "gnd", "vdd"] {
            assert!(
                names.contains(&expected),
                "missing net {expected}: {names:?}"
            );
        }
    }

    #[test]
    fn inverter_matches_intended_netlist() {
        let mut lib = Library::new();
        let id = inverter(&mut lib);
        let x = extract(&lib, id).unwrap();

        // The schematic we meant to draw.
        let mut intended = Netlist::new("inv");
        let inn = intended.add_net("in");
        let out = intended.add_net("out");
        let gnd = intended.add_net("gnd");
        let vdd = intended.add_net("vdd");
        intended
            .add_instance("m0", "enh", &[("gate", inn), ("src", gnd), ("drn", out)])
            .unwrap();
        intended
            .add_instance("m1", "dep", &[("gate", out), ("src", out), ("drn", vdd)])
            .unwrap();

        assert!(
            x.netlist.structurally_matches(&intended),
            "extracted:\n{}\nintended:\n{intended}",
            x.netlist
        );
    }

    #[test]
    fn metal_over_diffusion_does_not_connect() {
        let mut lib = Library::new();
        let mut c = Cell::new("t");
        c.push_element(Element::rect(Layer::Diffusion, rect(0, 0, 10, 4)));
        c.push_element(Element::rect(Layer::Metal, rect(0, 0, 10, 4)));
        // A transistor so the netlist is non-trivial.
        c.push_element(Element::rect(Layer::Poly, rect(4, -4, 6, 8)));
        let id = lib.add_cell(c).unwrap();
        let x = extract(&lib, id).unwrap();
        // Metal and diffusion are separate nets (no contact): the two
        // diffusion islands plus poly plus metal.
        assert_eq!(x.nets, 4);
    }

    #[test]
    fn contact_connects_layers() {
        let mut lib = Library::new();
        let mut c = Cell::new("t");
        c.push_element(Element::rect(Layer::Diffusion, rect(0, 0, 10, 4)));
        c.push_element(Element::rect(Layer::Metal, rect(0, 0, 10, 4)));
        c.push_element(Element::rect(Layer::Contact, rect(1, 1, 3, 3)));
        c.push_element(Element::rect(Layer::Poly, rect(4, -4, 6, 8)));
        let id = lib.add_cell(c).unwrap();
        let x = extract(&lib, id).unwrap();
        // Metal joined to the left island: 3 nets now.
        assert_eq!(x.nets, 3);
    }

    #[test]
    fn dangling_gate_is_malformed() {
        let mut lib = Library::new();
        let mut c = Cell::new("t");
        // Poly completely covers the diffusion: no source/drain islands.
        c.push_element(Element::rect(Layer::Diffusion, rect(2, 2, 6, 6)));
        c.push_element(Element::rect(Layer::Poly, rect(0, 0, 8, 8)));
        let id = lib.add_cell(c).unwrap();
        assert!(matches!(
            extract(&lib, id),
            Err(ExtractError::MalformedTransistor { diffusions: 0, .. })
        ));
    }

    #[test]
    fn subtract_rects_carves_holes() {
        let base = vec![rect(0, 0, 10, 10)];
        let out = subtract_rects(&base, &[rect(4, 4, 6, 6)]);
        let area: i64 = out.iter().map(Rect::area).sum();
        assert_eq!(area, 100 - 4);
        // Disjoint.
        for (i, a) in out.iter().enumerate() {
            for b in &out[i + 1..] {
                assert!(!a.overlaps(*b));
            }
        }
        // Subtracting everything leaves nothing.
        assert!(subtract_rects(&base, &[rect(-1, -1, 11, 11)]).is_empty());
        // Disjoint cut leaves base intact.
        assert_eq!(subtract_rects(&base, &[rect(20, 20, 30, 30)]), base);
    }

    #[test]
    fn hierarchical_layout_extracts() {
        // The same transistor placed twice via hierarchy.
        let mut lib = Library::new();
        let mut leaf = Cell::new("leaf");
        leaf.push_element(Element::rect(Layer::Diffusion, rect(0, 4, 12, 8)));
        leaf.push_element(Element::rect(Layer::Poly, rect(5, 0, 7, 12)));
        let leaf_id = lib.add_cell(leaf).unwrap();
        let mut top = Cell::new("top");
        top.push_instance(
            silc_layout::Instance::array(leaf_id, silc_geom::Transform::IDENTITY, 2, 1, 40, 0)
                .unwrap(),
        );
        let top_id = lib.add_cell(top).unwrap();
        let x = extract(&lib, top_id).unwrap();
        assert_eq!(x.transistor_count(), 2);
        assert_eq!(x.nets, 6);
    }

    /// Random multi-layer layout builder for the equivalence proptests.
    /// Layers are restricted to the electrically meaningful set; a port
    /// is pinned at the first diffusion rect's corner to exercise naming.
    fn random_cell(specs: &[(usize, i64, i64, i64, i64)]) -> (Library, CellId) {
        const LAYERS: [Layer; 6] = [
            Layer::Diffusion,
            Layer::Poly,
            Layer::Metal,
            Layer::Contact,
            Layer::Buried,
            Layer::Implant,
        ];
        let mut lib = Library::new();
        let mut c = Cell::new("rand");
        let mut first_diff: Option<Point> = None;
        for &(l, x, y, w, h) in specs {
            let layer = LAYERS[l % LAYERS.len()];
            let r = rect(x, y, x + w, y + h);
            if layer == Layer::Diffusion && first_diff.is_none() {
                first_diff = Some(Point::new(x, y));
            }
            c.push_element(Element::rect(layer, r));
        }
        if let Some(p) = first_diff {
            c.push_port(Port::new("a", Layer::Diffusion, p));
        }
        let id = lib.add_cell(c).unwrap();
        (lib, id)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The tentpole guarantee for extraction: the indexed extractor
        /// recovers exactly the netlist of the all-pairs oracle — same
        /// nets, same names, same transistors — or fails with exactly the
        /// same error.
        #[test]
        fn indexed_extractor_matches_brute_force(
            specs in prop::collection::vec(
                (0usize..6, 0i64..60, 0i64..60, 2i64..10, 2i64..10), 1..50),
        ) {
            let (lib, id) = random_cell(&specs);
            let fast = extract(&lib, id);
            let brute = extract_brute(&lib, id);
            match (fast, brute) {
                (Ok(f), Ok(b)) => {
                    prop_assert_eq!(f.netlist.to_string(), b.netlist.to_string());
                    prop_assert_eq!(f.transistors, b.transistors);
                    prop_assert_eq!(f.nets, b.nets);
                }
                (Err(f), Err(b)) => prop_assert_eq!(f, b),
                (f, b) => prop_assert!(
                    false,
                    "indexed and brute disagree: {f:?} vs {b:?}"
                ),
            }
        }

        /// Subtraction equivalence in isolation (it backs source/drain
        /// splitting): identical output rects, order included.
        #[test]
        fn subtract_matches_brute_force(
            base in prop::collection::vec((0i64..40, 0i64..40, 1i64..12, 1i64..12), 1..25),
            cuts in prop::collection::vec((0i64..40, 0i64..40, 1i64..12, 1i64..12), 0..25),
        ) {
            let base: Vec<Rect> = base.iter().map(|&(x, y, w, h)| rect(x, y, x + w, y + h)).collect();
            let cuts: Vec<Rect> = cuts.iter().map(|&(x, y, w, h)| rect(x, y, x + w, y + h)).collect();
            prop_assert_eq!(subtract_rects(&base, &cuts), brute_subtract_rects(&base, &cuts));
        }
    }
}
