use crate::region::{covered, merge_flat, Cover, Merged};
use crate::RuleSet;
use silc_geom::{
    persist, Coord, Dec, DecodeError, Fingerprint, FpHasher, Persist, Rect, RectIndex,
};
use silc_layout::{CellId, Layer, LayoutError, Library};
use silc_trace::{span, Tracer};
use std::cell::OnceCell;
use std::fmt;

/// The rule a violation broke.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuleKind {
    /// Feature narrower than the layer's minimum width.
    MinWidth {
        /// Layer checked.
        layer: Layer,
        /// Required width in lambda.
        required: Coord,
    },
    /// Two features closer than the minimum spacing.
    MinSpacing {
        /// First layer.
        a: Layer,
        /// Second layer.
        b: Layer,
        /// Required spacing in lambda.
        required: Coord,
    },
    /// A contact cut not sufficiently surrounded by metal.
    ContactMetalSurround {
        /// Required surround in lambda.
        required: Coord,
    },
    /// A contact cut not sufficiently surrounded by poly or diffusion.
    ContactLowerSurround {
        /// Required surround in lambda.
        required: Coord,
    },
    /// A transistor gate without the required poly/diffusion extensions.
    GateOverhang {
        /// Required poly overhang in lambda.
        poly: Coord,
        /// Required diffusion overhang in lambda.
        diff: Coord,
    },
}

impl fmt::Display for RuleKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuleKind::MinWidth { layer, required } => {
                write!(f, "{layer} width < {required}")
            }
            RuleKind::MinSpacing { a, b, required } => {
                write!(f, "{a}-{b} spacing < {required}")
            }
            RuleKind::ContactMetalSurround { required } => {
                write!(f, "contact metal surround < {required}")
            }
            RuleKind::ContactLowerSurround { required } => {
                write!(f, "contact poly/diffusion surround < {required}")
            }
            RuleKind::GateOverhang { poly, diff } => {
                write!(f, "gate overhang (poly {poly}, diff {diff}) missing")
            }
        }
    }
}

/// One design-rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which rule fired.
    pub rule: RuleKind,
    /// Where (in root coordinates).
    pub at: Rect,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at {}", self.rule, self.at)
    }
}

impl Fingerprint for RuleKind {
    fn fp_hash(&self, h: &mut FpHasher) {
        match *self {
            RuleKind::MinWidth { layer, required } => {
                h.write_u8(0);
                layer.fp_hash(h);
                h.write_i64(required);
            }
            RuleKind::MinSpacing { a, b, required } => {
                h.write_u8(1);
                a.fp_hash(h);
                b.fp_hash(h);
                h.write_i64(required);
            }
            RuleKind::ContactMetalSurround { required } => {
                h.write_u8(2);
                h.write_i64(required);
            }
            RuleKind::ContactLowerSurround { required } => {
                h.write_u8(3);
                h.write_i64(required);
            }
            RuleKind::GateOverhang { poly, diff } => {
                h.write_u8(4);
                h.write_i64(poly);
                h.write_i64(diff);
            }
        }
    }
}

impl Persist for RuleKind {
    fn decode(d: &mut Dec<'_>) -> Result<Self, DecodeError> {
        Ok(match d.u8()? {
            0 => RuleKind::MinWidth {
                layer: Layer::decode(d)?,
                required: d.i64()?,
            },
            1 => RuleKind::MinSpacing {
                a: Layer::decode(d)?,
                b: Layer::decode(d)?,
                required: d.i64()?,
            },
            2 => RuleKind::ContactMetalSurround { required: d.i64()? },
            3 => RuleKind::ContactLowerSurround { required: d.i64()? },
            4 => RuleKind::GateOverhang {
                poly: d.i64()?,
                diff: d.i64()?,
            },
            t => return Err(format!("invalid rule kind tag {t}")),
        })
    }
}

persist!(Violation { rule, at });

persist!(Report {
    rules,
    violations,
    rects_checked
});

/// The result of a DRC run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Report {
    /// Name of the rule set used.
    pub rules: String,
    /// All violations found.
    pub violations: Vec<Violation>,
    /// Number of rectangles checked (after flattening/decomposition).
    pub rects_checked: usize,
}

impl Report {
    /// True when the layout is clean.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "DRC ({}) checked {} rects: {} violation(s)",
            self.rules,
            self.rects_checked,
            self.violations.len()
        )?;
        for v in &self.violations {
            writeln!(f, "  {v}")?;
        }
        Ok(())
    }
}

/// Buffers the run reuses from lookup to lookup, so the passes stay off
/// the heap once these have grown to the neighbourhood size.
#[derive(Default)]
struct Scratch {
    near: Vec<u32>,
    cover: Cover,
}

/// Runs the design-rule checker on the hierarchy under `root`: the
/// report is the one the flat checker gives the flattened design.
///
/// # Errors
///
/// Returns [`LayoutError::UnknownCell`] if `root` is not in the library.
pub fn check(lib: &Library, root: CellId, rules: &RuleSet) -> Result<Report, LayoutError> {
    check_traced(lib, root, rules, &Tracer::disabled())
}

/// [`check`] with a [`Tracer`]. A design holding an array is first offered
/// to the hierarchy proof (a `drc.prove` span). When that gives up, the
/// design is flattened (a `layout.flatten` span) and
/// checked by the flat checker with its per-pass spans and counters.
/// Either way the run counts `drc.rects_checked` (the flattened
/// rectangles) and `drc.rects_examined` (those the flat passes saw).
///
/// # Errors
///
/// Returns [`LayoutError::UnknownCell`] if `root` is not in the library.
pub fn check_traced(
    lib: &Library,
    root: CellId,
    rules: &RuleSet,
    tracer: &Tracer,
) -> Result<Report, LayoutError> {
    if let Some(report) = crate::hier::prove_clean(lib, root, rules, tracer) {
        return Ok(report);
    }
    let layers = {
        let mut s = span!(tracer, "layout.flatten");
        let layers = silc_layout::flatten_to_rects(lib, root)?;
        s.attr("rects", layers.iter().map(Vec::len).sum::<usize>() as u64);
        layers
    };
    Ok(check_flat_traced(&layers, rules, tracer))
}

/// Runs the checker on pre-flattened per-layer rectangles (indexed by
/// [`Layer::index`]). The product reaches it through [`check_traced`];
/// this untraced form stays for the benchmark ledger and as the oracle
/// the hierarchy proof is tested against.
///
/// Every pass looks rectangles up in a [`RectIndex`] — one over each
/// layer's drawn rectangles, one over its merged rectangles, each built
/// once per run and shared by the passes that need it — so a rectangle is
/// compared only against its spatial neighbourhood. Output is identical to
/// the all-pairs oracle: candidate ids come back from the index in the
/// same ascending order brute-force iteration would visit them.
pub fn check_flat(layers: &[Vec<Rect>], rules: &RuleSet) -> Report {
    check_flat_traced(layers, rules, &Tracer::disabled())
}

/// One run's shared state: the drawn and merged rectangles of every
/// layer and the index over each, built the first time a pass asks.
struct Run<'a> {
    layers: &'a [Vec<Rect>],
    merged: Vec<Merged>,
    drawn_index: Vec<OnceCell<RectIndex>>,
    merged_index: Vec<OnceCell<RectIndex>>,
    rules: &'a RuleSet,
    tracer: &'a Tracer,
}

impl Run<'_> {
    fn index<'i>(&self, slot: &'i OnceCell<RectIndex>, rects: &[Rect]) -> &'i RectIndex {
        slot.get_or_init(|| {
            let index = RectIndex::build(rects);
            self.tracer.add("drc.index.rects", index.len() as u64);
            self.tracer.add("drc.index.bins", index.bin_count() as u64);
            index
        })
    }

    /// The index over `layer`'s rectangles as drawn.
    fn drawn(&self, layer: Layer) -> &RectIndex {
        let l = layer.index();
        self.index(&self.drawn_index[l], &self.layers[l])
    }

    /// The index over `layer`'s merged rectangles, ids in region order.
    fn merged(&self, layer: Layer) -> &RectIndex {
        let l = layer.index();
        self.index(&self.merged_index[l], &self.merged[l].rects)
    }
}

/// [`check_flat`] with a [`Tracer`]: each rule pass records a
/// `drc.{merge,width,spacing,contact,gate}` span, and the run flushes
/// `drc.rects_checked`, `drc.rects_examined`, `drc.violations`,
/// `drc.index.rects` (rectangles inserted into spatial indexes) and
/// `drc.index.bins` (grid bins built) counters.
pub(crate) fn check_flat_traced(layers: &[Vec<Rect>], rules: &RuleSet, tracer: &Tracer) -> Report {
    let rects_checked = layers.iter().map(Vec::len).sum();
    let violations = violations(layers, rules, tracer);
    tracer.add("drc.rects_checked", rects_checked as u64);
    tracer.add("drc.rects_examined", rects_checked as u64);
    tracer.add("drc.violations", violations.len() as u64);
    Report {
        rules: rules.name.clone(),
        violations,
        rects_checked,
    }
}

/// Every rule pass over `layers`, in report order.
pub(crate) fn violations(layers: &[Vec<Rect>], rules: &RuleSet, tracer: &Tracer) -> Vec<Violation> {
    let mut violations = Vec::new();
    let mut scratch = Scratch::default();

    let merged: Vec<Merged> = {
        let _s = span!(tracer, "drc.merge");
        layers.iter().map(|v| merge_flat(v)).collect()
    };
    let slots = || layers.iter().map(|_| OnceCell::new()).collect();
    let run = Run {
        layers,
        merged,
        drawn_index: slots(),
        merged_index: slots(),
        rules,
        tracer,
    };

    {
        let _s = span!(tracer, "drc.width");
        width_checks(&run, &mut scratch, &mut violations);
    }
    {
        let _s = span!(tracer, "drc.spacing");
        spacing_checks(&run, &mut scratch, &mut violations);
    }
    {
        let _s = span!(tracer, "drc.contact");
        contact_checks(&run, &mut scratch, &mut violations);
    }
    {
        let _s = span!(tracer, "drc.gate");
        gate_checks(&run, &mut scratch, &mut violations);
    }
    violations
}

/// Width: every *drawn* rectangle must meet the minimum width unless it is
/// redundant (fully covered by the other rectangles on the layer, in which
/// case it adds no new feature).
fn width_checks(run: &Run<'_>, scratch: &mut Scratch, out: &mut Vec<Violation>) {
    for layer in Layer::ALL {
        let w = run.rules.min_width(layer);
        for (i, &r) in (0u32..).zip(&run.layers[layer.index()]) {
            if r.min_dimension() >= w {
                continue;
            }
            // Redundancy exemption: covered entirely by the other rects.
            // Only rects touching `r` can contribute coverage.
            scratch.cover.start(r);
            let redundant = run
                .drawn(layer)
                .any(r, 0, |j, other| j != i && scratch.cover.add(other));
            if !redundant {
                out.push(Violation {
                    rule: RuleKind::MinWidth { layer, required: w },
                    at: r,
                });
            }
        }
    }
}

/// Spacing: between merged rects that do not touch. Covers both
/// region-to-region spacing and same-region notches. Within a rule pair,
/// each rect is compared only against index candidates within the rule
/// distance.
fn spacing_checks(run: &Run<'_>, scratch: &mut Scratch, out: &mut Vec<Violation>) {
    for (a, b) in run.rules.active_spacing_pairs() {
        let s = run.rules.min_spacing(a, b);
        let ra = &run.merged[a.index()].rects;
        let index = run.merged(b);
        run.tracer.add("drc.queries", ra.len() as u64);
        for (i, &x) in (0u32..).zip(ra) {
            // Ascending candidate ids reproduce the pair order of the
            // all-pairs loop (i < j within one layer); margin s covers
            // every violating pair (violations need both axis gaps < s).
            index.query_into(x, s, &mut scratch.near);
            for &j in scratch.near.iter().filter(|&&j| a != b || j > i) {
                spacing_pair(a, b, s, x, index.rect(j), out);
            }
        }
    }
}

fn spacing_pair(a: Layer, b: Layer, s: Coord, x: Rect, y: Rect, out: &mut Vec<Violation>) {
    if x.touches(y) {
        // Same feature (same layer) or an intentional crossing (poly over
        // diffusion forms a transistor): not a spacing violation.
        return;
    }
    let (gx, gy) = x.axis_gaps(y);
    if gx < s && gy < s {
        out.push(Violation {
            rule: RuleKind::MinSpacing { a, b, required: s },
            at: x.union(y),
        });
    }
}

/// Contacts: each cut must be surrounded by metal and by poly or
/// diffusion; enclosure coverage for each cut comes from index lookups
/// around it.
fn contact_checks(run: &Run<'_>, scratch: &mut Scratch, out: &mut Vec<Violation>) {
    let cuts = &run.layers[Layer::Contact.index()];
    if cuts.is_empty() {
        return;
    }
    let (metal_by, lower_by) = (
        run.rules.contact_metal_surround,
        run.rules.contact_lower_surround,
    );
    let metal = run.drawn(Layer::Metal);
    let poly = run.drawn(Layer::Poly);
    let diff = run.drawn(Layer::Diffusion);
    run.tracer.add("drc.queries", 2 * cuts.len() as u64);

    let cover = &mut scratch.cover;
    for cut in cuts {
        if metal_by > 0 && !covered(metal, cut.grow(metal_by, metal_by), cover) {
            out.push(Violation {
                rule: RuleKind::ContactMetalSurround { required: metal_by },
                at: *cut,
            });
        }
        if lower_by > 0 {
            let needed = cut.grow(lower_by, lower_by);
            // Either poly alone or diffusion alone must enclose; a mix is
            // a butting contact, which we accept when the union covers.
            cover.start(needed);
            let enclosed = poly.any(needed, 0, |_, r| cover.add(r))
                || diff.any(needed, 0, |_, r| cover.add(r));
            if !enclosed {
                out.push(Violation {
                    rule: RuleKind::ContactLowerSurround { required: lower_by },
                    at: *cut,
                });
            }
        }
    }
}

/// Transistor gates: wherever poly crosses diffusion, poly must extend
/// `gate_poly_overhang` beyond the channel on one axis and diffusion
/// `gate_diff_overhang` on the other. A crossing fully covered by a
/// contact cut is a butting contact (the metal shorts the junction), not
/// a transistor, and is exempt. Crossing discovery queries the diffusion
/// index per poly rect.
fn gate_checks(run: &Run<'_>, scratch: &mut Scratch, out: &mut Vec<Violation>) {
    let (pv, dv) = (run.rules.gate_poly_overhang, run.rules.gate_diff_overhang);
    let poly = &run.merged[Layer::Poly.index()].rects;
    if (pv == 0 && dv == 0)
        || poly.is_empty()
        || run.merged[Layer::Diffusion.index()].rects.is_empty()
    {
        return;
    }
    // Gates are connected components of the poly∩diff geometry.
    let diff_index = run.merged(Layer::Diffusion);
    let mut crossings: Vec<Rect> = Vec::new();
    let Scratch { near, cover } = scratch;
    for p in poly {
        diff_index.query_into(*p, 0, near);
        crossings.extend(
            near.iter()
                .filter_map(|&j| p.intersection(diff_index.rect(j))),
        );
    }
    let cuts = run.drawn(Layer::Contact);
    let poly_index = run.merged(Layer::Poly);
    run.tracer.add("drc.queries", poly.len() as u64);
    let gates = merge_flat(&crossings);
    run.tracer.add("drc.gates", gates.regions().count() as u64);
    for rects in gates.regions() {
        let g = rects
            .iter()
            .copied()
            .reduce(|a, b| a.union(b))
            .expect("regions are non-empty");
        // Butting-contact exemption, then orientation A (poly runs
        // vertically, diffusion horizontally) or B (the transpose).
        let ok = covered(cuts, g, cover)
            || (covered(poly_index, g.grow(0, pv), cover)
                && covered(diff_index, g.grow(dv, 0), cover))
            || (covered(poly_index, g.grow(pv, 0), cover)
                && covered(diff_index, g.grow(0, dv), cover));
        if !ok {
            out.push(Violation {
                rule: RuleKind::GateOverhang { poly: pv, diff: dv },
                at: g,
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Brute-force oracle
// ---------------------------------------------------------------------------

/// All-pairs reference checker: the pre-index implementation, kept as the
/// correctness oracle for the equivalence proptests. O(n²) in the
/// rectangle count.
#[cfg(test)]
fn check_flat_brute(layers: &[Vec<Rect>], rules: &RuleSet) -> Report {
    let mut violations = Vec::new();
    let rects_checked = layers.iter().map(Vec::len).sum();

    let merged: Vec<Vec<Rect>> = layers.iter().map(|v| merge_flat(v).rects).collect();

    brute::width_checks(layers, rules, &mut violations);
    brute::spacing_checks(&merged, rules, &mut violations);
    brute::contact_checks(layers, rules, &mut violations);
    brute::gate_checks(&merged, layers, rules, &mut violations);

    Report {
        rules: rules.name.clone(),
        violations,
        rects_checked,
    }
}

#[cfg(test)]
mod brute {
    use super::*;
    use crate::{merge_rects, region_contains_rect};

    pub fn width_checks(layers: &[Vec<Rect>], rules: &RuleSet, out: &mut Vec<Violation>) {
        for layer in Layer::ALL {
            let w = rules.min_width(layer);
            if w == 0 {
                continue;
            }
            let rects = &layers[layer.index()];
            for (i, r) in rects.iter().enumerate() {
                if r.min_dimension() >= w {
                    continue;
                }
                let others: Vec<Rect> = rects
                    .iter()
                    .enumerate()
                    .filter(|&(j, _)| j != i)
                    .map(|(_, r)| *r)
                    .collect();
                if region_contains_rect(&others, *r) {
                    continue;
                }
                out.push(Violation {
                    rule: RuleKind::MinWidth { layer, required: w },
                    at: *r,
                });
            }
        }
    }

    pub fn spacing_checks(merged: &[Vec<Rect>], rules: &RuleSet, out: &mut Vec<Violation>) {
        for (a, b) in rules.active_spacing_pairs() {
            let s = rules.min_spacing(a, b);
            let (ra, rb) = (&merged[a.index()], &merged[b.index()]);
            if a == b {
                for i in 0..ra.len() {
                    for j in (i + 1)..ra.len() {
                        spacing_pair(a, b, s, ra[i], ra[j], out);
                    }
                }
            } else {
                for &x in ra {
                    for &y in rb {
                        spacing_pair(a, b, s, x, y, out);
                    }
                }
            }
        }
    }

    pub fn contact_checks(layers: &[Vec<Rect>], rules: &RuleSet, out: &mut Vec<Violation>) {
        let cuts = &layers[Layer::Contact.index()];
        if cuts.is_empty() {
            return;
        }
        let metal = &layers[Layer::Metal.index()];
        let poly = &layers[Layer::Poly.index()];
        let diff = &layers[Layer::Diffusion.index()];
        let lower: Vec<Rect> = poly.iter().chain(diff.iter()).copied().collect();

        for cut in cuts {
            if rules.contact_metal_surround > 0 {
                let needed = cut
                    .inflate(rules.contact_metal_surround)
                    .expect("inflating a valid rect");
                if !region_contains_rect(metal, needed) {
                    out.push(Violation {
                        rule: RuleKind::ContactMetalSurround {
                            required: rules.contact_metal_surround,
                        },
                        at: *cut,
                    });
                }
            }
            if rules.contact_lower_surround > 0 {
                let needed = cut
                    .inflate(rules.contact_lower_surround)
                    .expect("inflating a valid rect");
                if !region_contains_rect(&lower, needed) {
                    out.push(Violation {
                        rule: RuleKind::ContactLowerSurround {
                            required: rules.contact_lower_surround,
                        },
                        at: *cut,
                    });
                }
            }
        }
    }

    pub fn gate_checks(
        merged: &[Vec<Rect>],
        layers: &[Vec<Rect>],
        rules: &RuleSet,
        out: &mut Vec<Violation>,
    ) {
        if rules.gate_poly_overhang == 0 && rules.gate_diff_overhang == 0 {
            return;
        }
        let (poly, diff) = (
            &merged[Layer::Poly.index()],
            &merged[Layer::Diffusion.index()],
        );
        if poly.is_empty() || diff.is_empty() {
            return;
        }
        let mut crossings: Vec<Rect> = Vec::new();
        for p in poly {
            for d in diff {
                if let Some(g) = p.intersection(*d) {
                    crossings.push(g);
                }
            }
        }
        let cuts = &layers[Layer::Contact.index()];
        for gate_region in merge_rects(&crossings) {
            let g = gate_region.bbox();
            if region_contains_rect(cuts, g) {
                continue;
            }
            let pv = rules.gate_poly_overhang;
            let dv = rules.gate_diff_overhang;
            let vertical_ok = region_contains_rect(poly, g.grow(0, pv))
                && region_contains_rect(diff, g.grow(dv, 0));
            let horizontal_ok = region_contains_rect(poly, g.grow(pv, 0))
                && region_contains_rect(diff, g.grow(0, dv));
            if !vertical_ok && !horizontal_ok {
                out.push(Violation {
                    rule: RuleKind::GateOverhang { poly: pv, diff: dv },
                    at: g,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use silc_geom::Point;

    fn rect(x: i64, y: i64, w: i64, h: i64) -> Rect {
        Rect::from_origin_size(Point::new(x, y), w, h).unwrap()
    }

    fn flat_with(layer: Layer, rects: Vec<Rect>) -> Vec<Vec<Rect>> {
        let mut layers = vec![Vec::new(); Layer::ALL.len()];
        layers[layer.index()] = rects;
        layers
    }

    fn rules() -> RuleSet {
        RuleSet::mead_conway_nmos()
    }

    #[test]
    fn report_round_trips() {
        let report = Report {
            rules: "mead-conway-nmos".into(),
            violations: vec![
                Violation {
                    rule: RuleKind::MinWidth {
                        layer: Layer::Poly,
                        required: 2,
                    },
                    at: rect(0, 0, 1, 4),
                },
                Violation {
                    rule: RuleKind::GateOverhang { poly: 2, diff: 2 },
                    at: rect(5, 5, 4, 4),
                },
            ],
            rects_checked: 123,
        };
        let mut e = silc_geom::Enc::new();
        report.encode(&mut e);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert_eq!(Report::decode(&mut d).unwrap(), report);
        assert!(d.is_done());
    }

    #[test]
    fn clean_wide_metal() {
        let report = check_flat(&flat_with(Layer::Metal, vec![rect(0, 0, 3, 20)]), &rules());
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn narrow_metal_flagged() {
        let report = check_flat(&flat_with(Layer::Metal, vec![rect(0, 0, 2, 20)]), &rules());
        assert_eq!(report.violations.len(), 1);
        assert!(matches!(
            report.violations[0].rule,
            RuleKind::MinWidth {
                layer: Layer::Metal,
                required: 3
            }
        ));
    }

    #[test]
    fn redundant_narrow_rect_exempt() {
        // A 1-wide sliver fully inside a legal fat rect is harmless.
        let report = check_flat(
            &flat_with(Layer::Metal, vec![rect(0, 0, 10, 10), rect(2, 2, 1, 5)]),
            &rules(),
        );
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn spacing_violation_between_regions() {
        // Two metal wires 2 apart; rule wants 3.
        let report = check_flat(
            &flat_with(Layer::Metal, vec![rect(0, 0, 3, 10), rect(5, 0, 3, 10)]),
            &rules(),
        );
        assert_eq!(report.violations.len(), 1);
        assert!(matches!(
            report.violations[0].rule,
            RuleKind::MinSpacing {
                a: Layer::Metal,
                b: Layer::Metal,
                required: 3
            }
        ));
    }

    #[test]
    fn abutting_rects_no_spacing_violation() {
        let report = check_flat(
            &flat_with(Layer::Metal, vec![rect(0, 0, 3, 10), rect(3, 0, 3, 10)]),
            &rules(),
        );
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn diagonal_spacing_checked() {
        // Corner-to-corner gap of (2, 2) violates 3-lambda spacing.
        let report = check_flat(
            &flat_with(Layer::Metal, vec![rect(0, 0, 3, 3), rect(5, 5, 3, 3)]),
            &rules(),
        );
        assert_eq!(report.violations.len(), 1);
    }

    #[test]
    fn notch_in_same_region_flagged() {
        // A U shape in poly with a 1-lambda slot (rule wants 2).
        let u = vec![
            rect(0, 0, 7, 2), // base
            rect(0, 2, 3, 6), // left prong
            rect(4, 2, 3, 6), // right prong (slot of width 1 between)
        ];
        let report = check_flat(&flat_with(Layer::Poly, u), &rules());
        assert!(
            report
                .violations
                .iter()
                .any(|v| matches!(v.rule, RuleKind::MinSpacing { .. })),
            "{report}"
        );
    }

    #[test]
    fn poly_diff_separation() {
        let mut layers = vec![Vec::new(); Layer::ALL.len()];
        layers[Layer::Poly.index()] = vec![rect(0, 0, 2, 10)];
        // Diffusion abutting would be a transistor; at 0 gap they touch and
        // are fine, at... the rule wants 1, so nothing between touch and 1.
        // Put it 1 away: legal.
        layers[Layer::Diffusion.index()] = vec![rect(3, 0, 4, 10)];
        let report = check_flat(&layers, &rules());
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn good_contact_passes() {
        // 2x2 cut at (4,4), metal and diff with 1-lambda surround.
        let mut layers = vec![Vec::new(); Layer::ALL.len()];
        layers[Layer::Contact.index()] = vec![rect(4, 4, 2, 2)];
        layers[Layer::Metal.index()] = vec![rect(3, 3, 4, 4)];
        layers[Layer::Diffusion.index()] = vec![rect(3, 3, 4, 4)];
        let report = check_flat(&layers, &rules());
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn bare_contact_flagged_twice() {
        let report = check_flat(&flat_with(Layer::Contact, vec![rect(0, 0, 2, 2)]), &rules());
        assert_eq!(report.violations.len(), 2);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v.rule, RuleKind::ContactMetalSurround { .. })));
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v.rule, RuleKind::ContactLowerSurround { .. })));
    }

    #[test]
    fn proper_transistor_passes() {
        // Poly 2 wide crossing diff 4 wide; poly extends 2 beyond channel
        // vertically, diff extends 2 beyond horizontally.
        let mut layers = vec![Vec::new(); Layer::ALL.len()];
        layers[Layer::Poly.index()] = vec![rect(4, 0, 2, 8)]; // vertical poly
        layers[Layer::Diffusion.index()] = vec![rect(0, 3, 10, 2)]; // horizontal diff
        let report = check_flat(&layers, &rules());
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn missing_gate_overhang_flagged() {
        // Poly stops flush with the diffusion edge: no overhang.
        let mut layers = vec![Vec::new(); Layer::ALL.len()];
        layers[Layer::Poly.index()] = vec![rect(4, 3, 2, 2)]; // only covers channel
        layers[Layer::Diffusion.index()] = vec![rect(0, 3, 10, 2)];
        let report = check_flat(&layers, &rules());
        assert!(
            report
                .violations
                .iter()
                .any(|v| matches!(v.rule, RuleKind::GateOverhang { .. })),
            "{report}"
        );
    }

    #[test]
    fn permissive_rules_report_nothing() {
        let report = check_flat(
            &flat_with(Layer::Metal, vec![rect(0, 0, 1, 1), rect(2, 0, 1, 1)]),
            &RuleSet::permissive("off"),
        );
        assert!(report.is_clean());
    }

    #[test]
    fn check_via_library() {
        use silc_layout::{Cell, Element};
        let mut lib = Library::new();
        let mut c = Cell::new("bad");
        c.push_element(Element::rect(Layer::Metal, rect(0, 0, 1, 10)));
        let id = lib.add_cell(c).unwrap();
        let report = check(&lib, id, &rules()).unwrap();
        assert_eq!(report.violations.len(), 1);
        assert!(report.to_string().contains("metal width"));
    }

    #[test]
    fn traced_run_matches_untraced_and_records_passes() {
        let layers = flat_with(Layer::Metal, vec![rect(0, 0, 2, 20), rect(5, 0, 3, 10)]);
        let tracer = Tracer::enabled();
        let traced = check_flat_traced(&layers, &rules(), &tracer);
        let plain = check_flat(&layers, &rules());
        assert_eq!(traced, plain);
        let report = tracer.finish();
        for pass in [
            "drc.merge",
            "drc.width",
            "drc.spacing",
            "drc.contact",
            "drc.gate",
        ] {
            assert!(
                report.spans().iter().any(|s| s.name == pass),
                "missing {pass}"
            );
        }
        assert_eq!(report.counter("drc.rects_checked"), Some(2));
        assert_eq!(
            report.counter("drc.violations"),
            Some(plain.violations.len() as u64)
        );
        assert!(report.counter("drc.index.rects").unwrap_or(0) > 0);
        assert!(report.counter("drc.queries").unwrap_or(0) > 0);
    }

    #[test]
    fn check_traced_spans_flatten() {
        use silc_layout::{Cell, Element};
        let mut lib = Library::new();
        let mut c = Cell::new("m");
        c.push_element(Element::rect(Layer::Metal, rect(0, 0, 4, 10)));
        let id = lib.add_cell(c).unwrap();
        let tracer = Tracer::enabled();
        let report = check_traced(&lib, id, &rules(), &tracer).unwrap();
        assert!(report.is_clean());
        let trace = tracer.finish();
        assert!(trace.spans().iter().any(|s| s.name == "layout.flatten"));
    }

    #[test]
    fn report_display() {
        let report = check_flat(&flat_with(Layer::Metal, vec![rect(0, 0, 3, 3)]), &rules());
        let s = report.to_string();
        assert!(s.contains("mead-conway-nmos"));
        assert!(s.contains("0 violation"));
    }

    /// Buckets random rect specs into the 7 layout layers. The coordinate
    /// ranges are tight enough that random layouts are dense in
    /// violations, exercising every rule kind.
    fn layers_from_specs(specs: &[(usize, i64, i64, i64, i64)]) -> Vec<Vec<Rect>> {
        let mut layers = vec![Vec::new(); Layer::ALL.len()];
        for &(l, x, y, w, h) in specs {
            layers[l % Layer::ALL.len()].push(rect(x, y, w, h));
        }
        layers
    }

    /// Decoder-like layouts on the four mask layers that carry rules
    /// between them: L-shaped wires, every one at its own y (the case a
    /// slice-per-band merge is quadratic on), with cuts dropped on some.
    fn decoder_like(specs: &[(usize, i64, i64, i64)]) -> Vec<Vec<Rect>> {
        let mut layers = vec![Vec::new(); Layer::ALL.len()];
        for (i, &(l, pitch, run, width)) in specs.iter().enumerate() {
            let (x, y) = (i as i64 * pitch, -10 - i as i64 * run);
            layers[l % 4].push(rect(x, y, width, 12 - y)); // drop from the driver row
            layers[l % 4].push(rect(-10, y, x + 10 + width, width)); // run to the bus
        }
        layers
    }

    /// Sparse layouts: clusters a million lambda and more apart.
    fn far_apart(specs: &[(usize, i64, i64, i64, i64, i64, i64)]) -> Vec<Vec<Rect>> {
        let mut layers = vec![Vec::new(); Layer::ALL.len()];
        for &(l, cx, cy, x, y, w, h) in specs {
            layers[l % 4].push(rect(cx * 1_000_000 + x, cy * 3_000_000 + y, w, h));
        }
        layers
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The tentpole guarantee: the indexed checker reports exactly
        /// the violations of the all-pairs oracle, in the same order.
        #[test]
        fn indexed_checker_matches_brute_force(
            specs in prop::collection::vec(
                (0usize..7, 0i64..80, 0i64..80, 1i64..12, 1i64..12), 1..80),
            wires in prop::collection::vec((0usize..4, 6i64..16, 3i64..9, 1i64..5), 24..60),
            clusters in prop::collection::vec(
                (0usize..4, 0i64..3, 0i64..3, 0i64..24, 0i64..24, 1i64..8, 1i64..8), 40..100),
        ) {
            for layers in [layers_from_specs(&specs), decoder_like(&wires), far_apart(&clusters)] {
                let rules = rules();
                let indexed = check_flat(&layers, &rules);
                let brute = check_flat_brute(&layers, &rules);
                prop_assert_eq!(&indexed.violations, &brute.violations);
                prop_assert_eq!(indexed.rects_checked, brute.rects_checked);
            }
        }

        /// Same equivalence under the permissive and sparse regimes:
        /// mostly-clean layouts must not diverge either.
        #[test]
        fn indexed_checker_matches_brute_force_sparse(
            specs in prop::collection::vec(
                (0usize..7, 0i64..400, 0i64..400, 2i64..8, 2i64..8), 1..40),
        ) {
            let layers = layers_from_specs(&specs);
            let rules = rules();
            prop_assert_eq!(
                check_flat(&layers, &rules).violations,
                check_flat_brute(&layers, &rules).violations
            );
        }
    }
}
