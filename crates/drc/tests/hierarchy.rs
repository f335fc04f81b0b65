//! The hierarchy proof's oracle: `check` on a hierarchy must return
//! exactly the [`Report`] `check_flat` gives its flattening — the same
//! violations in the same order, the same rectangle count — whether the
//! proof holds or gives up.
//!
//! The random hierarchies are two or three levels of cells built from
//! clean motifs (transistors, contacts with their surrounds, wires),
//! arrayed at pitches from overlapping to far apart, sometimes placed
//! rotated or mirrored, sometimes with a narrow or crowding shape
//! injected, so that both clean and dirty designs come up.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use silc_drc::{check, check_flat, check_traced, Report, RuleSet};
use silc_geom::{Orientation, Point, Rect, Transform};
use silc_layout::{flatten_to_rects, Cell, CellId, Element, Instance, Layer, Library};
use silc_trace::Tracer;

fn rect(x: i64, y: i64, w: i64, h: i64) -> Rect {
    Rect::from_origin_size(Point::new(x, y), w, h).unwrap()
}

/// Adds one design-rule-clean motif at `(x, y)`, or now and then a
/// narrow or crowding shape.
fn motif(rng: &mut StdRng, cell: &mut Cell, x: i64, y: i64) {
    let mut put = |layer, r| cell.push_element(Element::rect(layer, r));
    match rng.gen_range(0..9) {
        // A transistor: poly across diffusion with both overhangs.
        0 | 1 => {
            put(Layer::Diffusion, rect(x, y, 2, 10));
            put(Layer::Poly, rect(x - 2, y + 4, 6, 2));
        }
        // A contact cut in its metal and diffusion surrounds.
        2 => {
            put(Layer::Contact, rect(x + 1, y + 1, 2, 2));
            put(Layer::Metal, rect(x, y, 4, 4));
            put(Layer::Diffusion, rect(x, y, 4, 4));
        }
        3 | 4 => put(Layer::Metal, rect(x, y, 3, rng.gen_range(3..12))),
        5 => put(Layer::Poly, rect(x, y, rng.gen_range(2..10), 2)),
        6 => put(Layer::Implant, rect(x - 1, y - 1, 4, 6)),
        // Narrow: under the layer's minimum width.
        7 => put(Layer::Poly, rect(x, y, 1, rng.gen_range(1..6))),
        // Crowding: a second bar close to the first.
        _ => {
            let gap = rng.gen_range(1..4);
            put(Layer::Metal, rect(x, y, 3, 6));
            put(Layer::Metal, rect(x + 3 + gap, y, 3, 6));
        }
    }
}

fn orientation(rng: &mut StdRng) -> Orientation {
    if rng.gen_bool(0.85) {
        Orientation::R0
    } else {
        Orientation::ALL[rng.gen_range(0..8)]
    }
}

/// A pitch along an axis where the tile spans `extent`: overlapping,
/// abutting, a lambda or two apart, or far.
fn pitch(rng: &mut StdRng, extent: i64) -> i64 {
    let p = match rng.gen_range(0..6) {
        0 => rng.gen_range(0..extent.max(1)),
        1 => extent,
        2 | 3 => extent + rng.gen_range(1..5),
        _ => extent + rng.gen_range(5..30),
    };
    if rng.gen_bool(0.1) {
        -p
    } else {
        p
    }
}

/// Places `child` (spanning `extent`) in `parent`: a single placement or
/// an array.
fn place(rng: &mut StdRng, parent: &mut Cell, child: CellId, extent: (i64, i64)) {
    let at = Point::new(rng.gen_range(-40..40), rng.gen_range(-40..40));
    let t = Transform::new(orientation(rng), at);
    if rng.gen_bool(0.25) {
        parent.push_instance(Instance::place(child, t));
    } else {
        let (cols, rows) = (rng.gen_range(1..5), rng.gen_range(1..4));
        let (dx, dy) = (pitch(rng, extent.0), pitch(rng, extent.1));
        parent.push_instance(Instance::array(child, t, cols, rows, dx, dy).unwrap());
    }
}

/// The extent of a cell's flattening, for choosing pitches.
fn extent(lib: &Library, id: CellId) -> (i64, i64) {
    let layers = flatten_to_rects(lib, id).unwrap();
    let all = layers.iter().flatten().copied().reduce(|a, b| a.union(b));
    all.map_or((1, 1), |b| (b.width(), b.height()))
}

/// A random two- or three-level hierarchy; returns the library and top.
fn hierarchy(seed: u64) -> (Library, CellId) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut lib = Library::new();
    let mut below: Vec<CellId> = Vec::new();
    for i in 0..rng.gen_range(1..4) {
        let mut leaf = Cell::new(format!("leaf{i}"));
        for _ in 0..rng.gen_range(1..4) {
            let (x, y) = (rng.gen_range(0..24), rng.gen_range(0..24));
            motif(&mut rng, &mut leaf, x, y);
        }
        below.push(lib.add_cell(leaf).unwrap());
    }
    let levels = rng.gen_range(1..3);
    for level in 0..levels {
        let mut above = Vec::new();
        for i in 0..rng.gen_range(1..3) {
            let mut cell = Cell::new(format!("l{level}c{i}"));
            for _ in 0..rng.gen_range(1..3) {
                let child = below[rng.gen_range(0..below.len())];
                let extent = extent(&lib, child);
                place(&mut rng, &mut cell, child, extent);
            }
            if rng.gen_bool(0.3) {
                let (x, y) = (rng.gen_range(-60..120), rng.gen_range(-60..120));
                motif(&mut rng, &mut cell, x, y);
            }
            above.push(lib.add_cell(cell).unwrap());
        }
        below = above;
    }
    let mut top = Cell::new("top");
    for &child in &below {
        let extent = extent(&lib, child);
        place(&mut rng, &mut top, child, extent);
    }
    let top = lib.add_cell(top).unwrap();
    (lib, top)
}

/// The flat checker's report on the flattened design.
fn flat(lib: &Library, top: CellId, rules: &RuleSet) -> Report {
    check_flat(&flatten_to_rects(lib, top).unwrap(), rules)
}

/// Checks one seed under both decks; true when the proof held.
fn agrees(seed: u64) -> Result<bool, String> {
    let (lib, top) = hierarchy(seed);
    let mut proved = false;
    for rules in [RuleSet::mead_conway_nmos(), RuleSet::permissive("off")] {
        let tracer = Tracer::enabled();
        let got = check_traced(&lib, top, &rules, &tracer).unwrap();
        let want = flat(&lib, top, &rules);
        if got != want {
            return Err(format!(
                "seed {seed}, {}:\n{got}\nvs flat\n{want}",
                rules.name
            ));
        }
        let trace = tracer.finish();
        proved |= trace.counter("drc.cells_proved").is_some();
    }
    Ok(proved)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The proof's guarantee, on random hierarchies.
    #[test]
    fn hierarchical_report_is_the_flat_report(seed in 0u64..u64::MAX) {
        agrees(seed).map_err(TestCaseError::fail)?;
    }

    /// The generators of the checker's indexed-against-brute proptest
    /// (random, decoder-like, clusters a million lambda apart), as
    /// tiles: each layout becomes a leaf arrayed at a pitch from
    /// overlapping to far, beside a single copy of itself.
    #[test]
    fn flat_generators_arrayed_agree(
        specs in prop::collection::vec((0usize..7, 0i64..80, 0i64..80, 1i64..12, 1i64..12), 1..40),
        wires in prop::collection::vec((0usize..4, 6i64..16, 3i64..9, 1i64..5), 4..20),
        clusters in prop::collection::vec(
            (0usize..4, 0i64..3, 0i64..3, 0i64..24, 0i64..24, 1i64..8, 1i64..8), 8..40),
        pitch in (0i64..140, 0i64..140),
        counts in (1u32..4, 1u32..4),
    ) {
        let mut cells = Vec::new();
        let mut leaf = Cell::new("specs");
        for &(l, x, y, w, h) in &specs {
            leaf.push_element(Element::rect(Layer::ALL[l], rect(x, y, w, h)));
        }
        cells.push(leaf);
        let mut leaf = Cell::new("decoder");
        for (i, &(l, p, run, width)) in (0i64..).zip(&wires) {
            let (x, y) = (i * p, -10 - i * run);
            leaf.push_element(Element::rect(Layer::ALL[l], rect(x, y, width, 12 - y)));
            leaf.push_element(Element::rect(Layer::ALL[l], rect(-10, y, x + 10 + width, width)));
        }
        cells.push(leaf);
        let mut leaf = Cell::new("far_apart");
        for &(l, cx, cy, x, y, w, h) in &clusters {
            let r = rect(cx * 1_000_000 + x, cy * 3_000_000 + y, w, h);
            leaf.push_element(Element::rect(Layer::ALL[l], r));
        }
        cells.push(leaf);
        for leaf in cells {
            let mut lib = Library::new();
            let leaf = lib.add_cell(leaf).unwrap();
            let mut top = Cell::new("top");
            let (cols, rows) = counts;
            top.push_instance(
                Instance::array(leaf, Transform::IDENTITY, cols, rows, pitch.0, pitch.1).unwrap(),
            );
            top.push_instance(Instance::place(leaf, Transform::translate(Point::new(-400, 0))));
            let top = lib.add_cell(top).unwrap();
            for rules in [RuleSet::mead_conway_nmos(), RuleSet::permissive("off")] {
                prop_assert_eq!(check(&lib, top, &rules).unwrap(), flat(&lib, top, &rules));
            }
        }
    }
}

/// A clean array is proven from its tile: nothing is flattened, the tile
/// alone is examined, and the report counts every rectangle.
#[test]
fn clean_array_is_proven_from_one_tile() {
    let mut lib = Library::new();
    let mut bit = Cell::new("bit");
    bit.push_element(Element::rect(Layer::Diffusion, rect(0, 0, 2, 12)));
    bit.push_element(Element::rect(Layer::Poly, rect(-2, 3, 6, 2)));
    bit.push_element(Element::rect(Layer::Metal, rect(4, 0, 3, 12)));
    let bit = lib.add_cell(bit).unwrap();
    let mut row = Cell::new("row");
    row.push_instance(Instance::array(bit, Transform::IDENTITY, 50, 40, 12, 16).unwrap());
    let row = lib.add_cell(row).unwrap();
    let tracer = Tracer::enabled();
    let report = check_traced(&lib, row, &RuleSet::mead_conway_nmos(), &tracer).unwrap();
    assert_eq!(report, flat(&lib, row, &RuleSet::mead_conway_nmos()));
    assert_eq!(report.rects_checked, 3 * 50 * 40);
    let trace = tracer.finish();
    assert_eq!(trace.counter("drc.rects_examined"), Some(3));
    assert_eq!(trace.counter("drc.cells_proved"), Some(2));
    assert!(trace.spans().iter().all(|s| s.name != "layout.flatten"));
}

/// The deepest nesting SIL admits (480 cells optimised, 16 in a debug
/// build, whose frames are ten times the size), with an array at the
/// bottom so the proof walks the whole depth, fits a serve worker's
/// 2 MiB stack.
#[test]
fn the_deepest_admitted_hierarchy_is_proven_on_a_worker_stack() {
    let depth = if cfg!(debug_assertions) { 16 } else { 480 };
    let worker = std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(move || {
            let mut lib = Library::new();
            let mut leaf = Cell::new("c0");
            leaf.push_element(Element::rect(Layer::Metal, rect(0, 0, 4, 4)));
            let mut below = lib.add_cell(leaf).unwrap();
            for i in 1..depth {
                let mut cell = Cell::new(format!("c{i}"));
                let t = Transform::translate(Point::new(1, 2));
                cell.push_instance(match i {
                    1 => Instance::array(below, t, 3, 2, 10, 10).unwrap(),
                    _ => Instance::place(below, t),
                });
                below = lib.add_cell(cell).unwrap();
            }
            let tracer = Tracer::enabled();
            let rules = RuleSet::mead_conway_nmos();
            let report = check_traced(&lib, below, &rules, &tracer).unwrap();
            (
                report == flat(&lib, below, &rules),
                tracer.finish().counter("drc.cells_proved"),
            )
        });
    let (agrees, proved) = worker.expect("spawns").join().expect("no overflow");
    assert!(agrees);
    assert_eq!(proved, Some(depth as u64));
}

/// The sweep CI runs: 1 600 seeded hierarchies, hierarchical against
/// flat, whole reports.
#[test]
#[ignore = "about a minute in a release build"]
fn hierarchical_report_is_the_flat_report_on_1600_seeds() {
    let mut proved = 0;
    for seed in 0..1600 {
        proved += usize::from(agrees(seed).unwrap_or_else(|e| panic!("{e}")));
    }
    // The corpus must exercise the proof, not only its fallback.
    assert!(
        proved >= 100,
        "only {proved} of 1600 hierarchies were proven"
    );
}
