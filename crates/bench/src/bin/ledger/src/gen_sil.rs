//! Seeded SIL sources with their expected mask geometry.
//!
//! Every generator emits the SIL text and, from the same numbers, walks
//! the artwork the text describes into an [`Expect`]. The check reads the
//! compiler's CIF back and compares it with that walk, so the reference
//! never passes through the compiler.
//!
//! The seed moves origins, pitches and constants, never the element
//! counts: run time follows the amount of geometry, so designs of one
//! size class cost the same on every seed. Pitches move by one lambda at
//! most, because the checker's memory follows the extent of the layout;
//! they only ever grow from a design-rule-clean base, so every seed
//! stays clean.

use crate::rng::Rng;
use std::fmt::Write as _;

/// Mask layers the generators draw on, by SIL name.
pub const MASKS: [&str; 4] = ["diff", "poly", "metal", "contact"];
const DIFF: usize = 0;
const POLY: usize = 1;
const METAL: usize = 2;
const CONTACT: usize = 3;

/// What the flattened layout must contain, in lambda.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Expect {
    /// Rectangles per mask, in [`MASKS`] order.
    pub rects: [u64; 4],
    /// Summed rectangle area per mask (overlaps counted twice).
    pub area: [i64; 4],
    /// `[x0, y0, x1, y1]` over every rectangle.
    pub bbox: Option<[i64; 4]>,
}

impl Expect {
    pub fn rect(&mut self, mask: usize, x0: i64, y0: i64, x1: i64, y1: i64) {
        self.rects[mask] += 1;
        self.area[mask] += (x1 - x0) * (y1 - y0);
        self.bbox = Some(match self.bbox {
            None => [x0, y0, x1, y1],
            Some([a, b, c, d]) => [a.min(x0), b.min(y0), c.max(x1), d.max(y1)],
        });
    }

    /// A Manhattan wire of even width: one rectangle per segment, the
    /// square pen reaching half the width past the centre line on every
    /// side (CIF `W` semantics). Odd widths would put edges on half
    /// lambdas once written to CIF, so the generators draw none.
    fn wire(&mut self, mask: usize, width: i64, points: &[(i64, i64)], at: (i64, i64)) {
        debug_assert!(width % 2 == 0);
        let (lo, hi) = (width / 2, width / 2);
        for pair in points.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            self.rect(
                mask,
                at.0 + a.0.min(b.0) - lo,
                at.1 + a.1.min(b.1) - lo,
                at.0 + a.0.max(b.0) + hi,
                at.1 + a.1.max(b.1) + hi,
            );
        }
    }

    pub fn total_rects(&self) -> u64 {
        self.rects.iter().sum()
    }
}

/// One generated design.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SilDesign {
    pub name: String,
    pub source: String,
    pub expect: Expect,
    /// Design-rule violations the checker must report (0: clean).
    pub violations: usize,
}

type Box4 = (usize, i64, i64, i64, i64);

/// Writes a leaf cell of `boxes`; `ports` goes in verbatim after them.
fn leaf_text(out: &mut String, name: &str, boxes: &[Box4], ports: &str) {
    let _ = write!(out, "cell {name}() {{");
    for &(mask, x0, y0, x1, y1) in boxes {
        let _ = write!(out, " box {} ({x0}, {y0}) ({x1}, {y1});", MASKS[mask]);
    }
    let _ = writeln!(out, "{ports} }}");
}

fn leaf_expect(expect: &mut Expect, boxes: &[Box4], at: (i64, i64)) {
    for &(mask, x0, y0, x1, y1) in boxes {
        expect.rect(mask, at.0 + x0, at.1 + y0, at.0 + x1, at.1 + y1);
    }
}

/// Two-phase shift-register cells, rows arrayed into a block: a
/// two-level hierarchy of array instances, four rectangles a cell.
fn shift_array(rng: &mut Rng, cols: i64, rows: i64) -> (String, Expect) {
    let (px, py) = (12 + rng.range(0, 2), 16 + rng.range(0, 2));
    let at = (rng.range(0, 64), rng.range(0, 64));
    let bit: [Box4; 4] = [
        (DIFF, 0, 0, 2, 12),
        (POLY, -2, 3, 4, 5),
        (POLY, -2, 7, 4, 9),
        (METAL, 4, 0, 7, 12),
    ];
    let mut s = String::new();
    leaf_text(&mut s, "sr_bit", &bit, "");
    let _ = writeln!(
        s,
        "cell sr_row(n) {{ array sr_bit() at (0, 0) step ({px}, 0) count n; }}\n\
         cell sr_block(n, m) {{ array sr_row(n) at (0, 0) step (0, 0) (0, {py}) count 1 m; }}\n\
         place sr_block({cols}, {rows}) at ({}, {});",
        at.0, at.1
    );
    let mut e = Expect::default();
    for r in 0..rows {
        for c in 0..cols {
            leaf_expect(&mut e, &bit, (at.0 + c * px, at.1 + r * py));
        }
    }
    (s, e)
}

/// Decoder strips: a row of drivers whose outputs drop to a select bus
/// on two-segment wires written by a `for` loop; strips stacked.
fn decoder(rng: &mut Rng, n: i64, strips: i64) -> (String, Expect) {
    let px = 14 + rng.range(0, 2);
    let run = 7 + rng.range(0, 2);
    let height = 8 + 12 + run * n + 6 + rng.range(0, 2);
    let at = (rng.range(0, 64), rng.range(0, 64));
    let drv: [Box4; 3] = [(DIFF, 0, 0, 2, 8), (POLY, -2, 3, 4, 5), (METAL, 6, 0, 9, 8)];
    let mut s = String::new();
    leaf_text(&mut s, "drv", &drv, "");
    let _ = writeln!(
        s,
        "cell strip(n) {{\n  array drv() at (0, 0) step ({px}, 0) count n;\n  \
         for i in 0..n {{\n    let x = i * {px} + 7;\n    let y = 0 - 10 - i * {run};\n    \
         wire metal 4 (x, 1) (x, y) (0 - 10, y);\n  }}\n}}\n\
         cell decoder(n, m) {{ array strip(n) at (0, 0) step (0, 0) (0, {height}) count 1 m; }}\n\
         place decoder({n}, {strips}) at ({}, {});",
        at.0, at.1
    );
    let mut e = Expect::default();
    for k in 0..strips {
        let origin = (at.0, at.1 + k * height);
        for i in 0..n {
            leaf_expect(&mut e, &drv, (origin.0 + i * px, origin.1));
            let (x, y) = (i * px + 7, -10 - i * run);
            e.wire(METAL, 4, &[(x, 1), (x, y), (-10, y)], origin);
        }
    }
    (s, e)
}

/// Ripple-adder slices with carry ports: one two-dimensional array of a
/// five-rectangle leaf.
fn adder(rng: &mut Rng, cols: i64, rows: i64) -> (String, Expect) {
    let (px, py) = (18 + rng.range(0, 2), 16 + rng.range(0, 2));
    let at = (rng.range(0, 64), rng.range(0, 64));
    let fa: [Box4; 5] = [
        (DIFF, 0, 0, 2, 12),
        (DIFF, 6, 0, 8, 12),
        (POLY, -2, 2, 10, 4),
        (POLY, -2, 8, 10, 10),
        (METAL, 11, 0, 15, 12),
    ];
    let mut s = String::new();
    leaf_text(
        &mut s,
        "fa",
        &fa,
        " port cin metal (13, 0); port cout metal (13, 12);",
    );
    let _ = writeln!(
        s,
        "cell adders(n, m) {{ array fa() at (0, 0) step ({px}, 0) (0, {py}) count n m; }}\n\
         place adders({cols}, {rows}) at ({}, {});",
        at.0, at.1
    );
    let mut e = Expect::default();
    for r in 0..rows {
        for c in 0..cols {
            leaf_expect(&mut e, &fa, (at.0 + c * px, at.1 + r * py));
        }
    }
    (s, e)
}

/// Crossbar tiles: `k` metal rows over `k` poly columns with diffusion
/// taps placed on the diagonal, the tile arrayed in two dimensions.
fn crossbar(rng: &mut Rng, k: i64, cols: i64, rows: i64) -> (String, Expect) {
    let p = 12;
    let tile = k * p + 14 + rng.range(0, 2);
    let at = (rng.range(0, 64), rng.range(0, 64));
    let tap: [Box4; 2] = [(DIFF, -3, -2, 3, 2), (CONTACT, -1, -1, 1, 1)];
    let mut s = String::new();
    leaf_text(&mut s, "tap", &tap, "");
    let _ = writeln!(
        s,
        "cell xtile(k) {{\n  for i in 0..k {{\n    \
         wire metal 4 (0, i * {p}) (k * {p}, i * {p});\n    \
         wire poly 2 (i * {p} + 6, 0 - 4) (i * {p} + 6, k * {p} + 4);\n  }}\n  \
         for i in 0..k {{ place tap() at (i * {p} + 6, i * {p}); }}\n}}\n\
         cell xbar(k, n, m) {{ array xtile(k) at (0, 0) step ({tile}, 0) (0, {tile}) count n m; }}\n\
         place xbar({k}, {cols}, {rows}) at ({}, {});",
        at.0, at.1
    );
    let mut e = Expect::default();
    for r in 0..rows {
        for c in 0..cols {
            let origin = (at.0 + c * tile, at.1 + r * tile);
            for i in 0..k {
                e.wire(METAL, 4, &[(0, i * p), (k * p, i * p)], origin);
                e.wire(POLY, 2, &[(i * p + 6, -4), (i * p + 6, k * p + 4)], origin);
                leaf_expect(&mut e, &tap, (origin.0 + i * p + 6, origin.1 + i * p));
            }
        }
    }
    (s, e)
}

/// Builds one array design of edge `n` from its own random stream.
type Family = fn(&mut Rng, i64) -> (String, Expect);

/// Size classes of the array corpus, in flattened rectangles.
pub const ARRAY_CLASSES: [u64; 3] = [4_096, 16_384, 36_864];

/// The array corpus: four families at each of `classes` sizes.
pub fn array_corpus(seed: u64, classes: &[u64]) -> Vec<SilDesign> {
    let mut out = Vec::new();
    for &target in classes {
        // Square-ish grids sized so each family lands on the class size.
        let side = |per_cell: u64| ((target / per_cell) as f64).sqrt().round() as i64;
        let families: [(&str, Family, i64); 4] = [
            ("shift", |r, n| shift_array(r, n, n), side(4)),
            ("decoder", |r, n| decoder(r, 32, n), (target / 160) as i64),
            ("adder", |r, n| adder(r, n, n), side(5)),
            ("xbar", |r, n| crossbar(r, 16, n, n), side(64)),
        ];
        for (family, build, n) in families {
            let name = format!("{family}_{target}");
            let mut rng = Rng::new(seed, &name);
            let (source, expect) = build(&mut rng, n.max(1));
            out.push(SilDesign {
                name,
                source,
                expect,
                violations: 0,
            });
        }
    }
    out
}

/// Four cell templates of the program corpus. `k` are constants baked
/// into the definition, `(a, b)` the arguments of one placement.
fn template_text(out: &mut String, kind: usize, name: &str, k: [i64; 3]) {
    let [k0, k1, k2] = k;
    let _ = match kind {
        0 => writeln!(
            out,
            "cell {name}(a, b) {{\n  let g = geo {{ w: clampw(a + {k0}), h: {k1} + b, gap: {k2} }};\n  \
             box metal (0, 0) (g.w, g.h);\n  box poly (0, g.h + g.gap) (g.w, g.h + g.gap + 2);\n  \
             port p metal (1, 1);\n}}"
        ),
        1 => writeln!(
            out,
            "cell {name}(a, b) {{\n  for i in 0..{k0} {{\n    \
             box diff (i * stride({k1}), 0) (i * stride({k1}) + 2, 6 + a);\n  }}\n  \
             box metal (0, {k2} + a + b) (9, {k2} + a + b + 3);\n}}"
        ),
        2 => writeln!(
            out,
            "cell {name}(a, b) {{\n  let top = max(a, b) + {k0};\n  \
             wire metal 4 (2, 2) (2, top) ({k1} + b, top);\n  \
             if a % 2 == 0 {{ box poly (8, 0) (10, {k2}); }} else {{ box poly (8, 0) (11, {k2}); }}\n}}"
        ),
        _ => writeln!(
            out,
            "cell {name}(a, b) {{\n  let g = geo {{ w: {k0}, h: {k1}, gap: a }};\n  \
             box diff (0, 0) (g.w, g.h);\n  box diff (g.w + 3 + g.gap, 0) (g.w * 2 + 3 + g.gap, g.h + b);\n  \
             box metal (0, g.h + b + {k2}) (area(g) / g.h + 3, g.h + b + {k2} + 3);\n}}"
        ),
    };
}

fn template_expect(e: &mut Expect, kind: usize, k: [i64; 3], (a, b): (i64, i64), at: (i64, i64)) {
    let [k0, k1, k2] = k;
    let mut rect = |mask, x0, y0, x1, y1| e.rect(mask, at.0 + x0, at.1 + y0, at.0 + x1, at.1 + y1);
    match kind {
        0 => {
            let (w, h) = ((a + k0).clamp(3, 9), k1 + b);
            rect(METAL, 0, 0, w, h);
            rect(POLY, 0, h + k2, w, h + k2 + 2);
        }
        1 => {
            for i in 0..k0 {
                rect(DIFF, i * (k1 + 5), 0, i * (k1 + 5) + 2, 6 + a);
            }
            rect(METAL, 0, k2 + a + b, 9, k2 + a + b + 3);
        }
        2 => {
            let top = a.max(b) + k0;
            e.wire(METAL, 4, &[(2, 2), (2, top), (k1 + b, top)], at);
            e.rect(POLY, at.0 + 8, at.1, at.0 + 10 + a % 2, at.1 + k2);
        }
        _ => {
            rect(DIFF, 0, 0, k0, k1);
            rect(DIFF, k0 + 3 + a, 0, k0 * 2 + 3 + a, k1 + b);
            rect(METAL, 0, k1 + b + k2, k0 + 3, k1 + b + k2 + 3);
        }
    }
}

fn template_constants(rng: &mut Rng, kind: usize) -> [i64; 3] {
    match kind {
        0 => [rng.range(0, 4), rng.range(4, 10), rng.range(3, 7)],
        1 => [rng.range(2, 5), rng.range(0, 4), rng.range(10, 16)],
        2 => [rng.range(12, 20), rng.range(10, 20), rng.range(4, 9)],
        _ => [rng.range(3, 8), rng.range(4, 10), rng.range(3, 8)],
    }
}

/// One library-heavy program: `defs` parameterised cell definitions that
/// all get parsed, `placed` of them elaborated onto a coarse grid. The
/// front end and the CIF writer do the work; there is little geometry.
pub fn program(seed: u64, index: usize, defs: usize, placed: usize) -> SilDesign {
    let name = format!("program_{index}");
    let mut rng = Rng::new(seed, &name);
    let mut s = String::from(
        "// library-heavy program: many definitions, few placements\n\
         type geo { w: int, h: int, gap: int }\n\
         fn clampw(v) -> int { return max(3, min(v, 9)); }\n\
         fn stride(k) -> int { return k + 5; }\n\
         fn area(g) -> int { return g.w * g.h; }\n",
    );
    let cells: Vec<(usize, [i64; 3])> = (0..defs)
        .map(|i| {
            let kind = rng.below(4);
            let k = template_constants(&mut rng, kind);
            template_text(&mut s, kind, &format!("c{i}"), k);
            (kind, k)
        })
        .collect();
    let mut expect = Expect::default();
    let per_row = (placed as f64).sqrt().ceil() as i64;
    let pitch = 64 + rng.range(0, 8);
    for slot in 0..placed as i64 {
        let i = rng.below(defs);
        let args = (rng.range(0, 6), rng.range(0, 6));
        let at = (slot % per_row * pitch, slot / per_row * pitch);
        let _ = writeln!(
            s,
            "place c{i}({}, {}) at ({}, {});",
            args.0, args.1, at.0, at.1
        );
        template_expect(&mut expect, cells[i].0, cells[i].1, args, at);
    }
    SilDesign {
        name,
        source: s,
        expect,
        violations: 0,
    }
}

/// The program corpus: `count` programs between 1 000 and 3 000
/// definitions.
pub fn program_corpus(seed: u64, count: usize) -> Vec<SilDesign> {
    let span = count.saturating_sub(1).max(1);
    (0..count)
        .map(|i| program(seed, i, 1_000 + 2_000 * i / span, 400))
        .collect()
}

/// A small design with a known number of design-rule violations: clean
/// metal bars plus `n` isolated poly slivers one lambda wide (minimum
/// width is two), far enough apart to raise nothing else.
pub fn dirty(seed: u64) -> SilDesign {
    let mut rng = Rng::new(seed, "dirty");
    let n = rng.range(2, 7);
    let mut s = String::from("cell bar() { box metal (0, 0) (4, 20); }\n");
    let mut expect = Expect::default();
    for i in 0..8 {
        let _ = writeln!(s, "place bar() at ({}, 0);", i * 10);
        expect.rect(METAL, i * 10, 0, i * 10 + 4, 20);
    }
    for i in 0..n {
        let x = i * 10 + rng.range(0, 3);
        let _ = writeln!(s, "box poly ({x}, 40) ({}, 50);", x + 1);
        expect.rect(POLY, x, 40, x + 1, 50);
    }
    SilDesign {
        name: "dirty".into(),
        source: s,
        expect,
        violations: n as usize,
    }
}

/// Distinct edits [`geometry_edit`] can make to one design.
pub const EDIT_ROUNDS: u64 = 64 * 64;
/// Largest edge of the box an edit adds.
const EDIT_EDGE: i64 = 4 + 2 * 63;

/// The edit a designer makes in round `round`: one new metal box in the
/// top cell, clear of everything else and of a different size every
/// round, so the geometric stages can never be served from the cache.
/// One corner stays put and the largest box stops short of the design,
/// so every round's layout has the same extent and the same number of
/// rectangles: the checker's work follows both, and a round must cost
/// what the last one did.
pub fn geometry_edit(design: &SilDesign, round: u64) -> SilDesign {
    let [x0, y0, _, _] = design.expect.bbox.expect("corpus designs are not empty");
    let round = (round % EDIT_ROUNDS) as i64;
    let (x, y) = (x0 - 20 - EDIT_EDGE, y0 - 20 - EDIT_EDGE);
    let (w, h) = (4 + 2 * (round % 64), 4 + 2 * (round / 64));
    let mut edited = design.clone();
    let _ = writeln!(
        edited.source,
        "box metal ({x}, {y}) ({}, {});",
        x + w,
        y + h
    );
    edited.expect.rect(METAL, x, y, x + w, y + h);
    edited
}

/// The same design with a trailing comment: new text, same layout.
pub fn comment_edit(design: &SilDesign, round: u64) -> String {
    format!("{}// reviewed in round {round}\n", design.source)
}

/// A never-repeated small design for cold traffic: a `size` x `size`
/// grid whose cell dimensions are spelled by `id`. One line, no quotes,
/// so it embeds in a JSON string as is.
pub fn cold_design(id: u64, size: i64) -> SilDesign {
    let (w, h) = (4 + (id % 5) as i64, 12 + (id / 5 % 7) as i64);
    // The remaining digits of the id go into the pitch, so ids differ in
    // geometry, not only in a name.
    let (px, py) = (w + 4 + (id / 35 % 64) as i64, h + 12 + (id / 2240) as i64);
    let mut s = format!(
        "cell u{id}() {{ box metal (0,0) ({w},{h}); box poly (0,{}) ({w},{}); }}",
        h + 4,
        h + 8
    );
    let mut expect = Expect::default();
    for r in 0..size {
        for c in 0..size {
            let _ = write!(s, " place u{id}() at ({},{});", c * px, r * py);
            expect.rect(METAL, c * px, r * py, c * px + w, r * py + h);
            expect.rect(POLY, c * px, r * py + h + 4, c * px + w, r * py + h + 8);
        }
    }
    SilDesign {
        name: format!("cold_{id}"),
        source: s,
        expect,
        violations: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpora_replay_from_the_seed_and_differ_between_seeds() {
        assert_eq!(array_corpus(3, &[256]), array_corpus(3, &[256]));
        assert_ne!(array_corpus(3, &[256]), array_corpus(4, &[256]));
        assert_eq!(program(3, 0, 40, 10), program(3, 0, 40, 10));
        assert_ne!(program(3, 0, 40, 10), program(4, 0, 40, 10));
        assert_eq!(dirty(3), dirty(3));
        assert_ne!(dirty(3).source, dirty(5).source);
    }

    #[test]
    fn the_seed_never_moves_an_element_count() {
        for (a, b) in array_corpus(1, &[1024])
            .iter()
            .zip(&array_corpus(2, &[1024]))
        {
            assert_eq!(a.expect.rects, b.expect.rects, "{}", a.name);
        }
    }

    #[test]
    fn families_land_on_their_size_class() {
        for d in array_corpus(9, &ARRAY_CLASSES) {
            let target: u64 = d.name.rsplit('_').next().unwrap().parse().unwrap();
            let got = d.expect.total_rects();
            assert!(
                got * 10 >= target * 9 && got * 10 <= target * 11,
                "{}: {got} rects",
                d.name
            );
        }
    }

    #[test]
    fn wires_expand_with_the_square_pen() {
        let mut e = Expect::default();
        e.wire(METAL, 4, &[(0, 0), (0, 10), (5, 10)], (100, 0));
        assert_eq!(e.rects[METAL], 2);
        assert_eq!(e.bbox, Some([98, -2, 107, 12]));
    }

    #[test]
    fn edits_change_what_they_claim_to() {
        let base = &array_corpus(1, &[256])[0];
        let edited = geometry_edit(base, 7);
        assert_eq!(edited.expect.total_rects(), base.expect.total_rects() + 1);
        assert_ne!(geometry_edit(base, 8).source, edited.source);
        assert!(comment_edit(base, 1).starts_with(&base.source));
        assert_ne!(cold_design(1, 2).source, cold_design(36, 2).source);
    }
}
