//! Every [`Persist`] type, one property: what is stored is what is
//! hashed, and it reads back as itself. `encode` is the type's `fp_hash`
//! run into a buffer, so the digest of the stored bytes must be the
//! value's fingerprint, and decoding them must give a value that encodes to the
//! same bytes (the encoding is canonical, so equal bytes are equal
//! values; `Design` and `Library` have no `PartialEq` to ask).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use silc_drc::{Report, RuleKind, Violation};
use silc_geom::{Fingerprint, FpHasher, Orientation, Path, Point, Polygon, Rect, Transform};
use silc_incr::{
    Dec, DieSummary, Enc, ExtractSnapshot, FlatSnapshot, Persist, PlaSnapshot, PnrSnapshot,
    SimSnapshot, SynthSnapshot, VerifySnapshot,
};
use silc_layout::{Cell, CellId, Element, Instance, Layer, Library, Port, Shape};
use silc_netlist::{NetId, Netlist};

fn check<T: Persist>(value: &T) -> Result<(), TestCaseError> {
    let mut e = Enc::new();
    value.encode(&mut e);
    let bytes = e.into_bytes();
    let mut h = FpHasher::new();
    h.write(&bytes);
    prop_assert_eq!(h.finish(), value.fingerprint(), "stored != hashed");
    let mut d = Dec::new(&bytes);
    let back = T::decode(&mut d).map_err(TestCaseError::fail)?;
    prop_assert!(d.is_done(), "decode left trailing bytes");
    let mut e = Enc::new();
    back.encode(&mut e);
    prop_assert_eq!(e.into_bytes(), bytes.clone(), "decode(encode(x)) != x");
    // A damaged entry is an error or another value, never a panic.
    for cut in (0..bytes.len()).step_by(bytes.len() / 16 + 1) {
        let _ = T::decode(&mut Dec::new(&bytes[..cut]));
    }
    Ok(())
}

type R<'a> = &'a mut StdRng;

fn num(rng: R) -> u64 {
    rng.gen_range(0..u64::MAX) >> rng.gen_range(0..64u32)
}
fn point(rng: R) -> Point {
    Point::new(rng.gen_range(-999..999i64), rng.gen_range(-999..999i64))
}
fn rect(rng: R) -> Rect {
    let (w, h) = (rng.gen_range(1..50i64), rng.gen_range(1..50i64));
    Rect::from_origin_size(point(rng), w, h).unwrap()
}
fn text(rng: R) -> String {
    let chars = ['a', 'Z', '_', '9', ' ', 'é', '\n'];
    (0..rng.gen_range(0..12u32))
        .map(|_| chars[rng.gen_range(0..7usize)])
        .collect()
}
fn list<T>(rng: R, item: impl Fn(R) -> T) -> Vec<T> {
    (0..rng.gen_range(0..6u32)).map(|_| item(rng)).collect()
}
fn layer(rng: R) -> Layer {
    Layer::ALL[rng.gen_range(0..Layer::ALL.len())]
}
fn transform(rng: R) -> Transform {
    Transform::new(Orientation::ALL[rng.gen_range(0..8usize)], point(rng))
}
fn shape(rng: R) -> Shape {
    match rng.gen_range(0..3u32) {
        0 => Shape::Rect(rect(rng)),
        1 => Shape::Polygon(Polygon::from_rect(rect(rng))),
        _ => {
            // A staircase: segments turn between the axes, none empty.
            let width = rng.gen_range(1..6i64);
            let mut points = vec![point(rng)];
            for i in 0..rng.gen_range(0..4u32) {
                let (at, d) = (points[points.len() - 1], rng.gen_range(1..9i64));
                let d = if rng.gen_range(0..2u32) == 0 { d } else { -d };
                points.push(if i % 2 == 0 {
                    Point::new(at.x + d, at.y)
                } else {
                    Point::new(at.x, at.y + d)
                });
            }
            Shape::Wire(Path::new(width, points).unwrap())
        }
    }
}
fn element(rng: R) -> Element {
    let layer = layer(rng);
    let shape = shape(rng);
    Element { layer, shape }
}
/// Cells instantiate only earlier cells, as elaboration builds them.
fn library(rng: R) -> Library {
    let mut lib = Library::new();
    for i in 0..rng.gen_range(1..5u32) {
        let mut cell = Cell::new(format!("c{i}{}", text(rng)));
        list(rng, element)
            .into_iter()
            .for_each(|e| cell.push_element(e));
        for _ in 0..rng.gen_range(0..3u32).min(i) {
            let (target, t) = (CellId::from_raw(rng.gen_range(0..i)), transform(rng));
            let (cols, rows, step) = (rng.gen_range(1..4u32), rng.gen_range(1..4u32), point(rng));
            cell.push_instance(Instance::array(target, t, cols, rows, step.x, step.y).unwrap());
        }
        list(rng, |rng| Port::new(text(rng), layer(rng), point(rng)))
            .into_iter()
            .for_each(|p| cell.push_port(p));
        lib.add_cell(cell).unwrap();
    }
    lib
}
fn violation(rng: R) -> Violation {
    let (a, b) = (layer(rng), layer(rng));
    let (n, m) = (rng.gen_range(0..9i64), rng.gen_range(0..9i64));
    let rule = match rng.gen_range(0..5u32) {
        0 => RuleKind::MinWidth {
            layer: a,
            required: n,
        },
        1 => RuleKind::MinSpacing { a, b, required: n },
        2 => RuleKind::ContactMetalSurround { required: n },
        3 => RuleKind::ContactLowerSurround { required: n },
        _ => RuleKind::GateOverhang { poly: n, diff: m },
    };
    let at = rect(rng);
    Violation { rule, at }
}
fn report(rng: R) -> Report {
    let (rules, violations) = (text(rng), list(rng, violation));
    let rects_checked = rng.gen_range(0..100_000usize);
    Report {
        rules,
        violations,
        rects_checked,
    }
}
/// Names carry their index, so no two nets and no two instances share one.
fn netlist(rng: R) -> Netlist {
    let mut n = Netlist::new(text(rng));
    let nets: Vec<NetId> = (0..rng.gen_range(0..6u32))
        .map(|i| n.add_net(format!("{i}:{}", text(rng))))
        .collect();
    for i in 0..rng.gen_range(0..6u32) {
        let pins = match nets.len() {
            0 => Vec::new(),
            k => list(rng, |rng| (text(rng), nets[rng.gen_range(0..k)])),
        };
        let pins: Vec<(&str, NetId)> = pins.iter().map(|(p, id)| (p.as_str(), *id)).collect();
        n.add_instance(format!("{i}:{}", text(rng)), text(rng), &pins)
            .unwrap();
    }
    n
}
fn named(rng: R) -> (String, u64) {
    (text(rng), num(rng))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn scalars_containers_and_geometry(seed in 0u64..u64::MAX) {
        let rng = &mut StdRng::seed_from_u64(seed);
        check(&num(rng))?;
        check(&(seed % 2 == 0))?;
        check(&text(rng))?;
        check(&list(rng, |rng| list(rng, rect)))?;
        check(&(seed % 3 > 0).then(|| rect(rng)))?;
        check(&named(rng))?;
        check(&point(rng))?;
        check(&rect(rng))?;
        check(&Orientation::ALL[(seed % 8) as usize])?;
        check(&transform(rng))?;
        let (w, h) = (rng.gen_range(2..50i64), rng.gen_range(2..50i64));
        let (a, b) = (rng.gen_range(1..w), rng.gen_range(1..h));
        let l = [(0, 0), (w, 0), (w, b), (a, b), (a, h), (0, h)];
        check(&Polygon::new(l.map(|(x, y)| Point::new(x, y)).to_vec()).unwrap())?;
        check(&layer(rng))?;
        for shape in list(rng, shape) {
            if let Shape::Wire(path) = &shape {
                check(path)?;
            }
            check(&shape)?;
        }
        check(&element(rng))?;
    }

    #[test]
    fn layout_hierarchy(seed in 0u64..u64::MAX) {
        let library = library(&mut StdRng::seed_from_u64(seed));
        for (id, cell) in library.iter() {
            check(&id)?;
            check(cell)?;
            cell.instances().iter().try_for_each(check)?;
            cell.ports().iter().try_for_each(check)?;
        }
        let top = CellId::from_raw(library.len() as u32 - 1);
        check(&library)?;
        check(&silc_lang::Design { library, top })?;
    }

    #[test]
    fn reports_and_snapshots(seed in 0u64..u64::MAX) {
        let rng = &mut StdRng::seed_from_u64(seed);
        let (flag, n) = (seed % 2 == 0, [(); 8].map(|()| num(rng)));
        check(&violation(rng))?;
        check(&violation(rng).rule)?;
        check(&report(rng))?;
        let layers = list(rng, |rng| list(rng, rect));
        check(&FlatSnapshot { layers, flat_elements: n[0], bbox: flag.then(|| rect(rng)) })?;
        check(&DieSummary { flat_elements: n[1], bbox: flag.then(|| rect(rng)) })?;
        check(&ExtractSnapshot { netlist: netlist(rng), nets: n[1] })?;
        let (state, regs, outputs) = (text(rng), list(rng, named), list(rng, named));
        check(&SimSnapshot { cycles: n[0], halted: flag, state, regs, outputs })?;
        let control = (n[0] as u32, n[1] as u32, n[2] as u32, n[3] as u32);
        check(&SynthSnapshot { display: text(rng), control })?;
        check(&PlaSnapshot { personality: text(rng), report: report(rng), cif: text(rng) })?;
        let (cells, nets, routed, wirelength, vias) = (n[0], n[1], n[2], n[3], n[4]);
        let (rounds, ripup_rounds, drc, lvs_ok, cif) = (n[5], n[6], report(rng), flag, text(rng));
        check(&PnrSnapshot {
            cells, nets, routed, wirelength, vias, rounds, ripup_rounds, drc, lvs_ok, cif,
        })?;
        let (outputs, strash_merged, sim_rounds, sim_refuted, exact_decided) =
            (n[0], n[1], n[2], n[3], n[4]);
        let (check_name, equivalent, mismatches) = (text(rng), flag, list(rng, text));
        check(&VerifySnapshot {
            check: check_name, equivalent, outputs, strash_merged, sim_rounds, sim_refuted,
            exact_decided, mismatches,
        })?;
    }
}

/// The hash reads its message a block at a time, but a fingerprint is
/// the digest of the concatenated stream, however the `fp_hash` impls
/// split it into fixed-width and string writes. `check` asks that of
/// every `Persist` type (a `Library` and a `Netlist` among them); a
/// `Machine` is only ever a key.
#[test]
fn a_machine_fingerprint_is_the_digest_of_its_stream_at_once() {
    let machine = silc_rtl::parse(
        "machine counter {
          reg a[4];
          port output lights[4];
          state s0 {
            lights := a;
            if a == 3 { halt; } else { a := a + 1; goto s0; }
          }
        }",
    )
    .unwrap();
    let mut stream = FpHasher::buffer();
    machine.fp_hash(&mut stream);
    let mut h = FpHasher::new();
    h.write(&stream.into_bytes());
    assert_eq!(h.finish(), machine.fingerprint());
}
