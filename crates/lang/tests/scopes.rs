//! Where a name resolves: parameters, `let`, `for` variables and blocks.
//! Every outcome here was printed by the last commit that looked names up
//! in a stack of scoped maps at run time, before they were resolved to
//! slots of a frame: the full text of each error, and for a program that
//! compiles, the FNV-1a/128 digest of its design's fingerprint stream (as
//! `pins.rs` takes it).

use silc_geom::{Fingerprint, FpHasher};
use silc_lang::Compiler;

/// FNV-1a/128 of `bytes`: a digest that does not move when the
/// fingerprint's own hash does.
fn fnv1a_128(bytes: &[u8]) -> String {
    let digest = bytes
        .iter()
        .fold(0x6c62272e07bb014262b821756295c58d_u128, |h, &b| {
            (h ^ u128::from(b)).wrapping_mul(0x0000000001000000000000000000013b)
        });
    format!("{digest:032x}")
}

fn said(source: &str) -> String {
    match Compiler::new().compile(source) {
        Ok(design) => {
            let mut stream = FpHasher::buffer();
            design.fp_hash(&mut stream);
            format!("ok {}", fnv1a_128(&stream.into_bytes()))
        }
        Err(e) => e.to_string(),
    }
}

/// The width of the one box `source` draws in its top cell, or in the one
/// cell it places.
fn width(source: &str) -> i64 {
    let design = Compiler::new().compile(source).expect("compiles");
    let flat = silc_layout::flatten(&design.library, design.top).expect("flattens");
    assert_eq!(flat.len(), 1, "{source}");
    flat[0].bbox().width()
}

/// `(case, source, what the compiler says)`.
const CASES: &[(&str, &str, &str)] = &[
    (
        "a cell's `let` overwrites its parameter",
        "cell c(a) {\n  let a = a + 1;\n  box metal (0, 0) (a, 2);\n}\nplace c(3) at (0, 0);",
        "ok bc88e518f6f9233f25136fd7487c5912",
    ),
    (
        "a `fn`'s `let` shadows its parameter",
        "fn f(a) {\n  let a = a * 2;\n  return a + 1;\n}\nbox metal (0, 0) (f(3), 2);",
        "ok 191140c2390c74c58b9acd52dad808fb",
    ),
    (
        "an inner block's `let` is gone after its block",
        "let x = 1;\nif true {\n  let x = 5;\n  x = 6;\n}\nbox metal (0, 0) (x, 2);",
        "ok 2e66b42306502129f3fb5ccbc086925d",
    ),
    (
        "a `let` inside `if`, read after it",
        "if true {\n  let y = 5;\n}\nbox metal (0, 0) (y, 2);",
        "error on line 4: `y` is not defined",
    ),
    (
        "a loop body assigns the outer `w` until its own `let w`",
        "let w = 2;\nfor i in 0..3 {\n  w = w + i;\n  let w = 100;\n}\nbox metal (0, 0) (w, 2);",
        "ok 0d2b4b2c4542826a143757ef8e540e99",
    ),
    (
        "an assignment before the `let`",
        "x = 3;\nlet x = 4;",
        "error on line 1: assignment to undefined variable `x`",
    ),
    (
        "a default sees no other parameter",
        "fn g(a, b = a) {\n  return b;\n}\nlet z = g(1);",
        "error on line 4: `a` is not defined",
    ),
    (
        "a top-level `let` is not seen inside a cell",
        "let t = 3;\ncell c() {\n  box metal (0, 0) (t, 2);\n}\nplace c() at (0, 0);",
        "error on line 3: `t` is not defined",
    ),
    (
        "an undefined name in a branch that never runs",
        "cell c(a) {\n  if a > 5 {\n    box metal (0, 0) (nope, 2);\n    nope = 1;\n    let q = f(nope);\n  }\n  box metal (0, 0) (2, 2);\n}\nplace c(1) at (0, 0);",
        "ok 264ef0fad1c31e9ffaf6f93d85a5395a",
    ),
    (
        "the same name undefined, once it runs",
        "cell c(a) {\n  if a > 5 {\n    box metal (0, 0) (nope, 2);\n  }\n}\nplace c(9) at (0, 0);",
        "error on line 3: `nope` is not defined",
    ),
    (
        "nested loops shadow one variable, and each sees its own",
        "let s = 0;\nfor i in 0..3 {\n  for i in 0..4 {\n    s = s + i;\n  }\n  s = s + 10 * i;\n}\nbox metal (0, 0) (s, 2);",
        "ok a12a360a51d63e7a7cfa4823eb2fe25c",
    ),
    (
        "a recursive `fn` keeps a frame of locals per call",
        "fn f(n) {\n  let k = n * 10;\n  if n == 0 {\n    return 0;\n  }\n  let r = f(n - 1);\n  return k + r;\n}\nbox metal (0, 0) (f(4), 2);",
        "ok e74a99cc7bb838bd21e5e213cd0b1348",
    ),
    (
        "calls inside arguments, and defaults that call",
        "fn two() {\n  return 2;\n}\nfn add(a, b = two() + 1) {\n  let c = a + b;\n  return c;\n}\nfn mul(a, b) {\n  return a * b;\n}\nlet x = 1;\nbox metal (0, 0) (add(mul(x + 1, add(x)), add(x, mul(2, 3))), 2);",
        "ok d69a6ed4b6f13745cc12c39a76730173",
    ),
    (
        "a cell placed from a loop inside a cell with locals in scope",
        "cell leaf(w) {\n  let h = w + 1;\n  box metal (0, 0) (w, h);\n}\ncell row(n) {\n  let pitch = 10;\n  for i in 0..n {\n    let x = i * pitch;\n    place leaf(i + 2) at (x, 0);\n  }\n  box poly (0, 20) (pitch * n, 22);\n}\nlet k = 3;\nplace row(k) at (0, 0);",
        "ok 556a6855e312ca867290c45a7332de9a",
    ),
    (
        "a `return` from inside nested blocks gives the block's locals back",
        "fn first(l, want) {\n  for i in 0..len(l) {\n    let v = l[i];\n    if v == want {\n      let found = i;\n      return found;\n    }\n  }\n  return -1;\n}\nlet a = 4;\nlet b = first([5, 6, 7], 7);\nlet c = a + b;\nbox metal (0, 0) (c, 2);",
        "ok 10c2668488c90d1593a9cc1bce4b680a",
    ),
    (
        "a `for` variable assigned in its body",
        "let s = 0;\nfor i in 0..3 {\n  i = i + 10;\n  s = s + i;\n}\nbox metal (0, 0) (s, 2);",
        "ok 248b6c6cfde32b2af5db35ea2ef2743d",
    ),
    (
        "a record and a list read in place from a parameter",
        "type geo { w, h }\ncell c(g, l) {\n  let d = l[1] + g.w;\n  box metal (0, 0) (d, g.h);\n}\nplace c(geo { w: 2, h: 3 }, [7, 8]) at (0, 0);",
        "ok adca8cae9a88ff976adadfd85eb6f814",
    ),
    (
        "an undefined type, once it runs",
        "fn f(a) {\n  if a > 0 {\n    return t { x: a };\n  }\n  return a;\n}\nlet ok = f(0);\nlet bad = f(1);",
        "error on line 3: type `t` is not defined",
    ),
];

#[test]
fn names_resolve_where_they_did() {
    for (case, source, expected) in CASES {
        assert_eq!(said(source), *expected, "{case}");
    }
}

#[test]
fn values_are_the_ones_each_binding_holds() {
    let box_of = |i: usize| CASES[i].1;
    // a + 1, 3 * 2 + 1, the outer x, 2 + 0 + 1 + 2.
    assert_eq!(width(box_of(0)), 4);
    assert_eq!(width(box_of(1)), 7);
    assert_eq!(width(box_of(2)), 1);
    assert_eq!(width(box_of(4)), 5);
    // Three trips of 0 + 1 + 2 + 3, and 10 * (0 + 1 + 2).
    assert_eq!(width(box_of(10)), 48);
    assert_eq!(width(box_of(11)), 100);
    // add(mul(2, add(1)), add(1, 6)) = add(2 * 4, 7) = 15.
    assert_eq!(width(box_of(12)), 15);
    assert_eq!(width(box_of(14)), 6);
    assert_eq!(width(box_of(15)), 33);
    assert_eq!(width(box_of(16)), 10);
}

/// A read is an index into its frame, whatever else is in scope: a body
/// with 20 000 `let`s reads the first of them a million times within the
/// step budget. A lookup that scanned the names in scope would make some
/// 2·10¹⁰ comparisons here.
#[test]
fn a_read_costs_the_same_under_many_bindings() {
    let mut body = String::from("cell big() {\n  let v0 = 1;\n");
    for i in 1..20_000 {
        body += &format!("  let v{i} = {i};\n");
    }
    body += "  let s = 0;\n  for i in 0..1000000 {\n    s = s + v0;\n  }\n  box metal (0, 0) (s, 2);\n}\nplace big() at (0, 0);\n";
    assert_eq!(width(&body), 1_000_000);
}
