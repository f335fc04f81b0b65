//! Diagnostics and designs pinned at the last commit whose front end
//! copied the program (this file printed every value there): the text,
//! line and column of each error, and the fingerprint of each design.

mod gen;

use silc_geom::Fingerprint;
use silc_lang::Compiler;

/// `(source, what the compiler says)`. Columns count bytes, an error after
/// a consumed token points at the next one, and a stray byte of a
/// multi-byte character prints as the Latin-1 character of that byte.
const DIAGNOSTICS: &[(&str, &str)] = &[
    (
        "let s = \"abc",
        "syntax error at 1:9: unterminated string literal",
    ),
    (
        "let s = \"abc\nlet t = 1;",
        "syntax error at 1:9: unterminated string literal",
    ),
    (
        "\n  let x = 99999999999999999999;",
        "syntax error at 2:11: number too large",
    ),
    (
        "let a = 1 # 2;",
        "syntax error at 1:11: unexpected character `#`",
    ),
    (
        "let a = é;",
        "syntax error at 1:9: unexpected character `Ã`",
    ),
    (
        "let x = 1 y;",
        "syntax error at 1:11: expected `;`, found identifier `y`",
    ),
    (
        "let cell = 1;",
        "syntax error at 1:5: expected identifier, found `cell`",
    ),
    (
        "let = 1;",
        "syntax error at 1:5: expected identifier, found `=`",
    ),
    (
        "let \"s\" = 1;",
        "syntax error at 1:5: expected identifier, found string \"s\"",
    ),
    (
        "let 5 = 1;",
        "syntax error at 1:5: expected identifier, found number 5",
    ),
    (
        "let x = 1",
        "syntax error at 1:10: expected `;`, found end of input",
    ),
    (
        "box 5 (0,0) (1,1);",
        "syntax error at 1:5: expected a layer name, found number 5",
    ),
    (
        "port 5 metal (0,0);",
        "syntax error at 1:6: expected a port name, found number 5",
    ),
    (
        "let x = ;",
        "syntax error at 1:9: expected an expression, found `;`",
    ),
    (
        "place c() at (0,0) rot 45;",
        "syntax error at 1:26: rot must be 90, 180 or 270",
    ),
    (
        "place c() at (0,0) rot;",
        "syntax error at 1:24: rot must be 90, 180 or 270",
    ),
    (
        "cell c( { }",
        "syntax error at 1:9: expected identifier, found `{`",
    ),
    (
        "type t { a: int b }",
        "syntax error at 1:17: expected `}`, found identifier `b`",
    ),
    (
        "for i in 0 { }",
        "syntax error at 1:12: expected `..`, found `{`",
    ),
    (
        "fn f() -> { }",
        "syntax error at 1:11: expected identifier, found `{`",
    ),
    (
        "cell c() {\n box metal (0,0) (1,1)\n}",
        "syntax error at 3:1: expected `;`, found `}`",
    ),
    (
        "let x = f(1, 2;",
        "syntax error at 1:15: expected `)`, found `;`",
    ),
    (
        "let r = t { a 1 };",
        "syntax error at 1:15: expected `:`, found number 1",
    ),
    (
        "let s = \"é☃\"; #",
        "syntax error at 1:18: unexpected character `#`",
    ),
    (
        "// é☃ comment\n  #",
        "syntax error at 2:3: unexpected character `#`",
    ),
    (
        "let a = 1;\r\n  let b = #;",
        "syntax error at 2:11: unexpected character `#`",
    ),
    (
        "let a = 1;\r  let b = #;",
        "syntax error at 1:22: unexpected character `#`",
    ),
    (
        "place ghost() at (0,0);",
        "error on line 1: cell `ghost` is not defined",
    ),
    (
        "cell a() { }\ncell a() { }",
        "error on line 2: cell `a` is defined twice",
    ),
    (
        "fn a() { }\n\nfn a() { }",
        "error on line 3: fn `a` is defined twice",
    ),
    (
        "type a { x }\ntype a { y }",
        "error on line 2: type `a` is defined twice",
    ),
    (
        "cell std_inv() { }",
        "error on line 1: cell `std_inv` is defined twice",
    ),
    (
        "cell c(a) { }\nplace c() at (0,0);",
        "error on line 2: cell `c` missing argument `a`",
    ),
    (
        "cell c(a) { }\nplace c(1, 2) at (0,0);",
        "error on line 2: cell `c` takes 1 parameter(s), got 2",
    ),
    (
        "fn f(a) { return a; }\nlet x = f();",
        "error on line 2: fn `f` missing argument `a`",
    ),
    (
        "fn f(a) { return a; }\nlet x = f(1, 2);",
        "error on line 2: fn `f` takes 1 argument(s), got 2",
    ),
    (
        "box metal9 (0,0) (1,1);",
        "error on line 1: unknown layer `metal9`",
    ),
    (
        "cell a() { place b() at (5,5); }\ncell b() { place a() at (0,0); }\nplace a() at (0,0);",
        "cell `a` places itself (directly or indirectly)",
    ),
    (
        "let a = 1;\nlet b = c;",
        "error on line 2: `c` is not defined",
    ),
    (
        "let a = 1;\nc = 2;",
        "error on line 2: assignment to undefined variable `c`",
    ),
    (
        "let r = t { a: 1 };",
        "error on line 1: type `t` is not defined",
    ),
    (
        "type t { a, b }\nlet r = t { a: 1 };",
        "error on line 2: missing field `b` of type `t`",
    ),
    (
        "type t { a }\nlet r = t { a: 1, z: 2 };",
        "error on line 2: type `t` has no field `z`",
    ),
    (
        "type t { a }\nlet r = t { a: 1 };\nlet z = r.q;",
        "error on line 3: t has no field `q`",
    ),
    (
        "let p = (1, 2);\nlet z = p.q;",
        "error on line 2: point has no field `q`",
    ),
    (
        "let l = [1, 2];\nlet z = l[2];",
        "error on line 2: index 2 out of range (len 2)",
    ),
    (
        "let l = 1;\nlet z = l[0];",
        "error on line 2: cannot index a int",
    ),
    (
        "if 1 { }",
        "error on line 1: if condition must be bool, got int",
    ),
    ("let x = 1 / 0;", "error on line 1: division by zero"),
    ("let x = 1 % 0;", "error on line 1: division by zero"),
    ("return 1;", "error on line 1: return outside a function"),
    (
        "cell c() { return 1; }\nplace c() at (0,0);",
        "error on line 1: return is not allowed in a cell body",
    ),
    (
        "fn bad() { box metal (0,0) (1,1); }\nlet x = bad();",
        "error on line 1: geometry statements are not allowed inside fn bodies",
    ),
    (
        "port (1) metal (0,0);",
        "error on line 1: port name must be a string, got int",
    ),
    (
        "cell c() { }\narray c() at (0,0) step (1,0) count 0;",
        "error on line 2: array count must be at least 1",
    ),
    (
        "box metal 1 (1,1);",
        "error on line 1: expected a point, got int",
    ),
    (
        "wire metal (1,1) (2,2) (3,3);",
        "error on line 1: expected an int, got point",
    ),
    (
        "let x = nope(1);",
        "error on line 1: `nope` is not a function (or wrong argument count)",
    ),
    (
        "let x = abs(true);",
        "error on line 1: `abs` expects int argument 0",
    ),
    (
        "let x = -true;",
        "error on line 1: cannot apply Neg to bool",
    ),
    ("let x = !1;", "error on line 1: cannot apply Not to int"),
    (
        "let x = 1 + true;",
        "error on line 1: cannot apply Add to int and bool",
    ),
    (
        "let x = 1 && true;",
        "error on line 1: logical op needs bool, got int",
    ),
    (
        "let x = true && 1;",
        "error on line 1: logical op needs bool, got int",
    ),
    (
        "let a = 9223372036854775807;\nlet b = a + 1;",
        "error on line 2: integer overflow in addition",
    ),
    (
        "box metal (0, 0) (1099511627777, 4);",
        "error on line 1: geometry reaches 1099511627777 lambda from the origin; the limit is 2^40",
    ),
    (
        "box metal (0,0) (0, 5);",
        "error on line 1: rectangle has empty extent (0 x 5)",
    ),
    (
        "box (1) (0,0) (1,1);",
        "error on line 1: expected a layer name, got int",
    ),
    (
        "cell c(a = nope) { }\nplace c() at (0,0);",
        "error on line 2: `nope` is not defined",
    ),
    (
        "fn f(n) {\n return f(n + 1);\n}\nlet x = f(0);",
        "error on line 2: function recursion too deep",
    ),
    (
        "// é☃ comment\nlet s = \"naïve ☃\"; box (s) (0,0) (1,1);",
        "error on line 2: unknown layer `naïve ☃`",
    ),
    (
        "box (\"w\" + str(len(\"é☃\"))) (0,0) (1,1);",
        "error on line 1: unknown layer `w5`",
    ),
];

fn said(source: &str) -> String {
    match Compiler::new().compile(source) {
        Ok(design) => format!("ok {}", design.fingerprint().to_hex()),
        Err(e) => e.to_string(),
    }
}

#[test]
fn diagnostics_keep_their_text_line_and_column() {
    for (source, expected) in DIAGNOSTICS {
        assert_eq!(said(source), *expected, "{source}");
    }
    let brackets = format!("let x =\n{}1{};", "(".repeat(70), ")".repeat(70));
    assert_eq!(
        said(&brackets),
        "syntax error at 2:64: nested more than 64 levels deep"
    );
    let blocks = format!("\n\n  {}{}", "if c { ".repeat(70), "}".repeat(70));
    assert_eq!(
        said(&blocks),
        "syntax error at 3:447: nested more than 64 levels deep"
    );
}

/// Positions are `u32`; a source they could not address is refused. The
/// buffer is never written, so it costs address space, not memory.
#[cfg(target_pointer_width = "64")]
#[test]
fn a_source_past_4_gib_is_refused_not_wrapped() {
    let source = String::from_utf8(vec![0u8; (1 << 32) + 1]).expect("NULs are UTF-8");
    assert_eq!(
        said(&source),
        "syntax error at 1:1: source is larger than 4 GiB"
    );
}

/// The first `r#"..."#` literal of a Rust source file.
fn literal(file: &str) -> &str {
    let start = file.find("r#\"").expect("a raw string") + 3;
    &file[start..start + file[start..].find("\"#").expect("closed")]
}

#[test]
fn designs_keep_their_fingerprints() {
    let manual = include_str!("../../../docs/SIL.md");
    let example = manual.rsplit("```sil\n").next().expect("a last SIL block");
    let example = example.split("```").next().expect("closed");
    let quickstart = literal(include_str!("../../../examples/quickstart.rs"));
    let datapath = literal(include_str!("../../../examples/datapath_assembly.rs"))
        .replace("{{", "{")
        .replace("}}", "}")
        .replace("{bits}", "8");
    let inverters = literal(include_str!("../../../tests/structural_flow.rs"));
    // Every fault here sits in a cell that is never placed.
    let unplaced =
        "cell bad(a) { box metal9 (0,0) (x, 1); place ghost(1,2,3) at (0,0); y = f(); }\n\
                    box metal (0,0) (4,4);";
    let generated = gen::program(1_000, 200);
    for (name, source, expected) in [
        ("docs/SIL.md", example, "9a216eba5a10366c5606ebc860421598"),
        ("quickstart", quickstart, "054c453c12a08bf481ae3990cf461b72"),
        (
            "datapath_assembly",
            &datapath,
            "875f212da06bff797f076a0b76c03f02",
        ),
        (
            "structural_flow",
            inverters,
            "dde9b55aaf0aac69c3156fe9132ce37f",
        ),
        (
            "unplaced faults",
            unplaced,
            "afa1f00893783d53372e8a729a33480e",
        ),
        ("generated", &generated, "faa7e5e7e535e9b1b84a4279df0657b9"),
    ] {
        assert_eq!(said(source), format!("ok {expected}"), "{name}");
    }
}
