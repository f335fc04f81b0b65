//! `silc compile`'s summary and DRC lines for the four array families of
//! the `sil_array` benchmark corpus (shift register, decoder, adder,
//! crossbar) at three sizes, and for three dirty designs, pinned byte for
//! byte in `tests/fixtures/array_pins.txt`. The file was written when
//! every design was still flattened and checked rectangle by rectangle;
//! a hierarchy the checker now proves clean from one tile and its lattice
//! must print exactly what that flat check printed, and a dirty one the
//! flat checker's whole report, order included.

use std::fmt::Write as _;
use std::process::Command;

/// Two-phase shift-register cells, rows arrayed into a block.
fn shift(side: i64, v: i64) -> String {
    let (px, py) = (12 + v % 2, 16 + (v + 1) % 2);
    format!(
        "cell sr_bit() {{ box diff (0, 0) (2, 12); box poly (-2, 3) (4, 5); \
         box poly (-2, 7) (4, 9); box metal (4, 0) (7, 12); }}\n\
         cell sr_row(n) {{ array sr_bit() at (0, 0) step ({px}, 0) count n; }}\n\
         cell sr_block(n, m) {{ array sr_row(n) at (0, 0) step (0, 0) (0, {py}) count 1 m; }}\n\
         place sr_block({side}, {side}) at ({}, {});",
        7 + 13 * v,
        5 + 11 * v
    )
}

/// Decoder strips: drivers whose outputs drop to a select bus on
/// two-segment wires that overlap the drivers' metal.
fn decoder(strips: i64, v: i64) -> String {
    let n = 32;
    let (px, run) = (14 + v % 2, 7 + (v + 1) % 2);
    let height = 8 + 12 + run * n + 6 + v % 2;
    format!(
        "cell drv() {{ box diff (0, 0) (2, 8); box poly (-2, 3) (4, 5); box metal (6, 0) (9, 8); }}\n\
         cell strip(n) {{\n  array drv() at (0, 0) step ({px}, 0) count n;\n  \
         for i in 0..n {{\n    let x = i * {px} + 7;\n    let y = 0 - 10 - i * {run};\n    \
         wire metal 4 (x, 1) (x, y) (0 - 10, y);\n  }}\n}}\n\
         cell decoder(n, m) {{ array strip(n) at (0, 0) step (0, 0) (0, {height}) count 1 m; }}\n\
         place decoder({n}, {strips}) at ({}, {});",
        3 * v,
        40 - 9 * v
    )
}

/// Ripple-adder slices: one two-dimensional array of a five-box leaf.
fn adder(side: i64, v: i64) -> String {
    let (px, py) = (18 + v % 2, 16 + (v + 1) % 2);
    format!(
        "cell fa() {{ box diff (0, 0) (2, 12); box diff (6, 0) (8, 12); box poly (-2, 2) (10, 4); \
         box poly (-2, 8) (10, 10); box metal (11, 0) (15, 12); \
         port cin metal (13, 0); port cout metal (13, 12); }}\n\
         cell adders(n, m) {{ array fa() at (0, 0) step ({px}, 0) (0, {py}) count n m; }}\n\
         place adders({side}, {side}) at ({}, {});",
        11 * v,
        2 + 5 * v
    )
}

/// Crossbar tiles: metal rows over poly columns with tapped diffusion
/// on the diagonal, so a tile's parts cross each other.
fn crossbar(side: i64, v: i64) -> String {
    let (k, p) = (16, 12);
    let tile = k * p + 14 + v % 2;
    format!(
        "cell tap() {{ box diff (-3, -2) (3, 2); box contact (-1, -1) (1, 1); }}\n\
         cell xtile(k) {{\n  for i in 0..k {{\n    \
         wire metal 4 (0, i * {p}) (k * {p}, i * {p});\n    \
         wire poly 2 (i * {p} + 6, 0 - 4) (i * {p} + 6, k * {p} + 4);\n  }}\n  \
         for i in 0..k {{ place tap() at (i * {p} + 6, i * {p}); }}\n}}\n\
         cell xbar(k, n, m) {{ array xtile(k) at (0, 0) step ({tile}, 0) (0, {tile}) count n m; }}\n\
         place xbar({k}, {side}, {side}) at ({}, {});",
        17 + v,
        40 + 2 * v
    )
}

/// Designs the checker must refuse: isolated slivers in a top cell,
/// tiles arrayed too close, and a tile dirty on its own.
fn dirty() -> [(&'static str, String); 3] {
    let mut slivers = String::from("cell bar() { box metal (0, 0) (4, 20); }\n");
    for i in 0..8 {
        let _ = writeln!(slivers, "place bar() at ({}, 0);", i * 10);
    }
    for (i, x) in [0, 11, 22, 31].into_iter().enumerate() {
        let _ = writeln!(slivers, "box poly ({x}, {}) ({}, 50);", 40 + i, x + 1);
    }
    [
        ("dirty_slivers", slivers),
        (
            "dirty_pitch",
            "cell m() { box metal (0, 0) (3, 10); }\n\
             cell row(n) { array m() at (0, 0) step (5, 0) count n; }\n\
             place row(6) at (0, 0);"
                .into(),
        ),
        (
            "dirty_tile",
            "cell t() { box poly (0, 0) (1, 6); box metal (3, 0) (6, 6); }\n\
             cell grid() { array t() at (0, 0) step (10, 0) (0, 12) count 4 3; }\n\
             place grid() at (2, 2);"
                .into(),
        ),
    ]
}

/// Every design, by name: each family at the edges the benchmark's
/// 4 096-, 16 384- and 36 864-rectangle classes give it.
fn corpus() -> Vec<(String, String)> {
    let mut out = Vec::new();
    for (v, (s, d, a, x)) in [(32, 25, 29, 8), (64, 102, 57, 16), (96, 230, 86, 24)]
        .into_iter()
        .enumerate()
    {
        let v = v as i64;
        out.push((format!("shift_{s}"), shift(s, v)));
        out.push((format!("decoder_{d}"), decoder(d, v)));
        out.push((format!("adder_{a}"), adder(a, v)));
        out.push((format!("xbar_{x}"), crossbar(x, v)));
    }
    out.extend(dirty().map(|(name, source)| (name.to_string(), source)));
    out
}

#[test]
fn array_families_print_what_the_flat_checker_printed() {
    let dir = std::env::temp_dir().join("silc-array-pins");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let mut actual = String::new();
    for (name, source) in corpus() {
        let file = format!("{name}.sil");
        std::fs::write(dir.join(&file), source).expect("write design");
        let out = Command::new(env!("CARGO_BIN_EXE_silc"))
            .current_dir(&dir)
            .args(["compile", &file, "-o", &format!("{name}.cif"), "--no-cache"])
            .output()
            .expect("runs");
        let code = out.status.code().expect("exited");
        let _ = write!(
            actual,
            "== {name} (exit {code})\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let pinned = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/array_pins.txt"
    ))
    .expect("pin file");
    for (got, want) in actual.lines().zip(pinned.lines()) {
        assert_eq!(got, want);
    }
    assert_eq!(actual.lines().count(), pinned.lines().count());
}
