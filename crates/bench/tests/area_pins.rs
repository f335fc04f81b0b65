//! Union area per layer (`CellStats::area_by_layer`, in `Layer::index`
//! order) of the experiment designs and the standard-cell prelude. The
//! numbers were written by the coordinate-compressed plane sweep
//! `union_area` ran before it became a sum over `band_decompose`; a
//! decomposition that drops, doubles or clips a sliver moves one of them.

use silc_bench::{e2, e3, e6};
use silc_lang::Compiler;
use silc_layout::{CellStats, Library};
use silc_route::{stack_assemble, Slice};

fn areas(lib: &Library, root: silc_layout::CellId) -> Vec<i64> {
    CellStats::compute(lib, root)
        .expect("root exists")
        .area_by_layer
}

fn compiled(source: &str) -> Vec<i64> {
    let design = Compiler::new().compile(source).expect("compiles");
    areas(&design.library, design.top)
}

#[test]
fn e2_designs_are_pinned() {
    let pinned: [(&str, usize, [i64; 7]); 8] = [
        ("shift-array", 4, [384, 384, 576, 0, 0, 0, 0]),
        ("shift-array", 16, [6144, 6144, 9216, 0, 0, 0, 0]),
        ("decoder", 4, [64, 48, 522, 0, 0, 0, 0]),
        ("decoder", 16, [256, 192, 5256, 0, 0, 0, 0]),
        ("adder-row", 4, [192, 192, 192, 0, 0, 0, 0]),
        ("adder-row", 16, [768, 768, 768, 0, 0, 0, 0]),
        ("crossbar", 4, [96, 464, 832, 16, 0, 0, 0]),
        ("crossbar", 16, [384, 6464, 12544, 64, 0, 0, 0]),
    ];
    let designs = e2::designs();
    for (name, n, want) in pinned {
        let (_, gen) = designs.iter().find(|(d, _)| *d == name).expect("design");
        assert_eq!(compiled(&gen(n)), want, "{name}({n})");
    }
}

#[test]
fn e3_datapath_is_pinned() {
    let bits = 8;
    let design = Compiler::new()
        .compile(&e3::datapath_source(bits))
        .expect("compiles");
    assert_eq!(
        areas(&design.library, design.top),
        [832, 576, 960, 64, 0, 0, 0],
        "compiled"
    );
    let mut lib = design.library;
    let slices: Vec<Slice> = ["regs", "alus", "buses"]
        .iter()
        .map(|s| Slice::new(lib.cell_by_name(&format!("{s}$i{bits}")).expect("slice")))
        .collect();
    let (id, _) = stack_assemble(
        &mut lib,
        &slices,
        silc_layout::Layer::Metal,
        3,
        6,
        "datapath",
    )
    .expect("assembles");
    assert_eq!(areas(&lib, id), [832, 576, 1872, 64, 0, 0, 0], "assembled");
}

#[test]
fn e6_array_is_pinned() {
    let design = e6::compile_design(8);
    assert_eq!(
        areas(&design.library, design.top),
        [1536, 1536, 2304, 0, 0, 0, 0]
    );
}

#[test]
fn prelude_cells_are_pinned() {
    for (cell, want) in [
        ("std_contact_md", [16, 0, 16, 4, 0, 0, 0]),
        ("std_contact_mp", [0, 16, 16, 4, 0, 0, 0]),
        ("std_butting", [12, 12, 24, 8, 0, 0, 0]),
        ("std_pullup", [36, 16, 16, 4, 96, 0, 0]),
        ("std_pass", [16, 16, 0, 0, 0, 0, 0]),
        ("std_inv", [120, 48, 48, 4, 48, 28, 0]),
    ] {
        assert_eq!(
            compiled(&format!("place {cell}() at (0, 0);")),
            want,
            "{cell}"
        );
    }
}
