//! A cell variant is its argument values: placing one tuple twice shares a
//! cell, and distinct tuples never do, however alike their arguments print.

use proptest::prelude::*;
use silc_lang::Compiler;
use silc_layout::{flatten, CellId, Element, Library, Port};

/// A cell whose artwork and ports tell its arguments apart: an int draws
/// poly as wide as it, a string metal as long as it and a port named by it.
const CELL: &str = "cell c(a, b) {
  port (str(a)) metal (0, 0);
  port (str(b)) metal (0, 1);
  if a == str(a) { box metal (0, 0) (4 + len(a), 4); } else { box poly (0, 0) (4 + a, 4); }
  if b == str(b) { box metal (0, 10) (4 + len(b), 14); } else { box poly (0, 10) (4 + b, 14); }
}
";

#[derive(Debug, Clone, PartialEq)]
enum Arg {
    Int(i64),
    Str(String),
}

impl Arg {
    fn sil(&self) -> String {
        match self {
            Arg::Int(v) => v.to_string(),
            Arg::Str(s) => format!("\"{s}\""),
        }
    }
}

/// A placement's tuple, from a case's pool of strings and ints. Shapes 1
/// and 2 write the same text once the arguments are joined by commas with
/// a type tag (`c(sx,sy,sz)`), and shapes 5 and 6 the same library name.
fn tuple(strs: &[String], ints: &[i64], (shape, i, j, k): (u8, usize, usize, usize)) -> [Arg; 2] {
    let s = |n: usize| strs[n % strs.len()].clone();
    let int = |n: usize| Arg::Int(ints[n % ints.len()]);
    match shape {
        0 => [Arg::Str(s(i)), Arg::Str(s(j))],
        1 => [Arg::Str(format!("{},s{}", s(i), s(j))), Arg::Str(s(k))],
        2 => [Arg::Str(s(i)), Arg::Str(format!("{},s{}", s(j), s(k)))],
        3 => [int(i), Arg::Str(s(j))],
        4 => [Arg::Str(s(i)), int(j)],
        5 => [Arg::Str(format!("{}.{}", s(i), s(j))), Arg::Str(s(k))],
        _ => [Arg::Str(format!("{},{}", s(i), s(j))), Arg::Str(s(k))],
    }
}

/// What a placed variant is: its flattened artwork and its ports.
type Contents = (Vec<Element>, Vec<Port>);

fn contents(library: &Library, id: CellId) -> Contents {
    let flat = flatten(library, id).expect("flattens");
    (flat, library.cell(id).expect("placed").ports().to_vec())
}

/// The number of cells, and what each placement places, of a program
/// placing `tuples` in order.
fn compile(tuples: &[[Arg; 2]]) -> (usize, Vec<Contents>) {
    let mut source = CELL.to_string();
    for (n, [a, b]) in tuples.iter().enumerate() {
        source += &format!("place c({}, {}) at ({}, 0);\n", a.sil(), b.sil(), n * 40);
    }
    let design = match Compiler::new().compile(&source) {
        Ok(design) => design,
        Err(e) => panic!("{source}: {e}"),
    };
    let top = design.library.cell(design.top).expect("a top cell");
    let placed = top
        .instances()
        .iter()
        .map(|inst| contents(&design.library, inst.cell))
        .collect();
    (design.library.len(), placed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]
    #[test]
    fn each_distinct_tuple_is_one_cell_drawn_as_if_alone(
        strs in prop::collection::vec("[a-z,\\]}=s_.]{0,4}", 3),
        ints in prop::collection::vec(0i64..4, 2),
        picks in prop::collection::vec((0u8..7, 0usize..3, 0usize..3, 0usize..3), 1..9),
    ) {
        let tuples: Vec<[Arg; 2]> = picks.iter().map(|&p| tuple(&strs, &ints, p)).collect();
        let mut distinct: Vec<&[Arg; 2]> = Vec::new();
        for t in &tuples {
            if !distinct.contains(&t) {
                distinct.push(t);
            }
        }
        let (cells, placed) = compile(&tuples);
        // The distinct variants and the top cell.
        prop_assert_eq!(cells, distinct.len() + 1, "{:?}", tuples);
        for (t, got) in tuples.iter().zip(&placed) {
            let (_, alone) = compile(std::slice::from_ref(t));
            prop_assert_eq!(got, &alone[0], "{:?} among {:?}", t, tuples);
        }
    }
}
