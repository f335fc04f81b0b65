//! A program of the ledger's `sil_program` shape, without a seed: many
//! two-parameter cell definitions (records, `for`, `fn` calls, `if`/`else`)
//! that all get parsed, every fifth of the first `5 * placed` elaborated.

use std::fmt::Write as _;

pub fn program(defs: usize, placed: usize) -> String {
    assert!(defs >= 5 * placed);
    let mut s = String::from(
        "// library-heavy: many definitions, few placements\n\
         type geo { w: int, h: int, gap: int }\n\
         fn clampw(v) -> int { return max(3, min(v, 9)); }\n\
         fn stride(k) -> int { return k + 5; }\n",
    );
    for i in 0..defs {
        let (k0, k1) = (i % 5 + 2, i % 7 + 4);
        let _ = match i % 3 {
            0 => writeln!(
                s,
                "cell c{i}(a, b) {{\n  let g = geo {{ w: clampw(a + {k0}), h: {k1} + b, gap: 3 }};\n  \
                 box metal (0, 0) (g.w, g.h);\n  box poly (0, g.h + g.gap) (g.w, g.h + g.gap + 2);\n  \
                 port p metal (1, 1);\n}}"
            ),
            1 => writeln!(
                s,
                "cell c{i}(a, b) {{\n  for i in 0..{k0} {{\n    \
                 box diff (i * stride({k1}), 0) (i * stride({k1}) + 2, 6 + a);\n  }}\n  \
                 box metal (0, 12 + a + b) (9, 15 + a + b);\n}}"
            ),
            _ => writeln!(
                s,
                "cell c{i}(a, b) {{\n  let top = max(a, b) + {k0} + 10;\n  \
                 wire metal 4 (2, 2) (2, top) ({k1} + 10 + b, top);\n  \
                 if a % 2 == 0 {{ box poly (8, 0) (10, {k1}); }} else {{ box poly (8, 0) (11, {k1}); }}\n}}"
            ),
        };
    }
    for slot in 0..placed {
        let (a, b) = (slot % 6, slot / 6 % 6);
        let at = (slot % 15 * 64, slot / 15 * 64);
        let _ = writeln!(s, "place c{}({a}, {b}) at ({}, {});", slot * 5, at.0, at.1);
    }
    s
}
