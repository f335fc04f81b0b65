//! Simple column folding for PLA personalities.
//!
//! Large PLAs waste area on sparsely used input columns. *Column folding*
//! lets two input columns share one physical column when the product
//! terms using them occupy disjoint **row ranges**: one signal enters
//! from the top of the column, the other from the bottom, and the column
//! is split between them. This module computes a greedy fold plan and the
//! resulting width saving — the classic technique contemporary with the
//! paper (folding entered the literature right as PLAs became the
//! dominant regular block).
//!
//! The plan is a *metric* (reported by experiment E4's area column and
//! usable by floorplanning); the stylized layout generator emits the
//! unfolded form — see `DESIGN.md`'s substitution table.

use crate::PlaSpec;
use silc_logic::Lit;
use std::fmt;

/// A computed fold plan for the AND plane of a personality.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FoldPlan {
    /// Pairs of AND-plane column indices sharing a physical column; the
    /// first occupies the upper row range, the second the lower.
    /// Column indexing: column `2i` is input `i` true, `2i + 1` its
    /// complement.
    pub pairs: Vec<(usize, usize)>,
    /// Unfolded AND-plane column count (`2 × inputs`).
    pub original_columns: usize,
    /// Physical column count after folding.
    pub folded_columns: usize,
}

impl FoldPlan {
    /// Columns eliminated by the plan.
    pub fn columns_saved(&self) -> usize {
        self.original_columns - self.folded_columns
    }

    /// Fraction of AND-plane width saved (0.0 when nothing folds).
    pub fn width_saving(&self) -> f64 {
        if self.original_columns == 0 {
            0.0
        } else {
            self.columns_saved() as f64 / self.original_columns as f64
        }
    }
}

impl fmt::Display for FoldPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "fold plan: {} -> {} columns ({} pairs, {:.0}% saved)",
            self.original_columns,
            self.folded_columns,
            self.pairs.len(),
            self.width_saving() * 100.0
        )
    }
}

/// Computes a greedy column-fold plan for `spec`'s AND plane.
///
/// Two columns are *compatible* when the row ranges they are used in do
/// not overlap (with one spare row between them for the column break).
/// The greedy pass sorts columns by the first row they use and pairs each
/// unpaired column with the next compatible one — the standard
/// interval-style heuristic.
///
/// Unused columns (an input polarity no term samples) fold away entirely
/// and are not counted in the physical column total.
pub fn fold_plan(spec: &PlaSpec) -> FoldPlan {
    let n_cols = 2 * spec.num_inputs();
    // Row usage range per column.
    let mut range: Vec<Option<(usize, usize)>> = vec![None; n_cols];
    for (r, (cube, _)) in spec.terms().iter().enumerate() {
        for i in 0..spec.num_inputs() {
            let col = match cube.lit(i) {
                Lit::One => Some(2 * i),
                Lit::Zero => Some(2 * i + 1),
                Lit::DontCare => None,
            };
            if let Some(c) = col {
                let e = range[c].get_or_insert((r, r));
                e.0 = e.0.min(r);
                e.1 = e.1.max(r);
            }
        }
    }

    // Used columns sorted by first-use row.
    let mut used: Vec<(usize, (usize, usize))> = range
        .iter()
        .enumerate()
        .filter_map(|(c, r)| r.map(|r| (c, r)))
        .collect();
    used.sort_by_key(|&(_, (lo, _))| lo);

    let mut paired = vec![false; n_cols];
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    for a in 0..used.len() {
        let (ca, (_, hi_a)) = used[a];
        if paired[ca] {
            continue;
        }
        for &(cb, (lo_b, _)) in &used[a + 1..] {
            if paired[cb] || ca == cb {
                continue;
            }
            // Need a clear row between the two segments for the break.
            if lo_b > hi_a + 1 {
                paired[ca] = true;
                paired[cb] = true;
                pairs.push((ca, cb));
                break;
            }
        }
    }

    let unpaired_used = used.iter().filter(|&&(c, _)| !paired[c]).count();
    FoldPlan {
        folded_columns: pairs.len() + unpaired_used,
        original_columns: n_cols,
        pairs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Minimize;
    use silc_logic::functions::{benchmark_suite, majority, traffic_light};
    use silc_logic::{Cube, OutBit, TruthTable};

    #[test]
    fn disjoint_row_ranges_fold() {
        // Two terms: the first uses input a (rows 0), the second input b
        // (row 2) — with a gap row between, columns can share.
        let mut t = TruthTable::new(2, 1);
        t.push_row(Cube::parse("1-").unwrap(), vec![OutBit::On])
            .unwrap();
        t.push_row(Cube::parse("0-").unwrap(), vec![OutBit::On])
            .unwrap();
        t.push_row(Cube::parse("-1").unwrap(), vec![OutBit::On])
            .unwrap();
        let spec = PlaSpec::from_truth_table(&t, Minimize::None).unwrap();
        let plan = fold_plan(&spec);
        // Columns used: a(row0), a'(row1), b(row2). a (rows 0..0) and b
        // (rows 2..2) can share (gap at row 1).
        assert_eq!(plan.original_columns, 4);
        assert_eq!(plan.pairs.len(), 1);
        assert_eq!(plan.folded_columns, 2);
        assert_eq!(plan.columns_saved(), 2);
    }

    #[test]
    fn dense_columns_do_not_fold() {
        // Majority-3: every column is used across overlapping row ranges.
        let spec = PlaSpec::from_truth_table(&majority(3), Minimize::Exact).unwrap();
        let plan = fold_plan(&spec);
        assert!(plan.pairs.is_empty(), "{plan}");
        // Unused complement columns still fold away from the physical
        // count.
        assert!(plan.folded_columns <= plan.original_columns);
    }

    #[test]
    fn fold_preserves_row_disjointness_invariant() {
        for (name, table) in benchmark_suite() {
            let spec = PlaSpec::from_truth_table(&table, Minimize::Heuristic).unwrap();
            let plan = fold_plan(&spec);
            // Recompute ranges and verify every pair is truly disjoint.
            let n = spec.num_inputs();
            let mut range = vec![None::<(usize, usize)>; 2 * n];
            for (r, (cube, _)) in spec.terms().iter().enumerate() {
                for i in 0..n {
                    let col = match cube.lit(i) {
                        silc_logic::Lit::One => Some(2 * i),
                        silc_logic::Lit::Zero => Some(2 * i + 1),
                        silc_logic::Lit::DontCare => None,
                    };
                    if let Some(c) = col {
                        let e = range[c].get_or_insert((r, r));
                        e.0 = e.0.min(r);
                        e.1 = e.1.max(r);
                    }
                }
            }
            for &(a, b) in &plan.pairs {
                let (_, hi_a) = range[a].expect("paired columns are used");
                let (lo_b, _) = range[b].expect("paired columns are used");
                assert!(lo_b > hi_a + 1, "{name}: pair ({a},{b}) overlaps");
            }
            assert!(plan.folded_columns <= plan.original_columns);
        }
    }

    #[test]
    fn traffic_controller_folds_meaningfully() {
        let spec = PlaSpec::from_truth_table(&traffic_light(), Minimize::Exact).unwrap();
        let plan = fold_plan(&spec);
        // The exact personality is sparse enough that something folds or
        // at least unused polarities vanish.
        assert!(plan.folded_columns < plan.original_columns, "{plan}");
    }

    #[test]
    fn display_reports_savings() {
        let spec = PlaSpec::from_truth_table(&majority(3), Minimize::Exact).unwrap();
        let s = fold_plan(&spec).to_string();
        assert!(s.contains("fold plan"));
        assert!(s.contains("columns"));
    }
}
