//! E6 — compilation scaling: compile time, geometry count and CIF output
//! size as a function of design size. The motivation row of the paper:
//! complexity grows inexorably, so the tools must scale.

use crate::e2::shift_array;
use silc_cif::CifWriter;
use silc_drc::{check_traced, RuleSet};
use silc_lang::{Compiler, Design};
use silc_layout::CellStats;
use silc_trace::Tracer;

/// One design-size data point.
#[derive(Debug, Clone)]
pub struct ScalingRow {
    /// Array size parameter (the design is n x n cells).
    pub n: usize,
    /// Flattened artwork elements.
    pub flat_elements: usize,
    /// Bytes of emitted CIF.
    pub cif_bytes: usize,
    /// DRC violations (expected 0 — the generator is clean).
    pub drc_violations: usize,
}

/// Compiles the `n x n` shift-register array.
///
/// # Panics
///
/// Panics if the built-in SIL program fails (covered by tests).
pub fn compile_design(n: usize) -> Design {
    Compiler::new()
        .compile(&shift_array(n))
        .unwrap_or_else(|e| panic!("shift_array({n}): {e}"))
}

/// Measures one size point (structure only; the ledger's `sil_array`
/// workload times it).
///
/// The row is read back from the pipeline's own [`silc_trace`] counters
/// (`cif.bytes`, `drc.violations`) rather than recomputed here, so the
/// table reports exactly what `silc compile --stats` reports.
pub fn measure(n: usize) -> ScalingRow {
    let tracer = Tracer::enabled();
    let design = compile_design(n);
    let stats = CellStats::compute(&design.library, design.top).expect("top exists");
    CifWriter::new()
        .with_tracer(tracer.clone())
        .write_to_string(&design.library, design.top)
        .expect("valid root");
    check_traced(
        &design.library,
        design.top,
        &RuleSet::mead_conway_nmos(),
        &tracer,
    )
    .expect("top exists");
    let report = tracer.finish();
    let counter = |name: &str| report.counter(name).unwrap_or(0) as usize;
    ScalingRow {
        n,
        flat_elements: stats.flat_elements,
        cif_bytes: counter("cif.bytes"),
        drc_violations: counter("drc.violations"),
    }
}

/// The sweep.
pub fn run(sizes: &[usize]) -> Vec<ScalingRow> {
    sizes.iter().map(|&n| measure(n)).collect()
}

/// Formats rows for display.
pub fn table(rows: &[ScalingRow]) -> Vec<Vec<String>> {
    rows.iter()
        .map(|r| {
            vec![
                r.n.to_string(),
                r.flat_elements.to_string(),
                r.cif_bytes.to_string(),
                r.drc_violations.to_string(),
            ]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elements_scale_quadratically_but_cif_stays_compact() {
        let rows = run(&[4, 8, 16]);
        assert_eq!(rows[1].flat_elements, 4 * rows[0].flat_elements);
        assert_eq!(rows[2].flat_elements, 4 * rows[1].flat_elements);
        // Hierarchical CIF grows far slower than the flat geometry:
        // the 16x16 array has 16x the elements of 4x4 but nowhere near
        // 16x the CIF (symbols are shared; only calls repeat).
        let growth = rows[2].cif_bytes as f64 / rows[0].cif_bytes as f64;
        let flat_growth = rows[2].flat_elements as f64 / rows[0].flat_elements as f64;
        assert!(
            growth < flat_growth / 2.0,
            "CIF grew {growth:.1}x vs geometry {flat_growth:.1}x"
        );
    }

    #[test]
    fn generated_arrays_are_drc_clean() {
        for row in run(&[2, 6]) {
            assert_eq!(row.drc_violations, 0, "n={}", row.n);
        }
    }
}
