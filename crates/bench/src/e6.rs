//! E6 — compilation scaling: compile time, geometry count and CIF output
//! size as a function of design size. The motivation row of the paper:
//! complexity grows inexorably, so the tools must scale.

use crate::e2::shift_array;
use silc_cif::CifWriter;
use silc_drc::{check_flat, check_flat_brute, check_traced, RuleSet};
use silc_lang::{Compiler, Design};
use silc_layout::CellStats;
use silc_trace::Tracer;
use std::fmt::Write as _;
use std::time::Instant;

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

/// Emits CIF for a compiled design.
///
/// # Panics
///
/// Panics on writer failure (covered by tests).
pub fn emit_cif(design: &Design) -> String {
    CifWriter::new()
        .write_to_string(&design.library, design.top)
        .expect("valid root")
}

/// Measures one size point (structure only — timing is Criterion's job).
///
/// The row is read back from the pipeline's own [`silc_trace`] counters
/// (`cif.bytes`, `drc.violations`) rather than recomputed here, so the
/// bench reports exactly what `silc compile --stats` reports.
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

/// One DRC-engine ablation data point: the same flattened layout checked
/// by the indexed engine and the all-pairs brute-force oracle.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Array size parameter (the design is n x n cells).
    pub n: usize,
    /// Flattened rectangle count fed to the checker.
    pub rects: usize,
    /// Grid bins across the per-pass spatial indexes (trace counter
    /// `drc.index.bins`).
    pub index_bins: usize,
    /// Index probes issued across all passes (trace counter `drc.queries`).
    pub queries: usize,
    /// Indexed (`check_flat`) wall time in milliseconds.
    pub indexed_ms: f64,
    /// All-pairs oracle (`check_flat_brute`) wall time.
    pub brute_ms: f64,
    /// `brute_ms / indexed_ms`.
    pub speedup: f64,
}

/// Times one checker variant: best of `reps` runs (min, not mean — the
/// usual wall-clock noise is one-sided).
fn time_best<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        std::hint::black_box(f());
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// Runs the DRC engine ablation over the given array sizes. Each variant
/// is checked to agree with the others before timing is reported, so a
/// row is also an equivalence witness.
///
/// # Panics
///
/// Panics if the two engines disagree on any layout (they must not).
pub fn drc_ablation(sizes: &[usize]) -> Vec<AblationRow> {
    let rules = RuleSet::mead_conway_nmos();
    sizes
        .iter()
        .map(|&n| {
            let design = compile_design(n);
            let layers =
                silc_layout::flatten_to_rects(&design.library, design.top).expect("top exists");
            let rects: usize = layers.iter().map(Vec::len).sum();

            // The equivalence run doubles as the counter run: the same
            // `drc.index.*` / `drc.queries` counters that `--stats` shows.
            let tracer = Tracer::enabled();
            let indexed = silc_drc::check_flat_traced(&layers, &rules, &tracer);
            let trace = tracer.finish();
            let counter = |name: &str| trace.counter(name).unwrap_or(0) as usize;
            let brute = check_flat_brute(&layers, &rules);
            assert_eq!(
                indexed.violations, brute.violations,
                "indexed/brute divergence at n={n}"
            );

            let reps = if rects > 20_000 { 2 } else { 3 };
            let indexed_ms = time_best(reps, || check_flat(&layers, &rules));
            let brute_ms = time_best(reps, || check_flat_brute(&layers, &rules));
            AblationRow {
                n,
                rects,
                index_bins: counter("drc.index.bins"),
                queries: counter("drc.queries"),
                indexed_ms,
                brute_ms,
                speedup: brute_ms / indexed_ms,
            }
        })
        .collect()
}

/// Formats ablation rows for display.
pub fn ablation_table(rows: &[AblationRow]) -> Vec<Vec<String>> {
    rows.iter()
        .map(|r| {
            vec![
                r.n.to_string(),
                r.rects.to_string(),
                r.index_bins.to_string(),
                r.queries.to_string(),
                format!("{:.2}", r.indexed_ms),
                format!("{:.2}", r.brute_ms),
                format!("{:.1}x", r.speedup),
            ]
        })
        .collect()
}

/// Machine-readable summary: one JSON object per row, one row per line.
pub fn ablation_json(rows: &[AblationRow]) -> String {
    let mut out = String::new();
    for r in rows {
        writeln!(
            out,
            "{{\"bench\":\"e6/drc_engine\",\"n\":{},\"rects\":{},\
             \"index_bins\":{},\"queries\":{},\
             \"indexed_ms\":{:.3},\"brute_ms\":{:.3},\
             \"speedup\":{:.2}}}",
            r.n, r.rects, r.index_bins, r.queries, r.indexed_ms, r.brute_ms, r.speedup
        )
        .expect("writing to a String");
    }
    out
}

/// One warm-vs-cold data point: the same design compiled twice through
/// the incremental engine — once against an empty cache, once against
/// the cache the first run populated.
#[derive(Debug, Clone)]
pub struct WarmColdRow {
    /// Array size parameter (the design is n x n cells).
    pub n: usize,
    /// First (cache-populating) compile wall time in milliseconds.
    pub cold_ms: f64,
    /// Second (fully cached) compile wall time.
    pub warm_ms: f64,
    /// `cold_ms / warm_ms`.
    pub speedup: f64,
    /// Cache misses on the warm run (must be 0).
    pub warm_misses: u64,
}

/// Runs the warm-vs-cold sweep. Each row is also a correctness witness:
/// the warm CIF must be byte-identical to the cold CIF and the warm run
/// must miss nothing.
///
/// # Panics
///
/// Panics if the warm run recomputes anything or produces different CIF.
pub fn incr_warm_vs_cold(sizes: &[usize]) -> Vec<WarmColdRow> {
    use silc_incr::{compile_sil, CompileOptions, Engine, JobStats};
    sizes
        .iter()
        .map(|&n| {
            let source = shift_array(n);
            let options = CompileOptions::default();
            let engine = Engine::in_memory();

            let mut cold_stats = JobStats::default();
            let start = Instant::now();
            let cold = compile_sil(&engine, &source, &options, &mut cold_stats)
                .unwrap_or_else(|e| panic!("cold compile n={n}: {e}"));
            let cold_ms = start.elapsed().as_secs_f64() * 1e3;

            let mut warm_stats = JobStats::default();
            let start = Instant::now();
            let warm = compile_sil(&engine, &source, &options, &mut warm_stats)
                .unwrap_or_else(|e| panic!("warm compile n={n}: {e}"));
            let warm_ms = start.elapsed().as_secs_f64() * 1e3;

            assert_eq!(warm_stats.misses, 0, "warm run recomputed at n={n}");
            assert_eq!(
                cold.cif.as_deref(),
                warm.cif.as_deref(),
                "warm CIF diverged at n={n}"
            );
            WarmColdRow {
                n,
                cold_ms,
                warm_ms,
                speedup: cold_ms / warm_ms.max(1e-6),
                warm_misses: warm_stats.misses,
            }
        })
        .collect()
}

/// Formats warm-vs-cold rows for display.
pub fn warm_cold_table(rows: &[WarmColdRow]) -> Vec<Vec<String>> {
    rows.iter()
        .map(|r| {
            vec![
                r.n.to_string(),
                format!("{:.2}", r.cold_ms),
                format!("{:.3}", r.warm_ms),
                format!("{:.0}x", r.speedup),
                r.warm_misses.to_string(),
            ]
        })
        .collect()
}

/// Machine-readable summary: one JSON object per row, one row per line.
pub fn warm_cold_json(rows: &[WarmColdRow]) -> String {
    let mut out = String::new();
    for r in rows {
        writeln!(
            out,
            "{{\"bench\":\"e6/incr_warm_vs_cold\",\"n\":{},\
             \"cold_ms\":{:.3},\"warm_ms\":{:.3},\"speedup\":{:.2},\
             \"warm_misses\":{}}}",
            r.n, r.cold_ms, r.warm_ms, r.speedup, r.warm_misses
        )
        .expect("writing to a String");
    }
    out
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

    #[test]
    fn ablation_rows_are_consistent() {
        // drc_ablation asserts engine equivalence internally; here we
        // also sanity-check the emitted summary shape.
        let rows = drc_ablation(&[2, 4]);
        assert_eq!(rows.len(), 2);
        assert!(rows[1].rects > rows[0].rects);
        // Index stats come from the shared trace counters.
        assert!(rows[0].queries > 0, "traced run recorded no index probes");
        assert!(rows[1].queries > rows[0].queries);
        let json = ablation_json(&rows);
        assert_eq!(json.lines().count(), 2);
        assert!(json.contains("\"speedup\":"));
        assert!(json.contains("\"queries\":"));
        assert_eq!(ablation_table(&rows)[0].len(), 7);
    }

    #[test]
    fn warm_runs_never_recompute() {
        // incr_warm_vs_cold asserts byte-identity and zero warm misses
        // internally; here we sanity-check the emitted summary shape.
        let rows = incr_warm_vs_cold(&[2, 4]);
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|r| r.warm_misses == 0));
        let json = warm_cold_json(&rows);
        assert_eq!(json.lines().count(), 2);
        assert!(json.contains("\"bench\":\"e6/incr_warm_vs_cold\""));
        assert_eq!(warm_cold_table(&rows)[0].len(), 5);
    }
}
