//! The incremental engine's contract: caching is *invisible*. Whatever
//! mix of cold computes, memory hits, disk hits and corrupted entries
//! served a compile, its outputs are byte-identical to a from-scratch
//! build — and a fully warm recompile is an order of magnitude faster.

use proptest::prelude::*;
use silc_incr::{compile_sil, CompileOptions, Engine, EngineConfig, JobStats};
use silc_trace::Tracer;
use std::path::PathBuf;
use std::time::Instant;

/// The E6 scaling design: an `n x n` array of two-phase shift-register
/// cells (mirrors `silc_bench::e2::shift_array`, inlined to keep this
/// crate out of the bench crate's dependency graph).
fn shift_array(n: usize) -> String {
    format!(
        "cell sr_bit() {{
            box diff (0, 0) (2, 12);
            box poly (-2, 3) (4, 5);
            box poly (-2, 7) (4, 9);
            box metal (4, 0) (7, 12);
         }}
         cell sr_row(n) {{ array sr_bit() at (0, 0) step (12, 0) count n; }}
         cell sr_array(n) {{ array sr_row(n) at (0, 0) step (0, 0) (0, 16) count 1 n; }}
         place sr_array({n}) at (0, 0);"
    )
}

fn options() -> CompileOptions {
    CompileOptions {
        extract: true,
        ..CompileOptions::default()
    }
}

/// Everything observable about a compile, rendered to comparable bytes.
fn observe(
    engine: &Engine,
    source: &str,
    stats: &mut JobStats,
) -> Result<(Option<String>, String, Vec<String>), String> {
    let out = compile_sil(engine, source, &options(), stats)?;
    Ok((
        out.cif.as_deref().cloned(),
        out.drc
            .as_deref()
            .map(ToString::to_string)
            .unwrap_or_default(),
        out.extract
            .as_deref()
            .map(|e| e.signature.clone())
            .unwrap_or_default(),
    ))
}

/// `DIE` never flattens; it must still hold exactly what flattening
/// measures, wires (with their odd-width pens) and rotations included.
#[test]
fn die_summary_matches_what_flattening_measures() {
    let source = format!(
        "{}cell top() {{ place sr_array(3) at (5, 7); wire metal 3 (0, -20) (40, -20) (40, -9); }}
         place top() at (1, 1);
         place top() at (200, 1) rot 90;
         place top() at (-200, 1) mirrorx;",
        shift_array(3).replace("place sr_array(3) at (0, 0);", "")
    );
    let engine = Engine::in_memory();
    let mut stats = JobStats::default();
    let design = silc_incr::elaborate(&engine, &source, &mut stats).expect("elaborates");
    let die = silc_incr::die_summary(&engine, &design, &mut stats).expect("summarises");
    let flat = silc_layout::flatten(&design.library, design.top).expect("root");
    assert_eq!(die.flat_elements, flat.len() as u64);
    let bbox = flat.iter().map(|f| f.bbox()).reduce(|a, b| a.union(b));
    assert_eq!(die.bbox, bbox);
    assert!(die.bbox.is_some());
    let cell_stats = silc_layout::CellStats::compute(&design.library, design.top).expect("root");
    assert_eq!(die.flat_elements, cell_stats.flat_elements as u64);
    assert_eq!(die.bbox, cell_stats.bbox);
}

#[test]
fn warm_recompile_is_an_order_of_magnitude_faster_and_byte_identical() {
    let source = shift_array(32);
    let engine = Engine::in_memory();

    let mut cold_stats = JobStats::default();
    let start = Instant::now();
    let cold = observe(&engine, &source, &mut cold_stats).expect("cold compile");
    let cold_time = start.elapsed();
    assert_eq!(cold_stats.hits, 0);

    // Best-of-three warm timing: the comparison is one-sided (a warm run
    // can only be slowed down by scheduling noise, never sped up).
    let mut warm_time = std::time::Duration::MAX;
    let mut warm = None;
    for _ in 0..3 {
        let mut warm_stats = JobStats::default();
        let start = Instant::now();
        let result = observe(&engine, &source, &mut warm_stats).expect("warm compile");
        warm_time = warm_time.min(start.elapsed());
        assert_eq!(warm_stats.misses, 0, "warm run recomputed a stage");
        warm = Some(result);
    }

    assert_eq!(warm.unwrap(), cold, "warm outputs diverged from cold");
    assert!(
        cold_time >= warm_time * 10,
        "warm recompile not >=10x faster: cold {cold_time:?}, warm {warm_time:?}"
    );
}

#[test]
fn disk_cache_round_trips_across_engines_and_survives_corruption() {
    let dir = std::env::temp_dir().join(format!("silc-incr-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let source = shift_array(4);
    let persistent = |dir: &PathBuf| {
        Engine::new(EngineConfig {
            cache_dir: Some(dir.clone()),
            tracer: Tracer::disabled(),
            ..EngineConfig::default()
        })
        .expect("cache dir")
    };

    let mut stats = JobStats::default();
    let cold = observe(&persistent(&dir), &source, &mut stats).expect("cold");

    // A brand-new engine over the same directory answers purely from disk.
    let mut warm_stats = JobStats::default();
    let warm = observe(&persistent(&dir), &source, &mut warm_stats).expect("warm");
    assert_eq!(warm, cold);
    assert_eq!(warm_stats.misses, 0, "disk cache was not used");

    // Vandalize every entry; the next run must recompute everything,
    // succeed, and still produce identical bytes.
    for entry in std::fs::read_dir(&dir).expect("cache dir listing") {
        let path = entry.expect("entry").path();
        let bytes = std::fs::read(&path).expect("entry bytes");
        std::fs::write(&path, &bytes[..bytes.len() / 2]).expect("truncate entry");
    }
    let mut recover_stats = JobStats::default();
    let recovered = observe(&persistent(&dir), &source, &mut recover_stats).expect("recovery");
    assert_eq!(recovered, cold);
    assert_eq!(recover_stats.hits, 0, "a corrupted entry was served");

    // The recovery run rewrote the entries: hits are back.
    let mut healed_stats = JobStats::default();
    let healed = observe(&persistent(&dir), &source, &mut healed_stats).expect("healed");
    assert_eq!(healed, cold);
    assert_eq!(healed_stats.misses, 0, "cache did not heal");
}

/// One randomized SIL program: `cells` leaf cells with varying geometry,
/// instantiated (some arrayed) by a top cell.
fn program(cells: &[(i64, i64, i64)], arrayed: bool) -> String {
    use std::fmt::Write as _;
    let mut src = String::new();
    let mut top = String::from("cell top() {\n");
    for (i, &(w, h, gap)) in cells.iter().enumerate() {
        writeln!(
            src,
            "cell c{i}() {{
                box metal (0, 0) ({w}, {h});
                box poly (0, {y0}) ({w}, {y1});
                box diff ({gap}, -6) ({gx}, -3);
             }}",
            y0 = h + 3,
            y1 = h + 6,
            gx = gap + 3,
        )
        .unwrap();
        let x = i as i64 * 60;
        if arrayed && i == 0 {
            writeln!(top, "array c{i}() at ({x}, 0) step (30, 0) count 2;").unwrap();
        } else {
            writeln!(top, "place c{i}() at ({x}, 0);").unwrap();
        }
    }
    top.push_str("}\nplace top() at (0, 0);");
    src.push_str(&top);
    src
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    /// Random program, random single-cell edit: compiling original then
    /// edited against one engine (so the edited compile is served partly
    /// from cache) yields byte-identical outputs to a cold compile of the
    /// edited program.
    #[test]
    fn warm_compile_of_an_edit_matches_cold_compile(
        dims in prop::collection::vec((4i64..20, 4i64..20, 0i64..8), 1..4),
        edit_cell in 0usize..4,
        delta in 1i64..5,
        arrayed in 0u8..2,
    ) {
        let original = program(&dims, arrayed == 1);
        let mut edited_dims = dims.clone();
        let idx = edit_cell % edited_dims.len();
        edited_dims[idx].0 += delta;
        let edited = program(&edited_dims, arrayed == 1);

        let mut cold_stats = JobStats::default();
        let cold = observe(&Engine::in_memory(), &edited, &mut cold_stats);

        let shared = Engine::in_memory();
        let mut prime_stats = JobStats::default();
        let _ = observe(&shared, &original, &mut prime_stats);
        let mut warm_stats = JobStats::default();
        let warm = observe(&shared, &edited, &mut warm_stats);

        prop_assert_eq!(warm, cold);
    }

    /// Recompiling the *same* random program warm must be all hits.
    #[test]
    fn unchanged_recompile_never_recomputes(
        dims in prop::collection::vec((4i64..20, 4i64..20, 0i64..8), 1..4),
    ) {
        let source = program(&dims, false);
        let engine = Engine::in_memory();
        let mut cold_stats = JobStats::default();
        let cold = observe(&engine, &source, &mut cold_stats);
        let mut warm_stats = JobStats::default();
        let warm = observe(&engine, &source, &mut warm_stats);
        prop_assert_eq!(warm, cold);
        prop_assert_eq!(warm_stats.misses, 0);
    }

    /// Eviction changes *when* the cache recomputes, never what it
    /// answers. One request stream replayed against an engine on a
    /// starvation-level budget (down to one entry, so eviction churns on
    /// every insert) must yield, at every step, exactly what a fresh
    /// engine that has cached nothing yields.
    #[test]
    fn outputs_are_identical_at_every_budget(
        dims in prop::collection::vec((4i64..20, 4i64..20, 0i64..8), 2..5),
        picks in prop::collection::vec(0usize..8, 4..16),
        mem_entries in 1usize..12,
    ) {
        let programs: Vec<String> = dims
            .iter()
            .map(|d| program(std::slice::from_ref(d), false))
            .collect();
        let evicting = Engine::new(EngineConfig {
            mem_entries,
            ..EngineConfig::default()
        })
        .expect("engine config cannot fail without a cache dir");
        for (step, &p) in picks.iter().enumerate() {
            let source = &programs[p % programs.len()];
            let mut stats = JobStats::default();
            let cached = observe(&evicting, source, &mut stats).map_err(TestCaseError::fail)?;
            let fresh = observe(&Engine::in_memory(), source, &mut stats)
                .map_err(TestCaseError::fail)?;
            prop_assert_eq!(cached, fresh, "step {} diverged from an uncached build", step);
        }
    }
}
