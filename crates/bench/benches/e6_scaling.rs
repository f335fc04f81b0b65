//! E6 — compilation scaling: compile, flatten, DRC and CIF times versus
//! design size.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use silc_bench::e6;
use silc_drc::{check, check_flat, check_flat_brute, RuleSet};
use silc_layout::flatten_to_rects;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let mut compile = c.benchmark_group("e6/compile");
    for n in [4usize, 8, 16, 32] {
        compile.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| e6::compile_design(black_box(n)))
        });
    }
    compile.finish();

    let mut cif = c.benchmark_group("e6/emit_cif");
    for n in [4usize, 8, 16, 32] {
        let design = e6::compile_design(n);
        cif.bench_with_input(BenchmarkId::from_parameter(n), &design, |b, d| {
            b.iter(|| e6::emit_cif(black_box(d)))
        });
    }
    cif.finish();

    let mut drc = c.benchmark_group("e6/drc");
    for n in [4usize, 8, 16] {
        let design = e6::compile_design(n);
        drc.bench_with_input(BenchmarkId::from_parameter(n), &design, |b, d| {
            b.iter(|| {
                check(black_box(&d.library), d.top, &RuleSet::mead_conway_nmos()).expect("root")
            })
        });
    }
    drc.finish();

    // Engine ablation: spatial-index vs all-pairs candidate enumeration.
    // Both produce byte-identical reports; only the time differs.
    let mut engine = c.benchmark_group("e6/drc_engine");
    for n in [8usize, 16, 32] {
        let design = e6::compile_design(n);
        let layers = flatten_to_rects(&design.library, design.top).expect("flattens");
        engine.bench_with_input(BenchmarkId::new("indexed", n), &layers, |b, l| {
            b.iter(|| check_flat(black_box(l), &RuleSet::mead_conway_nmos()))
        });
        // The oracle is quadratic; skip it at the largest size where a
        // single iteration already takes tens of seconds.
        if n <= 16 {
            engine.bench_with_input(BenchmarkId::new("brute", n), &layers, |b, l| {
                b.iter(|| check_flat_brute(black_box(l), &RuleSet::mead_conway_nmos()))
            });
        }
    }
    engine.finish();

    let rows = e6::run(&[2, 4, 8, 16, 32]);
    println!(
        "{}",
        silc_bench::render_table(
            "E6: compilation scaling",
            &["n", "flat elems", "cif bytes", "drc violations"],
            &e6::table(&rows),
        )
    );

    // Single-shot engine comparison incl. the brute oracle at full size,
    // with a machine-readable JSONL summary on stdout.
    let ablation_rows = e6::drc_ablation(&[8, 16, 32]);
    println!(
        "{}",
        silc_bench::render_table(
            "E6: DRC engine ablation (indexed vs brute)",
            &[
                "n",
                "rects",
                "bins",
                "queries",
                "indexed ms",
                "brute ms",
                "speedup"
            ],
            &e6::ablation_table(&ablation_rows),
        )
    );
    print!("{}", e6::ablation_json(&ablation_rows));

    // Incremental-engine payoff: the same design compiled cold then warm
    // through the silc-incr query cache (byte-identity asserted inside).
    let mut warm_cold = c.benchmark_group("e6/incr_warm_vs_cold");
    for n in [8usize, 16, 32] {
        let source = silc_bench::e2::shift_array(n);
        let engine = silc_incr::Engine::in_memory();
        let options = silc_incr::CompileOptions::default();
        let mut stats = silc_incr::JobStats::default();
        silc_incr::compile_sil(&engine, &source, &options, &mut stats).expect("cold compile");
        warm_cold.bench_with_input(BenchmarkId::new("warm", n), &source, |b, s| {
            b.iter(|| {
                let mut stats = silc_incr::JobStats::default();
                silc_incr::compile_sil(black_box(&engine), s, &options, &mut stats)
                    .expect("warm compile")
            })
        });
    }
    warm_cold.finish();

    let warm_cold_rows = e6::incr_warm_vs_cold(&[8, 16, 32]);
    println!(
        "{}",
        silc_bench::render_table(
            "E6: incremental engine, warm vs cold",
            &["n", "cold ms", "warm ms", "speedup", "warm misses"],
            &e6::warm_cold_table(&warm_cold_rows),
        )
    );
    print!("{}", e6::warm_cold_json(&warm_cold_rows));
}

criterion_group!(benches, bench);
criterion_main!(benches);
