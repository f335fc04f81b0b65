//! Prints every experiment table from EXPERIMENTS.md in one run — the
//! reproduction driver. Timings come from the ledger
//! (`crates/bench/src/bin/ledger/run.sh`); this binary reports the
//! structural results.
//!
//! Run with: `cargo run --release --example experiments_report`

use silc_bench::{e1, e2, e3, e4, e5, e6, e7, e8, render_table};

fn main() {
    let (rows, result) = e1::table();
    println!(
        "{}",
        render_table(
            "E1: PDP-8 chip count",
            &["module", "count", "packages"],
            &rows
        )
    );
    println!(
        "claim: {} / {} = {:.2} <= 1.50 -> {}\n",
        result.synthesized_packages,
        result.baseline_packages,
        result.ratio,
        if result.ratio <= 1.5 {
            "HOLDS"
        } else {
            "FAILS"
        }
    );

    let rows = e2::run(&[2, 4, 8, 16]);
    println!(
        "{}",
        render_table(
            "E2: structured description leverage",
            &["design", "n", "src lines", "flat elems", "leverage"],
            &e2::table(&rows),
        )
    );

    let rows = e3::run(&[4, 8, 16, 32]);
    println!(
        "{}",
        render_table(
            "E3: parameterised chip assembly",
            &["bits", "width", "height", "area", "wire", "tracks"],
            &e3::table(&rows),
        )
    );

    let rows = e4::run();
    println!(
        "{}",
        render_table(
            "E4: PLA programming",
            &[
                "function",
                "i/o",
                "raw",
                "exact",
                "heur",
                "area",
                "area ratio",
                "fold"
            ],
            &e4::table(&rows),
        )
    );

    let rows = e5::run();
    println!(
        "{}",
        render_table(
            "E5: behavioral vs structural cost",
            &["design", "auto A2", "hand A2", "space", "auto ns", "hand ns", "speed"],
            &e5::table(&rows),
        )
    );

    let rows = e6::run(&[2, 4, 8, 16, 32]);
    println!(
        "{}",
        render_table(
            "E6: compilation scaling",
            &[
                "n",
                "flat elems",
                "rects examined",
                "cif bytes",
                "drc violations"
            ],
            &e6::table(&rows),
        )
    );

    let rows = e7::run();
    println!(
        "{}",
        render_table(
            "E7: verification battery",
            &["check", "result", "detail"],
            &e7::table(&rows),
        )
    );

    let rows = e8::river_sweep(&[1, 2, 4, 8, 16]);
    println!(
        "{}",
        render_table(
            "E8a: river channel height vs interlock depth",
            &["chain", "tracks", "height", "wire"],
            &e8::river_table(&rows),
        )
    );
    let (rows, skipped) = e8::channel_sweep(&[2, 4, 8, 12, 16], 2024);
    println!(
        "{}",
        render_table(
            "E8b: channel tracks vs density (seeded random pins)",
            &["nets", "density", "tracks"],
            &e8::channel_table(&rows),
        )
    );
    println!("(cyclic instances re-rolled: {skipped})\n");
    println!("== E8c: placement quality (wire length, lambda) ==");
    println!("nets  aligned  scrambled");
    for nets in [4usize, 8, 16] {
        let p = e8::placement_comparison(nets, 7);
        println!("{:<4}  {:<7}  {}", p.nets, p.aligned_wire, p.scrambled_wire);
    }
}
