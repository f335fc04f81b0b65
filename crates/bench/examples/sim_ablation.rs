//! Simulation engine ablation: the compiled bytecode engine versus the
//! interpreter on the PDP-8 ISP description running a busy loop.
//!
//! ```text
//! cargo run --release -p silc-bench --example sim_ablation -- 10000 100000
//! ```
//!
//! Prints a human-readable table followed by one JSON object per row.
//! Every row is an equivalence witness (registers, core, state and run
//! report byte-identical) before it is a timing. Exits non-zero if the
//! largest budget does not show at least a 10x compiled speedup.

fn main() {
    let budgets: Vec<u64> = std::env::args()
        .skip(1)
        .map(|a| a.parse().unwrap_or_else(|_| panic!("bad budget {a:?}")))
        .collect();
    let budgets = if budgets.is_empty() {
        vec![10_000, 100_000]
    } else {
        budgets
    };
    let rows = silc_bench::e1::sim_ablation(&budgets);
    println!(
        "{}",
        silc_bench::render_table(
            "E1: PDP-8 simulation, compiled vs interpreted",
            &["cycles", "interp ms", "compiled ms", "speedup"],
            &silc_bench::e1::sim_table(&rows),
        )
    );
    print!("{}", silc_bench::e1::sim_json(&rows));

    // The acceptance bar only means anything on optimized builds.
    if cfg!(debug_assertions) {
        eprintln!("debug build: skipping the 10x speedup check");
        return;
    }
    let last = rows.last().expect("at least one budget");
    if last.speedup < 10.0 {
        eprintln!(
            "FAIL: compiled engine is only {:.1}x faster at {} cycles (need >= 10x)",
            last.speedup, last.cycles
        );
        std::process::exit(1);
    }
}
