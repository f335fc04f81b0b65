//! DRC engine ablation: spatial-index versus the all-pairs brute-force
//! oracle on the E6 shift-register arrays.
//!
//! ```text
//! cargo run --release -p silc-bench --example drc_ablation -- 8 16 32
//! ```
//!
//! Prints a human-readable table followed by one JSON object per row.

fn main() {
    let sizes: Vec<usize> = std::env::args()
        .skip(1)
        .map(|a| a.parse().unwrap_or_else(|_| panic!("bad size {a:?}")))
        .collect();
    let sizes = if sizes.is_empty() {
        vec![8, 16, 32]
    } else {
        sizes
    };
    let rows = silc_bench::e6::drc_ablation(&sizes);
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
            &silc_bench::e6::ablation_table(&rows),
        )
    );
    print!("{}", silc_bench::e6::ablation_json(&rows));
}
