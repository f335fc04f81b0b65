//! # silc-bench — the experiment harness
//!
//! One module per experiment in EXPERIMENTS.md. Each module exposes pure
//! functions that compute the experiment's table rows; `tests/experiments.rs`
//! asserts the paper's claims on them and `examples/experiments_report.rs`
//! prints the tables. Timing is the ledger's job
//! (`crates/bench/src/bin/ledger/`), not this crate's.

pub mod e1;
pub mod e2;
pub mod e3;
pub mod e4;
pub mod e5;
pub mod e6;
pub mod e7;
pub mod e8;

/// Renders a table of rows with a header.
pub fn render_table(title: &str, header: &[&str], rows: &[Vec<String>]) -> String {
    use std::fmt::Write as _;
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut s = String::new();
    let _ = writeln!(s, "== {title} ==");
    for (i, h) in header.iter().enumerate() {
        let _ = write!(s, "{:<w$}  ", h, w = widths[i]);
    }
    s.push('\n');
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            let w = widths.get(i).copied().unwrap_or(0);
            let _ = write!(s, "{:<w$}  ", cell, w = w);
        }
        s.push('\n');
    }
    s
}

#[cfg(test)]
mod tests {
    #[test]
    fn table_renders_aligned() {
        let s = super::render_table(
            "T",
            &["name", "value"],
            &[
                vec!["a".into(), "1".into()],
                vec!["long-name".into(), "2".into()],
            ],
        );
        assert!(s.contains("== T =="));
        assert!(s.contains("long-name"));
    }
}
