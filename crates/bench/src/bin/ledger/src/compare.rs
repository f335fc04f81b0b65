//! `ledger --compare a.json b.json`: two result files of the all-workload
//! run, metric by metric, against the bounds in `BENCHMARK.json`.

use crate::json::Json;

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("`{path}`: {e}"))?;
    Json::parse(&text).map_err(|e| format!("`{path}`: {e}"))
}

/// The value of end-to-end metric `metric` on `workload` in `document`.
fn value_of(document: &Json, workload: &str, metric: &str) -> Option<f64> {
    document
        .get("workloads")?
        .as_array()
        .iter()
        .find(|w| w.get("name").and_then(Json::as_str) == Some(workload))?
        .get("end_to_end")?
        .get(metric)?
        .get("value")?
        .as_f64()
}

/// By how much `b` is worse than `a`, as a share of `a`; negative when
/// it is better.
pub fn worsening(a: f64, b: f64, lower_is_better: bool) -> f64 {
    if lower_is_better {
        (b - a) / a
    } else {
        (a - b) / a
    }
}

/// Prints both values, the relative difference and the bound of every
/// workload and end-to-end metric. `Ok(false)` when `b` is worse than
/// `a` beyond a bound or either file lacks a declared metric.
pub fn run(a_path: &str, b_path: &str, benchmark_path: &str) -> Result<bool, String> {
    let (a, b, benchmark) = (load(a_path)?, load(b_path)?, load(benchmark_path)?);
    let mut within = true;
    println!(
        "{:<12} {:<12} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "a", "b", "worse by", "bound"
    );
    for workload in benchmark.get("workloads").map_or(&[][..], Json::as_array) {
        let workload = workload
            .get("name")
            .and_then(Json::as_str)
            .ok_or("workload without a name")?;
        for m in benchmark.get("end_to_end").map_or(&[][..], Json::as_array) {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without a name")?;
            let bound = m
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or("metric without a bound")?;
            let lower = m.get("better").and_then(Json::as_str) == Some("lower");
            match (value_of(&a, workload, name), value_of(&b, workload, name)) {
                (Some(x), Some(y)) => {
                    let worse = worsening(x, y, lower);
                    let verdict = if worse > bound { "  EXCEEDED" } else { "" };
                    within &= worse <= bound;
                    println!(
                        "{workload:<12} {name:<12} {x:>14.4} {y:>14.4} {:>8.1}% {:>6.0}%{verdict}",
                        worse * 100.0,
                        bound * 100.0
                    );
                }
                _ => {
                    within = false;
                    println!("{workload:<12} {name:<12} MISSING");
                }
            }
        }
    }
    Ok(within)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worse_is_positive_whichever_way_is_better() {
        assert!((worsening(10.0, 11.0, true) - 0.1).abs() < 1e-12);
        assert!((worsening(10.0, 9.0, true) + 0.1).abs() < 1e-12);
        assert!((worsening(100.0, 90.0, false) - 0.1).abs() < 1e-12);
        assert!(worsening(100.0, 120.0, false) < 0.0);
    }

    #[test]
    fn values_are_found_by_workload_and_metric() {
        let doc = Json::parse(
            r#"{"workloads":[{"name":"w","end_to_end":{"op_best_ms":{"value":2.5,"unit":"ms"}}}]}"#,
        )
        .unwrap();
        assert_eq!(value_of(&doc, "w", "op_best_ms"), Some(2.5));
        assert_eq!(value_of(&doc, "w", "setup_s"), None);
        assert_eq!(value_of(&doc, "x", "op_best_ms"), None);
    }
}
