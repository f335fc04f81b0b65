//! E1 — the PDP-8 chip-count claim: "a chip count within 50% of a
//! commercial design" for a machine compiled from its ISP description.

use silc_pdp8::{baseline_packages, commercial_baseline, isp_machine};
use silc_synth::{synthesize, Allocation, Sharing, SynthOptions};

/// The E1 result: automatic vs hand package counts and their ratio.
#[derive(Debug, Clone)]
pub struct PdpComparison {
    /// Packages used by the synthesized (shared-allocation) design.
    pub synthesized_packages: u64,
    /// Packages used by the per-operation (unshared) design.
    pub per_operation_packages: u64,
    /// Packages of the hand-designed baseline.
    pub baseline_packages: u64,
    /// synthesized / baseline — the paper's claim is `<= 1.5`.
    pub ratio: f64,
    /// Full allocation, for the per-kind breakdown.
    pub allocation: Allocation,
}

/// Runs the PDP-8 synthesis comparison.
///
/// # Panics
///
/// Panics if the built-in ISP source fails to parse (a bug, covered by
/// unit tests).
pub fn run() -> PdpComparison {
    let machine = isp_machine().expect("built-in ISP source parses");
    let shared = synthesize(
        &machine,
        &SynthOptions {
            sharing: Sharing::Shared,
        },
    );
    let per_op = synthesize(
        &machine,
        &SynthOptions {
            sharing: Sharing::PerOperation,
        },
    );
    let baseline = baseline_packages();
    PdpComparison {
        synthesized_packages: shared.estimate.packages,
        per_operation_packages: per_op.estimate.packages,
        baseline_packages: baseline,
        ratio: shared.estimate.package_ratio(baseline),
        allocation: shared,
    }
}

/// Table rows: one per module kind of the hand design and the
/// synthesized design, plus totals.
pub fn table() -> (Vec<Vec<String>>, PdpComparison) {
    let result = run();
    let mut rows: Vec<Vec<String>> = Vec::new();
    for (kind, pkgs) in &result.allocation.estimate.packages_by_kind {
        rows.push(vec![
            kind.clone(),
            result.allocation.estimate.count_by_kind[kind].to_string(),
            pkgs.to_string(),
        ]);
    }
    let baseline_by_kind: std::collections::BTreeMap<&str, u64> = {
        let mut m = std::collections::BTreeMap::new();
        for c in commercial_baseline() {
            *m.entry(c.kind_name()).or_insert(0) += c.packages();
        }
        m
    };
    rows.push(vec!["--- totals ---".into(), String::new(), String::new()]);
    rows.push(vec![
        "synthesized".into(),
        String::new(),
        result.synthesized_packages.to_string(),
    ]);
    rows.push(vec![
        "unshared".into(),
        String::new(),
        result.per_operation_packages.to_string(),
    ]);
    rows.push(vec![
        "hand baseline".into(),
        format!("{} kinds", baseline_by_kind.len()),
        result.baseline_packages.to_string(),
    ]);
    rows.push(vec![
        "ratio".into(),
        String::new(),
        format!("{:.2}", result.ratio),
    ]);
    (rows, result)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn headline_claim_holds() {
        let r = run();
        assert!(r.ratio <= 1.5, "ratio {:.2} breaks the 50% claim", r.ratio);
        assert!(r.ratio >= 1.0, "automatic should not beat the hand design");
        assert!(r.per_operation_packages >= r.synthesized_packages);
    }

    #[test]
    fn table_has_totals() {
        let (rows, _) = table();
        assert!(rows.iter().any(|r| r[0] == "ratio"));
    }
}
