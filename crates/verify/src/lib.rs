//! `silc-verify`: combinational/sequential equivalence checking over
//! `silc-logic` cubes.
//!
//! The paper's trust argument — that a silicon compiler may go from
//! description to mask geometry without per-chip manual checking —
//! holds only if each translation instance can be *checked*. This crate
//! is that check: it lowers any two design representations the compiler
//! handles (minimized PLA personalities, synthesized control stores,
//! transistor netlists recovered by extraction) to one common form, the
//! cube [`Network`], and decides functional equivalence with a
//! three-tier engine (see [`check`]):
//!
//! 1. structural hashing merges identical subcones,
//! 2. 64-lane bit-packed random simulation refutes fast and yields
//!    concrete counterexamples,
//! 3. exact cube-cover containment — the same `cofactor`-until-tautology
//!    calculus that drives `minimize` — proves the survivors.
//!
//! No SAT solver, no new dependencies. Sequential equivalence of a
//! synthesized machine reduces to combinational equivalence of its
//! control store under the state-register correspondence: the
//! next-state and control outputs are checked as functions of (state
//! code, conditions), which is exactly what `silc_synth::control_table`
//! exposes.
//!
//! The three production checks (synth-vs-RTL, minimize-vs-table,
//! pnr-extract-back-vs-netlist) are wired and memoized in `silc-incr`
//! as `Stage::VERIFY`; this crate stays policy-free.
//!
//! # Example
//!
//! ```
//! use silc_logic::TruthTable;
//! use silc_trace::Tracer;
//! use silc_verify::{check_against_table_traced, Network, Options};
//!
//! let table = TruthTable::parse_pla(
//!     ".i 2\n.o 1\n.ilb a b\n.ob f\n11 1\n10 -\n.e\n",
//! )?;
//! // An implementation that resolves the don't-care high: f = a.
//! let on = table.on_cover(0)?; // build any cover you like
//! # let _ = on;
//! let f = silc_logic::Cover::from_cubes(2, vec![silc_logic::Cube::parse("1-")?])?;
//! let net = Network::from_covers(
//!     &["a".into(), "b".into()],
//!     &[("f".into(), f)],
//! )?;
//! let report = check_against_table_traced(&net, &table, &Options::default(), &Tracer::disabled())?;
//! assert!(report.equivalent);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod check;
mod netlist;
mod network;

pub use check::{check_against_table_traced, check_equivalence_traced, Options};
pub use netlist::network_from_netlist;
pub use network::{Network, NodeId};

use std::error::Error;
use std::fmt;

/// Error produced while building networks or deciding equivalence.
///
/// An *inequivalence verdict is not an error* — it is reported in
/// [`Report::mismatches`]. Errors mean the question itself was
/// malformed or too large to decide.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum VerifyError {
    /// The two sides do not expose the same input/output interface.
    InputMismatch {
        /// What differs.
        detail: String,
    },
    /// A network, cone or netlist was structurally invalid.
    Malformed {
        /// What is wrong.
        detail: String,
    },
    /// The construct is beyond the checker's model (e.g. feedback).
    Unsupported {
        /// What is unsupported.
        detail: String,
    },
    /// Exact flattening or path enumeration exceeded its size cap.
    TooLarge {
        /// Size reached.
        cubes: usize,
        /// The configured cap.
        cap: usize,
    },
    /// An underlying cube-calculus operation failed.
    Logic(silc_logic::LogicError),
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::InputMismatch { detail } => {
                write!(f, "interface mismatch: {detail}")
            }
            VerifyError::Malformed { detail } => write!(f, "malformed network: {detail}"),
            VerifyError::Unsupported { detail } => write!(f, "unsupported: {detail}"),
            VerifyError::TooLarge { cubes, cap } => {
                write!(f, "exact check too large: {cubes} cubes exceeds cap {cap}")
            }
            VerifyError::Logic(e) => write!(f, "logic error: {e}"),
        }
    }
}

impl Error for VerifyError {}

impl From<silc_logic::LogicError> for VerifyError {
    fn from(e: silc_logic::LogicError) -> VerifyError {
        VerifyError::Logic(e)
    }
}

/// The outcome of one equivalence check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Report {
    /// True when every output pair was proven equivalent.
    pub equivalent: bool,
    /// Output pairs examined.
    pub outputs: usize,
    /// Nodes merged by structural hashing.
    pub strash_merged: usize,
    /// Simulation rounds actually run.
    pub sim_rounds: usize,
    /// Output pairs refuted by simulation (each with a counterexample).
    pub sim_refuted: usize,
    /// Output pairs that needed the exact cover-containment tier.
    pub exact_decided: usize,
    /// Human-readable mismatch descriptions, sorted; empty iff
    /// [`Report::equivalent`].
    pub mismatches: Vec<String>,
}

impl Report {
    /// One-line summary, e.g.
    /// `equivalent: 4 outputs (2 strash-merged, 1 exact)`.
    pub fn summary(&self) -> String {
        let verdict = if self.equivalent {
            "equivalent"
        } else {
            "NOT equivalent"
        };
        format!(
            "{verdict}: {} outputs ({} strash-merged, {} sim-refuted, {} exact, {} rounds)",
            self.outputs, self.strash_merged, self.sim_refuted, self.exact_decided, self.sim_rounds
        )
    }
}

#[cfg(test)]
mod switch;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<VerifyError>();
        assert_send_sync::<Report>();
    }

    #[test]
    fn summary_mentions_verdict() {
        let r = Report {
            equivalent: false,
            outputs: 3,
            strash_merged: 1,
            sim_rounds: 2,
            sim_refuted: 1,
            exact_decided: 0,
            mismatches: vec!["output `f`: differs".into()],
        };
        assert!(r.summary().contains("NOT equivalent"));
        assert!(r.summary().contains("3 outputs"));
    }
}
