//! # silc-exec — compiled-code simulation
//!
//! The paper sells behavioral descriptions on "verification by
//! simulation", and simulation is the hottest verb the pipeline serves —
//! so this crate removes the tree-walking tax. An elaborated ISL
//! [`Machine`](silc_rtl::Machine) is [`compile`]d once into a compact
//! register-based bytecode: constant-folded, value-numbered,
//! dead-code-eliminated, fused (compare-and-branch, compute-into-store)
//! and levelized so each cycle's combinational logic runs as a handful
//! of ops over one flat `Vec<u64>` frame. The commit notes whether any
//! state element actually changed; once a cycle changes nothing the
//! rest are provably the same no-op and are skipped — sparse activity
//! costs nothing, dense activity runs at bytecode speed.
//!
//! [`CompiledSim`] mirrors [`silc_rtl::Simulator`]'s API and observable
//! behavior *byte for byte* — same `RunReport`s, same register/output/
//! memory reads, same errors on the same cycle — and the interpreter
//! stays on as the randomized-equivalence oracle (see the crate's
//! proptests).
//!
//! # Example
//!
//! ```
//! use silc_exec::{compile, CompiledSim};
//! use silc_rtl::{parse, Simulator};
//!
//! let m = parse("
//!     machine counter {
//!         reg count[8];
//!         state run { count := count + 1; if count == 3 { halt; } }
//!     }
//! ")?;
//! let compiled = compile(&m);
//! let mut fast = CompiledSim::new(&compiled);
//! let mut slow = Simulator::new(&m);
//! assert_eq!(fast.run(100)?, slow.run(100)?);
//! assert_eq!(fast.reg("count"), slow.reg("count"));
//! # Ok::<(), silc_rtl::RtlError>(())
//! ```

mod bytecode;
mod compile;
mod run;

pub use bytecode::{CompileStats, CompiledMachine};
pub use compile::compile;
pub use run::CompiledSim;

use std::fmt;
use std::str::FromStr;

/// Which simulation engine services a `sim` request. The compiled
/// engine is the default everywhere; the interpreter remains available
/// as the oracle and for debugging.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SimEngine {
    /// Bytecode execution via [`CompiledSim`].
    #[default]
    Compiled,
    /// Tree-walking interpretation via [`silc_rtl::Simulator`].
    Interp,
}

impl SimEngine {
    /// Stable tag for fingerprint keying (cache entries must not alias
    /// across engines).
    pub fn tag(self) -> u8 {
        match self {
            SimEngine::Compiled => 0,
            SimEngine::Interp => 1,
        }
    }

    /// The canonical names, as accepted by `--engine`.
    pub const NAMES: &'static str = "`compiled` or `interp`";
}

impl fmt::Display for SimEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SimEngine::Compiled => "compiled",
            SimEngine::Interp => "interp",
        })
    }
}

impl FromStr for SimEngine {
    type Err = String;

    fn from_str(s: &str) -> Result<SimEngine, String> {
        match s {
            "compiled" => Ok(SimEngine::Compiled),
            "interp" => Ok(SimEngine::Interp),
            other => Err(format!("unknown engine `{other}` (use {})", Self::NAMES)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_names_round_trip() {
        for e in [SimEngine::Compiled, SimEngine::Interp] {
            assert_eq!(e.to_string().parse::<SimEngine>(), Ok(e));
        }
        assert!("fast".parse::<SimEngine>().unwrap_err().contains("fast"));
        assert_eq!(SimEngine::default(), SimEngine::Compiled);
        assert_ne!(SimEngine::Compiled.tag(), SimEngine::Interp.tag());
    }
}
