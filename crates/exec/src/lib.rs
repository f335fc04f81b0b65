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

/// The one simulation engine. A shim for the frozen ledger, which names
/// its cache-key tag; the product PR after ROADMAP's benchmark-only PR
/// drops it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimEngine {
    /// Bytecode execution via [`CompiledSim`].
    Compiled,
}

impl SimEngine {
    /// The tag the `sim` cache key has always carried: `0`.
    pub fn tag(self) -> u8 {
        0
    }
}
