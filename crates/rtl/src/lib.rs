//! # silc-rtl — an ISP-like behavioral description language
//!
//! The paper's second definition of silicon compilation "takes a
//! behavioral description of a system and maps it onto a physical
//! structure", citing the ISPS computer-description language (reference
//! \[4\]) and the ISP-compiled PDP-8 of reference \[6\]. This crate is
//! that behavioral front end: **ISL**, a small ISP-like register-transfer
//! language, with
//!
//! * a lexer/parser ([`parse`]) producing a typed AST ([`Machine`]),
//! * a validation pass (undeclared names, slice bounds, width abuse,
//!   dangling `goto`s are all compile-time errors), and
//! * a cycle-accurate simulator ([`Simulator`]) — the "verification by
//!   simulation" role the paper assigns to behavioral descriptions.
//!
//! ## Language
//!
//! ```text
//! machine counter {
//!     reg count[8];
//!     port output out[8];
//!
//!     state run {
//!         count := count + 1;
//!         out := count;
//!         if count == 10 { halt; }
//!     }
//! }
//! ```
//!
//! Semantics: one *state* executes per cycle. All register transfers in a
//! state read the **pre-cycle** values and commit together at the end of
//! the cycle (synchronous RT semantics). `goto` selects the next state
//! (default: stay); `halt` stops the machine. Values are bit-vectors up to
//! 64 bits; arithmetic wraps to the target width. Sized literals use
//! Verilog-style `12'o7777` notation.
//!
//! # Example
//!
//! ```
//! use silc_rtl::{parse, Simulator};
//!
//! let m = parse("
//!     machine counter {
//!         reg count[8];
//!         state run { count := count + 1; if count == 3 { halt; } }
//!     }
//! ")?;
//! let mut sim = Simulator::new(&m);
//! let report = sim.run(100)?;
//! assert!(report.halted);
//! assert_eq!(sim.reg("count").unwrap(), 4);
//! # Ok::<(), silc_rtl::RtlError>(())
//! ```

mod ast;
mod error;
mod fp;
mod lexer;
mod parser;
mod sim;

pub use ast::{BinaryOp, Expr, Machine, MemDecl, PortDecl, RegDecl, State, Stmt, Target, UnaryOp};
pub use error::RtlError;
pub use parser::{parse, MAX_MEM_WORDS};
pub use sim::{RunReport, Simulator};
