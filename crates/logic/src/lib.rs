//! # silc-logic — two-level logic for regular-block programming
//!
//! The paper's key observation about regular blocks — "memories and PLAs
//! are *programmed* for specific functions" — needs a logic substrate: a
//! representation for two-level (AND-OR) logic and minimizers to keep the
//! programmed planes small. This crate provides:
//!
//! * [`Cube`] and [`Cover`] — the cube calculus: cofactors, tautology
//!   checking, containment, single-cube containment. A cube is
//!   positional-cube notation — two bit-planes, *may be 0* and *may be
//!   1*, in machine words, inline up to 64 inputs and the same word slice
//!   boxed beyond — so intersection, supercube and containment are AND,
//!   OR and a mask test; column `i` of the text form is input `i` is bit
//!   `n-1-i` of a minterm.
//! * [`Scratch`] — the one stack of words every containment question
//!   (`cofactor` until tautology, with the unate and minterm-count
//!   shortcuts) runs on; keep one across many questions. The answers
//!   depend on the functions alone (DESIGN.md §17).
//! * [`TruthTable`] — multi-output function specifications, with a reader
//!   and writer for the Berkeley/espresso PLA text format.
//! * [`minimize_exact`] — Quine–McCluskey prime generation plus
//!   branch-and-bound covering (minimum cube count, for small inputs).
//! * [`minimize_heuristic`] — an espresso-style EXPAND/IRREDUNDANT loop
//!   that scales to larger functions.
//! * [`functions`] — the benchmark functions experiments E4/E5 sweep
//!   (majority, parity, decoders, BCD-to-seven-segment, adder slices, the
//!   traffic-light controller FSM).
//!
//! # Example
//!
//! ```
//! use silc_logic::{Cover, Cube, minimize_exact};
//!
//! // f = a'b + ab + ab'  minimizes to  a + b.
//! let cover = Cover::from_cubes(2, vec![
//!     Cube::parse("01")?, Cube::parse("11")?, Cube::parse("10")?,
//! ])?;
//! let min = minimize_exact(&cover, &Cover::empty(2))?;
//! assert_eq!(min.len(), 2);
//! # Ok::<(), silc_logic::LogicError>(())
//! ```

mod cover;
mod cube;
mod error;
pub mod functions;
mod minimize;
mod truth_table;

pub use cover::{Cover, Scratch};
pub use cube::{Cube, Lit};
pub use error::LogicError;
pub use minimize::{minimize_exact, minimize_heuristic, prime_implicants};
pub use truth_table::{OutBit, TruthTable};
