//! `silc-incr` — the content-addressed incremental compilation engine.
//!
//! The classic silicon-compiler pipeline (SIL source → layout → DRC →
//! CIF → extraction; ISL → simulation/synthesis) is re-expressed here as
//! *queries*: pure functions keyed by a 128-bit fingerprint of their
//! inputs. An [`Engine`] memoizes query answers in memory and,
//! optionally, in a versioned on-disk cache, so recompiling an unchanged
//! design touches no geometry at all and editing one cell recomputes
//! only the stages whose inputs actually changed (*early cutoff* — keys
//! chain through output fingerprints, not source text).
//!
//! The three layers, bottom up:
//!
//! - [`codec`]: the little-endian binary codec ([`Persist`]): a value
//!   is stored as its own fingerprint stream, so a type describes its
//!   bytes once and adds only a total, panic-free `decode`.
//! - [`disk`]: one self-describing file per entry — magic, format
//!   version, stage tag, key, length, payload, checksum. Any damage
//!   warns and degrades to a recompute; it can never break a build.
//! - [`engine`]: the memo table itself — one touch-on-hit LRU behind
//!   one lock, exact under its entry budget — shared by concurrent
//!   batch and serve workers, reporting `incr.*` counters through
//!   `silc-trace`.
//!
//! On top sit the [`pipeline`] stage queries, the [`ops`] table that
//! defines every operation once for all three front-ends, and the
//! [`batch`] driver that runs a whole manifest of jobs against one
//! shared cache.
//!
//! ```
//! use silc_incr::{compile_sil, CompileOptions, Engine, JobStats};
//!
//! let engine = Engine::in_memory();
//! let source = "cell a() { box metal (0,0) (8,4); } place a() at (0,0);";
//! let mut cold = JobStats::default();
//! compile_sil(&engine, source, &CompileOptions::default(), &mut cold).unwrap();
//! let mut warm = JobStats::default();
//! compile_sil(&engine, source, &CompileOptions::default(), &mut warm).unwrap();
//! assert_eq!(warm.misses, 0); // every stage served from cache
//! ```

pub mod batch;
pub mod codec;
pub mod disk;
pub mod engine;
pub mod ops;
mod persist;
pub mod pipeline;

pub use batch::{parse_manifest, run_batch, JobResult, JobSpec};
pub use codec::{Dec, DecodeError, Enc, Persist};
pub use disk::{DiskCache, FORMAT_VERSION};
pub use engine::{default_parallelism, Engine, EngineConfig, JobStats, Stage};
pub use ops::{Args, Front, Op, Outcome, Verb};
pub use pipeline::{
    cif_text, compile_sil, die_summary, drc_report, elaborate, extract_signature, pla_products,
    pnr_products, pnr_sil, sim_results, synth_allocation, verify_against, verify_isl, verify_pla,
    verify_sil, CompileOptions, CompileOutput, DieSummary, Elaborated, ExtractSnapshot,
    FlatSnapshot, PlaSnapshot, PnrSnapshot, SimSnapshot, SynthSnapshot, VerifySnapshot,
};
