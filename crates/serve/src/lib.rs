//! # silc-serve — the compile server
//!
//! Gray's paper pitches silicon compilation as a *programming
//! environment*: designers iterate against a long-lived service, not a
//! cold process per edit. This crate is that service. `silc serve`
//! keeps ONE [`silc_incr::Engine`] warm — its in-memory store and
//! optional disk cache shared by every client — and speaks a
//! line-oriented protocol cheap enough for editors, build systems and
//! `nc` alike: one JSON object per request line, one per response line
//! (see [`protocol`]).
//!
//! The interesting engineering is not the happy path but the failure
//! envelope, and each failure has a first-class answer on the wire:
//!
//! | condition | response |
//! |---|---|
//! | compute queue full | `{"ok":false,"error":"overloaded",...}` |
//! | deadline exceeded | `{"ok":false,"error":"timeout",...}` |
//! | unparseable line | `{"ok":false,"error":"bad_request",...}` |
//! | pipeline failure | `{"ok":false,"error":"error","detail":"<stage>: ..."}` |
//!
//! A `compile` response's `cif` field is byte-identical to what
//! `silc compile` prints on stdout for the same source — the server is
//! a transport, never a different compiler.
//!
//! See [`server`] for the threading model and shutdown semantics.

pub mod json;
pub mod protocol;
pub mod server;

pub use json::Json;
pub use protocol::{parse_request, Envelope, Priority, Request};
pub use server::{install_sigint_handler, Server, ServerConfig, ShutdownHandle, MAX_REQUEST_BYTES};
