//! # silc-route — wiring management
//!
//! "Concentration on the important wiring management problems of large
//! designs" — the paper puts interconnect at the centre of the complexity
//! problem. This crate supplies the three wiring tools a silicon compiler
//! needs:
//!
//! * [`river_route`] — single-layer planar routing across a channel whose
//!   two sides present nets in the same order. Used for cell abutment,
//!   the composition style Mead–Conway design favours. Produces minimum
//!   track counts for chained displacements and exact channel height.
//! * [`channel_route`] — the classic left-edge channel router with a
//!   vertical constraint graph: two-layer (metal trunks, poly branches),
//!   multi-pin nets, cycle detection (no doglegs — cycles are reported,
//!   the historical limitation).
//! * [`stack_assemble`] — the chip assembler of experiment E3: stacks
//!   cells bottom-to-top, river-routing between matching port names of
//!   facing edges, and reports area and wire-length statistics.
//!
//! # Example
//!
//! ```
//! use silc_route::river_route;
//!
//! // Three well-separated nets shifting right by 8 lambda.
//! let route = river_route(&[0, 20, 40], &[8, 28, 48], 4)?;
//! assert_eq!(route.tracks, 1); // parallel shifts share one track
//! # Ok::<(), silc_route::RouteError>(())
//! ```

mod assemble;
mod channel;
mod error;
mod river;

pub use assemble::{stack_assemble, AssemblyStats, Slice};
pub use channel::{channel_density, channel_route, ChannelProblem, ChannelRoute, NetId};
pub use error::RouteError;
pub use river::{paths_cross, river_route, RiverRoute};
