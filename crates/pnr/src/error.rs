//! Place-and-route errors.
//!
//! Every variant carries enough context to act on — the net name, the
//! grid coordinate, the stack layer — because a routing failure on a
//! thousand-net floorplan is useless if it only says "unroutable".

use std::fmt;

/// Error produced by placement or routing.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PnrError {
    /// The netlist contains an instance kind the cell library cannot
    /// place.
    UnsupportedKind {
        /// The offending instance name.
        instance: String,
        /// Its kind.
        kind: String,
    },
    /// The floorplan has fewer cell sites than the netlist has
    /// instances.
    FloorplanTooSmall {
        /// Instances needing sites.
        cells: usize,
        /// Sites the floorplan offers.
        capacity: usize,
    },
    /// The router exhausted its rip-up budget without completing a net.
    Unroutable {
        /// The net that failed.
        net: String,
        /// How many pins the net has.
        pins: usize,
        /// Routing layer name where the final search gave up.
        layer: String,
        /// Track column of the last frontier node.
        col: i64,
        /// Track row of the last frontier node.
        row: i64,
        /// Rip-up rounds spent before giving up.
        ripups: u64,
    },
    /// The stack has no layer for a required direction.
    BadStack {
        /// The stack name.
        stack: String,
        /// What was missing.
        missing: &'static str,
    },
}

impl fmt::Display for PnrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PnrError::UnsupportedKind { instance, kind } => write!(
                f,
                "instance `{instance}` has kind `{kind}`; the cell library only places `enh` and `dep` transistors"
            ),
            PnrError::FloorplanTooSmall { cells, capacity } => write!(
                f,
                "floorplan has {capacity} cell sites but the netlist needs {cells}"
            ),
            PnrError::Unroutable {
                net,
                pins,
                layer,
                col,
                row,
                ripups,
            } => write!(
                f,
                "net `{net}` ({pins} pins) is unroutable: search gave up on layer {layer} near track ({col}, {row}) after {ripups} rip-up rounds"
            ),
            PnrError::BadStack { stack, missing } => {
                write!(f, "stack `{stack}` is unusable: {missing}")
            }
        }
    }
}

impl std::error::Error for PnrError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unroutable_message_names_net_track_and_layer() {
        let e = PnrError::Unroutable {
            net: "clk".to_string(),
            pins: 3,
            layer: "metal".to_string(),
            col: 4,
            row: 9,
            ripups: 6,
        };
        let msg = e.to_string();
        for needle in ["`clk`", "3 pins", "metal", "(4, 9)", "6 rip-up"] {
            assert!(msg.contains(needle), "`{needle}` missing from: {msg}");
        }
    }

    #[test]
    fn capacity_message_carries_both_counts() {
        let e = PnrError::FloorplanTooSmall {
            cells: 40,
            capacity: 36,
        };
        let msg = e.to_string();
        assert!(msg.contains("36") && msg.contains("40"), "{msg}");
    }
}
