use std::error::Error;
use std::fmt;

/// Error produced by ISL parsing, validation or simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RtlError {
    /// Lexical or syntactic problem.
    Syntax {
        /// 1-based line.
        line: usize,
        /// 1-based column.
        col: usize,
        /// Description.
        message: String,
    },
    /// A name was used but never declared.
    Undeclared {
        /// The name.
        name: String,
    },
    /// A name was declared twice.
    Redeclared {
        /// The name.
        name: String,
    },
    /// A bit-slice fell outside the signal's declared width.
    SliceOutOfRange {
        /// Signal name.
        name: String,
        /// Requested high bit.
        hi: u32,
        /// Requested low bit.
        lo: u32,
        /// Declared width.
        width: u32,
    },
    /// A declared width was zero or above 64.
    BadWidth {
        /// Signal name.
        name: String,
        /// Requested width.
        width: u64,
    },
    /// A `goto` named a state that does not exist.
    UnknownState {
        /// The target name.
        name: String,
    },
    /// Assignment to an input port or other non-writable object.
    NotWritable {
        /// The name assigned to.
        name: String,
    },
    /// Expression used a memory name without indexing (or vice versa).
    MemoryMisuse {
        /// The name.
        name: String,
    },
    /// A memory with no words, or one that takes the machine's memories
    /// past [`MAX_MEM_WORDS`](crate::MAX_MEM_WORDS) words in all.
    MemoryWords {
        /// Memory name.
        name: String,
        /// Its declared number of words.
        words: u64,
    },
    /// A machine with no states cannot run.
    NoStates,
    /// Simulation read or wrote outside a memory's bounds.
    AddressOutOfRange {
        /// Memory name.
        name: String,
        /// The offending address.
        addr: u64,
        /// Number of words.
        words: u64,
    },
}

impl fmt::Display for RtlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RtlError::Syntax { line, col, message } => {
                write!(f, "syntax error at {line}:{col}: {message}")
            }
            RtlError::Undeclared { name } => write!(f, "`{name}` is not declared"),
            RtlError::Redeclared { name } => write!(f, "`{name}` is declared twice"),
            RtlError::SliceOutOfRange {
                name,
                hi,
                lo,
                width,
            } => write!(f, "slice [{hi}:{lo}] of `{name}` exceeds its width {width}"),
            RtlError::BadWidth { name, width } => {
                write!(f, "`{name}` has unusable width {width} (must be 1..=64)")
            }
            RtlError::UnknownState { name } => write!(f, "goto of unknown state `{name}`"),
            RtlError::NotWritable { name } => write!(f, "`{name}` cannot be assigned"),
            RtlError::MemoryMisuse { name } => {
                write!(f, "memory `{name}` must be used with an index")
            }
            RtlError::MemoryWords { name, words: 0 } => {
                write!(f, "memory `{name}` has zero words")
            }
            RtlError::MemoryWords { name, words } => write!(
                f,
                "memory `{name}` of {words} words takes the machine past {} memory words",
                crate::MAX_MEM_WORDS
            ),
            RtlError::NoStates => write!(f, "machine has no states"),
            RtlError::AddressOutOfRange { name, addr, words } => {
                write!(f, "address {addr} outside `{name}` ({words} words)")
            }
        }
    }
}

impl Error for RtlError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_names() {
        let e = RtlError::Undeclared { name: "pc".into() };
        assert!(e.to_string().contains("pc"));
        let e = RtlError::Syntax {
            line: 3,
            col: 7,
            message: "expected `;`".into(),
        };
        assert!(e.to_string().contains("3:7"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<RtlError>();
    }
}
