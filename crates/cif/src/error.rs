use std::error::Error;
use std::fmt;

/// Error produced while writing or parsing CIF.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CifError {
    /// The requested root cell is not in the library.
    UnknownRoot,
    /// Unexpected end of input while parsing.
    UnexpectedEnd,
    /// A syntactic problem at a given byte offset.
    Syntax {
        /// Byte offset into the CIF text.
        offset: usize,
        /// Human-readable description.
        message: String,
    },
    /// A `C` call referred to a symbol number never defined.
    UndefinedSymbol {
        /// The dangling symbol number.
        symbol: u64,
    },
    /// Symbol definitions recurse, which CIF forbids.
    RecursiveSymbol {
        /// The symbol at fault.
        symbol: u64,
    },
    /// A rotation `R a b` was not one of the four Manhattan directions.
    NonManhattanRotation {
        /// Direction x component.
        a: i64,
        /// Direction y component.
        b: i64,
    },
    /// A scaled coordinate did not come out integral.
    InexactScale {
        /// The offending value before scaling.
        value: i64,
        /// Numerator of the scale factor.
        a: i64,
        /// Denominator of the scale factor.
        b: i64,
    },
    /// Geometry in the file was degenerate (empty box, bad polygon...).
    BadGeometry {
        /// Description of the defect.
        message: String,
    },
    /// The design holds more `C` calls than the writer emits.
    TooManyCalls {
        /// Calls the cells the design uses hold, one per array copy.
        calls: u64,
        /// The most the writer emits
        /// ([`MAX_FLAT_ELEMENTS`](silc_layout::MAX_FLAT_ELEMENTS)).
        limit: usize,
    },
}

impl fmt::Display for CifError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CifError::UnknownRoot => write!(f, "root cell is not in the library"),
            CifError::UnexpectedEnd => write!(f, "unexpected end of CIF text"),
            CifError::Syntax { offset, message } => {
                write!(f, "CIF syntax error at byte {offset}: {message}")
            }
            CifError::UndefinedSymbol { symbol } => {
                write!(f, "call of undefined symbol {symbol}")
            }
            CifError::RecursiveSymbol { symbol } => {
                write!(f, "symbol {symbol} is defined recursively")
            }
            CifError::NonManhattanRotation { a, b } => {
                write!(f, "rotation ({a}, {b}) is not a multiple of 90 degrees")
            }
            CifError::InexactScale { value, a, b } => {
                write!(
                    f,
                    "coordinate {value} times scale {a}/{b} is not an integer"
                )
            }
            CifError::BadGeometry { message } => write!(f, "bad geometry: {message}"),
            CifError::TooManyCalls { calls, limit } => {
                write!(
                    f,
                    "design writes {calls} cell calls; at most {limit} can be written"
                )
            }
        }
    }
}

impl Error for CifError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_carry_detail() {
        let e = CifError::UndefinedSymbol { symbol: 42 };
        assert!(e.to_string().contains("42"));
        let e = CifError::Syntax {
            offset: 17,
            message: "bad box".into(),
        };
        assert!(e.to_string().contains("17"));
        assert!(e.to_string().contains("bad box"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CifError>();
    }
}
