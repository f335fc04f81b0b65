use crate::CellId;
use std::error::Error;
use std::fmt;

/// Error produced by layout-database operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum LayoutError {
    /// A cell name was already taken in the library.
    DuplicateCellName {
        /// The offending name.
        name: String,
    },
    /// A referenced cell id does not exist in the library.
    UnknownCell {
        /// The dangling id.
        id: CellId,
    },
    /// Adding the instance would make the hierarchy cyclic.
    RecursiveInstance {
        /// The cell the instance was being added to.
        parent: CellId,
        /// The cell the instance refers to.
        child: CellId,
    },
    /// Array replication counts must be at least 1.
    BadArray {
        /// Requested columns.
        cols: u32,
        /// Requested rows.
        rows: u32,
    },
    /// The design expands to more elements than flattening takes.
    TooLarge {
        /// Elements the design expands to.
        elements: u64,
        /// The most that flattening takes
        /// ([`MAX_FLAT_ELEMENTS`](crate::MAX_FLAT_ELEMENTS)).
        limit: usize,
    },
}

impl fmt::Display for LayoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LayoutError::DuplicateCellName { name } => {
                write!(f, "cell name `{name}` is already defined")
            }
            LayoutError::UnknownCell { id } => write!(f, "unknown cell id {id:?}"),
            LayoutError::RecursiveInstance { parent, child } => write!(
                f,
                "placing {child:?} inside {parent:?} would create a cycle"
            ),
            LayoutError::BadArray { cols, rows } => {
                write!(f, "array replication must be >= 1, got {cols} x {rows}")
            }
            LayoutError::TooLarge { elements, limit } => write!(
                f,
                "design expands to {elements} elements; at most {limit} can be flattened"
            ),
        }
    }
}

impl Error for LayoutError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_mention_specifics() {
        let e = LayoutError::DuplicateCellName { name: "inv".into() };
        assert!(e.to_string().contains("inv"));
        let e = LayoutError::BadArray { cols: 0, rows: 3 };
        assert!(e.to_string().contains('0'));
        let e = LayoutError::TooLarge {
            elements: 10_000_000_000,
            limit: 1 << 22,
        };
        assert!(e.to_string().contains("10000000000") && e.to_string().contains("4194304"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<LayoutError>();
    }
}
