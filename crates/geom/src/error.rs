use crate::Point;
use std::error::Error;
use std::fmt;

/// Error produced when constructing or manipulating geometric objects.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum GeomError {
    /// A rectangle was given zero or negative extent on some axis.
    EmptyRect {
        /// Requested width (may be zero or negative).
        width: i64,
        /// Requested height (may be zero or negative).
        height: i64,
    },
    /// A polygon had fewer than three vertices.
    DegeneratePolygon {
        /// Number of vertices supplied.
        vertices: usize,
    },
    /// A polygon's edges intersect each other (it is not simple).
    SelfIntersectingPolygon,
    /// A path had no points, or a non-positive width.
    DegeneratePath {
        /// Number of centre-line points supplied.
        points: usize,
        /// Requested wire width.
        width: i64,
    },
    /// A wire segment or a polygon edge is neither horizontal nor
    /// vertical.
    NotManhattan {
        /// Where the segment starts.
        from: Point,
        /// Where it ends.
        to: Point,
    },
}

impl fmt::Display for GeomError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GeomError::EmptyRect { width, height } => {
                write!(f, "rectangle has empty extent ({width} x {height})")
            }
            GeomError::DegeneratePolygon { vertices } => {
                write!(f, "polygon needs at least 3 vertices, got {vertices}")
            }
            GeomError::SelfIntersectingPolygon => {
                write!(f, "polygon edges intersect each other")
            }
            GeomError::DegeneratePath { points, width } => {
                write!(f, "path is degenerate ({points} points, width {width})")
            }
            GeomError::NotManhattan { from, to } => {
                write!(f, "edge {from} -> {to} is neither horizontal nor vertical")
            }
        }
    }
}

impl GeomError {
    /// `Ok` when the segment `from -> to` is horizontal or vertical.
    pub(crate) fn manhattan(from: Point, to: Point) -> Result<(), GeomError> {
        if (to - from).is_axis_aligned() {
            Ok(())
        } else {
            Err(GeomError::NotManhattan { from, to })
        }
    }
}

impl Error for GeomError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_lowercase() {
        let errs = [
            GeomError::EmptyRect {
                width: 0,
                height: 3,
            },
            GeomError::DegeneratePolygon { vertices: 2 },
            GeomError::SelfIntersectingPolygon,
            GeomError::DegeneratePath {
                points: 0,
                width: 2,
            },
            GeomError::NotManhattan {
                from: Point::new(0, 0),
                to: Point::new(1, 1),
            },
        ];
        for e in errs {
            let s = e.to_string();
            assert!(!s.is_empty());
            assert!(s.chars().next().unwrap().is_lowercase());
            assert!(!s.ends_with('.'));
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<GeomError>();
    }
}
