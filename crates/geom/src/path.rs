use crate::{Coord, GeomError, Point, Rect, Transform};
use std::fmt;

/// A wire: a centre-line point sequence swept with a square pen of a given
/// width (the semantics of the CIF `W` command). Every segment is
/// horizontal or vertical, so [`Path::to_rects`] is exactly the wire's
/// mask.
///
/// Paths are how routers talk about interconnect before it is decomposed
/// into boxes for mask making.
///
/// # Example
///
/// ```
/// use silc_geom::{Path, Point};
/// # fn main() -> Result<(), silc_geom::GeomError> {
/// let wire = Path::new(2, vec![Point::new(0, 0), Point::new(10, 0), Point::new(10, 8)])?;
/// assert_eq!(wire.length(), 18);
/// let rects = wire.to_rects();
/// assert_eq!(rects.len(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Path {
    width: Coord,
    points: Vec<Point>,
}

impl Path {
    /// Creates a wire of `width` through `points`.
    ///
    /// # Errors
    ///
    /// * [`GeomError::DegeneratePath`] — `points` is empty, the width is
    ///   not strictly positive, or two consecutive points coincide.
    /// * [`GeomError::NotManhattan`] — a segment is neither horizontal nor
    ///   vertical.
    pub fn new(width: Coord, points: Vec<Point>) -> Result<Path, GeomError> {
        let degenerate = GeomError::DegeneratePath {
            points: points.len(),
            width,
        };
        if points.is_empty() || width <= 0 {
            return Err(degenerate);
        }
        for w in points.windows(2) {
            if w[0] == w[1] {
                return Err(degenerate);
            }
            GeomError::manhattan(w[0], w[1])?;
        }
        Ok(Path { width, points })
    }

    /// Pen width.
    pub const fn width(&self) -> Coord {
        self.width
    }

    /// Centre-line points.
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// Total centre-line length.
    pub fn length(&self) -> Coord {
        self.points
            .windows(2)
            .map(|w| w[0].manhattan_distance(w[1]))
            .sum()
    }

    /// Bounding box of the swept wire, including the half-width flange on
    /// all sides (CIF pens extend beyond endpoints).
    pub fn bbox(&self) -> Rect {
        let mut min = self.points[0];
        let mut max = self.points[0];
        for &p in &self.points[1..] {
            min = min.min(p);
            max = max.max(p);
        }
        let h = self.width / 2;
        let extra = self.width - h; // handles odd widths: h + extra == width
        Rect::new(
            Point::new(min.x - h, min.y - h),
            Point::new(max.x + extra, max.y + extra),
        )
        .expect("wire of positive width has non-empty bbox")
    }

    /// Decomposes the path into one rectangle per segment, each widened by
    /// half the pen width and extended by half the pen width at both ends
    /// (square-pen semantics, so corners are covered).
    pub fn to_rects(&self) -> Vec<Rect> {
        let h = self.width / 2;
        let extra = self.width - h;
        if self.points.len() == 1 {
            // A single point swept by the pen: one square.
            let p = self.points[0];
            return vec![Rect::new(
                Point::new(p.x - h, p.y - h),
                Point::new(p.x + extra, p.y + extra),
            )
            .expect("positive width")];
        }
        self.points
            .windows(2)
            .map(|w| {
                let (a, b) = (w[0].min(w[1]), w[0].max(w[1]));
                Rect::new(
                    Point::new(a.x - h, a.y - h),
                    Point::new(b.x + extra, b.y + extra),
                )
                .expect("segment swept by positive pen is non-empty")
            })
            .collect()
    }

    /// Returns the path mapped through `t`.
    pub fn transform(&self, t: Transform) -> Path {
        Path {
            width: self.width,
            points: self.points.iter().map(|&p| t.apply(p)).collect(),
        }
    }
}

impl fmt::Display for Path {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "wire(w={})[", self.width)?;
        for (i, v) in self.points.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Orientation;

    fn p(x: Coord, y: Coord) -> Point {
        Point::new(x, y)
    }

    #[test]
    fn rejects_degenerate() {
        assert!(Path::new(2, vec![]).is_err());
        assert!(Path::new(0, vec![p(0, 0)]).is_err());
        assert!(Path::new(-3, vec![p(0, 0), p(1, 0)]).is_err());
        assert!(Path::new(2, vec![p(0, 0), p(0, 0)]).is_err());
    }

    #[test]
    fn length_sums_segments() {
        let w = Path::new(2, vec![p(0, 0), p(10, 0), p(10, 8)]).unwrap();
        assert_eq!(w.length(), 18);
    }

    #[test]
    fn single_point_wire_is_a_square() {
        let w = Path::new(4, vec![p(10, 10)]).unwrap();
        let rects = w.to_rects();
        assert_eq!(rects.len(), 1);
        assert_eq!(rects[0], Rect::centered(p(10, 10), 4, 4).unwrap());
    }

    #[test]
    fn to_rects_covers_corners() {
        let w = Path::new(2, vec![p(0, 0), p(10, 0), p(10, 8)]).unwrap();
        let rects = w.to_rects();
        assert_eq!(rects.len(), 2);
        // Horizontal segment: widened to height 2, extended 1 beyond ends.
        assert_eq!(rects[0], Rect::new(p(-1, -1), p(11, 1)).unwrap());
        // Vertical segment.
        assert_eq!(rects[1], Rect::new(p(9, -1), p(11, 9)).unwrap());
        // The corner point is inside both (electrically continuous).
        assert!(rects[0].contains_point(p(10, 0)));
        assert!(rects[1].contains_point(p(10, 0)));
    }

    #[test]
    fn odd_width_still_covers_width() {
        let w = Path::new(3, vec![p(0, 0), p(4, 0)]).unwrap();
        let r = w.to_rects()[0];
        assert_eq!(r.height(), 3);
        assert_eq!(r.width(), 4 + 3);
    }

    #[test]
    fn bbox_includes_flange() {
        let w = Path::new(2, vec![p(0, 0), p(10, 0)]).unwrap();
        assert_eq!(w.bbox(), Rect::new(p(-1, -1), p(11, 1)).unwrap());
    }

    #[test]
    fn diagonal_detected() {
        assert_eq!(
            Path::new(2, vec![p(0, 0), p(5, 0), p(9, 5)]),
            Err(GeomError::NotManhattan {
                from: p(5, 0),
                to: p(9, 5)
            })
        );
    }

    #[test]
    fn transform_preserves_length_and_width() {
        let w = Path::new(2, vec![p(0, 0), p(10, 0), p(10, 8)]).unwrap();
        let t = Transform::new(Orientation::R90, p(100, 0));
        let moved = w.transform(t);
        assert_eq!(moved.length(), w.length());
        assert_eq!(moved.width(), w.width());
        assert_eq!(moved.to_rects().len(), 2);
    }
}
