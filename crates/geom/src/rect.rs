use crate::{Coord, GeomError, Point, Vector};
use std::fmt;

/// An axis-aligned rectangle with strictly positive extent on both axes.
///
/// Rectangles are half-open conceptually — two rectangles that merely share
/// an edge have zero overlap area but *do* [`touch`](Rect::touches). The
/// canonical representation keeps `min <= max` componentwise, established at
/// construction, so every `Rect` in the system is valid by construction
/// (static enforcement of the non-empty invariant).
///
/// # Example
///
/// ```
/// use silc_geom::{Point, Rect};
/// # fn main() -> Result<(), silc_geom::GeomError> {
/// let a = Rect::new(Point::new(0, 0), Point::new(4, 4))?;
/// let b = Rect::new(Point::new(2, 2), Point::new(6, 6))?;
/// let i = a.intersection(b).expect("they overlap");
/// assert_eq!(i.area(), 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rect {
    min: Point,
    max: Point,
}

impl Rect {
    /// Creates a rectangle from two opposite corners, in any order.
    ///
    /// # Errors
    ///
    /// Returns [`GeomError::EmptyRect`] if the corners coincide on either
    /// axis (zero width or height).
    pub fn new(a: Point, b: Point) -> Result<Rect, GeomError> {
        let min = a.min(b);
        let max = a.max(b);
        if min.x == max.x || min.y == max.y {
            return Err(GeomError::EmptyRect {
                width: max.x - min.x,
                height: max.y - min.y,
            });
        }
        Ok(Rect { min, max })
    }

    /// Creates a rectangle from its lower-left corner and a size.
    ///
    /// # Errors
    ///
    /// Returns [`GeomError::EmptyRect`] if `width` or `height` is not
    /// strictly positive.
    pub fn from_origin_size(origin: Point, width: Coord, height: Coord) -> Result<Rect, GeomError> {
        if width <= 0 || height <= 0 {
            return Err(GeomError::EmptyRect { width, height });
        }
        Ok(Rect {
            min: origin,
            max: Point::new(origin.x + width, origin.y + height),
        })
    }

    /// Creates a rectangle centred on `center`. Used heavily by the CIF
    /// writer, whose `B` (box) command is centre-based.
    ///
    /// # Errors
    ///
    /// Returns [`GeomError::EmptyRect`] if `width` or `height` is not
    /// strictly positive.
    ///
    /// # Panics
    ///
    /// Does not panic; odd sizes are allowed and round the centre down
    /// (`center` is then the centre of the *doubled* grid, as in CIF).
    pub fn centered(center: Point, width: Coord, height: Coord) -> Result<Rect, GeomError> {
        if width <= 0 || height <= 0 {
            return Err(GeomError::EmptyRect { width, height });
        }
        let min = Point::new(center.x - width / 2, center.y - height / 2);
        Ok(Rect {
            min,
            max: Point::new(min.x + width, min.y + height),
        })
    }

    /// Lower-left corner.
    pub const fn min(&self) -> Point {
        self.min
    }

    /// Upper-right corner.
    pub const fn max(&self) -> Point {
        self.max
    }

    /// Left edge x-coordinate.
    pub const fn left(&self) -> Coord {
        self.min.x
    }

    /// Right edge x-coordinate.
    pub const fn right(&self) -> Coord {
        self.max.x
    }

    /// Bottom edge y-coordinate.
    pub const fn bottom(&self) -> Coord {
        self.min.y
    }

    /// Top edge y-coordinate.
    pub const fn top(&self) -> Coord {
        self.max.y
    }

    /// Horizontal extent (always positive).
    pub const fn width(&self) -> Coord {
        self.max.x - self.min.x
    }

    /// Vertical extent (always positive).
    pub const fn height(&self) -> Coord {
        self.max.y - self.min.y
    }

    /// Area in square lambda.
    pub const fn area(&self) -> Coord {
        self.width() * self.height()
    }

    /// Centre point, rounded toward the lower-left on odd extents.
    pub const fn center(&self) -> Point {
        Point::new(
            (self.min.x + self.max.x).div_euclid(2),
            (self.min.y + self.max.y).div_euclid(2),
        )
    }

    /// Doubled centre coordinates `(2cx, 2cy)`; exact even for odd extents.
    /// The CIF `B` command needs exact centres, which this provides without
    /// fractions.
    pub const fn center_doubled(&self) -> (Coord, Coord) {
        (self.min.x + self.max.x, self.min.y + self.max.y)
    }

    /// The smaller of width and height — the "width" in the design-rule
    /// sense for a maximal rectangle.
    pub fn min_dimension(&self) -> Coord {
        self.width().min(self.height())
    }

    /// Returns the rectangle translated by `v`.
    pub fn translate(&self, v: Vector) -> Rect {
        Rect {
            min: self.min + v,
            max: self.max + v,
        }
    }

    /// Returns the rectangle grown outward by `margin` on all sides
    /// (negative `margin` shrinks it). Saturates at the ends of the
    /// coordinate range instead of overflowing.
    ///
    /// Returns `None` when shrinking collapses the rectangle to zero or
    /// negative extent.
    pub fn inflate(&self, margin: Coord) -> Option<Rect> {
        let grown = self.grow(margin, margin);
        (grown.min.x < grown.max.x && grown.min.y < grown.max.y).then_some(grown)
    }

    /// Returns the rectangle grown outward by `dx` on the left and right
    /// and `dy` on the bottom and top, saturating at the ends of the
    /// coordinate range. `dx` and `dy` must not be so negative that the
    /// rectangle collapses ([`inflate`](Rect::inflate) checks that).
    pub fn grow(&self, dx: Coord, dy: Coord) -> Rect {
        Rect {
            min: Point::new(self.min.x.saturating_sub(dx), self.min.y.saturating_sub(dy)),
            max: Point::new(self.max.x.saturating_add(dx), self.max.y.saturating_add(dy)),
        }
    }

    /// Pushes onto `out` the disjoint rectangles covering `self − cut`:
    /// `self` unchanged when the interiors are disjoint, otherwise up to
    /// four slabs around the overlap in the order top, bottom, left, right.
    pub fn subtract_into(&self, cut: Rect, out: &mut Vec<Rect>) {
        let Some(overlap) = self.intersection(cut) else {
            out.push(*self);
            return;
        };
        let mut slab = |x0, y0, x1, y1| {
            out.push(Rect {
                min: Point::new(x0, y0),
                max: Point::new(x1, y1),
            });
        };
        if overlap.top() < self.top() {
            slab(self.left(), overlap.top(), self.right(), self.top());
        }
        if self.bottom() < overlap.bottom() {
            slab(self.left(), self.bottom(), self.right(), overlap.bottom());
        }
        if self.left() < overlap.left() {
            slab(self.left(), overlap.bottom(), overlap.left(), overlap.top());
        }
        if overlap.right() < self.right() {
            slab(
                overlap.right(),
                overlap.bottom(),
                self.right(),
                overlap.top(),
            );
        }
    }

    /// True if `p` lies inside or on the boundary.
    pub fn contains_point(&self, p: Point) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }

    /// True if `other` lies entirely inside (or coincides with) `self`.
    pub fn contains_rect(&self, other: Rect) -> bool {
        other.min.x >= self.min.x
            && other.min.y >= self.min.y
            && other.max.x <= self.max.x
            && other.max.y <= self.max.y
    }

    /// True if the two rectangles share interior area (edge-sharing does not
    /// count).
    pub fn overlaps(&self, other: Rect) -> bool {
        self.min.x < other.max.x
            && other.min.x < self.max.x
            && self.min.y < other.max.y
            && other.min.y < self.max.y
    }

    /// True if the rectangles overlap *or* abut along an edge or corner.
    /// Touching geometry is electrically connected, so the extractor uses
    /// this rather than [`overlaps`](Rect::overlaps).
    pub fn touches(&self, other: Rect) -> bool {
        self.min.x <= other.max.x
            && other.min.x <= self.max.x
            && self.min.y <= other.max.y
            && other.min.y <= self.max.y
    }

    /// Intersection with `other`, or `None` when interiors are disjoint.
    pub fn intersection(&self, other: Rect) -> Option<Rect> {
        if !self.overlaps(other) {
            return None;
        }
        Some(Rect {
            min: self.min.max(other.min),
            max: self.max.min(other.max),
        })
    }

    /// Smallest rectangle containing both `self` and `other`.
    pub fn union(&self, other: Rect) -> Rect {
        Rect {
            min: self.min.min(other.min),
            max: self.max.max(other.max),
        }
    }

    /// Minimum separation between the two rectangles measured independently
    /// per axis, as design rules do: the gap along x (0 when x-spans overlap)
    /// and along y.
    ///
    /// Two rectangles violate a spacing rule `s` when both gaps are `< s`
    /// and the rectangles do not overlap.
    pub fn axis_gaps(&self, other: Rect) -> (Coord, Coord) {
        let gx = if self.max.x < other.min.x {
            other.min.x - self.max.x
        } else if other.max.x < self.min.x {
            self.min.x - other.max.x
        } else {
            0
        };
        let gy = if self.max.y < other.min.y {
            other.min.y - self.max.y
        } else if other.max.y < self.min.y {
            self.min.y - other.max.y
        } else {
            0
        };
        (gx, gy)
    }

    /// The four corner points in counter-clockwise order starting at the
    /// lower-left.
    pub fn corners(&self) -> [Point; 4] {
        [
            self.min,
            Point::new(self.max.x, self.min.y),
            self.max,
            Point::new(self.min.x, self.max.y),
        ]
    }
}

impl fmt::Display for Rect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{} .. {}]", self.min, self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn r(x0: Coord, y0: Coord, x1: Coord, y1: Coord) -> Rect {
        Rect::new(Point::new(x0, y0), Point::new(x1, y1)).unwrap()
    }

    #[test]
    fn corners_normalize() {
        let a = Rect::new(Point::new(4, 4), Point::new(0, 0)).unwrap();
        assert_eq!(a.min(), Point::new(0, 0));
        assert_eq!(a.max(), Point::new(4, 4));
    }

    #[test]
    fn empty_rect_rejected() {
        assert!(matches!(
            Rect::new(Point::new(0, 0), Point::new(0, 4)),
            Err(GeomError::EmptyRect { .. })
        ));
        assert!(Rect::from_origin_size(Point::ORIGIN, 0, 5).is_err());
        assert!(Rect::from_origin_size(Point::ORIGIN, 5, -1).is_err());
        assert!(Rect::centered(Point::ORIGIN, 0, 2).is_err());
    }

    #[test]
    fn from_origin_size_and_accessors() {
        let a = Rect::from_origin_size(Point::new(1, 2), 3, 4).unwrap();
        assert_eq!(a.left(), 1);
        assert_eq!(a.bottom(), 2);
        assert_eq!(a.right(), 4);
        assert_eq!(a.top(), 6);
        assert_eq!(a.width(), 3);
        assert_eq!(a.height(), 4);
        assert_eq!(a.area(), 12);
        assert_eq!(a.min_dimension(), 3);
    }

    #[test]
    fn centered_box() {
        let a = Rect::centered(Point::new(0, 0), 4, 2).unwrap();
        assert_eq!(a.min(), Point::new(-2, -1));
        assert_eq!(a.max(), Point::new(2, 1));
        assert_eq!(a.center(), Point::new(0, 0));
        assert_eq!(a.center_doubled(), (0, 0));
    }

    #[test]
    fn center_doubled_is_exact_for_odd_extent() {
        let a = r(0, 0, 3, 5);
        assert_eq!(a.center_doubled(), (3, 5));
        // Integer centre rounds down.
        assert_eq!(a.center(), Point::new(1, 2));
    }

    #[test]
    fn overlap_vs_touch() {
        let a = r(0, 0, 4, 4);
        let b = r(4, 0, 8, 4); // shares an edge
        let c = r(5, 0, 8, 4); // 1 lambda gap
        let d = r(2, 2, 6, 6); // true overlap
        assert!(!a.overlaps(b));
        assert!(a.touches(b));
        assert!(!a.overlaps(c));
        assert!(!a.touches(c));
        assert!(a.overlaps(d));
        assert!(a.touches(d));
    }

    #[test]
    fn corner_touch_counts_as_touch() {
        let a = r(0, 0, 2, 2);
        let b = r(2, 2, 4, 4);
        assert!(a.touches(b));
        assert!(!a.overlaps(b));
    }

    #[test]
    fn intersection_and_union() {
        let a = r(0, 0, 4, 4);
        let b = r(2, 2, 6, 6);
        assert_eq!(a.intersection(b), Some(r(2, 2, 4, 4)));
        assert_eq!(a.union(b), r(0, 0, 6, 6));
        let c = r(10, 10, 12, 12);
        assert_eq!(a.intersection(c), None);
    }

    #[test]
    fn containment() {
        let outer = r(0, 0, 10, 10);
        let inner = r(2, 2, 8, 8);
        assert!(outer.contains_rect(inner));
        assert!(!inner.contains_rect(outer));
        assert!(outer.contains_rect(outer));
        assert!(outer.contains_point(Point::new(0, 0)));
        assert!(outer.contains_point(Point::new(10, 10)));
        assert!(!outer.contains_point(Point::new(11, 5)));
    }

    #[test]
    fn inflate_and_deflate() {
        let a = r(2, 2, 6, 6);
        assert_eq!(a.inflate(1), Some(r(1, 1, 7, 7)));
        assert_eq!(a.inflate(-1), Some(r(3, 3, 5, 5)));
        assert_eq!(a.inflate(-2), None); // collapses
        assert_eq!(a.grow(2, 0), r(0, 2, 8, 6));
        // At the end of the coordinate range growth saturates.
        let edge = r(i64::MAX - 4, 0, i64::MAX - 1, 4);
        assert_eq!(edge.inflate(3), Some(r(i64::MAX - 7, -3, i64::MAX, 7)));
    }

    #[test]
    fn subtract_into_carves_around_the_overlap() {
        let a = r(0, 0, 10, 10);
        let mut out = Vec::new();
        a.subtract_into(r(4, 4, 6, 6), &mut out);
        assert_eq!(
            out,
            vec![
                r(0, 6, 10, 10),
                r(0, 0, 10, 4),
                r(0, 4, 4, 6),
                r(6, 4, 10, 6)
            ]
        );
        out.clear();
        a.subtract_into(r(-1, -1, 11, 11), &mut out);
        assert!(out.is_empty());
        a.subtract_into(r(10, 0, 12, 10), &mut out); // abuts: nothing removed
        assert_eq!(out, vec![a]);
    }

    #[test]
    fn axis_gaps_cases() {
        let a = r(0, 0, 2, 2);
        // Diagonal neighbour, 3 apart in x, 1 apart in y.
        let b = r(5, 3, 7, 5);
        assert_eq!(a.axis_gaps(b), (3, 1));
        assert_eq!(b.axis_gaps(a), (3, 1));
        // Overlapping spans give zero gaps.
        let c = r(1, 1, 3, 3);
        assert_eq!(a.axis_gaps(c), (0, 0));
        // Abutting gives zero gap.
        let d = r(2, 0, 4, 2);
        assert_eq!(a.axis_gaps(d), (0, 0));
    }

    #[test]
    fn translate_preserves_size() {
        let a = r(0, 0, 3, 5);
        let b = a.translate(Vector::new(7, -2));
        assert_eq!(b.width(), 3);
        assert_eq!(b.height(), 5);
        assert_eq!(b.min(), Point::new(7, -2));
    }

    #[test]
    fn corners_are_ccw() {
        let a = r(0, 0, 2, 3);
        let c = a.corners();
        // Shoelace over the corner loop should give positive (CCW) area.
        let mut acc = 0;
        for i in 0..4 {
            let p = c[i];
            let q = c[(i + 1) % 4];
            acc += p.x * q.y - q.x * p.y;
        }
        assert_eq!(acc, 2 * a.area());
    }

    proptest! {
        #[test]
        fn union_contains_both(x0 in -50i64..50, y0 in -50i64..50, w0 in 1i64..20, h0 in 1i64..20,
                               x1 in -50i64..50, y1 in -50i64..50, w1 in 1i64..20, h1 in 1i64..20) {
            let a = Rect::from_origin_size(Point::new(x0, y0), w0, h0).unwrap();
            let b = Rect::from_origin_size(Point::new(x1, y1), w1, h1).unwrap();
            let u = a.union(b);
            prop_assert!(u.contains_rect(a));
            prop_assert!(u.contains_rect(b));
        }

        #[test]
        fn intersection_is_contained(x0 in -50i64..50, y0 in -50i64..50, w0 in 1i64..20, h0 in 1i64..20,
                                     x1 in -50i64..50, y1 in -50i64..50, w1 in 1i64..20, h1 in 1i64..20) {
            let a = Rect::from_origin_size(Point::new(x0, y0), w0, h0).unwrap();
            let b = Rect::from_origin_size(Point::new(x1, y1), w1, h1).unwrap();
            if let Some(i) = a.intersection(b) {
                prop_assert!(a.contains_rect(i));
                prop_assert!(b.contains_rect(i));
                prop_assert!(i.area() <= a.area().min(b.area()));
            } else {
                prop_assert!(!a.overlaps(b));
            }
        }

        #[test]
        fn overlap_is_symmetric(x0 in -50i64..50, y0 in -50i64..50, w0 in 1i64..20, h0 in 1i64..20,
                                x1 in -50i64..50, y1 in -50i64..50, w1 in 1i64..20, h1 in 1i64..20) {
            let a = Rect::from_origin_size(Point::new(x0, y0), w0, h0).unwrap();
            let b = Rect::from_origin_size(Point::new(x1, y1), w1, h1).unwrap();
            prop_assert_eq!(a.overlaps(b), b.overlaps(a));
            prop_assert_eq!(a.touches(b), b.touches(a));
        }
    }
}
