use crate::Coord;
use std::fmt;
use std::ops::{Add, AddAssign, Mul, Neg, Sub, SubAssign};

/// A position on the lambda grid.
///
/// `Point` is an absolute location; displacements between points are
/// [`Vector`]s. The distinction keeps transform code honest: orientations act
/// on vectors, translations act on points.
///
/// # Example
///
/// ```
/// use silc_geom::{Point, Vector};
/// let p = Point::new(3, 4);
/// let q = p + Vector::new(1, -1);
/// assert_eq!(q, Point::new(4, 3));
/// assert_eq!(q - p, Vector::new(1, -1));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Point {
    /// Horizontal coordinate in lambda.
    pub x: Coord,
    /// Vertical coordinate in lambda.
    pub y: Coord,
}

/// A displacement on the lambda grid.
///
/// See [`Point`] for the point/vector distinction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Vector {
    /// Horizontal displacement in lambda.
    pub x: Coord,
    /// Vertical displacement in lambda.
    pub y: Coord,
}

impl Point {
    /// The origin, `(0, 0)`.
    pub const ORIGIN: Point = Point { x: 0, y: 0 };

    /// Creates a point at `(x, y)`.
    pub const fn new(x: Coord, y: Coord) -> Self {
        Point { x, y }
    }

    /// Returns this point viewed as a displacement from the origin.
    pub const fn to_vector(self) -> Vector {
        Vector {
            x: self.x,
            y: self.y,
        }
    }

    /// Componentwise minimum of two points (lower-left corner of their
    /// bounding box).
    pub fn min(self, other: Point) -> Point {
        Point::new(self.x.min(other.x), self.y.min(other.y))
    }

    /// Componentwise maximum of two points (upper-right corner of their
    /// bounding box).
    pub fn max(self, other: Point) -> Point {
        Point::new(self.x.max(other.x), self.y.max(other.y))
    }

    /// Manhattan (L1) distance to `other`, the natural metric for wiring on
    /// a Manhattan grid.
    ///
    /// ```
    /// use silc_geom::Point;
    /// assert_eq!(Point::new(0, 0).manhattan_distance(Point::new(3, 4)), 7);
    /// ```
    pub fn manhattan_distance(self, other: Point) -> Coord {
        (self.x - other.x).abs() + (self.y - other.y).abs()
    }
}

impl Vector {
    /// Creates a vector `(x, y)`.
    pub const fn new(x: Coord, y: Coord) -> Self {
        Vector { x, y }
    }

    /// Returns the point reached by following this vector from the origin.
    pub const fn to_point(self) -> Point {
        Point {
            x: self.x,
            y: self.y,
        }
    }

    /// L1 norm of the displacement.
    pub fn manhattan_length(self) -> Coord {
        self.x.abs() + self.y.abs()
    }

    /// True if the vector is horizontal or vertical (one component zero).
    /// The zero vector counts as axis-aligned.
    pub fn is_axis_aligned(self) -> bool {
        self.x == 0 || self.y == 0
    }

    /// Cross product z-component, used for polygon orientation tests.
    pub fn cross(self, other: Vector) -> Coord {
        self.x * other.y - self.y * other.x
    }

    /// Dot product.
    pub fn dot(self, other: Vector) -> Coord {
        self.x * other.x + self.y * other.y
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

impl fmt::Display for Vector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<{}, {}>", self.x, self.y)
    }
}

impl Add<Vector> for Point {
    type Output = Point;
    fn add(self, rhs: Vector) -> Point {
        Point::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl AddAssign<Vector> for Point {
    fn add_assign(&mut self, rhs: Vector) {
        self.x += rhs.x;
        self.y += rhs.y;
    }
}

impl Sub<Vector> for Point {
    type Output = Point;
    fn sub(self, rhs: Vector) -> Point {
        Point::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl SubAssign<Vector> for Point {
    fn sub_assign(&mut self, rhs: Vector) {
        self.x -= rhs.x;
        self.y -= rhs.y;
    }
}

impl Sub for Point {
    type Output = Vector;
    fn sub(self, rhs: Point) -> Vector {
        Vector::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl Add for Vector {
    type Output = Vector;
    fn add(self, rhs: Vector) -> Vector {
        Vector::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl AddAssign for Vector {
    fn add_assign(&mut self, rhs: Vector) {
        self.x += rhs.x;
        self.y += rhs.y;
    }
}

impl Sub for Vector {
    type Output = Vector;
    fn sub(self, rhs: Vector) -> Vector {
        Vector::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl Neg for Vector {
    type Output = Vector;
    fn neg(self) -> Vector {
        Vector::new(-self.x, -self.y)
    }
}

impl Mul<Coord> for Vector {
    type Output = Vector;
    fn mul(self, rhs: Coord) -> Vector {
        Vector::new(self.x * rhs, self.y * rhs)
    }
}

impl From<(Coord, Coord)> for Point {
    fn from((x, y): (Coord, Coord)) -> Self {
        Point::new(x, y)
    }
}

impl From<(Coord, Coord)> for Vector {
    fn from((x, y): (Coord, Coord)) -> Self {
        Vector::new(x, y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn point_vector_arithmetic() {
        let p = Point::new(2, 3);
        let v = Vector::new(5, -1);
        assert_eq!(p + v, Point::new(7, 2));
        assert_eq!(p - v, Point::new(-3, 4));
        assert_eq!((p + v) - p, v);
        assert_eq!(p + Vector::new(0, 0), p);
    }

    #[test]
    fn assign_ops() {
        let mut p = Point::new(1, 1);
        p += Vector::new(2, 3);
        assert_eq!(p, Point::new(3, 4));
        p -= Vector::new(1, 1);
        assert_eq!(p, Point::new(2, 3));
        let mut v = Vector::new(1, 1);
        v += Vector::new(4, 4);
        assert_eq!(v, Vector::new(5, 5));
    }

    #[test]
    fn manhattan_distance_is_symmetric() {
        let a = Point::new(-3, 7);
        let b = Point::new(10, -2);
        assert_eq!(a.manhattan_distance(b), b.manhattan_distance(a));
        assert_eq!(a.manhattan_distance(a), 0);
    }

    #[test]
    fn min_max_corners() {
        let a = Point::new(5, 1);
        let b = Point::new(2, 9);
        assert_eq!(a.min(b), Point::new(2, 1));
        assert_eq!(a.max(b), Point::new(5, 9));
    }

    #[test]
    fn cross_and_dot() {
        let x = Vector::new(1, 0);
        let y = Vector::new(0, 1);
        assert_eq!(x.cross(y), 1);
        assert_eq!(y.cross(x), -1);
        assert_eq!(x.dot(y), 0);
        assert_eq!(x.dot(x), 1);
    }

    #[test]
    fn axis_alignment() {
        assert!(Vector::new(0, 5).is_axis_aligned());
        assert!(Vector::new(5, 0).is_axis_aligned());
        assert!(Vector::new(0, 0).is_axis_aligned());
        assert!(!Vector::new(1, 1).is_axis_aligned());
    }

    #[test]
    fn scalar_multiply_and_negate() {
        let v = Vector::new(2, -3);
        assert_eq!(v * 3, Vector::new(6, -9));
        assert_eq!(-v, Vector::new(-2, 3));
    }

    #[test]
    fn conversions() {
        let p: Point = (4, 5).into();
        assert_eq!(p, Point::new(4, 5));
        assert_eq!(p.to_vector().to_point(), p);
        let v: Vector = (1, 2).into();
        assert_eq!(v, Vector::new(1, 2));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Point::new(1, -2).to_string(), "(1, -2)");
        assert_eq!(Vector::new(1, -2).to_string(), "<1, -2>");
    }

    proptest! {
        #[test]
        fn add_then_sub_roundtrips(x in -1000i64..1000, y in -1000i64..1000,
                                   dx in -1000i64..1000, dy in -1000i64..1000) {
            let p = Point::new(x, y);
            let v = Vector::new(dx, dy);
            prop_assert_eq!((p + v) - v, p);
        }

        #[test]
        fn triangle_inequality(ax in -100i64..100, ay in -100i64..100,
                               bx in -100i64..100, by in -100i64..100,
                               cx in -100i64..100, cy in -100i64..100) {
            let a = Point::new(ax, ay);
            let b = Point::new(bx, by);
            let c = Point::new(cx, cy);
            prop_assert!(a.manhattan_distance(c)
                <= a.manhattan_distance(b) + b.manhattan_distance(c));
        }

        #[test]
        fn cross_is_antisymmetric(ax in -100i64..100, ay in -100i64..100,
                                  bx in -100i64..100, by in -100i64..100) {
            let a = Vector::new(ax, ay);
            let b = Vector::new(bx, by);
            prop_assert_eq!(a.cross(b), -b.cross(a));
        }
    }
}
