use crate::{Coord, GeomError, Point, Rect, Transform};
use std::fmt;

/// A simple polygon on the lambda grid.
///
/// CIF's `P` command describes arbitrary polygons; most silicon-compiler
/// output is rectangles, but pads, arrows and a few analogue structures need
/// polygons. Vertices are stored in the order given (either winding);
/// [`Polygon::double_area`] is always reported positive.
///
/// # Example
///
/// ```
/// use silc_geom::{Point, Polygon};
/// # fn main() -> Result<(), silc_geom::GeomError> {
/// let tri = Polygon::new(vec![
///     Point::new(0, 0), Point::new(4, 0), Point::new(0, 4),
/// ])?;
/// assert_eq!(tri.double_area(), 16); // area is 8
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Polygon {
    vertices: Vec<Point>,
}

impl Polygon {
    /// Creates a polygon from its vertex loop (the closing edge from last to
    /// first vertex is implicit).
    ///
    /// # Errors
    ///
    /// * [`GeomError::DegeneratePolygon`] — fewer than three vertices, zero
    ///   area, or repeated consecutive vertices.
    /// * [`GeomError::SelfIntersectingPolygon`] — non-adjacent edges cross.
    pub fn new(vertices: Vec<Point>) -> Result<Polygon, GeomError> {
        if vertices.len() < 3 {
            return Err(GeomError::DegeneratePolygon {
                vertices: vertices.len(),
            });
        }
        let n = vertices.len();
        for i in 0..n {
            if vertices[i] == vertices[(i + 1) % n] {
                return Err(GeomError::DegeneratePolygon { vertices: n });
            }
        }
        let poly = Polygon { vertices };
        if poly.has_self_intersection() {
            return Err(GeomError::SelfIntersectingPolygon);
        }
        if poly.double_area() == 0 {
            return Err(GeomError::DegeneratePolygon { vertices: n });
        }
        Ok(poly)
    }

    /// Converts a rectangle into a four-vertex polygon (counter-clockwise).
    pub fn from_rect(r: Rect) -> Polygon {
        Polygon {
            vertices: r.corners().to_vec(),
        }
    }

    /// The vertex loop.
    pub fn vertices(&self) -> &[Point] {
        &self.vertices
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.vertices.len()
    }

    /// Always false: valid polygons have at least three vertices.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Twice the (unsigned) enclosed area, via the shoelace formula. Twice
    /// the area is always an integer on an integer grid; use this to avoid
    /// rounding.
    pub fn double_area(&self) -> Coord {
        self.signed_double_area().abs()
    }

    /// Twice the signed area: positive for counter-clockwise winding.
    pub fn signed_double_area(&self) -> Coord {
        let n = self.vertices.len();
        let mut acc = 0;
        for i in 0..n {
            let p = self.vertices[i];
            let q = self.vertices[(i + 1) % n];
            acc += p.x * q.y - q.x * p.y;
        }
        acc
    }

    /// Axis-aligned bounding box.
    pub fn bbox(&self) -> Rect {
        let mut min = self.vertices[0];
        let mut max = self.vertices[0];
        for &v in &self.vertices[1..] {
            min = min.min(v);
            max = max.max(v);
        }
        // A polygon that collapses to a horizontal/vertical segment is
        // rejected at construction (zero area), so this cannot fail — but a
        // diagonal degenerate could in theory; widen by nothing and rely on
        // the non-zero-area invariant.
        Rect::new(min, max).expect("non-degenerate polygon has non-empty bbox")
    }

    /// True if every edge is horizontal or vertical (rectilinear artwork).
    pub fn is_rectilinear(&self) -> bool {
        let n = self.vertices.len();
        (0..n).all(|i| {
            let d = self.vertices[(i + 1) % n] - self.vertices[i];
            d.is_axis_aligned()
        })
    }

    /// Point-in-polygon test (boundary counts as inside), by the winding
    /// crossing rule.
    pub fn contains_point(&self, p: Point) -> bool {
        let n = self.vertices.len();
        // Boundary check first.
        for i in 0..n {
            let a = self.vertices[i];
            let b = self.vertices[(i + 1) % n];
            if on_segment(a, b, p) {
                return true;
            }
        }
        let mut inside = false;
        for i in 0..n {
            let a = self.vertices[i];
            let b = self.vertices[(i + 1) % n];
            if (a.y > p.y) != (b.y > p.y) {
                // Edge straddles the horizontal ray; compare x of crossing.
                // x_cross = a.x + (p.y - a.y) * (b.x - a.x) / (b.y - a.y)
                let num = (p.y - a.y) * (b.x - a.x);
                let den = b.y - a.y;
                // p.x < x_cross  <=>  p.x * den < a.x * den + num  (sign-safe)
                let lhs = (p.x - a.x) * den;
                if (den > 0 && lhs < num) || (den < 0 && lhs > num) {
                    inside = !inside;
                }
            }
        }
        inside
    }

    /// Returns the polygon mapped through `t`.
    pub fn transform(&self, t: Transform) -> Polygon {
        Polygon {
            vertices: self.vertices.iter().map(|&p| t.apply(p)).collect(),
        }
    }

    fn has_self_intersection(&self) -> bool {
        let n = self.vertices.len();
        for i in 0..n {
            let a1 = self.vertices[i];
            let a2 = self.vertices[(i + 1) % n];
            for j in (i + 1)..n {
                // Skip adjacent edges (sharing a vertex).
                if j == i || (j + 1) % n == i || (i + 1) % n == j {
                    continue;
                }
                let b1 = self.vertices[j];
                let b2 = self.vertices[(j + 1) % n];
                if segments_properly_intersect(a1, a2, b1, b2) {
                    return true;
                }
            }
        }
        false
    }
}

fn orient(a: Point, b: Point, c: Point) -> Coord {
    (b - a).cross(c - a)
}

fn on_segment(a: Point, b: Point, p: Point) -> bool {
    orient(a, b, p) == 0
        && p.x >= a.x.min(b.x)
        && p.x <= a.x.max(b.x)
        && p.y >= a.y.min(b.y)
        && p.y <= a.y.max(b.y)
}

fn segments_properly_intersect(a1: Point, a2: Point, b1: Point, b2: Point) -> bool {
    let d1 = orient(b1, b2, a1);
    let d2 = orient(b1, b2, a2);
    let d3 = orient(a1, a2, b1);
    let d4 = orient(a1, a2, b2);
    if ((d1 > 0 && d2 < 0) || (d1 < 0 && d2 > 0)) && ((d3 > 0 && d4 < 0) || (d3 < 0 && d4 > 0)) {
        return true;
    }
    // Collinear overlap also counts as self-intersection.
    (d1 == 0 && on_segment(b1, b2, a1))
        || (d2 == 0 && on_segment(b1, b2, a2))
        || (d3 == 0 && on_segment(a1, a2, b1))
        || (d4 == 0 && on_segment(a1, a2, b2))
}

impl fmt::Display for Polygon {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "poly[")?;
        for (i, v) in self.vertices.iter().enumerate() {
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
    fn triangle_area() {
        let t = Polygon::new(vec![p(0, 0), p(4, 0), p(0, 4)]).unwrap();
        assert_eq!(t.double_area(), 16);
        assert!(t.signed_double_area() > 0);
    }

    #[test]
    fn clockwise_winding_detected() {
        let t = Polygon::new(vec![p(0, 0), p(0, 4), p(4, 0)]).unwrap();
        assert!(t.signed_double_area() < 0);
        assert_eq!(t.double_area(), 16);
    }

    #[test]
    fn rejects_degenerate() {
        assert!(matches!(
            Polygon::new(vec![p(0, 0), p(1, 1)]),
            Err(GeomError::DegeneratePolygon { vertices: 2 })
        ));
        // Collinear points: zero area.
        assert!(Polygon::new(vec![p(0, 0), p(2, 2), p(4, 4)]).is_err());
        // Repeated consecutive vertex.
        assert!(Polygon::new(vec![p(0, 0), p(0, 0), p(4, 0), p(0, 4)]).is_err());
    }

    #[test]
    fn rejects_self_intersecting_bowtie() {
        let bowtie = Polygon::new(vec![p(0, 0), p(4, 4), p(4, 0), p(0, 4)]);
        assert!(matches!(bowtie, Err(GeomError::SelfIntersectingPolygon)));
    }

    #[test]
    fn from_rect_roundtrip() {
        let r = Rect::from_origin_size(p(1, 2), 5, 3).unwrap();
        let poly = Polygon::from_rect(r);
        assert_eq!(poly.len(), 4);
        assert_eq!(poly.double_area(), 2 * r.area());
        assert_eq!(poly.bbox(), r);
        assert!(poly.is_rectilinear());
        assert!(poly.signed_double_area() > 0);
    }

    #[test]
    fn l_shape_is_rectilinear() {
        let l = Polygon::new(vec![p(0, 0), p(4, 0), p(4, 2), p(2, 2), p(2, 6), p(0, 6)]).unwrap();
        assert!(l.is_rectilinear());
        assert_eq!(l.double_area(), 2 * (4 * 2 + 2 * 4));
        assert_eq!(l.bbox(), Rect::from_origin_size(p(0, 0), 4, 6).unwrap());
    }

    #[test]
    fn point_containment() {
        let l = Polygon::new(vec![p(0, 0), p(4, 0), p(4, 2), p(2, 2), p(2, 6), p(0, 6)]).unwrap();
        assert!(l.contains_point(p(1, 1)));
        assert!(l.contains_point(p(3, 1)));
        assert!(l.contains_point(p(1, 5)));
        assert!(!l.contains_point(p(3, 3))); // in the notch
        assert!(l.contains_point(p(0, 0))); // corner counts
        assert!(l.contains_point(p(2, 4))); // on the inner edge
        assert!(!l.contains_point(p(5, 5)));
    }

    #[test]
    fn non_rectilinear_detected() {
        let t = Polygon::new(vec![p(0, 0), p(4, 0), p(0, 4)]).unwrap();
        assert!(!t.is_rectilinear());
    }

    #[test]
    fn transform_preserves_area() {
        let t = Polygon::new(vec![p(0, 0), p(4, 0), p(0, 4)]).unwrap();
        let moved = t.transform(Transform::new(Orientation::R90, p(10, 10)));
        assert_eq!(moved.double_area(), t.double_area());
        // R90 is a proper rotation: winding preserved.
        assert_eq!(moved.signed_double_area(), t.signed_double_area());
        // Mirroring reverses winding.
        let mirrored = t.transform(Transform::new(Orientation::MX, Point::ORIGIN));
        assert_eq!(mirrored.signed_double_area(), -t.signed_double_area());
    }

    #[test]
    fn display_lists_vertices() {
        let t = Polygon::new(vec![p(0, 0), p(1, 0), p(0, 1)]).unwrap();
        assert_eq!(t.to_string(), "poly[(0, 0) (1, 0) (0, 1)]");
    }
}
