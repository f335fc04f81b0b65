use crate::{Coord, GeomError, Point, Rect, Transform};
use std::fmt;

/// A simple rectilinear polygon on the lambda grid: every edge is
/// horizontal or vertical, so [`Polygon::to_rects`] is exactly its mask.
///
/// CIF's `P` command describes polygons; most silicon-compiler output is
/// rectangles, but L- and U-shaped artwork is one polygon. Vertices are
/// stored in the order given (either winding); [`Polygon::double_area`]
/// is always reported positive.
///
/// # Example
///
/// ```
/// use silc_geom::{Point, Polygon};
/// # fn main() -> Result<(), silc_geom::GeomError> {
/// let l = Polygon::new(vec![
///     Point::new(0, 0), Point::new(4, 0), Point::new(4, 2),
///     Point::new(2, 2), Point::new(2, 6), Point::new(0, 6),
/// ])?;
/// assert_eq!(l.double_area(), 32); // area is 16
/// assert_eq!(l.to_rects().len(), 2);
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
    /// * [`GeomError::NotManhattan`] — an edge is neither horizontal nor
    ///   vertical.
    /// * [`GeomError::SelfIntersectingPolygon`] — non-adjacent edges cross.
    pub fn new(vertices: Vec<Point>) -> Result<Polygon, GeomError> {
        if vertices.len() < 3 {
            return Err(GeomError::DegeneratePolygon {
                vertices: vertices.len(),
            });
        }
        let n = vertices.len();
        for i in 0..n {
            let (a, b) = (vertices[i], vertices[(i + 1) % n]);
            if a == b {
                return Err(GeomError::DegeneratePolygon { vertices: n });
            }
            GeomError::manhattan(a, b)?;
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
        // Zero area is refused at construction, so the box is not empty.
        Rect::new(min, max).expect("non-degenerate polygon has non-empty bbox")
    }

    /// Slices the polygon into disjoint rectangles covering exactly its
    /// interior, by horizontal bands: for each band between consecutive
    /// distinct vertex y-coordinates, the x-intervals where the interior
    /// covers the band.
    pub fn to_rects(&self) -> Vec<Rect> {
        let verts = &self.vertices;
        let n = verts.len();
        let mut ys: Vec<Coord> = verts.iter().map(|v| v.y).collect();
        ys.sort_unstable();
        ys.dedup();

        let mut rects = Vec::new();
        for band in ys.windows(2) {
            let (y0, y1) = (band[0], band[1]);
            // Find vertical edges spanning this band; sort their x.
            let mut xs: Vec<Coord> = Vec::new();
            for i in 0..n {
                let a = verts[i];
                let b = verts[(i + 1) % n];
                if a.x == b.x {
                    let (lo, hi) = (a.y.min(b.y), a.y.max(b.y));
                    if lo <= y0 && y1 <= hi {
                        xs.push(a.x);
                    }
                }
            }
            xs.sort_unstable();
            // Alternating fill: pairs of crossings bound interior spans.
            for pair in xs.chunks(2) {
                if pair.len() == 2 && pair[0] < pair[1] {
                    rects.push(
                        Rect::new(Point::new(pair[0], y0), Point::new(pair[1], y1))
                            .expect("band with distinct bounds is non-empty"),
                    );
                }
            }
        }
        rects
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

    /// An L: a 4x2 foot under a 2x4 upright, area 16.
    fn l_shape() -> Polygon {
        Polygon::new(vec![p(0, 0), p(4, 0), p(4, 2), p(2, 2), p(2, 6), p(0, 6)]).unwrap()
    }

    #[test]
    fn triangle_area() {
        // The nearest a rectilinear polygon comes to a right triangle: a
        // staircase of three 1-high steps, 3 + 2 + 1 squares.
        let t = Polygon::new(vec![
            p(0, 0),
            p(3, 0),
            p(3, 1),
            p(2, 1),
            p(2, 2),
            p(1, 2),
            p(1, 3),
            p(0, 3),
        ])
        .unwrap();
        assert_eq!(t.double_area(), 12);
        assert!(t.signed_double_area() > 0);
        // One band a step, down to the 1-wide top.
        let widths: Vec<Coord> = t.to_rects().iter().map(Rect::width).collect();
        assert_eq!(widths, [3, 2, 1]);
    }

    #[test]
    fn clockwise_winding_detected() {
        let t = Polygon::new(vec![p(0, 0), p(0, 4), p(4, 4), p(4, 0)]).unwrap();
        assert!(t.signed_double_area() < 0);
        assert_eq!(t.double_area(), 32);
    }

    #[test]
    fn rejects_degenerate() {
        assert!(matches!(
            Polygon::new(vec![p(0, 0), p(1, 0)]),
            Err(GeomError::DegeneratePolygon { vertices: 2 })
        ));
        // Collinear points: zero area.
        assert!(Polygon::new(vec![p(0, 0), p(2, 0), p(4, 0)]).is_err());
        // Repeated consecutive vertex.
        assert!(Polygon::new(vec![p(0, 0), p(0, 0), p(4, 0), p(4, 4), p(0, 4)]).is_err());
    }

    #[test]
    fn rejects_self_intersecting_bowtie() {
        // The rectilinear bowtie: two squares meeting at the corner (2, 2),
        // traced as one loop whose edges cross there.
        let bowtie = Polygon::new(vec![p(0, 0), p(2, 0), p(2, 4), p(4, 4), p(4, 2), p(0, 2)]);
        assert!(matches!(bowtie, Err(GeomError::SelfIntersectingPolygon)));
    }

    #[test]
    fn from_rect_roundtrip() {
        let r = Rect::from_origin_size(p(1, 2), 5, 3).unwrap();
        let poly = Polygon::from_rect(r);
        assert_eq!(poly.len(), 4);
        assert_eq!(poly.double_area(), 2 * r.area());
        assert_eq!(poly.bbox(), r);
        assert_eq!(poly.to_rects(), vec![r]);
        assert!(poly.signed_double_area() > 0);
    }

    #[test]
    fn l_shape_is_rectilinear() {
        let l = l_shape();
        assert_eq!(l.double_area(), 2 * (4 * 2 + 2 * 4));
        assert_eq!(l.bbox(), Rect::from_origin_size(p(0, 0), 4, 6).unwrap());
        assert_eq!(
            l.to_rects(),
            [
                Rect::new(p(0, 0), p(4, 2)).unwrap(),
                Rect::new(p(0, 2), p(2, 6)).unwrap(),
            ]
        );
    }

    #[test]
    fn non_rectilinear_detected() {
        assert_eq!(
            Polygon::new(vec![p(0, 0), p(4, 0), p(0, 4)]),
            Err(GeomError::NotManhattan {
                from: p(4, 0),
                to: p(0, 4)
            })
        );
        // The closing edge counts too.
        assert_eq!(
            Polygon::new(vec![p(0, 0), p(4, 0), p(4, 4), p(1, 4)]),
            Err(GeomError::NotManhattan {
                from: p(1, 4),
                to: p(0, 0)
            })
        );
    }

    #[test]
    fn transform_preserves_area() {
        let l = l_shape();
        let moved = l.transform(Transform::new(Orientation::R90, p(10, 10)));
        assert_eq!(moved.double_area(), l.double_area());
        // R90 is a proper rotation: winding preserved.
        assert_eq!(moved.signed_double_area(), l.signed_double_area());
        // Mirroring reverses winding.
        let mirrored = l.transform(Transform::new(Orientation::MX, Point::ORIGIN));
        assert_eq!(mirrored.signed_double_area(), -l.signed_double_area());
    }

    #[test]
    fn display_lists_vertices() {
        let t = Polygon::new(vec![p(0, 0), p(1, 0), p(1, 1), p(0, 1)]).unwrap();
        assert_eq!(t.to_string(), "poly[(0, 0) (1, 0) (1, 1) (0, 1)]");
    }
}
