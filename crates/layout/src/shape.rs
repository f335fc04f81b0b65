use crate::Layer;
use silc_geom::{Path, Polygon, Rect, Transform};
use std::fmt;

/// A mask shape: rectangle, polygon, or wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Shape {
    /// An axis-aligned box — the overwhelmingly common case.
    Rect(Rect),
    /// A simple rectilinear polygon.
    Polygon(Polygon),
    /// A Manhattan wire: centre line swept by a square pen (CIF `W`).
    Wire(Path),
}

impl Shape {
    /// Axis-aligned bounding box.
    pub fn bbox(&self) -> Rect {
        match self {
            Shape::Rect(r) => *r,
            Shape::Polygon(p) => p.bbox(),
            Shape::Wire(w) => w.bbox(),
        }
    }

    /// Maps the shape through a placement transform.
    pub fn transform(&self, t: Transform) -> Shape {
        match self {
            Shape::Rect(r) => Shape::Rect(t.apply_rect(*r)),
            Shape::Polygon(p) => Shape::Polygon(p.transform(t)),
            Shape::Wire(w) => Shape::Wire(w.transform(t)),
        }
    }

    /// Decomposes the shape into rectangles covering exactly its mask
    /// area: a rect maps to itself, a wire to one rect per segment
    /// ([`Path::to_rects`]), a polygon to horizontal bands
    /// ([`Polygon::to_rects`]). Wires and polygons are Manhattan by
    /// construction, so no shape is approximated.
    pub fn to_rects(&self) -> Vec<Rect> {
        match self {
            Shape::Rect(r) => vec![*r],
            Shape::Wire(w) => w.to_rects(),
            Shape::Polygon(p) => p.to_rects(),
        }
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Shape::Rect(r) => write!(f, "{r}"),
            Shape::Polygon(p) => write!(f, "{p}"),
            Shape::Wire(w) => write!(f, "{w}"),
        }
    }
}

impl From<Rect> for Shape {
    fn from(r: Rect) -> Shape {
        Shape::Rect(r)
    }
}

impl From<Polygon> for Shape {
    fn from(p: Polygon) -> Shape {
        Shape::Polygon(p)
    }
}

impl From<Path> for Shape {
    fn from(w: Path) -> Shape {
        Shape::Wire(w)
    }
}

/// A layer-tagged shape: one piece of mask artwork.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Element {
    /// Mask layer the shape is drawn on.
    pub layer: Layer,
    /// The geometry.
    pub shape: Shape,
}

impl Element {
    /// Creates an element from any shape-convertible geometry.
    pub fn new(layer: Layer, shape: impl Into<Shape>) -> Element {
        Element {
            layer,
            shape: shape.into(),
        }
    }

    /// Convenience constructor for the common box case.
    pub fn rect(layer: Layer, r: Rect) -> Element {
        Element {
            layer,
            shape: Shape::Rect(r),
        }
    }

    /// Bounding box of the artwork.
    pub fn bbox(&self) -> Rect {
        self.shape.bbox()
    }

    /// The element mapped through a placement transform.
    pub fn transform(&self, t: Transform) -> Element {
        Element {
            layer: self.layer,
            shape: self.shape.transform(t),
        }
    }
}

impl fmt::Display for Element {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.layer, self.shape)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use silc_geom::{Orientation, Point};

    fn p(x: i64, y: i64) -> Point {
        Point::new(x, y)
    }

    #[test]
    fn rect_shape_roundtrip() {
        let r = Rect::from_origin_size(p(0, 0), 4, 2).unwrap();
        let s: Shape = r.into();
        assert_eq!(s.bbox(), r);
        assert_eq!(s.to_rects(), vec![r]);
    }

    #[test]
    fn wire_decomposition() {
        let w = Path::new(2, vec![p(0, 0), p(10, 0)]).unwrap();
        let s: Shape = w.into();
        assert_eq!(s.to_rects().len(), 1);
    }

    #[test]
    fn l_polygon_decomposes_exactly() {
        // L shape: area 4*2 + 2*4 = 16.
        let l = Polygon::new(vec![p(0, 0), p(4, 0), p(4, 2), p(2, 2), p(2, 6), p(0, 6)]).unwrap();
        let s: Shape = l.clone().into();
        let rects = s.to_rects();
        let total: i64 = rects.iter().map(|r| r.area()).sum();
        assert_eq!(total * 2, l.double_area());
        // Disjoint.
        for (i, a) in rects.iter().enumerate() {
            for b in &rects[i + 1..] {
                assert!(!a.overlaps(*b), "{a} overlaps {b}");
            }
        }
        // Every rect lies inside the polygon's bounding box and none
        // covers the notch above the foot.
        let notch = Rect::new(p(2, 2), p(4, 6)).unwrap();
        for r in &rects {
            assert!(l.bbox().contains_rect(*r) && !r.overlaps(notch), "{r}");
        }
    }

    #[test]
    fn u_polygon_decomposes_exactly() {
        // U shape with two prongs: tests bands with multiple spans.
        let u = Polygon::new(vec![
            p(0, 0),
            p(6, 0),
            p(6, 6),
            p(4, 6),
            p(4, 2),
            p(2, 2),
            p(2, 6),
            p(0, 6),
        ])
        .unwrap();
        let rects = Shape::from(u.clone()).to_rects();
        let total: i64 = rects.iter().map(|r| r.area()).sum();
        assert_eq!(total * 2, u.double_area());
        // Some band must produce two spans.
        assert!(rects.len() >= 3);
    }

    #[test]
    fn element_transform_moves_bbox() {
        let e = Element::rect(Layer::Poly, Rect::from_origin_size(p(0, 0), 2, 6).unwrap());
        let t = Transform::new(Orientation::R90, p(10, 0));
        let moved = e.transform(t);
        assert_eq!(moved.layer, Layer::Poly);
        assert_eq!(moved.bbox().width(), 6);
        assert_eq!(moved.bbox().height(), 2);
    }

    #[test]
    fn display_forms() {
        let e = Element::rect(Layer::Metal, Rect::from_origin_size(p(0, 0), 1, 1).unwrap());
        assert_eq!(e.to_string(), "metal [(0, 0) .. (1, 1)]");
    }
}
