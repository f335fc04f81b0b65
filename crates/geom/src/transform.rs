use crate::{Point, Rect, Vector};
use std::fmt;

/// One of the eight Manhattan symmetries: the dihedral group D4.
///
/// Hierarchical layout places each cell instance under one of these
/// orientations plus a translation. Closure under composition is what makes
/// arbitrary nesting of cells work, so the group operation
/// ([`compose`](Orientation::compose)) and inverses are provided and tested
/// for the group laws.
///
/// Naming: `R<n>` rotates counter-clockwise by `n` degrees; `M` variants
/// mirror about the y-axis (negate x) *before* rotating.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Orientation {
    /// Identity.
    #[default]
    R0,
    /// Rotate 90° counter-clockwise.
    R90,
    /// Rotate 180°.
    R180,
    /// Rotate 270° counter-clockwise.
    R270,
    /// Mirror x (reflect about the y-axis).
    MX,
    /// Mirror x then rotate 90°. Equals a reflection about the diagonal.
    MX90,
    /// Mirror x then rotate 180°. Equals mirror y.
    MX180,
    /// Mirror x then rotate 270°. Equals a reflection about the
    /// anti-diagonal.
    MX270,
}

impl Orientation {
    /// All eight orientations, identity first.
    pub const ALL: [Orientation; 8] = [
        Orientation::R0,
        Orientation::R90,
        Orientation::R180,
        Orientation::R270,
        Orientation::MX,
        Orientation::MX90,
        Orientation::MX180,
        Orientation::MX270,
    ];

    /// Applies the orientation to a displacement vector.
    pub fn apply(self, v: Vector) -> Vector {
        let Vector { x, y } = v;
        match self {
            Orientation::R0 => Vector::new(x, y),
            Orientation::R90 => Vector::new(-y, x),
            Orientation::R180 => Vector::new(-x, -y),
            Orientation::R270 => Vector::new(y, -x),
            Orientation::MX => Vector::new(-x, y),
            Orientation::MX90 => Vector::new(-y, -x),
            Orientation::MX180 => Vector::new(x, -y),
            Orientation::MX270 => Vector::new(y, x),
        }
    }

    /// Group composition: `a.compose(b)` applies `b` first, then `a`.
    pub fn compose(self, other: Orientation) -> Orientation {
        // Represent as (mirror, rotation quarter-turns): v -> R^r (M^m v).
        let (m1, r1) = self.decompose();
        let (m2, r2) = other.decompose();
        // self ∘ other: first M^m2 R^r2... careful: our canonical form is
        // "mirror first, then rotate". other = R^r2 M^m2, self = R^r1 M^m1.
        // self∘other = R^r1 M^m1 R^r2 M^m2. Use M R = R^-1 M to normalize:
        // M^m1 R^r2 = R^(r2 * sign) M^m1 where sign = -1 if m1 else +1.
        let r2_adj = if m1 { (4 - r2) % 4 } else { r2 };
        let r = (r1 + r2_adj) % 4;
        let m = m1 ^ m2;
        Orientation::recompose(m, r)
    }

    /// The inverse element: `o.compose(o.inverse()) == R0`.
    pub fn inverse(self) -> Orientation {
        for cand in Orientation::ALL {
            if self.compose(cand) == Orientation::R0 {
                return cand;
            }
        }
        unreachable!("every group element has an inverse")
    }

    /// True for the four reflected (improper) elements.
    pub fn is_mirrored(self) -> bool {
        matches!(
            self,
            Orientation::MX | Orientation::MX90 | Orientation::MX180 | Orientation::MX270
        )
    }

    fn decompose(self) -> (bool, u8) {
        match self {
            Orientation::R0 => (false, 0),
            Orientation::R90 => (false, 1),
            Orientation::R180 => (false, 2),
            Orientation::R270 => (false, 3),
            Orientation::MX => (true, 0),
            Orientation::MX90 => (true, 1),
            Orientation::MX180 => (true, 2),
            Orientation::MX270 => (true, 3),
        }
    }

    fn recompose(mirror: bool, rot: u8) -> Orientation {
        match (mirror, rot % 4) {
            (false, 0) => Orientation::R0,
            (false, 1) => Orientation::R90,
            (false, 2) => Orientation::R180,
            (false, 3) => Orientation::R270,
            (true, 0) => Orientation::MX,
            (true, 1) => Orientation::MX90,
            (true, 2) => Orientation::MX180,
            (true, 3) => Orientation::MX270,
            _ => unreachable!(),
        }
    }
}

impl fmt::Display for Orientation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Orientation::R0 => "R0",
            Orientation::R90 => "R90",
            Orientation::R180 => "R180",
            Orientation::R270 => "R270",
            Orientation::MX => "MX",
            Orientation::MX90 => "MX90",
            Orientation::MX180 => "MX180",
            Orientation::MX270 => "MX270",
        };
        f.write_str(s)
    }
}

/// A rigid placement: orientation followed by translation.
///
/// `Transform` maps cell-local coordinates into parent coordinates:
/// `p' = orient(p) + offset`. Composition follows function application
/// order: `(a * b)(p) = a(b(p))` — see [`Transform::then`].
///
/// # Example
///
/// ```
/// use silc_geom::{Orientation, Point, Transform, Vector};
/// let t = Transform::new(Orientation::R90, Point::new(5, 0));
/// assert_eq!(t.apply(Point::new(1, 0)), Point::new(5, 1));
/// let back = t.inverse();
/// assert_eq!(back.apply(t.apply(Point::new(2, 3))), Point::new(2, 3));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Transform {
    /// Orientation applied before translation.
    pub orientation: Orientation,
    /// Translation applied after orientation, in parent coordinates.
    pub offset: Point,
}

impl Transform {
    /// The identity placement.
    pub const IDENTITY: Transform = Transform {
        orientation: Orientation::R0,
        offset: Point::ORIGIN,
    };

    /// Creates a transform from an orientation and a final translation.
    pub const fn new(orientation: Orientation, offset: Point) -> Transform {
        Transform {
            orientation,
            offset,
        }
    }

    /// A pure translation.
    pub const fn translate(offset: Point) -> Transform {
        Transform {
            orientation: Orientation::R0,
            offset,
        }
    }

    /// Applies the transform to a point.
    pub fn apply(&self, p: Point) -> Point {
        let v = self.orientation.apply(p.to_vector());
        Point::new(v.x + self.offset.x, v.y + self.offset.y)
    }

    /// Applies the transform to a rectangle (the image of an axis-aligned
    /// rectangle under a Manhattan transform is axis-aligned).
    pub fn apply_rect(&self, r: Rect) -> Rect {
        let a = self.apply(r.min());
        let b = self.apply(r.max());
        Rect::new(a, b).expect("manhattan transform of a non-empty rect is non-empty")
    }

    /// Composition `self ∘ other`: apply `other` first, then `self`. This is
    /// the operation used when flattening hierarchy — a child instance's
    /// transform is composed under its parent's.
    pub fn then(&self, inner: Transform) -> Transform {
        Transform {
            orientation: self.orientation.compose(inner.orientation),
            offset: self.apply(inner.offset),
        }
    }

    /// The inverse placement.
    pub fn inverse(&self) -> Transform {
        let inv = self.orientation.inverse();
        let back = inv.apply(-self.offset.to_vector());
        Transform {
            orientation: inv,
            offset: back.to_point(),
        }
    }
}

impl fmt::Display for Transform {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} + {}", self.orientation, self.offset)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn rotations_act_correctly() {
        let v = Vector::new(1, 0);
        assert_eq!(Orientation::R0.apply(v), Vector::new(1, 0));
        assert_eq!(Orientation::R90.apply(v), Vector::new(0, 1));
        assert_eq!(Orientation::R180.apply(v), Vector::new(-1, 0));
        assert_eq!(Orientation::R270.apply(v), Vector::new(0, -1));
        assert_eq!(Orientation::MX.apply(v), Vector::new(-1, 0));
        assert_eq!(
            Orientation::MX180.apply(Vector::new(1, 2)),
            Vector::new(1, -2)
        );
    }

    #[test]
    fn composition_matches_sequential_application() {
        let v = Vector::new(3, 7);
        for a in Orientation::ALL {
            for b in Orientation::ALL {
                assert_eq!(
                    a.compose(b).apply(v),
                    a.apply(b.apply(v)),
                    "compose mismatch for {a} o {b}"
                );
            }
        }
    }

    #[test]
    fn group_laws() {
        // Identity, inverses, closure (closure is by construction).
        for a in Orientation::ALL {
            assert_eq!(a.compose(Orientation::R0), a);
            assert_eq!(Orientation::R0.compose(a), a);
            assert_eq!(a.compose(a.inverse()), Orientation::R0);
            assert_eq!(a.inverse().compose(a), Orientation::R0);
        }
        // Associativity on all triples.
        for a in Orientation::ALL {
            for b in Orientation::ALL {
                for c in Orientation::ALL {
                    assert_eq!(a.compose(b).compose(c), a.compose(b.compose(c)));
                }
            }
        }
    }

    #[test]
    fn mirror_elements_flagged() {
        assert!(!Orientation::R90.is_mirrored());
        assert!(Orientation::MX90.is_mirrored());
    }

    #[test]
    fn rect_transform_swaps_dimensions() {
        let r = Rect::from_origin_size(Point::new(0, 0), 4, 2).unwrap();
        let t = Transform::new(Orientation::R90, Point::ORIGIN);
        let rr = t.apply_rect(r);
        assert_eq!(rr.width(), 2);
        assert_eq!(rr.height(), 4);
        assert_eq!(rr.area(), r.area());
    }

    #[test]
    fn transform_then_matches_nested_application() {
        let inner = Transform::new(Orientation::R90, Point::new(3, 1));
        let outer = Transform::new(Orientation::MX, Point::new(-2, 5));
        let p = Point::new(7, -4);
        assert_eq!(outer.then(inner).apply(p), outer.apply(inner.apply(p)));
    }

    #[test]
    fn transform_inverse_roundtrips() {
        let ts = [
            Transform::IDENTITY,
            Transform::new(Orientation::R90, Point::new(10, -3)),
            Transform::new(Orientation::MX270, Point::new(-7, 2)),
        ];
        for t in ts {
            let p = Point::new(13, 21);
            assert_eq!(t.inverse().apply(t.apply(p)), p);
            assert_eq!(t.apply(t.inverse().apply(p)), p);
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(Orientation::MX90.to_string(), "MX90");
        let t = Transform::new(Orientation::R180, Point::new(1, 2));
        assert_eq!(t.to_string(), "R180 + (1, 2)");
    }

    fn arb_orientation() -> impl Strategy<Value = Orientation> {
        (0usize..8).prop_map(|i| Orientation::ALL[i])
    }

    proptest! {
        #[test]
        fn orientation_preserves_manhattan_length(
            o in arb_orientation(), x in -100i64..100, y in -100i64..100,
        ) {
            let v = Vector::new(x, y);
            prop_assert_eq!(o.apply(v).manhattan_length(), v.manhattan_length());
        }

        #[test]
        fn transform_preserves_rect_area(
            o in arb_orientation(),
            ox in -100i64..100, oy in -100i64..100,
            x in -50i64..50, y in -50i64..50, w in 1i64..30, h in 1i64..30,
        ) {
            let t = Transform::new(o, Point::new(ox, oy));
            let r = Rect::from_origin_size(Point::new(x, y), w, h).unwrap();
            prop_assert_eq!(t.apply_rect(r).area(), r.area());
        }

        #[test]
        fn then_is_associative(
            o1 in arb_orientation(), o2 in arb_orientation(), o3 in arb_orientation(),
            x1 in -20i64..20, y1 in -20i64..20,
            x2 in -20i64..20, y2 in -20i64..20,
            x3 in -20i64..20, y3 in -20i64..20,
        ) {
            let a = Transform::new(o1, Point::new(x1, y1));
            let b = Transform::new(o2, Point::new(x2, y2));
            let c = Transform::new(o3, Point::new(x3, y3));
            prop_assert_eq!(a.then(b).then(c), a.then(b.then(c)));
        }
    }
}
