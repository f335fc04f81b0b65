//! [`Fingerprint`] and [`Persist`] implementations for the layout
//! database: each type's byte form, and the decoder that reads it back.
//!
//! A [`Library`] fingerprint covers every cell in insertion order — name,
//! artwork, ports and instances — so any edit anywhere in the hierarchy
//! changes the digest, while an elaboration that reproduces the same
//! library byte-for-byte reproduces the same digest (the early-cutoff
//! property `silc-incr` relies on).
//!
//! Reading a library back is the one subtle case. `CellId`s are dense:
//! [`Library::add_cell`] hands out the next index, so a library read back
//! in insertion order mints the ids it was written with, and `add_cell`
//! itself rejects an instance that points at a cell not yet added (a
//! damaged entry is an error, never a dangling handle).

use crate::{Cell, CellId, Element, Instance, Layer, Library, Port, Shape};
use silc_geom::{
    persist, Dec, DecodeError, Fingerprint, FpHasher, Path, Persist, Polygon, Rect, Transform,
};

impl Fingerprint for Layer {
    fn fp_hash(&self, h: &mut FpHasher) {
        h.write_u8(self.index() as u8);
    }
}

impl Persist for Layer {
    fn decode(d: &mut Dec<'_>) -> Result<Self, DecodeError> {
        let idx = d.u8()? as usize;
        Layer::ALL
            .get(idx)
            .copied()
            .ok_or_else(|| format!("invalid layer index {idx}"))
    }
}

impl Fingerprint for CellId {
    fn fp_hash(&self, h: &mut FpHasher) {
        h.write_u32(self.raw());
    }
}

impl Persist for CellId {
    fn decode(d: &mut Dec<'_>) -> Result<Self, DecodeError> {
        Ok(CellId::from_raw(d.u32()?))
    }
}

impl Fingerprint for Shape {
    fn fp_hash(&self, h: &mut FpHasher) {
        match self {
            Shape::Rect(r) => {
                h.write_u8(0);
                r.fp_hash(h);
            }
            Shape::Polygon(p) => {
                h.write_u8(1);
                p.fp_hash(h);
            }
            Shape::Wire(w) => {
                h.write_u8(2);
                w.fp_hash(h);
            }
        }
    }
}

impl Persist for Shape {
    fn decode(d: &mut Dec<'_>) -> Result<Self, DecodeError> {
        match d.u8()? {
            0 => Ok(Shape::Rect(Rect::decode(d)?)),
            1 => Ok(Shape::Polygon(Polygon::decode(d)?)),
            2 => Ok(Shape::Wire(Path::decode(d)?)),
            t => Err(format!("invalid shape tag {t}")),
        }
    }
}

persist!(Element { layer, shape });

persist!(Port { name, layer, at });

impl Fingerprint for Instance {
    fn fp_hash(&self, h: &mut FpHasher) {
        self.cell.fp_hash(h);
        self.transform.fp_hash(h);
        h.write_u32(self.cols);
        h.write_u32(self.rows);
        h.write_i64(self.dx);
        h.write_i64(self.dy);
    }
}

impl Persist for Instance {
    fn decode(d: &mut Dec<'_>) -> Result<Self, DecodeError> {
        let target = CellId::decode(d)?;
        let transform = Transform::decode(d)?;
        let (cols, rows) = (d.u32()?, d.u32()?);
        let (dx, dy) = (d.i64()?, d.i64()?);
        Instance::array(target, transform, cols, rows, dx, dy)
            .map_err(|err| format!("invalid instance: {err}"))
    }
}

persist!(Cell {
    name,
    elements,
    instances,
    ports
});

impl Fingerprint for Library {
    fn fp_hash(&self, h: &mut FpHasher) {
        h.write_len(self.len());
        for (_, cell) in self.iter() {
            cell.fp_hash(h);
        }
    }
}

impl Persist for Library {
    fn decode(d: &mut Dec<'_>) -> Result<Self, DecodeError> {
        let mut library = Library::new();
        for _ in 0..d.len()? {
            library
                .add_cell(Cell::decode(d)?)
                .map_err(|err| format!("cannot rebuild library: {err}"))?;
        }
        Ok(library)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use silc_geom::Point;

    fn leaf(name: &str, w: i64) -> Cell {
        let mut c = Cell::new(name);
        c.push_element(Element::rect(
            Layer::Poly,
            Rect::from_origin_size(Point::new(0, 0), w, 2).unwrap(),
        ));
        c
    }

    #[test]
    fn identical_libraries_agree() {
        let build = || {
            let mut lib = Library::new();
            let a = lib.add_cell(leaf("a", 2)).unwrap();
            let mut top = leaf("top", 4);
            top.push_instance(Instance::place(a, Transform::IDENTITY));
            lib.add_cell(top).unwrap();
            lib
        };
        assert_eq!(build().fingerprint(), build().fingerprint());
    }

    #[test]
    fn any_edit_changes_the_digest() {
        let mut lib = Library::new();
        lib.add_cell(leaf("a", 2)).unwrap();
        let base = lib.fingerprint();

        let mut widened = Library::new();
        widened.add_cell(leaf("a", 3)).unwrap();
        assert_ne!(widened.fingerprint(), base);

        let mut renamed = Library::new();
        renamed.add_cell(leaf("b", 2)).unwrap();
        assert_ne!(renamed.fingerprint(), base);

        let mut with_port = Library::new();
        let mut cell = leaf("a", 2);
        cell.push_port(Port::new("out", Layer::Metal, Point::new(0, 0)));
        with_port.add_cell(cell).unwrap();
        assert_ne!(with_port.fingerprint(), base);
    }

    #[test]
    fn layer_digests_are_distinct() {
        let fps: Vec<_> = Layer::ALL.iter().map(|l| l.fingerprint()).collect();
        for (i, a) in fps.iter().enumerate() {
            for b in &fps[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }
}
