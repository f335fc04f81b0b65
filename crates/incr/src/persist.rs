//! [`Persist`] implementations for pipeline types owned by other crates:
//! each is `decode` only — the byte form is the type's own `fp_hash`.
//!
//! The layout [`Library`] is the only subtle case. `CellId`s are dense:
//! [`Library::add_cell`] hands out the next index, so a library read
//! back in insertion order mints the ids it was written with, and
//! `add_cell` itself rejects an instance that points at a cell not yet
//! added (a damaged entry is an error, never a dangling handle).

use crate::codec::{Dec, DecodeError, Persist};
use silc_drc::{Report, RuleKind, Violation};
use silc_geom::{Path, Point, Polygon, Rect, Transform};
use silc_lang::Design;
use silc_layout::{Cell, CellId, Element, Instance, Layer, Library, Port, Shape};

impl Persist for Layer {
    fn decode(d: &mut Dec<'_>) -> Result<Self, DecodeError> {
        let idx = d.u8()? as usize;
        Layer::ALL
            .get(idx)
            .copied()
            .ok_or_else(|| format!("invalid layer index {idx}"))
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

impl Persist for Element {
    fn decode(d: &mut Dec<'_>) -> Result<Self, DecodeError> {
        Ok(Element {
            layer: Layer::decode(d)?,
            shape: Shape::decode(d)?,
        })
    }
}

impl Persist for CellId {
    fn decode(d: &mut Dec<'_>) -> Result<Self, DecodeError> {
        Ok(CellId::from_raw(d.u32()?))
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

impl Persist for Port {
    fn decode(d: &mut Dec<'_>) -> Result<Self, DecodeError> {
        Ok(Port::new(d.str()?, Layer::decode(d)?, Point::decode(d)?))
    }
}

impl Persist for Cell {
    fn decode(d: &mut Dec<'_>) -> Result<Self, DecodeError> {
        let mut cell = Cell::new(d.str()?);
        for element in Vec::<Element>::decode(d)? {
            cell.push_element(element);
        }
        for instance in Vec::<Instance>::decode(d)? {
            cell.push_instance(instance);
        }
        for port in Vec::<Port>::decode(d)? {
            cell.push_port(port);
        }
        Ok(cell)
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

impl Persist for Design {
    fn decode(d: &mut Dec<'_>) -> Result<Self, DecodeError> {
        let library = Library::decode(d)?;
        let top = CellId::decode(d)?;
        if library.cell(top).is_none() {
            return Err(format!("top cell id {} not in library", top.raw()));
        }
        Ok(Design { library, top })
    }
}

impl Persist for RuleKind {
    fn decode(d: &mut Dec<'_>) -> Result<Self, DecodeError> {
        Ok(match d.u8()? {
            0 => RuleKind::MinWidth {
                layer: Layer::decode(d)?,
                required: d.i64()?,
            },
            1 => RuleKind::MinSpacing {
                a: Layer::decode(d)?,
                b: Layer::decode(d)?,
                required: d.i64()?,
            },
            2 => RuleKind::ContactMetalSurround { required: d.i64()? },
            3 => RuleKind::ContactLowerSurround { required: d.i64()? },
            4 => RuleKind::GateOverhang {
                poly: d.i64()?,
                diff: d.i64()?,
            },
            t => return Err(format!("invalid rule kind tag {t}")),
        })
    }
}

impl Persist for Violation {
    fn decode(d: &mut Dec<'_>) -> Result<Self, DecodeError> {
        Ok(Violation {
            rule: RuleKind::decode(d)?,
            at: Rect::decode(d)?,
        })
    }
}

impl Persist for Report {
    fn decode(d: &mut Dec<'_>) -> Result<Self, DecodeError> {
        Ok(Report {
            rules: d.str()?,
            violations: Vec::<Violation>::decode(d)?,
            rects_checked: d.u64()? as usize,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::Enc;
    use silc_geom::Fingerprint;
    use silc_lang::Compiler;

    fn round_trip<T: Persist>(v: &T) -> T {
        let mut e = Enc::new();
        v.encode(&mut e);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        let back = T::decode(&mut d).unwrap();
        assert!(d.is_done());
        back
    }

    #[test]
    fn design_round_trips_by_fingerprint() {
        let design = Compiler::new()
            .compile(
                "cell pair() {
                     box metal (0,0) (8,4);
                     wire poly 2 (0,0) (10,0) (10,6);
                     port a metal (1,1);
                 }
                 cell top2() { place pair() at (0,0); place pair() at (30,0) rot 90; }
                 array top2() at (0,0) step (80, 0) count 2;",
            )
            .unwrap();
        let back = round_trip(&design);
        assert_eq!(back.fingerprint(), design.fingerprint());
        assert_eq!(back.library.len(), design.library.len());
    }

    #[test]
    fn report_round_trips() {
        let report = Report {
            rules: "mead-conway-nmos".into(),
            violations: vec![
                Violation {
                    rule: RuleKind::MinWidth {
                        layer: Layer::Poly,
                        required: 2,
                    },
                    at: Rect::new(Point::new(0, 0), Point::new(1, 4)).unwrap(),
                },
                Violation {
                    rule: RuleKind::GateOverhang { poly: 2, diff: 2 },
                    at: Rect::new(Point::new(5, 5), Point::new(9, 9)).unwrap(),
                },
            ],
            rects_checked: 123,
        };
        let back = round_trip(&report);
        assert_eq!(back, report);
    }

    #[test]
    fn dangling_instance_target_is_an_error_not_a_panic() {
        // A cell with an instance pointing at a not-yet-seen id.
        let design = Compiler::new()
            .compile("cell a() { box metal (0,0) (4,4); } place a() at (0,0);")
            .unwrap();
        let mut e = Enc::new();
        design.encode(&mut e);
        let mut bytes = e.into_bytes();
        // Corrupt every u32 that could be a cell id reference; decode must
        // either succeed or error cleanly, never panic.
        for i in 0..bytes.len() {
            let saved = bytes[i];
            bytes[i] = bytes[i].wrapping_add(1);
            let _ = Design::decode(&mut Dec::new(&bytes));
            bytes[i] = saved;
        }
    }
}
