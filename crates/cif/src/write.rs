use crate::CifError;
use silc_geom::{Orientation, Transform};
use silc_layout::{CellId, Library, Shape};
use silc_trace::{span, Tracer};
use std::fmt::Write as _;

/// Serialises a layout hierarchy to CIF 2.0 text.
///
/// The writer assigns each cell a symbol number (its [`CellId`] + 1, since
/// CIF symbol numbers start at 1), emits `DS`/`DF` definitions bottom-up,
/// records cell names as `9 name;` user-extension commands, and finishes
/// with a call of the root symbol and the `E` end marker.
///
/// Coordinates: cell geometry is in lambda; the writer doubles every
/// coordinate and halves the symbol scale factor (`DS n scale/2 1`) so that
/// box centres are exact integers even for odd-lambda rectangles. The
/// physical meaning is 250 centimicrons (2.5 µm) per lambda, the generous
/// late-seventies lambda the Mead–Conway text uses in examples.
///
/// # Example
///
/// ```
/// use silc_cif::CifWriter;
/// use silc_layout::{Cell, Element, Layer, Library};
/// use silc_geom::{Point, Rect};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut lib = Library::new();
/// let mut c = Cell::new("box");
/// c.push_element(Element::rect(Layer::Metal, Rect::new(Point::new(0,0), Point::new(4,4))?));
/// let id = lib.add_cell(c)?;
/// let text = CifWriter::new().write_to_string(&lib, id)?;
/// assert!(text.contains("L NM;"));
/// assert!(text.trim_end().ends_with("E"));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct CifWriter {
    tracer: Tracer,
}

/// The physical scale every written file declares; even, so the
/// doubled-coordinate convention's `scale/2` is exact.
const CENTIMICRONS_PER_LAMBDA: i64 = 250;

impl CifWriter {
    /// Creates a writer at 250 centimicrons (2.5 µm) per lambda.
    pub fn new() -> CifWriter {
        CifWriter::default()
    }

    /// Attaches a [`Tracer`]: writes record a `cif.write` span plus
    /// `cif.symbols` and `cif.bytes` counters.
    #[must_use]
    pub fn with_tracer(mut self, tracer: Tracer) -> CifWriter {
        self.tracer = tracer;
        self
    }

    /// Writes the hierarchy reachable from `root` and returns the CIF text.
    ///
    /// # Errors
    ///
    /// Returns [`CifError::UnknownRoot`] if `root` is not in `lib`.
    pub fn write_to_string(&self, lib: &Library, root: CellId) -> Result<String, CifError> {
        let mut write_span = span!(self.tracer, "cif.write");
        if lib.cell(root).is_none() {
            return Err(CifError::UnknownRoot);
        }
        // Emit only cells reachable from the root, children first.
        let mut needed = vec![false; lib.len()];
        mark_reachable(lib, root, &mut needed);
        let mut out = String::new();
        let _ = writeln!(
            out,
            "( SILC silicon compiler output, {CENTIMICRONS_PER_LAMBDA} centimicrons per lambda );"
        );
        let mut symbols = 0u64;
        for id in lib.topological_order() {
            if !needed[id.raw() as usize] {
                continue;
            }
            self.write_symbol(lib, id, &mut out);
            symbols += 1;
        }
        let _ = writeln!(out, "C {} T 0 0;", symbol_number(root));
        out.push_str("E\n");
        write_span.attr("symbols", symbols);
        write_span.attr("bytes", out.len() as u64);
        self.tracer.add("cif.symbols", symbols);
        self.tracer.add("cif.bytes", out.len() as u64);
        Ok(out)
    }

    fn write_symbol(&self, lib: &Library, id: CellId, out: &mut String) {
        let cell = lib.cell(id).expect("reachable cells exist");
        let half_scale = CENTIMICRONS_PER_LAMBDA / 2;
        let _ = writeln!(out, "DS {} {} 1;", symbol_number(id), half_scale);
        let _ = writeln!(out, "9 {};", cell.name());
        // Group elements by layer to minimise L commands.
        let mut by_layer: Vec<(silc_layout::Layer, Vec<&Shape>)> = Vec::new();
        for e in cell.elements() {
            match by_layer.iter_mut().find(|(l, _)| *l == e.layer) {
                Some((_, v)) => v.push(&e.shape),
                None => by_layer.push((e.layer, vec![&e.shape])),
            }
        }
        for (layer, shapes) in &by_layer {
            let _ = writeln!(out, "L {};", layer.cif_name());
            for shape in shapes {
                self.write_shape(shape, out);
            }
        }
        // Ports as `94` point labels (the standard CIF label extension),
        // in doubled coordinates like all other symbol geometry.
        for port in cell.ports() {
            let _ = writeln!(
                out,
                "94 {} {} {} {};",
                port.name,
                2 * port.at.x,
                2 * port.at.y,
                port.layer.cif_name()
            );
        }
        for inst in cell.instances() {
            for t in inst.placements() {
                let _ = writeln!(
                    out,
                    "C {}{};",
                    symbol_number(inst.cell),
                    transform_clauses(t)
                );
            }
        }
        let _ = writeln!(out, "DF;");
    }

    fn write_shape(&self, shape: &Shape, out: &mut String) {
        match shape {
            Shape::Rect(r) => {
                // Doubled coordinates: length = 2w, centre = (min+max).
                let (cx2, cy2) = r.center_doubled();
                let _ = writeln!(
                    out,
                    "B {} {} {} {};",
                    2 * r.width(),
                    2 * r.height(),
                    cx2,
                    cy2
                );
            }
            Shape::Polygon(p) => {
                let _ = write!(out, "P");
                for v in p.vertices() {
                    let _ = write!(out, " {} {}", 2 * v.x, 2 * v.y);
                }
                let _ = writeln!(out, ";");
            }
            Shape::Wire(w) => {
                let _ = write!(out, "W {}", 2 * w.width());
                for v in w.points() {
                    let _ = write!(out, " {} {}", 2 * v.x, 2 * v.y);
                }
                let _ = writeln!(out, ";");
            }
        }
    }
}

fn symbol_number(id: CellId) -> u64 {
    u64::from(id.raw()) + 1
}

fn mark_reachable(lib: &Library, id: CellId, needed: &mut [bool]) {
    let idx = id.raw() as usize;
    if needed[idx] {
        return;
    }
    needed[idx] = true;
    for inst in lib.cell(id).expect("valid id").instances() {
        mark_reachable(lib, inst.cell, needed);
    }
}

/// Renders a placement as CIF transformation clauses, applied left to
/// right: mirror, then rotate, then translate — matching the
/// mirror-then-rotate decomposition of [`Orientation`].
fn transform_clauses(t: Transform) -> String {
    let mut s = String::new();
    if t.orientation.is_mirrored() {
        s.push_str(" M X");
    }
    let d = match t.orientation {
        Orientation::R0 | Orientation::MX => None,
        Orientation::R90 | Orientation::MX90 => Some((0, 1)),
        Orientation::R180 | Orientation::MX180 => Some((-1, 0)),
        Orientation::R270 | Orientation::MX270 => Some((0, -1)),
    };
    if let Some((a, b)) = d {
        let _ = write!(s, " R {a} {b}");
    }
    // Call offsets are in the *defining* symbol's units, i.e. doubled
    // lambda under our convention.
    let _ = write!(s, " T {} {}", 2 * t.offset.x, 2 * t.offset.y);
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use silc_geom::{Path, Point, Polygon, Rect};
    use silc_layout::{Cell, Element, Instance, Layer};

    fn rect(x: i64, y: i64, w: i64, h: i64) -> Rect {
        Rect::from_origin_size(Point::new(x, y), w, h).unwrap()
    }

    fn one_cell_lib() -> (Library, CellId) {
        let mut lib = Library::new();
        let mut c = Cell::new("unit");
        c.push_element(Element::rect(Layer::Diffusion, rect(0, 0, 2, 8)));
        let id = lib.add_cell(c).unwrap();
        (lib, id)
    }

    #[test]
    fn header_and_end_marker() {
        let (lib, id) = one_cell_lib();
        let text = CifWriter::new().write_to_string(&lib, id).unwrap();
        assert!(text.starts_with("( SILC"));
        assert!(text.contains("9 unit;"), "{text}");
        assert!(text.trim_end().ends_with('E'));
    }

    #[test]
    fn box_uses_doubled_coordinates() {
        let (lib, id) = one_cell_lib();
        let text = CifWriter::new().write_to_string(&lib, id).unwrap();
        // 2x8 box at (0..2, 0..8): doubled length 4, width 16, centre (2, 8).
        assert!(text.contains("B 4 16 2 8;"), "{text}");
        // Half scale of 250 is 125.
        assert!(text.contains("DS 1 125 1;"), "{text}");
    }

    #[test]
    fn odd_rect_centre_is_exact() {
        let mut lib = Library::new();
        let mut c = Cell::new("odd");
        c.push_element(Element::rect(Layer::Poly, rect(0, 0, 3, 5)));
        let id = lib.add_cell(c).unwrap();
        let text = CifWriter::new().write_to_string(&lib, id).unwrap();
        assert!(text.contains("B 6 10 3 5;"), "{text}");
    }

    #[test]
    fn unknown_root_rejected() {
        let lib = Library::new();
        assert!(matches!(
            CifWriter::new().write_to_string(&lib, CellId::from_raw(0)),
            Err(CifError::UnknownRoot)
        ));
    }

    #[test]
    fn hierarchy_emits_calls_children_first() {
        let (mut lib, unit) = one_cell_lib();
        let mut row = Cell::new("row");
        row.push_instance(Instance::array(unit, Transform::IDENTITY, 3, 1, 10, 0).unwrap());
        let row_id = lib.add_cell(row).unwrap();
        let text = CifWriter::new().write_to_string(&lib, row_id).unwrap();
        let unit_pos = text.find("DS 1 ").unwrap();
        let row_pos = text.find("DS 2 ").unwrap();
        assert!(unit_pos < row_pos, "children must be defined first");
        // Array expands into three calls at doubled offsets 0, 20, 40.
        assert!(text.contains("C 1 T 0 0;"));
        assert!(text.contains("C 1 T 20 0;"));
        assert!(text.contains("C 1 T 40 0;"));
        // Root call at the end.
        assert!(text.contains("C 2 T 0 0;"));
    }

    #[test]
    fn orientations_render_mirror_then_rotate() {
        let (mut lib, unit) = one_cell_lib();
        let mut top = Cell::new("top");
        top.push_instance(Instance::place(
            unit,
            Transform::new(Orientation::MX90, Point::new(5, 6)),
        ));
        let top_id = lib.add_cell(top).unwrap();
        let text = CifWriter::new().write_to_string(&lib, top_id).unwrap();
        assert!(text.contains("C 1 M X R 0 1 T 10 12;"), "{text}");
    }

    #[test]
    fn wires_and_polygons_doubled() {
        let mut lib = Library::new();
        let mut c = Cell::new("mix");
        c.push_element(Element::new(
            Layer::Metal,
            Path::new(3, vec![Point::new(0, 0), Point::new(7, 0)]).unwrap(),
        ));
        c.push_element(Element::new(
            Layer::Poly,
            Polygon::new(vec![Point::new(0, 0), Point::new(4, 0), Point::new(0, 4)]).unwrap(),
        ));
        let id = lib.add_cell(c).unwrap();
        let text = CifWriter::new().write_to_string(&lib, id).unwrap();
        assert!(text.contains("W 6 0 0 14 0;"), "{text}");
        assert!(text.contains("P 0 0 8 0 0 8;"), "{text}");
    }

    #[test]
    fn unreachable_cells_not_emitted() {
        let (mut lib, unit) = one_cell_lib();
        let orphan = Cell::new("orphan");
        lib.add_cell(orphan).unwrap();
        let text = CifWriter::new().write_to_string(&lib, unit).unwrap();
        assert!(!text.contains("orphan"));
    }
}
