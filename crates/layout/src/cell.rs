use crate::{CellId, Element, Layer, LayoutError};
use silc_geom::{Coord, Point, Transform};
use std::fmt;

/// A named connection point on a cell boundary.
///
/// Ports are the structural half of the paper's "unification of the
/// structural and physical hierarchies": the chip assembler and routers
/// connect cells port-to-port, and the extractor labels extracted nets by
/// the ports they touch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Port {
    /// Signal name, unique within the cell.
    pub name: String,
    /// The conducting layer the port presents.
    pub layer: Layer,
    /// Location in cell-local coordinates.
    pub at: Point,
}

impl Port {
    /// Creates a port.
    pub fn new(name: impl Into<String>, layer: Layer, at: Point) -> Port {
        Port {
            name: name.into(),
            layer,
            at,
        }
    }
}

impl fmt::Display for Port {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}@{}", self.name, self.layer, self.at)
    }
}

/// A placement of one cell inside another, optionally replicated into a
/// `cols` × `rows` array with pitches `dx`, `dy` (the *repetition* facility
/// the paper requires of graphics languages).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Instance {
    /// The instantiated cell.
    pub cell: CellId,
    /// Placement of array element (0, 0) in parent coordinates.
    pub transform: Transform,
    /// Columns of replication (>= 1).
    pub cols: u32,
    /// Rows of replication (>= 1).
    pub rows: u32,
    /// Column pitch in parent coordinates.
    pub dx: Coord,
    /// Row pitch in parent coordinates.
    pub dy: Coord,
}

impl Instance {
    /// A single (non-arrayed) placement.
    pub fn place(cell: CellId, transform: Transform) -> Instance {
        Instance {
            cell,
            transform,
            cols: 1,
            rows: 1,
            dx: 0,
            dy: 0,
        }
    }

    /// An arrayed placement.
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError::BadArray`] if `cols` or `rows` is zero.
    pub fn array(
        cell: CellId,
        transform: Transform,
        cols: u32,
        rows: u32,
        dx: Coord,
        dy: Coord,
    ) -> Result<Instance, LayoutError> {
        if cols == 0 || rows == 0 {
            return Err(LayoutError::BadArray { cols, rows });
        }
        Ok(Instance {
            cell,
            transform,
            cols,
            rows,
            dx,
            dy,
        })
    }

    /// Number of copies this instance expands to.
    pub fn count(&self) -> u64 {
        u64::from(self.cols) * u64::from(self.rows)
    }

    /// Iterates over the effective transforms of every array element, row
    /// by row.
    pub fn placements(&self) -> impl Iterator<Item = Transform> + '_ {
        let base = self.transform;
        let (dx, dy) = (self.dx, self.dy);
        let cols = self.cols;
        (0..self.rows).flat_map(move |r| {
            (0..cols).map(move |c| {
                let shift = Point::new(
                    base.offset.x + dx * Coord::from(c),
                    base.offset.y + dy * Coord::from(r),
                );
                Transform::new(base.orientation, shift)
            })
        })
    }
}

/// A design cell: named artwork plus sub-cell instances plus ports.
///
/// # Example
///
/// ```
/// use silc_layout::{Cell, Element, Layer};
/// use silc_geom::{Point, Rect};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut c = Cell::new("pullup");
/// c.push_element(Element::rect(Layer::Poly, Rect::new(Point::new(0,0), Point::new(2,6))?));
/// assert_eq!(c.elements().len(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cell {
    pub(crate) name: String,
    pub(crate) elements: Vec<Element>,
    pub(crate) instances: Vec<Instance>,
    pub(crate) ports: Vec<Port>,
}

impl Cell {
    /// Creates an empty cell with the given name.
    pub fn new(name: impl Into<String>) -> Cell {
        Cell {
            name: name.into(),
            elements: Vec::new(),
            instances: Vec::new(),
            ports: Vec::new(),
        }
    }

    /// The cell's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The cell's own mask artwork (not including sub-cells).
    pub fn elements(&self) -> &[Element] {
        &self.elements
    }

    /// Sub-cell placements.
    pub fn instances(&self) -> &[Instance] {
        &self.instances
    }

    /// Declared connection points.
    pub fn ports(&self) -> &[Port] {
        &self.ports
    }

    /// Adds a piece of artwork.
    pub fn push_element(&mut self, e: Element) {
        self.elements.push(e);
    }

    /// Adds a sub-cell placement, unchecked: [`crate::Library::add_cell`]
    /// validates it when the cell is added.
    pub fn push_instance(&mut self, i: Instance) {
        self.instances.push(i);
    }

    /// Declares a port.
    pub fn push_port(&mut self, p: Port) {
        self.ports.push(p);
    }

    /// Finds a port by name.
    pub fn port(&self, name: &str) -> Option<&Port> {
        self.ports.iter().find(|p| p.name == name)
    }
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cell {} ({} elements, {} instances, {} ports)",
            self.name,
            self.elements.len(),
            self.instances.len(),
            self.ports.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use silc_geom::Orientation;

    #[test]
    fn array_validation() {
        let id = CellId::from_raw(0);
        assert!(Instance::array(id, Transform::IDENTITY, 0, 1, 5, 5).is_err());
        assert!(Instance::array(id, Transform::IDENTITY, 1, 0, 5, 5).is_err());
        let a = Instance::array(id, Transform::IDENTITY, 3, 2, 10, 20).unwrap();
        assert_eq!(a.count(), 6);
    }

    #[test]
    fn placements_walk_the_grid() {
        let id = CellId::from_raw(0);
        let base = Transform::new(Orientation::R90, Point::new(100, 50));
        let a = Instance::array(id, base, 2, 2, 10, 20).unwrap();
        let offsets: Vec<_> = a.placements().map(|t| t.offset).collect();
        assert_eq!(
            offsets,
            vec![
                Point::new(100, 50),
                Point::new(110, 50),
                Point::new(100, 70),
                Point::new(110, 70),
            ]
        );
        // Orientation is preserved across the array.
        assert!(a.placements().all(|t| t.orientation == Orientation::R90));
    }

    #[test]
    fn single_placement() {
        let id = CellId::from_raw(3);
        let i = Instance::place(id, Transform::IDENTITY);
        assert_eq!(i.count(), 1);
        assert_eq!(i.placements().count(), 1);
    }

    #[test]
    fn ports_lookup() {
        let mut c = Cell::new("t");
        c.push_port(Port::new("vdd", Layer::Metal, Point::new(0, 10)));
        c.push_port(Port::new("gnd", Layer::Metal, Point::new(0, 0)));
        assert_eq!(c.port("vdd").unwrap().at, Point::new(0, 10));
        assert!(c.port("clk").is_none());
    }

    #[test]
    fn display_counts() {
        let c = Cell::new("adder");
        assert_eq!(
            c.to_string(),
            "cell adder (0 elements, 0 instances, 0 ports)"
        );
    }
}
