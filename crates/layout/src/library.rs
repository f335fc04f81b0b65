use crate::{Cell, LayoutError};
use std::collections::HashMap;
use std::fmt;

/// Opaque handle to a [`Cell`] stored in a [`Library`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CellId(u32);

impl CellId {
    /// Builds an id from its raw index. Only useful in tests and
    /// serialization code; ordinary code receives ids from
    /// [`Library::add_cell`].
    pub const fn from_raw(raw: u32) -> CellId {
        CellId(raw)
    }

    /// The raw index.
    pub const fn raw(self) -> u32 {
        self.0
    }
}

/// An arena of cells forming a design hierarchy.
///
/// The library owns all cells; instances refer to cells by [`CellId`].
/// Structural invariants maintained:
///
/// * cell names are unique ([`LayoutError::DuplicateCellName`]), and
///   [`add_cell_renamed`](Library::add_cell_renamed) picks a free one;
/// * ids run children before parents: a cell may only place cells added
///   before it ([`LayoutError::UnknownCell`]), so the hierarchy is a DAG
///   and ascending id order is a bottom-up order.
#[derive(Debug, Clone, Default)]
pub struct Library {
    cells: Vec<Cell>,
    by_name: HashMap<String, CellId>,
    /// Per suffix prefix (`base_`, `base$imp`), the last number handed
    /// out: every name up to it is taken, and names are never removed.
    last_suffix: HashMap<String, u32>,
}

impl Library {
    /// Creates an empty library.
    pub fn new() -> Library {
        Library::default()
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True when no cells have been added.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Adds a cell, validating its name and any instances it already
    /// carries.
    ///
    /// # Errors
    ///
    /// * [`LayoutError::DuplicateCellName`] if the name is taken.
    /// * [`LayoutError::UnknownCell`] if an instance refers outside the
    ///   library (a fresh cell can only instantiate cells added before it,
    ///   which also guarantees acyclicity).
    pub fn add_cell(&mut self, cell: Cell) -> Result<CellId, LayoutError> {
        if self.by_name.contains_key(cell.name()) {
            return Err(LayoutError::DuplicateCellName {
                name: cell.name().to_string(),
            });
        }
        for inst in cell.instances() {
            if inst.cell.raw() as usize >= self.cells.len() {
                return Err(LayoutError::UnknownCell { id: inst.cell });
            }
        }
        let id = CellId(self.cells.len() as u32);
        self.by_name.insert(cell.name().to_string(), id);
        self.cells.push(cell);
        Ok(id)
    }

    /// Looks up a cell by id.
    pub fn cell(&self, id: CellId) -> Option<&Cell> {
        self.cells.get(id.raw() as usize)
    }

    /// Looks up a cell id by name.
    pub fn cell_by_name(&self, name: &str) -> Option<CellId> {
        self.by_name.get(name).copied()
    }

    /// Iterates over `(id, cell)` pairs in id order: children before
    /// parents.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = (CellId, &Cell)> + ExactSizeIterator {
        self.cells
            .iter()
            .enumerate()
            .map(|(i, c)| (CellId(i as u32), c))
    }

    /// How many copies of each cell, indexed by raw id, the design under
    /// `root` flattens to; 0 for a cell the design does not use. One sweep
    /// from `root` down to id 0 finds them: a parent's id is above its
    /// children's, so its count is final before it is passed on. Counts
    /// saturate at `u64::MAX`; all are 0 when `root` is not in the library.
    pub fn copies(&self, root: CellId) -> Vec<u64> {
        let root = root.raw() as usize;
        let mut copies = vec![0u64; self.cells.len()];
        let Some(n) = copies.get_mut(root) else {
            return copies;
        };
        *n = 1;
        for id in (0..=root).rev() {
            let n = copies[id];
            for inst in self.cells[id].instances().iter().filter(|_| n > 0) {
                let slot = &mut copies[inst.cell.raw() as usize];
                *slot = slot.saturating_add(n.saturating_mul(inst.count()));
            }
        }
        copies
    }

    /// Adds `cell` under the first free name of `name`, `name_1`,
    /// `name_2`, …, checked against every name in the library: how a SIL
    /// variant, a SIL top cell and a CIF symbol get a name of their own.
    ///
    /// # Errors
    ///
    /// [`LayoutError::UnknownCell`], as for [`add_cell`](Self::add_cell).
    pub fn add_cell_renamed(&mut self, cell: Cell) -> Result<CellId, LayoutError> {
        self.add_suffixed(cell, "_")
    }

    /// Adds `cell` under its own name if that is free, else under
    /// `{name}{sep}{n}` for the least free `n` from 1.
    fn add_suffixed(&mut self, mut cell: Cell, sep: &str) -> Result<CellId, LayoutError> {
        if !self.by_name.contains_key(cell.name()) {
            return self.add_cell(cell);
        }
        let prefix = format!("{}{sep}", cell.name);
        let mut n = self.last_suffix.get(&prefix).copied().unwrap_or(0);
        cell.name = loop {
            n += 1;
            let name = format!("{prefix}{n}");
            if !self.by_name.contains_key(&name) {
                break name;
            }
        };
        let id = self.add_cell(cell)?;
        self.last_suffix.insert(prefix, n);
        Ok(id)
    }

    /// Imports every cell of `other` into this library, returning the id
    /// each of `other`'s cells received here (indexable by the old id's
    /// raw value). Name collisions are resolved by appending `$imp<n>`.
    ///
    /// This is how generator output (a PLA, a ROM) is composed into a
    /// SIL-compiled design: build in separate libraries, import, place.
    pub fn import(&mut self, other: &Library) -> Vec<CellId> {
        let mut mapping = Vec::with_capacity(other.len());
        for cell in &other.cells {
            let mut copy = cell.clone();
            for inst in &mut copy.instances {
                inst.cell = mapping[inst.cell.raw() as usize];
            }
            let id = self.add_suffixed(copy, "$imp");
            mapping.push(id.expect("children already present"));
        }
        mapping
    }
}

impl fmt::Display for Library {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "library ({} cells)", self.cells.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Element, Instance, Layer};
    use silc_geom::{Point, Rect, Transform};

    fn leaf(name: &str) -> Cell {
        let mut c = Cell::new(name);
        c.push_element(Element::rect(
            Layer::Poly,
            Rect::from_origin_size(Point::new(0, 0), 2, 2).unwrap(),
        ));
        c
    }

    #[test]
    fn add_and_lookup() {
        let mut lib = Library::new();
        let a = lib.add_cell(leaf("a")).unwrap();
        assert_eq!(lib.cell_by_name("a"), Some(a));
        assert_eq!(lib.cell(a).unwrap().name(), "a");
        assert!(lib.cell_by_name("b").is_none());
        assert_eq!(lib.len(), 1);
        assert!(!lib.is_empty());
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut lib = Library::new();
        lib.add_cell(leaf("a")).unwrap();
        assert!(matches!(
            lib.add_cell(leaf("a")),
            Err(LayoutError::DuplicateCellName { .. })
        ));
    }

    #[test]
    fn renamed_cells_take_the_first_free_suffix() {
        let mut lib = Library::new();
        let names = ["a", "a", "a_2", "a", "a", "a_1", "b_1", "b", "b"];
        for name in names {
            lib.add_cell_renamed(leaf(name)).unwrap();
        }
        let got: Vec<&str> = lib.iter().map(|(_, c)| c.name()).collect();
        assert_eq!(
            got,
            ["a", "a_1", "a_2", "a_3", "a_4", "a_1_1", "b_1", "b", "b_2"]
        );
        // Only a dangling instance is refused, and it takes no name.
        let mut bad = leaf("a");
        bad.push_instance(Instance::place(CellId::from_raw(99), Transform::IDENTITY));
        assert!(matches!(
            lib.add_cell_renamed(bad),
            Err(LayoutError::UnknownCell { .. })
        ));
        let id = lib.add_cell_renamed(leaf("a")).unwrap();
        assert_eq!(lib.cell(id).unwrap().name(), "a_5");
    }

    #[test]
    fn forward_reference_in_new_cell_rejected() {
        let mut lib = Library::new();
        let mut c = Cell::new("parent");
        c.push_instance(Instance::place(CellId::from_raw(7), Transform::IDENTITY));
        assert!(matches!(
            lib.add_cell(c),
            Err(LayoutError::UnknownCell { .. })
        ));
    }

    #[test]
    fn copies_count_every_use_and_skip_the_unused() {
        let mut lib = Library::new();
        let bit = lib.add_cell(leaf("bit")).unwrap();
        let unused = lib.add_cell(leaf("unused")).unwrap();
        let mut row = leaf("row");
        row.push_instance(Instance::array(bit, Transform::IDENTITY, 4, 2, 3, 3).unwrap());
        let row = lib.add_cell(row).unwrap();
        let mut top = leaf("top");
        top.push_instance(Instance::place(row, Transform::IDENTITY));
        top.push_instance(Instance::place(row, Transform::IDENTITY));
        top.push_instance(Instance::place(bit, Transform::IDENTITY));
        let top = lib.add_cell(top).unwrap();
        let copies = lib.copies(top);
        assert_eq!(copies[bit.raw() as usize], 17);
        assert_eq!(copies[unused.raw() as usize], 0);
        assert_eq!(copies[row.raw() as usize], 2);
        assert_eq!(copies[top.raw() as usize], 1);
        assert_eq!(lib.copies(row), vec![8, 0, 1, 0]);
        assert_eq!(lib.copies(CellId::from_raw(4)), vec![0; 4]);
    }

    #[test]
    fn import_remaps_hierarchy_and_names() {
        let mut a = Library::new();
        let leaf_a = a.add_cell(leaf("bit")).unwrap();
        let mut row = leaf("row");
        row.push_instance(Instance::place(leaf_a, Transform::IDENTITY));
        let row_a = a.add_cell(row).unwrap();

        let mut b = Library::new();
        b.add_cell(leaf("bit")).unwrap(); // collision with the import
        let mapping = b.import(&a);

        // Hierarchy preserved under new ids.
        let new_row = mapping[row_a.raw() as usize];
        let row_cell = b.cell(new_row).unwrap();
        assert_eq!(row_cell.instances().len(), 1);
        assert_eq!(row_cell.instances()[0].cell, mapping[leaf_a.raw() as usize]);
        // Collision renamed.
        assert!(b.cell_by_name("bit$imp1").is_some());
        assert_eq!(b.len(), 3);
    }

    #[test]
    fn import_into_empty_library_is_identity_shaped() {
        let mut a = Library::new();
        let x = a.add_cell(leaf("x")).unwrap();
        let mut b = Library::new();
        let mapping = b.import(&a);
        assert_eq!(b.cell(mapping[x.raw() as usize]).unwrap().name(), "x");
    }

    #[test]
    fn iter_yields_all() {
        let mut lib = Library::new();
        lib.add_cell(leaf("a")).unwrap();
        lib.add_cell(leaf("b")).unwrap();
        let names: Vec<_> = lib.iter().map(|(_, c)| c.name().to_string()).collect();
        assert_eq!(names, vec!["a", "b"]);
    }
}
