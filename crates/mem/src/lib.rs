//! # silc-mem — programmed memory generation
//!
//! The second half of the paper's regular-block observation: "regular
//! blocks, such as memories and PLAs, are programmed for specific
//! functions". Two generators:
//!
//! * [`RomSpec`] — a read-only memory. A ROM is structurally a PLA with a
//!   full address decoder: each word is a fully-specified product term,
//!   each data bit an OR-plane column. The generator therefore reuses the
//!   `silc-pla` layout machinery, and can optionally *minimize* the word
//!   lines (words sharing bit patterns merge — real 1970s ROM compilers
//!   did exactly this).
//! * [`RamArray`] — a static RAM cell array with poly word lines and
//!   metal bit lines, parameterised by geometry, with the same
//!   DRC-clean stylization as the PLA planes.
//!
//! # Example
//!
//! ```
//! use silc_mem::RomSpec;
//! use silc_layout::Library;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let rom = RomSpec::new(3, 4, &[0xA, 0x5, 0xF, 0x0, 0x3, 0xC, 0x9, 0x6])?;
//! let mut lib = Library::new();
//! let id = rom.generate(&mut lib, "boot")?;
//! assert!(lib.cell(id).is_some());
//! # Ok(())
//! # }
//! ```

use silc_geom::{Coord, Point, Rect, Transform};
use silc_layout::{Cell, CellId, Element, Instance, Layer, Library, Port};
use silc_logic::{Cube, OutBit, TruthTable};
use silc_pla::{generate_layout, Minimize, PlaError, PlaSpec};
use std::error::Error;
use std::fmt;

/// Error produced by the memory generators.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum MemError {
    /// Data length must be exactly 2^address_bits.
    WrongDataLength {
        /// Words expected.
        expected: usize,
        /// Words supplied.
        found: usize,
    },
    /// Word width must be 1..=64.
    BadWidth {
        /// Requested width.
        width: u32,
    },
    /// A word did not fit in the declared width.
    WordTooWide {
        /// Word index.
        index: usize,
        /// The offending value.
        value: u64,
    },
    /// A RAM array dimension was zero.
    EmptyArray,
    /// PLA generation failed.
    Pla(String),
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::WrongDataLength { expected, found } => {
                write!(f, "ROM data must have {expected} words, got {found}")
            }
            MemError::BadWidth { width } => write!(f, "unusable word width {width}"),
            MemError::WordTooWide { index, value } => {
                write!(f, "word {index} value {value:#o} exceeds the word width")
            }
            MemError::EmptyArray => write!(f, "memory array dimensions must be positive"),
            MemError::Pla(m) => write!(f, "PLA generation failed: {m}"),
        }
    }
}

impl Error for MemError {}

impl From<PlaError> for MemError {
    fn from(e: PlaError) -> MemError {
        MemError::Pla(e.to_string())
    }
}

/// A programmed read-only memory: 2^n words of `width` bits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RomSpec {
    address_bits: u32,
    width: u32,
    data: Vec<u64>,
}

impl RomSpec {
    /// Creates a ROM description.
    ///
    /// # Errors
    ///
    /// * [`MemError::BadWidth`] unless `1 <= width <= 64`;
    /// * [`MemError::WrongDataLength`] unless `data.len() == 2^address_bits`;
    /// * [`MemError::WordTooWide`] if a word overflows `width` bits.
    pub fn new(address_bits: u32, width: u32, data: &[u64]) -> Result<RomSpec, MemError> {
        if width == 0 || width > 64 {
            return Err(MemError::BadWidth { width });
        }
        let expected = 1usize << address_bits;
        if data.len() != expected {
            return Err(MemError::WrongDataLength {
                expected,
                found: data.len(),
            });
        }
        let mask = if width >= 64 {
            u64::MAX
        } else {
            (1u64 << width) - 1
        };
        for (index, &value) in data.iter().enumerate() {
            if value & !mask != 0 {
                return Err(MemError::WordTooWide { index, value });
            }
        }
        Ok(RomSpec {
            address_bits,
            width,
            data: data.to_vec(),
        })
    }

    /// Address width in bits.
    pub fn address_bits(&self) -> u32 {
        self.address_bits
    }

    /// Word width in bits.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// The programmed contents.
    pub fn data(&self) -> &[u64] {
        &self.data
    }

    /// Reads a word (used to verify generated personalities).
    pub fn read(&self, addr: u64) -> Option<u64> {
        self.data.get(addr as usize).copied()
    }

    /// The ROM expressed as a multi-output truth table: address in, data
    /// bits out (bit `width-1` first).
    pub fn to_truth_table(&self) -> TruthTable {
        let mut t = TruthTable::new(self.address_bits as usize, self.width as usize);
        for (addr, &word) in self.data.iter().enumerate() {
            if word == 0 {
                continue; // all-zero words need no row
            }
            let outs: Vec<OutBit> = (0..self.width)
                .rev()
                .map(|b| {
                    if word >> b & 1 == 1 {
                        OutBit::On
                    } else {
                        OutBit::Off
                    }
                })
                .collect();
            let cube = Cube::from_minterm(self.address_bits as usize, addr as u64);
            t.push_row(cube, outs).expect("widths are consistent");
        }
        t
    }

    /// The PLA personality implementing this ROM.
    ///
    /// With `Minimize::None` the personality has one word line per
    /// non-zero word (the classic ROM); the minimizing modes merge words,
    /// trading decoder regularity for rows.
    ///
    /// # Errors
    ///
    /// Propagates minimizer failures.
    pub fn to_pla_spec(&self, minimize: Minimize) -> Result<PlaSpec, MemError> {
        PlaSpec::from_truth_table(&self.to_truth_table(), minimize)
            .map_err(|e| MemError::Pla(e.to_string()))
    }

    /// Generates the ROM layout (decoder plane + data plane) into `lib`.
    ///
    /// # Errors
    ///
    /// Propagates [`MemError`] from spec building and layout generation.
    pub fn generate(&self, lib: &mut Library, name: &str) -> Result<CellId, MemError> {
        let spec = self.to_pla_spec(Minimize::None)?;
        Ok(generate_layout(&spec, lib, name)?)
    }
}

/// A static RAM cell array: `words` poly word lines crossing
/// `width` metal bit-line pairs, one pass transistor per crossing.
///
/// The array is the storage substrate a compiled processor instantiates;
/// peripheral sense amplifiers and decoders are abstracted to ports (the
/// decoder itself is a [`RomSpec`]-style plane when needed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RamArray {
    /// Number of words (rows).
    pub words: u32,
    /// Bits per word (columns).
    pub width: u32,
}

/// Row pitch of the RAM array in lambda.
pub const RAM_ROW_PITCH: Coord = 12;
/// Column pitch of the RAM array in lambda.
pub const RAM_COL_PITCH: Coord = 12;

impl RamArray {
    /// Creates an array description.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::EmptyArray`] when either dimension is zero.
    pub fn new(words: u32, width: u32) -> Result<RamArray, MemError> {
        if words == 0 || width == 0 {
            return Err(MemError::EmptyArray);
        }
        Ok(RamArray { words, width })
    }

    /// Layout dimensions (width, height) in lambda.
    pub fn dimensions(&self) -> (Coord, Coord) {
        (
            Coord::from(self.width) * RAM_COL_PITCH + 8,
            Coord::from(self.words) * RAM_ROW_PITCH,
        )
    }

    /// Total storage bits.
    pub fn bits(&self) -> u64 {
        u64::from(self.words) * u64::from(self.width)
    }

    /// Generates the cell array into `lib`: a hierarchical grid of one
    /// storage-cell definition, word-line poly rows, bit-line metal
    /// columns, and ports `w<r>` / `b<c>`.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::Pla`] if the cell names collide in `lib`.
    pub fn generate(&self, lib: &mut Library, name: &str) -> Result<CellId, MemError> {
        let rect =
            |x0, y0, x1, y1| Rect::new(Point::new(x0, y0), Point::new(x1, y1)).expect("non-empty");
        // Storage cell: pass transistor from the bit line to the storage
        // node — diffusion crossing the word-line poly, contact to the
        // bit-line metal (same discipline as the PLA crosspoint, rotated).
        let mut bitcell = Cell::new(format!("{name}_cell"));
        bitcell.push_element(Element::rect(Layer::Diffusion, rect(-2, -6, 2, 3)));
        bitcell.push_element(Element::rect(Layer::Contact, rect(-1, -5, 1, -3)));
        let bit_id = lib
            .add_cell(bitcell)
            .map_err(|e| MemError::Pla(e.to_string()))?;

        let (w, h) = self.dimensions();
        let mut top = Cell::new(name);
        // Word lines: poly rows.
        for r in 0..self.words {
            let y = Coord::from(r) * RAM_ROW_PITCH;
            top.push_element(Element::rect(Layer::Poly, rect(-4, y - 1, w - 4, y + 1)));
            top.push_port(Port::new(format!("w{r}"), Layer::Poly, Point::new(-4, y)));
        }
        // Bit lines: metal columns.
        for c in 0..self.width {
            let x = Coord::from(c) * RAM_COL_PITCH;
            top.push_element(Element::rect(Layer::Metal, rect(x - 2, -6, x + 2, h - 6)));
            top.push_port(Port::new(format!("b{c}"), Layer::Metal, Point::new(x, -6)));
        }
        // One cell per crossing, as a native 2-D array instance.
        top.push_instance(
            Instance::array(
                bit_id,
                Transform::IDENTITY,
                self.width,
                self.words,
                RAM_COL_PITCH,
                RAM_ROW_PITCH,
            )
            .map_err(|e| MemError::Pla(e.to_string()))?,
        );
        lib.add_cell(top).map_err(|e| MemError::Pla(e.to_string()))
    }
}

impl fmt::Display for RomSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "rom {}x{} ({} words)",
            1u64 << self.address_bits,
            self.width,
            self.data.len()
        )
    }
}

impl fmt::Display for RamArray {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ram {}x{}", self.words, self.width)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use silc_drc::{check, RuleSet};
    use silc_layout::CellStats;

    fn rom8() -> RomSpec {
        RomSpec::new(3, 4, &[0xA, 0x5, 0xF, 0x0, 0x3, 0xC, 0x9, 0x6]).unwrap()
    }

    #[test]
    fn validation() {
        assert!(matches!(
            RomSpec::new(2, 4, &[1, 2, 3]),
            Err(MemError::WrongDataLength { expected: 4, .. })
        ));
        assert!(matches!(
            RomSpec::new(2, 0, &[0; 4]),
            Err(MemError::BadWidth { .. })
        ));
        assert!(matches!(
            RomSpec::new(2, 2, &[0, 1, 4, 0]),
            Err(MemError::WordTooWide { index: 2, .. })
        ));
    }

    #[test]
    fn truth_table_reads_back() {
        let rom = rom8();
        let t = rom.to_truth_table();
        for addr in 0..8u64 {
            let word = rom.read(addr).unwrap();
            for b in 0..4u32 {
                // Output 0 is the MSB.
                let expected = word >> (3 - b) & 1 == 1;
                match t.eval(b as usize, addr).unwrap() {
                    Some(v) => assert_eq!(v, expected, "addr {addr} bit {b}"),
                    None => panic!("ROM has no don't-cares"),
                }
            }
        }
    }

    #[test]
    fn personality_preserves_contents() {
        let rom = rom8();
        for minimize in [Minimize::None, Minimize::Heuristic] {
            let spec = rom.to_pla_spec(minimize).unwrap();
            for addr in 0..8u64 {
                let word = rom.read(addr).unwrap();
                let outs = spec.eval(addr);
                for (b, &out) in outs.iter().enumerate().take(4) {
                    assert_eq!(
                        out,
                        word >> (3 - b) & 1 == 1,
                        "{minimize:?} addr {addr} bit {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn zero_words_take_no_rows() {
        let rom = RomSpec::new(2, 4, &[0, 0xF, 0, 0x3]).unwrap();
        let spec = rom.to_pla_spec(Minimize::None).unwrap();
        assert_eq!(spec.num_terms(), 2);
    }

    #[test]
    fn minimization_trades_sharing_for_merged_cubes() {
        // A classic ROM lesson: unminimized, every non-zero word is one
        // row shared by all its bits; per-output minimization merges
        // cubes *within* an output but can destroy that cross-output
        // sharing, so the row count may go either way. What must hold:
        // the raw personality has exactly one row per non-zero word, and
        // the minimized one never exceeds the sum of per-output covers.
        let rom = rom8();
        let raw = rom.to_pla_spec(Minimize::None).unwrap();
        assert_eq!(raw.num_terms(), 7); // 7 non-zero words
        let min = rom.to_pla_spec(Minimize::Heuristic).unwrap();
        let per_output_total: usize = (0..4).map(|o| min.output_cover(o).len()).sum();
        assert!(min.num_terms() <= per_output_total);
    }

    #[test]
    fn rom_layout_is_drc_clean() {
        let mut lib = Library::new();
        let id = rom8().generate(&mut lib, "boot").unwrap();
        let report = check(&lib, id, &RuleSet::mead_conway_nmos()).unwrap();
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn ram_array_is_drc_clean_and_sized() {
        let ram = RamArray::new(8, 4).unwrap();
        let mut lib = Library::new();
        let id = ram.generate(&mut lib, "reg8x4").unwrap();
        let report = check(&lib, id, &RuleSet::mead_conway_nmos()).unwrap();
        assert!(report.is_clean(), "{report}");
        let stats = CellStats::compute(&lib, id).unwrap();
        // 8 rows x 4 columns of cells flattened: 4*8 cells x 2 elements
        // plus 8 word lines and 4 bit lines.
        assert_eq!(stats.flat_elements, 8 * 4 * 2 + 8 + 4);
        assert_eq!(ram.bits(), 32);
    }

    #[test]
    fn ram_validation() {
        assert!(matches!(RamArray::new(0, 4), Err(MemError::EmptyArray)));
        assert!(matches!(RamArray::new(4, 0), Err(MemError::EmptyArray)));
    }

    #[test]
    fn ram_ports_named() {
        let ram = RamArray::new(2, 3).unwrap();
        let mut lib = Library::new();
        let id = ram.generate(&mut lib, "r").unwrap();
        let cell = lib.cell(id).unwrap();
        assert!(cell.port("w0").is_some());
        assert!(cell.port("w1").is_some());
        assert!(cell.port("b2").is_some());
        assert!(cell.port("b3").is_none());
    }

    #[test]
    fn display_forms() {
        assert_eq!(rom8().to_string(), "rom 8x4 (8 words)");
        assert_eq!(RamArray::new(16, 12).unwrap().to_string(), "ram 16x12");
    }
}
