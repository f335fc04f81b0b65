use crate::cube::cofactor_words;
use crate::{Cube, LogicError};
use std::fmt;

/// A sum of products: a set of [`Cube`]s over a fixed number of inputs.
///
/// Covers are the function representation the PLA generator programs into
/// silicon, and the object the minimizers shrink. All cubes in a cover
/// share the cover's width (validated at construction).
///
/// # Example
///
/// ```
/// use silc_logic::{Cover, Cube};
/// let f = Cover::from_cubes(2, vec![Cube::parse("1-")?, Cube::parse("-1")?])?;
/// assert!(f.eval(0b10));
/// assert!(f.eval(0b01));
/// assert!(!f.eval(0b00));
/// # Ok::<(), silc_logic::LogicError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Cover {
    num_inputs: usize,
    cubes: Vec<Cube>,
}

impl Cover {
    /// The empty cover (constant false) over `n` inputs.
    pub fn empty(n: usize) -> Cover {
        Cover {
            num_inputs: n,
            cubes: Vec::new(),
        }
    }

    /// The universal cover (constant true) over `n` inputs.
    pub fn tautology_cover(n: usize) -> Cover {
        Cover {
            num_inputs: n,
            cubes: vec![Cube::universe(n)],
        }
    }

    /// Creates a cover from cubes, validating widths.
    ///
    /// # Errors
    ///
    /// Returns [`LogicError::WidthMismatch`] if any cube's width differs
    /// from `n`.
    pub fn from_cubes(n: usize, cubes: Vec<Cube>) -> Result<Cover, LogicError> {
        for c in &cubes {
            if c.width() != n {
                return Err(LogicError::WidthMismatch {
                    expected: n,
                    found: c.width(),
                });
            }
        }
        Ok(Cover {
            num_inputs: n,
            cubes,
        })
    }

    /// Builds a cover from a list of minterms.
    pub fn from_minterms(n: usize, minterms: &[u64]) -> Cover {
        Cover {
            num_inputs: n,
            cubes: minterms.iter().map(|&m| Cube::from_minterm(n, m)).collect(),
        }
    }

    /// Number of inputs.
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// Number of product terms.
    pub fn len(&self) -> usize {
        self.cubes.len()
    }

    /// True for the constant-false cover.
    pub fn is_empty(&self) -> bool {
        self.cubes.is_empty()
    }

    /// The product terms.
    pub fn cubes(&self) -> &[Cube] {
        &self.cubes
    }

    /// Adds a cube.
    ///
    /// # Errors
    ///
    /// Returns [`LogicError::WidthMismatch`] on width disagreement.
    pub fn push(&mut self, cube: Cube) -> Result<(), LogicError> {
        if cube.width() != self.num_inputs {
            return Err(LogicError::WidthMismatch {
                expected: self.num_inputs,
                found: cube.width(),
            });
        }
        self.cubes.push(cube);
        Ok(())
    }

    /// The OR of two functions: this cover's cubes, then `other`'s.
    ///
    /// # Errors
    ///
    /// Returns [`LogicError::WidthMismatch`] on width disagreement.
    pub fn union(&self, other: &Cover) -> Result<Cover, LogicError> {
        if other.num_inputs != self.num_inputs {
            return Err(LogicError::WidthMismatch {
                expected: self.num_inputs,
                found: other.num_inputs,
            });
        }
        Ok(Cover {
            num_inputs: self.num_inputs,
            cubes: [&self.cubes[..], &other.cubes[..]].concat(),
        })
    }

    /// Total specified literals across all cubes — proportional to PLA
    /// AND-plane transistor count.
    pub fn literal_count(&self) -> usize {
        self.cubes.iter().map(Cube::literal_count).sum()
    }

    /// Evaluates the function on a minterm.
    pub fn eval(&self, minterm: u64) -> bool {
        self.cubes.iter().any(|c| c.covers_minterm(minterm))
    }

    /// The cofactor of the cover with respect to `cube`: the function
    /// restricted to the subspace where `cube`'s literals hold, expressed
    /// over the remaining (freed) inputs.
    pub fn cofactor(&self, cube: &Cube) -> Cover {
        let mut words = Vec::new();
        let mut cubes = Vec::new();
        for c in &self.cubes {
            if cofactor_words(c.words(), cube.words(), &mut words) {
                cubes.push(Cube::from_words(self.num_inputs, &words));
                words.clear();
            }
        }
        Cover {
            num_inputs: self.num_inputs,
            cubes,
        }
    }

    /// True when the cover is a tautology (covers every minterm).
    pub fn is_tautology(&self) -> bool {
        self.covers_cube(&Cube::universe(self.num_inputs))
    }

    /// True when the cover covers every minterm of `cube` (single-cube
    /// containment): the cofactor with respect to the cube is a tautology.
    /// Asking many cubes of one cover is cheaper through one [`Scratch`].
    pub fn covers_cube(&self, cube: &Cube) -> bool {
        Scratch::default().covers_cube(self, cube)
    }

    /// True when `self` covers every minterm of `other`.
    pub fn covers(&self, other: &Cover) -> bool {
        Scratch::default().covers(self, other)
    }

    /// Functional equivalence.
    pub fn equivalent(&self, other: &Cover) -> bool {
        self.covers(other) && other.covers(self)
    }

    /// Removes cubes contained in a single other cube (cheap cleanup, not
    /// full irredundancy).
    pub fn remove_single_cube_contained(&mut self) {
        // Larger cubes first so small ones get absorbed.
        let mut sorted = std::mem::take(&mut self.cubes);
        sorted.sort_by_key(Cube::literal_count);
        for c in sorted {
            if !self.cubes.iter().any(|k| k.covers_cube(&c)) {
                self.cubes.push(c);
            }
        }
    }

    /// All minterms of the function, for small `n`.
    ///
    /// # Panics
    ///
    /// Panics when `num_inputs > 24` (4 M minterm scan) to protect callers
    /// from accidental exponential blowups.
    pub fn minterms(&self) -> Vec<u64> {
        assert!(
            self.num_inputs <= 24,
            "minterm enumeration is limited to 24 inputs"
        );
        (0..(1u64 << self.num_inputs))
            .filter(|&m| self.eval(m))
            .collect()
    }
}

impl fmt::Display for Cover {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.cubes.is_empty() {
            return write!(f, "0");
        }
        for (i, c) in self.cubes.iter().enumerate() {
            if i > 0 {
                write!(f, " + ")?;
            }
            write!(f, "{c}")?;
        }
        Ok(())
    }
}

/// Working memory for containment questions: the cofactored cubes of
/// every open level of the Shannon recursion live on one stack of words,
/// so a question costs no allocation once the stack has grown to the
/// deepest one asked. Keep one for as long as there are questions.
///
/// The answer is yes or no and depends on the function alone; the
/// shortcuts below decide how fast it arrives, never what it is.
#[derive(Debug, Default)]
pub struct Scratch {
    /// Open frames, innermost last; a cube is one `Cube::words` slice.
    stack: Vec<u64>,
    /// Which columns the frame in hand binds to 0 and to 1, laid out as
    /// a cube's words are.
    seen: Vec<u64>,
    /// How many cubes of the frame being split bind each column.
    counts: Vec<u32>,
    questions: u64,
}

impl Scratch {
    /// True when `cover` covers every minterm of `cube`.
    pub fn covers_cube(&mut self, cover: &Cover, cube: &Cube) -> bool {
        self.covered(cover.cubes(), cube)
    }

    /// True when `cover` covers every minterm of `other`.
    pub fn covers(&mut self, cover: &Cover, other: &Cover) -> bool {
        other.cubes().iter().all(|c| self.covers_cube(cover, c))
    }

    /// How many single-cube questions this scratch has answered.
    pub fn questions(&self) -> u64 {
        self.questions
    }

    /// True when the OR of `cubes` covers every minterm of `cube`.
    pub(crate) fn covered<'a>(
        &mut self,
        cubes: impl IntoIterator<Item = &'a Cube>,
        cube: &Cube,
    ) -> bool {
        self.questions += 1;
        self.stack.clear();
        for c in cubes {
            debug_assert_eq!(c.width(), cube.width());
            cofactor_words(c.words(), cube.words(), &mut self.stack);
        }
        self.tautology(0, cube.words().len())
    }

    /// True when the cubes of `len` words each on the stack from `start`
    /// up cover everything. Uses that part of the stack and whatever it
    /// pushes above it.
    fn tautology(&mut self, start: usize, len: usize) -> bool {
        loop {
            self.seen.clear();
            self.seen.resize(len, 0);
            // The share of the space covered if no two cubes met, in
            // units of 2^-63 and rounded up: below one, some minterm is
            // left out (an empty frame among them).
            let mut volume = 0u64;
            for cube in self.stack[start..].chunks_exact(len) {
                let mut literals = 0;
                for (seen, pair) in self.seen.chunks_exact_mut(2).zip(cube.chunks_exact(2)) {
                    seen[0] |= !pair[1];
                    seen[1] |= !pair[0];
                    literals += (pair[0] & pair[1]).count_zeros();
                }
                if literals == 0 {
                    return true;
                }
                volume = volume.saturating_add(1 << 63u32.saturating_sub(literals));
            }
            if volume < 1 << 63 {
                return false;
            }
            // A column bound one way only: setting it the other way
            // removes the cubes that bind it and narrows no other, so
            // the frame is a tautology exactly when the rest is.
            if self.seen.chunks_exact(2).any(|s| s[0] != s[1]) {
                let unate = |seen: &[u64], cube: &[u64]| {
                    let mut pairs = seen.chunks_exact(2).zip(cube.chunks_exact(2));
                    pairs.any(|(s, c)| !(c[0] & c[1]) & (s[0] ^ s[1]) != 0)
                };
                let mut kept = start;
                for at in (start..self.stack.len()).step_by(len) {
                    if !unate(&self.seen, &self.stack[at..at + len]) {
                        self.stack.copy_within(at..at + len, kept);
                        kept += len;
                    }
                }
                self.stack.truncate(kept);
                continue;
            }
            // Every bound column is bound both ways: split on the one
            // most cubes bind, `x = 1` on a frame of its own above this
            // one, then `x = 0` in place.
            self.counts.clear();
            self.counts.resize(32 * len, 0);
            for cube in self.stack[start..].chunks_exact(len) {
                for (w, pair) in cube.chunks_exact(2).enumerate() {
                    let mut bound = !(pair[0] & pair[1]);
                    while bound != 0 {
                        self.counts[64 * w + bound.trailing_zeros() as usize] += 1;
                        bound &= bound - 1;
                    }
                }
            }
            let busiest = self.counts.iter().enumerate().max_by_key(|(_, &c)| c);
            let (column, _) = busiest.expect("a cube has at least one word pair");
            let (z, bit) = (2 * (column / 64), 1u64 << (column % 64));
            let top = self.stack.len();
            for at in (start..top).step_by(len) {
                if self.stack[at + z + 1] & bit != 0 {
                    self.stack.extend_from_within(at..at + len);
                    let copy = self.stack.len() - len;
                    self.stack[copy + z] |= bit;
                }
            }
            let holds = self.tautology(top, len);
            self.stack.truncate(top);
            if !holds {
                return false;
            }
            let mut kept = start;
            for at in (start..top).step_by(len) {
                if self.stack[at + z] & bit != 0 {
                    self.stack.copy_within(at..at + len, kept);
                    self.stack[kept + z + 1] |= bit;
                    kept += len;
                }
            }
            self.stack.truncate(kept);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Lit;
    use proptest::prelude::*;

    fn cover(n: usize, cubes: &[&str]) -> Cover {
        Cover::from_cubes(n, cubes.iter().map(|s| Cube::parse(s).unwrap()).collect()).unwrap()
    }

    #[test]
    fn width_validation() {
        assert!(Cover::from_cubes(3, vec![Cube::parse("10").unwrap()]).is_err());
        let mut c = Cover::empty(2);
        assert!(c.push(Cube::parse("101").unwrap()).is_err());
        assert!(c.push(Cube::parse("10").unwrap()).is_ok());
    }

    #[test]
    fn eval_matches_cubes() {
        let f = cover(3, &["1--", "-11"]);
        assert!(f.eval(0b100));
        assert!(f.eval(0b011));
        assert!(!f.eval(0b010));
    }

    #[test]
    fn tautology_base_cases() {
        assert!(Cover::tautology_cover(3).is_tautology());
        assert!(!Cover::empty(3).is_tautology());
        // x + x' is a tautology.
        assert!(cover(1, &["0", "1"]).is_tautology());
        // x + y is not.
        assert!(!cover(2, &["1-", "-1"]).is_tautology());
    }

    #[test]
    fn tautology_needs_shannon() {
        // a'b' + a'b + ab' + ab = 1 : requires recursion, no universal cube.
        assert!(cover(2, &["00", "01", "10", "11"]).is_tautology());
        // Missing one minterm: not a tautology.
        assert!(!cover(2, &["00", "01", "10"]).is_tautology());
        // Classic 3-var: a + a'b + a'b' = 1.
        assert!(cover(3, &["1--", "01-", "00-"]).is_tautology());
    }

    #[test]
    fn cofactor_restricts() {
        let f = cover(3, &["1-0", "01-"]);
        // Cofactor by a=1: first cube survives with a freed; second drops.
        let fa = f.cofactor(&Cube::parse("1--").unwrap());
        assert_eq!(fa.len(), 1);
        assert_eq!(fa.cubes()[0].to_string(), "--0");
    }

    #[test]
    fn covers_cube_by_multiple_cubes() {
        // f = ab + ab' covers the cube a (no single cube does).
        let f = cover(2, &["11", "10"]);
        assert!(f.covers_cube(&Cube::parse("1-").unwrap()));
        assert!(!f.covers_cube(&Cube::parse("-1").unwrap()));
    }

    #[test]
    fn equivalence() {
        let f = cover(2, &["11", "10"]);
        let g = cover(2, &["1-"]);
        assert!(f.equivalent(&g));
        let h = cover(2, &["-1"]);
        assert!(!f.equivalent(&h));
    }

    #[test]
    fn single_cube_containment_cleanup() {
        let mut f = cover(3, &["1--", "110", "101", "0-1"]);
        f.remove_single_cube_contained();
        assert_eq!(f.len(), 2);
    }

    #[test]
    fn minterm_listing() {
        let f = cover(2, &["1-"]);
        assert_eq!(f.minterms(), vec![0b10, 0b11]);
        assert_eq!(Cover::empty(2).minterms(), Vec::<u64>::new());
    }

    #[test]
    fn from_minterms_roundtrip() {
        let f = Cover::from_minterms(3, &[0b000, 0b101, 0b111]);
        assert_eq!(f.minterms(), vec![0b000, 0b101, 0b111]);
    }

    #[test]
    fn display_forms() {
        assert_eq!(cover(2, &["1-", "01"]).to_string(), "1- + 01");
        assert_eq!(Cover::empty(2).to_string(), "0");
    }

    const LITS: [Lit; 3] = [Lit::Zero, Lit::One, Lit::DontCare];

    fn arb_cover(n: usize, max_cubes: usize) -> impl Strategy<Value = Cover> {
        prop::collection::vec(prop::collection::vec(0u8..3, n), 0..max_cubes).prop_map(
            move |cubes| {
                let cubes = cubes.into_iter();
                let lits = |v: Vec<u8>| Cube::from_lits(v.into_iter().map(|x| LITS[x as usize]));
                Cover::from_cubes(n, cubes.map(lits).collect()).unwrap()
            },
        )
    }

    proptest! {
        #[test]
        fn tautology_matches_enumeration(f in arb_cover(4, 8)) {
            let brute = (0..16u64).all(|m| f.eval(m));
            prop_assert_eq!(f.is_tautology(), brute);
        }

        #[test]
        fn covers_matches_enumeration(f in arb_cover(4, 6), g in arb_cover(4, 6)) {
            let brute = (0..16u64).all(|m| !g.eval(m) || f.eval(m));
            prop_assert_eq!(f.covers(&g), brute);
        }

        #[test]
        fn containment_cleanup_preserves_function(f in arb_cover(4, 8)) {
            let mut g = f.clone();
            g.remove_single_cube_contained();
            prop_assert!(f.equivalent(&g));
            prop_assert!(g.len() <= f.len());
        }
    }
}
