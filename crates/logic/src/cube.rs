use crate::LogicError;
use std::fmt;

/// One position of a cube: the literal of a single input variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Lit {
    /// The variable appears complemented (input must be 0).
    Zero,
    /// The variable appears uncomplemented (input must be 1).
    One,
    /// The variable does not appear (either value accepted).
    DontCare,
}

impl Lit {
    /// The text form used by the PLA format.
    pub const fn to_char(self) -> char {
        match self {
            Lit::Zero => '0',
            Lit::One => '1',
            Lit::DontCare => '-',
        }
    }

    /// Parses a PLA-format literal character.
    ///
    /// # Errors
    ///
    /// Returns [`LogicError::ParseCube`] for anything but `0`, `1`, `-`.
    pub fn from_char(c: char) -> Result<Lit, LogicError> {
        match c {
            '0' => Ok(Lit::Zero),
            '1' => Ok(Lit::One),
            '-' | '2' => Ok(Lit::DontCare),
            _ => Err(LogicError::ParseCube { found: c }),
        }
    }
}

/// A product term over `n` inputs: a conjunction of literals.
///
/// Cubes are the atoms of two-level logic: a PLA row is a cube, and a
/// cover (sum of products) is a set of cubes.
///
/// Stored in positional-cube notation: per input one bit in each of two
/// planes, "may be 0" and "may be 1", so `0` is `(1, 0)`, `1` is `(0, 1)`
/// and `-` is `(1, 1)`; `(0, 0)` is the empty set and is never stored.
/// Input `i` (column `i` of the text form, bit `n-1-i` of a minterm) is
/// bit `i % 64` of word pair `i / 64`; bits past the width read `-`. The
/// planes are interleaved — `[z0, o0, z1, o1, …]` — so intersection and
/// supercube are one AND or OR over the whole slice. Up to 64 inputs the
/// pair sits inline and a clone copies four words; wider cubes box the
/// same slice, and every operation below reads it the same way.
///
/// # Example
///
/// ```
/// use silc_logic::Cube;
/// let c = Cube::parse("1-0")?;   // a AND NOT c
/// assert!(c.covers_minterm(0b100));
/// assert!(c.covers_minterm(0b110));
/// assert!(!c.covers_minterm(0b101));
/// # Ok::<(), silc_logic::LogicError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Cube {
    width: usize,
    words: Words,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Words {
    /// `width <= 64`.
    Inline([u64; 2]),
    /// `width > 64`: `2 * width.div_ceil(64)` words.
    Wide(Box<[u64]>),
}

/// The inputs `64 * w ..` of `minterm` over `n` inputs (input 0 = MSB) as
/// one plane word: bit `b` is the value of input `64 * w + b`, zero past
/// the width and for inputs above the minterm's 64 bits.
fn minterm_word(n: usize, minterm: u64, w: usize) -> u64 {
    let top = n - 1 - 64 * w; // minterm bit of this word's bit 0
    let aligned = if top >= 63 {
        minterm.checked_shr((top - 63) as u32).unwrap_or(0)
    } else {
        minterm << (63 - top)
    };
    aligned.reverse_bits()
}

/// Appends the cofactor of the cube `a` against the cube `c` (both word
/// slices of one width) to `out`: `a` with every input `c` binds freed.
/// Appends nothing and returns false when the two do not meet.
pub(crate) fn cofactor_words(a: &[u64], c: &[u64], out: &mut Vec<u64>) -> bool {
    let start = out.len();
    for (a, c) in a.chunks_exact(2).zip(c.chunks_exact(2)) {
        if (a[0] & c[0]) | (a[1] & c[1]) != u64::MAX {
            out.truncate(start);
            return false;
        }
        let bound = !(c[0] & c[1]);
        out.extend([a[0] | bound, a[1] | bound]);
    }
    true
}

impl Cube {
    /// The universal cube (all don't-cares) over `n` inputs.
    pub fn universe(n: usize) -> Cube {
        let words = if n <= 64 {
            Words::Inline([u64::MAX; 2])
        } else {
            Words::Wide(vec![u64::MAX; 2 * n.div_ceil(64)].into())
        };
        Cube { width: n, words }
    }

    /// Creates a cube from explicit literals.
    pub fn from_lits<I>(lits: I) -> Cube
    where
        I: IntoIterator<Item = Lit>,
        I::IntoIter: ExactSizeIterator,
    {
        let lits = lits.into_iter();
        let mut cube = Cube::universe(lits.len());
        for (i, lit) in lits.enumerate() {
            cube.set_lit(i, lit);
        }
        cube
    }

    /// The cube matching exactly one minterm. Input 0 is the **most
    /// significant** bit, matching the PLA text convention where the
    /// leftmost column is input 0; inputs above the 64 bits of `minterm`
    /// read 0.
    pub fn from_minterm(n: usize, minterm: u64) -> Cube {
        let mut cube = Cube::universe(n);
        for (w, pair) in cube.words_mut().chunks_exact_mut(2).enumerate() {
            if 64 * w < n {
                let ones = minterm_word(n, minterm, w);
                let past = u64::MAX.checked_shl((n - 64 * w) as u32).unwrap_or(0);
                pair[0] = !ones;
                pair[1] = ones | past;
            }
        }
        cube
    }

    /// A cube over `width` inputs from its word slice.
    pub(crate) fn from_words(width: usize, words: &[u64]) -> Cube {
        let mut cube = Cube::universe(width);
        cube.words_mut().copy_from_slice(words);
        cube
    }

    /// Parses the PLA text form, e.g. `"1-0"`.
    ///
    /// # Errors
    ///
    /// Returns [`LogicError::ParseCube`] for invalid characters.
    pub fn parse(s: &str) -> Result<Cube, LogicError> {
        let mut cube = Cube::universe(s.chars().count());
        for (i, c) in s.chars().enumerate() {
            cube.set_lit(i, Lit::from_char(c)?);
        }
        Ok(cube)
    }

    /// Number of inputs.
    pub fn width(&self) -> usize {
        self.width
    }

    /// The interleaved bit-planes, `[z0, o0, z1, o1, …]`.
    pub(crate) fn words(&self) -> &[u64] {
        match &self.words {
            Words::Inline(pair) => pair,
            Words::Wide(words) => words,
        }
    }

    fn words_mut(&mut self) -> &mut [u64] {
        match &mut self.words {
            Words::Inline(pair) => pair,
            Words::Wide(words) => words,
        }
    }

    /// The `(z, o)` word pairs of two cubes of one width, side by side.
    fn pairs<'a>(&'a self, other: &'a Cube) -> impl Iterator<Item = (&'a [u64], &'a [u64])> {
        debug_assert_eq!(self.width, other.width);
        let pairs = |c: &'a Cube| c.words().chunks_exact(2);
        pairs(self).zip(pairs(other))
    }

    /// A copy with every word combined with the matching word of `other`.
    fn zip_words(&self, other: &Cube, f: impl Fn(u64, u64) -> u64) -> Cube {
        debug_assert_eq!(self.width, other.width);
        let mut out = self.clone();
        for (a, &b) in out.words_mut().iter_mut().zip(other.words()) {
            *a = f(*a, b);
        }
        out
    }

    /// The literal at input `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= width()`.
    pub fn lit(&self, i: usize) -> Lit {
        assert!(i < self.width, "input {i} of a {}-input cube", self.width);
        let pair = &self.words()[2 * (i / 64)..];
        match (pair[0] >> (i % 64) & 1, pair[1] >> (i % 64) & 1) {
            (1, 0) => Lit::Zero,
            (0, 1) => Lit::One,
            _ => Lit::DontCare,
        }
    }

    /// All literals, input 0 first.
    pub fn lits(&self) -> impl ExactSizeIterator<Item = Lit> + '_ {
        (0..self.width).map(|i| self.lit(i))
    }

    /// The specified literals as `(input, value)`, input 0 first: one step
    /// per set bit, however wide the cube.
    pub fn bound(&self) -> impl Iterator<Item = (usize, bool)> + '_ {
        self.words()
            .chunks_exact(2)
            .enumerate()
            .flat_map(|(w, pair)| {
                let (mut left, ones) = (!(pair[0] & pair[1]), pair[1]);
                std::iter::from_fn(move || {
                    (left != 0).then(|| {
                        let bit = left.trailing_zeros();
                        left &= left - 1;
                        (64 * w + bit as usize, ones >> bit & 1 == 1)
                    })
                })
            })
    }

    /// Sets input `i` to `lit`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= width()`.
    pub fn set_lit(&mut self, i: usize, lit: Lit) {
        assert!(i < self.width, "input {i} of a {}-input cube", self.width);
        let bit = 1u64 << (i % 64);
        let pair = &mut self.words_mut()[2 * (i / 64)..];
        for (plane, excluded) in [(0, Lit::One), (1, Lit::Zero)] {
            if lit == excluded {
                pair[plane] &= !bit;
            } else {
                pair[plane] |= bit;
            }
        }
    }

    /// Returns a copy with input `i` set to `lit`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= width()`.
    pub fn with_lit(&self, i: usize, lit: Lit) -> Cube {
        let mut cube = self.clone();
        cube.set_lit(i, lit);
        cube
    }

    /// Number of specified (non-don't-care) literals — the number of
    /// transistors the term costs in a PLA AND plane.
    pub fn literal_count(&self) -> usize {
        let pairs = self.words().chunks_exact(2);
        pairs.map(|p| (p[0] & p[1]).count_zeros() as usize).sum()
    }

    /// True when the cube accepts the given minterm (input 0 = MSB).
    pub fn covers_minterm(&self, minterm: u64) -> bool {
        let mut pairs = self.words().chunks_exact(2).enumerate();
        pairs.all(|(w, pair)| {
            64 * w >= self.width || {
                let ones = minterm_word(self.width, minterm, w);
                (ones & !pair[1]) | (!ones & !pair[0]) == 0
            }
        })
    }

    /// True when every minterm of `other` is also in `self`.
    pub fn covers_cube(&self, other: &Cube) -> bool {
        debug_assert_eq!(self.width(), other.width());
        let mut words = self.words().iter().zip(other.words());
        words.all(|(&a, &b)| b & !a == 0)
    }

    /// Intersection of two cubes, or `None` when they conflict in some
    /// literal.
    pub fn intersect(&self, other: &Cube) -> Option<Cube> {
        let meet = self.zip_words(other, |a, b| a & b);
        let mut pairs = meet.words().chunks_exact(2);
        pairs.all(|p| p[0] | p[1] == u64::MAX).then_some(meet)
    }

    /// The number of inputs where the cubes require opposite values.
    pub fn conflict_count(&self, other: &Cube) -> usize {
        let neither = |(a, b): (&[u64], &[u64])| !((a[0] & b[0]) | (a[1] & b[1]));
        self.pairs(other)
            .map(|p| neither(p).count_ones() as usize)
            .sum()
    }

    /// Quine–McCluskey merge: if the cubes differ in exactly one input
    /// where both are specified and opposite, and agree everywhere else,
    /// returns the merged cube with that input freed.
    pub fn merge_adjacent(&self, other: &Cube) -> Option<Cube> {
        let mut opposite = 0;
        for (a, b) in self.pairs(other) {
            // `0` against `1` differs in both planes, anything against
            // `-` in one.
            if a[0] ^ b[0] != a[1] ^ b[1] {
                return None;
            }
            opposite += (a[0] ^ b[0]).count_ones();
        }
        (opposite == 1).then(|| self.supercube(other))
    }

    /// Smallest cube containing both (the supercube).
    pub fn supercube(&self, other: &Cube) -> Cube {
        self.zip_words(other, |a, b| a | b)
    }

    /// Iterates over every minterm the cube covers (exponential in free
    /// literals; callers gate on width).
    pub fn minterms(&self) -> Vec<u64> {
        let bit = |i: usize| 1u64 << (self.width - 1 - i);
        let free = (0..self.width).filter(|&i| self.lit(i) == Lit::DontCare);
        let free: Vec<u64> = free.map(bit).collect();
        let ones = self.bound().filter(|&(_, one)| one);
        let base: u64 = ones.map(|(i, _)| bit(i)).sum();
        let spread = |mask: u64| {
            let set = free.iter().enumerate().filter(|(j, _)| mask >> j & 1 == 1);
            set.fold(base, |m, (_, b)| m | b)
        };
        (0..1u64 << free.len()).map(spread).collect()
    }
}

impl fmt::Display for Cube {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.lits().try_for_each(|l| write!(f, "{}", l.to_char()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parse_display_roundtrip() {
        for s in ["", "0", "1", "-", "10-1", "----"] {
            assert_eq!(Cube::parse(s).unwrap().to_string(), s);
        }
        assert!(Cube::parse("10x").is_err());
    }

    #[test]
    fn minterm_cube_msb_convention() {
        // Input 0 is leftmost / MSB: minterm 0b10 over 2 inputs is "10".
        assert_eq!(Cube::from_minterm(2, 0b10).to_string(), "10");
        assert_eq!(Cube::from_minterm(3, 0b001).to_string(), "001");
    }

    #[test]
    fn covers_minterm_matches_parse() {
        let c = Cube::parse("1-0").unwrap();
        assert!(c.covers_minterm(0b100));
        assert!(c.covers_minterm(0b110));
        assert!(!c.covers_minterm(0b000));
        assert!(!c.covers_minterm(0b101));
    }

    #[test]
    fn cube_containment() {
        let big = Cube::parse("1--").unwrap();
        let small = Cube::parse("101").unwrap();
        assert!(big.covers_cube(&small));
        assert!(!small.covers_cube(&big));
        assert!(big.covers_cube(&big));
    }

    #[test]
    fn intersection() {
        let a = Cube::parse("1-0").unwrap();
        let b = Cube::parse("-10").unwrap();
        assert_eq!(a.intersect(&b).unwrap().to_string(), "110");
        let c = Cube::parse("0--").unwrap();
        assert!(a.intersect(&c).is_none());
    }

    #[test]
    fn merge_adjacent_rules() {
        let a = Cube::parse("101").unwrap();
        let b = Cube::parse("100").unwrap();
        assert_eq!(a.merge_adjacent(&b).unwrap().to_string(), "10-");
        // Two differences: no merge.
        let c = Cube::parse("110").unwrap();
        assert!(a.merge_adjacent(&c).is_none());
        // Difference against a don't-care: no merge.
        let d = Cube::parse("10-").unwrap();
        assert!(a.merge_adjacent(&d).is_none());
    }

    #[test]
    fn supercube_contains_both() {
        let a = Cube::parse("101").unwrap();
        let b = Cube::parse("001").unwrap();
        let s = a.supercube(&b);
        assert_eq!(s.to_string(), "-01");
        assert!(s.covers_cube(&a));
        assert!(s.covers_cube(&b));
    }

    #[test]
    fn minterm_expansion() {
        let c = Cube::parse("1-").unwrap();
        let mut m = c.minterms();
        m.sort_unstable();
        assert_eq!(m, vec![0b10, 0b11]);
        assert_eq!(Cube::universe(3).minterms().len(), 8);
        assert_eq!(Cube::parse("101").unwrap().minterms(), vec![0b101]);
    }

    #[test]
    fn literal_count() {
        assert_eq!(Cube::parse("1-0-").unwrap().literal_count(), 2);
        assert_eq!(Cube::universe(5).literal_count(), 0);
    }

    #[test]
    fn conflicts() {
        let a = Cube::parse("10-").unwrap();
        let b = Cube::parse("01-").unwrap();
        assert_eq!(a.conflict_count(&b), 2);
        assert_eq!(a.conflict_count(&a), 0);
    }

    fn arb_cube(n: usize) -> impl Strategy<Value = Cube> {
        prop::collection::vec(0u8..3, n)
            .prop_map(|v| Cube::from_lits(v.into_iter().map(|x| LITS[x as usize])))
    }

    const LITS: [Lit; 3] = [Lit::Zero, Lit::One, Lit::DontCare];

    proptest! {
        #[test]
        fn intersect_agrees_with_minterms(a in arb_cube(5), b in arb_cube(5)) {
            let am: std::collections::HashSet<_> = a.minterms().into_iter().collect();
            let bm: std::collections::HashSet<_> = b.minterms().into_iter().collect();
            let expected: std::collections::HashSet<_> = am.intersection(&bm).copied().collect();
            match a.intersect(&b) {
                Some(c) => {
                    let cm: std::collections::HashSet<_> = c.minterms().into_iter().collect();
                    prop_assert_eq!(cm, expected);
                }
                None => prop_assert!(expected.is_empty()),
            }
        }

        #[test]
        fn covers_cube_agrees_with_minterms(a in arb_cube(4), b in arb_cube(4)) {
            let am: std::collections::HashSet<_> = a.minterms().into_iter().collect();
            let covers = b.minterms().iter().all(|m| am.contains(m));
            prop_assert_eq!(a.covers_cube(&b), covers);
        }

        #[test]
        fn supercube_is_minimal_in_size(a in arb_cube(4), b in arb_cube(4)) {
            let s = a.supercube(&b);
            prop_assert!(s.covers_cube(&a) && s.covers_cube(&b));
            // Every specified literal of s is forced: freeing it must stay
            // a cover, specialization must not.
            for i in 0..4 {
                if s.lit(i) != Lit::DontCare {
                    // s is as specified as possible: both a and b agree there.
                    prop_assert_eq!(a.lit(i), s.lit(i));
                    prop_assert_eq!(b.lit(i), s.lit(i));
                }
            }
        }
    }
}
