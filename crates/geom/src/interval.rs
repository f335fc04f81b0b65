use crate::{Coord, GeomError};
use std::fmt;

/// A closed 1-D interval `[lo, hi]` with `lo <= hi`.
///
/// Intervals are the working currency of scanline algorithms: channel
/// density computation, maximal-rect merging in the DRC, and span occupancy
/// in the routers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Interval {
    lo: Coord,
    hi: Coord,
}

impl Interval {
    /// Creates the interval `[lo, hi]`.
    ///
    /// # Errors
    ///
    /// Returns [`GeomError::InvalidInterval`] when `lo > hi`. Point
    /// intervals (`lo == hi`) are allowed.
    pub fn new(lo: Coord, hi: Coord) -> Result<Interval, GeomError> {
        if lo > hi {
            return Err(GeomError::InvalidInterval { lo, hi });
        }
        Ok(Interval { lo, hi })
    }

    /// Low bound.
    pub const fn lo(&self) -> Coord {
        self.lo
    }

    /// High bound.
    pub const fn hi(&self) -> Coord {
        self.hi
    }

    /// `hi - lo`.
    pub const fn length(&self) -> Coord {
        self.hi - self.lo
    }

    /// True when `x` lies within the closed interval.
    pub fn contains(&self, x: Coord) -> bool {
        self.lo <= x && x <= self.hi
    }

    /// True when the closed intervals share at least a point.
    pub fn overlaps(&self, other: Interval) -> bool {
        self.lo <= other.hi && other.lo <= self.hi
    }

    /// True when the *open* interiors intersect (shared endpoints do not
    /// count). Channel routing uses this: two nets may share a track if
    /// their spans merely abut.
    pub fn overlaps_open(&self, other: Interval) -> bool {
        self.lo < other.hi && other.lo < self.hi
    }

    /// Intersection of the closed intervals, if non-empty.
    pub fn intersection(&self, other: Interval) -> Option<Interval> {
        let lo = self.lo.max(other.lo);
        let hi = self.hi.min(other.hi);
        if lo <= hi {
            Some(Interval { lo, hi })
        } else {
            None
        }
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {}]", self.lo, self.hi)
    }
}

/// A set of disjoint closed intervals, kept sorted and coalesced.
///
/// Inserting an interval merges it with any intervals it touches or
/// overlaps, so the set is always minimal. Used for scanline coverage
/// (union area) and track occupancy.
///
/// # Example
///
/// ```
/// use silc_geom::{Interval, IntervalSet};
/// # fn main() -> Result<(), silc_geom::GeomError> {
/// let mut s = IntervalSet::new();
/// s.insert(Interval::new(0, 4)?);
/// s.insert(Interval::new(6, 9)?);
/// s.insert(Interval::new(4, 6)?); // bridges the gap
/// assert_eq!(s.iter().count(), 1);
/// assert_eq!(s.total_length(), 9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct IntervalSet {
    // Sorted by lo; pairwise disjoint and non-touching.
    spans: Vec<Interval>,
}

impl IntervalSet {
    /// Creates an empty set.
    pub fn new() -> IntervalSet {
        IntervalSet::default()
    }

    /// Number of disjoint spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when no interval has been inserted.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Inserts an interval, coalescing with any spans it touches.
    pub fn insert(&mut self, iv: Interval) {
        // Find insertion window of spans that touch/overlap iv.
        let mut lo = iv.lo;
        let mut hi = iv.hi;
        let start = self.spans.partition_point(|s| s.hi < lo);
        let mut end = start;
        while end < self.spans.len() && self.spans[end].lo <= hi {
            lo = lo.min(self.spans[end].lo);
            hi = hi.max(self.spans[end].hi);
            end += 1;
        }
        self.spans.splice(start..end, [Interval { lo, hi }]);
    }

    /// True when `x` is covered by some span.
    pub fn contains(&self, x: Coord) -> bool {
        let i = self.spans.partition_point(|s| s.hi < x);
        i < self.spans.len() && self.spans[i].contains(x)
    }

    /// True when the closed interval `iv` intersects the set.
    pub fn overlaps(&self, iv: Interval) -> bool {
        let i = self.spans.partition_point(|s| s.hi < iv.lo);
        i < self.spans.len() && self.spans[i].lo <= iv.hi
    }

    /// True when the *open* interior of `iv` intersects the set (abutment
    /// allowed).
    pub fn overlaps_open(&self, iv: Interval) -> bool {
        self.spans.iter().any(|s| s.overlaps_open(iv))
    }

    /// Sum of span lengths (total covered measure).
    pub fn total_length(&self) -> Coord {
        self.spans.iter().map(Interval::length).sum()
    }

    /// Iterates over the disjoint spans in increasing order.
    pub fn iter(&self) -> std::slice::Iter<'_, Interval> {
        self.spans.iter()
    }
}

impl FromIterator<Interval> for IntervalSet {
    fn from_iter<I: IntoIterator<Item = Interval>>(iter: I) -> Self {
        let mut s = IntervalSet::new();
        for iv in iter {
            s.insert(iv);
        }
        s
    }
}

impl Extend<Interval> for IntervalSet {
    fn extend<I: IntoIterator<Item = Interval>>(&mut self, iter: I) {
        for iv in iter {
            self.insert(iv);
        }
    }
}

impl<'a> IntoIterator for &'a IntervalSet {
    type Item = &'a Interval;
    type IntoIter = std::slice::Iter<'a, Interval>;
    fn into_iter(self) -> Self::IntoIter {
        self.spans.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn iv(lo: Coord, hi: Coord) -> Interval {
        Interval::new(lo, hi).unwrap()
    }

    #[test]
    fn interval_basics() {
        let a = iv(2, 8);
        assert_eq!(a.length(), 6);
        assert!(a.contains(2));
        assert!(a.contains(8));
        assert!(!a.contains(9));
        assert!(Interval::new(5, 3).is_err());
        assert!(Interval::new(5, 5).is_ok());
    }

    #[test]
    fn closed_vs_open_overlap() {
        let a = iv(0, 4);
        let b = iv(4, 8);
        assert!(a.overlaps(b));
        assert!(!a.overlaps_open(b));
        let c = iv(3, 5);
        assert!(a.overlaps_open(c));
    }

    #[test]
    fn intersection_of_closed_intervals() {
        let a = iv(0, 5);
        let b = iv(3, 9);
        assert_eq!(a.intersection(b), Some(iv(3, 5)));
        assert_eq!(iv(0, 1).intersection(iv(3, 4)), None);
    }

    #[test]
    fn set_coalesces_touching_spans() {
        let mut s = IntervalSet::new();
        s.insert(iv(0, 4));
        s.insert(iv(6, 9));
        assert_eq!(s.len(), 2);
        s.insert(iv(4, 6));
        assert_eq!(s.len(), 1);
        assert_eq!(s.iter().next(), Some(&iv(0, 9)));
    }

    #[test]
    fn set_merges_overlapping_runs() {
        let mut s = IntervalSet::new();
        for i in 0..10 {
            s.insert(iv(i * 3, i * 3 + 2)); // gaps of 1 between spans
        }
        assert_eq!(s.len(), 10);
        s.insert(iv(0, 30)); // swallows everything
        assert_eq!(s.len(), 1);
        assert_eq!(s.total_length(), 30);
    }

    #[test]
    fn set_membership_queries() {
        let s: IntervalSet = [iv(0, 2), iv(10, 12)].into_iter().collect();
        assert!(s.contains(1));
        assert!(s.contains(10));
        assert!(!s.contains(5));
        assert!(s.overlaps(iv(2, 3)));
        assert!(!s.overlaps_open(iv(2, 3)));
        assert!(!s.overlaps(iv(4, 9)));
    }

    #[test]
    fn extend_works() {
        let mut s = IntervalSet::new();
        s.extend([iv(0, 1), iv(5, 6)]);
        assert_eq!(s.len(), 2);
    }

    proptest! {
        #[test]
        fn set_invariants_hold(ranges in prop::collection::vec((0i64..200, 0i64..20), 0..40)) {
            let mut s = IntervalSet::new();
            for (lo, len) in ranges {
                s.insert(iv(lo, lo + len));
            }
            // Spans are sorted, disjoint and non-touching.
            let spans: Vec<_> = s.iter().copied().collect();
            for w in spans.windows(2) {
                prop_assert!(w[0].hi() < w[1].lo(), "spans must not touch: {} {}", w[0], w[1]);
            }
            // Total length equals the length of the union computed naively.
            let mut covered = vec![false; 260];
            for sp in &spans {
                for x in sp.lo()..sp.hi() {
                    covered[x as usize] = true;
                }
            }
            let naive: i64 = covered.iter().filter(|&&c| c).count() as i64;
            prop_assert_eq!(s.total_length(), naive);
        }

        #[test]
        fn insertion_order_is_irrelevant(ranges in prop::collection::vec((0i64..100, 1i64..10), 1..12)) {
            let ivs: Vec<_> = ranges.iter().map(|&(lo, len)| iv(lo, lo + len)).collect();
            let forward: IntervalSet = ivs.iter().copied().collect();
            let backward: IntervalSet = ivs.iter().rev().copied().collect();
            prop_assert_eq!(forward, backward);
        }
    }
}
