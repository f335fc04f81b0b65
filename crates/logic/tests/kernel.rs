//! The packed cube calculus against two oracles it cannot share a bug
//! with: the `Vec<Lit>` cube this crate had before bit-planes, operation
//! for operation at widths either side of every word boundary, and
//! minterm enumeration for what a cover is asked — tautology and
//! containment — at up to 12 inputs, then again with the same functions
//! spread over two, three and four words of mostly unused inputs.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use silc_logic::{Cover, Cube, Lit, Scratch};

const LITS: [Lit; 3] = [Lit::Zero, Lit::One, Lit::DontCare];

/// One `Lit` per input, every operation a walk over them.
#[derive(Debug, Clone, PartialEq)]
struct Reference(Vec<Lit>);

impl Reference {
    fn of(cube: &Cube) -> Reference {
        Reference(cube.lits().collect())
    }

    fn pairs<'a>(&'a self, other: &'a Reference) -> impl Iterator<Item = (Lit, Lit)> + 'a {
        self.0.iter().copied().zip(other.0.iter().copied())
    }

    fn literal_count(&self) -> usize {
        self.0.iter().filter(|&&l| l != Lit::DontCare).count()
    }

    /// Input 0 is the minterm's bit `n-1`; inputs above its 64 bits read 0.
    fn covers_minterm(&self, minterm: u64) -> bool {
        let n = self.0.len();
        self.0.iter().enumerate().all(|(i, &l)| {
            let bit = minterm.checked_shr((n - 1 - i) as u32).unwrap_or(0) & 1;
            l == Lit::DontCare || (l == Lit::One) == (bit == 1)
        })
    }

    fn covers_cube(&self, other: &Reference) -> bool {
        self.pairs(other).all(|(a, b)| a == Lit::DontCare || a == b)
    }

    fn conflict_count(&self, other: &Reference) -> usize {
        let opposite = |&(a, b): &(Lit, Lit)| a != b && a != Lit::DontCare && b != Lit::DontCare;
        self.pairs(other).filter(opposite).count()
    }

    fn intersect(&self, other: &Reference) -> Option<Reference> {
        let meet = |(a, b)| if a == Lit::DontCare { b } else { a };
        (self.conflict_count(other) == 0).then(|| Reference(self.pairs(other).map(meet).collect()))
    }

    fn supercube(&self, other: &Reference) -> Reference {
        let join = |(a, b)| if a == b { a } else { Lit::DontCare };
        Reference(self.pairs(other).map(join).collect())
    }

    fn merge_adjacent(&self, other: &Reference) -> Option<Reference> {
        let differing = self.pairs(other).filter(|(a, b)| a != b).count();
        (differing == 1 && self.conflict_count(other) == 1).then(|| self.supercube(other))
    }

    fn cofactor(&self, against: &Reference) -> Option<Reference> {
        let free = |(a, c)| if c == Lit::DontCare { a } else { Lit::DontCare };
        (self.conflict_count(against) == 0)
            .then(|| Reference(self.pairs(against).map(free).collect()))
    }
}

#[test]
fn packed_cube_matches_the_reference_at_every_width() {
    let mut rng = StdRng::seed_from_u64(24);
    for width in [1, 63, 64, 65, 128, 129, 200] {
        for round in 0..300 {
            // Few bound literals on odd rounds, and `b` a near copy of
            // `a`, so that cubes meet, merge and contain one another.
            let dashes = if round % 2 == 0 { 3 } else { 3 + width };
            let a = Reference(
                (0..width)
                    .map(|_| LITS[rng.gen_range(0..dashes).min(2)])
                    .collect(),
            );
            let mut b = a.clone();
            for _ in 0..rng.gen_range(0..4) {
                b.0[rng.gen_range(0..width)] = LITS[rng.gen_range(0..3)];
            }
            let (pa, pb) = (Cube::from_lits(a.0.clone()), Cube::from_lits(b.0.clone()));
            assert_eq!((pa.width(), Reference::of(&pa)), (width, a.clone()));
            assert_eq!(Cube::parse(&pa.to_string()).unwrap(), pa);
            assert_eq!(pa.literal_count(), a.literal_count());
            let bound = a.0.iter().enumerate().filter(|(_, &l)| l != Lit::DontCare);
            let bound: Vec<_> = bound.map(|(i, &l)| (i, l == Lit::One)).collect();
            assert_eq!(pa.bound().collect::<Vec<_>>(), bound);
            assert_eq!(pa.covers_cube(&pb), a.covers_cube(&b));
            assert_eq!(pb.covers_cube(&pa), b.covers_cube(&a));
            assert_eq!(pa.conflict_count(&pb), a.conflict_count(&b));
            assert_eq!(
                pa.intersect(&pb).as_ref().map(Reference::of),
                a.intersect(&b)
            );
            assert_eq!(Reference::of(&pa.supercube(&pb)), a.supercube(&b));
            let merged = pa.merge_adjacent(&pb);
            assert_eq!(merged.as_ref().map(Reference::of), a.merge_adjacent(&b));
            let cofactor = Cover::from_cubes(width, vec![pa.clone()])
                .unwrap()
                .cofactor(&pb);
            let cofactor = cofactor.cubes().first().map(Reference::of);
            assert_eq!(cofactor, a.cofactor(&b));
            let i = rng.gen_range(0..width);
            let mut changed = a.clone();
            changed.0[i] = b.0[i];
            assert_eq!(Reference::of(&pa.with_lit(i, pb.lit(i))), changed);
            let m = rng.next_u64();
            assert_eq!(pa.covers_minterm(m), a.covers_minterm(m));
            let point = Cube::from_minterm(width, m);
            assert_eq!(point.literal_count(), width);
            assert!(Reference::of(&point).covers_minterm(m));
            assert_eq!(pa.covers_cube(&point), a.covers_minterm(m));
        }
    }
}

/// `cover` over `width` inputs, its column `i` moved to `columns[i]` and
/// every other column left unused.
fn spread(cover: &Cover, width: usize, columns: &[usize]) -> Cover {
    let place = |c: &Cube| {
        let mut wide = Cube::universe(width);
        for (i, one) in c.bound() {
            wide.set_lit(columns[i], if one { Lit::One } else { Lit::Zero });
        }
        wide
    };
    Cover::from_cubes(width, cover.cubes().iter().map(place).collect()).unwrap()
}

#[test]
fn kernel_matches_enumeration_at_every_width() {
    let mut rng = StdRng::seed_from_u64(24);
    let mut scratch = Scratch::default();
    let mut tautologies = 0;
    for round in 0..400 {
        let n = 1 + round % 12;
        // Sizes and dash rates that split the answers about one to two.
        let dashes = 3 + rng.gen_range(0..n);
        let mut random = |cubes: usize| {
            let mut cube =
                || Cube::from_lits((0..n).map(|_| LITS[rng.gen_range(0..dashes).min(2)]));
            Cover::from_cubes(n, (0..cubes).map(|_| cube()).collect()).unwrap()
        };
        let (f, g) = (random(1 + 2 * n), random(n));
        let tautology = (0..1u64 << n).all(|m| f.eval(m));
        let covers = (0..1u64 << n).all(|m| !g.eval(m) || f.eval(m));
        tautologies += usize::from(tautology);
        assert_eq!(f.is_tautology(), tautology, "{f}");
        assert_eq!(scratch.covers(&f, &g), covers, "{f} against {g}");
        for width in [70, 129, 200] {
            let mut columns: Vec<usize> = (0..n).map(|i| i * (width - 1) / n.max(2)).collect();
            columns[n - 1] = width - 1 - (round % 2) * (width - 64);
            let (wf, wg) = (spread(&f, width, &columns), spread(&g, width, &columns));
            assert_eq!(wf.is_tautology(), tautology, "{wf}");
            assert_eq!(scratch.covers(&wf, &wg), covers, "{wf} against {wg}");
        }
    }
    assert!((100..300).contains(&tautologies), "{tautologies} of 400");
}
