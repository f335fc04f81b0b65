//! Seeded truth tables for the pin and allocation tests: rows come in
//! pairs that differ in one literal (so a minimizer has merges to find)
//! with a fixed number of dashes (so the covered share of the input
//! space, and the minimizer's work, stay close from seed to seed).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use silc_logic::{Cube, Lit, OutBit, TruthTable};

/// `(seed, inputs, outputs, rows, dashes, don't-cares)` of one table.
pub type Shape = (u64, usize, usize, usize, usize, bool);

/// The tables `pins.txt` holds the minimized covers of, in file order.
pub const PINNED: [Shape; 12] = [
    (1, 8, 4, 72, 1, false),
    (2, 8, 6, 88, 1, true),
    (3, 9, 3, 60, 2, true),
    (4, 10, 4, 64, 3, false),
    (5, 10, 6, 80, 3, true),
    (6, 11, 3, 90, 3, true),
    (7, 12, 4, 112, 4, false),
    (8, 12, 5, 128, 4, true),
    (9, 13, 2, 100, 5, true),
    (10, 14, 3, 120, 6, false),
    (11, 15, 2, 140, 7, true),
    (12, 16, 5, 200, 8, true),
];

pub fn table(&(seed, inputs, outputs, rows, dashes, dc): &Shape) -> TruthTable {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = TruthTable::new(inputs, outputs);
    while t.rows().len() < rows {
        let mut lits: Vec<Lit> = (0..inputs)
            .map(|_| {
                if rng.gen_bool(0.5) {
                    Lit::One
                } else {
                    Lit::Zero
                }
            })
            .collect();
        let mut left = dashes;
        while left > 0 {
            let i = rng.gen_range(0..inputs);
            if lits[i] != Lit::DontCare {
                lits[i] = Lit::DontCare;
                left -= 1;
            }
        }
        let mut outs: Vec<OutBit> = (0..outputs)
            .map(|_| match rng.gen_range(0..20) {
                0..=7 => OutBit::On,
                8 if dc => OutBit::DontCare,
                _ => OutBit::Off,
            })
            .collect();
        if !outs.contains(&OutBit::On) {
            outs[rng.gen_range(0..outputs)] = OutBit::On;
        }
        let flip = (0..inputs)
            .cycle()
            .skip(rng.gen_range(0..inputs))
            .find(|&i| lits[i] != Lit::DontCare)
            .expect("fewer dashes than inputs");
        let mut twin = lits.clone();
        twin[flip] = if lits[flip] == Lit::One {
            Lit::Zero
        } else {
            Lit::One
        };
        t.push_row(Cube::from_lits(lits), outs.clone())
            .expect("shape");
        if t.rows().len() < rows {
            t.push_row(Cube::from_lits(twin), outs).expect("shape");
        }
    }
    t
}
