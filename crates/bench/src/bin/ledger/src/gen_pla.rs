//! Seeded espresso-format tables with a brute-force evaluator of their
//! own, which is the reference for every equivalence verdict the
//! benchmark asks the compiler for.

use crate::rng::Rng;
use std::fmt::Write as _;

/// A multi-output table in espresso `fd` form: per row an input cube of
/// `0`, `1`, `-` and per output `1` (on), `0` (says nothing) or `-`
/// (don't care).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pla {
    pub inputs: usize,
    pub outputs: usize,
    pub rows: Vec<(Vec<u8>, Vec<u8>)>,
}

/// The value of one output on one minterm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Value {
    Off,
    On,
    DontCare,
}

impl Pla {
    /// A random table of `rows` cubes with `dashes` dashes each. A fixed
    /// dash count keeps the covered share of the input space, and with it
    /// the minimizer's work, close from seed to seed. Rows come in pairs
    /// that differ in one literal, so a minimizer has merges to find.
    pub fn random(rng: &mut Rng, inputs: usize, outputs: usize, rows: usize, dashes: usize) -> Pla {
        let mut table = Vec::with_capacity(rows);
        while table.len() < rows {
            let mut cube: Vec<u8> = (0..inputs).map(|_| b'0' + rng.below(2) as u8).collect();
            let mut left = dashes;
            while left > 0 {
                let i = rng.below(inputs);
                if cube[i] != b'-' {
                    cube[i] = b'-';
                    left -= 1;
                }
            }
            let mut outs: Vec<u8> = (0..outputs)
                .map(|_| match rng.below(20) {
                    0..=7 => b'1',
                    8 => b'-',
                    _ => b'0',
                })
                .collect();
            if !outs.contains(&b'1') {
                outs[rng.below(outputs)] = b'1';
            }
            let mut twin = cube.clone();
            let i = (0..inputs)
                .cycle()
                .skip(rng.below(inputs))
                .find(|&i| cube[i] != b'-');
            let i = i.expect("fewer dashes than inputs");
            twin[i] = if cube[i] == b'0' { b'1' } else { b'0' };
            table.push((cube, outs.clone()));
            table.push((twin, outs));
        }
        table.truncate(rows);
        Pla {
            inputs,
            outputs,
            rows: table,
        }
    }

    pub fn text(&self) -> String {
        let mut s = format!(".i {}\n.o {}\n.ilb", self.inputs, self.outputs);
        for i in 0..self.inputs {
            let _ = write!(s, " x{i}");
        }
        s.push_str("\n.ob");
        for o in 0..self.outputs {
            let _ = write!(s, " y{o}");
        }
        let _ = writeln!(s, "\n.p {}", self.rows.len());
        for (cube, outs) in &self.rows {
            s.push_str(std::str::from_utf8(cube).expect("ascii"));
            s.push(' ');
            s.push_str(std::str::from_utf8(outs).expect("ascii"));
            s.push('\n');
        }
        s.push_str(".e\n");
        s
    }

    fn covers(cube: &[u8], minterm: u64) -> bool {
        cube.iter().enumerate().all(|(i, &lit)| match lit {
            b'-' => true,
            b'1' => minterm >> i & 1 == 1,
            _ => minterm >> i & 1 == 0,
        })
    }

    /// Output `o` on `minterm`: a don't-care row wins over an on row.
    pub fn eval(&self, o: usize, minterm: u64) -> Value {
        let mut value = Value::Off;
        for (cube, outs) in &self.rows {
            if outs[o] != b'0' && Pla::covers(cube, minterm) {
                if outs[o] == b'-' {
                    return Value::DontCare;
                }
                value = Value::On;
            }
        }
        value
    }

    /// True when this table's on rows, taken as an implementation,
    /// realize `spec`: equal wherever `spec` cares. Every minterm of
    /// every output is tried.
    pub fn implements(&self, spec: &Pla) -> bool {
        (0..self.outputs).all(|o| {
            (0..1u64 << self.inputs).all(|m| {
                let got = self
                    .rows
                    .iter()
                    .any(|(c, outs)| outs[o] == b'1' && Pla::covers(c, m));
                match spec.eval(o, m) {
                    Value::DontCare => true,
                    Value::On => got,
                    Value::Off => !got,
                }
            })
        })
    }

    /// A table that differs in function: one on bit cleared where no
    /// other row covers for it. `None` if every on bit is redundant.
    pub fn mutant(&self, rng: &mut Rng) -> Option<Pla> {
        let start = rng.below(self.rows.len());
        for step in 0..self.rows.len() {
            let r = (start + step) % self.rows.len();
            for o in 0..self.outputs {
                if self.rows[r].1[o] != b'1' {
                    continue;
                }
                let mut changed = self.clone();
                changed.rows[r].1[o] = b'0';
                if !self.implements(&changed) {
                    return Some(changed);
                }
            }
        }
        None
    }

    /// The same function written differently: rows reversed and the
    /// first cube with a dash split in two.
    pub fn respelled(&self) -> Pla {
        let mut rows: Vec<_> = self.rows.iter().rev().cloned().collect();
        if let Some((r, i)) = rows
            .iter()
            .enumerate()
            .find_map(|(r, (cube, _))| cube.iter().position(|&l| l == b'-').map(|i| (r, i)))
        {
            let mut other = rows[r].clone();
            rows[r].0[i] = b'0';
            other.0[i] = b'1';
            rows.push(other);
        }
        Pla {
            rows,
            ..self.clone()
        }
    }
}

/// `(inputs, outputs, rows, dashes)` of the synthesis corpus: two tables at
/// each of 8, 10 and 12 inputs. Exact verification grows fast with the
/// input count; 14 inputs already costs most of a second per verdict.
pub const PLA_SHAPES: [(usize, usize, usize, usize); 6] = [
    (8, 4, 72, 1),
    (8, 6, 88, 1),
    (10, 4, 64, 3),
    (10, 6, 80, 3),
    (12, 4, 112, 4),
    (12, 5, 128, 4),
];

pub fn pla_corpus(seed: u64) -> Vec<Pla> {
    PLA_SHAPES
        .iter()
        .enumerate()
        .map(|(i, &(ni, no, rows, dashes))| {
            Pla::random(
                &mut Rng::new(seed, &format!("pla_{i}")),
                ni,
                no,
                rows,
                dashes,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(seed: u64) -> Pla {
        Pla::random(&mut Rng::new(seed, "t"), 5, 3, 9, 2)
    }

    #[test]
    fn tables_replay_from_the_seed_and_differ_between_seeds() {
        assert_eq!(pla_corpus(4), pla_corpus(4));
        assert_ne!(pla_corpus(4), pla_corpus(5));
    }

    #[test]
    fn dont_care_wins_over_on() {
        let pla = Pla {
            inputs: 2,
            outputs: 1,
            rows: vec![
                (b"1-".to_vec(), b"1".to_vec()),
                (b"11".to_vec(), b"-".to_vec()),
            ],
        };
        assert_eq!(pla.eval(0, 0b01), Value::On);
        assert_eq!(pla.eval(0, 0b11), Value::DontCare);
        assert_eq!(pla.eval(0, 0b00), Value::Off);
    }

    #[test]
    fn a_mutant_differs_and_a_respelling_does_not() {
        for seed in 0..20 {
            let pla = small(seed);
            assert!(pla.implements(&pla));
            let respelled = pla.respelled();
            assert_ne!(respelled.text(), pla.text());
            assert!(pla.implements(&respelled), "seed {seed}");
            let mutant = pla
                .mutant(&mut Rng::new(seed, "m"))
                .expect("some on bit matters");
            assert!(!pla.implements(&mutant), "seed {seed}");
        }
    }

    #[test]
    fn text_is_well_formed_espresso() {
        let text = small(1).text();
        assert!(text.starts_with(".i 5\n.o 3\n.ilb x0 x1 x2 x3 x4\n.ob y0 y1 y2\n.p 9\n"));
        assert!(text.ends_with(".e\n"));
    }
}
