use silc_geom::Coord;
use silc_logic::{minimize_exact, minimize_heuristic, Cover, Cube, LogicError, TruthTable};
use std::fmt;

/// Which minimizer to run on each output before building the personality
/// matrix. `None` programs the table verbatim — the ablation baseline of
/// experiment E4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Minimize {
    /// Program the rows exactly as given.
    None,
    /// Quine–McCluskey + branch-and-bound (minimum terms, small inputs).
    #[default]
    Exact,
    /// Espresso-style expand/irredundant (scales to wide functions).
    Heuristic,
}

/// A PLA personality: the programming document turned into product terms.
///
/// Terms are shared across outputs: two outputs needing the same product
/// term drive it from one AND-plane row — the economy that makes
/// multi-output PLAs attractive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlaSpec {
    input_names: Vec<String>,
    output_names: Vec<String>,
    /// `(cube, taps)`: which outputs (by index) this term feeds.
    terms: Vec<(Cube, Vec<bool>)>,
}

impl PlaSpec {
    /// Builds a personality from a truth table, minimizing each output's
    /// ON-cover (with its don't-care set) and sharing identical terms.
    ///
    /// # Errors
    ///
    /// Propagates [`LogicError`] from the minimizers (e.g. exact
    /// minimization beyond 14 inputs).
    pub fn from_truth_table(table: &TruthTable, minimize: Minimize) -> Result<PlaSpec, LogicError> {
        Self::from_truth_table_traced(table, minimize, &silc_trace::Tracer::disabled())
    }

    /// [`from_truth_table`](PlaSpec::from_truth_table) with a
    /// [`silc_trace::Tracer`]: records a `pla.minimize` span and a
    /// `pla.terms` counter.
    ///
    /// # Errors
    ///
    /// Same as [`from_truth_table`](PlaSpec::from_truth_table).
    pub fn from_truth_table_traced(
        table: &TruthTable,
        minimize: Minimize,
        tracer: &silc_trace::Tracer,
    ) -> Result<PlaSpec, LogicError> {
        let _s = silc_trace::span!(tracer, "pla.minimize");
        let spec = Self::from_truth_table_impl(table, minimize)?;
        tracer.add("pla.terms", spec.num_terms() as u64);
        Ok(spec)
    }

    fn from_truth_table_impl(
        table: &TruthTable,
        minimize: Minimize,
    ) -> Result<PlaSpec, LogicError> {
        let n_out = table.num_outputs();
        let mut terms: Vec<(Cube, Vec<bool>)> = Vec::new();
        for o in 0..n_out {
            let on = table.on_cover(o)?;
            let dc = table.dc_cover(o)?;
            let cover = match minimize {
                Minimize::None => on,
                Minimize::Exact => minimize_exact(&on, &dc)?,
                Minimize::Heuristic => minimize_heuristic(&on, &dc)?,
            };
            for cube in cover.cubes() {
                match terms.iter_mut().find(|(c, _)| c == cube) {
                    Some((_, taps)) => taps[o] = true,
                    None => {
                        let mut taps = vec![false; n_out];
                        taps[o] = true;
                        terms.push((cube.clone(), taps));
                    }
                }
            }
        }
        Ok(PlaSpec {
            input_names: table.input_names().to_vec(),
            output_names: table.output_names().to_vec(),
            terms,
        })
    }

    /// Number of inputs.
    pub fn num_inputs(&self) -> usize {
        self.input_names.len()
    }

    /// Number of outputs.
    pub fn num_outputs(&self) -> usize {
        self.output_names.len()
    }

    /// Number of product terms (AND-plane rows).
    pub fn num_terms(&self) -> usize {
        self.terms.len()
    }

    /// Input signal names.
    pub fn input_names(&self) -> &[String] {
        &self.input_names
    }

    /// Output signal names.
    pub fn output_names(&self) -> &[String] {
        &self.output_names
    }

    /// The personality rows.
    pub fn terms(&self) -> &[(Cube, Vec<bool>)] {
        &self.terms
    }

    /// Number of programmed crosspoints (transistors) in the AND plane.
    pub fn and_plane_devices(&self) -> usize {
        self.terms.iter().map(|(c, _)| c.literal_count()).sum()
    }

    /// Number of programmed crosspoints in the OR plane.
    pub fn or_plane_devices(&self) -> usize {
        self.terms
            .iter()
            .map(|(_, taps)| taps.iter().filter(|&&t| t).count())
            .sum()
    }

    /// Evaluates every output on a minterm — used to verify that
    /// minimization and sharing preserved the function.
    pub fn eval(&self, minterm: u64) -> Vec<bool> {
        let mut out = vec![false; self.num_outputs()];
        for (cube, taps) in &self.terms {
            if cube.covers_minterm(minterm) {
                for (o, &t) in taps.iter().enumerate() {
                    if t {
                        out[o] = true;
                    }
                }
            }
        }
        out
    }

    /// The ON-cover this personality realises for output `o`.
    ///
    /// # Panics
    ///
    /// Panics when `o` is out of range.
    pub fn output_cover(&self, o: usize) -> Cover {
        assert!(o < self.num_outputs());
        let tapped = self.terms.iter().filter(|(_, taps)| taps[o]);
        Cover::from_cubes(self.num_inputs(), tapped.map(|(c, _)| c.clone()).collect())
            .expect("every term has one cube column an input")
    }

    /// Area estimate (width, height) in lambda of the generated layout,
    /// matching [`crate::generate_layout`]'s actual dimensions.
    pub fn area_estimate(&self) -> (Coord, Coord) {
        crate::layout_gen::dimensions(self)
    }
}

impl fmt::Display for PlaSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "pla {}x{} with {} terms",
            self.num_inputs(),
            self.num_outputs(),
            self.num_terms()
        )?;
        for (cube, taps) in &self.terms {
            let taps: String = taps.iter().map(|&t| if t { '1' } else { '0' }).collect();
            writeln!(f, "  {cube} {taps}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use silc_logic::functions::{bcd_to_seven_segment, majority, traffic_light};
    use silc_logic::{OutBit, TruthTable};

    #[test]
    fn majority_spec() {
        let spec = PlaSpec::from_truth_table(&majority(3), Minimize::Exact).unwrap();
        assert_eq!(spec.num_inputs(), 3);
        assert_eq!(spec.num_outputs(), 1);
        assert_eq!(spec.num_terms(), 3); // ab + ac + bc
        assert_eq!(spec.and_plane_devices(), 6);
        assert_eq!(spec.or_plane_devices(), 3);
    }

    #[test]
    fn unminimized_keeps_rows() {
        let t = majority(3);
        let raw = PlaSpec::from_truth_table(&t, Minimize::None).unwrap();
        let min = PlaSpec::from_truth_table(&t, Minimize::Exact).unwrap();
        assert_eq!(raw.num_terms(), 4); // the four ON minterms
        assert!(min.num_terms() < raw.num_terms());
    }

    #[test]
    fn function_preserved_for_all_modes() {
        for table in [majority(4), bcd_to_seven_segment(), traffic_light()] {
            for mode in [Minimize::None, Minimize::Exact, Minimize::Heuristic] {
                let spec = PlaSpec::from_truth_table(&table, mode).unwrap();
                for m in 0..(1u64 << table.num_inputs()) {
                    let got = spec.eval(m);
                    for (o, &g) in got.iter().enumerate() {
                        // A don't-care output accepts anything.
                        if let Some(expected) = table.eval(o, m).unwrap() {
                            assert_eq!(g, expected, "{mode:?} output {o} minterm {m} diverged");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn terms_shared_across_outputs() {
        // Two outputs with an identical ON-cover must share all rows.
        let mut t = TruthTable::new(2, 2);
        t.push_row(Cube::parse("11").unwrap(), vec![OutBit::On, OutBit::On])
            .unwrap();
        t.push_row(Cube::parse("10").unwrap(), vec![OutBit::On, OutBit::On])
            .unwrap();
        let spec = PlaSpec::from_truth_table(&t, Minimize::Exact).unwrap();
        assert_eq!(spec.num_terms(), 1); // both outputs = a
        assert_eq!(spec.or_plane_devices(), 2);
    }

    #[test]
    fn output_cover_is_equivalent() {
        let t = traffic_light();
        let spec = PlaSpec::from_truth_table(&t, Minimize::Exact).unwrap();
        for o in 0..t.num_outputs() {
            let realised = spec.output_cover(o);
            let on = t.on_cover(o).unwrap();
            // Realised may use don't-cares, so check on covers only.
            assert!(realised.covers(&on), "output {o} lost minterms");
        }
    }

    #[test]
    fn display_shows_personality() {
        let spec = PlaSpec::from_truth_table(&majority(3), Minimize::Exact).unwrap();
        let s = spec.to_string();
        assert!(s.contains("3x1"));
        assert!(s.contains("3 terms"));
    }
}
