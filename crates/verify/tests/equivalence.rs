//! Oracle-checked equivalence verdicts.
//!
//! Every verdict the checker returns is compared against brute-force
//! minterm enumeration (the widths here are small enough to sweep):
//! random (truth table → minimize) pairs and (RTL → synthesized control
//! store) pairs must verify as equivalent, and seeded single-cube /
//! single-literal mutations must produce exactly the verdict the
//! enumeration oracle gives — zero false passes, zero false fails, in
//! either direction.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use silc_logic::{Cover, Cube, Lit, OutBit, TruthTable};
use silc_pla::{Minimize, PlaSpec};
use silc_trace::Tracer;
use silc_verify::{check_against_table_traced, check_equivalence_traced, Network, Options};

/// A random truth table with don't-care outputs.
fn random_table(rng: &mut StdRng, ni: usize, no: usize) -> TruthTable {
    let mut t = TruthTable::new(ni, no);
    let rows = rng.gen_range(1..7usize);
    for _ in 0..rows {
        let lits: Vec<Lit> = (0..ni)
            .map(|_| match rng.gen_range(0..3u32) {
                0 => Lit::Zero,
                1 => Lit::One,
                _ => Lit::DontCare,
            })
            .collect();
        let outs: Vec<OutBit> = (0..no)
            .map(|_| match rng.gen_range(0..4u32) {
                0 | 1 => OutBit::On,
                2 => OutBit::Off,
                _ => OutBit::DontCare,
            })
            .collect();
        t.push_row(Cube::from_lits(lits), outs).unwrap();
    }
    t
}

/// `spec`'s realized output covers.
fn realized_covers(spec: &PlaSpec) -> Vec<Cover> {
    (0..spec.num_outputs())
        .map(|o| spec.output_cover(o))
        .collect()
}

/// The network realizing `spec`'s output covers (a flat PLA).
fn realized_network(spec: &PlaSpec) -> Network {
    let outputs: Vec<(String, Cover)> = spec
        .output_names()
        .iter()
        .cloned()
        .zip(realized_covers(spec))
        .collect();
    Network::from_covers(spec.input_names(), &outputs).unwrap()
}

/// Brute-force oracle: does `impl_covers` satisfy `table` on every
/// minterm? DC wins over ON on overlap, matching `minimize`'s
/// convention (IRREDUNDANT may drop any cube inside the DC set).
fn oracle_ok(table: &TruthTable, impl_covers: &[Cover]) -> bool {
    let ni = table.num_inputs();
    for m in 0..(1u64 << ni) {
        for (o, cover) in impl_covers.iter().enumerate() {
            let got = cover.eval(m);
            if table.dc_cover(o).unwrap().eval(m) {
                continue;
            }
            let want = table.on_cover(o).unwrap().eval(m);
            if want != got {
                return false;
            }
        }
    }
    true
}

/// Flips one literal / drops one cube / adds one random cube in one
/// output cover — a seeded "silent synthesis bug".
fn mutate(rng: &mut StdRng, covers: &mut [Cover]) {
    let ni = covers[0].num_inputs();
    let o = rng.gen_range(0..covers.len());
    let cover = &mut covers[o];
    match rng.gen_range(0..3u32) {
        0 if !cover.is_empty() => {
            // Flip a literal in one cube.
            let ci = rng.gen_range(0..cover.len());
            let pos = rng.gen_range(0..ni);
            let cube = cover.cubes()[ci].clone();
            let new_lit = match cube.lit(pos) {
                Lit::One => Lit::Zero,
                Lit::Zero => Lit::DontCare,
                Lit::DontCare => Lit::One,
            };
            let mut cubes: Vec<Cube> = cover.cubes().to_vec();
            cubes[ci] = cube.with_lit(pos, new_lit);
            *cover = Cover::from_cubes(ni, cubes).unwrap();
        }
        1 if cover.len() > 1 => {
            // Drop a cube.
            let ci = rng.gen_range(0..cover.len());
            let mut cubes: Vec<Cube> = cover.cubes().to_vec();
            cubes.remove(ci);
            *cover = Cover::from_cubes(ni, cubes).unwrap();
        }
        _ => {
            // Add a random cube.
            let lits: Vec<Lit> = (0..ni)
                .map(|_| match rng.gen_range(0..3u32) {
                    0 => Lit::Zero,
                    1 => Lit::One,
                    _ => Lit::DontCare,
                })
                .collect();
            let mut cubes: Vec<Cube> = cover.cubes().to_vec();
            cubes.push(Cube::from_lits(lits));
            *cover = Cover::from_cubes(ni, cubes).unwrap();
        }
    }
}

fn check_table_pair(seed: u64) -> Result<(), TestCaseError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let ni = rng.gen_range(2..6usize);
    let no = rng.gen_range(1..4usize);
    let table = random_table(&mut rng, ni, no);
    let tracer = Tracer::disabled();
    let opts = Options::default();

    for mode in [Minimize::Exact, Minimize::Heuristic, Minimize::None] {
        let spec = PlaSpec::from_truth_table(&table, mode).unwrap();
        let net = realized_network(&spec);
        let report = check_against_table_traced(&net, &table, &opts, &tracer).unwrap();
        prop_assert!(
            report.equivalent,
            "false fail ({mode:?}): {:?}",
            report.mismatches
        );
    }

    // A seeded mutation must get exactly the oracle's verdict.
    let spec = PlaSpec::from_truth_table(&table, Minimize::Heuristic).unwrap();
    let mut covers = realized_covers(&spec);
    mutate(&mut rng, &mut covers);
    let outputs: Vec<(String, Cover)> = table
        .output_names()
        .iter()
        .cloned()
        .zip(covers.iter().cloned())
        .collect();
    let net = Network::from_covers(table.input_names(), &outputs).unwrap();
    let report = check_against_table_traced(&net, &table, &opts, &tracer).unwrap();
    let want = oracle_ok(&table, &covers);
    prop_assert_eq!(
        report.equivalent,
        want,
        "verdict disagrees with brute force: {:?}",
        report.mismatches
    );
    Ok(())
}

/// The two entry points are one procedure: a function with an empty DC
/// set checked as a table and the same function checked as a network
/// agree on the verdict, the output count, the outputs simulation
/// refutes (up to five inputs round 0 sweeps every minterm) and the
/// counterexample printed for each.
fn check_entry_points_agree(seed: u64) -> Result<(), TestCaseError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let ni = rng.gen_range(2..6usize);
    let no = rng.gen_range(1..4usize);
    let mut table = TruthTable::new(ni, no);
    for (cube, outs) in random_table(&mut rng, ni, no).rows() {
        let outs = outs.iter().map(|&b| match b {
            OutBit::DontCare => OutBit::Off,
            b => b,
        });
        table.push_row(cube.clone(), outs.collect()).unwrap();
    }
    let named = |covers: &[Cover]| -> Vec<(String, Cover)> {
        let names = table.output_names().iter().cloned();
        names.zip(covers.iter().cloned()).collect()
    };
    let mut covers: Vec<Cover> = (0..no).map(|o| table.on_cover(o).unwrap()).collect();
    let spec_net = Network::from_covers(table.input_names(), &named(&covers)).unwrap();
    if rng.gen_range(0..3u32) > 0 {
        mutate(&mut rng, &mut covers);
    }
    let impl_net = Network::from_covers(table.input_names(), &named(&covers)).unwrap();

    let (opts, tracer) = (Options::default(), Tracer::disabled());
    let by_table = check_against_table_traced(&impl_net, &table, &opts, &tracer).unwrap();
    let by_net = check_equivalence_traced(&impl_net, &spec_net, &opts, &tracer).unwrap();
    prop_assert_eq!(by_table.equivalent, by_net.equivalent);
    prop_assert_eq!(by_table.equivalent, oracle_ok(&table, &covers));
    prop_assert_eq!(by_table.outputs, by_net.outputs);
    prop_assert_eq!(by_table.sim_refuted, by_net.sim_refuted);
    // Same first bad lane of the same round-0 words: same counterexamples.
    prop_assert_eq!(by_table.mismatches, by_net.mismatches);
    Ok(())
}

/// A small random-but-valid ISL machine.
fn random_machine_source(rng: &mut StdRng) -> String {
    let n_states = rng.gen_range(2..5usize);
    let n_regs = rng.gen_range(1..3usize);
    let mut src = String::from("machine m {\n");
    for r in 0..n_regs {
        src.push_str(&format!("  reg r{r}[{}];\n", rng.gen_range(2..5u32)));
    }
    for s in 0..n_states {
        src.push_str(&format!("  state s{s} {{\n"));
        let assign = |rng: &mut StdRng| {
            let r = rng.gen_range(0..n_regs);
            match rng.gen_range(0..3u32) {
                0 => format!("r{r} := r{r} + 1;"),
                1 => format!("r{r} := r{r} ^ r{};", rng.gen_range(0..n_regs)),
                _ => format!("r{r} := {};", rng.gen_range(0..4u32)),
            }
        };
        if rng.gen_bool(0.7) {
            let c = rng.gen_range(0..n_regs);
            let k = rng.gen_range(0..4u32);
            src.push_str(&format!("    if r{c} == {k} {{\n"));
            src.push_str(&format!("      {}\n", assign(rng)));
            src.push_str(&format!("      goto s{};\n", rng.gen_range(0..n_states)));
            src.push_str("    } else {\n");
            if rng.gen_bool(0.3) {
                src.push_str("      halt;\n");
            } else {
                src.push_str(&format!("      goto s{};\n", rng.gen_range(0..n_states)));
            }
            src.push_str("    }\n");
        } else {
            src.push_str(&format!("    {}\n", assign(rng)));
            src.push_str(&format!("    goto s{};\n", rng.gen_range(0..n_states)));
        }
        src.push_str("  }\n");
    }
    src.push('}');
    src
}

fn check_control_pair(seed: u64) -> Result<(), TestCaseError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let source = random_machine_source(&mut rng);
    let machine = silc_rtl::parse(&source).unwrap_or_else(|e| panic!("{e}\n{source}"));
    let control = silc_synth::control_table(&machine);
    let table = &control.table;
    let tracer = Tracer::disabled();
    let opts = Options::default();

    // The minimized control store must verify against the exact table.
    let spec = PlaSpec::from_truth_table(table, Minimize::Heuristic).unwrap();
    let net = realized_network(&spec);
    let report = check_against_table_traced(&net, table, &opts, &tracer).unwrap();
    prop_assert!(
        report.equivalent,
        "false fail on control store of:\n{source}\n{:?}",
        report.mismatches
    );

    // And a mutated control store must match the oracle's verdict.
    let mut covers = realized_covers(&spec);
    mutate(&mut rng, &mut covers);
    let outputs: Vec<(String, Cover)> = table
        .output_names()
        .iter()
        .cloned()
        .zip(covers.iter().cloned())
        .collect();
    let net = Network::from_covers(table.input_names(), &outputs).unwrap();
    let report = check_against_table_traced(&net, table, &opts, &tracer).unwrap();
    let want = oracle_ok(table, &covers);
    prop_assert_eq!(
        report.equivalent,
        want,
        "control verdict disagrees with brute force on:\n{}\n{:?}",
        source,
        report.mismatches
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// (truth table → minimize) pairs verify; mutations match the
    /// brute-force oracle exactly.
    #[test]
    fn minimized_tables_verify_and_mutations_are_caught(seed in 0u64..u64::MAX) {
        check_table_pair(seed)?;
    }

    /// A table without don't-cares gets one verdict from both entries.
    #[test]
    fn table_entry_and_network_entry_agree(seed in 0u64..u64::MAX) {
        check_entry_points_agree(seed)?;
    }

    /// (RTL → synthesized control store) pairs verify; mutations match
    /// the brute-force oracle exactly.
    #[test]
    fn control_stores_verify_and_mutations_are_caught(seed in 0u64..u64::MAX) {
        check_control_pair(seed)?;
    }
}
