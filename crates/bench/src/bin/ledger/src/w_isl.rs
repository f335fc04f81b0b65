//! The behavioral workloads: `sim_pdp8` and `isl_synth`.

use crate::gen_isl::{self, SIM_CYCLES};
use crate::gen_pla::{self, Pla};
use crate::layers;
use crate::rng::Rng;
use crate::spans::Recorder;
use crate::workload::{expect_exit, run_passes, write_file, Ctx, Pace, Replayed, Tally, Workload};
use std::path::{Path, PathBuf};

/// One machine to simulate and the final state it must reach.
struct SimCase {
    name: String,
    source: String,
    cycles: u64,
    halted: bool,
    /// Final control state, where the reference knows it.
    state: Option<String>,
    /// Registers that are checked (a subset for the PDP-8, whose
    /// internal registers the ISA-level reference does not model).
    regs: Vec<(String, u64)>,
}

/// `silc sim m.isl --cycles 1000000 --engine compiled --no-cache`.
pub struct SimPdp8 {
    dir: PathBuf,
    cases: Vec<SimCase>,
}

/// Assembles program `kind` with an outer repeat count chosen so that it
/// halts after 0.90 to 0.97 million ISL cycles, and asks the ISA-level
/// emulator where it ends. Cycles are linear in the repeat count, so two
/// short runs fix the count.
fn pdp8_case(seed: u64, kind: usize) -> Result<SimCase, String> {
    let name = format!("pdp8_{kind}");
    let run = |reps: i64| {
        let mut rng = Rng::new(seed, &name);
        let text = gen_isl::pdp8_program(kind, &mut rng, reps);
        let program = layers::pdp8_assemble(&text)?;
        let end = layers::pdp8_reference(&program, SIM_CYCLES, gen_isl::pdp8_instruction_cycles);
        Ok::<_, String>((program, end))
    };
    let (one, two) = (run(1)?.1.isl_cycles, run(2)?.1.isl_cycles);
    let target = Rng::new(seed, &format!("{name}_length")).range(900_000, 970_000) as u64;
    let reps = 1 + (target - one) / (two - one).max(1);
    let (program, end) = run(reps.min(4095) as i64)?;
    // One cycle for the boot state in front.
    let cycles = end.isl_cycles + 1;
    if !end.halted || cycles >= SIM_CYCLES {
        return Err(format!(
            "{name}: {reps} repeats do not halt inside the budget ({cycles} cycles)"
        ));
    }
    Ok(SimCase {
        source: gen_isl::pdp8_boot_source(layers::pdp8_isp_source(), &program.words, program.start),
        name,
        cycles,
        halted: true,
        state: None,
        regs: vec![
            ("pc".into(), u64::from(end.pc)),
            ("ac".into(), u64::from(end.ac)),
            ("l".into(), u64::from(end.link)),
        ],
    })
}

impl SimPdp8 {
    pub fn set_up(ctx: &Ctx, dir: &Path) -> Result<SimPdp8, String> {
        let mut cases = Vec::new();
        for kind in 0..4 {
            cases.push(pdp8_case(ctx.seed, kind)?);
        }
        for kind in 0..4 {
            let mill = gen_isl::mill(kind, &mut Rng::new(ctx.seed, &format!("mill_{kind}")));
            cases.push(SimCase {
                name: mill.name,
                source: mill.source,
                cycles: SIM_CYCLES,
                halted: false,
                state: Some(mill.state),
                regs: mill.regs,
            });
        }
        for c in &cases {
            write_file(dir, &format!("{}.isl", c.name), &c.source)?;
        }
        Ok(SimPdp8 {
            dir: dir.to_path_buf(),
            cases,
        })
    }
}

/// Checks the report `silc sim` prints against `case`.
fn check_sim_output(case: &SimCase, stdout: &str) -> Result<(), String> {
    let ending = if case.halted {
        "halted"
    } else {
        "cycle budget exhausted"
    };
    let head = stdout.lines().next().unwrap_or("");
    if !head.contains(&format!(": {} cycle(s), {ending} ", case.cycles)) {
        return Err(format!(
            "expected {} cycles, {ending}; got `{head}`",
            case.cycles
        ));
    }
    if let Some(state) = &case.state {
        if !head.ends_with(&format!("(final state `{state}`)")) {
            return Err(format!("expected final state `{state}`; got `{head}`"));
        }
    }
    for (reg, value) in &case.regs {
        let want = format!("  {reg} = {value:#o}");
        if !stdout.lines().any(|l| l == want) {
            return Err(format!("expected `{}` in the final state", want.trim()));
        }
    }
    Ok(())
}

impl Workload for SimPdp8 {
    fn items(&self) -> usize {
        self.cases.len()
    }

    fn run(&mut self, ctx: &Ctx, seconds: f64, tally: &mut Tally) -> Result<Pace, String> {
        let cycles = SIM_CYCLES.to_string();
        run_passes(seconds, tally, |_, tally| {
            for (i, case) in self.cases.iter().enumerate() {
                let file = format!("{}.isl", case.name);
                let args = [
                    "sim",
                    &file,
                    "--cycles",
                    &cycles,
                    "--engine",
                    "compiled",
                    "--no-cache",
                ];
                let run = ctx.silc(&self.dir, &args)?;
                let outcome =
                    expect_exit(&run, 0).and_then(|()| check_sim_output(case, &run.stdout));
                tally.op(i, run.ms, outcome);
            }
            Ok(())
        })
    }

    fn check(&mut self, _ctx: &Ctx, _tally: &mut Tally) -> Result<(), String> {
        // Every op's report was checked as it ran.
        Ok(())
    }

    fn replay(&mut self, _ctx: &Ctx, rec: &mut Recorder) -> Result<Replayed, String> {
        for case in &self.cases {
            rec.next_op();
            let sim = layers::sim_op(rec, &layers::engine_in_memory(), &case.source, SIM_CYCLES)?;
            let agrees = sim.cycles == case.cycles
                && sim.halted == case.halted
                && case.state.as_ref().is_none_or(|s| *s == sim.state)
                && case.regs.iter().all(|want| sim.regs.contains(want));
            if !agrees {
                return Err(format!(
                    "{}: replay ended in another state than the reference",
                    case.name
                ));
            }
        }
        Ok(Replayed {
            ops: self.cases.len() as u64,
            focus: None,
        })
    }
}

/// One PLA with the two tables its verdicts are checked on.
struct PlaCase {
    table: Pla,
    /// Differs in function, by brute force.
    mutant: Option<Pla>,
}

/// Compile-the-controller requests: a machine is synthesized and its
/// control store verified, a table is laid out as a PLA and verified.
/// Each request is two CLI invocations timed together.
pub struct IslSynth {
    dir: PathBuf,
    machines: Vec<String>,
    plas: Vec<PlaCase>,
}

impl IslSynth {
    pub fn set_up(ctx: &Ctx, dir: &Path) -> Result<IslSynth, String> {
        let mut machines = vec![layers::pdp8_isp_source().to_string()];
        machines.extend((0..5).map(|i| gen_isl::controller(ctx.seed, i)));
        for (i, m) in machines.iter().enumerate() {
            write_file(dir, &format!("m{i}.isl"), m)?;
        }
        let mut plas = Vec::new();
        for (i, table) in gen_pla::pla_corpus(ctx.seed).into_iter().enumerate() {
            let mutant = table.mutant(&mut Rng::new(ctx.seed, &format!("mutant_{i}")));
            let respelled = table.respelled();
            if !table.implements(&respelled) {
                return Err(format!("table {i}: the respelling changed the function"));
            }
            write_file(dir, &format!("t{i}.pla"), &table.text())?;
            write_file(dir, &format!("t{i}_same.pla"), &respelled.text())?;
            if let Some(m) = &mutant {
                write_file(dir, &format!("t{i}_mutant.pla"), &m.text())?;
            }
            plas.push(PlaCase { table, mutant });
        }
        Ok(IslSynth {
            dir: dir.to_path_buf(),
            machines,
            plas,
        })
    }
}

/// `Ok` when `silc verify` exited 0 saying "equivalent".
fn expect_equivalent(run: &crate::proc::CliRun) -> Result<(), String> {
    expect_exit(run, 0)?;
    if run.stderr.contains(": equivalent: ") {
        Ok(())
    } else {
        Err(format!("no verdict in: {}", run.stderr))
    }
}

impl Workload for IslSynth {
    fn items(&self) -> usize {
        self.machines.len() + self.plas.len()
    }

    fn run(&mut self, ctx: &Ctx, seconds: f64, tally: &mut Tally) -> Result<Pace, String> {
        run_passes(seconds, tally, |_, tally| {
            for i in 0..self.machines.len() {
                let file = format!("m{i}.isl");
                let synth = ctx.silc(&self.dir, &["synth", &file, "--no-cache"])?;
                let verify = ctx.silc(&self.dir, &["verify", &file, "--no-cache"])?;
                let outcome = expect_exit(&synth, 0)
                    .and_then(|()| {
                        if synth.stdout.contains("control: ") {
                            Ok(())
                        } else {
                            Err("synth printed no control summary".into())
                        }
                    })
                    .and_then(|()| expect_equivalent(&verify));
                tally.op(i, synth.ms + verify.ms, outcome);
            }
            for i in 0..self.plas.len() {
                let (file, out) = (format!("t{i}.pla"), format!("t{i}.cif"));
                let pla = ctx.silc(&self.dir, &["pla", &file, "-o", &out, "--no-cache"])?;
                let verify = ctx.silc(&self.dir, &["verify", &file, "--no-cache"])?;
                let outcome = expect_exit(&pla, 0)
                    .and_then(|()| {
                        if pla.stderr.contains("personality: ")
                            && pla.stderr.contains(": 0 violation(s)")
                        {
                            Ok(())
                        } else {
                            Err(format!("no clean personality in: {}", pla.stderr))
                        }
                    })
                    .and_then(|()| expect_equivalent(&verify));
                tally.op(self.machines.len() + i, pla.ms + verify.ms, outcome);
            }
            Ok(())
        })
    }

    /// The verdicts the brute-force evaluator knows: the respelled table
    /// is the same function, the mutant is not.
    fn check(&mut self, ctx: &Ctx, tally: &mut Tally) -> Result<(), String> {
        for (i, case) in self.plas.iter().enumerate() {
            let file = format!("t{i}.pla");
            let same = ctx.silc(
                &self.dir,
                &[
                    "verify",
                    &file,
                    "--against",
                    &format!("t{i}_same.pla"),
                    "--no-cache",
                ],
            )?;
            tally.check(
                &format!("t{i} against its respelling"),
                expect_equivalent(&same),
            );
            let Some(mutant) = &case.mutant else { continue };
            debug_assert!(!case.table.implements(mutant));
            let other = ctx.silc(
                &self.dir,
                &[
                    "verify",
                    &file,
                    "--against",
                    &format!("t{i}_mutant.pla"),
                    "--no-cache",
                ],
            )?;
            let outcome = expect_exit(&other, 1).and_then(|()| {
                if other.stderr.contains("NOT equivalent") {
                    Ok(())
                } else {
                    Err(format!("no refutation in: {}", other.stderr))
                }
            });
            tally.check(&format!("t{i} against its mutant"), outcome);
        }
        Ok(())
    }

    fn replay(&mut self, _ctx: &Ctx, rec: &mut Recorder) -> Result<Replayed, String> {
        for m in &self.machines {
            rec.next_op();
            layers::synth_op(rec, &layers::engine_in_memory(), m)?;
            if !layers::verify_isl_op(rec, &layers::engine_in_memory(), m)?.equivalent {
                return Err("replay refuted a control store".into());
            }
        }
        for case in &self.plas {
            rec.next_op();
            let text = case.table.text();
            layers::pla_op(rec, &layers::engine_in_memory(), &text)?;
            if !layers::verify_pla_op(rec, &layers::engine_in_memory(), &text)?.equivalent {
                return Err("replay refuted a minimized table".into());
            }
        }
        Ok(Replayed {
            ops: self.items() as u64,
            focus: None,
        })
    }
}
