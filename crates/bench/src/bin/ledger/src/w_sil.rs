//! The three SIL workloads: `sil_array`, `sil_program`, `edit_loop`.

use crate::gen_sil::{self, SilDesign};
use crate::layers;
use crate::spans::Recorder;
use crate::workload::{
    expect_exit, read_file, run_passes, write_file, Ctx, Pace, Replayed, Tally, Workload,
};
use std::path::{Path, PathBuf};

/// `silc compile d.sil -o d.cif --no-cache`, cold every time. One struct
/// serves both corpora; they differ in which layers they load.
pub struct SilCompile {
    dir: PathBuf,
    designs: Vec<SilDesign>,
    dirty: SilDesign,
    /// The CIF each design compiled to the first time; later runs must
    /// repeat it byte for byte.
    cif: Vec<Option<String>>,
}

impl SilCompile {
    pub fn set_up(
        dir: &Path,
        designs: Vec<SilDesign>,
        dirty: SilDesign,
    ) -> Result<SilCompile, String> {
        for d in designs.iter().chain([&dirty]) {
            write_file(dir, &format!("{}.sil", d.name), &d.source)?;
        }
        Ok(SilCompile {
            dir: dir.to_path_buf(),
            cif: vec![None; designs.len()],
            designs,
            dirty,
        })
    }
}

impl Workload for SilCompile {
    fn items(&self) -> usize {
        self.designs.len()
    }

    fn run(&mut self, ctx: &Ctx, seconds: f64, tally: &mut Tally) -> Result<Pace, String> {
        run_passes(seconds, tally, |_, tally| {
            for (i, d) in self.designs.iter().enumerate() {
                let (src, out) = (format!("{}.sil", d.name), format!("{}.cif", d.name));
                let run = ctx.silc(&self.dir, &["compile", &src, "-o", &out, "--no-cache"])?;
                let outcome = expect_exit(&run, 0).and_then(|()| {
                    let cif = read_file(&self.dir, &out)?;
                    match &self.cif[i] {
                        Some(first) if *first != cif => {
                            Err("CIF differs from the first run".into())
                        }
                        Some(_) => Ok(()),
                        None => {
                            self.cif[i] = Some(cif);
                            Ok(())
                        }
                    }
                });
                tally.op(i, run.ms, outcome);
            }
            Ok(())
        })
    }

    fn check(&mut self, ctx: &Ctx, tally: &mut Tally) -> Result<(), String> {
        for (d, cif) in self.designs.iter().zip(&self.cif) {
            let outcome = cif
                .as_deref()
                .ok_or("never compiled".to_string())
                .and_then(|cif| {
                    let got = layers::cif_geometry(cif)?;
                    if got == d.expect {
                        Ok(())
                    } else {
                        Err(format!("layout is {got:?}, generator drew {:?}", d.expect))
                    }
                });
            tally.check(&format!("{} geometry", d.name), outcome);
        }
        // The dirty design must be refused with exactly its violations.
        let run = ctx.silc(
            &self.dir,
            &["compile", "dirty.sil", "-o", "dirty.cif", "--no-cache"],
        )?;
        let want = format!(": {} violation(s)", self.dirty.violations);
        let outcome = expect_exit(&run, 1).and_then(|()| {
            if !run.stderr.contains(&want) {
                Err(format!("expected `{want}` in: {}", run.stderr))
            } else if self.dir.join("dirty.cif").exists() {
                Err("CIF written despite violations".into())
            } else {
                Ok(())
            }
        });
        tally.check("dirty design refused", outcome);
        Ok(())
    }

    fn replay(&mut self, _ctx: &Ctx, rec: &mut Recorder) -> Result<Replayed, String> {
        for (d, cli) in self.designs.iter().zip(&self.cif) {
            rec.next_op();
            let out = layers::compile_op(rec, &layers::engine_in_memory(), &d.source)?;
            if cli.as_deref().is_some_and(|cli| cli != out.cif.as_str()) {
                return Err(format!("{}: replay and CLI wrote different CIF", d.name));
            }
        }
        Ok(Replayed {
            ops: self.designs.len() as u64,
            focus: None,
        })
    }
}

pub fn sil_array(ctx: &Ctx, dir: &Path) -> Result<SilCompile, String> {
    let designs = gen_sil::array_corpus(ctx.seed, &gen_sil::ARRAY_CLASSES);
    SilCompile::set_up(dir, designs, gen_sil::dirty(ctx.seed))
}

pub fn sil_program(ctx: &Ctx, dir: &Path) -> Result<SilCompile, String> {
    SilCompile::set_up(
        dir,
        gen_sil::program_corpus(ctx.seed, 8),
        gen_sil::dirty(ctx.seed ^ 1),
    )
}

/// The designer's inner loop on one design against a populated
/// `--cache`: rebuild unchanged, edit a comment, edit geometry, revert.
/// The four invocations are timed together as one op.
pub struct EditLoop {
    dir: PathBuf,
    designs: Vec<SilDesign>,
    /// `--no-cache` CIF of each unedited design.
    base_cif: Vec<String>,
    /// Per design, the last geometry edit and the CIF the cached build
    /// wrote for it.
    last_edit: Vec<Option<(SilDesign, String)>>,
    rounds: u64,
    replays: u64,
}

impl EditLoop {
    pub fn set_up(ctx: &Ctx, dir: &Path) -> Result<EditLoop, String> {
        let mut designs: Vec<SilDesign> =
            gen_sil::array_corpus(ctx.seed, &[gen_sil::ARRAY_CLASSES[0]])
                .into_iter()
                .filter(|d| !d.name.starts_with("adder"))
                .collect();
        designs.extend((0..3).map(|i| gen_sil::program(ctx.seed, 100 + i, 600, 200)));
        let mut base_cif = Vec::new();
        for d in &designs {
            let src = format!("{}.sil", d.name);
            write_file(dir, &src, &d.source)?;
            expect_exit(
                &ctx.silc(dir, &["compile", &src, "-o", "base.cif", "--no-cache"])?,
                0,
            )?;
            base_cif.push(read_file(dir, "base.cif")?);
            // Populate the cache the loop will run against.
            expect_exit(
                &ctx.silc(dir, &["compile", &src, "-o", "out.cif", "--cache", "cache"])?,
                0,
            )?;
        }
        Ok(EditLoop {
            dir: dir.to_path_buf(),
            last_edit: vec![None; designs.len()],
            designs,
            base_cif,
            rounds: 0,
            replays: 0,
        })
    }

    /// The four sources of one round: unchanged, comment edit, geometry
    /// edit, unchanged again.
    fn steps(design: &SilDesign, round: u64) -> (SilDesign, [String; 4]) {
        let edited = gen_sil::geometry_edit(design, round);
        let sources = [
            design.source.clone(),
            gen_sil::comment_edit(design, round),
            edited.source.clone(),
            design.source.clone(),
        ];
        (edited, sources)
    }
}

impl Workload for EditLoop {
    fn items(&self) -> usize {
        self.designs.len()
    }

    fn run(&mut self, ctx: &Ctx, seconds: f64, tally: &mut Tally) -> Result<Pace, String> {
        // The fastest run of each step of each design. A round is four
        // processes, and the stretch in which none of the four is
        // disturbed is rarer than the stretch in which one is not, so
        // the op's best is put together from its steps' bests.
        let mut step_best = vec![[f64::INFINITY; 4]; self.designs.len()];
        let pace = run_passes(seconds, tally, |_, tally| {
            let round = self.rounds;
            self.rounds += 1;
            for (i, d) in self.designs.iter().enumerate() {
                let (edited, sources) = EditLoop::steps(d, round);
                let (mut ms, mut outcome) = (0.0, Ok(()));
                for (step, source) in sources.iter().enumerate() {
                    write_file(&self.dir, "edit.sil", source)?;
                    let run = ctx.silc(
                        &self.dir,
                        &["compile", "edit.sil", "-o", "out.cif", "--cache", "cache"],
                    )?;
                    ms += run.ms;
                    step_best[i][step] = step_best[i][step].min(run.ms);
                    let cif = read_file(&self.dir, "out.cif");
                    let step_outcome = expect_exit(&run, 0).and(cif).and_then(|cif| {
                        if step == 2 {
                            self.last_edit[i] = Some((edited.clone(), cif));
                            Ok(())
                        } else if cif == self.base_cif[i] {
                            Ok(())
                        } else {
                            Err(format!("step {step}: CIF differs from the uncached build"))
                        }
                    });
                    outcome = outcome.and(step_outcome);
                }
                tally.op(i, ms, outcome);
            }
            Ok(())
        })?;
        let rounds: f64 = step_best
            .iter()
            .map(|steps| steps.iter().sum::<f64>())
            .sum();
        Ok(Pace {
            op_best_ms: rounds / self.designs.len() as f64,
            ..pace
        })
    }

    fn check(&mut self, ctx: &Ctx, tally: &mut Tally) -> Result<(), String> {
        for (d, last) in self.designs.iter().zip(&self.last_edit) {
            let Some((edited, cached_cif)) = last else {
                tally.check(&d.name, Err("never edited".into()));
                continue;
            };
            write_file(&self.dir, "edit.sil", &edited.source)?;
            let run = ctx.silc(
                &self.dir,
                &["compile", "edit.sil", "-o", "out.cif", "--no-cache"],
            )?;
            let outcome = expect_exit(&run, 0).and_then(|()| {
                if read_file(&self.dir, "out.cif")? != *cached_cif {
                    return Err("cached build of the edit differs from the uncached one".into());
                }
                let got = layers::cif_geometry(cached_cif)?;
                if got == edited.expect {
                    Ok(())
                } else {
                    Err(format!(
                        "layout is {got:?}, generator drew {:?}",
                        edited.expect
                    ))
                }
            });
            tally.check(&format!("{} edited geometry", d.name), outcome);
        }
        Ok(())
    }

    fn replay(&mut self, _ctx: &Ctx, rec: &mut Recorder) -> Result<Replayed, String> {
        let cache = self.dir.join("cache");
        let mut focus = Vec::new();
        // Counted down from the top, where the timed phase never gets.
        self.replays += 1;
        let round = gen_sil::EDIT_ROUNDS - self.replays;
        for (d, base) in self.designs.iter().zip(&self.base_cif) {
            let (_, sources) = EditLoop::steps(d, round);
            for (step, source) in sources.iter().enumerate() {
                let op = rec.next_op();
                if step == 0 || step == 3 {
                    focus.push(op);
                }
                // A fresh engine per step, as each CLI process has.
                let out = layers::compile_op(rec, &layers::engine_on_disk(&cache)?, source)?;
                if step != 2 && out.cif.as_str() != base {
                    return Err(format!(
                        "{}: replay step {step} wrote different CIF",
                        d.name
                    ));
                }
            }
        }
        Ok(Replayed {
            ops: self.designs.len() as u64,
            focus: Some(focus),
        })
    }
}
