//! The concurrent batch front-end.
//!
//! A *manifest* is a text file with one job per line:
//!
//! ```text
//! # comments and blank lines are ignored
//! compile counter.sil -o counter.cif
//! compile alu.sil --no-drc
//! sim traffic.isl --cycles 500
//! pnr adder.sil -o adder_routed.cif
//! verify control.pla
//! verify decoder.pla --against decoder_golden.pla
//! ```
//!
//! [`run_batch`] executes the jobs on a small thread pool against one
//! shared [`Engine`], so jobs that elaborate the same cells — or repeat
//! runs against a persistent cache — share every stage result. Workers
//! pull jobs from an atomic cursor; results land in manifest order.

use crate::engine::{Engine, JobStats};
use crate::ops::{self, Front, Op, Outcome};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// One parsed manifest line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// Input file, resolved relative to the manifest's directory.
    pub input: PathBuf,
    /// 1-based manifest line number (for error messages).
    pub line: usize,
    /// What to do with the input.
    pub op: Op,
    /// `-o`: write the CIF here; `None` = discard (run for the checks).
    pub output: Option<PathBuf>,
    /// `--against`: verify against this PLA table instead of the
    /// input's own specification.
    pub against: Option<PathBuf>,
}

impl JobSpec {
    /// The label shown in the summary table.
    pub fn label(&self) -> String {
        format!("{} {}", self.op.verb.name(), self.input.display())
    }
}

/// The outcome of one job.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// The job's summary-table label.
    pub label: String,
    /// `Ok(summary)` or `Err(message)`.
    pub outcome: Result<String, String>,
    /// Cache hits/misses attributable to this job.
    pub stats: JobStats,
    /// Wall time, in milliseconds.
    pub millis: u128,
}

/// Parses a manifest: each line is a verb and the words
/// [`ops::parse_words`] decodes. Paths are resolved relative to `base`
/// (normally the manifest's own directory).
///
/// # Errors
///
/// A message naming the offending line for any unknown verb, flag, or
/// malformed argument.
pub fn parse_manifest(text: &str, base: &Path) -> Result<Vec<JobSpec>, String> {
    let mut jobs = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = idx + 1;
        let words: Vec<&str> = raw.split_whitespace().collect();
        let Some((&name, rest)) = words.split_first() else {
            continue;
        };
        if name.starts_with('#') {
            continue;
        }
        let spec = ops::verb(Front::Manifest, name).ok_or_else(|| {
            let known: Vec<String> = ops::verbs(Front::Manifest)
                .map(|v| format!("`{}`", v.name))
                .collect();
            format!("unknown verb `{name}` (expected {})", known.join(", "))
        });
        let args = spec
            .and_then(|spec| ops::parse_words(Front::Manifest, spec, rest))
            .map_err(|msg| format!("manifest line {line}: {msg}"))?;
        jobs.push(JobSpec {
            input: base.join(args.input.unwrap_or_default()),
            line,
            op: args.op,
            output: args.output.map(|p| base.join(p)),
            against: args.against.map(|p| base.join(p)),
        });
    }
    Ok(jobs)
}

fn read(path: &Path) -> Result<String, String> {
    fs::read_to_string(path).map_err(|e| format!("cannot read `{}`: {e}", path.display()))
}

/// Reads a job's files, runs its op, writes its `-o` file and renders
/// the one-line summary of the table's `detail` column.
fn run_one(engine: &Engine, job: &JobSpec, stats: &mut JobStats) -> Result<String, String> {
    let source = read(&job.input)?;
    let against = job.against.as_deref().map(read).transpose()?;
    let against = against.as_deref();
    let write = |cif: &str| match &job.output {
        Some(path) => {
            fs::write(path, cif).map_err(|e| format!("cannot write `{}`: {e}", path.display()))
        }
        None => Ok(()),
    };
    let outcome = ops::run(engine, &job.op, &source, against, stats)?;
    Ok(match outcome {
        Outcome::Compile(out) => {
            out.gate()?;
            if let Some(cif) = &out.cif {
                write(cif)?;
            }
            let (w, h) = out.die.bbox.map_or((0, 0), |b| (b.width(), b.height()));
            let (cells, elements) = (out.design.library.len(), out.die.flat_elements);
            format!("{cells} cells, {elements} elements, die {w}x{h}")
        }
        Outcome::Sim { sim, .. } => {
            let end = if sim.halted {
                "halted"
            } else {
                "budget exhausted"
            };
            format!("{} cycle(s), {end}", sim.cycles)
        }
        Outcome::Pnr(out) => {
            write(&out.cif)?;
            format!(
                "{} cells, {}/{} nets, wirelength {}, {} via(s)",
                out.cells, out.routed, out.nets, out.wirelength, out.vias
            )
        }
        Outcome::Verify(snap) => {
            snap.gate()?;
            snap.summary()
        }
        Outcome::Synth(_) | Outcome::Pla(_) | Outcome::Drc(_) => {
            return Err(format!("`{}` is not a manifest verb", job.op.verb.name()))
        }
    })
}

/// Runs every job against the shared engine on up to `workers` threads,
/// returning results in manifest order.
pub fn run_batch(engine: &Engine, jobs: &[JobSpec], workers: usize) -> Vec<JobResult> {
    let workers = workers.clamp(1, jobs.len().max(1));
    let cursor = AtomicUsize::new(0);
    let mut results: Vec<Option<JobResult>> = vec![None; jobs.len()];
    let slots: Vec<std::sync::Mutex<&mut Option<JobResult>>> =
        results.iter_mut().map(std::sync::Mutex::new).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let idx = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(job) = jobs.get(idx) else { break };
                let started = Instant::now();
                let mut stats = JobStats::default();
                let outcome = run_one(engine, job, &mut stats);
                let result = JobResult {
                    label: job.label(),
                    outcome,
                    stats,
                    millis: started.elapsed().as_millis(),
                };
                **slots[idx].lock().expect("result slot") = Some(result);
            });
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("every job index was claimed exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::Verb;

    #[test]
    fn manifest_parses_verbs_flags_and_comments() {
        let base = Path::new("/designs");
        let jobs = parse_manifest(
            "# header\n\ncompile a.sil -o a.cif\ncompile b.sil --no-drc\nsim m.isl --cycles 42\n\
             pnr c.sil -o c.cif\nverify d.pla --against gold.pla\nverify e.sil\n",
            base,
        )
        .unwrap();
        assert_eq!(jobs.len(), 6);
        let op = |verb| Op {
            verb,
            ..Op::default()
        };
        assert_eq!(jobs[0].input, base.join("a.sil"));
        assert_eq!(jobs[0].op, op(Verb::Compile));
        assert_eq!(jobs[0].output, Some(base.join("a.cif")));
        assert_eq!(
            jobs[1].op,
            Op {
                no_drc: true,
                ..op(Verb::Compile)
            }
        );
        assert_eq!(jobs[1].output, None);
        assert_eq!(
            jobs[2].op,
            Op {
                cycles: Some(42),
                ..op(Verb::Sim)
            }
        );
        assert_eq!(jobs[2].line, 5);
        assert_eq!(jobs[3].op, op(Verb::Pnr));
        assert_eq!(jobs[3].output, Some(base.join("c.cif")));
        assert_eq!(jobs[3].label(), "pnr /designs/c.sil");
        assert_eq!(
            jobs[4].op,
            Op {
                lang: Some("pla".into()),
                ..op(Verb::Verify)
            }
        );
        assert_eq!(jobs[4].against, Some(base.join("gold.pla")));
        assert_eq!(jobs[4].label(), "verify /designs/d.pla");
        assert_eq!(
            jobs[5].op,
            Op {
                lang: Some("sil".into()),
                ..op(Verb::Verify)
            }
        );
        assert_eq!(jobs[5].against, None);
    }

    #[test]
    fn manifest_rejects_bad_lines() {
        let base = Path::new(".");
        for (text, needle) in [
            ("route x.sil", "unknown verb"),
            ("compile", "needs an input"),
            ("compile a.sil -o", "needs a path"),
            ("compile a.sil -o x -o y", "duplicate"),
            ("compile a.sil --fast", "unknown compile flag"),
            ("compile a.sil b.sil", "extra argument"),
            ("sim m.isl --cycles many", "invalid cycle count"),
            ("sim a.isl --cycles 5 --cycles 7", "duplicate `--cycles`"),
            // The CLI's `--engine compiled` no-op is not a manifest flag,
            // and there is one routing stack to name.
            ("sim m.isl --engine compiled", "unknown sim flag `--engine`"),
            ("pnr", "needs an input"),
            ("pnr a.sil --stack nmos", "unknown pnr flag `--stack`"),
            ("pnr a.sil --fast", "unknown pnr flag"),
            ("pnr a.sil b.sil", "extra argument"),
            ("verify", "needs an input"),
            ("verify a.pla --against", "needs a path"),
            (
                "verify a.pla --against x --against y",
                "duplicate `--against`",
            ),
            ("verify a.sil --stack nmos", "unknown verify flag `--stack`"),
            ("verify a.pla --fast", "unknown verify flag"),
            ("verify a.pla b.pla", "extra argument"),
        ] {
            let e = parse_manifest(text, base).unwrap_err();
            assert!(e.contains(needle), "{text:?} -> {e}");
            assert!(e.contains("line 1"), "{text:?} -> {e}");
        }
    }

    #[test]
    fn batch_shares_the_cache_across_identical_jobs() {
        let dir = std::env::temp_dir().join(format!("silc-incr-batch-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let sil = dir.join("cell.sil");
        fs::write(
            &sil,
            "cell a() { box metal (0,0) (8,4); } place a() at (0,0);",
        )
        .unwrap();
        let manifest = format!("compile {p}\ncompile {p}\ncompile {p}\n", p = sil.display());
        let jobs = parse_manifest(&manifest, &dir).unwrap();
        // One worker makes the hit/miss split deterministic (concurrent
        // workers may race identical jobs into duplicate computes).
        let engine = Engine::in_memory();
        let results = run_batch(&engine, &jobs, 1);
        assert_eq!(results.len(), 3);
        for r in &results {
            assert!(r.outcome.is_ok(), "{:?}", r.outcome);
        }
        let total_hits: u64 = results.iter().map(|r| r.stats.hits).sum();
        let total_misses: u64 = results.iter().map(|r| r.stats.misses).sum();
        // Three identical jobs, four stages each (elaborate, flatten,
        // drc, cif): each stage computes once, every other query hits.
        assert_eq!(total_hits + total_misses, 12);
        assert_eq!(total_misses, 4);

        // A concurrent re-run against the already-warm engine is all hits.
        let warm = run_batch(&engine, &jobs, 4);
        assert!(warm.iter().all(|r| r.outcome.is_ok()));
        assert_eq!(warm.iter().map(|r| r.stats.misses).sum::<u64>(), 0);
        assert_eq!(warm.iter().map(|r| r.stats.hits).sum::<u64>(), 12);
    }

    #[test]
    fn verify_jobs_pass_and_fail_in_one_batch() {
        let dir = std::env::temp_dir().join(format!("silc-incr-verify-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let table = ".i 2\n.o 1\n.ilb a b\n.ob y\n10 1\n01 1\n";
        fs::write(dir.join("good.pla"), table).unwrap();
        fs::write(dir.join("bad.pla"), table.replace("01 1", "01 0")).unwrap();
        let manifest = "verify good.pla\nverify bad.pla --against good.pla\n";
        let jobs = parse_manifest(manifest, &dir).unwrap();
        let results = run_batch(&Engine::in_memory(), &jobs, 2);
        assert!(
            results[0].outcome.as_ref().unwrap().contains("equivalent"),
            "{:?}",
            results[0].outcome
        );
        assert!(
            results[1]
                .outcome
                .as_ref()
                .unwrap_err()
                .contains("NOT equivalent"),
            "{:?}",
            results[1].outcome
        );
    }

    #[test]
    fn failing_job_reports_without_sinking_the_batch() {
        let engine = Engine::in_memory();
        let jobs = vec![JobSpec {
            input: PathBuf::from("/nonexistent/q.sil"),
            line: 1,
            op: Op::default(),
            output: None,
            against: None,
        }];
        let results = run_batch(&engine, &jobs, 4);
        assert!(results[0]
            .outcome
            .as_ref()
            .unwrap_err()
            .contains("cannot read"));
    }

    #[test]
    fn failing_job_names_the_failing_stage() {
        // One syntactically bad design among good ones: its FAIL row must
        // carry the failing stage name from the engine (`elaborate: ...`),
        // and the good jobs must still complete.
        let dir = std::env::temp_dir().join(format!("silc-incr-stage-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        fs::write(
            dir.join("good.sil"),
            "cell a() { box metal (0,0) (8,4); } place a() at (0,0);",
        )
        .unwrap();
        fs::write(dir.join("bad.sil"), "cell broken( {").unwrap();
        fs::write(dir.join("bad.isl"), "machine oops { state").unwrap();
        let manifest = "compile good.sil\ncompile bad.sil\nsim bad.isl\ncompile good.sil\n";
        let jobs = parse_manifest(manifest, &dir).unwrap();
        let tracer = silc_trace::Tracer::enabled();
        let engine = Engine::new(crate::EngineConfig {
            tracer: tracer.clone(),
            ..crate::EngineConfig::default()
        })
        .unwrap();
        let results = run_batch(&engine, &jobs, 2);
        let spans = tracer.finish();
        assert!(spans.spans().iter().any(|s| s.name == "isl.parse"));
        assert!(results[0].outcome.is_ok(), "{:?}", results[0].outcome);
        assert!(results[3].outcome.is_ok(), "{:?}", results[3].outcome);
        let compile_err = results[1].outcome.as_ref().unwrap_err();
        assert!(
            compile_err.starts_with("elaborate: "),
            "stage name missing: {compile_err}"
        );
        let sim_err = results[2].outcome.as_ref().unwrap_err();
        assert!(
            sim_err.starts_with("isl.parse: "),
            "stage name missing: {sim_err}"
        );
    }
}
