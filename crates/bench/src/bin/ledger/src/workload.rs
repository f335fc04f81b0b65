//! What a workload is, and the tally every one of them fills.

use crate::proc::{run_silc, CliRun, Watchdog, OP_TIMEOUT};
use crate::spans::Recorder;
use std::path::Path;
use std::time::Instant;

/// The seven workloads, in the order they run and print. `why` is the
/// one-line reason recorded in `BENCHMARK.json`.
pub const WORKLOADS: [(&str, &str); 7] = [
    ("sil_array", "big regular arrays through `silc compile`: flatten and DRC do the work, the front end almost none"),
    ("sil_program", "library-heavy SIL programs through `silc compile`: front end and CIF writer do the work, geometry almost none"),
    ("edit_loop", "rebuild, comment edit, geometry edit, revert against a disk cache: the cache is read, cut off early and written"),
    ("sim_pdp8", "`silc sim` for a million cycles of PDP-8 programs and register mills: the compiled simulator loop and nothing else"),
    ("isl_synth", "`silc synth`, `pla` and `verify` on controllers and PLAs: minimization and exact equivalence checking"),
    ("pnr_chip", "irregular random netlists placed and routed in-process: maze search, rip-up and extract-back LVS"),
    ("serve_mix", "one closed-loop client and `silc serve` on one core: memory hits, cached and cold compiles; wire, codec and cache set the latency"),
];

/// What every workload gets from the harness.
pub struct Ctx<'a> {
    pub silc: &'a Path,
    pub seed: u64,
    pub nproc: usize,
    pub watchdog: &'a Watchdog,
}

impl Ctx<'_> {
    pub fn silc(&self, dir: &Path, args: &[&str]) -> Result<CliRun, String> {
        run_silc(self.silc, dir, args, self.watchdog)
    }
}

/// Ops attempted and failed, and the latency of every timed one.
#[derive(Debug, Default)]
pub struct Tally {
    /// Milliseconds per timed op, grouped by the corpus item it ran.
    pub samples: Vec<Vec<f64>>,
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn new(items: usize) -> Tally {
        Tally {
            samples: vec![Vec::new(); items],
            ..Tally::default()
        }
    }

    /// Records one timed op on `item`. An op over the time limit failed,
    /// whatever it printed.
    pub fn op(&mut self, item: usize, ms: f64, outcome: Result<(), String>) {
        self.samples[item].push(ms);
        let outcome = outcome.and_then(|()| {
            if ms > OP_TIMEOUT.as_secs_f64() * 1e3 {
                Err(format!("took {ms:.0} ms"))
            } else {
                Ok(())
            }
        });
        self.check(&format!("item {item}"), outcome);
    }

    /// Records one untimed check.
    pub fn check(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            // The first few are enough to debug with.
            if self.failed <= 5 {
                eprintln!("ledger: FAILED {what}: {why}");
            }
        }
    }

    pub fn timed_ops(&self) -> usize {
        self.samples.iter().map(Vec::len).sum()
    }
}

/// What a traced replay covered.
pub struct Replayed {
    /// User-visible ops replayed.
    pub ops: u64,
    /// For the dominance check, the op ids it looks at when that is not
    /// all of them (the cache-hit steps of `edit_loop`).
    pub focus: Option<Vec<u64>>,
}

/// How fast the timed phase went, read off the stretch of the run the
/// machine disturbed least. The box is a few cores of a shared host and
/// other tenants slow it for seconds at a time; whatever they add, they
/// never make an op faster than it is, so the fastest repetition is the
/// steadiest reading of what the program costs.
#[derive(Debug, Clone, Copy, Default)]
pub struct Pace {
    /// Milliseconds per op: per corpus item its fastest repetition, then
    /// the mean over items, so that every design weighs the same.
    pub op_best_ms: f64,
    /// Ops per second of op time in the fastest whole pass.
    pub ops_per_s: f64,
}

pub trait Workload {
    /// Corpus items; ops on one item are summarized together.
    fn items(&self) -> usize;

    /// The untraced, timed phase: runs for about `seconds`, fills
    /// `tally` and returns the pace of what it added.
    fn run(&mut self, ctx: &Ctx, seconds: f64, tally: &mut Tally) -> Result<Pace, String>;

    /// Untimed correctness checks that need runs of their own.
    fn check(&mut self, ctx: &Ctx, tally: &mut Tally) -> Result<(), String>;

    /// One pass of the same ops in-process, stage by stage, under spans.
    fn replay(&mut self, ctx: &Ctx, rec: &mut Recorder) -> Result<Replayed, String>;

    /// Largest resident set of the program under test, megabytes.
    fn peak_rss_mb(&self) -> f64 {
        crate::proc::peak_rss_mb_of_children()
    }

    /// Stops whatever set-up started.
    fn finish(self: Box<Self>) -> Result<(), String> {
        Ok(())
    }
}

/// Runs whole passes over a corpus until `seconds` have gone by; at
/// least one. Whole passes keep the mix of ops the same in every run.
/// Ops per second count op time only (the harness's own checking between
/// ops is left out).
pub fn run_passes(
    seconds: f64,
    tally: &mut Tally,
    mut pass: impl FnMut(u64, &mut Tally) -> Result<(), String>,
) -> Result<Pace, String> {
    let start = Instant::now();
    let first: Vec<usize> = tally.samples.iter().map(Vec::len).collect();
    let totals = |tally: &Tally| {
        (
            tally.timed_ops() as f64,
            tally.samples.iter().flatten().sum::<f64>(),
        )
    };
    let mut ops_per_s = 0.0f64;
    for passes in 0.. {
        let (ops, ms) = totals(tally);
        pass(passes, tally)?;
        let (ops_after, ms_after) = totals(tally);
        if ms_after > ms {
            ops_per_s = ops_per_s.max((ops_after - ops) / ((ms_after - ms) / 1e3));
        }
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    let best: Vec<f64> = tally
        .samples
        .iter()
        .zip(first)
        .filter(|(s, first)| s.len() > *first)
        .map(|(s, first)| s[first..].iter().copied().fold(f64::INFINITY, f64::min))
        .collect();
    Ok(Pace {
        op_best_ms: best.iter().sum::<f64>() / best.len().max(1) as f64,
        ops_per_s,
    })
}

/// `Ok` when `run` exited with `code`, else what it said.
pub fn expect_exit(run: &CliRun, code: i32) -> Result<(), String> {
    if run.code == Some(code) {
        Ok(())
    } else {
        let said = run.stderr.lines().last().unwrap_or("");
        Err(format!("exit {:?}, expected {code}: {said}", run.code))
    }
}

pub fn write_file(dir: &Path, name: &str, text: &str) -> Result<(), String> {
    std::fs::write(dir.join(name), text).map_err(|e| format!("`{name}`: {e}"))
}

pub fn read_file(dir: &Path, name: &str) -> Result<String, String> {
    std::fs::read_to_string(dir.join(name)).map_err(|e| format!("`{name}`: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pace_is_read_off_the_fastest_repetitions() {
        // Item 0 costs 4, 2 and 3 ms in three passes, item 1 costs 10, 30
        // and 8. The third pass outlasts the time given, which ends the run.
        let costs = [[4.0, 10.0], [2.0, 30.0], [3.0, 8.0]];
        let mut tally = Tally::new(2);
        let pace = run_passes(0.05, &mut tally, |pass, tally| {
            for (item, &ms) in costs[pass as usize].iter().enumerate() {
                tally.op(item, ms, Ok(()));
            }
            if pass == 2 {
                std::thread::sleep(std::time::Duration::from_millis(60));
            }
            Ok(())
        })
        .unwrap();
        assert_eq!(tally.timed_ops(), 6);
        // Fastest repetitions: 2 and 8 ms. Fastest pass: the third, two
        // ops in 11 ms.
        assert_eq!(pace.op_best_ms, 5.0);
        assert!((pace.ops_per_s - 2.0 / 0.011).abs() < 1e-9);
    }
}
