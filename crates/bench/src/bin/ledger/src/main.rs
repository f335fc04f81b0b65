//! `ledger` — the repository's benchmark: one seeded harness that times
//! SILC the way its users drive it (the `silc` binary with files in and
//! out, `silc serve` over TCP) and, in a separate traced pass, layer by
//! layer. See `README.md` next to this package.
//!
//! ```text
//! ledger --workload NAME --seed N --seconds S --trace 0|1 [--trace-out FILE]
//! ledger [--seed N] [--seconds S] [--out FILE] [--trace-out DIR]   every workload, both passes
//! ledger --compare A.json B.json [--benchmark FILE]   two results against the bounds
//! ```

mod compare;
mod gen_isl;
mod gen_pla;
mod gen_sil;
mod json;
mod layers;
mod metrics;
mod probes;
mod proc;
mod rng;
mod spans;
mod stats;
mod w_chip;
mod w_isl;
mod w_serve;
mod w_sil;
mod workload;

use json::Json;
use spans::Recorder;
use std::path::Path;
use std::process::{Command, ExitCode};
use std::time::Instant;
use workload::{Ctx, Tally, Workload, WORKLOADS};

/// Times set-up is run; the median is reported.
const SETUP_REPEATS: usize = 3;

#[derive(Debug, Clone)]
struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<String>,
    out: Option<String>,
    compare: Option<(String, String)>,
    benchmark: String,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: 11,
        seconds: 15.0,
        trace: false,
        trace_out: None,
        out: None,
        compare: None,
        benchmark: "BENCHMARK.json".into(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("`{flag}` needs a value"))
        };
        match flag.as_str() {
            "--workload" => o.workload = Some(value()?),
            "--seed" => {
                o.seed = value()?
                    .parse()
                    .map_err(|_| "`--seed` needs a whole number")?
            }
            "--seconds" => {
                o.seconds = value()?.parse().map_err(|_| "`--seconds` needs a number")?;
                if !(o.seconds > 0.0 && o.seconds <= 60.0) {
                    return Err("`--seconds` must be above 0 and at most 60".into());
                }
            }
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("`--trace` is 0 or 1".into()),
                }
            }
            "--trace-out" => o.trace_out = Some(value()?),
            "--out" => o.out = Some(value()?),
            "--benchmark" => o.benchmark = value()?,
            "--compare" => o.compare = Some((value()?, value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if let Some(name) = &o.workload {
        if !WORKLOADS.iter().any(|(n, _)| n == name) {
            let known: Vec<_> = WORKLOADS.iter().map(|(n, _)| *n).collect();
            return Err(format!(
                "unknown workload `{name}` (one of {})",
                known.join(", ")
            ));
        }
    }
    Ok(o)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = parse_options(&args).and_then(|o| match (&o.compare, &o.workload) {
        (Some((a, b)), _) => compare::run(a, b, &o.benchmark),
        (None, Some(name)) => one_workload(&o, name),
        (None, None) => all_workloads(&o),
    });
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("ledger: {why}");
            ExitCode::from(2)
        }
    }
}

fn build(name: &str, ctx: &Ctx, dir: &Path) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "sil_array" => Box::new(w_sil::sil_array(ctx, dir)?),
        "sil_program" => Box::new(w_sil::sil_program(ctx, dir)?),
        "edit_loop" => Box::new(w_sil::EditLoop::set_up(ctx, dir)?),
        "sim_pdp8" => Box::new(w_isl::SimPdp8::set_up(ctx, dir)?),
        "isl_synth" => Box::new(w_isl::IslSynth::set_up(ctx, dir)?),
        "pnr_chip" => Box::new(w_chip::PnrChip::set_up(ctx)),
        // One connection, client and server on one core: spread over the
        // cores, where the scheduler puts the threads and whether a core
        // has to be woken sets a round trip (`proc::OneCore`). The probe
        // server takes the wider load.
        "serve_mix" => Box::new(w_serve::ServeMix::set_up(ctx, dir, 1)?),
        other => return Err(format!("unknown workload `{other}`")),
    })
}

fn metric(value: f64, unit: &str) -> Json {
    Json::obj([("value", Json::Num(value)), ("unit", Json::from(unit))])
}

/// A share of attributed time that a set of layers must hold on a
/// workload's replay for the workload to isolate them.
struct Dominance {
    workload: &'static str,
    layers: &'static str,
    /// Span-name prefixes that count towards the share.
    prefixes: &'static [&'static str],
    threshold: f64,
    /// The share must be at least (else at most) the threshold.
    at_least: bool,
    /// Look only at the ops the replay marked as its focus.
    focus_only: bool,
}

const fn rule(
    workload: &'static str,
    layers: &'static str,
    prefixes: &'static [&'static str],
    threshold: f64,
) -> Dominance {
    Dominance {
        workload,
        layers,
        prefixes,
        threshold,
        at_least: true,
        focus_only: false,
    }
}

const DOMINANCE: [Dominance; 7] = [
    rule("sil_program", "lang", &["lang."], 0.50),
    Dominance {
        at_least: false,
        ..rule("sil_array", "lang", &["lang."], 0.10)
    },
    rule(
        "sil_array",
        "layout+drc+geom",
        &["layout.", "drc.", "geom."],
        0.70,
    ),
    Dominance {
        focus_only: true,
        ..rule(
            "edit_loop",
            "incr+geom.fingerprint on the unchanged rebuilds",
            &["incr.", "geom.fingerprint"],
            0.40,
        )
    },
    rule("sim_pdp8", "exec.run", &["exec.run"], 0.80),
    rule("pnr_chip", "pnr", &["pnr."], 0.60),
    rule(
        "isl_synth",
        "logic+pla+verify",
        &["logic.", "pla.", "verify."],
        0.60,
    ),
];

/// Evaluates the rules of workload `name` on its replay, prints each and
/// returns them for the detail line.
fn dominance(name: &str, rec: &Recorder, focus: Option<&[u64]>) -> Vec<Json> {
    let own = rec.self_ns();
    DOMINANCE
        .iter()
        .filter(|rule| rule.workload == name)
        .map(|rule| {
            let (mut hit, mut all) = (0u64, 0u64);
            for (span, ns) in rec.spans().iter().zip(&own) {
                if rule.focus_only && !focus.is_some_and(|f| f.contains(&span.op_id)) {
                    continue;
                }
                all += ns;
                if rule.prefixes.iter().any(|p| span.name.starts_with(p)) {
                    hit += ns;
                }
            }
            let share = hit as f64 / all.max(1) as f64;
            let holds = if rule.at_least {
                share >= rule.threshold
            } else {
                share <= rule.threshold
            };
            eprintln!(
                "ledger: dominance: {} holds {:.1}% of attributed time, {} {:.0}% required: {}",
                rule.layers,
                share * 100.0,
                if rule.at_least { "at least" } else { "at most" },
                rule.threshold * 100.0,
                if holds { "ok" } else { "MISSED" }
            );
            Json::obj([
                ("layers", Json::from(rule.layers)),
                ("share", Json::Num(share)),
                ("threshold", Json::Num(rule.threshold)),
                ("at_least", Json::Bool(rule.at_least)),
                ("holds", Json::Bool(holds)),
            ])
        })
        .collect()
}

/// Runs one workload in this process and prints its result as the last
/// line of standard output, a line of detail before it.
fn one_workload(o: &Options, name: &str) -> Result<bool, String> {
    let (detail, result) = measure(o, name, &proc::silc_binary()?, &proc::Scratch::new()?)?;
    println!("{detail}\n{result}");
    Ok(result.get("correct") == Some(&Json::Bool(true)))
}

/// The untraced pass: times ops for `seconds`, runs the checks, and
/// returns the end-to-end metrics.
fn untraced_pass(
    ctx: &Ctx,
    seconds: f64,
    setup_s: &[f64],
    w: &mut dyn Workload,
    tally: &mut Tally,
    detail: &mut Vec<(String, Json)>,
) -> Result<Vec<(String, Json)>, String> {
    let pace = w.run(ctx, seconds, tally)?;
    let timed = tally.timed_ops();
    w.check(ctx, tally)?;
    detail.push(("timed_ops".into(), Json::from(timed as u64)));
    // Each corpus item in its own row.
    let item_p50 = tally
        .samples
        .iter()
        .map(|s| stats::median(s).into())
        .collect();
    detail.push(("item_p50_ms".into(), Json::Arr(item_p50)));
    let all: Vec<f64> = tally.samples.iter().flatten().copied().collect();
    if let Some(p95) = stats::percentile(&all, 95.0) {
        detail.push(("op_p95_ms".into(), Json::Num(p95)));
    }
    Ok(metrics::END_TO_END
        .iter()
        .map(|&(metric_name, unit, _, _)| {
            let value = match metric_name {
                "op_best_ms" => pace.op_best_ms,
                "ops_per_s" => pace.ops_per_s,
                "peak_rss_mb" => w.peak_rss_mb(),
                _ => stats::median(setup_s),
            };
            (metric_name.to_string(), metric(value, unit))
        })
        .collect())
}

/// What the traced pass needs to know about the run it is part of.
struct TracedRun<'a> {
    name: &'a str,
    seconds: f64,
    trace_out: Option<&'a str>,
    calibration_ms: f64,
}

impl TracedRun<'_> {
    /// The traced pass: a short untraced run for reference, the replay
    /// under spans, the layer probes; returns the per-layer metrics.
    fn measure(
        &self,
        ctx: &Ctx,
        scratch: &proc::Scratch,
        w: &mut dyn Workload,
        tally: &mut Tally,
        detail: &mut Vec<(String, Json)>,
    ) -> Result<Vec<(String, Json)>, String> {
        // The op time the attribution is held against, and the outputs
        // the replay is compared with.
        let share = self.seconds / 4.0;
        w.run(ctx, share, tally)?;
        let reference_op_ms =
            tally.samples.iter().flatten().sum::<f64>() / tally.timed_ops().max(1) as f64;
        w.check(ctx, tally)?;

        let mut rec = Recorder::new();
        let (mut ops, mut focus) = (0, None::<Vec<u64>>);
        let start = Instant::now();
        loop {
            let replayed = w.replay(ctx, &mut rec)?;
            ops += replayed.ops;
            if let Some(more) = replayed.focus {
                focus.get_or_insert_with(Vec::new).extend(more);
            }
            if start.elapsed().as_secs_f64() >= share {
                break;
            }
        }
        let by_layer = rec.self_ns_by_layer();
        let per_op_ms = |ns: u64| ns as f64 / 1e6 / ops as f64;
        let mut values = probes::Metrics::new();
        for layer in metrics::REPLAY_LAYERS {
            values.insert(
                format!("{layer}.self_ms"),
                per_op_ms(by_layer.get(layer).copied().unwrap_or(0)),
            );
        }
        debug_assert!(by_layer
            .keys()
            .all(|layer| metrics::REPLAY_LAYERS.contains(layer)));
        let attributed_ms = per_op_ms(by_layer.values().sum());
        detail.push((
            "dominance".into(),
            Json::Arr(dominance(self.name, &rec, focus.as_deref())),
        ));
        detail.push(("replay_spans".into(), Json::from(rec.spans().len() as u64)));

        values.insert("bench.replay_ops".into(), ops as f64);
        values.insert(
            "bench.unattributed_ratio".into(),
            1.0 - attributed_ms / reference_op_ms,
        );
        values.insert("bench.calibration_ms".into(), self.calibration_ms);
        let mut spawns = Vec::new();
        for _ in 0..20 {
            spawns.push(ctx.silc(scratch.path(), &[])?.ms);
        }
        values.insert("bench.spawn_ms".into(), stats::median(&spawns));
        let (probed, probe_spans) = probes::run(ctx, scratch)?;
        values.extend(probed);
        rec.absorb(probe_spans);

        if let Some(path) = self.trace_out {
            let file = std::fs::File::create(path).map_err(|e| format!("`{path}`: {e}"))?;
            let mut out = std::io::BufWriter::new(file);
            rec.write_jsonl(&mut out)
                .and_then(|()| std::io::Write::flush(&mut out))
                .map_err(|e| format!("`{path}`: {e}"))?;
        }
        let mut metrics = Vec::new();
        for (metric_name, unit, _) in metrics::per_layer() {
            let value = values
                .remove(&metric_name)
                .ok_or_else(|| format!("the traced pass produced no `{metric_name}`"))?;
            metrics.push((metric_name, metric(value, unit)));
        }
        match values.keys().next() {
            Some(extra) => Err(format!(
                "`{extra}` is measured but not declared in metrics.rs"
            )),
            None => Ok(metrics),
        }
    }
}

/// Sets up, runs and checks workload `name` against the binary `silc`,
/// keeping files under `scratch`. Returns the detail and the result.
fn measure(
    o: &Options,
    name: &str,
    silc: &Path,
    scratch: &proc::Scratch,
) -> Result<(Json, Json), String> {
    // One thread for the program under test, in its own processes and in
    // the replay here: on a few cores of a shared host a second thread
    // measures where the scheduler put it. The rayon shim reads the
    // variable on every parallel call and children inherit it. Set
    // before this process has a second thread of its own.
    std::env::set_var(layers::THREADS_VAR, "1");
    let watchdog = proc::Watchdog::start();
    let ctx = Ctx {
        silc,
        seed: o.seed,
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        watchdog: &watchdog,
    };
    let calibration_start = stats::calibration_ms();

    let mut setup_s = Vec::new();
    let mut built: Option<Box<dyn Workload>> = None;
    for k in 0..SETUP_REPEATS {
        if let Some(previous) = built.take() {
            previous.finish()?;
        }
        let dir = scratch.subdir(&format!("setup_{k}"))?;
        // Set-up is everything before the first timed op: inputs and
        // references, then one untimed pass so that lazy work is done.
        let start = Instant::now();
        let mut w = build(name, &ctx, &dir)?;
        w.run(&ctx, 0.0, &mut Tally::new(w.items()))?;
        setup_s.push(start.elapsed().as_secs_f64());
        built = Some(w);
    }
    let mut w = built.expect("at least one set-up");

    let mut tally = Tally::new(w.items());
    let mut detail: Vec<(String, Json)> = vec![
        ("workload".into(), Json::from(name)),
        ("seed".into(), Json::from(o.seed)),
        ("seconds".into(), Json::Num(o.seconds)),
        ("trace".into(), Json::Bool(o.trace)),
        ("nproc".into(), Json::from(ctx.nproc as u64)),
    ];
    let metrics = if o.trace {
        let run = TracedRun {
            name,
            seconds: o.seconds,
            trace_out: o.trace_out.as_deref(),
            calibration_ms: calibration_start,
        };
        run.measure(&ctx, scratch, w.as_mut(), &mut tally, &mut detail)?
    } else {
        untraced_pass(
            &ctx,
            o.seconds,
            &setup_s,
            w.as_mut(),
            &mut tally,
            &mut detail,
        )?
    };
    w.finish()?;

    let calibration_end = stats::calibration_ms();
    let drift =
        (calibration_end - calibration_start).abs() / calibration_start.min(calibration_end);
    detail.push((
        "calibration_ms".into(),
        Json::Arr(vec![calibration_start.into(), calibration_end.into()]),
    ));
    detail.push(("noisy".into(), Json::Bool(drift > 0.10)));
    // Linux keeps `ru_maxrss` across `execve`, so a child's figure is
    // never below this process's own at the time of the spawn.
    let own_rss = proc::peak_rss_mb_of(std::process::id()).unwrap_or(0.0);
    detail.push(("ledger_rss_mb".into(), Json::Num(own_rss)));
    detail.push((
        "setup_s_runs".into(),
        Json::Arr(setup_s.iter().map(|&s| s.into()).collect()),
    ));

    let result = Json::obj([
        (
            "correct",
            Json::Bool(tally.failed == 0 && tally.attempted > 0),
        ),
        ("attempted", Json::from(tally.attempted)),
        ("failed", Json::from(tally.failed)),
        ("metrics", Json::Obj(metrics)),
    ]);
    Ok((Json::obj([("detail", Json::Obj(detail))]), result))
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Runs every workload, untraced then traced, each in a child process of
/// its own, and prints one JSON document with a header of noise controls.
/// `--trace-out` names a directory here: one JSONL file per workload.
fn all_workloads(o: &Options) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let (seed, seconds) = (o.seed.to_string(), o.seconds.to_string());
    let mut rows = Vec::new();
    let mut all_correct = true;
    let mut controls: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    for (name, _) in WORKLOADS {
        let mut row: Vec<(String, Json)> = vec![("name".into(), Json::from(name))];
        let mut noisy = false;
        for (trace, pass) in [("0", "end_to_end"), ("1", "per_layer")] {
            eprintln!("ledger: {name}, {pass} pass");
            let mut child = Command::new(&exe);
            child.args([
                "--workload",
                name,
                "--trace",
                trace,
                "--seed",
                &seed,
                "--seconds",
                &seconds,
            ]);
            if let (Some(dir), "1") = (&o.trace_out, trace) {
                std::fs::create_dir_all(dir).map_err(|e| format!("`{dir}`: {e}"))?;
                child.args(["--trace-out", &format!("{dir}/{name}.jsonl")]);
            }
            let output = child
                .stderr(std::process::Stdio::inherit())
                .output()
                .map_err(|e| format!("cannot start `{}`: {e}", exe.display()))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            let mut lines = stdout.lines().rev();
            let (Some(result), Some(detail)) = (lines.next(), lines.next()) else {
                return Err(format!("{name}: the {pass} pass printed no result"));
            };
            let (result, detail) = (Json::parse(result)?, Json::parse(detail)?);
            let field = |of: &Json, key: &str| of.get(key).cloned().unwrap_or(Json::Null);
            all_correct &= field(&result, "correct") == Json::Bool(true);
            noisy |= detail.get("detail").map(|d| field(d, "noisy")) == Some(Json::Bool(true));
            let metrics = field(&result, "metrics");
            for (control, values) in ["bench.calibration_ms", "bench.spawn_ms"]
                .iter()
                .zip(&mut controls)
            {
                values.extend(
                    metrics
                        .get(control)
                        .and_then(|m| m.get("value"))
                        .and_then(Json::as_f64),
                );
            }
            row.push((pass.into(), metrics));
            row.push((
                format!("{pass}_run"),
                Json::obj([
                    ("correct", field(&result, "correct")),
                    ("attempted", field(&result, "attempted")),
                    ("failed", field(&result, "failed")),
                    ("detail", field(&detail, "detail")),
                ]),
            ));
        }
        row.insert(1, ("noisy".into(), Json::Bool(noisy)));
        rows.push(Json::Obj(row));
    }
    let header = Json::obj([
        (
            "nproc",
            Json::from(std::thread::available_parallelism().map_or(1, |n| n.get()) as u64),
        ),
        ("rustc", Json::Str(command_line("rustc", &["-V"]))),
        (
            "commit",
            Json::Str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("seed", Json::from(o.seed)),
        ("seconds", Json::Num(o.seconds)),
        // The two control metrics, medians over the seven traced runs.
        (
            "bench.calibration_ms",
            Json::Num(stats::median(&controls[0])),
        ),
        ("bench.spawn_ms", Json::Num(stats::median(&controls[1]))),
    ]);
    let document = Json::obj([("header", header), ("workloads", Json::Arr(rows))]).to_string();
    if let Some(path) = &o.out {
        std::fs::write(path, &document).map_err(|e| format!("`{path}`: {e}"))?;
    }
    println!("{document}");
    Ok(all_correct)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What the repository's `BENCHMARK.json` declares, read from where
    /// this package sits in the tree.
    fn declared() -> Json {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../../../../BENCHMARK.json");
        Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
            .unwrap()
    }

    fn well_named(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
    }

    #[test]
    fn benchmark_json_declares_exactly_what_is_printed() {
        let declared = declared();
        let names = |key: &str, field: &str| -> Vec<String> {
            declared
                .get(key)
                .unwrap()
                .as_array()
                .iter()
                .map(|m| m.get(field).unwrap().as_str().unwrap().to_string())
                .collect()
        };
        let workloads: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
        assert_eq!(names("workloads", "name"), workloads);
        assert_eq!(workloads.len(), 7);
        for (m, (name, why)) in declared
            .get("workloads")
            .unwrap()
            .as_array()
            .iter()
            .zip(WORKLOADS)
        {
            assert_eq!(m.get("why").and_then(Json::as_str), Some(why), "{name}");
            assert!(why.len() <= 200 && !why.contains('\n'));
        }

        let end_to_end = declared.get("end_to_end").unwrap().as_array();
        assert_eq!(end_to_end.len(), metrics::END_TO_END.len());
        assert!(end_to_end.len() <= 16);
        for (m, (name, unit, better, bound)) in end_to_end.iter().zip(metrics::END_TO_END) {
            assert_eq!(m.get("name").and_then(Json::as_str), Some(name));
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit));
            assert_eq!(m.get("better").and_then(Json::as_str), Some(better));
            assert_eq!(m.get("bound").and_then(Json::as_f64), Some(bound));
            assert!(bound <= 0.25);
        }

        let per_layer = metrics::per_layer();
        assert!(per_layer.len() <= 128);
        assert_eq!(
            names("per_layer", "name"),
            per_layer
                .iter()
                .map(|(n, ..)| n.clone())
                .collect::<Vec<_>>()
        );
        for (m, (name, unit, better)) in declared
            .get("per_layer")
            .unwrap()
            .as_array()
            .iter()
            .zip(&per_layer)
        {
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(*unit), "{name}");
            assert_eq!(
                m.get("better").and_then(Json::as_str),
                Some(*better),
                "{name}"
            );
        }

        let mut seen = std::collections::BTreeSet::new();
        for name in names("workloads", "name")
            .into_iter()
            .chain(names("end_to_end", "name"))
            .chain(names("per_layer", "name"))
        {
            assert!(well_named(&name), "{name}");
            assert!(seen.insert(name.clone()), "{name} is used twice");
        }
    }

    /// Every workload end to end on a pass as short as they come: set-up,
    /// one timed pass, the checks; then one traced run, which also goes
    /// through every layer probe. Needs the release `silc` binary and
    /// builds it if it is not there. Quick under `cargo test --release`.
    #[test]
    fn every_workload_runs_clean_on_a_short_pass() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../../../..")
            .canonicalize()
            .unwrap();
        let silc = root.join("target/release/silc");
        if !silc.exists() {
            let built = Command::new("cargo")
                .args(["build", "--release", "--offline"])
                .current_dir(&root)
                .status();
            assert!(built.is_ok_and(|s| s.success()), "cannot build silc");
        }
        let scratch = proc::Scratch::under(&root.join("target")).unwrap();
        let mut o = parse_options(&[]).unwrap();
        o.seconds = 0.05;
        for (name, _) in WORKLOADS {
            o.trace = name == "sim_pdp8";
            let (_, result) =
                measure(&o, name, &silc, &scratch).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(
                result.get("correct"),
                Some(&Json::Bool(true)),
                "{name}: {result}"
            );
            assert_eq!(
                result.get("failed").and_then(Json::as_f64),
                Some(0.0),
                "{name}"
            );
            let printed: Vec<&str> = match result.get("metrics") {
                Some(Json::Obj(members)) => members.iter().map(|(k, _)| k.as_str()).collect(),
                _ => panic!("{name}: no metrics"),
            };
            if o.trace {
                let declared: Vec<String> =
                    metrics::per_layer().into_iter().map(|(n, ..)| n).collect();
                assert_eq!(printed, declared);
            } else {
                assert_eq!(printed, metrics::END_TO_END.map(|(n, ..)| n));
            }
        }
    }

    #[test]
    fn options_reject_what_they_do_not_know() {
        let parse =
            |args: &[&str]| parse_options(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>());
        let o = parse(&[
            "--workload",
            "pnr_chip",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (o.workload.as_deref(), o.seed, o.seconds, o.trace),
            (Some("pnr_chip"), 7, 3.0, true)
        );
        assert!(parse(&["--workload", "nope"])
            .unwrap_err()
            .contains("sil_array"));
        assert!(parse(&["--trace", "2"]).is_err());
        assert!(parse(&["--seconds", "0"]).is_err());
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--fast"]).is_err());
    }
}
