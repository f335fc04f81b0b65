//! `silc` — the command-line face of the silicon compiler (the paper's
//! "extensible language system with associated programming environment").
//!
//! Six ops (`compile`, `sim`, `synth`, `pla`, `pnr`, `verify`) and two
//! drivers (`batch`, `serve`). Which flags each takes is not written
//! here: `silc --help` renders it from the one operation table,
//! [`silc::incr::ops`], which also decodes the command line, runs the
//! op and fixes its error texts. This file is the CLI's share — file
//! I/O, the tracer, and rendering an outcome for a terminal.

use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use silc::incr::ops::{self, Args, Front, Outcome, Verb};
use silc::incr::{default_parallelism, parse_manifest, run_batch, Engine, EngineConfig, JobStats};
use silc::serve::{install_sigint_handler, Server, ServerConfig};
use silc::trace::Tracer;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("--help") | Some("-h") | None => {
            eprint!("{}", ops::usage());
            return ExitCode::SUCCESS;
        }
        Some(cmd) => command(cmd, &args[1..]),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("silc: {message}");
            ExitCode::FAILURE
        }
    }
}

/// Every subcommand: decode the words through the op table, run under
/// the tracer the flags asked for, flush the trace whatever happened.
fn command(cmd: &str, words: &[String]) -> Result<(), String> {
    let spec = ops::verb(Front::Cli, cmd)
        .ok_or_else(|| format!("unknown command `{cmd}`\n{}", ops::usage()))?;
    let args = ops::parse_words(Front::Cli, spec, words)?;
    let tracer = if args.stats || args.trace.is_some() {
        Tracer::enabled()
    } else {
        Tracer::disabled()
    };
    let result = match spec.verb {
        Verb::Batch => run_batch_cmd(&args, &tracer),
        Verb::Serve => run_serve(&args, &tracer),
        _ => run_op(&args, &tracer),
    };
    emit_trace(&args, &tracer).and(result)
}

/// Flushes the recorded events to the sinks the user asked for. Runs even
/// when the command failed, so a DRC abort still yields its stage timings.
fn emit_trace(args: &Args, tracer: &Tracer) -> Result<(), String> {
    if !tracer.is_enabled() {
        return Ok(());
    }
    let report = tracer.finish();
    if args.stats {
        let mut stderr = std::io::stderr().lock();
        stderr
            .write_all(report.stats_table().as_bytes())
            .and_then(|()| stderr.flush())
            .map_err(|e| format!("cannot write stats: {e}"))?;
    }
    if let Some(path) = &args.trace {
        let mut file =
            fs::File::create(path).map_err(|e| format!("cannot create `{path}`: {e}"))?;
        file.write_all(report.to_jsonl().as_bytes())
            .map_err(|e| format!("cannot write `{path}`: {e}"))?;
    }
    Ok(())
}

/// The query engine every subcommand compiles through: persistent when
/// `--cache <dir>` was given, in-memory otherwise.
fn engine(args: &Args, tracer: &Tracer) -> Result<Engine, String> {
    Engine::new(EngineConfig {
        cache_dir: args.cache.as_ref().map(PathBuf::from),
        tracer: tracer.clone(),
        ..EngineConfig::default()
    })
}

fn read(path: &str) -> Result<String, String> {
    fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))
}

/// Reads the op's files, runs it, and renders the outcome the way a
/// terminal wants it: summaries on stderr, results on stdout, CIF to
/// `-o` or stdout.
fn run_op(args: &Args, tracer: &Tracer) -> Result<(), String> {
    let engine = engine(args, tracer)?;
    let input = args.input.as_deref().unwrap_or_default();
    let source = read(input)?;
    let against = args.against.as_deref().map(read).transpose()?;
    let mut stats = JobStats::default();
    let outcome = ops::run(&engine, &args.op, &source, against.as_deref(), &mut stats)?;
    let cif = match &outcome {
        Outcome::Compile(out) => {
            eprintln!(
                "compiled `{input}`: {} cells, {} flattened elements, die {}x{} lambda",
                out.design.library.len(),
                out.flat.flat_elements,
                out.flat.bbox.map_or(0, |b| b.width()),
                out.flat.bbox.map_or(0, |b| b.height()),
            );
            if let Some(report) = &out.drc {
                eprint!("{report}");
            }
            out.gate()?;
            out.cif.as_ref().map(|cif| cif.as_str())
        }
        Outcome::Sim { machine, sim, .. } => {
            let end = if sim.halted {
                "halted"
            } else {
                "cycle budget exhausted"
            };
            let (cycles, state) = (sim.cycles, &sim.state);
            println!("{machine}: {cycles} cycle(s), {end} (final state `{state}`)");
            for (name, value) in &sim.regs {
                println!("  {name} = {value:#o}");
            }
            for (name, value) in &sim.outputs {
                println!("  {name} = {value:#o} (output)");
            }
            None
        }
        Outcome::Synth(shared) => {
            println!("{}", shared.display);
            let (bits, inputs, outputs, terms) = shared.control;
            println!("control: {bits} state bits, PLA {inputs} in / {outputs} out / {terms} terms");
            None
        }
        Outcome::Pla(products) => {
            eprintln!("{}", products.personality);
            eprint!("{}", products.report);
            Some(products.cif.as_str())
        }
        Outcome::Pnr(snap) => {
            eprintln!(
                "routed `{input}`: {} cells, {}/{} nets, wirelength {}, {} via(s), \
                 {} routing round(s) ({} rip-up), drc clean, extract-back ok",
                snap.cells,
                snap.routed,
                snap.nets,
                snap.wirelength,
                snap.vias,
                snap.rounds,
                snap.ripup_rounds,
            );
            Some(snap.cif.as_str())
        }
        Outcome::Verify(snap) => {
            eprintln!("{}", snap.summary());
            for m in &snap.mismatches {
                eprintln!("  {m}");
            }
            snap.gate()?;
            None
        }
        Outcome::Drc(_) => None, // served only
    };
    match (cif, &args.output) {
        (Some(cif), Some(path)) => {
            fs::write(path, cif).map_err(|e| format!("cannot write `{path}`: {e}"))
        }
        (Some(cif), None) => {
            print!("{cif}");
            Ok(())
        }
        (None, _) => Ok(()),
    }
}

fn run_batch_cmd(args: &Args, tracer: &Tracer) -> Result<(), String> {
    let engine = engine(args, tracer)?;
    let input = args.input.as_deref().unwrap_or_default();
    let text = read(input)?;
    let base = Path::new(input)
        .parent()
        .filter(|p| !p.as_os_str().is_empty())
        .unwrap_or_else(|| Path::new("."))
        .to_path_buf();
    let jobs = parse_manifest(&text, &base)?;
    if jobs.is_empty() {
        return Err(format!("manifest `{input}` has no jobs"));
    }
    let results = run_batch(
        &engine,
        &jobs,
        args.jobs.unwrap_or_else(default_parallelism),
    );
    let label_width = results
        .iter()
        .map(|r| r.label.len())
        .max()
        .unwrap_or(0)
        .max("job".len());
    eprintln!(
        "{:<label_width$}  {:>6}  {:>4}  {:>4}  {:>7}  detail",
        "job", "status", "hit", "miss", "time"
    );
    let mut failed = 0usize;
    for r in &results {
        let (status, detail) = match &r.outcome {
            Ok(summary) => ("ok", summary.as_str()),
            Err(message) => {
                failed += 1;
                ("FAIL", message.as_str())
            }
        };
        eprintln!(
            "{:<label_width$}  {:>6}  {:>4}  {:>4}  {:>5}ms  {}",
            r.label, status, r.stats.hits, r.stats.misses, r.millis, detail
        );
    }
    eprintln!(
        "batch: {} job(s), {} ok, {} failed",
        results.len(),
        results.len() - failed,
        failed
    );
    if failed > 0 {
        return Err(format!("{failed} batch job(s) failed"));
    }
    Ok(())
}

fn run_serve(args: &Args, tracer: &Tracer) -> Result<(), String> {
    let mut config = ServerConfig {
        cache_dir: args.cache.as_ref().map(PathBuf::from),
        tracer: tracer.clone(),
        ..ServerConfig::for_jobs(args.jobs.unwrap_or_else(default_parallelism))
    };
    if let Some(addr) = &args.addr {
        config.addr = addr.clone();
    }
    let server = Server::bind(config)?;
    let addr = server.local_addr()?;
    install_sigint_handler();
    eprintln!("silc serve: listening on {addr}; send {{\"op\":\"shutdown\"}} or SIGINT to stop");
    server.run()
}
