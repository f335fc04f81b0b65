//! The operation table: every op SILC runs, defined once.
//!
//! Three front-ends spell the same requests three ways — the CLI as an
//! argument list (`silc sim m.isl --cycles 5`), a batch manifest as a
//! line of words (`sim m.isl --cycles 5`), `silc serve` as an NDJSON
//! object (`{"op":"sim","source":"…","cycles":5}`). [`VERBS`] names the
//! verbs and which front-ends expose each; [`ARGS`] names every
//! argument once — its flag (the wire field is the flag without dashes,
//! `--no-drc` ↔ `no_drc`), its value kind (the [`Slot`] it fills), the
//! verbs that take it and the front-ends that expose it. [`parse_words`]
//! decodes both word-list front-ends from that table and `silc-serve`
//! decodes its JSON fields from the same rows, so all three arrive at
//! one [`Op`], and [`run`] executes it: defaults, verify routing, the
//! ISL parse span and the `<stage>: <detail>` error texts live here and
//! nowhere else. What is left to a front-end is I/O and a renderer over
//! the typed [`Outcome`].

use crate::engine::{Engine, JobStats};
use crate::pipeline::{
    compile_sil, die_summary, drc_report, elaborate, pla_products, pnr_sil, sim_results,
    synth_allocation, verify_against, verify_isl, verify_pla, verify_sil, CompileOptions,
    CompileOutput, PlaSnapshot, PnrSnapshot, SimSnapshot, SynthSnapshot, VerifySnapshot,
};
use silc_drc::Report;
use silc_trace::span;
use std::path::Path;
use std::sync::Arc;

/// Who is spelling the request. The discriminants are the bits of the
/// `fronts` masks in [`VERBS`] and [`ARGS`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Front {
    /// The `silc` command line.
    Cli = 1,
    /// One line of a `silc batch` manifest.
    Manifest = 2,
    /// One `silc serve` request object.
    Wire = 4,
}

const CLI: u8 = Front::Cli as u8;
const ALL: u8 = CLI | Front::Manifest as u8 | Front::Wire as u8;

/// Every verb any front-end accepts. `Batch` and `Serve` are the CLI's
/// two drivers: they take flags from the same table but are not ops.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Verb {
    /// SIL → DRC → CIF.
    #[default]
    Compile,
    /// Simulate an ISL machine.
    Sim,
    /// Allocate an ISL machine onto standard modules.
    Synth,
    /// Espresso table → minimized PLA → CIF.
    Pla,
    /// Place and route a SIL design's extracted netlist.
    Pnr,
    /// Equivalence-check an artifact against its specification.
    Verify,
    /// SIL → DRC report, violations as data.
    Drc,
    /// Run a manifest of jobs against one shared cache.
    Batch,
    /// The compile server.
    Serve,
}

impl Verb {
    /// The word every front-end spells this verb with.
    pub fn name(self) -> &'static str {
        VERBS.iter().find(|v| v.verb == self).map_or("", |v| v.name)
    }
}

/// One row of [`VERBS`].
#[derive(Debug)]
pub struct VerbSpec {
    /// The verb.
    pub verb: Verb,
    /// Its spelling.
    pub name: &'static str,
    /// Usage placeholder for the input file; empty when it takes none.
    pub input: &'static str,
    /// Mask of the [`Front`]s that expose it.
    pub fronts: u8,
}

/// The verb table, in usage order.
pub const VERBS: [VerbSpec; 9] = [
    verb_spec(Verb::Compile, "compile", "<design.sil>", ALL),
    verb_spec(Verb::Sim, "sim", "<machine.isl>", ALL),
    verb_spec(Verb::Synth, "synth", "<machine.isl>", CLI),
    verb_spec(Verb::Pla, "pla", "<table.pla>", CLI),
    verb_spec(Verb::Pnr, "pnr", "<design.sil>", ALL),
    verb_spec(Verb::Verify, "verify", "<file.pla|.isl|.sil>", ALL),
    verb_spec(Verb::Drc, "drc", "<design.sil>", Front::Wire as u8),
    verb_spec(Verb::Batch, "batch", "<manifest>", CLI),
    verb_spec(Verb::Serve, "serve", "", CLI),
];

const fn verb_spec(verb: Verb, name: &'static str, input: &'static str, fronts: u8) -> VerbSpec {
    VerbSpec {
        verb,
        name,
        input,
        fronts,
    }
}

/// Looks `name` up among the verbs `front` exposes.
pub fn verb(front: Front, name: &str) -> Option<&'static VerbSpec> {
    verbs(front).find(|v| v.name == name)
}

/// The verbs `front` exposes, in table order.
pub fn verbs(front: Front) -> impl Iterator<Item = &'static VerbSpec> {
    VERBS.iter().filter(move |v| v.fronts & front as u8 != 0)
}

/// What to do, free of where the text comes from or goes to: the part of
/// a request all three front-ends must agree on.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Op {
    /// Which operation.
    pub verb: Verb,
    /// `compile`: skip DRC and emit CIF regardless.
    pub no_drc: bool,
    /// `compile`: also extract the transistor netlist.
    pub extract: bool,
    /// `pla`: skip minimization.
    pub raw: bool,
    /// `sim`: cycle budget; `None` = [`Op::cycles`]'s default.
    pub cycles: Option<u64>,
    /// `verify`: source language, one of [`LANGS`] (the input file's
    /// extension where there is a file, a field on the wire).
    pub lang: Option<String>,
}

/// The languages `verify` accepts.
pub const LANGS: [&str; 3] = ["pla", "isl", "sil"];

impl Op {
    /// The cycle budget, defaulted.
    pub fn cycles(&self) -> u64 {
        self.cycles.unwrap_or(10_000)
    }
}

/// One decoded request: the [`Op`], the file references a word-list
/// front-end resolves itself, and the CLI's process-level flags.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Args {
    /// The operation.
    pub op: Op,
    /// The positional input file.
    pub input: Option<String>,
    /// `-o`: where the CIF goes.
    pub output: Option<String>,
    /// `--against`: the PLA table to verify against (a path in a word
    /// list, the table text on the wire).
    pub against: Option<String>,
    /// `--addr`: the server's bind address.
    pub addr: Option<String>,
    /// `--jobs`: how many workers `batch` and `serve` run.
    pub jobs: Option<usize>,
    /// `--cache`: persistent cache directory.
    pub cache: Option<String>,
    /// `--no-cache`: force a cold run.
    pub no_cache: bool,
    /// `--stats`: stage table on stderr.
    pub stats: bool,
    /// `--trace`: JSONL event stream.
    pub trace: Option<String>,
    /// `--engine`: `compiled`, the one simulator, or nothing. A no-op
    /// kept for the frozen ledger; the product PR after ROADMAP's
    /// benchmark-only PR drops it.
    pub engine: Option<String>,
}

/// Where an argument's value lands in [`Args`]; the variant is the
/// argument's value kind.
#[derive(Debug)]
pub enum Slot<'a> {
    /// Present or absent; takes no value.
    Switch(&'a mut bool),
    /// Any string: a path, a name, a text.
    Text(&'a mut Option<String>),
    /// A non-negative cycle count.
    Cycles(&'a mut Option<u64>),
    /// A count of at least one.
    Count(&'a mut Option<usize>),
}

/// One row of [`ARGS`].
#[derive(Debug)]
pub struct Arg {
    /// The flag as the word-list front-ends spell it.
    pub flag: &'static str,
    /// A second spelling accepted in manifests only.
    pub alias: &'static str,
    /// Usage placeholder for the value; empty for a switch.
    pub hint: &'static str,
    /// What a missing or malformed value is told it needs.
    pub needs: &'static str,
    /// Usage description; non-empty marks a flag every CLI verb takes.
    pub help: &'static str,
    /// The verbs that take it.
    pub verbs: &'static [Verb],
    /// Mask of the [`Front`]s that expose it.
    pub fronts: u8,
    /// The field it fills.
    pub slot: fn(&mut Args) -> Slot<'_>,
}

impl Arg {
    /// The NDJSON field name: the flag without its dashes.
    pub fn field(&self) -> String {
        self.flag.trim_start_matches('-').replace('-', "_")
    }

    /// True when `front` exposes this argument on `verb`.
    pub fn accepted(&self, front: Front, verb: Verb) -> bool {
        self.fronts & front as u8 != 0 && self.verbs.contains(&verb)
    }
}

use Verb::{Batch, Compile, Pla, Pnr, Serve, Sim, Synth, Verify};
const EVERY: &[Verb] = &[Compile, Sim, Synth, Pla, Pnr, Verify, Batch, Serve];
const WORDS: u8 = CLI | Front::Manifest as u8;
const WIRE: u8 = Front::Wire as u8;

/// A row of [`ARGS`]: flag, value placeholder, what a bad value is told
/// it needs, the verbs that take it, the front-ends that expose it, the
/// field it fills.
const fn arg(
    flag: &'static str,
    hint: &'static str,
    needs: &'static str,
    verbs: &'static [Verb],
    fronts: u8,
    slot: fn(&mut Args) -> Slot<'_>,
) -> Arg {
    Arg {
        flag,
        alias: "",
        hint,
        needs,
        help: "",
        verbs,
        fronts,
        slot,
    }
}

/// The argument table. Row order is usage order.
pub const ARGS: [Arg; 14] = [
    Arg {
        alias: "--output",
        ..arg(
            "-o",
            "out.cif",
            "a path",
            &[Compile, Pla, Pnr],
            WORDS,
            |a| Slot::Text(&mut a.output),
        )
    },
    arg("--no-drc", "", "", &[Compile], ALL, |a| {
        Slot::Switch(&mut a.op.no_drc)
    }),
    arg("--extract", "", "", &[Compile], WIRE, |a| {
        Slot::Switch(&mut a.op.extract)
    }),
    arg("--raw", "", "", &[Pla], CLI, |a| {
        Slot::Switch(&mut a.op.raw)
    }),
    arg("--cycles", "N", "a cycle count", &[Sim], ALL, |a| {
        Slot::Cycles(&mut a.op.cycles)
    }),
    arg("--lang", "", "a language", &[Verify], WIRE, |a| {
        Slot::Text(&mut a.op.lang)
    }),
    arg("--against", "FILE", "a path", &[Verify], ALL, |a| {
        Slot::Text(&mut a.against)
    }),
    arg("--addr", "HOST:PORT", "a HOST:PORT", &[Serve], CLI, |a| {
        Slot::Text(&mut a.addr)
    }),
    arg(
        "--jobs",
        "N",
        "a positive number",
        &[Batch, Serve],
        CLI,
        |a| Slot::Count(&mut a.jobs),
    ),
    arg("--engine", "compiled", "a name", &[Sim], CLI, |a| {
        Slot::Text(&mut a.engine)
    }),
    Arg {
        help: "per-stage timing and counter summary on stderr",
        ..arg("--stats", "", "", EVERY, CLI, |a| {
            Slot::Switch(&mut a.stats)
        })
    },
    Arg {
        help: "JSONL event stream (one object per span/counter)",
        ..arg("--trace", "<file>", "a file name", EVERY, CLI, |a| {
            Slot::Text(&mut a.trace)
        })
    },
    Arg {
        help: "persistent incremental cache shared across runs",
        ..arg("--cache", "<dir>", "a directory", EVERY, CLI, |a| {
            Slot::Text(&mut a.cache)
        })
    },
    Arg {
        help: "force a cold run (conflicts with --cache)",
        ..arg("--no-cache", "", "", EVERY, CLI, |a| {
            Slot::Switch(&mut a.no_cache)
        })
    },
];

/// Decodes the words after the verb of a CLI invocation or manifest
/// line.
///
/// # Errors
///
/// An unknown flag, a flag this verb does not take (naming the verbs
/// that do), a repeat, a missing or malformed value, a missing or extra
/// input file, or a `verify` input whose extension is no language.
pub fn parse_words<S: AsRef<str>>(
    front: Front,
    spec: &VerbSpec,
    words: &[S],
) -> Result<Args, String> {
    let silc = if front == Front::Cli { "silc " } else { "" };
    let mut args = Args::default();
    args.op.verb = spec.verb;
    let mut it = words.iter().map(AsRef::as_ref);
    while let Some(word) = it.next() {
        if !word.starts_with('-') {
            if spec.input.is_empty() {
                let verb = spec.name;
                return Err(format!("`{silc}{verb}` takes no input file (got `{word}`)"));
            }
            if args.input.replace(word.to_string()).is_some() {
                return Err(format!("unexpected extra argument `{word}`"));
            }
            continue;
        }
        let known = |a: &&Arg| {
            a.fronts & front as u8 != 0
                && (a.flag == word || (front == Front::Manifest && a.alias == word))
        };
        let Some(arg) = ARGS.iter().find(known) else {
            return Err(format!("unknown {} flag `{word}`", spec.name));
        };
        if !arg.verbs.contains(&spec.verb) {
            let takers: Vec<String> = verbs(front)
                .filter(|v| arg.verbs.contains(&v.verb))
                .map(|v| format!("`{silc}{}`", v.name))
                .collect();
            return Err(format!(
                "`{word}` is only valid for {}, not `{silc}{}`",
                takers.join(", "),
                spec.name
            ));
        }
        let needs = || format!("`{word}` needs {}", arg.needs);
        let mut value = || it.next().ok_or_else(needs);
        let repeated = match (arg.slot)(&mut args) {
            Slot::Switch(on) => std::mem::replace(on, true),
            Slot::Text(slot) => slot.replace(value()?.to_string()).is_some(),
            Slot::Cycles(slot) => {
                let n = value()?;
                let cycles = n
                    .parse()
                    .map_err(|_| format!("invalid cycle count `{n}`"))?;
                slot.replace(cycles).is_some()
            }
            Slot::Count(slot) => {
                let count = value()?.parse().ok().filter(|&n| n >= 1);
                slot.replace(count.ok_or_else(needs)?).is_some()
            }
        };
        if repeated {
            return Err(format!("duplicate `{word}`"));
        }
    }
    if args.no_cache && args.cache.is_some() {
        return Err("`--no-cache` conflicts with `--cache`".into());
    }
    if let Some(engine) = args.engine.as_deref().filter(|&e| e != "compiled") {
        return Err(format!("unknown engine `{engine}` (use `compiled`)"));
    }
    if !spec.input.is_empty() && args.input.is_none() {
        return Err(format!("{} needs an input file", spec.name));
    }
    if spec.verb == Verify {
        let input = args.input.as_deref().unwrap_or_default();
        let ext = Path::new(input).extension().and_then(|e| e.to_str());
        args.op.lang = ext.filter(|e| LANGS.contains(e)).map(str::to_string);
        if args.op.lang.is_none() {
            return Err(format!(
                "verify needs a `.pla`, `.isl` or `.sil` input, got `{input}`"
            ));
        }
    }
    Ok(args)
}

/// The CLI usage text, rendered from [`VERBS`] and [`ARGS`].
pub fn usage() -> String {
    let mut text = String::from("usage:\n");
    for v in verbs(Front::Cli) {
        let mut line = format!("  silc {:<7}", v.name);
        if !v.input.is_empty() {
            line = format!("{line} {}", v.input);
        }
        for a in ARGS.iter().filter(|a| a.help.is_empty()) {
            if a.accepted(Front::Cli, v.verb) {
                line = format!("{line} [{}]", format!("{} {}", a.flag, a.hint).trim_end());
            }
        }
        text = format!("{text}{line}\n");
    }
    text.push_str("common flags:\n");
    for a in ARGS.iter().filter(|a| !a.help.is_empty()) {
        let flag = format!("{} {}", a.flag, a.hint);
        text = format!("{text}  {flag:<19}{}\n", a.help);
    }
    text
}

/// What an op produced, for a front-end to render.
#[derive(Debug, Clone)]
pub enum Outcome {
    /// `compile`: CIF is withheld when DRC found violations.
    Compile(CompileOutput),
    /// `sim`.
    Sim {
        /// The machine's declared name.
        machine: String,
        /// Final architectural state.
        sim: Arc<SimSnapshot>,
    },
    /// `synth`.
    Synth(Arc<SynthSnapshot>),
    /// `pla`.
    Pla(Arc<PlaSnapshot>),
    /// `pnr`: routed, DRC-clean and extract-back checked.
    Pnr(Arc<PnrSnapshot>),
    /// `verify`: either verdict.
    Verify(Arc<VerifySnapshot>),
    /// `drc`: the report, violations and all.
    Drc(Arc<Report>),
}

impl CompileOutput {
    /// The DRC gate: a design with violations fails the op.
    ///
    /// # Errors
    ///
    /// `drc: N violation(s)`.
    pub fn gate(&self) -> Result<(), String> {
        match &self.drc {
            Some(report) if !report.is_clean() => {
                Err(format!("drc: {} violation(s)", report.violations.len()))
            }
            _ => Ok(()),
        }
    }
}

impl VerifySnapshot {
    /// For front-ends where an inequivalent pair fails the job.
    ///
    /// # Errors
    ///
    /// `verify: NOT equivalent (…)`, listing the mismatches.
    pub fn gate(&self) -> Result<(), String> {
        if self.equivalent {
            return Ok(());
        }
        let mismatches = self.mismatches.join("; ");
        Err(format!("verify: NOT equivalent ({mismatches})"))
    }
}

/// Runs one op against `engine` over texts already in memory: `source`
/// is the SIL, ISL or PLA input, `against` the PLA table a `verify`
/// checks it against instead of its own specification.
///
/// # Errors
///
/// The first failing stage, as `<stage>: <detail>`. DRC violations and
/// an inequivalent verify pair are outcomes, not errors: see the `gate`
/// of [`CompileOutput`] and [`VerifySnapshot`].
pub fn run(
    engine: &Engine,
    op: &Op,
    source: &str,
    against: Option<&str>,
    stats: &mut JobStats,
) -> Result<Outcome, String> {
    let machine = || {
        let _s = span!(engine.tracer(), "isl.parse");
        silc_rtl::parse(source).map_err(|e| format!("isl.parse: {e}"))
    };
    Ok(match op.verb {
        Compile => {
            let options = CompileOptions {
                check_drc: !op.no_drc,
                extract: op.extract,
            };
            Outcome::Compile(compile_sil(engine, source, &options, stats)?)
        }
        Verb::Drc => {
            // Compile's prefix, die included, so a `drc` after a
            // `compile` of the same source is all hits.
            let design = elaborate(engine, source, stats)?;
            die_summary(engine, &design, stats)?;
            Outcome::Drc(drc_report(engine, &design, stats)?)
        }
        Sim => {
            let machine = machine()?;
            let sim = sim_results(engine, &machine, op.cycles(), stats)?;
            Outcome::Sim {
                machine: machine.name,
                sim,
            }
        }
        Synth => Outcome::Synth(synth_allocation(engine, &machine()?, stats)?),
        Pla => Outcome::Pla(pla_products(engine, source, op.raw, stats)?),
        Pnr => Outcome::Pnr(pnr_sil(engine, source, stats)?),
        Verify => Outcome::Verify(match (against, op.lang.as_deref()) {
            (Some(spec), Some("pla")) => verify_against(engine, source, spec, stats)?,
            (Some(_), lang) => {
                let lang = lang.unwrap_or_default();
                return Err(format!(
                    "verify: `--against` checks one PLA table against another, not `{lang}`"
                ));
            }
            (None, Some("pla")) => verify_pla(engine, source, stats)?,
            (None, Some("isl")) => verify_isl(engine, source, stats)?,
            (None, Some("sil")) => verify_sil(engine, source, stats)?,
            (None, lang) => {
                let lang = lang.unwrap_or_default();
                return Err(format!("verify: unsupported lang `{lang}`"));
            }
        }),
        Batch | Serve => return Err(format!("`{}` is not an operation", op.verb.name())),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A well-formed spelling of `arg`: the flag and, for a valued
    /// kind, one sample value.
    fn spell(arg: &Arg) -> Vec<&'static str> {
        let value = match (arg.slot)(&mut Args::default()) {
            Slot::Switch(_) => None,
            Slot::Text(_) => Some("compiled"),
            Slot::Cycles(_) => Some("7"),
            Slot::Count(_) => Some("3"),
        };
        std::iter::once(arg.flag).chain(value).collect()
    }

    /// The input file a verb wants, as a word list.
    fn input(spec: &VerbSpec) -> Vec<&'static str> {
        if spec.input.is_empty() {
            Vec::new()
        } else {
            vec!["a.pla"]
        }
    }

    #[test]
    fn every_verb_takes_exactly_its_table_rows_on_both_word_lists() {
        for front in [Front::Cli, Front::Manifest] {
            for spec in verbs(front) {
                let bare = parse_words(front, spec, &input(spec)).expect(spec.name);
                for arg in ARGS.iter() {
                    let flag = spell(arg);
                    let words = [input(spec), flag.clone()].concat();
                    let tag = format!("{front:?} {} {words:?}", spec.name);
                    let parsed = parse_words(front, spec, &words);
                    if !arg.accepted(front, spec.verb) {
                        // Not taken: refused naming the flag and the verb.
                        let e = parsed.expect_err(&tag);
                        assert!(e.contains(arg.flag), "{tag}: {e}");
                        assert!(e.contains(spec.name), "{tag}: {e}");
                        continue;
                    }
                    // Taken: it fills its own slot and nothing else, in
                    // any position, and a repeat is refused by name.
                    let mut want = bare.clone();
                    match ((arg.slot)(&mut want), flag.last().copied()) {
                        (Slot::Switch(on), _) => *on = true,
                        (Slot::Text(slot), v) => *slot = v.map(str::to_string),
                        (Slot::Cycles(slot), v) => *slot = v.and_then(|v| v.parse().ok()),
                        (Slot::Count(slot), v) => *slot = v.and_then(|v| v.parse().ok()),
                    }
                    assert_ne!(want, bare, "{tag}");
                    assert_eq!(parsed, Ok(want.clone()), "{tag}");
                    let flag_first = [flag.clone(), input(spec)].concat();
                    assert_eq!(parse_words(front, spec, &flag_first), Ok(want), "{tag}");
                    let twice = [words, flag].concat();
                    let e = parse_words(front, spec, &twice).unwrap_err();
                    assert!(e.contains("duplicate"), "{tag}: {e}");
                    assert!(e.contains(arg.flag), "{tag}: {e}");
                }
            }
        }
    }

    #[test]
    fn output_is_also_spelled_out_in_manifests_only() {
        let spec = verb(Front::Manifest, "compile").unwrap();
        let short = parse_words(Front::Manifest, spec, &["a.sil", "-o", "a.cif"]);
        let long = parse_words(Front::Manifest, spec, &["a.sil", "--output", "a.cif"]);
        assert_eq!(short, long);
        assert_eq!(short.unwrap().output.as_deref(), Some("a.cif"));
        let e = parse_words(Front::Cli, spec, &["a.sil", "--output", "a.cif"]).unwrap_err();
        assert!(e.contains("unknown compile flag `--output`"), "{e}");
    }

    #[test]
    fn usage_lists_every_cli_verb_and_flag() {
        let text = usage();
        for spec in verbs(Front::Cli) {
            assert!(text.contains(&format!("silc {}", spec.name)), "{text}");
        }
        for arg in ARGS.iter().filter(|a| a.fronts & CLI != 0) {
            assert!(text.contains(arg.flag), "{}: {text}", arg.flag);
        }
        assert!(!text.contains("--extract") && !text.contains("--lang"));
    }
}
