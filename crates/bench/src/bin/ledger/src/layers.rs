//! The one file that calls into the compiler's crates.
//!
//! Everything the benchmark does in-process goes through here: the
//! repo-owned input helpers (assembler, ISP text, netlist generator), the
//! read-back used by the checks, the in-process op of `pnr_chip`, and the
//! traced pass, which replays an op stage by stage through each crate's
//! public functions with a span of the benchmark's own around every
//! call. Where a function has a `*_traced` twin the plain one is called;
//! where only the traced form exists it gets a disabled tracer.
//!
//! The replays mirror `silc-incr`'s pipeline, keys included, so that a
//! cache directory written by the CLI is hit by the replay and the time
//! a stage spends in the cache shows apart from the time it computes.

use crate::gen_sil::Expect;
use crate::spans::Recorder;
use silc_cif::CifWriter;
use silc_drc::{Report as DrcReport, RuleSet};
use silc_exec::{CompiledSim, SimEngine};
use silc_geom::{Fingerprint, Fp, Rect};
use silc_incr::{
    DiskCache, Enc, Engine, EngineConfig, FlatSnapshot, JobStats, Persist, PlaSnapshot,
    PnrSnapshot, SimSnapshot, Stage, SynthSnapshot, VerifySnapshot,
};
use silc_lang::{Compiler, Design, PRELUDE};
use silc_layout::{CellStats, Layer, Library};
use silc_logic::{Cover, TruthTable};
use silc_netlist::Netlist;
use silc_pla::{Minimize, PlaSpec};
use silc_pnr::{Floorplan, PnrReport, PnrResult, RouteStack};
use silc_rtl::Machine;
use silc_serve::{Json as WireJson, Request};
use silc_synth::{Sharing, SynthOptions};
use silc_trace::Tracer;
use silc_verify::{Network, Options as VerifyOptions, Report as VerifyReport};
use std::path::Path;
use std::sync::Arc;

pub use silc_pdp8::Program as Pdp8Program;

// ---------------------------------------------------------------------
// Input helpers owned by the repo.

pub fn pdp8_isp_source() -> &'static str {
    silc_pdp8::isp_source()
}

pub fn pdp8_assemble(source: &str) -> Result<Pdp8Program, String> {
    silc_pdp8::assemble(source).map_err(|e| e.to_string())
}

/// Final state of `program` on the ISA-level reference emulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pdp8Final {
    pub halted: bool,
    pub ac: u16,
    pub pc: u16,
    pub link: u16,
    /// Cycles the ISL description needs, by `cost` per instruction word.
    pub isl_cycles: u64,
}

/// Runs `program` to its halt (or `max_instructions`) on the reference
/// emulator, pricing each instruction word with `cost`.
pub fn pdp8_reference(
    program: &Pdp8Program,
    max_instructions: u64,
    cost: fn(u16) -> u64,
) -> Pdp8Final {
    let mut cpu = silc_pdp8::Pdp8::new();
    cpu.load(program);
    let mut isl_cycles = 0;
    while !cpu.halted && cpu.cycles() < max_instructions {
        isl_cycles += cost(cpu.mem[cpu.pc as usize]);
        cpu.step();
    }
    Pdp8Final {
        halted: cpu.halted,
        ac: cpu.ac,
        pc: cpu.pc,
        link: cpu.link,
        isl_cycles,
    }
}

pub fn random_netlist(seed: u64, cells: usize) -> Netlist {
    silc_pnr::gen::random_netlist(seed, cells)
}

// ---------------------------------------------------------------------
// Read-back for the checks.

const CENTIMICRONS_PER_LAMBDA: i64 = 250;

/// Parses CIF, flattens it and measures it the way [`Expect`] is built,
/// in lambda. Geometry on a mask the generators never draw is an error.
pub fn cif_geometry(cif: &str) -> Result<Expect, String> {
    let design = silc_cif::parse(cif).map_err(|e| e.to_string())?;
    let layers =
        silc_layout::flatten_to_rects(&design.library, design.top).map_err(|e| e.to_string())?;
    let masks = [Layer::Diffusion, Layer::Poly, Layer::Metal, Layer::Contact];
    let mut got = Expect::default();
    for (index, rects) in layers.iter().enumerate() {
        let Some(mask) = masks.iter().position(|m| m.index() == index) else {
            if !rects.is_empty() {
                return Err(format!(
                    "{} rectangles on unexpected layer {index}",
                    rects.len()
                ));
            }
            continue;
        };
        for r in rects {
            let q = |v: i64| v / CENTIMICRONS_PER_LAMBDA;
            let edges = [r.left(), r.bottom(), r.right(), r.top()];
            if edges.iter().any(|v| v % CENTIMICRONS_PER_LAMBDA != 0) {
                return Err(format!("{r} is off the lambda grid"));
            }
            got.rect(mask, q(edges[0]), q(edges[1]), q(edges[2]), q(edges[3]));
        }
    }
    Ok(got)
}

// ---------------------------------------------------------------------
// Engines.

pub fn engine_in_memory() -> Engine {
    Engine::in_memory()
}

/// An engine as a fresh CLI process would build it for `--cache dir`.
pub fn engine_on_disk(dir: &Path) -> Result<Engine, String> {
    Engine::new(EngineConfig {
        cache_dir: Some(dir.to_path_buf()),
        ..EngineConfig::default()
    })
}

// ---------------------------------------------------------------------
// The `pnr_chip` op: the CLI cannot take a netlist, so this one op runs
// in-process, through the same cached query the CLI's `pnr` ends in.

pub struct PnrOutcome {
    pub snapshot: Arc<PnrSnapshot>,
    pub ms: f64,
}

/// Asks for parallel routing as the CLI does; under the one thread the
/// harness holds the program to, the rayon shim routes serially.
pub fn pnr_op(netlist: &Netlist) -> Result<PnrOutcome, String> {
    let start = std::time::Instant::now();
    let engine = Engine::in_memory();
    let snapshot = silc_incr::pnr_products(
        &engine,
        netlist,
        &RouteStack::mead_conway_nmos(),
        &Floorplan::squarish(netlist.instances().len()),
        true,
        &mut JobStats::default(),
    )?;
    Ok(PnrOutcome {
        snapshot,
        ms: start.elapsed().as_secs_f64() * 1e3,
    })
}

// ---------------------------------------------------------------------
// Traced replays. One function per user-visible op; each mirrors what
// the CLI or the server does for it.

fn query<T: Persist + Send + Sync + 'static>(
    rec: &mut Recorder,
    engine: &Engine,
    stage: Stage,
    key: Fp,
    stats: &mut JobStats,
    compute: impl FnOnce(&mut Recorder) -> Result<T, String>,
) -> Result<Arc<T>, String> {
    rec.span("incr.query", |rec| {
        engine.query(stage, key, stats, || compute(rec))
    })
}

/// What a replayed compile produced.
pub struct Compiled {
    pub design: Arc<Design>,
    pub flat: Arc<FlatSnapshot>,
    pub drc: Arc<DrcReport>,
    pub cif: Arc<String>,
    pub stats: JobStats,
}

/// `silc compile` in-process: elaborate, flatten, check, write CIF.
pub fn compile_op(rec: &mut Recorder, engine: &Engine, source: &str) -> Result<Compiled, String> {
    let mut stats = JobStats::default();
    let rules = RuleSet::mead_conway_nmos();
    let key = rec.span("geom.fingerprint_source", |_| {
        (source, PRELUDE).fingerprint()
    });
    let design = query(rec, engine, Stage::ELABORATE, key, &mut stats, |rec| {
        rec.span("lang.compile", |_| {
            Compiler::new().compile(source).map_err(|e| e.to_string())
        })
    })?;
    let key = rec.span("geom.fingerprint_design", |_| design.fingerprint());
    let flat = query(rec, engine, Stage::FLATTEN, key, &mut stats, |rec| {
        let layers = rec.span("layout.flatten", |_| {
            silc_layout::flatten_to_rects(&design.library, design.top).map_err(|e| e.to_string())
        })?;
        let cell_stats = rec.span("layout.cellstats", |_| {
            CellStats::compute(&design.library, design.top).map_err(|e| e.to_string())
        })?;
        Ok(FlatSnapshot {
            layers,
            flat_elements: cell_stats.flat_elements as u64,
            bbox: cell_stats.bbox,
        })
    })?;
    let key = rec.span("geom.fingerprint_flat", |_| {
        (&flat.layers, &rules).fingerprint()
    });
    let drc = query(rec, engine, Stage::DRC, key, &mut stats, |rec| {
        Ok(rec.span("drc.check_flat", |_| {
            silc_drc::check_flat(&flat.layers, &rules)
        }))
    })?;
    let key = rec.span("geom.fingerprint_design", |_| design.fingerprint());
    let cif = query(rec, engine, Stage::CIF, key, &mut stats, |rec| {
        rec.span("cif.write", |_| {
            CifWriter::new()
                .write_to_string(&design.library, design.top)
                .map_err(|e| e.to_string())
        })
    })?;
    Ok(Compiled {
        design,
        flat,
        drc,
        cif,
        stats,
    })
}

/// `silc sim --engine compiled` in-process.
pub fn sim_op(
    rec: &mut Recorder,
    engine: &Engine,
    source: &str,
    cycles: u64,
) -> Result<Arc<SimSnapshot>, String> {
    let mut stats = JobStats::default();
    let machine = rec.span("rtl.parse", |_| {
        silc_rtl::parse(source).map_err(|e| e.to_string())
    })?;
    let key = rec.span("geom.fingerprint_machine", |_| {
        (&machine, cycles, SimEngine::Compiled.tag()).fingerprint()
    });
    query(rec, engine, Stage::SIM, key, &mut stats, |rec| {
        let compiled = rec.span("exec.compile", |_| silc_exec::compile(&machine));
        let mut sim = rec.span("exec.new_sim", |_| CompiledSim::new(&compiled));
        let report = rec.span("exec.run", |_| sim.run(cycles).map_err(|e| e.to_string()))?;
        let read = |names: Vec<&String>, get: &dyn Fn(&str) -> Option<u64>| {
            names
                .into_iter()
                .map(|n| {
                    get(n)
                        .map(|v| (n.clone(), v))
                        .ok_or_else(|| format!("no signal `{n}`"))
                })
                .collect::<Result<Vec<_>, String>>()
        };
        Ok(SimSnapshot {
            cycles: report.cycles,
            halted: report.halted,
            state: sim.state_name().to_string(),
            regs: read(machine.regs.iter().map(|r| &r.name).collect(), &|n| {
                sim.reg(n)
            })?,
            outputs: read(machine.outputs.iter().map(|p| &p.name).collect(), &|n| {
                sim.output(n)
            })?,
        })
    })
}

/// `silc synth` in-process.
pub fn synth_op(
    rec: &mut Recorder,
    engine: &Engine,
    source: &str,
) -> Result<Arc<SynthSnapshot>, String> {
    let mut stats = JobStats::default();
    let machine = rec.span("rtl.parse", |_| {
        silc_rtl::parse(source).map_err(|e| e.to_string())
    })?;
    let key = rec.span("geom.fingerprint_machine", |_| machine.fingerprint());
    query(rec, engine, Stage::SYNTH, key, &mut stats, |rec| {
        let allocation = rec.span("synth.synthesize", |_| synthesize(&machine));
        Ok(SynthSnapshot {
            display: allocation.to_string(),
            control: allocation.control,
        })
    })
}

fn synthesize(machine: &Machine) -> silc_synth::Allocation {
    silc_synth::synthesize(
        machine,
        &SynthOptions {
            sharing: Sharing::Shared,
        },
    )
}

fn realized_network(spec: &PlaSpec) -> Result<Network, String> {
    let outputs: Vec<(String, Cover)> = spec
        .output_names()
        .iter()
        .enumerate()
        .map(|(o, n)| (n.clone(), spec.output_cover(o)))
        .collect();
    Network::from_covers(spec.input_names(), &outputs).map_err(|e| e.to_string())
}

fn verify_snapshot(check: &str, report: VerifyReport) -> VerifySnapshot {
    VerifySnapshot {
        check: check.to_string(),
        equivalent: report.equivalent,
        outputs: report.outputs as u64,
        strash_merged: report.strash_merged as u64,
        sim_rounds: report.sim_rounds as u64,
        sim_refuted: report.sim_refuted as u64,
        exact_decided: report.exact_decided as u64,
        mismatches: report.mismatches,
    }
}

fn from_truth_table(
    rec: &mut Recorder,
    table: &TruthTable,
    mode: Minimize,
) -> Result<PlaSpec, String> {
    // Two-level minimization (`silc-logic`) runs inside this call; the
    // probes time the minimizer on its own.
    rec.span("pla.from_truth_table", |_| {
        PlaSpec::from_truth_table(table, mode).map_err(|e| e.to_string())
    })
}

fn check_table(
    rec: &mut Recorder,
    spec: &PlaSpec,
    table: &TruthTable,
) -> Result<VerifyReport, String> {
    let net = rec.span("verify.network", |_| realized_network(spec))?;
    rec.span("verify.check_table", |_| {
        silc_verify::check_against_table_traced(
            &net,
            table,
            &VerifyOptions::default(),
            &Tracer::disabled(),
        )
        .map_err(|e| e.to_string())
    })
}

/// `silc verify m.isl` in-process: control store against the machine.
pub fn verify_isl_op(
    rec: &mut Recorder,
    engine: &Engine,
    source: &str,
) -> Result<Arc<VerifySnapshot>, String> {
    let mut stats = JobStats::default();
    let machine = rec.span("rtl.parse", |_| {
        silc_rtl::parse(source).map_err(|e| e.to_string())
    })?;
    let key = rec.span("geom.fingerprint_machine", |_| {
        ("verify-isl", &machine).fingerprint()
    });
    query(rec, engine, Stage::VERIFY, key, &mut stats, |rec| {
        let control = rec.span("synth.control_table", |_| {
            silc_synth::control_table(&machine)
        });
        let spec = from_truth_table(rec, &control.table, Minimize::Heuristic)?;
        Ok(verify_snapshot(
            "isl",
            check_table(rec, &spec, &control.table)?,
        ))
    })
}

/// `silc pla t.pla -o t.cif` in-process.
pub fn pla_op(
    rec: &mut Recorder,
    engine: &Engine,
    source: &str,
) -> Result<Arc<PlaSnapshot>, String> {
    let mut stats = JobStats::default();
    let key = rec.span("geom.fingerprint_source", |_| (source, false).fingerprint());
    query(rec, engine, Stage::PLA, key, &mut stats, |rec| {
        let table = rec.span("logic.parse_pla", |_| {
            TruthTable::parse_pla(source).map_err(|e| e.to_string())
        })?;
        let spec = from_truth_table(rec, &table, Minimize::Heuristic)?;
        let (w, h) = spec.area_estimate();
        let personality = format!(
            "personality: {} terms ({} AND + {} OR devices), {w}x{h} lambda",
            spec.num_terms(),
            spec.and_plane_devices(),
            spec.or_plane_devices(),
        );
        let mut lib = Library::new();
        let id = rec.span("pla.generate_layout", |_| {
            silc_pla::generate_layout(&spec, &mut lib, "pla").map_err(|e| e.to_string())
        })?;
        let report = rec.span("drc.check", |_| {
            silc_drc::check(&lib, id, &RuleSet::mead_conway_nmos()).map_err(|e| e.to_string())
        })?;
        let cif = rec.span("cif.write", |_| {
            CifWriter::new()
                .write_to_string(&lib, id)
                .map_err(|e| e.to_string())
        })?;
        Ok(PlaSnapshot {
            personality,
            report,
            cif,
        })
    })
}

/// `silc verify t.pla` in-process: minimized personality against the table.
pub fn verify_pla_op(
    rec: &mut Recorder,
    engine: &Engine,
    source: &str,
) -> Result<Arc<VerifySnapshot>, String> {
    let mut stats = JobStats::default();
    let key = rec.span("geom.fingerprint_source", |_| {
        ("verify-pla", source).fingerprint()
    });
    query(rec, engine, Stage::VERIFY, key, &mut stats, |rec| {
        let table = rec.span("logic.parse_pla", |_| {
            TruthTable::parse_pla(source).map_err(|e| e.to_string())
        })?;
        let spec = from_truth_table(rec, &table, Minimize::Heuristic)?;
        Ok(verify_snapshot("pla", check_table(rec, &spec, &table)?))
    })
}

/// The `pnr_chip` op stage by stage, as `silc_incr::pnr_products` runs
/// it on a miss.
pub fn pnr_replay(rec: &mut Recorder, netlist: &Netlist) -> Result<Arc<PnrSnapshot>, String> {
    let mut stats = JobStats::default();
    let engine = Engine::in_memory();
    let stack = RouteStack::mead_conway_nmos();
    let floorplan = Floorplan::squarish(netlist.instances().len());
    let key = rec.span("geom.fingerprint_netlist", |_| {
        (netlist, &stack, &floorplan).fingerprint()
    });
    query(rec, &engine, Stage::PNR, key, &mut stats, |rec| {
        let out = rec.span("pnr.place_and_route", |_| {
            silc_pnr::place_and_route(netlist, &stack, &floorplan, true).map_err(|e| e.to_string())
        })?;
        let drc = rec.span("drc.check", |_| {
            silc_drc::check(&out.library, out.root, &RuleSet::mead_conway_nmos())
                .map_err(|e| e.to_string())
        })?;
        let extracted = rec.span("extract.extract", |_| {
            silc_extract::extract(&out.library, out.root).map_err(|e| e.to_string())
        })?;
        let lvs_ok = rec.span("netlist.structurally_matches", |_| {
            extracted.netlist.structurally_matches(netlist)
        });
        let cif = rec.span("cif.write", |_| {
            CifWriter::new()
                .write_to_string(&out.library, out.root)
                .map_err(|e| e.to_string())
        })?;
        Ok(PnrSnapshot {
            cells: out.report.cells,
            nets: out.report.nets,
            routed: out.report.routed,
            wirelength: out.report.wirelength,
            vias: out.report.vias,
            rounds: out.report.rounds,
            ripup_rounds: out.report.ripup_rounds,
            drc,
            lvs_ok,
            cif,
        })
    })
}

/// One served request without the socket: decode the line, run the op
/// on the shared engine, encode the reply.
pub fn serve_request(rec: &mut Recorder, engine: &Engine, line: &str) -> Result<String, String> {
    let envelope = rec.span("serve.parse_request", |_| {
        silc_serve::parse_request(line, false)
    })?;
    let int = |v: u64| WireJson::Int(i128::from(v));
    let (fields, stats) = match &envelope.request {
        Request::Compile { source, .. } => {
            let out = compile_op(rec, engine, source)?;
            if !out.drc.is_clean() {
                return Err(format!("drc: {} violation(s)", out.drc.violations.len()));
            }
            let fields = vec![
                ("cells".to_string(), int(out.design.library.len() as u64)),
                ("flat_elements".to_string(), int(out.flat.flat_elements)),
                ("cif".to_string(), WireJson::Str(out.cif.to_string())),
            ];
            (fields, out.stats)
        }
        Request::Sim { source, cycles, .. } => {
            let sim = sim_op(rec, engine, source, *cycles)?;
            let regs = sim.regs.iter().map(|(n, v)| (n.clone(), int(*v))).collect();
            let fields = vec![
                ("cycles".to_string(), int(sim.cycles)),
                ("halted".to_string(), WireJson::Bool(sim.halted)),
                ("state".to_string(), WireJson::Str(sim.state.clone())),
                ("regs".to_string(), WireJson::Obj(regs)),
            ];
            (fields, JobStats::default())
        }
        other => return Err(format!("the serve mix sends no `{}` request", other.op())),
    };
    let mut fields = fields;
    fields.push(("cache_hits".to_string(), int(stats.hits)));
    fields.push(("cache_misses".to_string(), int(stats.misses)));
    Ok(rec.span("serve.ok_response", |_| {
        silc_serve::protocol::ok_response(&envelope.id, envelope.request.op(), fields)
    }))
}

// ---------------------------------------------------------------------
// Single calls for the layer probes. Each records one span named after
// the metric it feeds.

pub struct Elaborated(Design);

impl Elaborated {
    pub fn cells(&self) -> usize {
        self.0.library.len()
    }
}

pub fn lang_compile(rec: &mut Recorder, source: &str) -> Result<Elaborated, String> {
    rec.span("lang.compile", |_| {
        Compiler::new()
            .compile(source)
            .map(Elaborated)
            .map_err(|e| e.to_string())
    })
}

pub struct Flat(Vec<Vec<Rect>>);

impl Flat {
    pub fn rects(&self) -> usize {
        self.0.iter().map(Vec::len).sum()
    }

    fn busiest_layer(&self) -> &[Rect] {
        self.0
            .iter()
            .max_by_key(|l| l.len())
            .map_or(&[], Vec::as_slice)
    }
}

pub fn layout_flatten(rec: &mut Recorder, design: &Elaborated) -> Result<Flat, String> {
    rec.span("layout.flatten", |_| {
        silc_layout::flatten_to_rects(&design.0.library, design.0.top)
            .map(Flat)
            .map_err(|e| e.to_string())
    })
}

pub fn layout_cellstats(rec: &mut Recorder, design: &Elaborated) -> Result<(), String> {
    rec.span("layout.cellstats", |_| {
        CellStats::compute(&design.0.library, design.0.top)
            .map(|_| ())
            .map_err(|e| e.to_string())
    })
}

pub fn geom_fingerprints(rec: &mut Recorder, design: &Elaborated, flat: &Flat) {
    let rules = RuleSet::mead_conway_nmos();
    std::hint::black_box(rec.span("geom.fingerprint_design", |_| design.0.fingerprint()));
    std::hint::black_box(rec.span("geom.fingerprint_flat", |_| (&flat.0, &rules).fingerprint()));
}

pub fn geom_rect_index_build(rec: &mut Recorder, flat: &Flat) {
    let rects = flat.busiest_layer();
    std::hint::black_box(rec.span("geom.rect_index.build", |_| {
        silc_geom::RectIndex::build(rects)
    }));
}

/// The variable the rayon shim reads its thread count from, on every
/// parallel call.
pub const THREADS_VAR: &str = "RAYON_NUM_THREADS";

/// Runs `f` with the thread count the program has by default, one per
/// core. The harness holds everything else to one thread (see
/// `main::measure`); the probes that time a parallel path against its
/// serial twin lift that for the parallel half, and the probe server is
/// started under it.
pub fn on_all_cores<T>(f: impl FnOnce() -> T) -> T {
    let held = std::env::var_os(THREADS_VAR);
    std::env::remove_var(THREADS_VAR);
    let out = f();
    if let Some(held) = held {
        std::env::set_var(THREADS_VAR, held);
    }
    out
}

/// Checks `flat` with the default (parallel) engine and the serial one;
/// returns the violation count, on which both must agree.
pub fn drc_check_flat_both(rec: &mut Recorder, flat: &Flat) -> Result<usize, String> {
    let rules = RuleSet::mead_conway_nmos();
    let default = rec.span("drc.check_flat", |_| {
        on_all_cores(|| silc_drc::check_flat(&flat.0, &rules))
    });
    let serial = rec.span("drc.check_flat_serial", |_| {
        silc_drc::check_flat_serial(&flat.0, &rules)
    });
    if default.violations != serial.violations {
        return Err("parallel and serial DRC disagree".into());
    }
    Ok(default.violations.len())
}

pub fn drc_merge_rects(rec: &mut Recorder, flat: &Flat) {
    let rects = flat.busiest_layer();
    std::hint::black_box(rec.span("drc.merge_rects", |_| silc_drc::merge_rects(rects)));
}

pub fn cif_write(rec: &mut Recorder, design: &Elaborated) -> Result<String, String> {
    rec.span("cif.write", |_| {
        CifWriter::new()
            .write_to_string(&design.0.library, design.0.top)
            .map_err(|e| e.to_string())
    })
}

pub fn cif_parse(rec: &mut Recorder, cif: &str) -> Result<(), String> {
    rec.span("cif.parse", |_| {
        silc_cif::parse(cif).map(|_| ()).map_err(|e| e.to_string())
    })
}

/// Extracts the transistors of `design` under the span `name`; returns
/// how many it found.
pub fn extract_design(
    rec: &mut Recorder,
    name: &'static str,
    design: &Elaborated,
) -> Result<usize, String> {
    rec.span(name, |_| {
        silc_extract::extract(&design.0.library, design.0.top)
            .map(|e| e.transistor_count())
            .map_err(|e| e.to_string())
    })
}

/// One routed chip and the numbers the router reported for it.
pub struct Routed {
    result: PnrResult,
    /// Nets, routed nets, wirelength, vias and rounds as the router
    /// counted them.
    pub report: PnrReport,
    /// Bounding-box area of the routed layout, lambda squared.
    pub area: i64,
}

/// Places, then places and routes serially and in parallel, each under
/// its own span. The two routed layouts must write the same CIF.
pub fn pnr_probe(rec: &mut Recorder, netlist: &Netlist) -> Result<Routed, String> {
    let stack = RouteStack::mead_conway_nmos();
    let floorplan = Floorplan::squarish(netlist.instances().len());
    rec.span("pnr.place", |_| {
        silc_pnr::place(netlist, &stack, &floorplan, &Tracer::disabled())
            .map(|_| ())
            .map_err(|e| e.to_string())
    })?;
    let serial = rec.span("pnr.place_and_route.serial", |_| {
        silc_pnr::place_and_route(netlist, &stack, &floorplan, false).map_err(|e| e.to_string())
    })?;
    let parallel = rec.span("pnr.place_and_route.parallel", |_| {
        on_all_cores(|| silc_pnr::place_and_route(netlist, &stack, &floorplan, true))
            .map_err(|e| e.to_string())
    })?;
    let cif = |r: &PnrResult| {
        CifWriter::new()
            .write_to_string(&r.library, r.root)
            .map_err(|e| e.to_string())
    };
    if cif(&serial)? != cif(&parallel)? {
        return Err("serial and parallel routing differ".into());
    }
    let stats = CellStats::compute(&parallel.library, parallel.root).map_err(|e| e.to_string())?;
    Ok(Routed {
        report: parallel.report,
        area: stats.bbox.map_or(0, |b| b.width() * b.height()),
        result: parallel,
    })
}

/// Extracts a routed chip and compares it with its source netlist two
/// ways; returns `(transistors, lvs_ok)`.
pub fn extract_and_match(
    rec: &mut Recorder,
    chip: &Routed,
    netlist: &Netlist,
) -> Result<(usize, bool), String> {
    let extracted = rec.span("extract.extract", |_| {
        silc_extract::extract(&chip.result.library, chip.result.root).map_err(|e| e.to_string())
    })?;
    let matches = rec.span("netlist.structurally_matches", |_| {
        extracted.netlist.structurally_matches(netlist)
    });
    let same_signature = rec.span("netlist.signature", |_| {
        extracted.netlist.isomorphic_signature() == netlist.isomorphic_signature()
    });
    Ok((extracted.transistor_count(), matches && same_signature))
}

pub struct Parsed(Machine);

pub fn rtl_parse(rec: &mut Recorder, source: &str) -> Result<Parsed, String> {
    rec.span("rtl.parse", |_| {
        silc_rtl::parse(source)
            .map(Parsed)
            .map_err(|e| e.to_string())
    })
}

/// Runs the interpreter (the oracle engine) for `cycles`; returns the
/// cycles it executed.
pub fn rtl_interp_run(rec: &mut Recorder, machine: &Parsed, cycles: u64) -> Result<u64, String> {
    let mut sim = silc_rtl::Simulator::new(&machine.0);
    rec.span("rtl.sim.interp", |_| {
        sim.run(cycles).map(|r| r.cycles).map_err(|e| e.to_string())
    })
}

/// Optimizer counters of one bytecode compile.
#[derive(Debug, Clone, Copy)]
pub struct ExecStats {
    pub ops: u64,
    pub folded: u64,
    pub cse: u64,
    pub dead: u64,
    pub cycles: u64,
}

pub fn exec_probe(rec: &mut Recorder, machine: &Parsed, cycles: u64) -> Result<ExecStats, String> {
    let compiled = rec.span("exec.compile", |_| silc_exec::compile(&machine.0));
    let mut sim = rec.span("exec.new_sim", |_| CompiledSim::new(&compiled));
    let report = rec.span("exec.run", |_| sim.run(cycles).map_err(|e| e.to_string()))?;
    let s = compiled.stats();
    Ok(ExecStats {
        ops: s.ops,
        folded: s.folded,
        cse: s.cse,
        dead: s.dead,
        cycles: report.cycles,
    })
}

/// Steps the reference emulator through `program`; returns the
/// instructions executed.
pub fn pdp8_isa_run(rec: &mut Recorder, program: &Pdp8Program, max_instructions: u64) -> u64 {
    let mut cpu = silc_pdp8::Pdp8::new();
    cpu.load(program);
    rec.span("pdp8.isa", |_| cpu.run(max_instructions));
    cpu.cycles()
}

pub fn synth_probe(rec: &mut Recorder, machine: &Parsed) {
    std::hint::black_box(rec.span("synth.synthesize", |_| synthesize(&machine.0)));
    std::hint::black_box(rec.span("synth.control_table", |_| {
        silc_synth::control_table(&machine.0)
    }));
}

/// What the logic, PLA and verify layers made of one table.
#[derive(Debug, Clone, Copy)]
pub struct PlaProbe {
    pub terms_in: usize,
    pub terms_out: usize,
    pub devices: usize,
    pub area: i64,
    pub report: VerifyCounts,
}

#[derive(Debug, Clone, Copy, Default)]
pub struct VerifyCounts {
    pub equivalent: bool,
    pub strash_merged: usize,
    pub sim_refuted: usize,
    pub exact_decided: usize,
}

impl From<VerifyReport> for VerifyCounts {
    fn from(r: VerifyReport) -> VerifyCounts {
        VerifyCounts {
            equivalent: r.equivalent,
            strash_merged: r.strash_merged,
            sim_refuted: r.sim_refuted,
            exact_decided: r.exact_decided,
        }
    }
}

/// Parses a table, minimizes every output on its own, builds and lays
/// out the personality, and proves it against the table.
pub fn pla_probe(rec: &mut Recorder, source: &str) -> Result<PlaProbe, String> {
    let table = rec.span("logic.parse_pla", |_| {
        TruthTable::parse_pla(source).map_err(|e| e.to_string())
    })?;
    for o in 0..table.num_outputs() {
        let on = table.on_cover(o).map_err(|e| e.to_string())?;
        let dc = table.dc_cover(o).map_err(|e| e.to_string())?;
        rec.span("logic.minimize_heuristic", |_| {
            silc_logic::minimize_heuristic(&on, &dc)
                .map(|_| ())
                .map_err(|e| e.to_string())
        })?;
    }
    let spec = from_truth_table(rec, &table, Minimize::Heuristic)?;
    let mut lib = Library::new();
    rec.span("pla.generate_layout", |_| {
        silc_pla::generate_layout(&spec, &mut lib, "pla")
            .map(|_| ())
            .map_err(|e| e.to_string())
    })?;
    let report = check_table(rec, &spec, &table)?;
    let (w, h) = spec.area_estimate();
    Ok(PlaProbe {
        terms_in: table.rows().len(),
        terms_out: spec.num_terms(),
        devices: spec.and_plane_devices() + spec.or_plane_devices(),
        area: w * h,
        report: report.into(),
    })
}

/// The verdict on `impl_source`'s rows, unminimized, against
/// `spec_source`'s table: what `silc verify A --against B` decides.
pub fn verify_against(
    rec: &mut Recorder,
    impl_source: &str,
    spec_source: &str,
) -> Result<VerifyCounts, String> {
    let impl_table = TruthTable::parse_pla(impl_source).map_err(|e| e.to_string())?;
    let spec_table = TruthTable::parse_pla(spec_source).map_err(|e| e.to_string())?;
    let spec = PlaSpec::from_truth_table(&impl_table, Minimize::None).map_err(|e| e.to_string())?;
    check_table(rec, &spec, &spec_table).map(Into::into)
}

/// Network against network: the minimized and the unminimized
/// realization of one table.
pub fn verify_equivalence(rec: &mut Recorder, source: &str) -> Result<VerifyCounts, String> {
    let table = TruthTable::parse_pla(source).map_err(|e| e.to_string())?;
    let net = |mode| {
        PlaSpec::from_truth_table(&table, mode)
            .map_err(|e| e.to_string())
            .and_then(|s| realized_network(&s))
    };
    let (minimized, raw) = (net(Minimize::Heuristic)?, net(Minimize::None)?);
    rec.span("verify.check_equivalence", |_| {
        silc_verify::check_equivalence_traced(
            &minimized,
            &raw,
            &VerifyOptions::default(),
            &Tracer::disabled(),
        )
        .map(Into::into)
        .map_err(|e| e.to_string())
    })
}

/// Cache counters of [`incr_probe`].
#[derive(Debug, Clone, Copy, Default)]
pub struct IncrCounts {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub disk_bytes: u64,
    pub snapshot_bytes: usize,
}

/// Exercises the query engine and its disk tier on `sources`: misses
/// with a value already built (so the span holds only encode, store and
/// insert), memory hits, disk hits from a second engine, raw disk reads
/// and writes, the codec on a flattened snapshot, and a small-budget
/// engine that has to evict.
pub fn incr_probe(
    rec: &mut Recorder,
    dir: &Path,
    sources: &[&str],
    snapshot_of: &str,
) -> Result<IncrCounts, String> {
    let tracer = Tracer::enabled();
    let config = |mem_entries| EngineConfig {
        cache_dir: Some(dir.to_path_buf()),
        tracer: tracer.clone(),
        mem_entries,
        ..EngineConfig::default()
    };
    let mut stats = JobStats::default();
    let first = Engine::new(config(EngineConfig::default().mem_entries))?;
    let mut quiet = Recorder::new();
    let mut built = Vec::new();
    for source in sources {
        let out = compile_op(&mut quiet, &engine_in_memory(), source)?;
        built.push(((&out.flat.layers, "probe").fingerprint(), out.flat));
    }
    for (key, flat) in &built {
        let value = FlatSnapshot::clone(flat);
        rec.span("incr.query_miss_overhead", |_| {
            first.query(Stage::FLATTEN, *key, &mut stats, || Ok(value))
        })?;
    }
    for (key, _) in &built {
        rec.span("incr.query_hit_mem", |_| {
            first.query::<FlatSnapshot, _>(Stage::FLATTEN, *key, &mut stats, || {
                Err("evicted".into())
            })
        })?;
    }
    let second = Engine::new(config(EngineConfig::default().mem_entries))?;
    for (key, _) in &built {
        rec.span("incr.query_hit_disk", |_| {
            second.query::<FlatSnapshot, _>(Stage::FLATTEN, *key, &mut stats, || {
                Err("not on disk".into())
            })
        })?;
    }
    // A budget of two entries under a stream of distinct keys.
    let tiny = Engine::new(EngineConfig {
        cache_dir: None,
        ..config(2)
    })?;
    for i in 0..16u64 {
        tiny.query(Stage::SIM, (i, "evict").fingerprint(), &mut stats, || Ok(i))?;
    }

    let snapshot = compile_op(&mut quiet, &engine_in_memory(), snapshot_of)?.flat;
    let bytes = rec.span("incr.persist.encode", |_| {
        let mut e = Enc::new();
        snapshot.encode(&mut e);
        e.into_bytes()
    });
    rec.span("incr.persist.decode", |_| {
        let mut d = silc_incr::Dec::new(&bytes);
        FlatSnapshot::decode(&mut d)
            .map(|_| ())
            .map_err(|e| e.to_string())
    })?;
    let disk = DiskCache::open(dir.join("raw"))?;
    let mut disk_bytes = 0;
    for i in 0..8u64 {
        let key = (i, "raw").fingerprint();
        disk_bytes += rec.span("incr.disk.store", |_| {
            disk.store(Stage::FLATTEN, key, &bytes)
        });
        rec.span("incr.disk.load", |_| disk.load(Stage::FLATTEN, key))
            .ok_or("stored entry did not load")?;
    }
    let report = tracer.finish();
    Ok(IncrCounts {
        hits: stats.hits,
        misses: stats.misses,
        evictions: report
            .counter(silc_trace::names::INCR_EVICTIONS)
            .unwrap_or(0),
        disk_bytes,
        snapshot_bytes: bytes.len(),
    })
}

/// Compiles `source` through a fresh in-memory engine with the
/// compiler's own tracer off, then on.
pub fn trace_overhead_probe(rec: &mut Recorder, source: &str) -> Result<(), String> {
    for (name, tracer) in [
        ("trace.disabled", Tracer::disabled()),
        ("trace.enabled", Tracer::enabled()),
    ] {
        let engine = Engine::new(EngineConfig {
            tracer,
            ..EngineConfig::default()
        })?;
        rec.span(name, |_| {
            silc_incr::compile_sil(
                &engine,
                source,
                &silc_incr::CompileOptions::default(),
                &mut JobStats::default(),
            )
            .map(|_| ())
        })?;
    }
    Ok(())
}

/// The codec calls a served request pays, on one request line and one
/// reply of `reply_bytes` payload.
pub fn serve_codec_probe(rec: &mut Recorder, line: &str, reply_bytes: usize) -> Result<(), String> {
    rec.span("serve.json_parse", |_| {
        silc_serve::json::parse(line).map(|_| ())
    })?;
    let envelope = rec.span("serve.parse_request", |_| {
        silc_serve::parse_request(line, false)
    })?;
    let fields = vec![(
        "cif".to_string(),
        WireJson::Str("B 4 4 2 2;\n".repeat(reply_bytes / 11)),
    )];
    std::hint::black_box(rec.span("serve.ok_response", |_| {
        silc_serve::protocol::ok_response(&envelope.id, envelope.request.op(), fields)
    }));
    Ok(())
}
