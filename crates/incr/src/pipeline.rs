//! The compiler pipeline expressed as incremental queries.
//!
//! Each function keys one stage by the fingerprint of its *inputs* and
//! answers through [`Engine::query`]. Keys chain through intermediate
//! **outputs**, not sources, which yields early cutoff:
//!
//! ```text
//! source ──elaborate──▶ Design ──flatten──▶ FlatSnapshot ──drc──▶ Report
//!                         │  └──────────────extract──▶ ExtractSnapshot
//!                         └──cif──▶ String
//! ISL source ─parse─▶ Machine ──sim──▶ SimSnapshot
//!                        └──synth──▶ SynthSnapshot
//! PLA table ──pla──▶ PlaSnapshot
//! ```
//!
//! A comment-only SIL edit re-elaborates (cheap), finds the design
//! fingerprint unchanged, and serves flatten/DRC/CIF/extract from cache.
//! Parsing ISL is likewise always live, so simulation results are keyed
//! by the *machine*, making them immune to formatting edits.

use crate::codec::{Dec, DecodeError, Persist};
use crate::engine::{Engine, JobStats, Stage};
use silc_cif::CifWriter;
use silc_drc::{check_flat_traced, Report, RuleSet};
use silc_exec::CompiledSim;
use silc_geom::{Fingerprint, FpHasher, Rect};
use silc_lang::{Compiler, Design, PRELUDE};
use silc_logic::TruthTable;
use silc_netlist::Netlist;
use silc_pla::{generate_layout_traced, Minimize, PlaSpec};
use silc_pnr::{place_and_route_traced, Floorplan, RouteStack};
use silc_rtl::Machine;
use silc_synth::{synthesize_traced, Sharing, SynthOptions};
use silc_trace::span;
use silc_verify::{
    check_against_table_traced, check_equivalence_traced, network_from_netlist, Network,
    Options as VerifyOptions,
};
use std::sync::Arc;

/// Flattened geometry plus the die statistics the CLI summarises —
/// cached together so a warm run reproduces the summary byte-for-byte
/// without flattening.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlatSnapshot {
    /// Merged per-layer rectangles, indexed by [`silc_layout::Layer::index`].
    pub layers: Vec<Vec<Rect>>,
    /// Flattened element count ([`silc_layout::CellStats::flat_elements`]).
    pub flat_elements: u64,
    /// Die bounding box ([`silc_layout::CellStats::bbox`]).
    pub bbox: Option<Rect>,
}

impl Fingerprint for FlatSnapshot {
    fn fp_hash(&self, h: &mut FpHasher) {
        self.layers.fp_hash(h);
        h.write_u64(self.flat_elements);
        self.bbox.fp_hash(h);
    }
}

impl Persist for FlatSnapshot {
    fn decode(d: &mut Dec<'_>) -> Result<Self, DecodeError> {
        Ok(FlatSnapshot {
            layers: Vec::<Vec<Rect>>::decode(d)?,
            flat_elements: d.u64()?,
            bbox: Option::<Rect>::decode(d)?,
        })
    }
}

/// Extraction summary: everything LVS needs, without the full netlist.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExtractSnapshot {
    /// Canonical netlist signature ([`silc_netlist::Netlist::isomorphic_signature`]).
    pub signature: Vec<String>,
    /// Recovered transistor count.
    pub transistors: u64,
    /// Electrically distinct nets.
    pub nets: u64,
}

impl Fingerprint for ExtractSnapshot {
    fn fp_hash(&self, h: &mut FpHasher) {
        self.signature.fp_hash(h);
        h.write_u64(self.transistors);
        h.write_u64(self.nets);
    }
}

impl Persist for ExtractSnapshot {
    fn decode(d: &mut Dec<'_>) -> Result<Self, DecodeError> {
        Ok(ExtractSnapshot {
            signature: Vec::<String>::decode(d)?,
            transistors: d.u64()?,
            nets: d.u64()?,
        })
    }
}

/// Simulation results: the final machine state the CLI prints, in
/// declaration order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimSnapshot {
    /// Cycles actually executed.
    pub cycles: u64,
    /// True when the machine hit `halt` (vs. exhausting the budget).
    pub halted: bool,
    /// Final control state name.
    pub state: String,
    /// Final register values, in declaration order.
    pub regs: Vec<(String, u64)>,
    /// Final output port values, in declaration order.
    pub outputs: Vec<(String, u64)>,
}

impl Fingerprint for SimSnapshot {
    fn fp_hash(&self, h: &mut FpHasher) {
        h.write_u64(self.cycles);
        self.halted.fp_hash(h);
        h.write_str(&self.state);
        self.regs.fp_hash(h);
        self.outputs.fp_hash(h);
    }
}

impl Persist for SimSnapshot {
    fn decode(d: &mut Dec<'_>) -> Result<Self, DecodeError> {
        Ok(SimSnapshot {
            cycles: d.u64()?,
            halted: bool::decode(d)?,
            state: d.str()?,
            regs: Vec::<(String, u64)>::decode(d)?,
            outputs: Vec::<(String, u64)>::decode(d)?,
        })
    }
}

/// Synthesis results: the rendered allocation plus the control-PLA
/// dimensions the CLI prints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SynthSnapshot {
    /// The allocation's `Display` rendering.
    pub display: String,
    /// `(state bits, PLA inputs, PLA outputs, PLA terms)`.
    pub control: (u32, u32, u32, u32),
}

impl Fingerprint for SynthSnapshot {
    fn fp_hash(&self, h: &mut FpHasher) {
        h.write_str(&self.display);
        h.write_u32(self.control.0);
        h.write_u32(self.control.1);
        h.write_u32(self.control.2);
        h.write_u32(self.control.3);
    }
}

impl Persist for SynthSnapshot {
    fn decode(d: &mut Dec<'_>) -> Result<Self, DecodeError> {
        Ok(SynthSnapshot {
            display: d.str()?,
            control: (d.u32()?, d.u32()?, d.u32()?, d.u32()?),
        })
    }
}

/// PLA products: personality summary, DRC report and CIF text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlaSnapshot {
    /// The personality line the CLI prints to stderr.
    pub personality: String,
    /// DRC report over the generated layout.
    pub report: Report,
    /// The layout as CIF text.
    pub cif: String,
}

impl Fingerprint for PlaSnapshot {
    fn fp_hash(&self, h: &mut FpHasher) {
        h.write_str(&self.personality);
        self.report.fp_hash(h);
        h.write_str(&self.cif);
    }
}

impl Persist for PlaSnapshot {
    fn decode(d: &mut Dec<'_>) -> Result<Self, DecodeError> {
        Ok(PlaSnapshot {
            personality: d.str()?,
            report: Report::decode(d)?,
            cif: d.str()?,
        })
    }
}

/// Place-and-route products: run counters, the DRC report over the
/// routed geometry, the extract-back verdict and the CIF text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PnrSnapshot {
    /// Cells placed.
    pub cells: u64,
    /// Multi-pin nets needing routing.
    pub nets: u64,
    /// Nets successfully routed (equals `nets`; a shortfall is an error).
    pub routed: u64,
    /// Total routed wirelength in lambda.
    pub wirelength: u64,
    /// Vias dropped.
    pub vias: u64,
    /// Routing rounds executed.
    pub rounds: u64,
    /// Rounds that performed rip-up-and-reroute.
    pub ripup_rounds: u64,
    /// DRC report over the routed layout.
    pub drc: Report,
    /// True when the routed layout extracts back to a netlist that
    /// structurally matches the source.
    pub lvs_ok: bool,
    /// The routed layout as CIF text.
    pub cif: String,
}

impl Fingerprint for PnrSnapshot {
    fn fp_hash(&self, h: &mut FpHasher) {
        h.write_u64(self.cells);
        h.write_u64(self.nets);
        h.write_u64(self.routed);
        h.write_u64(self.wirelength);
        h.write_u64(self.vias);
        h.write_u64(self.rounds);
        h.write_u64(self.ripup_rounds);
        self.drc.fp_hash(h);
        self.lvs_ok.fp_hash(h);
        h.write_str(&self.cif);
    }
}

impl Persist for PnrSnapshot {
    fn decode(d: &mut Dec<'_>) -> Result<Self, DecodeError> {
        Ok(PnrSnapshot {
            cells: d.u64()?,
            nets: d.u64()?,
            routed: d.u64()?,
            wirelength: d.u64()?,
            vias: d.u64()?,
            rounds: d.u64()?,
            ripup_rounds: d.u64()?,
            drc: Report::decode(d)?,
            lvs_ok: bool::decode(d)?,
            cif: d.str()?,
        })
    }
}

/// SIL source → elaborated design, keyed by the source *and* the
/// standard-cell prelude (a prelude change must invalidate).
///
/// # Errors
///
/// SIL syntax or elaboration errors, rendered to strings.
pub fn elaborate(
    engine: &Engine,
    source: &str,
    stats: &mut JobStats,
) -> Result<Arc<Design>, String> {
    let key = (source, PRELUDE).fingerprint();
    engine.query(Stage::ELABORATE, key, stats, || {
        Compiler::new()
            .with_tracer(engine.tracer().clone())
            .compile(source)
            .map_err(|e| e.to_string())
    })
}

/// Design → flattened per-layer geometry and die statistics.
///
/// # Errors
///
/// Layout errors (unknown root cell), rendered to strings.
pub fn flat_regions(
    engine: &Engine,
    design: &Design,
    stats: &mut JobStats,
) -> Result<Arc<FlatSnapshot>, String> {
    let key = design.fingerprint();
    engine.query(Stage::FLATTEN, key, stats, || {
        // One flattening serves the geometry and the die summary.
        let mut s = span!(engine.tracer(), "layout.flatten");
        let flat = silc_layout::flatten(&design.library, design.top).map_err(|e| e.to_string())?;
        let layers = silc_layout::rects_by_layer(&flat);
        s.attr("rects", layers.iter().map(Vec::len).sum::<usize>() as u64);
        Ok(FlatSnapshot {
            layers,
            flat_elements: flat.len() as u64,
            bbox: silc_layout::flat_bbox(&flat),
        })
    })
}

/// Flattened geometry + rule set → DRC report. Keyed by the *geometry*,
/// so a hierarchy refactor that flattens identically reuses the report.
///
/// # Errors
///
/// Never fails today; the `Result` mirrors the other stages.
pub fn drc_report(
    engine: &Engine,
    flat: &FlatSnapshot,
    rules: &RuleSet,
    stats: &mut JobStats,
) -> Result<Arc<Report>, String> {
    let key = (&flat.layers, rules).fingerprint();
    engine.query(Stage::DRC, key, stats, || {
        Ok(check_flat_traced(&flat.layers, rules, engine.tracer()))
    })
}

/// Design → CIF text.
///
/// # Errors
///
/// CIF writer errors (e.g. unnameable cells), rendered to strings.
pub fn cif_text(
    engine: &Engine,
    design: &Design,
    stats: &mut JobStats,
) -> Result<Arc<String>, String> {
    let key = design.fingerprint();
    engine.query(Stage::CIF, key, stats, || {
        CifWriter::new()
            .with_tracer(engine.tracer().clone())
            .write_to_string(&design.library, design.top)
            .map_err(|e| e.to_string())
    })
}

/// Design → extracted netlist summary.
///
/// # Errors
///
/// Extraction errors (malformed transistors), rendered to strings.
pub fn extract_signature(
    engine: &Engine,
    design: &Design,
    stats: &mut JobStats,
) -> Result<Arc<ExtractSnapshot>, String> {
    let key = design.fingerprint();
    engine.query(Stage::EXTRACT, key, stats, || {
        let extracted = silc_extract::extract_traced(&design.library, design.top, engine.tracer())
            .map_err(|e| e.to_string())?;
        Ok(ExtractSnapshot {
            signature: extracted.netlist.isomorphic_signature(),
            transistors: extracted.transistor_count() as u64,
            nets: extracted.nets as u64,
        })
    })
}

/// Machine + cycle budget → simulation results on the compiled engine.
/// Keyed by the parsed machine, so formatting-only ISL edits hit the
/// cache. The key's trailing `0u8` once named the engine; it stays so
/// caches written when there were two still hit.
///
/// # Errors
///
/// Runtime simulation errors, rendered to strings.
pub fn sim_results(
    engine: &Engine,
    machine: &Machine,
    cycles: u64,
    stats: &mut JobStats,
) -> Result<Arc<SimSnapshot>, String> {
    let key = (machine, cycles, 0u8).fingerprint();
    engine.query(Stage::SIM, key, stats, || {
        let tracer = engine.tracer();
        let compiled = {
            let mut s = span!(tracer, "exec.compile");
            let compiled = silc_exec::compile(machine);
            s.attr("ops", compiled.stats().ops);
            compiled
        };
        let st = compiled.stats();
        tracer.add("exec.states", st.states);
        tracer.add("exec.ops", st.ops);
        tracer.add("exec.folded", st.folded);
        tracer.add("exec.cse", st.cse);
        tracer.add("exec.dead", st.dead);
        let mut sim = CompiledSim::new(&compiled);
        let report = {
            let _s = span!(tracer, "sim.run");
            sim.run(cycles).map_err(|e| e.to_string())?
        };
        tracer.add("sim.cycles", report.cycles);
        tracer.add("exec.fast_forward", sim.fast_forwarded());
        let mut regs = Vec::with_capacity(machine.regs.len());
        for r in &machine.regs {
            let value = sim
                .reg(&r.name)
                .ok_or_else(|| format!("simulator has no register `{}`", r.name))?;
            regs.push((r.name.clone(), value));
        }
        let mut outputs = Vec::with_capacity(machine.outputs.len());
        for p in &machine.outputs {
            let value = sim
                .output(&p.name)
                .ok_or_else(|| format!("simulator has no output `{}`", p.name))?;
            outputs.push((p.name.clone(), value));
        }
        Ok(SimSnapshot {
            cycles: report.cycles,
            halted: report.halted,
            state: sim.state_name().to_string(),
            regs,
            outputs,
        })
    })
}

/// Machine → shared-module allocation.
///
/// # Errors
///
/// Never fails today; the `Result` mirrors the other stages.
pub fn synth_allocation(
    engine: &Engine,
    machine: &Machine,
    stats: &mut JobStats,
) -> Result<Arc<SynthSnapshot>, String> {
    let key = machine.fingerprint();
    engine.query(Stage::SYNTH, key, stats, || {
        let allocation = synthesize_traced(
            machine,
            &SynthOptions {
                sharing: Sharing::Shared,
            },
            engine.tracer(),
        );
        Ok(SynthSnapshot {
            display: allocation.to_string(),
            control: allocation.control,
        })
    })
}

/// PLA table text + minimization choice → personality, DRC report and
/// CIF.
///
/// # Errors
///
/// Table parse, layout generation or CIF errors, rendered to strings.
pub fn pla_products(
    engine: &Engine,
    source: &str,
    raw: bool,
    stats: &mut JobStats,
) -> Result<Arc<PlaSnapshot>, String> {
    let key = (source, raw).fingerprint();
    engine.query(Stage::PLA, key, stats, || {
        let tracer = engine.tracer();
        let table = TruthTable::parse_pla(source).map_err(|e| e.to_string())?;
        let mode = if raw {
            Minimize::None
        } else {
            Minimize::Heuristic
        };
        let spec =
            PlaSpec::from_truth_table_traced(&table, mode, tracer).map_err(|e| e.to_string())?;
        let (w, h) = spec.area_estimate();
        let personality = format!(
            "personality: {} terms ({} AND + {} OR devices), {}x{} lambda",
            spec.num_terms(),
            spec.and_plane_devices(),
            spec.or_plane_devices(),
            w,
            h
        );
        let mut lib = silc_layout::Library::new();
        let id =
            generate_layout_traced(&spec, &mut lib, "pla", tracer).map_err(|e| e.to_string())?;
        let report = silc_drc::check_traced(&lib, id, &RuleSet::mead_conway_nmos(), tracer)
            .map_err(|e| e.to_string())?;
        let cif = CifWriter::new()
            .with_tracer(tracer.clone())
            .write_to_string(&lib, id)
            .map_err(|e| e.to_string())?;
        Ok(PlaSnapshot {
            personality,
            report,
            cif,
        })
    })
}

/// Netlist + routing stack + floorplan → routed layout products. The
/// key is exactly those three fingerprints.
///
/// # Errors
///
/// Placement or routing failures ([`silc_pnr::PnrError`] rendered to
/// strings, every variant naming the net, track or stack context), or
/// extraction/CIF errors over the routed geometry.
pub fn pnr_products(
    engine: &Engine,
    netlist: &Netlist,
    stack: &RouteStack,
    floorplan: &Floorplan,
    // Ignored shim for the frozen ledger; ROADMAP's benchmark-only follow-up drops it.
    _parallel: bool,
    stats: &mut JobStats,
) -> Result<Arc<PnrSnapshot>, String> {
    let key = (netlist, stack, floorplan).fingerprint();
    engine.query(Stage::PNR, key, stats, || {
        let tracer = engine.tracer();
        let out =
            place_and_route_traced(netlist, stack, floorplan, tracer).map_err(|e| e.to_string())?;
        let drc =
            silc_drc::check_traced(&out.library, out.root, &RuleSet::mead_conway_nmos(), tracer)
                .map_err(|e| e.to_string())?;
        let extracted = silc_extract::extract_traced(&out.library, out.root, tracer)
            .map_err(|e| e.to_string())?;
        let lvs_ok = extracted.netlist.structurally_matches(netlist);
        let cif = CifWriter::new()
            .with_tracer(tracer.clone())
            .write_to_string(&out.library, out.root)
            .map_err(|e| e.to_string())?;
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

/// What `pnr_sil` and `verify_sil` both start from: the design's
/// transistor netlist (elaborated, then extracted uncached), the one
/// routing stack, and a [`Floorplan::squarish`] floorplan sized for it.
fn pnr_inputs(
    engine: &Engine,
    source: &str,
    stats: &mut JobStats,
) -> Result<(Netlist, RouteStack, Floorplan), String> {
    let stack = RouteStack::mead_conway_nmos();
    let design = elaborate(engine, source, stats)?;
    let extracted = silc_extract::extract_traced(&design.library, design.top, engine.tracer())
        .map_err(|e| format!("extract: {e}"))?;
    let floorplan = Floorplan::squarish(extracted.netlist.instances().len());
    Ok((extracted.netlist, stack, floorplan))
}

/// The full `silc pnr` pipeline over SIL source: elaborate, extract the
/// transistor netlist, place it into a [`Floorplan::squarish`]
/// floorplan on [`RouteStack::mead_conway_nmos`], and route — every
/// front-end (CLI, batch `pnr` jobs, serve `pnr` requests) runs through
/// here, so they share cache entries. Elaboration and extraction are
/// themselves queries; the routed products come from [`pnr_products`].
///
/// # Errors
///
/// The first failing stage's error. A DRC-dirty routed layout or an
/// extract-back mismatch IS an error here — unlike compile, pnr
/// *generated* the geometry, so either means the router is wrong.
pub fn pnr_sil(
    engine: &Engine,
    source: &str,
    stats: &mut JobStats,
) -> Result<Arc<PnrSnapshot>, String> {
    let (netlist, stack, floorplan) = pnr_inputs(engine, source, stats)?;
    let out = pnr_products(engine, &netlist, &stack, &floorplan, false, stats)?;
    if !out.drc.is_clean() {
        return Err(format!(
            "drc: routed layout has {} violation(s)",
            out.drc.violations.len()
        ));
    }
    if !out.lvs_ok {
        return Err("pnr: extract-back does not match the source netlist".into());
    }
    Ok(out)
}

/// An equivalence-check verdict, memoized as [`Stage::VERIFY`]. *Both*
/// verdicts cache — a failing check is exactly as expensive to recompute
/// as a passing one, and every key pins both sides, so a cached failure
/// can never mask a later fix (the fix changes the key).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifySnapshot {
    /// Which check ran: `pla`, `isl`, `sil` or `against`.
    pub check: String,
    /// True when every output pair was proven equivalent.
    pub equivalent: bool,
    /// Output pairs examined.
    pub outputs: u64,
    /// Nodes merged by structural hashing.
    pub strash_merged: u64,
    /// Simulation rounds run.
    pub sim_rounds: u64,
    /// Output pairs refuted by simulation.
    pub sim_refuted: u64,
    /// Output pairs decided by the exact cover-containment tier.
    pub exact_decided: u64,
    /// Mismatch descriptions, sorted; empty iff `equivalent`.
    pub mismatches: Vec<String>,
}

impl VerifySnapshot {
    /// The one-line verdict every front-end prints.
    pub fn summary(&self) -> String {
        let verdict = if self.equivalent {
            "equivalent"
        } else {
            "NOT equivalent"
        };
        format!(
            "verify({}): {verdict}: {} outputs ({} strash-merged, {} sim-refuted, {} exact, {} rounds)",
            self.check,
            self.outputs,
            self.strash_merged,
            self.sim_refuted,
            self.exact_decided,
            self.sim_rounds
        )
    }
}

impl Fingerprint for VerifySnapshot {
    fn fp_hash(&self, h: &mut FpHasher) {
        h.write_str(&self.check);
        self.equivalent.fp_hash(h);
        h.write_u64(self.outputs);
        h.write_u64(self.strash_merged);
        h.write_u64(self.sim_rounds);
        h.write_u64(self.sim_refuted);
        h.write_u64(self.exact_decided);
        self.mismatches.fp_hash(h);
    }
}

impl Persist for VerifySnapshot {
    fn decode(d: &mut Dec<'_>) -> Result<Self, DecodeError> {
        Ok(VerifySnapshot {
            check: d.str()?,
            equivalent: bool::decode(d)?,
            outputs: d.u64()?,
            strash_merged: d.u64()?,
            sim_rounds: d.u64()?,
            sim_refuted: d.u64()?,
            exact_decided: d.u64()?,
            mismatches: Vec::<String>::decode(d)?,
        })
    }
}

fn verify_snapshot(check: &str, report: silc_verify::Report) -> VerifySnapshot {
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

/// The one table check behind `verify_pla`, `verify_isl` and
/// `verify_against`: `impl_table` realized as a PLA under `mode`, its
/// output covers lifted to a single-level network, checked against
/// `spec_table`.
fn check_table(
    engine: &Engine,
    check: &str,
    impl_table: &TruthTable,
    mode: Minimize,
    spec_table: &TruthTable,
) -> Result<VerifySnapshot, String> {
    let tracer = engine.tracer();
    let spec =
        PlaSpec::from_truth_table_traced(impl_table, mode, tracer).map_err(|e| e.to_string())?;
    let outputs: Vec<(String, silc_logic::Cover)> = spec
        .output_names()
        .iter()
        .enumerate()
        .map(|(o, n)| (n.clone(), spec.output_cover(o)))
        .collect();
    let net = Network::from_covers(spec.input_names(), &outputs).map_err(|e| e.to_string())?;
    let report = check_against_table_traced(&net, spec_table, &VerifyOptions::default(), tracer)
        .map_err(|e| e.to_string())?;
    Ok(verify_snapshot(check, report))
}

/// Check 2: minimized PLA vs. its own truth table. The implementation
/// side (the heuristically minimized personality) is a deterministic
/// function of the specification side, so the source text plus the
/// check tag pins both sides' fingerprints.
///
/// # Errors
///
/// Table parse or minimization errors, rendered to strings. An
/// *inequivalent* pair is NOT an error: the verdict comes back in the
/// snapshot.
pub fn verify_pla(
    engine: &Engine,
    source: &str,
    stats: &mut JobStats,
) -> Result<Arc<VerifySnapshot>, String> {
    let key = ("verify-pla", source).fingerprint();
    engine.query(Stage::VERIFY, key, stats, || {
        let table = TruthTable::parse_pla(source).map_err(|e| e.to_string())?;
        check_table(engine, "pla", &table, Minimize::Heuristic, &table)
    })
}

/// Check 1: synthesized control store vs. its RTL source. Sequential
/// equivalence under the state-register correspondence reduces to a
/// combinational check of the minimized control PLA against the exact
/// next-state/control table derived from the machine. Keyed by the
/// parsed machine, so formatting-only ISL edits hit the cache.
///
/// # Errors
///
/// ISL parse or minimization errors, rendered to strings. An
/// inequivalent pair is NOT an error: the verdict comes back in the
/// snapshot.
pub fn verify_isl(
    engine: &Engine,
    source: &str,
    stats: &mut JobStats,
) -> Result<Arc<VerifySnapshot>, String> {
    let machine = silc_rtl::parse(source).map_err(|e| e.to_string())?;
    let key = ("verify-isl", &machine).fingerprint();
    engine.query(Stage::VERIFY, key, stats, || {
        let table = silc_synth::control_table(&machine).table;
        check_table(engine, "isl", &table, Minimize::Heuristic, &table)
    })
}

/// Check 3: pnr extract-back netlist vs. the input netlist — the
/// functional upgrade of `structurally_matches` LVS. The key is the
/// same `(netlist, stack, floorplan)` triple as [`pnr_products`], so a
/// warm verify is a pure [`Stage::VERIFY`] hit; a cold one re-runs
/// place-and-route inside the closure (the routed geometry is
/// deterministic in the key, so this stays correct).
///
/// # Errors
///
/// Elaboration, extraction, placement or routing failures, rendered to
/// strings. An inequivalent pair is NOT an error: the verdict comes
/// back in the snapshot.
pub fn verify_sil(
    engine: &Engine,
    source: &str,
    stats: &mut JobStats,
) -> Result<Arc<VerifySnapshot>, String> {
    let (netlist, stack, floorplan) = pnr_inputs(engine, source, stats)?;
    let key = (("verify-sil", &netlist), (&stack, &floorplan)).fingerprint();
    engine.query(Stage::VERIFY, key, stats, || {
        let tracer = engine.tracer();
        let out = place_and_route_traced(&netlist, &stack, &floorplan, tracer)
            .map_err(|e| e.to_string())?;
        let back = silc_extract::extract_traced(&out.library, out.root, tracer)
            .map_err(|e| e.to_string())?;
        let impl_net = network_from_netlist(&back.netlist).map_err(|e| e.to_string())?;
        let spec_net = network_from_netlist(&netlist).map_err(|e| e.to_string())?;
        let report =
            check_equivalence_traced(&impl_net, &spec_net, &VerifyOptions::default(), tracer)
                .map_err(|e| e.to_string())?;
        Ok(verify_snapshot("sil", report))
    })
}

/// `silc verify A --against B`: two PLA tables checked against each
/// other — A's *raw* (unminimized) realized covers against B's table.
/// Keyed by both sources' fingerprints.
///
/// # Errors
///
/// Parse errors on either side, rendered to strings. An inequivalent
/// pair is NOT an error: the verdict comes back in the snapshot.
pub fn verify_against(
    engine: &Engine,
    impl_source: &str,
    spec_source: &str,
    stats: &mut JobStats,
) -> Result<Arc<VerifySnapshot>, String> {
    let key = ("verify-against", impl_source, spec_source).fingerprint();
    engine.query(Stage::VERIFY, key, stats, || {
        let impl_table = TruthTable::parse_pla(impl_source).map_err(|e| format!("impl: {e}"))?;
        let spec_table = TruthTable::parse_pla(spec_source).map_err(|e| format!("spec: {e}"))?;
        check_table(engine, "against", &impl_table, Minimize::None, &spec_table)
    })
}

/// Options for the one-call compile pipeline.
#[derive(Debug, Clone)]
pub struct CompileOptions {
    /// Run DRC (and withhold CIF when violations are found).
    pub check_drc: bool,
    /// Produce the extracted netlist summary.
    pub extract: bool,
}

impl Default for CompileOptions {
    fn default() -> CompileOptions {
        CompileOptions {
            check_drc: true,
            extract: false,
        }
    }
}

/// Everything a compile run produced. Fields the options disabled (or
/// that DRC violations withheld) are `None`.
#[derive(Debug, Clone)]
pub struct CompileOutput {
    /// The elaborated design.
    pub design: Arc<Design>,
    /// Flattened geometry and die statistics.
    pub flat: Arc<FlatSnapshot>,
    /// DRC report, when requested.
    pub drc: Option<Arc<Report>>,
    /// CIF text, when the layout is clean (or unchecked).
    pub cif: Option<Arc<String>>,
    /// Extraction summary, when requested.
    pub extract: Option<Arc<ExtractSnapshot>>,
}

/// The full SIL compile pipeline as chained queries, checked against
/// the Mead–Conway nMOS rules — what [`crate::ops::run`] runs for the
/// `compile` op of every front-end.
///
/// # Errors
///
/// The first failing stage's error. DRC *violations* are not an error:
/// they come back in [`CompileOutput::drc`] with `cif` withheld.
pub fn compile_sil(
    engine: &Engine,
    source: &str,
    options: &CompileOptions,
    stats: &mut JobStats,
) -> Result<CompileOutput, String> {
    let design = elaborate(engine, source, stats)?;
    let flat = flat_regions(engine, &design, stats)?;
    let drc = if options.check_drc {
        let rules = RuleSet::mead_conway_nmos();
        Some(drc_report(engine, &flat, &rules, stats)?)
    } else {
        None
    };
    let clean = drc.as_ref().is_none_or(|r| r.is_clean());
    let cif = if clean {
        Some(cif_text(engine, &design, stats)?)
    } else {
        None
    };
    let extract = if options.extract {
        Some(extract_signature(engine, &design, stats)?)
    } else {
        None
    };
    Ok(CompileOutput {
        design,
        flat,
        drc,
        cif,
        extract,
    })
}
