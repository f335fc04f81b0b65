//! The layer probes: every crate's main public calls timed one by one
//! on a small seeded corpus, the same way in the traced run of every
//! workload. A layer an optimisation touches moves its probe here; the
//! `<layer>.self_ms` of the workload's own replay says how much of an
//! op that layer is.
//!
//! All calls into the crates go through `layers.rs`; the span each one
//! opens is named after the metric it feeds. Counts are stored as they
//! are seen; timings are read off the spans once, at the end.

use crate::gen_isl::{self, SIM_CYCLES};
use crate::gen_pla;
use crate::gen_sil;
use crate::json::Json;
use crate::layers;
use crate::proc::Scratch;
use crate::rng::Rng;
use crate::spans::Recorder;
use crate::stats::{median, percentile};
use crate::w_chip::CHIP_CELLS;
use crate::w_serve::ServeMix;
use crate::workload::{Ctx, Tally, Workload};
use std::collections::BTreeMap;

/// Repeats of a probe that takes milliseconds.
const REPS: usize = 5;
/// Repeats of a probe that takes a tenth of a second.
const SLOW_REPS: usize = 3;
/// Cycles the interpreter, the oracle engine, is run for.
const INTERP_CYCLES: u64 = 100_000;
/// Generator seed of the probe chips; it routes clean at every size.
const PROBE_CHIP_SEED: u64 = 1;
/// Quiet round trips of each kind on the probe server.
const WIRE_ROUNDS: usize = 50;
/// Seconds of two-client load behind the server's scheduling counters.
const LOAD_SECONDS: f64 = 1.5;

pub type Metrics = BTreeMap<String, f64>;

/// Spans whose median self time is reported as `<span>.us_p50`.
const TIMED_CALLS: [&str; 37] = [
    "lang.compile",
    "layout.flatten",
    "layout.cellstats",
    "geom.fingerprint_flat",
    "geom.fingerprint_design",
    "geom.rect_index.build",
    "drc.check_flat",
    "drc.check_flat_serial",
    "drc.merge_rects",
    "cif.write",
    "cif.parse",
    "extract.extract",
    "extract.extract_array4k",
    "netlist.structurally_matches",
    "netlist.signature",
    "pnr.place",
    "rtl.parse",
    "exec.compile",
    "exec.new_sim",
    "synth.synthesize",
    "synth.control_table",
    "logic.parse_pla",
    "logic.minimize_heuristic",
    "pla.from_truth_table",
    "pla.generate_layout",
    "verify.check_table",
    "verify.check_equivalence",
    "incr.query_hit_mem",
    "incr.query_hit_disk",
    "incr.query_miss_overhead",
    "incr.disk.load",
    "incr.disk.store",
    "serve.json_parse",
    "serve.parse_request",
    "serve.ok_response",
    "pnr.place_and_route.serial",
    "pnr.place_and_route.parallel",
];

/// Runs every probe on a recorder of its own, which is returned so its
/// spans can go to `--trace-out` with the replay's.
pub fn run(ctx: &Ctx, scratch: &Scratch) -> Result<(Metrics, Recorder), String> {
    let mut out = Metrics::new();
    let mut put = |name: &str, value: f64| {
        out.insert(name.to_string(), value);
    };
    let mut recorder = Recorder::new();
    let rec = &mut recorder;
    // For calls that prepare an input and are not themselves a probe.
    let mut quiet = Recorder::new();
    let seed = ctx.seed;

    // Front end and CIF on a library-heavy program; geometry on a
    // 16k-rectangle array; the violation count on the dirty design.
    let program = gen_sil::program(seed, 900, 1_000, 400);
    let array = &gen_sil::array_corpus(seed, &[gen_sil::ARRAY_CLASSES[1]])[0];
    let dirty = gen_sil::dirty(seed);
    for _ in 0..REPS {
        let design = layers::lang_compile(rec, &program.source)?;
        let cif = layers::cif_write(rec, &design)?;
        layers::cif_parse(rec, &cif)?;
        put("lang.design.cells", design.cells() as f64);
        put("cif.write.bytes", cif.len() as f64);
    }
    let design = layers::lang_compile(&mut quiet, &array.source)?;
    let mut array_rects = 0.0;
    for _ in 0..REPS {
        let flat = layers::layout_flatten(rec, &design)?;
        layers::layout_cellstats(rec, &design)?;
        layers::geom_fingerprints(rec, &design, &flat);
        layers::geom_rect_index_build(rec, &flat);
        layers::drc_merge_rects(rec, &flat);
        if layers::drc_check_flat_both(rec, &flat)? != 0 {
            return Err("the probe array is not design-rule clean".into());
        }
        array_rects = flat.rects() as f64;
    }
    put("layout.flatten.rects", array_rects);
    let dirty_design = layers::lang_compile(&mut quiet, &dirty.source)?;
    let dirty_flat = layers::layout_flatten(&mut quiet, &dirty_design)?;
    let violations = layers::drc_check_flat_both(&mut quiet, &dirty_flat)?;
    if violations != dirty.violations {
        return Err(format!(
            "DRC counts {violations} violations where {} were drawn",
            dirty.violations
        ));
    }
    put("drc.violations", violations as f64);

    // Extraction of one 4 096-rectangle array: superlinear in rectangles,
    // so the size is fixed here and kept small.
    let small = &gen_sil::array_corpus(seed, &[gen_sil::ARRAY_CLASSES[0]])[0];
    let small_design = layers::lang_compile(&mut quiet, &small.source)?;
    for _ in 0..SLOW_REPS {
        layers::extract_design(rec, "extract.extract_array4k", &small_design)?;
    }

    // One chip of each size: placement, routing both ways, extract-back.
    // Counts are sums over the chips.
    let (mut nets, mut routed, mut transistors) = (0, 0, 0);
    let mut sums = [0.0; 5];
    for cells in CHIP_CELLS {
        let netlist = layers::random_netlist(PROBE_CHIP_SEED, cells);
        let chip = layers::pnr_probe(rec, &netlist)?;
        let (found, lvs_ok) = layers::extract_and_match(rec, &chip, &netlist)?;
        if !lvs_ok {
            return Err(format!(
                "probe chip of {cells} cells does not extract back to its netlist"
            ));
        }
        let r = chip.report;
        nets += r.nets;
        routed += r.routed;
        transistors += found;
        let of_chip = [
            r.rounds,
            r.ripup_rounds,
            r.vias,
            r.wirelength,
            chip.area as u64,
        ];
        for (sum, value) in sums.iter_mut().zip(of_chip) {
            *sum += value as f64;
        }
    }
    let names = [
        "pnr.rounds",
        "pnr.ripup_rounds",
        "pnr.vias",
        "pnr.wirelength_lambda",
        "pnr.area_lambda2",
    ];
    for (name, sum) in names.iter().zip(sums) {
        put(name, sum);
    }
    put("pnr.routed_ratio", routed as f64 / nets as f64);
    put("extract.transistors", transistors as f64);

    // The PDP-8: parser, both simulators, the reference emulator and
    // synthesis, on the multiply program.
    let text = gen_isl::pdp8_program(2, &mut Rng::new(seed, "probe_pdp8"), 1_200);
    let image = layers::pdp8_assemble(&text)?;
    let isl = gen_isl::pdp8_boot_source(layers::pdp8_isp_source(), &image.words, image.start);
    let (mut exec_cycles, mut interp_cycles, mut instructions) = (0, 0, 0);
    for _ in 0..SLOW_REPS {
        let machine = layers::rtl_parse(rec, &isl)?;
        let exec = layers::exec_probe(rec, &machine, SIM_CYCLES)?;
        interp_cycles = layers::rtl_interp_run(rec, &machine, INTERP_CYCLES)?;
        instructions = layers::pdp8_isa_run(rec, &image, SIM_CYCLES);
        layers::synth_probe(rec, &machine);
        exec_cycles = exec.cycles;
        put("exec.compile.ops", exec.ops as f64);
        put("exec.compile.folded", exec.folded as f64);
        put("exec.compile.cse", exec.cse as f64);
        put("exec.compile.dead", exec.dead as f64);
    }

    // Logic, PLA and verify on a ten-input table; the verdicts on its
    // mutant and its respelling are known by brute force.
    let table = &gen_pla::pla_corpus(seed)[3];
    let text = table.text();
    let mut wrong = 0;
    for _ in 0..SLOW_REPS {
        let pla = layers::pla_probe(rec, &text)?;
        let equivalence = layers::verify_equivalence(rec, &text)?;
        wrong += u32::from(!pla.report.equivalent) + u32::from(!equivalence.equivalent);
        put("logic.terms_in", pla.terms_in as f64);
        put("logic.terms_out", pla.terms_out as f64);
        put("pla.devices", pla.devices as f64);
        put("pla.area_lambda2", pla.area as f64);
        put(
            "verify.strash_merged",
            (pla.report.strash_merged + equivalence.strash_merged) as f64,
        );
        put(
            "verify.exact_decided",
            (pla.report.exact_decided + equivalence.exact_decided) as f64,
        );
    }
    let respelled = layers::verify_against(&mut quiet, &text, &table.respelled().text())?;
    wrong += u32::from(!respelled.equivalent);
    let mut refuted = 0;
    if let Some(mutant) = table.mutant(&mut Rng::new(seed, "probe_mutant")) {
        let verdict = layers::verify_against(&mut quiet, &text, &mutant.text())?;
        wrong += u32::from(verdict.equivalent);
        refuted = verdict.sim_refuted;
    }
    put("verify.sim_refuted", refuted as f64);
    put("verify.wrong_verdicts", f64::from(wrong));

    // The query engine and its disk tier.
    let thousand = gen_sil::array_corpus(seed, &[1_024]);
    let sources: Vec<&str> = thousand.iter().map(|d| d.source.as_str()).collect();
    let cache = layers::incr_probe(rec, &scratch.subdir("probe_incr")?, &sources, &array.source)?;
    put("incr.hits", cache.hits as f64);
    put("incr.misses", cache.misses as f64);
    put(
        "incr.hit_ratio",
        cache.hits as f64 / (cache.hits + cache.misses) as f64,
    );
    put("incr.evictions", cache.evictions as f64);
    put("incr.disk_bytes", cache.disk_bytes as f64);

    // What the compiler's own tracer costs when switched on.
    for _ in 0..REPS {
        layers::trace_overhead_probe(rec, &small.source)?;
    }

    // The server: quiet round trips of each kind, the codec calls on one
    // of its request lines, then a short two-client load for the
    // scheduling counters and the tail. This server runs as shipped, one
    // rayon thread per core: the `serve.*` probes are where the cost of
    // that shows, the end-to-end workloads hold the program to one.
    let probe_dir = scratch.subdir("probe_serve")?;
    let mut server = layers::on_all_cores(|| ServeMix::set_up(ctx, &probe_dir, ctx.nproc.min(4)))?;
    let wire = server.wire_probe(WIRE_ROUNDS)?;
    for _ in 0..REPS {
        layers::serve_codec_probe(rec, wire.sample_line.trim_end(), wire.sample_reply_bytes)?;
    }
    put("serve.roundtrip_stats.us_p50", median(&wire.stats_ms) * 1e3);
    put(
        "serve.roundtrip_hit_sim.us_p50",
        median(&wire.hit_sim_ms) * 1e3,
    );
    put(
        "serve.roundtrip_hit_compile.us_p50",
        median(&wire.hit_compile_ms) * 1e3,
    );
    put("serve.roundtrip_cold.us_p50", median(&wire.cold_ms) * 1e3);
    put("serve.response_bytes_p50", median(&wire.response_bytes));
    let mut load = Tally::new(1);
    server.run(ctx, LOAD_SECONDS, &mut load)?;
    if load.failed > 0 {
        return Err(format!(
            "{} of {} probe requests failed",
            load.failed, load.attempted
        ));
    }
    let p95 =
        percentile(&load.samples[0], 95.0).ok_or("too few probe requests for a 95th percentile")?;
    put("serve.op_p95_ms", p95);
    let stats = server.stats()?;
    for (metric, field) in [
        ("serve.requests", "requests"),
        ("serve.stolen", "stolen"),
        ("serve.affinity_hits", "affinity_hits"),
        ("serve.timeouts", "timeouts"),
        ("serve.overloaded", "rejected"),
        ("serve.bad_request", "bad_requests"),
        ("serve.mem_entries", "mem_entries"),
    ] {
        let value = stats.get(field).and_then(Json::as_f64);
        put(
            metric,
            value.ok_or_else(|| format!("server stats have no `{field}`"))?,
        );
    }
    Box::new(server).finish()?;

    // Timings, read off the spans. One byte per microsecond is one
    // megabyte per second, one cycle per microsecond a million a second.
    let by_name = rec.self_us_by_name();
    let p50 = |span: &str| {
        by_name
            .get(span)
            .map(|us| median(us))
            .ok_or_else(|| format!("no probe recorded a `{span}` span"))
    };
    for span in TIMED_CALLS {
        let name = match span.strip_prefix("pnr.place_and_route.") {
            Some(mode) => format!("pnr.place_and_route.{mode}_us_p50"),
            None => format!("{span}.us_p50"),
        };
        put(&name, p50(span)?);
    }
    put(
        "lang.compile.src_mb_per_s",
        program.source.len() as f64 / p50("lang.compile")?,
    );
    put(
        "drc.rects_per_s",
        array_rects / p50("drc.check_flat")? * 1e6,
    );
    put(
        "exec.run.mcycles_per_s",
        exec_cycles as f64 / p50("exec.run")?,
    );
    put(
        "rtl.sim.interp_mcycles_per_s",
        interp_cycles as f64 / p50("rtl.sim.interp")?,
    );
    put(
        "pdp8.isa.minstr_per_s",
        instructions as f64 / p50("pdp8.isa")?,
    );
    put(
        "incr.persist.encode_mb_per_s",
        cache.snapshot_bytes as f64 / p50("incr.persist.encode")?,
    );
    put(
        "incr.persist.decode_mb_per_s",
        cache.snapshot_bytes as f64 / p50("incr.persist.decode")?,
    );
    put(
        "trace.enabled_overhead_ratio",
        p50("trace.enabled")? / p50("trace.disabled")?,
    );
    put(
        "serve.overhead_hit.us",
        median(&wire.hit_sim_ms) * 1e3 - p50("incr.query_hit_mem")?,
    );
    Ok((out, recorder))
}
