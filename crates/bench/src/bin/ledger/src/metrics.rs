//! Every metric the benchmark prints, with its unit and which way is
//! better. `BENCHMARK.json` declares the same list (a test compares
//! them); the README says which input each one is measured on.

/// `(name, unit, better, bound)`: what a user of the system sees, on
/// every workload. `bound` is the share of the parent's median by which
/// the metric may get worse. All four are at the most a bound may be:
/// the shared two-core box this was sized on has stretches in which
/// everything that touches much memory runs a quarter slower, and a
/// bound inside the noise would reject the parent commit against itself.
pub const END_TO_END: [(&str, &str, &str, f64); 4] = [
    // Latency of one op where the machine disturbed it least: per corpus
    // item its fastest repetition, averaged so that every design weighs
    // the same (see `workload::Pace`).
    ("op_best_ms", "ms", "lower", 0.25),
    // Ops completed per second of op time in the fastest whole pass.
    ("ops_per_s", "1/s", "higher", 0.25),
    // High-water resident set of the largest process under test.
    ("peak_rss_mb", "MB", "lower", 0.25),
    // Inputs, references and warm caches before the first timed op.
    ("setup_s", "s", "lower", 0.25),
];

/// Layers whose self time on the workload's own replay is reported as
/// `<layer>.self_ms`: every crate a replayed op passes through.
pub const REPLAY_LAYERS: [&str; 16] = [
    "lang", "layout", "geom", "drc", "cif", "extract", "netlist", "pnr", "rtl", "exec", "synth",
    "logic", "pla", "verify", "incr", "serve",
];

/// `(name, unit, better)` of the per-layer metrics that are not
/// `<layer>.self_ms`: the control metrics, then the layer probes.
pub const PROBES: [(&str, &str, &str); 91] = [
    ("bench.calibration_ms", "ms", "lower"),
    ("bench.spawn_ms", "ms", "lower"),
    ("bench.unattributed_ratio", "ratio", "lower"),
    ("bench.replay_ops", "count", "higher"),
    ("lang.compile.us_p50", "us", "lower"),
    ("lang.compile.src_mb_per_s", "MB/s", "higher"),
    ("lang.design.cells", "count", "lower"),
    ("layout.flatten.us_p50", "us", "lower"),
    ("layout.flatten.rects", "count", "lower"),
    ("layout.cellstats.us_p50", "us", "lower"),
    ("geom.fingerprint_flat.us_p50", "us", "lower"),
    ("geom.fingerprint_design.us_p50", "us", "lower"),
    ("geom.rect_index.build.us_p50", "us", "lower"),
    ("drc.check_flat.us_p50", "us", "lower"),
    ("drc.check_flat_serial.us_p50", "us", "lower"),
    ("drc.merge_rects.us_p50", "us", "lower"),
    ("drc.rects_per_s", "1/s", "higher"),
    ("drc.violations", "count", "lower"),
    ("cif.write.us_p50", "us", "lower"),
    ("cif.write.bytes", "bytes", "lower"),
    ("cif.parse.us_p50", "us", "lower"),
    ("extract.extract.us_p50", "us", "lower"),
    ("extract.extract_array4k.us_p50", "us", "lower"),
    ("extract.transistors", "count", "higher"),
    ("netlist.structurally_matches.us_p50", "us", "lower"),
    ("netlist.signature.us_p50", "us", "lower"),
    ("pnr.place.us_p50", "us", "lower"),
    ("pnr.place_and_route.serial_us_p50", "us", "lower"),
    ("pnr.place_and_route.parallel_us_p50", "us", "lower"),
    ("pnr.rounds", "count", "lower"),
    ("pnr.ripup_rounds", "count", "lower"),
    ("pnr.vias", "count", "lower"),
    ("pnr.routed_ratio", "ratio", "higher"),
    ("pnr.wirelength_lambda", "lambda", "lower"),
    ("pnr.area_lambda2", "lambda2", "lower"),
    ("rtl.parse.us_p50", "us", "lower"),
    ("rtl.sim.interp_mcycles_per_s", "Mcycles/s", "higher"),
    ("exec.compile.us_p50", "us", "lower"),
    ("exec.compile.ops", "count", "lower"),
    ("exec.compile.folded", "count", "higher"),
    ("exec.compile.cse", "count", "higher"),
    ("exec.compile.dead", "count", "higher"),
    ("exec.new_sim.us_p50", "us", "lower"),
    ("exec.run.mcycles_per_s", "Mcycles/s", "higher"),
    ("pdp8.isa.minstr_per_s", "Minstr/s", "higher"),
    ("synth.synthesize.us_p50", "us", "lower"),
    ("synth.control_table.us_p50", "us", "lower"),
    ("logic.parse_pla.us_p50", "us", "lower"),
    ("logic.minimize_heuristic.us_p50", "us", "lower"),
    ("logic.terms_in", "count", "lower"),
    ("logic.terms_out", "count", "lower"),
    ("pla.from_truth_table.us_p50", "us", "lower"),
    ("pla.generate_layout.us_p50", "us", "lower"),
    ("pla.devices", "count", "lower"),
    ("pla.area_lambda2", "lambda2", "lower"),
    ("verify.check_table.us_p50", "us", "lower"),
    ("verify.check_equivalence.us_p50", "us", "lower"),
    ("verify.strash_merged", "count", "higher"),
    ("verify.sim_refuted", "count", "higher"),
    ("verify.exact_decided", "count", "lower"),
    ("verify.wrong_verdicts", "count", "lower"),
    ("incr.query_hit_mem.us_p50", "us", "lower"),
    ("incr.query_hit_disk.us_p50", "us", "lower"),
    ("incr.query_miss_overhead.us_p50", "us", "lower"),
    ("incr.persist.encode_mb_per_s", "MB/s", "higher"),
    ("incr.persist.decode_mb_per_s", "MB/s", "higher"),
    ("incr.disk.load.us_p50", "us", "lower"),
    ("incr.disk.store.us_p50", "us", "lower"),
    ("incr.hits", "count", "higher"),
    ("incr.misses", "count", "lower"),
    ("incr.hit_ratio", "ratio", "higher"),
    ("incr.evictions", "count", "lower"),
    ("incr.disk_bytes", "bytes", "lower"),
    ("trace.enabled_overhead_ratio", "ratio", "lower"),
    ("serve.json_parse.us_p50", "us", "lower"),
    ("serve.parse_request.us_p50", "us", "lower"),
    ("serve.ok_response.us_p50", "us", "lower"),
    ("serve.roundtrip_stats.us_p50", "us", "lower"),
    ("serve.roundtrip_hit_sim.us_p50", "us", "lower"),
    ("serve.roundtrip_hit_compile.us_p50", "us", "lower"),
    ("serve.roundtrip_cold.us_p50", "us", "lower"),
    ("serve.overhead_hit.us", "us", "lower"),
    ("serve.response_bytes_p50", "bytes", "lower"),
    ("serve.op_p95_ms", "ms", "lower"),
    ("serve.requests", "count", "higher"),
    ("serve.stolen", "count", "lower"),
    ("serve.affinity_hits", "count", "higher"),
    ("serve.timeouts", "count", "lower"),
    ("serve.overloaded", "count", "lower"),
    ("serve.bad_request", "count", "lower"),
    ("serve.mem_entries", "count", "lower"),
];

/// Every per-layer metric: `(name, unit, better)`.
pub fn per_layer() -> Vec<(String, &'static str, &'static str)> {
    let replay = REPLAY_LAYERS
        .iter()
        .map(|l| (format!("{l}.self_ms"), "ms", "lower"));
    replay
        .chain(PROBES.iter().map(|&(n, u, b)| (n.to_string(), u, b)))
        .collect()
}
