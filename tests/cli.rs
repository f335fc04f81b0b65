//! Integration: the `silc` command-line programming environment.

use std::io::Write as _;
use std::process::Command;

fn silc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_silc"))
}

fn write_temp(name: &str, contents: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("silc-cli-tests");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(name);
    let mut f = std::fs::File::create(&path).expect("create temp file");
    f.write_all(contents.as_bytes()).expect("write temp file");
    path
}

#[test]
fn compile_emits_cif_and_reports_drc() {
    let sil = write_temp(
        "ok.sil",
        "cell c() { box metal (0,0) (4,20); } place c() at (0,0);",
    );
    let out = silc().arg("compile").arg(&sil).output().expect("runs");
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stdout.contains("DS 1"), "CIF on stdout: {stdout}");
    assert!(stderr.contains("0 violation"), "DRC on stderr: {stderr}");
}

#[test]
fn compile_fails_on_drc_violation_unless_overridden() {
    let sil = write_temp(
        "bad.sil",
        "cell c() { box metal (0,0) (1,20); } place c() at (0,0);",
    );
    let out = silc().arg("compile").arg(&sil).output().expect("runs");
    assert!(!out.status.success());
    let out = silc()
        .arg("compile")
        .arg(&sil)
        .arg("--no-drc")
        .output()
        .expect("runs");
    assert!(out.status.success(), "{out:?}");
}

#[test]
fn compile_diagnoses_syntax_errors() {
    let sil = write_temp("syntax.sil", "cell c( { }");
    let out = silc().arg("compile").arg(&sil).output().expect("runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("silc:"), "{stderr}");
}

#[test]
fn sim_runs_and_dumps_registers() {
    let isl = write_temp(
        "count.isl",
        "machine m { reg n[8]; state s { n := n + 1; if n == 5 { halt; } } }",
    );
    let out = silc().arg("sim").arg(&isl).output().expect("runs");
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("halted"), "{stdout}");
    assert!(stdout.contains("n = 0o6"), "{stdout}");
}

#[test]
fn synth_prints_estimate() {
    let isl = write_temp(
        "acc.isl",
        "machine m { reg a[8]; port input x[8]; state s { a := a + x; } }",
    );
    let out = silc().arg("synth").arg(&isl).output().expect("runs");
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("packages"), "{stdout}");
    assert!(stdout.contains("control:"), "{stdout}");
}

#[test]
fn pla_compiles_espresso_format() {
    let pla = write_temp("maj.pla", ".i 3\n.o 1\n110 1\n101 1\n011 1\n111 1\n.e\n");
    let out = silc().arg("pla").arg(&pla).output().expect("runs");
    assert!(out.status.success(), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("3 terms"), "{stderr}");
    assert!(stderr.contains("0 violation"), "{stderr}");
}

/// A DRC-clean design whose extraction yields real transistors — the
/// input `silc pnr` places and routes.
const PNR_SIL: &str = "cell inv() { \
     box diff (0, 0) (4, 30); \
     box poly (-4, 8) (8, 10); \
     box poly (-4, 20) (8, 22); \
     box implant (-2, 18) (6, 24); \
     box contact (1, 14) (3, 16); \
     box metal (0, 13) (12, 17); } \
     cell column(n) { array inv() at (0, 0) step (0, 0) (0, 36) count 1 n; } \
     place column(4) at (0, 0);";

#[test]
fn pnr_routes_and_emits_cif() {
    let sil = write_temp("pnr.sil", PNR_SIL);
    let out = silc()
        .args(["pnr", sil.to_str().unwrap(), "--stats"])
        .output()
        .expect("runs");
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stdout.contains("DS"), "routed CIF on stdout: {stdout}");
    assert!(stderr.contains("8 cells"), "{stderr}");
    assert!(stderr.contains("4/4 nets"), "all nets routed: {stderr}");
    assert!(stderr.contains("drc clean"), "{stderr}");
    assert!(stderr.contains("extract-back ok"), "{stderr}");
    // The site table's build shows apart from the searches it serves.
    let stages = ["pnr.place", "pnr.route", "pnr.sites", "pnr.searches"];
    for stage in stages.iter().chain(&["drc.spacing", "cif.write"]) {
        assert!(stderr.contains(stage), "missing `{stage}`: {stderr}");
    }
}

#[test]
fn pnr_flags_are_validated() {
    let sil = write_temp("pnr-flags.sil", PNR_SIL);
    let path = sil.to_str().unwrap();
    // There is one routing stack: no verb takes `--stack`.
    for verb in ["pnr", "compile", "verify"] {
        let out = silc()
            .args([verb, path, "--stack", "nmos"])
            .output()
            .expect("runs");
        assert_eq!(out.status.code(), Some(1), "{verb}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let unknown = format!("unknown {verb} flag `--stack`");
        assert!(stderr.contains(&unknown), "{verb}: {stderr}");
    }
    // `--no-drc` stays a compile flag.
    let out = silc()
        .args(["pnr", path, "--no-drc"])
        .output()
        .expect("runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--no-drc"), "{stderr}");
    assert!(stderr.contains("silc compile"), "{stderr}");
    // `--jobs` sizes the batch and serve pools; the router has no workers.
    let out = silc()
        .args(["pnr", path, "--jobs", "4"])
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    let refusal = "`--jobs` is only valid for `silc batch`, `silc serve`, not `silc pnr`";
    assert!(stderr.contains(refusal), "{stderr}");
}

#[test]
fn unknown_flag_is_rejected_by_name() {
    let sil = write_temp(
        "flags.sil",
        "cell c() { box metal (0,0) (4,20); } place c() at (0,0);",
    );
    let out = silc()
        .arg("compile")
        .arg(&sil)
        .arg("--no-drcc")
        .output()
        .expect("runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--no-drcc"), "names the bad flag: {stderr}");
}

#[test]
fn flags_are_validated_per_subcommand() {
    let sil = write_temp(
        "percmd.sil",
        "cell c() { box metal (0,0) (4,20); } place c() at (0,0);",
    );
    let isl = write_temp(
        "percmd.isl",
        "machine m { reg n[8]; state s { n := n + 1; if n == 5 { halt; } } }",
    );
    // `--cycles` belongs to `sim` only.
    let out = silc()
        .args(["compile", sil.to_str().unwrap(), "--cycles", "5"])
        .output()
        .expect("runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--cycles"), "{stderr}");
    assert!(stderr.contains("silc sim"), "{stderr}");
    // `--raw` belongs to `pla` only.
    let out = silc()
        .args(["sim", isl.to_str().unwrap(), "--raw"])
        .output()
        .expect("runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--raw"));
    // `-o` is compile/pla only.
    let out = silc()
        .args(["synth", isl.to_str().unwrap(), "-o", "/tmp/x"])
        .output()
        .expect("runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("-o"));
    // `--engine` belongs to `sim` only, and only on the command line.
    for words in [
        vec!["compile", sil.to_str().unwrap()],
        vec!["batch", "jobs.txt"],
        vec!["serve"],
    ] {
        let out = silc()
            .args(&words)
            .args(["--engine", "compiled"])
            .output()
            .expect("runs");
        assert!(!out.status.success(), "{words:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("`--engine` is only valid for `silc sim`, not"),
            "{words:?}: {stderr}"
        );
    }
}

/// There is one simulator. `--engine compiled` still names it, as a
/// no-op; any other engine is refused, naming the one there is.
#[test]
fn engine_compiled_is_a_no_op_and_nothing_else_is_an_engine() {
    let isl = write_temp(
        "engines.isl",
        "machine m { reg n[8]; port output o[8]; state s { n := n + 3; o := n; if n == 30 { halt; } } }",
    );
    let path = isl.to_str().unwrap();
    let sim = |extra: &[&str]| {
        silc()
            .args(["sim", path])
            .args(extra)
            .output()
            .expect("runs")
    };
    let bare = sim(&[]);
    assert!(bare.status.success(), "{bare:?}");
    assert!(String::from_utf8_lossy(&bare.stdout).contains("halted"));
    let named = sim(&["--engine", "compiled"]);
    assert!(named.status.success(), "{named:?}");
    assert_eq!(named.stdout, bare.stdout);
    assert_eq!(named.stderr, bare.stderr);
    for other in ["interp", "turbo"] {
        let out = sim(&["--engine", other]);
        assert_eq!(out.status.code(), Some(1), "{other}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown engine `{other}`")),
            "{stderr}"
        );
        assert!(stderr.contains("`compiled`"), "{stderr}");
    }
}

#[test]
fn constant_memory_index_is_a_word_write() {
    // `m[128] := w` used to parse as a bit select and be refused; it must
    // mean what `m[128 + 0] := w` means. `crates/exec/src/run.rs` checks
    // the compiled engine against the interpreter on both spellings.
    let machine = |index: &str| {
        format!(
            "machine boot {{ reg w[12] init 1234; reg back[12]; mem m[256][12];
               state load {{ m[{index}] := w; goto read; }}
               state read {{ back := m[128]; halt; }} }}"
        )
    };
    let mut outputs = Vec::new();
    for (tag, index) in [("const", "128"), ("sum", "128 + 0")] {
        let isl = write_temp(&format!("memidx-{tag}.isl"), &machine(index));
        let out = silc()
            .args(["sim", isl.to_str().unwrap()])
            .output()
            .expect("runs");
        assert!(out.status.success(), "{index}: {out:?}");
        outputs.push(out.stdout);
    }
    assert_eq!(outputs[0], outputs[1]);
    let text = String::from_utf8_lossy(&outputs[0]);
    assert!(text.contains("back = 0o2322"), "{text}");
}

#[test]
fn stats_prints_stage_table() {
    let sil = write_temp(
        "stats.sil",
        "cell c() { box metal (0,0) (4,20); } place c() at (0,0);",
    );
    let out = silc()
        .args(["compile", sil.to_str().unwrap(), "--stats"])
        .output()
        .expect("runs");
    assert!(out.status.success(), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    for stage in [
        "lang.lex",
        "lang.parse",
        "lang.elaborate",
        "layout.flatten",
        "drc.width",
        "drc.spacing",
        "cif.write",
    ] {
        assert!(stderr.contains(stage), "missing `{stage}` in: {stderr}");
    }
    assert!(stderr.contains("wall"), "{stderr}");
    assert!(stderr.contains("drc.rects_checked"), "{stderr}");
}

/// The value of counter `name` in `--stats` output.
fn stat(stderr: &str, name: &str) -> u64 {
    let line = stderr
        .lines()
        .find(|l| l.split_whitespace().next() == Some(name))
        .unwrap_or_else(|| panic!("missing `{name}` in: {stderr}"));
    let value = line.split_whitespace().last().expect("a value");
    value.parse().expect("counters are integers")
}

#[test]
fn stats_show_indexes_sized_by_the_geometry_not_the_extent() {
    // A crossbar: long thin wires over a wide die, the shape that made a
    // grid sized from the feature width alone run to millions of bins.
    let sil = write_temp(
        "xbar.sil",
        "cell tap() { box diff (-3, -2) (3, 2); box contact (-1, -1) (1, 1); }
         cell xtile(k) {
           for i in 0..k {
             wire metal 4 (0, i * 12) (k * 12, i * 12);
             wire poly 2 (i * 12 + 6, 0 - 4) (i * 12 + 6, k * 12 + 4);
           }
           for i in 0..k { place tap() at (i * 12 + 6, i * 12); }
         }
         cell xbar(k, n, m) { array xtile(k) at (0, 0) step (207, 0) (0, 207) count n m; }
         place xbar(16, 6, 6) at (17, 40);",
    );
    let out = silc()
        .args(["compile", sil.to_str().unwrap(), "--stats", "--no-cache"])
        .output()
        .expect("runs");
    assert!(out.status.success(), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let (rects, bins) = (
        stat(&stderr, "drc.index.rects"),
        stat(&stderr, "drc.index.bins"),
    );
    let (checked, gates) = (
        stat(&stderr, "drc.rects_checked"),
        stat(&stderr, "drc.gates"),
    );
    assert_eq!(checked, 6 * 6 * 64);
    assert_eq!(gates, 6 * 6 * 16);
    assert!(bins <= 4 * rects, "{bins} bins for {rects} indexed rects");
    // Each layer is indexed at most twice: as drawn and as merged.
    assert!(rects <= 2 * checked + gates, "{rects} indexed of {checked}");
}

#[test]
fn coordinates_beyond_the_supported_range_are_a_line_numbered_error() {
    // Once aborted the process inside the spatial index ("memory
    // allocation of 198338161864 bytes failed") after printing a wrapped
    // die size.
    let sil = write_temp(
        "huge.sil",
        "cell a() {
           box metal (0,0) (9000000000000000000,4);
           box metal (-9000000000000000000,10) (0,14);
           box contact (9223372036854775800,0) (9223372036854775806,4);
         }
         cell b(n) { array a() at (0,0) step (10,0) count n; }
         place b(20) at (0,0);",
    );
    let cif = sil.with_extension("cif");
    let _ = std::fs::remove_file(&cif);
    let out = silc()
        .args(["compile", sil.to_str().unwrap(), "--no-cache", "-o"])
        .arg(&cif)
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("silc:"), "{stderr}");
    assert!(stderr.contains("line 2"), "{stderr}");
    assert!(stderr.contains("2^40"), "{stderr}");
    assert!(
        !stderr.contains("die"),
        "no summary of a rejected design: {stderr}"
    );
    assert!(!cif.exists(), "no CIF for a rejected design");
}

#[test]
fn stats_off_by_default() {
    let sil = write_temp(
        "nostats.sil",
        "cell c() { box metal (0,0) (4,20); } place c() at (0,0);",
    );
    let out = silc().arg("compile").arg(&sil).output().expect("runs");
    assert!(out.status.success(), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("lang.lex"), "{stderr}");
}

/// Checks a JSONL line is one flat JSON object: string keys, string or
/// unsigned-integer values. The validator is deliberately strict — it
/// accepts exactly the subset the tracer emits.
fn assert_flat_json_object(line: &str) {
    let inner = line
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .unwrap_or_else(|| panic!("not an object: {line}"));
    for pair in inner.split(',') {
        let (key, value) = pair
            .split_once(':')
            .unwrap_or_else(|| panic!("not a pair `{pair}` in: {line}"));
        assert!(
            key.len() >= 3 && key.starts_with('"') && key.ends_with('"'),
            "bad key `{key}` in: {line}"
        );
        let ok = (value.len() >= 2 && value.starts_with('"') && value.ends_with('"'))
            || (!value.is_empty() && value.bytes().all(|b| b.is_ascii_digit()));
        assert!(ok, "bad value `{value}` in: {line}");
    }
}

#[test]
fn trace_emits_one_json_object_per_line() {
    let sil = write_temp(
        "trace.sil",
        "cell c() { box metal (0,0) (4,20); } place c() at (0,0);",
    );
    let jsonl = std::env::temp_dir().join("silc-cli-tests/trace.jsonl");
    let out = silc()
        .args([
            "compile",
            sil.to_str().unwrap(),
            "--trace",
            jsonl.to_str().unwrap(),
        ])
        .output()
        .expect("runs");
    assert!(out.status.success(), "{out:?}");
    let text = std::fs::read_to_string(&jsonl).expect("trace file written");
    assert!(!text.is_empty());
    for line in text.lines() {
        assert_flat_json_object(line);
        assert!(line.contains("\"event\":\""), "{line}");
    }
    for stage in ["lang.lex", "lang.parse", "lang.elaborate", "cif.write"] {
        assert!(
            text.contains(&format!("\"stage\":\"{stage}\"")),
            "missing span for `{stage}`: {text}"
        );
    }
    assert!(text.contains("\"event\":\"counter\""), "{text}");
}

#[test]
fn sim_and_pla_record_their_stages() {
    let isl = write_temp(
        "traced.isl",
        "machine m { reg n[8]; state s { n := n + 1; if n == 5 { halt; } } }",
    );
    let out = silc()
        .args(["sim", isl.to_str().unwrap(), "--stats"])
        .output()
        .expect("runs");
    assert!(out.status.success(), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("isl.parse"), "{stderr}");
    assert!(stderr.contains("sim.run"), "{stderr}");
    assert!(stderr.contains("sim.cycles"), "{stderr}");
    // Both ISL commands parse under that span, and a parse failure is
    // named after it like every other stage failure.
    let broken = write_temp("broken.isl", "machine oops { state");
    for cmd in ["sim", "synth"] {
        let out = silc()
            .args([cmd, isl.to_str().unwrap(), "--stats"])
            .output()
            .expect("runs");
        assert!(out.status.success(), "{cmd}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("isl.parse"), "{cmd}: {stderr}");
        let out = silc().arg(cmd).arg(&broken).output().expect("runs");
        assert!(!out.status.success(), "{cmd}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("silc: isl.parse: "), "{cmd}: {stderr}");
    }

    let pla = write_temp("traced.pla", ".i 3\n.o 1\n110 1\n101 1\n011 1\n111 1\n.e\n");
    let out = silc()
        .args(["pla", pla.to_str().unwrap(), "--stats"])
        .output()
        .expect("runs");
    assert!(out.status.success(), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("pla.minimize"), "{stderr}");
    assert!(stderr.contains("pla.layout"), "{stderr}");
    assert!(stderr.contains("drc.spacing"), "{stderr}");
}

fn temp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("silc-cli-tests").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

#[test]
fn duplicate_flags_are_rejected_by_name() {
    let sil = write_temp(
        "dup.sil",
        "cell c() { box metal (0,0) (4,20); } place c() at (0,0);",
    );
    let path = sil.to_str().unwrap();
    for args in [
        vec!["compile", path, "-o", "a.cif", "-o", "b.cif"],
        vec!["compile", path, "--stats", "--stats"],
        vec!["compile", path, "--no-drc", "--no-drc"],
        vec!["compile", path, "--trace", "a", "--trace", "b"],
        vec!["compile", path, "--cache", "a", "--cache", "b"],
        vec!["sim", path, "--cycles", "5", "--cycles", "9"],
        vec!["sim", path, "--engine", "compiled", "--engine", "compiled"],
    ] {
        let flag = args[2];
        let out = silc().args(&args).output().expect("runs");
        assert!(!out.status.success(), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("duplicate"), "{args:?}: {stderr}");
        assert!(stderr.contains(flag), "names `{flag}`: {stderr}");
    }
}

#[test]
fn cache_and_no_cache_conflict() {
    let sil = write_temp(
        "conflict.sil",
        "cell c() { box metal (0,0) (4,20); } place c() at (0,0);",
    );
    let out = silc()
        .args([
            "compile",
            sil.to_str().unwrap(),
            "--no-cache",
            "--cache",
            "x",
        ])
        .output()
        .expect("runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--no-cache"), "{stderr}");
    assert!(stderr.contains("--cache"), "{stderr}");
}

#[test]
fn warm_cached_compile_hits_and_is_byte_identical() {
    let dir = temp_dir("warm");
    let sil = dir.join("d.sil");
    std::fs::write(
        &sil,
        "cell c() { box metal (0,0) (4,20); } place c() at (0,0);",
    )
    .unwrap();
    let cache = dir.join("cache");
    let run = || {
        silc()
            .args([
                "compile",
                sil.to_str().unwrap(),
                "--cache",
                cache.to_str().unwrap(),
                "--stats",
            ])
            .output()
            .expect("runs")
    };
    let cold = run();
    assert!(cold.status.success(), "{cold:?}");
    let warm = run();
    assert!(warm.status.success(), "{warm:?}");
    // The CIF on stdout is byte-identical warm vs cold.
    assert_eq!(warm.stdout, cold.stdout);
    let stderr = String::from_utf8_lossy(&warm.stderr);
    assert!(stderr.contains("incr.hit"), "{stderr}");
    assert!(!stderr.contains("incr.miss"), "warm run missed: {stderr}");
    // The cold run reported its misses and stored bytes.
    let cold_err = String::from_utf8_lossy(&cold.stderr);
    assert!(cold_err.contains("incr.miss"), "{cold_err}");
    assert!(cold_err.contains("incr.store_bytes"), "{cold_err}");
}

#[test]
fn corrupted_cache_entry_degrades_to_recompute_with_warning() {
    let dir = temp_dir("corrupt");
    let sil = dir.join("d.sil");
    std::fs::write(
        &sil,
        "cell c() { box metal (0,0) (4,20); } place c() at (0,0);",
    )
    .unwrap();
    let cache = dir.join("cache");
    let run = || {
        silc()
            .args([
                "compile",
                sil.to_str().unwrap(),
                "--cache",
                cache.to_str().unwrap(),
            ])
            .output()
            .expect("runs")
    };
    let cold = run();
    assert!(cold.status.success(), "{cold:?}");
    for entry in std::fs::read_dir(&cache).expect("cache dir") {
        let path = entry.expect("entry").path();
        std::fs::write(&path, b"garbage").expect("corrupt entry");
    }
    let recovered = run();
    assert!(recovered.status.success(), "{recovered:?}");
    assert_eq!(recovered.stdout, cold.stdout);
    let stderr = String::from_utf8_lossy(&recovered.stderr);
    assert!(
        stderr.contains("silc-incr: warning: ignoring cache entry"),
        "{stderr}"
    );
}

/// `tests/fixtures/cache-v1` is the cache directory the last format-1
/// binary (the commit before PR 21) wrote for `d.sil`, raw cell ids in
/// its `Design` payload included. Format 2 must refuse every entry by
/// its version — never decode a v1 `Design` — recompute, print what a
/// cold run prints, and leave a cache the next run hits.
#[test]
fn format_1_cache_directory_is_a_warned_recompute() {
    let dir = temp_dir("format1");
    let cache = dir.join("cache");
    std::fs::create_dir_all(&cache).unwrap();
    let fixture = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/cache-v1");
    let mut entries = 0;
    for entry in std::fs::read_dir(&fixture).expect("fixture dir") {
        let path = entry.expect("entry").path();
        let to = if path.extension().is_some_and(|e| e == "bin") {
            entries += 1;
            cache.join(path.file_name().unwrap())
        } else {
            dir.join(path.file_name().unwrap())
        };
        std::fs::copy(&path, to).expect("copy fixture");
    }
    assert_eq!(entries, 4, "elaborate, flatten, drc, cif");
    let sil = dir.join("d.sil");
    let run = |extra: &[&str]| {
        let out = silc()
            .args(["compile", sil.to_str().unwrap()])
            .args(extra)
            .output()
            .expect("runs");
        assert!(out.status.success(), "{out:?}");
        (
            out.stdout,
            String::from_utf8_lossy(&out.stderr).into_owned(),
        )
    };
    let cached = ["--cache", cache.to_str().unwrap()];
    let (cold_out, cold_err) = run(&["--no-cache"]);
    let (out, err) = run(&cached);
    assert_eq!(out, cold_out);
    assert_eq!(
        err.matches("format version 1, expected 2").count(),
        4,
        "{err}"
    );
    assert!(err.ends_with(&cold_err), "{err}");
    // The entries were overwritten as format 2: warm, silent, identical.
    let (warm_out, warm_err) = run(&cached);
    assert_eq!((warm_out, warm_err), (cold_out, cold_err));
}

#[test]
fn batch_runs_jobs_concurrently_against_a_shared_cache() {
    let dir = temp_dir("batch");
    let mut manifest = String::new();
    // 16 jobs over 4 distinct designs: plenty of shared work.
    for i in 0..4 {
        let name = format!("d{i}.sil");
        std::fs::write(
            dir.join(&name),
            format!(
                "cell c() {{ box metal (0,0) (4,{h}); }} place c() at (0,0);",
                h = 20 + 4 * i
            ),
        )
        .unwrap();
        for _ in 0..4 {
            manifest.push_str(&format!("compile {name}\n"));
        }
    }
    let manifest_path = dir.join("jobs.txt");
    std::fs::write(&manifest_path, &manifest).unwrap();
    let out = silc()
        .args([
            "batch",
            manifest_path.to_str().unwrap(),
            "--jobs",
            "8",
            "--stats",
        ])
        .output()
        .expect("runs");
    assert!(out.status.success(), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    // Per-job table rows plus the summary line.
    assert_eq!(stderr.matches(" ok  ").count(), 16, "{stderr}");
    assert!(
        stderr.contains("batch: 16 job(s), 16 ok, 0 failed"),
        "{stderr}"
    );
    // The shared cache served repeated designs from memory.
    assert!(stderr.contains("incr.hit"), "{stderr}");
    assert!(stderr.contains("incr.mem_hit"), "{stderr}");
}

#[test]
fn batch_reports_failing_jobs_without_aborting_the_rest() {
    let dir = temp_dir("batch-fail");
    std::fs::write(
        dir.join("good.sil"),
        "cell c() { box metal (0,0) (4,20); } place c() at (0,0);",
    )
    .unwrap();
    let manifest_path = dir.join("jobs.txt");
    std::fs::write(&manifest_path, "compile good.sil\ncompile missing.sil\n").unwrap();
    let out = silc()
        .args(["batch", manifest_path.to_str().unwrap()])
        .output()
        .expect("runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("batch: 2 job(s), 1 ok, 1 failed"),
        "{stderr}"
    );
    assert!(stderr.contains("FAIL"), "{stderr}");
    assert!(stderr.contains("cannot read"), "{stderr}");
}

#[test]
fn shards_and_jobs_flags_are_validated() {
    let dir = temp_dir("shards-flags");
    std::fs::write(
        dir.join("d.sil"),
        "cell c() { box metal (0,0) (4,20); } place c() at (0,0);",
    )
    .unwrap();
    let manifest_path = dir.join("jobs.txt");
    std::fs::write(&manifest_path, "compile d.sil\n").unwrap();
    let manifest = manifest_path.to_str().unwrap();
    // Zero is not a worker count; name the flag.
    for args in [
        vec!["batch", manifest, "--jobs", "0"],
        vec!["batch", manifest, "--jobs", "x"],
        vec!["serve", "--jobs", "0"],
    ] {
        let out = silc().args(&args).output().expect("runs");
        assert!(!out.status.success(), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("--jobs"), "{args:?}: {stderr}");
        assert!(stderr.contains("positive number"), "{args:?}: {stderr}");
    }
    // Duplicates are rejected by name.
    let out = silc()
        .args(["batch", manifest, "--jobs", "2", "--jobs", "4"])
        .output()
        .expect("runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("duplicate"), "{stderr}");
    assert!(stderr.contains("--jobs"), "{stderr}");
    // The stripe count is not the user's to set any more.
    for args in [
        vec!["batch", manifest, "--shards", "4"],
        vec!["serve", "--shards", "4"],
    ] {
        let out = silc().args(&args).output().expect("runs");
        assert!(!out.status.success(), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let unknown = format!("unknown {} flag `--shards`", args[0]);
        assert!(stderr.contains(&unknown), "{args:?}: {stderr}");
    }
    // And a valid worker count works end to end.
    let out = silc()
        .args(["batch", manifest, "--jobs", "2"])
        .output()
        .expect("runs");
    assert!(out.status.success(), "{out:?}");
}

/// A PLA whose heuristic minimization `silc verify` re-checks, plus a
/// mutated copy (one output bit flipped) that must be refuted.
const VERIFY_PLA: &str = ".i 3\n.o 2\n.ilb a b c\n.ob x y\n11- 10\n1-1 10\n-11 01\n000 01\n";

#[test]
fn verify_passes_clean_pla_and_refutes_mutant() {
    let clean = write_temp("verify-clean.pla", VERIFY_PLA);
    let out = silc().arg("verify").arg(&clean).output().expect("runs");
    assert!(out.status.success(), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("equivalent"), "{stderr}");

    let mutant = write_temp("verify-mutant.pla", &VERIFY_PLA.replace("-11 01", "-11 11"));
    let out = silc()
        .args([
            "verify",
            mutant.to_str().unwrap(),
            "--against",
            clean.to_str().unwrap(),
        ])
        .output()
        .expect("runs");
    assert!(!out.status.success(), "mutant must be refuted: {out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("NOT equivalent"), "{stderr}");
    assert!(stderr.contains("output `x`"), "counterexample: {stderr}");
}

/// An output no row asserts is a constant false: a cover with no cubes,
/// which must still be as wide as the table.
#[test]
fn constant_false_output_compiles_and_verifies() {
    let pla = write_temp(
        "constant-false.pla",
        ".i 3\n.o 2\n.ilb a b c\n.ob x never\n11- 10\n1-1 10\n",
    );
    let out = silc().arg("pla").arg(&pla).output().expect("runs");
    assert!(out.status.success(), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("2 terms (4 AND + 2 OR devices)"),
        "{stderr}"
    );
    let out = silc().arg("verify").arg(&pla).output().expect("runs");
    assert!(out.status.success(), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("equivalent: 2 outputs"), "{stderr}");
}

/// A 200-input table — four words a bit-plane, literals either side of
/// every word boundary — through `silc pla` and `silc verify`, and a
/// mutant of it refuted.
#[test]
fn two_hundred_input_table_compiles_and_verifies() {
    let row = |lits: &[(usize, char)], outs: &str| {
        let mut cube = vec!['-'; 200];
        lits.iter().for_each(|&(i, v)| cube[i] = v);
        format!("{} {outs}\n", cube.into_iter().collect::<String>())
    };
    let table = |last: &str| {
        [
            ".i 200\n.o 2\n",
            &row(&[(0, '1'), (63, '0'), (64, '1')], "10"),
            &row(&[(0, '1'), (63, '0'), (64, '0')], "10"),
            &row(&[(65, '1'), (127, '1'), (128, '0')], "01"),
            &row(&[(65, '1'), (127, '1'), (128, '1'), (199, '0')], "01"),
            &row(&[(128, '1'), (199, '1')], "11"),
            &row(&[(5, '0'), (199, '1')], last),
        ]
        .concat()
    };
    let pla = write_temp("wide.pla", &table("1-"));
    let out = silc().arg("pla").arg(&pla).output().expect("runs");
    assert!(out.status.success(), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    // The first two rows merge across the word boundary.
    assert!(
        stderr.contains("4 terms (8 AND + 5 OR devices)"),
        "{stderr}"
    );
    assert!(stderr.contains("0 violation"), "{stderr}");
    let out = silc().arg("verify").arg(&pla).output().expect("runs");
    assert!(out.status.success(), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("equivalent: 2 outputs"), "{stderr}");

    let mutant = write_temp("wide-mutant.pla", &table("0-"));
    let out = silc()
        .args(["verify", mutant.to_str().unwrap(), "--against"])
        .arg(&pla)
        .output()
        .expect("runs");
    assert!(!out.status.success(), "mutant must be refuted: {out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("output `y0`"), "{stderr}");
}

#[test]
fn verify_flags_are_validated() {
    let pla = write_temp("verify-flags.pla", VERIFY_PLA);
    let path = pla.to_str().unwrap();
    // `--against` belongs to `verify` only.
    let out = silc()
        .args(["pla", path, "--against", path])
        .output()
        .expect("runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--against"), "{stderr}");
    assert!(stderr.contains("silc verify"), "{stderr}");
    // Duplicates are rejected by name.
    let out = silc()
        .args(["verify", path, "--against", path, "--against", path])
        .output()
        .expect("runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("duplicate"), "{stderr}");
    assert!(stderr.contains("--against"), "{stderr}");
    // `--against` only compares PLA tables.
    let isl = write_temp(
        "verify-flags.isl",
        "machine m { reg n[8]; state s { n := n + 1; if n == 5 { halt; } } }",
    );
    let out = silc()
        .args(["verify", isl.to_str().unwrap(), "--against", path])
        .output()
        .expect("runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--against"), "{stderr}");
}

#[test]
fn warm_reverify_is_a_pure_cache_hit() {
    let dir = temp_dir("warm-verify");
    let pla = dir.join("d.pla");
    std::fs::write(&pla, VERIFY_PLA).unwrap();
    let cache = dir.join("cache");
    let run = || {
        silc()
            .args([
                "verify",
                pla.to_str().unwrap(),
                "--cache",
                cache.to_str().unwrap(),
                "--stats",
            ])
            .output()
            .expect("runs")
    };
    let cold = run();
    assert!(cold.status.success(), "{cold:?}");
    let cold_err = String::from_utf8_lossy(&cold.stderr);
    assert!(cold_err.contains("incr.miss"), "{cold_err}");
    let warm = run();
    assert!(warm.status.success(), "{warm:?}");
    let stderr = String::from_utf8_lossy(&warm.stderr);
    assert!(stderr.contains("incr.hit"), "{stderr}");
    assert!(
        !stderr.contains("incr.miss"),
        "warm verify missed: {stderr}"
    );
    assert!(stderr.contains("equivalent"), "{stderr}");
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = silc().arg("bogus").output().expect("runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage"), "{stderr}");
}

#[test]
fn missing_file_reported() {
    let out = silc()
        .arg("compile")
        .arg("/nonexistent/never.sil")
        .output()
        .expect("runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cannot read"), "{stderr}");
}
