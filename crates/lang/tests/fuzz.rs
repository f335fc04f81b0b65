//! Robustness: the SIL compiler returns diagnostics, never panics.

use proptest::prelude::*;
use silc_lang::Compiler;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    #[test]
    fn compiler_never_panics_on_ascii(input in "[ -~\n]{0,200}") {
        let _ = Compiler::new().compile(&input);
    }

    #[test]
    fn compiler_never_panics_on_sil_like_soup(
        input in "(cell|fn|type|let|for|if|place|array|box|wire|port|at|step|count|metal|diff|poly|\\(|\\)|\\{|\\}|;|,|[a-z]{1,3}|[0-9]{1,3}| |\n){0,60}",
    ) {
        let _ = Compiler::new().compile(&input);
    }
}

/// Every nesting shape, at every depth around the parser's bound, either
/// compiles or is refused — on a 2 MiB stack, which is what a `silc
/// serve` worker has, so a debug `cargo test` shows the bound is safe
/// for the evaluator as well as the parser.
#[test]
fn nesting_up_to_the_bound_fits_a_worker_stack() {
    let shapes = |n: usize| {
        [
            format!("let x = {}1{};", "(".repeat(n), ")".repeat(n)),
            format!("let x = {}{};", "[".repeat(n), "]".repeat(n)),
            format!(
                "fn f(a) {{ return a; }} let x = {}1{};",
                "f(".repeat(n),
                ")".repeat(n)
            ),
            format!("let x = {}1;", "1+".repeat(n)),
            format!("let x = {}1{};", "1+(".repeat(n), ")".repeat(n)),
            format!("let x = {}1;", "-".repeat(n)),
            format!(
                "let a = {}7{}; let x = a{};",
                "[".repeat(n),
                "]".repeat(n),
                "[0]".repeat(n)
            ),
            format!("let c = true; {}{}", "if c { ".repeat(n), "}".repeat(n)),
            format!("let c = false; if c {{ }}{}", " else if c { }".repeat(n)),
        ]
    };
    let sweep = move || {
        let (mut compiled, mut refused) = (0, 0);
        for n in 1..100 {
            for source in shapes(n) {
                match Compiler::new().compile(&source) {
                    Ok(_) => compiled += 1,
                    Err(e) => {
                        assert!(e.to_string().contains("levels deep"), "{n}: {e}");
                        refused += 1;
                    }
                }
            }
        }
        (compiled, refused)
    };
    let worker = std::thread::Builder::new().stack_size(2 << 20).spawn(sweep);
    let (compiled, refused) = worker
        .expect("spawns")
        .join()
        .expect("no overflow, no panic");
    assert!(
        compiled > 9 * 50 && refused > 9 * 20,
        "{compiled} / {refused}"
    );
}

/// `n` cells, each placing the one before it.
fn chain(n: usize) -> String {
    let mut source = String::from("cell c0() { box metal (0,0) (4,4); }\n");
    for i in 1..n {
        source += &format!("cell c{i}() {{ place c{}() at (0,0); }}\n", i - 1);
    }
    source + &format!("place c{}() at (0,0);\n", n - 1)
}

/// A recursive `fn` whose body nests 28 expression levels took 59 frames
/// a call and overflowed even an 8 MiB stack inside the old 256-call
/// bound, and a chain of 1 500 cells each placing the next recursed with
/// no bound at all. Both are budgeted by evaluator frames, so on a
/// worker's 2 MiB they end in the ordinary line-numbered error, whatever
/// the body nests: expressions, blocks, or nothing at all.
#[test]
fn runaway_recursion_is_a_line_numbered_error_on_a_worker_stack() {
    let deep = format!("{}f(n + 1){}", "-(0 + ".repeat(28), ")".repeat(28));
    let blocks = format!(
        "{}return f(n + 1);{}",
        "if n >= 0 { ".repeat(28),
        " }".repeat(28)
    );
    let function = "function recursion too deep";
    let sources = [
        (
            format!("fn f(n) {{\n if n > 250 {{ return 0; }}\n return {deep};\n}}\nlet x = f(0);"),
            function,
        ),
        (
            format!("fn f(n) {{\n {blocks}\n return 0;\n}}\nlet x = f(0);"),
            function,
        ),
        (
            "fn f(n) {\n return f(n + 1);\n}\nlet x = f(0);".to_string(),
            function,
        ),
        (chain(20_000), "cell nesting too deep"),
    ];
    let worker = std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(move || sources.map(|(source, text)| (Compiler::new().compile(&source), text)));
    for (result, text) in worker.expect("spawns").join().expect("no overflow") {
        let message = result.expect_err("unbounded recursion").to_string();
        assert!(message.contains("line "), "{message}");
        assert!(message.contains(text), "{message}");
    }
}

/// The deepest chain of cells the budget admits compiles on a worker's
/// 2 MiB stack, and so do the stages that walk the hierarchy after it.
#[test]
fn the_deepest_admitted_cell_nesting_fits_a_worker_stack() {
    let deepest = || {
        let (mut admitted, mut refused) = (1, 2_000);
        while refused - admitted > 1 {
            let n = (admitted + refused) / 2;
            match Compiler::new().compile(&chain(n)) {
                Ok(_) => admitted = n,
                Err(_) => refused = n,
            }
        }
        let design = Compiler::new().compile(&chain(admitted)).expect("admitted");
        let flat = silc_layout::flatten(&design.library, design.top).expect("flattens");
        let rules = silc_drc::RuleSet::mead_conway_nmos();
        let report = silc_drc::check(&design.library, design.top, &rules).expect("checks");
        let extracted = silc_extract::extract(&design.library, design.top).expect("extracts");
        (
            admitted,
            flat.len(),
            report.is_clean(),
            extracted.transistor_count(),
        )
    };
    let worker = std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(deepest);
    let (admitted, rects, clean, transistors) =
        worker.expect("spawns").join().expect("no overflow");
    // A debug build's frames are ten times the size and its budget a tenth.
    assert!(
        admitted >= if cfg!(debug_assertions) { 16 } else { 200 },
        "{admitted}"
    );
    assert_eq!((rects, clean, transistors), (1, true, 0));
}
