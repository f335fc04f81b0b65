//! Robustness: the ISL parser returns diagnostics, never panics.

use proptest::prelude::*;
use silc_rtl::parse;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]
    #[test]
    fn parser_never_panics_on_ascii(input in "[ -~\n]{0,200}") {
        let _ = parse(&input);
    }

    #[test]
    fn parser_never_panics_on_isl_like_soup(
        input in "(machine|reg|mem|state|if|else|goto|halt|:=|==|\\[|\\]|\\{|\\}|;|[a-z]{1,4}|[0-9]{1,4}| |\n){0,60}",
    ) {
        let _ = parse(&input);
    }
}

/// Every nesting shape, at every depth around the parser's bound, either
/// parses and simulates or is refused — on a 2 MiB stack, which is what
/// a `silc serve` worker has, so a debug `cargo test` shows the bound is
/// safe for validation and the interpreter as well as the parser.
#[test]
fn nesting_up_to_the_bound_fits_a_worker_stack() {
    let shapes = |n: usize| {
        [
            format!("r := {}1{};", "(".repeat(n), ")".repeat(n)),
            format!("r := {}r{};", "{".repeat(n), "}".repeat(n)),
            format!("r := {}1{};", "m[".repeat(n), "]".repeat(n)),
            format!("r := {}1;", "1+".repeat(n)),
            format!("r := {}1{};", "1+(".repeat(n), ")".repeat(n)),
            format!("r := {}1;", "~".repeat(n)),
            format!("r := r{};", "[7:0]".repeat(n)),
            format!("{}r := 1;{}", "if r == 0 { ".repeat(n), "}".repeat(n)),
            format!("if r == 1 {{ }}{}", " else if r == 1 { }".repeat(n)),
        ]
    };
    let sweep = move || {
        let (mut ran, mut refused) = (0, 0);
        for n in 1..100 {
            for body in shapes(n) {
                let source =
                    format!("machine m {{ reg r[8]; mem m[256][8]; state s {{ {body} halt; }} }}");
                match parse(&source) {
                    Ok(machine) => {
                        silc_rtl::Simulator::new(&machine)
                            .run(4)
                            .expect("simulates");
                        ran += 1;
                    }
                    Err(e) => {
                        assert!(e.to_string().contains("levels deep"), "{n}: {e}");
                        refused += 1;
                    }
                }
            }
        }
        (ran, refused)
    };
    let worker = std::thread::Builder::new().stack_size(2 << 20).spawn(sweep);
    let (ran, refused) = worker
        .expect("spawns")
        .join()
        .expect("no overflow, no panic");
    assert!(ran > 9 * 50 && refused > 9 * 20, "{ran} / {refused}");
}
