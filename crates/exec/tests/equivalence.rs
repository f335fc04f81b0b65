//! Compiled-vs-interpreter trace equivalence.
//!
//! The interpreter ([`silc_rtl::Simulator`]) is the semantic oracle; the
//! compiled engine ([`silc_exec::CompiledSim`]) must be byte-identical to
//! it on every observable: run reports, registers, outputs, memory words,
//! state names, cycle counts, halt flags — and errors. A seeded generator
//! builds random-but-valid ISL machines, then both engines are driven with
//! identical stimulus (run segments interleaved with `set_input` /
//! `set_reg` / `load_mem` pokes), including machines that halt and
//! machines whose register-addressed memory operations trip
//! `AddressOutOfRange` at runtime.

use proptest::prelude::*;
use proptest::strategy::TestRng;
use silc_exec::CompiledSim;
use silc_rtl::{parse, Simulator};

/// The declarations of a generated machine, kept so the driver can poke
/// ports and compare every architectural element afterwards.
struct Spec {
    regs: Vec<(String, u32)>,
    inputs: Vec<(String, u32)>,
    outputs: Vec<(String, u32)>,
    mems: Vec<(String, u64)>,
    states: Vec<String>,
}

/// Deterministic machine/stimulus generator over a splitmix64 stream.
struct Gen {
    rng: TestRng,
}

const WIDTHS: [u32; 11] = [1, 2, 3, 4, 7, 8, 12, 16, 32, 63, 64];
const BIN_OPS: [&str; 15] = [
    "+", "-", "&", "|", "^", "<<", ">>", "==", "!=", "<", "<=", ">", ">=", "&&", "||",
];

impl Gen {
    fn below(&mut self, n: u64) -> u64 {
        self.rng.below(n)
    }

    fn chance(&mut self, num: u64, den: u64) -> bool {
        self.below(den) < num
    }

    fn width(&mut self) -> u32 {
        WIDTHS[self.below(WIDTHS.len() as u64) as usize]
    }

    fn reg<'a>(&mut self, s: &'a Spec) -> &'a (String, u32) {
        &s.regs[self.below(s.regs.len() as u64) as usize]
    }

    /// A literal or signal read.
    fn leaf(&mut self, s: &Spec) -> String {
        match self.below(4) {
            0 => match self.below(5) {
                0 | 1 => format!("{}", self.below(10)),
                2 | 3 => format!("{}", self.below(1 << 16)),
                // Sized, from the empty literal to wider than a value.
                _ => {
                    let w = [0, 1, 5, 12, 64, 100][self.below(6) as usize];
                    format!("{w}'d{}", self.below(1 << 13))
                }
            },
            1 if !s.inputs.is_empty() => s.inputs[self.below(s.inputs.len() as u64) as usize]
                .0
                .clone(),
            _ => self.reg(s).0.clone(),
        }
    }

    /// A memory address expression. Never a bare literal (the parser
    /// reads `m[3]` as a bit slice), and biased toward small values so
    /// most accesses land in range — but raw register forms stay in the
    /// mix so `AddressOutOfRange` genuinely fires at runtime.
    fn addr(&mut self, s: &Spec) -> String {
        match self.below(4) {
            0 => self.reg(s).0.clone(),
            1 => {
                let r = self.reg(s).0.clone();
                format!("({r} + {})", self.below(4))
            }
            2 => {
                let (name, w) = self.reg(s).clone();
                format!("{name}[{}:0]", 2.min(w - 1))
            }
            _ => format!("({})", self.below(8)),
        }
    }

    /// Bounds of an expression slice: mostly a narrow field near bit 0,
    /// now and then one that reaches or starts past bit 63, where both
    /// engines read zeros.
    fn slice_bounds(&mut self) -> (u32, u32) {
        if self.chance(1, 4) {
            let lo = self.below(72) as u32;
            (lo + self.below(70) as u32, lo)
        } else {
            let lo = self.below(8) as u32;
            (lo + self.below(12) as u32, lo)
        }
    }

    /// A concat part: a slice (so parts are up to 64 bits wide and the
    /// total goes past 64, where the leading parts fall off the top) or,
    /// now and then, a whole register. The base is OR-ed with zero so the
    /// parser cannot collapse it to a bare ident (whose slice bounds
    /// validation would then reject).
    fn concat_part(&mut self, s: &Spec, depth: u32) -> String {
        if self.chance(1, 6) {
            return self.reg(s).0.clone();
        }
        let (hi, lo) = self.slice_bounds();
        let base = self.expr(s, depth);
        format!("({base} | 0)[{hi}:{lo}]")
    }

    fn expr(&mut self, s: &Spec, depth: u32) -> String {
        if depth == 0 || self.chance(1, 4) {
            return self.leaf(s);
        }
        match self.below(10) {
            0 => {
                let op = ["~", "-", "!"][self.below(3) as usize];
                format!("({op}{})", self.expr(s, depth - 1))
            }
            1..=4 => {
                let op = BIN_OPS[self.below(BIN_OPS.len() as u64) as usize];
                let a = self.expr(s, depth - 1);
                let b = self.expr(s, depth - 1);
                format!("({a} {op} {b})")
            }
            5 => {
                let (name, w) = self.reg(s).clone();
                let hi = self.below(u64::from(w)) as u32;
                let lo = self.below(u64::from(hi) + 1) as u32;
                format!("{name}[{hi}:{lo}]")
            }
            6 => {
                let (hi, lo) = self.slice_bounds();
                format!("({} | 0)[{hi}:{lo}]", self.expr(s, depth - 1))
            }
            7 => {
                let mut parts = vec![self.concat_part(s, depth - 1)];
                for _ in 0..=self.below(2) {
                    parts.push(self.concat_part(s, depth - 1));
                }
                format!("{{{}}}", parts.join(", "))
            }
            8 if !s.mems.is_empty() => {
                let m = s.mems[self.below(s.mems.len() as u64) as usize].0.clone();
                format!("{m}[{}]", self.addr(s))
            }
            _ => {
                let (name, w) = self.reg(s).clone();
                format!("{name}[{}]", self.below(u64::from(w)))
            }
        }
    }

    fn assign(&mut self, s: &Spec, out: &mut String, ind: &str) {
        let value = self.expr(s, 3);
        match self.below(8) {
            4 => {
                let (name, w) = self.reg(s).clone();
                let hi = self.below(u64::from(w)) as u32;
                let lo = self.below(u64::from(hi) + 1) as u32;
                out.push_str(&format!("{ind}{name}[{hi}:{lo}] := {value};\n"));
            }
            5 if !s.outputs.is_empty() => {
                let o = s.outputs[self.below(s.outputs.len() as u64) as usize]
                    .0
                    .clone();
                out.push_str(&format!("{ind}{o} := {value};\n"));
            }
            6 | 7 if !s.mems.is_empty() => {
                let m = s.mems[self.below(s.mems.len() as u64) as usize].0.clone();
                let addr = self.addr(s);
                out.push_str(&format!("{ind}{m}[{addr}] := {value};\n"));
            }
            _ => {
                let r = self.reg(s).0.clone();
                out.push_str(&format!("{ind}{r} := {value};\n"));
            }
        }
    }

    fn stmt(&mut self, s: &Spec, depth: u32, out: &mut String, ind: &str) {
        match self.below(12) {
            6..=8 if depth > 0 => {
                let cond = self.expr(s, depth);
                out.push_str(&format!("{ind}if {cond} {{\n"));
                let deeper = format!("{ind}    ");
                for _ in 0..=self.below(2) {
                    self.stmt(s, depth - 1, out, &deeper);
                }
                if self.chance(1, 2) {
                    out.push_str(&format!("{ind}}} else {{\n"));
                    for _ in 0..=self.below(2) {
                        self.stmt(s, depth - 1, out, &deeper);
                    }
                }
                out.push_str(&format!("{ind}}}\n"));
            }
            9 => {
                let st = s.states[self.below(s.states.len() as u64) as usize].clone();
                out.push_str(&format!("{ind}goto {st};\n"));
            }
            10 => out.push_str(&format!("{ind}halt;\n")),
            _ => self.assign(s, out, ind),
        }
    }

    /// Generates a valid-by-construction ISL machine.
    fn machine(&mut self) -> (String, Spec) {
        let mut spec = Spec {
            regs: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            mems: Vec::new(),
            states: Vec::new(),
        };
        let mut src = String::from("machine fuzz {\n");
        for i in 0..1 + self.below(4) {
            let w = self.width();
            let init = self.below(1 << w.min(8));
            let name = format!("r{i}");
            src.push_str(&format!("    reg {name}[{w}] init {init};\n"));
            spec.regs.push((name, w));
        }
        for i in 0..self.below(3) {
            let w = self.width();
            let name = format!("i{i}");
            src.push_str(&format!("    port input {name}[{w}];\n"));
            spec.inputs.push((name, w));
        }
        for i in 0..self.below(3) {
            let w = self.width();
            let name = format!("o{i}");
            src.push_str(&format!("    port output {name}[{w}];\n"));
            spec.outputs.push((name, w));
        }
        for i in 0..[0, 1, 1, 2][self.below(4) as usize] {
            let words = 1 + self.below(8);
            let w = self.width();
            let name = format!("m{i}");
            src.push_str(&format!("    mem {name}[{words}][{w}];\n"));
            spec.mems.push((name, words));
        }
        for i in 0..1 + self.below(3) {
            spec.states.push(format!("s{i}"));
        }
        for i in 0..spec.states.len() {
            src.push_str(&format!("    state s{i} {{\n"));
            for _ in 0..1 + self.below(4) {
                self.stmt(&spec, 2, &mut src, "        ");
            }
            src.push_str("    }\n");
        }
        src.push_str("}\n");
        (src, spec)
    }
}

/// Compares every architectural element the two engines expose.
fn assert_same(
    spec: &Spec,
    src: &str,
    interp: &Simulator,
    comp: &CompiledSim,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(interp.cycle(), comp.cycle(), "cycle diverged\n{}", src);
    prop_assert_eq!(
        interp.is_halted(),
        comp.is_halted(),
        "halt diverged\n{}",
        src
    );
    prop_assert_eq!(
        interp.state_name(),
        comp.state_name(),
        "state diverged\n{}",
        src
    );
    for (name, _) in &spec.regs {
        prop_assert_eq!(
            interp.reg(name),
            comp.reg(name),
            "reg {} diverged\n{}",
            name,
            src
        );
    }
    for (name, _) in &spec.outputs {
        prop_assert_eq!(
            interp.output(name),
            comp.output(name),
            "output {} diverged\n{}",
            name,
            src
        );
    }
    for (name, words) in &spec.mems {
        for addr in 0..*words {
            prop_assert_eq!(
                interp.mem_word(name, addr),
                comp.mem_word(name, addr),
                "mem {}[{}] diverged\n{}",
                name,
                addr,
                src
            );
        }
    }
    Ok(())
}

/// One full trace-equivalence scenario from a seed: generate a machine,
/// then alternate pokes and run segments on both engines, comparing
/// results (including `Err` cases) and full state after every move.
fn check(seed: u64) -> Result<(), TestCaseError> {
    let mut g = Gen {
        rng: TestRng::new(seed),
    };
    let (src, spec) = g.machine();
    let machine = match parse(&src) {
        Ok(m) => m,
        Err(e) => {
            return Err(TestCaseError::fail(format!(
                "generator produced invalid ISL: {e}\n{src}"
            )))
        }
    };
    let mut interp = Simulator::new(&machine);
    let mut comp = CompiledSim::from_machine(&machine);
    assert_same(&spec, &src, &interp, &comp)?;

    for _segment in 0..4 {
        // Pokes: identical on both sides, results compared (unknown names
        // and oversized images must fail identically too).
        for (name, w) in &spec.inputs.clone() {
            if g.chance(1, 2) {
                let v = g.below(1u64 << (w + 2).min(63));
                prop_assert_eq!(interp.set_input(name, v), comp.set_input(name, v));
            }
        }
        if g.chance(1, 4) && !spec.regs.is_empty() {
            let (name, w) = g.reg(&spec).clone();
            let v = g.below(1u64 << (w + 1).min(63));
            prop_assert_eq!(interp.set_reg(&name, v), comp.set_reg(&name, v));
        }
        if g.chance(1, 4) && !spec.mems.is_empty() {
            let (name, words) = spec.mems[g.below(spec.mems.len() as u64) as usize].clone();
            let data: Vec<u64> = (0..g.below(words + 3)).map(|_| g.below(1 << 16)).collect();
            prop_assert_eq!(interp.load_mem(&name, &data), comp.load_mem(&name, &data));
        }
        if g.chance(1, 8) {
            prop_assert_eq!(interp.set_input("nope", 1), comp.set_input("nope", 1));
        }

        // A run segment, then a few single steps.
        let budget = g.below(200);
        let ra = interp.run(budget);
        let rb = comp.run(budget);
        prop_assert_eq!(&ra, &rb, "run({}) diverged\n{}", budget, src);
        assert_same(&spec, &src, &interp, &comp)?;
        for _ in 0..g.below(4) {
            let sa = interp.step();
            let sb = comp.step();
            prop_assert_eq!(&sa, &sb, "step diverged\n{}", src);
        }
        assert_same(&spec, &src, &interp, &comp)?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The headline oracle test: random machines, random stimulus,
    /// mid-run pokes — every observable byte-identical between engines.
    #[test]
    fn compiled_engine_matches_interpreter(seed in 0u64..u64::MAX) {
        check(seed)?;
    }
}

/// A machine that settles must fast-forward under the compiled engine and
/// still agree with the interpreter grinding through every cycle.
#[test]
fn quiescent_machine_agrees_over_long_budgets() {
    let src = "
        machine settle {
            reg a[8] init 3;
            reg b[8];
            state s {
                b := a + 1;
                a := a;
            }
        }";
    let machine = parse(src).unwrap();
    let mut interp = Simulator::new(&machine);
    let mut comp = CompiledSim::from_machine(&machine);
    let ra = interp.run(30_000).unwrap();
    let rb = comp.run(30_000).unwrap();
    assert_eq!(ra, rb);
    assert_eq!(interp.reg("b"), comp.reg("b"));
    assert_eq!(interp.cycle(), comp.cycle());
    assert!(
        comp.fast_forwarded() > 0,
        "compiled engine should skip quiescent cycles"
    );
}

/// Halt semantics: the halting cycle still commits its transfers, and
/// both engines agree on the exact halt cycle.
#[test]
fn halt_cycle_commits_identically() {
    let src = "
        machine gcd {
            reg a[8] init 48;
            reg b[8] init 18;
            state step {
                if a == b { halt; }
                else if a > b { a := a - b; }
                else { b := b - a; }
            }
        }";
    let machine = parse(src).unwrap();
    let mut interp = Simulator::new(&machine);
    let mut comp = CompiledSim::from_machine(&machine);
    let ra = interp.run(1000).unwrap();
    let rb = comp.run(1000).unwrap();
    assert_eq!(ra, rb);
    assert!(rb.halted);
    assert_eq!(comp.reg("a"), Some(6));
    assert_eq!(interp.cycle(), comp.cycle());
}

/// Runtime address errors surface identically: same error value, same
/// cycle, and the failing cycle commits nothing on either engine.
#[test]
fn address_errors_match_exactly() {
    let src = "
        machine oob {
            reg a[8] init 0;
            mem m[4][8];
            state s {
                m[(a + 0)] := 7;
                a := a + 1;
            }
        }";
    let machine = parse(src).unwrap();
    let mut interp = Simulator::new(&machine);
    let mut comp = CompiledSim::from_machine(&machine);
    let ra = interp.run(100);
    let rb = comp.run(100);
    assert_eq!(ra, rb);
    assert!(ra.is_err(), "walking store must fall off the end: {ra:?}");
    assert_eq!(interp.cycle(), comp.cycle());
    assert_eq!(interp.reg("a"), comp.reg("a"));
    for addr in 0..4 {
        assert_eq!(interp.mem_word("m", addr), comp.mem_word("m", addr));
    }
}
