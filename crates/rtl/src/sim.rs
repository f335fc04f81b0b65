use crate::ast::*;
use crate::RtlError;
use std::collections::HashMap;

fn mask(width: u32) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

/// Result of [`Simulator::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunReport {
    /// Cycles actually executed.
    pub cycles: u64,
    /// True when the machine executed `halt`.
    pub halted: bool,
}

/// A cycle-accurate interpreter for ISL machines.
///
/// Each [`step`](Simulator::step) runs the current state's body: all right
/// hand sides observe pre-cycle storage, all writes commit together at the
/// end of the cycle — the register-transfer semantics an ISP description
/// promises and the synthesized hardware implements.
///
/// # Example
///
/// ```
/// use silc_rtl::{parse, Simulator};
/// let m = parse("
///     machine swap {
///         reg a[8] init 1;
///         reg b[8] init 2;
///         state s { a := b; b := a; halt; }
///     }
/// ")?;
/// let mut sim = Simulator::new(&m);
/// sim.run(10)?;
/// // Swap happened atomically: both reads saw pre-cycle values.
/// assert_eq!(sim.reg("a"), Some(2));
/// assert_eq!(sim.reg("b"), Some(1));
/// # Ok::<(), silc_rtl::RtlError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Simulator {
    machine: Machine,
    regs: HashMap<String, u64>,
    mems: HashMap<String, Vec<u64>>,
    inputs: HashMap<String, u64>,
    outputs: HashMap<String, u64>,
    state: usize,
    cycle: u64,
    halted: bool,
}

impl Simulator {
    /// Creates a simulator in the machine's reset configuration: registers
    /// at their `init` values, memories zeroed, first state current.
    pub fn new(machine: &Machine) -> Simulator {
        let regs = machine
            .regs
            .iter()
            .map(|r| (r.name.clone(), r.init & mask(r.width)))
            .collect();
        let mems = machine
            .mems
            .iter()
            .map(|m| (m.name.clone(), vec![0; m.words as usize]))
            .collect();
        let inputs = machine.inputs.iter().map(|p| (p.name.clone(), 0)).collect();
        let outputs = machine
            .outputs
            .iter()
            .map(|p| (p.name.clone(), 0))
            .collect();
        Simulator {
            machine: machine.clone(),
            regs,
            mems,
            inputs,
            outputs,
            state: 0,
            cycle: 0,
            halted: false,
        }
    }

    /// Current cycle count.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// True after `halt` has executed.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Name of the current control state.
    pub fn state_name(&self) -> &str {
        &self.machine.states[self.state].name
    }

    /// Reads a register.
    pub fn reg(&self, name: &str) -> Option<u64> {
        self.regs.get(name).copied()
    }

    /// Reads an output port.
    pub fn output(&self, name: &str) -> Option<u64> {
        self.outputs.get(name).copied()
    }

    /// Drives an input port (value is masked to the port width).
    ///
    /// # Errors
    ///
    /// [`RtlError::Undeclared`] naming an unknown port.
    pub fn set_input(&mut self, name: &str, value: u64) -> Result<(), RtlError> {
        let decl = self
            .machine
            .inputs
            .iter()
            .find(|p| p.name == name)
            .ok_or_else(|| RtlError::Undeclared {
                name: name.to_string(),
            })?;
        self.inputs
            .insert(name.to_string(), value & mask(decl.width));
        Ok(())
    }

    /// Overwrites a register (for test setup; value is masked).
    ///
    /// # Errors
    ///
    /// [`RtlError::Undeclared`] naming an unknown register.
    pub fn set_reg(&mut self, name: &str, value: u64) -> Result<(), RtlError> {
        let decl = self
            .machine
            .regs
            .iter()
            .find(|r| r.name == name)
            .ok_or_else(|| RtlError::Undeclared {
                name: name.to_string(),
            })?;
        self.regs.insert(name.to_string(), value & mask(decl.width));
        Ok(())
    }

    /// Reads a memory word.
    pub fn mem_word(&self, name: &str, addr: u64) -> Option<u64> {
        self.mems.get(name)?.get(addr as usize).copied()
    }

    /// Loads `data` into a memory starting at word 0 (for program
    /// loading). Words are masked to the memory width.
    ///
    /// # Errors
    ///
    /// [`RtlError::Undeclared`] for an unknown memory;
    /// [`RtlError::AddressOutOfRange`] when `data` overruns it (nothing
    /// is written).
    pub fn load_mem(&mut self, name: &str, data: &[u64]) -> Result<(), RtlError> {
        let decl = self
            .machine
            .mems
            .iter()
            .find(|m| m.name == name)
            .ok_or_else(|| RtlError::Undeclared {
                name: name.to_string(),
            })?;
        let w = mask(decl.width);
        let storage = self.mems.get_mut(name).expect("declared memories exist");
        if data.len() > storage.len() {
            return Err(RtlError::AddressOutOfRange {
                name: name.to_string(),
                addr: data.len() as u64 - 1,
                words: decl.words,
            });
        }
        for (slot, &v) in storage.iter_mut().zip(data) {
            *slot = v & w;
        }
        Ok(())
    }

    /// Executes one cycle.
    ///
    /// # Errors
    ///
    /// Returns [`RtlError::AddressOutOfRange`] on a bad memory access.
    /// A halted machine steps as a no-op.
    pub fn step(&mut self) -> Result<(), RtlError> {
        if self.halted {
            return Ok(());
        }
        let body = self.machine.states[self.state].body.clone();
        let mut effects = Effects::default();
        self.exec_block(&body, &mut effects)?;

        // Commit.
        for (name, value) in effects.reg_writes {
            self.regs.insert(name, value);
        }
        for (name, value) in effects.out_writes {
            self.outputs.insert(name, value);
        }
        for (name, addr, value) in effects.mem_writes {
            let storage = self.mems.get_mut(&name).expect("validated");
            storage[addr as usize] = value;
        }
        if let Some(next) = effects.next_state {
            self.state = next;
        }
        if effects.halt {
            self.halted = true;
        }
        self.cycle += 1;
        Ok(())
    }

    /// Evaluates an arbitrary expression against the *current* (pre-cycle)
    /// storage, returning its value. The expression must only reference
    /// names declared in this machine.
    ///
    /// Used by the control-store generator's cross-checks: a condition
    /// expression can be probed exactly as the hardware would sample it.
    ///
    /// # Errors
    ///
    /// Returns [`RtlError::AddressOutOfRange`] on a bad memory access.
    ///
    /// # Panics
    ///
    /// Panics on names not declared in the machine (parse-validated
    /// expressions never do this).
    pub fn eval_expr(&self, e: &Expr) -> Result<u64, RtlError> {
        self.eval(e).map(|(v, _)| v)
    }

    /// Runs until `halt` or until `max_cycles` have executed.
    ///
    /// # Errors
    ///
    /// Propagates [`Simulator::step`] errors; running out of budget is
    /// *not* an error (the report's `halted` field says which happened).
    pub fn run(&mut self, max_cycles: u64) -> Result<RunReport, RtlError> {
        let mut cycles = 0;
        while !self.halted && cycles < max_cycles {
            self.step()?;
            cycles += 1;
        }
        Ok(RunReport {
            cycles,
            halted: self.halted,
        })
    }

    fn exec_block(&self, body: &[Stmt], effects: &mut Effects) -> Result<(), RtlError> {
        for stmt in body {
            match stmt {
                Stmt::Assign { target, value } => {
                    let (v, _) = self.eval(value)?;
                    self.apply_assign(target, v, effects)?;
                }
                Stmt::If {
                    cond,
                    then_body,
                    else_body,
                } => {
                    let (c, _) = self.eval(cond)?;
                    if c != 0 {
                        self.exec_block(then_body, effects)?;
                    } else {
                        self.exec_block(else_body, effects)?;
                    }
                }
                Stmt::Goto(name) => {
                    effects.next_state = Some(self.machine.state_index(name).expect("validated"));
                }
                Stmt::Halt => effects.halt = true,
            }
        }
        Ok(())
    }

    fn apply_assign(
        &self,
        target: &Target,
        value: u64,
        effects: &mut Effects,
    ) -> Result<(), RtlError> {
        match target {
            Target::Signal { name, slice } => {
                let (is_output, width) =
                    if let Some(r) = self.machine.regs.iter().find(|r| r.name == *name) {
                        (false, r.width)
                    } else {
                        let p = self
                            .machine
                            .outputs
                            .iter()
                            .find(|p| p.name == *name)
                            .expect("validated");
                        (true, p.width)
                    };
                let book = if is_output {
                    &mut effects.out_writes
                } else {
                    &mut effects.reg_writes
                };
                let current = book
                    .iter()
                    .find(|(n, _)| n == name)
                    .map(|(_, v)| *v)
                    .unwrap_or_else(|| {
                        if is_output {
                            self.outputs[name]
                        } else {
                            self.regs[name]
                        }
                    });
                let newval = match slice {
                    None => value & mask(width),
                    Some((hi, lo)) => {
                        let w = hi - lo + 1;
                        let field = (value & mask(w)) << lo;
                        let keep = !(mask(w) << lo);
                        (current & keep) | field
                    }
                };
                book.retain(|(n, _)| n != name);
                book.push((name.clone(), newval));
            }
            Target::MemWord { name, addr } => {
                let (a, _) = self.eval(addr)?;
                let decl = self.machine.mem(name).expect("validated");
                if a >= decl.words {
                    return Err(RtlError::AddressOutOfRange {
                        name: name.clone(),
                        addr: a,
                        words: decl.words,
                    });
                }
                let v = value & mask(decl.width);
                effects
                    .mem_writes
                    .retain(|(n, ad, _)| !(n == name && *ad == a));
                effects.mem_writes.push((name.clone(), a, v));
            }
        }
        Ok(())
    }

    /// Evaluates an expression against pre-cycle storage, returning
    /// `(value, width)`.
    fn eval(&self, e: &Expr) -> Result<(u64, u32), RtlError> {
        match e {
            Expr::Const { value, width } => {
                Ok((value & mask(width.unwrap_or(64)), width.unwrap_or(64)))
            }
            Expr::Ident(name) => {
                if let Some(r) = self.machine.regs.iter().find(|r| r.name == *name) {
                    Ok((self.regs[name], r.width))
                } else if let Some(p) = self.machine.inputs.iter().find(|p| p.name == *name) {
                    Ok((self.inputs[name], p.width))
                } else {
                    let p = self
                        .machine
                        .outputs
                        .iter()
                        .find(|p| p.name == *name)
                        .expect("validated");
                    Ok((self.outputs[name], p.width))
                }
            }
            Expr::Slice { base, hi, lo } => {
                let (v, _) = self.eval(base)?;
                let w = (hi - lo).saturating_add(1);
                // Values are 64 bits wide: bits above 63 do not exist.
                Ok((v.checked_shr(*lo).unwrap_or(0) & mask(w), w))
            }
            Expr::MemRead { name, addr } => {
                let (a, _) = self.eval(addr)?;
                let decl = self.machine.mem(name).expect("validated");
                if a >= decl.words {
                    return Err(RtlError::AddressOutOfRange {
                        name: name.clone(),
                        addr: a,
                        words: decl.words,
                    });
                }
                Ok((self.mems[name][a as usize], decl.width))
            }
            Expr::Unary { op, expr } => {
                let (v, w) = self.eval(expr)?;
                let out = match op {
                    UnaryOp::Not => (!v) & mask(w),
                    UnaryOp::Neg => v.wrapping_neg() & mask(w),
                    UnaryOp::LogicalNot => u64::from(v == 0),
                };
                let ow = if *op == UnaryOp::LogicalNot { 1 } else { w };
                Ok((out, ow))
            }
            Expr::Binary { op, lhs, rhs } => {
                let (a, wa) = self.eval(lhs)?;
                let (b, wb) = self.eval(rhs)?;
                let w = wa.max(wb);
                let (v, ow) = match op {
                    BinaryOp::Add => (a.wrapping_add(b) & mask(w), w),
                    BinaryOp::Sub => (a.wrapping_sub(b) & mask(w), w),
                    BinaryOp::And => (a & b, w),
                    BinaryOp::Or => (a | b, w),
                    BinaryOp::Xor => (a ^ b, w),
                    BinaryOp::Shl => {
                        if b >= 64 {
                            (0, wa)
                        } else {
                            ((a << b) & mask(wa), wa)
                        }
                    }
                    BinaryOp::Shr => {
                        if b >= 64 {
                            (0, wa)
                        } else {
                            (a >> b, wa)
                        }
                    }
                    BinaryOp::Eq => (u64::from(a == b), 1),
                    BinaryOp::Ne => (u64::from(a != b), 1),
                    BinaryOp::Lt => (u64::from(a < b), 1),
                    BinaryOp::Le => (u64::from(a <= b), 1),
                    BinaryOp::Gt => (u64::from(a > b), 1),
                    BinaryOp::Ge => (u64::from(a >= b), 1),
                    BinaryOp::LogicalAnd => (u64::from(a != 0 && b != 0), 1),
                    BinaryOp::LogicalOr => (u64::from(a != 0 || b != 0), 1),
                };
                Ok((v, ow))
            }
            Expr::Concat(parts) => {
                let mut v: u64 = 0;
                let mut w: u32 = 0;
                for p in parts {
                    let (pv, pw) = self.eval(p)?;
                    // A part of 64 bits or more shifts the rest out.
                    v = v.checked_shl(pw).unwrap_or(0) | (pv & mask(pw));
                    w = w.saturating_add(pw);
                }
                Ok((v, w.min(64)))
            }
        }
    }
}

#[derive(Default)]
struct Effects {
    reg_writes: Vec<(String, u64)>,
    out_writes: Vec<(String, u64)>,
    mem_writes: Vec<(String, u64, u64)>,
    next_state: Option<usize>,
    halt: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    fn sim(src: &str) -> Simulator {
        Simulator::new(&parse(src).unwrap())
    }

    #[test]
    fn counter_counts_and_halts() {
        let mut s = sim("machine c { reg n[8]; state r { n := n + 1; if n == 5 { halt; } } }");
        let report = s.run(100).unwrap();
        assert!(report.halted);
        assert_eq!(report.cycles, 6);
        assert_eq!(s.reg("n"), Some(6));
    }

    #[test]
    fn transfers_are_parallel() {
        let mut s = sim(
            "machine swap { reg a[8] init 3; reg b[8] init 9; state s { a := b; b := a; halt; } }",
        );
        s.run(10).unwrap();
        assert_eq!(s.reg("a"), Some(9));
        assert_eq!(s.reg("b"), Some(3));
    }

    #[test]
    fn arithmetic_wraps_to_width() {
        let mut s = sim("machine w { reg a[4] init 15; state s { a := a + 1; halt; } }");
        s.run(10).unwrap();
        assert_eq!(s.reg("a"), Some(0));
    }

    #[test]
    fn goto_changes_state() {
        let mut s = sim("machine g { reg a[4];
                state one { a := 1; goto two; }
                state two { a := 2; halt; } }");
        assert_eq!(s.state_name(), "one");
        s.step().unwrap();
        assert_eq!(s.state_name(), "two");
        assert_eq!(s.reg("a"), Some(1));
        s.step().unwrap();
        assert!(s.is_halted());
        assert_eq!(s.reg("a"), Some(2));
    }

    #[test]
    fn staying_in_state_by_default() {
        let mut s = sim("machine stay { reg a[8]; state s { a := a + 1; } }");
        let report = s.run(7).unwrap();
        assert!(!report.halted);
        assert_eq!(report.cycles, 7);
        assert_eq!(s.reg("a"), Some(7));
    }

    #[test]
    fn memory_read_write() {
        let mut s = sim("machine m { reg a[4]; reg d[8]; mem ram[16][8];
                state w { ram[a] := 42; goto r; }
                state r { d := ram[a]; halt; } }");
        s.run(10).unwrap();
        assert_eq!(s.reg("d"), Some(42));
        assert_eq!(s.mem_word("ram", 0), Some(42));
    }

    #[test]
    fn memory_bounds_checked() {
        let mut s = sim("machine m { reg a[8] init 200; reg d[8]; mem ram[16][8];
                state r { d := ram[a]; } }");
        let err = s.step().unwrap_err();
        assert!(matches!(err, RtlError::AddressOutOfRange { addr: 200, .. }));
    }

    #[test]
    fn slice_read_and_write() {
        let mut s = sim("machine sl { reg a[8] init 0; reg b[8] init 0xAB;
                state s { a[7:4] := b[3:0]; a[0] := 1; halt; } }");
        s.run(10).unwrap();
        // High nibble gets 0xB, bit 0 set: 0xB1.
        assert_eq!(s.reg("a"), Some(0xB1));
    }

    #[test]
    fn io_ports() {
        let mut s = sim("machine io { port input x[8]; port output y[8];
                state s { y := x + 1; halt; } }");
        s.set_input("x", 41).unwrap();
        assert!(matches!(
            s.set_input("nope", 1),
            Err(RtlError::Undeclared { name }) if name == "nope"
        ));
        s.run(10).unwrap();
        assert_eq!(s.output("y"), Some(42));
    }

    #[test]
    fn concat_and_ops() {
        let mut s = sim(
            "machine c { reg hi[4] init 0xA; reg lo[4] init 0x5; reg w[8];
                state s { w := {hi, lo} ^ 0xFF; halt; } }",
        );
        s.run(10).unwrap();
        assert_eq!(s.reg("w"), Some(0xA5 ^ 0xFF));
    }

    #[test]
    fn conditions_and_comparisons() {
        let mut s = sim("machine cmp { reg a[8] init 5; reg r[4];
                state s {
                    if a >= 5 && a < 6 { r := 1; } else { r := 2; }
                    halt;
                } }");
        s.run(10).unwrap();
        assert_eq!(s.reg("r"), Some(1));
    }

    #[test]
    fn unary_ops() {
        let mut s = sim("machine u { reg a[4] init 0b1010; reg n[4]; reg z[1];
                state s { n := ~a; z := !a; halt; } }");
        s.run(10).unwrap();
        assert_eq!(s.reg("n"), Some(0b0101));
        assert_eq!(s.reg("z"), Some(0));
    }

    #[test]
    fn load_mem_and_bounds() {
        let m = parse("machine l { reg a[4]; mem ram[4][8]; state s { halt; } }").unwrap();
        let mut s = Simulator::new(&m);
        s.load_mem("ram", &[1, 2, 3]).unwrap();
        assert!(matches!(
            s.load_mem("ram", &[0; 5]),
            Err(RtlError::AddressOutOfRange {
                addr: 4,
                words: 4,
                ..
            })
        ));
        assert!(matches!(
            s.load_mem("nope", &[1]),
            Err(RtlError::Undeclared { .. })
        ));
        assert_eq!(s.mem_word("ram", 2), Some(3));
    }

    #[test]
    fn halted_machine_is_inert() {
        let mut s = sim("machine h { reg a[4]; state s { a := a + 1; halt; } }");
        s.run(10).unwrap();
        let a = s.reg("a");
        s.step().unwrap();
        assert_eq!(s.reg("a"), a);
    }

    #[test]
    fn run_report_on_budget_exhaustion() {
        let mut s = sim("machine b { reg a[8]; state s { a := a + 1; } }");
        let report = s.run(3).unwrap();
        assert!(!report.halted);
        assert_eq!(report.cycles, 3);
    }

    #[test]
    fn last_write_wins_within_cycle() {
        let mut s = sim("machine lw { reg a[8]; state s { a := 1; a := 2; halt; } }");
        s.run(10).unwrap();
        assert_eq!(s.reg("a"), Some(2));
    }

    #[test]
    fn sized_literals_mask() {
        let mut s = sim("machine sz { reg a[12]; state s { a := 12'o7777; halt; } }");
        s.run(10).unwrap();
        assert_eq!(s.reg("a"), Some(0o7777));
    }

    #[test]
    fn bits_above_63_do_not_exist() {
        // A concat part 64 bits wide shifts the accumulator out; a slice
        // whose low bound is 64 or more reads 0. No shift overflows.
        let mut s = sim(
            "machine w { reg a[64] init 5; reg b[8] init 3; reg r[64]; reg q[8]; reg t[64];
                state s { r := {b, a}; q := (a | 0)[70:65]; t := {a, b, 100'd1}; halt; } }",
        );
        s.run(10).unwrap();
        assert_eq!(s.reg("r"), Some(5));
        assert_eq!(s.reg("q"), Some(0));
        assert_eq!(s.reg("t"), Some(1));
    }
}
