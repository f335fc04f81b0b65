//! The bytecode executor: a drop-in for [`silc_rtl::Simulator`] with
//! byte-identical observable behavior.
//!
//! Each cycle runs the current state's ops over the frame. Signal slots
//! keep their pre-cycle values while stores land in the shadow slots and
//! memory writes in a buffer; the commit copies the state's static write
//! set from shadow to signal, applies the buffer, and notes whether any
//! stored value differed from what was there.
//!
//! That one bit is the whole scheduler. A cycle that changed nothing,
//! stayed in its state and did not halt left the machine exactly as it
//! found it, so the next cycle — a function of that configuration alone
//! — repeats it, and so does every cycle after: [`CompiledSim::run`]
//! fast-forwards the rest of its budget and [`CompiledSim::step`] counts
//! the cycle without executing it, until a poke clears the bit.

use crate::bytecode::*;
use crate::compile;
use silc_rtl::{Machine, RtlError, RunReport};

/// Executes a [`CompiledMachine`]; mirrors the [`silc_rtl::Simulator`]
/// API and its observable semantics exactly.
///
/// # Example
///
/// ```
/// use silc_exec::CompiledSim;
/// use silc_rtl::parse;
/// let m = parse("
///     machine swap {
///         reg a[8] init 1;
///         reg b[8] init 2;
///         state s { a := b; b := a; halt; }
///     }
/// ")?;
/// let mut sim = CompiledSim::from_machine(&m);
/// sim.run(10)?;
/// assert_eq!(sim.reg("a"), Some(2));
/// assert_eq!(sim.reg("b"), Some(1));
/// # Ok::<(), silc_rtl::RtlError>(())
/// ```
#[derive(Debug, Clone)]
pub struct CompiledSim {
    cm: CompiledMachine,
    /// Signals, shadow, constants and temps, then memory words. Between
    /// cycles every shadow slot equals its signal slot.
    frame: Vec<u64>,
    /// Buffered memory writes (frame index, value), last write wins.
    mem_writes: Vec<(usize, u64)>,
    /// The last executed cycle changed nothing and nothing was poked
    /// since: every further cycle repeats it.
    quiescent: bool,
    /// Cycles counted without being executed.
    fast_cycles: u64,
    state: usize,
    cycle: u64,
    halted: bool,
}

#[cold]
fn out_of_range(m: &MemInfo, addr: u64) -> RtlError {
    RtlError::AddressOutOfRange {
        name: m.name.clone(),
        addr,
        words: m.words,
    }
}

impl CompiledSim {
    /// Creates an executor in the machine's reset configuration:
    /// registers at their `init` values, memories zeroed, first state
    /// current.
    pub fn new(cm: &CompiledMachine) -> CompiledSim {
        let mut frame = vec![0u64; cm.0.frame_len];
        frame[..cm.0.image.len()].copy_from_slice(&cm.0.image);
        CompiledSim {
            cm: cm.clone(),
            frame,
            mem_writes: Vec::new(),
            quiescent: false,
            fast_cycles: 0,
            state: 0,
            cycle: 0,
            halted: false,
        }
    }

    /// Compiles and instantiates in one step.
    pub fn from_machine(machine: &Machine) -> CompiledSim {
        CompiledSim::new(&compile(machine))
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
        &self.cm.0.states[self.state].name
    }

    /// Cycles proved quiescent and skipped instead of executed.
    pub fn fast_forwarded(&self) -> u64 {
        self.fast_cycles
    }

    fn signal(&self, name: &str, kind: SigKind) -> Option<usize> {
        let &slot = self.cm.0.sig_index.get(name)?;
        (self.cm.0.sigs[slot as usize].kind == kind).then_some(slot as usize)
    }

    /// Reads a register.
    pub fn reg(&self, name: &str) -> Option<u64> {
        self.signal(name, SigKind::Reg).map(|slot| self.frame[slot])
    }

    /// Reads an output port.
    pub fn output(&self, name: &str) -> Option<u64> {
        self.signal(name, SigKind::Output)
            .map(|slot| self.frame[slot])
    }

    /// Reads a memory word.
    pub fn mem_word(&self, name: &str, addr: u64) -> Option<u64> {
        let &mem = self.cm.0.mem_index.get(name)?;
        let m = &self.cm.0.mems[mem as usize];
        (addr < m.words).then(|| self.frame[m.base + addr as usize])
    }

    /// Overwrites a signal and its shadow (value is masked).
    fn poke(&mut self, name: &str, kind: SigKind, value: u64) -> Result<(), RtlError> {
        let Some(slot) = self.signal(name, kind) else {
            return Err(RtlError::Undeclared {
                name: name.to_string(),
            });
        };
        let v = value & mask(self.cm.0.sigs[slot].width);
        self.frame[slot] = v;
        self.frame[self.cm.0.sigs.len() + slot] = v;
        self.quiescent = false;
        Ok(())
    }

    /// Drives an input port (value is masked to the port width).
    ///
    /// # Errors
    ///
    /// [`RtlError::Undeclared`] naming an unknown port.
    pub fn set_input(&mut self, name: &str, value: u64) -> Result<(), RtlError> {
        self.poke(name, SigKind::Input, value)
    }

    /// Overwrites a register (for test setup; value is masked).
    ///
    /// # Errors
    ///
    /// [`RtlError::Undeclared`] naming an unknown register.
    pub fn set_reg(&mut self, name: &str, value: u64) -> Result<(), RtlError> {
        self.poke(name, SigKind::Reg, value)
    }

    /// Loads `data` into a memory starting at word 0 (for program
    /// loading). Words are masked to the memory width.
    ///
    /// # Errors
    ///
    /// [`RtlError::Undeclared`] for an unknown memory;
    /// [`RtlError::AddressOutOfRange`] when `data` overruns it.
    pub fn load_mem(&mut self, name: &str, data: &[u64]) -> Result<(), RtlError> {
        let Some(&mem) = self.cm.0.mem_index.get(name) else {
            return Err(RtlError::Undeclared {
                name: name.to_string(),
            });
        };
        let m = &self.cm.0.mems[mem as usize];
        if data.len() as u64 > m.words {
            return Err(out_of_range(m, data.len() as u64 - 1));
        }
        for (word, &v) in self.frame[m.base..].iter_mut().zip(data) {
            *word = v & m.mask;
        }
        self.quiescent = false;
        Ok(())
    }

    /// Executes one cycle (a halted machine steps as a no-op).
    ///
    /// # Errors
    ///
    /// Returns [`RtlError::AddressOutOfRange`] on a bad memory access,
    /// leaving the cycle uncommitted — exactly like the interpreter.
    pub fn step(&mut self) -> Result<(), RtlError> {
        self.run(1).map(|_| ())
    }

    /// Runs until `halt` or until `max_cycles` have executed. Once a
    /// cycle proves quiescent the rest of the budget is fast-forwarded:
    /// with no external pokes possible mid-run, every remaining cycle is
    /// the same no-op.
    ///
    /// # Errors
    ///
    /// [`RtlError::AddressOutOfRange`] on a bad memory access; the cycles
    /// before it stay committed, the failing one commits nothing.
    /// Running out of budget is *not* an error (the report's `halted`
    /// field says which happened).
    pub fn run(&mut self, max_cycles: u64) -> Result<RunReport, RtlError> {
        let program = &*self.cm.0;
        let mems = &program.mems[..];
        let n_sigs = program.sigs.len();
        let f = &mut self.frame[..];
        let mem_writes = &mut self.mem_writes;
        let mut state = self.state;
        let mut halted = self.halted;
        let mut quiescent = self.quiescent;
        let mut cycles = 0;
        let mut fault = None;

        'run: while !halted && cycles < max_cycles {
            if quiescent {
                self.fast_cycles += max_cycles - cycles;
                cycles = max_cycles;
                break;
            }
            let st = &program.states[state];
            let ops = &st.ops[..];
            let mut next = st.next;
            let mut halt = false;
            let mut pc = 0;
            while let Some(&op) = ops.get(pc) {
                pc += 1;
                match op {
                    Op::LoadMem { dst, mem, a } => {
                        let (m, addr) = (&mems[mem as usize], f[a as usize]);
                        if addr >= m.words {
                            fault = Some(out_of_range(m, addr));
                            break 'run;
                        }
                        f[dst as usize] = f[m.base + addr as usize];
                    }
                    Op::Not { dst, a, sh } => f[dst as usize] = !f[a as usize] & (u64::MAX >> sh),
                    Op::Neg { dst, a, sh } => {
                        f[dst as usize] = f[a as usize].wrapping_neg() & (u64::MAX >> sh);
                    }
                    Op::IsZero { dst, a } => f[dst as usize] = u64::from(f[a as usize] == 0),
                    Op::Add { dst, a, b, sh } => {
                        f[dst as usize] =
                            f[a as usize].wrapping_add(f[b as usize]) & (u64::MAX >> sh);
                    }
                    Op::Sub { dst, a, b, sh } => {
                        f[dst as usize] =
                            f[a as usize].wrapping_sub(f[b as usize]) & (u64::MAX >> sh);
                    }
                    Op::Shl { dst, a, b, sh } => {
                        let by = f[b as usize].min(64) as u32;
                        f[dst as usize] =
                            f[a as usize].checked_shl(by).unwrap_or(0) & (u64::MAX >> sh);
                    }
                    Op::Shr { dst, a, b } => {
                        let by = f[b as usize].min(64) as u32;
                        f[dst as usize] = f[a as usize].checked_shr(by).unwrap_or(0);
                    }
                    Op::And { dst, a, b } => f[dst as usize] = f[a as usize] & f[b as usize],
                    Op::Or { dst, a, b } => f[dst as usize] = f[a as usize] | f[b as usize],
                    Op::Xor { dst, a, b } => f[dst as usize] = f[a as usize] ^ f[b as usize],
                    Op::Eq { dst, a, b } => {
                        f[dst as usize] = u64::from(f[a as usize] == f[b as usize]);
                    }
                    Op::Ne { dst, a, b } => {
                        f[dst as usize] = u64::from(f[a as usize] != f[b as usize]);
                    }
                    Op::Lt { dst, a, b } => {
                        f[dst as usize] = u64::from(f[a as usize] < f[b as usize]);
                    }
                    Op::Le { dst, a, b } => {
                        f[dst as usize] = u64::from(f[a as usize] <= f[b as usize]);
                    }
                    Op::Gt { dst, a, b } => {
                        f[dst as usize] = u64::from(f[a as usize] > f[b as usize]);
                    }
                    Op::Ge { dst, a, b } => {
                        f[dst as usize] = u64::from(f[a as usize] >= f[b as usize]);
                    }
                    Op::LAnd { dst, a, b } => {
                        f[dst as usize] = u64::from(f[a as usize] != 0 && f[b as usize] != 0);
                    }
                    Op::LOr { dst, a, b } => {
                        f[dst as usize] = u64::from(f[a as usize] != 0 || f[b as usize] != 0);
                    }
                    Op::Slice { dst, a, lo, sh } => {
                        f[dst as usize] = (f[a as usize] >> lo) & (u64::MAX >> sh);
                    }
                    Op::Fold { dst, a, b, shift } => {
                        f[dst as usize] = (f[a as usize] << shift) | f[b as usize];
                    }
                    Op::Insert { dst, a, lo, sh } => {
                        let field = u64::MAX >> sh;
                        f[dst as usize] =
                            (f[dst as usize] & !(field << lo)) | ((f[a as usize] & field) << lo);
                    }
                    Op::Jz { a, target } => {
                        if f[a as usize] == 0 {
                            pc = target as usize;
                        }
                    }
                    Op::Jnz { a, target } => {
                        if f[a as usize] != 0 {
                            pc = target as usize;
                        }
                    }
                    Op::JEq { a, b, target } => {
                        if f[a as usize] == f[b as usize] {
                            pc = target as usize;
                        }
                    }
                    Op::JNe { a, b, target } => {
                        if f[a as usize] != f[b as usize] {
                            pc = target as usize;
                        }
                    }
                    Op::JLt { a, b, target } => {
                        if f[a as usize] < f[b as usize] {
                            pc = target as usize;
                        }
                    }
                    Op::JLe { a, b, target } => {
                        if f[a as usize] <= f[b as usize] {
                            pc = target as usize;
                        }
                    }
                    Op::JGt { a, b, target } => {
                        if f[a as usize] > f[b as usize] {
                            pc = target as usize;
                        }
                    }
                    Op::JGe { a, b, target } => {
                        if f[a as usize] >= f[b as usize] {
                            pc = target as usize;
                        }
                    }
                    Op::JBitsEq {
                        a,
                        b,
                        target,
                        lo,
                        sh,
                    } => {
                        if (f[a as usize] >> lo) & (u64::MAX >> sh) == f[b as usize] {
                            pc = target as usize;
                        }
                    }
                    Op::JBitsNe {
                        a,
                        b,
                        target,
                        lo,
                        sh,
                    } => {
                        if (f[a as usize] >> lo) & (u64::MAX >> sh) != f[b as usize] {
                            pc = target as usize;
                        }
                    }
                    Op::Jmp { target } => pc = target as usize,
                    Op::StoreMem { mem, a, b, sh } => {
                        let (m, addr) = (&mems[mem as usize], f[a as usize]);
                        if addr >= m.words {
                            fault = Some(out_of_range(m, addr));
                            break 'run;
                        }
                        let (at, v) = (m.base + addr as usize, f[b as usize] & (u64::MAX >> sh));
                        match mem_writes.iter_mut().find(|w| w.0 == at) {
                            Some(w) => w.1 = v,
                            None => mem_writes.push((at, v)),
                        }
                    }
                    Op::SetState { index } => next = index,
                    Op::Halt => halt = true,
                }
            }

            // Commit; `changed` collects the bits any store flipped.
            let mut changed = 0;
            for &slot in &st.writes {
                let slot = slot as usize;
                let v = f[n_sigs + slot];
                changed |= f[slot] ^ v;
                f[slot] = v;
            }
            if !mem_writes.is_empty() {
                for &(at, v) in mem_writes.iter() {
                    changed |= f[at] ^ v;
                    f[at] = v;
                }
                mem_writes.clear();
            }
            cycles += 1;
            halted = halt;
            quiescent = changed == 0 && !halt && next as usize == state;
            state = next as usize;
        }

        if fault.is_some() {
            // The failing cycle commits nothing: forget its stores.
            for &slot in &program.states[state].writes {
                f[n_sigs + slot as usize] = f[slot as usize];
            }
            mem_writes.clear();
        }
        self.state = state;
        self.halted = halted;
        self.quiescent = quiescent;
        self.cycle += cycles;
        match fault {
            Some(err) => Err(err),
            None => Ok(RunReport { cycles, halted }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use silc_rtl::parse;

    fn sim(src: &str) -> CompiledSim {
        CompiledSim::from_machine(&parse(src).unwrap())
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
    fn quiescent_machine_fast_forwards() {
        // After the first cycle `a` stops changing; the scheduler must
        // skip the remaining budget instead of executing it.
        let mut s = sim("machine q { reg a[8]; state s { a := 7; } }");
        let report = s.run(1_000_000_000).unwrap();
        assert!(!report.halted);
        assert_eq!(report.cycles, 1_000_000_000);
        assert_eq!(s.cycle(), 1_000_000_000);
        assert_eq!(s.reg("a"), Some(7));
        assert!(s.fast_forwarded() >= 999_999_990);
    }

    #[test]
    fn input_poke_breaks_quiescence() {
        let mut s = sim("machine io { port input x[8]; reg a[8];
               state s { a := x + 1; } }");
        s.run(100).unwrap();
        assert_eq!(s.reg("a"), Some(1));
        s.set_input("x", 41).unwrap();
        s.run(100).unwrap();
        assert_eq!(s.reg("a"), Some(42));
    }

    #[test]
    fn reg_poke_breaks_quiescence_even_unread() {
        // `a` is written but never read: a poke must still be overwritten
        // by the next cycle, as the interpreter would.
        let mut s = sim("machine p { reg a[8]; reg b[8]; state s { a := 7; } }");
        s.run(100).unwrap();
        s.set_reg("a", 99).unwrap();
        s.run(1).unwrap();
        assert_eq!(s.reg("a"), Some(7));
    }

    #[test]
    fn setters_name_unknown_signals() {
        let mut s = sim("machine u { reg a[8]; mem m[4][8]; port input x[1]; state s { halt; } }");
        assert!(matches!(
            s.set_input("a", 1),
            Err(RtlError::Undeclared { name }) if name == "a"
        ));
        assert!(matches!(
            s.set_reg("x", 1),
            Err(RtlError::Undeclared { name }) if name == "x"
        ));
        assert!(matches!(
            s.load_mem("nope", &[1]),
            Err(RtlError::Undeclared { name }) if name == "nope"
        ));
        assert!(matches!(
            s.load_mem("m", &[0; 5]),
            Err(RtlError::AddressOutOfRange {
                addr: 4,
                words: 4,
                ..
            })
        ));
        s.load_mem("m", &[1, 2, 3]).unwrap();
        assert_eq!(s.mem_word("m", 2), Some(3));
    }

    #[test]
    fn memory_bounds_error_leaves_cycle_uncommitted() {
        let mut s = sim(
            "machine m { reg a[8] init 200; reg d[8] init 5; mem ram[16][8];
               state r { d := ram[a]; } }",
        );
        let err = s.step().unwrap_err();
        assert!(matches!(err, RtlError::AddressOutOfRange { addr: 200, .. }));
        assert_eq!(s.cycle(), 0);
        assert_eq!(s.reg("d"), Some(5));
    }

    #[test]
    fn goto_and_slice_writes() {
        let mut s = sim("machine g { reg a[8] init 0; reg b[8] init 0xAB;
               state one { a[7:4] := b[3:0]; goto two; }
               state two { a[0] := 1; halt; } }");
        s.run(10).unwrap();
        assert_eq!(s.reg("a"), Some(0xB1));
        assert_eq!(s.state_name(), "two");
    }

    /// Steps both engines `cycles` times from reset and compares every
    /// register after every cycle; returns the compiled one.
    fn agree(src: &str, cycles: u64) -> CompiledSim {
        let machine = parse(src).unwrap();
        let mut interp = silc_rtl::Simulator::new(&machine);
        let mut comp = CompiledSim::from_machine(&machine);
        for cycle in 0..cycles {
            assert_eq!(interp.step(), comp.step(), "cycle {cycle}");
            for r in &machine.regs {
                assert_eq!(
                    interp.reg(&r.name),
                    comp.reg(&r.name),
                    "{} @ {cycle}",
                    r.name
                );
            }
            assert_eq!(interp.state_name(), comp.state_name());
            assert_eq!(interp.is_halted(), comp.is_halted());
        }
        comp
    }

    #[test]
    fn a_fused_comparison_still_stores_its_value() {
        let src = "machine k { reg x[8]; reg f[1]; reg a[4];
               state s { f := x == 3; if x == 3 { a := 9; } x := x + 1; } }";
        let s = agree(src, 6);
        assert_eq!(s.reg("a"), Some(9));
        assert_eq!(s.reg("f"), Some(0));
    }

    #[test]
    fn jumps_land_past_operands_that_are_no_longer_ops() {
        // The `else` label used to sit on the load of the literal 5.
        let src = "machine j { reg a[8]; reg b[8]; reg n[4];
               state s { if n[0] { a := a + 1; } b := b + 5; n := n + 1; } }";
        let s = agree(src, 8);
        assert_eq!(s.reg("a"), Some(4));
        assert_eq!(s.reg("b"), Some(40));
    }

    #[test]
    fn an_empty_else_may_end_the_state() {
        let src = "machine e { reg a[8]; reg n[4];
               state s { n := n + 1; if n == 2 { a := 7; } } }";
        let s = agree(src, 5);
        assert_eq!(s.reg("a"), Some(7));
    }

    #[test]
    fn slice_stores_see_the_pending_value_or_the_old_one() {
        // Full store then slice store in one cycle: the slice lands in
        // the pending value. Under a branch not taken: the old field
        // stays, this cycle and the next.
        let src = "machine p { reg a[8] init 0x55; reg b[8] init 0xA0; reg n[4];
               state s {
                 a := 0xF0; a[1:0] := 3;
                 if n == 1 { b[3:0] := 0xC; }
                 n := n + 1;
               } }";
        let mut s = agree(src, 1);
        assert_eq!(s.reg("a"), Some(0xF3));
        assert_eq!(s.reg("b"), Some(0xA0));
        s.step().unwrap();
        assert_eq!(s.reg("b"), Some(0xAC));
        s.step().unwrap();
        assert_eq!(s.reg("b"), Some(0xAC));
        agree(src, 4);
    }

    #[test]
    fn a_failed_cycle_leaves_no_trace() {
        // The stores before the bad read are forgotten: registers,
        // memory and cycle count stay, and the next cycle computes from
        // the old values — not from a half-written shadow.
        let src = "machine f { reg a[8] init 1; reg at[8] init 200; reg d[8]; mem ram[16][8];
               state s { a := a + 1; a[7] := 1; ram[(a & 15)] := 9; d := ram[at]; } }";
        let machine = parse(src).unwrap();
        let mut interp = silc_rtl::Simulator::new(&machine);
        let mut s = CompiledSim::from_machine(&machine);
        for _ in 0..2 {
            assert_eq!(interp.step(), s.step());
            assert!(matches!(
                s.run(5),
                Err(RtlError::AddressOutOfRange { addr: 200, .. })
            ));
            assert_eq!((s.cycle(), s.reg("a"), s.reg("d")), (0, Some(1), Some(0)));
            assert_eq!(s.mem_word("ram", 1), Some(0));
        }
        interp.set_reg("at", 1).unwrap();
        s.set_reg("at", 1).unwrap();
        for _ in 0..3 {
            assert_eq!(s.step(), Ok(()));
            assert_eq!(interp.step(), Ok(()));
            assert_eq!(interp.reg("a"), s.reg("a"));
            assert_eq!(interp.reg("d"), s.reg("d"));
        }
        assert_eq!(s.reg("a"), Some(0x84));
        assert_eq!((s.reg("d"), s.mem_word("ram", 1)), (Some(9), Some(9)));
        assert_eq!(s.cycle(), 3);
    }

    #[test]
    fn states_share_constants() {
        let src = "machine c { reg a[16]; reg b[16];
               state s0 { a := a + 1234; goto s1; }
               state s1 { b := b ^ 1234; if b == 0 { goto s0; } goto s0; } }";
        let s = agree(src, 6);
        assert_eq!(s.reg("a"), Some(3 * 1234));
        assert_eq!(s.reg("b"), Some(1234));
    }

    #[test]
    fn pokes_interrupt_fast_forwarding() {
        let mut s = sim("machine io { port input x[8]; reg a[8]; reg w[8];
               state s { a := x + 1; w := 7; } }");
        s.run(1000).unwrap();
        // Two cycles executed (the second one changed nothing), the
        // rest counted.
        assert_eq!(s.fast_forwarded(), 998);
        s.step().unwrap();
        assert_eq!((s.cycle(), s.fast_forwarded()), (1001, 999));
        s.set_input("x", 41).unwrap();
        s.set_reg("w", 0).unwrap();
        s.run(1000).unwrap();
        assert_eq!((s.reg("a"), s.reg("w")), (Some(42), Some(7)));
        assert_eq!((s.cycle(), s.fast_forwarded()), (2001, 999 + 998));
        // A poke that changes nothing still costs one executed cycle.
        s.set_input("x", 41).unwrap();
        s.run(10).unwrap();
        assert_eq!(s.fast_forwarded(), 999 + 998 + 9);
    }

    #[test]
    fn bits_above_63_do_not_exist() {
        // A 64-bit concat part shifts the rest out; a slice from bit 64
        // up reads 0. Same answer from both engines, debug or release.
        let src = "machine w { reg a[64] init 5; reg b[8] init 3; reg r[64]; reg q[8]; reg t[64];
               state s { r := {b, a}; q := (a | 0)[70:65]; t := {a, b}; halt; } }";
        let s = agree(src, 1);
        assert_eq!(s.reg("r"), Some(5));
        assert_eq!(s.reg("q"), Some(0));
        assert_eq!(s.reg("t"), Some(0x503));
    }

    #[test]
    fn constant_memory_index_is_a_word_write_on_both_engines() {
        // `m[128] := w` once parsed as a bit select and was refused; it
        // means what `m[128 + 0] := w` means.
        for index in ["128", "128 + 0"] {
            let src = format!(
                "machine boot {{ reg w[12] init 1234; reg back[12]; mem m[256][12];
                   state load {{ m[{index}] := w; goto read; }}
                   state read {{ back := m[128]; halt; }} }}"
            );
            let s = agree(&src, 2);
            assert_eq!(s.reg("back"), Some(1234), "{index}");
            assert_eq!(s.mem_word("m", 128), Some(1234), "{index}");
        }
    }
}
