//! Lowering an elaborated [`Machine`] to bytecode.
//!
//! Each state body is walked once in the interpreter's evaluation order.
//! Signal reads and literals are frame operands, not ops; computed
//! values are emitted through three optimizations:
//!
//! * **constant folding** — pure ops over known constants evaluate at
//!   compile time with the interpreter's exact width/wrap rules;
//! * **local value numbering** — a pure op with the same operands as an
//!   earlier one in a dominating position reuses its temp (memory reads
//!   are pre-cycle, so even they are CSE-able; their bounds check keeps
//!   the first occurrence alive);
//! * **dead-code elimination** — a backward pass drops pure ops whose
//!   results feed no store, jump or control effect.
//!
//! and then fused so that a cycle dispatches as few ops as it can: a
//! comparison (and a bit slice under it) moves into the branch that
//! tests it, a jump to the next op is dropped, the last unconditional
//! `goto` becomes the state's static successor, and a value computed
//! only to be stored is computed straight into the shadow slot.
//!
//! Emission order is evaluation order and fusion never reorders, so the
//! compiled program raises the same [`silc_rtl::RtlError`] on the same
//! cycle as the interpreter.

use crate::bytecode::*;
use silc_rtl::{BinaryOp, Expr, Machine, State, Stmt, Target, UnaryOp};
use std::collections::HashMap;
use std::sync::Arc;

/// Compiles a parse-validated machine to bytecode.
///
/// # Panics
///
/// Panics on names not declared in the machine, like
/// [`silc_rtl::Simulator`] — parse-validated machines never trigger
/// this.
pub fn compile(machine: &Machine) -> CompiledMachine {
    let mut sigs = Vec::new();
    let mut sig_index = HashMap::new();
    let mut slots = Vec::new();
    let mut declare = |name: &String, width: u32, kind: SigKind, init: u64| {
        sig_index.insert(name.clone(), sigs.len() as u32);
        sigs.push(SigInfo { width, kind });
        slots.push(Slot {
            width,
            cval: None,
            init,
        });
    };
    for r in &machine.regs {
        declare(&r.name, r.width, SigKind::Reg, r.init & mask(r.width));
    }
    for p in &machine.outputs {
        declare(&p.name, p.width, SigKind::Output, 0);
    }
    for p in &machine.inputs {
        declare(&p.name, p.width, SigKind::Input, 0);
    }
    // The shadow starts out equal to the signals.
    slots.extend_from_within(..);
    let mem_index: HashMap<String, u32> = (0u32..)
        .zip(&machine.mems)
        .map(|(i, m)| (m.name.clone(), i))
        .collect();

    let mut lowering = Lowering {
        machine,
        sig_index: &sig_index,
        mem_index: &mem_index,
        n_sigs: sigs.len() as u32,
        slots,
        pool: HashMap::new(),
        stats: CompileStats {
            states: machine.states.len() as u64,
            ..CompileStats::default()
        },
        ops: Vec::new(),
        labels: Vec::new(),
        vn: Vec::new(),
        depth: 0,
        top_goto: None,
    };
    let states: Vec<CompiledState> = (0u32..)
        .zip(&machine.states)
        .map(|(i, st)| lowering.state(i, st))
        .collect();
    let Lowering { slots, stats, .. } = lowering;

    let image: Vec<u64> = slots.iter().map(|s| s.init).collect();
    let mut base = image.len();
    let mems = machine
        .mems
        .iter()
        .map(|m| {
            let info = MemInfo {
                name: m.name.clone(),
                base,
                words: m.words,
                mask: mask(m.width),
            };
            base += m.words as usize;
            info
        })
        .collect();

    CompiledMachine(Arc::new(Program {
        name: machine.name.clone(),
        sigs,
        mems,
        states,
        image,
        frame_len: base,
        sig_index,
        mem_index,
        stats,
    }))
}

/// What lowering knows about one frame slot below the memories.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// Width of the value, capped at 64 (wider behaves the same).
    width: u32,
    /// The value, when it is a compile-time constant.
    cval: Option<u64>,
    /// Reset contents: the constant, a register's `init`, else 0.
    init: u64,
}

/// Value-numbering key: identifies a pure op up to operands (slots
/// carry their widths).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum VnKey {
    LoadMem(u32, u32),
    Un(UnaryOp, u32),
    Bin(BinaryOp, u32, u32),
    Slice(u32, u32, u32),
    Fold(u32, u32),
}

struct Lowering<'a> {
    machine: &'a Machine,
    sig_index: &'a HashMap<String, u32>,
    mem_index: &'a HashMap<String, u32>,
    n_sigs: u32,
    /// Signals, shadow, then constants and temps in allocation order;
    /// a value's slot is its frame index.
    slots: Vec<Slot>,
    /// Interned constants by (value, width), shared by all states.
    pool: HashMap<(u64, u32), u32>,
    stats: CompileStats,

    // The state being lowered.
    /// Jump targets are label ids until `finish` resolves them.
    ops: Vec<Op>,
    /// Label id -> op index (position of the op the label precedes).
    labels: Vec<u32>,
    /// Scoped association list: truncated when leaving a branch, so an
    /// entry is only reused from positions its op dominates.
    vn: Vec<(VnKey, u32)>,
    /// `if` nesting depth of the statement being lowered.
    depth: u32,
    /// The last `goto` outside every `if`: the ops emitted before it
    /// and the state it names.
    top_goto: Option<(usize, u32)>,
}

impl Lowering<'_> {
    fn fresh(&mut self, width: u32, cval: Option<u64>) -> u32 {
        self.slots.push(Slot {
            width: width.min(64),
            cval,
            init: cval.unwrap_or(0),
        });
        self.slots.len() as u32 - 1
    }

    fn width(&self, v: u32) -> u32 {
        self.slots[v as usize].width
    }

    fn cval(&self, v: u32) -> Option<u64> {
        self.slots[v as usize].cval
    }

    /// The slot of a constant (already masked) of the given width.
    fn constant(&mut self, value: u64, width: u32) -> u32 {
        let key = (value, width.min(64));
        if let Some(&slot) = self.pool.get(&key) {
            return slot;
        }
        let slot = self.fresh(width, Some(value));
        self.pool.insert(key, slot);
        slot
    }

    /// A folded constant result (counted in the stats).
    fn folded(&mut self, value: u64, width: u32) -> u32 {
        self.stats.folded += 1;
        self.constant(value, width)
    }

    /// Emits `make(dst)` unless an equivalent dominating op exists.
    fn keyed(&mut self, key: VnKey, width: u32, make: impl FnOnce(u32) -> Op) -> u32 {
        if let Some(&(_, v)) = self.vn.iter().find(|(k, _)| *k == key) {
            self.stats.cse += 1;
            return v;
        }
        let dst = self.fresh(width, None);
        self.ops.push(make(dst));
        self.vn.push((key, dst));
        dst
    }

    fn new_label(&mut self) -> u32 {
        self.labels.push(u32::MAX);
        self.labels.len() as u32 - 1
    }

    fn place(&mut self, label: u32) {
        self.labels[label as usize] = self.ops.len() as u32;
    }

    fn state(&mut self, own: u32, st: &State) -> CompiledState {
        self.block(&st.body);
        let next = self.finish(own);
        self.labels.clear();
        self.vn.clear();
        let ops = std::mem::take(&mut self.ops);
        self.stats.ops += ops.len() as u64;

        let n = self.n_sigs;
        let mut writes: Vec<u32> = ops
            .iter()
            .filter_map(Op::dst)
            .filter(|d| (n..2 * n).contains(d))
            .map(|d| d - n)
            .collect();
        writes.sort_unstable();
        writes.dedup();
        CompiledState {
            name: st.name.clone(),
            ops,
            writes,
            next,
        }
    }

    fn block(&mut self, body: &[Stmt]) {
        for stmt in body {
            match stmt {
                Stmt::Assign { target, value } => {
                    let v = self.expr(value);
                    self.assign(target, v);
                }
                Stmt::If {
                    cond,
                    then_body,
                    else_body,
                } => {
                    let c = self.expr(cond);
                    if let Some(cv) = self.cval(c) {
                        // Static condition: compile only the taken branch
                        // (it executes unconditionally, so no new scope).
                        self.stats.folded += 1;
                        self.block(if cv != 0 { then_body } else { else_body });
                        continue;
                    }
                    let l_else = self.new_label();
                    let l_end = self.new_label();
                    self.ops.push(Op::Jz {
                        a: c,
                        target: l_else,
                    });
                    let mark = self.vn.len();
                    self.depth += 1;
                    self.block(then_body);
                    self.vn.truncate(mark);
                    self.ops.push(Op::Jmp { target: l_end });
                    self.place(l_else);
                    self.block(else_body);
                    self.vn.truncate(mark);
                    self.depth -= 1;
                    self.place(l_end);
                }
                Stmt::Goto(name) => {
                    let index = self.machine.state_index(name).expect("validated") as u32;
                    if self.depth == 0 {
                        self.top_goto = Some((self.ops.len(), index));
                    } else {
                        self.ops.push(Op::SetState { index });
                    }
                }
                Stmt::Halt => self.ops.push(Op::Halt),
            }
        }
    }

    fn assign(&mut self, target: &Target, v: u32) {
        match target {
            Target::Signal { name, slice } => {
                let slot = self.sig_index[name.as_str()];
                let dst = self.n_sigs + slot;
                self.ops.push(match *slice {
                    None => Op::Slice {
                        dst,
                        a: v,
                        lo: 0,
                        sh: sh(self.width(slot)),
                    },
                    Some((hi, lo)) => Op::Insert {
                        dst,
                        a: v,
                        lo: lo as u8,
                        sh: sh(hi - lo + 1),
                    },
                });
            }
            Target::MemWord { name, addr } => {
                let a = self.expr(addr);
                let mem = self.mem_index[name.as_str()];
                let m = self.machine.mem(name).expect("validated");
                self.ops.push(Op::StoreMem {
                    mem,
                    a,
                    b: v,
                    sh: sh(m.width),
                });
            }
        }
    }

    fn expr(&mut self, e: &Expr) -> u32 {
        match e {
            Expr::Const { value, width } => {
                let w = width.unwrap_or(64);
                self.constant(value & mask(w), w)
            }
            Expr::Ident(name) => self.sig_index[name.as_str()],
            Expr::Slice { base, hi, lo } => {
                let a = self.expr(base);
                let w = (hi - lo).saturating_add(1);
                if *lo >= 64 {
                    // Bits above 63 do not exist.
                    return self.folded(0, w);
                }
                if let Some(v) = self.cval(a) {
                    return self.folded((v >> lo) & mask(w), w);
                }
                let lo = *lo;
                self.keyed(VnKey::Slice(a, lo, w.min(64)), w, |dst| Op::Slice {
                    dst,
                    a,
                    lo: lo as u8,
                    sh: sh(w),
                })
            }
            Expr::MemRead { name, addr } => {
                let a = self.expr(addr);
                let mem = self.mem_index[name.as_str()];
                let width = self.machine.mem(name).expect("validated").width;
                // Never folded: the bounds check is a runtime effect.
                self.keyed(VnKey::LoadMem(mem, a), width, |dst| Op::LoadMem {
                    dst,
                    mem,
                    a,
                })
            }
            Expr::Unary { op, expr } => {
                let a = self.expr(expr);
                let w = self.width(a);
                if let Some(v) = self.cval(a) {
                    let (out, ow) = match op {
                        UnaryOp::Not => ((!v) & mask(w), w),
                        UnaryOp::Neg => (v.wrapping_neg() & mask(w), w),
                        UnaryOp::LogicalNot => (u64::from(v == 0), 1),
                    };
                    return self.folded(out, ow);
                }
                let key = VnKey::Un(*op, a);
                match op {
                    UnaryOp::Not => self.keyed(key, w, |dst| Op::Not { dst, a, sh: sh(w) }),
                    UnaryOp::Neg => self.keyed(key, w, |dst| Op::Neg { dst, a, sh: sh(w) }),
                    UnaryOp::LogicalNot => self.keyed(key, 1, |dst| Op::IsZero { dst, a }),
                }
            }
            Expr::Binary { op, lhs, rhs } => {
                let a = self.expr(lhs);
                let b = self.expr(rhs);
                self.binary(*op, a, b)
            }
            Expr::Concat(parts) => {
                let mut acc = self.constant(0, 0);
                let mut total: u32 = 0;
                for p in parts {
                    let part = self.expr(p);
                    let pw = self.width(part);
                    total = (total + pw).min(64);
                    if pw == 64 || self.width(acc) == 0 {
                        // Nothing of the accumulator survives: a 64-bit
                        // part shifts it out, an empty one has no bits.
                        acc = part;
                    } else if let (Some(av), Some(pv)) = (self.cval(acc), self.cval(part)) {
                        acc = self.folded((av << pw) | pv, total);
                    } else if pw > 0 {
                        let a = acc;
                        acc = self.keyed(VnKey::Fold(a, part), total, |dst| Op::Fold {
                            dst,
                            a,
                            b: part,
                            shift: pw as u8,
                        });
                    }
                }
                acc
            }
        }
    }

    fn binary(&mut self, op: BinaryOp, a: u32, b: u32) -> u32 {
        let (wa, wb) = (self.width(a), self.width(b));
        let w = wa.max(wb);
        // Result width, exactly as the interpreter.
        let ow = match op {
            BinaryOp::Add | BinaryOp::Sub | BinaryOp::And | BinaryOp::Or | BinaryOp::Xor => w,
            BinaryOp::Shl | BinaryOp::Shr => wa,
            _ => 1,
        };
        if let (Some(x), Some(y)) = (self.cval(a), self.cval(b)) {
            let v = match op {
                BinaryOp::Add => x.wrapping_add(y) & mask(w),
                BinaryOp::Sub => x.wrapping_sub(y) & mask(w),
                BinaryOp::And => x & y,
                BinaryOp::Or => x | y,
                BinaryOp::Xor => x ^ y,
                BinaryOp::Shl => x.checked_shl(y.min(64) as u32).unwrap_or(0) & mask(wa),
                BinaryOp::Shr => x.checked_shr(y.min(64) as u32).unwrap_or(0),
                BinaryOp::Eq => u64::from(x == y),
                BinaryOp::Ne => u64::from(x != y),
                BinaryOp::Lt => u64::from(x < y),
                BinaryOp::Le => u64::from(x <= y),
                BinaryOp::Gt => u64::from(x > y),
                BinaryOp::Ge => u64::from(x >= y),
                BinaryOp::LogicalAnd => u64::from(x != 0 && y != 0),
                BinaryOp::LogicalOr => u64::from(x != 0 || y != 0),
            };
            return self.folded(v, ow);
        }
        if ow == 0 {
            // Shifting the empty literal `0'd0`: no bits, whatever the count.
            return self.folded(0, 0);
        }
        self.keyed(VnKey::Bin(op, a, b), ow, |dst| match op {
            BinaryOp::Add => Op::Add {
                dst,
                a,
                b,
                sh: sh(ow),
            },
            BinaryOp::Sub => Op::Sub {
                dst,
                a,
                b,
                sh: sh(ow),
            },
            BinaryOp::Shl => Op::Shl {
                dst,
                a,
                b,
                sh: sh(ow),
            },
            BinaryOp::Shr => Op::Shr { dst, a, b },
            BinaryOp::And => Op::And { dst, a, b },
            BinaryOp::Or => Op::Or { dst, a, b },
            BinaryOp::Xor => Op::Xor { dst, a, b },
            BinaryOp::Eq => Op::Eq { dst, a, b },
            BinaryOp::Ne => Op::Ne { dst, a, b },
            BinaryOp::Lt => Op::Lt { dst, a, b },
            BinaryOp::Le => Op::Le { dst, a, b },
            BinaryOp::Gt => Op::Gt { dst, a, b },
            BinaryOp::Ge => Op::Ge { dst, a, b },
            BinaryOp::LogicalAnd => Op::LAnd { dst, a, b },
            BinaryOp::LogicalOr => Op::LOr { dst, a, b },
        })
    }

    /// Turns the emitted ops into the state's final program and returns
    /// its static successor (`own` unless an unconditional `goto` names
    /// another).
    fn finish(&mut self, own: u32) -> u32 {
        // A `goto` outside every `if` overrides all gotos before it.
        let (upto, next) = self.top_goto.take().unwrap_or((0, own));
        let keep: Vec<bool> = (0..self.ops.len())
            .map(|i| i >= upto || !matches!(self.ops[i], Op::SetState { .. }))
            .collect();
        self.retain(&keep);
        self.fuse_branches();
        // Sweeping can empty a branch, whose jump then goes too and may
        // have been the last reader of its operands.
        loop {
            self.sweep_unused();
            if !self.sweep_jumps() {
                break;
            }
        }
        self.stats.dead += (keep.len() - self.ops.len()) as u64;
        self.fuse_stores();
        for op in &mut self.ops {
            if let Some(target) = op.target_mut() {
                *target = self.labels[*target as usize];
            }
        }
        next
    }

    /// Drops the ops `keep` rejects; a label on a dropped op moves to
    /// the next surviving one.
    fn retain(&mut self, keep: &[bool]) {
        let mut new_idx = Vec::with_capacity(keep.len() + 1);
        let mut kept = 0u32;
        for &k in keep {
            new_idx.push(kept);
            kept += u32::from(k);
        }
        new_idx.push(kept);
        for label in &mut self.labels {
            *label = new_idx[*label as usize];
        }
        let mut keep = keep.iter();
        self.ops.retain(|_| *keep.next().expect("one flag per op"));
    }

    /// Moves comparisons into the branches that test them: `Jz` on a
    /// comparison becomes the opposite compare-and-branch, and an
    /// equality against a bit slice tests the slice in place. Operands
    /// are never overwritten within a cycle, so re-reading them at the
    /// branch sees what the comparison saw; the comparison itself stays
    /// for `sweep_unused` to judge (a store may still want its value).
    fn fuse_branches(&mut self) {
        let def: HashMap<u32, Op> = self
            .ops
            .iter()
            .filter_map(|op| op.dst().map(|d| (d, *op)))
            .collect();
        let slice_of = |v: u32| match def.get(&v) {
            Some(&Op::Slice { a, lo, sh, .. }) => Some((a, lo, sh)),
            _ => None,
        };
        // Jump when `a == b` (or `a != b`), through a slice on either side.
        let equality = |equal: bool, a: u32, b: u32, target: u32| {
            let sliced = slice_of(a)
                .map(|s| (s, b))
                .or_else(|| slice_of(b).map(|s| (s, a)));
            match (sliced, equal) {
                (Some(((a, lo, sh), b)), true) => Op::JBitsEq {
                    a,
                    b,
                    target,
                    lo,
                    sh,
                },
                (Some(((a, lo, sh), b)), false) => Op::JBitsNe {
                    a,
                    b,
                    target,
                    lo,
                    sh,
                },
                (None, true) => Op::JEq { a, b, target },
                (None, false) => Op::JNe { a, b, target },
            }
        };
        for i in 0..self.ops.len() {
            let Op::Jz { a: cond, target } = self.ops[i] else {
                continue;
            };
            self.ops[i] = match def.get(&cond) {
                Some(&Op::Eq { a, b, .. }) => equality(false, a, b, target),
                Some(&Op::Ne { a, b, .. }) => equality(true, a, b, target),
                Some(&Op::Lt { a, b, .. }) => Op::JGe { a, b, target },
                Some(&Op::Le { a, b, .. }) => Op::JGt { a, b, target },
                Some(&Op::Gt { a, b, .. }) => Op::JLe { a, b, target },
                Some(&Op::Ge { a, b, .. }) => Op::JLt { a, b, target },
                Some(&Op::IsZero { a, .. }) => Op::Jnz { a, target },
                Some(&Op::Slice { .. }) => equality(true, cond, self.constant(0, 64), target),
                _ => continue,
            };
        }
    }

    /// Dead-code elimination: drops pure ops whose results no kept op
    /// reads. Stores, jumps, control effects and memory reads (for their
    /// bounds check) are roots.
    fn sweep_unused(&mut self) {
        let temps = 2 * self.n_sigs;
        let mut used = vec![false; self.slots.len()];
        let mut keep = vec![true; self.ops.len()];
        for (i, op) in self.ops.iter().enumerate().rev() {
            let pure = op.dst().is_some_and(|d| d >= temps) && !matches!(op, Op::LoadMem { .. });
            keep[i] = !pure || op.dst().is_some_and(|d| used[d as usize]);
            if keep[i] {
                for r in op.reads().into_iter().flatten() {
                    used[r as usize] = true;
                }
            }
        }
        self.retain(&keep);
    }

    /// Drops jumps, conditional or not, to the op that follows them;
    /// says whether there were any.
    fn sweep_jumps(&mut self) -> bool {
        let keep: Vec<bool> = (1u32..)
            .zip(&self.ops)
            .map(|(after, op)| op.target().is_none_or(|t| self.labels[t as usize] != after))
            .collect();
        self.retain(&keep);
        keep.contains(&false)
    }

    /// Computes a value straight into the shadow slot when the op that
    /// defines it is followed by the full store that is its only reader
    /// — which is how every `r := <op>` is emitted, so nothing moves.
    /// The store's clamp folds into the op's own, or is provably idle.
    fn fuse_stores(&mut self) {
        let shadow = self.n_sigs..2 * self.n_sigs;
        let mut uses = vec![0u32; self.slots.len()];
        for op in &self.ops {
            for r in op.reads().into_iter().flatten() {
                uses[r as usize] += 1;
            }
        }
        let mut keep = vec![true; self.ops.len()];
        for (i, kept) in keep.iter_mut().enumerate().skip(1) {
            let Op::Slice {
                dst,
                a: v,
                lo: 0,
                sh: clamp,
            } = self.ops[i]
            else {
                continue;
            };
            let mut def = self.ops[i - 1];
            if !shadow.contains(&dst) || def.dst() != Some(v) || uses[v as usize] != 1 {
                continue;
            }
            let fits = match def.clamp_mut() {
                Some(own) => {
                    *own = (*own).max(clamp);
                    true
                }
                None => self.width(v) <= 64 - u32::from(clamp),
            };
            if fits {
                *def.dst_mut().expect("defines v") = dst;
                self.ops[i - 1] = def;
                *kept = false;
            }
        }
        self.retain(&keep);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use silc_rtl::parse;

    fn compiled(src: &str) -> CompiledMachine {
        compile(&parse(src).unwrap())
    }

    /// Ops of state `i`.
    fn ops(cm: &CompiledMachine, i: usize) -> &[Op] {
        &cm.0.states[i].ops
    }

    /// The frame slot holding the constant `value`, if one does.
    fn const_slot(cm: &CompiledMachine, value: u64) -> Option<u32> {
        let n = 2 * cm.0.sigs.len();
        cm.0.image[n..]
            .iter()
            .position(|&v| v == value)
            .map(|i| (n + i) as u32)
    }

    #[test]
    fn ops_are_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<Op>(), 16);
    }

    #[test]
    fn constant_expressions_fold() {
        let cm = compiled("machine f { reg a[8]; state s { a := 2 + 3; halt; } }");
        // The add happened at compile time and literals are operands,
        // not ops: one store of the constant 5, one Halt.
        let five = const_slot(&cm, 5).expect("the sum is in the constant pool");
        assert_eq!(
            ops(&cm, 0),
            [
                Op::Slice {
                    dst: 1,
                    a: five,
                    lo: 0,
                    sh: 56
                },
                Op::Halt
            ]
        );
        assert!(cm.0.stats.folded >= 1);
        assert_eq!(cm.0.stats.ops, 2);
    }

    #[test]
    fn static_conditions_drop_the_dead_branch() {
        let cm = compiled(
            "machine f { reg a[8];
               state s { if 1 { a := 1; } else { a := 2; } halt; } }",
        );
        // A folded `if` emits no branch, and the untaken store is gone.
        assert!(ops(&cm, 0).iter().all(|op| op.target().is_none()));
        assert_eq!(ops(&cm, 0).len(), 2);
    }

    #[test]
    fn common_subexpressions_are_shared() {
        let cm = compiled(
            "machine c { reg a[8]; reg x[8]; reg y[8];
               state s { x := a + 1; y := a + 1; halt; } }",
        );
        assert!(cm.0.stats.cse >= 1);
        let adds = ops(&cm, 0)
            .iter()
            .filter(|op| matches!(op, Op::Add { .. }))
            .count();
        assert_eq!(adds, 1);
    }

    #[test]
    fn unused_results_are_eliminated() {
        // `2 + 3` folds; what is left is one add straight into `a`'s
        // shadow slot, reading the signal and the constant in place.
        let cm = compiled("machine d { reg a[8]; state s { a := (2 + 3) + a; halt; } }");
        let five = const_slot(&cm, 5).unwrap();
        assert_eq!(
            ops(&cm, 0),
            [
                Op::Add {
                    dst: 1,
                    a: five,
                    b: 0,
                    sh: 56
                },
                Op::Halt
            ]
        );
        // A result nothing reads is swept (its memory read is not: see
        // `memory_reads_survive_dce`).
        let cm = compiled(
            "machine d { reg a[8]; reg b[8];
               state s { if (a + b)[70:65] { a := 1; } halt; } }",
        );
        assert_eq!(ops(&cm, 0), [Op::Halt]);
        assert!(cm.0.stats.dead >= 1);
        assert_eq!(cm.0.stats.ops, 1);
    }

    #[test]
    fn branch_scoped_cse_does_not_leak() {
        // The `a + 1` inside the taken branch must not satisfy the use
        // after the join (it may never execute).
        let cm = compiled(
            "machine b { reg a[8]; reg x[8]; reg y[8]; port input c[1];
               state s { if c { x := a + 1; } y := a + 1; halt; } }",
        );
        let adds = ops(&cm, 0)
            .iter()
            .filter(|op| matches!(op, Op::Add { .. }))
            .count();
        assert_eq!(adds, 2);
    }

    #[test]
    fn write_sets_cover_stores_only() {
        let cm = compiled(
            "machine r { reg a[8]; reg b[8]; reg c[8]; mem m[4][8];
               state s { a := b; if b == 1 { c[3:0] := a; } m[b] := 1; } }",
        );
        let slot = |name: &str| cm.0.sig_index[name];
        // `b` is read, the memory is buffered apart: neither is in the
        // set the commit walks.
        assert_eq!(cm.0.states[0].writes, [slot("a"), slot("c")]);
        assert_eq!(cm.0.states[0].next, 0);
    }

    #[test]
    fn memory_reads_survive_dce() {
        // The loaded value is unused, but the bounds check must still
        // fire at run time.
        let cm = compiled(
            "machine m { reg a[8] init 99; reg x[8]; mem ram[4][8];
               state s { x := ram[a][70:65]; } }",
        );
        assert!(ops(&cm, 0)
            .iter()
            .any(|op| matches!(op, Op::LoadMem { .. })));
    }

    #[test]
    fn comparisons_fuse_into_their_branches() {
        // Six tests of one slice against six literals: six ops, and the
        // slice is read in place.
        let cm = compiled(
            "machine k { reg ir[12]; reg a[4];
               state s {
                 if ir[11:9] == 0 { a := 1; }
                 if ir[11:9] == 1 { a := 2; }
                 if ir[11:9] == 2 { a := 3; }
               } }",
        );
        let branches = ops(&cm, 0)
            .iter()
            .filter(|op| {
                matches!(
                    op,
                    Op::JBitsNe {
                        a: 0,
                        lo: 9,
                        sh: 61,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(branches, 3);
        assert_eq!(ops(&cm, 0).len(), 6);
        // Ordered comparisons invert; a bare slice tests against zero.
        let cm = compiled(
            "machine k { reg x[8]; reg a[4];
               state s { if x < 5 { a := 1; } if !x { a := 2; } if x[3] { a := 3; } } }",
        );
        assert!(matches!(ops(&cm, 0)[0], Op::JGe { a: 0, .. }));
        assert!(matches!(ops(&cm, 0)[2], Op::Jnz { a: 0, .. }));
        assert!(matches!(
            ops(&cm, 0)[4],
            Op::JBitsEq { a: 0, b, lo: 3, sh: 63, .. } if cm.0.image[b as usize] == 0
        ));
    }

    #[test]
    fn a_comparison_a_store_also_reads_is_kept() {
        let cm = compiled(
            "machine k { reg x[8]; reg f[1]; reg a[4];
               state s { f := x == 3; if x == 3 { a := 1; } } }",
        );
        // The branch tests the operands itself; the value still lands
        // in `f` (straight into its shadow slot).
        let n = cm.0.sigs.len() as u32;
        let f = cm.0.sig_index["f"];
        assert!(matches!(ops(&cm, 0)[0], Op::Eq { dst, a: 0, .. } if dst == n + f));
        assert!(matches!(ops(&cm, 0)[1], Op::JNe { a: 0, .. }));
        assert_eq!(ops(&cm, 0).len(), 3);
    }

    #[test]
    fn jumps_to_the_next_op_are_dropped() {
        // `if` with an empty `else`: no jump over nothing, also when it
        // ends the state; the branch lands one past the last op.
        let cm = compiled(
            "machine j { reg a[8]; port input c[1];
               state s { a := 0; if c { a := 1; } } }",
        );
        assert!(matches!(
            ops(&cm, 0),
            [Op::Slice { .. }, Op::Jz { target: 3, .. }, Op::Slice { .. }]
        ));
        // A branch whose body folds away goes with it.
        let cm = compiled(
            "machine j { reg a[8]; port input c[1];
               state s { if c == 1 { if 0 { a := 1; } } halt; } }",
        );
        assert_eq!(ops(&cm, 0), [Op::Halt]);
    }

    #[test]
    fn the_last_unconditional_goto_is_static() {
        let cm = compiled(
            "machine g { reg a[8]; port input c[1];
               state s0 { if c { goto s0; } goto s1; }
               state s1 { goto s0; if c { goto s1; } }
               state s2 { a := 1; } }",
        );
        // s0: the conditional goto is overridden, and its branch with it.
        assert_eq!(ops(&cm, 0), []);
        assert_eq!(cm.0.states[0].next, 1);
        // s1: a later conditional goto still wins when taken.
        assert!(matches!(
            ops(&cm, 1),
            [Op::Jz { .. }, Op::SetState { index: 1 }]
        ));
        assert_eq!(cm.0.states[1].next, 0);
        assert_eq!(cm.0.states[2].next, 2);
    }

    #[test]
    fn stores_clamp_in_the_op_that_computes_them() {
        // `pc + 1` is 64 bits wide (the literal is unsized); the store
        // into 12 bits narrows the add instead of adding an op.
        let cm =
            compiled("machine p { reg pc[12]; reg q[4]; state s { pc := pc + 1; q := pc & 7; } }");
        assert!(matches!(
            ops(&cm, 0),
            [
                Op::Add { dst: 2, sh: 52, .. },
                Op::And { .. },
                Op::Slice { dst: 3, sh: 60, .. }
            ]
        ));
    }

    #[test]
    fn a_constant_is_shared_by_every_state() {
        let cm = compiled(
            "machine c { reg a[16]; reg b[16];
               state s0 { a := a + 1234; goto s1; }
               state s1 { b := b ^ 1234; goto s0; } }",
        );
        let k = const_slot(&cm, 1234).unwrap();
        assert_eq!(cm.0.image.iter().filter(|&&v| v == 1234).count(), 1);
        assert!(matches!(ops(&cm, 0), [Op::Add { b, .. }] if *b == k));
        assert!(matches!(ops(&cm, 1), [Op::Xor { b, .. }, Op::Slice { .. }] if *b == k));
    }
}
