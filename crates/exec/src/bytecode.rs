//! The compiled form of an ISL machine: a register-based bytecode over
//! one flat `Vec<u64>` frame.
//!
//! # Frame
//!
//! ```text
//! [ signals | shadow | constants and temps | memory words ... ]
//!   0..n      n..2n    2n..                   MemInfo::base..
//! ```
//!
//! Every register, input and output port owns one **signal** slot, which
//! holds its pre-cycle value for the whole cycle, and one **shadow**
//! slot, which holds "the pending value if the cycle stored one, else
//! the pre-cycle value". Literals are interned into constant slots that
//! are written once when the frame is built; every computed value owns a
//! temp slot. Operands are frame indices, so reading a signal or a
//! literal costs no op of its own.
//!
//! Each control state compiles to one op sequence in the interpreter's
//! evaluation order. A store is any op whose `dst` is a shadow slot; the
//! executor commits the state's static write set (shadow → signal) and
//! the buffered memory writes at the end of the cycle, exactly like the
//! tree-walking [`silc_rtl::Simulator`].
//!
//! Width semantics are baked in at compile time: an op that can carry
//! bits above its result width holds `sh = 64 - width` and clamps with
//! `u64::MAX >> sh`, so the executor never consults declarations and an
//! op stays 16 bytes.

use std::collections::HashMap;
use std::sync::Arc;

/// Bit mask of a width (`>= 64` saturates to all ones), mirroring the
/// interpreter's masking rule.
pub(crate) fn mask(width: u32) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

/// The clamp field of a result `width` bits wide (1 or more; 64 and
/// above clamp nothing).
pub(crate) fn sh(width: u32) -> u8 {
    debug_assert!(width > 0);
    (64 - width.min(64)) as u8
}

/// One bytecode instruction. `dst`, `a` and `b` index the frame; `mem`
/// indexes [`Program::mems`]; `target` is a resolved op index. `m(sh)`
/// below is `u64::MAX >> sh`.
// One line per variant: the enum is a table.
#[rustfmt::skip]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Op {
    /// `f[dst] = mem[f[a]]`, bounds-checked (errors like the
    /// interpreter's `MemRead`).
    LoadMem { dst: u32, mem: u32, a: u32 },
    /// `f[dst] = !f[a] & m(sh)`.
    Not { dst: u32, a: u32, sh: u8 },
    /// `f[dst] = f[a].wrapping_neg() & m(sh)`.
    Neg { dst: u32, a: u32, sh: u8 },
    /// `f[dst] = (f[a] == 0) as u64` — logical not.
    IsZero { dst: u32, a: u32 },
    /// `f[dst] = f[a].wrapping_add(f[b]) & m(sh)`.
    Add { dst: u32, a: u32, b: u32, sh: u8 },
    /// `f[dst] = f[a].wrapping_sub(f[b]) & m(sh)`.
    Sub { dst: u32, a: u32, b: u32, sh: u8 },
    /// `f[dst] = (f[a] << f[b]) & m(sh)`, 0 for shifts of 64 or more.
    Shl { dst: u32, a: u32, b: u32, sh: u8 },
    /// `f[dst] = f[a] >> f[b]`, 0 for shifts of 64 or more.
    Shr { dst: u32, a: u32, b: u32 },
    /// Bitwise: `f[dst] = f[a] <op> f[b]`.
    And { dst: u32, a: u32, b: u32 },
    Or { dst: u32, a: u32, b: u32 },
    Xor { dst: u32, a: u32, b: u32 },
    /// Comparisons (unsigned) and logical connectives: `f[dst]` is 0 or 1.
    Eq { dst: u32, a: u32, b: u32 },
    Ne { dst: u32, a: u32, b: u32 },
    Lt { dst: u32, a: u32, b: u32 },
    Le { dst: u32, a: u32, b: u32 },
    Gt { dst: u32, a: u32, b: u32 },
    Ge { dst: u32, a: u32, b: u32 },
    LAnd { dst: u32, a: u32, b: u32 },
    LOr { dst: u32, a: u32, b: u32 },
    /// `f[dst] = (f[a] >> lo) & m(sh)` — a bit-slice read and, with a
    /// shadow `dst` and `lo == 0`, a full signal store.
    Slice { dst: u32, a: u32, lo: u8, sh: u8 },
    /// `f[dst] = (f[a] << shift) | f[b]` — one step of a concatenation,
    /// MSB-first (`f[b]` already fits its `shift` bits).
    Fold { dst: u32, a: u32, b: u32, shift: u8 },
    /// `f[dst][lo +: width] = f[a]` — a sliced signal store into the
    /// shadow slot `dst`, the other bits kept.
    Insert { dst: u32, a: u32, lo: u8, sh: u8 },
    /// Jump when `f[a] == 0` / `f[a] != 0`.
    Jz { a: u32, target: u32 },
    Jnz { a: u32, target: u32 },
    /// Compare and branch: jump when `f[a] <cmp> f[b]`.
    JEq { a: u32, b: u32, target: u32 },
    JNe { a: u32, b: u32, target: u32 },
    JLt { a: u32, b: u32, target: u32 },
    JLe { a: u32, b: u32, target: u32 },
    JGt { a: u32, b: u32, target: u32 },
    JGe { a: u32, b: u32, target: u32 },
    /// Slice, compare and branch: jump when `(f[a] >> lo) & m(sh)`
    /// equals / differs from `f[b]`.
    JBitsEq { a: u32, b: u32, target: u32, lo: u8, sh: u8 },
    JBitsNe { a: u32, b: u32, target: u32, lo: u8, sh: u8 },
    /// Unconditional jump.
    Jmp { target: u32 },
    /// Buffer a memory word write `mem[f[a]] <- f[b] & m(sh)`,
    /// bounds-checked at execution.
    StoreMem { mem: u32, a: u32, b: u32, sh: u8 },
    /// Select the next control state (a `goto` under a condition; last
    /// one wins).
    SetState { index: u32 },
    /// Halt at the end of this cycle.
    Halt,
}

impl Op {
    /// The frame slot this op writes, if it writes one.
    pub(crate) fn dst(&self) -> Option<u32> {
        let mut op = *self;
        op.dst_mut().copied()
    }

    pub(crate) fn dst_mut(&mut self) -> Option<&mut u32> {
        use Op::*;
        match self {
            LoadMem { dst, .. }
            | Not { dst, .. }
            | Neg { dst, .. }
            | IsZero { dst, .. }
            | Add { dst, .. }
            | Sub { dst, .. }
            | Shl { dst, .. }
            | Shr { dst, .. }
            | And { dst, .. }
            | Or { dst, .. }
            | Xor { dst, .. }
            | Eq { dst, .. }
            | Ne { dst, .. }
            | Lt { dst, .. }
            | Le { dst, .. }
            | Gt { dst, .. }
            | Ge { dst, .. }
            | LAnd { dst, .. }
            | LOr { dst, .. }
            | Slice { dst, .. }
            | Fold { dst, .. }
            | Insert { dst, .. } => Some(dst),
            _ => None,
        }
    }

    /// The frame slots this op reads as operands (an [`Op::Insert`] also
    /// reads its own shadow `dst`, which no op defines).
    pub(crate) fn reads(&self) -> [Option<u32>; 2] {
        use Op::*;
        match *self {
            LoadMem { a, .. }
            | Not { a, .. }
            | Neg { a, .. }
            | IsZero { a, .. }
            | Slice { a, .. }
            | Insert { a, .. }
            | Jz { a, .. }
            | Jnz { a, .. } => [Some(a), None],
            Add { a, b, .. }
            | Sub { a, b, .. }
            | Shl { a, b, .. }
            | Shr { a, b, .. }
            | And { a, b, .. }
            | Or { a, b, .. }
            | Xor { a, b, .. }
            | Eq { a, b, .. }
            | Ne { a, b, .. }
            | Lt { a, b, .. }
            | Le { a, b, .. }
            | Gt { a, b, .. }
            | Ge { a, b, .. }
            | LAnd { a, b, .. }
            | LOr { a, b, .. }
            | Fold { a, b, .. }
            | JEq { a, b, .. }
            | JNe { a, b, .. }
            | JLt { a, b, .. }
            | JLe { a, b, .. }
            | JGt { a, b, .. }
            | JGe { a, b, .. }
            | JBitsEq { a, b, .. }
            | JBitsNe { a, b, .. }
            | StoreMem { a, b, .. } => [Some(a), Some(b)],
            Jmp { .. } | SetState { .. } | Halt => [None, None],
        }
    }

    /// The jump target (a label id until lowering resolves it).
    pub(crate) fn target(&self) -> Option<u32> {
        let mut op = *self;
        op.target_mut().copied()
    }

    pub(crate) fn target_mut(&mut self) -> Option<&mut u32> {
        use Op::*;
        match self {
            Jz { target, .. }
            | Jnz { target, .. }
            | JEq { target, .. }
            | JNe { target, .. }
            | JLt { target, .. }
            | JLe { target, .. }
            | JGt { target, .. }
            | JGe { target, .. }
            | JBitsEq { target, .. }
            | JBitsNe { target, .. }
            | Jmp { target } => Some(target),
            _ => None,
        }
    }

    /// The clamp of a value-producing op that has one; narrowing it
    /// clamps the result further.
    pub(crate) fn clamp_mut(&mut self) -> Option<&mut u8> {
        use Op::*;
        match self {
            Not { sh, .. }
            | Neg { sh, .. }
            | Add { sh, .. }
            | Sub { sh, .. }
            | Shl { sh, .. }
            | Slice { sh, .. } => Some(sh),
            _ => None,
        }
    }
}

/// What a signal slot is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SigKind {
    /// A register (its reset value is in [`Program::image`]).
    Reg,
    /// An input port (reset to 0, driven externally).
    Input,
    /// An output port (reset to 0).
    Output,
}

/// Per-slot metadata.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SigInfo {
    pub width: u32,
    pub kind: SigKind,
}

/// Per-memory metadata: a contiguous frame range.
#[derive(Debug, Clone)]
pub(crate) struct MemInfo {
    pub name: String,
    /// First frame word of this memory.
    pub base: usize,
    pub words: u64,
    /// `mask(width)`.
    pub mask: u64,
}

/// One compiled control state.
#[derive(Debug, Clone)]
pub(crate) struct CompiledState {
    pub name: String,
    pub ops: Vec<Op>,
    /// Signal slots some op of this state stores to, ascending: all the
    /// commit has to look at.
    pub writes: Vec<u32>,
    /// The state the machine is in after a cycle here unless an
    /// [`Op::SetState`] says otherwise: the last unconditional `goto`,
    /// or this state.
    pub next: u32,
}

/// Compile-time statistics, surfaced as `exec.*` trace counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompileStats {
    /// States compiled.
    pub states: u64,
    /// Ops in the final program (after optimization and fusion).
    pub ops: u64,
    /// Expressions folded to constants at compile time.
    pub folded: u64,
    /// Common-subexpression hits (ops not emitted twice).
    pub cse: u64,
    /// Ops removed as dead code: unused results, jumps to the next op
    /// and `goto`s a later unconditional `goto` overrides.
    pub dead: u64,
}

/// The shared, immutable part of a [`CompiledMachine`].
#[derive(Debug)]
pub(crate) struct Program {
    pub name: String,
    pub sigs: Vec<SigInfo>,
    pub mems: Vec<MemInfo>,
    pub states: Vec<CompiledState>,
    /// Reset contents of the frame up to the first memory word: signal
    /// reset values, the same again as shadow, then constants (temps
    /// are 0).
    pub image: Vec<u64>,
    /// Total frame words (`image` plus memory storage).
    pub frame_len: usize,
    /// Signal name -> slot.
    pub sig_index: HashMap<String, u32>,
    /// Memory name -> index into `mems`.
    pub mem_index: HashMap<String, u32>,
    pub stats: CompileStats,
}

/// An ISL machine lowered to bytecode; produced by [`crate::compile`]
/// and executed by [`crate::CompiledSim`]. Cloning shares the program.
#[derive(Debug, Clone)]
pub struct CompiledMachine(pub(crate) Arc<Program>);

impl CompiledMachine {
    /// The machine's name.
    pub fn name(&self) -> &str {
        &self.0.name
    }

    /// Compile-time statistics (op counts, folds, CSE and DCE tallies).
    pub fn stats(&self) -> CompileStats {
        self.0.stats
    }
}
