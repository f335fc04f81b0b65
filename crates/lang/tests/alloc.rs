//! Allocation counts of one compile: timings cannot run in tier 1, and
//! this repeats exactly.

mod gen;

use silc_lang::Compiler;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// `(allocations, bytes)` asked for by this thread while `Some`: the
    /// tests of this file run side by side, each counting its own.
    static COUNT: Cell<Option<(u64, u64)>> = const { Cell::new(None) };
}

struct Counting;

fn count(bytes: usize) {
    let _ = COUNT.try_with(|c| {
        if let Some((allocs, total)) = c.get() {
            c.set(Some((allocs + 1, total + bytes as u64)));
        }
    });
}

// SAFETY: every request goes to `System` unchanged; the counters are
// statistics and publish nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's contract is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `(allocations, bytes)` of compiling `source` into `cells` cells.
fn measure(source: &str, cells: usize) -> (u64, u64) {
    // The prelude is parsed once per process; not on the meter.
    Compiler::new().compile("").expect("compiles");
    COUNT.with(|c| c.set(Some((0, 0))));
    let design = Compiler::new().compile(source).expect("compiles");
    let counted = COUNT.with(|c| c.take()).expect("counting");
    assert_eq!(design.library.len(), cells);
    counted
}

/// What the same compile took at the last commit whose front end copied
/// the program: a token, a tree node and a registered definition each
/// owned their text, and a placed cell cloned its definition.
const PARENT: (u64, u64) = (166_082, 24_981_323);

#[test]
fn one_compile_allocates_per_program_not_per_node() {
    let (allocs, bytes) = measure(&gen::program(1_000, 200), 201);
    assert!(
        allocs * 4 <= PARENT.0 && bytes * 2 <= PARENT.1,
        "{allocs} allocations, {bytes} bytes"
    );
    // Measured 2 570 and 1 654 542: what is left is elaboration, some 12.7
    // allocations a placed cell (the argument tuple its memo keeps, its
    // name, its element and port lists, a record's strings). They were
    // 4 864 and 2 064 200 while every scope was a hash map and every call
    // collected its arguments into a vector, and 9 741 and 2 832 191 while
    // the lexer filled a token vector and reading a record's field copied
    // the record. The bytes are 9.4 a source byte; they were 33.0 while a
    // token and an expression took 32 bytes each. A tenth of headroom.
    assert!(
        allocs <= 2_830 && bytes <= 1_820_000,
        "{allocs} allocations, {bytes} bytes"
    );
    // A thousand more definitions that are never placed cost source-sized
    // vectors, not allocations: the definition map and the item list grow
    // a step each, and nothing else notices.
    let (more, _) = measure(&gen::program(2_000, 200), 201);
    assert!(more <= allocs + 8, "{more} against {allocs}");
}

/// A `fn` call, a block, a loop trip and a builtin take no allocation:
/// their variables and arguments are slots of one value stack. A program
/// that makes a thousand times as many of them allocates as much.
#[test]
fn calls_blocks_and_loop_trips_allocate_nothing() {
    let program = |trips: u32| {
        format!(
            "fn f(a, b = 2) {{\n  let c = a + b;\n  if c > 3 {{\n    let d = c * 2;\n    \
             return max(d, c);\n  }}\n  return c;\n}}\nlet s = 0;\nfor i in 0..{trips} {{\n  \
             let t = f(i) + min(i, 3);\n  s = s + t;\n}}\nbox metal (0, 0) (4, 4);"
        )
    };
    let (few, _) = measure(&program(10), 1);
    let (many, _) = measure(&program(10_000), 1);
    assert_eq!(many, few);
}
