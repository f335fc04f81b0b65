//! Allocation counts of one compile: timings cannot run in tier 1, and
//! this repeats exactly.

mod gen;

use silc_lang::Compiler;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

struct Counting;

fn count(bytes: usize) {
    if COUNTING.load(Relaxed) {
        ALLOCS.fetch_add(1, Relaxed);
        BYTES.fetch_add(bytes as u64, Relaxed);
    }
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

/// `(allocations, bytes)` of compiling `source`, dropping the design included.
fn measure(source: &str) -> (u64, u64) {
    let (allocs, bytes) = (ALLOCS.load(Relaxed), BYTES.load(Relaxed));
    COUNTING.store(true, Relaxed);
    let design = Compiler::new().compile(source).expect("compiles");
    COUNTING.store(false, Relaxed);
    assert_eq!(design.library.len(), 201);
    (ALLOCS.load(Relaxed) - allocs, BYTES.load(Relaxed) - bytes)
}

/// What the same compile took at the last commit whose front end copied
/// the program: a token, a tree node and a registered definition each
/// owned their text, and a placed cell cloned its definition.
const PARENT: (u64, u64) = (166_082, 24_981_323);

#[test]
fn one_compile_allocates_per_program_not_per_node() {
    // The prelude is parsed once per process; not on the meter.
    Compiler::new().compile("").expect("compiles");
    let (allocs, bytes) = measure(&gen::program(1_000, 200));
    assert!(
        allocs * 4 <= PARENT.0 && bytes * 2 <= PARENT.1,
        "{allocs} allocations, {bytes} bytes"
    );
    // Measured 4 864 and 2 064 200: what is left is elaboration, some 24
    // allocations a placed cell. They were 9 741 and 2 832 191 while the
    // lexer filled a token vector and reading a record's field copied the
    // record. The bytes are 11.7 a source byte; they were 33.0 while a
    // token and an expression took 32 bytes each. A tenth of headroom.
    assert!(
        allocs <= 5_350 && bytes <= 2_271_000,
        "{allocs} allocations, {bytes} bytes"
    );
    // A thousand more definitions that are never placed cost source-sized
    // vectors, not allocations: the definition map and the item list grow
    // a step each, and nothing else notices.
    let (more, _) = measure(&gen::program(2_000, 200));
    assert!(more <= allocs + 8, "{more} against {allocs}");
}
