//! Allocation counts of the cube calculus: timings cannot run in tier 1,
//! and these repeat exactly.

mod gen;

use silc_logic::{minimize_heuristic, Cover, Cube, Lit, Scratch};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct Counting;

fn count() {
    if COUNTING.load(Relaxed) {
        ALLOCS.fetch_add(1, Relaxed);
    }
}

// SAFETY: every request goes to `System` unchanged; the counter is a
// statistic and publishes nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's contract is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made while `work` runs.
fn allocations<T>(work: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.load(Relaxed);
    COUNTING.store(true, Relaxed);
    let out = work();
    COUNTING.store(false, Relaxed);
    (ALLOCS.load(Relaxed) - before, out)
}

/// What minimizing the same table took when a cube was a `Vec<Lit>`:
/// one heap vector a cube a cofactor a recursion level.
const PARENT: u64 = 134_541;

/// One test, so that nothing else allocates while the meter runs.
#[test]
fn the_calculus_allocates_per_question_not_per_cube() {
    // The pinned 10-input, 6-output table with don't-cares.
    let table = gen::table(&gen::PINNED[4]);
    assert_eq!((table.num_inputs(), table.num_outputs()), (10, 6));
    let covers: Vec<(Cover, Cover)> = (0..6)
        .map(|o| (table.on_cover(o).unwrap(), table.dc_cover(o).unwrap()))
        .collect();
    let minimize = || {
        let minimized = covers.iter().map(|(on, dc)| minimize_heuristic(on, dc));
        minimized.map(|c| c.unwrap().len()).sum::<usize>()
    };
    let (allocs, terms) = allocations(minimize);
    assert_eq!(terms, 98);
    // Measured 179: some thirty a cover, for the sorted copies of EXPAND
    // and IRREDUNDANT and the scratch stack's growth. A tenth of headroom
    // on that, far inside the tenth of the parent's count asked for.
    assert!(
        allocs * 10 <= PARENT && allocs <= 200,
        "{allocs} allocations"
    );

    // A cube of 64 inputs is four words inline: building a cover costs
    // its one vector, and asking it a thousand questions costs the
    // scratch stack's growth and nothing a cube.
    let cube = |i: usize| {
        let mut c = Cube::universe(64);
        c.set_lit(i % 64, Lit::One);
        c.set_lit((i / 64 + i + 1) % 64, Lit::Zero);
        c
    };
    let (allocs, cover) = allocations(|| {
        let cubes = (0..1_000).map(cube).collect();
        Cover::from_cubes(64, cubes).unwrap()
    });
    assert_eq!(allocs, 1);
    let mut scratch = Scratch::default();
    let (allocs, covered) = allocations(|| {
        let questions = cover
            .cubes()
            .iter()
            .filter(|c| scratch.covers_cube(&cover, c));
        questions.count()
    });
    assert_eq!(covered, 1_000);
    // Measured 11, all of them the stack doubling.
    assert!(allocs <= 16, "{allocs} allocations");
}
