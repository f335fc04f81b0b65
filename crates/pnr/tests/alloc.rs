//! Allocation counts of place and route: timings cannot run in tier 1,
//! and these repeat exactly.

use silc_pnr::{gen::random_netlist, place_and_route, Floorplan, RouteStack};
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

/// Allocations and bytes requested while `work` runs (a `realloc`
/// counts once, at its new size).
fn allocations<T>(work: impl FnOnce() -> T) -> (u64, u64, T) {
    let (allocs, bytes) = (ALLOCS.load(Relaxed), BYTES.load(Relaxed));
    COUNTING.store(true, Relaxed);
    let out = work();
    COUNTING.store(false, Relaxed);
    (
        ALLOCS.load(Relaxed) - allocs,
        BYTES.load(Relaxed) - bytes,
        out,
    )
}

/// `(cells, allocations, bytes)` placing and routing the ledger's probe
/// chips (generator seed 1, squarish floorplans) when every search
/// allocated four grid-sized vectors and asked the rectangle index
/// again, congestion lived in hash maps and a tree in a `BTreeSet`.
const PARENT: [(usize, u64, u64); 3] = [
    (16, 1_608, 1_294_467),
    (24, 3_039, 3_507_569),
    (32, 6_014, 10_661_901),
];

/// One test, so that nothing else allocates while the meter runs.
#[test]
fn routing_allocates_per_run_not_per_search() {
    let stack = RouteStack::mead_conway_nmos();
    for (cells, parent_allocs, parent_bytes) in PARENT {
        let netlist = random_netlist(1, cells);
        let fp = Floorplan::squarish(cells);
        let (allocs, bytes, out) = allocations(|| place_and_route(&netlist, &stack, &fp, false));
        let report = out.unwrap().report;
        assert_eq!(report.routed, report.nets);
        // Measured 780 / 1 258 / 2 150 allocations and 235 661 / 431 162 /
        // 644 375 bytes: the run's per-node tables grow with the grid,
        // not with the number of searches.
        assert!(
            allocs <= parent_allocs && bytes * 5 <= parent_bytes,
            "{cells} cells: {allocs} allocations, {bytes} bytes"
        );
    }
}
