//! A counting wrapper around the system allocator.
//!
//! The benchmark binary installs [`CountingAlloc`] as its global
//! allocator so the traced pass can report allocations per invocation
//! around `ExecutionEngine::invoke_with_scratch`. Counting is switched on
//! only for the traced pass: the timed pass pays one load of a flag that
//! no thread writes while it runs, not a shared counter update per
//! allocation. Both atomics are statistics that publish no other data, so
//! relaxed ordering suffices.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting allocations and reallocations while
/// [`set_counting`] is on.
pub struct CountingAlloc;

fn count() {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter has no
// effect on the memory handed out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Switches allocation counting on or off for the whole process.
pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Allocations counted so far (0 when the counting allocator is not
/// installed, as in the test harness, or counting was never on).
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}
