//! A counting global allocator, for the guards that bound allocations
//! per request (`alloc_guard`, `parse_guard`). A test binary that
//! includes this file (`#[path = "common/counting_alloc.rs"] mod …`)
//! runs on it; the counter is process-wide, so such a binary holds
//! exactly one `#[test]` — a sibling on another thread would allocate
//! into the window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counter bump touches no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Allocations (and reallocations) made by this process so far.
pub fn count() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}
