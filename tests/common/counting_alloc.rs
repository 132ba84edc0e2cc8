//! A counting global allocator, for the guards that bound allocations
//! per request (`alloc_guard`, `parse_guard`). A test binary that
//! includes this file (`#[path = "common/counting_alloc.rs"] mod …`)
//! runs on it. It keeps two counts: a process-wide one, for windows
//! whose work spans threads (a journal flusher, a follower, `clean`'s
//! helpers) — such a binary holds exactly one `#[test]`, since a sibling
//! on another thread would allocate into the window — and a per-thread
//! one, for windows whose work stays on the calling thread, which no
//! other thread of the binary can reach.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

impl CountingAlloc {
    fn count_one() {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        let _ = THREAD_ALLOCS.try_with(|count| count.set(count.get() + 1));
    }
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counter bumps touch no allocator state, and the
// thread-local is a `const`-initialised `Cell` with no destructor, so
// touching it never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CountingAlloc::count_one();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CountingAlloc::count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Allocations (and reallocations) made by this process so far.
pub fn count() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Allocations (and reallocations) made by the calling thread so far.
#[allow(dead_code)] // `parse_guard` counts process-wide only
pub fn thread_count() -> u64 {
    THREAD_ALLOCS.with(Cell::get)
}
