//! Process-wide allocation counter (`allocs_per_unit`, and every
//! `*.allocs.*` layer metric).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // Const-initialised and without a destructor, so touching it from
    // inside the allocator can itself neither allocate nor recurse.
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    // `try_with`: a thread that is being torn down still allocates.
    let _ = THREAD_ALLOCS.try_with(|n| n.set(n.get() + 1));
}

/// Forwards to the system allocator, counting `alloc` and `realloc`.
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a relaxed
// statistic that publishes no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }
}

/// Allocations made by the whole process so far.
pub fn count() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Allocations made by the calling thread so far: what "the generator
/// allocates nothing" is checked with, whatever other threads do.
#[cfg(test)]
pub fn thread_count() -> u64 {
    THREAD_ALLOCS.with(Cell::get)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_this_threads_allocations_apart_from_the_process() {
        let (process, thread) = (count(), thread_count());
        let boxed = std::hint::black_box(Box::new(7u64));
        assert_eq!(thread_count() - thread, 1);
        assert!(count() - process >= 1);
        drop(boxed);
    }
}
