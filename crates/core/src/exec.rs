//! Order-stable parallel execution: one executor, [`ordered_map`].
//!
//! Results come back in **input order**, regardless of worker count or
//! completion order. It is a scoped, work-stealing fan-out for borrowing
//! closures: the calling thread and its scoped helpers pull items off a
//! shared queue one at a time, so a straggler item never serializes a
//! whole chunk behind it. Region search,
//! [`clean_stream_parallel`](crate::monitor::clean_stream_parallel) and
//! `cerfix-server`'s batch `clean` all fan out through it; with one
//! thread it is a plain loop on the calling thread. A server whose many
//! requests each fan out draws their helpers from one [`ThreadBudget`],
//! so the helpers alive at once stay within a fixed count.
//!
//! `std`-only (scoped threads, a `Mutex` and atomics), and fail fast: the
//! first `Err` stops remaining work and is returned; a panicking item
//! reaches the caller when the scope joins.

use std::convert::Infallible;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::thread;

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Apply `f` to every item across `threads` threads — the caller and
/// `threads - 1` scoped helpers — returning results in input order.
/// Work-stealing: each thread pulls the next unprocessed item, so
/// heterogeneous item costs balance automatically. On the first `Err`
/// remaining items are abandoned and that error is returned.
///
/// `threads <= 1` (or a short input) degrades to a plain sequential loop
/// with identical results — callers need no separate code path.
pub fn ordered_map<T, U, E, F>(threads: usize, items: Vec<T>, f: F) -> Result<Vec<U>, E>
where
    T: Send,
    U: Send,
    E: Send,
    F: Fn(usize, T) -> Result<U, E> + Sync,
{
    let n = items.len();
    if threads <= 1 || n <= 1 {
        let mut out = Vec::with_capacity(n);
        for (idx, item) in items.into_iter().enumerate() {
            out.push(f(idx, item)?);
        }
        return Ok(out);
    }
    let queue = Mutex::new(items.into_iter().enumerate());
    let mut slots: Vec<Option<U>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    let results = Mutex::new(slots);
    let first_error: Mutex<Option<E>> = Mutex::new(None);
    let failed = AtomicBool::new(false);
    let work = || loop {
        if failed.load(Ordering::Relaxed) {
            return;
        }
        let next = lock(&queue).next();
        let Some((idx, item)) = next else { return };
        match f(idx, item) {
            Ok(out) => lock(&results)[idx] = Some(out),
            Err(e) => {
                let mut slot = lock(&first_error);
                if slot.is_none() {
                    *slot = Some(e);
                }
                failed.store(true, Ordering::Relaxed);
                return;
            }
        }
    };

    thread::scope(|scope| {
        for _ in 1..threads.min(n) {
            scope.spawn(work);
        }
        work();
    });

    if let Some(e) = first_error
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
    {
        return Err(e);
    }
    Ok(results
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
        .into_iter()
        .map(|slot| slot.expect("no error ⇒ every slot filled"))
        .collect())
}

/// A fixed number of helper threads shared by every fan-out drawn from
/// it. Each [`ordered_map`](ThreadBudget::ordered_map) call runs on its
/// caller plus as many helpers as are free at that moment, and returns
/// them when it ends, so however many callers fan out at once, at most
/// the budget's helpers are alive besides the callers themselves.
#[derive(Debug)]
pub struct ThreadBudget {
    free: AtomicUsize,
}

impl ThreadBudget {
    /// A budget of `helpers` threads.
    pub fn new(helpers: usize) -> ThreadBudget {
        ThreadBudget {
            free: AtomicUsize::new(helpers),
        }
    }

    /// [`ordered_map`] across up to `threads` threads: the caller, plus
    /// up to `threads - 1` helpers taken from the budget for the call —
    /// fewer, down to none, when other calls hold them.
    pub fn ordered_map<T, U, E, F>(&self, threads: usize, items: Vec<T>, f: F) -> Result<Vec<U>, E>
    where
        T: Send,
        U: Send,
        E: Send,
        F: Fn(usize, T) -> Result<U, E> + Sync,
    {
        let lent = self.lend(threads.saturating_sub(1));
        ordered_map(1 + lent.helpers, items, f)
    }

    fn lend(&self, want: usize) -> Lent<'_> {
        let mut helpers = 0;
        if want > 0 {
            let _ = self
                .free
                .fetch_update(Ordering::AcqRel, Ordering::Acquire, |free| {
                    helpers = want.min(free);
                    (helpers > 0).then(|| free - helpers)
                });
        }
        Lent {
            budget: self,
            helpers,
        }
    }
}

/// Helpers lent to one call; returned when dropped, unwinding included.
struct Lent<'a> {
    budget: &'a ThreadBudget,
    helpers: usize,
}

impl Drop for Lent<'_> {
    fn drop(&mut self) {
        if self.helpers > 0 {
            self.budget.free.fetch_add(self.helpers, Ordering::AcqRel);
        }
    }
}

/// A thread count whose [`map_ordered`](WorkerPool::map_ordered) is
/// [`ordered_map`] at that count — it owns no threads and no queue.
///
/// The type exists only for the benchmark ledger's `exec` probe, which
/// times `map_ordered`; it is deleted when that probe is retired. Code in
/// this workspace calls [`ordered_map`].
#[derive(Debug)]
pub struct WorkerPool {
    threads: usize,
}

impl WorkerPool {
    /// A fan-out over `threads.max(1)` scoped workers per call.
    pub fn new(threads: usize) -> WorkerPool {
        WorkerPool {
            threads: threads.max(1),
        }
    }

    /// Workers each `map_ordered` call fans out across.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// [`ordered_map`] over `items` with an infallible `f`.
    pub fn map_ordered<T: Send, U: Send, F>(&self, items: Vec<T>, f: F) -> Vec<U>
    where
        F: Fn(usize, T) -> U + Sync,
    {
        let Ok(out) = ordered_map(self.threads, items, |idx, item| {
            Ok::<U, Infallible>(f(idx, item))
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordered_map_preserves_order() {
        for threads in [1, 2, 4, 9] {
            let items: Vec<usize> = (0..100).collect();
            let out: Result<Vec<usize>, ()> = ordered_map(threads, items, |idx, item| {
                assert_eq!(idx, item);
                Ok(item * 2)
            });
            assert_eq!(out.unwrap(), (0..100).map(|i| i * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn ordered_map_fails_fast() {
        let counter = AtomicUsize::new(0);
        let out: Result<Vec<usize>, String> = ordered_map(4, (0..1000).collect(), |_, item| {
            counter.fetch_add(1, Ordering::Relaxed);
            if item == 3 {
                Err("boom".to_string())
            } else {
                Ok(item)
            }
        });
        assert_eq!(out.unwrap_err(), "boom");
        assert!(
            counter.load(Ordering::Relaxed) < 1000,
            "abandoned remaining work"
        );
    }

    #[test]
    fn ordered_map_empty_and_single() {
        let empty: Result<Vec<u8>, ()> = ordered_map(4, Vec::<u8>::new(), |_, x| Ok(x));
        assert_eq!(empty.unwrap(), Vec::<u8>::new());
        let one: Result<Vec<u8>, ()> = ordered_map(4, vec![7u8], |_, x| Ok(x));
        assert_eq!(one.unwrap(), vec![7]);
    }

    #[test]
    fn pool_map_ordered_matches_input_order() {
        let pool = WorkerPool::new(4);
        assert_eq!(pool.threads(), 4);
        let out = pool.map_ordered((0..256usize).collect(), |idx, item| {
            assert_eq!(idx, item);
            item + 1
        });
        assert_eq!(out, (1..=256).collect::<Vec<_>>());
    }

    #[test]
    fn ordered_map_propagates_panics() {
        for threads in [1, 4] {
            let result = std::panic::catch_unwind(|| {
                ordered_map(threads, (0..10).collect(), |_, x: usize| {
                    assert!(x != 5, "boom");
                    Ok::<usize, ()>(x)
                })
            });
            assert!(
                result.is_err(),
                "{threads} threads: the panic reaches the caller"
            );
        }
    }

    #[test]
    fn budget_lends_only_free_helpers_and_takes_them_back() {
        let free = |budget: &ThreadBudget| budget.free.load(Ordering::Relaxed);
        let budget = ThreadBudget::new(2);
        let threads = Mutex::new(std::collections::HashSet::new());
        let out: Result<Vec<usize>, ()> = budget.ordered_map(8, (0..64).collect(), |_, x| {
            assert_eq!(free(&budget), 0, "both helpers lent for the call");
            lock(&threads).insert(thread::current().id());
            thread::sleep(std::time::Duration::from_micros(200));
            Ok(x)
        });
        assert_eq!(out.unwrap(), (0..64).collect::<Vec<_>>());
        assert!(
            lock(&threads).len() <= 3,
            "the caller and two helpers at most"
        );
        assert_eq!(free(&budget), 2, "returned when the call ends");

        // A call that finds the budget spent runs on its caller alone.
        let nested: Result<Vec<Vec<usize>>, ()> = budget.ordered_map(3, vec![0, 1], |_, _| {
            budget.ordered_map(4, (0..8).collect(), |_, y| {
                assert_eq!(free(&budget), 0);
                Ok(y)
            })
        });
        assert_eq!(nested.unwrap().len(), 2);
        assert_eq!(free(&budget), 2);

        // A panicking item returns the helpers too.
        let result = std::panic::catch_unwind(|| {
            budget.ordered_map(3, (0..10).collect(), |_, x: usize| {
                assert!(x != 5, "boom");
                Ok::<usize, ()>(x)
            })
        });
        assert!(result.is_err());
        assert_eq!(free(&budget), 2);
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.threads(), 1);
        assert_eq!(
            pool.map_ordered(vec![1, 2, 3], |_, x: i32| -x),
            vec![-1, -2, -3]
        );
    }
}
