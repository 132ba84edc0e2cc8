//! Order-stable parallel execution.
//!
//! Two executors share one contract — results come back in **input
//! order**, regardless of worker count or completion order:
//!
//! * [`ordered_map`] — a scoped, work-stealing fan-out for borrowing
//!   closures. Workers pull items off a shared queue one at a time, so a
//!   straggler item never serializes a whole chunk behind it (the
//!   previous stream driver chunked statically). Used by
//!   [`clean_stream_parallel`](crate::monitor::clean_stream_parallel).
//! * [`WorkerPool`] — a long-lived pool of named threads for `'static`
//!   jobs, the batch executor behind `cerfix-server`: a service holds one
//!   pool for its lifetime and fans each batch request across it via
//!   [`WorkerPool::map_ordered`].
//!
//! Both are `std`-only (scoped threads, `Mutex`, `Condvar`) and fail
//! fast: the first `Err` stops remaining work and is returned.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread;

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Apply `f` to every item across `threads` workers, returning results in
/// input order. Work-stealing: each worker pulls the next unprocessed
/// item, so heterogeneous item costs balance automatically. On the first
/// `Err` remaining items are abandoned and that error is returned.
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
        return items
            .into_iter()
            .enumerate()
            .map(|(idx, item)| f(idx, item))
            .collect();
    }
    let queue = Mutex::new(items.into_iter().enumerate());
    let mut slots: Vec<Option<U>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    let results = Mutex::new(slots);
    let first_error: Mutex<Option<E>> = Mutex::new(None);
    let failed = AtomicBool::new(false);

    thread::scope(|scope| {
        for _ in 0..threads.min(n) {
            scope.spawn(|| loop {
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
            });
        }
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

type Job = Box<dyn FnOnce() + Send + 'static>;

struct PoolShared {
    queue: Mutex<VecDeque<Job>>,
    work_ready: Condvar,
    shutdown: AtomicBool,
}

/// A long-lived pool of worker threads executing `'static` jobs.
///
/// Designed for services: construct once with the configured parallelism,
/// then [`submit`](WorkerPool::submit) fire-and-forget jobs or fan a
/// batch out with [`map_ordered`](WorkerPool::map_ordered). Dropping the
/// pool wakes all workers, lets queued jobs finish, and joins the
/// threads.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    handles: Vec<thread::JoinHandle<()>>,
    /// Jobs ever submitted (a statistic: it publishes nothing else).
    submitted: AtomicU64,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.handles.len())
            .finish()
    }
}

impl WorkerPool {
    /// Spawn a pool of `threads.max(1)` workers.
    pub fn new(threads: usize) -> WorkerPool {
        let threads = threads.max(1);
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(VecDeque::new()),
            work_ready: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let handles = (0..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("cerfix-worker-{i}"))
                    .spawn(move || Self::worker_loop(&shared))
                    .expect("spawn worker thread")
            })
            .collect();
        WorkerPool {
            shared,
            handles,
            submitted: AtomicU64::new(0),
        }
    }

    fn worker_loop(shared: &PoolShared) {
        loop {
            let job = {
                let mut queue = lock(&shared.queue);
                loop {
                    if let Some(job) = queue.pop_front() {
                        break job;
                    }
                    if shared.shutdown.load(Ordering::Acquire) {
                        return;
                    }
                    queue = shared
                        .work_ready
                        .wait(queue)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            };
            // A panicking job must not take the worker down with it: the
            // pool outlives any single request, and `map_ordered` callers
            // on other threads still need the remaining workers.
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
        }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.handles.len()
    }

    /// Jobs currently waiting in the queue (a point-in-time gauge for
    /// telemetry: one lock acquisition, no allocation; jobs already
    /// claimed by workers are not counted).
    pub fn queue_depth(&self) -> usize {
        lock(&self.shared.queue).len()
    }

    /// Jobs submitted since the pool was built, `map_ordered`'s helpers
    /// included.
    pub fn jobs_submitted(&self) -> u64 {
        self.submitted.load(Ordering::Relaxed)
    }

    /// Enqueue a fire-and-forget job.
    pub fn submit(&self, job: impl FnOnce() + Send + 'static) {
        self.submitted.fetch_add(1, Ordering::Relaxed);
        lock(&self.shared.queue).push_back(Box::new(job));
        self.shared.work_ready.notify_one();
    }

    /// Fan `items` across the pool, blocking until every result is in,
    /// and return them in input order.
    ///
    /// **Caller-runs:** the calling thread participates in the batch —
    /// it pulls pending items alongside the pool workers instead of only
    /// waiting. This keeps the call deadlock-free even when it is made
    /// *from a pool worker* (a job that fans out a sub-batch): with every
    /// worker busy, the caller simply processes its own items. It also
    /// means concurrent `map_ordered` calls from different request
    /// threads interleave fairly on one pool.
    ///
    /// A panicking job is re-raised on the *calling* thread (like a
    /// scoped-thread join) once every other job has finished — the
    /// caller never deadlocks waiting on a completion that died.
    pub fn map_ordered<T, U, F>(&self, items: Vec<T>, f: F) -> Vec<U>
    where
        T: Send + 'static,
        U: Send + 'static,
        F: Fn(usize, T) -> U + Send + Sync + 'static,
    {
        struct BatchState<U> {
            slots: Vec<Option<U>>,
            completed: usize,
            panic: Option<Box<dyn std::any::Any + Send>>,
        }
        struct Batch<T, U, F> {
            queue: Mutex<VecDeque<(usize, T)>>,
            state: Mutex<BatchState<U>>,
            finished: Condvar,
            f: F,
            n: usize,
        }
        impl<T, U, F> Batch<T, U, F>
        where
            F: Fn(usize, T) -> U,
        {
            /// Pull and run items until the queue is empty. Returns true
            /// once this call has observed the whole batch completed.
            fn run(&self) -> bool {
                loop {
                    let next = lock(&self.queue).pop_front();
                    let Some((idx, item)) = next else {
                        return lock(&self.state).completed == self.n;
                    };
                    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        (self.f)(idx, item)
                    }));
                    let mut guard = lock(&self.state);
                    match result {
                        Ok(out) => guard.slots[idx] = Some(out),
                        Err(payload) => {
                            if guard.panic.is_none() {
                                guard.panic = Some(payload);
                            }
                        }
                    }
                    guard.completed += 1;
                    if guard.completed == self.n {
                        self.finished.notify_all();
                        return true;
                    }
                }
            }
        }
        let n = items.len();
        if n == 0 {
            return Vec::new();
        }
        let mut slots: Vec<Option<U>> = Vec::with_capacity(n);
        slots.resize_with(n, || None);
        let batch = Arc::new(Batch {
            queue: Mutex::new(items.into_iter().enumerate().collect()),
            state: Mutex::new(BatchState {
                slots,
                completed: 0,
                panic: None,
            }),
            finished: Condvar::new(),
            f,
            n,
        });
        // One helper job per worker (capped by the batch size minus the
        // caller's own share); each drains the shared queue, so a helper
        // that starts late — or never, on a saturated pool — costs
        // nothing but its queue check.
        for _ in 0..self.threads().min(n.saturating_sub(1)) {
            let batch = Arc::clone(&batch);
            self.submit(move || {
                batch.run();
            });
        }
        batch.run();
        let mut guard = lock(&batch.state);
        while guard.completed < n {
            guard = batch
                .finished
                .wait(guard)
                .unwrap_or_else(PoisonError::into_inner);
        }
        if let Some(payload) = guard.panic.take() {
            drop(guard);
            std::panic::resume_unwind(payload);
        }
        std::mem::take(&mut guard.slots)
            .into_iter()
            .map(|slot| slot.expect("no panic ⇒ every slot filled"))
            .collect()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.work_ready.notify_all();
        let current = thread::current().id();
        for handle in self.handles.drain(..) {
            // The pool can be dropped *from one of its own workers*: a
            // job holding the last service handle (e.g. a job outliving
            // a server shutdown) drops it — and the pool with it — when
            // it finishes. Joining ourselves would be an
            // instant deadlock (EDEADLK); detach instead — this worker
            // exits its loop right after the current job.
            if handle.thread().id() == current {
                continue;
            }
            // A worker that panicked already unwound; joining propagates
            // nothing further. Remaining queued jobs are completed first
            // (workers drain the queue before honoring shutdown).
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

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
    fn pool_map_ordered_propagates_panics() {
        let pool = WorkerPool::new(2);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.map_ordered((0..10).collect(), |_, x: usize| {
                assert!(x != 5, "boom");
                x
            })
        }));
        assert!(result.is_err(), "panic must reach the caller, not deadlock");
        // The pool survives and serves later batches.
        assert_eq!(
            pool.map_ordered(vec![1, 2], |_, x: i32| x * 10),
            vec![10, 20]
        );
    }

    #[test]
    fn map_ordered_reentrant_from_worker_does_not_deadlock() {
        // A batch job that itself fans out a sub-batch on the same pool:
        // with one worker this deadlocked before caller-runs (the worker
        // waited on jobs queued behind itself forever).
        let pool = Arc::new(WorkerPool::new(1));
        let inner_pool = Arc::clone(&pool);
        let out = pool.map_ordered(vec![10usize, 20], move |_, x| {
            inner_pool.map_ordered(vec![x, x + 1], |_, y: usize| y * 2)
        });
        assert_eq!(out, vec![vec![20, 22], vec![40, 42]]);
    }

    #[test]
    fn pool_survives_many_batches() {
        let pool = WorkerPool::new(3);
        for round in 0..20 {
            let out = pool.map_ordered(vec![round; 10], |_, x: usize| x * x);
            assert_eq!(out, vec![round * round; 10]);
        }
    }

    #[test]
    fn pool_submit_runs_jobs() {
        let pool = WorkerPool::new(2);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..50 {
            let counter = Arc::clone(&counter);
            pool.submit(move || {
                counter.fetch_add(1, Ordering::Relaxed);
            });
        }
        drop(pool); // drains the queue before joining
        assert_eq!(counter.load(Ordering::Relaxed), 50);
    }

    #[test]
    fn dropping_pool_from_its_own_worker_does_not_deadlock() {
        // A job that owns the last handle to its own pool (the shape a
        // server batch job takes when it outlives shutdown): the drop
        // runs on the worker and must neither hang nor panic.
        let pool = Arc::new(WorkerPool::new(2));
        let own = Arc::clone(&pool);
        let done = Arc::new(AtomicUsize::new(0));
        let observed = Arc::clone(&done);
        pool.submit(move || {
            // Give this job the last reference.
            let own = own;
            std::thread::sleep(std::time::Duration::from_millis(20));
            drop(own);
            observed.fetch_add(1, Ordering::SeqCst);
        });
        drop(pool); // job now holds the only Arc
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while done.load(Ordering::SeqCst) == 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "worker wedged dropping its own pool"
            );
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
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
