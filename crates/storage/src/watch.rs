//! Wake-up calls for whoever waits on the journal's durable position
//! without a thread to block: a server front end keeping a follower's
//! long-polled `replica.sync` ([`Journal::watch`](crate::Journal::watch)).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// What a durable-position watcher is woken with.
pub type Waker = Arc<dyn Fn() + Send + Sync>;

/// The registered wakers of one journal.
#[derive(Default)]
pub(crate) struct Watchers {
    /// The next watch id and the registered wakers.
    wakers: Mutex<(u64, Vec<(u64, Waker)>)>,
    /// How many are registered, readable without the lock — all a flush
    /// pays while nobody watches.
    pub(crate) count: AtomicUsize,
}

impl Watchers {
    fn lock(&self) -> std::sync::MutexGuard<'_, (u64, Vec<(u64, Waker)>)> {
        self.wakers.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Call every waker. Never called with a journal lock held — a
    /// waker may take locks of its own.
    pub(crate) fn notify(&self) {
        if self.count.load(Ordering::SeqCst) > 0 {
            for (_, waker) in &self.lock().1 {
                waker();
            }
        }
    }

    pub(crate) fn register(self: &Arc<Self>, waker: Waker) -> DurableWatch {
        let mut wakers = self.lock();
        wakers.0 += 1;
        let id = wakers.0;
        wakers.1.push((id, waker));
        self.count.store(wakers.1.len(), Ordering::SeqCst);
        DurableWatch {
            watchers: Arc::clone(self),
            id,
        }
    }
}

/// A registered watcher of the durable position; dropping it
/// unregisters.
pub struct DurableWatch {
    watchers: Arc<Watchers>,
    id: u64,
}

impl Drop for DurableWatch {
    fn drop(&mut self) {
        let mut wakers = self.watchers.lock();
        wakers.1.retain(|(id, _)| *id != self.id);
        self.watchers.count.store(wakers.1.len(), Ordering::SeqCst);
    }
}
