//! The one lock-free telemetry ring: fixed-size seqlock slots of
//! `WORDS` 64-bit words each.
//!
//! Writers claim monotonically increasing indices with a single
//! `fetch_add` and publish through the slot's sequence — `2g + 1` while
//! the writer of claim `g` is storing words, `2g + 2` once it is done —
//! with relaxed atomic stores in between. Recording therefore never
//! locks and never allocates, which is what lets the CI-guarded
//! `session.get = 0 allocs/req` invariant hold with tracing and the
//! diagnostic log enabled, and makes it safe to record from connection
//! and flusher threads. Readers walk backwards from the claim head and
//! accept a slot only when they observe the same "done" value on both
//! sides of their copy; a slot being overwritten concurrently is simply
//! skipped — telemetry, not a log.
//!
//! What the words mean is the holder's business: [`crate::trace`] packs
//! a request span into 14, [`crate::diag`] a diagnostic event into 32.

use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::{RwLock, RwLockReadGuard};

/// Largest ring size an operator's buffer setting is clamped to.
const MAX_SLOTS: usize = 1 << 20;

/// One seqlock slot (see the module docs for the `seq` encoding).
struct Slot<const WORDS: usize> {
    seq: AtomicU64,
    words: [AtomicU64; WORDS],
}

impl<const WORDS: usize> Slot<WORDS> {
    /// A slot never written: every word 0. A ring is built from this
    /// constant value rather than per-word closures so that filling it
    /// compiles to one zeroed allocation; built word by word, the
    /// start-up write of the trace and diagnostic rings (hundreds of KB)
    /// touches every page of them.
    const fn empty() -> Slot<WORDS> {
        Slot {
            seq: AtomicU64::new(0),
            words: [const { AtomicU64::new(0) }; WORDS],
        }
    }
}

/// The slots a ring asked to hold `capacity` records has: rounded up to
/// a power of two and clamped to [`MAX_SLOTS`]; 0 disables the ring. A
/// caller comparing a requested size with a ring's capacity compares
/// through this.
pub(crate) fn slots_for(capacity: usize) -> usize {
    match capacity {
        0 => 0,
        n => n.min(MAX_SLOTS).next_power_of_two(),
    }
}

/// Fixed-size multi-writer ring keeping the most recent `len` records.
pub(crate) struct SeqRing<const WORDS: usize> {
    slots: Box<[Slot<WORDS>]>,
    mask: u64,
    /// Next claim index (monotonic; total records ever made).
    head: AtomicU64,
}

impl<const WORDS: usize> SeqRing<WORDS> {
    /// A ring of [`slots_for`]`(capacity)` slots; 0 disables the ring
    /// entirely.
    pub(crate) fn new(capacity: usize) -> SeqRing<WORDS> {
        let len = slots_for(capacity);
        SeqRing {
            slots: (0..len).map(|_| Slot::empty()).collect(),
            mask: len.wrapping_sub(1) as u64,
            head: AtomicU64::new(0),
        }
    }

    /// True iff the ring records anything.
    pub(crate) fn enabled(&self) -> bool {
        !self.slots.is_empty()
    }

    /// Capacity in slots.
    pub(crate) fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Records ever made (monotonic, survives wrap-around).
    pub(crate) fn recorded(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Publish one record. Lock-free and allocation-free: a claim
    /// `fetch_add` plus relaxed word stores bracketed by the slot's
    /// sequence. A reader racing this slot observes a torn sequence and
    /// skips it.
    pub(crate) fn record(&self, words: &[u64; WORDS]) {
        if self.slots.is_empty() {
            return;
        }
        let claim = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(claim & self.mask) as usize];
        slot.seq.store(claim * 2 + 1, Ordering::Release);
        fence(Ordering::Release);
        for (word, &value) in slot.words.iter().zip(words) {
            word.store(value, Ordering::Relaxed);
        }
        fence(Ordering::Release);
        slot.seq.store(claim * 2 + 2, Ordering::Release);
    }

    /// Copy out up to `limit` of the most recent records `decode` keeps
    /// (it is handed each intact slot's claim index and words), newest
    /// first. Slots mid-overwrite (or lost to a lapping writer during
    /// the copy) are skipped. Allocates the `Vec` — reads are off the
    /// hot path by construction.
    pub(crate) fn read_recent<T>(
        &self,
        limit: usize,
        mut decode: impl FnMut(u64, &[u64; WORDS]) -> Option<T>,
    ) -> Vec<T> {
        let head = self.head.load(Ordering::Acquire);
        let window = (self.slots.len() as u64).min(head);
        let mut records = Vec::with_capacity(limit.min(window as usize));
        for back in 0..window {
            if records.len() >= limit {
                break;
            }
            let claim = head - 1 - back;
            let slot = &self.slots[(claim & self.mask) as usize];
            let expect = claim * 2 + 2;
            if slot.seq.load(Ordering::Acquire) != expect {
                continue;
            }
            let mut words = [0u64; WORDS];
            for (out, word) in words.iter_mut().zip(&slot.words) {
                *out = word.load(Ordering::Relaxed);
            }
            fence(Ordering::Acquire);
            if slot.seq.load(Ordering::Relaxed) == expect {
                records.extend(decode(claim, &words));
            }
        }
        records
    }
}

/// Read a possibly poisoned lock — a sink's ring swap cannot corrupt the
/// data, so a panicked holder is survivable.
pub(crate) fn rlock<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every writer's words are internally consistent — all equal — so
    /// a torn read is visible, at the span's width and at the diagnostic
    /// event's.
    fn writers_never_tear_reads<const WORDS: usize>() {
        let ring = std::sync::Arc::new(SeqRing::<WORDS>::new(8));
        let intact = |ring: &SeqRing<WORDS>| {
            ring.read_recent(8, |_, words| Some(*words))
                .iter()
                .all(|words| words.iter().all(|&word| word == words[0]))
        };
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let ring = std::sync::Arc::clone(&ring);
            handles.push(std::thread::spawn(move || {
                for i in 0..2_000u64 {
                    ring.record(&[t * 1_000_000 + i; WORDS]);
                }
            }));
        }
        for _ in 0..200 {
            assert!(intact(&ring), "torn record escaped the seqlock");
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(ring.recorded(), 8_000);
        assert!(intact(&ring));
    }

    #[test]
    fn concurrent_writers_never_tear_reads() {
        writers_never_tear_reads::<14>();
        writers_never_tear_reads::<32>();
    }
}
