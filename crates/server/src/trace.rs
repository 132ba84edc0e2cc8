//! Per-request tracing: spans in fixed-size lock-free rings.
//!
//! A [`Span`] is the execution record of one wire request — its trace
//! id (derived from the client-supplied `"id"` when present), per-stage
//! timings (parse, dispatch, engine, fsync-wait, serialize) and the
//! [`EngineStats`] delta the request charged to the correcting engine.
//! Spans are built on the caller's stack and published, as 14 words,
//! into a [`TraceRing`] — the crate's one seqlock ring
//! ([`crate::seqring`]): recording never locks and never allocates,
//! which is what lets the CI-guarded `session.get = 0 allocs/req`
//! invariant hold with tracing enabled.
//!
//! A [`TraceSink`] pairs the main ring with a small slow-request ring:
//! spans whose total latency crosses the configured threshold are
//! duplicated there, so a burst of fast requests cannot wash a slow
//! outlier out of the window before an operator reads `trace.read`.
//!
//! Telemetry reads ([`TraceRing::recent_spans`]) allocate (a `Vec` of
//! spans) — they are off the hot path by construction.
//!
//! The request path reads the clock through one function, [`stamp`],
//! and hands the instants it reads on as values: one stage's end is the
//! next stage's start. A warmed pipelined `session.get` reads it twice
//! (parse end, request end: its start is the previous line's end, or
//! its read's arrival), a `session.fix` or `session.validate` four
//! times (the engine run's two ends besides), and a handler that writes
//! its reply through `Reply::send` twice more (the send's two ends, so
//! `serialize_ns` is the writing alone). A unit test counts the reads
//! and pins those figures. Recording a span takes the main ring's lock once; a slow
//! span takes the slow ring's as well.

use crate::seqring::{rlock, SeqRing};
use cerfix::EngineStats;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

/// The clock, as the request path reads it: every stage boundary of a
/// request, every deadline and every wait it times comes from here.
#[inline]
pub(crate) fn stamp() -> Instant {
    cerfix::count!(ClockReads);
    Instant::now()
}

/// Words per slot: trace id, op index, eight timings, four engine-stat
/// deltas (see `Span::to_words` / `Span::from_words`).
const SLOT_WORDS: usize = 14;

/// Slots in the slow-request ring (fixed; the threshold, not the
/// buffer, is the operator's knob).
const SLOW_SLOTS: usize = 64;

/// Set on trace ids the server synthesized because the request carried
/// no usable `"id"` — keeps them disjoint from echoed client ids.
const SYNTHETIC_BIT: u64 = 1 << 63;

/// One request's execution record. Plain stack data: the request path
/// fills the fields in place and publishes the finished span with one
/// [`TraceSink::record`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Span {
    /// Correlation id: the numeric wire `"id"` verbatim, an FNV-1a hash
    /// of a non-numeric id, or a synthesized id (high bit set).
    pub trace_id: u64,
    /// Latency slot of the request's op class (see [`crate::ops`]).
    pub op: usize,
    /// End-to-end service time (transport excluded), nanoseconds.
    pub total_ns: u64,
    /// Wire scanning + request parsing.
    pub parse_ns: u64,
    /// Dispatch overhead: total minus every attributed stage.
    pub dispatch_ns: u64,
    /// Correcting-engine work (fixpoint runs under the session lock).
    pub engine_ns: u64,
    /// Time blocked on the journal's group fsync.
    pub fsync_ns: u64,
    /// Time blocked waiting for follower quorum acks (zero outside
    /// quorum-mode commits).
    pub quorum_ns: u64,
    /// Writing the reply, for a handler that gathers what it says
    /// first (`Reply::send`). The session ops write under their
    /// session's lock, inside the dispatch share, and leave this 0.
    pub serialize_ns: u64,
    /// Receipt → dispatch queue wait: the time a line waits behind the
    /// lines of the same `read` that come before it (0 for the first
    /// line of a read, and for a line released from a hold). Kept
    /// OUTSIDE `total_ns`, which starts when service begins — where the
    /// line before it ended, so the spans of one read tile.
    pub queue_ns: u64,
    /// Absolute request deadline, when the client sent `deadline_ms` —
    /// threaded through dispatch so quorum waits can cut off early.
    /// Not serialized into the ring.
    pub deadline: Option<Instant>,
    /// Engine work this request performed (deltas, not totals).
    pub stats: EngineStats,
}

impl Span {
    fn to_words(self) -> [u64; SLOT_WORDS] {
        [
            self.trace_id,
            self.op as u64,
            self.total_ns,
            self.parse_ns,
            self.dispatch_ns,
            self.engine_ns,
            self.fsync_ns,
            self.quorum_ns,
            self.serialize_ns,
            self.queue_ns,
            self.stats.fixpoint_runs as u64,
            self.stats.rule_attempts as u64,
            self.stats.master_lookups as u64,
            self.stats.index_probes as u64,
        ]
    }

    fn from_words(words: [u64; SLOT_WORDS]) -> Span {
        Span {
            trace_id: words[0],
            op: words[1] as usize,
            total_ns: words[2],
            parse_ns: words[3],
            dispatch_ns: words[4],
            engine_ns: words[5],
            fsync_ns: words[6],
            quorum_ns: words[7],
            serialize_ns: words[8],
            queue_ns: words[9],
            // Deadlines and send stamps are live-request plumbing, not
            // telemetry.
            deadline: None,
            stats: EngineStats {
                fixpoint_runs: words[10] as usize,
                rule_attempts: words[11] as usize,
                master_lookups: words[12] as usize,
                index_probes: words[13] as usize,
            },
        }
    }

    /// True iff the trace id was synthesized by the server (no usable
    /// client `"id"` on the request).
    pub(crate) fn synthetic_id(&self) -> bool {
        self.trace_id & SYNTHETIC_BIT != 0
    }
}

/// The span ring: the most recent spans, 14 words each.
pub(crate) type TraceRing = SeqRing<SLOT_WORDS>;

impl TraceRing {
    /// Publish one span.
    pub(crate) fn record_span(&self, span: &Span) {
        self.record(&span.to_words());
    }

    /// Up to `limit` of the most recent spans, newest first.
    pub(crate) fn recent_spans(&self, limit: usize) -> Vec<Span> {
        self.read_recent(limit, |_, words| Some(Span::from_words(*words)))
    }
}

/// The service's tracing state: the main span ring, the slow-request
/// ring, the slow threshold and the fallback id allocator. The rings
/// sit behind an `RwLock<Arc<_>>` so `config.set` can swap in a
/// resized ring at runtime; the hot path only ever takes the
/// uncontended read side (no allocation, no blocking in steady state).
pub(crate) struct TraceSink {
    ring: RwLock<Arc<TraceRing>>,
    slow: RwLock<Arc<TraceRing>>,
    slow_ns: AtomicU64,
    synthetic: AtomicU64,
}

impl TraceSink {
    /// A sink whose main ring holds `buffer` spans (0 = tracing off)
    /// and whose slow ring captures spans at least `slow` long.
    pub(crate) fn new(buffer: usize, slow: Duration) -> TraceSink {
        TraceSink {
            ring: RwLock::new(Arc::new(TraceRing::new(buffer))),
            slow: RwLock::new(Arc::new(TraceRing::new(if buffer == 0 {
                0
            } else {
                SLOW_SLOTS
            }))),
            slow_ns: AtomicU64::new(slow.as_nanos().min(u64::MAX as u128) as u64),
            synthetic: AtomicU64::new(0),
        }
    }

    /// True iff spans are being recorded.
    pub(crate) fn enabled(&self) -> bool {
        rlock(&self.ring).enabled()
    }

    /// The slow-request threshold, nanoseconds.
    pub(crate) fn slow_ns(&self) -> u64 {
        self.slow_ns.load(Ordering::Relaxed)
    }

    /// Retune the slow-request threshold (the `config.set slow_ms`
    /// knob). Takes effect for the next recorded span.
    pub(crate) fn set_slow_ns(&self, slow_ns: u64) {
        self.slow_ns.store(slow_ns, Ordering::Relaxed);
    }

    /// Swap in a fresh main ring of `buffer` slots (0 = tracing off).
    /// Buffered spans and the recorded counter start over — resizing
    /// is an operator action, not a hot-path one.
    pub(crate) fn resize(&self, buffer: usize) {
        let slow_slots = if buffer == 0 { 0 } else { SLOW_SLOTS };
        *self.ring.write().unwrap_or_else(|e| e.into_inner()) = Arc::new(TraceRing::new(buffer));
        *self.slow.write().unwrap_or_else(|e| e.into_inner()) =
            Arc::new(TraceRing::new(slow_slots));
    }

    /// The main ring's current capacity in slots.
    pub(crate) fn capacity(&self) -> usize {
        rlock(&self.ring).capacity()
    }

    /// The main ring (for `trace.read`).
    pub(crate) fn ring(&self) -> Arc<TraceRing> {
        Arc::clone(&rlock(&self.ring))
    }

    /// The slow-request ring (for `trace.read`).
    pub(crate) fn slow(&self) -> Arc<TraceRing> {
        Arc::clone(&rlock(&self.slow))
    }

    /// Publish a finished span under the trace id of its raw wire `id`
    /// ([`trace_id`](Self::trace_id), derived only when tracing is on);
    /// duplicates it into the slow ring when it crosses the threshold.
    pub(crate) fn record(&self, span: &mut Span, raw_id: Option<&str>) {
        let ring = rlock(&self.ring);
        if !ring.enabled() {
            return;
        }
        span.trace_id = self.trace_id(raw_id);
        ring.record_span(span);
        if span.total_ns >= self.slow_ns() {
            rlock(&self.slow).record_span(span);
        }
    }

    /// The trace id for a request whose raw wire `"id"` span is
    /// `raw_id`: a numeric id verbatim, a non-numeric id FNV-1a hashed
    /// (high bit cleared so hashes stay disjoint from synthesized ids),
    /// or a fresh synthesized id when the request carried none.
    pub(crate) fn trace_id(&self, raw_id: Option<&str>) -> u64 {
        match raw_id {
            Some(raw) => match raw.parse::<u64>() {
                Ok(n) if n & SYNTHETIC_BIT == 0 => n,
                _ => fnv1a(raw.as_bytes()) & !SYNTHETIC_BIT,
            },
            None => self.synthetic.fetch_add(1, Ordering::Relaxed) | SYNTHETIC_BIT,
        }
    }
}

/// FNV-1a, 64-bit — stable, dependency-free hashing for non-numeric
/// request ids.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use cerfix::counters::{read, Counter};

    /// How many times this thread has called [`stamp`].
    fn clock_reads() -> u64 {
        read(Counter::ClockReads)
    }

    fn span(trace_id: u64, total_ns: u64) -> Span {
        Span {
            trace_id,
            op: 2,
            total_ns,
            parse_ns: 1,
            dispatch_ns: 2,
            engine_ns: 3,
            fsync_ns: 4,
            quorum_ns: 9,
            serialize_ns: 5,
            queue_ns: 11,
            deadline: None,
            stats: EngineStats {
                fixpoint_runs: 1,
                rule_attempts: 6,
                master_lookups: 7,
                index_probes: 8,
            },
        }
    }

    /// Record `span` as a request whose wire `id` is its trace id.
    fn publish(sink: &TraceSink, mut span: Span) {
        let id = span.trace_id.to_string();
        sink.record(&mut span, Some(&id));
    }

    #[test]
    fn ring_keeps_most_recent_spans_newest_first() {
        let ring = TraceRing::new(4);
        for i in 0..10u64 {
            ring.record_span(&span(i, 100));
        }
        assert_eq!(ring.recorded(), 10);
        let spans = ring.recent_spans(16);
        let ids: Vec<u64> = spans.iter().map(|s| s.trace_id).collect();
        assert_eq!(ids, vec![9, 8, 7, 6]);
        // Round-trip preserves every field.
        assert_eq!(spans[0], span(9, 100));
        // Limit truncates from the newest end.
        assert_eq!(ring.recent_spans(2).len(), 2);
        assert_eq!(ring.recent_spans(2)[0].trace_id, 9);
    }

    #[test]
    fn zero_capacity_disables_recording() {
        let sink = TraceSink::new(0, Duration::from_millis(1));
        assert!(!sink.enabled());
        publish(&sink, span(1, u64::MAX));
        assert_eq!(sink.ring().recorded(), 0);
        assert_eq!(sink.slow().recorded(), 0);
    }

    #[test]
    fn capacity_rounds_up_to_power_of_two() {
        let ring = TraceRing::new(5);
        for i in 0..8u64 {
            ring.record_span(&span(i, 1));
        }
        assert_eq!(ring.recent_spans(64).len(), 8);
    }

    #[test]
    fn slow_ring_captures_only_threshold_crossers() {
        let sink = TraceSink::new(8, Duration::from_micros(10));
        publish(&sink, span(1, 9_999));
        publish(&sink, span(2, 10_000));
        publish(&sink, span(3, 50_000));
        let slow = sink.slow().recent_spans(16);
        let ids: Vec<u64> = slow.iter().map(|s| s.trace_id).collect();
        assert_eq!(ids, vec![3, 2]);
        assert_eq!(sink.ring().recent_spans(16).len(), 3);
    }

    #[test]
    fn resize_and_retune_apply_at_runtime() {
        let sink = TraceSink::new(0, Duration::from_millis(500));
        assert!(!sink.enabled());
        publish(&sink, span(1, u64::MAX));
        assert_eq!(sink.ring().recorded(), 0);

        // config.set trace_buffer: the swapped-in ring records.
        sink.resize(4);
        assert!(sink.enabled());
        assert_eq!(sink.capacity(), 4);
        publish(&sink, span(2, 1_000));
        assert_eq!(sink.ring().recorded(), 1);
        assert_eq!(sink.ring().recent_spans(4)[0], span(2, 1_000));

        // config.set slow_ms: the new threshold gates the slow ring.
        assert_eq!(sink.slow().recorded(), 0);
        sink.set_slow_ns(500);
        publish(&sink, span(3, 600));
        assert_eq!(sink.slow().recorded(), 1);

        // Shrinking back to zero disables both rings again.
        sink.resize(0);
        assert!(!sink.enabled());
        publish(&sink, span(4, u64::MAX));
        assert_eq!(sink.ring().recorded(), 0);
        assert_eq!(sink.slow().recorded(), 0);
    }

    /// The clock reads of a warmed session request, on this thread: a
    /// line served as a connection serves one behind another of the same
    /// read (its start the previous line's end, handed in), and the same
    /// line through `handle_line_into`, which stamps its own start.
    #[test]
    fn a_warmed_session_request_reads_the_clock_this_often() {
        let service = crate::tests::kv_service(1);
        let (mut out, mut scratch) = (String::new(), crate::RequestScratch::default());
        let create = r#"{"op":"session.create","tuple":["k3","WRONG","n"]}"#;
        service.handle_line_into(create, &mut out, &mut scratch);
        assert!(out.contains(r#""session":1,"#), "{out}");
        let validate =
            r#"{"op":"session.validate","session":1,"validations":{"key":"k3","note":"n"}}"#;
        // (line, pipelined, through `handle_line_into`): parse end and
        // request end; the engine run of a fix or a validate adds its
        // two ends.
        for (line, pipelined, in_process) in [
            (r#"{"op":"session.get","session":1,"id":7}"#, 2, 3),
            (r#"{"op":"session.fix","session":1}"#, 4, 5),
            (validate, 4, 5),
        ] {
            for _ in 0..3 {
                out.clear();
                let before = clock_reads();
                service.handle_line_into(line, &mut out, &mut scratch);
                assert_eq!(clock_reads() - before, in_process, "{line}");
                assert!(
                    out.starts_with(r#"{"#) && out.contains(r#""ok":true"#),
                    "{out}"
                );

                let previous_end = crate::service::LineClock::at(stamp());
                let before = clock_reads();
                let scanned = crate::protocol::scan_line(line);
                service.handle_scanned(&scanned, &mut out, &mut scratch, previous_end);
                assert_eq!(clock_reads() - before, pipelined, "{line}");
            }
        }
        // The spans recorded are whole: every stage inside the total.
        for span in service.inner.trace.ring().recent_spans(18) {
            let stages = span.parse_ns + span.engine_ns + span.dispatch_ns + span.serialize_ns;
            assert_eq!(stages, span.total_ns, "{span:?}");
        }
    }

    #[test]
    fn trace_ids_echo_numeric_hash_strings_and_synthesize() {
        let sink = TraceSink::new(8, Duration::from_secs(1));
        assert_eq!(sink.trace_id(Some("42")), 42);
        let hashed = sink.trace_id(Some("\"x-1\""));
        assert_eq!(hashed, sink.trace_id(Some("\"x-1\"")), "hash is stable");
        assert_eq!(hashed & SYNTHETIC_BIT, 0);
        let a = sink.trace_id(None);
        let b = sink.trace_id(None);
        assert_ne!(a, b);
        assert!(a & SYNTHETIC_BIT != 0 && b & SYNTHETIC_BIT != 0);
    }
}
