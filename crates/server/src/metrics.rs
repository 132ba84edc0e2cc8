//! Service counters, exported over the `metrics` protocol op and, in
//! Prometheus text format with full histogram buckets, over
//! `metrics.prom` (see [`ServiceMetrics::render_prom`]).

use crate::ops::{self, Op};
use cerfix::EngineStats;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Request-latency histogram buckets: bucket `i` covers
/// `[2^i, 2^(i+1))` nanoseconds. 40 buckets reach ~9 minutes — far past
/// any op this service runs.
const LATENCY_BUCKETS: usize = 40;

/// One op's latency histogram (fixed atomics — observing never locks or
/// allocates, which keeps it on the zero-allocation request path).
/// Each bucket carries a count *and* a sum of the observed values, so
/// percentile estimates interpolate to the bucket's empirical mean
/// instead of reporting its upper bound.
#[derive(Debug)]
struct OpHistogram {
    buckets: [AtomicU64; LATENCY_BUCKETS],
    sums: [AtomicU64; LATENCY_BUCKETS],
}

impl OpHistogram {
    fn new() -> OpHistogram {
        OpHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sums: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    fn observe(&self, elapsed: Duration) {
        let ns = elapsed.as_nanos().max(1) as u64;
        let bucket = (63 - ns.leading_zeros() as usize).min(LATENCY_BUCKETS - 1);
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.sums[bucket].fetch_add(ns, Ordering::Relaxed);
    }

    /// `(count, p50_ns, p99_ns)`. The percentile estimate is the
    /// empirical mean of the covering bucket (clamped to the bucket's
    /// `[2^i, 2^(i+1))` range), so a bucket fed by one repeated value
    /// reports that value exactly rather than the 2×-conservative upper
    /// bound. Allocates one scratch `Vec` of bucket counts — fine for a
    /// `metrics` request, never called on the request hot path.
    fn summarize(&self) -> (u64, u64, u64) {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return (0, 0, 0);
        }
        let percentile = |p: u64| -> u64 {
            let rank = (total * p).div_ceil(100).max(1);
            let mut seen = 0u64;
            for (i, &c) in counts.iter().enumerate() {
                seen += c;
                if seen >= rank {
                    let lo = 1u64 << i.min(63);
                    let hi = 1u64 << (i + 1).min(63);
                    // Count and sum are two relaxed atomics: a racing
                    // observe can land between the loads, so clamp the
                    // mean back into the bucket's range.
                    let mean = self.sums[i].load(Ordering::Relaxed) / c.max(1);
                    return mean.clamp(lo, hi);
                }
            }
            1u64 << LATENCY_BUCKETS // unreachable
        };
        (total, percentile(50), percentile(99))
    }

    /// Total of every recorded value, nanoseconds.
    fn sum_ns(&self) -> u64 {
        self.sums.iter().map(|s| s.load(Ordering::Relaxed)).sum()
    }

    /// Total observations.
    fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }
}

/// Latency summary for one op class, as exported in
/// [`MetricsSnapshot::latency`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpLatency {
    /// The op name (`"session.validate"`, …, or `"parse_error"`).
    pub op: &'static str,
    /// Requests observed.
    pub count: u64,
    /// Median latency upper bound, nanoseconds.
    pub p50_ns: u64,
    /// 99th-percentile latency upper bound, nanoseconds.
    pub p99_ns: u64,
}

/// Monotonic counters for one [`CleaningService`](crate::CleaningService).
///
/// All counters are relaxed atomics — they are operational telemetry,
/// not synchronization. A [`snapshot`](Self::snapshot) is a per-counter-
/// atomic point-in-time copy: each individual counter is always exact,
/// but two counters read microseconds apart may disagree about whether
/// an in-flight request has landed (e.g. `requests` incremented,
/// `cells_fixed` not yet). Consumers that need cross-counter invariants
/// (dashboards diffing committed vs created) should diff two snapshots
/// over an interval rather than comparing counters inside one.
#[derive(Debug)]
pub struct ServiceMetrics {
    started: Instant,
    requests: AtomicU64,
    errors: AtomicU64,
    sessions_created: AtomicU64,
    sessions_committed: AtomicU64,
    sessions_aborted: AtomicU64,
    sessions_evicted: AtomicU64,
    sessions_recovered: AtomicU64,
    tuples_cleaned: AtomicU64,
    cells_fixed: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    journal_bytes: AtomicU64,
    journal_events: AtomicU64,
    audit_spilled_records: AtomicU64,
    snapshots_written: AtomicU64,
    rules_reloaded: AtomicU64,
    master_appends: AtomicU64,
    regions_recertified: AtomicU64,
    regions_cache_patched: AtomicU64,
    connections_open: AtomicU64,
    connections_total: AtomicU64,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
    latency: Vec<OpHistogram>,
    /// Per-op-class engine-stat totals, parallel to `latency`:
    /// `[fixpoint_runs, rule_attempts, master_lookups, index_probes]`.
    engine_totals: Vec<[AtomicU64; 4]>,
    /// Worker-pool batch latency: submit → batch fully executed (the
    /// epoll reactor's heavy-op offload path).
    batch_latency: OpHistogram,
    /// Epoll reactor loop-iteration time (work per wakeup, excluding
    /// the blocking wait itself).
    reactor_loop: OpHistogram,
    /// `epoll_wait` calls made by the reactor.
    reactor_polls: AtomicU64,
    /// Cross-thread eventfd wakeups delivered to the reactor.
    reactor_wakeups: AtomicU64,
    /// Quorum-ack wait on commit: local fsync done → quorum of follower
    /// cursors covering the commit position.
    ack_latency: OpHistogram,
    /// Journal events served to follower cursors via `replica.sync`.
    replication_events_served: AtomicU64,
    /// Commits that timed out waiting for a follower quorum (applied
    /// and locally durable, but answered with `quorum_timeout`).
    quorum_timeouts: AtomicU64,
    /// Audit-spill write failures (mirrored from the spill, which owns
    /// the monotonic total).
    audit_spill_errors: AtomicU64,
    /// Integrity scrubs run (the `scrub` protocol op).
    scrubs_run: AtomicU64,
    /// Corrupt regions found by scrubs, cumulative.
    scrub_corruptions: AtomicU64,
    /// Requests shed by the admission shedder with an `overloaded` error.
    requests_shed_overload: AtomicU64,
    /// Requests shed because their `deadline_ms` expired before work
    /// started (or their quorum wait outlived it).
    requests_shed_deadline: AtomicU64,
    /// `session.create` requests refused while draining.
    sessions_refused_draining: AtomicU64,
    /// Graceful drains started via `server.drain`.
    drains_started: AtomicU64,
    /// Connections refused by the global connection quota or drain.
    connections_refused: AtomicU64,
    /// Receipt → dispatch queue wait per request (covers worker-pool
    /// queueing for batched heavy ops; ~0 on the inline path).
    queue_wait: OpHistogram,
}

/// A point-in-time copy of every counter.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Seconds since service start.
    pub uptime_secs: u64,
    /// Protocol requests handled (including failed ones).
    pub requests: u64,
    /// Requests answered with an error.
    pub errors: u64,
    /// Sessions created.
    pub sessions_created: u64,
    /// Sessions committed (reached `session.commit`).
    pub sessions_committed: u64,
    /// Sessions aborted by the client.
    pub sessions_aborted: u64,
    /// Sessions reaped by idle eviction.
    pub sessions_evicted: u64,
    /// Sessions rebuilt from the journal/snapshot at startup.
    pub sessions_recovered: u64,
    /// Tuples processed through the batch `clean` op.
    pub tuples_cleaned: u64,
    /// Cells changed by rules across all ops.
    pub cells_fixed: u64,
    /// Region/consistency cache hits.
    pub cache_hits: u64,
    /// Region/consistency cache misses (computations performed).
    pub cache_misses: u64,
    /// Bytes appended to the write-ahead journal (0 in memory mode).
    pub journal_bytes: u64,
    /// Events appended to the write-ahead journal.
    pub journal_events: u64,
    /// Audit records evicted from the in-memory window to the disk
    /// spill (0 in memory mode, where the window is unbounded).
    pub audit_spilled_records: u64,
    /// Snapshots installed (journal truncations).
    pub snapshots_written: u64,
    /// Successful `rules.reload` swaps.
    pub rules_reloaded: u64,
    /// Successful `master.append` batches.
    pub master_appends: u64,
    /// Region candidates re-certified by master-delta rechecks (the
    /// probed slice; reused verdicts are not counted).
    pub regions_recertified: u64,
    /// Cached region searches patched in place by delta re-certification
    /// (instead of discarded and recomputed).
    pub regions_cache_patched: u64,
    /// TCP connections currently open (gauge).
    pub connections_open: u64,
    /// TCP connections ever accepted.
    pub connections_total: u64,
    /// Request bytes read off sockets.
    pub bytes_in: u64,
    /// Response bytes written to sockets.
    pub bytes_out: u64,
    /// Journal events served to follower replication cursors.
    pub replication_events_served: u64,
    /// Commits that timed out waiting for a follower quorum.
    pub quorum_timeouts: u64,
    /// Audit-spill write failures (records retried by the spill's
    /// flusher; nonzero means the archive may lag the window).
    pub audit_spill_errors: u64,
    /// Integrity scrubs run via the `scrub` protocol op.
    pub scrubs_run: u64,
    /// Corrupt regions found by those scrubs, cumulative.
    pub scrub_corruptions: u64,
    /// Requests shed by the admission shedder (`overloaded` errors).
    pub requests_shed_overload: u64,
    /// Requests shed because their `deadline_ms` expired.
    pub requests_shed_deadline: u64,
    /// `session.create` requests refused while draining.
    pub sessions_refused_draining: u64,
    /// Graceful drains started via `server.drain`.
    pub drains_started: u64,
    /// Connections refused by the global quota or drain.
    pub connections_refused: u64,
    /// Per-op request-latency summaries (ops with traffic only).
    pub latency: Vec<OpLatency>,
}

impl ServiceMetrics {
    /// Fresh counters, uptime starting now.
    pub fn new() -> ServiceMetrics {
        ServiceMetrics {
            started: Instant::now(),
            requests: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            sessions_created: AtomicU64::new(0),
            sessions_committed: AtomicU64::new(0),
            sessions_aborted: AtomicU64::new(0),
            sessions_evicted: AtomicU64::new(0),
            sessions_recovered: AtomicU64::new(0),
            tuples_cleaned: AtomicU64::new(0),
            cells_fixed: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            journal_bytes: AtomicU64::new(0),
            journal_events: AtomicU64::new(0),
            audit_spilled_records: AtomicU64::new(0),
            snapshots_written: AtomicU64::new(0),
            rules_reloaded: AtomicU64::new(0),
            master_appends: AtomicU64::new(0),
            regions_recertified: AtomicU64::new(0),
            regions_cache_patched: AtomicU64::new(0),
            connections_open: AtomicU64::new(0),
            connections_total: AtomicU64::new(0),
            bytes_in: AtomicU64::new(0),
            bytes_out: AtomicU64::new(0),
            latency: (0..ops::SLOTS).map(|_| OpHistogram::new()).collect(),
            engine_totals: (0..ops::SLOTS)
                .map(|_| std::array::from_fn(|_| AtomicU64::new(0)))
                .collect(),
            batch_latency: OpHistogram::new(),
            reactor_loop: OpHistogram::new(),
            reactor_polls: AtomicU64::new(0),
            reactor_wakeups: AtomicU64::new(0),
            ack_latency: OpHistogram::new(),
            replication_events_served: AtomicU64::new(0),
            quorum_timeouts: AtomicU64::new(0),
            audit_spill_errors: AtomicU64::new(0),
            scrubs_run: AtomicU64::new(0),
            scrub_corruptions: AtomicU64::new(0),
            requests_shed_overload: AtomicU64::new(0),
            requests_shed_deadline: AtomicU64::new(0),
            sessions_refused_draining: AtomicU64::new(0),
            drains_started: AtomicU64::new(0),
            connections_refused: AtomicU64::new(0),
            queue_wait: OpHistogram::new(),
        }
    }

    /// Whole seconds since service start (cheap: one monotonic read).
    pub(crate) fn uptime_secs(&self) -> u64 {
        self.started.elapsed().as_secs()
    }

    /// Record one request's service latency under its op class.
    pub(crate) fn observe_latency(&self, op: &Op, elapsed: Duration) {
        self.latency[op.slot].observe(elapsed);
    }

    /// Charge a request's engine-stat delta to its op class. Four
    /// relaxed adds, no locks or allocation — hot-path safe (and the
    /// zero-work ops skip even this at the call site).
    pub(crate) fn add_engine_stats(&self, op: &Op, stats: &EngineStats) {
        let totals = &self.engine_totals[op.slot];
        totals[0].fetch_add(stats.fixpoint_runs as u64, Ordering::Relaxed);
        totals[1].fetch_add(stats.rule_attempts as u64, Ordering::Relaxed);
        totals[2].fetch_add(stats.master_lookups as u64, Ordering::Relaxed);
        totals[3].fetch_add(stats.index_probes as u64, Ordering::Relaxed);
    }

    /// Record one worker-pool batch's submit→done latency.
    pub(crate) fn observe_batch_latency(&self, elapsed: Duration) {
        self.batch_latency.observe(elapsed);
    }

    /// Record one reactor loop iteration's working time.
    pub(crate) fn observe_reactor_loop(&self, elapsed: Duration) {
        self.reactor_loop.observe(elapsed);
    }

    /// Count one reactor `epoll_wait` call.
    pub(crate) fn reactor_poll(&self) {
        self.reactor_polls.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one eventfd wakeup delivered to the reactor.
    pub(crate) fn reactor_wakeup(&self) {
        self.reactor_wakeups.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one quorum-ack commit wait (local fsync → quorum).
    pub(crate) fn observe_ack_latency(&self, elapsed: Duration) {
        self.ack_latency.observe(elapsed);
    }

    /// Count journal events served to follower cursors.
    pub(crate) fn replication_events_served(&self, n: u64) {
        self.replication_events_served
            .fetch_add(n, Ordering::Relaxed);
    }

    /// Count one commit that timed out waiting for the quorum.
    pub(crate) fn quorum_timeout(&self) {
        self.quorum_timeouts.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn connection_opened(&self) {
        self.connections_open.fetch_add(1, Ordering::Relaxed);
        self.connections_total.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn connection_closed(&self) {
        self.connections_open.fetch_sub(1, Ordering::Relaxed);
    }

    pub(crate) fn add_bytes_in(&self, n: u64) {
        self.bytes_in.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn add_bytes_out(&self, n: u64) {
        self.bytes_out.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn request(&self) {
        self.requests.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn error(&self) {
        self.errors.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn session_created(&self) {
        self.sessions_created.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn session_committed(&self) {
        self.sessions_committed.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn session_aborted(&self) {
        self.sessions_aborted.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn sessions_evicted(&self, n: u64) {
        self.sessions_evicted.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn tuples_cleaned(&self, n: u64) {
        self.tuples_cleaned.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn cells_fixed(&self, n: u64) {
        self.cells_fixed.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn cache_hit(&self) {
        self.cache_hits.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn cache_miss(&self) {
        self.cache_misses.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn sessions_recovered(&self, n: u64) {
        self.sessions_recovered.fetch_add(n, Ordering::Relaxed);
    }

    /// Gauges mirrored from the journal (set, not incremented — the
    /// journal owns the monotonic totals).
    pub(crate) fn journal_totals(&self, bytes: u64, events: u64) {
        self.journal_bytes.store(bytes, Ordering::Relaxed);
        self.journal_events.store(events, Ordering::Relaxed);
    }

    /// Gauge mirrored from the audit log's window (records evicted to
    /// the spill).
    pub(crate) fn audit_spilled(&self, n: u64) {
        self.audit_spilled_records.store(n, Ordering::Relaxed);
    }

    /// Counter mirrored from the audit spill (write failures — the
    /// spill owns the monotonic total).
    pub(crate) fn audit_spill_errors(&self, n: u64) {
        self.audit_spill_errors.store(n, Ordering::Relaxed);
    }

    /// Count one scrub and the corrupt regions it found.
    pub(crate) fn scrub_run(&self, corruptions: u64) {
        self.scrubs_run.fetch_add(1, Ordering::Relaxed);
        self.scrub_corruptions
            .fetch_add(corruptions, Ordering::Relaxed);
    }

    pub(crate) fn snapshot_written(&self) {
        self.snapshots_written.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn rules_reload(&self) {
        self.rules_reloaded.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn master_append(&self) {
        self.master_appends.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn regions_recertified(&self, n: u64) {
        self.regions_recertified.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn regions_cache_patched(&self) {
        self.regions_cache_patched.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one request shed by the admission shedder.
    pub(crate) fn shed_overload(&self) {
        self.requests_shed_overload.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one request shed for an expired deadline.
    pub(crate) fn shed_deadline(&self) {
        self.requests_shed_deadline.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one `session.create` refused while draining.
    pub(crate) fn session_refused_draining(&self) {
        self.sessions_refused_draining
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Count one graceful drain started.
    pub(crate) fn drain_started(&self) {
        self.drains_started.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one connection refused by quota or drain.
    pub(crate) fn connection_refused(&self) {
        self.connections_refused.fetch_add(1, Ordering::Relaxed);
    }

    /// TCP connections currently open (the quota check reads this).
    pub(crate) fn connections_open(&self) -> u64 {
        self.connections_open.load(Ordering::Relaxed)
    }

    /// Record one request's receipt→dispatch queue wait.
    pub(crate) fn observe_queue_wait(&self, elapsed: Duration) {
        self.queue_wait.observe(elapsed);
    }

    /// Copy every counter.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            uptime_secs: self.started.elapsed().as_secs(),
            requests: self.requests.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            sessions_created: self.sessions_created.load(Ordering::Relaxed),
            sessions_committed: self.sessions_committed.load(Ordering::Relaxed),
            sessions_aborted: self.sessions_aborted.load(Ordering::Relaxed),
            sessions_evicted: self.sessions_evicted.load(Ordering::Relaxed),
            sessions_recovered: self.sessions_recovered.load(Ordering::Relaxed),
            tuples_cleaned: self.tuples_cleaned.load(Ordering::Relaxed),
            cells_fixed: self.cells_fixed.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            journal_bytes: self.journal_bytes.load(Ordering::Relaxed),
            journal_events: self.journal_events.load(Ordering::Relaxed),
            audit_spilled_records: self.audit_spilled_records.load(Ordering::Relaxed),
            snapshots_written: self.snapshots_written.load(Ordering::Relaxed),
            rules_reloaded: self.rules_reloaded.load(Ordering::Relaxed),
            master_appends: self.master_appends.load(Ordering::Relaxed),
            regions_recertified: self.regions_recertified.load(Ordering::Relaxed),
            regions_cache_patched: self.regions_cache_patched.load(Ordering::Relaxed),
            connections_open: self.connections_open.load(Ordering::Relaxed),
            connections_total: self.connections_total.load(Ordering::Relaxed),
            bytes_in: self.bytes_in.load(Ordering::Relaxed),
            bytes_out: self.bytes_out.load(Ordering::Relaxed),
            replication_events_served: self.replication_events_served.load(Ordering::Relaxed),
            quorum_timeouts: self.quorum_timeouts.load(Ordering::Relaxed),
            audit_spill_errors: self.audit_spill_errors.load(Ordering::Relaxed),
            scrubs_run: self.scrubs_run.load(Ordering::Relaxed),
            scrub_corruptions: self.scrub_corruptions.load(Ordering::Relaxed),
            requests_shed_overload: self.requests_shed_overload.load(Ordering::Relaxed),
            requests_shed_deadline: self.requests_shed_deadline.load(Ordering::Relaxed),
            sessions_refused_draining: self.sessions_refused_draining.load(Ordering::Relaxed),
            drains_started: self.drains_started.load(Ordering::Relaxed),
            connections_refused: self.connections_refused.load(Ordering::Relaxed),
            latency: ops::classes()
                .zip(&self.latency)
                .filter_map(|(op, hist)| {
                    let (count, p50_ns, p99_ns) = hist.summarize();
                    (count > 0).then_some(OpLatency {
                        op: op.name,
                        count,
                        p50_ns,
                        p99_ns,
                    })
                })
                .collect(),
        }
    }
}

impl ServiceMetrics {
    /// Render every counter, gauge and full histogram (all buckets, not
    /// just p50/p99) in Prometheus text exposition format. The service
    /// appends its own process-level gauges (live sessions, queue
    /// depth, journal flush profile, build info) after this.
    pub(crate) fn render_prom(&self, out: &mut String) {
        prom_metric(
            out,
            "cerfix_uptime_seconds",
            "Seconds since service start.",
            "gauge",
            self.started.elapsed().as_secs_f64(),
        );
        let counters: [(&str, &str, &AtomicU64); 29] = [
            (
                "cerfix_requests_total",
                "Protocol requests handled (including failed ones).",
                &self.requests,
            ),
            (
                "cerfix_errors_total",
                "Requests answered with an error.",
                &self.errors,
            ),
            (
                "cerfix_sessions_created_total",
                "Sessions created.",
                &self.sessions_created,
            ),
            (
                "cerfix_sessions_committed_total",
                "Sessions committed.",
                &self.sessions_committed,
            ),
            (
                "cerfix_sessions_aborted_total",
                "Sessions aborted by the client.",
                &self.sessions_aborted,
            ),
            (
                "cerfix_sessions_evicted_total",
                "Sessions reaped by idle eviction.",
                &self.sessions_evicted,
            ),
            (
                "cerfix_sessions_recovered_total",
                "Sessions rebuilt from the journal/snapshot at startup.",
                &self.sessions_recovered,
            ),
            (
                "cerfix_tuples_cleaned_total",
                "Tuples processed through the batch clean op.",
                &self.tuples_cleaned,
            ),
            (
                "cerfix_cells_fixed_total",
                "Cells changed by rules across all ops.",
                &self.cells_fixed,
            ),
            (
                "cerfix_cache_hits_total",
                "Region/consistency cache hits.",
                &self.cache_hits,
            ),
            (
                "cerfix_cache_misses_total",
                "Region/consistency cache misses.",
                &self.cache_misses,
            ),
            (
                "cerfix_snapshots_written_total",
                "Snapshots installed (journal truncations).",
                &self.snapshots_written,
            ),
            (
                "cerfix_rules_reloaded_total",
                "Successful rules.reload swaps.",
                &self.rules_reloaded,
            ),
            (
                "cerfix_master_appends_total",
                "Successful master.append batches.",
                &self.master_appends,
            ),
            (
                "cerfix_regions_recertified_total",
                "Region candidates re-certified by master-delta rechecks.",
                &self.regions_recertified,
            ),
            (
                "cerfix_regions_cache_patched_total",
                "Cached region searches patched in place.",
                &self.regions_cache_patched,
            ),
            (
                "cerfix_connections_total",
                "TCP connections ever accepted.",
                &self.connections_total,
            ),
            (
                "cerfix_bytes_in_total",
                "Request bytes read off sockets.",
                &self.bytes_in,
            ),
            (
                "cerfix_bytes_out_total",
                "Response bytes written to sockets.",
                &self.bytes_out,
            ),
            (
                "cerfix_replication_events_served_total",
                "Journal events served to follower replication cursors.",
                &self.replication_events_served,
            ),
            (
                "cerfix_quorum_timeouts_total",
                "Commits that timed out waiting for a follower quorum.",
                &self.quorum_timeouts,
            ),
            (
                "cerfix_audit_spill_write_errors_total",
                "Audit-spill write failures (records retried by the flusher).",
                &self.audit_spill_errors,
            ),
            (
                "cerfix_scrubs_total",
                "Integrity scrubs run via the scrub protocol op.",
                &self.scrubs_run,
            ),
            (
                "cerfix_scrub_corruptions_total",
                "Corrupt regions found by scrubs.",
                &self.scrub_corruptions,
            ),
            (
                "cerfix_requests_shed_overload_total",
                "Requests shed by the admission shedder with an overloaded error.",
                &self.requests_shed_overload,
            ),
            (
                "cerfix_requests_shed_deadline_total",
                "Requests shed because their deadline_ms expired.",
                &self.requests_shed_deadline,
            ),
            (
                "cerfix_sessions_refused_draining_total",
                "session.create requests refused while draining.",
                &self.sessions_refused_draining,
            ),
            (
                "cerfix_drains_started_total",
                "Graceful drains started via server.drain.",
                &self.drains_started,
            ),
            (
                "cerfix_connections_refused_total",
                "Connections refused by the global quota or drain.",
                &self.connections_refused,
            ),
        ];
        for (name, help, counter) in counters {
            prom_metric(
                out,
                name,
                help,
                "counter",
                counter.load(Ordering::Relaxed) as f64,
            );
        }
        let gauges: [(&str, &str, &AtomicU64); 4] = [
            (
                "cerfix_connections_open",
                "TCP connections currently open.",
                &self.connections_open,
            ),
            (
                "cerfix_journal_bytes",
                "Bytes appended to the write-ahead journal.",
                &self.journal_bytes,
            ),
            (
                "cerfix_journal_events",
                "Events appended to the write-ahead journal.",
                &self.journal_events,
            ),
            (
                "cerfix_audit_spilled_records",
                "Audit records evicted from the in-memory window to disk.",
                &self.audit_spilled_records,
            ),
        ];
        for (name, help, gauge) in gauges {
            prom_metric(
                out,
                name,
                help,
                "gauge",
                gauge.load(Ordering::Relaxed) as f64,
            );
        }
        prom_metric(
            out,
            "cerfix_reactor_polls_total",
            "epoll_wait calls made by the reactor.",
            "counter",
            self.reactor_polls.load(Ordering::Relaxed) as f64,
        );
        prom_metric(
            out,
            "cerfix_reactor_wakeups_total",
            "Cross-thread eventfd wakeups delivered to the reactor.",
            "counter",
            self.reactor_wakeups.load(Ordering::Relaxed) as f64,
        );
        // Per-op request latency: full buckets, ops with traffic only
        // (every op class x 40 empty buckets would be pure noise).
        prom_header(
            out,
            "cerfix_request_duration_seconds",
            "Service time per request, by op class.",
            "histogram",
        );
        for (op, hist) in ops::classes().zip(&self.latency) {
            if hist.count() > 0 {
                hist.render_prom(
                    out,
                    "cerfix_request_duration_seconds",
                    Some(("op", op.name)),
                );
            }
        }
        prom_header(
            out,
            "cerfix_worker_batch_duration_seconds",
            "Worker-pool batch latency, submit to fully executed.",
            "histogram",
        );
        self.batch_latency
            .render_prom(out, "cerfix_worker_batch_duration_seconds", None);
        prom_header(
            out,
            "cerfix_reactor_loop_duration_seconds",
            "Reactor loop iteration working time (wait excluded).",
            "histogram",
        );
        self.reactor_loop
            .render_prom(out, "cerfix_reactor_loop_duration_seconds", None);
        prom_header(
            out,
            "cerfix_commit_ack_duration_seconds",
            "Quorum-ack wait on commit: local fsync to follower quorum.",
            "histogram",
        );
        self.ack_latency
            .render_prom(out, "cerfix_commit_ack_duration_seconds", None);
        prom_header(
            out,
            "cerfix_request_queue_wait_seconds",
            "Receipt to dispatch queue wait per request.",
            "histogram",
        );
        self.queue_wait
            .render_prom(out, "cerfix_request_queue_wait_seconds", None);
        // Per-op engine-stat totals (ops that did engine work only).
        let stats_names = [
            (
                "cerfix_engine_fixpoint_runs_total",
                "Fixpoint runs, by op class.",
            ),
            (
                "cerfix_engine_rule_attempts_total",
                "Rules attempted by the correcting engine, by op class.",
            ),
            (
                "cerfix_engine_master_lookups_total",
                "Master tuple lookups, by op class.",
            ),
            (
                "cerfix_engine_index_probes_total",
                "Index-served master lookups, by op class.",
            ),
        ];
        for (i, (name, help)) in stats_names.iter().enumerate() {
            prom_header(out, name, help, "counter");
            for (op, totals) in ops::classes().zip(&self.engine_totals) {
                let value = totals[i].load(Ordering::Relaxed);
                if value > 0 {
                    prom_sample(out, name, Some(("op", op.name)), value as f64);
                }
            }
        }
    }
}

impl OpHistogram {
    /// Render this histogram's cumulative buckets (in seconds), sum and
    /// count, with an optional extra label.
    fn render_prom(&self, out: &mut String, name: &str, label: Option<(&str, &str)>) {
        let mut cumulative = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            cumulative += bucket.load(Ordering::Relaxed);
            let le = (1u64 << (i + 1).min(63)) as f64 * 1e-9;
            prom_bucket(out, name, label, le, cumulative);
        }
        out.push_str(name);
        out.push_str("_bucket{");
        if let Some((k, v)) = label {
            push_label(out, k, v);
            out.push(',');
        }
        out.push_str("le=\"+Inf\"} ");
        push_f64(out, cumulative as f64);
        out.push('\n');
        out.push_str(name);
        out.push_str("_sum");
        push_labels(out, label);
        out.push(' ');
        push_f64(out, self.sum_ns() as f64 * 1e-9);
        out.push('\n');
        out.push_str(name);
        out.push_str("_count");
        push_labels(out, label);
        out.push(' ');
        push_f64(out, cumulative as f64);
        out.push('\n');
    }
}

/// Append a `# HELP` / `# TYPE` header pair.
pub(crate) fn prom_header(out: &mut String, name: &str, help: &str, kind: &str) {
    out.push_str("# HELP ");
    out.push_str(name);
    out.push(' ');
    out.push_str(help);
    out.push_str("\n# TYPE ");
    out.push_str(name);
    out.push(' ');
    out.push_str(kind);
    out.push('\n');
}

/// Append one sample line (optionally labelled).
pub(crate) fn prom_sample(out: &mut String, name: &str, label: Option<(&str, &str)>, value: f64) {
    out.push_str(name);
    push_labels(out, label);
    out.push(' ');
    push_f64(out, value);
    out.push('\n');
}

/// Append a whole single-sample metric: header plus value.
pub(crate) fn prom_metric(out: &mut String, name: &str, help: &str, kind: &str, value: f64) {
    prom_header(out, name, help, kind);
    prom_sample(out, name, None, value);
}

/// Append one cumulative `_bucket` line with its `le` bound.
fn prom_bucket(out: &mut String, name: &str, label: Option<(&str, &str)>, le: f64, count: u64) {
    out.push_str(name);
    out.push_str("_bucket{");
    if let Some((k, v)) = label {
        push_label(out, k, v);
        out.push(',');
    }
    out.push_str("le=\"");
    push_f64(out, le);
    out.push_str("\"} ");
    push_f64(out, count as f64);
    out.push('\n');
}

/// Render a histogram handed over as `(upper_bound, count-in-bucket)`
/// pairs plus a total sum — how the journal's flush profile (owned by
/// the storage crate) is exposed without a crate dependency cycle.
pub(crate) fn prom_histogram_from_buckets(
    out: &mut String,
    name: &str,
    help: &str,
    buckets: &[(f64, u64)],
    sum: f64,
) {
    prom_header(out, name, help, "histogram");
    let mut cumulative = 0u64;
    for &(le, count) in buckets {
        cumulative += count;
        prom_bucket(out, name, None, le, cumulative);
    }
    out.push_str(name);
    out.push_str("_bucket{le=\"+Inf\"} ");
    push_f64(out, cumulative as f64);
    out.push('\n');
    prom_sample(out, &format!("{name}_sum"), None, sum);
    prom_sample(out, &format!("{name}_count"), None, cumulative as f64);
}

fn push_labels(out: &mut String, label: Option<(&str, &str)>) {
    if let Some((k, v)) = label {
        out.push('{');
        push_label(out, k, v);
        out.push('}');
    }
}

/// `key="value"` — label values here are op names and version strings
/// (no quotes, backslashes or newlines), so no escaping is performed.
fn push_label(out: &mut String, key: &str, value: &str) {
    out.push_str(key);
    out.push_str("=\"");
    out.push_str(value);
    out.push('"');
}

/// Shortest-round-trip float formatting; integral values render without
/// a fractional part (Prometheus parses both).
fn push_f64(out: &mut String, value: f64) {
    use std::fmt::Write;
    if value.fract() == 0.0 && value.abs() < 9.0e15 {
        let _ = write!(out, "{}", value as i64);
    } else {
        let _ = write!(out, "{value:?}");
    }
}

impl Default for ServiceMetrics {
    fn default() -> ServiceMetrics {
        ServiceMetrics::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::OpId;

    #[test]
    fn counters_accumulate() {
        let m = ServiceMetrics::new();
        m.request();
        m.request();
        m.error();
        m.session_created();
        m.sessions_evicted(3);
        m.tuples_cleaned(10);
        m.cells_fixed(7);
        m.cache_hit();
        m.cache_miss();
        m.sessions_recovered(2);
        m.journal_totals(1024, 12);
        m.audit_spilled(5);
        m.snapshot_written();
        m.rules_reload();
        m.master_append();
        m.regions_recertified(6);
        m.regions_cache_patched();
        let s = m.snapshot();
        assert_eq!(s.requests, 2);
        assert_eq!(s.errors, 1);
        assert_eq!(s.sessions_created, 1);
        assert_eq!(s.sessions_evicted, 3);
        assert_eq!(s.sessions_recovered, 2);
        assert_eq!(s.tuples_cleaned, 10);
        assert_eq!(s.cells_fixed, 7);
        assert_eq!(s.cache_hits, 1);
        assert_eq!(s.cache_misses, 1);
        assert_eq!(s.journal_bytes, 1024);
        assert_eq!(s.journal_events, 12);
        assert_eq!(s.audit_spilled_records, 5);
        assert_eq!(s.snapshots_written, 1);
        assert_eq!(s.rules_reloaded, 1);
        assert_eq!(s.master_appends, 1);
        assert_eq!(s.regions_recertified, 6);
        assert_eq!(s.regions_cache_patched, 1);
    }

    #[test]
    fn latency_and_connection_telemetry() {
        let m = ServiceMetrics::new();
        m.connection_opened();
        m.connection_opened();
        m.connection_closed();
        m.add_bytes_in(100);
        m.add_bytes_out(300);
        let get = OpId::SessionGet.row();
        for _ in 0..50 {
            m.observe_latency(get, Duration::from_micros(10));
        }
        m.observe_latency(get, Duration::from_millis(5));
        let s = m.snapshot();
        assert_eq!(s.connections_open, 1);
        assert_eq!(s.connections_total, 2);
        assert_eq!(s.bytes_in, 100);
        assert_eq!(s.bytes_out, 300);
        let get = s.latency.iter().find(|l| l.op == "session.get").unwrap();
        assert_eq!(get.count, 51);
        // p50 sits in the 10µs bucket [8192, 16384) ns; with per-bucket
        // sums the estimate is the bucket's empirical mean — exactly
        // 10µs here, not the 16384ns upper bound. p99 must catch the
        // 5ms outlier (again as the exact mean of its bucket).
        assert_eq!(get.p50_ns, 10_000);
        assert_eq!(get.p99_ns, 5_000_000);
        // Ops with no traffic are omitted.
        assert!(s.latency.iter().all(|l| l.op == "session.get"));
    }

    #[test]
    fn the_two_non_op_classes_have_slots_of_their_own() {
        let m = ServiceMetrics::new();
        m.observe_latency(&ops::OTHER, Duration::from_micros(1));
        m.observe_latency(&ops::PARSE_ERROR, Duration::from_micros(1));
        let s = m.snapshot();
        let other = s.latency.iter().find(|l| l.op == "other").unwrap();
        assert_eq!(other.count, 1);
        let parse = s.latency.iter().find(|l| l.op == "parse_error").unwrap();
        assert_eq!(parse.count, 1);
    }

    #[test]
    fn percentiles_clamp_to_bucket_bounds() {
        let h = OpHistogram::new();
        // Values spread inside one bucket: the mean stays in range.
        h.observe(Duration::from_nanos(1025));
        h.observe(Duration::from_nanos(2000));
        let (count, p50, _) = h.summarize();
        assert_eq!(count, 2);
        assert!((1024..=2048).contains(&p50), "p50 {p50} escaped its bucket");
    }

    #[test]
    fn engine_stats_accumulate_per_op_class() {
        let m = ServiceMetrics::new();
        let validate = OpId::SessionValidate.row();
        m.add_engine_stats(
            validate,
            &EngineStats {
                fixpoint_runs: 1,
                rule_attempts: 4,
                master_lookups: 5,
                index_probes: 5,
            },
        );
        m.add_engine_stats(
            validate,
            &EngineStats {
                fixpoint_runs: 1,
                rule_attempts: 2,
                master_lookups: 1,
                index_probes: 0,
            },
        );
        let mut prom = String::new();
        m.render_prom(&mut prom);
        assert!(prom.contains("cerfix_engine_fixpoint_runs_total{op=\"session.validate\"} 2"));
        assert!(prom.contains("cerfix_engine_rule_attempts_total{op=\"session.validate\"} 6"));
        assert!(prom.contains("cerfix_engine_master_lookups_total{op=\"session.validate\"} 6"));
        assert!(prom.contains("cerfix_engine_index_probes_total{op=\"session.validate\"} 5"));
    }

    #[test]
    fn prom_rendering_has_full_buckets_and_correct_shapes() {
        let m = ServiceMetrics::new();
        m.request();
        m.observe_latency(OpId::SessionGet.row(), Duration::from_micros(10));
        m.observe_batch_latency(Duration::from_micros(250));
        m.observe_reactor_loop(Duration::from_micros(50));
        m.reactor_poll();
        m.reactor_wakeup();
        m.observe_ack_latency(Duration::from_micros(700));
        m.replication_events_served(12);
        m.quorum_timeout();
        let mut out = String::new();
        m.render_prom(&mut out);
        assert!(out.contains("# TYPE cerfix_requests_total counter"));
        assert!(out.contains("cerfix_requests_total 1"));
        assert!(out.contains("# TYPE cerfix_request_duration_seconds histogram"));
        // Full bucket set for the op with traffic: 40 finite + +Inf.
        let get_buckets = out
            .lines()
            .filter(|l| l.starts_with("cerfix_request_duration_seconds_bucket{op=\"session.get\""))
            .count();
        assert_eq!(get_buckets, LATENCY_BUCKETS + 1);
        // Ops without traffic are omitted from the histogram family.
        assert!(!out.contains("op=\"clean\""));
        assert!(out.contains("cerfix_request_duration_seconds_count{op=\"session.get\"} 1"));
        assert!(out.contains("cerfix_worker_batch_duration_seconds_count 1"));
        assert!(out.contains("cerfix_reactor_loop_duration_seconds_count 1"));
        assert!(out.contains("cerfix_reactor_polls_total 1"));
        assert!(out.contains("cerfix_reactor_wakeups_total 1"));
        // Buckets are cumulative and end at +Inf with the total count.
        assert!(out.contains("cerfix_worker_batch_duration_seconds_bucket{le=\"+Inf\"} 1"));
        assert!(out.contains("cerfix_commit_ack_duration_seconds_count 1"));
        assert!(out.contains("cerfix_replication_events_served_total 12"));
        assert!(out.contains("cerfix_quorum_timeouts_total 1"));
    }
}
