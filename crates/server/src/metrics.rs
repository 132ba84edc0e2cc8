//! Service instruments: every counter, gauge, flag and histogram is one
//! row of the [`instruments!`] table below, and everything that names
//! an instrument is generated from or loops over that table — the
//! [`ServiceMetrics`] storage, the public [`MetricsSnapshot`], the
//! `metrics`/`stats` reply ([`metrics_reply`]), the Prometheus text
//! of `metrics.prom` ([`prom_text`]) and the `metrics.history` sample
//! ([`MetricsSnapshot::write_history`]).
//!
//! Adding an instrument is one row plus the call that bumps it (a
//! `stored` row: `metrics.my_counter.inc()` where the thing happens) or
//! the closure that reads it from its owner (a `sampled` row). Nothing
//! else in the crate lists instruments.

use crate::errors::ServeError;
use crate::health::HealthReport;
use crate::ops::{self, Op};
use crate::protocol::PROTOCOL_VERSION;
use crate::replication::{FollowerLag, Role};
use crate::service::{CleaningService, Reply};
use crate::wire::JsonWriter;
use cerfix::EngineStats;
use cerfix_storage::FlushProfile;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// A stored scalar: one relaxed atomic, bumped where the thing it counts
/// happens. Operational telemetry, not synchronization — a snapshot is
/// per-instrument atomic, so two instruments read microseconds apart may
/// disagree about whether an in-flight request has landed; consumers
/// that need cross-counter invariants diff two snapshots over an
/// interval.
#[derive(Debug, Default)]
pub(crate) struct Cell(AtomicU64);

impl Cell {
    pub(crate) fn inc(&self) {
        self.add(1);
    }

    pub(crate) fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Gauges only (`connections_open`, `requests_in_flight`).
    pub(crate) fn dec(&self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }

    pub(crate) fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Request-latency histogram buckets: bucket `i` covers
/// `[2^i, 2^(i+1))` nanoseconds. 40 buckets reach ~9 minutes — far past
/// any op this service runs.
const LATENCY_BUCKETS: usize = 40;

/// A duration histogram (fixed atomics — observing never locks or
/// allocates, which keeps it on the zero-allocation request path).
/// Each bucket carries a count *and* a sum of the observed values, so
/// percentile estimates interpolate to the bucket's empirical mean
/// instead of reporting its upper bound.
#[derive(Debug)]
pub(crate) struct OpHistogram {
    buckets: [AtomicU64; LATENCY_BUCKETS],
    sums: [AtomicU64; LATENCY_BUCKETS],
}

impl Default for OpHistogram {
    fn default() -> OpHistogram {
        OpHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sums: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl OpHistogram {
    pub(crate) fn observe(&self, elapsed: Duration) {
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

    /// Total observations.
    fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Write this histogram as one series: every bucket with its upper
    /// bound in seconds, and the sum of observed values in seconds.
    fn expose_as(&self, family: &mut Family<'_>, label: Option<(&str, &str)>) {
        let buckets = self.buckets.iter().enumerate().map(|(i, bucket)| {
            (
                (1u64 << (i + 1)) as f64 * 1e-9,
                bucket.load(Ordering::Relaxed),
            )
        });
        let sum_ns: u64 = self.sums.iter().map(|s| s.load(Ordering::Relaxed)).sum();
        family.histogram(label, buckets, sum_ns as f64 * 1e-9);
    }
}

/// One `T` per latency class of the op table (every op, plus
/// `parse_error` and `other`), indexed by the request's row.
#[derive(Debug)]
pub(crate) struct PerOp<T>(Box<[T]>);

impl<T: Default> Default for PerOp<T> {
    fn default() -> PerOp<T> {
        PerOp((0..ops::SLOTS).map(|_| T::default()).collect())
    }
}

impl<T> std::ops::Index<&Op> for PerOp<T> {
    type Output = T;

    fn index(&self, op: &Op) -> &T {
        &self.0[op.slot]
    }
}

impl<T> PerOp<T> {
    fn by_class(&self) -> impl Iterator<Item = (&'static Op, &T)> {
        ops::classes().zip(self.0.iter())
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
    /// Median latency, nanoseconds: the mean of the observations in the
    /// histogram bucket the median falls in.
    pub p50_ns: u64,
    /// 99th-percentile latency, nanoseconds (same in-bucket mean).
    pub p99_ns: u64,
}

impl PerOp<OpHistogram> {
    /// Summaries of the op classes with traffic.
    fn summaries(&self) -> Vec<OpLatency> {
        self.by_class()
            .filter_map(|(op, hist)| {
                let (count, p50_ns, p99_ns) = hist.summarize();
                (count > 0).then_some(OpLatency {
                    op: op.name,
                    count,
                    p50_ns,
                    p99_ns,
                })
            })
            .collect()
    }
}

/// What a scalar row is: decides its Prometheus `# TYPE` and whether the
/// `metrics` JSON shows a number or a boolean.
#[derive(Clone, Copy)]
pub(crate) enum Kind {
    /// Monotonic; its Prometheus name ends in `_total`.
    Counter,
    /// A level that goes both ways.
    Gauge,
    /// A 0/1 gauge, a JSON boolean.
    Flag,
}

/// One scalar row of the table, as the renderers see it.
pub(crate) struct Scalar {
    /// The `metrics` JSON key and the [`MetricsSnapshot`] field.
    pub field: &'static str,
    pub kind: Kind,
    /// The Prometheus family name.
    pub prom: &'static str,
    /// A constant label on the family's one sample.
    pub label: Option<(&'static str, &'static str)>,
    pub help: &'static str,
    /// Left out of the `metrics` JSON of an in-memory service (clients
    /// key their journal display on these being present). Prometheus
    /// and `metrics.history` carry every row either way, so a family
    /// never appears or disappears.
    pub journaled_only: bool,
    pub get: fn(&MetricsSnapshot) -> u64,
}

impl Scalar {
    /// The row's `# TYPE`.
    pub(crate) fn prom_type(&self) -> &'static str {
        match self.kind {
            Kind::Counter => "counter",
            Kind::Gauge | Kind::Flag => "gauge",
        }
    }
}

/// A row that is not one unlabelled number: a histogram, a family with
/// one sample per op or per follower, or a value only a scrape computes.
/// Exposed over `metrics.prom` only.
pub(crate) struct FamilyRow {
    pub prom: &'static str,
    /// The `# TYPE`.
    pub kind: &'static str,
    help: &'static str,
    expose: fn(&Scrape<'_>, &mut Family<'_>),
}

/// What one `metrics.prom` scrape computes once and every row reads.
struct Scrape<'a> {
    service: &'a CleaningService,
    /// Probing logs ready/not-ready transitions and feeds the shedder,
    /// which is why only a scrape — never [`MetricsSnapshot::take`] —
    /// evaluates the rows that read it.
    health: HealthReport,
    lags: Vec<FollowerLag>,
    /// The journal's group-commit profile (`None` in memory mode).
    flushes: Option<FlushProfile>,
}

/// How a stored family writes its samples.
trait Expose {
    /// The family's `# TYPE`.
    const TYPE: &'static str;
    fn expose(&self, family: &mut Family<'_>);
}

impl Expose for OpHistogram {
    const TYPE: &'static str = "histogram";

    fn expose(&self, family: &mut Family<'_>) {
        self.expose_as(family, None);
    }
}

/// Full buckets for the op classes with traffic only (every class × 40
/// empty buckets would be pure noise).
impl Expose for PerOp<OpHistogram> {
    const TYPE: &'static str = "histogram";

    fn expose(&self, family: &mut Family<'_>) {
        for (op, hist) in self.by_class() {
            if hist.count() > 0 {
                hist.expose_as(family, Some(("op", op.name)));
            }
        }
    }
}

/// One sample per op class that has counted anything.
impl Expose for PerOp<Cell> {
    const TYPE: &'static str = "counter";

    fn expose(&self, family: &mut Family<'_>) {
        for (op, cell) in self.by_class() {
            let count = cell.get();
            if count > 0 {
                family.sample(Some(("op", op.name)), count as f64);
            }
        }
    }
}

macro_rules! journaled_only {
    () => {
        false
    };
    (journaled) => {
        true
    };
}

macro_rules! constant_label {
    () => {
        None
    };
    ($key:ident = $value:literal) => {
        Some((stringify!($key), $value))
    };
}

/// Declares [`ServiceMetrics`], [`MetricsSnapshot`], [`SCALARS`] and
/// [`FAMILIES`] from one list of rows, so storage, snapshot and the
/// three expositions cannot disagree.
macro_rules! instruments {
    (
        stored { $(
            $(#[$s_scope:ident])? $s:ident $s_kind:ident $s_prom:literal $s_help:literal;
        )* }
        sampled { $(
            $(#[$p_scope:ident])? $p:ident $p_kind:ident $p_prom:literal
                $({ $p_label:ident = $p_value:literal })? $p_help:literal = $p_read:expr;
        )* }
        families { $(
            $f:ident : $f_ty:ty = $f_prom:literal $f_help:literal;
        )* }
        scraped { $(
            $c_prom:literal $c_kind:ident $c_help:literal = $c_expose:expr;
        )* }
    ) => {
        /// Every stored instrument of one
        /// [`CleaningService`](crate::CleaningService); call sites bump
        /// the field itself.
        #[derive(Debug)]
        pub(crate) struct ServiceMetrics {
            started: Instant,
            $( #[doc = $s_help] pub(crate) $s: Cell, )*
            $( #[doc = $f_help] pub(crate) $f: $f_ty, )*
        }

        impl ServiceMetrics {
            /// Fresh instruments, uptime starting now.
            pub(crate) fn new() -> ServiceMetrics {
                ServiceMetrics {
                    started: Instant::now(),
                    $( $s: Cell::default(), )*
                    $( $f: <$f_ty>::default(), )*
                }
            }
        }

        /// A point-in-time copy of every scalar instrument (flags read 0
        /// or 1) plus the per-op latency summaries.
        #[derive(Debug, Clone, Default, PartialEq, Eq)]
        pub struct MetricsSnapshot {
            $( #[doc = $s_help] pub $s: u64, )*
            $( #[doc = $p_help] pub $p: u64, )*
            /// Per-op request-latency summaries (ops with traffic only).
            pub latency: Vec<OpLatency>,
        }

        impl MetricsSnapshot {
            /// Load every stored row and sample every sampled one from
            /// its owner. Cheap and free of side effects: atomic loads
            /// and a few short-held locks.
            pub(crate) fn take(service: &CleaningService) -> MetricsSnapshot {
                let stored = service.metrics_raw();
                MetricsSnapshot {
                    $( $s: stored.$s.get(), )*
                    $( $p: {
                        let read: fn(&CleaningService) -> u64 = $p_read;
                        read(service)
                    }, )*
                    latency: stored.latency.summaries(),
                }
            }
        }

        /// The scalar rows, stored then sampled.
        pub(crate) static SCALARS: &[Scalar] = &[
            $( Scalar {
                field: stringify!($s),
                kind: Kind::$s_kind,
                prom: $s_prom,
                label: None,
                help: $s_help,
                journaled_only: journaled_only!($($s_scope)?),
                get: |snapshot| snapshot.$s,
            }, )*
            $( Scalar {
                field: stringify!($p),
                kind: Kind::$p_kind,
                prom: $p_prom,
                label: constant_label!($($p_label = $p_value)?),
                help: $p_help,
                journaled_only: journaled_only!($($p_scope)?),
                get: |snapshot| snapshot.$p,
            }, )*
        ];

        /// The family rows, stored then scraped.
        pub(crate) static FAMILIES: &[FamilyRow] = &[
            // A stored family is always declared, samples or not; only
            // the scraped rows below may be absent (no follower, no
            // journal).
            $( FamilyRow {
                prom: $f_prom,
                kind: <$f_ty as Expose>::TYPE,
                help: $f_help,
                expose: |scrape, family| {
                    family.header();
                    scrape.service.metrics_raw().$f.expose(family)
                },
            }, )*
            $( FamilyRow {
                prom: $c_prom,
                kind: stringify!($c_kind),
                help: $c_help,
                expose: $c_expose,
            }, )*
        ];
    };
}

// Columns: field (= `metrics` JSON key = `MetricsSnapshot` field), kind,
// Prometheus name, help. `#[journaled]` rows are left out of the JSON of
// an in-memory service.
instruments! {
    // One relaxed atomic each, bumped where the thing happens.
    stored {
        requests                  Counter "cerfix_requests_total"                  "Protocol requests handled (including failed ones).";
        requests_in_flight        Gauge   "cerfix_requests_in_flight"              "Requests being served whose op class can be shed, a commit waiting for its fsync included: the admission shedder's input.";
        errors                    Counter "cerfix_errors_total"                    "Requests answered with an error.";
        sessions_created          Counter "cerfix_sessions_created_total"          "Sessions created.";
        sessions_committed        Counter "cerfix_sessions_committed_total"        "Sessions committed (reached session.commit).";
        sessions_aborted          Counter "cerfix_sessions_aborted_total"          "Sessions aborted by the client.";
        sessions_evicted          Counter "cerfix_sessions_evicted_total"          "Sessions reaped by idle eviction.";
        sessions_recovered        Counter "cerfix_sessions_recovered_total"        "Sessions rebuilt from the journal/snapshot at startup.";
        tuples_cleaned            Counter "cerfix_tuples_cleaned_total"            "Tuples processed through the batch clean op.";
        cells_fixed               Counter "cerfix_cells_fixed_total"               "Cells changed by rules across all ops.";
        #[journaled]
        snapshots_written         Counter "cerfix_snapshots_written_total"         "Snapshots installed (journal truncations).";
        rules_reloaded            Counter "cerfix_rules_reloaded_total"            "Successful rules.reload swaps.";
        master_appends            Counter "cerfix_master_appends_total"            "Successful master.append batches.";
        connections_open          Gauge   "cerfix_connections_open"                "TCP connections currently open.";
        connections_total         Counter "cerfix_connections_total"               "TCP connections ever accepted.";
        connections_refused       Counter "cerfix_connections_refused_total"       "Connections refused by the global quota or drain.";
        bytes_in                  Counter "cerfix_bytes_in_total"                  "Request bytes read off sockets.";
        bytes_out                 Counter "cerfix_bytes_out_total"                 "Response bytes written to sockets.";
        net_reads                 Counter "cerfix_net_reads_total"                 "read calls made on connection sockets.";
        net_writes                Counter "cerfix_net_writes_total"                "write_all calls made on connection sockets: one per read's replies, and one ahead of a line that waits.";
        replication_events_served Counter "cerfix_replication_events_served_total" "Journal events served to follower replication cursors.";
        quorum_timeouts           Counter "cerfix_quorum_timeouts_total"           "Commits that timed out waiting for a follower quorum (applied and locally durable, answered quorum_timeout).";
        replica_syncs_led         Counter "cerfix_replica_syncs_led_total"         "Held replica.sync requests a quorum commit served on its own thread, reading the follower's ack itself, while the connection's thread slept through the round.";
        #[journaled]
        scrubs_run                Counter "cerfix_scrubs_total"                    "Integrity scrubs run via the scrub protocol op.";
        #[journaled]
        scrub_corruptions         Counter "cerfix_scrub_corruptions_total"         "Corrupt regions found by scrubs, cumulative.";
        requests_shed_overload    Counter "cerfix_requests_shed_overload_total"    "Requests shed by the admission shedder with an overloaded error.";
        requests_shed_deadline    Counter "cerfix_requests_shed_deadline_total"    "Requests shed because their deadline_ms expired before work started (or their quorum wait outlived it).";
        sessions_refused_draining Counter "cerfix_sessions_refused_draining_total" "session.create requests refused while draining.";
        drains_started            Counter "cerfix_drains_started_total"            "Graceful drains started via server.drain.";
    }
    // Read from the value's owner at snapshot time, so a number has one
    // source whichever exposition shows it.
    sampled {
        uptime_secs            Gauge   "cerfix_uptime_seconds"                "Seconds since service start."
            = |s| s.metrics_raw().uptime_secs();
        protocol               Gauge   "cerfix_protocol_version"              "Wire protocol version this server speaks."
            = |_| PROTOCOL_VERSION;
        workers                Gauge   "cerfix_workers"                       "Threads a batch clean may fan its tuples out across."
            = |s| s.workers() as u64;
        live_sessions          Gauge   "cerfix_sessions_live"                 "Interactive sessions currently live."
            = |s| s.live_sessions() as u64;
        shed_level             Gauge   "cerfix_shed_level"                    "Admission shed level: 0 admit all, 1 shed heavy reads, 2 shed sessions too."
            = |s| s.shedder().level();
        shed_watermark         Gauge   "cerfix_shed_watermark"                "Requests in flight at which the shedder enters level 1."
            = |s| s.shedder().high();
        draining               Flag    "cerfix_draining"                      "1 while a graceful drain is in progress."
            = |s| u64::from(s.is_draining());
        audit_records          Gauge   "cerfix_audit_records"                 "Audit records ever recorded (resident or spilled)."
            = |s| s.audit().len() as u64;
        audit_spilled_records  Gauge   "cerfix_audit_spilled_records"         "Audit records not resident in memory: every record when journaled (the spill holds them), the evicted ones in memory mode."
            = |s| s.audit().spilled() as u64;
        trace_spans_recorded   Counter "cerfix_trace_spans_recorded_total"    "Request spans published into the trace ring."
            = |s| s.trace().ring().recorded();
        trace_slow_spans       Counter "cerfix_trace_slow_spans_total"        "Spans that crossed the slow-request threshold."
            = |s| s.trace().slow().recorded();
        diag_events_emitted    Counter "cerfix_diag_events_emitted_total"     "Diagnostic events admitted into the structured log."
            = |s| s.diag().emitted();
        diag_events_suppressed Counter "cerfix_diag_events_suppressed_total"  "Diagnostic events dropped by the per-subsystem rate limiter."
            = |s| s.diag().suppressed();
        #[journaled]
        journal_bytes          Gauge   "cerfix_journal_bytes"                 "Bytes appended to the write-ahead journal (0 in memory mode)."
            = |s| s.storage().map_or(0, |storage| storage.journal().bytes_appended());
        #[journaled]
        journal_events         Gauge   "cerfix_journal_events"                "Events appended to the write-ahead journal."
            = |s| s.storage().map_or(0, |storage| storage.journal().events_appended());
        #[journaled]
        journal_epoch          Gauge   "cerfix_journal_epoch"                 "Journal truncation epoch (bumps on snapshot)."
            = |s| s.storage().map_or(0, |storage| storage.epoch());
        #[journaled]
        degraded               Flag    "cerfix_degraded" { cause = "disk_full" } "1 while the service is degraded to read-only, by cause."
            = |s| u64::from(s.is_degraded());
        #[journaled]
        journal_poisoned       Flag    "cerfix_journal_poisoned"              "1 once a journal fsync failure has permanently poisoned the writer."
            = |s| u64::from(s.is_poisoned_journal());
        #[journaled]
        audit_spill_errors     Counter "cerfix_audit_spill_write_errors_total" "Audit-spill write failures (records retried by the spill's flusher; nonzero means the archive may lag the window)."
            = |s| s.storage().map_or(0, |storage| storage.spill().write_errors());
        cluster_size           Gauge   "cerfix_cluster_size"                  "Configured replication cluster size N."
            = |s| s.replication().cluster as u64;
        quorum                 Gauge   "cerfix_replication_quorum"            "Durable copies a quorum-ack commit waits for."
            = |s| s.replication().quorum() as u64;
    }
    // Stored, but not one number: the type says how it is observed and
    // exposed. The four per-op counters are charged from each request's
    // `EngineStats` delta.
    families {
        latency:        PerOp<OpHistogram> = "cerfix_request_duration_seconds"      "Service time per request, by op class.";
        queue_wait:     OpHistogram        = "cerfix_request_queue_wait_seconds"    "Receipt to dispatch queue wait per request (behind the lines of the same read).";
        ack_latency:    OpHistogram        = "cerfix_commit_ack_duration_seconds"   "Quorum-ack wait on commit: local fsync to follower quorum.";
        engine_compile: OpHistogram        = "cerfix_engine_compile_seconds"        "Time to build one engine state (boot, rules.reload, master.append, replayed master rows or rules): master indexes, plan, regions.";
        fixpoint_runs:  PerOp<Cell>        = "cerfix_engine_fixpoint_runs_total"    "Fixpoint runs, by op class.";
        rule_attempts:  PerOp<Cell>        = "cerfix_engine_rule_attempts_total"    "Rules attempted by the correcting engine, by op class.";
        master_lookups: PerOp<Cell>        = "cerfix_engine_master_lookups_total"   "Master tuple lookups, by op class.";
        index_probes:   PerOp<Cell>        = "cerfix_engine_index_probes_total"     "Master index probes made, by op class: one per key group a run looks up, so rules sharing a join key share one.";
    }
    // Computed by the scrape: labelled by a value, read off the health
    // probe, per follower, or a histogram another crate owns.
    scraped {
        "cerfix_build_info" gauge "Build metadata (value is always 1)."
            = |_, family| family.sample(Some(("version", env!("CARGO_PKG_VERSION"))), 1.0);
        "cerfix_role" gauge "Replication role of this node (1 for the labelled role)."
            = |scrape, family| family.sample(Some(("role", scrape.service.role().name())), 1.0);
        "cerfix_healthy" gauge "1 when this node is ready to serve its role, else 0."
            = |scrape, family| family.sample(None, f64::from(u8::from(scrape.health.ready)));
        "cerfix_live" gauge "1 while the process and its journal flusher are up."
            = |scrape, family| family.sample(None, f64::from(u8::from(scrape.health.live)));
        "cerfix_replication_lag_seconds" gauge "Seconds since this follower last covered everything durable here."
            = |scrape, family| for lag in &scrape.lags {
                family.sample(Some(("follower", lag.name.as_str())), lag.lag_seconds);
            };
        "cerfix_replication_lag_events" gauge "Durable journal events this follower has not acknowledged."
            = |scrape, family| for lag in &scrape.lags {
                family.sample(Some(("follower", lag.name.as_str())), lag.lag_events as f64);
            };
        "cerfix_journal_fsync_duration_seconds" histogram "Group-commit write+fsync latency per flush cycle."
            = |scrape, family| if let Some(flushes) = &scrape.flushes {
                let buckets = flushes.fsync_ns_buckets.iter();
                family.histogram(
                    None,
                    buckets.map(|&(upper, count)| (upper as f64 * 1e-9, count)),
                    flushes.fsync_ns_total as f64 * 1e-9,
                );
            };
        "cerfix_journal_flush_batch_events" histogram "Events retired per group-commit flush (batch size)."
            = |scrape, family| if let Some(flushes) = &scrape.flushes {
                let buckets = flushes.batch_events_buckets.iter();
                family.histogram(
                    None,
                    buckets.map(|&(upper, count)| (upper as f64, count)),
                    flushes.batch_events_total as f64,
                );
            };
    }
}

impl ServiceMetrics {
    /// Whole seconds since service start (cheap: one monotonic read).
    pub(crate) fn uptime_secs(&self) -> u64 {
        self.started.elapsed().as_secs()
    }

    /// Charge a request's engine-stat delta to its op class. Four
    /// relaxed adds, no locks or allocation — hot-path safe (and the
    /// zero-work ops skip even this at the call site).
    pub(crate) fn add_engine_stats(&self, op: &Op, stats: &EngineStats) {
        self.fixpoint_runs[op].add(stats.fixpoint_runs as u64);
        self.rule_attempts[op].add(stats.rule_attempts as u64);
        self.master_lookups[op].add(stats.master_lookups as u64);
        self.index_probes[op].add(stats.index_probes as u64);
    }
}

impl MetricsSnapshot {
    /// The scalar rows, each under its `metrics` key.
    fn write_scalars(&self, w: &mut JsonWriter<'_>, journaled: bool) {
        for row in SCALARS
            .iter()
            .filter(|row| journaled || !row.journaled_only)
        {
            let value = (row.get)(self);
            match row.kind {
                Kind::Flag => w.field(row.field, value != 0),
                Kind::Counter | Kind::Gauge => w.field(row.field, value),
            }
        }
    }

    /// The per-op latency summaries as the `latency` object.
    fn write_latency(&self, w: &mut JsonWriter<'_>) {
        w.key("latency");
        w.begin_obj();
        for l in &self.latency {
            w.key(l.op);
            w.begin_obj();
            w.field("count", l.count);
            w.field("p50_us", l.p50_ns as f64 / 1000.0);
            w.field("p99_us", l.p99_ns as f64 / 1000.0);
            w.end_obj();
        }
        w.end_obj();
    }

    /// One `metrics.history` sample: every scalar row plus `latency`, so
    /// consumers can diff any counter into a rate.
    pub(crate) fn write_history(&self, w: &mut JsonWriter<'_>) {
        self.write_scalars(w, true);
        self.write_latency(w);
    }
}

/// The `metrics` / `stats` reply: every scalar row under its field
/// name, plus the structured views (per-follower replication lag, per-op
/// latency, the active engine's region-search diagnostics).
pub(crate) fn metrics_reply(service: &CleaningService, reply: Reply<'_>) -> Result<(), ServeError> {
    let snapshot = service.metrics();
    let journaled = service.is_journaled();
    let role = service.role();
    let lags = service.follower_lags();
    reply.send(|w| {
        w.field("version", env!("CARGO_PKG_VERSION"));
        w.field("storage", if journaled { "journaled" } else { "memory" });
        w.field("role", role.name());
        if let Role::Follower { primary } = &role {
            w.field("primary", primary);
        }
        snapshot.write_scalars(w, journaled);
        if !lags.is_empty() {
            w.key("replication");
            w.begin_obj();
            for lag in &lags {
                w.data_key(&lag.name);
                w.begin_obj();
                lag.write_fields(w);
                w.field("last_seen_secs", lag.last_seen_secs);
                w.end_obj();
            }
            w.end_obj();
        }
        // Ops with traffic only: how long requests spend in the service,
        // transport excluded.
        if !snapshot.latency.is_empty() {
            snapshot.write_latency(w);
        }
        // What building an engine state costs: boot, every reload and
        // every master append.
        let (count, p50_ns, p99_ns) = service.metrics_raw().engine_compile.summarize();
        w.key("engine_compile");
        w.begin_obj();
        w.field("count", count);
        w.field("p50_us", p50_ns as f64 / 1000.0);
        w.field("p99_us", p99_ns as f64 / 1000.0);
        w.end_obj();
        service.write_region_search(w);
    })
}

/// The Prometheus text exposition (version 0.0.4) of every row: scalars
/// as single samples, families with full histogram buckets (not just
/// p50/p99). Every scalar and stored family is always declared; a
/// scraped family with nothing to say — no follower registered, no
/// journal — is left out rather than exposed empty.
pub(crate) fn prom_text(service: &CleaningService) -> String {
    let snapshot = service.metrics();
    let scrape = Scrape {
        service,
        health: service.probe_health(),
        lags: service.follower_lags(),
        flushes: service
            .storage()
            .map(|storage| storage.journal().flush_profile()),
    };
    let mut out = String::with_capacity(16 * 1024);
    for row in SCALARS {
        Family::new(&mut out, row.prom, row.prom_type(), row.help)
            .sample(row.label, (row.get)(&snapshot) as f64);
    }
    for row in FAMILIES {
        (row.expose)(
            &scrape,
            &mut Family::new(&mut out, row.prom, row.kind, row.help),
        );
    }
    out
}

/// `metrics.prom`: [`prom_text`] inside a one-line JSON envelope so it
/// rides the wire protocol — operators (or a scrape sidecar) unwrap
/// `body` and serve it over HTTP.
pub(crate) fn prom_reply(service: &CleaningService, reply: Reply<'_>) -> Result<(), ServeError> {
    let body = prom_text(service);
    reply.send(|w| {
        w.field("content_type", "text/plain; version=0.0.4");
        w.field("body", &body);
    })
}

/// Writer for one Prometheus family: the `# HELP` / `# TYPE` pair goes
/// out once, with the first sample or an explicit [`Family::header`], so
/// a family that asks for neither leaves no trace.
struct Family<'a> {
    out: &'a mut String,
    name: &'static str,
    kind: &'static str,
    help: &'static str,
    open: bool,
}

impl<'a> Family<'a> {
    fn new(
        out: &'a mut String,
        name: &'static str,
        kind: &'static str,
        help: &'static str,
    ) -> Family<'a> {
        Family {
            out,
            name,
            kind,
            help,
            open: false,
        }
    }

    fn header(&mut self) {
        if !self.open {
            self.open = true;
            for (what, text) in [("HELP", self.help), ("TYPE", self.kind)] {
                self.out.push_str("# ");
                self.out.push_str(what);
                self.out.push(' ');
                self.out.push_str(self.name);
                self.out.push(' ');
                self.out.push_str(text);
                self.out.push('\n');
            }
        }
    }

    /// One `name<suffix>{label,le} value` line. Label values here are op
    /// names, follower addresses and version strings (no quotes,
    /// backslashes or newlines), so no escaping is performed.
    fn line(&mut self, suffix: &str, label: Option<(&str, &str)>, le: Option<&str>, value: f64) {
        use std::fmt::Write;
        self.header();
        self.out.push_str(self.name);
        self.out.push_str(suffix);
        let mut labels = label.into_iter().chain(le.map(|le| ("le", le))).peekable();
        if labels.peek().is_some() {
            self.out.push('{');
            for (i, (key, value)) in labels.enumerate() {
                if i > 0 {
                    self.out.push(',');
                }
                let _ = write!(self.out, "{key}=\"{value}\"");
            }
            self.out.push('}');
        }
        self.out.push(' ');
        push_f64(self.out, value);
        self.out.push('\n');
    }

    fn sample(&mut self, label: Option<(&str, &str)>, value: f64) {
        self.line("", label, None, value);
    }

    /// One histogram series from `(upper bound, count in bucket)` pairs
    /// and the sum of observed values: cumulative `_bucket` lines ending
    /// at `+Inf`, then `_sum` and `_count`.
    fn histogram(
        &mut self,
        label: Option<(&str, &str)>,
        buckets: impl Iterator<Item = (f64, u64)>,
        sum: f64,
    ) {
        let mut cumulative = 0u64;
        let mut bound = String::new();
        for (le, count) in buckets {
            cumulative += count;
            bound.clear();
            push_f64(&mut bound, le);
            self.line("_bucket", label, Some(&bound), cumulative as f64);
        }
        self.line("_bucket", label, Some("+Inf"), cumulative as f64);
        self.line("_sum", label, None, sum);
        self.line("_count", label, None, cumulative as f64);
    }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::OpId;

    #[test]
    fn latency_summaries_are_in_bucket_means_of_ops_with_traffic() {
        let m = ServiceMetrics::new();
        let get = OpId::SessionGet.row();
        for _ in 0..50 {
            m.latency[get].observe(Duration::from_micros(10));
        }
        m.latency[get].observe(Duration::from_millis(5));
        let latency = m.latency.summaries();
        // Ops with no traffic are omitted.
        assert_eq!(latency.len(), 1);
        assert_eq!(latency[0].op, "session.get");
        assert_eq!(latency[0].count, 51);
        // p50 sits in the 10µs bucket [8192, 16384) ns; with per-bucket
        // sums the estimate is the bucket's empirical mean — exactly
        // 10µs here, not the 16384ns upper bound. p99 must catch the
        // 5ms outlier (again as the exact mean of its bucket).
        assert_eq!(latency[0].p50_ns, 10_000);
        assert_eq!(latency[0].p99_ns, 5_000_000);
    }

    #[test]
    fn the_two_non_op_classes_have_slots_of_their_own() {
        let m = ServiceMetrics::new();
        m.latency[&ops::OTHER].observe(Duration::from_micros(1));
        m.latency[&ops::PARSE_ERROR].observe(Duration::from_micros(1));
        let latency = m.latency.summaries();
        let count = |op: &str| latency.iter().find(|l| l.op == op).unwrap().count;
        assert_eq!(count("other"), 1);
        assert_eq!(count("parse_error"), 1);
    }

    #[test]
    fn percentiles_clamp_to_bucket_bounds() {
        let h = OpHistogram::default();
        // Values spread inside one bucket: the mean stays in range.
        h.observe(Duration::from_nanos(1025));
        h.observe(Duration::from_nanos(2000));
        let (count, p50, _) = h.summarize();
        assert_eq!(count, 2);
        assert!((1024..=2048).contains(&p50), "p50 {p50} escaped its bucket");
    }

    /// The text shapes the table walk in `lib.rs` does not look at: an
    /// op with traffic gets its full bucket set, cumulative and ending
    /// at `+Inf`; an op without traffic gets none; an unlabelled
    /// histogram is exposed even when empty.
    #[test]
    fn histogram_families_render_full_cumulative_buckets() {
        let m = ServiceMetrics::new();
        m.latency[OpId::SessionGet.row()].observe(Duration::from_micros(10));
        m.latency[OpId::SessionGet.row()].observe(Duration::from_millis(1));
        let mut out = String::new();
        let name = "cerfix_request_duration_seconds";
        m.latency
            .expose(&mut Family::new(&mut out, name, "histogram", "help"));
        assert!(out.starts_with(&format!("# HELP {name} help\n# TYPE {name} histogram\n")));
        let buckets: Vec<&str> = out
            .lines()
            .filter(|l| l.starts_with("cerfix_request_duration_seconds_bucket{op=\"session.get\""))
            .collect();
        assert_eq!(buckets.len(), LATENCY_BUCKETS + 1);
        assert!(buckets[0].ends_with(" 0"));
        assert!(buckets[LATENCY_BUCKETS - 1].ends_with(" 2"));
        assert_eq!(
            buckets[LATENCY_BUCKETS],
            format!("{name}_bucket{{op=\"session.get\",le=\"+Inf\"}} 2")
        );
        assert!(out.contains(&format!("{name}_count{{op=\"session.get\"}} 2")));
        assert!(!out.contains("op=\"clean\""));

        let mut out = String::new();
        let name = "cerfix_commit_ack_duration_seconds";
        m.ack_latency
            .expose(&mut Family::new(&mut out, name, "histogram", "help"));
        assert!(out.contains(&format!("{name}_bucket{{le=\"+Inf\"}} 0")));
        assert!(out.contains(&format!("{name}_count 0")));

        // A per-op counter family nobody bumped writes no sample (its row
        // in the table still declares it).
        let mut out = String::new();
        m.rule_attempts
            .expose(&mut Family::new(&mut out, "x_total", "counter", "help"));
        assert_eq!(out, "");
    }
}
