//! The cleaning service: shared state + the request frame.
//!
//! A [`CleaningService`] is the long-lived, shared, concurrent front end
//! over the core [`DataMonitor`](cerfix::DataMonitor): one hot-swappable
//! [`EngineState`] — rule set and master data, and everything derived
//! from the pair: compiled plan, regions, region search, consistency
//! verdicts — serves every session (the demo's "master database shared by
//! many clerks"), and a [`SessionManager`] tracks in-flight interactive
//! sessions with idle eviction. A request is served on the thread
//! that read it; a batch `clean` long enough to pay for it fans its
//! tuples out across up to `ServiceConfig::workers` threads — its own and
//! scoped helpers drawn from one service-wide [`cerfix::ThreadBudget`] of
//! `workers - 1`, so concurrent cleans never hold more than that many
//! helpers between them.
//!
//! The service is transport-agnostic: [`CleaningService::handle_line`]
//! maps one wire line to one reply line — the TCP server and the
//! in-process client both speak through it, so tests exercise the exact
//! production code path without sockets — and
//! [`CleaningService::handle`] is the same path entered with a typed
//! [`Request`]. Each op is described once, as a row of the op table in
//! [`crate::ops`], and implemented once, as a handler `dispatch` calls:
//! a method that takes the [`Reply`] it writes into and returns
//! `Result<(), ServeError>` — a row of the error table in
//! [`crate::errors`] and a sentence. This module holds the state, its construction
//! and the frame every request passes (`handle_line*` → `answer` →
//! `serve` → `admit` → `dispatch`); the handlers live beside the state
//! they work on — [`crate::session_ops`], [`crate::engine`],
//! [`crate::admin`], [`crate::health`], [`crate::replication`],
//! [`crate::metrics`] — and [`crate::recovery`] rebuilds it all at boot.
//!
//! ## Durability (optional)
//!
//! Built with [`CleaningService::with_storage`], the service write-ahead
//! journals every session mutation (create / validate / commit / abort /
//! evict / rules-reload) through [`cerfix_storage::Storage`], records
//! audit provenance straight into the disk spill (which is its only
//! copy), and periodically snapshots live session state (truncating the journal).
//! On startup it replays snapshot + journal through the same
//! deterministic correcting process that produced them, so every
//! uncommitted session resumes with exactly the validated `AttrSet`s
//! and pending fixes it had. `session.commit` waits for its group
//! fsync — an acknowledged commit survives kill-9. The default
//! [`CleaningService::new`] remains purely in-memory, and keeps the
//! newest `MEMORY_AUDIT_WINDOW` audit records.
//!
//! A `storage gate` (an `RwLock<()>`) makes snapshots atomic against
//! concurrent mutation: every mutating op holds it in read mode across
//! *mutate + journal-append*, the snapshotter holds it in write mode
//! across *export-sessions + write-snapshot + truncate-journal*, and a
//! rule reload holds it in write mode across *swap + journal-append* so
//! the journal's event order is the order events were applied in.

use crate::admission::{Priority, Shedder};
use crate::diag::{DiagSink, Subsystem};
use crate::engine::{compile_engine, EngineState};
use crate::errors::{ErrorCode, ServeError};
use crate::metrics::{self, Cell, MetricsSnapshot, ServiceMetrics};
use crate::ops::{self, Op};
use crate::protocol::{scan_line, Request, RequestScratch, ScannedLine, SyncFields};
use crate::replication::{FollowerLag, ReplicationState, Role};
use crate::session::SessionManager;
use crate::timeseries::TimeSeries;
use crate::trace::{stamp, Span, TraceSink};
use crate::wire::{Json, JsonWriter};
use cerfix::{AuditLog, AuditSink, MasterData, ThreadBudget};
use cerfix_relation::{SchemaRef, Tuple};
use cerfix_rules::RuleSet;
use cerfix_storage::{JournalEvent, SessionEvent, Storage, StorageConfig};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};
use std::time::{Duration, Instant};

/// Default `cluster.status` peer-dial timeout (`config.set
/// peer_timeout_ms` overrides at runtime).
const DEFAULT_PEER_TIMEOUT_MS: u64 = 750;

/// CPU time of a 128-tuple batch `clean` on one core, in µs — the
/// heaviest request the default shed watermark is sized against
/// (`ServiceConfig::shed_watermark`).
const HEAVY_REQUEST_CPU_US: u64 = 500;

/// Audit records an in-memory service keeps resident, the newest; older
/// ones are evicted (counted as spilled, no longer readable). A
/// journaled service keeps none: its spill is the window.
pub(crate) const MEMORY_AUDIT_WINDOW: usize = 4096;

/// Tunables for a [`CleaningService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Threads a batch `clean` may fan its tuples out across: the
    /// connection's own, plus scoped helpers from a service-wide budget
    /// of `workers - 1` (`1` cleans them on the connection's own thread).
    pub workers: usize,
    /// Idle time after which a session may be evicted.
    pub session_ttl: Duration,
    /// Maximum live sessions.
    pub max_sessions: usize,
    /// Default k for region requests and monitor suggestions.
    pub region_top_k: usize,
    /// Pre-compute regions at startup (first sessions then start warm,
    /// matching the demo's "pre-computed to reduce the cost").
    pub precompute_regions: bool,
    /// Capacity of the in-memory request-trace ring (spans kept for
    /// `trace.read`), rounded up to a power of two. `0` disables
    /// tracing entirely.
    pub trace_buffer: usize,
    /// Requests slower than this are also kept in the slow-request
    /// ring, which plain traffic cannot wash out.
    pub slow_ms: u64,
    /// Tail this primary's journal instead of accepting mutations
    /// (requires storage). `None` — the default — makes this node a
    /// primary.
    pub replicate_from: Option<String>,
    /// Replication cluster size N (nodes counting this one). When
    /// N > 1, a commit acknowledgement additionally waits until
    /// ⌈(N+1)/2⌉ cluster members (counting this primary) have fsynced
    /// it; `1` keeps today's local-fsync durability.
    pub cluster_size: usize,
    /// How long a quorum-ack commit waits for follower acks before
    /// failing with `quorum_timeout` (the commit stays applied and
    /// locally durable).
    pub ack_timeout: Duration,
    /// Address this node advertises in `replica.sync` requests — the
    /// key the primary tracks its replication lag under (and the
    /// address `cluster.status` fan-out dials it back on).
    pub advertise: Option<String>,
    /// Capacity of the in-memory diagnostic-log ring (events kept for
    /// `log.read`), rounded up to a power of two. `0` disables the
    /// ring; the stderr mirror stays on either way.
    pub diag_buffer: usize,
    /// Optional durable diagnostic sink: every admitted event is also
    /// appended, one line per event, to this file.
    pub diag_file: Option<PathBuf>,
    /// How far behind its primary a follower may fall before its
    /// health probe reports not-ready (measured as time since its
    /// durable cursor last covered the primary's).
    pub max_lag: Duration,
    /// Free-space watermark under the data directory: when available
    /// bytes drop below this the service degrades to read-only
    /// (mutations answered `degraded: disk_full`) before the disk is
    /// actually full, and recovers automatically when space returns.
    /// `0` disables the watermark; an ENOSPC write still degrades.
    pub min_free_bytes: u64,
    /// Requests in flight at which the admission shedder starts
    /// refusing heavy reads with a retryable `overloaded` error (twice
    /// this many also sheds session mutations). `0` — the default —
    /// derives the watermark from the slow-request budget at startup:
    /// `slow_ms` over the ≈ 0.5 ms of CPU the heaviest common request (a
    /// 128-tuple `clean`) takes, 1 000 at the default `slow_ms` — the
    /// backlog one core clears within the budget. It does not scale with
    /// `workers`: a commit waiting on its group fsync holds no core, so
    /// the clerks a healthy node serves at once set the count, not its
    /// CPUs.
    pub shed_watermark: usize,
    /// Global TCP connection quota; connections over it are refused
    /// with an `overloaded` error line. `0` disables the quota.
    pub max_connections: usize,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            workers: std::thread::available_parallelism().map_or(4, usize::from),
            session_ttl: Duration::from_secs(15 * 60),
            max_sessions: 10_000,
            region_top_k: 8,
            precompute_regions: true,
            trace_buffer: 1024,
            slow_ms: 500,
            replicate_from: None,
            cluster_size: 1,
            ack_timeout: Duration::from_secs(5),
            advertise: None,
            diag_buffer: 1024,
            diag_file: None,
            max_lag: Duration::from_secs(10),
            min_free_bytes: 0,
            shed_watermark: 0,
            max_connections: 0,
        }
    }
}

/// A registered shutdown wakeup (see `ServiceInner::shutdown_hooks`).
type ShutdownHook = Box<dyn Fn() + Send + Sync>;

/// Durable storage plus the gate that serializes snapshots against
/// mutating ops (see module docs).
pub(crate) struct StorageBinding {
    pub(crate) storage: Storage,
    pub(crate) gate: RwLock<()>,
}

pub(crate) struct ServiceInner {
    pub(crate) engine: RwLock<Arc<EngineState>>,
    /// Serializes engine swaps (`rules.reload`, `master.append`): each
    /// swap is read-modify-write over the current state, so two
    /// concurrent swaps must not interleave (a lost master append would
    /// silently drop rows).
    pub(crate) swap_lock: Mutex<()>,
    /// The input schema never changes across reloads (rule sets are
    /// re-parsed against it), so it is cached here unguarded.
    pub(crate) input_schema: SchemaRef,
    pub(crate) sessions: SessionManager,
    pub(crate) metrics: ServiceMetrics,
    /// Shared provenance stream: every per-request monitor records into
    /// it. Windowed over the disk spill when storage is attached,
    /// unbounded in memory otherwise.
    pub(crate) audit: Arc<AuditLog>,
    /// Per-request trace spans (stage timings + engine-stat deltas) in
    /// a lock-free ring; read by `trace.read`.
    pub(crate) trace: TraceSink,
    /// Structured diagnostic log (leveled, rate-limited events; read
    /// by `log.read`, mirrored to stderr and an optional file).
    pub(crate) diag: DiagSink,
    /// Periodic metric snapshots for server-side rate math (sampled by
    /// the housekeeper, read by `metrics.history`).
    pub(crate) timeseries: TimeSeries,
    /// Last health verdict: 0 = never probed, 1 = ready, 2 = not
    /// ready. Transitions between the two probed states are logged.
    pub(crate) last_ready: AtomicU64,
    /// Degraded read-only latch: set on ENOSPC (or the free-space
    /// watermark), cleared by the housekeeper once the journal writes
    /// cleanly again and space is back above the watermark. While set,
    /// mutations are answered `degraded: disk_full` and reads keep
    /// serving.
    pub(crate) degraded: AtomicBool,
    /// Whether the current journal poisoning has been announced to the
    /// diag log (one `error` event per poisoning, not one per probe).
    pub(crate) poison_logged: AtomicBool,
    /// Audit-spill write errors already surfaced to the diag log — the
    /// housekeeper logs only the delta against the spill's own total.
    pub(crate) spill_errors_seen: AtomicU64,
    pub(crate) storage: Option<StorageBinding>,
    /// Replication state: role, the primary's follower/ack registry and
    /// fencing watermark, a follower's tail-thread handle.
    pub(crate) replication: ReplicationState,
    /// The state compiled at boot, retained so a snapshot resync can
    /// start over from it, and so a snapshot can tell which master rows
    /// were appended since (`SnapshotData::master_appended` is relative
    /// to the boot master — replaying it onto an already-appended master
    /// would double-apply rows).
    pub(crate) boot: Arc<EngineState>,
    pub(crate) config: ServiceConfig,
    /// The load shedder (admission control), fed the requests in flight.
    pub(crate) shedder: Shedder,
    /// The helper threads every batch `clean` draws from: `workers - 1`
    /// between them, however many cleans run at once.
    pub(crate) fan_out: ThreadBudget,
    /// Graceful-drain latch: set by `server.drain`. While set, front
    /// ends refuse fresh connections and `session.create` answers
    /// `draining`; in-flight sessions keep being served until the drain
    /// monitor (or its bound) triggers shutdown.
    pub(crate) draining: AtomicBool,
    /// Guards the single drain-monitor thread (repeated `server.drain`
    /// calls are idempotent).
    pub(crate) drain_monitor_started: AtomicBool,
    /// `cluster.status` peer-dial timeout, milliseconds (runtime
    /// tunable via `config.set peer_timeout_ms`).
    pub(crate) peer_timeout_ms: AtomicU64,
    pub(crate) shutdown: AtomicBool,
    /// Out-of-band wakeups run when a `shutdown` request is accepted —
    /// how the TCP front end (self-connect + connection half-close)
    /// learns about shutdown in milliseconds instead of on its next
    /// poll. Hooks must be idempotent.
    shutdown_hooks: Mutex<Vec<(u64, ShutdownHook)>>,
    next_hook_id: AtomicU64,
}

/// The concurrent multi-session cleaning service. Cheap to clone (an
/// `Arc` handle); all clones share sessions, engine state and metrics.
#[derive(Clone)]
pub struct CleaningService {
    pub(crate) inner: Arc<ServiceInner>,
}

impl std::fmt::Debug for CleaningService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CleaningService")
            .field("rules", &self.engine().rules.len())
            .field("master_rows", &self.engine().master.len())
            .field("workers", &self.workers())
            .field("live_sessions", &self.inner.sessions.len())
            .field("journaled", &self.inner.storage.is_some())
            .finish()
    }
}

impl CleaningService {
    /// Build an in-memory service over shared master data and rules
    /// (sessions and audit history do not survive the process, and only
    /// the newest `MEMORY_AUDIT_WINDOW` audit records stay readable).
    pub fn new(
        master: Arc<MasterData>,
        rules: Arc<RuleSet>,
        config: ServiceConfig,
    ) -> CleaningService {
        CleaningService::build(master, rules, config, None)
    }

    /// Build a journaled service over a data directory and recover
    /// whatever a previous process left there: the snapshot is loaded,
    /// the journal suffix is replayed through the correcting process,
    /// and every uncommitted session resumes exactly where it was.
    /// `rules` are the boot rules; if the recovered state carries a
    /// hot-reloaded rule set, it wins (the reload is replayed).
    pub fn with_storage(
        master: Arc<MasterData>,
        rules: Arc<RuleSet>,
        config: ServiceConfig,
        storage_config: StorageConfig,
    ) -> std::io::Result<CleaningService> {
        let (storage, recovered) = Storage::open(storage_config)?;
        // Keep the recovered snapshot's bytes: a primary serves them to
        // followers whose cursor predates the current epoch.
        let snapshot_bytes = recovered
            .snapshot
            .as_ref()
            .map(|snapshot| Arc::new(snapshot.encode()));
        let service = CleaningService::build(master, rules, config, Some(storage));
        service
            .recover(recovered)
            .map_err(|error| std::io::Error::new(std::io::ErrorKind::InvalidData, error))?;
        *service
            .inner
            .replication
            .last_snapshot
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = snapshot_bytes;
        if let Some(primary) = service.inner.config.replicate_from.clone() {
            *service
                .inner
                .replication
                .role
                .write()
                .unwrap_or_else(|e| e.into_inner()) = Role::Follower {
                primary: primary.clone(),
            };
            let tail_service = service.clone();
            let handle = std::thread::Builder::new()
                .name("cerfix-replica-tail".into())
                .spawn(move || crate::replication::run_tail(tail_service, primary))?;
            *service
                .inner
                .replication
                .tail
                .lock()
                .unwrap_or_else(PoisonError::into_inner) = Some(handle);
        }
        Ok(service)
    }

    fn build(
        master: Arc<MasterData>,
        rules: Arc<RuleSet>,
        config: ServiceConfig,
        storage: Option<Storage>,
    ) -> CleaningService {
        let metrics = ServiceMetrics::new();
        let input_schema = rules.input_schema().clone();
        let boot = compile_engine(master, rules, &config, &metrics);
        let audit = Arc::new(match &storage {
            Some(storage) => AuditLog::with_sink(Arc::clone(storage.spill()) as Arc<dyn AuditSink>),
            None => AuditLog::windowed(MEMORY_AUDIT_WINDOW),
        });
        let trace = TraceSink::new(config.trace_buffer, Duration::from_millis(config.slow_ms));
        let diag = DiagSink::new(config.diag_buffer, config.diag_file.as_ref());
        CleaningService {
            inner: Arc::new(ServiceInner {
                sessions: SessionManager::new(config.session_ttl, config.max_sessions),
                engine: RwLock::new(Arc::clone(&boot)),
                input_schema,
                metrics,
                audit,
                trace,
                diag,
                timeseries: TimeSeries::new(),
                last_ready: AtomicU64::new(0),
                degraded: AtomicBool::new(false),
                poison_logged: AtomicBool::new(false),
                spill_errors_seen: AtomicU64::new(0),
                storage: storage.map(|storage| StorageBinding {
                    storage,
                    gate: RwLock::new(()),
                }),
                replication: ReplicationState::new(config.cluster_size, config.ack_timeout),
                boot,
                swap_lock: Mutex::new(()),
                shedder: Shedder::new(if config.shed_watermark > 0 {
                    config.shed_watermark
                } else {
                    (config.slow_ms.saturating_mul(1000) / HEAVY_REQUEST_CPU_US) as usize
                }),
                fan_out: ThreadBudget::new(config.workers.max(1) - 1),
                draining: AtomicBool::new(false),
                drain_monitor_started: AtomicBool::new(false),
                peer_timeout_ms: AtomicU64::new(DEFAULT_PEER_TIMEOUT_MS),
                config,
                shutdown: AtomicBool::new(false),
                shutdown_hooks: Mutex::new(Vec::new()),
                next_hook_id: AtomicU64::new(1),
            }),
        }
    }

    /// The current engine state (a cheap refcounted handle; holders keep
    /// serving the rule set they started with across a reload). A
    /// request takes it once and borrows everything else from it.
    pub(crate) fn engine(&self) -> Arc<EngineState> {
        note_engine_handle();
        Arc::clone(&self.inner.engine.read().unwrap_or_else(|e| e.into_inner()))
    }

    /// Run `f` with the storage gate held for reading (mutating ops);
    /// a no-op wrapper for in-memory services.
    pub(crate) fn with_gate<R>(&self, f: impl FnOnce() -> R) -> R {
        match &self.inner.storage {
            Some(binding) => {
                let _gate = binding.gate.read().unwrap_or_else(|e| e.into_inner());
                f()
            }
            None => f(),
        }
    }

    pub(crate) fn journal(&self, event: &JournalEvent) -> Option<u64> {
        self.inner
            .storage
            .as_ref()
            .map(|binding| binding.storage.append(event))
    }

    /// [`journal`](Self::journal) a session event from the values the
    /// request already holds; nothing is built without a journal.
    pub(crate) fn journal_session(&self, event: SessionEvent<'_>) -> Option<u64> {
        self.inner
            .storage
            .as_ref()
            .map(|binding| binding.storage.append_session(event))
    }

    /// The service's input schema (what session tuples must match).
    pub fn input_schema(&self) -> &SchemaRef {
        &self.inner.input_schema
    }

    /// Live session count.
    pub fn live_sessions(&self) -> usize {
        self.inner.sessions.len()
    }

    /// Threads a batch `clean` may fan out across.
    pub fn workers(&self) -> usize {
        self.inner.config.workers.max(1)
    }

    /// True once a graceful drain has begun: the front end refuses
    /// fresh connections and new sessions are answered `draining`.
    pub fn is_draining(&self) -> bool {
        self.inner.draining.load(Ordering::Acquire)
    }

    /// Admit or refuse one fresh TCP connection (drain + global quota).
    /// `Err` is what the front end answers — one line, through
    /// `refuse_line` — before closing.
    pub fn admit_connection(&self) -> Result<(), ServeError> {
        let quota = self.inner.config.max_connections;
        let refused = if self.is_draining() {
            ErrorCode::Draining.error("server is draining; connect to another node")
        } else if quota > 0 && self.inner.metrics.connections_open.get() >= quota as u64 {
            ErrorCode::Overloaded.error(format!(
                "connection quota of {quota} reached; retry with backoff"
            ))
        } else {
            return Ok(());
        };
        self.inner.metrics.connections_refused.inc();
        Err(refused)
    }

    /// True iff this service journals to a data directory.
    pub fn is_journaled(&self) -> bool {
        self.inner.storage.is_some()
    }

    /// This node's replication role.
    pub fn role(&self) -> Role {
        self.inner
            .replication
            .role
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Shared replication state (follower registry, fencing watermark).
    pub(crate) fn replication(&self) -> &ReplicationState {
        &self.inner.replication
    }

    /// This node's durable journal cursor `(epoch, offset)` — what the
    /// tail loop pulls from and acks with. `None` without storage.
    pub(crate) fn durable_cursor(&self) -> Option<(u64, u64)> {
        self.storage().map(Storage::durable_position)
    }

    /// The follower id this node reports in `replica.sync` requests.
    pub(crate) fn advertised(&self) -> String {
        self.inner
            .config
            .advertise
            .clone()
            .unwrap_or_else(|| "follower".into())
    }

    /// The shared audit log (cell-level provenance of every op).
    pub fn audit(&self) -> &Arc<AuditLog> {
        &self.inner.audit
    }

    /// A point-in-time copy of every scalar instrument: stored ones
    /// loaded, sampled ones read from their owner now.
    pub fn metrics(&self) -> MetricsSnapshot {
        MetricsSnapshot::take(self)
    }

    /// The structured diagnostic log sink (replication and transport
    /// threads emit through it).
    pub(crate) fn diag(&self) -> &DiagSink {
        &self.inner.diag
    }

    /// Record one counter snapshot into the in-process time-series
    /// ring. The TCP front end calls this from its housekeeping loop
    /// (about once a second); embedders with their own runtime can
    /// too. `metrics.history` reads the window back, and
    /// `cluster.status` derives its req/s figure from it.
    pub fn sample_timeseries(&self) {
        self.inner.timeseries.record(self.metrics());
    }

    /// True once a `shutdown` request has been accepted.
    pub fn shutdown_requested(&self) -> bool {
        self.inner.shutdown.load(Ordering::Acquire)
    }

    /// Register a wakeup to run when shutdown is requested (idempotent —
    /// it may fire more than once). Front ends use this to interrupt
    /// blocked accepts/reads immediately instead of noticing shutdown on
    /// a timeout. Returns a token for [`remove_shutdown_hook`](Self::remove_shutdown_hook).
    pub fn add_shutdown_hook(&self, hook: impl Fn() + Send + Sync + 'static) -> u64 {
        let id = self.inner.next_hook_id.fetch_add(1, Ordering::Relaxed);
        self.inner
            .shutdown_hooks
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push((id, Box::new(hook)));
        id
    }

    /// Unregister a shutdown wakeup (a front end leaving `run`).
    pub fn remove_shutdown_hook(&self, id: u64) {
        self.inner
            .shutdown_hooks
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .retain(|(hook_id, _)| *hook_id != id);
    }

    pub(crate) fn notify_shutdown(&self) {
        // Neither a `replica.sync` held here nor one of ours held by
        // the primary may sit out its hold.
        self.wake_holds();
        self.interrupt_tail();
        let hooks = self
            .inner
            .shutdown_hooks
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        for (_, hook) in hooks.iter() {
            hook();
        }
    }

    /// The stored instruments, for the front end recording transport
    /// telemetry (connection gauge, byte counters).
    pub(crate) fn metrics_raw(&self) -> &ServiceMetrics {
        &self.inner.metrics
    }

    /// Where the sampled instruments of the table in `metrics.rs` read
    /// their values: each one's owner.
    pub(crate) fn storage(&self) -> Option<&Storage> {
        self.inner.storage.as_ref().map(|binding| &binding.storage)
    }

    pub(crate) fn trace(&self) -> &TraceSink {
        &self.inner.trace
    }

    pub(crate) fn shedder(&self) -> &Shedder {
        &self.inner.shedder
    }

    /// Count one request as held — in `requests_in_flight`, the
    /// shedder's input — until the guard drops.
    pub(crate) fn hold_request(&self) -> InFlight<'_> {
        self.inner.metrics.requests_in_flight.inc();
        InFlight(&self.inner.metrics.requests_in_flight)
    }

    /// Per-follower lag against this node's durable cursor.
    pub(crate) fn follower_lags(&self) -> Vec<FollowerLag> {
        let cursor = self.durable_cursor().unwrap_or((0, 0));
        self.inner.replication.follower_lags(cursor)
    }

    /// Evict idle sessions now; returns how many were reaped. The TCP
    /// server calls this periodically; embedders with their own runtime
    /// can too. Evictions are journaled so recovery does not resurrect
    /// reaped sessions.
    pub fn sweep_idle_sessions(&self) -> usize {
        let evicted = self.with_gate(|| {
            let evicted = self.inner.sessions.evict_idle();
            if !evicted.is_empty() {
                self.journal(&JournalEvent::SessionsEvicted {
                    sessions: evicted.clone(),
                });
            }
            evicted
        });
        if !evicted.is_empty() {
            self.inner
                .metrics
                .sessions_evicted
                .add(evicted.len() as u64);
        }
        evicted.len()
    }

    /// Handle one wire line: parse, dispatch, render. Never panics on
    /// malformed input — errors come back as `{"ok":false,...}` lines.
    ///
    /// Convenience wrapper over
    /// [`handle_line_into`](Self::handle_line_into) that allocates fresh
    /// buffers; connection loops hold reusable ones instead.
    pub fn handle_line(&self, line: &str) -> String {
        let mut out = String::new();
        let mut scratch = RequestScratch::default();
        self.handle_line_into(line, &mut out, &mut scratch);
        out
    }

    /// Handle one wire line, rendering the response into `out`
    /// (appended; callers clear between requests) with `scratch` as the
    /// reusable parse buffer. Every line is read the same way — one
    /// validating pass (`protocol::scan_line`), then its op's fields off
    /// the view that pass leaves — and every op has one handler. The
    /// handler writes its reply straight into `out` through the one
    /// [`JsonWriter`], and the correcting process and the monitor's
    /// suggestion run on `scratch` and on bitsets: the session ops a
    /// pipelining client hammers (`session.get` / `fix` / `validate` /
    /// `commit` / `abort`) own no heap data, so a warmed request
    /// allocates nothing in memory mode — a validate that fires rules and
    /// ends with a new suggestion included; only a validated string of
    /// more than 22 bytes allocates its text — and a `clean` allocates one
    /// row `Vec` per tuple and its long string cells, not a monitor, a
    /// report or a tree of its reply (`tests/alloc_guard.rs` pins each).
    ///
    /// A client-supplied top-level `"id"` field is echoed verbatim as
    /// the first field of the response, so pipelining clients can
    /// correlate responses (which always arrive in request order per
    /// connection) without counting lines.
    pub fn handle_line_into(&self, line: &str, out: &mut String, scratch: &mut RequestScratch) {
        self.handle_scanned(&scan_line(line), out, scratch, LineClock::at(stamp()));
    }

    /// [`handle_line_into`](Self::handle_line_into) for a caller that
    /// has already scanned the line (the front end scans to see whether
    /// it waits) and knows where the line stands on the `clock`. Returns
    /// where the request ended: the next line's start.
    pub(crate) fn handle_scanned(
        &self,
        scanned: &ScannedLine<'_>,
        out: &mut String,
        scratch: &mut RequestScratch,
        clock: LineClock,
    ) -> Instant {
        // The class the request is charged to.
        let op = match scanned.syntax {
            Some(_) => &ops::PARSE_ERROR,
            None => scanned.op.unwrap_or(&ops::OTHER),
        };
        let LineClock {
            arrived,
            received,
            started,
        } = clock;
        self.answer(op, scanned.id, out, received, started, |reply| {
            self.serve(scanned, op, reply, scratch, arrived, started)
        })
    }

    /// The frame around every request: count it, run `serve` — which
    /// writes its own success reply through the [`Reply`] it is handed —
    /// turn an `Err` into the error reply in one place, then charge
    /// latency and the trace span to `op`. Whatever a handler wrote
    /// before it failed is taken back first, so a request is answered
    /// with exactly one well-formed line. A request whose class can be
    /// shed is held in flight for the whole frame, unwinding included.
    /// Returns the request's end stamp.
    pub(crate) fn answer(
        &self,
        op: &'static Op,
        raw_id: Option<&str>,
        out: &mut String,
        received: Instant,
        started: Instant,
        serve: impl FnOnce(Reply<'_>) -> Result<(), ServeError>,
    ) -> Instant {
        let _held = (op.class != Priority::Critical).then(|| self.hold_request());
        let queue_wait = started.saturating_duration_since(received);
        self.inner.metrics.requests.inc();
        self.inner.metrics.queue_wait.observe(queue_wait);
        let mut span = Span {
            queue_ns: queue_wait.as_nanos() as u64,
            ..Span::default()
        };
        let mark = out.len();
        let reply = Reply {
            w: JsonWriter::new(out),
            raw_id,
            started,
            span: &mut span,
        };
        if let Err(error) = serve(reply) {
            out.truncate(mark);
            self.write_error(&error, raw_id, out);
        }
        let ended = stamp();
        let elapsed = ended - started;
        self.inner.metrics.latency[op].observe(elapsed);
        self.finish_span(&mut span, op, raw_id, elapsed);
        ended
    }

    /// Close out a request's trace span: charge its engine-stat delta
    /// to its op class, derive the residual dispatch time and publish
    /// it — the sink derives the trace id, and drops the span when
    /// tracing is off. Atomics only — no allocation, hot-path safe.
    fn finish_span(&self, span: &mut Span, op: &Op, raw_id: Option<&str>, total: Duration) {
        if span.stats != cerfix::EngineStats::default() {
            self.inner.metrics.add_engine_stats(op, &span.stats);
        }
        span.op = op.slot;
        span.total_ns = total.as_nanos() as u64;
        span.dispatch_ns = span.total_ns.saturating_sub(
            span.parse_ns + span.engine_ns + span.fsync_ns + span.quorum_ns + span.serialize_ns,
        );
        self.inner.trace.record(span, raw_id);
    }

    /// One scanned line, start to reply: syntax → deadline → shed →
    /// fields ([`admit`](Self::admit)) → writable gate → handler. The
    /// line is served from its one scan or answered with that scan's
    /// error — there is no second reading of it.
    fn serve(
        &self,
        scanned: &ScannedLine<'_>,
        op: &'static Op,
        reply: Reply<'_>,
        scratch: &mut RequestScratch,
        arrived: Instant,
        started: Instant,
    ) -> Result<(), ServeError> {
        let admitted = self.admit(scanned, op, scratch, arrived, started, reply.span);
        // In hand or refused, the request is read: parse time ends here.
        reply.span.parse_ns = (stamp() - started).as_nanos() as u64;
        let request = admitted?;
        if op.writes {
            self.check_writable()?;
        }
        if let Request::SessionValidate { .. } = request {
            // Names resolve against the schema as they are read, into
            // `scratch` — after the gate: a follower redirects whatever
            // the names.
            let RequestScratch {
                validations,
                unescape,
                ..
            } = scratch;
            validations.clear();
            scanned.fields.validations(unescape, |name, value| {
                validations.push((self.resolve_attr(name)?, value));
                Ok::<(), ServeError>(())
            })?;
        }
        self.dispatch(request, reply, scratch)
    }

    /// The refusals, cheapest first, then the op's fields. Everything
    /// before the fields reads what the scan already holds and allocates
    /// nothing, so a refused request costs its lexing and no more.
    fn admit(
        &self,
        scanned: &ScannedLine<'_>,
        op: &'static Op,
        scratch: &mut RequestScratch,
        arrived: Instant,
        started: Instant,
        span: &mut Span,
    ) -> Result<Request, ServeError> {
        if let Some(error) = &scanned.syntax {
            return Err(ErrorCode::ParseError.error(&error.0));
        }
        // Deadline check before any engine, journal or fsync cost is
        // paid, counted from the line's arrival: a hold it waited out
        // behind another line does not restart it. `deadline_ms: 0` is deterministically expired; an
        // absurd deadline that overflows `Instant` arithmetic can
        // never expire and is simply dropped.
        if let Some(ms) = scanned.deadline_ms() {
            if let Some(deadline) = arrived.checked_add(Duration::from_millis(ms)) {
                if started >= deadline {
                    self.inner.metrics.requests_shed_deadline.inc();
                    return Err(ErrorCode::DeadlineExceeded
                        .error(format!("deadline of {ms}ms expired before work began")));
                }
                span.deadline = Some(deadline);
            }
        }
        // Admission: two atomic loads on the row the scan named.
        self.shed_check(op)?;
        let id = match op.id {
            Some(id) => id,
            // No row: the `op` field says why.
            None => scanned.fields.op_id(&mut scratch.unescape)?,
        };
        Ok(Request::parse(id, &scanned.fields, &mut scratch.unescape)?)
    }

    /// Serve one typed request: a thin entry over the line path — the
    /// request is rendered, served as a line, and its reply parsed back.
    pub fn handle(&self, request: &Request) -> Json {
        let reply = self.handle_line(&request.to_json().render());
        Json::parse(&reply).expect("the service renders valid JSON replies")
    }

    /// The one handler of each op: it writes its success reply through
    /// `reply` — every op through the one [`JsonWriter`] — or returns
    /// the error [`answer`](Self::answer) writes for it.
    pub(crate) fn dispatch(
        &self,
        request: Request,
        reply: Reply<'_>,
        scratch: &mut RequestScratch,
    ) -> Result<(), ServeError> {
        match request {
            Request::SessionCreate { tuple } => self.session_create(tuple, reply),
            Request::SessionGet { session } => self.session_view(session, reply),
            // `serve` resolved the validations into `scratch`.
            Request::SessionValidate { session, .. } => {
                self.session_validate(session, scratch, reply)
            }
            Request::SessionFix { session } => {
                scratch.validations.clear();
                self.session_validate(session, scratch, reply)
            }
            Request::SessionCommit { session } => self.session_commit(session, reply),
            Request::SessionAbort { session } => self.session_abort(session, reply),
            Request::Hello => self.hello(reply),
            Request::Clean { tuples, trust } => self.clean_batch(tuples, &trust, reply),
            Request::Regions { top_k } => self.regions(top_k, reply),
            Request::Check { mode } => self.check(mode.as_deref(), reply),
            Request::AuditRead { start, count } => self.audit_read(start, count, reply),
            Request::RulesReload { rules } => self.rules_reload(&rules, reply),
            Request::MasterAppend { tuples } => self.master_append(&tuples, reply),
            Request::ReplicaSync {
                follower,
                epoch,
                offset,
                max,
                resync,
                wait_ms, // the front end's business: see `HeldSync`
            } => {
                let sync = SyncFields {
                    follower: &follower,
                    epoch,
                    offset,
                    max,
                    resync,
                    wait_ms,
                };
                self.replica_sync(&sync, reply, &mut scratch.served)
            }
            Request::ReplicaPromote => self.replica_promote(reply),
            Request::Metrics => metrics::metrics_reply(self, reply),
            Request::MetricsProm => metrics::prom_reply(self, reply),
            Request::TraceRead { limit } => self.trace_read(limit, reply),
            Request::Health => self.health_response(reply),
            Request::LogRead {
                limit,
                level,
                subsystem,
            } => self.log_read(limit, level.as_deref(), subsystem.as_deref(), reply),
            Request::MetricsHistory { limit } => self.metrics_history(limit, reply),
            Request::ClusterStatus { fanout } => self.cluster_status(fanout, reply),
            Request::ConfigSet { key, value } => self.config_set(&key, value, reply),
            Request::Scrub => self.scrub_response(reply),
            Request::Drain { wait_ms } => self.server_drain(wait_ms, reply),
            Request::Shutdown => self.shutdown(reply),
        }
    }

    /// Feed the shedder the requests in flight besides the observer's
    /// own; log a level change.
    pub(crate) fn observe_load(&self, in_flight: u64) {
        if let Some((from, to)) = self.inner.shedder.observe(in_flight) {
            self.inner.diag.warn(
                Subsystem::Admission,
                format_args!(
                    "shed level {from} -> {to} ({in_flight} requests in flight, watermark {})",
                    self.inner.shedder.high()
                ),
            );
        }
    }

    /// Admission decision for one request: feed the shedder the other
    /// requests in flight, then shed by the op's class. Three relaxed
    /// atomic loads when the shedder is disarmed — cheap enough for
    /// every request.
    fn shed_check(&self, op: &Op) -> Result<(), ServeError> {
        let own = u64::from(op.class != Priority::Critical);
        let others = self.metrics_raw().requests_in_flight.get() - own;
        self.observe_load(others);
        if !self.inner.shedder.sheds(op.class) {
            return Ok(());
        }
        self.inner.metrics.requests_shed_overload.inc();
        let what = match op.class {
            Priority::Heavy => "heavy reads",
            _ => "session mutations",
        };
        Err(ErrorCode::Overloaded.error(format!(
            "shedding {what} at level {} ({others} requests in flight over watermark {}); retry with backoff",
            self.inner.shedder.level(),
            self.inner.shedder.high(),
        )))
    }

    /// Count and write an error reply — the one place an `ok:false`
    /// line is put on the wire.
    fn write_error(&self, error: &ServeError, raw_id: Option<&str>, out: &mut String) {
        self.inner.metrics.errors.inc();
        let mut w = JsonWriter::new(out);
        w.begin_response(raw_id);
        error.write(&mut w);
        w.end_obj();
    }

    /// The newline-terminated error line of something that is not a
    /// request: a connection refused at accept time
    /// ([`admit_connection`](Self::admit_connection)), a line no parser
    /// sees (over-long, not UTF-8).
    pub(crate) fn refuse_line(&self, error: &ServeError, out: &mut String) {
        self.write_error(error, None, out);
        out.push('\n');
    }

    pub(crate) fn resolve_attr(&self, name: &str) -> Result<usize, ServeError> {
        let schema = self.input_schema();
        if let Some(id) = schema.attr_id(name) {
            return Ok(id);
        }
        // Tolerate numeric attribute ids sent as strings.
        if let Ok(id) = name.parse::<usize>() {
            if id < schema.arity() {
                return Ok(id);
            }
        }
        Err(ErrorCode::BadRequest.error(format!(
            "unknown attribute `{name}` (schema `{}`)",
            schema.name()
        )))
    }
}

/// Where a line stands on the clock: when the read that brought it
/// arrived (its `deadline_ms` counts from there), when it joined the
/// queue it waits in (the arrival, or the release of a hold it waited
/// out behind: its `queue_ns` counts from there), and when its service
/// starts.
#[derive(Clone, Copy)]
pub(crate) struct LineClock {
    pub(crate) arrived: Instant,
    pub(crate) received: Instant,
    pub(crate) started: Instant,
}

impl LineClock {
    /// A line that arrived, and starts, `now`.
    pub(crate) fn at(now: Instant) -> LineClock {
        LineClock {
            arrived: now,
            received: now,
            started: now,
        }
    }
}

/// A request held in flight: released when dropped.
pub(crate) struct InFlight<'a>(&'a Cell);

impl Drop for InFlight<'_> {
    fn drop(&mut self) {
        self.0.dec();
    }
}

/// Where a request's answer goes: the connection's reply buffer (behind
/// the writer), the request's `id` to echo, when its service began, and
/// the trace span the request's stages are charged to. A handler either
/// opens its success reply here or returns `Err`; whatever it wrote
/// before failing, [`CleaningService::answer`] takes back.
pub(crate) struct Reply<'a> {
    w: JsonWriter<'a>,
    raw_id: Option<&'a str>,
    /// The request's start stamp: what a session it touches records as
    /// its last use.
    pub(crate) started: Instant,
    pub(crate) span: &'a mut Span,
}

impl<'a> Reply<'a> {
    /// Open the success reply — the `id` echo, then `"ok":true` — for
    /// the handler to continue and close. The session ops write this
    /// way, under their session's lock, and read no clock for it.
    pub(crate) fn ok(&mut self) -> &mut JsonWriter<'a> {
        self.w.begin_response(self.raw_id);
        self.w.field("ok", true);
        &mut self.w
    }

    /// The whole success reply of a handler that has gathered what it
    /// says: opened, `fields` written, closed — and timed, as the span's
    /// `serialize_ns`. Always `Ok`, so a handler ends with it.
    pub(crate) fn send(
        mut self,
        fields: impl FnOnce(&mut JsonWriter<'a>),
    ) -> Result<(), ServeError> {
        let sending = stamp();
        let w = self.ok();
        fields(w);
        w.end_obj();
        self.span.serialize_ns = (stamp() - sending).as_nanos() as u64;
        Ok(())
    }
}

/// Write `"tuple": [cells]`.
pub(crate) fn write_tuple(w: &mut JsonWriter<'_>, tuple: &Tuple) {
    w.array("tuple", tuple.values(), JsonWriter::value);
}

/// Write `key: [attribute names]`.
pub(crate) fn write_attrs(
    w: &mut JsonWriter<'_>,
    schema: &SchemaRef,
    key: &'static str,
    attrs: impl IntoIterator<Item = usize>,
) {
    w.array(key, attrs, |w, a| w.str_val(schema.attr_name(a)));
}

/// Count a [`CleaningService::engine`] call: a no-op outside the tests
/// that pin them. (The test-only items sit last, so a scan of the file
/// up to its first `cfg(test)` still reads every request path.)
#[cfg(not(test))]
#[inline(always)]
fn note_engine_handle() {}

#[cfg(test)]
thread_local! {
    /// This thread's [`CleaningService::engine`] calls, for the tests
    /// that pin them.
    static ENGINE_HANDLES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

#[cfg(test)]
fn note_engine_handle() {
    ENGINE_HANDLES.with(|handles| handles.set(handles.get() + 1));
}

/// How many times this thread has called [`CleaningService::engine`].
#[cfg(test)]
pub(crate) fn engine_handles() -> u64 {
    ENGINE_HANDLES.with(std::cell::Cell::get)
}
