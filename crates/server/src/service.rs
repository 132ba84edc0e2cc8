//! The cleaning service: shared state + request dispatch.
//!
//! A [`CleaningService`] is the long-lived, shared, concurrent front end
//! over the core [`DataMonitor`]: one immutable `Arc<MasterData>` plus a
//! hot-swappable [`EngineState`] (rule set, compiled plan, pre-computed
//! regions) serves every session (the demo's "master database shared by
//! many clerks"), a [`SessionManager`] tracks in-flight interactive
//! sessions with idle eviction, a [`WorkerPool`] fans batch `clean`
//! requests across workers, and an [`AnalysisCache`] memoizes region
//! searches and consistency verdicts per rule set.
//!
//! The service is transport-agnostic: [`CleaningService::handle_line`]
//! maps one wire line to one reply line — the TCP server and the
//! in-process client both speak through it, so tests exercise the exact
//! production code path without sockets — and
//! [`CleaningService::handle`] is the same path entered with a typed
//! [`Request`]. Each op is described once, as a row of the op table in
//! [`crate::ops`], and implemented once, as an arm of `dispatch`.
//!
//! ## Durability (optional)
//!
//! Built with [`CleaningService::with_storage`], the service write-ahead
//! journals every session mutation (create / validate / commit / abort /
//! evict / rules-reload) through [`cerfix_storage::Storage`], spills
//! audit provenance to disk behind a bounded in-memory window, and
//! periodically snapshots live session state (truncating the journal).
//! On startup it replays snapshot + journal through the same
//! deterministic correcting process that produced them, so every
//! uncommitted session resumes with exactly the validated `AttrSet`s
//! and pending fixes it had. `session.commit` waits for its group
//! fsync — an acknowledged commit survives kill-9. The default
//! [`CleaningService::new`] remains purely in-memory.
//!
//! A `storage gate` (an `RwLock<()>`) makes snapshots atomic against
//! concurrent mutation: every mutating op holds it in read mode across
//! *mutate + journal-append*, the snapshotter holds it in write mode
//! across *export-sessions + write-snapshot + truncate-journal*, and a
//! rule reload holds it in write mode across *swap + journal-append* so
//! the journal's event order is the order events were applied in.

use crate::admission::{Priority, Shedder};
use crate::cache::{ruleset_fingerprint, AnalysisCache};
use crate::client::{Client, RetryPolicy};
use crate::diag::{DiagSink, Level, Subsystem};
use crate::metrics::{self, MetricsSnapshot, ServiceMetrics};
use crate::ops::{self, Op};
use crate::protocol::{scan_line, Request, RequestScratch, ScannedLine, PROTOCOL_VERSION};
use crate::replication::{lock_followers, FollowerLag, ReplicationState, Role};
use crate::session::{SessionError, SessionManager};
use crate::timeseries::{Sample, TimeSeries};
use crate::trace::{Span, TraceSink};
use crate::wire::{render_response_into, Json, JsonWriter};
use cerfix::{
    check_consistency, recheck_regions, search_regions, universe_from_master, AuditLog,
    AuditRecord, AuditSink, CellEvent, CompiledRules, ConsistencyOptions, DataMonitor,
    FixpointReport, MasterData, MonitorSession, Region, RegionFinderOptions, RegionSearch,
    SessionStatus, WorkerPool,
};
use cerfix_relation::{AttrSet, SchemaRef, Tuple, Value};
use cerfix_rules::{parse_rules, render_er_dsl, RuleDecl, RuleSet};
use cerfix_storage::{
    JournalEvent, RecoveredState, SessionSnapshot, SnapshotData, Storage, StorageConfig, SyncError,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};
use std::time::{Duration, Instant};

/// Most audit records one `audit.read` returns when the client asks for
/// more (or doesn't say).
const AUDIT_READ_MAX: u64 = 4096;
/// Default `audit.read` page size.
const AUDIT_READ_DEFAULT: u64 = 256;
/// Default `cluster.status` peer-dial timeout (`config.set
/// peer_timeout_ms` overrides at runtime).
const DEFAULT_PEER_TIMEOUT_MS: u64 = 750;
/// Default bound a graceful drain waits for in-flight sessions before
/// shutting down anyway (`server.drain {"wait_ms": …}` overrides).
const DEFAULT_DRAIN_WAIT_MS: u64 = 10_000;

/// Tunables for a [`CleaningService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads in the batch pool.
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
    /// Worker-queue depth at which the admission shedder starts
    /// refusing heavy reads with a retryable `overloaded` error (twice
    /// this depth also sheds session mutations). `0` — the default —
    /// derives the watermark from the worker count.
    pub shed_watermark: usize,
    /// Global TCP connection quota across both front-ends; connections
    /// over it are refused with an `overloaded` error line. `0`
    /// disables the quota.
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

/// The swappable execution state: what `rules.reload` and
/// `master.append` replace atomically while sessions stay live. The
/// master rides inside so every request observes a (rules, plan, master,
/// regions) quadruple that is mutually consistent — a monitor never
/// serves a plan compiled against a different master generation.
struct EngineState {
    rules: Arc<RuleSet>,
    /// The master repository this state was compiled against.
    master: Arc<MasterData>,
    /// Compiled execution plan shared by every per-request monitor
    /// (masks + index snapshots resolved once per ruleset).
    plan: Arc<CompiledRules>,
    /// Pre-computed certain regions handed to every monitor (shared:
    /// each monitor construction is a refcount bump, not a deep clone).
    regions: Arc<[Region]>,
    /// The full region search behind `regions` (None when region
    /// pre-computation is disabled) — the state master-delta
    /// re-certification patches.
    search: Option<Arc<RegionSearch>>,
    fingerprint: u64,
}

/// A registered shutdown wakeup (see `ServiceInner::shutdown_hooks`).
type ShutdownHook = Box<dyn Fn() + Send + Sync>;

/// Durable storage plus the gate that serializes snapshots against
/// mutating ops (see module docs).
struct StorageBinding {
    storage: Storage,
    gate: RwLock<()>,
}

struct ServiceInner {
    engine: RwLock<Arc<EngineState>>,
    /// Serializes engine swaps (`rules.reload`, `master.append`): each
    /// swap is read-modify-write over the current state, so two
    /// concurrent swaps must not interleave (a lost master append would
    /// silently drop rows).
    swap_lock: Mutex<()>,
    /// Master rows appended since boot, in order — snapshots carry them
    /// so journal truncation cannot lose the append history.
    master_appended: Mutex<Vec<Vec<Value>>>,
    /// The input schema never changes across reloads (rule sets are
    /// re-parsed against it), so it is cached here unguarded.
    input_schema: SchemaRef,
    pool: WorkerPool,
    sessions: SessionManager,
    cache: AnalysisCache,
    metrics: ServiceMetrics,
    /// Shared provenance stream: every per-request monitor records into
    /// it. Windowed over the disk spill when storage is attached,
    /// unbounded in memory otherwise.
    audit: Arc<AuditLog>,
    /// Per-request trace spans (stage timings + engine-stat deltas) in
    /// a lock-free ring; read by `trace.read`.
    trace: TraceSink,
    /// Structured diagnostic log (leveled, rate-limited events; read
    /// by `log.read`, mirrored to stderr and an optional file).
    diag: DiagSink,
    /// Periodic metric snapshots for server-side rate math (sampled by
    /// the housekeeper, read by `metrics.history`).
    timeseries: TimeSeries,
    /// Last health verdict: 0 = never probed, 1 = ready, 2 = not
    /// ready. Transitions between the two probed states are logged.
    last_ready: AtomicU64,
    /// Degraded read-only latch: set on ENOSPC (or the free-space
    /// watermark), cleared by the housekeeper once the journal writes
    /// cleanly again and space is back above the watermark. While set,
    /// mutations are answered `degraded: disk_full` and reads keep
    /// serving.
    degraded: AtomicBool,
    /// Whether the current journal poisoning has been announced to the
    /// diag log (one `error` event per poisoning, not one per probe).
    poison_logged: AtomicBool,
    /// Audit-spill write errors already surfaced to the diag log — the
    /// housekeeper logs only the delta against the spill's own total.
    spill_errors_seen: AtomicU64,
    storage: Option<StorageBinding>,
    /// Replication state: role, the primary's follower/ack registry and
    /// fencing watermark, a follower's tail-thread handle.
    replication: ReplicationState,
    /// The boot-time master and rules, retained so a snapshot resync
    /// can rebuild from scratch (`SnapshotData::master_appended` is
    /// relative to the boot master — replaying it onto an
    /// already-appended master would double-apply rows).
    boot_master: Arc<MasterData>,
    boot_rules: Arc<RuleSet>,
    config: ServiceConfig,
    /// The queue-depth-driven load shedder (admission control).
    shedder: Shedder,
    /// Graceful-drain latch: set by `server.drain`. While set, front
    /// ends refuse fresh connections and `session.create` answers
    /// `draining`; in-flight sessions keep being served until the drain
    /// monitor (or its bound) triggers shutdown.
    draining: AtomicBool,
    /// Guards the single drain-monitor thread (repeated `server.drain`
    /// calls are idempotent).
    drain_monitor_started: AtomicBool,
    /// `cluster.status` peer-dial timeout, milliseconds (runtime
    /// tunable via `config.set peer_timeout_ms`).
    peer_timeout_ms: AtomicU64,
    shutdown: AtomicBool,
    /// Out-of-band wakeups run when a `shutdown` request is accepted —
    /// how the TCP front ends (epoll wakeup fd, threaded self-connect +
    /// connection teardown) learn about shutdown in milliseconds instead
    /// of on their next poll. Hooks must be idempotent.
    shutdown_hooks: Mutex<Vec<(u64, ShutdownHook)>>,
    next_hook_id: AtomicU64,
}

/// The concurrent multi-session cleaning service. Cheap to clone (an
/// `Arc` handle); all clones share sessions, cache, pool and metrics.
#[derive(Clone)]
pub struct CleaningService {
    inner: Arc<ServiceInner>,
}

impl std::fmt::Debug for CleaningService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CleaningService")
            .field("rules", &self.engine().rules.len())
            .field("master_rows", &self.engine().master.len())
            .field("workers", &self.inner.pool.threads())
            .field("live_sessions", &self.inner.sessions.len())
            .field("journaled", &self.inner.storage.is_some())
            .finish()
    }
}

impl CleaningService {
    /// Build an in-memory service over shared master data and rules
    /// (sessions and audit history do not survive the process).
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
            .map_err(|message| std::io::Error::new(std::io::ErrorKind::InvalidData, message))?;
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
        let cache = AnalysisCache::new();
        let metrics = ServiceMetrics::new();
        let input_schema = rules.input_schema().clone();
        let boot_master = Arc::clone(&master);
        let boot_rules = Arc::clone(&rules);
        let engine = compile_engine(master, rules, &config, &cache, &metrics);
        let audit = match &storage {
            Some(storage) => Arc::new(AuditLog::with_sink(
                storage.config().audit_window,
                Arc::clone(storage.spill()) as Arc<dyn AuditSink>,
            )),
            None => Arc::new(AuditLog::new()),
        };
        let trace = TraceSink::new(config.trace_buffer, Duration::from_millis(config.slow_ms));
        let diag = DiagSink::new(config.diag_buffer, config.diag_file.as_ref());
        CleaningService {
            inner: Arc::new(ServiceInner {
                pool: WorkerPool::new(config.workers),
                sessions: SessionManager::new(config.session_ttl, config.max_sessions),
                engine: RwLock::new(engine),
                input_schema,
                cache,
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
                boot_master,
                boot_rules,
                swap_lock: Mutex::new(()),
                master_appended: Mutex::new(Vec::new()),
                shedder: Shedder::new(if config.shed_watermark > 0 {
                    config.shed_watermark
                } else {
                    // Auto: trip well before the health probe's
                    // workers*256 saturation bound so shedding starts
                    // while the probe still reports ready.
                    config.workers.max(1) * 64
                }),
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
    /// serving the rule set they started with across a reload).
    fn engine(&self) -> Arc<EngineState> {
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

    fn journal(&self, event: &JournalEvent) -> Option<u64> {
        self.inner
            .storage
            .as_ref()
            .map(|binding| binding.storage.append(event))
    }

    /// The service's input schema (what session tuples must match).
    pub fn input_schema(&self) -> &SchemaRef {
        &self.inner.input_schema
    }

    /// Live session count.
    pub fn live_sessions(&self) -> usize {
        self.inner.sessions.len()
    }

    /// Worker threads in the batch pool.
    pub fn workers(&self) -> usize {
        self.inner.pool.threads()
    }

    /// True once a graceful drain has begun: front ends must refuse
    /// fresh connections and new sessions are answered `draining`.
    pub fn is_draining(&self) -> bool {
        self.inner.draining.load(Ordering::Acquire)
    }

    /// Admit or refuse one fresh TCP connection (drain + global quota).
    /// `Err` carries the one-line JSON error the front end should write
    /// before closing.
    pub fn admit_connection(&self) -> Result<(), String> {
        if self.is_draining() {
            self.inner.metrics.connections_refused.inc();
            return Err("draining: server is draining; connect to another node".to_string());
        }
        let quota = self.inner.config.max_connections;
        if quota > 0 && self.inner.metrics.connections_open.get() >= quota as u64 {
            self.inner.metrics.connections_refused.inc();
            return Err(format!(
                "overloaded: connection quota of {quota} reached; retry with backoff"
            ));
        }
        Ok(())
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

    /// The gate every op whose row says `writes` passes before it runs.
    /// Refuses mutations this node must not accept — a follower is
    /// read-only (redirect to its primary), and a deposed primary, one
    /// that has seen a replica cursor from a higher epoch, is fenced —
    /// and mutations the storage layer cannot honor: a degraded
    /// (disk-full) node answers `degraded: disk_full`, and a node whose
    /// journal is poisoned by an fsync failure answers `storage_error` —
    /// accepting a mutation that can never reach disk would be an ack
    /// the node cannot keep. Reads stay unaffected.
    fn check_writable(&self) -> Result<(), String> {
        let role = self
            .inner
            .replication
            .role
            .read()
            .unwrap_or_else(|e| e.into_inner());
        if let Role::Follower { primary } = &*role {
            return Err(format!(
                "not_primary: this node is a read-only follower; primary is {primary}"
            ));
        }
        drop(role);
        let seen = self
            .inner
            .replication
            .max_epoch_seen
            .load(Ordering::Acquire);
        let epoch = self
            .inner
            .storage
            .as_ref()
            .map_or(0, |binding| binding.storage.epoch());
        if seen > epoch {
            return Err(format!(
                "stale_epoch: fenced at epoch {epoch} by a replica at epoch {seen}; \
                 this node is no longer primary"
            ));
        }
        if self.inner.degraded.load(Ordering::Acquire) {
            return Err(
                "degraded: disk_full — service is read-only until disk space returns".to_string(),
            );
        }
        if let Some(binding) = &self.inner.storage {
            if let Some(err) = binding.storage.journal().poisoned() {
                return Err(format!(
                    "storage_error: journal poisoned by fsync failure ({err}); \
                     mutations refused until operator intervention or re-sync"
                ));
            }
        }
        Ok(())
    }

    /// True while the service is in degraded read-only mode.
    pub fn is_degraded(&self) -> bool {
        self.inner.degraded.load(Ordering::Acquire)
    }

    /// True while the journal is poisoned by an fsync failure (distinct
    /// from [`is_degraded`](Self::is_degraded): poison is permanent
    /// until a snapshot rebuilds the journal file).
    pub fn is_poisoned_journal(&self) -> bool {
        self.storage()
            .is_some_and(|storage| storage.journal().poisoned().is_some())
    }

    /// Wait for `seq` to be durable and translate the outcome into the
    /// protocol's error contract. The mutation is already applied in
    /// memory and queued in the journal, so every failure here is an
    /// honest "applied but not yet durable" answer (the quorum-timeout
    /// precedent), never a silent ack:
    ///
    /// * ENOSPC flips the degraded latch (read-only until space
    ///   returns; the queued frame lands on a later flush).
    /// * A poisoned journal (fsync failure) is announced once to the
    ///   diag log and reported as `storage_error` — fsyncgate: the page
    ///   cache may have dropped the dirty page, so retrying locally
    ///   could silently lose the write.
    fn sync_commit(&self, binding: &StorageBinding, seq: u64) -> Result<(), String> {
        match binding.storage.sync(seq) {
            Ok(()) => Ok(()),
            Err(SyncError::WriteFailed { error, enospc }) => {
                if enospc {
                    self.enter_degraded(&format!("journal write: {error}"));
                }
                Err(format!(
                    "storage_error: applied but not durable (journal write failed: {error}); \
                     retry after the disk recovers"
                ))
            }
            Err(SyncError::Poisoned { error }) => {
                self.note_poisoned(&error);
                Err(format!(
                    "storage_error: applied but not durable (journal poisoned: {error})"
                ))
            }
            Err(SyncError::Stopped) => {
                Err("storage_error: applied but not durable (journal stopped)".to_string())
            }
        }
    }

    /// Flip the degraded latch on (idempotent); log the transition.
    fn enter_degraded(&self, cause: &str) {
        if !self.inner.degraded.swap(true, Ordering::AcqRel) {
            self.inner.diag.warn(
                Subsystem::Journal,
                format_args!("degraded to read-only: disk full ({cause})"),
            );
        }
    }

    /// Flip the degraded latch off (idempotent); log the recovery.
    fn leave_degraded(&self) {
        if self.inner.degraded.swap(false, Ordering::AcqRel) {
            self.inner.diag.info(
                Subsystem::Journal,
                format_args!("recovered from read-only degradation: disk space is back"),
            );
        }
    }

    /// Announce a journal poisoning to the diag log exactly once per
    /// poisoning (the latch re-arms if a follower re-sync clears it).
    fn note_poisoned(&self, error: &str) {
        if !self.inner.poison_logged.swap(true, Ordering::AcqRel) {
            self.inner.diag.error(
                Subsystem::Journal,
                format_args!("journal poisoned by fsync failure: {error}"),
            );
        }
    }

    /// Periodic storage-fault sweep, run by the housekeeper alongside
    /// the health probe: announce journal poisoning, surface new
    /// audit-spill write errors, and drive the degraded latch from the
    /// free-space watermark (enter when space is low, leave when space
    /// is back *and* the journal is writing cleanly again). Public so
    /// embedders with their own runtime — and the disk-fault harness —
    /// can run the sweep on their own clock.
    pub fn probe_storage(&self) {
        let Some(binding) = &self.inner.storage else {
            return;
        };
        match binding.storage.journal().poisoned() {
            Some(err) => self.note_poisoned(&err),
            None => self.inner.poison_logged.store(false, Ordering::Release),
        }
        let spill_errors = binding.storage.spill().write_errors();
        let seen = self
            .inner
            .spill_errors_seen
            .swap(spill_errors, Ordering::AcqRel);
        if spill_errors > seen {
            self.inner.diag.error(
                Subsystem::Journal,
                format_args!(
                    "audit spill write failed ({} new, {spill_errors} total): {}",
                    spill_errors - seen,
                    binding
                        .storage
                        .spill()
                        .last_error()
                        .unwrap_or_else(|| "unknown".into())
                ),
            );
        }
        let watermark = self.inner.config.min_free_bytes;
        let free = binding
            .storage
            .free_bytes()
            .or_else(|| crate::fsprobe::free_bytes(&binding.storage.config().dir));
        let journal_clean = binding.storage.journal().last_error().is_none();
        match free {
            Some(free) if watermark > 0 && free < watermark => {
                self.enter_degraded(&format!(
                    "{free} free bytes under the {watermark} watermark"
                ));
            }
            Some(free) if journal_clean && free >= watermark => self.leave_degraded(),
            // Probe unavailable: leave only on clean journal writes —
            // the pending frames landing is itself the space signal.
            None if journal_clean => self.leave_degraded(),
            _ => {}
        }
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
    /// ring. The TCP front ends call this from their housekeeping loop
    /// (about once a second); embedders with their own runtime can
    /// too. `metrics.history` reads the window back, and
    /// `cluster.status` derives its req/s figure from it.
    pub fn sample_timeseries(&self) {
        self.inner.timeseries.record(self.metrics());
    }

    /// Evaluate health now and log ready/not-ready transitions to the
    /// diagnostic log. The housekeeper calls this every sweep so
    /// transitions get recorded even while nobody is probing.
    pub(crate) fn probe_health(&self) -> HealthReport {
        let report = self.health_eval();
        let verdict = if report.ready { 1 } else { 2 };
        let prev = self.inner.last_ready.swap(verdict, Ordering::AcqRel);
        if prev != verdict {
            if report.ready {
                self.inner
                    .diag
                    .info(Subsystem::Health, format_args!("ready"));
            } else {
                self.inner.diag.warn(
                    Subsystem::Health,
                    format_args!("not ready: {}", report.causes.join("; ")),
                );
            }
        }
        report
    }

    /// Compute liveness/readiness from real signals: journal flusher
    /// alive and error-free, fsync p99 under the slow-request budget,
    /// worker queue not saturated, and the role-specific conditions —
    /// a primary must not be fenced by a higher-epoch replica, a
    /// follower must not lag its primary past `max_lag`.
    fn health_eval(&self) -> HealthReport {
        let mut live = true;
        let mut causes = Vec::new();
        if self.shutdown_requested() {
            live = false;
            causes.push("shutting down".to_string());
        }
        if let Some(binding) = &self.inner.storage {
            let journal = binding.storage.journal();
            if let Some(err) = journal.poisoned() {
                // fsyncgate: a failed fsync may have dropped dirty
                // pages, so the journal is permanently untrustworthy —
                // a liveness failure, not a transient hiccup.
                live = false;
                causes.push(format!("storage_error: journal poisoned: {err}"));
            } else if !journal.is_alive() {
                live = false;
                causes.push("journal flusher stopped (disk dead or shut down)".to_string());
            } else if let Some(err) = journal.last_error() {
                // A failed *write* is retried by the flusher with the
                // frames intact — degraded but recoverable, so the node
                // stays live and reports not-ready.
                causes.push(format!("journal write error (retrying): {err}"));
            }
            if self.inner.degraded.load(Ordering::Acquire) {
                causes.push("degraded: disk_full (read-only)".to_string());
            }
            // The slow-request threshold doubles as the fsync budget:
            // commits block on fsync, so a p99 past it means acked
            // writes are regularly crossing the slow line.
            let budget_ns = self.inner.trace.slow_ns();
            let p99_ns = bucket_p99_ns(&journal.flush_profile().fsync_ns_buckets);
            if budget_ns > 0 && p99_ns > budget_ns {
                causes.push(format!(
                    "fsync p99 {}ms over the {}ms budget",
                    p99_ns / 1_000_000,
                    budget_ns / 1_000_000
                ));
            }
        }
        let depth = self.inner.pool.queue_depth();
        let bound = self.workers().max(1) * 256;
        if depth > bound {
            causes.push(format!(
                "worker queue depth {depth} over the saturation bound {bound}"
            ));
        }
        // Probes double as shed-level observations, so the shedder also
        // decays while no admission checks are running.
        self.observe_queue_depth(depth);
        let shed_level = self.inner.shedder.level();
        if shed_level > 0 {
            causes.push(format!(
                "overloaded: shedding at level {shed_level} (worker queue depth {depth}, \
                 watermark {})",
                self.inner.shedder.high()
            ));
        }
        if self.inner.sessions.at_capacity() {
            causes.push(format!(
                "overloaded: session registry at its quota of {}",
                self.inner.sessions.max_sessions()
            ));
        }
        if self.is_draining() {
            causes.push("draining: graceful drain in progress".to_string());
        }
        let role = self.role();
        let mut lag_seconds = 0.0;
        match &role {
            Role::Primary => {
                let seen = self
                    .inner
                    .replication
                    .max_epoch_seen
                    .load(Ordering::Acquire);
                let epoch = self
                    .inner
                    .storage
                    .as_ref()
                    .map_or(0, |binding| binding.storage.epoch());
                if seen > epoch {
                    causes.push(format!(
                        "deposed: fenced at epoch {epoch} by a replica at epoch {seen}"
                    ));
                }
            }
            Role::Follower { primary } => {
                lag_seconds = self
                    .inner
                    .replication
                    .tail_current_at
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .elapsed()
                    .as_secs_f64();
                let max = self.inner.config.max_lag.as_secs_f64();
                if lag_seconds > max {
                    causes.push(format!(
                        "replication lag {lag_seconds:.1}s past max-lag {max:.1}s \
                         (primary {primary})"
                    ));
                }
            }
        }
        let ready = live && causes.is_empty();
        HealthReport {
            live,
            ready,
            causes,
            lag_seconds,
        }
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

    fn notify_shutdown(&self) {
        // Neither a `replica.sync` held here nor one of ours held by
        // the primary may sit out its hold.
        self.wake_held_syncs();
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

    /// The stored instruments, for front ends recording transport
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

    /// Jobs waiting in the worker-pool queue right now.
    pub(crate) fn queue_depth(&self) -> usize {
        self.inner.pool.queue_depth()
    }

    /// Per-follower lag against this node's durable cursor.
    pub(crate) fn follower_lags(&self) -> Vec<FollowerLag> {
        let cursor = self.durable_cursor().unwrap_or((0, 0));
        self.inner.replication.follower_lags(cursor)
    }

    /// Run a job on the service worker pool (the epoll reactor's
    /// dispatch path for CPU-heavy request batches). Jobs may themselves
    /// fan out on the pool — `map_ordered` is caller-participating, so
    /// a batched `clean` inside a job cannot deadlock.
    pub(crate) fn submit_job(&self, job: impl FnOnce() + Send + 'static) {
        self.inner.pool.submit(job);
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

    /// Install a snapshot of all live state and truncate the journal,
    /// if storage is attached and the snapshot policy says it is time.
    /// The TCP server calls this from its housekeeping loop.
    pub fn maybe_snapshot(&self) -> std::io::Result<bool> {
        // Followers never snapshot on their own: a snapshot bumps the
        // journal epoch, and a follower's epoch must track the
        // primary's or the stream it tails would fence itself.
        if matches!(self.role(), Role::Follower { .. }) {
            return Ok(false);
        }
        match &self.inner.storage {
            Some(binding) if binding.storage.should_snapshot() => self.snapshot_now(),
            _ => Ok(false),
        }
    }

    /// Unconditionally snapshot now (no-op without storage). Holds the
    /// storage gate in write mode: the captured session set and the
    /// journal truncation are atomic against concurrent mutation.
    pub fn snapshot_now(&self) -> std::io::Result<bool> {
        let Some(binding) = &self.inner.storage else {
            return Ok(false);
        };
        let _gate = binding.gate.write().unwrap_or_else(|e| e.into_inner());
        let engine = self.engine();
        let schema_arity = self.inner.input_schema.arity();
        let sessions = self
            .inner
            .sessions
            .export()
            .into_iter()
            .map(|(id, session)| session_to_snapshot(id, &session, schema_arity))
            .collect();
        let data = SnapshotData {
            epoch: binding.storage.epoch() + 1,
            fingerprint: engine.fingerprint,
            rules_dsl: render_ruleset_dsl(&engine.rules),
            next_session_id: self.inner.sessions.next_id(),
            master_appended: self
                .inner
                .master_appended
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .clone(),
            sessions,
        };
        binding.storage.install_snapshot(&data)?;
        self.inner.metrics.snapshots_written.inc();
        // Cache the encoded snapshot: it is what a follower whose
        // cursor predates the new epoch gets resynced from.
        *self
            .inner
            .replication
            .last_snapshot
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = Some(Arc::new(data.encode()));
        Ok(true)
    }

    /// Simulate a kill-9 with a cold page cache (crash-recovery tests):
    /// all storage files roll back to their last fsync and go inert.
    /// No-op (returning `false`) without storage.
    pub fn simulate_crash(&self) -> std::io::Result<bool> {
        match &self.inner.storage {
            Some(binding) => binding.storage.simulate_crash().map(|()| true),
            None => Ok(false),
        }
    }

    /// Replay recovered state: snapshot first (rule set, session
    /// states, id allocator), then the journal suffix through the same
    /// deterministic correcting process that produced it live. Replay
    /// runs on detached monitors — provenance already sits in the audit
    /// segment; re-recording it would duplicate the archive.
    fn recover(&self, recovered: RecoveredState) -> Result<(), String> {
        let schema = self.inner.input_schema.clone();
        if let Some(snapshot) = &recovered.snapshot {
            if !snapshot.master_appended.is_empty() {
                self.apply_master_rows(snapshot.master_appended.clone())?;
            }
            let boot = self.engine();
            if snapshot.fingerprint != boot.fingerprint && !snapshot.rules_dsl.is_empty() {
                let engine = self.compile_engine_from_dsl(&snapshot.rules_dsl)?;
                if engine.fingerprint != snapshot.fingerprint {
                    return Err(format!(
                        "snapshot rule set re-parses to fingerprint {:x}, expected {:x}",
                        engine.fingerprint, snapshot.fingerprint
                    ));
                }
                *self.inner.engine.write().unwrap_or_else(|e| e.into_inner()) = engine;
            }
            for session in &snapshot.sessions {
                let restored = snapshot_to_session(session, &schema)?;
                self.inner.sessions.restore(session.session, restored);
            }
            self.inner
                .sessions
                .advance_next_id(snapshot.next_session_id);
        }
        self.replay_events(&recovered.events, false)?;
        let live = self.inner.sessions.len() as u64;
        self.inner.metrics.sessions_recovered.add(live);
        Ok(())
    }

    /// Replay a run of journal events in order — boot recovery and the
    /// follower tail both come through here. Adjacent `MasterAppended`
    /// events are coalesced into a single copy-on-append + recompile +
    /// delta re-certification pass: a burst of N appends costs one
    /// recompile instead of N (the merged batch lands on the same
    /// master state the per-event replay would, in the same order).
    fn replay_events(&self, events: &[JournalEvent], live: bool) -> Result<(), String> {
        let schema = self.inner.input_schema.clone();
        let mut i = 0;
        while i < events.len() {
            if let JournalEvent::MasterAppended { rows } = &events[i] {
                let mut batch = rows.clone();
                let mut j = i + 1;
                while let Some(JournalEvent::MasterAppended { rows }) = events.get(j) {
                    batch.extend(rows.iter().cloned());
                    j += 1;
                }
                self.apply_master_rows(batch)?;
                i = j;
                continue;
            }
            self.apply_journal_event(&events[i], &schema, live)?;
            i += 1;
        }
        Ok(())
    }

    /// Apply one replayed journal event. `live` distinguishes the
    /// follower tail (audit-attached monitors, so the follower's
    /// provenance stream regenerates byte-for-byte and `audit.read`
    /// answers match the primary's) from boot recovery (detached
    /// monitors — provenance already sits in the local audit segment;
    /// re-recording it would duplicate the archive).
    fn apply_journal_event(
        &self,
        event: &JournalEvent,
        schema: &SchemaRef,
        live: bool,
    ) -> Result<(), String> {
        match event {
            JournalEvent::SessionCreated { session, values } => {
                let tuple = Tuple::new(schema.clone(), values.clone())
                    .map_err(|e| format!("replay session {session}: {e}"))?;
                self.inner
                    .sessions
                    .restore(*session, MonitorSession::new(*session as usize, tuple));
            }
            JournalEvent::SessionValidated {
                session,
                validations,
            } => {
                let resolved: Vec<(usize, Value)> = validations
                    .iter()
                    .map(|(attr, value)| (*attr as usize, value.clone()))
                    .collect();
                let engine = self.engine();
                // Ignore per-event errors: replaying an op that failed
                // live reproduces the failed state too.
                if live {
                    let monitor = self.monitor_for(&engine);
                    let _ = self
                        .inner
                        .sessions
                        .with_session(*session, |state| monitor.apply_validation(state, &resolved));
                } else {
                    let monitor = DataMonitor::from_plan(
                        &engine.rules,
                        &engine.master,
                        Arc::clone(&engine.plan),
                    )
                    .with_shared_regions(Arc::clone(&engine.regions));
                    let _ = self
                        .inner
                        .sessions
                        .with_session(*session, |state| monitor.apply_validation(state, &resolved));
                }
            }
            JournalEvent::SessionCommitted { session }
            | JournalEvent::SessionAborted { session } => {
                let _ = self.inner.sessions.remove(*session);
            }
            JournalEvent::SessionsEvicted { sessions } => {
                for id in sessions {
                    let _ = self.inner.sessions.remove(*id);
                }
            }
            JournalEvent::RulesReloaded { dsl, fingerprint } => {
                let engine = self.compile_engine_from_dsl(dsl)?;
                if engine.fingerprint != *fingerprint {
                    return Err(format!(
                        "journaled rule set re-parses to fingerprint {:x}, expected {:x}",
                        engine.fingerprint, fingerprint
                    ));
                }
                *self.inner.engine.write().unwrap_or_else(|e| e.into_inner()) = engine;
            }
            JournalEvent::MasterAppended { rows } => {
                self.apply_master_rows(rows.clone())?;
            }
            JournalEvent::ConfigSet { key, value } => {
                // Unknown keys replay as no-ops: a journal written by a
                // newer build must not fail recovery on an older one.
                let _ = self.apply_config_set(key, *value);
            }
        }
        Ok(())
    }

    /// Follower side of the tail loop: journal the primary's events
    /// byte-for-byte into our own journal (so our positions mirror the
    /// primary's and a restart resumes from our durable cursor), replay
    /// them through the live correcting path, then block on the group
    /// fsync — the cursor our next `replica.sync` acks with only moves
    /// once the events are durable *here*.
    ///
    /// The fsync outcome decides the follower's fate: a failed *write*
    /// is retried in place (the events are already applied, so
    /// re-pulling them from the primary would double-apply
    /// non-idempotent `MasterAppended` rows — the cursor must not move
    /// until this exact frame lands); a *poisoned* journal (fsync
    /// failure) is unrecoverable locally and reported as
    /// [`ReplicaApplyError::Poisoned`] so the tail loop can demand a
    /// snapshot re-sync from the primary instead of dying.
    pub(crate) fn apply_replica_events(
        &self,
        events: Vec<JournalEvent>,
    ) -> Result<(), crate::replication::ReplicaApplyError> {
        use crate::replication::ReplicaApplyError;
        let Some(binding) = &self.inner.storage else {
            return Err(ReplicaApplyError::Diverged(
                "follower has no storage attached".into(),
            ));
        };
        let last_seq = self
            .with_gate(|| -> Result<Option<u64>, String> {
                let mut last = None;
                for event in &events {
                    last = Some(binding.storage.append(event));
                }
                self.replay_events(&events, true)?;
                Ok(last)
            })
            .map_err(ReplicaApplyError::Diverged)?;
        let Some(seq) = last_seq else {
            return Ok(());
        };
        loop {
            match binding.storage.sync(seq) {
                Ok(()) => return Ok(()),
                Err(SyncError::WriteFailed { error, enospc }) => {
                    if enospc {
                        self.enter_degraded(&format!("journal write: {error}"));
                    }
                    if self.shutdown_requested() {
                        return Err(ReplicaApplyError::Stopped);
                    }
                    // The frames are back in the flusher's pending
                    // queue; wait for its retry rather than re-pulling.
                    std::thread::sleep(Duration::from_millis(50));
                }
                Err(SyncError::Poisoned { error }) => {
                    self.note_poisoned(&error);
                    return Err(ReplicaApplyError::Poisoned(error));
                }
                Err(SyncError::Stopped) => return Err(ReplicaApplyError::Stopped),
            }
        }
    }

    /// Full resync: a follower whose cursor predates the primary's
    /// journal epoch (a snapshot truncated the events it was owed)
    /// installs the primary's snapshot wholesale. Rebuilds the engine
    /// from the boot master/rules before applying the snapshot's
    /// appended rows — they are relative to boot, and our own appends
    /// are a prefix of the primary's history anyway.
    pub(crate) fn install_replica_snapshot(&self, data: SnapshotData) -> Result<(), String> {
        let Some(binding) = &self.inner.storage else {
            return Err("follower has no storage attached".into());
        };
        if data.epoch <= binding.storage.epoch() {
            return Err(format!(
                "snapshot epoch {} is not ahead of local epoch {}",
                data.epoch,
                binding.storage.epoch()
            ));
        }
        let schema = self.inner.input_schema.clone();
        let encoded = data.encode();
        let gate = binding.gate.write().unwrap_or_else(|e| e.into_inner());
        for (id, _) in self.inner.sessions.export() {
            let _ = self.inner.sessions.remove(id);
        }
        {
            let _swap = self
                .inner
                .swap_lock
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            let engine = compile_engine(
                Arc::clone(&self.inner.boot_master),
                Arc::clone(&self.inner.boot_rules),
                &self.inner.config,
                &self.inner.cache,
                &self.inner.metrics,
            );
            *self.inner.engine.write().unwrap_or_else(|e| e.into_inner()) = engine;
            self.inner
                .master_appended
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .clear();
        }
        if !data.master_appended.is_empty() {
            self.apply_master_rows(data.master_appended.clone())?;
        }
        let boot = self.engine();
        if data.fingerprint != boot.fingerprint && !data.rules_dsl.is_empty() {
            let engine = self.compile_engine_from_dsl(&data.rules_dsl)?;
            if engine.fingerprint != data.fingerprint {
                return Err(format!(
                    "snapshot rule set re-parses to fingerprint {:x}, expected {:x}",
                    engine.fingerprint, data.fingerprint
                ));
            }
            *self.inner.engine.write().unwrap_or_else(|e| e.into_inner()) = engine;
        }
        for session in &data.sessions {
            let restored = snapshot_to_session(session, &schema)?;
            self.inner.sessions.restore(session.session, restored);
        }
        self.inner.sessions.advance_next_id(data.next_session_id);
        binding
            .storage
            .install_snapshot(&data)
            .map_err(|e| e.to_string())?;
        drop(gate);
        *self
            .inner
            .replication
            .last_snapshot
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = Some(Arc::new(encoded));
        Ok(())
    }

    /// Parse DSL against the service schemas and compile a full engine
    /// state (plan + regions served from the analysis cache) over the
    /// current master.
    fn compile_engine_from_dsl(&self, dsl: &str) -> Result<Arc<EngineState>, String> {
        let boot = self.engine();
        let input = boot.rules.input_schema().clone();
        let master_schema = boot.rules.master_schema().clone();
        let mut set = RuleSet::new(input.clone(), master_schema.clone());
        for decl in parse_rules(dsl, &input, &master_schema).map_err(|e| e.to_string())? {
            match decl {
                RuleDecl::Er(rule) => {
                    set.add(rule).map_err(|e| e.to_string())?;
                }
                other => {
                    return Err(format!(
                        "`{}` is not an editing rule; derive CFDs/MDs before loading",
                        other.name()
                    ))
                }
            }
        }
        Ok(compile_engine(
            Arc::clone(&boot.master),
            Arc::new(set),
            &self.inner.config,
            &self.inner.cache,
            &self.inner.metrics,
        ))
    }

    /// Apply appended master rows (recovery replay): copy-on-append the
    /// current master, recompile, patch cached regions by delta
    /// re-certification, and swap — the same deterministic path the live
    /// `master.append` op takes, minus journaling.
    fn apply_master_rows(&self, rows: Vec<Vec<Value>>) -> Result<(), String> {
        let _swap = self
            .inner
            .swap_lock
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let engine = self.engine();
        let (next, _, _) = append_engine_master(&engine, rows.clone(), &self.inner)?;
        *self.inner.engine.write().unwrap_or_else(|e| e.into_inner()) = next;
        self.inner
            .master_appended
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .extend(rows);
        Ok(())
    }

    fn monitor_for<'e>(&'e self, engine: &'e EngineState) -> DataMonitor<'e> {
        // `from_shared_parts` (not `from_plan` + builder chain) so the
        // per-request monitor is refcount bumps only — no allocation on
        // the warmed path.
        DataMonitor::from_shared_parts(
            &engine.rules,
            &engine.master,
            Arc::clone(&engine.plan),
            Arc::clone(&engine.regions),
            Arc::clone(&self.inner.audit),
        )
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
    /// reusable parse buffer. This is the production entry point for
    /// both TCP front ends. Every line is read the same way — one
    /// validating pass ([`scan_line`]), then its op's fields off the
    /// view that pass leaves — and every op has one handler. The
    /// session ops a pipelining client hammers (`session.get` / `fix` /
    /// `validate` / `commit` / `abort`) own no heap data and answer
    /// through a [`JsonWriter`] — zero steady-state allocations per
    /// request in memory mode (one per validated value); the cold ops
    /// build a [`Json`] tree for their reply.
    ///
    /// A client-supplied top-level `"id"` field is echoed verbatim as
    /// the first field of the response, so pipelining clients can
    /// correlate responses (which always arrive in request order per
    /// connection) without counting lines.
    pub fn handle_line_into(&self, line: &str, out: &mut String, scratch: &mut RequestScratch) {
        self.handle_line_at(line, out, scratch, Instant::now());
    }

    /// [`handle_line_into`](Self::handle_line_into) with an explicit
    /// receipt instant: `received` is when the line arrived (socket
    /// read, or worker-pool submit for batched heavy ops), so the
    /// receipt→dispatch gap is accounted as queue wait and a client
    /// `deadline_ms` is measured from arrival — work whose caller has
    /// already given up is shed before any engine or fsync cost.
    pub fn handle_line_at(
        &self,
        line: &str,
        out: &mut String,
        scratch: &mut RequestScratch,
        received: Instant,
    ) {
        let started = Instant::now();
        self.handle_scanned(&scan_line(line), out, scratch, received, started);
    }

    /// [`handle_line_at`](Self::handle_line_at) for a caller that has
    /// already scanned the line (the front ends scan to place it):
    /// `started` is the instant just before that scan.
    pub(crate) fn handle_scanned(
        &self,
        scanned: &ScannedLine<'_>,
        out: &mut String,
        scratch: &mut RequestScratch,
        received: Instant,
        started: Instant,
    ) {
        // The class the request is charged to.
        let op = match scanned.syntax {
            Some(_) => &ops::PARSE_ERROR,
            None => scanned.op.unwrap_or(&ops::OTHER),
        };
        self.answer(op, scanned.id, out, received, started, |out, span| {
            self.serve(scanned, op, out, scratch, received, started, span)
        });
    }

    /// The frame around every request: count it, run `serve` — which
    /// writes its own success reply into `out` — turn an `Err` into the
    /// error reply in one place, then charge latency and the trace span
    /// to `op`.
    pub(crate) fn answer(
        &self,
        op: &'static Op,
        raw_id: Option<&str>,
        out: &mut String,
        received: Instant,
        started: Instant,
        serve: impl FnOnce(&mut String, &mut Span) -> Result<(), String>,
    ) {
        let queue_wait = started.saturating_duration_since(received);
        self.inner.metrics.requests.inc();
        self.inner.metrics.queue_wait.observe(queue_wait);
        let mut span = Span {
            queue_ns: queue_wait.as_nanos() as u64,
            ..Span::default()
        };
        if let Err(message) = serve(out, &mut span) {
            self.write_error(&message, raw_id, out);
        }
        let elapsed = started.elapsed();
        self.inner.metrics.latency[op].observe(elapsed);
        self.finish_span(&mut span, op, raw_id, elapsed);
    }

    /// Close out a request's trace span: charge its engine-stat delta
    /// to its op class and, when tracing is on, derive the trace id and
    /// residual dispatch time and publish it into the ring. Atomics
    /// only — no allocation, hot-path safe.
    fn finish_span(&self, span: &mut Span, op: &Op, raw_id: Option<&str>, total: Duration) {
        if span.stats != cerfix::EngineStats::default() {
            self.inner.metrics.add_engine_stats(op, &span.stats);
        }
        if !self.inner.trace.enabled() {
            return;
        }
        span.trace_id = self.inner.trace.trace_id(raw_id);
        span.op = op.slot;
        span.total_ns = total.as_nanos() as u64;
        span.dispatch_ns = span.total_ns.saturating_sub(
            span.parse_ns + span.engine_ns + span.fsync_ns + span.quorum_ns + span.serialize_ns,
        );
        self.inner.trace.record(span);
    }

    /// One scanned line, start to reply: syntax → deadline → shed →
    /// fields ([`admit`](Self::admit)) → writable gate → handler. The
    /// line is served from its one scan or answered with that scan's
    /// error — there is no second reading of it.
    #[allow(clippy::too_many_arguments)]
    fn serve(
        &self,
        scanned: &ScannedLine<'_>,
        op: &'static Op,
        out: &mut String,
        scratch: &mut RequestScratch,
        received: Instant,
        started: Instant,
        span: &mut Span,
    ) -> Result<(), String> {
        let admitted = self.admit(scanned, op, scratch, received, started, span);
        // In hand or refused, the request is read: parse time ends here.
        span.parse_ns = started.elapsed().as_nanos() as u64;
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
            } = scratch;
            validations.clear();
            scanned.fields.validations(unescape, |name, value| {
                validations.push((self.resolve_attr(name)?, value));
                Ok::<(), String>(())
            })?;
        }
        self.dispatch(request, scanned.id, out, scratch, span)
    }

    /// The refusals, cheapest first, then the op's fields. Everything
    /// before the fields reads what the scan already holds and allocates
    /// nothing, so a refused request costs its lexing and no more.
    fn admit(
        &self,
        scanned: &ScannedLine<'_>,
        op: &'static Op,
        scratch: &mut RequestScratch,
        received: Instant,
        started: Instant,
        span: &mut Span,
    ) -> Result<Request, String> {
        if let Some(error) = &scanned.syntax {
            return Err(error.0.clone());
        }
        // Deadline check before any engine, journal or fsync cost is
        // paid. `deadline_ms: 0` is deterministically expired; an
        // absurd deadline that overflows `Instant` arithmetic can
        // never expire and is simply dropped.
        if let Some(ms) = scanned.deadline_ms() {
            if let Some(deadline) = received.checked_add(Duration::from_millis(ms)) {
                if started >= deadline {
                    self.inner.metrics.requests_shed_deadline.inc();
                    return Err(format!(
                        "deadline_exceeded: deadline of {ms}ms expired before work began"
                    ));
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

    /// The one handler of each op. The session ops write their reply
    /// through a [`JsonWriter`]; the cold ops build a [`Json`] tree,
    /// rendered here.
    pub(crate) fn dispatch(
        &self,
        request: Request,
        raw_id: Option<&str>,
        out: &mut String,
        scratch: &mut RequestScratch,
        span: &mut Span,
    ) -> Result<(), String> {
        let reply = match request {
            Request::SessionCreate { tuple } => return self.session_create(&tuple, raw_id, out),
            Request::SessionGet { session } => {
                return self.session_view(session, None, raw_id, out)
            }
            // `serve` resolved the validations into `scratch`.
            Request::SessionValidate { session, .. } => {
                return self.session_validate(session, raw_id, out, scratch, span)
            }
            Request::SessionFix { session } => {
                scratch.validations.clear();
                return self.session_validate(session, raw_id, out, scratch, span);
            }
            Request::SessionCommit { session } => {
                return self.session_commit(session, raw_id, out, span)
            }
            Request::SessionAbort { session } => return self.session_abort(session, raw_id, out),
            Request::Hello => self.hello(),
            Request::Clean { tuples, trust } => self.clean_batch(tuples, &trust)?,
            Request::Regions { top_k } => self.regions(top_k),
            Request::Check { mode } => self.check(mode.as_deref())?,
            Request::AuditRead { start, count } => self.audit_read(start, count),
            Request::RulesReload { rules } => self.rules_reload(&rules)?,
            Request::MasterAppend { tuples } => self.master_append(&tuples)?,
            Request::ReplicaSync {
                follower,
                epoch,
                offset,
                max,
                resync,
                wait_ms: _, // the front end's business: see `HeldSync`
            } => {
                return self.replica_sync(&follower, epoch, offset, max, resync, raw_id, out, span)
            }
            Request::ReplicaPromote => self.replica_promote()?,
            Request::Metrics => metrics::metrics_json(self),
            Request::MetricsProm => metrics::prom_response(self),
            Request::TraceRead { limit } => self.trace_read(limit),
            Request::Health => self.health_response(),
            Request::LogRead {
                limit,
                level,
                subsystem,
            } => self.log_read(limit, level.as_deref(), subsystem.as_deref())?,
            Request::MetricsHistory { limit } => self.metrics_history(limit),
            Request::ClusterStatus { fanout } => self.cluster_status(fanout),
            Request::ConfigSet { key, value } => self.config_set(&key, value)?,
            Request::Scrub => self.scrub_response()?,
            Request::Drain { wait_ms } => self.server_drain(wait_ms)?,
            Request::Shutdown => {
                self.inner.shutdown.store(true, Ordering::Release);
                self.notify_shutdown();
                Json::obj([("ok", Json::Bool(true)), ("stopping", Json::Bool(true))])
            }
        };
        let render_started = Instant::now();
        render_response_into(&reply, raw_id, out);
        span.serialize_ns = render_started.elapsed().as_nanos() as u64;
        Ok(())
    }

    /// Feed the shedder one queue-depth observation; log a level change.
    fn observe_queue_depth(&self, depth: usize) {
        if let Some((from, to)) = self.inner.shedder.observe(depth) {
            self.inner.diag.warn(
                Subsystem::Admission,
                format_args!(
                    "shed level {from} -> {to} (worker queue depth {depth}, watermark {})",
                    self.inner.shedder.high()
                ),
            );
        }
    }

    /// Admission decision for one request: feed the shedder the current
    /// queue depth, then shed by the op's class. `Err` carries the
    /// retryable `overloaded` error. Two atomic loads when the shedder
    /// is disarmed — cheap enough for every request.
    fn shed_check(&self, op: &Op) -> Result<(), String> {
        let depth = self.inner.pool.queue_depth();
        self.observe_queue_depth(depth);
        if !self.inner.shedder.sheds(op.class) {
            return Ok(());
        }
        self.inner.metrics.requests_shed_overload.inc();
        let what = match op.class {
            Priority::Heavy => "heavy reads",
            _ => "session mutations",
        };
        Err(format!(
            "overloaded: shedding {what} at level {} (worker queue depth {depth} over watermark {}); retry with backoff",
            self.inner.shedder.level(),
            self.inner.shedder.high(),
        ))
    }

    /// `server.drain`: begin a graceful drain. Idempotent — the first
    /// call latches the draining flag (front ends stop admitting
    /// connections, `session.create` answers `draining`) and starts a
    /// monitor thread that waits for in-flight sessions to finish (or
    /// for the bound to expire), takes a final snapshot, and then runs
    /// the normal shutdown path. Acked work is never dropped: every
    /// acknowledged commit is already durable, and the final snapshot
    /// preserves still-open sessions for the restarted process.
    fn server_drain(&self, wait_ms: Option<u64>) -> Result<Json, String> {
        let bound = Duration::from_millis(wait_ms.unwrap_or(DEFAULT_DRAIN_WAIT_MS));
        let newly = !self.inner.draining.swap(true, Ordering::AcqRel);
        if newly {
            // A held `replica.sync` is released, not waited for.
            self.wake_held_syncs();
            self.inner.metrics.drains_started.inc();
            self.inner.diag.info(
                Subsystem::Admission,
                format_args!(
                    "drain started: {} live sessions, bound {:?}",
                    self.live_sessions(),
                    bound
                ),
            );
        }
        if !self
            .inner
            .drain_monitor_started
            .swap(true, Ordering::AcqRel)
        {
            let service = self.clone();
            std::thread::Builder::new()
                .name("cerfix-drain".into())
                .spawn(move || {
                    let deadline = Instant::now() + bound;
                    while Instant::now() < deadline
                        && service.live_sessions() > 0
                        && !service.shutdown_requested()
                    {
                        std::thread::sleep(Duration::from_millis(20));
                    }
                    let remaining = service.live_sessions();
                    if remaining > 0 {
                        service.inner.diag.warn(
                            Subsystem::Admission,
                            format_args!(
                                "drain bound expired with {remaining} sessions still open; \
                                 snapshotting them for hand-off"
                            ),
                        );
                    }
                    // The final snapshot hands still-open sessions to
                    // the restarted process; shutdown then stops the
                    // front ends, which snapshot once more on exit
                    // (idempotent).
                    let _ = service.snapshot_now();
                    service.inner.diag.info(
                        Subsystem::Admission,
                        format_args!("drain complete; shutting down"),
                    );
                    service.inner.shutdown.store(true, Ordering::Release);
                    service.notify_shutdown();
                })
                .map_err(|e| format!("storage_error: drain monitor spawn failed: {e}"))?;
        }
        Ok(Json::obj([
            ("ok", Json::Bool(true)),
            ("draining", Json::Bool(true)),
            ("sessions", Json::Num(self.live_sessions() as f64)),
            ("wait_ms", Json::Num(bound.as_millis() as f64)),
        ]))
    }

    /// Count and render an error reply.
    fn write_error(&self, message: &str, raw_id: Option<&str>, out: &mut String) {
        self.inner.metrics.errors.inc();
        let mut w = JsonWriter::new(out);
        w.begin_response(raw_id);
        w.key("ok");
        w.bool_val(false);
        w.key("error");
        w.str_val(message);
        w.end_obj();
    }

    fn hello(&self) -> Json {
        let engine = self.engine();
        let role = self.role();
        let mut fields = vec![
            ("ok", Json::Bool(true)),
            ("service", Json::str("cerfix-server")),
            ("version", Json::str(env!("CARGO_PKG_VERSION"))),
            ("protocol", Json::Num(PROTOCOL_VERSION as f64)),
            (
                "uptime_secs",
                Json::Num(self.inner.metrics.uptime_secs() as f64),
            ),
            ("workers", Json::Num(self.workers() as f64)),
            ("rules", Json::Num(engine.rules.len() as f64)),
            ("ruleset", Json::str(format!("{:016x}", engine.fingerprint))),
            ("master_rows", Json::Num(engine.master.len() as f64)),
            (
                "master_generation",
                Json::Num(engine.master.generation() as f64),
            ),
            ("input_arity", Json::Num(self.input_schema().arity() as f64)),
            (
                "storage",
                Json::str(if self.is_journaled() {
                    "journaled"
                } else {
                    "memory"
                }),
            ),
            ("role", Json::str(role.name())),
        ];
        if let Some(binding) = &self.inner.storage {
            fields.push(("epoch", Json::Num(binding.storage.epoch() as f64)));
        }
        if let Role::Follower { primary } = &role {
            fields.push(("primary", Json::str(primary.clone())));
        }
        // A self-re-pointing client treats a draining node like a
        // follower: go elsewhere.
        if self.is_draining() {
            fields.push(("draining", Json::Bool(true)));
        }
        fields.push((
            "attributes",
            Json::Arr(
                self.input_schema()
                    .attributes()
                    .iter()
                    .map(|a| Json::str(a.name()))
                    .collect(),
            ),
        ));
        Json::obj(fields)
    }

    fn session_create(
        &self,
        values: &[Value],
        raw_id: Option<&str>,
        out: &mut String,
    ) -> Result<(), String> {
        // In-flight sessions finish during a drain; fresh ones belong
        // on another node.
        if self.is_draining() {
            self.inner.metrics.sessions_refused_draining.inc();
            return Err(
                "draining: server is draining; create the session on another node".to_string(),
            );
        }
        let schema = self.input_schema().clone();
        if values.len() != schema.arity() {
            return Err(format!(
                "tuple has {} values but schema `{}` has arity {}",
                values.len(),
                schema.name(),
                schema.arity()
            ));
        }
        let tuple = Tuple::new(schema, values.to_vec()).map_err(|e| e.to_string())?;
        let id = self.with_gate(|| -> Result<u64, String> {
            let id = self
                .inner
                .sessions
                .create(MonitorSession::new(0, tuple.clone()))
                .map_err(|e| e.to_string())?;
            // The monitor uses tuple_id for audit attribution; align it
            // with the server-assigned id.
            self.inner
                .sessions
                .with_session(id, |session| session.tuple_id = id as usize)
                .map_err(|e| e.to_string())?;
            self.journal(&JournalEvent::SessionCreated {
                session: id,
                values: values.to_vec(),
            });
            Ok(id)
        })?;
        self.inner.metrics.sessions_created.inc();
        self.session_view(id, None, raw_id, out)
    }

    /// Write the common session snapshot, with optional fixpoint-report
    /// extras. Writes nothing before the session lookup succeeds, so an
    /// error reply stays clean.
    fn session_view(
        &self,
        id: u64,
        report: Option<&FixpointReport>,
        raw_id: Option<&str>,
        out: &mut String,
    ) -> Result<(), String> {
        let engine = self.engine();
        let monitor = self.monitor_for(&engine);
        let schema = self.input_schema();
        self.inner
            .sessions
            .with_session(id, |session| {
                let status = monitor.status(session);
                let mut w = begin_session_reply(out, raw_id, id);
                w.key("status");
                w.str_val(match &status {
                    SessionStatus::AwaitingUser { .. } => "awaiting_user",
                    SessionStatus::Complete => "complete",
                    SessionStatus::Stuck { .. } => "stuck",
                });
                write_tuple(&mut w, &session.tuple);
                w.key("rounds");
                w.num(session.rounds as f64);
                write_attrs(&mut w, schema, "validated", session.validated.iter());
                match status {
                    SessionStatus::AwaitingUser { suggestion } => {
                        write_attrs(&mut w, schema, "suggestion", suggestion)
                    }
                    SessionStatus::Stuck { unvalidated } => {
                        write_attrs(&mut w, schema, "unvalidated", unvalidated)
                    }
                    SessionStatus::Complete => {}
                }
                if let Some(report) = report {
                    w.key("fixes");
                    w.begin_arr();
                    for fix in &report.fixes {
                        w.begin_obj();
                        w.key("attr");
                        w.str_val(schema.attr_name(fix.attr));
                        w.key("old");
                        w.value(&fix.old);
                        w.key("new");
                        w.value(&fix.new);
                        w.key("rule");
                        w.num(fix.rule as f64);
                        w.key("master_row");
                        w.num(fix.master_row as f64);
                        w.end_obj();
                    }
                    w.end_arr();
                    let newly = report.newly_validated.iter().copied();
                    write_attrs(&mut w, schema, "newly_validated", newly);
                }
                w.end_obj();
            })
            .map_err(|e: SessionError| e.to_string())
    }

    fn resolve_attr(&self, name: &str) -> Result<usize, String> {
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
        Err(format!(
            "unknown attribute `{name}` (schema `{}`)",
            schema.name()
        ))
    }

    /// `session.validate` / `session.fix`: apply the validations a
    /// parser resolved into `scratch` (none for `fix`), run the
    /// correcting process, and write the session view with the report.
    /// Journals *before* applying, inside the session lock: a mixed
    /// batch can mutate some cells and then fail, and replay must
    /// reproduce exactly that — the event is the attempt, and the
    /// deterministic engine re-derives its outcome.
    fn session_validate(
        &self,
        id: u64,
        raw_id: Option<&str>,
        out: &mut String,
        scratch: &RequestScratch,
        span: &mut Span,
    ) -> Result<(), String> {
        let resolved = &scratch.validations;
        let report = self.with_gate(|| {
            let engine = self.engine();
            let monitor = self.monitor_for(&engine);
            self.inner
                .sessions
                .with_session(id, |session| {
                    // Only build the owned event when a journal exists —
                    // the memory-mode hot path stays allocation-free.
                    if self.inner.storage.is_some() {
                        self.journal(&JournalEvent::SessionValidated {
                            session: id,
                            validations: resolved
                                .iter()
                                .map(|(attr, value)| (*attr as u32, value.clone()))
                                .collect(),
                        });
                    }
                    let engine_started = Instant::now();
                    let result = monitor.apply_validation(session, resolved);
                    span.engine_ns += engine_started.elapsed().as_nanos() as u64;
                    result
                })
                .map_err(|e: SessionError| e.to_string())
        })?;
        let report = report.map_err(|e| e.to_string())?;
        span.stats += report.stats;
        self.inner
            .metrics
            .cells_fixed
            .add(report.fixes.len() as u64);
        self.session_view(id, Some(&report), raw_id, out)
    }

    fn session_commit(
        &self,
        id: u64,
        raw_id: Option<&str>,
        out: &mut String,
        span: &mut Span,
    ) -> Result<(), String> {
        let (session, commit) = self.with_gate(|| -> Result<_, String> {
            let session = self.inner.sessions.remove(id).map_err(|e| e.to_string())?;
            let seq = self.journal(&JournalEvent::SessionCommitted { session: id });
            let commit = seq.and_then(|seq| self.commit_position(seq).map(|pos| (seq, pos)));
            Ok((session, commit))
        })?;
        self.inner.metrics.sessions_committed.inc();
        // Commit is the protocol's durability point: wait for the group
        // fsync (outside the gate — a snapshot may proceed meanwhile),
        // then — under quorum-ack durability — for a majority of the
        // cluster to hold durable copies too.
        if let (Some(binding), Some((seq, (epoch, position)))) = (&self.inner.storage, commit) {
            let sync_started = Instant::now();
            let synced = self.sync_commit(binding, seq);
            span.fsync_ns += sync_started.elapsed().as_nanos() as u64;
            // Applied in memory and queued in the journal, but NOT
            // durable — the ack must say so (quorum-timeout precedent).
            synced?;
            if self.inner.replication.cluster > 1 {
                self.wait_for_quorum(epoch, position, span)?;
            }
        }
        let mut w = begin_session_reply(out, raw_id, id);
        w.key("complete");
        w.bool_val(session.is_complete());
        write_tuple(&mut w, &session.tuple);
        w.key("rounds");
        w.num(session.rounds as f64);
        w.key("user_validated");
        w.num(session.user_validated.len() as f64);
        w.key("auto_validated");
        w.num(session.auto_validated.len() as f64);
        let schema = self.input_schema();
        write_attrs(&mut w, schema, "validated", session.validated.iter());
        w.end_obj();
        Ok(())
    }

    fn session_abort(&self, id: u64, raw_id: Option<&str>, out: &mut String) -> Result<(), String> {
        self.with_gate(|| -> Result<(), String> {
            self.inner.sessions.remove(id).map_err(|e| e.to_string())?;
            self.journal(&JournalEvent::SessionAborted { session: id });
            Ok(())
        })?;
        self.inner.metrics.sessions_aborted.inc();
        begin_session_reply(out, raw_id, id).end_obj();
        Ok(())
    }

    /// Batch clean: each tuple gets its `trust` columns validated as-is,
    /// then the correcting process runs to its fixpoint. Tuples fan out
    /// across the worker pool; outcomes return in input order. Batch
    /// cleans are request/response (no session survives them), so they
    /// are not journaled — but their provenance does flow into the
    /// shared audit log under reserved tuple ids.
    fn clean_batch(&self, tuples: Vec<Vec<Value>>, trust: &[String]) -> Result<Json, String> {
        let schema = self.input_schema().clone();
        let trusted: Vec<usize> = trust
            .iter()
            .map(|name| self.resolve_attr(name))
            .collect::<Result<_, String>>()?;
        let n = tuples.len();
        let inner = Arc::clone(&self.inner);
        let engine = self.engine();
        let trusted = Arc::new(trusted);
        let schema_for_jobs = schema.clone();
        let audit_base = self.inner.sessions.allocate_ids(n as u64);
        let outcomes: Vec<Result<Json, String>> =
            self.inner.pool.map_ordered(tuples, move |idx, values| {
                clean_one(
                    &inner,
                    &engine,
                    &schema_for_jobs,
                    &trusted,
                    audit_base as usize + idx,
                    idx,
                    values,
                )
            });
        let mut rendered = Vec::with_capacity(n);
        let mut complete = 0u64;
        let mut cells_fixed = 0u64;
        for outcome in outcomes {
            let json = outcome?;
            if json.get("complete").and_then(Json::as_bool) == Some(true) {
                complete += 1;
            }
            cells_fixed += json.get("cells_fixed").and_then(Json::as_u64).unwrap_or(0);
            rendered.push(json);
        }
        self.inner.metrics.tuples_cleaned.add(n as u64);
        self.inner.metrics.cells_fixed.add(cells_fixed);
        Ok(Json::obj([
            ("ok", Json::Bool(true)),
            ("count", Json::Num(n as f64)),
            ("complete", Json::Num(complete as f64)),
            ("cells_fixed", Json::Num(cells_fixed as f64)),
            ("outcomes", Json::Arr(rendered)),
        ]))
    }

    fn regions(&self, top_k: Option<usize>) -> Json {
        let top_k = top_k.unwrap_or(self.inner.config.region_top_k);
        let inner = &self.inner;
        let engine = self.engine();
        // One full search per (ruleset, master generation) serves every
        // top_k (the search retains the untruncated ranking); a master
        // append re-keys the cache, so stale regions are unservable.
        let (search, cached) = inner.cache.regions(
            engine.fingerprint,
            engine.master.generation(),
            &inner.metrics,
            || {
                // Materializing the truth universe copies every master
                // row — only pay that on a cache miss.
                let universe = universe_from_master(engine.rules.input_schema(), &engine.master);
                search_regions(
                    &engine.rules,
                    &engine.master,
                    &universe,
                    &region_options(&self.inner.config),
                )
            },
        );
        let schema = self.input_schema();
        let stats = &search.result.stats;
        Json::obj([
            ("ok", Json::Bool(true)),
            ("cached", Json::Bool(cached)),
            ("top_k", Json::Num(top_k as f64)),
            (
                "regions",
                Json::Arr(
                    search
                        .ranked()
                        .iter()
                        .take(top_k)
                        .map(|region| {
                            Json::obj([
                                (
                                    "attrs",
                                    Json::Arr(
                                        region
                                            .attrs()
                                            .iter()
                                            .map(|&a| Json::str(schema.attr_name(a)))
                                            .collect(),
                                    ),
                                ),
                                ("size", Json::Num(region.size() as f64)),
                                ("contexts", Json::Num(region.tableau().len() as f64)),
                                ("rendered", Json::str(region.render(schema))),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("candidates", Json::Num(stats.candidates as f64)),
            ("closure_probes", Json::Num(stats.closure_probes as f64)),
            (
                "certification_fixpoints",
                Json::Num(stats.engine.fixpoint_runs as f64),
            ),
            ("recertified", Json::Num(stats.recertified as f64)),
            (
                "master_generation",
                Json::Num(search.master_generation() as f64),
            ),
        ])
    }

    fn check(&self, mode: Option<&str>) -> Result<Json, String> {
        let (mode, options) = match mode.unwrap_or("strict") {
            "strict" => ("strict", ConsistencyOptions::default()),
            "entity-coherent" => ("entity-coherent", ConsistencyOptions::entity_coherent()),
            other => return Err(format!("unknown mode `{other}` (strict | entity-coherent)")),
        };
        let inner = &self.inner;
        let engine = self.engine();
        let (report, cached) = inner.cache.consistency(
            engine.fingerprint,
            engine.master.generation(),
            mode,
            &inner.metrics,
            || check_consistency(&engine.rules, &engine.master, &options),
        );
        Ok(Json::obj([
            ("ok", Json::Bool(true)),
            ("cached", Json::Bool(cached)),
            ("mode", Json::str(mode)),
            ("consistent", Json::Bool(report.is_consistent())),
            ("conflicts", Json::Num(report.conflicts.len() as f64)),
            ("ambiguities", Json::Num(report.ambiguities.len() as f64)),
            ("budget_exhausted", Json::Bool(report.budget_exhausted)),
        ]))
    }

    /// Ranged read over the provenance stream: `start` is a global
    /// append index; records below the in-memory window come from the
    /// disk spill. Clients page by advancing `start` past the returned
    /// records (`next` field).
    fn audit_read(&self, start: u64, count: Option<u64>) -> Json {
        let count = count.unwrap_or(AUDIT_READ_DEFAULT).min(AUDIT_READ_MAX);
        let audit = &self.inner.audit;
        let records = audit.read_range(start as usize, count as usize);
        let schema = self.input_schema();
        let rendered: Vec<Json> = records
            .iter()
            .enumerate()
            .map(|(offset, record)| render_audit_record(start + offset as u64, record, schema))
            .collect();
        let next = start + rendered.len() as u64;
        let mut fields = vec![
            ("ok", Json::Bool(true)),
            ("start", Json::Num(start as f64)),
            ("count", Json::Num(rendered.len() as f64)),
            ("next", Json::Num(next as f64)),
            ("total", Json::Num(audit.len() as f64)),
            ("spilled", Json::Num(audit.spilled() as f64)),
        ];
        // A failing spill means records this read serves from the disk
        // archive may be missing: a short page must not read as "end of
        // history", so the response says the archive is truncated.
        if let Some(binding) = &self.inner.storage {
            if let Some(err) = binding.storage.spill().last_error() {
                fields.push(("truncated", Json::Bool(true)));
                fields.push((
                    "warning",
                    Json::str(format!(
                        "audit archive may be incomplete: spill writes failing ({err})"
                    )),
                ));
            }
        }
        fields.push(("records", Json::Arr(rendered)));
        Json::obj(fields)
    }

    /// `scrub`: verify every checksum in the data directory online.
    /// Only the durable prefix of the append-only files is read, so
    /// in-flight writes are never misdiagnosed as damage. Corruption
    /// findings are logged and counted, and reported as typed
    /// `{file, offset, detail}` entries — torn tails stay legal.
    fn scrub_response(&self) -> Result<Json, String> {
        let Some(binding) = &self.inner.storage else {
            return Err("scrub requires a journaled server (--data-dir)".into());
        };
        let report = binding
            .storage
            .scrub()
            .map_err(|e| format!("scrub failed to read the data directory: {e}"))?;
        self.inner.metrics.scrubs_run.inc();
        self.inner
            .metrics
            .scrub_corruptions
            .add(report.corruptions.len() as u64);
        if !report.clean() {
            self.inner.diag.error(
                Subsystem::Journal,
                format_args!(
                    "scrub found {} corrupt region(s): {}",
                    report.corruptions.len(),
                    report
                        .corruptions
                        .iter()
                        .map(|c| c.to_string())
                        .collect::<Vec<_>>()
                        .join("; ")
                ),
            );
        }
        let corruptions: Vec<Json> = report
            .corruptions
            .iter()
            .map(|c| {
                Json::obj([
                    ("file", Json::str(c.file.clone())),
                    ("offset", Json::Num(c.offset as f64)),
                    ("detail", Json::str(c.detail.clone())),
                ])
            })
            .collect();
        Ok(Json::obj([
            ("ok", Json::Bool(true)),
            ("clean", Json::Bool(report.clean())),
            ("journal_frames", Json::Num(report.journal_frames as f64)),
            (
                "journal_torn_bytes",
                Json::Num(report.journal_torn_bytes as f64),
            ),
            ("snapshot_present", Json::Bool(report.snapshot_present)),
            ("audit_records", Json::Num(report.audit_records as f64)),
            (
                "audit_torn_bytes",
                Json::Num(report.audit_torn_bytes as f64),
            ),
            ("corruptions", Json::Arr(corruptions)),
        ]))
    }

    /// Parse, compile and atomically install a new rule set. The swap
    /// and its journal event happen under the storage write gate, so
    /// every journaled session event is on the correct side of the
    /// reload during replay.
    fn rules_reload(&self, dsl: &str) -> Result<Json, String> {
        // Serialize against other engine swaps (a concurrent
        // master.append must not be overwritten by a state compiled over
        // the old master), then parse + compile outside the storage gate:
        // this is the expensive part (plan compilation, optional region
        // pre-computation).
        let _swap = self
            .inner
            .swap_lock
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let engine = self.compile_engine_from_dsl(dsl)?;
        let (rules_len, fingerprint, regions_len) =
            (engine.rules.len(), engine.fingerprint, engine.regions.len());
        let seq = match &self.inner.storage {
            Some(binding) => {
                let gate = binding.gate.write().unwrap_or_else(|e| e.into_inner());
                *self.inner.engine.write().unwrap_or_else(|e| e.into_inner()) = engine;
                let seq = binding.storage.append(&JournalEvent::RulesReloaded {
                    dsl: dsl.to_string(),
                    fingerprint,
                });
                drop(gate);
                Some(seq)
            }
            None => {
                *self.inner.engine.write().unwrap_or_else(|e| e.into_inner()) = engine;
                None
            }
        };
        if let (Some(binding), Some(seq)) = (&self.inner.storage, seq) {
            self.sync_commit(binding, seq)?; // a reload ack must survive restart
        }
        self.inner.metrics.rules_reloaded.inc();
        Ok(Json::obj([
            ("ok", Json::Bool(true)),
            ("rules", Json::Num(rules_len as f64)),
            ("ruleset", Json::str(format!("{fingerprint:016x}"))),
            ("regions", Json::Num(regions_len as f64)),
        ]))
    }

    /// Append rows to the master repository: copy-on-append, recompile
    /// against the new generation, patch cached regions by delta
    /// re-certification, swap atomically, journal. Serialized with other
    /// engine swaps; in-flight requests keep the consistent old state.
    fn master_append(&self, tuples: &[Vec<Value>]) -> Result<Json, String> {
        if tuples.is_empty() {
            return Err("`tuples` must contain at least one row".into());
        }
        let swap = self
            .inner
            .swap_lock
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let engine = self.engine();
        let (next, appended, recertified) =
            append_engine_master(&engine, tuples.to_vec(), &self.inner)?;
        let (master_rows, generation) = (next.master.len(), next.master.generation());
        let seq = match &self.inner.storage {
            Some(binding) => {
                let gate = binding.gate.write().unwrap_or_else(|e| e.into_inner());
                *self.inner.engine.write().unwrap_or_else(|e| e.into_inner()) = next;
                let seq = binding.storage.append(&JournalEvent::MasterAppended {
                    rows: tuples.to_vec(),
                });
                // Still under the gate: a concurrent snapshot must see the
                // rows (it truncates the journal epoch holding the event —
                // extending afterwards would let a crash drop acked rows).
                self.inner
                    .master_appended
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .extend(tuples.iter().cloned());
                drop(gate);
                Some(seq)
            }
            None => {
                *self.inner.engine.write().unwrap_or_else(|e| e.into_inner()) = next;
                self.inner
                    .master_appended
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .extend(tuples.iter().cloned());
                None
            }
        };
        // Prior-generation analyses are unreachable once the swap lands
        // (the cache key embeds the generation): retire them so periodic
        // appends cannot grow the cache without bound.
        self.inner
            .cache
            .retire_generations(engine.fingerprint, generation);
        drop(swap);
        if let (Some(binding), Some(seq)) = (&self.inner.storage, seq) {
            self.sync_commit(binding, seq)?; // an append ack must survive restart
        }
        self.inner.metrics.master_appends.inc();
        if let Some(n) = recertified {
            self.inner.metrics.regions_recertified.add(n);
            self.inner.metrics.regions_cache_patched.inc();
        }
        Ok(Json::obj([
            ("ok", Json::Bool(true)),
            ("appended", Json::Num(appended as f64)),
            ("master_rows", Json::Num(master_rows as f64)),
            ("generation", Json::Num(generation as f64)),
            ("regions_patched", Json::Bool(recertified.is_some())),
            (
                "regions_recertified",
                Json::Num(recertified.unwrap_or(0) as f64),
            ),
        ]))
    }

    /// Search diagnostics of the active engine's region state (the
    /// `metrics` reply's `region_search` object), so operators can watch
    /// the incremental data phase — and delta re-certification after
    /// master appends — doing less work.
    pub(crate) fn region_search_json(&self) -> Option<Json> {
        let engine = self.engine();
        let search = engine.search.as_ref()?;
        let stats = &search.result.stats;
        Some(Json::obj([
            ("contexts", Json::Num(stats.contexts as f64)),
            ("candidates", Json::Num(stats.candidates as f64)),
            ("truth_profiles", Json::Num(stats.truth_profiles as f64)),
            ("closure_probes", Json::Num(stats.closure_probes as f64)),
            ("lattice_hits", Json::Num(stats.lattice_hits as f64)),
            (
                "certification_fixpoints",
                Json::Num(stats.engine.fixpoint_runs as f64),
            ),
            ("recertified", Json::Num(stats.recertified as f64)),
            (
                "candidates_reused",
                Json::Num(stats.candidates_reused as f64),
            ),
            (
                "master_generation",
                Json::Num(search.master_generation() as f64),
            ),
        ]))
    }

    /// `trace.read`: decode the most recent request spans (newest
    /// first) plus the slow-request ring for operators.
    fn trace_read(&self, limit: Option<u64>) -> Json {
        let sink = &self.inner.trace;
        let limit = limit.unwrap_or(64).min(4096) as usize;
        let spans = sink.ring().read_recent(limit);
        let slow = sink.slow().read_recent(limit.min(64));
        Json::obj([
            ("ok", Json::Bool(true)),
            ("enabled", Json::Bool(sink.enabled())),
            ("slow_ms", Json::Num((sink.slow_ns() / 1_000_000) as f64)),
            ("recorded", Json::Num(sink.ring().recorded() as f64)),
            ("spans", Json::Arr(spans.iter().map(span_json).collect())),
            ("slow", Json::Arr(slow.iter().map(span_json).collect())),
        ])
    }

    /// `health`: liveness/readiness verdict with the reasons spelled
    /// out. Probing also logs ready/not-ready transitions.
    fn health_response(&self) -> Json {
        let report = self.probe_health();
        let role = self.role();
        let mut fields = vec![
            ("ok", Json::Bool(true)),
            ("role", Json::str(role.name())),
            ("live", Json::Bool(report.live)),
            ("ready", Json::Bool(report.ready)),
            ("degraded", Json::Bool(self.is_degraded())),
            (
                "causes",
                Json::Arr(report.causes.iter().map(Json::str).collect()),
            ),
        ];
        if let Some(binding) = &self.inner.storage {
            fields.push(("epoch", Json::Num(binding.storage.epoch() as f64)));
        }
        if let Role::Follower { primary } = &role {
            fields.push(("primary", Json::str(primary.clone())));
            fields.push(("lag_seconds", Json::Num(report.lag_seconds)));
            fields.push((
                "max_lag_seconds",
                Json::Num(self.inner.config.max_lag.as_secs_f64()),
            ));
        }
        Json::obj(fields)
    }

    /// `log.read`: the most recent diagnostic events (newest first),
    /// optionally filtered by minimum level and subsystem.
    fn log_read(
        &self,
        limit: Option<u64>,
        level: Option<&str>,
        subsystem: Option<&str>,
    ) -> Result<Json, String> {
        let min_level = match level {
            Some(name) => Level::parse(name)
                .ok_or_else(|| format!("unknown level `{name}` (debug | info | warn | error)"))?,
            None => Level::Debug,
        };
        let subsystem = match subsystem {
            Some(name) => Some(Subsystem::parse(name).ok_or_else(|| {
                format!(
                    "unknown subsystem `{name}` \
                     (server | net | journal | replication | health | config | admission)"
                )
            })?),
            None => None,
        };
        let limit = limit.unwrap_or(64).min(4096) as usize;
        let sink = &self.inner.diag;
        let ring = sink.ring();
        let events = ring.read_recent(limit, min_level, subsystem);
        Ok(Json::obj([
            ("ok", Json::Bool(true)),
            ("enabled", Json::Bool(ring.enabled())),
            ("recorded", Json::Num(ring.recorded() as f64)),
            ("emitted", Json::Num(sink.emitted() as f64)),
            ("suppressed", Json::Num(sink.suppressed() as f64)),
            (
                "events",
                Json::Arr(
                    events
                        .iter()
                        .map(|e| {
                            Json::obj([
                                ("seq", Json::Num(e.seq as f64)),
                                ("unix_ms", Json::Num(e.unix_ms as f64)),
                                ("level", Json::str(e.level.as_str())),
                                ("subsystem", Json::str(e.subsystem.as_str())),
                                ("message", Json::str(e.message.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]))
    }

    /// `metrics.history`: the retained time-series window, oldest
    /// sample first — consumers diff consecutive samples into rates.
    fn metrics_history(&self, limit: Option<u64>) -> Json {
        let limit = limit.unwrap_or(120).min(600) as usize;
        let samples = self.inner.timeseries.history(limit);
        Json::obj([
            ("ok", Json::Bool(true)),
            ("retained", Json::Num(self.inner.timeseries.len() as f64)),
            (
                "samples",
                Json::Arr(samples.iter().map(Sample::json).collect()),
            ),
        ])
    }

    /// `cluster.status`: this node's status document plus — unless the
    /// request says `fanout: false` — one per known peer, fetched with
    /// a short non-retrying dial so one dead peer cannot stall the
    /// answer. A primary fans out to its follower registry. A follower
    /// asks its primary, whose document lists every follower the
    /// primary has seen, then dials its siblings from that list — so
    /// one request to *any* member reaches the whole group. Peers are
    /// always asked with `fanout: false`, so the fan-out never recurses.
    fn cluster_status(&self, fanout: bool) -> Json {
        let repl = &self.inner.replication;
        let mut nodes = vec![self.node_status()];
        if fanout {
            match self.role() {
                Role::Primary => {
                    for peer in self.peer_addrs() {
                        nodes.push(self.peer_status(&peer));
                    }
                }
                Role::Follower { primary } => {
                    let primary_doc = self.peer_status(&primary);
                    let me = self.inner.config.advertise.as_deref();
                    let mut siblings: Vec<String> = match primary_doc.get("followers") {
                        Some(Json::Obj(entries)) => entries
                            .iter()
                            .map(|(name, _)| name.clone())
                            .filter(|name| Some(name.as_str()) != me)
                            .collect(),
                        _ => Vec::new(),
                    };
                    siblings.sort();
                    nodes.push(primary_doc);
                    for sibling in siblings {
                        nodes.push(self.peer_status(&sibling));
                    }
                }
            }
        }
        Json::obj([
            ("ok", Json::Bool(true)),
            ("cluster_size", Json::Num(repl.cluster as f64)),
            ("quorum", Json::Num(repl.quorum() as f64)),
            ("nodes", Json::Arr(nodes)),
        ])
    }

    /// A primary's peers: every follower that ever synced, keyed by the
    /// address it advertised.
    fn peer_addrs(&self) -> Vec<String> {
        let followers = lock_followers(&self.inner.replication);
        let mut addrs: Vec<String> = followers.keys().cloned().collect();
        addrs.sort();
        addrs
    }

    /// This node's own `cluster.status` document.
    fn node_status(&self) -> Json {
        let report = self.probe_health();
        let role = self.role();
        let snapshot = self.metrics();
        let rate = self.inner.timeseries.request_rate(&snapshot);
        let epoch = self
            .inner
            .storage
            .as_ref()
            .map_or(0, |binding| binding.storage.epoch());
        let mut fields = vec![
            (
                "addr",
                Json::str(
                    self.inner
                        .config
                        .advertise
                        .clone()
                        .unwrap_or_else(|| "local".into()),
                ),
            ),
            ("ok", Json::Bool(true)),
            ("role", Json::str(role.name())),
            ("epoch", Json::Num(epoch as f64)),
            ("live", Json::Bool(report.live)),
            ("ready", Json::Bool(report.ready)),
            ("degraded", Json::Bool(self.is_degraded())),
            (
                "causes",
                Json::Arr(report.causes.iter().map(Json::str).collect()),
            ),
            ("lag_seconds", Json::Num(report.lag_seconds)),
            ("requests", Json::Num(snapshot.requests as f64)),
            ("req_per_sec", Json::Num(rate)),
            ("sessions", Json::Num(self.live_sessions() as f64)),
        ];
        if let Role::Follower { primary } = &role {
            fields.push(("primary", Json::str(primary.clone())));
        }
        if matches!(role, Role::Primary) {
            let lags = self.follower_lags();
            if !lags.is_empty() {
                let per_follower = lags
                    .iter()
                    .map(|lag| (lag.name.clone(), Json::obj(lag.fields())));
                fields.push(("followers", Json::Obj(per_follower.collect())));
            }
        }
        Json::obj(fields)
    }

    /// Fetch one peer's self-view for the fan-out; an unreachable peer
    /// becomes an `ok: false` document instead of an error.
    fn peer_status(&self, addr: &str) -> Json {
        let fetch = || -> Result<Json, String> {
            let policy = RetryPolicy {
                retries: 0,
                request_timeout: Some(Duration::from_millis(
                    self.inner.peer_timeout_ms.load(Ordering::Relaxed).max(1),
                )),
                ..RetryPolicy::default()
            };
            let mut client = Client::connect_with(addr, policy).map_err(|e| e.to_string())?;
            let response = client
                .request(&Request::ClusterStatus { fanout: false })
                .map_err(|e| e.to_string())?;
            response
                .get("nodes")
                .and_then(Json::as_arr)
                .and_then(|nodes| nodes.first())
                .cloned()
                .ok_or_else(|| "malformed cluster.status reply".to_string())
        };
        match fetch() {
            Ok(mut doc) => {
                // The registry key we dialed is authoritative for the
                // address column (a peer without `--advertise` reports
                // the "local" placeholder).
                if let Json::Obj(fields) = &mut doc {
                    for (key, value) in fields.iter_mut() {
                        if key == "addr" {
                            *value = Json::str(addr);
                        }
                    }
                }
                doc
            }
            Err(error) => Json::obj([
                ("addr", Json::str(addr)),
                ("ok", Json::Bool(false)),
                ("error", Json::Str(error)),
            ]),
        }
    }

    /// `config.set`: apply a runtime tunable and journal it, so the
    /// setting survives restart and propagates to followers through
    /// the replication stream.
    fn config_set(&self, key: &str, value: u64) -> Result<Json, String> {
        let seq = self.with_gate(|| -> Result<Option<u64>, String> {
            self.apply_config_set(key, value)?;
            Ok(self.journal(&JournalEvent::ConfigSet {
                key: key.to_string(),
                value,
            }))
        })?;
        if let (Some(binding), Some(seq)) = (&self.inner.storage, seq) {
            self.sync_commit(binding, seq)?; // an acked tunable must survive restart
        }
        self.inner
            .diag
            .info(Subsystem::Config, format_args!("{key} set to {value}"));
        Ok(Json::obj([
            ("ok", Json::Bool(true)),
            ("key", Json::str(key)),
            ("value", Json::Num(value as f64)),
        ]))
    }

    /// Apply one runtime tunable — the shared core of the live
    /// `config.set` op and journal replay (boot recovery, follower
    /// tail).
    fn apply_config_set(&self, key: &str, value: u64) -> Result<(), String> {
        match key {
            "slow_ms" => self
                .inner
                .trace
                .set_slow_ns(value.saturating_mul(1_000_000)),
            // Resizing discards the ring's contents, so a replayed or
            // repeated set of the current size must be a no-op.
            "trace_buffer" => {
                if self.inner.trace.capacity() != value as usize {
                    self.inner.trace.resize(value as usize);
                }
            }
            "diag_buffer" => {
                if self.inner.diag.capacity() != value as usize {
                    self.inner.diag.resize(value as usize);
                }
            }
            // Clamped to >= 1ms: a zero dial timeout would mark every
            // peer permanently down.
            "peer_timeout_ms" => self
                .inner
                .peer_timeout_ms
                .store(value.max(1), Ordering::Relaxed),
            other => {
                return Err(format!(
                    "unknown config key `{other}` \
                     (slow_ms | trace_buffer | diag_buffer | peer_timeout_ms)"
                ))
            }
        }
        Ok(())
    }
}

/// One health evaluation: alive, ready, and the reasons it is not.
pub(crate) struct HealthReport {
    /// Process and journal flusher are up.
    pub live: bool,
    /// Fit to serve its role right now.
    pub ready: bool,
    /// Human-readable reasons `ready` is false (empty when ready).
    pub causes: Vec<String>,
    /// A follower's lag behind its primary in seconds (0 on primaries).
    pub lag_seconds: f64,
}

/// Open a session op's success reply: the `id` echo, `ok`, `session`.
fn begin_session_reply<'a>(
    out: &'a mut String,
    raw_id: Option<&str>,
    session: u64,
) -> JsonWriter<'a> {
    let mut w = JsonWriter::new(out);
    w.begin_response(raw_id);
    w.key("ok");
    w.bool_val(true);
    w.key("session");
    w.num(session as f64);
    w
}

/// Write `"tuple": [cells]`.
fn write_tuple(w: &mut JsonWriter<'_>, tuple: &Tuple) {
    w.key("tuple");
    w.begin_arr();
    for v in tuple.values() {
        w.value(v);
    }
    w.end_arr();
}

/// Write `key: [attribute names]`.
fn write_attrs(
    w: &mut JsonWriter<'_>,
    schema: &SchemaRef,
    key: &str,
    attrs: impl IntoIterator<Item = usize>,
) {
    w.key(key);
    w.begin_arr();
    for a in attrs {
        w.str_val(schema.attr_name(a));
    }
    w.end_arr();
}

/// 99th-percentile upper bound from `(exclusive upper bound, count)`
/// histogram buckets; 0 with no observations.
fn bucket_p99_ns(buckets: &[(u64, u64)]) -> u64 {
    let total: u64 = buckets.iter().map(|&(_, count)| count).sum();
    if total == 0 {
        return 0;
    }
    let rank = (total * 99).div_ceil(100).max(1);
    let mut cumulative = 0;
    for &(bound, count) in buckets {
        cumulative += count;
        if cumulative >= rank {
            return bound;
        }
    }
    buckets.last().map_or(0, |&(bound, _)| bound)
}

/// One trace span as wire JSON. The trace id rides as a decimal string
/// so 64-bit hashed ids survive f64-only JSON consumers exactly.
fn span_json(span: &Span) -> Json {
    Json::obj([
        ("trace", Json::str(span.trace_id.to_string())),
        ("synthetic", Json::Bool(span.synthetic_id())),
        (
            "op",
            Json::str(
                ops::classes()
                    .nth(span.op)
                    .map_or(ops::OTHER.name, |op| op.name),
            ),
        ),
        ("total_ns", Json::Num(span.total_ns as f64)),
        ("parse_ns", Json::Num(span.parse_ns as f64)),
        ("dispatch_ns", Json::Num(span.dispatch_ns as f64)),
        ("engine_ns", Json::Num(span.engine_ns as f64)),
        ("fsync_ns", Json::Num(span.fsync_ns as f64)),
        ("quorum_ns", Json::Num(span.quorum_ns as f64)),
        ("serialize_ns", Json::Num(span.serialize_ns as f64)),
        ("queue_ns", Json::Num(span.queue_ns as f64)),
        ("fixpoint_runs", Json::Num(span.stats.fixpoint_runs as f64)),
        ("rule_attempts", Json::Num(span.stats.rule_attempts as f64)),
        (
            "master_lookups",
            Json::Num(span.stats.master_lookups as f64),
        ),
        ("index_probes", Json::Num(span.stats.index_probes as f64)),
    ])
}

/// The region-search options a service runs with: its configured top-k
/// and its worker count as the data-phase parallelism.
fn region_options(config: &ServiceConfig) -> RegionFinderOptions {
    RegionFinderOptions {
        top_k: config.region_top_k,
        threads: config.workers,
        ..Default::default()
    }
}

/// Compile the full engine state for `rules` over `master`: plan and
/// (optionally) pre-computed regions, both served from the analysis
/// cache so a reload back to a previously-seen rule set is cheap.
fn compile_engine(
    master: Arc<MasterData>,
    rules: Arc<RuleSet>,
    config: &ServiceConfig,
    cache: &AnalysisCache,
    metrics: &ServiceMetrics,
) -> Arc<EngineState> {
    master.warm_indexes(rules.iter().map(|(_, r)| r));
    let fingerprint = ruleset_fingerprint(&rules);
    let (plan, _) = cache.plan(fingerprint, master.generation(), metrics, || {
        CompiledRules::compile(&rules, &master)
    });
    let (regions, search) = if config.precompute_regions {
        let (search, _) = cache.regions(fingerprint, master.generation(), metrics, || {
            let universe = universe_from_master(rules.input_schema(), &master);
            search_regions(&rules, &master, &universe, &region_options(config))
        });
        (search.top(config.region_top_k), Some(search))
    } else {
        (Vec::new(), None)
    };
    Arc::new(EngineState {
        regions: regions.into(),
        search,
        fingerprint,
        plan,
        rules,
        master,
    })
}

/// Copy-on-append `rows` onto `engine`'s master and compile the
/// successor engine state. Cached regions for the old generation are
/// patched by delta re-certification — only candidates whose entailed
/// rules watch a touched index key (or whose context gained truths) are
/// re-probed — and the patched search is installed under the new
/// generation. Returns `(next state, rows appended, candidates
/// re-certified)`.
fn append_engine_master(
    engine: &EngineState,
    rows: Vec<Vec<Value>>,
    inner: &ServiceInner,
) -> Result<(Arc<EngineState>, usize, Option<u64>), String> {
    let master_schema = engine.rules.master_schema().clone();
    let tuples: Vec<Tuple> = rows
        .into_iter()
        .enumerate()
        .map(|(i, values)| {
            if values.len() != master_schema.arity() {
                return Err(format!(
                    "row {i} has {} values but master schema `{}` has arity {}",
                    values.len(),
                    master_schema.name(),
                    master_schema.arity()
                ));
            }
            Tuple::new(master_schema.clone(), values).map_err(|e| e.to_string())
        })
        .collect::<Result<_, String>>()?;
    let appended = tuples.len();
    let (new_master, _delta) = engine
        .master
        .append_copy(tuples)
        .map_err(|e| e.to_string())?;
    let new_master = Arc::new(new_master);
    let (plan, _) = inner.cache.plan(
        engine.fingerprint,
        new_master.generation(),
        &inner.metrics,
        || CompiledRules::compile(&engine.rules, &new_master),
    );
    // Patch the cached region search instead of discarding it: the new
    // universe extends the old one row-for-row, so the delta path
    // re-certifies only what the appended keys can have changed.
    let mut recertified = None;
    // The prior search to patch: the engine's pre-computed one, or — with
    // pre-computation off — whatever an earlier `regions` request cached
    // for the outgoing generation.
    let prior = engine.search.clone().or_else(|| {
        inner
            .cache
            .cached_regions(engine.fingerprint, engine.master.generation())
    });
    let (regions, search) = match &prior {
        Some(prior) => {
            let universe = universe_from_master(engine.rules.input_schema(), &new_master);
            let patched = recheck_regions(
                &engine.rules,
                &new_master,
                &universe,
                prior,
                &region_options(&inner.config),
            );
            recertified = Some(patched.result.stats.recertified as u64);
            let (search, _) = inner.cache.regions(
                engine.fingerprint,
                new_master.generation(),
                &inner.metrics,
                || patched,
            );
            let regions = if engine.search.is_some() {
                search.top(inner.config.region_top_k)
            } else {
                Vec::new() // pre-computation off: monitors stay region-free
            };
            (regions, engine.search.is_some().then_some(search))
        }
        None => (Vec::new(), None),
    };
    Ok((
        Arc::new(EngineState {
            rules: Arc::clone(&engine.rules),
            master: new_master,
            plan,
            regions: regions.into(),
            search,
            fingerprint: engine.fingerprint,
        }),
        appended,
        recertified,
    ))
}

/// Canonical DSL rendering of a whole rule set (journals and snapshots
/// store this; recovery re-parses it).
fn render_ruleset_dsl(rules: &RuleSet) -> String {
    let input = rules.input_schema();
    let master = rules.master_schema();
    rules
        .iter()
        .map(|(_, rule)| render_er_dsl(rule, input, master))
        .collect::<Vec<_>>()
        .join("\n")
}

fn attrset_to_ids(set: &AttrSet) -> Vec<u32> {
    set.iter().map(|a| a as u32).collect()
}

fn ids_to_attrset(ids: &[u32], arity: usize) -> Result<AttrSet, String> {
    let mut set = AttrSet::new();
    for &id in ids {
        if id as usize >= arity {
            return Err(format!("attribute id {id} out of range (arity {arity})"));
        }
        set.insert(id as usize);
    }
    Ok(set)
}

fn session_to_snapshot(id: u64, session: &MonitorSession, arity: usize) -> SessionSnapshot {
    debug_assert_eq!(session.tuple.arity(), arity);
    SessionSnapshot {
        session: id,
        tuple_id: session.tuple_id as u64,
        rounds: session.rounds as u64,
        values: session.tuple.values().to_vec(),
        validated: attrset_to_ids(&session.validated),
        user_validated: attrset_to_ids(&session.user_validated),
        auto_validated: attrset_to_ids(&session.auto_validated),
    }
}

fn snapshot_to_session(
    snapshot: &SessionSnapshot,
    schema: &SchemaRef,
) -> Result<MonitorSession, String> {
    let tuple = Tuple::new(schema.clone(), snapshot.values.clone())
        .map_err(|e| format!("snapshot session {}: {e}", snapshot.session))?;
    let arity = schema.arity();
    let mut session = MonitorSession::new(snapshot.tuple_id as usize, tuple);
    session.rounds = snapshot.rounds as usize;
    session.validated = ids_to_attrset(&snapshot.validated, arity)?;
    session.user_validated = ids_to_attrset(&snapshot.user_validated, arity)?;
    session.auto_validated = ids_to_attrset(&snapshot.auto_validated, arity)?;
    Ok(session)
}

/// Render one audit record for the `audit.read` wire response.
fn render_audit_record(index: u64, record: &AuditRecord, schema: &SchemaRef) -> Json {
    let attr = if record.attr < schema.arity() {
        Json::str(schema.attr_name(record.attr))
    } else {
        Json::Num(record.attr as f64)
    };
    let mut fields = vec![
        ("index", Json::Num(index as f64)),
        ("tuple", Json::Num(record.tuple_id as f64)),
        ("attr", attr),
        ("round", Json::Num(record.round as f64)),
    ];
    match &record.event {
        CellEvent::UserValidated { old, new } => {
            fields.push(("kind", Json::str("user_validated")));
            fields.push(("old", Json::from_value(old)));
            fields.push(("new", Json::from_value(new)));
        }
        CellEvent::RuleFixed {
            rule,
            master_row,
            old,
            new,
        } => {
            fields.push(("kind", Json::str("rule_fixed")));
            fields.push(("rule", Json::Num(*rule as f64)));
            fields.push(("master_row", Json::Num(*master_row as f64)));
            fields.push(("old", Json::from_value(old)));
            fields.push(("new", Json::from_value(new)));
        }
        CellEvent::RuleConfirmed { rule } => {
            fields.push(("kind", Json::str("rule_confirmed")));
            // `usize::MAX` marks "some rule" (the fixpoint report does
            // not retain which); render as null rather than 2^64.
            if *rule != usize::MAX {
                fields.push(("rule", Json::Num(*rule as f64)));
            } else {
                fields.push(("rule", Json::Null));
            }
        }
    }
    Json::obj(fields)
}

/// One batch-clean job, run on a pool worker.
#[allow(clippy::too_many_arguments)]
fn clean_one(
    inner: &Arc<ServiceInner>,
    engine: &Arc<EngineState>,
    schema: &SchemaRef,
    trusted: &[usize],
    audit_id: usize,
    idx: usize,
    values: Vec<Value>,
) -> Result<Json, String> {
    if values.len() != schema.arity() {
        return Err(format!(
            "tuple {idx} has {} values but schema `{}` has arity {}",
            values.len(),
            schema.name(),
            schema.arity()
        ));
    }
    let tuple = Tuple::new(schema.clone(), values).map_err(|e| e.to_string())?;
    let monitor = DataMonitor::from_plan(&engine.rules, &engine.master, Arc::clone(&engine.plan))
        .with_shared_regions(Arc::clone(&engine.regions))
        .with_audit(Arc::clone(&inner.audit));
    let mut session = monitor.start(audit_id, tuple);
    let validations: Vec<(usize, Value)> = trusted
        .iter()
        .filter_map(|&a| {
            let v = session.tuple.get(a);
            (!v.is_null()).then(|| (a, v.clone()))
        })
        .collect();
    let report = monitor
        .apply_validation(&mut session, &validations)
        .map_err(|e| e.to_string())?;
    Ok(Json::obj([
        ("index", Json::Num(idx as f64)),
        ("complete", Json::Bool(session.is_complete())),
        ("cells_fixed", Json::Num(report.fixes.len() as f64)),
        ("validated", Json::Num(session.validated.len() as f64)),
        (
            "tuple",
            Json::Arr(
                session
                    .tuple
                    .values()
                    .iter()
                    .map(Json::from_value)
                    .collect(),
            ),
        ),
    ]))
}
