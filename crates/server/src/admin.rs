//! The operator's ops: `hello`, `audit.read`, `scrub`, `trace.read`,
//! `log.read`, `metrics.history`, `cluster.status`, `config.set`,
//! `server.drain`, `shutdown`.

use crate::client::{Client, RetryPolicy};
use crate::diag::{Level, Subsystem};
use crate::errors::{ErrorCode, ServeError};
use crate::ops;
use crate::protocol::{Request, PROTOCOL_VERSION};
use crate::replication::{lock_followers, Role};
use crate::seqring::slots_for;
use crate::service::{write_attrs, CleaningService, Reply};
use crate::trace::Span;
use crate::wire::{Json, JsonWriter};
use cerfix::{AuditRecord, CellEvent};
use cerfix_relation::{SchemaRef, Value};
use cerfix_storage::{JournalEvent, Storage};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// Most audit records one `audit.read` returns when the client asks for
/// more (or doesn't say).
const AUDIT_READ_MAX: u64 = 4096;
/// Default `audit.read` page size.
const AUDIT_READ_DEFAULT: u64 = 256;
/// Default bound a graceful drain waits for in-flight sessions before
/// shutting down anyway (`server.drain {"wait_ms": …}` overrides).
const DEFAULT_DRAIN_WAIT_MS: u64 = 10_000;

impl CleaningService {
    /// `server.drain`: begin a graceful drain. Idempotent — the first
    /// call latches the draining flag (the front end stops admitting
    /// connections, `session.create` answers `draining`) and starts a
    /// monitor thread that waits for in-flight sessions to finish (or
    /// for the bound to expire), takes a final snapshot, and then runs
    /// the normal shutdown path. Acked work is never dropped: every
    /// acknowledged commit is already durable, and the final snapshot
    /// preserves still-open sessions for the restarted process.
    pub(crate) fn server_drain(
        &self,
        wait_ms: Option<u64>,
        reply: Reply<'_>,
    ) -> Result<(), ServeError> {
        let bound = Duration::from_millis(wait_ms.unwrap_or(DEFAULT_DRAIN_WAIT_MS));
        let newly = !self.inner.draining.swap(true, Ordering::AcqRel);
        if newly {
            // A held `replica.sync` is released, not waited for.
            self.wake_holds();
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
                    // front end, which snapshots once more on exit
                    // (idempotent).
                    let _ = service.snapshot_now();
                    service.inner.diag.info(
                        Subsystem::Admission,
                        format_args!("drain complete; shutting down"),
                    );
                    service.inner.shutdown.store(true, Ordering::Release);
                    service.notify_shutdown();
                })
                .map_err(|e| {
                    ErrorCode::StorageError.error(format!("drain monitor spawn failed: {e}"))
                })?;
        }
        let sessions = self.live_sessions();
        reply.send(|w| {
            w.field("draining", true);
            w.field("sessions", sessions);
            w.field("wait_ms", bound.as_millis() as u64);
        })
    }

    /// `shutdown`: latch the flag and wake everything that waits on it.
    pub(crate) fn shutdown(&self, reply: Reply<'_>) -> Result<(), ServeError> {
        self.inner.shutdown.store(true, Ordering::Release);
        self.notify_shutdown();
        reply.send(|w| w.field("stopping", true))
    }

    pub(crate) fn hello(&self, reply: Reply<'_>) -> Result<(), ServeError> {
        let engine = self.engine();
        let role = self.role();
        let schema = self.input_schema();
        reply.send(|w| {
            w.field("service", "cerfix-server");
            w.field("version", env!("CARGO_PKG_VERSION"));
            w.field("protocol", PROTOCOL_VERSION);
            w.field("uptime_secs", self.inner.metrics.uptime_secs());
            w.field("workers", self.workers());
            w.field("rules", engine.rules.len());
            w.field("ruleset", &format!("{:016x}", engine.fingerprint));
            w.field("master_rows", engine.master.len());
            w.field("master_generation", engine.master.generation());
            w.field("input_arity", schema.arity());
            let storage = if self.is_journaled() {
                "journaled"
            } else {
                "memory"
            };
            w.field("storage", storage);
            w.field("role", role.name());
            if let Some(binding) = &self.inner.storage {
                w.field("epoch", binding.storage.epoch());
            }
            if let Role::Follower { primary } = &role {
                w.field("primary", primary);
            }
            // A self-re-pointing client treats a draining node like a
            // follower: go elsewhere.
            if self.is_draining() {
                w.field("draining", true);
            }
            write_attrs(w, schema, "attributes", 0..schema.arity());
        })
    }

    /// Ranged read over the provenance stream: `start` is a global
    /// append index. A journaled service serves every record from its
    /// disk spill; an in-memory one serves its resident window, and a
    /// page starting below it is empty. Clients page by advancing
    /// `start` past the returned records (`next` field).
    pub(crate) fn audit_read(
        &self,
        start: u64,
        count: Option<u64>,
        reply: Reply<'_>,
    ) -> Result<(), ServeError> {
        let count = count.unwrap_or(AUDIT_READ_DEFAULT).min(AUDIT_READ_MAX);
        let audit = &self.inner.audit;
        let records = audit.read_range(start as usize, count as usize);
        let schema = self.input_schema();
        // A failing spill means records this read serves from the disk
        // archive may be missing: a short page must not read as "end of
        // history", so the response says the archive is truncated.
        let spill_error = self
            .storage()
            .and_then(|storage| storage.spill().last_error());
        reply.send(|w| {
            w.field("start", start);
            w.field("count", records.len());
            w.field("next", start + records.len() as u64);
            w.field("total", audit.len());
            w.field("spilled", audit.spilled());
            if let Some(err) = &spill_error {
                w.field("truncated", true);
                let warning =
                    format!("audit archive may be incomplete: spill writes failing ({err})");
                w.field("warning", &warning);
            }
            let indexed = (start..).zip(&records);
            w.array("records", indexed, |w, (index, record)| {
                write_audit_record(w, index, record, schema)
            });
        })
    }

    /// `scrub`: verify every checksum in the data directory online.
    /// Only the durable prefix of the append-only files is read, so
    /// in-flight writes are never misdiagnosed as damage. Corruption
    /// findings are logged and counted, and reported as typed
    /// `{file, offset, detail}` entries — torn tails stay legal.
    pub(crate) fn scrub_response(&self, reply: Reply<'_>) -> Result<(), ServeError> {
        let Some(binding) = &self.inner.storage else {
            return Err(
                ErrorCode::BadRequest.error("scrub requires a journaled server (--data-dir)")
            );
        };
        let report = binding.storage.scrub()?;
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
        reply.send(|w| {
            w.field("clean", report.clean());
            w.field("journal_frames", report.journal_frames);
            w.field("journal_torn_bytes", report.journal_torn_bytes);
            w.field("snapshot_present", report.snapshot_present);
            w.field("audit_records", report.audit_records);
            w.field("audit_torn_bytes", report.audit_torn_bytes);
            w.array("corruptions", &report.corruptions, |w, c| {
                w.begin_obj();
                w.field("file", &c.file);
                w.field("offset", c.offset);
                w.field("detail", &c.detail);
                w.end_obj();
            });
        })
    }

    /// `trace.read`: decode the most recent request spans (newest
    /// first) plus the slow-request ring for operators.
    pub(crate) fn trace_read(
        &self,
        limit: Option<u64>,
        reply: Reply<'_>,
    ) -> Result<(), ServeError> {
        let sink = &self.inner.trace;
        let limit = limit.unwrap_or(64).min(4096) as usize;
        let spans = sink.ring().recent_spans(limit);
        let slow = sink.slow().recent_spans(limit.min(64));
        reply.send(|w| {
            w.field("enabled", sink.enabled());
            w.field("slow_ms", sink.slow_ns() / 1_000_000);
            w.field("recorded", sink.ring().recorded());
            w.array("spans", &spans, write_span);
            w.array("slow", &slow, write_span);
        })
    }

    /// `log.read`: the most recent diagnostic events (newest first),
    /// optionally filtered by minimum level and subsystem.
    pub(crate) fn log_read(
        &self,
        limit: Option<u64>,
        level: Option<&str>,
        subsystem: Option<&str>,
        reply: Reply<'_>,
    ) -> Result<(), ServeError> {
        let min_level = match level {
            Some(name) => Level::parse(name).ok_or_else(|| {
                ErrorCode::BadRequest.error(format!(
                    "unknown level `{name}` (debug | info | warn | error)"
                ))
            })?,
            None => Level::Debug,
        };
        let subsystem = match subsystem {
            Some(name) => Some(Subsystem::parse(name).ok_or_else(|| {
                ErrorCode::BadRequest.error(format!(
                    "unknown subsystem `{name}` \
                     (server | net | journal | replication | health | config | admission)"
                ))
            })?),
            None => None,
        };
        let limit = limit.unwrap_or(64).min(4096) as usize;
        let sink = &self.inner.diag;
        let ring = sink.ring();
        let events = ring.recent_events(limit, min_level, subsystem);
        reply.send(|w| {
            w.field("enabled", ring.enabled());
            w.field("recorded", ring.recorded());
            w.field("emitted", sink.emitted());
            w.field("suppressed", sink.suppressed());
            w.array("events", &events, |w, e| {
                w.begin_obj();
                w.field("seq", e.seq);
                w.field("unix_ms", e.unix_ms);
                w.field("level", e.level.as_str());
                w.field("subsystem", e.subsystem.as_str());
                w.field("message", &e.message);
                w.end_obj();
            });
        })
    }

    /// `metrics.history`: the retained time-series window, oldest
    /// sample first — consumers diff consecutive samples into rates.
    pub(crate) fn metrics_history(
        &self,
        limit: Option<u64>,
        reply: Reply<'_>,
    ) -> Result<(), ServeError> {
        let limit = limit.unwrap_or(120).min(600) as usize;
        let samples = self.inner.timeseries.history(limit);
        let retained = self.inner.timeseries.len();
        reply.send(|w| {
            w.field("retained", retained);
            w.array("samples", &samples, |w, sample| sample.write(w));
        })
    }

    /// `cluster.status`: this node's status document plus — unless the
    /// request says `fanout: false` — one per known peer, fetched with
    /// a short non-retrying dial so one dead peer cannot stall the
    /// answer. A primary fans out to its follower registry. A follower
    /// asks its primary, whose document lists every follower the
    /// primary has seen, then dials its siblings from that list — so
    /// one request to *any* member reaches the whole group. Peers are
    /// always asked with `fanout: false`, so the fan-out never recurses.
    pub(crate) fn cluster_status(&self, fanout: bool, reply: Reply<'_>) -> Result<(), ServeError> {
        let repl = &self.inner.replication;
        let mut own = String::new();
        self.node_status(&mut JsonWriter::new(&mut own));
        let fetch = |addr: String| {
            let doc = self.peer_status(&addr);
            (addr, doc)
        };
        let mut peers = Vec::new();
        if fanout {
            match self.role() {
                Role::Primary => peers.extend(self.peer_addrs().into_iter().map(fetch)),
                Role::Follower { primary } => {
                    let (primary, doc) = fetch(primary);
                    let me = self.inner.config.advertise.as_deref();
                    let followers = doc.as_ref().ok().and_then(|doc| doc.get("followers"));
                    let mut siblings: Vec<String> = followers
                        .and_then(Json::as_obj)
                        .unwrap_or(&[])
                        .iter()
                        .map(|(name, _)| name.clone())
                        .filter(|name| Some(name.as_str()) != me)
                        .collect();
                    siblings.sort();
                    peers.push((primary, doc));
                    peers.extend(siblings.into_iter().map(fetch));
                }
            }
        }
        reply.send(|w| {
            w.field("cluster_size", repl.cluster);
            w.field("quorum", repl.quorum());
            w.key("nodes");
            w.begin_arr();
            w.raw(&own);
            for (addr, doc) in &peers {
                write_peer_status(w, addr, doc);
            }
            w.end_arr();
        })
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
    fn node_status(&self, w: &mut JsonWriter<'_>) {
        let report = self.probe_health();
        let role = self.role();
        let snapshot = self.metrics();
        let rate = self.inner.timeseries.request_rate(&snapshot);
        let epoch = self.storage().map_or(0, Storage::epoch);
        w.begin_obj();
        let addr = self.inner.config.advertise.as_deref();
        w.field("addr", addr.unwrap_or("local"));
        w.field("ok", true);
        w.field("role", role.name());
        w.field("epoch", epoch);
        w.field("live", report.live);
        w.field("ready", report.ready);
        w.field("degraded", self.is_degraded());
        w.array("causes", &report.causes, |w, cause| w.str_val(cause));
        w.field("lag_seconds", report.lag_seconds);
        w.field("requests", snapshot.requests);
        w.field("req_per_sec", rate);
        w.field("sessions", self.live_sessions());
        if let Role::Follower { primary } = &role {
            w.field("primary", primary);
        }
        if matches!(role, Role::Primary) {
            let lags = self.follower_lags();
            if !lags.is_empty() {
                w.key("followers");
                w.begin_obj();
                for lag in &lags {
                    w.data_key(&lag.name);
                    w.begin_obj();
                    lag.write_fields(w);
                    w.end_obj();
                }
                w.end_obj();
            }
        }
        w.end_obj();
    }

    /// Fetch one peer's self-view for the fan-out; why not, when it
    /// cannot be had.
    fn peer_status(&self, addr: &str) -> Result<Json, ServeError> {
        let policy = RetryPolicy {
            retries: 0,
            request_timeout: Some(Duration::from_millis(
                self.inner.peer_timeout_ms.load(Ordering::Relaxed).max(1),
            )),
            ..RetryPolicy::default()
        };
        let mut client = Client::connect_with(addr, policy)?;
        let response = client.request(&Request::ClusterStatus { fanout: false })?;
        response
            .get("nodes")
            .and_then(Json::as_arr)
            .and_then(|nodes| nodes.first())
            .cloned()
            .ok_or_else(|| ErrorCode::Internal.error("malformed cluster.status reply"))
    }

    /// `config.set`: apply a runtime tunable and journal it, so the
    /// setting survives restart and propagates to followers through
    /// the replication stream.
    pub(crate) fn config_set(
        &self,
        key: &str,
        value: u64,
        reply: Reply<'_>,
    ) -> Result<(), ServeError> {
        let seq = self.with_gate(|| -> Result<Option<u64>, ServeError> {
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
        reply.send(|w| {
            w.field("key", key);
            w.field("value", value);
        })
    }

    /// Apply one runtime tunable — the shared core of the live
    /// `config.set` op and journal replay (boot recovery, follower
    /// tail).
    pub(crate) fn apply_config_set(&self, key: &str, value: u64) -> Result<(), ServeError> {
        match key {
            "slow_ms" => self
                .inner
                .trace
                .set_slow_ns(value.saturating_mul(1_000_000)),
            // Resizing discards the ring's contents, so a replayed or
            // repeated set of the current size must be a no-op — the
            // size the ring rounds the value to, not the value.
            "trace_buffer" => {
                if self.inner.trace.capacity() != slots_for(value as usize) {
                    self.inner.trace.resize(value as usize);
                }
            }
            "diag_buffer" => {
                if self.inner.diag.capacity() != slots_for(value as usize) {
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
                return Err(ErrorCode::BadRequest.error(format!(
                    "unknown config key `{other}` \
                     (slow_ms | trace_buffer | diag_buffer | peer_timeout_ms)"
                )))
            }
        }
        Ok(())
    }
}

/// Write one peer's `cluster.status` document. The registry key we
/// dialed is authoritative for the address column (a peer without
/// `--advertise` reports the "local" placeholder); an unreachable peer
/// becomes an `ok: false` document — the fields of an error line,
/// after its address — instead of an error.
fn write_peer_status(w: &mut JsonWriter<'_>, addr: &str, doc: &Result<Json, ServeError>) {
    match doc {
        Ok(doc) => match doc.as_obj() {
            Some(fields) => {
                w.begin_obj();
                for (key, value) in fields {
                    w.data_key(key);
                    if key == "addr" {
                        w.str_val(addr);
                    } else {
                        w.json(value);
                    }
                }
                w.end_obj();
            }
            None => w.json(doc),
        },
        Err(error) => {
            w.begin_obj();
            w.field("addr", addr);
            error.write(w);
            w.end_obj();
        }
    }
}

/// One trace span as wire JSON. The trace id rides as a decimal string
/// so 64-bit hashed ids survive f64-only JSON consumers exactly.
fn write_span(w: &mut JsonWriter<'_>, span: &Span) {
    let op = ops::classes().nth(span.op);
    w.begin_obj();
    w.field("trace", &span.trace_id.to_string());
    w.field("synthetic", span.synthetic_id());
    w.field("op", op.map_or(ops::OTHER.name, |op| op.name));
    w.field("total_ns", span.total_ns);
    w.field("parse_ns", span.parse_ns);
    w.field("dispatch_ns", span.dispatch_ns);
    w.field("engine_ns", span.engine_ns);
    w.field("fsync_ns", span.fsync_ns);
    w.field("quorum_ns", span.quorum_ns);
    w.field("serialize_ns", span.serialize_ns);
    w.field("queue_ns", span.queue_ns);
    w.field("fixpoint_runs", span.stats.fixpoint_runs);
    w.field("rule_attempts", span.stats.rule_attempts);
    w.field("master_lookups", span.stats.master_lookups);
    w.field("index_probes", span.stats.index_probes);
    w.end_obj();
}

/// Write one audit record of the `audit.read` reply.
fn write_audit_record(
    w: &mut JsonWriter<'_>,
    index: u64,
    record: &AuditRecord,
    schema: &SchemaRef,
) {
    w.begin_obj();
    w.field("index", index);
    w.field("tuple", record.tuple_id);
    if record.attr < schema.arity() {
        w.field("attr", schema.attr_name(record.attr));
    } else {
        w.field("attr", record.attr);
    }
    w.field("round", record.round);
    match &record.event {
        CellEvent::UserValidated { old, new } => {
            w.field("kind", "user_validated");
            w.field("old", old);
            w.field("new", new);
        }
        CellEvent::RuleFixed {
            rule,
            master_row,
            old,
            new,
        } => {
            w.field("kind", "rule_fixed");
            w.field("rule", *rule);
            w.field("master_row", *master_row);
            w.field("old", old);
            w.field("new", new);
        }
        CellEvent::RuleConfirmed { rule } => {
            w.field("kind", "rule_confirmed");
            // `usize::MAX` marks "some rule" (the fixpoint report does
            // not retain which); written as null rather than 2^64.
            if *rule != usize::MAX {
                w.field("rule", *rule);
            } else {
                w.field("rule", &Value::Null);
            }
        }
    }
    w.end_obj();
}
