//! The typed request layer of the wire protocol.
//!
//! Every protocol exchange is one JSON object per line. Requests carry
//! an `"op"` discriminator; responses carry `"ok": true` plus op-specific
//! fields, or `"ok": false` with an `"error"` string. The full field
//! reference lives in the repository README ("cerfix-server protocol").
//!
//! This module holds the one request parser. `scan_line` is its one
//! pass over a line's bytes: the [`wire::scan`](crate::wire::scan) lexer
//! validates the line while the pass resolves the op's table row, keeps
//! the `id` span and `deadline_ms`, and files every field an op may
//! read, still borrowed, into a `Fields` view — nothing allocated, so
//! the service can refuse a request (deadline, shedding) before any of
//! it is materialised. `Request::parse` then reads an op's fields off
//! that view into the typed [`Request`]; a line that is not JSON never
//! gets that far — its `ScannedLine` carries the lexer's error. The
//! client-side encoder lives here too. Responses are written by the
//! service (they are write-only on the server side) and picked apart
//! field-wise by the [`Client`](crate::Client).

use crate::ops::{self, Op, OpId};
use crate::wire::scan::{self, ObjectScanner, RawValue};
use crate::wire::{Json, WireError};
use cerfix::FixpointScratch;
use cerfix_relation::Value;
use cerfix_storage::CursorRead;

/// Reusable per-connection scratch, threaded through
/// [`CleaningService::handle_line_into`](crate::CleaningService::handle_line_into):
/// the resolved-validation and string-unescape buffers a request is read
/// into, the buffers the correcting process runs on, and those a
/// follower's `replica.sync` is held and served on, so the warmed
/// request path performs no steady-state allocations. Journal replay —
/// boot recovery and a follower's tail — runs its validations on one too.
#[derive(Debug, Default)]
pub struct RequestScratch {
    /// The `(attribute id, value)` validations of the
    /// `session.validate` being served, resolved against the schema as
    /// they are read off the line (or widened off a replayed event).
    pub(crate) validations: Vec<(usize, Value)>,
    /// Unescape buffer for string payloads containing escapes.
    pub(crate) unescape: String,
    /// The correcting process's report, key and worklist buffers.
    pub(crate) fixpoint: FixpointScratch,
    /// The journal frames a `replica.sync` is served from.
    pub(crate) served: CursorRead,
}

/// Declares [`Field`] — every top-level field some op reads — from one
/// list of wire names, so the enum, its names and the name match cannot
/// disagree. A field not named here is tolerated and ignored, on every
/// op.
macro_rules! field_table {
    ($($field:ident = $name:literal,)*) => {
        /// A field's identity: its slot in [`Fields`].
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub(crate) enum Field { $($field),* }

        impl Field {
            const NAMES: &'static [&'static str] = &[$($name),*];

            /// The field a top-level key names.
            fn named(key: &str) -> Option<Field> {
                match key {
                    $($name => Some(Field::$field),)*
                    _ => None,
                }
            }
        }
    };
}

field_table! {
    Op = "op",
    Session = "session",
    Validations = "validations",
    Tuple = "tuple",
    Tuples = "tuples",
    Trust = "trust",
    TopK = "top_k",
    Mode = "mode",
    Start = "start",
    Count = "count",
    Rules = "rules",
    Limit = "limit",
    Follower = "follower",
    Epoch = "epoch",
    Offset = "offset",
    Max = "max",
    Resync = "resync",
    WaitMs = "wait_ms",
    Level = "level",
    Subsystem = "subsystem",
    Fanout = "fanout",
    Key = "key",
    Value = "value",
    // Read for every op, ahead of its own fields.
    DeadlineMs = "deadline_ms",
}

impl Field {
    fn name(self) -> &'static str {
        Field::NAMES[self as usize]
    }
}

/// The top-level fields of one request line, still borrowed from it: a
/// slot per [`Field`], filled by the first occurrence of its key.
#[derive(Debug, Default)]
pub(crate) struct Fields<'a>([Option<RawValue<'a>>; Field::NAMES.len()]);

impl<'a> Fields<'a> {
    fn get(&self, field: Field) -> Option<RawValue<'a>> {
        self.0[field as usize]
    }

    fn need(&self, field: Field) -> Result<RawValue<'a>, WireError> {
        self.get(field)
            .ok_or_else(|| WireError(format!("missing field `{}`", field.name())))
    }

    /// A field the op cannot do without, read through `read`
    /// (`RawValue::as_u64`, …): an ill-typed value is an error naming
    /// what the field must be.
    fn typed<T>(
        &self,
        field: Field,
        read: impl FnOnce(RawValue<'a>) -> Option<T>,
        must_be: &str,
    ) -> Result<T, WireError> {
        read(self.need(field)?)
            .ok_or_else(|| WireError(format!("`{}` must be {must_be}", field.name())))
    }

    /// An optional field: absent is `None`, present but ill-typed an
    /// error.
    fn opt<T>(
        &self,
        field: Field,
        read: impl FnOnce(RawValue<'a>) -> Option<T>,
        must_be: &str,
    ) -> Result<Option<T>, WireError> {
        if self.get(field).is_none() {
            return Ok(None);
        }
        self.typed(field, read, must_be).map(Some)
    }

    fn need_u64(&self, field: Field) -> Result<u64, WireError> {
        self.typed(field, |v| v.as_u64(), "a non-negative integer")
    }

    fn opt_u64(&self, field: Field) -> Result<Option<u64>, WireError> {
        self.opt(field, |v| v.as_u64(), "a non-negative integer")
    }

    fn opt_bool(&self, field: Field) -> Result<Option<bool>, WireError> {
        self.opt(field, |v| v.as_bool(), "a boolean")
    }

    fn need_str(&self, field: Field, must_be: &str, buf: &mut String) -> Result<String, WireError> {
        self.typed(field, |v| v.as_str(buf).map(str::to_string), must_be)
    }

    fn opt_str(&self, field: Field, buf: &mut String) -> Result<Option<String>, WireError> {
        self.opt(field, |v| v.as_str(buf).map(str::to_string), "a string")
    }

    /// The fields of a `replica.sync`, the follower's name left borrowed
    /// from the line (or from `buf`, when it is spelled with escapes) —
    /// the one reader of them, for [`Request::parse`] and for a front end
    /// keeping a held sync in buffers of its own.
    pub(crate) fn replica_sync<'b>(&self, buf: &'b mut String) -> Result<SyncFields<'b>, WireError>
    where
        'a: 'b,
    {
        Ok(SyncFields {
            follower: self.typed(Field::Follower, |v| v.as_str(buf), "a string id")?,
            epoch: self.need_u64(Field::Epoch)?,
            offset: self.need_u64(Field::Offset)?,
            max: self.opt_u64(Field::Max)?,
            // Absent on the wire from pre-v7 followers.
            resync: self.opt_bool(Field::Resync)?.unwrap_or(false),
            wait_ms: self.opt_u64(Field::WaitMs)?,
        })
    }

    /// The op the line's `op` field names.
    pub(crate) fn op_id(&self, buf: &mut String) -> Result<OpId, WireError> {
        let name = self.need_str(Field::Op, "a string", buf)?;
        ops::lookup(&name).ok_or_else(|| WireError(format!("unknown op `{name}`")))
    }

    /// The one reader of a `validations` object: each `(attribute name,
    /// asserted value)` pair goes to `each` as it is read — the service
    /// resolves the name against its schema into [`RequestScratch`],
    /// [`Request::parse_line`] keeps it for the owned form.
    pub(crate) fn validations<E: From<WireError>>(
        &self,
        buf: &mut String,
        mut each: impl FnMut(&str, Value) -> Result<(), E>,
    ) -> Result<(), E> {
        let fields = self.need(Field::Validations)?.as_obj();
        let mut fields = fields
            .ok_or_else(|| WireError("`validations` must be an object of attr → value".into()))?;
        while let Some((name, value, _)) = fields.next_field() {
            let value = value.to_value(buf)?;
            each(name.unescape_into(buf), value)?;
        }
        Ok(())
    }
}

/// The fields of a `replica.sync` ([`Request::ReplicaSync`]), read in
/// place.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SyncFields<'b> {
    pub(crate) follower: &'b str,
    pub(crate) epoch: u64,
    pub(crate) offset: u64,
    pub(crate) max: Option<u64>,
    pub(crate) resync: bool,
    pub(crate) wait_ms: Option<u64>,
}

/// What the one pass over a request line found.
#[derive(Debug, Default)]
pub(crate) struct ScannedLine<'a> {
    /// Why the line is not JSON, when it is not. Nothing else is set
    /// then: a span of a malformed line cannot be trusted.
    pub(crate) syntax: Option<WireError>,
    /// Raw span of a client-supplied `id` field, echoed in the response
    /// byte for byte — safe, because the lexer validated it.
    pub(crate) id: Option<&'a str>,
    /// The row the `op` string names ([`ops::OTHER`] for a name not in
    /// the table; `None` for an `op` that is absent or not a string). It
    /// feeds the admission shedder, the front end's look at whether the
    /// line waits, and the latency class before any field is
    /// materialised.
    pub(crate) op: Option<&'static Op>,
    /// Every field an op may read.
    pub(crate) fields: Fields<'a>,
}

impl ScannedLine<'_> {
    /// Does the `op` string name this op?
    pub(crate) fn is(&self, id: OpId) -> bool {
        self.op.is_some_and(|op| op.id == Some(id))
    }

    /// Client request deadline in milliseconds from receipt. A value
    /// that does not read as `u64` is treated as absent, like a field
    /// no op reads.
    pub(crate) fn deadline_ms(&self) -> Option<u64> {
        self.fields.get(Field::DeadlineMs)?.as_u64()
    }
}

/// The single pass over a request line, lexing and validating as it
/// goes; allocation-free unless a key or the `op` name is spelled with
/// escapes. The first occurrence of a key wins.
///
/// Inlined, so that the view — some 600 bytes — is filled where the
/// caller keeps it instead of being copied there (a `session.get`
/// through `handle_line_into`: 780 → 650 ns).
#[inline(always)]
pub(crate) fn scan_line(line: &str) -> ScannedLine<'_> {
    let mut scanned = ScannedLine::default();
    if let Err(error) = scan_into(line, &mut scanned) {
        // Nothing of a malformed line is kept, only why it is one.
        scanned = ScannedLine::default();
        scanned.syntax = Some(error);
    }
    scanned
}

fn scan_into<'a>(line: &'a str, scanned: &mut ScannedLine<'a>) -> Result<(), WireError> {
    let mut unescape = String::new();
    let Some(mut scanner) = ObjectScanner::new(line) else {
        // Not an object: not JSON at all, or JSON with no `op` to read.
        return scan::validate(line);
    };
    while let Some((key, value, span)) = scanner.next_field() {
        match key.unescape_into(&mut unescape) {
            "id" if scanned.id.is_none() => scanned.id = Some(span),
            key => {
                if let Some(field) = Field::named(key) {
                    scanned.fields.0[field as usize].get_or_insert(value);
                }
            }
        }
    }
    scanner.finish()?;
    if let Some(RawValue::Str(name)) = scanned.fields.get(Field::Op) {
        let name = name.unescape_into(&mut unescape);
        scanned.op = Some(ops::lookup(name).map_or(&ops::OTHER, OpId::row));
    }
    Ok(())
}

/// Protocol revision, reported by `hello` and checked by clients.
/// Version 2 added `audit.read`, `rules.reload` and the `stats` alias
/// for `metrics`; version 3 added `master.append` (append rows to the
/// master repository with delta re-certification of cached regions);
/// version 4 added the observability surface — `trace.read` (recent and
/// slow request spans) and `metrics.prom` (Prometheus text exposition)
/// — plus `version`/`uptime_secs` fields on `hello` and `stats`;
/// version 5 added replication — `replica.sync` (tail the primary's
/// journal from an `(epoch, offset)` cursor; the cursor doubles as the
/// follower's durability ack) and `replica.promote` (fence the old
/// primary behind an epoch bump and start serving writes) — plus
/// `role`/`epoch`/`primary` fields on `hello` and the `not_primary` /
/// `stale_epoch` error contract on follower mutations;
/// version 6 added the cluster observability surface — `health`
/// (liveness/readiness probe with causes), `log.read` (the structured
/// diagnostic ring, filterable by level/subsystem), `metrics.history`
/// (the in-process metric time-series ring, for server-side rates),
/// `cluster.status` (one federated per-node role/epoch/health/lag/rate
/// document, fanned out to known peers) and `config.set` (journaled
/// runtime tuning of `slow_ms` and the trace/diag ring sizes);
/// version 7 added the storage fault-tolerance surface — `scrub` (walk
/// the data directory's durable files verifying every checksum, torn
/// tails distinguished from corruption) and the `resync` flag on
/// `replica.sync` (a follower whose journal is poisoned or corrupt
/// demands a fresh snapshot instead of an incremental batch) — plus the
/// `degraded: disk_full` / `storage_error` error contract on mutations;
/// version 8 added the overload-protection surface — an optional
/// `deadline_ms` field on every request (expired work is shed with a
/// `deadline_exceeded` error before any engine or fsync cost is paid),
/// the `overloaded` / `draining` retryable error contract from the
/// priority-class admission shedder, `server.drain` (stop accepting,
/// finish in-flight work within a bound, final snapshot, clean exit)
/// and the `peer_timeout_ms` key on `config.set`;
/// version 9 made `replica.sync` a long poll — an optional `wait_ms`
/// field: a primary with nothing durable past the cursor keeps the
/// request (up to that long) until there is, instead of answering an
/// empty batch at once;
/// version 10 gave every `ok:false` reply a `code` field — a row of the
/// error table in `errors.rs` — and a follower's `not_primary` a
/// `redirect` field; `error` keeps its text, so a v9 peer reads a v10
/// refusal as it always did;
/// version 11 dropped the fields of the master-delta re-check a master
/// append no longer runs — `regions_patched` and `regions_recertified`
/// from `master.append`, `recertified` from `regions`, and `recertified`
/// and `candidates_reused` from `metrics.region_search` (an append
/// searches the grown master again).
pub const PROTOCOL_VERSION: u64 = 11;

/// A parsed protocol request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Service / protocol identification.
    Hello,
    /// Open a session for one input tuple.
    SessionCreate {
        /// Cell values, in schema order.
        tuple: Vec<Value>,
    },
    /// Re-read a session's state (also how a reconnecting client
    /// re-attaches to a session created on another connection).
    SessionGet {
        /// Server-assigned session id.
        session: u64,
    },
    /// Assert attribute values as true, then run the correcting process.
    SessionValidate {
        /// Server-assigned session id.
        session: u64,
        /// `(attribute name, asserted value)` pairs.
        validations: Vec<(String, Value)>,
    },
    /// Run the correcting process without new assertions.
    SessionFix {
        /// Server-assigned session id.
        session: u64,
    },
    /// Close the session, returning the final tuple.
    SessionCommit {
        /// Server-assigned session id.
        session: u64,
    },
    /// Discard the session.
    SessionAbort {
        /// Server-assigned session id.
        session: u64,
    },
    /// Batch-clean tuples, trusting the named columns (a long batch is
    /// fanned across up to `workers` threads; outcomes come back in
    /// input order).
    Clean {
        /// Input tuples, each in schema order.
        tuples: Vec<Vec<Value>>,
        /// Column names taken as validated per tuple.
        trust: Vec<String>,
    },
    /// Top-k certain regions (served from the installed state's search).
    Regions {
        /// Override the service's default k.
        top_k: Option<usize>,
    },
    /// Rule-set consistency verdict (cached).
    Check {
        /// `"strict"` (default) or `"entity-coherent"`.
        mode: Option<String>,
    },
    /// Ranged read of cell-level audit provenance records (served from
    /// the in-memory window and the disk spill). Clients page through
    /// history by advancing `start`.
    AuditRead {
        /// Global record index to start at (append order, 0-based).
        start: u64,
        /// Maximum records to return (server-capped).
        count: Option<u64>,
    },
    /// Atomically swap the active rule set for one parsed from DSL
    /// text. Journaled, so recovery replays later events against the
    /// right rules.
    RulesReload {
        /// Editing-rule DSL (same syntax as `--rules` files).
        rules: String,
    },
    /// Append rows to the master repository. The engine recompiles
    /// against the new generation, searching pre-computed regions again.
    /// Journaled.
    MasterAppend {
        /// Rows to append, each in master-schema order.
        tuples: Vec<Vec<Value>>,
    },
    /// Service counters.
    Metrics,
    /// Every counter, gauge and full latency histogram in Prometheus
    /// text exposition format (returned as the `body` string field of a
    /// normal one-line JSON response).
    MetricsProm,
    /// Recent request spans and the slow-request log from the trace
    /// ring: per-stage timings and engine-stat deltas, correlated to
    /// client request ids.
    TraceRead {
        /// Maximum spans to return from each ring (server-capped).
        limit: Option<u64>,
    },
    /// Pull a batch of journal events from an `(epoch, offset)` cursor —
    /// the follower side of journal-tailing replication. The cursor is
    /// the follower's *durable* position, so each request also acks
    /// everything before it (quorum-ack commits count these cursors).
    ReplicaSync {
        /// Stable follower identity (its listen address), keyed in the
        /// primary's follower registry.
        follower: String,
        /// Cursor epoch: the snapshot epoch of the follower's journal.
        epoch: u64,
        /// Cursor offset: durable events applied within that epoch.
        offset: u64,
        /// Maximum events to return (server-capped).
        max: Option<u64>,
        /// Demand a fresh snapshot instead of an incremental batch —
        /// sent by a follower whose journal is poisoned (fsync failure)
        /// or corrupt, repairing itself from the primary's state.
        resync: bool,
        /// Long poll: with nothing durable past the cursor, keep the
        /// request up to this many milliseconds — until there is, or
        /// the epoch changes — instead of answering an empty batch at
        /// once. Absent (pre-v9 followers): answer at once.
        wait_ms: Option<u64>,
    },
    /// Promote this (follower) node to primary: bump the snapshot epoch
    /// so the old primary's stale-epoch stream is fenced off, stop
    /// tailing, and start accepting session mutations.
    ReplicaPromote,
    /// Liveness/readiness probe: alive/ready booleans computed from
    /// real signals (journal flusher, fsync latency, the shed level and
    /// the requests in flight behind it, replication lag, epoch
    /// fencing), with the failing causes named.
    Health,
    /// Read recent events from the structured diagnostic log ring,
    /// newest first.
    LogRead {
        /// Maximum events to return (server-capped).
        limit: Option<u64>,
        /// Minimum severity (`debug`/`info`/`warn`/`error`).
        level: Option<String>,
        /// Only events from one subsystem (`server`/`net`/`journal`/
        /// `replication`/`health`/`config`).
        subsystem: Option<String>,
    },
    /// Read the in-process metric time-series ring: periodic counter
    /// snapshots from which rates (req/s, fsync/s, lag trend) are
    /// computable without external scrape infrastructure.
    MetricsHistory {
        /// Maximum samples to return, newest last (server-capped).
        limit: Option<u64>,
    },
    /// Federated cluster view: this node's role/epoch/health/lag/rates
    /// plus (unless `fanout` is false) the same document fetched from
    /// every known peer — the primary's registered followers or the
    /// follower's primary.
    ClusterStatus {
        /// Fan out to peers (default true; inner fan-out requests set
        /// it false so federation stays one level deep).
        fanout: bool,
    },
    /// Set a runtime-tunable configuration knob (`slow_ms`,
    /// `trace_buffer`, `diag_buffer`). Journaled, so the setting
    /// survives restart.
    ConfigSet {
        /// Knob name.
        key: String,
        /// New value (non-negative integer; milliseconds or slots).
        value: u64,
    },
    /// Walk the data directory's durable files (journal, snapshot,
    /// audit segment) verifying every checksum online. Torn tails are
    /// legal crash residue; complete frames failing their CRC are
    /// reported as typed corruption entries.
    Scrub,
    /// Graceful drain: stop accepting connections, refuse new sessions
    /// with a `draining` error, let in-flight sessions finish (or hand
    /// off) within a bound, then take a final snapshot and exit clean —
    /// the rolling-restart primitive that drops zero acked work.
    Drain {
        /// Override the default in-flight hand-off bound, in ms.
        wait_ms: Option<u64>,
    },
    /// Ask the server process to stop accepting connections.
    Shutdown,
}

/// Read an array of cell values — a string cell of more than 22 bytes
/// allocates its shared text, a shorter one nothing — and the `Vec`
/// allocated once, at the count a first pass over the cells
/// takes (lexing allocates nothing), so a tuple built from it keeps that
/// allocation.
fn values_array(
    value: RawValue<'_>,
    what: &str,
    buf: &mut String,
) -> Result<Vec<Value>, WireError> {
    let cells = value.as_arr();
    let mut cells =
        cells.ok_or_else(|| WireError(format!("`{what}` must be an array of cell values")))?;
    let mut ahead = cells.clone();
    let mut values = Vec::with_capacity(std::iter::from_fn(|| ahead.next_value()).count());
    while let Some(cell) = cells.next_value() {
        values.push(cell.to_value(buf)?);
    }
    Ok(values)
}

/// Read the rows of `tuples`, each walked in place by the rows' own
/// scanner. A row's `Vec` is allocated once, at its first cell: at the
/// length of the row before it, since the rows of one batch are as long
/// as each other — the first row (or one after an empty row) is counted
/// ahead, on a copy of the scanner.
fn tuples_array(fields: &Fields<'_>, buf: &mut String) -> Result<Vec<Vec<Value>>, WireError> {
    let rows = fields.need(Field::Tuples)?.as_arr();
    let mut rows = rows.ok_or_else(|| WireError("`tuples` must be an array".into()))?;
    let mut tuples: Vec<Vec<Value>> = Vec::new();
    loop {
        let arity = match tuples.last().map_or(0, Vec::len) {
            0 => {
                let mut cells = 0;
                rows.clone().next_array(|_| {
                    cells += 1;
                    Ok::<(), WireError>(())
                });
                cells
            }
            arity => arity,
        };
        let mut values: Vec<Value> = Vec::new();
        let row = rows.next_array(|cell| {
            if values.capacity() == 0 {
                values.reserve_exact(arity);
            }
            values.push(cell.to_value(buf)?);
            Ok(())
        });
        match row {
            None => return Ok(tuples),
            Some(Ok(true)) => tuples.push(values),
            Some(Ok(false)) => {
                return Err(WireError(
                    "`tuples[i]` must be an array of cell values".into(),
                ))
            }
            Some(Err(error)) => return Err(error),
        }
    }
}

fn string_array(
    value: RawValue<'_>,
    what: &str,
    buf: &mut String,
) -> Result<Vec<String>, WireError> {
    let items = value.as_arr();
    let mut items =
        items.ok_or_else(|| WireError(format!("`{what}` must be an array of strings")))?;
    let mut strings = Vec::new();
    while let Some(item) = items.next_value() {
        let item = item.as_str(buf);
        strings.push(
            item.ok_or_else(|| WireError(format!("`{what}` entries must be strings")))?
                .to_string(),
        );
    }
    Ok(strings)
}

impl Request {
    /// This request's row in the op table.
    pub(crate) fn op(&self) -> &'static Op {
        match self {
            Request::Hello => OpId::Hello,
            Request::SessionCreate { .. } => OpId::SessionCreate,
            Request::SessionGet { .. } => OpId::SessionGet,
            Request::SessionValidate { .. } => OpId::SessionValidate,
            Request::SessionFix { .. } => OpId::SessionFix,
            Request::SessionCommit { .. } => OpId::SessionCommit,
            Request::SessionAbort { .. } => OpId::SessionAbort,
            Request::Clean { .. } => OpId::Clean,
            Request::Regions { .. } => OpId::Regions,
            Request::Check { .. } => OpId::Check,
            Request::AuditRead { .. } => OpId::AuditRead,
            Request::RulesReload { .. } => OpId::RulesReload,
            Request::MasterAppend { .. } => OpId::MasterAppend,
            Request::Metrics => OpId::Metrics,
            Request::MetricsProm => OpId::MetricsProm,
            Request::TraceRead { .. } => OpId::TraceRead,
            Request::ReplicaSync { .. } => OpId::ReplicaSync,
            Request::ReplicaPromote => OpId::ReplicaPromote,
            Request::Health => OpId::Health,
            Request::LogRead { .. } => OpId::LogRead,
            Request::MetricsHistory { .. } => OpId::MetricsHistory,
            Request::ClusterStatus { .. } => OpId::ClusterStatus,
            Request::ConfigSet { .. } => OpId::ConfigSet,
            Request::Scrub => OpId::Scrub,
            Request::Drain { .. } => OpId::Drain,
            Request::Shutdown => OpId::Shutdown,
        }
        .row()
    }

    /// Parse one protocol line into the owned form.
    pub fn parse_line(line: &str) -> Result<Request, WireError> {
        let scanned = scan_line(line);
        if let Some(error) = scanned.syntax {
            return Err(error);
        }
        let buf = &mut String::new();
        let id = scanned.fields.op_id(buf)?;
        let mut request = Request::parse(id, &scanned.fields, buf)?;
        if let Request::SessionValidate { validations, .. } = &mut request {
            scanned.fields.validations(buf, |name, value| {
                validations.push((name.to_string(), value));
                Ok::<(), WireError>(())
            })?;
        }
        Ok(request)
    }

    /// Read op `id`'s fields off a scanned line; `buf` unescapes the
    /// strings that need it. The `validations` of a `session.validate`
    /// stay on the view (the variant's own list comes back empty): the
    /// names in them mean something only against a schema, so whoever
    /// wants them reads them through [`Fields::validations`] into the
    /// form it needs — [`parse_line`](Self::parse_line) into the owned
    /// pairs, the service into [`RequestScratch`], resolved.
    pub(crate) fn parse(
        id: OpId,
        fields: &Fields<'_>,
        buf: &mut String,
    ) -> Result<Request, WireError> {
        Ok(match id {
            OpId::Hello => Request::Hello,
            OpId::SessionCreate => Request::SessionCreate {
                tuple: values_array(fields.need(Field::Tuple)?, "tuple", buf)?,
            },
            OpId::SessionGet => Request::SessionGet {
                session: fields.need_u64(Field::Session)?,
            },
            OpId::SessionValidate => Request::SessionValidate {
                session: fields.need_u64(Field::Session)?,
                validations: Vec::new(),
            },
            OpId::SessionFix => Request::SessionFix {
                session: fields.need_u64(Field::Session)?,
            },
            OpId::SessionCommit => Request::SessionCommit {
                session: fields.need_u64(Field::Session)?,
            },
            OpId::SessionAbort => Request::SessionAbort {
                session: fields.need_u64(Field::Session)?,
            },
            OpId::Clean => Request::Clean {
                tuples: tuples_array(fields, buf)?,
                trust: match fields.get(Field::Trust) {
                    Some(trust) => string_array(trust, "trust", buf)?,
                    None => Vec::new(),
                },
            },
            OpId::Regions => Request::Regions {
                top_k: fields
                    .opt(Field::TopK, |v| v.as_u64(), "an integer")?
                    .map(|k| k as usize),
            },
            OpId::Check => Request::Check {
                mode: fields
                    .get(Field::Mode)
                    .and_then(|mode| mode.as_str(buf).map(str::to_string)),
            },
            OpId::AuditRead => Request::AuditRead {
                start: fields.opt_u64(Field::Start)?.unwrap_or(0),
                count: fields.opt_u64(Field::Count)?,
            },
            OpId::RulesReload => Request::RulesReload {
                rules: fields.need_str(Field::Rules, "a DSL string", buf)?,
            },
            OpId::MasterAppend => Request::MasterAppend {
                tuples: tuples_array(fields, buf)?,
            },
            OpId::Metrics => Request::Metrics,
            OpId::MetricsProm => Request::MetricsProm,
            OpId::TraceRead => Request::TraceRead {
                limit: fields.opt_u64(Field::Limit)?,
            },
            OpId::ReplicaSync => {
                let sync = fields.replica_sync(buf)?;
                Request::ReplicaSync {
                    follower: sync.follower.to_string(),
                    epoch: sync.epoch,
                    offset: sync.offset,
                    max: sync.max,
                    resync: sync.resync,
                    wait_ms: sync.wait_ms,
                }
            }
            OpId::ReplicaPromote => Request::ReplicaPromote,
            OpId::Health => Request::Health,
            OpId::LogRead => Request::LogRead {
                limit: fields.opt_u64(Field::Limit)?,
                level: fields.opt_str(Field::Level, buf)?,
                subsystem: fields.opt_str(Field::Subsystem, buf)?,
            },
            OpId::MetricsHistory => Request::MetricsHistory {
                limit: fields.opt_u64(Field::Limit)?,
            },
            OpId::ClusterStatus => Request::ClusterStatus {
                fanout: fields.opt_bool(Field::Fanout)?.unwrap_or(true),
            },
            OpId::ConfigSet => Request::ConfigSet {
                key: fields.need_str(Field::Key, "a string", buf)?,
                value: fields.need_u64(Field::Value)?,
            },
            OpId::Scrub => Request::Scrub,
            OpId::Drain => Request::Drain {
                wait_ms: fields.opt_u64(Field::WaitMs)?,
            },
            OpId::Shutdown => Request::Shutdown,
        })
    }

    /// Encode for the wire (used by clients). Optional fields are
    /// written only when set.
    pub fn to_json(&self) -> Json {
        let mut fields: Vec<(String, Json)> = vec![("op".into(), Json::str(self.op().name))];
        let mut put = |key: &str, value: Option<Json>| {
            if let Some(value) = value {
                fields.push((key.into(), value));
            }
        };
        let num = |n: u64| Json::Num(n as f64);
        let text = |s: &String| Json::str(s.clone());
        let cells = |t: &Vec<Value>| Json::Arr(t.iter().map(Json::from_value).collect());
        let rows = |tuples: &[Vec<Value>]| Json::Arr(tuples.iter().map(cells).collect());
        match self {
            Request::Hello
            | Request::Metrics
            | Request::MetricsProm
            | Request::ReplicaPromote
            | Request::Health
            | Request::Scrub
            | Request::Shutdown => {}
            Request::Drain { wait_ms } => put("wait_ms", wait_ms.map(num)),
            Request::LogRead {
                limit,
                level,
                subsystem,
            } => {
                put("limit", limit.map(num));
                put("level", level.as_ref().map(text));
                put("subsystem", subsystem.as_ref().map(text));
            }
            Request::MetricsHistory { limit } | Request::TraceRead { limit } => {
                put("limit", limit.map(num))
            }
            Request::ClusterStatus { fanout } => {
                put("fanout", (!fanout).then_some(Json::Bool(false)))
            }
            Request::ConfigSet { key, value } => {
                put("key", Some(text(key)));
                put("value", Some(num(*value)));
            }
            Request::ReplicaSync {
                follower,
                epoch,
                offset,
                max,
                resync,
                wait_ms,
            } => {
                put("follower", Some(text(follower)));
                put("epoch", Some(num(*epoch)));
                put("offset", Some(num(*offset)));
                put("max", max.map(num));
                // Encoded only when set, so pre-v7 primaries still
                // parse the common case.
                put("resync", resync.then_some(Json::Bool(true)));
                put("wait_ms", wait_ms.map(num));
            }
            Request::SessionCreate { tuple } => put("tuple", Some(cells(tuple))),
            Request::SessionGet { session }
            | Request::SessionFix { session }
            | Request::SessionCommit { session }
            | Request::SessionAbort { session } => put("session", Some(num(*session))),
            Request::SessionValidate {
                session,
                validations,
            } => {
                put("session", Some(num(*session)));
                let validations = validations
                    .iter()
                    .map(|(name, value)| (name.clone(), Json::from_value(value)))
                    .collect();
                put("validations", Some(Json::Obj(validations)));
            }
            Request::Clean { tuples, trust } => {
                put("tuples", Some(rows(tuples)));
                put("trust", Some(Json::Arr(trust.iter().map(text).collect())));
            }
            Request::Regions { top_k } => put("top_k", top_k.map(|k| num(k as u64))),
            Request::Check { mode } => put("mode", mode.as_ref().map(text)),
            Request::AuditRead { start, count } => {
                put("start", Some(num(*start)));
                put("count", count.map(num));
            }
            Request::RulesReload { rules } => put("rules", Some(text(rules))),
            Request::MasterAppend { tuples } => put("tuples", Some(rows(tuples))),
        }
        Json::Obj(fields)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Well-formed requests for op `id`: the first one minimal, the
    /// rest covering its optional fields. Exhaustive, so a new op cannot
    /// skip the table-driven test in `lib.rs` that feeds on it.
    pub(crate) fn samples(id: OpId) -> Vec<Request> {
        match id {
            OpId::Hello => vec![Request::Hello],
            OpId::SessionCreate => vec![Request::SessionCreate {
                tuple: vec![
                    Value::str("a"),
                    Value::Null,
                    Value::Int(3),
                    Value::Bool(true),
                ],
            }],
            OpId::SessionGet => vec![Request::SessionGet { session: 7 }],
            OpId::SessionValidate => vec![Request::SessionValidate {
                session: 7,
                validations: vec![("zip".into(), Value::str("EH8 4AH"))],
            }],
            OpId::SessionFix => vec![Request::SessionFix { session: 7 }],
            OpId::SessionCommit => vec![Request::SessionCommit { session: 9 }],
            OpId::SessionAbort => vec![Request::SessionAbort { session: 9 }],
            // Served on the kv fixture of `lib.rs`: one tuple a rule
            // fixes, one with nothing to trust.
            OpId::Clean => vec![Request::Clean {
                tuples: vec![
                    vec![Value::str("k1"), Value::str("WRONG"), Value::str("x")],
                    vec![Value::Null, Value::str("?"), Value::Null],
                ],
                trust: vec!["key".into(), "note".into()],
            }],
            OpId::Regions => vec![
                Request::Regions { top_k: None },
                Request::Regions { top_k: Some(4) },
            ],
            OpId::Check => vec![
                Request::Check { mode: None },
                Request::Check {
                    mode: Some("strict".into()),
                },
            ],
            OpId::AuditRead => vec![
                Request::AuditRead {
                    start: 0,
                    count: None,
                },
                Request::AuditRead {
                    start: 128,
                    count: Some(64),
                },
            ],
            OpId::RulesReload => vec![Request::RulesReload {
                rules: "er vk: match val=val fix key:=key when ()".into(),
            }],
            OpId::MasterAppend => vec![
                Request::MasterAppend {
                    tuples: vec![vec![Value::str("k100"), Value::str("v100")]],
                },
                Request::MasterAppend {
                    tuples: vec![vec![Value::str("G12"), Value::Null], vec![Value::Int(3)]],
                },
            ],
            OpId::Metrics => vec![Request::Metrics],
            OpId::MetricsProm => vec![Request::MetricsProm],
            OpId::TraceRead => vec![
                Request::TraceRead { limit: None },
                Request::TraceRead { limit: Some(16) },
            ],
            OpId::ReplicaSync => vec![
                Request::ReplicaSync {
                    follower: "b".into(),
                    epoch: 0,
                    offset: 0,
                    max: None,
                    resync: false,
                    wait_ms: None,
                },
                Request::ReplicaSync {
                    follower: "127.0.0.1:9102".into(),
                    epoch: 3,
                    offset: 4096,
                    max: Some(512),
                    resync: true,
                    wait_ms: Some(500),
                },
            ],
            OpId::ReplicaPromote => vec![Request::ReplicaPromote],
            OpId::Health => vec![Request::Health],
            OpId::LogRead => vec![
                Request::LogRead {
                    limit: None,
                    level: None,
                    subsystem: None,
                },
                Request::LogRead {
                    limit: Some(32),
                    level: Some("warn".into()),
                    subsystem: Some("replication".into()),
                },
            ],
            OpId::MetricsHistory => vec![
                Request::MetricsHistory { limit: None },
                Request::MetricsHistory { limit: Some(60) },
            ],
            // No fan-out first: the minimal form must not dial peers.
            OpId::ClusterStatus => vec![
                Request::ClusterStatus { fanout: false },
                Request::ClusterStatus { fanout: true },
            ],
            OpId::ConfigSet => vec![Request::ConfigSet {
                key: "slow_ms".into(),
                value: 250,
            }],
            OpId::Scrub => vec![Request::Scrub],
            OpId::Drain => vec![
                Request::Drain { wait_ms: None },
                Request::Drain { wait_ms: Some(500) },
            ],
            OpId::Shutdown => vec![Request::Shutdown],
        }
    }

    #[test]
    fn replica_sync_optional_fields_default_for_older_followers() {
        assert_eq!(
            Request::parse_line(r#"{"op":"replica.sync","follower":"a","epoch":1,"offset":2}"#)
                .unwrap(),
            Request::ReplicaSync {
                follower: "a".into(),
                epoch: 1,
                offset: 2,
                max: None,
                resync: false,
                wait_ms: None,
            }
        );
    }

    #[test]
    fn cluster_status_fanout_defaults_true() {
        assert_eq!(
            Request::parse_line(r#"{"op":"cluster.status"}"#).unwrap(),
            Request::ClusterStatus { fanout: true }
        );
    }

    #[test]
    fn stats_is_an_alias_for_metrics_and_audit_defaults() {
        assert_eq!(
            Request::parse_line(r#"{"op":"stats"}"#).unwrap(),
            Request::Metrics
        );
        assert_eq!(
            Request::parse_line(r#"{"op":"audit.read"}"#).unwrap(),
            Request::AuditRead {
                start: 0,
                count: None
            }
        );
    }

    #[test]
    fn rejects_malformed_requests() {
        for line in [
            "{}",
            r#"{"op":"warp"}"#,
            r#"{"op":"session.get"}"#,
            r#"{"op":"session.get","session":-1}"#,
            r#"{"op":"session.create"}"#,
            r#"{"op":"session.create","tuple":"no"}"#,
            r#"{"op":"session.validate","session":1,"validations":[1]}"#,
            r#"{"op":"clean","tuples":[{"a":1}]}"#,
            r#"{"op":"regions","top_k":"many"}"#,
            r#"{"op":"audit.read","start":-4}"#,
            r#"{"op":"audit.read","count":"all"}"#,
            r#"{"op":"trace.read","limit":"all"}"#,
            r#"{"op":"trace.read","limit":-1}"#,
            r#"{"op":"rules.reload"}"#,
            r#"{"op":"rules.reload","rules":7}"#,
            r#"{"op":"master.append"}"#,
            r#"{"op":"master.append","tuples":"no"}"#,
            r#"{"op":"master.append","tuples":[7]}"#,
            r#"{"op":"replica.sync"}"#,
            r#"{"op":"replica.sync","follower":7,"epoch":0,"offset":0}"#,
            r#"{"op":"replica.sync","follower":"b","offset":0}"#,
            r#"{"op":"replica.sync","follower":"b","epoch":-1,"offset":0}"#,
            r#"{"op":"replica.sync","follower":"b","epoch":0,"offset":0,"max":"all"}"#,
            r#"{"op":"log.read","limit":"all"}"#,
            r#"{"op":"log.read","level":7}"#,
            r#"{"op":"log.read","subsystem":[]}"#,
            r#"{"op":"metrics.history","limit":-1}"#,
            r#"{"op":"cluster.status","fanout":"yes"}"#,
            r#"{"op":"config.set"}"#,
            r#"{"op":"config.set","key":"slow_ms"}"#,
            r#"{"op":"config.set","key":7,"value":1}"#,
            r#"{"op":"config.set","key":"slow_ms","value":"fast"}"#,
            r#"{"op":"server.drain","wait_ms":"forever"}"#,
            r#"{"op":"server.drain","wait_ms":-1}"#,
            "not json",
        ] {
            assert!(Request::parse_line(line).is_err(), "{line} should fail");
        }
    }

    /// What a scanned line is served from: its op's fields off the
    /// view, in the owned form (`parse_line` is exactly that).
    fn parsed(line: &str) -> Result<Request, String> {
        Request::parse_line(line).map_err(|e| e.0)
    }

    #[test]
    fn scan_line_parses_regular_session_shapes_and_ids() {
        let line = r#"{"op":"session.get","session":7,"id":42}"#;
        let scanned = scan_line(line);
        assert_eq!(scanned.id, Some("42"));
        assert!(scanned.is(OpId::SessionGet));
        assert_eq!(parsed(line), Ok(Request::SessionGet { session: 7 }));

        let line =
            r#"{"id":"x-1","op":"session.validate","session":3,"validations":{"zip":"EH8"}}"#;
        let scanned = scan_line(line);
        assert_eq!(scanned.id, Some("\"x-1\""));
        assert!(scanned.is(OpId::SessionValidate));
        let mut read = Vec::new();
        let each = |name: &str, value| {
            read.push((name.to_string(), value));
            Ok::<(), WireError>(())
        };
        scanned
            .fields
            .validations(&mut String::new(), each)
            .unwrap();
        assert_eq!(read, vec![("zip".to_string(), Value::str("EH8"))]);

        // The row is named whatever the rest of the line holds; what is
        // wrong with the rest is the field reader's to say.
        for (line, error) in [
            (r#"{"op":"session.get"}"#, "missing field `session`"),
            (
                r#"{"op":"session.get","session":-1,"id":9}"#,
                "`session` must be a non-negative integer",
            ),
            (
                r#"{"op":"session.validate","session":1}"#,
                "missing field `validations`",
            ),
            (
                r#"{"op":"session.validate","session":1,"validations":{"key":["k5"]}}"#,
                "cannot use an array as a cell value",
            ),
        ] {
            assert!(
                scan_line(line).op.is_some_and(|op| op.id.is_some()),
                "{line}"
            );
            assert_eq!(parsed(line), Err(error.to_string()), "{line}");
        }
        // Every line's id is kept, whatever its op...
        assert_eq!(
            scan_line(r#"{"op":"clean","tuples":[],"id":9}"#).id,
            Some("9")
        );
        // ...but not a malformed line's: nothing of it is, only why.
        let malformed = scan_line(r#"{"id":5,"op":"#);
        assert_eq!(malformed.id, None);
        assert!(malformed.op.is_none());
        assert_eq!(
            malformed.syntax,
            Some(WireError("unexpected end of input at byte 13".into()))
        );
    }

    /// The first occurrence of a key wins — on the view as on the tree
    /// (`Json::get`), which is what a client reading its own line back
    /// would see. (That a line with duplicate keys is JSON at all is a
    /// row of the conformance table.)
    #[test]
    fn scan_line_first_occurrence_wins_like_tree_get() {
        let line = r#"{"op":"session.get","session":1,"session":2,"id":7,"id":8}"#;
        assert_eq!(parsed(line), Ok(Request::SessionGet { session: 1 }));
        assert_eq!(scan_line(line).id, Some("7"));
        let tree = Json::parse(line).unwrap();
        assert_eq!(tree.get("session").and_then(Json::as_u64), Some(1));
        assert_eq!(tree.get("id").and_then(Json::as_u64), Some(7));
    }

    #[test]
    fn scan_line_resolves_the_row_and_collects_the_deadline() {
        let row = |line| scan_line(line).op.map(|op| op.name);
        let scanned = scan_line(r#"{"op":"clean","tuples":[],"deadline_ms":250}"#);
        assert_eq!(scanned.op.and_then(|op| op.id), Some(OpId::Clean));
        assert_eq!(scanned.deadline_ms(), Some(250));
        // A row is resolved whether or not the rest of the line is
        // well-typed; the alias resolves to its op's row; a name not in
        // the table is the `other` class; escapes in the key or the name
        // spell the same op; an `op` that is not a string or not there
        // (or a line that is not JSON) is no row.
        assert_eq!(row(r#"{"op":"session.get"}"#), Some("session.get"));
        assert_eq!(row(r#"{"op":"stats"}"#), Some("metrics"));
        assert_eq!(row(r#"{"op":"warp"}"#), Some("other"));
        assert_eq!(row(r#"{"op":"\u0063lean","tuples":[]}"#), Some("clean"));
        assert_eq!(row(r#"{"\u006fp":"clean","tuples":[]}"#), Some("clean"));
        // ...the first `op`, however it is spelled.
        assert_eq!(row(r#"{"\u006fp":"clean","op":"hello"}"#), Some("clean"));
        assert_eq!(row(r#"{"op":7,"op":"hello"}"#), None);
        assert_eq!(row(r#"{"op":7}"#), None);
        assert_eq!(row("{}"), None);
        assert_eq!(row("[1]"), None);
        assert_eq!(row(r#"{"op":"clean""#), None);
        // Only the last of those is not JSON.
        assert!(scan_line("[1]").syntax.is_none());
        assert!(scan_line(r#"{"op":"clean""#).syntax.is_some());

        // A deadline that does not read as u64 is treated as absent,
        // like any other field no op reads.
        let scanned = scan_line(r#"{"op":"hello","deadline_ms":"soon"}"#);
        assert_eq!(scanned.op.and_then(|op| op.id), Some(OpId::Hello));
        assert_eq!(scanned.deadline_ms(), None);
        assert_eq!(
            scan_line(r#"{"op":"hello","deadline_ms":-5}"#).deadline_ms(),
            None
        );

        // Zero is a real (deterministically expired) deadline.
        assert_eq!(
            scan_line(r#"{"op":"hello","deadline_ms":0}"#).deadline_ms(),
            Some(0)
        );
    }

    #[test]
    fn clean_without_trust_defaults_empty() {
        let parsed = Request::parse_line(r#"{"op":"clean","tuples":[]}"#).unwrap();
        assert_eq!(
            parsed,
            Request::Clean {
                tuples: vec![],
                trust: vec![]
            }
        );
    }
}
