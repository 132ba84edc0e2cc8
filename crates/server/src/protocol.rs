//! The typed request layer of the wire protocol.
//!
//! Every protocol exchange is one JSON object per line. Requests carry
//! an `"op"` discriminator; responses carry `"ok": true` plus op-specific
//! fields, or `"ok": false` with an `"error"` string. The full field
//! reference lives in the repository README ("cerfix-server protocol").
//!
//! This module holds the two parsers — the tree parser that converts
//! [`Json`] to the typed [`Request`] enum, and the allocation-free slice
//! scanner that reads the session ops in regular shape — plus the
//! client-side encoder. Responses are written by the service (they are
//! write-only on the server side) and picked apart field-wise by the
//! [`Client`](crate::Client).

use crate::ops::{self, Op, OpId};
use crate::wire::scan::{ObjectScanner, RawValue};
use crate::wire::{Json, WireError};
use cerfix_relation::Value;

/// Reusable per-connection parse/render scratch, threaded through
/// [`CleaningService::handle_line_into`](crate::CleaningService::handle_line_into):
/// holds the resolved-validation and string-unescape buffers so the
/// warmed request path performs no steady-state allocations.
#[derive(Debug, Default)]
pub struct RequestScratch {
    /// The `(attribute id, value)` validations of the
    /// `session.validate` being served, resolved against the schema by
    /// whichever parser read the line.
    pub(crate) validations: Vec<(usize, Value)>,
    /// Unescape buffer for string payloads containing escapes.
    pub(crate) unescape: String,
}

/// A parsed line, as either parser hands it to the service: the tree
/// parser always yields a [`Request`]; the slice scanner reads the
/// session ops a pipelining client hammers, when in regular shape,
/// without building a tree.
#[derive(Debug, PartialEq)]
pub(crate) enum Parsed<'a> {
    /// A fully parsed request. From the scanner: `session.get` / `fix`
    /// / `commit` / `abort`, whose variants own no heap data. (A front
    /// end that kept a `replica.sync` hands its parse back this way.)
    Request(Request),
    /// A scanned `session.validate`: the raw `{...}` span of the
    /// `validations` object, which the service resolves against its
    /// schema into [`RequestScratch`].
    Validate { session: u64, validations: &'a str },
}

/// What one scanner pass over a request line found.
#[derive(Debug, Default)]
pub(crate) struct ScannedLine<'a> {
    /// Raw span of a client-supplied `id` field, echoed in the response.
    pub(crate) id: Option<&'a str>,
    /// The scanner's own parse, when the line is a session op in
    /// regular shape; every other line goes to the tree parser.
    pub(crate) hot: Option<Parsed<'a>>,
    /// The row the plain `op` string names ([`ops::OTHER`] for a name
    /// not in the table), when the scanner saw one — it feeds the
    /// admission shedder, the reactor's placement and the latency class
    /// before the tree parser spends any work.
    pub(crate) op: Option<&'static Op>,
    /// Client request deadline in milliseconds from receipt. A value
    /// the scanner cannot read as `u64` is treated as absent, matching
    /// the tree parser's unknown-field tolerance.
    pub(crate) deadline_ms: Option<u64>,
}

impl ScannedLine<'_> {
    /// Does the plain `op` string name this op?
    pub(crate) fn is(&self, id: OpId) -> bool {
        self.op.is_some_and(|op| op.id == Some(id))
    }
}

/// Single allocation-free pass over a request line: extracts the
/// response-correlation `id` (any op), resolves `op` to its table row
/// and recognizes the hot session shapes. A malformed line yields none
/// of them — the tree parser then owns the error message.
pub(crate) fn scan_line(line: &str) -> ScannedLine<'_> {
    let Some(mut scanner) = ObjectScanner::new(line) else {
        return ScannedLine::default();
    };
    let mut id = None;
    let mut op = None;
    let mut op_seen = false;
    let mut session = None;
    let mut validations = None;
    let mut deadline_ms = None;
    // `fastable` drops on a `session` or `validations` the scanner
    // cannot vouch for; `id` keeps being collected so even tree-path
    // responses echo it.
    let mut fastable = true;
    // An escaped key may spell `op` and, coming first, be the one the
    // tree parser reads: the scanner then cannot name the row at all
    // (and with no row there is no hot shape either).
    let mut escaped_key = false;
    while let Some((key, value, span)) = scanner.next_field() {
        let Some(key) = key.as_plain() else {
            escaped_key = true;
            continue;
        };
        match key {
            // First occurrence wins, matching `Json::get` on the tree.
            "op" if !op_seen => {
                op_seen = true;
                if let RawValue::Str(s) = value {
                    op = s
                        .as_plain()
                        .map(|name| ops::lookup(name).map_or(&ops::OTHER, OpId::row));
                }
            }
            "session" if session.is_none() => match value.as_u64() {
                Some(s) => session = Some(s),
                None => fastable = false,
            },
            "validations" if validations.is_none() => match value {
                RawValue::Obj(span) => validations = Some(span),
                _ => fastable = false,
            },
            "id" if id.is_none() => id = Some(span),
            "deadline_ms" if deadline_ms.is_none() => deadline_ms = value.as_u64(),
            _ => {}
        }
    }
    if !scanner.ok() {
        // Malformed line: the id span cannot be trusted either.
        return ScannedLine::default();
    }
    if escaped_key {
        op = None;
    }
    let hot = match (fastable, op.and_then(|op| op.id), session) {
        (true, Some(id), Some(session)) => match id {
            OpId::SessionGet => Some(Parsed::Request(Request::SessionGet { session })),
            OpId::SessionFix => Some(Parsed::Request(Request::SessionFix { session })),
            OpId::SessionCommit => Some(Parsed::Request(Request::SessionCommit { session })),
            OpId::SessionAbort => Some(Parsed::Request(Request::SessionAbort { session })),
            OpId::SessionValidate => validations.map(|validations| Parsed::Validate {
                session,
                validations,
            }),
            _ => None,
        },
        _ => None,
    };
    ScannedLine {
        id,
        hot,
        op,
        deadline_ms,
    }
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
/// empty batch at once.
pub const PROTOCOL_VERSION: u64 = 9;

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
    /// Batch-clean tuples, trusting the named columns (fanned across
    /// the service worker pool; outcomes come back in input order).
    Clean {
        /// Input tuples, each in schema order.
        tuples: Vec<Vec<Value>>,
        /// Column names taken as validated per tuple.
        trust: Vec<String>,
    },
    /// Top-k certain regions (served from the per-ruleset cache).
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
    /// against the new generation and cached certain regions are patched
    /// by delta re-certification. Journaled.
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
    /// real signals (journal flusher, fsync latency, queue depth,
    /// replication lag, epoch fencing), with the failing causes named.
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

fn need<'a>(json: &'a Json, key: &str) -> Result<&'a Json, WireError> {
    json.get(key)
        .ok_or_else(|| WireError(format!("missing field `{key}`")))
}

/// Read `value` through `get` (`Json::as_u64`, `as_str`, …); an
/// ill-typed value is an error naming what `key` must be.
fn typed<'a, T>(
    value: &'a Json,
    key: &str,
    get: impl Fn(&'a Json) -> Option<T>,
    must_be: &str,
) -> Result<T, WireError> {
    get(value).ok_or_else(|| WireError(format!("`{key}` must be {must_be}")))
}

/// An optional field: absent is `None`, present but ill-typed an error.
fn opt<'a, T>(
    json: &'a Json,
    key: &str,
    get: impl Fn(&'a Json) -> Option<T>,
    must_be: &str,
) -> Result<Option<T>, WireError> {
    json.get(key)
        .map(|value| typed(value, key, get, must_be))
        .transpose()
}

fn need_u64(json: &Json, key: &str) -> Result<u64, WireError> {
    typed(
        need(json, key)?,
        key,
        Json::as_u64,
        "a non-negative integer",
    )
}

fn need_str(json: &Json, key: &str, must_be: &str) -> Result<String, WireError> {
    typed(need(json, key)?, key, Json::as_str, must_be).map(str::to_string)
}

fn opt_u64(json: &Json, key: &str) -> Result<Option<u64>, WireError> {
    opt(json, key, Json::as_u64, "a non-negative integer")
}

fn opt_bool(json: &Json, key: &str) -> Result<Option<bool>, WireError> {
    opt(json, key, Json::as_bool, "a boolean")
}

fn opt_str(json: &Json, key: &str) -> Result<Option<String>, WireError> {
    Ok(opt(json, key, Json::as_str, "a string")?.map(str::to_string))
}

fn values_array(json: &Json, what: &str) -> Result<Vec<Value>, WireError> {
    json.as_arr()
        .ok_or_else(|| WireError(format!("`{what}` must be an array of cell values")))?
        .iter()
        .map(Json::to_value)
        .collect()
}

fn tuples_array(json: &Json) -> Result<Vec<Vec<Value>>, WireError> {
    need(json, "tuples")?
        .as_arr()
        .ok_or_else(|| WireError("`tuples` must be an array".into()))?
        .iter()
        .map(|t| values_array(t, "tuples[i]"))
        .collect()
}

fn string_array(json: &Json, what: &str) -> Result<Vec<String>, WireError> {
    json.as_arr()
        .ok_or_else(|| WireError(format!("`{what}` must be an array of strings")))?
        .iter()
        .map(|item| {
            item.as_str()
                .map(str::to_string)
                .ok_or_else(|| WireError(format!("`{what}` entries must be strings")))
        })
        .collect()
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

    /// Parse one protocol line.
    pub fn parse_line(line: &str) -> Result<Request, WireError> {
        let json = Json::parse(line)?;
        Request::parse(Request::id_of(&json)?, &json)
    }

    /// The op a parsed line's `op` field names.
    pub(crate) fn id_of(json: &Json) -> Result<OpId, WireError> {
        let name = typed(need(json, "op")?, "op", Json::as_str, "a string")?;
        ops::lookup(name).ok_or_else(|| WireError(format!("unknown op `{name}`")))
    }

    /// Read op `id`'s fields out of a parsed line.
    pub(crate) fn parse(id: OpId, json: &Json) -> Result<Request, WireError> {
        Ok(match id {
            OpId::Hello => Request::Hello,
            OpId::SessionCreate => Request::SessionCreate {
                tuple: values_array(need(json, "tuple")?, "tuple")?,
            },
            OpId::SessionGet => Request::SessionGet {
                session: need_u64(json, "session")?,
            },
            OpId::SessionValidate => {
                let validations = match need(json, "validations")? {
                    Json::Obj(fields) => fields
                        .iter()
                        .map(|(name, v)| Ok((name.clone(), v.to_value()?)))
                        .collect::<Result<Vec<_>, WireError>>()?,
                    _ => {
                        return Err(WireError(
                            "`validations` must be an object of attr → value".into(),
                        ))
                    }
                };
                Request::SessionValidate {
                    session: need_u64(json, "session")?,
                    validations,
                }
            }
            OpId::SessionFix => Request::SessionFix {
                session: need_u64(json, "session")?,
            },
            OpId::SessionCommit => Request::SessionCommit {
                session: need_u64(json, "session")?,
            },
            OpId::SessionAbort => Request::SessionAbort {
                session: need_u64(json, "session")?,
            },
            OpId::Clean => Request::Clean {
                tuples: tuples_array(json)?,
                trust: match json.get("trust") {
                    Some(t) => string_array(t, "trust")?,
                    None => Vec::new(),
                },
            },
            OpId::Regions => Request::Regions {
                top_k: opt(json, "top_k", Json::as_u64, "an integer")?.map(|k| k as usize),
            },
            OpId::Check => Request::Check {
                mode: json.get("mode").and_then(Json::as_str).map(str::to_string),
            },
            OpId::AuditRead => Request::AuditRead {
                start: opt_u64(json, "start")?.unwrap_or(0),
                count: opt_u64(json, "count")?,
            },
            OpId::RulesReload => Request::RulesReload {
                rules: need_str(json, "rules", "a DSL string")?,
            },
            OpId::MasterAppend => Request::MasterAppend {
                tuples: tuples_array(json)?,
            },
            OpId::Metrics => Request::Metrics,
            OpId::MetricsProm => Request::MetricsProm,
            OpId::TraceRead => Request::TraceRead {
                limit: opt_u64(json, "limit")?,
            },
            OpId::ReplicaSync => Request::ReplicaSync {
                follower: need_str(json, "follower", "a string id")?,
                epoch: need_u64(json, "epoch")?,
                offset: need_u64(json, "offset")?,
                max: opt_u64(json, "max")?,
                // Absent on the wire from pre-v7 followers.
                resync: opt_bool(json, "resync")?.unwrap_or(false),
                wait_ms: opt_u64(json, "wait_ms")?,
            },
            OpId::ReplicaPromote => Request::ReplicaPromote,
            OpId::Health => Request::Health,
            OpId::LogRead => Request::LogRead {
                limit: opt_u64(json, "limit")?,
                level: opt_str(json, "level")?,
                subsystem: opt_str(json, "subsystem")?,
            },
            OpId::MetricsHistory => Request::MetricsHistory {
                limit: opt_u64(json, "limit")?,
            },
            OpId::ClusterStatus => Request::ClusterStatus {
                fanout: opt_bool(json, "fanout")?.unwrap_or(true),
            },
            OpId::ConfigSet => Request::ConfigSet {
                key: need_str(json, "key", "a string")?,
                value: need_u64(json, "value")?,
            },
            OpId::Scrub => Request::Scrub,
            OpId::Drain => Request::Drain {
                wait_ms: opt_u64(json, "wait_ms")?,
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
            OpId::Clean => vec![Request::Clean {
                tuples: vec![vec![Value::str("x")], vec![Value::str("y")]],
                trust: vec!["key".into()],
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
                rules: "er phi1: match zip=zip fix AC:=AC when ()".into(),
            }],
            OpId::MasterAppend => vec![Request::MasterAppend {
                tuples: vec![vec![Value::str("G12"), Value::Null], vec![Value::Int(3)]],
            }],
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

    #[test]
    fn scan_line_parses_regular_session_shapes_and_ids() {
        let scanned = scan_line(r#"{"op":"session.get","session":7,"id":42}"#);
        assert_eq!(scanned.id, Some("42"));
        assert_eq!(
            scanned.hot,
            Some(Parsed::Request(Request::SessionGet { session: 7 }))
        );

        let scanned = scan_line(
            r#"{"id":"x-1","op":"session.validate","session":3,"validations":{"zip":"EH8"}}"#,
        );
        assert_eq!(scanned.id, Some("\"x-1\""));
        assert_eq!(
            scanned.hot,
            Some(Parsed::Validate {
                session: 3,
                validations: r#"{"zip":"EH8"}"#,
            })
        );

        for (line, why) in [
            (r#"{"op":"clean","tuples":[],"id":9}"#, "not a hot op"),
            (r#"{"op":"session.get"}"#, "missing session"),
            (r#"{"op":"session.get","session":-1,"id":9}"#, "bad session"),
            (r#"{"op":"session.validate","session":1}"#, "no validations"),
        ] {
            assert_eq!(scan_line(line).hot, None, "{why}");
        }
        // The id is still collected for tree-path responses...
        assert_eq!(
            scan_line(r#"{"op":"clean","tuples":[],"id":9}"#).id,
            Some("9")
        );
        // ...but not from malformed lines.
        let malformed = scan_line(r#"{"id":5,"op":"#);
        assert_eq!(malformed.id, None);
        assert_eq!(malformed.hot, None);
    }

    #[test]
    fn scan_line_first_occurrence_wins_like_tree_get() {
        let scanned = scan_line(r#"{"op":"session.get","session":1,"session":2,"id":7,"id":8}"#);
        assert_eq!(
            scanned.hot,
            Some(Parsed::Request(Request::SessionGet { session: 1 }))
        );
        assert_eq!(scanned.id, Some("7"));
    }

    #[test]
    fn scan_line_resolves_the_row_and_collects_the_deadline() {
        let row = |line| scan_line(line).op.map(|op| op.name);
        let scanned = scan_line(r#"{"op":"clean","tuples":[],"deadline_ms":250}"#);
        assert_eq!(scanned.op.and_then(|op| op.id), Some(OpId::Clean));
        assert_eq!(scanned.deadline_ms, Some(250));
        // A row is resolved whether or not the rest of the line is
        // well-typed; the alias resolves to its op's row; a name not in
        // the table is the `other` class; an op the scanner cannot see
        // (escaped, not a string, absent, malformed line) is no row.
        assert_eq!(row(r#"{"op":"session.get"}"#), Some("session.get"));
        assert_eq!(row(r#"{"op":"stats"}"#), Some("metrics"));
        assert_eq!(row(r#"{"op":"warp"}"#), Some("other"));
        assert_eq!(row(r#"{"op":"\u0063lean","tuples":[]}"#), None);
        assert_eq!(row(r#"{"\u006fp":"clean","tuples":[]}"#), None);
        // ...even when a plain `op` follows: the tree reads the first.
        assert_eq!(row(r#"{"\u006fp":"clean","op":"hello"}"#), None);
        assert_eq!(row(r#"{"op":7,"op":"hello"}"#), None);
        assert_eq!(row(r#"{"op":7}"#), None);
        assert_eq!(row("{}"), None);
        assert_eq!(row(r#"{"op":"clean""#), None);

        // A deadline the scanner cannot read as u64 is treated as absent,
        // like any other unknown/ill-typed field on the tree path.
        let scanned = scan_line(r#"{"op":"hello","deadline_ms":"soon"}"#);
        assert_eq!(scanned.op.and_then(|op| op.id), Some(OpId::Hello));
        assert_eq!(scanned.deadline_ms, None);
        assert_eq!(
            scan_line(r#"{"op":"hello","deadline_ms":-5}"#).deadline_ms,
            None
        );

        // Zero is a real (deterministically expired) deadline.
        assert_eq!(
            scan_line(r#"{"op":"hello","deadline_ms":0}"#).deadline_ms,
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
