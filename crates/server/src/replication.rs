//! Replication: roles, the follower journal-tail loop, the primary's
//! `replica.sync` / `replica.promote` handlers and quorum-ack gate, and
//! the hex frame codec the two sides share.
//!
//! CerFix's correcting process is deterministic and Church-Rosser, so
//! the write-ahead journal doubles as a replication stream: a follower
//! that replays the primary's totally-ordered, CRC-framed events
//! through the same recovery path provably converges to the same state
//! — no repair re-validation on failover.
//!
//! The protocol is a long-poll pull over the ordinary wire protocol. A
//! follower's cursor is its own journal's durable position
//! `(epoch, offset)`; each `replica.sync` request both *asks* for
//! events past the cursor and *acknowledges* everything before it
//! (which is what quorum-ack commits on the primary wait for). A
//! caught-up follower's request is *held* by the primary's front end
//! ([`HeldSync`], on buffers the connection owns, so a warmed hold
//! allocates nothing) until the journal's durable position moves, so one
//! request is both "ack through the cursor" and "wake me when there is
//! more": a quorum commit costs the local fsync, one loopback hop and
//! the follower's fsync — no timer anywhere on the path.
//!
//! **Bytes are the one representation of a frame between the two
//! journal files.** The primary never decodes what it serves:
//! `replica.sync` takes the frames past the cursor off its journal with
//! one positioned read
//! ([`Journal::read_durable_from`](cerfix_storage::Journal::read_durable_from):
//! CRC-checked spans of the file's bytes, read into a buffer the
//! connection keeps) and writes each payload into the reply as hex, in
//! place. The follower reads the reply without building a tree
//! (`SyncReply`), hex-decodes every frame into one reused buffer
//! (`ReceivedFrames`), checks every payload as a whole
//! [`JournalEvent`](cerfix_storage::JournalEvent) before the first applies — a batch applies whole or
//! not at all — and replays each read in place ([`EventView`]): the
//! replay builds the cells the follower's sessions keep and no event to
//! take them out of. It journals the payload bytes it received
//! ([`Storage::append_encoded`](cerfix_storage::Storage::append_encoded)),
//! not a re-encoding of what it read, then leads its own group fsync
//! (`Journal::sync`). So the follower's journal file equals the
//! primary's byte for byte and a restart resumes from its own durable
//! cursor. A cursor whose epoch predates the primary's (the
//! journal was truncated by a snapshot while the follower was away)
//! gets a full snapshot resync instead; otherwise followers always
//! resume from the cursor.
//!
//! Fencing: every sync request carries the follower's epoch, and the
//! primary remembers the highest epoch it has ever seen. After a
//! `replica.promote` bumps a follower past the old primary's epoch,
//! any sync against the old primary fences it — it refuses further
//! mutations with `stale_epoch`, mirroring the snapshot epoch guard
//! inside the journal itself.

use crate::client::{jitter_seed, jittered, Client, ClientError, RetryPolicy};
use crate::diag::Subsystem;
use crate::errors::{ErrorCode, ServeError};
use crate::ops::OpId;
use crate::protocol::{RequestScratch, ScannedLine, SyncFields};
use crate::service::{CleaningService, Reply};
use crate::trace::{stamp, Span};
use crate::wire::scan::{ObjectScanner, RawValue};
use crate::wire::JsonWriter;
use cerfix_storage::{CursorRead, EventView, SnapshotData, Waker};
use std::collections::HashMap;
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Which side of the replication stream a node is on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Role {
    /// Accepts mutations, serves `replica.sync` to followers.
    Primary,
    /// Read-only: tails the named primary's journal and rejects
    /// session mutations with `not_primary`.
    Follower {
        /// Address of the primary this node replicates from.
        primary: String,
    },
}

impl Role {
    /// `"primary"` or `"follower"` (wire/metrics label).
    pub fn name(&self) -> &'static str {
        match self {
            Role::Primary => "primary",
            Role::Follower { .. } => "follower",
        }
    }
}

/// Why a follower could not apply a pulled batch — drives the tail
/// loop's recovery choice.
#[derive(Debug)]
pub(crate) enum ReplicaApplyError {
    /// The local journal was poisoned by an fsync failure. The events
    /// are applied in memory but can never become durable here, so the
    /// follower demands a snapshot re-sync from the primary (installing
    /// it truncates — and thereby un-poisons — the local journal).
    Poisoned(String),
    /// A replayed event did not apply — determinism rules this out
    /// unless the nodes booted from different master data. Fatal.
    Diverged(ServeError),
    /// The journal or service is shutting down; exit quietly.
    Stopped,
}

/// What the primary knows about one follower, keyed by the follower's
/// advertised address. Updated on every `replica.sync` it sends.
pub(crate) struct FollowerStatus {
    /// Epoch of the follower's durable cursor (its last ack).
    pub epoch: u64,
    /// Durable journal offset of the cursor within that epoch.
    pub offset: u64,
    /// When the follower last synced.
    pub last_seen: Instant,
    /// Last time the follower's cursor covered everything durable
    /// here — the zero point `cerfix_replication_lag_seconds` measures
    /// from while the follower is behind.
    pub caught_up_at: Instant,
}

/// Shared replication state hanging off the service.
pub(crate) struct ReplicationState {
    /// This node's role. Flips exactly once (follower → primary, on
    /// `replica.promote`).
    pub role: RwLock<Role>,
    /// Follower registry (primary side): advertised address → cursor.
    pub followers: Mutex<HashMap<String, FollowerStatus>>,
    /// Signaled whenever a follower ack lands; quorum-ack commits wait
    /// on it (paired with `followers`).
    pub ack_cv: Condvar,
    /// Highest epoch seen on any `replica.sync` cursor — the fencing
    /// watermark. A node whose own epoch falls below it has been
    /// superseded by a promotion and refuses mutations.
    pub max_epoch_seen: AtomicU64,
    /// Configured cluster size N (nodes counting this one). `1`
    /// disables quorum waits: commits are local-fsync durable only.
    pub cluster: usize,
    /// How long a quorum-ack commit waits before `quorum_timeout`.
    pub ack_timeout: Duration,
    /// Stops the follower tail loop (promotion, shutdown).
    pub stop: AtomicBool,
    /// The tail-loop thread, joined on promote so no replicated event
    /// can land after the epoch bump.
    pub tail: Mutex<Option<JoinHandle<()>>>,
    /// A clone of the tail thread's connection to the primary. Its
    /// requests are held over there for up to [`SYNC_HOLD`]; whoever
    /// sets `stop` shuts this socket down so the blocked read returns
    /// at once ([`CleaningService::interrupt_tail`]).
    pub tail_socket: Mutex<Option<TcpStream>>,
    /// Encoded [`SnapshotData`] of the current epoch — what a
    /// stale-cursor follower is resynced from. Refreshed on every
    /// snapshot install (boot recovery included).
    pub last_snapshot: Mutex<Option<std::sync::Arc<Vec<u8>>>>,
    /// Follower-side mirror of the primary's epoch, from the last
    /// successful tail response (status display).
    pub primary_epoch: AtomicU64,
    /// Follower-side mirror of the primary's durable event count.
    pub primary_durable: AtomicU64,
    /// Last time this follower's durable cursor covered the primary's
    /// — the zero point its own `lag_seconds` (and the `max_lag`
    /// readiness check) measures from. Boot-initialized to "now" so a
    /// fresh follower starts ready; a partition freezes it and lag
    /// grows until the stream recovers.
    pub tail_current_at: Mutex<Instant>,
}

impl ReplicationState {
    pub fn new(cluster: usize, ack_timeout: Duration) -> ReplicationState {
        ReplicationState {
            role: RwLock::new(Role::Primary),
            followers: Mutex::new(HashMap::new()),
            ack_cv: Condvar::new(),
            max_epoch_seen: AtomicU64::new(0),
            cluster: cluster.max(1),
            ack_timeout,
            stop: AtomicBool::new(false),
            tail: Mutex::new(None),
            tail_socket: Mutex::new(None),
            last_snapshot: Mutex::new(None),
            primary_epoch: AtomicU64::new(0),
            primary_durable: AtomicU64::new(0),
            tail_current_at: Mutex::new(Instant::now()),
        }
    }

    /// Cluster members whose durable copy a quorum-ack commit waits
    /// for: ⌈(N+1)/2⌉, counting this primary's own fsync.
    pub fn quorum(&self) -> usize {
        (self.cluster + 2) / 2
    }

    /// Every registered follower's lag behind this node's durable
    /// cursor `(epoch, offset)`, sorted by name — the one computation
    /// behind `metrics.replication`, `cerfix_replication_lag_*` and
    /// `cluster.status.followers`.
    pub(crate) fn follower_lags(&self, (cur_epoch, cur_durable): (u64, u64)) -> Vec<FollowerLag> {
        use std::cmp::Ordering::{Equal, Greater, Less};
        let mut lags: Vec<FollowerLag> = lock_followers(self)
            .iter()
            .map(|(name, f)| {
                // A cursor from an older epoch has acked nothing of this
                // one; a cursor from a later epoch covers all of it.
                let lag_events = match f.epoch.cmp(&cur_epoch) {
                    Greater => 0,
                    Equal => cur_durable.saturating_sub(f.offset),
                    Less => cur_durable,
                };
                let current =
                    f.epoch > cur_epoch || (f.epoch == cur_epoch && f.offset >= cur_durable);
                FollowerLag {
                    name: name.clone(),
                    epoch: f.epoch,
                    offset: f.offset,
                    lag_events,
                    lag_seconds: if current {
                        0.0
                    } else {
                        f.caught_up_at.elapsed().as_secs_f64()
                    },
                    last_seen_secs: f.last_seen.elapsed().as_secs_f64(),
                }
            })
            .collect();
        lags.sort_by(|a, b| a.name.cmp(&b.name));
        lags
    }
}

/// One follower's lag as the primary sees it.
pub(crate) struct FollowerLag {
    /// The address the follower advertised.
    pub name: String,
    /// Cursor coordinates from its last sync.
    pub epoch: u64,
    pub offset: u64,
    /// Durable events here it has not acknowledged.
    pub lag_events: u64,
    /// How long it has been behind (0 while caught up).
    pub lag_seconds: f64,
    /// Seconds since its last sync.
    pub last_seen_secs: f64,
}

impl FollowerLag {
    /// The cursor and lag as reply fields.
    pub(crate) fn write_fields(&self, w: &mut JsonWriter<'_>) {
        w.field("epoch", self.epoch);
        w.field("offset", self.offset);
        w.field("lag_events", self.lag_events);
        w.field("lag_seconds", self.lag_seconds);
    }
}

/// Hex-encode a binary frame onto `out` for the wire (lowercase, two
/// digits per byte). Hex over base64: no new dependency, and journal
/// frames are small enough that 2x expansion is irrelevant next to the
/// fsync.
pub(crate) fn push_hex(bytes: &[u8], out: &mut String) {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    out.reserve(bytes.len() * 2);
    for &b in bytes {
        out.push(DIGITS[(b >> 4) as usize] as char);
        out.push(DIGITS[(b & 0xf) as usize] as char);
    }
}

/// Decode a hex frame onto the end of `out`; `false` on odd length or a
/// non-hex digit (`out` then holds a partial decode to cut off).
fn hex_decode_into(s: &str, out: &mut Vec<u8>) -> bool {
    let s = s.as_bytes();
    let digit = |c: u8| -> Option<u8> {
        match c {
            b'0'..=b'9' => Some(c - b'0'),
            b'a'..=b'f' => Some(c - b'a' + 10),
            b'A'..=b'F' => Some(c - b'A' + 10),
            _ => None,
        }
    };
    out.reserve(s.len() / 2);
    for pair in s.chunks_exact(2) {
        match (digit(pair[0]), digit(pair[1])) {
            (Some(hi), Some(lo)) => out.push((hi << 4) | lo),
            _ => return false,
        }
    }
    s.len().is_multiple_of(2)
}

/// The frame payloads of one `replica.sync` reply, hex-decoded back to
/// back into one buffer the tail loop reuses: what the follower replays
/// (read in place) and what it journals (these bytes, as received).
#[derive(Default)]
pub(crate) struct ReceivedFrames {
    bytes: Vec<u8>,
    /// Where each payload ends in `bytes` (the next starts there).
    ends: Vec<usize>,
    /// The reply held a frame that is not a whole hex string; it and
    /// the frames after it were not kept.
    torn: bool,
}

impl ReceivedFrames {
    fn clear(&mut self) {
        self.bytes.clear();
        self.ends.clear();
        self.torn = false;
    }

    /// Decode one more payload — `Some` of a hex string; anything else
    /// is a torn frame. `false`, and nothing more kept, once torn.
    fn push_hex(&mut self, hex: Option<&str>) -> bool {
        let start = self.bytes.len();
        self.torn |= !hex.is_some_and(|hex| hex_decode_into(hex, &mut self.bytes));
        if self.torn {
            self.bytes.truncate(start);
        } else {
            self.ends.push(self.bytes.len());
        }
        !self.torn
    }

    /// The reply carried no frame at all, whole or torn.
    fn is_empty(&self) -> bool {
        self.ends.is_empty() && !self.torn
    }

    /// Every payload read in place as an event, in the order sent — or
    /// `None` when a frame was torn or any payload is not a whole event:
    /// a batch applies whole or not at all, so every payload is checked
    /// before the first is handed on. Nothing is allocated here; the
    /// replay builds the cells it keeps.
    fn events(&self) -> Option<impl Iterator<Item = EventView<'_>>> {
        let whole = !self.torn && self.payloads().all(|p| EventView::parse(p).is_ok());
        whole.then(|| self.payloads().filter_map(|p| EventView::parse(p).ok()))
    }

    /// The payloads, in the order they were sent.
    pub(crate) fn payloads(&self) -> impl Iterator<Item = &[u8]> {
        let mut start = 0;
        self.ends.iter().map(move |&end| {
            let payload = &self.bytes[start..end];
            start = end;
            payload
        })
    }
}

/// A `replica.sync` reply as the tail loop reads it: one scan of the
/// line, no tree, the frames hex-decoded into the caller's
/// [`ReceivedFrames`] on the way.
struct SyncReply<'a> {
    /// The cursor echo.
    from: Option<u64>,
    /// The primary's `(epoch, durable event count)`.
    epoch: u64,
    durable: u64,
    /// The snapshot's hex, when the reply carries one.
    snapshot: Option<RawValue<'a>>,
}

impl<'a> SyncReply<'a> {
    /// `None` when the line is not one well-formed object.
    fn scan(line: &'a str, frames: &mut ReceivedFrames) -> Option<SyncReply<'a>> {
        frames.clear();
        let mut reply = SyncReply {
            from: None,
            epoch: 0,
            durable: 0,
            snapshot: None,
        };
        let mut fields = ObjectScanner::new(line)?;
        // Unescape scratch: nothing this protocol sends has an escape,
        // so neither is ever written to.
        let (mut key_buf, mut buf) = (String::new(), String::new());
        while let Some((key, value, _)) = fields.next_field() {
            match key.unescape_into(&mut key_buf) {
                "from" => reply.from = value.as_u64(),
                "epoch" => reply.epoch = value.as_u64().unwrap_or(0),
                "durable" => reply.durable = value.as_u64().unwrap_or(0),
                "snapshot" => reply.snapshot = matches!(value, RawValue::Str(_)).then_some(value),
                "events" => {
                    let mut sent = value.as_arr();
                    while let Some(frame) = sent.as_mut().and_then(|sent| sent.next_value()) {
                        if !frames.push_hex(frame.as_str(&mut buf)) {
                            break;
                        }
                    }
                }
                _ => {}
            }
        }
        fields.finish().ok()?;
        Some(reply)
    }
}

/// Render the tail loop's next request onto `out` — the line
/// `Request::ReplicaSync { .. }.to_json()` renders, without the tree.
fn write_sync_request(out: &mut String, follower: &str, (epoch, offset): (u64, u64), resync: bool) {
    let mut w = JsonWriter::new(out);
    w.begin_obj();
    w.field("op", OpId::ReplicaSync.row().name);
    w.field("follower", follower);
    w.field("epoch", epoch);
    w.field("offset", offset);
    w.field("max", TAIL_BATCH);
    if resync {
        w.field("resync", true);
    }
    w.field("wait_ms", SYNC_HOLD.as_millis() as u64);
    w.end_obj();
}

/// Events per `replica.sync` pull the tail loop asks for.
const TAIL_BATCH: u64 = 512;
/// How long the tail loop asks the primary to keep a caught-up
/// `replica.sync` (`wait_ms`). An expired hold is the heartbeat that
/// keeps `last_seen` and the lag clocks moving on an idle group, so it
/// stays well under the tail's 2 s request timeout and `--max-lag`.
const SYNC_HOLD: Duration = Duration::from_millis(500);
/// Longest hold a primary grants, whatever `wait_ms` asks for.
const MAX_HOLD: Duration = Duration::from_secs(60);
/// First reconnect backoff; doubles per failure.
const BACKOFF_BASE: Duration = Duration::from_millis(20);
/// Reconnect backoff cap.
const BACKOFF_MAX: Duration = Duration::from_millis(500);

fn stopped(service: &CleaningService) -> bool {
    service.replication().stop.load(Ordering::Acquire) || service.shutdown_requested()
}

/// Record what one successful tail response said about the primary's
/// durable cursor, and — when our own cursor covers it — reset the
/// follower-side lag clock the `max_lag` readiness check reads.
fn note_tail_progress(service: &CleaningService, served_epoch: u64, served_durable: u64) {
    let repl = service.replication();
    repl.primary_epoch.store(served_epoch, Ordering::Release);
    repl.primary_durable
        .store(served_durable, Ordering::Release);
    let (epoch, offset) = service.durable_cursor().unwrap_or((0, 0));
    let current = epoch > served_epoch || (epoch == served_epoch && offset >= served_durable);
    if current {
        *repl
            .tail_current_at
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = Instant::now();
    }
}

/// Sleep up to `delay` in small slices, bailing out early on stop.
/// Returns false when the loop should exit.
fn pause(service: &CleaningService, delay: Duration) -> bool {
    let deadline = Instant::now() + delay;
    loop {
        if stopped(service) {
            return false;
        }
        let now = Instant::now();
        if now >= deadline {
            return true;
        }
        std::thread::sleep((deadline - now).min(Duration::from_millis(10)));
    }
}

/// The follower tail loop: pull journal frames from the primary at the
/// local durable cursor, journal + replay + fsync them, and ask again
/// at once — the new cursor is the ack, and the primary holds the
/// request until there is more. Every failure path reconnects with
/// capped jittered backoff and resumes from the cursor — a partition or
/// torn stream costs a redial, not a resync. Exits on stop (promotion),
/// shutdown (either also breaks a held read), or divergence (a
/// replayed event that cannot apply — which determinism rules out
/// unless the nodes booted from different master data).
pub(crate) fn run_tail(service: CleaningService, primary: String) {
    let policy = RetryPolicy {
        retries: 0, // the loop owns retry pacing
        base_delay: BACKOFF_BASE,
        max_delay: BACKOFF_MAX,
        request_timeout: Some(Duration::from_secs(2)),
    };
    let follower_id = service.advertised();
    let mut seed = jitter_seed();
    let mut backoff = BACKOFF_BASE;
    // Set when the local journal is poisoned (fsync failure): the next
    // sync demands a snapshot instead of frames — installing it
    // truncates, and thereby un-poisons, the local journal.
    let mut force_resync = false;
    // One of each for the life of the loop: the request line, the reply
    // line, the frames it carried and (never written) unescape scratch.
    let (mut line, mut response) = (String::new(), String::new());
    let mut frames = ReceivedFrames::default();
    let mut unescaped = String::new();
    // The buffers every replayed validation runs on.
    let mut scratch = RequestScratch::default();
    'connect: loop {
        if stopped(&service) {
            return;
        }
        let mut client = match Client::connect_with(primary.as_str(), policy.clone()) {
            Ok(client) => {
                service.diag().debug(
                    Subsystem::Replication,
                    format_args!("connected to primary {primary}"),
                );
                // Published before the next `stopped` check: whoever
                // sets `stop` afterwards finds this socket to break.
                *service
                    .replication()
                    .tail_socket
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner) = client.socket().ok();
                client
            }
            Err(_) => {
                if !pause(&service, jittered(backoff, &mut seed)) {
                    return;
                }
                backoff = (backoff * 2).min(BACKOFF_MAX);
                continue;
            }
        };
        loop {
            if stopped(&service) {
                return;
            }
            let Some((epoch, offset)) = service.durable_cursor() else {
                // Storage detached mid-flight: nothing to replicate into.
                return;
            };
            line.clear();
            write_sync_request(&mut line, &follower_id, (epoch, offset), force_resync);
            let asked = Instant::now();
            let answered = client
                .request_line(&line, &mut response)
                .map(|()| SyncReply::scan(&response, &mut frames));
            let reply = match answered {
                Ok(Some(reply)) => reply,
                Err(ClientError::Server { message, .. }) => {
                    // The primary answered but refused (mid-boot, or we
                    // are somehow ahead of it): back off, keep polling.
                    service.diag().warn(
                        Subsystem::Replication,
                        format_args!("primary {primary} refused sync: {message}"),
                    );
                    if !pause(&service, jittered(backoff, &mut seed)) {
                        return;
                    }
                    backoff = (backoff * 2).min(BACKOFF_MAX);
                    continue;
                }
                // The connection failed, or what came is not a reply.
                Ok(None) | Err(_) => {
                    if !pause(&service, jittered(backoff, &mut seed)) {
                        return;
                    }
                    backoff = (backoff * 2).min(BACKOFF_MAX);
                    continue 'connect;
                }
            };
            let nothing_new = frames.is_empty();
            // "Nothing new" in under half the hold asked for: the primary
            // does not hold (pre-v9), or is draining or stopping. Asking
            // again at once would spin, so it counts as a refusal.
            let unheld = nothing_new && reply.snapshot.is_none() && asked.elapsed() < SYNC_HOLD / 2;
            // Any other healthy round trip resets the backoff ladder.
            if !unheld {
                backoff = BACKOFF_BASE;
            }
            if reply.from != Some(offset) {
                // Not the answer to the cursor we just sent: a faulty
                // path (duplicate/reordered line) desynced the stream.
                // Reconnect; the fresh connection re-pairs cleanly.
                service.diag().warn(
                    Subsystem::Replication,
                    format_args!("desynced response from {primary}; reconnecting"),
                );
                if !pause(&service, jittered(backoff, &mut seed)) {
                    return;
                }
                continue 'connect;
            }
            let (served_epoch, served_durable) = (reply.epoch, reply.durable);
            if served_epoch < epoch {
                // A primary behind our epoch is stale (e.g. the old
                // primary came back after we were promoted off it and
                // re-demoted — not a state we ever serve from).
                service.diag().warn(
                    Subsystem::Replication,
                    format_args!(
                        "primary {primary} is at epoch {served_epoch}, \
                         behind our {epoch}; refusing its stream"
                    ),
                );
                if !pause(&service, jittered(BACKOFF_MAX, &mut seed)) {
                    return;
                }
                continue 'connect;
            }
            if let Some(hex) = reply.snapshot.and_then(|hex| hex.as_str(&mut unescaped)) {
                // Cursor predates the primary's epoch: full resync.
                let mut bytes = Vec::new();
                let decoded = hex_decode_into(hex, &mut bytes)
                    .then(|| SnapshotData::decode(&bytes).ok())
                    .flatten();
                match decoded {
                    Some(data) => {
                        if let Err(message) = service.install_replica_snapshot(data) {
                            service.diag().error(
                                Subsystem::Replication,
                                format_args!("snapshot resync from {primary} failed: {message}"),
                            );
                            if !pause(&service, jittered(BACKOFF_MAX, &mut seed)) {
                                return;
                            }
                            continue 'connect;
                        }
                        // A successful install truncated the local
                        // journal to the new epoch — any poisoning is
                        // cleared and the repair is complete.
                        if force_resync {
                            force_resync = false;
                            service.diag().info(
                                Subsystem::Replication,
                                format_args!("journal repaired by snapshot re-sync from {primary}"),
                            );
                        }
                        continue; // re-poll from the new epoch's cursor
                    }
                    None => {
                        service.diag().error(
                            Subsystem::Replication,
                            format_args!("undecodable snapshot from {primary}"),
                        );
                        if !pause(&service, jittered(backoff, &mut seed)) {
                            return;
                        }
                        continue 'connect;
                    }
                }
            }
            if unheld {
                // Paced like a refusal, one rung up the ladder each time.
                note_tail_progress(&service, served_epoch, served_durable);
                if !pause(&service, jittered(backoff, &mut seed)) {
                    return;
                }
                backoff = (backoff * 2).min(BACKOFF_MAX);
                continue;
            }
            if nothing_new {
                // Caught up, and the hold ran out: this was the
                // heartbeat. Ask again at once.
                note_tail_progress(&service, served_epoch, served_durable);
                continue;
            }
            // Each frame is read in place for the replay; what is
            // journaled is the bytes it came as.
            let Some(events) = frames.events() else {
                // A torn/corrupt frame never applies partially: drop
                // the connection and re-pull from the durable cursor.
                service.diag().warn(
                    Subsystem::Replication,
                    format_args!("torn frame from {primary}; re-pulling from cursor"),
                );
                if !pause(&service, jittered(backoff, &mut seed)) {
                    return;
                }
                continue 'connect;
            };
            match service.apply_replica_events(events, frames.payloads(), &mut scratch) {
                Ok(()) => {}
                Err(ReplicaApplyError::Poisoned(message)) => {
                    // The batch is applied in memory but can never be
                    // durable here: repair by snapshot instead of dying
                    // (or worse, acking a cursor we do not hold).
                    service.diag().warn(
                        Subsystem::Replication,
                        format_args!(
                            "journal poisoned ({message}); \
                             requesting snapshot re-sync from {primary}"
                        ),
                    );
                    force_resync = true;
                    continue;
                }
                Err(ReplicaApplyError::Diverged(message)) => {
                    service.diag().error(
                        Subsystem::Replication,
                        format_args!("replay diverged, stopping tail of {primary}: {message}"),
                    );
                    return;
                }
                Err(ReplicaApplyError::Stopped) => return,
            }
            note_tail_progress(&service, served_epoch, served_durable);
        }
    }
}

/// A `replica.sync` a front end is keeping instead of answering: the
/// follower is caught up and asked to wait (`wait_ms`). The cursor it
/// carried was recorded as the follower's ack when it arrived
/// ([`CleaningService::sync_arrival`]); the hold only delays the reply,
/// and is over ([`CleaningService::hold_over`]) as soon as there is
/// something to say. The front end keeps it on the connection's own
/// thread ([`CleaningService::wait_out`]), and it borrows the line, which
/// stays in the connection's read buffer meanwhile: a hold copies
/// nothing.
pub(crate) struct HeldSync<'l> {
    /// The request's fields as its one scan read them — the hold lasts
    /// while the journal's durable position is the cursor's
    /// `(epoch, <= offset)` — and the `id` it asked to have echoed.
    sync: SyncFields<'l>,
    id: Option<&'l str>,
    /// Hold expiry: then the ordinary empty reply — the heartbeat.
    pub(crate) deadline: Instant,
}

/// What a connection waits out its held syncs on: a flag, the condvar
/// that signals it, and the journal watcher that sets it — built at the
/// connection's first hold and kept, so a hold after that allocates
/// nothing.
pub(crate) struct HoldWaiter {
    signal: Arc<(Mutex<bool>, Condvar)>,
    waker: Waker,
}

impl std::fmt::Debug for HoldWaiter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("HoldWaiter")
    }
}

/// Write the fields of a `replica.sync` reply: the cursor echo, then
/// the snapshot or the journal's frame payloads as hex written in place
/// — the bytes the cursor read took off the file, never decoded here.
/// `from` echoes the requested cursor: a follower rejects any response
/// whose echo mismatches its cursor, so a duplicated or reordered
/// response on a faulty network can never re-apply.
fn write_sync_fields(
    w: &mut JsonWriter<'_>,
    (epoch, durable): (u64, u64),
    from: u64,
    snapshot: Option<&[u8]>,
    frames: Option<&CursorRead>,
) {
    w.field("epoch", epoch);
    w.field("from", from);
    w.field("durable", durable);
    if let Some(snapshot) = snapshot {
        w.key("snapshot");
        w.str_with(|out| push_hex(snapshot, out));
    }
    let payloads = frames.into_iter().flat_map(CursorRead::payloads);
    w.array("events", payloads, |w, payload| {
        w.str_with(|out| push_hex(payload, out))
    });
}

impl CleaningService {
    /// A front end scanned a `replica.sync` line off a connection it
    /// may park. When the request asks to wait and nothing durable lies
    /// past its cursor, record the cursor — it is the follower's ack,
    /// and a commit waiting on it must not wait out the hold as well —
    /// and return the hold. `None`: serve the line now, like any other
    /// (an ill-formed one gets its error there).
    ///
    /// The caller starts watching the journal
    /// ([`Journal::watch`](cerfix_storage::Journal::watch)) before this
    /// look at the durable position, or looks again
    /// ([`hold_over`](Self::hold_over)) once it does: a move in between
    /// must not be missed, or a commit waits out the hold.
    pub(crate) fn sync_arrival<'l>(
        &self,
        scanned: &ScannedLine<'l>,
        unescape: &'l mut String,
    ) -> Option<HeldSync<'l>> {
        let sync = scanned.fields.replica_sync(unescape).ok()?;
        let (false, Some(wait_ms)) = (sync.resync, sync.wait_ms) else {
            return None;
        };
        let held = HeldSync {
            deadline: stamp() + Duration::from_millis(wait_ms).min(MAX_HOLD),
            id: scanned.id,
            sync,
        };
        if self.hold_over(&held) {
            return None;
        }
        // Caught up by definition: the durable position is the cursor's.
        let (epoch, offset) = (held.sync.epoch, held.sync.offset);
        self.record_follower(held.sync.follower, epoch, offset, epoch, offset);
        Some(held)
    }

    /// May a held sync be answered now? Yes once something durable lies
    /// past its cursor or the epoch changed (the reply carries events,
    /// or the snapshot), once waiting is pointless (journal poisoned or
    /// stopped, server draining or shutting down), and when the hold
    /// expires.
    pub(crate) fn hold_over(&self, held: &HeldSync<'_>) -> bool {
        let Some(storage) = self.storage() else {
            return true;
        };
        let journal = storage.journal();
        let (epoch, durable) = journal.durable_position();
        epoch != held.sync.epoch
            || durable > held.sync.offset
            || journal.poisoned().is_some()
            || !journal.is_alive()
            || self.is_draining()
            || self.shutdown_requested()
            || stamp() >= held.deadline
    }

    /// Keep the calling thread — a connection's own — until `held` is
    /// over, woken through the connection's `waiter`.
    pub(crate) fn wait_out(&self, held: &HeldSync<'_>, waiter: &mut Option<HoldWaiter>) {
        let Some(storage) = self.storage() else {
            return;
        };
        let HoldWaiter { signal, waker } = waiter.get_or_insert_with(|| {
            let signal = Arc::new((Mutex::new(false), Condvar::new()));
            let flag = Arc::clone(&signal);
            let waker: Waker = Arc::new(move || {
                *flag.0.lock().unwrap_or_else(PoisonError::into_inner) = true;
                flag.1.notify_one();
            });
            HoldWaiter { signal, waker }
        });
        let _watch = storage.journal().watch(Arc::clone(waker));
        // Watching before each look: a move in between sets the flag.
        while !self.hold_over(held) {
            let mut woken = signal.0.lock().unwrap_or_else(PoisonError::into_inner);
            if !*woken {
                let left = held.deadline.saturating_duration_since(stamp());
                woken = signal
                    .1
                    .wait_timeout(woken, left)
                    .unwrap_or_else(PoisonError::into_inner)
                    .0;
            }
            *woken = false;
        }
    }

    /// Answer a held sync from the fields its arrival read, its frames
    /// read into the connection's `served`. The request's clock starts
    /// here — arrival stamp, span, latency and the slow log all exclude
    /// the hold, which was the follower's choice and no work of ours.
    /// Returns the release and the request's end stamp: a line behind
    /// the sync queues from the release (its deadline still counts from
    /// its arrival) and starts at the end.
    pub(crate) fn serve_held(
        &self,
        held: HeldSync<'_>,
        out: &mut String,
        served: &mut CursorRead,
    ) -> (Instant, Instant) {
        let released = stamp();
        let op = OpId::ReplicaSync.row();
        let ended = self.answer(op, held.id, out, released, released, |reply| {
            self.replica_sync(&held.sync, reply, served)
        });
        (released, ended)
    }

    /// Something a held sync waits on besides the journal has changed —
    /// drain or shutdown began: every held sync looks again.
    pub(crate) fn wake_holds(&self) {
        if let Some(storage) = self.storage() {
            storage.journal().wake_watchers();
        }
    }

    /// `stop` or shutdown was just set: break the tail thread's read,
    /// which the primary may be holding for up to [`SYNC_HOLD`].
    pub(crate) fn interrupt_tail(&self) {
        let socket = self
            .replication()
            .tail_socket
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        if let Some(socket) = socket {
            let _ = socket.shutdown(Shutdown::Both);
        }
    }

    /// `replica.sync`: serve journal events past the follower's durable
    /// cursor `(epoch, offset)`, or the snapshot it asks for (`resync`).
    /// The cursor doubles as the follower's
    /// acknowledgement — everything before it is fsynced over there —
    /// so this call also feeds the quorum-ack commit gate. A cursor
    /// whose epoch predates ours gets the current snapshot instead
    /// (its events were truncated away); one ahead of ours means we
    /// have been deposed, and the request fences us. `wait_ms` is the
    /// front end's business ([`HeldSync`]): by the time a request is
    /// here it is answered. The frames are read into `read`, the
    /// connection's own.
    pub(crate) fn replica_sync(
        &self,
        sync: &SyncFields<'_>,
        reply: Reply<'_>,
        read: &mut CursorRead,
    ) -> Result<(), ServeError> {
        let Some(storage) = self.storage() else {
            return Err(needs_journal());
        };
        let SyncFields {
            follower,
            epoch,
            offset,
            max,
            resync,
            ..
        } = *sync;
        self.replication()
            .max_epoch_seen
            .fetch_max(epoch, Ordering::AcqRel);
        if resync {
            // The follower's journal is poisoned or corrupt: cut a
            // fresh snapshot (the epoch bump guarantees it installs
            // over there, and installing truncates — and thereby
            // un-poisons — the follower's journal) and serve it.
            self.diag().info(
                Subsystem::Replication,
                format_args!("follower {follower} requested a forced snapshot re-sync"),
            );
            self.snapshot_now()?;
            let snapshot = self.cached_snapshot()?;
            let position = (storage.epoch(), storage.durable_position().1);
            self.record_follower(follower, epoch, offset, position.0, position.1);
            return reply.send(|w| write_sync_fields(w, position, offset, Some(&snapshot), None));
        }
        let max = max.unwrap_or(512).clamp(1, 2048) as usize;
        storage.read_journal_from(offset, max, read)?;
        let position = (read.epoch, read.durable_events);
        self.record_follower(follower, epoch, offset, position.0, position.1);
        if epoch > read.epoch {
            return Err(ErrorCode::StaleEpoch.error(format!(
                "follower {follower} is at epoch {epoch}, this node is at {}",
                read.epoch
            )));
        }
        let snapshot = if epoch < read.epoch {
            Some(self.cached_snapshot()?)
        } else {
            None
        };
        // A stale cursor gets the snapshot alone: events of the new
        // epoch mean nothing before it is installed.
        let frames = snapshot.is_none().then_some(&*read);
        self.metrics_raw()
            .replication_events_served
            .add(frames.map_or(0, CursorRead::len) as u64);
        let snapshot = snapshot.as_ref().map(|bytes| bytes.as_slice());
        reply.send(|w| write_sync_fields(w, position, offset, snapshot, frames))
    }

    /// Update the follower registry from a sync request's cursor and
    /// wake any commit waiting on quorum acks.
    fn record_follower(
        &self,
        follower: &str,
        epoch: u64,
        offset: u64,
        cur_epoch: u64,
        cur_durable: u64,
    ) {
        let caught_up = epoch > cur_epoch || (epoch == cur_epoch && offset >= cur_durable);
        let now = stamp();
        let mut followers = lock_followers(self.replication());
        // Looked up before the name is copied: only a follower's first
        // sync allocates.
        if let Some(entry) = followers.get_mut(follower) {
            entry.epoch = epoch;
            entry.offset = offset;
            entry.last_seen = now;
            if caught_up {
                entry.caught_up_at = now;
            }
        } else {
            followers.insert(
                follower.to_string(),
                FollowerStatus {
                    epoch,
                    offset,
                    last_seen: now,
                    caught_up_at: now,
                },
            );
        }
        drop(followers);
        self.replication().ack_cv.notify_all();
    }

    /// The committed snapshot bytes a stale follower resyncs from. If
    /// none are cached (this epoch's snapshot predates this process and
    /// left no file we recovered), cut a fresh one — that both seeds
    /// the cache and gives the follower the newest possible epoch.
    ///
    /// Read inside the storage gate: a snapshot in progress truncates
    /// the journal — which is what releases a held sync — a moment
    /// before it refreshes the cache, and the follower must not be
    /// handed the epoch before.
    fn cached_snapshot(&self) -> Result<Arc<Vec<u8>>, ServeError> {
        let cached = || {
            self.with_gate(|| {
                self.replication()
                    .last_snapshot
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .clone()
            })
        };
        if let Some(cached) = cached() {
            return Ok(cached);
        }
        self.snapshot_now()?;
        cached().ok_or_else(|| ErrorCode::Internal.error("no snapshot available for resync"))
    }

    /// The commit's replication coordinates: `(epoch, position)` of the
    /// journal frame `seq` — what follower acks are measured against.
    /// Must run inside the storage gate (same critical section as the
    /// append), so a concurrent snapshot cannot shift the mapping.
    pub(crate) fn commit_position(&self, seq: u64) -> Option<(u64, u64)> {
        self.storage()
            .map(|storage| (storage.epoch(), storage.position_of(seq)))
    }

    /// Block until ⌈(N+1)/2⌉ cluster members have a durable copy of the
    /// commit at `(epoch, position)`. Our own fsync already counts, so
    /// quorum − 1 follower acks are needed; a follower ack is a sync
    /// cursor at or past the position (or from a later epoch — the
    /// commit rode inside the snapshot that started it). On timeout the
    /// commit stays applied and locally durable, but the client gets a
    /// `quorum_timeout` (or its own `deadline_exceeded`) error instead
    /// of an acknowledgement.
    pub(crate) fn wait_for_quorum(
        &self,
        (epoch, position): (u64, u64),
        span: &mut Span,
    ) -> Result<(), ServeError> {
        let repl = self.replication();
        let needed = repl.quorum().saturating_sub(1);
        let since = stamp();
        // A client deadline tightens (never widens) the ack-timeout
        // bound: the caller has stopped listening past it, so waiting
        // longer only burns a thread.
        let timeout = since + repl.ack_timeout;
        let deadline = span.deadline.map_or(timeout, |client| client.min(timeout));
        let mut followers = lock_followers(repl);
        loop {
            let acked = followers
                .values()
                .filter(|f| f.epoch > epoch || (f.epoch == epoch && f.offset >= position))
                .count();
            let now = stamp();
            if acked >= needed || now >= deadline {
                drop(followers);
                let elapsed = now - since;
                span.quorum_ns += elapsed.as_nanos() as u64;
                return if acked >= needed {
                    self.metrics_raw().ack_latency.observe(elapsed);
                    Ok(())
                } else if deadline < timeout {
                    self.metrics_raw().requests_shed_deadline.inc();
                    Err(ErrorCode::DeadlineExceeded.error(format!(
                        "commit is durable locally but the request \
                         deadline expired with only {acked}/{needed} follower acks"
                    )))
                } else {
                    self.metrics_raw().quorum_timeouts.inc();
                    Err(ErrorCode::QuorumTimeout.error(format!(
                        "commit is durable locally but only {acked}/{needed} \
                         follower acks arrived within {:?}",
                        repl.ack_timeout
                    )))
                };
            }
            followers = repl
                .ack_cv
                .wait_timeout(followers, deadline - now)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }

    /// `replica.promote`: turn this follower into the primary. Stops
    /// and joins the tail thread first (no replicated event can land
    /// after the transition), then cuts a snapshot — the epoch bump is
    /// the fence: our next sync against the old primary (or any peer's)
    /// carries the higher epoch and makes it refuse further mutations.
    /// Idempotent on a node that is already primary.
    pub(crate) fn replica_promote(&self, reply: Reply<'_>) -> Result<(), ServeError> {
        let Some(storage) = self.storage() else {
            return Err(needs_journal());
        };
        let repl = self.replication();
        let was_follower = matches!(
            &*repl.role.read().unwrap_or_else(|e| e.into_inner()),
            Role::Follower { .. }
        );
        if was_follower {
            repl.stop.store(true, Ordering::Release);
            self.interrupt_tail();
            let handle = repl
                .tail
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .take();
            if let Some(handle) = handle {
                let _ = handle.join();
            }
            *repl.role.write().unwrap_or_else(|e| e.into_inner()) = Role::Primary;
            self.snapshot_now()?;
        }
        reply.send(|w| {
            w.field("role", "primary");
            w.field("epoch", storage.epoch());
            w.field("promoted", was_follower);
        })
    }
}

/// What a memory-mode node answers `replica.sync` and `replica.promote`.
fn needs_journal() -> ServeError {
    ErrorCode::BadRequest.error("replication requires a journaled server (--data-dir)")
}

/// Convenience for locking the follower registry without poison noise.
pub(crate) fn lock_followers(
    state: &ReplicationState,
) -> std::sync::MutexGuard<'_, HashMap<String, FollowerStatus>> {
    state
        .followers
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests;
