//! Replication: roles, the follower journal-tail loop, and the hex
//! frame codec shared with the `replica.sync` handler.
//!
//! CerFix's correcting process is deterministic and Church-Rosser, so
//! the write-ahead journal doubles as a replication stream: a follower
//! that replays the primary's totally-ordered, CRC-framed events
//! through the same recovery path provably converges to the same state
//! — no repair re-validation on failover.
//!
//! The protocol is pull-based over the ordinary wire protocol. A
//! follower's cursor is its own journal's durable position
//! `(epoch, offset)`; each `replica.sync` request both *asks* for
//! events past the cursor and *acknowledges* everything before it
//! (which is what quorum-ack commits on the primary wait for). Events
//! travel as hex-encoded [`JournalEvent`] frames — byte-identical to
//! what the primary journaled, so the follower's journal file mirrors
//! the primary's frame-for-frame and a restart resumes from its own
//! durable cursor. A cursor whose epoch predates the primary's (the
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
use crate::protocol::Request;
use crate::service::CleaningService;
use crate::wire::Json;
use cerfix_storage::{JournalEvent, SnapshotData};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, PoisonError, RwLock};
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
    Diverged(String),
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
    pub(crate) fn fields(&self) -> Vec<(&'static str, Json)> {
        vec![
            ("epoch", Json::Num(self.epoch as f64)),
            ("offset", Json::Num(self.offset as f64)),
            ("lag_events", Json::Num(self.lag_events as f64)),
            ("lag_seconds", Json::Num(self.lag_seconds)),
        ]
    }
}

/// Hex-encode a binary frame for the wire (lowercase, two digits per
/// byte). Hex over base64: no new dependency, and journal frames are
/// small enough that 2x expansion is irrelevant next to the fsync.
pub(crate) fn hex_encode(bytes: &[u8]) -> String {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut out = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        out.push(DIGITS[(b >> 4) as usize] as char);
        out.push(DIGITS[(b & 0xf) as usize] as char);
    }
    out
}

/// Decode a hex frame; `None` on odd length or a non-hex digit.
pub(crate) fn hex_decode(s: &str) -> Option<Vec<u8>> {
    let s = s.as_bytes();
    if !s.len().is_multiple_of(2) {
        return None;
    }
    let digit = |c: u8| -> Option<u8> {
        match c {
            b'0'..=b'9' => Some(c - b'0'),
            b'a'..=b'f' => Some(c - b'a' + 10),
            b'A'..=b'F' => Some(c - b'A' + 10),
            _ => None,
        }
    };
    let mut out = Vec::with_capacity(s.len() / 2);
    for pair in s.chunks_exact(2) {
        out.push((digit(pair[0])? << 4) | digit(pair[1])?);
    }
    Some(out)
}

/// Events per `replica.sync` pull the tail loop asks for.
const TAIL_BATCH: u64 = 512;
/// Poll interval while caught up (also the floor on follower ack
/// latency, so it stays well under commit ack timeouts).
const POLL_INTERVAL: Duration = Duration::from_millis(5);
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
/// local durable cursor, journal + replay + fsync them, repeat. Every
/// failure path reconnects with capped jittered backoff and resumes
/// from the cursor — a partition or torn stream costs a redial, not a
/// resync. Exits on stop (promotion), shutdown, or divergence (a
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
            let request = Request::ReplicaSync {
                follower: follower_id.clone(),
                epoch,
                offset,
                max: Some(TAIL_BATCH),
                resync: force_resync,
            };
            let response = match client.request(&request) {
                Ok(response) => response,
                Err(ClientError::Server(message)) => {
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
                Err(_) => {
                    if !pause(&service, jittered(backoff, &mut seed)) {
                        return;
                    }
                    backoff = (backoff * 2).min(BACKOFF_MAX);
                    continue 'connect;
                }
            };
            // A healthy round trip resets the backoff ladder.
            backoff = BACKOFF_BASE;
            if response.get("from").and_then(Json::as_u64) != Some(offset) {
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
            let served_epoch = response.get("epoch").and_then(Json::as_u64).unwrap_or(0);
            let served_durable = response.get("durable").and_then(Json::as_u64).unwrap_or(0);
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
            if let Some(hex) = response.get("snapshot").and_then(Json::as_str) {
                // Cursor predates the primary's epoch: full resync.
                let decoded = hex_decode(hex).and_then(|bytes| SnapshotData::decode(&bytes).ok());
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
            let frames = response.get("events").and_then(Json::as_arr).unwrap_or(&[]);
            if frames.is_empty() {
                // Caught up: ack-by-polling keeps quorum commits live.
                note_tail_progress(&service, served_epoch, served_durable);
                if !pause(&service, POLL_INTERVAL) {
                    return;
                }
                continue;
            }
            let mut events = Vec::with_capacity(frames.len());
            let mut torn = false;
            for frame in frames {
                match frame
                    .as_str()
                    .and_then(hex_decode)
                    .and_then(|bytes| JournalEvent::decode(&bytes).ok())
                {
                    Some(event) => events.push(event),
                    None => {
                        torn = true;
                        break;
                    }
                }
            }
            if torn {
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
            }
            match service.apply_replica_events(events) {
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
mod tests {
    use super::*;

    #[test]
    fn hex_round_trips() {
        let bytes: Vec<u8> = (0u16..=255).map(|b| b as u8).collect();
        let hex = hex_encode(&bytes);
        assert_eq!(hex.len(), 512);
        assert_eq!(hex_decode(&hex).as_deref(), Some(bytes.as_slice()));
        assert_eq!(hex_decode(""), Some(Vec::new()));
        assert_eq!(hex_decode("DEADbeef"), Some(vec![0xde, 0xad, 0xbe, 0xef]));
    }

    #[test]
    fn hex_rejects_torn_and_garbage() {
        assert_eq!(hex_decode("abc"), None); // odd length
        assert_eq!(hex_decode("zz"), None); // not hex
        assert_eq!(hex_decode("0g"), None);
    }

    #[test]
    fn quorum_is_majority_of_cluster() {
        let q = |n| ReplicationState::new(n, Duration::from_secs(1)).quorum();
        assert_eq!(q(1), 1); // local fsync only
        assert_eq!(q(2), 2); // primary + the follower
        assert_eq!(q(3), 2); // primary + 1 of 2 followers
        assert_eq!(q(4), 3);
        assert_eq!(q(5), 3);
    }

    #[test]
    fn role_names() {
        assert_eq!(Role::Primary.name(), "primary");
        assert_eq!(
            Role::Follower {
                primary: "x:1".into()
            }
            .name(),
            "follower"
        );
    }
}
