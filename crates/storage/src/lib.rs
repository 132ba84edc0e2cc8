//! # cerfix-storage — durability for the CerFix cleaning service
//!
//! CerFix's pitch is that every fix is *certain* — a claim that is only
//! worth something if the system can attest to what it fixed, and only
//! operationally useful if a restart doesn't destroy every in-flight
//! clerk session. This crate is the durable substrate behind
//! `cerfix-server`:
//!
//! * [`Journal`] — a crash-safe, length-prefixed + CRC-checksummed
//!   **write-ahead journal** of session events (create / validate /
//!   commit / abort / evict / rules-reload) with group-fsync batching:
//!   appends are memory-only on the request path; a flush cycle — the
//!   flusher thread's, or one a blocking `sync` caller leads itself —
//!   retires them with one `write`+`fdatasync`, and `session.commit`
//!   waits for its group's fsync. The same file is the replication
//!   stream: cursor reads serve its frames as bytes, never decoded, and
//!   a follower replays each read in place ([`EventView`]), building
//!   only the cells it keeps.
//! * [`snapshot`] — periodic atomic **snapshots** of all live session
//!   state (tmp + fsync + rename), after which the journal is truncated
//!   to a new epoch. Recovery = load snapshot + replay the journal
//!   suffix through the (deterministic) correcting process.
//! * [`AuditSpill`] — an append-only, indexed segment of cell-level
//!   **audit provenance**, implementing the core
//!   [`AuditSink`](cerfix::AuditSink): a journaled service's audit log
//!   keeps no record in memory beyond the spill's unflushed buffer, and
//!   `audit.read` serves the full history from it.
//!
//! [`Storage`] ties the three together under one data directory:
//!
//! ```text
//! <data-dir>/journal.wal   write-ahead session journal (epoch-tagged)
//! <data-dir>/snapshot.bin  last complete snapshot (atomic rename target)
//! <data-dir>/audit.seg     append-only audit provenance segment
//! ```
//!
//! Durability contract (also documented in the repository README):
//! a `session.commit` acknowledged over the wire survives kill-9; other
//! acknowledged ops survive any crash that happens after the next group
//! flush (bounded by the flush interval); a torn tail from a crash is
//! cut at the last complete frame and loses only un-fsynced suffix
//! events. The audit segment is never truncated — it is the system's
//! provenance archive.
//!
//! ## Fault tolerance
//!
//! Every write-path syscall goes through the pluggable [`vfs`] layer
//! ([`RealFs`] in production, [`FaultFs`] under test), so ENOSPC, EIO,
//! torn writes, bit flips and dropped renames can be injected
//! deterministically. The failure contract they exercise:
//!
//! * a failed journal **write** is retryable ([`SyncError::WriteFailed`]
//!   — the commit was *not* acked, frames retry next cycle);
//! * a failed journal **fsync** permanently poisons the writer
//!   ([`SyncError::Poisoned`] — fsyncgate semantics: after `fdatasync`
//!   errors, a retried-and-"successful" fsync proves nothing);
//! * the **audit spill** writes through the journal's durable writer
//!   under the same rules: a failed write is repaired and retried on the
//!   next cycle, and a failed fsync poisons the spill until restart — it
//!   writes nothing more and refuses later records, and its error stays
//!   set. A spill failure never fails a commit, and a poisoned spill
//!   never blocks a snapshot;
//! * **corruption** (a complete frame, header or snapshot failing its
//!   checksum) is a typed [`StorageError::Corrupt`] with file and offset
//!   — never a silently wrong recovery, and never a cut: recovery and
//!   [`scrub`] walk the journal and the audit segment with one frame
//!   walker, so an open refuses exactly what a scrub reports and leaves
//!   the file untouched (replica re-sync, in the server crate, is the
//!   repair).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
mod events;
mod journal;
pub mod scrub;
pub mod snapshot;
mod spill;
pub mod vfs;
mod watch;

pub use codec::CodecError;
pub use events::{
    decode_audit_record, encode_audit_record, EventView, JournalEvent, List, SessionEvent,
    SessionSnapshot, SnapshotData,
};
pub use journal::{
    read_events, scan_journal, scan_journal_with, CursorRead, FlushProfile, Journal, JournalScan,
    ScanMode, SyncError, JOURNAL_HEADER,
};
pub use scrub::{scrub_dir, Corruption, ScrubReport};
pub use snapshot::{load_snapshot, write_snapshot, SNAPSHOT_FILE, SNAPSHOT_TMP};
pub use spill::{AuditSpill, SpillScan};
pub use vfs::{FaultFs, FaultPlan, RealFs, StorageFile, StorageFs};
pub use watch::{DurableWatch, Waker};

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// File name of the write-ahead journal inside a data dir.
pub const JOURNAL_FILE: &str = "journal.wal";
/// File name of the audit spill segment inside a data dir.
pub const AUDIT_FILE: &str = "audit.seg";

/// Why an on-disk structure could not be trusted.
///
/// The two variants draw the line the whole crate is built around: an
/// environmental I/O failure ([`Io`](Self::Io)) may be transient and
/// names no bytes, while [`Corrupt`](Self::Corrupt) means a *complete,
/// previously acknowledged* structure failed verification — recovery
/// must refuse (or, on a replica, re-fetch) rather than guess.
#[derive(Debug)]
pub enum StorageError {
    /// The underlying read/write failed.
    Io(std::io::Error),
    /// A checksum-verified structure no longer verifies: bit rot,
    /// a bad block, or outside interference.
    Corrupt {
        /// The damaged file (full path as scanned).
        file: String,
        /// Byte offset of the first damaged region.
        offset: u64,
        /// What failed to verify (CRC mismatch, bad magic, ...).
        detail: String,
    },
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "storage I/O error: {e}"),
            StorageError::Corrupt {
                file,
                offset,
                detail,
            } => write!(f, "corrupt: {file} @ {offset}: {detail}"),
        }
    }
}

impl StorageError {
    /// [`Corrupt`](Self::Corrupt): `file` failed to verify at `offset`.
    pub(crate) fn corrupt(file: &Path, offset: u64, detail: impl Into<String>) -> StorageError {
        StorageError::Corrupt {
            file: file.display().to_string(),
            offset,
            detail: detail.into(),
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io(e) => Some(e),
            StorageError::Corrupt { .. } => None,
        }
    }
}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> StorageError {
        StorageError::Io(e)
    }
}

impl From<StorageError> for std::io::Error {
    fn from(e: StorageError) -> std::io::Error {
        match e {
            StorageError::Io(e) => e,
            corrupt @ StorageError::Corrupt { .. } => {
                std::io::Error::new(std::io::ErrorKind::InvalidData, corrupt.to_string())
            }
        }
    }
}

/// Tunables for a [`Storage`]. There is no audit-window knob: the audit
/// log over a [`Storage`] keeps no resident records — the spill's
/// unflushed buffer and its segment are the only copies.
#[derive(Debug, Clone)]
pub struct StorageConfig {
    /// The data directory (created if absent).
    pub dir: PathBuf,
    /// Group-commit cadence of the journal flusher. Smaller = less data
    /// at risk between fsyncs; larger = better batching.
    pub flush_interval: Duration,
    /// Take a snapshot when at least this much time has passed *and*
    /// events have been journaled since the last one.
    pub snapshot_interval: Duration,
    /// Also snapshot (regardless of the interval) once this many events
    /// accumulate in the journal — bounds replay time after a crash.
    pub snapshot_every_events: u64,
    /// The filesystem every write-path syscall goes through —
    /// [`RealFs`] in production, [`FaultFs`] under fault injection.
    pub fs: Arc<dyn StorageFs>,
    /// How recovery treats a complete-but-corrupt journal frame:
    /// [`ScanMode::Strict`] (a primary refuses with a typed error)
    /// or [`ScanMode::Tolerant`] (a replica keeps the clean prefix and
    /// re-fetches the corrupt suffix from its primary).
    pub scan_mode: ScanMode,
}

impl StorageConfig {
    /// Defaults for `dir`: 2 ms group commits, snapshots every 60 s or
    /// 50 000 events, the real filesystem, strict corruption handling.
    pub fn new(dir: impl Into<PathBuf>) -> StorageConfig {
        StorageConfig {
            dir: dir.into(),
            flush_interval: Duration::from_millis(2),
            snapshot_interval: Duration::from_secs(60),
            snapshot_every_events: 50_000,
            fs: Arc::new(RealFs),
            scan_mode: ScanMode::Strict,
        }
    }
}

/// What recovery found on disk, handed to the service for replay.
#[derive(Debug)]
pub struct RecoveredState {
    /// The last complete snapshot, if any.
    pub snapshot: Option<SnapshotData>,
    /// Journal events appended after that snapshot, in order. Empty
    /// when the journal's epoch did not match (a crash landed between
    /// snapshot rename and journal truncation — the snapshot already
    /// owns that state).
    pub events: Vec<JournalEvent>,
    /// Journal bytes discarded as a torn tail.
    pub journal_torn_bytes: u64,
    /// Journal bytes discarded as *corruption* under
    /// [`ScanMode::Tolerant`] — acked events a replica must re-fetch
    /// from its primary (always 0 in strict mode, which errors
    /// instead).
    pub journal_corrupt_bytes: u64,
    /// Audit records recovered from the spill segment.
    pub audit_records: usize,
    /// Audit-segment bytes discarded as a torn tail.
    pub audit_torn_bytes: u64,
}

/// One data directory: journal + snapshots + audit spill.
#[derive(Debug)]
pub struct Storage {
    journal: Journal,
    spill: Arc<AuditSpill>,
    config: StorageConfig,
    epoch: AtomicU64,
    events_since_snapshot: AtomicU64,
    last_snapshot: Mutex<Instant>,
}

impl Storage {
    /// Open (or initialize) the data directory, recovering whatever a
    /// previous process left: load the snapshot, scan the journal for
    /// the valid suffix of events, cut torn tails, and reopen the audit
    /// segment. The returned [`RecoveredState`] is what the service
    /// replays.
    ///
    /// Corruption (as opposed to a legal torn tail) is a typed
    /// [`StorageError::Corrupt`] under the default
    /// [`ScanMode::Strict`]; a replica opens with
    /// [`ScanMode::Tolerant`] and re-fetches instead. A corrupt audit
    /// segment is refused in either mode, the file untouched: its
    /// records are nowhere else to fetch.
    pub fn open(config: StorageConfig) -> Result<(Storage, RecoveredState), StorageError> {
        std::fs::create_dir_all(&config.dir)?;
        // A tmp left by a crash mid-snapshot is garbage by construction.
        let _ = std::fs::remove_file(config.dir.join(SNAPSHOT_TMP));
        let snapshot = snapshot::load_snapshot(&config.dir)?;
        let snapshot_epoch = snapshot.as_ref().map_or(0, |s| s.epoch);
        let journal_path = config.dir.join(JOURNAL_FILE);
        let scan = journal::scan_journal_with(&journal_path, config.scan_mode)?;
        let journal = Journal::open(
            &journal_path,
            &scan,
            snapshot_epoch,
            config.flush_interval,
            &config.fs,
        )?;
        // The journal's events belong to this snapshot lineage only if
        // the epochs agree; otherwise the snapshot already covers them
        // (crash between rename and truncate) and the journal is reset.
        // The journal has read the count off the scan: the events move.
        let (events, journal_torn) = if scan.epoch == snapshot_epoch {
            (scan.events, scan.torn_bytes)
        } else {
            (Vec::new(), scan.torn_bytes + scan.valid_len)
        };
        let (spill, spill_scan) = AuditSpill::open(&config.dir.join(AUDIT_FILE), &config.fs)?;
        let spill = Arc::new(spill);
        journal.set_companion(Arc::clone(&spill));
        let recovered = RecoveredState {
            snapshot,
            events,
            journal_torn_bytes: journal_torn,
            journal_corrupt_bytes: scan.corrupt_bytes,
            audit_records: spill_scan.records,
            audit_torn_bytes: spill_scan.torn_bytes,
        };
        Ok((
            Storage {
                journal,
                spill,
                epoch: AtomicU64::new(snapshot_epoch),
                events_since_snapshot: AtomicU64::new(recovered.events.len() as u64),
                last_snapshot: Mutex::new(Instant::now()),
                config,
            },
            recovered,
        ))
    }

    /// Journal one event (group-committed in the background); returns
    /// the sequence number for [`sync`](Self::sync).
    pub fn append(&self, event: &JournalEvent) -> u64 {
        self.events_since_snapshot.fetch_add(1, Ordering::Relaxed);
        self.journal.append(event)
    }

    /// [`append`](Self::append) for a session event borrowing the values
    /// its writer already holds: framed from them, with no owned
    /// [`JournalEvent`] built first.
    pub fn append_session(&self, event: SessionEvent<'_>) -> u64 {
        self.events_since_snapshot.fetch_add(1, Ordering::Relaxed);
        self.journal.append_session(event)
    }

    /// [`append`](Self::append) for an event that is already a frame
    /// payload: a follower journals the bytes its primary sent, so the
    /// two journal files stay equal byte for byte.
    pub fn append_encoded(&self, payload: &[u8]) -> u64 {
        self.events_since_snapshot.fetch_add(1, Ordering::Relaxed);
        self.journal.append_encoded(payload)
    }

    /// Block until the journal fsync covering `seq` completes. The
    /// flush cycle that runs it also syncs the audit spill before it
    /// releases the waiters, but the spill's result is not the
    /// caller's: a spill failure never fails a sync, and is read from
    /// [`AuditSpill::last_error`]. Returns a typed [`SyncError`] — never
    /// hangs — when the covering write failed (retryable), the journal
    /// poisoned (permanent until a snapshot rebuilds the file), or the
    /// journal stopped.
    pub fn sync(&self, seq: u64) -> Result<(), SyncError> {
        self.journal.sync(seq)
    }

    /// The write-ahead journal.
    pub fn journal(&self) -> &Journal {
        &self.journal
    }

    /// The audit spill segment (attach as the audit log's sink).
    pub fn spill(&self) -> &Arc<AuditSpill> {
        &self.spill
    }

    /// The data directory.
    pub fn dir(&self) -> &Path {
        &self.config.dir
    }

    /// Configuration this storage was opened with.
    pub fn config(&self) -> &StorageConfig {
        &self.config
    }

    /// Free bytes under the data directory, when the filesystem layer
    /// can tell ([`FaultFs`] reports its remaining injected budget;
    /// [`RealFs`] returns `None` and the server probes the OS itself).
    pub fn free_bytes(&self) -> Option<u64> {
        self.config.fs.free_bytes(&self.config.dir)
    }

    /// Current snapshot epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// The replication position `(epoch, durable event count)`.
    pub fn durable_position(&self) -> (u64, u64) {
        self.journal.durable_position()
    }

    /// Epoch-file position covering `seq` (see [`Journal::position_of`]).
    pub fn position_of(&self, seq: u64) -> u64 {
        self.journal.position_of(seq)
    }

    /// Read up to `max` durable frames from epoch-file position
    /// `offset` into `read` — the primary side of a `replica.sync` pull
    /// (see [`Journal::read_durable_from`]).
    pub fn read_journal_from(
        &self,
        offset: u64,
        max: usize,
        read: &mut CursorRead,
    ) -> std::io::Result<()> {
        self.journal.read_durable_from(offset, max, read)
    }

    /// Events journaled since the last snapshot.
    pub fn events_since_snapshot(&self) -> u64 {
        self.events_since_snapshot.load(Ordering::Relaxed)
    }

    /// True when the snapshot policy says it is time (interval elapsed
    /// with activity, or the event budget is exhausted). The service
    /// checks this from its housekeeping loop.
    pub fn should_snapshot(&self) -> bool {
        let events = self.events_since_snapshot();
        if events == 0 {
            return false;
        }
        if events >= self.config.snapshot_every_events {
            return true;
        }
        let last = *self
            .last_snapshot
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        last.elapsed() >= self.config.snapshot_interval
    }

    /// Install `data` as the new snapshot and truncate the journal to
    /// its epoch. The caller must have quiesced journal appends (the
    /// service holds its storage gate in write mode) and `data.epoch`
    /// must be greater than `self.epoch()` (locally produced snapshots
    /// use `epoch() + 1`; a follower installing a primary's snapshot
    /// may jump several epochs at once).
    ///
    /// Ordering is crash-safe at every step: the snapshot is renamed
    /// into place *before* the journal is truncated, so a crash between
    /// the two leaves a stale-epoch journal that recovery ignores.
    ///
    /// This is also the only exit from a poisoned journal: `set_len(0)`
    /// plus a freshly written, fsynced header is a file whose entire
    /// contents are known good — unlike any retry against old bytes.
    pub fn install_snapshot(&self, data: &SnapshotData) -> std::io::Result<()> {
        debug_assert!(data.epoch > self.epoch());
        // Make the audit archive at least as fresh as the snapshot. A
        // poisoned spill has nothing more to write and syncs as `Ok`, so
        // it never blocks the journal's one truncation and poison exit.
        self.spill.sync()?;
        snapshot::write_snapshot(self.config.fs.as_ref(), &self.config.dir, data)?;
        self.journal.truncate_to_epoch(data.epoch)?;
        self.epoch.store(data.epoch, Ordering::Release);
        self.events_since_snapshot.store(0, Ordering::Relaxed);
        *self
            .last_snapshot
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = Instant::now();
        Ok(())
    }

    /// Verify checksums across the live directory — the `scrub`
    /// protocol op. Only the *durable* prefix of the journal and audit
    /// segment is read, so bytes the flusher is concurrently writing
    /// are never misdiagnosed as damage; the snapshot is immutable
    /// between installs and is read whole.
    pub fn scrub(&self) -> std::io::Result<ScrubReport> {
        scrub::scrub_with_limits(
            &self.config.dir,
            Some(self.journal.durable_len()),
            Some(self.spill.durable_len()),
        )
    }

    /// Simulate a kill-9 with a cold page cache: every file rolls back
    /// to its last fsync'd length and all writers go inert. The worst
    /// legal crash outcome, used by the recovery test harness.
    pub fn simulate_crash(&self) -> std::io::Result<()> {
        self.journal.simulate_crash()?;
        self.spill.simulate_crash()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cerfix_relation::Value;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("cerfix-storage-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn config(dir: &Path) -> StorageConfig {
        StorageConfig {
            snapshot_interval: Duration::from_secs(3600),
            snapshot_every_events: 1_000_000,
            ..StorageConfig::new(dir)
        }
    }

    fn ev(session: u64) -> JournalEvent {
        JournalEvent::SessionCreated {
            session,
            values: vec![Value::str("v")],
        }
    }

    #[test]
    fn open_append_reopen_replays_events() {
        let dir = tmp_dir("replay");
        {
            let (storage, recovered) = Storage::open(config(&dir)).unwrap();
            assert!(recovered.snapshot.is_none());
            assert!(recovered.events.is_empty());
            let seq = storage.append(&ev(1));
            storage.append(&ev(2));
            storage.sync(seq + 1).unwrap();
        }
        let (_, recovered) = Storage::open(config(&dir)).unwrap();
        assert_eq!(recovered.events, vec![ev(1), ev(2)]);
        assert_eq!(recovered.journal_torn_bytes, 0);
        assert_eq!(recovered.journal_corrupt_bytes, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_truncates_journal_and_epoch_guard_discards_stale_journal() {
        let dir = tmp_dir("epoch-guard");
        {
            let (storage, _) = Storage::open(config(&dir)).unwrap();
            let seq = storage.append(&ev(1));
            storage.sync(seq).unwrap();
            storage
                .install_snapshot(&SnapshotData {
                    epoch: 1,
                    fingerprint: 0,
                    rules_dsl: String::new(),
                    next_session_id: 2,
                    master_appended: vec![],
                    sessions: vec![],
                })
                .unwrap();
            assert_eq!(storage.epoch(), 1);
            assert_eq!(storage.events_since_snapshot(), 0);
            let seq = storage.append(&ev(2));
            storage.sync(seq).unwrap();
        }
        let (_, recovered) = Storage::open(config(&dir)).unwrap();
        assert_eq!(recovered.snapshot.as_ref().unwrap().epoch, 1);
        assert_eq!(recovered.events, vec![ev(2)], "pre-snapshot event gone");

        // Crash between snapshot rename and journal truncation: fake it
        // by writing a *newer* snapshot while the journal stays at the
        // old epoch. The journal must be ignored.
        write_snapshot(
            &RealFs,
            &dir,
            &SnapshotData {
                epoch: 9,
                fingerprint: 0,
                rules_dsl: String::new(),
                next_session_id: 10,
                master_appended: vec![],
                sessions: vec![],
            },
        )
        .unwrap();
        let (storage, recovered) = Storage::open(config(&dir)).unwrap();
        assert_eq!(recovered.snapshot.unwrap().epoch, 9);
        assert!(
            recovered.events.is_empty(),
            "stale-epoch journal not replayed"
        );
        assert_eq!(storage.epoch(), 9);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn should_snapshot_respects_event_budget() {
        let dir = tmp_dir("policy");
        let mut cfg = config(&dir);
        cfg.snapshot_every_events = 3;
        let (storage, _) = Storage::open(cfg).unwrap();
        assert!(!storage.should_snapshot(), "no events yet");
        storage.append(&ev(1));
        assert!(!storage.should_snapshot(), "below budget, interval far");
        storage.append(&ev(2));
        storage.append(&ev(3));
        assert!(storage.should_snapshot(), "event budget reached");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_snapshot_refuses_open_with_typed_error() {
        let dir = tmp_dir("corrupt-open");
        {
            let (storage, _) = Storage::open(config(&dir)).unwrap();
            let seq = storage.append(&ev(1));
            storage.sync(seq).unwrap();
            storage
                .install_snapshot(&SnapshotData {
                    epoch: 1,
                    fingerprint: 0,
                    rules_dsl: String::new(),
                    next_session_id: 2,
                    master_appended: vec![],
                    sessions: vec![],
                })
                .unwrap();
        }
        let path = dir.join(SNAPSHOT_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x04;
        std::fs::write(&path, &bytes).unwrap();
        match Storage::open(config(&dir)) {
            Err(StorageError::Corrupt { file, .. }) => {
                assert!(file.ends_with(SNAPSHOT_FILE));
            }
            other => panic!("expected typed corruption, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tolerant_open_cuts_corrupt_journal_suffix_and_reports_it() {
        let dir = tmp_dir("tolerant-open");
        {
            let (storage, _) = Storage::open(config(&dir)).unwrap();
            let last = (1..=4).fold(0, |_, i| storage.append(&ev(i)));
            storage.sync(last).unwrap();
        }
        let path = dir.join(JOURNAL_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x04;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            Storage::open(config(&dir)),
            Err(StorageError::Corrupt { .. })
        ));
        let mut cfg = config(&dir);
        cfg.scan_mode = ScanMode::Tolerant;
        let (storage, recovered) = Storage::open(cfg).unwrap();
        assert!(recovered.journal_corrupt_bytes > 0);
        assert!(recovered.events.len() < 4, "corrupt suffix dropped");
        for (i, event) in recovered.events.iter().enumerate() {
            assert_eq!(event, &ev(i as u64 + 1), "clean prefix preserved");
        }
        // The re-opened journal accepts appends after the cut.
        let seq = storage.append(&ev(9));
        storage.sync(seq).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
