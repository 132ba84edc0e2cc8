//! The crash-safe write-ahead session journal.
//!
//! Layout: a 20-byte header (`CFXJ` magic, format version, snapshot
//! epoch, header CRC) followed by length-prefixed, CRC-checksummed
//! event frames ([`codec::append_frame`]). Recovery reads the longest
//! valid frame prefix and truncates whatever a crash tore off
//! mid-write; a frame that is *complete but fails its checksum* is not
//! a tear, it is corruption, and [`scan_journal`] refuses with a typed
//! [`StorageError::Corrupt`] instead of silently dropping acked events
//! (a follower may opt into [`ScanMode::Tolerant`] and re-fetch the
//! corrupt suffix from its primary instead).
//!
//! Durability is **group-committed**: [`Journal::append`] only encodes
//! the frame — `[len][crc][payload]`, in place — at the end of an
//! in-memory pending buffer under a short lock and returns a sequence
//! number — no syscalls, no waiting behind an fsync, no `Vec` of its
//! own, on the request path. A *flush cycle* swaps the pending buffer
//! for a spare and retires it with one `write` + one `fdatasync`, so N
//! concurrent requests share one disk round-trip instead of paying one
//! each. `sync(seq)` blocks until the fsync covering `seq` has
//! completed — the service calls it on `session.commit` (the protocol's
//! durability point) and lets every other op ride the background
//! cadence.
//!
//! ## Who runs a cycle
//!
//! One function, `flush_cycle`, under one lock held from taking the
//! pending buffer until its bytes are written, fsynced and accounted —
//! two takers must not write out of order. It has two callers. The
//! **flusher thread** runs it on a short interval, when kicked
//! ([`Journal::kick_flusher`]) and to drain on drop. A **blocking
//! [`Journal::sync`] caller** that finds no cycle under way *leads* one
//! on its own thread: it was going to sleep until the fsync anyway, so
//! handing the buffer to the flusher and being woken back costs two
//! context switches and buys nothing; when a cycle is under way it
//! kicks and waits, and shares the next with whoever else arrived — the
//! group commit. A caller that must not block never leads: it kicks the
//! flusher and [`watch`](Journal::watch)es for [`Journal::sync_status`].
//! Either way the failure semantics below are the same, because it is
//! the same function.
//!
//! ## The read side
//!
//! [`Journal::read_durable_from`] serves a replication cursor the
//! file's own bytes: one positioned read (on a handle opened once) of
//! the frames past the cursor, each CRC-checked, none decoded — the
//! primary is a file server for its followers, and the follower's
//! [`Journal::append_encoded`] puts the same payload bytes into its own
//! file.
//!
//! ## Fault discipline
//!
//! A failed **write** is retryable: the file is repaired back to its
//! durable length, the failed frames return to the front of the pending
//! buffer, and in-flight [`sync`](Journal::sync) waiters covering them
//! fail with [`SyncError::WriteFailed`] instead of hanging (a later
//! retry may still land the frames — same contract as a quorum
//! timeout: the error says "not durable *yet*", not "lost").
//!
//! A failed **fsync** permanently poisons the journal. After `fdatasync`
//! reports an error, the kernel may have dropped the dirty pages while
//! clearing the error state, so retrying the fsync and seeing success
//! proves nothing about the data (the "fsyncgate" failure mode).
//! A poisoned journal never writes again; every `sync` fails with
//! [`SyncError::Poisoned`]. The only way out is
//! [`Journal::truncate_to_epoch`] — `set_len(0)` + a freshly written
//! and fsynced header is a new file whose entire contents are known
//! good, which is exactly what installing a snapshot produces.
//!
//! The pending buffer is tagged with the journal epoch: snapshot
//! truncation bumps the epoch while holding both locks, so a cycle
//! holding taken-but-unwritten pre-snapshot frames detects the bump and
//! discards them instead of writing them into the new epoch's file.
//!
//! [`codec::append_frame`]: crate::codec::append_frame
//! [`StorageError::Corrupt`]: crate::StorageError::Corrupt

use crate::codec::{self, CodecError, Walk};
use crate::events::{EventView, JournalEvent, SessionEvent};
use crate::spill::AuditSpill;
use crate::vfs::{self, ReadAt, StorageFile, StorageFs};
use crate::watch::{DurableWatch, Waker, Watchers};
use crate::StorageError;
use std::io::{Read, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, TryLockError};
use std::time::{Duration, Instant};

const MAGIC: &[u8; 4] = b"CFXJ";
const VERSION: u32 = 2;
/// Header size: magic + version `u32` + epoch `u64` + header CRC `u32`.
pub const JOURNAL_HEADER: u64 = 20;

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// `StorageFull`, or raw ENOSPC from an OS that predates the kind.
fn is_enospc(e: &std::io::Error) -> bool {
    e.kind() == std::io::ErrorKind::StorageFull || e.raw_os_error() == Some(28)
}

/// How a scan treats a complete-but-corrupt frame (bit rot, as opposed
/// to the torn tail of a crashed append, which is always truncated).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanMode {
    /// Refuse with [`StorageError::Corrupt`] — a primary must never
    /// silently drop events it acknowledged (the default).
    Strict,
    /// Truncate the corrupt suffix to the last valid frame and report
    /// it in [`JournalScan::corrupt_bytes`] — sound only for a replica
    /// that will re-fetch the suffix from its primary.
    Tolerant,
}

/// What a scan of an on-disk journal found.
#[derive(Debug)]
pub struct JournalScan {
    /// Epoch from the header (0 for a fresh/absent file).
    pub epoch: u64,
    /// Events in the valid prefix, in append order.
    pub events: Vec<JournalEvent>,
    /// File length of the valid prefix (header + complete frames).
    pub valid_len: u64,
    /// Bytes past the valid prefix (a torn tail from a crash; 0 when
    /// the journal shut down cleanly).
    pub torn_bytes: u64,
    /// Bytes discarded as *corrupt* (checksum-failed complete frames) —
    /// only ever non-zero under [`ScanMode::Tolerant`].
    pub corrupt_bytes: u64,
}

/// One batch of durable frames served to a replication cursor by
/// [`Journal::read_durable_from`]: the file's own bytes, every payload
/// CRC-checked and none decoded — a frame crosses the replication hop
/// as the bytes the primary journaled.
#[derive(Debug, Default)]
pub struct CursorRead {
    /// Epoch of the journal file the frames came from.
    pub epoch: u64,
    /// Total complete frames durable in this epoch's file — the
    /// primary's position; `durable_events - (offset + len())` is the
    /// reader's remaining lag in events.
    pub durable_events: u64,
    /// File bytes holding the served frames back to back: the first
    /// starts at `first`, each ends where `ends` says (and the next
    /// starts there).
    buf: Vec<u8>,
    first: usize,
    ends: Vec<usize>,
}

impl CursorRead {
    /// No frame yet, at `(epoch, durable_events)`; the buffers keep
    /// their capacity.
    fn reset(&mut self, epoch: u64, durable_events: u64) {
        (self.epoch, self.durable_events, self.first) = (epoch, durable_events, 0);
        self.buf.clear();
        self.ends.clear();
    }

    /// Frames served (none when caught up, or when the epoch changed
    /// under the reader).
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True iff no frame was served.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The served frames' payloads, in journal order, starting at the
    /// requested offset: what [`EventView::parse`] reads in place and
    /// [`Journal::append_encoded`] takes.
    pub fn payloads(&self) -> impl Iterator<Item = &[u8]> {
        let mut start = self.first;
        self.ends.iter().map(move |&end| {
            let payload = &self.buf[start + codec::FRAME_HEADER..end];
            start = end;
            payload
        })
    }

    /// Read whole frames from the file span `start..limit`: `skip` of
    /// them passed over, then up to `max` kept. Returns the file offset
    /// of `buf[0]`.
    ///
    /// Reads are bounded chunks: what the frames still owed should take
    /// at the file's mean frame size (`mean_frame`), at most
    /// [`READ_CHUNK`] and at least the frame being completed — a
    /// follower far behind reads the file about once over its whole
    /// catch-up, not the remainder per pull. A frame that fails its CRC
    /// ends the walk: it is never served.
    fn fill(
        &mut self,
        reader: &dyn ReadAt,
        (start, limit): (u64, u64),
        mut skip: u64,
        max: usize,
        mean_frame: u64,
    ) -> std::io::Result<u64> {
        let (mut base, mut at) = (start, 0);
        while self.ends.len() < max {
            match codec::read_frame(&self.buf[at..]) {
                Ok(Some((_, frame_len))) => {
                    at += frame_len;
                    if skip > 0 {
                        skip -= 1; // length-prefixed: passed over, not kept
                        self.first = at;
                    } else {
                        self.ends.push(at);
                    }
                    continue;
                }
                Ok(None) => {}
                Err(_) => break,
            }
            // The frame at `at` is not whole in `buf` yet.
            let file_at = base + self.buf.len() as u64;
            if file_at >= limit {
                break;
            }
            if self.ends.is_empty() {
                // Nothing kept so far: the bytes passed over can go.
                self.buf.drain(..at);
                base += at as u64;
                (at, self.first) = (0, 0);
            }
            let partial = &self.buf[at..];
            let frame = match partial.first_chunk::<4>() {
                Some(len) => codec::FRAME_HEADER as u64 + u64::from(u32::from_le_bytes(*len)),
                None => codec::FRAME_HEADER as u64,
            };
            let (have, owed) = (partial.len() as u64, skip + (max - self.ends.len()) as u64);
            let want = owed
                .saturating_mul(mean_frame)
                .saturating_sub(have)
                .min(READ_CHUNK)
                .max(frame.saturating_sub(have))
                .min(limit - file_at);
            let old = self.buf.len();
            self.buf.resize(old + want as usize, 0);
            reader.read_exact_at(&mut self.buf[old..], file_at)?;
        }
        Ok(base)
    }
}

/// Most bytes one positioned read of a cursor read asks for, unless a
/// single frame is larger.
const READ_CHUNK: u64 = 64 * 1024;

/// Read and validate `path` without opening it for writing, refusing
/// corrupt frames ([`ScanMode::Strict`]). A missing file scans as an
/// empty epoch-0 journal.
pub fn scan_journal(path: &Path) -> Result<JournalScan, StorageError> {
    scan_journal_with(path, ScanMode::Strict)
}

/// [`scan_journal`] with an explicit corruption policy (used by
/// recovery and `cerfix recover --inspect`; followers scan tolerant).
pub fn scan_journal_with(path: &Path, mode: ScanMode) -> Result<JournalScan, StorageError> {
    let (reader, len) = vfs::read_prefix(path, None)?;
    let mut events = Vec::new();
    let (epoch, walk) = walk_journal(path, reader, len, |event| events.push(event.to_event()))?;
    let rest = len - walk.end;
    let (torn_bytes, corrupt_bytes) = match walk.corrupt {
        None => (rest, 0),
        Some(corrupt) if mode == ScanMode::Strict => return Err(corrupt),
        // Nothing after the first corrupt frame can be trusted.
        Some(_) => (0, rest),
    };
    Ok(JournalScan {
        epoch,
        events,
        valid_len: walk.end,
        torn_bytes,
        corrupt_bytes,
    })
}

/// The journal's one header check and frame walk, shared by recovery and
/// `scrub`: the header's epoch, and where the walk over the `len` bytes
/// of `reader` stopped, each event handed to `event` as read in place
/// (recovery keeps it; `scrub` only needs it checked). A file shorter
/// than a header is the torn first write of a fresh journal (epoch 0,
/// nothing walked). A full-size header that does not verify is
/// corruption at offset 0, in the walk — the header is written and
/// fsynced before any frame — and an unknown format version is refused
/// outright.
pub(crate) fn walk_journal(
    file: &Path,
    mut reader: impl Read,
    len: u64,
    mut event: impl FnMut(EventView<'_>),
) -> Result<(u64, Walk), StorageError> {
    if len < JOURNAL_HEADER {
        return Ok((0, Walk::default()));
    }
    let mut header = [0u8; JOURNAL_HEADER as usize];
    reader.read_exact(&mut header)?;
    let broken = if &header[0..4] != MAGIC {
        Some("bad magic")
    } else {
        let version = u32::from_le_bytes(header[4..8].try_into().unwrap());
        if version != VERSION {
            let detail = format!("format version {version} (this build reads {VERSION})");
            return Err(StorageError::corrupt(file, 4, detail));
        }
        let header_crc = u32::from_le_bytes(header[16..20].try_into().unwrap());
        (codec::crc32(&header[0..16]) != header_crc).then_some("header CRC mismatch")
    };
    if let Some(detail) = broken {
        let corrupt = Some(StorageError::corrupt(file, 0, detail));
        return Ok((
            0,
            Walk {
                corrupt,
                ..Walk::default()
            },
        ));
    }
    let epoch = u64::from_le_bytes(header[8..16].try_into().unwrap());
    let walk = codec::walk_frames(file, reader, JOURNAL_HEADER, len, |_, payload| {
        EventView::parse(payload).map(&mut event)
    })?;
    Ok((epoch, walk))
}

/// Why a [`Journal::sync`] waiter was released without its sequence
/// becoming durable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SyncError {
    /// An fsync failed earlier: the journal is permanently poisoned
    /// (see the module docs) and nothing appended since the last good
    /// fsync is, or will ever be, durable here.
    Poisoned {
        /// The original fsync failure.
        error: String,
    },
    /// The write covering this sequence failed; the frames were
    /// restored to the pending buffer and a later flush may still land
    /// them (retry the sync, or give up — the commit was NOT acked).
    WriteFailed {
        /// The write failure.
        error: String,
        /// True when the failure was ENOSPC — the disk-full signal the
        /// service uses to enter degraded (read-only) mode.
        enospc: bool,
    },
    /// The journal shut down (or simulated a crash) before the
    /// sequence became durable.
    Stopped,
}

impl std::fmt::Display for SyncError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SyncError::Poisoned { error } => write!(f, "journal poisoned: {error}"),
            SyncError::WriteFailed { error, .. } => write!(f, "journal write failed: {error}"),
            SyncError::Stopped => write!(f, "journal stopped before sync"),
        }
    }
}

impl std::error::Error for SyncError {}

/// Failure state shared between the flusher and sync waiters.
enum FailState {
    None,
    WriteFailed { error: String, enospc: bool },
    Poisoned { error: String },
}

/// Encoded-but-unflushed frames. Locked briefly by appenders; a flush
/// cycle swaps the buffer out whole for its spare.
struct Pending {
    buf: Vec<u8>,
    /// Sequence of the next append (seq 0 = "nothing appended").
    next_seq: u64,
    /// Epoch the buffered frames belong to (see module docs).
    epoch: u64,
    /// Complete frames already in the epoch file when it was opened
    /// (sequence numbers restart at 1 per process, file offsets do not).
    base_events: u64,
    /// Sequences consumed before the current epoch file started (a
    /// truncation retires all earlier seqs into the snapshot).
    retired_seqs: u64,
}

/// The file. Held across write+fsync by a flush cycle (and by a
/// truncation or a crash simulation); appenders never touch it, and
/// neither does a reader of the journal's position or health. The
/// audit spill holds its segment the same way.
pub(crate) struct FileState {
    pub(crate) file: Box<dyn StorageFile>,
    /// A write failed: the file may hold un-fsynced partial bytes past
    /// `durable_len` and the cursor position is unknown. The next
    /// attempt truncates back to `durable_len` before writing.
    pub(crate) needs_repair: bool,
}

/// What the file is known to hold. Changed only by a holder of
/// [`FileState`], and never held across I/O — so a
/// health probe, a metrics read or a replication cursor is answered
/// while a flush waits on the disk.
struct FileStatus {
    /// File length guaranteed on disk (fsync'd).
    durable_len: u64,
    /// Complete frames inside `durable_len` — the replication position
    /// `(epoch, durable_events)` a follower cursor advances through.
    durable_events: u64,
    epoch: u64,
    /// After a simulated crash: all writes become no-ops.
    dead: bool,
    /// Most recent write/fsync failure; cleared by a later fully
    /// successful flush (sticky while poisoned).
    error: Option<String>,
}

struct Shared {
    pending: Mutex<Pending>,
    filestate: Mutex<FileState>,
    /// Taken after `filestate` (and `pending`) when both are held.
    status: Mutex<FileStatus>,
    /// Highest sequence number covered by a completed fsync.
    durable_seq: AtomicU64,
    durable_cv: Condvar,
    durable_mutex: Mutex<()>,
    /// Failure the flusher last hit, read by sync waiters.
    fail: Mutex<FailState>,
    /// Highest sequence covered by a *failed* write still pending
    /// retry — waiters at or below it error instead of blocking.
    failed_hi: AtomicU64,
    /// fsync failed: the journal never writes again (module docs).
    poisoned: AtomicBool,
    /// Kicks the flusher out of its interval sleep.
    flush_cv: Condvar,
    flush_mutex: Mutex<bool>,
    /// Held by whoever runs a [`flush_cycle`], from taking the pending
    /// buffer until its bytes are written, fsynced and accounted: two
    /// takers must not write out of order. It guards the spare buffer
    /// the cycle swaps in for the pending one and returns cleared, so
    /// both keep their capacity from cycle to cycle.
    cycle: Mutex<Vec<u8>>,
    stop: AtomicBool,
    /// Total event bytes appended (monotonic; survives truncation).
    bytes_appended: AtomicU64,
    events_appended: AtomicU64,
    /// Flushed+fsynced together with the journal so `sync` is a
    /// durability point for provenance too.
    companion: Mutex<Option<Arc<AuditSpill>>>,
    /// Group-commit telemetry, recorded by each flush cycle.
    flush_stats: FlushStats,
    /// Who to wake when the durable position moves ([`Journal::watch`]).
    watchers: Arc<Watchers>,
    /// Where the last cursor read stopped.
    read_hint: Mutex<ReadHint>,
}

/// The frame boundaries the last cursor read found in epoch `epoch`,
/// where it started and where it stopped, each `(events, byte)`: that
/// event position starts at that file byte. Both, so that two followers
/// reading the same tail in step both start from a boundary. The
/// default, byte 0, is inside the header: no boundary, so never used.
#[derive(Clone, Copy, Default)]
struct ReadHint {
    epoch: u64,
    marks: [(u64, u64); 2],
}

impl Shared {
    /// The durable position moved, or never will again (poisoned,
    /// crashed, stopped): release `sync` waiters and call the watchers.
    /// Never called with a journal lock held.
    fn notify_durable(&self) {
        self.durable_cv.notify_all();
        self.watchers.notify();
    }
}

/// Buckets in the flush-profile histograms: bucket `i` covers
/// `[2^i, 2^(i+1))` (nanoseconds, or events per flush).
const FLUSH_BUCKETS: usize = 32;

/// Lock-free flush telemetry: how long each group fsync took and how
/// many events it retired. Written by whoever runs the cycle; readers
/// snapshot via [`Journal::flush_profile`].
struct FlushStats {
    fsync_ns: [AtomicU64; FLUSH_BUCKETS],
    fsync_ns_total: AtomicU64,
    batch_events: [AtomicU64; FLUSH_BUCKETS],
    batch_events_total: AtomicU64,
    flushes: AtomicU64,
}

impl FlushStats {
    fn new() -> FlushStats {
        FlushStats {
            fsync_ns: std::array::from_fn(|_| AtomicU64::new(0)),
            fsync_ns_total: AtomicU64::new(0),
            batch_events: std::array::from_fn(|_| AtomicU64::new(0)),
            batch_events_total: AtomicU64::new(0),
            flushes: AtomicU64::new(0),
        }
    }

    fn record(&self, fsync: Duration, events: u64) {
        let ns = fsync.as_nanos().max(1) as u64;
        self.fsync_ns[bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
        self.fsync_ns_total.fetch_add(ns, Ordering::Relaxed);
        self.batch_events[bucket_of(events.max(1))].fetch_add(1, Ordering::Relaxed);
        self.batch_events_total.fetch_add(events, Ordering::Relaxed);
        self.flushes.fetch_add(1, Ordering::Relaxed);
    }
}

fn bucket_of(value: u64) -> usize {
    (63 - value.max(1).leading_zeros() as usize).min(FLUSH_BUCKETS - 1)
}

/// A point-in-time copy of the journal's group-commit profile: how
/// many flush cycles wrote to disk, the fsync-latency distribution and
/// the events-per-flush (group-commit batch size) distribution.
/// Buckets are `(exclusive upper bound, count)` pairs covering
/// `[2^i, 2^(i+1))`.
#[derive(Debug, Clone, Default)]
pub struct FlushProfile {
    /// Flush cycles that performed a write + fsync.
    pub flushes: u64,
    /// fsync (write + fdatasync) latency histogram, nanoseconds.
    pub fsync_ns_buckets: Vec<(u64, u64)>,
    /// Sum of all fsync latencies, nanoseconds.
    pub fsync_ns_total: u64,
    /// Events retired per flush cycle (the group-commit batch size).
    pub batch_events_buckets: Vec<(u64, u64)>,
    /// Total events retired through recorded flushes.
    pub batch_events_total: u64,
}

/// The write-ahead journal: lock-light appends, group-fsync flusher.
pub struct Journal {
    shared: Arc<Shared>,
    path: PathBuf,
    /// The read side of [`read_durable_from`](Self::read_durable_from),
    /// opened once: `truncate_to_epoch` rewrites the same inode, so the
    /// handle outlives every epoch.
    reader: Box<dyn ReadAt>,
    flusher: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Journal")
            .field("path", &self.path)
            .field("epoch", &self.epoch())
            .field("bytes_appended", &self.bytes_appended())
            .finish()
    }
}

fn write_header(file: &mut dyn StorageFile, epoch: u64) -> std::io::Result<()> {
    file.set_len(0)?;
    file.seek(SeekFrom::Start(0))?;
    let mut header = Vec::with_capacity(JOURNAL_HEADER as usize);
    header.extend_from_slice(MAGIC);
    header.extend_from_slice(&VERSION.to_le_bytes());
    header.extend_from_slice(&epoch.to_le_bytes());
    let crc = codec::crc32(&header);
    header.extend_from_slice(&crc.to_le_bytes());
    file.write_all(&header)
}

impl Journal {
    /// Open `path` for appending after `scan` validated it: the torn
    /// tail (if any) is truncated, the header is (re)written when the
    /// file is fresh or its epoch differs from `epoch`, and the flusher
    /// thread starts with the given group-commit interval.
    pub fn open(
        path: &Path,
        scan: &JournalScan,
        epoch: u64,
        flush_interval: Duration,
        fs: &Arc<dyn StorageFs>,
    ) -> std::io::Result<Journal> {
        let mut file = fs.open_rw(path)?;
        let (start_len, start_events) = if scan.epoch == epoch && scan.valid_len >= JOURNAL_HEADER {
            file.set_len(scan.valid_len)?; // drop the torn/corrupt tail
            file.seek(SeekFrom::Start(scan.valid_len))?;
            (scan.valid_len, scan.events.len() as u64)
        } else {
            // Fresh file, stale epoch (snapshot landed but truncation
            // didn't), or unrecognized content: start an empty journal
            // at the requested epoch.
            write_header(file.as_mut(), epoch)?;
            (JOURNAL_HEADER, 0)
        };
        file.sync_data()?;
        let reader = Box::new(std::fs::File::open(path)?);
        let shared = Arc::new(Shared {
            pending: Mutex::new(Pending {
                buf: Vec::new(),
                next_seq: 1,
                epoch,
                base_events: start_events,
                retired_seqs: 0,
            }),
            filestate: Mutex::new(FileState {
                file,
                needs_repair: false,
            }),
            status: Mutex::new(FileStatus {
                durable_len: start_len,
                durable_events: start_events,
                epoch,
                dead: false,
                error: None,
            }),
            durable_seq: AtomicU64::new(0),
            durable_cv: Condvar::new(),
            durable_mutex: Mutex::new(()),
            fail: Mutex::new(FailState::None),
            failed_hi: AtomicU64::new(0),
            poisoned: AtomicBool::new(false),
            flush_cv: Condvar::new(),
            flush_mutex: Mutex::new(false),
            cycle: Mutex::new(Vec::new()),
            stop: AtomicBool::new(false),
            bytes_appended: AtomicU64::new(0),
            events_appended: AtomicU64::new(0),
            companion: Mutex::new(None),
            flush_stats: FlushStats::new(),
            watchers: Arc::default(),
            read_hint: Mutex::new(ReadHint::default()),
        });
        let flusher_shared = Arc::clone(&shared);
        let flusher = std::thread::Builder::new()
            .name("cerfix-journal-flush".into())
            .spawn(move || flusher_loop(&flusher_shared, flush_interval))
            .expect("spawn journal flusher");
        Ok(Journal {
            shared,
            path: path.to_path_buf(),
            reader,
            flusher: Some(flusher),
        })
    }

    /// Append one event to the pending buffer; returns its sequence
    /// number for [`sync`](Self::sync). No disk I/O on this path: the
    /// frame is encoded in place at the end of the buffer.
    pub fn append(&self, event: &JournalEvent) -> u64 {
        self.push(|buf| codec::append_frame(buf, |enc| event.encode_into(enc)))
    }

    /// [`append`](Self::append) for a session event borrowing the values
    /// its writer holds; the frame is the owned event's.
    pub fn append_session(&self, event: SessionEvent<'_>) -> u64 {
        self.push(|buf| codec::append_frame(buf, |enc| event.encode_into(enc)))
    }

    /// [`append`](Self::append) for an event that is already a frame
    /// payload — what a follower was sent.
    pub fn append_encoded(&self, payload: &[u8]) -> u64 {
        self.push(|buf| {
            buf.extend_from_slice(&codec::frame_header(payload));
            buf.extend_from_slice(payload);
            codec::FRAME_HEADER + payload.len()
        })
    }

    /// Write one frame into the pending buffer with `write` (which
    /// returns the frame's length) and number it.
    fn push(&self, write: impl FnOnce(&mut Vec<u8>) -> usize) -> u64 {
        let (seq, framed) = {
            let mut pending = lock(&self.shared.pending);
            let seq = pending.next_seq;
            pending.next_seq += 1;
            (seq, write(&mut pending.buf))
        };
        self.shared
            .bytes_appended
            .fetch_add(framed as u64, Ordering::Relaxed);
        self.shared.events_appended.fetch_add(1, Ordering::Relaxed);
        // No flusher kick: the event rides the next interval cycle (or
        // an explicit `sync`). Kicking per append would degenerate group
        // commit into fsync-per-request under light load.
        seq
    }

    /// Ask the flusher for a cycle now instead of at its next interval:
    /// what a waiter that cannot block does before it starts to
    /// [`watch`](Self::watch) for [`sync_status`](Self::sync_status).
    pub fn kick_flusher(&self) {
        let mut kicked = lock(&self.shared.flush_mutex);
        *kicked = true;
        self.shared.flush_cv.notify_one();
    }

    /// The current failure verdict for a waiter on `seq`, if any.
    fn sync_failure(&self, seq: u64) -> Option<SyncError> {
        match &*lock(&self.shared.fail) {
            FailState::None => None,
            FailState::Poisoned { error } => Some(SyncError::Poisoned {
                error: error.clone(),
            }),
            FailState::WriteFailed { error, enospc }
                if self.shared.failed_hi.load(Ordering::Acquire) >= seq =>
            {
                Some(SyncError::WriteFailed {
                    error: error.clone(),
                    enospc: *enospc,
                })
            }
            FailState::WriteFailed { .. } => None,
        }
    }

    /// What [`sync`](Self::sync) would return for `seq` if it returned
    /// now: `None` while the covering fsync is still to come. Every
    /// change of this answer calls the [`watch`](Self::watch)ers.
    pub fn sync_status(&self, seq: u64) -> Option<Result<(), SyncError>> {
        if self.shared.durable_seq.load(Ordering::Acquire) >= seq {
            return Some(Ok(()));
        }
        if let Some(err) = self.sync_failure(seq) {
            return Some(Err(err));
        }
        let stopped = self.shared.stop.load(Ordering::Acquire);
        stopped.then_some(Err(SyncError::Stopped))
    }

    /// Block until the fsync covering `seq` has completed (the group
    /// commit). Returns immediately if already durable; returns a typed
    /// error — never hangs — when the journal poisoned, the covering
    /// write failed, or the journal stopped first.
    ///
    /// The caller blocks either way, so when no cycle is running it
    /// *leads* one on its own thread — no hand-off to the flusher and
    /// back — and only waits on the flusher when a cycle is under way
    /// (that cycle may have taken the buffer before `seq` was in it;
    /// the kick has the flusher run the next).
    pub fn sync(&self, seq: u64) -> Result<(), SyncError> {
        if self.shared.durable_seq.load(Ordering::Acquire) >= seq {
            return Ok(());
        }
        if !self.shared.stop.load(Ordering::Acquire) {
            let free = match self.shared.cycle.try_lock() {
                Ok(cycle) => Some(cycle),
                Err(TryLockError::Poisoned(cycle)) => Some(cycle.into_inner()),
                Err(TryLockError::WouldBlock) => None,
            };
            match free {
                Some(cycle) => _ = flush_cycle(&self.shared, cycle),
                None => self.kick_flusher(),
            }
        }
        let mut guard = lock(&self.shared.durable_mutex);
        loop {
            if let Some(verdict) = self.sync_status(seq) {
                return verdict;
            }
            let (g, _) = self
                .shared
                .durable_cv
                .wait_timeout(guard, Duration::from_millis(50))
                .unwrap_or_else(PoisonError::into_inner);
            guard = g;
        }
    }

    /// Register the audit spill flushed+fsynced on every journal flush
    /// cycle, making [`sync`](Self::sync) a durability point for
    /// provenance records too.
    pub fn set_companion(&self, spill: Arc<AuditSpill>) {
        *lock(&self.shared.companion) = Some(spill);
    }

    /// The current snapshot epoch in the header.
    pub fn epoch(&self) -> u64 {
        lock(&self.shared.status).epoch
    }

    /// Total event bytes appended since open (monotonic).
    pub fn bytes_appended(&self) -> u64 {
        self.shared.bytes_appended.load(Ordering::Relaxed)
    }

    /// Total events appended since open (monotonic).
    pub fn events_appended(&self) -> u64 {
        self.shared.events_appended.load(Ordering::Relaxed)
    }

    /// Snapshot the group-commit flush profile (fsync latency and
    /// batch-size histograms). Buckets with zero counts are included so
    /// consumers can render full distributions.
    pub fn flush_profile(&self) -> FlushProfile {
        let stats = &self.shared.flush_stats;
        let histogram = |buckets: &[AtomicU64; FLUSH_BUCKETS]| -> Vec<(u64, u64)> {
            buckets
                .iter()
                .enumerate()
                .map(|(i, b)| (1u64 << (i + 1).min(63), b.load(Ordering::Relaxed)))
                .collect()
        };
        FlushProfile {
            flushes: stats.flushes.load(Ordering::Relaxed),
            fsync_ns_buckets: histogram(&stats.fsync_ns),
            fsync_ns_total: stats.fsync_ns_total.load(Ordering::Relaxed),
            batch_events_buckets: histogram(&stats.batch_events),
            batch_events_total: stats.batch_events_total.load(Ordering::Relaxed),
        }
    }

    /// File length guaranteed on disk — what a kill-9 plus a lost page
    /// cache could roll the file back to.
    pub fn durable_len(&self) -> u64 {
        lock(&self.shared.status).durable_len
    }

    /// The replication position: `(epoch, durable event count)` read
    /// atomically. A follower whose cursor equals this is caught up.
    pub fn durable_position(&self) -> (u64, u64) {
        let status = lock(&self.shared.status);
        (status.epoch, status.durable_events)
    }

    /// Call `waker` each time the durable position `(epoch, events)`
    /// moves — a group fsync, a snapshot truncation — or the journal
    /// poisons, crashes or stops, until the returned watch is dropped.
    /// The waker carries no state: the watcher re-reads
    /// [`durable_position`](Self::durable_position), so it must register
    /// first and look second, or a move between the two is missed. It
    /// runs on whichever thread moved the position (the flusher, or a
    /// `sync` caller leading its cycle) with no journal lock held.
    pub fn watch(&self, waker: Waker) -> DurableWatch {
        self.shared.watchers.register(waker)
    }

    /// Call every watcher now: something outside the journal that they
    /// also wait on has changed (the server drains or shuts down).
    pub fn wake_watchers(&self) {
        self.shared.notify_durable();
    }

    /// The epoch-file position that covers `seq`: the number of events
    /// the epoch file holds once `seq` is durable. Sequence numbers
    /// restart at 1 per process while file offsets persist across
    /// restarts, so replication cursors speak positions, not seqs.
    pub fn position_of(&self, seq: u64) -> u64 {
        let pending = lock(&self.shared.pending);
        pending.base_events + seq.saturating_sub(pending.retired_seqs)
    }

    /// Read up to `max` durable frames starting at epoch-file position
    /// `offset` — the primary side of `replica.sync`. Only complete,
    /// fsync-covered frames are served, CRC-checked and never decoded;
    /// a concurrent snapshot truncation yields an empty batch at the new
    /// epoch (the caller re-cursors).
    ///
    /// A follower reads in order, so each read remembers where it
    /// stopped (a `ReadHint`) and the next starts there, with one
    /// positioned read on the handle [`open`](Self::open) opened: a sync
    /// costs the bytes it serves, not the length of the journal. The
    /// frames land in `read`, which keeps its buffers' capacity from one
    /// read to the next: a reader that keeps one allocates nothing once
    /// it has held its largest batch.
    pub fn read_durable_from(
        &self,
        offset: u64,
        max: usize,
        read: &mut CursorRead,
    ) -> std::io::Result<()> {
        for _ in 0..3 {
            let durable_len = {
                let status = lock(&self.shared.status);
                read.reset(status.epoch, status.durable_events);
                status.durable_len
            };
            if offset >= read.durable_events || max == 0 {
                return Ok(());
            }
            // The durable prefix of an epoch file only ever grows, so a
            // frame boundary found once stays one until the epoch ends.
            let hint = *lock(&self.shared.read_hint);
            let mark = hint.marks.into_iter().rfind(|&(events, byte)| {
                hint.epoch == read.epoch
                    && events <= offset
                    && (JOURNAL_HEADER..=durable_len).contains(&byte)
            });
            let (skipped, start) = mark.unwrap_or((0, JOURNAL_HEADER));
            let mean_frame = (durable_len - JOURNAL_HEADER).div_ceil(read.durable_events);
            let span = (start, durable_len);
            let filled = read.fill(&*self.reader, span, offset - skipped, max, mean_frame);
            // Behind any truncation under way, which publishes its epoch
            // only once its I/O is done.
            let file = lock(&self.shared.filestate);
            let epoch = lock(&self.shared.status).epoch;
            drop(file);
            if epoch != read.epoch {
                // Truncated to a new epoch while we read: these bytes
                // (or this short read) are not this epoch's prefix.
                // Retry on the fresh state.
                continue;
            }
            let base = filled?;
            let Some(&last) = read.ends.last() else {
                if mark.is_none() {
                    return Ok(());
                }
                // Owed frames and found none: never start there again.
                *lock(&self.shared.read_hint) = ReadHint::default();
                continue;
            };
            let served = offset + read.len() as u64;
            *lock(&self.shared.read_hint) = ReadHint {
                epoch: read.epoch,
                marks: [
                    (offset, base + read.first as u64),
                    (served, base + last as u64),
                ],
            };
            return Ok(());
        }
        let (epoch, durable_events) = self.durable_position();
        read.reset(epoch, durable_events);
        Ok(())
    }

    /// Most recent journal write/fsync failure, if any. Write failures
    /// clear once a later flush fully succeeds (the frames were retried
    /// and landed); a poison failure is sticky until a snapshot
    /// truncation rebuilds the file.
    pub fn last_error(&self) -> Option<String> {
        lock(&self.shared.status).error.clone()
    }

    /// The poison failure, when an fsync error has permanently stopped
    /// this journal writing (see the module docs for why there is no
    /// retry). `None` while healthy.
    pub fn poisoned(&self) -> Option<String> {
        if !self.shared.poisoned.load(Ordering::Acquire) {
            return None;
        }
        match &*lock(&self.shared.fail) {
            FailState::Poisoned { error } => Some(error.clone()),
            _ => Some("journal poisoned".to_string()),
        }
    }

    /// True while the flusher thread is running and the journal file is
    /// accepting writes — the journal half of a liveness probe. False
    /// after shutdown or a (simulated) crash.
    pub fn is_alive(&self) -> bool {
        !self.shared.stop.load(Ordering::Acquire) && !lock(&self.shared.status).dead
    }

    /// Discard every journaled event and start epoch `new_epoch`: the
    /// snapshot carrying that epoch now owns all prior state. The caller
    /// (the service's snapshot path) must have quiesced appends — any
    /// pending bytes are dropped, which is only sound because the
    /// snapshot captured the state they produced.
    ///
    /// This is also the only exit from the poisoned state: `set_len(0)`
    /// plus a freshly written and fsynced header is a file whose entire
    /// contents are known good, unlike any retry against the old bytes.
    pub fn truncate_to_epoch(&self, new_epoch: u64) -> std::io::Result<()> {
        let mut filestate = lock(&self.shared.filestate);
        let mut pending = lock(&self.shared.pending);
        if lock(&self.shared.status).dead {
            return Ok(());
        }
        let retired = pending.next_seq.saturating_sub(1);
        pending.buf.clear();
        pending.epoch = new_epoch;
        pending.base_events = 0;
        pending.retired_seqs = retired;
        drop(pending);
        let rebuilt = write_header(filestate.file.as_mut(), new_epoch)
            .and_then(|()| filestate.file.sync_data());
        if let Err(e) = rebuilt {
            // The old content is gone and the new header may be partial
            // or un-fsynced: nothing about this file is trustworthy.
            // Poison so no later flush writes into it (recovery is safe
            // either way: the snapshot owns the state).
            let msg = format!("journal rebuild failed: {e}");
            lock(&self.shared.status).error = Some(msg.clone());
            self.shared.poisoned.store(true, Ordering::Release);
            *lock(&self.shared.fail) = FailState::Poisoned { error: msg };
            drop(filestate);
            self.shared.durable_seq.fetch_max(retired, Ordering::AcqRel);
            self.shared.notify_durable();
            return Err(e);
        }
        // set_len(0) + fresh fsynced header put the file in a known-good
        // state: clear repair, error and poison.
        *lock(&self.shared.status) = FileStatus {
            durable_len: JOURNAL_HEADER,
            durable_events: 0,
            epoch: new_epoch,
            dead: false,
            error: None,
        };
        filestate.needs_repair = false;
        drop(filestate);
        self.shared.poisoned.store(false, Ordering::Release);
        *lock(&self.shared.fail) = FailState::None;
        self.shared.failed_hi.store(0, Ordering::Release);
        // Everything up to `retired` is trivially durable now (the
        // snapshot holds it); release any sync waiters.
        self.shared.durable_seq.fetch_max(retired, Ordering::AcqRel);
        self.shared.notify_durable();
        Ok(())
    }

    /// Simulate a kill-9 with a cold page cache: drop all pending bytes,
    /// truncate the file back to the last fsync'd length, and make every
    /// later write a no-op. Crash-recovery tests use this to model the
    /// worst legal outcome of a real crash.
    pub fn simulate_crash(&self) -> std::io::Result<()> {
        let mut filestate = lock(&self.shared.filestate);
        let mut pending = lock(&self.shared.pending);
        pending.buf.clear();
        let retired = pending.next_seq.saturating_sub(1);
        drop(pending);
        let durable = {
            let mut status = lock(&self.shared.status);
            status.dead = true;
            status.durable_len
        };
        filestate.file.set_len(durable)?;
        filestate.file.sync_data()?;
        drop(filestate);
        self.shared.stop.store(true, Ordering::Release);
        // Release sync() waiters: their events are gone, but nobody
        // should hang inside a crashed process simulation.
        self.shared.durable_seq.fetch_max(retired, Ordering::AcqRel);
        self.kick_flusher();
        self.shared.notify_durable();
        Ok(())
    }

    /// The journal file path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Which half of the durability pair failed — a write error is
/// retryable after repair, an fsync error poisons the writer.
pub(crate) enum WriteFault {
    Write(std::io::Error),
    Fsync(std::io::Error),
}

/// Append `bytes` and fsync — the one durable writer of the journal and
/// the audit spill. The file is first repaired back to `durable_len` if
/// an earlier attempt failed partway (partial un-fsynced bytes, unknown
/// cursor), and a failed write marks it for that repair. The caller
/// advances `durable_len` only on full success.
pub(crate) fn write_durable(
    filestate: &mut FileState,
    durable_len: u64,
    bytes: &[u8],
) -> Result<(), WriteFault> {
    if filestate.needs_repair {
        let repaired = filestate
            .file
            .set_len(durable_len)
            .and_then(|()| filestate.file.seek(SeekFrom::Start(durable_len)));
        match repaired {
            Ok(_) => filestate.needs_repair = false,
            Err(e) => return Err(WriteFault::Write(e)),
        }
    }
    if let Err(e) = filestate.file.write_all(bytes) {
        filestate.needs_repair = true;
        return Err(WriteFault::Write(e));
    }
    filestate.file.sync_data().map_err(WriteFault::Fsync)
}

/// One group-commit cycle: retire the whole pending buffer with one
/// `write` + one `fdatasync`, then release the waiters it covers. Run by
/// the flusher thread (interval, kick, drain) and by a blocking
/// [`Journal::sync`] caller that found no cycle under way; `cycle` is
/// the lock that makes them take turns. Returns true when the cycle
/// failed: frames restored to pending, or discarded by a poisoned
/// journal.
fn flush_cycle(shared: &Shared, mut cycle: MutexGuard<'_, Vec<u8>>) -> bool {
    // Swap the pending buffer out whole for the (empty) spare,
    // remembering which epoch it belongs to and the highest sequence it
    // covers.
    let bytes = &mut *cycle;
    let (seq_hi, epoch_at_take) = {
        let mut pending = lock(&shared.pending);
        std::mem::swap(&mut pending.buf, bytes);
        (pending.next_seq - 1, pending.epoch)
    };
    // `retired`: the frames no longer need writing (fsync'd, or
    // owned by a snapshot / crash sim) — only then may durable_seq
    // advance and commit waiters be released. A FAILED write must
    // not ack: the bytes go back to the front of the pending buffer
    // and the commit waiter gets a typed error (it may retry the
    // sync; a later cycle can still land the frames). A failed
    // FSYNC poisons the journal outright — after fdatasync reports
    // an error the page-cache state is unknowable, so "retry and
    // see it succeed" could ack data the kernel already dropped.
    let bytes_were_empty = bytes.is_empty();
    let mut retired = false;
    let mut failed = false;
    if !bytes.is_empty() {
        let mut filestate = lock(&shared.filestate);
        let (dead, epoch, durable_len) = {
            let status = lock(&shared.status);
            (status.dead, status.epoch, status.durable_len)
        };
        if dead || epoch != epoch_at_take {
            // Crash sim, or a snapshot truncation between take and
            // here retagged the epoch: these frames are already
            // owned elsewhere — discard and retire.
            retired = true;
        } else if shared.poisoned.load(Ordering::Acquire) {
            // Poisoned: discard, never write. Waiters observe the
            // poison through sync()'s failure check.
            failed = true;
        } else {
            let flush_started = Instant::now();
            match write_durable(&mut filestate, durable_len, bytes) {
                Ok(()) => {
                    retired = true;
                    // Batch size: events this fsync newly covered.
                    let events = seq_hi.saturating_sub(shared.durable_seq.load(Ordering::Acquire));
                    let mut status = lock(&shared.status);
                    status.durable_len += bytes.len() as u64;
                    status.durable_events += events;
                    // A fully successful flush clears any earlier
                    // transient write failure (the retry landed).
                    status.error = None;
                    drop(status);
                    shared.flush_stats.record(flush_started.elapsed(), events);
                    *lock(&shared.fail) = FailState::None;
                    shared.failed_hi.store(0, Ordering::Release);
                }
                Err(WriteFault::Write(e)) => {
                    failed = true;
                    lock(&shared.status).error = Some(e.to_string());
                    *lock(&shared.fail) = FailState::WriteFailed {
                        error: e.to_string(),
                        enospc: is_enospc(&e),
                    };
                    shared.failed_hi.fetch_max(seq_hi, Ordering::AcqRel);
                    drop(filestate);
                    // Restore order: failed frames precede anything
                    // appended since the take — unless a truncation
                    // retired them while the write was failing.
                    let mut pending = lock(&shared.pending);
                    if pending.epoch == epoch_at_take {
                        bytes.extend_from_slice(&pending.buf);
                        std::mem::swap(&mut pending.buf, bytes);
                    } else {
                        retired = true;
                        failed = false;
                    }
                }
                Err(WriteFault::Fsync(e)) => {
                    failed = true;
                    let msg = format!(
                        "fdatasync failed ({e}); journal poisoned — \
                         page-cache state unknown, no retry"
                    );
                    lock(&shared.status).error = Some(msg.clone());
                    // durable_len stays where the last good fsync
                    // left it; the bytes written above are dropped
                    // on the floor along with all pending frames.
                    shared.poisoned.store(true, Ordering::Release);
                    *lock(&shared.fail) = FailState::Poisoned { error: msg };
                }
            }
        }
    }
    // Companion (audit spill) rides every cycle, not just ones with
    // journal traffic: batch cleans produce audit records without
    // journal events. A no-op when its buffer is empty. Its result is
    // not the waiters': a spill failure never fails a commit, and
    // parks in the spill's own status for the service to read.
    let companion = lock(&shared.companion).clone();
    if let Some(spill) = companion {
        let _ = spill.sync();
    }
    let covered = !bytes_were_empty && retired;
    if covered {
        shared.durable_seq.fetch_max(seq_hi, Ordering::AcqRel);
    }
    // Written, discarded or copied back to pending: either way the
    // spare goes back empty, its capacity kept for the next swap.
    bytes.clear();
    // The next taker counts its batch from `durable_seq`: set, then
    // let it in — and wake nobody with a journal lock held. A failure
    // wakes waiters too, so they observe the typed error now instead
    // of at their next 50 ms poll.
    drop(cycle);
    if covered || failed {
        shared.notify_durable();
    }
    failed
}

fn flusher_loop(shared: &Shared, interval: Duration) {
    loop {
        // An interval or a kick, whichever is first; a stopping journal
        // drains without pausing.
        if !shared.stop.load(Ordering::Acquire) {
            let guard = lock(&shared.flush_mutex);
            let mut guard = if *guard {
                guard
            } else {
                shared
                    .flush_cv
                    .wait_timeout(guard, interval)
                    .unwrap_or_else(PoisonError::into_inner)
                    .0
            };
            *guard = false;
        }
        let failed = flush_cycle(shared, lock(&shared.cycle));
        if shared.stop.load(Ordering::Acquire) {
            let drained = lock(&shared.pending).buf.is_empty();
            // Drain what arrived between take and stop — but if the disk
            // is failing (frames restored to pending) or the journal is
            // poisoned, give up instead of retrying forever inside Drop.
            if drained || failed {
                shared.notify_durable();
                return;
            }
        }
    }
}

impl Drop for Journal {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        self.kick_flusher();
        if let Some(handle) = self.flusher.take() {
            let _ = handle.join();
        }
    }
}

/// Convenience for tests and inspection: decode the events currently on
/// disk (valid prefix only, strict mode).
pub fn read_events(path: &Path) -> Result<Vec<JournalEvent>, CodecError> {
    scan_journal(path)
        .map(|scan| scan.events)
        .map_err(|e| CodecError(e.to_string()))
}

#[cfg(test)]
mod tests;
