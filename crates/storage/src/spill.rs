//! The audit spill: cell-level provenance archived to disk.
//!
//! An append-only segment file (`CFXA` header + CRC-framed
//! [`AuditRecord`]s) with an in-memory offset index for ranged reads —
//! the one copy of every record behind a journaled [`AuditLog`], which
//! keeps none resident: the spill is its window. Unlike the journal,
//! the segment is **never truncated by snapshots**:
//! it is the full provenance history the paper's auditing module
//! promises ("keeps track of changes to each tuple"), served over the
//! wire by the `audit.read` protocol op.
//!
//! Its state is split the way the journal's is: appends frame each
//! record in place into a buffer and extend the offset index under a
//! short lock; [`AuditSpill::sync`] (run by the journal's group-commit
//! cycle, and at durability points) holds the file under a lock of its
//! own while it writes and fsyncs a copy of that buffer through the
//! journal's durable writer; the durable length and errors sit in a
//! status never held across I/O. So a stuck disk stalls only the next
//! sync. The fault rules are the journal's (see the crate docs), and on
//! open a torn tail is cut while a corrupt frame or header refuses the
//! open, the file untouched.
//!
//! [`AuditLog`]: cerfix::AuditLog

use crate::codec::{self, Walk};
use crate::events::{decode_audit_record, put_audit_record};
use crate::journal::{write_durable, FileState, WriteFault};
use crate::vfs::{ReadAt, StorageFs};
use crate::StorageError;
use cerfix::{AuditRecord, AuditSink};
use std::io::Read;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, PoisonError};

const MAGIC: &[u8; 4] = b"CFXA";
const VERSION: u32 = 1;
/// Header size: the magic and the format version, a `u32` LE.
pub(crate) const SEGMENT_HEADER: u64 = 8;

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The segment's one header check and record walk, shared by
/// [`AuditSpill::open`] and `scrub`: where the walk over the `len` bytes
/// of `reader` stopped, each record's frame offset handed to `record`.
/// A file shorter than a header is a fresh segment or its torn first
/// write (nothing walked); a full-size header that does not verify is
/// corruption.
pub(crate) fn walk_segment(
    file: &Path,
    mut reader: impl Read,
    len: u64,
    mut record: impl FnMut(u64),
) -> Result<Walk, StorageError> {
    if len < SEGMENT_HEADER {
        return Ok(Walk::default());
    }
    let mut header = [0u8; SEGMENT_HEADER as usize];
    reader.read_exact(&mut header)?;
    if &header[0..4] != MAGIC {
        return Err(StorageError::corrupt(file, 0, "bad magic"));
    }
    let version = u32::from_le_bytes(header[4..8].try_into().unwrap());
    if version != VERSION {
        let detail = format!("format version {version} (this build reads {VERSION})");
        return Err(StorageError::corrupt(file, 4, detail));
    }
    let walk = codec::walk_frames(file, reader, SEGMENT_HEADER, len, |at, payload| {
        decode_audit_record(payload).map(|_| record(at))
    })?;
    Ok(walk)
}

/// Appends and the offset index: locked briefly, never across I/O.
struct Appends {
    /// Byte offset of every record's frame, durable or buffered.
    offsets: Vec<u64>,
    /// Encoded frames not yet durable: the segment's last bytes.
    buffer: Vec<u8>,
    /// Segment offset the next frame goes to.
    next: u64,
    /// Poisoned, or crashed (simulated): appends are refused and
    /// nothing more is written.
    closed: bool,
}

/// What the segment is known to hold. Never held across I/O.
struct SpillStatus {
    /// Segment bytes guaranteed on disk (fsync'd).
    durable_len: u64,
    /// Most recent write/fsync failure. A write failure clears when a
    /// later sync lands the buffer; a poisoning fsync failure stays.
    error: Option<String>,
    /// Failed syncs since open.
    write_errors: u64,
}

/// The audit spill segment. Implements [`AuditSink`], so an
/// [`AuditLog`](cerfix::AuditLog) over it records and reads through it.
pub struct AuditSpill {
    appends: Mutex<Appends>,
    /// The segment, and the copy of the buffer being written, held
    /// across write + fsync.
    io: Mutex<(FileState, Vec<u8>)>,
    status: Mutex<SpillStatus>,
    /// Page reads of durable records, off the write handle and the locks.
    reader: Box<dyn ReadAt>,
    /// Records already in the segment when it was opened.
    recovered: usize,
    path: PathBuf,
}

impl std::fmt::Debug for AuditSpill {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AuditSpill")
            .field("path", &self.path)
            .field("records", &self.len())
            .field("durable_len", &self.durable_len())
            .finish()
    }
}

/// What opening a segment found (diagnostics for `recover --inspect`).
#[derive(Debug, Clone, Copy)]
pub struct SpillScan {
    /// Complete records recovered from the segment.
    pub records: usize,
    /// Torn tail bytes discarded.
    pub torn_bytes: u64,
}

impl AuditSpill {
    /// Open (or create) the segment at `path`: walk it to rebuild the
    /// offset index, then cut a torn tail, or write a fresh segment's
    /// header, through the durable writer every later sync uses. A
    /// corrupt header or frame refuses the open with
    /// [`StorageError::Corrupt`] and leaves the file as it was. The walk
    /// streams the file with one reusable payload buffer: the archive
    /// grows without bound by design, so startup memory must not grow
    /// with it (the index itself costs 8 bytes per record).
    pub fn open(
        path: &Path,
        fs: &Arc<dyn StorageFs>,
    ) -> Result<(AuditSpill, SpillScan), StorageError> {
        let file = fs.open_rw(path)?;
        let len = file.file_len()?;
        let reader = std::fs::File::open(path)?;
        let mut offsets = Vec::new();
        let walk = walk_segment(path, std::io::BufReader::new(&reader), len, |at| {
            offsets.push(at)
        })?;
        if let Some(corrupt) = walk.corrupt {
            return Err(corrupt);
        }
        let header = match walk.end {
            0 => [MAGIC.as_slice(), &VERSION.to_le_bytes()].concat(),
            _ => Vec::new(),
        };
        let mut io = FileState {
            file,
            needs_repair: true,
        };
        write_durable(&mut io, walk.end, &header)
            .map_err(|(WriteFault::Write(e) | WriteFault::Fsync(e))| e)?;
        let durable_len = walk.end + header.len() as u64;
        let scan = SpillScan {
            records: offsets.len(),
            torn_bytes: len - walk.end,
        };
        let spill = AuditSpill {
            appends: Mutex::new(Appends {
                offsets,
                buffer: Vec::new(),
                next: durable_len,
                closed: false,
            }),
            io: Mutex::new((io, Vec::new())),
            status: Mutex::new(SpillStatus {
                durable_len,
                error: None,
                write_errors: 0,
            }),
            reader: Box::new(reader),
            recovered: scan.records,
            path: path.to_path_buf(),
        };
        Ok((spill, scan))
    }

    /// Write and fsync everything buffered. Called by the journal's
    /// group-commit cycle; cheap when nothing is pending. Appends and
    /// reads go on while it waits on the disk. On success the synced
    /// frames leave the buffer, which keeps its capacity; a failed
    /// write leaves them there (still readable) for the next sync to
    /// retry, and a failed fsync poisons the spill. A poisoned or
    /// crashed spill writes nothing more, so its sync is `Ok` with
    /// nothing done: the loss is reported by
    /// [`last_error`](Self::last_error).
    pub fn sync(&self) -> std::io::Result<()> {
        let mut io = lock(&self.io);
        let (file, batch) = &mut *io;
        {
            let appends = lock(&self.appends);
            if appends.closed || appends.buffer.is_empty() {
                return Ok(());
            }
            batch.clear();
            batch.extend_from_slice(&appends.buffer);
        }
        let durable_len = lock(&self.status).durable_len;
        let error = match write_durable(file, durable_len, batch) {
            Ok(()) => {
                lock(&self.appends).buffer.drain(..batch.len());
                let mut status = lock(&self.status);
                status.durable_len += batch.len() as u64;
                status.error = None; // archive caught up again
                return Ok(());
            }
            Err(WriteFault::Write(e)) => e,
            Err(WriteFault::Fsync(e)) => {
                lock(&self.appends).closed = true;
                let poisoned = format!("fdatasync failed ({e}); audit spill poisoned, no retry");
                std::io::Error::new(e.kind(), poisoned)
            }
        };
        let mut status = lock(&self.status);
        status.write_errors += 1;
        status.error = Some(error.to_string());
        Err(error)
    }

    /// Records recovered from disk when the segment was opened (the
    /// archive's pre-existing history).
    pub fn recovered_records(&self) -> usize {
        self.recovered
    }

    /// Total segment bytes on disk guaranteed durable.
    pub fn durable_len(&self) -> u64 {
        lock(&self.status).durable_len
    }

    /// Most recent write failure, if any (appends are infallible on the
    /// [`AuditSink`] trait; failures park here). `Some` means the
    /// on-disk archive is *behind* the in-memory index — an `audit.read`
    /// answered from disk may be shorter than `len()` suggests. A write
    /// failure clears when a later sync lands the buffer; a failed fsync
    /// poisons the spill and its error stays until restart.
    pub fn last_error(&self) -> Option<String> {
        lock(&self.status).error.clone()
    }

    /// Total write/fsync failures since open (one per failed sync
    /// cycle). Monotonic — unlike [`last_error`](Self::last_error),
    /// which clears on recovery — so stats can expose a counter.
    pub fn write_errors(&self) -> u64 {
        lock(&self.status).write_errors
    }

    /// Simulate a kill-9 with a cold page cache: lose the buffer and
    /// anything written but not fsynced, and go inert.
    pub fn simulate_crash(&self) -> std::io::Result<()> {
        let mut io = lock(&self.io);
        let durable = lock(&self.status).durable_len;
        {
            let mut appends = lock(&self.appends);
            appends.buffer.clear();
            appends.next = durable;
            appends.closed = true;
            appends.offsets.retain(|&o| o < durable);
        }
        io.0.file.set_len(durable)?;
        io.0.file.sync_data()
    }

    /// The segment file path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl AuditSink for AuditSpill {
    fn append(&self, record: &AuditRecord) {
        let mut appends = lock(&self.appends);
        if appends.closed {
            return;
        }
        let at = appends.next;
        appends.offsets.push(at);
        appends.next +=
            codec::append_frame(&mut appends.buffer, |enc| put_audit_record(enc, record)) as u64;
    }

    fn read(&self, start: usize, count: usize) -> Vec<AuditRecord> {
        // The page's frames lie back to back at segment offsets
        // `first..last`; those from `buffered` on are in the buffer.
        let (first, durable, mut bytes, records) = {
            let appends = lock(&self.appends);
            let end = appends.offsets.len().min(start.saturating_add(count));
            if start >= end {
                return Vec::new();
            }
            let buffered = appends.next - appends.buffer.len() as u64;
            let first = appends.offsets[start];
            let last = appends.offsets.get(end).copied().unwrap_or(appends.next);
            let split = buffered.clamp(first, last);
            let mut bytes = vec![0u8; (last - first) as usize];
            if split < last {
                let tail = (split - buffered) as usize..(last - buffered) as usize;
                bytes[(split - first) as usize..].copy_from_slice(&appends.buffer[tail]);
            }
            (first, (split - first) as usize, bytes, end - start)
        };
        if durable > 0
            && self
                .reader
                .read_exact_at(&mut bytes[..durable], first)
                .is_err()
        {
            return Vec::new(); // unreadable region: serve nothing, invent nothing
        }
        // Stop at the first frame that fails its CRC or does not decode.
        let mut out = Vec::with_capacity(records);
        let len = bytes.len() as u64;
        let _ = codec::walk_frames(&self.path, &bytes[..], 0, len, |_, payload| {
            decode_audit_record(payload).map(|record| out.push(record))
        });
        out
    }

    fn len(&self) -> usize {
        lock(&self.appends).offsets.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::RealFs;
    use cerfix::CellEvent;
    use cerfix_relation::Value;

    fn real_fs() -> Arc<dyn StorageFs> {
        Arc::new(RealFs)
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cerfix-spill-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("audit.seg")
    }

    fn rec(i: usize) -> AuditRecord {
        AuditRecord {
            tuple_id: i,
            attr: i % 4,
            round: 1,
            event: CellEvent::UserValidated {
                old: Value::Null,
                new: Value::str(format!("v{i}")),
            },
        }
    }

    #[test]
    fn append_read_reopen() {
        let path = tmp("reopen");
        let (spill, scan) = AuditSpill::open(&path, &real_fs()).unwrap();
        assert_eq!(scan.records, 0);
        for i in 0..10 {
            spill.append(&rec(i));
        }
        // Buffered reads work before any flush.
        assert_eq!(spill.read(3, 4), (3..7).map(rec).collect::<Vec<_>>());
        spill.sync().unwrap();
        // Flushed reads and mixed flushed/buffered reads.
        for i in 10..13 {
            spill.append(&rec(i));
        }
        assert_eq!(spill.read(8, 10), (8..13).map(rec).collect::<Vec<_>>());
        spill.sync().unwrap();
        assert_eq!(spill.len(), 13);
        drop(spill);
        let (reopened, scan) = AuditSpill::open(&path, &real_fs()).unwrap();
        assert_eq!(scan.records, 13);
        assert_eq!(scan.torn_bytes, 0);
        assert_eq!(reopened.recovered_records(), 13);
        assert_eq!(reopened.read(0, 100), (0..13).map(rec).collect::<Vec<_>>());
        // And appends continue after recovery.
        reopened.append(&rec(13));
        reopened.sync().unwrap();
        assert_eq!(reopened.read(12, 5), vec![rec(12), rec(13)]);
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn torn_tail_is_dropped_on_open() {
        let path = tmp("torn");
        {
            let (spill, _) = AuditSpill::open(&path, &real_fs()).unwrap();
            for i in 0..5 {
                spill.append(&rec(i));
            }
            spill.sync().unwrap();
        }
        let full = std::fs::read(&path).unwrap();
        // Tear mid-way through the last record.
        std::fs::write(&path, &full[..full.len() - 3]).unwrap();
        let (spill, scan) = AuditSpill::open(&path, &real_fs()).unwrap();
        assert_eq!(scan.records, 4);
        assert!(scan.torn_bytes > 0);
        assert_eq!(spill.read(0, 10).len(), 4);
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn crash_simulation_keeps_only_durable_records() {
        let path = tmp("crash");
        let (spill, _) = AuditSpill::open(&path, &real_fs()).unwrap();
        for i in 0..3 {
            spill.append(&rec(i));
        }
        spill.sync().unwrap();
        for i in 3..6 {
            spill.append(&rec(i)); // buffered, never synced
        }
        spill.simulate_crash().unwrap();
        drop(spill);
        let (reopened, scan) = AuditSpill::open(&path, &real_fs()).unwrap();
        assert_eq!(scan.records, 3);
        assert_eq!(reopened.read(0, 10).len(), 3);
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }
}
