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
//! Appends frame each record in place at the end of an in-memory
//! buffer; [`AuditSpill::sync`] (called by the journal's group-commit
//! cycle, and directly at durability points) writes and fsyncs that
//! buffer and clears it, keeping its capacity. Reads address records by
//! global index, and a page's frames are contiguous: the still-buffered
//! tail is copied under the lock, the flushed head is one positioned
//! read on a handle opened once, after the lock is released — so a read
//! never forces a flush and neither appends nor a flush wait behind a
//! read of cold history.
//!
//! On open, the segment is scanned to rebuild the offset index; a torn
//! tail (crash mid-append) is cut at the last complete frame, mirroring
//! journal recovery.
//!
//! [`AuditLog`]: cerfix::AuditLog

use crate::codec;
use crate::events::{decode_audit_record, put_audit_record};
use crate::vfs::{ReadAt, StorageFile, StorageFs};
use cerfix::{AuditRecord, AuditSink};
use std::io::{Read, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, PoisonError};

pub(crate) const MAGIC: &[u8; 4] = b"CFXA";
pub(crate) const VERSION: u32 = 1;
pub(crate) const SEGMENT_HEADER: u64 = 8;

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// `io::Read` over a [`StorageFile`] so the recovery scan can stream
/// through a `BufReader` without caring which vfs backs the file.
struct ReadAdapter<'a>(&'a mut dyn StorageFile);

impl Read for ReadAdapter<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.0.read(buf)
    }
}

struct SpillState {
    file: Box<dyn StorageFile>,
    /// Byte offset of every record's frame, flushed or buffered.
    offsets: Vec<u64>,
    /// Records already in `offsets` when the segment was opened.
    recovered: usize,
    /// File bytes flushed (records at offsets below this are on disk).
    committed: u64,
    /// Of `committed`, bytes covered by an fsync.
    durable: u64,
    /// Encoded frames past `committed`, not yet written.
    buffer: Vec<u8>,
    /// After a simulated crash: all writes become no-ops.
    dead: bool,
    /// A write/fsync failed partway: the file may hold partial bytes
    /// past `committed` and the cursor is unknown. The next sync
    /// truncates back to `committed` before writing.
    needs_repair: bool,
    /// Most recent write/fsync failure, surfaced via `last_error`;
    /// cleared when a later sync lands the buffer successfully.
    error: Option<String>,
    /// Total write/fsync failures over the life of this handle (each
    /// failed sync cycle counts once), surfaced via `write_errors`.
    write_errors: u64,
}

/// The audit spill segment. Implements [`AuditSink`], so an
/// [`AuditLog`](cerfix::AuditLog) over it records and reads through it.
pub struct AuditSpill {
    state: Mutex<SpillState>,
    /// Page reads of flushed records, off the write handle and the lock.
    reader: Box<dyn ReadAt>,
    path: PathBuf,
}

impl std::fmt::Debug for AuditSpill {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = lock(&self.state);
        f.debug_struct("AuditSpill")
            .field("path", &self.path)
            .field("records", &state.offsets.len())
            .field("committed_bytes", &state.committed)
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
    /// Open (or create) the segment at `path`, rebuilding the offset
    /// index and cutting any torn tail. The scan streams the file frame
    /// by frame with one reusable payload buffer — the archive grows
    /// without bound by design, so startup memory must not grow with it
    /// (the index itself costs 8 bytes per record; segment rotation is
    /// the ROADMAP item that will bound that too).
    pub fn open(path: &Path, fs: &Arc<dyn StorageFs>) -> std::io::Result<(AuditSpill, SpillScan)> {
        let mut file = fs.open_rw(path)?;
        let file_len = file.file_len()?;
        let mut offsets = Vec::new();
        let mut valid_len = SEGMENT_HEADER;
        let mut header = [0u8; SEGMENT_HEADER as usize];
        file.seek(SeekFrom::Start(0))?;
        let header_ok = file_len >= SEGMENT_HEADER
            && file.read_exact(&mut header).is_ok()
            && &header[0..4] == MAGIC;
        if !header_ok {
            // Fresh or unrecognized: rewrite the header.
            file.set_len(0)?;
            file.seek(SeekFrom::Start(0))?;
            file.write_all(MAGIC)?;
            file.write_all(&VERSION.to_le_bytes())?;
        } else {
            let version = u32::from_le_bytes(header[4..8].try_into().unwrap());
            if version != VERSION {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("audit segment version {version} (this build reads {VERSION})"),
                ));
            }
            {
                let mut reader = std::io::BufReader::new(ReadAdapter(file.as_mut()));
                let mut frame = [0u8; codec::FRAME_HEADER];
                let mut payload = Vec::new();
                let mut at = SEGMENT_HEADER;
                // Stop at the first truncated, checksum-failed or
                // garbage frame: the torn tail of a crashed append.
                loop {
                    if at + codec::FRAME_HEADER as u64 > file_len
                        || reader.read_exact(&mut frame).is_err()
                    {
                        break;
                    }
                    let len = u32::from_le_bytes(frame[0..4].try_into().unwrap()) as u64;
                    let crc = u32::from_le_bytes(frame[4..8].try_into().unwrap());
                    if at + codec::FRAME_HEADER as u64 + len > file_len {
                        break;
                    }
                    payload.resize(len as usize, 0);
                    if reader.read_exact(&mut payload).is_err()
                        || codec::crc32(&payload) != crc
                        || decode_audit_record(&payload).is_err()
                    {
                        break;
                    }
                    offsets.push(at);
                    at += codec::FRAME_HEADER as u64 + len;
                }
                valid_len = at;
            }
            file.set_len(valid_len)?;
            file.seek(SeekFrom::Start(valid_len))?;
        }
        file.sync_data()?;
        let torn = if header_ok {
            file_len - valid_len
        } else {
            file_len
        };
        let scan = SpillScan {
            records: offsets.len(),
            torn_bytes: torn,
        };
        let recovered = offsets.len();
        let reader = Box::new(std::fs::File::open(path)?);
        Ok((
            AuditSpill {
                state: Mutex::new(SpillState {
                    file,
                    offsets,
                    recovered,
                    committed: valid_len,
                    durable: valid_len,
                    buffer: Vec::new(),
                    dead: false,
                    needs_repair: false,
                    error: None,
                    write_errors: 0,
                }),
                reader,
                path: path.to_path_buf(),
            },
            scan,
        ))
    }

    /// Write and fsync everything buffered. Called by the journal's
    /// group-commit cycle; cheap when nothing is pending. On success the
    /// buffer is cleared, keeping its capacity; on failure it is kept
    /// (records stay readable from memory and the write is retried next
    /// cycle, after truncating any partial bytes back to the committed
    /// length).
    pub fn sync(&self) -> std::io::Result<()> {
        let mut guard = lock(&self.state);
        let state = &mut *guard;
        if state.dead || state.buffer.is_empty() {
            return Ok(());
        }
        let result = (|| {
            if state.needs_repair {
                state.file.set_len(state.committed)?;
                state.file.seek(SeekFrom::Start(state.committed))?;
                state.needs_repair = false;
            }
            state.file.write_all(&state.buffer)?;
            state.file.sync_data()
        })();
        match &result {
            Ok(()) => {
                state.committed += state.buffer.len() as u64;
                state.durable = state.committed;
                state.buffer.clear();
                state.error = None; // archive caught up again
            }
            Err(e) => {
                state.needs_repair = true;
                state.write_errors += 1;
                state.error = Some(e.to_string());
            }
        }
        result
    }

    /// Records recovered from disk when the segment was opened (the
    /// archive's pre-existing history).
    pub fn recovered_records(&self) -> usize {
        lock(&self.state).recovered
    }

    /// Total segment bytes on disk guaranteed durable.
    pub fn durable_len(&self) -> u64 {
        lock(&self.state).durable
    }

    /// Most recent write failure, if any (appends are infallible on the
    /// [`AuditSink`] trait; failures park here until a later sync lands
    /// the buffer). `Some` means the on-disk archive is currently
    /// *behind* the in-memory index — an `audit.read` answered from disk
    /// may be shorter than `len()` suggests.
    pub fn last_error(&self) -> Option<String> {
        lock(&self.state).error.clone()
    }

    /// Total write/fsync failures since open (one per failed sync
    /// cycle). Monotonic — unlike [`last_error`](Self::last_error),
    /// which clears on recovery — so stats can expose a counter.
    pub fn write_errors(&self) -> u64 {
        lock(&self.state).write_errors
    }

    /// Simulate a kill-9 with a cold page cache: lose the buffer and
    /// anything written but not fsynced, and go inert.
    pub fn simulate_crash(&self) -> std::io::Result<()> {
        let mut state = lock(&self.state);
        state.buffer.clear();
        state.dead = true;
        let durable = state.durable;
        state.offsets.retain(|&o| o < durable);
        state.file.set_len(durable)?;
        state.file.sync_data()?;
        Ok(())
    }

    /// The segment file path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl AuditSink for AuditSpill {
    fn append(&self, record: &AuditRecord) {
        let mut state = lock(&self.state);
        if state.dead {
            return;
        }
        let offset = state.committed + state.buffer.len() as u64;
        state.offsets.push(offset);
        codec::append_frame(&mut state.buffer, |enc| put_audit_record(enc, record));
    }

    fn read(&self, start: usize, count: usize) -> Vec<AuditRecord> {
        // The page's frames lie back to back at file offsets
        // `first..last`; those past `committed` are still buffered.
        let (first, flushed, mut bytes, records) = {
            let state = lock(&self.state);
            let end = state.offsets.len().min(start.saturating_add(count));
            if start >= end {
                return Vec::new();
            }
            let buffered_to = state.committed + state.buffer.len() as u64;
            let first = state.offsets[start];
            let last = state.offsets.get(end).copied().unwrap_or(buffered_to);
            let split = state.committed.clamp(first, last);
            let mut bytes = vec![0u8; (last - first) as usize];
            if split < last {
                let tail = (split - state.committed) as usize..(last - state.committed) as usize;
                bytes[(split - first) as usize..].copy_from_slice(&state.buffer[tail]);
            }
            (first, (split - first) as usize, bytes, end - start)
        };
        if flushed > 0
            && self
                .reader
                .read_exact_at(&mut bytes[..flushed], first)
                .is_err()
        {
            return Vec::new(); // unreadable region: serve nothing, invent nothing
        }
        let mut out = Vec::with_capacity(records);
        let mut at = 0;
        // Stop at the first frame that fails its CRC or does not decode.
        while let Ok(Some((payload, len))) = codec::read_frame(&bytes[at..]) {
            let Ok(record) = decode_audit_record(payload) else {
                break;
            };
            out.push(record);
            at += len;
        }
        out
    }

    fn len(&self) -> usize {
        lock(&self.state).offsets.len()
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
