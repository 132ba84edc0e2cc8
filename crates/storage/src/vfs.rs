//! Pluggable filesystem layer — the storage crate's *write path* in
//! trait form, so disk faults can be injected deterministically.
//!
//! Every syscall that can lose or corrupt data (open-for-write, write,
//! `fdatasync`/`fsync`, `set_len`, rename, directory sync) goes through
//! [`StorageFs`] / [`StorageFile`]. Read-only paths (recovery scans,
//! replication cursor reads, `scrub`) deliberately stay on `std::fs`:
//! a fault plan corrupts what reaches the disk, and the ordinary read
//! path must then *detect* it — exactly the production contract. Online
//! reads go through `ReadAt`, positioned reads on a handle opened once.
//!
//! Two implementations ship:
//!
//! * [`RealFs`] — a zero-cost passthrough to `std::fs` (the default in
//!   [`StorageConfig`](crate::StorageConfig)).
//! * [`FaultFs`] — a deterministic fault injector driven by a
//!   [`FaultPlan`]: ENOSPC once a byte budget is exhausted, EIO on the
//!   Kth fsync, a torn write (half the buffer lands, then EIO), a
//!   bit-flip written to disk as if the sector rotted, and renames
//!   silently dropped (a crash before the directory entry was synced).
//!   Counters are shared across every file the instance opens, so a
//!   fault plan addresses "the Kth write *anywhere* in this data dir" —
//!   what a fault schedule needs to be reproducible.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// An open, writable storage file. Mirrors the `std::fs::File` subset
/// the journal, snapshot and audit-spill writers use.
pub trait StorageFile: Send + std::fmt::Debug {
    /// Write the whole buffer (the injection point for ENOSPC, torn
    /// writes and bit-flips).
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()>;
    /// `fdatasync` — the durability point fault plans target for
    /// fsyncgate-style EIO.
    fn sync_data(&mut self) -> io::Result<()>;
    /// `fsync` (data + metadata), used before snapshot renames.
    fn sync_all(&mut self) -> io::Result<()>;
    /// Truncate or extend to `len`.
    fn set_len(&mut self, len: u64) -> io::Result<()>;
    /// Move the file cursor.
    fn seek(&mut self, pos: SeekFrom) -> io::Result<u64>;
    /// Read into `buf`, returning the count (reads are never faulted —
    /// see the module docs).
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize>;
    /// Fill `buf` exactly or fail with `UnexpectedEof`.
    fn read_exact(&mut self, buf: &mut [u8]) -> io::Result<()> {
        let mut at = 0;
        while at < buf.len() {
            match self.read(&mut buf[at..])? {
                0 => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "failed to fill whole buffer",
                    ))
                }
                n => at += n,
            }
        }
        Ok(())
    }
    /// Current file length in bytes.
    fn file_len(&self) -> io::Result<u64>;
}

/// Positioned reads (`pread`) on a read-only handle opened once: the
/// journal's cursor reads and the audit spill's page reads, with no
/// seek to race on. Reads stay off the [`StorageFs`] write path (see
/// the module docs).
pub(crate) trait ReadAt: Send + Sync {
    fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()>;
}

impl ReadAt for File {
    #[cfg(unix)]
    fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()> {
        std::os::unix::fs::FileExt::read_exact_at(self, buf, offset)
    }

    #[cfg(windows)]
    fn read_exact_at(&self, mut buf: &mut [u8], mut offset: u64) -> io::Result<()> {
        while !buf.is_empty() {
            match std::os::windows::fs::FileExt::seek_read(self, buf, offset)? {
                0 => return Err(io::ErrorKind::UnexpectedEof.into()),
                n => {
                    buf = &mut buf[n..];
                    offset += n as u64;
                }
            }
        }
        Ok(())
    }
}

/// A forward reader over the first `limit` bytes of `path` (all of them
/// when `None`) and the length it covers; a missing file reads as
/// empty. Recovery scans and `scrub` walk their files through this.
pub(crate) fn read_prefix(path: &Path, limit: Option<u64>) -> io::Result<(Box<dyn Read>, u64)> {
    match File::open(path) {
        Ok(file) => {
            let len = file.metadata()?.len();
            let len = limit.map_or(len, |limit| limit.min(len));
            Ok((Box::new(io::BufReader::new(file)), len))
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok((Box::new(io::empty()), 0)),
        Err(e) => Err(e),
    }
}

/// A filesystem the storage layer can be opened against.
pub trait StorageFs: Send + Sync + std::fmt::Debug {
    /// Open `path` read+write, creating it if absent, never truncating.
    fn open_rw(&self, path: &Path) -> io::Result<Box<dyn StorageFile>>;
    /// Create `path` truncated (the snapshot tmp-file pattern).
    fn create_truncated(&self, path: &Path) -> io::Result<Box<dyn StorageFile>>;
    /// Atomically rename `from` over `to` (the injection point for a
    /// rename dropped before the directory entry was durable).
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// fsync the directory itself so a rename survives power loss.
    fn sync_dir(&self, dir: &Path) -> io::Result<()>;
    /// Free bytes available under `dir`, when the implementation can
    /// tell. [`RealFs`] returns `None` (`std` exposes no `statvfs`; the
    /// server layers its own probe on top); [`FaultFs`] reports the
    /// remaining injected byte budget so watermark tests are exact.
    fn free_bytes(&self, dir: &Path) -> Option<u64>;
}

/// The production filesystem: a passthrough to `std::fs`.
#[derive(Debug, Clone, Copy, Default)]
pub struct RealFs;

#[derive(Debug)]
struct RealFile(File);

impl StorageFile for RealFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        self.0.write_all(buf)
    }
    fn sync_data(&mut self) -> io::Result<()> {
        self.0.sync_data()
    }
    fn sync_all(&mut self) -> io::Result<()> {
        self.0.sync_all()
    }
    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.0.set_len(len)
    }
    fn seek(&mut self, pos: SeekFrom) -> io::Result<u64> {
        self.0.seek(pos)
    }
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.0.read(buf)
    }
    fn file_len(&self) -> io::Result<u64> {
        self.0.metadata().map(|m| m.len())
    }
}

impl StorageFs for RealFs {
    fn open_rw(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        Ok(Box::new(RealFile(file)))
    }
    fn create_truncated(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(Box::new(RealFile(file)))
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }
    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        File::open(dir)?.sync_all()
    }
    fn free_bytes(&self, _dir: &Path) -> Option<u64> {
        None
    }
}

/// A deterministic disk-fault schedule. All counters are 1-based and
/// global across every file opened through the owning [`FaultFs`].
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Total write budget in bytes: once exhausted, writes land a
    /// partial prefix and fail with `StorageFull` (ENOSPC). Also backs
    /// [`StorageFs::free_bytes`] so watermark probes see it coming.
    pub capacity_bytes: Option<u64>,
    /// Fail the Kth `sync_data`/`sync_all` with EIO — the fsyncgate
    /// scenario (data handed to the kernel, durability unknown).
    pub fail_fsync_at: Option<u64>,
    /// The Kth write lands only its first half, then fails with EIO —
    /// a torn write.
    pub torn_write_at: Option<u64>,
    /// The Kth write has one byte (at the given index, modulo the
    /// buffer length) flipped before it reaches the disk — silent
    /// media corruption that only a checksum can catch.
    pub bitflip_write_at: Option<(u64, u64)>,
    /// Renames report success but never happen — what a crash after
    /// `rename(2)` but before the directory fsync leaves behind.
    pub drop_renames: bool,
}

#[derive(Debug)]
struct FaultState {
    plan: Mutex<FaultPlan>,
    writes: AtomicU64,
    fsyncs: AtomicU64,
    bytes_written: AtomicU64,
    renames_dropped: AtomicU64,
}

/// The fault-injecting filesystem. Clones share one plan and one set of
/// counters, so a test can keep a handle while storage owns another.
#[derive(Debug, Clone)]
pub struct FaultFs {
    state: Arc<FaultState>,
}

impl FaultFs {
    /// A fault filesystem executing `plan`.
    pub fn new(plan: FaultPlan) -> FaultFs {
        FaultFs {
            state: Arc::new(FaultState {
                plan: Mutex::new(plan),
                writes: AtomicU64::new(0),
                fsyncs: AtomicU64::new(0),
                bytes_written: AtomicU64::new(0),
                renames_dropped: AtomicU64::new(0),
            }),
        }
    }

    /// Replace the whole plan (counters keep running).
    pub fn set_plan(&self, plan: FaultPlan) {
        *lock(&self.state.plan) = plan;
    }

    /// Mutate the plan in place mid-test.
    pub fn update_plan(&self, f: impl FnOnce(&mut FaultPlan)) {
        f(&mut lock(&self.state.plan));
    }

    /// Grow the ENOSPC budget — "the operator freed some disk".
    pub fn add_capacity(&self, extra: u64) {
        let mut plan = lock(&self.state.plan);
        if let Some(cap) = plan.capacity_bytes.as_mut() {
            *cap += extra;
        }
    }

    /// Writes issued so far (including failed ones).
    pub fn writes(&self) -> u64 {
        self.state.writes.load(Ordering::SeqCst)
    }

    /// fsyncs issued so far (including failed ones).
    pub fn fsyncs(&self) -> u64 {
        self.state.fsyncs.load(Ordering::SeqCst)
    }

    /// Bytes that actually reached the disk.
    pub fn bytes_written(&self) -> u64 {
        self.state.bytes_written.load(Ordering::SeqCst)
    }

    /// Renames silently swallowed by `drop_renames`.
    pub fn renames_dropped(&self) -> u64 {
        self.state.renames_dropped.load(Ordering::SeqCst)
    }
}

#[derive(Debug)]
struct FaultFile {
    inner: File,
    state: Arc<FaultState>,
}

impl StorageFile for FaultFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        let k = self.state.writes.fetch_add(1, Ordering::SeqCst) + 1;
        let plan = lock(&self.state.plan).clone();
        if let Some((at, byte)) = plan.bitflip_write_at {
            if at == k && !buf.is_empty() {
                // The write "succeeds": the corruption is silent.
                let mut flipped = buf.to_vec();
                let idx = (byte as usize) % flipped.len();
                flipped[idx] ^= 0x01;
                self.inner.write_all(&flipped)?;
                self.state
                    .bytes_written
                    .fetch_add(buf.len() as u64, Ordering::SeqCst);
                return Ok(());
            }
        }
        if plan.torn_write_at == Some(k) {
            let half = buf.len() / 2;
            self.inner.write_all(&buf[..half])?;
            self.state
                .bytes_written
                .fetch_add(half as u64, Ordering::SeqCst);
            return Err(io::Error::other("injected EIO (torn write)"));
        }
        if let Some(cap) = plan.capacity_bytes {
            let used = self.state.bytes_written.load(Ordering::SeqCst);
            if used + buf.len() as u64 > cap {
                // Like a real full disk: a prefix may still land.
                let allowed = cap.saturating_sub(used) as usize;
                self.inner.write_all(&buf[..allowed])?;
                self.state
                    .bytes_written
                    .fetch_add(allowed as u64, Ordering::SeqCst);
                return Err(io::Error::new(
                    io::ErrorKind::StorageFull,
                    "injected ENOSPC (write budget exhausted)",
                ));
            }
        }
        self.inner.write_all(buf)?;
        self.state
            .bytes_written
            .fetch_add(buf.len() as u64, Ordering::SeqCst);
        Ok(())
    }

    fn sync_data(&mut self) -> io::Result<()> {
        self.faulted_sync()?;
        self.inner.sync_data()
    }

    fn sync_all(&mut self) -> io::Result<()> {
        self.faulted_sync()?;
        self.inner.sync_all()
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.inner.set_len(len)
    }

    fn seek(&mut self, pos: SeekFrom) -> io::Result<u64> {
        self.inner.seek(pos)
    }

    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.inner.read(buf)
    }

    fn file_len(&self) -> io::Result<u64> {
        self.inner.metadata().map(|m| m.len())
    }
}

impl FaultFile {
    fn faulted_sync(&self) -> io::Result<()> {
        let k = self.state.fsyncs.fetch_add(1, Ordering::SeqCst) + 1;
        if lock(&self.state.plan).fail_fsync_at == Some(k) {
            return Err(io::Error::other("injected EIO (fsync failed)"));
        }
        Ok(())
    }
}

impl StorageFs for FaultFs {
    fn open_rw(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        let inner = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        Ok(Box::new(FaultFile {
            inner,
            state: Arc::clone(&self.state),
        }))
    }
    fn create_truncated(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        let inner = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(Box::new(FaultFile {
            inner,
            state: Arc::clone(&self.state),
        }))
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        if lock(&self.state.plan).drop_renames {
            self.state.renames_dropped.fetch_add(1, Ordering::SeqCst);
            return Ok(());
        }
        std::fs::rename(from, to)
    }
    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        File::open(dir)?.sync_all()
    }
    fn free_bytes(&self, _dir: &Path) -> Option<u64> {
        let plan = lock(&self.state.plan);
        plan.capacity_bytes
            .map(|cap| cap.saturating_sub(self.state.bytes_written.load(Ordering::SeqCst)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("cerfix-vfs-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn enospc_lands_partial_prefix_then_fails() {
        let dir = tmp("enospc");
        let fs = FaultFs::new(FaultPlan {
            capacity_bytes: Some(10),
            ..FaultPlan::default()
        });
        let mut file = fs.open_rw(&dir.join("f")).unwrap();
        file.write_all(b"12345678").unwrap();
        let err = file.write_all(b"abcdef").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        // 8 full + 2 partial bytes reached the disk.
        assert_eq!(std::fs::read(dir.join("f")).unwrap(), b"12345678ab");
        assert_eq!(fs.free_bytes(&dir), Some(0));
        fs.add_capacity(100);
        file.write_all(b"more").unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn kth_fsync_fails_then_recovers() {
        let dir = tmp("fsync");
        let fs = FaultFs::new(FaultPlan {
            fail_fsync_at: Some(2),
            ..FaultPlan::default()
        });
        let mut file = fs.open_rw(&dir.join("f")).unwrap();
        file.write_all(b"x").unwrap();
        file.sync_data().unwrap();
        assert!(file.sync_data().is_err(), "second fsync injected EIO");
        file.sync_data().unwrap();
        assert_eq!(fs.fsyncs(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_write_lands_half_and_bitflip_lands_silently() {
        let dir = tmp("torn");
        let fs = FaultFs::new(FaultPlan {
            torn_write_at: Some(1),
            bitflip_write_at: Some((2, 0)),
            ..FaultPlan::default()
        });
        let mut file = fs.open_rw(&dir.join("f")).unwrap();
        assert!(file.write_all(b"abcdef").is_err());
        assert_eq!(std::fs::read(dir.join("f")).unwrap(), b"abc");
        file.set_len(0).unwrap();
        file.seek(SeekFrom::Start(0)).unwrap();
        file.write_all(b"abcdef").unwrap(); // "succeeds", corrupted
        assert_eq!(std::fs::read(dir.join("f")).unwrap(), b"`bcdef");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dropped_rename_leaves_target_untouched() {
        let dir = tmp("rename");
        std::fs::write(dir.join("a"), b"new").unwrap();
        std::fs::write(dir.join("b"), b"old").unwrap();
        let fs = FaultFs::new(FaultPlan {
            drop_renames: true,
            ..FaultPlan::default()
        });
        fs.rename(&dir.join("a"), &dir.join("b")).unwrap();
        assert_eq!(std::fs::read(dir.join("b")).unwrap(), b"old");
        assert_eq!(fs.renames_dropped(), 1);
        fs.set_plan(FaultPlan::default());
        fs.rename(&dir.join("a"), &dir.join("b")).unwrap();
        assert_eq!(std::fs::read(dir.join("b")).unwrap(), b"new");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
