//! The benchmark's own [`StorageFs`]: [`RealFs`] with every write-path
//! call counted and the device left out of `fdatasync`.
//!
//! Journaled commits on this sandbox's disk drifted from 19 to 28 ms
//! per 64 sessions inside two minutes; that is the hypervisor's block
//! device, not the program. With the sync call counted but not issued,
//! a commit still pays the whole software path — journal append,
//! flusher hand-off, group commit, audit spill, snapshot policy — and
//! the files still live on the real filesystem inside the checkout.
//! The device is measured apart, raw and ungated, by the traced run
//! (`storage.sync_disk_p50_us`).

use cerfix_storage::{RealFs, StorageFile, StorageFs};
use std::io::{self, SeekFrom};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Write-path totals since the filesystem was created.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FsCounts {
    pub writes: u64,
    pub bytes: u64,
    /// Every `fdatasync` / `fsync`, files and directories.
    pub fsyncs: u64,
    /// Those on the write-ahead journal: one per group commit.
    pub journal_fsyncs: u64,
}

#[derive(Debug, Default)]
struct Counters {
    writes: AtomicU64,
    bytes: AtomicU64,
    fsyncs: AtomicU64,
    journal_fsyncs: AtomicU64,
}

/// Counting filesystem. `device_sync` chooses whether `fdatasync` /
/// `fsync` reach the device (the disk probe) or are only counted (every
/// workload).
#[derive(Debug)]
pub struct CountingFs {
    inner: RealFs,
    counters: Arc<Counters>,
    device_sync: bool,
}

impl CountingFs {
    pub fn new(device_sync: bool) -> Arc<CountingFs> {
        Arc::new(CountingFs {
            inner: RealFs,
            counters: Arc::default(),
            device_sync,
        })
    }

    pub fn counts(&self) -> FsCounts {
        FsCounts {
            writes: self.counters.writes.load(Ordering::Relaxed),
            bytes: self.counters.bytes.load(Ordering::Relaxed),
            fsyncs: self.counters.fsyncs.load(Ordering::Relaxed),
            journal_fsyncs: self.counters.journal_fsyncs.load(Ordering::Relaxed),
        }
    }

    fn wrap(&self, path: &Path, file: Box<dyn StorageFile>) -> Box<dyn StorageFile> {
        Box::new(CountingFile {
            file,
            journal: path.extension().is_some_and(|ext| ext == "wal"),
            counters: Arc::clone(&self.counters),
            device_sync: self.device_sync,
        })
    }
}

#[derive(Debug)]
struct CountingFile {
    file: Box<dyn StorageFile>,
    journal: bool,
    counters: Arc<Counters>,
    device_sync: bool,
}

impl CountingFile {
    fn sync(&mut self, all: bool) -> io::Result<()> {
        self.counters.fsyncs.fetch_add(1, Ordering::Relaxed);
        if self.journal {
            self.counters.journal_fsyncs.fetch_add(1, Ordering::Relaxed);
        }
        match (self.device_sync, all) {
            (false, _) => Ok(()),
            (true, false) => self.file.sync_data(),
            (true, true) => self.file.sync_all(),
        }
    }
}

impl StorageFile for CountingFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        self.counters.writes.fetch_add(1, Ordering::Relaxed);
        self.counters
            .bytes
            .fetch_add(buf.len() as u64, Ordering::Relaxed);
        self.file.write_all(buf)
    }
    fn sync_data(&mut self) -> io::Result<()> {
        self.sync(false)
    }
    fn sync_all(&mut self) -> io::Result<()> {
        self.sync(true)
    }
    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.file.set_len(len)
    }
    fn seek(&mut self, pos: SeekFrom) -> io::Result<u64> {
        self.file.seek(pos)
    }
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.file.read(buf)
    }
    fn file_len(&self) -> io::Result<u64> {
        self.file.file_len()
    }
}

impl StorageFs for CountingFs {
    fn open_rw(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        self.inner.open_rw(path).map(|f| self.wrap(path, f))
    }
    fn create_truncated(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        self.inner
            .create_truncated(path)
            .map(|f| self.wrap(path, f))
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.inner.rename(from, to)
    }
    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        self.counters.fsyncs.fetch_add(1, Ordering::Relaxed);
        if self.device_sync {
            self.inner.sync_dir(dir)
        } else {
            Ok(())
        }
    }
    fn free_bytes(&self, dir: &Path) -> Option<u64> {
        self.inner.free_bytes(dir)
    }
}
