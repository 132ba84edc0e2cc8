//! Integrity scrub: walk every durable file in a data directory and
//! verify its checksums without mutating anything.
//!
//! The scrub is the detection half of the corruption story (the repair
//! half is replica re-sync, see the server crate): it distinguishes a
//! *torn tail* — the legal residue of a crash mid-append, which
//! recovery truncates — from *corruption* — a complete frame whose CRC
//! no longer matches, i.e. bit rot under data the system already
//! acknowledged. Torn tails are reported as byte counts; corruption
//! becomes a typed [`Corruption`] entry with file, offset, and detail.
//!
//! Two entry points:
//!
//! * [`scrub_dir`] — offline, against a quiesced directory (the
//!   `cerfix scrub --data-dir` CLI). Walks every byte of every file.
//! * [`Storage::scrub`](crate::Storage::scrub) — online, against a live
//!   node (the `scrub` protocol op). Reads only the *durable* prefix of
//!   the journal and audit segment, so bytes the flusher is still
//!   writing are never misread as damage.
//!
//! Every file is scanned independently: a corrupt journal does not
//! hide a corrupt snapshot. The journal and the audit segment are
//! walked, frame by frame and without reading them whole, by the same
//! header check and walk that opens them, so a scrub and an open never
//! disagree about a file.

use crate::codec::Walk;
use crate::{journal, snapshot, spill, vfs, StorageError, AUDIT_FILE, JOURNAL_FILE};
use std::path::Path;

/// One verified-bad region found by a scrub.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Corruption {
    /// The damaged file (full path as scanned).
    pub file: String,
    /// Byte offset of the first damaged region.
    pub offset: u64,
    /// What failed to verify (CRC mismatch, bad magic, ...).
    pub detail: String,
}

impl std::fmt::Display for Corruption {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} @ {}: {}", self.file, self.offset, self.detail)
    }
}

/// Result of scrubbing one data directory.
#[derive(Debug, Default)]
pub struct ScrubReport {
    /// Complete, checksum-valid journal frames.
    pub journal_frames: usize,
    /// Journal bytes that are a legal torn tail (crash residue).
    pub journal_torn_bytes: u64,
    /// Whether a snapshot exists (and, when no corruption entry names
    /// it, verified clean including its full-file CRC trailer).
    pub snapshot_present: bool,
    /// Complete, checksum-valid audit records.
    pub audit_records: usize,
    /// Audit-segment bytes that are a legal torn tail.
    pub audit_torn_bytes: u64,
    /// Everything that failed verification. Empty means clean.
    pub corruptions: Vec<Corruption>,
}

impl ScrubReport {
    /// True when no corruption was found (torn tails are still legal).
    pub fn clean(&self) -> bool {
        self.corruptions.is_empty()
    }
}

/// Scrub a quiesced data directory offline (every byte of every file).
/// `Err` only for environmental I/O failures — verification failures
/// are collected in the report, not errored.
pub fn scrub_dir(dir: &Path) -> std::io::Result<ScrubReport> {
    scrub_with_limits(dir, None, None)
}

/// Scrub with optional byte limits on the append-only files — the
/// online path passes each file's durable length so concurrently
/// in-flight writes past it are ignored rather than misdiagnosed.
pub(crate) fn scrub_with_limits(
    dir: &Path,
    journal_limit: Option<u64>,
    audit_limit: Option<u64>,
) -> std::io::Result<ScrubReport> {
    let mut report = ScrubReport::default();
    let path = dir.join(JOURNAL_FILE);
    let (reader, len) = vfs::read_prefix(&path, journal_limit)?;
    let walked = journal::walk_journal(&path, reader, len, |_| {}).map(|(_, walk)| walk);
    (report.journal_frames, report.journal_torn_bytes) = report.tally(walked, len)?;
    match snapshot::load_snapshot(dir) {
        Ok(snapshot) => report.snapshot_present = snapshot.is_some(),
        Err(e) => {
            report.snapshot_present = true;
            report.found(e)?;
        }
    }
    let path = dir.join(AUDIT_FILE);
    let (reader, len) = vfs::read_prefix(&path, audit_limit)?;
    let walked = spill::walk_segment(&path, reader, len, drop);
    (report.audit_records, report.audit_torn_bytes) = report.tally(walked, len)?;
    Ok(report)
}

impl ScrubReport {
    /// A walk over a file of `len` bytes, as `(frames, torn bytes)`:
    /// the verified prefix is counted even when corruption ends it, so
    /// the report shows how much survives.
    fn tally(
        &mut self,
        walked: Result<Walk, StorageError>,
        len: u64,
    ) -> std::io::Result<(usize, u64)> {
        let walk = match walked {
            Ok(walk) => walk,
            Err(e) => return self.found(e).map(|()| (0, 0)),
        };
        match walk.corrupt {
            None => Ok((walk.frames, len - walk.end)),
            Some(e) => self.found(e).map(|()| (walk.frames, 0)),
        }
    }

    /// File a corruption; pass an I/O failure back.
    fn found(&mut self, e: StorageError) -> std::io::Result<()> {
        match e {
            StorageError::Corrupt {
                file,
                offset,
                detail,
            } => {
                self.corruptions.push(Corruption {
                    file,
                    offset,
                    detail,
                });
                Ok(())
            }
            StorageError::Io(e) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::JournalEvent;
    use crate::{Storage, StorageConfig, StorageError};
    use cerfix::{AuditRecord, AuditSink, CellEvent};
    use cerfix_relation::Value;
    use std::path::PathBuf;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cerfix-scrub-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn populated(dir: &Path) -> std::io::Result<()> {
        let (storage, _) = Storage::open(StorageConfig::new(dir))?;
        for session in 1..=4u64 {
            let seq = storage.append(&JournalEvent::SessionCreated {
                session,
                values: vec![Value::str("v"), Value::Int(session as i64)],
            });
            storage.spill().append(&AuditRecord {
                tuple_id: session as usize,
                attr: 0,
                round: 1,
                event: CellEvent::UserValidated {
                    old: Value::Null,
                    new: Value::str("v"),
                },
            });
            storage.sync(seq).unwrap();
        }
        storage.spill().sync()?;
        Ok(())
    }

    #[test]
    fn clean_directory_scrubs_clean_and_counts_everything() {
        let dir = tmp_dir("clean");
        populated(&dir).unwrap();
        let report = scrub_dir(&dir).unwrap();
        assert!(report.clean(), "unexpected: {:?}", report.corruptions);
        assert_eq!(report.journal_frames, 4);
        assert_eq!(report.audit_records, 4);
        assert_eq!(report.journal_torn_bytes, 0);
        assert_eq!(report.audit_torn_bytes, 0);
        assert!(!report.snapshot_present, "no snapshot was taken");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn each_file_reports_corruption_independently() {
        let dir = tmp_dir("independent");
        populated(&dir).unwrap();
        // Flip one payload byte mid-journal and one mid-audit.
        for name in [crate::JOURNAL_FILE, crate::AUDIT_FILE] {
            let path = dir.join(name);
            let mut bytes = std::fs::read(&path).unwrap();
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0x40;
            std::fs::write(&path, &bytes).unwrap();
        }
        let report = scrub_dir(&dir).unwrap();
        assert_eq!(report.corruptions.len(), 2, "{:?}", report.corruptions);
        assert!(report
            .corruptions
            .iter()
            .any(|c| c.file.ends_with(crate::JOURNAL_FILE)));
        assert!(report
            .corruptions
            .iter()
            .any(|c| c.file.ends_with(crate::AUDIT_FILE)));
        // The clean prefixes are still counted.
        assert!(report.journal_frames >= 1);
        assert!(report.audit_records >= 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tails_are_reported_but_not_corruption() {
        let dir = tmp_dir("torn");
        populated(&dir).unwrap();
        for name in [crate::JOURNAL_FILE, crate::AUDIT_FILE] {
            let path = dir.join(name);
            let bytes = std::fs::read(&path).unwrap();
            std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        }
        let report = scrub_dir(&dir).unwrap();
        assert!(report.clean(), "tears are legal: {:?}", report.corruptions);
        assert_eq!(report.journal_frames, 3);
        assert_eq!(report.audit_records, 3);
        assert!(report.journal_torn_bytes > 0);
        assert!(report.audit_torn_bytes > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Open and scrub walk a segment with one header check and one frame
    /// walk, so they agree on every flipped byte of a 10-record segment:
    /// both clean with the same records and torn bytes (a flipped length
    /// can make the last frames read as a torn tail), or both corrupt at
    /// the same offset — and a refused open leaves the file as it was.
    /// A flipped magic byte is refused, never wiped to a fresh header.
    #[test]
    fn open_and_scrub_agree_on_every_flipped_byte() {
        let dir = tmp_dir("flips");
        {
            let (storage, _) = Storage::open(StorageConfig::new(&dir)).unwrap();
            for i in 0..10 {
                storage.spill().append(&AuditRecord {
                    tuple_id: i,
                    attr: i % 3,
                    round: 1,
                    event: CellEvent::UserValidated {
                        old: Value::Null,
                        new: Value::str(format!("v{i}")),
                    },
                });
            }
            storage.spill().sync().unwrap();
        }
        let path = dir.join(crate::AUDIT_FILE);
        let pristine = std::fs::read(&path).unwrap();
        for at in 0..pristine.len() {
            let mut flipped = pristine.clone();
            flipped[at] ^= 0xFF;
            std::fs::write(&path, &flipped).unwrap();
            let scrub = scrub_dir(&dir).unwrap();
            let opened = Storage::open(StorageConfig::new(&dir));
            match (opened, &scrub.corruptions[..]) {
                (Ok((_, recovered)), []) => {
                    assert!(at >= 4, "byte {at}: a bad magic opened");
                    let found = (recovered.audit_records, recovered.audit_torn_bytes);
                    let scrubbed = (scrub.audit_records, scrub.audit_torn_bytes);
                    assert_eq!(found, scrubbed, "byte {at}");
                }
                (Err(StorageError::Corrupt { file, offset, .. }), [corruption]) => {
                    assert_eq!((&file, offset), (&corruption.file, corruption.offset));
                    assert!(file.ends_with(crate::AUDIT_FILE), "byte {at}: {file}");
                    let after = std::fs::read(&path).unwrap();
                    assert!(after == flipped, "byte {at}: a refused open wrote");
                }
                (opened, scrubbed) => {
                    panic!("byte {at}: open {opened:?}, scrub {scrubbed:?}")
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
