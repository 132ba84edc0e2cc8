//! Atomic snapshots of live service state.
//!
//! A snapshot file is one CRC-framed [`SnapshotData`] payload behind a
//! `CFXS` header, closed by a **full-file CRC trailer** (covering
//! header and frame), written to `snapshot.tmp`, fsynced, then renamed
//! over `snapshot.bin` (with a directory fsync) — so `snapshot.bin` is
//! always either the previous complete snapshot or the new complete
//! snapshot, never a partial write. A crash mid-snapshot leaves a
//! `snapshot.tmp` that [`load_snapshot`] ignores and [`Storage::open`]
//! deletes. The trailer catches what the frame checksum alone cannot:
//! bit rot in the header, the frame length prefix, or the trailer
//! region itself — any flipped bit anywhere in the file surfaces as a
//! typed [`StorageError::Corrupt`], never as a silently different
//! recovered state.
//!
//! [`Storage::open`]: crate::Storage::open
//! [`StorageError::Corrupt`]: crate::StorageError::Corrupt

use crate::codec::{self};
use crate::events::SnapshotData;
use crate::vfs::StorageFs;
use crate::StorageError;
use std::path::Path;

const MAGIC: &[u8; 4] = b"CFXS";
/// Version 2 added the full-file CRC trailer.
const VERSION: u32 = 2;
/// Trailing full-file CRC, little-endian `u32`.
const TRAILER: usize = 4;

/// File name of the current snapshot inside a data dir.
pub const SNAPSHOT_FILE: &str = "snapshot.bin";
/// Scratch name used while writing (ignored by recovery).
pub const SNAPSHOT_TMP: &str = "snapshot.tmp";

/// Write `data` atomically into `dir` through `fs`.
pub fn write_snapshot(fs: &dyn StorageFs, dir: &Path, data: &SnapshotData) -> std::io::Result<()> {
    let tmp = dir.join(SNAPSHOT_TMP);
    let payload = data.encode();
    let mut bytes = Vec::with_capacity(payload.len() + 16 + TRAILER);
    bytes.extend_from_slice(MAGIC);
    bytes.extend_from_slice(&VERSION.to_le_bytes());
    bytes.extend_from_slice(&codec::frame(&payload));
    let crc = codec::crc32(&bytes);
    bytes.extend_from_slice(&crc.to_le_bytes());
    {
        let mut file = fs.create_truncated(&tmp)?;
        file.write_all(&bytes)?;
        file.sync_all()?;
    }
    fs.rename(&tmp, &dir.join(SNAPSHOT_FILE))?;
    // Persist the rename itself (directory entry) where supported.
    let _ = fs.sync_dir(dir);
    Ok(())
}

/// Load the current snapshot from `dir`. `Ok(None)` when no snapshot
/// exists; `Err` when one exists but is unreadable (version mismatch or
/// corruption — recovery must not silently start empty over real
/// state). Corruption anywhere in the file is a typed
/// [`StorageError::Corrupt`].
pub fn load_snapshot(dir: &Path) -> Result<Option<SnapshotData>, StorageError> {
    let path = dir.join(SNAPSHOT_FILE);
    let bytes = match std::fs::read(&path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(StorageError::Io(e)),
    };
    let corrupt = |offset: u64, detail: &str| StorageError::corrupt(&path, offset, detail);
    if bytes.len() < 8 + TRAILER {
        return Err(corrupt(0, "truncated"));
    }
    if &bytes[0..4] != MAGIC {
        return Err(corrupt(0, "bad magic"));
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
    if version != VERSION {
        return Err(corrupt(
            4,
            &format!("format version {version} (this build reads {VERSION})"),
        ));
    }
    // Full-file integrity first: any flipped bit anywhere (header,
    // frame length, payload, trailer) fails here with a typed error.
    let body = &bytes[..bytes.len() - TRAILER];
    let stored = u32::from_le_bytes(bytes[bytes.len() - TRAILER..].try_into().unwrap());
    if codec::crc32(body) != stored {
        return Err(corrupt(0, "full-file CRC mismatch"));
    }
    let (payload, _) = codec::read_frame(&body[8..])
        .map_err(|e| corrupt(8, &e.to_string()))?
        .ok_or_else(|| corrupt(8, "truncated frame"))?;
    let data = SnapshotData::decode(payload).map_err(|e| corrupt(8, &e.to_string()))?;
    Ok(Some(data))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::SessionSnapshot;
    use crate::vfs::RealFs;
    use cerfix_relation::Value;
    use std::path::PathBuf;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("cerfix-snapshot-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample(epoch: u64) -> SnapshotData {
        SnapshotData {
            epoch,
            fingerprint: 11,
            rules_dsl: "er r: match a=a fix b:=b when ()".into(),
            next_session_id: 5,
            master_appended: vec![],
            sessions: vec![SessionSnapshot {
                session: 1,
                tuple_id: 1,
                rounds: 1,
                values: vec![Value::str("a"), Value::Null],
                validated: vec![0],
                user_validated: vec![0],
                auto_validated: vec![],
            }],
        }
    }

    #[test]
    fn write_load_round_trip_and_overwrite() {
        let dir = tmp_dir("round-trip");
        assert!(load_snapshot(&dir).unwrap().is_none());
        write_snapshot(&RealFs, &dir, &sample(1)).unwrap();
        assert_eq!(load_snapshot(&dir).unwrap().unwrap(), sample(1));
        write_snapshot(&RealFs, &dir, &sample(2)).unwrap();
        assert_eq!(load_snapshot(&dir).unwrap().unwrap().epoch, 2);
        assert!(!dir.join(SNAPSHOT_TMP).exists(), "tmp renamed away");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn partial_tmp_is_ignored_and_corrupt_bin_is_a_typed_error() {
        let dir = tmp_dir("partial");
        write_snapshot(&RealFs, &dir, &sample(1)).unwrap();
        // A crash mid-snapshot leaves a garbage tmp: load ignores it.
        std::fs::write(dir.join(SNAPSHOT_TMP), b"partial garbage").unwrap();
        assert_eq!(load_snapshot(&dir).unwrap().unwrap().epoch, 1);
        // But a corrupt snapshot.bin must error, not silently start
        // empty — and the full-file trailer types EVERY flipped bit.
        let path = dir.join(SNAPSHOT_FILE);
        let full = std::fs::read(&path).unwrap();
        for idx in [0, 5, 9, full.len() / 2, full.len() - 2] {
            let mut bent = full.clone();
            bent[idx] ^= 0x10;
            std::fs::write(&path, &bent).unwrap();
            assert!(
                matches!(load_snapshot(&dir), Err(StorageError::Corrupt { .. })),
                "flip at {idx} must be typed corruption"
            );
        }
        // Truncation is also corruption.
        std::fs::write(&path, &full[..full.len() / 2]).unwrap();
        assert!(matches!(
            load_snapshot(&dir),
            Err(StorageError::Corrupt { .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
