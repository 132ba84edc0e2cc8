//! Free-space probe for the data directory.
//!
//! The degradation watermark (`--min-free-bytes`) needs to know how
//! much disk is left under the journal. Under fault injection the
//! [`FaultFs`](cerfix_storage::FaultFs) answers from its synthetic
//! budget; on a real deployment we ask the kernel via `statvfs(3)`.
//! The storage crate forbids `unsafe`, so the single raw syscall lives
//! here, the server crate's one FFI island.

/// Bytes available to unprivileged writers on the filesystem holding
/// `path` (`f_bavail * f_frsize`). `None` when the probe is
/// unsupported on this platform or the syscall fails — callers treat
/// that as "unknown", never as "full".
#[cfg(target_os = "linux")]
pub fn free_bytes(path: &std::path::Path) -> Option<u64> {
    use std::os::unix::ffi::OsStrExt;
    let c_path = std::ffi::CString::new(path.as_os_str().as_bytes()).ok()?;
    ffi::statvfs_avail(&c_path)
}

/// Non-Linux fallback: unknown.
#[cfg(not(target_os = "linux"))]
pub fn free_bytes(_path: &std::path::Path) -> Option<u64> {
    None
}

// libc symbols; std links libc already, so no new dependency.
#[cfg(target_os = "linux")]
#[allow(unsafe_code)]
mod ffi {
    use std::ffi::CStr;
    use std::os::raw::{c_char, c_int, c_ulong};

    /// `struct statvfs` on 64-bit Linux: every block/file count and
    /// `unsigned long` is 8 bytes; the spare tail absorbs layout slack.
    #[repr(C)]
    struct StatVfs {
        f_bsize: c_ulong,
        f_frsize: c_ulong,
        f_blocks: u64,
        f_bfree: u64,
        f_bavail: u64,
        f_files: u64,
        f_ffree: u64,
        f_favail: u64,
        f_fsid: c_ulong,
        f_flag: c_ulong,
        f_namemax: c_ulong,
        __f_spare: [c_int; 6],
    }

    extern "C" {
        fn statvfs(path: *const c_char, buf: *mut StatVfs) -> c_int;
    }

    pub(super) fn statvfs_avail(path: &CStr) -> Option<u64> {
        let mut buf = std::mem::MaybeUninit::<StatVfs>::zeroed();
        // SAFETY: `path` is a valid NUL-terminated string and `buf` is
        // a properly sized, writable statvfs buffer.
        let rc = unsafe { statvfs(path.as_ptr(), buf.as_mut_ptr()) };
        if rc != 0 {
            return None;
        }
        let out = unsafe { buf.assume_init() };
        Some(out.f_bavail.saturating_mul(out.f_frsize))
    }
}

#[cfg(test)]
mod tests {
    #[test]
    #[cfg(target_os = "linux")]
    fn probe_reports_space_on_a_real_directory() {
        let free = super::free_bytes(&std::env::temp_dir());
        assert!(free.is_some(), "statvfs should succeed on tmp");
        assert!(free.unwrap() > 0, "tmp should not be full");
    }

    #[test]
    fn probe_on_missing_path_is_none_not_panic() {
        assert_eq!(
            super::free_bytes(std::path::Path::new("/definitely/not/a/real/path")),
            None
        );
    }
}
