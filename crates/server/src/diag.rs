//! Structured diagnostic log: leveled, rate-limited, allocation-free
//! on emit.
//!
//! Every noteworthy server-side event — a replication stream refusing
//! a stale primary, a snapshot failing, a health probe flipping to
//! not-ready — is a [`DiagEvent`]: a level, a subsystem, a unix
//! timestamp and a formatted message. Events are published into the
//! crate's one seqlock ring ([`crate::seqring`], which `trace.rs` holds
//! too), so emitting never locks and never allocates: the message is
//! formatted into a fixed stack buffer and stored as packed words. That
//! keeps the CI-guarded `session.get = 0 allocs/req` invariant intact
//! with the diag log enabled, and makes it safe to emit from connection
//! and flusher threads.
//!
//! Sinks: the in-process ring is always the source of truth and is
//! read over the wire by `log.read` (filterable by level and
//! subsystem). A stderr sink is on by default so operators keep the
//! behavior the old ad-hoc `eprintln!` calls gave them, and an
//! optional `diag.log` file sink appends one line per event for
//! durable post-mortems.
//!
//! A per-subsystem token window caps emissions per second; everything
//! over the cap is counted in `suppressed` instead of flooding the
//! ring, stderr, or the disk.

use crate::seqring::{rlock, SeqRing};
use std::fmt::{self, Write as _};
use std::fs::File;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::SystemTime;

/// Longest message stored per event; longer messages are truncated at
/// a UTF-8 boundary. 240 bytes comfortably fits every call site's
/// formatted line including a peer address and an error string.
const MSG_BYTES: usize = 240;

/// Message payload words per slot (8 bytes each).
const TEXT_WORDS: usize = MSG_BYTES / 8;

/// Words per slot: a meta word, the timestamp, the message.
const SLOT_WORDS: usize = 2 + TEXT_WORDS;

/// Events admitted per subsystem per second; the rest are counted as
/// suppressed.
const MAX_PER_SEC: u64 = 64;

/// Event severity, ordered: `Debug < Info < Warn < Error`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Level {
    /// Verbose progress detail (ring-only by default).
    Debug = 0,
    /// Normal state changes worth a record (role changes, resyncs).
    Info = 1,
    /// Degraded but operating (refused stream, torn frame, lag).
    Warn = 2,
    /// Something is broken (dead journal, diverged replay).
    Error = 3,
}

impl Level {
    /// Wire / display name.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            Level::Debug => "debug",
            Level::Info => "info",
            Level::Warn => "warn",
            Level::Error => "error",
        }
    }

    /// Parse a wire filter value; `None` for unknown names.
    pub(crate) fn parse(name: &str) -> Option<Level> {
        match name {
            "debug" => Some(Level::Debug),
            "info" => Some(Level::Info),
            "warn" | "warning" => Some(Level::Warn),
            "error" => Some(Level::Error),
            _ => None,
        }
    }

    fn from_u64(v: u64) -> Level {
        match v {
            0 => Level::Debug,
            1 => Level::Info,
            2 => Level::Warn,
            _ => Level::Error,
        }
    }
}

/// Which part of the server emitted an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Subsystem {
    /// Service core: boot, shutdown, dispatch.
    Server = 0,
    /// Front-end transport and the housekeeper thread.
    Net = 1,
    /// Journal, snapshots, fsync.
    Journal = 2,
    /// Replication tail and quorum tracking.
    Replication = 3,
    /// Health probe verdicts and transitions.
    Health = 4,
    /// Runtime configuration changes (`config.set`).
    Config = 5,
    /// Admission control: shed-level transitions, drains, quota refusals.
    Admission = 6,
}

/// Number of [`Subsystem`] variants (rate-limit window array size).
const SUBSYSTEMS: usize = 7;

impl Subsystem {
    /// Wire / display name.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            Subsystem::Server => "server",
            Subsystem::Net => "net",
            Subsystem::Journal => "journal",
            Subsystem::Replication => "replication",
            Subsystem::Health => "health",
            Subsystem::Config => "config",
            Subsystem::Admission => "admission",
        }
    }

    /// Parse a wire filter value; `None` for unknown names.
    pub(crate) fn parse(name: &str) -> Option<Subsystem> {
        match name {
            "server" => Some(Subsystem::Server),
            "net" => Some(Subsystem::Net),
            "journal" => Some(Subsystem::Journal),
            "replication" => Some(Subsystem::Replication),
            "health" => Some(Subsystem::Health),
            "config" => Some(Subsystem::Config),
            "admission" => Some(Subsystem::Admission),
            _ => None,
        }
    }

    fn from_u64(v: u64) -> Subsystem {
        match v {
            0 => Subsystem::Server,
            1 => Subsystem::Net,
            2 => Subsystem::Journal,
            3 => Subsystem::Replication,
            4 => Subsystem::Health,
            5 => Subsystem::Config,
            _ => Subsystem::Admission,
        }
    }
}

/// One diagnostic event as a reader sees it (`log.read`). The message
/// is copied out of the ring into an owned string — reads are off the
/// hot path by construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct DiagEvent {
    /// Monotonic event number (the ring claim index).
    pub seq: u64,
    /// Emission time, milliseconds since the unix epoch.
    pub unix_ms: u64,
    /// Severity.
    pub level: Level,
    /// Emitting subsystem.
    pub subsystem: Subsystem,
    /// Formatted message (possibly truncated to [`MSG_BYTES`]).
    pub message: String,
}

/// Fixed-capacity `fmt::Write` target: formats a message onto the
/// stack, truncating at capacity instead of allocating.
struct FixedWriter {
    buf: [u8; MSG_BYTES],
    len: usize,
}

impl FixedWriter {
    fn new() -> FixedWriter {
        FixedWriter {
            buf: [0; MSG_BYTES],
            len: 0,
        }
    }
}

impl fmt::Write for FixedWriter {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        let room = MSG_BYTES - self.len;
        let take = if s.len() <= room {
            s.len()
        } else {
            // Truncate on a char boundary so readers get valid UTF-8.
            let mut take = room;
            while take > 0 && !s.is_char_boundary(take) {
                take -= 1;
            }
            take
        };
        self.buf[self.len..self.len + take].copy_from_slice(&s.as_bytes()[..take]);
        self.len += take;
        Ok(())
    }
}

/// The event ring: a meta word packing `level | subsystem << 8 |
/// len << 16`, the timestamp, and the message bytes packed
/// little-endian into words.
pub(crate) type DiagRing = SeqRing<SLOT_WORDS>;

impl DiagRing {
    fn record_event(&self, unix_ms: u64, level: Level, subsystem: Subsystem, msg: &FixedWriter) {
        let mut words = [0u64; SLOT_WORDS];
        words[0] = level as u64 | (subsystem as u64) << 8 | (msg.len as u64) << 16;
        words[1] = unix_ms;
        for (word, chunk) in words[2..].iter_mut().zip(msg.buf.chunks_exact(8)) {
            let mut bytes = [0u8; 8];
            bytes.copy_from_slice(chunk);
            *word = u64::from_le_bytes(bytes);
        }
        self.record(&words);
    }

    /// Copy out up to `limit` of the most recent events matching the
    /// filters, newest first.
    pub(crate) fn recent_events(
        &self,
        limit: usize,
        min_level: Level,
        subsystem: Option<Subsystem>,
    ) -> Vec<DiagEvent> {
        self.read_recent(limit, |claim, words| {
            let meta = words[0];
            let level = Level::from_u64(meta & 0xff);
            let sub = Subsystem::from_u64(meta >> 8 & 0xff);
            if level < min_level || subsystem.is_some_and(|want| want != sub) {
                return None;
            }
            let mut bytes = [0u8; MSG_BYTES];
            for (chunk, word) in bytes.chunks_exact_mut(8).zip(&words[2..]) {
                chunk.copy_from_slice(&word.to_le_bytes());
            }
            let len = ((meta >> 16) as usize).min(MSG_BYTES);
            Some(DiagEvent {
                seq: claim,
                unix_ms: words[1],
                level,
                subsystem: sub,
                message: String::from_utf8_lossy(&bytes[..len]).into_owned(),
            })
        })
    }
}

/// The service's diagnostic log: the event ring (swappable at runtime
/// via `config.set diag_buffer`), the per-subsystem rate windows, and
/// the stderr / file sinks.
pub(crate) struct DiagSink {
    ring: RwLock<Arc<DiagRing>>,
    /// Packed per-subsystem window: `sec << 16 | admitted_this_sec`.
    windows: [AtomicU64; SUBSYSTEMS],
    /// Events dropped by the rate limiter.
    suppressed: AtomicU64,
    /// Events admitted (ring-enabled or not).
    emitted: AtomicU64,
    /// Mirror admitted events of level >= Info to stderr.
    stderr: AtomicBool,
    file: Mutex<Option<File>>,
}

impl DiagSink {
    /// A sink whose ring holds `buffer` events (0 = ring off; stderr
    /// still works) and optionally appends every admitted event to
    /// `file`.
    pub(crate) fn new(buffer: usize, file: Option<&PathBuf>) -> DiagSink {
        let file = file.and_then(|path| {
            File::options()
                .create(true)
                .append(true)
                .open(path)
                .map_err(|e| eprintln!("cerfix-server: cannot open diag log {path:?}: {e}"))
                .ok()
        });
        DiagSink {
            ring: RwLock::new(Arc::new(DiagRing::new(buffer))),
            windows: std::array::from_fn(|_| AtomicU64::new(0)),
            suppressed: AtomicU64::new(0),
            emitted: AtomicU64::new(0),
            stderr: AtomicBool::new(true),
            file: Mutex::new(file),
        }
    }

    /// The current ring (for `log.read`).
    pub(crate) fn ring(&self) -> Arc<DiagRing> {
        Arc::clone(&rlock(&self.ring))
    }

    /// The ring's current capacity in slots.
    pub(crate) fn capacity(&self) -> usize {
        rlock(&self.ring).capacity()
    }

    /// Swap in a fresh ring of `buffer` slots (`config.set
    /// diag_buffer`). Buffered events are discarded.
    pub(crate) fn resize(&self, buffer: usize) {
        *self.ring.write().unwrap_or_else(|e| e.into_inner()) = Arc::new(DiagRing::new(buffer));
    }

    /// Silence the stderr mirror (tests; operators keep it on).
    #[cfg(test)]
    pub(crate) fn set_stderr(&self, on: bool) {
        self.stderr.store(on, Ordering::Relaxed);
    }

    /// Events dropped by the rate limiter since boot.
    pub(crate) fn suppressed(&self) -> u64 {
        self.suppressed.load(Ordering::Relaxed)
    }

    /// Events admitted since boot.
    pub(crate) fn emitted(&self) -> u64 {
        self.emitted.load(Ordering::Relaxed)
    }

    /// Emit an error event.
    pub(crate) fn error(&self, subsystem: Subsystem, args: fmt::Arguments<'_>) {
        self.emit(Level::Error, subsystem, args);
    }

    /// Emit a warning event.
    pub(crate) fn warn(&self, subsystem: Subsystem, args: fmt::Arguments<'_>) {
        self.emit(Level::Warn, subsystem, args);
    }

    /// Emit an informational event.
    pub(crate) fn info(&self, subsystem: Subsystem, args: fmt::Arguments<'_>) {
        self.emit(Level::Info, subsystem, args);
    }

    /// Emit a debug event (ring-only; never mirrored to stderr).
    pub(crate) fn debug(&self, subsystem: Subsystem, args: fmt::Arguments<'_>) {
        self.emit(Level::Debug, subsystem, args);
    }

    /// Rate-limit check: admit at most [`MAX_PER_SEC`] events per
    /// subsystem per wall-clock second.
    fn admit(&self, subsystem: Subsystem, sec: u64) -> bool {
        let window = &self.windows[subsystem as usize];
        let admitted = window
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |packed| {
                let (win_sec, count) = (packed >> 16, packed & 0xffff);
                if win_sec != sec {
                    Some(sec << 16 | 1)
                } else if count < MAX_PER_SEC {
                    Some(packed + 1)
                } else {
                    None
                }
            })
            .is_ok();
        if !admitted {
            self.suppressed.fetch_add(1, Ordering::Relaxed);
        }
        admitted
    }

    fn emit(&self, level: Level, subsystem: Subsystem, args: fmt::Arguments<'_>) {
        let unix_ms = now_ms();
        if !self.admit(subsystem, unix_ms / 1000) {
            return;
        }
        self.emitted.fetch_add(1, Ordering::Relaxed);
        let mut msg = FixedWriter::new();
        let _ = msg.write_fmt(args);
        rlock(&self.ring).record_event(unix_ms, level, subsystem, &msg);
        let text = std::str::from_utf8(&msg.buf[..msg.len]).unwrap_or("<non-utf8>");
        if level >= Level::Info && self.stderr.load(Ordering::Relaxed) {
            eprintln!(
                "cerfix-server: [{} {}] {text}",
                level.as_str(),
                subsystem.as_str()
            );
        }
        let mut file = self.file.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(f) = file.as_mut() {
            // A failed append silently drops the sink; the ring and
            // stderr still have the event.
            if writeln!(
                f,
                "{unix_ms} [{} {}] {text}",
                level.as_str(),
                subsystem.as_str()
            )
            .is_err()
            {
                *file = None;
            }
        }
    }
}

/// Milliseconds since the unix epoch (0 if the clock is before it).
fn now_ms() -> u64 {
    SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map_or(0, |d| d.as_millis().min(u64::MAX as u128) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet(buffer: usize) -> DiagSink {
        let sink = DiagSink::new(buffer, None);
        sink.set_stderr(false);
        sink
    }

    #[test]
    fn events_round_trip_with_level_and_subsystem_filters() {
        let sink = quiet(8);
        sink.debug(Subsystem::Server, format_args!("probe {}", 1));
        sink.info(Subsystem::Net, format_args!("accepted peer"));
        sink.warn(Subsystem::Replication, format_args!("torn frame from p1"));
        sink.error(Subsystem::Journal, format_args!("disk gone"));

        let all = sink.ring().recent_events(16, Level::Debug, None);
        assert_eq!(all.len(), 4);
        assert_eq!(all[0].message, "disk gone");
        assert_eq!(all[0].level, Level::Error);
        assert_eq!(all[0].subsystem, Subsystem::Journal);
        assert_eq!(all[3].message, "probe 1");
        assert!(all[0].seq > all[3].seq, "newest first");

        let warns = sink.ring().recent_events(16, Level::Warn, None);
        assert_eq!(warns.len(), 2);
        let repl = sink
            .ring()
            .recent_events(16, Level::Debug, Some(Subsystem::Replication));
        assert_eq!(repl.len(), 1);
        assert_eq!(repl[0].message, "torn frame from p1");
        assert_eq!(sink.emitted(), 4);
    }

    #[test]
    fn long_messages_truncate_on_char_boundaries() {
        let sink = quiet(4);
        let long = format!("{}é", "x".repeat(MSG_BYTES - 1));
        sink.warn(Subsystem::Server, format_args!("{long}"));
        let events = sink.ring().recent_events(1, Level::Debug, None);
        assert_eq!(events[0].message.len(), MSG_BYTES - 1);
        assert!(events[0].message.chars().all(|c| c == 'x'));
    }

    #[test]
    fn rate_limiter_caps_per_subsystem_per_second() {
        let sink = quiet(4);
        for _ in 0..MAX_PER_SEC {
            assert!(sink.admit(Subsystem::Net, 100));
        }
        assert!(!sink.admit(Subsystem::Net, 100), "window exhausted");
        assert_eq!(sink.suppressed(), 1);
        // Another subsystem has its own window.
        assert!(sink.admit(Subsystem::Journal, 100));
        // A new second resets the window.
        assert!(sink.admit(Subsystem::Net, 101));
    }

    #[test]
    fn zero_capacity_ring_still_counts_and_mirrors() {
        let sink = quiet(0);
        assert!(!sink.ring().enabled());
        sink.error(Subsystem::Server, format_args!("still counted"));
        assert_eq!(sink.emitted(), 1);
        assert!(sink.ring().recent_events(8, Level::Debug, None).is_empty());
    }

    #[test]
    fn resize_swaps_the_ring_at_runtime() {
        let sink = quiet(0);
        sink.resize(4);
        assert_eq!(sink.capacity(), 4);
        sink.info(Subsystem::Config, format_args!("diag_buffer set to 4"));
        let events = sink.ring().recent_events(8, Level::Debug, None);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].subsystem, Subsystem::Config);
    }

    #[test]
    fn file_sink_appends_one_line_per_event() {
        let dir = std::env::temp_dir().join(format!("cerfix-diag-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("diag.log");
        let sink = DiagSink::new(4, Some(&path));
        sink.set_stderr(false);
        sink.warn(Subsystem::Replication, format_args!("lag past threshold"));
        sink.info(Subsystem::Health, format_args!("ready again"));
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("[warn replication] lag past threshold"));
        assert!(lines[1].contains("[info health] ready again"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
