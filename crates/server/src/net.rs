//! TCP front ends: line-delimited JSON over `std::net`.
//!
//! Two interchangeable front ends serve the same [`CleaningService`]
//! behind one [`Server`] API:
//!
//! * [`Frontend::Epoll`] (Linux) — a readiness loop on raw `epoll`
//!   (see [`reactor`](crate::reactor)): one reactor thread multiplexes
//!   every connection with nonblocking sockets, per-connection
//!   read/write buffers with backpressure, and CPU-heavy ops dispatched
//!   to the service worker pool. Responses are written back in request
//!   order per connection, so clients may pipeline freely.
//! * [`Frontend::Threads`] — portable thread-per-connection fallback:
//!   blocking reads, one OS thread per client.
//!
//! Both complete a shutdown in milliseconds: the service's shutdown
//! hooks wake the epoll loop through its wakeup fd, and unblock the
//! threaded front end by half-closing every connection (read side) and
//! poking the blocked `accept` with a loopback connect — no poll
//! timeouts anywhere. Housekeeping (idle-session sweeps, snapshot
//! policy) runs on a dedicated timer thread shared by both front ends.

use crate::errors::{ErrorCode, ServeError};
use crate::ops::OpId;
use crate::protocol::{scan_line, RequestScratch};
use crate::service::CleaningService;
use std::collections::HashMap;
use std::io::Read;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

/// How often the housekeeper sweeps idle sessions / checks the
/// snapshot policy.
const SWEEP_EVERY: Duration = Duration::from_secs(1);
/// Hard cap on one request line; a batch `clean` of thousands of tuples
/// fits comfortably, a newline-less byte stream does not. Only the
/// *partial* line is bounded — a burst of complete pipelined lines
/// larger than this is fine (they drain as they arrive).
pub(crate) const MAX_LINE_BYTES: usize = 8 * 1024 * 1024;

/// What an over-long line is answered with before the hang-up.
pub(crate) fn oversize_line() -> ServeError {
    ErrorCode::BadRequest.error("request line exceeds 8 MiB; closing")
}

/// What a line that is not valid UTF-8 is answered with (the connection
/// survives).
pub(crate) fn non_utf8_line() -> ServeError {
    ErrorCode::BadRequest.error("request line is not valid UTF-8")
}

/// Handle one raw request line, appending its newline-terminated
/// response to `out`. Returns false for blank lines (no response).
///
/// This is THE per-line semantics of the protocol — UTF-8 check, blank
/// skip, trim, dispatch — shared by the threaded connection loop, the
/// reactor's inline path and its worker-pool batch jobs, so all
/// execution paths are wire-identical by construction (and the
/// chunking proptest holds them to it).
///
/// `may_hold`: the caller is a connection's own thread, which a
/// caught-up `replica.sync` that asks to wait may keep until there is
/// something to say ([`HeldSync`](crate::replication::HeldSync)). A
/// pool worker never holds — it answers the empty batch at once — and
/// the follower ack its sync carries was recorded off the reactor
/// thread, so the commits parked there are told to look again.
pub(crate) fn respond_line(
    service: &CleaningService,
    line_bytes: &[u8],
    out: &mut String,
    scratch: &mut RequestScratch,
    received: Instant,
    may_hold: bool,
) -> bool {
    let Ok(line) = std::str::from_utf8(line_bytes) else {
        service.refuse_line(&non_utf8_line(), out);
        return true;
    };
    let trimmed = line.trim();
    if trimmed.is_empty() {
        return false;
    }
    let started = Instant::now();
    let scanned = scan_line(trimmed);
    let held = if may_hold && scanned.is(OpId::ReplicaSync) {
        service.sync_arrival(&scanned)
    } else {
        None
    };
    match held {
        Some(held) => {
            service.wait_out(&held);
            service.serve_held(held, out, scratch);
        }
        None => {
            service.handle_scanned(&scanned, out, scratch, received, started);
            if !may_hold && scanned.is(OpId::ReplicaSync) {
                service.wake_holds();
            }
        }
    }
    out.push('\n');
    true
}

/// Answer a connection that is not admitted (draining, over the quota)
/// with its one error line and hang up.
pub(crate) fn refuse(service: &CleaningService, mut stream: TcpStream, error: &ServeError) {
    let mut line = String::new();
    service.refuse_line(error, &mut line);
    let _ = std::io::Write::write_all(&mut stream, line.as_bytes());
    let _ = stream.shutdown(Shutdown::Both);
}

/// Which I/O architecture a [`Server`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Frontend {
    /// One OS thread per connection, blocking reads (portable).
    Threads,
    /// Readiness loop over raw `epoll` (Linux). On other platforms this
    /// silently falls back to [`Frontend::Threads`].
    Epoll,
}

impl Frontend {
    /// The best front end for this platform: epoll on Linux, threads
    /// elsewhere.
    pub fn auto() -> Frontend {
        if cfg!(target_os = "linux") {
            Frontend::Epoll
        } else {
            Frontend::Threads
        }
    }

    /// Parse a `--frontend` value (`epoll` / `threads` / `auto`).
    pub fn parse(name: &str) -> Option<Frontend> {
        match name {
            "epoll" => Some(Frontend::Epoll),
            "threads" => Some(Frontend::Threads),
            "auto" => Some(Frontend::auto()),
            _ => None,
        }
    }

    /// The name `parse` accepts for this front end.
    pub fn name(&self) -> &'static str {
        match self {
            Frontend::Threads => "threads",
            Frontend::Epoll => "epoll",
        }
    }
}

/// A bound, not-yet-running server.
pub struct Server {
    service: CleaningService,
    listener: TcpListener,
    frontend: Frontend,
}

impl Server {
    /// Bind `addr` (e.g. `127.0.0.1:7117`, or port 0 for ephemeral) with
    /// the platform-default front end.
    pub fn bind(addr: impl ToSocketAddrs, service: CleaningService) -> std::io::Result<Server> {
        Server::bind_with(addr, service, Frontend::auto())
    }

    /// Bind with an explicit front end.
    pub fn bind_with(
        addr: impl ToSocketAddrs,
        service: CleaningService,
        frontend: Frontend,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        Ok(Server {
            service,
            listener,
            frontend,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The front end this server will run.
    pub fn frontend(&self) -> Frontend {
        self.frontend
    }

    /// Serve until a `shutdown` request arrives. Blocks the calling
    /// thread.
    pub fn run(self) -> std::io::Result<()> {
        let housekeeper = Housekeeper::start(self.service.clone());
        let result = match self.frontend {
            Frontend::Threads => run_threads(self.listener, &self.service),
            #[cfg(target_os = "linux")]
            Frontend::Epoll => crate::reactor::run_epoll(self.listener, &self.service),
            #[cfg(not(target_os = "linux"))]
            Frontend::Epoll => run_threads(self.listener, &self.service),
        };
        housekeeper.stop();
        // A graceful shutdown leaves a fresh snapshot so the next boot
        // replays an empty journal (best effort).
        let _ = self.service.snapshot_now();
        result
    }

    /// Bind-and-run on a background thread; returns a handle with the
    /// bound address. The standard shape for tests and embedders.
    pub fn spawn(
        addr: impl ToSocketAddrs,
        service: CleaningService,
    ) -> std::io::Result<ServerHandle> {
        Server::spawn_with(addr, service, Frontend::auto())
    }

    /// [`spawn`](Self::spawn) with an explicit front end.
    pub fn spawn_with(
        addr: impl ToSocketAddrs,
        service: CleaningService,
        frontend: Frontend,
    ) -> std::io::Result<ServerHandle> {
        let server = Server::bind_with(addr, service.clone(), frontend)?;
        let addr = server.local_addr()?;
        let thread = thread::Builder::new()
            .name("cerfix-server-accept".into())
            .spawn(move || server.run())
            .expect("spawn accept thread");
        Ok(ServerHandle {
            addr,
            service,
            thread: Some(thread),
        })
    }
}

/// Periodic service housekeeping on its own timer thread (idle-session
/// eviction, snapshot policy) — so neither front end needs a poll
/// timeout in its accept path. Stops within one condvar notification.
struct Housekeeper {
    stop: Arc<(Mutex<bool>, Condvar)>,
    thread: Option<thread::JoinHandle<()>>,
}

impl Housekeeper {
    fn start(service: CleaningService) -> Housekeeper {
        let stop = Arc::new((Mutex::new(false), Condvar::new()));
        let shared = Arc::clone(&stop);
        let thread = thread::Builder::new()
            .name("cerfix-housekeeper".into())
            .spawn(move || {
                let (flag, wake) = &*shared;
                let mut stopped = flag.lock().unwrap_or_else(PoisonError::into_inner);
                loop {
                    if *stopped {
                        return;
                    }
                    let (guard, _) = wake
                        .wait_timeout(stopped, SWEEP_EVERY)
                        .unwrap_or_else(PoisonError::into_inner);
                    stopped = guard;
                    if *stopped {
                        return;
                    }
                    service.sweep_idle_sessions();
                    // Periodic durability housekeeping: install a
                    // snapshot (and truncate the journal) when the
                    // policy says so.
                    if let Err(e) = service.maybe_snapshot() {
                        service.diag().error(
                            crate::diag::Subsystem::Journal,
                            format_args!("snapshot failed: {e}"),
                        );
                    }
                    // One metrics sample per sweep feeds the
                    // `metrics.history` window, and a health probe per
                    // sweep logs ready/not-ready transitions even while
                    // nobody is watching.
                    service.sample_timeseries();
                    service.probe_health();
                    // Storage-fault sweep: free-space watermark in and
                    // out of degraded mode, poison/spill-error logging.
                    service.probe_storage();
                }
            })
            .expect("spawn housekeeper thread");
        Housekeeper {
            stop,
            thread: Some(thread),
        }
    }

    fn stop(mut self) {
        let (flag, wake) = &*self.stop;
        *flag.lock().unwrap_or_else(PoisonError::into_inner) = true;
        wake.notify_all();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Live connection streams of the threaded front end, so a shutdown can
/// half-close every read side immediately (the "self-pipe" equivalent
/// for blocking reads: a blocked `read` returns 0 while any response
/// still in flight writes out normally).
struct ConnRegistry {
    streams: Mutex<HashMap<u64, TcpStream>>,
    next_id: AtomicU64,
}

impl ConnRegistry {
    fn new() -> ConnRegistry {
        ConnRegistry {
            streams: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
        }
    }

    fn register(&self, stream: &TcpStream) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        if let Ok(clone) = stream.try_clone() {
            self.streams
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .insert(id, clone);
        }
        id
    }

    fn deregister(&self, id: u64) {
        self.streams
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(&id);
    }

    fn shutdown_all(&self) {
        let streams = self.streams.lock().unwrap_or_else(PoisonError::into_inner);
        for stream in streams.values() {
            let _ = stream.shutdown(Shutdown::Read);
        }
    }
}

/// Thread-per-connection accept loop: blocking `accept`, one thread per
/// client. Shutdown wakes the accept with a loopback connect and
/// half-closes every live connection.
fn run_threads(listener: TcpListener, service: &CleaningService) -> std::io::Result<()> {
    listener.set_nonblocking(false)?;
    let mut local = listener.local_addr()?;
    // A wildcard bind (0.0.0.0 / ::) is not connectable on every
    // platform; the wake connect goes to loopback on the bound port.
    if local.ip().is_unspecified() {
        let loopback: std::net::IpAddr = match local {
            SocketAddr::V4(_) => std::net::Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => std::net::Ipv6Addr::LOCALHOST.into(),
        };
        local.set_ip(loopback);
    }
    let registry = Arc::new(ConnRegistry::new());
    let live = Arc::new(AtomicBool::new(true));
    let hook_registry = Arc::clone(&registry);
    let hook = service.add_shutdown_hook(move || {
        hook_registry.shutdown_all();
        // A blocked accept has no fd to poke portably; a throwaway
        // loopback connect returns it immediately.
        let _ = TcpStream::connect(local);
    });
    let mut connections: Vec<thread::JoinHandle<()>> = Vec::new();
    let result = loop {
        if service.shutdown_requested() {
            break Ok(());
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                if service.shutdown_requested() {
                    break Ok(()); // the hook's wake connect, most likely
                }
                // Connection-level admission: a draining server or one
                // at its connection quota refuses at accept time with
                // one typed error line — cheaper than a thread + buffers
                // for a connection that would only be told "no" later.
                if let Err(error) = service.admit_connection() {
                    refuse(service, stream, &error);
                    continue;
                }
                // Counted here, not by the connection's own thread: the
                // next `admit_connection` must see this connection even
                // if its thread has not been scheduled yet.
                let open = OpenConnection::count(service.clone());
                let id = registry.register(&stream);
                let live = Arc::clone(&live);
                let registry = Arc::clone(&registry);
                connections.retain(|handle| !handle.is_finished());
                connections.push(thread::spawn(move || {
                    serve_connection(stream, open, &live);
                    registry.deregister(id);
                }));
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => break Err(e),
        }
    };
    // Stop serving new requests on existing connections, then let their
    // threads wind down (reads are already unblocked by the hook; cover
    // the non-`shutdown`-op exit path too).
    live.store(false, Ordering::Release);
    registry.shutdown_all();
    for handle in connections {
        let _ = handle.join();
    }
    service.remove_shutdown_hook(hook);
    result
}

/// Growable read buffer with in-place line splitting: lines are handed
/// out as borrowed slices and consumed by offset — no per-line `Vec`
/// drain/collect — and the newline scan never revisits bytes. Shared by
/// the threaded connection loop and the epoll reactor.
pub(crate) struct LineBuffer {
    buf: Vec<u8>,
    /// Bytes before `start` are consumed.
    start: usize,
    /// No b'\n' exists in `start..scanned` (resume point for the scan).
    scanned: usize,
}

impl LineBuffer {
    pub(crate) fn new() -> LineBuffer {
        LineBuffer {
            buf: Vec::new(),
            start: 0,
            scanned: 0,
        }
    }

    /// Append freshly-read bytes (both connection loops read into a
    /// long-lived scratch chunk and append — no per-read zeroing).
    pub(crate) fn extend(&mut self, bytes: &[u8]) {
        self.compact();
        self.buf.extend_from_slice(bytes);
    }

    /// The next complete line (without its `\n`), consuming it.
    pub(crate) fn next_line(&mut self) -> Option<&[u8]> {
        let from = self.scanned.max(self.start);
        match self.buf[from..].iter().position(|&b| b == b'\n') {
            Some(rel) => {
                let end = from + rel;
                let line = &self.buf[self.start..end];
                self.start = end + 1;
                self.scanned = self.start;
                Some(line)
            }
            None => {
                self.scanned = self.buf.len();
                None
            }
        }
    }

    /// Bytes of the current partial line (no newline yet) — what the
    /// 8 MiB bound applies to.
    pub(crate) fn partial_len(&self) -> usize {
        self.buf.len() - self.start
    }

    fn compact(&mut self) {
        if self.start == 0 {
            return;
        }
        self.buf.copy_within(self.start.., 0);
        self.buf.truncate(self.buf.len() - self.start);
        self.scanned -= self.start;
        self.start = 0;
    }
}

/// One admitted connection's share of the `connections_open` gauge:
/// taken by the acceptor the moment `admit_connection` lets the
/// connection in, given back exactly once, when the connection's thread
/// drops it — whichever way that thread leaves.
struct OpenConnection {
    service: CleaningService,
}

impl OpenConnection {
    fn count(service: CleaningService) -> OpenConnection {
        let metrics = service.metrics_raw();
        metrics.connections_open.inc();
        metrics.connections_total.inc();
        OpenConnection { service }
    }
}

impl Drop for OpenConnection {
    fn drop(&mut self) {
        self.service.metrics_raw().connections_open.dec();
    }
}

fn serve_connection(mut stream: TcpStream, open: OpenConnection, live: &AtomicBool) {
    use std::io::Write;
    let service = &open.service;
    let metrics = service.metrics_raw();
    let _ = stream.set_nodelay(true);
    let Ok(mut writer) = stream.try_clone() else {
        return;
    };
    let mut buf = LineBuffer::new();
    let mut chunk = vec![0u8; 16 * 1024];
    let mut out = String::new();
    let mut scratch = RequestScratch::default();
    // Blocking reads, no timeout: shutdown half-closes the read side
    // through the registry, so a parked read returns 0 immediately.
    loop {
        if !live.load(Ordering::Acquire) || service.shutdown_requested() {
            break;
        }
        match stream.read(&mut chunk) {
            Ok(0) => break, // client closed (or shutdown half-close)
            Ok(n) => {
                buf.extend(&chunk[..n]);
                metrics.bytes_in.add(n as u64);
                // Every line in this chunk shares one arrival stamp —
                // queue wait and deadlines are measured from the read,
                // not from when the dispatch loop got around to the line.
                let received = Instant::now();
                while let Some(line_bytes) = buf.next_line() {
                    out.clear();
                    if !respond_line(service, line_bytes, &mut out, &mut scratch, received, true) {
                        continue; // blank line
                    }
                    // One write per response: first responses of a
                    // pipelined burst go out while later requests are
                    // still being served.
                    if writer.write_all(out.as_bytes()).is_err() {
                        return;
                    }
                    metrics.bytes_out.add(out.len() as u64);
                }
                // Complete lines drained above; only an unbounded
                // *partial* line is hostile.
                if buf.partial_len() > MAX_LINE_BYTES {
                    out.clear();
                    service.refuse_line(&oversize_line(), &mut out);
                    let _ = writer.write_all(out.as_bytes());
                    break;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
    }
}

/// A running server on a background thread.
pub struct ServerHandle {
    addr: SocketAddr,
    service: CleaningService,
    thread: Option<thread::JoinHandle<std::io::Result<()>>>,
}

impl ServerHandle {
    /// The address clients should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The served service (shared counters, sessions, cache).
    pub fn service(&self) -> &CleaningService {
        &self.service
    }

    /// Request shutdown and join the accept thread. Completes in
    /// milliseconds: the shutdown hooks wake both front ends out of
    /// band (no poll timeouts to ride out).
    pub fn shutdown(mut self) -> std::io::Result<()> {
        self.service.handle(&crate::protocol::Request::Shutdown);
        match self.thread.take() {
            Some(handle) => handle.join().unwrap_or(Ok(())),
            None => Ok(()),
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.service.handle(&crate::protocol::Request::Shutdown);
        if let Some(handle) = self.thread.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_buffer_splits_in_place() {
        let mut buf = LineBuffer::new();
        buf.extend(b"one\ntwo\nthr");
        assert_eq!(buf.next_line(), Some(&b"one"[..]));
        assert_eq!(buf.next_line(), Some(&b"two"[..]));
        assert_eq!(buf.next_line(), None);
        assert_eq!(buf.partial_len(), 3);
        buf.extend(b"ee\n");
        assert_eq!(buf.next_line(), Some(&b"three"[..]));
        assert_eq!(buf.next_line(), None);
        assert_eq!(buf.partial_len(), 0);
    }

    #[test]
    fn line_buffer_byte_at_a_time() {
        // Slow-loris shape: bytes arrive one at a time; lines surface
        // exactly at their newline, regardless of chunking.
        let mut buf = LineBuffer::new();
        let mut lines: Vec<Vec<u8>> = Vec::new();
        for &b in b"hello\nworld\n" {
            buf.extend(&[b]);
            while let Some(line) = buf.next_line() {
                lines.push(line.to_vec());
            }
        }
        assert_eq!(lines, vec![b"hello".to_vec(), b"world".to_vec()]);
    }

    #[test]
    fn frontend_parse_and_auto() {
        assert_eq!(Frontend::parse("threads"), Some(Frontend::Threads));
        assert_eq!(Frontend::parse("epoll"), Some(Frontend::Epoll));
        assert_eq!(Frontend::parse("auto"), Some(Frontend::auto()));
        assert_eq!(Frontend::parse("uring"), None);
        if cfg!(target_os = "linux") {
            assert_eq!(Frontend::auto(), Frontend::Epoll);
        }
    }
}
