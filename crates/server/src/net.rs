//! The TCP front end: line-delimited JSON over `std::net`.
//!
//! One OS thread per connection, blocking reads. A connection's thread
//! answers the complete lines of one `read` in order and sends their
//! replies with one `write_all`: a closed-loop request costs one read
//! and one write, a pipelined window that arrives in one chunk one
//! write. A line that makes the thread wait — a journaled
//! `session.commit`'s group fsync and quorum, a held `replica.sync` —
//! first writes what is already answered, so a pipelining client never
//! waits for a reply that is computed. Heavy ops run on the connection's
//! thread too; a `clean` fans its tuples out across scoped threads it
//! joins before replying.
//!
//! The lines of one read share one clock: the read's arrival stamp is
//! every line's receipt (its queue wait and its deadline count from
//! there) and the first line's start, and each later line starts where
//! the line before it ended, at that line's end stamp. So the spans of
//! one read tile — `queue_ns` of a line is the `queue_ns` plus the
//! `total_ns` of the line before it — and a pipelined `session.get`
//! reads the clock twice ([`crate::trace`]). A held `replica.sync` is
//! answered from its own release stamp, and a line behind it queues
//! from that release, so no span holds the hold; its deadline still
//! counts from the read's arrival, so a caller that gave up during the
//! hold is shed. A write the connection
//! makes mid-read (before a line that waits, or past the high-water
//! mark) is transport, no line's service: the line after it starts at a
//! fresh stamp, and its queue wait holds the write.
//!
//! Shutdown completes in milliseconds: the service's shutdown hook
//! half-closes every connection (read side) and pokes the blocked
//! `accept` with a loopback connect — no poll timeouts anywhere. A
//! connection still writing to a peer that does not read is cut off
//! after `DRAIN_DEADLINE`. Housekeeping (idle-session sweeps, snapshot
//! policy) runs on a dedicated timer thread.

use crate::errors::{ErrorCode, ServeError};
use crate::metrics::ServiceMetrics;
use crate::ops::OpId;
use crate::protocol::{scan_line, RequestScratch};
use crate::replication::HeldSync;
use crate::service::{CleaningService, LineClock};
use crate::trace::stamp;
use cerfix_storage::DurableWatch;
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
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
const MAX_LINE_BYTES: usize = 8 * 1024 * 1024;
/// Replies held past this are written before the read's remaining
/// lines are answered, so what a connection holds stays bounded however
/// many lines one read brings.
const WRITE_HIGH_WATER: usize = 1024 * 1024;
/// How long a shutdown waits for connections to write their last
/// replies before it cuts off the ones whose peer does not read.
const DRAIN_DEADLINE: Duration = Duration::from_secs(1);

/// Which I/O architecture a [`Server`] runs: there is one. It is kept,
/// with [`Frontend::auto`] and [`Server::spawn_with`], because the
/// benchmark under `ledger/` names them; removing them is a
/// benchmark-only change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Frontend {
    /// One OS thread per connection, blocking reads.
    Threads,
}

impl Frontend {
    /// The front end: [`Frontend::Threads`].
    pub fn auto() -> Frontend {
        Frontend::Threads
    }
}

/// A bound, not-yet-running server.
pub struct Server {
    service: CleaningService,
    listener: TcpListener,
}

impl Server {
    /// Bind `addr` (e.g. `127.0.0.1:7117`, or port 0 for ephemeral).
    pub fn bind(addr: impl ToSocketAddrs, service: CleaningService) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        Ok(Server { service, listener })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serve until a `shutdown` request arrives. Blocks the calling
    /// thread.
    pub fn run(self) -> std::io::Result<()> {
        let housekeeper = Housekeeper::start(self.service.clone());
        let result = run_threads(self.listener, &self.service);
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
        let server = Server::bind(addr, service.clone())?;
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

    /// [`spawn`](Self::spawn), for a caller that names the front end.
    pub fn spawn_with(
        addr: impl ToSocketAddrs,
        service: CleaningService,
        _frontend: Frontend,
    ) -> std::io::Result<ServerHandle> {
        Server::spawn(addr, service)
    }
}

/// Periodic service housekeeping on its own timer thread (idle-session
/// eviction, snapshot policy) — so the accept path needs no poll
/// timeout. Stops within one condvar notification.
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

/// Live connection streams, so a shutdown can half-close every read
/// side immediately (the "self-pipe" equivalent for blocking reads: a
/// blocked `read` returns 0 while any reply still in flight writes out
/// normally), wait for the connections to close, and cut off the ones
/// that do not.
struct ConnRegistry {
    streams: Mutex<HashMap<u64, TcpStream>>,
    /// Notified each time a connection leaves `streams`.
    closed: Condvar,
    next_id: AtomicU64,
}

impl ConnRegistry {
    fn new() -> ConnRegistry {
        ConnRegistry {
            streams: Mutex::new(HashMap::new()),
            closed: Condvar::new(),
            next_id: AtomicU64::new(1),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<u64, TcpStream>> {
        self.streams.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn register(&self, stream: &TcpStream) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        if let Ok(clone) = stream.try_clone() {
            self.lock().insert(id, clone);
        }
        id
    }

    fn deregister(&self, id: u64) {
        self.lock().remove(&id);
        self.closed.notify_all();
    }

    fn shutdown_all(&self, how: Shutdown) {
        for stream in self.lock().values() {
            let _ = stream.shutdown(how);
        }
    }

    /// Wait until every connection has closed, or `deadline` passes.
    fn wait_closed(&self, deadline: Instant) {
        let mut streams = self.lock();
        while !streams.is_empty() {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return;
            }
            streams = self
                .closed
                .wait_timeout(streams, left)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
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
        hook_registry.shutdown_all(Shutdown::Read);
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
                let open = OpenConnection::open(service.clone(), &registry, &stream);
                let live = Arc::clone(&live);
                connections.retain(|handle| !handle.is_finished());
                connections.push(thread::spawn(move || {
                    serve_connection(stream, open, &live);
                }));
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => break Err(e),
        }
    };
    // Stop serving new requests on existing connections (reads are
    // already unblocked by the hook; cover the non-`shutdown`-op exit
    // path too), let them write what they owe, then cut off a
    // connection still blocked writing to a peer that does not read.
    live.store(false, Ordering::Release);
    registry.shutdown_all(Shutdown::Read);
    registry.wait_closed(Instant::now() + DRAIN_DEADLINE);
    registry.shutdown_all(Shutdown::Both);
    for handle in connections {
        let _ = handle.join();
    }
    service.remove_shutdown_hook(hook);
    result
}

/// Answer a connection that is not admitted (draining, over the quota)
/// with its one error line and hang up.
fn refuse(service: &CleaningService, mut stream: TcpStream, error: &ServeError) {
    let mut line = String::new();
    service.refuse_line(error, &mut line);
    let _ = stream.write_all(line.as_bytes());
    let _ = stream.shutdown(Shutdown::Both);
}

/// Growable read buffer with in-place line splitting: lines are handed
/// out as borrowed slices and consumed by offset — no per-line `Vec`
/// drain/collect — and the newline scan never revisits bytes.
struct LineBuffer {
    buf: Vec<u8>,
    /// Bytes before `start` are consumed.
    start: usize,
    /// No b'\n' exists in `start..scanned` (resume point for the scan).
    scanned: usize,
}

impl LineBuffer {
    fn new() -> LineBuffer {
        LineBuffer {
            buf: Vec::new(),
            start: 0,
            scanned: 0,
        }
    }

    /// Append freshly-read bytes (the connection loop reads into a
    /// long-lived scratch chunk and appends — no per-read zeroing).
    fn extend(&mut self, bytes: &[u8]) {
        self.compact();
        self.buf.extend_from_slice(bytes);
    }

    /// Where the next complete line ends (its `\n`), if one is buffered.
    fn line_end(&mut self) -> Option<usize> {
        let from = self.scanned.max(self.start);
        let end = self.buf[from..].iter().position(|&b| b == b'\n');
        self.scanned = end.map_or(self.buf.len(), |rel| from + rel);
        end.map(|rel| from + rel)
    }

    /// The next complete line (without its `\n`), left in place.
    fn peek_line(&mut self) -> Option<&[u8]> {
        let end = self.line_end()?;
        Some(&self.buf[self.start..end])
    }

    /// The next complete line (without its `\n`), consuming it.
    fn next_line(&mut self) -> Option<&[u8]> {
        let (start, end) = (self.start, self.line_end()?);
        self.start = end + 1;
        self.scanned = self.start;
        Some(&self.buf[start..end])
    }

    /// Bytes of the current partial line (no newline yet) — what the
    /// 8 MiB bound applies to.
    fn partial_len(&self) -> usize {
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

/// One admitted connection's share of the `connections_open` gauge and
/// its place in the [`ConnRegistry`]: taken by the acceptor the moment
/// `admit_connection` lets the connection in, given back exactly once,
/// when the connection's thread drops it — whichever way that thread
/// leaves. A shutdown waiting for the connections to close is told.
struct OpenConnection {
    service: CleaningService,
    registry: Arc<ConnRegistry>,
    id: u64,
}

impl OpenConnection {
    fn open(
        service: CleaningService,
        registry: &Arc<ConnRegistry>,
        stream: &TcpStream,
    ) -> OpenConnection {
        let metrics = service.metrics_raw();
        metrics.connections_open.inc();
        metrics.connections_total.inc();
        OpenConnection {
            service,
            registry: Arc::clone(registry),
            id: registry.register(stream),
        }
    }
}

impl Drop for OpenConnection {
    fn drop(&mut self) {
        self.service.metrics_raw().connections_open.dec();
        self.registry.deregister(self.id);
    }
}

/// The replies a connection owes its peer, held until the lines of one
/// read are answered and then written together.
struct Replies {
    writer: TcpStream,
    out: String,
}

impl Replies {
    /// [`flush`](Self::flush) mid-read: a write that happens leaves the
    /// next line to start after it.
    fn flush_before(&mut self, metrics: &ServiceMetrics, clock: &mut LineClock) -> bool {
        if self.out.is_empty() {
            return true;
        }
        let written = self.flush(metrics);
        clock.started = stamp();
        written
    }

    /// Write everything held, in one `write_all` (none when nothing is
    /// held). False once the peer is gone.
    fn flush(&mut self, metrics: &ServiceMetrics) -> bool {
        if self.out.is_empty() {
            return true;
        }
        // Counted before the call, so a peer that has its reply already
        // sees it counted.
        metrics.net_writes.inc();
        let written = self.writer.write_all(self.out.as_bytes()).is_ok();
        if written {
            metrics.bytes_out.add(self.out.len() as u64);
        }
        self.out.clear();
        written
    }

    /// [`flush`](Self::flush) in a round a commit leads: each `write`
    /// waits no longer than `until`, the commit's deadline. A write cut
    /// short leaves a torn reply on the wire, so the peer counts as gone.
    fn flush_by(&mut self, metrics: &ServiceMetrics, until: Instant) -> bool {
        if self.out.is_empty() {
            return true;
        }
        metrics.net_writes.inc();
        let mut rest = self.out.as_bytes();
        while !rest.is_empty() {
            let left = until.saturating_duration_since(stamp());
            if left.is_zero() || self.writer.set_write_timeout(Some(left)).is_err() {
                break;
            }
            match self.writer.write(rest) {
                Ok(0) => break,
                Ok(n) => rest = &rest[n..],
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => break,
            }
        }
        let written = rest.is_empty();
        if written {
            metrics.bytes_out.add(self.out.len() as u64);
        }
        self.out.clear();
        written
    }
}

/// Everything one connection keeps between its reads: the socket's two
/// ends, the bytes read and not yet answered, the replies it owes, its
/// request buffers, where its next line stands on the clock, and the
/// `replica.sync` it holds. Its own thread drives it; while it holds a
/// sync it is parked in the connection's [`HoldSlot`], and whichever
/// thread serves the sync drives it for that [`round`].
pub(crate) struct Conn {
    reader: TcpStream,
    replies: Replies,
    buf: LineBuffer,
    chunk: Vec<u8>,
    scratch: RequestScratch,
    clock: LineClock,
    held: HeldSync,
    /// The peer is gone: a read saw its end, or a write failed.
    closed: bool,
}

impl Conn {
    pub(crate) fn new(stream: TcpStream) -> Option<Conn> {
        let _ = stream.set_nodelay(true);
        let writer = stream.try_clone().ok()?;
        Some(Conn {
            reader: stream,
            replies: Replies {
                writer,
                out: String::new(),
            },
            buf: LineBuffer::new(),
            chunk: vec![0u8; 16 * 1024],
            scratch: RequestScratch::default(),
            clock: LineClock::at(stamp()),
            held: HeldSync::default(),
            closed: false,
        })
    }

    /// One blocking `read` into the line buffer. Every line it brings
    /// shares one arrival stamp — queue wait and deadlines are measured
    /// from the read, not from when a line's turn came. False when
    /// nothing came: the peer is gone (`closed`), or a read timeout set
    /// by a round a commit leads ran out.
    fn read(&mut self, metrics: &ServiceMetrics) -> bool {
        loop {
            let read = self.reader.read(&mut self.chunk);
            metrics.net_reads.inc();
            match read {
                Ok(0) => break, // the peer closed (or shutdown half-closed)
                Ok(n) => {
                    self.buf.extend(&self.chunk[..n]);
                    metrics.bytes_in.add(n as u64);
                    self.clock = LineClock::at(stamp());
                    return true;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    return false;
                }
                Err(_) => break,
            }
        }
        self.closed = true;
        false
    }
}

fn serve_connection(stream: TcpStream, open: OpenConnection, live: &AtomicBool) {
    let service = &open.service;
    let metrics = service.metrics_raw();
    let Some(mut conn) = Conn::new(stream) else {
        return;
    };
    // Made at the connection's first held sync and kept until it closes.
    let mut holding: Option<Holding> = None;
    // Blocking reads, no timeout: shutdown half-closes the read side
    // through the registry, so a parked read returns 0 immediately.
    while live.load(Ordering::Acquire) && !service.shutdown_requested() {
        if !conn.read(metrics) {
            break;
        }
        while let Some(line_bytes) = conn.buf.next_line() {
            let step = respond_line(
                service,
                line_bytes,
                &mut conn.replies,
                &mut conn.scratch,
                &mut conn.clock,
                &mut conn.held,
            );
            match step {
                Step::Answered => {}
                Step::Held => {
                    // What is answered goes out before the hold.
                    if !conn.replies.flush(metrics) {
                        return;
                    }
                    let holding = holding.get_or_insert_with(|| Holding::open(service));
                    conn = holding.park(service, conn);
                    if conn.closed {
                        return;
                    }
                }
                Step::Gone => return,
            }
            if conn.replies.out.len() > WRITE_HIGH_WATER
                && !conn.replies.flush_before(metrics, &mut conn.clock)
            {
                return;
            }
        }
        // Complete lines answered above; only an unbounded *partial*
        // line is hostile.
        let oversize = conn.buf.partial_len() > MAX_LINE_BYTES;
        if oversize {
            let error = ErrorCode::BadRequest.error("request line exceeds 8 MiB; closing");
            service.refuse_line(&error, &mut conn.replies.out);
        }
        if !conn.replies.flush(metrics) || oversize {
            break;
        }
    }
}

/// What answering one line left the connection to do.
enum Step {
    /// Answered (or skipped): on to the next line.
    Answered,
    /// A caught-up `replica.sync` asking to wait, now in the connection's
    /// `held`: park the connection with it.
    Held,
    /// A write failed: the peer is gone.
    Gone,
}

/// Answer one raw request line into `replies`: UTF-8 check, blank skip,
/// trim, scan, dispatch — THE per-line semantics of the protocol, and
/// the chunking proptest holds them independent of how lines arrive.
/// A commit that makes this thread wait writes what `replies` holds
/// first; a sync that is held is not answered here but kept in `held`.
/// `clock` is where the line stands on the clock, moved on to where the
/// next one does.
fn respond_line(
    service: &CleaningService,
    line_bytes: &[u8],
    replies: &mut Replies,
    scratch: &mut RequestScratch,
    clock: &mut LineClock,
    held: &mut HeldSync,
) -> Step {
    let Ok(line) = std::str::from_utf8(line_bytes) else {
        let error = ErrorCode::BadRequest.error("request line is not valid UTF-8");
        service.refuse_line(&error, &mut replies.out);
        return Step::Answered; // the connection survives
    };
    let trimmed = line.trim();
    if trimmed.is_empty() {
        return Step::Answered; // blank line: no reply
    }
    let scanned = scan_line(trimmed);
    if scanned.is(OpId::ReplicaSync) && service.sync_arrival(&scanned, &mut scratch.unescape, held)
    {
        return Step::Held;
    }
    // A journaled commit waits for its group fsync (and quorum).
    let waits = scanned.is(OpId::SessionCommit) && service.is_journaled();
    if waits && !replies.flush_before(service.metrics_raw(), clock) {
        return Step::Gone;
    }
    clock.started = service.handle_scanned(&scanned, &mut replies.out, scratch, *clock);
    replies.out.push('\n');
    Step::Answered
}

/// How a [`round`] ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Round {
    /// The follower's next line was a caught-up sync asking to wait: it
    /// is the connection's new hold, and the connection parks again.
    Parked,
    /// Anything else: the connection goes back to its own thread, with
    /// whatever was read still buffered.
    HandedBack,
}

/// One replication round on a connection whose held sync is over, on
/// whichever thread drives it: serve the sync
/// ([`CleaningService::serve_held`], its span, metrics and `requests`
/// count as any request's), then read the follower's next line — the
/// ack. If it is a caught-up sync asking to wait, its arrival records
/// the ack ([`CleaningService::sync_arrival`]) and it is the new hold.
/// Anything else — another op, a sync with something to fetch, a torn
/// line, the peer's end, `until` passing — is left buffered for the
/// connection's own thread, which answers it as it answers any line.
/// `until` is a leading committer's deadline, which its read does not
/// wait past; the connection's own thread passes `None`.
pub(crate) fn round(service: &CleaningService, conn: &mut Conn, until: Option<Instant>) -> Round {
    let (released, ended) = service.serve_held(
        &mut conn.held,
        &mut conn.replies.out,
        &mut conn.scratch.served,
    );
    conn.replies.out.push('\n');
    if until.is_some() {
        service.metrics_raw().replica_syncs_led.inc();
    }
    // A line behind the sync queues from its release, starts at its end.
    conn.clock.received = released;
    conn.clock.started = ended;
    conn.next_hold(service, until)
}

impl Conn {
    /// The second half of a [`round`]: take the follower's next line —
    /// written what is owed and read first, when none is buffered — and
    /// keep it as the connection's new hold if it is a caught-up sync
    /// asking to wait. With `until` (a leading commit's deadline) the
    /// write and the read wait no longer than it; the timeouts stay on
    /// the socket until the connection's thread takes it back
    /// ([`Holding::turn`]).
    pub(crate) fn next_hold(&mut self, service: &CleaningService, until: Option<Instant>) -> Round {
        let metrics = service.metrics_raw();
        if self.buf.peek_line().is_none() {
            if !self.flush(metrics, until) {
                return Round::HandedBack;
            }
            if let Some(until) = until {
                let left = until.saturating_duration_since(stamp());
                if left.is_zero() || self.reader.set_read_timeout(Some(left)).is_err() {
                    return Round::HandedBack;
                }
            }
            if service.shutdown_requested() || !self.read(metrics) {
                return Round::HandedBack;
            }
        }
        let Some(line) = self.buf.peek_line() else {
            return Round::HandedBack; // a torn line: its thread reads on
        };
        let held = match std::str::from_utf8(line).map(|line| scan_line(line.trim())) {
            Ok(scanned) => {
                scanned.is(OpId::ReplicaSync)
                    && service.sync_arrival(&scanned, &mut self.scratch.unescape, &mut self.held)
            }
            Err(_) => false,
        };
        if !held {
            return Round::HandedBack;
        }
        self.buf.next_line();
        if !self.flush(metrics, until) {
            return Round::HandedBack;
        }
        Round::Parked
    }

    /// Write what is owed, by `until` when a commit leads the round.
    fn flush(&mut self, metrics: &ServiceMetrics, until: Option<Instant>) -> bool {
        let written = match until {
            Some(until) => self.replies.flush_by(metrics, until),
            None => self.replies.flush(metrics),
        };
        self.closed |= !written;
        written
    }
}

/// Where a connection parks while it holds a `replica.sync`: the whole
/// connection, and whose turn it is to drive it. Exactly one thread
/// drives a connection at a time — its own, or a quorum commit leading
/// the held sync's round ([`Claim::lead`]) — and its own thread sleeps
/// on `turn` meanwhile.
pub(crate) struct HoldSlot {
    state: Mutex<Slot>,
    turn: Condvar,
}

struct Slot {
    phase: Phase,
    /// The connection, while it is not its thread's or a leader's.
    conn: Option<Conn>,
    /// The connection's thread sleeps with no timeout: it found the
    /// hold claimed or led, so had no expiry to wait for, and must be
    /// woken when the connection is parked again.
    untimed: bool,
    /// A commit led a round since the connection's thread last drove it,
    /// so the socket has write and read timeouts that thread clears.
    bounded: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Its own thread drives the connection.
    Own,
    /// Parked with its held sync, free to claim.
    Parked,
    /// Parked, and claimed by a quorum commit that will lead the round.
    Claimed,
    /// The claiming commit drives the connection.
    Led,
    /// A round handed the connection back to its thread.
    Returned,
}

impl HoldSlot {
    fn lock(&self) -> std::sync::MutexGuard<'_, Slot> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// What a journal move calls: wake the connection's thread if the
    /// hold is parked free. A claimed hold wakes nobody — the commit
    /// that claimed it leads the round.
    fn wake(&self) {
        if self.lock().phase == Phase::Parked {
            self.turn.notify_one();
        }
    }

    /// Put `conn` back in `phase` after a claim or a round, and wake its
    /// thread if the connection is its again, if it sleeps with no
    /// timeout, or if the hold is already over (a journal move while the
    /// slot was claimed or led woke nobody).
    fn settle(
        &self,
        service: &CleaningService,
        mut slot: std::sync::MutexGuard<'_, Slot>,
        phase: Phase,
    ) {
        slot.phase = phase;
        let over = || {
            slot.conn
                .as_ref()
                .is_none_or(|conn| service.hold_over(&conn.held))
        };
        if phase == Phase::Returned || slot.untimed || over() {
            self.turn.notify_one();
        }
    }
}

/// The slots of every connection that has held a `replica.sync` here.
#[derive(Default)]
pub(crate) struct Holds {
    slots: Mutex<Vec<Arc<HoldSlot>>>,
}

impl Holds {
    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Arc<HoldSlot>>> {
        self.slots.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Claim the first hold parked free.
    pub(crate) fn claim<'s>(&self, service: &'s CleaningService) -> Option<Claim<'s>> {
        self.lock().iter().find_map(|slot| {
            let mut state = slot.lock();
            (state.phase == Phase::Parked).then(|| {
                state.phase = Phase::Claimed;
                Claim {
                    service,
                    slot: Some(Arc::clone(slot)),
                }
            })
        })
    }
}

/// A quorum commit's claim on a parked hold
/// ([`CleaningService::claim_hold`]). Led, it serves the hold's round
/// on the commit's thread; dropped unled (the fsync failed, or the hold
/// had nothing to serve), it gives the hold back.
pub(crate) struct Claim<'s> {
    service: &'s CleaningService,
    slot: Option<Arc<HoldSlot>>,
}

impl Claim<'_> {
    /// Lead the claimed hold's round on this thread, reading the
    /// follower's ack until `until` at the latest, then park the
    /// connection again or hand it back to its thread.
    pub(crate) fn lead(mut self, until: Instant) {
        let service = self.service;
        let Some(slot) = self.slot.take() else {
            return;
        };
        if stamp() >= until {
            self.slot = Some(slot);
            return; // too late to lead: the claim, dropped, gives it back
        }
        let mut state = slot.lock();
        let Some(mut conn) = state.conn.take_if(|conn| service.hold_over(&conn.held)) else {
            drop(state);
            self.slot = Some(slot);
            return; // nothing to serve: the claim, dropped, gives it back
        };
        state.phase = Phase::Led;
        state.bounded = true;
        drop(state);
        let round = round(service, &mut conn, Some(until));
        let mut state = slot.lock();
        state.conn = Some(conn);
        let phase = match round {
            Round::Parked => Phase::Parked,
            Round::HandedBack => Phase::Returned,
        };
        slot.settle(service, state, phase);
    }
}

impl Drop for Claim<'_> {
    fn drop(&mut self) {
        if let Some(slot) = self.slot.take() {
            let state = slot.lock();
            if state.phase == Phase::Claimed {
                slot.settle(self.service, state, Phase::Parked);
            }
        }
    }
}

/// A connection's [`HoldSlot`], registered where quorum commits claim
/// holds and where a journal move wakes it, from the connection's first
/// held sync until it closes — made once per connection, so a hold
/// after that allocates nothing.
pub(crate) struct Holding {
    service: CleaningService,
    slot: Arc<HoldSlot>,
    _watch: Option<DurableWatch>,
}

impl Holding {
    pub(crate) fn open(service: &CleaningService) -> Holding {
        let slot = Arc::new(HoldSlot {
            state: Mutex::new(Slot {
                phase: Phase::Own,
                conn: None,
                untimed: false,
                bounded: false,
            }),
            turn: Condvar::new(),
        });
        service.replication().holds.lock().push(Arc::clone(&slot));
        let watch = service.storage().map(|storage| {
            let slot = Arc::clone(&slot);
            storage.journal().watch(Arc::new(move || slot.wake()))
        });
        Holding {
            service: service.clone(),
            slot,
            _watch: watch,
        }
    }

    /// Park `conn`, whose held sync is set, and sleep until the
    /// connection is this thread's again: handed back by a round a
    /// commit led, or its hold over with nobody leading it — then this
    /// thread runs the round itself, and parks again if it ends in a new
    /// hold. Returns the connection once it is handed back.
    pub(crate) fn park(&self, service: &CleaningService, mut conn: Conn) -> Conn {
        loop {
            self.put(conn);
            let (back, over) = self.turn(service);
            conn = back;
            if !over || round(service, &mut conn, None) == Round::HandedBack {
                return conn;
            }
        }
    }

    /// Park `conn`, whose held sync is set, free to claim.
    pub(crate) fn put(&self, conn: Conn) {
        let mut state = self.slot.lock();
        state.conn = Some(conn);
        state.phase = Phase::Parked;
    }

    /// Sleep until the parked connection is this thread's again; `true`
    /// when that is because its hold is over and nobody claimed it. The
    /// timeouts a led round left on its socket are cleared.
    pub(crate) fn turn(&self, service: &CleaningService) -> (Conn, bool) {
        let mut state = self.slot.lock();
        loop {
            let wait = match state.phase {
                Phase::Parked => match state.conn.as_ref().map(|conn| &conn.held) {
                    Some(held) if !service.hold_over(held) => held
                        .deadline
                        .map(|deadline| deadline.saturating_duration_since(stamp())),
                    _ => None,
                },
                Phase::Claimed | Phase::Led => {
                    state.untimed = true;
                    state = self
                        .slot
                        .turn
                        .wait(state)
                        .unwrap_or_else(PoisonError::into_inner);
                    state.untimed = false;
                    continue;
                }
                Phase::Returned => None,
                Phase::Own => unreachable!("a connection's thread waits only while it is parked"),
            };
            if let Some(left) = wait {
                state = self
                    .slot
                    .turn
                    .wait_timeout(state, left)
                    .unwrap_or_else(PoisonError::into_inner)
                    .0;
                continue;
            }
            let over = state.phase == Phase::Parked;
            state.phase = Phase::Own;
            let mut conn = state
                .conn
                .take()
                .expect("a parked slot holds its connection");
            if std::mem::take(&mut state.bounded) {
                let cleared = conn.reader.set_read_timeout(None).is_ok()
                    && conn.replies.writer.set_write_timeout(None).is_ok();
                conn.closed |= !cleared;
            }
            return (conn, over);
        }
    }
}

impl Drop for Holding {
    fn drop(&mut self) {
        self.service
            .replication()
            .holds
            .lock()
            .retain(|slot| !Arc::ptr_eq(slot, &self.slot));
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

    /// The served service (shared counters, sessions, engine state).
    pub fn service(&self) -> &CleaningService {
        &self.service
    }

    /// Request shutdown and join the accept thread. Completes in
    /// milliseconds — the shutdown hook wakes the accept and every
    /// blocked read out of band — or, with a peer that does not read
    /// what it is owed, after a one-second drain deadline.
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
}
