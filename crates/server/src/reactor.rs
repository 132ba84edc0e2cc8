//! Linux epoll readiness-loop front end.
//!
//! One reactor thread multiplexes every connection:
//!
//! * **Nonblocking everything** — the listener, every connection, and a
//!   wakeup `eventfd` all sit in one epoll set; `epoll_wait` blocks with
//!   no timeout (housekeeping lives on its own timer thread, shutdown
//!   arrives through the wakeup fd), so the idle server spends zero CPU
//!   and shutdown completes in milliseconds.
//! * **Pipelining with strict per-connection ordering** — a client may
//!   write any number of request lines before reading a response.
//!   Cheap ops execute inline on the reactor; the first CPU-heavy op
//!   (batch `clean`, region/consistency analysis, engine swaps) seals
//!   the connection's response buffer and ships that line *plus every
//!   line already buffered behind it* to the service worker pool as one
//!   ordered batch job. While the batch is in flight the reactor keeps
//!   reading (bounded) and keeps serving other connections; the
//!   completion splices the batch's responses back in order. At most
//!   one batch per connection is ever in flight, so responses always
//!   come back in request order.
//! * **Held requests park, they do not block** — a journaled
//!   `session.commit` is applied inline and its acknowledgement, which
//!   waits for the group fsync (and in a cluster the follower acks), is
//!   kept in its connection's slot; so is a caught-up follower's
//!   `replica.sync` that asks to wait. Neither occupies this thread or
//!   a pool worker, so every connection's commit rides the same flush
//!   whatever `--workers` is. The journal wakes the loop through the
//!   wakeup fd when its durable position moves, and the nearest hold
//!   expiry is the `epoll_wait` timeout; a released request is then
//!   answered inline, and the lines behind it served.
//! * **Backpressure, interest-driven** — responses accumulate in a
//!   per-connection buffer flushed opportunistically; `EPOLLOUT` is
//!   armed only while unflushed bytes remain, and a connection whose
//!   peer stops reading (or floods requests faster than a batch drains)
//!   has its `EPOLLIN` interest dropped until the buffer recedes.
//! * **Allocation-free steady state** — connections reuse their line
//!   and response buffers; batch/scratch/response buffers cycle through
//!   pools; the hot request path underneath
//!   ([`CleaningService::handle_line_into`]) is zero-allocation.
//!
//! The raw `epoll`/`eventfd` bindings live in [`ffi`] — the only unsafe
//! code in the crate, kept to six syscalls (no new dependencies).

use crate::net::{non_utf8_line, oversize_line, LineBuffer, MAX_LINE_BYTES};
use crate::ops::{OpId, RunsOn};
use crate::protocol::{scan_line, RequestScratch, ScannedLine};
use crate::replication::HeldSync;
use crate::service::CleaningService;
use crate::session_ops::HeldCommit;
use cerfix_storage::{DurableWatch, Waker};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Pause reading a connection while its unflushed response bytes exceed
/// this (peer not draining); reads resume as the buffer flushes below.
const WRITE_HIGH_WATER: usize = 4 * 1024 * 1024;
/// Pause reading while a batch is in flight once this much undispatched
/// input is buffered.
const READ_BACKLOG_CAP: usize = 1024 * 1024;
/// How long a draining shutdown waits for peers to take their last
/// responses before force-closing.
const DRAIN_DEADLINE: Duration = Duration::from_secs(1);

#[allow(unsafe_code)]
mod ffi {
    //! Raw `epoll` / `eventfd` bindings (libc symbols; std links libc
    //! already). The kernel ABI packs `epoll_event` on x86-64 only.

    use std::os::raw::{c_int, c_uint, c_void};

    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;

    pub const EPOLL_CTL_ADD: c_int = 1;
    pub const EPOLL_CTL_DEL: c_int = 2;
    pub const EPOLL_CTL_MOD: c_int = 3;

    const EPOLL_CLOEXEC: c_int = 0o2000000;
    const EFD_CLOEXEC: c_int = 0o2000000;
    const EFD_NONBLOCK: c_int = 0o4000;

    extern "C" {
        fn epoll_create1(flags: c_int) -> c_int;
        fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        fn eventfd(initval: c_uint, flags: c_int) -> c_int;
        fn close(fd: c_int) -> c_int;
        fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
        fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
    }

    fn cvt(ret: c_int) -> std::io::Result<c_int> {
        if ret < 0 {
            Err(std::io::Error::last_os_error())
        } else {
            Ok(ret)
        }
    }

    /// `epoll_create1(EPOLL_CLOEXEC)`.
    pub fn create_epoll() -> std::io::Result<c_int> {
        cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })
    }

    /// `eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK)`.
    pub fn create_eventfd() -> std::io::Result<c_int> {
        cvt(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })
    }

    /// One `epoll_ctl` call; `events` ignored for `EPOLL_CTL_DEL`.
    pub fn ctl(epfd: c_int, op: c_int, fd: c_int, events: u32, data: u64) -> std::io::Result<()> {
        let mut event = EpollEvent { events, data };
        cvt(unsafe { epoll_ctl(epfd, op, fd, &mut event) }).map(|_| ())
    }

    /// Blocking `epoll_wait`; fills `events`, returns the ready count.
    pub fn wait(
        epfd: c_int,
        events: &mut [EpollEvent],
        timeout_ms: c_int,
    ) -> std::io::Result<usize> {
        let n = unsafe { epoll_wait(epfd, events.as_mut_ptr(), events.len() as c_int, timeout_ms) };
        if n < 0 {
            Err(std::io::Error::last_os_error())
        } else {
            Ok(n as usize)
        }
    }

    /// Add 1 to an eventfd (wake a blocked `epoll_wait`).
    pub fn eventfd_write(fd: c_int) {
        let one: u64 = 1;
        unsafe { write(fd, (&one as *const u64).cast(), 8) };
    }

    /// Drain an eventfd's counter.
    pub fn eventfd_drain(fd: c_int) {
        let mut buf = [0u8; 8];
        unsafe { read(fd, buf.as_mut_ptr().cast(), 8) };
    }

    /// Close any raw fd.
    pub fn close_fd(fd: c_int) {
        unsafe { close(fd) };
    }
}

/// Owned wakeup eventfd, shared with batch jobs and the shutdown hook.
struct WakeFd(i32);

impl WakeFd {
    fn wake(&self) {
        ffi::eventfd_write(self.0);
    }

    fn drain(&self) {
        ffi::eventfd_drain(self.0);
    }
}

impl Drop for WakeFd {
    fn drop(&mut self) {
        ffi::close_fd(self.0);
    }
}

/// A finished batch job's responses, spliced back by the reactor.
struct Completion {
    conn: u64,
    out: String,
    /// The batch input buffer, returned for reuse.
    batch: Vec<u8>,
}

/// Buffer pools + completion queue shared between the reactor thread
/// and batch jobs on the worker pool.
struct Shared {
    completions: Mutex<Vec<Completion>>,
    strings: Mutex<Vec<String>>,
    batches: Mutex<Vec<Vec<u8>>>,
    scratches: Mutex<Vec<RequestScratch>>,
    wake: WakeFd,
}

impl Shared {
    fn take_string(&self) -> String {
        self.strings
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pop()
            .unwrap_or_default()
    }

    fn put_string(&self, mut s: String) {
        s.clear();
        self.strings
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(s);
    }

    fn take_batch(&self) -> Vec<u8> {
        self.batches
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pop()
            .unwrap_or_default()
    }

    fn put_batch(&self, mut b: Vec<u8>) {
        b.clear();
        self.batches
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(b);
    }

    fn take_scratch(&self) -> RequestScratch {
        self.scratches
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pop()
            .unwrap_or_default()
    }

    fn put_scratch(&self, s: RequestScratch) {
        self.scratches
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(s);
    }
}

/// One multiplexed connection.
struct Conn {
    stream: TcpStream,
    buf: LineBuffer,
    /// Ordered, unflushed response bytes; `out_pos` marks how far the
    /// socket has taken them. Fully-flushed ⇒ cleared (capacity kept).
    out: String,
    out_pos: usize,
    /// A batch job is in flight (at most one per connection).
    in_flight: bool,
    /// The request this connection is being kept on. Like a batch in
    /// flight it keeps the lines behind it waiting, so responses still
    /// leave in request order.
    held: Option<Hold>,
    /// Peer half-closed its write side (pipelined burst then EOF): no
    /// more input, but buffered requests still get served and flushed.
    peer_done: bool,
    /// Fatal error or oversized line: close as soon as flushed.
    closing: bool,
    /// Currently registered epoll interest mask.
    interest: u32,
}

impl Conn {
    fn unflushed(&self) -> usize {
        self.out.len() - self.out_pos
    }

    /// A reply is owed that is not in `out` yet: no later line may be
    /// served, and the connection may not be reaped.
    fn busy(&self) -> bool {
        self.in_flight || self.held.is_some()
    }
}

/// What a parked connection is kept on: a request that is read, owes a
/// reply, and waits for the journal — never on this thread, never on a
/// pool worker.
// In its connection's slot, not boxed: a box would cost every commit an
// allocation.
#[allow(clippy::large_enum_variant)]
enum Hold {
    /// A caught-up follower's `replica.sync` that asked to wait: it
    /// runs, inline, when the hold is over.
    Sync(HeldSync),
    /// A journaled `session.commit`, applied inline as it arrived: its
    /// reply waits for its group fsync (and the follower acks).
    Commit(HeldCommit),
}

/// Does this line go to the worker pool instead of running on the
/// reactor? The op's row says (`runs_on` in [`crate::ops`]): multi-tuple
/// batch work, whole-relation analyses, engine swaps, data-directory
/// reads, peer dials and the operator's `config.set` do; interactive
/// session ops (µs-scale fixpoints) run inline — up to a wait for the
/// journal, which is held ([`hold_for`]).
///
/// A line that names no row — not JSON, no `op`, a name not in the table
/// — runs inline: its scan already holds the error it will be answered
/// with, so there is no work to move. (Every spelling of an op, escapes
/// included, resolves to its row, so no real `clean` hides here.)
fn is_heavy(scanned: &ScannedLine<'_>) -> bool {
    scanned.op.is_some_and(|op| op.runs_on == RunsOn::Pool)
}

/// The hold an inline line's connection is parked on instead of the
/// line running to its reply here, when it has the journal to wait for.
fn hold_for(
    service: &CleaningService,
    scanned: &ScannedLine<'_>,
    scratch: &mut RequestScratch,
    received: Instant,
    started: Instant,
) -> Option<Hold> {
    if scanned.is(OpId::ReplicaSync) {
        return service.sync_arrival(scanned).map(Hold::Sync);
    }
    let commit = service.commit_arrival(scanned, scratch, received, started);
    commit.map(Hold::Commit)
}

/// Reading pauses while the peer is not draining responses, while a
/// batch is in flight and the undispatched input backlog is large, or
/// permanently once the connection is closing (an oversized-line reject
/// must not keep buffering a flood while its reply waits to flush).
fn reading_paused(conn: &Conn) -> bool {
    conn.closing
        || conn.unflushed() > WRITE_HIGH_WATER
        || (conn.busy() && conn.buf.partial_len() > READ_BACKLOG_CAP)
}

/// Ship one ordered batch of request lines to the worker pool. The job
/// runs the same per-line responder as the connection loops
/// ([`respond_line`]) so batched and inline execution are
/// indistinguishable on the wire.
fn submit_batch(service: &CleaningService, shared: &Arc<Shared>, id: u64, batch: Vec<u8>) {
    let service_for_job = service.clone();
    let shared = Arc::clone(shared);
    let submitted = Instant::now();
    service.submit_job(move || {
        let mut out = shared.take_string();
        let mut scratch = shared.take_scratch();
        for line_bytes in batch.split(|&b| b == b'\n') {
            // The submit stamp doubles as the arrival time for queue
            // wait and deadline accounting: time parked behind other
            // jobs in the pool is exactly what a deadline should cover.
            crate::net::respond_line(
                &service_for_job,
                line_bytes,
                &mut out,
                &mut scratch,
                submitted,
                false, // a pool worker never keeps a request
            );
        }
        // Submit→executed latency: queue wait plus execution, the
        // number that grows first when the pool saturates.
        service_for_job
            .metrics_raw()
            .batch_latency
            .observe(submitted.elapsed());
        shared.put_scratch(scratch);
        shared
            .completions
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(Completion {
                conn: id,
                out,
                batch,
            });
        shared.wake.wake();
    });
}

/// Run the epoll front end until the service requests shutdown.
pub(crate) fn run_epoll(listener: TcpListener, service: &CleaningService) -> std::io::Result<()> {
    Reactor::new(listener, service.clone())?.run()
}

struct Reactor {
    epfd: i32,
    listener: TcpListener,
    service: CleaningService,
    shared: Arc<Shared>,
    conns: HashMap<u64, Conn>,
    next_conn: u64,
    /// Reactor-thread scratch for inline request handling.
    scratch: RequestScratch,
    /// Where every socket read lands before its connection's line
    /// buffer takes it: one buffer for the loop's lifetime, so a read
    /// costs the bytes it moves and not a zeroed array.
    chunk: Vec<u8>,
    hook: u64,
    draining: Option<Instant>,
    accepting: bool,
    /// Connections kept on a [`Hold`].
    held: Vec<u64>,
    /// The journal's wake-up call for them: registered with the first
    /// hold, dropped with the last, so a flush costs a server that holds
    /// nothing nothing.
    watch: Option<DurableWatch>,
    waker: Waker,
}

const TOKEN_LISTENER: u64 = u64::MAX;
const TOKEN_WAKE: u64 = u64::MAX - 1;

impl Reactor {
    fn new(listener: TcpListener, service: CleaningService) -> std::io::Result<Reactor> {
        listener.set_nonblocking(true)?;
        let epfd = ffi::create_epoll()?;
        let wake_fd = match ffi::create_eventfd() {
            Ok(fd) => fd,
            Err(e) => {
                ffi::close_fd(epfd);
                return Err(e);
            }
        };
        let shared = Arc::new(Shared {
            completions: Mutex::new(Vec::new()),
            strings: Mutex::new(Vec::new()),
            batches: Mutex::new(Vec::new()),
            scratches: Mutex::new(Vec::new()),
            wake: WakeFd(wake_fd),
        });
        ffi::ctl(
            epfd,
            ffi::EPOLL_CTL_ADD,
            listener.as_raw_fd(),
            ffi::EPOLLIN,
            TOKEN_LISTENER,
        )?;
        ffi::ctl(epfd, ffi::EPOLL_CTL_ADD, wake_fd, ffi::EPOLLIN, TOKEN_WAKE)?;
        // Shutdown (from any thread: a protocol op on a worker, a
        // `ServerHandle`) pokes the eventfd; the reactor wakes instantly
        // instead of riding out a poll timeout.
        let hook_shared = Arc::clone(&shared);
        let hook = service.add_shutdown_hook(move || hook_shared.wake.wake());
        let watch_shared = Arc::clone(&shared);
        Ok(Reactor {
            epfd,
            listener,
            service,
            shared,
            conns: HashMap::new(),
            next_conn: 0,
            scratch: RequestScratch::default(),
            chunk: vec![0; 64 * 1024],
            hook,
            draining: None,
            accepting: true,
            held: Vec::new(),
            watch: None,
            waker: Arc::new(move || watch_shared.wake.wake()),
        })
    }

    fn run(mut self) -> std::io::Result<()> {
        let mut events = [ffi::EpollEvent { events: 0, data: 0 }; 128];
        loop {
            // Shutdown check BEFORE blocking: a `shutdown` accepted in
            // the window before our wakeup hook registered never poked
            // the eventfd, and `epoll_wait(-1)` would then hang forever.
            if self.service.shutdown_requested() && self.draining.is_none() {
                self.begin_drain();
            }
            if let Some(started) = self.draining {
                let idle = self.conns.values().all(|c| !c.busy() && c.unflushed() == 0);
                if idle || started.elapsed() > DRAIN_DEADLINE {
                    break;
                }
            }
            let timeout = if self.draining.is_some() {
                50
            } else {
                self.next_hold_expiry_ms()
            };
            self.service.metrics_raw().reactor_polls.inc();
            let n = match ffi::wait(self.epfd, &mut events, timeout) {
                Ok(n) => n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            // Loop working time: everything between wait returning and
            // the next wait (dispatch + inline handling + completions).
            let loop_started = Instant::now();
            for event in &events[..n] {
                // Copy out of the (possibly packed) struct first.
                let (mask, token) = (event.events, event.data);
                match token {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_WAKE => {
                        self.service.metrics_raw().reactor_wakeups.inc();
                        self.shared.wake.drain();
                    }
                    conn => self.conn_ready(conn, mask),
                }
            }
            self.drain_completions();
            if !self.held.is_empty() {
                self.release_holds();
            }
            self.service
                .metrics_raw()
                .reactor_loop
                .observe(loop_started.elapsed());
        }
        Ok(())
    }

    fn begin_drain(&mut self) {
        self.draining = Some(Instant::now());
        if self.accepting {
            let _ = ffi::ctl(
                self.epfd,
                ffi::EPOLL_CTL_DEL,
                self.listener.as_raw_fd(),
                0,
                0,
            );
            self.accepting = false;
        }
        // Stop reading everywhere; finish in-flight batches and flush.
        let ids: Vec<u64> = self.conns.keys().copied().collect();
        for id in ids {
            if let Some(conn) = self.conns.get_mut(&id) {
                conn.peer_done = true;
            }
            self.update_interest(id);
        }
    }

    fn accept_ready(&mut self) {
        while self.accepting {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    // Connection-level admission: a draining server or
                    // one at its connection quota answers with one typed
                    // error line and hangs up — no epoll registration,
                    // no buffers.
                    if let Err(error) = self.service.admit_connection() {
                        crate::net::refuse(&self.service, stream, &error);
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let id = self.next_conn;
                    self.next_conn += 1;
                    if ffi::ctl(
                        self.epfd,
                        ffi::EPOLL_CTL_ADD,
                        stream.as_raw_fd(),
                        ffi::EPOLLIN,
                        id,
                    )
                    .is_err()
                    {
                        continue;
                    }
                    let metrics = self.service.metrics_raw();
                    metrics.connections_open.inc();
                    metrics.connections_total.inc();
                    self.conns.insert(
                        id,
                        Conn {
                            stream,
                            buf: LineBuffer::new(),
                            out: self.shared.take_string(),
                            out_pos: 0,
                            in_flight: false,
                            held: None,
                            peer_done: false,
                            closing: false,
                            interest: ffi::EPOLLIN,
                        },
                    );
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    // Aborted handshake, or fd exhaustion (EMFILE) —
                    // the latter does NOT consume the pending
                    // connection, so the level-triggered listener stays
                    // readable and a plain `break` would spin the
                    // reactor at 100% CPU. A short sleep bounds the
                    // retry rate until an fd frees up.
                    std::thread::sleep(Duration::from_millis(5));
                    break;
                }
            }
        }
    }

    fn conn_ready(&mut self, id: u64, mask: u32) {
        if !self.conns.contains_key(&id) {
            return;
        }
        if mask & (ffi::EPOLLERR | ffi::EPOLLHUP) != 0 {
            self.close_conn(id);
            return;
        }
        if mask & ffi::EPOLLIN != 0 && !self.read_ready(id) {
            return; // closed
        }
        self.pump(id);
    }

    /// Read what the socket holds. A read that does not fill the buffer
    /// emptied it: asking again would only buy an `EAGAIN`, and the set
    /// is level-triggered, so bytes that arrive later fire again.
    /// Returns false if the connection died.
    fn read_ready(&mut self, id: u64) -> bool {
        loop {
            let Some(conn) = self.conns.get_mut(&id) else {
                return false;
            };
            if conn.peer_done || conn.closing || reading_paused(conn) {
                return true;
            }
            self.service.metrics_raw().reactor_reads.inc();
            match conn.stream.read(&mut self.chunk) {
                Ok(0) => {
                    conn.peer_done = true;
                    return true;
                }
                Ok(n) => {
                    conn.buf.extend(&self.chunk[..n]);
                    self.service.metrics_raw().bytes_in.add(n as u64);
                    if n < self.chunk.len() {
                        return true;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close_conn(id);
                    return false;
                }
            }
        }
    }

    /// Process buffered lines, flush, recompute interest, reap.
    fn pump(&mut self, id: u64) {
        self.process_lines(id);
        self.flush(id);
        self.update_interest(id);
        self.maybe_reap(id);
    }

    /// Execute buffered complete lines in order: light ops inline, and
    /// from the first heavy op onward, everything available as one
    /// ordered batch job (stops there — at most one batch in flight).
    fn process_lines(&mut self, id: u64) {
        if self.draining.is_some() {
            return;
        }
        // Arrival stamp for every line handled inline in this pass; the
        // reactor runs this immediately after the read, so inline queue
        // wait is ~zero by construction (batched lines stamp at submit).
        let received = Instant::now();
        loop {
            let Some(conn) = self.conns.get_mut(&id) else {
                return;
            };
            if conn.busy() || conn.closing {
                return;
            }
            let Some(line_bytes) = conn.buf.next_line() else {
                if conn.buf.partial_len() > MAX_LINE_BYTES {
                    self.service.refuse_line(&oversize_line(), &mut conn.out);
                    conn.closing = true;
                }
                return;
            };
            let Ok(line) = std::str::from_utf8(line_bytes) else {
                self.service.refuse_line(&non_utf8_line(), &mut conn.out);
                continue;
            };
            let trimmed = line.trim();
            if trimmed.is_empty() {
                continue;
            }
            let started = Instant::now();
            let scanned = scan_line(trimmed);
            if is_heavy(&scanned) {
                // Seal this line plus everything already behind it into
                // one ordered batch for the worker pool. (The batch pool
                // and `submit_job` touch disjoint fields, so the batch
                // is assembled while the line slices still borrow the
                // connection's read buffer.)
                let mut batch = self.shared.take_batch();
                batch.extend_from_slice(trimmed.as_bytes());
                batch.push(b'\n');
                while let Some(rest) = conn.buf.next_line() {
                    batch.extend_from_slice(rest);
                    batch.push(b'\n');
                }
                conn.in_flight = true;
                submit_batch(&self.service, &self.shared, id, batch);
                return;
            }
            let hold = hold_for(
                &self.service,
                &scanned,
                &mut self.scratch,
                received,
                started,
            );
            if hold.is_some() {
                conn.held = hold;
                self.held.push(id);
                if self.watch.is_none() {
                    // From here on the journal wakes the loop when its
                    // durable position moves; a move since the hold's
                    // own look — or a commit with nothing to wait for —
                    // is caught by `release_holds`, which this iteration
                    // still runs.
                    let storage = self.service.storage();
                    self.watch = storage.map(|s| s.journal().watch(Arc::clone(&self.waker)));
                }
                return;
            }
            // Inline: render straight into the connection's response
            // buffer (appended after everything already queued). The
            // UTF-8 check, blank skip and trim of `respond_line` — what
            // the threaded loop and the batch jobs go through — ran
            // above, and the line is already scanned, so it enters the
            // service one step further in.
            self.service.handle_scanned(
                &scanned,
                &mut conn.out,
                &mut self.scratch,
                received,
                started,
            );
            conn.out.push('\n');
        }
    }

    fn drain_completions(&mut self) {
        loop {
            let completion = self
                .shared
                .completions
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .pop();
            let Some(mut completion) = completion else {
                return;
            };
            self.shared.put_batch(completion.batch);
            let Some(conn) = self.conns.get_mut(&completion.conn) else {
                // Connection died while the batch ran.
                self.shared.put_string(completion.out);
                continue;
            };
            conn.in_flight = false;
            if conn.out.is_empty() {
                // Common case (nothing queued behind the batch): adopt
                // the rendered buffer instead of copying megabytes of
                // `regions`/`audit.read`/`clean` output.
                debug_assert_eq!(conn.out_pos, 0);
                std::mem::swap(&mut conn.out, &mut completion.out);
            } else {
                conn.out.push_str(&completion.out);
            }
            self.shared.put_string(completion.out);
            self.pump(completion.conn);
        }
    }

    /// Milliseconds until the nearest hold expires (rounded up, so the
    /// loop wakes at or after it) — the `epoll_wait` timeout; `-1`, no
    /// timeout at all, while nothing is held.
    fn next_hold_expiry_ms(&self) -> i32 {
        let now = Instant::now();
        self.held
            .iter()
            .filter_map(|id| match self.conns.get(id)?.held.as_ref()? {
                Hold::Sync(held) => Some(held.deadline),
                Hold::Commit(held) => held.deadline,
            })
            .map(|deadline| deadline.saturating_duration_since(now))
            .min()
            .map_or(-1, |left| left.as_micros().div_ceil(1000) as i32)
    }

    /// Answer every held request whose hold is over, inline, then carry
    /// on with the lines behind it. A sync's is also over when its peer
    /// has stopped sending, so that a dead follower's slot is not kept
    /// for the rest of the hold; a commit's reply is owed whatever the
    /// peer does next, and waits for its verdict.
    fn release_holds(&mut self) {
        let mut at = 0;
        while at < self.held.len() {
            let id = self.held[at];
            // `None`: keep holding. `Some`: what a commit is answered.
            let over = match self.conns.get_mut(&id) {
                Some(conn) => match &mut conn.held {
                    Some(Hold::Sync(held)) => {
                        (conn.peer_done || self.service.hold_over(held)).then_some(Ok(()))
                    }
                    Some(Hold::Commit(held)) => self.service.commit_verdict(held),
                    None => Some(Ok(())),
                },
                None => Some(Ok(())), // closed while held
            };
            let Some(verdict) = over else {
                at += 1;
                continue;
            };
            self.held.swap_remove(at);
            let Some(conn) = self.conns.get_mut(&id) else {
                continue;
            };
            match conn.held.take() {
                Some(Hold::Sync(held)) => {
                    self.service
                        .serve_held(held, &mut conn.out, &mut self.scratch)
                }
                Some(Hold::Commit(held)) => {
                    self.service.finish_commit(held, verdict, &mut conn.out)
                }
                None => continue,
            }
            conn.out.push('\n');
            self.pump(id);
        }
        if self.held.is_empty() {
            self.watch = None;
        }
    }

    /// Write as much queued response as the socket takes.
    fn flush(&mut self, id: u64) {
        let mut dead = false;
        if let Some(conn) = self.conns.get_mut(&id) {
            while conn.unflushed() > 0 {
                self.service.metrics_raw().reactor_writes.inc();
                match conn.stream.write(&conn.out.as_bytes()[conn.out_pos..]) {
                    Ok(0) => {
                        dead = true;
                        break;
                    }
                    Ok(n) => {
                        conn.out_pos += n;
                        self.service.metrics_raw().bytes_out.add(n as u64);
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        dead = true;
                        break;
                    }
                }
            }
            if !dead && conn.unflushed() == 0 && conn.out_pos > 0 {
                conn.out.clear();
                conn.out_pos = 0;
            }
        }
        if dead {
            self.close_conn(id);
        }
    }

    /// Keep the epoll interest mask matching the connection's state:
    /// `EPOLLOUT` iff bytes await the socket, `EPOLLIN` unless
    /// backpressure (or EOF) paused reading.
    fn update_interest(&mut self, id: u64) {
        let epfd = self.epfd;
        let mut dead = false;
        if let Some(conn) = self.conns.get_mut(&id) {
            let mut want = 0u32;
            if !conn.peer_done && !reading_paused(conn) {
                want |= ffi::EPOLLIN;
            }
            if conn.unflushed() > 0 {
                want |= ffi::EPOLLOUT;
            }
            if want != conn.interest {
                if ffi::ctl(epfd, ffi::EPOLL_CTL_MOD, conn.stream.as_raw_fd(), want, id).is_err() {
                    dead = true;
                } else {
                    conn.interest = want;
                }
            }
        }
        if dead {
            self.close_conn(id);
        }
    }

    /// Close once nothing remains to do for this connection: peer sent
    /// EOF (or we are closing it), no batch in flight, all responses
    /// flushed. `pump` already consumed every complete buffered line, so
    /// any residual input is a partial line that can never complete.
    fn maybe_reap(&mut self, id: u64) {
        let Some(conn) = self.conns.get(&id) else {
            return;
        };
        if (conn.peer_done || conn.closing) && !conn.busy() && conn.unflushed() == 0 {
            self.close_conn(id);
        }
    }

    fn close_conn(&mut self, id: u64) {
        if let Some(conn) = self.conns.remove(&id) {
            let _ = ffi::ctl(self.epfd, ffi::EPOLL_CTL_DEL, conn.stream.as_raw_fd(), 0, 0);
            self.service.metrics_raw().connections_open.dec();
            self.shared.put_string(conn.out);
            // In-flight batch completions for this id are discarded in
            // `drain_completions`, its hold in `release_holds`.
        }
    }
}

impl Drop for Reactor {
    fn drop(&mut self) {
        // Wait out in-flight batches so their wake writes hit a live
        // eventfd (jobs hold `Arc<Shared>`; the fd closes with the last
        // reference, but completing here keeps fd reuse races out).
        let deadline = Instant::now() + DRAIN_DEADLINE;
        while self.conns.values().any(|c| c.in_flight) && Instant::now() < deadline {
            let mut events = [ffi::EpollEvent { events: 0, data: 0 }; 16];
            let _ = ffi::wait(self.epfd, &mut events, 20);
            self.drain_completions();
        }
        // A commit still held is applied and journaled (the journal
        // flushes as it closes), but its client hears nothing: say so.
        let held = |c: &&Conn| matches!(c.held, Some(Hold::Commit(_)));
        let unanswered = self.conns.values().filter(held).count();
        if unanswered > 0 {
            self.service.diag().warn(
                crate::diag::Subsystem::Net,
                format_args!("{unanswered} applied commit(s) unacknowledged at shutdown"),
            );
        }
        // Surviving connections close with their streams; settle the
        // open-connections gauge for them.
        for _ in 0..self.conns.len() {
            self.service.metrics_raw().connections_open.dec();
        }
        self.conns.clear();
        self.service.remove_shutdown_hook(self.hook);
        ffi::close_fd(self.epfd);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::{data_dir, kv_service, kv_service_journaled};

    /// Placement, pinned on the classification (no timing): a request
    /// that waits for the journal is *held* — it neither blocks the
    /// reactor thread nor takes a pool worker. A caught-up `replica.sync`
    /// that asks to wait, on which the commit that waits for this
    /// follower's next cursor may depend; and a journaled
    /// `session.commit`, applied inline, whose group fsync is to come.
    #[test]
    fn a_held_sync_runs_neither_inline_nor_on_the_pool() {
        let dir = data_dir("placement");
        let service = kv_service_journaled(&dir, 64);
        let now = Instant::now();
        let held_on = |service: &CleaningService, line: &str| {
            let scanned = scan_line(line);
            assert!(!is_heavy(&scanned), "{line}");
            hold_for(service, &scanned, &mut RequestScratch::default(), now, now)
        };
        let held = |line: &str| held_on(&service, line);
        let sync = r#"{"op":"replica.sync","follower":"f","epoch":0,"offset":0"#;
        let Some(Hold::Sync(held_sync)) = held(&format!("{sync},\"wait_ms\":60000}}")) else {
            panic!("a caught-up sync that asks to wait is held");
        };
        assert!(!service.hold_over(&held_sync));
        // Its cursor was the follower's ack, recorded on arrival.
        assert_eq!(service.follower_lags().len(), 1);
        // Without `wait_ms` (pre-v9), with a forced resync, or with
        // something durable past the cursor it is served at once, inline.
        for inline in [
            format!("{sync}}}"),
            format!("{sync},\"wait_ms\":60000,\"resync\":true}}"),
            r#"{"op":"health"}"#.to_string(),
        ] {
            assert!(held(&inline).is_none(), "{inline}");
        }
        // `config.set` blocks on its group fsync, on a pool worker.
        let set = r#"{"op":"config.set","key":"slow_ms","value":250}"#;
        assert!(is_heavy(&scan_line(set)));
        service.handle_line(set);
        assert!(service.hold_over(&held_sync), "a durable event ends it");
        assert!(held(&format!("{sync},\"wait_ms\":60000}}")).is_none());

        // A commit is applied on the reactor thread, as it arrives —
        // and its reply is not written there: it is held.
        let create = r#"{"op":"session.create","tuple":["k1","WRONG","n"]}"#;
        assert!(service.handle_line(create).contains("\"session\":1"));
        let commit = r#"{"id":7,"op":"session.commit","session":1}"#;
        let Some(Hold::Commit(mut held_commit)) = held(commit) else {
            panic!("a journaled commit is held");
        };
        assert_eq!(service.metrics().sessions_committed, 1, "applied");
        assert_eq!(service.live_sessions(), 0);
        assert_eq!(service.metrics().requests, 2, "not answered yet");
        // Held until the flush it asked for lands, then answered with
        // the blocking path's bytes, its frame run over the wait.
        let verdict = loop {
            match service.commit_verdict(&mut held_commit) {
                Some(verdict) => break verdict,
                None => std::thread::yield_now(),
            }
        };
        let mut out = String::new();
        service.finish_commit(held_commit, verdict, &mut out);
        assert!(service.handle_line(create).contains("\"session\":2"));
        let blocked = service.handle_line(r#"{"id":7,"op":"session.commit","session":2}"#);
        assert_eq!(out.replace("\"session\":1", "\"session\":2"), blocked);
        // A refused one is held all the same, with nothing to wait for;
        // in memory mode there is no wait to hold.
        let Some(Hold::Commit(mut refused)) = held(commit) else {
            panic!("a journaled commit is held");
        };
        assert_eq!(service.commit_verdict(&mut refused), Some(Ok(())));
        out.clear();
        service.finish_commit(refused, Ok(()), &mut out);
        assert!(
            out.starts_with(r#"{"id":7,"ok":false,"code":"not_found","error":"unknown session 1 "#)
        );
        assert!(held_on(&kv_service(1), commit).is_none());
        drop(service);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
