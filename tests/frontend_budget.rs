//! What the front end may spend on a request — counted, never timed —
//! and what a waiting commit may occupy.
//!
//! * **Syscall budget.** The connection loop counts its own socket
//!   `read` and `write_all` calls (`cerfix_net_{reads,writes}_total`).
//!   A closed-loop request costs exactly one of each; so does a
//!   journaled `session.commit`; a 64-request pipelined window that
//!   arrives in one chunk is answered in one write; a `Client::request`
//!   is one `write`, so one server read; and the replies ahead of a held
//!   `replica.sync` are written before its wait begins — a wait that is
//!   not counted as load.
//! * **Group commit is not bounded by `--workers`.** A journaled commit
//!   waits for its group fsync on its connection's own thread: with one
//!   worker and the first fsync gated shut, eight connections' commits
//!   are all applied, a `clean` on a ninth is answered, and opening the
//!   gate acknowledges all eight with at most two flushes. A peer that
//!   hangs up on a waiting commit loses only the reply; a flush that
//!   lands during a drain is answered, and a shutdown closes the
//!   connection — never a false `ok` — at the drain deadline.
//! * **Waiting commits are load.** The admission shedder counts every
//!   request the server holds, not only `clean`s: commits parked at the
//!   gate shed heavy reads and then new sessions, while `health` and
//!   `metrics` keep answering, and the level falls once they are
//!   acknowledged.
//!
//! CI runs this file pinned to one core as well (`taskset -c 0`), where
//! the connection threads and the journal's flusher share the core.

use cerfix::MasterData;
use cerfix_relation::{RelationBuilder, Schema};
use cerfix_rules::{EditingRule, PatternTuple, RuleSet};
use cerfix_server::protocol::Request;
use cerfix_server::wire::Json;
use cerfix_server::{
    CleaningService, Client, ErrorCode, RetryBudget, Server, ServerHandle, ServiceConfig,
};
use cerfix_storage::{RealFs, StorageConfig, StorageFile, StorageFs};
use std::io::{BufRead, BufReader, SeekFrom, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------
// Fixture
// ---------------------------------------------------------------------

fn kv_setup() -> (Arc<MasterData>, Arc<RuleSet>) {
    let input = Schema::of_strings("in", ["key", "val", "note"]).unwrap();
    let ms = Schema::of_strings("m", ["key", "val"]).unwrap();
    let mut builder = RelationBuilder::new(ms.clone());
    for i in 0..20 {
        builder = builder.row_strs([format!("k{i}"), format!("v{i}")]);
    }
    let master = MasterData::new(builder.build().unwrap());
    let mut rules = RuleSet::new(input.clone(), ms.clone());
    let (lhs, rhs) = (vec![(0, 0)], vec![(1, 1)]);
    let rule = EditingRule::new("kv", &input, &ms, lhs, rhs, PatternTuple::empty()).unwrap();
    rules.add(rule).unwrap();
    (Arc::new(master), Arc::new(rules))
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cerfix-budget-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A journaled kv service whose journal moves only when a commit asks
/// it to (hour-long flush and snapshot intervals), over `fs`.
fn journaled(dir: &Path, workers: usize, fs: Arc<dyn StorageFs>) -> CleaningService {
    journaled_with(dir, config(workers), fs)
}

fn config(workers: usize) -> ServiceConfig {
    ServiceConfig {
        workers,
        precompute_regions: false,
        ..ServiceConfig::default()
    }
}

fn journaled_with(dir: &Path, config: ServiceConfig, fs: Arc<dyn StorageFs>) -> CleaningService {
    let (master, rules) = kv_setup();
    let mut storage = StorageConfig::new(dir);
    storage.flush_interval = Duration::from_secs(3600);
    storage.snapshot_interval = Duration::from_secs(3600);
    storage.snapshot_every_events = u64::MAX;
    storage.fs = fs;
    CleaningService::with_storage(master, rules, config, storage).expect("open storage")
}

/// One raw connection, one line at a time.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn open(addr: SocketAddr) -> Conn {
        let writer = TcpStream::connect(addr).expect("connect");
        writer.set_nodelay(true).unwrap();
        // A reply that never comes fails the test instead of hanging it.
        writer
            .set_read_timeout(Some(Duration::from_secs(20)))
            .unwrap();
        Conn {
            reader: BufReader::new(writer.try_clone().unwrap()),
            writer,
        }
    }

    fn send(&mut self, line: &str) {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .expect("send");
    }

    /// The next reply line; empty when the server closed the connection.
    fn recv(&mut self) -> String {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("a reply in time");
        line
    }

    fn request(&mut self, line: &str) -> String {
        self.send(line);
        self.recv()
    }

    /// Create a session on this connection; its id.
    fn create(&mut self, key: &str) -> u64 {
        let reply = self.request(&format!(
            "{{\"op\":\"session.create\",\"tuple\":[\"{key}\",\"WRONG\",\"n\"]}}"
        ));
        let reply = Json::parse(reply.trim()).expect("a JSON reply");
        reply.get("session").and_then(Json::as_u64).expect("id")
    }
}

fn commit_line(session: u64) -> String {
    format!("{{\"op\":\"session.commit\",\"session\":{session},\"id\":{session}}}")
}

fn wait_for(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

// ---------------------------------------------------------------------
// 1. The syscall budget
// ---------------------------------------------------------------------

/// `(reads, writes)` the connection loops have made so far. Counted
/// before the reply they bring or take leaves, so a client that has its
/// reply reads the count exactly — no settling.
fn syscalls(service: &CleaningService) -> (u64, u64) {
    let m = service.metrics();
    (m.net_reads, m.net_writes)
}

#[test]
fn a_closed_loop_request_costs_one_read_one_write() {
    const N: u64 = 200;
    let dir = tmp_dir("syscalls");
    let service = journaled(&dir, 2, Arc::new(RealFs));
    let server = Server::spawn("127.0.0.1:0", service.clone()).unwrap();
    let mut conn = Conn::open(server.addr());
    let sessions: Vec<u64> = (0..N)
        .map(|i| conn.create(&format!("k{}", i % 20)))
        .collect();
    let first = sessions[0];

    // Closed loop: one read that takes the request, one write that takes
    // the reply.
    let before = syscalls(&service);
    for i in 0..N {
        let reply = conn.request(&match i % 2 {
            0 => format!("{{\"op\":\"session.get\",\"session\":{first}}}"),
            _ => format!(
                "{{\"op\":\"session.validate\",\"session\":{first},\"validations\":{{\"key\":\"k0\"}}}}"
            ),
        });
        assert!(reply.starts_with("{\"ok\":true,"), "{reply}");
    }
    let after = syscalls(&service);
    assert_eq!(after.0 - before.0, N, "reads");
    assert_eq!(after.1 - before.1, N, "writes");

    // Journaled commits, closed loop: the request is read once and the
    // reply written once; the wait in between is the connection's own.
    let before = after;
    for &session in &sessions {
        let reply = conn.request(&commit_line(session));
        assert!(
            reply.starts_with(&format!("{{\"id\":{session},\"ok\":true,")),
            "{reply}"
        );
    }
    let after = syscalls(&service);
    assert_eq!(service.metrics().sessions_committed, N);
    assert_eq!(after.0 - before.0, N, "reads");
    assert_eq!(after.1 - before.1, N, "writes");

    // A pipelined window that arrives in one chunk is answered in one
    // write.
    let before = after;
    let mut window = String::new();
    for i in 0..64 {
        window.push_str(&format!("{{\"op\":\"hello\",\"id\":{i}}}\n"));
    }
    conn.writer.write_all(window.as_bytes()).unwrap();
    for i in 0..64 {
        let reply = conn.recv();
        assert!(
            reply.starts_with(&format!("{{\"id\":{i},\"ok\":true,")),
            "{reply}"
        );
    }
    let after = syscalls(&service);
    assert_eq!(after.0 - before.0, 1, "one chunk, one read");
    assert_eq!(after.1 - before.1, 1, "writes");

    server.shutdown().unwrap();
    drop(service);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The library client frames a request and its newline into one
/// `write`: on a `TCP_NODELAY` socket two writes are two segments, and
/// the server could wake — and read — twice for one line.
#[test]
fn a_client_request_is_one_write_and_one_server_read() {
    const N: u64 = 200;
    let dir = tmp_dir("client-write");
    let service = journaled(&dir, 2, Arc::new(RealFs));
    let server = Server::spawn("127.0.0.1:0", service.clone()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    client.hello().unwrap();
    let before = syscalls(&service);
    for _ in 0..N {
        client.request(&Request::Hello).unwrap();
    }
    let after = syscalls(&service);
    assert_eq!(after.0 - before.0, N, "reads");
    server.shutdown().unwrap();
    drop(service);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Replies ahead of a `replica.sync` that asks to wait are written
/// before the connection's thread starts waiting: they arrive while the
/// sync is still held.
#[test]
fn replies_ahead_of_a_held_sync_arrive_while_it_is_held() {
    let dir = tmp_dir("held-sync");
    let service = journaled(&dir, 2, Arc::new(RealFs));
    let server = Server::spawn("127.0.0.1:0", service.clone()).unwrap();
    let syncs_answered = || {
        let metrics = service.metrics();
        let sync = metrics.latency.iter().find(|l| l.op == "replica.sync");
        sync.map_or(0, |l| l.count)
    };
    let mut conn = Conn::open(server.addr());
    conn.writer
        .write_all(
            concat!(
                "{\"op\":\"hello\",\"id\":1}\n",
                "{\"op\":\"replica.sync\",\"follower\":\"f\",\"epoch\":0,\"offset\":0,",
                "\"wait_ms\":60000,\"id\":2}\n",
            )
            .as_bytes(),
        )
        .unwrap();
    let hello = conn.recv();
    assert!(hello.starts_with("{\"id\":1,\"ok\":true,"), "{hello}");
    assert_eq!(syncs_answered(), 0, "the sync is still held");
    // A held sync is never load: the shedder's input does not count it.
    assert_eq!(service.metrics().requests_in_flight, 0);
    // A commit on another connection is a durable event: it releases it.
    let mut other = Conn::open(server.addr());
    let session = other.create("k1");
    other.request(&commit_line(session));
    let sync = conn.recv();
    assert!(sync.starts_with("{\"id\":2,\"ok\":true,"), "{sync}");
    assert_eq!(syncs_answered(), 1);
    server.shutdown().unwrap();
    drop(service);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// 2. A waiting commit occupies its connection only
// ---------------------------------------------------------------------

/// The gate a [`GatedFs`] file's `sync_data` waits at while it is shut.
#[derive(Debug, Default)]
struct Gate {
    shut: Mutex<bool>,
    opened: Condvar,
    /// Syncs that have reached the gate (and maybe passed it).
    arrived: AtomicU64,
}

impl Gate {
    fn shut(&self) {
        *self.shut.lock().unwrap() = true;
    }

    fn open(&self) {
        *self.shut.lock().unwrap() = false;
        self.opened.notify_all();
    }

    fn arrived(&self) -> u64 {
        self.arrived.load(Ordering::SeqCst)
    }
}

/// `inner`, with the `sync_data` of the files named `*.{gated}` — the
/// journal's `wal` or the audit spill's `seg` — made to wait at a gate:
/// a disk whose fsync takes exactly as long as the test says.
#[derive(Debug)]
struct GatedFs {
    inner: Arc<dyn StorageFs>,
    gated: &'static str,
    gate: Arc<Gate>,
}

impl GatedFs {
    fn wrap(&self, path: &Path, file: Box<dyn StorageFile>) -> Box<dyn StorageFile> {
        if path.extension().is_some_and(|ext| ext == self.gated) {
            let gate = Arc::clone(&self.gate);
            Box::new(GatedFile { file, gate })
        } else {
            file
        }
    }
}

impl StorageFs for GatedFs {
    fn open_rw(&self, path: &Path) -> std::io::Result<Box<dyn StorageFile>> {
        Ok(self.wrap(path, self.inner.open_rw(path)?))
    }
    fn create_truncated(&self, path: &Path) -> std::io::Result<Box<dyn StorageFile>> {
        Ok(self.wrap(path, self.inner.create_truncated(path)?))
    }
    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
        self.inner.rename(from, to)
    }
    fn sync_dir(&self, dir: &Path) -> std::io::Result<()> {
        self.inner.sync_dir(dir)
    }
    fn free_bytes(&self, dir: &Path) -> Option<u64> {
        self.inner.free_bytes(dir)
    }
}

#[derive(Debug)]
struct GatedFile {
    file: Box<dyn StorageFile>,
    gate: Arc<Gate>,
}

impl StorageFile for GatedFile {
    fn write_all(&mut self, buf: &[u8]) -> std::io::Result<()> {
        self.file.write_all(buf)
    }
    fn sync_data(&mut self) -> std::io::Result<()> {
        self.gate.arrived.fetch_add(1, Ordering::SeqCst);
        let mut shut = self.gate.shut.lock().unwrap();
        while *shut {
            shut = self.gate.opened.wait(shut).unwrap();
        }
        drop(shut);
        self.file.sync_data()
    }
    fn sync_all(&mut self) -> std::io::Result<()> {
        self.file.sync_all()
    }
    fn set_len(&mut self, len: u64) -> std::io::Result<()> {
        self.file.set_len(len)
    }
    fn seek(&mut self, pos: SeekFrom) -> std::io::Result<u64> {
        self.file.seek(pos)
    }
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.file.read(buf)
    }
    fn file_len(&self) -> std::io::Result<u64> {
        self.file.file_len()
    }
}

/// A rig's end of its gate. Opens it when dropped — first, being the
/// rig's first field — so a failed assertion unwinds past a flusher
/// stuck in the disk instead of hanging on it.
struct OpenOnDrop(Arc<Gate>);

impl std::ops::Deref for OpenOnDrop {
    type Target = Gate;
    fn deref(&self) -> &Gate {
        &self.0
    }
}

impl Drop for OpenOnDrop {
    fn drop(&mut self) {
        self.0.open();
    }
}

/// A one-worker journaled server whose journal is behind a gated disk.
struct GatedRig {
    gate: OpenOnDrop,
    service: CleaningService,
    server: ServerHandle,
    dir: PathBuf,
}

fn gated_rig(name: &str, inner: Arc<dyn StorageFs>) -> GatedRig {
    gated_rig_with(name, "wal", inner, config(1))
}

fn gated_rig_with(
    name: &str,
    gated: &'static str,
    inner: Arc<dyn StorageFs>,
    config: ServiceConfig,
) -> GatedRig {
    let dir = tmp_dir(name);
    let gate = Arc::new(Gate::default());
    let fs = Arc::new(GatedFs {
        inner,
        gated,
        gate: Arc::clone(&gate),
    });
    let service = journaled_with(&dir, config, fs);
    let server = Server::spawn("127.0.0.1:0", service.clone()).unwrap();
    GatedRig {
        gate: OpenOnDrop(gate),
        service,
        server,
        dir,
    }
}

impl GatedRig {
    /// Shut the gate and send `conn`'s commit into it: returns once the
    /// fsync that covers it is inside the gate.
    fn commit_into_gate(&self, conn: &mut Conn, session: u64) {
        let (arrived, committed) = (self.gate.arrived(), self.committed());
        self.gate.shut();
        conn.send(&commit_line(session));
        wait_for("the commit's flush to reach the disk", || {
            self.gate.arrived() > arrived && self.committed() > committed
        });
    }

    fn committed(&self) -> u64 {
        self.service.metrics().sessions_committed
    }

    fn stop(self) {
        self.gate.open();
        self.server.shutdown().unwrap();
        drop(self.service);
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

#[test]
fn group_commit_is_not_bounded_by_workers() {
    const CONNS: usize = 8;
    let rig = gated_rig("group", Arc::new(RealFs));
    let addr = rig.server.addr();
    let mut conns: Vec<(Conn, u64)> = (0..CONNS)
        .map(|i| {
            let mut conn = Conn::open(addr);
            let session = conn.create(&format!("k{i}"));
            (conn, session)
        })
        .collect();

    // The first commit's fsync is stuck in the disk. The one worker is
    // not what the others wait behind: they are all applied…
    let syncs = rig.gate.arrived();
    let (first, session) = &mut conns[0];
    rig.commit_into_gate(first, *session);
    for (conn, session) in &mut conns[1..] {
        conn.send(&commit_line(*session));
    }
    wait_for("every commit to be applied", || {
        rig.committed() == CONNS as u64
    });
    assert_eq!(rig.service.live_sessions(), 0);
    // …and a batch `clean` on another connection is answered meanwhile.
    let mut other = Conn::open(addr);
    let cleaned =
        other.request(r#"{"op":"clean","tuples":[["k1","x","n"]],"trust":["key","note"]}"#);
    assert!(cleaned.contains("\"cells_fixed\":1"), "{cleaned}");
    assert_eq!(rig.gate.arrived(), syncs + 1, "still the first fsync");

    // The disk answers: every commit is acknowledged, and the ones that
    // arrived during the first fsync shared the second.
    rig.gate.open();
    for (conn, session) in &mut conns {
        let reply = conn.recv();
        assert!(
            reply.starts_with(&format!("{{\"id\":{session},\"ok\":true,")),
            "{reply}"
        );
    }
    let flushes = rig.gate.arrived() - syncs;
    assert!(flushes <= 2, "{flushes} flushes for {CONNS} commits");
    rig.stop();
}

/// The peer hangs up on a waiting commit: the commit stays applied and
/// journaled, and the connection's slot comes back.
#[test]
fn a_peer_that_hangs_up_on_a_held_commit_loses_only_the_reply() {
    let rig = gated_rig("hangup", Arc::new(RealFs));
    let open = rig.service.metrics().connections_open;
    let mut conn = Conn::open(rig.server.addr());
    let session = conn.create("k1");
    rig.commit_into_gate(&mut conn, session);
    drop(conn);
    rig.gate.open();
    wait_for("the closed connection's slot", || {
        rig.service.metrics().connections_open == open
    });
    let metrics = rig.service.metrics();
    assert_eq!(metrics.sessions_committed, 1);
    assert_eq!(metrics.journal_events, 2, "create + commit");
    let gone = rig
        .service
        .handle_line(&format!("{{\"op\":\"session.get\",\"session\":{session}}}"));
    assert!(gone.contains("unknown session"), "{gone}");
    // The next connection's commit waits and is answered like the first.
    let mut next = Conn::open(rig.server.addr());
    let session = next.create("k2");
    let reply = next.request(&commit_line(session));
    assert!(reply.contains("\"ok\":true"), "{reply}");
    rig.stop();
}

/// A drain or shutdown with a commit waiting: answered if its flush
/// lands while the server winds down; otherwise the connection is
/// closed at the drain deadline without a reply — an unacknowledged
/// commit, still applied and journaled, never a false `ok`.
#[test]
fn a_held_commit_is_released_by_the_flush_or_the_drain_deadline() {
    // Drain: the flush lands, the commit is acknowledged, the server
    // then winds down by itself.
    let rig = gated_rig("drain", Arc::new(RealFs));
    let mut conn = Conn::open(rig.server.addr());
    let session = conn.create("k1");
    rig.commit_into_gate(&mut conn, session);
    rig.service.handle(&Request::Drain { wait_ms: Some(50) });
    rig.gate.open();
    let reply = conn.recv();
    assert!(reply.starts_with("{\"id\":1,\"ok\":true,"), "{reply}");
    rig.stop();

    // Shutdown with the disk still stuck: the server gives the flush
    // its drain deadline, then closes the connection.
    let rig = gated_rig("deadline", Arc::new(RealFs));
    let mut conn = Conn::open(rig.server.addr());
    let session = conn.create("k1");
    rig.commit_into_gate(&mut conn, session);
    let GatedRig {
        gate,
        service,
        server,
        dir,
    } = rig;
    let stopping = std::thread::spawn(move || server.shutdown());
    assert_eq!(conn.recv(), "", "closed, not answered");
    let metrics = service.metrics();
    assert_eq!(metrics.sessions_committed, 1);
    assert_eq!(metrics.journal_events, 2, "create + commit");
    gate.open();
    stopping.join().unwrap().unwrap();
    drop(service);
    let reopened = journaled(&dir, 1, Arc::new(RealFs));
    assert_eq!(
        reopened.live_sessions(),
        0,
        "the commit outlived the server"
    );
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// 3. Waiting commits are load
// ---------------------------------------------------------------------

/// The shedder counts what the server holds, whatever the op: with a
/// watermark of 2, two commits parked at the gate shed heavy reads
/// (level 1), four shed new sessions too (level 2). Operators still get
/// `health` — naming the shedding — and `metrics`; once the commits are
/// acknowledged, heavy reads are admitted again.
#[test]
fn parked_commits_raise_the_shed_level() {
    let config = ServiceConfig {
        shed_watermark: 2,
        ..config(1)
    };
    let rig = gated_rig_with("shed", "wal", Arc::new(RealFs), config);
    let addr = rig.server.addr();
    let mut conns: Vec<(Conn, u64)> = (0..4)
        .map(|i| {
            let mut conn = Conn::open(addr);
            let session = conn.create(&format!("k{i}"));
            (conn, session)
        })
        .collect();
    // An empty retry budget: every refusal surfaces.
    let mut probe = Client::connect(addr)
        .unwrap()
        .with_retry_budget(RetryBudget::new(0, 0.0));
    let in_flight = || rig.service.metrics().requests_in_flight;
    let regions = Request::Regions { top_k: Some(1) };
    let tuple = || vec!["k9".into(), "x".into(), "n".into()];

    let (first, session) = &mut conns[0];
    rig.commit_into_gate(first, *session);
    let (second, session) = &mut conns[1];
    second.send(&commit_line(*session));
    wait_for("two commits parked", || in_flight() == 2);
    let shed = probe.request(&regions).err().and_then(|e| e.code());
    assert_eq!(shed, Some(ErrorCode::Overloaded), "level 1 sheds regions");
    let create = probe.create_session(tuple());
    assert!(create.is_ok(), "level 1 admits sessions: {create:?}");

    for (conn, session) in &mut conns[2..] {
        conn.send(&commit_line(*session));
    }
    wait_for("four commits parked", || in_flight() == 4);
    let shed = probe.create_session(tuple()).err().and_then(|e| e.code());
    assert_eq!(shed, Some(ErrorCode::Overloaded), "level 2 sheds sessions");
    let health = probe
        .request(&Request::Health)
        .expect("health is never shed");
    let causes = health.get("causes").and_then(Json::as_arr).unwrap();
    let shedding = format!("{}: shedding at level 2", ErrorCode::Overloaded);
    assert!(
        causes
            .iter()
            .any(|c| c.as_str().is_some_and(|c| c.starts_with(&shedding))),
        "{causes:?}"
    );
    probe.metrics().expect("metrics is never shed");

    rig.gate.open();
    for (conn, session) in &mut conns {
        let reply = conn.recv();
        assert!(
            reply.starts_with(&format!("{{\"id\":{session},\"ok\":true,")),
            "{reply}"
        );
    }
    wait_for("the commits to let go", || in_flight() == 0);
    probe.request(&regions).expect("regions admitted again");
    assert_eq!(in_flight(), 0, "a served request lets go");
    rig.stop();
}

// ---------------------------------------------------------------------
// 4. A stuck spill disk stalls spill I/O only
// ---------------------------------------------------------------------

/// The audit spill holds its segment across write + fsync under a lock
/// of its own, apart from its appends, its index and its status. With
/// the spill's fsync stuck in the disk (inside a commit's flush cycle),
/// `metrics`, `health`, a batch `clean` — which appends audit records —
/// and an `audit.read` of records already durable each answer in time.
#[test]
fn a_stuck_spill_fsync_stalls_only_spill_io() {
    const CLEAN: &str = r#"{"op":"clean","tuples":[["k1","x","n"],["k2","x","n"],["k3","x","n"],["k4","x","n"]],"trust":["key","note"]}"#;
    let rig = gated_rig_with("spill", "seg", Arc::new(RealFs), config(1));
    let addr = rig.server.addr();
    let mut conn = Conn::open(addr);
    // A commit's flush cycle syncs the spill: the first records are
    // durable once it is acknowledged.
    assert!(conn.request(CLEAN).contains("\"ok\":true"));
    let session = conn.create("k5");
    assert!(conn.request(&commit_line(session)).contains("\"ok\":true"));
    let page = conn.request(r#"{"op":"audit.read","start":0,"count":0}"#);
    let durable = Json::parse(page.trim())
        .unwrap()
        .get("total")
        .and_then(Json::as_u64);
    let durable = durable.filter(|&n| n > 0).expect("durable records");

    // Records wait in the spill's buffer; the next commit's flush cycle
    // takes them to the disk, where the fsync sticks. Nothing on this
    // thread may wait on the server from here on: a stuck spill must
    // fail the test, not hang it.
    rig.gate.shut();
    assert!(conn.request(CLEAN).contains("\"ok\":true"));
    let session = conn.create("k6");
    let arrived = rig.gate.arrived();
    conn.send(&commit_line(session));
    wait_for("the commit's flush to reach the spill's disk", || {
        rig.gate.arrived() > arrived
    });
    let stuck = rig.gate.arrived();

    let audit_read = format!(r#"{{"op":"audit.read","start":0,"count":{durable}}}"#);
    for (line, answered) in [
        (r#"{"op":"metrics"}"#, "\"ok\":true"),
        (r#"{"op":"health"}"#, "\"ok\":true"),
        (CLEAN, "\"cells_fixed\":4"),
        (&audit_read, &format!("\"count\":{durable},")),
    ] {
        let (tx, rx) = std::sync::mpsc::channel();
        let request = line.to_string();
        std::thread::spawn(move || {
            let reply = Conn::open(addr).request(&request);
            let _ = tx.send(reply);
        });
        let reply = rx
            .recv_timeout(Duration::from_secs(5))
            .unwrap_or_else(|_| panic!("{line}: no answer while the spill's fsync is stuck"));
        assert!(reply.contains(answered), "{line}: {reply}");
    }
    assert_eq!(
        rig.gate.arrived(),
        stuck,
        "the spill's fsync was stuck throughout"
    );
    rig.gate.open();
    assert!(
        conn.recv().contains("\"ok\":true"),
        "the commit is acknowledged"
    );
    rig.stop();
}
