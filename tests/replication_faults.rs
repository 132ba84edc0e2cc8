//! Fault-injection harness for journal-tailing replication and
//! quorum-acknowledged durability.
//!
//! The replication claim under test: a follower that tails the primary's
//! journal through `replica.sync` converges on exactly the primary's
//! state (CerFix's correcting process is deterministic, so journal
//! replay *is* state-machine replication), and a commit acknowledged
//! under `--quorum` is never lost — not by kill -9 of the primary, not
//! by a torn/duplicated/partitioned replication link, not by a slow
//! follower. Four angles:
//!
//! 1. **kill -9 of the primary mid-burst**: the real `cerfix serve
//!    --quorum 2` binary is SIGKILLed while a client streams commits;
//!    every commit that was acknowledged must be present (and the open
//!    session byte-identical) on the promoted follower.
//! 2. **Partition proxy**: a delay/drop/garbage/duplicate TCP proxy sits
//!    between follower and primary. The follower must survive torn
//!    stream bytes, a duplicated response line and a full partition,
//!    then resume from its cursor — same epoch, no full resync, no
//!    double-applied events.
//! 3. **Slow follower**: with a short `--ack-timeout-ms`, a delayed link
//!    turns commits into `quorum_timeout` errors that are still applied
//!    and locally durable; once the link heals the follower drains its
//!    backlog from the cursor and the next commit acks normally.
//! 4. **Random interleavings** (proptest): random workloads interleaved
//!    with primary snapshots (forcing snapshot resync) run against an
//!    in-process primary + follower pair; the follower must match the
//!    primary, and the primary an in-memory oracle, exactly.
//! 5. **Cluster-wide observability**: one `cluster.status` request to
//!    any member of a 3-node group answers for all three nodes, and a
//!    follower partitioned past `--max-lag` flips exactly its own
//!    readiness — visible in `cluster.status`, the `cerfix_healthy`
//!    gauge and the structured diagnostic log.
//! 6. **Long-poll `replica.sync`**: a caught-up follower's request is
//!    held by the primary and released by an event, never by a timer on
//!    the commit path. Counters, not clocks: with the hold set far above
//!    the test's runtime every quorum commit still acks and costs one
//!    sync; each release cause is driven by hand over a raw connection.

use cerfix_gen::{make_workload, uk, NoiseSpec};
use cerfix_relation::Value;
use cerfix_server::wire::Json;
use cerfix_server::{
    CleaningService, Client, ErrorCode, LocalClient, Request, RetryBudget, Server, ServiceConfig,
    SessionView, StorageConfig, TcpTransport,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::io::{BufRead, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

mod common;
use common::spawn_serve;

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cerfix-repl-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn write_fixture(dir: &Path) -> (PathBuf, PathBuf) {
    let master = dir.join("master.csv");
    let mut csv = String::from("key,val\n");
    for i in 0..20 {
        csv.push_str(&format!("k{i},v{i}\n"));
    }
    std::fs::write(&master, csv).unwrap();
    let rules = dir.join("rules.dsl");
    std::fs::write(&rules, "er kv: match key=key fix val:=val when ()\n").unwrap();
    (master, rules)
}

fn row(k: &str, v: &str, n: &str) -> Vec<Value> {
    vec![Value::str(k), Value::str(v), Value::str(n)]
}

fn wait_for(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while Instant::now() < deadline {
        if cond() {
            return;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("timed out waiting for {what}");
}

/// `(epoch, offset, lag_events)` for follower `name` from a primary's
/// `metrics` response.
fn follower_stat(metrics: &Json, name: &str) -> Option<(u64, u64, u64)> {
    let f = metrics.get("replication")?.get(name)?;
    Some((
        f.get("epoch")?.as_u64()?,
        f.get("offset")?.as_u64()?,
        f.get("lag_events")?.as_u64()?,
    ))
}

fn caught_up(metrics: &Json, name: &str, epoch: u64) -> bool {
    matches!(follower_stat(metrics, name), Some((e, _, lag)) if e == epoch && lag == 0)
}

/// Create → validate (true key + note) → quorum/local commit of one row.
fn commit_one(client: &mut Client<TcpTransport>, k: &str) -> u64 {
    let view = client.create_session(row(k, "X", "note")).unwrap();
    client
        .validate(
            view.session,
            vec![
                ("key".into(), Value::str(k)),
                ("note".into(), Value::str("note")),
            ],
        )
        .unwrap();
    client.commit(view.session).unwrap();
    view.session
}

// ---------------------------------------------------------------------
// A fault-injecting TCP proxy: the follower dials the proxy, the proxy
// dials the primary, and the primary→follower direction can be delayed,
// torn, duplicated or cut entirely.
// ---------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Debug)]
enum ProxyMode {
    /// Pass bytes through untouched.
    Forward,
    /// Sleep this many milliseconds before relaying each server chunk.
    Delay(u64),
    /// Full partition: kill live connections, refuse new ones.
    Partition,
    /// Replace the next server chunk with garbage bytes (a torn stream),
    /// then revert to `Forward`.
    GarbageOnce,
    /// Send the next complete server response line twice (a duplicated
    /// packet on a faulty network), then revert to `Forward`.
    DuplicateOnce,
}

struct Proxy {
    addr: SocketAddr,
    mode: Arc<Mutex<ProxyMode>>,
    stop: Arc<AtomicBool>,
}

impl Proxy {
    fn set(&self, mode: ProxyMode) {
        *self.mode.lock().unwrap() = mode;
    }
}

impl Drop for Proxy {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
    }
}

fn start_proxy(upstream: SocketAddr) -> Proxy {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    listener.set_nonblocking(true).unwrap();
    let mode = Arc::new(Mutex::new(ProxyMode::Forward));
    let stop = Arc::new(AtomicBool::new(false));
    let (accept_mode, accept_stop) = (Arc::clone(&mode), Arc::clone(&stop));
    std::thread::spawn(move || {
        while !accept_stop.load(Ordering::Relaxed) {
            match listener.accept() {
                Ok((client, _)) => {
                    // A partitioned proxy accepts and instantly drops:
                    // the follower sees EOF, like a reset middlebox.
                    if *accept_mode.lock().unwrap() == ProxyMode::Partition {
                        continue;
                    }
                    let Ok(server) = TcpStream::connect(upstream) else {
                        continue;
                    };
                    let (c2, s2) = (client.try_clone().unwrap(), server.try_clone().unwrap());
                    let (m1, st1) = (Arc::clone(&accept_mode), Arc::clone(&accept_stop));
                    let (m2, st2) = (Arc::clone(&accept_mode), Arc::clone(&accept_stop));
                    // follower → primary: plain relay (requests are never
                    // faulted; the interesting faults hit responses).
                    std::thread::spawn(move || pump(client, server, m1, st1, false));
                    // primary → follower: faulted relay.
                    std::thread::spawn(move || pump(s2, c2, m2, st2, true));
                }
                Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(_) => break,
            }
        }
    });
    Proxy { addr, mode, stop }
}

fn pump(
    mut from: TcpStream,
    mut to: TcpStream,
    mode: Arc<Mutex<ProxyMode>>,
    stop: Arc<AtomicBool>,
    fault_side: bool,
) {
    // Short read timeouts let the pump notice Partition/stop promptly.
    let _ = from.set_read_timeout(Some(Duration::from_millis(25)));
    let mut buf = [0u8; 8192];
    let mut held: Vec<u8> = Vec::new();
    loop {
        if stop.load(Ordering::Relaxed) || *mode.lock().unwrap() == ProxyMode::Partition {
            break;
        }
        let n = match from.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                continue;
            }
            Err(_) => break,
        };
        let current = if fault_side {
            *mode.lock().unwrap()
        } else {
            ProxyMode::Forward
        };
        let result = match current {
            ProxyMode::Delay(ms) => {
                std::thread::sleep(Duration::from_millis(ms));
                to.write_all(&buf[..n])
            }
            ProxyMode::GarbageOnce => {
                // Drop the real chunk and tear the stream instead: a
                // line the follower must reject, then resync past.
                *mode.lock().unwrap() = ProxyMode::Forward;
                to.write_all(b"{ torn \xff\xfe stream bytes\n")
            }
            ProxyMode::DuplicateOnce => {
                // Hold bytes until one full response line arrives, then
                // deliver it twice — the second copy races the response
                // to the follower's *next* poll.
                held.extend_from_slice(&buf[..n]);
                if let Some(pos) = held.iter().position(|&b| b == b'\n') {
                    let line: Vec<u8> = held.drain(..=pos).collect();
                    *mode.lock().unwrap() = ProxyMode::Forward;
                    let rest = std::mem::take(&mut held);
                    to.write_all(&line)
                        .and_then(|()| to.write_all(&line))
                        .and_then(|()| to.write_all(&rest))
                } else {
                    Ok(())
                }
            }
            _ => to.write_all(&buf[..n]),
        };
        if result.is_err() {
            break;
        }
    }
    let _ = from.shutdown(std::net::Shutdown::Both);
    let _ = to.shutdown(std::net::Shutdown::Both);
}

// ---------------------------------------------------------------------
// 1. kill -9 of the primary mid-burst under --quorum 2.
// ---------------------------------------------------------------------

#[test]
fn kill_nine_primary_mid_burst_loses_no_acked_commit() {
    let dir = tmp_dir("kill9-quorum");
    let (master, rules) = write_fixture(&dir);
    let (primary, paddr) = spawn_serve(
        &dir.join("p"),
        &master,
        &rules,
        &[
            "--quorum",
            "2",
            "--ack-timeout-ms",
            "8000",
            "--advertise",
            "primary",
        ],
    );
    let paddr_s = paddr.to_string();
    let (mut follower, faddr) = spawn_serve(
        &dir.join("f"),
        &master,
        &rules,
        &["--replicate-from", &paddr_s, "--advertise", "f1"],
    );

    let mut client = Client::connect(paddr).expect("connect primary");
    wait_for("follower registration", || {
        client.metrics().is_ok_and(|m| caught_up(&m, "f1", 0))
    });

    // An open session that must survive failover byte-identically.
    let open = client.create_session(row("k3", "WRONG", "n")).unwrap();
    let fixed = client
        .validate(open.session, vec![("key".into(), Value::str("k3"))])
        .unwrap();
    assert_eq!(fixed.tuple[1], Value::str("v3"));

    // Phase 1: a settled burst of quorum-acked commits.
    let mut acked: Vec<u64> = (0..10)
        .map(|i| commit_one(&mut client, &format!("k{i}")))
        .collect();
    let view_before = client.get_session(open.session).unwrap();
    let audit_before = client.audit_read_all(64).unwrap();
    assert!(!audit_before.is_empty());

    // Phase 2: keep committing while a killer thread SIGKILLs the
    // primary mid-burst. Only responses that came back count as acked.
    let killer = std::thread::spawn(move || {
        let mut primary = primary;
        std::thread::sleep(Duration::from_millis(150));
        primary.kill().expect("kill -9 primary");
        let _ = primary.wait();
    });
    while let Ok(view) = client.create_session(row("k7", "Y", "note")) {
        let validations = vec![
            ("key".into(), Value::str("k7")),
            ("note".into(), Value::str("note")),
        ];
        if client.validate(view.session, validations).is_err() {
            break;
        }
        match client.commit(view.session) {
            Ok(_) => acked.push(view.session),
            Err(_) => break,
        }
    }
    killer.join().unwrap();
    assert!(
        acked.len() > 10,
        "the burst landed some commits before the kill"
    );

    // Promote the follower; the epoch bump fences the dead primary.
    let mut fc = Client::connect(faddr).expect("connect follower");
    let resp = fc.request(&Request::ReplicaPromote).unwrap();
    assert_eq!(resp.get("role").and_then(Json::as_str), Some("primary"));
    assert!(resp.get("epoch").and_then(Json::as_u64).unwrap() >= 1);
    assert_eq!(
        fc.hello().unwrap().get("role").and_then(Json::as_str),
        Some("primary")
    );

    // Zero acked commits lost: every acknowledged session is committed
    // (gone from the live set) and left its audit trail behind.
    let audit_after = fc.audit_read_all(64).unwrap();
    for &id in &acked {
        assert!(
            fc.get_session(id).is_err(),
            "acked commit {id} resurfaced as a live session"
        );
        assert!(
            audit_after.iter().any(|r| r.tuple == id),
            "acked commit {id} lost its audit records"
        );
    }
    // Replicated provenance is byte-identical up to the failover point.
    assert_eq!(&audit_after[..audit_before.len()], &audit_before[..]);

    // The open session survived byte-identically and still completes on
    // the new primary (local fsync: the follower ran without --quorum).
    let after = fc
        .get_session(open.session)
        .expect("open session survived failover");
    assert_eq!(after.tuple, view_before.tuple);
    assert_eq!(after.rounds, view_before.rounds);
    assert_eq!(after.validated, view_before.validated);
    assert_eq!(after.status, view_before.status);
    let finished = fc
        .validate(open.session, vec![("note".into(), Value::str("n"))])
        .unwrap();
    assert!(finished.is_complete());
    fc.commit(open.session).unwrap();

    let _ = fc.shutdown();
    let _ = follower.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// 2. Torn bytes, duplicated responses and a full partition.
// ---------------------------------------------------------------------

#[test]
fn partitioned_follower_resumes_from_cursor_without_resync() {
    let dir = tmp_dir("partition");
    let (master, rules) = write_fixture(&dir);
    let (mut primary, paddr) =
        spawn_serve(&dir.join("p"), &master, &rules, &["--advertise", "primary"]);
    let proxy = start_proxy(paddr);
    let proxy_s = proxy.addr.to_string();
    let (mut follower, faddr) = spawn_serve(
        &dir.join("f"),
        &master,
        &rules,
        &["--replicate-from", &proxy_s, "--advertise", "f1"],
    );

    let mut client = Client::connect(paddr).unwrap();
    // Zero retry budget: this test asserts the follower's typed
    // `not_primary` refusal, which a default client would transparently
    // follow to the primary instead of surfacing.
    let mut fc = Client::connect(faddr)
        .unwrap()
        .with_retry_budget(RetryBudget::new(0, 0.0));

    // Healthy link: the follower catches up and serves reads only.
    commit_one(&mut client, "k1");
    wait_for("initial catch-up", || {
        client.metrics().is_ok_and(|m| caught_up(&m, "f1", 0))
    });
    let err = fc.create_session(row("k2", "x", "y")).unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::NotPrimary), "{err}");
    let hello = fc.hello().unwrap();
    assert_eq!(hello.get("role").and_then(Json::as_str), Some("follower"));
    assert_eq!(
        hello.get("primary").and_then(Json::as_str),
        Some(proxy_s.as_str())
    );
    let prom = fc.request(&Request::MetricsProm).unwrap();
    let body = prom.get("body").and_then(Json::as_str).unwrap();
    assert!(body.contains("cerfix_role{role=\"follower\"} 1"), "{body}");

    // Torn stream bytes: the follower rejects the garbage line,
    // reconnects, and resumes from its cursor.
    proxy.set(ProxyMode::GarbageOnce);
    commit_one(&mut client, "k2");
    wait_for("catch-up after torn bytes", || {
        *proxy.mode.lock().unwrap() == ProxyMode::Forward
            && client.metrics().is_ok_and(|m| caught_up(&m, "f1", 0))
    });

    // Full partition: commits keep landing on the primary, lag grows.
    proxy.set(ProxyMode::Partition);
    std::thread::sleep(Duration::from_millis(100));
    let part_ids: Vec<u64> = (0..5)
        .map(|i| commit_one(&mut client, &format!("k{}", 4 + i)))
        .collect();
    let m = client.metrics().unwrap();
    let (_, _, lag) = follower_stat(&m, "f1").unwrap();
    assert!(lag > 0, "partitioned follower should lag, got {lag}");

    // Heal into DuplicateOnce: the first post-heal sync response is a
    // real event batch, delivered twice. The stale second copy must be
    // rejected by the `from` cursor echo, not re-applied.
    proxy.set(ProxyMode::DuplicateOnce);
    wait_for("catch-up after partition + duplicated response", || {
        client.metrics().is_ok_and(|m| caught_up(&m, "f1", 0))
    });

    // Same epoch on both sides: the follower resumed from its cursor
    // every time — no snapshot resync was ever needed.
    let pepoch = client.hello().unwrap().get("epoch").and_then(Json::as_u64);
    let fepoch = fc.hello().unwrap().get("epoch").and_then(Json::as_u64);
    assert_eq!(pepoch, Some(0));
    assert_eq!(fepoch, Some(0));

    // And nothing was double-applied: provenance is byte-identical and
    // committed sessions are gone on the follower too.
    let pa = client.audit_read_all(64).unwrap();
    let fa = fc.audit_read_all(64).unwrap();
    assert_eq!(pa, fa);
    for id in part_ids {
        assert!(fc.get_session(id).is_err());
    }

    let _ = fc.shutdown();
    let _ = client.shutdown();
    let _ = follower.wait();
    let _ = primary.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// 3. Slow follower: quorum_timeout commits stay durable, then recover.
// ---------------------------------------------------------------------

#[test]
fn slow_follower_times_out_quorum_commits_then_recovers() {
    let dir = tmp_dir("slow-follower");
    let (master, rules) = write_fixture(&dir);
    let (mut primary, paddr) = spawn_serve(
        &dir.join("p"),
        &master,
        &rules,
        &[
            "--quorum",
            "2",
            "--ack-timeout-ms",
            "400",
            "--advertise",
            "primary",
        ],
    );
    let proxy = start_proxy(paddr);
    let proxy_s = proxy.addr.to_string();
    let (mut follower, faddr) = spawn_serve(
        &dir.join("f"),
        &master,
        &rules,
        &["--replicate-from", &proxy_s, "--advertise", "slow"],
    );
    let mut client = Client::connect(paddr).unwrap();
    wait_for("follower registration", || {
        client.metrics().is_ok_and(|m| caught_up(&m, "slow", 0))
    });

    // Healthy link: a quorum commit acks within the deadline.
    commit_one(&mut client, "k1");

    // Slow link: acks arrive after the deadline → quorum_timeout, but
    // the commit is applied and locally durable.
    proxy.set(ProxyMode::Delay(1500));
    let view = client.create_session(row("k9", "X", "note")).unwrap();
    client
        .validate(
            view.session,
            vec![
                ("key".into(), Value::str("k9")),
                ("note".into(), Value::str("note")),
            ],
        )
        .unwrap();
    let err = client.commit(view.session).unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::QuorumTimeout), "{err}");
    assert!(
        client.get_session(view.session).is_err(),
        "timed-out commit must still be applied locally"
    );
    let m = client.metrics().unwrap();
    assert!(m.get("quorum_timeouts").and_then(Json::as_u64).unwrap() >= 1);
    let (_, _, lag) = follower_stat(&m, "slow").unwrap();
    assert!(lag > 0, "slow follower should be behind, got lag {lag}");

    // Heal: the follower drains its backlog from the cursor (including
    // the timed-out commit) and the next commit acks normally again.
    proxy.set(ProxyMode::Forward);
    wait_for("slow follower drains its backlog", || {
        client.metrics().is_ok_and(|m| caught_up(&m, "slow", 0))
    });
    commit_one(&mut client, "k2");

    let mut fc = Client::connect(faddr).unwrap();
    assert!(fc.get_session(view.session).is_err());
    let pa = client.audit_read_all(64).unwrap();
    let fa = fc.audit_read_all(64).unwrap();
    assert_eq!(pa, fa, "timed-out commit replicated once the link healed");

    // The ack histogram and lag gauges are on the exposition surface.
    let prom = client.request(&Request::MetricsProm).unwrap();
    let body = prom.get("body").and_then(Json::as_str).unwrap();
    assert!(
        body.contains("cerfix_commit_ack_duration_seconds"),
        "{body}"
    );
    assert!(body.contains("cerfix_replication_lag_seconds"), "{body}");
    assert!(body.contains("cerfix_quorum_timeouts_total"), "{body}");

    // The time a commit spent blocked on follower acks is attributed to
    // its own `quorum_ns` span stage, not lumped into dispatch.
    let trace = client
        .request(&Request::TraceRead { limit: Some(64) })
        .unwrap();
    let spans = trace.get("spans").and_then(Json::as_arr).unwrap();
    let commit_span = spans
        .iter()
        .find(|s| s.get("op").and_then(Json::as_str) == Some("session.commit"))
        .expect("a commit span in the trace window");
    assert!(
        commit_span.get("quorum_ns").and_then(Json::as_u64).unwrap() > 0,
        "quorum wait attributed: {commit_span:?}"
    );

    let _ = fc.shutdown();
    let _ = client.shutdown();
    let _ = follower.wait();
    let _ = primary.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// 5. Federated cluster.status and max-lag readiness.
// ---------------------------------------------------------------------

/// Reserve an ephemeral port so a node can be spawned with an
/// `--advertise` address that actually dials back to it.
fn reserved_addr() -> String {
    TcpListener::bind("127.0.0.1:0")
        .unwrap()
        .local_addr()
        .unwrap()
        .to_string()
}

#[test]
fn cluster_status_reports_all_three_nodes_from_any_node() {
    let dir = tmp_dir("cluster-status");
    let (master, rules) = write_fixture(&dir);
    let p = reserved_addr();
    let f1 = reserved_addr();
    let f2 = reserved_addr();
    let (mut primary, paddr) = spawn_serve(
        &dir.join("p"),
        &master,
        &rules,
        &["--addr", &p, "--advertise", &p],
    );
    let paddr_s = paddr.to_string();
    let (mut follower1, _) = spawn_serve(
        &dir.join("f1"),
        &master,
        &rules,
        &[
            "--replicate-from",
            &paddr_s,
            "--addr",
            &f1,
            "--advertise",
            &f1,
        ],
    );
    let (mut follower2, _) = spawn_serve(
        &dir.join("f2"),
        &master,
        &rules,
        &[
            "--replicate-from",
            &paddr_s,
            "--addr",
            &f2,
            "--advertise",
            &f2,
        ],
    );

    let mut client = Client::connect(paddr).expect("connect primary");
    wait_for("both followers caught up", || {
        client
            .metrics()
            .is_ok_and(|m| caught_up(&m, &f1, 0) && caught_up(&m, &f2, 0))
    });
    commit_one(&mut client, "k1");
    commit_one(&mut client, "k2");

    // Any member answers for the whole group.
    for target in [&p, &f1, &f2] {
        let mut c = Client::connect(target.as_str()).expect("connect target");
        let status = c
            .request(&Request::ClusterStatus { fanout: true })
            .expect("cluster.status");
        assert_eq!(status.get("ok").and_then(Json::as_bool), Some(true));
        let nodes = status.get("nodes").and_then(Json::as_arr).unwrap();
        assert_eq!(nodes.len(), 3, "asked {target}: {status:?}");
        let mut primaries = 0;
        let mut followers = 0;
        for expected in [&p, &f1, &f2] {
            let node = nodes
                .iter()
                .find(|n| n.get("addr").and_then(Json::as_str) == Some(expected))
                .unwrap_or_else(|| panic!("asked {target}: no entry for {expected}"));
            let ctx = format!("asked {target} about {expected}");
            assert_eq!(node.get("ok").and_then(Json::as_bool), Some(true), "{ctx}");
            assert_eq!(
                node.get("live").and_then(Json::as_bool),
                Some(true),
                "{ctx}"
            );
            assert_eq!(
                node.get("ready").and_then(Json::as_bool),
                Some(true),
                "{ctx}"
            );
            assert_eq!(node.get("epoch").and_then(Json::as_u64), Some(0), "{ctx}");
            assert!(
                node.get("lag_seconds").and_then(Json::as_f64).is_some(),
                "{ctx}"
            );
            assert!(
                node.get("requests").and_then(Json::as_u64).is_some(),
                "{ctx}"
            );
            assert!(
                node.get("req_per_sec").and_then(Json::as_f64).is_some(),
                "{ctx}"
            );
            match node.get("role").and_then(Json::as_str) {
                Some("primary") => primaries += 1,
                Some("follower") => followers += 1,
                other => panic!("{ctx}: unexpected role {other:?}"),
            }
        }
        assert_eq!((primaries, followers), (1, 2), "asked {target}");
    }

    let _ = client.shutdown();
    for target in [&f1, &f2] {
        if let Ok(mut c) = Client::connect(target.as_str()) {
            let _ = c.shutdown();
        }
    }
    let _ = primary.wait();
    let _ = follower1.wait();
    let _ = follower2.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn lagging_follower_past_max_lag_flips_exactly_its_readiness() {
    let dir = tmp_dir("max-lag");
    let (master, rules) = write_fixture(&dir);
    let p = reserved_addr();
    let f = reserved_addr();
    let (mut primary, paddr) = spawn_serve(
        &dir.join("p"),
        &master,
        &rules,
        &["--addr", &p, "--advertise", &p],
    );
    let proxy = start_proxy(paddr);
    let proxy_s = proxy.addr.to_string();
    let (mut follower, faddr) = spawn_serve(
        &dir.join("f"),
        &master,
        &rules,
        &[
            "--replicate-from",
            &proxy_s,
            "--addr",
            &f,
            "--advertise",
            &f,
            "--max-lag",
            "1",
        ],
    );
    let mut client = Client::connect(paddr).unwrap();
    let mut fc = Client::connect(faddr).unwrap();
    wait_for("follower caught up", || {
        client.metrics().is_ok_and(|m| caught_up(&m, &f, 0))
    });

    // Healthy link: the follower is ready and inside its lag budget.
    let health = fc.request(&Request::Health).unwrap();
    assert_eq!(health.get("role").and_then(Json::as_str), Some("follower"));
    assert_eq!(health.get("ready").and_then(Json::as_bool), Some(true));
    assert_eq!(
        health.get("max_lag_seconds").and_then(Json::as_f64),
        Some(1.0)
    );

    // Partition the replication link and keep writing on the primary.
    proxy.set(ProxyMode::Partition);
    commit_one(&mut client, "k5");
    wait_for("readiness flip past max-lag", || {
        fc.request(&Request::Health)
            .is_ok_and(|h| h.get("ready").and_then(Json::as_bool) == Some(false))
    });
    let sick = fc.request(&Request::Health).unwrap();
    assert_eq!(sick.get("live").and_then(Json::as_bool), Some(true));
    assert!(sick.get("lag_seconds").and_then(Json::as_f64).unwrap() > 1.0);
    let causes: Vec<String> = sick
        .get("causes")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .filter_map(|c| c.as_str().map(str::to_string))
        .collect();
    assert!(
        causes.iter().any(|c| c.contains("past max-lag")),
        "lag named as the cause: {causes:?}"
    );

    // The flip is visible in the follower's own cluster.status entry…
    let status = fc
        .request(&Request::ClusterStatus { fanout: false })
        .unwrap();
    let own = &status.get("nodes").and_then(Json::as_arr).unwrap()[0];
    assert_eq!(own.get("ready").and_then(Json::as_bool), Some(false));

    // …and in the primary's federated view: exactly the lagging node.
    let status = client
        .request(&Request::ClusterStatus { fanout: true })
        .unwrap();
    let nodes = status.get("nodes").and_then(Json::as_arr).unwrap();
    for node in nodes {
        let expect_ready = node.get("role").and_then(Json::as_str) == Some("primary");
        assert_eq!(
            node.get("ready").and_then(Json::as_bool),
            Some(expect_ready),
            "only the lagging follower flips: {node:?}"
        );
    }

    // …and as the cerfix_healthy gauge on the follower's exposition.
    let prom = fc.request(&Request::MetricsProm).unwrap();
    let body = prom.get("body").and_then(Json::as_str).unwrap();
    assert!(body.contains("cerfix_healthy 0"), "{body}");
    assert!(body.contains("cerfix_live 1"), "{body}");

    // …with the triggering cause in the structured log.
    let log = fc
        .request(&Request::LogRead {
            limit: Some(64),
            level: Some("warn".into()),
            subsystem: Some("health".into()),
        })
        .unwrap();
    let events = log.get("events").and_then(Json::as_arr).unwrap();
    assert!(
        events.iter().any(|e| e
            .get("message")
            .and_then(Json::as_str)
            .is_some_and(|m| m.contains("not ready") && m.contains("past max-lag"))),
        "log.read carries the readiness cause: {events:?}"
    );

    // Heal the link: the follower drains its backlog and recovers.
    proxy.set(ProxyMode::Forward);
    wait_for("readiness restored after heal", || {
        fc.request(&Request::Health)
            .is_ok_and(|h| h.get("ready").and_then(Json::as_bool) == Some(true))
    });

    let _ = fc.shutdown();
    let _ = client.shutdown();
    let _ = follower.wait();
    let _ = primary.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// 6. Long-poll `replica.sync`: held requests and what releases them.
// ---------------------------------------------------------------------

/// A hold no test outlives (the primary caps it at a minute): a commit
/// released by its expiry fails the test through `ack_timeout` first.
const FOREVER_MS: u64 = 600_000;

/// An in-process primary over real TCP whose journal moves only when a
/// commit syncs it (hour-long flush interval), so durable advances —
/// and with them released syncs — can be counted.
struct HoldRig {
    primary: CleaningService,
    server: Option<cerfix_server::ServerHandle>,
    addr: SocketAddr,
    dir: PathBuf,
    tuple: Vec<Value>,
    master: Arc<cerfix::MasterData>,
    rules: Arc<cerfix_rules::RuleSet>,
}

fn hold_storage(dir: &Path) -> StorageConfig {
    let mut cfg = manual_storage(dir);
    cfg.flush_interval = Duration::from_secs(3600);
    cfg
}

fn hold_rig(name: &str, workers: usize, cluster_size: usize) -> HoldRig {
    let mut rng = StdRng::seed_from_u64(11);
    let scenario = uk::scenario(40, &mut rng);
    let master = Arc::new(scenario.master_data());
    let rules = Arc::new(scenario.rules.clone());
    let dir = tmp_dir(&format!("hold-{name}-{workers}"));
    let primary = CleaningService::with_storage(
        Arc::clone(&master),
        Arc::clone(&rules),
        ServiceConfig {
            workers,
            precompute_regions: false,
            cluster_size,
            ack_timeout: Duration::from_secs(10),
            advertise: Some("primary".into()),
            ..ServiceConfig::default()
        },
        hold_storage(&dir.join("p")),
    )
    .unwrap();
    let server = Server::spawn("127.0.0.1:0", primary.clone()).unwrap();
    HoldRig {
        addr: server.addr(),
        primary,
        server: Some(server),
        dir,
        tuple: scenario.universe[0].values().to_vec(),
        master,
        rules,
    }
}

impl HoldRig {
    /// `replica.sync` requests answered so far (a held one counts when
    /// it is released).
    fn syncs_answered(&self) -> u64 {
        self.primary
            .metrics()
            .latency
            .iter()
            .find(|l| l.op == "replica.sync")
            .map_or(0, |l| l.count)
    }

    fn registered(&self, follower: &str) -> bool {
        follower_stat(&self.primary.handle(&Request::Metrics), follower).is_some()
    }

    /// One locally durable commit, made in process.
    fn commit_locally(&self) -> u64 {
        let mut client = LocalClient::in_process(&self.primary);
        let view = client.create_session(self.tuple.clone()).unwrap();
        client.commit(view.session).unwrap();
        view.session
    }

    fn stop(mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown().unwrap();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// A follower played by hand: one raw connection, one line at a time.
struct RawFollower {
    reader: std::io::BufReader<TcpStream>,
    writer: TcpStream,
}

impl RawFollower {
    fn connect(addr: SocketAddr) -> RawFollower {
        let writer = TcpStream::connect(addr).unwrap();
        // A reply that never comes fails the test instead of hanging it.
        writer
            .set_read_timeout(Some(Duration::from_secs(20)))
            .unwrap();
        RawFollower {
            reader: std::io::BufReader::new(writer.try_clone().unwrap()),
            writer,
        }
    }

    fn sync(&mut self, name: &str, (epoch, offset): (u64, u64), wait_ms: Option<u64>) {
        let wait = wait_ms.map_or(String::new(), |ms| format!(",\"wait_ms\":{ms}"));
        let line = format!(
            "{{\"op\":\"replica.sync\",\"follower\":\"{name}\",\"epoch\":{epoch},\"offset\":{offset}{wait}}}\n"
        );
        // A write the server no longer takes shows as a missing reply.
        let _ = self.writer.write_all(line.as_bytes());
    }

    /// The next reply line; `None` if the server closed (or reset) the
    /// connection. A reply that does not come in time is a failure.
    fn reply(&mut self) -> Option<Json> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => None,
            Ok(_) => Some(Json::parse(line.trim()).expect("a JSON reply")),
            Err(e) => {
                let timed_out = matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                );
                assert!(!timed_out, "no reply in time");
                None
            }
        }
    }

    fn events(reply: &Json) -> usize {
        reply.get("events").and_then(Json::as_arr).unwrap().len()
    }
}

/// A follower that acks whatever it is sent and asks again at once,
/// keeping every request open "forever". Returns when the server goes.
fn acking_follower(addr: SocketAddr, name: &'static str) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        let mut conn = RawFollower::connect(addr);
        conn.writer.set_read_timeout(None).unwrap();
        let mut cursor = (0, 0);
        loop {
            conn.sync(name, cursor, Some(FOREVER_MS));
            let Some(reply) = conn.reply() else { return };
            cursor.1 += RawFollower::events(&reply) as u64;
        }
    })
}

/// (a) + (b): with the hold far above the test's runtime, N quorum
/// commits all ack, each costs one sync, and none timed out — so no
/// commit was released by a timer. With one worker too: the commit and
/// the held sync each wait on their connection's thread, so a hold that
/// took a worker would show as a deadlock until `ack_timeout`.
fn quorum_commits_are_acked_by_events(workers: usize) {
    const N: u64 = 40;
    let rig = hold_rig("acked", workers, 2);
    let follower = acking_follower(rig.addr, "fake");
    wait_for("the follower's first (held) sync", || {
        rig.registered("fake")
    });
    assert_eq!(rig.syncs_answered(), 0, "caught up: held, not answered");
    let mut client = Client::connect(rig.addr).unwrap();
    for _ in 0..N {
        let view = client.create_session(rig.tuple.clone()).unwrap();
        client.commit(view.session).expect("quorum-acked commit");
    }
    let syncs = rig.syncs_answered();
    assert!(
        (N..=N + 2).contains(&syncs),
        "{N} commits released {syncs} syncs ({workers} workers)"
    );
    assert_eq!(rig.primary.metrics().quorum_timeouts, 0);
    rig.stop();
    follower.join().unwrap();
}

#[test]
fn quorum_commits_are_acked_by_events_not_timers() {
    quorum_commits_are_acked_by_events(2);
    quorum_commits_are_acked_by_events(1);
}

/// (c) + (d): every cause that releases a held sync, by hand.
#[test]
fn a_held_sync_is_released_by_each_cause() {
    let rig = hold_rig("causes", 2, 1);
    let mut conn = RawFollower::connect(rig.addr);
    let mut other = Client::connect(rig.addr).unwrap();

    // A request without `wait_ms` (pre-v9) is answered at once, even
    // with nothing to say.
    conn.sync("raw", (0, 0), None);
    let reply = conn.reply().unwrap();
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(RawFollower::events(&reply), 0);
    assert_eq!(rig.syncs_answered(), 1);

    // Hold expiry: the ordinary empty reply, `from` echoed, not early.
    let asked = Instant::now();
    conn.sync("raw", (0, 0), Some(120));
    let reply = conn.reply().unwrap();
    assert!(asked.elapsed() >= Duration::from_millis(120));
    assert_eq!(reply.get("from").and_then(Json::as_u64), Some(0));
    assert_eq!(RawFollower::events(&reply), 0);
    assert_eq!(rig.syncs_answered(), 2);

    // Held: its cursor is recorded on arrival, and other traffic comes
    // and goes while it stays unanswered.
    conn.sync("raw2", (0, 0), Some(FOREVER_MS));
    wait_for("the held sync's cursor", || rig.registered("raw2"));
    for _ in 0..20 {
        other.hello().unwrap();
    }
    assert_eq!(rig.syncs_answered(), 2, "still held");

    // Durable advance releases it with the events.
    let committed = rig.commit_locally();
    let reply = conn.reply().unwrap();
    assert_eq!(reply.get("from").and_then(Json::as_u64), Some(0));
    assert_eq!(RawFollower::events(&reply), 2, "create + commit");
    assert_eq!(rig.syncs_answered(), 3);

    // A snapshot on the primary (epoch change) releases it with the
    // snapshot of the new epoch.
    conn.sync("raw", (0, 2), Some(FOREVER_MS));
    wait_for("held again", || {
        follower_stat(&rig.primary.handle(&Request::Metrics), "raw").map(|f| f.1) == Some(2)
    });
    let open = LocalClient::in_process(&rig.primary)
        .create_session(rig.tuple.clone())
        .unwrap()
        .session;
    assert!(rig.primary.snapshot_now().unwrap());
    let reply = conn.reply().unwrap();
    assert_eq!(reply.get("epoch").and_then(Json::as_u64), Some(1));
    // The snapshot of the epoch it was released by — not the one before
    // (the cache is refreshed a moment after the journal is truncated),
    // and not a second one cut because the cache looked empty.
    let hex = reply.get("snapshot").and_then(Json::as_str).unwrap();
    let bytes: Vec<u8> = (0..hex.len() / 2)
        .map(|i| u8::from_str_radix(&hex[2 * i..2 * i + 2], 16).unwrap())
        .collect();
    assert_eq!(
        cerfix_storage::SnapshotData::decode(&bytes).unwrap().epoch,
        1
    );
    assert_eq!(rig.primary.metrics().snapshots_written, 1);

    // A held connection that goes away gives its slot back (its thread
    // sees the close at the end of its hold, so that one is short).
    let before = rig.primary.metrics().connections_open;
    let mut gone = RawFollower::connect(rig.addr);
    gone.sync("gone", (1, 0), Some(200));
    wait_for("held", || rig.registered("gone"));
    drop(gone);
    wait_for("the closed connection's slot", || {
        rig.primary.metrics().connections_open == before
    });

    // `server.drain` releases a hold instead of waiting for it, and the
    // drained server loses nothing it acknowledged.
    conn.sync("raw", (1, 0), Some(FOREVER_MS));
    wait_for("held at the new epoch", || {
        follower_stat(&rig.primary.handle(&Request::Metrics), "raw").map(|f| f.0) == Some(1)
    });
    let answered = rig.syncs_answered();
    rig.primary.handle(&Request::Drain { wait_ms: Some(50) });
    let reply = conn.reply().unwrap();
    assert_eq!(RawFollower::events(&reply), 0);
    assert!(rig.syncs_answered() > answered);
    let HoldRig {
        primary,
        server,
        dir,
        master,
        rules,
        ..
    } = rig;
    // The drain monitor shuts the server down by itself.
    server.unwrap().shutdown().unwrap();
    drop(primary);
    let reopened = CleaningService::with_storage(
        master,
        rules,
        ServiceConfig {
            precompute_regions: false,
            ..ServiceConfig::default()
        },
        hold_storage(&dir.join("p")),
    )
    .unwrap();
    let mut check = LocalClient::in_process(&reopened);
    assert!(check.get_session(committed).is_err(), "acked commit kept");
    assert!(check.get_session(open).is_ok(), "open session handed off");
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Shutdown with a sync held "forever" does not wait for it.
#[test]
fn shutdown_does_not_wait_for_a_held_sync() {
    let rig = hold_rig("shutdown", 2, 1);
    let mut conn = RawFollower::connect(rig.addr);
    conn.sync("raw", (0, 0), Some(FOREVER_MS));
    wait_for("held", || rig.registered("raw"));
    let committed = rig.commit_locally();
    assert_eq!(RawFollower::events(&conn.reply().unwrap()), 2);
    conn.sync("raw", (0, 2), Some(FOREVER_MS));
    wait_for("held again", || {
        follower_stat(&rig.primary.handle(&Request::Metrics), "raw").map(|f| f.1) == Some(2)
    });
    let asked = Instant::now();
    let primary = rig.primary.clone();
    rig.stop();
    assert!(
        asked.elapsed() < Duration::from_secs(15),
        "shutdown sat out the hold"
    );
    // Released with the empty reply, or cut off: never left hanging.
    if let Some(reply) = conn.reply() {
        assert_eq!(RawFollower::events(&reply), 0);
    }
    assert!(LocalClient::in_process(&primary)
        .get_session(committed)
        .is_err());
}

/// `replica.promote` (and shutdown) on a follower break the read the
/// primary is holding: the tail thread is joined in well under the hold.
#[test]
fn promote_breaks_the_followers_held_read() {
    let rig = hold_rig("promote", 2, 1);
    let follower = CleaningService::with_storage(
        Arc::clone(&rig.master),
        Arc::clone(&rig.rules),
        ServiceConfig {
            precompute_regions: false,
            replicate_from: Some(rig.addr.to_string()),
            advertise: Some("f1".into()),
            ..ServiceConfig::default()
        },
        hold_storage(&rig.dir.join("f")),
    )
    .unwrap();
    wait_for("follower registration", || rig.registered("f1"));
    // Start from a fresh hold: the heartbeat just went by, so a
    // promote that waited for the next one would take the whole
    // hold (500 ms).
    let answered = rig.syncs_answered();
    wait_for("a heartbeat", || rig.syncs_answered() > answered);
    let asked = Instant::now();
    let reply = follower.handle(&Request::ReplicaPromote);
    let took = asked.elapsed();
    assert_eq!(reply.get("promoted").and_then(Json::as_bool), Some(true));
    assert!(took < Duration::from_millis(250), "promote took {took:?}");
    follower.handle(&Request::Shutdown);
    drop(follower);
    rig.stop();
}

/// (d) A primary that answers "nothing new" at once (pre-v9: it ignores
/// `wait_ms`) is not spun on: the follower backs off as on a refusal.
#[test]
fn a_follower_does_not_spin_on_a_primary_that_does_not_hold() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let asked = Arc::new(Mutex::new(Vec::<Instant>::new()));
    let log = Arc::clone(&asked);
    std::thread::spawn(move || {
        // One connection at a time is all a tail loop opens.
        while let Ok((stream, _)) = listener.accept() {
            let mut writer = stream.try_clone().unwrap();
            for line in std::io::BufReader::new(stream).lines() {
                let Ok(line) = line else { break };
                let request = Json::parse(&line).unwrap();
                assert!(request.get("wait_ms").and_then(Json::as_u64).is_some());
                let offset = request.get("offset").and_then(Json::as_u64).unwrap();
                log.lock().unwrap().push(Instant::now());
                let reply = format!(
                    "{{\"ok\":true,\"epoch\":0,\"from\":{offset},\"durable\":{offset},\"events\":[]}}\n"
                );
                if writer.write_all(reply.as_bytes()).is_err() {
                    break;
                }
            }
        }
    });
    let mut rng = StdRng::seed_from_u64(11);
    let scenario = uk::scenario(40, &mut rng);
    let dir = tmp_dir("unheld");
    let follower = CleaningService::with_storage(
        Arc::new(scenario.master_data()),
        Arc::new(scenario.rules.clone()),
        ServiceConfig {
            precompute_regions: false,
            replicate_from: Some(addr.to_string()),
            advertise: Some("f1".into()),
            ..ServiceConfig::default()
        },
        hold_storage(&dir),
    )
    .unwrap();
    wait_for("the backoff ladder to reach its cap", || {
        asked.lock().unwrap().len() >= 8
    });
    // 20, 40, … 500 ms (±25 %): the eighth request is well over a second
    // after the first, where a spinning follower sends thousands.
    let asked = asked.lock().unwrap().clone();
    let spread = asked[7].duration_since(asked[0]);
    assert!(
        spread >= Duration::from_millis(900),
        "8 syncs in {spread:?}"
    );
    follower.handle(&Request::Shutdown);
    drop(follower);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// 4. Random fault interleavings against an in-process pair + oracle.
// ---------------------------------------------------------------------

fn manual_storage(dir: &Path) -> StorageConfig {
    let mut cfg = StorageConfig::new(dir);
    cfg.flush_interval = Duration::from_millis(1);
    cfg.snapshot_interval = Duration::from_secs(3600);
    cfg.snapshot_every_events = u64::MAX;
    cfg
}

fn assert_same_view(ctx: &str, a: &Option<SessionView>, b: &Option<SessionView>) {
    match (a, b) {
        (None, None) => {}
        (Some(a), Some(b)) => {
            assert_eq!(a.tuple, b.tuple, "{ctx}: tuple");
            assert_eq!(a.rounds, b.rounds, "{ctx}: rounds");
            assert_eq!(a.validated, b.validated, "{ctx}: validated set");
            assert_eq!(a.status, b.status, "{ctx}: status");
        }
        (a, b) => panic!(
            "{ctx}: live-set divergence (present: {} vs {})",
            a.is_some(),
            b.is_some()
        ),
    }
}

fn interleaving_case(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let scenario = uk::scenario(40, &mut rng);
    let master = Arc::new(scenario.master_data());
    let rules = Arc::new(scenario.rules.clone());
    let schema = scenario.input.clone();
    let pdir = tmp_dir(&format!("prop-p-{seed}"));
    let fdir = tmp_dir(&format!("prop-f-{seed}"));

    // Primary: quorum-2 commits over real TCP.
    let primary = CleaningService::with_storage(
        Arc::clone(&master),
        Arc::clone(&rules),
        ServiceConfig {
            workers: 2,
            precompute_regions: false,
            cluster_size: 2,
            ack_timeout: Duration::from_secs(20),
            advertise: Some("primary".into()),
            ..ServiceConfig::default()
        },
        manual_storage(&pdir),
    )
    .unwrap();
    let server = Server::bind("127.0.0.1:0", primary.clone()).unwrap();
    let paddr = server.local_addr().unwrap();
    let server_thread = std::thread::spawn(move || {
        let _ = server.run();
    });

    // Follower: tails the primary from inside this process.
    let follower = CleaningService::with_storage(
        Arc::clone(&master),
        Arc::clone(&rules),
        ServiceConfig {
            workers: 2,
            precompute_regions: false,
            replicate_from: Some(paddr.to_string()),
            advertise: Some("f1".into()),
            ..ServiceConfig::default()
        },
        manual_storage(&fdir),
    )
    .unwrap();

    // Oracle: the same op sequence against a storage-free service.
    let oracle = CleaningService::new(
        Arc::clone(&master),
        Arc::clone(&rules),
        ServiceConfig {
            workers: 2,
            precompute_regions: false,
            ..ServiceConfig::default()
        },
    );

    let mut client = Client::connect(paddr).unwrap();
    let mut oc = LocalClient::in_process(&oracle);

    let workload = make_workload(&scenario.universe, 16, &NoiseSpec::with_rate(0.4), &mut rng);
    let mut open: Vec<u64> = Vec::new();
    let mut truth_of: HashMap<u64, usize> = HashMap::new();
    let mut next_dirty = 0usize;
    let mut snapshots = 0u32;
    for _ in 0..rng.gen_range(16..28) {
        match rng.gen_range(0..10u32) {
            0..=3 => {
                let dirty = &workload.dirty[next_dirty % workload.dirty.len()];
                let a = client.create_session(dirty.values().to_vec()).unwrap();
                let b = oc.create_session(dirty.values().to_vec()).unwrap();
                assert_eq!(a.session, b.session, "id allocation must be deterministic");
                truth_of.insert(a.session, next_dirty % workload.dirty.len());
                next_dirty += 1;
                open.push(a.session);
            }
            4..=6 if !open.is_empty() => {
                let id = open[rng.gen_range(0..open.len())];
                let view = client.get_session(id).unwrap();
                if view.suggestion.is_empty() {
                    continue;
                }
                let truth = &workload.truth[truth_of[&id]];
                let validations: Vec<(String, Value)> = view
                    .suggestion
                    .iter()
                    .map(|name| {
                        let attr = schema.attr_id(name).unwrap();
                        (name.clone(), truth.get(attr).clone())
                    })
                    .collect();
                let a = client.validate(id, validations.clone()).unwrap();
                let b = oc.validate(id, validations).unwrap();
                assert_eq!(a.tuple, b.tuple, "seed {seed}: validate diverged");
            }
            7 if !open.is_empty() => {
                // Quorum-acked on the primary: the response itself is
                // the proof a durable copy exists on the follower.
                let id = open.swap_remove(rng.gen_range(0..open.len()));
                let a = client.commit(id).unwrap();
                let b = oc.commit(id).unwrap();
                assert_eq!(a.complete, b.complete, "seed {seed}: commit diverged");
                assert_eq!(a.tuple, b.tuple, "seed {seed}: committed tuple diverged");
            }
            8 if !open.is_empty() => {
                let id = open.swap_remove(rng.gen_range(0..open.len()));
                client.abort(id).unwrap();
                oc.abort(id).unwrap();
            }
            // Fault: snapshot the primary. The epoch bump strands the
            // follower's cursor and forces a snapshot resync.
            _ => {
                if primary.snapshot_now().unwrap() {
                    snapshots += 1;
                }
            }
        }
    }
    // Durability barrier: a final quorum-acked commit replicates
    // everything before it.
    let dirty = &workload.dirty[0];
    let bar_a = client.create_session(dirty.values().to_vec()).unwrap();
    let bar_b = oc.create_session(dirty.values().to_vec()).unwrap();
    assert_eq!(bar_a.session, bar_b.session);
    client.commit(bar_a.session).unwrap();
    oc.commit(bar_b.session).unwrap();

    let pepoch = primary
        .handle(&Request::Hello)
        .get("epoch")
        .and_then(Json::as_u64)
        .unwrap();
    wait_for(&format!("follower convergence (seed {seed})"), || {
        caught_up(&primary.handle(&Request::Metrics), "f1", pepoch)
    });

    // Follower ≡ primary ≡ oracle on every session id ever allocated.
    let mut pc = LocalClient::in_process(&primary);
    let mut fc = LocalClient::in_process(&follower);
    for id in 1..=bar_a.session {
        let o = oc.get_session(id).ok();
        let p = pc.get_session(id).ok();
        let f = fc.get_session(id).ok();
        assert_same_view(
            &format!("seed {seed}, session {id} (oracle vs primary)"),
            &o,
            &p,
        );
        assert_same_view(
            &format!("seed {seed}, session {id} (primary vs follower)"),
            &p,
            &f,
        );
    }
    assert_eq!(
        follower
            .handle(&Request::Hello)
            .get("epoch")
            .and_then(Json::as_u64),
        Some(pepoch),
        "seed {seed}: follower epoch tracks the primary across resyncs"
    );
    // Without snapshot faults the follower replayed every event live, so
    // even the audit stream is byte-identical. (A snapshot resync is a
    // state transfer: events truncated before the follower pulled them
    // leave no audit rows behind, so equality is only guaranteed then
    // for the post-resync suffix.)
    if snapshots == 0 {
        let pa = pc.audit_read_all(64).unwrap();
        let fa = fc.audit_read_all(64).unwrap();
        assert_eq!(pa, fa, "seed {seed}: audit streams diverged");
    }

    let _ = follower.handle(&Request::Shutdown); // stops the tail thread
    let _ = client.shutdown(); // stops the TCP server loop
    let _ = server_thread.join();
    std::thread::sleep(Duration::from_millis(50));
    drop(follower);
    drop(primary);
    let _ = std::fs::remove_dir_all(&pdir);
    let _ = std::fs::remove_dir_all(&fdir);
}

use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// No interleaving of faults (snapshot-forced resyncs here; crashes
    /// and partitions in the deterministic tests above) loses a
    /// quorum-acknowledged commit or diverges follower state from an
    /// oracle replay.
    #[test]
    fn random_fault_interleavings_converge(seed in 0u64..1_000_000) {
        interleaving_case(seed);
    }
}
