//! Overload-robustness harness: deadlines, admission control, graceful
//! drain and self-re-pointing clients.
//!
//! The overload claim under test: the server sheds rather than
//! collapses. Five angles:
//!
//! 1. **Request deadlines**: a client `deadline_ms` cuts the quorum-ack
//!    wait short with a typed `deadline_exceeded` error long before the
//!    ack timeout, without counting as a `quorum_timeout` and without
//!    un-applying the locally durable commit.
//! 2. **Cost-aware shedding**: with a tiny shed watermark and one
//!    worker, a flood of heavy `clean` batches trips the shedder —
//!    heavy reads and then session mutations get retryable
//!    `overloaded` errors, `health` keeps answering (Critical is never
//!    shed) and reports the cause, and once the queue drains the
//!    hysteresis disarms and heavy reads are admitted again.
//! 3. **Quotas**: a full session registry flips readiness with an
//!    `overloaded` cause; a connection past `--max-connections` is
//!    refused at accept time with one typed error line.
//! 4. **Graceful drain**: `cerfix drain` (the real binary) against a
//!    live journaled server — existing connections keep working, new
//!    sessions answer `draining`, fresh connections are refused, the
//!    server exits within the bound, and a reopen of the data
//!    directory shows zero acked commits lost and the still-open
//!    session preserved byte-identical.
//! 5. **Self-re-pointing client**: a mutation sent to a follower comes
//!    back `not_primary: … primary is <addr>`; a budgeted client
//!    transparently re-dials the primary and succeeds, while a client
//!    with an empty retry budget surfaces the typed error instead of
//!    amplifying load.
//!
//! A sixth arm (`overload_smoke_goodput_under_double_load`, gated on
//! `CERFIX_OVERLOAD_SMOKE=1`) drives ~2× sustained capacity over TCP
//! and asserts goodput stays within 80% of the 1× baseline with the
//! accepted-request p99 inside the slow-request budget.

use cerfix::MasterData;
use cerfix_relation::{RelationBuilder, Schema, Value};
use cerfix_rules::{EditingRule, PatternTuple, RuleSet};
use cerfix_server::wire::Json;
use cerfix_server::{
    CleaningService, Client, ClientError, ErrorCode, LocalClient, Request, RetryBudget, Server,
    ServiceConfig, StorageConfig,
};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The `code` of an `ok:false` line.
fn code_of(line: &str) -> Option<ErrorCode> {
    let reply = Json::parse(line.trim()).ok()?;
    reply
        .get("code")
        .and_then(Json::as_str)
        .and_then(ErrorCode::parse)
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cerfix-overload-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// key/val/note fixture mirroring `tests/replication_faults.rs`: `key`
/// matches the master, the rule fixes `val`, and `note` must be
/// user-validated before a session completes.
fn fixture(rows: usize) -> (Arc<MasterData>, Arc<RuleSet>) {
    let input = Schema::of_strings("in", ["key", "val", "note"]).unwrap();
    let ms = Schema::of_strings("m", ["key", "val"]).unwrap();
    let mut builder = RelationBuilder::new(ms.clone());
    for i in 0..rows {
        builder = builder.row_strs([format!("k{i}"), format!("v{i}")]);
    }
    let master = MasterData::new(builder.build().unwrap());
    let mut rules = RuleSet::new(input.clone(), ms.clone());
    rules
        .add(
            EditingRule::new(
                "kv",
                &input,
                &ms,
                vec![(0, 0)],
                vec![(1, 1)],
                PatternTuple::empty(),
            )
            .unwrap(),
        )
        .unwrap();
    (Arc::new(master), Arc::new(rules))
}

fn row(k: &str, v: &str, n: &str) -> Vec<Value> {
    vec![Value::str(k), Value::str(v), Value::str(n)]
}

fn mem_service(config: ServiceConfig) -> CleaningService {
    let (master, rules) = fixture(20);
    CleaningService::new(master, rules, config)
}

/// Storage with an eager flusher and no autonomous snapshots: commit
/// acks are durable within ~1ms and the journal contents stay
/// test-controlled.
fn manual_storage(dir: &Path) -> StorageConfig {
    let mut cfg = StorageConfig::new(dir);
    cfg.flush_interval = Duration::from_millis(1);
    cfg.snapshot_interval = Duration::from_secs(3600);
    cfg.snapshot_every_events = u64::MAX;
    cfg
}

fn disk_service(dir: &Path, config: ServiceConfig) -> CleaningService {
    let (master, rules) = fixture(20);
    CleaningService::with_storage(master, rules, config, manual_storage(dir)).unwrap()
}

fn base_config() -> ServiceConfig {
    ServiceConfig {
        workers: 2,
        precompute_regions: false,
        ..ServiceConfig::default()
    }
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

// ---------------------------------------------------------------------
// 1. A client deadline cuts the quorum-ack wait short.
// ---------------------------------------------------------------------

#[test]
fn client_deadline_cuts_quorum_ack_wait_short() {
    let dir = tmp_dir("deadline-quorum");
    let service = disk_service(
        &dir,
        ServiceConfig {
            cluster_size: 2,
            ack_timeout: Duration::from_secs(8),
            ..base_config()
        },
    );
    let mut client = LocalClient::in_process(&service);
    let view = client.create_session(row("k1", "WRONG", "n")).unwrap();
    client
        .validate(
            view.session,
            vec![
                ("key".into(), Value::str("k1")),
                ("note".into(), Value::str("n")),
            ],
        )
        .unwrap();

    // No follower ever registers, so without a deadline this commit
    // would sit in the quorum gate for the full 8s ack timeout.
    let started = Instant::now();
    let response = service.handle_line(&format!(
        "{{\"op\":\"session.commit\",\"session\":{},\"deadline_ms\":250}}",
        view.session
    ));
    let elapsed = started.elapsed();
    assert_eq!(code_of(&response), Some(ErrorCode::DeadlineExceeded));
    assert!(
        elapsed >= Duration::from_millis(200),
        "cut before the deadline: {elapsed:?}"
    );
    assert!(
        elapsed < Duration::from_secs(4),
        "deadline did not cut the 8s ack wait: {elapsed:?}"
    );

    // The commit is applied and locally durable regardless — only the
    // acknowledgement degraded, exactly like a quorum timeout.
    assert!(
        client.get_session(view.session).is_err(),
        "deadline-cut commit must still be applied locally"
    );
    let metrics = service.metrics();
    assert!(metrics.requests_shed_deadline >= 1);
    assert_eq!(
        metrics.quorum_timeouts, 0,
        "a client deadline cut must not be booked as a quorum timeout"
    );

    drop(client);
    drop(service);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// 2. Load shedding by priority class, with hysteresis recovery.
// ---------------------------------------------------------------------

#[test]
fn overload_sheds_heavy_then_sessions_and_recovers() {
    let service = mem_service(ServiceConfig {
        workers: 1,
        shed_watermark: 2,
        precompute_regions: false,
        ..ServiceConfig::default()
    });
    // A `clean` runs on its connection's thread and fans its tuples out
    // on the worker pool: each flooding connection's batch puts its
    // helper jobs in the worker queue — the instrument the shedder
    // watches.
    let server = Server::bind("127.0.0.1:0", service.clone()).unwrap();
    let addr = server.local_addr().unwrap();
    let server_thread = std::thread::spawn(move || {
        let _ = server.run();
    });

    // Flood: 8 connections each keep one 800-tuple dirty `clean` batch
    // in flight. With a single worker, one batch's helper job occupies
    // it while the other connections' helper jobs queue — depth ≥ 4 =
    // 2× the watermark, i.e. shed level 2. Batches that arrive while the
    // shedder is armed are themselves shed (cheap, typed) and resent,
    // so the server oscillates through armed and disarmed windows
    // until the flood stops.
    let mut flood_line = String::from("{\"op\":\"clean\",\"trust\":[],\"tuples\":[");
    for i in 0..800 {
        if i > 0 {
            flood_line.push(',');
        }
        flood_line.push_str(&format!("[\"k{}\",\"BAD\",\"n\"]", i % 20));
    }
    flood_line.push_str("]}\n");
    let flood_line = Arc::new(flood_line);
    let stop = Arc::new(AtomicBool::new(false));
    let floods: Vec<_> = (0..8)
        .map(|_| {
            let line = Arc::clone(&flood_line);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let stream = TcpStream::connect(addr).unwrap();
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut stream = stream;
                let mut response = String::new();
                while !stop.load(Ordering::Relaxed) {
                    if stream.write_all(line.as_bytes()).is_err() {
                        break;
                    }
                    response.clear();
                    if reader.read_line(&mut response).is_err() || response.is_empty() {
                        break;
                    }
                }
            })
        })
        .collect();

    // Probes ride a separate connection with an EMPTY retry budget so
    // every typed refusal surfaces instead of being retried away.
    let mut probe = Client::connect(addr)
        .unwrap()
        .with_retry_budget(RetryBudget::new(0, 0.0));
    let mut saw_heavy_shed = false;
    let mut saw_session_shed = false;
    let mut saw_health_cause = false;
    let deadline = Instant::now() + Duration::from_secs(30);
    while Instant::now() < deadline && !(saw_heavy_shed && saw_session_shed && saw_health_cause) {
        // Critical introspection is NEVER shed: an overloaded server
        // that goes dark to its operators cannot be diagnosed.
        let health = probe
            .request(&Request::Health)
            .expect("health must keep answering during overload");
        if health
            .get("causes")
            .and_then(Json::as_arr)
            .is_some_and(|causes| {
                causes.iter().any(|c| {
                    let shedding = format!("{}: shedding", ErrorCode::Overloaded);
                    c.as_str().is_some_and(|s| s.starts_with(&shedding))
                })
            })
        {
            saw_health_cause = true;
        }
        // Heavy reads go first (shed level 1)…
        match probe.request(&Request::Regions { top_k: Some(1) }) {
            Err(e) if e.code() == Some(ErrorCode::Overloaded) => {
                saw_heavy_shed = true;
            }
            _ => {}
        }
        // …session mutations only at level 2.
        match probe.create_session(row("k1", "BAD", "n")) {
            Err(e) if e.code() == Some(ErrorCode::Overloaded) => {
                saw_session_shed = true;
            }
            Ok(view) => {
                // Keep the registry clear of probe debris (the abort
                // itself may be shed at level 2; a leak is bounded).
                let _ = probe.abort(view.session);
            }
            Err(_) => {}
        }
    }
    stop.store(true, Ordering::Relaxed);
    for flood in floods {
        flood.join().unwrap();
    }
    assert!(saw_heavy_shed, "never observed a heavy-read shed");
    assert!(saw_session_shed, "never observed a session-mutation shed");
    assert!(
        saw_health_cause,
        "health never reported the overloaded cause"
    );
    assert!(service.metrics().requests_shed_overload >= 2);

    // Hysteresis: once the queue drains, the next observation disarms
    // the shedder and heavy reads are admitted again.
    wait_for("shedder to disarm after the flood", || {
        probe.request(&Request::Regions { top_k: Some(1) }).is_ok()
    });
    wait_for("readiness restored after the flood", || {
        probe
            .request(&Request::Health)
            .is_ok_and(|h| h.get("ready").and_then(Json::as_bool) == Some(true))
    });

    let _ = probe.shutdown();
    let _ = server_thread.join();
}

// ---------------------------------------------------------------------
// 3. Quotas: session registry and connection count.
// ---------------------------------------------------------------------

#[test]
fn session_quota_surfaces_overloaded_health_cause() {
    let service = mem_service(ServiceConfig {
        max_sessions: 2,
        ..base_config()
    });
    let mut client = LocalClient::in_process(&service);
    let a = client.create_session(row("k1", "BAD", "n")).unwrap();
    let _b = client.create_session(row("k2", "BAD", "n")).unwrap();

    let health = Json::parse(&service.handle_line("{\"op\":\"health\"}")).unwrap();
    assert_eq!(health.get("ready").and_then(Json::as_bool), Some(false));
    let causes = health.get("causes").and_then(Json::as_arr).unwrap();
    assert!(
        causes
            .iter()
            .any(|c| c.as_str() == Some("overloaded: session registry at its quota of 2")),
        "missing session-quota cause: {causes:?}"
    );

    // The create that hits the quota is told the same thing, in the
    // overload vocabulary: a client with no retry budget (the in-process
    // one) surfaces it, one with a budget backs off and tries again.
    let create = "{\"op\":\"session.create\",\"tuple\":[\"k3\",\"BAD\",\"n\"]}";
    let refused = service.handle_line(create);
    assert_eq!(code_of(&refused), Some(ErrorCode::Overloaded));
    let refused = Json::parse(&refused).unwrap();
    assert_eq!(
        refused.get("error").and_then(Json::as_str),
        Some("overloaded: session registry at its quota of 2")
    );
    let err = client.create_session(row("k3", "BAD", "n")).unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::Overloaded), "{err}");

    // Freeing a slot clears the cause — the quota is a gauge, not a
    // latch — and the same create succeeds.
    client.abort(a.session).unwrap();
    let health = Json::parse(&service.handle_line("{\"op\":\"health\"}")).unwrap();
    assert_eq!(health.get("ready").and_then(Json::as_bool), Some(true));
    client.create_session(row("k3", "BAD", "n")).unwrap();
}

#[test]
fn connection_quota_refuses_with_typed_error_at_accept() {
    let service = mem_service(ServiceConfig {
        max_connections: 1,
        ..base_config()
    });
    let server = Server::bind("127.0.0.1:0", service.clone()).unwrap();
    let addr = server.local_addr().unwrap();
    let server_thread = std::thread::spawn(move || {
        let _ = server.run();
    });

    let mut first = Client::connect(addr).unwrap();

    // The acceptor counts a connection when it admits it, so the second
    // connect — straight after the first, before the first has sent a
    // byte — is already over the quota: one typed error line, then EOF —
    // no thread, no buffers, no parser time spent on it.
    let second = TcpStream::connect(addr).unwrap();
    second
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut line = String::new();
    BufReader::new(second).read_line(&mut line).unwrap();
    let json = Json::parse(line.trim()).unwrap();
    assert_eq!(json.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(code_of(&line), Some(ErrorCode::Overloaded));
    let error = json.get("error").and_then(Json::as_str).unwrap();
    assert_eq!(
        error,
        "overloaded: connection quota of 1 reached; retry with backoff"
    );
    assert!(service.metrics().connections_refused >= 1);
    // A refusal at accept time is an error line, and counted as one.
    assert_eq!(service.metrics().errors, 1);

    let _ = first.shutdown();
    let _ = server_thread.join();
}

// ---------------------------------------------------------------------
// 4. Graceful drain: zero acked work lost, in-flight preserved.
// ---------------------------------------------------------------------

#[test]
fn drain_preserves_acked_commits_and_open_sessions() {
    let dir = tmp_dir("drain");
    let service = disk_service(&dir, base_config());
    let server = Server::bind("127.0.0.1:0", service.clone()).unwrap();
    let addr = server.local_addr().unwrap();
    let server_thread = std::thread::spawn(move || {
        let _ = server.run();
    });

    // An empty retry budget so every typed refusal surfaces instead of
    // being retried away.
    let mut client = Client::connect(addr)
        .unwrap()
        .with_retry_budget(RetryBudget::new(0, 0.0));

    // Acked work: three committed sessions.
    let mut committed = Vec::new();
    for i in 0..3 {
        let key = format!("k{i}");
        let view = client.create_session(row(&key, "WRONG", "n")).unwrap();
        client
            .validate(
                view.session,
                vec![
                    ("key".into(), Value::str(&key)),
                    ("note".into(), Value::str("n")),
                ],
            )
            .unwrap();
        client.commit(view.session).unwrap();
        committed.push(view.session);
    }
    // In-flight work: one session left open across the drain.
    let open = client.create_session(row("k7", "WRONG", "n")).unwrap();
    let audit_before = client.audit_read_all(64).unwrap().len();
    assert!(audit_before >= 3);

    // Drain through the real CLI against the live server.
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_cerfix"))
        .args(["drain", "--addr", &addr.to_string(), "--wait-ms", "3000"])
        .output()
        .unwrap();
    assert!(output.status.success(), "cerfix drain failed: {output:?}");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        stdout.starts_with(&format!("{addr} draining: 1 live session(s)")),
        "{stdout}"
    );

    // Existing connections keep being served, but new sessions are
    // refused with the retryable `draining`…
    let err = client.create_session(row("k8", "WRONG", "n")).unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::Draining), "{err}");
    // …and fresh connections are refused at accept time.
    let refused = TcpStream::connect(addr).unwrap();
    refused
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut line = String::new();
    BufReader::new(refused).read_line(&mut line).unwrap();
    assert_eq!(
        code_of(&line),
        Some(ErrorCode::Draining),
        "refusal line: {line:?}"
    );

    // The bound expires with the open session still live: the drain
    // monitor snapshots it for hand-off and shuts the server down.
    server_thread.join().unwrap();
    assert!(service.shutdown_requested());
    let metrics = service.metrics();
    assert_eq!(metrics.drains_started, 1);
    assert!(metrics.sessions_refused_draining >= 1);

    // Reopen the data directory: zero acked work lost.
    drop(client);
    drop(service);
    let reopened = disk_service(&dir, base_config());
    let mut local = LocalClient::in_process(&reopened);
    let recovered = local.get_session(open.session).unwrap();
    assert_eq!(recovered.tuple, open.tuple, "open session tuple");
    assert_eq!(recovered.status, open.status, "open session status");
    assert_eq!(
        recovered.validated, open.validated,
        "open session validated"
    );
    for id in committed {
        assert!(
            local.get_session(id).is_err(),
            "committed session {id} must not be resurrected"
        );
    }
    assert_eq!(
        local.audit_read_all(64).unwrap().len(),
        audit_before,
        "acked commits lost or duplicated across the drain"
    );

    drop(local);
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// 5. Self-re-pointing client under a retry budget.
// ---------------------------------------------------------------------

#[test]
fn client_repoints_to_primary_and_respects_retry_budget() {
    let pdir = tmp_dir("repoint-p");
    let fdir = tmp_dir("repoint-f");
    let (master, rules) = fixture(20);
    let primary = CleaningService::with_storage(
        Arc::clone(&master),
        Arc::clone(&rules),
        ServiceConfig {
            advertise: Some("primary".into()),
            ..base_config()
        },
        manual_storage(&pdir),
    )
    .unwrap();
    let pserver = Server::bind("127.0.0.1:0", primary.clone()).unwrap();
    let paddr = pserver.local_addr().unwrap();
    let pthread = std::thread::spawn(move || {
        let _ = pserver.run();
    });

    let follower = CleaningService::with_storage(
        Arc::clone(&master),
        Arc::clone(&rules),
        ServiceConfig {
            replicate_from: Some(paddr.to_string()),
            advertise: Some("f1".into()),
            ..base_config()
        },
        manual_storage(&fdir),
    )
    .unwrap();
    let fserver = Server::bind("127.0.0.1:0", follower.clone()).unwrap();
    let faddr = fserver.local_addr().unwrap();
    let fthread = std::thread::spawn(move || {
        let _ = fserver.run();
    });

    // An empty budget surfaces the typed error: retries must never be
    // free, or a redirect storm amplifies the overload it rode in on.
    let mut broke = Client::connect(faddr)
        .unwrap()
        .with_retry_budget(RetryBudget::new(0, 0.0));
    let err = broke.create_session(row("k1", "WRONG", "n")).unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::NotPrimary), "{err}");
    match err {
        ClientError::Server { redirect, .. } => assert_eq!(redirect, Some(paddr.to_string())),
        other => panic!("{other}"),
    }

    // A budgeted client follows the redirect transparently: the
    // follower's error names the primary, the client re-dials it, and
    // the same logical request succeeds there.
    let mut client = Client::connect(faddr).unwrap();
    assert_eq!(client.current_addr(), faddr.to_string());
    let view = client.create_session(row("k1", "WRONG", "n")).unwrap();
    assert_eq!(
        client.current_addr(),
        paddr.to_string(),
        "client should have re-pointed at the advertised primary"
    );
    // …and stays pointed there for follow-up requests.
    let after = client.get_session(view.session).unwrap();
    assert_eq!(after.session, view.session);
    client.abort(view.session).unwrap();

    let _ = broke.shutdown(); // stops the follower
    let _ = client.shutdown(); // stops the primary
    let _ = fthread.join();
    let _ = pthread.join();
    let _ = std::fs::remove_dir_all(&pdir);
    let _ = std::fs::remove_dir_all(&fdir);
}

// ---------------------------------------------------------------------
// 6. Goodput smoke under 2× load (gated: CERFIX_OVERLOAD_SMOKE=1).
// ---------------------------------------------------------------------

/// Closed-loop drive: `clients` threads each hammer `clean` batches at
/// `addr` for `secs`, with empty retry budgets so shed requests return
/// immediately as typed errors. Returns (completed batches, shed
/// batches, accepted-request latencies).
fn drive(addr: std::net::SocketAddr, clients: usize, secs: u64) -> (u64, u64, Vec<Duration>) {
    let handles: Vec<_> = (0..clients)
        .map(|_| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr)
                    .unwrap()
                    .with_retry_budget(RetryBudget::new(0, 0.0));
                let batch: Vec<Vec<Value>> = (0..32)
                    .map(|i| row(&format!("k{}", i % 20), "BAD", "n"))
                    .collect();
                let mut good = 0u64;
                let mut shed = 0u64;
                let mut latencies = Vec::new();
                let deadline = Instant::now() + Duration::from_secs(secs);
                while Instant::now() < deadline {
                    let started = Instant::now();
                    match client.clean(batch.clone(), Vec::new()) {
                        Ok(_) => {
                            good += 1;
                            latencies.push(started.elapsed());
                        }
                        Err(e) if e.code() == Some(ErrorCode::Overloaded) => {
                            shed += 1;
                            // The error contract says "retry with
                            // backoff" — honor it so the shed path
                            // itself is not a busy-loop.
                            std::thread::sleep(Duration::from_millis(2));
                        }
                        Err(e) => panic!("unexpected error under load: {e}"),
                    }
                }
                (good, shed, latencies)
            })
        })
        .collect();
    let mut good = 0;
    let mut shed = 0;
    let mut latencies = Vec::new();
    for handle in handles {
        let (g, s, mut l) = handle.join().unwrap();
        good += g;
        shed += s;
        latencies.append(&mut l);
    }
    (good, shed, latencies)
}

#[test]
fn overload_smoke_goodput_under_double_load() {
    if std::env::var_os("CERFIX_OVERLOAD_SMOKE").is_none() {
        eprintln!("CERFIX_OVERLOAD_SMOKE not set; skipping the goodput smoke");
        return;
    }
    let slow_ms = 500u64;
    let service = mem_service(ServiceConfig {
        workers: 1,
        shed_watermark: 64,
        slow_ms,
        precompute_regions: false,
        ..ServiceConfig::default()
    });
    let server = Server::bind("127.0.0.1:0", service.clone()).unwrap();
    let addr = server.local_addr().unwrap();
    let server_thread = std::thread::spawn(move || {
        let _ = server.run();
    });

    // Warm caches, then baseline at 1× (2 closed-loop clients against
    // 1 worker) and overload at 2×.
    let _ = drive(addr, 1, 1);
    let (g1, shed1, _) = drive(addr, 2, 2);
    let (g2, shed2, lat2) = drive(addr, 4, 2);
    eprintln!(
        "goodput: baseline {g1} (shed {shed1}), 2x {g2} (shed {shed2}), \
         accepted requests at 2x: {}",
        lat2.len()
    );
    assert!(g1 > 0, "no baseline goodput at all");
    assert!(
        g2 as f64 >= 0.8 * g1 as f64,
        "goodput collapsed under 2x load: baseline {g1}, overloaded {g2}"
    );
    let mut sorted = lat2.clone();
    sorted.sort();
    let p99 = sorted[((sorted.len() * 99) / 100).min(sorted.len() - 1)];
    assert!(
        p99 <= Duration::from_millis(slow_ms),
        "accepted-request p99 {p99:?} over the {slow_ms}ms budget"
    );

    let mut ctl = Client::connect(addr).unwrap();
    let _ = ctl.shutdown();
    let _ = server_thread.join();
}
