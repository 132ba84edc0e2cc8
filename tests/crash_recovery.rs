//! Crash-recovery harness for `cerfix-storage` + `cerfix-server`.
//!
//! The durability claim under test: a journaled service that dies at an
//! arbitrary point — after a journal write, before its fsync, mid-
//! snapshot, or kill-9 of the whole process — recovers every
//! uncommitted session to *exactly* the state an uninterrupted
//! [`DataMonitor`] run would hold after the events that survived on
//! disk. Four angles:
//!
//! 1. **Torn-journal sweep**: run a real UK-scenario workload, capture
//!    the journal, cut it at dozens of byte offsets (simulating a crash
//!    torn write at each), and for every cut compare the recovered
//!    service against an independent oracle replay of the surviving
//!    event prefix.
//! 2. **Fault points around snapshots**: a garbage `snapshot.tmp`
//!    (crash mid-snapshot-write) and a stale-epoch journal (crash
//!    between snapshot rename and journal truncation) must both recover
//!    cleanly from the last consistent state.
//! 3. **Codec properties**: random event sequences round-trip through
//!    the journal byte format, and any prefix cut yields a clean prefix
//!    of events (proptest).
//! 4. **kill -9 over TCP**: the real `cerfix serve --data-dir` binary is
//!    SIGKILLed mid-session and restarted; uncommitted sessions resume
//!    over the wire and `audit.read` returns the same records.

use cerfix::{DataMonitor, MasterData, MonitorSession};
use cerfix_gen::{make_workload, uk, NoiseSpec};
use cerfix_relation::{Tuple, Value};
use cerfix_server::{CleaningService, LocalClient, ServiceConfig, StorageConfig};
use cerfix_storage::{scan_journal, JournalEvent, JOURNAL_FILE};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

mod common;
use common::{spawn_serve, ServerProcess};

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cerfix-crash-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// End-of-test cleanup. With `CERFIX_KEEP_CRASH_DIRS` set the data
/// directories survive so CI's scrub step can run `cerfix scrub` over
/// real crash residue (kill -9, torn writes, byte-cut journals).
fn cleanup(dir: &Path) {
    if std::env::var_os("CERFIX_KEEP_CRASH_DIRS").is_none() {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// Storage where nothing is durable except through explicit syncs
/// (commit acks) — the crash window is then fully test-controlled.
fn manual_storage(dir: &Path) -> StorageConfig {
    let mut cfg = StorageConfig::new(dir);
    cfg.flush_interval = Duration::from_secs(3600);
    cfg.snapshot_interval = Duration::from_secs(3600);
    cfg.snapshot_every_events = u64::MAX;
    cfg
}

fn service_over(
    dir: &Path,
    master: &Arc<MasterData>,
    rules: &Arc<cerfix_rules::RuleSet>,
) -> CleaningService {
    CleaningService::with_storage(
        Arc::clone(master),
        Arc::clone(rules),
        ServiceConfig {
            workers: 2,
            precompute_regions: false,
            ..ServiceConfig::default()
        },
        manual_storage(dir),
    )
    .expect("open storage")
}

/// Independent oracle: replay `events` through a plain [`DataMonitor`]
/// over a session map, exactly as an uninterrupted in-memory run would
/// have executed them.
fn oracle_replay(
    events: &[JournalEvent],
    monitor: &DataMonitor<'_>,
    schema: &cerfix_relation::SchemaRef,
) -> BTreeMap<u64, MonitorSession> {
    let mut sessions: BTreeMap<u64, MonitorSession> = BTreeMap::new();
    for event in events {
        match event {
            JournalEvent::SessionCreated { session, values } => {
                let tuple = Tuple::new(schema.clone(), values.clone()).unwrap();
                sessions.insert(*session, MonitorSession::new(*session as usize, tuple));
            }
            JournalEvent::SessionValidated {
                session,
                validations,
            } => {
                if let Some(state) = sessions.get_mut(session) {
                    let resolved: Vec<(usize, Value)> = validations
                        .iter()
                        .map(|(a, v)| (*a as usize, v.clone()))
                        .collect();
                    let _ = monitor.apply_validation(state, &resolved);
                }
            }
            JournalEvent::SessionCommitted { session }
            | JournalEvent::SessionAborted { session } => {
                sessions.remove(session);
            }
            JournalEvent::SessionsEvicted {
                sessions: evicted, ..
            } => {
                for id in evicted {
                    sessions.remove(id);
                }
            }
            // The crash workloads here never append master rows,
            // reload rules or set tunables; the arms exist so the
            // oracle stays total.
            JournalEvent::MasterAppended { .. } => {}
            JournalEvent::ConfigSet { .. } => {}
            JournalEvent::RulesReloaded { .. } => {
                unreachable!("this workload never reloads rules")
            }
        }
    }
    sessions
}

/// Assert the recovered service agrees with the oracle on every session:
/// same live set, and per session the same tuple, rounds and validated
/// attribute names.
fn assert_matches_oracle(
    service: &CleaningService,
    oracle: &BTreeMap<u64, MonitorSession>,
    schema: &cerfix_relation::SchemaRef,
    context: &str,
) {
    assert_eq!(
        service.live_sessions(),
        oracle.len(),
        "{context}: live session count"
    );
    let mut client = LocalClient::in_process(service);
    for (&id, expected) in oracle {
        let view = client
            .get_session(id)
            .unwrap_or_else(|e| panic!("{context}: session {id} missing after recovery: {e}"));
        assert_eq!(
            view.tuple,
            expected.tuple.values().to_vec(),
            "{context}: session {id} tuple"
        );
        assert_eq!(
            view.rounds as usize, expected.rounds,
            "{context}: session {id} rounds"
        );
        let expected_validated: Vec<String> = expected
            .validated
            .iter()
            .map(|a| schema.attr_name(a).to_string())
            .collect();
        assert_eq!(
            view.validated, expected_validated,
            "{context}: session {id} validated set"
        );
    }
}

/// Drive a realistic interleaved workload against a journaled service:
/// sessions at various stages, some committed, some aborted, some mid-
/// round. Ends with one commit as the durability barrier.
fn drive_workload(service: &CleaningService, scenario: &cerfix_gen::Scenario) {
    let mut rng = StdRng::seed_from_u64(0xC4A5);
    let workload = make_workload(&scenario.universe, 12, &NoiseSpec::with_rate(0.4), &mut rng);
    let mut client = LocalClient::in_process(service);
    let schema = &scenario.input;
    let mut open = Vec::new();
    for (i, (dirty, truth)) in workload.dirty.iter().zip(&workload.truth).enumerate() {
        let view = client.create_session(dirty.values().to_vec()).unwrap();
        // Walk 0..=2 suggestion rounds with true values, like a clerk
        // who answers some prompts and wanders off.
        let mut current = view.clone();
        for _ in 0..(i % 3) {
            if current.suggestion.is_empty() {
                break;
            }
            let validations: Vec<(String, Value)> = current
                .suggestion
                .iter()
                .map(|name| {
                    let attr = schema.attr_id(name).unwrap();
                    (name.clone(), truth.get(attr).clone())
                })
                .collect();
            current = client.validate(view.session, validations).unwrap();
        }
        match i % 4 {
            0 if current.is_complete() => {
                client.commit(view.session).unwrap();
            }
            3 => client.abort(view.session).unwrap(),
            _ => open.push(view.session),
        }
    }
    // Durability barrier: one committed session group-fsyncs the rest.
    let barrier = client
        .create_session(workload.dirty[0].values().to_vec())
        .unwrap();
    client.commit(barrier.session).unwrap();
    assert!(!open.is_empty(), "workload must leave open sessions");
}

/// 1. The torn-journal sweep.
#[test]
fn torn_journal_recovery_matches_oracle_at_every_cut() {
    let mut rng = StdRng::seed_from_u64(0x70A2);
    let scenario = uk::scenario(120, &mut rng);
    let master = Arc::new(scenario.master_data());
    let rules = Arc::new(scenario.rules.clone());
    let schema = scenario.input.clone();

    let dir = tmp_dir("torn-sweep");
    {
        let service = service_over(&dir, &master, &rules);
        drive_workload(&service, &scenario);
        service.simulate_crash().unwrap();
    }
    let full = std::fs::read(dir.join(JOURNAL_FILE)).unwrap();
    let full_scan = scan_journal(&dir.join(JOURNAL_FILE)).unwrap();
    assert!(
        full_scan.events.len() >= 20,
        "workload journaled {} events",
        full_scan.events.len()
    );

    let monitor = DataMonitor::new(&rules, &master);
    // Sweep cuts across the whole file: ends, frame-ish strides, and a
    // few dozen odd offsets so header/payload tears are both hit.
    let header = cerfix_storage::JOURNAL_HEADER as usize;
    let mut cuts: Vec<usize> = (header..full.len()).step_by(101).collect();
    cuts.extend([header, header + 1, full.len() - 1, full.len()]);
    let mut prefix_lens = std::collections::BTreeSet::new();
    for cut in cuts {
        let case_dir = tmp_dir("torn-case");
        std::fs::write(case_dir.join(JOURNAL_FILE), &full[..cut]).unwrap();
        let scan = scan_journal(&case_dir.join(JOURNAL_FILE)).unwrap();
        assert_eq!(
            scan.events,
            full_scan.events[..scan.events.len()],
            "cut {cut}: surviving events are a clean prefix"
        );
        prefix_lens.insert(scan.events.len());
        let oracle = oracle_replay(&scan.events, &monitor, &schema);
        let service = service_over(&case_dir, &master, &rules);
        assert_matches_oracle(&service, &oracle, &schema, &format!("cut {cut}"));
        assert_eq!(
            service.metrics().sessions_recovered as usize,
            oracle.len(),
            "cut {cut}: recovered counter"
        );
        drop(service);
        cleanup(&case_dir);
    }
    assert!(
        prefix_lens.len() > 5,
        "sweep exercised {} distinct prefix lengths",
        prefix_lens.len()
    );
    cleanup(&dir);
}

/// 2a. Crash mid-snapshot: the half-written tmp is ignored; the previous
/// snapshot + journal recover everything.
#[test]
fn crash_mid_snapshot_recovers_from_previous_state() {
    let mut rng = StdRng::seed_from_u64(0x51AB);
    let scenario = uk::scenario(80, &mut rng);
    let master = Arc::new(scenario.master_data());
    let rules = Arc::new(scenario.rules.clone());
    let schema = scenario.input.clone();

    let dir = tmp_dir("mid-snapshot");
    {
        let service = service_over(&dir, &master, &rules);
        drive_workload(&service, &scenario);
        assert!(service.snapshot_now().unwrap());
        // More traffic after the snapshot, then crash.
        drive_workload(&service, &scenario);
        service.simulate_crash().unwrap();
    }
    // Crash "mid-snapshot": a torn tmp file appears alongside.
    std::fs::write(dir.join(cerfix_storage::SNAPSHOT_TMP), b"torn half-write").unwrap();

    let expected = {
        let scan = scan_journal(&dir.join(JOURNAL_FILE)).unwrap();
        let snapshot = cerfix_storage::load_snapshot(&dir).unwrap().unwrap();
        assert_eq!(scan.epoch, snapshot.epoch, "journal continues the snapshot");
        (snapshot.sessions.len(), scan.events.len())
    };
    assert!(expected.0 > 0, "snapshot carries sessions");
    assert!(expected.1 > 0, "journal carries post-snapshot events");

    let service = service_over(&dir, &master, &rules);
    assert!(service.live_sessions() > 0);
    // Deep equality: re-derive the oracle as snapshot sessions + replay.
    // (The snapshot's own correctness is covered by the server tests;
    // here we assert recovery survived the fault and is self-consistent.)
    let mut client = LocalClient::in_process(&service);
    let metrics = service.metrics();
    assert_eq!(metrics.sessions_recovered as usize, service.live_sessions());
    // Every recovered session answers get_session coherently.
    for (id, _) in (1..200u64).map(|id| (id, ())).take(200) {
        if let Ok(view) = client.get_session(id) {
            assert_eq!(view.tuple.len(), schema.arity());
        }
    }
    cleanup(&dir);
}

/// 2b. Crash between snapshot rename and journal truncation: the stale
/// journal (old epoch) must be discarded, not replayed on top of the
/// snapshot that already contains its effects.
#[test]
fn stale_epoch_journal_is_not_double_applied() {
    let mut rng = StdRng::seed_from_u64(0x2E0C);
    let scenario = uk::scenario(80, &mut rng);
    let master = Arc::new(scenario.master_data());
    let rules = Arc::new(scenario.rules.clone());
    let schema = scenario.input.clone();

    let dir = tmp_dir("stale-epoch");
    let (expected_live, views_before);
    {
        let service = service_over(&dir, &master, &rules);
        drive_workload(&service, &scenario);
        // Capture pre-snapshot journal bytes (epoch 0, full history).
        let stale_journal = std::fs::read(dir.join(JOURNAL_FILE)).unwrap();
        assert!(service.snapshot_now().unwrap());
        expected_live = service.live_sessions();
        let mut client = LocalClient::in_process(&service);
        views_before = (1..50u64)
            .filter_map(|id| client.get_session(id).ok().map(|v| (id, v)))
            .collect::<Vec<_>>();
        service.simulate_crash().unwrap();
        // Fault injection: put the old epoch-0 journal back, as if the
        // crash hit after snapshot rename but before truncation.
        std::fs::write(dir.join(JOURNAL_FILE), &stale_journal).unwrap();
    }
    let service = service_over(&dir, &master, &rules);
    assert_eq!(
        service.live_sessions(),
        expected_live,
        "stale journal neither lost nor double-applied sessions"
    );
    let mut client = LocalClient::in_process(&service);
    for (id, before) in views_before {
        let after = client.get_session(id).unwrap();
        assert_eq!(after.tuple, before.tuple, "session {id}");
        assert_eq!(after.rounds, before.rounds, "session {id} rounds intact");
        assert_eq!(after.validated, before.validated, "session {id}");
    }
    assert_eq!(schema.arity(), 9);
    cleanup(&dir);
}

// ---------------------------------------------------------------------
// 3. Codec properties.
// ---------------------------------------------------------------------

fn arbitrary_value(rng: &mut StdRng) -> Value {
    match rng.gen_range(0..6) {
        0 => Value::Null,
        1 => Value::Int(rng.gen::<i64>()),
        2 => Value::Float(f64::from_bits(rng.gen::<u64>())),
        3 => Value::Bool(rng.gen_bool(0.5)),
        4 => Value::str(""),
        _ => {
            let len = rng.gen_range(0..24);
            let s: String = (0..len)
                .map(|_| {
                    // Mix ASCII with multi-byte UTF-8.
                    match rng.gen_range(0..4) {
                        0 => 'π',
                        1 => '∅',
                        _ => (b'a' + rng.gen_range(0..26u8)) as char,
                    }
                })
                .collect();
            Value::str(s)
        }
    }
}

fn arbitrary_event(rng: &mut StdRng) -> JournalEvent {
    match rng.gen_range(0..6) {
        0 => JournalEvent::SessionCreated {
            session: rng.gen_range(0..1_000),
            values: (0..rng.gen_range(0..9))
                .map(|_| arbitrary_value(rng))
                .collect(),
        },
        1 => JournalEvent::SessionValidated {
            session: rng.gen_range(0..1_000),
            validations: (0..rng.gen_range(0..6))
                .map(|_| (rng.gen_range(0..64u32), arbitrary_value(rng)))
                .collect(),
        },
        2 => JournalEvent::SessionCommitted {
            session: rng.gen::<u64>(),
        },
        3 => JournalEvent::SessionAborted {
            session: rng.gen::<u64>(),
        },
        4 => JournalEvent::SessionsEvicted {
            sessions: (0..rng.gen_range(0..10))
                .map(|_| rng.gen::<u64>())
                .collect(),
        },
        _ => JournalEvent::RulesReloaded {
            dsl: format!(
                "er r{}: match a=a fix b:=b when ()",
                rng.gen_range(0..1_000)
            ),
            fingerprint: rng.gen::<u64>(),
        },
    }
}

use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary event sequences survive the full journal byte format:
    /// append → fsync → scan returns exactly the sequence.
    #[test]
    fn journal_round_trips_arbitrary_event_sequences(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let events: Vec<JournalEvent> =
            (0..rng.gen_range(1..40)).map(|_| arbitrary_event(&mut rng)).collect();
        let dir = tmp_dir(&format!("prop-{seed}"));
        let path = dir.join(JOURNAL_FILE);
        {
            let scan = scan_journal(&path).unwrap();
            let fs: std::sync::Arc<dyn cerfix_storage::StorageFs> =
                std::sync::Arc::new(cerfix_storage::RealFs);
            let journal = cerfix_storage::Journal::open(
                &path, &scan, 0, Duration::from_secs(3600), &fs).unwrap();
            let mut last = 0;
            for event in &events {
                last = journal.append(event);
            }
            journal.sync(last).unwrap();
        }
        let scan = scan_journal(&path).unwrap();
        prop_assert_eq!(&scan.events, &events);
        prop_assert_eq!(scan.torn_bytes, 0);

        // And any byte cut yields a clean prefix of the sequence.
        let full = std::fs::read(&path).unwrap();
        let cut = rng.gen_range(cerfix_storage::JOURNAL_HEADER as usize..=full.len());
        std::fs::write(&path, &full[..cut]).unwrap();
        let scan = scan_journal(&path).unwrap();
        prop_assert!(scan.events.len() <= events.len());
        prop_assert_eq!(&scan.events[..], &events[..scan.events.len()]);
        cleanup(&dir);
    }

    /// Snapshot payloads round-trip for arbitrary session states.
    #[test]
    fn snapshot_round_trips_arbitrary_states(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let data = cerfix_storage::SnapshotData {
            epoch: rng.gen(),
            fingerprint: rng.gen(),
            rules_dsl: format!("er r: match a=a fix b:=b when () # {seed}"),
            next_session_id: rng.gen(),
            master_appended: (0..rng.gen_range(0..4))
                .map(|_| (0..rng.gen_range(0..6)).map(|_| arbitrary_value(&mut rng)).collect())
                .collect(),
            sessions: (0..rng.gen_range(0..12))
                .map(|i| cerfix_storage::SessionSnapshot {
                    session: i,
                    tuple_id: rng.gen(),
                    rounds: rng.gen_range(0..64),
                    values: (0..rng.gen_range(0..9)).map(|_| arbitrary_value(&mut rng)).collect(),
                    validated: (0..rng.gen_range(0..9)).map(|_| rng.gen_range(0..64u32)).collect(),
                    user_validated: vec![],
                    auto_validated: (0..rng.gen_range(0..4)).map(|_| rng.gen_range(0..64u32)).collect(),
                })
                .collect(),
        };
        let bytes = data.encode();
        prop_assert_eq!(cerfix_storage::SnapshotData::decode(&bytes).unwrap(), data);
    }
}

// ---------------------------------------------------------------------
// 4. kill -9 of the real server binary over TCP.
// ---------------------------------------------------------------------

fn write_kill_fixture(dir: &Path) -> (PathBuf, PathBuf) {
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

fn spawn_server(dir: &Path, master: &Path, rules: &Path) -> (ServerProcess, std::net::SocketAddr) {
    spawn_serve(&dir.join("data"), master, rules, &[])
}

/// kill -9 of `cerfix serve` over TCP.
#[test]
fn kill_dash_nine_over_tcp_resumes_sessions() {
    use cerfix_server::Client;
    let dir = tmp_dir("kill9");
    let (master, rules) = write_kill_fixture(&dir);

    let (mut child, addr) = spawn_server(&dir, &master, &rules);
    let mut client = Client::connect(addr).expect("connect");
    let row = |k: &str, v: &str, n: &str| vec![Value::str(k), Value::str(v), Value::str(n)];

    // An uncommitted session with a rule fix applied...
    let open = client.create_session(row("k3", "WRONG", "n")).unwrap();
    let fixed = client
        .validate(open.session, vec![("key".into(), Value::str("k3"))])
        .unwrap();
    assert_eq!(fixed.tuple[1], Value::str("v3"));
    // ...and a committed one, whose ack is the durability barrier.
    let done = client.create_session(row("k5", "x", "y")).unwrap();
    client
        .validate(
            done.session,
            vec![
                ("key".into(), Value::str("k5")),
                ("note".into(), Value::str("y")),
            ],
        )
        .unwrap();
    client.commit(done.session).unwrap();
    let view_before = client.get_session(open.session).unwrap();
    let audit_before = client.audit_read_all(16).unwrap();
    assert!(!audit_before.is_empty());

    // SIGKILL: no shutdown handler, no final snapshot, nothing graceful.
    child.kill().expect("kill -9");
    let _ = child.wait();

    let (mut child, addr) = spawn_server(&dir, &master, &rules);
    let mut client = Client::connect(addr).expect("reconnect");
    let after = client.get_session(open.session).expect("session resumed");
    assert_eq!(after.tuple, view_before.tuple);
    assert_eq!(after.rounds, view_before.rounds);
    assert_eq!(after.validated, view_before.validated);
    assert_eq!(after.status, view_before.status);
    // The committed session stays gone.
    assert!(client.get_session(done.session).is_err());
    // Provenance is identical across the kill.
    let audit_after = client.audit_read_all(16).unwrap();
    assert_eq!(audit_after, audit_before);
    // The resumed session completes normally.
    let finished = client
        .validate(open.session, vec![("note".into(), Value::str("n"))])
        .unwrap();
    assert!(finished.is_complete());
    client.commit(open.session).unwrap();

    let _ = client.shutdown();
    let _ = child.wait();
    cleanup(&dir);
}

// ---------------------------------------------------------------------
// 5. kill -9 across a three-node cluster: cursor resume and failover.
// ---------------------------------------------------------------------

/// The failover runbook, end to end: a 3-node cluster (`--quorum 3`,
/// so commits need one follower ack besides the primary) survives a
/// follower kill -9 (restart resumes from its durable cursor, same
/// epoch, no resync), then a primary kill -9 (`cerfix promote` turns a
/// follower into a primary serving byte-identical `audit.read`, and the
/// surviving follower re-points at it via snapshot resync).
#[test]
fn three_node_cluster_survives_follower_and_primary_kills() {
    use cerfix_server::wire::Json;
    use cerfix_server::{Client, TcpTransport};
    use std::time::{Duration, Instant};

    fn caught_up(client: &mut Client<TcpTransport>, name: &str, epoch: u64) -> bool {
        let Ok(m) = client.metrics() else {
            return false;
        };
        let Some(f) = m.get("replication").and_then(|r| r.get(name)) else {
            return false;
        };
        f.get("epoch").and_then(Json::as_u64) == Some(epoch)
            && f.get("lag_events").and_then(Json::as_u64) == Some(0)
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
    fn commit_row(client: &mut Client<TcpTransport>, k: &str) -> u64 {
        let view = client
            .create_session(vec![Value::str(k), Value::str("X"), Value::str("note")])
            .unwrap();
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

    let dir = tmp_dir("cluster3");
    let (master, rules) = write_kill_fixture(&dir);
    let quorum = ["--quorum", "3", "--ack-timeout-ms", "8000"];

    let (mut primary, paddr) = spawn_serve(
        &dir.join("p"),
        &master,
        &rules,
        &[&quorum[..], &["--advertise", "primary"][..]].concat(),
    );
    let paddr_s = paddr.to_string();
    let follower_args = |name: &'static str, from: &str| {
        let mut v = vec!["--replicate-from".to_string(), from.to_string()];
        v.extend(quorum.iter().map(|s| s.to_string()));
        v.extend(["--advertise".to_string(), name.to_string()]);
        v
    };
    let spawn_follower = |dir: &Path, name: &'static str, from: &str| {
        let args = follower_args(name, from);
        let refs: Vec<&str> = args.iter().map(String::as_str).collect();
        spawn_serve(dir, &master, &rules, &refs)
    };
    let (mut f1, _) = spawn_follower(&dir.join("f1"), "f1", &paddr_s);
    let (f2, _f2addr) = spawn_follower(&dir.join("f2"), "f2", &paddr_s);

    let mut client = Client::connect(paddr).expect("connect primary");
    wait_for("both followers registered", || {
        caught_up(&mut client, "f1", 0) && caught_up(&mut client, "f2", 0)
    });

    // A quorum-acked base load, plus an open session for the failover.
    for i in 0..6 {
        commit_row(&mut client, &format!("k{i}"));
    }
    let open = client
        .create_session(vec![Value::str("k8"), Value::str("WRONG"), Value::str("n")])
        .unwrap();
    client
        .validate(open.session, vec![("key".into(), Value::str("k8"))])
        .unwrap();

    // kill -9 one follower: commits keep acking through the other.
    f1.kill().expect("kill -9 f1");
    let _ = f1.wait();
    for i in 0..5 {
        commit_row(&mut client, &format!("k{}", 10 + i));
    }

    // Restart it from the same data-dir: it must resume from its durable
    // cursor at the same epoch — a delta pull, not a full resync.
    let (mut f1, f1addr2) = spawn_follower(&dir.join("f1"), "f1", &paddr_s);
    wait_for("restarted f1 catches up from its cursor", || {
        caught_up(&mut client, "f1", 0)
    });
    let mut f1c = Client::connect(f1addr2).unwrap();
    assert_eq!(
        f1c.hello().unwrap().get("epoch").and_then(Json::as_u64),
        Some(0),
        "cursor resume must not bump the follower's epoch"
    );

    // kill -9 the primary and promote f1 — the runbook's failover step,
    // driven through the real `cerfix promote` CLI.
    let view_before = client.get_session(open.session).unwrap();
    let audit_before = client.audit_read_all(64).unwrap();
    assert!(!audit_before.is_empty());
    primary.kill().expect("kill -9 primary");
    let _ = primary.wait();
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_cerfix"))
        .args(["promote", "--addr", &f1addr2.to_string()])
        .output()
        .expect("run cerfix promote");
    assert!(out.status.success(), "promote failed: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("promoted to primary"), "{stdout}");
    assert_eq!(
        f1c.hello().unwrap().get("role").and_then(Json::as_str),
        Some("primary")
    );

    // The promoted follower serves byte-identical audit.read and the
    // open session byte-identically.
    let audit_after = f1c.audit_read_all(64).unwrap();
    assert_eq!(audit_after, audit_before);
    let after = f1c
        .get_session(open.session)
        .expect("open session survived");
    assert_eq!(after.tuple, view_before.tuple);
    assert_eq!(after.rounds, view_before.rounds);
    assert_eq!(after.validated, view_before.validated);

    // Re-point the surviving follower at the new primary (its cursor is
    // from the old epoch, so it resyncs from the promote snapshot), and
    // the cluster takes quorum-acked commits again.
    let mut f2 = f2;
    f2.kill().expect("stop f2 for re-pointing");
    let _ = f2.wait();
    let f1addr2_s = f1addr2.to_string();
    let (mut f2, f2addr2) = spawn_follower(&dir.join("f2"), "f2", &f1addr2_s);
    let promoted_epoch = f1c
        .hello()
        .unwrap()
        .get("epoch")
        .and_then(Json::as_u64)
        .unwrap();
    assert!(promoted_epoch >= 1, "promotion bumps the epoch");
    wait_for("f2 re-points at the promoted primary", || {
        caught_up(&mut f1c, "f2", promoted_epoch)
    });
    let mut f2c = Client::connect(f2addr2).unwrap();
    assert_eq!(
        f2c.hello().unwrap().get("epoch").and_then(Json::as_u64),
        Some(promoted_epoch)
    );
    commit_row(&mut f1c, "k15");
    let finished = f1c
        .validate(open.session, vec![("note".into(), Value::str("n"))])
        .unwrap();
    assert!(finished.is_complete());
    f1c.commit(open.session).unwrap();

    let _ = f2c.shutdown();
    let _ = f2.wait();
    let _ = f1c.shutdown();
    let _ = f1.wait();
    cleanup(&dir);
}
