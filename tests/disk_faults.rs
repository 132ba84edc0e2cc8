//! Disk-fault harness for `cerfix-storage` + `cerfix-server`.
//!
//! The fault-tolerance claim under test: no schedule of injected disk
//! faults — ENOSPC, EIO on fsync, torn writes, bit flips — produces a
//! wrongly-recovered state or an acked-but-lost commit. The node either
//! recovers to a clean prefix of the oracle event sequence, refuses
//! with a typed `Corrupt{file, offset}` error, degrades to read-only
//! with the cause visible, or (as a follower) auto-repairs by snapshot
//! re-sync from its primary. Five angles:
//!
//! 1. **Snapshot bit-flip sweep**: every single-byte flip anywhere in
//!    `snapshot.bin` must be caught by the full-file CRC trailer as a
//!    typed corruption naming the snapshot — never a silently different
//!    recovered state.
//! 2. **Journal bit-flip sweep**: every flip either recovers a clean
//!    prefix of the oracle sequence (tears and header-epoch damage are
//!    survivable) or refuses with a typed corruption naming the
//!    journal; a tolerant (follower) scan additionally keeps the clean
//!    prefix so re-sync can repair the rest.
//! 3. **Fault-schedule proptest**: random ENOSPC/EIO/torn-write
//!    schedules during a commit burst never ack a commit whose frame
//!    does not survive crash + reopen, and never ack anything after the
//!    journal poisons.
//! 4. **Service degradation**: ENOSPC (and the `--min-free-bytes`
//!    watermark) flips the service read-only with `degraded: disk_full`,
//!    reads keep serving, and recovery is automatic when space returns;
//!    a failed fsync poisons the journal with `storage_error` instead.
//! 5. **Follower self-repair**: a poisoned follower journal triggers a
//!    forced snapshot re-sync from the primary and tailing resumes.

use cerfix::MasterData;
use cerfix_relation::{RelationBuilder, Schema, Value};
use cerfix_rules::{EditingRule, PatternTuple, RuleSet};
use cerfix_server::wire::Json;
use cerfix_server::{
    CleaningService, Client, ErrorCode, LocalClient, Server, ServiceConfig, StorageConfig,
};
use cerfix_storage::{
    FaultFs, FaultPlan, JournalEvent, ScanMode, SnapshotData, Storage, StorageError, SyncError,
    JOURNAL_FILE, SNAPSHOT_FILE,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cerfix-diskfault-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Storage with background policies (snapshots) disabled so every
/// durability point in a test is an explicit sync.
fn quiet_storage(dir: &Path) -> StorageConfig {
    let mut cfg = StorageConfig::new(dir);
    cfg.flush_interval = Duration::from_millis(1);
    cfg.snapshot_interval = Duration::from_secs(3600);
    cfg.snapshot_every_events = u64::MAX;
    cfg
}

/// `quiet_storage` routed through a fault-injecting filesystem.
fn fault_storage(dir: &Path, fault: &FaultFs) -> StorageConfig {
    let mut cfg = quiet_storage(dir);
    cfg.fs = Arc::new(fault.clone());
    cfg
}

/// A distinctive journal event per index, so prefix checks are exact.
fn ev(session: u64) -> JournalEvent {
    JournalEvent::SessionCreated {
        session,
        values: vec![
            Value::str(format!("cell-{session}")),
            Value::Int(session as i64),
        ],
    }
}

/// key → val master data and rule set for a lookup service (the same
/// shape the server crate's unit tests use).
fn kv_fixture() -> (Arc<MasterData>, Arc<RuleSet>) {
    let input = Schema::of_strings("in", ["key", "val", "note"]).unwrap();
    let ms = Schema::of_strings("m", ["key", "val"]).unwrap();
    let mut builder = RelationBuilder::new(ms.clone());
    for i in 0..20 {
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

fn kv_service(fault: &FaultFs, dir: &Path, config: ServiceConfig) -> CleaningService {
    let (master, rules) = kv_fixture();
    CleaningService::with_storage(master, rules, config, fault_storage(dir, fault))
        .expect("open storage")
}

fn wait_for(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

// ---------------------------------------------------------------------
// 1. Snapshot bit-flip sweep.
// ---------------------------------------------------------------------

#[test]
fn snapshot_bitflip_sweep_is_always_typed_corruption() {
    let dir = tmp_dir("snap-flip");
    {
        let (storage, _) = Storage::open(quiet_storage(&dir)).unwrap();
        let last = (1..=4).fold(0, |_, i| storage.append(&ev(i)));
        storage.sync(last).unwrap();
        storage
            .install_snapshot(&SnapshotData {
                epoch: 1,
                fingerprint: 0x5EED,
                rules_dsl: "er kv: match key=key fix val:=val when ()".into(),
                next_session_id: 5,
                master_appended: vec![vec![Value::str("k-extra"), Value::str("v-extra")]],
                sessions: vec![],
            })
            .unwrap();
    }
    let path = dir.join(SNAPSHOT_FILE);
    let pristine = std::fs::read(&path).unwrap();
    assert!(pristine.len() > 32, "fixture snapshot too small to sweep");
    // Every region of the file: header, payload, and the CRC trailer
    // itself.
    let step = (pristine.len() / 48).max(1);
    for at in (0..pristine.len()).step_by(step) {
        let mut flipped = pristine.clone();
        flipped[at] ^= 0x10;
        std::fs::write(&path, &flipped).unwrap();
        match Storage::open(quiet_storage(&dir)) {
            Err(StorageError::Corrupt { file, .. }) => assert!(
                file.ends_with(SNAPSHOT_FILE),
                "flip @ {at}: corruption must name the snapshot, got {file}"
            ),
            Ok(_) => panic!("flip @ {at}: recovery accepted a corrupt snapshot"),
            Err(StorageError::Io(e)) => {
                panic!("flip @ {at}: untyped I/O error instead of Corrupt: {e}")
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// 2. Journal bit-flip sweep.
// ---------------------------------------------------------------------

#[test]
fn journal_bitflip_sweep_never_recovers_wrong_state() {
    let dir = tmp_dir("journal-flip");
    let oracle: Vec<JournalEvent> = (1..=8).map(ev).collect();
    {
        let (storage, _) = Storage::open(quiet_storage(&dir)).unwrap();
        let last = oracle.iter().fold(0, |_, event| storage.append(event));
        storage.sync(last).unwrap();
    }
    let path = dir.join(JOURNAL_FILE);
    let pristine = std::fs::read(&path).unwrap();
    let step = (pristine.len() / 96).max(1);
    let assert_prefix = |events: &[JournalEvent], context: &str| {
        assert!(
            events.len() <= oracle.len() && events == &oracle[..events.len()],
            "{context}: recovered events are not a clean prefix of the oracle: {events:?}"
        );
    };
    for at in (0..pristine.len()).step_by(step) {
        let mut flipped = pristine.clone();
        flipped[at] ^= 0x10;

        // Strict (primary) recovery: a clean prefix or a typed refusal.
        std::fs::write(&path, &flipped).unwrap();
        match Storage::open(quiet_storage(&dir)) {
            Ok((_, recovered)) => assert_prefix(&recovered.events, &format!("strict, flip @ {at}")),
            Err(StorageError::Corrupt { file, .. }) => assert!(
                file.ends_with(JOURNAL_FILE),
                "flip @ {at}: corruption must name the journal, got {file}"
            ),
            Err(StorageError::Io(e)) => {
                panic!("flip @ {at}: untyped I/O error instead of Corrupt: {e}")
            }
        }

        // Tolerant (follower) recovery: keeps the clean prefix so the
        // re-sync path can repair the rest. (A flipped format-version
        // field is the one damage even a follower refuses locally.)
        std::fs::write(&path, &flipped).unwrap();
        let mut cfg = quiet_storage(&dir);
        cfg.scan_mode = ScanMode::Tolerant;
        match Storage::open(cfg) {
            Ok((_, recovered)) => {
                assert_prefix(&recovered.events, &format!("tolerant, flip @ {at}"))
            }
            Err(StorageError::Corrupt { .. }) => assert!(
                (4..8).contains(&at),
                "tolerant open refused a flip @ {at} outside the version field"
            ),
            Err(StorageError::Io(e)) => {
                panic!("tolerant, flip @ {at}: untyped I/O error: {e}")
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// 3. Fault-schedule proptest.
// ---------------------------------------------------------------------

use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random ENOSPC/EIO/torn-write schedules over a commit burst: an
    /// acked sync is a durable frame (it survives the worst legal crash
    /// and a strict reopen), a poisoned journal never acks again, and
    /// recovery is always a clean prefix of what was appended.
    #[test]
    fn fault_schedules_never_lose_acked_commits(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let plan = FaultPlan {
            capacity_bytes: rng.gen_bool(0.5).then(|| rng.gen_range(200..2500)),
            fail_fsync_at: rng.gen_bool(0.5).then(|| rng.gen_range(2..20)),
            torn_write_at: rng.gen_bool(0.4).then(|| rng.gen_range(2..25)),
            // Silent media corruption is the bit-flip sweeps' domain:
            // it is indistinguishable from success at write time, so it
            // cannot gate an ack.
            bitflip_write_at: None,
            drop_renames: false,
        };
        let dir = tmp_dir(&format!("sched-{seed}"));
        let fault = FaultFs::new(plan);
        let events: Vec<JournalEvent> = (1..=24).map(ev).collect();
        let mut acked = 0u64;
        let mut poisoned = false;
        match Storage::open(fault_storage(&dir, &fault)) {
            Ok((storage, _)) => {
                for event in &events {
                    let seq = storage.append(event);
                    match storage.sync(seq) {
                        Ok(()) => {
                            prop_assert!(!poisoned, "seed {seed}: ack after poison");
                            acked = seq;
                        }
                        Err(SyncError::Poisoned { .. }) => {
                            poisoned = true;
                            prop_assert!(
                                storage.journal().poisoned().is_some(),
                                "seed {seed}: Poisoned sync without the poisoned flag"
                            );
                        }
                        // Retryable: the frames went back to pending,
                        // and this commit was not acked.
                        Err(SyncError::WriteFailed { .. }) => {}
                        Err(SyncError::Stopped) => {
                            prop_assert!(false, "seed {seed}: journal stopped mid-burst")
                        }
                    }
                }
                // The worst legal crash: every file rolls back to its
                // last fsync'd length, the page cache is gone. The
                // simulation's own bookkeeping fsync may soak up a
                // still-armed injected fault — that is outside the
                // fault model (the truncation itself is unfaulted).
                let _ = storage.simulate_crash();
            }
            // The schedule hit open itself (e.g. the header fsync):
            // nothing was acked, so there is nothing to lose.
            Err(StorageError::Io(_)) => {}
            Err(e @ StorageError::Corrupt { .. }) => {
                prop_assert!(false, "seed {seed}: fresh directory scanned corrupt: {e}")
            }
        }
        // Strict reopen on a clean filesystem: no injected fault may
        // have manufactured corruption, and every acked commit replays.
        let (_, recovered) = Storage::open(quiet_storage(&dir)).unwrap();
        prop_assert!(
            recovered.events.len() as u64 >= acked,
            "seed {seed}: acked seq {acked} but only {} events survived",
            recovered.events.len()
        );
        prop_assert_eq!(
            &recovered.events[..],
            &events[..recovered.events.len()],
            "seed {seed}: recovered events diverge from the appended order"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

// ---------------------------------------------------------------------
// 4. Service-level degradation and poisoning.
// ---------------------------------------------------------------------

#[test]
fn enospc_degrades_to_read_only_and_recovers_when_space_returns() {
    let dir = tmp_dir("degrade-enospc");
    let fault = FaultFs::new(FaultPlan {
        capacity_bytes: Some(6_000),
        ..FaultPlan::default()
    });
    let service = kv_service(
        &fault,
        &dir,
        ServiceConfig {
            workers: 2,
            precompute_regions: false,
            ..ServiceConfig::default()
        },
    );
    let mut client = LocalClient::in_process(&service);

    // `master.append` acks only after its journal frame fsyncs, so it
    // is the mutation that feels the disk fill first.
    let mut refused = None;
    for i in 0..400 {
        match client.master_append(vec![vec![Value::str(format!("fill{i}")), Value::str("v")]]) {
            Ok(_) => {}
            Err(e) => {
                refused = Some(e);
                break;
            }
        }
    }
    let refused = refused.expect("a 6000-byte budget must fill within 400 appends");
    assert_eq!(
        refused.code(),
        Some(ErrorCode::StorageError),
        "ENOSPC ack must be the applied-but-not-durable error: {refused}"
    );
    assert!(service.is_degraded(), "ENOSPC must flip the degraded latch");

    // Reads keep serving; mutations are refused with the cause.
    client.metrics().expect("reads must survive degradation");
    let denied = client
        .master_append(vec![vec![Value::str("k-denied"), Value::str("v")]])
        .unwrap_err();
    assert_eq!(
        denied.code(),
        Some(ErrorCode::Degraded),
        "degraded mutations must name the cause: {denied}"
    );

    // The operator frees disk space; the housekeeper sweep notices once
    // the journal's pending frames land again.
    fault.add_capacity(1 << 20);
    wait_for("degradation to clear after space returns", || {
        service.probe_storage();
        !service.is_degraded()
    });
    client
        .master_append(vec![vec![Value::str("k-after"), Value::str("v")]])
        .expect("writes must resume after recovery");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn free_space_watermark_degrades_before_the_disk_is_actually_full() {
    let dir = tmp_dir("degrade-watermark");
    let fault = FaultFs::new(FaultPlan {
        capacity_bytes: Some(8_192),
        ..FaultPlan::default()
    });
    let service = kv_service(
        &fault,
        &dir,
        ServiceConfig {
            workers: 2,
            precompute_regions: false,
            min_free_bytes: 4_096,
            ..ServiceConfig::default()
        },
    );
    let mut client = LocalClient::in_process(&service);

    service.probe_storage();
    assert!(
        !service.is_degraded(),
        "a fresh directory is far above the watermark"
    );

    // Fill until the probe sees free space under the watermark. Every
    // append still succeeds — the watermark fires while writes work.
    let mut tripped = false;
    for i in 0..200 {
        client
            .master_append(vec![vec![Value::str(format!("wm{i}")), Value::str("v")]])
            .expect("watermark degradation must trip before hard ENOSPC");
        service.probe_storage();
        if service.is_degraded() {
            tripped = true;
            break;
        }
    }
    assert!(tripped, "8192-byte budget never dipped under the watermark");
    let denied = client
        .master_append(vec![vec![Value::str("k-denied"), Value::str("v")]])
        .unwrap_err();
    assert_eq!(denied.code(), Some(ErrorCode::Degraded), "{denied}");

    fault.add_capacity(1 << 20);
    wait_for("watermark degradation to clear", || {
        service.probe_storage();
        !service.is_degraded()
    });
    client
        .master_append(vec![vec![Value::str("k-after"), Value::str("v")]])
        .expect("writes must resume once free space exceeds the watermark");
    let _ = std::fs::remove_dir_all(&dir);
}

/// One number, one source: an audit-spill write failure shows in
/// `metrics`, `metrics.prom` and `CleaningService::metrics()` at once.
/// All three read the spill's own total; none reads a mirror that waits
/// for the housekeeper's `probe_storage` (never called here).
#[test]
fn audit_spill_write_errors_agree_across_every_exposition() {
    let dir = tmp_dir("spill-errors");
    let fault = FaultFs::new(FaultPlan::default());
    let (master, rules) = kv_fixture();
    let storage = fault_storage(&dir, &fault);
    let config = ServiceConfig {
        workers: 2,
        precompute_regions: false,
        ..ServiceConfig::default()
    };
    let service = CleaningService::with_storage(master, rules, config, storage).unwrap();
    let field = |op: &str, key: &str| {
        let reply = service.handle_line(&format!("{{\"op\":\"{op}\"}}"));
        Json::parse(reply.trim()).unwrap().get(key).cloned()
    };
    let json_errors = || field("metrics", "audit_spill_errors").and_then(|v| v.as_u64());

    // Disk full. A batch clean journals nothing, so the only write the
    // next flush cycles attempt is the spill's, and it fails.
    let written = fault.bytes_written();
    fault.update_plan(|plan| plan.capacity_bytes = Some(written));
    let tuples: Vec<Vec<Value>> = (0..4)
        .map(|i| {
            vec![
                Value::str(format!("k{i}")),
                Value::str("?"),
                Value::str("n"),
            ]
        })
        .collect();
    LocalClient::in_process(&service)
        .clean(tuples, vec!["key".into()])
        .expect("a clean needs no disk");
    wait_for("the spill flush to fail", || json_errors() > Some(0));
    // Space returns so the retry can land and the total stop moving.
    fault.add_capacity(1 << 20);
    // The total is monotonic: two equal `metrics` reads bracket the
    // other two expositions exactly, however the flusher is scheduled.
    let (errors, snapshot, prom) = loop {
        let before = json_errors().unwrap();
        let snapshot = service.metrics().audit_spill_errors;
        let prom = field("metrics.prom", "body").unwrap();
        if json_errors() == Some(before) {
            break (before, snapshot, prom);
        }
    };
    assert_eq!(snapshot, errors);
    let line = format!("cerfix_audit_spill_write_errors_total {errors}");
    assert!(
        prom.as_str().unwrap().lines().any(|l| l == line),
        "metrics.prom disagrees with metrics: want `{line}`"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A failed spill fsync poisons the spill, as one poisons the journal,
/// and nothing else: the spill's durable length freezes, no byte more
/// reaches `audit.seg`, later records are refused, `audit.read` keeps
/// warning that the archive is incomplete, commits are still acked, and
/// a snapshot — the journal's one truncation — still installs.
#[test]
fn a_failed_spill_fsync_poisons_the_spill_and_nothing_else() {
    let dir = tmp_dir("spill-poison");
    let fault = FaultFs::new(FaultPlan::default());
    let config = ServiceConfig {
        workers: 2,
        precompute_regions: false,
        ..ServiceConfig::default()
    };
    let service = kv_service(&fault, &dir, config);
    let mut client = LocalClient::in_process(&service);
    let mut clean = |from: usize| {
        let tuples = (from..from + 4)
            .map(|i| {
                vec![
                    Value::str(format!("k{i}")),
                    Value::str("?"),
                    Value::str("n"),
                ]
            })
            .collect();
        client
            .clean(tuples, vec!["key".into()])
            .expect("a clean needs no disk");
    };
    let request = |line: &str| Json::parse(service.handle_line(line).trim()).unwrap();
    // Online scrub reads the segment up to the spill's durable length.
    let durable_records = || {
        let scrub = request(r#"{"op":"scrub"}"#);
        scrub.get("audit_records").and_then(Json::as_u64).unwrap()
    };
    let records = || service.audit().len() as u64;
    let segment = dir.join("audit.seg");
    let segment_len = || std::fs::metadata(&segment).unwrap().len();

    clean(0);
    wait_for("the first records to be durable", || {
        durable_records() == records()
    });
    let durable = durable_records();
    // A batch clean journals nothing, so the next fsync is the spill's.
    fault.update_plan(|plan| plan.fail_fsync_at = Some(fault.fsyncs() + 1));
    clean(4);
    let errors = || {
        let metrics = request(r#"{"op":"metrics"}"#);
        metrics.get("audit_spill_errors").and_then(Json::as_u64)
    };
    wait_for("the spill's fsync to fail", || errors() == Some(1));
    let (total, written) = (records(), segment_len());
    assert!(total > durable, "the failed batch stays readable");

    clean(8);
    assert_eq!(records(), total, "a poisoned spill refuses records");
    let session =
        client.create_session(vec![Value::str("k1"), Value::str("WRONG"), Value::str("n")]);
    client
        .commit(session.unwrap().session)
        .expect("a spill failure never fails a commit");
    assert!(
        service
            .snapshot_now()
            .expect("a poisoned spill blocks no snapshot"),
        "the snapshot was taken"
    );
    assert_eq!(durable_records(), durable, "the durable length moved");
    assert_eq!(segment_len(), written, "bytes reached the segment");
    assert_eq!(errors(), Some(1), "a poisoned spill retries nothing");
    let page = request(r#"{"op":"audit.read","start":0,"count":64}"#);
    assert_eq!(page.get("truncated").and_then(Json::as_bool), Some(true));
    let warning = page.get("warning").and_then(Json::as_str).unwrap();
    assert!(warning.contains("audit spill poisoned"), "{warning}");
    let served = page.get("records").and_then(Json::as_arr).unwrap().len();
    assert_eq!(served as u64, total, "every record stays readable");
    drop(client);
    drop(service);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fsync_failure_poisons_the_journal_and_refuses_mutations() {
    let dir = tmp_dir("poison");
    let fault = FaultFs::new(FaultPlan::default());
    let service = kv_service(
        &fault,
        &dir,
        ServiceConfig {
            workers: 2,
            precompute_regions: false,
            ..ServiceConfig::default()
        },
    );
    let mut client = LocalClient::in_process(&service);
    client
        .master_append(vec![vec![Value::str("k-before"), Value::str("v")]])
        .expect("baseline append");

    // Arm the next fsync anywhere in the data dir to fail — fsyncgate.
    fault.update_plan(|plan| plan.fail_fsync_at = Some(fault.fsyncs() + 1));
    let err = client
        .master_append(vec![vec![Value::str("k-poison"), Value::str("v")]])
        .unwrap_err();
    assert!(
        err.code() == Some(ErrorCode::StorageError) && err.to_string().contains("poisoned"),
        "the ack must say the journal poisoned: {err}"
    );

    // Poisoned is permanent (no retry-and-pretend) and distinct from
    // disk-full degradation; reads keep serving.
    assert!(!service.is_degraded(), "poison is not the degraded latch");
    let refused = client
        .master_append(vec![vec![Value::str("k-refused"), Value::str("v")]])
        .unwrap_err();
    assert!(
        refused.code() == Some(ErrorCode::StorageError) && refused.to_string().contains("poisoned"),
        "later mutations must be refused up front: {refused}"
    );
    client
        .metrics()
        .expect("reads must survive a poisoned journal");
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// 5. Follower self-repair by snapshot re-sync.
// ---------------------------------------------------------------------

#[test]
fn follower_poisoned_journal_self_repairs_by_snapshot_resync() {
    let pdir = tmp_dir("resync-p");
    let fdir = tmp_dir("resync-f");
    let (master, rules) = kv_fixture();

    let primary = CleaningService::with_storage(
        Arc::clone(&master),
        Arc::clone(&rules),
        ServiceConfig {
            workers: 2,
            precompute_regions: false,
            advertise: Some("primary".into()),
            ..ServiceConfig::default()
        },
        quiet_storage(&pdir),
    )
    .unwrap();
    let server = Server::bind("127.0.0.1:0", primary).unwrap();
    let paddr = server.local_addr().unwrap();
    let server_thread = std::thread::spawn(move || {
        let _ = server.run();
    });

    let follower_fault = FaultFs::new(FaultPlan::default());
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
        fault_storage(&fdir, &follower_fault),
    )
    .unwrap();
    let mut fclient = LocalClient::in_process(&follower);

    // A durable session on the primary reaches the follower's tail.
    let mut pclient = Client::connect(paddr).unwrap();
    let before = pclient
        .create_session(vec![Value::str("k1"), Value::str("WRONG"), Value::str("n")])
        .unwrap();
    pclient
        .master_append(vec![vec![Value::str("k-barrier1"), Value::str("v")]])
        .unwrap();
    wait_for("follower to tail the first session", || {
        fclient.get_session(before.session).is_ok()
    });

    // Poison the follower's journal: the next fsync in its data dir —
    // the one carrying the next applied batch — fails.
    follower_fault.update_plan(|plan| plan.fail_fsync_at = Some(follower_fault.fsyncs() + 1));
    let after = pclient
        .create_session(vec![Value::str("k2"), Value::str("WRONG"), Value::str("n")])
        .unwrap();
    pclient
        .master_append(vec![vec![Value::str("k-barrier2"), Value::str("v")]])
        .unwrap();

    // The tail loop must hit the poison, request a forced snapshot
    // re-sync, install it (which rebuilds — and thereby un-poisons —
    // the journal), and resume tailing the new session.
    wait_for("follower to self-repair and catch up", || {
        fclient.get_session(after.session).is_ok() && !follower.is_poisoned_journal()
    });
    assert!(
        fclient.get_session(before.session).is_ok(),
        "pre-poison state must survive the re-sync"
    );

    let _ = pclient.shutdown();
    let _ = server_thread.join();
    let _ = std::fs::remove_dir_all(&pdir);
    let _ = std::fs::remove_dir_all(&fdir);
}
