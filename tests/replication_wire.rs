//! What crosses the replication hop, byte for byte.
//!
//! * **The `replica.sync` reply is pinned.** The primary serves journal
//!   frames as the bytes it journaled — one positioned read, CRC-checked,
//!   never decoded — and the line it writes must stay the line a
//!   decode-and-re-encode primary wrote: the goldens below were captured
//!   from the commit before frames were served raw (`ba0fc9e`), for the
//!   same journal and the same cursors (a whole tail, a heartbeat, `max`
//!   cutting mid-tail, a snapshot resync, the epoch after it).
//! * **The follower's journal is the primary's.** A follower journals the
//!   frame bytes it was sent, so after 200 replicated sessions the two
//!   `journal.wal` files are equal byte for byte.

use cerfix::MasterData;
use cerfix_relation::{RelationBuilder, Schema};
use cerfix_rules::{EditingRule, PatternTuple, RuleSet};
use cerfix_server::{CleaningService, Server, ServiceConfig, StorageConfig};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

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
    let dir = std::env::temp_dir().join(format!("cerfix-wire-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A journaled kv service that snapshots only when told to.
fn journaled(dir: &Path, config: ServiceConfig) -> CleaningService {
    let (master, rules) = kv_setup();
    let mut storage = StorageConfig::new(dir);
    storage.snapshot_interval = Duration::from_secs(3600);
    storage.snapshot_every_events = u64::MAX;
    let config = ServiceConfig {
        precompute_regions: false,
        ..config
    };
    CleaningService::with_storage(master, rules, config, storage).expect("open storage")
}

/// Create → validate → commit of one row, in process: three journal
/// events, durable when this returns (the commit waits for its fsync).
fn commit_one(service: &CleaningService, session: u64, key: &str) {
    let ok = |reply: String| assert!(reply.starts_with("{\"ok\":true"), "{reply}");
    ok(service.handle_line(&format!(
        r#"{{"op":"session.create","tuple":["{key}","WRONG","n"]}}"#
    )));
    ok(service.handle_line(&format!(
        r#"{{"op":"session.validate","session":{session},"validations":{{"key":"{key}","note":"n"}}}}"#
    )));
    ok(service.handle_line(&format!(r#"{{"op":"session.commit","session":{session}}}"#)));
}

#[test]
fn raw_served_sync_replies_are_the_lines_a_decoding_primary_wrote() {
    let dir = tmp_dir("golden");
    let service = journaled(&dir, ServiceConfig::default());
    commit_one(&service, 1, "k1");
    commit_one(&service, 2, "k2");
    let sync = |cursor: &str| {
        service.handle_line(&format!(
            r#"{{"op":"replica.sync","follower":"golden",{cursor}}}"#
        ))
    };
    let mut replies = vec![
        sync(r#""epoch":0,"offset":0"#),           // the whole tail
        sync(r#""epoch":0,"offset":6"#),           // caught up: the heartbeat
        sync(r#""epoch":0,"offset":2,"max":3"#),   // `max` cuts mid-tail
        sync(r#""epoch":0,"offset":5,"max":512"#), // the last frame alone
    ];
    // A session left open rides in the snapshot; the stale cursor gets
    // the snapshot and no events, the new epoch's cursor its one frame.
    let open = service.handle_line(r#"{"op":"session.create","tuple":["k3","WRONG","n"]}"#);
    assert!(open.contains("\"session\":3"), "{open}");
    service.snapshot_now().unwrap();
    commit_one(&service, 4, "k4");
    replies.push(sync(r#""epoch":0,"offset":6"#));
    replies.push(sync(r#""epoch":1,"offset":1,"max":1"#));
    for (reply, golden) in replies.iter().zip(GOLDEN) {
        assert_eq!(reply, golden);
    }
    assert_eq!(replies.len(), GOLDEN.len());
    drop(service);
    let _ = std::fs::remove_dir_all(&dir);
}

#[rustfmt::skip]
const GOLDEN: [&str; 6] = [
    "{\"ok\":true,\"epoch\":0,\"from\":0,\"durable\":6,\"events\":[\"0101000000000000000300000001020000006b31010500000057524f4e4701010000006e\",\"020100000000000000020000000000000001020000006b310200000001010000006e\",\"030100000000000000\",\"0102000000000000000300000001020000006b32010500000057524f4e4701010000006e\",\"020200000000000000020000000000000001020000006b320200000001010000006e\",\"030200000000000000\"]}",
    "{\"ok\":true,\"epoch\":0,\"from\":6,\"durable\":6,\"events\":[]}",
    "{\"ok\":true,\"epoch\":0,\"from\":2,\"durable\":6,\"events\":[\"030100000000000000\",\"0102000000000000000300000001020000006b32010500000057524f4e4701010000006e\",\"020200000000000000020000000000000001020000006b320200000001010000006e\"]}",
    "{\"ok\":true,\"epoch\":0,\"from\":5,\"durable\":6,\"events\":[\"030200000000000000\"]}",
    "{\"ok\":true,\"epoch\":1,\"from\":6,\"durable\":3,\"snapshot\":\"0100000000000000811f78f75a1b7319290000006572206b763a206d61746368206b65793d6b6579206669782076616c3a3d76616c207768656e202829040000000000000000000000010000000300000000000000030000000000000000000000000000000300000001020000006b33010500000057524f4e4701010000006e000000000000000000000000\",\"events\":[]}",
    "{\"ok\":true,\"epoch\":1,\"from\":1,\"durable\":3,\"events\":[\"020400000000000000020000000000000001020000006b340200000001010000006e\"]}",
];

#[test]
fn a_followers_journal_is_its_primarys_byte_for_byte() {
    const SESSIONS: u64 = 200;
    let dir = tmp_dir("mirror");
    let primary = journaled(
        &dir.join("primary"),
        ServiceConfig {
            cluster_size: 2,
            advertise: Some("primary".into()),
            ..ServiceConfig::default()
        },
    );
    let server = Server::spawn("127.0.0.1:0", primary.clone()).unwrap();
    let follower = journaled(
        &dir.join("follower"),
        ServiceConfig {
            replicate_from: Some(server.addr().to_string()),
            advertise: Some("follower".into()),
            ..ServiceConfig::default()
        },
    );
    // Quorum commits: each returns once the follower's fsynced cursor
    // covers it — after the last, that is every frame.
    for session in 1..=SESSIONS {
        commit_one(&primary, session, &format!("k{}", session % 20));
    }
    let wal = |node: &str| std::fs::read(dir.join(node).join("journal.wal")).unwrap();
    assert!(wal("primary") == wal("follower"), "the journals differ");
    let scan = cerfix_storage::scan_journal(&dir.join("follower").join("journal.wal")).unwrap();
    assert_eq!(scan.events.len() as u64, 3 * SESSIONS);
    server.shutdown().unwrap();
    drop((primary, follower));
    let _ = std::fs::remove_dir_all(&dir);
}
