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
//! * **A batch applies whole or not at all.** A follower reads each frame
//!   in place and checks every one as a whole event before the first
//!   applies: a batch with one frame that is not an event is neither
//!   applied nor journaled, and the cursor stays where it was.

use cerfix::MasterData;
use cerfix_relation::{RelationBuilder, Schema, Value};
use cerfix_rules::{EditingRule, PatternTuple, RuleSet};
use cerfix_server::{CleaningService, Server, ServiceConfig, StorageConfig};
use cerfix_storage::JournalEvent;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

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

/// A stand-in primary serves a follower four frames whose third is a
/// whole hex string that is not an event — an unknown tag, a value cut
/// short, a string that is not UTF-8. Each time the follower applies
/// none of the four, journals none, and asks again from the cursor it
/// had. Served the four whole frames, it applies and journals them all
/// and asks from past them.
#[test]
fn a_batch_with_one_frame_that_is_not_an_event_applies_not_at_all() {
    let created = |session: u64, key: &str| JournalEvent::SessionCreated {
        session,
        values: vec![Value::str(key), Value::str("WRONG"), Value::str("n")],
    };
    let batch = [
        created(1, "k1"),
        JournalEvent::SessionValidated {
            session: 1,
            validations: vec![(0, Value::str("k1"))],
        },
        created(2, "k2"),
        JournalEvent::SessionCommitted { session: 1 },
    ]
    .map(|event| event.encode());
    let third = &batch[2];
    let not_utf8 = {
        let at = third.windows(2).position(|w| w == b"k2").unwrap();
        let mut payload = third.clone();
        payload[at..at + 2].copy_from_slice(&[0xFF, 0xFE]);
        payload
    };
    let not_events = [
        ("an unknown tag", [&[99u8][..], &third[1..]].concat()),
        ("a value cut short", third[..third.len() - 1].to_vec()),
        ("a string that is not UTF-8", not_utf8),
    ];
    for (what, payload) in &not_events {
        assert!(JournalEvent::decode(payload).is_err(), "{what}");
    }
    let reply = |payloads: &[&Vec<u8>]| {
        let hex: Vec<String> = payloads
            .iter()
            .map(|p| {
                format!(
                    "\"{}\"",
                    p.iter().map(|b| format!("{b:02x}")).collect::<String>()
                )
            })
            .collect();
        format!(
            r#"{{"ok":true,"epoch":0,"from":0,"durable":4,"events":[{}]}}"#,
            hex.join(",")
        ) + "\n"
    };

    let primary = TcpListener::bind("127.0.0.1:0").unwrap();
    let dir = tmp_dir("all-or-nothing");
    let follower = journaled(
        &dir,
        ServiceConfig {
            replicate_from: Some(primary.local_addr().unwrap().to_string()),
            advertise: Some("follower".into()),
            ..ServiceConfig::default()
        },
    );
    let journaled_events = || {
        cerfix_storage::scan_journal(&dir.join("journal.wal"))
            .unwrap()
            .events
            .len()
    };
    // The follower's next `replica.sync`, on whichever connection it
    // comes: a follower that drops a batch also redials.
    let mut link: Option<(BufReader<TcpStream>, TcpStream)> = None;
    // Bounded waits, so a follower that stops asking fails the test
    // rather than hanging it.
    let patience = Duration::from_secs(10);
    primary.set_nonblocking(true).unwrap();
    let accept = || {
        let deadline = Instant::now() + patience;
        loop {
            match primary.accept() {
                Ok((stream, _)) => {
                    stream.set_nonblocking(false).unwrap();
                    stream.set_read_timeout(Some(patience)).unwrap();
                    return (BufReader::new(stream.try_clone().unwrap()), stream);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock && Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(e) => panic!("the follower did not dial: {e}"),
            }
        }
    };
    let next_sync = |link: &mut Option<(BufReader<TcpStream>, TcpStream)>| loop {
        let (reader, _) = link.get_or_insert_with(accept);
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(n) if n > 0 => return line,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                panic!("no sync within {patience:?}")
            }
            _ => *link = None, // the follower hung up: it redials
        }
    };
    let cursor = |sync: &str| {
        assert!(sync.contains(r#""op":"replica.sync""#), "{sync}");
        assert!(sync.contains(r#""epoch":0,"#), "{sync}");
        sync.split(r#""offset":"#)
            .nth(1)
            .unwrap()
            .split(',')
            .next()
            .unwrap()
            .to_string()
    };
    let answer = |link: &mut Option<(BufReader<TcpStream>, TcpStream)>, payloads: &[&Vec<u8>]| {
        let (_, writer) = link.as_mut().expect("a sync to answer");
        writer.write_all(reply(payloads).as_bytes()).unwrap();
    };
    let sync = next_sync(&mut link);
    assert_eq!(cursor(&sync), "0");
    for (what, payload) in &not_events {
        answer(&mut link, &[&batch[0], &batch[1], payload, &batch[3]]);
        let sync = next_sync(&mut link);
        assert_eq!(cursor(&sync), "0", "the cursor stays after {what}");
        assert_eq!(follower.live_sessions(), 0, "nothing applied after {what}");
        assert_eq!(journaled_events(), 0, "nothing journaled after {what}");
    }
    answer(&mut link, &batch.iter().collect::<Vec<_>>());
    let sync = next_sync(&mut link);
    assert_eq!(
        cursor(&sync),
        "4",
        "the whole batch moves the cursor past it"
    );
    assert_eq!(
        follower.live_sessions(),
        1,
        "session 2 is open, 1 committed"
    );
    assert_eq!(journaled_events(), 4);
    follower.handle_line(r#"{"op":"shutdown"}"#);
    drop((link, follower));
    let _ = std::fs::remove_dir_all(&dir);
}
