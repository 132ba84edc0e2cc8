use super::*;
use crate::alloc_count::allocations_in;
use crate::protocol::{scan_line, Request};
use crate::tests::{data_dir, kv_service_journaled};
use cerfix_relation::Value;
use cerfix_storage::JournalEvent;

fn hex_decode(hex: &str) -> Option<Vec<u8>> {
    let mut frames = ReceivedFrames::default();
    frames.push_hex(Some(hex)).then(|| frames.bytes.clone())
}

#[test]
fn hex_round_trips() {
    let bytes: Vec<u8> = (0u16..=255).map(|b| b as u8).collect();
    let mut hex = String::new();
    push_hex(&bytes, &mut hex);
    assert_eq!(hex.len(), 512);
    assert_eq!(hex_decode(&hex).as_deref(), Some(bytes.as_slice()));
    assert_eq!(hex_decode(""), Some(Vec::new()));
    assert_eq!(hex_decode("DEADbeef"), Some(vec![0xde, 0xad, 0xbe, 0xef]));
}

#[test]
fn hex_rejects_torn_and_garbage() {
    assert_eq!(hex_decode("abc"), None); // odd length
    assert_eq!(hex_decode("zz"), None); // not hex
    assert_eq!(hex_decode("0g"), None);
    // A torn frame leaves the ones before it as they were.
    let mut frames = ReceivedFrames::default();
    assert!(frames.push_hex(Some("0102")) && !frames.push_hex(Some("03f")));
    assert!(!frames.push_hex(Some("04")), "nothing after a torn frame");
    assert_eq!(frames.payloads().collect::<Vec<_>>(), [&[1u8, 2][..]]);
    assert!(!frames.is_empty() && frames.events().is_none());
    frames.clear();
    assert!(frames.is_empty() && !frames.push_hex(None) && !frames.is_empty());
}

/// `payloads` hex-encoded and received one frame after another, as
/// `SyncReply::scan` receives a reply's.
fn received(payloads: &[Vec<u8>]) -> ReceivedFrames {
    let (mut frames, mut hex) = (ReceivedFrames::default(), String::new());
    for payload in payloads {
        hex.clear();
        push_hex(payload, &mut hex);
        assert!(frames.push_hex(Some(&hex)));
    }
    frames
}

/// One turn of the tail loop, the socket, the journal and the sessions
/// left out: the request is rendered into a reused line, the reply read
/// without a tree, its frames hex-decoded into one reused buffer and
/// checked whole, and each event read in place into what the replay
/// keeps of it — a created session's row, built in the `Vec` its tuple
/// holds, and a validation's values, in the buffer they are applied
/// from. Exactly that is allocated: the row and the one string too long
/// to be held in its cell. No event and no batch of them is built.
#[test]
fn a_tail_turn_allocates_only_the_events_it_decodes() {
    const LONG: &str = "a value of more than 22 bytes";
    let events = [
        JournalEvent::SessionCreated {
            session: 7,
            values: vec![Value::str("k1"), Value::str("WRONG"), Value::Null],
        },
        JournalEvent::SessionValidated {
            session: 7,
            validations: vec![
                (0, Value::str("k1")),
                (1, Value::str(LONG)),
                (2, Value::Int(3)),
            ],
        },
        JournalEvent::SessionCommitted { session: 7 },
    ];
    let mut reply = String::from(r#"{"ok":true,"epoch":2,"from":40,"durable":43,"events":["#);
    for event in &events {
        reply.push_str(if reply.ends_with('[') { "\"" } else { ",\"" });
        push_hex(&event.encode(), &mut reply);
        reply.push('"');
    }
    reply.push_str("]}\n");

    let (mut line, mut frames) = (String::new(), ReceivedFrames::default());
    let (mut row, mut validated) = (None, Vec::new());
    let mut turn = || {
        line.clear();
        write_sync_request(&mut line, "f1", (2, 40), false);
        let read = SyncReply::scan(&reply, &mut frames).expect("a reply");
        assert_eq!((read.from, read.epoch, read.durable), (Some(40), 2, 43));
        assert!(read.snapshot.is_none());
        for event in frames.events().expect("three whole events") {
            match event {
                EventView::SessionCreated { values, .. } => row = Some(values.to_vec()),
                EventView::SessionValidated { validations, .. } => {
                    validated.clear();
                    validated.extend(validations.iter().map(|(attr, v)| (attr as usize, v)));
                }
                _ => {}
            }
        }
    };
    // The first turn sizes the reused buffers.
    turn();
    let whole = allocations_in(&mut turn);
    // "k1" and "WRONG" in the row and "k1" in the validation live in
    // their cells; `LONG` is shared.
    assert_eq!(whole, 2, "one row `Vec` and one long string");
    let request = Request::ReplicaSync {
        follower: "f1".into(),
        epoch: 2,
        offset: 40,
        max: Some(TAIL_BATCH),
        resync: false,
        wait_ms: Some(SYNC_HOLD.as_millis() as u64),
    };
    assert_eq!(line, request.to_json().render());
    assert_eq!(
        row.as_deref(),
        Some(&[Value::str("k1"), Value::str("WRONG"), Value::Null][..])
    );
    assert_eq!(
        validated,
        [
            (0, Value::str("k1")),
            (1, Value::str(LONG)),
            (2, Value::Int(3))
        ]
    );

    // A forced re-sync says so; a torn frame stops the read there.
    line.clear();
    write_sync_request(&mut line, "f1", (2, 40), true);
    assert!(
        line.contains(r#""max":512,"resync":true,"wait_ms":500}"#),
        "{line}"
    );
    let torn = reply.replace("\"]}", "0\"]}");
    SyncReply::scan(&torn, &mut frames).expect("well-formed JSON");
    assert!(frames.torn && frames.events().is_none());
    assert_eq!(frames.payloads().count(), 2, "the whole frames before it");
    assert!(SyncReply::scan(&reply[..reply.len() - 3], &mut frames).is_none());
}

/// The follower reads a batch in place exactly as the owned decoder
/// reads it. Two 4-frame batches, every event kind between them; with
/// any one byte of any payload flipped, or any payload cut short at any
/// length, the batch is handed on iff every payload decodes — one that
/// does not holds back the frames before it too — and each event read
/// in place is the one `JournalEvent::decode` returns.
#[test]
fn a_batch_is_read_in_place_as_the_owned_decoder_reads_it() {
    let batches = [
        vec![
            JournalEvent::SessionCreated {
                session: 3,
                values: vec![
                    Value::str("Edi"),
                    Value::Null,
                    Value::Int(-7),
                    Value::Float(2.5),
                    Value::Bool(true),
                    Value::str(""),
                ],
            },
            JournalEvent::SessionValidated {
                session: 3,
                validations: vec![(1, Value::str("Mark")), (4, Value::Float(0.5))],
            },
            JournalEvent::SessionCommitted { session: 3 },
            JournalEvent::SessionAborted { session: 4 },
        ],
        vec![
            JournalEvent::SessionsEvicted {
                sessions: vec![5, 6],
            },
            JournalEvent::RulesReloaded {
                dsl: "er kv: match key=key fix val:=val when ()".into(),
                fingerprint: 0xFEED,
            },
            JournalEvent::MasterAppended {
                rows: vec![vec![Value::str("k9"), Value::str("v9")], vec![Value::Null]],
            },
            JournalEvent::ConfigSet {
                key: "slow_ms".into(),
                value: 250,
            },
        ],
    ];
    let agree = |payloads: &[Vec<u8>], case: &str| {
        let frames = received(payloads);
        let oracle: Option<Vec<JournalEvent>> = payloads
            .iter()
            .map(|payload| JournalEvent::decode(payload).ok())
            .collect();
        let read = frames
            .events()
            .map(|events| events.map(|e| e.to_event()).collect());
        assert_eq!(read, oracle, "{case}");
        oracle.is_some()
    };
    let (mut accepted, mut refused) = (0, 0);
    for batch in &batches {
        let payloads: Vec<Vec<u8>> = batch.iter().map(JournalEvent::encode).collect();
        assert!(agree(&payloads, "the batch as sent"));
        for frame in 0..payloads.len() {
            for at in 0..payloads[frame].len() {
                let mut flipped = payloads.clone();
                flipped[frame][at] ^= 0xFF;
                let whole = agree(&flipped, &format!("frame {frame}, byte {at} flipped"));
                let mut cut = payloads.clone();
                cut[frame].truncate(at);
                assert!(!agree(&cut, &format!("frame {frame} cut at {at}")));
                (accepted, refused) = (accepted + whole as u32, refused + 2 - whole as u32);
            }
        }
    }
    assert!(accepted > 0 && refused > 0, "{accepted} / {refused}");
}

fn arrival<'l>(
    service: &CleaningService,
    line: &'l str,
    unescape: &'l mut String,
) -> Option<HeldSync<'l>> {
    service.sync_arrival(&scan_line(line), unescape)
}

/// A caught-up `replica.sync` that asks to wait is held, its cursor
/// recorded as the follower's ack on arrival; without `wait_ms`
/// (pre-v9), with a forced resync, or with something durable past
/// the cursor it is served at once.
#[test]
fn a_caught_up_sync_that_asks_to_wait_is_held() {
    let dir = data_dir("held-sync");
    let service = kv_service_journaled(&dir);
    let mut unescape = [String::new(), String::new()];
    let [kept, scratch] = &mut unescape;
    let sync = r#"{"op":"replica.sync","follower":"f","epoch":0,"offset":0"#;
    let waits = format!("{sync},\"wait_ms\":60000}}");
    let held_sync = arrival(&service, &waits, kept).expect("a caught-up sync is held");
    assert!(!service.hold_over(&held_sync));
    assert_eq!(service.follower_lags().len(), 1, "its cursor is an ack");
    for at_once in [
        format!("{sync}}}"),
        format!("{sync},\"wait_ms\":60000,\"resync\":true}}"),
    ] {
        assert!(arrival(&service, &at_once, scratch).is_none(), "{at_once}");
    }
    service.handle_line(r#"{"op":"config.set","key":"slow_ms","value":250}"#);
    assert!(service.hold_over(&held_sync), "a durable event ends it");
    assert!(arrival(&service, &waits, scratch).is_none());
    drop(service);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A warmed held sync allocates nothing on the primary, arrival to
/// reply, as the front end runs it: it borrows its line, waits on the
/// connection's `HoldWaiter` and is served from the connection's
/// `CursorRead` — whether its hold runs out (the heartbeat) or a durable
/// event ends it (a reply carrying that frame).
#[test]
fn a_warmed_held_sync_allocates_nothing() {
    const WARM: u64 = 2;
    const ROUNDS: u64 = WARM + 4;
    let dir = data_dir("held-sync-allocs");
    let service = kv_service_journaled(&dir);
    let line = |offset: u64, wait_ms: u64| {
        format!(
            r#"{{"op":"replica.sync","follower":"f1","epoch":0,"offset":{offset},"wait_ms":{wait_ms},"id":"s{offset}"}}"#
        )
    };
    let heartbeats: Vec<String> = (0..ROUNDS).map(|offset| line(offset, 1)).collect();
    let released: Vec<String> = (0..ROUNDS).map(|offset| line(offset, 60_000)).collect();
    let (mut scratch, mut out) = (RequestScratch::default(), String::new());
    let commit = std::sync::Barrier::new(2);
    // The steps `net::respond_line` takes for a sync that is held; `ends`
    // runs once the sync has arrived and before it is waited out. Nothing
    // in here may panic: the committer would wait at the barrier forever.
    let hold = |line: &str, ends: &dyn Fn(), scratch: &mut RequestScratch, out: &mut String| {
        out.clear();
        let scanned = scan_line(line);
        let held = service.sync_arrival(&scanned, &mut scratch.unescape);
        ends();
        if let Some(held) = held {
            service.wait_out(&held, &mut scratch.hold);
            service.serve_held(held, out, &mut scratch.served);
        }
    };
    // Per round: the heartbeat's allocations, the released sync's, and
    // whether both were held and answered as they should be.
    let mut rounds = [(0, 0, false); ROUNDS as usize];
    std::thread::scope(|scope| {
        // Another connection's commit: one durable event per release.
        scope.spawn(|| {
            for _ in 0..ROUNDS {
                commit.wait();
                service.handle_line(r#"{"op":"config.set","key":"slow_ms","value":250}"#);
            }
        });
        let ends = || {
            commit.wait();
        };
        for (at, round) in rounds.iter_mut().enumerate() {
            let heartbeat =
                allocations_in(|| hold(&heartbeats[at], &|| {}, &mut scratch, &mut out));
            let beat = out.ends_with(r#""events":[]}"#);
            let release = allocations_in(|| hold(&released[at], &ends, &mut scratch, &mut out));
            let id = format!(r#"{{"id":"s{at}","ok":true"#);
            let frame = format!(r#""from":{at},"durable":{},"events":[""#, at + 1);
            *round = (
                heartbeat,
                release,
                beat && out.starts_with(&id) && out.contains(&frame),
            );
        }
    });
    for (at, &(heartbeat, release, answered)) in rounds.iter().enumerate() {
        assert!(answered, "round {at}: both syncs held and answered");
        if at as u64 >= WARM {
            assert_eq!((heartbeat, release), (0, 0), "round {at}");
        }
    }
    drop(service);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn quorum_is_majority_of_cluster() {
    let q = |n| ReplicationState::new(n, Duration::from_secs(1)).quorum();
    assert_eq!(q(1), 1); // local fsync only
    assert_eq!(q(2), 2); // primary + the follower
    assert_eq!(q(3), 2); // primary + 1 of 2 followers
    assert_eq!(q(4), 3);
    assert_eq!(q(5), 3);
}

#[test]
fn role_names() {
    assert_eq!(Role::Primary.name(), "primary");
    assert_eq!(
        Role::Follower {
            primary: "x:1".into()
        }
        .name(),
        "follower"
    );
}
