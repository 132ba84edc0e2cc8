//! Quorum commits that lead their follower's round (`replication_faults`
//! section 6): the commit serves the held `replica.sync` and reads the
//! ack on its own thread, and what happens when the follower does not
//! answer, hangs up, does not read, or is one of two.

use super::hold_rig::{
    acking_follower, hold_rig, hold_rig_with, hold_storage, HoldRig, RawFollower, FOREVER_MS,
};
use super::{follower_stat, wait_for};
use cerfix_relation::Value;
use cerfix_server::{CleaningService, Client, ErrorCode, LocalClient, Request, ServiceConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Wait until `follower`'s sync is held with its connection parked, free
/// for a commit to claim. The cursor is recorded on arrival, a moment
/// before the connection parks; a commit in that moment finds no hold to
/// claim, and the connection's own thread serves the sync instead.
fn wait_parked(rig: &HoldRig, follower: &str) {
    wait_for("held", || rig.registered(follower));
    std::thread::sleep(Duration::from_millis(50));
}

/// Two connections commit at once against one real follower: one
/// commit leads the round, the other waits for the ack as before (or
/// leads the next), every commit acks, and the follower never redials.
#[test]
fn concurrent_quorum_commits_share_the_followers_connection() {
    const N: usize = 20;
    let rig = hold_rig("concurrent", 2, 2);
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
    let dialed = rig.primary.metrics().connections_total;
    let committers: Vec<_> = (0..2)
        .map(|_| {
            let (addr, tuple) = (rig.addr, rig.tuple.clone());
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for _ in 0..N {
                    let view = client.create_session(tuple.clone()).unwrap();
                    client.commit(view.session).expect("quorum-acked commit");
                }
            })
        })
        .collect();
    for committer in committers {
        committer.join().unwrap();
    }
    let metrics = rig.primary.metrics();
    assert_eq!(metrics.quorum_timeouts, 0);
    assert_eq!(
        metrics.connections_total,
        dialed + 2,
        "the committers' two connections; the follower never redialed"
    );
    assert!(rig.syncs_led() > 0, "some commit led its round");
    follower.handle(&Request::Shutdown);
    drop(follower);
    rig.stop();
}

/// A follower that stops answering while a commit leads its round: the
/// commit answers `quorum_timeout` at `ack_timeout`, the connection goes
/// back to its own thread, and the follower's next sync is served there.
#[test]
fn a_follower_silent_in_a_led_round_times_the_commit_out() {
    let ack_timeout = Duration::from_millis(300);
    let rig = hold_rig_with("silent", 2, 2, ack_timeout);
    let mut conn = RawFollower::connect(rig.addr);
    conn.sync("mute", (0, 0), Some(FOREVER_MS));
    wait_parked(&rig, "mute");
    let mut client = LocalClient::in_process(&rig.primary);
    let view = client.create_session(rig.tuple.clone()).unwrap();
    let asked = Instant::now();
    let err = client.commit(view.session).unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::QuorumTimeout), "{err}");
    assert!(asked.elapsed() >= ack_timeout, "timed out at ack_timeout");
    // The led round served the held sync with the commit's events.
    assert_eq!(RawFollower::events(&conn.reply().unwrap()), 2);
    assert_eq!((rig.syncs_answered(), rig.syncs_led()), (1, 1));
    // The follower speaks again: its connection's thread answers.
    conn.sync("mute", (0, 2), None);
    assert_eq!(RawFollower::events(&conn.reply().unwrap()), 0);
    assert_eq!((rig.syncs_answered(), rig.syncs_led()), (2, 1));
    assert_eq!(rig.primary.metrics().quorum_timeouts, 1);
    rig.stop();
}

/// A follower that hangs up while a commit leads its round gives its
/// connection back: the commit times out, and `connections_open`
/// returns to what it was before the follower came.
#[test]
fn a_follower_that_hangs_up_on_a_led_round_closes_its_connection() {
    let rig = hold_rig_with("hang-up", 2, 2, Duration::from_millis(300));
    let before = rig.primary.metrics().connections_open;
    let mut conn = RawFollower::connect(rig.addr);
    conn.sync("gone", (0, 0), Some(FOREVER_MS));
    wait_parked(&rig, "gone");
    let hangs_up = std::thread::spawn(move || {
        let events = conn.reply().map(|reply| RawFollower::events(&reply));
        drop(conn);
        events
    });
    let mut client = LocalClient::in_process(&rig.primary);
    let view = client.create_session(rig.tuple.clone()).unwrap();
    let err = client.commit(view.session).unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::QuorumTimeout), "{err}");
    assert_eq!(hangs_up.join().unwrap(), Some(2), "served by the led round");
    assert_eq!(rig.syncs_led(), 1);
    wait_for("the closed connection's slot", || {
        rig.primary.metrics().connections_open == before
    });
    rig.stop();
}

/// A led round's reply larger than the socket buffers, to a follower
/// that holds a sync and then reads nothing: the write waits no longer
/// than the commit's deadline, so the commit answers `quorum_timeout` at
/// `ack_timeout`, and the torn reply closes the follower's connection.
#[test]
fn a_led_reply_the_follower_does_not_read_times_the_commit_out() {
    let ack_timeout = Duration::from_millis(300);
    let rig = hold_rig_with("unread", 2, 2, ack_timeout);
    let before = rig.primary.metrics().connections_open;
    let mut mute = RawFollower::connect(rig.addr);
    mute.sync("unread", (0, 0), Some(FOREVER_MS));
    wait_parked(&rig, "unread");
    // One cell of 4 MiB: the session's create and commit events each
    // carry it, hex-encoded, so the reply is over 16 MiB.
    let mut tuple = rig.tuple.clone();
    tuple[0] = Value::str("x".repeat(4 << 20));
    let primary = rig.primary.clone();
    let (done, outcome) = std::sync::mpsc::channel();
    let asked = Instant::now();
    std::thread::spawn(move || {
        let mut client = LocalClient::in_process(&primary);
        let view = client.create_session(tuple).unwrap();
        let _ = done.send(client.commit(view.session).map(|_| ()));
    });
    let err = outcome
        .recv_timeout(Duration::from_secs(20))
        .expect("the commit answered (its led write did not hang)")
        .unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::QuorumTimeout), "{err}");
    assert!(asked.elapsed() >= ack_timeout, "timed out at ack_timeout");
    assert_eq!(rig.syncs_led(), 1);
    wait_for("the torn reply's connection closed", || {
        rig.primary.metrics().connections_open == before
    });
    drop(mute);
    rig.stop();
}

/// Cluster 3, two followers: a commit needs one ack of two, so it leads
/// neither follower's round — leading one, it would wait on that one's
/// ack alone. Each held sync is released by the flush and served by its
/// own connection's thread, and both followers ack every commit.
#[test]
fn of_two_followers_each_is_served_by_its_own_thread() {
    const N: u64 = 20;
    let rig = hold_rig("two", 2, 3);
    let followers = [
        acking_follower(rig.addr, "a"),
        acking_follower(rig.addr, "b"),
    ];
    wait_for("both held", || rig.registered("a") && rig.registered("b"));
    for _ in 0..N {
        rig.commit_locally();
    }
    let durable = 2 * N;
    wait_for("both followers' acks", || {
        let metrics = rig.primary.handle(&Request::Metrics);
        ["a", "b"]
            .iter()
            .all(|f| follower_stat(&metrics, f).map(|s| s.1) == Some(durable))
    });
    let syncs = rig.syncs_answered();
    assert_eq!(rig.syncs_led(), 0, "no commit led a round");
    assert!(syncs >= 2 * (N - 2), "{syncs} served by a thread");
    assert_eq!(rig.primary.metrics().quorum_timeouts, 0);
    rig.stop();
    for follower in followers {
        follower.join().unwrap();
    }
}

/// Cluster 3, one follower that holds a sync and then falls silent with
/// its connection open, registered before a follower that acks: every
/// commit acks through the second as soon as it does, and waits on the
/// silent one neither for its ack nor until `ack_timeout`.
#[test]
fn a_silent_follower_does_not_hold_a_three_node_quorum() {
    const N: usize = 10;
    let rig = hold_rig("silent-of-two", 2, 3);
    let mut mute = RawFollower::connect(rig.addr);
    mute.sync("mute", (0, 0), Some(FOREVER_MS));
    wait_for("the silent follower held", || rig.registered("mute"));
    let acking = acking_follower(rig.addr, "a");
    wait_for("the acking follower held", || rig.registered("a"));
    for n in 0..N {
        let asked = Instant::now();
        rig.commit_locally();
        let took = asked.elapsed();
        assert!(
            took < Duration::from_secs(2),
            "commit {n} took {took:?} (ack_timeout 10 s)"
        );
    }
    let metrics = rig.primary.metrics();
    assert_eq!((metrics.quorum_timeouts, rig.syncs_led()), (0, 0));
    rig.stop();
    acking.join().unwrap();
    drop(mute);
}
