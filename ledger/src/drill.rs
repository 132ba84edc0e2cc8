//! The crash drill that closes `entry_durable`: eight sessions left
//! half-way across a forced snapshot, a simulated kill -9 with a cold
//! page cache, a reopen. Every session must come back byte-identical
//! and no acknowledged commit may be resurrected.

use crate::client::{field_u64, Tally};
use crate::fsx::CountingFs;
use crate::load::{service_config, Inputs, Pool};
use crate::rig::Rig;
use cerfix_server::{CleaningService, StorageConfig};
use std::sync::Arc;
use std::time::Instant;

/// Sessions left open across the crash.
const OPEN_SESSIONS: usize = 8;

/// Run the drill against the live rig's service (in-process: the TCP
/// path has been checked by the load). Returns the reopen time in ms;
/// every violation is a failed operation on `tally`.
pub fn crash_drill(inputs: &Inputs, rig: &Rig, tally: &mut Tally) -> f64 {
    let (Pool::Entry(scripts), Some(dir)) = (&inputs.pool, &rig.dir) else {
        return 0.0;
    };
    let service = &rig.service;
    let create = |at: usize| -> u64 {
        let reply = service.handle_line(inputs.arena.text(&scripts[at].create));
        field_u64(reply.as_bytes(), b"\"session\":").unwrap_or(0)
    };
    let step = |at: usize, i: usize, session: u64| -> String {
        service.handle_line(
            &inputs
                .arena
                .session_line(&scripts[at].steps[i].head, session),
        )
    };
    // Scripts with at least two validate rounds: one round leaves them
    // half-way.
    let chosen: Vec<usize> = (0..scripts.len())
        .filter(|&at| scripts[at].steps.len() >= 3)
        .take(OPEN_SESSIONS + 1)
        .collect();
    if chosen.len() <= OPEN_SESSIONS {
        tally.check(false, || {
            "crash drill: the pool has no multi-round sessions".into()
        });
        return 0.0;
    }
    let (open, committed_script) = chosen.split_at(OPEN_SESSIONS);
    let sessions: Vec<u64> = open.iter().map(|&at| create(at)).collect();
    // Half of them take their first round before the snapshot …
    for (&at, &session) in open.iter().zip(&sessions).take(OPEN_SESSIONS / 2) {
        step(at, 0, session);
    }
    let snapshotted = service.snapshot_now();
    tally.check(matches!(snapshotted, Ok(true)), || {
        format!("crash drill: forced snapshot failed: {snapshotted:?}")
    });
    // … the other half after it, so their state straddles the snapshot
    // and the journal suffix.
    for (&at, &session) in open.iter().zip(&sessions).skip(OPEN_SESSIONS / 2) {
        step(at, 0, session);
    }
    // One acknowledged commit: the sync point that makes all of the
    // above durable, and the session that must stay gone.
    let at = committed_script[0];
    let committed = create(at);
    let mut last = String::new();
    for i in 0..scripts[at].steps.len() {
        last = step(at, i, committed);
    }
    tally.check(
        last.contains("\"ok\":true") && last.contains("\"complete\":true"),
        || format!("crash drill: commit not acknowledged: {last}"),
    );
    let get = |service: &CleaningService, session: u64| {
        service.handle_line(&format!(
            "{{\"op\":\"session.get\",\"id\":1,\"session\":{session}}}"
        ))
    };
    let before: Vec<String> = sessions.iter().map(|&s| get(service, s)).collect();

    if let Err(e) = service.simulate_crash() {
        tally.check(false, || format!("crash drill: simulate_crash: {e}"));
        return 0.0;
    }
    let mut config = StorageConfig::new(dir.join("primary"));
    config.fs = CountingFs::new(false);
    let reopening = Instant::now();
    let reopened = CleaningService::with_storage(
        Arc::clone(&rig.master),
        Arc::clone(&inputs.fixture.rules),
        service_config(),
        config,
    );
    let recover_ms = reopening.elapsed().as_secs_f64() * 1e3;
    let reopened = match reopened {
        Ok(service) => service,
        Err(e) => {
            tally.check(false, || format!("crash drill: reopen failed: {e}"));
            return recover_ms;
        }
    };
    for (&session, before) in sessions.iter().zip(&before) {
        let after = get(&reopened, session);
        tally.check(after == *before && after.contains("\"ok\":true"), || {
            format!("crash drill: session {session} came back as {after}, was {before}")
        });
    }
    let gone = get(&reopened, committed);
    tally.check(gone.contains("\"ok\":false"), || {
        format!("crash drill: committed session {committed} was resurrected: {gone}")
    });
    let live = reopened.live_sessions();
    tally.check(live == OPEN_SESSIONS, || {
        format!("crash drill: {live} sessions live after recovery, {OPEN_SESSIONS} were open")
    });
    recover_ms
}
