//! Recovery and snapshots: boot recovery (snapshot, then the journal
//! suffix, through the same deterministic correcting process that wrote
//! them), the follower side of replication (replaying the primary's
//! events, installing its snapshot), and the snapshot writer.

use crate::engine::render_ruleset_dsl;
use crate::errors::{ErrorCode, ServeError};
use crate::protocol::RequestScratch;
use crate::replication::{ReplicaApplyError, Role};
use crate::service::CleaningService;
use crate::session_ops::{session_to_snapshot, snapshot_to_session};
use cerfix::{AuditLog, MonitorSession};
use cerfix_relation::Tuple;
use cerfix_storage::{EventView, JournalEvent, RecoveredState, SnapshotData, SyncError};
use std::sync::{Arc, PoisonError};
use std::time::{Duration, Instant};

impl CleaningService {
    /// Install a snapshot of all live state and truncate the journal,
    /// if storage is attached and the snapshot policy says it is time.
    /// The TCP server calls this from its housekeeping loop.
    pub fn maybe_snapshot(&self) -> std::io::Result<bool> {
        // Followers never snapshot on their own: a snapshot bumps the
        // journal epoch, and a follower's epoch must track the
        // primary's or the stream it tails would fence itself.
        if matches!(self.role(), Role::Follower { .. }) {
            return Ok(false);
        }
        match &self.inner.storage {
            Some(binding) if binding.storage.should_snapshot() => self.snapshot_now(),
            _ => Ok(false),
        }
    }

    /// Unconditionally snapshot now (no-op without storage). Holds the
    /// storage gate in write mode: the captured session set and the
    /// journal truncation are atomic against concurrent mutation.
    pub fn snapshot_now(&self) -> std::io::Result<bool> {
        let Some(binding) = &self.inner.storage else {
            return Ok(false);
        };
        let _gate = binding.gate.write().unwrap_or_else(|e| e.into_inner());
        let engine = self.engine();
        let schema_arity = self.inner.input_schema.arity();
        let sessions = self
            .inner
            .sessions
            .export()
            .into_iter()
            .map(|(id, session)| session_to_snapshot(id, &session, schema_arity))
            .collect();
        let data = SnapshotData {
            epoch: binding.storage.epoch() + 1,
            fingerprint: engine.fingerprint,
            rules_dsl: render_ruleset_dsl(&engine.rules),
            next_session_id: self.inner.sessions.next_id(),
            // The rows appended since boot, in order, read off the
            // installed master: journal truncation must not lose them.
            master_appended: engine.master.relation().rows()[self.inner.boot.master.len()..]
                .iter()
                .map(|row| row.values().to_vec())
                .collect(),
            sessions,
        };
        binding.storage.install_snapshot(&data)?;
        self.inner.metrics.snapshots_written.inc();
        // Cache the encoded snapshot: it is what a follower whose
        // cursor predates the new epoch gets resynced from.
        *self
            .inner
            .replication
            .last_snapshot
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = Some(Arc::new(data.encode()));
        Ok(true)
    }

    /// Simulate a kill-9 with a cold page cache (crash-recovery tests):
    /// all storage files roll back to their last fsync and go inert.
    /// No-op (returning `false`) without storage.
    pub fn simulate_crash(&self) -> std::io::Result<bool> {
        match &self.inner.storage {
            Some(binding) => binding.storage.simulate_crash().map(|()| true),
            None => Ok(false),
        }
    }

    /// Replay recovered state: snapshot first (rule set, session
    /// states, id allocator), then the journal suffix through the same
    /// deterministic correcting process that produced it live. Replay
    /// runs on detached monitors — provenance already sits in the audit
    /// segment; re-recording it would duplicate the archive.
    pub(crate) fn recover(&self, recovered: RecoveredState) -> Result<(), ServeError> {
        if let Some(snapshot) = &recovered.snapshot {
            self.apply_snapshot(snapshot)?;
        }
        let events = recovered.events.iter().map(JournalEvent::view);
        self.replay_events(events, false, &mut RequestScratch::default())?;
        let live = self.inner.sessions.len() as u64;
        self.inner.metrics.sessions_recovered.add(live);
        Ok(())
    }

    /// Apply a snapshot onto the engine in place: its appended master
    /// rows, its rule set (when it is not the one running), its
    /// sessions and its next session id.
    fn apply_snapshot(&self, snapshot: &SnapshotData) -> Result<(), ServeError> {
        if !snapshot.master_appended.is_empty() {
            self.apply_master_rows(snapshot.master_appended.clone())?;
        }
        if snapshot.fingerprint != self.engine().fingerprint && !snapshot.rules_dsl.is_empty() {
            self.install_rules(&snapshot.rules_dsl, snapshot.fingerprint, "snapshot")?;
        }
        for session in &snapshot.sessions {
            let restored = snapshot_to_session(session, &self.inner.input_schema)?;
            self.inner.sessions.restore(session.session, restored);
        }
        self.inner
            .sessions
            .advance_next_id(snapshot.next_session_id);
        Ok(())
    }

    /// Compile a rule set from its DSL and swap it in, provided it
    /// re-parses to the `fingerprint` its `source` (a snapshot, the
    /// journal) recorded.
    fn install_rules(&self, dsl: &str, fingerprint: u64, source: &str) -> Result<(), ServeError> {
        let engine = self.compile_engine_from_dsl(dsl)?;
        if engine.fingerprint != fingerprint {
            return Err(ErrorCode::Internal.error(format!(
                "{source} rule set re-parses to fingerprint {:x}, expected {:x}",
                engine.fingerprint, fingerprint
            )));
        }
        *self.inner.engine.write().unwrap_or_else(|e| e.into_inner()) = engine;
        Ok(())
    }

    /// Replay a run of journal events in order — boot recovery (the
    /// events its scan decoded) and the follower tail (the frames it was
    /// sent, read in place) both come through here. Each event hands over
    /// only what the replay keeps: a created session's row is built into
    /// the `Vec` its tuple holds, a validation's values into `scratch`,
    /// where they are applied from. Session events between two
    /// engine swaps share one monitor, and their validations run on
    /// `scratch`. `live` distinguishes the follower tail (the monitor
    /// records into the shared audit log, so the follower's provenance
    /// stream regenerates byte-for-byte and `audit.read` answers match
    /// the primary's) from boot recovery (provenance already sits in the
    /// local audit segment; re-recording it would duplicate the archive,
    /// so the monitor records into a one-record window dropped with the
    /// run). Adjacent `MasterAppended` events are coalesced into a
    /// single copy-on-append + recompile pass:
    /// a burst of N appends costs one recompile instead of N (the merged
    /// batch lands on the same master state the per-event replay would,
    /// in the same order).
    fn replay_events<'e>(
        &self,
        events: impl Iterator<Item = EventView<'e>>,
        live: bool,
        scratch: &mut RequestScratch,
    ) -> Result<(), ServeError> {
        let schema = self.inner.input_schema.clone();
        let audit = if live {
            Arc::clone(&self.inner.audit)
        } else {
            Arc::new(AuditLog::windowed(1))
        };
        let mut events = events.peekable();
        while events.peek().is_some() {
            // One monitor for each run of events between engine swaps.
            let engine = self.engine();
            let monitor = engine.monitor(&audit);
            while let Some(event) = events.next() {
                match event {
                    EventView::SessionCreated { session, values } => {
                        let tuple = Tuple::new(schema.clone(), values.to_vec()).map_err(|e| {
                            ErrorCode::Internal.error(format!("replay session {session}: {e}"))
                        })?;
                        self.inner
                            .sessions
                            .restore(session, MonitorSession::new(session as usize, tuple));
                    }
                    EventView::SessionValidated {
                        session,
                        validations,
                    } => {
                        let RequestScratch {
                            validations: resolved,
                            fixpoint,
                            ..
                        } = &mut *scratch;
                        resolved.clear();
                        resolved.extend(
                            validations
                                .iter()
                                .map(|(attr, value)| (attr as usize, value)),
                        );
                        // Ignore per-event errors: replaying an op that
                        // failed live reproduces the failed state too.
                        let touched = Instant::now();
                        let _ = self.inner.sessions.with_session(session, touched, |state| {
                            monitor
                                .apply_validation_into(state, resolved, fixpoint)
                                .map(|_| ())
                        });
                    }
                    EventView::SessionCommitted { session }
                    | EventView::SessionAborted { session } => {
                        let _ = self.inner.sessions.remove(session);
                    }
                    EventView::SessionsEvicted { sessions } => {
                        for id in sessions.iter() {
                            let _ = self.inner.sessions.remove(id);
                        }
                    }
                    EventView::ConfigSet { key, value } => {
                        // Unknown keys replay as no-ops: a journal written
                        // by a newer build must not fail recovery on an
                        // older one.
                        let _ = self.apply_config_set(key, value);
                    }
                    EventView::MasterAppended { rows } => {
                        let mut batch = rows.to_vec();
                        let appended =
                            |next: &EventView<'_>| matches!(next, EventView::MasterAppended { .. });
                        while let Some(EventView::MasterAppended { rows }) =
                            events.next_if(appended)
                        {
                            batch.extend(rows.iter());
                        }
                        self.apply_master_rows(batch)?;
                        break;
                    }
                    EventView::RulesReloaded { dsl, fingerprint } => {
                        self.install_rules(dsl, fingerprint, "journaled")?;
                        break;
                    }
                }
            }
        }
        Ok(())
    }

    /// Follower side of the tail loop: journal the primary's frames —
    /// the payload bytes as received, of which `events` are the in-place
    /// reading, every one checked whole before this is called — into our
    /// own journal (so our file mirrors the primary's and a restart
    /// resumes from our durable cursor), replay the events through the
    /// live correcting path, then lead the group fsync — the cursor our
    /// next `replica.sync` acks with only moves once the events are
    /// durable *here*.
    ///
    /// The fsync outcome decides the follower's fate: a failed *write*
    /// is retried in place (the events are already applied, so
    /// re-pulling them from the primary would double-apply
    /// non-idempotent `MasterAppended` rows — the cursor must not move
    /// until this exact frame lands); a *poisoned* journal (fsync
    /// failure) is unrecoverable locally and reported as
    /// [`ReplicaApplyError::Poisoned`] so the tail loop can demand a
    /// snapshot re-sync from the primary instead of dying.
    pub(crate) fn apply_replica_events<'f>(
        &self,
        events: impl Iterator<Item = EventView<'f>>,
        payloads: impl Iterator<Item = &'f [u8]>,
        scratch: &mut RequestScratch,
    ) -> Result<(), ReplicaApplyError> {
        let Some(binding) = &self.inner.storage else {
            return Err(ReplicaApplyError::Diverged(
                ErrorCode::Internal.error("follower has no storage attached"),
            ));
        };
        let last_seq = self
            .with_gate(|| -> Result<Option<u64>, ServeError> {
                let mut last = None;
                for payload in payloads {
                    last = Some(binding.storage.append_encoded(payload));
                }
                self.replay_events(events, true, scratch)?;
                Ok(last)
            })
            .map_err(ReplicaApplyError::Diverged)?;
        let Some(seq) = last_seq else {
            return Ok(());
        };
        loop {
            match binding.storage.sync(seq) {
                Ok(()) => return Ok(()),
                Err(SyncError::WriteFailed { error, enospc }) => {
                    if enospc {
                        self.enter_degraded(&format!("journal write: {error}"));
                    }
                    if self.shutdown_requested() {
                        return Err(ReplicaApplyError::Stopped);
                    }
                    // The frames are back in the flusher's pending
                    // queue; wait for its retry rather than re-pulling.
                    std::thread::sleep(Duration::from_millis(50));
                }
                Err(SyncError::Poisoned { error }) => {
                    self.note_poisoned(&error);
                    return Err(ReplicaApplyError::Poisoned(error));
                }
                Err(SyncError::Stopped) => return Err(ReplicaApplyError::Stopped),
            }
        }
    }

    /// Full resync: a follower whose cursor predates the primary's
    /// journal epoch (a snapshot truncated the events it was owed)
    /// installs the primary's snapshot wholesale. Swaps the boot state
    /// back in before applying the snapshot's appended rows — they are
    /// relative to boot, and our own appends are a prefix of the
    /// primary's history anyway.
    pub(crate) fn install_replica_snapshot(&self, data: SnapshotData) -> Result<(), ServeError> {
        let Some(binding) = &self.inner.storage else {
            return Err(ErrorCode::Internal.error("follower has no storage attached"));
        };
        if data.epoch <= binding.storage.epoch() {
            return Err(ErrorCode::StaleEpoch.error(format!(
                "snapshot epoch {} is not ahead of local epoch {}",
                data.epoch,
                binding.storage.epoch()
            )));
        }
        let encoded = data.encode();
        let gate = binding.gate.write().unwrap_or_else(|e| e.into_inner());
        for (id, _) in self.inner.sessions.export() {
            let _ = self.inner.sessions.remove(id);
        }
        {
            let _swap = self
                .inner
                .swap_lock
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            *self.inner.engine.write().unwrap_or_else(|e| e.into_inner()) =
                Arc::clone(&self.inner.boot);
        }
        self.apply_snapshot(&data)?;
        binding.storage.install_snapshot(&data)?;
        drop(gate);
        *self
            .inner
            .replication
            .last_snapshot
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = Some(Arc::new(encoded));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::alloc_count::allocations_in;
    use crate::tests::data_dir;
    use cerfix_relation::Value;
    use cerfix_storage::{JournalEvent, Storage, StorageConfig};

    /// `Storage::open` hands boot recovery the events its scan decoded,
    /// moved rather than copied: each recovered event costs what
    /// `JournalEvent::decode` allocates for it and nothing more.
    #[test]
    fn storage_open_allocates_each_recovered_event_once() {
        let event = |i: u64| match i % 4 {
            0 => JournalEvent::SessionCreated {
                session: i,
                values: vec![Value::str("k1"), Value::str("WRONG"), Value::Null],
            },
            1 => JournalEvent::SessionValidated {
                session: i - 1,
                validations: vec![(1, Value::str("v1"))],
            },
            2 => JournalEvent::ConfigSet {
                key: "slow_ms".into(),
                value: i,
            },
            _ => JournalEvent::SessionCommitted { session: i - 3 },
        };
        // Allocations of a `Storage::open` that recovers `events` events.
        let opened = |events: u64| {
            let dir = data_dir(&format!("recover-allocs-{events:03}"));
            let (storage, _) = Storage::open(StorageConfig::new(&dir)).unwrap();
            let last = (0..events).fold(0, |_, i| storage.append(&event(i)));
            storage.sync(last).unwrap();
            drop(storage);
            let mut reopened = None;
            let spent = allocations_in(|| {
                reopened = Some(Storage::open(StorageConfig::new(&dir)).unwrap());
            });
            let (storage, recovered) = reopened.unwrap();
            assert_eq!(recovered.events, (0..events).map(event).collect::<Vec<_>>());
            drop(storage);
            let _ = std::fs::remove_dir_all(&dir);
            spent
        };
        let payloads: Vec<Vec<u8>> = (32..64).map(|i| event(i).encode()).collect();
        let decoding = allocations_in(|| {
            for payload in &payloads {
                drop(std::hint::black_box(JournalEvent::decode(payload).unwrap()));
            }
        });
        assert_eq!(
            opened(64) - opened(32),
            decoding + 1,
            "32 more events: their decoding, and one more doubling of the `Vec` holding them"
        );
    }
}
