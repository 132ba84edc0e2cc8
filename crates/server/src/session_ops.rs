//! The session ops — `session.create` / `get` / `validate` / `fix` /
//! `commit` / `abort` — and the codec between a live session and its
//! snapshot form. ([`crate::session`] holds the registry they run on.)

use crate::errors::{ErrorCode, ServeError};
use crate::ops::OpId;
use crate::protocol::{Request, RequestScratch, ScannedLine};
use crate::replication::lock_followers;
use crate::service::{write_attrs, write_tuple, CleaningService, Reply};
use crate::trace::Span;
use cerfix::{FixpointReport, MonitorSession, SessionStatus};
use cerfix_relation::{AttrSet, SchemaRef, Tuple, Value};
use cerfix_storage::{JournalEvent, SessionSnapshot};
use std::time::Instant;

/// A `session.commit` up to its durability point: the session is out of
/// the registry and its event in the journal. What is left is the wait,
/// and the reply.
pub(crate) struct AppliedCommit {
    id: u64,
    session: MonitorSession,
    /// The event's journal sequence and replication coordinates
    /// `(epoch, position)`; `None` in memory mode.
    journaled: Option<(u64, (u64, u64))>,
}

/// A journaled `session.commit` the epoll reactor keeps instead of
/// blocking on: admitted and applied as it arrived
/// ([`CleaningService::commit_arrival`]), answered when its verdict is
/// in ([`CleaningService::commit_verdict`]). Like a
/// [`HeldSync`](crate::replication::HeldSync) it is a parked connection,
/// never a busy thread, so however many connections commit at once they
/// ride one flush. If its connection goes away the commit stays applied
/// and journaled; only the acknowledgement is lost.
pub(crate) struct HeldCommit {
    /// The request's frame, run when the reply is written: the `id` to
    /// echo, the arrival stamps, the stages timed so far.
    id: Option<String>,
    received: Instant,
    started: Instant,
    span: Span,
    /// The commit, or what its admission refused it with.
    applied: Result<AppliedCommit, ServeError>,
    /// When the fsync wait began, when the quorum wait did, and when
    /// that becomes pointless (the fsync wait always ends by itself).
    parked: Instant,
    synced: Option<Instant>,
    pub(crate) deadline: Option<Instant>,
}

impl CleaningService {
    pub(crate) fn session_create(
        &self,
        values: &[Value],
        reply: Reply<'_>,
    ) -> Result<(), ServeError> {
        // In-flight sessions finish during a drain; fresh ones belong
        // on another node.
        if self.is_draining() {
            self.inner.metrics.sessions_refused_draining.inc();
            return Err(
                ErrorCode::Draining.error("server is draining; create the session on another node")
            );
        }
        let schema = self.input_schema().clone();
        if values.len() != schema.arity() {
            return Err(ErrorCode::BadRequest.error(format!(
                "tuple has {} values but schema `{}` has arity {}",
                values.len(),
                schema.name(),
                schema.arity()
            )));
        }
        let tuple = Tuple::new(schema, values.to_vec())?;
        let id = self.with_gate(|| -> Result<u64, ServeError> {
            let id = self.inner.sessions.create(tuple)?;
            // Only build the owned event when a journal exists.
            if self.inner.storage.is_some() {
                self.journal(&JournalEvent::SessionCreated {
                    session: id,
                    values: values.to_vec(),
                });
            }
            Ok(id)
        })?;
        self.inner.metrics.sessions_created.inc();
        self.session_view(id, None, reply)
    }

    /// Write the common session snapshot, with optional fixpoint-report
    /// extras — under the session's lock, as it is read.
    pub(crate) fn session_view(
        &self,
        id: u64,
        report: Option<&FixpointReport>,
        mut reply: Reply<'_>,
    ) -> Result<(), ServeError> {
        let engine = self.engine();
        let monitor = self.monitor_for(&engine);
        let schema = self.input_schema();
        self.inner
            .sessions
            .with_session(id, |session| {
                let status = monitor.status(session);
                let w = reply.ok();
                w.field("session", id);
                let name = match &status {
                    SessionStatus::AwaitingUser { .. } => "awaiting_user",
                    SessionStatus::Complete => "complete",
                    SessionStatus::Stuck { .. } => "stuck",
                };
                w.field("status", name);
                write_tuple(w, &session.tuple);
                w.field("rounds", session.rounds);
                write_attrs(w, schema, "validated", session.validated.iter());
                match status {
                    SessionStatus::AwaitingUser { suggestion } => {
                        write_attrs(w, schema, "suggestion", suggestion)
                    }
                    SessionStatus::Stuck { unvalidated } => {
                        write_attrs(w, schema, "unvalidated", unvalidated)
                    }
                    SessionStatus::Complete => {}
                }
                if let Some(report) = report {
                    w.array("fixes", &report.fixes, |w, fix| {
                        w.begin_obj();
                        w.field("attr", schema.attr_name(fix.attr));
                        w.field("old", &fix.old);
                        w.field("new", &fix.new);
                        w.field("rule", fix.rule);
                        w.field("master_row", fix.master_row);
                        w.end_obj();
                    });
                    let newly = report.newly_validated.iter().copied();
                    write_attrs(w, schema, "newly_validated", newly);
                }
                w.end_obj();
            })
            .map_err(ServeError::from)
    }

    /// `session.validate` / `session.fix`: apply the validations a
    /// parser resolved into `scratch` (none for `fix`), run the
    /// correcting process, and write the session view with the report.
    /// Journals *before* applying, inside the session lock: a mixed
    /// batch can mutate some cells and then fail, and replay must
    /// reproduce exactly that — the event is the attempt, and the
    /// deterministic engine re-derives its outcome.
    pub(crate) fn session_validate(
        &self,
        id: u64,
        scratch: &RequestScratch,
        reply: Reply<'_>,
    ) -> Result<(), ServeError> {
        let resolved = &scratch.validations;
        let report = self.with_gate(|| {
            let engine = self.engine();
            let monitor = self.monitor_for(&engine);
            self.inner
                .sessions
                .with_session(id, |session| {
                    // Only build the owned event when a journal exists —
                    // the memory-mode hot path stays allocation-free.
                    if self.inner.storage.is_some() {
                        self.journal(&JournalEvent::SessionValidated {
                            session: id,
                            validations: resolved
                                .iter()
                                .map(|(attr, value)| (*attr as u32, value.clone()))
                                .collect(),
                        });
                    }
                    let engine_started = Instant::now();
                    let result = monitor.apply_validation(session, resolved);
                    reply.span.engine_ns += engine_started.elapsed().as_nanos() as u64;
                    result
                })
                .map_err(ServeError::from)
        })??;
        reply.span.stats += report.stats;
        self.inner
            .metrics
            .cells_fixed
            .add(report.fixes.len() as u64);
        self.session_view(id, Some(&report), reply)
    }

    /// `session.commit` up to its durability point: the session leaves
    /// the registry and its event enters the journal, in one gate hold.
    fn commit_apply(&self, id: u64) -> Result<AppliedCommit, ServeError> {
        let (session, journaled) = self.with_gate(|| -> Result<_, ServeError> {
            let session = self.inner.sessions.remove(id)?;
            let seq = self.journal(&JournalEvent::SessionCommitted { session: id });
            let journaled = seq.and_then(|seq| self.commit_position(seq).map(|at| (seq, at)));
            Ok((session, journaled))
        })?;
        self.inner.metrics.sessions_committed.inc();
        Ok(AppliedCommit {
            id,
            session,
            journaled,
        })
    }

    pub(crate) fn session_commit(&self, id: u64, reply: Reply<'_>) -> Result<(), ServeError> {
        let commit = self.commit_apply(id)?;
        // Commit is the protocol's durability point: wait for the group
        // fsync (outside the gate — a snapshot may proceed meanwhile),
        // then — under quorum-ack durability — for a majority of the
        // cluster to hold durable copies too.
        if let (Some(binding), Some((seq, at))) = (&self.inner.storage, commit.journaled) {
            let sync_started = Instant::now();
            let synced = self.sync_commit(binding, seq);
            reply.span.fsync_ns += sync_started.elapsed().as_nanos() as u64;
            // Applied in memory and queued in the journal, but NOT
            // durable — the ack must say so (quorum-timeout precedent).
            synced?;
            if self.inner.replication.cluster > 1 {
                self.wait_for_quorum(at, reply.span)?;
            }
        }
        self.commit_reply(&commit, reply)
    }

    fn commit_reply(&self, commit: &AppliedCommit, mut reply: Reply<'_>) -> Result<(), ServeError> {
        let session = &commit.session;
        let w = reply.ok();
        w.field("session", commit.id);
        w.field("complete", session.is_complete());
        write_tuple(w, &session.tuple);
        w.field("rounds", session.rounds);
        w.field("user_validated", session.user_validated.len());
        w.field("auto_validated", session.auto_validated.len());
        let schema = self.input_schema();
        write_attrs(w, schema, "validated", session.validated.iter());
        w.end_obj();
        Ok(())
    }

    /// The reactor scanned a line it is about to run inline. A
    /// `session.commit` on a journaled service is run here instead, up
    /// to its durability point — admitted, applied, the flusher told to
    /// go now — and comes back as the hold the reactor parks. `None`:
    /// serve the line like any other.
    pub(crate) fn commit_arrival(
        &self,
        scanned: &ScannedLine<'_>,
        scratch: &mut RequestScratch,
        received: Instant,
        started: Instant,
    ) -> Option<HeldCommit> {
        let journal = self.storage()?.journal();
        let op = scanned.op.filter(|op| op.id == Some(OpId::SessionCommit))?;
        let mut span = Span::default();
        let admitted = self.admitted(scanned, op, &mut span, scratch, received, started);
        let applied = admitted.and_then(|request| {
            let Request::SessionCommit { session } = request else {
                unreachable!("the line's op is session.commit");
            };
            let commit = self.commit_apply(session)?;
            journal.kick_flusher();
            Ok(commit)
        });
        Some(HeldCommit {
            id: scanned.id.map(str::to_string),
            received,
            started,
            span,
            applied,
            parked: Instant::now(),
            synced: None,
            deadline: None,
        })
    }

    /// May a held commit be answered now, and with what? With the
    /// blocking path's verdicts, in its order: the group fsync's
    /// ([`sync_verdict`](Self::sync_verdict)), then, in a cluster, the
    /// quorum's ([`quorum_verdict`](Self::quorum_verdict), its deadline
    /// counted as there from when the commit is durable here). `None`:
    /// not yet. The caller watches the journal
    /// ([`Journal::watch`](cerfix_storage::Journal::watch)) before it
    /// asks, or asks again once it does; a follower's ack it sees arrive
    /// itself or is woken for ([`wake_holds`](Self::wake_holds)).
    pub(crate) fn commit_verdict(&self, held: &mut HeldCommit) -> Option<Result<(), ServeError>> {
        let Some((seq, at)) = held.applied.as_ref().ok().and_then(|c| c.journaled) else {
            return Some(Ok(())); // refused: nothing to wait for
        };
        if held.synced.is_none() {
            let synced = self.sync_verdict(self.storage()?.journal().sync_status(seq)?);
            held.span.fsync_ns = held.parked.elapsed().as_nanos() as u64;
            if synced.is_err() || self.inner.replication.cluster == 1 {
                return Some(synced);
            }
            let since = Instant::now();
            held.synced = Some(since);
            held.deadline = Some(self.quorum_deadline(since, &held.span));
        }
        let followers = lock_followers(self.replication());
        self.quorum_verdict(at, held.synced?, &followers, &mut held.span)
    }

    /// Answer a held commit: the request's frame runs now, from its
    /// arrival stamps, so latency and the span cover the wait.
    pub(crate) fn finish_commit(
        &self,
        held: HeldCommit,
        verdict: Result<(), ServeError>,
        out: &mut String,
    ) {
        let op = OpId::SessionCommit.row();
        let (id, received, started) = (held.id.as_deref(), held.received, held.started);
        self.answer(op, id, out, received, started, |reply| {
            let queue_ns = reply.span.queue_ns;
            *reply.span = Span {
                queue_ns,
                ..held.span
            };
            let commit = held.applied?;
            verdict?;
            self.commit_reply(&commit, reply)
        });
    }

    pub(crate) fn session_abort(&self, id: u64, mut reply: Reply<'_>) -> Result<(), ServeError> {
        self.with_gate(|| -> Result<(), ServeError> {
            self.inner.sessions.remove(id)?;
            self.journal(&JournalEvent::SessionAborted { session: id });
            Ok(())
        })?;
        self.inner.metrics.sessions_aborted.inc();
        let w = reply.ok();
        w.field("session", id);
        w.end_obj();
        Ok(())
    }
}

fn attrset_to_ids(set: &AttrSet) -> Vec<u32> {
    set.iter().map(|a| a as u32).collect()
}

fn ids_to_attrset(ids: &[u32], arity: usize) -> Result<AttrSet, ServeError> {
    let mut set = AttrSet::new();
    for &id in ids {
        if id as usize >= arity {
            return Err(ErrorCode::Internal
                .error(format!("attribute id {id} out of range (arity {arity})")));
        }
        set.insert(id as usize);
    }
    Ok(set)
}

pub(crate) fn session_to_snapshot(
    id: u64,
    session: &MonitorSession,
    arity: usize,
) -> SessionSnapshot {
    debug_assert_eq!(session.tuple.arity(), arity);
    SessionSnapshot {
        session: id,
        tuple_id: session.tuple_id as u64,
        rounds: session.rounds as u64,
        values: session.tuple.values().to_vec(),
        validated: attrset_to_ids(&session.validated),
        user_validated: attrset_to_ids(&session.user_validated),
        auto_validated: attrset_to_ids(&session.auto_validated),
    }
}

pub(crate) fn snapshot_to_session(
    snapshot: &SessionSnapshot,
    schema: &SchemaRef,
) -> Result<MonitorSession, ServeError> {
    let tuple = Tuple::new(schema.clone(), snapshot.values.clone()).map_err(|e| {
        ErrorCode::Internal.error(format!("snapshot session {}: {e}", snapshot.session))
    })?;
    let arity = schema.arity();
    let mut session = MonitorSession::new(snapshot.tuple_id as usize, tuple);
    session.rounds = snapshot.rounds as usize;
    session.validated = ids_to_attrset(&snapshot.validated, arity)?;
    session.user_validated = ids_to_attrset(&snapshot.user_validated, arity)?;
    session.auto_validated = ids_to_attrset(&snapshot.auto_validated, arity)?;
    Ok(session)
}
