//! The session ops — `session.create` / `get` / `validate` / `fix` /
//! `commit` / `abort` — and the codec between a live session and its
//! snapshot form. ([`crate::session`] holds the registry they run on.)

use crate::errors::{ErrorCode, ServeError};
use crate::protocol::RequestScratch;
use crate::service::{write_attrs, write_tuple, CleaningService, Reply};
use crate::trace::stamp;
use cerfix::{DataMonitor, FixpointReport, MonitorSession};
use cerfix_relation::{AttrSet, SchemaRef, Tuple, Value};
use cerfix_storage::{JournalEvent, SessionEvent, SessionSnapshot};

impl CleaningService {
    pub(crate) fn session_create(
        &self,
        values: Vec<Value>,
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
        // The parsed row becomes the tuple, and the event is framed from
        // the tuple's own cells.
        let tuple = Tuple::new(schema, values)?;
        let id = self.with_gate(|| {
            self.inner.sessions.create_with(tuple, |id, session| {
                self.journal_session(SessionEvent::Created {
                    session: id,
                    values: session.tuple.values(),
                });
            })
        })?;
        self.inner.metrics.sessions_created.inc();
        self.session_view(id, reply)
    }

    /// `session.get` (and the reply of `session.create`): the session's
    /// view, written under its lock.
    pub(crate) fn session_view(&self, id: u64, mut reply: Reply<'_>) -> Result<(), ServeError> {
        let engine = self.engine();
        let monitor = engine.monitor(&self.inner.audit);
        self.inner
            .sessions
            .with_session(id, reply.started, |session| {
                self.write_view(&monitor, id, session, None, &mut reply)
            })
            .map_err(ServeError::from)
    }

    /// Write the common session snapshot, with optional fixpoint-report
    /// extras — under the session's lock, as it is read. The suggestion
    /// is the monitor's bitset, written in ascending attribute order.
    fn write_view(
        &self,
        monitor: &DataMonitor<'_>,
        id: u64,
        session: &MonitorSession,
        report: Option<&FixpointReport>,
        reply: &mut Reply<'_>,
    ) {
        let schema = self.input_schema();
        let complete = session.is_complete();
        let suggestion = monitor.suggestion_attrs(session);
        let w = reply.ok();
        w.field("session", id);
        let name = if complete {
            "complete"
        } else if suggestion.is_some() {
            "awaiting_user"
        } else {
            "stuck"
        };
        w.field("status", name);
        write_tuple(w, &session.tuple);
        w.field("rounds", session.rounds);
        write_attrs(w, schema, "validated", session.validated.iter());
        match suggestion {
            Some(attrs) => write_attrs(w, schema, "suggestion", attrs.iter()),
            None if !complete => {
                let open = (0..schema.arity()).filter(|&a| !session.validated.contains(a));
                write_attrs(w, schema, "unvalidated", open)
            }
            None => {}
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
    }

    /// `session.validate` / `session.fix`: apply the validations a
    /// parser resolved into `scratch` (none for `fix`), run the
    /// correcting process on `scratch`'s buffers, and write the session
    /// view with the report it leaves there — all in one visit to the
    /// session, under its lock. Journals *before* applying: a mixed
    /// batch can mutate some cells and then fail, and replay must
    /// reproduce exactly that — the event is the attempt, and the
    /// deterministic engine re-derives its outcome.
    pub(crate) fn session_validate(
        &self,
        id: u64,
        scratch: &mut RequestScratch,
        mut reply: Reply<'_>,
    ) -> Result<(), ServeError> {
        let RequestScratch {
            validations,
            fixpoint,
            ..
        } = scratch;
        self.with_gate(|| {
            let engine = self.engine();
            let monitor = engine.monitor(&self.inner.audit);
            self.inner
                .sessions
                .with_session(id, reply.started, |session| {
                    self.journal_session(SessionEvent::Validated {
                        session: id,
                        validations,
                    });
                    let engine_started = stamp();
                    let result = monitor.apply_validation_into(session, validations, fixpoint);
                    reply.span.engine_ns += (stamp() - engine_started).as_nanos() as u64;
                    let report = result?;
                    reply.span.stats += report.stats;
                    self.inner
                        .metrics
                        .cells_fixed
                        .add(report.fixes.len() as u64);
                    self.write_view(&monitor, id, session, Some(report), &mut reply);
                    Ok(())
                })?
        })
    }

    pub(crate) fn session_commit(&self, id: u64, mut reply: Reply<'_>) -> Result<(), ServeError> {
        let (session, journaled) = self.with_gate(|| -> Result<_, ServeError> {
            let session = self.inner.sessions.remove(id)?;
            let seq = self.journal(&JournalEvent::SessionCommitted { session: id });
            let journaled = seq.and_then(|seq| self.commit_position(seq).map(|at| (seq, at)));
            Ok((session, journaled))
        })?;
        self.inner.metrics.sessions_committed.inc();
        // Commit is the protocol's durability point: wait for the group
        // fsync (outside the gate — a snapshot may proceed meanwhile),
        // then — under quorum-ack durability — for a majority of the
        // cluster to hold durable copies too.
        if let (Some(binding), Some((seq, at))) = (&self.inner.storage, journaled) {
            let sync_started = stamp();
            let synced = self.sync_commit(binding, seq);
            reply.span.fsync_ns += (stamp() - sync_started).as_nanos() as u64;
            // Applied in memory and queued in the journal, but NOT
            // durable — the ack must say so (quorum-timeout precedent).
            synced?;
            if self.inner.replication.cluster > 1 {
                self.wait_for_quorum(at, reply.span)?;
            }
        }
        let w = reply.ok();
        w.field("session", id);
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
