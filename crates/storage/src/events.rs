//! The durable vocabulary: journal events, session snapshots, audit
//! records — what the service writes ahead and replays on recovery.
//!
//! Replay is *semantic*: a [`JournalEvent::SessionValidated`] stores the
//! resolved user assertions, not the rule firings they caused — recovery
//! re-runs the (deterministic) correcting process against the same rules
//! and master data, so a recovered session carries exactly the validated
//! `AttrSet`s and pending fixes the live one had, at a fraction of the
//! journal bytes. Rule reloads are journaled for the same reason: replay
//! must run each validation against the rule set that was active when it
//! happened.

use crate::codec::{CodecError, Decoder, Encoder};
use cerfix::{AuditRecord, CellEvent};
use cerfix_relation::Value;

/// One entry in the write-ahead session journal.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalEvent {
    /// A session was opened for one input tuple.
    SessionCreated {
        /// Server-assigned session id.
        session: u64,
        /// The raw tuple as entered, in schema order.
        values: Vec<Value>,
    },
    /// The user asserted attribute values; the correcting process ran.
    SessionValidated {
        /// Server-assigned session id.
        session: u64,
        /// Resolved `(attribute id, asserted value)` pairs, in the order
        /// they were applied.
        validations: Vec<(u32, Value)>,
    },
    /// The session was committed (final state extracted, entry removed).
    SessionCommitted {
        /// Server-assigned session id.
        session: u64,
    },
    /// The session was aborted by the client.
    SessionAborted {
        /// Server-assigned session id.
        session: u64,
    },
    /// Sessions reaped by idle eviction (one event per sweep).
    SessionsEvicted {
        /// The evicted session ids.
        sessions: Vec<u64>,
    },
    /// The rule set was hot-swapped. Recovery re-parses `dsl` so later
    /// events replay against the right rules.
    RulesReloaded {
        /// Canonical DSL rendering of the new rule set.
        dsl: String,
        /// Fingerprint of the new rule set (sanity-checked on replay).
        fingerprint: u64,
    },
    /// Rows were appended to the master repository. Recovery re-applies
    /// them in order, so later session events replay against the master
    /// state that was live when they happened.
    MasterAppended {
        /// The appended rows, in append order, each in master-schema
        /// order.
        rows: Vec<Vec<Value>>,
    },
    /// A runtime-tunable configuration knob was changed (`config.set`).
    /// Replayed on recovery so operator tuning survives a restart.
    ConfigSet {
        /// Knob name (e.g. `slow_ms`, `trace_buffer`, `diag_buffer`).
        key: String,
        /// The new value.
        value: u64,
    },
}

impl JournalEvent {
    /// Short kind name, for diagnostics (`cerfix recover --inspect`).
    pub fn kind(&self) -> &'static str {
        match self {
            JournalEvent::SessionCreated { .. } => "session.created",
            JournalEvent::SessionValidated { .. } => "session.validated",
            JournalEvent::SessionCommitted { .. } => "session.committed",
            JournalEvent::SessionAborted { .. } => "session.aborted",
            JournalEvent::SessionsEvicted { .. } => "sessions.evicted",
            JournalEvent::RulesReloaded { .. } => "rules.reloaded",
            JournalEvent::MasterAppended { .. } => "master.appended",
            JournalEvent::ConfigSet { .. } => "config.set",
        }
    }

    /// Encode to a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut payload = Vec::new();
        self.encode_into(&mut Encoder::new(&mut payload));
        payload
    }

    /// Encode as a frame payload at the end of `enc`'s buffer — how
    /// [`Journal::append`](crate::Journal::append) writes it in place.
    pub(crate) fn encode_into(&self, enc: &mut Encoder<'_>) {
        match self {
            JournalEvent::SessionCreated { session, values } => {
                put_session_created(enc, *session, values);
            }
            JournalEvent::SessionValidated {
                session,
                validations,
            } => {
                let pairs = validations.iter().map(|(attr, value)| (*attr, value));
                put_session_validated(enc, *session, pairs);
            }
            JournalEvent::SessionCommitted { session } => {
                enc.put_u8(3);
                enc.put_u64(*session);
            }
            JournalEvent::SessionAborted { session } => {
                enc.put_u8(4);
                enc.put_u64(*session);
            }
            JournalEvent::SessionsEvicted { sessions } => {
                enc.put_u8(5);
                enc.put_u32(sessions.len() as u32);
                for &id in sessions {
                    enc.put_u64(id);
                }
            }
            JournalEvent::RulesReloaded { dsl, fingerprint } => {
                enc.put_u8(6);
                enc.put_str(dsl);
                enc.put_u64(*fingerprint);
            }
            JournalEvent::MasterAppended { rows } => {
                enc.put_u8(7);
                enc.put_u32(rows.len() as u32);
                for row in rows {
                    enc.put_values(row);
                }
            }
            JournalEvent::ConfigSet { key, value } => {
                enc.put_u8(8);
                enc.put_str(key);
                enc.put_u64(*value);
            }
        }
    }

    /// Decode from a frame payload: [`EventView::parse`], then every
    /// list into a `Vec` sized from its length and every string into
    /// one allocation.
    pub fn decode(payload: &[u8]) -> Result<JournalEvent, CodecError> {
        EventView::parse(payload).map(|view| view.to_event())
    }

    /// The event, borrowed: what [`EventView::parse`] reads out of its
    /// frame, without the frame.
    pub fn view(&self) -> EventView<'_> {
        match self {
            JournalEvent::SessionCreated { session, values } => EventView::SessionCreated {
                session: *session,
                values: List::owned(values),
            },
            JournalEvent::SessionValidated {
                session,
                validations,
            } => EventView::SessionValidated {
                session: *session,
                validations: List::owned(validations),
            },
            JournalEvent::SessionCommitted { session } => {
                EventView::SessionCommitted { session: *session }
            }
            JournalEvent::SessionAborted { session } => {
                EventView::SessionAborted { session: *session }
            }
            JournalEvent::SessionsEvicted { sessions } => EventView::SessionsEvicted {
                sessions: List::owned(sessions),
            },
            JournalEvent::RulesReloaded { dsl, fingerprint } => EventView::RulesReloaded {
                dsl,
                fingerprint: *fingerprint,
            },
            JournalEvent::MasterAppended { rows } => EventView::MasterAppended {
                rows: List::owned(rows),
            },
            JournalEvent::ConfigSet { key, value } => EventView::ConfigSet { key, value: *value },
        }
    }
}

/// A [`JournalEvent`], borrowed: read in place from its frame payload
/// ([`parse`](Self::parse)) or from an owned event
/// ([`JournalEvent::view`]). Replay takes events in this form, so a
/// follower builds only the cells it keeps — a created session's row
/// straight into the `Vec` its tuple holds, a validation's values
/// straight into the buffer they are applied from — and builds no event
/// to take them out of.
#[derive(Debug, Clone, Copy)]
pub enum EventView<'a> {
    /// [`JournalEvent::SessionCreated`].
    SessionCreated {
        /// Server-assigned session id.
        session: u64,
        /// The raw tuple as entered, in schema order.
        values: List<'a, Value>,
    },
    /// [`JournalEvent::SessionValidated`].
    SessionValidated {
        /// Server-assigned session id.
        session: u64,
        /// Resolved `(attribute id, asserted value)` pairs.
        validations: List<'a, (u32, Value)>,
    },
    /// [`JournalEvent::SessionCommitted`].
    SessionCommitted {
        /// Server-assigned session id.
        session: u64,
    },
    /// [`JournalEvent::SessionAborted`].
    SessionAborted {
        /// Server-assigned session id.
        session: u64,
    },
    /// [`JournalEvent::SessionsEvicted`].
    SessionsEvicted {
        /// The evicted session ids.
        sessions: List<'a, u64>,
    },
    /// [`JournalEvent::RulesReloaded`].
    RulesReloaded {
        /// Canonical DSL rendering of the new rule set.
        dsl: &'a str,
        /// Fingerprint of the new rule set.
        fingerprint: u64,
    },
    /// [`JournalEvent::MasterAppended`].
    MasterAppended {
        /// The appended rows, in append order.
        rows: List<'a, Vec<Value>>,
    },
    /// [`JournalEvent::ConfigSet`].
    ConfigSet {
        /// Knob name.
        key: &'a str,
        /// The new value.
        value: u64,
    },
}

impl<'a> EventView<'a> {
    /// Read a frame payload in place. Everything
    /// [`JournalEvent::decode`] checks is checked here — tags, lengths,
    /// UTF-8, no trailing bytes — with the same errors, and nothing is
    /// allocated: a payload this accepts decodes, and one it refuses
    /// does not.
    pub fn parse(payload: &'a [u8]) -> Result<EventView<'a>, CodecError> {
        let mut dec = Decoder::new(payload);
        let event = match dec.get_u8()? {
            1 => {
                let session = dec.get_u64()?;
                let n = dec.value_count()?;
                EventView::SessionCreated {
                    session,
                    values: List::framed(&mut dec, n, Decoder::skip_value, Decoder::get_value)?,
                }
            }
            2 => {
                let session = dec.get_u64()?;
                let n = dec.get_u32()? as usize;
                if n > payload.len() {
                    return Err(CodecError(format!("validation count {n} exceeds payload")));
                }
                let check = |dec: &mut Decoder<'a>| dec.get_u32().and_then(|_| dec.skip_value());
                let validations = List::framed(&mut dec, n, check, |dec| {
                    Ok((dec.get_u32()?, dec.get_value()?))
                })?;
                EventView::SessionValidated {
                    session,
                    validations,
                }
            }
            3 => EventView::SessionCommitted {
                session: dec.get_u64()?,
            },
            4 => EventView::SessionAborted {
                session: dec.get_u64()?,
            },
            5 => {
                let n = dec.get_u32()? as usize;
                if n * 8 > payload.len() {
                    return Err(CodecError(format!("eviction count {n} exceeds payload")));
                }
                let check = |dec: &mut Decoder<'a>| dec.get_u64().map(drop);
                EventView::SessionsEvicted {
                    sessions: List::framed(&mut dec, n, check, Decoder::get_u64)?,
                }
            }
            6 => EventView::RulesReloaded {
                dsl: dec.get_str()?,
                fingerprint: dec.get_u64()?,
            },
            7 => {
                let n = dec.get_u32()? as usize;
                if n > payload.len() {
                    return Err(CodecError(format!("row count {n} exceeds payload")));
                }
                EventView::MasterAppended {
                    rows: List::framed(&mut dec, n, Decoder::skip_values, Decoder::get_values)?,
                }
            }
            8 => EventView::ConfigSet {
                key: dec.get_str()?,
                value: dec.get_u64()?,
            },
            tag => return Err(CodecError(format!("unknown journal event tag {tag}"))),
        };
        dec.finish()?;
        Ok(event)
    }

    /// The owned event.
    pub fn to_event(&self) -> JournalEvent {
        match *self {
            EventView::SessionCreated { session, values } => JournalEvent::SessionCreated {
                session,
                values: values.to_vec(),
            },
            EventView::SessionValidated {
                session,
                validations,
            } => JournalEvent::SessionValidated {
                session,
                validations: validations.to_vec(),
            },
            EventView::SessionCommitted { session } => JournalEvent::SessionCommitted { session },
            EventView::SessionAborted { session } => JournalEvent::SessionAborted { session },
            EventView::SessionsEvicted { sessions } => JournalEvent::SessionsEvicted {
                sessions: sessions.to_vec(),
            },
            EventView::RulesReloaded { dsl, fingerprint } => JournalEvent::RulesReloaded {
                dsl: dsl.to_string(),
                fingerprint,
            },
            EventView::MasterAppended { rows } => JournalEvent::MasterAppended {
                rows: rows.to_vec(),
            },
            EventView::ConfigSet { key, value } => JournalEvent::ConfigSet {
                key: key.to_string(),
                value,
            },
        }
    }
}

/// A list inside an [`EventView`]: `len` items, encoded back to back in
/// the frame — every one checked when the view was parsed — or in an
/// owned event's `Vec`. Items come out owned: a framed string is built
/// as it is read (in its cell up to 22 bytes, else one allocation), an
/// owned item cloned (a long string shared).
pub struct List<'a, T> {
    len: usize,
    items: Items<'a, T>,
}

enum Items<'a, T> {
    Framed {
        bytes: &'a [u8],
        read: fn(&mut Decoder<'a>) -> Result<T, CodecError>,
    },
    Owned(&'a [T]),
}

impl<'a, T: Clone> List<'a, T> {
    fn owned(items: &'a [T]) -> List<'a, T> {
        List {
            len: items.len(),
            items: Items::Owned(items),
        }
    }

    /// Check `len` items off `dec` with `check`; `read` reads them again
    /// when the list is iterated.
    fn framed(
        dec: &mut Decoder<'a>,
        len: usize,
        check: impl Fn(&mut Decoder<'a>) -> Result<(), CodecError>,
        read: fn(&mut Decoder<'a>) -> Result<T, CodecError>,
    ) -> Result<List<'a, T>, CodecError> {
        let bytes = dec.spanned(|dec| (0..len).try_for_each(|_| check(dec)))?;
        Ok(List {
            len,
            items: Items::Framed { bytes, read },
        })
    }

    /// The items, in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = T> + 'a {
        let items = self.items;
        let mut dec = Decoder::new(match items {
            Items::Framed { bytes, .. } => bytes,
            Items::Owned(_) => &[],
        });
        (0..self.len).map(move |i| match items {
            Items::Framed { read, .. } => {
                read(&mut dec).expect("a framed list is checked when its view is parsed")
            }
            Items::Owned(items) => items[i].clone(),
        })
    }

    /// The items in one `Vec` of exactly their number.
    pub fn to_vec(&self) -> Vec<T> {
        self.iter().collect()
    }
}

impl<T> Clone for List<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for List<'_, T> {}

impl<T> Clone for Items<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for Items<'_, T> {}

impl<T: Clone + std::fmt::Debug> std::fmt::Debug for List<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// A session event framed from values its writer already holds: the
/// borrowed form of [`JournalEvent::SessionCreated`] and
/// [`JournalEvent::SessionValidated`], which the service journals on
/// every `session.create` and `session.validate` without first copying
/// the row or the validations into an owned event. Its frame is the
/// owned event's, byte for byte — one encoder writes both.
#[derive(Debug, Clone, Copy)]
pub enum SessionEvent<'a> {
    /// [`JournalEvent::SessionCreated`].
    Created {
        /// Server-assigned session id.
        session: u64,
        /// The raw tuple as entered, in schema order.
        values: &'a [Value],
    },
    /// [`JournalEvent::SessionValidated`], attribute ids as resolved
    /// against the input schema.
    Validated {
        /// Server-assigned session id.
        session: u64,
        /// `(attribute id, asserted value)` pairs, in the order they
        /// are applied.
        validations: &'a [(usize, Value)],
    },
}

impl SessionEvent<'_> {
    /// Encode as a frame payload at the end of `enc`'s buffer.
    pub(crate) fn encode_into(&self, enc: &mut Encoder<'_>) {
        match *self {
            SessionEvent::Created { session, values } => put_session_created(enc, session, values),
            SessionEvent::Validated {
                session,
                validations,
            } => {
                let pairs = validations
                    .iter()
                    .map(|(attr, value)| (*attr as u32, value));
                put_session_validated(enc, session, pairs);
            }
        }
    }
}

/// The one encoder of a `SessionCreated` payload, owned or borrowed.
fn put_session_created(enc: &mut Encoder<'_>, session: u64, values: &[Value]) {
    enc.put_u8(1);
    enc.put_u64(session);
    enc.put_values(values);
}

/// The one encoder of a `SessionValidated` payload, owned or borrowed.
fn put_session_validated<'v>(
    enc: &mut Encoder<'_>,
    session: u64,
    validations: impl ExactSizeIterator<Item = (u32, &'v Value)>,
) {
    enc.put_u8(2);
    enc.put_u64(session);
    enc.put_u32(validations.len() as u32);
    for (attr, value) in validations {
        enc.put_u32(attr);
        enc.put_value(value);
    }
}

/// One live session's full state inside a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSnapshot {
    /// Server-assigned session id.
    pub session: u64,
    /// Monitor tuple id (audit attribution).
    pub tuple_id: u64,
    /// Completed interaction rounds.
    pub rounds: u64,
    /// Current cell values (fixes already applied).
    pub values: Vec<Value>,
    /// All validated attribute ids.
    pub validated: Vec<u32>,
    /// Attribute ids validated by the user.
    pub user_validated: Vec<u32>,
    /// Attribute ids validated automatically by rules.
    pub auto_validated: Vec<u32>,
}

impl SessionSnapshot {
    pub(crate) fn encode_into(&self, enc: &mut Encoder<'_>) {
        enc.put_u64(self.session);
        enc.put_u64(self.tuple_id);
        enc.put_u64(self.rounds);
        enc.put_values(&self.values);
        enc.put_u32_list(&self.validated);
        enc.put_u32_list(&self.user_validated);
        enc.put_u32_list(&self.auto_validated);
    }

    pub(crate) fn decode_from(dec: &mut Decoder<'_>) -> Result<SessionSnapshot, CodecError> {
        Ok(SessionSnapshot {
            session: dec.get_u64()?,
            tuple_id: dec.get_u64()?,
            rounds: dec.get_u64()?,
            values: dec.get_values()?,
            validated: dec.get_u32_list()?,
            user_validated: dec.get_u32_list()?,
            auto_validated: dec.get_u32_list()?,
        })
    }
}

/// A point-in-time snapshot of service state: everything recovery needs
/// besides the journal suffix written after it.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotData {
    /// Snapshot epoch; the journal whose header carries the same epoch
    /// holds exactly the events after this snapshot.
    pub epoch: u64,
    /// Fingerprint of the rule set active at snapshot time.
    pub fingerprint: u64,
    /// Canonical DSL of that rule set (re-parsed when the fingerprint
    /// differs from the boot rules, i.e. after a hot reload).
    pub rules_dsl: String,
    /// The session-id allocator's next id.
    pub next_session_id: u64,
    /// Master rows appended since boot (journaled appends survive the
    /// journal truncation a snapshot performs by riding in it).
    pub master_appended: Vec<Vec<Value>>,
    /// Every live (uncommitted) session.
    pub sessions: Vec<SessionSnapshot>,
}

impl SnapshotData {
    /// Encode to a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut payload = Vec::new();
        let mut enc = Encoder::new(&mut payload);
        enc.put_u64(self.epoch);
        enc.put_u64(self.fingerprint);
        enc.put_str(&self.rules_dsl);
        enc.put_u64(self.next_session_id);
        enc.put_u32(self.master_appended.len() as u32);
        for row in &self.master_appended {
            enc.put_values(row);
        }
        enc.put_u32(self.sessions.len() as u32);
        for session in &self.sessions {
            session.encode_into(&mut enc);
        }
        payload
    }

    /// Decode from a frame payload.
    pub fn decode(payload: &[u8]) -> Result<SnapshotData, CodecError> {
        let mut dec = Decoder::new(payload);
        let epoch = dec.get_u64()?;
        let fingerprint = dec.get_u64()?;
        let rules_dsl = dec.get_str()?.to_string();
        let next_session_id = dec.get_u64()?;
        let n_rows = dec.get_u32()? as usize;
        if n_rows > payload.len() {
            return Err(CodecError(format!(
                "master row count {n_rows} exceeds payload"
            )));
        }
        let mut master_appended = Vec::with_capacity(n_rows);
        for _ in 0..n_rows {
            master_appended.push(dec.get_values()?);
        }
        let n = dec.get_u32()? as usize;
        if n > payload.len() {
            return Err(CodecError(format!("session count {n} exceeds payload")));
        }
        let mut sessions = Vec::with_capacity(n);
        for _ in 0..n {
            sessions.push(SessionSnapshot::decode_from(&mut dec)?);
        }
        dec.finish()?;
        Ok(SnapshotData {
            epoch,
            fingerprint,
            rules_dsl,
            next_session_id,
            master_appended,
            sessions,
        })
    }
}

/// Encode one audit record as a spill-segment frame payload.
pub fn encode_audit_record(record: &AuditRecord) -> Vec<u8> {
    let mut payload = Vec::new();
    put_audit_record(&mut Encoder::new(&mut payload), record);
    payload
}

/// Encode one audit record as a frame payload at the end of `enc`'s
/// buffer — how the spill writes it in place.
pub(crate) fn put_audit_record(enc: &mut Encoder<'_>, record: &AuditRecord) {
    enc.put_u64(record.tuple_id as u64);
    enc.put_u32(record.attr as u32);
    enc.put_u64(record.round as u64);
    match &record.event {
        CellEvent::UserValidated { old, new } => {
            enc.put_u8(1);
            enc.put_value(old);
            enc.put_value(new);
        }
        CellEvent::RuleFixed {
            rule,
            master_row,
            old,
            new,
        } => {
            enc.put_u8(2);
            enc.put_u64(*rule as u64);
            enc.put_u64(*master_row as u64);
            enc.put_value(old);
            enc.put_value(new);
        }
        CellEvent::RuleConfirmed { rule } => {
            enc.put_u8(3);
            enc.put_u64(*rule as u64);
        }
    }
}

/// Decode one audit record from a spill-segment frame payload.
pub fn decode_audit_record(payload: &[u8]) -> Result<AuditRecord, CodecError> {
    let mut dec = Decoder::new(payload);
    let tuple_id = dec.get_u64()? as usize;
    let attr = dec.get_u32()? as usize;
    let round = dec.get_u64()? as usize;
    let event = match dec.get_u8()? {
        1 => CellEvent::UserValidated {
            old: dec.get_value()?,
            new: dec.get_value()?,
        },
        2 => CellEvent::RuleFixed {
            rule: dec.get_u64()? as usize,
            master_row: dec.get_u64()? as usize,
            old: dec.get_value()?,
            new: dec.get_value()?,
        },
        3 => CellEvent::RuleConfirmed {
            rule: dec.get_u64()? as usize,
        },
        tag => return Err(CodecError(format!("unknown audit event tag {tag}"))),
    };
    dec.finish()?;
    Ok(AuditRecord {
        tuple_id,
        attr,
        round,
        event,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn sample_events() -> Vec<JournalEvent> {
        vec![
            JournalEvent::SessionCreated {
                session: 1,
                values: vec![Value::str("M."), Value::Null, Value::Int(7)],
            },
            JournalEvent::SessionValidated {
                session: 1,
                validations: vec![(0, Value::str("Mark")), (2, Value::Float(1.5))],
            },
            JournalEvent::SessionValidated {
                session: 1,
                validations: vec![],
            },
            JournalEvent::SessionCommitted { session: 1 },
            JournalEvent::SessionAborted { session: 9 },
            JournalEvent::SessionsEvicted {
                sessions: vec![2, 3, 5],
            },
            JournalEvent::SessionsEvicted { sessions: vec![] },
            JournalEvent::RulesReloaded {
                dsl: "er phi1: match zip=zip fix AC:=AC when ()".into(),
                fingerprint: 0xFEED_FACE_CAFE_BEEF,
            },
            JournalEvent::MasterAppended {
                rows: vec![
                    vec![Value::str("G12"), Value::str("0141")],
                    vec![Value::Null, Value::Int(4)],
                ],
            },
            JournalEvent::MasterAppended { rows: vec![] },
            JournalEvent::ConfigSet {
                key: "slow_ms".into(),
                value: 250,
            },
        ]
    }

    #[test]
    fn journal_events_round_trip() {
        for event in sample_events() {
            let bytes = event.encode();
            let back = JournalEvent::decode(&bytes).unwrap();
            assert_eq!(back, event);
            // The encoding is canonical — `encode(decode(p)) == p` — which
            // is why a follower may journal the payload it was sent
            // instead of re-encoding what it decoded.
            assert_eq!(back.encode(), bytes, "{}", event.kind());
        }
    }

    #[test]
    fn session_events_frame_as_their_owned_form() {
        let values = [Value::str("M."), Value::Null, Value::Int(7)];
        let validations = [(0, Value::str("Mark")), (2, Value::Float(1.5))];
        let borrowed = |event: SessionEvent<'_>| {
            let mut payload = Vec::new();
            event.encode_into(&mut Encoder::new(&mut payload));
            payload
        };
        let created = SessionEvent::Created {
            session: 1,
            values: &values,
        };
        let owned = JournalEvent::SessionCreated {
            session: 1,
            values: values.to_vec(),
        };
        assert_eq!(borrowed(created), owned.encode());
        for n in [0, 2] {
            let validated = SessionEvent::Validated {
                session: 1,
                validations: &validations[..n],
            };
            let owned = JournalEvent::SessionValidated {
                session: 1,
                validations: validations[..n]
                    .iter()
                    .map(|(attr, value)| (*attr as u32, value.clone()))
                    .collect(),
            };
            assert_eq!(borrowed(validated), owned.encode());
        }
    }

    #[test]
    fn journal_event_rejects_garbage() {
        assert!(JournalEvent::decode(&[]).is_err());
        assert!(JournalEvent::decode(&[99]).is_err());
        // Valid event with a trailing byte is rejected (strict frames).
        let mut bytes = JournalEvent::SessionCommitted { session: 3 }.encode();
        bytes.push(0);
        assert!(JournalEvent::decode(&bytes).is_err());
        // Truncated payload.
        let bytes = JournalEvent::SessionCommitted { session: 3 }.encode();
        assert!(JournalEvent::decode(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn snapshot_round_trips() {
        let data = SnapshotData {
            epoch: 4,
            fingerprint: 77,
            rules_dsl: "er r: match a=a fix b:=b when ()".into(),
            next_session_id: 42,
            master_appended: vec![vec![Value::str("G12"), Value::str("Gla")]],
            sessions: vec![
                SessionSnapshot {
                    session: 7,
                    tuple_id: 7,
                    rounds: 2,
                    values: vec![Value::str("x"), Value::Null],
                    validated: vec![0, 1],
                    user_validated: vec![0],
                    auto_validated: vec![1],
                },
                SessionSnapshot {
                    session: 12,
                    tuple_id: 12,
                    rounds: 0,
                    values: vec![],
                    validated: vec![],
                    user_validated: vec![],
                    auto_validated: vec![],
                },
            ],
        };
        let bytes = data.encode();
        assert_eq!(SnapshotData::decode(&bytes).unwrap(), data);
        assert!(SnapshotData::decode(&bytes[..bytes.len() - 3]).is_err());
    }

    fn sample_records() -> Vec<AuditRecord> {
        vec![
            AuditRecord {
                tuple_id: 3,
                attr: 1,
                round: 1,
                event: CellEvent::UserValidated {
                    old: Value::Null,
                    new: Value::str("Edi"),
                },
            },
            AuditRecord {
                tuple_id: 4,
                attr: 2,
                round: 2,
                event: CellEvent::RuleFixed {
                    rule: 5,
                    master_row: 9,
                    old: Value::str("020"),
                    new: Value::str("131"),
                },
            },
            AuditRecord {
                tuple_id: 5,
                attr: 0,
                round: 1,
                event: CellEvent::RuleConfirmed { rule: usize::MAX },
            },
        ]
    }

    #[test]
    fn audit_records_round_trip() {
        for record in sample_records() {
            let bytes = encode_audit_record(&record);
            assert_eq!(decode_audit_record(&bytes).unwrap(), record);
        }
    }

    /// The on-disk format is pinned, not assumed: an in-place append
    /// writes exactly `frame(encode(e))` for every journal event kind
    /// and every audit event kind, and those bytes are the ones written
    /// when each event was first encoded into a `Vec` of its own and
    /// then framed (length and CRC-32 of each file's frames below).
    #[test]
    fn in_place_appends_write_the_frames_encode_and_frame_build() {
        use crate::{codec, scan_journal, AuditSpill, Journal, RealFs, StorageFs, JOURNAL_HEADER};
        use cerfix::AuditSink;
        use std::sync::Arc;
        const JOURNAL_FRAMES: (usize, u32) = (341, 0xADA7_E55F);
        const AUDIT_FRAMES: (usize, u32) = (136, 0x1E1C_336B);
        let dir = std::env::temp_dir().join(format!("cerfix-events-pin-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let fs: Arc<dyn StorageFs> = Arc::new(RealFs);
        let pinned = |bytes: &[u8]| (bytes.len(), codec::crc32(bytes));

        let path = dir.join("journal.wal");
        let scan = scan_journal(&path).unwrap();
        let journal = Journal::open(&path, &scan, 0, Duration::from_secs(3600), &fs).unwrap();
        let last = sample_events().iter().fold(0, |_, e| journal.append(e));
        journal.sync(last).unwrap();
        drop(journal);
        let framed: Vec<u8> = sample_events()
            .iter()
            .flat_map(|e| codec::frame(&e.encode()))
            .collect();
        let written = std::fs::read(&path).unwrap();
        assert_eq!(written[JOURNAL_HEADER as usize..], framed);
        assert_eq!(pinned(&framed), JOURNAL_FRAMES);

        let path = dir.join("audit.seg");
        let (spill, _) = AuditSpill::open(&path, &fs).unwrap();
        sample_records().iter().for_each(|r| spill.append(r));
        spill.sync().unwrap();
        drop(spill);
        let framed: Vec<u8> = sample_records()
            .iter()
            .flat_map(|r| codec::frame(&encode_audit_record(r)))
            .collect();
        let written = std::fs::read(&path).unwrap();
        assert_eq!(written[crate::spill::SEGMENT_HEADER as usize..], framed);
        assert_eq!(pinned(&framed), AUDIT_FRAMES);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
