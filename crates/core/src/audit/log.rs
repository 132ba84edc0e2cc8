//! The audit log: every change to every cell, with provenance.
//!
//! Paper §2 (data auditing): *"This module keeps track of changes to each
//! tuple, incurred either by the users or automatically by data monitor
//! with editing rules and master data. Statistics about the changes can be
//! retrieved upon users' requests."* Fig. 4 shows both views implemented
//! here: per-cell history ("fixed by normalizing the first name 'M.' to
//! 'Mark'", with the master tuple and rule responsible) and per-attribute
//! statistics (user-validated vs. CerFix-fixed percentages).
//!
//! A log keeps its records in one of two places. *In memory* it holds
//! them itself — every record (the default, what library callers and
//! tests use), or the newest `cap` of them ([`AuditLog::windowed`], a
//! long-lived service without a disk, which would otherwise grow without
//! bound). *Over a sink* it holds none: an [`AuditSink`] — an
//! append-only archive with its own lock, which long-lived services
//! implement with a disk segment (`cerfix-storage`'s audit spill) — is
//! the one copy of every record, and the log is a view of it. Records
//! are globally indexed in append order; [`read_range`] serves an index
//! from wherever it lives, and an evicted one from nowhere.
//!
//! [`read_range`]: AuditLog::read_range

use cerfix_relation::{AttrId, RowId, Value};
use cerfix_rules::RuleId;
use parking_lot::RwLock;
use std::collections::VecDeque;
use std::sync::Arc;

/// Who validated a cell, and how.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CellEvent {
    /// The user validated the cell, possibly correcting its value.
    UserValidated {
        /// Value before validation.
        old: Value,
        /// Value asserted by the user.
        new: Value,
    },
    /// A rule fixed the cell from master data (value changed).
    RuleFixed {
        /// The rule responsible.
        rule: RuleId,
        /// The master row the value came from.
        master_row: RowId,
        /// Value before the fix.
        old: Value,
        /// Value copied from master.
        new: Value,
    },
    /// A rule confirmed the cell's existing value (validated, unchanged).
    RuleConfirmed {
        /// The rule responsible.
        rule: RuleId,
    },
}

impl CellEvent {
    /// True iff the event originated from the user.
    pub fn is_user(&self) -> bool {
        matches!(self, CellEvent::UserValidated { .. })
    }

    /// True iff the event changed the cell's value.
    pub fn changed_value(&self) -> bool {
        match self {
            CellEvent::UserValidated { old, new } => old != new,
            CellEvent::RuleFixed { .. } => true,
            CellEvent::RuleConfirmed { .. } => false,
        }
    }
}

/// One audit record: an event on one cell of one monitored tuple.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditRecord {
    /// Monitor-assigned tuple id (stream position).
    pub tuple_id: usize,
    /// The affected attribute.
    pub attr: AttrId,
    /// Interaction round in which the event occurred (1-based).
    pub round: usize,
    /// What happened.
    pub event: CellEvent,
}

/// Append-only archive behind an [`AuditLog`] over a sink.
///
/// The sink receives every record in append order and must serve ranged
/// reads over everything it has received (records are addressed by their
/// global append index). Its own lock orders concurrent appends: the
/// `i`-th append it serializes is record `i`. `cerfix-storage`
/// implements this with an append-only segment file plus an offset
/// index; tests use an in-memory vector.
pub trait AuditSink: Send + Sync {
    /// Archive one record. Index `i` of the `i`-th call (0-based) is the
    /// record's global index.
    fn append(&self, record: &AuditRecord);
    /// Read up to `count` records starting at global index `start`.
    fn read(&self, start: usize, count: usize) -> Vec<AuditRecord>;
    /// Number of records archived.
    fn len(&self) -> usize;
    /// True iff no records have been archived.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[derive(Default)]
struct Window {
    /// Most recent records; `records[0]` has global index `base`.
    records: VecDeque<AuditRecord>,
    /// Global index of the first resident record (= records evicted).
    base: usize,
}

/// Where a log's records live.
enum Store {
    /// Resident, the newest `cap` kept.
    Memory { window: RwLock<Window>, cap: usize },
    /// In the sink alone.
    Sink(Arc<dyn AuditSink>),
}

/// Append-only audit log, shareable across concurrent monitor sessions.
pub struct AuditLog {
    store: Store,
}

impl Default for AuditLog {
    fn default() -> AuditLog {
        AuditLog::new()
    }
}

impl std::fmt::Debug for AuditLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AuditLog")
            .field("records", &self.len())
            .field("spilled", &self.spilled())
            .field("sinked", &self.sink().is_some())
            .finish()
    }
}

impl AuditLog {
    /// Create an empty, unbounded in-memory log (nothing is ever
    /// evicted).
    pub fn new() -> AuditLog {
        AuditLog::windowed(usize::MAX)
    }

    /// Create an empty in-memory log keeping the newest `cap` records
    /// (at least one). Older ones are evicted: they still count in
    /// [`len`](Self::len) and [`spilled`](Self::spilled), but no read
    /// serves them.
    pub fn windowed(cap: usize) -> AuditLog {
        AuditLog {
            store: Store::Memory {
                window: RwLock::new(Window::default()),
                cap: cap.max(1),
            },
        }
    }

    /// Create a log over `sink`, which holds every record: none stays
    /// resident here. Over a sink that already holds records (recovery
    /// over an existing archive) the log continues its numbering.
    pub fn with_sink(sink: Arc<dyn AuditSink>) -> AuditLog {
        AuditLog {
            store: Store::Sink(sink),
        }
    }

    /// The sink, if this log is over one.
    pub fn sink(&self) -> Option<&Arc<dyn AuditSink>> {
        match &self.store {
            Store::Memory { .. } => None,
            Store::Sink(sink) => Some(sink),
        }
    }

    /// Append a record.
    pub fn record(&self, record: AuditRecord) {
        match &self.store {
            Store::Memory { window, cap } => {
                let mut window = window.write();
                if window.records.len() == *cap {
                    window.records.pop_front();
                    window.base += 1;
                }
                window.records.push_back(record);
            }
            Store::Sink(sink) => sink.append(&record),
        }
    }

    /// Snapshot of the resident (in-memory) records: every record of an
    /// unbounded log, the newest of a windowed one, none over a sink.
    pub fn records(&self) -> Vec<AuditRecord> {
        match &self.store {
            Store::Memory { window, .. } => window.read().records.iter().cloned().collect(),
            Store::Sink(_) => Vec::new(),
        }
    }

    /// Total records ever appended (resident or not).
    pub fn len(&self) -> usize {
        match &self.store {
            Store::Memory { window, .. } => {
                let window = window.read();
                window.base + window.records.len()
            }
            Store::Sink(sink) => sink.len(),
        }
    }

    /// Records not resident in memory: every record over a sink, the
    /// evicted ones in a windowed log, none in an unbounded one.
    pub fn spilled(&self) -> usize {
        match &self.store {
            Store::Memory { window, .. } => window.read().base,
            Store::Sink(sink) => sink.len(),
        }
    }

    /// True iff no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Read up to `count` records starting at global append index
    /// `start`, in order: from the sink, or from memory. Out-of-range
    /// indices yield an empty / shortened result, and so does a start
    /// below a windowed log's oldest resident record (those are gone).
    pub fn read_range(&self, start: usize, count: usize) -> Vec<AuditRecord> {
        match &self.store {
            Store::Memory { window, .. } => {
                let window = window.read();
                let Some(from) = start.checked_sub(window.base) else {
                    return Vec::new();
                };
                window
                    .records
                    .iter()
                    .skip(from)
                    .take(count)
                    .cloned()
                    .collect()
            }
            Store::Sink(sink) => sink.read(start, count),
        }
    }

    /// Run `f` over every readable record in append order — streamed
    /// from the sink in chunks, or the resident records. The cold path
    /// behind the history queries and
    /// [`AuditStats`](crate::audit::AuditStats).
    pub fn for_each_record(&self, mut f: impl FnMut(&AuditRecord)) {
        match &self.store {
            Store::Memory { window, .. } => window.read().records.iter().for_each(f),
            Store::Sink(sink) => {
                const CHUNK: usize = 1024;
                let (mut at, total) = (0, sink.len());
                while at < total {
                    let chunk = sink.read(at, CHUNK.min(total - at));
                    if chunk.is_empty() {
                        break;
                    }
                    at += chunk.len();
                    chunk.iter().for_each(&mut f);
                }
            }
        }
    }

    /// History of one tuple, in event order (Fig. 4's per-tuple
    /// inspection). Includes sink-archived records.
    pub fn tuple_history(&self, tuple_id: usize) -> Vec<AuditRecord> {
        let mut out = Vec::new();
        self.for_each_record(|r| {
            if r.tuple_id == tuple_id {
                out.push(r.clone());
            }
        });
        out
    }

    /// History of one cell of one tuple. Includes sink-archived records.
    pub fn cell_history(&self, tuple_id: usize, attr: AttrId) -> Vec<AuditRecord> {
        let mut out = Vec::new();
        self.for_each_record(|r| {
            if r.tuple_id == tuple_id && r.attr == attr {
                out.push(r.clone());
            }
        });
        out
    }

    /// All events on one attribute across tuples (Fig. 4's per-column
    /// inspection). Includes sink-archived records.
    pub fn attr_events(&self, attr: AttrId) -> Vec<AuditRecord> {
        let mut out = Vec::new();
        self.for_each_record(|r| {
            if r.attr == attr {
                out.push(r.clone());
            }
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(tuple_id: usize, attr: AttrId, round: usize, event: CellEvent) -> AuditRecord {
        AuditRecord {
            tuple_id,
            attr,
            round,
            event,
        }
    }

    #[test]
    fn record_and_query() {
        let log = AuditLog::new();
        assert!(log.is_empty());
        log.record(rec(
            0,
            2,
            1,
            CellEvent::UserValidated {
                old: Value::str("020"),
                new: Value::str("131"),
            },
        ));
        log.record(rec(
            0,
            6,
            1,
            CellEvent::RuleFixed {
                rule: 3,
                master_row: 1,
                old: Value::str("M."),
                new: Value::str("Mark"),
            },
        ));
        log.record(rec(1, 2, 1, CellEvent::RuleConfirmed { rule: 0 }));
        assert_eq!(log.len(), 3);
        assert_eq!(log.tuple_history(0).len(), 2);
        assert_eq!(log.tuple_history(1).len(), 1);
        assert_eq!(log.cell_history(0, 6).len(), 1);
        assert_eq!(log.attr_events(2).len(), 2);
        assert_eq!(log.spilled(), 0);
        assert_eq!(log.read_range(1, 10).len(), 2);
        assert_eq!(log.read_range(3, 10).len(), 0);
    }

    #[test]
    fn event_classification() {
        let user = CellEvent::UserValidated {
            old: Value::str("a"),
            new: Value::str("a"),
        };
        assert!(user.is_user());
        assert!(!user.changed_value(), "confirming an already-correct value");
        let corrected = CellEvent::UserValidated {
            old: Value::str("a"),
            new: Value::str("b"),
        };
        assert!(corrected.changed_value());
        let fixed = CellEvent::RuleFixed {
            rule: 0,
            master_row: 0,
            old: Value::Null,
            new: Value::str("x"),
        };
        assert!(!fixed.is_user());
        assert!(fixed.changed_value());
        let confirmed = CellEvent::RuleConfirmed { rule: 0 };
        assert!(!confirmed.is_user());
        assert!(!confirmed.changed_value());
    }

    #[test]
    fn shared_across_threads() {
        use std::sync::Arc;
        let log = Arc::new(AuditLog::new());
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let log = Arc::clone(&log);
                std::thread::spawn(move || {
                    for i in 0..100 {
                        log.record(rec(t, i % 5, 1, CellEvent::RuleConfirmed { rule: 0 }));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(log.len(), 400);
    }

    /// Sink used by the sink tests: the full archive in a mutex'd vec.
    #[derive(Debug, Default)]
    struct VecSink {
        records: std::sync::Mutex<Vec<AuditRecord>>,
    }

    impl AuditSink for VecSink {
        fn append(&self, record: &AuditRecord) {
            self.records.lock().unwrap().push(record.clone());
        }
        fn read(&self, start: usize, count: usize) -> Vec<AuditRecord> {
            let records = self.records.lock().unwrap();
            records.iter().skip(start).take(count).cloned().collect()
        }
        fn len(&self) -> usize {
            self.records.lock().unwrap().len()
        }
    }

    fn confirmed(i: usize) -> AuditRecord {
        rec(i, i % 3, 1, CellEvent::RuleConfirmed { rule: i })
    }

    /// Over a sink the log keeps nothing resident: every record is
    /// spilled, and every read — history queries included — goes
    /// through the sink. A windowed in-memory log keeps the newest
    /// records, counts the evicted ones as spilled, and serves no read
    /// that starts below its oldest resident record.
    #[test]
    fn windowed_log_spills_to_sink_and_reads_across_boundary() {
        let sink = Arc::new(VecSink::default());
        let log = AuditLog::with_sink(Arc::clone(&sink) as Arc<dyn AuditSink>);
        for i in 0..10 {
            log.record(confirmed(i));
        }
        assert_eq!(log.len(), 10);
        assert_eq!(log.spilled(), 10, "the sink is the window");
        assert!(log.records().is_empty(), "nothing resident");
        assert_eq!(sink.len(), 10, "sink archives everything");
        assert_eq!(
            log.read_range(4, 4),
            (4..8).map(confirmed).collect::<Vec<_>>()
        );
        assert_eq!(log.tuple_history(0).len(), 1);
        assert_eq!(log.attr_events(0).len(), 4, "tuples 0,3,6,9");
        // Reads past the end clamp.
        assert_eq!(log.read_range(8, 100).len(), 2);
        assert_eq!(log.read_range(100, 10).len(), 0);

        let windowed = AuditLog::windowed(4);
        for i in 0..10 {
            windowed.record(confirmed(i));
        }
        assert_eq!(windowed.len(), 10, "the total counts evicted records");
        assert_eq!(
            windowed.spilled(),
            6,
            "window of 4 keeps the last 4 resident"
        );
        assert_eq!(
            windowed.records(),
            (6..10).map(confirmed).collect::<Vec<_>>()
        );
        assert!(
            windowed.read_range(4, 4).is_empty(),
            "starts below the window"
        );
        assert_eq!(
            windowed.read_range(7, 100),
            (7..10).map(confirmed).collect::<Vec<_>>()
        );
        assert!(windowed.tuple_history(0).is_empty(), "evicted");
        assert_eq!(windowed.attr_events(0).len(), 2, "tuples 6,9");
    }

    #[test]
    fn windowed_log_resumes_over_populated_sink() {
        let sink = Arc::new(VecSink::default());
        for i in 0..5 {
            sink.append(&rec(i, 0, 1, CellEvent::RuleConfirmed { rule: 0 }));
        }
        // Recovery shape: a fresh log over an archive with history.
        let log = AuditLog::with_sink(Arc::clone(&sink) as Arc<dyn AuditSink>);
        assert_eq!(log.len(), 5);
        assert_eq!(log.spilled(), 5);
        log.record(rec(9, 1, 1, CellEvent::RuleConfirmed { rule: 1 }));
        assert_eq!(log.len(), 6);
        let all = log.read_range(0, 10);
        assert_eq!(all.len(), 6);
        assert_eq!(all[5].tuple_id, 9);
    }
}
