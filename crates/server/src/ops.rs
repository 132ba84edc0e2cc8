//! The op table: the one place a protocol op is described.
//!
//! Every op is one row of [`OPS`] — wire name, shed class, and whether
//! it mutates state (and so needs a writable primary). The row's index
//! is the op's latency slot.
//! [`scan_line`](crate::protocol::scan_line), the one pass over a
//! request line, resolves its `op` string to its row, and everything
//! that used to keep a list of its own reads that row instead: the
//! admission shedder (`class`), the mutation gate (`writes`), the
//! latency histograms and trace spans (`slot`), and the field reader
//! (`Request::parse`).
//!
//! Adding an op is one row here, one [`Request`](crate::Request)
//! variant with its parse arm, and one handler — a method that writes
//! its reply through the `Reply` it is handed — with its arm in the
//! service's `dispatch`; the exhaustive matches over [`OpId`] and
//! `Request` make the compiler reject a variant without a row or a
//! handler.

use crate::admission::Priority::{self, Critical, Heavy, Session};

/// One row of the op table.
#[derive(Debug)]
pub(crate) struct Op {
    /// Which op this is; `None` for the two latency classes that are
    /// not ops ([`PARSE_ERROR`], [`OTHER`]).
    pub id: Option<OpId>,
    /// The `"op"` string on the wire (and the latency class label).
    pub name: &'static str,
    /// Shed class: what the admission shedder refuses first.
    pub class: Priority,
    /// The op mutates journaled state, so it needs a primary with
    /// writable storage.
    pub writes: bool,
    /// Index into the latency histograms and per-op engine totals (the
    /// row's index in [`OPS`]).
    pub slot: usize,
}

/// Declares [`OpId`], [`OPS`] and [`lookup`] from one list of rows, so
/// the enum, the table and the name match cannot disagree.
macro_rules! op_table {
    ($($id:ident = $name:literal $(| $alias:literal)?, $class:ident, $writes:literal;)*) => {
        /// An op's identity: its row index in [`OPS`].
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub(crate) enum OpId { $($id),* }

        /// The op table, in latency-slot order.
        pub(crate) static OPS: &[Op] = &[$(Op {
            id: Some(OpId::$id),
            name: $name,
            class: $class,
            writes: $writes,
            slot: OpId::$id as usize,
        }),*];

        /// The op a wire `op` string names (aliases included).
        pub(crate) fn lookup(name: &str) -> Option<OpId> {
            match name {
                $($name $(| $alias)? => Some(OpId::$id),)*
                _ => None,
            }
        }
    };
}

// Shed classes. Critical — operational introspection, replication and
// the control plane — is never shed: an overloaded server that goes
// dark to its operators and peers cannot be diagnosed. Heavy —
// whole-relation reads — goes first; Session — real user work — only at
// the highest shed level.
op_table! {
//  id              wire name                     class     writes
    Hello          = "hello",                     Critical, false;
    SessionCreate  = "session.create",            Session,  true;
    SessionGet     = "session.get",               Session,  false;
    SessionValidate = "session.validate",         Session,  true;
    SessionFix     = "session.fix",               Session,  true;
    SessionCommit  = "session.commit",            Session,  true;
    SessionAbort   = "session.abort",             Session,  true;
    Clean          = "clean",                     Heavy,    false;
    Regions        = "regions",                   Heavy,    false;
    Check          = "check",                     Heavy,    false;
    AuditRead      = "audit.read",                Heavy,    false;
    RulesReload    = "rules.reload",              Session,  true;
    MasterAppend   = "master.append",             Session,  true;
    // `stats` is an alias kept for operational tooling symmetry.
    Metrics        = "metrics" | "stats",         Critical, false;
    MetricsProm    = "metrics.prom",              Critical, false;
    TraceRead      = "trace.read",                Critical, false;
    ReplicaSync    = "replica.sync",              Critical, false;
    ReplicaPromote = "replica.promote",           Critical, false;
    Health         = "health",                    Critical, false;
    LogRead        = "log.read",                  Critical, false;
    MetricsHistory = "metrics.history",           Critical, false;
    ClusterStatus  = "cluster.status",            Critical, false;
    ConfigSet      = "config.set",                Critical, true;
    Scrub          = "scrub",                     Critical, false;
    Drain          = "server.drain",              Critical, false;
    Shutdown       = "shutdown",                  Critical, false;
}

impl OpId {
    /// This op's row.
    pub(crate) fn row(self) -> &'static Op {
        &OPS[self as usize]
    }
}

/// Latency class of a line that is not JSON. Never resolved from a
/// name, so its class is never consulted.
pub(crate) static PARSE_ERROR: Op = Op {
    id: None,
    name: "parse_error",
    class: Session,
    writes: false,
    slot: OPS.len(),
};

/// Latency class of a well-formed line that names no row: a missing or
/// non-string `op`, or a name not in the table. Shed as `Session` — the
/// line is refused anyway, and `Critical` would let garbage bypass the
/// shedder.
pub(crate) static OTHER: Op = Op {
    id: None,
    name: "other",
    class: Session,
    writes: false,
    slot: OPS.len() + 1,
};

/// Number of latency slots: one per row plus the two classes above.
pub(crate) const SLOTS: usize = OPS.len() + 2;

/// Every latency class in slot order.
pub(crate) fn classes() -> impl Iterator<Item = &'static Op> {
    OPS.iter().chain([&PARSE_ERROR, &OTHER])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_are_distinct_and_only_ops_have_names_on_the_wire() {
        for (slot, class) in classes().enumerate() {
            assert_eq!(class.slot, slot, "{}", class.name);
            assert_eq!(lookup(class.name), class.id, "{}", class.name);
        }
        assert_eq!(classes().count(), SLOTS);
        assert_eq!(lookup("stats"), Some(OpId::Metrics));
    }

    /// The README's protocol table is this table: the same ops, in any
    /// order, with the same class / writes columns.
    #[test]
    fn readme_protocol_table_matches_the_op_table() {
        let readme = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md"));
        let reference = readme
            .split("### Protocol reference")
            .nth(1)
            .expect("README has a protocol reference");
        let mut documented: Vec<String> = reference
            .lines()
            .skip_while(|line| !line.starts_with("| op |"))
            .skip(2)
            .take_while(|line| line.starts_with('|'))
            .map(|line| {
                let cells: Vec<&str> = line.split('|').map(str::trim).collect();
                let name = cells[1].split('`').nth(1).expect("op name in backticks");
                format!("{name} | {} | {}", cells[2], cells[3])
            })
            .collect();
        documented.sort_unstable();
        let mut table: Vec<String> = OPS
            .iter()
            .map(|op| {
                format!(
                    "{} | {} | {}",
                    op.name,
                    format!("{:?}", op.class).to_lowercase(),
                    if op.writes { "yes" } else { "no" },
                )
            })
            .collect();
        table.sort_unstable();
        assert_eq!(documented, table);
    }
}
