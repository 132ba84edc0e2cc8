//! # cerfix-server — a concurrent multi-session cleaning service
//!
//! The CerFix demo runs at the *point of data entry*: one master
//! database and one rule set serve many clerks entering tuples at once.
//! This crate is that deployment shape for the reproduction — a
//! long-lived service over the core [`DataMonitor`](cerfix::DataMonitor)
//! instead of a single-caller library object:
//!
//! * [`CleaningService`] — shared `Arc<MasterData>` + `Arc<RuleSet>`
//!   behind a session manager (create / attach / validate / fix /
//!   commit / abort by session id, with idle eviction), region searches
//!   and consistency verdicts kept with the installed rule set and master
//!   they were computed from, and an admission shedder fed the requests
//!   in flight. A long batch `clean` fans its tuples out across up to
//!   `--workers` threads: its connection's own and scoped helpers from
//!   one service-wide budget of `workers - 1`.
//! * [`Server`] — a line-delimited-JSON-over-TCP front end
//!   (`std::net`, no async runtime, no serialization dependency — see
//!   [`wire`]).
//! * [`Client`] / [`LocalClient`] — the same typed client over a socket
//!   or wired directly into an in-process service.
//!
//! The protocol reference lives in the repository README. Start a
//! server from the CLI with:
//!
//! ```text
//! cerfix serve --master M.csv --rules R.dsl --addr 127.0.0.1:7117 --workers 8
//! ```
//!
//! ## In-process example
//!
//! ```
//! use cerfix_server::{CleaningService, LocalClient, ServiceConfig};
//! use cerfix::MasterData;
//! use cerfix_relation::{RelationBuilder, Schema, Value};
//! use cerfix_rules::{parse_rules, RuleDecl, RuleSet};
//! use std::sync::Arc;
//!
//! let input = Schema::of_strings("customer",
//!     ["FN", "LN", "AC", "phn", "type", "str", "city", "zip", "item"]).unwrap();
//! let ms = Schema::of_strings("master",
//!     ["FN", "LN", "AC", "Hphn", "Mphn", "str", "city", "zip", "DoB", "gender"]).unwrap();
//! let master = MasterData::new(RelationBuilder::new(ms.clone())
//!     .row_strs(["Robert", "Brady", "131", "6884563", "079172485",
//!                "501 Elm St", "Edi", "EH8 4AH", "11/11/55", "M"])
//!     .build().unwrap());
//! let mut rules = RuleSet::new(input.clone(), ms.clone());
//! for decl in parse_rules("er phi1: match zip=zip fix AC:=AC when ()",
//!                         &input, &ms).unwrap() {
//!     if let RuleDecl::Er(r) = decl { rules.add(r).unwrap(); }
//! }
//!
//! let service = CleaningService::new(
//!     Arc::new(master), Arc::new(rules), ServiceConfig::default());
//! let mut client = LocalClient::in_process(&service);
//! let view = client.create_session(
//!     ["Bob", "Brady", "020", "079172485", "2", "501 Elm St", "Edi", "EH8 4AH", "CD"]
//!         .iter().map(Value::str).collect()).unwrap();
//! let after = client
//!     .validate(view.session, vec![("zip".into(), Value::str("EH8 4AH"))])
//!     .unwrap();
//! // φ1 copied the certain fix AC := 131 from master data.
//! assert_eq!(after.tuple[2], Value::str("131"));
//! ```

// `deny` (not `forbid`) so the one FFI island — the fsprobe's `statvfs`
// free-space probe — can carve out its `#[allow(unsafe_code)]`; every
// other module stays unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod admin;
mod admission;
#[cfg(test)]
mod alloc_count;
mod client;
mod diag;
mod engine;
mod errors;
mod fsprobe;
mod health;
mod metrics;
mod net;
mod ops;
pub mod protocol;
mod recovery;
mod replication;
mod seqring;
mod service;
mod session;
mod session_ops;
mod timeseries;
mod trace;
pub mod wire;

pub use client::{
    AuditPage, AuditRecordView, CleanOutcomeView, Client, ClientError, CommitView, LocalClient,
    LocalTransport, RetryBudget, RetryPolicy, SessionView, TcpTransport, Transport,
};
pub use engine::ruleset_fingerprint;
pub use errors::{ErrorCode, ServeError};
pub use metrics::{MetricsSnapshot, OpLatency};
pub use net::{Frontend, Server, ServerHandle};
pub use protocol::RequestScratch;
pub use protocol::{Request, PROTOCOL_VERSION};
pub use replication::Role;
pub use service::{CleaningService, ServiceConfig};
pub use session::{SessionError, SessionManager};
// Storage types most embedders need, re-exported so `cerfix-server`
// alone is enough to build a journaled service.
pub use cerfix_storage::{Storage, StorageConfig};

#[cfg(test)]
mod tests;
