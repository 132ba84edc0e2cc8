//! The error table, row by row, and v10 against v9, line by line.
//!
//! * **Every row of `errors!` has a fixture.** `FIXTURES` elicits each
//!   code from a running node — in process through `handle_line`, over
//!   TCP only for the refusals made at accept time, with `FaultFs` for
//!   the two a failing disk causes — and the test checks the reply's
//!   `code`, the row's `retryable` column, the extra field (a follower's
//!   `redirect` is its primary), and what the client makes of the line.
//!   A row without a fixture fails: adding an error is a row *and* a way
//!   to see it.
//! * **A v10 refusal is the v9 refusal plus `code` (and `redirect`).**
//!   `GOLDEN_V9` holds 100 failing request lines — every op × missing
//!   field / wrong type, unknown sessions, expired deadlines, a draining
//!   node, a follower, a fenced primary, a full disk, a poisoned journal,
//!   a quorum that never forms — with the replies the commit before
//!   replies had a `code` (`93d9706`) gave, captured by running this
//!   file's corpus against it. Cut `code` and `redirect` out of today's
//!   reply and the two are equal byte for byte. (The shed lines, which
//!   need a held worker pool, are pinned the same way in the server
//!   crate's `op_table_drives_parsing_gating_and_shedding`.)
//! * **Rows walked in place answer as before.** `GOLDEN_ROWS` holds
//!   `clean` and `master.append` lines — rows that are not arrays,
//!   container and escaped cells, empty rows, a flaw inside a cell, cells
//!   of the wrong type — with the replies the parser gave before it
//!   walked rows in place and crossed string bodies a word at a time.
//!   Only the type errors changed, on purpose (`RETYPED`): they name the
//!   row, and the value's type instead of its Rust `Debug` form.

use cerfix::MasterData;
use cerfix_relation::{RelationBuilder, Schema};
use cerfix_rules::{EditingRule, PatternTuple, RuleSet};
use cerfix_server::wire::Json;
use cerfix_server::{
    CleaningService, Client, ClientError, ErrorCode, LocalClient, Request, Server, ServiceConfig,
    StorageConfig,
};
use cerfix_storage::{FaultFs, FaultPlan};
use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

// ---------------------------------------------------------------------
// The nodes. Nothing down to `failing_lines` names an error code: the
// same text compiled against `93d9706` produced the goldens.
// ---------------------------------------------------------------------

fn kv_setup() -> (Arc<MasterData>, Arc<RuleSet>) {
    let input = Schema::of_strings("in", ["key", "val", "note"]).unwrap();
    let ms = Schema::of_strings("m", ["key", "val"]).unwrap();
    let mut builder = RelationBuilder::new(ms.clone());
    for i in 0..20 {
        builder = builder.row_strs([format!("k{i}"), format!("v{i}")]);
    }
    let master = MasterData::new(builder.build().unwrap());
    let mut rules = RuleSet::new(input.clone(), ms.clone());
    let (lhs, rhs) = (vec![(0, 0)], vec![(1, 1)]);
    let rule = EditingRule::new("kv", &input, &ms, lhs, rhs, PatternTuple::empty()).unwrap();
    rules.add(rule).unwrap();
    (Arc::new(master), Arc::new(rules))
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cerfix-errors-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config() -> ServiceConfig {
    ServiceConfig {
        workers: 1,
        precompute_regions: false,
        ..ServiceConfig::default()
    }
}

fn memory(config: ServiceConfig) -> CleaningService {
    let (master, rules) = kv_setup();
    CleaningService::new(master, rules, config)
}

/// A journaled kv service that snapshots only when told to, on `fs`.
fn journaled(dir: &Path, config: ServiceConfig, fs: Option<&FaultFs>) -> CleaningService {
    let (master, rules) = kv_setup();
    let mut storage = StorageConfig::new(dir);
    storage.flush_interval = Duration::from_millis(1);
    storage.snapshot_interval = Duration::from_secs(3600);
    storage.snapshot_every_events = u64::MAX;
    if let Some(fs) = fs {
        storage.fs = Arc::new(fs.clone());
    }
    CleaningService::with_storage(master, rules, config, storage).expect("open storage")
}

const CREATE: &str = r#"{"op":"session.create","tuple":["k1","WRONG","n"]}"#;
const APPEND: &str = r#"{"op":"master.append","tuples":[["k90","v90"]]}"#;
/// A replica at epoch 3 speaks to a primary at epoch 0: it is fenced.
const FENCING_SYNC: &str = r#"{"op":"replica.sync","follower":"f9","epoch":3,"offset":0}"#;

/// Start a drain that outlasts the test.
fn drain(service: &CleaningService) {
    let reply = service.handle_line(r#"{"op":"server.drain","wait_ms":600000}"#);
    assert!(reply.starts_with("{\"ok\":true"), "{reply}");
}

/// A follower of a primary that is not there: it never catches up, and
/// it must not need to in order to refuse.
fn follower(dir: &Path, primary: &str) -> CleaningService {
    let config = ServiceConfig {
        replicate_from: Some(primary.to_string()),
        ..config()
    };
    journaled(dir, config, None)
}

/// A primary whose disk filled under `master.append`; also the reply
/// that said so.
fn degraded(dir: &Path) -> (CleaningService, String) {
    let fault = FaultFs::new(FaultPlan {
        capacity_bytes: Some(6_000),
        ..FaultPlan::default()
    });
    let service = journaled(dir, config(), Some(&fault));
    for i in 0..400 {
        let reply = service.handle_line(&format!(
            r#"{{"op":"master.append","tuples":[["fill{i}","v"]]}}"#
        ));
        if reply.starts_with("{\"ok\":false") {
            assert!(service.is_degraded(), "{reply}");
            return (service, reply);
        }
    }
    panic!("a 6000-byte budget must fill within 400 appends");
}

/// A primary whose journal an fsync failure poisoned; also the reply
/// that said so.
fn poisoned(dir: &Path) -> (CleaningService, String) {
    let fault = FaultFs::new(FaultPlan::default());
    let service = journaled(dir, config(), Some(&fault));
    assert!(service.handle_line(APPEND).starts_with("{\"ok\":true"));
    fault.update_plan(|plan| plan.fail_fsync_at = Some(fault.fsyncs() + 1));
    let reply = service.handle_line(r#"{"op":"master.append","tuples":[["k91","v91"]]}"#);
    assert!(service.is_poisoned_journal(), "{reply}");
    (service, reply)
}

/// A two-node cluster's primary with no follower: a commit is durable
/// here and times out waiting for its quorum.
fn lonely(dir: &Path) -> CleaningService {
    let config = ServiceConfig {
        cluster_size: 2,
        ack_timeout: Duration::from_millis(30),
        ..config()
    };
    let service = journaled(dir, config, None);
    assert!(service.handle_line(CREATE).starts_with("{\"ok\":true"));
    assert!(service.handle_line(CREATE).starts_with("{\"ok\":true"));
    service
}

// ---------------------------------------------------------------------
// A refusal has no side effect.
// ---------------------------------------------------------------------

/// A `clean` whose second row is short is refused before any row is
/// cleaned: no provenance is recorded for the rows around it, nothing
/// counts as cleaned — and on a journaled node nothing reaches the
/// spill, so a restart finds none either.
#[test]
fn a_refused_clean_records_no_provenance() {
    const REFUSED: &str =
        r#"{"op":"clean","trust":["key"],"tuples":[["k1","x","n"],["k2"],["k3","y","n"]]}"#;
    let audit_total = |service: &CleaningService| {
        let reply = service.handle_line(r#"{"op":"audit.read","start":0}"#);
        let reply = Json::parse(&reply).unwrap();
        reply.get("total").and_then(Json::as_u64).expect("a total")
    };
    let refuse = |service: &CleaningService| {
        let elicited = ask(service, REFUSED);
        assert!(
            matches!(elicited.error, Some(ref e) if e.code() == Some(ErrorCode::BadRequest)),
            "{}",
            elicited.line
        );
        assert!(
            elicited.line.contains("tuple 1 has 1 values"),
            "{}",
            elicited.line
        );
        assert_eq!(audit_total(service), 0, "provenance of a refused clean");
        assert_eq!(service.metrics().tuples_cleaned, 0);
    };
    refuse(&memory(config()));

    let dir = tmp_dir("refused-clean");
    let service = journaled(&dir, config(), None);
    refuse(&service);
    // A commit waits for the group fsync, which covers the audit spill.
    assert!(service.handle_line(CREATE).starts_with("{\"ok\":true"));
    let commit = service.handle_line(r#"{"op":"session.commit","session":1}"#);
    assert!(commit.starts_with("{\"ok\":true"), "{commit}");
    drop(service);
    assert_eq!(
        audit_total(&journaled(&dir, config(), None)),
        0,
        "after a restart"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// The table, row by row.
// ---------------------------------------------------------------------

/// What a fixture elicited: the `ok:false` document as it was written,
/// and what the client made of it when a client asked.
struct Elicited {
    line: String,
    error: Option<ClientError>,
}

/// Send `line` through an in-process client: the raw reply stays in the
/// client's response buffer, the refusal comes back typed.
fn ask(service: &CleaningService, line: &str) -> Elicited {
    let mut reply = String::new();
    let error = LocalClient::in_process(service).request_line(line, &mut reply);
    Elicited {
        line: reply,
        error: Some(error.expect_err("the fixture's line is refused")),
    }
}

/// Serve `service` over TCP, let `prepare` put it in the state that
/// refuses connections (through a first, admitted connection), then
/// connect and read the one line the acceptor answers with.
fn refused_at_accept(config: ServiceConfig, prepare: impl FnOnce(&mut Client)) -> Elicited {
    let service = memory(config);
    let server = Server::bind("127.0.0.1:0", service.clone()).unwrap();
    let addr = server.local_addr().unwrap();
    let running = std::thread::spawn(move || server.run());
    let mut first = Client::connect(addr).unwrap();
    prepare(&mut first);
    let errors = service.metrics().errors;
    let refused = TcpStream::connect(addr).unwrap();
    refused
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut line = String::new();
    BufReader::new(refused).read_line(&mut line).unwrap();
    // A refusal at accept time is an error line like any other.
    assert_eq!(service.metrics().errors, errors + 1, "{line}");
    let _ = first.shutdown();
    let _ = running.join();
    Elicited {
        line: line.trim_end().to_string(),
        error: None,
    }
}

/// One way to see a code: the code, what its row must say (`retryable`,
/// the extra field — written out here, not read back from the table),
/// and the node and line that elicit it.
struct Fixture {
    code: ErrorCode,
    retryable: bool,
    extra: Option<&'static str>,
    what: &'static str,
    elicit: fn(&Path) -> Elicited,
}

const PRIMARY: &str = "127.0.0.1:1";

const FIXTURES: &[Fixture] = &[
    Fixture {
        code: ErrorCode::ParseError,
        retryable: false,
        extra: None,
        what: "a line that is not JSON",
        elicit: |_| ask(&memory(config()), r#"{"op":"hello",}"#),
    },
    Fixture {
        code: ErrorCode::BadRequest,
        retryable: false,
        extra: None,
        what: "a missing field",
        elicit: |_| ask(&memory(config()), r#"{"op":"session.get"}"#),
    },
    Fixture {
        code: ErrorCode::NotFound,
        retryable: false,
        extra: None,
        what: "a session that is not there",
        elicit: |_| ask(&memory(config()), r#"{"op":"session.get","session":99}"#),
    },
    Fixture {
        code: ErrorCode::Overloaded,
        retryable: true,
        extra: None,
        what: "the session quota",
        elicit: |_| {
            let service = memory(ServiceConfig {
                max_sessions: 1,
                ..config()
            });
            assert!(service.handle_line(CREATE).starts_with("{\"ok\":true"));
            ask(&service, CREATE)
        },
    },
    Fixture {
        code: ErrorCode::Overloaded,
        retryable: true,
        extra: None,
        what: "the connection quota, at accept time",
        elicit: |_| {
            let config = ServiceConfig {
                max_connections: 1,
                ..config()
            };
            refused_at_accept(config, |_| {})
        },
    },
    Fixture {
        code: ErrorCode::Draining,
        retryable: true,
        extra: None,
        what: "a new session on a draining node",
        elicit: |_| {
            let service = memory(config());
            assert!(service.handle_line(CREATE).starts_with("{\"ok\":true"));
            drain(&service);
            ask(&service, CREATE)
        },
    },
    Fixture {
        code: ErrorCode::Draining,
        retryable: true,
        extra: None,
        what: "a draining node, at accept time",
        elicit: |_| {
            refused_at_accept(config(), |first| {
                // The open session keeps the drain from finishing.
                first
                    .create_session(vec!["k1".into(), "WRONG".into(), "n".into()])
                    .unwrap();
                let drain = Request::Drain {
                    wait_ms: Some(600_000),
                };
                first.request(&drain).unwrap();
            })
        },
    },
    Fixture {
        code: ErrorCode::NotPrimary,
        retryable: false,
        extra: Some("redirect"),
        what: "a write on a follower",
        elicit: |dir| ask(&follower(dir, PRIMARY), CREATE),
    },
    Fixture {
        code: ErrorCode::StaleEpoch,
        retryable: false,
        extra: None,
        what: "a write on a fenced primary",
        elicit: |dir| {
            let service = journaled(dir, config(), None);
            service.handle_line(FENCING_SYNC);
            ask(&service, CREATE)
        },
    },
    Fixture {
        code: ErrorCode::Degraded,
        retryable: false,
        extra: None,
        what: "a write on a full disk",
        elicit: |dir| ask(&degraded(dir).0, APPEND),
    },
    Fixture {
        code: ErrorCode::StorageError,
        retryable: false,
        extra: None,
        what: "a write on a poisoned journal",
        elicit: |dir| ask(&poisoned(dir).0, APPEND),
    },
    Fixture {
        code: ErrorCode::QuorumTimeout,
        retryable: false,
        extra: None,
        what: "a commit no follower acknowledges",
        elicit: |dir| ask(&lonely(dir), r#"{"op":"session.commit","session":1}"#),
    },
    Fixture {
        code: ErrorCode::DeadlineExceeded,
        retryable: false,
        extra: None,
        what: "a deadline that passed on arrival",
        elicit: |_| ask(&memory(config()), r#"{"op":"hello","deadline_ms":0}"#),
    },
    Fixture {
        code: ErrorCode::Internal,
        retryable: false,
        extra: None,
        what: "a cluster.status peer that does not answer",
        elicit: |dir| {
            // A follower asks its primary, which is not there: the
            // primary's document in `nodes` is an `ok:false` one.
            let reply = follower(dir, PRIMARY).handle_line(r#"{"op":"cluster.status"}"#);
            let reply = Json::parse(&reply).unwrap();
            let nodes = reply.get("nodes").and_then(Json::as_arr).unwrap();
            assert_eq!(nodes[1].get("addr").and_then(Json::as_str), Some(PRIMARY));
            Elicited {
                line: nodes[1].render(),
                error: None,
            }
        },
    },
];

#[test]
fn every_row_of_the_table_has_a_fixture_that_elicits_it() {
    for &code in ErrorCode::ALL {
        assert!(
            FIXTURES.iter().any(|fixture| fixture.code == code),
            "no fixture elicits `{code}`: add one to FIXTURES"
        );
    }
    for (at, fixture) in FIXTURES.iter().enumerate() {
        let Fixture { code, what, .. } = *fixture;
        let dir = tmp_dir(&format!("fixture-{at}"));
        let Elicited { line, error } = (fixture.elicit)(&dir);
        let _ = std::fs::remove_dir_all(&dir);
        let json = Json::parse(&line).unwrap_or_else(|e| panic!("{what}: {line}: {e}"));
        let field = |key| json.get(key).and_then(Json::as_str);
        assert_eq!(
            json.get("ok").and_then(Json::as_bool),
            Some(false),
            "{what}: {line}"
        );
        assert_eq!(
            field("code").and_then(ErrorCode::parse),
            Some(code),
            "{what}: {line}"
        );
        assert!(
            field("error").is_some_and(|text| !text.is_empty()),
            "{what}: {line}"
        );
        // The row's columns say what the fixture says.
        assert_eq!(code.retryable(), fixture.retryable, "{what}");
        assert_eq!(code.extra_field(), fixture.extra, "{what}");
        // The extra field is on the line iff the row names it, and a
        // follower's redirect is its primary.
        let redirect = field("redirect");
        assert_eq!(
            redirect.is_some(),
            fixture.extra == Some("redirect"),
            "{what}: {line}"
        );
        if redirect.is_some() {
            assert_eq!(redirect, Some(PRIMARY));
        }
        // The client reads the fields, not the prose.
        match error {
            Some(ClientError::Server {
                code: read,
                message,
                redirect: followed,
            }) => {
                assert_eq!(read, Some(code), "{what}");
                assert_eq!(Some(message.as_str()), field("error"), "{what}");
                assert_eq!(followed.as_deref(), redirect, "{what}");
            }
            Some(other) => panic!("{what}: the client saw {other:?}"),
            None => {}
        }
    }
}

// ---------------------------------------------------------------------
// v10 against v9, line by line.
// ---------------------------------------------------------------------

/// The corpus as it is served: each request line with its reply.
#[derive(Default)]
struct Served(Vec<(String, String)>);

impl Served {
    fn lines(&mut self, service: &CleaningService, lines: &[&str]) {
        for line in lines {
            self.0.push((line.to_string(), service.handle_line(line)));
        }
    }
}

/// Every failing line of the corpus with the reply it gets, in a fixed
/// order. Each node is fresh, and a node's lines run in order.
fn failing_lines() -> Vec<(String, String)> {
    let dir = tmp_dir("differential");
    let mut served = Served::default();

    // An in-memory primary with one open session (id 1).
    let primary = memory(config());
    assert!(primary.handle_line(CREATE).starts_with("{\"ok\":true"));
    served.lines(
        &primary,
        &[
            // Not JSON, not an object, no usable `op`.
            r#"{"op":"hello""#,
            r#"{"op":"hello",}"#,
            r#"{"op":"session.get","session":01}"#,
            "[1,2,3]",
            "hello",
            r#"{"id":4,"session":1}"#,
            r#"{"id":"a","op":7}"#,
            r#"{"op":"session.frobnicate"}"#,
            // Every op with a required field: missing, then ill-typed.
            r#"{"op":"session.create"}"#,
            r#"{"op":"session.create","tuple":"k1"}"#,
            r#"{"op":"session.create","tuple":["k1",["x"],"n"]}"#,
            r#"{"op":"session.create","tuple":["k1","WRONG"]}"#,
            r#"{"op":"session.get"}"#,
            r#"{"op":"session.get","session":"1"}"#,
            r#"{"op":"session.get","session":-1}"#,
            r#"{"op":"session.validate"}"#,
            r#"{"op":"session.validate","session":1}"#,
            r#"{"op":"session.validate","session":1,"validations":[1]}"#,
            r#"{"op":"session.validate","session":1,"validations":{"nope":"x"}}"#,
            r#"{"op":"session.validate","session":1,"validations":{"key":{"a":1}}}"#,
            r#"{"op":"session.fix"}"#,
            r#"{"op":"session.fix","session":1.5}"#,
            r#"{"op":"session.commit"}"#,
            r#"{"op":"session.commit","session":true}"#,
            r#"{"op":"session.abort"}"#,
            r#"{"op":"session.abort","session":null}"#,
            r#"{"op":"clean"}"#,
            r#"{"op":"clean","tuples":7}"#,
            r#"{"op":"clean","tuples":[["k1","WRONG"]]}"#,
            r#"{"op":"clean","tuples":[["k1","WRONG","n"]],"trust":"key"}"#,
            r#"{"op":"clean","tuples":[["k1","WRONG","n"]],"trust":[1]}"#,
            r#"{"op":"clean","tuples":[["k1","WRONG","n"]],"trust":["nope"]}"#,
            r#"{"op":"regions","top_k":"all"}"#,
            r#"{"op":"check","mode":"lenient"}"#,
            r#"{"op":"audit.read","start":"0"}"#,
            r#"{"op":"audit.read","count":-3}"#,
            r#"{"op":"rules.reload"}"#,
            r#"{"op":"rules.reload","rules":7}"#,
            r#"{"op":"rules.reload","rules":"er broken"}"#,
            r#"{"op":"rules.reload","rules":"er kv: match nope=key fix val:=val when ()"}"#,
            r#"{"op":"master.append"}"#,
            r#"{"op":"master.append","tuples":[]}"#,
            r#"{"op":"master.append","tuples":[["k1"]]}"#,
            r#"{"op":"master.append","tuples":[{"key":"k1"}]}"#,
            r#"{"op":"trace.read","limit":"all"}"#,
            r#"{"op":"log.read","limit":-1}"#,
            r#"{"op":"log.read","level":"loud"}"#,
            r#"{"op":"log.read","level":7}"#,
            r#"{"op":"log.read","subsystem":"kitchen"}"#,
            r#"{"op":"metrics.history","limit":[]}"#,
            r#"{"op":"cluster.status","fanout":"no"}"#,
            r#"{"op":"config.set"}"#,
            r#"{"op":"config.set","key":"slow_ms"}"#,
            r#"{"op":"config.set","key":7,"value":1}"#,
            r#"{"op":"config.set","key":"slow_ms","value":"fast"}"#,
            r#"{"op":"config.set","key":"color","value":1}"#,
            r#"{"op":"server.drain","wait_ms":"soon"}"#,
            // What a memory-mode node cannot do.
            r#"{"op":"scrub"}"#,
            r#"{"op":"replica.promote"}"#,
            r#"{"op":"replica.sync"}"#,
            r#"{"op":"replica.sync","follower":"f1"}"#,
            r#"{"op":"replica.sync","follower":"f1","epoch":0}"#,
            r#"{"op":"replica.sync","follower":"f1","epoch":0,"offset":0,"resync":1}"#,
            r#"{"op":"replica.sync","follower":"f1","epoch":0,"offset":0}"#,
            // A session that is not there, with and without an `id`.
            r#"{"op":"session.get","session":99}"#,
            r#"{"id":17,"op":"session.validate","session":99,"validations":{"key":"k1"}}"#,
            r#"{"id":"req-9","op":"session.fix","session":99}"#,
            r#"{"id":null,"op":"session.commit","session":99}"#,
            r#"{"id":[1,{"a":2}],"op":"session.abort","session":99}"#,
            // A deadline that has passed on arrival: every class of op.
            r#"{"op":"hello","deadline_ms":0}"#,
            r#"{"id":5,"op":"session.get","session":1,"deadline_ms":0}"#,
            r#"{"op":"session.create","tuple":["k1","WRONG","n"],"deadline_ms":0}"#,
            r#"{"op":"clean","tuples":[["k1","WRONG","n"]],"deadline_ms":0}"#,
            r#"{"op":"metrics","deadline_ms":0}"#,
            r#"{"op":"session.frobnicate","deadline_ms":0}"#,
        ],
    );

    // A draining node refuses new sessions and serves the open one.
    drain(&primary);
    let with_id = r#"{"id":8,"op":"session.create","tuple":["k2","WRONG","n"]}"#;
    served.lines(&primary, &[CREATE, with_id]);

    // A follower refuses every op that writes.
    let node = follower(&dir.join("follower"), "127.0.0.1:1");
    served.lines(
        &node,
        &[
            CREATE,
            r#"{"id":3,"op":"session.validate","session":1,"validations":{"key":"k1"}}"#,
            r#"{"op":"session.fix","session":1}"#,
            r#"{"op":"session.commit","session":1}"#,
            r#"{"op":"session.abort","session":1}"#,
            r#"{"op":"rules.reload","rules":"er kv: match key=key fix val:=val when ()"}"#,
            APPEND,
            r#"{"op":"config.set","key":"slow_ms","value":250}"#,
            // … the gate comes after the fields are read.
            r#"{"op":"session.commit"}"#,
        ],
    );
    drop(node);

    // A fenced primary: the sync that fences it, then the writes.
    let node = journaled(&dir.join("fenced"), config(), None);
    let commit = r#"{"id":2,"op":"session.commit","session":1}"#;
    served.lines(&node, &[FENCING_SYNC, CREATE, commit, APPEND]);
    drop(node);

    // A full disk: the append that hit it, then the read-only latch.
    let (node, hit) = degraded(&dir.join("degraded"));
    served
        .0
        .push(("(the append that filled the disk)".to_string(), hit));
    let abort = r#"{"op":"session.abort","session":1}"#;
    served.lines(&node, &[APPEND, CREATE, abort]);
    drop(node);

    // A failed fsync: the append it failed under, then the poison.
    let (node, hit) = poisoned(&dir.join("poisoned"));
    served
        .0
        .push(("(the append whose fsync failed)".to_string(), hit));
    let set = r#"{"id":6,"op":"config.set","key":"slow_ms","value":9}"#;
    served.lines(&node, &[APPEND, CREATE, set]);
    drop(node);

    // No quorum: the ack timeout, and a client deadline inside it.
    let node = lonely(&dir.join("lonely"));
    served.lines(
        &node,
        &[
            r#"{"op":"session.commit","session":1}"#,
            r#"{"id":12,"op":"session.commit","session":2,"deadline_ms":5}"#,
        ],
    );
    drop(node);
    let _ = std::fs::remove_dir_all(&dir);
    served.0
}

/// The v10 reply with what v10 added cut out: `"code":"…",` after `ok`,
/// `,"redirect":"…"` before the closing brace.
fn without_code_and_redirect(reply: &str) -> String {
    let json = Json::parse(reply).unwrap_or_else(|e| panic!("{reply}: {e}"));
    let field = |key| json.get(key).and_then(Json::as_str);
    let code = field("code").unwrap_or_else(|| panic!("no code: {reply}"));
    let mut v9 = reply.replacen(&format!("\"code\":\"{code}\","), "", 1);
    if let Some(addr) = field("redirect") {
        let cut = format!(",\"redirect\":\"{addr}\"}}");
        v9 = format!("{}}}", v9.strip_suffix(&cut).expect("redirect comes last"));
    }
    v9
}

#[test]
fn a_v10_refusal_is_the_v9_refusal_plus_code_and_redirect() {
    let served = failing_lines();
    for ((line, reply), (golden_line, golden)) in served.iter().zip(GOLDEN_V9) {
        assert_eq!(line, golden_line);
        assert_eq!(&without_code_and_redirect(reply), golden, "{line}");
    }
    assert_eq!(served.len(), GOLDEN_V9.len());
    assert!(GOLDEN_V9.len() >= 40);
    // `redirect` is there to cut on every follower line, and only there.
    let redirected = |(_, reply): &&(String, String)| reply.contains("\"redirect\":");
    assert_eq!(served.iter().filter(redirected).count(), 8);
}

#[rustfmt::skip]
const GOLDEN_V9: &[(&str, &str)] = &[
    (r#"{"op":"hello""#, r#"{"ok":false,"error":"expected `,` or `}` at byte 13"}"#),
    (r#"{"op":"hello",}"#, r#"{"ok":false,"error":"expected a string at byte 14"}"#),
    (r#"{"op":"session.get","session":01}"#, r#"{"ok":false,"error":"expected `,` or `}` at byte 31"}"#),
    (r#"[1,2,3]"#, r#"{"ok":false,"error":"missing field `op`"}"#),
    (r#"hello"#, r#"{"ok":false,"error":"expected a value at byte 0"}"#),
    (r#"{"id":4,"session":1}"#, r#"{"id":4,"ok":false,"error":"missing field `op`"}"#),
    (r#"{"id":"a","op":7}"#, r#"{"id":"a","ok":false,"error":"`op` must be a string"}"#),
    (r#"{"op":"session.frobnicate"}"#, r#"{"ok":false,"error":"unknown op `session.frobnicate`"}"#),
    (r#"{"op":"session.create"}"#, r#"{"ok":false,"error":"missing field `tuple`"}"#),
    (r#"{"op":"session.create","tuple":"k1"}"#, r#"{"ok":false,"error":"`tuple` must be an array of cell values"}"#),
    (r#"{"op":"session.create","tuple":["k1",["x"],"n"]}"#, r#"{"ok":false,"error":"cannot use an array as a cell value"}"#),
    (r#"{"op":"session.create","tuple":["k1","WRONG"]}"#, r#"{"ok":false,"error":"tuple has 2 values but schema `in` has arity 3"}"#),
    (r#"{"op":"session.get"}"#, r#"{"ok":false,"error":"missing field `session`"}"#),
    (r#"{"op":"session.get","session":"1"}"#, r#"{"ok":false,"error":"`session` must be a non-negative integer"}"#),
    (r#"{"op":"session.get","session":-1}"#, r#"{"ok":false,"error":"`session` must be a non-negative integer"}"#),
    (r#"{"op":"session.validate"}"#, r#"{"ok":false,"error":"missing field `session`"}"#),
    (r#"{"op":"session.validate","session":1}"#, r#"{"ok":false,"error":"missing field `validations`"}"#),
    (r#"{"op":"session.validate","session":1,"validations":[1]}"#, r#"{"ok":false,"error":"`validations` must be an object of attr → value"}"#),
    (r#"{"op":"session.validate","session":1,"validations":{"nope":"x"}}"#, r#"{"ok":false,"error":"unknown attribute `nope` (schema `in`)"}"#),
    (r#"{"op":"session.validate","session":1,"validations":{"key":{"a":1}}}"#, r#"{"ok":false,"error":"cannot use an object as a cell value"}"#),
    (r#"{"op":"session.fix"}"#, r#"{"ok":false,"error":"missing field `session`"}"#),
    (r#"{"op":"session.fix","session":1.5}"#, r#"{"ok":false,"error":"`session` must be a non-negative integer"}"#),
    (r#"{"op":"session.commit"}"#, r#"{"ok":false,"error":"missing field `session`"}"#),
    (r#"{"op":"session.commit","session":true}"#, r#"{"ok":false,"error":"`session` must be a non-negative integer"}"#),
    (r#"{"op":"session.abort"}"#, r#"{"ok":false,"error":"missing field `session`"}"#),
    (r#"{"op":"session.abort","session":null}"#, r#"{"ok":false,"error":"`session` must be a non-negative integer"}"#),
    (r#"{"op":"clean"}"#, r#"{"ok":false,"error":"missing field `tuples`"}"#),
    (r#"{"op":"clean","tuples":7}"#, r#"{"ok":false,"error":"`tuples` must be an array"}"#),
    (r#"{"op":"clean","tuples":[["k1","WRONG"]]}"#, r#"{"ok":false,"error":"tuple 0 has 2 values but schema `in` has arity 3"}"#),
    (r#"{"op":"clean","tuples":[["k1","WRONG","n"]],"trust":"key"}"#, r#"{"ok":false,"error":"`trust` must be an array of strings"}"#),
    (r#"{"op":"clean","tuples":[["k1","WRONG","n"]],"trust":[1]}"#, r#"{"ok":false,"error":"`trust` entries must be strings"}"#),
    (r#"{"op":"clean","tuples":[["k1","WRONG","n"]],"trust":["nope"]}"#, r#"{"ok":false,"error":"unknown attribute `nope` (schema `in`)"}"#),
    (r#"{"op":"regions","top_k":"all"}"#, r#"{"ok":false,"error":"`top_k` must be an integer"}"#),
    (r#"{"op":"check","mode":"lenient"}"#, r#"{"ok":false,"error":"unknown mode `lenient` (strict | entity-coherent)"}"#),
    (r#"{"op":"audit.read","start":"0"}"#, r#"{"ok":false,"error":"`start` must be a non-negative integer"}"#),
    (r#"{"op":"audit.read","count":-3}"#, r#"{"ok":false,"error":"`count` must be a non-negative integer"}"#),
    (r#"{"op":"rules.reload"}"#, r#"{"ok":false,"error":"missing field `rules`"}"#),
    (r#"{"op":"rules.reload","rules":7}"#, r#"{"ok":false,"error":"`rules` must be a DSL string"}"#),
    (r#"{"op":"rules.reload","rules":"er broken"}"#, r#"{"ok":false,"error":"parse error at line 1: expected `:`, found end of line"}"#),
    (r#"{"op":"rules.reload","rules":"er kv: match nope=key fix val:=val when ()"}"#, r#"{"ok":false,"error":"unknown attribute `nope` in schema `in`"}"#),
    (r#"{"op":"master.append"}"#, r#"{"ok":false,"error":"missing field `tuples`"}"#),
    (r#"{"op":"master.append","tuples":[]}"#, r#"{"ok":false,"error":"`tuples` must contain at least one row"}"#),
    (r#"{"op":"master.append","tuples":[["k1"]]}"#, r#"{"ok":false,"error":"row 0 has 1 values but master schema `m` has arity 2"}"#),
    (r#"{"op":"master.append","tuples":[{"key":"k1"}]}"#, r#"{"ok":false,"error":"`tuples[i]` must be an array of cell values"}"#),
    (r#"{"op":"trace.read","limit":"all"}"#, r#"{"ok":false,"error":"`limit` must be a non-negative integer"}"#),
    (r#"{"op":"log.read","limit":-1}"#, r#"{"ok":false,"error":"`limit` must be a non-negative integer"}"#),
    (r#"{"op":"log.read","level":"loud"}"#, r#"{"ok":false,"error":"unknown level `loud` (debug | info | warn | error)"}"#),
    (r#"{"op":"log.read","level":7}"#, r#"{"ok":false,"error":"`level` must be a string"}"#),
    (r#"{"op":"log.read","subsystem":"kitchen"}"#, r#"{"ok":false,"error":"unknown subsystem `kitchen` (server | net | journal | replication | health | config | admission)"}"#),
    (r#"{"op":"metrics.history","limit":[]}"#, r#"{"ok":false,"error":"`limit` must be a non-negative integer"}"#),
    (r#"{"op":"cluster.status","fanout":"no"}"#, r#"{"ok":false,"error":"`fanout` must be a boolean"}"#),
    (r#"{"op":"config.set"}"#, r#"{"ok":false,"error":"missing field `key`"}"#),
    (r#"{"op":"config.set","key":"slow_ms"}"#, r#"{"ok":false,"error":"missing field `value`"}"#),
    (r#"{"op":"config.set","key":7,"value":1}"#, r#"{"ok":false,"error":"`key` must be a string"}"#),
    (r#"{"op":"config.set","key":"slow_ms","value":"fast"}"#, r#"{"ok":false,"error":"`value` must be a non-negative integer"}"#),
    (r#"{"op":"config.set","key":"color","value":1}"#, r#"{"ok":false,"error":"unknown config key `color` (slow_ms | trace_buffer | diag_buffer | peer_timeout_ms)"}"#),
    (r#"{"op":"server.drain","wait_ms":"soon"}"#, r#"{"ok":false,"error":"`wait_ms` must be a non-negative integer"}"#),
    (r#"{"op":"scrub"}"#, r#"{"ok":false,"error":"scrub requires a journaled server (--data-dir)"}"#),
    (r#"{"op":"replica.promote"}"#, r#"{"ok":false,"error":"replication requires a journaled server (--data-dir)"}"#),
    (r#"{"op":"replica.sync"}"#, r#"{"ok":false,"error":"missing field `follower`"}"#),
    (r#"{"op":"replica.sync","follower":"f1"}"#, r#"{"ok":false,"error":"missing field `epoch`"}"#),
    (r#"{"op":"replica.sync","follower":"f1","epoch":0}"#, r#"{"ok":false,"error":"missing field `offset`"}"#),
    (r#"{"op":"replica.sync","follower":"f1","epoch":0,"offset":0,"resync":1}"#, r#"{"ok":false,"error":"`resync` must be a boolean"}"#),
    (r#"{"op":"replica.sync","follower":"f1","epoch":0,"offset":0}"#, r#"{"ok":false,"error":"replication requires a journaled server (--data-dir)"}"#),
    (r#"{"op":"session.get","session":99}"#, r#"{"ok":false,"error":"unknown session 99 (expired, finished, or never created)"}"#),
    (r#"{"id":17,"op":"session.validate","session":99,"validations":{"key":"k1"}}"#, r#"{"id":17,"ok":false,"error":"unknown session 99 (expired, finished, or never created)"}"#),
    (r#"{"id":"req-9","op":"session.fix","session":99}"#, r#"{"id":"req-9","ok":false,"error":"unknown session 99 (expired, finished, or never created)"}"#),
    (r#"{"id":null,"op":"session.commit","session":99}"#, r#"{"id":null,"ok":false,"error":"unknown session 99 (expired, finished, or never created)"}"#),
    (r#"{"id":[1,{"a":2}],"op":"session.abort","session":99}"#, r#"{"id":[1,{"a":2}],"ok":false,"error":"unknown session 99 (expired, finished, or never created)"}"#),
    (r#"{"op":"hello","deadline_ms":0}"#, r#"{"ok":false,"error":"deadline_exceeded: deadline of 0ms expired before work began"}"#),
    (r#"{"id":5,"op":"session.get","session":1,"deadline_ms":0}"#, r#"{"id":5,"ok":false,"error":"deadline_exceeded: deadline of 0ms expired before work began"}"#),
    (r#"{"op":"session.create","tuple":["k1","WRONG","n"],"deadline_ms":0}"#, r#"{"ok":false,"error":"deadline_exceeded: deadline of 0ms expired before work began"}"#),
    (r#"{"op":"clean","tuples":[["k1","WRONG","n"]],"deadline_ms":0}"#, r#"{"ok":false,"error":"deadline_exceeded: deadline of 0ms expired before work began"}"#),
    (r#"{"op":"metrics","deadline_ms":0}"#, r#"{"ok":false,"error":"deadline_exceeded: deadline of 0ms expired before work began"}"#),
    (r#"{"op":"session.frobnicate","deadline_ms":0}"#, r#"{"ok":false,"error":"deadline_exceeded: deadline of 0ms expired before work began"}"#),
    (r#"{"op":"session.create","tuple":["k1","WRONG","n"]}"#, r#"{"ok":false,"error":"draining: server is draining; create the session on another node"}"#),
    (r#"{"id":8,"op":"session.create","tuple":["k2","WRONG","n"]}"#, r#"{"id":8,"ok":false,"error":"draining: server is draining; create the session on another node"}"#),
    (r#"{"op":"session.create","tuple":["k1","WRONG","n"]}"#, r#"{"ok":false,"error":"not_primary: this node is a read-only follower; primary is 127.0.0.1:1"}"#),
    (r#"{"id":3,"op":"session.validate","session":1,"validations":{"key":"k1"}}"#, r#"{"id":3,"ok":false,"error":"not_primary: this node is a read-only follower; primary is 127.0.0.1:1"}"#),
    (r#"{"op":"session.fix","session":1}"#, r#"{"ok":false,"error":"not_primary: this node is a read-only follower; primary is 127.0.0.1:1"}"#),
    (r#"{"op":"session.commit","session":1}"#, r#"{"ok":false,"error":"not_primary: this node is a read-only follower; primary is 127.0.0.1:1"}"#),
    (r#"{"op":"session.abort","session":1}"#, r#"{"ok":false,"error":"not_primary: this node is a read-only follower; primary is 127.0.0.1:1"}"#),
    (r#"{"op":"rules.reload","rules":"er kv: match key=key fix val:=val when ()"}"#, r#"{"ok":false,"error":"not_primary: this node is a read-only follower; primary is 127.0.0.1:1"}"#),
    (r#"{"op":"master.append","tuples":[["k90","v90"]]}"#, r#"{"ok":false,"error":"not_primary: this node is a read-only follower; primary is 127.0.0.1:1"}"#),
    (r#"{"op":"config.set","key":"slow_ms","value":250}"#, r#"{"ok":false,"error":"not_primary: this node is a read-only follower; primary is 127.0.0.1:1"}"#),
    (r#"{"op":"session.commit"}"#, r#"{"ok":false,"error":"missing field `session`"}"#),
    (r#"{"op":"replica.sync","follower":"f9","epoch":3,"offset":0}"#, r#"{"ok":false,"error":"stale_epoch: follower f9 is at epoch 3, this node is at 0"}"#),
    (r#"{"op":"session.create","tuple":["k1","WRONG","n"]}"#, r#"{"ok":false,"error":"stale_epoch: fenced at epoch 0 by a replica at epoch 3; this node is no longer primary"}"#),
    (r#"{"id":2,"op":"session.commit","session":1}"#, r#"{"id":2,"ok":false,"error":"stale_epoch: fenced at epoch 0 by a replica at epoch 3; this node is no longer primary"}"#),
    (r#"{"op":"master.append","tuples":[["k90","v90"]]}"#, r#"{"ok":false,"error":"stale_epoch: fenced at epoch 0 by a replica at epoch 3; this node is no longer primary"}"#),
    (r#"(the append that filled the disk)"#, r#"{"ok":false,"error":"storage_error: applied but not durable (journal write failed: injected ENOSPC (write budget exhausted)); retry after the disk recovers"}"#),
    (r#"{"op":"master.append","tuples":[["k90","v90"]]}"#, r#"{"ok":false,"error":"degraded: disk_full — service is read-only until disk space returns"}"#),
    (r#"{"op":"session.create","tuple":["k1","WRONG","n"]}"#, r#"{"ok":false,"error":"degraded: disk_full — service is read-only until disk space returns"}"#),
    (r#"{"op":"session.abort","session":1}"#, r#"{"ok":false,"error":"degraded: disk_full — service is read-only until disk space returns"}"#),
    (r#"(the append whose fsync failed)"#, r#"{"ok":false,"error":"storage_error: applied but not durable (journal poisoned: fdatasync failed (injected EIO (fsync failed)); journal poisoned — page-cache state unknown, no retry)"}"#),
    (r#"{"op":"master.append","tuples":[["k90","v90"]]}"#, r#"{"ok":false,"error":"storage_error: journal poisoned by fsync failure (fdatasync failed (injected EIO (fsync failed)); journal poisoned — page-cache state unknown, no retry); mutations refused until operator intervention or re-sync"}"#),
    (r#"{"op":"session.create","tuple":["k1","WRONG","n"]}"#, r#"{"ok":false,"error":"storage_error: journal poisoned by fsync failure (fdatasync failed (injected EIO (fsync failed)); journal poisoned — page-cache state unknown, no retry); mutations refused until operator intervention or re-sync"}"#),
    (r#"{"id":6,"op":"config.set","key":"slow_ms","value":9}"#, r#"{"id":6,"ok":false,"error":"storage_error: journal poisoned by fsync failure (fdatasync failed (injected EIO (fsync failed)); journal poisoned — page-cache state unknown, no retry); mutations refused until operator intervention or re-sync"}"#),
    (r#"{"op":"session.commit","session":1}"#, r#"{"ok":false,"error":"quorum_timeout: commit is durable locally but only 0/1 follower acks arrived within 30ms"}"#),
    (r#"{"id":12,"op":"session.commit","session":2,"deadline_ms":5}"#, r#"{"id":12,"ok":false,"error":"deadline_exceeded: commit is durable locally but the request deadline expired with only 0/1 follower acks"}"#),
];

// ---------------------------------------------------------------------
// Rows walked in place: the replies the parser gave before.
// ---------------------------------------------------------------------

/// The type errors the row walk's corpus changed on purpose: a `clean`
/// or `master.append` type error names its row, as the arity errors
/// always did, and every type error names the value's type, not the
/// value in Rust's `Debug` spelling (`got int`, not `got Int(5)`).
const RETYPED: &[(&str, &str)] = &[
    (
        r#"{"op":"clean","tuples":[["k1","x","n"],["k2",5,"n"]]}"#,
        r#"{"ok":false,"code":"bad_request","error":"tuple 1: type mismatch for attribute `val`: expected string, got int"}"#,
    ),
    (
        r#"{"op":"clean","tuples":[["k1","x","n"],["k2","y",true]]}"#,
        r#"{"ok":false,"code":"bad_request","error":"tuple 1: type mismatch for attribute `note`: expected string, got bool"}"#,
    ),
    (
        r#"{"op":"session.create","tuple":["k1",2.5,"n"]}"#,
        r#"{"ok":false,"code":"bad_request","error":"type mismatch for attribute `val`: expected string, got float"}"#,
    ),
    (
        r#"{"op":"master.append","tuples":[["k30","x"],["k31",7]]}"#,
        r#"{"ok":false,"code":"bad_request","error":"row 1: type mismatch for attribute `val`: expected string, got int"}"#,
    ),
];

/// `clean` and `master.append` rows walked in place by the rows' own
/// scanner, through string bodies skipped a word at a time, answer as
/// the tree of scanners before them did: `GOLDEN_ROWS` holds each line
/// with the reply the parent commit (`0b7c46e`) gave on one in-memory kv
/// node, in order — rows that are not arrays, container cells, empty
/// rows, escaped and long cells, a flaw inside a cell (and the byte it
/// is reported at), cells of the wrong type, successful batches before
/// and after an append. Only the `RETYPED` lines differ.
#[test]
fn rows_walked_in_place_answer_as_before() {
    let service = memory(config());
    for &(line, golden) in GOLDEN_ROWS {
        let expected = RETYPED
            .iter()
            .find(|(retyped, _)| *retyped == line)
            .map_or(golden, |&(_, reply)| reply);
        assert_eq!(service.handle_line(line), expected, "{line}");
    }
    for (line, _) in RETYPED {
        assert!(
            GOLDEN_ROWS.iter().any(|(golden, _)| golden == line),
            "{line}"
        );
    }
}

#[rustfmt::skip]
const GOLDEN_ROWS: &[(&str, &str)] = &[
    (r#"{"op":"clean","tuples":[1]}"#, r#"{"ok":false,"code":"bad_request","error":"`tuples[i]` must be an array of cell values"}"#),
    (r#"{"op":"clean","tuples":[["k1","x","n"],7]}"#, r#"{"ok":false,"code":"bad_request","error":"`tuples[i]` must be an array of cell values"}"#),
    (r#"{"op":"clean","tuples":[{"key":"k1"}]}"#, r#"{"ok":false,"code":"bad_request","error":"`tuples[i]` must be an array of cell values"}"#),
    (r#"{"op":"clean","tuples":[[["n"],"x","n"]]}"#, r#"{"ok":false,"code":"bad_request","error":"cannot use an array as a cell value"}"#),
    (r#"{"op":"clean","tuples":[["k1",{"a":1},"n"]]}"#, r#"{"ok":false,"code":"bad_request","error":"cannot use an object as a cell value"}"#),
    (r#"{"op":"clean","tuples":[[]]}"#, r#"{"ok":false,"code":"bad_request","error":"tuple 0 has 0 values but schema `in` has arity 3"}"#),
    (r#"{"op":"clean","tuples":[["k1","x","n"],[]]}"#, r#"{"ok":false,"code":"bad_request","error":"tuple 1 has 0 values but schema `in` has arity 3"}"#),
    (r#"{"op":"clean","tuples":[[],["k1","x","n"]]}"#, r#"{"ok":false,"code":"bad_request","error":"tuple 0 has 0 values but schema `in` has arity 3"}"#),
    (r#"{"op":"clean","tuples":[["a\"b","x","n"]],"trust":["key"]}"#, r#"{"ok":true,"count":1,"complete":0,"cells_fixed":0,"outcomes":[{"index":0,"complete":false,"cells_fixed":0,"validated":1,"tuple":["a\"b","x","n"]}]}"#),
    (r#"{"op":"clean","tuples":[["k1","x","n"]],"trust":["key"]}"#, r#"{"ok":true,"count":1,"complete":0,"cells_fixed":1,"outcomes":[{"index":0,"complete":false,"cells_fixed":1,"validated":2,"tuple":["k1","v1","n"]}]}"#),
    (r#"{"op":"clean","tuples":[["k\u0031","x","n"]],"trust":["key"]}"#, r#"{"ok":true,"count":1,"complete":0,"cells_fixed":1,"outcomes":[{"index":0,"complete":false,"cells_fixed":1,"validated":2,"tuple":["k1","v1","n"]}]}"#),
    (r#"{"op":"clean","tuples":[["k1","x","n"],["k2","y","é\n"]],"trust":["key"]}"#, r#"{"ok":true,"count":2,"complete":0,"cells_fixed":2,"outcomes":[{"index":0,"complete":false,"cells_fixed":1,"validated":2,"tuple":["k1","v1","n"]},{"index":1,"complete":false,"cells_fixed":1,"validated":2,"tuple":["k2","v2","é\n"]}]}"#),
    (r#"{"op":"clean","tuples":[ [ "k3" , "x" ,null ] ,["k4","y","n"]],"trust":["key"]}"#, r#"{"ok":true,"count":2,"complete":0,"cells_fixed":2,"outcomes":[{"index":0,"complete":false,"cells_fixed":1,"validated":2,"tuple":["k3","v3",null]},{"index":1,"complete":false,"cells_fixed":1,"validated":2,"tuple":["k4","v4","n"]}]}"#),
    (r#"{"op":"clean","tuples":[["k5","x\"\\\/\b\f\n\r\t🦀 a longer cell that spans words","n"]],"trust":["key"]}"#, r#"{"ok":true,"count":1,"complete":0,"cells_fixed":1,"outcomes":[{"index":0,"complete":false,"cells_fixed":1,"validated":2,"tuple":["k5","v5","n"]}]}"#),
    ("{\"op\":\"clean\",\"tuples\":[[\"k1\",\"x\",\"n\t\"]]}", r#"{"ok":false,"code":"parse_error","error":"raw control byte in a string at byte 36"}"#),
    (r#"{"op":"clean","tuples":[["k1","x\q","n"]]}"#, r#"{"ok":false,"code":"parse_error","error":"invalid escape at byte 32"}"#),
    (r#"{"op":"clean","tuples":[["k1","x\ud800","n"]]}"#, r#"{"ok":false,"code":"parse_error","error":"invalid escape at byte 32"}"#),
    (r#"{"op":"clean","tuples":[["k1","x","n"],["k2",5,"n"]]}"#, r#"{"ok":false,"code":"bad_request","error":"type mismatch for attribute `val`: expected string, got Int(5)"}"#),
    (r#"{"op":"clean","tuples":[["k1","x","n"],["k2","y",true]]}"#, r#"{"ok":false,"code":"bad_request","error":"type mismatch for attribute `note`: expected string, got Bool(true)"}"#),
    (r#"{"op":"session.create","tuple":["k1",2.5,"n"]}"#, r#"{"ok":false,"code":"bad_request","error":"type mismatch for attribute `val`: expected string, got Float(2.5)"}"#),
    (r#"{"op":"master.append","tuples":[1]}"#, r#"{"ok":false,"code":"bad_request","error":"`tuples[i]` must be an array of cell values"}"#),
    (r#"{"op":"master.append","tuples":[["k1","x"],7]}"#, r#"{"ok":false,"code":"bad_request","error":"`tuples[i]` must be an array of cell values"}"#),
    (r#"{"op":"master.append","tuples":[{"key":"k1"}]}"#, r#"{"ok":false,"code":"bad_request","error":"`tuples[i]` must be an array of cell values"}"#),
    (r#"{"op":"master.append","tuples":[[["n"],"x"]]}"#, r#"{"ok":false,"code":"bad_request","error":"cannot use an array as a cell value"}"#),
    (r#"{"op":"master.append","tuples":[["k1",{"a":1}]]}"#, r#"{"ok":false,"code":"bad_request","error":"cannot use an object as a cell value"}"#),
    (r#"{"op":"master.append","tuples":[[]]}"#, r#"{"ok":false,"code":"bad_request","error":"row 0 has 0 values but master schema `m` has arity 2"}"#),
    (r#"{"op":"master.append","tuples":[["k30","x"],["k31",7]]}"#, r#"{"ok":false,"code":"bad_request","error":"type mismatch for attribute `val`: expected string, got Int(7)"}"#),
    ("{\"op\":\"master.append\",\"tuples\":[[\"k1\",\"x\t\"]]}", r#"{"ok":false,"code":"parse_error","error":"raw control byte in a string at byte 40"}"#),
    (r#"{"op":"master.append","tuples":[["a\"b","x"]]}"#, r#"{"ok":true,"appended":1,"master_rows":21,"generation":1}"#),
    (r#"{"op":"master.append","tuples":[["k21","x"],["k22","y"]]}"#, r#"{"ok":true,"appended":2,"master_rows":23,"generation":3}"#),
    (r#"{"op":"master.append","tuples":[["k\u00324","x"]]}"#, r#"{"ok":true,"appended":1,"master_rows":24,"generation":4}"#),
    (r#"{"op":"clean","tuples":[["k24","x","n"]],"trust":["key"]}"#, r#"{"ok":true,"count":1,"complete":0,"cells_fixed":0,"outcomes":[{"index":0,"complete":false,"cells_fixed":0,"validated":2,"tuple":["k24","x","n"]}]}"#),
    (r#"{"op":"clean","tuples":[["k21","x","n"],["k22","y","n"]],"trust":["key"]}"#, r#"{"ok":true,"count":2,"complete":0,"cells_fixed":0,"outcomes":[{"index":0,"complete":false,"cells_fixed":0,"validated":2,"tuple":["k21","x","n"]},{"index":1,"complete":false,"cells_fixed":0,"validated":2,"tuple":["k22","y","n"]}]}"#),
];
