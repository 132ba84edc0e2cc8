use super::*;
use cerfix::MasterData;
use cerfix_relation::{RelationBuilder, Schema, Tuple, Value};
use cerfix_rules::{EditingRule, PatternTuple, RuleSet};
use std::sync::Arc;
use std::time::Duration;

/// key → val master data and rule set for a 50-row lookup service.
fn kv_setup() -> (Arc<MasterData>, Arc<RuleSet>) {
    let input = Schema::of_strings("in", ["key", "val", "note"]).unwrap();
    let ms = Schema::of_strings("m", ["key", "val"]).unwrap();
    let mut builder = RelationBuilder::new(ms.clone());
    for i in 0..50 {
        builder = builder.row_strs([format!("k{i}"), format!("v{i}")]);
    }
    let master = MasterData::new(builder.build().unwrap());
    let mut rules = RuleSet::new(input.clone(), ms.clone());
    rules
        .add(
            EditingRule::new(
                "kv",
                &input,
                &ms,
                vec![(0, 0)],
                vec![(1, 1)],
                PatternTuple::empty(),
            )
            .unwrap(),
        )
        .unwrap();
    (Arc::new(master), Arc::new(rules))
}

/// key → val lookup service over 50 master rows.
pub(crate) fn kv_service(workers: usize) -> CleaningService {
    let (master, rules) = kv_setup();
    CleaningService::new(
        master,
        rules,
        ServiceConfig {
            workers,
            ..ServiceConfig::default()
        },
    )
}

/// Fresh temp data dir for a journaled-service test.
pub(crate) fn data_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("cerfix-server-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Storage config where *nothing* is durable except through explicit
/// sync points (commit / reload) — makes crash tests deterministic.
fn manual_storage(dir: &std::path::Path) -> StorageConfig {
    let mut cfg = StorageConfig::new(dir);
    cfg.flush_interval = Duration::from_secs(3600);
    cfg.snapshot_interval = Duration::from_secs(3600);
    cfg.snapshot_every_events = u64::MAX;
    cfg
}

pub(crate) fn kv_service_journaled(dir: &std::path::Path) -> CleaningService {
    let (master, rules) = kv_setup();
    CleaningService::with_storage(
        master,
        rules,
        ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        },
        manual_storage(dir),
    )
    .expect("open storage")
}

fn row(key: &str, val: &str, note: &str) -> Vec<Value> {
    vec![Value::str(key), Value::str(val), Value::str(note)]
}

#[test]
fn session_lifecycle_in_process() {
    let service = kv_service(2);
    let mut client = LocalClient::in_process(&service);

    let hello = client.hello().unwrap();
    assert_eq!(
        hello.get("service").and_then(wire::Json::as_str),
        Some("cerfix-server")
    );

    let view = client.create_session(row("k3", "WRONG", "n")).unwrap();
    assert_eq!(view.status, "awaiting_user");
    assert_eq!(view.rounds, 0);
    assert_eq!(service.live_sessions(), 1);

    // Validating key fires the rule: val gets the certain fix v3.
    let after = client
        .validate(view.session, vec![("key".into(), Value::str("k3"))])
        .unwrap();
    assert_eq!(after.tuple[1], Value::str("v3"));
    assert_eq!(after.fixes.len(), 1);
    assert_eq!(after.fixes[0].0, "val");

    // note is rule-free: must be user-validated.
    let done = client
        .validate(view.session, vec![("note".into(), Value::str("n"))])
        .unwrap();
    assert!(done.is_complete());

    let commit = client.commit(view.session).unwrap();
    assert!(commit.complete);
    assert_eq!(commit.tuple, row("k3", "v3", "n"));
    assert_eq!(commit.user_validated, 2);
    assert_eq!(commit.auto_validated, 1);
    assert_eq!(service.live_sessions(), 0);

    // Committed sessions are gone.
    assert_eq!(
        client.get_session(view.session).unwrap_err().code(),
        Some(ErrorCode::NotFound)
    );
}

/// An Int cell past ±2^53 is exact in a typed master relation; a fix
/// copying it out renders its digits, not the nearest `f64`.
#[test]
fn a_large_int_cell_renders_exactly() {
    use cerfix_relation::SchemaBuilder;
    const BIG: i64 = (1 << 53) + 1;
    let input = SchemaBuilder::new("in")
        .string("key")
        .int("val")
        .string("note")
        .build()
        .unwrap();
    let ms = SchemaBuilder::new("m")
        .string("key")
        .int("val")
        .build()
        .unwrap();
    let master = RelationBuilder::new(ms.clone())
        .row(vec![Value::str("k"), Value::Int(BIG)])
        .build()
        .unwrap();
    let mut rules = RuleSet::new(input.clone(), ms.clone());
    let rule = EditingRule::new(
        "kv",
        &input,
        &ms,
        vec![(0, 0)],
        vec![(1, 1)],
        PatternTuple::empty(),
    );
    rules.add(rule.unwrap()).unwrap();
    let service = CleaningService::new(
        Arc::new(MasterData::new(master)),
        Arc::new(rules),
        ServiceConfig::default(),
    );
    let fixed = format!(r#""tuple":["k",{BIG},"n"]"#);
    service.handle_line(r#"{"op":"session.create","tuple":["k",0,"n"]}"#);
    let validated =
        service.handle_line(r#"{"op":"session.validate","session":1,"validations":{"key":"k"}}"#);
    assert!(validated.contains(&fixed), "{validated}");
    let got = service.handle_line(r#"{"op":"session.get","session":1}"#);
    assert!(got.contains(&fixed), "{got}");
    let cleaned =
        service.handle_line(r#"{"op":"clean","tuples":[["k",0,"n"]],"trust":["key","note"]}"#);
    assert!(cleaned.contains(&fixed), "{cleaned}");
    // Within ±2^53 the digits are what the `f64` rendering wrote.
    let mut out = String::new();
    let mut writer = wire::JsonWriter::new(&mut out);
    for i in [0, -7, 1 << 53, -(1 << 53), (1 << 53) - 1] {
        writer.value(&Value::Int(i));
    }
    assert_eq!(
        out,
        "0,-7,9007199254740992,-9007199254740992,9007199254740991"
    );
}

#[test]
fn batch_clean_in_order() {
    let service = kv_service(4);
    let mut client = LocalClient::in_process(&service);
    let tuples: Vec<Vec<Value>> = (0..20)
        .map(|i| row(&format!("k{i}"), "WRONG", "x"))
        .collect();
    let outcomes = client
        .clean(tuples, vec!["key".into(), "note".into()])
        .unwrap();
    assert_eq!(outcomes.len(), 20);
    for (i, outcome) in outcomes.iter().enumerate() {
        assert_eq!(outcome.index as usize, i, "stream order stable");
        assert!(outcome.complete);
        assert_eq!(outcome.cells_fixed, 1);
        assert_eq!(outcome.tuple[1], Value::str(format!("v{i}")));
    }
    assert_eq!(service.metrics().tuples_cleaned, 20);
}

#[test]
fn cache_and_check() {
    let service = kv_service(1);
    let mut client = LocalClient::in_process(&service);
    // Startup pre-computation already populated the default-k entry.
    let (cached, _regions) = client.regions(None).unwrap();
    assert!(cached, "pre-computed at startup");
    let (cached_again, _) = client.regions(None).unwrap();
    assert!(cached_again);
    // A different k is served from the same retained search (the
    // ranking is untruncated in the state): still no recompute.
    let (hit, regions_k1) = client.regions(Some(1)).unwrap();
    assert!(hit, "any top_k comes from the one cached search");
    assert!(regions_k1.len() <= 1);
    let (check_miss, consistent) = client.check(Some("strict")).unwrap();
    assert!(!check_miss);
    assert!(consistent);
    let (check_hit, _) = client.check(Some("strict")).unwrap();
    assert!(check_hit);
}

#[test]
fn errors_are_reported_not_fatal() {
    let service = kv_service(1);
    let mut client = LocalClient::in_process(&service);
    // Wrong arity.
    assert_eq!(
        client
            .create_session(vec![Value::str("only-one")])
            .unwrap_err()
            .code(),
        Some(ErrorCode::BadRequest)
    );
    // Unknown session.
    assert_eq!(
        client.get_session(999).unwrap_err().code(),
        Some(ErrorCode::NotFound)
    );
    // Unknown attribute.
    let view = client.create_session(row("k1", "x", "y")).unwrap();
    assert_eq!(
        client
            .validate(view.session, vec![("nope".into(), Value::str("v"))])
            .unwrap_err()
            .code(),
        Some(ErrorCode::BadRequest)
    );
    // Null validation value is rejected by the monitor.
    assert_eq!(
        client
            .validate(view.session, vec![("key".into(), Value::Null)])
            .unwrap_err()
            .code(),
        Some(ErrorCode::BadRequest)
    );
    // Malformed raw line.
    let response = service.handle_line("this is not json");
    assert!(response.contains("\"ok\":false"));
    assert!(service.metrics().errors >= 4);
}

/// However a line is spelled it is read by the one parser: the plain
/// and the escaped spelling of the same request get the same reply,
/// the same error count and the same latency class. Two identical
/// services run one script, one fed each line as written, the other
/// fed it with the `op` key escaped (`"\u006fp"`). The script ends
/// with irregular shapes: escapes where the protocol's own names
/// sit, ill-typed fields, a line that is not JSON.
#[test]
fn scanned_and_tree_parsed_requests_get_the_same_reply() {
    let scanned = kv_service(1);
    let tree = kv_service(1);
    let script = [
        r#"{"op":"session.create","tuple":["k3","WRONG","n"]}"#,
        r#"{"op":"session.get","session":1}"#,
        r#"{"op":"session.validate","session":1,"validations":{"key":"k3"}}"#,
        r#"{"op":"session.fix","session":1}"#,
        // Escaped payloads unescape identically ("k\u0033" = "k3").
        r#"{"op":"session.validate","session":1,"validations":{"val":"k\u0033"}}"#,
        r#"{"op":"session.validate","session":1,"validations":{"note":"n"}}"#,
        r#"{"op":"session.get","session":1}"#,
        r#"{"op":"session.commit","session":1}"#,
        r#"{"op":"session.get","session":1}"#, // unknown session error
        r#"{"op":"session.validate","session":99,"validations":{"key":"k1"}}"#,
        r#"{"op":"session.validate","session":1,"validations":{"nope":"v"}}"#,
        r#"{"op":"session.validate","session":1,"validations":{"key":null}}"#,
        r#"{"op":"session.create","tuple":["k5","x","y"]}"#,
        r#"{"op":"session.validate","session":2,"validations":{}}"#,
        // Irregular shapes: an escaped top-level key, an escaped `op`
        // value, `session` as a string, a container cell value, an
        // invalid `\u` escape (not JSON: a syntax error, which names
        // its byte — five further on in the escaped spelling).
        r#"{"op":"session.get","\u0073ession":2}"#,
        r#"{"op":"session.\u0067et","session":2}"#,
        r#"{"op":"session.get","session":"2"}"#,
        r#"{"op":"session.validate","session":2,"validations":{"key":["k5"]}}"#,
        r#"{"op":"session.validate","session":2,"validations":{"key":"\uZZZZ"}}"#,
        r#"{"op":"session.abort","session":2}"#,
    ];
    for line in script {
        let forced = line.replacen(r#""op""#, r#""\u006fp""#, 1);
        let shifted = format!(" at byte {}\"", 59 + forced.len() - line.len());
        assert_eq!(
            scanned.handle_line(line),
            tree.handle_line(&forced).replace(&shifted, " at byte 59\""),
            "line: {line}"
        );
    }
    let (scanned, tree) = (scanned.metrics(), tree.metrics());
    assert_eq!(scanned.errors, tree.errors);
    assert_eq!(scanned.errors, 7, "seven of the script's lines are errors");
    let classes = |m: &MetricsSnapshot| -> Vec<(&str, u64)> {
        m.latency.iter().map(|l| (l.op, l.count)).collect()
    };
    assert_eq!(classes(&scanned), classes(&tree));
}

/// Everything the op table drives, checked row by row: the wire
/// name parses to and re-encodes from the row's `Request`; a
/// follower refuses exactly the `writes` rows with `not_primary` and
/// serves the rest; a level-2 shedder sheds exactly the rows that
/// are not critical, with the one `overloaded` line that names the
/// requests in flight; and every op's reply is one JSON line that
/// opens with the `id` echo and `ok` — byte for byte a checked-in
/// literal where the reply holds no clock reading.
#[test]
fn op_table_drives_parsing_gating_and_shedding() {
    use ops::{OpId, OPS};
    // The three ops that change a node's role or stop it go last.
    let mut rows: Vec<_> = OPS.iter().collect();
    rows.sort_by_key(|op| {
        matches!(
            op.id,
            Some(OpId::ReplicaPromote | OpId::Drain | OpId::Shutdown)
        )
    });
    // Every sample round-trips through its row's wire name; the
    // first (minimal) one of each op is served below.
    let lines: Vec<String> = rows
        .iter()
        .map(|op| {
            let lines: Vec<String> = protocol::tests::samples(op.id.expect("table rows are ops"))
                .into_iter()
                .map(|request| {
                    assert!(std::ptr::eq(request.op(), *op), "{}", op.name);
                    let line = request.to_json().render();
                    assert!(line.starts_with(&format!("{{\"op\":\"{}\"", op.name)));
                    assert_eq!(Request::parse_line(&line).unwrap(), request, "{line}");
                    line
                })
                .collect();
            lines.into_iter().next().expect("every op has a sample")
        })
        .collect();

    // A follower of a primary that is not there: it never catches
    // up, and it must not need to in order to refuse or serve.
    let dir = data_dir("op-table-follower");
    let (master, rules) = kv_setup();
    let follower = CleaningService::with_storage(
        master,
        rules,
        ServiceConfig {
            workers: 1,
            replicate_from: Some("127.0.0.1:1".into()),
            ..ServiceConfig::default()
        },
        manual_storage(&dir),
    )
    .unwrap();
    let code = |reply: &str| {
        let reply = wire::Json::parse(reply).unwrap();
        let code = reply.get("code").and_then(wire::Json::as_str);
        code.map(|code| ErrorCode::parse(code).expect("a code of the table"))
    };
    for (op, line) in rows.iter().zip(&lines) {
        let reply = follower.handle_line(line);
        assert_eq!(
            code(&reply) == Some(ErrorCode::NotPrimary),
            op.writes,
            "{} on a follower → {reply}",
            op.name
        );
    }
    drop(follower);
    let _ = std::fs::remove_dir_all(&dir);

    // Level 2: twice the watermark's requests held in flight.
    let (master, rules) = kv_setup();
    let service = CleaningService::new(
        master,
        rules,
        ServiceConfig {
            workers: 1,
            shed_watermark: 2,
            ..ServiceConfig::default()
        },
    );
    let held: Vec<_> = (0..4).map(|_| service.hold_request()).collect();
    for (op, line) in rows.iter().zip(&lines) {
        let reply = service.handle_line(line);
        let what = match op.class {
            admission::Priority::Critical => {
                let shed = code(&reply) == Some(ErrorCode::Overloaded);
                assert!(!shed, "{} at shed level 2 → {reply}", op.name);
                continue;
            }
            admission::Priority::Heavy => "heavy reads",
            admission::Priority::Session => "session mutations",
        };
        // The load the shedder saw is the other requests in flight.
        assert_eq!(
            reply,
            format!(
                "{{\"ok\":false,\"code\":\"overloaded\",\"error\":\"overloaded: shedding {what} \
                 at level 2 (4 requests in flight over watermark 2); retry with backoff\"}}"
            ),
            "{}",
            op.name
        );
    }
    assert_eq!(
        service.metrics().requests_in_flight,
        4,
        "every shed request let go"
    );
    drop(held);
    assert_eq!(service.metrics().requests_in_flight, 0);

    // Every op on a fresh service, in table order, each with an id:
    // whatever it answers is well-formed and opens the same way.
    // The literals are the parent commit's bytes (a tree, rendered),
    // so field order and number formatting are pinned past the tree.
    let service = kv_service(1);
    let ids = ["17", "\"req-9\"", "1.50", "null"];
    let mut pinned = 0;
    for ((op, line), id) in rows.iter().zip(&lines).zip(ids.iter().cycle()) {
        let reply = service.handle_line(&format!("{{\"id\":{id},{}", &line[1..]));
        assert_eq!(
            wire::scan::validate(&reply),
            Ok(()),
            "{} → {reply}",
            op.name
        );
        let rest = reply.strip_prefix(&format!("{{\"id\":{id},"));
        let rest = rest.unwrap_or_else(|| panic!("{} → {reply}", op.name));
        assert!(rest.starts_with("\"ok\":"), "{} → {reply}", op.name);
        if let Some((_, golden)) = GOLDEN_REPLIES.iter().find(|(name, _)| *name == op.name) {
            assert_eq!(rest, *golden, "{}", op.name);
            pinned += 1;
        }
    }
    assert_eq!(pinned, GOLDEN_REPLIES.len());
}

/// What the ops whose reply is a function of the requests before it
/// answer in `op_table_drives_parsing_gating_and_shedding`, after
/// the `id` echo.
const GOLDEN_REPLIES: &[(&str, &str)] = &[
    (
        "session.get",
        r#""ok":false,"code":"not_found","error":"unknown session 7 (expired, finished, or never created)"}"#,
    ),
    (
        "clean",
        r#""ok":true,"count":2,"complete":1,"cells_fixed":1,"outcomes":[{"index":0,"complete":true,"cells_fixed":1,"validated":3,"tuple":["k1","v1","x"]},{"index":1,"complete":false,"cells_fixed":0,"validated":0,"tuple":[null,"?",null]}]}"#,
    ),
    (
        "regions",
        r#""ok":true,"cached":true,"top_k":8,"regions":[{"attrs":["key","note"],"size":2,"contexts":1,"rendered":"({key, note}, [()])"}],"candidates":1,"closure_probes":1,"certification_fixpoints":0,"master_generation":0}"#,
    ),
    (
        "check",
        r#""ok":true,"cached":false,"mode":"strict","consistent":true,"conflicts":0,"ambiguities":0,"budget_exhausted":false}"#,
    ),
    (
        "audit.read",
        r#""ok":true,"start":0,"count":3,"next":3,"total":3,"spilled":0,"records":[{"index":0,"tuple":1,"attr":"key","round":1,"kind":"user_validated","old":"k1","new":"k1"},{"index":1,"tuple":1,"attr":"note","round":1,"kind":"user_validated","old":"x","new":"x"},{"index":2,"tuple":1,"attr":"val","round":1,"kind":"rule_fixed","rule":0,"master_row":1,"old":"WRONG","new":"v1"}]}"#,
    ),
    (
        "rules.reload",
        r#""ok":true,"rules":1,"ruleset":"defb5b2b01d2ec3c","regions":1}"#,
    ),
    (
        "master.append",
        r#""ok":true,"appended":1,"master_rows":51,"generation":1}"#,
    ),
    ("config.set", r#""ok":true,"key":"slow_ms","value":250}"#),
    (
        "server.drain",
        r#""ok":true,"draining":true,"sessions":0,"wait_ms":10000}"#,
    ),
    ("shutdown", r#""ok":true,"stopping":true}"#),
];

#[test]
fn request_ids_echo_on_every_path() {
    let service = kv_service(1);
    let mut client = LocalClient::in_process(&service);
    client.create_session(row("k3", "WRONG", "n")).unwrap();
    // A session op (its reply written under the session's lock), a
    // cold one (check, written once gathered) and the error replies
    // all echo the id as the first field, verbatim.
    for (line, op_is_error) in [
        (r#"{"op":"session.get","session":1,"id":7}"#, false),
        (r#"{"op":"check","id":"c-1"}"#, false),
        (r#"{"op":"session.get","session":999,"id":1.25}"#, true),
        (r#"{"op":"warp","id":[1,2]}"#, true),
        // Any JSON value is an id, echoed byte for byte: a nested
        // one, one spelled with escapes.
        (
            r#"{"op":"session.get","session":1,"id":{"a":[1,{"b":null}]}}"#,
            false,
        ),
        (r#"{"op":"check","id":"c\u002d\n\"2"}"#, false),
    ] {
        let with_id = service.handle_line(line);
        let id_span = line.split_once(r#""id":"#).expect("id present").1;
        let id_span = &id_span[..id_span.len() - 1];
        assert!(
            with_id.starts_with(&format!("{{\"id\":{id_span},")),
            "{line} → {with_id}"
        );
        assert_eq!(
            with_id.contains("\"ok\":false"),
            op_is_error,
            "{line} → {with_id}"
        );
    }
    // Without an id, no id field appears.
    let without = service.handle_line(r#"{"op":"session.get","session":1}"#);
    assert!(!without.contains("\"id\""));
}

/// A handler that fails after it began writing leaves no half reply:
/// the frame takes back what it wrote — to where the reply began,
/// not to the start of a buffer that may hold earlier replies — and
/// the request is answered with exactly one well-formed error line.
#[test]
fn a_failed_handler_never_leaves_half_a_reply() {
    let service = kv_service(1);
    let mut out = String::from("{\"ok\":true}\n");
    let now = std::time::Instant::now();
    service.answer(&ops::OTHER, None, &mut out, now, now, |mut reply| {
        let w = reply.ok();
        w.key("x");
        Err(ErrorCode::Internal.error("boom"))
    });
    assert_eq!(
        out,
        "{\"ok\":true}\n{\"ok\":false,\"code\":\"internal\",\"error\":\"boom\"}"
    );
    assert_eq!(service.metrics().errors, 1);
}

/// A reply is JSON whatever the request was: a line that is not —
/// however deep inside a field nobody reads the damage sits — is
/// answered `ok:false` with the lexer's positioned error, charged to
/// `parse_error`, and nothing of it is echoed. (Before the lexer
/// validated what it skipped, all but the last of these were served,
/// the `id` ones with the broken span as the reply's first field.)
#[test]
fn a_malformed_span_is_never_served_nor_echoed() {
    let service = kv_service(1);
    let mut client = LocalClient::in_process(&service);
    client.create_session(row("k3", "WRONG", "n")).unwrap();
    let deep = "[".repeat(200);
    let get = |field: &str| format!(r#"{{"op":"session.get","session":1,{field}}}"#);
    let lines = [
        (get(r#""id":[}"#), "[}"),
        (get(r#""id":{"a" 1 2 3]"#), r#"{"a" 1 2 3]"#),
        (get(r#""id":"a\qb""#), r#"a\qb"#),
        (get(r#""id":01"#), "01"),
        (get(r#""id":1."#), "1."),
        (get(r#""x":[1,,2]"#), "[1,,2]"),
        (get(r#""x":{]"#), "{]"),
        (get(&format!(r#""x":{deep}"#)), "[["),
        (
            r#"{"op":"session.validate","session":1,"validations":{"note":"\ud800"}}"#.into(),
            r#"\ud800"#,
        ),
    ];
    for (line, span) in &lines {
        let reply = service.handle_line(line);
        let json = wire::Json::parse(&reply).unwrap_or_else(|e| panic!("{line} → {reply}: {e}"));
        assert_eq!(json.get("ok"), Some(&wire::Json::Bool(false)), "{line}");
        let error = json.get("error").and_then(wire::Json::as_str).unwrap();
        assert!(error.contains(" at byte "), "{line} → {error}");
        assert!(json.get("id").is_none(), "{line} → {reply}");
        assert!(!reply.contains(span), "{line} → {reply}");
    }
    let metrics = service.metrics();
    let class = metrics.latency.iter().find(|l| l.op == "parse_error");
    assert_eq!(class.map(|l| l.count), Some(lines.len() as u64));
    // The session none of them reached is as it was.
    assert_eq!(client.get_session(1).unwrap().rounds, 0);
}

/// The conformance table (`wire::tests::conformance`) through every
/// view over the one lexer: the tree builder and the bare validator
/// on the text itself; the tree builder, the field scanner and the
/// request path on the text as a member's value — for the last, a
/// field no op reads on a `session.get` that is otherwise fine. The
/// verdicts must all be the table's.
#[test]
fn every_view_of_the_lexer_gives_the_same_verdict() {
    use wire::scan::{validate, ObjectScanner};
    let service = kv_service(1);
    let mut client = LocalClient::in_process(&service);
    client.create_session(row("k3", "WRONG", "n")).unwrap();
    let rows = wire::tests::conformance();
    assert!(rows.len() >= 60, "{} rows", rows.len());
    for (text, accept) in rows {
        let member = format!(r#"{{"v":{text}}}"#);
        let mut scanner = ObjectScanner::new(&member).unwrap();
        while scanner.next_field().is_some() {}
        let served =
            service.handle_line(&format!(r#"{{"op":"session.get","session":1,"x":{text}}}"#));
        let verdicts = [
            wire::Json::parse(&text).is_ok(),
            validate(&text).is_ok(),
            wire::Json::parse(&member).is_ok(),
            scanner.finish().is_ok(),
            served.contains("\"ok\":true"),
        ];
        assert_eq!(verdicts, [accept; 5], "{text:?}");
    }
}

#[test]
fn tcp_round_trip() {
    let service = kv_service(2);
    let handle = Server::spawn("127.0.0.1:0", service).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let view = client.create_session(row("k7", "WRONG", "n")).unwrap();
    let after = client
        .validate(view.session, vec![("key".into(), Value::str("k7"))])
        .unwrap();
    assert_eq!(after.tuple[1], Value::str("v7"));
    // A second connection attaches to the same session.
    let mut other = Client::connect(handle.addr()).unwrap();
    let attached = other.get_session(view.session).unwrap();
    assert_eq!(attached.tuple[1], Value::str("v7"));
    other.abort(view.session).unwrap();
    assert_eq!(
        client.get_session(view.session).unwrap_err().code(),
        Some(ErrorCode::NotFound)
    );
    handle.shutdown().unwrap();
}

/// A data directory recovers byte for byte: after a clean shutdown
/// and a reopen, every `session.get` and `audit.read` line is the
/// line it was, and opening the directory rewrote neither file.
#[test]
fn a_data_directory_recovers_byte_for_byte() {
    let dir = data_dir("byte-for-byte");
    let script = [
        r#"{"op":"session.create","tuple":["k3","WRONG","n"]}"#,
        r#"{"op":"session.create","tuple":["k7","x","y"]}"#,
        r#"{"op":"session.create","tuple":["k9","z","w"]}"#,
        r#"{"op":"session.create","tuple":["k4","q","r"]}"#,
        r#"{"op":"session.validate","session":1,"validations":{"key":"k3"}}"#,
        r#"{"op":"session.validate","session":2,"validations":{"key":"k7","note":"y"}}"#,
        r#"{"op":"clean","trust":["key","note"],"tuples":[["k1","?","a"],["k2","v2","b"]]}"#,
        r#"{"op":"session.commit","session":4}"#,
    ];
    let lines = |service: &CleaningService| -> Vec<String> {
        let gets = (1..=4).map(|id| format!(r#"{{"op":"session.get","session":{id}}}"#));
        let pages = (0..16)
            .step_by(3)
            .map(|start| format!(r#"{{"op":"audit.read","start":{start},"count":3}}"#));
        gets.chain(pages)
            .map(|line| service.handle_line(&line))
            .collect()
    };
    let files = || ["journal.wal", "audit.seg"].map(|f| std::fs::read(dir.join(f)).unwrap());
    let (before, written) = {
        let service = kv_service_journaled(&dir);
        for line in script {
            let reply = service.handle_line(line);
            assert!(reply.starts_with(r#"{"ok":true"#), "{line}: {reply}");
        }
        (lines(&service), files())
    };
    assert_eq!(
        files(),
        written,
        "a clean shutdown after a commit writes nothing"
    );
    let service = kv_service_journaled(&dir);
    assert_eq!(service.live_sessions(), 3);
    assert_eq!(lines(&service), before);
    assert!(before
        .iter()
        .any(|line| line.contains(r#""kind":"rule_fixed""#)));
    assert_eq!(files(), written, "recovery rewrote a file");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The acceptance shape of the storage subsystem: kill the service
/// mid-batch (simulated kill-9: un-fsynced bytes lost), restart over
/// the same data dir, and every uncommitted session resumes with
/// state identical to the uninterrupted run. `audit.read` returns
/// the same records before and after.
#[test]
fn journaled_sessions_survive_crash_and_restart() {
    let dir = data_dir("crash-restart");
    let (s1, s2, s3, views_before, audit_before, metrics_before);
    {
        let service = kv_service_journaled(&dir);
        let mut client = LocalClient::in_process(&service);
        // s1: partially validated (one fix applied, note pending).
        s1 = client.create_session(row("k3", "WRONG", "n")).unwrap();
        client
            .validate(s1.session, vec![("key".into(), Value::str("k3"))])
            .unwrap();
        // s2: fully validated but uncommitted.
        s2 = client.create_session(row("k7", "x", "y")).unwrap();
        client
            .validate(
                s2.session,
                vec![
                    ("key".into(), Value::str("k7")),
                    ("note".into(), Value::str("y")),
                ],
            )
            .unwrap();
        // s3: created, never touched again.
        s3 = client.create_session(row("k9", "z", "w")).unwrap();
        // s4: committed — its commit ack is the durability barrier
        // that group-fsyncs everything above.
        let s4 = client.create_session(row("k1", "q", "r")).unwrap();
        client.commit(s4.session).unwrap();
        views_before = [
            client.get_session(s1.session).unwrap(),
            client.get_session(s2.session).unwrap(),
            client.get_session(s3.session).unwrap(),
        ];
        audit_before = client.audit_read_all(3).unwrap();
        assert!(!audit_before.is_empty());
        metrics_before = service.metrics();
        assert!(metrics_before.journal_events >= 6);
        assert!(metrics_before.journal_bytes > 0);
        service.simulate_crash().unwrap();
    }
    let service = kv_service_journaled(&dir);
    assert_eq!(service.live_sessions(), 3, "s4 committed, rest resumed");
    assert_eq!(service.metrics().sessions_recovered, 3);
    let mut client = LocalClient::in_process(&service);
    for (before, id) in views_before
        .iter()
        .zip([s1.session, s2.session, s3.session])
    {
        let after = client.get_session(id).unwrap();
        assert_eq!(after.status, before.status, "session {id}");
        assert_eq!(after.tuple, before.tuple, "session {id}");
        assert_eq!(after.rounds, before.rounds, "session {id}");
        assert_eq!(after.validated, before.validated, "session {id}");
        assert_eq!(after.suggestion, before.suggestion, "session {id}");
    }
    // The rule-fixed value really is there (s1's val := v3).
    assert_eq!(
        client.get_session(s1.session).unwrap().tuple[1],
        Value::str("v3")
    );
    // Provenance archive identical across the restart.
    let audit_after = client.audit_read_all(3).unwrap();
    assert_eq!(audit_after, audit_before);
    // New ids never collide with recovered ones.
    let fresh = client.create_session(row("k2", "a", "b")).unwrap();
    assert!(fresh.session > s3.session);
    // Sessions keep working after recovery: finish s1.
    let done = client
        .validate(s1.session, vec![("note".into(), Value::str("n"))])
        .unwrap();
    assert!(done.is_complete());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A snapshot truncates the journal; recovery then starts from the
/// snapshot and replays only the suffix. State must be identical to
/// recovery-from-journal-alone.
#[test]
fn snapshot_plus_suffix_recovers_exactly() {
    let dir = data_dir("snapshot-suffix");
    let (s1, s2, view1, view2);
    {
        let service = kv_service_journaled(&dir);
        let mut client = LocalClient::in_process(&service);
        s1 = client.create_session(row("k5", "WRONG", "n")).unwrap();
        client
            .validate(s1.session, vec![("key".into(), Value::str("k5"))])
            .unwrap();
        assert!(service.snapshot_now().unwrap());
        assert_eq!(service.metrics().snapshots_written, 1);
        // Post-snapshot traffic lands in the fresh journal epoch.
        s2 = client.create_session(row("k6", "x", "y")).unwrap();
        client
            .validate(s2.session, vec![("key".into(), Value::str("k6"))])
            .unwrap();
        let barrier = client.create_session(row("k0", "a", "b")).unwrap();
        client.commit(barrier.session).unwrap();
        view1 = client.get_session(s1.session).unwrap();
        view2 = client.get_session(s2.session).unwrap();
        service.simulate_crash().unwrap();
    }
    let service = kv_service_journaled(&dir);
    assert_eq!(service.live_sessions(), 2);
    let mut client = LocalClient::in_process(&service);
    for (before, id) in [(view1, s1.session), (view2, s2.session)] {
        let after = client.get_session(id).unwrap();
        assert_eq!(after.tuple, before.tuple);
        assert_eq!(after.rounds, before.rounds);
        assert_eq!(after.validated, before.validated);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A journaled service keeps no audit record resident: `audit.read`
/// pages through the spill, a page across its flushed/buffered
/// boundary reads what was appended, and every record counts as
/// spilled in metrics.
#[test]
fn audit_read_spans_window_and_spill() {
    let dir = data_dir("audit-pages");
    let service = kv_service_journaled(&dir);
    let mut client = LocalClient::in_process(&service);
    let mut clean = |keys: std::ops::Range<usize>| {
        let tuples = keys.map(|i| row(&format!("k{i}"), "WRONG", "x")).collect();
        client
            .clean(tuples, vec!["key".into(), "note".into()])
            .unwrap();
    };
    // 5 tuples × (2 user-validated + 1 rule-fixed) = 15 records,
    // flushed; then 15 more, still buffered.
    clean(0..5);
    service.storage().unwrap().spill().sync().unwrap();
    clean(5..10);
    let mut client = LocalClient::in_process(&service);
    let all = client.audit_read_all(7).unwrap();
    let page = client.audit_read(12, Some(6)).unwrap();
    assert_eq!(all.len(), 30);
    assert_eq!(service.audit().len(), 30);
    assert!(service.audit().records().is_empty(), "nothing resident");
    assert_eq!(service.audit().spilled(), 30, "the spill is the window");
    assert_eq!(service.metrics().audit_spilled_records, 30);
    // Indices are the global stream positions.
    for (i, record) in all.iter().enumerate() {
        assert_eq!(record.index, i as u64);
    }
    let fixed: Vec<_> = all.iter().filter(|r| r.kind == "rule_fixed").collect();
    assert_eq!(fixed.len(), 10);
    assert!(fixed.iter().all(|r| r.attr == "val"));
    // Once everything is on disk, every read is the same again.
    service.storage().unwrap().spill().sync().unwrap();
    let flushed = client.audit_read_all(30).unwrap();
    assert_eq!(all, flushed);
    assert_eq!((page.next, page.total, page.spilled), (18, 30, 30));
    assert_eq!(page.records, flushed[12..18]);
    let _ = std::fs::remove_dir_all(&dir);
}

/// An in-memory service keeps the newest `MEMORY_AUDIT_WINDOW`
/// records however many it cleans: the total stays exact, evicted
/// records count as spilled, and a page below the window is empty.
#[test]
fn memory_mode_audit_log_is_bounded() {
    const TUPLES: usize = 20_000;
    let service = kv_service(2);
    let mut client = LocalClient::in_process(&service);
    for batch in 0..TUPLES / 1000 {
        let tuples = (batch * 1000..(batch + 1) * 1000)
            .map(|i| row(&format!("k{}", i % 10), "WRONG", "x"))
            .collect();
        client
            .clean(tuples, vec!["key".into(), "note".into()])
            .unwrap();
    }
    let audit = service.audit();
    let total = 3 * TUPLES;
    assert_eq!(audit.len(), total);
    assert!(audit.records().len() <= service::MEMORY_AUDIT_WINDOW);
    assert_eq!(audit.spilled(), total - service::MEMORY_AUDIT_WINDOW);
    assert_eq!(
        service.metrics().audit_spilled_records as usize,
        total - service::MEMORY_AUDIT_WINDOW
    );
    assert!(client.audit_read(0, Some(10)).unwrap().records.is_empty());
    let tail = client.audit_read(total as u64 - 10, Some(100)).unwrap();
    assert_eq!((tail.records.len(), tail.next), (10, total as u64));
}

/// `rules.reload` swaps the engine atomically, is journaled, and
/// recovery replays sessions against the rule set that was active
/// when their events were journaled.
#[test]
fn rules_reload_swaps_and_survives_restart() {
    let dir = data_dir("reload");
    let reversed = "er kv2: match val=val fix key:=key when ()";
    let (sid, view_before, fingerprint);
    {
        let service = kv_service_journaled(&dir);
        let mut client = LocalClient::in_process(&service);
        // Old rules: validating key fixes val.
        let old = client.create_session(row("k3", "WRONG", "n")).unwrap();
        let after = client
            .validate(old.session, vec![("key".into(), Value::str("k3"))])
            .unwrap();
        assert_eq!(after.tuple[1], Value::str("v3"));
        client.commit(old.session).unwrap();

        let (rules, fp) = client.reload_rules(reversed).unwrap();
        assert_eq!(rules, 1);
        fingerprint = fp;
        assert_eq!(service.metrics().rules_reloaded, 1);

        // New rules: validating val fixes key.
        let new = client.create_session(row("WRONG", "v8", "n")).unwrap();
        let after = client
            .validate(new.session, vec![("val".into(), Value::str("v8"))])
            .unwrap();
        assert_eq!(after.tuple[0], Value::str("k8"), "reversed rule fired");
        sid = new.session;
        view_before = client.get_session(sid).unwrap();
        // reload_rules synced; the later session events need a
        // barrier too.
        let barrier = client.create_session(row("k0", "a", "b")).unwrap();
        client.commit(barrier.session).unwrap();
        service.simulate_crash().unwrap();
    }
    // Reboot with the ORIGINAL rules: the journaled reload must win.
    let service = kv_service_journaled(&dir);
    let mut client = LocalClient::in_process(&service);
    let hello = client.hello().unwrap();
    assert_eq!(
        hello.get("ruleset").and_then(wire::Json::as_str),
        Some(fingerprint.as_str()),
        "recovered service runs the reloaded rule set"
    );
    let after = client.get_session(sid).unwrap();
    assert_eq!(after.tuple, view_before.tuple);
    assert_eq!(after.validated, view_before.validated);
    // And the reloaded semantics hold for fresh sessions.
    let fresh = client.create_session(row("WRONG", "v4", "n")).unwrap();
    let fixed = client
        .validate(fresh.session, vec![("val".into(), Value::str("v4"))])
        .unwrap();
    assert_eq!(fixed.tuple[0], Value::str("k4"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Idle evictions are journaled: a reaped session must not be
/// resurrected by recovery.
#[test]
fn evicted_sessions_stay_dead_after_recovery() {
    let dir = data_dir("evict-recover");
    let (master, rules) = kv_setup();
    let gone;
    {
        let service = CleaningService::with_storage(
            master.clone(),
            rules.clone(),
            ServiceConfig {
                workers: 1,
                session_ttl: Duration::from_millis(10),
                ..ServiceConfig::default()
            },
            manual_storage(&dir),
        )
        .unwrap();
        let mut client = LocalClient::in_process(&service);
        gone = client.create_session(row("k1", "a", "b")).unwrap();
        std::thread::sleep(Duration::from_millis(25));
        assert_eq!(service.sweep_idle_sessions(), 1);
        let barrier = client.create_session(row("k0", "a", "b")).unwrap();
        client.commit(barrier.session).unwrap();
        service.simulate_crash().unwrap();
    }
    let service = CleaningService::with_storage(
        master,
        rules,
        ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        },
        manual_storage(&dir),
    )
    .unwrap();
    assert_eq!(service.live_sessions(), 0, "evicted session not revived");
    let mut client = LocalClient::in_process(&service);
    assert_eq!(
        client.get_session(gone.session).unwrap_err().code(),
        Some(ErrorCode::NotFound)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stats_alias_and_storage_fields() {
    let service = kv_service(1);
    let response = service.handle_line(r#"{"op":"stats"}"#);
    assert!(response.contains("\"storage\":\"memory\""));
    assert!(response.contains("\"audit_spilled_records\":0"));
    assert!(response.contains("\"sessions_recovered\":0"));
    let dir = data_dir("stats");
    let journaled = kv_service_journaled(&dir);
    let response = journaled.handle_line(r#"{"op":"stats"}"#);
    assert!(response.contains("\"storage\":\"journaled\""));
    assert!(response.contains("\"journal_epoch\":0"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn idle_sessions_are_evicted() {
    let input = Schema::of_strings("in", ["a"]).unwrap();
    let ms = Schema::of_strings("m", ["a"]).unwrap();
    let master = MasterData::new(RelationBuilder::new(ms.clone()).build().unwrap());
    let rules = RuleSet::new(input, ms);
    let service = CleaningService::new(
        Arc::new(master),
        Arc::new(rules),
        ServiceConfig {
            workers: 1,
            session_ttl: Duration::from_millis(10),
            ..ServiceConfig::default()
        },
    );
    let mut client = LocalClient::in_process(&service);
    client.create_session(vec![Value::str("x")]).unwrap();
    assert_eq!(service.live_sessions(), 1);
    std::thread::sleep(Duration::from_millis(25));
    assert_eq!(service.sweep_idle_sessions(), 1);
    assert_eq!(service.live_sessions(), 0);
    assert_eq!(service.metrics().sessions_evicted, 1);
}

/// The `regions` reply and the `metrics` reply's `region_search` of
/// `service`, in that order.
fn region_replies(service: &CleaningService) -> (String, Option<wire::Json>) {
    let regions = service.handle_line(r#"{"op":"regions"}"#);
    let metrics = wire::Json::parse(&service.handle_line(r#"{"op":"metrics"}"#)).unwrap();
    (regions, metrics.get("region_search").cloned())
}

/// A service over the kv master grown by `rows`, as `master.append`
/// grows it, built fresh.
fn kv_service_over_grown(rows: &[[&str; 2]], config: ServiceConfig) -> CleaningService {
    let (master, rules) = kv_setup();
    let schema = rules.master_schema();
    let rows = rows
        .iter()
        .map(|row| Tuple::of_strings(schema.clone(), *row).unwrap())
        .collect();
    let (grown, _) = master.append_copy(rows).unwrap();
    CleaningService::new(Arc::new(grown), rules, config)
}

#[test]
fn master_append_serves_new_entities_and_patches_regions() {
    let service = kv_service(2);
    let mut client = LocalClient::in_process(&service);
    // The region search is pre-computed at startup; prove the
    // new key is unknown.
    let (cached, _) = client.regions(None).unwrap();
    assert!(cached);
    let before = client
        .clean(
            vec![row("k100", "?", "n")],
            vec!["key".into(), "note".into()],
        )
        .unwrap();
    assert!(!before[0].complete, "k100 not in master yet");

    let (appended, master_rows) = client
        .master_append(vec![vec![Value::str("k100"), Value::str("v100")]])
        .unwrap();
    assert_eq!(appended, 1);
    assert_eq!(master_rows, 51);

    // The new entity is immediately servable...
    let after = client
        .clean(
            vec![row("k100", "?", "n")],
            vec!["key".into(), "note".into()],
        )
        .unwrap();
    assert!(after[0].complete);
    assert_eq!(after[0].tuple[1], Value::str("v100"));
    // ...and the append searched the grown master's regions: the state
    // it installed answers what a service built over that master does,
    // byte for byte.
    let fresh = kv_service_over_grown(
        &[["k100", "v100"]],
        ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        },
    );
    let (regions, search) = region_replies(&service);
    assert!(regions.contains(r#""cached":true"#), "{regions}");
    assert_eq!((regions, search), region_replies(&fresh));
    assert_eq!(service.metrics().master_appends, 1);

    // Wrong arity is rejected without mutating anything.
    assert!(client.master_append(vec![vec![Value::str("k1")]]).is_err());
    assert_eq!(service.metrics().master_appends, 1);
}

/// Without pre-computation an append leaves the region search lazy:
/// the first `regions` after it runs the search over the grown master
/// and answers what that request on a fresh service over it answers.
/// The appended row gives `k1` a second `val`, so `{key, note}` no
/// longer certifies: a search carried over from before the append
/// would still offer it.
#[test]
fn master_append_patches_on_demand_cached_search_without_precompute() {
    let config = || ServiceConfig {
        workers: 1,
        precompute_regions: false,
        ..ServiceConfig::default()
    };
    let (master, rules) = kv_setup();
    let service = CleaningService::new(master, rules, config());
    let mut client = LocalClient::in_process(&service);
    // No startup search; the first regions call runs it on demand.
    let (cached, before) = client.regions(None).unwrap();
    assert!(!cached);
    assert!(!before.is_empty());
    client
        .master_append(vec![vec![Value::str("k1"), Value::str("w1")]])
        .unwrap();
    let fresh = kv_service_over_grown(&[["k1", "w1"]], config());
    let (regions, search) = region_replies(&service);
    assert!(regions.contains(r#""cached":false"#), "{regions}");
    assert_eq!((regions, search), region_replies(&fresh));
    let (cached, after) = client.regions(None).unwrap();
    assert!(cached, "the search runs once per state");
    assert!(after.is_empty(), "k1 is ambiguous: {after:?}");
}

#[test]
fn master_append_is_journaled_and_survives_crash() {
    let dir = data_dir("master-append");
    {
        let service = kv_service_journaled(&dir);
        let mut client = LocalClient::in_process(&service);
        client
            .master_append(vec![vec![Value::str("k200"), Value::str("v200")]])
            .unwrap();
        // The append ack is a sync point: it survives kill -9 with
        // no commit after it.
        service.simulate_crash().unwrap();
    }
    {
        let service = kv_service_journaled(&dir);
        let mut client = LocalClient::in_process(&service);
        let outcome = client
            .clean(
                vec![row("k200", "?", "n")],
                vec!["key".into(), "note".into()],
            )
            .unwrap();
        assert!(outcome[0].complete, "journaled append replayed");
        assert_eq!(outcome[0].tuple[1], Value::str("v200"));
        // Snapshot: the appended rows ride in it past journal
        // truncation.
        assert!(service.snapshot_now().unwrap());
        client
            .master_append(vec![vec![Value::str("k201"), Value::str("v201")]])
            .unwrap();
        service.simulate_crash().unwrap();
    }
    let service = kv_service_journaled(&dir);
    let mut client = LocalClient::in_process(&service);
    for (key, val) in [("k200", "v200"), ("k201", "v201")] {
        let outcome = client
            .clean(vec![row(key, "?", "n")], vec!["key".into(), "note".into()])
            .unwrap();
        assert!(outcome[0].complete, "{key} recovered");
        assert_eq!(outcome[0].tuple[1], Value::str(val));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The instrument table is the oracle for every exposition. On a
/// journaled primary with one registered follower and traffic on the
/// engine path, each row must show up — once, with the row's type —
/// in the `metrics` reply, the `metrics.history` sample and the
/// Prometheus text, and the three must show the same number.
#[test]
fn every_instrument_row_reaches_every_exposition() {
    use crate::metrics::{Kind, FAMILIES, SCALARS};
    use std::collections::{HashMap, HashSet};

    let dir = data_dir("instruments");
    let service = kv_service_journaled(&dir);
    let mut client = LocalClient::in_process(&service);
    for key in ["k1", "k2"] {
        let view = client.create_session(row(key, "WRONG", "n")).unwrap();
        client
            .validate(view.session, vec![("key".into(), Value::str(key))])
            .unwrap();
        client.commit(view.session).unwrap();
    }
    let synced =
        service.handle_line(r#"{"op":"replica.sync","follower":"f1","epoch":0,"offset":0}"#);
    assert!(synced.contains("\"ok\":true"), "{synced}");
    service.sample_timeseries();

    let parse = |line: &str| wire::Json::parse(service.handle_line(line).trim()).unwrap();
    let before = service.metrics();
    let reply = parse(r#"{"op":"metrics"}"#);
    let after = service.metrics();
    let history = parse(r#"{"op":"metrics.history"}"#);
    let sample = &history.get("samples").and_then(wire::Json::as_arr).unwrap()[0];
    let prom = parse(r#"{"op":"metrics.prom"}"#);
    let text = prom.get("body").and_then(wire::Json::as_str).unwrap();

    // The text, indexed: `# TYPE`s and `# HELP`s per family, and
    // every sample line's `name{labels}`.
    let mut types: HashMap<&str, Vec<&str>> = HashMap::new();
    let mut helps: HashMap<&str, usize> = HashMap::new();
    let mut samples: Vec<&str> = Vec::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, kind) = rest.split_once(' ').unwrap();
            types.entry(name).or_default().push(kind);
        } else if let Some(rest) = line.strip_prefix("# HELP ") {
            *helps.entry(rest.split_once(' ').unwrap().0).or_default() += 1;
        } else {
            samples.push(line.rsplit_once(' ').unwrap().0);
        }
    }
    let exposed = |family: &str, kind: &str, series: &dyn Fn(&str) -> bool| {
        assert_eq!(types.get(family), Some(&vec![kind]), "{family}: one TYPE");
        assert_eq!(helps.get(family), Some(&1), "{family}: one HELP");
        assert!(samples.iter().any(|s| series(s)), "{family}: a sample");
        assert_eq!(
            family.ends_with("_total"),
            kind == "counter",
            "{family}: counters, and only counters, end in _total"
        );
    };

    let mut names = HashSet::new();
    let mut keys = HashSet::new();
    for row in SCALARS {
        assert!(keys.insert(row.field), "{}: key declared twice", row.field);
        assert!(names.insert(row.prom), "{}: name declared twice", row.prom);
        let shown = reply
            .get(row.field)
            .unwrap_or_else(|| panic!("{}", row.field));
        let value = match row.kind {
            Kind::Flag => u64::from(shown.as_bool().expect(row.field)),
            Kind::Counter | Kind::Gauge => shown.as_u64().expect(row.field),
        };
        // The reply sits between two snapshots; equal unless the row
        // counts the `metrics` request itself.
        let (lo, hi) = ((row.get)(&before), (row.get)(&after));
        assert!(
            lo <= value && value <= hi,
            "{}: {lo} <= {value} <= {hi}",
            row.field
        );
        assert!(sample.get(row.field).is_some(), "{}: in history", row.field);
        let series = match row.label {
            Some((key, value)) => format!("{}{{{key}=\"{value}\"}}", row.prom),
            None => row.prom.to_string(),
        };
        exposed(row.prom, row.prom_type(), &|s| s == series);
    }
    for row in FAMILIES {
        assert!(names.insert(row.prom), "{}: name declared twice", row.prom);
        exposed(row.prom, row.kind, &|s| {
            let rest = s.strip_prefix(row.prom).unwrap_or("x");
            let rest = match row.kind {
                "histogram" => rest.strip_prefix("_bucket").unwrap_or("x"),
                _ => rest,
            };
            rest.is_empty() || rest.starts_with('{')
        });
    }
    // Nothing is exposed that is not a row.
    assert_eq!(types.len(), names.len());

    // Each validate ran the engine once; its span's engine stats are
    // what its op class was charged, family for family.
    let validate = ops::OpId::SessionValidate.row();
    let mut charged = cerfix::EngineStats::default();
    for span in service.trace().ring().recent_spans(usize::MAX) {
        if span.op == validate.slot {
            charged.fixpoint_runs += span.stats.fixpoint_runs;
            charged.rule_attempts += span.stats.rule_attempts;
            charged.master_lookups += span.stats.master_lookups;
            charged.index_probes += span.stats.index_probes;
        }
    }
    assert_eq!(charged.fixpoint_runs, 2);
    for (family, total) in [
        ("fixpoint_runs", charged.fixpoint_runs),
        ("rule_attempts", charged.rule_attempts),
        ("master_lookups", charged.master_lookups),
        ("index_probes", charged.index_probes),
    ] {
        assert!(total > 0, "{family}");
        let line = format!("cerfix_engine_{family}_total{{op=\"session.validate\"}} {total}");
        assert!(text.lines().any(|l| l == line), "{line}");
    }
    // The follower registered at the start of this epoch lags by
    // everything durable, in both views of the one computation.
    let lag = reply
        .get("replication")
        .and_then(|r| r.get("f1"))
        .and_then(|f| f.get("lag_events"))
        .and_then(wire::Json::as_u64)
        .expect("replication.f1.lag_events");
    assert!(lag > 0);
    let lag_line = format!("cerfix_replication_lag_events{{follower=\"f1\"}} {lag}");
    assert!(text.lines().any(|line| line == lag_line), "{lag_line}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Names that come from data are escaped where a reply writes them as
/// keys: a follower named with `"`, `\` and a control byte is listed
/// under its exact name by `metrics` and by `cluster.status`, the two
/// replies that name followers, and both still parse.
#[test]
fn a_follower_name_is_escaped_as_a_key() {
    let dir = data_dir("escaped-follower");
    let service = kv_service_journaled(&dir);
    let sync = r#"{"op":"replica.sync","follower":"f\"1\\\u0001","epoch":0,"offset":0}"#;
    let synced = service.handle_line(sync);
    assert!(synced.contains("\"ok\":true"), "{synced}");
    let parse = |line: &str| {
        let reply = service.handle_line(line);
        wire::Json::parse(reply.trim()).unwrap_or_else(|e| panic!("{e}: {reply}"))
    };
    let metrics = parse(r#"{"op":"metrics"}"#);
    let status = parse(r#"{"op":"cluster.status","fanout":false}"#);
    let own = &status.get("nodes").and_then(wire::Json::as_arr).unwrap()[0];
    for followers in [metrics.get("replication"), own.get("followers")] {
        let followers = followers.and_then(wire::Json::as_obj).unwrap();
        let names: Vec<&str> = followers.iter().map(|(name, _)| name.as_str()).collect();
        assert_eq!(names, ["f\"1\\\u{1}"]);
    }
    drop(service);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A request's engine-stat delta lands field for field in the
/// family of the same name (distinct totals, so a cross-wired field
/// fails), and only under the op it was charged to.
#[test]
fn engine_stats_accumulate_per_op_class() {
    let service = kv_service(1);
    let validate = ops::OpId::SessionValidate.row();
    for (fixpoint_runs, rule_attempts, master_lookups, index_probes) in [(1, 4, 5, 5), (1, 2, 2, 0)]
    {
        service.metrics_raw().add_engine_stats(
            validate,
            &cerfix::EngineStats {
                fixpoint_runs,
                rule_attempts,
                master_lookups,
                index_probes,
            },
        );
    }
    let text = metrics::prom_text(&service);
    for sample in [
        "cerfix_engine_fixpoint_runs_total{op=\"session.validate\"} 2",
        "cerfix_engine_rule_attempts_total{op=\"session.validate\"} 6",
        "cerfix_engine_master_lookups_total{op=\"session.validate\"} 7",
        "cerfix_engine_index_probes_total{op=\"session.validate\"} 5",
    ] {
        assert!(text.lines().any(|line| line == sample), "{sample}");
    }
    let engine_samples = text
        .lines()
        .filter(|line| line.starts_with("cerfix_engine_") && line.contains("{op="))
        .count();
    assert_eq!(engine_samples, 4, "no other op class was charged");
}

/// A node that has served nothing still declares every scalar and
/// every stored family (`absent()`-style alerts see the same family
/// set before and after the first request); only the per-follower
/// and journal families wait for a follower or a journal.
#[test]
fn idle_node_declares_every_stored_family() {
    use crate::metrics::{FAMILIES, SCALARS};

    let service = kv_service(1);
    let text = metrics::prom_text(&service);
    let declared = |name: &str, kind: &str| {
        text.lines()
            .any(|line| line == format!("# TYPE {name} {kind}"))
    };
    for row in SCALARS {
        assert!(declared(row.prom, row.prom_type()), "{}", row.prom);
    }
    for row in FAMILIES {
        let waits = row.prom.starts_with("cerfix_replication_lag_")
            || row.prom.starts_with("cerfix_journal_");
        assert_eq!(declared(row.prom, row.kind), !waits, "{}", row.prom);
    }
}

/// The connection gauge goes both ways and the byte counters add:
/// what the front end bumps is what the snapshot and the text show.
#[test]
fn connection_telemetry_reaches_snapshot_and_text() {
    let service = kv_service(1);
    let m = service.metrics_raw();
    for _ in 0..2 {
        m.connections_open.inc();
        m.connections_total.inc();
    }
    m.connections_open.dec();
    m.bytes_in.add(100);
    m.bytes_out.add(300);
    let s = service.metrics();
    assert_eq!(s.connections_open, 1);
    assert_eq!(s.connections_total, 2);
    assert_eq!(s.bytes_in, 100);
    assert_eq!(s.bytes_out, 300);
    let text = metrics::prom_text(&service);
    for sample in [
        "cerfix_connections_open 1",
        "cerfix_connections_total 2",
        "cerfix_bytes_in_total 100",
        "cerfix_bytes_out_total 300",
    ] {
        assert!(text.lines().any(|line| line == sample), "{sample}");
    }
}
