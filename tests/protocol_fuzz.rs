//! Protocol fuzz pass: the per-line request path must be total.
//!
//! The contract under test — for ANY single input line (arbitrary
//! bytes, truncated JSON, deeply nested JSON, valid requests with junk
//! fields, valid requests damaged inside a span nobody reads, hostile
//! `deadline_ms` values), the service's line handler must (1) never
//! panic, and (2) produce exactly one well-formed JSON object in
//! response: an `ok` boolean, an `error` string when not ok, and no
//! embedded newline that would desynchronize a pipelined client. This
//! exercises the whole stack the wire sees: the one validating pass over
//! the line (`scan_line`: op, `id` span and deadline extraction, the
//! field view), the field readers behind it, and the admission/deadline
//! checks in front of dispatch. A reply echoes the request's `id` span
//! byte for byte, so "well-formed" holds only if every span the pass
//! walked over was validated, not just skipped.

use cerfix::MasterData;
use cerfix_relation::{RelationBuilder, Schema};
use cerfix_rules::{EditingRule, PatternTuple, RuleSet};
use cerfix_server::wire::Json;
use cerfix_server::{CleaningService, ErrorCode, ServiceConfig};
use proptest::test_runner::{Config, TestRunner};
use rand::rngs::StdRng;
use rand::Rng;
use std::sync::Arc;

fn kv_service() -> CleaningService {
    let input = Schema::of_strings("in", ["key", "val"]).unwrap();
    let ms = Schema::of_strings("m", ["key", "val"]).unwrap();
    let mut builder = RelationBuilder::new(ms.clone());
    for i in 0..4 {
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
    CleaningService::new(
        Arc::new(master),
        Arc::new(rules),
        ServiceConfig {
            workers: 1,
            precompute_regions: false,
            ..ServiceConfig::default()
        },
    )
}

/// Every op the protocol knows, plus lookalikes that must fall through
/// to the unknown-op error.
const OPS: &[&str] = &[
    "hello",
    "session.create",
    "session.get",
    "session.validate",
    "session.fix",
    "session.commit",
    "session.abort",
    "clean",
    "regions",
    "check",
    "audit.read",
    "rules.reload",
    "master.append",
    "metrics",
    "stats",
    "metrics.prom",
    "metrics.history",
    "trace.read",
    "log.read",
    "health",
    "config.set",
    "cluster.status",
    "replica.sync",
    "replica.promote",
    "scrub",
    "server.drain",
    "",
    "SESSION.GET",
    "session.get ",
    "warp",
];

/// A scalar JSON fragment, sometimes of the wrong type for wherever it
/// lands.
fn scalar(rng: &mut StdRng) -> String {
    match rng.gen_range(0..7u32) {
        0 => format!("{}", rng.gen_range(-1_000_000i64..1_000_000)),
        1 => format!("{:.3}", rng.gen_range(-1e9..1e9)),
        2 => "null".into(),
        3 => "true".into(),
        4 => "false".into(),
        5 => format!("\"s{}\"", rng.gen_range(0..100u32)),
        // Escapes and non-ASCII exercise the unescape paths.
        _ => "\"\\u00e9\\n\\\"\\\\\"".into(),
    }
}

/// A syntactically valid request-shaped object with a real op and a
/// grab-bag of plausible-to-hostile fields.
fn valid_shape(rng: &mut StdRng) -> String {
    let op = OPS[rng.gen_range(0..OPS.len())];
    let mut line = format!("{{\"op\":\"{op}\"");
    for _ in 0..rng.gen_range(0..4u32) {
        let key = match rng.gen_range(0..8u32) {
            0 => "session",
            1 => "tuple",
            2 => "validations",
            3 => "id",
            4 => "deadline_ms",
            5 => "wait_ms",
            6 => "key",
            _ => "limit",
        };
        let value = match rng.gen_range(0..3u32) {
            0 => scalar(rng),
            1 => format!("[{},{}]", scalar(rng), scalar(rng)),
            _ => format!("{{\"k\":{}}}", scalar(rng)),
        };
        line.push_str(&format!(",\"{key}\":{value}"));
    }
    line.push('}');
    line
}

/// Nested arrays/objects `depth` levels deep — the parser's recursion
/// cap must answer with an error, not a stack overflow.
fn deeply_nested(rng: &mut StdRng) -> String {
    let depth = rng.gen_range(1..200usize);
    let mut line = String::from("{\"op\":\"session.create\",\"tuple\":");
    if rng.gen_bool(0.5) {
        line.push_str(&"[".repeat(depth));
        line.push('1');
        line.push_str(&"]".repeat(depth));
    } else {
        line.push_str(&"{\"a\":".repeat(depth));
        line.push('1');
        line.push_str(&"}".repeat(depth));
    }
    line.push('}');
    line
}

/// Printable-ish garbage that is rarely valid JSON.
fn arbitrary_line(rng: &mut StdRng) -> String {
    let len = rng.gen_range(0..120usize);
    (0..len)
        .map(|_| {
            // Bias toward JSON structural characters so the scanner's
            // state machine sees realistic near-miss shapes.
            match rng.gen_range(0..4u32) {
                0 => *b"{}[]\":,\\".get(rng.gen_range(0..8usize)).unwrap() as char,
                1 => rng.gen_range(b'a'..=b'z') as char,
                2 => rng.gen_range(b'0'..=b'9') as char,
                _ => char::from_u32(rng.gen_range(0x20..0x2FF0u32)).unwrap_or('?'),
            }
        })
        .collect()
}

/// A valid hot-shape line — a session op with an `id` and one field no
/// op reads — with one to three bytes changed *inside* the `id` or the
/// junk field's nested value: damage in a span the request path echoes
/// or walks past, everything it reads intact.
fn damaged_span(rng: &mut StdRng) -> String {
    let nested = |rng: &mut StdRng| {
        let (a, b, c) = (scalar(rng), scalar(rng), scalar(rng));
        format!("{{\"a\":[{a},{{\"b\":{b}}}],\"c\":{c}}}")
    };
    let session = rng.gen_range(0..3u32);
    let mut line = match rng.gen_range(0..3u32) {
        0 => format!("{{\"op\":\"session.get\",\"session\":{session}"),
        1 => format!("{{\"op\":\"session.fix\",\"session\":{session}"),
        _ => format!(
            "{{\"op\":\"session.validate\",\"session\":{session},\"validations\":{{\"key\":\"k1\"}}"
        ),
    };
    let id = if rng.gen_bool(0.5) {
        scalar(rng)
    } else {
        nested(rng)
    };
    line.push_str(",\"id\":");
    let id_span = line.len()..line.len() + id.len();
    line.push_str(&id);
    line.push_str(",\"x\":");
    let junk = nested(rng);
    let junk_span = line.len()..line.len() + junk.len();
    line.push_str(&junk);
    line.push('}');
    // Every generated byte is ASCII, and so is every replacement.
    let mut bytes = line.into_bytes();
    for _ in 0..rng.gen_range(1..=3u32) {
        let span = if rng.gen_bool(0.5) {
            id_span.clone()
        } else {
            junk_span.clone()
        };
        let with = b"{}[]\":,\\ 01eE.-+utx";
        bytes[rng.gen_range(span)] = with[rng.gen_range(0..with.len())];
    }
    String::from_utf8(bytes).expect("ASCII")
}

fn fuzz_line(rng: &mut StdRng) -> String {
    let mut line = match rng.gen_range(0..5u32) {
        0 => arbitrary_line(rng),
        1 => valid_shape(rng),
        2 => deeply_nested(rng),
        3 => damaged_span(rng),
        // Truncations of valid shapes: every prefix must still get a
        // well-formed error response.
        _ => {
            let full = valid_shape(rng);
            let cut = rng.gen_range(0..=full.len());
            let mut prefix = full;
            while !prefix.is_char_boundary(prefix.len().min(cut)) {
                prefix.pop();
            }
            prefix.truncate(cut.min(prefix.len()));
            prefix
        }
    };
    if rng.gen_bool(0.1) {
        line.push_str("   ");
    }
    line
}

/// The response invariant every line must satisfy.
fn assert_well_formed(line: &str, response: &str) {
    assert!(
        !response.contains('\n'),
        "response embeds a newline for {line:?}: {response:?}"
    );
    let json = Json::parse(response)
        .unwrap_or_else(|e| panic!("unparseable response for {line:?}: {response:?} ({e})"));
    let ok = json.get("ok").and_then(Json::as_bool);
    assert!(ok.is_some(), "no `ok` bool for {line:?}: {response:?}");
    if ok == Some(false) {
        assert!(
            json.get("error").and_then(Json::as_str).is_some(),
            "error response without `error` string for {line:?}: {response:?}"
        );
        let code = json.get("code").and_then(Json::as_str);
        assert!(
            code.and_then(ErrorCode::parse).is_some(),
            "error response without a `code` of the table for {line:?}: {response:?}"
        );
    }
}

#[test]
fn any_line_gets_exactly_one_well_formed_response() {
    let service = kv_service();
    // Live sessions, so the session ops are served as well as refused.
    for _ in 0..2 {
        service.handle_line(r#"{"op":"session.create","tuple":["k1","WRONG"]}"#);
    }
    let mut runner = TestRunner::new(
        Config::with_cases(2000),
        "any_line_gets_exactly_one_well_formed_response",
    );
    runner.run_cases(|rng| {
        let line = fuzz_line(rng);
        if line.trim().is_empty() {
            // Blank lines are the one no-response case (the connection
            // loops skip them before dispatch).
            return Ok(());
        }
        let response = service.handle_line(line.trim());
        assert_well_formed(&line, &response);
        Ok(())
    });
}

#[test]
fn hostile_deadlines_are_rejected_or_honored_never_fatal() {
    let service = kv_service();
    // deadline_ms: 0 is deterministically expired; junk types must be
    // ignored (absent deadline), and huge values must not overflow.
    for (line, expect_expired) in [
        (r#"{"op":"regions","deadline_ms":0}"#, true),
        (
            r#"{"op":"regions","deadline_ms":18446744073709551615}"#,
            false,
        ),
        (r#"{"op":"regions","deadline_ms":-5}"#, false),
        (r#"{"op":"regions","deadline_ms":"soon"}"#, false),
        (r#"{"op":"regions","deadline_ms":[0]}"#, false),
        (r#"{"op":"regions","deadline_ms":1.5}"#, false),
        (r#"{"op":"hello","deadline_ms":0}"#, true),
    ] {
        let response = service.handle_line(line);
        assert_well_formed(line, &response);
        let expired = Json::parse(&response)
            .unwrap()
            .get("code")
            .and_then(Json::as_str)
            == Some(ErrorCode::DeadlineExceeded.as_str());
        assert_eq!(expired, expect_expired, "{line} → {response}");
    }
    let metrics = service.metrics();
    assert_eq!(metrics.requests_shed_deadline, 2);
}
