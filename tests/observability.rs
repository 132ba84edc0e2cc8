//! Observability surface: end-to-end request tracing, engine-stat
//! attribution and the Prometheus exposition.
//!
//! Covers: a pipelined burst whose spans correlate one-to-one with the
//! client-supplied request ids; `metrics.prom`
//! emitting structurally valid Prometheus text (full histograms,
//! cumulative buckets, `+Inf`, `_count` agreement) with traffic
//! attributed to the right op; counter monotonicity across scrapes while a
//! writer thread hammers the service (proptest); stage timings and
//! engine-stat deltas inside `trace.read` spans; a held `replica.sync`
//! whose span, latency and slow-log verdict leave the hold out; the
//! version /
//! protocol / uptime fields on `hello` and `metrics`; health probes
//! flipping (with `cerfix_healthy` and the structured log agreeing)
//! when the journal dies; `log.read` level/subsystem filtering;
//! journaled `config.set` tunables surviving a restart; the
//! `metrics.history` time-series ring; and the region search's verdict
//! counters in `metrics.region_search`.

use cerfix::MasterData;
use cerfix_relation::{RelationBuilder, Schema, Value};
use cerfix_rules::{EditingRule, PatternTuple, RuleSet};
use cerfix_server::protocol::Request;
use cerfix_server::wire::Json;
use cerfix_server::{CleaningService, Client, Server, ServiceConfig, StorageConfig};
use proptest::prelude::*;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// key → val lookup service over `n` master rows (same shape as the
/// pipelining suite: cheap ops, so tracing/metrics behavior dominates).
fn kv_service(n: usize, workers: usize) -> CleaningService {
    kv_service_with(n, workers, ServiceConfig::default())
}

fn kv_service_with(n: usize, workers: usize, config: ServiceConfig) -> CleaningService {
    let (master, rules) = kv_setup(n);
    CleaningService::new(
        Arc::new(master),
        Arc::new(rules),
        ServiceConfig {
            workers,
            precompute_regions: false,
            ..config
        },
    )
}

fn kv_setup(n: usize) -> (MasterData, RuleSet) {
    let input = Schema::of_strings("in", ["key", "val", "note"]).unwrap();
    let ms = Schema::of_strings("m", ["key", "val"]).unwrap();
    let mut builder = RelationBuilder::new(ms.clone());
    for i in 0..n {
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
    (master, rules)
}

/// Run `metrics.prom` through the wire path and unwrap the text body.
fn scrape(service: &CleaningService) -> String {
    let response = service.handle_line("{\"op\":\"metrics.prom\"}");
    let envelope = Json::parse(response.trim()).expect("metrics.prom envelope parses");
    assert_eq!(envelope.get("ok").and_then(Json::as_bool), Some(true));
    assert!(envelope
        .get("content_type")
        .and_then(Json::as_str)
        .is_some_and(|ct| ct.starts_with("text/plain")));
    envelope
        .get("body")
        .and_then(Json::as_str)
        .expect("body is a string")
        .to_string()
}

/// Structural Prometheus text validation. Checks every line is a HELP /
/// TYPE comment or a `name{labels} value` sample with a parseable
/// value, every sample has a preceding TYPE, histogram buckets are
/// cumulative with a final `+Inf` whose value matches `_count`, and
/// label syntax is well formed. Returns every sample keyed by its full
/// metric text (name + labels).
fn validate_prom(body: &str) -> Result<HashMap<String, f64>, String> {
    let mut types: HashMap<String, String> = HashMap::new();
    let mut samples: HashMap<String, f64> = HashMap::new();
    // histogram series (bucket-name + labels minus `le`) →
    // (last cumulative value, +Inf value when seen).
    let mut series: Vec<(String, f64, Option<f64>)> = Vec::new();
    for line in body.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            rest.split_once(' ')
                .ok_or_else(|| format!("HELP without text: {line}"))?;
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, kind) = rest
                .split_once(' ')
                .ok_or_else(|| format!("TYPE without kind: {line}"))?;
            if !matches!(kind, "counter" | "gauge" | "histogram") {
                return Err(format!("unknown TYPE kind: {line}"));
            }
            types.insert(name.to_string(), kind.to_string());
            continue;
        }
        if line.starts_with('#') {
            return Err(format!("unknown comment: {line}"));
        }
        let (metric, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("sample without value: {line}"))?;
        let value: f64 = value
            .parse()
            .map_err(|_| format!("unparseable value: {line}"))?;
        let (name, labels) = match metric.split_once('{') {
            Some((name, rest)) => (
                name,
                Some(
                    rest.strip_suffix('}')
                        .ok_or_else(|| format!("unterminated labels: {line}"))?,
                ),
            ),
            None => (metric, None),
        };
        let mut le: Option<&str> = None;
        let mut other_labels: Vec<&str> = Vec::new();
        if let Some(labels) = labels {
            for pair in labels.split(',') {
                let (key, quoted) = pair
                    .split_once("=\"")
                    .ok_or_else(|| format!("bad label `{pair}`: {line}"))?;
                let inner = quoted
                    .strip_suffix('"')
                    .ok_or_else(|| format!("unquoted label `{pair}`: {line}"))?;
                if key.is_empty() {
                    return Err(format!("empty label key: {line}"));
                }
                if key == "le" {
                    le = Some(inner);
                } else {
                    other_labels.push(pair);
                }
            }
        }
        let base = ["_bucket", "_sum", "_count"]
            .iter()
            .find_map(|suffix| name.strip_suffix(suffix))
            .filter(|base| types.get(*base).map(String::as_str) == Some("histogram"))
            .unwrap_or(name);
        if !types.contains_key(base) {
            return Err(format!("sample without TYPE: {line}"));
        }
        if name.ends_with("_bucket") && types.get(base).map(String::as_str) == Some("histogram") {
            let le = le.ok_or_else(|| format!("bucket without le: {line}"))?;
            let key = format!("{name}{{{}}}", other_labels.join(","));
            let entry = match series.iter_mut().find(|(k, _, _)| *k == key) {
                Some(entry) => entry,
                None => {
                    series.push((key, 0.0, None));
                    series.last_mut().unwrap()
                }
            };
            if value < entry.1 {
                return Err(format!("non-cumulative bucket: {line}"));
            }
            entry.1 = value;
            if le == "+Inf" {
                entry.2 = Some(value);
            } else {
                le.parse::<f64>()
                    .map_err(|_| format!("bad le bound: {line}"))?;
            }
        }
        samples.insert(metric.to_string(), value);
    }
    for (key, _, inf) in &series {
        let inf = inf.ok_or_else(|| format!("histogram series {key} has no +Inf bucket"))?;
        let count_key = key
            .replace("_bucket{}", "_count")
            .replace("_bucket{", "_count{");
        let count = samples
            .get(count_key.trim_end_matches("{}"))
            .or_else(|| samples.get(&count_key))
            .ok_or_else(|| format!("histogram series {key} has no _count"))?;
        if (count - inf).abs() > 1e-9 {
            return Err(format!("series {key}: +Inf {inf} != _count {count}"));
        }
    }
    Ok(samples)
}

/// A pipelined burst of id-tagged hot requests yields exactly-correlated
/// spans — trace id == request id, order preserved.
#[test]
fn pipelined_burst_spans_correlate_exactly_with_request_ids() {
    const N: usize = 64;
    let service = kv_service(20, 2);
    let handle = Server::spawn("127.0.0.1:0", service.clone()).expect("bind ephemeral");
    let mut client = Client::connect(handle.addr()).expect("connect");
    let view = client
        .create_session(vec![Value::str("k3"), Value::str("WRONG"), Value::str("n")])
        .expect("create");

    let mut stream = TcpStream::connect(handle.addr()).expect("raw connect");
    stream.set_nodelay(true).unwrap();
    let mut burst = String::new();
    for i in 0..N {
        burst.push_str(&format!(
            "{{\"op\":\"session.get\",\"session\":{},\"id\":{i}}}\n",
            view.session
        ));
    }
    stream.write_all(burst.as_bytes()).expect("write burst");
    let mut reader = BufReader::new(stream);
    for _ in 0..N {
        let mut line = String::new();
        reader.read_line(&mut line).expect("response line");
    }

    let trace = client
        .request(&Request::TraceRead {
            limit: Some(4 * N as u64),
        })
        .expect("trace.read");
    assert_eq!(trace.get("enabled").and_then(Json::as_bool), Some(true));
    // The burst lines are the only id-tagged requests: every other
    // request (the Client never attaches ids) traces synthetically.
    let correlated: Vec<String> = trace
        .get("spans")
        .and_then(Json::as_arr)
        .expect("spans array")
        .iter()
        .filter(|span| span.get("synthetic").and_then(Json::as_bool) == Some(false))
        .map(|span| {
            assert_eq!(span.get("op").and_then(Json::as_str), Some("session.get"));
            assert!(span.get("total_ns").and_then(Json::as_u64).unwrap_or(0) > 0);
            span.get("trace")
                .and_then(Json::as_str)
                .unwrap()
                .to_string()
        })
        .collect();
    let expected: Vec<String> = (0..N).rev().map(|i| i.to_string()).collect();
    assert_eq!(
        correlated, expected,
        "spans newest-first must mirror the burst ids exactly"
    );
    handle.shutdown().expect("shutdown");
}

/// The exposition is valid Prometheus text and says the right things
/// about the traffic: full per-op latency buckets, the queue-wait
/// histogram, per-op engine-stat attribution, latency classes and
/// build info.
#[test]
fn metrics_prom_is_valid_and_attributes_traffic_to_ops() {
    let service = kv_service(20, 2);
    let created =
        service.handle_line("{\"op\":\"session.create\",\"tuple\":[\"k3\",\"WRONG\",\"n\"]}");
    let id = Json::parse(created.trim())
        .unwrap()
        .get("session")
        .and_then(Json::as_u64)
        .expect("session id");
    service.handle_line(&format!(
        "{{\"op\":\"session.validate\",\"session\":{id},\"validations\":{{\"key\":\"k3\"}}}}"
    ));
    service.handle_line(&format!("{{\"op\":\"session.get\",\"session\":{id}}}"));
    service.handle_line("{\"op\":\"clean\",\"tuples\":[[\"k1\",\"x\",\"n\"]],\"trust\":[\"key\"]}");
    service.handle_line("{\"op\":\"metrics\"}");
    service.handle_line("{\"op\":\"nonsense.op\"}");
    // A known op failing field validation, the `stats` alias shed by its
    // deadline, and a line that is not JSON.
    service.handle_line("{\"op\":\"session.get\"}");
    service.handle_line("{\"op\":\"stats\",\"deadline_ms\":0}");
    service.handle_line("{\"op\":\"session.get\",");

    let body = scrape(&service);
    let samples = validate_prom(&body).expect("valid Prometheus text");
    // Which families exist is the instrument table's business (the
    // in-crate `every_instrument_row_reaches_every_exposition` walks
    // it); this test checks what the text says about this traffic.
    assert_eq!(
        samples.get(&format!(
            "cerfix_build_info{{version=\"{}\"}}",
            env!("CARGO_PKG_VERSION")
        )),
        Some(&1.0)
    );
    // Full histogram: 40 finite buckets + +Inf for an op with traffic.
    let get_buckets = body
        .lines()
        .filter(|l| l.starts_with("cerfix_request_duration_seconds_bucket{op=\"session.get\""))
        .count();
    assert_eq!(get_buckets, 41, "full bucket exposition, not a summary");
    // Unlabelled histograms always render.
    assert!(samples.contains_key("cerfix_request_queue_wait_seconds_count"));
    // Engine work from the fixing validate is attributed to its op.
    assert!(
        samples
            .get("cerfix_engine_rule_attempts_total{op=\"session.validate\"}")
            .copied()
            .unwrap_or(0.0)
            > 0.0,
        "engine stats attributed to session.validate"
    );
    // Latency classes: the row is resolved when the line is scanned,
    // so a request that names a known op is charged to it even when it
    // fails field validation or is shed through an alias; `other` is an
    // op name not in the table, `parse_error` malformed JSON only.
    let count = |op: &str| {
        samples
            .get(&format!(
                "cerfix_request_duration_seconds_count{{op=\"{op}\"}}"
            ))
            .copied()
    };
    assert_eq!(
        count("session.get"),
        Some(2.0),
        "served once, rejected once"
    );
    assert_eq!(
        count("metrics"),
        Some(2.0),
        "`metrics` and the shed `stats`"
    );
    assert_eq!(count("other"), Some(1.0));
    assert_eq!(count("parse_error"), Some(1.0));

    // One engine-state build per boot, reload and append, in both views.
    let compiles = |service: &CleaningService| {
        let samples = validate_prom(&scrape(service)).expect("valid Prometheus text");
        let prom = samples.get("cerfix_engine_compile_seconds_count").copied();
        let metrics = Json::parse(service.handle_line("{\"op\":\"metrics\"}").trim()).unwrap();
        let shown = metrics
            .get("engine_compile")
            .expect("engine_compile object");
        assert!(shown.get("p50_us").and_then(Json::as_f64).is_some());
        (prom, shown.get("count").and_then(Json::as_u64))
    };
    assert_eq!(compiles(&service), (Some(1.0), Some(1)), "the boot build");
    let reloaded = service.handle_line(
        "{\"op\":\"rules.reload\",\"rules\":\"er kv: match key=key fix val:=val when ()\"}",
    );
    assert!(reloaded.contains("\"ok\":true"), "{reloaded}");
    let appended =
        service.handle_line("{\"op\":\"master.append\",\"tuples\":[[\"k900\",\"v900\"]]}");
    assert!(appended.contains("\"ok\":true"), "{appended}");
    assert_eq!(
        compiles(&service),
        (Some(3.0), Some(3)),
        "boot, rules.reload and master.append"
    );
}

/// Journaled services expose the group-commit flush profile: fsync
/// latency and batch-size histograms plus the journal epoch.
#[test]
fn journaled_prom_exposes_fsync_and_batch_histograms() {
    let dir = std::env::temp_dir().join(format!("cerfix-obs-prom-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let (master, rules) = kv_setup(20);
    let service = CleaningService::with_storage(
        Arc::new(master),
        Arc::new(rules),
        ServiceConfig {
            workers: 2,
            precompute_regions: false,
            ..ServiceConfig::default()
        },
        StorageConfig::new(&dir),
    )
    .expect("open storage");
    let created =
        service.handle_line("{\"op\":\"session.create\",\"tuple\":[\"k3\",\"WRONG\",\"n\"]}");
    let id = Json::parse(created.trim())
        .unwrap()
        .get("session")
        .and_then(Json::as_u64)
        .unwrap();
    // Commit waits for the group fsync, so the flush profile is
    // non-empty by the time the response lands.
    service.handle_line(&format!("{{\"op\":\"session.commit\",\"session\":{id}}}"));
    let appended =
        service.handle_line("{\"op\":\"master.append\",\"tuples\":[[\"k900\",\"v900\"]]}");
    assert!(appended.contains("\"ok\":true"), "{appended}");
    let body = scrape(&service);
    let samples = validate_prom(&body).expect("valid Prometheus text");
    assert!(samples.contains_key("cerfix_journal_epoch"));
    assert!(
        samples
            .get("cerfix_journal_fsync_duration_seconds_count")
            .copied()
            .unwrap_or(0.0)
            >= 1.0,
        "at least one recorded flush"
    );
    assert!(
        samples
            .get("cerfix_journal_flush_batch_events_sum")
            .copied()
            .unwrap_or(0.0)
            >= 1.0,
        "committed events counted into batch sizes"
    );
    assert_eq!(
        samples.get("cerfix_engine_compile_seconds_count"),
        Some(&2.0),
        "the boot build and the append's"
    );
    drop(service);
    // A restart builds the boot state, then replays the appended rows
    // into a second one.
    let (master, rules) = kv_setup(20);
    let service = CleaningService::with_storage(
        Arc::new(master),
        Arc::new(rules),
        ServiceConfig {
            workers: 2,
            precompute_regions: false,
            ..ServiceConfig::default()
        },
        StorageConfig::new(&dir),
    )
    .expect("reopen storage");
    let samples = validate_prom(&scrape(&service)).expect("valid Prometheus text");
    assert_eq!(
        samples.get("cerfix_engine_compile_seconds_count"),
        Some(&2.0),
        "the boot build and the replayed append's"
    );
    drop(service);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `trace.read` spans carry stage timings and engine-stat deltas; a
/// zero-capacity buffer disables tracing entirely.
#[test]
fn trace_read_reports_stage_timings_and_engine_stats() {
    let service = kv_service(20, 2);
    let created = service
        .handle_line("{\"op\":\"session.create\",\"tuple\":[\"k3\",\"WRONG\",\"n\"],\"id\":900}");
    let id = Json::parse(created.trim())
        .unwrap()
        .get("session")
        .and_then(Json::as_u64)
        .unwrap();
    service.handle_line(&format!(
        "{{\"op\":\"session.validate\",\"session\":{id},\"validations\":{{\"key\":\"k3\"}},\"id\":901}}"
    ));
    let response = service.handle_line("{\"op\":\"trace.read\",\"limit\":16}");
    let trace = Json::parse(response.trim()).unwrap();
    assert_eq!(trace.get("enabled").and_then(Json::as_bool), Some(true));
    let spans = trace.get("spans").and_then(Json::as_arr).unwrap();
    let validate = spans
        .iter()
        .find(|s| s.get("trace").and_then(Json::as_str) == Some("901"))
        .expect("validate span present");
    assert_eq!(
        validate.get("op").and_then(Json::as_str),
        Some("session.validate")
    );
    assert!(validate.get("engine_ns").and_then(Json::as_u64).unwrap() > 0);
    assert!(
        validate
            .get("rule_attempts")
            .and_then(Json::as_u64)
            .unwrap()
            > 0
    );
    assert!(
        validate
            .get("fixpoint_runs")
            .and_then(Json::as_u64)
            .unwrap()
            > 0
    );
    let total = validate.get("total_ns").and_then(Json::as_u64).unwrap();
    let stages: u64 = [
        "parse_ns",
        "dispatch_ns",
        "engine_ns",
        "fsync_ns",
        "quorum_ns",
        "serialize_ns",
    ]
    .iter()
    .map(|k| validate.get(k).and_then(Json::as_u64).unwrap())
    .sum();
    assert!(stages <= total, "stage times cannot exceed the total");
    let create = spans
        .iter()
        .find(|s| s.get("trace").and_then(Json::as_str) == Some("900"))
        .expect("create span present");
    assert_eq!(create.get("synthetic").and_then(Json::as_bool), Some(false));

    let disabled = kv_service_with(
        20,
        2,
        ServiceConfig {
            trace_buffer: 0,
            ..ServiceConfig::default()
        },
    );
    disabled.handle_line("{\"op\":\"hello\",\"id\":1}");
    let response = disabled.handle_line("{\"op\":\"trace.read\"}");
    let trace = Json::parse(response.trim()).unwrap();
    assert_eq!(trace.get("enabled").and_then(Json::as_bool), Some(false));
    assert_eq!(
        trace.get("spans").and_then(Json::as_arr).map(<[Json]>::len),
        Some(0)
    );
}

/// A held `replica.sync` is a parked connection, not a slow request:
/// its clock starts when it is released, so the span's `total_ns`, the
/// `replica.sync` latency and the `--slow-ms` slow log all leave the
/// hold out (and the stages still sum to the total).
#[test]
fn a_held_syncs_span_and_slow_log_exclude_the_hold() {
    const HOLD_MS: u64 = 400;
    const SLOW_MS: u64 = 100;
    let dir = std::env::temp_dir().join(format!("cerfix-obs-hold-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (master, rules) = kv_setup(20);
    let service = CleaningService::with_storage(
        Arc::new(master),
        Arc::new(rules),
        ServiceConfig {
            workers: 2,
            precompute_regions: false,
            slow_ms: SLOW_MS,
            ..ServiceConfig::default()
        },
        StorageConfig::new(&dir),
    )
    .expect("open storage");
    let server = Server::spawn("127.0.0.1:0", service.clone()).unwrap();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    let asked = std::time::Instant::now();
    writeln!(
        stream,
        "{{\"op\":\"replica.sync\",\"follower\":\"f\",\"epoch\":0,\"offset\":0,\
         \"wait_ms\":{HOLD_MS},\"id\":77}}"
    )
    .unwrap();
    let mut reply = String::new();
    BufReader::new(&stream).read_line(&mut reply).unwrap();
    let held_ns = asked.elapsed().as_nanos() as u64;
    assert!(held_ns >= HOLD_MS * 1_000_000, "the hold ran its course");
    assert!(reply.contains("\"events\":[]"), "{reply}");

    let trace = service.handle(&Request::TraceRead { limit: Some(64) });
    let spans = trace.get("spans").and_then(Json::as_arr).unwrap();
    let span = spans
        .iter()
        .find(|s| s.get("trace").and_then(Json::as_str) == Some("77"))
        .expect("the released sync's span");
    assert_eq!(span.get("op").and_then(Json::as_str), Some("replica.sync"));
    let total = span.get("total_ns").and_then(Json::as_u64).unwrap();
    assert!(
        total < SLOW_MS * 1_000_000,
        "span total {total} ns includes the {HOLD_MS} ms hold"
    );
    assert_eq!(span.get("queue_ns").and_then(Json::as_u64), Some(0));
    let stages: u64 = [
        "parse_ns",
        "dispatch_ns",
        "engine_ns",
        "fsync_ns",
        "quorum_ns",
        "serialize_ns",
    ]
    .iter()
    .map(|k| span.get(k).and_then(Json::as_u64).unwrap())
    .sum();
    assert_eq!(stages, total, "stages sum to the total");
    let slow = trace.get("slow").and_then(Json::as_arr).unwrap();
    assert!(slow.is_empty(), "a hold is not a slow request: {slow:?}");
    let metrics = service.metrics();
    assert_eq!(metrics.trace_slow_spans, 0);
    let latency = metrics
        .latency
        .iter()
        .find(|l| l.op == "replica.sync")
        .expect("replica.sync latency");
    assert_eq!(latency.count, 1);
    assert!(latency.p99_ns < SLOW_MS * 1_000_000);
    server.shutdown().unwrap();
    drop(service);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `hello` and `metrics` both identify the build: version string,
/// protocol number and uptime.
#[test]
fn hello_and_stats_carry_version_protocol_uptime() {
    let service = kv_service(4, 2);
    for op in ["hello", "metrics"] {
        let response = service.handle_line(&format!("{{\"op\":\"{op}\"}}"));
        let json = Json::parse(response.trim()).unwrap();
        assert!(
            json.get("version")
                .and_then(Json::as_str)
                .is_some_and(|v| !v.is_empty()),
            "{op} carries a version"
        );
        assert_eq!(
            json.get("protocol").and_then(Json::as_u64),
            Some(cerfix_server::PROTOCOL_VERSION),
            "{op} carries the protocol"
        );
        assert!(json.get("uptime_secs").and_then(Json::as_u64).is_some());
    }
}

/// `metrics.region_search` says what the boot search certified: on the
/// UK service — the paper's nine rules over generated entities, regions
/// pre-computed — every master row is a truth, and all eight candidates
/// come out vacuous, because a truth read off a master row by attribute
/// name has no `phn`, `type` or `item` and so falls in no pattern
/// context. Deriving the truths from the rules will certify some of them
/// and flip this.
#[test]
fn region_search_metrics_show_what_the_uk_service_certifies() {
    let mut rng = rand::SeedableRng::seed_from_u64(36);
    let rules = cerfix_gen::uk::rules();
    let master = MasterData::new(cerfix_gen::uk::generate_master(500, &mut rng));
    let service = CleaningService::new(Arc::new(master), Arc::new(rules), ServiceConfig::default());
    let metrics = Json::parse(service.handle_line(r#"{"op":"metrics"}"#).trim()).unwrap();
    let search = metrics.get("region_search").expect("searched at boot");
    let field = |name| search.get(name).and_then(Json::as_u64);
    assert_eq!(field("truths"), Some(500), "one truth per master row");
    assert_eq!(field("candidates"), Some(8));
    assert_eq!(field("certified"), Some(0));
    assert_eq!(field("vacuous"), Some(8));
    assert_eq!(field("rejected_by_certification"), Some(0));
    assert_eq!(field("truth_profiles"), Some(0), "no truth in any scope");
}

/// A journaled primary reports ready until the disk dies under the
/// journal flusher; then `health`, the `cerfix_healthy` gauge and the
/// structured log all flip together, with the triggering cause visible
/// through `log.read`.
#[test]
fn health_flips_not_ready_when_the_journal_dies() {
    let dir = std::env::temp_dir().join(format!("cerfix-obs-health-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let (master, rules) = kv_setup(8);
    let service = CleaningService::with_storage(
        Arc::new(master),
        Arc::new(rules),
        ServiceConfig {
            workers: 2,
            precompute_regions: false,
            ..ServiceConfig::default()
        },
        StorageConfig::new(&dir),
    )
    .expect("open storage");

    let healthy = Json::parse(service.handle_line("{\"op\":\"health\"}").trim()).unwrap();
    assert_eq!(healthy.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(healthy.get("role").and_then(Json::as_str), Some("primary"));
    assert_eq!(healthy.get("live").and_then(Json::as_bool), Some(true));
    assert_eq!(healthy.get("ready").and_then(Json::as_bool), Some(true));
    assert_eq!(
        healthy
            .get("causes")
            .and_then(Json::as_arr)
            .map(<[Json]>::len),
        Some(0)
    );
    let samples = validate_prom(&scrape(&service)).expect("valid Prometheus text");
    assert_eq!(samples.get("cerfix_healthy"), Some(&1.0));
    assert_eq!(samples.get("cerfix_live"), Some(&1.0));

    service.simulate_crash().unwrap();

    let sick = Json::parse(service.handle_line("{\"op\":\"health\"}").trim()).unwrap();
    assert_eq!(sick.get("live").and_then(Json::as_bool), Some(false));
    assert_eq!(sick.get("ready").and_then(Json::as_bool), Some(false));
    let causes: Vec<&str> = sick
        .get("causes")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .filter_map(Json::as_str)
        .collect();
    assert!(
        causes.iter().any(|c| c.contains("journal flusher stopped")),
        "dead flusher named as the cause: {causes:?}"
    );
    let samples = validate_prom(&scrape(&service)).expect("valid Prometheus text");
    assert_eq!(samples.get("cerfix_healthy"), Some(&0.0));
    assert_eq!(samples.get("cerfix_live"), Some(&0.0));

    // The not-ready transition reached the structured log, cause and all.
    let log = Json::parse(
        service
            .handle_line("{\"op\":\"log.read\",\"level\":\"warn\",\"subsystem\":\"health\"}")
            .trim(),
    )
    .unwrap();
    assert_eq!(log.get("ok").and_then(Json::as_bool), Some(true));
    let events = log.get("events").and_then(Json::as_arr).unwrap();
    assert!(
        events.iter().any(|e| e
            .get("message")
            .and_then(Json::as_str)
            .is_some_and(|m| m.contains("not ready") && m.contains("journal flusher stopped"))),
        "health transition with its cause in the log"
    );
    drop(service);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `log.read` returns structured events newest first, filterable by
/// minimum level and by subsystem; unknown filter values are rejected.
#[test]
fn log_read_filters_by_level_and_subsystem() {
    let service = kv_service(8, 2);
    let set = Json::parse(
        service
            .handle_line("{\"op\":\"config.set\",\"key\":\"slow_ms\",\"value\":75}")
            .trim(),
    )
    .unwrap();
    assert_eq!(set.get("ok").and_then(Json::as_bool), Some(true));

    let log = Json::parse(
        service
            .handle_line("{\"op\":\"log.read\",\"subsystem\":\"config\"}")
            .trim(),
    )
    .unwrap();
    assert_eq!(log.get("enabled").and_then(Json::as_bool), Some(true));
    let events = log.get("events").and_then(Json::as_arr).unwrap();
    let newest = events.first().expect("config.set logged an event");
    assert_eq!(newest.get("level").and_then(Json::as_str), Some("info"));
    assert_eq!(
        newest.get("subsystem").and_then(Json::as_str),
        Some("config")
    );
    assert!(newest
        .get("message")
        .and_then(Json::as_str)
        .unwrap()
        .contains("slow_ms set to 75"));
    assert!(newest.get("unix_ms").and_then(Json::as_u64).unwrap() > 0);

    // Raising the level floor hides the info event.
    let errors_only = Json::parse(
        service
            .handle_line("{\"op\":\"log.read\",\"level\":\"error\",\"subsystem\":\"config\"}")
            .trim(),
    )
    .unwrap();
    assert_eq!(
        errors_only
            .get("events")
            .and_then(Json::as_arr)
            .map(<[Json]>::len),
        Some(0)
    );

    for bad in [
        "{\"op\":\"log.read\",\"level\":\"loud\"}",
        "{\"op\":\"log.read\",\"subsystem\":\"disk\"}",
    ] {
        let response = Json::parse(service.handle_line(bad).trim()).unwrap();
        assert_eq!(response.get("ok").and_then(Json::as_bool), Some(false));
        assert!(response
            .get("error")
            .and_then(Json::as_str)
            .unwrap()
            .contains("unknown"));
    }
}

/// `config.set` applies immediately and is journaled: a tunable acked
/// before a restart still holds after recovery, while a rejected key
/// never reaches the journal.
#[test]
fn config_set_applies_live_and_survives_restart() {
    let dir = std::env::temp_dir().join(format!("cerfix-obs-cfg-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let (master, rules) = kv_setup(8);
    let master = Arc::new(master);
    let rules = Arc::new(rules);
    let config = || ServiceConfig {
        workers: 2,
        precompute_regions: false,
        ..ServiceConfig::default()
    };
    let service = CleaningService::with_storage(
        Arc::clone(&master),
        Arc::clone(&rules),
        config(),
        StorageConfig::new(&dir),
    )
    .expect("open storage");
    for (key, value) in [
        ("slow_ms", 75u64),
        ("trace_buffer", 32),
        ("diag_buffer", 64),
    ] {
        let response = Json::parse(
            service
                .handle_line(&format!(
                    "{{\"op\":\"config.set\",\"key\":\"{key}\",\"value\":{value}}}"
                ))
                .trim(),
        )
        .unwrap();
        assert_eq!(
            response.get("ok").and_then(Json::as_bool),
            Some(true),
            "{key}"
        );
    }
    let trace = Json::parse(
        service
            .handle_line("{\"op\":\"trace.read\",\"limit\":1}")
            .trim(),
    )
    .unwrap();
    assert_eq!(
        trace.get("slow_ms").and_then(Json::as_u64),
        Some(75),
        "the slow threshold is live immediately"
    );
    let bad = Json::parse(
        service
            .handle_line("{\"op\":\"config.set\",\"key\":\"bogus\",\"value\":1}")
            .trim(),
    )
    .unwrap();
    assert_eq!(bad.get("ok").and_then(Json::as_bool), Some(false));
    assert!(bad
        .get("error")
        .and_then(Json::as_str)
        .unwrap()
        .contains("unknown config key"));
    drop(service);

    let service = CleaningService::with_storage(master, rules, config(), StorageConfig::new(&dir))
        .expect("reopen storage");
    let trace = Json::parse(
        service
            .handle_line("{\"op\":\"trace.read\",\"limit\":1}")
            .trim(),
    )
    .unwrap();
    assert_eq!(
        trace.get("slow_ms").and_then(Json::as_u64),
        Some(75),
        "journaled tunable survives restart"
    );
    drop(service);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A ring size the ring rounds up (1000 → 1024 slots) names the ring's
/// current size too: setting it again — as a repeated `config.set` or a
/// replayed one does — keeps what the ring holds.
#[test]
fn repeating_a_rounded_ring_size_keeps_the_ring() {
    let service = kv_service(8, 2);
    let set = |key: &str| {
        let line = format!("{{\"op\":\"config.set\",\"key\":\"{key}\",\"value\":1000}}");
        assert!(service.handle_line(&line).contains("\"ok\":true"), "{key}");
    };
    set("trace_buffer");
    set("diag_buffer");
    service.handle_line("{\"op\":\"metrics\",\"id\":4242}");
    set("trace_buffer");
    set("diag_buffer");
    let read = |line: &str, key: &str| {
        let reply = Json::parse(service.handle_line(line).trim()).unwrap();
        reply.get(key).and_then(Json::as_arr).unwrap().to_vec()
    };
    let spans = read("{\"op\":\"trace.read\",\"limit\":64}", "spans");
    assert!(
        spans
            .iter()
            .any(|s| s.get("trace").and_then(Json::as_str) == Some("4242")),
        "the span recorded between the two sets is gone: {spans:?}"
    );
    let events = read("{\"op\":\"log.read\",\"subsystem\":\"config\"}", "events");
    let diag_sets = events
        .iter()
        .filter_map(|e| e.get("message").and_then(Json::as_str))
        .filter(|m| m.contains("diag_buffer set to 1000"))
        .count();
    assert_eq!(diag_sets, 2, "the first set's event is gone: {events:?}");
}

/// `metrics.history` returns the periodic snapshots oldest first, with
/// monotonic timestamps and counters and per-op latency attached.
#[test]
fn metrics_history_returns_chronological_samples() {
    let service = kv_service(8, 2);
    service.handle_line("{\"op\":\"hello\"}");
    service.sample_timeseries();
    service.handle_line("{\"op\":\"hello\"}");
    service.handle_line("{\"op\":\"metrics\"}");
    service.sample_timeseries();

    let history = Json::parse(
        service
            .handle_line("{\"op\":\"metrics.history\",\"limit\":8}")
            .trim(),
    )
    .unwrap();
    assert_eq!(history.get("ok").and_then(Json::as_bool), Some(true));
    assert!(history.get("retained").and_then(Json::as_u64).unwrap() >= 2);
    let samples = history.get("samples").and_then(Json::as_arr).unwrap();
    assert!(samples.len() >= 2);
    let mut last_ms = 0;
    let mut last_requests = 0;
    for sample in samples {
        let ms = sample.get("unix_ms").and_then(Json::as_u64).unwrap();
        assert!(ms >= last_ms, "samples are chronological, oldest first");
        last_ms = ms;
        let requests = sample.get("requests").and_then(Json::as_u64).unwrap();
        assert!(requests >= last_requests, "counters are monotonic");
        last_requests = requests;
        assert!(sample.get("latency").is_some(), "per-op latency attached");
    }
    let oldest = samples[0].get("requests").and_then(Json::as_u64).unwrap();
    let newest = samples[samples.len() - 1]
        .get("requests")
        .and_then(Json::as_u64)
        .unwrap();
    assert!(
        newest > oldest,
        "the window captured the traffic between samples"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Scrapes taken while a writer thread hammers the service stay
    /// structurally valid, and no `_total` counter ever decreases
    /// between consecutive scrapes.
    #[test]
    fn prom_scrapes_stay_valid_and_counters_monotonic_under_load(
        rounds in 3usize..7,
        keys in proptest::collection::vec(0usize..20, 3..10),
    ) {
        let service = kv_service(20, 2);
        let stop = Arc::new(AtomicBool::new(false));
        let writer = {
            let service = service.clone();
            let stop = Arc::clone(&stop);
            let keys = keys.clone();
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    for &k in &keys {
                        let created = service.handle_line(&format!(
                            "{{\"op\":\"session.create\",\"tuple\":[\"k{k}\",\"WRONG\",\"n\"]}}"
                        ));
                        let Some(id) = Json::parse(created.trim())
                            .ok()
                            .and_then(|j| j.get("session").and_then(Json::as_u64))
                        else {
                            continue;
                        };
                        service.handle_line(&format!(
                            "{{\"op\":\"session.validate\",\"session\":{id},\
                             \"validations\":{{\"key\":\"k{k}\"}}}}"
                        ));
                        service.handle_line(&format!(
                            "{{\"op\":\"session.commit\",\"session\":{id}}}"
                        ));
                    }
                }
            })
        };
        let mut previous: HashMap<String, f64> = HashMap::new();
        let mut outcome = Ok(());
        for _ in 0..rounds {
            let samples = match validate_prom(&scrape(&service)) {
                Ok(samples) => samples,
                Err(e) => {
                    outcome = Err(e);
                    break;
                }
            };
            for (metric, &value) in &samples {
                let prior = previous.get(metric).copied().unwrap_or(0.0);
                if metric.contains("_total") && value + 1e-9 < prior {
                    outcome = Err(format!("{metric} decreased: {prior} -> {value}"));
                    break;
                }
            }
            if outcome.is_err() {
                break;
            }
            previous = samples;
        }
        stop.store(true, Ordering::Relaxed);
        writer.join().expect("writer thread");
        prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
    }
}
