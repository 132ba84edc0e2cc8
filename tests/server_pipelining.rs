//! Pipelining and adversarial-client behavior of the TCP front end.
//!
//! A protocol client may write any number of request lines before
//! reading a single response; the server must answer **in request
//! order**, echoing client-supplied `id`s, regardless of how the bytes
//! were chunked on the way in. Covers: deep pipelining with `id`
//! correlation, heavy ops interleaved with light ones on one
//! connection, slow-loris byte-at-a-time requests, a mid-request
//! disconnect, oversized-line rejection, a shutdown with a peer that
//! stops reading, and a proptest that re-chunking one request stream at
//! arbitrary byte boundaries never changes a single response byte —
//! also on a journaled service, where each commit waits for its group
//! fsync with lines queued behind it, and where the replies must equal
//! in-process `handle_line`'s. The spans of one read tile — a line's
//! queue wait is the queue wait plus the total of the line before it —
//! and a line behind a held `replica.sync` queues behind its reply, not
//! its hold.

use cerfix::MasterData;
use cerfix_relation::{RelationBuilder, Schema, Value};
use cerfix_rules::{EditingRule, PatternTuple, RuleSet};
use cerfix_server::protocol::Request;
use cerfix_server::wire::Json;
use cerfix_server::{CleaningService, Client, ErrorCode, Server, ServerHandle, ServiceConfig};
use cerfix_storage::StorageConfig;
use proptest::prelude::*;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// key → val lookup service over `n` master rows (cheap per-op work, so
/// transport behavior dominates).
fn kv_service(n: usize, workers: usize) -> CleaningService {
    let (master, rules) = kv_setup(n);
    let config = ServiceConfig {
        workers,
        precompute_regions: false,
        ..ServiceConfig::default()
    };
    CleaningService::new(master, rules, config)
}

/// The same service, journaled under a fresh directory (returned for
/// the caller to remove).
fn kv_service_journaled(n: usize, workers: usize) -> (CleaningService, std::path::PathBuf) {
    static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let unique = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("cerfix-pipelining-{}-{unique}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (master, rules) = kv_setup(n);
    let config = ServiceConfig {
        workers,
        precompute_regions: false,
        ..ServiceConfig::default()
    };
    let service = CleaningService::with_storage(master, rules, config, StorageConfig::new(&dir))
        .expect("open storage");
    (service, dir)
}

fn kv_setup(n: usize) -> (Arc<MasterData>, Arc<RuleSet>) {
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
    (Arc::new(master), Arc::new(rules))
}

fn spawn() -> (ServerHandle, CleaningService) {
    let service = kv_service(20, 2);
    let handle = Server::spawn("127.0.0.1:0", service.clone()).expect("bind ephemeral");
    (handle, service)
}

/// N requests written before any read, on each of 8 connections at
/// once (a validate / fix / get mix on the connection's own session):
/// responses arrive in order, each echoing its request id as the first
/// field, every request is answered exactly once, and the server's
/// counters agree — `requests == sent`, `errors == 0`.
#[test]
fn pipelined_requests_answer_in_order_with_ids() {
    const CONNS: usize = 8;
    const N: usize = 192;
    let (handle, service) = spawn();
    let mut client = Client::connect(handle.addr()).expect("connect");
    let streams: Vec<TcpStream> = (0..CONNS)
        .map(|conn| {
            let key = format!("k{conn}");
            let session = client
                .create_session(vec![Value::str(&key), Value::str("WRONG"), Value::str("n")])
                .expect("create")
                .session;
            let mut burst = String::new();
            for i in 0..N {
                burst.push_str(&match i % 3 {
                    0 => format!(
                        "{{\"op\":\"session.validate\",\"session\":{session},\"validations\":{{\"key\":\"{key}\"}},\"id\":{i}}}\n"
                    ),
                    1 => format!("{{\"op\":\"session.fix\",\"session\":{session},\"id\":{i}}}\n"),
                    _ => format!("{{\"op\":\"session.get\",\"session\":{session},\"id\":{i}}}\n"),
                });
            }
            let mut stream = TcpStream::connect(handle.addr()).expect("raw connect");
            stream.set_nodelay(true).unwrap();
            stream.write_all(burst.as_bytes()).expect("write burst");
            stream
                .shutdown(std::net::Shutdown::Write)
                .expect("half-close");
            stream
        })
        .collect();
    for stream in streams {
        let mut reader = BufReader::new(stream);
        for i in 0..N {
            let mut line = String::new();
            reader.read_line(&mut line).expect("response line");
            assert!(
                line.starts_with(&format!("{{\"id\":{i},\"ok\":true,")),
                "response {i} out of order or unechoed: {line}"
            );
        }
        let mut rest = String::new();
        let _ = reader.read_to_string(&mut rest);
        assert!(rest.is_empty(), "trailing bytes {rest:?}");
    }
    let metrics = service.metrics();
    assert_eq!(
        metrics.requests,
        (CONNS * (1 + N)) as u64,
        "one create + {N} pipelined requests per connection"
    );
    assert_eq!(metrics.errors, 0);
    handle.shutdown().expect("shutdown");
}

/// A failing request mid-batch must not desynchronize the client: the
/// pipeline call drains every response, and the connection keeps
/// pairing requests with the right responses afterwards.
#[test]
fn pipeline_error_mid_batch_does_not_desync_client() {
    use cerfix_server::protocol::Request;
    let (handle, _service) = spawn();
    let mut client = Client::connect(handle.addr()).expect("connect");
    let view = client
        .create_session(vec![Value::str("k3"), Value::str("WRONG"), Value::str("n")])
        .expect("create");
    let batch = [
        Request::SessionGet {
            session: view.session,
        },
        Request::SessionGet { session: 999 }, // unknown → ok:false
        Request::Hello,
    ];
    assert!(client.pipeline(&batch).is_err(), "mid-batch error surfaces");
    // The next round trip pairs correctly (no stale buffered line).
    let hello = client.hello().expect("client still synchronized");
    assert_eq!(
        hello
            .get("service")
            .and_then(cerfix_server::wire::Json::as_str),
        Some("cerfix-server")
    );
    let again = client
        .get_session(view.session)
        .expect("session still live");
    assert_eq!(again.session, view.session);
    handle.shutdown().expect("shutdown");
}

/// Heavy ops (worker-pool batches) interleaved with light ops on one
/// pipelined connection still answer strictly in request order.
#[test]
fn heavy_and_light_ops_interleave_in_order() {
    let (handle, _service) = spawn();
    let mut stream = TcpStream::connect(handle.addr()).expect("raw connect");
    // Note: the two-tuple `clean` reserves session ids 1–2 for audit
    // attribution, so the interactive session created next gets 3.
    let burst = concat!(
        "{\"op\":\"hello\",\"id\":0}\n",
        "{\"op\":\"clean\",\"tuples\":[[\"k1\",\"x\",\"n\"],[\"k2\",\"y\",\"n\"]],\"trust\":[\"key\",\"note\"],\"id\":1}\n",
        "{\"op\":\"session.create\",\"tuple\":[\"k3\",\"WRONG\",\"n\"],\"id\":2}\n",
        "{\"op\":\"check\",\"id\":3}\n",
        "{\"op\":\"session.validate\",\"session\":3,\"validations\":{\"key\":\"k3\"},\"id\":4}\n",
        "{\"op\":\"clean\",\"tuples\":[[\"k4\",\"z\",\"n\"]],\"trust\":[\"key\",\"note\"],\"id\":5}\n",
        "{\"op\":\"session.get\",\"session\":3,\"id\":6}\n",
    );
    stream.write_all(burst.as_bytes()).expect("write burst");
    let mut reader = BufReader::new(stream);
    for i in 0..7 {
        let mut line = String::new();
        reader.read_line(&mut line).expect("response line");
        assert!(
            line.starts_with(&format!("{{\"id\":{i},\"ok\":true,")),
            "response {i}: {line}"
        );
        if i == 4 {
            assert!(line.contains("\"v3\""), "rule fix flowed through: {line}");
        }
    }
    handle.shutdown().expect("shutdown");
}

/// Slow-loris: a request trickling in a few bytes per write across many
/// poll iterations is answered normally once its newline arrives.
#[test]
fn slow_loris_partial_lines_assemble() {
    let (handle, _service) = spawn();
    let mut stream = TcpStream::connect(handle.addr()).expect("raw connect");
    stream.set_nodelay(true).unwrap();
    let request = b"{\"op\":\"session.create\",\"tuple\":[\"k5\",\"WRONG\",\"n\"],\"id\":77}\n";
    for (i, chunk) in request.chunks(3).enumerate() {
        stream.write_all(chunk).expect("trickle");
        if i % 4 == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).expect("response");
    assert!(line.starts_with("{\"id\":77,\"ok\":true,"), "{line}");
    handle.shutdown().expect("shutdown");
}

/// A client that dies mid-request must not wedge the server or leak the
/// connection gauge; later clients are unaffected.
#[test]
fn mid_request_disconnect_leaves_server_healthy() {
    let (handle, service) = spawn();
    {
        let mut stream = TcpStream::connect(handle.addr()).expect("raw connect");
        stream
            .write_all(b"{\"op\":\"session.create\",\"tu")
            .expect("partial write");
        // Dropped here: connection dies with half a request buffered.
    }
    // The server notices, reaps the connection, and keeps serving.
    let mut client = Client::connect(handle.addr()).expect("connect after disconnect");
    let view = client
        .create_session(vec![Value::str("k1"), Value::str("WRONG"), Value::str("n")])
        .expect("service healthy");
    assert_eq!(view.session, 1, "no half-request ever executed");
    drop(client);
    // Gauge settles back to zero once both sockets are reaped.
    let deadline = std::time::Instant::now() + Duration::from_secs(2);
    loop {
        if service.metrics().connections_open == 0 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "connections_open stuck at {}",
            service.metrics().connections_open
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    // Counted at accept: exactly the dropped connection and the client,
    // each once.
    assert_eq!(service.metrics().connections_total, 2);
    handle.shutdown().expect("shutdown");
}

/// A newline-less stream is rejected once the partial line passes the
/// 8 MiB bound — with an error reply before the close. Like the line
/// that is not UTF-8 sent ahead of it (which the connection survives),
/// it is an error line as any other: coded, and counted.
#[test]
fn oversized_partial_line_is_rejected() {
    let (handle, service) = spawn();
    let mut stream = TcpStream::connect(handle.addr()).expect("raw connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut refusal = |what: &str, errors: u64| {
        let mut response = String::new();
        let _ = reader.read_line(&mut response);
        assert!(
            response.contains(what),
            "expected the {what:?} reply, got {response:?}"
        );
        let reply = Json::parse(response.trim()).expect("a JSON line");
        let code = reply.get("code").and_then(Json::as_str);
        assert_eq!(code, Some(ErrorCode::BadRequest.as_str()), "{response}");
        assert_eq!(service.metrics().errors, errors, "{what}");
    };
    stream
        .write_all(b"{\"op\":\"hel\xff\xfe\"}\n")
        .expect("write");
    refusal("not valid UTF-8", 1);
    let chunk = vec![b'x'; 1024 * 1024];
    // Write until the server hangs up (it must, after ~8 MiB).
    let mut wrote = 0usize;
    for _ in 0..32 {
        match stream.write_all(&chunk) {
            Ok(()) => wrote += chunk.len(),
            Err(_) => break,
        }
    }
    assert!(wrote >= 8 * 1024 * 1024 || wrote < 32 * chunk.len());
    refusal("exceeds 8 MiB", 2);
    handle.shutdown().expect("shutdown");
}

/// A peer that pipelines requests and stops reading the replies: once
/// the socket buffers are full its connection's thread is blocked in a
/// write, which the read-side half-close does not end. Shutdown still
/// returns — that connection is cut off at the drain deadline instead
/// of being waited for.
#[test]
fn shutdown_does_not_wait_for_a_peer_that_stops_reading() {
    let (handle, _service) = spawn();
    let mut stream = TcpStream::connect(handle.addr()).expect("raw connect");
    // ~15 KB of reply per 22-byte request: 30 MB owed, more than any
    // pair of loopback socket buffers holds.
    let burst = "{\"op\":\"metrics.prom\"}\n".repeat(2000);
    stream.write_all(burst.as_bytes()).expect("write burst");
    let mut first = String::new();
    BufReader::new(&stream)
        .read_line(&mut first)
        .expect("the first reply");
    assert!(first.starts_with("{\"ok\":true,"), "{first}");
    let started = Instant::now();
    let (done, finished) = std::sync::mpsc::channel();
    std::thread::spawn(move || done.send(handle.shutdown()));
    let stopped = finished.recv_timeout(Duration::from_secs(3));
    let took = started.elapsed();
    stopped
        .expect("shutdown returned within 3 s")
        .expect("shutdown");
    assert!(took < Duration::from_secs(3), "shutdown took {took:?}");
}

// ---------------------------------------------------------------------
// Chunking proptest: byte boundaries never change responses.
// ---------------------------------------------------------------------

/// One deterministic request script (some valid, some malformed, some
/// heavy), rendered to a byte stream.
fn script_lines(selector: u64) -> Vec<String> {
    let ops: Vec<String> = vec![
        "{\"op\":\"hello\",\"id\":0}".into(),
        "{\"op\":\"session.create\",\"tuple\":[\"k1\",\"WRONG\",\"n\"],\"id\":1}".into(),
        "{\"op\":\"session.validate\",\"session\":1,\"validations\":{\"key\":\"k1\"},\"id\":2}"
            .into(),
        "{\"op\":\"session.get\",\"session\":1,\"id\":3}".into(),
        "{\"op\":\"session.fix\",\"session\":1}".into(),
        "{\"op\":\"clean\",\"tuples\":[[\"k2\",\"x\",\"n\"]],\"trust\":[\"key\",\"note\"],\"id\":4}"
            .into(),
        "{\"op\":\"check\",\"id\":5}".into(),
        "{\"op\":\"session.commit\",\"session\":1,\"id\":6}".into(),
        "{\"op\":\"session.get\",\"session\":99,\"id\":7}".into(),
        "{\"op\":\"audit.read\",\"start\":0,\"id\":8}".into(),
        "not json at all".into(),
        "{\"op\":\"warp\",\"id\":9}".into(),
        "{\"op\":\"session.abort\",\"session\":42}".into(),
        "   ".into(), // blank line: no response
        "{\"op\":\"session.create\",\"tuple\":[\"k9\",\"q\",\"r\"],\"id\":10}".into(),
    ];
    // Deterministic subsequence + order shuffle driven by `selector`
    // (same value ⇒ same script in every run).
    let mut lines = Vec::new();
    let mut state = selector | 1;
    for round in 0..2 {
        for (i, op) in ops.iter().enumerate() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(round + i as u64);
            if state & 0b11 != 0 {
                lines.push(op.clone());
            }
        }
    }
    lines
}

/// Expected response count: one per non-blank line.
fn expected_responses(lines: &[String]) -> usize {
    lines.iter().filter(|l| !l.trim().is_empty()).count()
}

/// Drive `stream_bytes` through a fresh server, chunked at the given
/// boundaries, and return all response lines.
fn run_chunked(stream_bytes: &[u8], chunks: &[usize], n: usize) -> Vec<String> {
    run_chunked_on(kv_service(20, 2), stream_bytes, chunks, n)
}

/// [`run_chunked`] over a server for `service`.
fn run_chunked_on(
    service: CleaningService,
    stream_bytes: &[u8],
    chunks: &[usize],
    n: usize,
) -> Vec<String> {
    let handle = Server::spawn("127.0.0.1:0", service).expect("bind ephemeral");
    let mut stream = TcpStream::connect(handle.addr()).expect("raw connect");
    stream.set_nodelay(true).unwrap();
    let mut pos = 0usize;
    let mut chunk_iter = chunks.iter().cycle();
    while pos < stream_bytes.len() {
        let len = (*chunk_iter.next().unwrap()).clamp(1, stream_bytes.len() - pos);
        stream
            .write_all(&stream_bytes[pos..pos + len])
            .expect("chunk");
        pos += len;
        if pos % 979 < 40 {
            std::thread::sleep(Duration::from_micros(200));
        }
    }
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    let mut reader = BufReader::new(stream);
    let mut responses = Vec::with_capacity(n);
    for _ in 0..n {
        let mut line = String::new();
        let read = reader.read_line(&mut line).expect("response line");
        assert!(read > 0, "stream ended early");
        responses.push(line);
    }
    // Nothing extra follows.
    let mut rest = String::new();
    let _ = reader.read_to_string(&mut rest);
    assert!(rest.is_empty(), "trailing bytes {rest:?}");
    handle.shutdown().expect("shutdown");
    responses
}

/// Two sessions entered side by side, with lines queued behind each
/// commit on the same connection: `commit; get other; validate other;
/// commit`. On a journaled service the connection's thread waits at
/// every commit; what was answered ahead of it is written first.
const JOURNALED_SCRIPT: &[&str] = &[
    r#"{"op":"session.create","tuple":["k1","WRONG","n"],"id":1}"#,
    r#"{"op":"session.create","tuple":["k2","WRONG","n"],"id":2}"#,
    r#"{"op":"session.validate","session":1,"validations":{"key":"k1"},"id":3}"#,
    r#"{"op":"session.commit","session":1,"id":4}"#,
    r#"{"op":"session.get","session":2,"id":5}"#,
    r#"{"op":"session.validate","session":2,"validations":{"key":"k2"},"id":6}"#,
    r#"{"op":"session.commit","session":2,"id":7}"#,
    r#"{"op":"session.commit","session":2,"id":8}"#,
    r#"{"op":"session.get","session":1,"id":9}"#,
    r#"{"op":"session.create","tuple":["k3","WRONG","n"],"id":10}"#,
    r#"{"op":"session.commit","session":3}"#,
];

/// Every `session.commit` span `service` has recorded: its stages sum
/// to its total, wait included, and the wait was a real one.
fn assert_commit_spans_add_up(service: &CleaningService) {
    let trace = service.handle(&Request::TraceRead { limit: Some(64) });
    let spans = trace.get("spans").and_then(Json::as_arr).expect("spans");
    let commits: Vec<&Json> = spans
        .iter()
        .filter(|s| s.get("op").and_then(Json::as_str) == Some("session.commit"))
        .collect();
    assert_eq!(commits.len(), 4, "three commits and one refused");
    for span in commits {
        let ns = |key: &str| span.get(key).and_then(Json::as_u64).expect(key);
        let stages = ["parse_ns", "dispatch_ns", "engine_ns", "fsync_ns"]
            .into_iter()
            .chain(["quorum_ns", "serialize_ns"])
            .map(ns)
            .sum::<u64>();
        assert_eq!(stages, ns("total_ns"), "stages sum to the total: {span:?}");
        let refused = span.get("trace").and_then(Json::as_str) == Some("8");
        assert!(refused || ns("fsync_ns") > 0, "{span:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Journaled, with lines behind each commit: replies come in request
    /// order and are in-process `handle_line`'s bytes, however the
    /// stream was chunked.
    #[test]
    fn journaled_commits_answer_in_order_with_the_same_bytes(
        chunk_a in 1usize..64,
        chunk_b in 1usize..512,
    ) {
        let bytes = JOURNALED_SCRIPT.join("\n").into_bytes();
        let bytes = [bytes, b"\n".to_vec()].concat();
        let n = JOURNALED_SCRIPT.len();
        let (in_process, dir) = kv_service_journaled(20, 2);
        let expected: Vec<String> = JOURNALED_SCRIPT
            .iter()
            .map(|line| in_process.handle_line(line) + "\n")
            .collect();
        drop(in_process);
        let _ = std::fs::remove_dir_all(&dir);
        for chunks in [vec![chunk_a, chunk_b], vec![bytes.len()]] {
            let (service, dir) = kv_service_journaled(20, 2);
            let replies = run_chunked_on(service.clone(), &bytes, &chunks, n);
            prop_assert_eq!(&replies, &expected, "{:?}", chunks);
            assert_commit_spans_add_up(&service);
            drop(service);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// Chunking a pipelined request stream at arbitrary byte boundaries
    /// never changes a response byte.
    #[test]
    fn chunking_never_changes_responses(
        selector in 0u64..u64::MAX,
        chunk_a in 1usize..64,
        chunk_b in 1usize..512,
        chunk_c in 1usize..7,
    ) {
        let lines = script_lines(selector);
        let n = expected_responses(&lines);
        let mut bytes = Vec::new();
        for line in &lines {
            bytes.extend_from_slice(line.as_bytes());
            bytes.push(b'\n');
        }
        let chunked = run_chunked(&bytes, &[chunk_a, chunk_b, chunk_c], n);
        let whole = run_chunked(&bytes, &[bytes.len()], n);
        prop_assert_eq!(&chunked, &whole, "chunk boundaries changed responses");
    }
}

/// `(queue_ns, total_ns)` of each span the service recorded, by the
/// numeric wire `id` it was sent with.
fn queue_and_total_by_id(service: &CleaningService) -> std::collections::HashMap<u64, (u64, u64)> {
    let trace = service.handle(&Request::TraceRead { limit: Some(256) });
    let spans = trace.get("spans").and_then(Json::as_arr).expect("spans");
    spans
        .iter()
        .filter_map(|span| {
            let ns = |key: &str| span.get(key).and_then(Json::as_u64).expect(key);
            let id = span.get("trace").and_then(Json::as_str)?.parse().ok()?;
            let synthetic = span.get("synthetic").and_then(Json::as_bool) == Some(true);
            (!synthetic).then(|| (id, (ns("queue_ns"), ns("total_ns"))))
        })
        .collect()
}

/// One pipelined window over a real connection: each line starts where
/// the line before it ended, so its queue wait is exactly the queue wait
/// plus the total of the line before it — or 0, where a socket read
/// began — and the lines of one read never overlap or leave a gap.
#[test]
fn the_spans_of_one_read_tile() {
    const N: u64 = 48;
    let (handle, service) = spawn();
    let mut client = Client::connect(handle.addr()).expect("connect");
    let session = client
        .create_session(vec![Value::str("k4"), Value::str("WRONG"), Value::str("n")])
        .expect("create")
        .session;
    let mut window = String::new();
    for i in 0..N {
        let id = 1000 + i;
        window.push_str(&match i % 3 {
            0 => format!(
                "{{\"op\":\"session.validate\",\"session\":{session},\"validations\":{{\"key\":\"k4\"}},\"id\":{id}}}\n"
            ),
            1 => format!("{{\"op\":\"session.fix\",\"session\":{session},\"id\":{id}}}\n"),
            _ => format!("{{\"op\":\"session.get\",\"session\":{session},\"id\":{id}}}\n"),
        });
    }
    let reads_before = service.metrics().net_reads;
    let mut stream = TcpStream::connect(handle.addr()).expect("raw connect");
    stream.write_all(window.as_bytes()).expect("write window");
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    let mut reader = BufReader::new(stream);
    for i in 0..N {
        let mut line = String::new();
        reader.read_line(&mut line).expect("response line");
        assert!(line.starts_with(&format!("{{\"id\":{},\"ok\":true,", 1000 + i)));
    }
    // Every read the window took, and the one that saw the half-close.
    let reads = service.metrics().net_reads - reads_before;
    let spans = queue_and_total_by_id(&service);
    assert_eq!(spans[&1000].0, 0, "the first line of a read has no queue");
    let (mut starts, mut tiled) = (0, 0);
    for i in 0..N {
        let (queue, total) = spans[&(1000 + i)];
        assert!(total > 0);
        if queue == 0 {
            starts += 1;
        } else {
            let (before_queue, before_total) = spans[&(1000 + i - 1)];
            assert_eq!(queue, before_queue + before_total, "span {i} does not tile");
            tiled += 1;
        }
    }
    assert!(
        starts <= reads,
        "{starts} spans start a read; {reads} reads"
    );
    assert_eq!(starts + tiled, N);
    handle.shutdown().expect("shutdown");
}

/// A line pipelined behind a held `replica.sync` queues behind the
/// sync's reply, not behind its hold: the sync's span starts at its
/// release (queue 0), and the next line's queue wait is that span's
/// total — exactly, and far below the 300 ms hold. Its deadline still
/// counts from the read's arrival: a line behind the hold whose
/// `deadline_ms` is shorter than the hold is shed.
#[test]
fn a_line_behind_a_held_sync_does_not_queue_for_the_hold() {
    const HOLD_MS: u64 = 300;
    let (service, dir) = kv_service_journaled(20, 2);
    let handle = Server::spawn("127.0.0.1:0", service.clone()).expect("bind ephemeral");
    let mut stream = TcpStream::connect(handle.addr()).expect("raw connect");
    let window = format!(
        concat!(
            "{{\"op\":\"hello\",\"id\":1}}\n",
            "{{\"op\":\"replica.sync\",\"follower\":\"f\",\"epoch\":0,\"offset\":0,",
            "\"wait_ms\":{},\"id\":2}}\n",
            "{{\"op\":\"hello\",\"id\":3}}\n",
            "{{\"op\":\"hello\",\"deadline_ms\":{},\"id\":4}}\n",
        ),
        HOLD_MS,
        HOLD_MS / 3
    );
    let sent = Instant::now();
    stream.write_all(window.as_bytes()).expect("write window");
    let mut reader = BufReader::new(stream);
    for id in 1..=3 {
        let mut line = String::new();
        reader.read_line(&mut line).expect("response line");
        assert!(
            line.starts_with(&format!("{{\"id\":{id},\"ok\":true,")),
            "{line}"
        );
    }
    let mut expired = String::new();
    reader.read_line(&mut expired).expect("response line");
    assert!(
        expired.starts_with(r#"{"id":4,"ok":false,"code":"deadline_exceeded","#),
        "{expired}"
    );
    assert!(
        sent.elapsed() >= Duration::from_millis(HOLD_MS),
        "the sync was held"
    );
    let spans = queue_and_total_by_id(&service);
    let (hello, sync, behind) = (spans[&1], spans[&2], spans[&3]);
    assert!(behind.0 < HOLD_MS * 1_000_000, "{behind:?} holds the hold");
    assert_eq!(sync.0, 0, "a held sync starts at its release");
    assert_eq!(
        behind.0,
        sync.0 + sync.1,
        "the line behind it tiles with its reply"
    );
    assert_eq!(hello.0, 0, "the first line of the read");
    handle.shutdown().expect("shutdown");
    drop(service);
    let _ = std::fs::remove_dir_all(&dir);
}
