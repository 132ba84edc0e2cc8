//! Allocations per request on the warmed session path: `session.get` 0,
//! `session.fix` 0, `session.validate` 1 (the validated value's
//! `Arc<str>`) — and on a warmed 128-tuple `clean`, at most 20 per tuple
//! (measured 10.13: what the tuples hold, not a tree of the reply).
//!
//! A counting global allocator wraps the full `handle_line_into`
//! parse → execute → render path of an in-process service **with request
//! tracing and the structured diagnostic log enabled** (default ring
//! sizes, at least one event recorded) — the configuration operators
//! run, not a stripped one. Counts, not wall-clock: cannot flake on
//! machine speed.
//!
//! This file holds exactly one `#[test]`: the counter is process-wide,
//! and a sibling test on another thread would allocate into the window.

use cerfix::MasterData;
use cerfix_relation::{RelationBuilder, Schema};
use cerfix_rules::{EditingRule, PatternTuple, RuleSet};
use cerfix_server::{CleaningService, RequestScratch, ServiceConfig};
use std::sync::Arc;

#[path = "common/counting_alloc.rs"]
mod counting_alloc;

/// key → val lookup service over 64 master rows: per-op service work is
/// a couple of index probes, so the serving path is what gets counted.
fn kv_service() -> CleaningService {
    let input = Schema::of_strings("in", ["key", "val", "note"]).unwrap();
    let ms = Schema::of_strings("m", ["key", "val"]).unwrap();
    let mut builder = RelationBuilder::new(ms.clone());
    for i in 0..64 {
        builder = builder.row_strs([format!("k{i}"), format!("v{i}")]);
    }
    let master = MasterData::new(builder.build().unwrap());
    let mut rules = RuleSet::new(input.clone(), ms.clone());
    let kv = EditingRule::new(
        "kv",
        &input,
        &ms,
        vec![(0, 0)],
        vec![(1, 1)],
        PatternTuple::empty(),
    );
    rules.add(kv.unwrap()).unwrap();
    let config = ServiceConfig {
        precompute_regions: false,
        ..ServiceConfig::default()
    };
    assert!(config.trace_buffer > 0, "tracing is on by default");
    CleaningService::new(Arc::new(master), Arc::new(rules), config)
}

#[test]
fn warmed_session_ops_allocate_zero_zero_one() {
    const WARM: u64 = 256;
    const MEASURE: u64 = 4096;
    // A handful of one-time lazy growths elsewhere in the process may
    // land inside a window; a steady-state regression costs ≥ MEASURE.
    const STRAY_SLACK: u64 = 16;

    let service = kv_service();
    let set = service.handle_line(r#"{"op":"config.set","key":"slow_ms","value":500}"#);
    assert!(
        set.contains("\"ok\":true"),
        "config.set primes the diag log: {set}"
    );
    let log = service.handle_line(r#"{"op":"log.read","limit":1}"#);
    assert!(log.contains("\"enabled\":true"), "diag ring live: {log}");
    // One session, driven to completion: the steady-state shape.
    service.handle_line(r#"{"op":"session.create","tuple":["k3","WRONG","n"]}"#);
    let done = service.handle_line(
        r#"{"op":"session.validate","session":1,"validations":{"key":"k3","note":"n"}}"#,
    );
    assert!(done.contains("\"complete\""), "fixture session completes");

    let mut out = String::new();
    let mut scratch = RequestScratch::default();
    let mut measure = |line: &str| -> u64 {
        for _ in 0..WARM {
            out.clear();
            service.handle_line_into(line, &mut out, &mut scratch);
        }
        let before = counting_alloc::count();
        for _ in 0..MEASURE {
            out.clear();
            service.handle_line_into(line, &mut out, &mut scratch);
        }
        let spent = counting_alloc::count() - before;
        assert!(out.contains("\"ok\":true"), "probe op must succeed: {out}");
        spent
    };
    let get_total = measure(r#"{"op":"session.get","session":1,"id":9}"#);
    let fix_total = measure(r#"{"op":"session.fix","session":1}"#);
    let validate_total =
        measure(r#"{"op":"session.validate","session":1,"validations":{"key":"k3"}}"#);

    assert!(
        get_total <= STRAY_SLACK,
        "session.get: {get_total} allocations over {MEASURE} warmed requests (must be 0 each)"
    );
    assert!(
        fix_total <= STRAY_SLACK,
        "session.fix: {fix_total} allocations over {MEASURE} warmed requests (must be 0 each)"
    );
    assert!(
        validate_total <= MEASURE + STRAY_SLACK,
        "session.validate: {validate_total} allocations over {MEASURE} warmed requests (must be 1 each)"
    );

    // The other half of `tests/parse_guard.rs`: that one bounds what
    // reading a 128-row `clean` line allocates, this what serving one
    // does, reply included. Measured per request: 1 297 (10.13 per
    // tuple — its cells, its `Tuple`, the monitor's report and audit
    // records); 2 584 (20.19 per tuple) when each outcome was first
    // built as a `Json` tree — ten allocations per three-cell tuple and
    // seven per request that this bound keeps out.
    const ROWS: u64 = 128;
    const CLEAN_WARM: u64 = 4;
    const CLEAN_MEASURE: u64 = 16;
    const CLEAN_BOUND: u64 = 20 * ROWS + 20;
    let mut line = String::from(r#"{"op":"clean","trust":["key","note"],"tuples":["#);
    for i in 0..ROWS {
        let comma = if i > 0 { "," } else { "" };
        line.push_str(&format!(r#"{comma}["k{}","WRONG","n"]"#, i % 64));
    }
    line.push_str("]}");
    let mut clean = || {
        out.clear();
        service.handle_line_into(&line, &mut out, &mut scratch);
    };
    for _ in 0..CLEAN_WARM {
        clean();
    }
    let before = counting_alloc::count();
    for _ in 0..CLEAN_MEASURE {
        clean();
    }
    let clean_total = counting_alloc::count() - before;
    let totals = format!("\"count\":{ROWS},\"complete\":{ROWS},\"cells_fixed\":{ROWS},");
    assert!(out.contains(&totals), "every tuple is cleaned: {out}");
    assert!(
        clean_total <= CLEAN_MEASURE * CLEAN_BOUND,
        "clean: {clean_total} allocations over {CLEAN_MEASURE} warmed requests of {ROWS} tuples \
         (must be at most {CLEAN_BOUND} each)"
    );

    // The request counter is exact: 2 diag-priming requests, 2 session
    // set-up requests, the get/fix/validate triple per iteration, and
    // the cleans.
    assert_eq!(
        service.metrics().requests,
        4 + 3 * (WARM + MEASURE) + CLEAN_WARM + CLEAN_MEASURE,
        "request counter drifted"
    );
}
