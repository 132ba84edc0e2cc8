//! The request parser is linear in the line and allocates what the
//! request holds, no more.
//!
//! Two guards on `Request::parse_line` (and `Json::parse`, the tree
//! view over the same lexer), neither of which can flake on machine
//! speed:
//!
//! * **Time.** A `clean` line of just under the server's line cap
//!   (`MAX_LINE_BYTES`, 8 MiB) parses inside 10 s in a debug build. A
//!   linear lexer needs well under a second; the tree lexer this
//!   replaced re-validated the rest of the line at every character and
//!   needed — extrapolated from 15.7 s at 1 MB — about a quarter of an
//!   hour. The bound separates the designs, not machines.
//! * **Allocations.** A ledger-shaped line of 128 ten-cell rows costs
//!   one allocation per row and one per string cell too long to be held
//!   in its cell (more than 22 bytes), plus the envelope: exactly 1 per
//!   row + 9 on HOSP's cells, which all fit, and 4 per row + 9 on rows
//!   with three long cells (11 per row + 9 while every string cell was
//!   an `Arc<str>`; the tree-building parser spent ≈ 34.6 per row).
//!
//! This file holds exactly one `#[test]`: the counter is process-wide,
//! and a sibling test on another thread would allocate into the window.

use cerfix_server::wire::Json;
use cerfix_server::Request;
use std::time::{Duration, Instant};

#[path = "common/counting_alloc.rs"]
mod counting_alloc;

/// The server's line cap (`net::MAX_LINE_BYTES`).
const MAX_LINE_BYTES: usize = 8 * 1024 * 1024;

/// One HOSP-shaped dirty tuple, as the ledger's `batch_clean` sends it.
const ROW: &str = r#"["10001","ST MARY MEDICAL CENTER","2001 W 86TH ST","IN","46260","MARION","3173385345","AMI-1","Heart Attack","92%"]"#;

/// `ROW` with its name, street and measure past 22 bytes.
const LONG_ROW: &str = r#"["10001","ST MARY MEDICAL CENTER OF INDIANA","2001 WEST 86TH STREET SUITE 100","IN","46260","MARION","3173385345","AMI-1","Acute Myocardial Infarction","92%"]"#;

/// A `clean` request of `rows` tuples, each `row`.
fn clean_line(rows: usize, row: &str) -> String {
    let mut line = String::from(r#"{"op":"clean","tuples":["#);
    for i in 0..rows {
        if i > 0 {
            line.push(',');
        }
        line.push_str(row);
    }
    line.push_str(r#"],"trust":["zip"]}"#);
    line
}

#[test]
fn parsing_is_linear_in_time_and_frugal_in_allocations() {
    // Allocations, on the ledger's shape and with three long cells a row.
    const ROWS: usize = 128;
    for (row, long_cells) in [(ROW, 0), (LONG_ROW, 3)] {
        let line = clean_line(ROWS, row);
        let before = counting_alloc::count();
        let parsed = Request::parse_line(&line);
        let spent = counting_alloc::count() - before;
        let Ok(Request::Clean { tuples, trust }) = parsed else {
            panic!("a clean request: {parsed:?}");
        };
        assert_eq!((tuples.len(), tuples[0].len(), trust.len()), (ROWS, 10, 1));
        assert!(
            spent <= 14 * ROWS as u64 + 16,
            "{spent} allocations for {ROWS} ten-cell rows"
        );
        // Exactly: the row's `Vec` and its long cells per row, and 9 for
        // the envelope — what the parser spent before rows were walked in
        // place. The first row is counted before its `Vec` is allocated,
        // and every later row's is allocated at the length of the one
        // before.
        assert_eq!(
            spent,
            (1 + long_cells) * ROWS as u64 + 9,
            "allocations for {ROWS} ten-cell rows, {long_cells} of their cells long"
        );
    }

    // Time, at the line cap.
    const BOUND: Duration = Duration::from_secs(10);
    let rows = (MAX_LINE_BYTES - 64) / (ROW.len() + 1);
    let line = clean_line(rows, ROW);
    assert!(line.len() < MAX_LINE_BYTES && line.len() > MAX_LINE_BYTES - 256);
    let started = Instant::now();
    let parsed = Request::parse_line(&line);
    let took = started.elapsed();
    assert!(
        matches!(&parsed, Ok(Request::Clean { tuples, .. }) if tuples.len() == rows),
        "a clean request of {rows} tuples"
    );
    assert!(
        took < BOUND,
        "parse_line took {took:?} on {} bytes",
        line.len()
    );
    drop(parsed);
    let started = Instant::now();
    let tree = Json::parse(&line);
    let took = started.elapsed();
    let tuples = tree.as_ref().ok().and_then(|tree| tree.get("tuples"));
    assert_eq!(tuples.and_then(Json::as_arr).map(<[Json]>::len), Some(rows));
    assert!(
        took < BOUND,
        "Json::parse took {took:?} on {} bytes",
        line.len()
    );
}
