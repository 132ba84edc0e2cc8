//! Commit durability — what one `session.commit` costs on this machine's
//! disk in each durability mode.
//!
//! Two arms, measured back to back over the kv fixture: `local-fsync`
//! (the commit acks after the journal group fsync) and `quorum-ack`
//! (cluster of 2: the commit also waits for a journal-tailing follower
//! to pull, apply and fsync the events). Only the commit is timed. The
//! `ledger` benchmark leaves the device out of `fdatasync` on purpose
//! (`ledger/README.md`), so this is the one place the real fsync shows;
//! `BENCH_history.json` holds the figures earlier commits recorded.

use cerfix::MasterData;
use cerfix_bench::print_table;
use cerfix_relation::{RelationBuilder, Schema, Value};
use cerfix_rules::{EditingRule, PatternTuple, RuleSet};
use cerfix_server::{CleaningService, LocalClient, Request, Server, ServiceConfig, StorageConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

const ROWS: usize = 512;
const COMMITS: usize = 400;

/// `key → val` over [`ROWS`] master rows: the cheapest session there is,
/// so the commit's durability wait is all that is left to see.
fn kv_parts() -> (Arc<MasterData>, Arc<RuleSet>) {
    let input = Schema::of_strings("in", ["key", "val", "note"]).unwrap();
    let ms = Schema::of_strings("m", ["key", "val"]).unwrap();
    let mut builder = RelationBuilder::new(ms.clone());
    for i in 0..ROWS {
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
    (Arc::new(master), Arc::new(rules))
}

/// `[mode, commits, p50, p99]` of create → validate → commit sessions,
/// timing the commit alone.
fn commit_latency(mode: &str, service: &CleaningService) -> Vec<String> {
    let mut client = LocalClient::in_process(service);
    let mut lat: Vec<Duration> = Vec::with_capacity(COMMITS);
    for i in 0..COMMITS {
        let k = Value::str(format!("k{}", i % ROWS));
        let view = client
            .create_session(vec![k.clone(), Value::str("WRONG"), Value::str("n")])
            .expect("create");
        let validations = vec![("key".into(), k), ("note".into(), Value::str("n"))];
        client
            .validate(view.session, validations)
            .expect("validate");
        let start = Instant::now();
        client.commit(view.session).expect("commit");
        lat.push(start.elapsed());
    }
    lat.sort_unstable();
    let pct = |p: f64| {
        format!(
            "{:.1}",
            lat[((COMMITS - 1) as f64 * p) as usize].as_secs_f64() * 1e6
        )
    };
    vec![mode.into(), COMMITS.to_string(), pct(0.50), pct(0.99)]
}

fn main() {
    let tmp = std::env::temp_dir().join(format!("cerfix-exp-durability-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    let (master, rules) = kv_parts();
    let config = || ServiceConfig {
        workers: 2,
        precompute_regions: false,
        ..ServiceConfig::default()
    };
    let open = |config: ServiceConfig, dir: &str| {
        let storage = StorageConfig::new(tmp.join(dir));
        CleaningService::with_storage(Arc::clone(&master), Arc::clone(&rules), config, storage)
            .expect("open data directory")
    };

    let local = open(config(), "local");
    let mut rows = vec![commit_latency("local-fsync", &local)];
    drop(local);

    let primary_config = ServiceConfig {
        cluster_size: 2,
        ack_timeout: Duration::from_secs(10),
        advertise: Some("exp-primary".into()),
        ..config()
    };
    let primary = open(primary_config, "primary");
    let handle = Server::spawn("127.0.0.1:0", primary.clone()).expect("bind quorum primary");
    let follower_config = ServiceConfig {
        replicate_from: Some(handle.addr().to_string()),
        advertise: Some("exp-follower".into()),
        ..config()
    };
    let follower = open(follower_config, "follower");
    rows.push(commit_latency("quorum-ack (2 replicas)", &primary));
    follower.handle(&Request::Shutdown); // stops the tail thread
    let _ = handle.shutdown();
    drop(follower);
    let _ = std::fs::remove_dir_all(&tmp);

    print_table(
        "commit latency by durability mode (µs)",
        &["mode", "commits", "p50", "p99"],
        &rows,
    );
    println!(
        "\nshape check: quorum-ack is the primary's and the follower's fsyncs one\n\
         after the other plus a loopback hop, and no timer — about twice to three\n\
         times local-fsync, whatever one fsync costs on this disk."
    );
}
