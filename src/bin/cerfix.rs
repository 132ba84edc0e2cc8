//! `cerfix` — command-line front end for the CerFix reproduction.
//!
//! A small operational tool over CSV files (the substitution for the
//! demo's JDBC-connected deployment):
//!
//! ```text
//! cerfix check   --master M.csv --rules R.dsl [--input-header a,b,c]
//! cerfix regions --master M.csv --rules R.dsl [--input-header a,b,c] [--top-k N]
//! cerfix clean   --master M.csv --rules R.dsl --input D.csv --output OUT.csv \
//!                --trust col1,col2[,...]
//! cerfix discover --master M.csv [--input-header a,b,c] [--min-keys N]
//! cerfix serve   --master M.csv --rules R.dsl [--addr 127.0.0.1:7117] \
//!                [--workers N] [--input-header a,b,c] [--session-ttl-secs S] \
//!                [--data-dir DIR] [--flush-interval-ms N] [--snapshot-interval-secs N]
//!                [--trace-buffer N] [--slow-ms T] [--diag-buffer N] [--diag-file F]
//!                [--max-lag SECS]
//! cerfix top     [--addr 127.0.0.1:7117] [--spans N] [--prom]
//!                [--watch [--interval-secs S]] [--cluster] [--log [--level L]]
//! cerfix drain   [--addr 127.0.0.1:7117] [--wait-ms N]
//! cerfix promote [--addr 127.0.0.1:7117]
//! cerfix recover --data-dir DIR [--inspect]
//! ```
//!
//! * `check` parses the rules and runs the consistency analysis in both
//!   modes.
//! * `regions` prints the top-k certain regions (certified against the
//!   master rows reinterpreted as truth entities).
//! * `clean` monitors each input row: the columns in `--trust` are taken
//!   as validated (the operator vouches for them — e.g. the entry form's
//!   key fields), rules fix what they can, and the result is written out
//!   with a per-column audit summary.
//! * `discover` mines single-LHS FDs from the master data and prints the
//!   editing rules they compile to.
//! * `serve` runs the concurrent multi-session cleaning service
//!   (`cerfix-server`): line-delimited JSON over TCP, many clerks
//!   against one master database — the demo's deployment shape. With
//!   `--data-dir`, sessions are write-ahead journaled and the audit
//!   log spills to disk: a restarted server resumes every uncommitted
//!   session (see the README's durability section).
//! * `serve` with `--replicate-from ADDR` starts a read-only follower
//!   that tails the named primary's journal; `--quorum N` on a primary
//!   makes commit acknowledgements wait for a majority of the N-node
//!   cluster to hold durable copies.
//! * `top` connects to a running server and prints a one-shot
//!   operations view: uptime, throughput, per-op latency, engine-stat
//!   attribution, replication role/lag and the most recent (and
//!   slowest) request traces. `--prom` dumps the raw Prometheus text
//!   exposition instead. `--watch` redraws a live view every
//!   `--interval-secs`, with per-op request rates computed from the
//!   server's in-process metric time series (`metrics.history`).
//!   `--cluster` asks one node for the federated `cluster.status`
//!   document and renders a per-node role/epoch/health/lag table.
//!   `--log` tails the structured diagnostic ring (`log.read`),
//!   filterable with `--level` and `--subsystem`.
//! * `drain` gracefully drains a running server for a rolling restart:
//!   stop accepting connections, refuse new sessions with `draining`,
//!   finish in-flight work within a bound, final snapshot, clean exit.
//! * `promote` turns a running follower into the primary (epoch bump;
//!   the deposed primary is fenced on its next contact with the new
//!   epoch).
//! * `recover` inspects a data directory without serving: snapshot
//!   epoch, journaled events, live-session reconstruction inputs, audit
//!   archive size, torn bytes cut from crashed writes.
//!
//! Schemas: the master schema comes from the master CSV header; the
//! input schema from `--input-header` (or the input CSV's header for
//! `clean`). All columns are strings, matching the demo's form data.

use cerfix::{
    check_consistency, find_regions, AuditStats, ConsistencyOptions, DataMonitor, MasterData,
    MasterTruths, RegionFinderOptions,
};
use cerfix_relation::{read_untyped_str, write_relation_file, Relation, Schema, SchemaRef, Value};
use cerfix_rules::{discover_rules, parse_rules, render_er_dsl, RuleDecl, RuleSet};
use cerfix_server::{CleaningService, Server, ServiceConfig};
use std::collections::BTreeMap;
use std::process::ExitCode;

struct Args {
    command: String,
    options: BTreeMap<String, String>,
}

fn parse_args() -> Option<Args> {
    let mut argv = std::env::args().skip(1);
    let command = argv.next()?;
    let mut options = BTreeMap::new();
    let mut key: Option<String> = None;
    for arg in argv {
        if let Some(stripped) = arg.strip_prefix("--") {
            if let Some((k, v)) = stripped.split_once('=') {
                options.insert(k.to_string(), v.to_string());
            } else {
                key = Some(stripped.to_string());
                options.insert(stripped.to_string(), String::new());
            }
        } else if let Some(k) = key.take() {
            options.insert(k, arg);
        } else {
            eprintln!("unexpected positional argument `{arg}`");
            return None;
        }
    }
    Some(Args { command, options })
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  cerfix check    --master M.csv --rules R.dsl [--input-header a,b,c]\n  \
         cerfix regions  --master M.csv --rules R.dsl [--input-header a,b,c] [--top-k N]\n  \
         cerfix clean    --master M.csv --rules R.dsl --input D.csv --output OUT.csv --trust cols\n  \
         cerfix discover --master M.csv [--input-header a,b,c] [--min-keys N]\n  \
         cerfix serve    --master M.csv --rules R.dsl [--addr 127.0.0.1:7117] [--workers N]\n  \
                          [--input-header a,b,c] [--session-ttl-secs S] [--max-sessions N]\n  \
                          [--data-dir DIR] [--flush-interval-ms N] [--snapshot-interval-secs N]\n  \
                          [--min-free-bytes N] [--trace-buffer N] [--slow-ms T] [--diag-buffer N]\n  \
                          [--diag-file F] [--replicate-from ADDR] [--quorum N] [--ack-timeout-ms T]\n  \
                          [--advertise ADDR] [--max-lag SECS] [--shed-watermark N] [--max-connections N]\n  \
         cerfix top      [--addr 127.0.0.1:7117] [--spans N] [--prom] [--cluster]\n  \
                          [--watch [--interval-secs S]] [--log [--level L] [--subsystem S]]\n  \
         cerfix drain    [--addr 127.0.0.1:7117] [--wait-ms N]\n  \
         cerfix promote  [--addr 127.0.0.1:7117]\n  \
         cerfix recover  --data-dir DIR [--inspect]\n  \
         cerfix scrub    --data-dir DIR"
    );
    ExitCode::from(2)
}

fn load_master(args: &Args) -> Result<Relation, String> {
    let path = args.options.get("master").ok_or("missing --master")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    read_untyped_str("master", &text).map_err(|e| format!("parse {path}: {e}"))
}

fn input_schema_from(args: &Args, master: &Relation) -> Result<SchemaRef, String> {
    match args.options.get("input-header") {
        Some(header) => Schema::of_strings("input", header.split(','))
            .map_err(|e| format!("--input-header: {e}")),
        None => {
            // Default: same columns as master (shared-schema deployments).
            let names: Vec<String> = master
                .schema()
                .attributes()
                .iter()
                .map(|a| a.name().to_string())
                .collect();
            Schema::of_strings("input", names).map_err(|e| e.to_string())
        }
    }
}

fn load_rules(args: &Args, input: &SchemaRef, master: &SchemaRef) -> Result<RuleSet, String> {
    let path = args.options.get("rules").ok_or("missing --rules")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let mut set = RuleSet::new(input.clone(), master.clone());
    for decl in parse_rules(&text, input, master).map_err(|e| e.to_string())? {
        match decl {
            RuleDecl::Er(rule) => {
                set.add(rule).map_err(|e| e.to_string())?;
            }
            other => {
                return Err(format!(
                    "`{}` is not an editing rule; derive CFDs/MDs first (see `cerfix discover`)",
                    other.name()
                ))
            }
        }
    }
    Ok(set)
}

fn cmd_check(args: &Args) -> Result<(), String> {
    let master_rel = load_master(args)?;
    let input = input_schema_from(args, &master_rel)?;
    let rules = load_rules(args, &input, master_rel.schema())?;
    let master = MasterData::new(master_rel);
    println!("{} rules over {} master rows", rules.len(), master.len());
    for (mode, options) in [
        ("entity-coherent", ConsistencyOptions::entity_coherent()),
        ("strict", ConsistencyOptions::default()),
    ] {
        let report = check_consistency(&rules, &master, &options);
        println!(
            "{mode}: {} ({} conflicts, {} ambiguous keys{})",
            if report.is_consistent() {
                "CONSISTENT"
            } else {
                "INCONSISTENT"
            },
            report.conflicts.len(),
            report.ambiguities.len(),
            if report.budget_exhausted {
                ", budget exhausted"
            } else {
                ""
            }
        );
        for conflict in report.conflicts.iter().take(4) {
            println!("  {conflict:?}");
        }
    }
    Ok(())
}

fn cmd_regions(args: &Args) -> Result<(), String> {
    let master_rel = load_master(args)?;
    let input = input_schema_from(args, &master_rel)?;
    let rules = load_rules(args, &input, master_rel.schema())?;
    let master = MasterData::new(master_rel);
    let truths = MasterTruths::new(&input, &master);
    let top_k = args
        .options
        .get("top-k")
        .map(|v| v.parse().map_err(|_| "--top-k must be a number"))
        .transpose()?
        .unwrap_or(8);
    let threads = args
        .options
        .get("threads")
        .map(|v| v.parse().map_err(|_| "--threads must be a number"))
        .transpose()?
        .unwrap_or(0); // 0 = one worker per core
    let result = find_regions(
        &rules,
        &master,
        &truths,
        &RegionFinderOptions {
            top_k,
            threads,
            ..Default::default()
        },
    );
    println!(
        "{} regions ({} candidates, {} rejected by certification, {} vacuous; \
         {} truth profiles, {} closure probes, {} fixpoints)",
        result.regions.len(),
        result.stats.candidates,
        result.stats.rejected_by_certification,
        result.stats.vacuous,
        result.stats.truth_profiles,
        result.stats.closure_probes,
        result.stats.engine.fixpoint_runs
    );
    for (i, region) in result.regions.iter().enumerate() {
        println!("{}. {}", i + 1, region.render(&input));
    }
    Ok(())
}

fn cmd_clean(args: &Args) -> Result<(), String> {
    let master_rel = load_master(args)?;
    let input_path = args.options.get("input").ok_or("missing --input")?;
    let text =
        std::fs::read_to_string(input_path).map_err(|e| format!("read {input_path}: {e}"))?;
    let dirty = read_untyped_str("input", &text).map_err(|e| e.to_string())?;
    let input = dirty.schema().clone();
    let rules = load_rules(args, &input, master_rel.schema())?;
    let trust = args
        .options
        .get("trust")
        .ok_or("missing --trust (validated columns)")?;
    let trusted: Vec<usize> = trust
        .split(',')
        .map(|name| {
            input
                .attr_id(name.trim())
                .ok_or_else(|| format!("--trust column `{name}` not in input header"))
        })
        .collect::<Result<_, _>>()?;
    let master = MasterData::new(master_rel);
    master.warm_indexes(rules.iter().map(|(_, r)| r));
    let monitor = DataMonitor::new(&rules, &master);

    let mut cleaned = Vec::with_capacity(dirty.len());
    let mut complete = 0usize;
    for (idx, tuple) in dirty.iter() {
        let mut session = monitor.start(idx, tuple.clone());
        let validations: Vec<(usize, Value)> = trusted
            .iter()
            .filter_map(|&a| {
                let v = tuple.get(a);
                (!v.is_null()).then(|| (a, v.clone()))
            })
            .collect();
        monitor
            .apply_validation(&mut session, &validations)
            .map_err(|e| format!("row {idx}: {e}"))?;
        if session.is_complete() {
            complete += 1;
        }
        cleaned.push(session.tuple);
    }
    let out_path = args.options.get("output").ok_or("missing --output")?;
    let out_rel = Relation::from_tuples(input.clone(), cleaned).map_err(|e| e.to_string())?;
    write_relation_file(&out_rel, out_path).map_err(|e| e.to_string())?;

    println!(
        "cleaned {} rows → {out_path} ({} fully validated, {} partial)",
        dirty.len(),
        complete,
        dirty.len() - complete
    );
    let stats = AuditStats::from_log(monitor.audit());
    print!("{}", stats.render(&input));
    Ok(())
}

fn cmd_discover(args: &Args) -> Result<(), String> {
    let master_rel = load_master(args)?;
    let input = input_schema_from(args, &master_rel)?;
    let min_keys = args
        .options
        .get("min-keys")
        .map(|v| v.parse().map_err(|_| "--min-keys must be a number"))
        .transpose()?
        .unwrap_or(8);
    let master_schema = master_rel.schema().clone();
    let discovered =
        discover_rules(&input, &master_schema, &master_rel, min_keys).map_err(|e| e.to_string())?;
    // Tolerate a closed pipe (`cerfix discover | head`): stop printing
    // instead of panicking.
    use std::io::Write;
    let stdout = std::io::stdout();
    let mut out = std::io::BufWriter::new(stdout.lock());
    let _ = writeln!(
        out,
        "# {} rules discovered (min {} distinct keys)",
        discovered.len(),
        min_keys
    );
    for dr in &discovered {
        if writeln!(
            out,
            "{}  # support {}, {} keys",
            render_er_dsl(&dr.rule, &input, &master_schema),
            dr.source.support,
            dr.source.distinct_keys
        )
        .is_err()
        {
            break;
        }
    }
    let _ = out.flush();
    Ok(())
}

fn parse_option<T: std::str::FromStr>(args: &Args, key: &str, default: T) -> Result<T, String> {
    match args.options.get(key) {
        Some(raw) => raw
            .parse()
            .map_err(|_| format!("--{key}: cannot parse `{raw}`")),
        None => Ok(default),
    }
}

fn cmd_serve(args: &Args) -> Result<(), String> {
    let master_rel = load_master(args)?;
    let input = input_schema_from(args, &master_rel)?;
    let rules = load_rules(args, &input, master_rel.schema())?;
    let addr = args
        .options
        .get("addr")
        .cloned()
        .unwrap_or_else(|| "127.0.0.1:7117".to_string());
    let defaults = ServiceConfig::default();
    let replicate_from = args.options.get("replicate-from").cloned();
    let cluster_size: usize = parse_option(args, "quorum", defaults.cluster_size)?;
    if (replicate_from.is_some() || cluster_size > 1) && !args.options.contains_key("data-dir") {
        return Err("replication (--replicate-from / --quorum) requires --data-dir".into());
    }
    let config = ServiceConfig {
        workers: parse_option(args, "workers", defaults.workers)?,
        session_ttl: std::time::Duration::from_secs(parse_option(
            args,
            "session-ttl-secs",
            defaults.session_ttl.as_secs(),
        )?),
        max_sessions: parse_option(args, "max-sessions", defaults.max_sessions)?,
        region_top_k: parse_option(args, "top-k", defaults.region_top_k)?,
        precompute_regions: true,
        trace_buffer: parse_option(args, "trace-buffer", defaults.trace_buffer)?,
        slow_ms: parse_option(args, "slow-ms", defaults.slow_ms)?,
        diag_buffer: parse_option(args, "diag-buffer", defaults.diag_buffer)?,
        diag_file: args.options.get("diag-file").map(std::path::PathBuf::from),
        max_lag: std::time::Duration::from_secs_f64(parse_option(
            args,
            "max-lag",
            defaults.max_lag.as_secs_f64(),
        )?),
        replicate_from: replicate_from.clone(),
        cluster_size,
        min_free_bytes: parse_option(args, "min-free-bytes", defaults.min_free_bytes)?,
        ack_timeout: std::time::Duration::from_millis(parse_option(
            args,
            "ack-timeout-ms",
            defaults.ack_timeout.as_millis() as u64,
        )?),
        // The listen address is the natural follower identity: it is
        // what an operator would point `--replicate-from` at next.
        advertise: Some(
            args.options
                .get("advertise")
                .cloned()
                .unwrap_or_else(|| addr.clone()),
        ),
        shed_watermark: parse_option(args, "shed-watermark", defaults.shed_watermark)?,
        max_connections: parse_option(args, "max-connections", defaults.max_connections)?,
    };
    let report = check_consistency(
        &rules,
        &MasterData::new(master_rel.clone()),
        &ConsistencyOptions::entity_coherent(),
    );
    if !report.is_consistent() {
        eprintln!(
            "warning: rule set is not entity-coherent ({} conflicts, {} ambiguous keys) — \
             serving anyway; conflicting fixes surface as session errors",
            report.conflicts.len(),
            report.ambiguities.len()
        );
    }
    let workers = config.workers;
    let n_rules = rules.len();
    let n_master = master_rel.len();
    let master = std::sync::Arc::new(MasterData::new(master_rel));
    let rules = std::sync::Arc::new(rules);
    let service = match args.options.get("data-dir") {
        Some(dir) => {
            let mut storage_config = cerfix_storage::StorageConfig::new(dir);
            storage_config.flush_interval = std::time::Duration::from_millis(parse_option(
                args,
                "flush-interval-ms",
                storage_config.flush_interval.as_millis() as u64,
            )?);
            storage_config.snapshot_interval = std::time::Duration::from_secs(parse_option(
                args,
                "snapshot-interval-secs",
                storage_config.snapshot_interval.as_secs(),
            )?);
            // A follower has a second copy of the truth upstream: a
            // corrupt journal suffix is recoverable by re-sync, so keep
            // the clean prefix and start tailing instead of refusing to
            // boot. A primary stays Strict — silently dropping
            // acknowledged frames on the only copy would lose data.
            if replicate_from.is_some() {
                storage_config.scan_mode = cerfix_storage::ScanMode::Tolerant;
            }
            let service = CleaningService::with_storage(master, rules, config, storage_config)
                .map_err(|e| format!("open data dir {dir}: {e}"))?;
            let recovered = service.metrics().sessions_recovered;
            println!("durability: journaled to {dir} ({recovered} uncommitted sessions recovered)");
            service
        }
        None => CleaningService::new(master, rules, config),
    };
    match &replicate_from {
        Some(primary) => println!(
            "replication: read-only follower tailing {primary} (promote with `cerfix promote`)"
        ),
        None if cluster_size > 1 => println!(
            "replication: primary; commits wait for {} of {cluster_size} durable copies",
            (cluster_size + 2) / 2
        ),
        None => {}
    }
    let server = Server::bind(addr.as_str(), service).map_err(|e| format!("bind {addr}: {e}"))?;
    println!(
        "cerfix-server listening on {} ({n_rules} rules, {n_master} master rows, {workers} workers)",
        server.local_addr().map_err(|e| e.to_string())?,
    );
    println!("protocol: one JSON object per line; try {{\"op\":\"hello\"}}");
    server.run().map_err(|e| format!("serve: {e}"))
}

/// `cerfix top [--addr A] [--spans N] [--prom]`: one-shot operations
/// view of a running server — uptime and throughput, per-op latency
/// summaries, engine-stat attribution and the most recent (plus the
/// slowest) request traces. `--prom` dumps the raw Prometheus text
/// exposition instead (pipe it into a scrape file or a pushgateway).
fn cmd_top(args: &Args) -> Result<(), String> {
    use cerfix_server::wire::Json;
    use cerfix_server::{Client, Request};
    let addr = args
        .options
        .get("addr")
        .cloned()
        .unwrap_or_else(|| "127.0.0.1:7117".to_string());
    let spans = parse_option(args, "spans", 12u64)?;
    let mut client = Client::connect(addr.as_str()).map_err(|e| format!("connect {addr}: {e}"))?;
    if args.options.contains_key("prom") {
        let prom = client
            .request(&Request::MetricsProm)
            .map_err(|e| e.to_string())?;
        print!("{}", prom.get("body").and_then(Json::as_str).unwrap_or(""));
        return Ok(());
    }
    if args.options.contains_key("cluster") {
        return top_cluster(&mut client);
    }
    if args.options.contains_key("log") {
        return top_log(&mut client, args);
    }
    if args.options.contains_key("watch") {
        return top_watch(&mut client, &addr, args);
    }
    let hello = client.hello().map_err(|e| e.to_string())?;
    let stats = client.metrics().map_err(|e| e.to_string())?;
    let trace = client
        .request(&Request::TraceRead { limit: Some(spans) })
        .map_err(|e| e.to_string())?;

    let str_of = |json: &Json, key: &str| -> String {
        json.get(key)
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_string()
    };
    let num_of =
        |json: &Json, key: &str| -> u64 { json.get(key).and_then(Json::as_u64).unwrap_or(0) };
    println!(
        "{} at {addr} — version {}, protocol {}, storage {}",
        str_of(&hello, "service"),
        str_of(&hello, "version"),
        num_of(&hello, "protocol"),
        str_of(&hello, "storage"),
    );
    println!(
        "uptime {}s   workers {}   live sessions {}   requests {} (errors {})",
        num_of(&stats, "uptime_secs"),
        num_of(&stats, "workers"),
        num_of(&stats, "live_sessions"),
        num_of(&stats, "requests"),
        num_of(&stats, "errors"),
    );
    println!(
        "sessions: {} created / {} committed / {} aborted / {} evicted   cells fixed {}",
        num_of(&stats, "sessions_created"),
        num_of(&stats, "sessions_committed"),
        num_of(&stats, "sessions_aborted"),
        num_of(&stats, "sessions_evicted"),
        num_of(&stats, "cells_fixed"),
    );
    if stats.get("journal_bytes").is_some() {
        println!(
            "journal: {} bytes, {} events (epoch {}), {} snapshots",
            num_of(&stats, "journal_bytes"),
            num_of(&stats, "journal_events"),
            num_of(&stats, "journal_epoch"),
            num_of(&stats, "snapshots_written"),
        );
    }
    {
        let role = str_of(&stats, "role");
        let mut line = format!("role: {role}");
        if hello.get("epoch").is_some() {
            line.push_str(&format!(" (epoch {})", num_of(&hello, "epoch")));
        }
        if role == "follower" {
            line.push_str(&format!(", primary {}", str_of(&stats, "primary")));
        } else if num_of(&stats, "cluster_size") > 1 {
            line.push_str(&format!(
                ", quorum {} of {}",
                num_of(&stats, "quorum"),
                num_of(&stats, "cluster_size"),
            ));
        }
        println!("{line}");
        if let Some(Json::Obj(followers)) = stats.get("replication") {
            for (follower, lag) in followers {
                println!(
                    "  follower {follower}: epoch {}, offset {}, lag {} events / {:.3}s \
                     (seen {:.1}s ago)",
                    num_of(lag, "epoch"),
                    num_of(lag, "offset"),
                    num_of(lag, "lag_events"),
                    lag.get("lag_seconds").and_then(Json::as_f64).unwrap_or(0.0),
                    lag.get("last_seen_secs")
                        .and_then(Json::as_f64)
                        .unwrap_or(0.0),
                );
            }
        }
    }
    if let Some(Json::Obj(entries)) = stats.get("latency") {
        println!("\n{:<18} {:>10} {:>12} {:>12}", "op", "count", "p50", "p99");
        for (op, summary) in entries {
            println!(
                "{op:<18} {:>10} {:>12} {:>12}",
                num_of(summary, "count"),
                fmt_us(summary.get("p50_us").and_then(Json::as_f64).unwrap_or(0.0)),
                fmt_us(summary.get("p99_us").and_then(Json::as_f64).unwrap_or(0.0)),
            );
        }
    }
    let print_spans = |title: &str, key: &str| {
        let Some(list) = trace.get(key).and_then(Json::as_arr) else {
            return;
        };
        if list.is_empty() {
            return;
        }
        println!(
            "\n{title} (newest first):\n{:<14} {:<18} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>6}",
            "trace", "op", "total", "parse", "dispatch", "engine", "fsync", "quorum", "fixes"
        );
        for span in list {
            // Synthetic ids are counter noise, not something the
            // operator can correlate — show the request kind instead.
            let trace_col = if span.get("synthetic").and_then(Json::as_bool) == Some(true) {
                "(no id)".to_string()
            } else {
                str_of(span, "trace")
            };
            println!(
                "{:<14} {:<18} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>6}",
                trace_col,
                str_of(span, "op"),
                fmt_ns(num_of(span, "total_ns")),
                fmt_ns(num_of(span, "parse_ns")),
                fmt_ns(num_of(span, "dispatch_ns")),
                fmt_ns(num_of(span, "engine_ns")),
                fmt_ns(num_of(span, "fsync_ns")),
                fmt_ns(num_of(span, "quorum_ns")),
                num_of(span, "fixpoint_runs"),
            );
        }
    };
    if trace.get("enabled").and_then(Json::as_bool) == Some(true) {
        print_spans("recent spans", "spans");
        print_spans(
            &format!("slow spans (> {} ms)", num_of(&trace, "slow_ms")),
            "slow",
        );
    } else {
        println!("\ntracing disabled on the server (start with --trace-buffer N to enable)");
    }
    Ok(())
}

/// `cerfix top --cluster`: render the federated `cluster.status`
/// document as a per-node table. One request to one node; that node
/// fans out to every peer it knows about and answers for all of them,
/// so this works against any member of the replica group.
fn top_cluster(client: &mut cerfix_server::Client) -> Result<(), String> {
    use cerfix_server::wire::Json;
    use cerfix_server::Request;
    let status = client
        .request(&Request::ClusterStatus { fanout: true })
        .map_err(|e| e.to_string())?;
    println!(
        "cluster: {} configured, quorum {}",
        status
            .get("cluster_size")
            .and_then(Json::as_u64)
            .unwrap_or(1),
        status.get("quorum").and_then(Json::as_u64).unwrap_or(1),
    );
    println!(
        "{:<22} {:<9} {:>6} {:<10} {:>8} {:>10} {:>9}",
        "node", "role", "epoch", "health", "lag", "requests", "req/s"
    );
    let Some(nodes) = status.get("nodes").and_then(Json::as_arr) else {
        return Ok(());
    };
    for node in nodes {
        let addr = node.get("addr").and_then(Json::as_str).unwrap_or("?");
        if node.get("ok").and_then(Json::as_bool) != Some(true) {
            println!(
                "{addr:<22} unreachable: {}",
                node.get("error").and_then(Json::as_str).unwrap_or("?")
            );
            continue;
        }
        let ready = node.get("ready").and_then(Json::as_bool) == Some(true);
        println!(
            "{addr:<22} {:<9} {:>6} {:<10} {:>7.1}s {:>10} {:>9.1}",
            node.get("role").and_then(Json::as_str).unwrap_or("?"),
            node.get("epoch").and_then(Json::as_u64).unwrap_or(0),
            if ready { "ready" } else { "NOT READY" },
            node.get("lag_seconds")
                .and_then(Json::as_f64)
                .unwrap_or(0.0),
            node.get("requests").and_then(Json::as_u64).unwrap_or(0),
            node.get("req_per_sec")
                .and_then(Json::as_f64)
                .unwrap_or(0.0),
        );
        if !ready {
            if let Some(causes) = node.get("causes").and_then(Json::as_arr) {
                for cause in causes {
                    if let Some(text) = cause.as_str() {
                        println!("{:<22}   cause: {text}", "");
                    }
                }
            }
        }
    }
    Ok(())
}

/// `cerfix top --log`: dump the server's structured diagnostic ring,
/// newest first, optionally filtered by `--level` and `--subsystem`.
fn top_log(client: &mut cerfix_server::Client, args: &Args) -> Result<(), String> {
    use cerfix_server::wire::Json;
    use cerfix_server::Request;
    let response = client
        .request(&Request::LogRead {
            limit: Some(parse_option(args, "limit", 64u64)?),
            level: args.options.get("level").cloned(),
            subsystem: args.options.get("subsystem").cloned(),
        })
        .map_err(|e| e.to_string())?;
    if response.get("enabled").and_then(Json::as_bool) != Some(true) {
        println!("diagnostic log disabled on the server (start with --diag-buffer N)");
        return Ok(());
    }
    println!(
        "{} recorded, {} emitted, {} rate-limited",
        response.get("recorded").and_then(Json::as_u64).unwrap_or(0),
        response.get("emitted").and_then(Json::as_u64).unwrap_or(0),
        response
            .get("suppressed")
            .and_then(Json::as_u64)
            .unwrap_or(0),
    );
    if let Some(events) = response.get("events").and_then(Json::as_arr) {
        for event in events {
            println!(
                "{} [{:<5} {:<11}] {}",
                event.get("unix_ms").and_then(Json::as_u64).unwrap_or(0),
                event.get("level").and_then(Json::as_str).unwrap_or("?"),
                event.get("subsystem").and_then(Json::as_str).unwrap_or("?"),
                event.get("message").and_then(Json::as_str).unwrap_or(""),
            );
        }
    }
    Ok(())
}

/// `cerfix top --watch`: live operations view, redrawn every
/// `--interval-secs`. Each frame pulls the tail of the server's metric
/// time series and diffs the oldest sample in the window against the
/// newest, so the per-op `req/s` column reflects the interval the
/// operator is actually watching rather than a since-boot average.
/// Runs until interrupted — a server restart (or a rolling-restart
/// drain) renders a "peer down" frame and keeps reconnecting with the
/// redraw cadence as its backoff instead of exiting.
fn top_watch(client: &mut cerfix_server::Client, addr: &str, args: &Args) -> Result<(), String> {
    use cerfix_server::wire::Json;
    use cerfix_server::{Client, Request};
    use std::io::Write;
    let interval = parse_option(args, "interval-secs", 2u64)?.max(1);
    let num_of =
        |json: &Json, key: &str| -> u64 { json.get(key).and_then(Json::as_u64).unwrap_or(0) };
    let f64_of =
        |json: &Json, key: &str| -> f64 { json.get(key).and_then(Json::as_f64).unwrap_or(0.0) };
    loop {
        // The housekeeper samples roughly once a second; ask for one
        // sample more than the redraw interval so the rate window
        // matches the refresh cadence.
        let frame = client.request(&Request::Health).and_then(|health| {
            client
                .request(&Request::MetricsHistory {
                    limit: Some(interval + 1),
                })
                .map(|history| (health, history))
        });
        let (health, history) = match frame {
            Ok(frame) => frame,
            Err(e) => {
                // The server went away mid-watch (restart, drain,
                // crash): show the outage instead of exiting, and try a
                // fresh connection each frame until it is back.
                print!("\x1b[2J\x1b[H");
                println!("{addr} — PEER DOWN ({e})");
                println!("retrying every {interval}s until the server returns (^C to stop)");
                let _ = std::io::stdout().flush();
                std::thread::sleep(std::time::Duration::from_secs(interval));
                if let Ok(fresh) = Client::connect(addr) {
                    *client = fresh;
                }
                continue;
            }
        };
        print!("\x1b[2J\x1b[H"); // clear screen, cursor home
        let ready = health.get("ready").and_then(Json::as_bool) == Some(true);
        let mut head = format!(
            "{addr} — {}, {}",
            health.get("role").and_then(Json::as_str).unwrap_or("?"),
            if ready { "ready" } else { "NOT READY" },
        );
        if let Some(causes) = health.get("causes").and_then(Json::as_arr) {
            for cause in causes {
                if let Some(text) = cause.as_str() {
                    head.push_str(&format!(" ({text})"));
                }
            }
        }
        println!("{head}");
        match history.get("samples").and_then(Json::as_arr) {
            Some(samples) if !samples.is_empty() => {
                let first = &samples[0];
                let last = &samples[samples.len() - 1];
                let window = samples.len() > 1;
                let dt = ((num_of(last, "unix_ms").saturating_sub(num_of(first, "unix_ms")))
                    as f64
                    / 1e3)
                    .max(1e-9);
                let rate = |new: u64, old: u64| -> f64 {
                    if window {
                        new.saturating_sub(old) as f64 / dt
                    } else {
                        0.0
                    }
                };
                println!(
                    "uptime {}s   requests {} ({:.1}/s)   errors {}   committed {}   cells fixed {}",
                    num_of(last, "uptime_secs"),
                    num_of(last, "requests"),
                    rate(num_of(last, "requests"), num_of(first, "requests")),
                    num_of(last, "errors"),
                    num_of(last, "sessions_committed"),
                    num_of(last, "cells_fixed"),
                );
                println!(
                    "\n{:<18} {:>10} {:>9} {:>12} {:>12}",
                    "op", "count", "req/s", "p50", "p99"
                );
                if let Some(Json::Obj(ops)) = last.get("latency") {
                    for (op, summary) in ops {
                        let count = num_of(summary, "count");
                        if count == 0 {
                            continue;
                        }
                        let prev = first
                            .get("latency")
                            .and_then(|l| l.get(op))
                            .map(|s| num_of(s, "count"))
                            .unwrap_or(0);
                        println!(
                            "{op:<18} {count:>10} {:>9.1} {:>12} {:>12}",
                            rate(count, prev),
                            fmt_us(f64_of(summary, "p50_us")),
                            fmt_us(f64_of(summary, "p99_us")),
                        );
                    }
                }
            }
            _ => println!("metrics history is empty (the housekeeper samples once a second)"),
        }
        let _ = std::io::stdout().flush();
        std::thread::sleep(std::time::Duration::from_secs(interval));
    }
}

/// `cerfix drain [--addr A] [--wait-ms N]`: gracefully drain a running
/// server for a rolling restart. The server stops accepting
/// connections, refuses new sessions with a `draining` error, waits up
/// to the bound for in-flight sessions to finish, writes a final
/// snapshot and exits cleanly — zero acknowledged work lost.
fn cmd_drain(args: &Args) -> Result<(), String> {
    use cerfix_server::wire::Json;
    use cerfix_server::{Client, Request};
    let addr = args
        .options
        .get("addr")
        .cloned()
        .unwrap_or_else(|| "127.0.0.1:7117".to_string());
    let wait_ms = match args.options.get("wait-ms") {
        Some(raw) => Some(
            raw.parse::<u64>()
                .map_err(|e| format!("--wait-ms `{raw}`: {e}"))?,
        ),
        None => None,
    };
    let mut client = Client::connect(addr.as_str()).map_err(|e| format!("connect {addr}: {e}"))?;
    let response = client
        .request(&Request::Drain { wait_ms })
        .map_err(|e| e.to_string())?;
    println!(
        "{addr} draining: {} live session(s), shutting down within {} ms",
        response.get("sessions").and_then(Json::as_u64).unwrap_or(0),
        response.get("wait_ms").and_then(Json::as_u64).unwrap_or(0),
    );
    Ok(())
}

/// `cerfix promote [--addr A]`: turn a running follower into the
/// primary. The follower stops tailing, bumps its journal epoch (which
/// fences the deposed primary on its next contact) and starts accepting
/// mutations. Idempotent against a node that is already primary.
fn cmd_promote(args: &Args) -> Result<(), String> {
    use cerfix_server::wire::Json;
    use cerfix_server::{Client, Request};
    let addr = args
        .options
        .get("addr")
        .cloned()
        .unwrap_or_else(|| "127.0.0.1:7117".to_string());
    let mut client = Client::connect(addr.as_str()).map_err(|e| format!("connect {addr}: {e}"))?;
    let response = client
        .request(&Request::ReplicaPromote)
        .map_err(|e| e.to_string())?;
    let epoch = response.get("epoch").and_then(Json::as_u64).unwrap_or(0);
    if response.get("promoted").and_then(Json::as_bool) == Some(true) {
        println!("{addr} promoted to primary at epoch {epoch}");
    } else {
        println!("{addr} is already primary (epoch {epoch})");
    }
    Ok(())
}

/// Render a nanosecond reading at a human scale.
fn fmt_ns(ns: u64) -> String {
    match ns {
        0..=999 => format!("{ns}ns"),
        1_000..=999_999 => format!("{:.1}us", ns as f64 / 1e3),
        1_000_000..=999_999_999 => format!("{:.1}ms", ns as f64 / 1e6),
        _ => format!("{:.2}s", ns as f64 / 1e9),
    }
}

/// Render a microsecond reading at a human scale.
fn fmt_us(us: f64) -> String {
    fmt_ns((us * 1e3) as u64)
}

/// `cerfix recover --data-dir DIR [--inspect]`: report what a restarted
/// server would recover, without serving. Storage-only — needs neither
/// master data nor rules, so it works on a box that just has the files.
fn cmd_recover(args: &Args) -> Result<(), String> {
    use cerfix_storage::{scan_journal, JournalEvent};
    let dir = std::path::PathBuf::from(args.options.get("data-dir").ok_or("missing --data-dir")?);
    if !dir.is_dir() {
        return Err(format!("{} is not a directory", dir.display()));
    }
    let inspect = args.options.contains_key("inspect");

    let snapshot = cerfix_storage::load_snapshot(&dir).map_err(|e| e.to_string())?;
    let snapshot_epoch = snapshot.as_ref().map_or(0, |s| s.epoch);
    match &snapshot {
        Some(snapshot) => println!(
            "snapshot: epoch {}, {} live sessions, next session id {}, ruleset {:016x}",
            snapshot.epoch,
            snapshot.sessions.len(),
            snapshot.next_session_id,
            snapshot.fingerprint
        ),
        None => println!("snapshot: none"),
    }

    let journal_path = dir.join(cerfix_storage::JOURNAL_FILE);
    let scan = scan_journal(&journal_path).map_err(|e| e.to_string())?;
    let replayed = scan.epoch == snapshot_epoch;
    println!(
        "journal: epoch {}, {} events, {} torn bytes{}",
        scan.epoch,
        scan.events.len(),
        scan.torn_bytes,
        if replayed {
            ""
        } else {
            " (STALE epoch — snapshot owns this state; events will be discarded)"
        }
    );
    let mut by_kind: BTreeMap<&'static str, usize> = BTreeMap::new();
    for event in &scan.events {
        *by_kind.entry(event.kind()).or_default() += 1;
    }
    for (kind, count) in &by_kind {
        println!("  {kind}: {count}");
    }

    // The segment is walked by the header check and frame walk that
    // opening it runs: what refuses a restart refuses here.
    let scrub = cerfix_storage::scrub_dir(&dir).map_err(|e| e.to_string())?;
    let audit_file = cerfix_storage::AUDIT_FILE;
    if let Some(corrupt) = scrub
        .corruptions
        .iter()
        .find(|c| c.file.ends_with(audit_file))
    {
        return Err(format!("audit segment corrupt: {corrupt}"));
    }
    if dir.join(audit_file).exists() {
        println!(
            "audit segment: {} records, {} torn bytes",
            scrub.audit_records, scrub.audit_torn_bytes
        );
    } else {
        println!("audit segment: none");
    }

    if inspect {
        if let Some(snapshot) = &snapshot {
            for session in &snapshot.sessions {
                println!(
                    "  session {}: round {}, {}/{} validated ({} by user), tuple [{}]",
                    session.session,
                    session.rounds,
                    session.validated.len(),
                    session.values.len(),
                    session.user_validated.len(),
                    session
                        .values
                        .iter()
                        .map(|v| v.render())
                        .collect::<Vec<_>>()
                        .join(", ")
                );
            }
        }
        if replayed {
            for (i, event) in scan.events.iter().enumerate() {
                match event {
                    JournalEvent::SessionCreated { session, values } => {
                        println!("  [{i}] create session {session} ({} cells)", values.len())
                    }
                    JournalEvent::SessionValidated {
                        session,
                        validations,
                    } => println!(
                        "  [{i}] validate session {session}: {}",
                        validations
                            .iter()
                            .map(|(a, v)| format!("#{a}:={}", v.render()))
                            .collect::<Vec<_>>()
                            .join(" ")
                    ),
                    JournalEvent::SessionCommitted { session } => {
                        println!("  [{i}] commit session {session}")
                    }
                    JournalEvent::SessionAborted { session } => {
                        println!("  [{i}] abort session {session}")
                    }
                    JournalEvent::SessionsEvicted { sessions } => {
                        println!("  [{i}] evict {sessions:?}")
                    }
                    JournalEvent::MasterAppended { rows } => {
                        println!("  [{i}] master append ({} rows)", rows.len())
                    }
                    JournalEvent::RulesReloaded { fingerprint, dsl } => println!(
                        "  [{i}] rules reloaded → {fingerprint:016x} ({} DSL bytes)",
                        dsl.len()
                    ),
                    JournalEvent::ConfigSet { key, value } => {
                        println!("  [{i}] config set {key} = {value}")
                    }
                }
            }
        }
    }
    Ok(())
}

/// `cerfix scrub --data-dir DIR`: verify every checksum in a quiesced
/// data directory and exit nonzero if anything acknowledged is damaged.
/// Torn tails (crash residue that recovery truncates) are reported but
/// are not corruption. Storage-only, like `recover`: works on a box
/// that just has the files.
fn cmd_scrub(args: &Args) -> Result<(), String> {
    let dir = std::path::PathBuf::from(args.options.get("data-dir").ok_or("missing --data-dir")?);
    if !dir.is_dir() {
        return Err(format!("{} is not a directory", dir.display()));
    }
    let report = cerfix_storage::scrub_dir(&dir).map_err(|e| format!("scrub: {e}"))?;
    println!(
        "journal:  {} frames verified, {} torn bytes",
        report.journal_frames, report.journal_torn_bytes
    );
    println!(
        "snapshot: {}",
        if report.snapshot_present {
            if report
                .corruptions
                .iter()
                .any(|c| c.file.contains("snapshot"))
            {
                "present (CORRUPT)"
            } else {
                "present, verified"
            }
        } else {
            "none"
        }
    );
    println!(
        "audit:    {} records verified, {} torn bytes",
        report.audit_records, report.audit_torn_bytes
    );
    if report.clean() {
        println!("scrub: clean");
        Ok(())
    } else {
        for corruption in &report.corruptions {
            eprintln!("corrupt: {corruption}");
        }
        Err(format!(
            "{} corruption(s) found — restore from a replica (`--replicate-from` re-syncs \
             automatically) or from a snapshot backup",
            report.corruptions.len()
        ))
    }
}

fn main() -> ExitCode {
    let Some(args) = parse_args() else {
        return usage();
    };
    let result = match args.command.as_str() {
        "check" => cmd_check(&args),
        "regions" => cmd_regions(&args),
        "clean" => cmd_clean(&args),
        "discover" => cmd_discover(&args),
        "serve" => cmd_serve(&args),
        "top" => cmd_top(&args),
        "drain" => cmd_drain(&args),
        "promote" => cmd_promote(&args),
        "recover" => cmd_recover(&args),
        "scrub" => cmd_scrub(&args),
        _ => return usage(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}
