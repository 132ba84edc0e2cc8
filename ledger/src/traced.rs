//! The traced run: half of `--seconds` is load — an untraced slice, a
//! traced slice (one root span per turn, one child per wire request,
//! kept in memory) and an open-loop paced slice — then the layer
//! probes, each wrapped in a span. Spans are written out when the run
//! ends.

use crate::client::{Client, Tally};
use crate::drill::crash_drill;
use crate::drive::{driver_for, Driver};
use crate::load::{service_config, Inputs, Workload};
use crate::probes::{self, Metric, Report};
use crate::refk::RefKernel;
use crate::rig::{set_up, Rig, Scratch};
use crate::run::{check_counters, measure_pairs, process_cpu_us, time_us, Timings, SLICE_BLOCKS};
use crate::span::Recorder;
use crate::stats::percentile;
use cerfix_server::wire::Json;
use cerfix_server::{Frontend, MetricsSnapshot};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Spans kept in memory (≈ 40 B each); the traced slice ends early
/// rather than outgrow it.
const SPAN_CAPACITY: usize = 600_000;
/// Blocks per front end in the epoll-vs-threads comparison.
const FRONTEND_BLOCKS: usize = 10;

/// Turns per second of the paced slice: a constant ≈ half of what one
/// closed-loop client reaches on the calibration host.
fn paced_rate(workload: Workload) -> f64 {
    match workload {
        Workload::WireHot => 2_000.0,
        Workload::BatchClean => 35.0,
        Workload::EntryDurable => 1_500.0,
        Workload::EntryQuorum => 90.0,
    }
}

pub struct Layered {
    pub metrics: Vec<Metric>,
    pub tally: Tally,
    /// Human-readable lines: each layer's share of the unit time.
    pub shares: Vec<String>,
    pub spans_path: PathBuf,
}

fn op_count(metrics: &MetricsSnapshot, op: &str) -> u64 {
    metrics
        .latency
        .iter()
        .find(|o| o.op == op)
        .map_or(0, |o| o.count)
}

/// The open-loop slice: turn `k` is due at `k / rate`; each is timed
/// from when it was due, so a stall charges every turn it delays.
fn paced_slice(
    driver: &mut dyn Driver,
    client: &mut Client,
    rate: f64,
    budget: Duration,
) -> (Vec<f64>, Vec<f64>) {
    let turns = ((budget.as_secs_f64() * rate) as usize).clamp(8, 200_000);
    let mut latency = Vec::with_capacity(turns);
    let mut lag = Vec::with_capacity(turns);
    let started = Instant::now();
    for k in 0..turns {
        let due = started + Duration::from_secs_f64(k as f64 / rate);
        // The rate is a constant, about half of what the calibration
        // host sustains. A host that cannot keep it falls behind without
        // end; what it has shown by twice the budget is what is reported.
        if k >= 8 && started.elapsed() > 2 * budget {
            break;
        }
        loop {
            let now = Instant::now();
            if now >= due {
                break;
            }
            let gap = due - now;
            if gap > Duration::from_micros(300) {
                // Leave the vCPU to the server while there is time.
                std::thread::sleep(gap - Duration::from_micros(200));
            } else {
                std::hint::spin_loop();
            }
        }
        lag.push((Instant::now() - due).as_secs_f64() * 1e6);
        driver.turn(client, &mut None);
        latency.push((Instant::now() - due).as_secs_f64() * 1e6);
        if k % 64 == 63 {
            driver.deep_check(client);
        }
    }
    driver.deep_check(client);
    (latency, lag)
}

/// The workload's block time under one front end against the other,
/// block for block on two live rigs.
fn front_ends(
    workload: Workload,
    inputs: &Inputs,
    scratch: &Scratch,
    refk: &mut RefKernel,
    epoll: &Rig,
    tally: &mut Tally,
    deadline: Instant,
) -> std::io::Result<(f64, f64)> {
    let threads = set_up(
        workload,
        inputs,
        inputs.fixture.relation.clone(),
        scratch,
        Frontend::Threads,
    )?;
    let mut arms = Vec::new();
    for rig in [epoll, &threads] {
        let mut client = Client::connect(rig.handle.addr())?;
        let mut driver = driver_for(inputs);
        driver.warm_up(&mut client);
        arms.push((client, driver, Timings::with_capacity(FRONTEND_BLOCKS)));
    }
    for round in 0..FRONTEND_BLOCKS {
        for (client, driver, timings) in &mut arms {
            measure_pairs(refk, driver.as_mut(), client, timings, &mut None, |done| {
                done > round
            });
        }
        if round >= 3 && Instant::now() >= deadline {
            break;
        }
    }
    let mut unit_us = [0.0; 2];
    for (slot, (client, driver, timings)) in unit_us.iter_mut().zip(arms) {
        *slot = timings.normalised_unit_us(driver.units_per_block());
        drop(driver);
        tally.absorb(client.tally);
    }
    threads.tear_down()?;
    Ok((unit_us[0], unit_us[1]))
}

/// Run `workload` traced for `seconds`.
pub fn run(
    workload: Workload,
    inputs: &Inputs,
    seconds: f64,
    scratch: &Scratch,
    pinned: bool,
) -> std::io::Result<Layered> {
    let started = Instant::now();
    let mut refk = RefKernel::new();
    let mut spans = Some(Recorder::with_capacity(SPAN_CAPACITY));
    let rig = set_up(
        workload,
        inputs,
        inputs.fixture.relation.clone(),
        scratch,
        Frontend::auto(),
    )?;
    let counters_before = rig.settled_metrics();
    let mut client = Client::connect(rig.handle.addr())?;
    for failure in &inputs.oracle_failures {
        client.tally.check(false, || failure.clone());
    }
    let mut driver = driver_for(inputs);
    driver.warm_up(&mut client);
    let units_per_block = driver.units_per_block();
    // Half of the run is load, set-up and warm-up included.
    let load_started = Instant::now();
    let load_budget = (started + Duration::from_secs_f64(seconds / 2.0))
        .saturating_duration_since(load_started)
        .max(Duration::from_secs(1));
    let slice_end = |share: f64| load_started + load_budget.mul_f64(share);

    // Untraced slice: the reference for everything the traced run
    // reports per unit (CPU, storage, replication, bytes).
    let before = rig.settled_metrics();
    let fs_before = rig.fs.as_ref().map(|fs| fs.counts());
    let bytes_before = (client.bytes_out, client.bytes_in);
    let cpu_before = process_cpu_us();
    let mut untraced = Timings::with_capacity(1 << 15);
    // Its first blocks are a fixed amount of work: the byte counts are
    // taken over them, so they repeat exactly at a fixed seed.
    measure_pairs(
        &mut refk,
        driver.as_mut(),
        &mut client,
        &mut untraced,
        &mut None,
        |done| done >= SLICE_BLOCKS,
    );
    let fixed_units = (SLICE_BLOCKS * units_per_block) as f64;
    let fixed_sent = (client.bytes_out - bytes_before.0) as f64;
    let fixed_received = (client.bytes_in - bytes_before.1) as f64;
    let fixed_served = rig.settled_metrics();
    let end = slice_end(0.4);
    measure_pairs(
        &mut refk,
        driver.as_mut(),
        &mut client,
        &mut untraced,
        &mut None,
        |_| Instant::now() >= end,
    );
    let cpu_us = process_cpu_us() - cpu_before;
    let after = rig.settled_metrics();
    let fs_after = rig.fs.as_ref().map(|fs| fs.counts());
    let units = (untraced.pairs.len() * units_per_block) as f64;
    let ref_cpu_us: f64 = untraced
        .pairs
        .iter()
        .map(|p| p.ref_before_us + p.ref_after_us)
        .sum();

    // Traced slice.
    let mut traced = Timings::with_capacity(1 << 15);
    let end = slice_end(0.7);
    measure_pairs(
        &mut refk,
        driver.as_mut(),
        &mut client,
        &mut traced,
        &mut spans,
        |done| done >= 8 && Instant::now() >= end,
    );
    let mut spans = spans.expect("recorder stays in place");

    // Paced slice.
    let remaining = slice_end(1.0).saturating_duration_since(Instant::now());
    let (paced, lag) = paced_slice(
        driver.as_mut(),
        &mut client,
        paced_rate(workload),
        remaining.max(Duration::from_millis(200)),
    );

    let counters_after = rig.settled_metrics();
    check_counters(
        &mut client.tally,
        &counters_before,
        &counters_after,
        driver.worth(),
    );
    let (stage_ratio, spans_recorded, engine_stage_share) = probes::trace_stages(&rig);
    drop(driver);
    let Client { mut tally, .. } = client;

    let mut report = Report {
        refk: &mut refk,
        spans: &mut spans,
        deadline: started + Duration::from_secs_f64(seconds * 0.75),
        metrics: Vec::with_capacity(96),
        exact_mismatches: 0,
    };

    // loadgen
    let unit_us = untraced.normalised_unit_us(units_per_block);
    let raw_unit_us = untraced.raw_unit_us(0.10, units_per_block);
    report.put(
        "loadgen.unit_raw_p50_us",
        untraced.raw_unit_us(0.50, units_per_block),
        "us",
    );
    report.put(
        "loadgen.unit_raw_p99_us",
        untraced.raw_unit_us(0.99, units_per_block),
        "us",
    );
    report.put("loadgen.paced_p50_us", percentile(&paced, 0.50), "us");
    report.put("loadgen.paced_p99_us", percentile(&paced, 0.99), "us");
    report.put("loadgen.lag_p99_us", percentile(&lag, 0.99), "us");
    report.put("loadgen.ref_fast_us", untraced.ref_fast_us(), "us");
    report.put("loadgen.ref_spread", untraced.ref_spread(), "ratio");
    report.put(
        "loadgen.cpu_us_per_unit",
        (cpu_us - ref_cpu_us).max(0.0) / units,
        "us",
    );
    let traced_unit_us = traced.normalised_unit_us(units_per_block);
    report.put(
        "loadgen.span_overhead_pct",
        (traced_unit_us / unit_us - 1.0) * 100.0,
        "%",
    );
    report.put("loadgen.pinned", f64::from(u8::from(pinned)), "bool");

    // op: child spans of the traced slice, raw.
    for (name, span) in [
        ("op.create_p50_us", "op.create"),
        ("op.validate_p50_us", "op.validate"),
        ("op.fix_p50_us", "op.fix"),
        ("op.get_p50_us", "op.get"),
        ("op.commit_p50_us", "op.commit"),
        ("op.clean_p50_us", "op.clean"),
    ] {
        report.put(name, probes::span_percentiles(report.spans, span).0, "us");
    }
    report.put(
        "op.commit_p99_us",
        probes::span_percentiles(report.spans, "op.commit").1,
        "us",
    );

    // net
    tally.absorb(probes::net(&mut report, &rig)?);
    let (epoll_unit_us, threads_unit_us) = report.span("probe.net.frontends", |report| {
        front_ends(
            workload,
            inputs,
            scratch,
            report.refk,
            &rig,
            &mut tally,
            report.deadline,
        )
    })?;
    report.put("net.threads_unit_us", threads_unit_us, "us");
    report.put("net.epoll_unit_us", epoll_unit_us, "us");
    // Bytes per unit over the fixed blocks, counted by the generator
    // and by the server. (The follower's polls go through the same
    // server counters, so under replication the generator's count
    // stands alone.)
    let served = |ours: f64, theirs: u64| {
        if workload.replicated() {
            ours
        } else {
            theirs as f64 / fixed_units
        }
    };
    report.exact_pair(
        "net.bytes_in_per_unit",
        "B",
        fixed_sent / fixed_units,
        served(
            fixed_sent / fixed_units,
            fixed_served.bytes_in - before.bytes_in,
        ),
    );
    report.exact_pair(
        "net.bytes_out_per_unit",
        "B",
        fixed_received / fixed_units,
        served(
            fixed_received / fixed_units,
            fixed_served.bytes_out - before.bytes_out,
        ),
    );

    probes::wire(&mut report, inputs);
    probes::service(&mut report, inputs, &rig);
    probes::exec(&mut report, &service_config());
    probes::engine_and_master(&mut report, inputs);
    probes::monitor(&mut report, inputs);
    probes::region(&mut report, inputs, &rig);

    // storage: the primary's write path over the untraced slice.
    let fs_delta = fs_before.zip(fs_after).map(|(b, a)| {
        (
            (a.writes - b.writes) as f64,
            (a.fsyncs - b.fsyncs) as f64,
            (a.bytes - b.bytes) as f64,
            (a.journal_fsyncs - b.journal_fsyncs) as f64,
        )
    });
    let (writes, fsyncs, bytes, journal_fsyncs) = fs_delta.unwrap_or((0.0, 0.0, 0.0, 0.0));
    report.put("storage.writes_per_unit", writes / units, "count");
    report.put("storage.fsyncs_per_unit", fsyncs / units, "count");
    report.put("storage.bytes_per_unit", bytes / units, "B");
    report.put(
        "storage.events_per_flush",
        (after.journal_events - before.journal_events) as f64 / journal_fsyncs.max(1.0),
        "count",
    );
    probes::storage(&mut report, scratch, workload.journaled());
    let snapshot_ms = if workload.journaled() {
        let mut took = 0.0;
        report.span("probe.storage.snapshot", |_| {
            took = time_us(|| {
                let _ = rig.service.snapshot_now();
            });
        });
        took / 1e3
    } else {
        0.0
    };
    report.put("storage.snapshot_ms", snapshot_ms, "ms");
    report.put(
        "storage.snapshots_in_run",
        (counters_after.snapshots_written - counters_before.snapshots_written) as f64,
        "count",
    );

    // replication: the follower's polls as the primary counted them.
    let syncs = (op_count(&after, "replica.sync") - op_count(&before, "replica.sync")) as f64;
    let commits = (after.sessions_committed - before.sessions_committed) as f64;
    let served = (after.replication_events_served - before.replication_events_served) as f64;
    probes::quorum_wait(&mut report, inputs, &rig, scratch);
    report.put(
        "replication.syncs_per_commit",
        syncs / commits.max(1.0),
        "count",
    );
    report.put(
        "replication.events_per_sync",
        served / syncs.max(1.0),
        "count",
    );
    let idle = {
        let before = op_count(&rig.service.metrics(), "replica.sync");
        let window = Duration::from_millis(250);
        if workload.replicated() {
            std::thread::sleep(window);
        }
        (op_count(&rig.service.metrics(), "replica.sync") - before) as f64 / window.as_secs_f64()
    };
    report.put("replication.idle_syncs_per_s", idle, "1/s");
    let lag_end = Json::parse(&rig.service.handle_line("{\"op\":\"metrics\"}"))
        .ok()
        .and_then(|m| match m.get("replication")? {
            Json::Obj(followers) => followers
                .iter()
                .filter_map(|(_, f)| f.get("lag_events")?.as_f64())
                .reduce(f64::max),
            _ => None,
        });
    report.put(
        "replication.lag_events_end",
        lag_end.unwrap_or(0.0),
        "count",
    );
    report.put(
        "replication.quorum_timeouts",
        (counters_after.quorum_timeouts - counters_before.quorum_timeouts) as f64,
        "count",
    );

    report.put("trace.stage_sum_ratio", stage_ratio, "ratio");
    report.put("trace.spans_recorded", spans_recorded, "count");
    probes::trace(&mut report);

    // The crash drill closes the run on `entry_durable`; its reopen is
    // `storage.recover_ms`.
    let recover_ms = if workload == Workload::EntryDurable {
        let mut took = 0.0;
        report.span("probe.storage.recover", |_| {
            took = crash_drill(inputs, &rig, &mut tally);
        });
        took
    } else {
        0.0
    };
    report.put("storage.recover_ms", recover_ms, "ms");

    let exact_mismatches = report.exact_mismatches;
    report.put("check.exact_mismatches", exact_mismatches as f64, "count");
    tally.check(exact_mismatches == 0, || {
        format!("{exact_mismatches} exact metrics did not repeat inside the run")
    });
    tally.check((stage_ratio - 1.0).abs() <= 0.05, || {
        format!("trace stages sum to {stage_ratio:.3} of total_ns, outside 1 ± 0.05")
    });
    let metrics = report.metrics;
    rig.tear_down()?;

    let spans_path =
        PathBuf::from("target/ledger").join(format!("{}.spans.jsonl", workload.name()));
    spans.write_jsonl(&spans_path)?;
    let mut shares = shares(&metrics, raw_unit_us, unit_us, inputs);
    shares.push(format!(
        "share engine stage of the server's own spans (trace.read) {:>6.1} %",
        engine_stage_share * 100.0
    ));
    eprintln!(
        "traced run: {} spans ({} dropped), {:.1} s",
        spans.spans().len(),
        spans.dropped(),
        started.elapsed().as_secs_f64()
    );
    Ok(Layered {
        metrics,
        tally,
        shares,
        spans_path,
    })
}

/// Each layer's share of the unit time, from the probes: time per call
/// of the layer × calls per unit ÷ `unit_us`. Layers nest (service
/// holds engine holds master), so the shares overlap by design.
fn shares(metrics: &[Metric], raw_unit_us: f64, unit_us: f64, inputs: &Inputs) -> Vec<String> {
    let get = |name: &str| {
        metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    };
    let pool = inputs.dirty.len() as f64;
    let rounds = inputs.rounds_total as f64 / pool;
    // Wire requests and fixpoints per unit, by workload.
    let (requests, fixpoints, service_ns) = match inputs.workload {
        Workload::WireHot => (
            1.0,
            2.0 / 3.0,
            (get("service.validate_ns") + get("service.fix_ns") + get("service.get_ns")) / 3.0,
        ),
        Workload::BatchClean => (
            1.0 / crate::load::CLEAN_BATCH as f64,
            1.0,
            get("service.clean_ns_per_tuple"),
        ),
        _ => (
            rounds + 2.0,
            rounds,
            get("service.create_ns")
                + rounds * get("service.validate_ns")
                + get("service.commit_ns"),
        ),
    };
    let lookups = get("engine.master_lookups_per_tuple");
    let rows: [(&str, f64); 8] = [
        (
            "wire.parse (if every request took the tree parser)",
            get("wire.parse_ns_per_req") * requests / 1e3,
        ),
        (
            "wire.scan (if every request took the slice scanner)",
            get("wire.scan_ns_per_req") * requests / 1e3,
        ),
        ("service (in-process, memory mode)", service_ns / 1e3),
        (
            "engine (fixpoints)",
            get("engine.fixpoint_ns_per_tuple") * fixpoints / 1e3,
        ),
        (
            "master (certain lookups)",
            get("master.lookup_ns") * lookups * fixpoints / 1e3,
        ),
        (
            "monitor (whole session)",
            get("monitor.session_ns") / 1e3 * if requests > 1.0 { 1.0 } else { 0.0 },
        ),
        (
            "storage (one soft sync)",
            get("storage.sync_soft_us") * if requests > 1.0 { 1.0 } else { 0.0 },
        ),
        (
            "replication (quorum wait)",
            get("replication.quorum_wait_us"),
        ),
    ];
    let mut lines = vec![format!(
        "share of unit_us = {unit_us:.3} us (raw fast quantile {raw_unit_us:.3} us); layers nest, shares overlap"
    )];
    for (layer, us) in rows {
        lines.push(format!(
            "share {layer:<52} {us:>12.3} us {:>6.1} %",
            us / unit_us * 100.0
        ));
    }
    lines
}
