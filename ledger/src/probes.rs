//! Per-layer probes of the traced run: each times the calls into one
//! layer's public functions from outside, wrapped in a span. Timings
//! are normalised like the end-to-end figures; counts marked *exact*
//! are computed twice and must agree.

use crate::alloc;
use crate::client::{field_u64, Client, Tally};
use crate::fsx::CountingFs;
use crate::load::{
    hot_request, service_config, universe_from_master, Inputs, Op, Pool, Workload, HOT_WINDOW,
};
use crate::refk::{RefKernel, REF_NOMINAL_US};
use crate::rig::{Rig, Scratch};
use crate::run::time_us;
use crate::span::Recorder;
use crate::stats::{fast, median, percentile};
use cerfix::{
    recheck_regions, run_fixpoint_delta, search_regions, CompiledRules, DataMonitor, MasterData,
    RegionFinderOptions, SessionStatus, WorkerPool,
};
use cerfix_relation::{AttrId, AttrSet, Tuple, Value};
use cerfix_server::wire::scan::ObjectScanner;
use cerfix_server::wire::Json;
use cerfix_server::{CleaningService, Request, RequestScratch, ServiceConfig};
use cerfix_storage::{JournalEvent, Storage, StorageConfig};
use std::sync::Arc;
use std::time::Instant;

/// One reported figure.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Where the probes put their results.
pub struct Report<'a> {
    pub refk: &'a mut RefKernel,
    pub spans: &'a mut Recorder,
    /// When the probes must be done: past it, every timing makes do
    /// with one round and optional second computations are skipped.
    pub deadline: Instant,
    pub metrics: Vec<Metric>,
    /// *Exact* metrics whose computations disagreed.
    pub exact_mismatches: u64,
}

impl Report<'_> {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        // A figure the server does not expose, or a probe that does not
        // apply to this workload, reports 0 — never NaN, never a crash.
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push(Metric { name, value, unit });
    }

    /// An *exact* metric: `compute` runs until two results agree, three
    /// times at most (a once-a-second housekeeping allocation may land
    /// in one pass; it cannot land in two of three).
    pub fn exact(
        &mut self,
        name: &'static str,
        unit: &'static str,
        mut compute: impl FnMut() -> f64,
    ) {
        let first = compute();
        let second = compute();
        let value = if first == second {
            first
        } else {
            let third = compute();
            if third != first && third != second {
                self.mismatch(name, &[first, second, third]);
            }
            third
        };
        self.put(name, value, unit);
    }

    /// Two computations of one *exact* quantity made by different
    /// parties (the generator and the server, say).
    pub fn exact_pair(&mut self, name: &'static str, unit: &'static str, ours: f64, theirs: f64) {
        if ours != theirs {
            self.mismatch(name, &[ours, theirs]);
        }
        self.put(name, ours, unit);
    }

    /// An *exact* metric whose computations disagreed.
    pub fn mismatch(&mut self, name: &str, values: &[f64]) {
        self.exact_mismatches += 1;
        eprintln!("exact metric {name} did not repeat: {values:?}");
    }

    /// Normalised time of one call of `f`, in µs: `rounds` timed calls
    /// interleaved with `refk` blocks, fast quantile over fast quantile.
    pub fn timed_us(&mut self, rounds: usize, mut f: impl FnMut()) -> f64 {
        let mut refs = Vec::with_capacity(rounds + 1);
        let mut work = Vec::with_capacity(rounds);
        refs.push(time_us(|| {
            self.refk.block();
        }));
        for _ in 0..rounds {
            work.push(time_us(&mut f));
            refs.push(time_us(|| {
                self.refk.block();
            }));
            if self.hurried() {
                break;
            }
        }
        fast(&work) / fast(&refs).max(f64::MIN_POSITIVE) * REF_NOMINAL_US
    }

    /// True once the probes have used up their share of the run.
    pub fn hurried(&self) -> bool {
        Instant::now() >= self.deadline
    }

    /// Run one probe inside a span named after it.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        let start = self.spans.now_ns();
        let result = f(self);
        let end = self.spans.now_ns();
        self.spans.record(0, name, start, end);
        result
    }
}

/// Request lines of the workload, one `String` each, as the server
/// would see them (entry and hot lines get a stand-in session id).
pub fn sample_lines(inputs: &Inputs, limit: usize, limit_bytes: usize) -> Vec<String> {
    let arena = &inputs.arena;
    let mut lines = Vec::new();
    match &inputs.pool {
        Pool::Hot(sessions) => {
            for (s, session) in sessions.iter().enumerate() {
                for i in 0..HOT_WINDOW {
                    let id = (s * HOT_WINDOW + i) as u64;
                    lines.push(hot_request(i, s as u64 + 1, &session.key, id));
                }
            }
        }
        Pool::Clean(turns) => {
            lines.extend(
                turns
                    .iter()
                    .map(|turn| arena.text(&turn.request).to_string()),
            );
        }
        Pool::Entry(scripts) => {
            for (at, script) in scripts.iter().enumerate() {
                lines.push(arena.text(&script.create).to_string());
                for step in &script.steps {
                    lines.push(arena.session_line(&step.head, at as u64 + 1));
                }
            }
        }
    }
    lines.truncate(limit);
    let mut bytes = 0;
    lines.retain(|line| {
        bytes += line.len();
        bytes <= limit_bytes.max(line.len())
    });
    lines
}

/// `wire`: the slice scanner and the tree parser over the workload's
/// own lines.
pub fn wire(report: &mut Report<'_>, inputs: &Inputs) {
    report.span("probe.wire", |report| {
        let lines = sample_lines(inputs, 1024, 256 << 10);
        let bytes: usize = lines.iter().map(String::len).sum();
        let n = lines.len() as f64;
        let scan_us = report.timed_us(16, || {
            for line in &lines {
                let mut scanner = ObjectScanner::new(line).expect("request lines are objects");
                while let Some(field) = scanner.next_field() {
                    std::hint::black_box(field);
                }
            }
        });
        let parse_us = report.timed_us(8, || {
            for line in &lines {
                std::hint::black_box(Request::parse_line(line).is_ok());
            }
        });
        report.put("wire.scan_ns_per_req", scan_us * 1e3 / n, "ns");
        report.put("wire.parse_ns_per_req", parse_us * 1e3 / n, "ns");
        report.put("wire.parse_mb_s", bytes as f64 / parse_us, "MB/s");
        report.exact("wire.allocs_per_parse", "count", || {
            let before = alloc::count();
            for line in &lines {
                std::hint::black_box(Request::parse_line(line).is_ok());
            }
            (alloc::count() - before) as f64 / n
        });
    });
}

/// Passes of the workload's stream the service timings are read over.
const TIMED_PASSES: usize = 6;
/// Passes the allocation counts are averaged over.
const ALLOC_PASSES: usize = 3;

/// Time and allocations of one op kind over one pass of the stream.
#[derive(Default)]
struct OpCost {
    us: f64,
    allocs: u64,
    calls: u64,
}

/// `service`: `CleaningService::handle_line_into`, memory mode, one
/// thread, the workload's own stream.
pub fn service(report: &mut Report<'_>, inputs: &Inputs, rig: &Rig) {
    report.span("probe.service", |report| {
        // A memory-mode instance of the served engine, fresh for every
        // pass that counts allocations: the same starting state, so the
        // same allocations (a long-lived instance grows its audit log
        // by doubling, and a pass that hits a doubling counts more).
        // `clean` asks for no suggestion, so its instance skips the
        // region search a start-up would otherwise pay for.
        let fresh = || {
            CleaningService::new(
                Arc::clone(&rig.master),
                Arc::clone(&inputs.fixture.rules),
                ServiceConfig {
                    precompute_regions: inputs.workload != Workload::BatchClean,
                    ..service_config()
                },
            )
        };
        // [create, validate, fix, get, commit, clean]
        let run_stream = |service: &CleaningService, costs: &mut [OpCost; 6]| {
            let mut out = String::with_capacity(1 << 16);
            let mut scratch = RequestScratch::default();
            // Calls that only move the stream along, untimed.
            let mut aside = RequestScratch::default();
            let mut call = |kind: usize, line: &str, out: &mut String| {
                out.clear();
                let before = alloc::count();
                let us = time_us(|| service.handle_line_into(line, out, &mut scratch));
                costs[kind].allocs += alloc::count() - before;
                costs[kind].us += us;
                costs[kind].calls += 1;
            };
            let arena = &inputs.arena;
            match &inputs.pool {
                Pool::Hot(sessions) => {
                    for session in sessions {
                        out.clear();
                        service.handle_line_into(arena.text(&session.create), &mut out, &mut aside);
                        let id = field_u64(out.as_bytes(), b"\"session\":").unwrap_or(0);
                        let line = arena.session_line(&session.complete, id);
                        out.clear();
                        service.handle_line_into(&line, &mut out, &mut aside);
                        // One request of each kind, as a window holds them.
                        let lines: Vec<String> = (0..3)
                            .map(|i| hot_request(i, id, &session.key, i as u64))
                            .collect();
                        for _ in 0..32 {
                            for (i, line) in lines.iter().enumerate() {
                                call(1 + i, line, &mut out);
                            }
                        }
                        out.clear();
                        let abort = format!("{{\"op\":\"session.abort\",\"session\":{id}}}");
                        service.handle_line_into(&abort, &mut out, &mut aside);
                    }
                }
                Pool::Clean(turns) => {
                    for turn in turns.iter().take(8) {
                        call(5, arena.text(&turn.request), &mut out);
                    }
                }
                Pool::Entry(scripts) => {
                    for script in scripts.iter().take(256) {
                        call(0, arena.text(&script.create), &mut out);
                        let id = field_u64(out.as_bytes(), b"\"session\":").unwrap_or(0);
                        for step in &script.steps {
                            let kind = if step.op == Op::Commit { 4 } else { 1 };
                            call(kind, &arena.session_line(&step.head, id), &mut out);
                        }
                    }
                }
            }
        };
        // Timings: the fast quantile over several passes, normalised by
        // the reference blocks between them.
        // Timings: every pass is the same work, so per op kind the mean
        // time of a call is taken pass by pass and the fast quantile
        // over the passes, normalised by the reference blocks between
        // them. (The calls of one kind are not the same work — a
        // second-round validate has nothing left to look up — so a
        // quantile over single calls would pick the cheap ones.)
        let mut per_pass: [Vec<f64>; 6] = Default::default();
        let mut refs = vec![time_us(|| {
            report.refk.block();
        })];
        let service = fresh();
        for _ in 0..TIMED_PASSES {
            let mut costs: [OpCost; 6] = Default::default();
            run_stream(&service, &mut costs);
            for (means, c) in per_pass.iter_mut().zip(&costs) {
                if c.calls > 0 {
                    means.push(c.us / c.calls as f64);
                }
            }
            refs.push(time_us(|| {
                report.refk.block();
            }));
            if report.hurried() {
                break;
            }
        }
        drop(service);
        let scale = REF_NOMINAL_US / fast(&refs).max(f64::MIN_POSITIVE);
        let ns = |means: &Vec<f64>| fast(means) * scale * 1e3;
        let costs = &per_pass;
        report.put("service.create_ns", ns(&costs[0]), "ns");
        report.put("service.validate_ns", ns(&costs[1]), "ns");
        report.put("service.fix_ns", ns(&costs[2]), "ns");
        report.put("service.get_ns", ns(&costs[3]), "ns");
        report.put("service.commit_ns", ns(&costs[4]), "ns");
        let per_tuple = |x: f64| x / crate::load::CLEAN_BATCH as f64;
        report.put("service.clean_ns_per_tuple", per_tuple(ns(&costs[5])), "ns");
        // … and allocation counts, each pass on a fresh instance. They
        // do not repeat exactly even so (create and validate move by
        // ± 0.1 % with the iteration order of the inference system's
        // hash maps), so they are reported as the mean of the passes
        // and not held to the exact-metric rule.
        let names = [
            "service.allocs.create",
            "service.allocs.validate",
            "service.allocs.fix",
            "service.allocs.get",
            "service.allocs.commit",
            "service.allocs.clean_per_tuple",
        ];
        let mut sums = [0.0; 6];
        let passes = if report.hurried() { 1 } else { ALLOC_PASSES };
        for _ in 0..passes {
            let mut costs: [OpCost; 6] = Default::default();
            run_stream(&fresh(), &mut costs);
            for (sum, c) in sums.iter_mut().zip(&costs) {
                if c.calls > 0 {
                    *sum += c.allocs as f64 / c.calls as f64;
                }
            }
        }
        sums[5] = per_tuple(sums[5]);
        for (name, sum) in names.into_iter().zip(sums) {
            report.put(name, sum / passes as f64, "count");
        }
    });
}

/// First-round seed of tuple `at`: the attributes a client validates
/// first, set to their true values.
fn first_round(inputs: &Inputs, at: usize) -> (Tuple, AttrSet) {
    let mut tuple = inputs.dirty[at].clone();
    let truth = &inputs.truth[at];
    let mut validated = AttrSet::new();
    let seed: Vec<AttrId> = match inputs.workload {
        // The windows re-validate completed sessions: the fixpoint
        // they run starts from a fully validated, correct tuple.
        Workload::WireHot => vec![0, 1, 2],
        Workload::BatchClean => {
            let schema = inputs.fixture.input();
            vec![
                schema.attr_id("provider").expect("hosp attr"),
                schema.attr_id("measure").expect("hosp attr"),
            ]
        }
        Workload::EntryDurable | Workload::EntryQuorum => {
            let monitor = DataMonitor::from_plan(
                &inputs.fixture.rules,
                &inputs.oracle_master,
                Arc::clone(&inputs.oracle_plan),
            )
            .with_regions(inputs.regions.clone());
            match monitor.status(&monitor.start(at, tuple.clone())) {
                SessionStatus::AwaitingUser { suggestion } => suggestion,
                _ => Vec::new(),
            }
        }
    };
    for attr in seed {
        tuple
            .set(attr, truth.get(attr).clone())
            .expect("same schema");
        validated.insert(attr);
    }
    (tuple, validated)
}

/// `engine` and `master`: plan compile, the delta fixpoint and the
/// certain lookup over the workload's own tuples.
pub fn engine_and_master(report: &mut Report<'_>, inputs: &Inputs) {
    let rules = &inputs.fixture.rules;
    let master = &inputs.oracle_master;
    let plan = &inputs.oracle_plan;
    let sample = inputs.dirty.len().min(1024);
    let seeds: Vec<(Tuple, AttrSet)> = (0..sample).map(|at| first_round(inputs, at)).collect();

    report.span("probe.engine", |report| {
        let compile_us = report.timed_us(8, || {
            std::hint::black_box(CompiledRules::compile(rules, master));
        });
        report.put("engine.compile_ms", compile_us / 1e3, "ms");
        // One fresh copy of the tuples per round, made beforehand: the
        // fixpoint mutates them and the copy is not engine work.
        let mut copies: Vec<Vec<(Tuple, AttrSet)>> = (0..12).map(|_| seeds.clone()).collect();
        let fixpoint_us = report.timed_us(12, || {
            for (mut tuple, mut validated) in copies.pop().unwrap_or_default() {
                std::hint::black_box(
                    run_fixpoint_delta(plan, master, &mut tuple, &mut validated).is_ok(),
                );
            }
        });
        report.put(
            "engine.fixpoint_ns_per_tuple",
            fixpoint_us * 1e3 / sample as f64,
            "ns",
        );
        let totals = || {
            let mut stats = cerfix::EngineStats::default();
            let mut fixes = 0usize;
            for (tuple, validated) in &seeds {
                let (mut tuple, mut validated) = (tuple.clone(), validated.clone());
                if let Ok(r) = run_fixpoint_delta(plan, master, &mut tuple, &mut validated) {
                    stats += r.stats;
                    fixes += r.fixes.len();
                }
            }
            (stats, fixes)
        };
        let n = sample as f64;
        report.exact("engine.rule_attempts_per_tuple", "count", || {
            totals().0.rule_attempts as f64 / n
        });
        report.exact("engine.master_lookups_per_tuple", "count", || {
            totals().0.master_lookups as f64 / n
        });
        report.exact("engine.index_probes_per_tuple", "count", || {
            totals().0.index_probes as f64 / n
        });
        report.exact("engine.useful_ratio", "ratio", || {
            let (stats, fixes) = totals();
            fixes as f64 / stats.rule_attempts.max(1) as f64
        });
    });

    report.span("probe.master", |report| {
        let lookups = (seeds.len() * rules.len()) as f64;
        let lookup_us = report.timed_us(12, || {
            for (tuple, _) in &seeds {
                for (_, rule) in rules.iter() {
                    std::hint::black_box(master.certain_lookup(rule, tuple));
                }
            }
        });
        report.put("master.lookup_ns", lookup_us * 1e3 / lookups, "ns");
        let relation = &inputs.fixture.relation;
        let build_us = report.timed_us(3, || {
            let fresh = MasterData::new(relation.clone());
            fresh.warm_indexes(rules.iter().map(|(_, r)| r));
            std::hint::black_box(fresh.index_count());
        });
        report.put("master.index_build_ms", build_us / 1e3, "ms");
        report.exact_pair(
            "master.rows",
            "count",
            master.len() as f64,
            inputs.fixture.relation.len() as f64,
        );
    });
}

/// `exec`: the worker pool's ordered map over 128 no-op items.
pub fn exec(report: &mut Report<'_>, config: &ServiceConfig) {
    report.span("probe.exec", |report| {
        let pool = WorkerPool::new(config.workers);
        let us = report.timed_us(32, || {
            for _ in 0..8 {
                let items: Vec<u32> = (0..128).collect();
                std::hint::black_box(pool.map_ordered(items, |_, item| item));
            }
        });
        report.put(
            "exec.map_ordered_ns_per_item",
            us * 1e3 / (8.0 * 128.0),
            "ns",
        );
    });
}

/// `monitor`: the interactive loop with no server around it.
pub fn monitor(report: &mut Report<'_>, inputs: &Inputs) {
    report.span("probe.monitor", |report| {
        let monitor = DataMonitor::from_plan(
            &inputs.fixture.rules,
            &inputs.oracle_master,
            Arc::clone(&inputs.oracle_plan),
        )
        .with_regions(inputs.regions.clone());
        let sample = inputs.dirty.len().min(512);
        // (rounds, user attrs, cells fixed) of the first `n` sessions,
        // driven exactly as the generator's oracle drove them.
        let replay = |n: usize| {
            let (mut rounds, mut user, mut fixed) = (0u64, 0u64, 0u64);
            for at in 0..n {
                let truth = &inputs.truth[at];
                let mut session = monitor.start(at, inputs.dirty[at].clone());
                loop {
                    let asked: Vec<AttrId> = match inputs.workload {
                        Workload::WireHot if session.rounds == 0 => vec![0, 2],
                        Workload::BatchClean if session.rounds == 0 => {
                            first_round(inputs, at).1.iter().collect()
                        }
                        Workload::WireHot | Workload::BatchClean => break,
                        _ => match monitor.status(&session) {
                            SessionStatus::Complete => break,
                            SessionStatus::AwaitingUser { suggestion } => suggestion,
                            SessionStatus::Stuck { unvalidated } => unvalidated,
                        },
                    };
                    let answers: Vec<(AttrId, Value)> =
                        asked.iter().map(|&a| (a, truth.get(a).clone())).collect();
                    user += answers.len() as u64;
                    match monitor.apply_validation(&mut session, &answers) {
                        Ok(r) => fixed += r.fixes.len() as u64,
                        Err(_) => break,
                    }
                }
                rounds += session.rounds as u64;
            }
            (rounds, user, fixed)
        };
        let session_us = report.timed_us(8, || {
            std::hint::black_box(replay(sample));
        });
        report.put("monitor.session_ns", session_us * 1e3 / sample as f64, "ns");
        let fresh: Vec<_> = (0..sample)
            .map(|at| monitor.start(at, inputs.dirty[at].clone()))
            .collect();
        let suggest_us = report.timed_us(8, || {
            for session in &fresh {
                std::hint::black_box(monitor.status(session));
            }
        });
        report.put("monitor.suggest_ns", suggest_us * 1e3 / sample as f64, "ns");
        // The whole pool, against the totals the generator's oracle
        // kept: the two must be the same computation.
        let n = inputs.dirty.len();
        let (rounds, user, fixed) = replay(n);
        let per = |x: u64| x as f64 / n as f64;
        report.exact_pair(
            "monitor.rounds_per_session",
            "count",
            per(rounds),
            per(inputs.rounds_total),
        );
        report.exact_pair(
            "monitor.user_attrs_per_session",
            "count",
            per(user),
            per(inputs.user_attrs_total),
        );
        report.exact_pair(
            "monitor.cells_fixed_per_tuple",
            "count",
            per(fixed),
            per(inputs.cells_fixed_total),
        );
    });
}

/// Probes a region search makes: closure evaluations plus fixpoints.
fn search_probes(stats: &cerfix::RegionSearchStats) -> f64 {
    (stats.closure_probes + stats.truth_profiles + stats.engine.fixpoint_runs) as f64
}

/// `region`: a cold search, then a re-check after a 16-row append.
pub fn region(report: &mut Report<'_>, inputs: &Inputs, rig: &Rig) {
    report.span("probe.region", |report| {
        let rules = &inputs.fixture.rules;
        let master = &inputs.oracle_master;
        let config = service_config();
        let options = RegionFinderOptions {
            top_k: config.region_top_k,
            threads: config.workers,
            ..Default::default()
        };
        let universe = universe_from_master(rules.input_schema(), master);
        let mut search = None;
        let search_us = report.timed_us(1, || {
            search = Some(search_regions(rules, master, &universe, &options));
        });
        let search = search.expect("one round ran");
        report.put("region.search_ms", search_us / 1e3, "ms");
        // The second computation is the served instance's own: its
        // start-up search ran over the same rules and master.
        let served = Json::parse(&rig.service.handle_line("{\"op\":\"metrics\"}"))
            .ok()
            .and_then(|m| {
                let rs = m.get("region_search")?;
                Some(
                    rs.get("closure_probes")?.as_f64()?
                        + rs.get("truth_profiles")?.as_f64()?
                        + rs.get("certification_fixpoints")?.as_f64()?,
                )
            });
        report.exact_pair(
            "region.search_probes",
            "count",
            search_probes(&search.result.stats),
            served.unwrap_or(-1.0),
        );

        // Sixteen master rows appended again: a duplicate changes no
        // certain lookup, so the re-check should find nearly every
        // verdict reusable — the property the delta path exists for.
        let rows: Vec<Tuple> = master.relation().rows().iter().take(16).cloned().collect();
        let recheck = |report: &mut Report<'_>| {
            let (grown, _) = master.append_copy(rows.clone()).expect("rows conform");
            let grown_universe = universe_from_master(rules.input_schema(), &grown);
            let mut patched = None;
            let us = report.timed_us(1, || {
                patched = Some(recheck_regions(
                    rules,
                    &grown,
                    &grown_universe,
                    &search,
                    &options,
                ));
            });
            (
                us,
                search_probes(&patched.expect("one round ran").result.stats),
            )
        };
        let (first_us, first_probes) = recheck(report);
        let (second_us, second_probes) = if report.hurried() {
            (first_us, first_probes)
        } else {
            recheck(report)
        };
        report.put("region.recheck_ms", first_us.min(second_us) / 1e3, "ms");
        report.exact_pair(
            "region.recheck_probes",
            "count",
            first_probes,
            second_probes,
        );
    });
}

/// `storage`: the journal with one caller, software path and device.
pub fn storage(report: &mut Report<'_>, scratch: &Scratch, journaled: bool) {
    if !journaled {
        return; // nothing to probe: the metrics read 0
    }
    report.span("probe.storage", |report| {
        let event = |i: u64| JournalEvent::SessionValidated {
            session: i,
            validations: vec![(0, Value::str("131")), (3, Value::str("60006540"))],
        };
        let open = |device_sync: bool| {
            let mut config = StorageConfig::new(scratch.fresh());
            config.fs = CountingFs::new(device_sync);
            Storage::open(config).map(|(storage, _)| storage)
        };
        match open(false) {
            Ok(soft) => {
                let mut i = 0;
                let append_us = report.timed_us(16, || {
                    for _ in 0..256 {
                        i += 1;
                        std::hint::black_box(soft.append(&event(i)));
                    }
                    let _ = soft.sync(i);
                });
                report.put("storage.append_ns", append_us * 1e3 / 256.0, "ns");
                let sync_us = report.timed_us(64, || {
                    i += 1;
                    let seq = soft.append(&event(i));
                    let _ = soft.sync(seq);
                });
                report.put("storage.sync_soft_us", sync_us, "us");
                let dir = soft.dir().to_path_buf();
                drop(soft);
                let _ = std::fs::remove_dir_all(dir);
            }
            Err(_) => {
                report.put("storage.append_ns", 0.0, "ns");
                report.put("storage.sync_soft_us", 0.0, "us");
            }
        }
        // The sandbox's device, raw: reported so the elided cost is on
        // record, never gated.
        match open(true) {
            Ok(disk) => {
                let samples: Vec<f64> = (0..32)
                    .map(|i| {
                        let seq = disk.append(&event(i));
                        time_us(|| {
                            let _ = disk.sync(seq);
                        })
                    })
                    .collect();
                report.put("storage.sync_disk_p50_us", median(&samples), "us");
                let dir = disk.dir().to_path_buf();
                drop(disk);
                let _ = std::fs::remove_dir_all(dir);
            }
            Err(_) => report.put("storage.sync_disk_p50_us", 0.0, "us"),
        }
    });
}

/// Commit latency in-process: p50 of `session.commit` alone over the
/// first sessions of an entry pool, raw µs.
fn commit_p50_us(service: &CleaningService, inputs: &Inputs, sessions: usize) -> f64 {
    let Pool::Entry(scripts) = &inputs.pool else {
        return 0.0;
    };
    let mut out = String::with_capacity(4096);
    let mut scratch = RequestScratch::default();
    let mut commits = Vec::with_capacity(sessions);
    for script in scripts.iter().take(sessions) {
        out.clear();
        service.handle_line_into(inputs.arena.text(&script.create), &mut out, &mut scratch);
        let id = field_u64(out.as_bytes(), b"\"session\":").unwrap_or(0);
        for step in &script.steps {
            let line = inputs.arena.session_line(&step.head, id);
            out.clear();
            let us = time_us(|| service.handle_line_into(&line, &mut out, &mut scratch));
            if step.op == Op::Commit {
                commits.push(us);
            }
        }
    }
    median(&commits)
}

/// `replication.quorum_wait_us`: what waiting for the follower adds to
/// a commit — this rig's in-process commit minus the same commit on a
/// journaled service with no cluster.
pub fn quorum_wait(report: &mut Report<'_>, inputs: &Inputs, rig: &Rig, scratch: &Scratch) {
    if !inputs.workload.journaled() {
        return; // no commit waits on anything: the metric reads 0
    }
    report.span("probe.replication", |report| {
        let here = commit_p50_us(&rig.service, inputs, 48);
        let mut config = StorageConfig::new(scratch.fresh());
        config.fs = CountingFs::new(false);
        let alone = CleaningService::with_storage(
            Arc::clone(&rig.master),
            Arc::clone(&inputs.fixture.rules),
            service_config(),
            config,
        );
        let wait = match alone {
            Ok(alone) => (here - commit_p50_us(&alone, inputs, 48)).max(0.0),
            Err(_) => 0.0,
        };
        report.put("replication.quorum_wait_us", wait, "us");
    });
}

/// What the server's own spans say about the requests it just served:
/// Σ stage ns ÷ Σ `total_ns` (must be 1 ± 0.05), spans recorded, and
/// the share of the time it attributes to the engine stage. Call right
/// after the load, before any probe writes to the ring.
pub fn trace_stages(rig: &Rig) -> (f64, f64, f64) {
    let read = Json::parse(
        &rig.service
            .handle_line("{\"op\":\"trace.read\",\"limit\":512}"),
    )
    .ok();
    let recorded = read
        .as_ref()
        .and_then(|r| r.get("recorded")?.as_f64())
        .unwrap_or(0.0);
    let (mut stages, mut engine, mut total) = (0.0, 0.0, 0.0);
    if let Some(spans) = read.as_ref().and_then(|r| r.get("spans")?.as_arr()) {
        for span in spans {
            let field = |k: &str| span.get(k).and_then(Json::as_f64).unwrap_or(0.0);
            stages += [
                "parse_ns",
                "dispatch_ns",
                "engine_ns",
                "fsync_ns",
                "quorum_ns",
                "serialize_ns",
            ]
            .iter()
            .map(|k| field(k))
            .sum::<f64>();
            engine += field("engine_ns");
            total += field("total_ns");
        }
    }
    if total > 0.0 {
        (stages / total, recorded, engine / total)
    } else {
        (0.0, recorded, 0.0)
    }
}

/// `trace`: what the span ring costs.
pub fn trace(report: &mut Report<'_>) {
    report.span("probe.trace", |report| {
        // In-process `session.get`, ring at its default size against
        // ring off, in alternating blocks on two memory-mode twins.
        let twin = |trace_buffer: usize| {
            let (master, rules) = crate::load::kv_fixture();
            let service = CleaningService::new(
                master,
                rules,
                ServiceConfig {
                    trace_buffer,
                    ..service_config()
                },
            );
            service.handle_line("{\"op\":\"session.create\",\"tuple\":[\"k3\",\"WRONG\",\"n\"]}");
            service
        };
        let (on, off) = (twin(service_config().trace_buffer), twin(0));
        let mut out = String::with_capacity(1024);
        let mut scratch = RequestScratch::default();
        let line = "{\"op\":\"session.get\",\"session\":1,\"id\":9}";
        let mut block = |service: &CleaningService| {
            time_us(|| {
                for _ in 0..2048 {
                    out.clear();
                    service.handle_line_into(line, &mut out, &mut scratch);
                }
            })
        };
        let (mut traced, mut untraced) = (Vec::new(), Vec::new());
        for _ in 0..48 {
            traced.push(block(&on));
            untraced.push(block(&off));
        }
        let overhead = (fast(&traced) / fast(&untraced).max(f64::MIN_POSITIVE) - 1.0) * 100.0;
        report.put("trace.overhead_pct", overhead, "%");
    });
}

/// `net`: what TCP and the front end add to the in-process call.
pub fn net(report: &mut Report<'_>, rig: &Rig) -> std::io::Result<Tally> {
    report.span("probe.net", |report| net_inner(report, rig))
}

fn net_inner(report: &mut Report<'_>, rig: &Rig) -> std::io::Result<Tally> {
    let mut client = Client::connect(rig.handle.addr())?;
    // A session of the served schema to read back: made of nulls, so it
    // works on every fixture.
    let arity = rig.service.input_schema().arity();
    let nulls = vec!["null"; arity].join(",");
    client.begin_turn();
    client.send(
        format!("{{\"op\":\"session.create\",\"id\":1,\"tuple\":[{nulls}]}}\n").as_bytes(),
        1,
    );
    let session = client
        .expect(1, b"\"session\":", u64::MAX)
        .and_then(|reply| field_u64(reply, b"\"session\":"))
        .unwrap_or(0);
    let line = format!("{{\"op\":\"session.get\",\"session\":{session},\"id\":7}}");
    let single = format!("{line}\n").into_bytes();
    let window: Vec<u8> = single.repeat(HOT_WINDOW);

    let mut out = String::with_capacity(1024);
    let mut scratch = RequestScratch::default();
    let service = rig.service.clone();
    let mut inproc = |n: usize| -> Vec<f64> {
        (0..n)
            .map(|_| {
                out.clear();
                time_us(|| service.handle_line_into(&line, &mut out, &mut scratch))
            })
            .collect()
    };
    let direct = fast(&inproc(2000));
    let rtt: Vec<f64> = (0..2000)
        .map(|_| {
            client.begin_turn();
            time_us(|| {
                client.send(&single, 1);
                client.expect(7, b"\"session\":", u64::MAX);
            })
        })
        .collect();
    let windows: Vec<f64> = (0..200)
        .map(|_| {
            client.begin_turn();
            time_us(|| {
                client.send(&window, HOT_WINDOW as u64);
                for _ in 0..HOT_WINDOW {
                    client.expect(7, b"\"session\":", u64::MAX);
                }
            })
        })
        .collect();
    client.begin_turn();
    client.send(
        format!("{{\"op\":\"session.abort\",\"id\":2,\"session\":{session}}}\n").as_bytes(),
        1,
    );
    client.expect(2, b"", u64::MAX);
    client.deep_check(|_, _| Ok(()));
    report.put("net.rtt_overhead_us", (fast(&rtt) - direct).max(0.0), "us");
    report.put(
        "net.window_overhead_us_per_req",
        (fast(&windows) / HOT_WINDOW as f64 - direct).max(0.0),
        "us",
    );
    Ok(client.tally)
}

/// Raw p50 / p99 of the spans named `name`, µs.
pub fn span_percentiles(spans: &Recorder, name: &str) -> (f64, f64) {
    let us: Vec<f64> = spans
        .spans()
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
        .collect();
    (percentile(&us, 0.50), percentile(&us, 0.99))
}
