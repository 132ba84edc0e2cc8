//! Allocations per request on the warmed session path: `session.get` 0,
//! `session.fix` 0, `session.validate` 0 (1, the validated value's
//! `Arc<str>`, until a string of at most 22 bytes was held in its cell)
//! — and on a warmed 128-tuple `clean`, at most 146 per request at one
//! worker and 179 at eight (measured 139 and 149–171, 1.09 and 1.16–1.34
//! per tuple: each tuple's row `Vec`, plus the three scoped helpers a
//! 128-tuple request fans out to at any worker count past three; 4.09
//! and 4.22 while each tuple's three cells were `Arc<str>`s, 10.13 while
//! every tuple built a monitor, a validations list and a fresh fixpoint
//! report). Underneath them all, a warmed
//! `DataMonitor::apply_validation_into` round on the paper's UK rules —
//! rules firing, their index probes shared through the run's key memo
//! (four key groups), then a new suggestion — allocates 0: the correcting
//! process runs on the caller's `FixpointScratch`, and the suggestion is
//! a bitset; and a run that looks nothing up allocates 0 even on a fresh
//! scratch, since the memo is sized at a run's first probe. Then the
//! entry path, on the UK rules with no pre-computed
//! region, so every reply carries a suggestion from the inference
//! system: `session.create` at most 2 (measured 2: its row and its
//! registry entry; 11 while its nine cells were `Arc<str>`s, 16 while
//! the row was copied and grown and the suggestion came back as a `Vec`,
//! 234 when it was derived through `BTreeSet`s), a `session.validate`
//! that ends `awaiting_user` with a new suggestion 0 (4, its four
//! values, while they were `Arc<str>`s; was 9, and 155 before that), and
//! the completing `session.validate` 0 (was 1, and 4). Last, the durable path: a warmed
//! `Journal::append` and a warmed `AuditSpill::append` allocate 0 (each
//! frame is encoded in place into a buffer that keeps its capacity
//! across flushes); the same session with a commit on a journaled node
//! at most 7 (measured 7.01; 21 while its string cells were `Arc<str>`s,
//! 37 while each event was framed from an owned copy of its values, 106
//! while every event and audit record was encoded into its own `Vec` and
//! each record also cloned into a resident window); and replicated — a
//! journaled primary, a follower tailing it over loopback, quorum 2 — at
//! most 10 on both nodes together (measured 10.08–10.18: the follower
//! builds only the rows its sessions keep, and a held sync allocates
//! nothing on the primary; 38 while string cells were `Arc<str>`s, 63
//! while the follower decoded a batch of owned events, each string
//! twice, and the primary copied every held sync; 85 while each replayed
//! event built its own monitor and report, 206 before in-place framing,
//! 313 while each frame was decoded and re-encoded on the primary and
//! read through a `Json` tree, hex-decoded into its own `Vec` and
//! re-encoded on the follower).
//!
//! Under them all, the master indexes: building one of the UK rules'
//! four over 20 000 entities at most 64 (measured 16–26: a few vectors
//! and one table growing, then packed; 20 015–20 124 while each row's key
//! was a box of its own), cloning one — what `Arc::make_mut` does on a
//! master append — at most 8 (measured 3–5; was 20 002), and HOSP's two
//! indexes of 5 000 keys shared by four rows each at most 64 apiece
//! (measured 43; was 35 013, a box per row and a `Vec` per shared key).
//! And the region search over such masters, at one thread: at most 211
//! on UK and 158 on HOSP (measured 201 and 151 — the truths are the
//! master rows read in place, the profiles run on one reused key buffer
//! and memo, and HOSP's rows are profiled through one vector of
//! postings per key group and one memo of posting verdicts; 20 202 and
//! 60 158 while the master was first copied into a `Vec<Tuple>` and
//! every profile allocated two buffers of its own).
//!
//! A counting global allocator wraps the full `handle_line_into`
//! parse → execute → render path of an in-process service **with request
//! tracing and the structured diagnostic log enabled** (default ring
//! sizes, at least one event recorded) — the configuration operators
//! run, not a stripped one. Counts, not wall-clock: cannot flake on
//! machine speed.
//!
//! This file holds exactly one `#[test]`: the service windows count
//! process-wide (a flusher, a follower and `clean`'s helpers work on
//! threads of their own), and a sibling test on another thread would
//! allocate into them. The two library windows, whose work stays on the
//! test's thread, count that thread alone: another thread of the binary
//! once landed 2 allocations in the first of them.

use cerfix::{
    search_regions, AuditLog, AuditRecord, AuditSink, CellEvent, DataMonitor, FixpointScratch,
    MasterData, MasterTruths, RegionFinderOptions, RegionSearchStats,
};
use cerfix_relation::{AttrSet, HashIndex, RelationBuilder, Schema, Tuple, Value};
use cerfix_rules::{EditingRule, PatternTuple, RuleSet};
use cerfix_server::{CleaningService, RequestScratch, Server, ServiceConfig, StorageConfig};
use cerfix_storage::{JournalEvent, Storage};
use std::sync::Arc;
use std::time::Duration;

#[path = "common/counting_alloc.rs"]
mod counting_alloc;

/// key → val lookup service over 64 master rows: per-op service work is
/// a couple of index probes, so the serving path is what gets counted.
/// `workers` is pinned: a `clean` fans out by it.
fn kv_service(workers: usize) -> CleaningService {
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
        workers,
        precompute_regions: false,
        ..ServiceConfig::default()
    };
    assert!(config.trace_buffer > 0, "tracing is on by default");
    CleaningService::new(Arc::new(master), Arc::new(rules), config)
}

/// The paper's UK scenario as a clerk meets it: nine rules, three of
/// them gated on `type`, the two master tuples of Fig. 2, and no
/// pre-computed region — every suggestion comes from the inference system.
fn uk_service() -> CleaningService {
    let mut rng = rand::SeedableRng::seed_from_u64(0);
    let master = MasterData::new(cerfix_gen::uk::generate_master(2, &mut rng));
    let config = ServiceConfig {
        precompute_regions: false,
        ..ServiceConfig::default()
    };
    CleaningService::new(Arc::new(master), Arc::new(cerfix_gen::uk::rules()), config)
}

const ENTRY_WARM: u64 = 64;
const ENTRY_MEASURE: u64 = 512;

/// Fig. 3 of the paper, `ENTRY_WARM + ENTRY_MEASURE` times over: create
/// (suggests AC, phn, type, item), validate those (FN, LN and city are
/// fixed; suggests zip), validate zip (complete), abort. Returns the
/// allocations inside the measured create / first validate / completing
/// validate requests.
fn entry_path_allocations(service: &CleaningService) -> [u64; 3] {
    let set = service.handle_line(r#"{"op":"config.set","key":"slow_ms","value":500}"#);
    assert!(set.contains("\"ok\":true"), "diag log primed: {set}");
    let mut out = String::new();
    let mut scratch = RequestScratch::default();
    let mut spent = [0u64; 3];
    for i in 0..ENTRY_WARM + ENTRY_MEASURE {
        let id = i + 1;
        let steps = [
            (
                r#"{"op":"session.create","tuple":["M.","Smith","201","075568485","2","1 Nowhere","???","XXX","DVD"]}"#.to_string(),
                r#""status":"awaiting_user","tuple":["M.","Smith","201","075568485","2","1 Nowhere","???","XXX","DVD"],"rounds":0,"validated":[],"suggestion":["AC","phn","type","item"]"#,
            ),
            (
                format!(r#"{{"op":"session.validate","session":{id},"validations":{{"AC":"020","phn":"075568485","type":"2","item":"DVD"}}}}"#),
                r#""status":"awaiting_user","tuple":["Mark","Smith","020","075568485","2","1 Nowhere","Ldn","XXX","DVD"],"rounds":1,"validated":["FN","LN","AC","phn","type","city","item"],"suggestion":["zip"]"#,
            ),
            (
                format!(r#"{{"op":"session.validate","session":{id},"validations":{{"zip":"NW1 6XE"}}}}"#),
                r#""status":"complete","tuple":["Mark","Smith","020","075568485","2","20 Baker St","Ldn","NW1 6XE","DVD"],"rounds":2"#,
            ),
        ];
        for (step, (line, expected)) in steps.iter().enumerate() {
            out.clear();
            let before = counting_alloc::count();
            service.handle_line_into(line, &mut out, &mut scratch);
            if i >= ENTRY_WARM {
                spent[step] += counting_alloc::count() - before;
            }
            assert!(out.contains(expected), "step {step} of session {id}: {out}");
        }
        service.handle_line(&format!(r#"{{"op":"session.abort","session":{id}}}"#));
    }
    spent
}

/// Most allocations one journaled session may make, every thread
/// counted (measured 7.01; 21 while every string cell was an `Arc<str>`,
/// 37 while events were framed from owned copies
/// and every round built its own report, 106 while each journal event
/// and audit record was encoded into a `Vec` of its own, copied into a
/// frame, and each audit record also cloned into a resident window).
const JOURNALED_BOUND: u64 = 7;

/// Most allocations one replicated session may make, both nodes and
/// every thread counted (measured 10.08–10.18; 38 while every string
/// cell was an `Arc<str>`, 63 while the follower decoded each
/// batch into owned events, every string twice, and the primary copied
/// each held sync into fresh buffers; 85 while each replayed validation
/// built a monitor, a validations list and a report, 206 before the
/// frames were encoded in place, 313 when they were decoded, re-encoded
/// and read through a `Json` tree on the way).
const REPLICATED_BOUND: u64 = 10;

/// The UK clerk's session — create, two validates, commit — on a
/// journaled node, and with `replicated` on a primary with a follower
/// tailing it over loopback, quorum 2: allocations per session,
/// process-wide, so both nodes' share. Four frames cross the hop per
/// session; on the follower each costs the row the replay keeps of it —
/// its cells fit in place; reading the reply builds no tree, copies no
/// frame and builds no event.
fn journaled_session_allocations(replicated: bool) -> u64 {
    let dir = std::env::temp_dir().join(format!(
        "cerfix-alloc-guard-{replicated}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let node = |name: &str, config: ServiceConfig| {
        let mut rng = rand::SeedableRng::seed_from_u64(0);
        let master = MasterData::new(cerfix_gen::uk::generate_master(2, &mut rng));
        let config = ServiceConfig {
            precompute_regions: false,
            advertise: Some(name.to_string()),
            ..config
        };
        let storage = StorageConfig::new(dir.join(name));
        let rules = Arc::new(cerfix_gen::uk::rules());
        CleaningService::with_storage(Arc::new(master), rules, config, storage).unwrap()
    };
    let primary = node(
        "primary",
        ServiceConfig {
            cluster_size: if replicated { 2 } else { 1 },
            ..ServiceConfig::default()
        },
    );
    let replica = replicated.then(|| {
        let server = Server::spawn("127.0.0.1:0", primary.clone()).unwrap();
        let follower = node(
            "follower",
            ServiceConfig {
                replicate_from: Some(server.addr().to_string()),
                ..ServiceConfig::default()
            },
        );
        (server, follower)
    });
    let mut out = String::new();
    let mut scratch = RequestScratch::default();
    let mut before = 0;
    for i in 0..ENTRY_WARM + ENTRY_MEASURE {
        if i == ENTRY_WARM {
            before = counting_alloc::count();
        }
        let id = i + 1;
        let steps = [
            r#"{"op":"session.create","tuple":["M.","Smith","201","075568485","2","1 Nowhere","???","XXX","DVD"]}"#.to_string(),
            format!(r#"{{"op":"session.validate","session":{id},"validations":{{"AC":"020","phn":"075568485","type":"2","item":"DVD"}}}}"#),
            format!(r#"{{"op":"session.validate","session":{id},"validations":{{"zip":"NW1 6XE"}}}}"#),
            format!(r#"{{"op":"session.commit","session":{id}}}"#),
        ];
        for line in &steps {
            out.clear();
            primary.handle_line_into(line, &mut out, &mut scratch);
            assert!(out.starts_with("{\"ok\":true"), "session {id}: {out}");
        }
    }
    let spent = counting_alloc::count() - before;
    if let Some((server, follower)) = replica {
        // Every commit was acknowledged by the follower's durable cursor.
        assert_eq!(
            follower.metrics().journal_events,
            4 * (ENTRY_WARM + ENTRY_MEASURE)
        );
        server.shutdown().unwrap();
        drop(follower);
    }
    drop(primary);
    let _ = std::fs::remove_dir_all(&dir);
    spent / ENTRY_MEASURE
}

/// Allocations of `ROUNDS` warmed rounds of Fig. 3 on the UK rules,
/// straight on the monitor: validate AC, phn, type and item (rules
/// validate FN, LN and city, changing FN and city), then ask for the
/// next suggestion (zip). The
/// sessions, the validations, the scratch and a full audit window are
/// in place before the count starts, so what is counted is the round
/// itself — 0, on the calling thread's counter.
fn warmed_round_allocations() -> u64 {
    const ROUNDS: usize = 256;
    let mut rng = rand::SeedableRng::seed_from_u64(0);
    let master = MasterData::new(cerfix_gen::uk::generate_master(2, &mut rng));
    let rules = cerfix_gen::uk::rules();
    // Four key groups: φ1–φ3 join on `zip`, φ4–φ5 on `Mphn`, φ6–φ8 on
    // `(AC, Hphn)`, φ9 on `AC`; a round's probes go through the key memo.
    let plan = Arc::new(cerfix::CompiledRules::compile(&rules, &master));
    let audit = Arc::new(AuditLog::windowed(64));
    let monitor = DataMonitor::from_lent_parts(&rules, &master, &plan, &[], &audit);
    let schema = rules.input_schema();
    let cells = [
        "M.",
        "Smith",
        "201",
        "075568485",
        "2",
        "1 Nowhere",
        "???",
        "XXX",
        "DVD",
    ];
    let dirty = Tuple::of_strings(schema.clone(), cells).unwrap();
    let round: Vec<(usize, Value)> = [
        ("AC", "020"),
        ("phn", "075568485"),
        ("type", "2"),
        ("item", "DVD"),
    ]
    .iter()
    .map(|&(name, value)| (schema.attr_id(name).unwrap(), Value::str(value)))
    .collect();
    let zip: AttrSet = [schema.attr_id("zip").unwrap()].into_iter().collect();
    let mut sessions: Vec<_> = (0..ROUNDS + 16)
        .map(|i| monitor.start(i, dirty.clone()))
        .collect();
    let mut scratch = FixpointScratch::default();
    let (warm, measured) = sessions.split_at_mut(16);
    let mut play = |session: &mut cerfix::MonitorSession| {
        let report = monitor
            .apply_validation_into(session, &round, &mut scratch)
            .unwrap();
        assert_eq!(report.newly_validated.len(), 3, "FN, LN and city validated");
        assert_eq!(report.fixes.len(), 2, "FN and city changed");
        // φ4 and φ5 share the `Mphn` probe; φ9 makes its own.
        let stats = report.stats;
        assert_eq!((stats.master_lookups, stats.index_probes), (3, 2));
        assert_eq!(monitor.suggestion_attrs(session), Some(zip.clone()));
    };
    warm.iter_mut().for_each(&mut play);
    let before = counting_alloc::thread_count();
    measured.iter_mut().for_each(&mut play);
    counting_alloc::thread_count() - before
}

/// Allocations of `RUNS` runs of the correcting process, each on a fresh
/// `FixpointScratch`, over completed UK tuples — `wire_hot`'s shape: every
/// rule is attempted, none looks anything up. The key memo is sized at a
/// run's first probe, so a run without one allocates nothing — 0, on
/// the calling thread's counter.
fn lookup_free_fresh_scratch_allocations() -> u64 {
    const RUNS: usize = 256;
    let mut rng = rand::SeedableRng::seed_from_u64(0);
    let scenario = cerfix_gen::uk::scenario(2, &mut rng);
    let master = MasterData::new(scenario.master.clone());
    let plan = cerfix::CompiledRules::compile(&scenario.rules, &master);
    let arity = scenario.rules.input_schema().arity();
    let mut tuples: Vec<(Tuple, AttrSet)> = (0..RUNS)
        .map(|i| (scenario.universe[i % 4].clone(), (0..arity).collect()))
        .collect();
    let before = counting_alloc::thread_count();
    for (tuple, validated) in &mut tuples {
        let mut scratch = FixpointScratch::default();
        let report =
            cerfix::run_fixpoint_delta_into(&plan, &master, tuple, validated, &mut scratch)
                .unwrap();
        assert_eq!(
            (report.stats.rule_attempts, report.stats.master_lookups),
            (9, 0)
        );
    }
    counting_alloc::thread_count() - before
}

/// Most allocations building one master index may make, over 20 000
/// rows (measured 16–26 on UK's four, 43 on each of HOSP's two indexes
/// whose 5 000 keys hold four rows apiece: the table's doublings, the
/// key arena reserved once and shrunk to its keys, the row arena's
/// doublings and its packing; 20 015–20 124 and
/// 35 013 while every row's key was boxed and every shared key's rows
/// had a `Vec` of their own).
const INDEX_BUILD_BOUND: u64 = 64;

/// Most allocations cloning one of UK's indexes may make, as
/// `Arc::make_mut` does on a master append (measured 3–5: one per
/// vector; 20 002 while every key was a box of its own, 32 on `AC`,
/// whose few keys each had a `Vec` of rows).
const INDEX_CLONE_BOUND: u64 = 8;

/// The distinct master-side join layouts of `rules`: one index each.
fn index_layouts(rules: &RuleSet) -> Vec<Vec<usize>> {
    let mut layouts: Vec<Vec<usize>> = Vec::new();
    for (_, rule) in rules.iter() {
        let attrs = rule.master_lhs();
        if !layouts.contains(&attrs) {
            layouts.push(attrs);
        }
    }
    layouts
}

/// Per UK index over 20 000 entities — `zip`, `Mphn`, `(AC, Hphn)`,
/// `AC` — the allocations of building it and of cloning it, on the
/// calling thread's counter.
fn uk_index_allocations() -> Vec<(Vec<usize>, u64, u64)> {
    let mut rng = rand::SeedableRng::seed_from_u64(0);
    let master = cerfix_gen::uk::generate_master(20_000, &mut rng);
    index_layouts(&cerfix_gen::uk::rules())
        .into_iter()
        .map(|attrs| {
            let before = counting_alloc::thread_count();
            let index = HashIndex::build(&master, attrs.clone());
            let build = counting_alloc::thread_count() - before;
            let before = counting_alloc::thread_count();
            let copy = index.clone();
            let clone = counting_alloc::thread_count() - before;
            assert_eq!(copy.postings(), master.len(), "{attrs:?}: no null keys");
            (attrs, build, clone)
        })
        .collect()
}

/// HOSP over 20 000 rows: the allocations of building its two indexes
/// of 5 000 keys, four rows each (`provider` and `zip`), on the calling
/// thread's counter, and how many keys they hold between them.
fn hosp_shared_index_allocations() -> (u64, usize) {
    let mut rng = rand::SeedableRng::seed_from_u64(0);
    let master = cerfix_gen::hosp::generate_master(20_000, &mut rng);
    let mut spent = 0;
    let mut keys = 0;
    for attrs in index_layouts(&cerfix_gen::hosp::rules()) {
        let before = counting_alloc::thread_count();
        let index = HashIndex::build(&master, attrs.clone());
        let build = counting_alloc::thread_count() - before;
        if index.distinct_keys() == 5_000 {
            assert_eq!(index.postings(), 20_000, "{attrs:?}: four rows a key");
            spent += build;
            keys += index.distinct_keys();
        }
    }
    assert_eq!(keys, 10_000, "`provider` and `zip`");
    (spent, keys)
}

/// Most allocations one region search over a 20 000-row master may
/// make, on the searching thread, per scenario: UK (measured 201 — eight
/// candidates, no truth in any context's scope) and HOSP (measured 149 —
/// every truth profiled, by row: its three key groups' postings per row
/// are gathered once and their verdicts kept in one memo, the probe memo
/// is never sized, the profiles are one word per truth written in place,
/// and the list of in-scope truths is sized once; 151 while the
/// certifier mapped each in-scope truth to its class to report a failing
/// truth for a master append's re-check, 162 while each profile was a
/// 40-byte entry copied between two lists, and 160 while every profile
/// hashed its keys); each bound is its measurement + 5 %.
/// Neither grows with the master but for the
/// doubling of the truth-scope lists: the truths are the master rows,
/// read in place through the input → master attribute map, and the
/// profiles run on one reused key buffer and probe memo. Measured
/// 20 002 + 200 and 20 002 + 40 156 while every search first copied the
/// master into a `Vec<Tuple>` and each profile allocated its own key
/// buffer and memo.
const REGION_SEARCH_BOUND: [(&str, u64); 2] = [("uk", 211), ("hosp", 156)];

/// A region search at one thread — so all of it runs on the counted
/// thread — over 20 000 UK and 20 000 HOSP master rows, indexes built
/// beforehand: its allocations, and its truths and profiles.
fn region_search_allocations() -> Vec<(&'static str, u64, RegionSearchStats)> {
    let mut rng = rand::SeedableRng::seed_from_u64(0);
    let uk = (
        cerfix_gen::uk::rules(),
        cerfix_gen::uk::generate_master(20_000, &mut rng),
    );
    let hosp = (
        cerfix_gen::hosp::rules(),
        cerfix_gen::hosp::generate_master(20_000, &mut rng),
    );
    [("uk", uk), ("hosp", hosp)]
        .into_iter()
        .map(|(name, (rules, relation))| {
            let master = MasterData::new(relation);
            master.warm_indexes(rules.iter().map(|(_, r)| r));
            let options = RegionFinderOptions {
                threads: 1,
                ..Default::default()
            };
            let before = counting_alloc::thread_count();
            let truths = MasterTruths::new(rules.input_schema(), &master);
            let search = search_regions(&rules, &master, &truths, &options);
            let spent = counting_alloc::thread_count() - before;
            (name, spent, search.result.stats)
        })
        .collect()
}

/// Allocations of `APPENDS` warmed appends, to a journal and to an
/// audit spill: the frames are encoded in place into buffers that keep
/// their capacity from one flush to the next, so both are 0.
fn warmed_append_allocations() -> (u64, u64) {
    const APPENDS: u64 = 1000;
    let dir = std::env::temp_dir().join(format!("cerfix-alloc-append-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut config = StorageConfig::new(&dir);
    config.flush_interval = Duration::from_secs(3600);
    let (storage, _) = Storage::open(config).unwrap();
    let events: Vec<JournalEvent> = (0..APPENDS)
        .map(|session| JournalEvent::SessionValidated {
            session,
            validations: vec![(0, Value::str("131")), (3, Value::str("60006540"))],
        })
        .collect();
    let records: Vec<AuditRecord> = (0..APPENDS as usize)
        .map(|tuple_id| AuditRecord {
            tuple_id,
            attr: 2,
            round: 1,
            event: CellEvent::RuleFixed {
                rule: 0,
                master_row: 1,
                old: Value::str("020"),
                new: Value::str("131"),
            },
        })
        .collect();
    let spill = storage.spill();
    // Two flush cycles leave both of the journal's buffers (pending and
    // spare) a batch's capacity. The spill's buffer keeps its own; its
    // offset index (8 bytes a record, by design) grows by doubling, and
    // three batches leave it room for a fourth.
    for _ in 0..3 {
        let last = events.iter().fold(0, |_, e| storage.append(e));
        records.iter().for_each(|r| spill.append(r));
        storage.sync(last).unwrap();
    }
    let before = counting_alloc::count();
    let last = events.iter().fold(0, |_, e| storage.append(e));
    let journal = counting_alloc::count() - before;
    let before = counting_alloc::count();
    records.iter().for_each(|r| spill.append(r));
    let spilled = counting_alloc::count() - before;
    storage.sync(last).unwrap();
    drop(storage);
    let _ = std::fs::remove_dir_all(&dir);
    (journal, spilled)
}

#[test]
fn warmed_session_ops_allocate_zero_zero_one() {
    const WARM: u64 = 256;
    const MEASURE: u64 = 4096;
    // A handful of one-time lazy growths elsewhere in the process may
    // land inside a window; a steady-state regression costs ≥ MEASURE.
    const STRAY_SLACK: u64 = 16;

    // The engine underneath every request: a round on the caller's
    // buffers allocates nothing.
    assert_eq!(
        warmed_round_allocations(),
        0,
        "warmed apply_validation_into rounds"
    );
    assert_eq!(
        lookup_free_fresh_scratch_allocations(),
        0,
        "lookup-free runs on fresh scratches"
    );

    // The master indexes under every lookup: flat, so a build costs the
    // growth of a few vectors and one table, not a box per row.
    for (attrs, build, clone) in uk_index_allocations() {
        assert!(
            build <= INDEX_BUILD_BOUND,
            "building the UK index on {attrs:?}: {build} allocations \
             (must be at most {INDEX_BUILD_BOUND})"
        );
        assert!(
            clone <= INDEX_CLONE_BOUND,
            "cloning the UK index on {attrs:?}: {clone} allocations \
             (must be at most {INDEX_CLONE_BOUND})"
        );
    }
    let (hosp, keys) = hosp_shared_index_allocations();
    assert!(
        hosp <= 2 * INDEX_BUILD_BOUND,
        "building HOSP's two indexes of {keys} keys shared by four rows each: {hosp} \
         allocations (must be at most {INDEX_BUILD_BOUND} each)"
    );

    // The region search over those masters reads the rows in place.
    for ((name, spent, stats), (bound_name, bound)) in region_search_allocations()
        .into_iter()
        .zip(REGION_SEARCH_BOUND)
    {
        assert_eq!(name, bound_name);
        assert_eq!(stats.truths, 20_000, "{name}: one truth per master row");
        assert!(
            spent <= bound,
            "a region search over {name}'s 20 000 master rows: {spent} allocations \
             (must be at most {bound}; {} truth profiles)",
            stats.truth_profiles
        );
    }

    let service = kv_service(1);
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
        validate_total <= STRAY_SLACK,
        "session.validate: {validate_total} allocations over {MEASURE} warmed requests (must be 0 each)"
    );

    // The other half of `tests/parse_guard.rs`: that one bounds what
    // reading a 128-row `clean` line allocates, this what serving one
    // does, reply included — at one worker and at eight. Measured per
    // request: 139 at `workers: 1` (1.09 per tuple — its row; its three
    // cells fit in place, the monitor and its report run on the
    // connection thread's reused buffers, and the fan-out's results are
    // allocated once); 149–171 at `workers: 8` (1.16–1.34: a 128-tuple
    // batch takes three scoped helpers however many workers there are —
    // one per 32 tuples past the connection's own thread — each costing
    // about 5 allocations to spawn and 5 more to build its engine buffers
    // if it reaches a tuple before the connection's thread has taken them
    // all, which depends on scheduling: 155–160 on a quiet host, 162–165
    // with the test harness capturing output, 170–171 when every helper
    // finds work, 149 with the test pinned to one CPU). Each bound is its
    // highest measurement + 5 %.
    // 523 and 537–543 (4.09 and 4.22 per tuple) while every string cell
    // was an `Arc<str>`; 529 (4.13) while a long-lived pool cleaned
    // them; 1 297 (10.13 per tuple) while each tuple built its own
    // monitor, validations and report; 2 584 (20.19 per tuple) when each
    // outcome was first built as a `Json` tree.
    const ROWS: u64 = 128;
    const CLEAN_WARM: u64 = 4;
    const CLEAN_MEASURE: u64 = 16;
    let mut line = String::from(r#"{"op":"clean","trust":["key","note"],"tuples":["#);
    for i in 0..ROWS {
        let comma = if i > 0 { "," } else { "" };
        line.push_str(&format!(r#"{comma}["k{}","WRONG","n"]"#, i % 64));
    }
    line.push_str("]}");
    let mut clean_allocations = |service: &CleaningService| {
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
        let total = counting_alloc::count() - before;
        let totals = format!("\"count\":{ROWS},\"complete\":{ROWS},\"cells_fixed\":{ROWS},");
        assert!(out.contains(&totals), "every tuple is cleaned: {out}");
        total
    };
    let wide = kv_service(8);
    for (workers, total, bound) in [
        (1, clean_allocations(&service), 146),
        (8, clean_allocations(&wide), 179),
    ] {
        assert!(
            total <= CLEAN_MEASURE * bound,
            "clean at {workers} workers: {total} allocations over {CLEAN_MEASURE} warmed \
             requests of {ROWS} tuples (must be at most {bound} each)"
        );
    }

    // The entry path: what a clerk's session costs when every reply
    // carries a suggestion.
    let [create, awaiting, completing] = entry_path_allocations(&uk_service());
    assert!(
        create <= 2 * ENTRY_MEASURE + STRAY_SLACK,
        "session.create with a suggestion: {create} allocations over {ENTRY_MEASURE} requests \
         (must be at most 2 each)"
    );
    assert!(
        awaiting <= STRAY_SLACK,
        "session.validate ending awaiting_user: {awaiting} allocations over {ENTRY_MEASURE} \
         requests (must be 0 each)"
    );
    assert!(
        completing <= STRAY_SLACK,
        "completing session.validate: {completing} allocations over {ENTRY_MEASURE} requests \
         (must be 0 each)"
    );

    // The journaled session: the same clerk, every event and audit
    // record framed in place into the journal's and the spill's buffers.
    let (journal_appends, spill_appends) = warmed_append_allocations();
    assert_eq!(journal_appends, 0, "warmed Journal::append allocations");
    assert_eq!(spill_appends, 0, "warmed AuditSpill::append allocations");
    let per_session = journaled_session_allocations(false);
    assert!(
        per_session <= JOURNALED_BOUND,
        "a journaled session: {per_session} allocations (must be at most {JOURNALED_BOUND})"
    );
    // The replicated session: the same clerk on a primary whose commits
    // wait for a follower's fsynced ack.
    let per_session = journaled_session_allocations(true);
    assert!(
        per_session <= REPLICATED_BOUND,
        "a replicated session: {per_session} allocations on primary and follower together \
         (must be at most {REPLICATED_BOUND})"
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
