//! Workload inputs, made from the seed, and the oracle that says what
//! every reply must contain.
//!
//! The server sees only the lines rendered here. Everything — master
//! data, dirty tuples, the order of the pools — is a function of
//! `--seed`; pool sizes and block shapes are constants. The oracle is a
//! single-threaded [`DataMonitor`] over its own copy of the master data
//! and the same regions the server pre-computes, so a reply that
//! differs from it is a wrong reply, and an oracle result that differs
//! from the generator's ground truth is a fix that was not certain.

use cerfix::{
    search_regions, CompiledRules, DataMonitor, MasterData, Region, RegionFinderOptions,
    SessionStatus,
};
use cerfix_gen::{make_workload, NoiseSpec};
use cerfix_relation::{AttrId, Relation, RelationBuilder, Schema, SchemaRef, Tuple, Value};
use cerfix_rules::{EditingRule, PatternTuple, RuleSet};
use cerfix_server::wire::{Json, JsonWriter};
use cerfix_server::ServiceConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;
use std::sync::Arc;

/// The four workloads. Names are the `--workload` values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    WireHot,
    BatchClean,
    EntryDurable,
    EntryQuorum,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::WireHot,
        Workload::BatchClean,
        Workload::EntryDurable,
        Workload::EntryQuorum,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::WireHot => "wire_hot",
            Workload::BatchClean => "batch_clean",
            Workload::EntryDurable => "entry_durable",
            Workload::EntryQuorum => "entry_quorum",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Journal + audit spill on disk.
    pub fn journaled(self) -> bool {
        matches!(self, Workload::EntryDurable | Workload::EntryQuorum)
    }

    /// One in-process follower tailing over loopback.
    pub fn replicated(self) -> bool {
        self == Workload::EntryQuorum
    }
}

// Pool and block shapes. Constants, never calibrated at run time: a
// work block must take 3–40 ms so the fast quantile sees whole blocks
// between interruptions.

/// `wire_hot`: sessions in the pool, one per window of a block.
pub const HOT_SESSIONS: usize = 16;
/// `wire_hot`: windows per block (two passes over the sessions).
pub const HOT_TURNS: usize = 2 * HOT_SESSIONS;
/// `wire_hot`: pipelined requests per window.
pub const HOT_WINDOW: usize = 64;
/// `wire_hot`: master rows of the kv fixture (as `bench_wire`).
pub const HOT_MASTER_ROWS: usize = 512;
/// `batch_clean` / `entry_*`: master rows (≈ 12 MB against 2 MiB of L2).
pub const MASTER_ROWS: usize = 20_000;
/// `batch_clean`: dirty tuples in the pool.
pub const CLEAN_POOL: usize = 8_192;
/// `batch_clean`: tuples per `clean` request.
pub const CLEAN_BATCH: usize = 128;
/// `batch_clean`: requests per block.
pub const CLEAN_TURNS: usize = 2;
/// `entry_*`: sessions in the pool.
pub const ENTRY_POOL: usize = 2_048;
/// `entry_durable`: sessions per block.
pub const DURABLE_TURNS: usize = 32;
/// `entry_quorum`: sessions per block.
pub const QUORUM_TURNS: usize = 4;
/// Per-cell noise rate of every dirty pool.
pub const NOISE: f64 = 0.3;

/// Request id of `wire_hot` session `s`'s create (its completing
/// validate is the next one): above every window id.
pub fn hot_setup_id(s: usize) -> u64 {
    (HOT_SESSIONS * HOT_WINDOW + 2 * s) as u64
}

/// Position `i` of a `wire_hot` window: validate, fix, get, 1:1:1.
pub fn hot_op(i: usize) -> Op {
    match i % 3 {
        0 => Op::Validate,
        1 => Op::Fix,
        _ => Op::Get,
    }
}

/// Request `i` of a `wire_hot` window on `session` (no newline).
pub fn hot_request(i: usize, session: u64, key: &str, id: u64) -> String {
    match hot_op(i) {
        Op::Validate => format!(
            "{{\"op\":\"session.validate\",\"session\":{session},\"validations\":{{\"key\":\"{key}\"}},\"id\":{id}}}"
        ),
        Op::Fix => format!("{{\"op\":\"session.fix\",\"session\":{session},\"id\":{id}}}"),
        _ => format!("{{\"op\":\"session.get\",\"session\":{session},\"id\":{id}}}"),
    }
}

/// A byte range in an [`Arena`].
pub type Bytes = Range<usize>;

/// Append-only byte store for rendered request lines and needles.
#[derive(Debug, Default)]
pub struct Arena {
    bytes: Vec<u8>,
}

impl Arena {
    pub fn push(&mut self, text: &str) -> Bytes {
        let start = self.bytes.len();
        self.bytes.extend_from_slice(text.as_bytes());
        start..self.bytes.len()
    }

    pub fn get(&self, range: &Bytes) -> &[u8] {
        &self.bytes[range.clone()]
    }

    /// A rendered line as text, without its newline.
    pub fn text(&self, range: &Bytes) -> &str {
        std::str::from_utf8(self.get(range))
            .expect("the arena holds rendered text")
            .trim_end()
    }

    /// A session line: its head, the id the server handed out, the
    /// closing brace (no newline).
    pub fn session_line(&self, head: &Bytes, session: u64) -> String {
        format!("{}{session}}}", self.text(head))
    }
}

/// What one reply must look like.
#[derive(Debug, Clone)]
pub struct Reply {
    /// The request's `id`, echoed as the reply's first field.
    pub id: u64,
    /// Substring every reply is searched for, in line.
    pub needle: Bytes,
    /// Fields every 64th reply is parsed and compared on.
    pub deep: Vec<(&'static str, Json)>,
}

/// What the load is worth to the server's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Worth {
    pub requests: u64,
    pub tuples_cleaned: u64,
    pub cells_fixed: u64,
    pub sessions_committed: u64,
}

impl Worth {
    pub fn add(&mut self, other: Worth) {
        self.requests += other.requests;
        self.tuples_cleaned += other.tuples_cleaned;
        self.cells_fixed += other.cells_fixed;
        self.sessions_committed += other.sessions_committed;
    }
}

/// Master relation + rules: what a set-up is built from.
#[derive(Debug)]
pub struct Fixture {
    pub relation: Relation,
    pub rules: Arc<RuleSet>,
}

impl Fixture {
    /// Schema of the tuples clients enter.
    pub fn input(&self) -> &SchemaRef {
        self.rules.input_schema()
    }
}

/// One `wire_hot` session: created and completed during warm-up, then
/// read and re-validated by every window.
#[derive(Debug)]
pub struct HotSession {
    pub create: Bytes,
    pub complete: Bytes,
    pub key: String,
    /// `"tuple":[…]` of the completed session.
    pub needle: Bytes,
    /// Deep fields that do not change while the windows run.
    pub deep: Vec<(&'static str, Json)>,
}

/// One `clean` request of [`CLEAN_BATCH`] tuples.
#[derive(Debug)]
pub struct CleanTurn {
    pub request: Bytes,
    pub reply: Reply,
    pub worth: Worth,
}

/// One step of an entry session after `session.create`.
#[derive(Debug)]
pub struct Step {
    /// The request line up to and including `"session":`; the client
    /// appends the id the server handed out and `}\n`.
    pub head: Bytes,
    pub reply: Reply,
    pub op: Op,
}

/// One entry session: create → oracle-answered rounds → commit.
#[derive(Debug)]
pub struct Script {
    pub create: Bytes,
    pub create_reply: Reply,
    pub steps: Vec<Step>,
    pub worth: Worth,
}

/// Wire ops the traced run names child spans after.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Create,
    Validate,
    Fix,
    Get,
    Commit,
    Clean,
}

impl Op {
    pub fn span_name(self) -> &'static str {
        match self {
            Op::Create => "op.create",
            Op::Validate => "op.validate",
            Op::Fix => "op.fix",
            Op::Get => "op.get",
            Op::Commit => "op.commit",
            Op::Clean => "op.clean",
        }
    }
}

/// The pool of one workload.
#[derive(Debug)]
pub enum Pool {
    Hot(Vec<HotSession>),
    Clean(Vec<CleanTurn>),
    Entry(Vec<Script>),
}

/// Everything generated from the seed.
#[derive(Debug)]
pub struct Inputs {
    pub workload: Workload,
    pub fixture: Fixture,
    pub arena: Arena,
    pub pool: Pool,
    /// The oracle's own master data and plan (the probes reuse them).
    pub oracle_master: Arc<MasterData>,
    pub oracle_plan: Arc<CompiledRules>,
    pub regions: Vec<Region>,
    /// Dirty tuples and their ground truth, in pool order.
    pub dirty: Vec<Tuple>,
    pub truth: Vec<Tuple>,
    /// Operations the oracle itself got wrong (final tuple ≠ ground
    /// truth): each is a failed operation.
    pub oracle_failures: Vec<String>,
    /// Monitor figures of the pool, exact at a fixed seed.
    pub rounds_total: u64,
    pub user_attrs_total: u64,
    pub cells_fixed_total: u64,
}

/// The service configuration every workload runs: what `cerfix serve`
/// uses, with the replication fields a quorum needs.
pub fn service_config() -> ServiceConfig {
    ServiceConfig::default()
}

/// Master rows reinterpreted over the input schema by attribute name —
/// the truth universe the server certifies regions against.
pub fn universe_from_master(input: &SchemaRef, master: &MasterData) -> Vec<Tuple> {
    let mapping: Vec<Option<AttrId>> = input
        .attributes()
        .iter()
        .map(|a| master.schema().attr_id(a.name()))
        .collect();
    master
        .relation()
        .iter()
        .map(|(_, row)| {
            let values: Vec<Value> = mapping
                .iter()
                .map(|m| m.map_or(Value::Null, |id| row.get(id).clone()))
                .collect();
            Tuple::new(input.clone(), values).expect("string schema accepts all values")
        })
        .collect()
}

/// The regions a server with [`service_config`] pre-computes.
pub fn server_regions(rules: &RuleSet, master: &MasterData, config: &ServiceConfig) -> Vec<Region> {
    let universe = universe_from_master(rules.input_schema(), master);
    let options = RegionFinderOptions {
        top_k: config.region_top_k,
        threads: config.workers,
        ..Default::default()
    };
    search_regions(rules, master, &universe, &options).top(config.region_top_k)
}

fn render_values(out: &mut String, values: &[Value]) {
    let mut w = JsonWriter::new(out);
    w.begin_arr();
    for value in values {
        w.value(value);
    }
    w.end_arr();
}

fn tuple_needle(arena: &mut Arena, values: &[Value]) -> Bytes {
    let mut text = String::from("\"tuple\":");
    render_values(&mut text, values);
    arena.push(&text)
}

fn names_json(schema: &SchemaRef, attrs: impl IntoIterator<Item = AttrId>) -> Json {
    Json::Arr(
        attrs
            .into_iter()
            .map(|a| Json::str(schema.attr_name(a)))
            .collect(),
    )
}

fn values_json(values: &[Value]) -> Json {
    Json::Arr(values.iter().map(Json::from_value).collect())
}

/// Generate the inputs of `workload` from `seed`.
pub fn generate(workload: Workload, seed: u64) -> Inputs {
    // Decorrelate the workloads: the same seed must not give two
    // workloads the same random stream.
    let mut rng = StdRng::seed_from_u64(seed ^ (workload as u64 + 1).wrapping_mul(0x9E37_79B9));
    match workload {
        Workload::WireHot => generate_hot(&mut rng),
        Workload::BatchClean => generate_clean(&mut rng),
        Workload::EntryDurable | Workload::EntryQuorum => generate_entry(workload, &mut rng),
    }
}

fn oracle_parts(fixture: &Fixture) -> (Arc<MasterData>, Arc<CompiledRules>) {
    let master = MasterData::new(fixture.relation.clone());
    master.warm_indexes(fixture.rules.iter().map(|(_, r)| r));
    let plan = CompiledRules::compile(&fixture.rules, &master);
    (Arc::new(master), Arc::new(plan))
}

/// `bench_wire`'s fixture: `key → val` over [`HOT_MASTER_ROWS`] rows,
/// one rule.
fn kv_parts() -> Fixture {
    let input = Schema::of_strings("in", ["key", "val", "note"]).expect("static schema");
    let ms = Schema::of_strings("m", ["key", "val"]).expect("static schema");
    let mut builder = RelationBuilder::new(ms.clone());
    for i in 0..HOT_MASTER_ROWS {
        builder = builder.row_strs([format!("k{i}"), format!("v{i}")]);
    }
    let relation = builder.build().expect("rows conform");
    let mut rules = RuleSet::new(input.clone(), ms.clone());
    let kv = EditingRule::new(
        "kv",
        &input,
        &ms,
        vec![(0, 0)],
        vec![(1, 1)],
        PatternTuple::empty(),
    )
    .expect("static rule");
    rules.add(kv).expect("unique name");
    Fixture {
        relation,
        rules: Arc::new(rules),
    }
}

/// The kv fixture as a service takes it (the tracing probe's twins).
pub fn kv_fixture() -> (Arc<MasterData>, Arc<RuleSet>) {
    let fixture = kv_parts();
    (Arc::new(MasterData::new(fixture.relation)), fixture.rules)
}

fn generate_hot(rng: &mut StdRng) -> Inputs {
    let fixture = kv_parts();
    let input = fixture.input().clone();
    let (oracle_master, oracle_plan) = oracle_parts(&fixture);
    let monitor = DataMonitor::from_plan(&fixture.rules, &oracle_master, Arc::clone(&oracle_plan));

    let mut arena = Arena::default();
    let mut sessions = Vec::with_capacity(HOT_SESSIONS);
    let mut dirty = Vec::new();
    let mut truth = Vec::new();
    let mut oracle_failures = Vec::new();
    for s in 0..HOT_SESSIONS {
        let row = rng.gen_range(0..HOT_MASTER_ROWS);
        let key = format!("k{row}");
        let note = format!("n{}", rng.gen_range(0..1000u32));
        let entered = Tuple::of_strings(input.clone(), [key.as_str(), "WRONG", note.as_str()])
            .expect("conforms");
        let correct = Tuple::of_strings(
            input.clone(),
            [key.as_str(), format!("v{row}").as_str(), note.as_str()],
        )
        .expect("conforms");
        let mut session = monitor.start(s, entered.clone());
        monitor
            .apply_validation(
                &mut session,
                &[(0, Value::str(&key)), (2, Value::str(&note))],
            )
            .expect("oracle validates");
        if session.tuple != correct || !session.is_complete() {
            oracle_failures.push(format!("wire_hot session {s}: oracle tuple ≠ ground truth"));
        }
        let base = hot_setup_id(s);
        let mut create = format!("{{\"op\":\"session.create\",\"id\":{base},\"tuple\":");
        render_values(&mut create, entered.values());
        create.push_str("}\n");
        // `"session"` last: the id is appended once the server has
        // handed it out.
        let mut complete = format!(
            "{{\"op\":\"session.validate\",\"id\":{},\"validations\":{{\"key\":",
            base + 1
        );
        JsonWriter::new(&mut complete).str_val(&key);
        complete.push_str(",\"note\":");
        JsonWriter::new(&mut complete).str_val(&note);
        complete.push_str("},\"session\":");
        sessions.push(HotSession {
            create: arena.push(&create),
            complete: arena.push(&complete),
            key,
            needle: tuple_needle(&mut arena, session.tuple.values()),
            deep: vec![
                ("status", Json::str("complete")),
                ("tuple", values_json(session.tuple.values())),
                ("validated", names_json(&input, 0..3)),
            ],
        });
        dirty.push(entered);
        truth.push(correct);
    }
    Inputs {
        workload: Workload::WireHot,
        fixture,
        arena,
        pool: Pool::Hot(sessions),
        oracle_master,
        oracle_plan,
        regions: Vec::new(),
        dirty,
        truth,
        oracle_failures,
        rounds_total: HOT_SESSIONS as u64,
        user_attrs_total: 2 * HOT_SESSIONS as u64,
        cells_fixed_total: HOT_SESSIONS as u64,
    }
}

fn generate_clean(rng: &mut StdRng) -> Inputs {
    let scenario = cerfix_gen::hosp::scenario(MASTER_ROWS, rng);
    let input = scenario.input.clone();
    let provider = input.attr_id("provider").expect("hosp attr");
    let measure = input.attr_id("measure").expect("hosp attr");
    // The operator trusts the entity keys; noise lands everywhere else.
    let spec = NoiseSpec {
        immune_attrs: vec![provider, measure],
        ..NoiseSpec::with_rate(NOISE)
    };
    let load = make_workload(&scenario.universe, CLEAN_POOL, &spec, rng);
    let fixture = Fixture {
        relation: scenario.master,
        rules: Arc::new(scenario.rules),
    };
    let (oracle_master, oracle_plan) = oracle_parts(&fixture);
    let monitor = DataMonitor::from_plan(&fixture.rules, &oracle_master, Arc::clone(&oracle_plan));
    let trusted = [provider, measure];

    let mut arena = Arena::default();
    let mut turns = Vec::with_capacity(CLEAN_POOL / CLEAN_BATCH);
    let mut oracle_failures = Vec::new();
    let mut cells_fixed_total = 0;
    for (turn, chunk) in load.dirty.chunks(CLEAN_BATCH).enumerate() {
        let mut request = String::from("{\"op\":\"clean\",\"id\":");
        request.push_str(&turn.to_string());
        request.push_str(",\"trust\":[\"provider\",\"measure\"],\"tuples\":[");
        let mut outcomes = Vec::with_capacity(chunk.len());
        let mut cells_fixed = 0u64;
        for (i, entered) in chunk.iter().enumerate() {
            if i > 0 {
                request.push(',');
            }
            render_values(&mut request, entered.values());
            let at = turn * CLEAN_BATCH + i;
            let mut session = monitor.start(at, entered.clone());
            let validations: Vec<(AttrId, Value)> = trusted
                .iter()
                .map(|&a| (a, entered.get(a).clone()))
                .collect();
            let report = monitor
                .apply_validation(&mut session, &validations)
                .expect("oracle validates");
            if session.tuple != load.truth[at] || !session.is_complete() {
                oracle_failures.push(format!(
                    "batch_clean tuple {at}: oracle tuple ≠ ground truth"
                ));
            }
            cells_fixed += report.fixes.len() as u64;
            outcomes.push(Json::obj([
                ("index", Json::Num(i as f64)),
                ("complete", Json::Bool(session.is_complete())),
                ("cells_fixed", Json::Num(report.fixes.len() as f64)),
                ("validated", Json::Num(session.validated.len() as f64)),
                ("tuple", values_json(session.tuple.values())),
            ]));
        }
        request.push_str("]}\n");
        cells_fixed_total += cells_fixed;
        let n = chunk.len() as f64;
        turns.push(CleanTurn {
            request: arena.push(&request),
            reply: Reply {
                id: turn as u64,
                needle: arena.push(&format!("\"cells_fixed\":{cells_fixed},")),
                deep: vec![
                    ("count", Json::Num(n)),
                    ("complete", Json::Num(n)),
                    ("cells_fixed", Json::Num(cells_fixed as f64)),
                    ("outcomes", Json::Arr(outcomes)),
                ],
            },
            worth: Worth {
                requests: 1,
                tuples_cleaned: chunk.len() as u64,
                cells_fixed,
                sessions_committed: 0,
            },
        });
    }
    Inputs {
        workload: Workload::BatchClean,
        fixture,
        arena,
        pool: Pool::Clean(turns),
        oracle_master,
        oracle_plan,
        regions: Vec::new(),
        dirty: load.dirty,
        truth: load.truth,
        oracle_failures,
        rounds_total: CLEAN_POOL as u64,
        user_attrs_total: 2 * CLEAN_POOL as u64,
        cells_fixed_total,
    }
}

fn generate_entry(workload: Workload, rng: &mut StdRng) -> Inputs {
    let scenario = cerfix_gen::uk::scenario(MASTER_ROWS, rng);
    let input = scenario.input.clone();
    let load = make_workload(
        &scenario.universe,
        ENTRY_POOL,
        &NoiseSpec::with_rate(NOISE),
        rng,
    );
    let fixture = Fixture {
        relation: scenario.master,
        rules: Arc::new(scenario.rules),
    };
    let (oracle_master, oracle_plan) = oracle_parts(&fixture);
    let regions = server_regions(&fixture.rules, &oracle_master, &service_config());
    let monitor = DataMonitor::from_plan(&fixture.rules, &oracle_master, Arc::clone(&oracle_plan))
        .with_regions(regions.clone());

    let mut arena = Arena::default();
    let mut scripts = Vec::with_capacity(ENTRY_POOL);
    let mut oracle_failures = Vec::new();
    let (mut rounds_total, mut user_attrs_total, mut cells_fixed_total) = (0, 0, 0);
    for (at, (entered, correct)) in load.dirty.iter().zip(&load.truth).enumerate() {
        // Static ids: unique inside one pass over the pool, so a reply
        // that arrives out of order or twice is caught.
        let id_of = |step: usize| (at * 16 + step) as u64;
        let mut session = monitor.start(at, entered.clone());
        let mut create = format!("{{\"op\":\"session.create\",\"id\":{},\"tuple\":", id_of(0));
        render_values(&mut create, entered.values());
        create.push_str("}\n");
        let mut status = monitor.status(&session);
        let view = |session: &cerfix::MonitorSession, status: &SessionStatus| {
            let mut deep = vec![
                ("tuple", values_json(session.tuple.values())),
                ("rounds", Json::Num(session.rounds as f64)),
                ("validated", names_json(&input, session.validated.iter())),
            ];
            match status {
                SessionStatus::Complete => deep.push(("status", Json::str("complete"))),
                SessionStatus::AwaitingUser { suggestion } => {
                    deep.push(("status", Json::str("awaiting_user")));
                    deep.push(("suggestion", names_json(&input, suggestion.iter().copied())));
                }
                SessionStatus::Stuck { unvalidated } => {
                    deep.push(("status", Json::str("stuck")));
                    deep.push((
                        "unvalidated",
                        names_json(&input, unvalidated.iter().copied()),
                    ));
                }
            }
            deep
        };
        let create_reply = Reply {
            id: id_of(0),
            needle: match &status {
                SessionStatus::AwaitingUser { suggestion } => {
                    let mut text = String::from("\"suggestion\":");
                    names_json(&input, suggestion.iter().copied()).render_to(&mut text);
                    arena.push(&text)
                }
                _ => tuple_needle(&mut arena, session.tuple.values()),
            },
            deep: view(&session, &status),
        };
        let mut steps = Vec::new();
        let mut worth = Worth {
            requests: 1,
            ..Worth::default()
        };
        loop {
            // The clerk answers the monitor's suggestion with the true
            // values; where the monitor has none left, they type in
            // what is still unvalidated.
            let asked = match &status {
                SessionStatus::Complete => break,
                SessionStatus::AwaitingUser { suggestion } => suggestion.clone(),
                SessionStatus::Stuck { unvalidated } => unvalidated.clone(),
            };
            let answers: Vec<(AttrId, Value)> =
                asked.iter().map(|&a| (a, correct.get(a).clone())).collect();
            let report = monitor
                .apply_validation(&mut session, &answers)
                .expect("oracle validates");
            status = monitor.status(&session);
            let step = steps.len() + 1;
            let mut head = format!(
                "{{\"op\":\"session.validate\",\"id\":{},\"validations\":{{",
                id_of(step)
            );
            for (i, (attr, value)) in answers.iter().enumerate() {
                if i > 0 {
                    head.push(',');
                }
                JsonWriter::new(&mut head).str_val(input.attr_name(*attr));
                head.push(':');
                JsonWriter::new(&mut head).value(value);
            }
            head.push_str("},\"session\":");
            let mut deep = view(&session, &status);
            deep.push((
                "fixes",
                Json::Arr(
                    report
                        .fixes
                        .iter()
                        .map(|fix| {
                            Json::obj([
                                ("attr", Json::str(input.attr_name(fix.attr))),
                                ("old", Json::from_value(&fix.old)),
                                ("new", Json::from_value(&fix.new)),
                                ("rule", Json::Num(fix.rule as f64)),
                                ("master_row", Json::Num(fix.master_row as f64)),
                            ])
                        })
                        .collect(),
                ),
            ));
            deep.push((
                "newly_validated",
                names_json(&input, report.newly_validated.iter().copied()),
            ));
            steps.push(Step {
                head: arena.push(&head),
                reply: Reply {
                    id: id_of(step),
                    needle: tuple_needle(&mut arena, session.tuple.values()),
                    deep,
                },
                op: Op::Validate,
            });
            worth.requests += 1;
            worth.cells_fixed += report.fixes.len() as u64;
            user_attrs_total += asked.len() as u64;
        }
        if session.tuple != *correct {
            oracle_failures.push(format!(
                "{} session {at}: oracle tuple ≠ ground truth",
                workload.name()
            ));
        }
        let step = steps.len() + 1;
        steps.push(Step {
            head: arena.push(&format!(
                "{{\"op\":\"session.commit\",\"id\":{},\"session\":",
                id_of(step)
            )),
            reply: Reply {
                id: id_of(step),
                needle: tuple_needle(&mut arena, session.tuple.values()),
                deep: vec![
                    ("complete", Json::Bool(true)),
                    ("tuple", values_json(session.tuple.values())),
                    ("rounds", Json::Num(session.rounds as f64)),
                    (
                        "user_validated",
                        Json::Num(session.user_validated.len() as f64),
                    ),
                    (
                        "auto_validated",
                        Json::Num(session.auto_validated.len() as f64),
                    ),
                ],
            },
            op: Op::Commit,
        });
        worth.requests += 1;
        worth.sessions_committed = 1;
        rounds_total += session.rounds as u64;
        cells_fixed_total += worth.cells_fixed;
        scripts.push(Script {
            create: arena.push(&create),
            create_reply,
            steps,
            worth,
        });
    }
    Inputs {
        workload,
        fixture,
        arena,
        pool: Pool::Entry(scripts),
        oracle_master,
        oracle_plan,
        regions,
        dirty: load.dirty,
        truth: load.truth,
        oracle_failures,
        rounds_total,
        user_attrs_total,
        cells_fixed_total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request_bytes(inputs: &Inputs) -> Vec<u8> {
        let mut all = Vec::new();
        match &inputs.pool {
            Pool::Hot(sessions) => {
                for s in sessions {
                    all.extend_from_slice(inputs.arena.get(&s.create));
                    all.extend_from_slice(inputs.arena.get(&s.complete));
                }
            }
            Pool::Clean(turns) => {
                for t in turns.iter().take(2) {
                    all.extend_from_slice(inputs.arena.get(&t.request));
                }
            }
            Pool::Entry(scripts) => {
                for s in scripts.iter().take(64) {
                    all.extend_from_slice(inputs.arena.get(&s.create));
                    for step in &s.steps {
                        all.extend_from_slice(inputs.arena.get(&step.head));
                    }
                }
            }
        }
        all
    }

    #[test]
    fn same_seed_same_request_bytes_and_other_seed_other_bytes() {
        for workload in [Workload::WireHot, Workload::EntryDurable] {
            let a = generate(workload, 7);
            let b = generate(workload, 7);
            let c = generate(workload, 8);
            assert_eq!(request_bytes(&a), request_bytes(&b), "{}", workload.name());
            assert_ne!(request_bytes(&a), request_bytes(&c), "{}", workload.name());
            assert!(a.oracle_failures.is_empty());
        }
    }

    #[test]
    fn oracle_reaches_ground_truth_on_every_pool_entry() {
        let inputs = generate(Workload::BatchClean, 3);
        assert!(
            inputs.oracle_failures.is_empty(),
            "{:?}",
            inputs.oracle_failures.first()
        );
        let Pool::Clean(turns) = &inputs.pool else {
            panic!("clean pool")
        };
        assert_eq!(turns.len(), CLEAN_POOL / CLEAN_BATCH);
        assert!(inputs.cells_fixed_total > 0);
    }
}
