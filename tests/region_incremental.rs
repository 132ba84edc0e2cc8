//! Incremental/parallel region certification must be a drop-in
//! replacement for the from-scratch sequential search.
//!
//! Two layers of evidence:
//!
//! * **Property tests** — on fully randomized instances (random master,
//!   rules, patterns, universes that mix master-derived truths with
//!   adversarial foreign/corrupted ones — the latter exercise the
//!   poisoned-truth fixpoint fallback), [`search_regions`] at 1 and at
//!   N threads produces exactly the regions of the
//!   [`find_regions_from_scratch`] oracle.
//! * **Deterministic work guards** — on the UK fixture, on a 100- and a
//!   500-rule mesh and on HOSP (the one scenario whose non-key joins
//!   match many *agreeing* master rows) the incremental path runs
//!   strictly fewer certification fixpoints than the oracle (none).
//!   Counts, not wall-clock: cannot flake.
//!
//! A master append searches the grown master again; the last two tests
//! hold that an append's ambiguity reaches the regions that way.

use cerfix::{
    find_regions_from_scratch, search_regions, MasterData, RegionFinderOptions, RegionSearchResult,
};
use cerfix_gen::{hosp, uk};
use cerfix_relation::{AttrSet, RelationBuilder, Schema, Tuple, Value};
use cerfix_rules::{EditingRule, PatternTuple, RuleSet};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const ARITY: usize = 6;

/// A random region-search instance. Universes mix (a) master-derived
/// truths (the MDM assumption — mostly unpoisoned, exercising the
/// lattice), (b) corrupted copies (often poisoned — exercising the
/// fixpoint fallback), and (c) foreign tuples (rules stall).
fn random_instance(seed: u64, n_master: usize) -> (RuleSet, Vec<Tuple>, Vec<Tuple>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let names: Vec<String> = (0..ARITY).map(|i| format!("a{i}")).collect();
    let input = Schema::of_strings("in", names.iter().map(String::as_str)).unwrap();
    let ms = Schema::of_strings("m", names.iter().map(String::as_str)).unwrap();

    let val = |rng: &mut StdRng| format!("v{}", rng.gen_range(0..4u8));
    let mut master_rows: Vec<Vec<String>> = Vec::new();
    for _ in 0..n_master {
        master_rows.push((0..ARITY).map(|_| val(&mut rng)).collect());
    }

    let n_rules = rng.gen_range(2..9usize);
    let mut rules = RuleSet::new(input.clone(), ms.clone());
    for r in 0..n_rules {
        let mut attrs: Vec<usize> = (0..ARITY).collect();
        for i in (1..attrs.len()).rev() {
            attrs.swap(i, rng.gen_range(0..=i));
        }
        let lhs_n = rng.gen_range(1..3usize);
        let rhs_n = rng.gen_range(1..3usize);
        let lhs: Vec<(usize, usize)> = attrs[..lhs_n].iter().map(|&a| (a, a)).collect();
        let rhs: Vec<(usize, usize)> = attrs[lhs_n..lhs_n + rhs_n]
            .iter()
            .map(|&a| (a, a))
            .collect();
        let pattern = if rng.gen_bool(0.4) {
            let gate = attrs[lhs_n + rhs_n];
            if rng.gen_bool(0.5) {
                PatternTuple::empty().with_eq(gate, Value::str(val(&mut rng)))
            } else {
                PatternTuple::empty().with_ne(gate, Value::str(val(&mut rng)))
            }
        } else {
            PatternTuple::empty()
        };
        rules
            .add(EditingRule::new(format!("r{r}"), &input, &ms, lhs, rhs, pattern).unwrap())
            .unwrap();
    }

    let mut universe: Vec<Tuple> = Vec::new();
    for row in &master_rows {
        // Master-derived truth.
        universe.push(Tuple::of_strings(input.clone(), row.iter().map(String::as_str)).unwrap());
        // Corrupted copy: one cell flipped — frequently poisoned.
        if rng.gen_bool(0.5) {
            let mut corrupt = row.clone();
            corrupt[rng.gen_range(0..ARITY)] = val(&mut rng);
            universe.push(
                Tuple::of_strings(input.clone(), corrupt.iter().map(String::as_str)).unwrap(),
            );
        }
    }
    // Foreign entities.
    for _ in 0..rng.gen_range(0..3usize) {
        universe.push(
            Tuple::of_strings(
                input.clone(),
                (0..ARITY)
                    .map(|_| format!("x{}", rng.gen_range(0..9u8)))
                    .collect::<Vec<_>>(),
            )
            .unwrap(),
        );
    }

    let master_tuples: Vec<Tuple> = master_rows
        .iter()
        .map(|row| Tuple::of_strings(ms.clone(), row.iter().map(String::as_str)).unwrap())
        .collect();
    (rules, master_tuples, universe)
}

fn master_of(rules: &RuleSet, tuples: &[Tuple]) -> MasterData {
    let relation = RelationBuilder::new(rules.master_schema().clone())
        .build()
        .unwrap();
    let mut md = MasterData::new(relation);
    if !tuples.is_empty() {
        md.append_rows(tuples.to_vec()).unwrap();
    }
    md
}

fn assert_same_regions(a: &RegionSearchResult, b: &RegionSearchResult, what: &str) {
    assert_eq!(a.regions, b.regions, "{what}: regions differ");
    assert_eq!(a.stats.candidates, b.stats.candidates, "{what}: candidates");
    assert_eq!(
        a.stats.rejected_by_certification, b.stats.rejected_by_certification,
        "{what}: rejects"
    );
    assert_eq!(a.stats.vacuous, b.stats.vacuous, "{what}: vacuous");
}

fn options(threads: usize) -> RegionFinderOptions {
    RegionFinderOptions {
        top_k: 16,
        threads,
        ..Default::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Incremental (1 thread and 4 threads) equals the from-scratch
    /// sequential oracle on randomized instances — same certified set,
    /// same ranked regions, including poisoned/adversarial universes and
    /// rule sets that disagree with master data.
    #[test]
    fn incremental_equals_from_scratch_oracle(seed in 0u64..100_000) {
        let (rules, master_tuples, universe) = random_instance(seed, 6);
        let master = master_of(&rules, &master_tuples);
        let oracle = find_regions_from_scratch(&rules, &master, &universe, &options(1));
        let seq = search_regions(&rules, &master, &universe, &options(1));
        let par = search_regions(&rules, &master, &universe, &options(4));
        assert_same_regions(&oracle, &seq.result, "sequential");
        assert_same_regions(&oracle, &par.result, "parallel");
    }

}

fn uk_fixture() -> (RuleSet, MasterData, Vec<Tuple>) {
    let mut rng = StdRng::seed_from_u64(20_26);
    let scenario = uk::scenario(80, &mut rng);
    let master = MasterData::new(scenario.master.clone());
    (scenario.rules, master, scenario.universe)
}

const MESH_ENTITIES: usize = 300;

/// Row `e` of the mesh fixture: the gate value picks one of 4 contexts,
/// every other cell is unique to the entity.
fn mesh_row(names: &[String], e: usize) -> Vec<String> {
    let cell = |(i, name): (usize, &String)| match i {
        0 => format!("v{}", e % 4),
        _ => format!("{name}~{e}"),
    };
    names.iter().enumerate().map(cell).collect()
}

/// A deterministic "mesh" built to stress the region search at the
/// mined-rules scale (`n_rules` = 100 or 500): one gate attribute (3
/// gated values + else = 4 contexts), two islands of 3 cyclically-fixable
/// key attributes each, and payload attributes split between the
/// islands — so every context enumerates 9 minimal covers (one key per
/// island) and the data phase certifies 4 × 9 = 36 candidates against a
/// universe of one truth per master row. Master keys are per-entity
/// unique: every candidate certifies, nothing is poisoned.
fn mesh_fixture(n_rules: usize) -> (RuleSet, MasterData, Vec<Tuple>) {
    const KEYS: usize = 3; // per island
    const PAYLOADS: usize = 6; // per island
    let mut names: Vec<String> = vec!["g".into()];
    for island in ["a", "b"] {
        names.extend((0..KEYS).map(|k| format!("{island}k{k}")));
        names.extend((0..PAYLOADS).map(|p| format!("{island}p{p}")));
    }
    let input = Schema::of_strings("mesh_in", names.iter().map(String::as_str)).unwrap();
    let ms = Schema::of_strings("mesh_m", names.iter().map(String::as_str)).unwrap();
    let id = |n: &str| input.attr_id(n).unwrap();

    let mut rules = RuleSet::new(input.clone(), ms.clone());
    let mut add = |name: String, lhs: String, rhs: String, pattern: PatternTuple| {
        let (lhs, rhs) = (id(&lhs), id(&rhs));
        let rule = EditingRule::new(
            name,
            &input,
            &ms,
            vec![(lhs, lhs)],
            vec![(rhs, rhs)],
            pattern,
        );
        rules.add(rule.unwrap()).unwrap();
    };
    // Island key cycles: any one key recovers its island's other keys.
    for island in ["a", "b"] {
        for k in 0..KEYS {
            add(
                format!("cyc_{island}{k}"),
                format!("{island}k{k}"),
                format!("{island}k{}", (k + 1) % KEYS),
                PatternTuple::empty(),
            );
        }
    }
    // Payload rules up to `n_rules`: key → payload, three of four gated.
    for r in 0..n_rules - 2 * KEYS {
        let island = ["a", "b"][r % 2];
        let pattern = match r % 4 {
            3 => PatternTuple::empty(),
            v => PatternTuple::empty().with_eq(id("g"), Value::str(format!("v{v}"))),
        };
        add(
            format!("pay{r}"),
            format!("{island}k{}", (r / 2) % KEYS),
            format!("{island}p{}", (r / 4) % PAYLOADS),
            pattern,
        );
    }

    let mut builder = RelationBuilder::new(ms);
    let mut universe = Vec::with_capacity(MESH_ENTITIES);
    for e in 0..MESH_ENTITIES {
        let row = mesh_row(&names, e);
        builder = builder.row_strs(row.iter().map(String::as_str));
        universe.push(Tuple::of_strings(input.clone(), row).unwrap());
    }
    (rules, MasterData::new(builder.build().unwrap()), universe)
}

/// HOSP, small enough that the from-scratch oracle stays cheap: 100
/// hospitals × 4 rows, 9 measures × 44 or 45 rows. None of its joins is
/// a key of the master — `provider` and `zip` match 4 rows each,
/// `measure` a ninth of the relation — and every match agrees, so each
/// certain lookup is a many-row key that must still come out unique.
fn hosp_fixture() -> (RuleSet, MasterData, Vec<Tuple>) {
    let mut rng = StdRng::seed_from_u64(2011);
    let scenario = hosp::scenario(400, &mut rng);
    let master = MasterData::new(scenario.master.clone());
    (scenario.rules, master, scenario.universe)
}

/// The work-guard fixtures and the search's exact shape (`contexts`,
/// `candidates`).
struct Fixture {
    name: &'static str,
    rules: RuleSet,
    master: MasterData,
    universe: Vec<Tuple>,
    contexts: usize,
    candidates: usize,
}

fn fixtures() -> Vec<Fixture> {
    let fixture = |name, (rules, master, universe), contexts, candidates| Fixture {
        name,
        rules,
        master,
        universe,
        contexts,
        candidates,
    };
    vec![
        fixture("uk", uk_fixture(), 6, 8),
        fixture("mesh100", mesh_fixture(100), 4, 36),
        fixture("mesh500", mesh_fixture(500), 4, 36),
        fixture("hosp", hosp_fixture(), 1, 1),
    ]
}

/// The work guard of the tentpole: the memoized lattice path certifies
/// with strictly fewer fixpoint runs than the from-scratch oracle (which
/// runs `universe × candidates` of them) — none at all, on the UK
/// fixture and on the mesh at 100 and 500 rules — and searches the same
/// space (`contexts`, `candidates` exact per fixture).
#[test]
fn incremental_runs_strictly_fewer_fixpoints() {
    for fixture in fixtures() {
        let (name, rules, master) = (fixture.name, &fixture.rules, &fixture.master);
        let universe = &fixture.universe;
        let oracle = find_regions_from_scratch(rules, master, universe, &options(1));
        let incremental = search_regions(rules, master, universe, &options(1));
        assert_same_regions(&oracle, &incremental.result, name);

        let oracle_fixpoints = oracle.stats.engine.fixpoint_runs;
        let incremental_fixpoints = incremental.result.stats.engine.fixpoint_runs;
        assert!(
            oracle_fixpoints >= universe.len(),
            "{name}: oracle must simulate universe × candidates processes, got {oracle_fixpoints}"
        );
        assert!(
            incremental_fixpoints < oracle_fixpoints,
            "{name}: incremental {incremental_fixpoints} vs oracle {oracle_fixpoints} fixpoints"
        );
        assert_eq!(
            incremental_fixpoints, 0,
            "{name}: the universe is master-derived: no truth is poisoned, every \
             probe is a closure"
        );
        let stats = &incremental.result.stats;
        assert_eq!(stats.contexts, fixture.contexts, "{name}: contexts");
        assert_eq!(stats.candidates, fixture.candidates, "{name}: candidates");
        assert!(stats.closure_probes > 0);
        assert!(stats.lattice_hits > 0, "sibling covers must share prefixes");
        assert_eq!(stats.truth_profiles, universe.len());
        // Profiles cost one lookup per rule per truth; the oracle pays per
        // candidate per truth per firing.
        assert!(
            stats.engine.master_lookups <= oracle.stats.engine.master_lookups,
            "{name}: incremental may not look up more than the oracle"
        );
    }
}

/// Parallelism is work-stealing but the merge is order-stable: results
/// are identical at every thread count.
#[test]
fn parallel_is_deterministic() {
    for f in fixtures() {
        let reference = search_regions(&f.rules, &f.master, &f.universe, &options(1));
        for threads in [2, 3, 8] {
            let parallel = search_regions(&f.rules, &f.master, &f.universe, &options(threads));
            assert_same_regions(&reference.result, &parallel.result, f.name);
        }
    }
}

/// HOSP certifies exactly the region its rules are written around:
/// `{provider, measure}`, unconditionally — each truth's 8 certain
/// lookups land on a key shared by 4 or some 45 agreeing master rows, and
/// every one of them has to come out unique for the region to stand.
/// The oracle runs the real correcting process per truth from that seed:
/// every rule attempted once, one lookup per attempt, and one index probe
/// per join key (`provider`, `zip`, `measure`).
#[test]
fn hosp_certifies_provider_and_measure() {
    let (rules, master, universe) = hosp_fixture();
    let input = rules.input_schema();
    let expected: AttrSet = ["provider", "measure"]
        .iter()
        .map(|n| input.attr_id(n).expect("hosp attr"))
        .collect();
    let oracle = find_regions_from_scratch(&rules, &master, &universe, &options(1));
    let incremental = search_regions(&rules, &master, &universe, &options(1));
    for result in [&oracle, &incremental.result] {
        assert_eq!(result.regions.len(), 1);
        let region = &result.regions[0];
        assert_eq!(
            region.attrs().iter().copied().collect::<AttrSet>(),
            expected
        );
        assert_eq!(region.tableau(), &[PatternTuple::empty()]);
    }
    let engine = oracle.stats.engine;
    assert_eq!(engine.fixpoint_runs, universe.len());
    assert_eq!(engine.rule_attempts, 8 * universe.len());
    assert_eq!(engine.master_lookups, 8 * universe.len());
    assert_eq!(engine.index_probes, 3 * universe.len());
}

/// Appends that poison existing keys (a second, disagreeing row) must
/// reject the affected regions when the grown master is searched, as
/// the from-scratch oracle does.
#[test]
fn uk_master_append_ambiguity_propagates() {
    let (rules, mut master, universe) = uk_fixture();
    let prior = search_regions(&rules, &master, &universe, &options(1));
    assert!(!prior.result.regions.is_empty());

    // Duplicate the first master entity's zip with a different street:
    // {zip,...} regions covering that entity must now fail.
    let first = master.tuple(0).unwrap().clone();
    let ms = rules.master_schema().clone();
    let zip = ms.attr_id("zip").unwrap();
    let street = ms.attr_id("str").unwrap();
    let mut ambiguous = first.clone();
    ambiguous
        .set(street, Value::str("666 Conflict Ave"))
        .unwrap();
    ambiguous
        .set(ms.attr_id("Hphn").unwrap(), Value::str("1112223"))
        .unwrap();
    assert_eq!(ambiguous.get(zip), first.get(zip), "same zip, new street");
    master.append_rows(vec![ambiguous]).unwrap();

    // Universe unchanged: the appended row is a duplicate (dirty) entity,
    // not a new truth.
    let grown = search_regions(&rules, &master, &universe, &options(1));
    let oracle = find_regions_from_scratch(&rules, &master, &universe, &options(1));
    assert_same_regions(&oracle, &grown.result, "ambiguous append");
    assert_ne!(
        grown.result.regions, prior.result.regions,
        "the introduced ambiguity must change the certified regions"
    );
}

/// The Explorer façade: a master append searches its cached regions
/// again over the grown master.
#[test]
fn explorer_append_master_patches_regions() {
    let (rules, master, mut universe) = uk_fixture();
    let mut explorer = cerfix::Explorer::new(rules, master);
    let before = explorer.recompute_regions(&universe, &options(1));
    assert!(!before.regions.is_empty());

    let ms = explorer.master().schema().clone();
    let row = Tuple::of_strings(
        ms,
        [
            "Ada",
            "Byron",
            "01223",
            "3332221",
            "078123456",
            "1 Abbey Rd",
            "Cam",
            "CB2 1TN",
            "10/12/15",
            "F",
        ],
    )
    .unwrap();
    let input = explorer.rules().input_schema().clone();
    universe.push(
        Tuple::of_strings(
            input,
            [
                "Ada",
                "Byron",
                "01223",
                "3332221",
                "1",
                "1 Abbey Rd",
                "Cam",
                "CB2 1TN",
                "CD",
            ],
        )
        .unwrap(),
    );
    let delta = explorer
        .append_master(vec![row], &universe, &options(1))
        .unwrap();
    assert_eq!(delta.appended, 1);
    let full = search_regions(explorer.rules(), explorer.master(), &universe, &options(1));
    assert_eq!(explorer.regions(), &full.result.regions[..]);
}
