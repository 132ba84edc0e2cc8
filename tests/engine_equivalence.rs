//! Engine equivalence: the delta-driven fixpoint must be a drop-in
//! replacement for the pass-based reference engine.
//!
//! Three layers of evidence:
//!
//! * **Index ≡ row walk** — the master index answers "do all rows of this
//!   key agree on `Bm`?" from a per-key agreement set it maintains on
//!   insert; the unindexed arm answers it by walking the rows. On random
//!   masters (duplicate keys, nulls in keys and fix cells, > 64
//!   attributes), for every key and every `Bm`, the two verdicts are
//!   equal — before and after random appends, with outstanding index
//!   snapshots left untouched.
//! * **Mask inference ≡ `BTreeSet` inference** — the monitor's new
//!   suggestion and the region finder's cover search run on the compiled
//!   plan's `AttrSet` masks under a mask of enabled rule positions; the
//!   implementation they replaced (`tests/common/inference_oracle.rs`,
//!   `BTreeSet`s and a `dyn` rule filter over the `RuleSet`) answers
//!   every question the same way — same attributes, same order, same
//!   first hit — on random rule sets and sessions, including patterns
//!   falsified by validated cells, stalled rules, more than 16 candidate
//!   attributes (the greedy arm) and 70-attribute schemas (`AttrSet`'s
//!   heap representation, for attributes and for rule positions).
//! * **Property tests** — on the UK scenario and on fully randomized
//!   (master, rules, tuple, seed) instances, both engines produce
//!   identical final tuples, validated sets, and fix lists (same fixes,
//!   same order), and error identically on inconsistent instances —
//!   Church–Rosser equivalence preserved. And one `FixpointScratch`
//!   reused across a stream of random tuples, plans and failures reports
//!   what a fresh run on each tuple reports: no run leaks into the next.
//! * **Deterministic work guards** — on the UK rules, on a mined-rules
//!   fixture (`discover_rules` over master data) and on an RNG-free
//!   chain with exact checked-in attempt counts, the delta engine
//!   performs strictly fewer rule attempts than the pass-based engine
//!   and no more master lookups. Counts, not wall-clock: this cannot
//!   flake on machine speed.

use cerfix::engine::RuleMasks;
use cerfix::{
    run_fixpoint, run_fixpoint_delta, run_fixpoint_delta_into, CertainLookup, CompiledRules,
    DataMonitor, EngineStats, FixpointScratch, MasterData, MonitorSession,
};
use cerfix_gen::{hosp, uk};
use cerfix_relation::{
    AttrId, AttrSet, HashIndex, Relation, RelationBuilder, RowId, Schema, SchemaRef, Tuple, Value,
};
use cerfix_rules::{discover_rules, EditingRule, PatternTuple, RuleSet};
use proptest::prelude::*;
use proptest::TestCaseError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

#[path = "common/inference_oracle.rs"]
mod inference_oracle;

fn uk_fixture() -> (RuleSet, MasterData, Vec<Tuple>) {
    let mut rng = StdRng::seed_from_u64(4242);
    let scenario = uk::scenario(50, &mut rng);
    let master = MasterData::new(scenario.master.clone());
    (scenario.rules, master, scenario.universe)
}

/// Run both engines on the same input and assert bit-for-bit agreement.
/// Returns (pass stats, delta stats) for the work guards.
fn assert_engines_agree(
    rules: &RuleSet,
    plan: &CompiledRules,
    master: &MasterData,
    tuple: &Tuple,
    seed: &AttrSet,
) -> Result<(EngineStats, EngineStats), TestCaseError> {
    let mut t_ref = tuple.clone();
    let mut v_ref = seed.clone();
    let reference = run_fixpoint(rules, master, &mut t_ref, &mut v_ref);

    let mut t = tuple.clone();
    let mut v = seed.clone();
    let delta = run_fixpoint_delta(plan, master, &mut t, &mut v);

    match (reference, delta) {
        (Ok(ref_report), Ok(report)) => {
            prop_assert_eq!(&t, &t_ref, "final tuples differ");
            prop_assert_eq!(&v, &v_ref, "validated sets differ");
            prop_assert_eq!(&report.fixes, &ref_report.fixes, "fix lists differ");
            prop_assert_eq!(
                &report.newly_validated,
                &ref_report.newly_validated,
                "validation order differs"
            );
            prop_assert_eq!(report.rule_firings, ref_report.rule_firings);
            prop_assert!(report.passes <= ref_report.passes);
            prop_assert!(
                report.stats.rule_attempts <= ref_report.stats.rule_attempts,
                "delta attempted more ({}) than pass-based ({})",
                report.stats.rule_attempts,
                ref_report.stats.rule_attempts
            );
            prop_assert!(report.stats.master_lookups <= ref_report.stats.master_lookups);
            Ok((ref_report.stats, report.stats))
        }
        (Err(e_ref), Err(e_delta)) => {
            prop_assert_eq!(
                e_ref.to_string(),
                e_delta.to_string(),
                "engines error differently"
            );
            Ok((EngineStats::default(), EngineStats::default()))
        }
        (Ok(_), Err(e)) => Err(TestCaseError::Fail(format!(
            "delta errored where pass-based succeeded: {e}"
        ))),
        (Err(e), Ok(_)) => Err(TestCaseError::Fail(format!(
            "pass-based errored where delta succeeded: {e}"
        ))),
    }
}

/// A random rule set over `arity` same-named input / master attributes
/// (values `v0..v2`, so master keys collide and lookups miss), with
/// random pattern gates and — one time in five — a deleted rule, so that
/// rule ids and plan positions differ.
fn random_rules(
    rng: &mut StdRng,
    arity: usize,
    n_rules: usize,
) -> (SchemaRef, RuleSet, MasterData) {
    let names: Vec<String> = (0..arity).map(|i| format!("a{i}")).collect();
    let input = Schema::of_strings("in", names.iter().map(String::as_str)).unwrap();
    let ms = Schema::of_strings("m", names.iter().map(String::as_str)).unwrap();
    let mut builder = RelationBuilder::new(ms.clone());
    for _ in 0..rng.gen_range(1..8usize) {
        let row: Vec<String> = (0..arity).map(|_| random_value(rng)).collect();
        builder = builder.row_strs(row);
    }
    let master = MasterData::new(builder.build().unwrap());
    let mut rules = RuleSet::new(input.clone(), ms.clone());
    for r in 0..n_rules {
        let mut attrs: Vec<usize> = (0..arity).collect();
        for i in (1..attrs.len()).rev() {
            attrs.swap(i, rng.gen_range(0..=i));
        }
        let (lhs_n, rhs_n) = (rng.gen_range(1..3usize), rng.gen_range(1..3usize));
        let pairs = |attrs: &[usize]| attrs.iter().map(|&a| (a, a)).collect::<Vec<_>>();
        let pattern = if rng.gen_bool(0.3) {
            let (gate, constant) = (attrs[lhs_n + rhs_n], Value::str(random_value(rng)));
            if rng.gen_bool(0.5) {
                PatternTuple::empty().with_eq(gate, constant)
            } else {
                PatternTuple::empty().with_ne(gate, constant)
            }
        } else {
            PatternTuple::empty()
        };
        let (lhs, rhs) = (pairs(&attrs[..lhs_n]), pairs(&attrs[lhs_n..lhs_n + rhs_n]));
        rules
            .add(EditingRule::new(format!("r{r}"), &input, &ms, lhs, rhs, pattern).unwrap())
            .unwrap();
    }
    if n_rules > 1 && rng.gen_bool(0.2) {
        rules.remove("r0").unwrap();
    }
    (input, rules, master)
}

/// A random rule set built around key groups: a few join layouts
/// `(X, Xm)` — now and then one with an earlier layout's `Xm` under
/// another `X` — each shared by sibling rules that differ in `Bm` and in
/// pattern, over a master whose keys repeat, whose rows agree on some
/// attributes and not on others, and which has null cells. So a key is
/// certain for one sibling and ambiguous for another, and a null witness
/// cell is read by one sibling and not by the next.
fn sibling_rules(rng: &mut StdRng) -> (SchemaRef, RuleSet, MasterData) {
    const ARITY: usize = 7;
    let names: Vec<String> = (0..ARITY).map(|i| format!("a{i}")).collect();
    let input = Schema::of_strings("in", names.iter().map(String::as_str)).unwrap();
    let ms = Schema::of_strings("m", names.iter().map(String::as_str)).unwrap();
    let rows = (0..rng.gen_range(2..10usize)).map(|_| {
        let cells = (0..ARITY).map(|_| match rng.gen_range(0..10u8) {
            0 => Value::Null,
            1..=6 => Value::str("v0"),
            _ => Value::str("v1"),
        });
        Tuple::new(ms.clone(), cells.collect::<Vec<_>>()).unwrap()
    });
    let master =
        MasterData::new(Relation::from_tuples(ms.clone(), rows.collect::<Vec<_>>()).unwrap());
    let shuffled = |rng: &mut StdRng, mut attrs: Vec<AttrId>| {
        for i in (1..attrs.len()).rev() {
            attrs.swap(i, rng.gen_range(0..=i));
        }
        attrs
    };
    let mut layouts: Vec<(Vec<AttrId>, Vec<AttrId>)> = Vec::new();
    for _ in 0..rng.gen_range(1..4usize) {
        let width = if rng.gen_bool(0.25) { 2 } else { 1 };
        let xm = match layouts.last() {
            Some((_, xm)) if rng.gen_bool(0.6) => xm.clone(),
            _ => shuffled(rng, (0..ARITY).collect())[..width].to_vec(),
        };
        let x = shuffled(rng, (0..ARITY).collect())[..xm.len()].to_vec();
        layouts.push((x, xm));
    }
    let mut rules = RuleSet::new(input.clone(), ms.clone());
    for (g, (x, xm)) in layouts.iter().enumerate() {
        for sibling in 0..rng.gen_range(1..4usize) {
            let free = shuffled(rng, (0..ARITY).filter(|a| !x.contains(a)).collect());
            let rhs_n = rng.gen_range(1..3usize);
            let rhs: Vec<_> = free[..rhs_n].iter().map(|&b| (b, b)).collect();
            let gate = (free[rhs_n], Value::str(random_value(rng)));
            let pattern = match rng.gen_range(0..4u8) {
                0 => PatternTuple::empty().with_eq(gate.0, gate.1),
                1 => PatternTuple::empty().with_ne(gate.0, gate.1),
                _ => PatternTuple::empty(),
            };
            let lhs: Vec<_> = x.iter().copied().zip(xm.iter().copied()).collect();
            let rule = EditingRule::new(format!("g{g}s{sibling}"), &input, &ms, lhs, rhs, pattern);
            rules.add(rule.unwrap()).unwrap();
        }
    }
    (input, rules, master)
}

fn random_value(rng: &mut StdRng) -> String {
    format!("v{}", rng.gen_range(0..3u8))
}

fn random_tuple(rng: &mut StdRng, input: &SchemaRef) -> Tuple {
    let cells: Vec<String> = (0..input.arity()).map(|_| random_value(rng)).collect();
    Tuple::of_strings(input.clone(), cells).unwrap()
}

/// A fully random instance: small alphabet per column so master key
/// collisions (and therefore ambiguous keys) arise naturally, random
/// single- or two-attribute rules, random pattern gates.
fn random_instance(seed: u64) -> (RuleSet, MasterData, Tuple, AttrSet) {
    let mut rng = StdRng::seed_from_u64(seed);
    const ARITY: usize = 7;
    let n_rules = rng.gen_range(1..10usize);
    let (input, rules, master) = random_rules(&mut rng, ARITY, n_rules);
    let tuple = random_tuple(&mut rng, &input);
    let seed: AttrSet = (0..ARITY).filter(|_| rng.gen_bool(0.4)).collect();
    (rules, master, tuple, seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// UK scenario: for any truth entity and any validated seed, both
    /// engines agree exactly.
    #[test]
    fn uk_delta_equals_pass_based(entity in 0usize..100, seed_mask in 0u16..512) {
        let (rules, master, universe) = uk_fixture();
        let plan = CompiledRules::compile(&rules, &master);
        let truth = &universe[entity % universe.len()];
        let seed: AttrSet = (0..9).filter(|a| seed_mask & (1 << a) != 0).collect();
        let masked = cerfix::region::masked_input(truth, &seed);
        assert_engines_agree(&rules, &plan, &master, &masked, &seed)?;
    }

    /// Randomized instances (random master, rules, patterns, dirty tuple,
    /// seed — including inconsistent rule sets, where both engines must
    /// fail with the same error).
    #[test]
    fn random_instances_delta_equals_pass_based(instance in 0u64..100_000) {
        let (rules, master, tuple, seed) = random_instance(instance);
        let plan = CompiledRules::compile(&rules, &master);
        assert_engines_agree(&rules, &plan, &master, &tuple, &seed)?;
    }

    /// The unindexed (T6 scan) ablation arm agrees with the indexed plan.
    #[test]
    fn unindexed_plan_agrees(instance in 0u64..100_000) {
        let (rules, master, tuple, seed) = random_instance(instance);
        let unindexed = MasterData::new_unindexed(master.relation().clone());
        let plan = CompiledRules::compile(&rules, &unindexed);
        assert_engines_agree(&rules, &plan, &unindexed, &tuple, &seed)?;
    }
}

/// Run `tuple` once fresh and once on `scratch`, and assert the two runs
/// agree on everything a report carries, the tuple and the validated set
/// — and with the pass-based engine, which probes once per lookup.
fn assert_reused_scratch_agrees(
    rules: &RuleSet,
    plan: &CompiledRules,
    master: &MasterData,
    tuple: &Tuple,
    seed: &AttrSet,
    scratch: &mut FixpointScratch,
) -> Result<(), TestCaseError> {
    assert_engines_agree(rules, plan, master, tuple, seed)?;
    let (mut t_fresh, mut v_fresh) = (tuple.clone(), seed.clone());
    let fresh = run_fixpoint_delta(plan, master, &mut t_fresh, &mut v_fresh);
    let (mut t, mut v) = (tuple.clone(), seed.clone());
    let reused = run_fixpoint_delta_into(plan, master, &mut t, &mut v, scratch);
    match (fresh, reused) {
        (Ok(fresh), Ok(report)) => {
            prop_assert_eq!(&report.fixes, &fresh.fixes);
            prop_assert_eq!(&report.newly_validated, &fresh.newly_validated);
            prop_assert_eq!(report.passes, fresh.passes);
            prop_assert_eq!(report.rule_firings, fresh.rule_firings);
            prop_assert_eq!(report.stats, fresh.stats);
        }
        (Err(fresh), Err(reused)) => prop_assert_eq!(fresh.to_string(), reused.to_string()),
        (fresh, reused) => {
            return Err(TestCaseError::Fail(format!(
                "fresh run {:?}, reused scratch {:?}",
                fresh.map(|r| r.fixes),
                reused.map(|r| r.fixes.clone())
            )))
        }
    }
    prop_assert_eq!(&t, &t_fresh, "final tuples differ");
    prop_assert_eq!(&v, &v_fresh, "validated sets differ");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// One scratch serves a stream of random tuples on one random plan,
    /// then on others — some with more than 64 rules, so the worklist
    /// sets and the key memo leave their inline word, and some built
    /// around key groups (`sibling_rules`), whose rules share one probe
    /// per run — including inconsistent instances whose runs fail
    /// half-way. Every run equals a fresh one and the pass-based engine's.
    #[test]
    fn reused_scratch_equals_fresh_runs(instance in 0u64..100_000) {
        const ARITY: usize = 7;
        let mut rng = StdRng::seed_from_u64(instance);
        let mut scratch = FixpointScratch::default();
        for round in 0..3 {
            let siblings = round == 1 || rng.gen_bool(0.5);
            let (input, rules, master) = if siblings {
                sibling_rules(&mut rng)
            } else {
                let n_rules = if rng.gen_bool(0.5) {
                    rng.gen_range(65..80usize)
                } else {
                    rng.gen_range(1..10usize)
                };
                random_rules(&mut rng, ARITY, n_rules)
            };
            let plan = CompiledRules::compile(&rules, &master);
            // Half the sibling runs start with every join attribute
            // validated, so the rules of a group meet in one run.
            let joins: AttrSet = rules.iter().flat_map(|(_, rule)| rule.input_lhs()).collect();
            for _ in 0..8 {
                let tuple = random_tuple(&mut rng, &input);
                let mut seed: AttrSet = (0..ARITY).filter(|_| rng.gen_bool(0.4)).collect();
                if siblings && rng.gen_bool(0.5) {
                    seed = (0..ARITY).filter(|_| rng.gen_bool(0.15)).collect();
                    seed.union_with(&joins);
                }
                assert_reused_scratch_agrees(&rules, &plan, &master, &tuple, &seed, &mut scratch)?;
            }
        }
    }
}

/// Join layouts the index-vs-row-walk test probes: two single
/// attributes and their pair, all over small alphabets so keys repeat.
const JOINS: [&[AttrId]; 3] = [&[0], &[1], &[0, 1]];

/// Every subset of `cols`, the empty one included (no `Bm`: any match is
/// trivially agreed).
fn subsets(cols: &[AttrId]) -> Vec<Vec<AttrId>> {
    (0u32..1 << cols.len())
        .map(|mask| {
            (0..cols.len())
                .filter(|i| mask & (1 << i) != 0)
                .map(|i| cols[i])
                .collect()
        })
        .collect()
}

/// Every key `join` can be probed with on `relation`: each row's
/// projection (nulls and all — those must match nothing) and an absent
/// key.
fn probe_keys(relation: &Relation, join: &[AttrId]) -> Vec<Vec<Value>> {
    let mut keys: Vec<Vec<Value>> = relation.iter().map(|(_, s)| s.project(join)).collect();
    keys.push(vec![Value::str("absent"); join.len()]);
    keys
}

/// One index's answers to every probe: posting list and `certain`
/// verdict per key × `Bm` subset, in probe order.
type IndexAnswers = Vec<(Vec<RowId>, Vec<(usize, Option<RowId>)>)>;

fn index_answers(index: &HashIndex, keys: &[Vec<Value>], rhs_cols: &[AttrId]) -> IndexAnswers {
    keys.iter()
        .map(|key| {
            let verdicts = subsets(rhs_cols)
                .iter()
                .map(|rhs| index.certain(key, &rhs.iter().copied().collect()))
                .collect();
            (index.lookup(key).to_vec(), verdicts)
        })
        .collect()
}

/// The differential check: for every join × key × `Bm` subset, the
/// indexed master (entries maintained row by row since they were first
/// built) answers exactly what the unindexed one computes by walking the
/// matching rows — count, witness row, values — and each maintained
/// index equals one built from scratch over the same rows.
fn assert_index_equals_row_walk(
    indexed: &MasterData,
    scanned: &MasterData,
    rhs_cols: &[AttrId],
) -> Result<(), TestCaseError> {
    for join in JOINS {
        let keys = probe_keys(indexed.relation(), join);
        for key in &keys {
            for rhs in subsets(rhs_cols) {
                prop_assert_eq!(
                    indexed.certain_lookup_at(join, key, &rhs),
                    scanned.certain_lookup_at(join, key, &rhs),
                    "join {:?} key {:?} rhs {:?}",
                    join,
                    key,
                    rhs
                );
            }
        }
        let maintained = indexed.warmed_index(join).expect("indexed arm");
        let rebuilt = HashIndex::build(indexed.relation(), join.to_vec());
        prop_assert_eq!(
            index_answers(&maintained, &keys, rhs_cols),
            index_answers(&rebuilt, &keys, rhs_cols),
            "maintained vs rebuilt index on join {:?}",
            join
        );
    }
    Ok(())
}

/// What a compiled plan makes of every master row offered as an input
/// tuple with the join attributes validated: final tuple, validated set
/// and fixes (or the error), rendered for comparison.
fn plan_verdicts(plan: &CompiledRules, master: &MasterData, input: &SchemaRef) -> Vec<String> {
    master
        .relation()
        .iter()
        .map(|(_, s)| {
            let mut t = Tuple::new(input.clone(), s.values()).expect("same layout");
            let mut validated: AttrSet = [0, 1].into();
            match run_fixpoint_delta(plan, master, &mut t, &mut validated) {
                Ok(report) => format!("{t:?} {validated:?} {:?}", report.fixes),
                Err(e) => e.to_string(),
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The index's verdict is the row walk's verdict, always: on a random
    /// master, then after each of several random `append` /
    /// `append_rows` / `append_copy` batches — across which index
    /// snapshots taken earlier (a compiled plan's included) keep
    /// answering for the master they were taken from.
    #[test]
    fn index_verdict_is_the_row_walk_verdict(instance in 0u64..100_000) {
        let mut rng = StdRng::seed_from_u64(instance);
        // A master wider than 64 attributes puts the per-key agreement
        // sets on `AttrSet`'s heap representation.
        let wide = rng.gen_bool(0.3);
        let arity = if wide { 70 } else { 6 };
        let rhs_cols: &[AttrId] = if wide { &[2, 3, 64, 69] } else { &[2, 3, 4, 5] };
        let names: Vec<String> = (0..arity).map(|i| format!("a{i}")).collect();
        let input = Schema::of_strings("in", names.iter().map(String::as_str)).unwrap();
        let ms = Schema::of_strings("m", names.iter().map(String::as_str)).unwrap();
        // Two values and null per cell, skewed so that the rows of a key
        // agree about as often as they disagree; a null lands in keys, in
        // a key's first row and in its later rows alike.
        let row = |rng: &mut StdRng| {
            let cells: Vec<Value> = (0..arity)
                .map(|_| match rng.gen_range(0..10u8) {
                    0 => Value::Null,
                    1..=7 => Value::str("v0"),
                    _ => Value::str("v1"),
                })
                .collect();
            Tuple::new(ms.clone(), cells).unwrap()
        };
        let rows = |rng: &mut StdRng, n: usize| (0..n).map(|_| row(rng)).collect::<Vec<_>>();

        let n_rows = rng.gen_range(1..10usize);
        let relation = Relation::from_tuples(ms.clone(), rows(&mut rng, n_rows)).unwrap();
        let mut indexed = MasterData::new(relation.clone());
        let mut scanned = MasterData::new_unindexed(relation);
        // Also materializes the three indexes the appends must maintain.
        assert_index_equals_row_walk(&indexed, &scanned, rhs_cols)?;

        let mut rules = RuleSet::new(input.clone(), ms.clone());
        for (j, join) in JOINS.iter().enumerate() {
            for &b in rhs_cols {
                let lhs: Vec<_> = join.iter().map(|&a| (a, a)).collect();
                let rule = EditingRule::new(
                    format!("j{j}_b{b}"), &input, &ms, lhs, vec![(b, b)], PatternTuple::empty(),
                );
                rules.add(rule.unwrap()).unwrap();
            }
        }

        for _ in 0..4 {
            // Snapshots outstanding across the append: what they answer
            // now is what they must answer afterwards (`Arc::make_mut`
            // has to clone rather than update them in place).
            let before: Vec<_> = JOINS
                .iter()
                .map(|join| {
                    let snapshot = indexed.warmed_index(join).expect("indexed arm");
                    let keys = probe_keys(indexed.relation(), join);
                    let answers = index_answers(&snapshot, &keys, rhs_cols);
                    (snapshot, keys, answers)
                })
                .collect();
            let n = rng.gen_range(1..4usize);
            match rng.gen_range(0..3u8) {
                0 => {
                    let t = row(&mut rng);
                    indexed.append(t.clone()).unwrap();
                    scanned.append(t).unwrap();
                }
                1 => {
                    let batch = rows(&mut rng, n);
                    indexed.append_rows(batch.clone()).unwrap();
                    scanned.append_rows(batch).unwrap();
                }
                _ => {
                    // The server's shape: the old master keeps serving
                    // the plan compiled against it while the copy grows.
                    let plan = CompiledRules::compile(&rules, &indexed);
                    let old_verdicts = plan_verdicts(&plan, &indexed, &input);
                    let batch = rows(&mut rng, n);
                    let (grown, _) = indexed.append_copy(batch.clone()).unwrap();
                    prop_assert_eq!(
                        plan_verdicts(&plan, &indexed, &input),
                        old_verdicts,
                        "a plan compiled before append_copy answers for the old master"
                    );
                    indexed = grown;
                    scanned = scanned.append_copy(batch).unwrap().0;
                }
            }
            for (snapshot, keys, answers) in &before {
                prop_assert_eq!(
                    &index_answers(snapshot, keys, rhs_cols),
                    answers,
                    "an outstanding snapshot changed under an append"
                );
            }
            assert_index_equals_row_walk(&indexed, &scanned, rhs_cols)?;
        }

        // A unique → ambiguous flip, every run: a fresh key's lone row is
        // a certain witness until a second row of that key disagrees.
        let b = rhs_cols[0];
        let key = [Value::str("fresh")];
        let mut t = Tuple::new(ms.clone(), vec![Value::str("v0"); arity]).unwrap();
        t.set(0, key[0].clone()).unwrap();
        let first = indexed.append(t.clone()).unwrap();
        scanned.append(t.clone()).unwrap();
        prop_assert_eq!(
            indexed.certain_lookup_at(&[0], &key, &[b]),
            CertainLookup::Unique { values: vec![Value::str("v0")], witness: first, matches: 1 }
        );
        t.set(b, Value::str("v1")).unwrap();
        indexed.append(t.clone()).unwrap();
        scanned.append(t).unwrap();
        prop_assert_eq!(
            indexed.certain_lookup_at(&[0], &key, &[b]),
            CertainLookup::Ambiguous { matches: 2 }
        );
        assert_index_equals_row_walk(&indexed, &scanned, rhs_cols)?;
    }
}

/// Run both engines over `truths`, each masked down to `seed`, and
/// return (pass-based, delta) work totals after the relative guard every
/// fixture shares: the delta engine attempts strictly fewer rules,
/// performs no more master lookups, and answers them from a warmed index
/// with at most one probe each — fewer where rules share a join key.
fn work_totals(
    rules: &RuleSet,
    master: &MasterData,
    truths: &[Tuple],
    seed: &AttrSet,
) -> (EngineStats, EngineStats) {
    let plan = CompiledRules::compile(rules, master);
    let mut pass = EngineStats::default();
    let mut delta = EngineStats::default();
    for truth in truths {
        let masked = cerfix::region::masked_input(truth, seed);
        let mut t1 = masked.clone();
        let mut v1 = seed.clone();
        pass += run_fixpoint(rules, master, &mut t1, &mut v1)
            .expect("consistent")
            .stats;
        let mut t2 = masked;
        let mut v2 = seed.clone();
        delta += run_fixpoint_delta(&plan, master, &mut t2, &mut v2)
            .expect("consistent")
            .stats;
    }
    assert!(
        delta.rule_attempts < pass.rule_attempts,
        "delta {} attempts vs pass-based {}",
        delta.rule_attempts,
        pass.rule_attempts
    );
    assert!(delta.master_lookups <= pass.master_lookups);
    assert!(
        delta.index_probes <= delta.master_lookups,
        "a lookup makes at most one index probe"
    );
    assert!(delta.index_probes > 0 || delta.master_lookups == 0);
    (pass, delta)
}

/// Deterministic work guard on the UK rules: across the whole truth
/// universe (seeded from the paper's size-4 region), the delta engine
/// attempts strictly fewer rules and performs no more lookups — and its
/// counts are exact. The nine rules fall into four key groups: φ1–φ3 join
/// `zip=zip`, φ4–φ5 `phn=Mphn`, φ6–φ8 `(AC, phn)=(AC, Hphn)`, φ9
/// `AC=AC`. Seeded with `{zip, phn, type, item}` every rule becomes
/// eligible and is attempted once (9 attempts per truth); φ1–φ3 fire
/// from one `zip` probe; φ6–φ9 find their targets validated and look
/// nothing up; φ4–φ5 pass their `type = 2` pattern on the mobile truth
/// only, and fire from one `Mphn` probe. Per entity (a home-phone and a
/// mobile truth): 3 + 5 = 8 lookups, 1 + 2 = 3 probes.
#[test]
fn uk_delta_performs_strictly_fewer_attempts() {
    let (rules, master, universe) = uk_fixture();
    let input = rules.input_schema().clone();
    let seed: AttrSet = ["zip", "phn", "type", "item"]
        .iter()
        .map(|n| input.attr_id(n).expect("uk attr"))
        .collect();
    let (_, delta) = work_totals(&rules, &master, &universe, &seed);
    let entities = universe.len() / 2;
    assert_eq!(delta.rule_attempts, 9 * universe.len(), "delta attempts");
    assert_eq!(delta.master_lookups, 8 * entities, "delta lookups");
    assert_eq!(delta.index_probes, 3 * entities, "delta probes");
}

/// Same guard on a mined rule set: FDs discovered from master data and
/// compiled into editing rules (the `discover.rs` path that produces
/// hundreds of rules on wide schemas).
#[test]
fn mined_rules_delta_performs_strictly_fewer_attempts() {
    let mut rng = StdRng::seed_from_u64(7);
    let relation = uk::generate_master(120, &mut rng);
    let master = MasterData::new(relation.clone());
    let input = uk::input_schema();
    let mined = discover_rules(&input, &uk::master_schema(), &relation, 2).expect("mining runs");
    assert!(mined.len() >= 4, "fixture mined only {} rules", mined.len());
    let mut rules = RuleSet::new(input.clone(), uk::master_schema());
    for d in mined {
        rules.add(d.rule).expect("unique mined names");
    }
    let universe = uk::truth_universe(&relation);
    let zip: AttrSet = [input.attr_id("zip").expect("zip")].into();
    work_totals(&rules, &master, &universe[..60], &zip);
}

/// Exact work counts on HOSP, the one scenario where no join is a key of
/// the master: `provider` and `zip` match 4 rows each and `measure` a
/// ninth of the relation, all agreeing. Seeded with `{provider,
/// measure}` the whole tuple validates, so the delta engine attempts
/// each of the 8 rules exactly once, and each attempt is one certain
/// lookup. The rules join on three keys — h1–h4 on `provider`, h5–h6 on
/// `zip`, h7–h8 on `measure` — and a run probes each key once, however
/// many rules join on it and however many rows share it: 3 probes per
/// tuple.
/// (Whether a probe may walk those rows is not a count: `HashIndex::
/// probe` takes no relation and no row iterator, so it cannot.)
#[test]
fn hosp_work_counts_are_exact() {
    let mut rng = StdRng::seed_from_u64(2011);
    let scenario = hosp::scenario(400, &mut rng);
    let master = MasterData::new(scenario.master.clone());
    let seed: AttrSet = ["provider", "measure"]
        .iter()
        .map(|n| scenario.input.attr_id(n).expect("hosp attr"))
        .collect();
    let (_, delta) = work_totals(&scenario.rules, &master, &scenario.universe, &seed);
    let tuples = scenario.universe.len();
    assert_eq!(delta.rule_attempts, 8 * tuples, "delta attempts");
    assert_eq!(delta.master_lookups, 8 * tuples, "delta lookups");
    assert_eq!(delta.index_probes, 3 * tuples, "delta probes");
}

/// Exact work counts on a hand-built, RNG-free chain: 10 attributes
/// `a0..a9`, 30 rules covering the 9 edges `a_i → a_{i+1}` round-robin
/// in **reverse** edge order (the worst case for the pass-based engine:
/// seeding `a0` forces one pass per chain stage), 100 per-entity-unique
/// master rows, 50 fixpoints seeded with `{a0}`. Independent of machine
/// and of the random generators — if an engine change shifts the
/// counts, re-derive BOTH the numbers and the reasoning:
///
/// * delta: the full chain validates, so every rule becomes eligible
///   exactly once and is attempted exactly once ⇒ 30 attempts/tuple.
/// * pass-based: the 30 rules are 3 interleaved reverse-ordered copies
///   of the 9 chain edges, so each pass advances 3 chain stages (one per
///   copy); 9 edges ⇒ 3 productive passes + 1 quiescent ⇒ 4 passes × 30
///   rules = 120 attempts/tuple.
#[test]
fn chain_attempt_counts_are_exact() {
    const ATTRS: usize = 10;
    const RULES: usize = 30;
    const TUPLES: usize = 50;
    let names: Vec<String> = (0..ATTRS).map(|i| format!("a{i}")).collect();
    let input = Schema::of_strings("chain_in", names.iter().map(String::as_str)).unwrap();
    let ms = Schema::of_strings("chain_m", names.iter().map(String::as_str)).unwrap();
    let mut rules = RuleSet::new(input.clone(), ms.clone());
    for k in 0..RULES {
        let edge = (ATTRS - 2) - (k % (ATTRS - 1));
        let rule = EditingRule::new(
            format!("r{k}"),
            &input,
            &ms,
            vec![(edge, edge)],
            vec![(edge + 1, edge + 1)],
            PatternTuple::empty(),
        );
        rules.add(rule.unwrap()).unwrap();
    }
    let mut builder = RelationBuilder::new(ms);
    let mut truths = Vec::new();
    for e in 0..100 {
        let row: Vec<String> = (0..ATTRS).map(|j| format!("{j}x{e}")).collect();
        builder = builder.row_strs(row.iter().map(String::as_str));
        truths.push(Tuple::of_strings(input.clone(), row).unwrap());
    }
    let master = MasterData::new(builder.build().unwrap());

    let seed: AttrSet = [0].into();
    let (pass, delta) = work_totals(&rules, &master, &truths[..TUPLES], &seed);
    assert_eq!(pass.rule_attempts, 120 * TUPLES, "pass-based attempts");
    assert_eq!(delta.rule_attempts, RULES * TUPLES, "delta attempts");
}

/// Which arms of the inference system a run of comparisons reached.
#[derive(Debug, Default)]
struct InferenceCoverage {
    suggestions: usize,
    falsified_patterns: usize,
    stalled_rules: usize,
    greedy_arm: usize,
    wide_schemas: usize,
    rule_positions_past_64: usize,
    multi_cover_searches: usize,
}

/// `DataMonitor::suggestion` (masks, compiled plan) against the oracle's
/// `new_suggestion` under the oracle's `session_filter`, for one session
/// state.
fn assert_suggestion_is_the_oracles(
    monitor: &DataMonitor<'_>,
    session: &MonitorSession,
    coverage: &mut InferenceCoverage,
) -> Result<(), TestCaseError> {
    use inference_oracle as oracle;
    let rules = monitor.rules();
    let filter = oracle::session_filter(session);
    let validated: BTreeSet<AttrId> = session.validated.iter().collect();
    let expected = oracle::new_suggestion(rules, &validated, &filter);
    // The mask form has no feasibility check (see `RuleMasks::suggestion`):
    // the oracle's must never be what decides.
    prop_assert!(expected.is_some(), "oracle found the session infeasible");
    let expected = expected
        .map(|s| s.into_iter().collect::<Vec<AttrId>>())
        .filter(|s| !s.is_empty() && !session.is_complete());
    prop_assert_eq!(
        monitor.suggestion(session),
        expected,
        "{} rules over {} attributes, tuple {:?}, validated {:?}",
        rules.len(),
        session.tuple.arity(),
        session.tuple.values(),
        session.validated
    );

    coverage.suggestions += 1;
    for (_, rule) in rules.iter() {
        let cells = rule.pattern().cells();
        let falsified = cells.iter().any(|c| {
            session.validated.contains(c.attr) && !c.op.matches(session.tuple.get(c.attr))
        });
        coverage.falsified_patterns += usize::from(falsified);
        coverage.stalled_rules += usize::from(!falsified && !filter(0, rule));
    }
    let mut base = oracle::unfixable_attrs(rules, &filter);
    base.extend(validated.iter().copied());
    let useful = oracle::useful_evidence_attrs(rules, &filter);
    coverage.greedy_arm += usize::from(useful.difference(&base).count() > 16);
    Ok(())
}

/// One random instance: the inference primitives under a random enabled
/// mask, then the monitor's suggestion on a session given a random
/// validated set outright and on one played round by round.
fn check_inference_instance(
    instance: u64,
    coverage: &mut InferenceCoverage,
) -> Result<(), TestCaseError> {
    use inference_oracle as oracle;
    let mut rng = StdRng::seed_from_u64(instance);
    // Small schemas search exactly; 24 attributes under ~30 rules leave
    // more than 16 candidates (greedy); 70 attributes and up to 90 rules
    // put attribute sets and rule-position masks on the heap.
    let (arity, n_rules) = match rng.gen_range(0..4u8) {
        0 | 1 => (7, rng.gen_range(1..10usize)),
        2 => (24, rng.gen_range(20..40usize)),
        _ => (70, rng.gen_range(40..90usize)),
    };
    let (input, rules, master) = random_rules(&mut rng, arity, n_rules);
    coverage.wide_schemas += usize::from(arity > 64);
    coverage.rule_positions_past_64 += usize::from(rules.len() > 64);

    // The primitives, under a random enabled mask (by plan position for
    // the masks, by rule id for the oracle's filter).
    let masks = RuleMasks::of(&rules);
    let ids: Vec<usize> = rules.iter().map(|(id, _)| id).collect();
    let enabled: AttrSet = (0..ids.len()).filter(|_| rng.gen_bool(0.7)).collect();
    let filter = |id: usize, _: &EditingRule| {
        enabled.contains(
            ids.iter()
                .position(|&i| i == id)
                .expect("a rule of the set"),
        )
    };
    let seed: AttrSet = (0..arity).filter(|_| rng.gen_bool(0.3)).collect();
    let seed_tree: BTreeSet<AttrId> = seed.iter().collect();
    let ascending = |set: &AttrSet| set.iter().collect::<Vec<AttrId>>();
    let tree = |set: BTreeSet<AttrId>| set.into_iter().collect::<Vec<AttrId>>();
    let closed = oracle::attribute_closure(&rules, &seed_tree, &filter);
    prop_assert_eq!(masks.spans(&enabled, &seed), closed.len() == arity);
    prop_assert_eq!(ascending(&masks.closure(&enabled, &seed)), tree(closed));
    let unfixable = oracle::unfixable_attrs(&rules, &filter);
    prop_assert_eq!(
        ascending(&masks.unfixable(&enabled)),
        tree(unfixable.clone())
    );
    let useful = oracle::useful_evidence_attrs(&rules, &filter);
    prop_assert_eq!(
        ascending(&masks.useful_evidence(&enabled)),
        tree(useful.clone())
    );
    // The cover search as the region finder asks it: mandatory base,
    // several results, a size bound.
    let candidates: Vec<AttrId> = useful.difference(&unfixable).copied().take(14).collect();
    let (max_size, max_results) = (rng.gen_range(1..5usize), rng.gen_range(1..9usize));
    let covers = masks.minimal_covers(
        &enabled,
        &masks.unfixable(&enabled),
        &candidates,
        max_size,
        max_results,
    );
    let expected = oracle::minimal_covers(
        &rules,
        &unfixable,
        &candidates,
        &filter,
        max_size,
        max_results,
    );
    coverage.multi_cover_searches += usize::from(covers.len() > 1);
    prop_assert_eq!(
        covers.iter().map(ascending).collect::<Vec<_>>(),
        expected.into_iter().map(tree).collect::<Vec<_>>()
    );

    // The monitor's suggestion. A validated set given outright makes
    // rules look stalled and patterns falsified at will …
    let monitor = DataMonitor::new(&rules, &master);
    let mut session = monitor.start(0, random_tuple(&mut rng, &input));
    let density = [0.1, 0.4, 0.8][rng.gen_range(0..3usize)];
    session.validated = (0..arity).filter(|_| rng.gen_bool(density)).collect();
    session.rounds = 1;
    assert_suggestion_is_the_oracles(&monitor, &session, coverage)?;
    // … and a session played for a few rounds reaches the states the
    // correcting process really leaves behind (lookups that missed).
    let truth = random_tuple(&mut rng, &input);
    let mut session = monitor.start(1, random_tuple(&mut rng, &input));
    for _ in 0..4 {
        assert_suggestion_is_the_oracles(&monitor, &session, coverage)?;
        let Some(suggestion) = monitor.suggestion(&session) else {
            break;
        };
        // Most of what was suggested, and now and then something that
        // was not.
        let validations: Vec<(AttrId, Value)> = (0..arity)
            .filter(|a| rng.gen_bool(if suggestion.contains(a) { 0.7 } else { 0.05 }))
            .map(|a| (a, truth.get(a).clone()))
            .collect();
        // An inconsistent random rule set may refuse: nothing to compare.
        if monitor
            .apply_validation(&mut session, &validations)
            .is_err()
        {
            break;
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The mask inference system answers as the `BTreeSet` one did.
    #[test]
    fn mask_inference_equals_btreeset_oracle(instance in 0u64..100_000) {
        check_inference_instance(instance, &mut InferenceCoverage::default())?;
    }
}

/// The same comparison over a fixed run of instances, with the count of
/// what it reached: every arm named in the module docs is exercised, not
/// just allowed for.
#[test]
fn mask_inference_sweep_reaches_every_arm() {
    let mut coverage = InferenceCoverage::default();
    for instance in 0..200 {
        if let Err(e) = check_inference_instance(instance, &mut coverage) {
            panic!("instance {instance}: {e}");
        }
    }
    let InferenceCoverage {
        suggestions,
        falsified_patterns,
        stalled_rules,
        greedy_arm,
        wide_schemas,
        rule_positions_past_64,
        multi_cover_searches,
    } = coverage;
    assert!(suggestions >= 400, "{coverage:?}");
    for (reached, arm) in [
        (falsified_patterns, "patterns falsified by validated cells"),
        (stalled_rules, "stalled rules"),
        (greedy_arm, "more than 16 candidates"),
        (wide_schemas, "70-attribute schemas"),
        (rule_positions_past_64, "rule positions past 64"),
        (multi_cover_searches, "searches returning several covers"),
    ] {
        assert!(reached >= 10, "only {reached} cases of {arm}: {coverage:?}");
    }
}
