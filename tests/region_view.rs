//! A region search over the master rows read in place
//! ([`MasterTruths`]) is the search over a copy of them: the copy is
//! built here, test-side, the way a truth universe used to be built —
//! each master row as an input tuple, attributes matched by name, null
//! where the master has no column — and the two searches must agree on
//! the regions, their ranking and every counter, at one thread and at
//! four, and again over the master grown by an append.
//!
//! Covered: random instances whose input schema reorders, drops and adds
//! attributes against the master's (so the attribute map is neither the
//! identity nor total, and rules join across names, which poisons many
//! truths), and the UK, HOSP, DBLP and key → value scenarios.

use cerfix::{search_regions, MasterData, MasterTruths, RegionFinderOptions, RegionSearch};
use cerfix_gen::{dblp, hosp, uk};
use cerfix_relation::{Relation, RelationBuilder, Schema, SchemaRef, Tuple, Value};
use cerfix_rules::{EditingRule, PatternTuple, RuleSet};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The master rows copied into input tuples, by attribute name.
fn copy_of(input: &SchemaRef, master: &MasterData) -> Vec<Tuple> {
    master
        .relation()
        .rows()
        .iter()
        .map(|row| {
            let values: Vec<Value> = input
                .attributes()
                .iter()
                .map(|a| {
                    master
                        .schema()
                        .attr_id(a.name())
                        .map_or(Value::Null, |m| row.get(m).clone())
                })
                .collect();
            Tuple::new(input.clone(), values).unwrap()
        })
        .collect()
}

fn options(threads: usize) -> RegionFinderOptions {
    RegionFinderOptions {
        top_k: 16,
        threads,
        ..Default::default()
    }
}

fn assert_same(view: &RegionSearch, copy: &RegionSearch, what: &str) {
    assert_eq!(view.ranked(), copy.ranked(), "{what}: ranking");
    assert_eq!(
        format!("{:?}", view.result.stats),
        format!("{:?}", copy.result.stats),
        "{what}: stats"
    );
    assert_eq!(
        view.master_generation(),
        copy.master_generation(),
        "{what}: generation"
    );
}

/// Search `master` over the view and over the copy, at one thread and at
/// four; then append `appended` and search the grown master over both.
fn check(name: &str, rules: &RuleSet, mut master: MasterData, appended: Vec<Tuple>) {
    let input = rules.input_schema();
    for threads in [1, 4] {
        let what = format!("{name} at {threads} threads");
        let view = search_regions(
            rules,
            &master,
            &MasterTruths::new(input, &master),
            &options(threads),
        );
        let copy = search_regions(rules, &master, &copy_of(input, &master), &options(threads));
        assert_same(&view, &copy, &what);
        assert_eq!(view.result.stats.truths, master.len(), "{what}: truths");
    }
    master.append_rows(appended).unwrap();
    let truths = MasterTruths::new(input, &master);
    let full = search_regions(rules, &master, &truths, &options(2));
    let copy = search_regions(rules, &master, &copy_of(input, &master), &options(2));
    assert_same(&full, &copy, &format!("{name} grown"));
    assert_eq!(
        full.result.stats.truths,
        master.len(),
        "{name} grown: truths"
    );
}

/// `rows` of a generated master, split after `base`.
fn split(master: &Relation, base: usize) -> (MasterData, Vec<Tuple>) {
    let rows = master.rows();
    let mut head = RelationBuilder::new(master.schema().clone())
        .build()
        .unwrap();
    for row in &rows[..base] {
        head.push(row.clone()).unwrap();
    }
    (MasterData::new(head), rows[base..].to_vec())
}

/// A random instance over a master `a0..a5` and an input schema that
/// holds those names in a shuffled order — or five of them and one of
/// its own, which reads null in every truth. Rules join input and master
/// attributes, mostly by name; patterns gate on input attributes.
fn random_instance(seed: u64, rows: usize) -> (RuleSet, MasterData, Vec<Tuple>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let master_names: Vec<String> = (0..6).map(|i| format!("a{i}")).collect();
    let mut input_names: Vec<String> = master_names.clone();
    for i in (1..input_names.len()).rev() {
        input_names.swap(i, rng.gen_range(0..=i));
    }
    if rng.gen_bool(0.5) {
        // One master column unread, one input attribute always null.
        input_names[0] = "x0".to_string();
        for i in (1..input_names.len()).rev() {
            input_names.swap(i, rng.gen_range(0..=i));
        }
    }
    let input = Schema::of_strings("in", input_names.iter().map(String::as_str)).unwrap();
    let ms = Schema::of_strings("m", master_names.iter().map(String::as_str)).unwrap();

    let val = |rng: &mut StdRng| format!("v{}", rng.gen_range(0..12u8));
    let tuples: Vec<Tuple> = (0..rows)
        .map(|_| {
            let row: Vec<String> = (0..6).map(|_| val(&mut rng)).collect();
            Tuple::of_strings(ms.clone(), row.iter().map(String::as_str)).unwrap()
        })
        .collect();
    let mut rules = RuleSet::new(input.clone(), ms.clone());
    for r in 0..rng.gen_range(2..7usize) {
        let mut attrs: Vec<usize> = (0..6).collect();
        for i in (1..attrs.len()).rev() {
            attrs.swap(i, rng.gen_range(0..=i));
        }
        // Most pairs join an input attribute to the master column of its
        // name, when there is one; the rest cross names.
        let pair = |rng: &mut StdRng, a: usize| {
            let named = ms.attr_id(input.attr_name(a));
            match named {
                Some(m) if rng.gen_bool(0.75) => (a, m),
                _ => (a, rng.gen_range(0..6)),
            }
        };
        let lhs_n = rng.gen_range(1..3usize);
        let lhs: Vec<(usize, usize)> = attrs[..lhs_n].iter().map(|&a| pair(&mut rng, a)).collect();
        let rhs: Vec<(usize, usize)> = attrs[lhs_n..lhs_n + 1]
            .iter()
            .map(|&a| pair(&mut rng, a))
            .collect();
        let mut pattern = PatternTuple::empty();
        if rng.gen_bool(0.4) {
            let gate = attrs[5];
            pattern = if rng.gen_bool(0.5) {
                pattern.with_eq(gate, Value::str(val(&mut rng)))
            } else {
                pattern.with_ne(gate, Value::str(val(&mut rng)))
            };
        }
        let rule = EditingRule::new(format!("r{r}"), &input, &ms, lhs, rhs, pattern).unwrap();
        rules.add(rule).unwrap();
    }
    let base = rows - rows / 4;
    let relation = RelationBuilder::new(ms).build().unwrap();
    let mut master = MasterData::new(relation);
    master.append_rows(tuples[..base].to_vec()).unwrap();
    (rules, master, tuples[base..].to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn view_search_equals_copy_search_on_random_instances(seed in 0u64..100_000) {
        let (rules, master, appended) = random_instance(seed, 16);
        check(&format!("random {seed}"), &rules, master, appended);
    }
}

#[test]
fn view_search_equals_copy_search_on_the_scenarios() {
    let mut rng = StdRng::seed_from_u64(36);
    let master = uk::generate_master(240, &mut rng);
    let (base, appended) = split(&master, 200);
    check("uk", &uk::rules(), base, appended);

    let master = hosp::generate_master(240, &mut rng);
    let (base, appended) = split(&master, 200);
    check("hosp", &hosp::rules(), base, appended);

    let master = dblp::generate_master(240, &mut rng);
    let (base, appended) = split(&master, 200);
    check("dblp", &dblp::rules(), base, appended);

    let input = Schema::of_strings("in", ["key", "val", "note"]).unwrap();
    let ms = Schema::of_strings("m", ["key", "val"]).unwrap();
    let mut builder = RelationBuilder::new(ms.clone());
    for i in 0..80 {
        builder = builder.row_strs([format!("k{}", i % 70), format!("v{}", i % 75)]);
    }
    let (base, appended) = split(&builder.build().unwrap(), 64);
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
    check("kv", &rules, base, appended);
}

/// A random instance whose master has null cells and four values a
/// column, so keys are shared — by agreeing and disagreeing rows — and
/// some keys or fix values are null. Rules join mostly by name, and a
/// rule joining by name may still fix a foreign attribute (its RHS
/// crosses names). The appended rows copy a base row's cells with one
/// changed or nulled, so a shared key can stop agreeing on an attribute
/// it agreed on: a rule that fired for its truths dies.
fn random_instance_with_nulls(seed: u64) -> (RuleSet, MasterData, Vec<Tuple>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let master_names: Vec<String> = (0..6).map(|i| format!("a{i}")).collect();
    let mut input_names = master_names.clone();
    if rng.gen_bool(0.3) {
        input_names[0] = "x0".to_string();
    }
    for i in (1..input_names.len()).rev() {
        input_names.swap(i, rng.gen_range(0..=i));
    }
    let input = Schema::of_strings("in", input_names.iter().map(String::as_str)).unwrap();
    let ms = Schema::of_strings("m", master_names.iter().map(String::as_str)).unwrap();
    let cell = |rng: &mut StdRng| {
        if rng.gen_bool(0.15) {
            Value::Null
        } else {
            Value::str(format!("v{}", rng.gen_range(0..4u8)))
        }
    };
    let base: Vec<Tuple> = (0..18)
        .map(|_| {
            let values: Vec<Value> = (0..6).map(|_| cell(&mut rng)).collect();
            Tuple::new(ms.clone(), values).unwrap()
        })
        .collect();
    let appended: Vec<Tuple> = (0..6)
        .map(|_| {
            let mut row = base[rng.gen_range(0..base.len())].clone();
            let attr = rng.gen_range(0..6usize);
            row.set(attr, cell(&mut rng)).unwrap();
            row
        })
        .collect();
    let mut rules = RuleSet::new(input.clone(), ms.clone());
    for r in 0..rng.gen_range(2..7usize) {
        let mut attrs: Vec<usize> = (0..6).collect();
        for i in (1..attrs.len()).rev() {
            attrs.swap(i, rng.gen_range(0..=i));
        }
        let pair = |rng: &mut StdRng, a: usize, by_name: f64| match ms.attr_id(input.attr_name(a)) {
            Some(m) if rng.gen_bool(by_name) => (a, m),
            _ => (a, rng.gen_range(0..6)),
        };
        let lhs_n = rng.gen_range(1..3usize);
        let lhs: Vec<(usize, usize)> = attrs[..lhs_n]
            .iter()
            .map(|&a| pair(&mut rng, a, 0.85))
            .collect();
        let rhs = vec![pair(&mut rng, attrs[lhs_n], 0.6)];
        let mut pattern = PatternTuple::empty();
        if rng.gen_bool(0.3) {
            let value = Value::str(format!("v{}", rng.gen_range(0..4u8)));
            pattern = if rng.gen_bool(0.5) {
                pattern.with_eq(attrs[5], value)
            } else {
                pattern.with_ne(attrs[5], value)
            };
        }
        let rule = EditingRule::new(format!("r{r}"), &input, &ms, lhs, rhs, pattern).unwrap();
        rules.add(rule).unwrap();
    }
    let mut master = MasterData::new(RelationBuilder::new(ms).build().unwrap());
    master.append_rows(base).unwrap();
    (rules, master, appended)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn view_search_equals_copy_search_over_masters_with_nulls(seed in 0u64..100_000) {
        let (rules, master, appended) = random_instance_with_nulls(seed);
        check(&format!("nulls {seed}"), &rules, master, appended);
    }
}
