//! Consistency analysis of editing rules w.r.t. master data.
//!
//! Paper §2 (rule engine): *"It checks the consistency of editing rules,
//! i.e., whether the given rules are dirty themselves"*; §3: *"CerFix
//! automatically tests whether the specified eRs make sense w.r.t. master
//! data, i.e., the rules do not contradict each other and will lead to a
//! unique fix for any input tuple."*
//!
//! Deciding consistency is coNP-complete in general ([7]); for the demo's
//! pattern language (constants, negations, wildcards) the following
//! procedure is **exact** w.r.t. this engine's certain-application
//! semantics:
//!
//! Two rules `φi, φj` sharing a target attribute `B` *conflict* iff there
//! exist join keys `k1` (for `φi`) and `k2` (for `φj`) such that
//!
//! 1. each key has a **unique agreed** fix value in master data (keys with
//!    disagreeing matches never fire under certain-application semantics,
//!    so they cannot cause conflicts — they surface as [`Ambiguity`]
//!    warnings instead);
//! 2. the two derived values for `B` differ;
//! 3. the combined constraints on a hypothetical input tuple — `t[Xi] =
//!    k1`, `t[Xj] = k2`, plus both rules' patterns — are satisfiable
//!    (checked per attribute via [`ConstraintSet`]).
//!
//! Such a tuple would receive a different value for `B` depending on which
//! rule fires first: the correcting process would not be Church–Rosser.
//!
//! Keys are deduplicated (distinct `Xm` projections) and joined hash-style
//! on shared LHS attributes, so the typical cost is far below the naive
//! `|Dm|²` per pair; a `pair_budget` caps worst-case blowup (reported via
//! [`ConsistencyReport::budget_exhausted`]).
//!
//! [`Ambiguity`]: Inconsistency::Ambiguity

use crate::master::MasterData;
use cerfix_relation::{AttrId, Value};
use cerfix_rules::{ConstraintSet, EditingRule, RuleId, RuleSet};
use std::collections::HashMap;

/// A problem found by the consistency checker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Inconsistency {
    /// Two rules can assign different values to the same attribute of some
    /// input tuple: the rule set is inconsistent (order-dependent fixes).
    Conflict {
        /// First rule.
        rule_a: RuleId,
        /// Second rule (may equal `rule_a` when two *different keys* of
        /// the same rule can both match one tuple — impossible for
        /// equality joins, so in practice `rule_a != rule_b`).
        rule_b: RuleId,
        /// The contested input attribute.
        attr: AttrId,
        /// Value derived through `rule_a`.
        value_a: Value,
        /// Value derived through `rule_b`.
        value_b: Value,
        /// Join key of `rule_a` (values of its input LHS attrs).
        key_a: Vec<Value>,
        /// Join key of `rule_b`.
        key_b: Vec<Value>,
    },
    /// A join key of one rule matches master tuples that disagree on a fix
    /// value: not an inconsistency (the rule simply never fires on that
    /// key under certain semantics), but a master-data quality warning.
    Ambiguity {
        /// The rule affected.
        rule: RuleId,
        /// The ambiguous join key.
        key: Vec<Value>,
        /// Number of distinct fix-value combinations observed.
        distinct_values: usize,
    },
}

/// Result of a consistency check.
#[derive(Debug, Clone, Default)]
pub struct ConsistencyReport {
    /// Hard conflicts (rule set inconsistent if non-empty).
    pub conflicts: Vec<Inconsistency>,
    /// Soft warnings (ambiguous keys).
    pub ambiguities: Vec<Inconsistency>,
    /// Number of rule pairs examined.
    pub pairs_checked: usize,
    /// Number of key-pair constraint checks performed.
    pub key_pairs_checked: usize,
    /// True if a pair's key enumeration was cut short by the budget; the
    /// report is then sound but possibly incomplete.
    pub budget_exhausted: bool,
}

impl ConsistencyReport {
    /// True iff no hard conflicts were found.
    pub fn is_consistent(&self) -> bool {
        self.conflicts.is_empty()
    }
}

/// Which input tuples the analysis quantifies over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ConsistencyMode {
    /// **All** possible input tuples, as in the formal definition of [7].
    /// Strict mode can flag rule sets whose conflicts require an input
    /// whose validated evidence belongs to *no* real entity (e.g. the
    /// paper's φ3 `zip→city` vs φ9 `AC→city` conflict only on a tuple
    /// mixing one entity's zip with another entity's area code).
    #[default]
    Strict,
    /// Only input tuples whose validated evidence is jointly realizable
    /// by a single master entity — the demo's operating regime, where
    /// users validate attributes as *correct* for the customer at hand
    /// and master data is the registry of customers (the MDM assumption,
    /// paper §1). The nine paper rules are consistent in this mode.
    EntityCoherent,
}

/// Tuning knobs for [`check_consistency`].
#[derive(Debug, Clone)]
pub struct ConsistencyOptions {
    /// Quantification mode (see `ConsistencyMode`).
    pub mode: ConsistencyMode,
    /// Stop after this many conflicts (the first is enough to reject a
    /// rule set; more help diagnostics).
    pub max_conflicts: usize,
    /// Report at most this many ambiguity warnings.
    pub max_ambiguities: usize,
    /// Cap on key-pair checks per rule pair.
    pub pair_budget: usize,
}

impl Default for ConsistencyOptions {
    fn default() -> Self {
        ConsistencyOptions {
            mode: ConsistencyMode::Strict,
            max_conflicts: 16,
            max_ambiguities: 16,
            pair_budget: 4_000_000,
        }
    }
}

impl ConsistencyOptions {
    /// Default options in `ConsistencyMode::EntityCoherent`.
    pub fn entity_coherent() -> ConsistencyOptions {
        ConsistencyOptions {
            mode: ConsistencyMode::EntityCoherent,
            ..Default::default()
        }
    }
}

/// Per-rule key table: distinct LHS keys with their agreed fix values
/// (`None` when master matches disagree — ambiguous key).
struct KeyTable {
    /// key (Xm projection) → agreed RHS values, or None if ambiguous.
    keys: HashMap<Vec<Value>, Option<Vec<Value>>>,
}

fn build_key_table(rule: &EditingRule, master: &MasterData) -> KeyTable {
    let master_lhs = rule.master_lhs();
    let master_rhs = rule.master_rhs();
    let mut keys: HashMap<Vec<Value>, Option<Vec<Value>>> = HashMap::new();
    for (_, s) in master.relation().iter() {
        let key = s.project(&master_lhs);
        if key.iter().any(Value::is_null) {
            continue; // null keys never match any input tuple
        }
        let values: Vec<Value> = master_rhs.iter().map(|&a| s.get(a).clone()).collect();
        let entry = keys.entry(key).or_insert_with(|| Some(values.clone()));
        if let Some(existing) = entry {
            if *existing != values {
                *entry = None;
            }
        }
    }
    // Null fix values are never applied: treat them as ambiguous keys.
    for v in keys.values_mut() {
        if v.as_ref()
            .is_some_and(|vals| vals.iter().any(Value::is_null))
        {
            *v = None;
        }
    }
    KeyTable { keys }
}

/// Check whether an input tuple can simultaneously carry `t[Xi] = key_a`
/// (plus `pattern_a`) and `t[Xj] = key_b` (plus `pattern_b`).
fn pins_satisfiable(
    rules: &RuleSet,
    rule_a: &EditingRule,
    key_a: &[Value],
    rule_b: &EditingRule,
    key_b: &[Value],
) -> bool {
    let mut constraints: HashMap<AttrId, ConstraintSet> = HashMap::new();
    for (&(t_attr, _), v) in rule_a.lhs().iter().zip(key_a.iter()) {
        constraints.entry(t_attr).or_default().add_eq(v.clone());
    }
    for (&(t_attr, _), v) in rule_b.lhs().iter().zip(key_b.iter()) {
        constraints.entry(t_attr).or_default().add_eq(v.clone());
    }
    for cell in rule_a
        .pattern()
        .cells()
        .iter()
        .chain(rule_b.pattern().cells())
    {
        constraints.entry(cell.attr).or_default().add_op(&cell.op);
    }
    let schema = rules.input_schema();
    constraints.iter().all(|(&attr, cs)| {
        let dtype = schema
            .attribute(attr)
            .expect("validated rule attr")
            .data_type();
        cs.is_satisfiable(dtype)
    })
}

/// Run the consistency analysis over every rule pair.
pub fn check_consistency(
    rules: &RuleSet,
    master: &MasterData,
    options: &ConsistencyOptions,
) -> ConsistencyReport {
    let mut report = ConsistencyReport::default();
    let rule_list: Vec<(RuleId, &EditingRule)> = rules.iter().collect();

    // Key tables once per rule.
    let tables: HashMap<RuleId, KeyTable> = rule_list
        .iter()
        .map(|&(id, r)| (id, build_key_table(r, master)))
        .collect();

    // Ambiguity warnings.
    'amb: for &(id, _) in &rule_list {
        for (key, vals) in &tables[&id].keys {
            if vals.is_none() {
                if report.ambiguities.len() >= options.max_ambiguities {
                    break 'amb;
                }
                report.ambiguities.push(Inconsistency::Ambiguity {
                    rule: id,
                    key: key.clone(),
                    distinct_values: 2, // at least two observed
                });
            }
        }
    }

    // Pairwise conflicts. Key and probe buffers are reused across every
    // row/key pair: values are `Arc`-cheap to clone, but the per-pair
    // vector allocations were not.
    let mut key_a_buf: Vec<Value> = Vec::new();
    let mut key_b_buf: Vec<Value> = Vec::new();
    let mut probe_buf: Vec<Value> = Vec::new();
    for (ia, &(id_a, rule_a)) in rule_list.iter().enumerate() {
        for &(id_b, rule_b) in rule_list.iter().skip(ia + 1) {
            // Shared target attributes.
            let shared_targets: Vec<(usize, usize, AttrId)> = rule_a
                .input_rhs()
                .iter()
                .enumerate()
                .filter_map(|(pa, &b)| {
                    rule_b
                        .input_rhs()
                        .iter()
                        .position(|&b2| b2 == b)
                        .map(|pb| (pa, pb, b))
                })
                .collect();
            if shared_targets.is_empty() {
                continue;
            }
            report.pairs_checked += 1;

            if options.mode == ConsistencyMode::EntityCoherent {
                // Quantify over evidence realizable by one master entity:
                // both keys projected from the same master row.
                let lhs_a = rule_a.master_lhs();
                let lhs_b = rule_b.master_lhs();
                'rows: for (_, s) in master.relation().iter() {
                    if report.key_pairs_checked >= options.pair_budget {
                        report.budget_exhausted = true;
                        break 'rows;
                    }
                    // Borrow first: null checks need no clones at all.
                    if lhs_a
                        .iter()
                        .chain(lhs_b.iter())
                        .any(|&a| s.get(a).is_null())
                    {
                        continue;
                    }
                    key_a_buf.clear();
                    key_a_buf.extend(lhs_a.iter().map(|&a| s.get(a).clone()));
                    key_b_buf.clear();
                    key_b_buf.extend(lhs_b.iter().map(|&a| s.get(a).clone()));
                    let (Some(Some(vals_a)), Some(Some(vals_b))) = (
                        tables[&id_a].keys.get(key_a_buf.as_slice()),
                        tables[&id_b].keys.get(key_b_buf.as_slice()),
                    ) else {
                        continue; // ambiguous or absent key: rule never fires
                    };
                    report.key_pairs_checked += 1;
                    if !shared_targets
                        .iter()
                        .any(|&(pa, pb, _)| vals_a[pa] != vals_b[pb])
                    {
                        continue;
                    }
                    if pins_satisfiable(rules, rule_a, &key_a_buf, rule_b, &key_b_buf) {
                        for &(pa, pb, attr) in &shared_targets {
                            if vals_a[pa] == vals_b[pb] {
                                continue;
                            }
                            report.conflicts.push(Inconsistency::Conflict {
                                rule_a: id_a,
                                rule_b: id_b,
                                attr,
                                value_a: vals_a[pa].clone(),
                                value_b: vals_b[pb].clone(),
                                key_a: key_a_buf.clone(),
                                key_b: key_b_buf.clone(),
                            });
                            if report.conflicts.len() >= options.max_conflicts {
                                return report;
                            }
                        }
                    }
                }
                continue;
            }

            // Strict mode: hash-join keys of rule_b on the shared input LHS attrs.
            let shared_lhs: Vec<(usize, usize)> = rule_a
                .input_lhs()
                .iter()
                .enumerate()
                .filter_map(|(pa, &x)| {
                    rule_b
                        .input_lhs()
                        .iter()
                        .position(|&x2| x2 == x)
                        .map(|pb| (pa, pb))
                })
                .collect();
            #[allow(clippy::type_complexity)]
            let mut b_buckets: HashMap<Vec<Value>, Vec<(&Vec<Value>, &Vec<Value>)>> =
                HashMap::new();
            for (key_b, vals_b) in &tables[&id_b].keys {
                let Some(vals_b) = vals_b else { continue };
                let probe: Vec<Value> = shared_lhs
                    .iter()
                    .map(|&(_, pb)| key_b[pb].clone())
                    .collect();
                b_buckets.entry(probe).or_default().push((key_b, vals_b));
            }

            'keys: for (key_a, vals_a) in &tables[&id_a].keys {
                let Some(vals_a) = vals_a else { continue };
                probe_buf.clear();
                probe_buf.extend(shared_lhs.iter().map(|&(pa, _)| key_a[pa].clone()));
                let Some(bucket) = b_buckets.get(probe_buf.as_slice()) else {
                    continue;
                };
                for &(key_b, vals_b) in bucket {
                    if report.key_pairs_checked >= options.pair_budget {
                        report.budget_exhausted = true;
                        break 'keys;
                    }
                    report.key_pairs_checked += 1;
                    // Any shared target with differing derived values?
                    if !shared_targets
                        .iter()
                        .any(|&(pa, pb, _)| vals_a[pa] != vals_b[pb])
                    {
                        continue;
                    }
                    if pins_satisfiable(rules, rule_a, key_a, rule_b, key_b) {
                        for &(pa, pb, attr) in &shared_targets {
                            if vals_a[pa] == vals_b[pb] {
                                continue;
                            }
                            report.conflicts.push(Inconsistency::Conflict {
                                rule_a: id_a,
                                rule_b: id_b,
                                attr,
                                value_a: vals_a[pa].clone(),
                                value_b: vals_b[pb].clone(),
                                key_a: key_a.clone(),
                                key_b: key_b.clone(),
                            });
                            if report.conflicts.len() >= options.max_conflicts {
                                return report;
                            }
                        }
                    }
                }
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use cerfix_relation::{RelationBuilder, Schema, SchemaRef};
    use cerfix_rules::{PatternTuple, RuleSet};

    fn schemas() -> (SchemaRef, SchemaRef) {
        (
            Schema::of_strings("in", ["AC", "zip", "city", "type"]).unwrap(),
            Schema::of_strings("m", ["AC", "zip", "city"]).unwrap(),
        )
    }

    fn rule(
        name: &str,
        input: &SchemaRef,
        master: &SchemaRef,
        lhs: &str,
        rhs: &str,
        pattern: PatternTuple,
    ) -> EditingRule {
        EditingRule::new(
            name,
            input,
            master,
            vec![(input.attr_id(lhs).unwrap(), master.attr_id(lhs).unwrap())],
            vec![(input.attr_id(rhs).unwrap(), master.attr_id(rhs).unwrap())],
            pattern,
        )
        .unwrap()
    }

    #[test]
    fn consistent_rules_pass() {
        // zip→city and AC→city over master data where every key derives
        // the same city, so no cross pairing can disagree.
        let (input, ms) = schemas();
        let master = MasterData::new(
            RelationBuilder::new(ms.clone())
                .row_strs(["131", "EH8", "Edi"])
                .row_strs(["141", "EH9", "Edi"])
                .build()
                .unwrap(),
        );
        let mut rules = RuleSet::new(input.clone(), ms.clone());
        rules
            .add(rule(
                "zip_city",
                &input,
                &ms,
                "zip",
                "city",
                PatternTuple::empty(),
            ))
            .unwrap();
        rules
            .add(rule(
                "ac_city",
                &input,
                &ms,
                "AC",
                "city",
                PatternTuple::empty(),
            ))
            .unwrap();
        let report = check_consistency(&rules, &master, &ConsistencyOptions::default());
        assert!(report.is_consistent(), "{:?}", report.conflicts);
        assert_eq!(report.pairs_checked, 1);
        assert!(report.ambiguities.is_empty());
        assert!(!report.budget_exhausted);
    }

    #[test]
    fn conflicting_rules_detected() {
        // Master where zip EH8 ↦ city Edi but AC 020 ↦ city Ldn: a tuple
        // with (AC=020, zip=EH8) gets different cities depending on rule
        // order ⇒ conflict.
        let (input, ms) = schemas();
        let master = MasterData::new(
            RelationBuilder::new(ms.clone())
                .row_strs(["131", "EH8", "Edi"])
                .row_strs(["020", "SW1", "Ldn"])
                .build()
                .unwrap(),
        );
        let mut rules = RuleSet::new(input.clone(), ms.clone());
        rules
            .add(rule(
                "zip_city",
                &input,
                &ms,
                "zip",
                "city",
                PatternTuple::empty(),
            ))
            .unwrap();
        rules
            .add(rule(
                "ac_city",
                &input,
                &ms,
                "AC",
                "city",
                PatternTuple::empty(),
            ))
            .unwrap();
        // This master is the same as the consistent one — the conflict
        // exists exactly because zip=EH8 pins Edi while AC=020 pins Ldn
        // and nothing stops a tuple having both.
        let report = check_consistency(&rules, &master, &ConsistencyOptions::default());
        assert!(!report.is_consistent());
        let c = &report.conflicts[0];
        match c {
            Inconsistency::Conflict {
                attr,
                value_a,
                value_b,
                ..
            } => {
                assert_eq!(*attr, input.attr_id("city").unwrap());
                let pair = [value_a.clone(), value_b.clone()];
                assert!(pair.contains(&Value::str("Edi")) && pair.contains(&Value::str("Ldn")));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn consistent_rules_pass_when_master_is_functional() {
        // If every AC maps to the same city as every zip it co-occurs
        // with, no cross assignment conflicts… but with multiple rows a
        // cross pairing (zip from row 1, AC from row 2) conflicts unless
        // the derived values coincide. Single-row master: trivially
        // consistent.
        let (input, ms) = schemas();
        let master = MasterData::new(
            RelationBuilder::new(ms.clone())
                .row_strs(["131", "EH8", "Edi"])
                .build()
                .unwrap(),
        );
        let mut rules = RuleSet::new(input.clone(), ms.clone());
        rules
            .add(rule(
                "zip_city",
                &input,
                &ms,
                "zip",
                "city",
                PatternTuple::empty(),
            ))
            .unwrap();
        rules
            .add(rule(
                "ac_city",
                &input,
                &ms,
                "AC",
                "city",
                PatternTuple::empty(),
            ))
            .unwrap();
        let report = check_consistency(&rules, &master, &ConsistencyOptions::default());
        assert!(report.is_consistent());
    }

    #[test]
    fn patterns_can_rescue_consistency() {
        // Same conflicting master as above, but the AC rule is gated on
        // type='1' and the zip rule on type='2': no tuple satisfies both
        // patterns, so the pair is consistent.
        let (input, ms) = schemas();
        let master = MasterData::new(
            RelationBuilder::new(ms.clone())
                .row_strs(["131", "EH8", "Edi"])
                .row_strs(["020", "SW1", "Ldn"])
                .build()
                .unwrap(),
        );
        let ty = input.attr_id("type").unwrap();
        let mut rules = RuleSet::new(input.clone(), ms.clone());
        rules
            .add(rule(
                "zip_city",
                &input,
                &ms,
                "zip",
                "city",
                PatternTuple::empty().with_eq(ty, Value::str("2")),
            ))
            .unwrap();
        rules
            .add(rule(
                "ac_city",
                &input,
                &ms,
                "AC",
                "city",
                PatternTuple::empty().with_eq(ty, Value::str("1")),
            ))
            .unwrap();
        let report = check_consistency(&rules, &master, &ConsistencyOptions::default());
        assert!(report.is_consistent(), "{:?}", report.conflicts);
    }

    #[test]
    fn negation_pattern_interacts_with_pins() {
        // φ9-style rule AC→city with pattern AC≠'020', against zip→city.
        // The only conflicting pin requires AC=020 — excluded by the
        // pattern, so consistent.
        let (input, ms) = schemas();
        let master = MasterData::new(
            RelationBuilder::new(ms.clone())
                .row_strs(["131", "EH8", "Edi"])
                .row_strs(["020", "SW1", "Ldn"])
                .build()
                .unwrap(),
        );
        let ac = input.attr_id("AC").unwrap();
        let mut rules = RuleSet::new(input.clone(), ms.clone());
        rules
            .add(rule(
                "zip_city",
                &input,
                &ms,
                "zip",
                "city",
                PatternTuple::empty(),
            ))
            .unwrap();
        rules
            .add(rule(
                "ac_city",
                &input,
                &ms,
                "AC",
                "city",
                PatternTuple::empty().with_ne(ac, Value::str("020")),
            ))
            .unwrap();
        // Conflicts would need (zip=EH8 ⇒ Edi) vs (AC=020 ⇒ Ldn), but the
        // pattern kills AC=020; (zip=SW1 ⇒ Ldn) vs (AC=131 ⇒ Edi) remains!
        let report = check_consistency(&rules, &master, &ConsistencyOptions::default());
        assert!(!report.is_consistent(), "SW1+131 pairing still conflicts");
        // Now also gate the zip rule on AC='020' — every surviving pairing
        // is then unsatisfiable (zip rule needs AC=020, AC rule forbids it;
        // AC=020 key of the AC rule is pattern-dead too).
        let mut rules2 = RuleSet::new(input.clone(), ms.clone());
        rules2
            .add(rule(
                "zip_city",
                &input,
                &ms,
                "zip",
                "city",
                PatternTuple::empty().with_eq(ac, Value::str("020")),
            ))
            .unwrap();
        rules2
            .add(rule(
                "ac_city",
                &input,
                &ms,
                "AC",
                "city",
                PatternTuple::empty().with_ne(ac, Value::str("020")),
            ))
            .unwrap();
        let report2 = check_consistency(&rules2, &master, &ConsistencyOptions::default());
        // zip rule pins AC=020 via pattern; AC rule forbids 020 via
        // pattern and pins AC=key. For key=131: {AC=020} ∧ {AC=131} unsat.
        // For key=020: pattern ≠020 unsat. So consistent.
        assert!(report2.is_consistent(), "{:?}", report2.conflicts);
    }

    #[test]
    fn ambiguous_keys_warn_but_do_not_conflict() {
        // AC 131 maps to two cities in master: the AC→city rule never
        // fires on 131 (certain semantics), so only a warning results.
        let (input, ms) = schemas();
        let master = MasterData::new(
            RelationBuilder::new(ms.clone())
                .row_strs(["131", "EH8", "Edi"])
                .row_strs(["131", "EH9", "Leith"])
                .build()
                .unwrap(),
        );
        let mut rules = RuleSet::new(input.clone(), ms.clone());
        rules
            .add(rule(
                "ac_city",
                &input,
                &ms,
                "AC",
                "city",
                PatternTuple::empty(),
            ))
            .unwrap();
        let report = check_consistency(&rules, &master, &ConsistencyOptions::default());
        assert!(report.is_consistent());
        assert_eq!(report.ambiguities.len(), 1);
        match &report.ambiguities[0] {
            Inconsistency::Ambiguity { key, .. } => assert_eq!(key[0], Value::str("131")),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn same_rhs_different_semantics_no_shared_target_no_check() {
        let (input, ms) = schemas();
        let master = MasterData::new(
            RelationBuilder::new(ms.clone())
                .row_strs(["131", "EH8", "Edi"])
                .build()
                .unwrap(),
        );
        let mut rules = RuleSet::new(input.clone(), ms.clone());
        rules
            .add(rule(
                "zip_city",
                &input,
                &ms,
                "zip",
                "city",
                PatternTuple::empty(),
            ))
            .unwrap();
        rules
            .add(rule(
                "zip_ac",
                &input,
                &ms,
                "zip",
                "AC",
                PatternTuple::empty(),
            ))
            .unwrap();
        let report = check_consistency(&rules, &master, &ConsistencyOptions::default());
        assert_eq!(
            report.pairs_checked, 0,
            "disjoint targets are never in conflict"
        );
        assert!(report.is_consistent());
    }

    #[test]
    fn shared_lhs_attr_prunes_cross_pairs() {
        // Both rules key on zip: keys must be equal to co-occur, and equal
        // keys derive equal values, so no conflicts — and the hash join
        // must examine only diagonal pairs.
        let (input, ms) = schemas();
        let mut b = RelationBuilder::new(ms.clone());
        for i in 0..50 {
            b = b.row_strs([format!("ac{i}"), format!("z{i}"), format!("c{i}")]);
        }
        let master = MasterData::new(b.build().unwrap());
        let mut rules = RuleSet::new(input.clone(), ms.clone());
        rules
            .add(rule(
                "zip_city_a",
                &input,
                &ms,
                "zip",
                "city",
                PatternTuple::empty(),
            ))
            .unwrap();
        rules
            .add(rule(
                "zip_city_b",
                &input,
                &ms,
                "zip",
                "city",
                PatternTuple::empty(),
            ))
            .unwrap();
        let report = check_consistency(&rules, &master, &ConsistencyOptions::default());
        assert!(report.is_consistent());
        assert_eq!(report.key_pairs_checked, 50, "diagonal only, not 50×50");
    }

    #[test]
    fn budget_caps_work() {
        // Two rules with disjoint LHS ⇒ full cross product of keys; a tiny
        // budget must stop early and flag it.
        let (input, ms) = schemas();
        let mut b = RelationBuilder::new(ms.clone());
        for i in 0..30 {
            // All same city ⇒ no conflicts, but still lots of pairs.
            b = b.row_strs([format!("ac{i}"), format!("z{i}"), "Edi".to_string()]);
        }
        let master = MasterData::new(b.build().unwrap());
        let mut rules = RuleSet::new(input.clone(), ms.clone());
        rules
            .add(rule(
                "zip_city",
                &input,
                &ms,
                "zip",
                "city",
                PatternTuple::empty(),
            ))
            .unwrap();
        rules
            .add(rule(
                "ac_city",
                &input,
                &ms,
                "AC",
                "city",
                PatternTuple::empty(),
            ))
            .unwrap();
        let opts = ConsistencyOptions {
            pair_budget: 10,
            ..Default::default()
        };
        let report = check_consistency(&rules, &master, &opts);
        assert!(report.budget_exhausted);
        assert_eq!(report.key_pairs_checked, 10);
    }

    #[test]
    fn entity_coherent_mode_accepts_the_paper_rules_shape() {
        // φ3-style zip→city and φ9-style AC→city over a two-city master:
        // strictly inconsistent (mixing one entity's zip with another's
        // AC), but consistent over entity-coherent inputs because each
        // master row's zip and AC derive the same city.
        let (input, ms) = schemas();
        let master = MasterData::new(
            RelationBuilder::new(ms.clone())
                .row_strs(["131", "EH8", "Edi"])
                .row_strs(["020", "SW1", "Ldn"])
                .build()
                .unwrap(),
        );
        let mut rules = RuleSet::new(input.clone(), ms.clone());
        rules
            .add(rule(
                "zip_city",
                &input,
                &ms,
                "zip",
                "city",
                PatternTuple::empty(),
            ))
            .unwrap();
        rules
            .add(rule(
                "ac_city",
                &input,
                &ms,
                "AC",
                "city",
                PatternTuple::empty(),
            ))
            .unwrap();
        let strict = check_consistency(&rules, &master, &ConsistencyOptions::default());
        assert!(!strict.is_consistent());
        let coherent = check_consistency(&rules, &master, &ConsistencyOptions::entity_coherent());
        assert!(coherent.is_consistent(), "{:?}", coherent.conflicts);
        assert_eq!(coherent.key_pairs_checked, 2, "one check per master row");
    }

    #[test]
    fn entity_coherent_catches_intra_row_disagreement() {
        // Two rules fix the same input attribute from *different* master
        // columns: `city` from `city` (keyed on zip) and `city` from
        // `mail_city` (keyed on AC). A master row whose own two columns
        // disagree yields an entity-coherent conflict - a single real
        // entity's validated evidence derives two different fixes.
        let input = Schema::of_strings("in", ["AC", "zip", "city", "type"]).unwrap();
        let ms = Schema::of_strings("m", ["AC", "zip", "city", "mail_city"]).unwrap();
        let pair = |l: &str, r: &str| (input.attr_id(l).unwrap(), ms.attr_id(r).unwrap());
        let mut rules = RuleSet::new(input.clone(), ms.clone());
        rules
            .add(
                EditingRule::new(
                    "zip_city",
                    &input,
                    &ms,
                    vec![pair("zip", "zip")],
                    vec![pair("city", "city")],
                    PatternTuple::empty(),
                )
                .unwrap(),
            )
            .unwrap();
        rules
            .add(
                EditingRule::new(
                    "ac_mailcity",
                    &input,
                    &ms,
                    vec![pair("AC", "AC")],
                    vec![pair("city", "mail_city")],
                    PatternTuple::empty(),
                )
                .unwrap(),
            )
            .unwrap();
        // Row 0 is internally consistent; row 1's residential and mail
        // cities disagree.
        let master = MasterData::new(
            RelationBuilder::new(ms.clone())
                .row_strs(["131", "EH8", "Edi", "Edi"])
                .row_strs(["141", "G12", "Gla", "Paisley"])
                .build()
                .unwrap(),
        );
        let coherent = check_consistency(&rules, &master, &ConsistencyOptions::entity_coherent());
        assert!(!coherent.is_consistent());
        match &coherent.conflicts[0] {
            Inconsistency::Conflict {
                value_a, value_b, ..
            } => {
                let pair = [value_a.clone(), value_b.clone()];
                assert!(pair.contains(&Value::str("Gla")) && pair.contains(&Value::str("Paisley")));
            }
            other => panic!("{other:?}"),
        }
        // Ambiguous keys are skipped in this mode too: duplicating AC 141
        // with a different mail_city kills the AC rule on that key.
        let master2 = MasterData::new(
            RelationBuilder::new(ms.clone())
                .row_strs(["131", "EH8", "Edi", "Edi"])
                .row_strs(["141", "G12", "Gla", "Paisley"])
                .row_strs(["141", "G13", "Gla", "Renfrew"])
                .build()
                .unwrap(),
        );
        let coherent2 = check_consistency(&rules, &master2, &ConsistencyOptions::entity_coherent());
        assert!(coherent2.is_consistent(), "{:?}", coherent2.conflicts);
        assert!(!coherent2.ambiguities.is_empty());
    }

    #[test]
    fn max_conflicts_truncates() {
        let (input, ms) = schemas();
        let mut b = RelationBuilder::new(ms.clone());
        for i in 0..10 {
            b = b.row_strs([format!("ac{i}"), format!("z{i}"), format!("city{i}")]);
        }
        let master = MasterData::new(b.build().unwrap());
        let mut rules = RuleSet::new(input.clone(), ms.clone());
        rules
            .add(rule(
                "zip_city",
                &input,
                &ms,
                "zip",
                "city",
                PatternTuple::empty(),
            ))
            .unwrap();
        rules
            .add(rule(
                "ac_city",
                &input,
                &ms,
                "AC",
                "city",
                PatternTuple::empty(),
            ))
            .unwrap();
        let opts = ConsistencyOptions {
            max_conflicts: 3,
            ..Default::default()
        };
        let report = check_consistency(&rules, &master, &opts);
        assert_eq!(report.conflicts.len(), 3);
    }
}
