//! The delta-driven correcting process.
//!
//! The pass-based reference engine ([`run_fixpoint`]) sweeps the whole
//! rule set until quiescence: O(passes × |rules|) attempts, most of
//! which re-discover that nothing changed. This engine exploits the two
//! monotonicity facts that make re-attempts pointless:
//!
//! 1. **Validated evidence is frozen.** Once a rule's full evidence
//!    `X ∪ Xp` is validated, its pattern verdict and its master lookup
//!    can never change for the rest of the run — whatever the first
//!    attempt concludes (fire, no match, ambiguous, pattern dead) is
//!    final. So every rule needs **at most one attempt**, taken at the
//!    moment its evidence completes.
//! 2. **Eligibility only ever grows**, and it grows exactly when an
//!    attribute becomes validated — so the plan's per-attribute watch
//!    lists identify precisely which rules a firing can unblock.
//!
//! The worklist is swept in ascending rule order with a wrap-around
//! cursor, which reproduces the pass-based engine's *effectful* attempt
//! sequence exactly (a rule unblocked by an earlier-positioned firing
//! runs in the same sweep; one unblocked by a later-positioned firing
//! waits for the next sweep, just as the pass loop would). Identical
//! attempt order means identical fixes, identical fix *order*, identical
//! validated sets, and identical errors — the equivalence property test
//! in `tests/engine_equivalence.rs` asserts all four — while total work
//! drops to O(rule firings + |rules|).
//!
//! On the lookup side, the plan supplies resolved index snapshots, flat
//! key layouts and key groups: the rules of a group join on the same
//! `(X, Xm)`, and since a rule is attempted only once `X` is validated
//! and frozen, they would all ask about the same key. So the first of
//! them to reach its lookup probes the index — one probe, independent of
//! how many master rows share the key — and its siblings read the
//! posting from the run's key memo; each still gets its own verdict on
//! its own `Bm`. The key buffer, the memo, the worklist and the report
//! live in a [`FixpointScratch`] the engine's driver owns, so a run on a
//! warmed scratch allocates nothing.
//!
//! [`run_fixpoint`]: crate::engine::run_fixpoint

use crate::engine::application::apply_fix_values;
use crate::engine::compile::{CompiledRules, KeyMemo};
use crate::engine::fixpoint::FixpointReport;
use crate::engine::stats::EngineStats;
use crate::error::Result;
use crate::master::MasterData;
use cerfix_relation::{AttrSet, Tuple, Value};

/// The buffers one run of the correcting process fills: its report, the
/// projected join key, the key memo and the rule worklist. Whoever
/// drives the engine owns one and hands it to every run
/// ([`run_fixpoint_delta_into`], `DataMonitor::apply_validation_into`);
/// each run clears and refills it, so once the buffers have grown to a
/// run's size a run allocates nothing.
#[derive(Debug, Default)]
pub struct FixpointScratch {
    report: FixpointReport,
    key_buf: Vec<Value>,
    /// The index probes of this run, one per key group.
    keys: KeyMemo,
    /// Rule positions awaiting their single attempt.
    pending: AttrSet,
    /// Rule positions ever enqueued (an attempted rule is never
    /// re-attempted).
    enqueued: AttrSet,
}

impl FixpointScratch {
    /// The report of the last run (partial if it failed).
    pub fn report(&self) -> &FixpointReport {
        &self.report
    }

    /// The last run's report, by value.
    pub fn into_report(self) -> FixpointReport {
        self.report
    }
}

/// Run the correcting process on `tuple` using a compiled plan.
///
/// Semantically identical to [`run_fixpoint`](crate::engine::run_fixpoint)
/// over the plan's source rule set (equivalence-tested), with work
/// O(firings + |rules|) instead of O(passes × |rules|). `passes` in the
/// returned report counts worklist sweeps (≥ 1, never more than the
/// pass-based engine's pass count). [`run_fixpoint_delta_into`] on a
/// fresh scratch.
pub fn run_fixpoint_delta(
    plan: &CompiledRules,
    master: &MasterData,
    tuple: &mut Tuple,
    validated: &mut AttrSet,
) -> Result<FixpointReport> {
    let mut scratch = FixpointScratch::default();
    run_fixpoint_delta_into(plan, master, tuple, validated, &mut scratch)?;
    Ok(scratch.into_report())
}

/// [`run_fixpoint_delta`] on buffers the caller owns: `scratch` is
/// cleared, the run fills it, and the report it returns lives there
/// until the next run.
pub fn run_fixpoint_delta_into<'s>(
    plan: &CompiledRules,
    master: &MasterData,
    tuple: &mut Tuple,
    validated: &mut AttrSet,
    scratch: &'s mut FixpointScratch,
) -> Result<&'s FixpointReport> {
    debug_assert_eq!(
        plan.master_generation(),
        master.generation(),
        "compiled plan is stale: master data was appended to after compile"
    );
    debug_assert_eq!(plan.input_schema().arity(), tuple.arity());
    let FixpointScratch {
        report,
        key_buf,
        keys,
        pending,
        enqueued,
    } = scratch;
    keys.clear();
    report.fixes.clear();
    report.newly_validated.clear();
    report.passes = 1;
    report.rule_firings = 0;
    report.stats = EngineStats {
        fixpoint_runs: 1,
        ..EngineStats::default()
    };

    pending.clear();
    enqueued.clear();
    let masks = plan.masks();
    for pos in 0..plan.rules.len() {
        if masks.evidence(pos).is_subset(validated) {
            pending.insert(pos);
            enqueued.insert(pos);
        }
    }

    let mut cursor = 0usize;
    loop {
        let Some(pos) = pending.next_at_or_after(cursor) else {
            if pending.is_empty() {
                break;
            }
            // Rules enqueued behind the cursor: start the next sweep,
            // mirroring the pass-based engine's next pass.
            cursor = 0;
            report.passes += 1;
            continue;
        };
        pending.remove(pos);
        cursor = pos + 1;
        let rule = &plan.rules[pos];
        report.stats.rule_attempts += 1;

        // Another rule validated the whole RHS in the meantime: nothing
        // left to derive (the pass-based engine's AlreadyCovered).
        if masks.rhs(pos).is_subset(validated) {
            continue;
        }
        // The pattern reads evidence cells only, and those are validated
        // and frozen: a mismatch now is permanent — the rule is dead.
        if !rule.pattern.matches(tuple) {
            continue;
        }

        // Certain lookup: one probe of the plan's index snapshot per key
        // group, however many master rows share the key and however many
        // rules join on it (a scan on the unindexed ablation arm). No
        // match, disagreement, or a null fix value: with frozen evidence
        // the lookup can never improve — the rule is dead.
        report.stats.master_lookups += 1;
        let probes = &mut report.stats.index_probes;
        let Some(witness) = plan.lookup(pos, master, tuple, key_buf, keys, probes) else {
            continue;
        };
        let first = master.tuple(witness).expect("index row in range");

        // Fire: copy the agreed master values and expand the validated
        // set through the application routine shared with `apply_rule`,
        // then wake exactly the rules watching a newly validated
        // attribute.
        let before = report.newly_validated.len();
        apply_fix_values(
            rule.id,
            &rule.name,
            witness,
            rule.input_rhs
                .iter()
                .copied()
                .zip(rule.master_rhs.iter().map(|&bm| first.get(bm))),
            tuple,
            validated,
            &mut report.fixes,
            &mut report.newly_validated,
        )?;
        if report.newly_validated.len() > before {
            report.rule_firings += 1;
        }
        for i in before..report.newly_validated.len() {
            let b = report.newly_validated[i];
            for &w in plan.watchers(b) {
                let w = w as usize;
                if !enqueued.contains(w) && masks.evidence(w).is_subset(validated) {
                    enqueued.insert(w);
                    pending.insert(w);
                }
            }
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run_fixpoint;
    use crate::error::CerfixError;
    use cerfix_relation::{RelationBuilder, Schema, SchemaRef};
    use cerfix_rules::{EditingRule, PatternTuple, RuleSet};

    /// A 3-stage chain added in *reverse* order, so the pass-based engine
    /// needs multiple passes and the delta engine's worklist has to wrap.
    fn reverse_chain() -> (SchemaRef, RuleSet, MasterData) {
        let input = Schema::of_strings("in", ["zip", "AC", "city", "str"]).unwrap();
        let ms = Schema::of_strings("m", ["zip", "AC", "city", "str"]).unwrap();
        let md = MasterData::new(
            RelationBuilder::new(ms.clone())
                .row_strs(["EH8", "131", "Edi", "Elm St"])
                .row_strs(["SW1", "020", "Ldn", "Oak Rd"])
                .build()
                .unwrap(),
        );
        let pair = |n: &str| (input.attr_id(n).unwrap(), ms.attr_id(n).unwrap());
        let mut rules = RuleSet::new(input.clone(), ms.clone());
        for (name, l, r) in [
            ("city_str", "city", "str"),
            ("ac_city", "AC", "city"),
            ("zip_ac", "zip", "AC"),
        ] {
            rules
                .add(
                    EditingRule::new(
                        name,
                        &input,
                        &ms,
                        vec![pair(l)],
                        vec![pair(r)],
                        PatternTuple::empty(),
                    )
                    .unwrap(),
                )
                .unwrap();
        }
        (input, rules, md)
    }

    #[test]
    fn matches_pass_based_engine_on_reverse_chain() {
        let (input, rules, md) = reverse_chain();
        let plan = CompiledRules::compile(&rules, &md);
        let seed: AttrSet = [input.attr_id("zip").unwrap()].into();

        let mut t_ref = Tuple::of_strings(input.clone(), ["EH8", "x", "y", "z"]).unwrap();
        let mut v_ref = seed.clone();
        let ref_report = run_fixpoint(&rules, &md, &mut t_ref, &mut v_ref).unwrap();

        let mut t = Tuple::of_strings(input.clone(), ["EH8", "x", "y", "z"]).unwrap();
        let mut v = seed;
        let report = run_fixpoint_delta(&plan, &md, &mut t, &mut v).unwrap();

        assert_eq!(t, t_ref);
        assert_eq!(v, v_ref);
        assert_eq!(report.fixes, ref_report.fixes, "identical fixes, in order");
        assert_eq!(report.newly_validated, ref_report.newly_validated);
        assert_eq!(report.rule_firings, 3);
        // The whole point: strictly fewer attempts than passes × rules.
        assert!(
            report.stats.rule_attempts < ref_report.stats.rule_attempts,
            "delta {} vs pass-based {}",
            report.stats.rule_attempts,
            ref_report.stats.rule_attempts
        );
        assert_eq!(report.stats.rule_attempts, 3, "each rule attempted once");
        assert!(report.passes <= ref_report.passes);
    }

    #[test]
    fn dead_rules_are_attempted_once_and_dropped() {
        let (input, rules, md) = reverse_chain();
        let plan = CompiledRules::compile(&rules, &md);
        // zip absent from master: zip_ac is eligible but can never fire.
        let mut t = Tuple::of_strings(input.clone(), ["ZZ9", "x", "y", "z"]).unwrap();
        let mut v: AttrSet = [input.attr_id("zip").unwrap()].into();
        let report = run_fixpoint_delta(&plan, &md, &mut t, &mut v).unwrap();
        assert_eq!(v.len(), 1);
        assert!(report.fixes.is_empty());
        assert_eq!(report.stats.rule_attempts, 1, "only the eligible rule");
        assert_eq!(report.stats.master_lookups, 1);
    }

    #[test]
    fn nothing_eligible_attempts_nothing() {
        let (input, rules, md) = reverse_chain();
        let plan = CompiledRules::compile(&rules, &md);
        let mut t = Tuple::of_strings(input.clone(), ["EH8", "x", "y", "z"]).unwrap();
        let mut v = AttrSet::new();
        let report = run_fixpoint_delta(&plan, &md, &mut t, &mut v).unwrap();
        assert!(v.is_empty());
        assert_eq!(report.stats.rule_attempts, 0);
        assert_eq!(report.passes, 1);
    }

    #[test]
    fn scan_fallback_matches_indexed_plan() {
        let (input, rules, md) = reverse_chain();
        let unindexed = MasterData::new_unindexed(md.relation().clone());
        let plan_idx = CompiledRules::compile(&rules, &md);
        let plan_scan = CompiledRules::compile(&rules, &unindexed);
        for zip in ["EH8", "SW1", "nope"] {
            let seed: AttrSet = [input.attr_id("zip").unwrap()].into();
            let mut t1 = Tuple::of_strings(input.clone(), [zip, "x", "y", "z"]).unwrap();
            let mut v1 = seed.clone();
            let r1 = run_fixpoint_delta(&plan_idx, &md, &mut t1, &mut v1).unwrap();
            let mut t2 = Tuple::of_strings(input.clone(), [zip, "x", "y", "z"]).unwrap();
            let mut v2 = seed;
            let r2 = run_fixpoint_delta(&plan_scan, &unindexed, &mut t2, &mut v2).unwrap();
            assert_eq!(t1, t2, "zip={zip}");
            assert_eq!(v1, v2);
            assert_eq!(r1.fixes, r2.fixes);
            assert_eq!(r1.stats.master_lookups, r2.stats.master_lookups);
            assert_eq!(r2.stats.index_probes, 0, "scan arm never probes");
            assert!(r1.stats.index_probes > 0 || zip == "nope");
        }
    }

    #[test]
    fn validated_cell_conflict_is_surfaced() {
        // A multi-RHS rule whose `AC` target is already validated with a
        // value that contradicts master data: the rule still fires (its
        // `city` target is open) and must error on `AC` rather than
        // overwrite the validated cell.
        let input = Schema::of_strings("in", ["zip", "AC", "city"]).unwrap();
        let ms = Schema::of_strings("m", ["zip", "AC", "city"]).unwrap();
        let md = MasterData::new(
            RelationBuilder::new(ms.clone())
                .row_strs(["EH8", "131", "Edi"])
                .build()
                .unwrap(),
        );
        let pair = |n: &str| (input.attr_id(n).unwrap(), ms.attr_id(n).unwrap());
        let mut rules = RuleSet::new(input.clone(), ms.clone());
        rules
            .add(
                EditingRule::new(
                    "zip_ac_city",
                    &input,
                    &ms,
                    vec![pair("zip")],
                    vec![pair("AC"), pair("city")],
                    PatternTuple::empty(),
                )
                .unwrap(),
            )
            .unwrap();
        let plan = CompiledRules::compile(&rules, &md);
        // zip pins AC=131, but the user validated AC=020.
        let seed: AttrSet = [input.attr_id("zip").unwrap(), input.attr_id("AC").unwrap()].into();
        let mut t = Tuple::of_strings(input.clone(), ["EH8", "020", "?"]).unwrap();
        let mut v = seed.clone();
        let err = run_fixpoint_delta(&plan, &md, &mut t, &mut v).unwrap_err();
        assert!(matches!(err, CerfixError::ValidatedCellConflict { .. }));
        // The pass-based engine errors identically.
        let mut t2 = Tuple::of_strings(input.clone(), ["EH8", "020", "?"]).unwrap();
        let mut v2 = seed;
        let err2 = run_fixpoint(&rules, &md, &mut t2, &mut v2).unwrap_err();
        assert_eq!(err.to_string(), err2.to_string());
    }
}
