//! Data-level certification of candidate regions.
//!
//! The attribute-level closure (static phase) over-approximates: a rule
//! counted on by the closure can still stall at run time when its join key
//! is absent from master data or matches master tuples that disagree
//! (certain-application semantics). Certification closes that gap by
//! *simulating the correcting process* for every possible ground truth:
//!
//! For each truth tuple `u` in the scenario's universe that matches the
//! candidate pattern, build the input tuple a user would present —
//! `t[Z] = u[Z]` validated, everything else unknown — run the fixpoint,
//! and require (a) every attribute becomes validated and (b) every fixed
//! value equals the truth. A candidate failing for *any* truth is not a
//! certain region.
//!
//! Here the universe is a slice of tuples — generator- or test-built
//! (`cerfix-gen` derives one truth per master tuple per pattern context),
//! mirroring the MDM assumption that entities to be cleaned are
//! represented in `Dm`. This per-candidate fixpoint loop is the oracle;
//! the region search runs the same per-truth check over any
//! [`Universe`](crate::region::Universe), the master rows read in place
//! included.

use crate::engine::{CompiledRules, EngineStats};
use crate::master::MasterData;
use crate::region::lattice::certify_truth_fixpoint;
use cerfix_relation::{AttrSet, Tuple, Value};
use cerfix_rules::{PatternTuple, RuleSet};

/// How much evidence [`certify_region_mode`] gathers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CertifyMode {
    /// Stop at the first failing truth: the verdict is identical, the
    /// failure list holds at most that one truth, and `checked` counts
    /// only the truths examined. The region finder's search loop runs in
    /// this mode — rejected candidates die in O(1) probes.
    Probe,
    /// Examine every applicable truth and report up to 8 failures — the
    /// diagnostic mode behind [`certify_region`].
    Diagnose,
}

/// Outcome of certifying one `(Z, pattern)` candidate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CertifyResult {
    /// True iff every applicable truth tuple reached a full, correct fix.
    pub certified: bool,
    /// Number of universe tuples examined (every applicable one in
    /// [`CertifyMode::Diagnose`]; up to and including the first failure
    /// in [`CertifyMode::Probe`]).
    pub checked: usize,
    /// Indices (into the universe) of failing truths, capped at 8.
    pub failures: Vec<usize>,
    /// Fixpoint work performed (one run per examined truth).
    pub engine: EngineStats,
}

/// Certify candidate attributes `attrs` under `pattern` against the truth
/// `universe`, examining every applicable truth (diagnostic mode).
///
/// Runs one delta fixpoint per applicable truth on the compiled `plan` —
/// this is the **from-scratch** data-phase unit, kept as the oracle the
/// incremental lattice path is property-tested against (the production
/// search uses [`find_regions`](crate::region::find_regions), which
/// memoizes per-truth rule profiles instead of re-running fixpoints).
///
/// An empty applicable set certifies vacuously (`checked == 0`); callers
/// that want non-vacuous regions should check `checked > 0`.
pub fn certify_region(
    plan: &CompiledRules,
    master: &MasterData,
    attrs: &AttrSet,
    pattern: &PatternTuple,
    universe: &[Tuple],
) -> CertifyResult {
    certify_region_mode(
        plan,
        master,
        attrs,
        pattern,
        universe,
        CertifyMode::Diagnose,
    )
}

/// [`certify_region`] with an explicit [`CertifyMode`]: `Probe` stops at
/// the first failing truth (same verdict, O(1) work on rejects), while
/// `Diagnose` gathers the capped failure list on demand.
pub fn certify_region_mode(
    plan: &CompiledRules,
    master: &MasterData,
    attrs: &AttrSet,
    pattern: &PatternTuple,
    universe: &[Tuple],
    mode: CertifyMode,
) -> CertifyResult {
    let mut result = CertifyResult {
        certified: true,
        checked: 0,
        failures: Vec::new(),
        engine: EngineStats::default(),
    };
    let mut input = Tuple::all_null(plan.input_schema().clone());
    for (idx, truth) in universe.iter().enumerate() {
        if !pattern.matches(truth) {
            continue;
        }
        result.checked += 1;
        // Input as the monitor sees it after the user validates Z with the
        // true values: Z cells carry truth, the rest is unknown.
        if !certify_truth_fixpoint(plan, master, attrs, truth, &mut input, &mut result.engine) {
            result.certified = false;
            if result.failures.len() < 8 {
                result.failures.push(idx);
            }
            if mode == CertifyMode::Probe {
                break;
            }
        }
    }
    result
}

/// Convenience: does validating `attrs` yield a full correct fix for this
/// single `truth` tuple? Compiles a throwaway plan — prefer
/// [`certifies_for_with_plan`] anywhere the rule set is already compiled.
pub fn certifies_for(rules: &RuleSet, master: &MasterData, attrs: &AttrSet, truth: &Tuple) -> bool {
    let plan = CompiledRules::compile(rules, master);
    certifies_for_with_plan(&plan, master, attrs, truth)
}

/// Plan-taking form of [`certifies_for`]: one delta fixpoint on an
/// already-compiled plan, no per-call compilation.
pub fn certifies_for_with_plan(
    plan: &CompiledRules,
    master: &MasterData,
    attrs: &AttrSet,
    truth: &Tuple,
) -> bool {
    let mut engine = EngineStats::default();
    let mut input = Tuple::all_null(plan.input_schema().clone());
    certify_truth_fixpoint(plan, master, attrs, truth, &mut input, &mut engine)
}

/// Build the "unknown form" input for a truth tuple: `Z` validated with
/// truth values, other cells null. Exposed for the experiment harness.
pub fn masked_input(truth: &Tuple, attrs: &AttrSet) -> Tuple {
    let mut t = Tuple::all_null(truth.schema().clone());
    for a in attrs {
        t.set(a, truth.get(a).clone()).expect("attr in schema");
    }
    debug_assert!(t
        .values()
        .iter()
        .enumerate()
        .all(|(i, v)| { attrs.contains(i) || matches!(v, Value::Null) }));
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use cerfix_relation::{RelationBuilder, Schema, SchemaRef};
    use cerfix_rules::EditingRule;

    fn plan_for(rules: &RuleSet, master: &MasterData) -> CompiledRules {
        CompiledRules::compile(rules, master)
    }

    /// Two-rule fixture: zip→city and zip→AC, with a master where one zip
    /// key is ambiguous (two rows, different city).
    fn fixture() -> (SchemaRef, RuleSet, MasterData) {
        let input = Schema::of_strings("in", ["AC", "city", "zip"]).unwrap();
        let ms = Schema::of_strings("m", ["AC", "city", "zip"]).unwrap();
        let master = MasterData::new(
            RelationBuilder::new(ms.clone())
                .row_strs(["131", "Edi", "EH8"])
                .row_strs(["020", "Ldn", "SW1"])
                .row_strs(["0141", "Gla", "G12"])
                .row_strs(["0141", "Partick", "G12"]) // ambiguous zip G12 for city
                .build()
                .unwrap(),
        );
        let pair = |n: &str| (input.attr_id(n).unwrap(), ms.attr_id(n).unwrap());
        let mut rules = RuleSet::new(input.clone(), ms.clone());
        rules
            .add(
                EditingRule::new(
                    "zip_city",
                    &input,
                    &ms,
                    vec![pair("zip")],
                    vec![pair("city")],
                    PatternTuple::empty(),
                )
                .unwrap(),
            )
            .unwrap();
        rules
            .add(
                EditingRule::new(
                    "zip_ac",
                    &input,
                    &ms,
                    vec![pair("zip")],
                    vec![pair("AC")],
                    PatternTuple::empty(),
                )
                .unwrap(),
            )
            .unwrap();
        (input, rules, master)
    }

    fn truth(input: &SchemaRef, vals: [&str; 3]) -> Tuple {
        Tuple::of_strings(input.clone(), vals).unwrap()
    }

    #[test]
    fn certifies_clean_universe() {
        let (input, rules, master) = fixture();
        let zip: AttrSet = [input.attr_id("zip").unwrap()].into();
        let universe = vec![
            truth(&input, ["131", "Edi", "EH8"]),
            truth(&input, ["020", "Ldn", "SW1"]),
        ];
        let res = certify_region(
            &plan_for(&rules, &master),
            &master,
            &zip,
            &PatternTuple::empty(),
            &universe,
        );
        assert!(res.certified);
        assert_eq!(res.checked, 2);
        assert!(res.failures.is_empty());
    }

    #[test]
    fn ambiguous_master_key_fails_certification() {
        // G12 maps to two cities: closure says {zip} covers, but the
        // fixpoint stalls on the ambiguous key ⇒ certification must fail.
        let (input, rules, master) = fixture();
        let zip: AttrSet = [input.attr_id("zip").unwrap()].into();
        let universe = vec![
            truth(&input, ["131", "Edi", "EH8"]),
            truth(&input, ["0141", "Gla", "G12"]),
        ];
        let res = certify_region(
            &plan_for(&rules, &master),
            &master,
            &zip,
            &PatternTuple::empty(),
            &universe,
        );
        assert!(!res.certified);
        assert_eq!(res.failures, vec![1]);
        assert_eq!(res.checked, 2);
    }

    #[test]
    fn pattern_scopes_the_check() {
        // Restrict the pattern to zip='EH8': the ambiguous G12 truth is
        // out of scope, so certification succeeds (non-vacuously).
        let (input, rules, master) = fixture();
        let zip_id = input.attr_id("zip").unwrap();
        let zip: AttrSet = [zip_id].into();
        let pattern = PatternTuple::empty().with_eq(zip_id, Value::str("EH8"));
        let universe = vec![
            truth(&input, ["131", "Edi", "EH8"]),
            truth(&input, ["0141", "Gla", "G12"]),
        ];
        let res = certify_region(
            &plan_for(&rules, &master),
            &master,
            &zip,
            &pattern,
            &universe,
        );
        assert!(res.certified);
        assert_eq!(res.checked, 1);
    }

    #[test]
    fn vacuous_certification_is_flagged_by_checked_zero() {
        let (input, rules, master) = fixture();
        let zip_id = input.attr_id("zip").unwrap();
        let pattern = PatternTuple::empty().with_eq(zip_id, Value::str("NOPE"));
        let res = certify_region(
            &plan_for(&rules, &master),
            &master,
            &[zip_id].into(),
            &pattern,
            &[truth(&input, ["131", "Edi", "EH8"])],
        );
        assert!(res.certified);
        assert_eq!(res.checked, 0, "caller must treat checked=0 as vacuous");
    }

    #[test]
    fn unknown_truth_entity_fails() {
        // A truth whose zip is absent from master: the chain never fires.
        let (input, rules, master) = fixture();
        let zip: AttrSet = [input.attr_id("zip").unwrap()].into();
        let res = certify_region(
            &plan_for(&rules, &master),
            &master,
            &zip,
            &PatternTuple::empty(),
            &[truth(&input, ["999", "Nowhere", "ZZ9"])],
        );
        assert!(!res.certified);
    }

    #[test]
    fn insufficient_attrs_fail() {
        // Validating only AC fixes nothing (no rule keys on AC).
        let (input, rules, master) = fixture();
        let ac: AttrSet = [input.attr_id("AC").unwrap()].into();
        assert!(!certifies_for(
            &rules,
            &master,
            &ac,
            &truth(&input, ["131", "Edi", "EH8"])
        ));
        // Validating everything trivially certifies.
        let all: AttrSet = input.all_attr_ids().collect();
        assert!(certifies_for(
            &rules,
            &master,
            &all,
            &truth(&input, ["131", "Edi", "EH8"])
        ));
    }

    #[test]
    fn masked_input_shape() {
        let (input, _, _) = fixture();
        let u = truth(&input, ["131", "Edi", "EH8"]);
        let zip_id = input.attr_id("zip").unwrap();
        let masked = masked_input(&u, &[zip_id].into());
        assert_eq!(masked.get(zip_id), &Value::str("EH8"));
        assert!(masked.get(input.attr_id("AC").unwrap()).is_null());
        assert!(masked.get(input.attr_id("city").unwrap()).is_null());
    }
}
