//! The inference system: static reasoning about what *can* be validated.
//!
//! Paper §2 (rule engine): *"provided that some attributes of a tuple are
//! correct, it automatically derives what other attributes can be
//! validated by using editing rules and master data."*
//!
//! This module reasons at the *attribute* level: a rule `(X → B, tp)` is a
//! hyperedge from its evidence set `X ∪ Xp` to `B`. The closure of a seed
//! set under enabled rules over-approximates what the data-level fixpoint
//! can validate (data-level runs can stall on missing or ambiguous master
//! matches — the region *certification* step accounts for that).
//!
//! [`AttrSet`] masks are the only currency. [`RuleMasks`] holds one
//! `(evidence, RHS)` pair per rule, compiled once from the rule set and
//! needing no master data; *which* rules may be counted on is an
//! [`AttrSet`] of rule positions the caller computes once per question —
//! the monitor's live-rule mask (pattern not falsified by validated
//! cells, rule not stalled), the region finder's context-entailment mask.
//! Everything else is word sweeps over those masks: one closure
//! ([`RuleMasks::closure`]) and one enumeration of candidate picks by
//! size serve both the monitor's new suggestion
//! ([`RuleMasks::suggestion`]: the first cover found, exact for at most
//! 16 candidate attributes, greedy-then-prune above) and the region
//! finder's static phase ([`RuleMasks::minimal_covers`]: every minimal
//! cover). On schemas and rule sets of at most 64 entries the sets are
//! single words: an exact suggestion allocates nothing.

use cerfix_relation::{AttrId, AttrSet};
use cerfix_rules::RuleSet;
use std::ops::ControlFlow;

/// Most candidate attributes the suggestion searches exactly
/// (`2^16` closures at worst); wider candidate sets go greedy.
const EXACT_LIMIT: usize = 16;

/// The rule set as the inference system sees it: per rule position (the
/// rule's rank in [`RuleSet::iter`] order) its evidence mask `X ∪ Xp` and
/// its RHS mask `B`. [`CompiledRules`](crate::engine::CompiledRules)
/// embeds one; the region finder builds one straight from the rules.
#[derive(Debug, Clone)]
pub struct RuleMasks {
    arity: usize,
    edges: Vec<(AttrSet, AttrSet)>,
}

impl RuleMasks {
    /// Compile the masks of `rules`.
    pub fn of(rules: &RuleSet) -> RuleMasks {
        RuleMasks {
            arity: rules.input_schema().arity(),
            edges: rules
                .iter()
                .map(|(_, r)| {
                    (
                        r.evidence_attrs().into_iter().collect(),
                        r.input_rhs().into_iter().collect(),
                    )
                })
                .collect(),
        }
    }

    /// The mask that enables every rule.
    pub fn all_rules(&self) -> AttrSet {
        (0..self.edges.len()).collect()
    }

    /// Evidence mask `X ∪ Xp` of the rule at `pos`: every bit must be
    /// validated for the rule to fire.
    pub(crate) fn evidence(&self, pos: usize) -> &AttrSet {
        &self.edges[pos].0
    }

    /// RHS mask `B` of the rule at `pos`.
    pub(crate) fn rhs(&self, pos: usize) -> &AttrSet {
        &self.edges[pos].1
    }

    /// The closure of `seed` under the `enabled` rules: repeatedly add
    /// the RHS of every rule whose evidence is contained in the current
    /// set. Stops early once the whole schema is covered.
    pub fn closure(&self, enabled: &AttrSet, seed: &AttrSet) -> AttrSet {
        let mut closed = seed.clone();
        let mut pending = enabled.clone();
        let mut progressed = true;
        while progressed && closed.len() < self.arity {
            progressed = false;
            let mut cursor = 0;
            while let Some(pos) = pending.next_at_or_after(cursor) {
                cursor = pos + 1;
                let (evidence, rhs) = &self.edges[pos];
                if evidence.is_subset(&closed) {
                    pending.remove(pos); // rule consumed
                    progressed |= closed.union_with(rhs);
                }
            }
        }
        closed
    }

    /// True iff the closure of `seed` covers the whole input schema.
    pub fn spans(&self, enabled: &AttrSet, seed: &AttrSet) -> bool {
        self.closure(enabled, seed).len() == self.arity
    }

    /// Attributes that no enabled rule can fix: these must be validated
    /// by the user in every certain region (`item`, `phn` and `type` in
    /// the paper's UK scenario).
    pub fn unfixable(&self, enabled: &AttrSet) -> AttrSet {
        let mut unfixable: AttrSet = (0..self.arity).collect();
        for pos in enabled {
            unfixable.subtract(self.rhs(pos));
        }
        unfixable
    }

    /// Attributes worth considering as extra evidence: anything that
    /// appears in some enabled rule's evidence set. Validating an
    /// attribute that no rule reads (and that rules can fix) is wasted
    /// user effort.
    pub fn useful_evidence(&self, enabled: &AttrSet) -> AttrSet {
        let mut useful = AttrSet::new();
        for pos in enabled {
            useful.union_with(self.evidence(pos));
        }
        useful
    }

    /// Enumerate **all minimal** extra-evidence sets `S ⊆ candidates`
    /// (ascending attribute ids) such that `closure(base ∪ S)` covers the
    /// whole schema, in ascending size and lexicographic order within a
    /// size.
    ///
    /// Exhaustive by increasing cardinality with an antichain filter,
    /// which is exact for the schema widths of entity data (the search
    /// space is `2^|candidates|` where candidates are the useful evidence
    /// attributes — at most a dozen in the paper's scenarios). `max_size`
    /// bounds the search and `max_results` the output.
    pub fn minimal_covers(
        &self,
        enabled: &AttrSet,
        base: &AttrSet,
        candidates: &[AttrId],
        max_size: usize,
        max_results: usize,
    ) -> Vec<AttrSet> {
        if self.spans(enabled, base) {
            return vec![AttrSet::new()];
        }
        let mut covers: Vec<AttrSet> = Vec::new();
        for size in 1..=max_size.min(candidates.len()) {
            let search = for_each_pick(&mut AttrSet::new(), candidates, size, &mut |picked| {
                // Antichain: skip supersets of an already-found cover.
                if !covers.iter().any(|c| c.is_subset(picked))
                    && self.spans_with(enabled, base, picked)
                {
                    covers.push(picked.clone());
                    if covers.len() >= max_results {
                        return ControlFlow::Break(());
                    }
                }
                ControlFlow::Continue(())
            });
            if search.is_break() {
                break;
            }
        }
        covers
    }

    /// The first cover [`minimal_covers`](Self::minimal_covers) would
    /// find among all of `candidates` — a smallest one, lexicographically
    /// first among those — without collecting a list: the search stops
    /// at the first hit.
    fn first_cover(&self, enabled: &AttrSet, base: &AttrSet, candidates: &[AttrId]) -> AttrSet {
        if self.spans(enabled, base) {
            return AttrSet::new();
        }
        (1..=candidates.len())
            .find_map(|size| {
                for_each_pick(&mut AttrSet::new(), candidates, size, &mut |picked| {
                    if self.spans_with(enabled, base, picked) {
                        ControlFlow::Break(picked.clone())
                    } else {
                        ControlFlow::Continue(())
                    }
                })
                .break_value()
            })
            .expect("all the candidates together are a cover")
    }

    /// True iff the closure of `base ∪ picked` covers the whole schema.
    fn spans_with(&self, enabled: &AttrSet, base: &AttrSet, picked: &AttrSet) -> bool {
        let mut seed = base.clone();
        seed.union_with(picked);
        self.spans(enabled, &seed)
    }

    /// A single small cover for the monitor's *new suggestion* (paper §2,
    /// data monitor step 3: "a minimal number of attributes"): the
    /// unfixable attributes not yet validated, plus the smallest extra
    /// evidence whose closure spans the schema — the first hit of the
    /// minimal-cover search when there are at most 16 candidates, a
    /// greedy closure-gain cover pruned to minimality above.
    ///
    /// A cover always exists: every enabled rule's evidence lies in
    /// `base ∪ candidates`, so validating all of it fires every enabled
    /// rule, and what no enabled rule fixes is in `base` already.
    pub fn suggestion(&self, enabled: &AttrSet, validated: &AttrSet) -> AttrSet {
        // Anything unfixable and not yet validated must be user-validated.
        let mut mandatory = self.unfixable(enabled);
        mandatory.subtract(validated);
        let mut base = validated.clone();
        base.union_with(&mandatory);
        let mut useful = self.useful_evidence(enabled);
        useful.subtract(&base);

        let count = useful.len();
        let extra = if count <= EXACT_LIMIT {
            let mut candidates = [0; EXACT_LIMIT];
            for (slot, attr) in candidates.iter_mut().zip(&useful) {
                *slot = attr;
            }
            self.first_cover(enabled, &base, &candidates[..count])
        } else {
            self.greedy_cover(enabled, &base, &useful)
        };
        mandatory.union_with(&extra);
        mandatory
    }

    /// Greedy set cover over closure gain (first candidate with the
    /// largest closure wins), pruned to minimality in pick order.
    fn greedy_cover(&self, enabled: &AttrSet, base: &AttrSet, candidates: &AttrSet) -> AttrSet {
        let mut chosen: Vec<AttrId> = Vec::new();
        let mut current = base.clone();
        while !self.spans(enabled, &current) {
            let mut best: Option<(AttrId, usize)> = None;
            for c in candidates {
                if current.contains(c) {
                    continue;
                }
                let mut trial = current.clone();
                trial.insert(c);
                let gain = self.closure(enabled, &trial).len();
                if best.is_none_or(|(_, g)| gain > g) {
                    best = Some((c, gain));
                }
            }
            let (c, _) = best.expect("all the candidates together are a cover");
            chosen.push(c);
            current.insert(c);
        }
        // Prune: drop any chosen attr whose removal keeps coverage.
        let mut pruned: AttrSet = chosen.iter().copied().collect();
        for &c in &chosen {
            pruned.remove(c);
            let mut trial = base.clone();
            trial.union_with(&pruned);
            if !self.spans(enabled, &trial) {
                pruned.insert(c);
            }
        }
        pruned
    }
}

/// Visit every way of adding `left` more of `candidates` to `picked`, in
/// lexicographic order, until `visit` breaks — the enumeration both
/// cover searches run, one size at a time.
fn for_each_pick<B>(
    picked: &mut AttrSet,
    candidates: &[AttrId],
    left: usize,
    visit: &mut impl FnMut(&AttrSet) -> ControlFlow<B>,
) -> ControlFlow<B> {
    if left == 0 {
        return visit(picked);
    }
    for i in 0..=candidates.len() - left {
        picked.insert(candidates[i]);
        for_each_pick(picked, &candidates[i + 1..], left - 1, visit)?;
        picked.remove(candidates[i]);
    }
    ControlFlow::Continue(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cerfix_relation::{Schema, SchemaRef};
    use cerfix_rules::{EditingRule, PatternTuple};

    /// The paper's UK scenario skeleton: 9 input attrs, rules mirroring
    /// φ1–φ9 at the attribute level.
    fn uk_rules() -> (SchemaRef, RuleSet) {
        let input = Schema::of_strings(
            "customer",
            [
                "FN", "LN", "AC", "phn", "type", "str", "city", "zip", "item",
            ],
        )
        .unwrap();
        let master = Schema::of_strings(
            "master",
            [
                "FN", "LN", "AC", "Hphn", "Mphn", "str", "city", "zip", "DoB", "gender",
            ],
        )
        .unwrap();
        let t = |n: &str| input.attr_id(n).unwrap();
        let m = |n: &str| master.attr_id(n).unwrap();
        let mut rules = RuleSet::new(input.clone(), master.clone());
        let mut add =
            |name: &str, lhs: Vec<(&str, &str)>, rhs: Vec<(&str, &str)>, pattern: PatternTuple| {
                rules
                    .add(
                        EditingRule::new(
                            name,
                            &input,
                            &master,
                            lhs.iter().map(|&(a, b)| (t(a), m(b))).collect::<Vec<_>>(),
                            rhs.iter().map(|&(a, b)| (t(a), m(b))).collect::<Vec<_>>(),
                            pattern,
                        )
                        .unwrap(),
                    )
                    .unwrap();
            };
        use cerfix_relation::Value;
        let mobile = PatternTuple::empty().with_eq(t("type"), Value::str("2"));
        let home = PatternTuple::empty().with_eq(t("type"), Value::str("1"));
        let geo = PatternTuple::empty().with_ne(t("AC"), Value::str("0800"));
        add(
            "phi1",
            vec![("zip", "zip")],
            vec![("AC", "AC")],
            PatternTuple::empty(),
        );
        add(
            "phi2",
            vec![("zip", "zip")],
            vec![("str", "str")],
            PatternTuple::empty(),
        );
        add(
            "phi3",
            vec![("zip", "zip")],
            vec![("city", "city")],
            PatternTuple::empty(),
        );
        add(
            "phi4",
            vec![("phn", "Mphn")],
            vec![("FN", "FN")],
            mobile.clone(),
        );
        add("phi5", vec![("phn", "Mphn")], vec![("LN", "LN")], mobile);
        add(
            "phi6",
            vec![("AC", "AC"), ("phn", "Hphn")],
            vec![("str", "str")],
            home.clone(),
        );
        add(
            "phi7",
            vec![("AC", "AC"), ("phn", "Hphn")],
            vec![("city", "city")],
            home.clone(),
        );
        add(
            "phi8",
            vec![("AC", "AC"), ("phn", "Hphn")],
            vec![("zip", "zip")],
            home,
        );
        add("phi9", vec![("AC", "AC")], vec![("city", "city")], geo);
        (input, rules)
    }

    /// Every rule position except those of the named rules.
    fn all_but(rules: &RuleSet, dropped: &[&str]) -> AttrSet {
        rules
            .iter()
            .enumerate()
            .filter(|(_, (_, r))| !dropped.contains(&r.name()))
            .map(|(pos, _)| pos)
            .collect()
    }

    #[test]
    fn closure_from_zip_phn_type_item() {
        // The size-4 certain region of the UK scenario (type=2 context):
        // closure must reach all nine attributes.
        let (input, rules) = uk_rules();
        let masks = RuleMasks::of(&rules);
        let t = |n: &str| input.attr_id(n).unwrap();
        let seed: AttrSet = [t("zip"), t("phn"), t("type"), t("item")].into();
        let closed = masks.closure(&masks.all_rules(), &seed);
        assert_eq!(closed.len(), 9, "zip→AC,str,city; phn/type→FN,LN");
        assert!(masks.spans(&masks.all_rules(), &seed));
    }

    #[test]
    fn closure_from_fig3_suggestion_stalls() {
        // Fig. 3(a)'s suggestion {AC, phn, type, item}: zip and str are
        // unreachable when φ6–φ8 are unavailable (type=2 context) — this
        // is why the demo needs a second round suggesting zip.
        let (input, rules) = uk_rules();
        let masks = RuleMasks::of(&rules);
        let t = |n: &str| input.attr_id(n).unwrap();
        let seed: AttrSet = [t("AC"), t("phn"), t("type"), t("item")].into();
        // Disable the home-phone rules, as a type=2 tuple can never
        // satisfy their pattern.
        let type2_only = all_but(&rules, &["phi6", "phi7", "phi8"]);
        let closed = masks.closure(&type2_only, &seed);
        assert!(!closed.contains(t("zip")));
        assert!(!closed.contains(t("str")));
        assert!(closed.contains(t("FN")) && closed.contains(t("LN")) && closed.contains(t("city")));
    }

    #[test]
    fn unfixable_attrs_must_be_user_validated() {
        let (input, rules) = uk_rules();
        let masks = RuleMasks::of(&rules);
        let t = |n: &str| input.attr_id(n).unwrap();
        let unfixable = masks.unfixable(&masks.all_rules());
        assert_eq!(unfixable, [t("phn"), t("type"), t("item")].into());
    }

    #[test]
    fn useful_evidence_excludes_item() {
        let (input, rules) = uk_rules();
        let masks = RuleMasks::of(&rules);
        let t = |n: &str| input.attr_id(n).unwrap();
        let useful = masks.useful_evidence(&masks.all_rules());
        assert!(useful.contains(t("zip")));
        assert!(useful.contains(t("AC")));
        assert!(useful.contains(t("phn")));
        assert!(useful.contains(t("type")));
        assert!(!useful.contains(t("item")), "no rule reads item");
        assert!(!useful.contains(t("FN")));
    }

    /// The useful evidence outside `base`, ascending.
    fn candidates(masks: &RuleMasks, base: &AttrSet) -> Vec<AttrId> {
        let mut useful = masks.useful_evidence(&masks.all_rules());
        useful.subtract(base);
        useful.iter().collect()
    }

    #[test]
    fn minimal_covers_uk() {
        let (input, rules) = uk_rules();
        let masks = RuleMasks::of(&rules);
        let t = |n: &str| input.attr_id(n).unwrap();
        // Base: the mandatory unfixable attributes.
        let base: AttrSet = [t("phn"), t("type"), t("item")].into();
        let covers =
            masks.minimal_covers(&masks.all_rules(), &base, &candidates(&masks, &base), 5, 10);
        // {zip} alone suffices: closure adds AC,str,city then FN,LN via phn.
        assert!(covers.contains(&[t("zip")].into()), "covers: {covers:?}");
        // No returned cover is a superset of another.
        for (i, a) in covers.iter().enumerate() {
            for (j, b) in covers.iter().enumerate() {
                if i != j {
                    assert!(!a.is_subset(b) || a == b, "antichain violated");
                }
            }
        }
    }

    #[test]
    fn minimal_covers_empty_when_base_covers() {
        let (input, rules) = uk_rules();
        let masks = RuleMasks::of(&rules);
        let all: AttrSet = input.all_attr_ids().collect();
        let covers = masks.minimal_covers(&masks.all_rules(), &all, &[], 3, 5);
        assert_eq!(covers, vec![AttrSet::new()]);
    }

    #[test]
    fn new_suggestion_initial_matches_fig3a() {
        // From nothing validated, the minimal static suggestion is
        // {AC, phn, type, item} — exactly the attributes highlighted in
        // Fig. 3(a) of the paper. ({zip, phn, type, item} is the other
        // size-4 cover; the search returns the lexicographically first.)
        let (input, rules) = uk_rules();
        let masks = RuleMasks::of(&rules);
        let t = |n: &str| input.attr_id(n).unwrap();
        let s = masks.suggestion(&masks.all_rules(), &AttrSet::new());
        assert_eq!(s, [t("AC"), t("phn"), t("type"), t("item")].into());
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn new_suggestion_after_fig3_round1() {
        // Fig. 3(b): user validated {AC, phn, type, item}; monitor fixed
        // FN, LN, city. The next suggestion must be {zip} (covering str
        // via φ2 and zip itself).
        let (input, rules) = uk_rules();
        let masks = RuleMasks::of(&rules);
        let t = |n: &str| input.attr_id(n).unwrap();
        let validated: AttrSet = [
            t("AC"),
            t("phn"),
            t("type"),
            t("item"),
            t("FN"),
            t("LN"),
            t("city"),
        ]
        .into();
        let type2_only = all_but(&rules, &["phi6", "phi7", "phi8"]);
        let s = masks.suggestion(&type2_only, &validated);
        assert_eq!(s, [t("zip")].into(), "the paper's round-2 suggestion");
    }

    #[test]
    fn new_suggestion_none_when_unreachable() {
        // With no rule enabled every attribute is unfixable, hence
        // mandatory: the base covers and the suggestion is all of them.
        // (Nothing is ever unreachable: see `RuleMasks::suggestion`.)
        let (input, rules) = uk_rules();
        let masks = RuleMasks::of(&rules);
        let s = masks.suggestion(&AttrSet::new(), &AttrSet::new());
        assert_eq!(s.len(), input.arity(), "user must validate everything");
    }

    #[test]
    fn first_cover_is_the_first_minimal_cover() {
        let (_, rules) = uk_rules();
        let masks = RuleMasks::of(&rules);
        let all = masks.all_rules();
        // The unfixable attributes plus every subset of the first six as
        // the base, so some bases span already and the rest need covers
        // of every size.
        for mask in 0u32..64 {
            let mut base: AttrSet = (0..6).filter(|a| mask & (1 << a) != 0).collect();
            base.union_with(&masks.unfixable(&all));
            let candidates = candidates(&masks, &base);
            let listed = masks
                .minimal_covers(&all, &base, &candidates, candidates.len(), 1)
                .pop()
                .unwrap();
            assert_eq!(masks.first_cover(&all, &base, &candidates), listed);
        }
    }

    #[test]
    fn greedy_matches_exact_on_uk() {
        let (_, rules) = uk_rules();
        let masks = RuleMasks::of(&rules);
        let all = masks.all_rules();
        let base = masks.unfixable(&all);
        let candidates = candidates(&masks, &base);
        let exact = masks
            .minimal_covers(&all, &base, &candidates, candidates.len(), 1)
            .pop()
            .unwrap();
        let greedy = masks.greedy_cover(&all, &base, &candidates.iter().copied().collect());
        assert_eq!(
            exact.len(),
            greedy.len(),
            "greedy finds a same-size cover here"
        );
    }
}
