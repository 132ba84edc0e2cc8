//! The memoized certification lattice: incremental data-phase probes.
//!
//! The naive data phase simulates one full correcting process per
//! `(candidate, truth)` pair — `universe × candidates` fixpoints, each
//! O(firings) master lookups. This module collapses almost all of that
//! work using one observation: **within a truth-clean run, every rule's
//! behaviour is a function of the truth alone.**
//!
//! A certification fixpoint seeds `t[Z] = u[Z]` with `Z` validated. Call
//! a state *truth-clean* when every validated cell equals the truth `u`.
//! In a truth-clean state a rule's evidence values are `u`'s values, so
//! its pattern verdict is `pattern.matches(u)` and its certain lookup
//! probes `u`'s key — both independent of `Z` and of firing order. A
//! [`TruthProfile`] classifies each compiled rule once per truth:
//!
//! * **fireable** — pattern matches `u`, the lookup is unique, and the
//!   witness agrees with `u` on every RHS attribute. Firing keeps the
//!   state truth-clean.
//! * **dead** — pattern mismatch, no match, ambiguous key, or a null fix
//!   value. The rule can never fire in a truth-clean run.
//! * **poisoned** — the lookup is unique but *disagrees* with `u`. Such
//!   a rule can fire a wrong value, after which the run leaves the
//!   truth-clean regime and genuinely depends on attempt order.
//!
//! For an unpoisoned truth, every fixpoint from every seed stays
//! truth-clean, so the run is confluent and its outcome is a pure
//! *closure*: `certified(Z, u) ⟺ closure of Z under fireable rules
//! spans the schema`. That closure is a handful of bitset operations —
//! no tuple allocation, no lookups — and it is monotone, so candidates
//! sharing a `Z`-prefix share [`ClosureNode`] snapshots (the lattice):
//! the node for `Z ∪ {a}` extends the node for `Z`.
//!
//! For the (rare) poisoned truths the module falls back to the real
//! fixpoint, preserving **exact** equivalence with the from-scratch
//! oracle ([`find_regions_from_scratch`]) on every input, including
//! adversarial universes and inconsistent rule sets — property-tested in
//! `tests/region_incremental.rs`.
//!
//! Truths are read, never copied: a profile and a fixpoint take the
//! truth as any [`Cells`] reader — a master row read in place through
//! the attribute map, on the server — and project keys from it into
//! buffers a worker keeps ([`ProfileScratch`]). The fixpoint's input
//! form is written into one tuple per certifier, made at its first
//! poisoned truth.
//!
//! [`find_regions_from_scratch`]: crate::region::find_regions_from_scratch

use crate::engine::{run_fixpoint_delta, CompiledRules, EngineStats, KeyMemo};
use crate::master::MasterData;
use crate::region::universe::Universe;
use cerfix_relation::{AttrId, AttrSet, Cells, Tuple, Value};

/// Per-truth classification of every compiled rule (see module docs).
#[derive(Debug, Clone)]
pub(crate) struct TruthProfile {
    /// Rule positions (into the plan) that fire truth values.
    fireable: AttrSet,
    /// True iff some rule would fire a non-truth value: closure-based
    /// certification is unsound for this truth, use the fixpoint.
    poisoned: bool,
}

impl TruthProfile {
    /// True iff certification for this truth must run the real fixpoint.
    pub(crate) fn poisoned(&self) -> bool {
        self.poisoned
    }

    /// Classify every rule of `plan` against `truth`: one certain
    /// lookup per rule whose pattern admits the truth — one index probe
    /// per key group, whatever the number of master rows sharing the key,
    /// since every rule of a group reads the same truth key — reused by
    /// every candidate probing this truth. The key is projected into, and
    /// the probes held in, `scratch`, which a worker reuses from one
    /// truth to the next.
    pub(crate) fn build<T: Cells + ?Sized>(
        plan: &CompiledRules,
        master: &MasterData,
        truth: &T,
        scratch: &mut ProfileScratch,
    ) -> TruthProfile {
        let mut fireable = AttrSet::new();
        let mut poisoned = false;
        let ProfileScratch { key_buf, keys } = scratch;
        keys.clear();
        let mut probes = 0;
        for (pos, rule) in plan.rules.iter().enumerate() {
            // In a truth-clean state the pattern reads truth values.
            if !rule.pattern.matches(truth) {
                continue;
            }
            let lookup = plan.lookup(pos, master, truth, key_buf, keys, &mut probes);
            let Some(witness) = lookup else {
                continue; // no match / ambiguous / null fix: dead
            };
            let s = master.tuple(witness).expect("index row in range");
            let agrees = rule
                .input_rhs
                .iter()
                .zip(rule.master_rhs.iter())
                .all(|(&b, &bm)| s.get(bm) == truth.cell(b));
            if agrees {
                fireable.insert(pos);
            } else {
                poisoned = true;
            }
        }
        TruthProfile { fireable, poisoned }
    }
}

/// The buffers [`TruthProfile::build`] runs on: the projected key and
/// the run's probe memo, kept by one worker across the truths it
/// profiles so a profile allocates nothing of its own.
#[derive(Debug, Default)]
pub(crate) struct ProfileScratch {
    key_buf: Vec<Value>,
    keys: KeyMemo,
}

/// One node of the certification lattice: the closure of some seed under
/// a truth's fireable rules, plus the rules consumed reaching it.
/// Extending a node with one more attribute reuses both — the memoized
/// `(context, truth, Z-prefix)` snapshot of the incremental data phase.
#[derive(Debug, Clone)]
pub(crate) struct ClosureNode {
    /// Attributes validated by the closure (the "validated `AttrSet`").
    validated: AttrSet,
    /// Rule positions already fired on the path to this node.
    consumed: AttrSet,
}

impl ClosureNode {
    /// The root node: closure of `seed` from scratch (full rule scan)
    /// under a fireable mask (profile classes share one mask across many
    /// truths).
    pub(crate) fn root_of(plan: &CompiledRules, fireable: &AttrSet, seed: &AttrSet) -> ClosureNode {
        let mut node = ClosureNode {
            validated: seed.clone(),
            consumed: AttrSet::new(),
        };
        let arity = plan.input_schema().arity();
        // Initial sweep: every fireable rule whose evidence is already in
        // the seed; later additions wake watchers only.
        let mut newly: Vec<AttrId> = Vec::new();
        for pos in fireable {
            if node.validated.len() == arity {
                break;
            }
            if plan.masks().evidence(pos).is_subset(&node.validated) {
                node.consumed.insert(pos);
                for b in plan.masks().rhs(pos) {
                    if node.validated.insert(b) {
                        newly.push(b);
                    }
                }
            }
        }
        node.propagate(plan, fireable, newly, arity);
        node
    }

    /// Extend this node with `extra` attributes, returning the closure of
    /// `validated ∪ extra` — the lattice step `closure(Z ∪ {a})` from
    /// `closure(Z)`. Only rules watching a newly validated attribute are
    /// examined.
    pub(crate) fn extend_with(
        &self,
        plan: &CompiledRules,
        fireable: &AttrSet,
        extra: impl IntoIterator<Item = AttrId>,
    ) -> ClosureNode {
        let mut node = self.clone();
        let newly: Vec<AttrId> = extra
            .into_iter()
            .filter(|&a| node.validated.insert(a))
            .collect();
        node.propagate(plan, fireable, newly, plan.input_schema().arity());
        node
    }

    fn propagate(
        &mut self,
        plan: &CompiledRules,
        fireable: &AttrSet,
        mut newly: Vec<AttrId>,
        arity: usize,
    ) {
        while let Some(a) = newly.pop() {
            if self.validated.len() == arity {
                // Complete: supersets are complete too, nothing to gain.
                return;
            }
            for &w in plan.watchers(a) {
                let w = w as usize;
                if self.consumed.contains(w)
                    || !fireable.contains(w)
                    || !plan.masks().evidence(w).is_subset(&self.validated)
                {
                    continue;
                }
                self.consumed.insert(w);
                for b in plan.masks().rhs(w) {
                    if self.validated.insert(b) {
                        newly.push(b);
                    }
                }
            }
        }
    }

    /// True iff the closure spans the whole input schema — for an
    /// unpoisoned truth, exactly "the fixpoint certifies".
    pub(crate) fn complete(&self, arity: usize) -> bool {
        self.validated.len() == arity
    }
}

/// Counters for the incremental data phase, merged into
/// [`RegionSearchStats`](crate::region::RegionSearchStats).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ProbeStats {
    pub(crate) closure_probes: usize,
    pub(crate) lattice_hits: usize,
    pub(crate) engine: EngineStats,
}

/// Run the real correcting process for one `(Z, truth)` pair and check
/// full, correct validation — the unit the from-scratch oracle and the
/// poisoned-truth fallback share, so the two paths cannot drift. The
/// input the user would present — `truth[Z]`, everything else null — is
/// written into `input`, a tuple over the plan's input schema that the
/// caller reuses from one probe to the next.
pub(crate) fn certify_truth_fixpoint<T: Cells + ?Sized>(
    plan: &CompiledRules,
    master: &MasterData,
    attrs: &AttrSet,
    truth: &T,
    input: &mut Tuple,
    engine: &mut EngineStats,
) -> bool {
    let arity = plan.input_schema().arity();
    for a in 0..arity {
        let seed = if attrs.contains(a) {
            truth.cell(a).clone()
        } else {
            Value::Null
        };
        input.set(a, seed).expect("attr in schema");
    }
    let mut validated = attrs.clone();
    match run_fixpoint_delta(plan, master, input, &mut validated) {
        Err(_) => {
            *engine += EngineStats {
                fixpoint_runs: 1,
                ..Default::default()
            };
            false // validated-cell conflict: inconsistent rules
        }
        Ok(report) => {
            *engine += report.stats;
            validated.len() == arity
                && (0..arity).all(|a| {
                    let fixed = input.get(a);
                    !fixed.is_null() && fixed == truth.cell(a)
                })
        }
    }
}

/// The per-context certification driver.
///
/// Unpoisoned truths are grouped into **profile classes**: truths with
/// the same fireable set have identical closure verdicts for every
/// candidate, so one class probe answers all of them (on master-derived
/// universes a context often collapses to a single class). Each class
/// memoizes the base snapshot (closure of the context's mandatory
/// attributes) plus a prefix stack of lattice nodes, so consecutive
/// candidates also reuse the longest shared `Z`-prefix. Poisoned truths
/// are certified individually by the real fixpoint.
pub(crate) struct ContextCertifier<'a, U: Universe + ?Sized> {
    plan: &'a CompiledRules,
    master: &'a MasterData,
    universe: &'a U,
    /// In-scope universe indices for this context.
    truths: &'a [usize],
    arity: usize,
    /// Distinct fireable sets of the unpoisoned in-scope truths.
    classes: Vec<AttrSet>,
    /// Per class: a representative slot (for failure reporting).
    class_rep: Vec<usize>,
    /// Per in-scope truth slot: its class, or `None` when poisoned.
    slot_class: Vec<Option<usize>>,
    /// Slots whose truths need the fixpoint fallback.
    poisoned_slots: Vec<usize>,
    /// Per class: the memoized closure of the mandatory set.
    bases: Vec<Option<ClosureNode>>,
    /// Per class: the prefix stack `[(attr, node)]` above the base,
    /// shared by candidates in cover order.
    stacks: Vec<Vec<(AttrId, ClosureNode)>>,
    mandatory: AttrSet,
    /// The poisoned-truth fixpoint's input tuple, made at the first one.
    input: Option<Tuple>,
    pub(crate) stats: ProbeStats,
}

/// Outcome of probing one candidate.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ProbeOutcome {
    pub(crate) certified: bool,
    /// Universe index of a failing truth (probe order), if any.
    pub(crate) failing: Option<usize>,
}

impl<'a, U: Universe + ?Sized> ContextCertifier<'a, U> {
    pub(crate) fn new(
        plan: &'a CompiledRules,
        master: &'a MasterData,
        universe: &'a U,
        truths: &'a [usize],
        profiles: &'a [Option<TruthProfile>],
        mandatory: AttrSet,
    ) -> ContextCertifier<'a, U> {
        let mut classes: Vec<AttrSet> = Vec::new();
        let mut class_rep: Vec<usize> = Vec::new();
        let mut slot_class: Vec<Option<usize>> = Vec::with_capacity(truths.len());
        let mut poisoned_slots: Vec<usize> = Vec::new();
        for (slot, &idx) in truths.iter().enumerate() {
            let profile = profiles[idx]
                .as_ref()
                .expect("profile built for every in-scope truth");
            if profile.poisoned {
                poisoned_slots.push(slot);
                slot_class.push(None);
                continue;
            }
            let class = match classes.iter().position(|f| *f == profile.fireable) {
                Some(c) => c,
                None => {
                    classes.push(profile.fireable.clone());
                    class_rep.push(slot);
                    classes.len() - 1
                }
            };
            slot_class.push(Some(class));
        }
        let n_classes = classes.len();
        ContextCertifier {
            plan,
            master,
            universe,
            truths,
            arity: plan.input_schema().arity(),
            classes,
            class_rep,
            slot_class,
            poisoned_slots,
            bases: vec![None; n_classes],
            stacks: vec![Vec::new(); n_classes],
            mandatory,
            input: None,
            stats: ProbeStats::default(),
        }
    }

    /// Probe one candidate `Z = mandatory ∪ cover` against every in-scope
    /// truth — one closure per profile class plus one fixpoint per
    /// poisoned truth — early-exiting at the first failure. `cover` must
    /// be sorted ascending (the lattice's sibling-prefix order).
    /// `failing_first` biases the order so a previously-failing truth's
    /// class is probed first — re-searches reject in O(1) probes.
    pub(crate) fn probe(
        &mut self,
        attrs: &AttrSet,
        cover: &[AttrId],
        failing_first: Option<usize>,
    ) -> ProbeOutcome {
        let first_class = failing_first
            .and_then(|f| self.truths.iter().position(|&u| u == f))
            .and_then(|slot| self.slot_class[slot]);
        if let Some(c) = first_class {
            if !self.probe_class(c, cover) {
                return ProbeOutcome {
                    certified: false,
                    failing: failing_first,
                };
            }
        }
        for c in 0..self.classes.len() {
            if first_class == Some(c) {
                continue; // already probed
            }
            if !self.probe_class(c, cover) {
                return ProbeOutcome {
                    certified: false,
                    failing: Some(self.truths[self.class_rep[c]]),
                };
            }
        }
        // Poisoned truths: the failing-first bias applies here too.
        let first_poisoned = failing_first
            .and_then(|f| self.truths.iter().position(|&u| u == f))
            .filter(|&slot| self.slot_class[slot].is_none());
        for i in 0..=self.poisoned_slots.len() {
            let slot = match (i, first_poisoned) {
                (0, Some(slot)) => slot,
                (0, None) => continue,
                (i, first) => {
                    let slot = self.poisoned_slots[i - 1];
                    if Some(slot) == first {
                        continue; // already probed first
                    }
                    slot
                }
            };
            let idx = self.truths[slot];
            let input = self
                .input
                .get_or_insert_with(|| Tuple::all_null(self.plan.input_schema().clone()));
            if !certify_truth_fixpoint(
                self.plan,
                self.master,
                attrs,
                &self.universe.truth(idx),
                input,
                &mut self.stats.engine,
            ) {
                return ProbeOutcome {
                    certified: false,
                    failing: Some(idx),
                };
            }
        }
        ProbeOutcome {
            certified: true,
            failing: None,
        }
    }

    /// Probe one profile class; true iff the candidate certifies for its
    /// truths.
    fn probe_class(&mut self, class: usize, cover: &[AttrId]) -> bool {
        let fireable = &self.classes[class];
        self.stats.closure_probes += 1;
        let base = self.bases[class]
            .get_or_insert_with(|| ClosureNode::root_of(self.plan, fireable, &self.mandatory));
        if base.complete(self.arity) {
            // The mandatory set alone certifies: every cover does too.
            self.stats.lattice_hits += 1;
            return true;
        }
        // Reuse the longest prefix of `cover` already on the stack.
        let stack = &mut self.stacks[class];
        let mut shared = 0;
        while shared < stack.len() && shared < cover.len() && stack[shared].0 == cover[shared] {
            shared += 1;
        }
        stack.truncate(shared);
        if shared > 0 {
            self.stats.lattice_hits += 1;
        }
        for &a in &cover[shared..] {
            let node = match stack.last() {
                Some((_, prev)) => prev.extend_with(self.plan, fireable, std::iter::once(a)),
                None => base.extend_with(self.plan, fireable, std::iter::once(a)),
            };
            stack.push((a, node));
        }
        match stack.last() {
            Some((_, node)) => node.complete(self.arity),
            None => base.complete(self.arity),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cerfix_relation::{RelationBuilder, Schema, SchemaRef};
    use cerfix_rules::{EditingRule, PatternTuple, RuleSet};

    /// zip→{AC,city}, AC→str chain with one ambiguous zip (G12) and one
    /// row whose AC disagrees with the truth we probe (poison source).
    fn fixture() -> (SchemaRef, RuleSet, MasterData) {
        let input = Schema::of_strings("in", ["zip", "AC", "city", "str"]).unwrap();
        let ms = Schema::of_strings("m", ["zip", "AC", "city", "str"]).unwrap();
        let master = MasterData::new(
            RelationBuilder::new(ms.clone())
                .row_strs(["EH8", "131", "Edi", "Elm"])
                .row_strs(["SW1", "020", "Ldn", "Oak"])
                .row_strs(["G12", "0141", "Gla", "Clyde"])
                .row_strs(["G12", "0141", "Partick", "Clyde"]) // ambiguous city
                .build()
                .unwrap(),
        );
        let pair = |n: &str| (input.attr_id(n).unwrap(), ms.attr_id(n).unwrap());
        let mut rules = RuleSet::new(input.clone(), ms.clone());
        for (name, l, r) in [
            ("zip_ac", "zip", "AC"),
            ("zip_city", "zip", "city"),
            ("ac_str", "AC", "str"),
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
        (input, rules, master)
    }

    #[test]
    fn profile_classifies_rules() {
        let (input, rules, master) = fixture();
        let plan = CompiledRules::compile(&rules, &master);
        let truth = Tuple::of_strings(input.clone(), ["EH8", "131", "Edi", "Elm"]).unwrap();
        let p = TruthProfile::build(&plan, &master, &truth, &mut ProfileScratch::default());
        assert!(!p.poisoned);
        assert!(p.fireable.contains(0) && p.fireable.contains(1) && p.fireable.contains(2));

        // G12's city is ambiguous: zip_city dead, the others fire.
        let g12 = Tuple::of_strings(input.clone(), ["G12", "0141", "Gla", "Clyde"]).unwrap();
        let p = TruthProfile::build(&plan, &master, &g12, &mut ProfileScratch::default());
        assert!(!p.poisoned);
        assert!(p.fireable.contains(0) && !p.fireable.contains(1) && p.fireable.contains(2));

        // A truth disagreeing with its own master row: zip_ac would fire
        // the master's 131 over the truth's 999 — poisoned.
        let wrong = Tuple::of_strings(input, ["EH8", "999", "Edi", "Elm"]).unwrap();
        let p = TruthProfile::build(&plan, &master, &wrong, &mut ProfileScratch::default());
        assert!(p.poisoned);
    }

    #[test]
    fn closure_matches_fixpoint_on_unpoisoned_truths() {
        let (input, rules, master) = fixture();
        let plan = CompiledRules::compile(&rules, &master);
        let arity = input.arity();
        let truths = [
            Tuple::of_strings(input.clone(), ["EH8", "131", "Edi", "Elm"]).unwrap(),
            Tuple::of_strings(input.clone(), ["G12", "0141", "Gla", "Clyde"]).unwrap(),
            Tuple::of_strings(input.clone(), ["ZZ9", "999", "No", "Where"]).unwrap(),
        ];
        for truth in &truths {
            let profile =
                TruthProfile::build(&plan, &master, truth, &mut ProfileScratch::default());
            assert!(!profile.poisoned);
            for mask in 0u32..16 {
                let seed: AttrSet = (0..arity).filter(|a| mask & (1 << a) != 0).collect();
                let node = ClosureNode::root_of(&plan, &profile.fireable, &seed);
                let mut engine = EngineStats::default();
                let mut form = Tuple::all_null(input.clone());
                let oracle =
                    certify_truth_fixpoint(&plan, &master, &seed, truth, &mut form, &mut engine);
                assert_eq!(
                    node.complete(arity),
                    oracle,
                    "truth {truth:?} seed {seed:?}"
                );
            }
        }
    }

    #[test]
    fn extend_equals_root_of_union() {
        let (input, rules, master) = fixture();
        let plan = CompiledRules::compile(&rules, &master);
        let truth = Tuple::of_strings(input.clone(), ["EH8", "131", "Edi", "Elm"]).unwrap();
        let profile = TruthProfile::build(&plan, &master, &truth, &mut ProfileScratch::default());
        let zip = input.attr_id("zip").unwrap();
        let strr = input.attr_id("str").unwrap();
        let base = ClosureNode::root_of(&plan, &profile.fireable, &[strr].into());
        let extended = base.extend_with(&plan, &profile.fireable, std::iter::once(zip));
        let scratch = ClosureNode::root_of(&plan, &profile.fireable, &[strr, zip].into());
        assert_eq!(extended.validated, scratch.validated);
        assert!(extended.complete(input.arity()));
    }
}
