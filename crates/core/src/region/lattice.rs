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
//! A truth that *is* a master row ([`Universe::master_row`]) is not
//! even projected for a rule that reads its own key — every LHS pair
//! `(x, xm)` mapped `x → xm`: the lookup's second arm reads the posting
//! the index files the row under, with no key hashed
//! ([`CompiledRules::lookup_row`]), from a row → posting vector per key
//! group gathered once per batch of profiles ([`OwnKeys`]). When the RHS
//! pairs map `b → bm` too, the truth's row is one of the matching rows,
//! so a certain verdict is a fireable rule and never a poisoned one. On
//! HOSP, whose eight rules all join by name, profiling 20 000 master rows
//! hashes no key where it hashed 60 000. Cross-name joins, foreign RHS,
//! slice universes and the unindexed arm keep the hashed probe; the two
//! arms are held equal truth by truth in this module's tests.
//!
//! [`find_regions_from_scratch`]: crate::region::find_regions_from_scratch

use crate::engine::{run_fixpoint_delta, CompiledRules, EngineStats, KeyMemo};
use crate::master::MasterData;
use crate::region::universe::{MasterRow, Universe};
use cerfix_relation::{AttrId, AttrSet, Cells, FiledRows, RowId, Tuple, Value};

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
    ///
    /// When `own` says the truth is master row `row` read in place, a
    /// rule whose key group reads the row's own key takes the lookup's
    /// second arm, the row's posting, with no key hashed
    /// ([`CompiledRules::lookup_row`]). If the map also sends every RHS
    /// pair `b → bm`, the truth's row is one of the matching rows, so a
    /// certain verdict fires the truth's own values: the rule is fireable
    /// with no witness compared, and never poisons.
    pub(crate) fn build<T: Cells + ?Sized>(
        plan: &CompiledRules,
        master: &MasterData,
        truth: &T,
        own: Option<(RowId, &OwnKeys<'_>)>,
        scratch: &mut ProfileScratch,
    ) -> TruthProfile {
        let mut fireable = AttrSet::new();
        let mut poisoned = false;
        let ProfileScratch {
            key_buf,
            keys,
            probes,
        } = scratch;
        keys.clear();
        for (pos, rule) in plan.rules.iter().enumerate() {
            // In a truth-clean state the pattern reads truth values.
            if !rule.pattern.matches(truth) {
                continue;
            }
            // The lookup's second arm reads the truth's own key by its row.
            let filed = own.and_then(|(row, o)| Some((row, o.filed[rule.group].as_ref()?)));
            let lookup = match filed {
                Some((row, filed)) => plan.lookup_row(pos, master, filed, row),
                None => plan.lookup(pos, master, truth, key_buf, keys, probes),
            };
            let Some(witness) = lookup else {
                continue; // no match / ambiguous / null fix: dead
            };
            // A certain witness of a rule reading the truth's own key and
            // fixing the truth's own values agrees with the truth's row.
            let agrees = own.is_some_and(|(_, o)| o.fixes_own.contains(pos)) || {
                let s = master.tuple(witness).expect("index row in range");
                rule.input_rhs
                    .iter()
                    .zip(rule.master_rhs.iter())
                    .all(|(&b, &bm)| s.get(bm) == truth.cell(b))
            };
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
    /// Index probes the profiles built on this scratch made: each one
    /// hashed a truth's key.
    pub(crate) probes: usize,
}

/// How [`TruthProfile::build`] reads truths that are rows of the
/// searched master, read in place through one map
/// ([`Universe::master_row`]). A key group of the plan whose every LHS
/// pair `(x, xm)` the map sends `x → xm` reads a truth's *own* key, the
/// key its row is filed under; per such group with an index, the rows
/// of that index by posting ([`HashIndex::filed_rows`], one pass over
/// its postings, no key hashed). Made once per batch of profiles, from
/// the batch's first truth, and only when some group reads own keys.
///
/// [`HashIndex::filed_rows`]: cerfix_relation::HashIndex::filed_rows
#[derive(Debug)]
pub(crate) struct OwnKeys<'a> {
    rows: &'a [Tuple],
    map: &'a [Option<AttrId>],
    /// Per key group, its index's filed rows when it reads own keys.
    filed: Vec<Option<FiledRows<'a>>>,
    /// Rule positions whose every LHS pair and every RHS pair `(b, bm)`
    /// the map sends by name: a certain witness of such a rule agrees
    /// with the truth's row, which is one of the matching rows.
    fixes_own: AttrSet,
}

impl<'a> OwnKeys<'a> {
    /// The own keys of truths read like `at`; `None` when `at` is not a
    /// row of `master` or no indexed key group reads an own key.
    pub(crate) fn of(
        plan: &'a CompiledRules,
        master: &MasterData,
        at: MasterRow<'a>,
    ) -> Option<OwnKeys<'a>> {
        if !at.of(master) {
            return None;
        }
        let mut own = OwnKeys {
            rows: at.rows,
            map: at.map,
            filed: Vec::new(),
            fixes_own: AttrSet::new(),
        };
        for (pos, rule) in plan.rules.iter().enumerate() {
            let reads_own = at.reads_own(&rule.input_lhs, &rule.master_lhs);
            // Groups are numbered in order of their first rule.
            if rule.group == own.filed.len() {
                let index = rule.index.as_deref().filter(|_| reads_own);
                own.filed
                    .push(index.map(|index| index.filed_rows(master.len())));
            }
            if reads_own && at.reads_own(&rule.input_rhs, &rule.master_rhs) {
                own.fixes_own.insert(pos);
            }
        }
        own.filed.iter().any(Option::is_some).then_some(own)
    }

    /// The row truth `at` is, when it is read as these own keys' truths
    /// are.
    pub(crate) fn row(&self, at: Option<MasterRow<'_>>) -> Option<(RowId, &Self)> {
        let at = at?;
        let alike = std::ptr::eq(at.rows, self.rows) && std::ptr::eq(at.map, self.map);
        alike.then_some((at.row, self))
    }
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
    use crate::region::universe::{copied, MasterTruths};
    use cerfix_relation::{Relation, RelationBuilder, Schema, SchemaRef};
    use cerfix_rules::{EditingRule, PatternTuple, RuleSet};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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
        let p = TruthProfile::build(&plan, &master, &truth, None, &mut ProfileScratch::default());
        assert!(!p.poisoned);
        assert!(p.fireable.contains(0) && p.fireable.contains(1) && p.fireable.contains(2));

        // G12's city is ambiguous: zip_city dead, the others fire.
        let g12 = Tuple::of_strings(input.clone(), ["G12", "0141", "Gla", "Clyde"]).unwrap();
        let p = TruthProfile::build(&plan, &master, &g12, None, &mut ProfileScratch::default());
        assert!(!p.poisoned);
        assert!(p.fireable.contains(0) && !p.fireable.contains(1) && p.fireable.contains(2));

        // A truth disagreeing with its own master row: zip_ac would fire
        // the master's 131 over the truth's 999 — poisoned.
        let wrong = Tuple::of_strings(input, ["EH8", "999", "Edi", "Elm"]).unwrap();
        let p = TruthProfile::build(&plan, &master, &wrong, None, &mut ProfileScratch::default());
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
                TruthProfile::build(&plan, &master, truth, None, &mut ProfileScratch::default());
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
        let profile =
            TruthProfile::build(&plan, &master, &truth, None, &mut ProfileScratch::default());
        let zip = input.attr_id("zip").unwrap();
        let strr = input.attr_id("str").unwrap();
        let base = ClosureNode::root_of(&plan, &profile.fireable, &[strr].into());
        let extended = base.extend_with(&plan, &profile.fireable, std::iter::once(zip));
        let scratch = ClosureNode::root_of(&plan, &profile.fireable, &[strr, zip].into());
        assert_eq!(extended.validated, scratch.validated);
        assert!(extended.complete(input.arity()));
    }

    /// Every truth of `universe` profiled on one scratch, as one run of
    /// `build_profiles` profiles its truths.
    fn profile_all<U: Universe + ?Sized>(
        plan: &CompiledRules,
        master: &MasterData,
        universe: &U,
    ) -> (Vec<TruthProfile>, ProfileScratch) {
        let first = (universe.len() > 0).then(|| universe.master_row(0));
        let own = first.flatten().and_then(|at| OwnKeys::of(plan, master, at));
        let mut scratch = ProfileScratch::default();
        let profiles = (0..universe.len())
            .map(|idx| {
                let own = own
                    .as_ref()
                    .and_then(|own| own.row(universe.master_row(idx)));
                TruthProfile::build(plan, master, &universe.truth(idx), own, &mut scratch)
            })
            .collect();
        (profiles, scratch)
    }

    /// Every truth of `master` read in place, profiled by row — the
    /// lookup's second arm wherever a rule reads the truth's own key —
    /// and copied into tuples, profiled by hashed probes alone: the same
    /// fireable rules and the same poisoned flag. Returns the index
    /// probes made each way.
    fn row_read_equals_probed(name: &str, rules: &RuleSet, master: &MasterData) -> (usize, usize) {
        let plan = CompiledRules::compile(rules, master);
        let truths = MasterTruths::new(rules.input_schema(), master);
        let copy = copied(&truths, rules.input_schema());
        let (by_row, by_row_scratch) = profile_all(&plan, master, &truths);
        let (probed, probed_scratch) = profile_all(&plan, master, &copy[..]);
        for (idx, (a, b)) in by_row.iter().zip(&probed).enumerate() {
            assert_eq!(
                (&a.fireable, a.poisoned),
                (&b.fireable, b.poisoned),
                "{name}: truth {idx}"
            );
        }
        (by_row_scratch.probes, probed_scratch.probes)
    }

    /// A master over `a0..a5` with null cells and four values a column,
    /// so keys are shared — by rows that agree and rows that do not —
    /// and rules over an input schema holding those names shuffled, or
    /// five of them and one of its own, which no master column maps to.
    /// A rule's pairs join by name three times in four and across names
    /// otherwise, on either side; patterns gate on input attributes.
    fn random_instance(seed: u64) -> (RuleSet, MasterData) {
        let mut rng = StdRng::seed_from_u64(seed);
        let master_names: Vec<String> = (0..6).map(|i| format!("a{i}")).collect();
        let mut input_names = master_names.clone();
        if rng.gen_bool(0.5) {
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
        let mut relation = Relation::empty(ms.clone());
        for _ in 0..rng.gen_range(4..40usize) {
            let values: Vec<Value> = (0..6).map(|_| cell(&mut rng)).collect();
            relation
                .push(Tuple::new(ms.clone(), values).unwrap())
                .unwrap();
        }
        let mut rules = RuleSet::new(input.clone(), ms.clone());
        for r in 0..rng.gen_range(1..7usize) {
            let mut attrs: Vec<usize> = (0..6).collect();
            for i in (1..attrs.len()).rev() {
                attrs.swap(i, rng.gen_range(0..=i));
            }
            let pair = |rng: &mut StdRng, a: usize| match ms.attr_id(input.attr_name(a)) {
                Some(m) if rng.gen_bool(0.75) => (a, m),
                _ => (a, rng.gen_range(0..6)),
            };
            let lhs_n = rng.gen_range(1..3usize);
            let lhs: Vec<(usize, usize)> =
                attrs[..lhs_n].iter().map(|&a| pair(&mut rng, a)).collect();
            let rhs = vec![pair(&mut rng, attrs[lhs_n])];
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
        (rules, MasterData::new(relation))
    }

    #[test]
    fn a_profile_read_by_row_is_the_probed_profile() {
        let mut rng = StdRng::seed_from_u64(37);
        let hosp = cerfix_gen::hosp::generate_master(2_000, &mut rng);
        let hosp = MasterData::new(hosp);
        let (by_row, probed) = row_read_equals_probed("hosp", &cerfix_gen::hosp::rules(), &hosp);
        assert_eq!((by_row, probed), (0, 3 * 2_000), "HOSP joins by name only");

        let uk = MasterData::new(cerfix_gen::uk::generate_master(2_000, &mut rng));
        let (by_row, probed) = row_read_equals_probed("uk", &cerfix_gen::uk::rules(), &uk);
        assert!(
            by_row < probed,
            "UK joins some keys by name: {by_row} < {probed}"
        );

        // key → value with shared keys, some of whose values disagree.
        let input = Schema::of_strings("in", ["key", "val", "note"]).unwrap();
        let ms = Schema::of_strings("m", ["key", "val"]).unwrap();
        let mut builder = RelationBuilder::new(ms.clone());
        for i in 0..80 {
            builder = builder.row_strs([format!("k{}", i % 70), format!("v{}", i % 75)]);
        }
        let kv = MasterData::new(builder.build().unwrap());
        let mut rules = RuleSet::new(input.clone(), ms.clone());
        let rule = EditingRule::new(
            "kv",
            &input,
            &ms,
            vec![(0, 0)],
            vec![(1, 1)],
            PatternTuple::empty(),
        );
        rules.add(rule.unwrap()).unwrap();
        assert_eq!(row_read_equals_probed("kv", &rules, &kv), (0, 80));

        // Unindexed, every lookup scans: the second arm has no posting.
        let unindexed = MasterData::new_unindexed(kv.relation().clone());
        assert_eq!(
            row_read_equals_probed("kv unindexed", &rules, &unindexed),
            (0, 0)
        );

        for seed in 0..400 {
            let (rules, master) = random_instance(seed);
            row_read_equals_probed(&format!("random {seed}"), &rules, &master);
        }
    }

    /// Profiling the 20 000 HOSP master rows read in place hashes no
    /// truth key and projects none: all eight rules join by name. The same
    /// truths copied into tuples probe each of the three key groups once.
    #[test]
    fn hosp_master_rows_are_profiled_without_hashing_a_key() {
        let mut rng = StdRng::seed_from_u64(37);
        let rules = cerfix_gen::hosp::rules();
        let master = MasterData::new(cerfix_gen::hosp::generate_master(20_000, &mut rng));
        let plan = CompiledRules::compile(&rules, &master);
        let truths = MasterTruths::new(rules.input_schema(), &master);
        let (_, scratch) = profile_all(&plan, &master, &truths);
        assert_eq!(scratch.probes, 0, "hashed index probes");
        assert_eq!(scratch.key_buf.capacity(), 0, "a key was projected");

        let copy = copied(&truths, rules.input_schema());
        let (_, scratch) = profile_all(&plan, &master, &copy[..]);
        assert_eq!(scratch.probes, 3 * 20_000, "hashed index probes");
    }
}
