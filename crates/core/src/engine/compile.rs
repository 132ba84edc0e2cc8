//! Compiled rule plans: the execution form of a [`RuleSet`].
//!
//! The pass-based engine re-interprets rules from scratch on every pass:
//! per attempt it materializes the evidence set (`BTreeSet`), the LHS /
//! RHS attribute vectors, and a projected key vector, then takes the
//! master index cache's `RwLock` to fetch the index. A
//! [`CompiledRules`] plan does all of that **once per rule set**:
//!
//! * per-rule evidence and RHS **bitmasks** ([`AttrSet`]), held in the
//!   master-free [`RuleMasks`] table — eligibility and coverage tests
//!   become word operations, and the same table is all the inference
//!   system reads: the monitor's new suggestion is computed from the
//!   plan, never by re-interpreting the [`RuleSet`]. The master-side RHS
//!   mask `Bm` is what the index's per-key agreement set is tested
//!   against (one subset test per certain lookup);
//! * LHS/RHS key layouts resolved to flat attribute arrays — key
//!   projection writes into a reused buffer, no per-lookup vectors;
//! * a resolved `Arc<HashIndex>` **snapshot** per rule — the serving
//!   path probes master data lock-free (`None` on the unindexed `T6`
//!   ablation arm, where `MasterData` scans instead);
//! * a **key group** per rule — the rules joining on the same `(X, Xm)`,
//!   which a run asks master data about with one probe ([`KeyMemo`]);
//! * per-attribute **watch lists** mapping each evidence attribute to
//!   the rules it can unblock — the delta engine
//!   ([`run_fixpoint_delta`](crate::engine::run_fixpoint_delta)) wakes
//!   only the rules watching a newly validated attribute instead of
//!   re-attempting the whole rule set.
//!
//! Plans are immutable and `Send + Sync`: build one per `Arc<RuleSet>`
//! (the server caches them per rule-set fingerprint) and share it across
//! every monitor, stream worker, and certification probe.

use crate::engine::inference::RuleMasks;
use crate::master::MasterData;
use cerfix_relation::{AttrId, AttrSet, Cells, HashIndex, Probe, RowId, SchemaRef, Value};
use cerfix_rules::{PatternTuple, RuleId, RuleSet};
use std::sync::Arc;

/// One rule in execution form: flat layouts, pattern, resolved index
/// and key group (its evidence / RHS masks live in the plan's
/// [`RuleMasks`]).
#[derive(Debug, Clone)]
pub(crate) struct CompiledRule {
    /// The rule's id in the source [`RuleSet`] (for fix provenance).
    pub(crate) id: RuleId,
    /// The rule's name (for error messages).
    pub(crate) name: String,
    /// Input-side LHS attributes `X`, flat, in rule order.
    pub(crate) input_lhs: Box<[AttrId]>,
    /// Master-side LHS attributes `Xm`, flat, in rule order.
    pub(crate) master_lhs: Box<[AttrId]>,
    /// Input-side RHS attributes `B`, flat.
    pub(crate) input_rhs: Box<[AttrId]>,
    /// Master-side RHS attributes `Bm`, flat, position-wise with `B`.
    pub(crate) master_rhs: Box<[AttrId]>,
    /// `Bm` as a mask: what the matching master rows must agree on.
    master_rhs_set: AttrSet,
    /// The pattern `tp[Xp]` over the input tuple.
    pub(crate) pattern: PatternTuple,
    /// Snapshot of the master index on `Xm` (`None` ⇒ scan fallback).
    pub(crate) index: Option<Arc<HashIndex>>,
    /// The rule's key group: the rules with this rule's `X` and `Xm`
    /// share one index probe per run (see [`KeyMemo`]).
    pub(crate) group: usize,
}

impl CompiledRule {
    /// Project the join key `tuple[X]` into `key_buf` (a reused buffer).
    fn key_into<T: Cells + ?Sized>(&self, tuple: &T, key_buf: &mut Vec<Value>) {
        key_buf.clear();
        key_buf.extend(self.input_lhs.iter().map(|&a| tuple.cell(a).clone()));
    }
}

/// One run's memo of the index probes it made, one slot per key group:
/// the first rule of a group that reaches its lookup probes the index
/// and keeps the posting here, and the group's other rules read it.
///
/// That is sound because a rule is attempted only once its evidence —
/// `X` included — is validated, and validated cells are frozen for the
/// rest of the run: every rule of a group would build the same key.
/// Whoever drives a run owns the memo and clears it at the run's start
/// (a `FixpointScratch` holds one); its slots are sized at the first
/// probe, so a run that makes no lookup touches none, and refilled in
/// place, so a warmed memo allocates nothing.
#[derive(Debug, Default)]
pub(crate) struct KeyMemo {
    /// Groups whose slot holds this run's probe.
    probed: AttrSet,
    slots: Vec<Slot>,
}

/// One group's probe, kept past the borrow of the index.
#[derive(Debug, Default)]
struct Slot {
    matches: usize,
    first: RowId,
    shared: bool,
    agree: AttrSet,
}

impl Slot {
    /// Hold `probe` in place of whatever was held, reusing the buffer.
    fn fill(&mut self, probe: Probe<'_>) {
        (self.matches, self.first) = (probe.matches, probe.first);
        self.shared = probe.agree.is_some();
        if let Some(agree) = probe.agree {
            self.agree.clone_from(agree);
        }
    }

    fn probe(&self) -> Probe<'_> {
        Probe {
            matches: self.matches,
            first: self.first,
            agree: self.shared.then_some(&self.agree),
        }
    }
}

impl KeyMemo {
    /// Forget every probe: a new run begins.
    pub(crate) fn clear(&mut self) {
        self.probed.clear();
    }
}

/// A compiled execution plan for one `(RuleSet, MasterData)` pair.
#[derive(Debug)]
pub struct CompiledRules {
    /// Rules in rule-id order (positions are dense even when the source
    /// set has deleted-rule gaps).
    pub(crate) rules: Vec<CompiledRule>,
    /// Evidence / RHS masks per rule position — what eligibility tests
    /// and the inference system run on.
    masks: RuleMasks,
    /// `watchers[attr]` = positions (into `rules`) of the rules whose
    /// evidence contains `attr`.
    watchers: Vec<Vec<u32>>,
    input_schema: SchemaRef,
    /// Master generation the index snapshots were resolved against.
    master_generation: u64,
    /// Number of key groups: distinct `(X, Xm)` join layouts.
    groups: usize,
}

impl CompiledRules {
    /// Compile `rules` against `master`, warming (and snapshotting) the
    /// master index for every distinct rule LHS and giving every rule its
    /// key group: rules with the same input LHS `X` and master LHS `Xm`
    /// (the same lists, in the same order) ask master data the same
    /// question of a tuple, so they share one group.
    pub fn compile(rules: &RuleSet, master: &MasterData) -> CompiledRules {
        let input_schema = rules.input_schema().clone();
        let masks = RuleMasks::of(rules);
        let mut compiled: Vec<CompiledRule> = Vec::with_capacity(rules.len());
        let mut watchers: Vec<Vec<u32>> = vec![Vec::new(); input_schema.arity()];
        let mut groups = 0;
        for (id, rule) in rules.iter() {
            let pos = compiled.len();
            for attr in masks.evidence(pos) {
                watchers[attr].push(pos as u32);
            }
            let (input_lhs, master_lhs) = (rule.input_lhs(), rule.master_lhs());
            let master_rhs = rule.master_rhs();
            let index = master.warmed_index(&master_lhs);
            let sibling = compiled
                .iter()
                .find(|r| *r.input_lhs == *input_lhs && *r.master_lhs == *master_lhs);
            let group = match sibling {
                Some(sibling) => sibling.group,
                None => {
                    groups += 1;
                    groups - 1
                }
            };
            compiled.push(CompiledRule {
                id,
                name: rule.name().to_string(),
                input_lhs: input_lhs.into_boxed_slice(),
                master_lhs: master_lhs.into_boxed_slice(),
                input_rhs: rule.input_rhs().into_boxed_slice(),
                master_rhs_set: master_rhs.iter().copied().collect(),
                master_rhs: master_rhs.into_boxed_slice(),
                pattern: rule.pattern().clone(),
                index,
                group,
            });
        }
        CompiledRules {
            rules: compiled,
            masks,
            watchers,
            input_schema,
            master_generation: master.generation(),
            groups,
        }
    }

    /// The certain lookup of the rule at `pos` for `tuple`, against
    /// `master` — the master this plan was compiled against: the certain
    /// witness, or `None`, which is final once the rule's evidence is
    /// validated (no match, disagreement, or a null fix value). The index
    /// is probed once per key group and run — `memo` holds the posting
    /// for the group's other rules, and `probes` counts the probes made —
    /// and `MasterData::certain_verdict` decides for each rule. The
    /// unindexed `T6` arm scans once per lookup.
    pub(crate) fn lookup<T: Cells + ?Sized>(
        &self,
        pos: usize,
        master: &MasterData,
        tuple: &T,
        key_buf: &mut Vec<Value>,
        memo: &mut KeyMemo,
        probes: &mut usize,
    ) -> Option<RowId> {
        let rule = &self.rules[pos];
        let Some(index) = rule.index.as_deref() else {
            rule.key_into(tuple, key_buf);
            let rhs = &rule.master_rhs_set;
            return master.certain_match(None, &rule.master_lhs, key_buf, rhs).1;
        };
        let group = rule.group;
        if !memo.probed.contains(group) {
            rule.key_into(tuple, key_buf);
            if memo.slots.len() < self.groups {
                memo.slots.resize_with(self.groups, Slot::default);
            }
            memo.slots[group].fill(index.probe(key_buf));
            memo.probed.insert(group);
            *probes += 1;
        }
        self.verdict(pos, master, memo.slots[group].probe())
    }

    /// The certain verdict of the rule at `pos` on `probe`, a posting of
    /// its index: the witness, iff the matching rows agree on the rule's
    /// `Bm` and the first has no null there
    /// ([`MasterData::certain_verdict`]). [`lookup`](Self::lookup) asks it
    /// of a probed key; the region search asks it of a master row's own
    /// posting, once per posting and rule.
    pub(crate) fn verdict(
        &self,
        pos: usize,
        master: &MasterData,
        probe: Probe<'_>,
    ) -> Option<RowId> {
        master
            .certain_verdict(probe, &self.rules[pos].master_rhs_set)
            .1
    }

    /// Number of compiled rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// True iff the plan contains no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// The input schema the plan was compiled over.
    pub fn input_schema(&self) -> &SchemaRef {
        &self.input_schema
    }

    /// The [`MasterData::generation`] the index snapshots belong to. A
    /// plan must not serve a master with a newer generation — recompile
    /// after appends (the delta engine debug-asserts this).
    pub fn master_generation(&self) -> u64 {
        self.master_generation
    }

    /// The rules' evidence / RHS masks, by rule position.
    pub(crate) fn masks(&self) -> &RuleMasks {
        &self.masks
    }

    /// Positions of the rules whose evidence contains `attr`.
    pub(crate) fn watchers(&self, attr: AttrId) -> &[u32] {
        self.watchers.get(attr).map_or(&[], Vec::as_slice)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cerfix_relation::{RelationBuilder, Schema, Value};
    use cerfix_rules::EditingRule;

    fn fixture() -> (RuleSet, MasterData) {
        let input = Schema::of_strings("in", ["zip", "AC", "city", "type"]).unwrap();
        let ms = Schema::of_strings("m", ["zip", "AC", "city"]).unwrap();
        let master = MasterData::new(
            RelationBuilder::new(ms.clone())
                .row_strs(["EH8", "131", "Edi"])
                .build()
                .unwrap(),
        );
        let pair = |n: &str| (input.attr_id(n).unwrap(), ms.attr_id(n).unwrap());
        let ty = input.attr_id("type").unwrap();
        let mut rules = RuleSet::new(input.clone(), ms.clone());
        rules
            .add(
                EditingRule::new(
                    "zip_ac",
                    &input,
                    &ms,
                    vec![pair("zip")],
                    vec![pair("AC")],
                    PatternTuple::empty().with_eq(ty, Value::str("2")),
                )
                .unwrap(),
            )
            .unwrap();
        rules
            .add(
                EditingRule::new(
                    "ac_city",
                    &input,
                    &ms,
                    vec![pair("AC")],
                    vec![pair("city")],
                    PatternTuple::empty(),
                )
                .unwrap(),
            )
            .unwrap();
        (rules, master)
    }

    #[test]
    fn compile_resolves_masks_watchers_and_indexes() {
        let (rules, master) = fixture();
        let plan = CompiledRules::compile(&rules, &master);
        assert_eq!(plan.len(), 2);
        assert!(!plan.is_empty());
        let input = rules.input_schema();
        let zip = input.attr_id("zip").unwrap();
        let ac = input.attr_id("AC").unwrap();
        let ty = input.attr_id("type").unwrap();
        // zip_ac watches {zip, type} (LHS + pattern), ac_city watches {AC}.
        assert_eq!(plan.watchers(zip), &[0]);
        assert_eq!(plan.watchers(ty), &[0]);
        assert_eq!(plan.watchers(ac), &[1]);
        assert!(
            plan.masks().evidence(0).contains(ty),
            "pattern attr is evidence"
        );
        assert!(plan.masks().rhs(1).contains(input.attr_id("city").unwrap()));
        // Index snapshots resolved (indexed master).
        assert!(plan.rules.iter().all(|r| r.index.is_some()));
        assert_eq!(master.index_count(), 2, "compile warmed both LHS indexes");
        assert_eq!(plan.master_generation(), master.generation());
    }

    #[test]
    fn rules_sharing_a_join_layout_share_a_key_group() {
        let (mut rules, master) = fixture();
        let (input, ms) = (rules.input_schema().clone(), rules.master_schema().clone());
        let (zip, ac, city) = (0, 1, 2);
        // zip→city joins as zip_ac does; AC→zip joins master `zip` on
        // another input attribute: a group of its own.
        for (name, lhs, rhs) in [
            ("zip_city", (zip, zip), (city, city)),
            ("ac_as_zip", (ac, zip), (city, city)),
        ] {
            let rule = EditingRule::new(
                name,
                &input,
                &ms,
                vec![lhs],
                vec![rhs],
                PatternTuple::empty(),
            );
            rules.add(rule.unwrap()).unwrap();
        }
        let plan = CompiledRules::compile(&rules, &master);
        let groups: Vec<usize> = plan.rules.iter().map(|r| r.group).collect();
        assert_eq!(groups, [0, 1, 0, 2]);
        assert_eq!(plan.groups, 3);
    }

    #[test]
    fn unindexed_master_compiles_to_scan_fallback() {
        let (rules, master) = fixture();
        let unindexed = MasterData::new_unindexed(master.relation().clone());
        let plan = CompiledRules::compile(&rules, &unindexed);
        assert!(plan.rules.iter().all(|r| r.index.is_none()));
        assert_eq!(unindexed.index_count(), 0);
    }

    #[test]
    fn rule_deletion_keeps_source_ids() {
        let (mut rules, master) = fixture();
        rules.remove("zip_ac").unwrap();
        let plan = CompiledRules::compile(&rules, &master);
        assert_eq!(plan.len(), 1);
        assert_eq!(plan.rules[0].id, 1, "provenance keeps the RuleSet id");
    }
}
