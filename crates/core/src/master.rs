//! The master data manager (paper §2).
//!
//! Owns the master relation `Dm` — "a single repository of high-quality
//! data", assumed consistent and accurate — and answers the one query the
//! correcting process needs: *which master tuples match `t[X] = s[Xm]` for
//! a rule's LHS, and do they agree on the fix values `s[Bm]`?*
//!
//! Per distinct `Xm` attribute list, a [`HashIndex`] is built on first use
//! and cached, so rule application is O(1) expected per lookup regardless
//! of `|Dm|` — and regardless of how many master tuples share the key,
//! which matters because `Xm` need not be a key of `Dm` (HOSP's
//! `measure` matches a ninth of the relation). The certain-application
//! invariant has two independent halves:
//!
//! 1. **Agreement**: every matching row equals the first on each `Bm`
//!    attribute. This decomposes per attribute, depends on no rule, and
//!    is monotone under append (a later row can only break agreement on
//!    an attribute, never restore it), so the index entry of a key keeps
//!    the set of attributes its rows agree on, maintained on insert, and
//!    answers with one subset test ([`HashIndex::certain`]).
//! 2. **Evidence**: the first row's `Bm` cells are non-null (a null
//!    master cell is not evidence of anything) — O(`|Bm|`) on the witness
//!    row alone.
//!
//! `MasterData::certain_verdict` is the one place both halves meet, over
//! one probe of the key — which the compiled engines share between the
//! rules that join on the same key in one run; the unindexed arm of
//! `MasterData::certain_match` answers the same question by scanning `Dm`
//! and folding over the matches. Experiment `T6` ablates the index against
//! full scans; `T3` sweeps `|Dm|` to show the resulting flat latency
//! curve.
//!
//! An index is flat (see `cerfix_relation`'s index module): one arena
//! of key cells, one table from each key's stored hash to an inline slot,
//! one arena of the rows of shared keys. Building one over `Dm` hashes
//! each row once and allocates nothing per row, and the copy
//! [`append_copy`](MasterData::append_copy) makes of each index is a few
//! flat vector copies. The hash is SipHash under a key drawn per index,
//! and a hit is confirmed on the full key (a second key with the same
//! hash chains behind the first): `master.append` takes rows from
//! clients, so the table must not let them pick colliding keys — the
//! reason there is no unkeyed hasher here. The indexes sit in a map
//! ordered by attribute list, so everything that walks them does so in
//! one order every run.

use cerfix_relation::{
    AttrId, AttrSet, HashIndex, Probe, Relation, RowId, SchemaRef, Tuple, Value,
};
use cerfix_rules::EditingRule;
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Outcome of a certain-lookup for one rule against one input tuple.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CertainLookup {
    /// No master tuple matches `t[X]` (under the rule's join).
    NoMatch,
    /// Master tuples match but disagree on at least one fix value, so no
    /// *certain* fix exists for this rule on this tuple.
    Ambiguous {
        /// Number of matching master tuples.
        matches: usize,
    },
    /// All matching master tuples agree: the unique fix values, one per
    /// RHS pair, plus a witness row for provenance.
    Unique {
        /// The agreed fix values, position-wise with the rule's RHS.
        values: Vec<Value>,
        /// A master row carrying those values (the first match), recorded
        /// in audit provenance.
        witness: RowId,
        /// Number of matching master tuples (all agreeing).
        matches: usize,
    },
}

/// What one master append batch changed.
#[derive(Debug, Clone)]
pub struct MasterDelta {
    /// Row id of the first appended row.
    pub first_row: RowId,
    /// Number of rows appended.
    pub appended: usize,
    /// The master generation after the append.
    pub generation: u64,
}

/// The master data manager: `Dm` plus per-LHS lookup indexes.
///
/// Indexes are stored as immutable `Arc<HashIndex>` snapshots: the
/// serving path (compiled rule plans) holds an `Arc` and probes
/// lock-free; the `RwLock` is touched only to fetch or build a snapshot.
/// Appends bump [`generation`] so holders of stale snapshots (e.g. a
/// [`CompiledRules`] plan built before the append) can detect that they
/// must re-resolve.
///
/// [`generation`]: MasterData::generation
/// [`CompiledRules`]: crate::engine::CompiledRules
#[derive(Debug)]
pub struct MasterData {
    relation: Relation,
    /// Index cache keyed by the master-side LHS attribute list, in
    /// attribute-list order. `RwLock` so concurrent monitor streams share
    /// lazily-built indexes.
    indexes: RwLock<BTreeMap<Vec<AttrId>, Arc<HashIndex>>>,
    /// When false, lookups scan the relation (the `T6` ablation arm).
    use_indexes: bool,
    /// Bumped on every append; lets compiled plans detect staleness.
    generation: AtomicU64,
}

impl MasterData {
    /// Wrap a master relation, with indexing enabled.
    pub fn new(relation: Relation) -> MasterData {
        MasterData {
            relation,
            indexes: RwLock::new(BTreeMap::new()),
            use_indexes: true,
            generation: AtomicU64::new(0),
        }
    }

    /// Wrap a master relation with indexing disabled (every lookup scans).
    /// Exists for the indexing ablation; production paths use [`new`].
    ///
    /// [`new`]: MasterData::new
    pub fn new_unindexed(relation: Relation) -> MasterData {
        MasterData {
            relation,
            indexes: RwLock::new(BTreeMap::new()),
            use_indexes: false,
            generation: AtomicU64::new(0),
        }
    }

    /// The master schema.
    pub fn schema(&self) -> &SchemaRef {
        self.relation.schema()
    }

    /// The underlying relation.
    pub fn relation(&self) -> &Relation {
        &self.relation
    }

    /// Number of master tuples.
    pub fn len(&self) -> usize {
        self.relation.len()
    }

    /// True iff the master relation is empty.
    pub fn is_empty(&self) -> bool {
        self.relation.is_empty()
    }

    /// Master tuple by row id.
    pub fn tuple(&self, row: RowId) -> Option<&Tuple> {
        self.relation.row(row)
    }

    /// True iff lookups go through hash indexes (false on the `T6`
    /// ablation arm, where every lookup scans the relation).
    pub fn uses_indexes(&self) -> bool {
        self.use_indexes
    }

    /// Monotone counter bumped on every [`append`](MasterData::append).
    /// Compiled rule plans record the generation they were resolved
    /// against and refuse to serve a newer master.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// The (possibly freshly built) index snapshot over `attrs`, or
    /// `None` on the unindexed ablation arm. The returned `Arc` is a
    /// point-in-time snapshot: it stays valid (and lock-free to probe)
    /// however long the caller holds it, but does not see later appends.
    pub fn warmed_index(&self, attrs: &[AttrId]) -> Option<Arc<HashIndex>> {
        if !self.use_indexes {
            return None;
        }
        {
            let cache = self.indexes.read();
            if let Some(idx) = cache.get(attrs) {
                return Some(Arc::clone(idx));
            }
        }
        let mut cache = self.indexes.write();
        let idx = cache
            .entry(attrs.to_vec())
            .or_insert_with(|| Arc::new(HashIndex::build(&self.relation, attrs.to_vec())));
        Some(Arc::clone(idx))
    }

    /// The certain-lookup at the heart of rule application: find the
    /// master tuples matching `t` under `rule`'s LHS join, and return the
    /// unique fix values iff all matches agree on every RHS attribute.
    ///
    /// The rule's pattern is *not* evaluated here (it constrains the input
    /// tuple only); callers gate on it first.
    pub fn certain_lookup(&self, rule: &EditingRule, t: &Tuple) -> CertainLookup {
        let input_lhs = rule.input_lhs();
        let master_lhs = rule.master_lhs();
        let key = t.project(&input_lhs);
        self.certain_lookup_at(&master_lhs, &key, &rule.master_rhs())
    }

    /// Flat-slice form of [`certain_lookup`](Self::certain_lookup): the
    /// caller supplies the resolved attribute layouts and the projected
    /// key.
    pub fn certain_lookup_at(
        &self,
        master_lhs: &[AttrId],
        key: &[Value],
        master_rhs: &[AttrId],
    ) -> CertainLookup {
        let index = self.warmed_index(master_lhs);
        let rhs: AttrSet = master_rhs.iter().copied().collect();
        match self.certain_match(index.as_deref(), master_lhs, key, &rhs) {
            (0, _) => CertainLookup::NoMatch,
            (matches, None) => CertainLookup::Ambiguous { matches },
            (matches, Some(witness)) => {
                let first = self.relation.row(witness).expect("index row in range");
                CertainLookup::Unique {
                    values: master_rhs.iter().map(|&a| first.get(a).clone()).collect(),
                    witness,
                    matches,
                }
            }
        }
    }

    /// THE certain-application query, as `(match count, certain
    /// witness)`: how many master rows have `s[master_lhs] = key`, and —
    /// iff at least one matched, all of them agree on every `master_rhs`
    /// attribute, and no fix value is null — the first of them. It is the
    /// only place that chooses between probing and scanning, and on the
    /// probing side it is [`certain_verdict`](Self::certain_verdict) over
    /// one probe — the verdict the compiled engines reach through their
    /// per-run key memo, so the semantics cannot drift.
    ///
    /// `index` is a snapshot over `master_lhs` of this master's generation
    /// (a compiled plan's, or [`warmed_index`](Self::warmed_index)); it
    /// answers count and agreement in one probe, whatever the number of
    /// matching rows, leaving only the null check on the witness. `None`
    /// is the unindexed `T6` arm: scan `Dm` and fold the matches through
    /// [`certain_witness`](Self::certain_witness).
    pub(crate) fn certain_match(
        &self,
        index: Option<&HashIndex>,
        master_lhs: &[AttrId],
        key: &[Value],
        master_rhs: &AttrSet,
    ) -> (usize, Option<RowId>) {
        let Some(index) = index else {
            let rows = self.relation.iter().filter_map(|(id, s)| {
                master_lhs
                    .iter()
                    .zip(key.iter())
                    .all(|(&a, k)| s.get(a).matches(k))
                    .then_some(id)
            });
            return self.certain_witness(rows, master_rhs);
        };
        self.certain_verdict(index.probe(key), master_rhs)
    }

    /// One rule's verdict on one key's probe, as `(match count, certain
    /// witness)`: the probe's first row iff the matching rows agree on
    /// every `master_rhs` attribute (a subset test against the key's
    /// agreement set) and none of its fix values is null. A probe answers
    /// every rule that joins on its key, each with its own `Bm`; this is
    /// the one function that decides for each.
    pub(crate) fn certain_verdict(
        &self,
        probe: Probe<'_>,
        master_rhs: &AttrSet,
    ) -> (usize, Option<RowId>) {
        let witness = probe.agreed(master_rhs).filter(|&row| {
            let first = self.relation.row(row).expect("index row in range");
            !master_rhs.iter().any(|a| first.get(a).is_null())
        });
        (probe.matches, witness)
    }

    /// The certain-application invariant as a fold over the matching
    /// rows: the witness is `Some` iff at least one row matched, all rows
    /// agree with the first on every `master_rhs` attribute, and no fix
    /// value of the first is null. This is the scan arm of
    /// [`certain_match`](Self::certain_match) — and, because it reads
    /// every row, the oracle the index's maintained agreement sets are
    /// tested against (`tests/engine_equivalence.rs`).
    fn certain_witness(
        &self,
        rows: impl Iterator<Item = RowId>,
        master_rhs: &AttrSet,
    ) -> (usize, Option<RowId>) {
        let mut matches = 0usize;
        let mut witness: RowId = 0;
        let mut ambiguous = false;
        for row in rows {
            if matches == 0 {
                witness = row;
            } else if !ambiguous {
                let first = self.relation.row(witness).expect("index row in range");
                let s = self.relation.row(row).expect("index row in range");
                ambiguous = master_rhs.iter().any(|a| s.get(a) != first.get(a));
            }
            matches += 1;
        }
        if matches == 0 {
            return (0, None);
        }
        let first = self.relation.row(witness).expect("index row in range");
        if ambiguous || master_rhs.iter().any(|a| first.get(a).is_null()) {
            return (matches, None);
        }
        (matches, Some(witness))
    }

    /// Append a master tuple, keeping every materialized index current.
    ///
    /// Master data management (paper §2) is a living repository: new core
    /// entities arrive. Appends are cheap — each cached index gains one
    /// posting and, where the key already had rows, drops from its
    /// agreement set the attributes the new row differs on — but callers
    /// should re-run consistency checking and region finding afterwards,
    /// since new rows can introduce key ambiguities that invalidate both
    /// (the demo pre-computes regions for exactly this reason; see
    /// `Explorer::recompute_regions`). For batches,
    /// [`append_rows`](Self::append_rows) reports the appended range.
    pub fn append(&mut self, tuple: Tuple) -> crate::error::Result<RowId> {
        let row_id = self.relation.push(tuple)?;
        if self.use_indexes {
            let mut cache = self.indexes.write();
            for index in cache.values_mut() {
                // Snapshots held elsewhere (compiled plans) keep the old
                // copy; `make_mut` clones only when one is outstanding.
                Arc::make_mut(index).insert_row(&self.relation, row_id);
            }
        }
        self.generation.fetch_add(1, Ordering::Release);
        Ok(row_id)
    }

    /// Append a batch of rows, returning a [`MasterDelta`] describing
    /// what changed: the appended row range and the new generation. The
    /// index lock is taken once for the batch. Validates every row up
    /// front, so a failure appends nothing.
    pub fn append_rows(&mut self, rows: Vec<Tuple>) -> crate::error::Result<MasterDelta> {
        for row in &rows {
            if !self.schema().same_as(row.schema()) {
                return Err(cerfix_relation::RelationError::SchemaMismatch {
                    expected: self.schema().name().into(),
                    actual: row.schema().name().into(),
                }
                .into());
            }
        }
        let first_row = self.relation.len();
        let appended = rows.len();
        for row in rows {
            self.relation.push(row).expect("pre-checked schema");
        }
        if self.use_indexes {
            let mut cache = self.indexes.write();
            for index in cache.values_mut() {
                let index = Arc::make_mut(index);
                for row_id in first_row..self.relation.len() {
                    index.insert_row(&self.relation, row_id);
                }
            }
        }
        self.generation
            .fetch_add(appended as u64, Ordering::Release);
        Ok(MasterDelta {
            first_row,
            appended,
            generation: self.generation(),
        })
    }

    /// Copy-on-append for shared masters: clone the relation and every
    /// materialized index, append `rows`, and return the new instance
    /// plus its delta. The generation continues monotonically from this
    /// instance (a copy is never confusable with its ancestor in
    /// generation-keyed caches); existing index snapshots held by
    /// compiled plans keep serving the old data untouched. This is the
    /// shape `cerfix-server` uses for its `master.append` op, where the
    /// live master is shared immutably across sessions.
    pub fn append_copy(&self, rows: Vec<Tuple>) -> crate::error::Result<(MasterData, MasterDelta)> {
        let mut copy = MasterData {
            relation: self.relation.clone(),
            indexes: RwLock::new(
                self.indexes
                    .read()
                    .iter()
                    .map(|(attrs, index)| (attrs.clone(), Arc::new((**index).clone())))
                    .collect(),
            ),
            use_indexes: self.use_indexes,
            generation: AtomicU64::new(self.generation()),
        };
        let delta = copy.append_rows(rows)?;
        Ok((copy, delta))
    }

    /// Number of indexes materialized so far (diagnostics).
    pub fn index_count(&self) -> usize {
        self.indexes.read().len()
    }

    /// Pre-build the indexes needed by `rules` (bulk warm-up before a
    /// monitoring run, mirroring the demo's pre-computation step).
    pub fn warm_indexes<'a>(&self, rules: impl IntoIterator<Item = &'a EditingRule>) {
        if !self.use_indexes {
            return;
        }
        let mut cache = self.indexes.write();
        for rule in rules {
            let attrs = rule.master_lhs();
            cache
                .entry(attrs.clone())
                .or_insert_with(|| Arc::new(HashIndex::build(&self.relation, attrs)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cerfix_relation::{RelationBuilder, Schema};
    use cerfix_rules::PatternTuple;

    fn schemas() -> (SchemaRef, SchemaRef) {
        (
            Schema::of_strings("customer", ["AC", "phn", "city", "zip", "type"]).unwrap(),
            Schema::of_strings("master", ["AC", "Mphn", "city", "zip"]).unwrap(),
        )
    }

    fn master_data(ms: &SchemaRef) -> MasterData {
        MasterData::new(
            RelationBuilder::new(ms.clone())
                .row_strs(["131", "079172485", "Edi", "EH8 4AH"])
                .row_strs(["020", "079555555", "Ldn", "SW1A 1AA"])
                .row_strs(["131", "079666666", "Edi", "EH9 1PR"])
                .build()
                .unwrap(),
        )
    }

    fn zip_to_city(input: &SchemaRef, master: &SchemaRef) -> EditingRule {
        EditingRule::new(
            "r",
            input,
            master,
            vec![(
                input.attr_id("zip").unwrap(),
                master.attr_id("zip").unwrap(),
            )],
            vec![(
                input.attr_id("city").unwrap(),
                master.attr_id("city").unwrap(),
            )],
            PatternTuple::empty(),
        )
        .unwrap()
    }

    #[test]
    fn unique_lookup() {
        let (input, ms) = schemas();
        let md = master_data(&ms);
        let rule = zip_to_city(&input, &ms);
        let t = Tuple::of_strings(input.clone(), ["x", "p", "???", "EH8 4AH", "2"]).unwrap();
        match md.certain_lookup(&rule, &t) {
            CertainLookup::Unique {
                values,
                witness,
                matches,
            } => {
                assert_eq!(values, vec![Value::str("Edi")]);
                assert_eq!(witness, 0);
                assert_eq!(matches, 1);
            }
            other => panic!("expected unique, got {other:?}"),
        }
    }

    #[test]
    fn no_match_lookup() {
        let (input, ms) = schemas();
        let md = master_data(&ms);
        let rule = zip_to_city(&input, &ms);
        let t = Tuple::of_strings(input.clone(), ["x", "p", "c", "ZZ9 9ZZ", "2"]).unwrap();
        assert_eq!(md.certain_lookup(&rule, &t), CertainLookup::NoMatch);
    }

    #[test]
    fn null_key_never_matches() {
        let (input, ms) = schemas();
        let md = master_data(&ms);
        let rule = zip_to_city(&input, &ms);
        let t = Tuple::all_null(input.clone());
        assert_eq!(md.certain_lookup(&rule, &t), CertainLookup::NoMatch);
    }

    #[test]
    fn agreeing_duplicates_stay_unique() {
        // Two Edinburgh rows share AC=131 and agree on city ⇒ AC→city is
        // still a certain lookup.
        let (input, ms) = schemas();
        let md = master_data(&ms);
        let rule = EditingRule::new(
            "ac_city",
            &input,
            &ms,
            vec![(input.attr_id("AC").unwrap(), ms.attr_id("AC").unwrap())],
            vec![(input.attr_id("city").unwrap(), ms.attr_id("city").unwrap())],
            PatternTuple::empty(),
        )
        .unwrap();
        let t = Tuple::of_strings(input.clone(), ["131", "p", "?", "z", "2"]).unwrap();
        match md.certain_lookup(&rule, &t) {
            CertainLookup::Unique {
                values, matches, ..
            } => {
                assert_eq!(values, vec![Value::str("Edi")]);
                assert_eq!(matches, 2);
            }
            other => panic!("expected unique, got {other:?}"),
        }
    }

    #[test]
    fn disagreeing_matches_are_ambiguous() {
        // AC→zip is NOT certain: the two 131 rows have different zips.
        let (input, ms) = schemas();
        let md = master_data(&ms);
        let rule = EditingRule::new(
            "ac_zip",
            &input,
            &ms,
            vec![(input.attr_id("AC").unwrap(), ms.attr_id("AC").unwrap())],
            vec![(input.attr_id("zip").unwrap(), ms.attr_id("zip").unwrap())],
            PatternTuple::empty(),
        )
        .unwrap();
        let t = Tuple::of_strings(input.clone(), ["131", "p", "c", "?", "2"]).unwrap();
        assert_eq!(
            md.certain_lookup(&rule, &t),
            CertainLookup::Ambiguous { matches: 2 }
        );
    }

    #[test]
    fn null_master_fix_value_is_ambiguous() {
        let (input, ms) = schemas();
        let mut rel = RelationBuilder::new(ms.clone())
            .row_strs(["131", "079", "Edi", "EH8"])
            .build()
            .unwrap();
        rel.row_mut(0)
            .unwrap()
            .set_by_name("city", Value::Null)
            .unwrap();
        let md = MasterData::new(rel);
        let rule = zip_to_city(&input, &ms);
        let t = Tuple::of_strings(input.clone(), ["x", "p", "c", "EH8", "2"]).unwrap();
        assert!(matches!(
            md.certain_lookup(&rule, &t),
            CertainLookup::Ambiguous { .. }
        ));
    }

    #[test]
    fn indexed_and_scan_agree() {
        let (input, ms) = schemas();
        let indexed = master_data(&ms);
        let scanned = MasterData::new_unindexed(
            RelationBuilder::new(ms.clone())
                .row_strs(["131", "079172485", "Edi", "EH8 4AH"])
                .row_strs(["020", "079555555", "Ldn", "SW1A 1AA"])
                .row_strs(["131", "079666666", "Edi", "EH9 1PR"])
                .build()
                .unwrap(),
        );
        let rule = zip_to_city(&input, &ms);
        for zip in ["EH8 4AH", "SW1A 1AA", "EH9 1PR", "nope"] {
            let t = Tuple::of_strings(input.clone(), ["x", "p", "c", zip, "2"]).unwrap();
            assert_eq!(
                indexed.certain_lookup(&rule, &t),
                scanned.certain_lookup(&rule, &t),
                "zip={zip}"
            );
        }
        assert_eq!(
            scanned.index_count(),
            0,
            "ablation arm must not build indexes"
        );
        assert!(indexed.index_count() >= 1);
    }

    #[test]
    fn warm_indexes_prebuilds() {
        let (input, ms) = schemas();
        let md = master_data(&ms);
        let r1 = zip_to_city(&input, &ms);
        assert_eq!(md.index_count(), 0);
        md.warm_indexes([&r1]);
        assert_eq!(md.index_count(), 1);
        md.warm_indexes([&r1]); // idempotent
        assert_eq!(md.index_count(), 1);
    }

    #[test]
    fn append_maintains_indexes() {
        let (input, ms) = schemas();
        let mut md = master_data(&ms);
        let rule = zip_to_city(&input, &ms);
        // Materialize the zip index, then append a new entity.
        let t_probe = Tuple::of_strings(input.clone(), ["x", "p", "c", "G12 8QQ", "2"]).unwrap();
        assert_eq!(md.certain_lookup(&rule, &t_probe), CertainLookup::NoMatch);
        let new_row = Tuple::of_strings(ms.clone(), ["141", "077", "Gla", "G12 8QQ"]).unwrap();
        let id = md.append(new_row).unwrap();
        assert_eq!(id, 3);
        match md.certain_lookup(&rule, &t_probe) {
            CertainLookup::Unique {
                values, witness, ..
            } => {
                assert_eq!(values, vec![Value::str("Gla")]);
                assert_eq!(witness, 3);
            }
            other => panic!("index not maintained: {other:?}"),
        }
    }

    #[test]
    fn append_can_introduce_ambiguity() {
        // A new row that disagrees with an existing key turns certain
        // lookups ambiguous — master-data drift that consistency
        // re-checking would surface.
        let (input, ms) = schemas();
        let mut md = master_data(&ms);
        let rule = zip_to_city(&input, &ms);
        let t = Tuple::of_strings(input.clone(), ["x", "p", "c", "EH8 4AH", "2"]).unwrap();
        assert!(matches!(
            md.certain_lookup(&rule, &t),
            CertainLookup::Unique { .. }
        ));
        md.append(Tuple::of_strings(ms.clone(), ["131", "079", "Leith", "EH8 4AH"]).unwrap())
            .unwrap();
        assert_eq!(
            md.certain_lookup(&rule, &t),
            CertainLookup::Ambiguous { matches: 2 }
        );
    }

    #[test]
    fn append_rejects_foreign_schema() {
        let (_, ms) = schemas();
        let mut md = master_data(&ms);
        let other = Schema::of_strings("master", ["AC", "Mphn", "city", "zip"]).unwrap();
        let t = Tuple::of_strings(other, ["1", "2", "3", "4"]).unwrap();
        assert!(md.append(t).is_err());
    }

    #[test]
    fn accessors() {
        let (_, ms) = schemas();
        let md = master_data(&ms);
        assert_eq!(md.len(), 3);
        assert!(!md.is_empty());
        assert!(md.tuple(0).is_some());
        assert!(md.tuple(9).is_none());
        assert_eq!(md.schema().name(), "master");
        assert_eq!(md.relation().len(), 3);
    }
}
