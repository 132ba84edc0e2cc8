//! Multi-attribute hash indexes over relations.
//!
//! The master data manager builds one index per distinct editing-rule LHS
//! (`Xm` attribute list) so that the correcting process answers
//! "which master tuples have `s[Xm] = t[X]`, and do they agree on
//! `s[Bm]`?" in O(1) expected time instead of scanning `Dm`. Experiment
//! `T6` ablates exactly this structure.
//!
//! Both halves of that question are answered by the probe. Per key an
//! entry holds the matching row ids *and* the set of attributes on which
//! all of those rows carry the same value, maintained when a row is
//! inserted: "do the matches agree on `Bm`?" is then one subset test
//! ([`HashIndex::certain`]), whether the key matches one row or two
//! thousand. Agreement decomposes per attribute and is monotone under
//! append — a later row can only take an attribute out of the set, never
//! put one back — so an insert compares the new row with the key's first
//! row on the attributes still in the set and nothing else.

use crate::attrset::AttrSet;
use crate::relation::{Relation, RowId};
use crate::schema::AttrId;
use crate::tuple::Tuple;
use crate::value::Value;
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// The rows of one key. Most keys of a master index are unique (`zip`,
/// `phn`), and a lone row agrees with itself on every attribute, so it is
/// stored inline: no `Vec`, no agreement set, no allocation. Only a key
/// shared by several rows carries both.
#[derive(Debug, Clone)]
enum Posting {
    One(RowId),
    Many(Box<Shared>),
}

/// A key matched by at least two rows.
#[derive(Debug, Clone)]
struct Shared {
    /// The matching rows, in insertion order.
    rows: Vec<RowId>,
    /// The attributes (of the whole relation schema, not just some
    /// rule's `Bm`) on which every row equals `rows[0]`. `Null == Null`
    /// counts as agreement; whether a null is usable evidence is the
    /// caller's question about the witness row.
    agree: AttrSet,
}

impl Posting {
    fn rows(&self) -> &[RowId] {
        match self {
            Posting::One(row) => std::slice::from_ref(row),
            Posting::Many(shared) => &shared.rows,
        }
    }

    /// Add `row_id` to this key, narrowing the agreement set to the
    /// attributes on which the new row still equals the first.
    fn push(&mut self, relation: &Relation, row_id: RowId, row: &Tuple) {
        match self {
            Posting::One(first_id) => {
                let first = relation.row(*first_id).expect("indexed row in range");
                let agree = (0..relation.schema().arity())
                    .filter(|&a| first.get(a) == row.get(a))
                    .collect();
                *self = Posting::Many(Box::new(Shared {
                    rows: vec![*first_id, row_id],
                    agree,
                }));
            }
            Posting::Many(shared) => {
                let first = relation.row(shared.rows[0]).expect("indexed row in range");
                let mut from = 0;
                while let Some(a) = shared.agree.next_at_or_after(from) {
                    if first.get(a) != row.get(a) {
                        shared.agree.remove(a);
                    }
                    from = a + 1;
                }
                shared.rows.push(row_id);
            }
        }
    }
}

/// What one probe of a key found ([`HashIndex::probe`]): the answer to
/// every rule that joins on that key, whatever its `Bm`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Probe<'a> {
    /// Rows matching the key.
    pub matches: usize,
    /// The first of them, in insertion order (meaningless when none
    /// matched).
    pub first: RowId,
    /// The attributes on which every matching row equals the first;
    /// `None` when at most one row matched, which agrees with itself on
    /// every attribute.
    pub agree: Option<&'a AttrSet>,
}

impl Probe<'_> {
    /// The agreement half of a certain lookup: the first matching row,
    /// iff a row matched and all of them carry the same value on every
    /// attribute of `rhs`.
    pub fn agreed(&self, rhs: &AttrSet) -> Option<RowId> {
        let agreed = self.agree.is_none_or(|agree| rhs.is_subset(agree));
        (self.matches > 0 && agreed).then_some(self.first)
    }
}

/// A hash index on a fixed attribute list of one relation: per key, the
/// matching rows and the attributes those rows agree on (see the module
/// docs).
///
/// Keys containing nulls are *not* indexed: a null master cell can never be
/// matched by rule semantics (nulls match nothing), so omitting them keeps
/// lookups and rule semantics aligned.
#[derive(Debug, Clone)]
pub struct HashIndex {
    attrs: Vec<AttrId>,
    map: HashMap<Box<[Value]>, Posting>,
}

impl HashIndex {
    /// Build an index over `attrs` for every current row of `relation`.
    pub fn build(relation: &Relation, attrs: impl Into<Vec<AttrId>>) -> HashIndex {
        let mut index = HashIndex {
            attrs: attrs.into(),
            map: HashMap::new(),
        };
        for row_id in 0..relation.len() {
            index.insert_row(relation, row_id);
        }
        index
    }

    /// The indexed attribute list (in key order).
    pub fn attrs(&self) -> &[AttrId] {
        &self.attrs
    }

    /// The entry of `key`; a key with a null has none (never indexed).
    fn posting(&self, key: &[Value]) -> Option<&Posting> {
        if key.iter().any(Value::is_null) {
            return None;
        }
        self.map.get(key)
    }

    /// Row ids whose projection equals `key`, in insertion order. Keys with
    /// nulls return the empty slice (consistent with match semantics).
    pub fn lookup(&self, key: &[Value]) -> &[RowId] {
        self.posting(key).map_or(&[], Posting::rows)
    }

    /// One probe of `key`: its posting as the index holds it — how many
    /// rows match, the first of them, what they all agree on — before
    /// any rule's `Bm` is asked about. No row is read: agreement was
    /// settled when the rows were inserted.
    pub fn probe(&self, key: &[Value]) -> Probe<'_> {
        match self.posting(key) {
            None => Probe {
                matches: 0,
                first: 0,
                agree: None,
            },
            Some(Posting::One(row)) => Probe {
                matches: 1,
                first: *row,
                agree: None,
            },
            Some(Posting::Many(shared)) => Probe {
                matches: shared.rows.len(),
                first: shared.rows[0],
                agree: Some(&shared.agree),
            },
        }
    }

    /// The certain lookup's index half, in one probe: how many rows match
    /// `key`, and — iff they all carry the same value on every attribute
    /// of `rhs` — the first of them.
    pub fn certain(&self, key: &[Value], rhs: &AttrSet) -> (usize, Option<RowId>) {
        let probe = self.probe(key);
        (probe.matches, probe.agreed(rhs))
    }

    /// Register row `row_id` of `relation` (used when master data grows).
    /// `relation` must be the relation every earlier row came from: the
    /// new row is compared with the first row of its key.
    pub fn insert_row(&mut self, relation: &Relation, row_id: RowId) {
        let row = relation.row(row_id).expect("inserted row in range");
        let key = row.project(&self.attrs);
        if key.iter().any(Value::is_null) {
            return;
        }
        match self.map.entry(key.into_boxed_slice()) {
            Entry::Vacant(slot) => {
                slot.insert(Posting::One(row_id));
            }
            Entry::Occupied(mut slot) => slot.get_mut().push(relation, row_id, row),
        }
    }

    /// Number of distinct keys.
    pub fn distinct_keys(&self) -> usize {
        self.map.len()
    }

    /// Total number of postings.
    pub fn postings(&self) -> usize {
        self.map.values().map(|p| p.rows().len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;

    fn master() -> Relation {
        let schema = Schema::of_strings("m", ["zip", "AC", "city"]).unwrap();
        let rows = [
            ("EH8 4AH", "131", "Edi"),
            ("SW1A 1AA", "020", "Ldn"),
            ("EH8 4AH", "131", "Edi"), // duplicate key
        ];
        Relation::from_tuples(
            schema.clone(),
            rows.iter()
                .map(|(z, a, c)| Tuple::of_strings(schema.clone(), [*z, *a, *c]).unwrap()),
        )
        .unwrap()
    }

    #[test]
    fn single_attr_lookup() {
        let rel = master();
        let idx = HashIndex::build(&rel, vec![0]);
        assert_eq!(idx.lookup(&[Value::str("EH8 4AH")]), &[0, 2]);
        assert_eq!(idx.lookup(&[Value::str("SW1A 1AA")]), &[1]);
        assert!(idx.lookup(&[Value::str("nowhere")]).is_empty());
    }

    #[test]
    fn multi_attr_lookup() {
        let rel = master();
        let idx = HashIndex::build(&rel, vec![1, 0]); // (AC, zip)
        assert_eq!(
            idx.lookup(&[Value::str("131"), Value::str("EH8 4AH")]),
            &[0, 2]
        );
        assert!(idx
            .lookup(&[Value::str("131"), Value::str("SW1A 1AA")])
            .is_empty());
        assert_eq!(idx.attrs(), &[1, 0]);
    }

    #[test]
    fn null_keys_not_indexed_and_not_matched() {
        let schema = Schema::of_strings("m", ["zip"]).unwrap();
        let mut rel = Relation::empty(schema.clone());
        rel.push(Tuple::all_null(schema.clone())).unwrap();
        rel.push(Tuple::of_strings(schema, ["EH8"]).unwrap())
            .unwrap();
        let idx = HashIndex::build(&rel, vec![0]);
        assert_eq!(idx.distinct_keys(), 1);
        assert!(idx.lookup(&[Value::Null]).is_empty());
    }

    #[test]
    fn insert_row_extends_index() {
        let mut rel = master();
        let mut idx = HashIndex::build(&rel, vec![0]);
        let schema = rel.schema().clone();
        let row = rel
            .push(Tuple::of_strings(schema, ["G12 8QQ", "141", "Gla"]).unwrap())
            .unwrap();
        idx.insert_row(&rel, row);
        assert_eq!(idx.lookup(&[Value::str("G12 8QQ")]), &[3]);
        assert_eq!(idx.postings(), 4);
    }

    #[test]
    fn certain_answers_agreement_without_reading_rows() {
        let mut rel = master();
        let mut idx = HashIndex::build(&rel, vec![1]); // AC
        let (zip, city): (AttrSet, AttrSet) = ([0].into(), [2].into());
        let edi = [Value::str("131")];
        // Rows 0 and 2 share AC=131 and agree on everything.
        assert_eq!(idx.certain(&edi, &city), (2, Some(0)));
        assert_eq!(idx.certain(&edi, &[0, 2].into()), (2, Some(0)));
        // A lone row agrees with itself; an absent or null key matches nothing.
        assert_eq!(idx.certain(&[Value::str("020")], &city), (1, Some(1)));
        assert_eq!(idx.certain(&[Value::str("999")], &city), (0, None));
        assert_eq!(idx.certain(&[Value::Null], &city), (0, None));
        // A third 131 row with another zip: zip leaves the agreement set
        // for good, city stays; the witness is still the first row.
        let schema = rel.schema().clone();
        let row = rel
            .push(Tuple::of_strings(schema.clone(), ["EH9 1PR", "131", "Edi"]).unwrap())
            .unwrap();
        idx.insert_row(&rel, row);
        assert_eq!(idx.certain(&edi, &zip), (3, None));
        assert_eq!(idx.certain(&edi, &city), (3, Some(0)));
        // A unique key turns ambiguous when its second row disagrees.
        let row = rel
            .push(Tuple::of_strings(schema, ["SW1A 1AA", "020", "Westminster"]).unwrap())
            .unwrap();
        idx.insert_row(&rel, row);
        assert_eq!(idx.certain(&[Value::str("020")], &city), (2, None));
        assert_eq!(idx.certain(&[Value::str("020")], &zip), (2, Some(1)));
    }

    #[test]
    fn stats() {
        let rel = master();
        let idx = HashIndex::build(&rel, vec![0]);
        assert_eq!(idx.distinct_keys(), 2);
        assert_eq!(idx.postings(), 3);
    }
}
