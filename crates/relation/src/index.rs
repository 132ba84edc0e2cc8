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
//!
//! # Representation
//!
//! An index is flat: a handful of vectors and one table, however many
//! keys it holds, so building one allocates no box per row and cloning
//! one (`Arc::make_mut` on append) is a few flat copies.
//!
//! * **Keys** live in one arena of cells, `arity` per distinct key, in
//!   order of first insertion; a key is known by its number. A build
//!   reserves the arena once, for a key per row, and shrinks it to the
//!   keys it found, so the arena is never copied to grow.
//! * **The table** maps a key's 64-bit hash to an inline slot — its
//!   posting, its key number and a collision link — under an identity
//!   hasher: the hash is computed once per row, stored, and moved, not
//!   recomputed, when the table grows.
//! * **Postings**: a key matched by one row (most of them: `zip`,
//!   `phn`) keeps that row in its slot. A key shared by several keeps a
//!   range of one row arena and its agreement set; a range that fills
//!   moves to the arena's end with twice the room, and a finished build
//!   packs the arena exactly.
//!
//! The index keeps no per-row state. A caller that asks about the
//! indexed rows themselves — the region search, whose truths are master
//! rows — takes [`HashIndex::filed_rows`]: per row id, the posting the
//! row is filed under, from one pass over the postings, so
//! [`FiledRows::probe`] answers for a row without projecting, hashing or
//! comparing its key.
//!
//! A hit is always confirmed on the full key, never on the hash alone: a
//! second key with the same hash takes an overflow slot chained from the
//! first. The hash is SipHash-1-3 under a random key drawn per index
//! (`RandomState`), as `HashMap` keys by default. Master rows arrive from
//! clients (`master.append`), so an unkeyed "fast" hash would let a
//! client choose keys that all land in one chain; under a keyed hash two
//! distinct keys share a hash with probability 2⁻⁶⁴.

use crate::attrset::AttrSet;
use crate::relation::{Relation, RowId};
use crate::schema::AttrId;
use crate::tuple::Tuple;
use crate::value::Value;
use std::collections::hash_map::{Entry, HashMap, RandomState};
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};

/// The end of a collision chain.
const END: u32 = u32::MAX;

/// The rows of one key, in one word: a lone row's id — it agrees with
/// itself on every attribute, so it needs no set — or [`SHARED`] plus
/// the number of the key's [`Shared`] entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Posting(RowId);

/// The bit that marks a [`Posting`] as a [`Shared`] entry's number. No
/// row id reaches it: a relation's rows are one `Vec`, so there are
/// fewer than `isize::MAX` of them.
const SHARED: RowId = 1 << (RowId::BITS - 1);

/// The posting [`FiledRows`] gives a row the index holds under no key:
/// its key has a null, or it was never inserted. No shared entry's
/// number reaches it.
const UNFILED: Posting = Posting(RowId::MAX);

impl Posting {
    /// The number of the key's [`Shared`] entry; `None` for a lone row,
    /// which is the posting's own word.
    fn shared(self) -> Option<usize> {
        (self.0 & SHARED != 0).then_some(self.0 & !SHARED)
    }
}

/// One distinct key's place in the table or in the overflow list.
#[derive(Debug, Clone, Copy)]
struct Slot {
    posting: Posting,
    /// The key's number: its cells are the `key`-th run of `arity`
    /// cells of the key arena.
    key: u32,
    /// The overflow slot of the next key with the same hash, or [`END`].
    next: u32,
}

/// A key matched by at least two rows.
#[derive(Debug, Clone)]
struct Shared {
    /// `rows[start..start + len]` of the row arena are the matching
    /// rows, in insertion order; `rows[start + len..start + cap]` is
    /// room reserved for more.
    start: usize,
    len: usize,
    cap: usize,
    /// The attributes (of the whole relation schema, not just some
    /// rule's `Bm`) on which every row equals the first. `Null == Null`
    /// counts as agreement; whether a null is usable evidence is the
    /// caller's question about the witness row.
    agree: AttrSet,
}

impl Shared {
    fn rows<'a>(&self, arena: &'a [RowId]) -> &'a [RowId] {
        &arena[self.start..self.start + self.len]
    }

    /// Add `row_id` to this key, narrowing the agreement set to the
    /// attributes on which the new row still equals the first.
    fn push(&mut self, arena: &mut Vec<RowId>, relation: &Relation, row_id: RowId, row: &Tuple) {
        let first = relation
            .row(arena[self.start])
            .expect("indexed row in range");
        let mut from = 0;
        while let Some(a) = self.agree.next_at_or_after(from) {
            if first.get(a) != row.get(a) {
                self.agree.remove(a);
            }
            from = a + 1;
        }
        if self.len == self.cap {
            if self.start + self.cap == arena.len() {
                // The arena's last range grows in place.
                arena.push(row_id);
                self.cap += 1;
                self.len += 1;
                return;
            }
            let start = arena.len();
            arena.extend_from_within(self.start..self.start + self.len);
            arena.resize(start + 2 * self.len, 0);
            self.start = start;
            self.cap = 2 * self.len;
        }
        arena[self.start + self.len] = row_id;
        self.len += 1;
    }
}

/// The table's hasher: a key's hash is already a keyed SipHash, stored
/// as the table's `u64` key, so hashing it again would add nothing.
#[derive(Debug, Default)]
struct StoredHash(u64);

impl Hasher for StoredHash {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("an index table is keyed by u64 hashes only")
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }
}

/// How one index hashes its keys: its own keyed SipHash.
#[derive(Debug, Clone)]
struct KeyHasher {
    state: RandomState,
    /// Every key hashes to 0 (tests of the collision chain).
    #[cfg(test)]
    constant: bool,
}

impl KeyHasher {
    fn new() -> KeyHasher {
        KeyHasher {
            state: RandomState::new(),
            #[cfg(test)]
            constant: false,
        }
    }

    /// The hash of a key, from its cells in key order.
    fn hash<'a>(&self, cells: impl Iterator<Item = &'a Value>) -> u64 {
        #[cfg(test)]
        if self.constant {
            return 0;
        }
        let mut hasher = self.state.build_hasher();
        for cell in cells {
            cell.hash(&mut hasher);
        }
        hasher.finish()
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

/// What a probe of a key no row holds finds.
const MISS: Probe<'static> = Probe {
    matches: 0,
    first: 0,
    agree: None,
};

/// A hash index on a fixed attribute list of one relation: per key, the
/// matching rows and the attributes those rows agree on, in the flat
/// layout of the module docs.
///
/// Keys containing nulls are *not* indexed: a null master cell can never be
/// matched by rule semantics (nulls match nothing), so omitting them keeps
/// lookups and rule semantics aligned.
#[derive(Debug, Clone)]
pub struct HashIndex {
    attrs: Vec<AttrId>,
    hasher: KeyHasher,
    /// Key hash → the slot of the first key with that hash.
    table: HashMap<u64, Slot, BuildHasherDefault<StoredHash>>,
    /// Slots of keys whose hash an earlier key already holds.
    overflow: Vec<Slot>,
    /// Every distinct key's cells, `attrs.len()` per key.
    keys: Vec<Value>,
    /// The keys matched by several rows.
    shared: Vec<Shared>,
    /// The row ranges of `shared`.
    rows: Vec<RowId>,
}

impl HashIndex {
    /// Build an index over `attrs` for every current row of `relation`.
    pub fn build(relation: &Relation, attrs: impl Into<Vec<AttrId>>) -> HashIndex {
        HashIndex::empty(attrs.into(), KeyHasher::new()).filled(relation)
    }

    /// An index whose keys all hash alike, so every key shares one
    /// collision chain.
    #[cfg(test)]
    fn with_constant_hash(relation: &Relation, attrs: Vec<AttrId>) -> HashIndex {
        let hasher = KeyHasher {
            constant: true,
            ..KeyHasher::new()
        };
        HashIndex::empty(attrs, hasher).filled(relation)
    }

    fn empty(attrs: Vec<AttrId>, hasher: KeyHasher) -> HashIndex {
        HashIndex {
            attrs,
            hasher,
            table: HashMap::default(),
            overflow: Vec::new(),
            keys: Vec::new(),
            shared: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// Insert every row of `relation` — into a key arena reserved for a
    /// key per row, its most — then pack the arenas exactly.
    fn filled(mut self, relation: &Relation) -> HashIndex {
        self.keys.reserve_exact(relation.len() * self.attrs.len());
        for row_id in 0..relation.len() {
            self.insert_row(relation, row_id);
        }
        self.keys.shrink_to_fit();
        self.overflow.shrink_to_fit();
        self.shared.shrink_to_fit();
        let postings = self.shared.iter().map(|s| s.len).sum();
        if postings < self.rows.len() {
            let mut rows = Vec::with_capacity(postings);
            for shared in &mut self.shared {
                let start = rows.len();
                rows.extend_from_slice(shared.rows(&self.rows));
                shared.start = start;
                shared.cap = shared.len;
            }
            self.rows = rows;
        }
        self
    }

    /// The indexed attribute list (in key order).
    pub fn attrs(&self) -> &[AttrId] {
        &self.attrs
    }

    /// The cells of key number `key` (keys are numbered from 0 in order
    /// of first insertion).
    pub fn key(&self, key: usize) -> &[Value] {
        let arity = self.attrs.len();
        &self.keys[key * arity..(key + 1) * arity]
    }

    /// The slot of `key`; a key with a null has none (never indexed). The
    /// table narrows the search to the key's hash, and the key's cells
    /// decide.
    fn slot(&self, key: &[Value]) -> Option<&Slot> {
        if key.len() != self.attrs.len() || key.iter().any(Value::is_null) {
            return None;
        }
        let mut slot = self.table.get(&self.hasher.hash(key.iter()))?;
        loop {
            if self.key(slot.key as usize) == key {
                return Some(slot);
            }
            if slot.next == END {
                return None;
            }
            slot = &self.overflow[slot.next as usize];
        }
    }

    /// Row ids whose projection equals `key`, in insertion order. Keys with
    /// nulls return the empty slice (consistent with match semantics).
    pub fn lookup(&self, key: &[Value]) -> &[RowId] {
        let Some(slot) = self.slot(key) else {
            return &[];
        };
        match slot.posting.shared() {
            None => std::slice::from_ref(&slot.posting.0),
            Some(shared) => self.shared[shared].rows(&self.rows),
        }
    }

    /// One probe of `key`: its posting as the index holds it — how many
    /// rows match, the first of them, what they all agree on — before
    /// any rule's `Bm` is asked about. No row is read: agreement was
    /// settled when the rows were inserted.
    pub fn probe(&self, key: &[Value]) -> Probe<'_> {
        match self.slot(key) {
            Some(slot) => self.posted(slot.posting),
            None => MISS,
        }
    }

    /// Per row id below `rows`, the posting of the key the row is filed
    /// under, gathered in one pass over the index's postings: no key is
    /// projected, hashed or compared. What it answers holds until the
    /// index next changes, which its borrow rules out.
    pub fn filed_rows(&self, rows: usize) -> FiledRows<'_> {
        let mut postings = vec![UNFILED; rows];
        let mut file = |row: RowId, posting: Posting| {
            if let Some(filed) = postings.get_mut(row) {
                *filed = posting;
            }
        };
        for slot in self.table.values().chain(&self.overflow) {
            match slot.posting.shared() {
                None => file(slot.posting.0, slot.posting),
                Some(shared) => {
                    for &row in self.shared[shared].rows(&self.rows) {
                        file(row, slot.posting);
                    }
                }
            }
        }
        FiledRows {
            index: self,
            postings,
        }
    }

    #[inline]
    fn posted(&self, posting: Posting) -> Probe<'_> {
        match posting.shared() {
            None => Probe {
                matches: 1,
                first: posting.0,
                agree: None,
            },
            Some(shared) => {
                let shared = &self.shared[shared];
                Probe {
                    matches: shared.len,
                    first: self.rows[shared.start],
                    agree: Some(&shared.agree),
                }
            }
        }
    }

    /// The certain lookup's index half, in one probe: how many rows match
    /// `key`, and — iff they all carry the same value on every attribute
    /// of `rhs` — the first of them.
    pub fn certain(&self, key: &[Value], rhs: &AttrSet) -> (usize, Option<RowId>) {
        let probe = self.probe(key);
        (probe.matches, probe.agreed(rhs))
    }

    /// Register row `row_id` of `relation` (used when master data grows)
    /// under its key — a new key, or the one it extends; a row whose key
    /// has a null is not indexed. `relation` must be the relation every
    /// earlier row came from: the new row is compared with the first row
    /// of its key.
    pub fn insert_row(&mut self, relation: &Relation, row_id: RowId) {
        let row = relation.row(row_id).expect("inserted row in range");
        let HashIndex {
            attrs,
            hasher,
            table,
            overflow,
            keys,
            shared,
            rows,
        } = self;
        let cells = || attrs.iter().map(|&a| row.get(a));
        if cells().any(Value::is_null) {
            return;
        }
        let arity = attrs.len();
        let fresh = table.len() + overflow.len();
        let fresh_slot = || Slot {
            posting: Posting(row_id),
            key: u32::try_from(fresh).expect("fewer than 2^32 distinct keys"),
            next: END,
        };
        let head = match table.entry(hasher.hash(cells())) {
            Entry::Vacant(vacant) => {
                keys.extend(cells().cloned());
                vacant.insert(fresh_slot());
                return;
            }
            Entry::Occupied(occupied) => occupied.into_mut(),
        };
        // Walk the hash's chain to the key, or past its end.
        let tail = u32::try_from(overflow.len()).expect("fewer than 2^32 distinct keys");
        let mut at = END;
        loop {
            let slot = if at == END {
                &mut *head
            } else {
                &mut overflow[at as usize]
            };
            let key = slot.key as usize;
            if keys[key * arity..(key + 1) * arity].iter().eq(cells()) {
                match slot.posting.shared() {
                    None => {
                        let first_id = slot.posting.0;
                        let first = relation.row(first_id).expect("indexed row in range");
                        let agree = (0..relation.schema().arity())
                            .filter(|&a| first.get(a) == row.get(a))
                            .collect();
                        let start = rows.len();
                        rows.extend([first_id, row_id]);
                        slot.posting = Posting(SHARED | shared.len());
                        shared.push(Shared {
                            start,
                            len: 2,
                            cap: 2,
                            agree,
                        });
                    }
                    Some(at) => shared[at].push(rows, relation, row_id, row),
                }
                return;
            }
            if slot.next == END {
                slot.next = tail;
                keys.extend(cells().cloned());
                overflow.push(fresh_slot());
                return;
            }
            at = slot.next;
        }
    }

    /// Number of distinct keys.
    pub fn distinct_keys(&self) -> usize {
        self.table.len() + self.overflow.len()
    }

    /// Total number of postings.
    pub fn postings(&self) -> usize {
        let shared: usize = self.shared.iter().map(|s| s.len).sum();
        self.distinct_keys() - self.shared.len() + shared
    }
}

/// Which posting each row of an index is filed under
/// ([`HashIndex::filed_rows`]): a probe by row id instead of by key.
#[derive(Debug)]
pub struct FiledRows<'a> {
    index: &'a HashIndex,
    /// Per row id, its key's posting, or [`UNFILED`].
    postings: Vec<Posting>,
}

impl<'a> FiledRows<'a> {
    /// [`HashIndex::probe`] of the key row `row` is filed under, read
    /// from its posting: no key is projected, hashed or compared. A row
    /// whose key has a null, or that the index does not hold, matches
    /// nothing — as a probe of its key would.
    pub fn probe(&self, row: RowId) -> Probe<'a> {
        match self.postings.get(row) {
            Some(&posting) if posting != UNFILED => self.index.posted(posting),
            _ => MISS,
        }
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
    fn a_row_probe_reads_the_posting_its_key_is_filed_under() {
        let mut rel = master();
        let mut idx = HashIndex::build(&rel, vec![0]); // zip
        let filed = idx.filed_rows(rel.len());
        for row in 0..rel.len() {
            let key = rel.row(row).unwrap().project(&[0]);
            assert_eq!(filed.probe(row), idx.probe(&key), "row {row}");
        }
        // SW1A 1AA's lone row turns shared: both rows read the new entry.
        let schema = rel.schema().clone();
        let row = rel
            .push(Tuple::of_strings(schema.clone(), ["SW1A 1AA", "020", "Westminster"]).unwrap())
            .unwrap();
        idx.insert_row(&rel, row);
        // A null key, and a row the index was never given, are filed
        // under nothing.
        let null = rel.push(Tuple::all_null(schema.clone())).unwrap();
        idx.insert_row(&rel, null);
        let skipped = rel
            .push(Tuple::of_strings(schema, ["EH8 9YL", "131", "Edi"]).unwrap())
            .unwrap();
        let filed = idx.filed_rows(rel.len());
        let sw1 = idx.probe(&[Value::str("SW1A 1AA")]);
        assert_eq!((sw1.matches, sw1.first), (2, 1));
        assert_eq!(filed.probe(1), sw1);
        assert_eq!(filed.probe(row), sw1);
        assert_eq!(filed.probe(null).matches, 0);
        assert_eq!(filed.probe(skipped).matches, 0);
        assert_eq!(filed.probe(99).matches, 0);
    }

    #[test]
    fn stats() {
        let rel = master();
        let idx = HashIndex::build(&rel, vec![0]);
        assert_eq!(idx.distinct_keys(), 2);
        assert_eq!(idx.postings(), 3);
    }

    #[test]
    fn keys_sharing_a_hash_chain_keep_their_own_postings() {
        let schema = Schema::of_strings("m", ["k", "v"]).unwrap();
        let rows = [("a", "1"), ("b", "2"), ("a", "1"), ("c", "3"), ("b", "4")];
        let mut rel = Relation::from_tuples(
            schema.clone(),
            rows.iter()
                .map(|(k, v)| Tuple::of_strings(schema.clone(), [*k, *v]).unwrap()),
        )
        .unwrap();
        let mut idx = HashIndex::with_constant_hash(&rel, vec![0]);
        assert_eq!(idx.table.len(), 1, "one hash, one table slot");
        assert_eq!(idx.overflow.len(), 2, "two keys chained behind it");
        assert_eq!(idx.lookup(&[Value::str("a")]), &[0, 2]);
        assert_eq!(idx.lookup(&[Value::str("b")]), &[1, 4]);
        assert_eq!(idx.lookup(&[Value::str("c")]), &[3]);
        // An absent key in the same chain misses.
        assert!(idx.lookup(&[Value::str("d")]).is_empty());
        assert_eq!(idx.probe(&[Value::str("d")]).matches, 0);
        let v: AttrSet = [1].into();
        assert_eq!(idx.certain(&[Value::str("a")], &v), (2, Some(0)));
        assert_eq!(idx.certain(&[Value::str("b")], &v), (2, None));
        assert_eq!(idx.certain(&[Value::str("c")], &v), (1, Some(3)));
        assert_eq!((idx.distinct_keys(), idx.postings()), (3, 5));
        // Keys are numbered by first insertion; a new key joins the chain.
        let d = rel
            .push(Tuple::of_strings(schema.clone(), ["d", "5"]).unwrap())
            .unwrap();
        idx.insert_row(&rel, d);
        assert_eq!(idx.key(3), &[Value::str("d")]);
        let c = rel
            .push(Tuple::of_strings(schema, ["c", "3"]).unwrap())
            .unwrap();
        idx.insert_row(&rel, c);
        assert_eq!(idx.key(2), &[Value::str("c")]);
        assert_eq!(idx.lookup(&[Value::str("c")]), &[3, 6]);
        assert_eq!(idx.lookup(&[Value::str("d")]), &[5]);
        assert_eq!(idx.overflow.len(), 3);
    }

    #[test]
    fn a_full_range_moves_and_a_build_packs_the_arena() {
        let schema = Schema::of_strings("m", ["k"]).unwrap();
        let keys = ["x", "y", "x", "y", "x", "y", "x"];
        let rel = Relation::from_tuples(
            schema.clone(),
            keys.iter()
                .map(|k| Tuple::of_strings(schema.clone(), [*k]).unwrap()),
        )
        .unwrap();
        let idx = HashIndex::build(&rel, vec![0]);
        assert_eq!(idx.lookup(&[Value::str("x")]), &[0, 2, 4, 6]);
        assert_eq!(idx.lookup(&[Value::str("y")]), &[1, 3, 5]);
        assert_eq!(idx.rows.len(), 7, "packed: no reserved room after a build");
        let mut grown = idx.clone();
        let mut rel = rel;
        for k in ["y", "x", "y"] {
            let row = rel
                .push(Tuple::of_strings(schema.clone(), [k]).unwrap())
                .unwrap();
            grown.insert_row(&rel, row);
        }
        assert_eq!(grown.lookup(&[Value::str("x")]), &[0, 2, 4, 6, 8]);
        assert_eq!(grown.lookup(&[Value::str("y")]), &[1, 3, 5, 7, 9]);
        assert_eq!(
            idx.lookup(&[Value::str("y")]),
            &[1, 3, 5],
            "the clone is apart"
        );
    }
}
