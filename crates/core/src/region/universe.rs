//! The truth universe a region search certifies against, read in place.
//!
//! Certification asks, for every possible ground truth `u`, whether
//! validating `u[Z]` leads the correcting process to `u` — so a search
//! reads each truth's cells: pattern scoping, one key projection per
//! rule for its profile, and the seed and the check of a fixpoint on the
//! rare poisoned truth. It never needs a truth as an owned [`Tuple`].
//!
//! [`Universe`] is that read access: a length and, per index, a truth
//! readable through [`Cells`]. A slice of tuples is one (generator- and
//! test-built truths); [`MasterTruths`] is the other — truth `i` is
//! master row `i` read through the input → master attribute map, null
//! where an input attribute has no master column. It borrows the master
//! and holds only the map, so a search over 20 000 master rows copies
//! none of them.
//!
//! A universe also says where a truth lies, when it is a master row
//! read in place ([`Universe::master_row`]: the row, and the map it is
//! read through). A rule whose every LHS pair `(x, xm)` the map sends
//! `x → xm` reads that truth's *own* key — the key the master index
//! files the row under — so the truth's profile reads the row's posting
//! instead of hashing its key. A slice of tuples answers `None`, and its
//! profiles keep the hashed probe.

use crate::master::MasterData;
use cerfix_relation::{AttrId, Cells, RowId, SchemaRef, Tuple, Value};

/// Indexed truths a region search certifies against (see module docs).
///
/// The search and every certification probe are generic
/// over it, so each universe gets its own monomorphised copy of the data
/// phase — no dynamic dispatch per cell.
pub trait Universe: Sync {
    /// One truth, read cell by cell.
    type Truth<'a>: Cells
    where
        Self: 'a;

    /// Number of truths.
    fn len(&self) -> usize;

    /// True iff there is no truth.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Truth `idx`, `idx < len()`.
    fn truth(&self, idx: usize) -> Self::Truth<'_>;

    /// The master row truth `idx` is, read in place, and the map it is
    /// read through; `None` when the truth is not a master row read in
    /// place.
    fn master_row(&self, _idx: usize) -> Option<MasterRow<'_>> {
        None
    }
}

/// Where a truth lies in master data: row `row` of `rows`, read over
/// the input schema through `map` (see [`Universe::master_row`]). Only
/// this crate's universes make one: a profile trusts it to name the
/// truth's row.
#[derive(Debug, Clone, Copy)]
pub struct MasterRow<'a> {
    /// The master rows the truth is one of.
    pub(crate) rows: &'a [Tuple],
    /// Its row id.
    pub(crate) row: RowId,
    /// Per input attribute, the master attribute it reads, if any.
    pub(crate) map: &'a [Option<AttrId>],
}

impl MasterRow<'_> {
    /// True iff this truth's projection on `input` is its row's on
    /// `master`: the map sends every `input[i]` to `master[i]`.
    pub(crate) fn reads_own(&self, input: &[AttrId], master: &[AttrId]) -> bool {
        input
            .iter()
            .zip(master)
            .all(|(&x, &xm)| self.map[x] == Some(xm))
    }

    /// True iff the rows are `master`'s, so `row` is a row id of its
    /// indexes.
    pub(crate) fn of(&self, master: &MasterData) -> bool {
        std::ptr::eq(self.rows, master.relation().rows())
    }
}

impl Universe for [Tuple] {
    type Truth<'a> = &'a Tuple;

    fn len(&self) -> usize {
        <[Tuple]>::len(self)
    }

    fn truth(&self, idx: usize) -> &Tuple {
        &self[idx]
    }
}

impl Universe for Vec<Tuple> {
    type Truth<'a> = &'a Tuple;

    fn len(&self) -> usize {
        Vec::len(self)
    }

    fn truth(&self, idx: usize) -> &Tuple {
        &self[idx]
    }
}

/// The master rows as truths over the input schema, borrowed: input
/// attribute `a` of truth `i` is row `i`'s cell of the master attribute
/// with `a`'s name, or null when the master has none.
#[derive(Debug, Clone)]
pub struct MasterTruths<'a> {
    rows: &'a [Tuple],
    /// Per input attribute, the master attribute it reads.
    map: Box<[Option<AttrId>]>,
}

impl<'a> MasterTruths<'a> {
    /// `master`'s rows read over `input`, attributes matched by name.
    pub fn new(input: &SchemaRef, master: &'a MasterData) -> MasterTruths<'a> {
        let map = input
            .attributes()
            .iter()
            .map(|a| master.schema().attr_id(a.name()))
            .collect();
        MasterTruths {
            rows: master.relation().rows(),
            map,
        }
    }
}

impl Universe for MasterTruths<'_> {
    type Truth<'t>
        = MasterTruth<'t>
    where
        Self: 't;

    fn len(&self) -> usize {
        self.rows.len()
    }

    fn truth(&self, idx: usize) -> MasterTruth<'_> {
        MasterTruth {
            row: &self.rows[idx],
            map: &self.map,
        }
    }

    fn master_row(&self, idx: usize) -> Option<MasterRow<'_>> {
        Some(MasterRow {
            rows: self.rows,
            row: idx,
            map: &self.map,
        })
    }
}

/// One master row read over the input schema (see [`MasterTruths`]).
#[derive(Debug, Clone, Copy)]
pub struct MasterTruth<'a> {
    row: &'a Tuple,
    map: &'a [Option<AttrId>],
}

/// The cell of an input attribute the master does not carry.
static NULL: Value = Value::Null;

impl Cells for MasterTruth<'_> {
    #[inline]
    fn cell(&self, attr: AttrId) -> &Value {
        match self.map[attr] {
            Some(m) => self.row.get(m),
            None => &NULL,
        }
    }
}

/// The truths of `universe` copied into tuples over `input`: the same
/// truths, as a slice universe, which says of none where it lies.
#[cfg(test)]
pub(crate) fn copied<U: Universe + ?Sized>(universe: &U, input: &SchemaRef) -> Vec<Tuple> {
    (0..universe.len())
        .map(|idx| {
            let truth = universe.truth(idx);
            let cells: Vec<Value> = (0..input.arity()).map(|a| truth.cell(a).clone()).collect();
            Tuple::new(input.clone(), cells).expect("a truth is a tuple of the input schema")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cerfix_relation::{RelationBuilder, Schema};

    #[test]
    fn master_rows_read_by_name_with_null_for_the_rest() {
        let input = Schema::of_strings("in", ["zip", "type", "city"]).unwrap();
        let ms = Schema::of_strings("m", ["city", "zip", "DoB"]).unwrap();
        let master = MasterData::new(
            RelationBuilder::new(ms)
                .row_strs(["Edi", "EH8", "11/11/55"])
                .row_strs(["Ldn", "SW1", "25/12/67"])
                .build()
                .unwrap(),
        );
        let truths = MasterTruths::new(&input, &master);
        assert_eq!(truths.len(), 2);
        let second = truths.truth(1);
        assert_eq!(second.cell(0), &Value::str("SW1"));
        assert!(second.cell(1).is_null(), "`type` has no master column");
        assert_eq!(second.cell(2), &Value::str("Ldn"));
    }
}
