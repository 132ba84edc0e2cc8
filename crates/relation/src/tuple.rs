//! Tuples: schema-bound value vectors.

use crate::error::{RelationError, Result};
use crate::schema::{AttrId, Attribute, SchemaRef};
use crate::value::Value;
use std::fmt;

/// `value` may be stored in `attr`, or the error naming both types.
fn check_type(attr: &Attribute, value: &Value) -> Result<()> {
    match value.data_type() {
        Some(actual) if actual != attr.data_type() => Err(RelationError::TypeMismatch {
            attribute: attr.name().into(),
            expected: attr.data_type().name(),
            actual: actual.name(),
        }),
        _ => Ok(()),
    }
}

/// A tuple bound to a shared schema.
///
/// The value vector always has exactly `schema.arity()` entries and each
/// value conforms to its attribute's declared type (enforced at
/// construction and on every [`Tuple::set`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tuple {
    schema: SchemaRef,
    values: Box<[Value]>,
}

impl Tuple {
    /// Build a tuple, validating arity and per-attribute types.
    pub fn new(schema: SchemaRef, values: impl Into<Vec<Value>>) -> Result<Tuple> {
        let values: Vec<Value> = values.into();
        if values.len() != schema.arity() {
            return Err(RelationError::ArityMismatch {
                expected: schema.arity(),
                actual: values.len(),
            });
        }
        for (attr, v) in schema.attributes().iter().zip(&values) {
            check_type(attr, v)?;
        }
        Ok(Tuple {
            schema,
            values: values.into_boxed_slice(),
        })
    }

    /// Build a tuple of string values (the common case for scenario data).
    pub fn of_strings(
        schema: SchemaRef,
        values: impl IntoIterator<Item = impl AsRef<str>>,
    ) -> Result<Tuple> {
        let values: Vec<Value> = values.into_iter().map(|s| Value::str(s.as_ref())).collect();
        Tuple::new(schema, values)
    }

    /// Build a tuple with every cell null — the shape of a form before the
    /// user enters anything.
    pub fn all_null(schema: SchemaRef) -> Tuple {
        let values = vec![Value::Null; schema.arity()].into_boxed_slice();
        Tuple { schema, values }
    }

    /// The tuple's schema.
    pub fn schema(&self) -> &SchemaRef {
        &self.schema
    }

    /// Number of cells (= schema arity).
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// The value at `id`. Panics if out of range; ids come from this
    /// tuple's schema.
    pub fn get(&self, id: AttrId) -> &Value {
        &self.values[id]
    }

    /// The value of the attribute named `name`.
    pub fn get_by_name(&self, name: &str) -> Result<&Value> {
        Ok(self.get(self.schema.require_attr(name)?))
    }

    /// Overwrite the cell at `id`, validating the type.
    pub fn set(&mut self, id: AttrId, value: Value) -> Result<()> {
        let attr = self
            .schema
            .attribute(id)
            .ok_or(RelationError::AttributeOutOfRange {
                id,
                arity: self.schema.arity(),
            })?;
        check_type(attr, &value)?;
        self.values[id] = value;
        Ok(())
    }

    /// Overwrite the cell of the attribute named `name`.
    pub fn set_by_name(&mut self, name: &str, value: Value) -> Result<()> {
        let id = self.schema.require_attr(name)?;
        self.set(id, value)
    }

    /// All values in schema order.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Project the tuple onto `attrs`, cloning the selected values in the
    /// given order. Used to form index keys and rule-match keys.
    pub fn project(&self, attrs: &[AttrId]) -> Vec<Value> {
        attrs.iter().map(|&a| self.values[a].clone()).collect()
    }

    /// True iff `self[attrs] = other[other_attrs]` position-wise under
    /// *matching* semantics (nulls never match). This is the cross-schema
    /// comparison at the heart of editing rules: `t[X] = s[Xm]`.
    pub fn matches_on(&self, attrs: &[AttrId], other: &Tuple, other_attrs: &[AttrId]) -> bool {
        debug_assert_eq!(attrs.len(), other_attrs.len());
        attrs
            .iter()
            .zip(other_attrs.iter())
            .all(|(&a, &b)| self.values[a].matches(&other.values[b]))
    }

    /// Count of cells where `self` and `other` (same schema) differ.
    pub fn diff_count(&self, other: &Tuple) -> usize {
        debug_assert_eq!(self.arity(), other.arity());
        self.values
            .iter()
            .zip(other.values.iter())
            .filter(|(a, b)| a != b)
            .count()
    }

    /// Ids of cells where `self` and `other` (same schema) differ.
    pub fn diff_attrs(&self, other: &Tuple) -> Vec<AttrId> {
        self.values
            .iter()
            .zip(other.values.iter())
            .enumerate()
            .filter(|(_, (a, b))| a != b)
            .map(|(i, _)| i)
            .collect()
    }
}

/// Read access to a tuple's cells by attribute id — what pattern
/// matching and key projection need of a tuple, and all they take.
///
/// [`Tuple`] implements it over its own cells; other implementors read
/// cells they do not own (a row of one schema read through an attribute
/// map into another), so a reader generic over `Cells` can walk rows in
/// place instead of copying them into tuples first.
pub trait Cells {
    /// The value at `attr`. Panics if `attr` is out of range.
    fn cell(&self, attr: AttrId) -> &Value;
}

impl Cells for Tuple {
    #[inline]
    fn cell(&self, attr: AttrId) -> &Value {
        self.get(attr)
    }
}

impl<T: Cells + ?Sized> Cells for &T {
    #[inline]
    fn cell(&self, attr: AttrId) -> &Value {
        (**self).cell(attr)
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("(")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{}={}", self.schema.attr_name(i), v)?;
        }
        f.write_str(")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datatype::DataType;
    use crate::schema::Schema;

    fn schema() -> SchemaRef {
        Schema::new(
            "person",
            [
                ("name", DataType::String),
                ("age", DataType::Int),
                ("uk", DataType::Bool),
            ],
        )
        .unwrap()
    }

    #[test]
    fn construction_validates_arity() {
        let s = schema();
        let err = Tuple::new(s, vec![Value::str("Bob")]).unwrap_err();
        assert!(matches!(
            err,
            RelationError::ArityMismatch {
                expected: 3,
                actual: 1
            }
        ));
    }

    #[test]
    fn construction_validates_types() {
        let s = schema();
        let err = Tuple::new(
            s,
            vec![Value::str("Bob"), Value::str("young"), Value::bool(true)],
        )
        .unwrap_err();
        assert!(matches!(err, RelationError::TypeMismatch { .. }));
        // The value's type is named, never the value itself.
        assert_eq!(
            err.to_string(),
            "type mismatch for attribute `age`: expected int, got string"
        );
    }

    #[test]
    fn nulls_conform_anywhere() {
        let s = schema();
        let t = Tuple::new(s, vec![Value::Null, Value::Null, Value::Null]).unwrap();
        assert!(t.get(0).is_null());
    }

    #[test]
    fn get_set_round_trip() {
        let s = schema();
        let mut t = Tuple::new(
            s,
            vec![Value::str("Bob"), Value::int(30), Value::bool(true)],
        )
        .unwrap();
        assert_eq!(t.get_by_name("age").unwrap(), &Value::int(30));
        t.set_by_name("age", Value::int(31)).unwrap();
        assert_eq!(t.get(1), &Value::int(31));
        assert!(
            t.set(1, Value::str("x")).is_err(),
            "type still enforced on set"
        );
        assert!(t.set(99, Value::Null).is_err(), "range enforced on set");
    }

    #[test]
    fn projection_in_order() {
        let s = schema();
        let t = Tuple::new(
            s,
            vec![Value::str("Bob"), Value::int(30), Value::bool(true)],
        )
        .unwrap();
        assert_eq!(
            t.project(&[2, 0]),
            vec![Value::bool(true), Value::str("Bob")]
        );
    }

    #[test]
    fn matches_on_cross_schema() {
        let input = Schema::of_strings("in", ["zip", "city"]).unwrap();
        let master = Schema::of_strings("m", ["mzip", "mcity", "extra"]).unwrap();
        let t = Tuple::of_strings(input, ["EH8 4AH", "Edi"]).unwrap();
        let s = Tuple::of_strings(master, ["EH8 4AH", "Edi", "x"]).unwrap();
        assert!(t.matches_on(&[0], &s, &[0]));
        assert!(t.matches_on(&[0, 1], &s, &[0, 1]));
        assert!(!t.matches_on(&[1], &s, &[0]));
    }

    #[test]
    fn null_never_matches() {
        let sc = Schema::of_strings("r", ["a"]).unwrap();
        let t = Tuple::all_null(sc.clone());
        let s = Tuple::all_null(sc);
        assert!(!t.matches_on(&[0], &s, &[0]));
    }

    #[test]
    fn diff_counts() {
        let sc = Schema::of_strings("r", ["a", "b", "c"]).unwrap();
        let t1 = Tuple::of_strings(sc.clone(), ["1", "2", "3"]).unwrap();
        let t2 = Tuple::of_strings(sc, ["1", "x", "y"]).unwrap();
        assert_eq!(t1.diff_count(&t2), 2);
        assert_eq!(t1.diff_attrs(&t2), vec![1, 2]);
        assert_eq!(t1.diff_count(&t1.clone()), 0);
    }

    #[test]
    fn display_is_readable() {
        let s = schema();
        let t = Tuple::new(s, vec![Value::str("Bob"), Value::int(30), Value::Null]).unwrap();
        assert_eq!(t.to_string(), "(name=Bob, age=30, uk=∅)");
    }

    #[test]
    fn all_null_shape() {
        let t = Tuple::all_null(schema());
        assert_eq!(t.arity(), 3);
        assert!(t.values().iter().all(Value::is_null));
    }
}
