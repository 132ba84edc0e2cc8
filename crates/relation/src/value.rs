//! Typed cell values with a total order and hashability.
//!
//! Editing rules compare input-tuple cells against master-tuple cells and
//! pattern constants, and hash indexes key on value vectors, so [`Value`]
//! implements `Eq`, `Ord` and `Hash` for *all* variants — floats use IEEE
//! total ordering (`f64::total_cmp`) and hash their bit pattern, which keeps
//! the three impls mutually consistent.
//!
//! A string cell's [`Text`] keeps up to [`Text::INLINE_CAP`] bytes inside
//! the 24-byte value — the short-string layout column stores use
//! (Neumann & Freitag, *Umbra*, CIDR 2020) — so comparing, hashing and
//! copying a short cell reads the cell itself, not a heap line.

use crate::datatype::DataType;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A single cell value, 24 bytes.
///
/// A string is a [`Text`]: held inline up to [`Text::INLINE_CAP`] bytes,
/// a shared `Arc<str>` past that. The correcting process copies
/// master-data values into input tuples and audit records, and either way
/// the copy is O(1) without entangling lifetimes; building a short string
/// allocates nothing.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Value {
    /// Missing / unknown. Never equal to anything under rule matching
    /// (see [`Value::matches`]), but equal to itself for indexing.
    Null,
    /// UTF-8 text.
    Str(Text),
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float (total order).
    Float(f64),
    /// Boolean.
    Bool(bool),
}

// Every cell of every relation, tuple and event is a `Value`: a change
// that grows it must show up here, not in a benchmark.
const _: () = assert!(std::mem::size_of::<Value>() == 24);

/// The text of a [`Value::Str`] cell.
///
/// A string of at most [`INLINE_CAP`](Text::INLINE_CAP) bytes is held in
/// place, inside the value; a longer one is a shared `Arc<str>`. Every
/// string has exactly one representation — inline iff it fits — and only
/// [`Text::new`] builds one, so equality, ordering and hashing read the
/// bytes and agree with `str`'s.
#[derive(Clone)]
pub struct Text(Repr);

#[derive(Clone)]
enum Repr {
    /// `bytes[..len]` is the text, `len ≤ INLINE_CAP`; the rest is zero.
    Inline {
        len: u8,
        bytes: [u8; Text::INLINE_CAP],
    },
    /// Text longer than `INLINE_CAP` bytes.
    Shared(Arc<str>),
}

impl Text {
    /// The most bytes held in place; longer text is shared.
    pub const INLINE_CAP: usize = 22;

    /// The text of `s`: a copy in place if it fits, else shared.
    pub fn new(s: &str) -> Text {
        if s.len() <= Self::INLINE_CAP {
            let mut bytes = [0; Self::INLINE_CAP];
            bytes[..s.len()].copy_from_slice(s.as_bytes());
            Text(Repr::Inline {
                len: s.len() as u8,
                bytes,
            })
        } else {
            Text(Repr::Shared(Arc::from(s)))
        }
    }

    /// The text, as bytes (no UTF-8 check).
    pub fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { len, bytes } => &bytes[..usize::from(*len)],
            Repr::Shared(s) => s.as_bytes(),
        }
    }

    /// The text. Inline text is checked as UTF-8 here (at most
    /// [`INLINE_CAP`](Text::INLINE_CAP) bytes), since it is held as bytes.
    pub fn as_str(&self) -> &str {
        match &self.0 {
            Repr::Inline { len, bytes } => std::str::from_utf8(&bytes[..usize::from(*len)])
                .expect("inline text is copied whole from a `str`"),
            Repr::Shared(s) => s,
        }
    }

    /// True iff the text is held in place (it is at most
    /// [`INLINE_CAP`](Text::INLINE_CAP) bytes long).
    pub fn is_inline(&self) -> bool {
        matches!(self.0, Repr::Inline { .. })
    }
}

impl PartialEq for Text {
    fn eq(&self, other: &Text) -> bool {
        match (&self.0, &other.0) {
            (Repr::Inline { len: a, bytes: x }, Repr::Inline { len: b, bytes: y }) => {
                a == b && x == y
            }
            (Repr::Shared(a), Repr::Shared(b)) => a == b,
            // One representation per string: their lengths differ.
            _ => false,
        }
    }
}

impl Eq for Text {}

impl PartialOrd for Text {
    fn partial_cmp(&self, other: &Text) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Text {
    /// Byte-wise, as `str` orders.
    fn cmp(&self, other: &Text) -> Ordering {
        self.as_bytes().cmp(other.as_bytes())
    }
}

impl Hash for Text {
    /// As `str` hashes: the bytes, then `0xff` (no UTF-8 text holds that
    /// byte, so the hash is prefix-free).
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write(self.as_bytes());
        state.write_u8(0xff);
    }
}

impl fmt::Debug for Text {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl Value {
    /// Build a string value.
    pub fn str(s: impl AsRef<str>) -> Value {
        Value::Str(Text::new(s.as_ref()))
    }

    /// Build an integer value.
    pub fn int(i: i64) -> Value {
        Value::Int(i)
    }

    /// Build a float value.
    pub fn float(f: f64) -> Value {
        Value::Float(f)
    }

    /// Build a boolean value.
    pub fn bool(b: bool) -> Value {
        Value::Bool(b)
    }

    /// True iff this is [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// The dynamic type of this value, or `None` for null.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Str(_) => Some(DataType::String),
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Bool(_) => Some(DataType::Bool),
        }
    }

    /// True iff this value may be stored in an attribute of type `dtype`.
    /// Null conforms to every type.
    pub fn conforms_to(&self, dtype: DataType) -> bool {
        match self.data_type() {
            None => true,
            Some(dt) => dt == dtype,
        }
    }

    /// Equality as used by *rule matching*: null matches nothing, including
    /// another null (an unknown value is never evidence).
    ///
    /// This differs from `==`, which treats `Null == Null` as true so that
    /// values can key hash maps.
    pub fn matches(&self, other: &Value) -> bool {
        if self.is_null() || other.is_null() {
            return false;
        }
        self == other
    }

    /// Borrow the string content if this is a string value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// The integer content if this is an int value.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The float content if this is a float value.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The boolean content if this is a bool value.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Parse `text` as a value of type `dtype`. Empty text parses to null,
    /// matching common CSV conventions for missing data.
    pub fn parse_as(text: &str, dtype: DataType) -> Result<Value, crate::RelationError> {
        if text.is_empty() {
            return Ok(Value::Null);
        }
        match dtype {
            DataType::String => Ok(Value::str(text)),
            DataType::Int => {
                text.parse::<i64>()
                    .map(Value::Int)
                    .map_err(|_| crate::RelationError::ParseValue {
                        text: text.into(),
                        target: "int",
                    })
            }
            DataType::Float => text.parse::<f64>().map(Value::Float).map_err(|_| {
                crate::RelationError::ParseValue {
                    text: text.into(),
                    target: "float",
                }
            }),
            DataType::Bool => match text {
                "true" | "1" | "t" => Ok(Value::Bool(true)),
                "false" | "0" | "f" => Ok(Value::Bool(false)),
                _ => Err(crate::RelationError::ParseValue {
                    text: text.into(),
                    target: "bool",
                }),
            },
        }
    }

    /// Render the value as the bare text that [`Value::parse_as`] accepts.
    /// Null renders as the empty string.
    pub fn render(&self) -> String {
        match self {
            Value::Null => String::new(),
            Value::Str(s) => s.as_str().to_string(),
            Value::Int(i) => i.to_string(),
            Value::Float(f) => {
                // Keep a trailing `.0` so the text re-parses as a float.
                if f.fract() == 0.0 && f.is_finite() {
                    format!("{f:.1}")
                } else {
                    f.to_string()
                }
            }
            Value::Bool(b) => b.to_string(),
        }
    }

    /// Rank used to order values of different variants (null < bool < int <
    /// float < string). Cross-variant comparisons only arise in generic code
    /// (sorting mixed columns in diagnostics); rules always compare
    /// like-typed cells.
    fn variant_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) => 2,
            Value::Float(_) => 3,
            Value::Str(_) => 4,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => a.total_cmp(b) == Ordering::Equal,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Value) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Value) -> Ordering {
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Float(a), Value::Float(b)) => a.total_cmp(b),
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            _ => self.variant_rank().cmp(&other.variant_rank()),
        }
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.variant_rank().hash(state);
        match self {
            Value::Null => {}
            Value::Str(s) => s.hash(state),
            Value::Int(i) => i.hash(state),
            Value::Float(f) => f.to_bits().hash(state),
            Value::Bool(b) => b.hash(state),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("∅"),
            Value::Str(s) => f.write_str(s.as_str()),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Bool(b) => write!(f, "{b}"),
        }
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::str(s)
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::str(&s)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Value {
        Value::Int(i)
    }
}

impl From<f64> for Value {
    fn from(f: f64) -> Value {
        Value::Float(f)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn null_matches_nothing_but_equals_itself() {
        assert!(!Value::Null.matches(&Value::Null));
        assert!(!Value::Null.matches(&Value::int(1)));
        assert!(!Value::int(1).matches(&Value::Null));
        assert_eq!(Value::Null, Value::Null);
    }

    #[test]
    fn matches_agrees_with_eq_for_non_null() {
        assert!(Value::str("Edi").matches(&Value::str("Edi")));
        assert!(!Value::str("Edi").matches(&Value::str("Ldn")));
        assert!(Value::int(131).matches(&Value::int(131)));
    }

    #[test]
    fn float_total_order_handles_nan() {
        let nan = Value::float(f64::NAN);
        let one = Value::float(1.0);
        assert_eq!(nan, nan.clone());
        assert_eq!(nan.cmp(&one), Ordering::Greater); // total_cmp puts +NaN last
        assert_eq!(hash_of(&nan), hash_of(&nan.clone()));
    }

    #[test]
    fn negative_zero_distinct_under_total_order() {
        // total_cmp distinguishes -0.0 and +0.0; Eq/Hash must agree.
        let neg = Value::float(-0.0);
        let pos = Value::float(0.0);
        assert_ne!(neg, pos);
        assert_ne!(hash_of(&neg), hash_of(&pos));
    }

    #[test]
    fn equal_values_hash_equal() {
        let a = Value::str("501 Elm St");
        let b = Value::str("501 Elm St");
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
    }

    #[test]
    fn cross_variant_ordering_is_by_rank() {
        assert!(Value::Null < Value::bool(false));
        assert!(Value::bool(true) < Value::int(0));
        assert!(Value::int(5) < Value::float(0.0));
        assert!(Value::float(9.0) < Value::str(""));
    }

    #[test]
    fn parse_round_trips() {
        let cases = [
            (Value::str("Edi"), DataType::String),
            (Value::int(-42), DataType::Int),
            (Value::float(2.5), DataType::Float),
            (Value::float(3.0), DataType::Float),
            (Value::bool(true), DataType::Bool),
            (Value::Null, DataType::Int),
        ];
        for (v, dt) in cases {
            let text = v.render();
            let back = Value::parse_as(&text, dt).unwrap();
            assert_eq!(back, v, "round trip failed for {v:?} via {text:?}");
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Value::parse_as("xyz", DataType::Int).is_err());
        assert!(Value::parse_as("1.2.3", DataType::Float).is_err());
        assert!(Value::parse_as("maybe", DataType::Bool).is_err());
    }

    #[test]
    fn conforms_to_types() {
        assert!(Value::str("a").conforms_to(DataType::String));
        assert!(!Value::str("a").conforms_to(DataType::Int));
        assert!(Value::Null.conforms_to(DataType::Int));
        assert!(Value::Null.conforms_to(DataType::Bool));
    }

    #[test]
    fn from_impls() {
        assert_eq!(Value::from("x"), Value::str("x"));
        assert_eq!(Value::from(7i64), Value::int(7));
        assert_eq!(Value::from(true), Value::bool(true));
        assert_eq!(Value::from(1.5f64), Value::float(1.5));
        assert_eq!(Value::from(String::from("y")), Value::str("y"));
    }

    #[test]
    fn display_null_is_marked() {
        assert_eq!(Value::Null.to_string(), "∅");
        assert_eq!(Value::Null.render(), "");
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::str("a").as_str(), Some("a"));
        assert_eq!(Value::int(3).as_int(), Some(3));
        assert_eq!(Value::float(1.5).as_float(), Some(1.5));
        assert_eq!(Value::bool(true).as_bool(), Some(true));
        assert_eq!(Value::int(3).as_str(), None);
        assert_eq!(Value::str("a").as_int(), None);
    }
}
