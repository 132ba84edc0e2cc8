//! The pattern language of editing rules and pattern tableaux.
//!
//! The demo's rules carry *pattern tuples* restricting when a rule applies:
//! φ4/φ5 require `type = 2` (mobile phone), φ6–φ8 require `type = 1`, and
//! φ9 requires `AC ≠ 0800` (edited via a pop-up in Fig. 2). A pattern cell
//! is one of: wildcard, equality with a constant, or inequality with a set
//! of constants.
//!
//! The same language underlies certain-region tableaux and the consistency
//! checker, which must decide satisfiability of conjunctions of cells —
//! [`ConstraintSet`] implements that decision procedure exactly.

use cerfix_relation::{AttrId, Cells, DataType, SchemaRef, Value};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;

/// A single-attribute pattern operation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum PatternOp {
    /// Matches any non-null value (`_` in the DSL).
    Any,
    /// Matches exactly this constant.
    Eq(Value),
    /// Matches any non-null value distinct from *all* of these constants
    /// (`≠ 0800` in the paper; the set form closes the language under
    /// conjunction).
    Ne(Vec<Value>),
}

impl PatternOp {
    /// Evaluate against a cell value. Null never matches any pattern —
    /// pattern evidence must be known.
    pub fn matches(&self, value: &Value) -> bool {
        if value.is_null() {
            return false;
        }
        match self {
            PatternOp::Any => true,
            PatternOp::Eq(c) => value == c,
            PatternOp::Ne(cs) => cs.iter().all(|c| value != c),
        }
    }

    /// Normalize: deduplicate and sort `Ne` constant lists so structurally
    /// equal patterns compare equal.
    pub fn normalize(self) -> PatternOp {
        match self {
            PatternOp::Ne(cs) => {
                let set: BTreeSet<Value> = cs.into_iter().collect();
                PatternOp::Ne(set.into_iter().collect())
            }
            other => other,
        }
    }
}

impl fmt::Display for PatternOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PatternOp::Any => f.write_str("_"),
            PatternOp::Eq(v) => write!(f, "= '{v}'"),
            PatternOp::Ne(vs) => {
                f.write_str("!=")?;
                for (i, v) in vs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, " '{v}'")?;
                }
                Ok(())
            }
        }
    }
}

/// One constrained attribute within a pattern tuple.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PatternCell {
    /// The constrained attribute (id in the *input* schema).
    pub attr: AttrId,
    /// The constraint.
    pub op: PatternOp,
}

/// A pattern tuple `tp[Xp]`: a conjunction of per-attribute constraints.
///
/// The empty pattern (paper notation `tp1 = ()`) matches every tuple.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct PatternTuple {
    cells: Vec<PatternCell>,
}

impl PatternTuple {
    /// The empty pattern, which matches every tuple.
    pub fn empty() -> PatternTuple {
        PatternTuple { cells: Vec::new() }
    }

    /// Build from cells; merges duplicate attributes by conjunction when
    /// possible (two `Eq` on the same attribute with different constants is
    /// kept as-is and will simply never match).
    pub fn new(cells: impl Into<Vec<PatternCell>>) -> PatternTuple {
        let cells = cells
            .into()
            .into_iter()
            .map(|c| PatternCell {
                attr: c.attr,
                op: c.op.normalize(),
            })
            .collect();
        PatternTuple { cells }
    }

    /// Add an equality constraint.
    pub fn with_eq(mut self, attr: AttrId, value: Value) -> PatternTuple {
        self.cells.push(PatternCell {
            attr,
            op: PatternOp::Eq(value),
        });
        self
    }

    /// Add an inequality constraint.
    pub fn with_ne(mut self, attr: AttrId, value: Value) -> PatternTuple {
        self.cells.push(PatternCell {
            attr,
            op: PatternOp::Ne(vec![value]),
        });
        self
    }

    /// The constrained cells.
    pub fn cells(&self) -> &[PatternCell] {
        &self.cells
    }

    /// True iff the pattern has no constraints.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Attributes constrained by this pattern (may contain repeats if the
    /// pattern was built with repeated attributes).
    pub fn attrs(&self) -> impl Iterator<Item = AttrId> + '_ {
        self.cells.iter().map(|c| c.attr)
    }

    /// Distinct constrained attributes, sorted.
    pub fn distinct_attrs(&self) -> Vec<AttrId> {
        let set: BTreeSet<AttrId> = self.cells.iter().map(|c| c.attr).collect();
        set.into_iter().collect()
    }

    /// Evaluate the conjunction against `tuple` — a
    /// [`Tuple`](cerfix_relation::Tuple), or any
    /// other reader of input cells.
    pub fn matches<T: Cells + ?Sized>(&self, tuple: &T) -> bool {
        self.cells.iter().all(|c| c.op.matches(tuple.cell(c.attr)))
    }

    /// Render with attribute names from `schema`.
    pub fn render(&self, schema: &SchemaRef) -> String {
        if self.cells.is_empty() {
            return "()".to_string();
        }
        let parts: Vec<String> = self
            .cells
            .iter()
            .map(|c| format!("{} {}", schema.attr_name(c.attr), c.op))
            .collect();
        format!("({})", parts.join(", "))
    }
}

/// A conjunction of `= c` / `≠ c` constraints over a *single* attribute,
/// with an exact satisfiability test.
///
/// Used by the consistency checker: two editing rules conflict only if the
/// combined constraints they impose on a hypothetical input tuple are
/// satisfiable. Equality constraints also arise from master-tuple joins
/// (`t[X] = s[Xm]` forces `t[A] = constant` for a concrete `s`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ConstraintSet {
    /// The single permitted value, when an equality constraint is present.
    eq: Option<Value>,
    /// Values the attribute must avoid.
    ne: BTreeSet<Value>,
    /// Set when two distinct equality constraints collided.
    contradictory: bool,
}

impl ConstraintSet {
    /// An unconstrained attribute.
    pub fn unconstrained() -> ConstraintSet {
        ConstraintSet::default()
    }

    /// Conjoin `attr = value`.
    pub fn add_eq(&mut self, value: Value) {
        match &self.eq {
            Some(existing) if *existing != value => self.contradictory = true,
            _ => self.eq = Some(value),
        }
    }

    /// Conjoin `attr ≠ value`.
    pub fn add_ne(&mut self, value: Value) {
        self.ne.insert(value);
    }

    /// Conjoin a whole pattern op.
    pub fn add_op(&mut self, op: &PatternOp) {
        match op {
            PatternOp::Any => {}
            PatternOp::Eq(v) => self.add_eq(v.clone()),
            PatternOp::Ne(vs) => {
                for v in vs {
                    self.add_ne(v.clone());
                }
            }
        }
    }

    /// The pinned value, if an equality constraint is present.
    pub fn pinned(&self) -> Option<&Value> {
        self.eq.as_ref()
    }

    /// Exact satisfiability over the attribute's type.
    ///
    /// * Contradictory equalities → unsat.
    /// * `= c` with `c ∈ ne` → unsat.
    /// * Only inequalities: satisfiable unless the type's domain is finite
    ///   and fully excluded (`bool` with both values excluded). String,
    ///   int and float domains are effectively infinite here.
    pub fn is_satisfiable(&self, dtype: DataType) -> bool {
        if self.contradictory {
            return false;
        }
        if let Some(v) = &self.eq {
            return !self.ne.contains(v);
        }
        match dtype {
            DataType::Bool => {
                !(self.ne.contains(&Value::Bool(true)) && self.ne.contains(&Value::Bool(false)))
            }
            _ => true,
        }
    }

    /// A witness value satisfying the constraints, when one exists.
    /// Used to materialize counterexample tuples in consistency reports.
    pub fn witness(&self, dtype: DataType) -> Option<Value> {
        if !self.is_satisfiable(dtype) {
            return None;
        }
        if let Some(v) = &self.eq {
            return Some(v.clone());
        }
        match dtype {
            DataType::Bool => [Value::Bool(true), Value::Bool(false)]
                .into_iter()
                .find(|v| !self.ne.contains(v)),
            DataType::Int => (0..).map(Value::int).find(|v| !self.ne.contains(v)),
            DataType::Float => (0..)
                .map(|i| Value::float(i as f64))
                .find(|v| !self.ne.contains(v)),
            DataType::String => (0..)
                .map(|i| Value::str(format!("w{i}")))
                .find(|v| !self.ne.contains(v)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cerfix_relation::{Schema, Tuple};

    fn customer() -> SchemaRef {
        Schema::of_strings("customer", ["AC", "type", "city"]).unwrap()
    }

    fn tuple(ac: &str, ty: &str, city: &str) -> Tuple {
        Tuple::of_strings(customer(), [ac, ty, city]).unwrap()
    }

    #[test]
    fn ops_match_semantics() {
        assert!(PatternOp::Any.matches(&Value::str("x")));
        assert!(!PatternOp::Any.matches(&Value::Null));
        assert!(PatternOp::Eq(Value::str("2")).matches(&Value::str("2")));
        assert!(!PatternOp::Eq(Value::str("2")).matches(&Value::str("1")));
        let ne = PatternOp::Ne(vec![Value::str("0800")]);
        assert!(ne.matches(&Value::str("131")));
        assert!(!ne.matches(&Value::str("0800")));
        assert!(!ne.matches(&Value::Null));
    }

    #[test]
    fn empty_pattern_matches_everything_non_trivially() {
        let p = PatternTuple::empty();
        assert!(p.matches(&tuple("020", "1", "Ldn")));
        assert!(p.is_empty());
        assert_eq!(p.render(&customer()), "()");
    }

    #[test]
    fn paper_patterns() {
        let s = customer();
        let ty = s.attr_id("type").unwrap();
        let ac = s.attr_id("AC").unwrap();
        // φ4/φ5 pattern: type = 2
        let mobile = PatternTuple::empty().with_eq(ty, Value::str("2"));
        assert!(mobile.matches(&tuple("131", "2", "Edi")));
        assert!(!mobile.matches(&tuple("131", "1", "Edi")));
        // φ9 pattern: AC != 0800
        let geo = PatternTuple::empty().with_ne(ac, Value::str("0800"));
        assert!(geo.matches(&tuple("131", "2", "Edi")));
        assert!(!geo.matches(&tuple("0800", "2", "Edi")));
        assert_eq!(geo.render(&s), "(AC != '0800')");
    }

    #[test]
    fn conjunction_of_cells() {
        let s = customer();
        let p = PatternTuple::empty()
            .with_eq(s.attr_id("type").unwrap(), Value::str("1"))
            .with_ne(s.attr_id("AC").unwrap(), Value::str("0800"));
        assert!(p.matches(&tuple("131", "1", "Edi")));
        assert!(!p.matches(&tuple("0800", "1", "Edi")));
        assert!(!p.matches(&tuple("131", "2", "Edi")));
        assert_eq!(p.distinct_attrs(), vec![0, 1]);
    }

    #[test]
    fn null_cell_fails_pattern() {
        let s = customer();
        let mut t = tuple("131", "1", "Edi");
        t.set_by_name("type", Value::Null).unwrap();
        let p = PatternTuple::empty().with_eq(s.attr_id("type").unwrap(), Value::str("1"));
        assert!(!p.matches(&t));
        // Even a Ne pattern requires known evidence.
        let p2 = PatternTuple::empty().with_ne(s.attr_id("type").unwrap(), Value::str("9"));
        assert!(!p2.matches(&t));
    }

    #[test]
    fn normalize_dedups_ne() {
        let op = PatternOp::Ne(vec![Value::str("b"), Value::str("a"), Value::str("b")]);
        assert_eq!(
            op.normalize(),
            PatternOp::Ne(vec![Value::str("a"), Value::str("b")])
        );
    }

    #[test]
    fn constraints_eq_eq_conflict() {
        let mut c = ConstraintSet::unconstrained();
        c.add_eq(Value::str("020"));
        assert!(c.is_satisfiable(DataType::String));
        c.add_eq(Value::str("131"));
        assert!(!c.is_satisfiable(DataType::String));
        assert_eq!(c.witness(DataType::String), None);
    }

    #[test]
    fn constraints_eq_ne_conflict() {
        let mut c = ConstraintSet::unconstrained();
        c.add_eq(Value::str("0800"));
        c.add_ne(Value::str("0800"));
        assert!(!c.is_satisfiable(DataType::String));
    }

    #[test]
    fn constraints_ne_only_satisfiable() {
        let mut c = ConstraintSet::unconstrained();
        c.add_ne(Value::str("a"));
        c.add_ne(Value::str("w0"));
        assert!(c.is_satisfiable(DataType::String));
        let w = c.witness(DataType::String).unwrap();
        assert_ne!(w, Value::str("a"));
        assert_ne!(w, Value::str("w0"));
    }

    #[test]
    fn bool_domain_is_finite() {
        let mut c = ConstraintSet::unconstrained();
        c.add_ne(Value::Bool(true));
        assert!(c.is_satisfiable(DataType::Bool));
        assert_eq!(c.witness(DataType::Bool), Some(Value::Bool(false)));
        c.add_ne(Value::Bool(false));
        assert!(!c.is_satisfiable(DataType::Bool));
    }

    #[test]
    fn int_witness_avoids_exclusions() {
        let mut c = ConstraintSet::unconstrained();
        c.add_ne(Value::int(0));
        c.add_ne(Value::int(1));
        assert_eq!(c.witness(DataType::Int), Some(Value::int(2)));
    }

    #[test]
    fn add_op_folds_pattern_ops() {
        let mut c = ConstraintSet::unconstrained();
        c.add_op(&PatternOp::Any);
        c.add_op(&PatternOp::Ne(vec![Value::str("x")]));
        c.add_op(&PatternOp::Eq(Value::str("y")));
        assert!(c.is_satisfiable(DataType::String));
        assert_eq!(c.pinned(), Some(&Value::str("y")));
        c.add_op(&PatternOp::Eq(Value::str("z")));
        assert!(!c.is_satisfiable(DataType::String));
    }

    #[test]
    fn pattern_satisfiability_matches_brute_force_on_small_domain() {
        // Exhaustive check of the decision procedure against enumeration
        // over a tiny string domain.
        let domain = ["a", "b", "c"];
        let consts = [
            Value::str("a"),
            Value::str("b"),
            Value::str("c"),
            Value::str("d"),
        ];
        // Enumerate constraint sets: optional eq × subsets of ne.
        for eq_choice in std::iter::once(None).chain(consts.iter().cloned().map(Some)) {
            for mask in 0..(1 << consts.len()) {
                let mut c = ConstraintSet::unconstrained();
                if let Some(eq) = &eq_choice {
                    c.add_eq(eq.clone());
                }
                for (i, v) in consts.iter().enumerate() {
                    if mask & (1 << i) != 0 {
                        c.add_ne(v.clone());
                    }
                }
                // Brute force over domain ∪ {fresh}: strings are infinite,
                // so "fresh" stands for any value outside the constants.
                let mut candidates: Vec<Value> = domain.iter().map(|d| Value::str(*d)).collect();
                candidates.push(Value::str("fresh"));
                if let Some(eq) = &eq_choice {
                    candidates = vec![eq.clone()];
                }
                let brute = candidates.iter().any(|cand| {
                    (eq_choice.as_ref().is_none_or(|e| e == cand))
                        && (0..consts.len()).all(|i| mask & (1 << i) == 0 || &consts[i] != cand)
                });
                assert_eq!(
                    c.is_satisfiable(DataType::String),
                    brute,
                    "eq={eq_choice:?} mask={mask:b}"
                );
            }
        }
    }
}
