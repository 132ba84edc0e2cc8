//! Property tests over the relational substrate: CSV round-trips for
//! arbitrary content, total ordering of values, index/scan agreement
//! (however the index was built),
//! constraint-set satisfiability versus brute force, and one
//! representation per string cell whichever layer builds it.

use cerfix_relation::{
    read_relation_str, write_relation_str, AttrSet, CompareOp, DataType, HashIndex, Predicate,
    Relation, Schema, Text, Tuple, Value,
};
use cerfix_rules::ConstraintSet;
use cerfix_server::wire::Json;
use cerfix_server::Request;
use cerfix_storage::codec::Decoder;
use proptest::prelude::*;
use proptest::test_runner::{TestCaseError, TestCaseResult};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

fn any_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        proptest::string::string_regex("[\\x20-\\x7E]{0,16}")
            .unwrap()
            .prop_map(Value::str),
        any::<i64>().prop_map(Value::Int),
        any::<f64>().prop_map(Value::Float),
        any::<bool>().prop_map(Value::Bool),
    ]
}

/// Characters of every UTF-8 width, and the ones CSV and JSON escape.
const CHARS: [char; 10] = ['a', 'Z', ' ', '"', ',', '\n', '\\', 'é', '€', '𝄞'];

/// Text of 0–64 bytes, multi-byte characters straddling every length —
/// the inline capacity's 22/23-byte boundary included.
fn any_text() -> impl Strategy<Value = String> {
    proptest::collection::vec(0..CHARS.len(), 0..65).prop_map(|picks| {
        let mut text = String::new();
        for c in picks.into_iter().map(|i| CHARS[i]) {
            if text.len() + c.len_utf8() > 64 {
                break;
            }
            text.push(c);
        }
        text
    })
}

fn hash_of(v: &impl Hash) -> u64 {
    let mut h = DefaultHasher::new();
    v.hash(&mut h);
    h.finish()
}

/// `s` as every layer that reads a string cell builds it: `Value::str`,
/// the wire parse, the journal / snapshot decoder, and CSV.
fn built_by_every_layer(s: &str) -> Vec<Value> {
    let line = format!(
        r#"{{"op":"session.create","tuple":[{}]}}"#,
        Json::Str(s.into()).render()
    );
    let Ok(Request::SessionCreate { tuple }) = Request::parse_line(&line) else {
        panic!("a session.create: {line}");
    };
    let mut frame = vec![1u8];
    frame.extend_from_slice(&(s.len() as u32).to_le_bytes());
    frame.extend_from_slice(s.as_bytes());
    let decoded = Decoder::new(&frame).get_value().expect("a string value");
    let mut built = vec![Value::str(s), tuple[0].clone(), decoded];
    // CSV reads an empty field as null.
    if !s.is_empty() {
        let schema = Schema::of_strings("t", ["k"]).unwrap();
        let csv = format!("k\n\"{}\"\n", s.replace('"', "\"\""));
        let relation = read_relation_str(schema, &csv).expect("one quoted field");
        built.push(relation.iter().next().expect("one row").1.get(0).clone());
    }
    built
}

/// The one-representation checks on `s`: inline iff it fits, `Eq` and
/// `Hash` as `&str`'s (a `Str` hashes its rank, 4, then the `str`), and
/// the same cell — and the same `HashIndex` key — from every layer.
fn one_representation(s: &str, other: &str) -> TestCaseResult {
    let schema = Schema::of_strings("t", ["k"]).unwrap();
    let mut rel = Relation::empty(schema.clone());
    for row in [s, other, s] {
        rel.push(Tuple::new(schema.clone(), vec![Value::str(row)]).unwrap())
            .unwrap();
    }
    let index = HashIndex::build(&rel, vec![0]);
    let rows = index.lookup(&[Value::str(s)]).to_vec();
    prop_assert!(rows.len() >= 2, "{s:?} is keyed at rows 0 and 2: {rows:?}");
    for value in built_by_every_layer(s) {
        let Value::Str(text) = &value else {
            return Err(TestCaseError::Fail(format!("{s:?} built as {value:?}")));
        };
        prop_assert_eq!(text.is_inline(), s.len() <= Text::INLINE_CAP, "{:?}", s);
        prop_assert_eq!(text.as_str(), s);
        prop_assert_eq!(text.as_bytes(), s.as_bytes());
        prop_assert_eq!(&value, &Value::str(s));
        prop_assert_eq!(hash_of(&value), hash_of(&(4u8, s)));
        prop_assert_eq!(index.lookup(std::slice::from_ref(&value)), &rows[..]);
    }
    Ok(())
}

#[test]
fn one_representation_across_the_inline_boundary() {
    // Every length 0–31, ending in a character of every width.
    for pad in 0..=27 {
        for c in ['a', 'é', '€', '𝄞'] {
            let s = format!("{}{c}", "x".repeat(pad));
            let shorter = &s[..pad];
            one_representation(&s, shorter).unwrap_or_else(|e| panic!("{s:?}: {e}"));
            one_representation(shorter, &s).unwrap_or_else(|e| panic!("{shorter:?}: {e}"));
        }
    }
}

/// A cell's text for the index properties: one character repeated to
/// 0–31 bytes, often near the inline capacity's 22/23-byte boundary.
fn index_text() -> impl Strategy<Value = String> {
    let len = prop_oneof![0..=31usize, 21..=24usize];
    (len, 0..3u8).prop_map(|(len, c)| char::from(b'a' + c).to_string().repeat(len))
}

/// The scan's answer for `key` over `rel` on `attrs`: the matching rows
/// in order (none for a key with a null or of the wrong length), and,
/// when several match, the attributes on which all equal the first.
fn scan_answer(rel: &Relation, attrs: &[usize], key: &[Value]) -> (Vec<usize>, Option<AttrSet>) {
    if key.len() != attrs.len() || key.iter().any(Value::is_null) {
        return (Vec::new(), None);
    }
    let rows: Vec<usize> = rel
        .iter()
        .filter(|(_, s)| attrs.iter().zip(key).all(|(&a, k)| s.get(a) == k))
        .map(|(id, _)| id)
        .collect();
    if rows.len() < 2 {
        return (rows, None);
    }
    let first = rel.row(rows[0]).unwrap();
    let agree = (0..rel.schema().arity())
        .filter(|&a| {
            rows.iter()
                .all(|&r| rel.row(r).unwrap().get(a) == first.get(a))
        })
        .collect();
    (rows, Some(agree))
}

/// Every answer of `index` — `lookup`, `probe`, `distinct_keys`,
/// `postings` — equals a scan of `rel`, for every row's key, keys that
/// no row holds, and a key one cell too long; and every row's probe by
/// `filed_rows` is the probe of its key.
fn assert_index_is_scan(
    index: &HashIndex,
    rel: &Relation,
    attrs: &[usize],
    how: &str,
) -> TestCaseResult {
    let mut keys: Vec<Vec<Value>> = rel.iter().map(|(_, s)| s.project(attrs)).collect();
    keys.push(vec![Value::str("absent"); attrs.len()]);
    keys.push(vec![Value::str("q".repeat(23)); attrs.len()]);
    keys.push(vec![Value::str("a"); attrs.len() + 1]);
    for key in &keys {
        let (rows, agree) = scan_answer(rel, attrs, key);
        prop_assert_eq!(index.lookup(key), &rows[..], "{} lookup {:?}", how, key);
        let probe = index.probe(key);
        prop_assert_eq!(probe.matches, rows.len(), "{} matches {:?}", how, key);
        if let Some(&first) = rows.first() {
            prop_assert_eq!(probe.first, first, "{} first {:?}", how, key);
        }
        prop_assert_eq!(probe.agree, agree.as_ref(), "{} agreement {:?}", how, key);
    }
    // A row's probe reads the posting its key is filed under.
    let filed = index.filed_rows(rel.len());
    for (row, s) in rel.iter() {
        let key = s.project(attrs);
        prop_assert_eq!(filed.probe(row), index.probe(&key), "{} row {}", how, row);
    }
    let indexed: Vec<Vec<Value>> = rel
        .iter()
        .map(|(_, s)| s.project(attrs))
        .filter(|key| !key.iter().any(Value::is_null))
        .collect();
    let distinct: std::collections::HashSet<&Vec<Value>> = indexed.iter().collect();
    prop_assert_eq!(
        index.distinct_keys(),
        distinct.len(),
        "{} distinct keys",
        how
    );
    prop_assert_eq!(index.postings(), indexed.len(), "{} postings", how);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// A string cell has one representation whichever layer builds it,
    /// and `Value`'s `Eq`, `Ord` and `Hash` are `&str`'s.
    #[test]
    fn one_representation_per_string(a in any_text(), b in any_text()) {
        one_representation(&a, &b)?;
        one_representation(&b, &a)?;
        let (va, vb) = (Value::str(&a), Value::str(&b));
        prop_assert_eq!(va == vb, a == b);
        prop_assert_eq!(va.cmp(&vb), a.cmp(&b));
    }

    /// CSV round-trips arbitrary printable strings, including quotes,
    /// commas and newlines.
    #[test]
    fn csv_round_trip(cells in proptest::collection::vec(
        proptest::collection::vec("[\\x20-\\x7E\\n]{0,20}", 3), 0..12)
    ) {
        let schema = Schema::of_strings("t", ["a", "b", "c"]).unwrap();
        let mut rel = Relation::empty(schema.clone());
        for row in &cells {
            // Empty strings parse back as nulls; normalize expectation by
            // writing a sentinel for empties.
            let row: Vec<String> =
                row.iter().map(|s| if s.is_empty() { "∅mark".into() } else { s.clone() }).collect();
            rel.push(Tuple::of_strings(schema.clone(), row).unwrap()).unwrap();
        }
        let text = write_relation_str(&rel);
        let back = read_relation_str(schema, &text).unwrap();
        prop_assert_eq!(back.len(), rel.len());
        for ((_, a), (_, b)) in rel.iter().zip(back.iter()) {
            prop_assert_eq!(a, b);
        }
    }

    /// Value ordering is a total order: antisymmetric, transitive, and
    /// consistent with equality; equal values hash identically.
    #[test]
    fn value_order_is_total(a in any_value(), b in any_value(), c in any_value()) {
        use std::cmp::Ordering;
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        // Totality + antisymmetry.
        match a.cmp(&b) {
            Ordering::Equal => {
                prop_assert_eq!(&a, &b);
                let mut ha = DefaultHasher::new();
                let mut hb = DefaultHasher::new();
                a.hash(&mut ha);
                b.hash(&mut hb);
                prop_assert_eq!(ha.finish(), hb.finish());
            }
            Ordering::Less => prop_assert_eq!(b.cmp(&a), Ordering::Greater),
            Ordering::Greater => prop_assert_eq!(b.cmp(&a), Ordering::Less),
        }
        // Transitivity.
        if a <= b && b <= c {
            prop_assert!(a <= c);
        }
    }

    /// Index lookups agree with predicate scans for every key.
    #[test]
    fn index_agrees_with_scan(keys in proptest::collection::vec("[a-c]{1,2}", 1..40)) {
        let schema = Schema::of_strings("t", ["k", "v"]).unwrap();
        let mut rel = Relation::empty(schema.clone());
        for (i, k) in keys.iter().enumerate() {
            rel.push(Tuple::of_strings(schema.clone(), [k.as_str(), &i.to_string()]).unwrap())
                .unwrap();
        }
        let idx = HashIndex::build(&rel, vec![0]);
        for k in &keys {
            let via_index = idx.lookup(&[Value::str(k)]).to_vec();
            let via_scan = rel.scan(&[Predicate::new(0, CompareOp::Eq, Value::str(k))]);
            prop_assert_eq!(via_index, via_scan);
        }
    }

    /// A `HashIndex` answers what a scan does, however it was built: in
    /// one `build`, row by row through `insert_row`, or cloned part-way
    /// and appended to — on keys of 1–3 attributes with duplicates, nulls
    /// and cells either side of the inline boundary. A row's probe
    /// (`filed_rows`) is the probe of its key. The index cloned from
    /// keeps answering for the rows it was built over.
    #[test]
    fn index_equals_scan_however_built(
        pool in proptest::collection::vec(index_text(), 3),
        picks in proptest::collection::vec(0..4usize, 1..4),
        cells in proptest::collection::vec(proptest::collection::vec(0..4usize, 4), 0..40),
        cut in 0..=40usize,
    ) {
        let schema = Schema::of_strings("t", ["a", "b", "c", "d"]).unwrap();
        let mut attrs: Vec<usize> = Vec::new();
        for a in picks {
            if !attrs.contains(&a) {
                attrs.push(a);
            }
        }
        let tuples: Vec<Tuple> = cells
            .iter()
            .map(|row| {
                let values: Vec<Value> = row
                    .iter()
                    .map(|&i| pool.get(i).map_or(Value::Null, Value::str))
                    .collect();
                Tuple::new(schema.clone(), values).unwrap()
            })
            .collect();
        let rel = Relation::from_tuples(schema.clone(), tuples.iter().cloned()).unwrap();

        let built = HashIndex::build(&rel, attrs.clone());
        assert_index_is_scan(&built, &rel, &attrs, "build")?;

        let mut grown = Relation::empty(schema.clone());
        let mut inserted = HashIndex::build(&grown, attrs.clone());
        for t in &tuples {
            let row = grown.push(t.clone()).unwrap();
            inserted.insert_row(&grown, row);
        }
        assert_index_is_scan(&inserted, &rel, &attrs, "insert_row")?;

        let cut = cut.min(tuples.len());
        let mut prefix =
            Relation::from_tuples(schema.clone(), tuples[..cut].iter().cloned()).unwrap();
        let original = HashIndex::build(&prefix, attrs.clone());
        let mut appended = original.clone();
        for t in &tuples[cut..] {
            let row = prefix.push(t.clone()).unwrap();
            appended.insert_row(&prefix, row);
        }
        assert_index_is_scan(&appended, &rel, &attrs, "clone then append")?;
        let before = Relation::from_tuples(schema, tuples[..cut].iter().cloned()).unwrap();
        assert_index_is_scan(&original, &before, &attrs, "cloned from")?;
    }

    /// ConstraintSet satisfiability matches brute-force enumeration over
    /// a closed world of candidate strings.
    #[test]
    fn constraints_match_brute_force(
        eq in proptest::option::of(0usize..4),
        nes in proptest::collection::btree_set(0usize..4, 0..4),
    ) {
        let consts: Vec<Value> =
            ["a", "b", "c", "d"].iter().map(|s| Value::str(*s)).collect();
        let mut cs = ConstraintSet::unconstrained();
        if let Some(e) = eq {
            cs.add_eq(consts[e].clone());
        }
        for &n in &nes {
            cs.add_ne(consts[n].clone());
        }
        // Brute force over the constants plus one fresh value.
        let mut candidates = consts.clone();
        candidates.push(Value::str("fresh"));
        let brute = candidates.iter().any(|cand| {
            eq.is_none_or(|e| &consts[e] == cand)
                && nes.iter().all(|&n| &consts[n] != cand)
        });
        prop_assert_eq!(cs.is_satisfiable(DataType::String), brute);
        // Witnesses, when produced, satisfy the constraints.
        if let Some(w) = cs.witness(DataType::String) {
            if let Some(e) = eq {
                prop_assert_eq!(&w, &consts[e]);
            }
            for &n in &nes {
                prop_assert_ne!(&w, &consts[n]);
            }
        }
    }

    /// Tuple projection preserves order and values.
    #[test]
    fn projection_preserves(vals in proptest::collection::vec("[a-z]{0,6}", 4)) {
        let schema = Schema::of_strings("t", ["a", "b", "c", "d"]).unwrap();
        let t = Tuple::of_strings(schema, vals.clone()).unwrap();
        let proj = t.project(&[3, 1]);
        prop_assert_eq!(proj, vec![Value::str(&vals[3]), Value::str(&vals[1])]);
    }
}
