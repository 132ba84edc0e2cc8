//! Compact attribute-id sets for the hot engine paths.
//!
//! The correcting process tests and grows a validated-attribute set on
//! every rule attempt; the tree allocations and pointer chases of a
//! `BTreeSet<AttrId>` dominate once lookups themselves are O(1). An
//! [`AttrSet`] stores attribute ids as a bitset: schemas up to 64
//! attributes (every scenario in this repository) live in a single
//! inline `u64` — membership is one mask, insertion one `or`, subset one
//! `and` — with a heap `Vec<u64>` fallback for wider schemas.

use crate::schema::AttrId;
use std::collections::BTreeSet;
use std::fmt;

/// Bits per inline word; attribute ids `>= 64` promote to the heap repr.
const INLINE_BITS: usize = 64;

#[derive(Clone)]
enum Repr {
    /// Attribute ids 0..64 as bits of one word.
    Inline(u64),
    /// Wide schemas: bit `a` lives in `words[a / 64]`. Invariant: never
    /// shorter than 2 words, so `Inline` and `Heap` never alias a value.
    Heap(Vec<u64>),
}

/// A set of input-schema attribute ids, represented as a bitset.
///
/// Replaces `BTreeSet<AttrId>` throughout the rule engine (fixpoint,
/// rule application, monitor sessions, region certification). Iteration
/// order is ascending, matching the `BTreeSet` it replaced.
#[derive(Default)]
pub struct AttrSet {
    repr: Repr,
}

impl Clone for AttrSet {
    fn clone(&self) -> AttrSet {
        AttrSet {
            repr: self.repr.clone(),
        }
    }

    /// Into a heap set, a heap set is copied without reallocating.
    fn clone_from(&mut self, source: &AttrSet) {
        match (&mut self.repr, &source.repr) {
            (Repr::Heap(words), Repr::Heap(from)) => words.clone_from(from),
            (repr, from) => *repr = from.clone(),
        }
    }
}

// Equality, ordering and hashing are on the *members*, not the
// representation: a set that promoted to the heap and then removed its
// high bits equals the inline set with the same members.
impl PartialEq for AttrSet {
    fn eq(&self, other: &AttrSet) -> bool {
        self.trimmed_words() == other.trimmed_words()
    }
}

impl Eq for AttrSet {}

impl std::hash::Hash for AttrSet {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.trimmed_words().hash(state);
    }
}

impl Default for Repr {
    fn default() -> Repr {
        Repr::Inline(0)
    }
}

impl AttrSet {
    /// The empty set.
    pub fn new() -> AttrSet {
        AttrSet::default()
    }

    /// Insert `attr`; returns `true` iff it was newly added.
    pub fn insert(&mut self, attr: AttrId) -> bool {
        let (word, bit) = (attr / INLINE_BITS, attr % INLINE_BITS);
        match &mut self.repr {
            Repr::Inline(w) if word == 0 => {
                let fresh = *w & (1 << bit) == 0;
                *w |= 1 << bit;
                fresh
            }
            Repr::Inline(w) => {
                let mut words = vec![0u64; word + 1];
                words[0] = *w;
                words[word] |= 1 << bit;
                self.repr = Repr::Heap(words);
                true
            }
            Repr::Heap(words) => {
                if words.len() <= word {
                    words.resize(word + 1, 0);
                }
                let fresh = words[word] & (1 << bit) == 0;
                words[word] |= 1 << bit;
                fresh
            }
        }
    }

    /// Remove `attr`; returns `true` iff it was present.
    pub fn remove(&mut self, attr: AttrId) -> bool {
        let (word, bit) = (attr / INLINE_BITS, attr % INLINE_BITS);
        match &mut self.repr {
            Repr::Inline(w) => {
                if word != 0 {
                    return false;
                }
                let present = *w & (1 << bit) != 0;
                *w &= !(1 << bit);
                present
            }
            Repr::Heap(words) => {
                let Some(w) = words.get_mut(word) else {
                    return false;
                };
                let present = *w & (1 << bit) != 0;
                *w &= !(1 << bit);
                present
            }
        }
    }

    /// True iff `attr` is in the set.
    #[inline]
    pub fn contains(&self, attr: AttrId) -> bool {
        let (word, bit) = (attr / INLINE_BITS, attr % INLINE_BITS);
        match &self.repr {
            Repr::Inline(w) => word == 0 && *w & (1 << bit) != 0,
            Repr::Heap(words) => words.get(word).is_some_and(|w| w & (1 << bit) != 0),
        }
    }

    /// Number of attributes in the set.
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Inline(w) => w.count_ones() as usize,
            Repr::Heap(words) => words.iter().map(|w| w.count_ones() as usize).sum(),
        }
    }

    /// True iff the set is empty.
    pub fn is_empty(&self) -> bool {
        match &self.repr {
            Repr::Inline(w) => *w == 0,
            Repr::Heap(words) => words.iter().all(|&w| w == 0),
        }
    }

    /// Remove every attribute (keeps any heap capacity).
    pub fn clear(&mut self) {
        match &mut self.repr {
            Repr::Inline(w) => *w = 0,
            Repr::Heap(words) => words.iter_mut().for_each(|w| *w = 0),
        }
    }

    /// True iff every attribute of `self` is in `other`.
    pub fn is_subset(&self, other: &AttrSet) -> bool {
        let (a, b) = (self.words(), other.words());
        a.iter()
            .enumerate()
            .all(|(i, &w)| w & !b.get(i).copied().unwrap_or(0) == 0)
    }

    /// Add every attribute of `other`; returns `true` iff the set grew.
    pub fn union_with(&mut self, other: &AttrSet) -> bool {
        if let (Repr::Inline(a), Repr::Inline(b)) = (&mut self.repr, &other.repr) {
            let grew = *b & !*a != 0;
            *a |= *b;
            return grew;
        }
        other
            .iter()
            .fold(false, |grew, attr| self.insert(attr) | grew)
    }

    /// Remove every attribute of `other`.
    pub fn subtract(&mut self, other: &AttrSet) {
        if let (Repr::Inline(a), Repr::Inline(b)) = (&mut self.repr, &other.repr) {
            *a &= !*b;
            return;
        }
        for attr in other {
            self.remove(attr);
        }
    }

    /// Smallest attribute `>= from` in the set, if any. The delta
    /// engine's forward sweep over pending rules is built on this.
    pub fn next_at_or_after(&self, from: AttrId) -> Option<AttrId> {
        let words = self.words();
        let (mut word, bit) = (from / INLINE_BITS, from % INLINE_BITS);
        if word >= words.len() {
            return None;
        }
        let mut w = words[word] & (!0u64).wrapping_shl(bit as u32);
        loop {
            if w != 0 {
                return Some(word * INLINE_BITS + w.trailing_zeros() as usize);
            }
            word += 1;
            if word >= words.len() {
                return None;
            }
            w = words[word];
        }
    }

    /// Iterate the attributes in ascending order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            words: self.words(),
            word: 0,
            current: self.words().first().copied().unwrap_or(0),
        }
    }

    fn words(&self) -> &[u64] {
        match &self.repr {
            Repr::Inline(w) => std::slice::from_ref(w),
            Repr::Heap(words) => words,
        }
    }

    /// Words with trailing zero words dropped (canonical form for
    /// equality and hashing).
    fn trimmed_words(&self) -> &[u64] {
        let words = self.words();
        let last = words.iter().rposition(|&w| w != 0).map_or(0, |i| i + 1);
        &words[..last]
    }
}

impl fmt::Debug for AttrSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// Ascending iterator over an [`AttrSet`].
pub struct Iter<'a> {
    words: &'a [u64],
    word: usize,
    current: u64,
}

impl Iterator for Iter<'_> {
    type Item = AttrId;

    fn next(&mut self) -> Option<AttrId> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(self.word * INLINE_BITS + bit);
            }
            self.word += 1;
            self.current = *self.words.get(self.word)?;
        }
    }

    /// Exact, so collecting a set into a `Vec` allocates once.
    fn size_hint(&self) -> (usize, Option<usize>) {
        let rest = self.words.get(self.word + 1..).unwrap_or(&[]);
        let left = self.current.count_ones() + rest.iter().map(|w| w.count_ones()).sum::<u32>();
        (left as usize, Some(left as usize))
    }
}

impl<'a> IntoIterator for &'a AttrSet {
    type Item = AttrId;
    type IntoIter = Iter<'a>;
    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

impl FromIterator<AttrId> for AttrSet {
    fn from_iter<I: IntoIterator<Item = AttrId>>(iter: I) -> AttrSet {
        let mut set = AttrSet::new();
        set.extend(iter);
        set
    }
}

impl Extend<AttrId> for AttrSet {
    fn extend<I: IntoIterator<Item = AttrId>>(&mut self, iter: I) {
        for attr in iter {
            self.insert(attr);
        }
    }
}

impl<const N: usize> From<[AttrId; N]> for AttrSet {
    fn from(attrs: [AttrId; N]) -> AttrSet {
        attrs.into_iter().collect()
    }
}

impl From<&BTreeSet<AttrId>> for AttrSet {
    fn from(set: &BTreeSet<AttrId>) -> AttrSet {
        set.iter().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove_inline() {
        let mut s = AttrSet::new();
        assert!(s.is_empty());
        assert!(s.insert(3));
        assert!(!s.insert(3), "double insert reports not-new");
        assert!(s.insert(0));
        assert!(s.insert(63));
        assert!(s.contains(3) && s.contains(0) && s.contains(63));
        assert!(!s.contains(1) && !s.contains(64));
        assert_eq!(s.len(), 3);
        assert!(s.remove(3));
        assert!(!s.remove(3));
        assert_eq!(s.len(), 2);
        s.clear();
        assert!(s.is_empty());
    }

    #[test]
    fn wide_schemas_promote_to_heap() {
        let mut s = AttrSet::new();
        s.insert(5);
        s.insert(64); // promotion
        s.insert(200);
        assert!(s.contains(5) && s.contains(64) && s.contains(200));
        assert!(!s.contains(63) && !s.contains(199));
        assert_eq!(s.len(), 3);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![5, 64, 200]);
        assert!(s.remove(64));
        assert!(!s.remove(400), "out-of-range remove is a no-op");
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn iteration_is_ascending() {
        let s: AttrSet = [9, 1, 5, 2].into();
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![1, 2, 5, 9]);
        let empty = AttrSet::new();
        assert_eq!(empty.iter().count(), 0);
    }

    #[test]
    fn subset_across_reprs() {
        let small: AttrSet = [1, 2].into();
        let big: AttrSet = [1, 2, 3].into();
        assert!(small.is_subset(&big));
        assert!(!big.is_subset(&small));
        assert!(AttrSet::new().is_subset(&small));
        let wide: AttrSet = [1, 2, 100].into();
        assert!(small.is_subset(&wide));
        assert!(!wide.is_subset(&big), "heap vs inline subset");
        let wide2: AttrSet = [1, 2, 100, 7].into();
        assert!(wide.is_subset(&wide2));
    }

    #[test]
    fn union_and_subtract_across_reprs() {
        let mut s: AttrSet = [1, 2].into();
        assert!(s.union_with(&[2, 9].into()));
        assert!(!s.union_with(&[1, 9].into()), "nothing new");
        assert_eq!(s, [1, 2, 9].into());
        assert!(s.union_with(&[9, 130].into()), "inline grows into the heap");
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![1, 2, 9, 130]);
        assert_eq!(s.iter().size_hint(), (4, Some(4)));
        let mut it = s.iter();
        it.next();
        assert_eq!(it.size_hint(), (3, Some(3)));
        s.subtract(&[2, 130, 400].into());
        assert_eq!(s, [1, 9].into());
        let mut inline: AttrSet = [0, 5, 63].into();
        inline.subtract(&[5, 7].into());
        assert_eq!(inline, [0, 63].into());
        inline.subtract(&[0, 200].into());
        assert_eq!(inline, [63].into(), "heap subtrahend, inline minuend");
    }

    #[test]
    fn equality_ignores_representation_width() {
        let a: AttrSet = [0, 7].into();
        let b: AttrSet = [7, 0].into();
        assert_eq!(a, b);
        // A set that promoted to the heap and shrank back equals the
        // inline set with the same members (and hashes identically).
        let mut promoted: AttrSet = [0, 7, 100].into();
        promoted.remove(100);
        assert_eq!(promoted, a);
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let hash = |s: &AttrSet| {
            let mut h = DefaultHasher::new();
            s.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(&promoted), hash(&a));
    }

    #[test]
    fn clone_from_copies_across_reprs() {
        let (wide, inline): (AttrSet, AttrSet) = ([1, 100].into(), [3].into());
        let mut target: AttrSet = [2, 130].into();
        target.clone_from(&wide);
        assert_eq!(target, wide);
        target.clone_from(&inline);
        assert_eq!(target, inline);
        target.clone_from(&wide);
        assert_eq!(target, wide);
    }

    #[test]
    fn next_at_or_after_sweeps() {
        let s: AttrSet = [2, 5, 70].into();
        assert_eq!(s.next_at_or_after(0), Some(2));
        assert_eq!(s.next_at_or_after(2), Some(2));
        assert_eq!(s.next_at_or_after(3), Some(5));
        assert_eq!(s.next_at_or_after(6), Some(70));
        assert_eq!(s.next_at_or_after(71), None);
        assert_eq!(AttrSet::new().next_at_or_after(0), None);
    }

    #[test]
    fn conversions() {
        let bt: BTreeSet<AttrId> = [4, 8].into();
        let s = AttrSet::from(&bt);
        assert_eq!(s.iter().collect::<BTreeSet<_>>(), bt);
        let mut s2 = AttrSet::new();
        s2.extend([1, 4]);
        assert_eq!(s2.len(), 2);
        assert_eq!(format!("{s:?}"), "{4, 8}");
    }
}
