//! The memoized certification lattice: incremental data-phase probes.
//!
//! The naive data phase simulates one full correcting process per
//! `(candidate, truth)` pair — `universe × candidates` fixpoints, each
//! O(firings) master lookups. This module collapses almost all of that
//! work using one observation: **within a truth-clean run, every rule's
//! behaviour is a function of the truth alone.**
//!
//! A certification fixpoint seeds `t[Z] = u[Z]` with `Z` validated. Call
//! a state *truth-clean* when every validated cell equals the truth `u`.
//! In a truth-clean state a rule's evidence values are `u`'s values, so
//! its pattern verdict is `pattern.matches(u)` and its certain lookup
//! probes `u`'s key — both independent of `Z` and of firing order. A
//! [`TruthProfile`] classifies each compiled rule once per truth:
//!
//! * **fireable** — pattern matches `u`, the lookup is unique, and the
//!   witness agrees with `u` on every RHS attribute. Firing keeps the
//!   state truth-clean.
//! * **dead** — pattern mismatch, no match, ambiguous key, or a null fix
//!   value. The rule can never fire in a truth-clean run.
//! * **poisoned** — the lookup is unique but *disagrees* with `u`. Such
//!   a rule can fire a wrong value, after which the run leaves the
//!   truth-clean regime and genuinely depends on attempt order.
//!
//! For an unpoisoned truth, every fixpoint from every seed stays
//! truth-clean, so the run is confluent and its outcome is a pure
//! *closure*: `certified(Z, u) ⟺ closure of Z under fireable rules
//! spans the schema`. That closure is a handful of bitset operations —
//! no tuple allocation, no lookups — and it is monotone, so candidates
//! sharing a `Z`-prefix share [`ClosureNode`] snapshots (the lattice):
//! the node for `Z ∪ {a}` extends the node for `Z`.
//!
//! For the (rare) poisoned truths the module falls back to the real
//! fixpoint, preserving **exact** equivalence with the from-scratch
//! oracle ([`find_regions_from_scratch`]) on every input, including
//! adversarial universes and inconsistent rule sets — property-tested in
//! `tests/region_incremental.rs`.
//!
//! Truths are read, never copied: a profile and a fixpoint take the
//! truth as any [`Cells`] reader — a master row read in place through
//! the attribute map, on the server — and project keys from it into
//! buffers a worker keeps ([`ProfileScratch`]). The fixpoint's input
//! form is written into one tuple per certifier, made at its first
//! poisoned truth.
//!
//! A search stores its truths' profiles compactly ([`TruthProfiles`]):
//! per truth, its fireable rule positions as bits, one word per 64 rules,
//! and its poisoned flag, written in place by the worker that profiles
//! it.
//!
//! A truth that *is* a master row ([`Universe::master_row`]) is not even
//! projected for a rule that reads its own key — every LHS pair
//! `(x, xm)` mapped `x → xm`: its key is the one the index files the row
//! under, so the row's posting answers the lookup with no key hashed,
//! from a row → posting vector per key group gathered once per batch of
//! profiles ([`OwnKeys`]). A posting's certain verdict is the same for
//! every truth filed under it, so a key group decides each of its rules
//! once per posting, at the first truth of the batch filed there, and
//! keeps the rules' bits in a memo that lives for the batch, indexed by
//! the posting's first row ([`ProfileScratch`]); each such group walks a
//! worker's truths in row order, and a truth ORs in its postings' bits.
//! Per truth remain only a rule's pattern and, when the RHS is not read
//! by name, the comparison of the witness with the truth that decides
//! fire or poison; when the RHS pairs map `b → bm` too, the truth's row
//! is one of the matching rows, so a certain verdict is a fireable rule
//! and never a poisoned one. On HOSP, whose
//! eight rules all join by name, profiling 20 000 master rows decides
//! 30 018 verdicts — its 10 009 keys times their groups' rules — where
//! the same truths copied into tuples make 160 000 lookups, and hashes
//! no key. Cross-name joins, foreign
//! RHS, slice universes and the unindexed arm keep the hashed probe per
//! truth and rule; the two arms are held equal truth by truth in this
//! module's tests.
//!
//! [`find_regions_from_scratch`]: crate::region::find_regions_from_scratch

use crate::engine::{run_fixpoint_delta, CompiledRules, EngineStats, KeyMemo};
use crate::master::MasterData;
use crate::region::universe::{MasterRow, Universe};
use cerfix_relation::{AttrId, AttrSet, Cells, FiledRows, RowId, Tuple, Value};

/// Words of rule bits per profile: one per 64 rule positions, at least
/// one.
fn rule_words(plan: &CompiledRules) -> usize {
    plan.len().div_ceil(64).max(1)
}

/// The rule positions whose bits are set in `words`.
fn rule_positions(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(w, &word)| {
        let mut rest = word;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let bit = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                w * 64 + bit
            })
        })
    })
}

/// The profiles of a search's truths, by universe index (see module
/// docs): per truth, its fireable rule positions as bits and its
/// poisoned flag. A truth the search did not profile reads no fireable
/// rule and the flag it was made with.
#[derive(Debug)]
pub(crate) struct TruthProfiles {
    /// Words of rule bits per truth.
    words: usize,
    /// Truth `i`'s fireable rules: bits of `fireable[i * words..][..words]`.
    fireable: Vec<u64>,
    /// Per truth: some rule would fire a non-truth value.
    poisoned: Vec<bool>,
}

impl TruthProfiles {
    /// Room for the profiles of `len` truths of `plan`, each with no
    /// fireable rule and unpoisoned.
    pub(crate) fn new(plan: &CompiledRules, len: usize) -> TruthProfiles {
        let words = rule_words(plan);
        TruthProfiles {
            words,
            fireable: vec![0; len * words],
            poisoned: vec![false; len],
        }
    }

    /// Truth `idx`'s profile.
    pub(crate) fn get(&self, idx: usize) -> TruthProfile<'_> {
        TruthProfile {
            fireable: &self.fireable[idx * self.words..][..self.words],
            poisoned: self.poisoned[idx],
        }
    }

    /// The profiles to write, cut at each of `ends` (ascending): a run
    /// per end, holding the truths from the previous end, so that runs of
    /// truths are profiled on separate workers in place.
    pub(crate) fn split(&mut self, ends: impl Iterator<Item = usize>) -> Vec<ProfileRun<'_>> {
        let words = self.words;
        let (mut fireable, mut poisoned) = (&mut self.fireable[..], &mut self.poisoned[..]);
        let mut base = 0;
        let mut runs = Vec::new();
        for end in ends {
            let (f, rest) = std::mem::take(&mut fireable).split_at_mut((end - base) * words);
            let (p, rest_p) = std::mem::take(&mut poisoned).split_at_mut(end - base);
            runs.push(ProfileRun {
                base,
                words,
                fireable: f,
                poisoned: p,
            });
            (fireable, poisoned, base) = (rest, rest_p, end);
        }
        runs
    }
}

/// The profiles of truths `base..base + poisoned.len()`, to write
/// ([`TruthProfiles::split`]).
#[derive(Debug)]
pub(crate) struct ProfileRun<'a> {
    base: usize,
    words: usize,
    fireable: &'a mut [u64],
    poisoned: &'a mut [bool],
}

impl ProfileRun<'_> {
    /// Profile the truths `run` of `universe` — ascending, each held by
    /// this run — on one worker's `scratch`. With `own`, each key group
    /// that reads a truth's own key walks the run in row order first
    /// ([`OwnKeys::profile_group`]); then every truth's other rules are
    /// classified one by one ([`TruthProfile::build`]).
    pub(crate) fn profile<U: Universe + ?Sized>(
        &mut self,
        plan: &CompiledRules,
        master: &MasterData,
        universe: &U,
        run: &[usize],
        own: Option<&OwnKeys<'_>>,
        scratch: &mut ProfileScratch,
    ) {
        for &idx in run {
            self.poisoned[idx - self.base] = false;
        }
        if let Some(own) = own {
            for group in 0..own.groups.len() {
                own.profile_group(master, universe, group, run, self, &mut scratch.postings);
            }
        }
        for &idx in run {
            // A truth read by row has the rules of the other groups left;
            // any other truth, every rule.
            let rules = match own.filter(|own| own.row(universe.master_row(idx)).is_some()) {
                Some(own) if own.hashed.is_empty() => continue,
                Some(own) => own.hashed.iter().copied().chain(0..0),
                None => [].iter().copied().chain(0..plan.len()),
            };
            let (fireable, poisoned) = self.slot(idx);
            let truth = universe.truth(idx);
            *poisoned |= TruthProfile::build(plan, master, &truth, rules, scratch, fireable);
        }
    }

    /// Truth `idx`'s fireable words and its poisoned flag.
    fn slot(&mut self, idx: usize) -> (&mut [u64], &mut bool) {
        let at = idx - self.base;
        (
            &mut self.fireable[at * self.words..][..self.words],
            &mut self.poisoned[at],
        )
    }
}

/// One truth's classification of every compiled rule (see module docs),
/// as a [`TruthProfiles`] store keeps it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TruthProfile<'a> {
    /// Rule positions (into the plan) that fire truth values, as bits.
    fireable: &'a [u64],
    /// True iff some rule would fire a non-truth value: closure-based
    /// certification is unsound for this truth, use the fixpoint.
    poisoned: bool,
}

impl TruthProfile<'_> {
    /// The fireable rule positions.
    pub(crate) fn fireable(&self) -> AttrSet {
        rule_positions(self.fireable).collect()
    }

    /// Classify the rules at `rules` against `truth` by hashed lookup:
    /// set the bits of the fireable ones in `fireable` (the truth's
    /// words) and return whether one of them poisons the truth. Each rule
    /// makes one certain lookup if its pattern admits the truth — one
    /// index probe per key group, whatever the number of master rows
    /// sharing the key, since every rule of a group reads the same truth
    /// key. The key is projected into, and the probes held in, `scratch`,
    /// which a worker reuses from one truth to the next.
    pub(crate) fn build<T: Cells + ?Sized>(
        plan: &CompiledRules,
        master: &MasterData,
        truth: &T,
        rules: impl Iterator<Item = usize>,
        scratch: &mut ProfileScratch,
        fireable: &mut [u64],
    ) -> bool {
        let ProfileScratch {
            key_buf,
            keys,
            probes,
            ..
        } = scratch;
        keys.clear();
        let mut poisoned = false;
        for pos in rules {
            // In a truth-clean state the pattern reads truth values.
            if !plan.rules[pos].pattern.matches(truth) {
                continue;
            }
            crate::count!(VerdictsDecided);
            let Some(witness) = plan.lookup(pos, master, truth, key_buf, keys, probes) else {
                continue; // no match / ambiguous / null fix: dead
            };
            if agrees(plan, master, pos, witness, truth) {
                fireable[pos / 64] |= 1 << (pos % 64);
            } else {
                poisoned = true;
            }
        }
        poisoned
    }
}

/// True iff master row `witness`, the certain witness of the rule at
/// `pos`, agrees with `truth` on the rule's RHS.
fn agrees<T: Cells + ?Sized>(
    plan: &CompiledRules,
    master: &MasterData,
    pos: usize,
    witness: RowId,
    truth: &T,
) -> bool {
    let rule = &plan.rules[pos];
    let s = master.tuple(witness).expect("index row in range");
    rule.input_rhs
        .iter()
        .zip(rule.master_rhs.iter())
        .all(|(&b, &bm)| s.get(bm) == truth.cell(b))
}

/// The buffers one worker's profiles run on, kept across the truths it
/// profiles in one batch, so a profile allocates nothing of its own: the
/// projected key and the run's probe memo of the hashed arm
/// ([`TruthProfile::build`]), and the posting verdicts of the own-key
/// arm ([`OwnKeys`]).
#[derive(Debug, Default)]
pub(crate) struct ProfileScratch {
    key_buf: Vec<Value>,
    keys: KeyMemo,
    /// Index probes the profiles built on this scratch made: each one
    /// hashed a truth's key.
    pub(crate) probes: usize,
    postings: PostingVerdicts,
}

/// Per own key group ([`OwnKeys`]) and posting, known by its first row:
/// the bits of the group's rules whose certain verdict holds there,
/// decided at the first truth filed under the posting and read by the
/// rest. Sized at the scratch's first own-key truth, for every group and
/// row; it lives as long as the scratch, one batch of profiles.
#[derive(Debug, Default)]
struct PostingVerdicts {
    /// One bit per entry `group * rows + first row` — its verdicts are
    /// decided — in the first `⌈entries / 64⌉` words; then, per entry,
    /// its words of rule bits.
    words: Vec<u64>,
}

impl PostingVerdicts {
    /// The rule bits of `entry` of `entries`, `words` words each,
    /// decided by `decide` the first time they are asked for.
    fn get(
        &mut self,
        entry: usize,
        entries: usize,
        words: usize,
        decide: impl FnOnce(&mut [u64]),
    ) -> &[u64] {
        let flags = entries.div_ceil(64);
        if self.words.is_empty() {
            self.words = vec![0; flags + entries * words];
        }
        let (decided, bits) = self.words.split_at_mut(flags);
        let bits = &mut bits[entry * words..][..words];
        let (flag, bit) = (&mut decided[entry / 64], 1 << (entry % 64));
        if *flag & bit == 0 {
            *flag |= bit;
            decide(bits);
        }
        bits
    }
}

/// How a batch of profiles reads truths that are rows of the searched
/// master, read in place through one map
/// ([`Universe::master_row`]). A key group of the plan whose every LHS
/// pair `(x, xm)` the map sends `x → xm` reads a truth's *own* key, the
/// key its row is filed under; per such group with an index, the rows
/// of that index by posting ([`HashIndex::filed_rows`], one pass over
/// its postings, no key hashed) and the group's rules, whose verdicts a
/// posting decides once for every truth filed under it. Made once per
/// batch of profiles, from the batch's first truth, and only when some
/// group reads own keys.
///
/// [`HashIndex::filed_rows`]: cerfix_relation::HashIndex::filed_rows
#[derive(Debug)]
pub(crate) struct OwnKeys<'a> {
    plan: &'a CompiledRules,
    rows: &'a [Tuple],
    map: &'a [Option<AttrId>],
    /// Words of rule bits per mask.
    words: usize,
    /// The indexed key groups that read own keys.
    groups: Vec<OwnGroup<'a>>,
    /// Masks of rule bits, `words` words each: the rules of `groups` with
    /// a pattern, checked per truth; the rules whose every LHS pair and
    /// every RHS pair `(b, bm)` the map sends by name — a certain witness
    /// of such a rule agrees with the truth's row, one of the matching
    /// rows; then each own group's rules.
    masks: Vec<u64>,
    /// Positions of the rules of every other group: profiled by hashed
    /// lookup.
    hashed: Vec<usize>,
}

/// One key group reading own keys.
#[derive(Debug)]
struct OwnGroup<'a> {
    /// Its number in the plan.
    id: usize,
    /// Its index's rows by posting.
    filed: FiledRows<'a>,
}

/// Where [`OwnKeys::masks`] holds the patterned rules' mask, the mask of
/// the rules fixing the truth's own values, and own group `g`'s rules.
const PATTERNED: usize = 0;
const FIXES_OWN: usize = 1;
const fn group_mask(g: usize) -> usize {
    2 + g
}

impl<'a> OwnKeys<'a> {
    /// The own keys of truths read like `at`; `None` when `at` is not a
    /// row of `master` or no indexed key group reads an own key.
    pub(crate) fn of(
        plan: &'a CompiledRules,
        master: &MasterData,
        at: MasterRow<'a>,
    ) -> Option<OwnKeys<'a>> {
        if !at.of(master) {
            return None;
        }
        let words = rule_words(plan);
        let mut own = OwnKeys {
            plan,
            rows: at.rows,
            map: at.map,
            words,
            groups: Vec::new(),
            masks: Vec::with_capacity((2 + plan.len()) * words),
            hashed: Vec::new(),
        };
        own.masks.resize(2 * words, 0);
        for (pos, rule) in plan.rules.iter().enumerate() {
            // Every rule of a group joins alike, on one index.
            let index = rule.index.as_deref();
            let Some(index) = index.filter(|_| at.reads_own(&rule.input_lhs, &rule.master_lhs))
            else {
                own.hashed.push(pos);
                continue;
            };
            let group = match own.groups.iter().position(|g| g.id == rule.group) {
                Some(group) => group,
                None => {
                    let filed = index.filed_rows(master.len());
                    own.groups.push(OwnGroup {
                        id: rule.group,
                        filed,
                    });
                    own.masks.resize(own.masks.len() + words, 0);
                    own.groups.len() - 1
                }
            };
            own.set(group_mask(group), pos);
            if !rule.pattern.is_empty() {
                own.set(PATTERNED, pos);
            }
            if at.reads_own(&rule.input_rhs, &rule.master_rhs) {
                own.set(FIXES_OWN, pos);
            }
        }
        (!own.groups.is_empty()).then_some(own)
    }

    fn mask(&self, mask: usize) -> &[u64] {
        &self.masks[mask * self.words..][..self.words]
    }

    fn set(&mut self, mask: usize, pos: usize) {
        self.masks[mask * self.words + pos / 64] |= 1 << (pos % 64);
    }

    /// The row truth `at` is, when it is read as these own keys' truths
    /// are.
    pub(crate) fn row(&self, at: Option<MasterRow<'_>>) -> Option<(RowId, &Self)> {
        let at = at?;
        let alike = std::ptr::eq(at.rows, self.rows) && std::ptr::eq(at.map, self.map);
        alike.then_some((at.row, self))
    }

    /// The posting own group `group` files row `row` under — its first
    /// row, the witness of every certain verdict — and the bits of the
    /// group's rules whose verdict holds there, decided on `memo` at the
    /// first row filed under the posting: no key is projected or hashed.
    /// `None` when the row is filed under no key (it has a null).
    fn verdicts<'m>(
        &self,
        master: &MasterData,
        group: usize,
        row: RowId,
        memo: &'m mut PostingVerdicts,
    ) -> Option<(RowId, &'m [u64])> {
        let probe = self.groups[group].filed.probe(row);
        if probe.matches == 0 {
            return None;
        }
        let entries = self.groups.len() * self.rows.len();
        let entry = group * self.rows.len() + probe.first;
        let bits = memo.get(entry, entries, self.words, |bits| {
            let mut rules = 0;
            for pos in rule_positions(self.mask(group_mask(group))) {
                if self.plan.verdict(pos, master, probe).is_some() {
                    bits[pos / 64] |= 1 << (pos % 64);
                }
                rules += 1;
            }
            crate::count!(VerdictsDecided, rules);
        });
        Some((probe.first, bits))
    }

    /// Classify own group `group`'s rules for the truths `run` of
    /// `universe` that are read as these own keys' truths are, in row
    /// order: each truth ORs in its posting's verdicts, keeping a
    /// patterned rule only if its pattern admits the truth, and comparing
    /// the witness with the truth for a rule whose RHS is not read by
    /// name — a disagreeing witness poisons the truth instead.
    fn profile_group<U: Universe + ?Sized>(
        &self,
        master: &MasterData,
        universe: &U,
        group: usize,
        run: &[usize],
        out: &mut ProfileRun<'_>,
        memo: &mut PostingVerdicts,
    ) {
        // A group with no pattern and no RHS crossing names reads nothing
        // of a truth: the truth takes its posting's bits as they are.
        let (patterned, fixes_own) = (self.mask(PATTERNED), self.mask(FIXES_OWN));
        let plain = (patterned.iter().zip(fixes_own))
            .zip(self.mask(group_mask(group)))
            .all(|((p, f), rules)| (p | !f) & rules == 0);
        for &idx in run {
            let Some((row, _)) = self.row(universe.master_row(idx)) else {
                continue;
            };
            let Some((witness, verdicts)) = self.verdicts(master, group, row, memo) else {
                continue; // the row's key has a null: every rule dead
            };
            let (fireable, poisoned) = out.slot(idx);
            if plain {
                fireable.iter_mut().zip(verdicts).for_each(|(w, v)| *w |= v);
                continue;
            }
            let truth = universe.truth(idx);
            for (w, &certain) in verdicts.iter().enumerate() {
                let mut fire = certain;
                // In a truth-clean state the pattern reads truth values.
                let mut gated = certain & patterned[w];
                while gated != 0 {
                    let bit = gated & gated.wrapping_neg();
                    if !self.plan.rules[w * 64 + bit.trailing_zeros() as usize]
                        .pattern
                        .matches(&truth)
                    {
                        fire &= !bit;
                    }
                    gated &= gated - 1;
                }
                // A witness of a rule fixing the truth's own values is
                // one of the matching rows: it agrees.
                let mut compared = fire & !fixes_own[w];
                while compared != 0 {
                    let bit = compared & compared.wrapping_neg();
                    let pos = w * 64 + bit.trailing_zeros() as usize;
                    if !agrees(self.plan, master, pos, witness, &truth) {
                        fire &= !bit;
                        *poisoned = true;
                    }
                    compared &= compared - 1;
                }
                fireable[w] |= fire;
            }
        }
    }
}

/// One node of the certification lattice: the closure of some seed under
/// a truth's fireable rules, plus the rules consumed reaching it.
/// Extending a node with one more attribute reuses both — the memoized
/// `(context, truth, Z-prefix)` snapshot of the incremental data phase.
#[derive(Debug, Clone)]
pub(crate) struct ClosureNode {
    /// Attributes validated by the closure (the "validated `AttrSet`").
    validated: AttrSet,
    /// Rule positions already fired on the path to this node.
    consumed: AttrSet,
}

impl ClosureNode {
    /// The root node: closure of `seed` from scratch (full rule scan)
    /// under a fireable mask (profile classes share one mask across many
    /// truths).
    pub(crate) fn root_of(plan: &CompiledRules, fireable: &AttrSet, seed: &AttrSet) -> ClosureNode {
        let mut node = ClosureNode {
            validated: seed.clone(),
            consumed: AttrSet::new(),
        };
        let arity = plan.input_schema().arity();
        // Initial sweep: every fireable rule whose evidence is already in
        // the seed; later additions wake watchers only.
        let mut newly: Vec<AttrId> = Vec::new();
        for pos in fireable {
            if node.validated.len() == arity {
                break;
            }
            if plan.masks().evidence(pos).is_subset(&node.validated) {
                node.consumed.insert(pos);
                for b in plan.masks().rhs(pos) {
                    if node.validated.insert(b) {
                        newly.push(b);
                    }
                }
            }
        }
        node.propagate(plan, fireable, newly, arity);
        node
    }

    /// Extend this node with `extra` attributes, returning the closure of
    /// `validated ∪ extra` — the lattice step `closure(Z ∪ {a})` from
    /// `closure(Z)`. Only rules watching a newly validated attribute are
    /// examined.
    pub(crate) fn extend_with(
        &self,
        plan: &CompiledRules,
        fireable: &AttrSet,
        extra: impl IntoIterator<Item = AttrId>,
    ) -> ClosureNode {
        let mut node = self.clone();
        let newly: Vec<AttrId> = extra
            .into_iter()
            .filter(|&a| node.validated.insert(a))
            .collect();
        node.propagate(plan, fireable, newly, plan.input_schema().arity());
        node
    }

    fn propagate(
        &mut self,
        plan: &CompiledRules,
        fireable: &AttrSet,
        mut newly: Vec<AttrId>,
        arity: usize,
    ) {
        while let Some(a) = newly.pop() {
            if self.validated.len() == arity {
                // Complete: supersets are complete too, nothing to gain.
                return;
            }
            for &w in plan.watchers(a) {
                let w = w as usize;
                if self.consumed.contains(w)
                    || !fireable.contains(w)
                    || !plan.masks().evidence(w).is_subset(&self.validated)
                {
                    continue;
                }
                self.consumed.insert(w);
                for b in plan.masks().rhs(w) {
                    if self.validated.insert(b) {
                        newly.push(b);
                    }
                }
            }
        }
    }

    /// True iff the closure spans the whole input schema — for an
    /// unpoisoned truth, exactly "the fixpoint certifies".
    pub(crate) fn complete(&self, arity: usize) -> bool {
        self.validated.len() == arity
    }
}

/// Counters for the incremental data phase, merged into
/// [`RegionSearchStats`](crate::region::RegionSearchStats).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ProbeStats {
    pub(crate) closure_probes: usize,
    pub(crate) lattice_hits: usize,
    pub(crate) engine: EngineStats,
}

/// Run the real correcting process for one `(Z, truth)` pair and check
/// full, correct validation — the unit the from-scratch oracle and the
/// poisoned-truth fallback share, so the two paths cannot drift. The
/// input the user would present — `truth[Z]`, everything else null — is
/// written into `input`, a tuple over the plan's input schema that the
/// caller reuses from one probe to the next.
pub(crate) fn certify_truth_fixpoint<T: Cells + ?Sized>(
    plan: &CompiledRules,
    master: &MasterData,
    attrs: &AttrSet,
    truth: &T,
    input: &mut Tuple,
    engine: &mut EngineStats,
) -> bool {
    let arity = plan.input_schema().arity();
    for a in 0..arity {
        let seed = if attrs.contains(a) {
            truth.cell(a).clone()
        } else {
            Value::Null
        };
        input.set(a, seed).expect("attr in schema");
    }
    let mut validated = attrs.clone();
    match run_fixpoint_delta(plan, master, input, &mut validated) {
        Err(_) => {
            *engine += EngineStats {
                fixpoint_runs: 1,
                ..Default::default()
            };
            false // validated-cell conflict: inconsistent rules
        }
        Ok(report) => {
            *engine += report.stats;
            validated.len() == arity
                && (0..arity).all(|a| {
                    let fixed = input.get(a);
                    !fixed.is_null() && fixed == truth.cell(a)
                })
        }
    }
}

/// The per-context certification driver.
///
/// Unpoisoned truths are grouped into **profile classes**: truths with
/// the same fireable set have identical closure verdicts for every
/// candidate, so one class probe answers all of them (on master-derived
/// universes a context often collapses to a single class). Each class
/// memoizes the base snapshot (closure of the context's mandatory
/// attributes) plus a prefix stack of lattice nodes, so consecutive
/// candidates also reuse the longest shared `Z`-prefix. Poisoned truths
/// are certified individually by the real fixpoint.
pub(crate) struct ContextCertifier<'a, U: Universe + ?Sized> {
    plan: &'a CompiledRules,
    master: &'a MasterData,
    universe: &'a U,
    arity: usize,
    /// Distinct fireable sets of the unpoisoned in-scope truths.
    classes: Vec<AttrSet>,
    /// In-scope truths (universe indices) that need the fixpoint
    /// fallback.
    poisoned: Vec<usize>,
    /// Per class: the memoized closure of the mandatory set.
    bases: Vec<Option<ClosureNode>>,
    /// Per class: the prefix stack `[(attr, node)]` above the base,
    /// shared by candidates in cover order.
    stacks: Vec<Vec<(AttrId, ClosureNode)>>,
    mandatory: AttrSet,
    /// The poisoned-truth fixpoint's input tuple, made at the first one.
    input: Option<Tuple>,
    pub(crate) stats: ProbeStats,
}

impl<'a, U: Universe + ?Sized> ContextCertifier<'a, U> {
    pub(crate) fn new(
        plan: &'a CompiledRules,
        master: &'a MasterData,
        universe: &'a U,
        truths: &[usize],
        profiles: &'a TruthProfiles,
        mandatory: AttrSet,
    ) -> ContextCertifier<'a, U> {
        // Each class's fireable rules as the profiles hold them.
        let mut class_bits: Vec<&[u64]> = Vec::new();
        let mut classes: Vec<AttrSet> = Vec::new();
        let mut poisoned: Vec<usize> = Vec::new();
        for &idx in truths {
            let profile = profiles.get(idx);
            if profile.poisoned {
                poisoned.push(idx);
            } else if !class_bits.contains(&profile.fireable) {
                class_bits.push(profile.fireable);
                classes.push(profile.fireable());
            }
        }
        let n_classes = classes.len();
        ContextCertifier {
            plan,
            master,
            universe,
            arity: plan.input_schema().arity(),
            classes,
            poisoned,
            bases: vec![None; n_classes],
            stacks: vec![Vec::new(); n_classes],
            mandatory,
            input: None,
            stats: ProbeStats::default(),
        }
    }

    /// Probe one candidate `Z = mandatory ∪ cover` against every in-scope
    /// truth — one closure per profile class plus one fixpoint per
    /// poisoned truth — early-exiting at the first failure; true iff it
    /// certifies. `cover` must be sorted ascending (the lattice's
    /// sibling-prefix order).
    pub(crate) fn probe(&mut self, attrs: &AttrSet, cover: &[AttrId]) -> bool {
        for c in 0..self.classes.len() {
            if !self.probe_class(c, cover) {
                return false;
            }
        }
        for &idx in &self.poisoned {
            let input = self
                .input
                .get_or_insert_with(|| Tuple::all_null(self.plan.input_schema().clone()));
            if !certify_truth_fixpoint(
                self.plan,
                self.master,
                attrs,
                &self.universe.truth(idx),
                input,
                &mut self.stats.engine,
            ) {
                return false;
            }
        }
        true
    }

    /// Probe one profile class; true iff the candidate certifies for its
    /// truths.
    fn probe_class(&mut self, class: usize, cover: &[AttrId]) -> bool {
        let fireable = &self.classes[class];
        self.stats.closure_probes += 1;
        let base = self.bases[class]
            .get_or_insert_with(|| ClosureNode::root_of(self.plan, fireable, &self.mandatory));
        if base.complete(self.arity) {
            // The mandatory set alone certifies: every cover does too.
            self.stats.lattice_hits += 1;
            return true;
        }
        // Reuse the longest prefix of `cover` already on the stack.
        let stack = &mut self.stacks[class];
        let mut shared = 0;
        while shared < stack.len() && shared < cover.len() && stack[shared].0 == cover[shared] {
            shared += 1;
        }
        stack.truncate(shared);
        if shared > 0 {
            self.stats.lattice_hits += 1;
        }
        for &a in &cover[shared..] {
            let node = match stack.last() {
                Some((_, prev)) => prev.extend_with(self.plan, fireable, std::iter::once(a)),
                None => base.extend_with(self.plan, fireable, std::iter::once(a)),
            };
            stack.push((a, node));
        }
        match stack.last() {
            Some((_, node)) => node.complete(self.arity),
            None => base.complete(self.arity),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::{read, Counter};
    use crate::region::universe::{copied, MasterTruths};
    use cerfix_relation::{Relation, RelationBuilder, Schema, SchemaRef};
    use cerfix_rules::{EditingRule, PatternTuple, RuleSet};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The rule verdicts profiles built on this thread have decided so far.
    fn verdicts_decided() -> usize {
        read(Counter::VerdictsDecided) as usize
    }

    /// zip→{AC,city}, AC→str chain with one ambiguous zip (G12) and one
    /// row whose AC disagrees with the truth we probe (poison source).
    fn fixture() -> (SchemaRef, RuleSet, MasterData) {
        let input = Schema::of_strings("in", ["zip", "AC", "city", "str"]).unwrap();
        let ms = Schema::of_strings("m", ["zip", "AC", "city", "str"]).unwrap();
        let master = MasterData::new(
            RelationBuilder::new(ms.clone())
                .row_strs(["EH8", "131", "Edi", "Elm"])
                .row_strs(["SW1", "020", "Ldn", "Oak"])
                .row_strs(["G12", "0141", "Gla", "Clyde"])
                .row_strs(["G12", "0141", "Partick", "Clyde"]) // ambiguous city
                .build()
                .unwrap(),
        );
        let pair = |n: &str| (input.attr_id(n).unwrap(), ms.attr_id(n).unwrap());
        let mut rules = RuleSet::new(input.clone(), ms.clone());
        for (name, l, r) in [
            ("zip_ac", "zip", "AC"),
            ("zip_city", "zip", "city"),
            ("ac_str", "AC", "str"),
        ] {
            rules
                .add(
                    EditingRule::new(
                        name,
                        &input,
                        &ms,
                        vec![pair(l)],
                        vec![pair(r)],
                        PatternTuple::empty(),
                    )
                    .unwrap(),
                )
                .unwrap();
        }
        (input, rules, master)
    }

    #[test]
    fn profile_classifies_rules() {
        let (input, rules, master) = fixture();
        let plan = CompiledRules::compile(&rules, &master);
        let truth = Tuple::of_strings(input.clone(), ["EH8", "131", "Edi", "Elm"]).unwrap();
        let (fireable, poisoned) = profile(&plan, &master, &truth);
        assert!(!poisoned);
        assert!(fireable.contains(0) && fireable.contains(1) && fireable.contains(2));

        // G12's city is ambiguous: zip_city dead, the others fire.
        let g12 = Tuple::of_strings(input.clone(), ["G12", "0141", "Gla", "Clyde"]).unwrap();
        let (fireable, poisoned) = profile(&plan, &master, &g12);
        assert!(!poisoned);
        assert!(fireable.contains(0) && !fireable.contains(1) && fireable.contains(2));

        // A truth disagreeing with its own master row: zip_ac would fire
        // the master's 131 over the truth's 999 — poisoned.
        let wrong = Tuple::of_strings(input, ["EH8", "999", "Edi", "Elm"]).unwrap();
        assert!(profile(&plan, &master, &wrong).1);
    }

    #[test]
    fn closure_matches_fixpoint_on_unpoisoned_truths() {
        let (input, rules, master) = fixture();
        let plan = CompiledRules::compile(&rules, &master);
        let arity = input.arity();
        let truths = [
            Tuple::of_strings(input.clone(), ["EH8", "131", "Edi", "Elm"]).unwrap(),
            Tuple::of_strings(input.clone(), ["G12", "0141", "Gla", "Clyde"]).unwrap(),
            Tuple::of_strings(input.clone(), ["ZZ9", "999", "No", "Where"]).unwrap(),
        ];
        for truth in &truths {
            let (fireable, poisoned) = profile(&plan, &master, truth);
            assert!(!poisoned);
            for mask in 0u32..16 {
                let seed: AttrSet = (0..arity).filter(|a| mask & (1 << a) != 0).collect();
                let node = ClosureNode::root_of(&plan, &fireable, &seed);
                let mut engine = EngineStats::default();
                let mut form = Tuple::all_null(input.clone());
                let oracle =
                    certify_truth_fixpoint(&plan, &master, &seed, truth, &mut form, &mut engine);
                assert_eq!(
                    node.complete(arity),
                    oracle,
                    "truth {truth:?} seed {seed:?}"
                );
            }
        }
    }

    #[test]
    fn extend_equals_root_of_union() {
        let (input, rules, master) = fixture();
        let plan = CompiledRules::compile(&rules, &master);
        let truth = Tuple::of_strings(input.clone(), ["EH8", "131", "Edi", "Elm"]).unwrap();
        let (fireable, _) = profile(&plan, &master, &truth);
        let zip = input.attr_id("zip").unwrap();
        let strr = input.attr_id("str").unwrap();
        let base = ClosureNode::root_of(&plan, &fireable, &[strr].into());
        let extended = base.extend_with(&plan, &fireable, std::iter::once(zip));
        let scratch = ClosureNode::root_of(&plan, &fireable, &[strr, zip].into());
        assert_eq!(extended.validated, scratch.validated);
        assert!(extended.complete(input.arity()));
    }

    /// One truth profiled alone, by hashed lookups: its fireable rules
    /// and whether it is poisoned.
    fn profile(plan: &CompiledRules, master: &MasterData, truth: &Tuple) -> (AttrSet, bool) {
        let mut fireable = vec![0; rule_words(plan)];
        let mut scratch = ProfileScratch::default();
        let rules = 0..plan.len();
        let poisoned = TruthProfile::build(plan, master, truth, rules, &mut scratch, &mut fireable);
        (rule_positions(&fireable).collect(), poisoned)
    }

    /// Every truth of `universe` profiled in row order on one scratch, as
    /// one run of `build_profiles` profiles its truths, with the rule
    /// verdicts the profiles decided.
    fn profile_all<U: Universe + ?Sized>(
        plan: &CompiledRules,
        master: &MasterData,
        universe: &U,
    ) -> (TruthProfiles, ProfileScratch, usize) {
        let first = (universe.len() > 0).then(|| universe.master_row(0));
        let own = first.flatten().and_then(|at| OwnKeys::of(plan, master, at));
        let mut profiles = TruthProfiles::new(plan, universe.len());
        let mut scratch = ProfileScratch::default();
        let before = verdicts_decided();
        let every: Vec<usize> = (0..universe.len()).collect();
        for mut run in profiles.split(std::iter::once(universe.len())) {
            run.profile(plan, master, universe, &every, own.as_ref(), &mut scratch);
        }
        (profiles, scratch, verdicts_decided() - before)
    }

    /// Every truth of `master` read in place, profiled by row — from its
    /// postings' verdicts wherever a rule reads the truth's own key — and
    /// copied into tuples, profiled by hashed probes alone: the same
    /// fireable rules and the same poisoned flag. Returns the index
    /// probes made each way.
    fn row_read_equals_probed(name: &str, rules: &RuleSet, master: &MasterData) -> (usize, usize) {
        let plan = CompiledRules::compile(rules, master);
        let truths = MasterTruths::new(rules.input_schema(), master);
        let copy = copied(&truths, rules.input_schema());
        let (by_row, by_row_scratch, _) = profile_all(&plan, master, &truths);
        let (probed, probed_scratch, _) = profile_all(&plan, master, &copy[..]);
        for idx in 0..truths.len() {
            let (a, b) = (by_row.get(idx), probed.get(idx));
            assert_eq!(
                (a.fireable(), a.poisoned),
                (b.fireable(), b.poisoned),
                "{name}: truth {idx}"
            );
        }
        (by_row_scratch.probes, probed_scratch.probes)
    }

    /// A master over `a0..a5` with null cells and four values a column,
    /// so keys are shared — by rows that agree and rows that do not —
    /// and rules over an input schema holding those names shuffled, or
    /// five of them and one of its own, which no master column maps to.
    /// A rule's pairs join by name three times in four and across names
    /// otherwise, on either side; patterns gate on input attributes.
    fn random_instance(seed: u64) -> (RuleSet, MasterData) {
        let mut rng = StdRng::seed_from_u64(seed);
        let master_names: Vec<String> = (0..6).map(|i| format!("a{i}")).collect();
        let mut input_names = master_names.clone();
        if rng.gen_bool(0.5) {
            input_names[0] = "x0".to_string();
        }
        for i in (1..input_names.len()).rev() {
            input_names.swap(i, rng.gen_range(0..=i));
        }
        let input = Schema::of_strings("in", input_names.iter().map(String::as_str)).unwrap();
        let ms = Schema::of_strings("m", master_names.iter().map(String::as_str)).unwrap();
        let cell = |rng: &mut StdRng| {
            if rng.gen_bool(0.15) {
                Value::Null
            } else {
                Value::str(format!("v{}", rng.gen_range(0..4u8)))
            }
        };
        let mut relation = Relation::empty(ms.clone());
        for _ in 0..rng.gen_range(4..40usize) {
            let values: Vec<Value> = (0..6).map(|_| cell(&mut rng)).collect();
            relation
                .push(Tuple::new(ms.clone(), values).unwrap())
                .unwrap();
        }
        let mut rules = RuleSet::new(input.clone(), ms.clone());
        for r in 0..rng.gen_range(1..7usize) {
            let mut attrs: Vec<usize> = (0..6).collect();
            for i in (1..attrs.len()).rev() {
                attrs.swap(i, rng.gen_range(0..=i));
            }
            let pair = |rng: &mut StdRng, a: usize| match ms.attr_id(input.attr_name(a)) {
                Some(m) if rng.gen_bool(0.75) => (a, m),
                _ => (a, rng.gen_range(0..6)),
            };
            let lhs_n = rng.gen_range(1..3usize);
            let lhs: Vec<(usize, usize)> =
                attrs[..lhs_n].iter().map(|&a| pair(&mut rng, a)).collect();
            let rhs = vec![pair(&mut rng, attrs[lhs_n])];
            let mut pattern = PatternTuple::empty();
            if rng.gen_bool(0.3) {
                let value = Value::str(format!("v{}", rng.gen_range(0..4u8)));
                pattern = if rng.gen_bool(0.5) {
                    pattern.with_eq(attrs[5], value)
                } else {
                    pattern.with_ne(attrs[5], value)
                };
            }
            let rule = EditingRule::new(format!("r{r}"), &input, &ms, lhs, rhs, pattern).unwrap();
            rules.add(rule).unwrap();
        }
        (rules, MasterData::new(relation))
    }

    #[test]
    fn a_profile_read_by_row_is_the_probed_profile() {
        let mut rng = StdRng::seed_from_u64(37);
        let hosp = cerfix_gen::hosp::generate_master(2_000, &mut rng);
        let hosp = MasterData::new(hosp);
        let (by_row, probed) = row_read_equals_probed("hosp", &cerfix_gen::hosp::rules(), &hosp);
        assert_eq!((by_row, probed), (0, 3 * 2_000), "HOSP joins by name only");

        let uk = MasterData::new(cerfix_gen::uk::generate_master(2_000, &mut rng));
        let (by_row, probed) = row_read_equals_probed("uk", &cerfix_gen::uk::rules(), &uk);
        assert!(
            by_row < probed,
            "UK joins some keys by name: {by_row} < {probed}"
        );

        // key → value with shared keys, some of whose values disagree.
        let input = Schema::of_strings("in", ["key", "val", "note"]).unwrap();
        let ms = Schema::of_strings("m", ["key", "val"]).unwrap();
        let mut builder = RelationBuilder::new(ms.clone());
        for i in 0..80 {
            builder = builder.row_strs([format!("k{}", i % 70), format!("v{}", i % 75)]);
        }
        let kv = MasterData::new(builder.build().unwrap());
        let mut rules = RuleSet::new(input.clone(), ms.clone());
        let rule = EditingRule::new(
            "kv",
            &input,
            &ms,
            vec![(0, 0)],
            vec![(1, 1)],
            PatternTuple::empty(),
        );
        rules.add(rule.unwrap()).unwrap();
        assert_eq!(row_read_equals_probed("kv", &rules, &kv), (0, 80));

        // Unindexed, every lookup scans: the second arm has no posting.
        let unindexed = MasterData::new_unindexed(kv.relation().clone());
        assert_eq!(
            row_read_equals_probed("kv unindexed", &rules, &unindexed),
            (0, 0)
        );

        // One key group of four rules, decided per posting: one with no
        // pattern, one with a pattern, one whose `Bm` is null in the first
        // row of some postings, and one whose RHS crosses names, so its
        // witness is compared with the truth.
        let (rules, mixed) = mixed_group();
        assert_eq!(row_read_equals_probed("mixed", &rules, &mixed), (0, 80));
        let plan = CompiledRules::compile(&rules, &mixed);
        let truths = MasterTruths::new(rules.input_schema(), &mixed);
        let (profiles, _, verdicts) = profile_all(&plan, &mixed, &truths);
        assert_eq!(verdicts, 4 * 30, "30 keys × 4 rules");
        let fired = |rule: usize| {
            (0..truths.len())
                .filter(|&idx| profiles.get(idx).fireable().contains(rule))
                .count()
        };
        // The 27 rows of keys 0, 3, 6, … disagree on `val`; the pattern
        // admits the 43 rows whose `val` is not v1; the 42 rows of keys 0,
        // 1, 4, 5, 8, 9, … have a null `opt` in their first row; of the 53
        // rows whose `val` agrees, the 11 of keys 1, 10, 11 and 20 carry
        // it as their `tag` too, and the other 42 are poisoned.
        let poisoned = (0..truths.len()).filter(|&idx| profiles.get(idx).poisoned);
        assert_eq!(
            (fired(0), fired(1), fired(2), fired(3), poisoned.count()),
            (53, 43, 38, 11, 42)
        );

        for seed in 0..400 {
            let (rules, master) = random_instance(seed);
            row_read_equals_probed(&format!("random {seed}"), &rules, &master);
        }
    }

    /// A master of 80 rows over 30 keys, each key's rows agreeing on
    /// `tag`, on `val` but where the key is a multiple of 3, and on `opt`,
    /// which is null where the key is a multiple of 4, but where the key
    /// is one more, whose first row alone has a null `opt`; and one key
    /// group of four rules joining `key` by name: `key → val` with no
    /// pattern, `key → tag` where `val ≠ v1`, `key → opt`, and one fixing
    /// input `tag` from master `val`.
    fn mixed_group() -> (RuleSet, MasterData) {
        let input = Schema::of_strings("in", ["key", "val", "tag", "opt", "note"]).unwrap();
        let ms = Schema::of_strings("m", ["key", "val", "tag", "opt"]).unwrap();
        let mut relation = Relation::empty(ms.clone());
        for i in 0..80 {
            let k = i % 30;
            let val = if k % 3 == 0 { i / 30 % 2 } else { k % 2 };
            let opt = if k % 4 == 0 || (k % 4 == 1 && i < 30) {
                Value::Null
            } else {
                Value::str(format!("o{k}"))
            };
            let values = vec![
                Value::str(format!("k{k}")),
                Value::str(format!("v{val}")),
                Value::str(format!("v{}", k % 5)),
                opt,
            ];
            relation
                .push(Tuple::new(ms.clone(), values).unwrap())
                .unwrap();
        }
        let mut rules = RuleSet::new(input.clone(), ms.clone());
        let by_name = |n: &str| (input.attr_id(n).unwrap(), ms.attr_id(n).unwrap());
        let not_v1 = PatternTuple::empty().with_ne(1, Value::str("v1"));
        for (name, rhs, pattern) in [
            ("plain", "val", PatternTuple::empty()),
            ("gated", "tag", not_v1),
            ("nulls", "opt", PatternTuple::empty()),
        ] {
            let rule = EditingRule::new(
                name,
                &input,
                &ms,
                vec![by_name("key")],
                vec![by_name(rhs)],
                pattern,
            );
            rules.add(rule.unwrap()).unwrap();
        }
        let (key, tag, val) = (by_name("key"), by_name("tag"), by_name("val"));
        let crossed = EditingRule::new(
            "crossed",
            &input,
            &ms,
            vec![key],
            vec![(tag.0, val.1)],
            PatternTuple::empty(),
        );
        rules.add(crossed.unwrap()).unwrap();
        (rules, MasterData::new(relation))
    }

    /// Profiling the 20 000 HOSP master rows read in place hashes no
    /// truth key and projects none: all eight rules join by name. The same
    /// truths copied into tuples probe each of the three key groups once.
    #[test]
    fn hosp_master_rows_are_profiled_without_hashing_a_key() {
        let mut rng = StdRng::seed_from_u64(37);
        let rules = cerfix_gen::hosp::rules();
        let master = MasterData::new(cerfix_gen::hosp::generate_master(20_000, &mut rng));
        let plan = CompiledRules::compile(&rules, &master);
        let truths = MasterTruths::new(rules.input_schema(), &master);
        let (_, scratch, verdicts) = profile_all(&plan, &master, &truths);
        assert_eq!(scratch.probes, 0, "hashed index probes");
        assert_eq!(scratch.key_buf.capacity(), 0, "a key was projected");
        // Per key group, its keys times its rules: 5 000 providers × 4,
        // 5 000 zips × 2 and 9 measures × 2.
        assert_eq!(verdicts, 30_018, "rule verdicts decided");

        let copy = copied(&truths, rules.input_schema());
        let (_, scratch, verdicts) = profile_all(&plan, &master, &copy[..]);
        assert_eq!(scratch.probes, 3 * 20_000, "hashed index probes");
        assert_eq!(verdicts, 8 * 20_000, "a lookup per truth and rule");
    }

    /// A one-thread search over the 20 000 HOSP master rows decides the
    /// same 30 018 verdicts: every row is in scope, and one run profiles
    /// them all.
    #[test]
    fn a_hosp_search_decides_each_rule_once_per_key() {
        let mut rng = StdRng::seed_from_u64(37);
        let rules = cerfix_gen::hosp::rules();
        let master = MasterData::new(cerfix_gen::hosp::generate_master(20_000, &mut rng));
        let truths = MasterTruths::new(rules.input_schema(), &master);
        let options = crate::region::RegionFinderOptions {
            threads: 1,
            ..Default::default()
        };
        let before = verdicts_decided();
        let search = crate::region::search_regions(&rules, &master, &truths, &options);
        assert_eq!(search.result.stats.truth_profiles, 20_000);
        assert_eq!(verdicts_decided() - before, 30_018);
    }
}
