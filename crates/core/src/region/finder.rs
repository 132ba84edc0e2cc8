//! The region finder: compute top-k certain regions (paper §2).
//!
//! *"Based on the algorithms in [7], top-k certain regions are
//! pre-computed that are ranked ascendingly by the number of attributes,
//! and are recommended to users as (initial) suggestions."*
//!
//! Finding minimal certain regions is intractable in general ([7]); for
//! the demo's pattern language the search decomposes cleanly:
//!
//! 1. **Context enumeration.** The attributes constrained by any rule
//!    pattern (`type` and `AC` in the UK scenario) partition the input
//!    space. Each *context* picks, per gate attribute, either one of the
//!    constants appearing in patterns or the "anything else" choice. A
//!    rule can be counted on within a context iff the context *entails*
//!    its pattern (every tuple in the context satisfies it).
//! 2. **Static phase.** Within a context, attributes unfixable by the
//!    entailed rules are mandatory; [`RuleMasks::minimal_covers`]
//!    enumerates the minimal extra evidence sets whose closure spans the
//!    schema — the monitor's inference system, under the context's
//!    entailment mask instead of a session's live-rule mask.
//! 3. **Data phase.** Each candidate `(Z, context)` is certified against
//!    the truth universe ([`certify_region`]): the closure can overshoot
//!    when master keys are missing or ambiguous.
//!
//! The universe is any [`Universe`]: the server, `cerfix regions` and
//! every master append search [`MasterTruths`] — truth `i` is master row
//! `i` read in place through the input → master attribute map, so a
//! search copies no row — and generator- and test-built truths are a
//! slice of tuples. Every step reads a truth through
//! [`Cells`](cerfix_relation::Cells), and a truth that is a master row
//! read in place ([`Universe::master_row`]) is profiled from the
//! postings its row is filed under wherever a rule joins by name — each
//! rule decided once per posting, not once per truth; the data phase is
//! monomorphised per universe.
//!
//! Certified candidates with the same `Z` merge their contexts into one
//! tableau; regions are ranked ascending by `|Z|` and cut to `top_k`.
//!
//! The data phase is **incremental and parallel** (see
//! [`lattice`](crate::region::lattice)): per in-scope truth a
//! [`TruthProfile`] classifies every rule once — profiled in row order,
//! stored as one word of rule bits per truth — after which each
//! candidate's certification is a memoized bitset closure; candidates
//! fan out across worker threads ([`ordered_map`]) with a deterministic
//! in-order merge. [`find_regions_from_scratch`] keeps the pre-lattice
//! `universe × candidates` fixpoint loop as the equivalence oracle. A
//! master-data append searches the grown master again: nothing of a
//! prior search is carried over.
//!
//! [`TruthProfile`]: crate::region::lattice::TruthProfile
//! [`ordered_map`]: crate::exec::ordered_map
//! [`MasterTruths`]: crate::region::MasterTruths

use crate::engine::{CompiledRules, RuleMasks};
use crate::exec::ordered_map;
use crate::master::MasterData;
use crate::region::certify::certify_region;
use crate::region::lattice::{ContextCertifier, OwnKeys, ProfileScratch, TruthProfiles};
use crate::region::tableau::Region;
use crate::region::universe::Universe;
use cerfix_relation::{AttrId, AttrSet, Tuple, Value};
use cerfix_rules::{EditingRule, PatternOp, PatternTuple, RuleSet};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

/// Configuration for the region search.
#[derive(Debug, Clone)]
pub struct RegionFinderOptions {
    /// Number of regions to return (the paper's "top-k").
    pub top_k: usize,
    /// Maximum extra evidence attributes per cover (search depth bound).
    pub max_cover_size: usize,
    /// Maximum minimal covers enumerated per context.
    pub max_covers_per_context: usize,
    /// Require certification to be non-vacuous (at least one truth tuple
    /// in scope). Vacuous contexts produce no region.
    pub require_nonvacuous: bool,
    /// Worker threads for the data phase (`0` = one per available core).
    /// Results are identical at any thread count — candidates fan out
    /// with an order-stable merge.
    pub threads: usize,
}

impl Default for RegionFinderOptions {
    fn default() -> Self {
        RegionFinderOptions {
            top_k: 8,
            max_cover_size: 6,
            max_covers_per_context: 16,
            require_nonvacuous: true,
            threads: 0,
        }
    }
}

fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism().map_or(1, usize::from)
    } else {
        threads
    }
}

/// One pattern context: a total choice over the gate attributes.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Context {
    pattern: PatternTuple,
}

impl Context {
    /// Does this context entail `op` on `attr` (i.e. every tuple matching
    /// the context satisfies the cell)?
    fn entails(&self, attr: AttrId, op: &PatternOp) -> bool {
        // Find this context's constraint on the attribute.
        let own = self
            .pattern
            .cells()
            .iter()
            .find(|c| c.attr == attr)
            .map(|c| &c.op);
        match (own, op) {
            (_, PatternOp::Any) => true,
            (Some(PatternOp::Eq(c)), PatternOp::Eq(c2)) => c == c2,
            (Some(PatternOp::Eq(c)), PatternOp::Ne(set)) => !set.contains(c),
            (Some(PatternOp::Ne(excluded)), PatternOp::Ne(set)) => {
                set.iter().all(|v| excluded.contains(v))
            }
            // Unconstrained or Ne-context cannot entail an equality.
            _ => false,
        }
    }

    /// True iff every cell of `rule`'s pattern is entailed.
    fn entails_rule(&self, rule: &EditingRule) -> bool {
        rule.pattern()
            .cells()
            .iter()
            .all(|c| self.entails(c.attr, &c.op))
    }
}

/// Enumerate contexts from the rule patterns: per gate attribute, each
/// equality constant seen in any pattern plus the "else" choice excluding
/// all seen constants.
fn enumerate_contexts(rules: &RuleSet) -> Vec<Context> {
    // Gate attr → constants mentioned in any pattern cell on it.
    let mut gates: BTreeMap<AttrId, BTreeSet<Value>> = BTreeMap::new();
    for (_, rule) in rules.iter() {
        for cell in rule.pattern().cells() {
            let entry = gates.entry(cell.attr).or_default();
            match &cell.op {
                PatternOp::Any => {}
                PatternOp::Eq(v) => {
                    entry.insert(v.clone());
                }
                PatternOp::Ne(vs) => {
                    entry.extend(vs.iter().cloned());
                }
            }
        }
    }
    let mut contexts = vec![Context {
        pattern: PatternTuple::empty(),
    }];
    for (attr, constants) in &gates {
        let mut expanded = Vec::with_capacity(contexts.len() * (constants.len() + 1));
        for ctx in &contexts {
            for c in constants {
                let p = PatternTuple::new(
                    ctx.pattern
                        .cells()
                        .iter()
                        .cloned()
                        .chain(std::iter::once(cerfix_rules::PatternCell {
                            attr: *attr,
                            op: PatternOp::Eq(c.clone()),
                        }))
                        .collect::<Vec<_>>(),
                );
                expanded.push(Context { pattern: p });
            }
            // The "anything else" choice.
            let p = PatternTuple::new(
                ctx.pattern
                    .cells()
                    .iter()
                    .cloned()
                    .chain(std::iter::once(cerfix_rules::PatternCell {
                        attr: *attr,
                        op: PatternOp::Ne(constants.iter().cloned().collect()),
                    }))
                    .collect::<Vec<_>>(),
            );
            expanded.push(Context { pattern: p });
        }
        contexts = expanded;
    }
    contexts
}

/// Diagnostics from a region search.
#[derive(Debug, Clone, Default)]
pub struct RegionSearchStats {
    /// Pattern contexts enumerated.
    pub contexts: usize,
    /// `(Z, context)` candidates produced by the static phase.
    pub candidates: usize,
    /// Truths in the universe searched.
    pub truths: usize,
    /// Candidates certified with at least one truth in scope — the ones
    /// that became regions (with `require_nonvacuous`; every certified
    /// candidate without it).
    pub certified: usize,
    /// Candidates rejected by data certification.
    pub rejected_by_certification: usize,
    /// Candidates rejected as vacuous (no truth tuple in scope).
    pub vacuous: usize,
    /// Per-truth rule profiles built (each is one certain-lookup per
    /// rule; the memoized currency of the incremental data phase).
    pub truth_profiles: usize,
    /// `(candidate, truth)` lattice closure evaluations — probes answered
    /// without running a fixpoint.
    pub closure_probes: usize,
    /// Closure probes that reused a memoized prefix snapshot (the base
    /// node or a shared sibling prefix) instead of closing from scratch.
    pub lattice_hits: usize,
    /// Full correcting-process fixpoints executed (`engine.fixpoint_runs`)
    /// and their work — the poisoned-truth fallback on the incremental
    /// path, every probe on the from-scratch oracle.
    pub engine: crate::engine::EngineStats,
}

/// Result of [`find_regions`]: ranked regions plus search diagnostics.
#[derive(Debug, Clone, Default)]
pub struct RegionSearchResult {
    /// Certified regions, ranked ascending by size, at most `top_k`.
    pub regions: Vec<Region>,
    /// Search statistics.
    pub stats: RegionSearchStats,
}

/// One pattern context of a search.
#[derive(Debug)]
struct ContextRecord {
    pattern: PatternTuple,
    mandatory: AttrSet,
    /// In-scope universe indices (populated only for contexts that
    /// produced candidates).
    truths: Vec<usize>,
}

/// One `(Z, context)` candidate with its certification verdict.
#[derive(Debug)]
struct CandidateRecord {
    context: usize,
    attrs: AttrSet,
    /// Extra evidence beyond the mandatory set, sorted ascending (the
    /// lattice's sibling-prefix order).
    cover: Vec<AttrId>,
    certified: bool,
}

/// A region search whose untruncated ranking is retained, so any
/// `top_k` can be answered without re-searching.
#[derive(Debug)]
pub struct RegionSearch {
    /// The ranked, truncated result (what [`find_regions`] returns).
    pub result: RegionSearchResult,
    /// Every certified region, ranked, *untruncated* — any `top_k` view
    /// is a prefix of this.
    ranked: Vec<Region>,
    master_generation: u64,
}

impl RegionSearch {
    /// Every certified region, ranked ascending by size, untruncated.
    pub fn ranked(&self) -> &[Region] {
        &self.ranked
    }

    /// The first `k` ranked regions.
    pub fn top(&self, k: usize) -> Vec<Region> {
        self.ranked.iter().take(k).cloned().collect()
    }

    /// The master generation this search was certified against.
    pub fn master_generation(&self) -> u64 {
        self.master_generation
    }
}

/// The static phase, shared by the search and the oracle: enumerate
/// contexts, their mandatory sets, and the minimal-cover candidates.
fn static_phase(
    rules: &RuleSet,
    options: &RegionFinderOptions,
) -> (Vec<ContextRecord>, Vec<CandidateRecord>) {
    let masks = RuleMasks::of(rules);
    let contexts = enumerate_contexts(rules);
    let mut records = Vec::with_capacity(contexts.len());
    let mut candidates = Vec::new();
    for (ci, ctx) in contexts.iter().enumerate() {
        // Rule positions the context entails.
        let enabled: AttrSet = rules
            .iter()
            .enumerate()
            .filter(|(_, (_, rule))| ctx.entails_rule(rule))
            .map(|(pos, _)| pos)
            .collect();
        let mandatory = masks.unfixable(&enabled);
        let mut useful = masks.useful_evidence(&enabled);
        useful.subtract(&mandatory);
        let useful: Vec<AttrId> = useful.iter().collect();
        let covers = masks.minimal_covers(
            &enabled,
            &mandatory,
            &useful,
            options.max_cover_size,
            options.max_covers_per_context,
        );
        for cover in covers {
            let mut attrs = mandatory.clone();
            attrs.union_with(&cover);
            candidates.push(CandidateRecord {
                context: ci,
                attrs,
                cover: cover.iter().collect(), // ascending
                certified: false,
            });
        }
        records.push(ContextRecord {
            pattern: ctx.pattern.clone(),
            mandatory,
            truths: Vec::new(),
        });
    }
    (records, candidates)
}

/// Merge candidate verdicts into ranked regions (identical to the
/// original sequential loop: candidates in static-phase order, regions
/// ranked ascending by `(size, attrs)`). Returns the untruncated ranking
/// and fills the verdict counters of `stats`.
fn build_regions(
    contexts: &[ContextRecord],
    candidates: &[CandidateRecord],
    options: &RegionFinderOptions,
    stats: &mut RegionSearchStats,
) -> Vec<Region> {
    let mut by_attrs: BTreeMap<Vec<AttrId>, Region> = BTreeMap::new();
    for cand in candidates {
        if !cand.certified {
            stats.rejected_by_certification += 1;
            continue;
        }
        if options.require_nonvacuous && contexts[cand.context].truths.is_empty() {
            stats.vacuous += 1;
            continue;
        }
        stats.certified += 1;
        let key: Vec<AttrId> = cand.attrs.iter().collect();
        by_attrs
            .entry(key.clone())
            .or_insert_with(|| Region::new(key, Vec::new()))
            .add_pattern(contexts[cand.context].pattern.clone());
    }
    let mut regions: Vec<Region> = by_attrs.into_values().collect();
    regions.sort_by(|a, b| {
        a.size()
            .cmp(&b.size())
            .then_with(|| a.attrs().cmp(b.attrs()))
    });
    regions
}

/// Split candidates into contiguous chunks that never cross a context
/// boundary: each chunk is certified sequentially by one worker with a
/// shared prefix lattice; chunks fan out across threads.
fn chunk_candidates(candidates: &[CandidateRecord], threads: usize) -> Vec<Range<usize>> {
    let total = candidates.len();
    let mut chunks = Vec::new();
    if total == 0 {
        return chunks;
    }
    // One chunk per context when sequential (maximal prefix sharing);
    // otherwise bound chunk size so every worker gets work.
    let target = if threads <= 1 {
        total
    } else {
        total.div_ceil(threads * 3)
    };
    let mut start = 0;
    while start < total {
        let ctx = candidates[start].context;
        let mut end = start + 1;
        while end < total && candidates[end].context == ctx && end - start < target {
            end += 1;
        }
        chunks.push(start..end);
        start = end;
    }
    chunks
}

/// Profile the `needed` universe indices, ascending, into `profiles`,
/// fanned across the worker threads. `needed` is cut into one run per
/// thread; each run writes the profiles of its own span of truths in
/// place and profiles its truths on one [`ProfileScratch`], so the
/// allocations here do not grow with the number of truths. Truths that
/// are master rows read in place ([`Universe::master_row`]) are profiled
/// through one `OwnKeys`, made from the first of them: a key group
/// reading a truth's own key hashes no key and decides each of its rules
/// once per posting a run meets, not once per truth. The walk in row
/// order meets most postings at their first row, the row just read.
fn build_profiles<U: Universe + ?Sized>(
    plan: &CompiledRules,
    master: &MasterData,
    universe: &U,
    needed: &[usize],
    threads: usize,
    profiles: &mut TruthProfiles,
) {
    debug_assert!(needed.is_sorted(), "needed truths in row order");
    let own = needed
        .first()
        .and_then(|&idx| OwnKeys::of(plan, master, universe.master_row(idx)?));
    let run_len = needed.len().div_ceil(threads.max(1)).max(1);
    let runs = needed.chunks(run_len);
    let ends = runs.clone().map(|run| run[run.len() - 1] + 1);
    let work: Vec<_> = runs.zip(profiles.split(ends)).collect();
    ordered_map::<_, _, std::convert::Infallible, _>(threads, work, |_, (run, mut out)| {
        let mut scratch = ProfileScratch::default();
        out.profile(plan, master, universe, run, own.as_ref(), &mut scratch);
        Ok(())
    })
    .expect("profile building is infallible");
}

/// Compute top-k certain regions for `rules` against `master`, certified
/// over the `universe` of possible ground-truth input tuples.
///
/// Thin wrapper over [`search_regions`] for callers that only need the
/// ranked result; long-lived services keep the [`RegionSearch`] so any
/// `top_k` is served from one search.
pub fn find_regions<U: Universe + ?Sized>(
    rules: &RuleSet,
    master: &MasterData,
    universe: &U,
    options: &RegionFinderOptions,
) -> RegionSearchResult {
    search_regions(rules, master, universe, options).result
}

/// The incremental, parallel region search (see module docs): memoized
/// per-truth rule profiles + lattice closures replace per-candidate
/// fixpoints, candidates fan out across `options.threads` workers, and
/// the returned [`RegionSearch`] retains the untruncated ranking.
pub fn search_regions<U: Universe + ?Sized>(
    rules: &RuleSet,
    master: &MasterData,
    universe: &U,
    options: &RegionFinderOptions,
) -> RegionSearch {
    let mut stats = RegionSearchStats {
        truths: universe.len(),
        ..Default::default()
    };
    let plan = CompiledRules::compile(rules, master);
    let (mut contexts, mut candidates) = static_phase(rules, options);
    stats.contexts = contexts.len();
    stats.candidates = candidates.len();

    // In-scope truths, once per candidate-bearing context (the old loop
    // re-matched the pattern per candidate × truth).
    let mut has_candidates = vec![false; contexts.len()];
    for cand in &candidates {
        has_candidates[cand.context] = true;
    }
    for idx in 0..universe.len() {
        let truth = universe.truth(idx);
        for (ci, record) in contexts.iter_mut().enumerate() {
            if has_candidates[ci] && record.pattern.matches(&truth) {
                record.truths.push(idx);
            }
        }
    }

    let threads = resolve_threads(options.threads);

    // Profile every in-scope truth, in row order (contexts partition the
    // universe, but dedup defensively — overlapping patterns cost nothing
    // extra).
    let mut in_scope = vec![false; universe.len()];
    let mut scoped = 0;
    for record in &contexts {
        for &idx in &record.truths {
            scoped += usize::from(!std::mem::replace(&mut in_scope[idx], true));
        }
    }
    let mut needed = Vec::with_capacity(scoped);
    needed.extend((0..universe.len()).filter(|&idx| in_scope[idx]));
    let mut profiles = TruthProfiles::new(&plan, universe.len());
    build_profiles(&plan, master, universe, &needed, threads, &mut profiles);
    stats.truth_profiles = needed.len();

    // Data phase: chunks of sibling candidates, certified in parallel,
    // merged in input order (deterministic at any thread count).
    let chunks = chunk_candidates(&candidates, threads);
    let outcomes = ordered_map::<_, _, std::convert::Infallible, _>(
        threads,
        chunks.clone(),
        |_, range: Range<usize>| {
            let record = &contexts[candidates[range.start].context];
            let mut certifier = ContextCertifier::new(
                &plan,
                master,
                universe,
                &record.truths,
                &profiles,
                record.mandatory.clone(),
            );
            // Probe in cover-lexicographic order for maximal prefix
            // sharing, but report outcomes in candidate order.
            let mut order: Vec<usize> = range.clone().collect();
            order.sort_by(|&a, &b| candidates[a].cover.cmp(&candidates[b].cover));
            let mut certified = vec![false; range.len()];
            for i in order {
                let cand = &candidates[i];
                certified[i - range.start] = certifier.probe(&cand.attrs, &cand.cover);
            }
            Ok((certified, certifier.stats))
        },
    )
    .expect("certification is infallible");

    for (range, (chunk_outcomes, probe_stats)) in chunks.into_iter().zip(outcomes) {
        stats.closure_probes += probe_stats.closure_probes;
        stats.lattice_hits += probe_stats.lattice_hits;
        stats.engine += probe_stats.engine;
        for (i, certified) in range.zip(chunk_outcomes) {
            candidates[i].certified = certified;
        }
    }

    let ranked = build_regions(&contexts, &candidates, options, &mut stats);
    let mut regions = ranked.clone();
    regions.truncate(options.top_k);
    RegionSearch {
        result: RegionSearchResult { regions, stats },
        ranked,
        master_generation: master.generation(),
    }
}

/// The search after a master append, kept by name for the ledger's
/// `region.recheck_*` probe only: it is [`search_regions`] over the
/// grown master's `universe`, and reads nothing of `prior`. It goes when
/// that probe does; nothing else calls it.
pub fn recheck_regions<U: Universe + ?Sized>(
    rules: &RuleSet,
    master: &MasterData,
    universe: &U,
    _prior: &RegionSearch,
    options: &RegionFinderOptions,
) -> RegionSearch {
    search_regions(rules, master, universe, options)
}

/// The pre-lattice data phase: one full diagnostic [`certify_region`]
/// (universe × candidates fixpoints) per candidate, single-threaded.
/// Kept as the equivalence **oracle** — property tests
/// (`tests/region_incremental.rs`) assert it produces exactly the same
/// regions as [`search_regions`] on every input.
pub fn find_regions_from_scratch(
    rules: &RuleSet,
    master: &MasterData,
    universe: &[Tuple],
    options: &RegionFinderOptions,
) -> RegionSearchResult {
    let (contexts, candidates) = static_phase(rules, options);
    let mut stats = RegionSearchStats {
        contexts: contexts.len(),
        candidates: candidates.len(),
        truths: universe.len(),
        ..Default::default()
    };
    // One compiled plan serves every certification probe of the data
    // phase (universe × candidates fixpoints) — the search's hot loop.
    let plan = CompiledRules::compile(rules, master);

    // Z (sorted attrs) → region under construction.
    let mut by_attrs: BTreeMap<Vec<AttrId>, Region> = BTreeMap::new();

    for cand in &candidates {
        let pattern = &contexts[cand.context].pattern;
        let result = certify_region(&plan, master, &cand.attrs, pattern, universe);
        stats.engine += result.engine;
        if !result.certified {
            stats.rejected_by_certification += 1;
            continue;
        }
        if options.require_nonvacuous && result.checked == 0 {
            stats.vacuous += 1;
            continue;
        }
        stats.certified += 1;
        let key: Vec<AttrId> = cand.attrs.iter().collect();
        by_attrs
            .entry(key.clone())
            .or_insert_with(|| Region::new(key, Vec::new()))
            .add_pattern(pattern.clone());
    }

    // Drop regions dominated by a certified subset region whose tableau
    // covers at least the same contexts, then rank ascending by size.
    let mut regions: Vec<Region> = by_attrs.into_values().collect();
    regions.sort_by(|a, b| {
        a.size()
            .cmp(&b.size())
            .then_with(|| a.attrs().cmp(b.attrs()))
    });
    regions.truncate(options.top_k);
    RegionSearchResult { regions, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cerfix_relation::{RelationBuilder, Schema, SchemaRef};

    /// The full UK scenario of the paper: 9 rules φ1–φ9, master data with
    /// the two figures' tuples plus extras, and a truth universe derived
    /// from the master rows.
    fn uk_fixture() -> (SchemaRef, RuleSet, MasterData, Vec<Tuple>) {
        let input = Schema::of_strings(
            "customer",
            [
                "FN", "LN", "AC", "phn", "type", "str", "city", "zip", "item",
            ],
        )
        .unwrap();
        let ms = Schema::of_strings(
            "master",
            [
                "FN", "LN", "AC", "Hphn", "Mphn", "str", "city", "zip", "DoB", "gender",
            ],
        )
        .unwrap();
        let master_rows: Vec<[&str; 10]> = vec![
            [
                "Robert",
                "Brady",
                "131",
                "6884563",
                "079172485",
                "501 Elm St",
                "Edi",
                "EH8 4AH",
                "11/11/55",
                "M",
            ],
            [
                "Mark",
                "Smith",
                "020",
                "6884564",
                "075568485",
                "20 Baker St",
                "Ldn",
                "NW1 6XE",
                "25/12/67",
                "M",
            ],
            [
                "Nina",
                "Patel",
                "0141",
                "5550101",
                "077001122",
                "3 Clyde Way",
                "Gla",
                "G12 8QQ",
                "01/02/80",
                "F",
            ],
        ];
        let mut b = RelationBuilder::new(ms.clone());
        for row in &master_rows {
            b = b.row_strs(row.iter().copied());
        }
        let master = MasterData::new(b.build().unwrap());

        let t = |n: &str| input.attr_id(n).unwrap();
        let m = |n: &str| ms.attr_id(n).unwrap();
        let mobile = PatternTuple::empty().with_eq(t("type"), Value::str("2"));
        let home = PatternTuple::empty().with_eq(t("type"), Value::str("1"));
        let geo = PatternTuple::empty().with_ne(t("AC"), Value::str("0800"));
        let mut rules = RuleSet::new(input.clone(), ms.clone());
        #[allow(clippy::type_complexity)]
        let specs: Vec<(&str, Vec<(&str, &str)>, Vec<(&str, &str)>, PatternTuple)> = vec![
            (
                "phi1",
                vec![("zip", "zip")],
                vec![("AC", "AC")],
                PatternTuple::empty(),
            ),
            (
                "phi2",
                vec![("zip", "zip")],
                vec![("str", "str")],
                PatternTuple::empty(),
            ),
            (
                "phi3",
                vec![("zip", "zip")],
                vec![("city", "city")],
                PatternTuple::empty(),
            ),
            (
                "phi4",
                vec![("phn", "Mphn")],
                vec![("FN", "FN")],
                mobile.clone(),
            ),
            ("phi5", vec![("phn", "Mphn")], vec![("LN", "LN")], mobile),
            (
                "phi6",
                vec![("AC", "AC"), ("phn", "Hphn")],
                vec![("str", "str")],
                home.clone(),
            ),
            (
                "phi7",
                vec![("AC", "AC"), ("phn", "Hphn")],
                vec![("city", "city")],
                home.clone(),
            ),
            (
                "phi8",
                vec![("AC", "AC"), ("phn", "Hphn")],
                vec![("zip", "zip")],
                home,
            ),
            ("phi9", vec![("AC", "AC")], vec![("city", "city")], geo),
        ];
        for (name, lhs, rhs, pattern) in specs {
            rules
                .add(
                    EditingRule::new(
                        name,
                        &input,
                        &ms,
                        lhs.iter().map(|&(a, b)| (t(a), m(b))).collect::<Vec<_>>(),
                        rhs.iter().map(|&(a, b)| (t(a), m(b))).collect::<Vec<_>>(),
                        pattern,
                    )
                    .unwrap(),
                )
                .unwrap();
        }

        // Truth universe: each master row as a type=1 and a type=2 entity.
        let mut universe = Vec::new();
        for row in &master_rows {
            let [fn_, ln, ac, hphn, mphn, st, city, zip, _dob, _g] = row;
            universe.push(
                Tuple::of_strings(input.clone(), [fn_, ln, ac, hphn, "1", st, city, zip, "CD"])
                    .unwrap(),
            );
            universe.push(
                Tuple::of_strings(
                    input.clone(),
                    [fn_, ln, ac, mphn, "2", st, city, zip, "DVD"],
                )
                .unwrap(),
            );
        }
        (input, rules, master, universe)
    }

    #[test]
    fn contexts_enumerated_over_gates() {
        let (_, rules, _, _) = uk_fixture();
        let contexts = enumerate_contexts(&rules);
        // Gates: type ∈ {1, 2, else} × AC ∈ {0800, else} = 6 contexts.
        assert_eq!(contexts.len(), 6);
    }

    #[test]
    fn context_entailment() {
        let (input, rules, _, _) = uk_fixture();
        let ty = input.attr_id("type").unwrap();
        let ac = input.attr_id("AC").unwrap();
        let ctx = Context {
            pattern: PatternTuple::empty()
                .with_eq(ty, Value::str("2"))
                .with_ne(ac, Value::str("0800")),
        };
        let phi4 = rules.get_by_name("phi4").unwrap().1;
        let phi6 = rules.get_by_name("phi6").unwrap().1;
        let phi9 = rules.get_by_name("phi9").unwrap().1;
        let phi1 = rules.get_by_name("phi1").unwrap().1;
        assert!(ctx.entails_rule(phi4), "type=2 entailed");
        assert!(!ctx.entails_rule(phi6), "type=1 not entailed");
        assert!(ctx.entails_rule(phi9), "AC≠0800 entailed");
        assert!(ctx.entails_rule(phi1), "empty pattern always entailed");
    }

    #[test]
    fn uk_minimal_region_is_the_size4_mobile_region() {
        let (input, rules, master, universe) = uk_fixture();
        let result = find_regions(&rules, &master, &universe, &RegionFinderOptions::default());
        assert!(!result.regions.is_empty(), "stats: {:?}", result.stats);
        let t = |n: &str| input.attr_id(n).unwrap();
        let first = &result.regions[0];
        assert_eq!(
            first.attrs(),
            &[t("phn"), t("type"), t("zip"), t("item")]
                .iter()
                .copied()
                .collect::<BTreeSet<_>>()
                .into_iter()
                .collect::<Vec<_>>()[..],
            "the paper's size-4 region {{zip, phn, type, item}}"
        );
        assert_eq!(first.size(), 4);
        // Its tableau must require type=2 (mobile): under type=1 FN/LN
        // are unfixable.
        let type2_truth = &universe[1];
        assert!(first.covers(type2_truth));
        let type1_truth = &universe[0];
        assert!(!first.covers(type1_truth));
        // Ranking is ascending by size.
        for w in result.regions.windows(2) {
            assert!(w[0].size() <= w[1].size());
        }
    }

    #[test]
    fn uk_type1_regions_include_fn_ln() {
        let (input, rules, master, universe) = uk_fixture();
        let options = RegionFinderOptions {
            top_k: 32,
            ..Default::default()
        };
        let result = find_regions(&rules, &master, &universe, &options);
        let t = |n: &str| input.attr_id(n).unwrap();
        // Some region must cover type=1 truths; any such region contains
        // FN and LN (unfixable without mobile-phone rules).
        let type1_truth = &universe[0];
        let covering: Vec<&Region> = result
            .regions
            .iter()
            .filter(|r| r.covers(type1_truth))
            .collect();
        assert!(!covering.is_empty(), "no region covers type=1 truths");
        for r in covering {
            assert!(r.attrs().contains(&t("FN")), "{:?}", r.attrs());
            assert!(r.attrs().contains(&t("LN")));
        }
    }

    #[test]
    fn certification_rejects_ambiguous_master() {
        // Duplicate a zip with a different street: {zip,…} candidates must
        // fail certification for entities in that zip.
        let (input, rules, _, universe) = uk_fixture();
        let ms = rules.master_schema().clone();
        let mut b = RelationBuilder::new(ms.clone());
        b = b.row_strs([
            "Robert",
            "Brady",
            "131",
            "6884563",
            "079172485",
            "501 Elm St",
            "Edi",
            "EH8 4AH",
            "11/11/55",
            "M",
        ]);
        b = b.row_strs([
            "Jane",
            "Doe",
            "131",
            "1112223",
            "070000001",
            "7 Oak Ave",
            "Edi",
            "EH8 4AH",
            "02/03/90",
            "F",
        ]);
        let master = MasterData::new(b.build().unwrap());
        let zip_only: AttrSet = [
            input.attr_id("zip").unwrap(),
            input.attr_id("phn").unwrap(),
            input.attr_id("type").unwrap(),
            input.attr_id("item").unwrap(),
        ]
        .into();
        let res = certify_region(
            &CompiledRules::compile(&rules, &master),
            &master,
            &zip_only,
            &PatternTuple::empty().with_eq(input.attr_id("type").unwrap(), Value::str("2")),
            &universe[..2],
        );
        assert!(!res.certified, "shared zip with conflicting str must fail");
    }

    #[test]
    fn stats_are_populated() {
        let (_, rules, master, universe) = uk_fixture();
        let result = find_regions(&rules, &master, &universe, &RegionFinderOptions::default());
        assert_eq!(result.stats.contexts, 6);
        assert!(result.stats.candidates > 0);
    }

    #[test]
    fn top_k_truncates() {
        let (_, rules, master, universe) = uk_fixture();
        let options = RegionFinderOptions {
            top_k: 1,
            ..Default::default()
        };
        let result = find_regions(&rules, &master, &universe, &options);
        assert_eq!(result.regions.len(), 1);
    }

    #[test]
    fn no_rules_yields_all_attr_region() {
        let (input, _, master, universe) = uk_fixture();
        let rules = RuleSet::new(input.clone(), master.relation().schema().clone());
        let result = find_regions(&rules, &master, &universe, &RegionFinderOptions::default());
        assert_eq!(result.regions.len(), 1);
        assert_eq!(
            result.regions[0].size(),
            input.arity(),
            "validate everything"
        );
    }
}
