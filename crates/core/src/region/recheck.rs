//! Master-delta re-certification: patch a [`RegionSearch`] after a
//! master-data append instead of re-searching from scratch.
//!
//! An append can only change a rule's behaviour for truths whose join
//! key collides with an appended row (`u[X] = s_new[Xm]` for some rule):
//! everything else probes exactly the index entries it probed before.
//! So a prior search's verdicts can be patched by re-certifying only:
//!
//! * truths **touched** by a changed key (some entailed rule of their
//!   context watches it),
//! * truths whose profile was **poisoned** (their fixpoints explore
//!   non-truth keys, which the key analysis cannot bound), and
//! * **new** truths appended to the universe — over
//!   [`MasterTruths`](crate::region::MasterTruths), the truths of the
//!   appended rows, read in place like the rest.
//!
//! Candidates none of whose in-scope truths fall in that set keep their
//! verdict; rejected candidates whose recorded failing truth is outside
//! it stay rejected after **zero** probes (the failing truth still
//! fails). Every other candidate is re-probed — previously-failing truth
//! first, so re-rejects die in O(1). The patched result is equal to a
//! full [`search_regions`] on the new master (property-tested in
//! `tests/region_incremental.rs`); when the prior state cannot be
//! trusted (rules drifted, universe shrank, generation moved backwards)
//! the function falls back to a full search.
//!
//! The truths to re-probe are re-profiled as a search profiles its own,
//! in row order through the postings their rows are filed under: a
//! touched truth costs the postings it is filed under times their key
//! groups' rules, decided once for every truth of the batch filed there,
//! not its own lookup per rule. That is every posting of a touched
//! truth, not only the touched ones: a one-row HOSP append that touches
//! 2 226 truths decides 13 340 verdicts, where a lookup per truth and
//! rule would make 17 808.

use crate::engine::CompiledRules;
use crate::master::MasterData;
use crate::region::finder::{
    build_profiles, build_regions, resolve_threads, search_regions, static_phase, RegionSearch,
    RegionSearchState, RegionSearchStats,
};
use crate::region::lattice::{ContextCertifier, TruthProfiles};
use crate::region::universe::Universe;
use cerfix_relation::{Cells, Tuple, Value};
use cerfix_rules::RuleSet;
use std::collections::HashSet;

/// Re-certify `prior` against a master that has been appended to (and a
/// universe extended accordingly: `universe[..prior.universe_len()]`
/// must be the truths the prior search certified). Returns the patched
/// search, equal to a full [`search_regions`] on the new master.
pub fn recheck_regions<U: Universe + ?Sized>(
    rules: &RuleSet,
    master: &MasterData,
    universe: &U,
    prior: &RegionSearch,
    options: &crate::region::RegionFinderOptions,
) -> RegionSearch {
    let st = &prior.state;
    if master.generation() < st.master_generation
        || master.len() < st.master_rows
        || universe.len() < st.universe_len
    {
        return search_regions(rules, master, universe, options);
    }
    // The static phase must reproduce the prior lattice exactly —
    // anything else (rules or options drifted) voids the stored verdicts.
    let (mut contexts, mut candidates) = static_phase(rules, options);
    if contexts.len() != st.contexts.len()
        || candidates.len() != st.candidates.len()
        || contexts
            .iter()
            .zip(&st.contexts)
            .any(|(a, b)| a.pattern != b.pattern || a.mandatory != b.mandatory)
        || candidates
            .iter()
            .zip(&st.candidates)
            .any(|(a, b)| a.context != b.context || a.attrs != b.attrs)
    {
        return search_regions(rules, master, universe, options);
    }
    // Seed the fresh skeleton with the prior verdicts and truth scopes.
    for (cand, old) in candidates.iter_mut().zip(&st.candidates) {
        cand.certified = old.certified;
        cand.failing = old.failing;
    }
    for (record, old) in contexts.iter_mut().zip(&st.contexts) {
        record.truths = old.truths.clone();
    }

    let mut stats = RegionSearchStats {
        contexts: contexts.len(),
        candidates: candidates.len(),
        truths: universe.len(),
        ..Default::default()
    };
    let plan = CompiledRules::compile(rules, master);
    let threads = resolve_threads(options.threads);

    let mut has_candidates = vec![false; contexts.len()];
    for cand in &candidates {
        has_candidates[cand.context] = true;
    }
    // New truths join their contexts' scopes.
    for idx in st.universe_len..universe.len() {
        let truth = universe.truth(idx);
        for (ci, record) in contexts.iter_mut().enumerate() {
            if has_candidates[ci] && record.pattern.matches(&truth) {
                record.truths.push(idx);
            }
        }
    }

    // Which old truths does the append touch? Per *distinct join*
    // `(X, Xm)` across the plan's rules, the set of keys the appended
    // rows introduce; a truth is touched iff some join's projection of
    // it hits one (the join-level analogue of the compiled plan's
    // attribute watch lists — rules sharing a join share the check).
    let appended: Vec<&Tuple> = master
        .relation()
        .iter()
        .skip(st.master_rows)
        .map(|(_, s)| s)
        .collect();
    let mut joins: Vec<(&[cerfix_relation::AttrId], HashSet<Vec<Value>>)> = Vec::new();
    for rule in &plan.rules {
        if joins
            .iter()
            .any(|(input_lhs, _)| *input_lhs == &rule.input_lhs[..])
        {
            // Same input-side projection: if two rules map it to
            // different master attrs, merge their key sets (membership
            // stays an over-approximation in the right direction).
            let entry = joins
                .iter_mut()
                .find(|(input_lhs, _)| *input_lhs == &rule.input_lhs[..])
                .expect("just matched");
            for s in &appended {
                let key: Vec<Value> = rule.master_lhs.iter().map(|&a| s.get(a).clone()).collect();
                if !key.iter().any(Value::is_null) {
                    entry.1.insert(key);
                }
            }
        } else {
            let mut keys = HashSet::new();
            for s in &appended {
                let key: Vec<Value> = rule.master_lhs.iter().map(|&a| s.get(a).clone()).collect();
                if !key.iter().any(Value::is_null) {
                    keys.insert(key);
                }
            }
            joins.push((&rule.input_lhs, keys));
        }
    }
    let truth_touched = |idx: usize| -> bool {
        if appended.is_empty() {
            return false;
        }
        let truth = universe.truth(idx);
        let mut key: Vec<Value> = Vec::new();
        joins.iter().any(|(input_lhs, keys)| {
            !keys.is_empty() && {
                key.clear();
                key.extend(input_lhs.iter().map(|&a| truth.cell(a).clone()));
                keys.contains(&key)
            }
        })
    };

    // Per candidate-bearing context: the truths that must be re-probed.
    let mut recheck: Vec<Vec<usize>> = vec![Vec::new(); contexts.len()];
    let mut touched_cache: Vec<Option<bool>> = vec![None; st.universe_len];
    for (ci, record) in contexts.iter().enumerate() {
        if !has_candidates[ci] {
            continue;
        }
        for &idx in &record.truths {
            // New truths and poisoned ones (fixpoint-certified: the key
            // analysis cannot bound them) always re-probe; the rest only
            // when an appended join key touches them.
            let needs = idx >= st.universe_len
                || st.poisoned[idx]
                || *touched_cache[idx].get_or_insert_with(|| truth_touched(idx));
            if needs {
                recheck[ci].push(idx);
            }
        }
    }

    // Profiles for every truth a probe may visit: the recheck sets, plus
    // the full scope of contexts holding a candidate that needs a full
    // re-probe (its recorded failing truth is in the recheck set).
    let full_probe: Vec<bool> = candidates
        .iter()
        .map(|cand| {
            !cand.certified
                && cand
                    .failing
                    .is_some_and(|f| recheck[cand.context].contains(&f))
        })
        .collect();
    let mut seen = vec![false; universe.len()];
    let mut scoped = 0;
    for (ci, record) in contexts.iter().enumerate() {
        let full_context = candidates
            .iter()
            .zip(&full_probe)
            .any(|(cand, &full)| full && cand.context == ci);
        let scope: &[usize] = if full_context {
            &record.truths
        } else {
            &recheck[ci]
        };
        for &idx in scope {
            scoped += usize::from(!std::mem::replace(&mut seen[idx], true));
        }
    }
    // In row order: a posting is decided at the first of its truths met.
    let mut needed = Vec::with_capacity(scoped);
    needed.extend((0..universe.len()).filter(|&idx| seen[idx]));
    let mut poisoned = st.poisoned.clone();
    poisoned.resize(universe.len(), false);
    let mut profiles = TruthProfiles::new(&plan, poisoned);
    build_profiles(&plan, master, universe, &needed, threads, &mut profiles);
    stats.truth_profiles = needed.len();

    // Re-probe, context by context. Two certifiers per context: one over
    // the recheck set (certified candidates only re-verify what changed)
    // and one over the full scope (rejected candidates whose failing
    // truth changed re-certify end-to-end, previously-failing first).
    for ci in 0..contexts.len() {
        if !has_candidates[ci] {
            continue;
        }
        let record = &contexts[ci];
        let mut delta_certifier: Option<ContextCertifier<'_, U>> = None;
        let mut full_certifier: Option<ContextCertifier<'_, U>> = None;
        for (i, cand) in candidates.iter_mut().enumerate() {
            if cand.context != ci {
                continue;
            }
            if cand.certified {
                if recheck[ci].is_empty() {
                    stats.candidates_reused += 1;
                    continue;
                }
                let certifier = delta_certifier.get_or_insert_with(|| {
                    ContextCertifier::new(
                        &plan,
                        master,
                        universe,
                        &recheck[ci],
                        &profiles,
                        record.mandatory.clone(),
                    )
                });
                let outcome = certifier.probe(&cand.attrs, &cand.cover, None);
                stats.recertified += 1;
                if !outcome.certified {
                    cand.certified = false;
                    cand.failing = outcome.failing;
                }
            } else if full_probe[i] {
                let certifier = full_certifier.get_or_insert_with(|| {
                    ContextCertifier::new(
                        &plan,
                        master,
                        universe,
                        &record.truths,
                        &profiles,
                        record.mandatory.clone(),
                    )
                });
                let outcome = certifier.probe(&cand.attrs, &cand.cover, cand.failing);
                stats.recertified += 1;
                cand.certified = outcome.certified;
                cand.failing = outcome.failing;
            } else {
                // The recorded failing truth is untouched and unpoisoned:
                // it still fails, the candidate stays rejected, 0 probes.
                stats.candidates_reused += 1;
            }
        }
        for certifier in [delta_certifier, full_certifier].into_iter().flatten() {
            stats.closure_probes += certifier.stats.closure_probes;
            stats.lattice_hits += certifier.stats.lattice_hits;
            stats.engine += certifier.stats.engine;
        }
    }

    let ranked = build_regions(&contexts, &candidates, options, &mut stats);
    let mut regions = ranked.clone();
    regions.truncate(options.top_k);
    RegionSearch {
        result: crate::region::RegionSearchResult { regions, stats },
        state: RegionSearchState {
            contexts,
            candidates,
            poisoned: profiles.into_poisoned(),
            universe_len: universe.len(),
            master_rows: master.len(),
            master_generation: master.generation(),
            ranked,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::lattice::verdicts_decided;
    use crate::region::{MasterTruths, RegionFinderOptions};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A one-row append to 20 000 HOSP rows — row 7 again, under another
    /// hospital name — touches the truths under row 7's provider, zip and
    /// measure keys: 2 226 truths with the new one, 2 222 of them under
    /// the measure. Profiled by lookups they would make 8 each (17 808);
    /// from postings, the re-check decides each rule once per posting
    /// those truths are filed under: 2 222 providers × 4, as many zips ×
    /// 2, and 4 measures × 2 (the three rows sharing row 7's provider
    /// carry other measures) — 13 340. The three touched postings alone
    /// hold 8 verdicts.
    #[test]
    fn a_one_row_append_decides_the_touched_truths_postings() {
        let mut rng = StdRng::seed_from_u64(37);
        let rules = cerfix_gen::hosp::rules();
        let mut master = MasterData::new(cerfix_gen::hosp::generate_master(20_000, &mut rng));
        let options = RegionFinderOptions {
            threads: 1,
            ..Default::default()
        };
        let input = rules.input_schema();
        let prior = search_regions(
            &rules,
            &master,
            &MasterTruths::new(input, &master),
            &options,
        );
        let mut row = master.tuple(7).unwrap().clone();
        let hospital = master.schema().attr_id("hospital").unwrap();
        row.set(hospital, Value::str("Renamed General Hospital"))
            .unwrap();
        master.append_rows(vec![row]).unwrap();
        let truths = MasterTruths::new(input, &master);
        let before = verdicts_decided();
        let patched = recheck_regions(&rules, &master, &truths, &prior, &options);
        assert_eq!(patched.result.stats.truth_profiles, 2_226);
        assert_eq!(verdicts_decided() - before, 13_340);
    }
}
