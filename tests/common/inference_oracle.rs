//! The inference system as it was before it ran on the compiled plan:
//! `BTreeSet`s over the `RuleSet`, a `dyn` rule filter re-evaluated on
//! every pass. Kept verbatim as the **equivalence oracle** for
//! `RuleMasks` and `DataMonitor::suggestion`
//! (`tests/engine_equivalence.rs` includes this file with `#[path]`).
//! The feasibility check in `new_suggestion` is the one piece the mask
//! form does not have: it can never fail (every enabled rule's evidence
//! is in `base ∪ useful`), and the equivalence test holds it to that.

use cerfix::MonitorSession;
use cerfix_relation::{AttrId, AttrSet};
use cerfix_rules::{EditingRule, RuleId, RuleSet};
use std::collections::BTreeSet;

/// Rule filter: decides whether a rule may be counted on during closure.
/// The monitor passes a filter that drops rules whose patterns are already
/// falsified by validated cells; the region finder passes tableau-context
/// entailment.
pub type RuleFilter<'a> = &'a dyn Fn(RuleId, &EditingRule) -> bool;

/// Compute the closure of `seed` under the enabled rules: repeatedly add
/// the RHS of every rule whose evidence is contained in the current set.
pub fn attribute_closure(
    rules: &RuleSet,
    seed: &BTreeSet<AttrId>,
    enabled: RuleFilter<'_>,
) -> BTreeSet<AttrId> {
    let mut closed = seed.clone();
    // Materialize evidence/rhs per enabled rule once.
    let mut pending: Vec<(BTreeSet<AttrId>, Vec<AttrId>)> = rules
        .iter()
        .filter(|&(id, r)| enabled(id, r))
        .map(|(_, r)| (r.evidence_attrs(), r.input_rhs()))
        .collect();
    let mut progressed = true;
    while progressed {
        progressed = false;
        pending.retain(|(evidence, rhs)| {
            if evidence.is_subset(&closed) {
                for &b in rhs {
                    if closed.insert(b) {
                        progressed = true;
                    }
                }
                false // rule consumed
            } else {
                true
            }
        });
    }
    closed
}

/// Attributes that no enabled rule can fix: these must be validated by the
/// user in every certain region (`item`, `phn` and `type` in the paper's
/// UK scenario).
pub fn unfixable_attrs(rules: &RuleSet, enabled: RuleFilter<'_>) -> BTreeSet<AttrId> {
    let fixable: BTreeSet<AttrId> = rules
        .iter()
        .filter(|&(id, r)| enabled(id, r))
        .flat_map(|(_, r)| r.input_rhs())
        .collect();
    rules
        .input_schema()
        .all_attr_ids()
        .filter(|a| !fixable.contains(a))
        .collect()
}

/// Attributes worth considering as extra evidence: anything that appears
/// in some enabled rule's evidence set. Validating an attribute that no
/// rule reads (and that rules can fix) is wasted user effort.
pub fn useful_evidence_attrs(rules: &RuleSet, enabled: RuleFilter<'_>) -> BTreeSet<AttrId> {
    rules
        .iter()
        .filter(|&(id, r)| enabled(id, r))
        .flat_map(|(_, r)| r.evidence_attrs())
        .collect()
}

/// Rule hyperedges in bitset form: `(evidence mask, RHS mask)` per
/// enabled rule — the compiled currency of the cover search, built once
/// and reused across every candidate combination.
fn closure_masks(rules: &RuleSet, enabled: RuleFilter<'_>) -> Vec<(AttrSet, AttrSet)> {
    rules
        .iter()
        .filter(|&(id, r)| enabled(id, r))
        .map(|(_, r)| {
            (
                r.evidence_attrs().iter().copied().collect(),
                r.input_rhs().into_iter().collect(),
            )
        })
        .collect()
}

/// Does the closure of `seed` under `masks` span all `arity` attributes?
/// Pure bitset sweeps — no per-call allocation beyond one consumed mask.
fn closure_spans(masks: &[(AttrSet, AttrSet)], seed: &AttrSet, arity: usize) -> bool {
    let mut closed = seed.clone();
    if closed.len() == arity {
        return true;
    }
    let mut consumed = AttrSet::new();
    let mut progressed = true;
    while progressed {
        progressed = false;
        for (pos, (evidence, rhs)) in masks.iter().enumerate() {
            if consumed.contains(pos) || !evidence.is_subset(&closed) {
                continue;
            }
            consumed.insert(pos);
            for b in rhs {
                if closed.insert(b) {
                    progressed = true;
                }
            }
            if closed.len() == arity {
                return true;
            }
        }
    }
    false
}

/// Enumerate **all minimal** extra-evidence sets `S ⊆ candidates` such
/// that `closure(base ∪ S)` covers the whole schema, in ascending size.
///
/// Exhaustive by increasing cardinality with an antichain filter, which is
/// exact for the schema widths of entity data (the search space is
/// `2^|candidates|` where candidates are the useful evidence attributes —
/// at most a dozen in the paper's scenarios). `max_size` bounds the search
/// and `max_results` the output. The enabled rules are compiled to bitset
/// hyperedges once; each combination is then tested in pure word
/// operations (the region finder's static phase runs this per context).
pub fn minimal_covers(
    rules: &RuleSet,
    base: &BTreeSet<AttrId>,
    candidates: &[AttrId],
    enabled: RuleFilter<'_>,
    max_size: usize,
    max_results: usize,
) -> Vec<BTreeSet<AttrId>> {
    let arity = rules.input_schema().arity();
    let masks = closure_masks(rules, enabled);
    let base_mask = AttrSet::from(base);
    let mut results: Vec<BTreeSet<AttrId>> = Vec::new();
    if closure_spans(&masks, &base_mask, arity) {
        results.push(BTreeSet::new());
        return results;
    }
    let n = candidates.len();
    let mut result_masks: Vec<AttrSet> = Vec::new();
    for size in 1..=max_size.min(n) {
        let mut combo: Vec<usize> = (0..size).collect();
        loop {
            let mut extra = AttrSet::new();
            extra.extend(combo.iter().map(|&i| candidates[i]));
            // Antichain: skip supersets of an already-found cover.
            let dominated = result_masks.iter().any(|r| r.is_subset(&extra));
            if !dominated {
                let mut seed = base_mask.clone();
                seed.extend(extra.iter());
                if closure_spans(&masks, &seed, arity) {
                    results.push(extra.iter().collect());
                    result_masks.push(extra);
                    if results.len() >= max_results {
                        return results;
                    }
                }
            }
            if !next_combination(&mut combo, n) {
                break;
            }
        }
    }
    results
}

/// Advance `combo` to the next k-combination of `0..n` in lexicographic
/// order; returns false when exhausted.
fn next_combination(combo: &mut [usize], n: usize) -> bool {
    let k = combo.len();
    let mut i = k;
    while i > 0 {
        i -= 1;
        if combo[i] != i + n - k {
            combo[i] += 1;
            for j in i + 1..k {
                combo[j] = combo[j - 1] + 1;
            }
            return true;
        }
    }
    false
}

/// A single small cover for the monitor's *new suggestion* (paper §2,
/// data monitor step 3: "a minimal number of attributes").
///
/// Finds the smallest extra set via [`minimal_covers`] when the candidate
/// space is small, falling back to a greedy closure-gain heuristic for
/// wide schemas. Returns `None` when even validating every candidate
/// cannot cover the schema (the tuple can only be partially fixed).
pub fn new_suggestion(
    rules: &RuleSet,
    validated: &BTreeSet<AttrId>,
    enabled: RuleFilter<'_>,
) -> Option<BTreeSet<AttrId>> {
    let arity = rules.input_schema().arity();
    // Anything unfixable and not yet validated must be user-validated.
    let mut base = validated.clone();
    let mandatory: BTreeSet<AttrId> = unfixable_attrs(rules, enabled)
        .into_iter()
        .filter(|a| !validated.contains(a))
        .collect();
    base.extend(mandatory.iter().copied());

    let useful: Vec<AttrId> = useful_evidence_attrs(rules, enabled)
        .into_iter()
        .filter(|a| !base.contains(a))
        .collect();

    // Feasibility: even with every candidate validated?
    let mut everything = base.clone();
    everything.extend(useful.iter().copied());
    if attribute_closure(rules, &everything, enabled).len() != arity {
        return None;
    }

    const EXACT_LIMIT: usize = 16;
    let extra = if useful.len() <= EXACT_LIMIT {
        minimal_covers(rules, &base, &useful, enabled, useful.len(), 1)
            .into_iter()
            .next()
            .unwrap_or_default()
    } else {
        greedy_cover(rules, &base, &useful, enabled)
    };
    let mut suggestion = mandatory;
    suggestion.extend(extra);
    Some(suggestion)
}

/// Greedy set cover over closure gain, pruned to minimality.
fn greedy_cover(
    rules: &RuleSet,
    base: &BTreeSet<AttrId>,
    candidates: &[AttrId],
    enabled: RuleFilter<'_>,
) -> BTreeSet<AttrId> {
    let arity = rules.input_schema().arity();
    let mut chosen: Vec<AttrId> = Vec::new();
    let mut current = base.clone();
    while attribute_closure(rules, &current, enabled).len() != arity {
        let mut best: Option<(AttrId, usize)> = None;
        for &c in candidates {
            if current.contains(&c) {
                continue;
            }
            let mut trial = current.clone();
            trial.insert(c);
            let gain = attribute_closure(rules, &trial, enabled).len();
            if best.is_none_or(|(_, g)| gain > g) {
                best = Some((c, gain));
            }
        }
        match best {
            Some((c, _)) => {
                chosen.push(c);
                current.insert(c);
            }
            None => break, // no candidates left; caller checked feasibility
        }
    }
    // Prune: drop any chosen attr whose removal keeps coverage.
    let mut pruned: BTreeSet<AttrId> = chosen.iter().copied().collect();
    for &c in &chosen {
        let mut trial = base.clone();
        trial.extend(pruned.iter().copied().filter(|&a| a != c));
        if attribute_closure(rules, &trial, enabled).len() == arity {
            pruned.remove(&c);
        }
    }
    pruned
}

/// The monitor's rule filter for a session: a rule is live while its
/// pattern is not falsified by validated cells and it has not stalled
/// (full evidence validated, some RHS attribute not).
pub fn session_filter(session: &MonitorSession) -> impl Fn(RuleId, &EditingRule) -> bool + '_ {
    move |_, rule| {
        let pattern_ok = rule.pattern().cells().iter().all(|cell| {
            if session.validated.contains(cell.attr) {
                cell.op.matches(session.tuple.get(cell.attr))
            } else {
                true
            }
        });
        if !pattern_ok {
            return false;
        }
        let evidence_done = rule
            .evidence_attrs()
            .iter()
            .all(|&a| session.validated.contains(a));
        let rhs_done = rule
            .input_rhs()
            .iter()
            .all(|&b| session.validated.contains(b));
        // Stalled: had its chance and failed.
        !evidence_done || rhs_done
    }
}
