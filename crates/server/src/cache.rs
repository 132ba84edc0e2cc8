//! Per-ruleset analysis cache.
//!
//! Certain regions and consistency verdicts depend only on (rule set,
//! master data, options) — never on the tuples being cleaned — so a
//! long-lived service computes each once and serves every later session
//! from the cache. Keys embed a fingerprint of the rule set (hash of its
//! canonical DSL rendering) so a future service hosting several rule
//! sets, or hot-reloading one, gets correct isolation for free.

use crate::metrics::ServiceMetrics;
use cerfix::{CompiledRules, ConsistencyReport, RegionSearch};
use cerfix_rules::{render_er_dsl, RuleSet};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, PoisonError};

/// Stable fingerprint of a rule set: schema names/arities plus the
/// canonical DSL rendering of every rule, hashed.
pub fn ruleset_fingerprint(rules: &RuleSet) -> u64 {
    let mut hasher = DefaultHasher::new();
    let input = rules.input_schema();
    let master = rules.master_schema();
    input.name().hash(&mut hasher);
    master.name().hash(&mut hasher);
    for schema in [input, master] {
        for attr in schema.attributes() {
            attr.name().hash(&mut hasher);
        }
    }
    for (_, rule) in rules.iter() {
        render_er_dsl(rule, input, master).hash(&mut hasher);
    }
    hasher.finish()
}

/// Cache of region searches and consistency verdicts.
///
/// The first computation for a key runs while holding the cache lock:
/// concurrent requests for the same analysis wait and then hit, instead
/// of burning cores duplicating an expensive search. (Requests for
/// *different* keys also wait during that window — acceptable for the
/// handful of distinct analyses a service sees.)
#[derive(Debug, Default)]
pub struct AnalysisCache {
    /// Full region searches, keyed by `(ruleset fingerprint, master
    /// generation)`. The generation is part of the key so a master
    /// append can never serve regions certified against old data; the
    /// search retains every candidate verdict, so any `top_k` view and
    /// any later delta re-certification come from the same entry.
    regions: Mutex<HashMap<(u64, u64), Arc<RegionSearch>>>,
    consistency: Mutex<HashMap<(u64, u64, String), Arc<ConsistencyReport>>>,
    /// Compiled execution plans, keyed by `(ruleset fingerprint, master
    /// generation)`: every per-request monitor shares one plan instead of
    /// recompiling masks and re-resolving index snapshots.
    plans: Mutex<HashMap<(u64, u64), Arc<CompiledRules>>>,
}

impl AnalysisCache {
    /// Empty cache.
    pub fn new() -> AnalysisCache {
        AnalysisCache::default()
    }

    /// The region search for `(fingerprint, master_generation)`,
    /// computing it with `compute` on first use. The flag is `true` on a
    /// cache hit.
    pub(crate) fn regions(
        &self,
        fingerprint: u64,
        master_generation: u64,
        metrics: &ServiceMetrics,
        compute: impl FnOnce() -> RegionSearch,
    ) -> (Arc<RegionSearch>, bool) {
        let mut map = self.regions.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(hit) = map.get(&(fingerprint, master_generation)) {
            metrics.cache_hits.inc();
            return (Arc::clone(hit), true);
        }
        metrics.cache_misses.inc();
        let computed = Arc::new(compute());
        map.insert((fingerprint, master_generation), Arc::clone(&computed));
        (computed, false)
    }

    /// The cached region search for `(fingerprint, master_generation)`,
    /// if any — the prior state a master-append delta re-certification
    /// patches.
    pub fn cached_regions(
        &self,
        fingerprint: u64,
        master_generation: u64,
    ) -> Option<Arc<RegionSearch>> {
        self.regions
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&(fingerprint, master_generation))
            .cloned()
    }

    /// Drop every analysis of `fingerprint` certified against a master
    /// generation older than `current`. A master append makes those keys
    /// unreachable (requests always carry the live generation), so
    /// without retirement periodic appends would grow the cache without
    /// bound; in-flight holders keep their `Arc`s alive independently.
    pub fn retire_generations(&self, fingerprint: u64, current: u64) {
        self.regions
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .retain(|&(fp, generation), _| fp != fingerprint || generation >= current);
        self.plans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .retain(|&(fp, generation), _| fp != fingerprint || generation >= current);
        self.consistency
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .retain(|(fp, generation, _), _| *fp != fingerprint || *generation >= current);
    }

    /// The compiled plan for `(fingerprint, master_generation)`,
    /// compiling with `compute` on first use. The flag is `true` on a
    /// cache hit.
    pub(crate) fn plan(
        &self,
        fingerprint: u64,
        master_generation: u64,
        metrics: &ServiceMetrics,
        compute: impl FnOnce() -> CompiledRules,
    ) -> (Arc<CompiledRules>, bool) {
        let mut map = self.plans.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(hit) = map.get(&(fingerprint, master_generation)) {
            metrics.cache_hits.inc();
            return (Arc::clone(hit), true);
        }
        metrics.cache_misses.inc();
        let computed = Arc::new(compute());
        map.insert((fingerprint, master_generation), Arc::clone(&computed));
        (computed, false)
    }

    /// The consistency verdict for `(fingerprint, master_generation,
    /// mode)`, computing it with `compute` on first use. The flag is
    /// `true` on a cache hit. (Generation-keyed for the same reason as
    /// regions: verdicts depend on master data.)
    pub(crate) fn consistency(
        &self,
        fingerprint: u64,
        master_generation: u64,
        mode: &str,
        metrics: &ServiceMetrics,
        compute: impl FnOnce() -> ConsistencyReport,
    ) -> (Arc<ConsistencyReport>, bool) {
        let mut map = self
            .consistency
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(hit) = map.get(&(fingerprint, master_generation, mode.to_string())) {
            metrics.cache_hits.inc();
            return (Arc::clone(hit), true);
        }
        metrics.cache_misses.inc();
        let computed = Arc::new(compute());
        map.insert(
            (fingerprint, master_generation, mode.to_string()),
            Arc::clone(&computed),
        );
        (computed, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cerfix_relation::Schema;

    #[test]
    fn fingerprint_distinguishes_rulesets() {
        let input = Schema::of_strings("in", ["a", "b"]).unwrap();
        let master = Schema::of_strings("m", ["a", "b"]).unwrap();
        let empty = RuleSet::new(input.clone(), master.clone());
        let mut one = RuleSet::new(input.clone(), master.clone());
        one.add(
            cerfix_rules::EditingRule::new(
                "r",
                &input,
                &master,
                vec![(0, 0)],
                vec![(1, 1)],
                cerfix_rules::PatternTuple::empty(),
            )
            .unwrap(),
        )
        .unwrap();
        assert_ne!(ruleset_fingerprint(&empty), ruleset_fingerprint(&one));
        assert_eq!(
            ruleset_fingerprint(&one),
            ruleset_fingerprint(&one),
            "stable"
        );
    }

    fn empty_search() -> RegionSearch {
        let input = Schema::of_strings("in", ["a", "b"]).unwrap();
        let master = Schema::of_strings("m", ["a", "b"]).unwrap();
        let rules = RuleSet::new(input, master.clone());
        let md = cerfix::MasterData::new(cerfix_relation::Relation::empty(master));
        cerfix::search_regions(&rules, &md, &[], &cerfix::RegionFinderOptions::default())
    }

    #[test]
    fn region_cache_hits_after_first_compute_and_keys_by_generation() {
        let cache = AnalysisCache::new();
        let metrics = ServiceMetrics::new();
        let mut computes = 0;
        for round in 0..3 {
            let (_, hit) = cache.regions(1, 0, &metrics, || {
                computes += 1;
                empty_search()
            });
            assert_eq!(hit, round > 0);
        }
        assert_eq!(computes, 1);
        assert_eq!(metrics.cache_hits.get(), 2);
        assert_eq!(metrics.cache_misses.get(), 1);
        // A different master generation is a different key: a master
        // append can never serve regions certified against old data.
        let (_, hit) = cache.regions(1, 7, &metrics, empty_search);
        assert!(!hit);
        assert_eq!(metrics.cache_misses.get(), 2);
        assert!(cache.cached_regions(1, 0).is_some());
        assert!(cache.cached_regions(1, 7).is_some());
        assert!(cache.cached_regions(1, 3).is_none());
        assert!(cache.cached_regions(2, 0).is_none());
    }
}
