//! Engine state: the hot-swappable (rules, plan, master, regions)
//! quadruple, how it is compiled, reloaded and appended to, and the ops
//! that run on it whole — `clean`, `regions`, `check`, `rules.reload`,
//! `master.append`.

use crate::cache::{ruleset_fingerprint, AnalysisCache};
use crate::errors::{ErrorCode, ServeError};
use crate::metrics::ServiceMetrics;
use crate::service::{
    write_attrs, write_tuple, CleaningService, Reply, ServiceConfig, ServiceInner,
};
use crate::wire::JsonWriter;
use cerfix::{
    check_consistency, recheck_regions, search_regions, universe_from_master, AuditLog,
    CompiledRules, ConsistencyOptions, DataMonitor, FixpointScratch, MasterData, Region,
    RegionFinderOptions, RegionSearch,
};
use cerfix_relation::{Tuple, Value};
use cerfix_rules::{parse_rules, render_er_dsl, RuleDecl, RuleSet};
use cerfix_storage::JournalEvent;
use std::cell::RefCell;
use std::sync::{Arc, PoisonError};

/// The swappable execution state: what `rules.reload` and
/// `master.append` replace atomically while sessions stay live. The
/// master rides inside so every request observes a (rules, plan, master,
/// regions) quadruple that is mutually consistent — a monitor never
/// serves a plan compiled against a different master generation.
pub(crate) struct EngineState {
    pub(crate) rules: Arc<RuleSet>,
    /// The master repository this state was compiled against.
    pub(crate) master: Arc<MasterData>,
    /// Compiled execution plan shared by every per-request monitor
    /// (masks + index snapshots resolved once per ruleset).
    pub(crate) plan: Arc<CompiledRules>,
    /// Pre-computed certain regions handed to every monitor (shared:
    /// each monitor construction is a refcount bump, not a deep clone).
    pub(crate) regions: Arc<[Region]>,
    /// The full region search behind `regions` (None when region
    /// pre-computation is disabled) — the state master-delta
    /// re-certification patches.
    pub(crate) search: Option<Arc<RegionSearch>>,
    pub(crate) fingerprint: u64,
}

impl EngineState {
    /// A monitor over this state recording into `audit` — refcount bumps
    /// only, so building one per request allocates nothing.
    pub(crate) fn monitor(&self, audit: &Arc<AuditLog>) -> DataMonitor<'_> {
        DataMonitor::from_shared_parts(
            &self.rules,
            &self.master,
            Arc::clone(&self.plan),
            Arc::clone(&self.regions),
            Arc::clone(audit),
        )
    }
}

impl CleaningService {
    /// Parse DSL against the service schemas and compile a full engine
    /// state (plan + regions served from the analysis cache) over the
    /// current master.
    pub(crate) fn compile_engine_from_dsl(
        &self,
        dsl: &str,
    ) -> Result<Arc<EngineState>, ServeError> {
        let boot = self.engine();
        let input = boot.rules.input_schema().clone();
        let master_schema = boot.rules.master_schema().clone();
        let mut set = RuleSet::new(input.clone(), master_schema.clone());
        for decl in parse_rules(dsl, &input, &master_schema)? {
            match decl {
                RuleDecl::Er(rule) => {
                    set.add(rule)?;
                }
                other => {
                    return Err(ErrorCode::BadRequest.error(format!(
                        "`{}` is not an editing rule; derive CFDs/MDs before loading",
                        other.name()
                    )))
                }
            }
        }
        Ok(compile_engine(
            Arc::clone(&boot.master),
            Arc::new(set),
            &self.inner.config,
            &self.inner.cache,
            &self.inner.metrics,
        ))
    }

    /// Apply appended master rows (recovery replay): copy-on-append the
    /// current master, recompile, patch cached regions by delta
    /// re-certification, and swap — the same deterministic path the live
    /// `master.append` op takes, minus journaling.
    pub(crate) fn apply_master_rows(&self, rows: Vec<Vec<Value>>) -> Result<(), ServeError> {
        let _swap = self
            .inner
            .swap_lock
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let engine = self.engine();
        let (next, _, _) = append_engine_master(&engine, rows.clone(), &self.inner)?;
        *self.inner.engine.write().unwrap_or_else(|e| e.into_inner()) = next;
        self.inner
            .master_appended
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .extend(rows);
        Ok(())
    }

    /// Batch clean: each tuple gets its `trust` columns validated as-is,
    /// then the correcting process runs to its fixpoint. Tuples fan out
    /// across the worker pool; outcomes return in input order. Batch
    /// cleans are request/response (no session survives them), so they
    /// are not journaled — but their provenance does flow into the
    /// shared audit log under reserved tuple ids. Every row is checked
    /// before the first is cleaned: a refused batch records nothing.
    pub(crate) fn clean_batch(
        &self,
        tuples: Vec<Vec<Value>>,
        trust: &[String],
        reply: Reply<'_>,
    ) -> Result<(), ServeError> {
        let schema = self.input_schema();
        let trusted: Vec<usize> = trust
            .iter()
            .map(|name| self.resolve_attr(name))
            .collect::<Result<_, ServeError>>()?;
        let tuples = tuples
            .into_iter()
            .enumerate()
            .map(|(idx, values)| {
                if values.len() != schema.arity() {
                    return Err(ErrorCode::BadRequest.error(format!(
                        "tuple {idx} has {} values but schema `{}` has arity {}",
                        values.len(),
                        schema.name(),
                        schema.arity()
                    )));
                }
                Tuple::new(schema.clone(), values)
                    .map_err(|e| ErrorCode::BadRequest.error(format!("tuple {idx}: {e}")))
            })
            .collect::<Result<Vec<Tuple>, ServeError>>()?;
        let n = tuples.len();
        let inner = Arc::clone(&self.inner);
        let engine = self.engine();
        let trusted = Arc::new(trusted);
        let audit_base = self.inner.sessions.allocate_ids(n as u64);
        let outcomes: Vec<Result<Cleaned, ServeError>> =
            self.inner.pool.map_ordered(tuples, move |idx, tuple| {
                clean_one(&inner, &engine, &trusted, audit_base as usize + idx, tuple)
            });
        let outcomes: Vec<Cleaned> = outcomes.into_iter().collect::<Result<_, ServeError>>()?;
        let complete = outcomes.iter().filter(|outcome| outcome.complete).count();
        let cells_fixed: usize = outcomes.iter().map(|outcome| outcome.cells_fixed).sum();
        self.inner.metrics.tuples_cleaned.add(n as u64);
        self.inner.metrics.cells_fixed.add(cells_fixed as u64);
        reply.send(|w| {
            w.field("count", n);
            w.field("complete", complete);
            w.field("cells_fixed", cells_fixed);
            let indexed = outcomes.iter().enumerate();
            w.array("outcomes", indexed, |w, (index, outcome)| {
                w.begin_obj();
                w.field("index", index);
                w.field("complete", outcome.complete);
                w.field("cells_fixed", outcome.cells_fixed);
                w.field("validated", outcome.validated);
                write_tuple(w, &outcome.tuple);
                w.end_obj();
            });
        })
    }

    pub(crate) fn regions(&self, top_k: Option<usize>, reply: Reply<'_>) -> Result<(), ServeError> {
        let top_k = top_k.unwrap_or(self.inner.config.region_top_k);
        let inner = &self.inner;
        let engine = self.engine();
        // One full search per (ruleset, master generation) serves every
        // top_k (the search retains the untruncated ranking); a master
        // append re-keys the cache, so stale regions are unservable.
        let (search, cached) = inner.cache.regions(
            engine.fingerprint,
            engine.master.generation(),
            &inner.metrics,
            || {
                // Materializing the truth universe copies every master
                // row — only pay that on a cache miss.
                let universe = universe_from_master(engine.rules.input_schema(), &engine.master);
                search_regions(
                    &engine.rules,
                    &engine.master,
                    &universe,
                    &region_options(&self.inner.config),
                )
            },
        );
        let schema = self.input_schema();
        let stats = &search.result.stats;
        reply.send(|w| {
            w.field("cached", cached);
            w.field("top_k", top_k);
            let top = search.ranked().iter().take(top_k);
            w.array("regions", top, |w, region| {
                w.begin_obj();
                write_attrs(w, schema, "attrs", region.attrs().iter().copied());
                w.field("size", region.size());
                w.field("contexts", region.tableau().len());
                w.field("rendered", &region.render(schema));
                w.end_obj();
            });
            w.field("candidates", stats.candidates);
            w.field("closure_probes", stats.closure_probes);
            w.field("certification_fixpoints", stats.engine.fixpoint_runs);
            w.field("recertified", stats.recertified);
            w.field("master_generation", search.master_generation());
        })
    }

    pub(crate) fn check(&self, mode: Option<&str>, reply: Reply<'_>) -> Result<(), ServeError> {
        let (mode, options) = match mode.unwrap_or("strict") {
            "strict" => ("strict", ConsistencyOptions::default()),
            "entity-coherent" => ("entity-coherent", ConsistencyOptions::entity_coherent()),
            other => {
                return Err(ErrorCode::BadRequest
                    .error(format!("unknown mode `{other}` (strict | entity-coherent)")))
            }
        };
        let inner = &self.inner;
        let engine = self.engine();
        let (report, cached) = inner.cache.consistency(
            engine.fingerprint,
            engine.master.generation(),
            mode,
            &inner.metrics,
            || check_consistency(&engine.rules, &engine.master, &options),
        );
        reply.send(|w| {
            w.field("cached", cached);
            w.field("mode", mode);
            w.field("consistent", report.is_consistent());
            w.field("conflicts", report.conflicts.len());
            w.field("ambiguities", report.ambiguities.len());
            w.field("budget_exhausted", report.budget_exhausted);
        })
    }

    /// Parse, compile and atomically install a new rule set. The swap
    /// and its journal event happen under the storage write gate, so
    /// every journaled session event is on the correct side of the
    /// reload during replay.
    pub(crate) fn rules_reload(&self, dsl: &str, reply: Reply<'_>) -> Result<(), ServeError> {
        // Serialize against other engine swaps (a concurrent
        // master.append must not be overwritten by a state compiled over
        // the old master), then parse + compile outside the storage gate:
        // this is the expensive part (plan compilation, optional region
        // pre-computation).
        let _swap = self
            .inner
            .swap_lock
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let engine = self.compile_engine_from_dsl(dsl)?;
        let (rules_len, fingerprint, regions_len) =
            (engine.rules.len(), engine.fingerprint, engine.regions.len());
        let seq = match &self.inner.storage {
            Some(binding) => {
                let gate = binding.gate.write().unwrap_or_else(|e| e.into_inner());
                *self.inner.engine.write().unwrap_or_else(|e| e.into_inner()) = engine;
                let seq = binding.storage.append(&JournalEvent::RulesReloaded {
                    dsl: dsl.to_string(),
                    fingerprint,
                });
                drop(gate);
                Some(seq)
            }
            None => {
                *self.inner.engine.write().unwrap_or_else(|e| e.into_inner()) = engine;
                None
            }
        };
        if let (Some(binding), Some(seq)) = (&self.inner.storage, seq) {
            self.sync_commit(binding, seq)?; // a reload ack must survive restart
        }
        self.inner.metrics.rules_reloaded.inc();
        reply.send(|w| {
            w.field("rules", rules_len);
            w.field("ruleset", &format!("{fingerprint:016x}"));
            w.field("regions", regions_len);
        })
    }

    /// Append rows to the master repository: copy-on-append, recompile
    /// against the new generation, patch cached regions by delta
    /// re-certification, swap atomically, journal. Serialized with other
    /// engine swaps; in-flight requests keep the consistent old state.
    pub(crate) fn master_append(
        &self,
        tuples: &[Vec<Value>],
        reply: Reply<'_>,
    ) -> Result<(), ServeError> {
        if tuples.is_empty() {
            return Err(ErrorCode::BadRequest.error("`tuples` must contain at least one row"));
        }
        let swap = self
            .inner
            .swap_lock
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let engine = self.engine();
        let (next, appended, recertified) =
            append_engine_master(&engine, tuples.to_vec(), &self.inner)?;
        let (master_rows, generation) = (next.master.len(), next.master.generation());
        let seq = match &self.inner.storage {
            Some(binding) => {
                let gate = binding.gate.write().unwrap_or_else(|e| e.into_inner());
                *self.inner.engine.write().unwrap_or_else(|e| e.into_inner()) = next;
                let seq = binding.storage.append(&JournalEvent::MasterAppended {
                    rows: tuples.to_vec(),
                });
                // Still under the gate: a concurrent snapshot must see the
                // rows (it truncates the journal epoch holding the event —
                // extending afterwards would let a crash drop acked rows).
                self.inner
                    .master_appended
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .extend(tuples.iter().cloned());
                drop(gate);
                Some(seq)
            }
            None => {
                *self.inner.engine.write().unwrap_or_else(|e| e.into_inner()) = next;
                self.inner
                    .master_appended
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .extend(tuples.iter().cloned());
                None
            }
        };
        // Prior-generation analyses are unreachable once the swap lands
        // (the cache key embeds the generation): retire them so periodic
        // appends cannot grow the cache without bound.
        self.inner
            .cache
            .retire_generations(engine.fingerprint, generation);
        drop(swap);
        if let (Some(binding), Some(seq)) = (&self.inner.storage, seq) {
            self.sync_commit(binding, seq)?; // an append ack must survive restart
        }
        self.inner.metrics.master_appends.inc();
        if let Some(n) = recertified {
            self.inner.metrics.regions_recertified.add(n);
            self.inner.metrics.regions_cache_patched.inc();
        }
        reply.send(|w| {
            w.field("appended", appended);
            w.field("master_rows", master_rows);
            w.field("generation", generation);
            w.field("regions_patched", recertified.is_some());
            w.field("regions_recertified", recertified.unwrap_or(0));
        })
    }

    /// Search diagnostics of the active engine's region state (the
    /// `metrics` reply's `region_search` object, absent when regions are
    /// not pre-computed), so operators can watch the incremental data
    /// phase — and delta re-certification after master appends — doing
    /// less work.
    pub(crate) fn write_region_search(&self, w: &mut JsonWriter<'_>) {
        let engine = self.engine();
        let Some(search) = engine.search.as_ref() else {
            return;
        };
        let stats = &search.result.stats;
        w.key("region_search");
        w.begin_obj();
        w.field("contexts", stats.contexts);
        w.field("candidates", stats.candidates);
        w.field("truth_profiles", stats.truth_profiles);
        w.field("closure_probes", stats.closure_probes);
        w.field("lattice_hits", stats.lattice_hits);
        w.field("certification_fixpoints", stats.engine.fixpoint_runs);
        w.field("recertified", stats.recertified);
        w.field("candidates_reused", stats.candidates_reused);
        w.field("master_generation", search.master_generation());
        w.end_obj();
    }
}

/// The region-search options a service runs with: its configured top-k
/// and its worker count as the data-phase parallelism.
fn region_options(config: &ServiceConfig) -> RegionFinderOptions {
    RegionFinderOptions {
        top_k: config.region_top_k,
        threads: config.workers,
        ..Default::default()
    }
}

/// Compile the full engine state for `rules` over `master`: plan and
/// (optionally) pre-computed regions, both served from the analysis
/// cache so a reload back to a previously-seen rule set is cheap.
pub(crate) fn compile_engine(
    master: Arc<MasterData>,
    rules: Arc<RuleSet>,
    config: &ServiceConfig,
    cache: &AnalysisCache,
    metrics: &ServiceMetrics,
) -> Arc<EngineState> {
    master.warm_indexes(rules.iter().map(|(_, r)| r));
    let fingerprint = ruleset_fingerprint(&rules);
    let (plan, _) = cache.plan(fingerprint, master.generation(), metrics, || {
        CompiledRules::compile(&rules, &master)
    });
    let (regions, search) = if config.precompute_regions {
        let (search, _) = cache.regions(fingerprint, master.generation(), metrics, || {
            let universe = universe_from_master(rules.input_schema(), &master);
            search_regions(&rules, &master, &universe, &region_options(config))
        });
        (search.top(config.region_top_k), Some(search))
    } else {
        (Vec::new(), None)
    };
    Arc::new(EngineState {
        regions: regions.into(),
        search,
        fingerprint,
        plan,
        rules,
        master,
    })
}

/// Copy-on-append `rows` onto `engine`'s master and compile the
/// successor engine state. Cached regions for the old generation are
/// patched by delta re-certification — only candidates whose entailed
/// rules watch a touched index key (or whose context gained truths) are
/// re-probed — and the patched search is installed under the new
/// generation. Returns `(next state, rows appended, candidates
/// re-certified)`.
fn append_engine_master(
    engine: &EngineState,
    rows: Vec<Vec<Value>>,
    inner: &ServiceInner,
) -> Result<(Arc<EngineState>, usize, Option<u64>), ServeError> {
    let master_schema = engine.rules.master_schema().clone();
    let tuples: Vec<Tuple> = rows
        .into_iter()
        .enumerate()
        .map(|(i, values)| {
            if values.len() != master_schema.arity() {
                return Err(ErrorCode::BadRequest.error(format!(
                    "row {i} has {} values but master schema `{}` has arity {}",
                    values.len(),
                    master_schema.name(),
                    master_schema.arity()
                )));
            }
            Tuple::new(master_schema.clone(), values)
                .map_err(|e| ErrorCode::BadRequest.error(format!("row {i}: {e}")))
        })
        .collect::<Result<_, ServeError>>()?;
    let appended = tuples.len();
    let (new_master, _delta) = engine.master.append_copy(tuples)?;
    let new_master = Arc::new(new_master);
    let (plan, _) = inner.cache.plan(
        engine.fingerprint,
        new_master.generation(),
        &inner.metrics,
        || CompiledRules::compile(&engine.rules, &new_master),
    );
    // Patch the cached region search instead of discarding it: the new
    // universe extends the old one row-for-row, so the delta path
    // re-certifies only what the appended keys can have changed.
    let mut recertified = None;
    // The prior search to patch: the engine's pre-computed one, or — with
    // pre-computation off — whatever an earlier `regions` request cached
    // for the outgoing generation.
    let prior = engine.search.clone().or_else(|| {
        inner
            .cache
            .cached_regions(engine.fingerprint, engine.master.generation())
    });
    let (regions, search) = match &prior {
        Some(prior) => {
            let universe = universe_from_master(engine.rules.input_schema(), &new_master);
            let patched = recheck_regions(
                &engine.rules,
                &new_master,
                &universe,
                prior,
                &region_options(&inner.config),
            );
            recertified = Some(patched.result.stats.recertified as u64);
            let (search, _) = inner.cache.regions(
                engine.fingerprint,
                new_master.generation(),
                &inner.metrics,
                || patched,
            );
            let regions = if engine.search.is_some() {
                search.top(inner.config.region_top_k)
            } else {
                Vec::new() // pre-computation off: monitors stay region-free
            };
            (regions, engine.search.is_some().then_some(search))
        }
        None => (Vec::new(), None),
    };
    Ok((
        Arc::new(EngineState {
            rules: Arc::clone(&engine.rules),
            master: new_master,
            plan,
            regions: regions.into(),
            search,
            fingerprint: engine.fingerprint,
        }),
        appended,
        recertified,
    ))
}

/// Canonical DSL rendering of a whole rule set (journals and snapshots
/// store this; recovery re-parses it).
pub(crate) fn render_ruleset_dsl(rules: &RuleSet) -> String {
    let input = rules.input_schema();
    let master = rules.master_schema();
    rules
        .iter()
        .map(|(_, rule)| render_er_dsl(rule, input, master))
        .collect::<Vec<_>>()
        .join("\n")
}

/// What one batch-clean job found: plain data — the batch sums its
/// counters from it, and the reply is written from it after the fan-in.
struct Cleaned {
    complete: bool,
    cells_fixed: usize,
    validated: usize,
    tuple: Tuple,
}

thread_local! {
    /// A pool worker's buffers for the tuples it cleans: the trusted
    /// cells it validates and the correcting process's scratch, reused
    /// from one tuple to the next.
    static CLEAN_SCRATCH: RefCell<(Vec<(usize, Value)>, FixpointScratch)> =
        RefCell::default();
}

/// One batch-clean job, run on a pool worker.
fn clean_one(
    inner: &Arc<ServiceInner>,
    engine: &Arc<EngineState>,
    trusted: &[usize],
    audit_id: usize,
    tuple: Tuple,
) -> Result<Cleaned, ServeError> {
    let monitor = engine.monitor(&inner.audit);
    let mut session = monitor.start(audit_id, tuple);
    CLEAN_SCRATCH.with_borrow_mut(|(validations, fixpoint)| {
        validations.clear();
        validations.extend(trusted.iter().filter_map(|&a| {
            let v = session.tuple.get(a);
            (!v.is_null()).then(|| (a, v.clone()))
        }));
        let report = monitor.apply_validation_into(&mut session, validations, fixpoint)?;
        Ok(Cleaned {
            complete: session.is_complete(),
            cells_fixed: report.fixes.len(),
            validated: session.validated.len(),
            tuple: session.tuple,
        })
    })
}
