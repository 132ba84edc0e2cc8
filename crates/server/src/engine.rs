//! Engine state: the hot-swappable (rules, master) pair and everything
//! derived from it — plan, regions, region search, consistency verdicts —
//! how it is compiled, reloaded and appended to, and the ops that run on
//! it whole — `clean`, `regions`, `check`, `rules.reload`,
//! `master.append`.

use crate::errors::{ErrorCode, ServeError};
use crate::metrics::ServiceMetrics;
use crate::service::{
    write_attrs, write_tuple, CleaningService, Reply, ServiceConfig, ServiceInner,
};
use crate::wire::JsonWriter;
use cerfix::{
    check_consistency, search_regions, AuditLog, CompiledRules, ConsistencyOptions,
    ConsistencyReport, DataMonitor, FixpointScratch, MasterData, MasterTruths, Region,
    RegionFinderOptions, RegionSearch,
};
use cerfix_relation::{Tuple, Value};
use cerfix_rules::{parse_rules, render_er_dsl, RuleDecl, RuleSet};
use cerfix_storage::JournalEvent;
use std::cell::RefCell;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, OnceLock, PoisonError};
use std::time::Instant;

/// Tuples a batch `clean` gives each thread it fans out to, at least. A
/// helper thread and the engine scratch it builds cost about what a
/// handful of tuples do; a batch shorter than two of these shares stays
/// on the connection's thread, and a 128-tuple batch uses four threads at
/// most, whatever `workers` is.
const CLEAN_TUPLES_PER_THREAD: usize = 32;

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

/// The swappable execution state: what `rules.reload` and
/// `master.append` replace atomically while sessions stay live. The
/// master rides inside so every request observes a (rules, plan, master,
/// regions) quadruple that is mutually consistent — a monitor never
/// serves a plan compiled against a different master generation. Every
/// analysis of the (rules, master) pair lives here too, so it drops with
/// the last request holding the state: nothing else keeps it.
pub(crate) struct EngineState {
    pub(crate) rules: Arc<RuleSet>,
    /// The master repository this state was compiled against.
    pub(crate) master: Arc<MasterData>,
    /// Compiled execution plan lent to every per-request monitor
    /// (masks + index snapshots resolved once per state).
    pub(crate) plan: Arc<CompiledRules>,
    /// Pre-computed certain regions lent to every monitor; empty when
    /// region pre-computation is off.
    pub(crate) regions: Arc<[Region]>,
    /// The full region search behind `regions` — set at compile time when
    /// regions are pre-computed, otherwise by the first `regions` request.
    pub(crate) search: OnceLock<Arc<RegionSearch>>,
    /// Consistency verdicts, each computed by the first `check` in its
    /// mode: `strict`, then `entity-coherent`.
    pub(crate) consistency: [OnceLock<ConsistencyReport>; 2],
    pub(crate) fingerprint: u64,
}

impl EngineState {
    /// A monitor over this state recording into `audit`, its parts lent
    /// by the state: building one per request copies references — no
    /// refcount is touched and nothing is allocated.
    pub(crate) fn monitor<'s>(&'s self, audit: &'s AuditLog) -> DataMonitor<'s> {
        DataMonitor::from_lent_parts(&self.rules, &self.master, &self.plan, &self.regions, audit)
    }
}

impl CleaningService {
    /// Parse DSL against the service schemas and compile a full engine
    /// state (plan, and regions when pre-computed) over the current
    /// master.
    pub(crate) fn compile_engine_from_dsl(
        &self,
        dsl: &str,
    ) -> Result<Arc<EngineState>, ServeError> {
        let current = self.engine();
        let input = current.rules.input_schema().clone();
        let master_schema = current.rules.master_schema().clone();
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
            Arc::clone(&current.master),
            Arc::new(set),
            &self.inner.config,
            &self.inner.metrics,
        ))
    }

    /// Apply appended master rows (recovery replay): copy-on-append the
    /// current master, compile its successor state, and swap — the same
    /// deterministic path the live `master.append` op takes, minus
    /// journaling.
    pub(crate) fn apply_master_rows(&self, rows: Vec<Vec<Value>>) -> Result<(), ServeError> {
        let _swap = self
            .inner
            .swap_lock
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let engine = self.engine();
        let next = append_engine_master(&engine, rows, &self.inner.config, &self.inner.metrics)?;
        *self.inner.engine.write().unwrap_or_else(|e| e.into_inner()) = next;
        Ok(())
    }

    /// Batch clean: each tuple gets its `trust` columns validated as-is,
    /// then the correcting process runs to its fixpoint. Tuples fan out
    /// across the connection's thread and, one per
    /// `CLEAN_TUPLES_PER_THREAD` tuples, helpers lent by the service's
    /// budget (`ThreadBudget::ordered_map`, at most `workers` threads in
    /// all); outcomes return in input order. Batch cleans are request/response (no session
    /// survives them), so they are not journaled — but their provenance
    /// does flow into the shared audit log under reserved tuple ids.
    /// Every row is checked before the first is cleaned: a refused batch
    /// records nothing.
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
        let engine = self.engine();
        let audit_base = self.inner.sessions.allocate_ids(n as u64) as usize;
        let threads = (n / CLEAN_TUPLES_PER_THREAD).clamp(1, self.workers());
        let outcomes = self
            .inner
            .fan_out
            .ordered_map(threads, tuples, |idx, tuple| {
                clean_one(&self.inner, &engine, &trusted, audit_base + idx, tuple)
            })?;
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
        let engine = self.engine();
        // One full search per state serves every top_k (the search
        // retains the untruncated ranking); a master append installs a
        // new state, so stale regions are unservable. Concurrent first
        // callers wait for the one computing it, and only that one
        // answers `cached: false`.
        let mut cached = true;
        let search = engine.search.get_or_init(|| {
            cached = false;
            // The search reads the master rows where they lie; the state
            // keeps its result, so the search runs once per state.
            let truths = MasterTruths::new(engine.rules.input_schema(), &engine.master);
            Arc::new(search_regions(
                &engine.rules,
                &engine.master,
                &truths,
                &region_options(&self.inner.config),
            ))
        });
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
            w.field("master_generation", search.master_generation());
        })
    }

    pub(crate) fn check(&self, mode: Option<&str>, reply: Reply<'_>) -> Result<(), ServeError> {
        let (slot, mode, options) = match mode.unwrap_or("strict") {
            "strict" => (0, "strict", ConsistencyOptions::default()),
            "entity-coherent" => (1, "entity-coherent", ConsistencyOptions::entity_coherent()),
            other => {
                return Err(ErrorCode::BadRequest
                    .error(format!("unknown mode `{other}` (strict | entity-coherent)")))
            }
        };
        let engine = self.engine();
        let mut cached = true;
        let report = engine.consistency[slot].get_or_init(|| {
            cached = false;
            check_consistency(&engine.rules, &engine.master, &options)
        });
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

    /// Append rows to the master repository: copy-on-append, compile the
    /// successor state against the new generation (searching regions
    /// again when they are pre-computed), swap atomically, journal.
    /// Serialized with other engine swaps; in-flight requests keep the
    /// consistent old state.
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
        let next = append_engine_master(
            &engine,
            tuples.to_vec(),
            &self.inner.config,
            &self.inner.metrics,
        )?;
        let (master_rows, generation) = (next.master.len(), next.master.generation());
        let seq = match &self.inner.storage {
            Some(binding) => {
                let gate = binding.gate.write().unwrap_or_else(|e| e.into_inner());
                *self.inner.engine.write().unwrap_or_else(|e| e.into_inner()) = next;
                // The swap and the event share the gate: a concurrent
                // snapshot, which reads the appended rows off the
                // installed master and truncates the journal epoch holding
                // the event, sees both or neither.
                let seq = binding.storage.append(&JournalEvent::MasterAppended {
                    rows: tuples.to_vec(),
                });
                drop(gate);
                Some(seq)
            }
            None => {
                *self.inner.engine.write().unwrap_or_else(|e| e.into_inner()) = next;
                None
            }
        };
        drop(swap);
        if let (Some(binding), Some(seq)) = (&self.inner.storage, seq) {
            self.sync_commit(binding, seq)?; // an append ack must survive restart
        }
        self.inner.metrics.master_appends.inc();
        reply.send(|w| {
            w.field("appended", tuples.len());
            w.field("master_rows", master_rows);
            w.field("generation", generation);
        })
    }

    /// Search diagnostics of the active engine's region state (the
    /// `metrics` reply's `region_search` object, absent until the state
    /// has a search — pre-computed, or run by a `regions` request), so
    /// operators can watch the incremental data phase doing less work.
    pub(crate) fn write_region_search(&self, w: &mut JsonWriter<'_>) {
        let engine = self.engine();
        let Some(search) = engine.search.get() else {
            return;
        };
        let stats = &search.result.stats;
        w.key("region_search");
        w.begin_obj();
        w.field("contexts", stats.contexts);
        w.field("candidates", stats.candidates);
        w.field("truths", stats.truths);
        w.field("certified", stats.certified);
        w.field("vacuous", stats.vacuous);
        w.field("rejected_by_certification", stats.rejected_by_certification);
        w.field("truth_profiles", stats.truth_profiles);
        w.field("closure_probes", stats.closure_probes);
        w.field("lattice_hits", stats.lattice_hits);
        w.field("certification_fixpoints", stats.engine.fixpoint_runs);
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

/// Compile the full engine state for `rules` over `master`: indexes,
/// plan and, when `config` pre-computes them, regions — timed into
/// `metrics`' `cerfix_engine_compile_seconds`.
pub(crate) fn compile_engine(
    master: Arc<MasterData>,
    rules: Arc<RuleSet>,
    config: &ServiceConfig,
    metrics: &ServiceMetrics,
) -> Arc<EngineState> {
    let started = Instant::now();
    master.warm_indexes(rules.iter().map(|(_, r)| r));
    let fingerprint = ruleset_fingerprint(&rules);
    let plan = CompiledRules::compile(&rules, &master);
    let search = config.precompute_regions.then(|| {
        let truths = MasterTruths::new(rules.input_schema(), &master);
        search_regions(&rules, &master, &truths, &region_options(config))
    });
    let regions = search
        .as_ref()
        .map_or_else(Vec::new, |search| search.top(config.region_top_k));
    let state = Arc::new(EngineState {
        rules,
        master,
        plan: Arc::new(plan),
        regions: regions.into(),
        search: search.map_or_else(OnceLock::new, |search| Arc::new(search).into()),
        consistency: Default::default(),
        fingerprint,
    });
    metrics.engine_compile.observe(started.elapsed());
    state
}

/// Copy-on-append `rows` onto `engine`'s master and compile the
/// successor state over it, as boot and `rules.reload` compile theirs.
/// The rows are built on the master relation's own schema object, which
/// the append checks them against: the rules' master schema may be an
/// equal but distinct one.
fn append_engine_master(
    engine: &EngineState,
    rows: Vec<Vec<Value>>,
    config: &ServiceConfig,
    metrics: &ServiceMetrics,
) -> Result<Arc<EngineState>, ServeError> {
    let master_schema = engine.master.schema().clone();
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
    let (master, _delta) = engine.master.append_copy(tuples)?;
    Ok(compile_engine(
        Arc::new(master),
        Arc::clone(&engine.rules),
        config,
        metrics,
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

/// What cleaning one tuple of a batch found: plain data — the batch sums its
/// counters from it, and the reply is written from it after the fan-in.
struct Cleaned {
    complete: bool,
    cells_fixed: usize,
    validated: usize,
    tuple: Tuple,
}

thread_local! {
    /// A cleaning thread's buffers: the trusted cells it validates and
    /// the correcting process's scratch, reused from one tuple (on the
    /// connection's own thread, one request) to the next.
    static CLEAN_SCRATCH: RefCell<(Vec<(usize, Value)>, FixpointScratch)> =
        RefCell::default();
}

/// Clean one tuple of a batch, on whichever thread the fan-out gave it.
fn clean_one(
    inner: &ServiceInner,
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::{data_dir, kv_service, kv_service_journaled};
    use cerfix::counters::{read, Counter};
    use cerfix_relation::Schema;
    use std::sync::Weak;

    /// How many times this thread has called [`CleaningService::engine`].
    fn engine_handles() -> u64 {
        read(Counter::EngineHandles)
    }

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

    /// A replayed append (the follower tail, boot recovery) installs a
    /// successor state, and the state it replaces takes its plan and its
    /// region search with it once nothing holds it: no generation's
    /// analyses outlive the state they belong to.
    #[test]
    fn a_replaced_state_drops_its_plan_and_search() {
        let dir = data_dir("replaced-state");
        let service = kv_service_journaled(&dir);
        let row = |key: &str| vec![vec![Value::str(key), Value::str("v")]];
        service.apply_master_rows(row("k500")).unwrap();
        let first = service.engine();
        let plan: Weak<CompiledRules> = Arc::downgrade(&first.plan);
        let search: Weak<RegionSearch> = Arc::downgrade(first.search.get().unwrap());
        drop(first);
        service.apply_master_rows(row("k501")).unwrap();
        assert_eq!(service.engine().master.len(), 52);
        assert!(
            service.engine().search.get().is_some(),
            "successor searched"
        );
        assert_eq!(plan.strong_count(), 0, "first successor's plan");
        assert_eq!(search.strong_count(), 0, "first successor's search");
        drop(service);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A monitor borrows the state's plan and regions and the service's
    /// audit log: building one, and running a round on it, leaves every
    /// refcount where it was.
    #[test]
    fn a_monitor_borrows_the_installed_state() {
        let service = kv_service(1);
        let engine = service.engine();
        let audit = &service.inner.audit;
        let counts = || {
            let plan = Arc::strong_count(&engine.plan);
            let regions = Arc::strong_count(&engine.regions);
            (plan, regions, Arc::strong_count(audit))
        };
        let before = counts();
        let monitor = engine.monitor(audit);
        assert_eq!(counts(), before, "(plan, regions, audit) while built");
        let tuple = Tuple::of_strings(service.input_schema().clone(), ["k3", "WRONG", "n"]);
        let mut session = monitor.start(0, tuple.unwrap());
        let validations = [(0, Value::str("k3")), (2, Value::str("n"))];
        let mut fixpoint = FixpointScratch::default();
        monitor
            .apply_validation_into(&mut session, &validations, &mut fixpoint)
            .unwrap();
        assert!(session.is_complete());
        assert_eq!(counts(), before, "(plan, regions, audit) after a round");
        drop(monitor);
        assert_eq!(counts(), before, "(plan, regions, audit) once dropped");
    }

    /// A warmed `session.get`, `session.fix` and `session.validate` each
    /// take one handle on the installed state, and borrow the rest.
    #[test]
    fn a_warmed_session_op_takes_one_engine_handle() {
        let service = kv_service(1);
        let (mut out, mut scratch) = (String::new(), crate::RequestScratch::default());
        let create = r#"{"op":"session.create","tuple":["k3","WRONG","n"]}"#;
        service.handle_line_into(create, &mut out, &mut scratch);
        assert!(out.contains(r#""session":1,"#), "{out}");
        let validate =
            r#"{"op":"session.validate","session":1,"validations":{"key":"k3","note":"n"}}"#;
        let lines = [
            r#"{"op":"session.get","session":1,"id":7}"#,
            r#"{"op":"session.fix","session":1}"#,
            validate,
        ];
        for line in lines {
            for _ in 0..3 {
                out.clear();
                let before = engine_handles();
                service.handle_line_into(line, &mut out, &mut scratch);
                assert_eq!(engine_handles() - before, 1, "{line}");
                assert!(out.contains(r#""ok":true"#), "{out}");
            }
        }
    }

    /// A master append builds its rows on the master relation's own
    /// schema object. HOSP's generator gives the master and the rules
    /// equal but distinct master schemas; the append, live and replayed,
    /// is installed, and a tuple keyed on the new row cleans completely.
    #[test]
    fn an_append_builds_rows_on_the_masters_schema() {
        let mut rng = rand::SeedableRng::seed_from_u64(7);
        let master = MasterData::new(cerfix_gen::hosp::generate_master(40, &mut rng));
        let rules = cerfix_gen::hosp::rules();
        assert!(!master.schema().same_as(rules.master_schema()));
        let config = ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        };
        let service = CleaningService::new(Arc::new(master), Arc::new(rules), config);
        let cells = ["P-new", "H", "A", "C", "S", "Z-new", "T", "M-new", "N", "D"];
        let rendered = format!("{cells:?}");
        let append = format!(r#"{{"op":"master.append","tuples":[{rendered}]}}"#);
        let reply = service.handle_line(&append);
        assert!(reply.contains(r#""master_rows":41,"#), "{reply}");
        let replayed = cells.iter().map(|&c| Value::str(c.replace("new", "old")));
        service.apply_master_rows(vec![replayed.collect()]).unwrap();
        assert_eq!(service.engine().master.len(), 42);
        let dirty = r#"["P-new","x","x","x","x","x","x","M-new","x","x"]"#;
        let trust = r#""trust":["provider","measure"]"#;
        let clean = format!(r#"{{"op":"clean","tuples":[{dirty}],{trust}}}"#);
        let reply = service.handle_line(&clean);
        assert!(reply.contains(r#""complete":1,"#), "{reply}");
        assert!(reply.contains(r#""tuple":["P-new","H","A","C","S","Z-new","T","M-new","N","D"]"#));
    }
}
