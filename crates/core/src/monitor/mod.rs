//! The data monitor — "the most important module of CerFix" (paper §2).
//!
//! Per input tuple the monitor runs the three-step interaction of the
//! paper:
//!
//! 1. **Initial suggestions** — recommend the pre-computed certain regions
//!    (region finder) as the attributes to validate;
//! 2. **Data repairing** — after the user validates some attributes
//!    (suggested or not), iteratively apply editing rules and master data
//!    to fix as many attributes as possible, expanding the validated set
//!    through the inference system;
//! 3. **New suggestion** — if attributes remain unvalidated, compute a
//!    minimal set of additional attributes and go back to step 1.
//!
//! Steps 2–3 repeat until a certain fix is reached (all attributes
//! validated) or the monitor proves no certain fix is reachable.

mod session;
mod stream;
mod user;

pub use session::{MonitorSession, SessionStatus};
pub use stream::{clean_stream, clean_stream_parallel, StreamReport};
pub use user::{CappedUser, OracleUser, PreferringUser, SilentUser, UserAgent};

use crate::audit::{AuditLog, AuditRecord, CellEvent};
use crate::engine::{run_fixpoint_delta_into, CompiledRules, FixpointReport, FixpointScratch};
use crate::error::{CerfixError, Result};
use crate::master::MasterData;
use crate::region::Region;
use cerfix_relation::{AttrId, AttrSet, Tuple, Value};
use cerfix_rules::RuleSet;
use std::sync::Arc;

/// Outcome of a full interactive cleaning of one tuple.
#[derive(Debug, Clone)]
pub struct CleanOutcome {
    /// The cleaned tuple.
    pub tuple: Tuple,
    /// True iff a certain fix was reached (all attributes validated).
    pub complete: bool,
    /// Interaction rounds used.
    pub rounds: usize,
    /// Number of attributes validated by the user.
    pub user_validated: usize,
    /// Number of attributes validated automatically by rules.
    pub auto_validated: usize,
    /// Cells whose value rules changed.
    pub cells_fixed_by_rules: usize,
    /// Cells whose value the user corrected while validating.
    pub cells_corrected_by_user: usize,
}

/// One of the monitor's parts: shared with whoever else holds the
/// `Arc`, or lent by an owner that outlives the monitor — a long-lived
/// service's installed state lends its plan, regions and audit log, so
/// building a per-request monitor touches no refcount.
#[derive(Debug)]
enum Part<'a, T: ?Sized> {
    Shared(Arc<T>),
    Lent(&'a T),
}

impl<T: ?Sized> std::ops::Deref for Part<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        match self {
            Part::Shared(shared) => shared,
            Part::Lent(lent) => lent,
        }
    }
}

/// The data monitor: rules + master data + pre-computed regions + audit.
#[derive(Debug)]
pub struct DataMonitor<'a> {
    rules: &'a RuleSet,
    master: &'a MasterData,
    /// Compiled execution plan the correcting process runs on (delta
    /// engine). Compiled in [`new`](Self::new), handed in by
    /// [`from_plan`](Self::from_plan), or lent by
    /// [`from_lent_parts`](Self::from_lent_parts).
    plan: Part<'a, CompiledRules>,
    /// Pre-computed regions for the first suggestion.
    regions: Part<'a, [Region]>,
    /// Standalone monitors own a private log; a long-lived service lends
    /// its one shared (possibly disk-spilled) log to every per-request
    /// monitor.
    audit: Part<'a, AuditLog>,
    /// Hard cap on interaction rounds (defensive; a productive round
    /// always validates ≥ 1 attribute, so `arity` rounds suffice).
    max_rounds: usize,
}

impl<'a> DataMonitor<'a> {
    /// Create a monitor without pre-computed regions (initial suggestions
    /// then fall back to the inference system). Compiles the rule set
    /// into an execution plan, warming the master indexes.
    pub fn new(rules: &'a RuleSet, master: &'a MasterData) -> DataMonitor<'a> {
        DataMonitor::from_plan(
            rules,
            master,
            Arc::new(CompiledRules::compile(rules, master)),
        )
    }

    /// Create a monitor reusing an already-compiled plan (must have been
    /// compiled from `rules` against `master`), with a private audit log
    /// and no regions until [`with_regions`](Self::with_regions).
    /// Long-lived services build theirs with
    /// [`from_lent_parts`](Self::from_lent_parts) instead.
    pub fn from_plan(
        rules: &'a RuleSet,
        master: &'a MasterData,
        plan: Arc<CompiledRules>,
    ) -> DataMonitor<'a> {
        debug_assert_eq!(plan.len(), rules.len());
        debug_assert_eq!(plan.master_generation(), master.generation());
        DataMonitor {
            rules,
            master,
            plan: Part::Shared(plan),
            regions: Part::Shared(Arc::from(Vec::new())),
            audit: Part::Shared(Arc::new(AuditLog::new())),
            max_rounds: 64,
        }
    }

    /// Create a monitor over parts its caller owns — plan (compiled from
    /// `rules` against `master`), regions and audit log, all borrowed for
    /// the monitor's life: construction copies references, touches no
    /// refcount and allocates nothing. The shape every per-request
    /// monitor of a long-lived service takes.
    pub fn from_lent_parts(
        rules: &'a RuleSet,
        master: &'a MasterData,
        plan: &'a CompiledRules,
        regions: &'a [Region],
        audit: &'a AuditLog,
    ) -> DataMonitor<'a> {
        debug_assert_eq!(plan.len(), rules.len());
        debug_assert_eq!(plan.master_generation(), master.generation());
        DataMonitor {
            rules,
            master,
            plan: Part::Lent(plan),
            regions: Part::Lent(regions),
            audit: Part::Lent(audit),
            max_rounds: 64,
        }
    }

    /// Provide pre-computed certain regions for initial suggestions
    /// (the demo pre-computes these with the region finder "to reduce the
    /// cost", paper §3).
    pub fn with_regions(mut self, regions: Vec<Region>) -> DataMonitor<'a> {
        self.regions = Part::Shared(regions.into());
        self
    }

    /// The audit log accumulated by this monitor.
    pub fn audit(&self) -> &AuditLog {
        &self.audit
    }

    /// The rule set in use.
    pub fn rules(&self) -> &RuleSet {
        self.rules
    }

    /// Begin a session for `tuple`.
    pub fn start(&self, tuple_id: usize, tuple: Tuple) -> MonitorSession {
        MonitorSession::new(tuple_id, tuple)
    }

    /// The session's live-rule mask (positions in the plan). A rule is
    /// counted on for future rounds only while it is still *live*:
    ///
    /// * its pattern is not falsified by already-validated cells, and
    /// * it has not already stalled — if the rule's full evidence is
    ///   validated but some RHS attribute is not, the last fixpoint
    ///   already tried it and failed (missing or ambiguous master key);
    ///   validated evidence is frozen, so the rule can never fire again.
    ///
    /// Dead rules make their RHS attributes user-mandatory, which is how
    /// the monitor routes around entities absent from master data.
    fn live_rules(&self, session: &MonitorSession) -> AttrSet {
        let validated = &session.validated;
        let masks = self.plan.masks();
        let mut live = AttrSet::new();
        for (pos, rule) in self.plan.rules.iter().enumerate() {
            let pattern_ok = rule.pattern.cells().iter().all(|cell| {
                !validated.contains(cell.attr) || cell.op.matches(session.tuple.get(cell.attr))
            });
            // Stalled: had its chance and failed.
            let stalled =
                masks.evidence(pos).is_subset(validated) && !masks.rhs(pos).is_subset(validated);
            if pattern_ok && !stalled {
                live.insert(pos);
            }
        }
        live
    }

    /// The monitor's current suggestion for a session, as a set — the
    /// one implementation behind [`suggestion`](Self::suggestion),
    /// [`status`](Self::status) and whatever renders a session straight
    /// from it. `None` when the session is complete or nothing is left
    /// to suggest (it is stuck).
    ///
    /// First round: the best pre-computed region — the smallest region
    /// consistent with what is already validated (fewest *additional*
    /// attributes). Later rounds (or with no regions): a minimal new
    /// suggestion from the inference system. Region attributes are
    /// sorted and an [`AttrSet`] iterates in ascending order, so the set
    /// lists the attributes in the order the region does.
    pub fn suggestion_attrs(&self, session: &MonitorSession) -> Option<AttrSet> {
        if session.is_complete() {
            return None;
        }
        if session.rounds == 0 && !self.regions.is_empty() {
            // Prefer the region needing the fewest extra validations; among
            // ties the smallest region (paper ranking).
            let best = self
                .regions
                .iter()
                .filter(|r| {
                    // A region is usable if its tableau is not already
                    // falsified by validated pattern attributes.
                    r.tableau().iter().any(|p| {
                        p.cells().iter().all(|c| {
                            !session.validated.contains(c.attr)
                                || c.op.matches(session.tuple.get(c.attr))
                        })
                    })
                })
                .min_by_key(|r| {
                    let extra = r
                        .attrs()
                        .iter()
                        .filter(|&&a| !session.validated.contains(a))
                        .count();
                    // Tie-break: the suggestion is made before the tuple's
                    // gate attributes are known, so prefer the region whose
                    // tableau covers the most contexts — it is the most
                    // likely to apply to whatever the user validates.
                    (extra, r.size(), std::cmp::Reverse(r.tableau().len()))
                });
            if let Some(region) = best {
                let mut extra: AttrSet = region.attrs().iter().copied().collect();
                extra.subtract(&session.validated);
                if !extra.is_empty() {
                    return Some(extra);
                }
            }
        }
        let suggestion = self
            .plan
            .masks()
            .suggestion(&self.live_rules(session), &session.validated);
        (!suggestion.is_empty()).then_some(suggestion)
    }

    /// The monitor's current suggestion for a session, in ascending
    /// attribute order: [`suggestion_attrs`](Self::suggestion_attrs) as
    /// a list.
    pub fn suggestion(&self, session: &MonitorSession) -> Option<Vec<AttrId>> {
        self.suggestion_attrs(session)
            .map(|attrs| attrs.iter().collect())
    }

    /// The session's current status.
    pub fn status(&self, session: &MonitorSession) -> SessionStatus {
        if session.is_complete() {
            return SessionStatus::Complete;
        }
        match self.suggestion(session) {
            Some(suggestion) => SessionStatus::AwaitingUser { suggestion },
            None => SessionStatus::Stuck {
                unvalidated: session.unvalidated(),
            },
        }
    }

    /// Apply user validations (attribute, asserted-true value) to the
    /// session, then run the correcting process to its fixpoint.
    ///
    /// Every user validation and every rule fix is recorded in the audit
    /// log with the session's round number. The correcting process runs
    /// on `scratch` (see [`run_fixpoint_delta_into`]), and the round's
    /// report is returned from it: on a warmed scratch the round itself
    /// allocates nothing.
    pub fn apply_validation_into<'s>(
        &self,
        session: &mut MonitorSession,
        validations: &[(AttrId, Value)],
        scratch: &'s mut FixpointScratch,
    ) -> Result<&'s FixpointReport> {
        session.rounds += 1;
        let arity = session.tuple.arity();
        for (attr, value) in validations {
            if *attr >= arity {
                return Err(CerfixError::InvalidValidation {
                    attr: *attr,
                    message: format!("attribute id out of range (arity {arity})"),
                });
            }
            if value.is_null() {
                return Err(CerfixError::InvalidValidation {
                    attr: *attr,
                    message: "validated values must be known (non-null)".into(),
                });
            }
            let old = session.tuple.get(*attr).clone();
            session.tuple.set(*attr, value.clone())?;
            let newly = session.validated.insert(*attr);
            if newly {
                session.user_validated.insert(*attr);
                self.audit.record(AuditRecord {
                    tuple_id: session.tuple_id,
                    attr: *attr,
                    round: session.rounds,
                    event: CellEvent::UserValidated {
                        old,
                        new: value.clone(),
                    },
                });
            }
        }
        let report = run_fixpoint_delta_into(
            &self.plan,
            self.master,
            &mut session.tuple,
            &mut session.validated,
            scratch,
        )?;
        for fix in &report.fixes {
            self.audit.record(AuditRecord {
                tuple_id: session.tuple_id,
                attr: fix.attr,
                round: session.rounds,
                event: CellEvent::RuleFixed {
                    rule: fix.rule,
                    master_row: fix.master_row,
                    old: fix.old.clone(),
                    new: fix.new.clone(),
                },
            });
        }
        for &attr in &report.newly_validated {
            session.auto_validated.insert(attr);
            // Confirmations (validated without a value change) also get an
            // audit record; changed cells were recorded above.
            if !report.fixes.iter().any(|f| f.attr == attr) {
                // Attribute confirmed by whichever rule validated it; the
                // fixpoint report does not retain the rule for unchanged
                // cells, so the confirmation carries no rule: `usize::MAX`.
                self.audit.record(AuditRecord {
                    tuple_id: session.tuple_id,
                    attr,
                    round: session.rounds,
                    event: CellEvent::RuleConfirmed { rule: usize::MAX },
                });
            }
        }
        Ok(report)
    }

    /// [`apply_validation_into`](Self::apply_validation_into) on a fresh
    /// scratch, returning the report by value.
    pub fn apply_validation(
        &self,
        session: &mut MonitorSession,
        validations: &[(AttrId, Value)],
    ) -> Result<FixpointReport> {
        let mut scratch = FixpointScratch::default();
        self.apply_validation_into(session, validations, &mut scratch)?;
        Ok(scratch.into_report())
    }

    /// Drive a full interactive session with a (simulated) user until a
    /// certain fix is reached, the user declines to act, or no certain fix
    /// is reachable.
    pub fn clean(
        &self,
        tuple_id: usize,
        tuple: Tuple,
        user: &mut dyn UserAgent,
    ) -> Result<CleanOutcome> {
        let mut session = self.start(tuple_id, tuple);
        let mut scratch = FixpointScratch::default();
        let mut cells_fixed = 0usize;
        let mut user_corrections = 0usize;
        while session.rounds < self.max_rounds {
            let suggestion = match self.status(&session) {
                SessionStatus::Complete | SessionStatus::Stuck { .. } => break,
                SessionStatus::AwaitingUser { suggestion } => suggestion,
            };
            let validations = user.validate(&session.tuple, &suggestion);
            if validations.is_empty() {
                break; // user declined; leave the session incomplete
            }
            for (attr, value) in &validations {
                if !session.validated.contains(*attr) && session.tuple.get(*attr) != value {
                    user_corrections += 1;
                }
            }
            let report = self.apply_validation_into(&mut session, &validations, &mut scratch)?;
            cells_fixed += report.fixes.len();
        }
        Ok(CleanOutcome {
            complete: session.is_complete(),
            rounds: session.rounds,
            user_validated: session.user_validated.len(),
            auto_validated: session.auto_validated.len(),
            cells_fixed_by_rules: cells_fixed,
            cells_corrected_by_user: user_corrections,
            tuple: session.tuple,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cerfix_relation::{RelationBuilder, Schema, SchemaRef};
    use cerfix_rules::PatternTuple;

    /// The UK scenario in miniature: rules φ1–φ5 and φ9 suffice to test
    /// the Fig. 3 interaction shape.
    fn fixture() -> (SchemaRef, SchemaRef, RuleSet, MasterData) {
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
        let master = MasterData::new(
            RelationBuilder::new(ms.clone())
                .row_strs([
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
                ])
                .row_strs([
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
                ])
                .build()
                .unwrap(),
        );
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
                    cerfix_rules::EditingRule::new(
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
        (input, ms, rules, master)
    }

    /// Fig. 3's walkthrough tuple: the user assigned AC=201(wrong),
    /// phn=075568485, type=2 (Mobile), item=DVD; FN is the abbreviated
    /// 'M.'; other fields dirty or empty.
    fn fig3_dirty(input: &SchemaRef) -> Tuple {
        Tuple::of_strings(
            input.clone(),
            [
                "M.",
                "Smith",
                "201",
                "075568485",
                "2",
                "1 Nowhere",
                "???",
                "XXX",
                "DVD",
            ],
        )
        .unwrap()
    }

    fn fig3_truth(input: &SchemaRef) -> Tuple {
        Tuple::of_strings(
            input.clone(),
            [
                "Mark",
                "Smith",
                "020",
                "075568485",
                "2",
                "20 Baker St",
                "Ldn",
                "NW1 6XE",
                "DVD",
            ],
        )
        .unwrap()
    }

    #[test]
    fn fig3_walkthrough_two_rounds() {
        // Round 1: user validates {AC, phn, type, item}; monitor fixes FN
        // ('M.'→'Mark' via φ4 with the second master tuple), LN, city.
        // Round 2: monitor suggests zip; validating it fixes str. All
        // green (Fig. 3(c)).
        let (input, _, rules, master) = fixture();
        let monitor = DataMonitor::new(&rules, &master);
        let t = |n: &str| input.attr_id(n).unwrap();
        let truth = fig3_truth(&input);
        let mut session = monitor.start(0, fig3_dirty(&input));

        let round1: Vec<(AttrId, Value)> = [t("AC"), t("phn"), t("type"), t("item")]
            .iter()
            .map(|&a| (a, truth.get(a).clone()))
            .collect();
        let report = monitor.apply_validation(&mut session, &round1).unwrap();
        // FN normalized from 'M.' to 'Mark' by φ4 with master row 1.
        let fn_fix = report
            .fixes
            .iter()
            .find(|f| f.attr == t("FN"))
            .expect("FN fixed");
        assert_eq!(fn_fix.old, Value::str("M."));
        assert_eq!(fn_fix.new, Value::str("Mark"));
        assert_eq!(fn_fix.master_row, 1);
        assert!(session.validated.contains(t("LN")));
        assert!(session.validated.contains(t("city")));
        assert!(!session.validated.contains(t("zip")));
        assert!(!session.validated.contains(t("str")));

        // The monitor's next suggestion is exactly zip (paper: "CerFix
        // suggests the users to validate zip code").
        let suggestion = monitor.suggestion(&session).unwrap();
        assert_eq!(suggestion, vec![t("zip")]);

        let round2 = vec![(t("zip"), truth.get(t("zip")).clone())];
        monitor.apply_validation(&mut session, &round2).unwrap();
        assert!(session.is_complete(), "two rounds reach the certain fix");
        assert_eq!(session.rounds, 2);
        assert_eq!(session.tuple, truth);
        assert_eq!(monitor.status(&session), SessionStatus::Complete);
    }

    #[test]
    fn clean_with_oracle_user() {
        let (input, _, rules, master) = fixture();
        let monitor = DataMonitor::new(&rules, &master);
        let truth = fig3_truth(&input);
        let mut user = OracleUser::new(truth.clone());
        let outcome = monitor.clean(0, fig3_dirty(&input), &mut user).unwrap();
        assert!(outcome.complete);
        assert_eq!(outcome.tuple, truth);
        assert!(
            outcome.user_validated <= 5,
            "oracle user validated {} attrs",
            outcome.user_validated
        );
        assert_eq!(
            outcome.user_validated + outcome.auto_validated,
            input.arity()
        );
        assert!(outcome.cells_fixed_by_rules >= 3, "FN, city, str at least");
    }

    #[test]
    fn initial_region_suggestion_is_used() {
        let (input, _, rules, master) = fixture();
        let t = |n: &str| input.attr_id(n).unwrap();
        let region = crate::region::Region::new(
            vec![t("zip"), t("phn"), t("type"), t("item")],
            vec![PatternTuple::empty().with_eq(t("type"), Value::str("2"))],
        );
        let monitor = DataMonitor::new(&rules, &master).with_regions(vec![region]);
        let session = monitor.start(0, fig3_dirty(&input));
        let suggestion = monitor.suggestion(&session).unwrap();
        assert_eq!(
            suggestion
                .iter()
                .copied()
                .collect::<std::collections::BTreeSet<_>>(),
            [t("phn"), t("type"), t("zip"), t("item")].into()
        );
    }

    #[test]
    fn user_may_validate_unsuggested_attrs() {
        let (input, _, rules, master) = fixture();
        let monitor = DataMonitor::new(&rules, &master);
        let truth = fig3_truth(&input);
        let t = |n: &str| input.attr_id(n).unwrap();
        // User insists on validating zip and phn and type first.
        let mut user = PreferringUser::new(truth.clone(), vec![t("zip"), t("phn"), t("type")]);
        let outcome = monitor.clean(0, fig3_dirty(&input), &mut user).unwrap();
        assert!(outcome.complete);
        assert_eq!(outcome.tuple, truth);
    }

    #[test]
    fn silent_user_leaves_session_incomplete() {
        let (input, _, rules, master) = fixture();
        let monitor = DataMonitor::new(&rules, &master);
        let outcome = monitor
            .clean(0, fig3_dirty(&input), &mut SilentUser)
            .unwrap();
        assert!(!outcome.complete);
        assert_eq!(outcome.rounds, 0);
        assert_eq!(outcome.user_validated, 0);
    }

    #[test]
    fn missing_entity_degrades_to_full_user_validation() {
        // A truth entity absent from master: the rules stall, the monitor
        // detects the dead rules and keeps suggesting the now-unfixable
        // attributes, and the session still completes — with every
        // attribute validated by the user (a trivially certain fix).
        let (input, _, rules, master) = fixture();
        let monitor = DataMonitor::new(&rules, &master);
        let unknown_truth = Tuple::of_strings(
            input.clone(),
            [
                "Zoe",
                "Quinn",
                "0161",
                "070000000",
                "2",
                "9 Void St",
                "Mcr",
                "M1 1AA",
                "CD",
            ],
        )
        .unwrap();
        let mut user = OracleUser::new(unknown_truth.clone());
        let outcome = monitor.clean(0, fig3_dirty(&input), &mut user).unwrap();
        assert!(
            outcome.complete,
            "user validation of everything is still a certain fix"
        );
        assert_eq!(outcome.user_validated, input.arity());
        assert_eq!(outcome.auto_validated, 0);
        assert_eq!(outcome.tuple, unknown_truth);
        assert!(
            outcome.rounds >= 2,
            "rules had to stall before the monitor widened"
        );
    }

    #[test]
    fn audit_log_captures_fix_provenance() {
        let (input, _, rules, master) = fixture();
        let monitor = DataMonitor::new(&rules, &master);
        let truth = fig3_truth(&input);
        let mut user = OracleUser::new(truth);
        monitor.clean(42, fig3_dirty(&input), &mut user).unwrap();
        let t = |n: &str| input.attr_id(n).unwrap();
        let fn_history = monitor.audit().cell_history(42, t("FN"));
        assert_eq!(fn_history.len(), 1);
        match &fn_history[0].event {
            CellEvent::RuleFixed {
                old,
                new,
                master_row,
                ..
            } => {
                assert_eq!(old, &Value::str("M."));
                assert_eq!(new, &Value::str("Mark"));
                assert_eq!(*master_row, 1);
            }
            other => panic!("expected RuleFixed, got {other:?}"),
        }
        // The user validations are also recorded.
        let stats = crate::audit::AuditStats::from_log(monitor.audit());
        let totals = stats.totals();
        assert!(totals.user_validated >= 4);
        assert!(totals.auto_validated >= 4);
    }

    #[test]
    fn validation_input_checks() {
        let (input, _, rules, master) = fixture();
        let monitor = DataMonitor::new(&rules, &master);
        let mut session = monitor.start(0, fig3_dirty(&input));
        let err = monitor
            .apply_validation(&mut session, &[(99, Value::str("x"))])
            .unwrap_err();
        assert!(matches!(
            err,
            CerfixError::InvalidValidation { attr: 99, .. }
        ));
        let err = monitor
            .apply_validation(&mut session, &[(0, Value::Null)])
            .unwrap_err();
        assert!(matches!(err, CerfixError::InvalidValidation { .. }));
    }

    #[test]
    fn capped_user_needs_more_rounds() {
        let (input, _, rules, master) = fixture();
        let monitor = DataMonitor::new(&rules, &master);
        let truth = fig3_truth(&input);
        let mut patient = OracleUser::new(truth.clone());
        let fast = monitor.clean(0, fig3_dirty(&input), &mut patient).unwrap();
        let mut slow_user = CappedUser::new(truth, 1);
        let slow = monitor
            .clean(1, fig3_dirty(&input), &mut slow_user)
            .unwrap();
        assert!(slow.complete);
        assert!(
            slow.rounds > fast.rounds,
            "{} vs {}",
            slow.rounds,
            fast.rounds
        );
    }
}
