//! # cerfix — cleaning data with certain fixes
//!
//! A from-scratch Rust reproduction of **CerFix** (Fan, Li, Ma, Tang, Yu:
//! *CerFix: A System for Cleaning Data with Certain Fixes*, PVLDB 4(12),
//! 2011), the system packaging of the editing-rules framework of Fan et
//! al., PVLDB 2010. CerFix finds **certain fixes** for input tuples at the
//! point of data entry: fixes guaranteed correct, derived from master data
//! through editing rules, never from heuristics.
//!
//! The crate mirrors the paper's architecture (Fig. 1):
//!
//! | Paper component     | Module |
//! |---------------------|--------|
//! | Master data manager | [`MasterData`] — `Dm` + per-rule hash indexes, each key carrying what its rows agree on |
//! | Rule engine         | [`engine`]   — certain application, correcting-process fixpoint, consistency analysis, inference system |
//! | Region finder       | [`region`]   — top-k certain regions `(Z, Tc)` with data certification |
//! | Data monitor        | [`monitor`]  — the interactive suggest/validate/fix loop |
//! | Data auditing       | [`audit`]    — per-cell provenance and user-vs-CerFix statistics |
//! | Data explorer       | [`explorer`] — rule management facade over the DSL |
//!
//! ## Example: the paper's Example 1 & 2
//!
//! ```
//! use cerfix::{DataMonitor, MasterData, OracleUser};
//! use cerfix_relation::{Schema, Tuple, RelationBuilder, Value};
//! use cerfix_rules::{parse_rules, RuleDecl, RuleSet};
//!
//! // Schemas of the running example.
//! let input = Schema::of_strings("customer",
//!     ["FN", "LN", "AC", "phn", "type", "str", "city", "zip", "item"]).unwrap();
//! let master_schema = Schema::of_strings("master",
//!     ["FN", "LN", "AC", "Hphn", "Mphn", "str", "city", "zip", "DoB", "gender"]).unwrap();
//!
//! // Master tuple s of Example 2.
//! let master = MasterData::new(RelationBuilder::new(master_schema.clone())
//!     .row_strs(["Robert", "Brady", "131", "6884563", "079172485",
//!                "501 Elm St", "Edi", "EH8 4AH", "11/11/55", "M"])
//!     .build().unwrap());
//!
//! // Editing rule φ1: ((zip, zip) → (AC, AC), tp1 = ()).
//! let mut rules = RuleSet::new(input.clone(), master_schema.clone());
//! for decl in parse_rules("er phi1: match zip=zip fix AC:=AC when ()",
//!                         &input, &master_schema).unwrap() {
//!     if let RuleDecl::Er(r) = decl { rules.add(r).unwrap(); }
//! }
//!
//! // Example 1's tuple t: AC=020 contradicts zip EH8 4AH.
//! let t = Tuple::of_strings(input.clone(),
//!     ["Bob", "Brady", "020", "079172485", "2",
//!      "501 Elm St", "Edi", "EH8 4AH", "CD"]).unwrap();
//!
//! // With t[zip] validated, φ1 gives the certain fix t[AC] := 131.
//! let monitor = DataMonitor::new(&rules, &master);
//! let mut session = monitor.start(0, t);
//! let zip = input.attr_id("zip").unwrap();
//! monitor.apply_validation(&mut session, &[(zip, Value::str("EH8 4AH"))]).unwrap();
//! assert_eq!(session.tuple.get_by_name("AC").unwrap(), &Value::str("131"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
#[doc(hidden)]
pub mod counters;
pub mod engine;
mod error;
pub mod exec;
pub mod explorer;
mod master;
pub mod monitor;
pub mod region;

pub use audit::{
    explain_cell, explain_tuple, AuditLog, AuditRecord, AuditSink, AuditStats, CellEvent,
};
pub use engine::{
    apply_rule, check_consistency, run_fixpoint, run_fixpoint_delta, run_fixpoint_delta_into,
    ApplyOutcome, CellFix, CompiledRules, ConsistencyOptions, ConsistencyReport, EngineStats,
    FixpointReport, FixpointScratch, Inconsistency,
};
pub use error::{CerfixError, Result};
pub use exec::{ordered_map, ThreadBudget, WorkerPool};
pub use explorer::Explorer;
pub use master::MasterDelta;
pub use master::{CertainLookup, MasterData};
pub use monitor::{
    clean_stream, clean_stream_parallel, CappedUser, CleanOutcome, DataMonitor, MonitorSession,
    OracleUser, PreferringUser, SessionStatus, SilentUser, StreamReport, UserAgent,
};
pub use region::{
    certifies_for, certifies_for_with_plan, certify_region, certify_region_mode, find_regions,
    find_regions_from_scratch, recheck_regions, search_regions, CertifyMode, CertifyResult,
    MasterRow, MasterTruth, MasterTruths, Region, RegionFinderOptions, RegionSearch,
    RegionSearchResult, RegionSearchStats, Universe,
};
