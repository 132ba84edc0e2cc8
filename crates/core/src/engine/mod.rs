//! The rule engine (paper §2): rule application, the correcting process
//! (compiled plans + delta-driven fixpoint, with the pass-based loop as
//! the reference oracle), consistency checking, and the
//! validated-attribute inference system.

mod application;
mod compile;
mod consistency;
mod delta;
mod fixpoint;
mod inference;
mod stats;

pub use application::{apply_rule, ApplyOutcome, CellFix};
pub use compile::CompiledRules;
pub(crate) use compile::KeyMemo;
pub use consistency::{check_consistency, ConsistencyOptions, ConsistencyReport, Inconsistency};
pub use delta::{run_fixpoint_delta, run_fixpoint_delta_into, FixpointScratch};
pub use fixpoint::{run_fixpoint, FixpointReport};
pub use inference::RuleMasks;
pub use stats::EngineStats;
