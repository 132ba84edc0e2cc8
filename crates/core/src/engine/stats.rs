//! Deterministic work counters for the correcting process.
//!
//! Wall-clock benchmarks flake; attempt counts do not. Both fixpoint
//! engines (the pass-based reference in [`fixpoint`] and the
//! delta-driven engine in [`delta`]) fill an [`EngineStats`] so tests
//! (`tests/engine_equivalence.rs`) can assert — exactly, on every
//! machine — that the delta engine performs strictly less work.
//!
//! [`fixpoint`]: crate::engine::run_fixpoint
//! [`delta`]: crate::engine::run_fixpoint_delta

use std::ops::AddAssign;

/// Work performed by one fixpoint run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Complete fixpoint runs (1 per engine invocation; aggregated
    /// counters use this to report how many correcting processes were
    /// simulated — the region finder's certification cost unit).
    pub fixpoint_runs: usize,
    /// Rules attempted (eligibility checked / popped from the worklist).
    /// The pass-based engine attempts every rule every pass; the delta
    /// engine attempts each rule at most once, when its evidence
    /// completes.
    pub rule_attempts: usize,
    /// Master-data certain-lookups performed (attempts that got past
    /// eligibility and pattern gates).
    pub master_lookups: usize,
    /// Lookups served by a hash index (equals `master_lookups` on an
    /// indexed master, 0 on the `T6` scan-ablation arm).
    pub index_probes: usize,
}

impl AddAssign for EngineStats {
    fn add_assign(&mut self, rhs: EngineStats) {
        self.fixpoint_runs += rhs.fixpoint_runs;
        self.rule_attempts += rhs.rule_attempts;
        self.master_lookups += rhs.master_lookups;
        self.index_probes += rhs.index_probes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_assign_accumulates() {
        let mut a = EngineStats {
            fixpoint_runs: 1,
            rule_attempts: 1,
            master_lookups: 2,
            index_probes: 3,
        };
        a += EngineStats {
            fixpoint_runs: 1,
            rule_attempts: 10,
            master_lookups: 20,
            index_probes: 30,
        };
        assert_eq!(
            a,
            EngineStats {
                fixpoint_runs: 2,
                rule_attempts: 11,
                master_lookups: 22,
                index_probes: 33,
            }
        );
    }
}
