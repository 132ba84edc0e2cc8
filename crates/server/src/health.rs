//! Health and write admission: the readiness probe and its causes, the
//! degraded (disk-full) latch, journal poisoning, the periodic storage
//! sweep, the gate every mutating op passes, and the one translation of
//! a group-fsync outcome into the protocol's error contract.

use crate::diag::Subsystem;
use crate::errors::{ErrorCode, ServeError};
use crate::replication::Role;
use crate::service::{CleaningService, Reply, StorageBinding};
use crate::session::SessionError;
use cerfix_storage::{Storage, SyncError};
use std::sync::atomic::Ordering;
use std::sync::PoisonError;

impl CleaningService {
    /// The gate every op whose row says `writes` passes before it runs:
    /// the first of [`write_refusals`](Self::write_refusals), if any.
    /// Reads stay unaffected.
    pub(crate) fn check_writable(&self) -> Result<(), ServeError> {
        self.write_refusals().next().map_or(Ok(()), Err)
    }

    /// Why this node refuses mutations right now — evaluated as it is
    /// walked, so a writable node pays the four checks and no allocation.
    /// Mutations this node must not accept: a follower is read-only
    /// (redirect to its primary), and a deposed primary, one that has
    /// seen a replica cursor from a higher epoch, is fenced. Mutations
    /// the storage layer cannot honor: a full disk makes the node
    /// read-only, and a journal poisoned by an fsync failure refuses
    /// them — accepting a mutation that can never reach disk would be
    /// an ack the node cannot keep. The health probe names the same
    /// conditions in the same words.
    fn write_refusals(&self) -> impl Iterator<Item = ServeError> + '_ {
        let checks: [fn(&CleaningService) -> Option<ServeError>; 4] = [
            |service| match service.role() {
                Role::Primary => None,
                Role::Follower { primary } => Some(
                    ErrorCode::NotPrimary
                        .error(format!(
                            "this node is a read-only follower; primary is {primary}"
                        ))
                        .redirect_to(&primary),
                ),
            },
            |service| {
                let seen = service
                    .inner
                    .replication
                    .max_epoch_seen
                    .load(Ordering::Acquire);
                let epoch = service.storage().map_or(0, Storage::epoch);
                (seen > epoch).then(|| {
                    ErrorCode::StaleEpoch.error(format!(
                        "fenced at epoch {epoch} by a replica at epoch {seen}; \
                         this node is no longer primary"
                    ))
                })
            },
            |service| {
                service.is_degraded().then(|| {
                    ErrorCode::Degraded
                        .error("disk_full — service is read-only until disk space returns")
                })
            },
            |service| {
                let err = service.storage()?.journal().poisoned()?;
                Some(ErrorCode::StorageError.error(format!(
                    "journal poisoned by fsync failure ({err}); \
                     mutations refused until operator intervention or re-sync"
                )))
            },
        ];
        checks.into_iter().filter_map(move |check| check(self))
    }

    /// True while the service is in degraded read-only mode.
    pub fn is_degraded(&self) -> bool {
        self.inner.degraded.load(Ordering::Acquire)
    }

    /// True while the journal is poisoned by an fsync failure (distinct
    /// from [`is_degraded`](Self::is_degraded): poison is permanent
    /// until a snapshot rebuilds the journal file).
    pub fn is_poisoned_journal(&self) -> bool {
        self.storage()
            .is_some_and(|storage| storage.journal().poisoned().is_some())
    }

    /// Wait for `seq` to be durable and translate the outcome into the
    /// protocol's error contract. The mutation is already applied in
    /// memory and queued in the journal, so every failure here is an
    /// honest "applied but not yet durable" answer (the quorum-timeout
    /// precedent), never a silent ack:
    ///
    /// * ENOSPC flips the degraded latch (read-only until space
    ///   returns; the queued frame lands on a later flush).
    /// * A poisoned journal (fsync failure) is announced once to the
    ///   diag log and reported as `storage_error` — fsyncgate: the page
    ///   cache may have dropped the dirty page, so retrying locally
    ///   could silently lose the write.
    pub(crate) fn sync_commit(&self, binding: &StorageBinding, seq: u64) -> Result<(), ServeError> {
        let synced = binding.storage.sync(seq);
        match &synced {
            Err(SyncError::WriteFailed {
                error,
                enospc: true,
            }) => self.enter_degraded(&format!("journal write: {error}")),
            Err(SyncError::Poisoned { error }) => self.note_poisoned(error),
            _ => {}
        }
        Ok(synced?)
    }

    /// Flip the degraded latch on (idempotent); log the transition.
    pub(crate) fn enter_degraded(&self, cause: &str) {
        if !self.inner.degraded.swap(true, Ordering::AcqRel) {
            self.inner.diag.warn(
                Subsystem::Journal,
                format_args!("degraded to read-only: disk full ({cause})"),
            );
        }
    }

    /// Flip the degraded latch off (idempotent); log the recovery.
    fn leave_degraded(&self) {
        if self.inner.degraded.swap(false, Ordering::AcqRel) {
            self.inner.diag.info(
                Subsystem::Journal,
                format_args!("recovered from read-only degradation: disk space is back"),
            );
        }
    }

    /// Announce a journal poisoning to the diag log exactly once per
    /// poisoning (the latch re-arms if a follower re-sync clears it).
    pub(crate) fn note_poisoned(&self, error: &str) {
        if !self.inner.poison_logged.swap(true, Ordering::AcqRel) {
            self.inner.diag.error(
                Subsystem::Journal,
                format_args!("journal poisoned by fsync failure: {error}"),
            );
        }
    }

    /// Periodic storage-fault sweep, run by the housekeeper alongside
    /// the health probe: announce journal poisoning, surface new
    /// audit-spill write errors, and drive the degraded latch from the
    /// free-space watermark (enter when space is low, leave when space
    /// is back *and* the journal is writing cleanly again). Public so
    /// embedders with their own runtime — and the disk-fault harness —
    /// can run the sweep on their own clock.
    pub fn probe_storage(&self) {
        let Some(binding) = &self.inner.storage else {
            return;
        };
        match binding.storage.journal().poisoned() {
            Some(err) => self.note_poisoned(&err),
            None => self.inner.poison_logged.store(false, Ordering::Release),
        }
        let spill_errors = binding.storage.spill().write_errors();
        let seen = self
            .inner
            .spill_errors_seen
            .swap(spill_errors, Ordering::AcqRel);
        if spill_errors > seen {
            self.inner.diag.error(
                Subsystem::Journal,
                format_args!(
                    "audit spill write failed ({} new, {spill_errors} total): {}",
                    spill_errors - seen,
                    binding
                        .storage
                        .spill()
                        .last_error()
                        .unwrap_or_else(|| "unknown".into())
                ),
            );
        }
        let watermark = self.inner.config.min_free_bytes;
        let free = binding
            .storage
            .free_bytes()
            .or_else(|| crate::fsprobe::free_bytes(&binding.storage.config().dir));
        let journal_clean = binding.storage.journal().last_error().is_none();
        match free {
            Some(free) if watermark > 0 && free < watermark => {
                self.enter_degraded(&format!(
                    "{free} free bytes under the {watermark} watermark"
                ));
            }
            Some(free) if journal_clean && free >= watermark => self.leave_degraded(),
            // Probe unavailable: leave only on clean journal writes —
            // the pending frames landing is itself the space signal.
            None if journal_clean => self.leave_degraded(),
            _ => {}
        }
    }

    /// Evaluate health now and log ready/not-ready transitions to the
    /// diagnostic log. The housekeeper calls this every sweep so
    /// transitions get recorded even while nobody is probing.
    pub(crate) fn probe_health(&self) -> HealthReport {
        let report = self.health_eval();
        let verdict = if report.ready { 1 } else { 2 };
        let prev = self.inner.last_ready.swap(verdict, Ordering::AcqRel);
        if prev != verdict {
            if report.ready {
                self.inner
                    .diag
                    .info(Subsystem::Health, format_args!("ready"));
            } else {
                self.inner.diag.warn(
                    Subsystem::Health,
                    format_args!("not ready: {}", report.causes.join("; ")),
                );
            }
        }
        report
    }

    /// Compute liveness/readiness from real signals: journal flusher
    /// alive and error-free, fsync p99 under the slow-request budget,
    /// worker queue not saturated, and the role-specific conditions —
    /// a primary must not be fenced by a higher-epoch replica, a
    /// follower must not lag its primary past `max_lag`.
    fn health_eval(&self) -> HealthReport {
        let mut live = true;
        let mut causes = Vec::new();
        if self.shutdown_requested() {
            live = false;
            causes.push("shutting down".to_string());
        }
        // What refuses mutations makes the node not ready, under the
        // name the refused mutation is told. A follower is read-only by
        // role, not by fault.
        let mut poisoned = false;
        for refusal in self.write_refusals() {
            match refusal.code() {
                ErrorCode::NotPrimary => continue,
                // fsyncgate: a failed fsync may have dropped dirty
                // pages, so the journal is permanently untrustworthy —
                // a liveness failure, not a transient hiccup.
                ErrorCode::StorageError => (live, poisoned) = (false, true),
                _ => {}
            }
            causes.push(refusal.to_string());
        }
        if let Some(binding) = &self.inner.storage {
            let journal = binding.storage.journal();
            // A poisoned journal is named above; short of that:
            if !poisoned {
                if !journal.is_alive() {
                    live = false;
                    causes.push("journal flusher stopped (disk dead or shut down)".to_string());
                } else if let Some(err) = journal.last_error() {
                    // A failed *write* is retried by the flusher with the
                    // frames intact — degraded but recoverable, so the
                    // node stays live and reports not-ready.
                    causes.push(format!("journal write error (retrying): {err}"));
                }
            }
            // The slow-request threshold doubles as the fsync budget:
            // commits block on fsync, so a p99 past it means acked
            // writes are regularly crossing the slow line.
            let budget_ns = self.inner.trace.slow_ns();
            let p99_ns = bucket_p99_ns(&journal.flush_profile().fsync_ns_buckets);
            if budget_ns > 0 && p99_ns > budget_ns {
                causes.push(format!(
                    "fsync p99 {}ms over the {}ms budget",
                    p99_ns / 1_000_000,
                    budget_ns / 1_000_000
                ));
            }
        }
        let depth = self.inner.pool.queue_depth();
        let bound = self.workers().max(1) * 256;
        if depth > bound {
            causes.push(format!(
                "worker queue depth {depth} over the saturation bound {bound}"
            ));
        }
        // Probes double as shed-level observations, so the shedder also
        // decays while no admission checks are running.
        self.observe_queue_depth(depth);
        let shed_level = self.inner.shedder.level();
        if shed_level > 0 {
            let shedding = ErrorCode::Overloaded.error(format!(
                "shedding at level {shed_level} (worker queue depth {depth}, watermark {})",
                self.inner.shedder.high()
            ));
            causes.push(shedding.to_string());
        }
        if self.inner.sessions.at_capacity() {
            // What the `session.create` that hits the quota is told.
            let max_sessions = self.inner.sessions.max_sessions();
            causes.push(ServeError::from(SessionError::Full { max_sessions }).to_string());
        }
        if self.is_draining() {
            let draining = ErrorCode::Draining.error("graceful drain in progress");
            causes.push(draining.to_string());
        }
        let role = self.role();
        let mut lag_seconds = 0.0;
        if let Role::Follower { primary } = &role {
            lag_seconds = self
                .inner
                .replication
                .tail_current_at
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .elapsed()
                .as_secs_f64();
            let max = self.inner.config.max_lag.as_secs_f64();
            if lag_seconds > max {
                causes.push(format!(
                    "replication lag {lag_seconds:.1}s past max-lag {max:.1}s \
                     (primary {primary})"
                ));
            }
        }
        let ready = live && causes.is_empty();
        HealthReport {
            live,
            ready,
            causes,
            lag_seconds,
        }
    }

    /// `health`: liveness/readiness verdict with the reasons spelled
    /// out. Probing also logs ready/not-ready transitions.
    pub(crate) fn health_response(&self, reply: Reply<'_>) -> Result<(), ServeError> {
        let report = self.probe_health();
        let role = self.role();
        reply.send(|w| {
            w.field("role", role.name());
            w.field("live", report.live);
            w.field("ready", report.ready);
            w.field("degraded", self.is_degraded());
            w.array("causes", &report.causes, |w, cause| w.str_val(cause));
            if let Some(binding) = &self.inner.storage {
                w.field("epoch", binding.storage.epoch());
            }
            if let Role::Follower { primary } = &role {
                w.field("primary", primary);
                w.field("lag_seconds", report.lag_seconds);
                w.field("max_lag_seconds", self.inner.config.max_lag.as_secs_f64());
            }
        })
    }
}

/// One health evaluation: alive, ready, and the reasons it is not.
pub(crate) struct HealthReport {
    /// Process and journal flusher are up.
    pub live: bool,
    /// Fit to serve its role right now.
    pub ready: bool,
    /// Human-readable reasons `ready` is false (empty when ready).
    pub causes: Vec<String>,
    /// A follower's lag behind its primary in seconds (0 on primaries).
    pub lag_seconds: f64,
}

/// 99th-percentile upper bound from `(exclusive upper bound, count)`
/// histogram buckets; 0 with no observations.
fn bucket_p99_ns(buckets: &[(u64, u64)]) -> u64 {
    let total: u64 = buckets.iter().map(|&(_, count)| count).sum();
    if total == 0 {
        return 0;
    }
    let rank = (total * 99).div_ceil(100).max(1);
    let mut cumulative = 0;
    for &(bound, count) in buckets {
        cumulative += count;
        if cumulative >= rank {
            return bound;
        }
    }
    buckets.last().map_or(0, |&(bound, _)| bound)
}
