//! The end-to-end run: set-up (repeated, timed) → warm-up → fixed-work
//! slice → measurement pairs until `--seconds` ends → checks →
//! tear-down.

use crate::alloc;
use crate::client::{Client, Tally};
use crate::drill::crash_drill;
use crate::drive::{driver_for, Driver};
use crate::load::{Inputs, Workload, Worth};
use crate::refk::{RefKernel, REF_NOMINAL_US};
use crate::rig::{set_up, Rig, Scratch};
use crate::span::Recorder;
use crate::stats::{fast, median, percentile};
use cerfix_server::{Frontend, MetricsSnapshot};
use std::time::{Duration, Instant};

/// Share of the run the repeated set-ups may take …
const SETUP_SHARE: f64 = 0.15;
/// … but never fewer than this many.
const SETUP_MIN_REPEATS: usize = 5;
/// Blocks of the fixed-work slice: the counts and `rss_mb` are taken
/// over exactly this much work, however fast the server is.
pub const SLICE_BLOCKS: usize = 32;
/// Time kept back at the end of the run for the checks and tear-down.
const RESERVE: Duration = Duration::from_millis(1500);

/// One measurement pair: `refk`, a work block, `refk`.
#[derive(Debug, Clone, Copy)]
pub struct Pair {
    pub ref_before_us: f64,
    pub work_us: f64,
    /// CPU time the whole process spent inside the work block.
    pub work_cpu_us: f64,
    pub ref_after_us: f64,
}

/// Block timings of a slice, and the figures derived from them.
#[derive(Debug, Default)]
pub struct Timings {
    pub pairs: Vec<Pair>,
}

impl Timings {
    /// Room for `pairs` pairs: the measured region never reallocates.
    pub fn with_capacity(pairs: usize) -> Timings {
        Timings {
            pairs: Vec::with_capacity(pairs),
        }
    }

    fn refs(&self) -> Vec<f64> {
        self.pairs
            .iter()
            .flat_map(|p| [p.ref_before_us, p.ref_after_us])
            .collect()
    }

    /// Fast decile of the reference kernel, µs.
    pub fn ref_fast_us(&self) -> f64 {
        fast(&self.refs())
    }

    /// Median ÷ fast quantile of the reference kernel: how disturbed the
    /// run was.
    pub fn ref_spread(&self) -> f64 {
        let refs = self.refs();
        median(&refs) / fast(&refs).max(f64::MIN_POSITIVE)
    }

    /// The gated timing, µs per unit on the calibration host at its
    /// quiet speed: the fast quantile of the work blocks, each with its
    /// CPU time rescaled by `REF_NOMINAL_US` ÷ fast(`refk` block).
    ///
    /// Only the time the process was on the CPU scales with the host's
    /// speed; time spent asleep on a timer (the follower's poll
    /// interval under `entry_quorum`) does not, so it is carried over
    /// as measured. For a block that never sleeps this is fast(work) ÷
    /// fast(`refk`) × `REF_NOMINAL_US`.
    pub fn normalised_unit_us(&self, units_per_block: usize) -> f64 {
        let scale = REF_NOMINAL_US / self.ref_fast_us().max(f64::MIN_POSITIVE);
        let blocks: Vec<f64> = self
            .pairs
            .iter()
            .map(|p| {
                let cpu = p.work_cpu_us.min(p.work_us);
                (p.work_us - cpu) + cpu * scale
            })
            .collect();
        fast(&blocks) / units_per_block as f64
    }

    /// Raw block time ÷ units at quantile `p`, µs (ungated).
    pub fn raw_unit_us(&self, p: f64, units_per_block: usize) -> f64 {
        let works: Vec<f64> = self.pairs.iter().map(|p| p.work_us).collect();
        percentile(&works, p) / units_per_block as f64
    }
}

#[cfg(target_os = "linux")]
extern "C" {
    fn clock_gettime(clock: i32, spec: *mut [i64; 2]) -> i32;
}

/// CPU time consumed by every thread of this process, µs
/// (`CLOCK_PROCESS_CPUTIME_ID`).
#[cfg(target_os = "linux")]
pub fn process_cpu_us() -> f64 {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut spec = [0i64; 2];
    // SAFETY: `spec` is a live `struct timespec` (two 64-bit fields on
    // every 64-bit Linux target) the kernel fills in.
    let ok = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut spec) } == 0;
    if ok {
        spec[0] as f64 * 1e6 + spec[1] as f64 / 1e3
    } else {
        0.0
    }
}

#[cfg(not(target_os = "linux"))]
pub fn process_cpu_us() -> f64 {
    0.0
}

/// Time one closure in µs.
pub fn time_us(f: impl FnOnce()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64() * 1e6
}

/// Run measurement pairs until `enough` says so.
pub fn measure_pairs(
    refk: &mut RefKernel,
    driver: &mut dyn Driver,
    client: &mut Client,
    timings: &mut Timings,
    spans: &mut Option<Recorder>,
    mut enough: impl FnMut(usize) -> bool,
) {
    while !enough(timings.pairs.len()) {
        if timings.pairs.len() == timings.pairs.capacity() {
            return; // never grow inside the measured region
        }
        let ref_before_us = time_us(|| {
            refk.block();
        });
        let cpu_before = process_cpu_us();
        let work_us = time_us(|| driver.block(client, spans));
        let work_cpu_us = process_cpu_us() - cpu_before;
        let ref_after_us = time_us(|| {
            refk.block();
        });
        timings.pairs.push(Pair {
            ref_before_us,
            work_us,
            work_cpu_us,
            ref_after_us,
        });
        driver.deep_check(client);
    }
}

/// `setup_s`: repeated set-ups, each bracketed by `refk` blocks,
/// normalised like every other gated timing. Returns the figure and
/// the last rig, still running.
pub fn repeated_set_up(
    workload: Workload,
    inputs: &Inputs,
    scratch: &Scratch,
    refk: &mut RefKernel,
    budget: Duration,
    min_repeats: usize,
) -> std::io::Result<(f64, usize, Rig)> {
    let started = Instant::now();
    let mut refs = Vec::new();
    let mut set_ups = Vec::new();
    loop {
        let relation = inputs.fixture.relation.clone();
        refs.push(time_us(|| {
            refk.block();
        }));
        let begun = Instant::now();
        let rig = set_up(workload, inputs, relation, scratch, Frontend::auto())?;
        set_ups.push(begun.elapsed().as_secs_f64());
        refs.push(time_us(|| {
            refk.block();
        }));
        if set_ups.len() >= min_repeats && started.elapsed() >= budget {
            let setup_s = fast(&set_ups) / fast(&refs).max(f64::MIN_POSITIVE) * REF_NOMINAL_US;
            return Ok((setup_s, set_ups.len(), rig));
        }
        rig.tear_down()?;
    }
}

/// `VmHWM` of this process in MB (0 where `/proc` does not say).
pub fn vm_hwm_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let kb = status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))?;
            kb.split_whitespace().next()?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The end-to-end figures of one run.
#[derive(Debug)]
pub struct EndToEnd {
    pub setup_s: f64,
    pub setup_repeats: usize,
    pub unit_us: f64,
    pub allocs_per_unit: f64,
    pub wire_bytes_per_unit: f64,
    pub rss_mb: f64,
    pub timings: Timings,
    pub units_per_block: usize,
    pub tally: Tally,
}

/// Compare what the server counted with what the load was worth.
pub fn check_counters(
    tally: &mut Tally,
    before: &MetricsSnapshot,
    after: &MetricsSnapshot,
    worth: Worth,
) {
    // A follower's `replica.sync` polls are requests too, but not load.
    let syncs = |m: &MetricsSnapshot| {
        m.latency
            .iter()
            .find(|op| op.op == "replica.sync")
            .map_or(0, |op| op.count)
    };
    let moved = [
        (
            "requests",
            (after.requests - before.requests) - (syncs(after) - syncs(before)),
            worth.requests,
        ),
        (
            "tuples_cleaned",
            after.tuples_cleaned - before.tuples_cleaned,
            worth.tuples_cleaned,
        ),
        (
            "cells_fixed",
            after.cells_fixed - before.cells_fixed,
            worth.cells_fixed,
        ),
        (
            "sessions_committed",
            after.sessions_committed - before.sessions_committed,
            worth.sessions_committed,
        ),
    ];
    for (name, got, expected) in moved {
        tally.check(got == expected, || {
            format!("server counter `{name}` moved by {got}, the load was worth {expected}")
        });
    }
    tally.check(after.errors == before.errors, || {
        format!("server counted {} errors", after.errors - before.errors)
    });
}

/// Run `workload` end to end for `seconds`. With `smoke_load` the run
/// is a smoke: one set-up, then that many seconds of load.
pub fn run(
    workload: Workload,
    inputs: &Inputs,
    seconds: f64,
    scratch: &Scratch,
    smoke_load: Option<f64>,
) -> std::io::Result<EndToEnd> {
    let started = Instant::now();
    let mut refk = RefKernel::new();
    let (setup_budget, setup_repeats) = match smoke_load {
        Some(_) => (Duration::ZERO, 1),
        None => (
            Duration::from_secs_f64(seconds * SETUP_SHARE),
            SETUP_MIN_REPEATS,
        ),
    };
    let (setup_s, setup_repeats, rig) = repeated_set_up(
        workload,
        inputs,
        scratch,
        &mut refk,
        setup_budget,
        setup_repeats,
    )?;
    let (deadline, slice_blocks) = match smoke_load {
        Some(load) => (
            Instant::now() + Duration::from_secs_f64(load),
            SLICE_BLOCKS / 4,
        ),
        None => (
            started + Duration::from_secs_f64(seconds) - RESERVE,
            SLICE_BLOCKS,
        ),
    };
    let counters_before = rig.settled_metrics();
    let mut client = Client::connect(rig.handle.addr())?;
    for failure in &inputs.oracle_failures {
        client.tally.check(false, || failure.clone());
    }
    let mut driver = driver_for(inputs);
    driver.warm_up(&mut client);
    let units_per_block = driver.units_per_block();

    let mut timings = Timings::with_capacity(1 << 16);
    // The fixed-work slice: counts are differences across it.
    let allocs_before = alloc::count() - client.check_allocs;
    let bytes_before = client.bytes_out + client.bytes_in;
    measure_pairs(
        &mut refk,
        driver.as_mut(),
        &mut client,
        &mut timings,
        &mut None,
        |done| done >= slice_blocks,
    );
    let slice_units = (slice_blocks * units_per_block) as f64;
    let allocs_per_unit =
        (alloc::count() - client.check_allocs - allocs_before) as f64 / slice_units;
    let wire_bytes_per_unit =
        (client.bytes_out + client.bytes_in - bytes_before) as f64 / slice_units;
    let rss_mb = vm_hwm_mb();

    measure_pairs(
        &mut refk,
        driver.as_mut(),
        &mut client,
        &mut timings,
        &mut None,
        |_| Instant::now() >= deadline,
    );

    let counters_after = rig.settled_metrics();
    check_counters(
        &mut client.tally,
        &counters_before,
        &counters_after,
        driver.worth(),
    );
    drop(driver);
    let Client { mut tally, .. } = client;
    if workload == Workload::EntryDurable {
        crash_drill(inputs, &rig, &mut tally);
    }
    rig.tear_down()?;
    Ok(EndToEnd {
        setup_s,
        setup_repeats,
        unit_us: timings.normalised_unit_us(units_per_block),
        allocs_per_unit,
        wire_bytes_per_unit,
        rss_mb,
        timings,
        units_per_block,
        tally,
    })
}
