//! # cerfix-bench — experiment harness
//!
//! Shared utilities for the `exp_*` binaries (one per table/figure of the
//! evaluation).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use cerfix::{clean_stream, DataMonitor, OracleUser, StreamReport};
use cerfix_gen::{make_workload, NoiseSpec, Scenario, Workload};
use cerfix_relation::render_table;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// Run `f`, returning its result and wall-clock time.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Print a titled ASCII table (header + rows) to stdout.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let header: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    print!("{}", render_table(&header, rows));
}

/// Format a duration in adaptive units.
pub fn fmt_duration(d: Duration) -> String {
    let us = d.as_micros();
    if us < 1_000 {
        format!("{us}µs")
    } else if us < 1_000_000 {
        format!("{:.2}ms", us as f64 / 1_000.0)
    } else {
        format!("{:.2}s", us as f64 / 1_000_000.0)
    }
}

/// Format a fraction as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Deterministic RNG for an experiment, keyed by name so experiments do
/// not perturb each other when rearranged.
pub fn rng_for(experiment: &str) -> StdRng {
    let mut seed = 0xCE2F1Au64;
    for b in experiment.bytes() {
        seed = seed.wrapping_mul(31).wrapping_add(b as u64);
    }
    StdRng::seed_from_u64(seed)
}

/// Generate a dirty workload for a scenario.
pub fn workload_for(
    scenario: &Scenario,
    n_tuples: usize,
    noise_rate: f64,
    rng: &mut StdRng,
) -> Workload {
    make_workload(
        &scenario.universe,
        n_tuples,
        &NoiseSpec::with_rate(noise_rate),
        rng,
    )
}

/// Clean a workload through a monitor with oracle users (the demo
/// protocol: the user knows their own record and follows suggestions).
pub fn clean_with_oracle(monitor: &DataMonitor<'_>, workload: &Workload) -> StreamReport {
    let truths = workload.truth.clone();
    clean_stream(monitor, workload.dirty.iter().cloned(), move |idx, _| {
        Box::new(OracleUser::new(truths[idx].clone()))
    })
    .expect("consistent scenario rules never conflict at run time")
}

/// Scale factor from argv: `--scale=N` (default 1) shrinks or grows the
/// experiment sizes so the suite can run quickly in CI and at full size
/// for the recorded results.
pub fn scale_from_args() -> usize {
    std::env::args()
        .find_map(|a| a.strip_prefix("--scale=").and_then(|v| v.parse().ok()))
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_and_formatting() {
        let (v, d) = time(|| 21 * 2);
        assert_eq!(v, 42);
        assert!(d.as_nanos() > 0);
        assert!(fmt_duration(Duration::from_micros(500)).ends_with("µs"));
        assert!(fmt_duration(Duration::from_millis(5)).ends_with("ms"));
        assert!(fmt_duration(Duration::from_secs(2)).ends_with('s'));
        assert_eq!(pct(0.2), "20.0%");
    }

    #[test]
    fn rng_is_keyed() {
        use rand::Rng;
        let a: u64 = rng_for("exp1").gen();
        let b: u64 = rng_for("exp1").gen();
        let c: u64 = rng_for("exp2").gen();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn oracle_cleaning_round_trips() {
        let mut rng = rng_for("lib-test");
        let scenario = cerfix_gen::uk::scenario(20, &mut rng);
        let master = scenario.master_data();
        let monitor = DataMonitor::new(&scenario.rules, &master);
        let workload = workload_for(&scenario, 10, 0.3, &mut rng);
        let report = clean_with_oracle(&monitor, &workload);
        assert_eq!(report.len(), 10);
        assert_eq!(report.complete_count(), 10);
        // Every cleaned tuple equals its truth.
        for (outcome, truth) in report.outcomes.iter().zip(workload.truth.iter()) {
            assert_eq!(&outcome.tuple, truth);
        }
    }
}
