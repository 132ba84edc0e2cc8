//! `--aa N`: two back-to-back sets of N runs per workload, every run a
//! process of its own at a seed of its own, as the driver makes them.
//! Prints, per metric × workload, each set's median, IQR ÷ median and
//! range ÷ median and the set-to-set difference; the README's noise
//! table is this output.

use crate::catalog::END_TO_END;
use crate::load::Workload;
use crate::stats::{median, quartiles};
use cerfix_server::wire::Json;
use std::process::Command;

/// The end-to-end metrics of one child run.
fn child_run(workload: Workload, seed: u64, seconds: f64) -> std::io::Result<Vec<f64>> {
    let exe = std::env::current_exe()?;
    let output = Command::new(exe)
        .args(["--workload", workload.name(), "--trace", "0"])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .output()?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let bad = |why: String| std::io::Error::new(std::io::ErrorKind::InvalidData, why);
    let last = stdout
        .lines()
        .last()
        .ok_or_else(|| bad(format!("{} seed {seed}: no output", workload.name())))?;
    let json =
        Json::parse(last).map_err(|e| bad(format!("{} seed {seed}: {e}", workload.name())))?;
    if !output.status.success() || json.get("correct").and_then(Json::as_bool) != Some(true) {
        return Err(bad(format!(
            "{} seed {seed} failed: {last}",
            workload.name()
        )));
    }
    END_TO_END
        .iter()
        .map(|m| {
            json.get("metrics")
                .and_then(|all| all.get(m.name)?.get("value")?.as_f64())
                .ok_or_else(|| bad(format!("{} seed {seed}: no {}", workload.name(), m.name)))
        })
        .collect()
}

/// Median, IQR ÷ median, range ÷ median of one set.
fn spread(values: &[f64]) -> (f64, f64, f64) {
    let mid = median(values);
    let (q1, q3) = quartiles(values);
    let (lo, hi) = values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        });
    let scale = if mid == 0.0 { 1.0 } else { mid };
    (mid, (q3 - q1) / scale, (hi - lo) / scale)
}

/// A value with about five significant digits, whatever its size.
fn sig(value: f64) -> String {
    match value.abs() {
        v if v >= 100.0 => format!("{value:.2}"),
        v if v >= 1.0 => format!("{value:.4}"),
        _ => format!("{value:.6}"),
    }
}

/// Run the A/A comparison; `Ok(false)` when any metric breaks the
/// rule: the two set medians differ by half the metric's bound or
/// more, or a set's IQR ÷ median reaches the bound.
pub fn run(n: usize, seconds: f64, only: Option<Workload>) -> std::io::Result<bool> {
    let workloads: Vec<Workload> = match only {
        Some(workload) => vec![workload],
        None => Workload::ALL.to_vec(),
    };
    println!(
        "A/A: 2 sets × {n} runs × {seconds} s per workload, a new seed and a new process per run"
    );
    println!("| workload | metric | bound | set A median | IQR/med | range/med | set B median | IQR/med | range/med | B vs A | verdict |");
    println!("|---|---|---|---|---|---|---|---|---|---|---|");
    let mut all_within = true;
    for workload in workloads {
        // sets[set][metric] = values
        let mut sets = vec![vec![Vec::with_capacity(n); END_TO_END.len()]; 2];
        for (set, columns) in sets.iter_mut().enumerate() {
            for i in 0..n {
                let seed = 1_000 * (set as u64 + 1) + i as u64;
                let values = child_run(workload, seed, seconds)?;
                for (column, value) in columns.iter_mut().zip(values) {
                    column.push(value);
                }
            }
        }
        for (m, metric) in END_TO_END.iter().enumerate() {
            let (a_mid, a_iqr, a_range) = spread(&sets[0][m]);
            let (b_mid, b_iqr, b_range) = spread(&sets[1][m]);
            let drift = if a_mid == 0.0 {
                0.0
            } else {
                (b_mid - a_mid) / a_mid
            };
            let within =
                drift.abs() < metric.bound / 2.0 && a_iqr < metric.bound && b_iqr < metric.bound;
            all_within &= within;
            println!(
                "| {} | {} | {:.2} | {} | {:.3} | {:.3} | {} | {:.3} | {:.3} | {:+.3} | {} |",
                workload.name(),
                metric.name,
                metric.bound,
                sig(a_mid),
                a_iqr,
                a_range,
                sig(b_mid),
                b_iqr,
                b_range,
                drift,
                if within { "ok" } else { "TOO NOISY" }
            );
        }
    }
    Ok(all_within)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_reports_median_iqr_and_range_as_shares() {
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        let (mid, iqr, range) = spread(&values);
        assert_eq!(mid, 5.5);
        assert!((iqr - 5.5 / 5.5).abs() < 1e-12, "quartiles 2.75 and 8.25");
        assert!((range - 9.0 / 5.5).abs() < 1e-12);
    }
}
