//! `ledger`: the repository's one benchmark. See `README.md`.
//!
//! ```text
//! ledger --workload NAME --seed N --seconds S --trace 0|1   one run
//! ledger --aa N [--seconds S] [--workload NAME]            A/A noise table
//! ledger --smoke                                           all four, ≈ 1 s each
//! ```

mod aa;
mod alloc;
mod catalog;
mod client;
mod drill;
mod drive;
mod fsx;
mod load;
mod pin;
mod probes;
mod refk;
mod rig;
mod run;
mod span;
mod stats;
mod traced;

use client::Tally;
use load::Workload;
use probes::Metric;
use std::process::ExitCode;

#[global_allocator]
static ALLOCATOR: alloc::CountingAlloc = alloc::CountingAlloc;

/// Command-line options; every run needs the first four.
#[derive(Debug, Default)]
struct Options {
    workload: Option<Workload>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<bool>,
    aa: Option<usize>,
    smoke: bool,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut options = Options::default();
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                options.workload = Some(
                    Workload::parse(name).ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => options.seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let seconds: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1.0..=600.0).contains(&seconds) {
                    return Err("--seconds must be between 1 and 600".into());
                }
                options.seconds = Some(seconds);
            }
            "--trace" => {
                options.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                })
            }
            "--aa" => {
                let n: usize = value()?.parse().map_err(|e| format!("--aa: {e}"))?;
                if !(2..=100).contains(&n) {
                    return Err("--aa takes 2 to 100 runs per set".into());
                }
                options.aa = Some(n);
            }
            "--smoke" => options.smoke = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(options)
}

/// Print every metric by name and unit, then the result line the
/// driver reads: one JSON object, last on standard output.
fn emit(tally: &Tally, metrics: &[Metric]) {
    for m in metrics {
        println!("{:<40} {:>16.4} {}", m.name, m.value, m.unit);
    }
    if let Some(why) = &tally.first_failure {
        println!("first failure: {why}");
    }
    let mut line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.failed == 0,
        tally.attempted.max(1),
        tally.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            line.push_str(", ");
        }
        line.push_str(&format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    line.push_str("}}");
    println!("{line}");
}

fn one_run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    pinned: Option<usize>,
) -> std::io::Result<bool> {
    let inputs = load::generate(workload, seed);
    let scratch = rig::Scratch::new()?;
    println!(
        "ledger: workload {} seed {seed} seconds {seconds} trace {} pinned-to {pinned:?} workers {}",
        workload.name(),
        u8::from(trace),
        load::service_config().workers
    );
    if trace {
        let layered = traced::run(workload, &inputs, seconds, &scratch, pinned.is_some())?;
        for line in &layered.shares {
            println!("{line}");
        }
        println!("spans written to {}", layered.spans_path.display());
        let metrics = layer_metrics(&layered.metrics, layered.tally.failed);
        emit(&layered.tally, &metrics);
        Ok(layered.tally.failed == 0)
    } else {
        let result = run::run(workload, &inputs, seconds, &scratch, None)?;
        let upb = result.units_per_block;
        println!(
            "pairs {} set-ups {} ref fast {:.1} us spread {:.3} | raw unit p10 {:.3} p50 {:.3} p99 {:.3} us",
            result.timings.pairs.len(),
            result.setup_repeats,
            result.timings.ref_fast_us(),
            result.timings.ref_spread(),
            result.timings.raw_unit_us(0.10, upb),
            result.timings.raw_unit_us(0.50, upb),
            result.timings.raw_unit_us(0.99, upb),
        );
        let values = [
            result.setup_s,
            result.unit_us,
            result.allocs_per_unit,
            result.wire_bytes_per_unit,
            result.rss_mb,
        ];
        let metrics: Vec<Metric> = catalog::END_TO_END
            .iter()
            .zip(values)
            .map(|(m, value)| Metric {
                name: m.name,
                unit: m.unit,
                value,
            })
            .collect();
        emit(&result.tally, &metrics);
        Ok(result.tally.failed == 0)
    }
}

/// Every catalogued per-layer metric, in catalogue order. One that no
/// probe produced — the server does not expose it, or it does not
/// apply to the workload — reads 0.
fn layer_metrics(produced: &[Metric], failed: u64) -> Vec<Metric> {
    catalog::PER_LAYER
        .iter()
        .map(|&(name, unit, _)| Metric {
            name,
            unit,
            value: match name {
                "check.failed_operations" => failed as f64,
                _ => produced
                    .iter()
                    .find(|m| m.name == name)
                    .map_or(0.0, |m| m.value),
            },
        })
        .collect()
}

/// `--smoke`: all four workloads, one set-up each, about a second of
/// load, no probes, the oracle on.
fn smoke() -> std::io::Result<bool> {
    let mut ok = true;
    for workload in Workload::ALL {
        let inputs = load::generate(workload, 1);
        let scratch = rig::Scratch::new()?;
        let result = run::run(workload, &inputs, 1.0, &scratch, Some(1.0))?;
        println!(
            "smoke {:<14} attempted {:>8} failed {} unit_us {:.3}{}",
            workload.name(),
            result.tally.attempted,
            result.tally.failed,
            result.unit_us,
            result
                .tally
                .first_failure
                .as_ref()
                .map_or(String::new(), |why| format!(" — {why}")),
        );
        ok &= result.tally.failed == 0;
    }
    Ok(ok)
}

fn main() -> ExitCode {
    // Before any thread exists: children inherit the mask.
    let pinned = pin::pin_to_last_cpu();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse(&args) {
        Ok(options) => options,
        Err(why) => {
            eprintln!("ledger: {why}");
            return ExitCode::from(2);
        }
    };
    let outcome = if options.smoke {
        smoke()
    } else if let Some(n) = options.aa {
        aa::run(n, options.seconds.unwrap_or(30.0), options.workload)
    } else {
        match (
            options.workload,
            options.seed,
            options.seconds,
            options.trace,
        ) {
            (Some(workload), Some(seed), Some(seconds), Some(trace)) => {
                one_run(workload, seed, seconds, trace, pinned)
            }
            _ => {
                eprintln!("ledger: a run needs --workload, --seed, --seconds and --trace");
                return ExitCode::from(2);
            }
        }
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("ledger: {e}");
            ExitCode::from(3)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(text: &str) -> Vec<String> {
        text.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn a_metric_no_probe_produced_reads_zero() {
        let produced = [Metric {
            name: "wire.scan_ns_per_req",
            value: 84.5,
            unit: "ns",
        }];
        let all = layer_metrics(&produced, 2);
        assert_eq!(all.len(), catalog::PER_LAYER.len());
        let value = |name: &str| all.iter().find(|m| m.name == name).unwrap().value;
        assert_eq!(value("wire.scan_ns_per_req"), 84.5);
        assert_eq!(value("replication.quorum_wait_us"), 0.0);
        assert_eq!(value("check.failed_operations"), 2.0);
    }

    #[test]
    fn parses_the_drivers_command_line() {
        let o = parse(&args("--workload wire_hot --seed 7 --seconds 30 --trace 1")).unwrap();
        assert_eq!(o.workload, Some(Workload::WireHot));
        assert_eq!(
            (o.seed, o.seconds, o.trace),
            (Some(7), Some(30.0), Some(true))
        );
        assert!(parse(&args("--workload nope")).is_err());
        assert!(parse(&args("--trace 2")).is_err());
        assert!(parse(&args("--seconds 0")).is_err());
        assert!(parse(&args("--seed")).is_err());
    }
}
