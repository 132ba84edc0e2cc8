//! Experiment T1 — certain fixes vs heuristic repair (paper §1's claim).
//!
//! The paper motivates CerFix by the failure mode of heuristic,
//! constraint-based repair: on Example 1's tuple such methods "may opt to
//! change `t[city]` to Ldn; this does not fix the erroneous `t[AC]` and
//! worse, messes up the correct attribute `t[city]`". This experiment
//! quantifies that claim: over noisy UK and HOSP streams, it scores
//!
//! * **CerFix** (monitor + oracle user following suggestions), and
//! * **heuristic** cost-based CFD repair (Bohannon-style greedy over
//!   CFDs mined from the same master data)
//!
//! by cell precision (changed cells that are now correct — certain fixes
//! guarantee 1.0), recall (erroneous cells corrected) and the number of
//! previously-correct cells each method *broke*.

use cerfix::DataMonitor;
use cerfix_baseline::{active_domains, mine_cfd, HeuristicRepair};
use cerfix_bench::{clean_with_oracle, print_table, rng_for, scale_from_args, workload_for};
use cerfix_gen::{evaluate_stream, hosp, uk, Scenario};
use cerfix_relation::Tuple;

fn heuristic_for(scenario: &Scenario) -> HeuristicRepair {
    // Mine ψ-style constant CFDs from the master data for the column
    // pairs the scenario's rules relate.
    let pairs: &[(&str, &str)] = match scenario.name {
        "uk" => &[
            ("AC", "city"),
            ("zip", "city"),
            ("zip", "AC"),
            ("zip", "str"),
        ],
        "hosp" => &[
            ("zip", "city"),
            ("zip", "state"),
            ("measure", "mname"),
            ("measure", "condition"),
            ("provider", "hospital"),
        ],
        _ => &[],
    };
    let mut cfds = Vec::new();
    for (i, (lhs, rhs)) in pairs.iter().enumerate() {
        let cfd = mine_cfd(
            format!("mined{i}"),
            &scenario.input,
            &scenario.master,
            lhs,
            rhs,
            50_000,
        )
        .expect("columns exist in both schemas");
        cfds.push(cfd);
    }
    let domains = active_domains(&scenario.input, &scenario.master);
    HeuristicRepair::new(cfds, domains)
}

fn run_scenario(scenario: &Scenario, noise_rates: &[f64], n_tuples: usize) -> Vec<Vec<String>> {
    let master = scenario.master_data();
    let monitor = DataMonitor::new(&scenario.rules, &master);
    let heuristic = heuristic_for(scenario);
    let mut rows = Vec::new();
    for &noise in noise_rates {
        let mut rng = rng_for(&format!("t1-{}-{noise}", scenario.name));
        let workload = workload_for(scenario, n_tuples, noise, &mut rng);

        // CerFix arm: the whole interactive system (user validations +
        // rule fixes) is scored, with the user's effort reported in its
        // own column so the comparison stays honest — the heuristic takes
        // zero user input but pays for it in precision.
        let report = clean_with_oracle(&monitor, &workload);
        let cerfix_tuples: Vec<Tuple> = report.outcomes.iter().map(|o| o.tuple.clone()).collect();
        let eval_cerfix = evaluate_stream(&workload.dirty, &cerfix_tuples, &workload.truth);

        // Heuristic arm.
        let outs = heuristic.repair_stream(&workload.dirty);
        let repaired: Vec<Tuple> = outs.iter().map(|o| o.tuple.clone()).collect();
        let eval_heur = evaluate_stream(&workload.dirty, &repaired, &workload.truth);

        for (method, eval, effort) in [
            (
                "CerFix",
                eval_cerfix,
                format!(
                    "{:.2}",
                    report.total_user_validated() as f64 / report.len() as f64
                ),
            ),
            ("heuristic-CFD", eval_heur, "0.00".into()),
        ] {
            rows.push(vec![
                scenario.name.into(),
                format!("{:.0}%", noise * 100.0),
                method.into(),
                format!("{:.3}", eval.precision().unwrap_or(1.0)),
                format!("{:.3}", eval.recall().unwrap_or(0.0)),
                format!("{:.3}", eval.f1().unwrap_or(0.0)),
                eval.broke_correct.to_string(),
                eval.cells_changed.to_string(),
                effort,
            ]);
        }
    }
    rows
}

fn main() {
    let scale = scale_from_args();
    let n_tuples = 500 * scale;
    let noise_rates = [0.1, 0.2, 0.3, 0.4, 0.5];

    let mut rng = rng_for("t1-setup");
    let scenarios = vec![
        uk::scenario(1_000 * scale, &mut rng),
        hosp::scenario(1_000 * scale, &mut rng),
    ];

    let mut rows = Vec::new();
    for scenario in &scenarios {
        rows.extend(run_scenario(scenario, &noise_rates, n_tuples));
    }
    print_table(
        "T1: fix quality — certain fixes vs heuristic repair",
        &[
            "scenario",
            "noise",
            "method",
            "precision",
            "recall",
            "F1",
            "broke-correct",
            "cells-changed",
            "user attrs/tuple",
        ],
        &rows,
    );
    println!(
        "\nshape checks: CerFix precision is 1.000 at every noise level (fixes are\n\
         certain); the heuristic's precision is below 1 and it breaks correct cells,\n\
         increasingly with noise — the paper's §1 motivating claim."
    );
}
