//! Experiment F4 — data auditing statistics (paper Fig. 4).
//!
//! Cleans dirty streams and prints the Fig. 4 statistics: per attribute,
//! the percentage of values validated by the user vs. fixed automatically
//! by CerFix. The paper reports *"in average, 20% of values are validated
//! by users while CerFix automatically fixes 80% of the data"*.
//!
//! The split is governed by rule coverage, not by noise: the user must
//! validate the attributes no rule can fix plus the evidence seeds. On
//! the HOSP-style scenario (the shape of the authors' experimental
//! datasets) that is exactly 2 of 10 attributes — the paper's 20%/80%.
//! The UK demo scenario's tiny 9-attribute schema has 3 inherently
//! user-only fields (phn, type, item), so its floor is higher (~50%);
//! both are reported.

use cerfix::{find_regions, AuditStats, DataMonitor, RegionFinderOptions};
use cerfix_bench::{clean_with_oracle, pct, print_table, rng_for, scale_from_args, workload_for};
use cerfix_gen::{hosp, uk, Scenario};

fn run(scenario: &Scenario, n_tuples: usize, noise: f64) -> (f64, f64, f64) {
    let master = scenario.master_data();
    // Pre-compute regions for initial suggestions, as the demo does.
    let regions = find_regions(
        &scenario.rules,
        &master,
        &scenario.universe,
        &RegionFinderOptions::default(),
    )
    .regions;
    let monitor = DataMonitor::new(&scenario.rules, &master).with_regions(regions);
    let mut rng = rng_for(&format!("f4-{}", scenario.name));
    let workload = workload_for(scenario, n_tuples, noise, &mut rng);
    let report = clean_with_oracle(&monitor, &workload);

    println!(
        "\n== F4: per-attribute audit statistics — {} (|Dm| = {}, {} tuples, noise {}) ==",
        scenario.name,
        scenario.master.len(),
        n_tuples,
        pct(noise)
    );
    let stats = AuditStats::from_log(monitor.audit());
    print!("{}", stats.render(&scenario.input));
    (
        report.user_fraction(),
        report.auto_fraction(),
        report.mean_rounds(),
    )
}

fn main() {
    let scale = scale_from_args();
    let n_tuples = 1_000 * scale;
    let noise = 0.3;

    let mut rng = rng_for("f4-setup");
    let uk_scenario = uk::scenario(1_000 * scale, &mut rng);
    let hosp_scenario = hosp::scenario(1_000 * scale, &mut rng);

    let (uk_user, uk_auto, uk_rounds) = run(&uk_scenario, n_tuples, noise);
    let (hosp_user, hosp_auto, hosp_rounds) = run(&hosp_scenario, n_tuples, noise);

    print_table(
        "F4: overall user/CerFix split (paper: ~20% user / ~80% CerFix)",
        &[
            "scenario",
            "arity",
            "user share",
            "cerfix share",
            "mean rounds",
        ],
        &[
            vec![
                "uk (demo example)".into(),
                uk_scenario.input.arity().to_string(),
                pct(uk_user),
                pct(uk_auto),
                format!("{uk_rounds:.2}"),
            ],
            vec![
                "hosp (study-style)".into(),
                hosp_scenario.input.arity().to_string(),
                pct(hosp_user),
                pct(hosp_auto),
                format!("{hosp_rounds:.2}"),
            ],
        ],
    );

    // Shape checks.
    assert!(
        (0.15..=0.30).contains(&hosp_user),
        "HOSP-style data must reproduce the paper's ~20% user share, got {}",
        pct(hosp_user)
    );
    assert!(
        uk_user < 0.65,
        "UK demo scenario: user validates ≲ 60% (3 of 9 attrs are inherently user-only), got {}",
        pct(uk_user)
    );
    println!(
        "\nshape checks passed: HOSP reproduces the paper's 20%/80% split \
         ({} user); the UK toy schema's floor is higher ({} user) because phn, \
         type and item have no fixing rules — coverage, not noise, sets the split.",
        pct(hosp_user),
        pct(uk_user)
    );
}
