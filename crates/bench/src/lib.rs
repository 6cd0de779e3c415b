//! # fela-bench — experiment drivers
//!
//! One [`figures`] module per table/figure of the paper (see DESIGN.md §4 for
//! the index). Each declares its runs as a [`fela_harness::SweepSpec`] and
//! executes them through the harness — in parallel, with per-run
//! [`fela_harness::RunRecord`] JSONL artifacts under `results/` next to the
//! ASCII tables and JSON summaries. The one binary, `regen_all`, runs every
//! experiment, or the ones named on its command line.
//!
//! Environment knobs:
//!
//! * `FELA_ITERS` — iterations per measured run (default 100, as in §V-A);
//! * `FELA_QUICK=1` — shorthand for a 10-iteration smoke run of every experiment;
//! * `FELA_JOBS` — worker threads per sweep (default: available parallelism);
//! * `FELA_RESULTS_DIR` — artifact directory (default `results/`).
//!
//! `FELA_ITERS` and `FELA_JOBS` must be positive integers when set
//! ([`fela_harness::positive_count`]).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod figures;

use std::fs;

use fela_baselines::{DpRuntime, HpRuntime, MpRuntime};
use fela_cluster::Scenario;
use fela_core::{FelaConfig, FelaRuntime};
use fela_harness::{RuntimeFactory, SweepSpec};
use fela_metrics::RunReport;
use fela_model::Model;
use fela_tuning::Tuner;
use serde::Serialize;
use std::sync::Arc;

/// Iterations per measured run: 10 under `FELA_QUICK=1`, else `FELA_ITERS`,
/// else 100. A malformed `FELA_ITERS` is an error even in quick mode.
pub fn iterations() -> Result<u64, String> {
    let iters = fela_harness::env_count("FELA_ITERS")?;
    if std::env::var("FELA_QUICK").is_ok_and(|v| v == "1") {
        return Ok(10);
    }
    Ok(iters.map_or(100, |n| n as u64))
}

/// Tuning iterations per profiled case (5 in the paper; 2 in quick mode).
pub fn tuning_iterations() -> u64 {
    if std::env::var("FELA_QUICK").is_ok_and(|v| v == "1") {
        2
    } else {
        5
    }
}

/// The batch sizes the evaluation sweeps.
pub const BATCHES: [u64; 5] = [64, 128, 256, 512, 1024];

/// Writes `value` as pretty JSON to `<results_dir>/<name>.json` (creating the
/// directory, honouring `FELA_RESULTS_DIR`), and reports the path on stdout.
pub fn save_json<T: Serialize>(name: &str, value: &T) {
    let dir = fela_harness::results_dir();
    if let Err(e) = fs::create_dir_all(&dir) {
        eprintln!("warning: cannot create results dir: {e}");
        return;
    }
    let path = dir.join(format!("{name}.json"));
    match serde_json::to_string_pretty(value) {
        Ok(json) => match fs::write(&path, json) {
            Ok(()) => println!("[saved {}]", path.display()),
            Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
        },
        Err(e) => eprintln!("warning: cannot serialize {name}: {e}"),
    }
}

/// A paper-style scenario on the 8-node testbed, run for [`iterations`].
///
/// # Panics
/// Panics on a malformed `FELA_ITERS`, which `regen_all` reports as an error
/// before any experiment starts.
pub fn scenario(model: Model, batch: u64) -> Scenario {
    let iterations = iterations().unwrap_or_else(|e| panic!("{e}"));
    Scenario::paper(model, batch).with_iterations(iterations)
}

/// Tunes Fela for a scenario (the §IV-B two-phase search) and returns the
/// winning configuration.
///
/// Profiling runs sequentially: this helper is typically called *inside* a
/// harness job, where sweep-level parallelism already saturates the machine.
pub fn tuned_fela(scenario: &Scenario) -> FelaConfig {
    let tuner = Tuner {
        profile_iterations: tuning_iterations(),
    };
    let config = tuner.tune_with_jobs(scenario, 1).best_config;
    verify_fela_config(&config, scenario);
    config
}

/// Statically verifies a configuration's schedule DAG before it is used in a
/// measured run; panics with the violation list if an invariant is broken.
///
/// Every configuration a bench binary measures flows through here (tuned or
/// fixed), so a scheduling regression fails the experiment loudly instead of
/// producing a plausible-looking but invalid result.
fn verify_fela_config(config: &FelaConfig, scenario: &Scenario) {
    let partition = FelaRuntime::new(FelaConfig::new(1)).partition_for(scenario);
    if let Err(fela_check::CheckError::Dag(violations)) = fela_check::verify_config(
        &partition,
        config,
        scenario.total_batch,
        scenario.cluster.nodes,
        1,
    ) {
        panic!(
            "configuration {:?} fails schedule verification on {}: {:?}",
            config.weights, scenario.model.name, violations
        );
    }
    // A Plan error means the config is infeasible for this scenario; the
    // runtime surfaces that itself, so only DAG violations are fatal here.
}

/// Harness factory for tuned Fela: the §IV-B search runs *per job*, so each
/// scenario in a sweep gets its own winning configuration (as in Figure 8,
/// where the tuned weight vector differs across batch sizes).
pub fn tuned_fela_factory() -> RuntimeFactory {
    Arc::new(|sc: &Scenario| Box::new(FelaRuntime::new(tuned_fela(sc))))
}

/// Harness factory for Fela with a fixed, pre-tuned configuration. The config
/// is re-verified against each scenario it is applied to (straggler sweeps
/// reuse one tuned config across many scenarios).
pub fn fixed_fela_factory(config: FelaConfig) -> RuntimeFactory {
    Arc::new(move |sc: &Scenario| {
        verify_fela_config(&config, sc);
        Box::new(FelaRuntime::new(config.clone()))
    })
}

/// Adds the three baseline runtimes (DP, MP, HP) to a sweep (builder style).
#[must_use]
pub fn with_baselines(spec: SweepSpec) -> SweepSpec {
    spec.runtime("dp", |_| Box::new(DpRuntime::default()))
        .runtime("mp", |_| Box::new(MpRuntime::default()))
        .runtime("hp", |_| Box::new(HpRuntime))
}

/// Lower-case artifact label for a model, e.g. `"VGG19"` → `"vgg19"`.
pub fn model_slug(name: &str) -> String {
    name.to_lowercase()
}

/// Formats the paper's improvement style from a ratio (see
/// [`fela_metrics::format_speedup`]).
pub fn improvement(ours: f64, baseline: f64) -> String {
    fela_metrics::format_speedup(ours / baseline)
}

/// AT and PID of every runtime under one straggler setting (Figures 9 and 10).
#[derive(Clone, Debug, Serialize)]
pub struct StragglerRow {
    /// Benchmark model.
    pub model: String,
    /// Total batch size.
    pub batch: u64,
    /// Scenario label, e.g. `"d=6s"` or `"p=0.3"`.
    pub setting: String,
    /// Average throughput per runtime: `[fela, dp, mp, hp]`.
    pub at: [f64; 4],
    /// Per-iteration delay (Equation 4) per runtime: `[fela, dp, mp, hp]`.
    pub pid: [f64; 4],
}

/// Label of the non-straggler reference scenario in straggler sweeps.
const BASE_LABEL: &str = "base";

/// Runs the four runtimes under each straggler setting and computes AT + PID
/// against each runtime's own non-straggler baseline (Equation 4).
///
/// The whole grid — four runtimes × (base + every setting) — is declared as
/// one [`SweepSpec`] named `experiment` and executed on `jobs` worker
/// threads; the record stream lands in `results/<experiment>.jsonl`. Fela is
/// tuned once on the non-straggler scenario (the paper applies the tuned
/// configuration to every straggler case), so tuning happens before the sweep.
pub fn straggler_experiment(
    experiment: &str,
    model: &Model,
    batch: u64,
    settings: &[(String, fela_cluster::StragglerModel)],
    jobs: usize,
) -> Vec<StragglerRow> {
    let base_scenario = scenario(model.clone(), batch);
    let fela_config = tuned_fela(&base_scenario);
    let mut spec = with_baselines(
        SweepSpec::new(experiment).runtime_factory("fela", fixed_fela_factory(fela_config)),
    )
    .scenario(BASE_LABEL, base_scenario.clone());
    for (label, straggler) in settings {
        spec = spec.scenario(
            label.clone(),
            base_scenario.clone().with_straggler(*straggler),
        );
    }
    let result = spec.run(jobs);
    if let Err(e) = result.write_artifacts() {
        eprintln!("warning: cannot write {experiment} artifacts: {e}");
    }

    const RUNTIMES: [&str; 4] = ["fela", "dp", "mp", "hp"];
    let baselines: Vec<&RunReport> = RUNTIMES
        .iter()
        .map(|rt| result.report(rt, BASE_LABEL))
        .collect();
    settings
        .iter()
        .map(|(label, _)| {
            let mut at = [0.0; 4];
            let mut pid = [0.0; 4];
            for (i, rt) in RUNTIMES.iter().enumerate() {
                let report = result.report(rt, label);
                at[i] = report.average_throughput();
                pid[i] = fela_metrics::per_iteration_delay(report, baselines[i]);
            }
            StragglerRow {
                model: model.name.clone(),
                batch,
                setting: label.clone(),
                at,
                pid,
            }
        })
        .collect()
}

/// Prints AT and PID tables for straggler rows and the Fela-vs-baseline summary.
pub fn print_straggler_tables(title: &str, rows: &[StragglerRow]) {
    use fela_metrics::{f2, f3, Table};
    let mut at_table = Table::new(
        format!("{title} — average throughput (samples/s)"),
        &["setting", "Fela", "DP", "MP", "HP"],
    );
    let mut pid_table = Table::new(
        format!("{title} — per-iteration delay (s)"),
        &["setting", "Fela", "DP", "MP", "HP"],
    );
    for r in rows {
        at_table.row(vec![
            r.setting.clone(),
            f2(r.at[0]),
            f2(r.at[1]),
            f2(r.at[2]),
            f2(r.at[3]),
        ]);
        pid_table.row(vec![
            r.setting.clone(),
            f3(r.pid[0]),
            f3(r.pid[1]),
            f3(r.pid[2]),
            f3(r.pid[3]),
        ]);
    }
    print!("{}", at_table.render());
    print!("{}", pid_table.render());
    let ratio_range = |idx: usize| {
        let ratios: Vec<f64> = rows.iter().map(|r| r.at[0] / r.at[idx]).collect();
        format!(
            "{} ~ {}",
            improvement(ratios.iter().cloned().fold(f64::INFINITY, f64::min), 1.0),
            improvement(
                ratios.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
                1.0
            )
        )
    };
    println!(
        "Fela AT improvement: vs DP {}, vs MP {}, vs HP {}",
        ratio_range(1),
        ratio_range(2),
        ratio_range(3)
    );
    let pid_red = |idx: usize| {
        let reds: Vec<f64> = rows
            .iter()
            .map(|r| (1.0 - r.pid[0] / r.pid[idx]) * 100.0)
            .collect();
        format!(
            "{:.2}% ~ {:.2}%",
            reds.iter().cloned().fold(f64::INFINITY, f64::min),
            reds.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
        )
    };
    println!(
        "Fela PID reduction: vs DP {}, vs HP {}\n",
        pid_red(1),
        pid_red(3)
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use fela_model::zoo;

    #[test]
    fn batch_sweep_is_papers() {
        assert_eq!(BATCHES, [64, 128, 256, 512, 1024]);
    }

    #[test]
    fn scenario_uses_paper_testbed() {
        let s = scenario(zoo::googlenet(), 128);
        assert_eq!(s.cluster.nodes, 8);
        assert_eq!(s.total_batch, 128);
    }

    #[test]
    fn improvement_formats() {
        assert_eq!(improvement(129.0, 100.0), "29.00%");
        assert_eq!(improvement(323.0, 100.0), "3.23×");
    }
}
