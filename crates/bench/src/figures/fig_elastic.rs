//! Elasticity figure — makespan under resize churn.
//!
//! A non-elastic system changes scale by stopping the job, relaunching at
//! the new worker count and restoring a checkpoint — every resize costs a
//! full teardown on the critical path. Fela's token abstraction makes the
//! worker set a scheduling concern: the controller pauses at an iteration
//! boundary, re-bins, re-tunes incrementally (cross-epoch profile cache)
//! and syncs parameters to joiners only. The sweep raises the churn rate
//! and compares stitched makespans: Fela's advantage must *grow* with
//! churn, and the incremental boundary re-tune must beat re-running the
//! full two-phase search from scratch at every boundary.

use fela_baselines::{DpRuntime, HpRuntime};
use fela_cluster::{ResizeModel, Scenario};
use fela_elastic::{ElasticOptions, ElasticRuntime, IncrementalTuner, StopRestartRuntime};
use fela_metrics::{f2, Table};
use fela_model::zoo;
use serde::Serialize;

use crate::{improvement, save_json, scenario, tuning_iterations};

const BATCH: u64 = 256;
/// Every churn setting sees the same resize realisation (stateless hash),
/// mirroring a testbed where arrivals/departures are independent of the
/// runtime under test.
const SEED: u64 = 20200613;
/// Per-iteration resize probabilities swept (0 = the resize-free reference).
const RATES: [f64; 4] = [0.0, 0.1, 0.25, 0.5];

const RUNTIMES: [&str; 3] = ["fela-elastic", "dp-restart", "hp-restart"];

/// Makespan and boundary-cost accounting under one churn setting.
#[derive(Clone, Debug, Serialize)]
pub struct ElasticRow {
    /// Benchmark model.
    pub model: String,
    /// Total batch size.
    pub batch: u64,
    /// Churn setting label, e.g. `"churn=0.25"`.
    pub setting: String,
    /// Resize boundaries the setting realised.
    pub resizes: u64,
    /// Stitched makespan per runtime: `[fela-elastic, dp-restart, hp-restart]`.
    pub makespan: [f64; 3],
    /// Simulated seconds Fela spent in transitions (re-bin + re-tune + sync).
    pub fela_transition_secs: f64,
    /// Boundary re-tune cases profiled fresh across the run.
    pub retune_profiled: u64,
    /// Boundary re-tune cases answered from the cross-epoch cache.
    pub retune_reused: u64,
    /// Simulated search seconds the incremental re-tune actually paid.
    pub incremental_search_secs: f64,
    /// Simulated search seconds a from-scratch full search would pay at the
    /// same boundaries (the oracle every boundary is checked against).
    pub full_search_secs: f64,
}

fn churn_settings() -> Vec<(String, ResizeModel)> {
    RATES
        .iter()
        .map(|&rate| {
            (
                format!("churn={rate:.2}"),
                ResizeModel::Churn { rate, seed: SEED },
            )
        })
        .collect()
}

/// Plans the elastic run and compares the incremental boundary re-tune
/// against a from-scratch full search at every boundary (same scenarios,
/// same budget). Returns `(plan, incremental_secs, full_secs)`.
fn search_cost_comparison(
    runtime: &ElasticRuntime,
    sc: &Scenario,
) -> (fela_elastic::ElasticPlan, f64, f64) {
    let plan = runtime.plan(sc).expect("elastic plan");
    // `fold(0.0, ..)` rather than `sum()`: the empty-sum identity is -0.0,
    // which would print as "-0.00" in the resize-free row.
    let incremental: f64 = plan
        .epochs
        .iter()
        .skip(1)
        .map(|e| e.retune.search_secs)
        .fold(0.0, |a, b| a + b);
    let full: f64 = plan
        .epochs
        .iter()
        .skip(1)
        .map(|e| {
            // A cold tuner per boundary is exactly the full two-phase search
            // (same enumeration, nothing cached).
            let (_, stats) = IncrementalTuner::new(tuning_iterations()).tune(&e.scenario);
            stats.search_secs
        })
        .fold(0.0, |a, b| a + b);
    (plan, incremental, full)
}

fn elastic_experiment(experiment: &str, model: &fela_model::Model, jobs: usize) -> Vec<ElasticRow> {
    let base = scenario(model.clone(), BATCH);
    let options = ElasticOptions {
        profile_iterations: tuning_iterations(),
    };
    let settings = churn_settings();
    let mut spec = fela_harness::SweepSpec::new(experiment)
        .runtime("fela-elastic", move |_| {
            Box::new(ElasticRuntime::new(options))
        })
        .runtime("dp-restart", |_| {
            Box::new(StopRestartRuntime::new(DpRuntime::default(), "dp-restart"))
        })
        .runtime("hp-restart", |_| {
            Box::new(StopRestartRuntime::new(HpRuntime, "hp-restart"))
        });
    for (label, resize) in &settings {
        spec = spec.scenario(label.clone(), base.clone().with_resize(resize.clone()));
    }
    let result = spec.run(jobs);
    if let Err(e) = result.write_artifacts() {
        eprintln!("warning: cannot write {experiment} artifacts: {e}");
    }

    let runtime = ElasticRuntime::new(options);
    settings
        .iter()
        .map(|(label, resize)| {
            let sc = base.clone().with_resize(resize.clone());
            let (plan, incremental, full) = search_cost_comparison(&runtime, &sc);
            let retune = plan.retune_totals();
            let mut makespan = [0.0; 3];
            for (i, rt) in RUNTIMES.iter().enumerate() {
                makespan[i] = result.report(rt, label).total_time_secs;
            }
            ElasticRow {
                model: model.name.clone(),
                batch: BATCH,
                setting: label.clone(),
                resizes: plan.resizes() as u64,
                makespan,
                fela_transition_secs: plan.total_transition_secs,
                retune_profiled: retune.profiled as u64,
                retune_reused: retune.reused as u64,
                incremental_search_secs: incremental,
                full_search_secs: full,
            }
        })
        .collect()
}

fn print_elastic_tables(title: &str, rows: &[ElasticRow]) {
    let mut makespan_table = Table::new(
        format!("{title} — stitched makespan (s)"),
        &[
            "setting",
            "resizes",
            "Fela",
            "DP-restart",
            "HP-restart",
            "vs DP",
            "vs HP",
        ],
    );
    let mut search_table = Table::new(
        format!("{title} — boundary re-tune cost (simulated s)"),
        &[
            "setting",
            "profiled",
            "reused",
            "incremental",
            "full search",
        ],
    );
    for r in rows {
        makespan_table.row(vec![
            r.setting.clone(),
            r.resizes.to_string(),
            f2(r.makespan[0]),
            f2(r.makespan[1]),
            f2(r.makespan[2]),
            improvement(r.makespan[1], r.makespan[0]),
            improvement(r.makespan[2], r.makespan[0]),
        ]);
        search_table.row(vec![
            r.setting.clone(),
            r.retune_profiled.to_string(),
            r.retune_reused.to_string(),
            f2(r.incremental_search_secs),
            f2(r.full_search_secs),
        ]);
    }
    print!("{}", makespan_table.render());
    print!("{}", search_table.render());
}

/// Runs the churn sweep on `jobs` worker threads.
pub fn run(jobs: usize) {
    let model = zoo::googlenet();
    let rows = elastic_experiment("fig_elastic_sweep", &model, jobs);
    print_elastic_tables(
        &format!("Elasticity — resize churn ({})", model.name),
        &rows,
    );

    // Paper-shape checks: the advantage must grow with churn, and the
    // incremental re-tune must never pay more than the full search.
    let advantage = |r: &ElasticRow| r.makespan[1] / r.makespan[0];
    for pair in rows.windows(2) {
        if pair[1].resizes > pair[0].resizes {
            assert!(
                advantage(&pair[1]) > advantage(&pair[0]),
                "Fela's advantage must grow with churn ({} vs {})",
                pair[0].setting,
                pair[1].setting
            );
        }
    }
    for r in &rows {
        assert!(
            r.incremental_search_secs <= r.full_search_secs + 1e-9,
            "incremental re-tune must not exceed the full search ({})",
            r.setting
        );
    }
    let churniest = rows.last().expect("at least one setting");
    println!(
        "Elasticity shape: Fela's makespan advantage grows with churn (vs DP\n\
         {} at {} resizes), and the cross-epoch cache answered {} of {} boundary\n\
         cases without re-profiling.",
        improvement(churniest.makespan[1], churniest.makespan[0]),
        churniest.resizes,
        churniest.retune_reused,
        churniest.retune_profiled + churniest.retune_reused,
    );
    save_json("fig_elastic", &rows);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn settings_cover_a_resize_free_reference_and_rising_churn() {
        let s = churn_settings();
        assert_eq!(s.len(), RATES.len());
        assert_eq!(s[0].0, "churn=0.00");
        for (_, resize) in &s {
            assert!(resize.validate().is_ok());
        }
    }

    #[test]
    fn churn_settings_share_the_seed() {
        for (_, resize) in churn_settings() {
            let ResizeModel::Churn { seed, .. } = resize else {
                panic!("churn settings must be churn models");
            };
            assert_eq!(seed, SEED);
        }
    }
}
