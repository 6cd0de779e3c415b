//! Recovery figure — goodput under crash-restart churn.
//!
//! DP/MP/HP have no token recovery: a crashed worker stalls its BSP (or
//! pipeline) iteration until the victim rejoins, so every fault is paid in
//! full on the critical path. Fela's Token Server revokes the victim's leases
//! and re-grants them to survivors, so the sweep shows how much of the fault
//! cost elastic token recovery absorbs — while `fela check` separately proves
//! every recovered run still applies each micro-batch gradient exactly once.

use fela_cluster::{FaultKind, FaultModel};
use fela_metrics::Table;
use fela_model::zoo;
use fela_sim::SimDuration;
use serde::Serialize;

use crate::{
    model_slug, perturbation_experiment, print_perturbation_tables, save_json, Perturbation,
};

const BATCH: u64 = 256;
/// Downtime between a crash and the rejoin, for every fault setting.
const DOWN_SECS: u64 = 30;
/// All runtimes see the same fault realisation (stateless hash), mirroring a
/// testbed where the kill script is independent of the runtime under test.
const SEED: u64 = 20200417;

/// AT, PID and Fela's recovery counters under one fault setting.
#[derive(Clone, Debug, Serialize)]
pub struct RecoveryRow {
    /// Benchmark model.
    pub model: String,
    /// Total batch size.
    pub batch: u64,
    /// Fault setting label, e.g. `"crash@1"` or `"p=0.05"`.
    pub setting: String,
    /// Average throughput per runtime: `[fela, dp, mp, hp]`.
    pub at: [f64; 4],
    /// Per-iteration delay (Equation 4) per runtime: `[fela, dp, mp, hp]`.
    pub pid: [f64; 4],
    /// Crashes Fela's Token Server observed.
    pub crashes: u64,
    /// Rejoins after crash-restart downtime.
    pub restarts: u64,
    /// Leases revoked (crash victims and expired deadlines).
    pub revocations: u64,
    /// Completions for already-revoked leases that were discarded.
    pub stale_reports: u64,
}

fn fault_settings(iterations: u64) -> Vec<(String, Perturbation)> {
    let down = SimDuration::from_secs(DOWN_SECS);
    let mut settings = vec![(
        // One scripted crash-restart mid-run: the canonical recovery story.
        "crash@mid".to_owned(),
        Perturbation::Fault(FaultModel::Scripted {
            worker: 2,
            iteration: iterations / 2,
            kind: FaultKind::CrashRestart { down },
        }),
    )];
    for p in [0.02f64, 0.05, 0.10] {
        settings.push((
            format!("p={p:.2}"),
            Perturbation::Fault(FaultModel::Chaos {
                p,
                down,
                seed: SEED,
            }),
        ));
    }
    settings
}

/// The perturbation sweep under each fault setting, with Fela's recovery
/// counters added to every row and their table printed after the sweep's.
fn recovery_experiment(model: &fela_model::Model, jobs: usize) -> Vec<RecoveryRow> {
    let iterations = crate::iterations().unwrap_or_else(|e| panic!("{e}"));
    let (rows, result) = perturbation_experiment(
        &format!("fig_recovery_{}", model_slug(&model.name)),
        model,
        BATCH,
        &fault_settings(iterations),
        jobs,
    );
    let title = format!(
        "Recovery — crash-restart churn ({}, down={DOWN_SECS}s)",
        model.name
    );
    print_perturbation_tables(&title, &rows);
    let mut rec_table = Table::new(
        format!("{title} — Fela token recovery"),
        &["setting", "crashes", "restarts", "revoked", "stale"],
    );
    let rows: Vec<RecoveryRow> = rows
        .into_iter()
        .map(|r| {
            let fela = result.report("fela", &r.setting);
            RecoveryRow {
                crashes: fela.counter("crashes"),
                restarts: fela.counter("restarts"),
                revocations: fela.counter("revocations"),
                stale_reports: fela.counter("stale_reports"),
                model: r.model,
                batch: r.batch,
                setting: r.setting,
                at: r.at,
                pid: r.pid,
            }
        })
        .collect();
    for r in &rows {
        rec_table.row(vec![
            r.setting.clone(),
            r.crashes.to_string(),
            r.restarts.to_string(),
            r.revocations.to_string(),
            r.stale_reports.to_string(),
        ]);
    }
    println!("{}", rec_table.render());
    rows
}

/// Runs the recovery sweeps on `jobs` worker threads.
pub fn run(jobs: usize) {
    let mut all = Vec::new();
    for model in [zoo::vgg19(), zoo::googlenet()] {
        all.extend(recovery_experiment(&model, jobs));
    }
    println!(
        "Paper shape checks: every fault charges DP/MP/HP a full downtime on the\n\
         critical path, while Fela re-grants the victim's tokens to survivors;\n\
         Fela's PID stays well below DP/HP across the churn sweep."
    );
    save_json("fig_recovery", &all);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn settings_scale_with_iterations() {
        let s = fault_settings(100);
        assert_eq!(s.len(), 4);
        assert!(matches!(
            s[0].1,
            Perturbation::Fault(FaultModel::Scripted { iteration: 50, .. })
        ));
        for (_, fault) in &s {
            assert!(matches!(fault, Perturbation::Fault(f) if f.validate().is_ok()));
        }
    }

    #[test]
    fn chaos_settings_share_the_seed() {
        for (_, fault) in fault_settings(10) {
            if let Perturbation::Fault(FaultModel::Chaos { seed, .. }) = fault {
                assert_eq!(seed, SEED);
            }
        }
    }
}
