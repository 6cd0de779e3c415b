//! Elastic-run verification: per-epoch membership, re-bin fidelity and the
//! lease protocol across resize boundaries.
//!
//! An elastic run is a chain of constant-membership epochs
//! ([`fela_elastic::ElasticPlan`]) executed back to back. Three things can go
//! wrong that no fixed-membership checker sees:
//!
//! 1. **Grants to departed workers** — after a scale-down, the control plane
//!    must never grant a token to a rank outside the shrunken membership.
//!    [`check_elastic`] replays every epoch's trace against that epoch's
//!    worker set.
//! 2. **Re-bin divergence** — the incremental boundary re-tune promises
//!    bit-identity with the full offline two-phase search. The checker re-runs
//!    the full [`fela_tuning::Tuner`] oracle per epoch and compares the
//!    chosen weights and CTD subset.
//! 3. **Protocol breaks inside an epoch** — each epoch's trace must still
//!    pass the happens-before race analysis ([`crate::race`]) and the
//!    exactly-once lease replay ([`crate::recovery`]); violations are
//!    reported with the epoch attached.
//!
//! [`mutate_elastic`] applies seeded corruptions ([`ElasticMutation`]) to a
//! real elastic run and [`run_elastic_mutation_matrix`] proves every
//! diagnostic fires — the elastic counterpart of the recovery and WAL
//! mutation matrices.

use fela_cluster::Scenario;
use fela_elastic::{ElasticError, ElasticOptions, ElasticPlan, ElasticRuntime};
use fela_sim::{EventKind, Trace};
use fela_tuning::Tuner;

use crate::race::{check_trace, RaceViolation};
use crate::recovery::{check_recovery, RecoveryViolation};

/// A violation of the elastic execution contract.
#[derive(Clone, PartialEq, Debug)]
pub enum ElasticViolation {
    /// A token was granted to a rank outside the epoch's membership — a
    /// grant to a departed (or never-joined) worker.
    GrantToDepartedWorker {
        /// Epoch whose trace holds the grant.
        epoch: usize,
        /// The out-of-membership rank.
        worker: usize,
        /// The epoch's worker count (valid ranks are `0..n_workers`).
        n_workers: usize,
        /// The granted token.
        token: u64,
    },
    /// An epoch's planned weight vector differs from the full two-phase
    /// search oracle — the incremental re-bin diverged.
    RebinDivergence {
        /// The diverging epoch.
        epoch: usize,
        /// Weights the plan recorded.
        planned: Vec<u64>,
        /// Weights the full offline search chooses.
        oracle: Vec<u64>,
    },
    /// An epoch's planned CTD subset differs from the full search oracle.
    SubsetDivergence {
        /// The diverging epoch.
        epoch: usize,
        /// Subset the plan recorded.
        planned: Option<usize>,
        /// Subset the full offline search chooses.
        oracle: Option<usize>,
    },
    /// The trace chain does not tile the plan (missing or extra epochs).
    EpochCountMismatch {
        /// Traces supplied.
        traces: usize,
        /// Epochs planned.
        epochs: usize,
    },
    /// A happens-before race inside one epoch's trace.
    Race {
        /// The offending epoch.
        epoch: usize,
        /// The underlying race violation.
        violation: RaceViolation,
    },
    /// A lease-protocol violation inside one epoch's trace.
    Recovery {
        /// The offending epoch.
        epoch: usize,
        /// The underlying recovery violation.
        violation: RecoveryViolation,
    },
}

impl std::fmt::Display for ElasticViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ElasticViolation::GrantToDepartedWorker {
                epoch,
                worker,
                n_workers,
                token,
            } => write!(
                f,
                "epoch {epoch}: token {token} granted to rank {worker}, outside the \
                 {n_workers}-worker membership"
            ),
            ElasticViolation::RebinDivergence {
                epoch,
                planned,
                oracle,
            } => write!(
                f,
                "epoch {epoch}: planned weights {planned:?} diverge from the full-search \
                 oracle {oracle:?}"
            ),
            ElasticViolation::SubsetDivergence {
                epoch,
                planned,
                oracle,
            } => write!(
                f,
                "epoch {epoch}: planned CTD subset {planned:?} diverges from the \
                 full-search oracle {oracle:?}"
            ),
            ElasticViolation::EpochCountMismatch { traces, epochs } => write!(
                f,
                "{traces} epoch trace(s) supplied for a {epochs}-epoch plan"
            ),
            ElasticViolation::Race { epoch, violation } => {
                write!(f, "epoch {epoch}: {violation}")
            }
            ElasticViolation::Recovery { epoch, violation } => {
                write!(f, "epoch {epoch}: {violation}")
            }
        }
    }
}

/// Statistics of a clean elastic replay.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ElasticSummary {
    /// Epochs checked.
    pub epochs: usize,
    /// Resize boundaries crossed.
    pub resizes: usize,
    /// Grants across all epochs.
    pub grants: usize,
    /// Gradients applied across all epochs.
    pub applied: usize,
    /// Tuning cases profiled at boundaries (plan accounting).
    pub retune_profiled: usize,
    /// Tuning cases served from the cross-epoch cache (plan accounting).
    pub retune_reused: usize,
}

/// Verifies an elastic run: `traces[i]` is the simulator (or conformant live)
/// trace of `plan.epochs[i]`. `profile_iterations` must match the options the
/// plan was built with — the full-search oracle is re-run with it.
///
/// Returns the summary if every epoch obeys the contract, or every violation
/// found (most expensive check — the tuning oracle — runs only when the
/// cheaper structural checks found nothing for that epoch).
pub fn check_elastic(
    plan: &ElasticPlan,
    traces: &[Trace],
    profile_iterations: u64,
) -> Result<ElasticSummary, Vec<ElasticViolation>> {
    let mut violations = Vec::new();
    if traces.len() != plan.epochs.len() {
        return Err(vec![ElasticViolation::EpochCountMismatch {
            traces: traces.len(),
            epochs: plan.epochs.len(),
        }]);
    }
    let mut summary = ElasticSummary {
        epochs: plan.epochs.len(),
        resizes: plan.resizes(),
        ..ElasticSummary::default()
    };
    let oracle = Tuner { profile_iterations };
    for (epoch, (e, trace)) in plan.epochs.iter().zip(traces).enumerate() {
        let n_workers = e.spec.n_workers();
        for ev in trace.events() {
            if let EventKind::Grant { worker, token, .. } = ev.kind {
                if worker >= n_workers {
                    violations.push(ElasticViolation::GrantToDepartedWorker {
                        epoch,
                        worker,
                        n_workers,
                        token,
                    });
                }
            }
        }
        match check_trace(trace, e.config.staleness) {
            Ok(_) => {}
            Err(races) => violations.extend(
                races
                    .into_iter()
                    .map(|violation| ElasticViolation::Race { epoch, violation }),
            ),
        }
        match check_recovery(trace) {
            Ok(s) => {
                summary.grants += s.grants;
                summary.applied += s.applied;
            }
            Err(lease) => violations.extend(
                lease
                    .into_iter()
                    .map(|violation| ElasticViolation::Recovery { epoch, violation }),
            ),
        }
        summary.retune_profiled += e.retune.profiled;
        summary.retune_reused += e.retune.reused;

        let outcome = oracle.tune_with_jobs(&e.scenario, 1);
        let best = &outcome.cases[outcome.best].case;
        if best.weights != e.weights {
            violations.push(ElasticViolation::RebinDivergence {
                epoch,
                planned: e.weights.clone(),
                oracle: best.weights.clone(),
            });
        }
        if best.subset != e.subset {
            violations.push(ElasticViolation::SubsetDivergence {
                epoch,
                planned: e.subset,
                oracle: best.subset,
            });
        }
    }
    if violations.is_empty() {
        Ok(summary)
    } else {
        Err(violations)
    }
}

/// A seeded corruption of an elastic run, for mutation-testing
/// [`check_elastic`].
#[derive(Clone, Copy, Debug)]
pub enum ElasticMutation {
    /// Rewrites one grant's recipient to a rank outside its epoch's
    /// membership — the schedule a buggy rebalance would produce after a
    /// leave (→ [`ElasticViolation::GrantToDepartedWorker`]).
    GrantToDeparted {
        /// Picks the epoch and grant, deterministically.
        seed: u64,
    },
    /// Bumps one planned weight in one epoch — an incremental re-tune that
    /// silently diverged from the full search
    /// (→ [`ElasticViolation::RebinDivergence`]).
    RebinDiverge {
        /// Picks the epoch and weight, deterministically.
        seed: u64,
    },
}

impl ElasticMutation {
    /// Every mutation kind at `seed`, for matrix drivers.
    pub fn matrix(seed: u64) -> [ElasticMutation; 2] {
        [
            ElasticMutation::GrantToDeparted { seed },
            ElasticMutation::RebinDiverge { seed },
        ]
    }
}

/// Rebuilds `(plan, traces)` with `mutation` applied.
pub fn mutate_elastic(
    plan: &ElasticPlan,
    traces: &[Trace],
    mutation: ElasticMutation,
) -> (ElasticPlan, Vec<Trace>) {
    let mut plan = plan.clone();
    let mut traces = traces.to_vec();
    let n_epochs = plan.epochs.len().max(1);
    match mutation {
        ElasticMutation::GrantToDeparted { seed } => {
            let epoch = (seed as usize) % n_epochs;
            let n_workers = plan.epochs[epoch].spec.n_workers();
            let grants: Vec<usize> = (0..traces[epoch].events().len())
                .filter(|&i| matches!(traces[epoch].events()[i].kind, EventKind::Grant { .. }))
                .collect();
            if let Some(&at) = grants.get((seed as usize / n_epochs) % grants.len().max(1)) {
                let mut out = Trace::enabled();
                for (i, ev) in traces[epoch].events().iter().enumerate() {
                    let mut kind = ev.kind.clone();
                    if i == at {
                        if let EventKind::Grant { worker, .. } = &mut kind {
                            // The first rank past the membership: exactly the
                            // rank a stale routing table would still hold
                            // after a one-worker leave.
                            *worker = n_workers;
                        }
                    }
                    out.record_kind(ev.time, &ev.source, kind, || ev.message.clone());
                }
                traces[epoch] = out;
            }
        }
        ElasticMutation::RebinDiverge { seed } => {
            let epoch = (seed as usize) % n_epochs;
            let e = &mut plan.epochs[epoch];
            if !e.weights.is_empty() {
                let at = (seed as usize / n_epochs) % e.weights.len();
                e.weights[at] += 1;
            }
        }
    }
    (plan, traces)
}

/// One entry of the elastic mutation matrix.
#[derive(Clone, Debug)]
pub struct ElasticMutationRun {
    /// The corruption applied.
    pub mutation: ElasticMutation,
    /// The violations it provoked (never empty for a sound matrix).
    pub violations: Vec<ElasticViolation>,
}

/// Runs every [`ElasticMutation`] at every seed against a real traced elastic
/// run of `scenario`, returning what each corruption provoked. A sound
/// checker yields a non-empty violation list for every entry.
///
/// # Errors
/// Propagates planning failures from the underlying elastic run.
pub fn run_elastic_mutation_matrix(
    scenario: &Scenario,
    options: ElasticOptions,
    seeds: &[u64],
) -> Result<Vec<ElasticMutationRun>, ElasticError> {
    let runtime = ElasticRuntime::new(options);
    let (outcome, traces) = runtime.run_elastic_traced(scenario)?;
    let mut runs = Vec::with_capacity(seeds.len() * 2);
    for &seed in seeds {
        for mutation in ElasticMutation::matrix(seed) {
            let (plan, traces) = mutate_elastic(&outcome.plan, &traces, mutation);
            let violations = match check_elastic(&plan, &traces, options.profile_iterations) {
                Ok(_) => Vec::new(),
                Err(vs) => vs,
            };
            runs.push(ElasticMutationRun {
                mutation,
                violations,
            });
        }
    }
    Ok(runs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fela_cluster::{ResizeAction, ResizeEvent, ResizeModel};
    use fela_model::zoo;

    fn scenario() -> Scenario {
        Scenario::paper(zoo::googlenet(), 256)
            .with_iterations(6)
            .with_resize(ResizeModel::Scripted(vec![
                ResizeEvent {
                    iteration: 2,
                    action: ResizeAction::Join(2),
                },
                ResizeEvent {
                    iteration: 4,
                    action: ResizeAction::Leave(vec![9, 3]),
                },
            ]))
    }

    fn options() -> ElasticOptions {
        ElasticOptions {
            profile_iterations: 1,
        }
    }

    fn traced_run() -> (ElasticPlan, Vec<Trace>) {
        let (outcome, traces) = ElasticRuntime::new(options())
            .run_elastic_traced(&scenario())
            .expect("elastic run");
        (outcome.plan, traces)
    }

    #[test]
    fn a_real_elastic_run_checks_clean() {
        let (plan, traces) = traced_run();
        let s = check_elastic(&plan, &traces, 1).expect("clean run");
        assert_eq!(s.epochs, 3);
        assert_eq!(s.resizes, 2);
        assert!(s.grants > 0);
        assert_eq!(s.grants, s.applied, "resize boundaries drain: no losses");
        assert!(s.retune_reused > 0, "the cross-epoch cache was exercised");
    }

    #[test]
    fn trace_count_mismatch_is_diagnosed() {
        let (plan, traces) = traced_run();
        let violations = check_elastic(&plan, &traces[..2], 1).expect_err("must fail");
        assert!(matches!(
            violations[..],
            [ElasticViolation::EpochCountMismatch {
                traces: 2,
                epochs: 3
            }]
        ));
    }

    #[test]
    fn grant_to_departed_worker_is_diagnosed() {
        let (plan, traces) = traced_run();
        for seed in [0u64, 1, 2, 17] {
            let (plan, traces) =
                mutate_elastic(&plan, &traces, ElasticMutation::GrantToDeparted { seed });
            let violations = check_elastic(&plan, &traces, 1).expect_err("must fail");
            assert!(
                violations
                    .iter()
                    .any(|v| matches!(v, ElasticViolation::GrantToDepartedWorker { .. })),
                "seed {seed}: {violations:?}"
            );
        }
    }

    #[test]
    fn rebin_divergence_is_diagnosed() {
        let (plan, traces) = traced_run();
        for seed in [0u64, 1, 2] {
            let (plan, traces) =
                mutate_elastic(&plan, &traces, ElasticMutation::RebinDiverge { seed });
            let violations = check_elastic(&plan, &traces, 1).expect_err("must fail");
            assert!(
                violations
                    .iter()
                    .any(|v| matches!(v, ElasticViolation::RebinDivergence { .. })),
                "seed {seed}: {violations:?}"
            );
        }
    }

    #[test]
    fn the_mutation_matrix_fires_every_diagnostic() {
        let runs = run_elastic_mutation_matrix(&scenario(), options(), &[0, 1, 2]).expect("matrix");
        assert_eq!(runs.len(), 6);
        for run in &runs {
            assert!(
                !run.violations.is_empty(),
                "{:?} provoked no diagnostic",
                run.mutation
            );
        }
        // Each mutation kind provokes its own diagnostic, not a generic one.
        for run in &runs {
            match run.mutation {
                ElasticMutation::GrantToDeparted { .. } => assert!(run
                    .violations
                    .iter()
                    .any(|v| matches!(v, ElasticViolation::GrantToDepartedWorker { .. }))),
                ElasticMutation::RebinDiverge { .. } => assert!(run
                    .violations
                    .iter()
                    .any(|v| matches!(v, ElasticViolation::RebinDivergence { .. }))),
            }
        }
    }
}
