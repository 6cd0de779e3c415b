//! The elastic controller: epochs → per-epoch configs, batches and costs.
//!
//! [`ElasticController::plan`] performs every boundary decision **ahead of
//! the run**, deterministically: it segments the scenario into epochs
//! ([`crate::plan_epochs`]), re-bins (the partition is independent of the
//! worker count, so re-binning is a cached application — the property tests
//! pin this), re-tunes incrementally ([`crate::IncrementalTuner`]), picks
//! each epoch's global batch ([`crate::BatchSchedule`]) and prices each
//! transition ([`crate::cost`]). The resulting [`ElasticPlan`] is everything
//! a runtime — simulated or live — needs to execute the elastic run.

use fela_cluster::Scenario;
use fela_core::{FelaConfig, FelaRuntime};
use fela_tuning::TuningOutcome;
use serde::Serialize;

use crate::batch::BatchSchedule;
use crate::cost;
use crate::epoch::{epoch_scenario, plan_epochs, EpochSpec};
use crate::tune::{IncrementalTuner, RetuneStats};
use crate::ElasticError;

/// Controller knobs.
#[derive(Clone, Copy, Debug)]
pub struct ElasticOptions {
    /// Iterations profiled per tuning case (the paper uses 5).
    pub profile_iterations: u64,
}

impl Default for ElasticOptions {
    fn default() -> Self {
        ElasticOptions {
            profile_iterations: 5,
        }
    }
}

/// One epoch, fully resolved and ready to run.
#[derive(Clone, Debug)]
pub struct EpochPlan {
    /// Membership and iteration range.
    pub spec: EpochSpec,
    /// The resize-free sub-scenario the epoch executes (epoch-local
    /// iteration numbering; straggler and fault models carry over).
    pub scenario: Scenario,
    /// The tuned configuration for this epoch's shape.
    pub config: FelaConfig,
    /// The winning weight vector.
    pub weights: Vec<u64>,
    /// The winning CTD subset (`None` = full cluster).
    pub subset: Option<usize>,
    /// Cache accounting for this epoch's re-tune.
    pub retune: RetuneStats,
    /// Simulated seconds charged *before* the epoch starts (0 for epoch 0 —
    /// initial tuning is out-of-band, as in the fixed-membership runs).
    pub transition_secs: f64,
}

/// A complete elastic execution plan.
#[derive(Clone, Debug)]
pub struct ElasticPlan {
    /// Epochs in execution order; their iteration counts tile the run.
    pub epochs: Vec<EpochPlan>,
    /// Total parameter bytes of the (worker-count-independent) partition.
    pub param_bytes: u64,
    /// Sum of all transition costs.
    pub total_transition_secs: f64,
}

impl ElasticPlan {
    /// Number of resize boundaries taken (epochs − 1).
    pub fn resizes(&self) -> usize {
        self.epochs.len() - 1
    }

    /// Aggregate retune accounting across every epoch after the first.
    pub fn retune_totals(&self) -> RetuneStats {
        let mut total = RetuneStats::default();
        for e in self.epochs.iter().skip(1) {
            total.profiled += e.retune.profiled;
            total.reused += e.retune.reused;
            total.search_secs += e.retune.search_secs;
        }
        total
    }
}

/// Summary of one planned epoch, for artifacts and diagnostics.
#[derive(Clone, Debug, Serialize)]
pub struct EpochSummary {
    /// Epoch index.
    pub index: usize,
    /// First global iteration.
    pub start_iteration: u64,
    /// Iteration count.
    pub iterations: u64,
    /// Worker count.
    pub n_workers: usize,
    /// Global batch.
    pub total_batch: u64,
    /// Winning weights.
    pub weights: Vec<u64>,
    /// Winning CTD subset.
    pub subset: Option<usize>,
    /// Cases profiled at the boundary.
    pub retune_profiled: usize,
    /// Cases served from the cross-epoch cache.
    pub retune_reused: usize,
    /// Transition cost in simulated seconds.
    pub transition_secs: f64,
}

impl EpochPlan {
    /// A serialisable summary of the epoch.
    pub fn summary(&self) -> EpochSummary {
        EpochSummary {
            index: self.spec.index,
            start_iteration: self.spec.start_iteration,
            iterations: self.spec.iterations,
            n_workers: self.spec.n_workers(),
            total_batch: self.scenario.total_batch,
            weights: self.weights.clone(),
            subset: self.subset,
            retune_profiled: self.retune.profiled,
            retune_reused: self.retune.reused,
            transition_secs: self.transition_secs,
        }
    }
}

/// Plans elastic runs.
#[derive(Clone, Debug, Default)]
pub struct ElasticController {
    /// Controller knobs.
    pub options: ElasticOptions,
}

impl ElasticController {
    /// A controller with the given options.
    pub fn new(options: ElasticOptions) -> Self {
        ElasticController { options }
    }

    /// Plans the whole elastic run for `scenario`.
    ///
    /// # Errors
    /// Propagates epoch-planning failures (invalid resize model, bad leave).
    pub fn plan(&self, scenario: &Scenario) -> Result<ElasticPlan, ElasticError> {
        let specs = plan_epochs(scenario)?;
        let schedule = BatchSchedule::new(scenario.total_batch, scenario.cluster.nodes);
        let param_bytes = {
            let runtime = FelaRuntime::new(FelaConfig::new(1));
            runtime.partition_for(scenario).total_param_bytes()
        };
        let mut tuner = IncrementalTuner::new(self.options.profile_iterations);
        let mut epochs = Vec::with_capacity(specs.len());
        let mut total_transition_secs = 0.0;
        for spec in specs {
            let batch = schedule.batch_for(spec.n_workers());
            let epoch_scenario = epoch_scenario(scenario, &spec, batch);
            let (outcome, retune) = tuner.tune(&epoch_scenario);
            let (weights, subset) = best_case(&outcome);
            let transition_secs = if spec.index == 0 {
                0.0
            } else {
                cost::fela_transition_secs(
                    &retune,
                    spec.joined_ranks().len(),
                    param_bytes,
                    scenario.cluster.network.link_bandwidth,
                )
            };
            total_transition_secs += transition_secs;
            epochs.push(EpochPlan {
                spec,
                scenario: epoch_scenario,
                config: outcome.best_config.clone(),
                weights,
                subset,
                retune,
                transition_secs,
            });
        }
        Ok(ElasticPlan {
            epochs,
            param_bytes,
            total_transition_secs,
        })
    }
}

fn best_case(outcome: &TuningOutcome) -> (Vec<u64>, Option<usize>) {
    let case = &outcome.cases[outcome.best].case;
    (case.weights.clone(), case.subset)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fela_cluster::{ResizeAction, ResizeEvent, ResizeModel};
    use fela_model::zoo;

    fn elastic_scenario() -> Scenario {
        Scenario::paper(zoo::googlenet(), 256)
            .with_iterations(6)
            .with_resize(ResizeModel::Scripted(vec![
                ResizeEvent {
                    iteration: 2,
                    action: ResizeAction::Join(2),
                },
                ResizeEvent {
                    iteration: 4,
                    action: ResizeAction::Leave(vec![9]),
                },
            ]))
    }

    fn controller() -> ElasticController {
        ElasticController::new(ElasticOptions {
            profile_iterations: 1,
        })
    }

    #[test]
    fn plan_resolves_every_epoch() {
        let plan = controller().plan(&elastic_scenario()).expect("plans");
        assert_eq!(plan.resizes(), 2);
        assert_eq!(
            plan.epochs
                .iter()
                .map(|e| (e.spec.n_workers(), e.scenario.total_batch))
                .collect::<Vec<_>>(),
            // 10/8 × 256 = 320 → nearest pow2 = 256; 9/8 × 256 = 288 → 256.
            vec![(8, 256), (10, 256), (9, 256)]
        );
        for e in &plan.epochs {
            e.config
                .validate(e.spec.n_workers())
                .expect("epoch config is valid");
            assert_eq!(e.scenario.iterations, e.spec.iterations);
            assert!(e.scenario.resize.is_none());
        }
        assert!((plan.epochs[0].transition_secs - 0.0).abs() < 1e-12);
        assert!(plan.epochs[1].transition_secs > 0.0);
        assert!(plan.total_transition_secs > 0.0);
        assert!(plan.param_bytes > 0);
    }

    #[test]
    fn plans_are_deterministic() {
        let a = controller().plan(&elastic_scenario()).expect("plans");
        let b = controller().plan(&elastic_scenario()).expect("plans");
        let sa: Vec<_> = a.epochs.iter().map(EpochPlan::summary).collect();
        let sb: Vec<_> = b.epochs.iter().map(EpochPlan::summary).collect();
        assert_eq!(
            serde_json::to_string(&sa).expect("serializes"),
            serde_json::to_string(&sb).expect("serializes"),
        );
    }

    #[test]
    fn returning_to_a_seen_shape_reuses_the_cache() {
        // 8 → 9 → 8: the final epoch has the original shape minus one joiner;
        // since the survivor set is the original 8 workers at nominal speed,
        // every case is already cached.
        let sc = Scenario::paper(zoo::googlenet(), 256)
            .with_iterations(6)
            .with_resize(ResizeModel::Scripted(vec![
                ResizeEvent {
                    iteration: 2,
                    action: ResizeAction::Join(1),
                },
                ResizeEvent {
                    iteration: 4,
                    action: ResizeAction::Leave(vec![8]),
                },
            ]));
        let plan = controller().plan(&sc).expect("plans");
        let last = &plan.epochs[2];
        assert_eq!(last.retune.profiled, 0, "shape 8 was fully cached");
        assert!(last.retune.reused > 0);
        assert!(
            last.transition_secs < plan.epochs[1].transition_secs,
            "cached retune + no joiner must be cheaper than the join"
        );
    }
}
