//! Executing elastic plans: the segmented runtime and its baselines.
//!
//! [`ElasticRuntime`] runs each epoch through the ordinary
//! [`FelaRuntime`] — the same code path every fixed-membership experiment
//! uses — and stitches the per-epoch reports into one [`RunReport`],
//! charging the planned transition costs between epochs. On a resize-free
//! scenario the plan has exactly one epoch and zero transitions, so the
//! returned report is **byte-identical** to a plain tuned Fela run (the
//! conformance tests pin this).
//!
//! [`StopRestartRuntime`] wraps any fixed-membership runtime (DP, HP) into
//! the same segmented shape, but charges the stop-and-restart transition
//! model — what a non-elastic system pays to change scale.

use std::collections::BTreeMap;

use fela_cluster::{ResizeAction, Scenario, TrainingRuntime};
use fela_core::FelaRuntime;
use fela_metrics::RunReport;
use fela_sim::Trace;

use crate::controller::{ElasticController, ElasticOptions, ElasticPlan};
use crate::cost;
use crate::epoch::{epoch_scenario, plan_epochs, EpochSpec};
use crate::ElasticError;

/// Names of the gated elastic counters added to stitched reports. Only
/// present when at least one resize was taken, so resize-free reports stay
/// byte-identical to plain runs.
pub const ELASTIC_COUNTERS: [&str; 5] = [
    "elastic_resizes",
    "elastic_joins",
    "elastic_leaves",
    "elastic_retune_profiled",
    "elastic_retune_reused",
];

/// The elastic training runtime.
#[derive(Clone, Debug, Default)]
pub struct ElasticRuntime {
    /// Controller knobs (the profiling budget).
    pub options: ElasticOptions,
}

/// An executed elastic run: the stitched report plus the plan it followed.
#[derive(Clone, Debug)]
pub struct ElasticOutcome {
    /// The stitched run report.
    pub report: RunReport,
    /// The plan the run executed.
    pub plan: ElasticPlan,
}

impl ElasticRuntime {
    /// A runtime with the given options.
    pub fn new(options: ElasticOptions) -> Self {
        ElasticRuntime { options }
    }

    /// Plans the elastic run for `scenario` without executing it.
    ///
    /// # Errors
    /// Propagates planning failures.
    pub fn plan(&self, scenario: &Scenario) -> Result<ElasticPlan, ElasticError> {
        ElasticController::new(self.options).plan(scenario)
    }

    /// Runs `scenario` elastically, returning the stitched report and plan.
    ///
    /// # Errors
    /// Propagates planning failures.
    pub fn run_elastic(&self, scenario: &Scenario) -> Result<ElasticOutcome, ElasticError> {
        let plan = self.plan(scenario)?;
        let reports: Vec<RunReport> = plan
            .epochs
            .iter()
            .map(|e| FelaRuntime::new(e.config.clone()).run(&e.scenario))
            .collect();
        let report = stitch_reports(scenario, &plan, reports, "fela-elastic");
        Ok(ElasticOutcome { report, plan })
    }

    /// Like [`ElasticRuntime::run_elastic`] but also returning each epoch's
    /// simulator trace (for conformance checking and `fela check`).
    ///
    /// # Errors
    /// Propagates planning failures.
    pub fn run_elastic_traced(
        &self,
        scenario: &Scenario,
    ) -> Result<(ElasticOutcome, Vec<Trace>), ElasticError> {
        let plan = self.plan(scenario)?;
        let mut reports = Vec::with_capacity(plan.epochs.len());
        let mut traces = Vec::with_capacity(plan.epochs.len());
        for e in &plan.epochs {
            let (report, trace) = FelaRuntime::new(e.config.clone()).run_traced(&e.scenario);
            reports.push(report);
            traces.push(trace);
        }
        let report = stitch_reports(scenario, &plan, reports, "fela-elastic");
        Ok((ElasticOutcome { report, plan }, traces))
    }
}

impl TrainingRuntime for ElasticRuntime {
    fn name(&self) -> &'static str {
        "fela-elastic"
    }

    /// # Panics
    /// Panics if the scenario's resize model is invalid (the CLI validates
    /// resize specs at parse time, so this indicates a programming error).
    fn run(&self, scenario: &Scenario) -> RunReport {
        self.run_elastic(scenario)
            .unwrap_or_else(|e| panic!("elastic plan failed: {e}"))
            .report
    }
}

/// A stop-and-restart wrapper around a fixed-membership runtime.
///
/// Runs the same epochs as the elastic controller (same memberships, same
/// iteration split) with the scenario's **fixed** batch — conventional
/// systems do not adapt it — and charges
/// [`cost::stop_restart_transition_secs`] at every boundary.
pub struct StopRestartRuntime<R> {
    /// The wrapped runtime, run once per epoch.
    pub inner: R,
    /// Report label, e.g. `"dp-restart"`.
    pub label: &'static str,
}

impl<R: TrainingRuntime> StopRestartRuntime<R> {
    /// Wraps `inner` under `label`.
    pub fn new(inner: R, label: &'static str) -> Self {
        StopRestartRuntime { inner, label }
    }
}

/// The scenario a restarted system runs in epoch `spec`. It re-shards the
/// batch evenly across the new worker count (DP requires exact
/// divisibility), rounding it down to the nearest multiple, as launch
/// scripts do.
fn restart_scenario(scenario: &Scenario, spec: &EpochSpec) -> Scenario {
    let n = spec.n_workers() as u64;
    epoch_scenario(scenario, spec, (scenario.total_batch / n).max(1) * n)
}

impl<R: TrainingRuntime> TrainingRuntime for StopRestartRuntime<R> {
    fn name(&self) -> &'static str {
        self.label
    }

    /// The wrapped runtime's check on every epoch it would run.
    fn check(&self, scenario: &Scenario) -> Result<(), String> {
        let specs = plan_epochs(scenario).map_err(|e| format!("elastic plan failed: {e}"))?;
        if specs.len() == 1 {
            return self.inner.check(scenario);
        }
        specs
            .iter()
            .try_for_each(|spec| self.inner.check(&restart_scenario(scenario, spec)))
    }

    /// # Panics
    /// Panics if the scenario's resize model is invalid.
    fn run(&self, scenario: &Scenario) -> RunReport {
        let specs = plan_epochs(scenario).unwrap_or_else(|e| panic!("elastic plan failed: {e}"));
        let param_bytes = {
            let runtime = FelaRuntime::new(fela_core::FelaConfig::new(1));
            runtime.partition_for(scenario).total_param_bytes()
        };
        // Resize-free: no segmentation, no transitions — delegate outright.
        if specs.len() == 1 {
            return self.inner.run(scenario);
        }
        let mut reports = Vec::with_capacity(specs.len());
        let mut total_transition = 0.0;
        let mut transitions = Vec::with_capacity(specs.len());
        for spec in &specs {
            let transition = if spec.index == 0 {
                0.0
            } else {
                cost::stop_restart_transition_secs(
                    param_bytes,
                    scenario.cluster.network.link_bandwidth,
                )
            };
            total_transition += transition;
            transitions.push(transition);
            reports.push(self.inner.run(&restart_scenario(scenario, spec)));
        }
        let worker_sets: Vec<&crate::WorkerSet> = specs.iter().map(|s| &s.workers).collect();
        let mut report = merge_epoch_reports(scenario, &worker_sets, reports, self.label);
        report.total_time_secs += total_transition;
        if specs.len() > 1 {
            if let Some(first) = transitions.get(1) {
                // Surface the per-boundary cost (identical at every boundary)
                // in whole milliseconds for table output.
                report.bump(
                    "elastic_transition_millis",
                    (first * 1e3).round() as u64 * (specs.len() as u64 - 1),
                );
            }
            report.bump("elastic_resizes", specs.len() as u64 - 1);
        }
        report
    }
}

/// Stitches per-epoch reports into one, charging the plan's transitions and
/// adding the gated elastic counters.
fn stitch_reports(
    base: &Scenario,
    plan: &ElasticPlan,
    reports: Vec<RunReport>,
    label: &str,
) -> RunReport {
    let worker_sets: Vec<&crate::WorkerSet> = plan.epochs.iter().map(|e| &e.spec.workers).collect();
    // Single-epoch plans are resize-free runs: return the inner report
    // untouched so delegation is byte-exact (runtime name and all).
    if plan.epochs.len() == 1 {
        let mut reports = reports;
        return reports.remove(0);
    }
    let mut report = merge_epoch_reports(base, &worker_sets, reports, label);
    report.total_time_secs += plan.total_transition_secs;
    let (mut joins, mut leaves) = (0u64, 0u64);
    for e in plan.epochs.iter().skip(1) {
        match e.spec.resize_in {
            Some(ResizeAction::Join(_)) => joins += 1,
            Some(ResizeAction::Leave(_)) => leaves += 1,
            None => {}
        }
    }
    let retune = plan.retune_totals();
    report.bump("elastic_resizes", plan.resizes() as u64);
    report.bump("elastic_joins", joins);
    report.bump("elastic_leaves", leaves);
    report.bump("elastic_retune_profiled", retune.profiled as u64);
    report.bump("elastic_retune_reused", retune.reused as u64);
    report
}

/// Merges per-epoch reports: concatenated iteration times, summed bytes and
/// counters, busy time accumulated by **stable worker id** (so a worker that
/// changes rank across epochs keeps one busy-time entry).
fn merge_epoch_reports(
    base: &Scenario,
    worker_sets: &[&crate::WorkerSet],
    reports: Vec<RunReport>,
    label: &str,
) -> RunReport {
    let mut out = RunReport::new(label.to_owned(), base.model.name.clone(), base.total_batch);
    let mut busy: BTreeMap<u64, f64> = BTreeMap::new();
    let mut samples = 0u64;
    for (set, r) in worker_sets.iter().zip(reports) {
        out.iterations += r.iterations;
        out.total_time_secs += r.total_time_secs;
        out.per_iteration_secs.extend(r.per_iteration_secs);
        out.network_bytes += r.network_bytes;
        samples += r.total_batch * r.iterations;
        for (rank, secs) in r.worker_busy_secs.iter().enumerate() {
            *busy.entry(set.ids[rank]).or_insert(0.0) += secs;
        }
        for (k, v) in r.counters {
            *out.counters.entry(k).or_insert(0) += v;
        }
    }
    out.worker_busy_secs = busy.into_values().collect();
    out.bump("elastic_samples", samples);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fela_baselines::DpRuntime;
    use fela_cluster::{ResizeEvent, ResizeModel};
    use fela_model::zoo;
    use fela_tuning::Tuner;

    fn options() -> ElasticOptions {
        ElasticOptions {
            profile_iterations: 1,
        }
    }

    fn scripted() -> ResizeModel {
        ResizeModel::Scripted(vec![
            ResizeEvent {
                iteration: 2,
                action: ResizeAction::Join(2),
            },
            ResizeEvent {
                iteration: 4,
                action: ResizeAction::Leave(vec![0]),
            },
        ])
    }

    #[test]
    fn resize_free_run_is_byte_identical_to_plain_tuned_fela() {
        let sc = Scenario::paper(zoo::googlenet(), 256).with_iterations(3);
        let tuner = Tuner {
            profile_iterations: 1,
        };
        let plain = FelaRuntime::new(tuner.tune_with_jobs(&sc, 1).best_config).run(&sc);
        let elastic = ElasticRuntime::new(options()).run(&sc);
        assert_eq!(
            serde_json::to_string(&plain).expect("serializes"),
            serde_json::to_string(&elastic).expect("serializes"),
            "resize-free elastic runs must delegate byte-exactly"
        );
        assert_eq!(elastic.counter("elastic_resizes"), 0);
        assert!(!elastic.counters.contains_key("elastic_samples"));
    }

    #[test]
    fn resized_run_stitches_iterations_and_counts_membership_changes() {
        let sc = Scenario::paper(zoo::googlenet(), 256)
            .with_iterations(6)
            .with_resize(scripted());
        let rt = ElasticRuntime::new(options());
        let outcome = rt.run_elastic(&sc).expect("runs");
        let r = &outcome.report;
        assert_eq!(r.runtime, "fela-elastic");
        assert_eq!(r.iterations, 6);
        assert_eq!(r.per_iteration_secs.len(), 6);
        assert_eq!(r.counter("elastic_resizes"), 2);
        assert_eq!(r.counter("elastic_joins"), 1);
        assert_eq!(r.counter("elastic_leaves"), 1);
        // 11 distinct workers ever participated: 8 initial + 2 joiners, one
        // left (still counted — it did work in epochs 0 and 1).
        assert_eq!(r.worker_busy_secs.len(), 10);
        let epoch_time: f64 = outcome.plan.epochs.iter().map(|e| e.transition_secs).sum();
        assert!(r.total_time_secs > epoch_time, "compute time dominates");
    }

    #[test]
    fn elastic_run_is_deterministic() {
        let sc = Scenario::paper(zoo::googlenet(), 128)
            .with_iterations(6)
            .with_resize(ResizeModel::Churn { rate: 0.5, seed: 7 });
        let rt = ElasticRuntime::new(options());
        let a = rt.run(&sc);
        let b = rt.run(&sc);
        assert_eq!(
            serde_json::to_string(&a).expect("serializes"),
            serde_json::to_string(&b).expect("serializes"),
        );
    }

    #[test]
    fn stop_restart_baseline_charges_more_per_boundary() {
        let sc = Scenario::paper(zoo::googlenet(), 256)
            .with_iterations(6)
            .with_resize(scripted());
        let elastic = ElasticRuntime::new(options()).run(&sc);
        let restart = StopRestartRuntime::new(DpRuntime::default(), "dp-restart").run(&sc);
        assert_eq!(restart.iterations, 6);
        assert_eq!(restart.counter("elastic_resizes"), 2);
        // Each boundary costs ≥ STOP_RESTART_SECS for the baseline; Fela's
        // transition total must be far below the baseline's.
        let fela_overhead = elastic.counter("elastic_resizes") as f64 * cost::STOP_RESTART_SECS;
        assert!(restart.total_time_secs > fela_overhead);
        let millis = restart.counter("elastic_transition_millis");
        assert!(millis as f64 / 1e3 >= 2.0 * cost::STOP_RESTART_SECS);
    }

    /// FNV-1a over `value`'s JSON.
    fn digest(value: &impl serde::Serialize) -> u64 {
        let json = serde_json::to_string(value).expect("serializes");
        json.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// Pins the plans of the two scenarios `fela check --elastic` runs (every
    /// epoch's summary plus its re-tune's search seconds, to the bit) and the
    /// stop-and-restart DP report of the scripted one.
    #[test]
    fn elastic_plan_digests_are_pinned() {
        let base = |resize| {
            Scenario::paper(zoo::googlenet(), 256)
                .with_iterations(6)
                .with_resize(resize)
        };
        let scripted = base(ResizeModel::Scripted(vec![
            ResizeEvent {
                iteration: 2,
                action: ResizeAction::Join(2),
            },
            ResizeEvent {
                iteration: 4,
                action: ResizeAction::Leave(vec![9, 3]),
            },
        ]));
        let churn = base(ResizeModel::Churn {
            rate: 0.5,
            seed: 11,
        });
        let plan_digest = |sc: &Scenario| {
            let plan = ElasticRuntime::new(options()).plan(sc).expect("plans");
            let epochs: Vec<_> = plan
                .epochs
                .iter()
                .map(|e| (e.summary(), e.retune.search_secs.to_bits()))
                .collect();
            digest(&epochs)
        };
        let restart = StopRestartRuntime::new(DpRuntime::default(), "dp-restart").run(&scripted);
        assert_eq!(
            [
                plan_digest(&scripted),
                plan_digest(&churn),
                digest(&restart)
            ],
            [
                0xc362_ed57_7b21_0de4,
                0xca31_ff46_cff6_1756,
                0x6c6e_8926_af0d_ece0
            ],
            "elastic plans or the stop-restart report moved"
        );
    }

    #[test]
    fn traced_run_yields_one_trace_per_epoch() {
        let sc = Scenario::paper(zoo::googlenet(), 256)
            .with_iterations(6)
            .with_resize(scripted());
        let (outcome, traces) = ElasticRuntime::new(options())
            .run_elastic_traced(&sc)
            .expect("runs");
        assert_eq!(traces.len(), outcome.plan.epochs.len());
        assert_eq!(traces.len(), 3);
    }
}
