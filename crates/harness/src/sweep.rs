//! Declarative sweeps: a runtime factory axis × a scenario axis.
//!
//! A [`SweepSpec`] names the experiment, lists labeled runtime factories and
//! labeled scenarios, and expands into the full cross product of independent
//! [`RunJob`]s. [`SweepSpec::run`] executes the jobs — in parallel when asked —
//! and returns a [`SweepResult`] whose record stream is always in expansion
//! order, so output is byte-identical for any `--jobs` value.
//!
//! Runtimes are constructed *per job* from factories rather than shared, so a
//! factory may do per-scenario work (e.g. run the tuner for the job's batch
//! size) inside the parallel region.

use std::sync::Arc;
use std::time::{Duration, Instant};

use fela_cluster::{Scenario, TrainingRuntime};
use fela_metrics::RunReport;

use crate::exec;
use crate::record::{self, RunRecord};

/// Builds the runtime for one job, given the job's (seed-adjusted) scenario.
pub type RuntimeFactory = Arc<dyn Fn(&Scenario) -> Box<dyn TrainingRuntime> + Send + Sync>;

/// A factory around an already-built runtime: every job shares the one
/// instance (runtimes take `&self`, so a thread-safe runtime needs no
/// per-job reconstruction). Useful when construction is expensive — e.g. a
/// Fela runtime whose configuration was already tuned.
pub fn share_runtime<R>(runtime: R) -> RuntimeFactory
where
    R: TrainingRuntime + Send + Sync + 'static,
{
    struct Shared<R>(Arc<R>);
    impl<R: TrainingRuntime> TrainingRuntime for Shared<R> {
        fn name(&self) -> &'static str {
            self.0.name()
        }
        fn check(&self, scenario: &Scenario) -> Result<(), String> {
            self.0.check(scenario)
        }
        fn run(&self, scenario: &Scenario) -> RunReport {
            self.0.run(scenario)
        }
    }
    let shared = Arc::new(runtime);
    Arc::new(move |_: &Scenario| Box::new(Shared(Arc::clone(&shared))))
}

/// A declarative experiment sweep.
#[derive(Clone)]
pub struct SweepSpec {
    /// Experiment name; also the JSONL artifact stem.
    pub name: String,
    /// Labeled runtime factories (the first sweep axis).
    pub runtimes: Vec<(String, RuntimeFactory)>,
    /// Labeled scenarios (the second sweep axis).
    pub scenarios: Vec<(String, Scenario)>,
    /// Optional seed override, re-rooting each scenario's straggler, fault
    /// and resize realisations via [`fela_cluster::StragglerModel::with_seed`],
    /// [`fela_cluster::FaultModel::with_seed`] and
    /// [`fela_cluster::ResizeModel::with_seed`]. Applied per scenario, so all
    /// runtimes still compare under one realisation.
    pub seed: Option<u64>,
}

/// One expanded (runtime, scenario) cell of a sweep.
pub struct RunJob {
    /// Position in expansion order (scenario-major, then runtime).
    pub index: usize,
    /// Runtime label.
    pub runtime: String,
    /// Scenario label.
    pub scenario_label: String,
    /// The scenario, with any sweep seed already applied.
    pub scenario: Scenario,
    factory: RuntimeFactory,
}

impl RunJob {
    /// Executes the job: builds the runtime, runs the scenario.
    fn execute(&self) -> RunReport {
        let runtime = (self.factory)(&self.scenario);
        runtime.run(&self.scenario)
    }
}

impl SweepSpec {
    /// An empty sweep named `name`.
    pub fn new(name: impl Into<String>) -> Self {
        SweepSpec {
            name: name.into(),
            runtimes: Vec::new(),
            scenarios: Vec::new(),
            seed: None,
        }
    }

    /// Adds a runtime axis entry from a factory closure (builder style).
    #[must_use]
    pub fn runtime<F>(mut self, label: impl Into<String>, factory: F) -> Self
    where
        F: Fn(&Scenario) -> Box<dyn TrainingRuntime> + Send + Sync + 'static,
    {
        self.runtimes.push((label.into(), Arc::new(factory)));
        self
    }

    /// Adds a pre-built factory under a label (builder style).
    #[must_use]
    pub fn runtime_factory(mut self, label: impl Into<String>, factory: RuntimeFactory) -> Self {
        self.runtimes.push((label.into(), factory));
        self
    }

    /// Adds a labeled scenario (builder style).
    #[must_use]
    pub fn scenario(mut self, label: impl Into<String>, scenario: Scenario) -> Self {
        self.scenarios.push((label.into(), scenario));
        self
    }

    /// Sets the seed override (builder style). `None` keeps scenario seeds.
    #[must_use]
    pub fn with_seed(mut self, seed: Option<u64>) -> Self {
        self.seed = seed;
        self
    }

    /// Expands the grid into independent jobs, scenario-major: all runtimes
    /// for scenario 0, then all runtimes for scenario 1, and so on. This
    /// ordering groups comparison partners together in the record stream.
    pub fn expand(&self) -> Vec<RunJob> {
        let mut jobs = Vec::with_capacity(self.runtimes.len() * self.scenarios.len());
        for (scenario_label, scenario) in &self.scenarios {
            let scenario = match self.seed {
                Some(seed) => scenario
                    .clone()
                    .with_straggler(scenario.straggler.with_seed(seed))
                    .with_fault(scenario.fault.with_seed(seed))
                    .with_resize(scenario.resize.clone().with_seed(seed)),
                None => scenario.clone(),
            };
            for (runtime_label, factory) in &self.runtimes {
                jobs.push(RunJob {
                    index: jobs.len(),
                    runtime: runtime_label.clone(),
                    scenario_label: scenario_label.clone(),
                    scenario: scenario.clone(),
                    factory: Arc::clone(factory),
                });
            }
        }
        jobs
    }

    /// Runs every job on `jobs` worker threads and collects records in
    /// expansion order. Purely deterministic: the record stream does not
    /// depend on `jobs`.
    pub fn run(&self, jobs: usize) -> SweepResult {
        let expanded = self.expand();
        // The sweep's wall time is reported on stderr only and never enters
        // a run artifact: records are a deterministic function of the spec.
        #[allow(clippy::disallowed_methods)]
        let started = Instant::now();
        let records = exec::run_indexed(expanded.len(), jobs, |i| {
            let job = &expanded[i];
            let report = job.execute();
            RunRecord::new(
                &self.name,
                &job.runtime,
                &job.scenario_label,
                &job.scenario,
                self.seed,
                report,
            )
        });
        SweepResult {
            experiment: self.name.clone(),
            records,
            wall: started.elapsed(),
        }
    }
}

/// The outcome of a sweep: records in expansion order plus wall-clock timing.
pub struct SweepResult {
    /// Sweep name (JSONL artifact stem).
    pub experiment: String,
    /// One record per job, in expansion order.
    pub records: Vec<RunRecord>,
    /// Wall-clock duration of the whole sweep (not part of any record).
    pub wall: Duration,
}

impl SweepResult {
    /// The record for a (runtime, scenario) cell.
    pub fn record(&self, runtime: &str, scenario: &str) -> Option<&RunRecord> {
        self.records
            .iter()
            .find(|r| r.runtime == runtime && r.scenario == scenario)
    }

    /// The report for a (runtime, scenario) cell.
    ///
    /// # Panics
    /// Panics if the cell is not present in the sweep.
    pub fn report(&self, runtime: &str, scenario: &str) -> &RunReport {
        &self
            .record(runtime, scenario)
            .unwrap_or_else(|| panic!("no record for runtime={runtime} scenario={scenario}"))
            .report
    }

    /// All records for one scenario label, in runtime-axis order.
    pub fn scenario_records(&self, scenario: &str) -> Vec<&RunRecord> {
        self.records
            .iter()
            .filter(|r| r.scenario == scenario)
            .collect()
    }

    /// Writes the record stream to `<results_dir>/<experiment>.jsonl` and
    /// notes wall-clock timing on stderr (never in the artifact).
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn write_artifacts(&self) -> std::io::Result<std::path::PathBuf> {
        self.write_artifacts_to(&record::results_dir())
    }

    /// Like [`Self::write_artifacts`] but with an explicit directory (the
    /// `--results-dir` flag).
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn write_artifacts_to(&self, dir: &std::path::Path) -> std::io::Result<std::path::PathBuf> {
        let path = record::write_jsonl_to(dir, &self.experiment, &self.records)?;
        eprintln!(
            "[{}] {} runs in {:.2?} -> {}",
            self.experiment,
            self.records.len(),
            self.wall,
            path.display()
        );
        Ok(path)
    }
}
