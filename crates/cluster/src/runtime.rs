//! The runtime interface every training system implements.
//!
//! Separated from [`crate::scenario`] so that consumers that only dispatch
//! runtimes (the experiment harness, the CLI) depend on a module whose job is
//! exactly that: naming and executing a runtime against a [`Scenario`].

use fela_metrics::RunReport;

use crate::scenario::Scenario;

/// A distributed-training runtime that can execute a scenario.
///
/// A runtime states what it needs of a scenario once, in
/// [`TrainingRuntime::check`]; a front end calls it before any expensive
/// work so a scenario the runtime cannot run is a one-line error, and
/// [`TrainingRuntime::run`] refuses such a scenario only through it.
pub trait TrainingRuntime {
    /// Short identifier used in reports (`"fela"`, `"dp"`, `"mp"`, `"hp"`).
    fn name(&self) -> &'static str;

    /// Whether the runtime can run `scenario`.
    ///
    /// # Errors
    /// The precondition `scenario` breaks, as a one-line reason.
    fn check(&self, scenario: &Scenario) -> Result<(), String> {
        let _ = scenario;
        Ok(())
    }

    /// Executes the scenario and reports timing/counters.
    ///
    /// # Panics
    /// Panics with [`TrainingRuntime::check`]'s reason on a scenario it
    /// refuses.
    fn run(&self, scenario: &Scenario) -> RunReport;
}
