//! Live elasticity: per-epoch live sessions over a real wire protocol.
//!
//! A live elastic run executes each planned epoch as its own live session:
//! a **fresh transport** is established per epoch, so joiners genuinely
//! perform the `Hello` handshake when their epoch begins (over TCP this is
//! a real connect + handshake), and leavers drain through the `End`-frame
//! epilogue of the epoch they depart — the wire-level counterpart of the
//! simulator's iteration-boundary drain.
//!
//! Conformance: every epoch's live report is the simulator's for the same
//! epoch ([`fela_live::run_virtual`] prices spans with the simulator's own
//! model and ships only the replicas' training over the wire), so the
//! stitched elastic live report is byte-identical to
//! [`crate::ElasticRuntime::run_elastic`]'s — the sim-vs-live elastic
//! conformance tests pin this across both transports.

use std::io;

use fela_cluster::Scenario;
use fela_live::{run_virtual, transport_by_name, LiveOutcome};
use fela_metrics::RunReport;

use crate::controller::{ElasticOptions, ElasticPlan};
use crate::run::{stitch_reports, ElasticRuntime};

/// Result of a live elastic run.
pub struct ElasticLiveOutcome {
    /// The stitched report — byte-identical to the simulated elastic run.
    pub report: RunReport,
    /// The plan the run executed.
    pub plan: ElasticPlan,
    /// Per-epoch live outcomes (report, trace, final parameters).
    pub epochs: Vec<LiveOutcome>,
}

/// Runs `scenario` elastically in virtual-clock live mode, one live session
/// per epoch over transport `transport_name` (`"chan"` / `"tcp"`).
///
/// # Errors
/// Fails on an unknown transport, an invalid resize model, or any wire-level
/// error inside an epoch session.
pub fn run_live_elastic(
    options: ElasticOptions,
    scenario: &Scenario,
    transport_name: &str,
) -> io::Result<ElasticLiveOutcome> {
    let plan = ElasticRuntime::new(options)
        .plan(scenario)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
    let mut epochs = Vec::with_capacity(plan.epochs.len());
    let mut reports = Vec::with_capacity(plan.epochs.len());
    for e in &plan.epochs {
        let mut transport = transport_by_name(transport_name).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("unknown transport {transport_name:?}"),
            )
        })?;
        let outcome = run_virtual(&e.config, &e.scenario, transport.as_mut())?;
        reports.push(outcome.report.clone());
        epochs.push(outcome);
    }
    let report = stitch_reports(scenario, &plan, reports, "fela-elastic");
    Ok(ElasticLiveOutcome {
        report,
        plan,
        epochs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fela_cluster::{ResizeAction, ResizeEvent, ResizeModel};
    use fela_model::zoo;

    fn scenario() -> Scenario {
        Scenario::paper(zoo::googlenet(), 256)
            .with_iterations(4)
            .with_resize(ResizeModel::Scripted(vec![
                ResizeEvent {
                    iteration: 2,
                    action: ResizeAction::Join(1),
                },
                ResizeEvent {
                    iteration: 3,
                    action: ResizeAction::Leave(vec![2]),
                },
            ]))
    }

    fn options() -> ElasticOptions {
        ElasticOptions {
            profile_iterations: 1,
        }
    }

    #[test]
    fn live_elastic_over_chan_matches_the_simulated_run_bytewise() {
        let sc = scenario();
        let live = run_live_elastic(options(), &sc, "chan").expect("live run");
        let sim = ElasticRuntime::new(options())
            .run_elastic(&sc)
            .expect("sim run");
        assert_eq!(
            serde_json::to_string(&live.report).expect("serializes"),
            serde_json::to_string(&sim.report).expect("serializes"),
            "live elastic must conform to the simulator bytewise"
        );
        assert_eq!(live.epochs.len(), 3);
        // Every epoch produced agreed-upon final parameters.
        for e in &live.epochs {
            assert!(!e.params.is_empty());
        }
    }

    #[test]
    fn unknown_transport_is_a_clean_error() {
        let err = run_live_elastic(options(), &scenario(), "carrier-pigeon")
            .err()
            .expect("must fail");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }
}
