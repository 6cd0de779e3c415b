//! Live elasticity: [`ElasticRuntime::run_elastic_traced`] plus one
//! [`fela_live::train_replicas`] per epoch, each over a **fresh transport**.
//!
//! Joiners genuinely perform the `Hello` handshake when their epoch's
//! replicas start (over TCP a real connect + handshake), and leavers drain
//! through the `End`-frame epilogue of the epoch they depart — the
//! wire-level counterpart of the simulator's iteration-boundary drain. The
//! stitched report *is* the simulated elastic run's, so it is byte-identical
//! to [`ElasticRuntime::run_elastic`]'s on both transports.

use std::io;

use fela_cluster::Scenario;
use fela_live::{pass, plan_for, schedules_from_trace, train_replicas, transport_by_name};
use fela_metrics::RunReport;

use crate::controller::{ElasticOptions, ElasticPlan};
use crate::run::{ElasticOutcome, ElasticRuntime};

/// Result of a live elastic run.
pub struct ElasticLiveOutcome {
    /// The stitched report — byte-identical to the simulated elastic run.
    pub report: RunReport,
    /// The plan the run executed.
    pub plan: ElasticPlan,
    /// Each epoch's final replica parameters, in epoch order.
    pub params: Vec<Vec<u8>>,
}

/// Runs `scenario` elastically in virtual-clock live mode, training each
/// epoch's replicas over a fresh `transport_name` (`"chan"` / `"tcp"`).
///
/// # Errors
/// Fails on an unknown transport (before planning), an invalid resize
/// model, or any wire-level error while an epoch's replicas train.
pub fn run_live_elastic(
    options: ElasticOptions,
    scenario: &Scenario,
    transport_name: &str,
) -> io::Result<ElasticLiveOutcome> {
    let transport = || {
        transport_by_name(transport_name).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("unknown transport {transport_name:?}"),
            )
        })
    };
    // An unknown name fails here, before planning; every epoch below then
    // trains over a fresh transport of the resolved kind.
    transport()?;
    let (ElasticOutcome { report, plan }, traces) = ElasticRuntime::new(options)
        .run_elastic_traced(scenario)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
    let params = plan
        .epochs
        .iter()
        .zip(&traces)
        .map(|(e, trace)| {
            train_replicas(
                &plan_for(&e.config, &e.scenario)?,
                &e.scenario,
                &schedules_from_trace(trace),
                transport()?.as_mut(),
                pass(),
            )
        })
        .collect::<io::Result<_>>()?;
    Ok(ElasticLiveOutcome {
        report,
        plan,
        params,
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
        assert_eq!(live.params.len(), live.plan.epochs.len());
        assert_eq!(live.params.len(), 3);
        // Every epoch produced agreed-upon final parameters.
        for params in &live.params {
            assert!(!params.is_empty());
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
