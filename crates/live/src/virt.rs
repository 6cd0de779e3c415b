//! Virtual-clock live runs: real threads, simulated time.
//!
//! The Token Server side *is* the simulator: [`fela_core::FelaRuntime`] runs
//! its full discrete-event loop (grants, fetches, syncs, straggler floors,
//! leases, faults) and prices every compute span with its own analytic
//! model, so the emitted trace and report are **byte-identical** to
//! `FelaRuntime::run_traced` by construction.
//!
//! What crosses the wire is the replicas' training: after the simulated run
//! drains, the server extracts one engine schedule per iteration from the
//! trace (completion-order relabeling, see [`crate::replay`]), broadcasts
//! them as `Iter` frames, and collects every worker's final parameters,
//! asserting they agree bit-for-bit with a local reference replay. A virtual
//! run therefore sends only frames the real-clock run sends too (`Hello`,
//! `Iter`, `End`, `Params`).

use std::io;

use fela_cluster::Scenario;
use fela_core::{FelaConfig, FelaRuntime, TokenPlan};
use fela_metrics::RunReport;
use fela_sim::Trace;

use crate::replay::{epilogue, replay_schedules, schedules_from_trace};
use crate::sched::{pass, Endpoint, SharedSched};
use crate::transport::{Link, Transport};
use crate::wire::Frame;
use crate::worker::{spawn_worker, WorkerSpec};

/// Result of a virtual-clock live run.
pub struct LiveOutcome {
    /// The run report — byte-identical to the simulator's.
    pub report: RunReport,
    /// The trace — byte-identical to the simulator's.
    pub trace: Trace,
    /// Final model parameters (all workers agreed, and matched the local
    /// reference replay).
    pub params: Vec<u8>,
    /// Transport the run used (`"chan"` / `"tcp"`).
    pub transport: &'static str,
}

/// Builds the token plan the runtime will use for `scenario` (needed to size
/// the worker engine replicas identically).
pub fn plan_for(config: &FelaConfig, scenario: &Scenario) -> io::Result<TokenPlan> {
    let runtime = FelaRuntime::new(config.clone());
    let partition = runtime.partition_for(scenario);
    TokenPlan::build(
        &partition,
        config,
        scenario.total_batch,
        scenario.cluster.nodes,
    )
    .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))
}

/// Runs `scenario` live in virtual-clock mode over `transport` with one
/// worker thread per cluster node, under the default pass-through scheduler.
pub fn run_virtual(
    config: &FelaConfig,
    scenario: &Scenario,
    transport: &mut dyn Transport,
) -> io::Result<LiveOutcome> {
    run_virtual_with(config, scenario, transport, pass())
}

/// [`run_virtual`] with an explicit [`Sched`](crate::sched::Sched): every
/// link on both endpoints yields its frame traffic to `sched`. Under
/// [`pass`] this is byte-identical to the uninstrumented run.
pub fn run_virtual_with(
    config: &FelaConfig,
    scenario: &Scenario,
    transport: &mut dyn Transport,
    sched: SharedSched,
) -> io::Result<LiveOutcome> {
    let n = scenario.cluster.nodes;
    let plan = plan_for(config, scenario)?;
    let (mut server_links, worker_links) = transport.establish(n)?;
    for (w, link) in server_links.iter_mut().enumerate() {
        link.instrument(sched.clone(), Endpoint::Server, w);
    }
    let handles: Vec<_> = worker_links
        .into_iter()
        .enumerate()
        .map(|(index, link)| {
            spawn_worker(
                WorkerSpec {
                    index,
                    scenario: scenario.clone(),
                    plan: plan.clone(),
                    time_scale: 0.0,
                    pull: false,
                    sched: sched.clone(),
                },
                link,
            )
        })
        .collect();

    let (report, trace) = FelaRuntime::new(config.clone()).run_traced(scenario);

    // Drive the engine replicas: every worker's epilogue ships as one queued
    // batch and a single flush, to every worker before any `Params` is
    // collected, so the replicas replay in parallel.
    let schedules = schedules_from_trace(&trace);
    let reference = replay_schedules(&plan, &schedules);
    let epilogue = epilogue(&schedules);
    let mut halves: Vec<_> = server_links.into_iter().map(Link::split).collect();
    for (tx, _) in &mut halves {
        epilogue.iter().try_for_each(|f| tx.queue(f))?;
        tx.flush()?;
    }
    for (w, (_, rx)) in halves.iter_mut().enumerate() {
        match rx.recv()? {
            Frame::Params { bytes } => assert_eq!(
                bytes, reference,
                "worker {w}: replica parameters diverged from the reference replay"
            ),
            other => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("worker {w}: expected Params, got {other:?}"),
                ))
            }
        }
    }
    for handle in handles {
        if handle.join().is_err() {
            panic!("worker thread panicked instead of exiting cleanly");
        }
    }
    Ok(LiveOutcome {
        report,
        trace,
        params: reference,
        transport: transport.name(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{ChanTransport, TcpTransport};
    use fela_model::zoo;

    fn quick_scenario() -> (FelaConfig, Scenario) {
        let mut scenario = Scenario::paper(zoo::vgg19(), 128);
        scenario.iterations = 3;
        scenario.cluster = fela_cluster::ClusterSpec::k40c_cluster(4);
        let config = FelaConfig::new(3).with_weights(vec![1, 2, 4]);
        (config, scenario)
    }

    #[test]
    fn virtual_chan_run_is_byte_identical_to_sim() {
        let (config, scenario) = quick_scenario();
        let sim = FelaRuntime::new(config.clone()).run_traced(&scenario);
        let live = run_virtual(&config, &scenario, &mut ChanTransport).expect("live run succeeds");
        assert_eq!(sim.1.events(), live.trace.events(), "traces must match");
        assert_eq!(
            sim.0.total_time_secs.to_bits(),
            live.report.total_time_secs.to_bits(),
            "makespans must be bit-identical"
        );
        assert_eq!(sim.0.per_iteration_secs, live.report.per_iteration_secs);
        assert_eq!(sim.0.counters, live.report.counters);
        assert!(!live.params.is_empty());
    }

    #[test]
    fn virtual_tcp_run_is_byte_identical_to_sim() {
        let (config, scenario) = quick_scenario();
        let sim = FelaRuntime::new(config.clone()).run_traced(&scenario);
        let live = run_virtual(&config, &scenario, &mut TcpTransport::default())
            .expect("live run succeeds");
        assert_eq!(sim.1.events(), live.trace.events(), "traces must match");
    }
}
