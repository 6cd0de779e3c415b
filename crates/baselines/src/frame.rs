//! The BSP simulation frame the three baselines share.
//!
//! A baseline is a [`Protocol`]: its own state and events. The [`Frame`] owns
//! everything else — the scenario, the network and its one wake-up event, the
//! per-worker busy time and the iteration clock — and [`run`] drives a
//! protocol inside it from the first iteration to the report.

use fela_cluster::Scenario;
use fela_metrics::RunReport;
use fela_net::{FlowId, FlowSpec, Network};
use fela_sim::{BusyTracker, Engine, EventId, RunOutcome, Scheduler, SimTime, World};

/// A baseline event: one of the frame's two, or one of the protocol's own.
pub(crate) enum Ev<E> {
    /// The barrier released the next iteration.
    IterationStart,
    /// The network's next flow completion.
    NetWake,
    /// An event of the protocol's own.
    Local(E),
}

/// The scheduler protocol `P`'s handlers receive.
pub(crate) type Sched<'a, P> = Scheduler<'a, Ev<<P as Protocol>::Event>>;

/// The flows one network wake-up completed.
pub(crate) type Done = Vec<(FlowId, FlowSpec)>;

/// One baseline's own state and events, driven by the frame.
pub(crate) trait Protocol {
    /// The protocol's own events.
    type Event;

    /// Starts `f.iteration`, whose clock the frame has just set.
    fn start_iteration(&mut self, f: &mut Frame, sched: &mut Sched<'_, Self>);

    /// Handles one of the protocol's own events.
    fn on_event(
        &mut self,
        f: &mut Frame,
        now: SimTime,
        ev: Self::Event,
        sched: &mut Sched<'_, Self>,
    );

    /// Handles the flows that completed at `now`; the frame re-arms the
    /// network wake-up afterwards.
    fn on_flows(&mut self, f: &mut Frame, now: SimTime, done: Done, sched: &mut Sched<'_, Self>);

    /// Adds the protocol's own counters to the finished run's report.
    fn count(&self, _report: &mut RunReport) {}
}

/// What every baseline simulation owns besides its protocol.
pub(crate) struct Frame {
    pub(crate) scenario: Scenario,
    pub(crate) net: Network,
    net_ev: Option<EventId>,
    pub(crate) busy: Vec<BusyTracker>,
    /// The current (0-based) iteration.
    pub(crate) iteration: u64,
    iteration_start: SimTime,
    per_iteration_secs: Vec<f64>,
    finished_at: Option<SimTime>,
}

impl Frame {
    pub(crate) fn nodes(&self) -> usize {
        self.scenario.cluster.nodes
    }

    /// Keeps the one network wake-up at the next flow completion.
    pub(crate) fn rearm_net<E>(&mut self, sched: &mut Scheduler<'_, Ev<E>>) {
        self.net.rearm_wake(&mut self.net_ev, sched, Ev::NetWake);
    }

    /// The earliest `worker` may compute in this iteration. A straggler
    /// cannot start before `iteration_start + d` (§V-C2: the sleep delays the
    /// worker's computation start, so it overlaps any idle time the worker
    /// had anyway). A fault stalls the victim the same way: no baseline has
    /// token recovery, so the iteration waits the downtime out.
    pub(crate) fn compute_floor(&self, worker: usize) -> SimTime {
        self.iteration_start
            + self.scenario.straggler_delay(self.iteration, worker)
            + self.scenario.fault_stall(self.iteration, worker)
    }

    /// Closes the iteration now, then releases the next one or ends the run.
    pub(crate) fn finish_iteration<E>(&mut self, sched: &mut Scheduler<'_, Ev<E>>) {
        let now = sched.now();
        self.per_iteration_secs
            .push(now.since(self.iteration_start).as_secs_f64());
        self.iteration += 1;
        if self.iteration < self.scenario.iterations {
            sched.schedule_now(Ev::IterationStart);
        } else {
            self.finished_at = Some(now);
        }
    }
}

struct Sim<P> {
    frame: Frame,
    protocol: P,
}

impl<P: Protocol> World for Sim<P> {
    type Event = Ev<P::Event>;

    fn handle(&mut self, now: SimTime, event: Self::Event, sched: &mut Sched<'_, P>) {
        let frame = &mut self.frame;
        match event {
            Ev::IterationStart => {
                frame.iteration_start = now;
                self.protocol.start_iteration(frame, sched);
            }
            Ev::NetWake => {
                frame.net_ev = None;
                let done = frame.net.take_completions(now);
                self.protocol.on_flows(frame, now, done, sched);
                frame.rearm_net(sched);
            }
            Ev::Local(event) => self.protocol.on_event(frame, now, event, sched),
        }
    }
}

/// Runs `protocol` — or panics with the reason `runtime` refused the
/// scenario — through every iteration of `scenario`, and reports the run.
pub(crate) fn run<P: Protocol>(
    runtime: &str,
    scenario: &Scenario,
    protocol: Result<P, String>,
) -> RunReport {
    scenario.cluster.validate();
    let protocol = protocol.unwrap_or_else(|reason| panic!("{runtime}: {reason}"));
    let frame = Frame {
        scenario: scenario.clone(),
        net: Network::new(scenario.cluster.network),
        net_ev: None,
        busy: vec![BusyTracker::new(); scenario.cluster.nodes],
        iteration: 0,
        iteration_start: SimTime::ZERO,
        per_iteration_secs: Vec::new(),
        finished_at: None,
    };
    let mut engine = Engine::new(Sim { frame, protocol });
    engine.prime(Ev::IterationStart);
    assert_eq!(engine.run(1 << 32), RunOutcome::Drained);
    let (Sim { frame, protocol }, _) = engine.into_world();
    let end = frame.finished_at.expect("all iterations completed");

    let mut report = RunReport::new(runtime, &scenario.model.name, scenario.total_batch);
    report.iterations = frame.iteration;
    report.total_time_secs = end.as_secs_f64();
    report.per_iteration_secs = frame.per_iteration_secs;
    report.network_bytes = frame.net.bytes_delivered();
    report.worker_busy_secs = frame
        .busy
        .iter()
        .map(|b| b.busy_time().as_secs_f64())
        .collect();
    protocol.count(&mut report);
    report
}
