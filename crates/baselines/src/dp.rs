//! The data-parallel (DP) baseline.
//!
//! Classic BSP data parallelism as the paper's first comparator: every worker holds
//! a full model replica, trains `total_batch / N` samples per iteration (in
//! gradient-accumulation micro-batches when the per-worker batch exceeds GPU
//! memory), then all workers ring-all-reduce the *entire* parameter set. The
//! iteration ends when the all-reduce drains — the synchronisation volume that the
//! paper's §II-A argues makes DP network-bound, and which does **not** shrink as
//! the batch grows (the reason DP eventually overtakes HP in Figure 8).

use fela_cluster::{Scenario, TrainingRuntime};
use fela_metrics::RunReport;
use fela_net::{FlowSpec, Network, NodeId, RingAllReduce};
use fela_sim::{BusyTracker, Engine, EventId, RunOutcome, Scheduler, SimDuration, SimTime, World};

/// How the DP baseline synchronises gradients.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DpSync {
    /// Bandwidth-optimal ring all-reduce (Gloo's algorithm — the default, and
    /// what the paper's prototypes use).
    Ring,
    /// Parameter-server: every worker pushes its full gradient to `servers` PS
    /// shards (co-located on the first `servers` workers, each holding
    /// `1/servers` of the parameters) and pulls fresh parameters back. With one
    /// server this exhibits the centralized bottleneck the paper attributes to
    /// PS-based designs like FlexPS (§II-D).
    ParameterServer {
        /// Number of PS shards.
        servers: usize,
    },
}

enum Ev {
    IterationStart,
    ComputeDone { worker: usize },
    NetWake,
}

enum SyncPhase {
    Idle,
    Ring(RingAllReduce),
    /// PS push in flight: remaining push flows.
    PsPush(usize),
    /// PS pull in flight: remaining pull flows.
    PsPull(usize),
}

struct DpWorld {
    scenario: Scenario,
    sync_mode: DpSync,
    net: Network,
    net_ev: Option<EventId>,
    busy: Vec<BusyTracker>,
    compute_done: usize,
    sync: SyncPhase,
    iteration: u64,
    iteration_start: SimTime,
    per_iteration_secs: Vec<f64>,
    finished_at: Option<SimTime>,
}

impl DpWorld {
    fn n(&self) -> usize {
        self.scenario.cluster.nodes
    }

    fn reschedule_net(&mut self, sched: &mut Scheduler<'_, Ev>) {
        if let Some(ev) = self.net_ev.take() {
            sched.cancel(ev);
        }
        if let Some(t) = self.net.next_completion() {
            self.net_ev = Some(sched.schedule_at(t.max(sched.now()), Ev::NetWake));
        }
    }

    /// Starts the PS push phase: each worker ships `params/servers` bytes to
    /// every PS shard. Returns the number of flows started.
    fn start_ps_push(&mut self, now: SimTime, servers: usize) -> usize {
        self.start_ps_phase(now, servers, |w, srv| (w, srv))
    }

    /// Starts the PS pull phase (mirror image of the push).
    fn start_ps_pull(&mut self, now: SimTime, servers: usize) -> usize {
        self.start_ps_phase(now, servers, |w, srv| (srv, w))
    }

    /// Starts one shard flow per (worker, server) pair with one batched start;
    /// `ends` maps the pair to the flow's `(src, dst)`.
    fn start_ps_phase(
        &mut self,
        now: SimTime,
        servers: usize,
        ends: impl Fn(usize, usize) -> (usize, usize),
    ) -> usize {
        let shard = self.scenario.model.param_bytes() / servers as u64;
        let specs: Vec<FlowSpec> = (0..self.n())
            .flat_map(|w| (0..servers).map(move |srv| (w, srv)))
            .map(|(w, srv)| {
                let (src, dst) = ends(w, srv);
                FlowSpec {
                    src: NodeId(src),
                    dst: NodeId(dst),
                    bytes: shard,
                    tag: 0,
                }
            })
            .collect();
        self.net.start_flows(now, &specs).len()
    }

    fn finish_iteration(&mut self, sched: &mut Scheduler<'_, Ev>) {
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

impl World for DpWorld {
    type Event = Ev;

    fn handle(&mut self, now: SimTime, event: Ev, sched: &mut Scheduler<'_, Ev>) {
        match event {
            Ev::IterationStart => {
                self.iteration_start = now;
                self.compute_done = 0;
                let model = &self.scenario.model;
                let per_worker = self.scenario.total_batch / self.n() as u64;
                for worker in 0..self.n() {
                    let mut secs = self.scenario.cluster.chunked_compute_secs(
                        model,
                        0,
                        model.len(),
                        per_worker,
                        worker,
                    );
                    secs += self
                        .scenario
                        .straggler_delay(self.iteration, worker)
                        .as_secs_f64();
                    // No token recovery: a fault stalls the victim (and so the
                    // whole BSP iteration) until it is back.
                    secs += self
                        .scenario
                        .fault_stall(self.iteration, worker)
                        .as_secs_f64();
                    self.busy[worker].begin(now);
                    sched.schedule_in(SimDuration::from_secs_f64(secs), Ev::ComputeDone { worker });
                }
            }
            Ev::ComputeDone { worker } => {
                self.busy[worker].end(now);
                self.compute_done += 1;
                if self.compute_done == self.n() {
                    match self.sync_mode {
                        DpSync::Ring => {
                            // All gradients ready: all-reduce every parameter.
                            let participants = (0..self.n()).map(NodeId).collect();
                            let ar = RingAllReduce::start(
                                &mut self.net,
                                now,
                                participants,
                                self.scenario.model.param_bytes(),
                                0,
                            );
                            if ar.is_done() {
                                // Single-node cluster: no sync needed.
                                self.finish_iteration(sched);
                            } else {
                                self.sync = SyncPhase::Ring(ar);
                                self.reschedule_net(sched);
                            }
                        }
                        DpSync::ParameterServer { servers } => {
                            let flows = self.start_ps_push(now, servers);
                            self.sync = SyncPhase::PsPush(flows);
                            self.reschedule_net(sched);
                        }
                    }
                }
            }
            Ev::NetWake => {
                self.net_ev = None;
                let completions = self.net.take_completions(now);
                for (id, _spec) in completions {
                    match &mut self.sync {
                        SyncPhase::Ring(ar) => {
                            if ar.on_flow_complete(&mut self.net, now, id)
                                == fela_net::CollectiveProgress::Done
                            {
                                self.sync = SyncPhase::Idle;
                                self.finish_iteration(sched);
                                break;
                            }
                        }
                        SyncPhase::PsPush(remaining) => {
                            *remaining -= 1;
                            if *remaining == 0 {
                                let servers = match self.sync_mode {
                                    DpSync::ParameterServer { servers } => servers,
                                    DpSync::Ring => unreachable!("push implies PS"),
                                };
                                let flows = self.start_ps_pull(now, servers);
                                self.sync = SyncPhase::PsPull(flows);
                            }
                        }
                        SyncPhase::PsPull(remaining) => {
                            *remaining -= 1;
                            if *remaining == 0 {
                                self.sync = SyncPhase::Idle;
                                self.finish_iteration(sched);
                                break;
                            }
                        }
                        SyncPhase::Idle => unreachable!("flow completed with no sync"),
                    }
                }
                self.reschedule_net(sched);
            }
        }
    }
}

/// The DP baseline runtime.
#[derive(Clone, Copy, Debug)]
pub struct DpRuntime {
    /// Gradient synchronisation algorithm.
    pub sync: DpSync,
}

impl Default for DpRuntime {
    fn default() -> Self {
        DpRuntime { sync: DpSync::Ring }
    }
}

#[allow(non_upper_case_globals)]
impl DpRuntime {
    /// A PS-based DP runtime with `servers` shards.
    pub fn parameter_server(servers: usize) -> Self {
        DpRuntime {
            sync: DpSync::ParameterServer { servers },
        }
    }
}

impl TrainingRuntime for DpRuntime {
    fn name(&self) -> &'static str {
        "dp"
    }

    fn run(&self, scenario: &Scenario) -> RunReport {
        scenario.cluster.validate();
        assert!(
            scenario.total_batch % scenario.cluster.nodes as u64 == 0,
            "DP requires the batch to divide evenly across workers"
        );
        if let DpSync::ParameterServer { servers } = self.sync {
            assert!(
                servers >= 1 && servers <= scenario.cluster.nodes,
                "PS shard count must be in 1..=nodes"
            );
        }
        let n = scenario.cluster.nodes;
        let world = DpWorld {
            scenario: scenario.clone(),
            sync_mode: self.sync,
            net: Network::new(scenario.cluster.network),
            net_ev: None,
            busy: vec![BusyTracker::new(); n],
            compute_done: 0,
            sync: SyncPhase::Idle,
            iteration: 0,
            iteration_start: SimTime::ZERO,
            per_iteration_secs: Vec::new(),
            finished_at: None,
        };
        let mut engine = Engine::new(world);
        engine.prime(Ev::IterationStart);
        assert_eq!(engine.run(1 << 32), RunOutcome::Drained);
        let (world, _) = engine.into_world();
        let end = world.finished_at.expect("all iterations completed");

        let mut report = RunReport::new("dp", &scenario.model.name, scenario.total_batch);
        report.iterations = world.iteration;
        report.total_time_secs = end.as_secs_f64();
        report.per_iteration_secs = world.per_iteration_secs;
        report.network_bytes = world.net.bytes_delivered();
        report.worker_busy_secs = world
            .busy
            .iter()
            .map(|b| b.busy_time().as_secs_f64())
            .collect();
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fela_cluster::StragglerModel;
    use fela_model::zoo;

    fn scenario(batch: u64, iters: u64) -> Scenario {
        Scenario::paper(zoo::vgg19(), batch).with_iterations(iters)
    }

    #[test]
    fn completes_and_reports() {
        let r = DpRuntime::default().run(&scenario(128, 3));
        assert_eq!(r.iterations, 3);
        assert_eq!(r.per_iteration_secs.len(), 3);
        assert!(r.average_throughput() > 0.0);
        // Full-model ring all-reduce per iteration: 2·(N−1) rounds of N flows of
        // params/N bytes = 2·(N−1)·params of total wire traffic.
        let expected_sync = 2.0 * 7.0 * zoo::vgg19().param_bytes() as f64 * 3.0;
        let actual = r.network_bytes as f64;
        assert!(
            (actual / expected_sync - 1.0).abs() < 0.01,
            "sync bytes {actual} vs expected {expected_sync}"
        );
    }

    #[test]
    fn straggler_costs_full_delay() {
        // DP has no way to absorb a straggler: PID ≈ d.
        let base = DpRuntime::default().run(&scenario(128, 4));
        let slow = DpRuntime::default().run(&scenario(128, 4).with_straggler(
            StragglerModel::RoundRobin {
                delay: SimDuration::from_secs(4),
            },
        ));
        let pid = (slow.total_time_secs - base.total_time_secs) / 4.0;
        assert!((pid - 4.0).abs() < 0.1, "DP PID {pid} should be ≈ d");
    }

    #[test]
    fn deterministic() {
        let a = DpRuntime::default().run(&scenario(256, 2));
        let b = DpRuntime::default().run(&scenario(256, 2));
        assert_eq!(a.total_time_secs, b.total_time_secs);
    }

    #[test]
    fn crash_restart_stalls_the_whole_iteration() {
        use fela_cluster::{FaultKind, FaultModel};
        // No token recovery: the BSP barrier waits the full downtime out.
        let base = DpRuntime::default().run(&scenario(128, 4));
        let faulted =
            DpRuntime::default().run(&scenario(128, 4).with_fault(FaultModel::Scripted {
                worker: 1,
                iteration: 2,
                kind: FaultKind::CrashRestart {
                    down: SimDuration::from_secs(30),
                },
            }));
        let stall = faulted.total_time_secs - base.total_time_secs;
        assert!(
            (stall - 30.0).abs() < 0.1,
            "DP stall {stall} should be ≈ 30"
        );
    }

    #[test]
    fn network_bytes_flat_in_batch() {
        // DP's defining property (§V-C1): sync volume does not grow with batch.
        let small = DpRuntime::default().run(&scenario(64, 2));
        let large = DpRuntime::default().run(&scenario(1024, 2));
        assert!((small.network_bytes as f64 / large.network_bytes as f64 - 1.0).abs() < 0.01);
        // But compute time does grow.
        assert!(large.total_time_secs > small.total_time_secs);
    }

    #[test]
    #[should_panic(expected = "divide evenly")]
    fn rejects_indivisible_batch() {
        DpRuntime::default().run(&Scenario::paper(zoo::vgg19(), 100).with_iterations(1));
    }

    #[test]
    fn single_parameter_server_is_the_bottleneck() {
        // One PS shard funnels 8 full gradients through one NIC, then fans the
        // parameters back out — far slower than the ring (§II-D's "centralized
        // network bottleneck").
        let sc = scenario(128, 2);
        let ring = DpRuntime::default().run(&sc);
        let ps1 = DpRuntime::parameter_server(1).run(&sc);
        assert!(
            ps1.total_time_secs > 1.5 * ring.total_time_secs,
            "PS(1) {} vs ring {}",
            ps1.total_time_secs,
            ring.total_time_secs
        );
    }

    #[test]
    fn sharding_the_ps_closes_the_gap() {
        let sc = scenario(128, 2);
        let mut last = f64::INFINITY;
        for servers in [1usize, 2, 4, 8] {
            let t = DpRuntime::parameter_server(servers)
                .run(&sc)
                .total_time_secs;
            assert!(
                t <= last * 1.0001,
                "PS({servers}) slower than fewer shards: {t} vs {last}"
            );
            last = t;
        }
    }

    #[test]
    #[should_panic(expected = "PS shard count")]
    fn rejects_zero_servers() {
        DpRuntime::parameter_server(0).run(&scenario(64, 1));
    }
}
