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
use fela_net::{CollectiveProgress, FlowSpec, NodeId, RingAllReduce};
use fela_sim::{SimDuration, SimTime};

use crate::frame::{self, Done, Ev::Local, Frame, Protocol, Sched};

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
    ComputeDone { worker: usize },
}

enum SyncPhase {
    Idle,
    Ring(RingAllReduce),
    /// PS push in flight to `servers` shards: remaining push flows.
    PsPush {
        remaining: usize,
        servers: usize,
    },
    /// PS pull in flight: remaining pull flows.
    PsPull(usize),
}

struct DpWorld {
    sync_mode: DpSync,
    compute_done: usize,
    sync: SyncPhase,
}

/// Starts one PS shard flow per (worker, server) pair with one batched
/// start: the push ships each worker's `params/servers` bytes to every
/// shard, the pull (its mirror image) ships them back. Returns the number
/// of flows started.
fn start_ps_phase(f: &mut Frame, now: SimTime, servers: usize, push: bool) -> usize {
    let shard = f.scenario.model.param_bytes() / servers as u64;
    let specs: Vec<FlowSpec> = (0..f.nodes())
        .flat_map(|w| (0..servers).map(move |srv| (w, srv)))
        .map(|(w, srv)| {
            let (src, dst) = if push { (w, srv) } else { (srv, w) };
            FlowSpec {
                src: NodeId(src),
                dst: NodeId(dst),
                bytes: shard,
                tag: 0,
            }
        })
        .collect();
    f.net.start_flows(now, &specs).len()
}

impl Protocol for DpWorld {
    type Event = Ev;

    fn start_iteration(&mut self, f: &mut Frame, sched: &mut Sched<'_, Self>) {
        let now = sched.now();
        self.compute_done = 0;
        let (sc, iteration) = (&f.scenario, f.iteration);
        let per_worker = sc.total_batch / f.nodes() as u64;
        for worker in 0..f.nodes() {
            let mut secs =
                sc.cluster
                    .chunked_compute_secs(&sc.model, 0, sc.model.len(), per_worker, worker);
            secs += sc.straggler_delay(iteration, worker).as_secs_f64();
            // No token recovery: a fault stalls the victim (and so the whole
            // BSP iteration) until it is back. DP folds both delays into its
            // compute seconds rather than using the frame's compute floor.
            secs += sc.fault_stall(iteration, worker).as_secs_f64();
            f.busy[worker].begin(now);
            sched.schedule_in(
                SimDuration::from_secs_f64(secs),
                Local(Ev::ComputeDone { worker }),
            );
        }
    }

    fn on_event(&mut self, f: &mut Frame, now: SimTime, event: Ev, sched: &mut Sched<'_, Self>) {
        let Ev::ComputeDone { worker } = event;
        f.busy[worker].end(now);
        self.compute_done += 1;
        if self.compute_done < f.nodes() {
            return;
        }
        match self.sync_mode {
            DpSync::Ring => {
                // All gradients ready: all-reduce every parameter.
                let participants = (0..f.nodes()).map(NodeId).collect();
                let bytes = f.scenario.model.param_bytes();
                let ar = RingAllReduce::start(&mut f.net, now, participants, bytes, 0);
                if ar.is_done() {
                    // Single-node cluster: no sync needed.
                    f.finish_iteration(sched);
                } else {
                    self.sync = SyncPhase::Ring(ar);
                    f.rearm_net(sched);
                }
            }
            DpSync::ParameterServer { servers } => {
                let remaining = start_ps_phase(f, now, servers, true);
                self.sync = SyncPhase::PsPush { remaining, servers };
                f.rearm_net(sched);
            }
        }
    }

    fn on_flows(&mut self, f: &mut Frame, now: SimTime, done: Done, sched: &mut Sched<'_, Self>) {
        for (id, _spec) in done {
            match &mut self.sync {
                SyncPhase::Ring(ar) => {
                    if ar.on_flow_complete(&mut f.net, now, id) == CollectiveProgress::Done {
                        self.sync = SyncPhase::Idle;
                        f.finish_iteration(sched);
                        break;
                    }
                }
                SyncPhase::PsPush { remaining, servers } => {
                    *remaining -= 1;
                    if *remaining == 0 {
                        let flows = start_ps_phase(f, now, *servers, false);
                        self.sync = SyncPhase::PsPull(flows);
                    }
                }
                SyncPhase::PsPull(remaining) => {
                    *remaining -= 1;
                    if *remaining == 0 {
                        self.sync = SyncPhase::Idle;
                        f.finish_iteration(sched);
                        break;
                    }
                }
                SyncPhase::Idle => unreachable!("flow completed with no sync"),
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

impl DpRuntime {
    /// A PS-based DP runtime with `servers` shards.
    pub fn parameter_server(servers: usize) -> Self {
        DpRuntime {
            sync: DpSync::ParameterServer { servers },
        }
    }

    /// DP's protocol state for `scenario`, or why DP cannot run it.
    fn world(&self, scenario: &Scenario) -> Result<DpWorld, String> {
        let (batch, nodes) = (scenario.total_batch, scenario.cluster.nodes);
        if batch.checked_rem(nodes as u64) != Some(0) {
            return Err(format!("batch {batch} must divide evenly by {nodes} nodes"));
        }
        if let DpSync::ParameterServer { servers } = self.sync {
            if !(1..=nodes).contains(&servers) {
                return Err(format!("PS shard count {servers} outside 1..={nodes}"));
            }
        }
        Ok(DpWorld {
            sync_mode: self.sync,
            compute_done: 0,
            sync: SyncPhase::Idle,
        })
    }
}

impl TrainingRuntime for DpRuntime {
    fn name(&self) -> &'static str {
        "dp"
    }

    fn check(&self, scenario: &Scenario) -> Result<(), String> {
        self.world(scenario).map(drop)
    }

    fn run(&self, scenario: &Scenario) -> RunReport {
        frame::run(self.name(), scenario, self.world(scenario))
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
