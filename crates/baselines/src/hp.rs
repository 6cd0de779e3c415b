//! The hybrid-parallel (HP) baseline — Stanza-style layer separation.
//!
//! Following the configuration the paper inherits from Stanza: `N−1` CONV workers
//! and one FC worker. Each iteration:
//!
//! 1. CONV workers forward their sample shards and ship the boundary activations
//!    to the FC worker;
//! 2. the FC worker, having received all shards, runs FC forward+backward on the
//!    *full* batch (saturating the GPU on FC — HP's advantage) and ships the
//!    boundary gradients back;
//! 3. CONV workers run backward, then ring-all-reduce the CONV parameters among
//!    themselves. FC parameters live only on the FC worker — no FC sync (HP's
//!    other advantage over DP).
//!
//! The cost: the FC worker idles while CONV workers compute (bad work
//! conservation), and the activation funnel into its single NIC grows linearly
//! with the batch — the incast that makes HP fall behind DP at large batch sizes
//! in Figure 8.

use fela_cluster::{Scenario, TrainingRuntime};
use fela_metrics::RunReport;
use fela_net::{FlowSpec, Network, NodeId, RingAllReduce};
use fela_sim::{BusyTracker, Engine, EventId, RunOutcome, Scheduler, SimDuration, SimTime, World};

enum Ev {
    IterationStart,
    ConvFwdDone { worker: usize },
    FcDone,
    ConvBwdDone { worker: usize },
    NetWake,
}

const TAG_ACT: u64 = 1;
const TAG_GRAD: u64 = 2;
const TAG_SYNC: u64 = 3;

fn tag(kind: u64, worker: usize) -> u64 {
    (kind << 48) | worker as u64
}

struct HpWorld {
    scenario: Scenario,
    /// Units `[0, fc_start)` are the CONV part; `[fc_start, len)` the FC part.
    fc_start: usize,
    net: Network,
    net_ev: Option<EventId>,
    busy: Vec<BusyTracker>,
    acts_arrived: usize,
    grads_back: usize,
    bwd_done: usize,
    sync: Option<RingAllReduce>,
    iteration: u64,
    iteration_start: SimTime,
    per_iteration_secs: Vec<f64>,
    finished_at: Option<SimTime>,
}

impl HpWorld {
    fn n(&self) -> usize {
        self.scenario.cluster.nodes
    }

    fn conv_workers(&self) -> usize {
        self.n() - 1
    }

    fn fc_worker(&self) -> usize {
        self.n() - 1
    }

    /// Samples assigned to CONV worker `w` (remainder spread over the first
    /// workers, since the batch rarely divides by N−1).
    fn shard(&self, w: usize) -> u64 {
        let k = self.conv_workers() as u64;
        let base = self.scenario.total_batch / k;
        let extra = self.scenario.total_batch % k;
        base + u64::from((w as u64) < extra)
    }

    fn boundary_bytes_per_sample(&self) -> u64 {
        self.scenario.model.boundary_bytes(self.fc_start - 1)
    }

    fn reschedule_net(&mut self, sched: &mut Scheduler<'_, Ev>) {
        if let Some(ev) = self.net_ev.take() {
            sched.cancel(ev);
        }
        if let Some(t) = self.net.next_completion() {
            self.net_ev = Some(sched.schedule_at(t.max(sched.now()), Ev::NetWake));
        }
    }

    /// A straggler cannot start computing before `iteration_start + d` (§V-C2:
    /// the sleep delays the worker's computation start, so it overlaps with any
    /// idle time the worker had anyway). Faults stall the victim the same way —
    /// HP has no token recovery, so the iteration waits the downtime out.
    fn compute_floor(&self, worker: usize) -> SimTime {
        self.iteration_start
            + self.scenario.straggler_delay(self.iteration, worker)
            + self.scenario.fault_stall(self.iteration, worker)
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

impl World for HpWorld {
    type Event = Ev;

    fn handle(&mut self, now: SimTime, event: Ev, sched: &mut Scheduler<'_, Ev>) {
        match event {
            Ev::IterationStart => {
                self.iteration_start = now;
                self.acts_arrived = 0;
                self.grads_back = 0;
                self.bwd_done = 0;
                for w in 0..self.conv_workers() {
                    let secs = self.scenario.cluster.chunked_compute_secs(
                        &self.scenario.model,
                        0,
                        self.fc_start,
                        self.shard(w),
                        w,
                    ) / 3.0; // forward only
                    let start = now.max(self.compute_floor(w));
                    self.busy[w].begin(start);
                    sched.schedule_at(
                        start + SimDuration::from_secs_f64(secs),
                        Ev::ConvFwdDone { worker: w },
                    );
                }
            }
            Ev::ConvFwdDone { worker } => {
                self.busy[worker].end(now);
                let bytes = self.shard(worker) * self.boundary_bytes_per_sample();
                self.net.start_flow(
                    now,
                    FlowSpec {
                        src: NodeId(worker),
                        dst: NodeId(self.fc_worker()),
                        bytes,
                        tag: tag(TAG_ACT, worker),
                    },
                );
                self.reschedule_net(sched);
            }
            Ev::FcDone => {
                let fc = self.fc_worker();
                self.busy[fc].end(now);
                // Boundary gradients fan back out to every CONV worker.
                let specs: Vec<FlowSpec> = (0..self.conv_workers())
                    .map(|w| FlowSpec {
                        src: NodeId(fc),
                        dst: NodeId(w),
                        bytes: self.shard(w) * self.boundary_bytes_per_sample(),
                        tag: tag(TAG_GRAD, w),
                    })
                    .collect();
                self.net.start_flows(now, &specs);
                self.reschedule_net(sched);
            }
            Ev::ConvBwdDone { worker } => {
                self.busy[worker].end(now);
                self.bwd_done += 1;
                if self.bwd_done == self.conv_workers() {
                    let participants = (0..self.conv_workers()).map(NodeId).collect();
                    let conv_params = self.scenario.model.param_bytes_in(0..self.fc_start);
                    let ar = RingAllReduce::start(
                        &mut self.net,
                        now,
                        participants,
                        conv_params,
                        tag(TAG_SYNC, 0),
                    );
                    if ar.is_done() {
                        self.finish_iteration(sched);
                    } else {
                        self.sync = Some(ar);
                        self.reschedule_net(sched);
                    }
                }
            }
            Ev::NetWake => {
                self.net_ev = None;
                let completions = self.net.take_completions(now);
                for (id, spec) in completions {
                    let kind = spec.tag >> 48;
                    if kind == TAG_SYNC {
                        let sync = self.sync.as_mut().expect("sync in progress");
                        if sync.on_flow_complete(&mut self.net, now, id)
                            == fela_net::CollectiveProgress::Done
                        {
                            self.sync = None;
                            self.finish_iteration(sched);
                        }
                    } else if kind == TAG_ACT {
                        self.acts_arrived += 1;
                        if self.acts_arrived == self.conv_workers() {
                            // Full batch assembled: FC fwd+bwd in one go.
                            let fc = self.fc_worker();
                            let model = &self.scenario.model;
                            let secs = self.scenario.cluster.chunked_compute_secs(
                                model,
                                self.fc_start,
                                model.len(),
                                self.scenario.total_batch,
                                fc,
                            );
                            let start = now.max(self.compute_floor(fc));
                            self.busy[fc].begin(start);
                            sched.schedule_at(start + SimDuration::from_secs_f64(secs), Ev::FcDone);
                        }
                    } else {
                        debug_assert_eq!(kind, TAG_GRAD);
                        self.grads_back += 1;
                        let w = spec.dst.0;
                        let secs = self.scenario.cluster.chunked_compute_secs(
                            &self.scenario.model,
                            0,
                            self.fc_start,
                            self.shard(w),
                            w,
                        ) * 2.0
                            / 3.0; // backward only
                        let start = now.max(self.compute_floor(w));
                        self.busy[w].begin(start);
                        sched.schedule_at(
                            start + SimDuration::from_secs_f64(secs),
                            Ev::ConvBwdDone { worker: w },
                        );
                    }
                }
                self.reschedule_net(sched);
            }
        }
    }
}

/// The HP (Stanza) baseline runtime.
#[derive(Clone, Copy, Debug, Default)]
pub struct HpRuntime;

impl TrainingRuntime for HpRuntime {
    fn name(&self) -> &'static str {
        "hp"
    }

    fn run(&self, scenario: &Scenario) -> RunReport {
        scenario.cluster.validate();
        assert!(scenario.cluster.nodes >= 2, "HP needs ≥ 2 workers");
        let fc_start = scenario
            .model
            .first_fc_index()
            .expect("HP requires a model with FC layers");
        let n = scenario.cluster.nodes;
        let world = HpWorld {
            scenario: scenario.clone(),
            fc_start,
            net: Network::new(scenario.cluster.network),
            net_ev: None,
            busy: vec![BusyTracker::new(); n],
            acts_arrived: 0,
            grads_back: 0,
            bwd_done: 0,
            sync: None,
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

        let mut report = RunReport::new("hp", &scenario.model.name, scenario.total_batch);
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
        let r = HpRuntime.run(&scenario(128, 2));
        assert_eq!(r.iterations, 2);
        assert!(r.average_throughput() > 0.0);
    }

    #[test]
    fn shards_cover_batch() {
        // 128 over 7 workers: 128 = 7·18 + 2 → shards 19,19,18,…
        let world_shards: Vec<u64> = {
            let _ = scenario(128, 1);
            let k = 7u64;
            (0..7)
                .map(|w| 128 / k + u64::from((w as u64) < 128 % k))
                .collect()
        };
        assert_eq!(world_shards.iter().sum::<u64>(), 128);
        assert!(world_shards.iter().all(|&s| s == 18 || s == 19));
    }

    #[test]
    fn network_bytes_grow_with_batch() {
        // HP's activation funnel is linear in batch — the opposite of DP. The
        // conv all-reduce term is batch-independent, so compare the *difference*:
        // ΔB samples cost 2·ΔB·boundary bytes per iteration (acts + grads).
        let small = HpRuntime.run(&scenario(64, 2));
        let large = HpRuntime.run(&scenario(1024, 2));
        let boundary = zoo::vgg19().boundary_bytes(zoo::vgg19().first_fc_index().unwrap() - 1);
        let expected_delta = 2 * 2 * (1024 - 64) * boundary; // iters × 2·ΔB·boundary
        let delta = large.network_bytes - small.network_bytes;
        let ratio = delta as f64 / expected_delta as f64;
        assert!(
            (0.95..1.05).contains(&ratio),
            "delta {delta} vs {expected_delta}"
        );
    }

    #[test]
    fn no_fc_sync_traffic() {
        // Total traffic = activations + gradients + conv all-reduce only.
        let r = HpRuntime.run(&scenario(128, 1));
        let m = zoo::vgg19();
        let fc_start = m.first_fc_index().unwrap();
        let boundary = m.boundary_bytes(fc_start - 1);
        let conv_params = m.param_bytes_in(0..fc_start);
        // Ring all-reduce among 7 workers: 2·(K−1) rounds × K flows × bytes/K
        // = 2·(K−1)·bytes of total wire traffic.
        let expected = 2 * 128 * boundary + 2 * 6 * conv_params;
        // Allow 5% slack for integer chunking of the ring.
        let ratio = r.network_bytes as f64 / expected as f64;
        assert!(
            (0.9..1.1).contains(&ratio),
            "traffic {} vs expected {expected}",
            r.network_bytes
        );
    }

    #[test]
    fn fc_worker_straggler_not_absorbed() {
        // A sleep on the FC worker extends the critical path 1:1.
        let base = HpRuntime.run(&scenario(128, 4));
        let slow = HpRuntime.run(
            &scenario(128, 4).with_straggler(StragglerModel::RoundRobin {
                delay: SimDuration::from_secs(4),
            }),
        );
        let pid = (slow.total_time_secs - base.total_time_secs) / 4.0;
        assert!(pid > 2.0, "HP PID {pid} should be near d");
    }

    #[test]
    fn deterministic() {
        let a = HpRuntime.run(&scenario(256, 2));
        let b = HpRuntime.run(&scenario(256, 2));
        assert_eq!(a.total_time_secs, b.total_time_secs);
    }

    #[test]
    #[should_panic(expected = "FC layers")]
    fn rejects_fc_free_models() {
        // A conv-only model cannot be layer-separated.
        use fela_model::{Layer, LayerKind, Model, SpatialShape};
        let m = Model::new(
            "convnet",
            SpatialShape::new(3, 8, 8),
            vec![Layer::new(
                "conv",
                LayerKind::Conv2d {
                    input: SpatialShape::new(3, 8, 8),
                    out_channels: 4,
                    kernel: 3,
                    stride: 1,
                    padding: 1,
                },
            )],
        );
        HpRuntime.run(&Scenario::paper(m, 64).with_iterations(1));
    }
}
