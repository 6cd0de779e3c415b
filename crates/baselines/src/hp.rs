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
use fela_net::{CollectiveProgress, FlowSpec, NodeId, RingAllReduce};
use fela_sim::{SimDuration, SimTime};

use crate::frame::{self, Done, Ev::Local, Frame, Protocol, Sched};

/// A compute pass finished.
enum Ev {
    ConvFwd { worker: usize },
    Fc,
    ConvBwd { worker: usize },
}

const TAG_ACT: u64 = 1;
const TAG_GRAD: u64 = 2;
const TAG_SYNC: u64 = 3;

fn tag(kind: u64, worker: usize) -> u64 {
    (kind << 48) | worker as u64
}

struct HpWorld {
    /// Units `[0, fc_start)` are the CONV part; `[fc_start, len)` the FC part.
    fc_start: usize,
    /// Samples per CONV worker; the FC worker is the last, `shards.len()`.
    shards: Vec<u64>,
    /// Boundary activation bytes per sample between the two parts.
    boundary: u64,
    acts_arrived: usize,
    bwd_done: usize,
    sync: Option<RingAllReduce>,
}

impl HpWorld {
    fn fc_worker(&self) -> usize {
        self.shards.len()
    }

    /// Schedules CONV worker `w`'s forward (a third of its train time) or
    /// backward (the other two thirds) pass.
    fn start_conv(&self, f: &mut Frame, w: usize, backward: bool, sched: &mut Sched<'_, Self>) {
        let (model, cluster) = (&f.scenario.model, &f.scenario.cluster);
        let secs = cluster.chunked_compute_secs(model, 0, self.fc_start, self.shards[w], w);
        let (secs, done) = if backward {
            (secs * 2.0 / 3.0, Ev::ConvBwd { worker: w })
        } else {
            (secs / 3.0, Ev::ConvFwd { worker: w })
        };
        let start = sched.now().max(f.compute_floor(w));
        f.busy[w].begin(start);
        sched.schedule_at(start + SimDuration::from_secs_f64(secs), Local(done));
    }
}

impl Protocol for HpWorld {
    type Event = Ev;

    fn start_iteration(&mut self, f: &mut Frame, sched: &mut Sched<'_, Self>) {
        self.acts_arrived = 0;
        self.bwd_done = 0;
        for w in 0..self.shards.len() {
            self.start_conv(f, w, false, sched);
        }
    }

    fn on_event(&mut self, f: &mut Frame, now: SimTime, event: Ev, sched: &mut Sched<'_, Self>) {
        match event {
            Ev::ConvFwd { worker } => {
                f.busy[worker].end(now);
                f.net.start_flow(
                    now,
                    FlowSpec {
                        src: NodeId(worker),
                        dst: NodeId(self.fc_worker()),
                        bytes: self.shards[worker] * self.boundary,
                        tag: tag(TAG_ACT, worker),
                    },
                );
                f.rearm_net(sched);
            }
            Ev::Fc => {
                let fc = self.fc_worker();
                f.busy[fc].end(now);
                // Boundary gradients fan back out to every CONV worker.
                let specs: Vec<FlowSpec> = (0..self.shards.len())
                    .map(|w| FlowSpec {
                        src: NodeId(fc),
                        dst: NodeId(w),
                        bytes: self.shards[w] * self.boundary,
                        tag: tag(TAG_GRAD, w),
                    })
                    .collect();
                f.net.start_flows(now, &specs);
                f.rearm_net(sched);
            }
            Ev::ConvBwd { worker } => {
                f.busy[worker].end(now);
                self.bwd_done += 1;
                if self.bwd_done == self.shards.len() {
                    let participants = (0..self.shards.len()).map(NodeId).collect();
                    let conv_params = f.scenario.model.param_bytes_in(0..self.fc_start);
                    let ar = RingAllReduce::start(
                        &mut f.net,
                        now,
                        participants,
                        conv_params,
                        tag(TAG_SYNC, 0),
                    );
                    if ar.is_done() {
                        f.finish_iteration(sched);
                    } else {
                        self.sync = Some(ar);
                        f.rearm_net(sched);
                    }
                }
            }
        }
    }

    fn on_flows(&mut self, f: &mut Frame, now: SimTime, done: Done, sched: &mut Sched<'_, Self>) {
        for (id, spec) in done {
            let kind = spec.tag >> 48;
            if kind == TAG_SYNC {
                let sync = self.sync.as_mut().expect("sync in progress");
                if sync.on_flow_complete(&mut f.net, now, id) == CollectiveProgress::Done {
                    self.sync = None;
                    f.finish_iteration(sched);
                }
            } else if kind == TAG_ACT {
                self.acts_arrived += 1;
                if self.acts_arrived == self.shards.len() {
                    // Full batch assembled: FC fwd+bwd in one go.
                    let fc = self.fc_worker();
                    let model = &f.scenario.model;
                    let secs = f.scenario.cluster.chunked_compute_secs(
                        model,
                        self.fc_start,
                        model.len(),
                        f.scenario.total_batch,
                        fc,
                    );
                    let start = now.max(f.compute_floor(fc));
                    f.busy[fc].begin(start);
                    sched.schedule_at(start + SimDuration::from_secs_f64(secs), Local(Ev::Fc));
                }
            } else {
                debug_assert_eq!(kind, TAG_GRAD);
                self.start_conv(f, spec.dst.0, true, sched);
            }
        }
    }
}

/// The HP (Stanza) baseline runtime.
#[derive(Clone, Copy, Debug, Default)]
pub struct HpRuntime;

impl HpRuntime {
    /// HP's protocol state for `scenario`, or why HP cannot run it.
    fn world(scenario: &Scenario) -> Result<HpWorld, String> {
        let nodes = scenario.cluster.nodes;
        if nodes < 2 {
            return Err(format!("needs ≥ 2 workers, got {nodes}"));
        }
        let fc_start = scenario
            .model
            .first_fc_index()
            .ok_or("requires a model with FC layers")?;
        // The batch rarely divides by N−1: the remainder goes one sample
        // each to the first CONV workers.
        let k = nodes as u64 - 1;
        let (base, extra) = (scenario.total_batch / k, scenario.total_batch % k);
        Ok(HpWorld {
            fc_start,
            shards: (0..k).map(|w| base + u64::from(w < extra)).collect(),
            boundary: scenario.model.boundary_bytes(fc_start - 1),
            acts_arrived: 0,
            bwd_done: 0,
            sync: None,
        })
    }
}

impl TrainingRuntime for HpRuntime {
    fn name(&self) -> &'static str {
        "hp"
    }

    fn check(&self, scenario: &Scenario) -> Result<(), String> {
        Self::world(scenario).map(drop)
    }

    fn run(&self, scenario: &Scenario) -> RunReport {
        frame::run(self.name(), scenario, Self::world(scenario))
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
