//! The model-parallel (MP) pipeline baseline (PipeDream/GPipe-style under BSP).
//!
//! The model is cut into `N` contiguous stages balanced by forward FLOPs, one per
//! worker. Each iteration pushes `total_batch / micro_batch` micro-batches through
//! the pipeline: stage `s` forwards micro-batch `j` once stage `s−1`'s activations
//! arrive, the last stage turns straight around into backward, and gradients ripple
//! back. Parameters live on exactly one stage, so there is no parameter
//! synchronisation — MP's communication advantage — but under BSP the pipeline
//! flushes every iteration, so stages idle during ramp-up/ramp-down (the *bubble*),
//! and the small fixed micro-batch under-saturates the GPU (§V-C1's two reasons MP
//! finishes last).

use std::collections::VecDeque;

use fela_cluster::{Scenario, TrainingRuntime};
use fela_metrics::RunReport;
use fela_model::Model;
use fela_net::{FlowSpec, NodeId};
use fela_sim::{SimDuration, SimTime};

use crate::frame::{self, Done, Ev::Local, Frame, Protocol, Sched};

/// One pipeline stage: a contiguous unit range on one worker.
#[derive(Clone, Copy, Debug)]
pub struct Stage {
    /// First unit index.
    pub start: usize,
    /// One past the last unit index.
    pub end: usize,
    /// Output boundary bytes per sample (activation volume to the next stage).
    pub out_bytes_per_sample: u64,
}

/// Balances the model into at most `n` contiguous stages by forward FLOPs.
/// Returns fewer stages than `n` only if the model has fewer units.
pub fn balance_stages(model: &Model, n: usize) -> Vec<Stage> {
    let units = model.len();
    let n = n.min(units).max(1);
    let flops: Vec<u64> = model
        .layers()
        .iter()
        .map(|l| l.kind.forward_flops())
        .collect();
    let total: u64 = flops.iter().sum();
    let mut stages = Vec::with_capacity(n);
    let mut start = 0usize;
    let mut acc = 0u64;
    let mut consumed = 0u64;
    for s in 0..n {
        let remaining_stages = n - s;
        let target = (total - consumed) / remaining_stages as u64;
        let mut end = start;
        // Take units until we reach the per-stage target, but always leave enough
        // units for the remaining stages.
        while end < units - (remaining_stages - 1) {
            let next = flops[end];
            // Stop if adding the unit overshoots and we already have something.
            if acc > 0 && acc + next > target && end > start {
                break;
            }
            acc += next;
            end += 1;
        }
        if end == start {
            end = start + 1; // every stage gets at least one unit
        }
        consumed += model.layers()[start..end]
            .iter()
            .map(|l| l.kind.forward_flops())
            .sum::<u64>();
        stages.push(Stage {
            start,
            end,
            out_bytes_per_sample: model.boundary_bytes(end - 1),
        });
        start = end;
        acc = 0;
    }
    stages.last_mut().expect("n ≥ 1").end = units;
    stages.last_mut().expect("n ≥ 1").out_bytes_per_sample = model.boundary_bytes(units - 1);
    stages
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Task {
    Fwd(u64),
    Bwd(u64),
}

enum Ev {
    ComputeDone { stage: usize, task: Task },
}

const KIND_FWD: u64 = 1 << 48;
const KIND_BWD: u64 = 2 << 48;

fn tag(kind: u64, stage: usize, micro: u64) -> u64 {
    kind | ((stage as u64) << 24) | micro
}

/// The fixed micro-batch size (the paper notes MP keeps this "small and
/// fixed" to amortise the bubble; 16 matches its Figure 3 granularity).
const MICRO_BATCH: u64 = 16;

struct MpWorld {
    stages: Vec<Stage>,
    micro_batch: u64,
    n_micro: u64,
    elastic_period: Option<u64>,
    /// Busy seconds per stage within the current profiling period.
    period_busy: Vec<f64>,
    repartitions: u64,
    ready: Vec<VecDeque<Task>>,
    stage_busy: Vec<bool>,
    bwd_done_at_stage0: u64,
}

impl MpWorld {
    /// Forward time of a stage on one micro-batch (fwd ≈ ⅓ of train time).
    fn fwd_secs(&self, f: &Frame, stage: usize, worker: usize) -> f64 {
        let st = self.stages[stage];
        f.scenario.cluster.compute_secs(
            &f.scenario.model,
            st.start,
            st.end,
            self.micro_batch,
            worker,
        ) / 3.0
    }

    fn try_start(&mut self, f: &mut Frame, stage: usize, sched: &mut Sched<'_, Self>) {
        if self.stage_busy[stage] {
            return;
        }
        let Some(task) = self.ready[stage].pop_front() else {
            return;
        };
        self.stage_busy[stage] = true;
        let worker = stage; // stage s runs on worker s
        let secs = match task {
            Task::Fwd(_) => self.fwd_secs(f, stage, worker),
            // Backward ≈ ⅔ of train time.
            Task::Bwd(_) => 2.0 * self.fwd_secs(f, stage, worker),
        };
        // The sleep of a straggler overlaps with the stage's ramp-up bubble
        // (§V-C2's explanation of MP's small per-iteration delay).
        let start = sched.now().max(f.compute_floor(worker));
        self.period_busy[stage] += secs + start.since(sched.now()).as_secs_f64();
        f.busy[worker].begin(start);
        sched.schedule_at(
            start + SimDuration::from_secs_f64(secs),
            Local(Ev::ComputeDone { stage, task }),
        );
    }

    /// ElasticPipe-style boundary migration: move one unit out of the stage with
    /// the highest profiled busy time towards its lighter neighbour, based on
    /// the *previous* period's measurements (the delayed, proactive tuning the
    /// paper contrasts with Fela's reactive pulls).
    fn repartition(&mut self, model: &Model) {
        let Some(slowest) = self
            .period_busy
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
        else {
            return;
        };
        let st = self.stages[slowest];
        if st.end - st.start <= 1 {
            for b in &mut self.period_busy {
                *b = 0.0;
            }
            return;
        }
        // Pick the lighter neighbour; shrink the slow stage by one unit.
        let left = slowest.checked_sub(1);
        let right = (slowest + 1 < self.stages.len()).then_some(slowest + 1);
        let target = match (left, right) {
            (Some(l), Some(r)) => {
                if self.period_busy[l] <= self.period_busy[r] {
                    l
                } else {
                    r
                }
            }
            (Some(l), None) => l,
            (None, Some(r)) => r,
            (None, None) => return,
        };
        if target < slowest {
            self.stages[slowest].start += 1;
            self.stages[target].end += 1;
        } else {
            self.stages[slowest].end -= 1;
            self.stages[target].start -= 1;
        }
        // Refresh boundary volumes.
        for st in &mut self.stages {
            st.out_bytes_per_sample = model.boundary_bytes(st.end - 1);
        }
        self.repartitions += 1;
        for b in &mut self.period_busy {
            *b = 0.0;
        }
    }
}

impl Protocol for MpWorld {
    type Event = Ev;

    fn start_iteration(&mut self, f: &mut Frame, sched: &mut Sched<'_, Self>) {
        if let Some(period) = self.elastic_period {
            if f.iteration > 0 && f.iteration % period == 0 {
                self.repartition(&f.scenario.model);
            }
        }
        self.bwd_done_at_stage0 = 0;
        for q in &mut self.ready {
            debug_assert!(q.is_empty(), "pipeline flushed between iterations");
        }
        // Stage 0 reads samples locally: all its forwards are ready.
        for j in 0..self.n_micro {
            self.ready[0].push_back(Task::Fwd(j));
        }
        self.try_start(f, 0, sched);
    }

    fn on_event(&mut self, f: &mut Frame, now: SimTime, event: Ev, sched: &mut Sched<'_, Self>) {
        let Ev::ComputeDone { stage, task } = event;
        f.busy[stage].end(now);
        self.stage_busy[stage] = false;
        let last = self.stages.len() - 1;
        match task {
            Task::Fwd(j) => {
                if stage == last {
                    // Loss computed locally; turn straight into backward.
                    self.ready[stage].push_back(Task::Bwd(j));
                } else {
                    let bytes = self.stages[stage].out_bytes_per_sample * self.micro_batch;
                    f.net.start_flow(
                        now,
                        FlowSpec {
                            src: NodeId(stage),
                            dst: NodeId(stage + 1),
                            bytes,
                            tag: tag(KIND_FWD, stage, j),
                        },
                    );
                    f.rearm_net(sched);
                }
            }
            Task::Bwd(j) => {
                if stage == 0 {
                    self.bwd_done_at_stage0 += 1;
                    if self.bwd_done_at_stage0 == self.n_micro {
                        f.finish_iteration(sched);
                        return;
                    }
                } else {
                    // Gradient w.r.t. the boundary activations flows back.
                    let bytes = self.stages[stage - 1].out_bytes_per_sample * self.micro_batch;
                    f.net.start_flow(
                        now,
                        FlowSpec {
                            src: NodeId(stage),
                            dst: NodeId(stage - 1),
                            bytes,
                            tag: tag(KIND_BWD, stage, j),
                        },
                    );
                    f.rearm_net(sched);
                }
            }
        }
        self.try_start(f, stage, sched);
    }

    fn on_flows(&mut self, f: &mut Frame, _now: SimTime, done: Done, sched: &mut Sched<'_, Self>) {
        for (_, spec) in done {
            let micro = spec.tag & 0xFF_FFFF;
            let dst = spec.dst.0;
            if spec.tag & KIND_FWD != 0 {
                self.ready[dst].push_back(Task::Fwd(micro));
            } else {
                self.ready[dst].push_back(Task::Bwd(micro));
            }
            self.try_start(f, dst, sched);
        }
    }

    fn count(&self, report: &mut RunReport) {
        report.bump("stages", self.stages.len() as u64);
        report.bump("micro_batches", self.n_micro);
        report.bump("repartitions", self.repartitions);
    }
}

/// The MP pipeline baseline runtime.
#[derive(Clone, Copy, Debug, Default)]
pub struct MpRuntime {
    /// ElasticPipe-style proactive re-partitioning (§II of the paper): every
    /// `Some(period)` iterations the head node moves one boundary unit from the
    /// stage with the highest profiled busy time to its lighter neighbour.
    /// `None` = the static PipeDream-style pipeline. Because the decision uses
    /// the *previous* period's profile, transient (rotating) stragglers make it
    /// chase the past — the behaviour §II-C and §III-C criticise.
    pub elastic_period: Option<u64>,
}

impl MpRuntime {
    /// The ElasticPipe-style variant with the given re-partitioning period.
    pub fn elastic(period: u64) -> Self {
        MpRuntime {
            elastic_period: Some(period),
        }
    }

    /// MP's protocol state for `scenario`, or why MP cannot run it.
    fn world(&self, scenario: &Scenario) -> Result<MpWorld, String> {
        let batch = scenario.total_batch;
        let micro = MICRO_BATCH.min(batch);
        if batch.checked_rem(micro) != Some(0) {
            return Err(format!("micro-batch {micro} does not divide batch {batch}"));
        }
        let stages = balance_stages(&scenario.model, scenario.cluster.nodes);
        let n_stages = stages.len();
        Ok(MpWorld {
            stages,
            micro_batch: micro,
            n_micro: batch / micro,
            elastic_period: self.elastic_period,
            period_busy: vec![0.0; n_stages],
            repartitions: 0,
            ready: vec![VecDeque::new(); n_stages],
            stage_busy: vec![false; n_stages],
            bwd_done_at_stage0: 0,
        })
    }
}

impl TrainingRuntime for MpRuntime {
    fn name(&self) -> &'static str {
        "mp"
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
    fn stage_balance_covers_model() {
        let m = zoo::vgg19();
        let stages = balance_stages(&m, 8);
        assert_eq!(stages.len(), 8);
        assert_eq!(stages[0].start, 0);
        assert_eq!(stages.last().unwrap().end, m.len());
        for w in stages.windows(2) {
            assert_eq!(w[0].end, w[1].start, "stages must be contiguous");
        }
        // Reasonable balance: no stage above 3× the mean forward FLOPs.
        let total = m.forward_flops() as f64;
        for st in &stages {
            let f: u64 = m.layers()[st.start..st.end]
                .iter()
                .map(|l| l.kind.forward_flops())
                .sum();
            assert!(
                (f as f64) < 3.0 * total / 8.0,
                "stage {st:?} holds {f} of {total} FLOPs"
            );
        }
    }

    #[test]
    fn stage_count_capped_by_units() {
        let m = zoo::lenet5(); // 7 units
        let stages = balance_stages(&m, 8);
        assert_eq!(stages.len(), 7);
    }

    #[test]
    fn completes_and_reports() {
        let r = MpRuntime::default().run(&scenario(128, 2));
        assert_eq!(r.iterations, 2);
        assert!(r.average_throughput() > 0.0);
        assert_eq!(r.counter("stages"), 8);
        assert_eq!(r.counter("micro_batches"), 8);
    }

    #[test]
    fn pipeline_bubble_hurts_utilization() {
        let r = MpRuntime::default().run(&scenario(128, 2));
        // With 8 micro-batches on 8 stages, ramp-up/down idles most stages most
        // of the time — the §V-C1 "majority of workers remain idle" claim.
        assert!(
            r.mean_utilization() < 0.55,
            "MP utilisation {} suspiciously high",
            r.mean_utilization()
        );
    }

    #[test]
    fn straggler_on_idle_stage_partially_hidden() {
        // MP's bubbles absorb some of the sleep — PID can be below d (§V-C2).
        let base = MpRuntime::default().run(&scenario(128, 4));
        let slow = MpRuntime::default().run(&scenario(128, 4).with_straggler(
            StragglerModel::RoundRobin {
                delay: SimDuration::from_secs(4),
            },
        ));
        let pid = (slow.total_time_secs - base.total_time_secs) / 4.0;
        assert!(
            pid < 4.0,
            "PID {pid} must be partially hidden by the bubble"
        );
        assert!(pid >= 0.0);
    }

    #[test]
    fn deterministic() {
        let a = MpRuntime::default().run(&scenario(128, 2));
        let b = MpRuntime::default().run(&scenario(128, 2));
        assert_eq!(a.total_time_secs, b.total_time_secs);
    }

    #[test]
    fn elastic_repartitioning_fixes_persistent_imbalance() {
        // A persistently slow worker: ElasticPipe's periodic migration should
        // eventually shrink its stage and beat the static pipeline.
        let mut sc = scenario(128, 12);
        sc.cluster.speed_factors[2] = 3.0;
        let static_mp = MpRuntime::default().run(&sc);
        let elastic = MpRuntime::elastic(2).run(&sc);
        assert!(elastic.counter("repartitions") > 0);
        assert!(
            elastic.total_time_secs < static_mp.total_time_secs,
            "elastic {} vs static {}",
            elastic.total_time_secs,
            static_mp.total_time_secs
        );
    }

    #[test]
    fn elastic_repartitioning_chases_transient_stragglers() {
        // §II-C / §III-C: with a rotating straggler, the previous period's
        // profile mis-identifies the next period's bottleneck, so proactive
        // migration cannot beat the static pipeline (and can lose to it).
        let sc = scenario(128, 16).with_straggler(StragglerModel::RoundRobin {
            delay: SimDuration::from_secs(4),
        });
        let static_mp = MpRuntime::default().run(&sc);
        let elastic = MpRuntime::elastic(2).run(&sc);
        assert!(elastic.counter("repartitions") > 0);
        assert!(
            elastic.total_time_secs >= static_mp.total_time_secs * 0.99,
            "elastic {} should not beat static {} under rotating stragglers",
            elastic.total_time_secs,
            static_mp.total_time_secs
        );
    }
}
