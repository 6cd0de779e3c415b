//! The live worker: the transport-free [`WorkerCore`], and the OS thread
//! ([`spawn_worker`]) that drives it over a [`Link`]; `fela-check`'s model
//! checker drives the same core.
//!
//! A worker is a pure token-puller: everything it does is a reaction to a
//! server frame, over its own engine replica (the model it actually trains).
//!
//! * `GrantBatch` — answer with one `ReportBatch` naming the grants in order,
//!   once the thread has slept their summed spans ([`granted_span_secs`],
//!   priced with its own [`Scenario`] clone) scaled by `time_scale`.
//! * `Iter` — apply one iteration's relabeled schedule to the engine replica.
//! * `Hang` — injected fault: freeze for the given real nanos, keeping state.
//! * `End` — reply with the replica's flattened parameters and exit.
//! * Any other frame — no server sends it: a [`WorkerError`], which the
//!   thread returns, dropping its link like a dead peer. A failed receive or
//!   send (the server dropped the link) ends the thread cleanly, exactly
//!   like a killed process.

use std::collections::HashMap;
use std::fmt;
use std::io;
use std::thread::{self, JoinHandle};
use std::time::Duration;

use fela_cluster::Scenario;
use fela_core::TokenPlan;

use crate::replay::{engine_setup, flatten_params, EngineSetup};
use crate::sched::{Endpoint, SharedSched};
use crate::transport::Link;
use crate::wire::{Frame, WireGrant};

/// Everything a worker thread needs to start.
pub struct WorkerSpec {
    /// Worker index (node id).
    pub index: usize,
    /// The worker's own copy of the workload (compute model, straggler spec).
    pub scenario: Scenario,
    /// Token plan, for sizing the engine replica.
    pub plan: TokenPlan,
    /// Real seconds slept per modeled second (0.0 = virtual clock).
    pub time_scale: f64,
    /// Send an initial `Request` on startup (real-clock pull mode). Virtual
    /// mode leaves this off: the simulator grants every token, and its
    /// workers only replay the epilogue.
    pub pull: bool,
    /// Scheduler the worker's link yields to at every frame send/receive
    /// ([`crate::sched::pass`] for the uninstrumented default).
    pub sched: SharedSched,
}

/// The sans-IO worker: one worker's reactions to server frames, over its
/// engine replica.
pub struct WorkerCore {
    index: usize,
    replica: EngineSetup,
}

/// What a worker waits before it sends a step's reply.
#[derive(Debug, PartialEq)]
pub enum WorkerWait {
    /// Nothing: send at once.
    Nothing,
    /// Compute these granted spans, in grant order: the grants of the
    /// `GrantBatch`, moved out of it. Pricing them is the shell's.
    Compute(Vec<WireGrant>),
    /// Freeze for these real nanoseconds (an injected `Hang`).
    Hang(u64),
}

/// A [`WorkerCore`]'s reaction to one server frame.
#[derive(Debug, PartialEq)]
pub struct WorkerStep {
    /// What to wait before sending `reply`.
    pub wait: WorkerWait,
    /// The frame to send, if any.
    pub reply: Option<Frame>,
    /// Whether the worker exits once `reply` is sent.
    pub exit: bool,
}

/// A frame a worker cannot react to.
#[derive(PartialEq, Debug)]
pub enum WorkerError {
    /// The server link delivered a frame no server sends.
    UnexpectedFrame {
        /// The receiving worker.
        worker: usize,
        /// The frame, in its `Debug` form.
        frame: String,
    },
}

impl fmt::Display for WorkerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let WorkerError::UnexpectedFrame { worker, frame } = self;
        write!(f, "worker {worker}: unexpected frame: {frame}")
    }
}

impl std::error::Error for WorkerError {}

impl WorkerCore {
    /// Worker `index`, with a fresh engine replica sized to `plan`.
    pub fn new(index: usize, plan: &TokenPlan) -> WorkerCore {
        WorkerCore {
            index,
            replica: engine_setup(plan),
        }
    }

    /// The opening frame: a `Request` in pull mode, nothing otherwise.
    pub fn start(&self, pull: bool) -> Option<Frame> {
        pull.then_some(Frame::Request {
            worker: self.index as u32,
        })
    }

    /// Reacts to one frame from the server. A `GrantBatch` never touches the
    /// replica: only `Iter` and `End` read or change it.
    pub fn on_frame(&mut self, frame: Frame) -> Result<WorkerStep, WorkerError> {
        let step = |wait, reply, exit| Ok(WorkerStep { wait, reply, exit });
        match frame {
            Frame::GrantBatch { grants } => {
                let reply = Frame::ReportBatch {
                    worker: self.index as u32,
                    tokens: grants.iter().map(|g| g.token).collect(),
                };
                step(WorkerWait::Compute(grants), Some(reply), false)
            }
            Frame::Iter { schedule, .. } => {
                let schedule: Vec<(usize, usize)> = schedule
                    .iter()
                    .map(|&(l, j)| (l as usize, j as usize))
                    .collect();
                self.replica.step(&schedule);
                step(WorkerWait::Nothing, None, false)
            }
            Frame::Hang { nanos } => step(WorkerWait::Hang(nanos), None, false),
            Frame::End => {
                let bytes = flatten_params(&self.replica.net);
                step(WorkerWait::Nothing, Some(Frame::Params { bytes }), true)
            }
            frame => Err(WorkerError::UnexpectedFrame {
                worker: self.index,
                frame: format!("{frame:?}"),
            }),
        }
    }
}

/// Memoized analytic compute seconds, keyed by `(unit_start, unit_end,
/// batch, worker)`.
pub(crate) type SpanCache = HashMap<(u32, u32, u64, usize), f64>;

/// Modeled seconds of one granted span on `worker`, straggler delay
/// included: what the worker sleeps (before `time_scale`) and what the
/// real-clock server sizes the grant's lease to. The compute part is what
/// [`fela_core::LocalCompute`] returns for the span; the analytic model walk
/// is deterministic, so it is memoized in `cache`.
pub(crate) fn granted_span_secs(
    scenario: &Scenario,
    cache: &mut SpanCache,
    worker: usize,
    g: &WireGrant,
) -> f64 {
    let compute = *cache
        .entry((g.unit_start, g.unit_end, g.batch, worker))
        .or_insert_with(|| {
            scenario.cluster.compute_secs(
                &scenario.model,
                g.unit_start as usize,
                g.unit_end as usize,
                g.batch,
                worker,
            )
        });
    compute + scenario.straggler_delay(g.iteration, worker).as_secs_f64()
}

fn scaled_sleep(secs: f64, time_scale: f64) {
    let real = secs * time_scale;
    if real > 0.0 {
        thread::sleep(Duration::from_secs_f64(real));
    }
}

/// Spawns the worker thread: receive, [`WorkerCore::on_frame`], wait, send,
/// until `End` or until its link dies. The thread returns the core's error
/// on a frame no server sends.
pub fn spawn_worker(
    spec: WorkerSpec,
    mut link: Link,
) -> io::Result<JoinHandle<Result<(), WorkerError>>> {
    link.instrument(spec.sched.clone(), Endpoint::Worker, spec.index);
    thread::Builder::new()
        .name(format!("fela-worker-{}", spec.index))
        .spawn(move || {
            let mut core = WorkerCore::new(spec.index, &spec.plan);
            // The analytic model walk repeats for every token of a level,
            // and the batched hot path prices whole grant batches at once.
            let mut spans = SpanCache::new();
            if let Some(open) = core.start(spec.pull) {
                if link.send(&open).is_err() {
                    return Ok(());
                }
            }
            // A failed receive or send means the server dropped us: die
            // like a killed process.
            while let Ok(frame) = link.recv() {
                let step = core.on_frame(frame)?;
                match step.wait {
                    WorkerWait::Nothing => {}
                    // The whole pipelined batch "computes" as one coalesced
                    // sleep — the worker-side half of the batched hot path.
                    WorkerWait::Compute(grants) => {
                        let secs: f64 = grants
                            .iter()
                            .map(|g| granted_span_secs(&spec.scenario, &mut spans, spec.index, g))
                            .sum();
                        scaled_sleep(secs, spec.time_scale);
                    }
                    WorkerWait::Hang(nanos) => thread::sleep(Duration::from_nanos(nanos)),
                }
                let sent = step.reply.map_or(Ok(()), |reply| link.send(&reply));
                if step.exit || sent.is_err() {
                    break;
                }
            }
            Ok(())
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{ChanTransport, Transport};
    use fela_model::zoo;

    fn test_spec(index: usize) -> WorkerSpec {
        let scenario = Scenario::paper(zoo::alexnet(), 128);
        let runtime = fela_core::FelaRuntime::new(fela_core::FelaConfig::new(1));
        let partition = runtime.partition_for(&scenario);
        let config = fela_core::FelaConfig::new(partition.len());
        let plan = fela_core::TokenPlan::build(&partition, &config, 128, 8).expect("plan");
        WorkerSpec {
            index,
            scenario,
            plan,
            time_scale: 0.0,
            pull: false,
            sched: crate::sched::pass(),
        }
    }

    #[test]
    fn grant_batch_reports_every_token_with_one_frame() {
        use crate::wire::WireGrant;
        let spec = test_spec(1);
        let mut t = ChanTransport;
        let (mut servers, workers) = t.establish(1).expect("establish");
        let handle = spawn_worker(spec, workers.into_iter().next().expect("one")).expect("spawn");
        let grant = |token| WireGrant {
            token,
            level: 0,
            iteration: 0,
            batch: 16,
            unit_start: 0,
            unit_end: 2,
        };
        servers[0]
            .send(&Frame::GrantBatch {
                grants: vec![grant(4), grant(5), grant(6)],
            })
            .expect("send batch");
        match servers[0].recv().expect("report batch") {
            Frame::ReportBatch { worker, tokens } => {
                assert_eq!(worker, 1);
                assert_eq!(tokens, vec![4, 5, 6]);
            }
            other => panic!("unexpected {other:?}"),
        }
        // A batch of one is answered in the same shape.
        servers[0]
            .send(&Frame::GrantBatch {
                grants: vec![grant(7)],
            })
            .expect("send singleton batch");
        assert_eq!(
            servers[0].recv().expect("report"),
            Frame::ReportBatch {
                worker: 1,
                tokens: vec![7],
            }
        );
        servers[0].send(&Frame::End).expect("send end");
        assert!(matches!(servers[0].recv(), Ok(Frame::Params { .. })));
        let exit = handle.join().expect("worker exits, not panics");
        assert_eq!(exit, Ok(()));
    }

    #[test]
    fn worker_dies_when_the_link_drops() {
        let spec = test_spec(0);
        let mut t = ChanTransport;
        let (servers, workers) = t.establish(1).expect("establish");
        let handle = spawn_worker(spec, workers.into_iter().next().expect("one")).expect("spawn");
        drop(servers);
        let exit = handle.join().expect("worker exits, not panics");
        assert_eq!(exit, Ok(()));
    }

    #[test]
    fn worker_exits_cleanly_on_a_frame_no_server_sends() {
        let cost_query = Frame::CostQuery {
            worker: 0,
            token: 7,
            level: 0,
            unit_start: 0,
            unit_end: 3,
            batch: 16,
            iteration: 0,
        };
        for frame in [Frame::Request { worker: 0 }, cost_query] {
            let spec = test_spec(0);
            let mut t = ChanTransport;
            let (mut servers, workers) = t.establish(1).expect("establish");
            let handle =
                spawn_worker(spec, workers.into_iter().next().expect("one")).expect("spawn");
            servers[0].send(&frame).expect("send frame");
            let exit = handle.join().expect("worker exits, not panics");
            assert!(
                matches!(exit, Err(WorkerError::UnexpectedFrame { worker: 0, .. })),
                "{frame:?}: {exit:?}"
            );
            assert!(
                servers[0].recv().is_err(),
                "{frame:?}: worker dropped its link"
            );
        }
    }

    #[test]
    fn grant_report_round_trip_applies_no_engine_state() {
        let spec = test_spec(2);
        let mut t = ChanTransport;
        let (mut servers, workers) = t.establish(1).expect("establish");
        let handle = spawn_worker(spec, workers.into_iter().next().expect("one")).expect("spawn");
        servers[0]
            .send(&Frame::GrantBatch {
                grants: vec![crate::wire::WireGrant {
                    token: 3,
                    level: 0,
                    iteration: 0,
                    batch: 16,
                    unit_start: 0,
                    unit_end: 2,
                }],
            })
            .expect("send grant");
        assert_eq!(
            servers[0].recv().expect("report"),
            Frame::ReportBatch {
                worker: 2,
                tokens: vec![3],
            }
        );
        servers[0].send(&Frame::End).expect("send end");
        let params = match servers[0].recv().expect("params") {
            Frame::Params { bytes } => bytes,
            other => panic!("unexpected {other:?}"),
        };
        // No Iter frames were sent, so the replica still holds seed weights.
        let fresh = crate::replay::engine_setup(&test_spec(2).plan);
        assert_eq!(params, crate::replay::flatten_params(&fresh.net));
        let exit = handle.join().expect("worker exits, not panics");
        assert_eq!(exit, Ok(()));
    }

    #[test]
    fn spawn_worker_s_handle_yields_the_typed_error() {
        let mut t = ChanTransport;
        let (mut servers, workers) = t.establish(1).expect("establish");
        let link = workers.into_iter().next().expect("one");
        let handle = spawn_worker(test_spec(0), link).expect("spawn");
        servers[0]
            .send(&Frame::Request { worker: 0 })
            .expect("send frame");
        let exit = handle.join().expect("worker exits, not panics");
        assert_eq!(
            exit,
            Err(WorkerError::UnexpectedFrame {
                worker: 0,
                frame: "Request { worker: 0 }".into(),
            })
        );
    }

    /// The plan the golden `Iter` frame's schedule covers: two level-0
    /// tokens and one level-1 token per iteration.
    fn golden_plan() -> TokenPlan {
        let level =
            |level, tokens_per_iteration, batch_per_token, gen_ratio| fela_core::LevelPlan {
                level,
                tokens_per_iteration,
                batch_per_token,
                gen_ratio,
            };
        TokenPlan {
            levels: vec![level(0, 2, 4, 1), level(1, 1, 8, 2)],
            total_batch: 8,
        }
    }

    #[test]
    fn a_worker_core_steps_on_every_server_frame_and_names_every_other() {
        let step = |wait, reply, exit| Ok(WorkerStep { wait, reply, exit });
        for frame in crate::golden::expected_frames() {
            let mut core = WorkerCore::new(1, &golden_plan());
            let got = core.on_frame(frame.clone());
            let want = match frame {
                Frame::GrantBatch { grants } => {
                    let tokens = grants.iter().map(|g| g.token).collect();
                    let reply = Frame::ReportBatch { worker: 1, tokens };
                    step(WorkerWait::Compute(grants), Some(reply), false)
                }
                Frame::Iter { .. } => step(WorkerWait::Nothing, None, false),
                Frame::Hang { nanos } => step(WorkerWait::Hang(nanos), None, false),
                Frame::End => {
                    let bytes = flatten_params(&engine_setup(&golden_plan()).net);
                    step(WorkerWait::Nothing, Some(Frame::Params { bytes }), true)
                }
                other => {
                    let frame = format!("{other:?}");
                    let variant = frame.split([' ', '{']).next().unwrap_or_default();
                    let err = got.as_ref().expect_err("not a server frame");
                    assert!(err.to_string().contains(variant), "{err}");
                    Err(WorkerError::UnexpectedFrame { worker: 1, frame })
                }
            };
            assert_eq!(got, want);
        }
    }
}
