//! The live worker: one OS thread per worker node.
//!
//! A worker owns its own [`Scenario`] clone (the analytic compute model it
//! prices spans with) and its own engine replica (the model it actually
//! trains). It is a pure token-puller: everything it does is a reaction to a
//! frame from the Token Server.
//!
//! * `CostQuery` — price a compute span with the worker's *own* copy of the
//!   analytic model and reply bit-exactly (`f64::to_bits`). In virtual-clock
//!   mode this is the only thing that feeds the server's event loop, which is
//!   why live runs are conformant: the server never consults its local model.
//! * `GrantBatch` — "compute" the granted tokens as one sleep of their summed
//!   spans scaled by `time_scale`, then answer with one `ReportBatch` naming
//!   them in grant order.
//! * `Iter` — apply one iteration's relabeled schedule to the engine replica.
//! * `Hang` — injected fault: freeze for the given real nanos, keeping state.
//! * `End` — reply with the replica's flattened parameters and exit.
//!
//! A failed receive means the server dropped the link (crash injection or
//! shutdown): the thread exits silently, exactly like a killed process. A
//! frame no server sends is treated the same way.

use std::collections::HashMap;
use std::thread::{self, JoinHandle};
use std::time::Duration;

use fela_cluster::Scenario;
use fela_core::TokenPlan;

use crate::replay::{engine_setup, flatten_params};
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
    /// mode leaves this off: the simulated event loop injects requests.
    pub pull: bool,
    /// Scheduler the worker's link yields to at every frame send/receive
    /// ([`crate::sched::pass`] for the uninstrumented default).
    pub sched: SharedSched,
}

/// Base compute seconds for a span on `worker`, priced by the worker's own
/// scenario copy. Exactly what [`fela_core::LocalCompute`] would return —
/// straggler delays are NOT included (the simulator applies them as a
/// start-time floor, and a real-clock grant adds them in
/// [`granted_span_secs`]).
fn span_secs(
    scenario: &Scenario,
    worker: usize,
    unit_start: u32,
    unit_end: u32,
    batch: u64,
) -> f64 {
    scenario.cluster.compute_secs(
        &scenario.model,
        unit_start as usize,
        unit_end as usize,
        batch,
        worker,
    )
}

/// Memoized analytic compute seconds, keyed by `(unit_start, unit_end,
/// batch, worker)`.
pub(crate) type SpanCache = HashMap<(u32, u32, u64, usize), f64>;

/// Modeled seconds of one granted span on `worker`, straggler delay
/// included: what the worker sleeps (before `time_scale`) and what the
/// real-clock server sizes the grant's lease to. The analytic model walk is
/// deterministic, so it is memoized in `cache`.
pub(crate) fn granted_span_secs(
    scenario: &Scenario,
    cache: &mut SpanCache,
    worker: usize,
    g: &WireGrant,
) -> f64 {
    let compute = *cache
        .entry((g.unit_start, g.unit_end, g.batch, worker))
        .or_insert_with(|| span_secs(scenario, worker, g.unit_start, g.unit_end, g.batch));
    compute + scenario.straggler_delay(g.iteration, worker).as_secs_f64()
}

fn scaled_sleep(secs: f64, time_scale: f64) {
    let real = secs * time_scale;
    if real > 0.0 {
        thread::sleep(Duration::from_secs_f64(real));
    }
}

/// Spawns the worker thread. It runs until `End` or until its link dies.
pub fn spawn_worker(spec: WorkerSpec, mut link: Link) -> JoinHandle<()> {
    link.instrument(spec.sched.clone(), Endpoint::Worker, spec.index);
    thread::Builder::new()
        .name(format!("fela-worker-{}", spec.index))
        .spawn(move || {
            let mut setup = engine_setup(&spec.plan);
            // The analytic model walk repeats for every token of a level,
            // and the batched hot path prices whole grant batches at once.
            let mut spans = SpanCache::new();
            if spec.pull
                && link
                    .send(&Frame::Request {
                        worker: spec.index as u32,
                    })
                    .is_err()
            {
                return;
            }
            loop {
                let frame = match link.recv() {
                    Ok(frame) => frame,
                    Err(_) => return, // server dropped us: die like a killed process
                };
                match frame {
                    Frame::CostQuery {
                        token,
                        unit_start,
                        unit_end,
                        batch,
                        ..
                    } => {
                        let secs =
                            span_secs(&spec.scenario, spec.index, unit_start, unit_end, batch);
                        if link
                            .send(&Frame::CostReply {
                                token,
                                secs_bits: secs.to_bits(),
                            })
                            .is_err()
                        {
                            return;
                        }
                    }
                    Frame::GrantBatch { grants } => {
                        // The whole pipelined batch "computes" as one coalesced
                        // sleep, then reports with a single frame — the
                        // worker-side half of the batched hot path.
                        let secs: f64 = grants
                            .iter()
                            .map(|g| granted_span_secs(&spec.scenario, &mut spans, spec.index, g))
                            .sum();
                        scaled_sleep(secs, spec.time_scale);
                        let reply = Frame::ReportBatch {
                            worker: spec.index as u32,
                            tokens: grants.iter().map(|g| g.token).collect(),
                        };
                        if link.send(&reply).is_err() {
                            return;
                        }
                    }
                    Frame::Iter { schedule, .. } => {
                        let schedule: Vec<(usize, usize)> = schedule
                            .iter()
                            .map(|&(l, j)| (l as usize, j as usize))
                            .collect();
                        setup.step(&schedule);
                    }
                    Frame::Hang { nanos } => {
                        thread::sleep(Duration::from_nanos(nanos));
                    }
                    Frame::End => {
                        let _ = link.send(&Frame::Params {
                            bytes: flatten_params(&setup.net),
                        });
                        return;
                    }
                    // A frame no server sends: drop the link like a dead peer.
                    _ => return,
                }
            }
        })
        .unwrap_or_else(|e| panic!("spawn worker thread: {e}"))
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
    fn worker_answers_cost_queries_bit_exactly() {
        let spec = test_spec(0);
        let expect = spec
            .scenario
            .cluster
            .compute_secs(&spec.scenario.model, 0, 3, 16, 0);
        let mut t = ChanTransport;
        let (mut servers, workers) = t.establish(1).expect("establish");
        let handle = spawn_worker(spec, workers.into_iter().next().expect("one"));
        servers[0]
            .send(&Frame::CostQuery {
                worker: 0,
                token: 7,
                level: 0,
                unit_start: 0,
                unit_end: 3,
                batch: 16,
                iteration: 0,
            })
            .expect("send");
        match servers[0].recv().expect("reply") {
            Frame::CostReply { token, secs_bits } => {
                assert_eq!(token, 7);
                assert_eq!(secs_bits, expect.to_bits());
            }
            other => panic!("unexpected {other:?}"),
        }
        servers[0].send(&Frame::End).expect("send end");
        match servers[0].recv().expect("params") {
            Frame::Params { bytes } => assert!(!bytes.is_empty()),
            other => panic!("unexpected {other:?}"),
        }
        handle.join().expect("worker exits cleanly");
    }

    #[test]
    fn grant_batch_reports_every_token_with_one_frame() {
        use crate::wire::WireGrant;
        let spec = test_spec(1);
        let mut t = ChanTransport;
        let (mut servers, workers) = t.establish(1).expect("establish");
        let handle = spawn_worker(spec, workers.into_iter().next().expect("one"));
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
        handle.join().expect("worker exits cleanly");
    }

    #[test]
    fn worker_dies_when_the_link_drops() {
        let spec = test_spec(0);
        let mut t = ChanTransport;
        let (servers, workers) = t.establish(1).expect("establish");
        let handle = spawn_worker(spec, workers.into_iter().next().expect("one"));
        drop(servers);
        handle.join().expect("worker exits, not panics");
    }

    #[test]
    fn worker_exits_cleanly_on_a_frame_no_server_sends() {
        let spec = test_spec(0);
        let mut t = ChanTransport;
        let (mut servers, workers) = t.establish(1).expect("establish");
        let handle = spawn_worker(spec, workers.into_iter().next().expect("one"));
        servers[0]
            .send(&Frame::Request { worker: 0 })
            .expect("send request");
        handle.join().expect("worker exits, not panics");
        assert!(servers[0].recv().is_err(), "worker dropped its link");
    }

    #[test]
    fn grant_report_round_trip_applies_no_engine_state() {
        let spec = test_spec(2);
        let mut t = ChanTransport;
        let (mut servers, workers) = t.establish(1).expect("establish");
        let handle = spawn_worker(spec, workers.into_iter().next().expect("one"));
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
        handle.join().expect("worker exits cleanly");
    }
}
