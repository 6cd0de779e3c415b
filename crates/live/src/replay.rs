//! Trace → engine replay: turn a run's `Complete` events into valid
//! [`TokenExecutor`] schedules and reference parameters.
//!
//! The scheduler groups a token's dependencies by **completion order** (the
//! j-th generated level-`l` token consumes the outputs of the most recent
//! `gen_ratio` fresh completions at level `l-1`), not by token sequence
//! numbers. Replaying `(level, seq)` pairs through [`SplitPlan`] — whose
//! dependency rule is index-range based — could therefore violate engine
//! dependencies. The fix is *completion-order relabeling*: within each
//! `(level, iteration)`, the engine index of a completion is its 0-based rank
//! among applied completions of that level.
//!
//! This is topologically valid for any trace the Token Server can produce:
//! when the j-th level-`l` completion happens, at least `(j+1)·ratio` level-
//! `(l-1)` completions have been applied (each generated level-`l` token
//! consumed `ratio` fresh ones), and the relabeled dependencies of engine
//! index `j` are exactly indices `j·ratio .. (j+1)·ratio` at level `l-1` —
//! all among those first `(j+1)·ratio` completers.
//!
//! Faulted runs work too: a `Complete` whose report the server rejected
//! (matched [`EventKind::StaleReport`]) never mutated server state, so it is
//! skipped; only *applied* completions drive the relabeling.
//!
//! [`train_replicas`] is the one place replicas train from given schedules
//! over the wire; a virtual-clock live run ([`run_virtual_with`]) is the
//! simulator followed by `train_replicas` on its trace's schedules.

use std::collections::{HashMap, VecDeque};
use std::io;

use fela_cluster::Scenario;
use fela_core::{FelaConfig, FelaRuntime, TokenPlan};
use fela_engine::{EngineLayer, EngineNet, SplitPlan, Tensor, TokenExecutor};
use fela_metrics::RunReport;
use fela_sim::{EventKind, Trace};

use crate::sched::{Endpoint, SharedSched};
use crate::transport::Transport;
use crate::wire::Frame;
use crate::worker::{spawn_worker, WorkerSpec};

/// Learning rate used by every live engine replica and reference replay.
const LIVE_LR: f32 = 0.05;
/// Seed for the replica network weights.
const NET_SEED: u64 = 17;
/// Seeds for the (fixed) training batch and targets.
const DATA_SEED_X: u64 = 100;
/// Target tensor seed.
const DATA_SEED_T: u64 = 200;

/// A deterministic engine replica sized to mirror a [`TokenPlan`]: one
/// `Dense(+Relu)` block per token level, token counts copied from the plan.
pub struct EngineSetup {
    /// The replica network (identical on every worker: same seed).
    pub net: EngineNet,
    /// The executor holding the split plan and learning rate.
    pub exec: TokenExecutor,
    /// Fixed input batch.
    pub x: Tensor,
    /// Fixed regression target.
    pub target: Tensor,
}

impl EngineSetup {
    /// Applies one iteration's schedule to the replica.
    pub fn step(&mut self, schedule: &[(usize, usize)]) {
        self.exec
            .step(&mut self.net, &self.x, &self.target, schedule);
    }
}

/// Builds the canonical engine replica for `plan`.
///
/// For `M` levels the network is `mlp([6, 8, .., 8, 4])` (`M+1` dims →
/// `2M-1` units); engine level `i` spans units `[2i, 2i+2)` (the last level
/// takes the final dense alone) and carries the plan's
/// `tokens_per_iteration`. The batch is `2·n_0` rows, so every level's token
/// count divides it (core plans halve token counts level to level).
pub fn engine_setup(plan: &TokenPlan) -> EngineSetup {
    let m = plan.num_levels();
    assert!(m >= 1, "a token plan has at least one level");
    let mut dims = vec![6];
    dims.resize(m, 8);
    dims.push(4);
    let net = EngineNet::mlp(&dims, NET_SEED);
    let n_units = net.len();
    let levels: Vec<(usize, usize)> = (0..m)
        .map(|i| (2 * i, if i == m - 1 { n_units } else { 2 * i + 2 }))
        .collect();
    let tokens: Vec<usize> = plan
        .levels
        .iter()
        .map(|l| l.tokens_per_iteration as usize)
        .collect();
    let batch = tokens[0] * 2;
    let split = SplitPlan { levels, tokens };
    split.validate(&net, batch);
    let x = Tensor::seeded(&[batch, 6], DATA_SEED_X, 1.0);
    let target = Tensor::seeded(&[batch, 4], DATA_SEED_T, 1.0);
    EngineSetup {
        net,
        exec: TokenExecutor::new(split, LIVE_LR),
        x,
        target,
    }
}

/// Extracts one engine schedule per iteration from a trace via
/// completion-order relabeling (see the module docs).
///
/// Stale completions are removed by FIFO-matching each
/// [`EventKind::StaleReport`] `(worker, token)` to its earliest unmatched
/// [`EventKind::Complete`] — reports travel a fixed RPC delay, so per
/// `(worker, token)` the rejections land in completion order.
pub fn schedules_from_trace(trace: &Trace) -> Vec<Vec<(usize, usize)>> {
    let events = trace.events();
    let mut stale = vec![false; events.len()];
    let mut pending: HashMap<(usize, u64), VecDeque<usize>> = HashMap::new();
    for (i, ev) in events.iter().enumerate() {
        match &ev.kind {
            EventKind::Complete { worker, token, .. } => {
                pending.entry((*worker, *token)).or_default().push_back(i);
            }
            EventKind::StaleReport { worker, token } => {
                let Some(matched) = pending
                    .get_mut(&(*worker, *token))
                    .and_then(|q| q.pop_front())
                else {
                    panic!("stale report without a matching completion");
                };
                stale[matched] = true;
            }
            _ => {}
        }
    }
    let applied: Vec<(u64, usize)> = events
        .iter()
        .zip(stale)
        .filter_map(|(ev, stale)| match ev.kind {
            EventKind::Complete {
                level, iteration, ..
            } if !stale => Some((iteration, level)),
            _ => None,
        })
        .collect();
    schedules_from_completions(&applied)
}

/// Relabels applied completions `(iteration, level)`, in the order the server
/// accepted them, into one engine schedule per iteration: a completion's
/// engine index is its 0-based rank among its level's completions in that
/// iteration (see the module docs).
pub fn schedules_from_completions(completions: &[(u64, usize)]) -> Vec<Vec<(usize, usize)>> {
    let mut schedules: Vec<Vec<(usize, usize)>> = Vec::new();
    let mut next_rank: Vec<HashMap<usize, usize>> = Vec::new();
    for &(iteration, level) in completions {
        let it = iteration as usize;
        while schedules.len() <= it {
            schedules.push(Vec::new());
            next_rank.push(HashMap::new());
        }
        let rank = next_rank[it].entry(level).or_insert(0);
        schedules[it].push((level, *rank));
        *rank += 1;
    }
    schedules
}

/// The replica epilogue the server ships every worker once a run is over:
/// one `Iter` frame per iteration's schedule, then `End`.
pub fn epilogue(schedules: &[Vec<(usize, usize)>]) -> Vec<Frame> {
    let mut frames: Vec<Frame> = (0u64..)
        .zip(schedules)
        .map(|(iteration, schedule)| Frame::Iter {
            iteration,
            schedule: schedule
                .iter()
                .map(|&(l, j)| (l as u32, j as u32))
                .collect(),
        })
        .collect();
    frames.push(Frame::End);
    frames
}

/// Serializes the replica's parameters as little-endian `f32` bytes
/// (weights then bias of every parameterized unit, in network order).
pub fn flatten_params(net: &EngineNet) -> Vec<u8> {
    let mut out = Vec::new();
    for layer in net.layers() {
        match layer {
            EngineLayer::Dense { weight, bias } | EngineLayer::Conv2d { weight, bias } => {
                for tensor in [weight, bias] {
                    for v in tensor.data() {
                        out.extend_from_slice(&v.to_le_bytes());
                    }
                }
            }
            EngineLayer::Relu => {}
        }
    }
    out
}

/// Replays every iteration of `trace` through a fresh replica and returns the
/// final parameter bytes — the reference the live workers must match.
pub fn replay_trace(plan: &TokenPlan, trace: &Trace) -> Vec<u8> {
    replay_schedules(plan, &schedules_from_trace(trace))
}

/// Replays explicit per-iteration schedules through a fresh replica.
pub fn replay_schedules(plan: &TokenPlan, schedules: &[Vec<(usize, usize)>]) -> Vec<u8> {
    let mut setup = engine_setup(plan);
    for schedule in schedules {
        setup.step(schedule);
    }
    flatten_params(&setup.net)
}

/// Checks one worker's final parameters against the reference replay: an
/// [`io::ErrorKind::InvalidData`] error naming `worker` when they differ.
pub(crate) fn check_params(worker: usize, bytes: &[u8], reference: &[u8]) -> io::Result<()> {
    if bytes == reference {
        return Ok(());
    }
    Err(io::Error::new(
        io::ErrorKind::InvalidData,
        format!("worker {worker}: replica parameters diverged from the reference replay"),
    ))
}

/// Trains one engine replica per cluster node of `scenario` on `schedules`
/// and returns the parameters they all agreed on: spawns epilogue-only
/// workers over `transport`, ships the epilogue to every worker before
/// collecting any `Params` (so the replicas replay in parallel), checks
/// each reply against [`replay_schedules`] and joins the workers: a worker
/// that returned an error or panicked is an error naming it. Every
/// link on both endpoints yields its frame traffic to `sched`.
pub fn train_replicas(
    plan: &TokenPlan,
    scenario: &Scenario,
    schedules: &[Vec<(usize, usize)>],
    transport: &mut dyn Transport,
    sched: SharedSched,
) -> io::Result<Vec<u8>> {
    let (server_links, worker_links) = transport.establish(scenario.cluster.nodes)?;
    let handles = worker_links
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
        .collect::<io::Result<Vec<_>>>()?;
    let reference = replay_schedules(plan, schedules);
    let epilogue = epilogue(schedules);
    let mut halves: Vec<_> = server_links
        .into_iter()
        .enumerate()
        .map(|(w, mut link)| {
            link.instrument(sched.clone(), Endpoint::Server, w);
            link.split()
        })
        .collect();
    for (tx, _) in &mut halves {
        epilogue.iter().try_for_each(|f| tx.queue(f))?;
        tx.flush()?;
    }
    for (w, (_, rx)) in halves.iter_mut().enumerate() {
        match rx.recv()? {
            Frame::Params { bytes } => check_params(w, &bytes, &reference)?,
            other => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("worker {w}: expected Params, got {other:?}"),
                ))
            }
        }
    }
    for (w, handle) in handles.into_iter().enumerate() {
        match handle.join() {
            Ok(exit) => exit.map_err(io::Error::other)?,
            Err(_) => return Err(io::Error::other(format!("worker {w}: thread panicked"))),
        }
    }
    Ok(reference)
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

/// Runs `scenario` live in virtual-clock mode: [`FelaRuntime::run_traced`],
/// then [`train_replicas`] on the trace's schedules over `transport`.
/// Returns the simulator's report and trace and the replicas' parameters.
pub fn run_virtual_with(
    config: &FelaConfig,
    scenario: &Scenario,
    transport: &mut dyn Transport,
    sched: SharedSched,
) -> io::Result<(RunReport, Trace, Vec<u8>)> {
    let plan = plan_for(config, scenario)?;
    let (report, trace) = FelaRuntime::new(config.clone()).run_traced(scenario);
    let schedules = schedules_from_trace(&trace);
    let params = train_replicas(&plan, scenario, &schedules, transport, sched)?;
    Ok((report, trace, params))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::pass;
    use crate::transport::{ChanTransport, TcpTransport};
    use fela_model::{bin_partition, zoo, PartitionOptions, ThresholdProfile};
    use fela_sim::SimTime;

    fn plan_for(weights: &[u64]) -> TokenPlan {
        let partition = bin_partition(
            &zoo::vgg19(),
            &ThresholdProfile::k40c(),
            PartitionOptions::default(),
        );
        let config = FelaConfig::new(weights.len()).with_weights(weights.to_vec());
        TokenPlan::build(&partition, &config, 128, 8).expect("plan builds")
    }

    #[test]
    fn engine_setup_matches_plan_shape() {
        let plan = plan_for(&[1, 2, 4]);
        let setup = engine_setup(&plan);
        assert_eq!(setup.exec.plan().levels.len(), plan.num_levels());
        for (l, lp) in plan.levels.iter().enumerate() {
            assert_eq!(
                setup.exec.plan().tokens[l],
                lp.tokens_per_iteration as usize,
                "level {l} token count"
            );
        }
        assert_eq!(setup.net.len(), 2 * plan.num_levels() - 1);
    }

    #[test]
    fn replicas_with_same_plan_are_bit_identical() {
        let plan = plan_for(&[1, 2, 4]);
        let a = engine_setup(&plan);
        let b = engine_setup(&plan);
        assert_eq!(flatten_params(&a.net), flatten_params(&b.net));
        assert!(!flatten_params(&a.net).is_empty());
    }

    fn complete(trace: &mut Trace, worker: usize, token: u64, level: usize, iteration: u64) {
        trace.record_kind(
            SimTime::ZERO,
            "worker",
            EventKind::Complete {
                worker,
                token,
                level,
                iteration,
            },
            String::new,
        );
    }

    /// Emits one iteration's completions in the order the Token Server
    /// generates tokens: each root completion cascades upward, generating a
    /// level-`l` token (and completing it) whenever `gen_ratio` fresh
    /// level-`l-1` completions have accumulated. Returns the next free id.
    fn record_valid_iteration(
        plan: &TokenPlan,
        trace: &mut Trace,
        iteration: u64,
        first_token: u64,
    ) -> u64 {
        let n: Vec<u64> = plan.levels.iter().map(|l| l.tokens_per_iteration).collect();
        let ratio: Vec<u64> = plan.levels.iter().map(|l| l.gen_ratio).collect();
        let mut credits = vec![0u64; n.len()];
        let mut emitted = vec![0u64; n.len()];
        let mut id = first_token;
        for _ in 0..n[0] {
            complete(trace, 0, id, 0, iteration);
            id += 1;
            credits[0] += 1;
            emitted[0] += 1;
            let mut l = 1;
            while l < n.len() && emitted[l] < n[l] && credits[l - 1] >= ratio[l] {
                credits[l - 1] -= ratio[l];
                complete(trace, 0, id, l, iteration);
                id += 1;
                credits[l] += 1;
                emitted[l] += 1;
                l += 1;
            }
        }
        assert_eq!(emitted, n, "every level fully completed");
        id
    }

    #[test]
    fn completion_order_relabeling_is_a_valid_schedule() {
        // A scheduler-plausible interleaved completion order must relabel to
        // a schedule that passes TokenExecutor's dependency assertions.
        let plan = plan_for(&[1, 2, 4]);
        let mut trace = Trace::enabled();
        let next = record_valid_iteration(&plan, &mut trace, 0, 0);
        record_valid_iteration(&plan, &mut trace, 1, next);
        let schedules = schedules_from_trace(&trace);
        assert_eq!(schedules.len(), 2);
        // Panics inside step() if the relabeled order violates deps.
        let params = replay_schedules(&plan, &schedules);
        assert!(!params.is_empty());
    }

    #[test]
    fn stale_completions_are_skipped() {
        // A worker completes token 0 but its report is rejected; the token is
        // later re-completed. Only applied completions drive the relabeling,
        // so the schedule is identical to the fault-free one.
        let plan = plan_for(&[1, 2, 4]);
        let mut trace = Trace::enabled();
        complete(&mut trace, 1, 0, 0, 0);
        trace.record_kind(
            SimTime::ZERO,
            "ts",
            EventKind::StaleReport {
                worker: 1,
                token: 0,
            },
            String::new,
        );
        let mut clean = Trace::enabled();
        record_valid_iteration(&plan, &mut trace, 0, 0);
        record_valid_iteration(&plan, &mut clean, 0, 0);
        let schedules = schedules_from_trace(&trace);
        assert_eq!(schedules, schedules_from_trace(&clean));
        let params = replay_schedules(&plan, &schedules);
        assert!(!params.is_empty());
    }

    #[test]
    fn matching_params_pass_the_check() {
        let reference = vec![1u8, 2, 3, 4];
        assert!(check_params(5, &reference.clone(), &reference).is_ok());
    }

    #[test]
    fn one_flipped_byte_is_invalid_data_naming_the_worker() {
        let reference = vec![1u8, 2, 3, 4];
        let mut bytes = reference.clone();
        bytes[2] ^= 0x01;
        let err = check_params(5, &bytes, &reference).expect_err("diverged params");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("worker 5"), "{err}");
    }

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
        let (report, trace, params) =
            run_virtual_with(&config, &scenario, &mut ChanTransport, pass())
                .expect("live run succeeds");
        assert_eq!(sim.1.events(), trace.events(), "traces must match");
        assert_eq!(
            sim.0.total_time_secs.to_bits(),
            report.total_time_secs.to_bits(),
            "makespans must be bit-identical"
        );
        assert_eq!(sim.0.per_iteration_secs, report.per_iteration_secs);
        assert_eq!(sim.0.counters, report.counters);
        assert!(!params.is_empty());
    }

    #[test]
    fn virtual_tcp_run_is_byte_identical_to_sim() {
        let (config, scenario) = quick_scenario();
        let sim = FelaRuntime::new(config.clone()).run_traced(&scenario);
        let (_, trace, _) =
            run_virtual_with(&config, &scenario, &mut TcpTransport::default(), pass())
                .expect("live run succeeds");
        assert_eq!(sim.1.events(), trace.events(), "traces must match");
    }
}
