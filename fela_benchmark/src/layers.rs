//! `--trace`: per-layer metrics and the attribution table.
//!
//! Every number here is timed in this file, around calls into one layer's
//! public API, in the workload's own configuration (model, cluster, tuned or
//! live config, transport; epoch 0 for the elastic workload). So every
//! workload reports every layer, including layers its timed call does not
//! reach; the attribution table charges a workload only for the layers on
//! its path. End-to-end metrics never come from these runs.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use fela_cluster::{FaultModel, Scenario, TrainingRuntime};
use fela_core::{
    recover, wal_path, ComputeBackend, ComputeRequest, ControlPlane, FelaConfig, FelaRuntime,
    FileWal, LevelMeta, LocalCompute, RecoveryConfig, SyncSpec, TokenPlan,
};
use fela_elastic::IncrementalTuner;
use fela_live::wire::{body_len, decode_frame, encode_frame_into};
use fela_live::{
    pass, plan_for, replay_schedules, run_real_with, run_virtual_with, schedules_from_trace,
    transport_by_name, Endpoint, Frame, Sched, SharedSched, SyncEvent,
};
use fela_net::{run_allreduce_alone, Network, NodeId};
use fela_sim::{EventKind, SimTime, Trace};
use fela_tuning::Tuner;

use crate::stats::{median, quantile};
use crate::workloads::{real_options, without_lock_window, Kind, Prepared, Workload};

/// Every per-layer metric, with its unit, in print order.
pub const PER_LAYER: [(&str, &str); 46] = [
    ("net.allreduce_ms_p50", "ms"),
    ("net.allreduces", "count"),
    ("gpu.span_ns_p50", "ns"),
    ("gpu.spans", "count"),
    ("sim.trace_overhead_pct", "%"),
    ("tuning.cases", "count"),
    ("tuning.profile_ms_p50", "ms"),
    ("core.request_ns_p50", "ns"),
    ("core.request_ns_p99", "ns"),
    ("core.report_ns_p50", "ns"),
    ("core.report_ns_p99", "ns"),
    ("core.drain_ns_p50", "ns"),
    ("core.ops", "count"),
    ("wal.op_us_p50", "us"),
    ("wal.op_us_p99", "us"),
    ("wal.checkpoint_ms_p50", "ms"),
    ("wal.checkpoint_ms_p99", "ms"),
    ("wal.checkpoint_bytes_p50", "bytes"),
    ("wal.bytes_per_token", "bytes/token"),
    ("wal.recover_ms", "ms"),
    ("live.grant_wait_us_p50", "us"),
    ("live.grant_wait_us_p99", "us"),
    ("live.turnaround_us_p50", "us"),
    ("live.turnaround_us_p99", "us"),
    ("live.grants_per_batch", "grants/batch"),
    ("live.frames_per_token", "frames/token"),
    ("live.cost_rpc_us_p50", "us"),
    ("live.cost_rpc_us_p99", "us"),
    ("live.trace_overhead_pct", "%"),
    ("live.wasted_ratio", "fraction"),
    ("wire.encode_grantbatch_ns_p50", "ns"),
    ("wire.decode_grantbatch_ns_p50", "ns"),
    ("wire.encode_reportbatch_ns_p50", "ns"),
    ("wire.decode_reportbatch_ns_p50", "ns"),
    ("wire.bytes_per_token", "bytes/token"),
    ("transport.chan_rtt_us_p50", "us"),
    ("transport.chan_rtt_us_p99", "us"),
    ("transport.tcp_rtt_us_p50", "us"),
    ("transport.tcp_rtt_us_p99", "us"),
    ("transport.tcp_establish_ms_p50", "ms"),
    ("engine.replay_us_per_iter", "us"),
    ("engine.epilogue_share", "fraction"),
    ("elastic.epochs", "count"),
    ("elastic.retune_ms_p50", "ms"),
    ("elastic.retune_ms_p99", "ms"),
    ("elastic.cache_hit_ratio", "fraction"),
];

/// How much each probe runs.
struct Caps {
    /// Iterations of the simulated pass (gpu, sim, net count, engine).
    sim_iters: u64,
    /// Iterations of the in-memory control-plane drive.
    core_iters: u64,
    /// Iterations of the file-WAL drive, and its checkpoint cadence.
    wal_iters: u64,
    checkpoint_every: u64,
    /// Iterations of the real-clock probe of workloads that are not live.
    live_iters: u64,
    /// Iterations of the virtual-clock cost-RPC probe.
    virt_iters: u64,
    /// Untraced repeats that traced runs are compared with.
    reps: usize,
    /// Ping-pongs per transport.
    rtt_reps: usize,
}

const FULL: Caps = Caps {
    sim_iters: 40,
    core_iters: 40,
    wal_iters: 24,
    checkpoint_every: 8,
    live_iters: 200,
    virt_iters: 20,
    reps: 3,
    rtt_reps: 2000,
};

const QUICK: Caps = Caps {
    sim_iters: 3,
    core_iters: 4,
    wal_iters: 4,
    checkpoint_every: 2,
    live_iters: 10,
    virt_iters: 3,
    reps: 1,
    rtt_reps: 50,
};

/// What the untraced timed reps measured, for overheads and shares.
pub struct Untraced {
    pub setup_s: f64,
    pub job_s: f64,
    pub tokens: f64,
    pub wasted_ratio: f64,
}

/// One row of the attribution table.
pub struct Share {
    pub layer: &'static str,
    /// Seconds per operation.
    pub per_op_s: f64,
    /// Operations in one timed call (or one set-up).
    pub count: f64,
    /// `true` when the row is a share of `setup_s`, else of `job_s`.
    pub setup: bool,
}

/// Per-layer metrics by name, and the attribution rows.
pub struct Traced {
    pub metrics: BTreeMap<&'static str, f64>,
    pub shares: Vec<Share>,
}

/// Runs every layer probe for `workload`.
pub fn trace(
    w: &Workload,
    prep: &Prepared,
    base: &Untraced,
    scratch: &std::path::Path,
) -> Result<Traced, String> {
    let caps = if w.quick { &QUICK } else { &FULL };
    let config = prep.config().clone();
    let (scenario, epoch_scenarios) = match prep {
        Prepared::Elastic { plan, .. } => (
            plan.epochs[0].scenario.clone(),
            plan.epochs.iter().map(|e| e.scenario.clone()).collect(),
        ),
        _ => (w.scenario.clone(), vec![w.scenario.clone()]),
    };
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut shares = Vec::new();
    let job = |layer, per_op_s, count| Share {
        layer,
        per_op_s,
        count,
        setup: false,
    };

    // fela-sim / fela-gpu / fela-net count / fela-engine: one simulated pass.
    let sim_sc = capped(&scenario, caps.sim_iters).with_fault(FaultModel::None);
    let runtime = FelaRuntime::new(config.clone());
    let untraced = median(&timed_reps(caps.reps, || {
        runtime.run(&sim_sc);
    }));
    let mut timing = TimingCompute::default();
    let start = Instant::now();
    let (_, sim_trace) = runtime.run_traced_with(&sim_sc, &mut timing);
    let traced = start.elapsed().as_secs_f64();
    m.insert("sim.trace_overhead_pct", pct_slower(traced, untraced));
    m.insert("gpu.span_ns_p50", pct(&timing.span_ns, 0.5));
    m.insert("gpu.spans", timing.span_ns.len() as f64);
    let syncs = sim_trace
        .events()
        .iter()
        .filter(|e| matches!(e.kind, EventKind::SyncStart { .. }))
        .count() as f64;
    m.insert("net.allreduces", syncs);
    let replay_s_per_iter = engine_replay(&config, &sim_sc, &sim_trace)?;
    m.insert("engine.replay_us_per_iter", replay_s_per_iter * 1e6);

    // fela-tuning: the profile of the configuration the workload runs.
    let profile_ms = timed_reps(caps.reps, || {
        Tuner::default().profile(&scenario, &config);
    });
    let profile_ms: Vec<f64> = profile_ms.iter().map(|s| s * 1e3).collect();
    m.insert("tuning.profile_ms_p50", pct(&profile_ms, 0.5));
    let cases = match prep {
        Prepared::Sim { cases, .. } => *cases as f64,
        Prepared::Elastic { plan, .. } => plan
            .epochs
            .iter()
            .map(|e| (e.retune.profiled + e.retune.reused) as f64)
            .sum(),
        Prepared::Live { .. } => 0.0,
    };
    m.insert("tuning.cases", cases);

    // fela-core: the plan driven to completion in memory, every call timed.
    // The lock window is off so that `recover` below replays exactly.
    let mut drive_cfg = without_lock_window(config.clone());
    if !scenario.fault.is_none() {
        drive_cfg = drive_cfg.with_recovery(RecoveryConfig::default());
    }
    let (plan, meta) = plane_inputs(&drive_cfg, &scenario)?;
    let n = scenario.cluster.nodes;
    let core_iters = caps.core_iters.min(scenario.iterations);
    let mut plane = ControlPlane::new(plan.clone(), drive_cfg.clone(), meta.clone(), n, core_iters);
    let core = drive(&mut plane, 0, || 0)?;
    m.insert("core.request_ns_p50", pct(&core.request, 0.5) * 1e9);
    m.insert("core.request_ns_p99", pct(&core.request, 0.99) * 1e9);
    m.insert("core.report_ns_p50", pct(&core.report, 0.5) * 1e9);
    m.insert("core.report_ns_p99", pct(&core.report, 0.99) * 1e9);
    m.insert("core.drain_ns_p50", pct(&core.drain, 0.5) * 1e9);
    m.insert("core.ops", core.ops() as f64);
    let core_s_per_token = core.busy() / core.tokens as f64;

    // fela-net: each level's all-reduce, as the drive's sync specs name it
    // (participants and bytes), run alone on the workload's network.
    let mut allreduce_ms = Vec::new();
    let mut allreduce_s_per_iter = 0.0;
    for spec in core.syncs.values().filter(|s| !s.is_degenerate()) {
        let mut level_ms = Vec::new();
        for _ in 0..caps.reps {
            let mut net = Network::new(scenario.cluster.network);
            let nodes = spec.participants.iter().map(|&w| NodeId(w)).collect();
            let start = Instant::now();
            run_allreduce_alone(&mut net, SimTime::ZERO, nodes, spec.bytes);
            level_ms.push(start.elapsed().as_secs_f64() * 1e3);
        }
        allreduce_s_per_iter += median(&level_ms) / 1e3;
        allreduce_ms.extend(level_ms);
    }
    m.insert("net.allreduce_ms_p50", pct(&allreduce_ms, 0.5));

    // fela-core WAL: the same drive with a file log and periodic checkpoints.
    let wal_dir = scratch.join(format!("{}-trace-wal", w.kind.name()));
    std::fs::create_dir_all(&wal_dir).map_err(|e| e.to_string())?;
    let path = wal_path(&wal_dir);
    let wal_iters = caps.wal_iters.min(scenario.iterations);
    let mut plane = ControlPlane::new(plan.clone(), drive_cfg.clone(), meta.clone(), n, wal_iters);
    plane
        .attach_wal(Box::new(FileWal::create(&path).map_err(|e| e.to_string())?))
        .map_err(|e| e.to_string())?;
    let file_len = || std::fs::metadata(&path).map_or(0, |md| md.len());
    let wal = drive(&mut plane, caps.checkpoint_every, file_len)?;
    let ops_us: Vec<f64> = wal.all().map(|s| s * 1e6).collect();
    m.insert("wal.op_us_p50", pct(&ops_us, 0.5));
    m.insert("wal.op_us_p99", pct(&ops_us, 0.99));
    let ckpt_ms: Vec<f64> = wal.checkpoint.iter().map(|s| s * 1e3).collect();
    m.insert("wal.checkpoint_ms_p50", pct(&ckpt_ms, 0.5));
    m.insert("wal.checkpoint_ms_p99", pct(&ckpt_ms, 0.99));
    m.insert("wal.checkpoint_bytes_p50", pct(&wal.checkpoint_bytes, 0.5));
    let log = std::fs::read(&path).map_err(|e| e.to_string())?;
    m.insert("wal.bytes_per_token", log.len() as f64 / wal.tokens as f64);
    let mut recover_s = Vec::new();
    for _ in 0..caps.reps {
        let start = Instant::now();
        recover(&log, &plan, &drive_cfg, &meta, n, wal_iters).map_err(|e| e.to_string())?;
        recover_s.push(start.elapsed().as_secs_f64());
    }
    m.insert("wal.recover_ms", median(&recover_s) * 1e3);
    let wal_s_per_token = (wal.busy() - wal.checkpoint.iter().sum::<f64>()) / wal.tokens as f64;
    let _ = std::fs::remove_dir_all(&wal_dir);

    // fela-live real clock: the workload's own live call for the live
    // workloads, a capped run of the workload's configuration otherwise.
    let live_sc = match w.kind {
        Kind::LiveChan | Kind::LiveTcpWal => scenario.clone(),
        _ => capped(&scenario, caps.live_iters),
    };
    let real = |sched: SharedSched| {
        let mut transport = transport_by_name(w.kind.transport()).expect("known transport");
        run_real_with(&config, &live_sc, transport.as_mut(), real_options(), sched)
            .map_err(|e| e.to_string())
    };
    let mut untraced_s = Vec::new();
    for _ in 0..caps.reps {
        untraced_s.push(real(pass())?.elapsed_secs);
    }
    let stamps = Arc::new(StampSched::default());
    let out = real(stamps.clone())?;
    let live = stamps.summary();
    m.insert(
        "live.trace_overhead_pct",
        pct_slower(out.elapsed_secs, median(&untraced_s)),
    );
    // Every iteration completes, so the run accepts exactly the plan's tokens.
    let accepted = plan_for(&config, &live_sc)
        .map_err(|e| e.to_string())?
        .tokens_per_iteration()
        * live_sc.iterations;
    m.insert("live.grant_wait_us_p50", pct(&live.grant_wait, 0.5) * 1e6);
    m.insert("live.grant_wait_us_p99", pct(&live.grant_wait, 0.99) * 1e6);
    m.insert("live.turnaround_us_p50", pct(&live.turnaround, 0.5) * 1e6);
    m.insert("live.turnaround_us_p99", pct(&live.turnaround, 0.99) * 1e6);
    let grants_per_batch = live.grants as f64 / live.grant_batches.max(1) as f64;
    m.insert("live.grants_per_batch", grants_per_batch);
    m.insert(
        "live.frames_per_token",
        live.frames as f64 / accepted as f64,
    );
    m.insert("wire.bytes_per_token", live.bytes as f64 / accepted as f64);
    m.insert("live.wasted_ratio", base.wasted_ratio);

    // fela-live virtual clock: every compute span is a CostQuery/CostReply
    // round trip.
    let virt_sc = capped(&scenario, caps.virt_iters).with_fault(FaultModel::None);
    let rpc = Arc::new(StampSched::default());
    let mut transport = transport_by_name(w.kind.transport()).expect("known transport");
    run_virtual_with(&config, &virt_sc, transport.as_mut(), rpc.clone())
        .map_err(|e| e.to_string())?;
    let rpc = rpc.summary();
    m.insert("live.cost_rpc_us_p50", pct(&rpc.cost_rpc, 0.5) * 1e6);
    m.insert("live.cost_rpc_us_p99", pct(&rpc.cost_rpc, 0.99) * 1e6);

    // wire: encode/decode of the frames the traced live run sent.
    let codec = |frames: &[Frame]| -> (f64, f64) {
        let (mut enc, mut dec) = (Vec::new(), Vec::new());
        let mut buf = Vec::new();
        for frame in frames {
            buf.clear();
            let start = Instant::now();
            encode_frame_into(&mut buf, std::hint::black_box(frame));
            enc.push(start.elapsed().as_secs_f64());
            let start = Instant::now();
            let decoded = decode_frame(std::hint::black_box(&buf));
            dec.push(start.elapsed().as_secs_f64());
            assert_eq!(decoded.as_ref(), Ok(frame), "wire round trip");
        }
        (pct(&enc, 0.5) * 1e9, pct(&dec, 0.5) * 1e9)
    };
    let (enc_gb, dec_gb) = codec(&live.grant_frames);
    let (enc_rb, dec_rb) = codec(&live.report_frames);
    m.insert("wire.encode_grantbatch_ns_p50", enc_gb);
    m.insert("wire.decode_grantbatch_ns_p50", dec_gb);
    m.insert("wire.encode_reportbatch_ns_p50", enc_rb);
    m.insert("wire.decode_reportbatch_ns_p50", dec_rb);

    // transport: one captured GrantBatch/ReportBatch pair ping-ponged.
    let (Some(grant), Some(report)) = (live.grant_frames.first(), live.report_frames.first())
    else {
        return Err("the traced live run sent no batches".into());
    };
    let chan = ping_pong("chan", grant, report, caps.rtt_reps)?;
    let tcp = ping_pong("tcp", grant, report, caps.rtt_reps)?;
    m.insert("transport.chan_rtt_us_p50", pct(&chan, 0.5) * 1e6);
    m.insert("transport.chan_rtt_us_p99", pct(&chan, 0.99) * 1e6);
    m.insert("transport.tcp_rtt_us_p50", pct(&tcp, 0.5) * 1e6);
    m.insert("transport.tcp_rtt_us_p99", pct(&tcp, 0.99) * 1e6);
    let mut sizes: Vec<usize> = epoch_scenarios.iter().map(|s| s.cluster.nodes).collect();
    sizes.sort_unstable();
    sizes.dedup();
    let mut establish_ms = Vec::new();
    for _ in 0..caps.reps {
        for &size in &sizes {
            let mut tcp = transport_by_name("tcp").expect("known transport");
            let start = Instant::now();
            let links = tcp.establish(size).map_err(|e| e.to_string())?;
            establish_ms.push(start.elapsed().as_secs_f64() * 1e3);
            drop(links);
        }
    }
    m.insert("transport.tcp_establish_ms_p50", pct(&establish_ms, 0.5));

    // fela-elastic: one incremental tuner across the epochs in order.
    let mut tuner = IncrementalTuner::new(5);
    let (mut profiled, mut reused) = (0, 0);
    let mut retune_ms = Vec::new();
    for sc in &epoch_scenarios {
        let start = Instant::now();
        let (_, stats) = tuner.tune(sc);
        retune_ms.push(start.elapsed().as_secs_f64() * 1e3);
        profiled += stats.profiled;
        reused += stats.reused;
    }
    m.insert("elastic.epochs", epoch_scenarios.len() as f64);
    m.insert("elastic.retune_ms_p50", pct(&retune_ms, 0.5));
    m.insert("elastic.retune_ms_p99", pct(&retune_ms, 0.99));
    m.insert(
        "elastic.cache_hit_ratio",
        reused as f64 / (profiled + reused).max(1) as f64,
    );

    // fela-engine: the replica epilogue the timed call runs (W+1 replays of
    // every iteration per live session; none in the simulator).
    let replays: f64 = match w.kind {
        Kind::Sim => 0.0,
        _ => epoch_scenarios
            .iter()
            .map(|s| ((s.cluster.nodes + 1) as u64 * s.iterations) as f64)
            .sum(),
    };
    m.insert(
        "engine.epilogue_share",
        replays * replay_s_per_iter / base.job_s,
    );

    // Attribution: per-op cost × count in one timed call.
    let iterations = w.scenario.iterations as f64;
    let tokens = base.tokens;
    let batches = tokens / grants_per_batch;
    let own_rtt = if w.kind.transport() == "tcp" {
        &tcp
    } else {
        &chan
    };
    match w.kind {
        Kind::Sim => {
            shares.push(job(
                "fela-net all-reduces, per iteration",
                allreduce_s_per_iter,
                iterations,
            ));
            shares.push(job(
                "fela-gpu span pricing",
                pct(&timing.span_ns, 0.5) / 1e9,
                timing.span_ns.len() as f64,
            ));
            shares.push(job("fela-core control plane", core_s_per_token, tokens));
            shares.push(Share {
                layer: "fela-tuning profile",
                per_op_s: pct(&profile_ms, 0.5) / 1e3,
                count: cases,
                setup: true,
            });
        }
        Kind::LiveChan | Kind::LiveTcpWal => {
            shares.push(job("fela-core control plane", core_s_per_token, tokens));
            shares.push(job(
                "wire codec",
                (enc_gb + dec_gb + enc_rb + dec_rb) / 1e9,
                batches,
            ));
            shares.push(job("transport round trip", pct(own_rtt, 0.5), batches));
            shares.push(job("fela-engine epilogue", replay_s_per_iter, replays));
            if w.kind == Kind::LiveTcpWal {
                shares.push(job("fela-core WAL append+fsync", wal_s_per_token, tokens));
                shares.push(job("fela-core WAL recovery", median(&recover_s), 1.0));
            }
        }
        Kind::Elastic => {
            shares.push(job(
                "fela-elastic re-plan in run_live_elastic",
                base.setup_s,
                1.0,
            ));
            shares.push(job("fela-live cost RPC", pct(&rpc.cost_rpc, 0.5), tokens));
            shares.push(job(
                "transport TCP establish",
                pct(&establish_ms, 0.5) / 1e3,
                epoch_scenarios.len() as f64,
            ));
            shares.push(job("fela-engine epilogue", replay_s_per_iter, replays));
            shares.push(job(
                "fela-net all-reduces, per iteration",
                allreduce_s_per_iter,
                iterations,
            ));
            shares.push(job("fela-core control plane", core_s_per_token, tokens));
            shares.push(Share {
                layer: "fela-elastic incremental re-tune",
                per_op_s: retune_ms.iter().sum::<f64>() / 1e3,
                count: 1.0,
                setup: true,
            });
        }
    }
    Ok(Traced { metrics: m, shares })
}

/// `sc` with at most `iterations` iterations.
fn capped(sc: &Scenario, iterations: u64) -> Scenario {
    sc.clone().with_iterations(iterations.min(sc.iterations))
}

/// Seconds of each of `reps` calls.
fn timed_reps(reps: usize, mut f: impl FnMut()) -> Vec<f64> {
    (0..reps)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .collect()
}

/// A percentile that reads 0 when there are no samples.
fn pct(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        quantile(samples, q)
    }
}

/// How much slower `slow` is than `fast`, in percent.
fn pct_slower(slow: f64, fast: f64) -> f64 {
    (slow / fast - 1.0) * 100.0
}

/// The token plan and level metadata the runtimes build for `config`.
fn plane_inputs(config: &FelaConfig, sc: &Scenario) -> Result<(TokenPlan, Vec<LevelMeta>), String> {
    let partition = FelaRuntime::new(config.clone()).partition_for(sc);
    let plan = TokenPlan::build(&partition, config, sc.total_batch, sc.cluster.nodes)
        .map_err(|e| e.to_string())?;
    let meta = partition
        .sub_models()
        .iter()
        .map(|s| LevelMeta {
            param_bytes: s.param_bytes,
            output_bytes_per_sample: s.output_bytes_per_sample,
            input_bytes_per_sample: s.input_bytes_per_sample,
            comm_intensive: s.comm_intensive,
        })
        .collect();
    Ok((plan, meta))
}

/// Seconds per iteration of one engine replay of `trace`'s schedules.
fn engine_replay(config: &FelaConfig, sc: &Scenario, trace: &Trace) -> Result<f64, String> {
    let plan = plan_for(config, sc).map_err(|e| e.to_string())?;
    let schedules = schedules_from_trace(trace);
    let start = Instant::now();
    std::hint::black_box(replay_schedules(&plan, &schedules));
    Ok(start.elapsed().as_secs_f64() / schedules.len().max(1) as f64)
}

/// Per-call seconds of one control-plane drive.
#[derive(Default)]
struct Drive {
    request: Vec<f64>,
    report: Vec<f64>,
    drain: Vec<f64>,
    sync: Vec<f64>,
    checkpoint: Vec<f64>,
    checkpoint_bytes: Vec<f64>,
    tokens: u64,
    /// The first sync of each level.
    syncs: BTreeMap<usize, SyncSpec>,
}

impl Drive {
    fn all(&self) -> impl Iterator<Item = f64> + '_ {
        [&self.request, &self.report, &self.drain, &self.sync]
            .into_iter()
            .flatten()
            .copied()
    }

    fn ops(&self) -> usize {
        self.all().count()
    }

    fn busy(&self) -> f64 {
        self.all().sum::<f64>() + self.checkpoint.iter().sum::<f64>()
    }
}

fn timed<T>(samples: &mut Vec<f64>, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    samples.push(start.elapsed().as_secs_f64());
    out
}

/// Grants, reports and syncs every token until the plane's run completes —
/// the traffic a runtime generates, minus compute and network — timing every
/// call. With `checkpoint_every > 0` the plane's WAL is checkpointed whenever
/// the completed-iteration count crosses a multiple of it, and `log_len`
/// measures each checkpoint's bytes.
fn drive(
    plane: &mut ControlPlane,
    checkpoint_every: u64,
    log_len: impl Fn() -> u64,
) -> Result<Drive, String> {
    let err = |e: fela_core::ScheduleError| e.to_string();
    let n = plane.n_workers();
    let mut d = Drive::default();
    let mut clock = 0u64;
    let mut last_checkpoint = 0u64;
    let settle = |plane: &mut ControlPlane, d: &mut Drive, worker, token| -> Result<(), String> {
        let syncs = timed(&mut d.report, || plane.report(worker, token)).map_err(err)?;
        d.tokens += 1;
        for s in syncs {
            timed(&mut d.sync, || plane.sync_finished(s.level, s.iteration)).map_err(err)?;
            d.syncs.entry(s.level).or_insert(s);
        }
        Ok(())
    };
    while !plane.run_complete() {
        let mut progressed = false;
        for w in 0..n {
            clock += 100_000;
            let now = SimTime::from_nanos(clock);
            while let Some(g) = timed(&mut d.request, || plane.request(w, now)).map_err(err)? {
                settle(plane, &mut d, w, g.token.id)?;
                progressed = true;
            }
        }
        clock += 100_000;
        let now = SimTime::from_nanos(clock);
        while let Some((w, g)) = timed(&mut d.drain, || plane.pop_ready_grant(now)).map_err(err)? {
            settle(plane, &mut d, w, g.token.id)?;
            progressed = true;
        }
        let done = plane.completed_iterations();
        if done.checked_div(checkpoint_every) > last_checkpoint.checked_div(checkpoint_every) {
            let before = log_len();
            timed(&mut d.checkpoint, || plane.checkpoint_wal(&[])).map_err(|e| e.to_string())?;
            d.checkpoint_bytes
                .push(log_len().saturating_sub(before) as f64);
            last_checkpoint = done;
        }
        if !progressed {
            return Err("control-plane drive stalled".into());
        }
    }
    Ok(d)
}

/// [`LocalCompute`] with every span pricing timed.
#[derive(Default)]
struct TimingCompute {
    span_ns: Vec<f64>,
}

impl ComputeBackend for TimingCompute {
    fn compute_secs(&mut self, scenario: &Scenario, req: &ComputeRequest) -> f64 {
        let start = Instant::now();
        let secs = LocalCompute.compute_secs(scenario, req);
        self.span_ns.push(start.elapsed().as_nanos() as f64);
        secs
    }
}

/// Seconds of each of `reps` round trips of `grant` out and `report` back
/// over one link of `transport`, answered by one echo thread.
fn ping_pong(
    transport: &str,
    grant: &Frame,
    report: &Frame,
    reps: usize,
) -> Result<Vec<f64>, String> {
    let err = |e: std::io::Error| e.to_string();
    let mut t = transport_by_name(transport).expect("known transport");
    let (servers, workers) = t.establish(1).map_err(err)?;
    let (Some(server), Some(mut worker)) = (servers.into_iter().next(), workers.into_iter().next())
    else {
        return Err("establish(1) returned no link".into());
    };
    let (mut tx, mut rx) = server.split();
    std::thread::scope(|s| {
        let echo = s.spawn(move || {
            while worker.recv().is_ok() {
                if worker.send(report).is_err() {
                    break;
                }
            }
        });
        let mut rtt = Vec::with_capacity(reps);
        let mut result = Ok(());
        for _ in 0..reps {
            let start = Instant::now();
            if let Err(e) = tx.send(grant).and_then(|()| rx.recv().map(drop)) {
                result = Err(err(e));
                break;
            }
            rtt.push(start.elapsed().as_secs_f64());
        }
        tx.close();
        drop(rx);
        echo.join()
            .map_err(|_| "echo thread panicked".to_string())?;
        result.map(|()| rtt)
    })
}

const WORKER_SENT_REPORTS: u8 = 0;
const WORKER_GOT_GRANTS: u8 = 1;
const SERVER_DEQUEUED: u8 = 2;
const SERVER_SENT_GRANTS: u8 = 3;
const SERVER_SENT_QUERY: u8 = 4;
const SERVER_GOT_REPLY: u8 = 5;

/// Frames of each batch kind kept for the wire and transport probes.
const KEEP_FRAMES: usize = 1000;

/// A [`Sched`] that timestamps the sync points the live metrics need as
/// compact `(Instant, kind, worker)` tuples, counts every frame sent, and
/// keeps the first [`KEEP_FRAMES`] batches of each kind.
#[derive(Default)]
struct StampSched {
    stamps: Mutex<Vec<(Instant, u8, u32)>>,
    grant_frames: Mutex<Vec<Frame>>,
    report_frames: Mutex<Vec<Frame>>,
    frames: AtomicU64,
    bytes: AtomicU64,
    grants: AtomicU64,
    grant_batches: AtomicU64,
}

/// What a [`StampSched`] saw, as samples in seconds.
struct LiveSummary {
    grant_wait: Vec<f64>,
    turnaround: Vec<f64>,
    cost_rpc: Vec<f64>,
    grant_frames: Vec<Frame>,
    report_frames: Vec<Frame>,
    frames: u64,
    bytes: u64,
    grants: u64,
    grant_batches: u64,
}

fn keep(frames: &Mutex<Vec<Frame>>, frame: &Frame) {
    let mut frames = frames.lock().expect("no stamp holder panics");
    if frames.len() < KEEP_FRAMES {
        frames.push(frame.clone());
    }
}

impl Sched for StampSched {
    fn reached(&self, event: &SyncEvent) {
        let now = Instant::now();
        let stamp = match event {
            SyncEvent::FrameSent {
                side,
                worker,
                frame,
            } => {
                self.frames.fetch_add(1, Ordering::Relaxed);
                self.bytes
                    .fetch_add(4 + body_len(frame) as u64, Ordering::Relaxed);
                match (side, frame) {
                    (Endpoint::Worker, Frame::ReportBatch { .. }) => {
                        keep(&self.report_frames, frame);
                        Some((WORKER_SENT_REPORTS, *worker))
                    }
                    (Endpoint::Server, Frame::GrantBatch { grants }) => {
                        keep(&self.grant_frames, frame);
                        self.grants
                            .fetch_add(grants.len() as u64, Ordering::Relaxed);
                        self.grant_batches.fetch_add(1, Ordering::Relaxed);
                        Some((SERVER_SENT_GRANTS, *worker))
                    }
                    (Endpoint::Server, Frame::CostQuery { .. }) => {
                        Some((SERVER_SENT_QUERY, *worker))
                    }
                    _ => None,
                }
            }
            SyncEvent::FrameReceived {
                side,
                worker,
                frame,
            } => match (side, frame) {
                (Endpoint::Worker, Frame::GrantBatch { .. }) => Some((WORKER_GOT_GRANTS, *worker)),
                (Endpoint::Server, Frame::CostReply { .. }) => Some((SERVER_GOT_REPLY, *worker)),
                _ => None,
            },
            SyncEvent::InboxDequeued {
                worker,
                frame: Some(_),
            } => Some((SERVER_DEQUEUED, *worker)),
            _ => None,
        };
        if let Some((kind, worker)) = stamp {
            let mut stamps = self.stamps.lock().expect("no stamp holder panics");
            stamps.push((now, kind, worker as u32));
        }
    }
}

impl StampSched {
    /// Pairs each worker's start stamps with its next end stamp.
    fn summary(&self) -> LiveSummary {
        let stamps = std::mem::take(&mut *self.stamps.lock().expect("no stamp holder panics"));
        let pairs = |from: u8, to: u8| {
            let mut open: BTreeMap<u32, Instant> = BTreeMap::new();
            let mut out = Vec::new();
            for &(at, kind, worker) in &stamps {
                if kind == from {
                    open.insert(worker, at);
                } else if kind == to {
                    if let Some(start) = open.remove(&worker) {
                        out.push(at.saturating_duration_since(start).as_secs_f64());
                    }
                }
            }
            out
        };
        let take =
            |m: &Mutex<Vec<Frame>>| std::mem::take(&mut *m.lock().expect("no stamp holder panics"));
        LiveSummary {
            grant_wait: pairs(WORKER_SENT_REPORTS, WORKER_GOT_GRANTS),
            turnaround: pairs(SERVER_DEQUEUED, SERVER_SENT_GRANTS),
            cost_rpc: pairs(SERVER_SENT_QUERY, SERVER_GOT_REPLY),
            grant_frames: take(&self.grant_frames),
            report_frames: take(&self.report_frames),
            frames: self.frames.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            grants: self.grants.load(Ordering::Relaxed),
            grant_batches: self.grant_batches.load(Ordering::Relaxed),
        }
    }
}
