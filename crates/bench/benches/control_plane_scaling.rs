//! Control-plane scaling: the production [`ControlPlane`] (the `Coordinator`)
//! against the reference single-loop [`TokenServer`] from `fela-check`, at 8
//! to 8192 simulated workers.
//!
//! Each measurement drives one full BSP iteration of grant/report/sync traffic
//! through the plane — every `request` walks the distribution pick path, every
//! `report` maintains the steal indices — so the number is the pure
//! control-plane cost per iteration with no compute or network model attached.
//! The batch grows with the worker count (`max(1024, W)`) so every worker has
//! level-0 tokens to pull; the schedules produced by both are byte-identical
//! (proved in `tests/tests/conformance.rs`), making this a like-for-like cost
//! comparison. The plane rows are what every run pays; the oracle rows are
//! the cost of the implementation it replaced.
//!
//! Building the plane is timed on its own (`control/plane_new_{W}`), and
//! every timed closure returns what it built, so dropping it falls outside
//! the timed region. `control/plane_live_w16_1000iters` is the control plane
//! of the `live-chan-w16` benchmark workload (AlexNet, batch 256, 16 workers,
//! staleness 8, 16 tokens per pull) driven through [`ServerCore`] for its
//! 1000 iterations: a long run, where the token table holds tens of
//! thousands of ids.
//!
//! Run with `FELA_BENCH_DIR=<dir>` to emit `BENCH_control_plane_scaling.json`;
//! `FELA_BENCH_QUICK=1` shortens the measurement for CI smoke runs.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use fela_check::TokenServer;
use fela_cluster::{ClusterSpec, Scenario};
use fela_core::{
    ControlPlane, FelaConfig, FelaRuntime, LevelMeta, OpTarget, Outbound, ServerCore, TokenId,
    TokenPlan,
};
use fela_model::{bin_partition, zoo, PartitionOptions, ThresholdProfile};
use fela_sim::SimTime;

/// Worker counts where the oracle is measured too: the sizes the paper's
/// figures and the end-to-end benchmark run at, then up to 1024. The
/// oracle's per-grant steal scan is O(workers), so one iteration already
/// costs seconds at 1024 and minutes at 4096 — not something a bench run
/// should sit through.
const PAIRED_WORKER_COUNTS: [usize; 6] = [8, 16, 48, 64, 256, 1024];
/// Worker counts measured for the coordinator only, past where the oracle is
/// practical.
const COORDINATOR_ONLY_WORKER_COUNTS: [usize; 2] = [4096, 8192];

fn inputs(workers: usize) -> (TokenPlan, FelaConfig, Vec<LevelMeta>) {
    let partition = bin_partition(
        &zoo::vgg19(),
        &ThresholdProfile::k40c(),
        PartitionOptions::default(),
    );
    let cfg = FelaConfig::new(3).with_weights(vec![1, 2, 4]);
    let batch = workers.max(1024) as u64;
    let plan = TokenPlan::build(&partition, &cfg, batch, workers).unwrap();
    (plan, cfg, LevelMeta::for_partition(&partition))
}

fn make_plane(workers: usize) -> (ControlPlane, u64) {
    let (plan, cfg, meta) = inputs(workers);
    let total = plan.tokens_per_iteration();
    (
        ControlPlane::new(plan, cfg, meta, workers, 1_000_000),
        total,
    )
}

fn make_oracle(workers: usize) -> (TokenServer, u64) {
    let (plan, cfg, meta) = inputs(workers);
    let total = plan.tokens_per_iteration();
    (TokenServer::new(plan, cfg, meta, workers, 1_000_000), total)
}

/// Grant + report every token of one iteration, exactly like the simulator's
/// control-plane turn: request on idle, report on completion, drain any
/// barrier-released grants.
fn drive_one_iteration(plane: &mut impl OpTarget, workers: usize, total: u64) -> u64 {
    let mut clock = 0u64;
    let mut done = 0u64;
    let mut active = Vec::new();
    for w in 0..workers {
        clock += 100_000;
        if let Some(g) = plane.request(w, SimTime::from_nanos(clock)).unwrap() {
            active.push((w, g));
        }
    }
    while done < total {
        let (w, g) = active.pop().expect("tokens available");
        for s in plane.report(w, g.token.id).unwrap() {
            plane.sync_finished(s.level, s.iteration).unwrap();
        }
        done += 1;
        clock += 100_000;
        if let Some(g2) = plane.request(w, SimTime::from_nanos(clock)).unwrap() {
            active.push((w, g2));
        }
        while let Some(pair) = plane.pop_ready_grant(SimTime::from_nanos(clock)).unwrap() {
            active.push(pair);
        }
    }
    done
}

/// The plane's bench ids: `plane_new_{W}` times construction alone, and the
/// drive keeps its `plane_shards1_*` name, so its rows line up with earlier
/// `BENCH_control_plane_scaling.json` files. Both return the plane, which
/// is dropped outside the timed region.
fn bench_plane(c: &mut Criterion, workers: usize) {
    c.bench_function(&format!("control/plane_new_{workers}"), |b| {
        b.iter_batched(
            || inputs(workers),
            |(plan, cfg, meta)| ControlPlane::new(plan, cfg, meta, workers, 1_000_000),
            BatchSize::SmallInput,
        )
    });
    c.bench_function(&format!("control/plane_shards1_{workers}workers"), |b| {
        b.iter_batched(
            || make_plane(workers),
            |(mut plane, total)| {
                black_box(drive_one_iteration(&mut plane, workers, total));
                plane
            },
            BatchSize::SmallInput,
        )
    });
}

/// The `live-chan-w16` workload's server core: AlexNet at batch 256 on 16
/// K40c nodes for 1000 iterations, as many levels as the default partition
/// gives, SSP staleness 8, 16 tokens per pull, and the completion log the
/// real-clock server keeps.
fn make_live_core() -> ServerCore {
    let mut sc = Scenario::paper(zoo::alexnet(), 256).with_iterations(1000);
    sc.cluster = ClusterSpec::k40c_cluster(16);
    let levels = FelaRuntime::new(FelaConfig::new(1))
        .partition_for(&sc)
        .len();
    let cfg = FelaConfig::new(levels).with_staleness(8);
    let (plane, _) = FelaRuntime::new(cfg).plane_for(&sc).unwrap();
    ServerCore::new(plane, 16).with_completion_log()
}

/// Dispatches the core's queued grants into the workers' hands.
fn dispatch(core: &mut ServerCore, held: &mut [Vec<TokenId>], clock: u64) {
    let deliver = |out: Outbound<'_>| held[out.worker].extend(out.grants.map(|g| g.token.id));
    core.dispatch(SimTime::from_nanos(clock), deliver).unwrap();
}

/// Runs the core to completion the way the real-clock server is driven:
/// every worker pulls, and then, round-robin, each worker with grants in
/// hand reports them as one batch, has its released syncs finished, pulls
/// again, and the core dispatches. Returns the tokens reported.
fn drive_live(core: &mut ServerCore) -> u64 {
    let n = core.plane().n_workers();
    let mut held: Vec<Vec<TokenId>> = vec![Vec::new(); n];
    let mut batch = Vec::new();
    let mut clock = 0u64;
    let mut reported = 0u64;
    for w in 0..n {
        clock += 1_000;
        core.pull(w, SimTime::from_nanos(clock)).unwrap();
    }
    dispatch(core, &mut held, clock);
    while !core.plane().run_complete() {
        let mut progressed = false;
        for w in 0..n {
            if held[w].is_empty() {
                continue;
            }
            progressed = true;
            batch.append(&mut held[w]);
            reported += batch.len() as u64;
            let out = core.report(w, batch.drain(..)).unwrap();
            for s in out.syncs.iter().filter(|s| !s.is_degenerate()) {
                core.sync_finished(s.level, s.iteration).unwrap();
            }
            clock += 1_000;
            core.pull(w, SimTime::from_nanos(clock)).unwrap();
            dispatch(core, &mut held, clock);
        }
        assert!(progressed, "the live drive stalled");
    }
    reported
}

fn bench_control_plane_scaling(c: &mut Criterion) {
    for workers in PAIRED_WORKER_COUNTS {
        c.bench_function(&format!("control/oracle_{workers}workers"), |b| {
            b.iter_batched(
                || make_oracle(workers),
                |(mut oracle, total)| black_box(drive_one_iteration(&mut oracle, workers, total)),
                BatchSize::SmallInput,
            )
        });
        bench_plane(c, workers);
    }
    for workers in COORDINATOR_ONLY_WORKER_COUNTS {
        bench_plane(c, workers);
    }
    c.bench_function("control/plane_live_w16_1000iters", |b| {
        b.iter_batched(
            make_live_core,
            |mut core| {
                black_box(drive_live(&mut core));
                core
            },
            BatchSize::SmallInput,
        )
    });
}

criterion_group!(control_plane_scaling, bench_control_plane_scaling);
criterion_main!(control_plane_scaling);
