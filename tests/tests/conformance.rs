//! Conformance suite: the production [`Coordinator`] is proved against
//! `fela-check`'s reference [`TokenServer`] oracle.
//!
//! Three layers of evidence, mirroring how `IncrementalMaxMin` was proved
//! against `max_min_rates`:
//!
//! 1. **Lockstep churn** — both planes consume an identical random operation
//!    stream (requests, reports, syncs, crashes, restarts, lease expiries)
//!    across the policy matrix; every grant, sync spec, error, the final
//!    [`ServerSnapshot`] and every token of the token table must compare
//!    bit-for-bit. A long pipelined run at 16 workers does the same over a
//!    table of thousands of token ids.
//! 2. **Full-run identity** — each complete simulated run on a zoo scenario
//!    (including a faulted one) writes a write-ahead log that replays op for
//!    op through the oracle, and its trace passes `fela-check`'s race and
//!    recovery verifiers.
//! 3. **Snapshot round-trips** — snapshot → restore → snapshot is
//!    bit-identical on both planes, and a restored plane *continues*
//!    identically to the original under the same suffix of operations.

use std::collections::BTreeMap;

use fela_check::TokenServer;
use fela_cluster::{FaultModel, Scenario};
use fela_core::{
    wal_path, ControlPlane, Coordinator, DurabilityOptions, FelaConfig, FelaRuntime, LevelMeta,
    RecoveryConfig, Token, TokenId, TokenPlan,
};
use fela_model::{bin_partition, zoo, PartitionOptions, ThresholdProfile};
use fela_sim::{SimDuration, SimTime};
use proptest::prelude::*;

const N_WORKERS: usize = 8;
const BATCH: u64 = 128;
const ITERATIONS: u64 = 4;

/// vgg19/k40c partition: 3 sub-models, the testbed of the policy tests.
fn vgg_inputs(cfg: &FelaConfig) -> (TokenPlan, Vec<LevelMeta>) {
    let p = bin_partition(
        &zoo::vgg19(),
        &ThresholdProfile::k40c(),
        PartitionOptions::default(),
    );
    let plan = TokenPlan::build(&p, cfg, BATCH, N_WORKERS).expect("plan must be feasible");
    (plan, LevelMeta::for_partition(&p))
}

fn build_cfg(hf: bool, ads: bool, ctd: bool, recovery: bool) -> FelaConfig {
    let mut cfg = FelaConfig::new(3)
        .with_weights(vec![1, 2, 4])
        .with_ads(ads)
        .with_hf(hf);
    if ctd {
        cfg = cfg.with_ctd(4);
    }
    if recovery {
        cfg = cfg.with_recovery(RecoveryConfig::default());
    }
    cfg
}

/// The oracle's token table in id order: the row form the coordinator
/// keeps, so the two compare token for token (id, level, iteration, seq,
/// batch, deps and sample owner).
fn token_rows(oracle: &TokenServer) -> Vec<Token> {
    oracle.tokens().values().cloned().collect()
}

/// Driver bookkeeping shared by both planes of a lockstep pair. Updated from
/// the first plane's results (the second must match bit-for-bit anyway).
struct Churn {
    /// Granted-but-unreported tokens: `(worker, token, attempt at grant)`.
    /// Entries can go stale after a revocation — both planes must then reject
    /// the report identically.
    outstanding: Vec<(usize, TokenId, u64)>,
    /// Emitted-but-unfinished syncs: `(level, iteration)`.
    syncs: Vec<(usize, u64)>,
    clock: u64,
    /// Per-op result log (grant essence excludes the timing-only conflict
    /// flag) — lets a restored pair's continuation be compared to the
    /// original's.
    log: Vec<String>,
}

impl Churn {
    fn new() -> Self {
        Churn {
            outstanding: Vec::new(),
            syncs: Vec::new(),
            clock: 0,
            log: Vec::new(),
        }
    }
}

/// One lockstep operation applied to two planes (any mix of `TokenServer` /
/// `Coordinator` — the calls are spelled alike, so a macro covers all
/// pairings).
/// Asserts bit-equality of results and updates the shared driver state.
macro_rules! lockstep_op {
    ($a:expr, $b:expr, $st:expr, $action:expr, $pick:expr, $dt:expr) => {{
        $st.clock += $dt;
        let now = SimTime::from_nanos($st.clock);
        match $action % 6 {
            0 => {
                // Token request from a (possibly ineligible) worker.
                let w = $pick % N_WORKERS;
                let ra = $a.request(w, now);
                let rb = $b.request(w, now);
                assert_eq!(format!("{ra:?}"), format!("{rb:?}"), "request({w})");
                if let Ok(Some(g)) = &ra {
                    $st.outstanding.push((w, g.token.id, g.attempt));
                    $st.log.push(format!(
                        "req {w} {:?} {:?} {}",
                        g.token.id, g.fetches, g.attempt
                    ));
                } else {
                    $st.log.push(format!("req {w} none"));
                }
            }
            1 => {
                // Report an outstanding (possibly revoked → stale) grant.
                if !$st.outstanding.is_empty() {
                    let (w, t, _) = $st.outstanding.remove($pick % $st.outstanding.len());
                    let ra = $a.report(w, t);
                    let rb = $b.report(w, t);
                    assert_eq!(ra, rb, "report({w}, {t:?})");
                    if let Ok(specs) = &ra {
                        for s in specs {
                            $st.syncs.push((s.level, s.iteration));
                        }
                    }
                    $st.log.push(format!("rep {w} {t:?} {ra:?}"));
                }
            }
            2 => {
                // Finish an emitted sync barrier.
                if !$st.syncs.is_empty() {
                    let (level, iteration) = $st.syncs.remove($pick % $st.syncs.len());
                    let ra = $a.sync_finished(level, iteration);
                    let rb = $b.sync_finished(level, iteration);
                    assert_eq!(ra, rb, "sync_finished({level}, {iteration})");
                    $st.log.push(format!("sync {level} {iteration} {ra:?}"));
                }
            }
            3 => {
                // Toggle liveness: crash if alive, restart if dead.
                let w = $pick % N_WORKERS;
                if $a.is_alive(w) {
                    let ra = $a.worker_crashed(w);
                    let rb = $b.worker_crashed(w);
                    assert_eq!(ra, rb, "worker_crashed({w})");
                    $st.log.push(format!("crash {w} {ra:?}"));
                } else {
                    let ra = $a.worker_restarted(w);
                    let rb = $b.worker_restarted(w);
                    assert_eq!(ra, rb, "worker_restarted({w})");
                    $st.log.push(format!("restart {w} {ra:?}"));
                }
            }
            4 => {
                // Expire an outstanding lease (no-op stale timer without
                // recovery, or after the lease already moved on).
                if !$st.outstanding.is_empty() {
                    let (_, t, attempt) = $st.outstanding[$pick % $st.outstanding.len()];
                    let ra = $a.lease_expired(t, attempt);
                    let rb = $b.lease_expired(t, attempt);
                    assert_eq!(ra, rb, "lease_expired({t:?}, {attempt})");
                    $st.log.push(format!("expire {t:?} {ra:?}"));
                }
            }
            _ => {
                // Serve the waiting queue.
                let ra = $a.pop_ready_grant(now);
                let rb = $b.pop_ready_grant(now);
                assert_eq!(format!("{ra:?}"), format!("{rb:?}"), "pop_ready_grant");
                if let Ok(Some((w, g))) = &ra {
                    $st.outstanding.push((*w, g.token.id, g.attempt));
                    $st.log.push(format!(
                        "pop {w} {:?} {:?} {}",
                        g.token.id, g.fetches, g.attempt
                    ));
                } else {
                    $st.log.push("pop none".to_string());
                }
            }
        }
    }};
}

proptest! {
    /// Oracle vs coordinator under random churn across the policy matrix:
    /// every grant, sync, error, liveness transition and the final snapshot
    /// must be bit-identical.
    #[test]
    fn coordinator_matches_oracle_under_churn(
        hf in 0u8..2,
        ads in 0u8..2,
        ctd in 0u8..2,
        recovery in 0u8..2,
        ops in prop::collection::vec(
            (0u8..6, 0usize..64, 1u64..20_000_000),
            1..120,
        ),
    ) {
        let cfg = build_cfg(hf == 1, ads == 1, ctd == 1, recovery == 1);
        let (plan, meta) = vgg_inputs(&cfg);
        let mut oracle =
            TokenServer::new(plan.clone(), cfg.clone(), meta.clone(), N_WORKERS, ITERATIONS);
        let mut coord = Coordinator::new(plan, cfg, meta, N_WORKERS, ITERATIONS);
        let mut st = Churn::new();
        for &(action, pick, dt) in &ops {
            lockstep_op!(oracle, coord, st, action, pick, dt);
        }
        prop_assert_eq!(oracle.snapshot(), coord.snapshot());
        prop_assert_eq!(token_rows(&oracle), coord.tokens());
        prop_assert_eq!(
            format!("{:?}", oracle.stats()),
            format!("{:?}", coord.stats())
        );
        prop_assert_eq!(oracle.trained_per_worker(), coord.trained_per_worker());
        prop_assert_eq!(
            oracle.completed_iterations(),
            coord.completed_iterations()
        );
    }

    /// Snapshot → restore → snapshot round-trips bit-identically on *both*
    /// planes, and the restored pair continues exactly like the original under
    /// the same operation suffix. Steps here outlast the lock window; the
    /// next test restores inside it.
    #[test]
    fn snapshot_round_trips_and_continues_identically(
        hf in 0u8..2,
        recovery in 0u8..2,
        prefix in prop::collection::vec((0u8..6, 0usize..64), 1..60),
        suffix in prop::collection::vec((0u8..6, 0usize..64), 1..40),
    ) {
        let cfg = build_cfg(hf == 1, true, false, recovery == 1);
        let (plan, meta) = vgg_inputs(&cfg);
        let mut oracle =
            TokenServer::new(plan.clone(), cfg.clone(), meta.clone(), N_WORKERS, ITERATIONS);
        let mut coord =
            Coordinator::new(plan.clone(), cfg.clone(), meta.clone(), N_WORKERS, ITERATIONS);
        // Steps outlast the 5 ms lock window, so no grant conflicts.
        const DT: u64 = 10_000_000;
        let mut st = Churn::new();
        for &(action, pick) in &prefix {
            lockstep_op!(oracle, coord, st, action, pick, DT);
        }
        let snap = oracle.snapshot();
        prop_assert_eq!(&snap, &coord.snapshot());
        prop_assert_eq!(token_rows(&oracle), coord.tokens());

        let mut restored_oracle = TokenServer::restore(
            plan.clone(),
            cfg.clone(),
            meta.clone(),
            N_WORKERS,
            ITERATIONS,
            oracle.tokens().clone(),
            &snap,
        )
        .expect("oracle restore");
        prop_assert_eq!(&restored_oracle.snapshot(), &snap, "oracle round-trip");
        let mut restored_coord = Coordinator::restore(
            plan,
            cfg,
            meta,
            N_WORKERS,
            ITERATIONS,
            coord.tokens().to_vec(),
            &snap,
        )
        .expect("coordinator restore");
        prop_assert_eq!(&restored_coord.snapshot(), &snap, "coordinator round-trip");
        prop_assert_eq!(restored_coord.tokens(), coord.tokens(), "token table round-trip");

        // Continuation: the restored pair must replay the original pair's
        // future behaviour op for op.
        let mut orig = Churn::new();
        orig.clock = st.clock;
        let mut rest = Churn::new();
        rest.clock = st.clock;
        for &(action, pick) in &suffix {
            lockstep_op!(oracle, coord, orig, action, pick, DT);
            lockstep_op!(restored_oracle, restored_coord, rest, action, pick, DT);
        }
        prop_assert_eq!(&orig.log, &rest.log, "restored continuation diverged");
        prop_assert_eq!(oracle.snapshot(), restored_oracle.snapshot());
        prop_assert_eq!(coord.snapshot(), restored_coord.snapshot());
        prop_assert_eq!(token_rows(&oracle), coord.tokens());
        prop_assert_eq!(token_rows(&restored_oracle), restored_coord.tokens());
    }

    /// A checkpoint taken while a lock window is open restores a plane that
    /// is indistinguishable from the one that kept running: steps shorter
    /// than the 5 ms window make contended grants conflict on both sides of
    /// the snapshot, leases and worker crashes churn the ledger, and every
    /// outcome (conflict flags included), `ServerStats` and
    /// `trained_per_worker` must match the uninterrupted plane.
    #[test]
    fn restore_inside_the_lock_window_continues_identically(
        hf in 0u8..2,
        prefix in prop::collection::vec((0u8..6, 0usize..64, 0u64..8_000_000), 1..80),
        suffix in prop::collection::vec((0u8..6, 0usize..64, 0u64..8_000_000), 1..60),
    ) {
        let cfg = build_cfg(hf == 1, true, false, true);
        prop_assert!(cfg.lock_window > SimDuration::ZERO);
        let (plan, meta) = vgg_inputs(&cfg);
        let mut oracle =
            TokenServer::new(plan.clone(), cfg.clone(), meta.clone(), N_WORKERS, ITERATIONS);
        let mut coord =
            Coordinator::new(plan.clone(), cfg.clone(), meta.clone(), N_WORKERS, ITERATIONS);
        let mut st = Churn::new();
        for &(action, pick, dt) in &prefix {
            lockstep_op!(oracle, coord, st, action, pick, dt);
        }
        let snap = coord.snapshot();
        let mut restored_oracle = TokenServer::restore(
            plan.clone(),
            cfg.clone(),
            meta.clone(),
            N_WORKERS,
            ITERATIONS,
            oracle.tokens().clone(),
            &snap,
        )
        .expect("oracle restore");
        let mut restored = Coordinator::restore(
            plan,
            cfg,
            meta,
            N_WORKERS,
            ITERATIONS,
            coord.tokens().to_vec(),
            &snap,
        )
        .expect("coordinator restore");
        // The macro compares every result in full, conflict flag included:
        // original against restored, on both planes.
        let mut plane_st = Churn::new();
        plane_st.clock = st.clock;
        plane_st.outstanding = st.outstanding.clone();
        plane_st.syncs = st.syncs.clone();
        let mut oracle_st = Churn::new();
        oracle_st.clock = st.clock;
        oracle_st.outstanding = st.outstanding;
        oracle_st.syncs = st.syncs;
        for &(action, pick, dt) in &suffix {
            lockstep_op!(coord, restored, plane_st, action, pick, dt);
            lockstep_op!(oracle, restored_oracle, oracle_st, action, pick, dt);
        }
        prop_assert_eq!(coord.stats(), restored.stats());
        prop_assert_eq!(coord.trained_per_worker(), restored.trained_per_worker());
        prop_assert_eq!(coord.snapshot(), restored.snapshot());
        prop_assert_eq!(oracle.stats(), restored_oracle.stats());
        prop_assert_eq!(oracle.trained_per_worker(), restored_oracle.trained_per_worker());
        prop_assert_eq!(oracle.snapshot(), restored_oracle.snapshot());
    }
}

/// The zoo configurations of the full-run checks, one of them faulted
/// (crash + restart mid-run).
fn conformance_scenarios() -> Vec<(&'static str, FelaConfig, Scenario)> {
    let fault = FaultModel::Scripted {
        worker: 2,
        iteration: 1,
        kind: fela_cluster::FaultKind::CrashRestart {
            down: SimDuration::from_secs(2),
        },
    };
    vec![
        (
            "vgg19",
            FelaConfig::new(3).with_weights(vec![1, 2, 4]),
            Scenario::paper(zoo::vgg19(), 128).with_iterations(3),
        ),
        (
            "googlenet-ctd",
            FelaConfig::new(3).with_weights(vec![1, 2, 4]).with_ctd(4),
            Scenario::paper(zoo::googlenet(), 256).with_iterations(3),
        ),
        (
            "vgg19-faulted",
            FelaConfig::new(3).with_weights(vec![1, 2, 4]),
            Scenario::paper(zoo::vgg19(), 256)
                .with_iterations(4)
                .with_fault(fault),
        ),
    ]
}

/// Each run writes its write-ahead log, which the reference oracle replays
/// op for op: every grant, report outcome, sync, crash and lease expiry the
/// coordinator decided, and every per-iteration checkpoint snapshot, must be
/// the oracle's too — on every conformance scenario, including the faulted
/// one.
#[test]
fn full_runs_are_byte_identical_to_oracle() {
    let scratch = std::env::temp_dir().join(format!("fela-conformance-{}", std::process::id()));
    for (name, mut cfg, sc) in conformance_scenarios() {
        let wal_dir = scratch.join(name);
        let durability = DurabilityOptions {
            wal_dir: Some(wal_dir.clone()),
            checkpoint_every: 1,
        };
        FelaRuntime::new(cfg.clone())
            .with_durability(durability)
            .run_traced(&sc);
        // The runtime turns recovery on for faulted scenarios; the oracle
        // must replay under the configuration the log was written with.
        if !sc.fault.is_none() && cfg.recovery.is_none() {
            cfg.recovery = Some(RecoveryConfig::default());
        }
        let partition = FelaRuntime::new(cfg.clone()).partition_for(&sc);
        let plan = TokenPlan::build(&partition, &cfg, sc.total_batch, sc.cluster.nodes)
            .expect("plan must be feasible");
        let log = std::fs::read(wal_path(&wal_dir)).expect("the run wrote its log");
        let summary = fela_check::check_wal(
            &log,
            &plan,
            &cfg,
            &LevelMeta::for_partition(&partition),
            sc.cluster.nodes,
            sc.iterations,
            None,
        )
        .unwrap_or_else(|v| panic!("{name}: oracle replay: {v:?}"));
        assert!(
            summary.ops > 0 && summary.checkpoints > 0,
            "{name}: {summary:?}"
        );
    }
    let _ = std::fs::remove_dir_all(&scratch);
}

/// The race detector and the recovery verifier accept the coordinator's
/// traces on every conformance scenario, including the faulted one.
#[test]
fn fela_check_accepts_the_coordinator_traces() {
    for (name, cfg, sc) in conformance_scenarios() {
        let staleness = cfg.staleness;
        let (_, trace) = FelaRuntime::new(cfg).run_traced(&sc);
        let summary = fela_check::check_trace(&trace, staleness)
            .unwrap_or_else(|v| panic!("{name}: race check rejected the trace: {v:?}"));
        assert!(summary.grants > 0, "{name}: the trace carries grants");
        let recovery = fela_check::check_recovery(&trace)
            .unwrap_or_else(|v| panic!("{name}: recovery check rejected the trace: {v:?}"));
        assert_eq!(
            recovery.applied, summary.completions,
            "{name}: every completion applied exactly once"
        );
    }
}

/// The restore path rejects nothing it produced: a snapshot taken mid-run on
/// a faulted scenario still restores on both planes. (Deterministic spot
/// check complementing the proptest above: exercises parked tokens and
/// quarantine state reached through the full simulator.)
#[test]
fn faulted_mid_run_snapshot_restores_on_both_planes() {
    let cfg = build_cfg(true, true, false, true);
    let (plan, meta) = vgg_inputs(&cfg);
    let mut oracle = TokenServer::new(
        plan.clone(),
        cfg.clone(),
        meta.clone(),
        N_WORKERS,
        ITERATIONS,
    );
    let mut coord = Coordinator::new(plan.clone(), cfg.clone(), meta.clone(), N_WORKERS, 4);
    let mut st = Churn::new();
    // Grant a round, crash two workers (one holding leases), expire a lease.
    for w in 0..N_WORKERS {
        lockstep_op!(oracle, coord, st, 0, w, 10_000_000);
    }
    lockstep_op!(oracle, coord, st, 3, 2, 10_000_000);
    lockstep_op!(oracle, coord, st, 3, 5, 10_000_000);
    lockstep_op!(oracle, coord, st, 4, 0, 10_000_000);
    lockstep_op!(oracle, coord, st, 1, 1, 10_000_000);
    let snap = oracle.snapshot();
    assert_eq!(&snap, &coord.snapshot());
    let tokens: BTreeMap<TokenId, _> = oracle.tokens().clone();
    let r1 = TokenServer::restore(
        plan.clone(),
        cfg.clone(),
        meta.clone(),
        N_WORKERS,
        ITERATIONS,
        tokens.clone(),
        &snap,
    )
    .expect("oracle restore");
    let rows = tokens.into_values().collect();
    let r2 = Coordinator::restore(plan, cfg, meta, N_WORKERS, ITERATIONS, rows, &snap)
        .expect("coordinator restore");
    assert_eq!(r1.snapshot(), snap);
    assert_eq!(r2.snapshot(), snap);
}

/// Drives a fresh plane into a state with a non-empty waiting queue and
/// servable tokens: one grant per worker, a starved second request that
/// queues every worker, then reports that release the next level's tokens.
macro_rules! starve_then_release {
    ($p:expr) => {{
        let mut clock = 0u64;
        let mut granted = Vec::new();
        for w in 0..N_WORKERS {
            clock += 1_000;
            let g = $p
                .request(w, SimTime::from_nanos(clock))
                .expect("request")
                .expect("the first round must grant");
            granted.push((w, g.token.id));
        }
        for w in 0..N_WORKERS {
            clock += 1_000;
            let g = $p.request(w, SimTime::from_nanos(clock)).expect("request");
            assert!(g.is_none(), "second request must starve into the queue");
        }
        for (w, t) in granted {
            clock += 1_000;
            for s in $p.report(w, t).expect("report") {
                $p.sync_finished(s.level, s.iteration).expect("sync");
            }
        }
        clock + 1_000
    }};
}

/// The batched grant path (`ControlPlane::drain_ready_grants`, what the
/// server core calls) must be observably identical to the one-at-a-time
/// `pop_ready_grant`-until-`None` loop — same grants in the same order, same
/// stats — against the coordinator and the oracle.
#[test]
fn drain_ready_grants_matches_repeated_pop_on_both_planes() {
    let cfg = build_cfg(true, true, false, false);
    let (plan, meta) = vgg_inputs(&cfg);
    let mut drained = ControlPlane::new(
        plan.clone(),
        cfg.clone(),
        meta.clone(),
        N_WORKERS,
        ITERATIONS,
    );
    let mut popped = Coordinator::new(
        plan.clone(),
        cfg.clone(),
        meta.clone(),
        N_WORKERS,
        ITERATIONS,
    );
    let mut oracle = TokenServer::new(plan, cfg, meta, N_WORKERS, ITERATIONS);

    let clock = starve_then_release!(drained);
    assert_eq!(clock, starve_then_release!(popped));
    assert_eq!(clock, starve_then_release!(oracle));
    let now = SimTime::from_nanos(clock);

    let mut batch = Vec::new();
    drained.drain_ready_grants(now, &mut batch).expect("drain");
    let mut singles = Vec::new();
    while let Some(pair) = popped.pop_ready_grant(now).expect("pop") {
        singles.push(pair);
    }
    let mut oracle_batch = Vec::new();
    while let Some(pair) = oracle.pop_ready_grant(now).expect("oracle pop") {
        oracle_batch.push(pair);
    }

    assert!(
        !batch.is_empty(),
        "the scenario must exercise a non-empty drain"
    );
    assert_eq!(format!("{batch:?}"), format!("{singles:?}"));
    assert_eq!(format!("{batch:?}"), format!("{oracle_batch:?}"));
    assert_eq!(
        format!("{:?}", drained.stats()),
        format!("{:?}", popped.stats()),
        "stats must not diverge between the batched and single-pop paths"
    );
    assert_eq!(drained.snapshot(), popped.snapshot());
}

/// A long run at 16 workers and staleness 8, oracle and coordinator in
/// lockstep: every worker keeps up to three grants in flight (pipelined
/// pulls), reports and sync finishes arrive in seeded random order, the
/// waiting queue is drained after each, and a worker crashes or restarts now
/// and then (with lease recovery on). Every result must match, and every
/// 256 steps and at the end so must the snapshots and the token tables —
/// over a table of thousands of ids, where the id-indexed columns are long.
#[test]
fn long_pipelined_run_matches_oracle_at_16_workers() {
    const WORKERS: usize = 16;
    const ITERS: u64 = 200;
    const PIPELINE: usize = 3;
    let cfg = FelaConfig::new(3)
        .with_weights(vec![1, 2, 4])
        .with_staleness(8)
        .with_recovery(RecoveryConfig::default());
    let p = bin_partition(
        &zoo::vgg19(),
        &ThresholdProfile::k40c(),
        PartitionOptions::default(),
    );
    let plan = TokenPlan::build(&p, &cfg, 256, WORKERS).expect("plan must be feasible");
    let meta = LevelMeta::for_partition(&p);
    let mut oracle = TokenServer::new(plan.clone(), cfg.clone(), meta.clone(), WORKERS, ITERS);
    let mut coord = Coordinator::new(plan, cfg, meta, WORKERS, ITERS);

    let mut rng = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move |n: usize| {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        (rng % n as u64) as usize
    };
    let mut clock = 0u64;
    let mut outstanding: Vec<(usize, TokenId)> = Vec::new();
    let mut syncs: Vec<(usize, u64)> = Vec::new();
    let mut step = 0u64;
    while !coord.run_complete() {
        step += 1;
        assert!(step < 400_000, "the run must finish");
        clock += 1 + next(2_000_000) as u64;
        let now = SimTime::from_nanos(clock);
        match next(16) {
            0..=5 if !outstanding.is_empty() => {
                let (w, t) = outstanding.swap_remove(next(outstanding.len()));
                let r = oracle.report(w, t);
                assert_eq!(r, coord.report(w, t), "step {step}: report({w}, {t:?})");
                syncs.extend(r.into_iter().flatten().map(|s| (s.level, s.iteration)));
            }
            6..=8 if !syncs.is_empty() => {
                let (level, iteration) = syncs.swap_remove(next(syncs.len()));
                let r = oracle.sync_finished(level, iteration);
                assert_eq!(
                    r,
                    coord.sync_finished(level, iteration),
                    "step {step}: sync"
                );
            }
            9 if next(32) == 0 => {
                let w = next(WORKERS);
                if oracle.is_alive(w) {
                    let r = oracle.worker_crashed(w);
                    assert_eq!(r, coord.worker_crashed(w), "step {step}: crash({w})");
                } else {
                    let r = oracle.worker_restarted(w);
                    assert_eq!(r, coord.worker_restarted(w), "step {step}: restart({w})");
                }
            }
            _ => {
                let w = next(WORKERS);
                let held = outstanding.iter().filter(|&&(o, _)| o == w).count();
                if held < PIPELINE {
                    let r = oracle.request(w, now);
                    assert_eq!(
                        format!("{r:?}"),
                        format!("{:?}", coord.request(w, now)),
                        "step {step}: request({w})"
                    );
                    if let Ok(Some(g)) = r {
                        outstanding.push((w, g.token.id));
                    }
                }
            }
        }
        loop {
            let r = oracle.pop_ready_grant(now);
            assert_eq!(
                format!("{r:?}"),
                format!("{:?}", coord.pop_ready_grant(now)),
                "step {step}: pop_ready_grant"
            );
            match r {
                Ok(Some((w, g))) => outstanding.push((w, g.token.id)),
                _ => break,
            }
        }
        if step % 256 == 0 {
            assert_eq!(oracle.snapshot(), coord.snapshot(), "step {step}");
            assert_eq!(token_rows(&oracle), coord.tokens(), "step {step}");
        }
    }
    assert_eq!(oracle.completed_iterations(), ITERS);
    assert_eq!(oracle.snapshot(), coord.snapshot());
    assert_eq!(token_rows(&oracle), coord.tokens());
    assert_eq!(oracle.stats(), coord.stats());
    assert!(
        coord.tokens().len() > 2_000,
        "the table spans thousands of ids: {}",
        coord.tokens().len()
    );
}
