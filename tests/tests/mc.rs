//! Model-checker and protocol-verifier integration: `fela-check`'s `mc` and
//! `protocol` layers against the *real* live runtime, cross-crate.
//!
//! The pinned spaces below hold every explored configuration clean, at exact
//! counts; the unit suites in `fela-check` prove the explorer's diagnostics
//! and the session machine on the small model configurations. This suite
//! also closes the loop with threads:
//! a real `fela-live` virtual-clock run, recorded through the scheduler seam,
//! must satisfy the same frame-session protocol the model checker verifies,
//! and so must real-clock runs, fault-free and under worker and server
//! crash-restarts — and seeded wire mutations on a *live* trace must still
//! be caught.

use std::time::Duration;

use fela_check::{
    model_check, mutate_events, record_execution, run_mutation_matrix, verify_session, McConfig,
    WireMutation,
};
use fela_cluster::{ClusterSpec, FaultKind, FaultModel, Scenario};
use fela_core::{FelaConfig, FelaRuntime};
use fela_live::{
    run_real_with, run_virtual_with, ChanTransport, Endpoint, RealOptions, RecordingSched,
    SharedSched, SyncEvent, TcpTransport, Transport,
};
use fela_model::zoo;
use fela_sim::SimDuration;

#[test]
fn the_mutation_matrix_is_caught_with_distinct_diagnostics() {
    let matrix = run_mutation_matrix();
    assert!(matrix.len() >= 3, "need at least three seeded mutations");
    let mut kinds = std::collections::BTreeSet::new();
    for row in &matrix {
        assert!(row.caught, "mutation '{}' slipped through", row.name);
        assert!(
            kinds.insert(row.kind),
            "mutation '{}' produced a duplicate diagnostic kind '{}'",
            row.name,
            row.kind
        );
    }
}

#[test]
fn recorded_model_executions_are_session_clean() {
    let (events, ops) = record_execution(&McConfig::small());
    assert!(!events.is_empty() && !ops.is_empty());
    let report = verify_session(&events, Some(&ops));
    assert!(report.ok(), "{:?}", report.violations);
    assert_eq!(report.links, 2);
}

#[test]
fn the_acceptance_configuration_is_exhaustively_clean() {
    // The acceptance configuration: 2 workers × 2 iterations,
    // every non-equivalent interleaving, zero deadlocks, zero lost wakeups,
    // all histories linearizable against the reference oracle.
    let outcome = model_check(&McConfig::small());
    assert!(outcome.ok(), "violations: {:?}", outcome.violations);
    assert!(outcome.states > 0 && outcome.terminals > 0);
    assert!(!outcome.truncated, "space must be exhausted, not truncated");
}

#[test]
fn the_lease_adversary_is_clean_and_actually_adversarial() {
    let outcome = model_check(&McConfig::small().with_recovery());
    assert!(outcome.ok(), "violations: {:?}", outcome.violations);
    assert!(
        outcome.lease_fires > 0,
        "the adversary never fired a lease — the recovery space was not explored"
    );
    assert!(
        outcome.stale_reports > 0,
        "no revoked-then-reported token was explored"
    );
}

#[test]
fn the_explored_spaces_are_pinned() {
    // The three `fela check --mc` configurations, and `fela check --all
    // --staleness 1`'s. The checker drives the shipping server core, so a
    // change to the core's protocol logic (or to the checker's model of the
    // shells around it) moves these counts — a test failure to explain, not
    // a printed table to re-read.
    let mut staleness_1 = McConfig::small();
    staleness_1.staleness = 1;
    let mut three_workers = McConfig::small();
    three_workers.workers = 3;
    three_workers.iterations = 1;
    let cases = [
        ("one plane", McConfig::small(), (326, 472, 30, 10), (0, 0)),
        ("staleness 1", staleness_1, (798, 1856, 24, 18), (0, 0)),
        (
            "lease adversary",
            McConfig::small().with_recovery(),
            (102_232, 171_119, 10_248, 12),
            (13_155, 38_366),
        ),
        ("3 workers", three_workers, (389, 612, 42, 2), (0, 0)),
    ];
    let mut schedules = Vec::new();
    for (name, cfg, space, adversary) in cases {
        let outcome = model_check(&cfg);
        assert!(outcome.ok(), "{name}: {:?}", outcome.violations);
        let explored = (
            outcome.states,
            outcome.transitions,
            outcome.terminals,
            outcome.schedules.len(),
        );
        assert_eq!(
            explored, space,
            "{name}: (states, transitions, terminals, schedules)"
        );
        let fired = (outcome.lease_fires, outcome.stale_reports);
        assert_eq!(fired, adversary, "{name}: (lease fires, stale reports)");
        assert!(outcome.states > outcome.schedules.len(), "{name}");
        for s in &outcome.schedules {
            // Every token of every iteration, 3 per iteration.
            assert_eq!(s.len() as u64, 3 * cfg.iterations, "{name}: {s:?}");
            // Within an iteration, the level-1 token comes after both
            // level-0 tokens (its generation group).
            for k in 0..cfg.iterations {
                let at = |level, seq| s.iter().position(|&t| t == (level, k, seq));
                let l1 = at(1, 0).expect("level-1 token present");
                for seq in 0..2 {
                    let l0 = at(0, seq).expect("level-0 token present");
                    assert!(l0 < l1, "{name}: dependency out of order in {s:?}");
                }
            }
        }
        schedules.push(outcome.schedules.len());
    }
    assert!(
        schedules[0] > 1,
        "the Token Server admits one schedule only"
    );
    assert!(
        schedules[1] >= schedules[0],
        "staleness can only widen the schedule space ({schedules:?})"
    );
}

#[test]
fn the_model_protocol_recordings_are_pinned() {
    let (events, ops) = record_execution(&McConfig::small());
    let report = verify_session(&events, Some(&ops));
    assert!(report.ok(), "{:?}", report.violations);
    // Link 0 serves the whole round-robin run: its Request and six
    // grant/report pairs. Both links close with the epilogue's two Iters,
    // End and Params (17 frames before the epilogue carried its Iters).
    assert_eq!((report.links, report.frames), (2, 21));
}

/// A real threaded virtual-clock run over the in-process channel transport,
/// recorded through the `Sched` seam.
fn recorded_live_trace() -> Vec<SyncEvent> {
    let mut scenario = Scenario::paper(zoo::alexnet(), 128);
    scenario.iterations = 2;
    scenario.cluster = ClusterSpec::k40c_cluster(2);
    let m = FelaRuntime::new(FelaConfig::new(1))
        .partition_for(&scenario)
        .len();
    let config = FelaConfig::new(m);
    let rec = RecordingSched::new();
    let sched: SharedSched = rec.clone();
    run_virtual_with(&config, &scenario, &mut ChanTransport, sched).expect("live run succeeds");
    rec.take()
}

#[test]
fn a_real_threaded_run_satisfies_the_frame_session_protocol() {
    let events = recorded_live_trace();
    assert!(!events.is_empty(), "the scheduler seam recorded nothing");
    let report = verify_session(&events, None);
    assert!(
        report.ok(),
        "live trace violations: {:?}",
        report.violations
    );
    assert_eq!(report.links, 2, "one session per worker link");
    assert!(report.frames > 0);
}

/// A real-clock pull-mode run of 2 workers for `iterations` over
/// `transport`, under `opts` and `fault` (the `Request`/`GrantBatch`/
/// `ReportBatch` dialogue the wire mutations target — a virtual run sends
/// only its `Hello` and epilogue frames), recorded through the same seam.
fn recorded_real_trace(
    transport: &mut dyn Transport,
    opts: RealOptions,
    fault: FaultModel,
    iterations: u64,
) -> Vec<SyncEvent> {
    let mut scenario = Scenario::paper(zoo::alexnet(), 128);
    scenario.iterations = iterations;
    scenario.cluster = ClusterSpec::k40c_cluster(2);
    scenario.fault = fault;
    let m = FelaRuntime::new(FelaConfig::new(1))
        .partition_for(&scenario)
        .len();
    let config = FelaConfig::new(m);
    let rec = RecordingSched::new();
    let sched: SharedSched = rec.clone();
    run_real_with(&config, &scenario, transport, opts, sched).expect("real-clock run succeeds");
    rec.take()
}

#[test]
fn wire_mutations_on_a_live_trace_are_still_caught() {
    // The session verifier is not specific to model-generated streams: the
    // same seeded wire mutations must be caught on a trace recorded from real
    // threads (misroute needs grant intents from an op log, so it is covered
    // by the model-side matrix instead). At depth 1 grants and reports are
    // batches of one, so each mutation empties its frame and removes it.
    for pipeline in [1, RealOptions::default().pipeline] {
        let opts = RealOptions {
            time_scale: 1e-4,
            pipeline,
            ..RealOptions::default()
        };
        let events = recorded_real_trace(&mut ChanTransport, opts, FaultModel::None, 2);
        let clean = verify_session(&events, None);
        assert!(
            clean.ok(),
            "pipeline {pipeline}: real trace violations: {:?}",
            clean.violations
        );
        for mutation in [
            WireMutation::DropGrant { nth: 0 },
            WireMutation::ReorderGrantReport { nth: 0 },
        ] {
            let mutated = mutate_events(&events, &mutation);
            let report = verify_session(&mutated, None);
            assert!(
                !report.ok(),
                "pipeline {pipeline}: {mutation:?} went unnoticed on the live trace"
            );
        }
    }
}

#[test]
fn faulted_real_clock_traces_are_session_clean() {
    // A killed link's close is recorded once, by its reader, and a worker's
    // next link is attached only after the old one's close was dequeued. So
    // a worker crash-restart, a server crash, and a restart timer that fires
    // before the old close arrives (zero floors at a tiny time scale) each
    // leave a trace whose inbox dequeues match the links' arrivals.
    let crash = FaultModel::Scripted {
        worker: 1,
        iteration: 1,
        kind: FaultKind::CrashRestart {
            down: SimDuration::from_millis(100),
        },
    };
    let server_crash = FaultModel::ServerCrashRestart {
        iteration: 3,
        down: SimDuration::from_millis(100),
    };
    let paced = RealOptions {
        time_scale: 1e-3,
        min_down: Duration::from_millis(1),
        ..RealOptions::default()
    };
    let timer_edge = RealOptions {
        time_scale: 1e-7,
        min_lease: Duration::ZERO,
        min_down: Duration::ZERO,
        ..RealOptions::default()
    };
    let cases = [
        ("crash-restart", crash, paced),
        ("server crash-restart", server_crash, paced),
        ("timer edge", crash, timer_edge),
    ];
    let transports: [Box<dyn Transport>; 2] =
        [Box::new(ChanTransport), Box::<TcpTransport>::default()];
    for mut transport in transports {
        let name = transport.name();
        for (case, fault, opts) in cases {
            let events = recorded_real_trace(transport.as_mut(), opts, fault, 8);
            assert!(
                events.iter().any(|e| matches!(
                    e,
                    SyncEvent::LinkClosed {
                        side: Endpoint::Server,
                        ..
                    }
                )),
                "{name}, {case}: no link closed during the run"
            );
            let report = verify_session(&events, None);
            assert!(
                report.ok(),
                "{name}, {case}: faulted trace violations: {:?}",
                report.violations
            );
        }
    }
}
