//! Cross-crate elastic integration tests.
//!
//! The elasticity contract rests on four cross-crate properties, each pinned
//! here end-to-end:
//!
//! 1. the incremental boundary re-tune is **bit-identical** to the full
//!    two-phase search oracle under arbitrary churn;
//! 2. resize-free elastic runs are **byte-identical** to plain tuned Fela —
//!    same report, no `resize` key in artifacts, unchanged `config_hash`;
//! 3. churn sweeps are independent of the harness `--jobs` value;
//! 4. a live elastic run (per-epoch sessions, `Hello` hot-join, drain on
//!    leave) conforms bytewise to the simulated elastic run on both
//!    transports.

use fela_baselines::{DpRuntime, HpRuntime};
use fela_cluster::{ResizeAction, ResizeEvent, ResizeModel, Scenario, TrainingRuntime};
use fela_core::FelaRuntime;
use fela_elastic::{
    run_live_elastic, ElasticOptions, ElasticRuntime, IncrementalTuner, StopRestartRuntime,
};
use fela_harness::{config_hash, to_jsonl, RunRecord, SweepSpec};
use fela_model::zoo;
use fela_tuning::Tuner;
use proptest::prelude::*;

fn options() -> ElasticOptions {
    ElasticOptions {
        profile_iterations: 1,
    }
}

fn scripted() -> ResizeModel {
    ResizeModel::Scripted(vec![
        ResizeEvent {
            iteration: 2,
            action: ResizeAction::Join(2),
        },
        ResizeEvent {
            iteration: 4,
            action: ResizeAction::Leave(vec![9, 3]),
        },
    ])
}

fn scenario(batch: u64, iters: u64) -> Scenario {
    Scenario::paper(zoo::googlenet(), batch).with_iterations(iters)
}

#[test]
fn resize_free_elastic_runs_are_byte_identical_to_plain_tuned_fela() {
    let sc = scenario(256, 3);
    let tuner = Tuner {
        profile_iterations: 1,
    };
    let plain = FelaRuntime::new(tuner.tune_with_jobs(&sc, 1).best_config).run(&sc);
    let elastic = ElasticRuntime::new(options()).run(&sc);
    assert_eq!(
        serde_json::to_string(&plain).expect("serializes"),
        serde_json::to_string(&elastic).expect("serializes"),
        "resize-free elastic must delegate byte-exactly (runtime name included)"
    );

    // Artifact byte-identity: a resize-free record must not even mention
    // elasticity, and its config hash must match a pre-elasticity scenario's.
    let record = RunRecord::new("suite", "rt", "sc", &sc, None, elastic.clone());
    let line = to_jsonl(std::slice::from_ref(&record));
    assert!(
        !line.contains("\"resize\"") && !line.contains("elastic"),
        "resize-free artifact must stay pre-elasticity-shaped: {line}"
    );
    assert_eq!(
        config_hash(&sc),
        config_hash(&sc.clone().with_resize(ResizeModel::None)),
    );
}

#[test]
fn churn_sweeps_are_jobs_independent() {
    let build = || {
        let mut spec = SweepSpec::new("elastic-jobs")
            .runtime("fela-elastic", |_| Box::new(ElasticRuntime::new(options())))
            .runtime("dp-restart", |_| {
                Box::new(StopRestartRuntime::new(DpRuntime::default(), "dp-restart"))
            })
            .runtime("hp-restart", |_| {
                Box::new(StopRestartRuntime::new(HpRuntime, "hp-restart"))
            });
        for (label, rate) in [("light", 0.3), ("heavy", 0.6)] {
            spec = spec.scenario(
                label,
                scenario(128, 6).with_resize(ResizeModel::Churn { rate, seed: 7 }),
            );
        }
        spec.with_seed(Some(5))
    };
    let sequential = to_jsonl(&build().run(1).records);
    let parallel = to_jsonl(&build().run(4).records);
    assert_eq!(
        sequential, parallel,
        "elastic sweeps must not depend on --jobs"
    );
}

#[test]
fn live_elastic_conforms_to_the_simulated_run_on_both_transports() {
    let sc = scenario(256, 6).with_resize(scripted());
    let simulated = ElasticRuntime::new(options())
        .run_elastic(&sc)
        .expect("simulated elastic run");
    let sim_json = serde_json::to_string(&simulated.report).expect("serializes");
    for transport in ["chan", "tcp"] {
        let live = run_live_elastic(options(), &sc, transport).expect("live elastic run");
        assert_eq!(
            live.params.len(),
            simulated.plan.epochs.len(),
            "{transport}: one live session per epoch"
        );
        for params in &live.params {
            assert!(!params.is_empty(), "{transport}: every epoch trained");
        }
        assert_eq!(
            serde_json::to_string(&live.report).expect("serializes"),
            sim_json,
            "{transport}: live elastic must conform bytewise to the simulator"
        );
    }
}

proptest! {
    #[test]
    fn incremental_retune_matches_the_full_search_oracle_under_churn(
        rate in 0.1f64..0.9,
        seed in any::<u64>(),
    ) {
        let sc = scenario(128, 6).with_resize(ResizeModel::Churn { rate, seed });
        let plan = ElasticRuntime::new(options()).plan(&sc).expect("plans");
        let mut incremental = IncrementalTuner::new(1);
        for e in &plan.epochs {
            // The plan's chosen configuration must equal the full two-phase
            // search's, and the cached incremental walk must be bit-identical
            // to a fresh full search on every epoch it revisits.
            let oracle = Tuner { profile_iterations: 1 }.tune_with_jobs(&e.scenario, 1);
            prop_assert_eq!(
                serde_json::to_string(&e.config).expect("serializes"),
                serde_json::to_string(&oracle.best_config).expect("serializes")
            );
            prop_assert_eq!(&e.weights, &oracle.cases[oracle.best].case.weights);
            prop_assert_eq!(e.subset, oracle.cases[oracle.best].case.subset);
            let (cached, _) = incremental.tune(&e.scenario);
            prop_assert_eq!(
                serde_json::to_string(&cached).expect("serializes"),
                serde_json::to_string(&oracle).expect("serializes")
            );
        }
    }
}
