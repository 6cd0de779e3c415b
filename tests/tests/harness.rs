//! Harness guarantees: parallel sweeps are byte-identical to sequential ones,
//! and a fixed seed pins the full JSONL record stream.

use fela_baselines::{DpRuntime, HpRuntime, MpRuntime};
use fela_cluster::{Scenario, StragglerModel};
use fela_core::{FelaConfig, FelaRuntime};
use fela_harness::{to_jsonl, SweepSpec};
use fela_model::zoo;
use fela_sim::SimDuration;
use proptest::prelude::*;

/// A small but non-trivial sweep: 4 runtimes × 3 scenarios, stragglers on.
fn demo_sweep(seed: Option<u64>) -> SweepSpec {
    let straggler = StragglerModel::Probabilistic {
        p: 0.3,
        delay: SimDuration::from_secs(3),
        seed: 7,
    };
    let mut spec = SweepSpec::new("harness_demo")
        .runtime("fela", |_| {
            Box::new(FelaRuntime::new(
                FelaConfig::new(3).with_weights(vec![1, 2, 4]),
            ))
        })
        .runtime("dp", |_| Box::new(DpRuntime::default()))
        .runtime("mp", |_| Box::new(MpRuntime::default()))
        .runtime("hp", |_| Box::new(HpRuntime))
        .with_seed(seed);
    for batch in [64u64, 128, 256] {
        spec = spec.scenario(
            format!("b{batch}"),
            Scenario::paper(zoo::googlenet(), batch)
                .with_iterations(4)
                .with_straggler(straggler),
        );
    }
    spec
}

#[test]
fn expansion_is_scenario_major_and_indexed() {
    let jobs = demo_sweep(None).expand();
    assert_eq!(jobs.len(), 12);
    for (i, job) in jobs.iter().enumerate() {
        assert_eq!(job.index, i);
    }
    assert_eq!(jobs[0].runtime, "fela");
    assert_eq!(jobs[0].scenario_label, "b64");
    assert_eq!(jobs[3].runtime, "hp");
    assert_eq!(jobs[3].scenario_label, "b64");
    assert_eq!(jobs[4].runtime, "fela");
    assert_eq!(jobs[4].scenario_label, "b128");
}

#[test]
fn seed_override_rewrites_probabilistic_stragglers_only() {
    let jobs = demo_sweep(Some(99)).expand();
    for job in &jobs {
        match job.scenario.straggler {
            StragglerModel::Probabilistic { seed, .. } => assert_eq!(seed, 99),
            other => panic!("unexpected straggler {other:?}"),
        }
        assert_eq!(job.scenario.iterations, 4);
    }
}

#[test]
fn same_seed_means_identical_jsonl_bytes() {
    let a = to_jsonl(&demo_sweep(Some(5)).run(2).records);
    let b = to_jsonl(&demo_sweep(Some(5)).run(3).records);
    assert!(!a.is_empty());
    assert_eq!(a.as_bytes(), b.as_bytes());
    // A different seed must change the straggler realisation and the stream.
    let c = to_jsonl(&demo_sweep(Some(6)).run(2).records);
    assert_ne!(a.as_bytes(), c.as_bytes());
}

/// Regression test for the artifact path itself: two identical seeded sweeps,
/// written through `write_jsonl_to`, land byte-identical files on disk. This
/// pins the full serialisation pipeline (record order, field order, float
/// formatting, trailing newline), not just the in-memory string.
#[test]
fn written_artifacts_are_byte_identical_across_runs() {
    let base = std::env::temp_dir().join(format!("fela-harness-regr-{}", std::process::id()));
    let dir_a = base.join("a");
    let dir_b = base.join("b");

    let path_a =
        fela_harness::write_jsonl_to(&dir_a, "regr", &demo_sweep(Some(5)).run(2).records).unwrap();
    let path_b =
        fela_harness::write_jsonl_to(&dir_b, "regr", &demo_sweep(Some(5)).run(4).records).unwrap();
    let bytes_a = std::fs::read(&path_a).unwrap();
    let bytes_b = std::fs::read(&path_b).unwrap();
    assert!(!bytes_a.is_empty());
    assert_eq!(
        bytes_a, bytes_b,
        "identical sweeps must write identical bytes"
    );
    assert_eq!(
        bytes_a.iter().filter(|&&b| b == b'\n').count(),
        12,
        "one line per run, newline-terminated"
    );

    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn records_carry_scenario_coordinates_and_config_hash() {
    let result = demo_sweep(Some(5)).run(4);
    assert_eq!(result.records.len(), 12);
    for record in &result.records {
        assert_eq!(record.experiment, "harness_demo");
        assert_eq!(record.model, "GoogleNet");
        assert_eq!(record.nodes, 8);
        assert_eq!(record.seed, Some(5));
        assert!(record.sim_time_secs > 0.0);
        assert_eq!(record.sim_time_secs, record.report.total_time_secs);
    }
    // Same scenario ⇒ same config hash across runtimes; different batch ⇒
    // different hash.
    let b64: Vec<_> = result.scenario_records("b64");
    assert_eq!(b64.len(), 4);
    assert!(b64.iter().all(|r| r.config_hash == b64[0].config_hash));
    let b128 = result.scenario_records("b128");
    assert_ne!(b64[0].config_hash, b128[0].config_hash);
}

#[test]
fn records_roundtrip_through_json() {
    let result = demo_sweep(None).run(2);
    let line = serde_json::to_string(&result.records[0]).unwrap();
    let back: fela_harness::RunRecord = serde_json::from_str(&line).unwrap();
    assert_eq!(back.runtime, result.records[0].runtime);
    assert_eq!(back.config_hash, result.records[0].config_hash);
    assert_eq!(back.report.total_time_secs, result.records[0].sim_time_secs);
    assert_eq!(serde_json::to_string(&back).unwrap(), line);
}

proptest! {
    /// The harness's core guarantee, property-tested: for any straggler
    /// scenario, batch and job count, the parallel record stream is
    /// byte-identical to the sequential one.
    #[test]
    fn parallel_equals_sequential(
        jobs in 2usize..8,
        batch in prop_oneof![Just(64u64), Just(128), Just(256)],
        straggler in prop_oneof![
            Just(StragglerModel::None),
            Just(StragglerModel::RoundRobin { delay: SimDuration::from_secs(2) }),
            Just(StragglerModel::Probabilistic {
                p: 0.25,
                delay: SimDuration::from_secs(2),
                seed: 3,
            }),
        ],
    ) {
        let build = || {
            SweepSpec::new("prop")
                .runtime("fela", |_| {
                    Box::new(FelaRuntime::new(
                        FelaConfig::new(3).with_weights(vec![1, 1, 2]),
                    ))
                })
                .runtime("dp", |_| Box::new(DpRuntime::default()))
                .scenario(
                    "s",
                    Scenario::paper(zoo::googlenet(), batch)
                        .with_iterations(3)
                        .with_straggler(straggler),
                )
        };
        let sequential = to_jsonl(&build().run(1).records);
        let parallel = to_jsonl(&build().run(jobs).records);
        prop_assert_eq!(sequential.as_bytes(), parallel.as_bytes());
    }
}
