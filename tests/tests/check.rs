//! Integration tests for `fela-check`: every paper configuration's schedule
//! DAG verifies across the policy matrix, and seeded mutations of a valid DAG
//! produce distinct, accurate diagnostics.

use fela_check::{verify_config, CheckError, DagViolation, Mutation, ScheduleDag};
use fela_core::{FelaConfig, TokenPlan};
use fela_model::{bin_partition, zoo, Partition, PartitionOptions, ThresholdProfile};
use proptest::prelude::*;

fn paper_partition(name: &str) -> Partition {
    let model = zoo::build_by_name(name).expect("zoo model");
    bin_partition(
        &model,
        &ThresholdProfile::k40c(),
        PartitionOptions::default(),
    )
}

/// The policy presets `fela check --all` sweeps, as config transformers.
fn policy_config(policy: usize, m: usize) -> FelaConfig {
    let base = FelaConfig::new(m);
    match policy {
        0 => base.with_ads(false).with_hf(false), // no optimisation
        1 => base.with_hf(false),                 // ADS only
        2 => base.with_ads(false),                // HF only
        3 => base.with_ctd(4),                    // CTD on half the 8-node cluster
        _ => base,                                // full Fela
    }
}

proptest! {
    /// Every zoo model × policy preset × Phase-1 candidate weight vector either
    /// has no feasible token plan (small batches) or produces a schedule DAG
    /// that satisfies every invariant. No configuration reachable from the
    /// tuner may be scheduled incorrectly.
    #[test]
    fn zoo_policy_matrix_verifies(
        model_idx in 0usize..zoo::TABLE_I.len(),
        policy in 0usize..5,
        cand_pick in 0usize..64,
        batch_exp in 6u32..11, // 64..=1024
    ) {
        let info = &zoo::TABLE_I[model_idx];
        // CUImage and SENet appear in Table I but have no layer-level builder.
        if zoo::build_by_name(info.name).is_some() {
            let partition = paper_partition(info.name);
            let m = partition.len();
            let candidates = fela_tuning::phase1_candidates(m, 8);
            let weights = candidates[cand_pick % candidates.len()].clone();
            let cfg = policy_config(policy, m).with_weights(weights.clone());
            cfg.validate(8).expect("phase-1 candidate is valid");
            match verify_config(&partition, &cfg, 1u64 << batch_exp, 8, 2) {
                Ok(summary) => {
                    prop_assert!(summary.train_tokens > 0);
                    prop_assert!(summary.edges >= summary.train_tokens);
                }
                Err(CheckError::Plan(_)) => {} // infeasible combo, not a schedule bug
                Err(CheckError::Dag(v)) => {
                    panic!("{} policy {policy} weights {weights:?}: {v:?}", info.name);
                }
            }
        }
    }

    /// SSP staleness never breaks verification: relaxing the barrier only
    /// removes constraints from the DAG.
    #[test]
    fn staleness_preserves_validity(staleness in 0u64..4) {
        let partition = paper_partition("VGG19");
        let cfg = FelaConfig::new(partition.len())
            .with_weights(vec![1, 2, 4])
            .with_staleness(staleness);
        let summary = verify_config(&partition, &cfg, 256, 8, 3);
        prop_assert!(summary.is_ok(), "{:?}", summary.err());
    }
}

fn valid_dag() -> ScheduleDag {
    let partition = paper_partition("VGG19");
    let cfg = FelaConfig::new(partition.len()).with_weights(vec![1, 2, 4]);
    let plan = TokenPlan::build(&partition, &cfg, 128, 8).expect("feasible plan");
    ScheduleDag::build(&plan, &cfg, 8, 2)
}

/// Each seeded corruption is caught, and each corruption class maps to its own
/// diagnostic — the verifier localises the bug instead of reporting a generic
/// failure.
#[test]
fn mutations_are_caught_with_distinct_diagnostics() {
    for seed in 0..8u64 {
        let mut dropped = valid_dag();
        dropped.mutate(Mutation::DropDependencyEdge { seed });
        let violations = dropped.verify().expect_err("dropped edge must be caught");
        assert!(
            violations
                .iter()
                .any(|v| matches!(v, DagViolation::MissingDependency { .. })
                    || matches!(v, DagViolation::GradientDominance { .. })
                    || matches!(v, DagViolation::BarrierViolation { .. })),
            "seed {seed}: {violations:?}"
        );

        let mut duplicated = valid_dag();
        duplicated.mutate(Mutation::DuplicateToken { seed });
        let violations = duplicated.verify().expect_err("duplicate must be caught");
        assert!(
            violations
                .iter()
                .any(|v| matches!(v, DagViolation::DuplicateToken { .. })),
            "seed {seed}: {violations:?}"
        );

        let mut crossed = valid_dag();
        crossed.mutate(Mutation::CrossIterationEdge { seed });
        let violations = crossed
            .verify()
            .expect_err("cross-iteration edge must be caught");
        assert!(
            violations
                .iter()
                .any(|v| matches!(v, DagViolation::CrossIterationEdge { .. })
                    || matches!(v, DagViolation::Cycle { .. })),
            "seed {seed}: {violations:?}"
        );
    }
}

/// The real simulator's traces pass the race detector for every policy ablation
/// — static and dynamic verification agree on the paper testbed.
#[test]
fn traced_runs_are_race_free_across_policies() {
    use fela_cluster::Scenario;
    use fela_core::FelaRuntime;

    let configs = [
        FelaConfig::new(3).with_weights(vec![1, 2, 4]),
        FelaConfig::new(3)
            .with_weights(vec![1, 2, 4])
            .with_ads(false),
        FelaConfig::new(3)
            .with_weights(vec![1, 2, 4])
            .with_hf(false),
        FelaConfig::new(3).with_weights(vec![1, 2, 4]).with_ctd(4),
        FelaConfig::new(3)
            .with_weights(vec![1, 1, 1])
            .with_staleness(1),
    ];
    for cfg in configs {
        let staleness = cfg.staleness;
        let sc = Scenario::paper(zoo::vgg19(), 128).with_iterations(3);
        let (_, trace) = FelaRuntime::new(cfg).run_traced(&sc);
        let summary = fela_check::check_trace(&trace, staleness)
            .unwrap_or_else(|v| panic!("race violations: {v:?}"));
        assert!(summary.grants > 0);
        assert_eq!(summary.grants, summary.completions);
    }
}

/// The exhaustive small-config space is safe, and its terminal report orders
/// converge — the same check CI runs via `fela check --all`.
#[test]
fn exhaustive_small_config_schedules_converge() {
    let outcome = fela_check::model_check(&fela_check::McConfig::small());
    assert!(outcome.ok(), "{:?}", outcome.violations);
    assert!(
        outcome.schedules.len() > 1,
        "BSP small config must admit multiple interleavings"
    );
}
