//! # fela-check — static schedule verification, trace race detection and lint
//!
//! The workspace's analysis layer. Independent checkers, all runnable
//! without (or alongside) the simulator, plus the reference oracle they and
//! the conformance suites compare the production control plane against:
//!
//! * [`dag`] — builds the full token-dependency DAG of a run from a
//!   [`fela_core::TokenPlan`] + [`fela_core::FelaConfig`] and statically
//!   verifies the invariants the Fela schedule relies on (acyclicity, exact
//!   coverage, gradient dominance, BSP/SSP barrier closure, CTD subset
//!   validity, HF bucket partitioning). Seeded mutations prove each invariant's
//!   diagnostic actually fires.
//! * [`race`] — replays a simulator trace and rebuilds its happens-before
//!   order with vector clocks, flagging parameter reads concurrent with
//!   parameter commits (the premature-release race), unordered dependencies,
//!   late gradients and misordered commits.
//! * [`recovery`] — replays a fault-injected trace through the Token Server's
//!   per-token lease state machine (granted → revoked → re-granted) and proves
//!   the exactly-once gradient property: no double grants, no ghost gradients
//!   from expired leases, no lost micro-batches. Seeded trace mutations prove
//!   each diagnostic fires.
//! * [`explore`] — exhaustively enumerates every control-plane schedule for a
//!   small configuration (DPOR-style state memoization), checks per-transition
//!   safety, and executes every schedule with `fela-engine`'s real token-split
//!   SGD to prove they all converge to serial-BSP parameters.
//! * [`mc`] — the concurrency model checker for the *live* runtime: drives the
//!   shipping server core ([`fela_live::ServerCore`]) and the real wire
//!   [`fela_live::Frame`]s through every non-equivalent message-delivery / lease-fire interleaving
//!   of a small cluster (memoized DFS, DPOR via eager local steps), checking
//!   deadlock-freedom, lost-wakeup-freedom, exactly-once token application and
//!   per-op linearizability against the reference [`TokenServer`].
//!   Seeded mutations (dropped grant, reordered Grant/Report, misrouted Grant)
//!   each produce a distinct diagnostic.
//! * [`protocol`] — the frame-protocol session verifier: a per-link state
//!   machine over the server ↔ worker `Frame` dialogue, replayed over recorded
//!   [`fela_live::SyncEvent`] traces (from `RecordingSched`) and over the model
//!   checker's explored executions.
//! * [`elastic`] — elastic-run verification: replays every epoch of a
//!   resized run against its membership (no grants to departed workers),
//!   re-runs the full two-phase search as an oracle against the incremental
//!   boundary re-tune (no re-bin divergence), and composes the race and
//!   recovery checkers per epoch. Seeded mutations prove both elastic
//!   diagnostics fire.
//! * [`wal`] — write-ahead-log verification: replays a Token Server WAL
//!   through the reference [`TokenServer`], proving the recovered
//!   state is snapshot-equal and no token is applied twice. Seeded log
//!   mutations (dropped, duplicated, reordered record, flipped byte) each
//!   produce a distinct diagnostic.
//! * [`TokenServer`] — the reference Token Server: the original single-loop
//!   scheduler, which no run executes, kept as an independent implementation
//!   the [`fela_core::Coordinator`] must match bit for bit at every shard
//!   count.
//! * [`lint`] — the source-level rules behind the determinism and crash-safety
//!   arguments (`no-unwrap`, `no-wallclock`, `no-unseeded-rng`,
//!   `hashmap-order`, `lock-order`, `no-blocking-under-lock`), enforced by the
//!   `fela-lint` binary and CI.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod dag;
pub mod elastic;
pub mod explore;
pub mod lint;
pub mod mc;
mod oracle;
pub mod protocol;
pub mod race;
pub mod recovery;
pub mod wal;

pub use dag::{DagNode, DagSummary, DagViolation, Mutation, ScheduleDag};
pub use elastic::{
    check_elastic, mutate_elastic, run_elastic_mutation_matrix, ElasticMutation,
    ElasticMutationRun, ElasticSummary, ElasticViolation,
};
pub use explore::{exhaustive_schedule_check, ExploreOutcome, ExploreViolation, Explorer};
pub use mc::{
    model_check, record_execution, run_mutation_matrix, McConfig, McMutation, McOutcome,
    McViolation, MutationRun,
};
pub use oracle::TokenServer;
pub use protocol::{
    mutate_events, verify_session, SessionReport, SessionVerifier, SessionViolation, WireMutation,
};
pub use race::{check_trace, HbAnalysis, RaceSummary, RaceViolation};
pub use recovery::{
    check_recovery, mutate_trace, RecoveryMutation, RecoverySummary, RecoveryViolation,
};
pub use wal::{
    check_wal, mutate_wal, reference_logged_run, reference_wal_check, run_wal_mutation_matrix,
    WalMutation, WalMutationRun, WalSummary, WalViolation,
};

use fela_core::{FelaConfig, LevelMeta, LevelPlan, PlanError, TokenPlan};
use fela_model::Partition;

/// Why a configuration failed verification.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CheckError {
    /// The plan itself is infeasible (not a schedule bug — the config cannot
    /// produce a token plan at all).
    Plan(PlanError),
    /// The plan produced a DAG that violates schedule invariants.
    Dag(Vec<DagViolation>),
}

impl std::fmt::Display for CheckError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckError::Plan(e) => write!(f, "no feasible token plan: {e}"),
            CheckError::Dag(violations) => {
                writeln!(f, "{} schedule invariant violation(s):", violations.len())?;
                for v in violations {
                    writeln!(f, "  - {v}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for CheckError {}

/// End-to-end static verification of one configuration: build the token plan,
/// materialise `iterations` of its dependency DAG, and verify every invariant.
///
/// `cfg` must already satisfy [`FelaConfig::validate`]; plan infeasibility
/// (batch too small, weight too large, …) is reported as [`CheckError::Plan`]
/// so sweeps can distinguish "config impossible" from "schedule broken".
pub fn verify_config(
    partition: &Partition,
    cfg: &FelaConfig,
    total_batch: u64,
    n_workers: usize,
    iterations: u64,
) -> Result<DagSummary, CheckError> {
    let plan =
        TokenPlan::build(partition, cfg, total_batch, n_workers).map_err(CheckError::Plan)?;
    ScheduleDag::build(&plan, cfg, n_workers, iterations)
        .verify()
        .map_err(CheckError::Dag)
}

/// The canonical small 2-level plan the exhaustive checkers ([`explore`],
/// [`mc`], [`wal`]) explore: 2 + 1 training tokens and 2 generation tokens per
/// iteration over 8 samples.
fn small_plan() -> TokenPlan {
    TokenPlan {
        levels: vec![
            LevelPlan {
                level: 0,
                tokens_per_iteration: 2,
                batch_per_token: 4,
                gen_ratio: 1,
            },
            LevelPlan {
                level: 1,
                tokens_per_iteration: 1,
                batch_per_token: 8,
                gen_ratio: 2,
            },
        ],
        total_batch: 8,
    }
}

/// Per-level metadata of [`small_plan`].
fn small_meta() -> Vec<LevelMeta> {
    vec![
        LevelMeta {
            param_bytes: 4096,
            output_bytes_per_sample: 64,
            input_bytes_per_sample: 64,
            comm_intensive: false,
        },
        LevelMeta {
            param_bytes: 8192,
            output_bytes_per_sample: 32,
            input_bytes_per_sample: 64,
            comm_intensive: false,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use fela_model::{bin_partition, zoo, PartitionOptions, ThresholdProfile};

    #[test]
    fn verify_config_end_to_end() {
        let p = bin_partition(
            &zoo::vgg19(),
            &ThresholdProfile::k40c(),
            PartitionOptions::default(),
        );
        let cfg = FelaConfig::new(3).with_weights(vec![1, 2, 4]);
        let summary = verify_config(&p, &cfg, 128, 8, 3).unwrap();
        assert_eq!(summary.train_tokens, 14 * 3);
    }

    #[test]
    fn infeasible_plan_is_distinguished() {
        let p = bin_partition(
            &zoo::vgg19(),
            &ThresholdProfile::k40c(),
            PartitionOptions::default(),
        );
        let cfg = FelaConfig::new(3);
        let err = verify_config(&p, &cfg, 4, 8, 1).unwrap_err();
        assert!(matches!(err, CheckError::Plan(_)), "{err}");
    }
}
