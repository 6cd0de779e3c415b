//! # fela-elastic — planned scale-up/scale-down mid-training
//!
//! Fela's token abstraction makes the worker set a *scheduling* concern, not
//! a *model* concern: the bin partition (§IV-A) is independent of the worker
//! count, and the two-phase configuration search (§IV-B) is cheap enough to
//! re-run online. This crate exploits both to let a training job change its
//! cluster size at BSP iteration boundaries without a stop-and-restart:
//!
//! * [`ResizeModel`](fela_cluster::ResizeModel) (in `fela-cluster`, so every
//!   layer can see it) describes *when* the cluster resizes — scripted
//!   events or seed-hashed churn, deterministic across `--jobs` exactly like
//!   the fault and straggler models.
//! * [`plan_epochs`] segments a run into constant-membership **epochs** with
//!   stable cross-epoch worker identities.
//! * [`IncrementalTuner`] re-runs the two-phase weight search at each
//!   boundary: `fela-tuning`'s one search ([`fela_tuning::Tuner::search`])
//!   behind a cross-epoch profile cache, so its outcome is bit-identical to
//!   the full offline search and elasticity never changes *what* is chosen,
//!   only how fast.
//! * [`BatchSchedule`] adapts the global batch to the worker count.
//! * [`ElasticController`] resolves all of the above into an
//!   [`ElasticPlan`]; [`ElasticRuntime`] executes it through the ordinary
//!   `FelaRuntime` — resize-free scenarios delegate byte-exactly — and
//!   [`StopRestartRuntime`] gives the non-elastic comparison point.
//! * [`run_live_elastic`] is [`ElasticRuntime::run_elastic_traced`] plus one
//!   [`fela_live::train_replicas`] per epoch: joiners hot-join via the
//!   `Hello` handshake of a fresh transport, leavers drain through the
//!   epoch's `End` epilogue.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod batch;
mod controller;
pub mod cost;
mod epoch;
mod live;
mod run;
mod tune;

pub use batch::BatchSchedule;
pub use controller::{ElasticController, ElasticOptions, ElasticPlan, EpochPlan, EpochSummary};
pub use epoch::{cluster_for, plan_epochs, EpochSpec, WorkerSet};
pub use live::{run_live_elastic, ElasticLiveOutcome};
pub use run::{ElasticOutcome, ElasticRuntime, StopRestartRuntime, ELASTIC_COUNTERS};
pub use tune::{IncrementalTuner, RetuneStats};

/// Elastic planning failures.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ElasticError {
    /// The scenario's resize model failed validation.
    InvalidResizeModel(String),
    /// A leave named a rank outside the current membership.
    LeaveOutOfRange {
        /// The offending rank.
        rank: usize,
        /// Members at the boundary.
        n_workers: usize,
    },
    /// A leave would remove every worker.
    WouldEmptyCluster {
        /// Workers leaving.
        leaving: usize,
        /// Members at the boundary.
        n_workers: usize,
    },
    /// The scenario has zero iterations.
    EmptyRun,
}

impl std::fmt::Display for ElasticError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ElasticError::InvalidResizeModel(why) => write!(f, "invalid resize model: {why}"),
            ElasticError::LeaveOutOfRange { rank, n_workers } => write!(
                f,
                "leave names rank {rank} but the epoch has {n_workers} workers"
            ),
            ElasticError::WouldEmptyCluster { leaving, n_workers } => write!(
                f,
                "leave of {leaving} worker(s) would empty a {n_workers}-worker cluster"
            ),
            ElasticError::EmptyRun => write!(f, "cannot plan a zero-iteration run"),
        }
    }
}

impl std::error::Error for ElasticError {}
