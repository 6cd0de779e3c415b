//! Typed scheduling errors.
//!
//! The Token Server's bucket / Info-Mapping paths used to assert their
//! invariants with `unwrap()`/`expect()`; every such breach is now a
//! [`ScheduleError`] propagated to the caller. Library users (the `fela-check`
//! verifier, tests, future runtimes) can handle them; the simulation runtime
//! treats any of them as a fatal scheduler bug and aborts the run with the
//! error's message.

use crate::token::TokenId;

/// An internal scheduling invariant was violated.
///
/// Every variant names the exact invariant, so a failing run (or a
/// `fela-check` replay) pinpoints the broken component instead of panicking
/// deep inside a bucket operation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ScheduleError {
    /// A worker index outside `0..n_workers` reached the server.
    InvalidWorker {
        /// Offending worker index.
        worker: usize,
        /// Cluster size the server was built for.
        n_workers: usize,
    },
    /// An operation referenced a token the server never generated.
    UnknownToken {
        /// The missing token.
        token: TokenId,
    },
    /// A token was reported complete twice (double gradient contribution).
    DuplicateReport {
        /// The twice-reported token.
        token: TokenId,
    },
    /// A sub-token bucket held an id at an invalid position (bucket corruption).
    CorruptBucket {
        /// Bucket (worker) index.
        bucket: usize,
        /// Level queue within the bucket.
        level: usize,
        /// Position that failed to resolve.
        position: usize,
    },
    /// A root (level-0) token had no sample owner.
    MissingSampleOwner {
        /// The malformed token.
        token: TokenId,
    },
    /// Info Mapping has no holder for a dependency that must have completed.
    MissingDependencyHolder {
        /// The token being granted.
        token: TokenId,
        /// Its dependency with no recorded holder.
        dep: TokenId,
    },
    /// A level was treated as conditional but the config carries no CTD subset.
    CtdConfigMissing {
        /// The level in question.
        level: usize,
    },
    /// The CTD subset was empty when a conditional token needed placement.
    EmptyCtdSubset {
        /// The level whose token could not be placed.
        level: usize,
    },
    /// A level index outside the plan reached the server.
    LevelOutOfRange {
        /// Offending level.
        level: usize,
        /// Number of levels in the plan.
        levels: usize,
    },
    /// A parameter sync finished twice for the same `(level, iteration)`.
    DuplicateSync {
        /// Level whose sync repeated.
        level: usize,
        /// Iteration whose sync repeated.
        iteration: u64,
    },
    /// Token generation exceeded the plan's per-iteration count for a level.
    OverGeneration {
        /// Level that over-generated.
        level: usize,
        /// Iteration in which it happened.
        iteration: u64,
    },
    /// A report arrived for a token whose lease the reporter no longer holds
    /// (the lease expired or was revoked by a crash, and the token may already
    /// be re-granted). The gradient must be discarded, not applied.
    StaleReport {
        /// The reporting worker.
        worker: usize,
        /// The token whose lease it lost.
        token: TokenId,
    },
    /// An operation targeted a worker the server considers down or
    /// quarantined (a crashed worker can legitimately race its own removal,
    /// so callers treat this as a signal, not a bug).
    WorkerUnavailable {
        /// The unavailable worker.
        worker: usize,
    },
    /// A liveness transition (crash/restart) repeated or contradicted the
    /// current membership state.
    BadLivenessTransition {
        /// The worker whose transition was invalid.
        worker: usize,
        /// Whether the server currently considers it alive.
        alive: bool,
    },
    /// Every worker is dead or quarantined: no grant can ever be served again
    /// and the run cannot make progress.
    NoAliveWorkers,
    /// A checkpoint snapshot does not fit the plane restoring it: one of its
    /// per-level, per-worker or per-bucket tables has the wrong number of
    /// entries (a log written under another plan or cluster shape).
    SnapshotShape {
        /// The mis-sized table.
        table: String,
        /// Entries the snapshot holds.
        len: usize,
        /// Entries the plane needs.
        want: usize,
    },
}

impl std::fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScheduleError::InvalidWorker { worker, n_workers } => {
                write!(f, "worker {worker} outside cluster of {n_workers}")
            }
            ScheduleError::UnknownToken { token } => {
                write!(f, "token {} was never generated", token.0)
            }
            ScheduleError::DuplicateReport { token } => {
                write!(f, "token {} reported complete twice", token.0)
            }
            ScheduleError::CorruptBucket {
                bucket,
                level,
                position,
            } => write!(
                f,
                "sub-token bucket {bucket} level {level} has no entry at position {position}"
            ),
            ScheduleError::MissingSampleOwner { token } => {
                write!(f, "root token {} has no sample owner", token.0)
            }
            ScheduleError::MissingDependencyHolder { token, dep } => write!(
                f,
                "token {} depends on token {} which has no recorded holder",
                token.0, dep.0
            ),
            ScheduleError::CtdConfigMissing { level } => {
                write!(
                    f,
                    "level {level} treated as conditional without a CTD config"
                )
            }
            ScheduleError::EmptyCtdSubset { level } => {
                write!(f, "empty CTD subset placing a level-{level} token")
            }
            ScheduleError::LevelOutOfRange { level, levels } => {
                write!(f, "level {level} outside plan with {levels} levels")
            }
            ScheduleError::DuplicateSync { level, iteration } => {
                write!(
                    f,
                    "duplicate sync completion for level {level} iteration {iteration}"
                )
            }
            ScheduleError::OverGeneration { level, iteration } => write!(
                f,
                "token generation exceeded the plan at level {level} iteration {iteration}"
            ),
            ScheduleError::StaleReport { worker, token } => write!(
                f,
                "worker {worker} reported token {} without holding its lease",
                token.0
            ),
            ScheduleError::WorkerUnavailable { worker } => {
                write!(f, "worker {worker} is down or quarantined")
            }
            ScheduleError::BadLivenessTransition { worker, alive } => write!(
                f,
                "invalid liveness transition for worker {worker} (alive = {alive})"
            ),
            ScheduleError::NoAliveWorkers => {
                write!(f, "no alive workers remain to schedule onto")
            }
            ScheduleError::SnapshotShape { table, len, want } => write!(
                f,
                "snapshot table {table} has {len} entries where the plane needs {want}"
            ),
        }
    }
}

impl std::error::Error for ScheduleError {}
