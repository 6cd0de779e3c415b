//! Control-plane operation recording: the linearizability hook.
//!
//! When recording is enabled ([`ControlPlane::enable_op_log`]), every
//! *mutating* control-plane call appends one [`CoordOp`] — the operation's
//! inputs ([`OpKind`]) plus its observable outcome ([`OpOutcome`], the
//! linearizability digest: which token was granted to whom at which attempt,
//! which syncs became due, which leases were revoked, or which error was
//! returned).
//!
//! The recorded history can then be replayed, op for op, against any
//! [`OpTarget`] ([`replay_oplog`]). `fela-check` replays it against its
//! reference `TokenServer` — an independent single-loop implementation the
//! [`Coordinator`] is specified to be observably equivalent to — so any
//! digest divergence pinpoints the first operation where a history stops
//! being linearizable against the oracle. `fela-check`'s model checker uses
//! the same hook in lockstep — it drains the log after every explored
//! transition and applies it to an oracle carried inside the model state — so
//! every transition of every explored interleaving is oracle-checked, not
//! just final states. WAL recovery replays a log's op suffix the same way.
//!
//! [`ControlPlane::enable_op_log`]: crate::ControlPlane::enable_op_log
//! [`Coordinator`]: crate::Coordinator

use fela_sim::SimTime;

use crate::error::ScheduleError;
use crate::lease::ExpiredLease;
use crate::server::{Grant, SyncSpec};
use crate::token::TokenId;

/// The input half of one recorded control-plane operation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum OpKind {
    /// [`request`](crate::ControlPlane::request)`(worker, now)`.
    Request {
        /// Requesting worker.
        worker: usize,
        /// Virtual instant of the request.
        now: SimTime,
    },
    /// [`pop_ready_grant`](crate::ControlPlane::pop_ready_grant)`(now)`.
    PopReadyGrant {
        /// Virtual instant of the poll.
        now: SimTime,
    },
    /// [`report`](crate::ControlPlane::report)`(worker, token)`.
    Report {
        /// Reporting worker.
        worker: usize,
        /// Completed token id.
        token: u64,
    },
    /// [`sync_finished`](crate::ControlPlane::sync_finished)`(level, iteration)`.
    SyncFinished {
        /// Synced level.
        level: usize,
        /// Synced iteration.
        iteration: u64,
    },
    /// [`worker_crashed`](crate::ControlPlane::worker_crashed)`(worker)`.
    WorkerCrashed {
        /// Crashed worker.
        worker: usize,
    },
    /// [`worker_restarted`](crate::ControlPlane::worker_restarted)`(worker)`.
    WorkerRestarted {
        /// Restarted worker.
        worker: usize,
    },
    /// [`lease_expired`](crate::ControlPlane::lease_expired)`(token, attempt)`.
    LeaseExpired {
        /// Leased token id.
        token: u64,
        /// Attempt the firing deadline belonged to.
        attempt: u64,
    },
}

/// The observable outcome of one operation — what a linearizability check
/// compares between the recorded history and the oracle.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum OpOutcome {
    /// A request/poll handed out a token.
    Granted {
        /// Grantee.
        worker: usize,
        /// Granted token id.
        token: u64,
        /// Grant attempt (0 = first issue, +1 per revocation).
        attempt: u64,
        /// Whether the grant was flagged as an HF conflict.
        conflict: bool,
        /// Remote fetches the grant requires, `(from_worker, bytes)`.
        fetches: Vec<(usize, u64)>,
    },
    /// A request/poll had nothing to hand out.
    NoGrant,
    /// A report was accepted; these `(level, iteration)` syncs became due.
    Synced {
        /// Sync specs returned, in order.
        syncs: Vec<(usize, u64)>,
    },
    /// A crash revoked these leased tokens.
    Revoked {
        /// Revoked token ids, in order.
        tokens: Vec<u64>,
    },
    /// A lease-deadline fire revoked the lease.
    Expired {
        /// Worker that lost the lease.
        worker: usize,
        /// Token ids revoked (the leased token, possibly + quarantine sweep).
        revoked: Vec<u64>,
        /// Whether the holder was quarantined.
        quarantined: bool,
    },
    /// A lease-deadline fire found the lease already satisfied/superseded.
    NoLease,
    /// The operation succeeded with no other observable result.
    Done,
    /// The operation returned this error.
    Failed(ScheduleError),
}

/// One recorded operation: inputs plus observed outcome.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CoordOp {
    /// The operation and its inputs.
    pub kind: OpKind,
    /// What it observably did.
    pub outcome: OpOutcome,
}

fn grant_outcome(worker: usize, grant: &Grant) -> OpOutcome {
    OpOutcome::Granted {
        worker,
        token: grant.token.id.0,
        attempt: grant.attempt,
        conflict: grant.conflict,
        fetches: grant.fetches.clone(),
    }
}

/// Digest of a `request` result.
pub(crate) fn outcome_of_request(
    worker: usize,
    result: &Result<Option<Grant>, ScheduleError>,
) -> OpOutcome {
    match result {
        Ok(Some(grant)) => grant_outcome(worker, grant),
        Ok(None) => OpOutcome::NoGrant,
        Err(e) => OpOutcome::Failed(e.clone()),
    }
}

/// Digest of a `pop_ready_grant` result.
pub(crate) fn outcome_of_pop(result: &Result<Option<(usize, Grant)>, ScheduleError>) -> OpOutcome {
    match result {
        Ok(Some((worker, grant))) => grant_outcome(*worker, grant),
        Ok(None) => OpOutcome::NoGrant,
        Err(e) => OpOutcome::Failed(e.clone()),
    }
}

/// Digest of a `report` result.
pub(crate) fn outcome_of_report(result: &Result<Vec<SyncSpec>, ScheduleError>) -> OpOutcome {
    match result {
        Ok(syncs) => OpOutcome::Synced {
            syncs: syncs.iter().map(|s| (s.level, s.iteration)).collect(),
        },
        Err(e) => OpOutcome::Failed(e.clone()),
    }
}

/// Digest of a `worker_crashed` result.
pub(crate) fn outcome_of_crash(result: &Result<Vec<TokenId>, ScheduleError>) -> OpOutcome {
    match result {
        Ok(tokens) => OpOutcome::Revoked {
            tokens: tokens.iter().map(|t| t.0).collect(),
        },
        Err(e) => OpOutcome::Failed(e.clone()),
    }
}

/// Digest of a unit-result op (`sync_finished`, `worker_restarted`).
pub(crate) fn outcome_of_unit(result: &Result<(), ScheduleError>) -> OpOutcome {
    match result {
        Ok(()) => OpOutcome::Done,
        Err(e) => OpOutcome::Failed(e.clone()),
    }
}

/// Digest of a `lease_expired` result.
pub(crate) fn outcome_of_expiry(result: &Result<Option<ExpiredLease>, ScheduleError>) -> OpOutcome {
    match result {
        Ok(Some(expired)) => OpOutcome::Expired {
            worker: expired.worker,
            revoked: expired.revoked.iter().map(|t| t.0).collect(),
            quarantined: expired.quarantined,
        },
        Ok(None) => OpOutcome::NoLease,
        Err(e) => OpOutcome::Failed(e.clone()),
    }
}

/// The mutating control-plane calls an [`OpKind`] can name — implemented by
/// the production [`ControlPlane`](crate::ControlPlane) and by `fela-check`'s
/// reference oracle, so one recorded history can drive either.
pub trait OpTarget {
    /// [`OpKind::Request`].
    fn request(&mut self, worker: usize, now: SimTime) -> Result<Option<Grant>, ScheduleError>;
    /// [`OpKind::PopReadyGrant`].
    fn pop_ready_grant(&mut self, now: SimTime) -> Result<Option<(usize, Grant)>, ScheduleError>;
    /// [`OpKind::Report`].
    fn report(&mut self, worker: usize, token: TokenId) -> Result<Vec<SyncSpec>, ScheduleError>;
    /// [`OpKind::SyncFinished`].
    fn sync_finished(&mut self, level: usize, iteration: u64) -> Result<(), ScheduleError>;
    /// [`OpKind::WorkerCrashed`].
    fn worker_crashed(&mut self, worker: usize) -> Result<Vec<TokenId>, ScheduleError>;
    /// [`OpKind::WorkerRestarted`].
    fn worker_restarted(&mut self, worker: usize) -> Result<(), ScheduleError>;
    /// [`OpKind::LeaseExpired`].
    fn lease_expired(
        &mut self,
        token: TokenId,
        attempt: u64,
    ) -> Result<Option<ExpiredLease>, ScheduleError>;
}

/// Applies one recorded operation's inputs to `plane` and returns the digest
/// of what *this* plane did — the oracle half of a lockstep comparison.
pub fn apply_op(plane: &mut impl OpTarget, kind: &OpKind) -> OpOutcome {
    match kind {
        OpKind::Request { worker, now } => {
            outcome_of_request(*worker, &plane.request(*worker, *now))
        }
        OpKind::PopReadyGrant { now } => outcome_of_pop(&plane.pop_ready_grant(*now)),
        OpKind::Report { worker, token } => {
            outcome_of_report(&plane.report(*worker, TokenId(*token)))
        }
        OpKind::SyncFinished { level, iteration } => {
            outcome_of_unit(&plane.sync_finished(*level, *iteration))
        }
        OpKind::WorkerCrashed { worker } => outcome_of_crash(&plane.worker_crashed(*worker)),
        OpKind::WorkerRestarted { worker } => outcome_of_unit(&plane.worker_restarted(*worker)),
        OpKind::LeaseExpired { token, attempt } => {
            outcome_of_expiry(&plane.lease_expired(TokenId(*token), *attempt))
        }
    }
}

/// The first operation at which a recorded history and the oracle disagree.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct OpDivergence {
    /// Index into the recorded history.
    pub index: usize,
    /// The diverging operation's inputs.
    pub kind: OpKind,
    /// What the recorded plane observed.
    pub recorded: OpOutcome,
    /// What the oracle observed for the same inputs.
    pub oracle: OpOutcome,
}

impl std::fmt::Display for OpDivergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "op {} ({:?}): recorded outcome {:?}, oracle outcome {:?}",
            self.index, self.kind, self.recorded, self.oracle
        )
    }
}

/// Replays a recorded history against `oracle` (typically a freshly built
/// plane with the same plan/config), comparing every op's digest. Returns the
/// first divergence, if any.
pub fn replay_oplog(ops: &[CoordOp], oracle: &mut impl OpTarget) -> Result<(), Box<OpDivergence>> {
    for (index, op) in ops.iter().enumerate() {
        let got = apply_op(oracle, &op.kind);
        if got != op.outcome {
            return Err(Box::new(OpDivergence {
                index,
                kind: op.kind.clone(),
                recorded: op.outcome.clone(),
                oracle: got,
            }));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ControlPlane, FelaConfig, LevelMeta, LevelPlan, TokenPlan};

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

    fn meta() -> Vec<LevelMeta> {
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

    fn plane() -> ControlPlane {
        let cfg = FelaConfig::new(2).with_weights(vec![1, 2]);
        ControlPlane::new(small_plan(), cfg, meta(), 2, 2)
    }

    /// Drives one full 2-iteration run on `plane`, recording everything.
    fn drive(plane: &mut ControlPlane) -> Vec<CoordOp> {
        plane.enable_op_log();
        let now = SimTime::ZERO;
        while !plane.run_complete() {
            let mut progressed = false;
            for w in 0..2 {
                if let Ok(Some(grant)) = plane.request(w, now) {
                    let syncs = plane.report(w, grant.token.id).expect("report accepted");
                    for s in syncs {
                        plane.sync_finished(s.level, s.iteration).expect("sync");
                    }
                    progressed = true;
                }
            }
            while let Ok(Some((w, grant))) = plane.pop_ready_grant(now) {
                let syncs = plane.report(w, grant.token.id).expect("report accepted");
                for s in syncs {
                    plane.sync_finished(s.level, s.iteration).expect("sync");
                }
                progressed = true;
            }
            assert!(progressed, "run must make progress");
        }
        plane.take_op_log()
    }

    #[test]
    fn recording_is_off_by_default_and_drains_when_on() {
        let mut p = plane();
        assert!(!p.op_log_enabled());
        let _ = p.request(0, SimTime::ZERO);
        assert!(p.take_op_log().is_empty());
        p.enable_op_log();
        let _ = p.request(1, SimTime::ZERO);
        let log = p.take_op_log();
        assert_eq!(log.len(), 1);
        assert!(matches!(log[0].kind, OpKind::Request { worker: 1, .. }));
        assert!(p.take_op_log().is_empty(), "take drains");
    }

    /// fela-core cannot see the reference oracle (it lives in `fela-check`,
    /// whose model checker replays histories against it); here a fresh plane
    /// replays a recorded history, first as recorded, then tampered.
    #[test]
    fn a_tampered_outcome_is_pinpointed_by_index() {
        let mut recorded = plane();
        let mut ops = drive(&mut recorded);
        let mut fresh = plane();
        replay_oplog(&ops, &mut fresh).expect("the untampered history replays");
        assert!(
            fresh.run_complete(),
            "the fresh plane finishes the same run"
        );
        let idx = ops
            .iter()
            .position(|op| matches!(op.outcome, OpOutcome::Granted { .. }))
            .expect("some grant");
        // Pretend the recorded plane granted a different token.
        if let OpOutcome::Granted { token, .. } = &mut ops[idx].outcome {
            *token += 1000;
        }
        let mut oracle = plane();
        let div = replay_oplog(&ops, &mut oracle).expect_err("tamper must be caught");
        assert_eq!(div.index, idx);
        assert!(matches!(div.oracle, OpOutcome::Granted { .. }));
        assert_ne!(div.recorded, div.oracle);
    }
}
