//! The Token Server's protocol logic without I/O: one server core, driven by
//! the simulator ([`crate::FelaRuntime`]), by `fela-live`'s real-clock shell
//! and by `fela-check`'s model checker.
//!
//! A [`ServerCore`] holds the [`ControlPlane`], the grants queued per worker
//! and the recovery counters — no clock, link, network or frame format. A
//! caller that replays the accepted schedule (the live server's epilogue)
//! asks for the completion log too ([`ServerCore::with_completion_log`]); the
//! core then checkpoints it and rebuilds it from the log after a crash. Its inputs (a pull, a report batch, a finished
//! parameter sync, a lease fire, a worker crash or restart, a dropped link,
//! the server crash) only queue work. Grants leave
//! through one call, [`ServerCore::dispatch`]: it serves the waiters the
//! inputs made servable, writes a checkpoint when one is due, commits the
//! write-ahead log once, and only then hands each worker its grants, in the
//! order the plane issued them, so "nothing leaves the server before the ops
//! behind it are durable" holds in one place.
//!
//! Serving the waiters is its own call, [`ServerCore::serve`]: the re-scan of
//! the waiting queue, which `dispatch` makes first. The simulator and the
//! model checker dispatch after every input. The real-clock shell serves
//! after every input and dispatches once per drained inbox, so one commit
//! covers every input it took; the plane sees the same ops either way, and
//! only the commit and the sends move.
//!
//! The waiting queue is re-scanned only after inputs that can release a
//! token: a report that minted a token or committed a sync, a finished sync,
//! a fault, a lease revocation or a restart. Any other report leaves every
//! waiter as unservable as it was, so no catch-all re-scan is needed.

use std::fmt;
use std::io;

use fela_sim::SimTime;

use crate::error::ScheduleError;
use crate::lease::ExpiredLease;
use crate::oplog::{CoordOp, OpKind, OpOutcome};
use crate::plane::ControlPlane;
use crate::server::{Grant, SyncSpec};
use crate::token::TokenId;
use crate::wal::{decode_u64_pairs, encode_u64_pairs};

/// Why an input or a dispatch could not proceed.
#[derive(Debug)]
pub enum CoreError {
    /// The plane rejected a transition the protocol allows.
    Schedule(ScheduleError),
    /// The plane accepted a report for a token the core cannot place.
    UnknownToken(TokenId),
    /// A worker sent a message only the server sends.
    UnexpectedFrame {
        /// The sender.
        worker: usize,
        /// The message, as its shell renders it.
        frame: String,
    },
    /// WAL replay rebuilt a completion log that is not a prefix of the
    /// accepted one.
    ReplayNotPrefix,
    /// The write-ahead log failed, or recovery read an unusable log.
    Wal(io::Error),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Schedule(e) => write!(f, "Fela scheduler invariant violated: {e}"),
            CoreError::UnknownToken(_) => write!(f, "accepted report for an unknown token"),
            CoreError::UnexpectedFrame { worker, frame } => {
                write!(f, "server: unexpected frame from worker {worker}: {frame}")
            }
            CoreError::ReplayNotPrefix => write!(
                f,
                "WAL replay reconstructed a completion schedule that is not a prefix of the accepted one"
            ),
            CoreError::Wal(e) => write!(f, "{e}"),
        }
    }
}

impl From<ScheduleError> for CoreError {
    fn from(e: ScheduleError) -> Self {
        CoreError::Schedule(e)
    }
}

/// The recovery counters a run reports.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CoreCounters {
    /// Reports discarded because the reporter had lost its lease.
    pub stale_reports: u64,
    /// Worker crashes the plane was told about.
    pub crashes: u64,
    /// Workers that rejoined after a crash.
    pub restarts: u64,
    /// Leases revoked (expiry, crash or a dropped link).
    pub revocations: u64,
    /// Workers quarantined after repeated lease expiries.
    pub quarantines: u64,
    /// Injected Token Server crashes.
    pub server_crashes: u64,
    /// Token Server recoveries completed.
    pub server_restarts: u64,
}

/// What a report batch did that its caller acts on.
#[derive(Debug, Default)]
pub struct Reported {
    /// Reports discarded because the reporter no longer held the token's
    /// lease, in batch order.
    pub stale: Vec<TokenId>,
    /// The parameter syncs the batch released, in release order. The core
    /// committed the degenerate ones ([`SyncSpec::is_degenerate`]: nothing to
    /// move); the caller finishes each of the others through
    /// [`ServerCore::sync_finished`].
    pub syncs: Vec<SyncSpec>,
}

/// One worker's share of a [`ServerCore::dispatch`].
pub struct Outbound<'a> {
    /// The receiving worker.
    pub worker: usize,
    /// Its grants in issue order. Each is a lease to arm once it has left.
    pub grants: std::vec::Drain<'a, Grant>,
}

/// The transport-free Token Server (see the module docs).
#[derive(Clone)]
pub struct ServerCore {
    plane: ControlPlane,
    /// Tokens pulled per worker per pull (grant pipelining).
    pipeline: usize,
    /// Grants queued per worker for the next dispatch.
    pending: Vec<Vec<Grant>>,
    /// Workers with queued grants, in the order of their first grant.
    order: Vec<usize>,
    /// An input may have made a waiting worker servable.
    drain_due: bool,
    /// Reused buffer for drained grants.
    ready: Vec<(usize, Grant)>,
    /// Accepted reports in arrival order, `(iteration, level)`, if the
    /// caller asked for them.
    completions: Option<Vec<(u64, usize)>>,
    counters: CoreCounters,
}

impl ServerCore {
    /// A core over `plane` pulling up to `pipeline` tokens per worker pull.
    pub fn new(plane: ControlPlane, pipeline: usize) -> ServerCore {
        let n = plane.trained_per_worker().len();
        ServerCore {
            plane,
            pipeline: pipeline.max(1),
            pending: vec![Vec::new(); n],
            order: Vec::new(),
            drain_due: false,
            ready: Vec::new(),
            completions: None,
            counters: CoreCounters::default(),
        }
    }

    /// This core, keeping the completion log: every accepted report joins
    /// it, each checkpoint stores it, and a server crash rebuilds it from
    /// the write-ahead log.
    pub fn with_completion_log(mut self) -> ServerCore {
        self.completions = Some(Vec::new());
        self
    }

    /// The plane, for reads.
    pub fn plane(&self) -> &ControlPlane {
        &self.plane
    }

    /// Drains the plane's op log (see [`ControlPlane::enable_op_log`]).
    pub fn take_op_log(&mut self) -> Vec<CoordOp> {
        self.plane.take_op_log()
    }

    /// Accepted reports so far, in arrival order: `(iteration, level)`.
    /// Empty unless the core keeps the log ([`Self::with_completion_log`]).
    pub fn completions(&self) -> &[(u64, usize)] {
        self.completions.as_deref().unwrap_or_default()
    }

    /// The recovery counters.
    pub fn counters(&self) -> CoreCounters {
        self.counters
    }

    fn queue_grant(&mut self, worker: usize, grant: Grant) {
        if self.pending[worker].is_empty() {
            self.order.push(worker);
        }
        self.pending[worker].push(grant);
    }

    /// `worker` asks for work at `now`: pulls up to `pipeline` tokens. The
    /// first starved request stops the loop, and the plane then queues the
    /// worker as waiting. A worker the plane counts down or quarantined is
    /// refused quietly: its request raced its own fault.
    pub fn pull(&mut self, worker: usize, now: SimTime) -> Result<(), CoreError> {
        for _ in 0..self.pipeline {
            match self.plane.request(worker, now) {
                Ok(Some(grant)) => self.queue_grant(worker, grant),
                Ok(None) | Err(ScheduleError::WorkerUnavailable { .. }) => break,
                Err(e) => return Err(e.into()),
            }
        }
        Ok(())
    }

    /// `worker` reports `tokens` done. Each accepted report joins the
    /// completion log, if kept; a stale one is counted and returned. A report that
    /// minted a token or committed a sync marks the waiting queue for a
    /// re-scan. The piggybacked pull and the returned syncs' finishes are
    /// the caller's later inputs, in whatever order its shell produces.
    pub fn report(
        &mut self,
        worker: usize,
        tokens: impl IntoIterator<Item = TokenId>,
    ) -> Result<Reported, CoreError> {
        let mut out = Reported::default();
        let minted = self.plane.tokens().len();
        for id in tokens {
            let syncs = match self.plane.report(worker, id) {
                Ok(syncs) => syncs,
                Err(ScheduleError::StaleReport { .. }) => {
                    self.counters.stale_reports += 1;
                    out.stale.push(id);
                    continue;
                }
                Err(e) => return Err(e.into()),
            };
            if let Some(log) = &mut self.completions {
                let token = self.plane.token(id).ok_or(CoreError::UnknownToken(id))?;
                log.push((token.iteration, token.level));
            }
            for spec in syncs {
                if spec.is_degenerate() {
                    self.plane.sync_finished(spec.level, spec.iteration)?;
                    self.drain_due = true;
                }
                out.syncs.push(spec);
            }
        }
        self.drain_due |= self.plane.tokens().len() > minted;
        Ok(out)
    }

    /// The parameter sync of `level` for `iteration` finished.
    pub fn sync_finished(&mut self, level: usize, iteration: u64) -> Result<(), CoreError> {
        self.plane.sync_finished(level, iteration)?;
        self.drain_due = true;
        Ok(())
    }

    /// The lease deadline of `(token, attempt)` expired. Returns the expiry
    /// (the holder, the leases revoked, whether it was quarantined), or
    /// `None` for a lease already satisfied or superseded.
    pub fn lease_fired(
        &mut self,
        token: TokenId,
        attempt: u64,
    ) -> Result<Option<ExpiredLease>, CoreError> {
        let expired = self.plane.lease_expired(token, attempt)?;
        if let Some(exp) = &expired {
            self.counters.revocations += exp.revoked.len() as u64;
            self.counters.quarantines += u64::from(exp.quarantined);
            self.drain_due = true;
        }
        Ok(expired)
    }

    /// `worker` died: its queued grants are dropped and, if the plane still
    /// counts it alive, its leases are revoked. Returns the leases revoked.
    pub fn worker_crashed(&mut self, worker: usize) -> Result<Vec<TokenId>, CoreError> {
        self.pending[worker].clear();
        self.order.retain(|&w| w != worker);
        if !self.plane.is_alive(worker) {
            return Ok(Vec::new());
        }
        let revoked = self.plane.worker_crashed(worker)?;
        self.counters.crashes += 1;
        self.counters.revocations += revoked.len() as u64;
        self.drain_due = true;
        Ok(revoked)
    }

    /// `worker` rejoined after a crash.
    pub fn worker_restarted(&mut self, worker: usize) -> Result<(), CoreError> {
        self.plane.worker_restarted(worker)?;
        self.counters.restarts += 1;
        self.drain_due = true;
        Ok(())
    }

    /// `worker`'s link dropped and it rejoins at once over a fresh one: its
    /// in-flight leases are revoked for immediate regrant, without charging
    /// a lease expiry (which would quarantine an innocent worker) or
    /// counting a crash. Both transitions are logged, so a later recovery
    /// replays them too.
    pub fn relink(&mut self, worker: usize) -> Result<(), CoreError> {
        let revoked = self.plane.worker_crashed(worker)?;
        self.counters.revocations += revoked.len() as u64;
        self.plane.worker_restarted(worker)?;
        self.drain_due = true;
        Ok(())
    }

    /// The injected Token Server crash: the queued grants die with the
    /// "process", the plane recovers from its log
    /// ([`ControlPlane::crash_restart`]) and a kept completion log is rebuilt
    /// from the checkpoint payload plus the replayed reports. Work in flight
    /// is the caller's: a shell whose links dropped [`Self::relink`]s each
    /// surviving worker.
    pub fn server_crash(&mut self) -> Result<(), CoreError> {
        self.counters.server_crashes += 1;
        self.pending.iter_mut().for_each(Vec::clear);
        self.order.clear();
        let (payload, ops) = self.plane.crash_restart().map_err(CoreError::Wal)?;
        if let Some(accepted) = &self.completions {
            // The crash dropped the reports staged since the last commit; no
            // worker saw them accepted, so the log's schedule is a prefix of
            // the one the dead process held.
            let replayed = self.replay_completions(&payload, &ops)?;
            if !accepted.starts_with(&replayed) {
                return Err(CoreError::ReplayNotPrefix);
            }
            self.completions = Some(replayed);
        }
        self.counters.server_restarts += 1;
        Ok(())
    }

    /// The completion log the write-ahead log holds: the last checkpoint's
    /// `payload`, then the accepted reports among the replayed `ops`.
    fn replay_completions(
        &self,
        payload: &[u8],
        ops: &[CoordOp],
    ) -> Result<Vec<(u64, usize)>, CoreError> {
        let invalid = |e: String| CoreError::Wal(io::Error::new(io::ErrorKind::InvalidData, e));
        let pairs = match payload {
            [] => Vec::new(),
            bytes => decode_u64_pairs(bytes).map_err(|e| invalid(e.to_string()))?,
        };
        let mut replayed: Vec<(u64, usize)> =
            pairs.into_iter().map(|(i, l)| (i, l as usize)).collect();
        for op in ops {
            if let (OpKind::Report { token, .. }, OpOutcome::Synced { .. }) =
                (&op.kind, &op.outcome)
            {
                let t = self.plane.token(TokenId(*token)).ok_or_else(|| {
                    invalid(format!(
                        "replayed report names token {token}, which the plan never minted"
                    ))
                })?;
                replayed.push((t.iteration, t.level));
            }
        }
        Ok(replayed)
    }

    /// Makes every op staged so far durable, with nothing to deliver: for a
    /// shell whose own messages must not leave before the log, and for the
    /// simulator, which commits at the end of every event.
    pub fn commit_wal(&mut self) -> Result<(), CoreError> {
        self.plane.commit_wal().map_err(CoreError::Wal)
    }

    /// Serves every waiting worker the inputs so far made servable, at
    /// `now`: their grants join the queue for the next dispatch. Nothing
    /// commits and nothing leaves. [`Self::dispatch`] calls it first; a shell
    /// that takes several inputs before one dispatch calls it after each, so
    /// every input's waiters are served exactly as a dispatch per input
    /// would serve them.
    pub fn serve(&mut self, now: SimTime) -> Result<(), CoreError> {
        if std::mem::take(&mut self.drain_due) {
            let mut ready = std::mem::take(&mut self.ready);
            self.plane.drain_ready_grants(now, &mut ready)?;
            for (worker, grant) in ready.drain(..) {
                self.queue_grant(worker, grant);
            }
            self.ready = ready;
        }
        Ok(())
    }

    /// The one way out. [`Self::serve`]s at `now` and writes a checkpoint
    /// when one is due, its payload the kept completion log. Then, if any
    /// grant is queued, commits the log once — the group commit covering
    /// every op staged so far — and hands each worker's grants to
    /// `deliver`, workers in the order of their first grant. A failed
    /// commit returns the error with nothing delivered.
    pub fn dispatch(
        &mut self,
        now: SimTime,
        mut deliver: impl FnMut(Outbound<'_>),
    ) -> Result<(), CoreError> {
        self.serve(now)?;
        let log = self.completions.as_deref();
        self.plane
            .checkpoint_due(|| {
                log.map_or_else(Vec::new, |log| {
                    encode_u64_pairs(&log.iter().map(|&(i, l)| (i, l as u64)).collect::<Vec<_>>())
                })
            })
            .map_err(CoreError::Wal)?;
        if self.order.is_empty() {
            return Ok(());
        }
        self.plane.commit_wal().map_err(CoreError::Wal)?;
        let mut order = std::mem::take(&mut self.order);
        for worker in order.drain(..) {
            deliver(Outbound {
                worker,
                grants: self.pending[worker].drain(..),
            });
        }
        self.order = order;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::collections::{BTreeSet, VecDeque};
    use std::rc::Rc;

    use crate::{FelaConfig, LevelMeta, LevelPlan, OpOutcome, TokenPlan, WalRecord, WalSink};
    use fela_sim::SimDuration;

    /// A log whose `sync` fails once `syncs_left` syncs have succeeded; every
    /// successful sync moves its bytes into `durable`.
    struct FailingSink {
        durable: Rc<RefCell<Vec<u8>>>,
        unsynced: Vec<u8>,
        syncs_left: u32,
    }

    impl WalSink for FailingSink {
        fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
            self.unsynced.extend_from_slice(bytes);
            Ok(())
        }

        fn sync(&mut self) -> io::Result<()> {
            if self.syncs_left == 0 {
                return Err(io::Error::other("injected fsync failure"));
            }
            self.syncs_left -= 1;
            self.durable.borrow_mut().append(&mut self.unsynced);
            Ok(())
        }

        fn read_back(&mut self) -> io::Result<Vec<u8>> {
            Ok(self.durable.borrow().clone())
        }

        fn truncate(&mut self, len: usize) -> io::Result<()> {
            self.durable.borrow_mut().truncate(len);
            Ok(())
        }
    }

    /// A two-level, `workers`-worker, two-iteration plane: level 0 has two
    /// tokens per iteration, level 1 one token minted from both.
    fn plane(workers: usize) -> ControlPlane {
        plane_of(workers, 2)
    }

    /// [`plane`] over `iterations` iterations.
    fn plane_of(workers: usize, iterations: u64) -> ControlPlane {
        let level = |level, tokens_per_iteration, batch_per_token, gen_ratio| LevelPlan {
            level,
            tokens_per_iteration,
            batch_per_token,
            gen_ratio,
        };
        let plan = TokenPlan {
            levels: vec![level(0, 2, 4, 1), level(1, 1, 8, 2)],
            total_batch: 8,
        };
        let meta = LevelMeta {
            param_bytes: 4096,
            output_bytes_per_sample: 64,
            input_bytes_per_sample: 64,
            comm_intensive: false,
        };
        let config = FelaConfig::new(2).with_weights(vec![1, 2]);
        ControlPlane::new(plan, config, vec![meta; 2], workers, iterations)
    }

    /// A two-worker core, keeping the completion log, whose log fails after
    /// `syncs` successful syncs (the opening record takes the first).
    fn core_over(syncs: u32, durable: &Rc<RefCell<Vec<u8>>>) -> ServerCore {
        let mut plane = plane(2);
        let sink = FailingSink {
            durable: durable.clone(),
            unsynced: Vec::new(),
            syncs_left: syncs,
        };
        plane
            .attach_wal(Box::new(sink))
            .expect("the opening record syncs");
        ServerCore::new(plane, 2).with_completion_log()
    }

    /// A two-worker core, keeping the completion log, over an in-memory log
    /// that checkpoints every `checkpoint_every` iterations (0: never).
    fn logged_core(checkpoint_every: u64) -> ServerCore {
        let mut plane = plane(2);
        plane
            .open_wal(&crate::DurabilityOptions {
                wal_dir: None,
                checkpoint_every,
            })
            .expect("in-memory log");
        ServerCore::new(plane, 2).with_completion_log()
    }

    /// Drives a control-plane run: each worker opens with a pull and answers
    /// every delivery with one report batch, whose syncs commit at once and
    /// which piggybacks the next pull; inputs are taken lowest worker first,
    /// one per millisecond of `SimTime`. Returns the tokens of every grant
    /// dispatched, and the error that stopped the run, if any.
    fn drive(core: &mut ServerCore) -> (Vec<u64>, Option<CoreError>) {
        let mut inbox: Vec<VecDeque<Option<Vec<TokenId>>>> =
            (0..2).map(|_| VecDeque::from([None])).collect();
        let mut sent = Vec::new();
        let mut now = SimTime::ZERO;
        while !core.plane().run_complete() {
            let Some(worker) = (0..2).find(|&w| !inbox[w].is_empty()) else {
                panic!("the run stalled with nothing in flight");
            };
            let batch = inbox[worker].pop_front().expect("a queued input");
            now += SimDuration::from_millis(1);
            let step = || -> Result<(), CoreError> {
                if let Some(tokens) = batch {
                    for spec in core.report(worker, tokens)?.syncs {
                        if !spec.is_degenerate() {
                            core.sync_finished(spec.level, spec.iteration)?;
                        }
                    }
                }
                core.pull(worker, now)
            };
            if let Err(e) = step() {
                return (sent, Some(e));
            }
            let mut delivered = false;
            let dispatched = core.dispatch(now, |out| {
                delivered = true;
                let tokens: Vec<TokenId> = out.grants.map(|g| g.token.id).collect();
                sent.extend(tokens.iter().map(|t| t.0));
                inbox[out.worker].push_back(Some(tokens));
            });
            if let Err(e) = dispatched {
                assert!(
                    !delivered,
                    "a grant left in the dispatch whose commit failed"
                );
                return (sent, Some(e));
            }
        }
        (sent, None)
    }

    fn durable_grants(durable: &Rc<RefCell<Vec<u8>>>) -> BTreeSet<u64> {
        let log = crate::wal::read_log(&durable.borrow()).expect("durable log parses");
        log.records
            .iter()
            .filter_map(|r| match r {
                WalRecord::Op { op, .. } => match op.outcome {
                    OpOutcome::Granted { token, .. } => Some(token),
                    _ => None,
                },
                _ => None,
            })
            .collect()
    }

    /// Dispatches at `SimTime::ZERO` and returns each share as
    /// `(worker, tokens)`, in delivery order. In the plans below, tokens 0
    /// and 1 are iteration 0's level-0 tokens, token 2 the level-1 token
    /// they mint, and tokens 3 and 4 iteration 1's level-0 tokens.
    fn ship(core: &mut ServerCore) -> Vec<(usize, Vec<u64>)> {
        let mut shares = Vec::new();
        core.dispatch(SimTime::ZERO, |out| {
            shares.push((out.worker, out.grants.map(|g| g.token.id.0).collect()));
        })
        .expect("dispatch");
        shares
    }

    /// A three-worker core where worker 2 holds both level-0 tokens of
    /// iteration 0 and `waiters` asked for work in that order and wait.
    fn core_with_waiters(waiters: &[usize]) -> ServerCore {
        let mut core = ServerCore::new(plane(3), 1);
        core.pull(2, SimTime::ZERO).expect("pull");
        core.pull(2, SimTime::ZERO).expect("pull");
        assert_eq!(ship(&mut core), [(2, vec![0, 1])]);
        for &w in waiters {
            core.pull(w, SimTime::ZERO).expect("pull");
            assert!(ship(&mut core).is_empty(), "worker {w} must wait");
        }
        core
    }

    #[test]
    fn a_minted_token_wakes_a_waiter_in_the_same_dispatch() {
        let mut core = core_with_waiters(&[1]);
        // Both level-0 reports mint the level-1 token. The level's sync is
        // the caller's and stays open, so only the mint can wake worker 1.
        let reported = core.report(2, [TokenId(0), TokenId(1)]).expect("report");
        assert!(reported.syncs.iter().all(|s| !s.is_degenerate()));
        assert_eq!(ship(&mut core), [(1, vec![2])]);
    }

    #[test]
    fn grants_leave_in_the_order_the_plane_issued_them() {
        // Worker 1 waits before worker 0, so the re-scan serves it first.
        let mut core = core_with_waiters(&[1, 0]);
        let reported = core.report(2, [TokenId(0), TokenId(1)]).expect("report");
        // The reporter's piggybacked pull takes the minted level-1 token.
        core.pull(2, SimTime::ZERO).expect("pull");
        assert_eq!(ship(&mut core), [(2, vec![2])]);
        // The level-0 sync releases iteration 1's two roots to the waiters.
        for spec in reported.syncs {
            core.sync_finished(spec.level, spec.iteration)
                .expect("sync");
        }
        assert_eq!(
            ship(&mut core),
            [(1, vec![4]), (0, vec![3])],
            "waiting-queue order, not worker order"
        );
    }

    #[test]
    fn a_failed_commit_stops_dispatch_and_every_sent_grant_is_durable() {
        // Fail each sync the healthy run makes, in turn.
        let healthy = Rc::new(RefCell::new(Vec::new()));
        let mut core = core_over(u32::MAX, &healthy);
        assert!(drive(&mut core).1.is_none());
        let total = core.plane().wal_commits() as u32;
        assert!(total > 2, "{total} syncs");
        for syncs in 1..total {
            let durable = Rc::new(RefCell::new(Vec::new()));
            let mut core = core_over(syncs, &durable);
            let (sent, err) = drive(&mut core);
            match err {
                Some(CoreError::Wal(e)) => assert_eq!(e.to_string(), "injected fsync failure"),
                other => panic!("syncs={syncs}: expected the injected failure, got {other:?}"),
            }
            // The opening record takes the first sync; each later one covers
            // a dispatch, so grants left exactly when a dispatch committed.
            assert_eq!(sent.is_empty(), syncs == 1, "syncs={syncs}: {sent:?}");
            let durable = durable_grants(&durable);
            for token in &sent {
                assert!(
                    durable.contains(token),
                    "syncs={syncs}: token {token} left before its grant was durable"
                );
            }
        }
    }

    #[test]
    fn a_healthy_log_runs_to_completion_with_every_grant_durable() {
        let durable = Rc::new(RefCell::new(Vec::new()));
        let mut core = core_over(u32::MAX, &durable);
        let (sent, err) = drive(&mut core);
        assert!(err.is_none(), "{err:?}");
        // 2 iterations of 3 tokens, each granted and accepted once.
        assert_eq!(sent.len(), 6);
        assert_eq!(core.completions().len(), 6);
        assert_eq!(
            sent.into_iter().collect::<BTreeSet<_>>(),
            durable_grants(&durable)
        );
    }

    #[test]
    fn a_server_crash_rebuilds_the_completion_log_from_the_wal() {
        // Checkpointed, the log comes back from the last payload; log-only,
        // from the replayed reports.
        for every in [1, 0] {
            let mut core = logged_core(every);
            assert!(drive(&mut core).1.is_none());
            core.commit_wal().expect("commit");
            let committed = core.completions().to_vec();
            assert_eq!(committed.len(), 6);
            core.server_crash().expect("recovery");
            assert_eq!(core.completions(), committed, "checkpoint_every={every}");
            assert!(core.plane().run_complete());
            let c = core.counters();
            assert_eq!((c.server_crashes, c.server_restarts), (1, 1));
        }
        // A report staged but never committed dies with the process.
        let mut core = logged_core(1);
        core.pull(0, SimTime::ZERO).expect("pull");
        assert_eq!(ship(&mut core), [(0, vec![0, 1])]);
        core.report(0, [TokenId(0)]).expect("report");
        assert_eq!(core.completions(), [(0, 0)]);
        core.server_crash().expect("recovery");
        assert!(core.completions().is_empty());
    }

    #[test]
    fn a_completion_log_the_wal_does_not_rebuild_is_a_typed_error() {
        let mut core = logged_core(0);
        assert!(drive(&mut core).1.is_none());
        core.commit_wal().expect("commit");
        core.completions = Some(vec![(1, 0); 6]);
        assert!(matches!(
            core.server_crash(),
            Err(CoreError::ReplayNotPrefix)
        ));
    }

    /// One input of [`batched_dispatch_is_exact`]'s seeded drive.
    enum Input {
        /// A worker's opening pull.
        Pull(usize),
        /// A report batch and its piggybacked pull.
        Report(usize, Vec<TokenId>),
        /// The parameter sync of `(level, iteration)` finished.
        Sync(usize, u64),
    }

    /// Feeds `input` to `core` at `now`; returns the syncs it left open.
    fn feed(core: &mut ServerCore, input: &Input, now: SimTime) -> Vec<(usize, u64)> {
        match *input {
            Input::Pull(worker) => core.pull(worker, now).expect("pull"),
            Input::Report(worker, ref tokens) => {
                let reported = core.report(worker, tokens.iter().copied()).expect("report");
                core.pull(worker, now).expect("pull");
                return reported
                    .syncs
                    .iter()
                    .filter(|s| !s.is_degenerate())
                    .map(|s| (s.level, s.iteration))
                    .collect();
            }
            Input::Sync(level, iteration) => core.sync_finished(level, iteration).expect("sync"),
        }
        Vec::new()
    }

    /// A three-worker core over `plane_of(3, 6)` with its op log on, writing
    /// to an in-memory log whose committed bytes the returned handle reads.
    fn exact_core() -> (ServerCore, crate::MemWal) {
        let mut plane = plane_of(3, 6);
        plane.enable_op_log();
        let wal = crate::MemWal::new();
        plane
            .attach_wal(Box::new(wal.clone()))
            .expect("the opening record syncs");
        (ServerCore::new(plane, 2).with_completion_log(), wal)
    }

    #[test]
    fn batched_dispatch_is_exact() {
        // Two cores take one seeded input sequence. One dispatches after
        // every input, as the simulator does; the other serves after every
        // input and dispatches once per seeded batch, as the real-clock
        // shell does per drained inbox. The workers answer the batched
        // core's deliveries, which every input then valid for it is for the
        // eager core too: it delivered the same grants no later.
        for seed in 0..32 {
            let mut rng = fela_sim::SimRng::seed_from_u64(seed);
            let (mut eager, eager_wal) = exact_core();
            let (mut batched, batched_wal) = exact_core();
            let mut eager_grants = vec![Vec::new(); 3];
            let mut batched_grants = vec![Vec::new(); 3];
            let mut held: Vec<Vec<TokenId>> = vec![Vec::new(); 3];
            let mut opened = [false; 3];
            let mut open_syncs: VecDeque<(usize, u64)> = VecDeque::new();
            let mut now = SimTime::ZERO;
            let mut batches = 0;
            while !batched.plane().run_complete() {
                let size = 1 + rng.next_below(4);
                let mut inputs = 0;
                for _ in 0..size {
                    let mut choices: Vec<usize> = (0..3)
                        .filter(|&w| !opened[w] || !held[w].is_empty())
                        .collect();
                    // Choice 3, past the workers: finish the oldest open sync.
                    if !open_syncs.is_empty() {
                        choices.push(3);
                    }
                    if choices.is_empty() {
                        break;
                    }
                    let input = match choices[rng.next_below(choices.len() as u64) as usize] {
                        3 => {
                            let (level, iteration) = open_syncs.pop_front().expect("open");
                            Input::Sync(level, iteration)
                        }
                        w if !opened[w] => {
                            opened[w] = true;
                            Input::Pull(w)
                        }
                        w => {
                            let n = 1 + rng.next_below(held[w].len() as u64) as usize;
                            Input::Report(w, held[w].drain(..n).collect())
                        }
                    };
                    now += SimDuration::from_millis(1);
                    let opened_syncs = feed(&mut eager, &input, now);
                    eager
                        .dispatch(now, |out| {
                            eager_grants[out.worker].extend(out.grants.map(|g| g.token.id))
                        })
                        .expect("eager dispatch");
                    assert_eq!(feed(&mut batched, &input, now), opened_syncs);
                    batched.serve(now).expect("serve");
                    open_syncs.extend(opened_syncs);
                    inputs += 1;
                }
                assert!(inputs > 0, "seed {seed}: the run stalled");
                let commits = batched.plane().wal_commits();
                let mut delivered = false;
                batched
                    .dispatch(now, |out| {
                        delivered = true;
                        let tokens: Vec<TokenId> = out.grants.map(|g| g.token.id).collect();
                        batched_grants[out.worker].extend(tokens.iter().copied());
                        held[out.worker].extend(tokens);
                    })
                    .expect("batched dispatch");
                assert_eq!(
                    batched.plane().wal_commits() - commits,
                    u64::from(delivered),
                    "seed {seed}: one commit per batch that ships, none otherwise"
                );
                batches += 1;
            }
            assert!(eager.plane().run_complete(), "seed {seed}");
            eager.commit_wal().expect("commit");
            batched.commit_wal().expect("commit");
            assert_eq!(eager.take_op_log(), batched.take_op_log(), "seed {seed}");
            assert_eq!(
                eager.plane().snapshot(),
                batched.plane().snapshot(),
                "seed {seed}"
            );
            assert_eq!(eager_wal.bytes(), batched_wal.bytes(), "seed {seed}");
            assert_eq!(eager.completions(), batched.completions(), "seed {seed}");
            assert_eq!(eager_grants, batched_grants, "seed {seed}");
            assert!(
                batched.plane().wal_commits() <= batches + 2,
                "seed {seed}: at most one commit per batch, plus the opening record and the last"
            );
            assert!(
                batched.plane().wal_commits() < eager.plane().wal_commits(),
                "seed {seed}: batching saves commits"
            );
        }
    }

    #[test]
    fn the_completion_log_is_kept_only_on_request() {
        let mut core = ServerCore::new(plane(2), 2);
        assert!(drive(&mut core).1.is_none());
        assert!(core.completions().is_empty());
    }
}
