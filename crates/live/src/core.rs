//! The Token Server's protocol logic without I/O: one server core, driven by
//! the real-clock shell ([`crate::real`]) and by `fela-check`'s model checker.
//!
//! A [`ServerCore`] holds the [`ControlPlane`], the grants queued per worker,
//! the in-flight token table, the accepted-completion log the replica
//! epilogue replays, and the recovery counters — no clock, link or scenario.
//! Inputs (a worker's frame at the caller's [`SimTime`], a lease fire, a
//! worker crash or restart, a `Hang`, the server crash, the idle re-scan, the
//! epilogue) only queue work. Frames leave through one call,
//! [`ServerCore::dispatch`]: it serves the waiters an input made servable,
//! commits the write-ahead log once, and only then hands out each worker's
//! frames and leases, so "nothing leaves the server before the ops behind it
//! are durable" holds in one place. The waiting queue is re-scanned only
//! after events that can release tokens — a report that committed a sync, a
//! fault, a lease fire, a restart — or on the caller's idle catch-all.

use std::collections::HashMap;
use std::fmt;
use std::io;

use fela_core::wal::{decode_u64_pairs, encode_u64_pairs};
use fela_core::{ControlPlane, CoordOp, Grant, OpKind, OpOutcome, ScheduleError, TokenId};
use fela_sim::SimTime;

use crate::wire::{Frame, WireGrant};

/// Why an input or a dispatch could not proceed.
#[derive(Debug)]
pub enum CoreError {
    /// The plane rejected a transition the protocol allows.
    Schedule(ScheduleError),
    /// The plane accepted a report for a token the core cannot place.
    UnknownToken(TokenId),
    /// A worker sent a frame only the server sends.
    UnexpectedFrame {
        /// The sender.
        worker: usize,
        /// The frame.
        frame: Frame,
    },
    /// WAL replay rebuilt a completion log that is not a prefix of the
    /// accepted one.
    ReplayNotPrefix,
    /// The write-ahead log failed, or recovery read an unusable record.
    Wal(io::Error),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Schedule(e) => write!(f, "Fela scheduler invariant violated: {e}"),
            CoreError::UnknownToken(_) => write!(f, "accepted report for an unknown token"),
            CoreError::UnexpectedFrame { worker, frame } => {
                write!(f, "server: unexpected frame from worker {worker}: {frame:?}")
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
    /// Leases revoked (expiry or crash).
    pub revocations: u64,
    /// Injected Token Server crashes.
    pub server_crashes: u64,
    /// Token Server recoveries completed.
    pub server_restarts: u64,
}

/// One worker's share of a [`ServerCore::dispatch`].
pub struct Outbound<'a> {
    /// The receiving worker.
    pub worker: usize,
    /// Its frames in send order: queued control frames (`Hang`, the
    /// epilogue's `Iter`s and `End`), then its `GrantBatch`, if any.
    pub frames: &'a [Frame],
    /// `(token, attempt)` of every grant in the batch, in batch order (empty
    /// without one): the leases to arm once the batch has left.
    pub leases: &'a [(TokenId, u64)],
}

/// The transport-free Token Server (see the module docs).
#[derive(Clone)]
pub struct ServerCore {
    plane: ControlPlane,
    /// `(unit_start, unit_end)` of each level's sub-model, stamped on every
    /// wire grant.
    units: Vec<(u32, u32)>,
    /// Tokens pulled per worker per frame (grant pipelining).
    pipeline: usize,
    /// Grants queued per worker for the next dispatch.
    pending: Vec<Vec<Grant>>,
    /// Control frames queued per worker, shipped ahead of its grants.
    control: Vec<Vec<Frame>>,
    /// An input may have made a waiting worker servable.
    drain_due: bool,
    /// Reused buffers: drained grants, one dispatch share, its leases and
    /// its wire grants.
    ready: Vec<(usize, Grant)>,
    frames: Vec<Frame>,
    leases: Vec<(TokenId, u64)>,
    wire: Vec<WireGrant>,
    /// `(iteration, level)` of every in-flight granted token, so a report
    /// doesn't pay a token-table lookup on the hot path.
    token_info: HashMap<TokenId, (u64, usize)>,
    /// Accepted reports in arrival order: `(iteration, level)`.
    completions: Vec<(u64, usize)>,
    counters: CoreCounters,
}

impl ServerCore {
    /// A core over `plane` for a partition whose level `l` spans
    /// `units[l]`, pulling up to `pipeline` tokens per worker frame.
    pub fn new(plane: ControlPlane, units: Vec<(u32, u32)>, pipeline: usize) -> ServerCore {
        let n = plane.trained_per_worker().len();
        ServerCore {
            plane,
            units,
            pipeline: pipeline.max(1),
            pending: vec![Vec::new(); n],
            control: vec![Vec::new(); n],
            drain_due: false,
            ready: Vec::new(),
            frames: Vec::new(),
            leases: Vec::new(),
            wire: Vec::new(),
            token_info: HashMap::new(),
            completions: Vec::new(),
            counters: CoreCounters::default(),
        }
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
    pub fn completions(&self) -> &[(u64, usize)] {
        &self.completions
    }

    /// The recovery counters.
    pub fn counters(&self) -> CoreCounters {
        self.counters
    }

    fn queue_grant(&mut self, worker: usize, grant: Grant) {
        self.token_info
            .insert(grant.token.id, (grant.token.iteration, grant.token.level));
        self.pending[worker].push(grant);
    }

    /// Pulls up to `pipeline` tokens for `worker`. The first starved request
    /// stops the loop: the plane then queues the worker as waiting.
    fn pull(&mut self, worker: usize, now: SimTime) -> Result<(), CoreError> {
        for _ in 0..self.pipeline {
            match self.plane.request(worker, now) {
                Ok(Some(grant)) => self.queue_grant(worker, grant),
                Ok(None) | Err(ScheduleError::WorkerUnavailable { .. }) => break,
                Err(e) => return Err(e.into()),
            }
        }
        Ok(())
    }

    /// One token of a `ReportBatch`. Returns whether a sync committed — the
    /// only report outcome that can release tokens to a waiting worker.
    fn accept_report(&mut self, worker: usize, id: TokenId) -> Result<bool, CoreError> {
        let info = self
            .token_info
            .remove(&id)
            .or_else(|| self.plane.token(id).map(|t| (t.iteration, t.level)));
        let syncs = match self.plane.report(worker, id) {
            Ok(syncs) => syncs,
            Err(ScheduleError::StaleReport { .. }) => {
                self.counters.stale_reports += 1;
                return Ok(false);
            }
            Err(e) => return Err(e.into()),
        };
        self.completions
            .push(info.ok_or(CoreError::UnknownToken(id))?);
        // A control-plane runtime: every sync commits degenerately.
        for spec in &syncs {
            self.plane.sync_finished(spec.level, spec.iteration)?;
        }
        Ok(!syncs.is_empty())
    }

    /// A decoded frame from `worker` at `now`: a `Request` pulls; a
    /// `ReportBatch` applies its reports, checkpoints when one is due, and
    /// pulls (the piggybacked request).
    pub fn on_frame(&mut self, worker: usize, frame: Frame, now: SimTime) -> Result<(), CoreError> {
        match frame {
            Frame::Request { worker: w } => debug_assert_eq!(w as usize, worker),
            Frame::ReportBatch { worker: w, tokens } => {
                debug_assert_eq!(w as usize, worker);
                for token in tokens {
                    self.drain_due |= self.accept_report(worker, TokenId(token))?;
                }
                self.maybe_checkpoint().map_err(CoreError::Wal)?;
            }
            frame => return Err(CoreError::UnexpectedFrame { worker, frame }),
        }
        self.pull(worker, now)
    }

    /// Appends a checkpoint when the plane's cadence says one is due. The
    /// payload is the completion log, so recovery rebuilds it from the
    /// checkpoint plus the short log suffix instead of the whole history.
    fn maybe_checkpoint(&mut self) -> io::Result<()> {
        let completions = &self.completions;
        self.plane.checkpoint_due(|| {
            let pairs: Vec<(u64, u64)> = completions
                .iter()
                .map(|&(iteration, level)| (iteration, level as u64))
                .collect();
            encode_u64_pairs(&pairs)
        })
    }

    /// The lease deadline of `(token, attempt)` expired. Returns the leases
    /// revoked; one already satisfied or superseded revokes nothing.
    pub fn lease_fired(&mut self, token: TokenId, attempt: u64) -> Result<Vec<TokenId>, CoreError> {
        let revoked = match self.plane.lease_expired(token, attempt)? {
            Some(expired) => expired.revoked,
            None => Vec::new(),
        };
        self.counters.revocations += revoked.len() as u64;
        self.drain_due = true;
        Ok(revoked)
    }

    /// `worker` died: its queued frames are dropped and, if the plane still
    /// counts it alive, its leases are revoked.
    pub fn worker_crashed(&mut self, worker: usize) -> Result<(), CoreError> {
        self.pending[worker].clear();
        self.control[worker].clear();
        if self.plane.is_alive(worker) {
            let revoked = self.plane.worker_crashed(worker)?;
            self.counters.crashes += 1;
            self.counters.revocations += revoked.len() as u64;
        }
        self.drain_due = true;
        Ok(())
    }

    /// `worker` rejoined over a fresh link.
    pub fn worker_restarted(&mut self, worker: usize) -> Result<(), CoreError> {
        self.plane.worker_restarted(worker)?;
        self.counters.restarts += 1;
        self.drain_due = true;
        Ok(())
    }

    /// The `Hang` fault: `worker` freezes for `nanos` real nanoseconds.
    pub fn hang(&mut self, worker: usize, nanos: u64) {
        self.control[worker].push(Frame::Hang { nanos });
        self.drain_due = true;
    }

    /// The injected Token Server crash: every volatile queue dies with the
    /// "process", the plane recovers from its log
    /// ([`ControlPlane::crash_restart`]), the completion log is rebuilt from
    /// the checkpoint payload plus the replayed reports, and every alive
    /// worker's in-flight grants are revoked for regrant. The caller drops
    /// and respawns the links.
    pub fn server_crash(&mut self) -> Result<(), CoreError> {
        self.counters.server_crashes += 1;
        self.pending.iter_mut().for_each(Vec::clear);
        self.control.iter_mut().for_each(Vec::clear);
        self.token_info.clear();
        let (payload, ops) = self.plane.crash_restart().map_err(CoreError::Wal)?;
        let invalid = |e: String| CoreError::Wal(io::Error::new(io::ErrorKind::InvalidData, e));
        let mut replayed: Vec<(u64, usize)> = if payload.is_empty() {
            Vec::new()
        } else {
            decode_u64_pairs(&payload)
                .map_err(|e| invalid(e.to_string()))?
                .into_iter()
                .map(|(iteration, level)| (iteration, level as usize))
                .collect()
        };
        for op in &ops {
            let OpKind::Report { token, .. } = op.kind else {
                continue;
            };
            if !matches!(op.outcome, OpOutcome::Synced { .. }) {
                continue;
            }
            let t = self.plane.token(TokenId(token)).ok_or_else(|| {
                invalid(format!(
                    "replayed report names token {token}, which the plan never minted"
                ))
            })?;
            replayed.push((t.iteration, t.level));
        }
        // The crash dropped the reports staged since the last commit; no
        // worker saw them accepted, so the log's schedule is a prefix of the
        // one the dead process held. Their tokens are revoked and regranted
        // below.
        if !self.completions.starts_with(&replayed) {
            return Err(CoreError::ReplayNotPrefix);
        }
        self.completions = replayed;
        // Crash-then-restart revokes the in-flight leases for immediate
        // regrant without charging lease expiries (which would quarantine
        // innocent workers). Both transitions land in the resumed log, so a
        // second crash replays them too. A worker downed by its own fault
        // stays down until the caller restarts it.
        for worker in 0..self.pending.len() {
            if self.plane.is_alive(worker) {
                let revoked = self.plane.worker_crashed(worker)?;
                self.counters.revocations += revoked.len() as u64;
                self.plane.worker_restarted(worker)?;
            }
        }
        self.counters.server_restarts += 1;
        self.drain_due = true;
        Ok(())
    }

    /// The idle catch-all: re-scan the waiting queue at the next dispatch,
    /// so a skipped re-scan can delay a waiter but never stall it.
    pub fn wake_waiters(&mut self) {
        self.drain_due = true;
    }

    /// Queues the run's epilogue for `worker`: one `Iter` frame per
    /// iteration's engine schedule, then `End`.
    pub fn end_run(&mut self, worker: usize, schedules: &[Vec<(usize, usize)>]) {
        for (iteration, schedule) in schedules.iter().enumerate() {
            self.control[worker].push(Frame::Iter {
                iteration: iteration as u64,
                schedule: schedule
                    .iter()
                    .map(|&(l, j)| (l as u32, j as u32))
                    .collect(),
            });
        }
        self.control[worker].push(Frame::End);
    }

    /// The one way out. Serves every waiting worker an input made servable
    /// (at `now`), then, if anything is queued, commits the log once — the
    /// group commit covering every op staged so far — and hands each worker
    /// with queued frames to `deliver`, in worker order. A failed commit
    /// returns the error with nothing delivered.
    pub fn dispatch(
        &mut self,
        now: SimTime,
        mut deliver: impl FnMut(Outbound<'_>),
    ) -> Result<(), CoreError> {
        if std::mem::take(&mut self.drain_due) {
            let mut ready = std::mem::take(&mut self.ready);
            self.plane.drain_ready_grants(now, &mut ready)?;
            for (worker, grant) in ready.drain(..) {
                self.queue_grant(worker, grant);
            }
            self.ready = ready;
        }
        let mut committed = false;
        for worker in 0..self.pending.len() {
            if self.pending[worker].is_empty() && self.control[worker].is_empty() {
                continue;
            }
            if !committed {
                self.plane.commit_wal().map_err(CoreError::Wal)?;
                committed = true;
            }
            // Control frames are rare (a `Hang`, the epilogue): their buffer
            // goes with them instead of staying reserved per worker.
            self.frames
                .extend(std::mem::take(&mut self.control[worker]));
            self.leases.clear();
            if !self.pending[worker].is_empty() {
                let mut wire = std::mem::take(&mut self.wire);
                for g in self.pending[worker].drain(..) {
                    let (unit_start, unit_end) = self.units[g.token.level];
                    wire.push(WireGrant {
                        token: g.token.id.0,
                        level: g.token.level as u32,
                        iteration: g.token.iteration,
                        batch: g.token.batch,
                        unit_start,
                        unit_end,
                    });
                    self.leases.push((g.token.id, g.attempt));
                }
                self.frames.push(Frame::GrantBatch { grants: wire });
            }
            deliver(Outbound {
                worker,
                frames: &self.frames,
                leases: &self.leases,
            });
            if let Some(Frame::GrantBatch { mut grants }) = self.frames.pop() {
                grants.clear();
                self.wire = grants;
            }
            self.frames.clear();
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::collections::{BTreeSet, VecDeque};
    use std::rc::Rc;

    use fela_core::{FelaConfig, LevelMeta, LevelPlan, TokenPlan, WalRecord, WalSink};
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

    /// A two-level, two-worker, two-iteration core whose log fails after
    /// `syncs` successful syncs (the opening record takes the first).
    fn core_over(syncs: u32, durable: &Rc<RefCell<Vec<u8>>>) -> ServerCore {
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
        let mut plane = ControlPlane::new(plan, config, vec![meta; 2], 2, 2);
        let sink = FailingSink {
            durable: durable.clone(),
            unsynced: Vec::new(),
            syncs_left: syncs,
        };
        plane
            .attach_wal(Box::new(sink))
            .expect("the opening record syncs");
        ServerCore::new(plane, vec![(0, 1), (1, 2)], 2)
    }

    /// Drives the core with a fixed frame sequence: each worker opens with a
    /// `Request` and answers every batch with one `ReportBatch`; frames are
    /// taken lowest worker first, one per millisecond of `SimTime`. Returns
    /// the tokens of every grant dispatched, and the error that stopped the
    /// run, if any.
    fn drive(core: &mut ServerCore) -> (Vec<u64>, Option<CoreError>) {
        let mut inbox: Vec<VecDeque<Frame>> = (0..2u32)
            .map(|worker| VecDeque::from([Frame::Request { worker }]))
            .collect();
        let mut sent = Vec::new();
        let mut now = SimTime::ZERO;
        while !core.plane().run_complete() {
            let Some(worker) = (0..2).find(|&w| !inbox[w].is_empty()) else {
                panic!("the run stalled with no frame in flight");
            };
            let frame = inbox[worker].pop_front().expect("a queued frame");
            now += SimDuration::from_millis(1);
            if let Err(e) = core.on_frame(worker, frame, now) {
                return (sent, Some(e));
            }
            let mut delivered = false;
            let dispatched = core.dispatch(now, |out| {
                delivered = true;
                let tokens: Vec<u64> = out.leases.iter().map(|(token, _)| token.0).collect();
                sent.extend(&tokens);
                if !tokens.is_empty() {
                    let worker = out.worker as u32;
                    inbox[out.worker].push_back(Frame::ReportBatch { worker, tokens });
                }
            });
            if let Err(e) = dispatched {
                assert!(
                    !delivered,
                    "a frame left in the dispatch whose commit failed"
                );
                return (sent, Some(e));
            }
        }
        (sent, None)
    }

    fn durable_grants(durable: &Rc<RefCell<Vec<u8>>>) -> BTreeSet<u64> {
        let log = fela_core::wal::read_log(&durable.borrow()).expect("durable log parses");
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
    fn a_worker_frame_the_server_never_expects_is_a_typed_error() {
        let durable = Rc::new(RefCell::new(Vec::new()));
        let mut core = core_over(u32::MAX, &durable);
        let err = core
            .on_frame(1, Frame::End, SimTime::ZERO)
            .expect_err("End is a server frame");
        assert!(
            matches!(err, CoreError::UnexpectedFrame { worker: 1, .. }),
            "{err}"
        );
        assert_eq!(
            err.to_string(),
            "server: unexpected frame from worker 1: End"
        );
    }
}
