//! [`ControlPlane`]: the [`Coordinator`] every runtime holds, plus the two
//! optional sinks its mutating calls feed — the in-memory op log that
//! `fela-check` replays against the reference oracle, and the write-ahead log
//! that makes the plane durable. The plane owns that log's whole lifecycle
//! for every runtime: [`ControlPlane::open_wal`],
//! [`ControlPlane::checkpoint_due`] and [`ControlPlane::crash_restart`].

use std::io;
use std::ops::Deref;

use fela_sim::SimTime;

use crate::config::FelaConfig;
use crate::error::ScheduleError;
use crate::lease::ExpiredLease;
use crate::oplog::{self, CoordOp, OpKind, OpOutcome, OpTarget};
use crate::plan::TokenPlan;
use crate::server::{Coordinator, Grant, LevelMeta, SyncSpec};
use crate::snapshot::ServerSnapshot;
use crate::token::{Token, TokenId};
use crate::wal::{
    self, wal_path, DurabilityOptions, FileWal, MemWal, Recovered, WalRecord, WalSink, WalWriter,
};

/// The control plane: a [`Coordinator`] whose mutating calls can be
/// recorded.
///
/// Read access goes straight to the coordinator through [`Deref`]. Mutation
/// goes only through the methods below — there is no `DerefMut` — so every
/// state change passes the recording point: with
/// [`ControlPlane::enable_op_log`] each call appends one [`CoordOp`] (inputs
/// plus outcome digest), and with [`ControlPlane::attach_wal`] it is staged
/// in the write-ahead log. The runtime makes the stage durable with one
/// [`ControlPlane::commit_wal`] before any result leaves the process.
pub struct ControlPlane {
    inner: Coordinator,
    log: Option<Vec<CoordOp>>,
    wal: Option<Wal>,
}

/// The attached write-ahead log and its checkpoint cadence.
struct Wal {
    writer: WalWriter,
    /// Checkpoint after every N completed iterations (0 = never).
    checkpoint_every: u64,
    /// Completed-iteration count at the last checkpoint written.
    last_checkpoint: u64,
    /// Commits that synced data (an empty stage costs none).
    commits: u64,
}

impl Wal {
    fn commit(&mut self) -> io::Result<()> {
        if self.writer.commit()? {
            self.commits += 1;
        }
        Ok(())
    }
}

impl Clone for ControlPlane {
    /// A clone is a *logical copy* of the scheduling state, not a second log
    /// writer: exploratory clones (what-if probes, checkers) must not
    /// double-append to the durable log, so the clone's WAL is detached.
    fn clone(&self) -> Self {
        ControlPlane {
            inner: self.inner.clone(),
            log: self.log.clone(),
            wal: None,
        }
    }
}

impl Deref for ControlPlane {
    type Target = Coordinator;

    fn deref(&self) -> &Coordinator {
        &self.inner
    }
}

impl ControlPlane {
    /// Builds the plane and releases iteration 0's roots.
    pub fn new(
        plan: TokenPlan,
        cfg: FelaConfig,
        meta: Vec<LevelMeta>,
        n_workers: usize,
        max_iterations: u64,
    ) -> Self {
        Self::wrap(Coordinator::new(plan, cfg, meta, n_workers, max_iterations))
    }

    /// Rebuilds a plane from a snapshot + token table in id order (the WAL
    /// recovery path; see [`Coordinator::restore`]).
    #[allow(clippy::too_many_arguments)]
    pub fn restore(
        plan: TokenPlan,
        cfg: FelaConfig,
        meta: Vec<LevelMeta>,
        n_workers: usize,
        max_iterations: u64,
        tokens: Vec<Token>,
        snap: &ServerSnapshot,
    ) -> Result<Self, ScheduleError> {
        Coordinator::restore(plan, cfg, meta, n_workers, max_iterations, tokens, snap)
            .map(Self::wrap)
    }

    fn wrap(inner: Coordinator) -> Self {
        ControlPlane {
            inner,
            log: None,
            wal: None,
        }
    }

    /// Turns on operation recording: every subsequent mutating call appends
    /// one [`CoordOp`] to the log. Off by default (zero overhead).
    pub fn enable_op_log(&mut self) {
        if self.log.is_none() {
            self.log = Some(Vec::new());
        }
    }

    /// Whether operation recording is on.
    pub fn op_log_enabled(&self) -> bool {
        self.log.is_some()
    }

    /// Drains and returns the recorded operations (empty if recording is
    /// off). Recording stays enabled.
    pub fn take_op_log(&mut self) -> Vec<CoordOp> {
        match &mut self.log {
            Some(log) => std::mem::take(log),
            None => Vec::new(),
        }
    }

    /// Attaches a write-ahead log: writes the opening `Begin` record and
    /// makes every subsequent mutating call stage one op record, made
    /// durable by the next [`Self::commit_wal`]. No checkpoint cadence:
    /// [`Self::open_wal`] sets one.
    pub fn attach_wal(&mut self, sink: Box<dyn WalSink>) -> io::Result<()> {
        let mut wal = Wal {
            writer: WalWriter::new(sink),
            checkpoint_every: 0,
            last_checkpoint: 0,
            commits: 0,
        };
        wal.writer
            .append_begin(self.n_workers() as u32, self.max_iterations());
        wal.commit()?;
        self.wal = Some(wal);
        Ok(())
    }

    /// Makes every op staged since the last commit durable, with one write
    /// and one sync — the group commit a runtime calls before any result
    /// leaves the process. No-op when no log is attached or nothing is
    /// staged.
    pub fn commit_wal(&mut self) -> io::Result<()> {
        match &mut self.wal {
            Some(wal) => wal.commit(),
            None => Ok(()),
        }
    }

    /// Commits that synced data since the log was attached, across restarts
    /// (0 without a log).
    pub fn wal_commits(&self) -> u64 {
        self.wal.as_ref().map_or(0, |wal| wal.commits)
    }

    /// Opens the run's log: a [`FileWal`] at [`wal_path`] under
    /// `opts.wal_dir` (creating the directory), or a [`MemWal`] when no
    /// directory is set. Attaches it and checkpoints every
    /// `opts.checkpoint_every` completed iterations from then on.
    pub fn open_wal(&mut self, opts: &DurabilityOptions) -> io::Result<()> {
        let sink: Box<dyn WalSink> = match &opts.wal_dir {
            Some(dir) => {
                let path = wal_path(dir);
                let file = std::fs::create_dir_all(dir).and_then(|()| FileWal::create(&path));
                Box::new(file.map_err(|e| {
                    io::Error::new(
                        e.kind(),
                        format!("cannot create WAL {}: {e}", path.display()),
                    )
                })?)
            }
            None => Box::new(MemWal::new()),
        };
        self.attach_wal(sink)?;
        if let Some(wal) = &mut self.wal {
            wal.checkpoint_every = opts.checkpoint_every;
        }
        Ok(())
    }

    /// Appends a full-state checkpoint (snapshot + token table + the opaque
    /// runtime `payload`) to the attached log and syncs it, in one commit
    /// with the ops staged ahead of it. No-op when no log is attached.
    pub fn checkpoint_wal(&mut self, payload: &[u8]) -> io::Result<()> {
        let Some(wal) = &mut self.wal else {
            return Ok(());
        };
        wal.writer
            .append_checkpoint(payload, self.inner.tokens(), &self.inner.snapshot());
        wal.commit()
    }

    /// Writes a checkpoint when the completed-iteration count has crossed a
    /// multiple of the cadence [`Self::open_wal`] set since the last one.
    /// `payload` is built only then. Scheduling is untouched — the log only
    /// grows — so a durable crash-free run behaves exactly like one without
    /// a log.
    pub fn checkpoint_due(&mut self, payload: impl FnOnce() -> Vec<u8>) -> io::Result<()> {
        let Some(wal) = &mut self.wal else {
            return Ok(());
        };
        let done = self.inner.completed_iterations();
        let every = wal.checkpoint_every;
        if every == 0 || done / every <= wal.last_checkpoint / every {
            return Ok(());
        }
        wal.last_checkpoint = done;
        self.checkpoint_wal(&payload())
    }

    /// The Token Server process dies and a new one recovers from the log it
    /// left: read the log back, [`wal::recover`] the plane it describes,
    /// cut the torn tail off, and resume the writer on the same log at the
    /// next sequence number, with the same checkpoint cadence. The
    /// volatile op log and the uncommitted stage die with the process: the
    /// restarted plane is the one at the last commit, and the ops it lost
    /// are ones whose results no worker has seen.
    ///
    /// Returns the latest checkpoint's payload and the ops replayed after it,
    /// from which a runtime rebuilds its own volatile state.
    ///
    /// # Errors
    /// `InvalidInput` when no log is attached, `InvalidData` when the log
    /// does not recover, and any error of the log store.
    ///
    /// # Panics
    /// When the recovered plane with the dropped stage replayed on top
    /// differs from this plane in snapshot or token table: the log then lost
    /// or altered a decision.
    pub fn crash_restart(&mut self) -> io::Result<(Vec<u8>, Vec<CoordOp>)> {
        let Some(wal) = self.wal.take() else {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "server crash injected without a write-ahead log attached",
            ));
        };
        let invalid = |e: wal::WalError| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("WAL recovery failed: {e}"),
            )
        };
        let (mut sink, staged) = wal.writer.into_parts();
        let bytes = sink.read_back()?;
        let Recovered {
            mut plane,
            payload,
            ops,
            torn_bytes,
            next_seq,
        } = wal::recover(
            &bytes,
            self.plan(),
            self.config(),
            self.meta(),
            self.n_workers(),
            self.max_iterations(),
        )
        .map_err(invalid)?;
        // The committed log plus the dropped stage must rebuild exactly the
        // plane that crashed: replay the staged ops on a copy.
        let mut full = plane.clone();
        for record in wal::read_log(&staged).map_err(invalid)?.records {
            if let WalRecord::Op { seq, op } = record {
                assert_eq!(
                    oplog::apply_op(&mut full, &op.kind),
                    op.outcome,
                    "staged op {seq} must replay onto the recovered plane"
                );
            }
        }
        assert_eq!(
            full.snapshot(),
            self.snapshot(),
            "recovered plane plus the dropped stage must be snapshot-equal to the crashed one"
        );
        assert_eq!(
            full.tokens(),
            self.tokens(),
            "recovered token table plus the dropped stage must match the crashed one"
        );
        sink.truncate(bytes.len() - torn_bytes)?;
        plane.wal = Some(Wal {
            writer: WalWriter::resume(sink, next_seq),
            ..wal
        });
        *self = plane;
        Ok((payload, ops))
    }

    /// True when a mutating call must compute its [`CoordOp`] digest (either
    /// sink is attached).
    fn recording(&self) -> bool {
        self.log.is_some() || self.wal.is_some()
    }

    /// Stages the op in the log (made durable by the next
    /// [`Self::commit_wal`]) and appends it to the op log.
    fn record(&mut self, kind: OpKind, outcome: OpOutcome) {
        let op = CoordOp { kind, outcome };
        if let Some(Wal { writer, .. }) = &mut self.wal {
            writer.append_op(&op);
        }
        if let Some(log) = &mut self.log {
            log.push(op);
        }
    }

    /// A worker asks for a token at `now` ([`Coordinator::request`]).
    pub fn request(&mut self, worker: usize, now: SimTime) -> Result<Option<Grant>, ScheduleError> {
        let result = self.inner.request(worker, now);
        if self.recording() {
            let outcome = oplog::outcome_of_request(worker, &result);
            self.record(OpKind::Request { worker, now }, outcome);
        }
        result
    }

    /// Serves the longest-waiting worker that can now be granted
    /// ([`Coordinator::pop_ready_grant`]).
    pub fn pop_ready_grant(
        &mut self,
        now: SimTime,
    ) -> Result<Option<(usize, Grant)>, ScheduleError> {
        let result = self.inner.pop_ready_grant(now);
        if self.recording() {
            let outcome = oplog::outcome_of_pop(&result);
            self.record(OpKind::PopReadyGrant { now }, outcome);
        }
        result
    }

    /// Drains every currently servable waiting worker into `out` — the
    /// batched grant path. Implemented as the repeated-pop loop so the op-log
    /// (and therefore lockstep byte-identity against the oracle) records
    /// exactly the same [`OpKind::PopReadyGrant`] sequence a one-at-a-time
    /// caller would have produced.
    pub fn drain_ready_grants(
        &mut self,
        now: SimTime,
        out: &mut Vec<(usize, Grant)>,
    ) -> Result<(), ScheduleError> {
        while let Some(pair) = self.pop_ready_grant(now)? {
            out.push(pair);
        }
        Ok(())
    }

    /// A worker reports a completed token ([`Coordinator::report`]).
    pub fn report(
        &mut self,
        worker: usize,
        token: TokenId,
    ) -> Result<Vec<SyncSpec>, ScheduleError> {
        let result = self.inner.report(worker, token);
        if self.recording() {
            let outcome = oplog::outcome_of_report(&result);
            self.record(
                OpKind::Report {
                    worker,
                    token: token.0,
                },
                outcome,
            );
        }
        result
    }

    /// Marks a level's parameter sync for `iteration` finished
    /// ([`Coordinator::sync_finished`]).
    pub fn sync_finished(&mut self, level: usize, iteration: u64) -> Result<(), ScheduleError> {
        let result = self.inner.sync_finished(level, iteration);
        if self.recording() {
            let outcome = oplog::outcome_of_unit(&result);
            self.record(OpKind::SyncFinished { level, iteration }, outcome);
        }
        result
    }

    /// Handles a crash notification for `worker`
    /// ([`Coordinator::worker_crashed`]).
    pub fn worker_crashed(&mut self, worker: usize) -> Result<Vec<TokenId>, ScheduleError> {
        let result = self.inner.worker_crashed(worker);
        if self.recording() {
            let outcome = oplog::outcome_of_crash(&result);
            self.record(OpKind::WorkerCrashed { worker }, outcome);
        }
        result
    }

    /// Handles a restart notification for `worker`
    /// ([`Coordinator::worker_restarted`]).
    pub fn worker_restarted(&mut self, worker: usize) -> Result<(), ScheduleError> {
        let result = self.inner.worker_restarted(worker);
        if self.recording() {
            let outcome = oplog::outcome_of_unit(&result);
            self.record(OpKind::WorkerRestarted { worker }, outcome);
        }
        result
    }

    /// Handles a lease-deadline expiry for `(token, attempt)`
    /// ([`Coordinator::lease_expired`]).
    pub fn lease_expired(
        &mut self,
        token: TokenId,
        attempt: u64,
    ) -> Result<Option<ExpiredLease>, ScheduleError> {
        let result = self.inner.lease_expired(token, attempt);
        if self.recording() {
            let outcome = oplog::outcome_of_expiry(&result);
            self.record(
                OpKind::LeaseExpired {
                    token: token.0,
                    attempt,
                },
                outcome,
            );
        }
        result
    }
}

impl OpTarget for ControlPlane {
    fn request(&mut self, worker: usize, now: SimTime) -> Result<Option<Grant>, ScheduleError> {
        ControlPlane::request(self, worker, now)
    }

    fn pop_ready_grant(&mut self, now: SimTime) -> Result<Option<(usize, Grant)>, ScheduleError> {
        ControlPlane::pop_ready_grant(self, now)
    }

    fn report(&mut self, worker: usize, token: TokenId) -> Result<Vec<SyncSpec>, ScheduleError> {
        ControlPlane::report(self, worker, token)
    }

    fn sync_finished(&mut self, level: usize, iteration: u64) -> Result<(), ScheduleError> {
        ControlPlane::sync_finished(self, level, iteration)
    }

    fn worker_crashed(&mut self, worker: usize) -> Result<Vec<TokenId>, ScheduleError> {
        ControlPlane::worker_crashed(self, worker)
    }

    fn worker_restarted(&mut self, worker: usize) -> Result<(), ScheduleError> {
        ControlPlane::worker_restarted(self, worker)
    }

    fn lease_expired(
        &mut self,
        token: TokenId,
        attempt: u64,
    ) -> Result<Option<ExpiredLease>, ScheduleError> {
        ControlPlane::lease_expired(self, token, attempt)
    }
}
