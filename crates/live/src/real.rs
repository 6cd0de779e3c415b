//! Real-clock live runs: the Token Server as a wall-clock service.
//!
//! Unlike virtual mode (which *is* the simulator), real mode drives
//! [`fela_core::ControlPlane`] directly: worker threads pull tokens over the wire, sleep
//! the modeled compute span scaled by `time_scale`, and report; the server
//! maps real elapsed nanoseconds onto [`SimTime`] for the scheduling policies
//! and runs leases, faults and restarts off a wall-clock timer heap. Data
//! movement is not emulated — this is a **control-plane** runtime: parameter
//! syncs commit degenerately the moment a level's last report lands
//! (`sync_finished` immediately), so the measured quantity is
//! pure token-protocol throughput.
//!
//! Model training is still exact: accepted reports are logged server-side,
//! relabeled into engine schedules (see [`crate::replay`]) and broadcast to
//! every surviving worker at the end of the run. [`fela_engine`]'s executor
//! is schedule-invariant, so even a nondeterministically-ordered TCP run
//! produces bit-identical final parameters on every replica.
//!
//! Fault injection reuses the scenario's [`FaultModel`](fela_cluster::FaultModel)
//! verbatim: `Crash` closes the victim's link (its thread dies on the broken
//! connection), `CrashRestart`/`LinkDown` additionally arm a timer that
//! reconnects via [`Transport::extra_link`] and respawns the worker, and
//! `Hang` ships a `Hang` frame that freezes the victim long enough for its
//! lease to expire on the server.
//!
//! ## The grant hot path
//!
//! The server is a **single poll loop** over nonblocking receive halves — no
//! per-worker pump threads, no inbox channel. Each sweep fires due timers,
//! drains every link via [`LinkRx::try_recv`], queues the grants each frame
//! produces (a report piggybacks up to [`RealOptions::pipeline`] pulls), and
//! flushes a worker's queued grants **eagerly** — as soon as the frame that
//! produced them is handled — as one `GrantBatch` frame + one transport
//! write, whatever the batch length. The worker computes the batch as one
//! coalesced sleep and answers with one `ReportBatch`, so per-token cost on
//! both sides is `O(1/pipeline)` syscalls and wakeups.
//!
//! Probes are pruned by protocol accounting rather than readiness syscalls:
//! each link owes exactly one inbound frame per (re)spawn plus one reply per
//! flushed batch (`expect_replies`), and a reply cannot arrive before the
//! batch's scaled span has elapsed (`quiet_until`), so the sweep skips every
//! socket that provably has nothing to say. The waiting-worker queue is
//! re-scanned only on events that can actually release tokens — a committed
//! sync, a fault action, or a timer — with a catch-all re-scan before any
//! idle sleep so a missed edge delays a waiter, never stalls it.
//!
//! An idle sweep first *yields* for a bounded streak (a level barrier's
//! reports are microseconds away, and on small core counts `yield_now`
//! reschedules the worker threads directly), then falls back to sleeping
//! with exponential backoff (10µs → 500µs), capped by the next timer
//! deadline computed with `saturating_duration_since` — an already-expired
//! deadline fires immediately instead of underflowing.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::io;
use std::thread;
use std::time::{Duration, Instant};

use fela_cluster::{FaultKind, Scenario};
use fela_core::wal::{decode_u64_pairs, encode_u64_pairs};
use fela_core::{
    ControlPlane, DurabilityOptions, FelaConfig, FelaRuntime, Grant, LevelMeta, OpKind, OpOutcome,
    RecoveryConfig, ScheduleError, TokenId, TokenPlan,
};
use fela_model::Partition;
use fela_sim::{SimDuration, SimTime};

use crate::replay::replay_schedules;
use crate::sched::{pass, Endpoint, SharedSched, SyncEvent};
use crate::transport::{LinkRx, LinkTx, Transport};
use crate::wire::{Frame, WireGrant};
use crate::worker::{spawn_worker, WorkerSpec};

/// Tuning knobs for a real-clock run.
#[derive(Clone, Copy, Debug)]
pub struct RealOptions {
    /// Real seconds slept per modeled second. Small values (1e-4..1e-2) turn
    /// multi-minute modeled runs into sub-second smoke runs.
    pub time_scale: f64,
    /// Floor on real lease deadlines, defending tiny `time_scale` values
    /// against thread-scheduler jitter causing spurious revocations.
    pub min_lease: Duration,
    /// Floor on real restart downtime.
    pub min_down: Duration,
    /// Maximum tokens pulled per worker per report (grant pipelining): each
    /// report piggybacks up to this many requests and the resulting grants
    /// ship as one `GrantBatch` frame. `1` restores the strict one-token
    /// request/grant/report cycle, as batches of one.
    pub pipeline: usize,
}

impl Default for RealOptions {
    fn default() -> Self {
        RealOptions {
            time_scale: 1e-3,
            min_lease: Duration::from_millis(50),
            min_down: Duration::from_millis(20),
            pipeline: 8,
        }
    }
}

/// Result of a real-clock live run.
#[derive(Clone, Debug)]
pub struct RealOutcome {
    /// Real wall-clock seconds the run took.
    pub elapsed_secs: f64,
    /// Iterations committed (equals the scenario's iteration count).
    pub iterations: u64,
    /// Tokens granted by the server (including re-grants after revocation).
    pub grants: u64,
    /// Accepted token reports per second of wall clock.
    pub tokens_per_sec: f64,
    /// Accepted reports per worker.
    pub trained_per_worker: Vec<u64>,
    /// Reports discarded because the reporter had lost its lease.
    pub stale_reports: u64,
    /// Injected crashes (including crash-restart and link-down).
    pub crashes: u64,
    /// Workers that rejoined after a crash.
    pub restarts: u64,
    /// Leases revoked (expiry or crash).
    pub revocations: u64,
    /// Token Server process crashes injected (recovered from the WAL).
    pub server_crashes: u64,
    /// Token Server recoveries completed.
    pub server_restarts: u64,
    /// Write-ahead log commits that synced data (0 without a log): one per
    /// grant flush that followed new ops, plus the opening record and every
    /// checkpoint.
    pub wal_commits: u64,
    /// Final model parameters (bit-identical on every surviving replica and
    /// to the server's reference replay).
    pub params: Vec<u8>,
    /// Transport used.
    pub transport: &'static str,
}

enum Timer {
    Lease { token: TokenId, attempt: u64 },
    Restart { worker: usize },
}

struct TimerEntry {
    at: Instant,
    seq: u64,
    timer: Timer,
}

impl PartialEq for TimerEntry {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}
impl Eq for TimerEntry {}
impl PartialOrd for TimerEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for TimerEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

struct RealServer<'a> {
    server: ControlPlane,
    scenario: &'a Scenario,
    partition: Partition,
    plan: TokenPlan,
    opts: RealOptions,
    recovery: Option<RecoveryConfig>,
    started: Instant,
    /// Send half per worker; `None` after we closed the link (crash).
    txs: Vec<Option<LinkTx>>,
    /// Receive half per worker, polled nonblockingly by the server loop;
    /// `None` once the link died and its close was processed.
    rxs: Vec<Option<LinkRx>>,
    /// Grants queued per worker, flushed as one `GrantBatch` per sweep.
    pending: Vec<Vec<Grant>>,
    /// Per-worker probe hint: no reply can arrive before the granted batch's
    /// scaled span elapses, so the sweep skips the socket until then. Purely
    /// an optimization — a stale hint only delays a probe, never loses one.
    quiet_until: Vec<Instant>,
    /// Inbound frames still expected per link: one for the initial `Request`
    /// after (re)spawn plus one reply per flushed batch. A worker with zero
    /// expected frames is silent by protocol (pulls are piggybacked
    /// server-side), so the sweep skips its socket entirely.
    expect_replies: Vec<u32>,
    /// Reusable drain buffer for [`ControlPlane::drain_ready_grants`].
    scratch: Vec<(usize, Grant)>,
    /// `(iteration, level)` of every in-flight granted token, so a report
    /// doesn't pay a token-table lookup on the hot path.
    token_info: std::collections::HashMap<TokenId, (u64, usize)>,
    /// Memoized `compute_secs` per `(level, batch, worker)` — the analytic
    /// model walk is deterministic, and flushing re-prices every grant.
    span_cache: std::collections::HashMap<(usize, u64, usize), f64>,
    timers: BinaryHeap<Reverse<TimerEntry>>,
    timer_seq: u64,
    /// Accepted reports in arrival order: `(iteration, level)`.
    completions: Vec<(u64, usize)>,
    faults_armed: u64,
    stale_reports: u64,
    crashes: u64,
    restarts: u64,
    revocations: u64,
    server_crashes: u64,
    server_restarts: u64,
    sched: SharedSched,
}

impl RealServer<'_> {
    fn now_sim(&self) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs_f64(self.started.elapsed().as_secs_f64())
    }

    fn arm_timer(&mut self, at: Instant, timer: Timer) {
        self.timer_seq += 1;
        self.timers.push(Reverse(TimerEntry {
            at,
            seq: self.timer_seq,
            timer,
        }));
    }

    fn worker_spec(&self, index: usize, pull: bool) -> WorkerSpec {
        WorkerSpec {
            index,
            scenario: self.scenario.clone(),
            plan: self.plan.clone(),
            time_scale: self.opts.time_scale,
            pull,
            sched: self.sched.clone(),
        }
    }

    /// Modeled compute seconds for one grant on `worker`, straggler included —
    /// what the worker will sleep (before `time_scale`).
    fn base_secs(&mut self, worker: usize, grant: &Grant) -> f64 {
        let key = (grant.token.level, grant.token.batch, worker);
        let compute = match self.span_cache.get(&key) {
            Some(&secs) => secs,
            None => {
                let sm = &self.partition.sub_models()[grant.token.level];
                let secs = self.scenario.cluster.compute_secs(
                    &self.scenario.model,
                    sm.unit_start,
                    sm.unit_end,
                    grant.token.batch,
                    worker,
                );
                self.span_cache.insert(key, secs);
                secs
            }
        };
        compute
            + self
                .scenario
                .straggler_delay(grant.token.iteration, worker)
                .as_secs_f64()
    }

    /// Queues a grant for `worker`; shipped by the sweep's [`Self::flush_grants`].
    fn queue_grant(&mut self, worker: usize, grant: Grant) {
        self.token_info
            .insert(grant.token.id, (grant.token.iteration, grant.token.level));
        self.pending[worker].push(grant);
    }

    /// Pulls up to `pipeline` tokens for `worker` into its pending batch. The
    /// first starved request stops the loop (the worker is then queued
    /// server-side and served later by [`Self::drain_ready`]).
    fn pull_into(&mut self, worker: usize) {
        for _ in 0..self.opts.pipeline.max(1) {
            match self.server.request(worker, self.now_sim()) {
                Ok(Some(grant)) => self.queue_grant(worker, grant),
                Ok(None) => break,
                Err(ScheduleError::WorkerUnavailable { .. }) => break,
                Err(e) => panic!("Fela scheduler invariant violated: {e}"),
            }
        }
    }

    /// Queues a grant for every waiting worker whose turn has come.
    fn drain_ready(&mut self) {
        let now = self.now_sim();
        let mut ready = std::mem::take(&mut self.scratch);
        if let Err(e) = self.server.drain_ready_grants(now, &mut ready) {
            panic!("Fela scheduler invariant violated: {e}");
        }
        for (worker, grant) in ready.drain(..) {
            self.queue_grant(worker, grant);
        }
        self.scratch = ready;
    }

    /// Ships every queued grant: one `GrantBatch` frame and one transport
    /// flush per worker. Before the first frame leaves, one
    /// [`ControlPlane::commit_wal`] makes every op staged so far durable —
    /// the group commit — and a failed commit stops the run with no grant
    /// sent. Leases are armed here, at send time, sized to the
    /// **cumulative** batch span — the worker computes the batch serially
    /// and reports it with one frame at the end, so every lease in the
    /// batch must survive until the whole batch lands.
    fn flush_grants(&mut self) -> io::Result<()> {
        let mut committed = false;
        for worker in 0..self.pending.len() {
            if self.pending[worker].is_empty() {
                continue;
            }
            if !committed {
                self.server.commit_wal()?;
                committed = true;
            }
            let grants = std::mem::take(&mut self.pending[worker]);
            let frame = Frame::GrantBatch {
                grants: grants
                    .iter()
                    .map(|g| {
                        let sm = &self.partition.sub_models()[g.token.level];
                        WireGrant {
                            token: g.token.id.0,
                            level: g.token.level as u32,
                            iteration: g.token.iteration,
                            batch: g.token.batch,
                            unit_start: sm.unit_start as u32,
                            unit_end: sm.unit_end as u32,
                        }
                    })
                    .collect(),
            };
            let sent = match self.txs[worker].as_mut() {
                Some(tx) => tx.queue(&frame).and_then(|()| tx.flush()).is_ok(),
                // Link already closed (crash injection): `worker_crashed`
                // revoked these grants, nothing to send.
                None => false,
            };
            if !sent {
                // Worker died under us; the sweep's close handling reclaims.
                continue;
            }
            self.expect_replies[worker] += 1;
            let mut total = 0.0;
            for g in &grants {
                total += self.base_secs(worker, g);
            }
            // The worker starts sleeping the whole scaled batch span strictly
            // after this flush, so its reply cannot arrive before the full
            // span has elapsed — probing earlier is a guaranteed-empty
            // syscall, and skipping until then is safe by construction.
            self.quiet_until[worker] =
                Instant::now() + Duration::from_secs_f64(total * self.opts.time_scale);
            if let Some(rec) = self.recovery {
                for g in &grants {
                    let backoff = (1u64 << g.attempt.min(32)) as f64;
                    let lease = Duration::from_secs_f64(
                        (total * rec.lease_slack * backoff + rec.lease_grace.as_secs_f64())
                            * self.opts.time_scale,
                    )
                    .max(self.opts.min_lease);
                    self.arm_timer(
                        Instant::now() + lease,
                        Timer::Lease {
                            token: g.token.id,
                            attempt: g.attempt,
                        },
                    );
                }
            }
        }
        Ok(())
    }

    /// Kills a worker at the transport level and tells the server.
    fn kill(&mut self, worker: usize) {
        if let Some(mut tx) = self.txs[worker].take() {
            tx.close();
        }
        self.pending[worker].clear();
        if self.server.is_alive(worker) {
            match self.server.worker_crashed(worker) {
                Ok(revoked) => {
                    self.crashes += 1;
                    self.revocations += revoked.len() as u64;
                }
                Err(e) => panic!("Fela scheduler invariant violated: {e}"),
            }
        }
    }

    /// Appends a checkpoint when the plane's cadence says one is due
    /// ([`ControlPlane::checkpoint_due`]). The payload is the accepted-report
    /// schedule, so recovery rebuilds [`RealServer::completions`] from the
    /// checkpoint plus the short log suffix instead of the whole history.
    fn maybe_checkpoint(&mut self) -> io::Result<()> {
        let completions = &self.completions;
        self.server.checkpoint_due(|| {
            let pairs: Vec<(u64, u64)> = completions
                .iter()
                .map(|&(iteration, level)| (iteration, level as u64))
                .collect();
            encode_u64_pairs(&pairs)
        })
    }

    /// The injected Token Server crash: the server "process" dies (every
    /// worker link drops and all volatile server-side state is discarded),
    /// the downtime elapses, then a fresh process recovers from the WAL
    /// ([`ControlPlane::crash_restart`]), reconciles in-flight grants against
    /// the replayed log, and respawns the fleet over fresh links.
    fn crash_server(&mut self, down: SimDuration, transport: &mut dyn Transport) -> io::Result<()> {
        self.server_crashes += 1;
        // The server dies: every link drops, which kills the worker threads
        // on their next recv. Replicas are only mutated by the epilogue's
        // Iter frames, so no training state is lost worker-side.
        for worker in 0..self.txs.len() {
            if let Some(mut tx) = self.txs[worker].take() {
                tx.close();
            }
            self.rxs[worker] = None;
            self.pending[worker].clear();
            self.expect_replies[worker] = 0;
        }
        self.token_info.clear();
        let real_down = Duration::from_secs_f64(down.as_secs_f64() * self.opts.time_scale)
            .max(self.opts.min_down);
        thread::sleep(real_down);

        let (payload, ops) = self.server.crash_restart()?;
        // Rebuild the accepted-report schedule from the log alone — the
        // in-memory vector died with the process. Checkpoint payload first,
        // then every accepted report in the replayed suffix, in log order.
        let invalid = |e: String| io::Error::new(io::ErrorKind::InvalidData, e);
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
            let t = self.server.token(TokenId(token)).ok_or_else(|| {
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
        assert!(
            self.completions.starts_with(&replayed),
            "WAL replay reconstructed a completion schedule that is not a prefix of the accepted one"
        );
        self.completions = replayed;

        // Reconcile in-flight grants: tokens granted but never reported died
        // with the worker threads. Crash-then-restart revokes those leases
        // for immediate regrant without charging lease expiries (which would
        // quarantine innocent workers). Both transitions land in the resumed
        // log, so a second crash replays them too.
        for worker in 0..self.txs.len() {
            if !self.server.is_alive(worker) {
                continue; // a downed worker's Restart timer will revive it
            }
            match self.server.worker_crashed(worker) {
                Ok(revoked) => self.revocations += revoked.len() as u64,
                Err(e) => panic!("Fela scheduler invariant violated: {e}"),
            }
            if let Err(e) = self.server.worker_restarted(worker) {
                panic!("Fela scheduler invariant violated: {e}");
            }
        }
        // Respawn the fleet over fresh links; each worker reconnects with
        // the usual pull handshake. Workers downed by their own declared
        // faults stay down until their Restart timers fire.
        for worker in 0..self.txs.len() {
            if !self.server.is_alive(worker) {
                continue;
            }
            let (mut server_link, worker_link) = transport.extra_link(worker)?;
            server_link.instrument(self.sched.clone(), Endpoint::Server, worker);
            let (tx, mut rx) = server_link.split();
            rx.set_nonblocking(true)?;
            self.txs[worker] = Some(tx);
            self.rxs[worker] = Some(rx);
            self.quiet_until[worker] = Instant::now();
            self.expect_replies[worker] = 1;
            let _ = spawn_worker(self.worker_spec(worker, true), worker_link);
        }
        self.server_restarts += 1;
        self.drain_ready();
        Ok(())
    }

    /// Turns fault declarations into actions as root iterations are released.
    fn arm_faults(&mut self, transport: &mut dyn Transport) -> io::Result<bool> {
        if self.scenario.fault.is_none() {
            return Ok(false);
        }
        let mut acted = false;
        while self.faults_armed < self.server.released_root_iterations() {
            let it = self.faults_armed;
            for worker in 0..self.scenario.cluster.nodes {
                match self.scenario.fault_for(it, worker) {
                    None => {}
                    Some(FaultKind::Hang { stall }) => {
                        let nanos = (stall.as_secs_f64() * self.opts.time_scale * 1e9)
                            .max(self.opts.min_lease.as_nanos() as f64 * 2.0)
                            as u64;
                        // Like every server frame, the stall leaves only
                        // once the ops staged so far are durable.
                        self.server.commit_wal()?;
                        if let Some(tx) = self.txs[worker].as_mut() {
                            let _ = tx.send(&Frame::Hang { nanos });
                        }
                        acted = true;
                    }
                    Some(FaultKind::Crash) => {
                        self.kill(worker);
                        acted = true;
                    }
                    Some(FaultKind::CrashRestart { down }) | Some(FaultKind::LinkDown { down }) => {
                        self.kill(worker);
                        let real_down =
                            Duration::from_secs_f64(down.as_secs_f64() * self.opts.time_scale)
                                .max(self.opts.min_down);
                        self.arm_timer(Instant::now() + real_down, Timer::Restart { worker });
                        acted = true;
                    }
                }
            }
            if let Some(down) = self.scenario.fault.server_fault_for(it) {
                self.crash_server(down, transport)?;
                acted = true;
            }
            self.faults_armed += 1;
        }
        Ok(acted)
    }

    fn fire_timer(&mut self, timer: Timer, transport: &mut dyn Transport) -> io::Result<()> {
        match timer {
            Timer::Lease { token, attempt } => {
                self.sched.reached(&SyncEvent::LeaseFired {
                    token: token.0,
                    attempt,
                });
                match self.server.lease_expired(token, attempt) {
                    Ok(Some(expired)) => {
                        self.revocations += expired.revoked.len() as u64;
                    }
                    Ok(None) => {} // lease already satisfied or superseded
                    Err(e) => panic!("Fela scheduler invariant violated: {e}"),
                }
                self.drain_ready();
            }
            Timer::Restart { worker } => {
                self.sched.reached(&SyncEvent::RestartFired { worker });
                if self.server.is_alive(worker) {
                    return Ok(());
                }
                let (mut server_link, worker_link) = transport.extra_link(worker)?;
                server_link.instrument(self.sched.clone(), Endpoint::Server, worker);
                let (tx, mut rx) = server_link.split();
                rx.set_nonblocking(true)?;
                self.txs[worker] = Some(tx);
                self.rxs[worker] = Some(rx);
                self.quiet_until[worker] = Instant::now();
                self.expect_replies[worker] = 1;
                let _ = spawn_worker(self.worker_spec(worker, true), worker_link);
                match self.server.worker_restarted(worker) {
                    Ok(()) => self.restarts += 1,
                    Err(e) => panic!("Fela scheduler invariant violated: {e}"),
                }
                self.drain_ready();
            }
        }
        Ok(())
    }

    /// One accepted (or stale) report, one token of a `ReportBatch`.
    /// Returns `true` when a sync committed — the only event that releases
    /// new tokens, and therefore the only one worth a [`Self::drain_ready`].
    fn accept_report(&mut self, worker: usize, id: TokenId) -> bool {
        let info = self
            .token_info
            .remove(&id)
            .or_else(|| self.server.token(id).map(|t| (t.iteration, t.level)));
        match self.server.report(worker, id) {
            Ok(syncs) => {
                let Some((iteration, level)) = info else {
                    panic!("accepted report for an unknown token");
                };
                self.completions.push((iteration, level));
                let released = !syncs.is_empty();
                // Control-plane runtime: every sync commits degenerately.
                for spec in syncs {
                    if let Err(e) = self.server.sync_finished(spec.level, spec.iteration) {
                        panic!("Fela scheduler invariant violated: {e}");
                    }
                }
                released
            }
            Err(ScheduleError::StaleReport { .. }) => {
                self.stale_reports += 1;
                false
            }
            Err(e) => panic!("Fela scheduler invariant violated: {e}"),
        }
    }

    fn handle_frame(
        &mut self,
        worker: usize,
        frame: Frame,
        transport: &mut dyn Transport,
    ) -> io::Result<()> {
        match frame {
            Frame::Request { worker: w } => {
                debug_assert_eq!(w as usize, worker);
                self.pull_into(worker);
            }
            Frame::ReportBatch { worker: w, tokens } => {
                debug_assert_eq!(w as usize, worker);
                let mut released = false;
                for token in tokens {
                    released |= self.accept_report(worker, TokenId(token));
                }
                self.maybe_checkpoint()?;
                // Piggybacked pull, exactly like the simulated control plane —
                // widened to the pipeline depth.
                self.pull_into(worker);
                // Only a committed sync (or a fault action) can make a
                // *waiting* worker servable, so skip the drain scan otherwise.
                if self.arm_faults(transport)? || released {
                    self.drain_ready();
                }
            }
            other => panic!("server: unexpected frame from worker {worker}: {other:?}"),
        }
        Ok(())
    }
}

/// Runs `scenario` live in real-clock mode over `transport`, under the
/// default pass-through scheduler.
pub fn run_real(
    config: &FelaConfig,
    scenario: &Scenario,
    transport: &mut dyn Transport,
    opts: RealOptions,
) -> io::Result<RealOutcome> {
    run_real_with(config, scenario, transport, opts, pass())
}

/// [`run_real`] with an explicit [`Sched`](crate::sched::Sched): every link
/// on both endpoints, every server inbox dequeue, and every timer fire yields
/// to `sched`. Under [`pass`] this is the uninstrumented run.
pub fn run_real_with(
    config: &FelaConfig,
    scenario: &Scenario,
    transport: &mut dyn Transport,
    opts: RealOptions,
    sched: SharedSched,
) -> io::Result<RealOutcome> {
    run_real_impl(config, scenario, transport, opts, sched, |server| {
        open_declared_wal(server, None, scenario)
    })
}

/// [`run_real`] with a durable control plane: every control-plane transition
/// is write-ahead logged (to `fela.wal` under `durability.wal_dir`, or an
/// in-memory sink when unset) and the accepted-report schedule is
/// checkpointed every `durability.checkpoint_every` completed iterations, so
/// an injected [`fela_cluster::FaultModel::ServerCrashRestart`] recovers
/// mid-iteration instead of restarting the job from scratch.
pub fn run_real_durable(
    config: &FelaConfig,
    scenario: &Scenario,
    transport: &mut dyn Transport,
    opts: RealOptions,
    durability: &DurabilityOptions,
) -> io::Result<RealOutcome> {
    run_real_impl(config, scenario, transport, opts, pass(), |server| {
        open_declared_wal(server, Some(durability), scenario)
    })
}

/// Opens the plane's log when the caller asked for durability or the
/// scenario declares a server fault: the run cannot survive that crash
/// without a log to recover from.
fn open_declared_wal(
    server: &mut ControlPlane,
    explicit: Option<&DurabilityOptions>,
    scenario: &Scenario,
) -> io::Result<()> {
    match DurabilityOptions::for_run(explicit, scenario) {
        Some(durability) => server.open_wal(&durability),
        None => Ok(()),
    }
}

/// The run itself; `open_wal` attaches the plane's log, if any.
fn run_real_impl(
    config: &FelaConfig,
    scenario: &Scenario,
    transport: &mut dyn Transport,
    opts: RealOptions,
    sched: SharedSched,
    open_wal: impl FnOnce(&mut ControlPlane) -> io::Result<()>,
) -> io::Result<RealOutcome> {
    scenario.cluster.validate();
    scenario.fault.validate().map_err(|e| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("invalid fault model: {e}"),
        )
    })?;
    let mut config = config.clone();
    if !scenario.fault.is_none() && config.recovery.is_none() {
        config.recovery = Some(RecoveryConfig::default());
    }
    let runtime = FelaRuntime::new(config.clone());
    let partition = runtime.partition_for(scenario);
    let plan = TokenPlan::build(
        &partition,
        &config,
        scenario.total_batch,
        scenario.cluster.nodes,
    )
    .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
    let n = scenario.cluster.nodes;
    let mut server = ControlPlane::new(
        plan.clone(),
        config.clone(),
        LevelMeta::for_partition(&partition),
        n,
        scenario.iterations,
    );
    open_wal(&mut server)?;

    let (server_links, worker_links) = transport.establish(n)?;
    let mut txs = Vec::with_capacity(n);
    let mut rxs = Vec::with_capacity(n);
    for (w, mut link) in server_links.into_iter().enumerate() {
        link.instrument(sched.clone(), Endpoint::Server, w);
        let (tx, mut rx) = link.split();
        rx.set_nonblocking(true)?;
        txs.push(Some(tx));
        rxs.push(Some(rx));
    }

    let recovery = if !scenario.fault.is_none() {
        config.recovery
    } else {
        None
    };
    let mut rs = RealServer {
        server,
        scenario,
        partition,
        plan,
        opts,
        recovery,
        started: Instant::now(),
        txs,
        rxs,
        pending: vec![Vec::new(); n],
        quiet_until: vec![Instant::now(); n],
        expect_replies: vec![1; n],
        scratch: Vec::new(),
        token_info: std::collections::HashMap::new(),
        span_cache: std::collections::HashMap::new(),
        timers: BinaryHeap::new(),
        timer_seq: 0,
        completions: Vec::new(),
        faults_armed: 0,
        stale_reports: 0,
        crashes: 0,
        restarts: 0,
        revocations: 0,
        server_crashes: 0,
        server_restarts: 0,
        sched: sched.clone(),
    };

    // Spawn the fleet, then start the measured clock: thread creation is a
    // startup artifact (64 spawns cost a couple of milliseconds on a small
    // box) and would otherwise be billed to token-protocol throughput.
    for (index, link) in worker_links.into_iter().enumerate() {
        let _ = spawn_worker(rs.worker_spec(index, true), link);
    }
    rs.started = Instant::now();
    rs.arm_faults(transport)?;

    // The poll loop. Each sweep: fire due timers, drain every link, flush
    // queued grants. An idle sweep first *yields* for a bounded streak —
    // under a level barrier the reports are microseconds away, and on a
    // small core count `yield_now` reschedules the worker threads directly,
    // whereas even a 10µs sleep pays timer-slack latency per wave. Only a
    // long idle streak (a real lease/restart wait) falls back to sleeping,
    // exponentially backed off and capped by the next timer deadline. All
    // deadline arithmetic saturates, so a deadline already in the past fires
    // immediately instead of panicking.
    const SPIN_SWEEPS: u32 = 256;
    const IDLE_MIN: Duration = Duration::from_micros(10);
    const IDLE_MAX: Duration = Duration::from_micros(500);
    let mut idle_streak = 0u32;
    let mut idle = IDLE_MIN;
    while !rs.server.run_complete() {
        while let Some(Reverse(entry)) = rs.timers.peek() {
            if entry.at > Instant::now() {
                break;
            }
            let Some(Reverse(entry)) = rs.timers.pop() else {
                unreachable!("peek returned a deadline but pop found nothing");
            };
            rs.fire_timer(entry.timer, transport)?;
        }
        let mut progressed = false;
        let sweep_now = Instant::now();
        for worker in 0..n {
            if rs.expect_replies[worker] == 0 || rs.quiet_until[worker] > sweep_now {
                continue;
            }
            while let Some(rx) = rs.rxs[worker].as_mut() {
                match rx.try_recv() {
                    Ok(Some(frame)) => {
                        rs.expect_replies[worker] = rs.expect_replies[worker].saturating_sub(1);
                        rs.sched.reached(&SyncEvent::InboxDequeued {
                            worker,
                            frame: Some(frame.clone()),
                        });
                        rs.handle_frame(worker, frame, transport)?;
                        // Flush eagerly: the grants this frame produced (for
                        // this worker *and* any drained waiters) ship now
                        // instead of after the rest of the sweep — same
                        // number of writes, tens of µs less turnaround.
                        rs.flush_grants()?;
                        progressed = true;
                        if rs.server.run_complete() {
                            break;
                        }
                    }
                    Ok(None) => break,
                    Err(_) => {
                        // We closed the link ourselves (crash injection) — or
                        // the thread died unexpectedly, which the server
                        // treats the same.
                        rs.sched.reached(&SyncEvent::InboxDequeued {
                            worker,
                            frame: None,
                        });
                        rs.rxs[worker] = None;
                        if rs.server.is_alive(worker) && rs.txs[worker].is_some() {
                            rs.kill(worker);
                            rs.drain_ready();
                        }
                        progressed = true;
                        break;
                    }
                }
            }
            if rs.server.run_complete() {
                break;
            }
        }
        rs.flush_grants()?;
        if progressed {
            idle_streak = 0;
            idle = IDLE_MIN;
            continue;
        }
        idle_streak += 1;
        if idle_streak <= SPIN_SWEEPS && rs.timers.peek().is_none() {
            thread::yield_now();
            continue;
        }
        // Catch-all before sleeping: re-scan the waiting queue once, so a
        // skipped drain (reports without a committed sync) can only delay a
        // waiter by one spin streak, never stall it.
        rs.drain_ready();
        rs.flush_grants()?;
        let sleep = match rs.timers.peek() {
            Some(Reverse(entry)) => entry.at.saturating_duration_since(Instant::now()).min(idle),
            None => idle,
        };
        if !sleep.is_zero() {
            thread::sleep(sleep);
        }
        idle = (idle * 2).min(IDLE_MAX);
    }
    let elapsed = rs.started.elapsed();

    // Broadcast the relabeled schedules and collect every replica's params.
    let mut schedules: Vec<Vec<(usize, usize)>> = Vec::new();
    {
        let mut next_rank: Vec<std::collections::HashMap<usize, usize>> = Vec::new();
        for &(iteration, level) in &rs.completions {
            let it = iteration as usize;
            while schedules.len() <= it {
                schedules.push(Vec::new());
                next_rank.push(Default::default());
            }
            let rank = next_rank[it].entry(level).or_insert(0);
            schedules[it].push((level, *rank));
            *rank += 1;
        }
    }
    let reference = replay_schedules(&rs.plan, &schedules);
    // The Iter frames reveal the completion schedule: the ops behind it are
    // durable before the first one leaves.
    rs.server.commit_wal()?;
    let mut waiting = Vec::new();
    for worker in 0..n {
        let Some(tx) = rs.txs[worker].as_mut() else {
            continue;
        };
        // The whole epilogue — every Iter frame plus End — ships as one
        // queued batch and a single flush per worker.
        let mut ok = true;
        for (iteration, schedule) in schedules.iter().enumerate() {
            if tx
                .queue(&Frame::Iter {
                    iteration: iteration as u64,
                    schedule: schedule
                        .iter()
                        .map(|&(l, j)| (l as u32, j as u32))
                        .collect(),
                })
                .is_err()
            {
                ok = false;
                break;
            }
        }
        if ok && tx.queue(&Frame::End).is_ok() && tx.flush().is_ok() {
            waiting.push(worker);
        }
    }
    let mut collected = 0usize;
    let deadline = Instant::now() + Duration::from_secs(30);
    while collected < waiting.len() {
        let mut progressed = false;
        for &worker in &waiting {
            let polled = match rs.rxs[worker].as_mut() {
                Some(rx) => rx.try_recv(),
                None => continue,
            };
            match polled {
                Ok(Some(Frame::Params { bytes })) => {
                    assert_eq!(
                        bytes, reference,
                        "worker {worker}: replica parameters diverged from the reference replay"
                    );
                    collected += 1;
                    progressed = true;
                }
                // Late reports/requests from still-draining workers.
                Ok(Some(_)) => progressed = true,
                Ok(None) => {}
                // The worker closes its link on exit; buffered frames were
                // parsed first, so a close here means no Params will come.
                Err(_) => rs.rxs[worker] = None,
            }
        }
        if collected < waiting.len() && !progressed {
            if deadline.saturating_duration_since(Instant::now()).is_zero() {
                panic!("timed out collecting final parameters");
            }
            thread::sleep(Duration::from_micros(200));
        }
    }

    let trained = rs.server.trained_per_worker().to_vec();
    let tokens: u64 = trained.iter().sum();
    Ok(RealOutcome {
        elapsed_secs: elapsed.as_secs_f64(),
        iterations: rs.server.completed_iterations(),
        grants: rs.server.stats().grants,
        tokens_per_sec: tokens as f64 / elapsed.as_secs_f64(),
        trained_per_worker: trained,
        stale_reports: rs.stale_reports,
        crashes: rs.crashes,
        restarts: rs.restarts,
        revocations: rs.revocations,
        server_crashes: rs.server_crashes,
        server_restarts: rs.server_restarts,
        wal_commits: rs.server.wal_commits(),
        params: reference,
        transport: transport.name(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{ChanTransport, TcpTransport};
    use crate::virt::plan_for;
    use fela_cluster::{ClusterSpec, FaultModel};
    use fela_model::zoo;

    fn quick() -> (FelaConfig, Scenario) {
        let mut scenario = Scenario::paper(zoo::alexnet(), 128);
        scenario.iterations = 3;
        scenario.cluster = ClusterSpec::k40c_cluster(2);
        let config = FelaConfig::new(3);
        (config, scenario)
    }

    fn fast() -> RealOptions {
        RealOptions {
            time_scale: 1e-4,
            ..RealOptions::default()
        }
    }

    #[test]
    fn real_chan_run_completes_and_replicas_agree() {
        let (config, scenario) = quick();
        let out =
            run_real(&config, &scenario, &mut ChanTransport, fast()).expect("real run succeeds");
        assert_eq!(out.iterations, 3);
        assert!(!out.params.is_empty());
        assert_eq!(out.trained_per_worker.iter().sum::<u64>(), out.grants);
        assert!(out.tokens_per_sec > 0.0);
    }

    #[test]
    fn real_tcp_run_completes() {
        let (config, scenario) = quick();
        let out = run_real(&config, &scenario, &mut TcpTransport::default(), fast())
            .expect("real run succeeds");
        assert_eq!(out.iterations, 3);
        assert_eq!(out.transport, "tcp");
    }

    #[test]
    fn real_run_params_match_the_virtual_run() {
        // Schedule-invariance in action: a wall-clock run with real thread
        // interleavings lands on the same final parameter bits as the
        // deterministic virtual run of the same scenario.
        let (config, scenario) = quick();
        let real =
            run_real(&config, &scenario, &mut ChanTransport, fast()).expect("real run succeeds");
        let virt = crate::virt::run_virtual(&config, &scenario, &mut ChanTransport)
            .expect("virtual run succeeds");
        assert_eq!(real.params, virt.params);
    }

    #[test]
    fn already_expired_deadlines_fire_immediately_without_panicking() {
        // Regression for the timer-underflow panic: zero floors plus a tiny
        // time scale arm lease and restart deadlines that are already in the
        // past the moment they enter the timer heap. The poll loop's
        // saturating deadline math must fire them immediately — the old
        // `recv_timeout(at - now)` path aborted the server thread here.
        let (config, mut scenario) = quick();
        scenario.iterations = 4;
        scenario.fault = FaultModel::Scripted {
            worker: 1,
            iteration: 1,
            kind: FaultKind::CrashRestart {
                down: fela_sim::SimDuration::from_millis(100),
            },
        };
        let opts = RealOptions {
            time_scale: 1e-7,
            min_lease: Duration::ZERO,
            min_down: Duration::ZERO,
            pipeline: 4,
        };
        let out =
            run_real(&config, &scenario, &mut ChanTransport, opts).expect("real run succeeds");
        assert_eq!(out.iterations, 4);
        assert_eq!(out.crashes, 1);
        assert_eq!(out.restarts, 1);
        assert!(!out.params.is_empty());
    }

    #[test]
    fn pipeline_depth_one_still_completes() {
        let (config, scenario) = quick();
        let opts = RealOptions {
            pipeline: 1,
            ..fast()
        };
        let out =
            run_real(&config, &scenario, &mut ChanTransport, opts).expect("real run succeeds");
        assert_eq!(out.iterations, 3);
        assert_eq!(out.trained_per_worker.iter().sum::<u64>(), out.grants);
    }

    #[test]
    fn an_invalid_fault_model_is_an_input_error() {
        let (config, mut scenario) = quick();
        for p in [1.5, f64::NAN] {
            scenario.fault = FaultModel::Chaos {
                p,
                down: fela_sim::SimDuration::from_millis(100),
                seed: 0,
            };
            let err = run_real(&config, &scenario, &mut ChanTransport, fast())
                .expect_err("an invalid fault model must not run");
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "p = {p}");
        }
    }

    #[test]
    fn real_crash_restart_recovers() {
        let (config, mut scenario) = quick();
        scenario.iterations = 8;
        scenario.fault = FaultModel::Scripted {
            worker: 1,
            iteration: 1,
            kind: FaultKind::CrashRestart {
                down: fela_sim::SimDuration::from_millis(100),
            },
        };
        let opts = RealOptions {
            time_scale: 1e-3,
            min_down: Duration::from_millis(1),
            ..RealOptions::default()
        };
        let out =
            run_real(&config, &scenario, &mut ChanTransport, opts).expect("real run succeeds");
        assert_eq!(out.iterations, 8);
        assert_eq!(out.crashes, 1);
        assert_eq!(out.restarts, 1);
        assert!(!out.params.is_empty());
    }

    #[test]
    fn server_crash_restart_matches_the_uninterrupted_run() {
        // The acceptance bar for the durable control plane: kill the server
        // mid-iteration, recover from the WAL, and land on final parameters
        // byte-identical to a run that was never interrupted.
        let (config, mut scenario) = quick();
        scenario.iterations = 8;
        let baseline = run_real(&config, &scenario, &mut ChanTransport, fast())
            .expect("uninterrupted run succeeds");
        scenario.fault = FaultModel::ServerCrashRestart {
            iteration: 1,
            down: fela_sim::SimDuration::from_millis(100),
        };
        let opts = RealOptions {
            time_scale: 1e-3,
            min_down: Duration::from_millis(1),
            ..RealOptions::default()
        };
        let out = run_real(&config, &scenario, &mut ChanTransport, opts)
            .expect("durable run survives the server crash");
        assert_eq!(out.iterations, 8);
        assert_eq!(out.server_crashes, 1);
        assert_eq!(out.server_restarts, 1);
        assert_eq!(out.crashes, 0, "no worker fault was declared");
        assert_eq!(
            out.params, baseline.params,
            "recovered run must produce byte-identical parameters"
        );
    }

    #[test]
    fn tcp_server_crash_restart_recovers() {
        let (config, mut scenario) = quick();
        scenario.iterations = 6;
        scenario.fault = FaultModel::ServerCrashRestart {
            iteration: 1,
            down: fela_sim::SimDuration::from_millis(100),
        };
        let opts = RealOptions {
            time_scale: 1e-3,
            min_down: Duration::from_millis(1),
            ..RealOptions::default()
        };
        let out = run_real(&config, &scenario, &mut TcpTransport::default(), opts)
            .expect("durable run survives the server crash over TCP");
        assert_eq!(out.iterations, 6);
        assert_eq!(out.server_crashes, 1);
        assert_eq!(out.server_restarts, 1);
        assert!(!out.params.is_empty());
    }

    #[test]
    fn durable_run_writes_a_replayable_wal_file() {
        // Every cadence: log-only (0: `completions` rebuilt from ops alone),
        // every iteration, and an interval of three, so that the crash late
        // in the run replays ops after a checkpoint taken inside the default
        // lock window.
        let dir = std::env::temp_dir().join(format!(
            "fela-live-wal-{}-{:?}",
            std::process::id(),
            thread::current().id()
        ));
        let (config, mut scenario) = quick();
        scenario.iterations = 6;
        let baseline = run_real(&config, &scenario, &mut ChanTransport, fast())
            .expect("uninterrupted run succeeds");
        scenario.fault = FaultModel::ServerCrashRestart {
            iteration: 4,
            down: fela_sim::SimDuration::from_millis(50),
        };
        let opts = RealOptions {
            time_scale: 1e-3,
            min_down: Duration::from_millis(1),
            ..RealOptions::default()
        };
        for checkpoint_every in [0, 1, 3] {
            let durability = DurabilityOptions {
                wal_dir: Some(dir.clone()),
                checkpoint_every,
            };
            let out = run_real_durable(&config, &scenario, &mut ChanTransport, opts, &durability)
                .unwrap_or_else(|e| panic!("checkpoint_every={checkpoint_every}: {e}"));
            assert_eq!(out.iterations, 6);
            assert_eq!(out.server_crashes, 1, "checkpoint_every={checkpoint_every}");
            assert_eq!(
                out.server_restarts, 1,
                "checkpoint_every={checkpoint_every}"
            );
            assert_eq!(
                out.params, baseline.params,
                "checkpoint_every={checkpoint_every}: recovered params must match"
            );
            let bytes = std::fs::read(fela_core::wal_path(&dir)).expect("wal file exists");
            let log = fela_core::wal::read_log(&bytes).expect("wal parses cleanly");
            assert_eq!(log.torn_bytes, 0, "resumed file log must end on a record");
            let checkpoints = log
                .records
                .iter()
                .filter(|r| matches!(r, fela_core::WalRecord::Checkpoint { .. }))
                .count() as u64;
            match checkpoint_every {
                0 => assert_eq!(checkpoints, 0),
                every => assert!(
                    (1..=6 / every).contains(&checkpoints),
                    "checkpoint_every={every}: {checkpoints} checkpoint(s)"
                ),
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn server_crash_with_reports_staged_matches_the_uninterrupted_run() {
        // The crash fires while the server handles a report batch, after its
        // reports were accepted. With no checkpoint to commit them, they are
        // still staged: the crash drops them, their tokens are revoked from
        // the recovered plane and regranted, and the run still lands on the
        // uninterrupted parameters, with far fewer commits than tokens.
        let (config, mut scenario) = quick();
        scenario.iterations = 6;
        let baseline = run_real(&config, &scenario, &mut ChanTransport, fast())
            .expect("uninterrupted run succeeds");
        let tokens = plan_for(&config, &scenario)
            .expect("plan")
            .tokens_per_iteration()
            * scenario.iterations;
        scenario.fault = FaultModel::ServerCrashRestart {
            iteration: 3,
            down: fela_sim::SimDuration::from_millis(50),
        };
        let opts = RealOptions {
            time_scale: 1e-3,
            min_down: Duration::from_millis(1),
            ..RealOptions::default()
        };
        let durability = DurabilityOptions {
            wal_dir: None,
            checkpoint_every: 0,
        };
        let transports: [Box<dyn Transport>; 2] =
            [Box::new(ChanTransport), Box::new(TcpTransport::default())];
        for mut transport in transports {
            let out = run_real_durable(&config, &scenario, transport.as_mut(), opts, &durability)
                .expect("durable run survives the server crash");
            let name = out.transport;
            assert_eq!(out.iterations, 6, "{name}");
            assert_eq!((out.server_crashes, out.server_restarts), (1, 1), "{name}");
            assert_eq!(out.params, baseline.params, "{name}");
            assert!(
                out.revocations > 0,
                "{name}: the dropped reports' tokens are revoked"
            );
            let accepted: u64 = out.trained_per_worker.iter().sum();
            assert_eq!(
                accepted, tokens,
                "{name}: every token accepted exactly once"
            );
            assert!(
                out.wal_commits > 0 && out.wal_commits < accepted,
                "{name}: {} commits for {accepted} tokens",
                out.wal_commits
            );
        }
    }

    /// A log whose `sync` fails once `syncs_left` syncs have succeeded. The
    /// bytes of every successful sync land in `durable`, shared with the test.
    struct FailingSink {
        durable: std::rc::Rc<std::cell::RefCell<Vec<u8>>>,
        unsynced: Vec<u8>,
        syncs_left: u32,
    }

    impl fela_core::WalSink for FailingSink {
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

    #[test]
    fn a_failed_wal_commit_stops_the_run_before_its_grants_leave() {
        let (config, scenario) = quick();
        for syncs in [1u32, 2, 5] {
            let durable = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
            let sink = FailingSink {
                durable: durable.clone(),
                unsynced: Vec::new(),
                syncs_left: syncs,
            };
            let recorder = crate::sched::RecordingSched::new();
            let err = run_real_impl(
                &config,
                &scenario,
                &mut ChanTransport,
                fast(),
                recorder.clone(),
                |server| server.attach_wal(Box::new(sink)),
            )
            .expect_err("a failed commit must stop the run");
            assert_eq!(err.to_string(), "injected fsync failure", "syncs={syncs}");
            // Every grant that left the server is in the durable log.
            let log = fela_core::wal::read_log(&durable.borrow()).expect("durable log parses");
            let durable_grants: std::collections::BTreeSet<u64> = log
                .records
                .iter()
                .filter_map(|r| match r {
                    fela_core::WalRecord::Op {
                        op:
                            fela_core::CoordOp {
                                outcome: OpOutcome::Granted { token, .. },
                                ..
                            },
                        ..
                    } => Some(*token),
                    _ => None,
                })
                .collect();
            let mut sent = 0;
            for event in recorder.take() {
                if let SyncEvent::FrameSent {
                    side: Endpoint::Server,
                    frame: Frame::GrantBatch { grants },
                    ..
                } = event
                {
                    for g in grants {
                        sent += 1;
                        assert!(
                            durable_grants.contains(&g.token),
                            "syncs={syncs}: token {} left before its grant was durable",
                            g.token
                        );
                    }
                }
            }
            // The opening record takes the first sync; later ones cover
            // flushes, so grants left exactly when a flush committed.
            assert_eq!(sent > 0, syncs > 1, "syncs={syncs}: {sent} grants sent");
        }
    }

    #[test]
    fn worker_and_server_faults_keep_separate_counters() {
        // A worker CrashRestart run must not touch the server counters.
        let (config, mut scenario) = quick();
        scenario.iterations = 6;
        scenario.fault = FaultModel::Scripted {
            worker: 0,
            iteration: 1,
            kind: FaultKind::CrashRestart {
                down: fela_sim::SimDuration::from_millis(100),
            },
        };
        let opts = RealOptions {
            time_scale: 1e-3,
            min_down: Duration::from_millis(1),
            ..RealOptions::default()
        };
        let out =
            run_real(&config, &scenario, &mut ChanTransport, opts).expect("real run succeeds");
        assert_eq!(out.crashes, 1);
        assert_eq!(out.restarts, 1);
        assert_eq!(out.server_crashes, 0);
        assert_eq!(out.server_restarts, 0);
    }
}
