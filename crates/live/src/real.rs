//! Real-clock live runs: the Token Server as a wall-clock service.
//!
//! Unlike virtual mode (the simulator plus [`crate::train_replicas`]), real
//! mode drives the sans-IO [`fela_core::ServerCore`] — the core the
//! simulator drives too — through its [`frame_adapter`] against the wall
//! clock: worker threads pull tokens over the wire, sleep the modeled
//! compute span scaled by `time_scale`, and report. Data movement is not
//! emulated — this is a **control-plane** runtime: parameter syncs commit
//! the moment a level's last report lands, so the measured quantity is pure
//! token-protocol throughput.
//!
//! This module is the core's shell. Every protocol decision (pulls, reports,
//! leases, crash recovery, the group commit before any frame leaves) is the
//! core's; the shell owns the links, the worker threads, the timer heap and
//! the real-clock policy: it maps real elapsed nanoseconds onto [`SimTime`],
//! prices spans, sizes lease and restart deadlines, and, after a server
//! crash, relinks every surviving worker, whose link died with the server.
//!
//! Model training is still exact: the core logs accepted reports, which are
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
//! ## The inbox
//!
//! The server thread waits for input in one place: an inbox channel of
//! `(worker, frame or close)` messages. Attaching a link moves its receive
//! half onto a small reader thread (`LinkRx::spawn_reader`) that blocks on
//! the link, forwards each frame, then the link's close, and exits; channel
//! and TCP links share that one path. The loop blocks on the inbox until the
//! next timer deadline, then **drains** it: it keeps taking the messages
//! already waiting, without waiting for more, until the inbox is empty, a
//! timer is due or the run is complete. It feeds each frame to the core (a
//! report piggybacks up to [`RealOptions::pipeline`] pulls) and serves the
//! waiters after each ([`ServerCore::serve`]), fires the due timers, and
//! ships what the whole drain released with one dispatch: one write-ahead
//! log commit (one `sync_data` with a file log), then one `GrantBatch` frame
//! and one transport write per worker, whatever the batch length. A busy
//! inbox thus shares one fsync among many reports, while a lone frame is
//! still answered at once. The worker computes the batch as one coalesced
//! sleep and answers with one `ReportBatch`, so per-token cost on both sides
//! is `O(1/pipeline)` writes and wakeups.
//!
//! The core sees the same inputs, and serves after each one, as under a
//! dispatch per input (the model checker's); only the commit and the sends
//! move to the end of the drain. A later send only delays when a worker's
//! next report can arrive, so the shell's executions stay inside the
//! interleavings the `fela-mc` model checker explores.
//!
//! One live link per worker index: a link's frames and its close reach the
//! inbox in order, and a worker's next link is attached only after the old
//! one's close was dequeued. A restart timer that fires while the old link
//! still drains waits for that close, and a server crash drains every old
//! close before the fleet relinks. So the inbox never interleaves two links
//! of one worker, and each link's close is recorded once, by its reader.

// This shell is the one place in the workspace whose purpose is wall-clock
// execution: lease deadlines, restart timers and throughput measurements are
// real `Instant`s by design. The rest of fela-live is held to the rule: the
// sans-IO server core takes its time from the caller, and the virtual-clock
// mode stays deterministic (conformance-tested against the simulator
// byte-for-byte).
#![allow(clippy::disallowed_methods)]

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::io;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use fela_cluster::{FaultKind, Scenario};
use fela_core::{
    ControlPlane, CoreError, DurabilityOptions, FelaConfig, FelaRuntime, RecoveryConfig,
    ServerCore, TokenId,
};
use fela_model::Partition;
use fela_sim::{SimDuration, SimTime};

use crate::frame_adapter::{self, wire_grants};
use crate::replay::{check_params, epilogue, replay_schedules, schedules_from_completions};
use crate::sched::{pass, Endpoint, SharedSched, SyncEvent};
use crate::transport::{Inbound, Link, LinkTx, Transport};
use crate::wire::Frame;
use crate::worker::{granted_span_secs, spawn_worker, SpanCache, WorkerSpec};

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
    /// dispatch (a drained inbox) that shipped grants after new ops, plus
    /// the opening record, every checkpoint and every control frame sent
    /// after new ops.
    pub wal_commits: u64,
    /// Final model parameters (bit-identical on every surviving replica and
    /// to the server's reference replay).
    pub params: Vec<u8>,
    /// Transport used.
    pub transport: &'static str,
}

#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Timer {
    Lease { token: TokenId, attempt: u64 },
    Restart { worker: usize },
}

/// The shell's error policy for every core input and dispatch: a failed log
/// stops the run with its I/O error; any other core error is a broken
/// invariant and panics with its message.
fn fatal(e: CoreError) -> io::Error {
    match e {
        CoreError::Wal(e) => e,
        e => panic!("{e}"),
    }
}

struct RealServer<'a> {
    core: ServerCore,
    /// `(unit_start, unit_end)` of each level's sub-model, stamped on every
    /// wire grant.
    units: Vec<(u32, u32)>,
    /// Reused buffer: the leases of the batch being shipped.
    leases: Vec<(TokenId, u64)>,
    scenario: &'a Scenario,
    opts: RealOptions,
    recovery: Option<RecoveryConfig>,
    started: Instant,
    /// Send half per worker; `None` after we closed the link (crash).
    txs: Vec<Option<LinkTx>>,
    /// Per worker: the reader thread of its link, until the link's close
    /// is dequeued and the reader joined.
    readers: Vec<Option<JoinHandle<()>>>,
    /// Per worker: a restart timer fired while the old link still drained,
    /// so the restart waits for that close.
    restart_on_close: Vec<bool>,
    /// Every link's frames and closes, in arrival order.
    inbox: Receiver<Inbound>,
    /// The inbox's sending side, cloned into each new link's reader.
    inbox_tx: Sender<Inbound>,
    span_cache: SpanCache,
    /// Real deadlines, earliest first.
    timers: BinaryHeap<Reverse<(Instant, Timer)>>,
    faults_armed: u64,
    sched: SharedSched,
}

impl RealServer<'_> {
    fn now_sim(&self) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs_f64(self.started.elapsed().as_secs_f64())
    }

    /// Real downtime for a modeled one, floored at `min_down`.
    fn real_down(&self, down: SimDuration) -> Duration {
        Duration::from_secs_f64(down.as_secs_f64() * self.opts.time_scale).max(self.opts.min_down)
    }

    fn worker_spec(&self, index: usize) -> WorkerSpec {
        WorkerSpec {
            index,
            scenario: self.scenario.clone(),
            plan: self.core.plane().plan().clone(),
            time_scale: self.opts.time_scale,
            pull: true,
            sched: self.sched.clone(),
        }
    }

    /// Installs the server half of `worker`'s link: its receive half feeds
    /// the inbox from a reader thread. One live link per worker index, so
    /// the previous link's close must have been dequeued.
    fn attach(&mut self, worker: usize, mut link: Link) -> io::Result<()> {
        debug_assert!(
            self.readers[worker].is_none(),
            "worker {worker} has a live link"
        );
        link.instrument(self.sched.clone(), Endpoint::Server, worker);
        let (tx, rx) = link.split();
        self.readers[worker] = Some(rx.spawn_reader(worker, self.inbox_tx.clone())?);
        self.txs[worker] = Some(tx);
        Ok(())
    }

    /// Reconnects `worker` over a fresh link and spawns its thread, which
    /// rejoins with the usual pull handshake.
    fn respawn(&mut self, worker: usize, transport: &mut dyn Transport) -> io::Result<()> {
        let (server_link, worker_link) = transport.extra_link(worker)?;
        self.attach(worker, server_link)?;
        spawn_worker(self.worker_spec(worker), worker_link)?;
        Ok(())
    }

    /// Joins `worker`'s link reader once its close has been dequeued: the
    /// reader exits right after forwarding it.
    fn join_reader(&mut self, worker: usize) -> io::Result<()> {
        match self.readers[worker].take() {
            Some(reader) => reader
                .join()
                .map_err(|_| io::Error::other("a link reader thread panicked")),
            None => Ok(()),
        }
    }

    /// Takes the next inbox message, waiting until `deadline` (with none,
    /// until one arrives), and records its dequeue. `None` once the deadline
    /// has passed.
    fn dequeue(&mut self, deadline: Option<Instant>) -> Option<Inbound> {
        let wait = deadline.map_or(Duration::MAX, |at| {
            at.saturating_duration_since(Instant::now())
        });
        let (worker, msg) = self.inbox.recv_timeout(wait).ok()?;
        self.sched.reached(&SyncEvent::InboxDequeued {
            worker,
            frame: msg.as_ref().ok().cloned(),
        });
        Some((worker, msg))
    }

    /// Whether the earliest timer deadline has passed.
    fn timer_due(&self) -> bool {
        self.timers
            .peek()
            .is_some_and(|&Reverse((at, _))| at <= Instant::now())
    }

    /// Handles one dequeued message. A frame goes to the core. A close ends
    /// the link: a worker still alive died under us and is killed, and a
    /// restart that waited for this close goes ahead.
    fn on_inbound(
        &mut self,
        worker: usize,
        msg: io::Result<Frame>,
        transport: &mut dyn Transport,
    ) -> io::Result<()> {
        let Ok(frame) = msg else {
            self.join_reader(worker)?;
            if self.core.plane().is_alive(worker) {
                self.kill(worker)?;
            }
            if std::mem::take(&mut self.restart_on_close[worker]) {
                self.restart(worker, transport)?;
            }
            return Ok(());
        };
        let reported = matches!(frame, Frame::ReportBatch { .. });
        let now = self.now_sim();
        frame_adapter::on_frame(&mut self.core, worker, frame, now)
            .and_then(|r| frame_adapter::finish_syncs(&mut self.core, &r))
            .map_err(fatal)?;
        // Root iterations are released only by reports.
        if reported {
            self.arm_faults(transport)?;
        }
        Ok(())
    }

    /// Ships what the core queued since the last dispatch (a whole drained
    /// inbox): [`ServerCore::dispatch`] commits the log once, then each
    /// worker's `GrantBatch` goes out as one write. A batch that
    /// left arms its leases, sized to the **cumulative** batch span — the
    /// worker computes the batch serially and reports it with one frame at
    /// the end, so every lease in the batch must survive until the whole
    /// batch lands.
    fn dispatch(&mut self) -> io::Result<()> {
        let now = self.now_sim();
        self.core
            .dispatch(now, |out| {
                let w = out.worker;
                // A closed link (crash injection): `worker_crashed` revoked
                // these grants, nothing to send.
                let Some(tx) = self.txs[w].as_mut() else {
                    return;
                };
                let grants = wire_grants(&self.units, out.grants, &mut self.leases);
                let frame = Frame::GrantBatch { grants };
                // A worker that died under us: its reader's close reclaims.
                if tx.send(&frame).is_err() {
                    return;
                }
                let (Some(rec), Frame::GrantBatch { grants }) = (self.recovery, &frame) else {
                    return;
                };
                let total: f64 = grants
                    .iter()
                    .map(|g| granted_span_secs(self.scenario, &mut self.span_cache, w, g))
                    .sum();
                let scale = self.opts.time_scale;
                for &(token, attempt) in &self.leases {
                    let secs = rec.lease_secs(total, attempt) + rec.lease_grace.as_secs_f64();
                    let lease = Duration::from_secs_f64(secs * scale).max(self.opts.min_lease);
                    let timer = Timer::Lease { token, attempt };
                    self.timers.push(Reverse((Instant::now() + lease, timer)));
                }
            })
            .map_err(fatal)
    }

    /// Sends `worker` frames that carry no grant (a `Hang`, the epilogue)
    /// after committing every op staged so far: the epilogue's `Iter`
    /// frames reveal the completion schedule. Returns whether they left.
    fn send_control(&mut self, worker: usize, frames: &[Frame]) -> io::Result<bool> {
        self.core.commit_wal().map_err(fatal)?;
        let Some(tx) = self.txs[worker].as_mut() else {
            return Ok(false);
        };
        let sent = frames.iter().try_for_each(|f| tx.queue(f));
        Ok(sent.and_then(|()| tx.flush()).is_ok())
    }

    /// Kills a worker at the transport level and tells the core.
    fn kill(&mut self, worker: usize) -> io::Result<()> {
        if let Some(mut tx) = self.txs[worker].take() {
            tx.close();
        }
        self.core.worker_crashed(worker).map(drop).map_err(fatal)
    }

    /// The injected Token Server crash: the server "process" dies (every
    /// worker link drops), the downtime elapses, then the core recovers the
    /// plane and the completion log from the WAL
    /// ([`ServerCore::server_crash`]) and the fleet respawns over fresh
    /// links.
    fn crash_server(&mut self, down: SimDuration, transport: &mut dyn Transport) -> io::Result<()> {
        // Every link drops, which kills the worker threads on their next
        // recv. Replicas are only mutated by the epilogue's Iter frames, so
        // no training state is lost worker-side.
        for mut tx in self.txs.iter_mut().filter_map(Option::take) {
            tx.close();
        }
        // The frames in flight die with the process: drain the inbox until
        // every old link's close has arrived, so that no worker's next link
        // shares the inbox with its old one.
        while self.readers.iter().any(Option::is_some) {
            if let Some((worker, Err(_))) = self.dequeue(None) {
                self.join_reader(worker)?;
            }
        }
        thread::sleep(self.real_down(down));
        self.core.server_crash().map_err(fatal)?;
        // The dropped links lost every in-flight grant: each surviving
        // worker's leases are revoked for immediate regrant as it relinks.
        // Workers downed by their own declared faults stay down until their
        // Restart timers fire; one that already fired waited for the close
        // drained above and goes ahead now.
        for worker in 0..self.txs.len() {
            if self.core.plane().is_alive(worker) {
                self.core.relink(worker).map_err(fatal)?;
                self.respawn(worker, transport)?;
            } else if std::mem::take(&mut self.restart_on_close[worker]) {
                self.restart(worker, transport)?;
            }
        }
        Ok(())
    }

    /// Turns fault declarations into actions as root iterations are released.
    fn arm_faults(&mut self, transport: &mut dyn Transport) -> io::Result<()> {
        if self.scenario.fault.is_none() {
            return Ok(());
        }
        while self.faults_armed < self.core.plane().released_root_iterations() {
            let it = self.faults_armed;
            for worker in 0..self.scenario.cluster.nodes {
                match self.scenario.fault_for(it, worker) {
                    None => {}
                    Some(FaultKind::Hang { stall }) => {
                        let nanos = (stall.as_secs_f64() * self.opts.time_scale * 1e9)
                            .max(self.opts.min_lease.as_nanos() as f64 * 2.0)
                            as u64;
                        self.send_control(worker, &[Frame::Hang { nanos }])?;
                    }
                    Some(FaultKind::Crash) => self.kill(worker)?,
                    Some(FaultKind::CrashRestart { down }) | Some(FaultKind::LinkDown { down }) => {
                        self.kill(worker)?;
                        let at = Instant::now() + self.real_down(down);
                        self.timers.push(Reverse((at, Timer::Restart { worker })));
                    }
                }
            }
            if let Some(down) = self.scenario.fault.server_fault_for(it) {
                self.crash_server(down, transport)?;
            }
            self.faults_armed += 1;
        }
        Ok(())
    }

    fn fire_timer(&mut self, timer: Timer, transport: &mut dyn Transport) -> io::Result<()> {
        match timer {
            Timer::Lease { token, attempt } => {
                self.sched.reached(&SyncEvent::LeaseFired {
                    token: token.0,
                    attempt,
                });
                self.core.lease_fired(token, attempt).map_err(fatal)?;
            }
            Timer::Restart { worker } => {
                self.sched.reached(&SyncEvent::RestartFired { worker });
                self.restart(worker, transport)?;
            }
        }
        Ok(())
    }

    /// Respawns a crashed `worker`, once its old link's close has been
    /// dequeued; until then the restart waits for that close.
    fn restart(&mut self, worker: usize, transport: &mut dyn Transport) -> io::Result<()> {
        if self.core.plane().is_alive(worker) {
            return Ok(());
        }
        if self.readers[worker].is_some() {
            self.restart_on_close[worker] = true;
            return Ok(());
        }
        self.respawn(worker, transport)?;
        self.core.worker_restarted(worker).map_err(fatal)
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
    run_real_impl(config, scenario, transport, opts, sched, None)
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
    run_real_impl(config, scenario, transport, opts, pass(), Some(durability))
}

/// Builds the run's plane and runs it. The plane's log opens when the
/// caller asked for `durability` or the scenario declares a server fault:
/// the run cannot survive that crash without a log to recover from.
fn run_real_impl(
    config: &FelaConfig,
    scenario: &Scenario,
    transport: &mut dyn Transport,
    opts: RealOptions,
    sched: SharedSched,
    durability: Option<&DurabilityOptions>,
) -> io::Result<RealOutcome> {
    let (mut plane, partition) = FelaRuntime::new(config.clone()).plane_for(scenario)?;
    if let Some(durability) = DurabilityOptions::for_run(durability, scenario) {
        plane.open_wal(&durability)?;
    }
    serve(plane, &partition, scenario, transport, opts, sched)
}

/// The run itself, on `scenario`'s plane and partition with the plane's log
/// (if any) attached.
fn serve(
    plane: ControlPlane,
    partition: &Partition,
    scenario: &Scenario,
    transport: &mut dyn Transport,
    opts: RealOptions,
    sched: SharedSched,
) -> io::Result<RealOutcome> {
    let n = scenario.cluster.nodes;
    let units = partition
        .sub_models()
        .iter()
        .map(|sm| (sm.unit_start as u32, sm.unit_end as u32))
        .collect();

    let recovery = plane
        .config()
        .recovery
        .filter(|_| !scenario.fault.is_none());
    let (inbox_tx, inbox) = channel();
    let mut rs = RealServer {
        core: ServerCore::new(plane, opts.pipeline).with_completion_log(),
        units,
        leases: Vec::new(),
        scenario,
        opts,
        recovery,
        started: Instant::now(),
        txs: (0..n).map(|_| None).collect(),
        readers: (0..n).map(|_| None).collect(),
        restart_on_close: vec![false; n],
        inbox,
        inbox_tx,
        span_cache: SpanCache::new(),
        timers: BinaryHeap::new(),
        faults_armed: 0,
        sched,
    };
    let (server_links, worker_links) = transport.establish(n)?;
    for (w, link) in server_links.into_iter().enumerate() {
        rs.attach(w, link)?;
    }

    // Spawn the fleet, then start the measured clock: thread creation is a
    // startup artifact (64 spawns cost a couple of milliseconds on a small
    // box) and would otherwise be billed to token-protocol throughput.
    for (index, link) in worker_links.into_iter().enumerate() {
        spawn_worker(rs.worker_spec(index), link)?;
    }
    rs.started = Instant::now();
    rs.arm_faults(transport)?;
    rs.dispatch()?;

    // The server loop: block on the inbox until the next timer deadline,
    // then keep taking what is already waiting (a zero-wait dequeue) until
    // the inbox is empty, a timer is due or the run is complete, serving the
    // waiters after each message. Fire every due timer (a batch's leases
    // share one deadline), then ship what they all released with one
    // dispatch: one commit and one `GrantBatch` per worker for the whole
    // drain. All deadline arithmetic saturates, so a deadline already in
    // the past fires at once.
    while !rs.core.plane().run_complete() {
        let deadline = rs.timers.peek().map(|&Reverse((at, _))| at);
        let mut next = rs.dequeue(deadline);
        while let Some((worker, msg)) = next.take() {
            rs.on_inbound(worker, msg, transport)?;
            rs.core.serve(rs.now_sim()).map_err(fatal)?;
            if !rs.timer_due() && !rs.core.plane().run_complete() {
                next = rs.dequeue(Some(Instant::now()));
            }
        }
        while let Some(&Reverse((at, timer))) = rs.timers.peek() {
            if at > Instant::now() {
                break;
            }
            rs.timers.pop();
            rs.fire_timer(timer, transport)?;
        }
        rs.dispatch()?;
    }
    let elapsed = rs.started.elapsed();

    // Broadcast the relabeled schedules — one `Iter` frame per iteration,
    // then `End` — and collect every replica's params. Each worker's
    // epilogue ships as one queued batch and a single flush.
    let schedules = schedules_from_completions(rs.core.completions());
    let reference = replay_schedules(rs.core.plane().plan(), &schedules);
    let epilogue = epilogue(&schedules);
    let mut waiting = 0;
    for worker in 0..n {
        if rs.send_control(worker, &epilogue)? {
            waiting += 1;
        }
    }
    // Collect every replica's params, then every link's close, so that no
    // reader thread outlives the run.
    let deadline = Instant::now() + Duration::from_secs(30);
    while waiting > 0 || rs.readers.iter().any(Option::is_some) {
        match rs.dequeue(Some(deadline)) {
            Some((worker, Ok(Frame::Params { bytes }))) => {
                check_params(worker, &bytes, &reference)?;
                waiting -= 1;
            }
            Some((worker, Err(_))) => rs.join_reader(worker)?,
            // Late reports and requests from still-draining workers.
            Some(_) => {}
            None => {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!(
                        "timed out collecting final parameters: {waiting} Params missing, \
                         {} link(s) still open",
                        rs.readers.iter().filter(|r| r.is_some()).count()
                    ),
                ))
            }
        }
    }

    let plane = rs.core.plane();
    let counters = rs.core.counters();
    let trained = plane.trained_per_worker().to_vec();
    let tokens: u64 = trained.iter().sum();
    Ok(RealOutcome {
        elapsed_secs: elapsed.as_secs_f64(),
        iterations: plane.completed_iterations(),
        grants: plane.stats().grants,
        tokens_per_sec: tokens as f64 / elapsed.as_secs_f64(),
        trained_per_worker: trained,
        stale_reports: counters.stale_reports,
        crashes: counters.crashes,
        restarts: counters.restarts,
        revocations: counters.revocations,
        server_crashes: counters.server_crashes,
        server_restarts: counters.server_restarts,
        wal_commits: plane.wal_commits(),
        params: reference,
        transport: transport.name(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::{plan_for, run_virtual_with};
    use crate::transport::{ChanTransport, TcpTransport};
    use fela_cluster::{ClusterSpec, FaultModel};
    use fela_core::OpOutcome;
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
        let (_, _, virt_params) = run_virtual_with(&config, &scenario, &mut ChanTransport, pass())
            .expect("virtual run succeeds");
        assert_eq!(real.params, virt_params);
    }

    #[test]
    fn already_expired_deadlines_fire_immediately_without_panicking() {
        // Regression for the timer-underflow panic: zero floors plus a tiny
        // time scale arm lease and restart deadlines that are already in the
        // past the moment they enter the timer heap. The server loop's
        // saturating deadline math must fire them immediately — an unchecked
        // `recv_timeout(at - now)` once aborted the server thread here.
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

    #[test]
    fn server_crash_at_16_workers_mid_drain_matches_the_uninterrupted_run() {
        // The shape of the benchmark's `live-tcp-wal-w16`: 16 workers keep
        // the inbox busy, so a drain holds several frames, and the server
        // crash lands mid-drain. Reports staged and grants served but not
        // yet sent die with the process, and the run still lands on the
        // uninterrupted parameters, over a file log and both transports.
        let mut scenario = Scenario::paper(zoo::alexnet(), 256).with_iterations(20);
        scenario.cluster = ClusterSpec::k40c_cluster(16);
        let levels = FelaRuntime::new(FelaConfig::new(1))
            .partition_for(&scenario)
            .len();
        let config = FelaConfig::new(levels).with_staleness(8);
        let opts = RealOptions {
            time_scale: 2e-4,
            pipeline: 16,
            ..RealOptions::default()
        };
        let baseline = run_real(&config, &scenario, &mut ChanTransport, opts)
            .expect("uninterrupted run succeeds");
        let tokens = plan_for(&config, &scenario)
            .expect("plan")
            .tokens_per_iteration()
            * scenario.iterations;
        scenario.fault = FaultModel::ServerCrashRestart {
            iteration: 10,
            down: fela_sim::SimDuration::from_secs(10),
        };
        let dir = std::env::temp_dir().join(format!(
            "fela-live-w16-wal-{}-{:?}",
            std::process::id(),
            thread::current().id()
        ));
        let transports: [Box<dyn Transport>; 2] =
            [Box::new(ChanTransport), Box::new(TcpTransport::default())];
        for mut transport in transports {
            let durability = DurabilityOptions {
                wal_dir: Some(dir.join(transport.name())),
                checkpoint_every: 8,
            };
            let recorder = crate::sched::RecordingSched::new();
            let out = run_real_impl(
                &config,
                &scenario,
                transport.as_mut(),
                opts,
                recorder.clone(),
                Some(&durability),
            )
            .expect("durable run survives the server crash");
            let name = out.transport;
            assert_eq!(out.iterations, 20, "{name}");
            assert_eq!((out.server_crashes, out.server_restarts), (1, 1), "{name}");
            assert_eq!(out.params, baseline.params, "{name}");
            let accepted: u64 = out.trained_per_worker.iter().sum();
            assert_eq!(accepted, tokens, "{name}: every token accepted once");
            let frames = recorder
                .take()
                .iter()
                .filter(|e| matches!(e, SyncEvent::InboxDequeued { frame: Some(_), .. }))
                .count() as u64;
            assert!(
                out.wal_commits < frames,
                "{name}: {} commits for {frames} frames, so no drain held two",
                out.wal_commits
            );
        }
        std::fs::remove_dir_all(&dir).ok();
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
            let runtime = FelaRuntime::new(config.clone());
            let (mut plane, partition) = runtime.plane_for(&scenario).expect("plane builds");
            plane
                .attach_wal(Box::new(sink))
                .expect("the opening record syncs");
            let err = serve(
                plane,
                &partition,
                &scenario,
                &mut ChanTransport,
                fast(),
                recorder.clone(),
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
