//! Real-clock live runs: the Token Server as a wall-clock service.
//!
//! Unlike virtual mode (which *is* the simulator), real mode drives the
//! sans-IO [`ServerCore`] — and through it [`fela_core::ControlPlane`] —
//! against the wall clock: worker threads pull tokens over the wire, sleep
//! the modeled compute span scaled by `time_scale`, and report. Data
//! movement is not emulated — this is a **control-plane** runtime: parameter
//! syncs commit degenerately the moment a level's last report lands, so the
//! measured quantity is pure token-protocol throughput.
//!
//! This module is the core's shell. Every protocol decision (pulls, reports,
//! leases, crash reconciliation, the group commit before any frame leaves)
//! is the core's; the shell owns the links, the worker threads, the timer
//! heap and the real-clock policy: it maps real elapsed nanoseconds onto
//! [`SimTime`], prices spans, and sizes lease and restart deadlines.
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
//! ## The grant hot path
//!
//! The server is a **single poll loop** over nonblocking receive halves — no
//! per-worker pump threads, no inbox channel. Each sweep fires due timers,
//! drains every link via [`LinkRx::try_recv`], feeds each frame to the core
//! (a report piggybacks up to [`RealOptions::pipeline`] pulls), and ships
//! what the core queued **eagerly** — as soon as the frame that produced it
//! is handled — as one `GrantBatch` frame + one transport write per worker,
//! whatever the batch length. The worker computes the batch as one
//! coalesced sleep and answers with one `ReportBatch`, so per-token cost on
//! both sides is `O(1/pipeline)` syscalls and wakeups.
//!
//! Probes are pruned by protocol accounting rather than readiness syscalls:
//! each link owes exactly one inbound frame per (re)spawn plus one reply per
//! shipped batch (`expect_replies`), and a reply cannot arrive before the
//! batch's scaled span has elapsed (`quiet_until`), so the sweep skips every
//! socket that provably has nothing to say. An idle sweep yields, then
//! sleeps with backoff capped by the next timer deadline (see the loop in
//! `run_real_impl`).

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::io;
use std::thread;
use std::time::{Duration, Instant};

use fela_cluster::{FaultKind, Scenario};
use fela_core::{
    ControlPlane, DurabilityOptions, FelaConfig, FelaRuntime, LevelMeta, RecoveryConfig, TokenId,
    TokenPlan,
};
use fela_sim::{SimDuration, SimTime};

use crate::core::{CoreError, ServerCore};
use crate::replay::{replay_schedules, schedules_from_completions};
use crate::sched::{pass, Endpoint, SharedSched, SyncEvent};
use crate::transport::{Link, LinkRx, LinkTx, Transport};
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

#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Timer {
    Lease { token: TokenId, attempt: u64 },
    Restart { worker: usize },
}

/// The shell's error policy: a failed log stops the run with its I/O error;
/// any other core error is a broken invariant and panics with its message.
fn fatal(e: CoreError) -> io::Error {
    match e {
        CoreError::Wal(e) => e,
        e => panic!("{e}"),
    }
}

/// Modeled compute seconds for one grant on `worker`, straggler included —
/// what the worker will sleep (before `time_scale`). The analytic model walk
/// is deterministic, so it is memoized per `(level, batch, worker)`.
fn span_secs(
    scenario: &Scenario,
    cache: &mut HashMap<(u32, u64, usize), f64>,
    worker: usize,
    g: &WireGrant,
) -> f64 {
    let compute = *cache.entry((g.level, g.batch, worker)).or_insert_with(|| {
        scenario.cluster.compute_secs(
            &scenario.model,
            g.unit_start as usize,
            g.unit_end as usize,
            g.batch,
            worker,
        )
    });
    compute + scenario.straggler_delay(g.iteration, worker).as_secs_f64()
}

struct RealServer<'a> {
    core: ServerCore,
    scenario: &'a Scenario,
    opts: RealOptions,
    recovery: Option<RecoveryConfig>,
    started: Instant,
    /// Send half per worker; `None` after we closed the link (crash).
    txs: Vec<Option<LinkTx>>,
    /// Receive half per worker, polled nonblockingly by the server loop;
    /// `None` once the link died and its close was processed.
    rxs: Vec<Option<LinkRx>>,
    /// Per-worker probe hint: no reply can arrive before the granted batch's
    /// scaled span elapses, so the sweep skips the socket until then. Purely
    /// an optimization — a stale hint only delays a probe, never loses one.
    quiet_until: Vec<Instant>,
    /// Inbound frames still expected per link: one for the initial `Request`
    /// after (re)spawn plus one reply per shipped batch. A worker with zero
    /// expected frames is silent by protocol (pulls are piggybacked
    /// server-side), so the sweep skips its socket entirely.
    expect_replies: Vec<u32>,
    /// Workers whose share of the last dispatch left; the epilogue waits for
    /// their parameters.
    delivered: Vec<usize>,
    span_cache: HashMap<(u32, u64, usize), f64>,
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

    /// Installs the server half of `worker`'s link, which owes the worker's
    /// opening `Request`.
    fn attach(&mut self, worker: usize, mut link: Link) -> io::Result<()> {
        link.instrument(self.sched.clone(), Endpoint::Server, worker);
        let (tx, mut rx) = link.split();
        rx.set_nonblocking(true)?;
        self.txs[worker] = Some(tx);
        self.rxs[worker] = Some(rx);
        self.quiet_until[worker] = Instant::now();
        self.expect_replies[worker] = 1;
        Ok(())
    }

    /// Reconnects `worker` over a fresh link and spawns its thread, which
    /// rejoins with the usual pull handshake.
    fn respawn(&mut self, worker: usize, transport: &mut dyn Transport) -> io::Result<()> {
        let (server_link, worker_link) = transport.extra_link(worker)?;
        self.attach(worker, server_link)?;
        let _ = spawn_worker(self.worker_spec(worker), worker_link);
        Ok(())
    }

    /// Ships what the core queued: [`ServerCore::dispatch`] commits the log,
    /// then each worker's frames go out as one queued write and one flush. A
    /// batch that left sets the worker's probe hints and arms its leases,
    /// sized to the **cumulative** batch span — the worker computes the batch
    /// serially and reports it with one frame at the end, so every lease in
    /// the batch must survive until the whole batch lands.
    fn dispatch(&mut self) -> io::Result<()> {
        let now = self.now_sim();
        self.delivered.clear();
        self.core
            .dispatch(now, |out| {
                let w = out.worker;
                // A closed link (crash injection): `worker_crashed` revoked
                // these grants, nothing to send.
                let Some(tx) = self.txs[w].as_mut() else {
                    return;
                };
                let sent = out.frames.iter().try_for_each(|f| tx.queue(f));
                if sent.and_then(|()| tx.flush()).is_err() {
                    // Worker died under us; the sweep's close handling reclaims.
                    return;
                }
                self.delivered.push(w);
                let Some(Frame::GrantBatch { grants }) = out.frames.last() else {
                    return;
                };
                self.expect_replies[w] += 1;
                let total: f64 = grants
                    .iter()
                    .map(|g| span_secs(self.scenario, &mut self.span_cache, w, g))
                    .sum();
                // The worker starts sleeping the whole scaled batch span
                // strictly after this flush, so its reply cannot arrive
                // before the full span has elapsed — probing earlier is a
                // guaranteed-empty syscall, and skipping until then is safe
                // by construction.
                let scale = self.opts.time_scale;
                self.quiet_until[w] = Instant::now() + Duration::from_secs_f64(total * scale);
                let Some(rec) = self.recovery else {
                    return;
                };
                for &(token, attempt) in out.leases {
                    let backoff = (1u64 << attempt.min(32)) as f64;
                    let lease = Duration::from_secs_f64(
                        (total * rec.lease_slack * backoff + rec.lease_grace.as_secs_f64()) * scale,
                    )
                    .max(self.opts.min_lease);
                    let timer = Timer::Lease { token, attempt };
                    self.timers.push(Reverse((Instant::now() + lease, timer)));
                }
            })
            .map_err(fatal)
    }

    /// Kills a worker at the transport level and tells the core.
    fn kill(&mut self, worker: usize) -> io::Result<()> {
        if let Some(mut tx) = self.txs[worker].take() {
            tx.close();
        }
        self.core.worker_crashed(worker).map_err(fatal)
    }

    /// The injected Token Server crash: the server "process" dies (every
    /// worker link drops), the downtime elapses, then the core recovers from
    /// the WAL ([`ServerCore::server_crash`]) and the fleet respawns over
    /// fresh links.
    fn crash_server(&mut self, down: SimDuration, transport: &mut dyn Transport) -> io::Result<()> {
        // Every link drops, which kills the worker threads on their next
        // recv. Replicas are only mutated by the epilogue's Iter frames, so
        // no training state is lost worker-side.
        for worker in 0..self.txs.len() {
            if let Some(mut tx) = self.txs[worker].take() {
                tx.close();
            }
            self.rxs[worker] = None;
            self.expect_replies[worker] = 0;
        }
        thread::sleep(self.real_down(down));
        self.core.server_crash().map_err(fatal)?;
        // Workers downed by their own declared faults stay down until their
        // Restart timers fire.
        for worker in 0..self.txs.len() {
            if self.core.plane().is_alive(worker) {
                self.respawn(worker, transport)?;
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
                        self.core.hang(worker, nanos);
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
                if self.core.plane().is_alive(worker) {
                    return Ok(());
                }
                self.respawn(worker, transport)?;
                self.core.worker_restarted(worker).map_err(fatal)?;
            }
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
    let mut plane = ControlPlane::new(
        plan,
        config.clone(),
        LevelMeta::for_partition(&partition),
        n,
        scenario.iterations,
    );
    open_wal(&mut plane)?;
    let units = partition
        .sub_models()
        .iter()
        .map(|sm| (sm.unit_start as u32, sm.unit_end as u32))
        .collect();

    let recovery = config.recovery.filter(|_| !scenario.fault.is_none());
    let mut rs = RealServer {
        core: ServerCore::new(plane, units, opts.pipeline),
        scenario,
        opts,
        recovery,
        started: Instant::now(),
        txs: (0..n).map(|_| None).collect(),
        rxs: (0..n).map(|_| None).collect(),
        quiet_until: vec![Instant::now(); n],
        expect_replies: vec![0; n],
        delivered: Vec::new(),
        span_cache: HashMap::new(),
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
        let _ = spawn_worker(rs.worker_spec(index), link);
    }
    rs.started = Instant::now();
    rs.arm_faults(transport)?;
    rs.dispatch()?;

    // The poll loop. Each sweep: fire due timers, drain every link, ship
    // what the core queued. An idle sweep first *yields* for a bounded
    // streak — under a level barrier the reports are microseconds away, and
    // on a small core count `yield_now` reschedules the worker threads
    // directly, whereas even a 10µs sleep pays timer-slack latency per wave.
    // Only a long idle streak (a real lease/restart wait) falls back to
    // sleeping, exponentially backed off and capped by the next timer
    // deadline. All deadline arithmetic saturates, so a deadline already in
    // the past fires immediately instead of panicking.
    const SPIN_SWEEPS: u32 = 256;
    const IDLE_MIN: Duration = Duration::from_micros(10);
    const IDLE_MAX: Duration = Duration::from_micros(500);
    let mut idle_streak = 0u32;
    let mut idle = IDLE_MIN;
    while !rs.core.plane().run_complete() {
        // A batch's leases share one deadline: fire every due timer, then
        // ship what they released with one dispatch (one commit).
        while let Some(&Reverse((at, timer))) = rs.timers.peek() {
            if at > Instant::now() {
                break;
            }
            rs.timers.pop();
            rs.fire_timer(timer, transport)?;
        }
        rs.dispatch()?;
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
                        let reported = matches!(frame, Frame::ReportBatch { .. });
                        let now = rs.now_sim();
                        rs.core.on_frame(worker, frame, now).map_err(fatal)?;
                        // Root iterations are released only by reports.
                        if reported {
                            rs.arm_faults(transport)?;
                        }
                        // Ship eagerly: the grants this frame produced (for
                        // this worker *and* any woken waiters) leave now
                        // instead of after the rest of the sweep — same
                        // number of writes, tens of µs less turnaround.
                        rs.dispatch()?;
                        progressed = true;
                        if rs.core.plane().run_complete() {
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
                        if rs.core.plane().is_alive(worker) && rs.txs[worker].is_some() {
                            rs.kill(worker)?;
                            rs.dispatch()?;
                        }
                        progressed = true;
                        break;
                    }
                }
            }
            if rs.core.plane().run_complete() {
                break;
            }
        }
        rs.dispatch()?;
        if progressed {
            idle_streak = 0;
            idle = IDLE_MIN;
            continue;
        }
        idle_streak += 1;
        if idle_streak <= SPIN_SWEEPS && rs.timers.is_empty() {
            thread::yield_now();
            continue;
        }
        // Catch-all before sleeping: re-scan the waiting queue once, so a
        // skipped re-scan (reports without a committed sync) can only delay
        // a waiter by one spin streak, never stall it.
        rs.core.wake_waiters();
        rs.dispatch()?;
        let sleep = match rs.timers.peek() {
            Some(Reverse((at, _))) => at.saturating_duration_since(Instant::now()).min(idle),
            None => idle,
        };
        if !sleep.is_zero() {
            thread::sleep(sleep);
        }
        idle = (idle * 2).min(IDLE_MAX);
    }
    let elapsed = rs.started.elapsed();

    // Broadcast the relabeled schedules and collect every replica's params.
    // The Iter frames reveal the completion schedule, so they leave through
    // the core's dispatch like every other frame: after the commit. Each
    // worker's epilogue ships as one queued batch and a single flush, one
    // worker at a time, so only one worker's frames are ever built at once.
    let schedules = schedules_from_completions(rs.core.completions());
    let reference = replay_schedules(rs.core.plane().plan(), &schedules);
    let mut waiting = Vec::new();
    for worker in 0..n {
        if rs.txs[worker].is_some() {
            rs.core.end_run(worker, &schedules);
            rs.dispatch()?;
            waiting.extend_from_slice(&rs.delivered);
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
    use crate::transport::{ChanTransport, TcpTransport};
    use crate::virt::plan_for;
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
