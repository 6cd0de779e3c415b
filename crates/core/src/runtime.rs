//! The Fela runtime: TS + workers + network + GPU, wired into the discrete-event
//! simulator (§III-A workflow).
//!
//! Event flow per token:
//!
//! ```text
//! worker idle ──RPC──▶ RequestArrive @TS ──RPC(+conflict penalty)──▶ GrantArrive
//!      ▲                                                            │
//!      │                         dependency flows (from holders) ───┤
//!      │                                                            ▼
//! ReportArrive @TS ◀──RPC── ComputeDone ◀── compute(+straggler) ── start
//! ```
//!
//! Reports piggyback the next request (§III-D "Fela combines report and request").
//! When a level's last token completes, its parameters ring-all-reduce among the
//! sync group *without blocking trainers* (§III-A); the BSP barrier closes an
//! iteration once all tokens are trained and all syncs have drained.
//!
//! Every Token Server decision is the [`ServerCore`]'s, the same core
//! `fela-live` drives against the wall clock: a request is a pull, a report
//! a report batch of one, a finished all-reduce a finished sync, and faults,
//! lease deadlines and the server crash are the core's fault inputs. Each
//! event ends with one [`ServerCore::dispatch`], which schedules a
//! `GrantArrive` per grant in the order the plane issued them, and one
//! commit, so a server crash (an event of its own) finds the log's stage
//! empty. The world itself keeps what a simulator owns: workers, the network
//! and its rings, straggler floors, lease deadlines armed at compute start,
//! RPC and conflict delays, and the trace.

use std::io;

use fela_cluster::{FaultKind, Scenario, TrainingRuntime};
use fela_metrics::RunReport;
use fela_model::{bin_partition, Partition, PartitionOptions};
use fela_net::{FlowSpec, Network, NodeId, RingAllReduce};
use fela_sim::{
    BusyTracker, Engine, EventId, EventKind, Scheduler, SimDuration, SimTime, Trace, World,
};

use crate::config::{FelaConfig, RecoveryConfig};
use crate::plan::TokenPlan;
use crate::plane::ControlPlane;
use crate::server::{Grant, LevelMeta, SyncSpec};
use crate::server_core::{CoreError, ServerCore};
use crate::token::TokenId;
use crate::wal::DurabilityOptions;

/// The simulation runtime treats any core error — a scheduling invariant or
/// a failed write-ahead log — as fatal (a real deployment would abort the
/// job the same way).
fn core_ok<T>(result: Result<T, CoreError>) -> T {
    match result {
        Ok(v) => v,
        Err(e) => panic!("{e}"),
    }
}

/// Tokens a simulated worker pulls per request: it computes one grant at a
/// time.
const SIM_PIPELINE: usize = 1;

/// Tag namespace for network flows: dependency fetches carry the token id,
/// sync flows carry the level.
const TAG_DEP: u64 = 1 << 62;
const TAG_SYNC: u64 = 2 << 62;

fn dep_tag(token: TokenId) -> u64 {
    TAG_DEP | token.0
}

fn sync_tag(level: usize, iteration: u64) -> u64 {
    // Under SSP staleness two syncs of one level can be in flight concurrently,
    // so the tag carries both coordinates.
    TAG_SYNC | ((level as u64) << 40) | (iteration & 0xFF_FFFF_FFFF)
}

enum Ev {
    /// A worker's token request reaches the TS.
    RequestArrive { worker: usize },
    /// A grant reaches `worker`. `epoch` is the addressee's liveness epoch
    /// at send time: a grant in flight across a crash is void on arrival (the
    /// TS revoked its lease when it processed the crash).
    GrantArrive {
        worker: usize,
        grant: Grant,
        epoch: u64,
    },
    /// The worker's GPU finishes a token.
    ComputeDone { worker: usize },
    /// A completion report (with piggybacked request) reaches the TS.
    ReportArrive { worker: usize, token: TokenId },
    /// The network has one or more flows completing now.
    NetWake,
    /// An injected fault strikes `worker` (scheduled when the victim's
    /// iteration is released).
    Fault { worker: usize, kind: FaultKind },
    /// A crashed worker rejoins after its downtime.
    Restart { worker: usize },
    /// The lease deadline armed for `(token, attempt)` passes. Stale timers —
    /// the token was reported, or already revoked and re-granted — no-op.
    LeaseExpire { token: TokenId, attempt: u64 },
    /// The Token Server process dies, recovers from its write-ahead log, and
    /// is unreachable for `down` (every server-touching event stalls).
    ServerCrash { down: SimDuration },
}

/// One compute span to price: a granted token's sub-model on its worker.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ComputeRequest {
    /// The worker the token was granted to.
    pub worker: usize,
    /// First model unit of the sub-model (inclusive).
    pub unit_start: usize,
    /// Last model unit of the sub-model (exclusive).
    pub unit_end: usize,
    /// Samples the token covers.
    pub batch: u64,
}

/// The span-pricing seam: where compute spans come from.
///
/// When a worker starts a token the event loop asks the backend how many
/// seconds the span costs and schedules `ComputeDone` accordingly.
/// Every runtime uses [`LocalCompute`], the scenario's analytic GPU model;
/// the seam lets a probe substitute a wrapper around it (`fela_benchmark`
/// times span pricing this way). The contract that keeps a substitute
/// bit-identical: it returns the *raw* `f64` seconds of
/// [`fela_cluster::ClusterSpec::compute_secs`] — the runtime converts to
/// virtual time itself (lease deadlines multiply the raw seconds before any
/// nanosecond rounding, so a backend must not round first).
pub trait ComputeBackend {
    /// Prices one compute span in seconds.
    fn compute_secs(&mut self, scenario: &Scenario, req: &ComputeRequest) -> f64;
}

/// The default backend: evaluate the scenario's analytic GPU model inline.
#[derive(Clone, Copy, Default, Debug)]
pub struct LocalCompute;

impl ComputeBackend for LocalCompute {
    fn compute_secs(&mut self, scenario: &Scenario, req: &ComputeRequest) -> f64 {
        scenario.cluster.compute_secs(
            &scenario.model,
            req.unit_start,
            req.unit_end,
            req.batch,
            req.worker,
        )
    }
}

struct WorkerState {
    current: Option<Grant>,
    pending_fetches: usize,
    /// Liveness epoch, bumped on every crash: events addressed to a previous
    /// incarnation (an in-flight grant) are dropped on arrival.
    epoch: u64,
    /// The in-flight `ComputeDone` event and its scheduled instant, so a crash
    /// can cancel it and a hang can push it back.
    compute_ev: Option<(EventId, SimTime)>,
    /// The worker is frozen until this instant (Hang fault): computes cannot
    /// start earlier.
    hang_until: SimTime,
}

struct ActiveSync {
    level: usize,
    iteration: u64,
    /// Participants at start time, so a crash can restart the collective among
    /// the survivors.
    participants: Vec<usize>,
    bytes: u64,
    collective: RingAllReduce,
}

struct FelaWorld<'a> {
    trace: Trace,
    /// Compute-span pricing: [`LocalCompute`], or a probe around it.
    backend: &'a mut dyn ComputeBackend,
    scenario: Scenario,
    partition: Partition,
    core: ServerCore,
    net: Network,
    net_ev: Option<EventId>,
    workers: Vec<WorkerState>,
    syncs: Vec<ActiveSync>,
    busy: Vec<BusyTracker>,
    /// Start instant of each released iteration (straggler floors).
    iter_starts: Vec<SimTime>,
    /// Completion instant of each fully synced iteration.
    iter_done: Vec<SimTime>,
    finished_at: Option<SimTime>,
    /// Whether the scenario injects faults. False keeps every fault code path
    /// cold: no fault events, no lease timers, no extra counters.
    fault_active: bool,
    /// Iterations whose fault declarations have been turned into events.
    faults_armed: usize,
    /// The server process is down until this instant: server-touching events
    /// arriving earlier are deferred to it (ZERO when the server is up,
    /// which keeps crash-free runs byte-identical).
    server_frozen_until: SimTime,
}

impl FelaWorld<'_> {
    fn plane(&self) -> &ControlPlane {
        self.core.plane()
    }

    fn rpc(&self) -> SimDuration {
        self.plane().config().rpc_latency
    }

    fn reschedule_net(&mut self, sched: &mut Scheduler<'_, Ev>) {
        if let Some(ev) = self.net_ev.take() {
            sched.cancel(ev);
        }
        if let Some(t) = self.net.next_completion() {
            // A flow can "complete" marginally in the past after float rounding;
            // clamp to now.
            let at = t.max(sched.now());
            self.net_ev = Some(sched.schedule_at(at, Ev::NetWake));
        }
    }

    /// Whether grants are leases with armed deadlines. Requires both an active
    /// fault model *and* recovery config: a fault-free run schedules no timer
    /// events at all, which is what keeps it bit-identical to a build without
    /// fault injection.
    fn leases_armed(&self) -> bool {
        self.fault_active && self.plane().recovery_on()
    }

    /// The smallest-id eligible worker — mirrors the server's deterministic
    /// re-home target for crashed workers' data.
    fn rehome_target(&self) -> Option<usize> {
        (0..self.scenario.cluster.nodes)
            .find(|&w| self.plane().is_alive(w) && !self.plane().is_quarantined(w))
    }

    /// Ends an event: ships what the core queued — each grant reaches its
    /// worker one RPC later, plus the lock penalty when it conflicted — then
    /// commits whatever else the event staged.
    fn ship(&mut self, sched: &mut Scheduler<'_, Ev>) {
        let rpc = self.rpc();
        let penalty = self.plane().config().conflict_penalty;
        let workers = &self.workers;
        let shipped = self.core.dispatch(sched.now(), |out| {
            let (worker, epoch) = (out.worker, workers[out.worker].epoch);
            for grant in out.grants {
                let delay = if grant.conflict { rpc + penalty } else { rpc };
                sched.schedule_in(
                    delay,
                    Ev::GrantArrive {
                        worker,
                        grant,
                        epoch,
                    },
                );
            }
        });
        core_ok(shipped.and_then(|()| self.core.commit_wal()));
    }

    /// Turns this scenario's fault declarations into events as iterations are
    /// released (a fault declared for iteration `k` strikes when `k` starts).
    fn arm_faults(&mut self, sched: &mut Scheduler<'_, Ev>) {
        if !self.fault_active {
            return;
        }
        while self.faults_armed < self.iter_starts.len() {
            let it = self.faults_armed as u64;
            for worker in 0..self.scenario.cluster.nodes {
                if let Some(kind) = self.scenario.fault_for(it, worker) {
                    sched.schedule_now(Ev::Fault { worker, kind });
                }
            }
            if let Some(down) = self.scenario.fault.server_fault_for(it) {
                sched.schedule_now(Ev::ServerCrash { down });
            }
            self.faults_armed += 1;
        }
    }

    fn start_compute(&mut self, worker: usize, sched: &mut Scheduler<'_, Ev>) {
        let Some(grant) = self.workers[worker].current.as_ref() else {
            panic!("worker {worker} started compute without a grant");
        };
        let sm = &self.partition.sub_models()[grant.token.level];
        let req = ComputeRequest {
            worker,
            unit_start: sm.unit_start,
            unit_end: sm.unit_end,
            batch: grant.token.batch,
        };
        let token = grant.token.id;
        let attempt = grant.attempt;
        let iter = grant.token.iteration;
        let secs = self.backend.compute_secs(&self.scenario, &req);
        // Straggler sleep (§V-C2): the worker cannot start computing before
        // its iteration's start + d, so the sleep overlaps any scheduling idle
        // time (and overlapping iterations each charge their own sleep).
        let floor = self.iter_starts[iter as usize] + self.scenario.straggler_delay(iter, worker);
        let start = sched.now().max(floor).max(self.workers[worker].hang_until);
        self.busy[worker].begin(start);
        let done_at = start + SimDuration::from_secs_f64(secs);
        let ev = sched.schedule_at(done_at, Ev::ComputeDone { worker });
        self.workers[worker].compute_ev = Some((ev, done_at));
        if self.leases_armed() {
            if let Some(rec) = self.plane().config().recovery {
                let deadline = start
                    + SimDuration::from_secs_f64(rec.lease_secs(secs, attempt))
                    + rec.lease_grace;
                sched.schedule_at(deadline, Ev::LeaseExpire { token, attempt });
            }
        }
    }

    fn start_syncs(&mut self, specs: Vec<SyncSpec>, sched: &mut Scheduler<'_, Ev>) {
        let now = sched.now();
        for spec in specs {
            self.trace.record_kind(
                now,
                "sync",
                EventKind::SyncStart {
                    level: spec.level,
                    iteration: spec.iteration,
                },
                || {
                    format!(
                        "all-reduce level {} iter {} ({} MB among {:?})",
                        spec.level + 1,
                        spec.iteration,
                        spec.bytes / 1_000_000,
                        spec.participants
                    )
                },
            );
            if spec.is_degenerate() {
                // Nothing crosses the wire: the core committed the update, but
                // the commit point still appears in the trace for checkers.
                self.trace.record_kind(
                    now,
                    "sync",
                    EventKind::SyncDone {
                        level: spec.level,
                        iteration: spec.iteration,
                    },
                    || {
                        format!(
                            "degenerate sync level {} iter {} committed for free",
                            spec.level + 1,
                            spec.iteration
                        )
                    },
                );
                continue;
            }
            let participants = spec.participants.iter().map(|&w| NodeId(w)).collect();
            let collective = RingAllReduce::start(
                &mut self.net,
                now,
                participants,
                spec.bytes,
                sync_tag(spec.level, spec.iteration),
            );
            debug_assert!(!collective.is_done(), "non-degenerate syncs move bytes");
            self.syncs.push(ActiveSync {
                level: spec.level,
                iteration: spec.iteration,
                participants: spec.participants,
                bytes: spec.bytes,
                collective,
            });
        }
    }

    /// Tracks the plane after a change that can move an iteration: records
    /// newly released iterations (for straggler floors) and newly completed
    /// ones, arms the released iterations' faults, and detects run
    /// completion.
    fn track_iterations(&mut self, sched: &mut Scheduler<'_, Ev>) {
        let now = sched.now();
        while (self.iter_starts.len() as u64) < self.plane().released_root_iterations() {
            self.iter_starts.push(now);
        }
        while (self.iter_done.len() as u64) < self.plane().completed_iterations() {
            self.iter_done.push(now);
        }
        self.arm_faults(sched);
        if self.plane().run_complete() {
            self.finished_at = Some(now);
        }
    }

    /// The Token Server process dies and is reborn from its write-ahead log
    /// ([`ServerCore::server_crash`]), then freezes all server-touching
    /// traffic for the downtime. Work in flight survives: the workers and the
    /// network are alive.
    fn on_server_crash(&mut self, down: SimDuration, sched: &mut Scheduler<'_, Ev>) {
        let now = sched.now();
        self.trace.record(now, "fault", || {
            format!("token server crashed, recovering from WAL, back in {down}")
        });
        core_ok(self.core.server_crash());
        self.server_frozen_until = now + down;
    }

    fn on_flow_done(
        &mut self,
        id: fela_net::FlowId,
        spec: FlowSpec,
        sched: &mut Scheduler<'_, Ev>,
    ) {
        let now = sched.now();
        if spec.tag & TAG_DEP != 0 {
            let token = TokenId(spec.tag & !TAG_DEP);
            let worker = spec.dst.0;
            let state = &mut self.workers[worker];
            let waiting_for_this = state
                .current
                .as_ref()
                .is_some_and(|g| g.token.id == token && state.pending_fetches > 0);
            if !waiting_for_this {
                // Without faults this is a scheduler bug; with them, a fetch
                // can outlive its grant (the addressee crashed and rejoined,
                // or the grant was revoked while inputs were in flight).
                assert!(
                    self.fault_active,
                    "dep flow for token {token:?} arrived at worker {worker} unexpectedly"
                );
                return;
            }
            state.pending_fetches -= 1;
            if state.pending_fetches == 0 {
                self.start_compute(worker, sched);
            }
        } else {
            debug_assert!(spec.tag & TAG_SYNC != 0, "unknown flow tag {}", spec.tag);
            let mut finished: Vec<(usize, u64)> = Vec::new();
            for sync in &mut self.syncs {
                if sync.collective.tag() == spec.tag {
                    use fela_net::CollectiveProgress as P;
                    match sync.collective.on_flow_complete(&mut self.net, now, id) {
                        P::Done => finished.push((sync.level, sync.iteration)),
                        P::NotMine => unreachable!("tag matched but flow not owned"),
                        P::InProgress | P::RoundStarted => {}
                    }
                    break;
                }
            }
            for (level, iteration) in finished {
                self.syncs
                    .retain(|s| !(s.level == level && s.iteration == iteration));
                self.trace.record_kind(
                    now,
                    "sync",
                    EventKind::SyncDone { level, iteration },
                    || format!("all-reduce level {} iter {} done", level + 1, iteration),
                );
                core_ok(self.core.sync_finished(level, iteration));
                self.track_iterations(sched);
            }
        }
    }

    /// A worker freezes for `stall` but keeps its state: its in-flight compute
    /// finishes late, and nothing is revoked by the hang itself (the lease
    /// deadline, deliberately, is *not* extended — a long enough hang expires
    /// the lease and the token is recomputed elsewhere).
    fn on_hang(&mut self, worker: usize, stall: SimDuration, sched: &mut Scheduler<'_, Ev>) {
        let now = sched.now();
        if !self.plane().is_alive(worker) {
            return; // already down: the hang is subsumed by the outage
        }
        self.trace.record(now, "fault", || {
            format!("worker {worker} hangs for {stall}")
        });
        let until = now + stall;
        if until > self.workers[worker].hang_until {
            self.workers[worker].hang_until = until;
        }
        if let Some((ev, done_at)) = self.workers[worker].compute_ev.take() {
            sched.cancel(ev);
            let pushed = done_at + stall;
            let new_ev = sched.schedule_at(pushed, Ev::ComputeDone { worker });
            self.workers[worker].compute_ev = Some((new_ev, pushed));
        }
    }

    /// A worker dies (process crash or dark link — from the scheduler's view a
    /// partitioned node is equally gone: it can neither receive grants nor
    /// report gradients). Its in-flight work is dropped, its leases revoked,
    /// its transfers aborted; with `restart_after` set it rejoins later.
    fn on_crash(
        &mut self,
        worker: usize,
        restart_after: Option<SimDuration>,
        sched: &mut Scheduler<'_, Ev>,
    ) {
        let now = sched.now();
        if !self.plane().is_alive(worker) {
            return; // chaos can strike a worker that is already down
        }
        self.trace
            .record_kind(now, "fault", EventKind::Crash { worker }, || {
                format!(
                    "worker {worker} crashed{}",
                    match restart_after {
                        Some(d) => format!(", back in {d}"),
                        None => " permanently".to_owned(),
                    }
                )
            });
        // Kill the local incarnation: in-flight grants to it become void
        // (epoch), its compute never completes, its GPU interval is closed.
        let state = &mut self.workers[worker];
        state.epoch += 1;
        state.current = None;
        state.pending_fetches = 0;
        state.hang_until = SimTime::ZERO;
        if let Some((ev, _)) = state.compute_ev.take() {
            sched.cancel(ev);
        }
        self.busy[worker].abort(now);
        // Crash notification to the TS: revokes the victim's leases, re-homes
        // its durable data, redistributes its bucket, shrinks the barrier.
        for t in core_ok(self.core.worker_crashed(worker)) {
            let attempt = self.plane().attempt_of(t).saturating_sub(1);
            self.trace.record_kind(
                now,
                "ts",
                EventKind::Revoke {
                    worker,
                    token: t.0,
                    attempt,
                },
                || format!("revoke token {} from crashed worker {worker}", t.0),
            );
        }
        // The node's NIC goes dark: abort everything touching it. Fetches an
        // *alive* worker was pulling from the victim restart from the shard's
        // new home; collectives the victim participated in restart among the
        // survivors.
        let aborted = self.net.fail_node(now, NodeId(worker));
        let mut broken_syncs: Vec<u64> = Vec::new();
        let mut rehomed: Vec<FlowSpec> = Vec::new();
        for (_, spec) in aborted {
            if spec.tag & TAG_DEP != 0 {
                let token = TokenId(spec.tag & !TAG_DEP);
                let dst = spec.dst.0;
                if dst != worker {
                    let dst_state = &self.workers[dst];
                    let still_wanted = dst_state.pending_fetches > 0
                        && dst_state
                            .current
                            .as_ref()
                            .is_some_and(|g| g.token.id == token);
                    if still_wanted {
                        // The server re-homed every holder entry pointing at
                        // the victim onto the smallest eligible survivor. With
                        // no survivor left (fully dark cluster) the fetch is
                        // simply dropped — the grant's lease expires and the
                        // token is re-granted once a worker rejoins.
                        if let Some(src) = self.rehome_target() {
                            rehomed.push(FlowSpec {
                                src: NodeId(src),
                                ..spec
                            });
                        }
                    }
                }
                // dst == worker: the victim's own fetch — its grant is revoked.
            } else if spec.tag & TAG_SYNC != 0 && !broken_syncs.contains(&spec.tag) {
                broken_syncs.push(spec.tag);
            }
        }
        self.net.start_flows(now, &rehomed);
        for tag in broken_syncs {
            self.restart_sync(tag, sched);
        }
        self.reschedule_net(sched);
        if let Some(down) = restart_after {
            sched.schedule_at(now + down, Ev::Restart { worker });
        }
        // Revoked tokens are grantable again; waiting survivors pick them up
        // at the event's dispatch.
        self.track_iterations(sched);
    }

    /// Restarts a broken collective among the surviving participants from
    /// scratch (ring progress is lost). One survivor (or none) degenerates to
    /// an immediate commit, like [`SyncSpec::is_degenerate`].
    fn restart_sync(&mut self, tag: u64, sched: &mut Scheduler<'_, Ev>) {
        let now = sched.now();
        let Some(pos) = self.syncs.iter().position(|s| s.collective.tag() == tag) else {
            return;
        };
        let sync = self.syncs.remove(pos);
        // Drop the collective's remaining flows (legs not touching the victim).
        self.net.abort_matching(now, |s| s.tag == tag);
        // Quarantined workers stay in: their network is healthy, they are only
        // barred from new grants. Only dead nodes leave the ring.
        let survivors: Vec<usize> = sync
            .participants
            .iter()
            .copied()
            .filter(|&w| self.plane().is_alive(w))
            .collect();
        if survivors.len() <= 1 {
            self.trace.record_kind(
                now,
                "sync",
                EventKind::SyncDone {
                    level: sync.level,
                    iteration: sync.iteration,
                },
                || {
                    format!(
                        "all-reduce level {} iter {} degenerated to a local commit after a crash",
                        sync.level + 1,
                        sync.iteration
                    )
                },
            );
            core_ok(self.core.sync_finished(sync.level, sync.iteration));
            self.track_iterations(sched);
            return;
        }
        self.trace.record(now, "sync", || {
            format!(
                "restarting all-reduce level {} iter {} among {survivors:?}",
                sync.level + 1,
                sync.iteration
            )
        });
        let nodes = survivors.iter().map(|&w| NodeId(w)).collect();
        let collective = RingAllReduce::start(&mut self.net, now, nodes, sync.bytes, tag);
        self.syncs.push(ActiveSync {
            level: sync.level,
            iteration: sync.iteration,
            participants: survivors,
            bytes: sync.bytes,
            collective,
        });
    }

    /// A lease deadline passed. The core decides whether the timer is stale;
    /// a live expiry revokes the token (and possibly quarantines the holder),
    /// making it grantable to someone else. The victim may still be computing:
    /// its eventual report will be rejected as stale.
    fn on_lease_expiry(&mut self, token: TokenId, attempt: u64, sched: &mut Scheduler<'_, Ev>) {
        let now = sched.now();
        let Some(exp) = core_ok(self.core.lease_fired(token, attempt)) else {
            return;
        };
        if exp.quarantined {
            self.trace.record(now, "ts", || {
                format!(
                    "worker {} quarantined after repeated lease expiries",
                    exp.worker
                )
            });
        }
        for t in exp.revoked {
            let at = self.plane().attempt_of(t).saturating_sub(1);
            self.trace.record_kind(
                now,
                "ts",
                EventKind::Revoke {
                    worker: exp.worker,
                    token: t.0,
                    attempt: at,
                },
                || {
                    format!(
                        "lease on token {} (attempt {at}) expired; revoked from worker {}",
                        t.0, exp.worker
                    )
                },
            );
        }
        self.track_iterations(sched);
    }
}

impl World for FelaWorld<'_> {
    type Event = Ev;

    /// Handles one event, then flushes the core: the grants it queued leave
    /// after the commit, and reach their workers in later events. A server
    /// crash is an event of its own and therefore always finds the stage
    /// empty.
    fn handle(&mut self, now: SimTime, event: Ev, sched: &mut Scheduler<'_, Ev>) {
        self.on_event(now, event, sched);
        self.ship(sched);
    }
}

impl FelaWorld<'_> {
    fn on_event(&mut self, now: SimTime, event: Ev, sched: &mut Scheduler<'_, Ev>) {
        // Server downtime: anything that would reach the (dead) Token Server
        // process — requests, reports, fault notifications, lease timers, and
        // the network wake that commits sync watermarks — stalls until the
        // recovered process is back. Worker-local events (grant arrival,
        // compute completion) proceed: the machines are alive, only the
        // coordinator is down. `server_frozen_until` is ZERO in crash-free
        // runs, so this guard never fires there.
        if now < self.server_frozen_until {
            let at = self.server_frozen_until;
            match event {
                Ev::RequestArrive { .. }
                | Ev::ReportArrive { .. }
                | Ev::Fault { .. }
                | Ev::Restart { .. }
                | Ev::LeaseExpire { .. }
                | Ev::ServerCrash { .. } => {
                    sched.schedule_at(at, event);
                    return;
                }
                Ev::NetWake => {
                    // Keep the single-in-flight NetWake invariant intact.
                    self.net_ev = Some(sched.schedule_at(at, Ev::NetWake));
                    return;
                }
                Ev::GrantArrive { .. } | Ev::ComputeDone { .. } => {}
            }
        }
        match event {
            Ev::RequestArrive { worker } => core_ok(self.core.pull(worker, now)),
            Ev::GrantArrive {
                worker,
                grant,
                epoch,
            } => {
                if epoch != self.workers[worker].epoch {
                    // The addressee died while the grant was in flight; the TS
                    // revoked the lease when it processed the crash.
                    return;
                }
                self.trace.record_kind(
                    now,
                    "ts",
                    EventKind::Grant {
                        worker,
                        token: grant.token.id.0,
                        level: grant.token.level,
                        iteration: grant.token.iteration,
                        deps: grant.token.deps.iter().map(|d| d.0).collect(),
                    },
                    || {
                        format!(
                        "grant token {} (level {}, iter {}, batch {}) to worker {} ({} fetches{})",
                        grant.token.id.0,
                        grant.token.level + 1,
                        grant.token.iteration,
                        grant.token.batch,
                        worker,
                        grant.fetches.len(),
                        if grant.conflict { ", conflicted" } else { "" }
                    )
                    },
                );
                let fetches = grant.fetches.clone();
                let token = grant.token.id;
                let state = &mut self.workers[worker];
                debug_assert!(state.current.is_none(), "worker {worker} double-granted");
                state.current = Some(grant);
                state.pending_fetches = fetches.len();
                if fetches.is_empty() {
                    self.start_compute(worker, sched);
                } else {
                    let specs: Vec<FlowSpec> = fetches
                        .into_iter()
                        .map(|(holder, bytes)| FlowSpec {
                            src: NodeId(holder),
                            dst: NodeId(worker),
                            bytes,
                            tag: dep_tag(token),
                        })
                        .collect();
                    self.net.start_flows(now, &specs);
                    self.reschedule_net(sched);
                }
            }
            Ev::ComputeDone { worker } => {
                self.workers[worker].compute_ev = None;
                let Some(grant) = self.workers[worker].current.take() else {
                    panic!("worker {worker} finished compute without a grant");
                };
                self.trace.record_kind(
                    now,
                    "worker",
                    EventKind::Complete {
                        worker,
                        token: grant.token.id.0,
                        level: grant.token.level,
                        iteration: grant.token.iteration,
                    },
                    || {
                        format!(
                            "worker {} finished token {} (level {})",
                            worker,
                            grant.token.id.0,
                            grant.token.level + 1
                        )
                    },
                );
                self.busy[worker].end(now);
                sched.schedule_in(
                    self.rpc(),
                    Ev::ReportArrive {
                        worker,
                        token: grant.token.id,
                    },
                );
            }
            Ev::ReportArrive { worker, token } => {
                let reported = core_ok(self.core.report(worker, [token]));
                // A stale reporter no longer holds the token's lease (it hung
                // past its deadline, or this report raced a crash/restart
                // cycle): the gradient is discarded, never applied.
                if !reported.stale.is_empty() {
                    self.trace.record_kind(
                        now,
                        "ts",
                        EventKind::StaleReport {
                            worker,
                            token: token.0,
                        },
                        || {
                            format!(
                                "discarded stale report of token {} from worker {worker}",
                                token.0
                            )
                        },
                    );
                }
                if !reported.syncs.is_empty() {
                    self.start_syncs(reported.syncs, sched);
                    self.reschedule_net(sched);
                }
                // Piggybacked request for the reporter; the event's dispatch
                // then serves any other waiters (a quarantined reporter is
                // refused and goes idle).
                core_ok(self.core.pull(worker, now));
                self.track_iterations(sched);
            }
            Ev::NetWake => {
                self.net_ev = None;
                let completions = self.net.take_completions(now);
                for (id, spec) in completions {
                    self.on_flow_done(id, spec, sched);
                }
                self.reschedule_net(sched);
            }
            Ev::Fault { worker, kind } => match kind {
                FaultKind::Hang { stall } => self.on_hang(worker, stall, sched),
                FaultKind::Crash => self.on_crash(worker, None, sched),
                FaultKind::CrashRestart { down } | FaultKind::LinkDown { down } => {
                    self.on_crash(worker, Some(down), sched)
                }
            },
            Ev::Restart { worker } => {
                if self.plane().is_alive(worker) {
                    return; // defensive: at most one restart per crash is scheduled
                }
                core_ok(self.core.worker_restarted(worker));
                self.trace
                    .record_kind(now, "fault", EventKind::Restart { worker }, || {
                        format!("worker {worker} rejoined the cluster")
                    });
                // The reborn process asks for work like a freshly started one.
                sched.schedule_in(self.rpc(), Ev::RequestArrive { worker });
            }
            Ev::LeaseExpire { token, attempt } => self.on_lease_expiry(token, attempt, sched),
            Ev::ServerCrash { down } => self.on_server_crash(down, sched),
        }
    }
}

/// The Fela training runtime (implements [`TrainingRuntime`]).
pub struct FelaRuntime {
    /// Scheduling/tuning configuration.
    pub config: FelaConfig,
    /// Control-plane durability (write-ahead log + checkpoints). `None`
    /// keeps the plane purely in-memory — unless the scenario declares a
    /// server fault, which implies an in-memory WAL (the crash cannot be
    /// survived without one). Logging never perturbs scheduling, so a
    /// durable crash-free run reports byte-identically to a non-durable one.
    pub durability: Option<DurabilityOptions>,
}

impl FelaRuntime {
    /// A runtime with the given configuration and default partitioning.
    pub fn new(config: FelaConfig) -> Self {
        FelaRuntime {
            config,
            durability: None,
        }
    }

    /// Enables control-plane durability.
    #[must_use]
    pub fn with_durability(mut self, durability: DurabilityOptions) -> Self {
        self.durability = Some(durability);
        self
    }

    /// Builds the partition this runtime would use for a scenario's model
    /// (the default options reproduce the paper's 3-way splits).
    pub fn partition_for(&self, scenario: &Scenario) -> Partition {
        let profile = &scenario.cluster.compute.profile;
        bin_partition(&scenario.model, profile, PartitionOptions::default())
    }

    /// Validates `scenario` and builds the Token Server's plane for it, with
    /// the partition it plans over, as every runtime starts. Faults imply
    /// recovery: grants must be leases for the server to revoke and re-grant
    /// a victim's tokens. A fault-free scenario leaves the config untouched.
    ///
    /// # Errors
    /// `InvalidInput` for an invalid fault model or a scenario that admits
    /// no token plan.
    pub fn plane_for(&self, scenario: &Scenario) -> io::Result<(ControlPlane, Partition)> {
        scenario.cluster.validate();
        let invalid = |e: String| io::Error::new(io::ErrorKind::InvalidInput, e);
        let fault = scenario.fault.validate();
        fault.map_err(|e| invalid(format!("invalid fault model: {e}")))?;
        let mut config = self.config.clone();
        if !scenario.fault.is_none() && config.recovery.is_none() {
            config.recovery = Some(RecoveryConfig::default());
        }
        let partition = self.partition_for(scenario);
        let (nodes, batch) = (scenario.cluster.nodes, scenario.total_batch);
        let plan = TokenPlan::build(&partition, &config, batch, nodes)
            .map_err(|e| invalid(format!("scenario must admit a token plan: {e}")))?;
        let meta = LevelMeta::for_partition(&partition);
        let plane = ControlPlane::new(plan, config, meta, nodes, scenario.iterations);
        Ok((plane, partition))
    }
}

impl FelaRuntime {
    /// Runs a scenario with schedule tracing enabled, returning the report and
    /// the recorded trace (grants, completions and syncs with virtual
    /// timestamps). Tracing costs formatting time, so [`TrainingRuntime::run`]
    /// leaves it off.
    pub fn run_traced(&self, scenario: &Scenario) -> (RunReport, Trace) {
        self.run_impl(scenario, Trace::enabled(), &mut LocalCompute)
    }

    /// Like [`FelaRuntime::run_traced`] but with compute spans priced through
    /// an explicit [`ComputeBackend`], the seam a timing probe substitutes.
    ///
    /// Everything else — grants, fetches, syncs, straggler floors, leases,
    /// faults — is the same code, so a backend that returns the same seconds
    /// as [`LocalCompute`] produces a byte-identical trace and report.
    pub fn run_traced_with(
        &self,
        scenario: &Scenario,
        backend: &mut dyn ComputeBackend,
    ) -> (RunReport, Trace) {
        self.run_impl(scenario, Trace::enabled(), backend)
    }

    fn run_impl(
        &self,
        scenario: &Scenario,
        trace: Trace,
        backend: &mut dyn ComputeBackend,
    ) -> (RunReport, Trace) {
        let (mut plane, partition) = match self.plane_for(scenario) {
            Ok(built) => built,
            Err(e) => panic!("{e}"),
        };
        let n = scenario.cluster.nodes;
        let fault_active = !scenario.fault.is_none();
        let rpc = plane.config().rpc_latency;
        // A `--wal-dir` goes through a real file with real fsyncs; otherwise
        // the log lives in memory.
        if let Some(durability) = DurabilityOptions::for_run(self.durability.as_ref(), scenario) {
            if let Err(e) = plane.open_wal(&durability) {
                panic!("cannot open the write-ahead log: {e}");
            }
        }
        let world = FelaWorld {
            trace,
            backend,
            scenario: scenario.clone(),
            partition,
            core: ServerCore::new(plane, SIM_PIPELINE),
            net: Network::new(scenario.cluster.network),
            net_ev: None,
            workers: (0..n)
                .map(|_| WorkerState {
                    current: None,
                    pending_fetches: 0,
                    epoch: 0,
                    compute_ev: None,
                    hang_until: SimTime::ZERO,
                })
                .collect(),
            syncs: Vec::new(),
            busy: vec![BusyTracker::new(); n],
            iter_starts: vec![SimTime::ZERO],
            iter_done: Vec::new(),
            finished_at: None,
            fault_active,
            // Iteration 0 is released before the engine starts; its fault
            // declarations are primed below rather than armed by an event.
            faults_armed: 1,
            server_frozen_until: SimTime::ZERO,
        };
        let mut engine = Engine::new(world);
        // Every worker fires its first request at t=0 (arrives after one RPC).
        for worker in 0..n {
            engine.prime_at(SimTime::ZERO + rpc, Ev::RequestArrive { worker });
        }
        if fault_active {
            for worker in 0..n {
                if let Some(kind) = scenario.fault_for(0, worker) {
                    engine.prime_at(SimTime::ZERO, Ev::Fault { worker, kind });
                }
            }
            if let Some(down) = scenario.fault.server_fault_for(0) {
                engine.prime_at(SimTime::ZERO, Ev::ServerCrash { down });
            }
        }
        let outcome = engine.run(1 << 32);
        assert_eq!(
            outcome,
            fela_sim::RunOutcome::Drained,
            "Fela simulation hit the step backstop"
        );
        let (world, _) = engine.into_world();
        let Some(end) = world.finished_at else {
            panic!("simulation drained before completing all iterations");
        };

        let mut report = RunReport::new("fela", &scenario.model.name, scenario.total_batch);
        report.iterations = world.iter_done.len() as u64;
        report.total_time_secs = end.as_secs_f64();
        // Per-iteration times are the gaps between successive iteration-complete
        // instants (iterations overlap, so these are pipeline-steady-state gaps).
        report.per_iteration_secs = world
            .iter_done
            .iter()
            .scan(SimTime::ZERO, |prev, &t| {
                let dt = t.since(*prev).as_secs_f64();
                *prev = t;
                Some(dt)
            })
            .collect();
        report.network_bytes = world.net.bytes_delivered();
        report.worker_busy_secs = world
            .busy
            .iter()
            .map(|b| b.busy_time().as_secs_f64())
            .collect();
        let stats = world.plane().stats();
        report.bump("grants", stats.grants);
        report.bump("local_grants", stats.local_grants);
        report.bump("steals", stats.steals);
        report.bump("conflicts", stats.conflicts);
        report.bump("remote_fetch_bytes", stats.remote_fetch_bytes);
        report.bump("starved_requests", stats.starved_requests);
        for (w, &count) in world.plane().trained_per_worker().iter().enumerate() {
            report.bump(&format!("tokens_worker{w}"), count);
        }
        let c = world.core.counters();
        let any_fault_fired =
            c.crashes + c.restarts + c.revocations + c.stale_reports + c.quarantines > 0;
        if world.fault_active && any_fault_fired {
            // Fault-path counters exist only when a fault actually struck, so
            // a crash-free run — whether the fault model is `None` or simply
            // never fired — stays byte-identical to a fault-free RunReport.
            report.bump("crashes", c.crashes);
            report.bump("restarts", c.restarts);
            report.bump("revocations", c.revocations);
            report.bump("stale_reports", c.stale_reports);
            report.bump("quarantined", c.quarantines);
        }
        if world.fault_active && c.server_crashes > 0 {
            // Gated separately from the worker-fault block so existing
            // worker-fault reports gain no new keys.
            report.bump("server_crashes", c.server_crashes);
            report.bump("server_restarts", c.server_restarts);
        }
        (report, world.trace)
    }
}

impl TrainingRuntime for FelaRuntime {
    fn name(&self) -> &'static str {
        "fela"
    }

    fn run(&self, scenario: &Scenario) -> RunReport {
        self.run_impl(scenario, Trace::disabled(), &mut LocalCompute)
            .0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fela_cluster::StragglerModel;
    use fela_model::zoo;

    fn quick_scenario(batch: u64) -> Scenario {
        Scenario::paper(zoo::vgg19(), batch).with_iterations(3)
    }

    fn runtime(weights: Vec<u64>) -> FelaRuntime {
        FelaRuntime::new(FelaConfig::new(3).with_weights(weights))
    }

    #[test]
    fn completes_all_iterations() {
        let r = runtime(vec![1, 2, 4]).run(&quick_scenario(128));
        assert_eq!(r.iterations, 3);
        assert_eq!(r.per_iteration_secs.len(), 3);
        assert!(r.total_time_secs > 0.0);
        assert!(r.average_throughput() > 0.0);
    }

    #[test]
    fn token_conservation() {
        let r = runtime(vec![1, 2, 4]).run(&quick_scenario(128));
        // 8 + 4 + 2 tokens per iteration × 3 iterations.
        assert_eq!(r.counter("grants"), 14 * 3);
        let per_worker: u64 = (0..8)
            .map(|w| r.counter(&format!("tokens_worker{w}")))
            .sum();
        assert_eq!(per_worker, 14 * 3);
    }

    #[test]
    fn deterministic_runs() {
        let a = runtime(vec![1, 2, 4]).run(&quick_scenario(128));
        let b = runtime(vec![1, 2, 4]).run(&quick_scenario(128));
        assert_eq!(a.total_time_secs, b.total_time_secs);
        assert_eq!(a.network_bytes, b.network_bytes);
        assert_eq!(a.counters, b.counters);
    }

    #[test]
    fn stragglers_slow_the_run_down() {
        let base = runtime(vec![1, 2, 4]).run(&quick_scenario(128));
        let slow = runtime(vec![1, 2, 4]).run(&quick_scenario(128).with_straggler(
            StragglerModel::RoundRobin {
                delay: SimDuration::from_secs(2),
            },
        ));
        assert!(slow.total_time_secs > base.total_time_secs);
        // Token counts unchanged — only timing shifts.
        assert_eq!(slow.counter("grants"), base.counter("grants"));
    }

    #[test]
    fn straggler_delay_mostly_absorbed() {
        // With token stealing, one 2 s straggler per iteration should cost the
        // 8-worker cluster well under the full 2 s per iteration.
        let base = runtime(vec![1, 2, 4]).run(&quick_scenario(256));
        let slow = runtime(vec![1, 2, 4]).run(&quick_scenario(256).with_straggler(
            StragglerModel::RoundRobin {
                delay: SimDuration::from_secs(2),
            },
        ));
        let pid = (slow.total_time_secs - base.total_time_secs) / 3.0;
        assert!(
            pid < 2.0,
            "per-iteration delay {pid} should be < full sleep"
        );
        assert!(pid > 0.0);
    }

    #[test]
    fn hf_off_causes_conflicts_and_remote_fetches() {
        let on = runtime(vec![1, 2, 4]).run(&quick_scenario(128));
        let off = FelaRuntime::new(
            FelaConfig::new(3)
                .with_weights(vec![1, 2, 4])
                .with_hf(false),
        )
        .run(&quick_scenario(128));
        assert!(off.counter("conflicts") > on.counter("conflicts"));
        assert!(
            off.counter("remote_fetch_bytes") > on.counter("remote_fetch_bytes"),
            "global bucket loses sample affinity"
        );
        assert!(off.total_time_secs >= on.total_time_secs);
    }

    #[test]
    fn ctd_reduces_network_bytes() {
        let no_ctd = runtime(vec![1, 2, 4]).run(&quick_scenario(128));
        let ctd = FelaRuntime::new(FelaConfig::new(3).with_weights(vec![1, 2, 4]).with_ctd(2))
            .run(&quick_scenario(128));
        // FC params sync among 2 instead of 8 → fewer sync bytes on the wire.
        assert!(ctd.network_bytes < no_ctd.network_bytes);
    }

    #[test]
    fn utilization_is_sane() {
        let r = runtime(vec![1, 2, 4]).run(&quick_scenario(1024));
        let u = r.mean_utilization();
        assert!(u > 0.05 && u <= 1.0, "utilization {u}");
    }

    #[test]
    fn pipelining_improves_throughput() {
        let sc = quick_scenario(128).with_iterations(6);
        let piped = runtime(vec![1, 2, 4]).run(&sc);
        let barrier = FelaRuntime::new(
            FelaConfig::new(3)
                .with_weights(vec![1, 2, 4])
                .with_pipelining(false),
        )
        .run(&sc);
        assert!(
            piped.average_throughput() > barrier.average_throughput(),
            "pipelined {} vs barrier {}",
            piped.average_throughput(),
            barrier.average_throughput()
        );
        // Both process identical token counts.
        assert_eq!(piped.counter("grants"), barrier.counter("grants"));
    }

    #[test]
    fn ssp_staleness_tolerates_stragglers_better() {
        let sc =
            quick_scenario(128)
                .with_iterations(6)
                .with_straggler(StragglerModel::RoundRobin {
                    delay: SimDuration::from_secs(4),
                });
        let bsp = runtime(vec![1, 2, 4]).run(&sc);
        let ssp = FelaRuntime::new(
            FelaConfig::new(3)
                .with_weights(vec![1, 2, 4])
                .with_staleness(1),
        )
        .run(&sc);
        assert!(
            ssp.average_throughput() >= bsp.average_throughput(),
            "SSP {} must not lose to BSP {} under stragglers",
            ssp.average_throughput(),
            bsp.average_throughput()
        );
        assert_eq!(ssp.counter("grants"), bsp.counter("grants"));
    }

    #[test]
    fn googlenet_runs_too() {
        let scenario = Scenario::paper(zoo::googlenet(), 256).with_iterations(2);
        let r = runtime(vec![1, 1, 2]).run(&scenario);
        assert_eq!(r.iterations, 2);
        assert!(r.total_time_secs > 0.0);
    }

    // ---- fault injection & recovery -------------------------------------

    use fela_cluster::{FaultKind, FaultModel};

    /// Total tokens a `quick_scenario` run must apply exactly once:
    /// (8 + 4 + 2) tokens per iteration with weights [1, 2, 4].
    const TOKENS_PER_ITER: u64 = 14;

    fn trained_total(r: &RunReport, n: usize) -> u64 {
        (0..n)
            .map(|w| r.counter(&format!("tokens_worker{w}")))
            .sum()
    }

    #[test]
    fn crash_restart_completes_with_exactly_once_gradients() {
        let sc = quick_scenario(128).with_fault(FaultModel::Scripted {
            worker: 2,
            iteration: 1,
            kind: FaultKind::CrashRestart {
                down: SimDuration::from_secs(5),
            },
        });
        let r = runtime(vec![1, 2, 4]).run(&sc);
        assert_eq!(r.iterations, 3, "crash-restart must not wedge the run");
        assert_eq!(r.counter("crashes"), 1);
        assert_eq!(r.counter("restarts"), 1);
        // Every micro-batch gradient applied exactly once, crash or not.
        assert_eq!(trained_total(&r, 8), TOKENS_PER_ITER * 3);
        // Re-granted work means at least as many grants as applications.
        assert!(r.counter("grants") >= TOKENS_PER_ITER * 3);
    }

    #[test]
    fn crash_of_entire_ctd_subset_lapses_the_restriction() {
        // With a one-worker CTD subset, crashing worker 0 kills every member:
        // the conditional-level restriction must lapse onto the survivors (and
        // re-engage when the member rejoins) instead of wedging the run.
        let sc = quick_scenario(128).with_fault(FaultModel::Scripted {
            worker: 0,
            iteration: 1,
            kind: FaultKind::CrashRestart {
                down: SimDuration::from_secs(5),
            },
        });
        let rt = FelaRuntime::new(FelaConfig::new(3).with_weights(vec![1, 2, 4]).with_ctd(1));
        let r = rt.run(&sc);
        assert_eq!(r.iterations, 3);
        assert_eq!(r.counter("crashes"), 1);
        assert_eq!(trained_total(&r, 8), TOKENS_PER_ITER * 3);
    }

    #[test]
    fn full_cluster_death_parks_tokens_until_a_restart() {
        // Chaos at p = 1 crashes every worker at every iteration boundary, so
        // the cluster repeatedly goes fully dark. Revoked tokens must park and
        // be re-placed when the restarts land, not wedge or panic the server,
        // and the run must still apply every gradient exactly once.
        let sc = quick_scenario(128).with_fault(FaultModel::Chaos {
            p: 1.0,
            down: SimDuration::from_secs(2),
            seed: 7,
        });
        let r = runtime(vec![1, 2, 4]).run(&sc);
        assert_eq!(r.iterations, 3);
        assert!(r.counter("crashes") >= 8, "every worker must have crashed");
        assert!(r.counter("restarts") >= 8);
        assert_eq!(trained_total(&r, 8), TOKENS_PER_ITER * 3);
    }

    #[test]
    fn permanent_crash_completes_on_survivors() {
        let sc = quick_scenario(128).with_fault(FaultModel::Scripted {
            worker: 7,
            iteration: 0,
            kind: FaultKind::Crash,
        });
        let r = runtime(vec![1, 2, 4]).run(&sc);
        assert_eq!(r.iterations, 3);
        assert_eq!(r.counter("crashes"), 1);
        assert_eq!(r.counter("restarts"), 0);
        // The victim died at t = 0, before its first request arrived.
        assert_eq!(r.counter("tokens_worker7"), 0);
        assert_eq!(trained_total(&r, 8), TOKENS_PER_ITER * 3);
    }

    #[test]
    fn hang_and_link_down_recover() {
        for kind in [
            FaultKind::Hang {
                stall: SimDuration::from_secs(30),
            },
            FaultKind::LinkDown {
                down: SimDuration::from_secs(3),
            },
        ] {
            let sc = quick_scenario(128).with_fault(FaultModel::Scripted {
                worker: 0,
                iteration: 1,
                kind,
            });
            let r = runtime(vec![1, 2, 4]).run(&sc);
            assert_eq!(r.iterations, 3, "{kind:?} must not wedge the run");
            assert_eq!(trained_total(&r, 8), TOKENS_PER_ITER * 3, "{kind:?}");
        }
    }

    #[test]
    fn long_hang_expires_the_lease_and_work_moves() {
        // A freeze only expires a lease when it catches the worker
        // mid-compute: a pre-compute hang just delays the start, and the
        // deadline is armed from the delayed start. Scan scripted hang
        // sites; at least one must land mid-compute and exercise the
        // expiry → revoke → recompute-elsewhere → stale-report path. Every
        // run, expired or not, must apply each gradient exactly once.
        let mut expired = false;
        for worker in 0..8 {
            for iteration in 0..3 {
                let sc = quick_scenario(128).with_fault(FaultModel::Scripted {
                    worker,
                    iteration,
                    kind: FaultKind::Hang {
                        stall: SimDuration::from_secs(600),
                    },
                });
                let r = runtime(vec![1, 2, 4]).run(&sc);
                assert_eq!(trained_total(&r, 8), TOKENS_PER_ITER * 3);
                if r.counter("revocations") >= 1 {
                    assert!(
                        r.counter("stale_reports") >= 1,
                        "worker {worker}'s thawed report must be stale"
                    );
                    expired = true;
                }
            }
        }
        assert!(expired, "no scripted hang landed mid-compute");
    }

    #[test]
    fn crash_free_fault_model_changes_nothing() {
        // Chaos with p = 0 activates the whole recovery machinery — leases,
        // deadline timers, fault counters — but never fires. The schedule
        // must be identical to the fault-free run (zero-cost abstraction).
        let base = runtime(vec![1, 2, 4]).run(&quick_scenario(128));
        let idle = runtime(vec![1, 2, 4]).run(&quick_scenario(128).with_fault(FaultModel::Chaos {
            p: 0.0,
            down: SimDuration::from_secs(5),
            seed: 7,
        }));
        assert_eq!(idle.total_time_secs, base.total_time_secs);
        assert_eq!(idle.network_bytes, base.network_bytes);
        assert_eq!(idle.per_iteration_secs, base.per_iteration_secs);
        for key in ["grants", "local_grants", "steals", "conflicts"] {
            assert_eq!(idle.counter(key), base.counter(key), "{key}");
        }
        for key in ["crashes", "restarts", "revocations", "stale_reports"] {
            assert_eq!(idle.counter(key), 0, "{key}");
        }
    }

    #[test]
    fn chaos_churn_completes_every_iteration() {
        let sc = quick_scenario(128)
            .with_iterations(5)
            .with_fault(FaultModel::Chaos {
                p: 0.1,
                down: SimDuration::from_secs(4),
                seed: 42,
            });
        let r = runtime(vec![1, 2, 4]).run(&sc);
        assert_eq!(r.iterations, 5);
        assert!(r.counter("crashes") >= 1, "seed 42 must draw some crashes");
        assert_eq!(r.counter("restarts"), r.counter("crashes"));
        assert_eq!(trained_total(&r, 8), TOKENS_PER_ITER * 5);
    }

    #[test]
    fn crashed_run_reaches_the_same_applied_gradient_set() {
        // The recovery analogue of "same final model hash": a crash-restart
        // run applies exactly the token set of the fault-free run (each token
        // once), so the reduced model state is the same function of the same
        // gradients.
        let base = runtime(vec![1, 2, 4]).run(&quick_scenario(128));
        let faulted =
            runtime(vec![1, 2, 4]).run(&quick_scenario(128).with_fault(FaultModel::Scripted {
                worker: 3,
                iteration: 0,
                kind: FaultKind::CrashRestart {
                    down: SimDuration::from_secs(10),
                },
            }));
        assert_eq!(trained_total(&faulted, 8), trained_total(&base, 8));
        assert_eq!(faulted.iterations, base.iterations);
    }

    #[test]
    fn explicit_recovery_config_is_respected() {
        use crate::config::RecoveryConfig;
        let sc = quick_scenario(128).with_fault(FaultModel::Scripted {
            worker: 1,
            iteration: 1,
            kind: FaultKind::CrashRestart {
                down: SimDuration::from_secs(2),
            },
        });
        let rt = FelaRuntime::new(
            FelaConfig::new(3)
                .with_weights(vec![1, 2, 4])
                .with_recovery(RecoveryConfig {
                    lease_slack: 8.0,
                    lease_grace: SimDuration::from_secs(1),
                    quarantine_after: 2,
                }),
        );
        let r = rt.run(&sc);
        assert_eq!(r.iterations, 3);
        assert_eq!(trained_total(&r, 8), TOKENS_PER_ITER * 3);
    }

    #[test]
    fn server_crash_restart_recovers_and_completes() {
        // The tentpole path: the Token Server dies at the start of iteration 1,
        // rebuilds itself from the write-ahead log (snapshot-equality is
        // asserted inside the crash handler), and the run still trains every
        // token of every iteration exactly once.
        let base = runtime(vec![1, 2, 4]).run(&quick_scenario(128));
        let sc = quick_scenario(128).with_fault(FaultModel::ServerCrashRestart {
            iteration: 1,
            down: SimDuration::from_secs(10),
        });
        let r = runtime(vec![1, 2, 4]).run(&sc);
        assert_eq!(r.iterations, 3);
        assert_eq!(r.counter("server_crashes"), 1);
        assert_eq!(r.counter("server_restarts"), 1);
        assert_eq!(trained_total(&r, 8), trained_total(&base, 8));
        // The downtime is real: the run cannot finish faster than the outage.
        assert!(
            r.total_time_secs >= 10.0,
            "downtime must show in the makespan, got {}",
            r.total_time_secs
        );
    }

    #[test]
    fn server_crash_at_iteration_zero_recovers_an_early_log() {
        // Crash before any checkpoint: recovery replays from the Begin record.
        let sc = quick_scenario(128).with_fault(FaultModel::ServerCrashRestart {
            iteration: 0,
            down: SimDuration::from_secs(3),
        });
        let r = runtime(vec![1, 2, 4]).run(&sc);
        assert_eq!(r.iterations, 3);
        assert_eq!(r.counter("server_crashes"), 1);
        assert_eq!(trained_total(&r, 8), TOKENS_PER_ITER * 3);
    }

    #[test]
    fn durable_crash_free_run_is_byte_identical() {
        // Logging every op and writing checkpoints must not perturb
        // scheduling: a durable run's report is the fault-free report.
        let base = runtime(vec![1, 2, 4]).run(&quick_scenario(128));
        let durable = runtime(vec![1, 2, 4])
            .with_durability(crate::wal::DurabilityOptions::default())
            .run(&quick_scenario(128));
        assert_eq!(
            serde_json::to_string(&durable).expect("serialize"),
            serde_json::to_string(&base).expect("serialize")
        );
    }

    #[test]
    fn file_backed_wal_survives_the_crash() {
        // Same recovery path, but through a real log file and real fsyncs.
        let dir = std::env::temp_dir().join(format!(
            "fela-runtime-wal-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let sc = quick_scenario(128).with_fault(FaultModel::ServerCrashRestart {
            iteration: 1,
            down: SimDuration::from_secs(5),
        });
        let rt = runtime(vec![1, 2, 4]).with_durability(crate::wal::DurabilityOptions {
            wal_dir: Some(dir.clone()),
            checkpoint_every: 1,
        });
        let r = rt.run(&sc);
        assert_eq!(r.iterations, 3);
        assert_eq!(r.counter("server_crashes"), 1);
        let log = std::fs::read(crate::wal::wal_path(&dir)).expect("log file exists");
        let read = crate::wal::read_log(&log).expect("log is well-formed");
        assert_eq!(read.torn_bytes, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn server_and_worker_faults_do_not_mix_counters() {
        // A worker-fault run must not gain server counters (tracked-report
        // byte-identity) and a pure server-fault run reports no worker
        // crashes.
        let worker_faulted =
            runtime(vec![1, 2, 4]).run(&quick_scenario(128).with_fault(FaultModel::Scripted {
                worker: 2,
                iteration: 1,
                kind: FaultKind::CrashRestart {
                    down: SimDuration::from_secs(5),
                },
            }));
        assert_eq!(worker_faulted.counter("server_crashes"), 0);
        assert!(worker_faulted.counter("crashes") >= 1);
        let server_faulted = runtime(vec![1, 2, 4]).run(&quick_scenario(128).with_fault(
            FaultModel::ServerCrashRestart {
                iteration: 1,
                down: SimDuration::from_secs(5),
            },
        ));
        assert_eq!(server_faulted.counter("crashes"), 0);
        assert_eq!(server_faulted.counter("server_crashes"), 1);
    }
}
