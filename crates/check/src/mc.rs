//! `fela-mc` — the deterministic concurrency model checker for the live
//! runtime and the control plane, and the crate's one state-space explorer.
//!
//! The Token Server's nondeterminism comes from its shells. The real-clock
//! runtime (`fela-live`) is a single-threaded server that blocks on one
//! inbox, fed by a reader thread per worker TCP/channel link, plus a timer
//! heap for lease deadlines: *in which order do worker messages reach the
//! inbox, and when do lease timers fire relative to them*. The simulator
//! adds *in which order do parameter syncs finish* (its network decides).
//! This module drives the **shipping** server, the sans-IO
//! [`fela_core::ServerCore`] the real-clock server loop and the simulator
//! drive (over a [`fela_core::ControlPlane`]), through `fela-live`'s
//! [`fela_live::frame_adapter`] with the **real** wire [`Frame`]s, through
//! every non-equivalent such interleaving of a small cluster. The checker
//! owns only what the shells own: which message arrives next, which lease
//! fires, which sync finishes, and what happens to the frames the core
//! dispatches.
//!
//! **Partial-order reduction.** Worker reactions run *eagerly*: the instant
//! the core dispatches a grant (a `GrantBatch` of one at pipeline depth 1),
//! the model computes the worker's report and parks it in that worker's
//! link queue. This is sound because a worker's
//! local step is invisible to the server until its message is *delivered* —
//! delaying the reaction commutes with every other transition (Mazurkiewicz
//! equivalence), so only three action kinds branch: `Deliver(worker)` (the
//! server dequeues that worker's oldest in-flight frame), `Fire(token,
//! attempt)` (an armed lease deadline expires now, adversarially early) and
//! `Drain(i)` (the `i`-th uncommitted parameter sync finishes). The live
//! shell commits a frame's syncs at once ([`record_execution`] follows it);
//! that order is one path of the space. States are memoized on
//! [`ServerSnapshot`] + link queues + armed timers + uncommitted syncs —
//! interleavings that converge share their futures, collapsing the
//! factorially many schedules to a small state graph that is still *complete*
//! for every property checked on a transition or a terminal state.
//!
//! **Checked on every explored path:**
//!
//! * **dependency safety** — no dispatched grant has a dependency whose
//!   report was not yet accepted;
//! * **staleness safety** — no dispatched grant's iteration is past its
//!   level's `synced_upto + staleness`;
//! * **deadlock-freedom** — a state with no enabled action has
//!   `run_complete()`;
//! * **lost-wakeup-freedom** — at quiescence a re-scan of the waiting queue,
//!   on a copy of the plane, finds no servable worker (the core's re-scan
//!   policy never strands a waiter whose token became available), and every
//!   grant the plane issued was actually delivered;
//! * **exactly-once token application** — each terminal state's Info Mapping
//!   holds every generated token exactly once (stale reports after a lease
//!   revocation are rejected, never double-applied);
//! * **linearizability vs the oracle** — the explored plane records its op
//!   log ([`fela_core::CoordOp`]); each transition replays the new suffix
//!   into the reference [`TokenServer`] in lockstep and compares both the
//!   per-op outcome digests and the full [`ServerSnapshot`]s. Every explored
//!   history of the coordinator is thereby shown equivalent to an execution
//!   of the independent single-loop implementation — linearizability with
//!   the oracle as the witness order;
//! * **session discipline** — the per-link frame dialogue of every explored
//!   execution is fed through [`crate::protocol::SessionVerifier`].
//!
//! **Checked on the terminal report orders** (the engine check, the paper's
//! Table II reproducibility claim): each must be a linearization of the
//! static [`ScheduleDag`], and `fela-engine`'s [`TokenExecutor`] running
//! real token-split SGD in that order must train parameters bit-identical
//! to every other order's and within `1e-4` of serial BSP. The memo key
//! excludes the report order, so the engine runs the order of the first
//! path to reach each distinct terminal state ([`McOutcome::schedules`]),
//! not every order of the space.
//!
//! **Seeded mutations** ([`McMutation`] here, [`WireMutation`] in
//! [`crate::protocol`]) follow the crate's mutation-testing convention: each
//! of the three — dropped grant wakeup, reordered Grant/Report, misrouted
//! Grant — must be caught with a *distinct* diagnostic
//! ([`run_mutation_matrix`]).

use std::collections::{BTreeSet, VecDeque};

use fela_core::{
    apply_op, ControlPlane, CoordOp, CoreError, FelaConfig, OpDivergence, RecoveryConfig,
    ServerCore, ServerSnapshot, SyncSpec, Token, TokenId,
};
use fela_engine::{serial_step, EngineLayer, EngineNet, SplitPlan, Tensor, TokenExecutor};
use fela_live::frame_adapter::{finish_syncs, on_frame, wire_grants};
use fela_live::{Endpoint, Frame, SyncEvent};
use fela_sim::SimTime;

use crate::protocol::{verify_session, SessionVerifier, SessionViolation, WireMutation};
use crate::{ScheduleDag, TokenServer};

/// The small configuration under exploration, plus bounds.
#[derive(Clone, Debug)]
pub struct McConfig {
    /// Cluster size. 2–3 keep the space exhaustive: the lease adversary on 2
    /// workers × 2 iterations, the largest space CI explores, takes a few
    /// seconds in a release build.
    pub workers: usize,
    /// BSP iterations to run (1–2).
    pub iterations: u64,
    /// SSP staleness bound (0 = BSP).
    pub staleness: u64,
    /// Model lease-based recovery: every grant arms a timer the adversary may
    /// fire at *any* enabled instant.
    pub recovery: bool,
    /// Lease fires modeled per token before the adversary gives up — the
    /// state-space bound (each fire bumps the plane's per-token attempt and
    /// per-worker expiry counters, so an unbounded adversary would make the
    /// space infinite). 1 already covers revocation, re-grant and stale
    /// reports.
    pub max_attempts: u64,
    /// Distinct-state safety net.
    pub max_states: usize,
    /// Seeded model-level mutation, if any.
    pub mutation: Option<McMutation>,
}

impl McConfig {
    /// The canonical acceptance configuration: 2 workers × 2 iterations,
    /// recovery off.
    pub fn small() -> McConfig {
        McConfig {
            workers: 2,
            iterations: 2,
            staleness: 0,
            recovery: false,
            max_attempts: 1,
            max_states: 200_000,
            mutation: None,
        }
    }

    /// Builder: enables the lease-expiry adversary.
    pub fn with_recovery(mut self) -> McConfig {
        self.recovery = true;
        self
    }

    /// Builder: seeds a model-level mutation.
    fn with_mutation(mut self, mutation: McMutation) -> McConfig {
        self.mutation = Some(mutation);
        self
    }
}

/// A seeded model-level mutation (the wire-level half is
/// [`WireMutation`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum McMutation {
    /// The first fresh (attempt-0) grant frame for `worker` is lost in
    /// flight: the plane issued it (and, with recovery on, armed its lease),
    /// but the worker never reacts. Without recovery this is the classic lost
    /// wakeup — the run can never complete; with recovery the lease adversary
    /// revokes and re-grants, and the checker proves the runtime
    /// *self-heals*. (Attempt-0 keeps the site inside the modeled fire budget
    /// [`McConfig::max_attempts`]; a real lease timer is always armed.)
    DropGrant {
        /// Target worker.
        worker: usize,
    },
}

/// A property violated on some explored path.
#[derive(Clone, PartialEq, Debug)]
pub enum McViolation {
    /// A reachable state has no enabled action but the run is not complete.
    Deadlock {
        /// DFS depth (transitions from the initial state) of the stuck state.
        depth: usize,
        /// Human-readable description of what the model was waiting for.
        detail: String,
    },
    /// A grant was issued by the plane but its wakeup never reached the
    /// worker (or a ready grant was never popped at quiescence).
    LostWakeup {
        /// Worker that missed its wakeup.
        worker: usize,
        /// Token whose grant was lost.
        token: u64,
    },
    /// A terminal state's Info Mapping does not hold every generated token
    /// exactly once.
    IncompleteRun {
        /// Generated tokens never applied.
        missing: Vec<u64>,
    },
    /// The explored plane's op history diverged from the reference oracle.
    NotLinearizable {
        /// First diverging operation.
        divergence: Box<OpDivergence>,
    },
    /// Op digests matched but the full scheduling states drifted apart —
    /// a deeper-than-digest divergence.
    OracleDrift {
        /// Transitions explored when the drift was detected.
        depth: usize,
    },
    /// The plane returned a typed error on a legal action sequence.
    SchedulerError {
        /// The error's display form.
        message: String,
    },
    /// The frame dialogue of an explored execution broke session discipline.
    Session(SessionViolation),
    /// A token was granted although a dependency's report had not been
    /// accepted.
    UnmetDependency {
        /// The granted token.
        token: u64,
        /// The unreported dependency.
        dep: u64,
    },
    /// A token was granted beyond its level's staleness bound.
    PrematureGrant {
        /// The granted token.
        token: u64,
        /// Its level.
        level: usize,
        /// Its iteration.
        iteration: u64,
        /// Iterations of this level synced when the grant left.
        synced_upto: u64,
    },
    /// A terminal report order is not a linearization of the static DAG, or
    /// trained parameters that differ from another order's or from serial
    /// BSP's.
    Divergence {
        /// Index of the order in [`McOutcome::schedules`].
        schedule: usize,
        /// What differed.
        detail: String,
    },
}

impl std::fmt::Display for McViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            McViolation::Deadlock { depth, detail } => {
                write!(f, "deadlock at depth {depth}: {detail}")
            }
            McViolation::LostWakeup { worker, token } => {
                write!(
                    f,
                    "lost wakeup: grant of token {token} never woke worker {worker}"
                )
            }
            McViolation::IncompleteRun { missing } => {
                write!(f, "terminal state missing token applications: {missing:?}")
            }
            McViolation::NotLinearizable { divergence } => {
                write!(f, "history not linearizable vs oracle: {divergence}")
            }
            McViolation::OracleDrift { depth } => {
                write!(f, "oracle snapshot drift at depth {depth}")
            }
            McViolation::SchedulerError { message } => {
                write!(f, "scheduler error on a legal path: {message}")
            }
            McViolation::Session(v) => write!(f, "session violation: {v}"),
            McViolation::UnmetDependency { token, dep } => {
                write!(f, "token {token} granted before dependency {dep} reported")
            }
            McViolation::PrematureGrant {
                token,
                level,
                iteration,
                synced_upto,
            } => write!(
                f,
                "token {token} (level {level}, iter {iteration}) granted with only {synced_upto} iterations synced"
            ),
            McViolation::Divergence { schedule, detail } => {
                write!(f, "schedule {schedule} diverged: {detail}")
            }
        }
    }
}

/// Result of one exploration.
#[derive(Clone, Debug)]
pub struct McOutcome {
    /// Distinct states visited.
    pub states: usize,
    /// Transitions executed.
    pub transitions: u64,
    /// Distinct terminal (run-complete, quiescent) states reached.
    pub terminals: u64,
    /// Deepest path explored (transitions from the initial state).
    pub deepest: usize,
    /// Lease fires executed across all explored transitions.
    pub lease_fires: u64,
    /// Stale reports (post-revocation) observed across all transitions.
    pub stale_reports: u64,
    /// The report order, as `(level, iteration, seq)`, of the first path to
    /// reach each distinct terminal state (fewer than `terminals` where
    /// two such paths reported in the same order).
    pub schedules: Vec<Vec<(usize, u64, u64)>>,
    /// Distinct violations found on any path.
    pub violations: Vec<McViolation>,
    /// True if exploration hit `max_states` before exhausting the space.
    pub truncated: bool,
}

impl McOutcome {
    /// True when the full space was explored violation-free.
    pub fn ok(&self) -> bool {
        self.violations.is_empty() && !self.truncated
    }
}

/// One row of the seeded-mutation matrix.
#[derive(Clone, Debug)]
pub struct MutationRun {
    /// Mutation name.
    pub name: &'static str,
    /// Whether the checker caught it.
    pub caught: bool,
    /// The (first) diagnostic it produced.
    pub diagnostic: String,
    /// Discriminant of the diagnostic kind, for distinctness assertions.
    pub kind: &'static str,
}

fn build_config(cfg: &McConfig) -> FelaConfig {
    let mut fc = FelaConfig::new(2).with_weights(vec![1, 2]);
    fc.staleness = cfg.staleness;
    if cfg.recovery {
        fc.recovery = Some(RecoveryConfig::default());
    }
    if let Err(e) = fc.validate(cfg.workers) {
        panic!("invalid Fela config: {e}");
    }
    fc
}

/// Level `l` of the model plan spans unit `l`.
const UNITS: [(u32, u32); 2] = [(0, 1), (1, 2)];

/// The shipping server core over the model plane (op log on), pipeline
/// depth 1.
fn build_core(cfg: &McConfig) -> ServerCore {
    let mut plane = ControlPlane::new(
        crate::small_plan(),
        build_config(cfg),
        crate::small_meta(),
        cfg.workers,
        cfg.iterations,
    );
    plane.enable_op_log();
    ServerCore::new(plane, 1)
}

fn build_oracle(cfg: &McConfig) -> TokenServer {
    TokenServer::new(
        crate::small_plan(),
        build_config(cfg),
        crate::small_meta(),
        cfg.workers,
        cfg.iterations,
    )
}

/// A worker's message in flight to the server.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
enum Msg {
    /// The opening pull.
    Request,
    /// The eager answer to one granted token.
    Report(u64),
}

impl Msg {
    /// The wire frame `worker` sends for this message.
    fn frame(self, worker: usize) -> Frame {
        let worker = worker as u32;
        match self {
            Msg::Request => Frame::Request { worker },
            Msg::Report(token) => Frame::ReportBatch {
                worker,
                tokens: vec![token],
            },
        }
    }
}

fn initial_queues(workers: usize) -> Vec<VecDeque<Msg>> {
    (0..workers)
        .map(|_| VecDeque::from([Msg::Request]))
        .collect()
}

fn scheduler_error(e: CoreError) -> McViolation {
    McViolation::SchedulerError {
        message: e.to_string(),
    }
}

/// One in-flight model state.
#[derive(Clone)]
struct McState {
    /// The server core under check.
    core: ServerCore,
    /// The lockstep reference oracle.
    oracle: TokenServer,
    /// Per-worker link queue: messages sent by the worker, not yet delivered.
    queues: Vec<VecDeque<Msg>>,
    /// Armed lease timers `(token, attempt)` the adversary may fire.
    armed: BTreeSet<(u64, u64)>,
    /// Parameter syncs released but not yet finished, in release order.
    syncs: Vec<SyncSpec>,
    /// Accepted reports, in order. Not part of the memoization key: the set
    /// is the snapshot's Info Mapping, and the order only feeds the engine
    /// check ([`McOutcome::schedules`]).
    reported: Vec<TokenId>,
    /// Grants issued by the plane but lost in flight `(worker, token)` —
    /// nonempty only under [`McMutation::DropGrant`].
    undelivered: Vec<(usize, u64)>,
    /// Whether the seeded mutation is still waiting to strike.
    mutation_armed: bool,
    /// Per-link session machine over this path's frame dialogue. Not part of
    /// the memoization key: its state is a function of the plane snapshot
    /// plus the link queues (every queued report is an outstanding grant),
    /// so equal keys imply equal session futures.
    verifier: SessionVerifier,
    /// Transitions from the initial state (diagnostics only, not in the key).
    depth: usize,
    /// Ops compared against the oracle so far (diagnostics only).
    ops_applied: usize,
}

/// Memoization key. The oracle is *excluded*: its snapshot is proved equal to
/// the plane's at every transition, so it carries no independent state. So
/// are the core's counters, which no property reads (the model keeps no
/// completion log).
type McKey = (
    ServerSnapshot,
    Vec<Vec<Msg>>,
    Vec<(u64, u64)>,
    Vec<(usize, u64)>,
    bool,
    Vec<(usize, u64)>,
);

#[derive(Clone, Copy, Debug)]
enum Action {
    Deliver(usize),
    Fire(u64, u64),
    Drain(usize),
}

/// Shared per-exploration context.
struct Mc<'a> {
    cfg: &'a McConfig,
    outcome: McOutcome,
    violations_seen: BTreeSet<String>,
    /// The distinct terminal report orders found so far.
    schedules: BTreeSet<Vec<(usize, u64, u64)>>,
}

impl Mc<'_> {
    fn push_violation(&mut self, v: McViolation) {
        // Dedup on display form: the same logical violation is typically
        // reachable through many interleavings.
        if self.violations_seen.insert(v.to_string()) {
            self.outcome.violations.push(v);
        }
    }

    /// Applies every plane mutation of one transition to the oracle in
    /// lockstep and compares digests + snapshots.
    fn lockstep(&mut self, state: &mut McState) {
        let ops = state.core.take_op_log();
        for op in ops {
            let got = apply_op(&mut state.oracle, &op.kind);
            if got != op.outcome {
                self.push_violation(McViolation::NotLinearizable {
                    divergence: Box::new(OpDivergence {
                        index: state.ops_applied,
                        kind: op.kind.clone(),
                        recorded: op.outcome.clone(),
                        oracle: got,
                    }),
                });
            }
            state.ops_applied += 1;
        }
        if state.oracle.snapshot() != state.core.plane().snapshot() {
            self.push_violation(McViolation::OracleDrift { depth: state.depth });
        }
        for v in state.verifier.take_violations() {
            self.push_violation(McViolation::Session(v));
        }
    }

    /// Ships what the core queued, as `fela-live`'s shell does: each grant
    /// frame reaches its worker, which reacts eagerly by parking one report
    /// per token on its link; with recovery on, each lease arms (bounded by
    /// `max_attempts`) — after the send, so a frame lost in flight still has
    /// its deadline ticking, which is what makes a dropped wakeup
    /// recoverable. Then every grant the core let out, lost or not, meets
    /// the dependency and staleness checks.
    ///
    /// Called after every input. The real-clock shell dispatches once per
    /// drained inbox instead, but it serves the waiters after every input,
    /// so its plane takes the same ops in the same order as here; only its
    /// grant frames leave later. A later send only delays when a worker's
    /// next report can arrive, and this exploration already tries every
    /// order in which reports arrive, so flushing after every input covers
    /// the batched shell.
    fn dispatch(&mut self, state: &mut McState) {
        let recovery = state.core.plane().recovery_on();
        let cfg = self.cfg;
        let mut leases = Vec::new();
        let mut granted = Vec::new();
        let shipped = state.core.dispatch(SimTime::ZERO, |out| {
            let worker = out.worker;
            let grants = wire_grants(&UNITS, out.grants, &mut leases);
            granted.extend(leases.iter().map(|&(token, _)| token));
            for &(token, attempt) in &leases {
                if recovery && attempt < cfg.max_attempts {
                    state.armed.insert((token.0, attempt));
                }
            }
            let dropped = state.mutation_armed
                && cfg.mutation == Some(McMutation::DropGrant { worker })
                && leases.iter().all(|&(_, attempt)| attempt == 0);
            if dropped {
                state.mutation_armed = false;
                let tokens = leases.iter().map(|&(token, _)| (worker, token.0));
                state.undelivered.extend(tokens);
                return;
            }
            for &(token, _) in &leases {
                state.verifier.add_grant_intent(token.0, worker);
                state.queues[worker].push_back(Msg::Report(token.0));
            }
            state.verifier.observe(&SyncEvent::FrameSent {
                side: Endpoint::Server,
                worker,
                frame: Frame::GrantBatch { grants },
            });
        });
        if let Err(e) = shipped {
            self.push_violation(scheduler_error(e));
        }
        if granted.is_empty() {
            return;
        }
        let plane = state.core.plane();
        let synced_upto = plane.snapshot().synced_upto;
        for token in granted.into_iter().filter_map(|id| plane.token(id)) {
            let synced = synced_upto[token.level];
            for v in grant_violations(token, &state.reported, synced, cfg.staleness) {
                self.push_violation(v);
            }
        }
    }

    /// The server dequeues `worker`'s oldest in-flight message and hands it
    /// to the core, parks the syncs its reports released, then ships.
    fn deliver(&mut self, state: &mut McState, worker: usize) {
        let Some(msg) = state.queues[worker].pop_front() else {
            return;
        };
        let frame = msg.frame(worker);
        state.verifier.observe(&SyncEvent::FrameReceived {
            side: Endpoint::Server,
            worker,
            frame: frame.clone(),
        });
        match on_frame(&mut state.core, worker, frame, SimTime::ZERO) {
            Ok(reported) => {
                self.outcome.stale_reports += reported.stale.len() as u64;
                if let Msg::Report(token) = msg {
                    if reported.stale.is_empty() {
                        state.reported.push(TokenId(token));
                    }
                }
                let syncs = reported.syncs.into_iter().filter(|s| !s.is_degenerate());
                state.syncs.extend(syncs);
            }
            Err(e) => self.push_violation(scheduler_error(e)),
        }
        self.dispatch(state);
    }

    /// The `i`-th uncommitted sync finishes, then the core ships.
    fn drain(&mut self, state: &mut McState, i: usize) {
        let spec = state.syncs.remove(i);
        if let Err(e) = state.core.sync_finished(spec.level, spec.iteration) {
            self.push_violation(scheduler_error(e));
        }
        self.dispatch(state);
    }

    /// A lease timer fires: the core revokes, then ships.
    fn fire(&mut self, state: &mut McState, token: u64, attempt: u64) {
        state.armed.remove(&(token, attempt));
        self.outcome.lease_fires += 1;
        match state.core.lease_fired(TokenId(token), attempt) {
            // The plane walked away from these grants; in-flight drops of
            // them are healed (their reports would be stale anyway).
            Ok(expired) => {
                let revoked = expired.map(|e| e.revoked).unwrap_or_default();
                state
                    .undelivered
                    .retain(|(_, t)| !revoked.iter().any(|r| r.0 == *t));
            }
            Err(e) => self.push_violation(scheduler_error(e)),
        }
        self.dispatch(state);
    }

    /// Drops armed timers whose lease the plane has already superseded —
    /// firing them is a plane no-op followed by a re-scan that finds
    /// nothing new, so pruning them is sound and keeps the space small.
    fn gc_armed(state: &mut McState) {
        let plane = state.core.plane();
        state
            .armed
            .retain(|(t, a)| plane.lease_of(TokenId(*t)).is_some_and(|l| l.attempt == *a));
    }

    fn key_of(state: &McState) -> McKey {
        (
            state.core.plane().snapshot().without_counters(),
            state
                .queues
                .iter()
                .map(|q| q.iter().copied().collect())
                .collect(),
            state.armed.iter().copied().collect(),
            state.undelivered.clone(),
            state.mutation_armed,
            state.syncs.iter().map(|s| (s.level, s.iteration)).collect(),
        )
    }

    fn enabled(state: &McState) -> Vec<Action> {
        let mut actions: Vec<Action> = (0..state.queues.len())
            .filter(|w| !state.queues[*w].is_empty())
            .map(Action::Deliver)
            .collect();
        actions.extend(state.armed.iter().map(|(t, a)| Action::Fire(*t, *a)));
        actions.extend((0..state.syncs.len()).map(Action::Drain));
        actions
    }

    /// Checks a quiescent state (no enabled action).
    fn check_quiescent(&mut self, state: &McState) {
        // A servable waiter at quiescence means a re-scan was skipped
        // somewhere: re-scan the waiting queue on a copy of the plane and
        // see who is served.
        let mut probe = state.core.plane().clone();
        if let Ok(Some((worker, grant))) = probe.pop_ready_grant(SimTime::ZERO) {
            let token = grant.token.id.0;
            self.push_violation(McViolation::LostWakeup { worker, token });
            return;
        }
        if let Some((worker, token)) = state.undelivered.first().copied() {
            self.push_violation(McViolation::LostWakeup { worker, token });
            return;
        }
        let plane = state.core.plane();
        if plane.run_complete() {
            self.outcome.terminals += 1;
            // Exactly-once: every generated token applied exactly once. The
            // Info Mapping is a map, so "at most once" is structural; check
            // coverage.
            let holder: BTreeSet<u64> = plane.snapshot().holder.iter().map(|(t, _)| *t).collect();
            let missing: Vec<u64> = plane
                .tokens()
                .keys()
                .map(|id| id.0)
                .filter(|id| !holder.contains(id))
                .collect();
            if !missing.is_empty() {
                self.push_violation(McViolation::IncompleteRun { missing });
                return;
            }
            let order = state.reported.iter().filter_map(|&id| plane.token(id));
            let order = order.map(|t| (t.level, t.iteration, t.seq)).collect();
            self.schedules.insert(order);
        } else {
            let queued: usize = state.queues.iter().map(VecDeque::len).sum();
            self.push_violation(McViolation::Deadlock {
                depth: state.depth,
                detail: format!(
                    "{queued} frames in flight, {} timers armed, {}/{} iterations complete",
                    state.armed.len(),
                    plane.completed_iterations(),
                    plane.max_iterations(),
                ),
            });
        }
    }
}

/// The dependency and staleness checks on one dispatched grant of `token`:
/// each dependency is among the `reported` tokens, and the iteration is
/// within `staleness` of its level's `synced_upto`.
fn grant_violations(
    token: &Token,
    reported: &[TokenId],
    synced_upto: u64,
    staleness: u64,
) -> Vec<McViolation> {
    let unmet = token.deps.iter().filter(|dep| !reported.contains(dep));
    let mut violations: Vec<McViolation> = unmet
        .map(|dep| McViolation::UnmetDependency {
            token: token.id.0,
            dep: dep.0,
        })
        .collect();
    if token.iteration > synced_upto + staleness {
        violations.push(McViolation::PrematureGrant {
            token: token.id.0,
            level: token.level,
            iteration: token.iteration,
            synced_upto,
        });
    }
    violations
}

/// The engine model's SGD learning rate.
const LR: f32 = 0.05;

/// Trains the engine model of [`crate::small_plan`] — a 3-layer MLP split
/// into the same 2 sub-models with 2 and 1 tokens — for `iterations`: each
/// iteration's tokens in `schedule`'s order, or serial BSP with none.
fn train(schedule: Option<&[(usize, u64, u64)]>, iterations: u64) -> EngineNet {
    let plan = SplitPlan {
        levels: vec![(0, 2), (2, 3)],
        tokens: vec![2, 1],
    };
    let mut exec = TokenExecutor::new(plan, LR);
    let mut net = EngineNet::mlp(&[6, 8, 4], 17);
    let x = Tensor::seeded(&[8, 6], 100, 1.0);
    let t = Tensor::seeded(&[8, 4], 200, 1.0);
    for k in 0..iterations {
        let Some(schedule) = schedule else {
            serial_step(&mut net, &x, &t, LR);
            continue;
        };
        let tokens: Vec<(usize, usize)> = schedule
            .iter()
            .filter(|&&(_, iteration, _)| iteration == k)
            .map(|&(level, _, seq)| (level, seq as usize))
            .collect();
        exec.step(&mut net, &x, &t, &tokens);
    }
    net
}

/// How `net` differs from `first`, bit for bit, or from `serial` beyond
/// gradient-sum re-association (`1e-4`, relative), if it does.
fn divergence(net: &EngineNet, first: &EngineNet, serial: &EngineNet) -> Option<String> {
    if net != first {
        return Some("parameters differ bit-wise from the first trained schedule's".into());
    }
    for (s, n) in serial.layers().iter().zip(net.layers()) {
        let (EngineLayer::Dense { weight: ws, .. }, EngineLayer::Dense { weight: wn, .. }) = (s, n)
        else {
            continue;
        };
        let far = |(vs, vn): &(&f32, &f32)| (*vs - *vn).abs() > 1e-4 * (1.0 + vs.abs());
        if let Some((vs, vn)) = ws.data().iter().zip(wn.data()).find(far) {
            return Some(format!("weight {vn} vs serial {vs}"));
        }
    }
    None
}

/// The engine check over `cfg`'s terminal report orders: each must be a
/// linearization of the static schedule DAG, and must train parameters
/// bit-identical to the first order's and within `1e-4` of serial BSP.
fn check_schedules(cfg: &McConfig, schedules: &[Vec<(usize, u64, u64)>]) -> Vec<McViolation> {
    let (plan, config) = (crate::small_plan(), build_config(cfg));
    let dag = ScheduleDag::build(&plan, &config, cfg.workers, cfg.iterations);
    let serial = train(None, cfg.iterations);
    let mut first = None;
    let mut violations = Vec::new();
    for (schedule, order) in schedules.iter().enumerate() {
        let detail = if dag.accepts_linearization(order).is_err() {
            Some("not a linearization of the static DAG".into())
        } else {
            let net = train(Some(order), cfg.iterations);
            divergence(&net, first.get_or_insert_with(|| net.clone()), &serial)
        };
        let diverged = detail.map(|detail| McViolation::Divergence { schedule, detail });
        violations.extend(diverged);
    }
    violations
}

/// Explores every non-equivalent interleaving of `cfg`, returning the
/// outcome and the memoization keys of the states visited.
fn explore(cfg: &McConfig) -> (McOutcome, BTreeSet<McKey>) {
    let mut mc = Mc {
        cfg,
        outcome: McOutcome {
            states: 0,
            transitions: 0,
            terminals: 0,
            deepest: 0,
            lease_fires: 0,
            stale_reports: 0,
            schedules: Vec::new(),
            violations: Vec::new(),
            truncated: false,
        },
        violations_seen: BTreeSet::new(),
        schedules: BTreeSet::new(),
    };
    // Pull protocol: every worker opens with a Request.
    let initial = McState {
        core: build_core(cfg),
        oracle: build_oracle(cfg),
        queues: initial_queues(cfg.workers),
        armed: BTreeSet::new(),
        syncs: Vec::new(),
        reported: Vec::new(),
        undelivered: Vec::new(),
        mutation_armed: cfg.mutation.is_some(),
        verifier: SessionVerifier::new(),
        depth: 0,
        ops_applied: 0,
    };
    let mut visited: BTreeSet<McKey> = BTreeSet::new();
    let mut stack = vec![initial];
    while let Some(state) = stack.pop() {
        if !visited.insert(Mc::key_of(&state)) {
            continue;
        }
        mc.outcome.states += 1;
        mc.outcome.deepest = mc.outcome.deepest.max(state.depth);
        if mc.outcome.states >= cfg.max_states {
            mc.outcome.truncated = true;
            break;
        }
        let actions = Mc::enabled(&state);
        if actions.is_empty() {
            mc.check_quiescent(&state);
            continue;
        }
        for action in actions {
            let mut next = state.clone();
            next.depth += 1;
            mc.outcome.transitions += 1;
            match action {
                Action::Deliver(w) => mc.deliver(&mut next, w),
                Action::Fire(t, a) => mc.fire(&mut next, t, a),
                Action::Drain(i) => mc.drain(&mut next, i),
            }
            mc.lockstep(&mut next);
            Mc::gc_armed(&mut next);
            stack.push(next);
        }
    }
    let schedules: Vec<_> = mc.schedules.into_iter().collect();
    mc.outcome
        .violations
        .extend(check_schedules(cfg, &schedules));
    mc.outcome.schedules = schedules;
    (mc.outcome, visited)
}

/// Exhaustively explores every non-equivalent interleaving of `cfg`, then
/// runs the engine check on the terminal report orders.
pub fn model_check(cfg: &McConfig) -> McOutcome {
    explore(cfg).0
}

/// Runs one deterministic round-robin execution of `cfg`'s model as the
/// live shell runs it (lowest nonempty link first, a frame's syncs
/// committed at once, no adversarial lease fires) and returns the
/// synthesized server-side [`SyncEvent`] stream plus the op log — the input
/// to the protocol session verifier and its wire-mutation matrix.
pub fn record_execution(cfg: &McConfig) -> (Vec<SyncEvent>, Vec<CoordOp>) {
    live_path(cfg, |_, _| {})
}

/// [`record_execution`], handing the core and link queues of each state on
/// its path (the initial one, then one per delivered frame) to `visit`.
fn live_path(
    cfg: &McConfig,
    mut visit: impl FnMut(&ServerCore, &[VecDeque<Msg>]),
) -> (Vec<SyncEvent>, Vec<CoordOp>) {
    let mut core = build_core(cfg);
    let mut queues = initial_queues(cfg.workers);
    let mut events = Vec::new();
    let mut ops = Vec::new();
    let mut guard = 0usize;
    visit(&core, &queues);
    while !core.plane().run_complete() && guard < 100_000 {
        guard += 1;
        let Some(w) = (0..cfg.workers).find(|w| !queues[*w].is_empty()) else {
            break;
        };
        let Some(msg) = queues[w].pop_front() else {
            break;
        };
        let frame = msg.frame(w);
        events.push(SyncEvent::FrameReceived {
            side: Endpoint::Server,
            worker: w,
            frame: frame.clone(),
        });
        let _ = on_frame(&mut core, w, frame, SimTime::ZERO)
            .and_then(|reported| finish_syncs(&mut core, &reported));
        let mut leases = Vec::new();
        let _ = core.dispatch(SimTime::ZERO, |out| {
            let grants = wire_grants(&UNITS, out.grants, &mut leases);
            for &(token, _) in &leases {
                queues[out.worker].push_back(Msg::Report(token.0));
            }
            events.push(SyncEvent::FrameSent {
                side: Endpoint::Server,
                worker: out.worker,
                frame: Frame::GrantBatch { grants },
            });
        });
        ops.append(&mut core.take_op_log());
        visit(&core, &queues);
    }
    // Epilogue: End down every link, Params back up — the session close.
    for w in 0..cfg.workers {
        events.push(SyncEvent::FrameSent {
            side: Endpoint::Server,
            worker: w,
            frame: Frame::End,
        });
    }
    for w in 0..cfg.workers {
        events.push(SyncEvent::FrameReceived {
            side: Endpoint::Server,
            worker: w,
            frame: Frame::Params { bytes: Vec::new() },
        });
    }
    (events, ops)
}

/// Runs the full seeded-mutation matrix: every mutation must be caught, each
/// with a distinct diagnostic kind.
pub fn run_mutation_matrix() -> Vec<MutationRun> {
    let row = |name, kind, hit: Option<String>| MutationRun {
        name,
        caught: hit.is_some(),
        diagnostic: hit.unwrap_or_default(),
        kind,
    };
    // 1. Dropped grant wakeup, recovery off → the model-level lost-wakeup
    //    diagnostic.
    let cfg = McConfig::small().with_mutation(McMutation::DropGrant { worker: 1 });
    let lost = model_check(&cfg)
        .violations
        .into_iter()
        .find(|v| matches!(v, McViolation::LostWakeup { .. }));
    // 2 & 3. Wire-level mutations over a recorded execution.
    let (events, ops) = record_execution(&McConfig::small());
    let caught = |mutation: WireMutation, hit: fn(&SessionViolation) -> bool| {
        let mutated = crate::protocol::mutate_events(&events, &mutation);
        let report = verify_session(&mutated, Some(&ops));
        report
            .violations
            .iter()
            .find(|v| hit(v))
            .map(|v| v.to_string())
    };
    vec![
        row("drop-grant", "LostWakeup", lost.map(|v| v.to_string())),
        row(
            "reorder-grant-report",
            "ReportWithoutGrant",
            caught(WireMutation::ReorderGrantReport { nth: 0 }, |v| {
                matches!(v, SessionViolation::ReportWithoutGrant { .. })
            }),
        ),
        row(
            "misroute-grant",
            "MisroutedGrant",
            caught(WireMutation::MisrouteGrant { nth: 0 }, |v| {
                matches!(v, SessionViolation::MisroutedGrant { .. })
            }),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_live_path_is_explored() {
        // The live shell commits a frame's syncs at once, before its
        // dispatch; the explorer drains them one at a time, in every order.
        // Every state the live order passes through must still be one the
        // explorer visited.
        let mut staleness_1 = McConfig::small();
        staleness_1.staleness = 1;
        let mut three_workers = McConfig::small();
        three_workers.workers = 3;
        three_workers.iterations = 1;
        for cfg in [McConfig::small(), staleness_1, three_workers] {
            let (outcome, visited) = explore(&cfg);
            assert!(outcome.ok(), "{cfg:?}: {:?}", outcome.violations);
            let mut steps = 0;
            live_path(&cfg, |core, queues| {
                let key: McKey = (
                    core.plane().snapshot().without_counters(),
                    queues.iter().map(|q| q.iter().copied().collect()).collect(),
                    Vec::new(),
                    Vec::new(),
                    false,
                    Vec::new(),
                );
                assert!(
                    visited.contains(&key),
                    "{cfg:?}: live step {steps} unexplored"
                );
                steps += 1;
            });
            assert!(steps > 1, "{cfg:?}: the live path never moved");
        }
    }

    #[test]
    fn the_grant_check_flags_an_unmet_dependency_and_a_premature_grant() {
        let token = Token {
            id: TokenId(7),
            level: 1,
            iteration: 2,
            seq: 0,
            batch: 8,
            deps: vec![TokenId(3), TokenId(4)],
            sample_owner: None,
        };
        assert!(grant_violations(&token, &[TokenId(3), TokenId(4)], 1, 1).is_empty());
        let violations = grant_violations(&token, &[TokenId(3)], 0, 1);
        let premature = McViolation::PrematureGrant {
            token: 7,
            level: 1,
            iteration: 2,
            synced_upto: 0,
        };
        let unmet = McViolation::UnmetDependency { token: 7, dep: 4 };
        assert_eq!(violations, [unmet, premature]);
    }

    /// The first schedule of the one-plane space.
    fn a_schedule() -> Vec<(usize, u64, u64)> {
        let outcome = model_check(&McConfig::small());
        assert!(outcome.ok(), "{:?}", outcome.violations);
        outcome.schedules[0].clone()
    }

    #[test]
    fn an_order_that_breaks_the_dag_diverges() {
        // Report iteration 0's level-1 token before its level-0 tokens.
        let mut order = a_schedule();
        let l1 = order.iter().position(|&(l, i, _)| (l, i) == (1, 0));
        order[..=l1.expect("a level-1 token")].rotate_right(1);
        let violations = check_schedules(&McConfig::small(), &[order]);
        assert!(
            matches!(
                violations.as_slice(),
                [McViolation::Divergence { schedule: 0, detail }] if detail.contains("linearization")
            ),
            "{violations:?}"
        );
    }

    #[test]
    fn a_schedule_whose_parameters_differ_diverges() {
        // Tamper with what the schedule trained: stop it one iteration
        // short of the reference's two.
        let order = a_schedule();
        let (serial, first) = (train(None, 2), train(Some(&order), 2));
        assert_eq!(divergence(&first, &first, &serial), None);
        let tampered = train(Some(&order), 1);
        let bitwise = divergence(&tampered, &first, &serial).expect("differs from schedule 0");
        assert!(bitwise.contains("bit-wise"), "{bitwise}");
        let serially = divergence(&tampered, &tampered, &serial).expect("differs from serial");
        assert!(serially.contains("vs serial"), "{serially}");
    }

    #[test]
    fn the_one_shard_small_config_is_clean() {
        let outcome = model_check(&McConfig::small());
        assert!(outcome.ok(), "{:?}", outcome.violations);
        assert!(outcome.terminals >= 1);
        assert!(outcome.states > 10, "space too small to mean anything");
        assert!(!outcome
            .violations
            .iter()
            .any(|v| matches!(v, McViolation::NotLinearizable { .. })),);
    }

    #[test]
    fn the_lease_adversary_explores_revocation_and_stays_clean() {
        let outcome = model_check(&McConfig::small().with_recovery());
        assert!(outcome.ok(), "{:?}", outcome.violations);
        assert!(outcome.lease_fires > 0, "adversary never fired a lease");
        assert!(
            outcome.stale_reports > 0,
            "no explored path raced a stale report against a revocation"
        );
    }

    #[test]
    fn three_workers_explore_clean() {
        let mut cfg = McConfig::small();
        cfg.workers = 3;
        cfg.iterations = 1;
        let outcome = model_check(&cfg);
        assert!(outcome.ok(), "{:?}", outcome.violations);
    }

    #[test]
    fn a_dropped_grant_without_recovery_is_a_lost_wakeup() {
        let cfg = McConfig::small().with_mutation(McMutation::DropGrant { worker: 1 });
        let outcome = model_check(&cfg);
        assert!(
            outcome
                .violations
                .iter()
                .any(|v| matches!(v, McViolation::LostWakeup { worker: 1, .. })),
            "{:?}",
            outcome.violations
        );
    }

    #[test]
    fn a_dropped_grant_with_recovery_self_heals() {
        let cfg = McConfig::small()
            .with_recovery()
            .with_mutation(McMutation::DropGrant { worker: 1 });
        let outcome = model_check(&cfg);
        assert!(
            !outcome
                .violations
                .iter()
                .any(|v| matches!(v, McViolation::LostWakeup { .. })),
            "recovery should heal the dropped wakeup: {:?}",
            outcome.violations
        );
        assert!(outcome.terminals >= 1, "no path completed the run");
    }

    #[test]
    fn recorded_executions_are_session_clean_and_replay_against_the_oracle() {
        let cfg = McConfig::small();
        let (events, ops) = record_execution(&cfg);
        let report = verify_session(&events, Some(&ops));
        assert!(report.ok(), "{:?}", report.violations);
        let mut oracle = build_oracle(&cfg);
        fela_core::replay_oplog(&ops, &mut oracle).expect("history must replay");
    }

    #[test]
    fn the_mutation_matrix_is_fully_caught_with_distinct_diagnostics() {
        let rows = run_mutation_matrix();
        assert_eq!(rows.len(), 3);
        for row in &rows {
            assert!(row.caught, "mutation {} escaped", row.name);
            assert!(!row.diagnostic.is_empty());
        }
        let kinds: BTreeSet<&str> = rows.iter().map(|r| r.kind).collect();
        assert_eq!(kinds.len(), 3, "diagnostics must be distinct: {rows:?}");
    }
}
