//! # fela-live — a real concurrent token-pull runtime
//!
//! Everything else in this workspace models Fela's control plane inside a
//! single-threaded discrete-event simulator. This crate runs it **for real**:
//! the Token Server and the workers are separate OS threads exchanging
//! length-prefixed binary frames ([`wire`]) over a pluggable [`Transport`] —
//! in-process channels or `std::net` TCP loopback (std only, no external
//! dependencies).
//!
//! Two clock modes:
//!
//! * **Virtual** ([`run_virtual_with`]) — the simulator plus
//!   [`train_replicas`]: the *unmodified* [`fela_core::FelaRuntime`] event
//!   loop runs the job, spans priced by its own model, then live worker
//!   threads train their replicas from the traced schedule. Traces and
//!   reports *are* the simulator's, so `fela-check`'s race detector and
//!   recovery verifier run unchanged on live output, and the wire carries
//!   only frames the real-clock run sends too. Deterministic.
//! * **Real** ([`run_real`]) — the Token Server runs against the wall clock:
//!   workers pull tokens, sleep the modeled span scaled by `time_scale`, and
//!   report; leases, crash/restart injection and hang faults run off real
//!   timers. Nondeterministic interleavings — but final model parameters are
//!   still bit-exact (see below). Its protocol logic is `fela-core`'s sans-IO
//!   [`fela_core::ServerCore`], the core the simulator drives too, behind
//!   this crate's [`frame_adapter`], which `fela-check`'s model checker uses
//!   as well; [`real`] is the core's wall-clock shell.
//!
//! In both modes a worker thread is the shell of one sans-IO [`WorkerCore`]:
//! the core turns each server frame into what to wait, what to send and
//! whether to exit, and `fela-check`'s model checker drives the same core as
//! its workers.
//!
//! In both modes every worker trains a real [`fela_engine`] model replica:
//! the server relabels the run's accepted completions into per-iteration
//! token schedules ([`replay`]) and broadcasts them; the executor's canonical
//! per-level gradient reduction makes the result schedule-invariant, so all
//! replicas — and a local reference replay — agree bit-for-bit.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod frame_adapter;
#[cfg(test)]
mod golden;
pub mod real;
pub mod replay;
pub mod sched;
pub mod transport;
pub mod wire;
mod worker;

pub use real::{run_real, run_real_durable, run_real_with, RealOptions, RealOutcome};
pub use replay::{
    engine_setup, epilogue, flatten_params, plan_for, replay_schedules, replay_trace,
    run_virtual_with, schedules_from_completions, schedules_from_trace, train_replicas,
};
pub use sched::{pass, Endpoint, PassSched, RecordingSched, Sched, SharedSched, SyncEvent};
pub use transport::{
    transport_by_name, ChanTransport, Link, LinkRx, LinkTx, TcpTransport, Transport,
};
pub use wire::{Frame, WireError, WireGrant};
pub use worker::{WorkerCore, WorkerError, WorkerStep, WorkerWait};
