//! # fela-core — the Fela runtime
//!
//! The paper's primary contribution: token-based, elastically tuned hybrid-parallel
//! training (§III). The crate decomposes as:
//!
//! * [`FelaConfig`] — parallelism weights, ADS/HF/CTD policy toggles, control-plane
//!   overhead constants;
//! * [`TokenPlan`] — how one BSP iteration decomposes into tokens per level
//!   (§III-B, §IV-B);
//! * [`Coordinator`] — the Token Server: Token Generator + Token Distributor +
//!   Token Bucket/STBs + Info Mapping, with the ADS (§III-D), HF (§III-E) and
//!   CTD (§III-F) policies as pure, unit-tested scheduling logic over one
//!   per-level token table, proved schedule-identical to `fela-check`'s
//!   reference `TokenServer`;
//! * [`ControlPlane`] — the coordinator the runtimes hold, with op-log and
//!   write-ahead-log recording of every mutating call. It owns the log's
//!   lifecycle for every runtime: it opens the log
//!   ([`DurabilityOptions::for_run`], [`ControlPlane::open_wal`]), stages
//!   every op and group-commits the stage ([`ControlPlane::commit_wal`]),
//!   checkpoints it ([`ControlPlane::checkpoint_due`]) and recovers from it
//!   ([`ControlPlane::crash_restart`]);
//! * [`ServerCore`] — the one sans-IO Token Server over the plane, which the
//!   simulator, `fela-live`'s real-clock shell and `fela-check`'s model
//!   checker all drive: its inputs (pull, report batch, finished sync, lease
//!   fire, worker crash or restart, server crash) only queue work, and grants
//!   leave through one [`ServerCore::dispatch`] that commits the log first;
//! * [`codec`] — the one little-endian binary codec (cursor, writer, list
//!   and length-prefix helpers, [`codec::DecodeError`]) under both the
//!   write-ahead log and `fela-live`'s wire protocol;
//! * [`FelaRuntime`] — the discrete-event world tying the server core to
//!   workers, the GPU compute model, the flow-level network and straggler
//!   injection; implements [`fela_cluster::TrainingRuntime`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod codec;
mod config;
mod error;
mod lease;
mod levels;
pub mod oplog;
mod plan;
mod plane;
mod runtime;
mod server;
mod server_core;
mod snapshot;
mod token;
pub mod wal;

pub use config::{CtdConfig, FelaConfig, RecoveryConfig};
pub use error::ScheduleError;
pub use lease::{ExpiredLease, LeaseInfo};
pub use oplog::{apply_op, replay_oplog, CoordOp, OpDivergence, OpKind, OpOutcome, OpTarget};
pub use plan::{LevelPlan, PlanError, TokenPlan};
pub use plane::ControlPlane;
pub use runtime::{ComputeBackend, ComputeRequest, FelaRuntime, LocalCompute};
pub use server::{Coordinator, Grant, LevelMeta, ServerStats, SyncSpec};
pub use server_core::{CoreCounters, CoreError, Outbound, Reported, ServerCore};
pub use snapshot::ServerSnapshot;
pub use token::{Token, TokenId};
pub use wal::{
    recover, wal_path, DurabilityOptions, FileWal, MemWal, Recovered, WalError, WalRecord, WalSink,
    WalWriter,
};
