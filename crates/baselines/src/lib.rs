//! # fela-baselines — the paper's three comparators
//!
//! Faithful BSP implementations of the baselines of §V-A, all driven by the same
//! simulator, GPU model, network and straggler injection as Fela itself:
//!
//! * [`DpRuntime`] — data parallelism: full replicas, per-worker shards,
//!   whole-model ring all-reduce each iteration;
//! * [`MpRuntime`] — model parallelism: a FLOP-balanced pipeline with fixed
//!   micro-batches (PipeDream/GPipe-style under BSP flushes);
//! * [`HpRuntime`] — hybrid parallelism: Stanza's layer separation with N−1 CONV
//!   workers and one FC worker.
//!
//! All three run in one crate-private frame that owns the scenario, the
//! network and its wake-up, per-worker busy time, the BSP iteration clock and
//! the report, so each keeps only its own protocol state and events. Each
//! states what it needs of a scenario once, in its
//! [`TrainingRuntime::check`](fela_cluster::TrainingRuntime::check).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod dp;
mod frame;
mod hp;
mod mp;

pub use dp::{DpRuntime, DpSync};
pub use hp::HpRuntime;
pub use mp::{balance_stages, MpRuntime, Stage};
