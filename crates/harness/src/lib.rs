//! # fela-harness — the unified experiment harness
//!
//! Every experiment in this repository — the figure/table binaries, the CLI's
//! compare path and the elastic tuner's candidate search — runs through this
//! crate instead of hand-rolled runtime × scenario loops. It provides:
//!
//! * **Declarative sweeps** ([`SweepSpec`]): a labeled runtime-factory axis
//!   crossed with a labeled scenario axis, expanded into independent
//!   [`RunJob`]s.
//! * **Parallel execution** ([`exec::run_indexed`]): scoped threads pulling
//!   from a shared queue, with results slotted by job index so the output is
//!   byte-identical to a sequential run — `--jobs` changes wall-clock time,
//!   never results.
//! * **Structured artifacts** ([`RunRecord`]): one JSON-Lines record per run
//!   under `results/` (override with `FELA_RESULTS_DIR`), carrying the config
//!   hash, seed, scenario coordinates, the full `RunReport` and an optional
//!   trace pointer. Records hold no wall-clock fields; timing goes to stderr.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod exec;
pub mod record;
pub mod sweep;

pub use exec::{default_jobs, env_count, positive_count, run_indexed};
pub use record::{config_hash, results_dir, to_jsonl, write_jsonl, write_jsonl_to, RunRecord};
pub use sweep::{share_runtime, RunJob, RuntimeFactory, SweepResult, SweepSpec};
