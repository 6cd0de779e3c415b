//! Canonical snapshots of control-plane state.
//!
//! A [`ServerSnapshot`] is the byte-exact conformance currency of the control
//! plane: the [`Coordinator`](crate::Coordinator) is proved against
//! `fela-check`'s reference `TokenServer` by comparing snapshots (alongside
//! grants and traces) under random churn, and both can be
//! [restored](crate::Coordinator::restore) from a snapshot plus the token
//! table, round-tripping bit-identically.

use crate::server::ServerStats;

/// A canonical, totally ordered view of the server's whole state.
///
/// Complete: two servers with equal snapshots (and equal token tables) emit
/// identical outcomes for identical future inputs — lock-conflict flags
/// included — and report identical counters, so a plane restored from a
/// checkpoint is indistinguishable from the one that wrote it.
/// `fela-check`'s state-space explorer uses snapshots to prune its state
/// space; tests use them to assert replay equivalence, and the
/// conformance suite compares the coordinator's and the reference
/// oracle's snapshots bit for bit.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ServerSnapshot {
    /// Iterations whose root tokens have been released.
    pub released_roots: u64,
    /// Next token id to be generated.
    pub next_token_id: u64,
    /// STB contents: `stbs[bucket][level]` → token ids in queue order.
    pub stbs: Vec<Vec<Vec<u64>>>,
    /// Sync-gated generated tokens per level: `(token id, preferred bucket)`.
    pub pending: Vec<Vec<(u64, usize)>>,
    /// Contiguously synced iteration count per level.
    pub synced_upto: Vec<u64>,
    /// Out-of-order finished syncs per level.
    pub synced_out_of_order: Vec<Vec<u64>>,
    /// Per-level in-flight completion counts: `(iteration, count)`.
    pub completed: Vec<Vec<(u64, u64)>>,
    /// Per-level generation buffers: `(iteration, completed token ids)`.
    pub gen_buffers: Vec<Vec<(u64, Vec<u64>)>>,
    /// Info Mapping: `(token id, holding worker)`.
    pub holder: Vec<(u64, usize)>,
    /// Workers queued for a token.
    pub waiting: Vec<usize>,
    /// Helper counts per bucket.
    pub helpers: Vec<u64>,
    /// Liveness per worker (all-true without faults).
    pub alive: Vec<bool>,
    /// Quarantine flags per worker (all-false without faults).
    pub quarantined: Vec<bool>,
    /// Active leases: `(token id, worker, attempt)` (empty without recovery).
    pub leases: Vec<(u64, usize, u64)>,
    /// Per-token lease revocation counts: `(token id, revocations)` (sparse;
    /// absent = 0). Behavioural — the next grant of a token carries this as
    /// its [`Grant::attempt`](crate::Grant::attempt).
    pub attempts: Vec<(u64, u64)>,
    /// Lease expiries per worker (the quarantine countdown).
    pub expiry_counts: Vec<u64>,
    /// Where each worker's durable data currently lives (identity until a
    /// crash re-homes it) — feeds fetch targets and root placement.
    pub data_home: Vec<usize>,
    /// Tokens parked with no eligible bucket (fully dark cluster), in
    /// revocation order: `(level, token id)`.
    pub parked: Vec<(usize, u64)>,
    /// Last contended grant instant per bucket, in nanoseconds. Behavioural
    /// when the lock window is non-zero: the next contended grant inside the
    /// window is flagged as a conflict.
    pub last_grant_at: Vec<Option<u64>>,
    /// Accepted reports per worker.
    pub trained_per_worker: Vec<u64>,
    /// The run-report counters.
    pub stats: ServerStats,
}

impl ServerSnapshot {
    /// The snapshot with its report-only counters (`trained_per_worker` and
    /// `stats`) cleared. No outcome reads them, so two states that differ
    /// only there have equal futures: the state-space explorer keys its
    /// visited set on this form.
    pub fn without_counters(mut self) -> Self {
        self.trained_per_worker.clear();
        self.stats = ServerStats::default();
        self
    }
}
