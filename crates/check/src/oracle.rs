//! The reference Token Server: the single-loop scheduler that the production
//! control plane ([`fela_core::Coordinator`]) is held to, bit for bit.
//!
//! This is the original monolithic implementation of §III — every level's
//! STBs, the Info Mapping, the lease maps and the waiting queue in one
//! struct, with the helper-steal pick as a plain O(workers × levels) scan.
//! Nothing in a run executes it. It stays because a second, deliberately
//! simple implementation is what makes the coordinator's indices and
//! per-level table checkable:
//!
//! * the conformance suite (`tests/tests/conformance.rs`) drives both
//!   through identical random churn and compares every grant, sync, error
//!   and [`ServerSnapshot`];
//! * `fela-mc` ([`crate::mc`]) applies each explored transition's op log to
//!   it in lockstep ([`fela_core::apply_op`]) — per-op linearizability;
//! * `fela check --wal` ([`crate::wal`]) replays logs through it;
//! * the `control_plane_scaling` bench measures it as the cost baseline.
//!
//! It shares no scheduling code with `fela-core`: even the per-level
//! bookkeeping (`LevelState`) and the score encoding are its own, so a bug
//! in the production plane cannot hide by being present in both.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use fela_core::{
    ExpiredLease, FelaConfig, Grant, LeaseInfo, LevelMeta, OpTarget, ScheduleError, ServerSnapshot,
    ServerStats, SyncSpec, Token, TokenId, TokenPlan,
};
use fela_sim::SimTime;

/// One `(encoded score, token id)` index: ascending set order is descending
/// locality score, ties to the smallest id (Principle 2).
type ScoreSet = BTreeSet<(u64, TokenId)>;

/// Encodes a locality score so ascending `u64` order equals descending score
/// order. Sound because scores are finite and non-negative (Equation 1 yields
/// values in `[0, 1]`), where IEEE-754 bit patterns are monotone in value.
fn score_key(score: f64) -> u64 {
    !score.to_bits()
}

/// Per-level sync, completion and generation bookkeeping.
#[derive(Clone, Default)]
struct LevelState {
    /// Contiguous iterations synced from 0 (`synced_upto = k` ⇒ iterations
    /// `0..k` are fully synced at this level).
    synced_upto: u64,
    /// Syncs finished out of contiguous order (possible under SSP staleness).
    synced_out_of_order: BTreeSet<u64>,
    /// Completions counted per in-flight iteration.
    completed: BTreeMap<u64, u64>,
    /// Generation groups accumulating per iteration, in completion order.
    gen_buffer: BTreeMap<u64, Vec<TokenId>>,
    /// Generated tokens gated on this level's sync/staleness bound: `(token
    /// id, preferred bucket)`.
    pending: VecDeque<(TokenId, usize)>,
    /// Tokens generated so far per iteration at this level (levels ≥ 1).
    generated: BTreeMap<u64, u64>,
}

impl LevelState {
    /// Highest iteration whose tokens may currently run at this level.
    fn release_bound(&self, staleness: u64) -> u64 {
        self.synced_upto + staleness
    }
}

/// The reference Token Server (see the module docs).
#[derive(Clone)]
pub struct TokenServer {
    plan: TokenPlan,
    cfg: FelaConfig,
    meta: Vec<LevelMeta>,
    n_workers: usize,
    max_iterations: u64,
    /// Iterations whose root tokens have been released (0..count).
    released_roots: u64,
    next_token_id: u64,
    /// All generated tokens. Ordered map: scheduling decisions and artifacts
    /// must never depend on hash-iteration order.
    tokens: BTreeMap<TokenId, Token>,
    /// `stbs[worker][level]` — distributable tokens. With HF off only `stbs[0]`
    /// is used (the global bucket).
    stbs: Vec<Vec<VecDeque<TokenId>>>,
    /// Id-ordered mirror of each `stbs[bucket][level]` queue: the smallest-id
    /// pick of the ablation paths becomes an O(log) `first()` instead of a
    /// linear queue scan.
    grantable: Vec<Vec<BTreeSet<TokenId>>>,
    /// Principle-2 index: `by_score[bucket][level][worker]` holds the bucket's
    /// tokens with *strictly positive* locality score towards `worker`, keyed by
    /// `(descending score, ascending id)`, so the distribution hot path is a
    /// `first()` lookup instead of an O(tokens × deps) scoring scan per grant.
    /// Zero-score tokens are deliberately absent: any positive score beats all
    /// zeros, and among zero-score tokens the pick is the smallest id — exactly
    /// `grantable`'s `first()` — so the index only needs the sparse positive
    /// entries (a token scores positively for at most `deps.len()` workers).
    /// Valid because a token's score towards every worker is fixed the moment it
    /// enters an STB: its deps are already-reported tokens whose `holder`
    /// entries never change. Populated only when ADS and HF are both on — the
    /// one configuration whose pick consults locality.
    by_score: Vec<Vec<Vec<ScoreSet>>>,
    /// Sparse `(worker, score key)` index entries of every STB-resident token,
    /// kept so `stb_remove` can drop them without recomputing scores.
    score_keys: BTreeMap<TokenId, Vec<(usize, u64)>>,
    /// Completed-token outputs: token → holding worker (Info Mapping).
    holder: BTreeMap<TokenId, usize>,
    levels: Vec<LevelState>,
    /// Last grant instant per bucket, for lock-conflict detection.
    last_grant_at: Vec<Option<SimTime>>,
    /// Helpers currently assisting each STB (decayed on root release).
    helpers: Vec<u64>,
    waiting: VecDeque<usize>,
    stats: ServerStats,
    /// Tokens trained per worker (for load-balance reporting).
    trained_per_worker: Vec<u64>,
    /// Liveness per worker. All-true until a crash notification arrives.
    alive: Vec<bool>,
    /// Quarantined workers: alive but untrusted (repeated lease expiries) —
    /// they get no further grants and leave the sync membership.
    quarantined: Vec<bool>,
    /// Lease expiries per worker (drives quarantine).
    expiry_counts: Vec<u64>,
    /// Active leases (maintained only with recovery on): granted,
    /// not-yet-reported tokens.
    leases: BTreeMap<TokenId, LeaseInfo>,
    /// Revocation counts per token (sparse; absent = 0).
    attempts: BTreeMap<TokenId, u64>,
    /// Where each worker's durable data (sample shard, checkpointed token
    /// outputs) currently lives. Identity until a crash re-homes a dead
    /// worker's data to a survivor — modelling the replica/checkpoint store a
    /// production deployment restores from, so dataflow survives the death of
    /// a holder without cascading recomputation.
    data_home: Vec<usize>,
    /// Tokens with no eligible bucket: when a crash kills the *last* eligible
    /// worker (the cluster is fully dark) revoked and displaced tokens park
    /// here, in revocation order, until a restart brings a survivor back.
    parked: Vec<(usize, TokenId)>,
}

impl TokenServer {
    /// Creates a server and releases iteration 0's root tokens.
    ///
    /// # Panics
    /// Panics if `meta` length differs from the plan's level count or the config
    /// is invalid for the cluster size.
    pub fn new(
        plan: TokenPlan,
        cfg: FelaConfig,
        meta: Vec<LevelMeta>,
        n_workers: usize,
        max_iterations: u64,
    ) -> Self {
        assert_eq!(
            meta.len(),
            plan.num_levels(),
            "level metadata must match plan levels"
        );
        assert!(max_iterations > 0, "need at least one iteration");
        if let Err(e) = cfg.validate(n_workers) {
            panic!("invalid Fela config: {e}");
        }
        let m = plan.num_levels();
        let buckets = if cfg.hf { n_workers } else { 1 };
        let mut server = TokenServer {
            plan,
            cfg,
            meta,
            n_workers,
            max_iterations,
            released_roots: 0,
            next_token_id: 0,
            tokens: BTreeMap::new(),
            stbs: vec![vec![VecDeque::new(); m]; buckets],
            grantable: vec![vec![BTreeSet::new(); m]; buckets],
            by_score: vec![vec![vec![BTreeSet::new(); n_workers]; m]; buckets],
            score_keys: BTreeMap::new(),
            holder: BTreeMap::new(),
            levels: vec![LevelState::default(); m],
            last_grant_at: vec![None; buckets],
            helpers: vec![0; buckets],
            waiting: VecDeque::new(),
            stats: ServerStats::default(),
            trained_per_worker: vec![0; n_workers],
            alive: vec![true; n_workers],
            quarantined: vec![false; n_workers],
            expiry_counts: vec![0; n_workers],
            leases: BTreeMap::new(),
            attempts: BTreeMap::new(),
            data_home: (0..n_workers).collect(),
            parked: Vec::new(),
        };
        server.release_due_roots();
        server
    }

    /// The full token table (pair with [`Self::snapshot`] for
    /// [`Self::restore`]).
    pub fn tokens(&self) -> &BTreeMap<TokenId, Token> {
        &self.tokens
    }

    /// Accumulated counters.
    pub fn stats(&self) -> &ServerStats {
        &self.stats
    }

    /// Tokens trained per worker so far.
    pub fn trained_per_worker(&self) -> &[u64] {
        &self.trained_per_worker
    }

    /// Iterations fully finished: every level's sync for that iteration drained.
    pub fn completed_iterations(&self) -> u64 {
        self.levels.iter().map(|l| l.synced_upto).min().unwrap_or(0)
    }

    /// Whether `worker` belongs to the CTD subset `S`.
    ///
    /// While the whole subset is dead or quarantined the restriction *lapses*:
    /// every worker counts as a member, so conditional levels keep making
    /// progress on survivors instead of deadlocking until a member rejoins.
    /// Fault-free runs never take the lapse path (all members stay eligible).
    fn in_ctd_subset(&self, worker: usize) -> bool {
        match self.cfg.ctd {
            Some(ctd) => worker < ctd.subset_size || !self.ctd_subset_alive(),
            None => true,
        }
    }

    /// Whether the CTD subset still has at least one eligible member.
    fn ctd_subset_alive(&self) -> bool {
        match self.cfg.ctd {
            Some(ctd) => (0..ctd.subset_size).any(|w| self.eligible(w)),
            None => true,
        }
    }

    /// Eligible participants for a conditional level: the alive part of the
    /// CTD subset, or — when the whole subset is down — every eligible worker
    /// (the CTD restriction lapses until a subset member rejoins).
    fn ctd_participants(&self, level: usize) -> Result<Vec<usize>, ScheduleError> {
        let ctd = self
            .cfg
            .ctd
            .ok_or(ScheduleError::CtdConfigMissing { level })?;
        let members: Vec<usize> = (0..ctd.subset_size).filter(|&w| self.eligible(w)).collect();
        if !members.is_empty() {
            return Ok(members);
        }
        let alive: Vec<usize> = (0..self.n_workers).filter(|&w| self.eligible(w)).collect();
        if alive.is_empty() {
            return Err(ScheduleError::NoAliveWorkers);
        }
        Ok(alive)
    }

    /// Whether lease-based recovery is enabled.
    fn recovery_on(&self) -> bool {
        self.cfg.recovery.is_some()
    }

    /// Whether the server considers `worker` alive.
    pub fn is_alive(&self, worker: usize) -> bool {
        self.alive[worker]
    }

    /// Alive, non-quarantined — the workers grants and syncs may target.
    fn eligible(&self, worker: usize) -> bool {
        self.alive[worker] && !self.quarantined[worker]
    }

    /// The smallest-id eligible worker — the deterministic re-home target.
    fn fallback_worker(&self) -> Result<usize, ScheduleError> {
        (0..self.n_workers)
            .find(|&w| self.eligible(w))
            .ok_or(ScheduleError::NoAliveWorkers)
    }

    /// Same contract as [`fela_core::Coordinator::worker_crashed`].
    pub fn worker_crashed(&mut self, worker: usize) -> Result<Vec<TokenId>, ScheduleError> {
        self.check_worker(worker)?;
        if !self.alive[worker] {
            return Err(ScheduleError::BadLivenessTransition {
                worker,
                alive: false,
            });
        }
        self.alive[worker] = false;
        self.waiting.retain(|&w| w != worker);
        // When the crash kills the last eligible worker the cluster is fully
        // dark: nobody can serve data or accept tokens, so re-homing is
        // deferred and revoked tokens park until a restart (see
        // [`Self::worker_restarted`]). Nothing is lost — the durable store
        // the homes model outlives every process.
        let fallback = self.fallback_worker().ok();
        if let Some(fb) = fallback {
            // Re-home durable data: every shard and checkpointed output whose
            // home was the dead worker is now served by the fallback survivor.
            for home in &mut self.data_home {
                if *home == worker {
                    *home = fb;
                }
            }
            for holder in self.holder.values_mut() {
                if *holder == worker {
                    *holder = fb;
                }
            }
        }
        // Revoke every lease the dead worker held.
        let held: Vec<TokenId> = self
            .leases
            .iter()
            .filter(|(_, l)| l.worker == worker)
            .map(|(&t, _)| t)
            .collect();
        for &t in &held {
            self.revoke_lease(t)?;
        }
        // Redistribute the dead worker's STB so no token is stranded in a
        // bucket nobody requests from (helpers do steal from foreign buckets,
        // but an unmarked dead bucket would still skew helper prioritisation).
        if self.cfg.hf {
            for level in 0..self.plan.num_levels() {
                let ids: Vec<TokenId> = self.stbs[worker][level].iter().copied().collect();
                for id in ids {
                    self.stb_remove(worker, level, id)?;
                    self.place_token(level, id)?;
                }
            }
            if let Some(fb) = fallback {
                for ls in &mut self.levels {
                    for (_, bucket) in ls.pending.iter_mut() {
                        if *bucket == worker {
                            *bucket = fb;
                        }
                    }
                }
            }
        }
        // Holder re-homing invalidated locality scores computed earlier.
        self.rebuild_score_index()?;
        Ok(held)
    }

    /// Same contract as [`fela_core::Coordinator::worker_restarted`].
    pub fn worker_restarted(&mut self, worker: usize) -> Result<(), ScheduleError> {
        self.check_worker(worker)?;
        if self.alive[worker] {
            return Err(ScheduleError::BadLivenessTransition {
                worker,
                alive: true,
            });
        }
        self.alive[worker] = true;
        self.quarantined[worker] = false;
        self.expiry_counts[worker] = 0;
        let orphaned = !self.parked.is_empty()
            || self.data_home.iter().any(|&h| !self.alive[h])
            || self.holder.values().any(|&h| !self.alive[h]);
        if orphaned {
            let fb = self.fallback_worker()?; // the rejoining worker at worst
            for home in &mut self.data_home {
                if !self.alive[*home] {
                    *home = fb;
                }
            }
            for holder in self.holder.values_mut() {
                if !self.alive[*holder] {
                    *holder = fb;
                }
            }
            if self.cfg.hf {
                for ls in &mut self.levels {
                    for (_, bucket) in ls.pending.iter_mut() {
                        if !self.alive[*bucket] {
                            *bucket = fb;
                        }
                    }
                }
            }
            let parked = std::mem::take(&mut self.parked);
            for (level, id) in parked {
                self.place_token(level, id)?;
            }
            self.rebuild_score_index()?;
        }
        Ok(())
    }

    /// Same contract as [`fela_core::Coordinator::lease_expired`].
    pub fn lease_expired(
        &mut self,
        token: TokenId,
        attempt: u64,
    ) -> Result<Option<ExpiredLease>, ScheduleError> {
        let Some(lease) = self.leases.get(&token).copied() else {
            return Ok(None);
        };
        if lease.attempt != attempt {
            return Ok(None);
        }
        let worker = lease.worker;
        self.revoke_lease(token)?;
        let mut revoked = vec![token];
        self.expiry_counts[worker] += 1;
        let threshold = self
            .cfg
            .recovery
            .map(|r| r.quarantine_after)
            .unwrap_or(u64::MAX);
        let mut newly_quarantined = false;
        if self.expiry_counts[worker] >= threshold && !self.quarantined[worker] {
            // Check a survivor remains before shrinking the membership.
            if (0..self.n_workers).any(|w| w != worker && self.eligible(w)) {
                self.quarantined[worker] = true;
                newly_quarantined = true;
                self.waiting.retain(|&w| w != worker);
                let held: Vec<TokenId> = self
                    .leases
                    .iter()
                    .filter(|(_, l)| l.worker == worker)
                    .map(|(&t, _)| t)
                    .collect();
                for &t in &held {
                    self.revoke_lease(t)?;
                }
                revoked.extend(held);
            }
        }
        Ok(Some(ExpiredLease {
            worker,
            revoked,
            quarantined: newly_quarantined,
        }))
    }

    /// Revokes the active lease on `token`: bumps its attempt count and
    /// returns it to the grantable set, re-scored against surviving workers.
    fn revoke_lease(&mut self, token: TokenId) -> Result<(), ScheduleError> {
        self.leases
            .remove(&token)
            .ok_or(ScheduleError::UnknownToken { token })?;
        *self.attempts.entry(token).or_insert(0) += 1;
        let level = self
            .tokens
            .get(&token)
            .ok_or(ScheduleError::UnknownToken { token })?
            .level;
        self.place_token(level, token)
    }

    /// Places a token (revoked, or displaced from a dead bucket) into the best
    /// surviving bucket: the eligible worker with the highest locality score
    /// (Equation 1 against the current holder map), ties to the lightest
    /// queue, then the smallest id. Conditional levels stay inside the alive
    /// part of the CTD subset. With no eligible worker anywhere (fully dark
    /// cluster) the token parks until a restart re-places it.
    fn place_token(&mut self, level: usize, id: TokenId) -> Result<(), ScheduleError> {
        if !self.cfg.hf {
            return self.stb_push(0, level, id);
        }
        let candidates: Vec<usize> = if self.is_cond_level(level) {
            match self.ctd_participants(level) {
                Ok(c) => c,
                Err(ScheduleError::NoAliveWorkers) => {
                    self.parked.push((level, id));
                    return Ok(());
                }
                Err(e) => return Err(e),
            }
        } else {
            let alive: Vec<usize> = (0..self.n_workers).filter(|&w| self.eligible(w)).collect();
            if alive.is_empty() {
                self.parked.push((level, id));
                return Ok(());
            }
            alive
        };
        let mut best: Option<(u64, usize, usize)> = None; // (score key, queue, id)
        let mut bucket = candidates[0];
        for &w in &candidates {
            let score = self.locality_score(w, id)?;
            let key = (
                score_key(score),
                self.stbs[w].iter().map(VecDeque::len).sum::<usize>(),
                w,
            );
            if best.is_none_or(|b| key < b) {
                best = Some(key);
                bucket = w;
            }
        }
        self.stb_push(bucket, level, id)
    }

    /// Recomputes the Principle-2 score index for every STB-resident token
    /// (crash re-homing moved holder entries, invalidating scores fixed at
    /// insertion time). Crash-path only — cost is proportional to queued
    /// tokens, and crashes are rare events.
    fn rebuild_score_index(&mut self) -> Result<(), ScheduleError> {
        if !self.use_score_index() {
            return Ok(());
        }
        for bucket in 0..self.stbs.len() {
            for level in 0..self.plan.num_levels() {
                let ids: Vec<TokenId> = self.stbs[bucket][level].iter().copied().collect();
                for id in ids {
                    if let Some(keys) = self.score_keys.remove(&id) {
                        for (w, k) in keys {
                            self.by_score[bucket][level][w].remove(&(k, id));
                        }
                    }
                    let (counts, len) = {
                        let t = self
                            .tokens
                            .get(&id)
                            .ok_or(ScheduleError::UnknownToken { token: id })?;
                        let mut counts = vec![0usize; self.n_workers];
                        for d in &t.deps {
                            if let Some(&w) = self.holder.get(d) {
                                counts[w] += 1;
                            }
                        }
                        (counts, t.deps.len())
                    };
                    let mut keys: Vec<(usize, u64)> = Vec::new();
                    for (w, &c) in counts.iter().enumerate() {
                        if c > 0 {
                            let k = score_key(c as f64 / len as f64);
                            self.by_score[bucket][level][w].insert((k, id));
                            keys.push((w, k));
                        }
                    }
                    if !keys.is_empty() {
                        self.score_keys.insert(id, keys);
                    }
                }
            }
        }
        Ok(())
    }

    /// A canonical snapshot of the scheduling state (see [`ServerSnapshot`]).
    pub fn snapshot(&self) -> ServerSnapshot {
        ServerSnapshot {
            released_roots: self.released_roots,
            next_token_id: self.next_token_id,
            stbs: self
                .stbs
                .iter()
                .map(|b| {
                    b.iter()
                        .map(|q| q.iter().map(|id| id.0).collect())
                        .collect()
                })
                .collect(),
            pending: self
                .levels
                .iter()
                .map(|l| l.pending.iter().map(|&(id, b)| (id.0, b)).collect())
                .collect(),
            synced_upto: self.levels.iter().map(|l| l.synced_upto).collect(),
            synced_out_of_order: self
                .levels
                .iter()
                .map(|l| l.synced_out_of_order.iter().copied().collect())
                .collect(),
            completed: self
                .levels
                .iter()
                .map(|l| l.completed.iter().map(|(&k, &v)| (k, v)).collect())
                .collect(),
            gen_buffers: self
                .levels
                .iter()
                .map(|l| {
                    l.gen_buffer
                        .iter()
                        .map(|(&k, v)| (k, v.iter().map(|id| id.0).collect()))
                        .collect()
                })
                .collect(),
            holder: self.holder.iter().map(|(&t, &w)| (t.0, w)).collect(),
            waiting: self.waiting.iter().copied().collect(),
            helpers: self.helpers.clone(),
            alive: self.alive.clone(),
            quarantined: self.quarantined.clone(),
            leases: self
                .leases
                .iter()
                .map(|(&t, l)| (t.0, l.worker, l.attempt))
                .collect(),
            attempts: self.attempts.iter().map(|(&t, &n)| (t.0, n)).collect(),
            expiry_counts: self.expiry_counts.clone(),
            data_home: self.data_home.clone(),
            parked: self.parked.iter().map(|&(l, id)| (l, id.0)).collect(),
            last_grant_at: self
                .last_grant_at
                .iter()
                .map(|t| t.map(SimTime::as_nanos))
                .collect(),
            trained_per_worker: self.trained_per_worker.clone(),
            stats: self.stats,
        }
    }

    /// Same contract as [`fela_core::Coordinator::restore`].
    pub fn restore(
        plan: TokenPlan,
        cfg: FelaConfig,
        meta: Vec<LevelMeta>,
        n_workers: usize,
        max_iterations: u64,
        tokens: BTreeMap<TokenId, Token>,
        snap: &ServerSnapshot,
    ) -> Result<Self, ScheduleError> {
        assert_eq!(
            meta.len(),
            plan.num_levels(),
            "level metadata must match plan levels"
        );
        assert!(max_iterations > 0, "need at least one iteration");
        if let Err(e) = cfg.validate(n_workers) {
            panic!("invalid Fela config: {e}");
        }
        let m = plan.num_levels();
        let buckets = if cfg.hf { n_workers } else { 1 };
        let mut s = TokenServer {
            plan,
            cfg,
            meta,
            n_workers,
            max_iterations,
            released_roots: snap.released_roots,
            next_token_id: snap.next_token_id,
            tokens,
            stbs: vec![vec![VecDeque::new(); m]; buckets],
            grantable: vec![vec![BTreeSet::new(); m]; buckets],
            by_score: vec![vec![vec![BTreeSet::new(); n_workers]; m]; buckets],
            score_keys: BTreeMap::new(),
            holder: snap.holder.iter().map(|&(t, w)| (TokenId(t), w)).collect(),
            levels: vec![LevelState::default(); m],
            last_grant_at: snap
                .last_grant_at
                .iter()
                .map(|t| t.map(SimTime::from_nanos))
                .collect(),
            helpers: snap.helpers.clone(),
            waiting: snap.waiting.iter().copied().collect(),
            stats: snap.stats,
            trained_per_worker: snap.trained_per_worker.clone(),
            alive: snap.alive.clone(),
            quarantined: snap.quarantined.clone(),
            expiry_counts: snap.expiry_counts.clone(),
            leases: snap
                .leases
                .iter()
                .map(|&(t, worker, attempt)| (TokenId(t), LeaseInfo { worker, attempt }))
                .collect(),
            attempts: snap
                .attempts
                .iter()
                .map(|&(t, n)| (TokenId(t), n))
                .collect(),
            data_home: snap.data_home.clone(),
            parked: snap
                .parked
                .iter()
                .map(|&(level, id)| (level, TokenId(id)))
                .collect(),
        };
        for level in 0..m {
            let ls = &mut s.levels[level];
            ls.synced_upto = snap.synced_upto[level];
            ls.synced_out_of_order = snap.synced_out_of_order[level].iter().copied().collect();
            ls.completed = snap.completed[level].iter().copied().collect();
            ls.gen_buffer = snap.gen_buffers[level]
                .iter()
                .map(|(k, v)| (*k, v.iter().map(|&i| TokenId(i)).collect()))
                .collect();
            ls.pending = snap.pending[level]
                .iter()
                .map(|&(id, b)| (TokenId(id), b))
                .collect();
        }
        // `generated` is derivable: level ≥ 1 tokens are created only by the
        // generator and never dropped from the token table.
        let gen_pairs: Vec<(usize, u64)> = s
            .tokens
            .values()
            .filter(|t| t.level >= 1)
            .map(|t| (t.level, t.iteration))
            .collect();
        for (level, iteration) in gen_pairs {
            *s.levels[level].generated.entry(iteration).or_insert(0) += 1;
        }
        // Queues repopulate in snapshot order; scores recompute against the
        // restored Info Mapping, which equals the insertion-time index (dep
        // holders never change except re-homing, which rebuilds the index).
        for bucket in 0..snap.stbs.len() {
            for level in 0..m {
                for &id in &snap.stbs[bucket][level] {
                    s.stb_push(bucket, level, TokenId(id))?;
                }
            }
        }
        Ok(s)
    }

    fn check_worker(&self, worker: usize) -> Result<(), ScheduleError> {
        if worker >= self.n_workers {
            return Err(ScheduleError::InvalidWorker {
                worker,
                n_workers: self.n_workers,
            });
        }
        Ok(())
    }

    fn is_cond_level(&self, level: usize) -> bool {
        self.cfg.ctd.is_some() && self.meta[level].comm_intensive
    }

    /// True when grants consult locality (and the Principle-2 index is kept).
    fn use_score_index(&self) -> bool {
        self.cfg.ads && self.cfg.hf
    }

    /// Inserts a token into an STB queue and all distribution indices. A single
    /// walk over the token's dependency holders yields every worker's held
    /// count; only workers with a positive count get an index entry (Equation
    /// 1's `held / len` — the same division [`Self::locality_score`] performs).
    fn stb_push(&mut self, bucket: usize, level: usize, id: TokenId) -> Result<(), ScheduleError> {
        self.stbs[bucket][level].push_back(id);
        self.grantable[bucket][level].insert(id);
        if self.use_score_index() {
            let counts = {
                let t = self
                    .tokens
                    .get(&id)
                    .ok_or(ScheduleError::UnknownToken { token: id })?;
                let mut counts = vec![0usize; self.n_workers];
                for d in &t.deps {
                    if let Some(&w) = self.holder.get(d) {
                        counts[w] += 1;
                    }
                }
                (counts, t.deps.len())
            };
            let (counts, len) = counts;
            let mut keys: Vec<(usize, u64)> = Vec::new();
            for (w, &c) in counts.iter().enumerate() {
                if c > 0 {
                    let k = score_key(c as f64 / len as f64);
                    self.by_score[bucket][level][w].insert((k, id));
                    keys.push((w, k));
                }
            }
            if !keys.is_empty() {
                self.score_keys.insert(id, keys);
            }
        }
        Ok(())
    }

    /// [`Self::stb_push`] for root tokens, whose dependency set is empty and
    /// whose score is therefore 0 towards everyone (no index entries) —
    /// infallible, so root release (called from the constructor) needs no error
    /// path.
    fn stb_push_root(&mut self, bucket: usize, id: TokenId) {
        self.stbs[bucket][0].push_back(id);
        self.grantable[bucket][0].insert(id);
    }

    /// Removes a granted token from its STB queue and all distribution indices.
    fn stb_remove(
        &mut self,
        bucket: usize,
        level: usize,
        id: TokenId,
    ) -> Result<(), ScheduleError> {
        let q = &mut self.stbs[bucket][level];
        let Some(pos) = q.iter().position(|&x| x == id) else {
            // The index pointed at a token the queue does not hold.
            return Err(ScheduleError::CorruptBucket {
                bucket,
                level,
                position: 0,
            });
        };
        q.remove(pos);
        self.grantable[bucket][level].remove(&id);
        if let Some(keys) = self.score_keys.remove(&id) {
            for (w, k) in keys {
                self.by_score[bucket][level][w].remove(&(k, id));
            }
        }
        Ok(())
    }

    /// Releases root tokens for every iteration currently allowed by the level-0
    /// sync state, staleness bound and pipelining mode (called at construction
    /// and whenever a sync drains). Root token `seq` draws its samples from
    /// worker `seq % N`'s local shard and (with HF) starts in that worker's STB —
    /// the sample affinity that makes HF's first stage transfer-free.
    fn release_due_roots(&mut self) {
        loop {
            let bound = if self.cfg.pipelining {
                self.levels[0].release_bound(self.cfg.staleness)
            } else {
                // Strict barrier: iteration k+1 starts only once iteration k is
                // fully synced at every level.
                self.completed_iterations() + self.cfg.staleness
            };
            if self.released_roots >= self.max_iterations || self.released_roots > bound {
                return;
            }
            self.release_one_root_iteration();
        }
    }

    fn release_one_root_iteration(&mut self) {
        let iter = self.released_roots;
        self.released_roots += 1;
        // A fresh wave of local work arrived for everyone: helper counts from the
        // previous wave no longer describe the new contention picture.
        for h in &mut self.helpers {
            *h = 0;
        }
        let n0 = self.plan.levels[0].tokens_per_iteration;
        let batch = self.plan.levels[0].batch_per_token;
        for seq in 0..n0 {
            let owner = (seq % self.n_workers as u64) as usize;
            let id = TokenId(self.next_token_id);
            self.next_token_id += 1;
            let token = Token {
                id,
                level: 0,
                iteration: iter,
                seq,
                batch,
                deps: vec![],
                sample_owner: Some(owner),
            };
            self.tokens.insert(id, token);
            // Sample affinity: the root starts in the STB of whoever serves its
            // shard — the owner, unless a crash re-homed the shard (or the home
            // is quarantined, in which case the smallest eligible worker hosts
            // the token so it is not stranded in an unrequesting bucket).
            let home = self.data_home[owner];
            let bucket = if !self.cfg.hf {
                0
            } else if self.eligible(home) {
                home
            } else {
                (0..self.n_workers)
                    .find(|&w| self.eligible(w))
                    .unwrap_or(home)
            };
            self.stb_push_root(bucket, id);
        }
    }

    /// Same contract as [`fela_core::Coordinator::request`].
    pub fn request(&mut self, worker: usize, now: SimTime) -> Result<Option<Grant>, ScheduleError> {
        self.check_worker(worker)?;
        if !self.eligible(worker) {
            // A request can legitimately race the worker's own crash or
            // quarantine (it was in flight when the membership changed).
            return Err(ScheduleError::WorkerUnavailable { worker });
        }
        match self.try_grant(worker, now)? {
            Some(grant) => Ok(Some(grant)),
            None => {
                self.stats.starved_requests += 1;
                if !self.waiting.contains(&worker) {
                    self.waiting.push_back(worker);
                }
                Ok(None)
            }
        }
    }

    /// Same contract as [`fela_core::Coordinator::pop_ready_grant`].
    pub fn pop_ready_grant(
        &mut self,
        now: SimTime,
    ) -> Result<Option<(usize, Grant)>, ScheduleError> {
        for idx in 0..self.waiting.len() {
            let worker = self.waiting[idx];
            if let Some(grant) = self.try_grant(worker, now)? {
                self.waiting.remove(idx);
                return Ok(Some((worker, grant)));
            }
        }
        Ok(None)
    }

    /// Core distribution: pick a token for `worker` per HF/ADS/CTD.
    fn try_grant(&mut self, worker: usize, now: SimTime) -> Result<Option<Grant>, ScheduleError> {
        let Some((bucket, stolen)) = self.pick_bucket(worker) else {
            return Ok(None);
        };
        let Some((level, id)) = self.pick_token(bucket, worker) else {
            return Ok(None);
        };
        self.stb_remove(bucket, level, id)?;
        // Lock-conflict detection: with HF, only steals contend (owners access
        // their STB lock-free); with the global bucket every grant contends.
        let contends = stolen || !self.cfg.hf;
        let mut conflict = false;
        if contends {
            if let Some(last) = self.last_grant_at[bucket] {
                if now.saturating_since(last) < self.cfg.lock_window {
                    conflict = true;
                    self.stats.conflicts += 1;
                }
            }
            self.last_grant_at[bucket] = Some(now);
        }
        if stolen {
            self.stats.steals += 1;
            self.helpers[bucket] += 1;
        } else {
            self.stats.local_grants += 1;
        }
        self.stats.grants += 1;
        let token = self
            .tokens
            .get(&id)
            .ok_or(ScheduleError::UnknownToken { token: id })?
            .clone();
        let fetches = self.fetches_for(&token, worker)?;
        for &(_, bytes) in &fetches {
            self.stats.remote_fetch_bytes += bytes;
        }
        let attempt = self.attempts.get(&id).copied().unwrap_or(0);
        if self.recovery_on() {
            self.leases.insert(id, LeaseInfo { worker, attempt });
        }
        Ok(Some(Grant {
            token,
            fetches,
            conflict,
            attempt,
        }))
    }

    /// Chooses which bucket to draw from: own STB, else the most deserving
    /// straggler's STB (helper prioritisation, §III-E). Returns
    /// `(bucket, stolen)`.
    fn pick_bucket(&self, worker: usize) -> Option<(usize, bool)> {
        if !self.cfg.hf {
            let has = self.bucket_has_grantable(0, worker);
            return has.then_some((0, false));
        }
        if self.bucket_has_grantable(worker, worker) {
            return Some((worker, false));
        }
        // Helper mode: prefer the straggler with the fewest helpers, then the most
        // remaining tokens (slowest progress), then the lowest id.
        let mut best: Option<(u64, std::cmp::Reverse<usize>, usize)> = None;
        let mut best_bucket = None;
        for b in 0..self.n_workers {
            if b == worker || !self.bucket_has_grantable(b, worker) {
                continue;
            }
            let remaining: usize = self.stbs[b].iter().map(VecDeque::len).sum();
            let key = (self.helpers[b], std::cmp::Reverse(remaining), b);
            if best.is_none_or(|b| key < b) {
                best = Some(key);
                best_bucket = Some(b);
            }
        }
        best_bucket.map(|b| (b, true))
    }

    /// Whether `bucket` holds at least one token grantable to `worker` under CTD.
    fn bucket_has_grantable(&self, bucket: usize, worker: usize) -> bool {
        self.stbs[bucket].iter().enumerate().any(|(level, q)| {
            !q.is_empty() && (self.in_ctd_subset(worker) || !self.is_cond_level(level))
        })
    }

    /// Picks `(level, token)` inside a bucket per ADS/CTD.
    ///
    /// Both picks are index `first()` lookups. The Principle-2 index reproduces
    /// the historical epsilon-tolerant scan (`score > best + 1e-12`, ties to the
    /// smallest id) exactly: scores are rationals `held/len`, so two distinct
    /// scores differ by at least `1/(lenₐ·len_b)` — orders of magnitude above
    /// the 1e-12 epsilon — meaning the epsilon never merged genuinely distinct
    /// scores and the exact `(score, id)` order picks the same token.
    fn pick_token(&self, bucket: usize, worker: usize) -> Option<(usize, TokenId)> {
        let m = self.plan.num_levels();
        let member = self.in_ctd_subset(worker);
        // Build the level preference order.
        let mut order: Vec<usize> = Vec::with_capacity(m);
        if self.cfg.ctd.is_some() && member {
            // Conditional levels first (T-2 > T-3 > T-1 in the paper's example).
            order.extend((0..m).filter(|&l| self.is_cond_level(l)));
        }
        let mut rest: Vec<usize> = (0..m).filter(|l| !order.contains(l)).collect();
        if self.cfg.ads {
            rest.sort_unstable_by(|a, b| b.cmp(a)); // highest level first
        } else {
            rest.sort_unstable(); // ablation: lowest level first
        }
        order.extend(rest);

        for level in order {
            if !member && self.is_cond_level(level) {
                continue;
            }
            // The global bucket (HF off) is locality-blind: scoring every
            // token's dependency holders under the single global lock is exactly
            // the serialization §III-E says the STBs exist to avoid, so the
            // distributor degrades to sequential (smallest-id) assignment.
            let pick = if self.use_score_index() {
                // Principle 2: max locality score, tie → smallest token id. The
                // positive-score index wins outright when non-empty (any
                // positive score beats zero); otherwise every token in the
                // bucket scores 0 towards `worker` and the smallest id — the
                // `grantable` front — is the Principle-2 pick.
                self.by_score[bucket][level][worker]
                    .first()
                    .map(|&(_, id)| id)
                    .or_else(|| self.grantable[bucket][level].first().copied())
            } else {
                // Ablation: smallest token id.
                self.grantable[bucket][level].first().copied()
            };
            if let Some(id) = pick {
                return Some((level, id));
            }
        }
        None
    }

    /// Equation 1: fraction of a token's dependencies whose outputs `worker`
    /// already holds. Root tokens have an empty dependency set and score 0 — the
    /// paper distributes them "randomly (or sequentially)"; their *sample*
    /// affinity is expressed only through STB placement (§III-E), which is
    /// exactly why HF matters so much for them.
    fn locality_score(&self, worker: usize, token: TokenId) -> Result<f64, ScheduleError> {
        let t = self
            .tokens
            .get(&token)
            .ok_or(ScheduleError::UnknownToken { token })?;
        if t.deps.is_empty() {
            return Ok(0.0);
        }
        let held = t
            .deps
            .iter()
            .filter(|d| self.holder.get(d) == Some(&worker))
            .count();
        Ok(held as f64 / t.deps.len() as f64)
    }

    /// Remote inputs `worker` must fetch to run `token`.
    fn fetches_for(
        &self,
        token: &Token,
        worker: usize,
    ) -> Result<Vec<(usize, u64)>, ScheduleError> {
        if token.level == 0 {
            let owner = token
                .sample_owner
                .ok_or(ScheduleError::MissingSampleOwner { token: token.id })?;
            // The shard may have been re-homed if its owner crashed.
            let home = self.data_home[owner];
            if home != worker {
                let bytes = token.batch * self.meta[0].input_bytes_per_sample;
                return Ok(vec![(home, bytes)]);
            }
            return Ok(vec![]);
        }
        let per_sample = self.meta[token.level].input_bytes_per_sample;
        let mut fetches = Vec::new();
        for dep in &token.deps {
            let holder = *self
                .holder
                .get(dep)
                .ok_or(ScheduleError::MissingDependencyHolder {
                    token: token.id,
                    dep: *dep,
                })?;
            if holder != worker {
                let dep_batch = self
                    .tokens
                    .get(dep)
                    .ok_or(ScheduleError::UnknownToken { token: *dep })?
                    .batch;
                fetches.push((holder, dep_batch * per_sample));
            }
        }
        Ok(fetches)
    }

    /// Same contract as [`fela_core::Coordinator::report`].
    pub fn report(
        &mut self,
        worker: usize,
        token: TokenId,
    ) -> Result<Vec<SyncSpec>, ScheduleError> {
        self.check_worker(worker)?;
        let (level, iteration) = {
            let t = self
                .tokens
                .get(&token)
                .ok_or(ScheduleError::UnknownToken { token })?;
            (t.level, t.iteration)
        };
        if self.recovery_on() {
            // Exactly-once gradient application: only the current lease holder
            // may commit a token. A report whose lease expired or was revoked
            // (the worker hung past its deadline, or crashed and this report
            // raced the notification) is rejected before any state changes.
            match self.leases.get(&token) {
                Some(l) if l.worker == worker => {
                    self.leases.remove(&token);
                }
                _ => return Err(ScheduleError::StaleReport { worker, token }),
            }
        }
        if self.holder.contains_key(&token) {
            return Err(ScheduleError::DuplicateReport { token });
        }
        self.holder.insert(token, worker);
        self.trained_per_worker[worker] += 1;
        // Token generation: group completions in completion order, per iteration
        // (under SSP staleness two iterations of a level can be in flight, so the
        // buffers are keyed by iteration — the token's "age" attribute of §VI).
        if level + 1 < self.plan.num_levels() {
            let ratio = self.plan.levels[level + 1].gen_ratio as usize;
            let buffer = self.levels[level].gen_buffer.entry(iteration).or_default();
            buffer.push(token);
            let deps = if buffer.len() >= ratio {
                self.levels[level].gen_buffer.remove(&iteration)
            } else {
                None
            };
            if let Some(deps) = deps {
                self.generate_token(level + 1, iteration, deps, worker)?;
            }
        }
        // Completion accounting + sync trigger for this level.
        let mut syncs = Vec::new();
        let lp = self.plan.levels[level];
        let count = {
            let ls = &mut self.levels[level];
            let c = ls.completed.entry(iteration).or_insert(0);
            *c += 1;
            *c
        };
        if count == lp.tokens_per_iteration {
            self.levels[level].completed.remove(&iteration);
            // Barrier membership recomputes against the current liveness view:
            // an iteration closes with fewer workers rather than waiting on a
            // dead or quarantined one. With everyone eligible the filter is a
            // no-op and the participants are exactly the pre-recovery sets.
            let participants: Vec<usize> = if self.is_cond_level(level) {
                self.ctd_participants(level)?
            } else {
                let alive: Vec<usize> = (0..self.n_workers).filter(|&w| self.eligible(w)).collect();
                if alive.is_empty() {
                    return Err(ScheduleError::NoAliveWorkers);
                }
                alive
            };
            syncs.push(SyncSpec {
                level,
                iteration,
                participants,
                bytes: self.meta[level].param_bytes,
            });
        }
        Ok(syncs)
    }

    /// Same contract as [`fela_core::Coordinator::sync_finished`].
    pub fn sync_finished(&mut self, level: usize, iteration: u64) -> Result<(), ScheduleError> {
        if level >= self.levels.len() {
            return Err(ScheduleError::LevelOutOfRange {
                level,
                levels: self.levels.len(),
            });
        }
        {
            let ls = &mut self.levels[level];
            if iteration < ls.synced_upto || ls.synced_out_of_order.contains(&iteration) {
                return Err(ScheduleError::DuplicateSync { level, iteration });
            }
            ls.synced_out_of_order.insert(iteration);
            while ls.synced_out_of_order.remove(&ls.synced_upto) {
                ls.synced_upto += 1;
            }
        }
        // Release gated generated tokens for this level (pending tokens are not
        // necessarily in iteration order under staleness, so scan the deque).
        let bound = self.levels[level].release_bound(self.cfg.staleness);
        let mut still_pending = VecDeque::new();
        while let Some((id, bucket)) = self.levels[level].pending.pop_front() {
            let token_iter = self
                .tokens
                .get(&id)
                .ok_or(ScheduleError::UnknownToken { token: id })?
                .iteration;
            if token_iter <= bound {
                self.stb_push(bucket, level, id)?;
            } else {
                still_pending.push_back((id, bucket));
            }
        }
        self.levels[level].pending = still_pending;
        self.release_due_roots();
        Ok(())
    }

    fn generate_token(
        &mut self,
        level: usize,
        iteration: u64,
        deps: Vec<TokenId>,
        reporter: usize,
    ) -> Result<(), ScheduleError> {
        let lp = self.plan.levels[level];
        let seq = self.levels[level]
            .generated
            .get(&iteration)
            .copied()
            .unwrap_or(0);
        if seq >= lp.tokens_per_iteration {
            return Err(ScheduleError::OverGeneration { level, iteration });
        }
        *self.levels[level].generated.entry(iteration).or_insert(0) += 1;
        let id = TokenId(self.next_token_id);
        self.next_token_id += 1;
        let token = Token {
            id,
            level,
            iteration,
            seq,
            batch: lp.batch_per_token,
            deps,
            sample_owner: None,
        };
        self.tokens.insert(id, token);
        // Placement: the reporter's STB (it holds ≥ 1/ratio of the deps —
        // Principle 1's locality argument); conditional tokens go to a subset
        // member instead (the one with the fewest queued conditional tokens).
        let bucket = if !self.cfg.hf {
            0
        } else if self.is_cond_level(level) && !self.in_ctd_subset(reporter) {
            self.ctd_participants(level)?
                .into_iter()
                .min_by_key(|&w| (self.stbs[w][level].len(), w))
                .ok_or(ScheduleError::EmptyCtdSubset { level })?
        } else {
            reporter
        };
        // Gate on this level's sync/staleness bound.
        if iteration <= self.levels[level].release_bound(self.cfg.staleness) {
            self.stb_push(bucket, level, id)?;
        } else {
            self.levels[level].pending.push_back((id, bucket));
        }
        Ok(())
    }
}

impl OpTarget for TokenServer {
    fn request(&mut self, worker: usize, now: SimTime) -> Result<Option<Grant>, ScheduleError> {
        TokenServer::request(self, worker, now)
    }

    fn pop_ready_grant(&mut self, now: SimTime) -> Result<Option<(usize, Grant)>, ScheduleError> {
        TokenServer::pop_ready_grant(self, now)
    }

    fn report(&mut self, worker: usize, token: TokenId) -> Result<Vec<SyncSpec>, ScheduleError> {
        TokenServer::report(self, worker, token)
    }

    fn sync_finished(&mut self, level: usize, iteration: u64) -> Result<(), ScheduleError> {
        TokenServer::sync_finished(self, level, iteration)
    }

    fn worker_crashed(&mut self, worker: usize) -> Result<Vec<TokenId>, ScheduleError> {
        TokenServer::worker_crashed(self, worker)
    }

    fn worker_restarted(&mut self, worker: usize) -> Result<(), ScheduleError> {
        TokenServer::worker_restarted(self, worker)
    }

    fn lease_expired(
        &mut self,
        token: TokenId,
        attempt: u64,
    ) -> Result<Option<ExpiredLease>, ScheduleError> {
        TokenServer::lease_expired(self, token, attempt)
    }
}
