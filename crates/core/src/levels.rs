//! Per-level token state: the [`LevelTable`] holds each level's
//! sync/generation bookkeeping ([`LevelState`]) plus its segment of every
//! bucket's STB queue and distribution indices.
//!
//! The table is deliberately dumb: it answers O(log) pick/push/remove queries
//! per level and never sees the cluster-wide picture (liveness, leases,
//! helper counts, the token table). Every decision that spans levels or
//! buckets — which bucket to steal from, where a revoked token re-homes, when
//! a sync barrier closes — lives in the [`Coordinator`](crate::Coordinator).

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::error::ScheduleError;
use crate::token::{Token, TokenId};

/// One `(encoded score, token id)` index: ascending set order is descending
/// locality score, ties to the smallest id (Principle 2).
pub(crate) type ScoreSet = BTreeSet<(u64, TokenId)>;

/// Per-level sync, completion and generation bookkeeping.
#[derive(Clone)]
pub(crate) struct LevelState {
    /// Contiguous iterations synced from 0 (`synced_upto = k` ⇒ iterations
    /// `0..k` are fully synced at this level).
    pub(crate) synced_upto: u64,
    /// Syncs finished out of contiguous order (possible under SSP staleness,
    /// where two iterations of one level may be in flight at once).
    pub(crate) synced_out_of_order: BTreeSet<u64>,
    /// Completions counted per in-flight iteration.
    pub(crate) completed: BTreeMap<u64, u64>,
    /// Generation groups accumulating per iteration (completion order within an
    /// iteration, as in Figure 3).
    pub(crate) gen_buffer: BTreeMap<u64, Vec<TokenId>>,
    /// Generated tokens gated on this level's sync/staleness bound: `(token id,
    /// preferred bucket)`.
    pub(crate) pending: VecDeque<(TokenId, usize)>,
    /// Tokens generated so far per iteration at this level (levels ≥ 1 only).
    /// Replaces the O(all tokens) scan the generator used for `seq` assignment:
    /// level ≥ 1 tokens are created nowhere else, so the counter equals the scan.
    pub(crate) generated: BTreeMap<u64, u64>,
}

impl LevelState {
    pub(crate) fn new() -> Self {
        LevelState {
            synced_upto: 0,
            synced_out_of_order: BTreeSet::new(),
            completed: BTreeMap::new(),
            gen_buffer: BTreeMap::new(),
            pending: VecDeque::new(),
            generated: BTreeMap::new(),
        }
    }

    /// Highest iteration whose tokens may currently run at this level.
    pub(crate) fn release_bound(&self, staleness: u64) -> u64 {
        self.synced_upto + staleness
    }
}

/// Encodes a locality score so ascending `u64` order equals descending score
/// order. Sound because scores are finite and non-negative (Equation 1 yields
/// values in `[0, 1]`), where IEEE-754 bit patterns are monotone in value.
pub(crate) fn score_key(score: f64) -> u64 {
    !score.to_bits()
}

/// The distributable-token state of one level: its segment of every bucket's
/// STB queue plus the id-order and Principle-2 pick indices.
#[derive(Clone)]
struct LevelSlot {
    state: LevelState,
    /// `stbs[bucket]` — this level's queue segment of each bucket's STB.
    stbs: Vec<VecDeque<TokenId>>,
    /// Id-ordered mirror of each queue (smallest-id picks in O(log)).
    grantable: Vec<BTreeSet<TokenId>>,
    /// Principle-2 index: `by_score[bucket][worker]` → this level's tokens
    /// with strictly positive locality score towards `worker`, keyed
    /// `(descending score, ascending id)`. Zero-score tokens are deliberately
    /// absent: any positive score beats all zeros, and among zero-score
    /// tokens the pick is the smallest id — exactly `grantable`'s `first()` —
    /// so the index only needs the sparse positive entries (a token scores
    /// positively for at most `deps.len()` workers). Valid because a token's
    /// score towards every worker is fixed the moment it enters an STB: its
    /// deps are already-reported tokens whose `holder` entries never change
    /// (crash re-homing rebuilds the index).
    by_score: Vec<Vec<ScoreSet>>,
}

/// The token state of every level, indexed by level.
///
/// Pushes take the token and the Info Mapping by reference so the table can
/// maintain its score index without owning either.
#[derive(Clone)]
pub(crate) struct LevelTable {
    use_score_index: bool,
    levels: Vec<LevelSlot>,
    /// Sparse `(worker, score key)` index entries of every STB-resident token,
    /// kept so `remove` can drop them without recomputing scores.
    score_keys: BTreeMap<TokenId, Vec<(usize, u64)>>,
}

impl LevelTable {
    /// Creates an empty table of `n_levels` levels across `buckets` STBs.
    pub(crate) fn new(
        n_levels: usize,
        buckets: usize,
        n_workers: usize,
        use_score_index: bool,
    ) -> Self {
        LevelTable {
            use_score_index,
            levels: (0..n_levels)
                .map(|_| LevelSlot {
                    state: LevelState::new(),
                    stbs: vec![VecDeque::new(); buckets],
                    grantable: vec![BTreeSet::new(); buckets],
                    by_score: vec![vec![BTreeSet::new(); n_workers]; buckets],
                })
                .collect(),
            score_keys: BTreeMap::new(),
        }
    }

    pub(crate) fn state(&self, level: usize) -> &LevelState {
        &self.levels[level].state
    }

    pub(crate) fn state_mut(&mut self, level: usize) -> &mut LevelState {
        &mut self.levels[level].state
    }

    /// Queue length of `bucket`'s STB segment at `level`.
    pub(crate) fn queue_len(&self, bucket: usize, level: usize) -> usize {
        self.levels[level].stbs[bucket].len()
    }

    /// Token ids queued in `bucket` at `level`, in queue order.
    pub(crate) fn queue_ids(&self, bucket: usize, level: usize) -> Vec<TokenId> {
        self.levels[level].stbs[bucket].iter().copied().collect()
    }

    /// Snapshot export: the queue as raw ids.
    pub(crate) fn queue_row(&self, bucket: usize, level: usize) -> Vec<u64> {
        self.levels[level].stbs[bucket]
            .iter()
            .map(|id| id.0)
            .collect()
    }

    /// The level's pick for `worker` in `bucket`: highest locality score, ties
    /// to the smallest id (Principle 2) when the score index is on; smallest
    /// id otherwise (the ablation and global-bucket paths).
    pub(crate) fn pick(&self, bucket: usize, level: usize, worker: usize) -> Option<TokenId> {
        let slot = &self.levels[level];
        if self.use_score_index {
            slot.by_score[bucket][worker]
                .first()
                .map(|&(_, id)| id)
                .or_else(|| slot.grantable[bucket].first().copied())
        } else {
            slot.grantable[bucket].first().copied()
        }
    }

    /// Inserts a token into `bucket`'s queue at `level` and all distribution
    /// indices.
    pub(crate) fn push(
        &mut self,
        bucket: usize,
        level: usize,
        token: &Token,
        holder: &BTreeMap<TokenId, usize>,
    ) {
        let slot = &mut self.levels[level];
        slot.stbs[bucket].push_back(token.id);
        slot.grantable[bucket].insert(token.id);
        if self.use_score_index {
            index_scores(
                &mut slot.by_score[bucket],
                &mut self.score_keys,
                token,
                holder,
            );
        }
    }

    /// [`Self::push`] for root tokens, whose dependency set is empty and whose
    /// score is therefore 0 towards everyone (no index entries).
    pub(crate) fn push_root(&mut self, bucket: usize, level: usize, id: TokenId) {
        let slot = &mut self.levels[level];
        slot.stbs[bucket].push_back(id);
        slot.grantable[bucket].insert(id);
    }

    /// Removes a granted token from its queue and all distribution indices.
    pub(crate) fn remove(
        &mut self,
        bucket: usize,
        level: usize,
        id: TokenId,
    ) -> Result<(), ScheduleError> {
        let keys = self.score_keys.remove(&id);
        let slot = &mut self.levels[level];
        let q = &mut slot.stbs[bucket];
        let Some(pos) = q.iter().position(|&x| x == id) else {
            // The index pointed at a token the queue does not hold.
            return Err(ScheduleError::CorruptBucket {
                bucket,
                level,
                position: 0,
            });
        };
        q.remove(pos);
        slot.grantable[bucket].remove(&id);
        if let Some(keys) = keys {
            for (w, k) in keys {
                slot.by_score[bucket][w].remove(&(k, id));
            }
        }
        Ok(())
    }

    /// Recomputes the Principle-2 score index for every STB-resident token
    /// (crash re-homing moved holder entries, invalidating scores fixed at
    /// insertion time). Crash-path only.
    pub(crate) fn rebuild_scores(
        &mut self,
        tokens: &BTreeMap<TokenId, Token>,
        holder: &BTreeMap<TokenId, usize>,
    ) -> Result<(), ScheduleError> {
        if !self.use_score_index {
            return Ok(());
        }
        for slot in &mut self.levels {
            for (queue, by_score) in slot.stbs.iter().zip(&mut slot.by_score) {
                for &id in queue {
                    if let Some(keys) = self.score_keys.remove(&id) {
                        for (w, k) in keys {
                            by_score[w].remove(&(k, id));
                        }
                    }
                    let t = tokens
                        .get(&id)
                        .ok_or(ScheduleError::UnknownToken { token: id })?;
                    index_scores(by_score, &mut self.score_keys, t, holder);
                }
            }
        }
        Ok(())
    }
}

/// Adds `token`'s positive locality scores to one bucket's per-worker
/// `by_score` sets and records the entries in `score_keys`. A single walk
/// over the token's dependency holders yields every worker's held count;
/// only workers with a positive count get an entry (Equation 1's
/// `held / len`).
fn index_scores(
    by_score: &mut [ScoreSet],
    score_keys: &mut BTreeMap<TokenId, Vec<(usize, u64)>>,
    token: &Token,
    holder: &BTreeMap<TokenId, usize>,
) {
    let mut counts = vec![0usize; by_score.len()];
    for d in &token.deps {
        if let Some(&w) = holder.get(d) {
            counts[w] += 1;
        }
    }
    let len = token.deps.len();
    let mut keys: Vec<(usize, u64)> = Vec::new();
    for (w, &c) in counts.iter().enumerate() {
        if c > 0 {
            let k = score_key(c as f64 / len as f64);
            by_score[w].insert((k, token.id));
            keys.push((w, k));
        }
    }
    if !keys.is_empty() {
        score_keys.insert(token.id, keys);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_pick_remove_round_trip() {
        let mut table = LevelTable::new(3, 4, 4, true);
        let holder: BTreeMap<TokenId, usize> =
            [(TokenId(10), 2), (TokenId(11), 0)].into_iter().collect();
        let t = Token {
            id: TokenId(42),
            level: 2,
            iteration: 0,
            seq: 0,
            batch: 8,
            deps: vec![TokenId(10), TokenId(11)],
            sample_owner: None,
        };
        table.push(3, 2, &t, &holder);
        assert_eq!(table.queue_len(3, 2), 1);
        // Worker 2 holds half the deps → positive score; worker 1 holds none.
        assert_eq!(table.pick(3, 2, 2), Some(TokenId(42)));
        assert_eq!(
            table.pick(3, 2, 1),
            Some(TokenId(42)),
            "zero-score fallback"
        );
        table.remove(3, 2, TokenId(42)).expect("queued");
        assert_eq!(table.queue_len(3, 2), 0);
        assert_eq!(table.pick(3, 2, 2), None);
        assert!(table.remove(3, 2, TokenId(42)).is_err(), "double remove");
    }
}
