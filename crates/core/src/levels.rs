//! Per-level token state: the [`LevelTable`] holds each level's
//! sync/generation bookkeeping ([`LevelState`]) plus its segment of every
//! bucket's STB queue and distribution indices.
//!
//! The table is deliberately dumb: a pick is one `first()` on an ordered
//! index, a push or a remove is O(log) in the level's queued tokens plus a
//! scan of the bucket's queue for the removed id, and the per-token columns
//! it keeps are indexed by token id. It never sees the cluster-wide picture
//! (liveness, leases, helper counts, the token table). Every decision that
//! spans levels or buckets — which bucket to steal from, where a revoked
//! token re-homes, when a sync barrier closes — lives in the
//! [`Coordinator`](crate::Coordinator).

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::error::ScheduleError;
use crate::token::{row_of, Token, TokenId};

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
    score_keys: ScoreKeys,
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
            score_keys: ScoreKeys {
                by_id: Vec::new(),
                spare: Vec::new(),
                held: vec![0; n_workers],
            },
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
        holder: &[Option<usize>],
    ) {
        let slot = &mut self.levels[level];
        slot.stbs[bucket].push_back(token.id);
        slot.grantable[bucket].insert(token.id);
        if self.use_score_index {
            self.score_keys
                .index(&mut slot.by_score[bucket], token, holder);
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
        self.score_keys.unindex(&mut slot.by_score[bucket], id);
        Ok(())
    }

    /// Recomputes the Principle-2 score index for every STB-resident token
    /// (crash re-homing moved holder entries, invalidating scores fixed at
    /// insertion time). Crash-path only.
    pub(crate) fn rebuild_scores(
        &mut self,
        tokens: &[Token],
        holder: &[Option<usize>],
    ) -> Result<(), ScheduleError> {
        if !self.use_score_index {
            return Ok(());
        }
        for slot in &mut self.levels {
            for (queue, by_score) in slot.stbs.iter().zip(&mut slot.by_score) {
                for &id in queue {
                    self.score_keys.unindex(by_score, id);
                    let t = row_of(tokens, id).ok_or(ScheduleError::UnknownToken { token: id })?;
                    self.score_keys.index(by_score, t, holder);
                }
            }
        }
        Ok(())
    }
}

/// The score index's per-token bookkeeping: which `by_score` entries each
/// STB-resident token owns, so a remove drops them without recomputing
/// scores. Indexing allocates nothing in steady state: entry lists are
/// recycled and the per-worker tally is one reused scratch row.
#[derive(Clone)]
struct ScoreKeys {
    /// Per-id column: the sparse `(worker, score key)` entries of token `i`
    /// while it sits in an STB, empty otherwise.
    by_id: Vec<Vec<(usize, u64)>>,
    /// Emptied entry lists, kept for the next push.
    spare: Vec<Vec<(usize, u64)>>,
    /// Scratch: dependencies held per worker, all zero between calls.
    held: Vec<usize>,
}

impl ScoreKeys {
    /// Adds `token`'s positive locality scores to one bucket's per-worker
    /// `by_score` sets and records the entries. Two walks over the token's
    /// dependency holders: the first tallies each worker's held count, the
    /// second turns every worker's tally into its entry (Equation 1's
    /// `held / len`) the first time it meets that worker and zeroes it, so
    /// only workers with a positive count get an entry.
    fn index(&mut self, by_score: &mut [ScoreSet], token: &Token, holder: &[Option<usize>]) {
        let holders = || {
            token
                .deps
                .iter()
                .filter_map(|&d| row_of(holder, d).copied().flatten())
        };
        for w in holders() {
            self.held[w] += 1;
        }
        let len = token.deps.len();
        let mut keys = self.spare.pop().unwrap_or_default();
        for w in holders() {
            let c = std::mem::take(&mut self.held[w]);
            if c > 0 {
                let k = score_key(c as f64 / len as f64);
                by_score[w].insert((k, token.id));
                keys.push((w, k));
            }
        }
        match token.id.row() {
            Some(row) if !keys.is_empty() => {
                if self.by_id.len() <= row {
                    self.by_id.resize_with(row + 1, Vec::new);
                }
                self.by_id[row] = keys;
            }
            _ => self.recycle(keys),
        }
    }

    /// Drops the `by_score` entries [`Self::index`] recorded for `id`.
    fn unindex(&mut self, by_score: &mut [ScoreSet], id: TokenId) {
        let Some(keys) = id.row().and_then(|row| self.by_id.get_mut(row)) else {
            return;
        };
        let mut keys = std::mem::take(keys);
        for (w, k) in keys.drain(..) {
            by_score[w].remove(&(k, id));
        }
        self.recycle(keys);
    }

    /// Keeps an emptied entry list for reuse (one that never allocated is
    /// not worth keeping).
    fn recycle(&mut self, keys: Vec<(usize, u64)>) {
        if keys.capacity() > 0 {
            self.spare.push(keys);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_pick_remove_round_trip() {
        let mut table = LevelTable::new(3, 4, 4, true);
        let mut holder = vec![None; 43];
        holder[10] = Some(2);
        holder[11] = Some(0);
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
