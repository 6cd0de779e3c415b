//! Tokens — the unit of schedulable work (§III-B).
//!
//! One token represents "train sub-model `level` on `batch` samples within
//! iteration `iteration`". Level-0 tokens consume raw training samples (sharded
//! round-robin across workers' local storage); higher-level tokens depend on the
//! outputs of the specific lower-level tokens they were generated from.

use serde::Serialize;

/// Globally unique token identifier (monotone in generation order, which the
/// paper's tie-breaking "smallest token ID" rule relies on).
///
/// Ids are dense indices: the Token Server mints them from 0 with no gaps
/// and never drops a token, so id `i` is row `i` of every per-token table.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize)]
pub struct TokenId(pub u64);

impl TokenId {
    /// The id's row in an id-indexed table, or `None` for an id no table on
    /// this target can reach.
    pub(crate) fn row(self) -> Option<usize> {
        usize::try_from(self.0).ok()
    }
}

/// The row of an id-indexed table (row `i` belongs to token `i`) for `id`,
/// if the table reaches it.
pub(crate) fn row_of<T>(table: &[T], id: TokenId) -> Option<&T> {
    table.get(id.row()?)
}

/// One unit of schedulable work.
#[derive(Clone, PartialEq, Eq, Debug, Serialize)]
pub struct Token {
    /// Unique id.
    pub id: TokenId,
    /// Sub-model index this token trains (0-based; the paper's "T-(level+1)").
    pub level: usize,
    /// BSP iteration the token belongs to.
    pub iteration: u64,
    /// Sequence number within (level, iteration), 0-based.
    pub seq: u64,
    /// Number of samples this token covers.
    pub batch: u64,
    /// The completed lower-level tokens whose outputs this token consumes
    /// (empty for level 0).
    pub deps: Vec<TokenId>,
    /// For level-0 tokens: the worker whose local storage holds the samples.
    pub sample_owner: Option<usize>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_ids_order() {
        assert!(TokenId(3) < TokenId(10));
    }
}
