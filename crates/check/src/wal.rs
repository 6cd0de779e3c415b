//! Write-ahead-log verification: durable recovery is exactly-once.
//!
//! The [`crate::recovery`] module proves the lease protocol over *traces*;
//! this module proves the complementary durability property over the *log
//! itself*: a Token Server WAL, replayed from its `Begin` record through the
//! reference [`TokenServer`], reproduces exactly the outcomes it recorded —
//! every grant, report, sync, revocation and lease fire once each, in order,
//! with every checkpoint snapshot-equal to the oracle at that point. A log
//! that passes [`check_wal`] is a log the crashed server can recover from
//! with no token applied twice and no token lost.
//!
//! [`mutate_wal`] applies seeded corruptions ([`WalMutation`]) to a real log,
//! proving each diagnostic actually fires — a dropped record, a duplicated
//! record and a reordered record each produce a *distinct* [`WalViolation`].

use fela_core::wal::{encode_record, read_log};
use fela_core::{
    apply_op, ControlPlane, FelaConfig, LevelMeta, MemWal, OpKind, OpOutcome, ServerSnapshot,
    TokenId, TokenPlan, WalRecord,
};

use crate::TokenServer;
use fela_sim::SimTime;
use std::collections::BTreeSet;

/// A durability violation found while replaying a WAL.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum WalViolation {
    /// The log bytes do not parse (bad checksum, oversized record, unknown
    /// tag, missing or mismatched `Begin`, …).
    Corrupt {
        /// The decoder's diagnostic.
        detail: String,
    },
    /// The sequence chain jumped forward: at least one record is missing.
    DroppedRecord {
        /// The sequence number the chain expected next.
        expected: u64,
        /// The sequence number actually found.
        found: u64,
    },
    /// The same sequence number appeared twice in a row.
    DuplicatedRecord {
        /// The repeated sequence number.
        seq: u64,
    },
    /// A record arrived after a later one (out of append order).
    ReorderedRecord {
        /// The sequence number seen immediately before.
        prev: u64,
        /// The out-of-order sequence number.
        seq: u64,
    },
    /// Replaying a record's inputs on the oracle produced a different
    /// outcome than the log recorded.
    OutcomeDivergence {
        /// Sequence number of the diverging record.
        seq: u64,
    },
    /// An accepted report for a token that an earlier record had already
    /// applied — replaying this log would apply the gradient twice.
    DoubleApply {
        /// The doubly-applied token id.
        token: u64,
        /// Sequence number of the second application.
        seq: u64,
    },
    /// A checkpoint's stored state differs from the oracle's state at that
    /// point in the replay.
    CheckpointDiverged {
        /// The checkpoint's sequence number.
        seq: u64,
    },
    /// The fully replayed log does not end in the expected final state.
    SnapshotDiverged,
}

impl std::fmt::Display for WalViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalViolation::Corrupt { detail } => write!(f, "log does not parse: {detail}"),
            WalViolation::DroppedRecord { expected, found } => write!(
                f,
                "sequence chain expected record {expected} but found {found}: a record was dropped"
            ),
            WalViolation::DuplicatedRecord { seq } => {
                write!(f, "record {seq} appears twice in a row")
            }
            WalViolation::ReorderedRecord { prev, seq } => {
                write!(
                    f,
                    "record {seq} arrived after record {prev}: append order broken"
                )
            }
            WalViolation::OutcomeDivergence { seq } => write!(
                f,
                "record {seq}: oracle replay produced a different outcome than the log recorded"
            ),
            WalViolation::DoubleApply { token, seq } => write!(
                f,
                "record {seq}: token {token} applied a second time — exactly-once broken"
            ),
            WalViolation::CheckpointDiverged { seq } => write!(
                f,
                "checkpoint at record {seq} disagrees with the oracle's replayed state"
            ),
            WalViolation::SnapshotDiverged => {
                write!(f, "replayed final state differs from the expected snapshot")
            }
        }
    }
}

/// Statistics of a clean WAL replay.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WalSummary {
    /// Records in the log (including `Begin` and checkpoints).
    pub records: usize,
    /// Logged operations replayed.
    pub ops: usize,
    /// Checkpoints verified against the oracle.
    pub checkpoints: usize,
    /// Accepted reports (gradients applied exactly once each).
    pub applied: usize,
    /// Bytes of torn tail dropped by the reader (a crash mid-append).
    pub torn_bytes: usize,
}

/// Replays `bytes` through a reference [`TokenServer`] built from the same
/// inputs the writer had, verifying the sequence chain, every recorded
/// outcome, every checkpoint, and the exactly-once property. When `expected`
/// is given, the oracle's final state must equal it.
///
/// Returns the summary if the log is sound, or every violation found. The
/// replay continues past violations (resynchronizing the chain after a gap)
/// so one corruption yields its own diagnostic rather than a parse abort.
pub fn check_wal(
    bytes: &[u8],
    plan: &TokenPlan,
    cfg: &FelaConfig,
    meta: &[LevelMeta],
    n_workers: usize,
    max_iterations: u64,
    expected: Option<&ServerSnapshot>,
) -> Result<WalSummary, Vec<WalViolation>> {
    let log = match read_log(bytes) {
        Ok(log) => log,
        Err(e) => {
            return Err(vec![WalViolation::Corrupt {
                detail: e.to_string(),
            }])
        }
    };
    let mut summary = WalSummary {
        records: log.records.len(),
        torn_bytes: log.torn_bytes,
        ..WalSummary::default()
    };
    let mut violations = Vec::new();

    let mut records = log.records.iter();
    match records.next() {
        Some(WalRecord::Begin {
            shards,
            n_workers: w,
            max_iterations: m,
        }) => {
            let want = cfg.shards.max(1) as u32;
            if *shards != want || *w as usize != n_workers || *m != max_iterations {
                violations.push(WalViolation::Corrupt {
                    detail: format!(
                        "Begin({shards} shards, {w} workers, {m} iterations) describes a \
                         different plane than ({want}, {n_workers}, {max_iterations})"
                    ),
                });
            }
        }
        Some(_) | None => {
            return Err(vec![WalViolation::Corrupt {
                detail: "log does not open with a Begin record".to_string(),
            }])
        }
    }

    let mut oracle = TokenServer::new(
        plan.clone(),
        cfg.clone(),
        meta.to_vec(),
        n_workers,
        max_iterations,
    );
    let mut next_seq: u64 = 0;
    let mut last_seq: Option<u64> = None;
    let mut applied: BTreeSet<u64> = BTreeSet::new();

    for record in records {
        match record {
            WalRecord::Begin { .. } => violations.push(WalViolation::Corrupt {
                detail: "second Begin record mid-log".to_string(),
            }),
            WalRecord::Op { seq, op } => {
                summary.ops += 1;
                let mut skip_apply = false;
                if *seq > next_seq {
                    violations.push(WalViolation::DroppedRecord {
                        expected: next_seq,
                        found: *seq,
                    });
                    next_seq = seq + 1; // resync and keep checking the suffix
                } else if *seq < next_seq {
                    if Some(*seq) == last_seq {
                        violations.push(WalViolation::DuplicatedRecord { seq: *seq });
                        skip_apply = true; // a recovering server skips it too
                    } else {
                        violations.push(WalViolation::ReorderedRecord {
                            prev: last_seq.unwrap_or(0),
                            seq: *seq,
                        });
                    }
                } else {
                    next_seq += 1;
                }
                last_seq = Some(*seq);
                // Exactly-once: an accepted report's token must never be
                // accepted again, wherever the record sits in the chain.
                if let (OpKind::Report { token, .. }, OpOutcome::Synced { .. }) =
                    (&op.kind, &op.outcome)
                {
                    if !applied.insert(*token) {
                        violations.push(WalViolation::DoubleApply {
                            token: *token,
                            seq: *seq,
                        });
                    } else {
                        summary.applied += 1;
                    }
                }
                if !skip_apply && apply_op(&mut oracle, &op.kind) != op.outcome {
                    violations.push(WalViolation::OutcomeDivergence { seq: *seq });
                }
            }
            WalRecord::Checkpoint {
                seq,
                tokens,
                snapshot,
                ..
            } => {
                summary.checkpoints += 1;
                let oracle_tokens: Vec<_> = oracle.tokens().values().cloned().collect();
                if *seq != next_seq || **snapshot != oracle.snapshot() || *tokens != oracle_tokens {
                    violations.push(WalViolation::CheckpointDiverged { seq: *seq });
                }
            }
        }
    }

    if let Some(expected) = expected {
        if oracle.snapshot() != *expected {
            violations.push(WalViolation::SnapshotDiverged);
        }
    }

    if violations.is_empty() {
        Ok(summary)
    } else {
        Err(violations)
    }
}

fn reference_cfg(shards: usize) -> FelaConfig {
    FelaConfig::new(2)
        .with_weights(vec![1, 2])
        .with_shards(shards)
}

fn report_and_sync(
    plane: &mut ControlPlane,
    worker: usize,
    token: TokenId,
    checkpoint_every: u64,
    synced: &mut u64,
) {
    let syncs = match plane.report(worker, token) {
        Ok(syncs) => syncs,
        Err(e) => panic!("reference report must be accepted: {e:?}"),
    };
    for s in syncs {
        if let Err(e) = plane.sync_finished(s.level, s.iteration) {
            panic!("reference sync must succeed: {e:?}");
        }
        *synced += 1;
        if checkpoint_every > 0 && (*synced).is_multiple_of(checkpoint_every) {
            if let Err(e) = plane.checkpoint_wal(&[]) {
                panic!("an in-memory checkpoint cannot fail: {e}");
            }
        }
    }
}

/// Drives a WAL-attached two-worker × two-iteration plane to completion and
/// returns the log bytes plus the final snapshot. The reference fixture
/// behind `fela check --wal`, [`run_wal_mutation_matrix`] and this module's
/// tests: small enough to replay instantly, large enough to exercise grants,
/// deferred grants, syncs and (optionally) checkpoints at one shard or two.
pub fn reference_logged_run(shards: usize, checkpoint_every: u64) -> (Vec<u8>, ServerSnapshot) {
    let mem = MemWal::new();
    let mut plane = ControlPlane::new(
        crate::small_plan(),
        reference_cfg(shards),
        crate::small_meta(),
        2,
        2,
    );
    if let Err(e) = plane.attach_wal(Box::new(mem.clone())) {
        panic!("an in-memory WAL cannot fail to attach: {e}");
    }
    let now = SimTime::ZERO;
    let mut synced = 0u64;
    while !plane.run_complete() {
        let mut progressed = false;
        for w in 0..2 {
            if let Ok(Some(grant)) = plane.request(w, now) {
                report_and_sync(&mut plane, w, grant.token.id, checkpoint_every, &mut synced);
                progressed = true;
            }
        }
        while let Ok(Some((w, grant))) = plane.pop_ready_grant(now) {
            report_and_sync(&mut plane, w, grant.token.id, checkpoint_every, &mut synced);
            progressed = true;
        }
        if !progressed {
            panic!("reference run stalled before completion");
        }
    }
    // The ops since the last checkpoint are staged: one group commit makes
    // them durable before the log is read.
    if let Err(e) = plane.commit_wal() {
        panic!("an in-memory commit cannot fail: {e}");
    }
    (mem.bytes(), plane.snapshot())
}

/// Runs [`reference_logged_run`] and replays its own log through
/// [`check_wal`], with the run's final snapshot as the expected state.
pub fn reference_wal_check(
    shards: usize,
    checkpoint_every: u64,
) -> Result<WalSummary, Vec<WalViolation>> {
    let (bytes, last) = reference_logged_run(shards, checkpoint_every);
    check_wal(
        &bytes,
        &crate::small_plan(),
        &reference_cfg(shards),
        &crate::small_meta(),
        2,
        2,
        Some(&last),
    )
}

/// One row of [`run_wal_mutation_matrix`]: a seeded log corruption, whether
/// the replay caught it, and the diagnostic that fired.
#[derive(Clone, Debug)]
pub struct WalMutationRun {
    /// Human-readable mutation name.
    pub name: &'static str,
    /// The violation kind this mutation must produce — distinct per row.
    pub kind: &'static str,
    /// Whether [`check_wal`] rejected the mutated log with that kind.
    pub caught: bool,
    /// The matching diagnostic (or the first violation found instead).
    pub diagnostic: String,
}

/// Applies every [`WalMutation`] to the reference log and replays each
/// mutated log through [`check_wal`], recording whether the expected —
/// and *distinct* — [`WalViolation`] fired. `fela check --wal` renders
/// these rows and fails if any mutation is missed or two rows share a kind.
pub fn run_wal_mutation_matrix() -> Vec<WalMutationRun> {
    /// One matrix row: `(name, kind, mutation, expected-violation matcher)`.
    type MutationCase = (
        &'static str,
        &'static str,
        WalMutation,
        fn(&WalViolation) -> bool,
    );
    let (bytes, _) = reference_logged_run(1, 0);
    let cases: [MutationCase; 4] = [
        (
            "dropped record",
            "dropped-record",
            WalMutation::DropRecord { seed: 3 },
            |v| matches!(v, WalViolation::DroppedRecord { .. }),
        ),
        (
            "duplicated record",
            "duplicated-record",
            WalMutation::DuplicateRecord { seed: 3 },
            |v| matches!(v, WalViolation::DuplicatedRecord { .. }),
        ),
        (
            "reordered record",
            "reordered-record",
            WalMutation::SwapWithNext { seed: 3 },
            |v| matches!(v, WalViolation::ReorderedRecord { .. }),
        ),
        (
            "flipped byte",
            "corrupt",
            WalMutation::CorruptByte { seed: 17 },
            |v| matches!(v, WalViolation::Corrupt { .. }),
        ),
    ];
    let mut rows = Vec::new();
    for (name, kind, mutation, expect) in cases {
        let mutated = mutate_wal(&bytes, mutation);
        let row = match check_wal(
            &mutated,
            &crate::small_plan(),
            &reference_cfg(1),
            &crate::small_meta(),
            2,
            2,
            None,
        ) {
            Ok(_) => WalMutationRun {
                name,
                kind,
                caught: false,
                diagnostic: "mutated log replayed cleanly".to_string(),
            },
            Err(violations) => {
                let hit = violations.iter().find(|v| expect(v));
                WalMutationRun {
                    name,
                    kind,
                    caught: hit.is_some(),
                    diagnostic: hit
                        .or(violations.first())
                        .map(|v| v.to_string())
                        .unwrap_or_default(),
                }
            }
        };
        rows.push(row);
    }
    rows
}

/// A seeded log corruption for mutation-testing [`check_wal`]. Each variant
/// models a distinct durability failure and must yield a distinct diagnostic.
#[derive(Clone, Copy, Debug)]
pub enum WalMutation {
    /// Delete one op record (→ [`WalViolation::DroppedRecord`]).
    DropRecord {
        /// Picks which op, deterministically.
        seed: u64,
    },
    /// Append a second copy of one op record right after the original
    /// (→ [`WalViolation::DuplicatedRecord`], plus
    /// [`WalViolation::DoubleApply`] when the op is an accepted report).
    DuplicateRecord {
        /// Picks which op, deterministically.
        seed: u64,
    },
    /// Swap one op record with its successor
    /// (→ [`WalViolation::ReorderedRecord`]).
    SwapWithNext {
        /// Picks which op, deterministically.
        seed: u64,
    },
    /// Flip one byte inside a record body (→ [`WalViolation::Corrupt`] —
    /// the checksum rejects the log before replay starts).
    CorruptByte {
        /// Picks which byte, deterministically.
        seed: u64,
    },
}

/// Rebuilds the log with `mutation` applied, re-encoding every record. A
/// mutation whose precondition the log lacks (e.g. no second op to swap
/// with) returns the bytes unchanged. Panics if `bytes` is not a parseable
/// log — mutations corrupt *sound* logs.
pub fn mutate_wal(bytes: &[u8], mutation: WalMutation) -> Vec<u8> {
    if let WalMutation::CorruptByte { seed } = mutation {
        // Flip a byte inside a record *body* — never in framing. Damaging a
        // length prefix reads as a torn tail, which is a legitimate crash
        // artifact, not a violation; body damage trips the checksum.
        let mut out = bytes.to_vec();
        let mut bodies: Vec<usize> = Vec::new();
        let mut off = 0usize;
        while off + 8 <= out.len() {
            let len =
                u32::from_le_bytes([out[off], out[off + 1], out[off + 2], out[off + 3]]) as usize;
            if off + 8 + len > out.len() {
                break;
            }
            bodies.extend(off + 8..off + 8 + len);
            off += 8 + len;
        }
        if !bodies.is_empty() {
            out[bodies[(seed as usize) % bodies.len()]] ^= 0x40;
        }
        return out;
    }
    let log = match read_log(bytes) {
        Ok(log) => log,
        Err(e) => panic!("mutate_wal needs a sound log: {e}"),
    };
    let ops: Vec<usize> = (0..log.records.len())
        .filter(|&i| matches!(log.records[i], WalRecord::Op { .. }))
        .collect();
    let mut records = log.records;
    match mutation {
        WalMutation::DropRecord { seed } => {
            if !ops.is_empty() {
                records.remove(ops[(seed as usize) % ops.len()]);
            }
        }
        WalMutation::DuplicateRecord { seed } => {
            if !ops.is_empty() {
                let at = ops[(seed as usize) % ops.len()];
                let copy = records[at].clone();
                records.insert(at + 1, copy);
            }
        }
        WalMutation::SwapWithNext { seed } => {
            // Only adjacent op pairs swap cleanly (swapping across a
            // checkpoint would also move the checkpoint boundary).
            let pairs: Vec<usize> = ops
                .iter()
                .copied()
                .filter(|&i| {
                    i + 1 < records.len() && matches!(records[i + 1], WalRecord::Op { .. })
                })
                .collect();
            if !pairs.is_empty() {
                let at = pairs[(seed as usize) % pairs.len()];
                records.swap(at, at + 1);
            }
        }
        WalMutation::CorruptByte { .. } => unreachable!("handled above"),
    }
    let mut out = Vec::new();
    for record in &records {
        out.extend_from_slice(&encode_record(record));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn logged_run(shards: usize, checkpoint_every: u64) -> (Vec<u8>, ServerSnapshot) {
        reference_logged_run(shards, checkpoint_every)
    }

    fn check(
        bytes: &[u8],
        shards: usize,
        last: Option<&ServerSnapshot>,
    ) -> Result<WalSummary, Vec<WalViolation>> {
        check_wal(
            bytes,
            &crate::small_plan(),
            &reference_cfg(shards),
            &crate::small_meta(),
            2,
            2,
            last,
        )
    }

    #[test]
    fn a_sound_log_replays_cleanly_on_both_plane_shapes() {
        for shards in [1usize, 2] {
            let (bytes, last) = logged_run(shards, 0);
            let s = check(&bytes, shards, Some(&last)).expect("sound log");
            assert!(s.ops > 0);
            assert_eq!(
                s.applied,
                2 * 3,
                "three tokens per iteration, two iterations"
            );
            assert_eq!(s.torn_bytes, 0);
        }
    }

    #[test]
    fn checkpoints_verify_against_the_oracle() {
        let (bytes, last) = logged_run(1, 1);
        let s = check(&bytes, 1, Some(&last)).expect("sound log");
        assert!(s.checkpoints >= 1);
    }

    #[test]
    fn a_dropped_record_is_diagnosed_as_a_drop() {
        for seed in [0u64, 3, 9] {
            let (bytes, _) = logged_run(1, 0);
            let mutated = mutate_wal(&bytes, WalMutation::DropRecord { seed });
            let violations = check(&mutated, 1, None).expect_err("drop must be caught");
            assert!(
                violations
                    .iter()
                    .any(|v| matches!(v, WalViolation::DroppedRecord { .. })),
                "seed {seed}: {violations:?}"
            );
            assert!(
                !violations
                    .iter()
                    .any(|v| matches!(v, WalViolation::DuplicatedRecord { .. })),
                "seed {seed}: a drop must not read as a duplicate"
            );
        }
    }

    #[test]
    fn a_duplicated_record_is_diagnosed_as_a_duplicate() {
        for seed in [0u64, 3, 9] {
            let (bytes, _) = logged_run(1, 0);
            let mutated = mutate_wal(&bytes, WalMutation::DuplicateRecord { seed });
            let violations = check(&mutated, 1, None).expect_err("duplicate must be caught");
            assert!(
                violations
                    .iter()
                    .any(|v| matches!(v, WalViolation::DuplicatedRecord { .. })),
                "seed {seed}: {violations:?}"
            );
            assert!(
                !violations
                    .iter()
                    .any(|v| matches!(v, WalViolation::DroppedRecord { .. })),
                "seed {seed}: a duplicate must not read as a drop"
            );
        }
    }

    #[test]
    fn a_duplicated_report_is_also_a_double_apply() {
        let (bytes, _) = logged_run(1, 0);
        let log = read_log(&bytes).expect("sound log");
        // Find an op index (among ops) holding an accepted report.
        let mut report_seed = None;
        let mut op_index = 0u64;
        for record in &log.records {
            if let WalRecord::Op { op, .. } = record {
                if matches!(
                    (&op.kind, &op.outcome),
                    (OpKind::Report { .. }, OpOutcome::Synced { .. })
                ) {
                    report_seed = Some(op_index);
                    break;
                }
                op_index += 1;
            }
        }
        let seed = report_seed.expect("a completed run has accepted reports");
        let mutated = mutate_wal(&bytes, WalMutation::DuplicateRecord { seed });
        let violations = check(&mutated, 1, None).expect_err("duplicate must be caught");
        assert!(
            violations
                .iter()
                .any(|v| matches!(v, WalViolation::DoubleApply { .. })),
            "{violations:?}"
        );
    }

    #[test]
    fn a_reordered_record_is_diagnosed_as_a_reorder() {
        for seed in [0u64, 3, 9] {
            let (bytes, _) = logged_run(1, 0);
            let mutated = mutate_wal(&bytes, WalMutation::SwapWithNext { seed });
            let violations = check(&mutated, 1, None).expect_err("reorder must be caught");
            assert!(
                violations
                    .iter()
                    .any(|v| matches!(v, WalViolation::ReorderedRecord { .. })),
                "seed {seed}: {violations:?}"
            );
        }
    }

    #[test]
    fn a_flipped_byte_is_diagnosed_as_corruption() {
        let (bytes, _) = logged_run(1, 0);
        let mutated = mutate_wal(&bytes, WalMutation::CorruptByte { seed: 17 });
        let violations = check(&mutated, 1, None).expect_err("corruption must be caught");
        assert!(
            violations
                .iter()
                .any(|v| matches!(v, WalViolation::Corrupt { .. })),
            "{violations:?}"
        );
    }

    #[test]
    fn a_wrong_final_snapshot_is_diagnosed() {
        let (bytes, _) = logged_run(1, 0);
        let fresh = ControlPlane::new(
            crate::small_plan(),
            reference_cfg(1),
            crate::small_meta(),
            2,
            2,
        )
        .snapshot();
        let violations = check(&bytes, 1, Some(&fresh)).expect_err("final state must differ");
        assert!(
            violations
                .iter()
                .any(|v| matches!(v, WalViolation::SnapshotDiverged)),
            "{violations:?}"
        );
    }

    #[test]
    fn the_mutation_matrix_is_caught_with_distinct_kinds() {
        let rows = run_wal_mutation_matrix();
        assert_eq!(rows.len(), 4);
        let mut kinds = BTreeSet::new();
        for row in &rows {
            assert!(
                row.caught,
                "mutation '{}' was missed: {}",
                row.name, row.diagnostic
            );
            assert!(kinds.insert(row.kind), "kind '{}' repeats", row.kind);
        }
    }

    #[test]
    fn the_reference_check_is_clean_on_both_plane_shapes() {
        for shards in [1usize, 2] {
            let s = reference_wal_check(shards, 1).expect("sound log");
            assert!(s.checkpoints >= 1);
        }
    }

    #[test]
    fn a_log_for_a_different_plane_shape_is_rejected() {
        let (bytes, _) = logged_run(2, 0);
        let violations = check(&bytes, 1, None).expect_err("shape mismatch must be caught");
        assert!(
            violations
                .iter()
                .any(|v| matches!(v, WalViolation::Corrupt { .. })),
            "{violations:?}"
        );
    }
}
