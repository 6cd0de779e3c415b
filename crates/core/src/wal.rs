//! Durable control plane: write-ahead log + checkpointed recovery (§V).
//!
//! Worker death became survivable with leases; this module makes the **Token
//! Server itself** survivable. Every mutating control-plane call — grants,
//! reports, sync watermarks, lease fires, fault/restart events — stages one
//! [`CoordOp`] record in a write-ahead log, made durable *before* its result
//! becomes externally visible, and periodic [checkpoints](WalRecord::Checkpoint)
//! serialize the [`ServerSnapshot`] (the byte-exact conformance currency)
//! together with the token table and an opaque runtime payload. A crashed
//! server [recovers](recover) by restoring the latest checkpoint and replaying
//! the log suffix through [`apply_op`], verifying the recorded outcome digest
//! at every step — so a restarted plane is provably snapshot-equal to the one
//! that died, and resumes mid-iteration with exactly-once token application.
//! Both runtimes restart through the one path that wraps this,
//! [`ControlPlane::crash_restart`].
//!
//! ## Log format
//!
//! The primitives, lists and length prefix are [`crate::codec`]'s, shared
//! with the wire protocol. One record is
//!
//! ```text
//! [body_len: u32 LE] [crc32: u32 LE] [tag: u8] [fields, LE, declaration order]
//! ```
//!
//! with the CRC taken over the body (tag + fields). The opening `Begin`
//! record's fields are `n_workers: u32` and `max_iterations: u64`. A log
//! whose `Begin` also carries the shard count older builds wrote before
//! `n_workers` does not parse: its four extra bytes are a
//! [`DecodeError::Trailing`] error. No run reads such a log, because
//! [`FileWal::create`] truncates the file it opens. Decoding **never
//! panics** on arbitrary bytes: element counts are range-guarded before any
//! allocation, unknown tags and short bodies are structured [`WalError`]s,
//! and a *torn tail* — a final record cut short by a crash mid-write — is
//! dropped cleanly ([`ReadLog::torn_bytes`]) rather than erroring the whole
//! replay. A full-length record with a bad checksum is *corruption* (torn
//! writes only truncate, they do not scribble), and does fail the replay.
//!
//! ## Fsync discipline: group commit
//!
//! Appends stage into the writer's buffer; [`WalWriter::commit`] writes the
//! staged bytes to the [`WalSink`] and syncs it in one step, and an empty
//! stage costs nothing. The control plane only stages: it commits **once per
//! batch**, when the runtime calls [`ControlPlane::commit_wal`] just before
//! results leave the process — the live server before every grant flush
//! (one per drained inbox), `Hang` frame and epilogue, the simulator at the end of every event — and
//! with every checkpoint. The rule "no decision is visible outside the
//! process before it is durable" therefore holds per batch instead of per
//! op. A crash loses the stage: ops whose results no worker has seen.
//! [`ControlPlane::crash_restart`] recovers the plane at the last commit,
//! after checking that the log plus the lost stage rebuild exactly the plane
//! that died; a report lost this way leaves its token leased to the
//! reporter, and the restart revokes and regrants it. The `no-unflushed-wal`
//! lint rule enforces both halves: only the plane and the writer may leave
//! an append staged, and a live server link write must follow a
//! `commit_wal`.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fs;
use std::io::{self, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::rc::Rc;

use fela_cluster::Scenario;
use fela_sim::SimTime;

use crate::codec::{
    length_prefix, put_bool, put_bytes, put_list, put_u32, put_u64, put_u8, put_usize, Cursor,
    DecodeError,
};
use crate::oplog::{apply_op, CoordOp, OpKind, OpOutcome};
use crate::server::{LevelMeta, ServerStats};
use crate::snapshot::ServerSnapshot;
use crate::token::{Token, TokenId};
use crate::{ControlPlane, FelaConfig, ScheduleError, TokenPlan};

/// Maximum accepted record body, a defensive bound against corrupt length
/// prefixes. Checkpoints carry the whole token table and snapshot, so the
/// bound is far more generous than a wire frame's.
pub const MAX_RECORD: u32 = 256 * 1024 * 1024;

/// File name of the log inside a `--wal-dir` directory.
pub fn wal_path(dir: &Path) -> PathBuf {
    dir.join("fela.wal")
}

// ---- CRC32 (IEEE 802.3, table-driven) -----------------------------------

const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// The checksum every record body is verified against on replay.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---- errors --------------------------------------------------------------

/// Replay failure: the log bytes are not a valid record stream, or the
/// stream does not reproduce the plane that wrote it.
///
/// Structured (not a bare `io::Error`) so `fela-check`'s WAL rule can give
/// each corruption mode a distinct diagnostic.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum WalError {
    /// A record body or length prefix is not a valid encoding (also a
    /// duplicate `Begin` or a record too short for its header).
    Decode(DecodeError),
    /// A full-length record's checksum does not match its body — corruption,
    /// not a torn write (torn writes only truncate).
    BadChecksum {
        /// Byte offset of the record's length prefix.
        offset: usize,
        /// The checksum stored in the record.
        stored: u32,
        /// The checksum of the bytes actually present.
        computed: u32,
    },
    /// The log does not open with a `Begin` record.
    MissingBegin,
    /// The `Begin` record disagrees with the plane configuration the caller
    /// is recovering into.
    BeginMismatch,
    /// An op record broke the dense sequence chain (dropped, duplicated or
    /// reordered record).
    SeqBroken {
        /// The sequence number the chain required next.
        expected: u64,
        /// The sequence number found.
        found: u64,
    },
    /// Replaying a logged op against the restored plane produced a different
    /// outcome than the one recorded — the log does not describe this plane.
    Diverged {
        /// Sequence number of the diverging op.
        seq: u64,
    },
    /// Restoring the checkpoint snapshot failed.
    Restore(ScheduleError),
    /// The underlying log store failed.
    Io(io::ErrorKind),
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Decode(e) => e.describe(f, "record"),
            WalError::BadChecksum {
                offset,
                stored,
                computed,
            } => write!(
                f,
                "checksum mismatch at offset {offset}: stored {stored:#010x}, computed {computed:#010x}"
            ),
            WalError::MissingBegin => write!(f, "log does not open with a Begin record"),
            WalError::BeginMismatch => {
                write!(f, "Begin record disagrees with the recovering plane's config")
            }
            WalError::SeqBroken { expected, found } => write!(
                f,
                "op sequence broken: expected seq {expected}, found {found}"
            ),
            WalError::Diverged { seq } => write!(
                f,
                "replayed op {seq} produced a different outcome than recorded"
            ),
            WalError::Restore(e) => write!(f, "checkpoint restore failed: {e}"),
            WalError::Io(kind) => write!(f, "log store failed: {kind}"),
        }
    }
}

impl std::error::Error for WalError {}

impl From<DecodeError> for WalError {
    fn from(e: DecodeError) -> WalError {
        WalError::Decode(e)
    }
}

impl From<io::Error> for WalError {
    fn from(e: io::Error) -> WalError {
        WalError::Io(e.kind())
    }
}

fn malformed(what: &'static str) -> WalError {
    WalError::Decode(DecodeError::Malformed { what })
}

// ---- ScheduleError codec -------------------------------------------------

const ERR_INVALID_WORKER: u8 = 1;
const ERR_UNKNOWN_TOKEN: u8 = 2;
const ERR_DUPLICATE_REPORT: u8 = 3;
const ERR_CORRUPT_BUCKET: u8 = 4;
const ERR_MISSING_SAMPLE_OWNER: u8 = 5;
const ERR_MISSING_DEP_HOLDER: u8 = 6;
const ERR_CTD_CONFIG_MISSING: u8 = 7;
const ERR_EMPTY_CTD_SUBSET: u8 = 8;
const ERR_LEVEL_OUT_OF_RANGE: u8 = 9;
const ERR_DUPLICATE_SYNC: u8 = 10;
const ERR_OVER_GENERATION: u8 = 11;
const ERR_STALE_REPORT: u8 = 12;
const ERR_WORKER_UNAVAILABLE: u8 = 13;
const ERR_BAD_LIVENESS: u8 = 14;
const ERR_NO_ALIVE_WORKERS: u8 = 15;
const ERR_SNAPSHOT_SHAPE: u8 = 16;

fn put_schedule_error(out: &mut Vec<u8>, e: &ScheduleError) {
    match e {
        ScheduleError::InvalidWorker { worker, n_workers } => {
            put_u8(out, ERR_INVALID_WORKER);
            put_usize(out, *worker);
            put_usize(out, *n_workers);
        }
        ScheduleError::UnknownToken { token } => {
            put_u8(out, ERR_UNKNOWN_TOKEN);
            put_u64(out, token.0);
        }
        ScheduleError::DuplicateReport { token } => {
            put_u8(out, ERR_DUPLICATE_REPORT);
            put_u64(out, token.0);
        }
        ScheduleError::CorruptBucket {
            bucket,
            level,
            position,
        } => {
            put_u8(out, ERR_CORRUPT_BUCKET);
            put_usize(out, *bucket);
            put_usize(out, *level);
            put_usize(out, *position);
        }
        ScheduleError::MissingSampleOwner { token } => {
            put_u8(out, ERR_MISSING_SAMPLE_OWNER);
            put_u64(out, token.0);
        }
        ScheduleError::MissingDependencyHolder { token, dep } => {
            put_u8(out, ERR_MISSING_DEP_HOLDER);
            put_u64(out, token.0);
            put_u64(out, dep.0);
        }
        ScheduleError::CtdConfigMissing { level } => {
            put_u8(out, ERR_CTD_CONFIG_MISSING);
            put_usize(out, *level);
        }
        ScheduleError::EmptyCtdSubset { level } => {
            put_u8(out, ERR_EMPTY_CTD_SUBSET);
            put_usize(out, *level);
        }
        ScheduleError::LevelOutOfRange { level, levels } => {
            put_u8(out, ERR_LEVEL_OUT_OF_RANGE);
            put_usize(out, *level);
            put_usize(out, *levels);
        }
        ScheduleError::DuplicateSync { level, iteration } => {
            put_u8(out, ERR_DUPLICATE_SYNC);
            put_usize(out, *level);
            put_u64(out, *iteration);
        }
        ScheduleError::OverGeneration { level, iteration } => {
            put_u8(out, ERR_OVER_GENERATION);
            put_usize(out, *level);
            put_u64(out, *iteration);
        }
        ScheduleError::StaleReport { worker, token } => {
            put_u8(out, ERR_STALE_REPORT);
            put_usize(out, *worker);
            put_u64(out, token.0);
        }
        ScheduleError::WorkerUnavailable { worker } => {
            put_u8(out, ERR_WORKER_UNAVAILABLE);
            put_usize(out, *worker);
        }
        ScheduleError::BadLivenessTransition { worker, alive } => {
            put_u8(out, ERR_BAD_LIVENESS);
            put_usize(out, *worker);
            put_bool(out, *alive);
        }
        ScheduleError::NoAliveWorkers => put_u8(out, ERR_NO_ALIVE_WORKERS),
        ScheduleError::SnapshotShape { table, len, want } => {
            put_u8(out, ERR_SNAPSHOT_SHAPE);
            put_bytes(out, table.as_bytes());
            put_usize(out, *len);
            put_usize(out, *want);
        }
    }
}

fn get_schedule_error(c: &mut Cursor<'_>) -> Result<ScheduleError, DecodeError> {
    Ok(match c.u8()? {
        ERR_INVALID_WORKER => ScheduleError::InvalidWorker {
            worker: c.usize()?,
            n_workers: c.usize()?,
        },
        ERR_UNKNOWN_TOKEN => ScheduleError::UnknownToken {
            token: TokenId(c.u64()?),
        },
        ERR_DUPLICATE_REPORT => ScheduleError::DuplicateReport {
            token: TokenId(c.u64()?),
        },
        ERR_CORRUPT_BUCKET => ScheduleError::CorruptBucket {
            bucket: c.usize()?,
            level: c.usize()?,
            position: c.usize()?,
        },
        ERR_MISSING_SAMPLE_OWNER => ScheduleError::MissingSampleOwner {
            token: TokenId(c.u64()?),
        },
        ERR_MISSING_DEP_HOLDER => ScheduleError::MissingDependencyHolder {
            token: TokenId(c.u64()?),
            dep: TokenId(c.u64()?),
        },
        ERR_CTD_CONFIG_MISSING => ScheduleError::CtdConfigMissing { level: c.usize()? },
        ERR_EMPTY_CTD_SUBSET => ScheduleError::EmptyCtdSubset { level: c.usize()? },
        ERR_LEVEL_OUT_OF_RANGE => ScheduleError::LevelOutOfRange {
            level: c.usize()?,
            levels: c.usize()?,
        },
        ERR_DUPLICATE_SYNC => ScheduleError::DuplicateSync {
            level: c.usize()?,
            iteration: c.u64()?,
        },
        ERR_OVER_GENERATION => ScheduleError::OverGeneration {
            level: c.usize()?,
            iteration: c.u64()?,
        },
        ERR_STALE_REPORT => ScheduleError::StaleReport {
            worker: c.usize()?,
            token: TokenId(c.u64()?),
        },
        ERR_WORKER_UNAVAILABLE => ScheduleError::WorkerUnavailable { worker: c.usize()? },
        ERR_BAD_LIVENESS => ScheduleError::BadLivenessTransition {
            worker: c.usize()?,
            alive: c.boolean()?,
        },
        ERR_NO_ALIVE_WORKERS => ScheduleError::NoAliveWorkers,
        ERR_SNAPSHOT_SHAPE => ScheduleError::SnapshotShape {
            table: String::from_utf8(c.bytes("snapshot table name")?.to_vec()).map_err(|_| {
                DecodeError::Malformed {
                    what: "snapshot table name",
                }
            })?,
            len: c.usize()?,
            want: c.usize()?,
        },
        tag => return Err(DecodeError::UnknownTag(tag)),
    })
}

// ---- CoordOp codec -------------------------------------------------------

const KIND_REQUEST: u8 = 1;
const KIND_POP: u8 = 2;
const KIND_REPORT: u8 = 3;
const KIND_SYNC_FINISHED: u8 = 4;
const KIND_WORKER_CRASHED: u8 = 5;
const KIND_WORKER_RESTARTED: u8 = 6;
const KIND_LEASE_EXPIRED: u8 = 7;

fn put_op_kind(out: &mut Vec<u8>, kind: &OpKind) {
    match kind {
        OpKind::Request { worker, now } => {
            put_u8(out, KIND_REQUEST);
            put_usize(out, *worker);
            put_u64(out, now.as_nanos());
        }
        OpKind::PopReadyGrant { now } => {
            put_u8(out, KIND_POP);
            put_u64(out, now.as_nanos());
        }
        OpKind::Report { worker, token } => {
            put_u8(out, KIND_REPORT);
            put_usize(out, *worker);
            put_u64(out, *token);
        }
        OpKind::SyncFinished { level, iteration } => {
            put_u8(out, KIND_SYNC_FINISHED);
            put_usize(out, *level);
            put_u64(out, *iteration);
        }
        OpKind::WorkerCrashed { worker } => {
            put_u8(out, KIND_WORKER_CRASHED);
            put_usize(out, *worker);
        }
        OpKind::WorkerRestarted { worker } => {
            put_u8(out, KIND_WORKER_RESTARTED);
            put_usize(out, *worker);
        }
        OpKind::LeaseExpired { token, attempt } => {
            put_u8(out, KIND_LEASE_EXPIRED);
            put_u64(out, *token);
            put_u64(out, *attempt);
        }
    }
}

fn get_op_kind(c: &mut Cursor<'_>) -> Result<OpKind, DecodeError> {
    Ok(match c.u8()? {
        KIND_REQUEST => OpKind::Request {
            worker: c.usize()?,
            now: SimTime::from_nanos(c.u64()?),
        },
        KIND_POP => OpKind::PopReadyGrant {
            now: SimTime::from_nanos(c.u64()?),
        },
        KIND_REPORT => OpKind::Report {
            worker: c.usize()?,
            token: c.u64()?,
        },
        KIND_SYNC_FINISHED => OpKind::SyncFinished {
            level: c.usize()?,
            iteration: c.u64()?,
        },
        KIND_WORKER_CRASHED => OpKind::WorkerCrashed { worker: c.usize()? },
        KIND_WORKER_RESTARTED => OpKind::WorkerRestarted { worker: c.usize()? },
        KIND_LEASE_EXPIRED => OpKind::LeaseExpired {
            token: c.u64()?,
            attempt: c.u64()?,
        },
        tag => return Err(DecodeError::UnknownTag(tag)),
    })
}

const OUT_GRANTED: u8 = 1;
const OUT_NO_GRANT: u8 = 2;
const OUT_SYNCED: u8 = 3;
const OUT_REVOKED: u8 = 4;
const OUT_EXPIRED: u8 = 5;
const OUT_NO_LEASE: u8 = 6;
const OUT_DONE: u8 = 7;
const OUT_FAILED: u8 = 8;

fn put_op_outcome(out: &mut Vec<u8>, outcome: &OpOutcome) {
    match outcome {
        OpOutcome::Granted {
            worker,
            token,
            attempt,
            conflict,
            fetches,
        } => {
            put_u8(out, OUT_GRANTED);
            put_usize(out, *worker);
            put_u64(out, *token);
            put_u64(out, *attempt);
            put_bool(out, *conflict);
            put_list(out, fetches, put_usize_u64);
        }
        OpOutcome::NoGrant => put_u8(out, OUT_NO_GRANT),
        OpOutcome::Synced { syncs } => {
            put_u8(out, OUT_SYNCED);
            put_list(out, syncs, put_usize_u64);
        }
        OpOutcome::Revoked { tokens } => {
            put_u8(out, OUT_REVOKED);
            put_list(out, tokens, |o, &v| put_u64(o, v));
        }
        OpOutcome::Expired {
            worker,
            revoked,
            quarantined,
        } => {
            put_u8(out, OUT_EXPIRED);
            put_usize(out, *worker);
            put_list(out, revoked, |o, &v| put_u64(o, v));
            put_bool(out, *quarantined);
        }
        OpOutcome::NoLease => put_u8(out, OUT_NO_LEASE),
        OpOutcome::Done => put_u8(out, OUT_DONE),
        OpOutcome::Failed(e) => {
            put_u8(out, OUT_FAILED);
            put_schedule_error(out, e);
        }
    }
}

fn get_op_outcome(c: &mut Cursor<'_>) -> Result<OpOutcome, DecodeError> {
    Ok(match c.u8()? {
        OUT_GRANTED => OpOutcome::Granted {
            worker: c.usize()?,
            token: c.u64()?,
            attempt: c.u64()?,
            conflict: c.boolean()?,
            fetches: c.list("fetches", 16, get_usize_u64)?,
        },
        OUT_NO_GRANT => OpOutcome::NoGrant,
        OUT_SYNCED => OpOutcome::Synced {
            syncs: c.list("syncs", 16, get_usize_u64)?,
        },
        OUT_REVOKED => OpOutcome::Revoked {
            tokens: c.list("revoked tokens", 8, Cursor::u64)?,
        },
        OUT_EXPIRED => OpOutcome::Expired {
            worker: c.usize()?,
            revoked: c.list("expired revocations", 8, Cursor::u64)?,
            quarantined: c.boolean()?,
        },
        OUT_NO_LEASE => OpOutcome::NoLease,
        OUT_DONE => OpOutcome::Done,
        OUT_FAILED => OpOutcome::Failed(get_schedule_error(c)?),
        tag => return Err(DecodeError::UnknownTag(tag)),
    })
}

fn put_coord_op(out: &mut Vec<u8>, op: &CoordOp) {
    put_op_kind(out, &op.kind);
    put_op_outcome(out, &op.outcome);
}

fn get_coord_op(c: &mut Cursor<'_>) -> Result<CoordOp, DecodeError> {
    Ok(CoordOp {
        kind: get_op_kind(c)?,
        outcome: get_op_outcome(c)?,
    })
}

// ---- element codecs ------------------------------------------------------

fn put_usize_u64(out: &mut Vec<u8>, &(a, b): &(usize, u64)) {
    put_usize(out, a);
    put_u64(out, b);
}

fn get_usize_u64(c: &mut Cursor<'_>) -> Result<(usize, u64), DecodeError> {
    Ok((c.usize()?, c.u64()?))
}

fn put_u64_usize(out: &mut Vec<u8>, &(a, b): &(u64, usize)) {
    put_u64(out, a);
    put_usize(out, b);
}

fn get_u64_usize(c: &mut Cursor<'_>) -> Result<(u64, usize), DecodeError> {
    Ok((c.u64()?, c.usize()?))
}

fn put_u64_u64(out: &mut Vec<u8>, &(a, b): &(u64, u64)) {
    put_u64(out, a);
    put_u64(out, b);
}

fn get_u64_u64(c: &mut Cursor<'_>) -> Result<(u64, u64), DecodeError> {
    Ok((c.u64()?, c.u64()?))
}

// ---- Token codec ---------------------------------------------------------

/// The smallest encoded [`Token`]: five 8-byte fields, an empty deps list
/// and an absent sample owner.
const MIN_TOKEN_BYTES: usize = 5 * 8 + 4 + 1;

fn put_token(out: &mut Vec<u8>, t: &Token) {
    put_u64(out, t.id.0);
    put_usize(out, t.level);
    put_u64(out, t.iteration);
    put_u64(out, t.seq);
    put_u64(out, t.batch);
    put_list(out, &t.deps, |o, d| put_u64(o, d.0));
    match t.sample_owner {
        Some(w) => {
            put_u8(out, 1);
            put_usize(out, w);
        }
        None => put_u8(out, 0),
    }
}

fn get_token(c: &mut Cursor<'_>) -> Result<Token, DecodeError> {
    Ok(Token {
        id: TokenId(c.u64()?),
        level: c.usize()?,
        iteration: c.u64()?,
        seq: c.u64()?,
        batch: c.u64()?,
        deps: c.list("token deps", 8, |c| c.u64().map(TokenId))?,
        sample_owner: match c.u8()? {
            0 => None,
            1 => Some(c.usize()?),
            _ => {
                return Err(DecodeError::Malformed {
                    what: "sample_owner flag",
                })
            }
        },
    })
}

// ---- ServerSnapshot codec ------------------------------------------------

fn put_snapshot(out: &mut Vec<u8>, s: &ServerSnapshot) {
    put_u64(out, s.released_roots);
    put_u64(out, s.next_token_id);
    put_list(out, &s.stbs, |o, bucket| {
        put_list(o, bucket, |o, level| {
            put_list(o, level, |o, &v| put_u64(o, v))
        })
    });
    put_list(out, &s.pending, |o, level| {
        put_list(o, level, put_u64_usize)
    });
    put_list(out, &s.synced_upto, |o, &v| put_u64(o, v));
    put_list(out, &s.synced_out_of_order, |o, level| {
        put_list(o, level, |o, &v| put_u64(o, v))
    });
    put_list(out, &s.completed, |o, level| {
        put_list(o, level, put_u64_u64)
    });
    put_list(out, &s.gen_buffers, |o, level| {
        put_list(o, level, |o, (iteration, ids)| {
            put_u64(o, *iteration);
            put_list(o, ids, |o, &v| put_u64(o, v));
        })
    });
    put_list(out, &s.holder, put_u64_usize);
    put_list(out, &s.waiting, |o, &w| put_usize(o, w));
    put_list(out, &s.helpers, |o, &v| put_u64(o, v));
    put_list(out, &s.alive, |o, &b| put_bool(o, b));
    put_list(out, &s.quarantined, |o, &b| put_bool(o, b));
    put_list(out, &s.leases, |o, &(token, worker, attempt)| {
        put_u64(o, token);
        put_usize(o, worker);
        put_u64(o, attempt);
    });
    put_list(out, &s.attempts, put_u64_u64);
    put_list(out, &s.expiry_counts, |o, &v| put_u64(o, v));
    put_list(out, &s.data_home, |o, &w| put_usize(o, w));
    put_list(out, &s.parked, put_usize_u64);
    put_list(out, &s.last_grant_at, |o, at| {
        put_bool(o, at.is_some());
        put_u64(o, at.unwrap_or(0));
    });
    put_list(out, &s.trained_per_worker, |o, &v| put_u64(o, v));
    let st = &s.stats;
    for v in [
        st.grants,
        st.local_grants,
        st.steals,
        st.conflicts,
        st.remote_fetch_bytes,
        st.starved_requests,
    ] {
        put_u64(out, v);
    }
}

fn get_snapshot(c: &mut Cursor<'_>) -> Result<ServerSnapshot, DecodeError> {
    Ok(ServerSnapshot {
        released_roots: c.u64()?,
        next_token_id: c.u64()?,
        stbs: c.list("stb buckets", 4, |c| {
            c.list("stb levels", 4, |c| c.list("stb queue", 8, Cursor::u64))
        })?,
        pending: c.list("pending levels", 4, |c| {
            c.list("pending tokens", 16, get_u64_usize)
        })?,
        synced_upto: c.list("synced_upto", 8, Cursor::u64)?,
        synced_out_of_order: c.list("out-of-order levels", 4, |c| {
            c.list("out-of-order syncs", 8, Cursor::u64)
        })?,
        completed: c.list("completed levels", 4, |c| {
            c.list("completion counts", 16, get_u64_u64)
        })?,
        gen_buffers: c.list("gen-buffer levels", 4, |c| {
            c.list("gen-buffer iterations", 12, |c| {
                Ok((c.u64()?, c.list("gen-buffer tokens", 8, Cursor::u64)?))
            })
        })?,
        holder: c.list("holders", 16, get_u64_usize)?,
        waiting: c.list("waiting workers", 8, Cursor::usize)?,
        helpers: c.list("helpers", 8, Cursor::u64)?,
        alive: c.list("alive flags", 1, Cursor::boolean)?,
        quarantined: c.list("quarantine flags", 1, Cursor::boolean)?,
        leases: c.list("leases", 24, |c| Ok((c.u64()?, c.usize()?, c.u64()?)))?,
        attempts: c.list("attempts", 16, get_u64_u64)?,
        expiry_counts: c.list("expiry counts", 8, Cursor::u64)?,
        data_home: c.list("data homes", 8, Cursor::usize)?,
        parked: c.list("parked tokens", 16, get_usize_u64)?,
        last_grant_at: c.list("last-grant instants", 9, |c| {
            let present = c.boolean()?;
            let at = c.u64()?;
            Ok(present.then_some(at))
        })?,
        trained_per_worker: c.list("trained per worker", 8, Cursor::u64)?,
        stats: ServerStats {
            grants: c.u64()?,
            local_grants: c.u64()?,
            steals: c.u64()?,
            conflicts: c.u64()?,
            remote_fetch_bytes: c.u64()?,
            starved_requests: c.u64()?,
        },
    })
}

// ---- records -------------------------------------------------------------

const TAG_BEGIN: u8 = 1;
const TAG_OP: u8 = 2;
const TAG_CHECKPOINT: u8 = 3;

/// One log record.
#[derive(Clone, PartialEq, Debug)]
pub enum WalRecord {
    /// Opens the log: the plane shape the records describe. Recovery refuses
    /// a log whose `Begin` disagrees with the plane being rebuilt.
    Begin {
        /// Cluster size.
        n_workers: u32,
        /// Total iterations of the run.
        max_iterations: u64,
    },
    /// One logged control-plane operation: inputs plus outcome digest.
    Op {
        /// Dense, zero-based sequence number (gap/duplicate detection).
        seq: u64,
        /// The operation.
        op: CoordOp,
    },
    /// A full-state checkpoint; replay resumes from the latest one.
    Checkpoint {
        /// Sequence number of the *next* op after this checkpoint.
        seq: u64,
        /// Opaque runtime payload (e.g. the live server's committed
        /// completion schedule) restored verbatim on recovery.
        payload: Vec<u8>,
        /// The token table, in id order.
        tokens: Vec<Token>,
        /// The scheduling state (boxed: a snapshot dwarfs the other
        /// variants, and records travel through `Vec<WalRecord>`).
        snapshot: Box<ServerSnapshot>,
    },
}

fn encode_body(rec: &WalRecord) -> Vec<u8> {
    let mut body = Vec::new();
    match rec {
        WalRecord::Begin {
            n_workers,
            max_iterations,
        } => {
            put_u8(&mut body, TAG_BEGIN);
            put_u32(&mut body, *n_workers);
            put_u64(&mut body, *max_iterations);
        }
        WalRecord::Op { seq, op } => {
            put_u8(&mut body, TAG_OP);
            put_u64(&mut body, *seq);
            put_coord_op(&mut body, op);
        }
        WalRecord::Checkpoint {
            seq,
            payload,
            tokens,
            snapshot,
        } => {
            put_u8(&mut body, TAG_CHECKPOINT);
            put_u64(&mut body, *seq);
            put_bytes(&mut body, payload);
            put_list(&mut body, tokens, put_token);
            put_snapshot(&mut body, snapshot);
        }
    }
    body
}

fn decode_body(body: &[u8]) -> Result<WalRecord, DecodeError> {
    let mut c = Cursor::new(body);
    let rec = match c.u8()? {
        TAG_BEGIN => WalRecord::Begin {
            n_workers: c.u32()?,
            max_iterations: c.u64()?,
        },
        TAG_OP => WalRecord::Op {
            seq: c.u64()?,
            op: get_coord_op(&mut c)?,
        },
        TAG_CHECKPOINT => WalRecord::Checkpoint {
            seq: c.u64()?,
            payload: c.bytes("checkpoint payload")?.to_vec(),
            tokens: c.list("checkpoint tokens", MIN_TOKEN_BYTES, get_token)?,
            snapshot: Box::new(get_snapshot(&mut c)?),
        },
        tag => return Err(DecodeError::UnknownTag(tag)),
    };
    c.done()?;
    Ok(rec)
}

/// Encodes one record with its length prefix and checksum.
pub fn encode_record(rec: &WalRecord) -> Vec<u8> {
    let body = encode_body(rec);
    let mut out = Vec::with_capacity(8 + body.len());
    put_u32(&mut out, body.len() as u32);
    put_u32(&mut out, crc32(&body));
    out.extend_from_slice(&body);
    out
}

/// A decoded log: every complete record, plus the length of the torn tail
/// (0 when the log ends on a record boundary).
#[derive(Clone, PartialEq, Debug)]
pub struct ReadLog {
    /// The complete records, in log order.
    pub records: Vec<WalRecord>,
    /// Bytes of a final record cut short by a crash mid-write, dropped
    /// cleanly (a resumed writer truncates them away).
    pub torn_bytes: usize,
}

/// The one frame scanner: walks `bytes` record by record, checking each
/// length prefix against [`MAX_RECORD`] and each body against its checksum,
/// and hands every complete body to `visit` in log order. Returns the length
/// of the torn tail — a final record cut short by a crash mid-write, which
/// ends the scan cleanly. An oversized prefix or a checksum mismatch on a
/// full-length record is corruption and an error; so is any error `visit`
/// returns, which stops the scan at that record.
fn scan_frames<'a>(
    bytes: &'a [u8],
    mut visit: impl FnMut(&'a [u8]) -> Result<(), WalError>,
) -> Result<usize, WalError> {
    let mut pos = 0usize;
    while pos < bytes.len() {
        let rest = &bytes[pos..];
        let Some(len) = length_prefix(rest.get(..8).unwrap_or_default(), MAX_RECORD)? else {
            // Crash landed inside the prefix or checksum of the last record.
            return Ok(rest.len());
        };
        let mut c = Cursor::new(&rest[4..]);
        let stored = c.u32()?;
        let Ok(body) = c.take(len) else {
            // Crash landed inside the body of the last record.
            return Ok(rest.len());
        };
        let computed = crc32(body);
        if stored != computed {
            return Err(WalError::BadChecksum {
                offset: pos,
                stored,
                computed,
            });
        }
        visit(body)?;
        pos += 8 + len;
    }
    Ok(0)
}

/// Decodes a whole log. Never panics: a torn tail is dropped cleanly, while
/// a checksum mismatch or malformed complete record is an error (corruption,
/// not a crash artifact).
pub fn read_log(bytes: &[u8]) -> Result<ReadLog, WalError> {
    let mut records = Vec::new();
    let torn_bytes = scan_frames(bytes, |body| {
        records.push(decode_body(body)?);
        Ok(())
    })?;
    Ok(ReadLog {
        records,
        torn_bytes,
    })
}

// ---- sinks ---------------------------------------------------------------

/// Where committed log bytes go. `append` stages bytes at the end of the
/// log; `sync` makes everything appended so far durable. The control plane
/// calls them as a pair via [`WalWriter::commit`], once per batch of ops,
/// before any of their results becomes externally visible. A restarting
/// plane reads the log back and cuts its torn tail off before it appends
/// again ([`ControlPlane::crash_restart`]).
pub trait WalSink {
    /// Appends bytes at the end of the log.
    fn append(&mut self, bytes: &[u8]) -> io::Result<()>;
    /// Makes every appended byte durable (fsync or equivalent).
    fn sync(&mut self) -> io::Result<()>;
    /// Every byte the log holds, as a restarted process would read it.
    fn read_back(&mut self) -> io::Result<Vec<u8>>;
    /// Drops everything after `len` bytes; later appends land there.
    fn truncate(&mut self, len: usize) -> io::Result<()>;
}

/// An in-memory log, shared by handle: the simulator's stand-in for a file.
/// Clones share the same buffer, so the crash injector can read (and
/// truncate) exactly what the plane had committed. Deliberately
/// single-threaded (`Rc`) — the plane and the injector live on one thread.
#[derive(Clone, Debug, Default)]
pub struct MemWal {
    buf: Rc<RefCell<Vec<u8>>>,
}

impl MemWal {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// A copy of the committed bytes.
    pub fn bytes(&self) -> Vec<u8> {
        self.buf.borrow().clone()
    }

    /// Committed length in bytes.
    pub fn len(&self) -> usize {
        self.buf.borrow().len()
    }

    /// True when nothing has been committed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl WalSink for MemWal {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.buf.borrow_mut().extend_from_slice(bytes);
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        Ok(())
    }

    fn read_back(&mut self) -> io::Result<Vec<u8>> {
        Ok(self.bytes())
    }

    fn truncate(&mut self, len: usize) -> io::Result<()> {
        self.buf.borrow_mut().truncate(len);
        Ok(())
    }
}

/// A file-backed log. `sync` is `File::sync_data` — the real fsync
/// discipline the in-memory sink only models. It keeps its path so a
/// restart can read the file back.
#[derive(Debug)]
pub struct FileWal {
    path: PathBuf,
    file: fs::File,
}

impl FileWal {
    /// Creates (or truncates) the log file.
    pub fn create(path: &Path) -> io::Result<FileWal> {
        let file = fs::OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(path)?;
        Ok(FileWal {
            path: path.to_path_buf(),
            file,
        })
    }
}

impl WalSink for FileWal {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.file.write_all(bytes)
    }

    fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()
    }

    fn read_back(&mut self) -> io::Result<Vec<u8>> {
        fs::read(&self.path)
    }

    fn truncate(&mut self, len: usize) -> io::Result<()> {
        self.file.set_len(len as u64)?;
        self.file.seek(SeekFrom::End(0))?;
        Ok(())
    }
}

// ---- writer --------------------------------------------------------------

/// Appends records to a [`WalSink`] with dense op sequence numbers.
///
/// Appends *stage*; [`commit`](Self::commit) writes and syncs the whole
/// stage at once. The split is what lets the control plane group-commit a
/// batch of ops with one sync, and keeps the fsync discipline a visible call
/// site the `no-unflushed-wal` lint rule can check.
pub struct WalWriter {
    sink: Box<dyn WalSink>,
    seq: u64,
    staged: Vec<u8>,
}

impl std::fmt::Debug for WalWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WalWriter")
            .field("seq", &self.seq)
            .field("staged", &self.staged.len())
            .finish()
    }
}

impl WalWriter {
    /// A writer over a fresh log (first op gets seq 0).
    pub fn new(sink: Box<dyn WalSink>) -> WalWriter {
        WalWriter {
            sink,
            seq: 0,
            staged: Vec::new(),
        }
    }

    /// A writer resuming an existing log: `next_seq` is
    /// [`Recovered::next_seq`] from the recovery that read it.
    pub fn resume(sink: Box<dyn WalSink>, next_seq: u64) -> WalWriter {
        WalWriter {
            sink,
            seq: next_seq,
            staged: Vec::new(),
        }
    }

    /// Sequence number the next [`append_op`](Self::append_op) will stamp.
    pub fn next_seq(&self) -> u64 {
        self.seq
    }

    /// Gives the sink back, with the records staged but never committed —
    /// what a crash loses.
    pub(crate) fn into_parts(self) -> (Box<dyn WalSink>, Vec<u8>) {
        (self.sink, self.staged)
    }

    /// Stages the opening `Begin` record.
    pub fn append_begin(&mut self, n_workers: u32, max_iterations: u64) {
        self.staged
            .extend_from_slice(&encode_record(&WalRecord::Begin {
                n_workers,
                max_iterations,
            }));
    }

    /// Stages one op record, stamping and advancing the sequence number.
    pub fn append_op(&mut self, op: &CoordOp) {
        let seq = self.seq;
        self.seq += 1;
        self.staged
            .extend_from_slice(&encode_record(&WalRecord::Op {
                seq,
                op: op.clone(),
            }));
    }

    /// Stages a checkpoint of the given state at the current sequence point.
    pub fn append_checkpoint(
        &mut self,
        payload: &[u8],
        tokens: &BTreeMap<TokenId, Token>,
        snapshot: &ServerSnapshot,
    ) {
        self.staged
            .extend_from_slice(&encode_record(&WalRecord::Checkpoint {
                seq: self.seq,
                payload: payload.to_vec(),
                tokens: tokens.values().cloned().collect(),
                snapshot: Box::new(snapshot.clone()),
            }));
    }

    /// Writes and syncs everything staged in one step — the group commit
    /// that must land before a logged result becomes externally visible.
    /// An empty stage costs no write and no sync. Returns whether it synced.
    /// An error leaves nothing of the stage promised durable, and the run
    /// must stop.
    pub fn commit(&mut self) -> io::Result<bool> {
        if self.staged.is_empty() {
            return Ok(false);
        }
        self.sink.append(&self.staged)?;
        self.sink.sync()?;
        self.staged.clear();
        Ok(true)
    }
}

// ---- recovery ------------------------------------------------------------

/// The result of replaying a log: a plane snapshot-equal to the one that
/// wrote it, plus everything a runtime needs to resume.
pub struct Recovered {
    /// The rebuilt control plane (WAL not yet attached:
    /// [`ControlPlane::crash_restart`] resumes the log at
    /// [`Recovered::next_seq`]).
    pub plane: ControlPlane,
    /// The latest checkpoint's opaque payload (empty if no checkpoint).
    pub payload: Vec<u8>,
    /// The op suffix replayed after the latest checkpoint.
    pub ops: Vec<CoordOp>,
    /// Bytes of the torn tail the reader dropped (truncate them before
    /// resuming a file-backed log).
    pub torn_bytes: usize,
    /// Sequence number the resumed writer must continue from.
    pub next_seq: u64,
}

/// Rebuilds the control plane a log describes: restore the latest
/// checkpoint (or a fresh plane), then replay the op suffix through
/// [`apply_op`], verifying every recorded outcome digest. Strict: a broken
/// sequence chain or a diverging outcome is an error — `fela-check`'s WAL
/// rule is the lenient, multi-diagnostic counterpart.
///
/// Recovery cost is bounded by the checkpoint interval, not the run length:
/// every frame's checksum and tag/sequence header is verified, but only the
/// latest checkpoint and the ops after it are fully decoded. Superseded
/// checkpoints — each carrying a whole token table — are checksummed and
/// skipped. ([`read_log`] remains the full-decode reader; `fela-check` uses
/// it to audit every record body.)
pub fn recover(
    bytes: &[u8],
    plan: &TokenPlan,
    cfg: &FelaConfig,
    meta: &[LevelMeta],
    n_workers: usize,
    max_iterations: u64,
) -> Result<Recovered, WalError> {
    // Pass 1: frame scan. Validates framing and checksums exactly as
    // `read_log` does, but only peeks the fixed-offset tag/seq header of
    // each body, locating the latest checkpoint without decoding the
    // superseded ones.
    let mut frames: Vec<&[u8]> = Vec::new();
    let torn_bytes = scan_frames(bytes, |body| {
        frames.push(body);
        Ok(())
    })?;
    let first = match frames.first() {
        Some(body) => *body,
        None => return Err(WalError::MissingBegin),
    };
    match decode_body(first)? {
        WalRecord::Begin {
            n_workers: nw,
            max_iterations: mi,
        } => {
            if nw as usize != n_workers || mi != max_iterations {
                return Err(WalError::BeginMismatch);
            }
        }
        _ => return Err(WalError::MissingBegin),
    }
    let mut expected_seq = 0u64;
    let mut checkpoint_at: Option<usize> = None;
    for (i, body) in frames.iter().enumerate().skip(1) {
        let mut c = Cursor::new(body);
        match c.u8()? {
            tag @ (TAG_OP | TAG_CHECKPOINT) => {
                let seq = c.u64()?;
                if seq != expected_seq {
                    return Err(WalError::SeqBroken {
                        expected: expected_seq,
                        found: seq,
                    });
                }
                if tag == TAG_OP {
                    expected_seq += 1;
                } else {
                    checkpoint_at = Some(i);
                }
            }
            TAG_BEGIN => return Err(malformed("duplicate Begin record")),
            tag => return Err(DecodeError::UnknownTag(tag).into()),
        }
    }
    // Pass 2: decode only what recovery needs — the latest checkpoint and
    // the op suffix after it.
    let suffix_start = checkpoint_at.map_or(1, |i| i + 1);
    let checkpoint: Option<(Vec<u8>, Vec<Token>, Box<ServerSnapshot>)> = match checkpoint_at {
        Some(i) => match decode_body(frames[i])? {
            WalRecord::Checkpoint {
                payload,
                tokens,
                snapshot,
                ..
            } => Some((payload, tokens, snapshot)),
            _ => return Err(malformed("checkpoint header on a non-checkpoint body")),
        },
        None => None,
    };
    let mut suffix: Vec<CoordOp> = Vec::with_capacity(frames.len() - suffix_start);
    for body in &frames[suffix_start..] {
        match decode_body(body)? {
            WalRecord::Op { op, .. } => suffix.push(op),
            _ => return Err(malformed("op header on a non-op body")),
        }
    }
    let (payload, mut plane) = match checkpoint {
        Some((payload, tokens, snapshot)) => {
            let table: BTreeMap<TokenId, Token> = tokens.into_iter().map(|t| (t.id, t)).collect();
            let plane = ControlPlane::restore(
                plan.clone(),
                cfg.clone(),
                meta.to_vec(),
                n_workers,
                max_iterations,
                table,
                &snapshot,
            )
            .map_err(WalError::Restore)?;
            (payload, plane)
        }
        None => (
            Vec::new(),
            ControlPlane::new(
                plan.clone(),
                cfg.clone(),
                meta.to_vec(),
                n_workers,
                max_iterations,
            ),
        ),
    };
    let first_seq = expected_seq - suffix.len() as u64;
    for (i, op) in suffix.iter().enumerate() {
        let outcome = apply_op(&mut plane, &op.kind);
        if outcome != op.outcome {
            return Err(WalError::Diverged {
                seq: first_seq + i as u64,
            });
        }
    }
    Ok(Recovered {
        plane,
        payload,
        ops: suffix,
        torn_bytes,
        next_seq: expected_seq,
    })
}

// ---- payload helpers -----------------------------------------------------

/// Encodes a list of `u64` pairs as an opaque checkpoint payload (the live
/// runtime stores its committed `(iteration, level)` completions this way).
pub fn encode_u64_pairs(pairs: &[(u64, u64)]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + 16 * pairs.len());
    put_list(&mut out, pairs, put_u64_u64);
    out
}

/// Decodes a payload written by [`encode_u64_pairs`].
pub fn decode_u64_pairs(bytes: &[u8]) -> Result<Vec<(u64, u64)>, WalError> {
    let mut c = Cursor::new(bytes);
    let pairs = c.list("payload pairs", 16, get_u64_u64)?;
    c.done()?;
    Ok(pairs)
}

// ---- options -------------------------------------------------------------

/// How a runtime persists its control plane.
#[derive(Clone, Debug)]
pub struct DurabilityOptions {
    /// Directory for the log file ([`wal_path`]). `None` = an in-memory
    /// [`MemWal`] (crash-restart still exercises the full recovery path; the
    /// bytes just never leave the process).
    pub wal_dir: Option<PathBuf>,
    /// Checkpoint after every N completed iterations (0 = never: replay
    /// starts from the `Begin` record).
    pub checkpoint_every: u64,
}

impl Default for DurabilityOptions {
    fn default() -> Self {
        DurabilityOptions {
            wal_dir: None,
            checkpoint_every: 1,
        }
    }
}

impl DurabilityOptions {
    /// The one rule deciding whether a run logs its control plane: when the
    /// caller asked for durability (`explicit`), or when the scenario
    /// declares a server fault, which no plane survives without a log. The
    /// implied log uses [`DurabilityOptions::default`].
    pub fn for_run(explicit: Option<&DurabilityOptions>, scenario: &Scenario) -> Option<Self> {
        let server_fault =
            (0..scenario.iterations).any(|it| scenario.fault.server_fault_for(it).is_some());
        (explicit.is_some() || server_fault).then(|| explicit.cloned().unwrap_or_default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::LevelMeta;
    use crate::{FelaConfig, LevelPlan};
    use fela_sim::SimTime;
    use std::ops::ControlFlow;

    fn small_plan() -> TokenPlan {
        TokenPlan {
            levels: vec![
                LevelPlan {
                    level: 0,
                    tokens_per_iteration: 2,
                    batch_per_token: 4,
                    gen_ratio: 1,
                },
                LevelPlan {
                    level: 1,
                    tokens_per_iteration: 1,
                    batch_per_token: 8,
                    gen_ratio: 2,
                },
            ],
            total_batch: 8,
        }
    }

    fn meta() -> Vec<LevelMeta> {
        vec![
            LevelMeta {
                param_bytes: 4096,
                output_bytes_per_sample: 64,
                input_bytes_per_sample: 64,
                comm_intensive: false,
            },
            LevelMeta {
                param_bytes: 8192,
                output_bytes_per_sample: 32,
                input_bytes_per_sample: 64,
                comm_intensive: false,
            },
        ]
    }

    fn cfg() -> FelaConfig {
        FelaConfig::new(2).with_weights(vec![1, 2])
    }

    fn plane() -> ControlPlane {
        ControlPlane::new(small_plan(), cfg(), meta(), 2, 2)
    }

    /// Drives a plane to completion (the oplog test loop), committing after
    /// every plane call — a runtime that ships each result the moment it is
    /// decided — and then calling `after`.
    fn drive(plane: &mut ControlPlane, after: &mut dyn FnMut(&mut ControlPlane)) {
        let _ = drive_staged(plane, &mut |p| {
            p.commit_wal().expect("commit");
            after(p);
            ControlFlow::Continue(())
        });
    }

    /// The same call sequence with no commits of its own: `after` runs after
    /// every plane call, decides when to commit, and may stop the drive.
    fn drive_staged(
        plane: &mut ControlPlane,
        after: &mut dyn FnMut(&mut ControlPlane) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        let now = SimTime::ZERO;
        while !plane.run_complete() {
            let mut progressed = false;
            for w in 0..2 {
                if let Ok(Some(grant)) = plane.request(w, now) {
                    after(plane)?;
                    let syncs = plane.report(w, grant.token.id).expect("report accepted");
                    after(plane)?;
                    for s in syncs {
                        plane.sync_finished(s.level, s.iteration).expect("sync");
                        after(plane)?;
                    }
                    progressed = true;
                } else {
                    after(plane)?;
                }
            }
            while let Ok(Some((w, grant))) = plane.pop_ready_grant(now) {
                after(plane)?;
                let syncs = plane.report(w, grant.token.id).expect("report accepted");
                after(plane)?;
                for s in syncs {
                    plane.sync_finished(s.level, s.iteration).expect("sync");
                    after(plane)?;
                }
                progressed = true;
            }
            after(plane)?;
            assert!(progressed, "run must make progress");
        }
        ControlFlow::Continue(())
    }

    /// One request/report/sync round for every worker that gets a grant,
    /// made durable by one group commit.
    fn step(plane: &mut ControlPlane) {
        let now = SimTime::ZERO;
        for w in 0..2 {
            if let Ok(Some(grant)) = plane.request(w, now) {
                let syncs = plane.report(w, grant.token.id).expect("report");
                for s in syncs {
                    plane.sync_finished(s.level, s.iteration).expect("sync");
                }
            }
        }
        plane.commit_wal().expect("commit");
    }

    /// A fresh temp directory, unique per process and test thread.
    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "fela-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    fn sample_snapshot() -> ServerSnapshot {
        let mut p = plane();
        let _ = p.request(0, SimTime::ZERO);
        p.snapshot()
    }

    fn sample_records() -> Vec<WalRecord> {
        let sched_errors = vec![
            ScheduleError::InvalidWorker {
                worker: 9,
                n_workers: 2,
            },
            ScheduleError::UnknownToken { token: TokenId(7) },
            ScheduleError::DuplicateReport { token: TokenId(3) },
            ScheduleError::CorruptBucket {
                bucket: 1,
                level: 0,
                position: 4,
            },
            ScheduleError::MissingSampleOwner { token: TokenId(2) },
            ScheduleError::MissingDependencyHolder {
                token: TokenId(5),
                dep: TokenId(1),
            },
            ScheduleError::CtdConfigMissing { level: 1 },
            ScheduleError::EmptyCtdSubset { level: 2 },
            ScheduleError::LevelOutOfRange {
                level: 7,
                levels: 2,
            },
            ScheduleError::DuplicateSync {
                level: 0,
                iteration: 3,
            },
            ScheduleError::OverGeneration {
                level: 1,
                iteration: 2,
            },
            ScheduleError::StaleReport {
                worker: 1,
                token: TokenId(6),
            },
            ScheduleError::WorkerUnavailable { worker: 0 },
            ScheduleError::BadLivenessTransition {
                worker: 1,
                alive: true,
            },
            ScheduleError::NoAliveWorkers,
        ];
        let kinds = vec![
            OpKind::Request {
                worker: 0,
                now: SimTime::from_nanos(17),
            },
            OpKind::PopReadyGrant {
                now: SimTime::from_nanos(99),
            },
            OpKind::Report {
                worker: 1,
                token: 42,
            },
            OpKind::SyncFinished {
                level: 1,
                iteration: 3,
            },
            OpKind::WorkerCrashed { worker: 0 },
            OpKind::WorkerRestarted { worker: 1 },
            OpKind::LeaseExpired {
                token: 8,
                attempt: 2,
            },
        ];
        let mut outcomes = vec![
            OpOutcome::Granted {
                worker: 0,
                token: 11,
                attempt: 1,
                conflict: true,
                fetches: vec![(1, 4096), (0, 64)],
            },
            OpOutcome::NoGrant,
            OpOutcome::Synced {
                syncs: vec![(0, 1), (1, 0)],
            },
            OpOutcome::Revoked {
                tokens: vec![3, 4, 5],
            },
            OpOutcome::Expired {
                worker: 1,
                revoked: vec![9],
                quarantined: true,
            },
            OpOutcome::NoLease,
            OpOutcome::Done,
        ];
        outcomes.extend(sched_errors.into_iter().map(OpOutcome::Failed));
        let mut records = vec![WalRecord::Begin {
            n_workers: 2,
            max_iterations: 2,
        }];
        let mut seq = 0u64;
        for kind in &kinds {
            for outcome in &outcomes {
                records.push(WalRecord::Op {
                    seq,
                    op: CoordOp {
                        kind: kind.clone(),
                        outcome: outcome.clone(),
                    },
                });
                seq += 1;
            }
        }
        let token = Token {
            id: TokenId(5),
            level: 1,
            iteration: 0,
            seq: 0,
            batch: 8,
            deps: vec![TokenId(1), TokenId(2)],
            sample_owner: None,
        };
        let root = Token {
            id: TokenId(1),
            level: 0,
            iteration: 0,
            seq: 1,
            batch: 4,
            deps: vec![],
            sample_owner: Some(1),
        };
        records.push(WalRecord::Checkpoint {
            seq,
            payload: vec![1, 2, 3, 255],
            tokens: vec![root, token],
            snapshot: Box::new(sample_snapshot()),
        });
        records
    }

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn every_record_round_trips_bit_exactly() {
        for rec in sample_records() {
            let bytes = encode_record(&rec);
            let log = read_log(&bytes).expect("valid record");
            assert_eq!(log.torn_bytes, 0);
            assert_eq!(log.records, vec![rec.clone()]);
            // Re-encoding the decoded record reproduces the bytes.
            assert_eq!(encode_record(&log.records[0]), bytes);
        }
    }

    #[test]
    fn a_full_log_round_trips_in_order() {
        let records = sample_records();
        let mut bytes = Vec::new();
        for rec in &records {
            bytes.extend_from_slice(&encode_record(rec));
        }
        let log = read_log(&bytes).expect("valid log");
        assert_eq!(log.records, records);
        assert_eq!(log.torn_bytes, 0);
    }

    #[test]
    fn torn_tail_at_every_cut_point_is_dropped_cleanly() {
        let records = sample_records();
        let mut bytes = Vec::new();
        let mut boundaries = vec![0usize];
        for rec in &records {
            bytes.extend_from_slice(&encode_record(rec));
            boundaries.push(bytes.len());
        }
        for cut in 0..=bytes.len() {
            let log = read_log(&bytes[..cut]).expect("torn tails never error");
            let boundary = boundaries
                .iter()
                .rev()
                .find(|&&b| b <= cut)
                .copied()
                .expect("0 is a boundary");
            let complete = boundaries.iter().position(|&b| b == boundary).expect("idx");
            assert_eq!(log.records.len(), complete, "cut at {cut}");
            assert_eq!(log.torn_bytes, cut - boundary, "cut at {cut}");
            assert_eq!(log.records[..], records[..complete]);
        }
    }

    #[test]
    fn corrupt_body_is_a_checksum_error_not_a_torn_tail() {
        let mut bytes = encode_record(&sample_records()[1]);
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        match read_log(&bytes) {
            Err(WalError::BadChecksum { offset: 0, .. }) => {}
            other => panic!("expected BadChecksum, got {other:?}"),
        }
    }

    #[test]
    fn oversized_prefix_is_rejected() {
        let mut bytes = u32::MAX.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0; 12]);
        assert!(matches!(
            read_log(&bytes),
            Err(WalError::Decode(DecodeError::Oversized { .. }))
        ));
    }

    #[test]
    fn unknown_tags_error_without_panicking() {
        // 4 is retired: it reads as unknown, like any tag the format lacks.
        for tag in [4u8, 99] {
            let body = vec![tag, 1, 2, 3];
            let mut bytes = (body.len() as u32).to_le_bytes().to_vec();
            bytes.extend_from_slice(&crc32(&body).to_le_bytes());
            bytes.extend_from_slice(&body);
            assert_eq!(
                read_log(&bytes),
                Err(WalError::Decode(DecodeError::UnknownTag(tag)))
            );
        }
    }

    fn attach(plane: &mut ControlPlane) -> MemWal {
        let mem = MemWal::new();
        plane
            .attach_wal(Box::new(mem.clone()))
            .expect("attach in-memory wal");
        mem
    }

    #[test]
    fn wal_records_the_drive_and_recovers_the_final_plane() {
        let mut p = plane();
        let mem = attach(&mut p);
        drive(&mut p, &mut |_| {});
        let rec =
            recover(&mem.bytes(), p.plan(), p.config(), &meta(), 2, 2).expect("clean log recovers");
        assert_eq!(rec.plane.snapshot(), p.snapshot());
        assert_eq!(rec.plane.tokens(), p.tokens());
        assert_eq!(rec.torn_bytes, 0);
        assert!(rec.plane.run_complete());
    }

    #[test]
    fn checkpoint_skips_the_prefix_on_recovery() {
        let mut p = plane();
        let mem = attach(&mut p);
        // Run half the drive, checkpoint, then finish.
        step(&mut p);
        p.checkpoint_wal(&[7, 7, 7]).expect("checkpoint");
        drive(&mut p, &mut |_| {});
        let rec = recover(&mem.bytes(), p.plan(), p.config(), &meta(), 2, 2).expect("recovers");
        assert_eq!(rec.plane.snapshot(), p.snapshot());
        assert_eq!(rec.payload, vec![7, 7, 7]);
        let log = read_log(&mem.bytes()).expect("read");
        let total_ops = log
            .records
            .iter()
            .filter(|r| matches!(r, WalRecord::Op { .. }))
            .count();
        assert!(
            rec.ops.len() < total_ops,
            "suffix replay ({}) must be shorter than the full log ({total_ops})",
            rec.ops.len()
        );
    }

    #[test]
    fn a_shape_mismatched_checkpoint_is_a_restore_error() {
        // `checkpoint_skips_the_prefix_on_recovery`'s log with one level
        // dropped from the checkpoint's `synced_upto`, re-checksummed: what a
        // log written under another level count with the same
        // `(n_workers, max_iterations)` looks like to recovery.
        let mut p = plane();
        let mem = attach(&mut p);
        step(&mut p);
        p.checkpoint_wal(&[7, 7, 7]).expect("checkpoint");
        drive(&mut p, &mut |_| {});
        let mut records = read_log(&mem.bytes()).expect("read").records;
        for rec in &mut records {
            if let WalRecord::Checkpoint { snapshot, .. } = rec {
                snapshot.synced_upto.pop();
            }
        }
        let bytes: Vec<u8> = records.iter().flat_map(encode_record).collect();
        assert!(matches!(
            recover(&bytes, p.plan(), p.config(), &meta(), 2, 2).map(|_| ()),
            Err(WalError::Restore(_))
        ));
    }

    #[test]
    fn a_snapshot_shape_error_round_trips() {
        let rec = WalRecord::Op {
            seq: 3,
            op: CoordOp {
                kind: OpKind::WorkerCrashed { worker: 1 },
                outcome: OpOutcome::Failed(ScheduleError::SnapshotShape {
                    table: "synced_upto".to_string(),
                    len: 1,
                    want: 2,
                }),
            },
        };
        let bytes = encode_record(&rec);
        assert_eq!(read_log(&bytes).map(|log| log.records), Ok(vec![rec]));
    }

    #[test]
    fn an_older_three_field_begin_does_not_parse() {
        // The older three-field `Begin`: shard count, cluster size,
        // iterations.
        let mut body = vec![TAG_BEGIN];
        put_u32(&mut body, 1);
        put_u32(&mut body, 2);
        put_u64(&mut body, 2);
        let mut bytes = Vec::new();
        put_u32(&mut bytes, body.len() as u32);
        put_u32(&mut bytes, crc32(&body));
        bytes.extend_from_slice(&body);
        assert_eq!(
            read_log(&bytes),
            Err(WalError::Decode(DecodeError::Trailing { extra: 4 }))
        );
    }

    #[test]
    fn recovery_rejects_a_log_for_a_different_plane_shape() {
        let mut p = plane();
        let mem = attach(&mut p);
        drive(&mut p, &mut |_| {});
        let bytes = mem.bytes();
        assert_eq!(
            recover(&bytes, p.plan(), p.config(), &meta(), 3, 2).map(|_| ()),
            Err(WalError::BeginMismatch),
            "wrong worker count"
        );
        assert_eq!(
            recover(&bytes, p.plan(), p.config(), &meta(), 2, 3).map(|_| ()),
            Err(WalError::BeginMismatch),
            "wrong iteration count"
        );
        assert_eq!(
            recover(&[], p.plan(), p.config(), &meta(), 2, 2).map(|_| ()),
            Err(WalError::MissingBegin)
        );
    }

    #[test]
    fn broken_seq_chains_are_detected() {
        let mut p = plane();
        let mem = attach(&mut p);
        drive(&mut p, &mut |_| {});
        let log = read_log(&mem.bytes()).expect("read");
        // Drop the second op record → gap.
        let mut dropped: Vec<WalRecord> = log.records.clone();
        let op_idx: Vec<usize> = dropped
            .iter()
            .enumerate()
            .filter(|(_, r)| matches!(r, WalRecord::Op { .. }))
            .map(|(i, _)| i)
            .collect();
        dropped.remove(op_idx[1]);
        let bytes: Vec<u8> = dropped.iter().flat_map(encode_record).collect();
        assert!(matches!(
            recover(&bytes, p.plan(), p.config(), &meta(), 2, 2).map(|_| ()),
            Err(WalError::SeqBroken {
                expected: 1,
                found: 2
            })
        ));
        // Duplicate an op record → stalled chain.
        let mut duped = log.records.clone();
        duped.insert(op_idx[1], duped[op_idx[1]].clone());
        let bytes: Vec<u8> = duped.iter().flat_map(encode_record).collect();
        assert!(matches!(
            recover(&bytes, p.plan(), p.config(), &meta(), 2, 2).map(|_| ()),
            Err(WalError::SeqBroken {
                expected: 2,
                found: 1
            })
        ));
    }

    #[test]
    fn recovery_at_every_commit_boundary_matches_a_fresh_replay() {
        // The core crash-consistency property as a deterministic sweep:
        // recovering the log prefix at *any* commit boundary yields the same
        // snapshot as replaying that prefix from scratch (and at the final
        // boundary, the live plane itself).
        let mut p = plane();
        let mem = attach(&mut p);
        let mut boundaries = vec![0usize];
        drive(&mut p, &mut |_| boundaries.push(mem.len()));
        let bytes = mem.bytes();
        for &b in &boundaries {
            if b == 0 {
                continue;
            }
            let rec = recover(&bytes[..b], p.plan(), p.config(), &meta(), 2, 2)
                .unwrap_or_else(|e| panic!("boundary {b}: {e}"));
            assert_eq!(rec.torn_bytes, 0);
        }
        let full = recover(&bytes, p.plan(), p.config(), &meta(), 2, 2).expect("full");
        assert_eq!(full.plane.snapshot(), p.snapshot());
    }

    #[test]
    fn payload_pairs_round_trip() {
        let pairs = vec![(0u64, 1u64), (7, 2), (u64::MAX, 0)];
        let bytes = encode_u64_pairs(&pairs);
        assert_eq!(decode_u64_pairs(&bytes).expect("round trip"), pairs);
        assert_eq!(decode_u64_pairs(&[]).ok(), None, "empty buffer is torn");
        assert!(decode_u64_pairs(&encode_u64_pairs(&[])).is_ok());
    }

    #[test]
    fn file_wal_persists_and_resumes_with_truncation() {
        let dir = temp_dir("wal-test");
        let path = wal_path(&dir);
        let mut p = plane();
        p.attach_wal(Box::new(FileWal::create(&path).expect("create")))
            .expect("attach");
        drive(&mut p, &mut |_| {});
        // Tear the tail: append garbage that looks like a cut-off record.
        {
            let mut f = fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .expect("open");
            f.write_all(&[42, 0, 0]).expect("tear");
        }
        let bytes = fs::read(&path).expect("read");
        let rec = recover(&bytes, p.plan(), p.config(), &meta(), 2, 2).expect("recover");
        assert_eq!(rec.torn_bytes, 3);
        assert_eq!(rec.plane.snapshot(), p.snapshot());
        let valid = (bytes.len() - rec.torn_bytes) as u64;
        p.crash_restart().expect("restart");
        assert_eq!(fs::metadata(&path).expect("meta").len(), valid);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crash_restart_resumes_a_dense_log_on_both_sinks() {
        let dir = temp_dir("lifecycle");
        let path = wal_path(&dir);
        let mem = MemWal::new();
        for on_file in [false, true] {
            let mut p = plane();
            let sink: Box<dyn WalSink> = if on_file {
                Box::new(FileWal::create(&path).expect("create"))
            } else {
                Box::new(mem.clone())
            };
            p.attach_wal(sink).expect("attach");
            step(&mut p);
            p.checkpoint_wal(&[7]).expect("checkpoint");
            step(&mut p);
            // The crash lands mid-write: half a record reaches the log.
            let half = encode_record(&WalRecord::Begin {
                n_workers: 2,
                max_iterations: 2,
            });
            let half = &half[..half.len() / 2];
            if on_file {
                fs::OpenOptions::new()
                    .append(true)
                    .open(&path)
                    .and_then(|mut f| f.write_all(half))
                    .expect("tear");
            } else {
                WalSink::append(&mut mem.clone(), half).expect("tear");
            }
            let (payload, ops) = p.crash_restart().expect("restart");
            assert_eq!(payload, vec![7], "on_file={on_file}");
            assert!(!ops.is_empty(), "ops after the checkpoint are replayed");
            drive(&mut p, &mut |_| {});
            let bytes = if on_file {
                fs::read(&path).expect("read")
            } else {
                mem.bytes()
            };
            let log = read_log(&bytes).expect("the resumed log parses");
            assert_eq!(log.torn_bytes, 0, "on_file={on_file}");
            let mut next = 0u64;
            for rec in &log.records[1..] {
                match rec {
                    WalRecord::Op { seq, .. } => {
                        assert_eq!(*seq, next, "on_file={on_file}");
                        next += 1;
                    }
                    WalRecord::Checkpoint { seq, .. } => assert_eq!(*seq, next),
                    WalRecord::Begin { .. } => panic!("one Begin per log"),
                }
            }
            let full = recover(&bytes, p.plan(), p.config(), &meta(), 2, 2).expect("recover");
            assert_eq!(full.plane.snapshot(), p.snapshot(), "on_file={on_file}");
            assert!(p.run_complete());
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_due_writes_one_checkpoint_per_cadence_crossing() {
        let dir = temp_dir("cadence");
        for (every, want) in [(0u64, 0usize), (1, 6), (3, 2)] {
            let mut p = ControlPlane::new(small_plan(), cfg(), meta(), 2, 6);
            let opts = DurabilityOptions {
                wal_dir: Some(dir.clone()),
                checkpoint_every: every,
            };
            p.open_wal(&opts).expect("open");
            drive(&mut p, &mut |p| {
                p.checkpoint_due(Vec::new).expect("checkpoint")
            });
            let log = read_log(&fs::read(wal_path(&dir)).expect("read")).expect("parse");
            let checkpoints = log
                .records
                .iter()
                .filter(|r| matches!(r, WalRecord::Checkpoint { .. }))
                .count();
            assert_eq!(checkpoints, want, "checkpoint_every={every}");
        }
        fs::remove_dir_all(&dir).ok();
    }

    // ---- property tests (wire.rs style) ---------------------------------

    use proptest::prelude::*;

    fn arb_token() -> impl Strategy<Value = Token> {
        (
            any::<u64>(),
            0usize..4,
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            prop::collection::vec(any::<u64>(), 0..4),
            (any::<bool>(), 0usize..8),
        )
            .prop_map(
                |(id, level, iteration, seq, batch, deps, (own, owner))| Token {
                    id: TokenId(id),
                    level,
                    iteration,
                    seq,
                    batch,
                    deps: deps.into_iter().map(TokenId).collect(),
                    sample_owner: if own { Some(owner) } else { None },
                },
            )
    }

    fn arb_op() -> impl Strategy<Value = CoordOp> {
        let kinds = sample_records()
            .into_iter()
            .filter_map(|r| match r {
                WalRecord::Op { op, .. } => Some(op),
                _ => None,
            })
            .collect::<Vec<_>>();
        (0usize..kinds.len(), any::<u64>(), any::<u64>()).prop_map(move |(i, a, b)| {
            let mut op = kinds[i].clone();
            // Perturb the common numeric fields so cases vary beyond the
            // hand-built sample set.
            if let OpKind::Report { token, .. } = &mut op.kind {
                *token = a;
            }
            if let OpOutcome::Granted { token, attempt, .. } = &mut op.outcome {
                *token = a;
                *attempt = b;
            }
            op
        })
    }

    fn arb_record() -> impl Strategy<Value = WalRecord> {
        prop_oneof![
            (any::<u32>(), any::<u64>()).prop_map(|(n_workers, mi)| WalRecord::Begin {
                n_workers,
                max_iterations: mi,
            }),
            (any::<u64>(), arb_op()).prop_map(|(seq, op)| WalRecord::Op { seq, op }),
            (
                any::<u64>(),
                prop::collection::vec(any::<u8>(), 0..64),
                prop::collection::vec(arb_token(), 0..4),
            )
                .prop_map(|(seq, payload, tokens)| WalRecord::Checkpoint {
                    seq,
                    payload,
                    tokens,
                    snapshot: Box::new(sample_snapshot()),
                }),
        ]
    }

    proptest! {
        #[test]
        fn read_log_never_panics_on_arbitrary_bytes(
            bytes in prop::collection::vec(any::<u8>(), 0..512)
        ) {
            // Success or structured error — never a panic.
            let _ = read_log(&bytes);
        }

        #[test]
        fn recover_never_panics_on_arbitrary_bytes(
            bytes in prop::collection::vec(any::<u8>(), 0..512)
        ) {
            let p = plane();
            let _ = recover(&bytes, p.plan(), p.config(), &meta(), 2, 2);
        }

        #[test]
        fn arbitrary_records_round_trip_bit_exactly(rec in arb_record()) {
            let bytes = encode_record(&rec);
            let log = read_log(&bytes).expect("encoded records decode");
            prop_assert_eq!(&log.records[..], std::slice::from_ref(&rec));
            prop_assert_eq!(encode_record(&log.records[0]), bytes);
        }

        #[test]
        fn crash_at_random_offset_recovers_the_committed_prefix(
            pick in any::<u64>(),
            cut_back in 0usize..8,
            checkpoint_every in 0u64..3
        ) {
            // checkpoint → crash at a random log offset → replay must yield
            // a snapshot byte-equal to the uninterrupted plane at that
            // boundary.
            let mut p = plane();
            let mem = attach(&mut p);
            let mut boundaries = vec![mem.len()];
            let mut done_iters = 0u64;
            drive(&mut p, &mut |p| {
                boundaries.push(mem.len());
                if checkpoint_every > 0 && p.completed_iterations() > done_iters {
                    done_iters = p.completed_iterations();
                    if done_iters % checkpoint_every == 0 {
                        p.checkpoint_wal(&[]).expect("checkpoint");
                        boundaries.push(mem.len());
                    }
                }
            });
            let bytes = mem.bytes();
            let boundary = boundaries[(pick as usize) % boundaries.len()];
            // A crash mid-record: cut a few bytes past the boundary into the
            // next record — the torn tail must drop cleanly.
            let cut = (boundary + cut_back).min(bytes.len());
            let torn = recover(&bytes[..cut], p.plan(), p.config(), &meta(), 2, 2)
                .expect("torn log recovers");
            // Recovering the *clean* prefix gives the same plane.
            let clean = recover(&bytes[..cut - torn.torn_bytes], p.plan(), p.config(), &meta(), 2, 2)
                .expect("clean prefix recovers");
            prop_assert_eq!(torn.plane.snapshot(), clean.plane.snapshot());
            prop_assert_eq!(torn.next_seq, clean.next_seq);
            // And the full log reproduces the uninterrupted plane exactly.
            let full = recover(&bytes, p.plan(), p.config(), &meta(), 2, 2).expect("full");
            prop_assert_eq!(full.plane.snapshot(), p.snapshot());
            prop_assert_eq!(full.plane.tokens(), p.tokens());
        }

        #[test]
        fn crash_between_stage_and_commit_recovers_the_last_commit(
            commit_bits in any::<u64>(),
            calls in 1u32..40,
            checkpoint_every in 0u64..3,
            on_file in any::<bool>(),
        ) {
            // Ops stage; commits land at random points (and with every
            // checkpoint); the crash comes with ops still staged. The
            // restarted plane must be the one at the last commit, and the
            // dropped ops, replayed on it, must rebuild the plane that died.
            let dir = temp_dir("stage-crash");
            let mut p = plane();
            let sink: Box<dyn WalSink> = if on_file {
                Box::new(FileWal::create(&wal_path(&dir)).expect("create"))
            } else {
                Box::new(MemWal::new())
            };
            p.attach_wal(sink).expect("attach");
            p.enable_op_log();
            let mut at_commit = p.clone();
            let mut call = 0u32;
            let mut done_iters = 0u64;
            let _ = drive_staged(&mut p, &mut |p| {
                call += 1;
                if call == calls {
                    return ControlFlow::Break(());
                }
                let checkpoint = checkpoint_every > 0
                    && p.completed_iterations() > done_iters
                    && p.completed_iterations() % checkpoint_every == 0;
                done_iters = p.completed_iterations();
                if checkpoint {
                    p.checkpoint_wal(&[]).expect("checkpoint");
                } else if (commit_bits >> (call % 64)) & 1 == 1 {
                    p.commit_wal().expect("commit");
                } else {
                    return ControlFlow::Continue(());
                }
                p.take_op_log();
                at_commit = p.clone();
                ControlFlow::Continue(())
            });
            let dropped = p.take_op_log();
            prop_assert!(
                p.run_complete() || !dropped.is_empty(),
                "the crash lands with ops staged"
            );
            let crashed = p.clone();
            let commits = p.wal_commits();
            p.crash_restart().expect("restart");
            prop_assert_eq!(p.wal_commits(), commits);
            prop_assert_eq!(p.snapshot(), at_commit.snapshot());
            prop_assert_eq!(p.tokens(), at_commit.tokens());
            prop_assert_eq!(p.stats(), at_commit.stats());
            prop_assert_eq!(p.trained_per_worker(), at_commit.trained_per_worker());
            let mut replayed = p.clone();
            for op in &dropped {
                prop_assert_eq!(&apply_op(&mut replayed, &op.kind), &op.outcome);
            }
            prop_assert_eq!(replayed.snapshot(), crashed.snapshot());
            prop_assert_eq!(replayed.tokens(), crashed.tokens());
            prop_assert_eq!(replayed.stats(), crashed.stats());
            prop_assert_eq!(replayed.trained_per_worker(), crashed.trained_per_worker());
            fs::remove_dir_all(&dir).ok();
        }
    }
}
