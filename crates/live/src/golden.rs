//! Golden fixtures for the two binary formats the live runtime speaks: one
//! encoded frame of each [`Frame`] variant, and a small write-ahead log — a
//! `Begin`, ten ops, one checkpoint with a payload, and a torn tail. Each
//! fixture decodes to the value written out below and re-encodes byte for
//! byte, so any change to either format shows up here as a fixture diff.
//!
//! The same fixtures seed the decode proptest: seeded bit flips,
//! truncations, splices and re-checksummed record edits must leave every
//! reader — `read_log`, `recover`, `decode_frame`, and a link's frame
//! parser fed a stream or a channel message — returning a value or a typed
//! error, never panicking.

use fela_core::codec::length_prefix;
use fela_core::wal::{crc32, encode_record, read_log, recover, ReadLog, MAX_RECORD};
use fela_core::{
    CoordOp, FelaConfig, LevelMeta, LevelPlan, OpKind, OpOutcome, ServerSnapshot, ServerStats,
    Token, TokenId, TokenPlan, WalRecord,
};
use fela_sim::SimTime;
use proptest::prelude::*;

use crate::transport::FrameBuf;
use crate::wire::{decode_frame, encode_frame, Frame, WireGrant};

/// One encoded frame of each variant, in `Frame` declaration order.
const FRAME_FIXTURES: [&[u8]; 10] = [
    include_bytes!("../fixtures/hello.frame"),
    include_bytes!("../fixtures/cost_query.frame"),
    include_bytes!("../fixtures/cost_reply.frame"),
    include_bytes!("../fixtures/request.frame"),
    include_bytes!("../fixtures/grant_batch.frame"),
    include_bytes!("../fixtures/report_batch.frame"),
    include_bytes!("../fixtures/iter.frame"),
    include_bytes!("../fixtures/hang.frame"),
    include_bytes!("../fixtures/end.frame"),
    include_bytes!("../fixtures/params.frame"),
];

/// A log written by a two-worker, two-iteration plane, cut 11 bytes into the
/// record after its last commit.
const WAL_FIXTURE: &[u8] = include_bytes!("../fixtures/golden.wal");

/// The torn tail of [`WAL_FIXTURE`].
const WAL_TORN_BYTES: usize = 11;

/// The values of [`FRAME_FIXTURES`], one per `Frame` variant.
pub(crate) fn expected_frames() -> [Frame; 10] {
    [
        Frame::Hello { worker: 3 },
        Frame::CostQuery {
            worker: 1,
            token: 42,
            level: 2,
            unit_start: 10,
            unit_end: 19,
            batch: 64,
            iteration: 7,
        },
        Frame::CostReply {
            token: 42,
            secs_bits: 0.125f64.to_bits(),
        },
        Frame::Request { worker: 0 },
        Frame::GrantBatch {
            grants: vec![
                WireGrant {
                    token: 11,
                    level: 1,
                    iteration: 2,
                    batch: 8,
                    unit_start: 3,
                    unit_end: 7,
                },
                WireGrant {
                    token: 12,
                    level: 0,
                    iteration: 2,
                    batch: 8,
                    unit_start: 0,
                    unit_end: 3,
                },
            ],
        },
        Frame::ReportBatch {
            worker: 5,
            tokens: vec![11, 12, 13],
        },
        Frame::Iter {
            iteration: 2,
            schedule: vec![(0, 0), (0, 1), (1, 0)],
        },
        Frame::Hang { nanos: 1_000_000 },
        Frame::End,
        Frame::Params {
            bytes: vec![1, 2, 3, 4],
        },
    ]
}

fn request(worker: usize, token: u64, fetches: Vec<(usize, u64)>) -> CoordOp {
    CoordOp {
        kind: OpKind::Request {
            worker,
            now: SimTime::ZERO,
        },
        outcome: OpOutcome::Granted {
            worker,
            token,
            attempt: 0,
            conflict: false,
            fetches,
        },
    }
}

fn report(worker: usize, token: u64, syncs: Vec<(usize, u64)>) -> CoordOp {
    CoordOp {
        kind: OpKind::Report { worker, token },
        outcome: OpOutcome::Synced { syncs },
    }
}

fn sync(level: usize, iteration: u64) -> CoordOp {
    CoordOp {
        kind: OpKind::SyncFinished { level, iteration },
        outcome: OpOutcome::Done,
    }
}

fn token(id: u64, level: usize, iteration: u64, seq: u64, batch: u64) -> Token {
    Token {
        id: TokenId(id),
        level,
        iteration,
        seq,
        batch,
        deps: Vec::new(),
        sample_owner: None,
    }
}

fn expected_wal() -> Vec<WalRecord> {
    // A root's sample owner is the worker its seq names.
    let root = |id, iteration, seq| Token {
        sample_owner: Some(seq as usize),
        ..token(id, 0, iteration, seq, 4)
    };
    let mut payload = 2u32.to_le_bytes().to_vec();
    for v in [0u64, 0, 0, 1] {
        payload.extend_from_slice(&v.to_le_bytes());
    }
    let checkpoint = WalRecord::Checkpoint {
        seq: 5,
        payload,
        tokens: vec![
            root(0, 0, 0),
            root(1, 0, 1),
            Token {
                deps: vec![TokenId(0), TokenId(1)],
                ..token(2, 1, 0, 0, 8)
            },
            root(3, 1, 0),
            root(4, 1, 1),
        ],
        snapshot: Box::new(ServerSnapshot {
            released_roots: 2,
            next_token_id: 5,
            stbs: vec![vec![vec![3], vec![]], vec![vec![4], vec![2]]],
            pending: vec![vec![], vec![]],
            synced_upto: vec![1, 0],
            synced_out_of_order: vec![vec![], vec![]],
            completed: vec![vec![], vec![]],
            gen_buffers: vec![vec![], vec![]],
            holder: vec![(0, 0), (1, 1)],
            waiting: vec![],
            helpers: vec![0, 0],
            alive: vec![true, true],
            quarantined: vec![false, false],
            leases: vec![],
            attempts: vec![],
            expiry_counts: vec![0, 0],
            data_home: vec![0, 1],
            parked: vec![],
            last_grant_at: vec![None, None],
            trained_per_worker: vec![1, 1],
            stats: ServerStats {
                grants: 2,
                local_grants: 2,
                steals: 0,
                conflicts: 0,
                remote_fetch_bytes: 0,
                starved_requests: 0,
            },
        }),
    };
    let ops = [
        request(0, 0, vec![]),
        report(0, 0, vec![]),
        request(1, 1, vec![]),
        report(1, 1, vec![(0, 0)]),
        sync(0, 0),
        request(0, 3, vec![]),
        report(0, 3, vec![]),
        request(1, 2, vec![(0, 256)]),
        report(1, 2, vec![(1, 0)]),
        sync(1, 0),
    ];
    let mut records = vec![WalRecord::Begin {
        n_workers: 2,
        max_iterations: 2,
    }];
    for (seq, op) in ops.into_iter().enumerate() {
        if seq == 5 {
            records.push(checkpoint.clone());
        }
        records.push(WalRecord::Op {
            seq: seq as u64,
            op,
        });
    }
    records
}

#[test]
fn every_frame_fixture_decodes_and_re_encodes_byte_for_byte() {
    for (bytes, frame) in FRAME_FIXTURES.into_iter().zip(expected_frames()) {
        assert_eq!(decode_frame(bytes).as_ref(), Ok(&frame));
        assert_eq!(
            FrameBuf::default().recv_from(&mut &bytes[..]).as_ref(),
            Ok(&frame)
        );
        assert_eq!(encode_frame(&frame), bytes, "{frame:?}");
    }
}

#[test]
fn the_wal_fixture_decodes_and_re_encodes_byte_for_byte() {
    let records = expected_wal();
    assert_eq!(
        read_log(WAL_FIXTURE),
        Ok(ReadLog {
            records: records.clone(),
            torn_bytes: WAL_TORN_BYTES,
        })
    );
    let encoded: Vec<u8> = records.iter().flat_map(encode_record).collect();
    assert_eq!(encoded, WAL_FIXTURE[..WAL_FIXTURE.len() - WAL_TORN_BYTES]);
}

// ---- mutation proptest ----------------------------------------------------

/// The plane [`WAL_FIXTURE`] was written under: two workers, two iterations,
/// two levels.
fn fixture_plane() -> (TokenPlan, FelaConfig, Vec<LevelMeta>) {
    let plan = TokenPlan {
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
    };
    let meta = [(4096, 64), (8192, 32)]
        .map(|(param_bytes, output_bytes_per_sample)| LevelMeta {
            param_bytes,
            output_bytes_per_sample,
            input_bytes_per_sample: 64,
            comm_intensive: false,
        })
        .to_vec();
    (plan, FelaConfig::new(2).with_weights(vec![1, 2]), meta)
}

/// Mutations applied per proptest case.
const ROUNDS: usize = 64;

/// One SplitMix64 step: the mutation stream of a seed.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform index below `n` (0 when `n` is 0).
fn below(rng: &mut u64, n: usize) -> usize {
    (next(rng) % n.max(1) as u64) as usize
}

/// The body offsets and lengths of every complete record in a log.
fn record_bodies(log: &[u8]) -> Vec<(usize, usize)> {
    let mut bodies = Vec::new();
    let mut off = 0;
    while let Ok(Some(len)) = length_prefix(log.get(off..off + 8).unwrap_or_default(), MAX_RECORD) {
        if off + 8 + len > log.len() {
            break;
        }
        bodies.push((off + 8, len));
        off += 8 + len;
    }
    bodies
}

/// One to three seeded mutations of `bytes`: a bit flip, a truncation, a
/// splice onto a suffix of `donor`, or a re-checksummed edit. On a log that
/// last one flips a bit inside one record body and rewrites its checksum,
/// so the edit reaches the decoder and the restore behind the checksum; a
/// frame has no checksum, so there it flips a bit past the length prefix.
fn mutate(bytes: &[u8], donor: &[u8], log: bool, rng: &mut u64) -> Vec<u8> {
    let mut out = bytes.to_vec();
    for _ in 0..1 + below(rng, 3) {
        match next(rng) % 4 {
            0 if !out.is_empty() => {
                let at = below(rng, out.len());
                out[at] ^= 1 << (next(rng) % 8);
            }
            1 => out.truncate(below(rng, out.len() + 1)),
            2 => {
                out.truncate(below(rng, out.len() + 1));
                out.extend_from_slice(&donor[below(rng, donor.len() + 1)..]);
            }
            _ if log => {
                let bodies = record_bodies(&out);
                let picked = bodies.get(below(rng, bodies.len()));
                if let Some(&(start, len)) = picked.filter(|&&(_, len)| len > 0) {
                    let at = start + below(rng, len);
                    out[at] ^= 1 << (next(rng) % 8);
                    let crc = crc32(&out[start..start + len]);
                    out[start - 4..start].copy_from_slice(&crc.to_le_bytes());
                }
            }
            _ if out.len() > 4 => {
                let at = 4 + below(rng, out.len() - 4);
                out[at] ^= 1 << (next(rng) % 8);
            }
            _ => {}
        }
    }
    out
}

/// Every frame reader over `bytes`; each must return, not panic.
fn read_frames(bytes: &[u8]) {
    let _ = decode_frame(bytes);
    let _ = FrameBuf::default().recv_from(&mut &bytes[..]);
    let mut buf = FrameBuf::default();
    buf.extend(bytes);
    while let Ok(Some(_)) = buf.next_frame() {}
}

#[test]
fn the_wal_fixture_recovers_on_its_plane() {
    let (plan, cfg, meta) = fixture_plane();
    let rec = match recover(WAL_FIXTURE, &plan, &cfg, &meta, 2, 2) {
        Ok(rec) => rec,
        Err(e) => panic!("the fixture must recover: {e}"),
    };
    assert_eq!(rec.torn_bytes, WAL_TORN_BYTES);
    assert_eq!(rec.next_seq, 10);
    assert_eq!(rec.ops.len(), 5);
}

proptest! {
    #[test]
    fn mutated_fixtures_decode_to_a_value_or_a_typed_error(seed in any::<u64>()) {
        let (plan, cfg, meta) = fixture_plane();
        let mut rng = seed;
        for _ in 0..ROUNDS {
            let log = mutate(WAL_FIXTURE, WAL_FIXTURE, true, &mut rng);
            let _ = read_log(&log);
            let _ = recover(&log, &plan, &cfg, &meta, 2, 2);
            let frame = FRAME_FIXTURES[below(&mut rng, FRAME_FIXTURES.len())];
            let donor = FRAME_FIXTURES[below(&mut rng, FRAME_FIXTURES.len())];
            read_frames(&mutate(frame, donor, false, &mut rng));
        }
    }
}
