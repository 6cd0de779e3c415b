//! The wire protocol: length-prefixed binary frames.
//!
//! Every message between the live Token Server and a worker — on *both*
//! transports, including the in-process channel one — is one [`Frame`],
//! serialized by [`encode_frame`] as a little-endian `u32` body length
//! followed by a one-byte frame tag and the fields in declaration order.
//! The primitives, lists and length prefix are [`fela_core::codec`]'s,
//! shared with the write-ahead log; this module holds only the tags and the
//! frame layouts. It does no I/O: a link encodes into its send buffer with
//! [`encode_frame_into`] and decodes every received frame in its one
//! incremental parser ([`crate::transport`]), which calls [`decode_body`].
//!
//! `f64` values travel as raw IEEE-754 bits, so a value crosses the wire
//! without any formatting round trip.

use std::io;

use fela_core::codec::{
    length_prefix, put_bytes, put_list, put_u32, put_u64, put_u8, Cursor, DecodeError,
};

/// Maximum accepted frame body, a defensive bound against corrupt length
/// prefixes (the largest legitimate frame is a `Params` payload of a few KB).
pub const MAX_FRAME: u32 = 16 * 1024 * 1024;

/// One protocol message.
#[derive(Clone, PartialEq, Debug)]
pub enum Frame {
    /// Connection handshake: identifies which worker owns the link.
    Hello {
        /// Worker index.
        worker: u32,
    },
    /// Server → worker: price this compute span. No runtime sends it (a
    /// virtual-clock run prices spans with the simulator's own model); a
    /// worker drops a link that delivers one. ROADMAP item 1 removes it.
    CostQuery {
        /// Worker the token was granted to.
        worker: u32,
        /// Token id (echoed in the reply for correlation).
        token: u64,
        /// Sub-model level.
        level: u32,
        /// First model unit (inclusive).
        unit_start: u32,
        /// Last model unit (exclusive).
        unit_end: u32,
        /// Samples the token covers.
        batch: u64,
        /// Iteration the token belongs to.
        iteration: u64,
    },
    /// Worker → server: the span costs these seconds. No runtime sends it;
    /// ROADMAP item 1 removes it.
    CostReply {
        /// Token id being answered.
        token: u64,
        /// `f64::to_bits` of the span seconds (bit-exact transfer).
        secs_bits: u64,
    },
    /// Real-clock mode, worker → server: the worker is idle and pulls work.
    Request {
        /// Requesting worker.
        worker: u32,
    },
    /// Real-clock mode, server → worker: train these tokens, in order. Every
    /// grant ships in one of these, one token or many; a batch amortizes the
    /// grant hot path (one syscall, one flush) over its tokens.
    GrantBatch {
        /// The granted tokens, in grant order.
        grants: Vec<WireGrant>,
    },
    /// Real-clock mode, worker → server: these tokens are trained, gradients
    /// ready, in completion order. Every report ships in one of these.
    ReportBatch {
        /// Reporting worker.
        worker: u32,
        /// Completed token ids, oldest first.
        tokens: Vec<u64>,
    },
    /// Server → worker: one committed iteration's token schedule, as
    /// `(level, completion_index)` pairs — the worker applies it to its
    /// `fela-engine` model replica.
    Iter {
        /// Iteration number.
        iteration: u64,
        /// Completion-ordered `(level, index)` schedule.
        schedule: Vec<(u32, u32)>,
    },
    /// Server → worker fault injection: freeze for this long before
    /// processing anything else (drives real lease expiry).
    Hang {
        /// Real nanoseconds to sleep.
        nanos: u64,
    },
    /// Server → worker: run over; reply with `Params` and exit.
    End,
    /// Worker → server: the replica's final parameters, flattened LE `f32`s.
    Params {
        /// Raw little-endian parameter bytes.
        bytes: Vec<u8>,
    },
}

/// One grant inside a [`Frame::GrantBatch`], packed as a plain value so a
/// batch encodes as a count followed by fixed-size records.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct WireGrant {
    /// Token id.
    pub token: u64,
    /// Sub-model level.
    pub level: u32,
    /// Iteration.
    pub iteration: u64,
    /// Samples.
    pub batch: u64,
    /// First model unit (inclusive).
    pub unit_start: u32,
    /// Last model unit (exclusive).
    pub unit_end: u32,
}

/// Encoded size of one [`WireGrant`] record.
const WIRE_GRANT_BYTES: usize = 8 + 4 + 8 + 8 + 4 + 4;

/// Wire-protocol failure: the peer sent bytes that are not a valid frame, or
/// the underlying stream failed mid-frame.
///
/// Structured (not a bare `io::Error`) so callers — and the protocol session
/// verifier in `fela-check` — can distinguish a corrupt peer from a dead link
/// without string matching.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum WireError {
    /// The frame body or its length prefix is not a valid encoding.
    Decode(DecodeError),
    /// The buffer is too short to even hold the length prefix.
    MissingPrefix,
    /// The length prefix disagrees with the buffer handed to `decode_frame`.
    LengthMismatch {
        /// Length the prefix claimed.
        prefix: usize,
        /// Bytes actually present after the prefix.
        actual: usize,
    },
    /// The underlying stream failed (peer gone, reset, short read).
    Io(io::ErrorKind),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Decode(e) => e.describe(f, "frame"),
            WireError::MissingPrefix => write!(f, "missing length prefix"),
            WireError::LengthMismatch { prefix, actual } => write!(
                f,
                "length prefix {prefix} disagrees with buffer size {actual}"
            ),
            WireError::Io(kind) => write!(f, "stream failed mid-frame: {kind}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<WireError> for io::Error {
    fn from(e: WireError) -> io::Error {
        match e {
            WireError::Io(kind) => io::Error::new(kind, e),
            _ => io::Error::new(io::ErrorKind::InvalidData, e),
        }
    }
}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> WireError {
        WireError::Io(e.kind())
    }
}

impl From<DecodeError> for WireError {
    fn from(e: DecodeError) -> WireError {
        WireError::Decode(e)
    }
}

const TAG_HELLO: u8 = 1;
const TAG_COST_QUERY: u8 = 2;
const TAG_COST_REPLY: u8 = 3;
const TAG_REQUEST: u8 = 4;
// Tags 5 and 6 are retired and must not be reused: a peer still sending them
// gets `UnknownTag`, never a misparse.
const TAG_ITER: u8 = 7;
const TAG_HANG: u8 = 8;
const TAG_END: u8 = 9;
const TAG_PARAMS: u8 = 10;
const TAG_GRANT_BATCH: u8 = 11;
const TAG_REPORT_BATCH: u8 = 12;

/// Exact encoded body size (tag byte included) of one frame.
///
/// The hot-path encoder pre-reserves exactly this many bytes, so batched
/// frames never reallocate mid-encode; exactness is property-tested against
/// [`encode_frame`] for every variant.
pub fn body_len(frame: &Frame) -> usize {
    1 + match frame {
        Frame::Hello { .. } | Frame::Request { .. } => 4,
        Frame::CostQuery { .. } => 4 + 8 + 4 + 4 + 4 + 8 + 8,
        Frame::CostReply { .. } => 8 + 8,
        Frame::GrantBatch { grants } => 4 + WIRE_GRANT_BYTES * grants.len(),
        Frame::ReportBatch { tokens, .. } => 4 + 4 + 8 * tokens.len(),
        Frame::Iter { schedule, .. } => 8 + 4 + 8 * schedule.len(),
        Frame::Hang { .. } => 8,
        Frame::End => 0,
        Frame::Params { bytes } => 4 + bytes.len(),
    }
}

fn put_grant(out: &mut Vec<u8>, g: &WireGrant) {
    put_u64(out, g.token);
    put_u32(out, g.level);
    put_u64(out, g.iteration);
    put_u64(out, g.batch);
    put_u32(out, g.unit_start);
    put_u32(out, g.unit_end);
}

fn get_grant(c: &mut Cursor<'_>) -> Result<WireGrant, DecodeError> {
    Ok(WireGrant {
        token: c.u64()?,
        level: c.u32()?,
        iteration: c.u64()?,
        batch: c.u64()?,
        unit_start: c.u32()?,
        unit_end: c.u32()?,
    })
}

/// Serializes one frame — `[body_len: u32 LE][tag: u8][fields...]` — by
/// *appending* to `out`, reserving the exact encoded size up front
/// ([`body_len`]). This is the hot-path entry: a link keeps one buffer alive
/// across frames instead of allocating a fresh `Vec` per frame, and a batch
/// flush queues several frames into it before one write.
pub fn encode_frame_into(out: &mut Vec<u8>, frame: &Frame) {
    let body = body_len(frame);
    out.reserve(4 + body);
    let start = out.len();
    put_u32(out, body as u32);
    match frame {
        Frame::Hello { worker } => {
            put_u8(out, TAG_HELLO);
            put_u32(out, *worker);
        }
        Frame::CostQuery {
            worker,
            token,
            level,
            unit_start,
            unit_end,
            batch,
            iteration,
        } => {
            put_u8(out, TAG_COST_QUERY);
            put_u32(out, *worker);
            put_u64(out, *token);
            put_u32(out, *level);
            put_u32(out, *unit_start);
            put_u32(out, *unit_end);
            put_u64(out, *batch);
            put_u64(out, *iteration);
        }
        Frame::CostReply { token, secs_bits } => {
            put_u8(out, TAG_COST_REPLY);
            put_u64(out, *token);
            put_u64(out, *secs_bits);
        }
        Frame::Request { worker } => {
            put_u8(out, TAG_REQUEST);
            put_u32(out, *worker);
        }
        Frame::GrantBatch { grants } => {
            put_u8(out, TAG_GRANT_BATCH);
            put_list(out, grants, put_grant);
        }
        Frame::ReportBatch { worker, tokens } => {
            put_u8(out, TAG_REPORT_BATCH);
            put_u32(out, *worker);
            put_list(out, tokens, |o, &t| put_u64(o, t));
        }
        Frame::Iter {
            iteration,
            schedule,
        } => {
            put_u8(out, TAG_ITER);
            put_u64(out, *iteration);
            put_list(out, schedule, |o, &(level, idx)| {
                put_u32(o, level);
                put_u32(o, idx);
            });
        }
        Frame::Hang { nanos } => {
            put_u8(out, TAG_HANG);
            put_u64(out, *nanos);
        }
        Frame::End => put_u8(out, TAG_END),
        Frame::Params { bytes } => {
            put_u8(out, TAG_PARAMS);
            put_bytes(out, bytes);
        }
    }
    debug_assert_eq!(out.len() - start, 4 + body, "body_len must be exact");
}

/// Serializes one frame into a fresh buffer: `[body_len: u32 LE][tag: u8]
/// [fields...]`. Cold-path convenience over [`encode_frame_into`].
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + body_len(frame));
    encode_frame_into(&mut out, frame);
    out
}

/// Decodes one frame body (the bytes *after* the length prefix).
pub fn decode_body(body: &[u8]) -> Result<Frame, WireError> {
    let mut c = Cursor::new(body);
    let frame = match c.u8()? {
        TAG_HELLO => Frame::Hello { worker: c.u32()? },
        TAG_COST_QUERY => Frame::CostQuery {
            worker: c.u32()?,
            token: c.u64()?,
            level: c.u32()?,
            unit_start: c.u32()?,
            unit_end: c.u32()?,
            batch: c.u64()?,
            iteration: c.u64()?,
        },
        TAG_COST_REPLY => Frame::CostReply {
            token: c.u64()?,
            secs_bits: c.u64()?,
        },
        TAG_REQUEST => Frame::Request { worker: c.u32()? },
        TAG_GRANT_BATCH => Frame::GrantBatch {
            grants: c.list("GrantBatch grants", WIRE_GRANT_BYTES, get_grant)?,
        },
        TAG_REPORT_BATCH => Frame::ReportBatch {
            worker: c.u32()?,
            tokens: c.list("ReportBatch tokens", 8, Cursor::u64)?,
        },
        TAG_ITER => Frame::Iter {
            iteration: c.u64()?,
            schedule: c.list("Iter schedule", 8, |c| Ok((c.u32()?, c.u32()?)))?,
        },
        TAG_HANG => Frame::Hang { nanos: c.u64()? },
        TAG_END => Frame::End,
        TAG_PARAMS => Frame::Params {
            bytes: c.bytes("Params payload")?.to_vec(),
        },
        other => return Err(DecodeError::UnknownTag(other).into()),
    };
    c.done()?;
    Ok(frame)
}

/// Decodes one length-prefixed frame from a full byte buffer.
pub fn decode_frame(bytes: &[u8]) -> Result<Frame, WireError> {
    let len = length_prefix(bytes, MAX_FRAME)?.ok_or(WireError::MissingPrefix)?;
    let body = &bytes[4..];
    if body.len() != len {
        return Err(WireError::LengthMismatch {
            prefix: len,
            actual: body.len(),
        });
    }
    decode_body(body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::FrameBuf;
    use proptest::prelude::*;
    use std::io::Read;

    fn sample_frames() -> Vec<Frame> {
        vec![
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

    #[test]
    fn every_frame_round_trips() {
        for f in sample_frames() {
            let bytes = encode_frame(&f);
            assert_eq!(decode_frame(&bytes).expect("round trip"), f, "{f:?}");
        }
    }

    #[test]
    fn stream_io_round_trips_back_to_back_frames() {
        let frames = sample_frames();
        let mut buf = Vec::new();
        for f in &frames {
            encode_frame_into(&mut buf, f);
        }
        let mut r = &buf[..];
        let mut parse = FrameBuf::default();
        for f in &frames {
            assert_eq!(&parse.recv_from(&mut r).expect("read"), f);
        }
        assert!(r.is_empty());
    }

    #[test]
    fn truncated_and_trailing_bytes_are_rejected() {
        let bytes = encode_frame(&Frame::CostReply {
            token: 1,
            secs_bits: 2,
        });
        assert!(matches!(
            decode_frame(&bytes[..bytes.len() - 1]),
            Err(WireError::LengthMismatch { .. })
        ));
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(matches!(
            decode_frame(&padded),
            Err(WireError::LengthMismatch { .. })
        ));
        for tag in [5, 6, 99] {
            assert_eq!(
                decode_body(&[tag]),
                Err(WireError::Decode(DecodeError::UnknownTag(tag)))
            );
        }
        assert!(matches!(
            decode_body(&bytes[4..bytes.len() - 1]),
            Err(WireError::Decode(DecodeError::Truncated { .. }))
        ));
        let mut body_padded = bytes[4..].to_vec();
        body_padded.push(0);
        assert!(matches!(
            decode_body(&body_padded),
            Err(WireError::Decode(DecodeError::Trailing { extra: 1 }))
        ));
        assert_eq!(decode_frame(&[1, 2]), Err(WireError::MissingPrefix));
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocation() {
        // A corrupt prefix claiming a 4 GiB-1 body must fail fast without
        // the reader ever attempting the allocation.
        let bytes = u32::MAX.to_le_bytes();
        let mut r = &bytes[..];
        assert_eq!(
            FrameBuf::default().recv_from(&mut r),
            Err(WireError::Decode(DecodeError::Oversized {
                len: u64::from(u32::MAX),
                max: MAX_FRAME,
            }))
        );
        let mut buf = bytes.to_vec();
        buf.push(0);
        assert!(matches!(
            decode_frame(&buf),
            Err(WireError::Decode(DecodeError::Oversized { .. }))
        ));
    }

    #[test]
    fn impossible_embedded_counts_are_rejected_before_allocation() {
        // Iter claiming u32::MAX schedule pairs in an 8-byte-ish body.
        let mut body = vec![TAG_ITER];
        body.extend_from_slice(&7u64.to_le_bytes());
        body.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_body(&body),
            Err(WireError::Decode(DecodeError::BadCount {
                what: "Iter schedule",
                ..
            }))
        ));
        // Params claiming more payload bytes than the body holds.
        let mut body = vec![TAG_PARAMS];
        body.extend_from_slice(&u32::MAX.to_le_bytes());
        body.push(1);
        assert!(matches!(
            decode_body(&body),
            Err(WireError::Decode(DecodeError::BadCount {
                what: "Params payload",
                ..
            }))
        ));
        // GrantBatch claiming u32::MAX records in a near-empty body.
        let mut body = vec![TAG_GRANT_BATCH];
        body.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_body(&body),
            Err(WireError::Decode(DecodeError::BadCount {
                what: "GrantBatch grants",
                ..
            }))
        ));
        // ReportBatch claiming more token ids than bytes remain.
        let mut body = vec![TAG_REPORT_BATCH];
        body.extend_from_slice(&3u32.to_le_bytes());
        body.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_body(&body),
            Err(WireError::Decode(DecodeError::BadCount {
                what: "ReportBatch tokens",
                ..
            }))
        ));
    }

    #[test]
    fn stream_failures_surface_as_io_kind() {
        let mut empty: &[u8] = &[];
        assert_eq!(
            FrameBuf::default().recv_from(&mut empty),
            Err(WireError::Io(io::ErrorKind::UnexpectedEof))
        );
        let err = io::Error::from(WireError::Io(io::ErrorKind::ConnectionReset));
        assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
        let err = io::Error::from(WireError::Decode(DecodeError::UnknownTag(42)));
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn cost_reply_is_bit_exact_for_awkward_floats() {
        for secs in [0.1, 1e-12, 12345.678901234567, f64::MIN_POSITIVE] {
            let f = Frame::CostReply {
                token: 1,
                secs_bits: secs.to_bits(),
            };
            match decode_frame(&encode_frame(&f)).expect("round trip") {
                Frame::CostReply { secs_bits, .. } => {
                    assert_eq!(f64::from_bits(secs_bits).to_bits(), secs.to_bits());
                }
                other => panic!("wrong frame {other:?}"),
            }
        }
    }

    /// A reader that hands out at most `chunk` bytes per `read` call — the
    /// shape of a TCP stream delivering a frame across several segments.
    struct Chunked<'a> {
        data: &'a [u8],
        chunk: usize,
    }

    impl Read for Chunked<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = self.chunk.min(self.data.len()).min(buf.len());
            buf[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    #[test]
    fn frames_survive_arbitrarily_segmented_streams() {
        // Regression for the TCP short-read case: a link's receive must
        // reassemble a frame delivered one byte at a time, and a stream that
        // dies mid-body must surface as an EOF error, never a panic or a
        // mis-framed success.
        let frames = sample_frames();
        let mut buf = Vec::new();
        for f in &frames {
            encode_frame_into(&mut buf, f);
        }
        for chunk in [1, 2, 3, 7] {
            let mut r = Chunked { data: &buf, chunk };
            let mut parse = FrameBuf::default();
            for f in &frames {
                assert_eq!(&parse.recv_from(&mut r).expect("chunked read"), f);
            }
        }
        let cut = encode_frame(&Frame::Iter {
            iteration: 3,
            schedule: vec![(0, 0), (1, 1)],
        });
        for short in 1..cut.len() {
            let mut r = Chunked {
                data: &cut[..short],
                chunk: 1,
            };
            assert_eq!(
                FrameBuf::default().recv_from(&mut r),
                Err(WireError::Io(io::ErrorKind::UnexpectedEof)),
                "short read at {short}/{} bytes",
                cut.len()
            );
        }
    }

    /// An arbitrary `WireGrant` record.
    fn arb_wire_grant() -> impl Strategy<Value = WireGrant> {
        (
            any::<u64>(),
            any::<u32>(),
            any::<u64>(),
            any::<u64>(),
            any::<u32>(),
            any::<u32>(),
        )
            .prop_map(
                |(token, level, iteration, batch, unit_start, unit_end)| WireGrant {
                    token,
                    level,
                    iteration,
                    batch,
                    unit_start,
                    unit_end,
                },
            )
    }

    /// Every `Frame` variant, with arbitrary field values.
    fn arb_frame() -> impl Strategy<Value = Frame> {
        prop_oneof![
            any::<u32>().prop_map(|worker| Frame::Hello { worker }),
            (
                any::<u32>(),
                any::<u64>(),
                any::<u32>(),
                any::<u32>(),
                any::<u32>(),
                any::<u64>(),
                any::<u64>(),
            )
                .prop_map(
                    |(worker, token, level, unit_start, unit_end, batch, iteration)| {
                        Frame::CostQuery {
                            worker,
                            token,
                            level,
                            unit_start,
                            unit_end,
                            batch,
                            iteration,
                        }
                    }
                ),
            (any::<u64>(), any::<u64>())
                .prop_map(|(token, secs_bits)| Frame::CostReply { token, secs_bits }),
            any::<u32>().prop_map(|worker| Frame::Request { worker }),
            prop::collection::vec(arb_wire_grant(), 0..32)
                .prop_map(|grants| Frame::GrantBatch { grants }),
            (any::<u32>(), prop::collection::vec(any::<u64>(), 0..64))
                .prop_map(|(worker, tokens)| Frame::ReportBatch { worker, tokens }),
            (
                any::<u64>(),
                prop::collection::vec((any::<u32>(), any::<u32>()), 0..64),
            )
                .prop_map(|(iteration, schedule)| Frame::Iter {
                    iteration,
                    schedule,
                }),
            any::<u64>().prop_map(|nanos| Frame::Hang { nanos }),
            Just(Frame::End),
            prop::collection::vec(any::<u8>(), 0..256).prop_map(|bytes| Frame::Params { bytes }),
        ]
    }

    proptest! {
        #[test]
        fn decode_frame_never_panics_on_arbitrary_bytes(
            bytes in prop::collection::vec(any::<u8>(), 0..512),
        ) {
            // Any outcome is fine — Ok for the rare byte string that happens
            // to be a valid frame, a structured WireError otherwise — but the
            // decoder must never panic or overflow on attacker-shaped input.
            let _ = decode_frame(&bytes);
            let _ = decode_body(&bytes);
            let mut r = &bytes[..];
            let _ = FrameBuf::default().recv_from(&mut r);
        }

        #[test]
        fn every_variant_round_trips_bit_exactly(f in arb_frame()) {
            prop_assert_eq!(decode_frame(&encode_frame(&f)).unwrap(), f.clone());
            // And through the stream path, including a 1-byte-chunk reader.
            let buf = encode_frame(&f);
            let mut r = Chunked { data: &buf, chunk: 1 };
            prop_assert_eq!(FrameBuf::default().recv_from(&mut r).unwrap(), f);
        }

        #[test]
        fn iter_frames_round_trip(
            iteration in 0u64..1000,
            pairs in prop::collection::vec((0u32..8, 0u32..64), 0..40),
        ) {
            let f = Frame::Iter { iteration, schedule: pairs.clone() };
            prop_assert_eq!(decode_frame(&encode_frame(&f)).unwrap(), f);
        }

        #[test]
        fn body_len_is_exact_for_every_variant(f in arb_frame()) {
            // The hot-path encoder pre-reserves body_len bytes; exactness is
            // what guarantees batched frames never reallocate mid-encode.
            let encoded = encode_frame(&f);
            prop_assert_eq!(encoded.len(), 4 + body_len(&f));
            // And appending into a pre-reserved buffer does not grow it.
            let mut buf = Vec::with_capacity(4 + body_len(&f));
            let cap = buf.capacity();
            encode_frame_into(&mut buf, &f);
            prop_assert_eq!(buf.capacity(), cap, "encode must not reallocate");
            prop_assert_eq!(buf, encoded);
        }

        #[test]
        fn grant_batch_frames_round_trip_bit_exactly(
            grants in prop::collection::vec(arb_wire_grant(), 0..48),
        ) {
            let f = Frame::GrantBatch { grants };
            prop_assert_eq!(decode_frame(&encode_frame(&f)).unwrap(), f.clone());
            let buf = encode_frame(&f);
            let mut r = Chunked { data: &buf, chunk: 1 };
            prop_assert_eq!(FrameBuf::default().recv_from(&mut r).unwrap(), f);
        }

        #[test]
        fn report_batch_frames_round_trip_bit_exactly(
            worker in any::<u32>(),
            tokens in prop::collection::vec(any::<u64>(), 0..64),
        ) {
            let f = Frame::ReportBatch { worker, tokens };
            prop_assert_eq!(decode_frame(&encode_frame(&f)).unwrap(), f);
        }
    }
}
