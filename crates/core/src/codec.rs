//! The one binary codec under the wire protocol and the write-ahead log.
//!
//! Both formats are the same little-endian layout: fixed-width integers,
//! `usize` as `u64`, `bool` as one `0`/`1` byte, a list as a `u32` count
//! followed by its elements, and each frame or record behind a `u32` length
//! prefix. This module holds that layout once — the writer helpers, the
//! bounded [`Cursor`], the count-guarded list codec, the length-prefix
//! reader — and the one [`DecodeError`]. The wire module and the WAL module
//! keep only their tags and their frame and record layouts, and wrap a
//! `DecodeError` in their own error type.
//!
//! Decoding **never panics** on arbitrary bytes: every read is bounds
//! checked, and an element count or a length prefix is checked against the
//! bytes left (or a caller-given bound) before anything is allocated off it.
//! The primitives are `#[inline]`: the live server's grant path calls them
//! from another crate.

use std::fmt;

/// A byte string that is not a valid encoding.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum DecodeError {
    /// The body ended before a field could be read.
    Truncated {
        /// Bytes the field needed.
        wanted: usize,
        /// Offset the read started at.
        offset: usize,
        /// Total body length.
        body: usize,
    },
    /// Bytes remained after the last field.
    Trailing {
        /// Number of unconsumed bytes.
        extra: usize,
    },
    /// A tag byte is not part of the format.
    UnknownTag(u8),
    /// An embedded element count is impossible for the bytes that follow it
    /// (guards `Vec::with_capacity` against corrupt or adversarial counts).
    BadCount {
        /// Which field carried the count.
        what: &'static str,
        /// The claimed element count.
        count: usize,
        /// Bytes actually remaining in the body.
        remaining: usize,
    },
    /// A length prefix exceeded the format's bound — a corrupt or
    /// adversarial prefix trying to drive an unbounded allocation.
    Oversized {
        /// The claimed body length.
        len: u64,
        /// The format bound.
        max: u32,
    },
    /// A field held a value outside its domain (bad bool byte, duplicate
    /// `Begin`, out-of-range integer).
    Malformed {
        /// What was malformed.
        what: &'static str,
    },
}

impl DecodeError {
    /// Writes the error, naming what was being decoded (`"frame"`,
    /// `"record"`).
    pub fn describe(&self, f: &mut fmt::Formatter<'_>, unit: &str) -> fmt::Result {
        match self {
            DecodeError::Truncated {
                wanted,
                offset,
                body,
            } => write!(
                f,
                "{unit} truncated: wanted {wanted} bytes at offset {offset}, body is {body}"
            ),
            DecodeError::Trailing { extra } => {
                write!(f, "{extra} trailing byte(s) after {unit} body")
            }
            DecodeError::UnknownTag(tag) => write!(f, "unknown {unit} tag {tag}"),
            DecodeError::BadCount {
                what,
                count,
                remaining,
            } => write!(
                f,
                "{what} count {count} is impossible with {remaining} body byte(s) remaining"
            ),
            DecodeError::Oversized { len, max } => {
                write!(f, "{unit} of {len} bytes exceeds the {max}-byte bound")
            }
            DecodeError::Malformed { what } => write!(f, "malformed field: {what}"),
        }
    }
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.describe(f, "encoded value")
    }
}

impl std::error::Error for DecodeError {}

// ---- writer --------------------------------------------------------------

/// Appends one byte.
#[inline]
pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

/// Appends a little-endian `u32`.
#[inline]
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64`.
#[inline]
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `usize` as a little-endian `u64`.
#[inline]
pub fn put_usize(out: &mut Vec<u8>, v: usize) {
    put_u64(out, v as u64);
}

/// Appends a `bool` as one `0`/`1` byte.
#[inline]
pub fn put_bool(out: &mut Vec<u8>, v: bool) {
    put_u8(out, v as u8);
}

/// Appends a list: its `u32` element count, then each element through
/// `put`. [`Cursor::list`] reads it back.
#[inline]
pub fn put_list<T>(out: &mut Vec<u8>, list: &[T], mut put: impl FnMut(&mut Vec<u8>, &T)) {
    put_u32(out, list.len() as u32);
    for v in list {
        put(out, v);
    }
}

/// Appends a byte string: its `u32` length, then the bytes.
/// [`Cursor::bytes`] reads it back.
#[inline]
pub fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_u32(out, bytes.len() as u32);
    out.extend_from_slice(bytes);
}

// ---- reader --------------------------------------------------------------

/// The one length-prefix reader: the little-endian `u32` length at the
/// front of `bytes`, checked against `max` before anyone sizes a buffer off
/// it. `None` when `bytes` is too short to hold a prefix.
#[inline]
pub fn length_prefix(bytes: &[u8], max: u32) -> Result<Option<usize>, DecodeError> {
    let Some(prefix) = bytes.get(..4) else {
        return Ok(None);
    };
    let len = Cursor::new(prefix).u32()?;
    if len > max {
        return Err(DecodeError::Oversized {
            len: u64::from(len),
            max,
        });
    }
    Ok(Some(len as usize))
}

/// A bounded read position over one body: every read checks the bytes left
/// and fails with a [`DecodeError`] instead of panicking.
#[derive(Debug)]
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `buf`.
    #[inline]
    pub fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    /// The next `n` bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        match self.buf.get(self.pos..).and_then(|rest| rest.get(..n)) {
            Some(s) => {
                self.pos += n;
                Ok(s)
            }
            None => Err(DecodeError::Truncated {
                wanted: n,
                offset: self.pos,
                body: self.buf.len(),
            }),
        }
    }

    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    /// Bytes not yet read.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// One byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.array::<1>()?[0])
    }

    /// A little-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// A little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// A `usize` written as a `u64`.
    #[inline]
    pub fn usize(&mut self) -> Result<usize, DecodeError> {
        usize::try_from(self.u64()?).map_err(|_| DecodeError::Malformed {
            what: "usize out of range",
        })
    }

    /// A `bool` byte: `0` or `1`, anything else malformed.
    #[inline]
    pub fn boolean(&mut self) -> Result<bool, DecodeError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(DecodeError::Malformed { what: "bool byte" }),
        }
    }

    /// An element count, guarded against the bytes left: `min_elem` is the
    /// smallest encoded element, so a count the body cannot hold is a
    /// [`DecodeError::BadCount`] naming `what`, before any allocation.
    #[inline]
    pub fn count(&mut self, what: &'static str, min_elem: usize) -> Result<usize, DecodeError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_elem) > self.remaining() {
            return Err(DecodeError::BadCount {
                what,
                count: n,
                remaining: self.remaining(),
            });
        }
        Ok(n)
    }

    /// A list written by [`put_list`]: a guarded [`count`](Self::count),
    /// then that many elements through `get`.
    #[inline]
    pub fn list<T>(
        &mut self,
        what: &'static str,
        min_elem: usize,
        mut get: impl FnMut(&mut Self) -> Result<T, DecodeError>,
    ) -> Result<Vec<T>, DecodeError> {
        let n = self.count(what, min_elem)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(get(self)?);
        }
        Ok(out)
    }

    /// A byte string written by [`put_bytes`].
    #[inline]
    pub fn bytes(&mut self, what: &'static str) -> Result<&'a [u8], DecodeError> {
        let n = self.count(what, 1)?;
        self.take(n)
    }

    /// Checks that every byte was read.
    #[inline]
    pub fn done(&self) -> Result<(), DecodeError> {
        match self.remaining() {
            0 => Ok(()),
            extra => Err(DecodeError::Trailing { extra }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip_little_endian() {
        let mut out = Vec::new();
        put_u8(&mut out, 7);
        put_u32(&mut out, 0x0102_0304);
        put_u64(&mut out, u64::MAX - 1);
        put_usize(&mut out, 42);
        put_bool(&mut out, true);
        put_list(&mut out, &[1u64, 2], |o, &v| put_u64(o, v));
        put_bytes(&mut out, b"ab");
        assert_eq!(&out[1..5], &[4, 3, 2, 1]);
        let mut c = Cursor::new(&out);
        assert_eq!(c.u8(), Ok(7));
        assert_eq!(c.u32(), Ok(0x0102_0304));
        assert_eq!(c.u64(), Ok(u64::MAX - 1));
        assert_eq!(c.usize(), Ok(42));
        assert_eq!(c.boolean(), Ok(true));
        assert_eq!(c.list("xs", 8, Cursor::u64), Ok(vec![1, 2]));
        assert_eq!(c.bytes("name"), Ok(&b"ab"[..]));
        assert_eq!(c.done(), Ok(()));
    }

    #[test]
    fn short_bodies_and_leftovers_are_typed_errors() {
        let mut c = Cursor::new(&[1, 2, 3]);
        assert_eq!(
            c.u32(),
            Err(DecodeError::Truncated {
                wanted: 4,
                offset: 0,
                body: 3
            })
        );
        assert_eq!(c.u8(), Ok(1));
        assert_eq!(c.done(), Err(DecodeError::Trailing { extra: 2 }));
        assert_eq!(
            Cursor::new(&[2]).boolean(),
            Err(DecodeError::Malformed { what: "bool byte" })
        );
    }

    #[test]
    fn counts_are_guarded_at_the_smallest_element() {
        let mut out = Vec::new();
        put_u32(&mut out, 3);
        out.extend_from_slice(&[0; 23]);
        assert_eq!(
            Cursor::new(&out).count("xs", 8),
            Err(DecodeError::BadCount {
                what: "xs",
                count: 3,
                remaining: 23
            })
        );
        out.push(0);
        assert_eq!(Cursor::new(&out).count("xs", 8), Ok(3));
        let mut huge = u32::MAX.to_le_bytes().to_vec();
        huge.push(0);
        assert!(matches!(
            Cursor::new(&huge).bytes("payload"),
            Err(DecodeError::BadCount { .. })
        ));
    }

    #[test]
    fn length_prefixes_are_bounded_before_use() {
        assert_eq!(length_prefix(&[1, 0, 0], 8), Ok(None));
        assert_eq!(length_prefix(&[8, 0, 0, 0, 9], 8), Ok(Some(8)));
        assert_eq!(
            length_prefix(&[9, 0, 0, 0], 8),
            Err(DecodeError::Oversized { len: 9, max: 8 })
        );
    }
}
