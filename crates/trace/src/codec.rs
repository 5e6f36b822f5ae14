//! Compact binary serialisation of temporal profiles.
//!
//! Sampled profiles are the system's only persistent artifact: an
//! off-line static prefetching scheme (paper §1, \[10\]) needs profiles
//! saved from a training run, and tooling wants to move them between
//! processes. The format is deliberately simple and fully versioned:
//!
//! ```text
//! magic "HDSP" | format version u8 | burst count (varint)
//! per burst: reference count (varint)
//! per reference: pc delta (zigzag varint) | addr delta (zigzag varint)
//! ```
//!
//! Consecutive references are delta-encoded (streams revisit nearby
//! addresses, so deltas are small); each burst restarts the predictor so
//! bursts stay independently decodable in sequence.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::buffer::TraceBuffer;
use crate::types::{Addr, DataRef, Pc};

/// Magic bytes identifying a profile blob.
const MAGIC: &[u8; 4] = b"HDSP";
/// Current format version.
const VERSION: u8 = 1;

/// Errors from [`decode_profile`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// The blob does not start with the `HDSP` magic.
    BadMagic,
    /// The format version is newer than this library understands.
    UnsupportedVersion(
        /// The version found in the blob.
        u8,
    ),
    /// The blob ended in the middle of a field.
    Truncated,
    /// A varint ran past its maximum width.
    Overlong,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::BadMagic => f.write_str("not an HDSP profile (bad magic)"),
            CodecError::UnsupportedVersion(v) => write!(f, "unsupported profile version {v}"),
            CodecError::Truncated => f.write_str("profile truncated"),
            CodecError::Overlong => f.write_str("overlong varint in profile"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Appends an LEB128-style varint (7 data bits per byte, high bit =
/// continuation). Public so higher layers — e.g. the `hds-serve` wire
/// protocol — frame their payloads with the exact same primitives the
/// profile codec uses.
#[inline]
pub fn put_varint(out: &mut BytesMut, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.put_u8(byte);
            return;
        }
        out.put_u8(byte | 0x80);
    }
}

/// Reads a varint written by [`put_varint`].
///
/// # Errors
///
/// [`CodecError::Truncated`] when the buffer ends mid-varint,
/// [`CodecError::Overlong`] when the encoding exceeds ten bytes.
#[inline]
pub fn get_varint(buf: &mut Bytes) -> Result<u64, CodecError> {
    let mut rest: &[u8] = buf;
    let v = take_varint(&mut rest);
    let read = buf.len() - rest.len();
    buf.advance(read);
    v
}

/// Takes a varint written by [`put_varint`] off the front of a byte
/// slice: [`get_varint`] for decoders that walk a body as a plain
/// slice.
///
/// # Errors
///
/// As [`get_varint`].
#[inline(always)]
pub fn take_varint(s: &mut &[u8]) -> Result<u64, CodecError> {
    let mut v = 0u64;
    for shift in (0..64).step_by(7) {
        let (&byte, rest) = s.split_first().ok_or(CodecError::Truncated)?;
        *s = rest;
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
    }
    Err(CodecError::Overlong)
}

/// Zigzag encoding maps small signed deltas to small unsigned varints.
#[allow(clippy::cast_sign_loss)]
#[must_use]
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[must_use]
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Serialises a profile to the `HDSP` format.
///
/// # Examples
///
/// ```
/// use hds_trace::{codec, Addr, DataRef, Pc, TraceBuffer};
///
/// let mut buf = TraceBuffer::new();
/// buf.begin_burst();
/// buf.record(DataRef::new(Pc(0x10), Addr(0x1000)));
/// buf.end_burst();
/// let blob = codec::encode_profile(&buf);
/// let back = codec::decode_profile(&blob)?;
/// assert_eq!(back.refs(), buf.refs());
/// # Ok::<(), hds_trace::codec::CodecError>(())
/// ```
#[must_use]
pub fn encode_profile(buffer: &TraceBuffer) -> Bytes {
    let mut out = BytesMut::with_capacity(16 + buffer.len() * 3);
    out.put_slice(MAGIC);
    out.put_u8(VERSION);
    put_varint(&mut out, buffer.bursts().count() as u64);
    for burst in buffer.bursts() {
        let refs = buffer.burst_refs(burst);
        put_varint(&mut out, refs.len() as u64);
        let mut prev_pc: i64 = 0;
        let mut prev_addr: i64 = 0;
        for r in refs {
            let pc = i64::from(r.pc.0);
            #[allow(clippy::cast_possible_wrap)]
            let addr = r.addr.0 as i64;
            // Wrapping deltas: reversible under wrapping addition even
            // for extreme addresses (top-bit-set u64 values wrap i64).
            put_varint(&mut out, zigzag(pc.wrapping_sub(prev_pc)));
            put_varint(&mut out, zigzag(addr.wrapping_sub(prev_addr)));
            prev_pc = pc;
            prev_addr = addr;
        }
    }
    out.freeze()
}

/// Parses an `HDSP` blob back into a [`TraceBuffer`].
///
/// # Errors
///
/// Returns a [`CodecError`] for malformed input; trailing bytes after
/// the declared bursts are tolerated (future extension space).
pub fn decode_profile(blob: &[u8]) -> Result<TraceBuffer, CodecError> {
    let mut buf = Bytes::copy_from_slice(blob);
    if buf.remaining() < MAGIC.len() + 1 {
        return Err(CodecError::Truncated);
    }
    let mut magic = [0u8; 4];
    buf.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(CodecError::BadMagic);
    }
    let version = buf.get_u8();
    if version != VERSION {
        return Err(CodecError::UnsupportedVersion(version));
    }
    let bursts = get_varint(&mut buf)?;
    let mut out = TraceBuffer::new();
    for _ in 0..bursts {
        let n = get_varint(&mut buf)?;
        out.begin_burst();
        let mut prev_pc: i64 = 0;
        let mut prev_addr: i64 = 0;
        for _ in 0..n {
            let pc = prev_pc.wrapping_add(unzigzag(get_varint(&mut buf)?));
            let addr = prev_addr.wrapping_add(unzigzag(get_varint(&mut buf)?));
            prev_pc = pc;
            prev_addr = addr;
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            out.record(DataRef::new(Pc(pc as u32), Addr(addr as u64)));
        }
        out.end_burst();
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_buffer() -> TraceBuffer {
        let mut buf = TraceBuffer::new();
        buf.begin_burst();
        for i in 0..10u64 {
            buf.record(DataRef::new(
                Pc(16 + (i as u32 % 4) * 4),
                Addr(0x1000 + i * 32),
            ));
        }
        buf.end_burst();
        buf.begin_burst();
        buf.end_burst(); // an empty burst survives round-trips
        buf.begin_burst();
        buf.record(DataRef::new(Pc(u32::MAX), Addr(u64::MAX / 2)));
        buf.record(DataRef::new(Pc(0), Addr(0)));
        buf.end_burst();
        buf
    }

    #[test]
    fn round_trip_preserves_everything() {
        let original = sample_buffer();
        let blob = encode_profile(&original);
        let back = decode_profile(&blob).unwrap();
        assert_eq!(back.refs(), original.refs());
        assert_eq!(back.bursts().count(), original.bursts().count());
        for (a, b) in back.bursts().zip(original.bursts()) {
            assert_eq!(back.burst_refs(a), original.burst_refs(b));
        }
    }

    #[test]
    fn empty_profile_round_trips() {
        let empty = TraceBuffer::new();
        let blob = encode_profile(&empty);
        let back = decode_profile(&blob).unwrap();
        assert!(back.is_empty());
        assert_eq!(back.bursts().count(), 0);
    }

    #[test]
    fn delta_encoding_is_compact_on_stream_shaped_data() {
        // Sequential addresses compress to ~2-3 bytes per reference,
        // versus 12 bytes raw.
        let mut buf = TraceBuffer::new();
        buf.begin_burst();
        for i in 0..1000u64 {
            buf.record(DataRef::new(Pc(0x40), Addr(0x10_0000 + i * 32)));
        }
        buf.end_burst();
        let blob = encode_profile(&buf);
        assert!(
            blob.len() < 1000 * 4,
            "profile too large: {} bytes for 1000 refs",
            blob.len()
        );
    }

    #[test]
    fn rejects_garbage() {
        assert_eq!(decode_profile(b"nope").unwrap_err(), CodecError::Truncated);
        assert_eq!(
            decode_profile(b"XXXX\x01").unwrap_err(),
            CodecError::BadMagic
        );
        assert_eq!(
            decode_profile(b"HDSP\x63").unwrap_err(),
            CodecError::UnsupportedVersion(0x63)
        );
        // Declared burst, missing body.
        assert_eq!(
            decode_profile(b"HDSP\x01\x01").unwrap_err(),
            CodecError::Truncated
        );
    }

    #[test]
    fn rejects_overlong_varints() {
        let mut blob = b"HDSP\x01".to_vec();
        blob.extend_from_slice(&[0xff; 11]); // > 10-byte varint
        assert_eq!(decode_profile(&blob).unwrap_err(), CodecError::Overlong);
    }

    #[test]
    fn zigzag_round_trips() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN, 12345, -98765] {
            assert_eq!(unzigzag(zigzag(v)), v, "zigzag broken for {v}");
        }
    }

    #[test]
    fn varint_round_trips() {
        for v in [0u64, 1, 127, 128, 300, u64::from(u32::MAX), u64::MAX] {
            let mut out = BytesMut::new();
            put_varint(&mut out, v);
            let mut buf = out.freeze();
            assert_eq!(get_varint(&mut buf), Ok(v), "varint broken for {v}");
            assert!(!buf.has_remaining());
        }
        let mut empty = Bytes::copy_from_slice(&[]);
        assert_eq!(get_varint(&mut empty), Err(CodecError::Truncated));
    }

    #[test]
    fn error_display() {
        assert!(CodecError::BadMagic.to_string().contains("magic"));
        assert!(CodecError::UnsupportedVersion(9).to_string().contains('9'));
    }
}
