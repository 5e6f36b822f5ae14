//! Offline stand-in for the `bytes` crate.
//!
//! The build environment cannot reach crates.io, so this shim provides
//! the exact subset of the `bytes` 1.x API the workspace uses: an
//! owned, cursor-tracked [`Bytes`] reader, a growable [`BytesMut`]
//! writer, and the [`Buf`]/[`BufMut`] trait methods behind them. The
//! semantics match the real crate for this subset; zero-copy sharing is
//! not implemented (buffers are plain vectors), but consuming a
//! [`BytesMut`] from the front is amortized O(1) per byte, as in the
//! real crate.

#![forbid(unsafe_code)]

use std::fmt;
use std::ops::{Deref, DerefMut};

/// An immutable byte buffer with a read cursor.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Bytes {
    data: Vec<u8>,
    pos: usize,
}

impl Bytes {
    /// Creates a buffer by copying `data`.
    #[must_use]
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes {
            data: data.to_vec(),
            pos: 0,
        }
    }

    /// Bytes not yet consumed.
    #[must_use]
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Is the unconsumed region empty?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Consumes `len` bytes into a new buffer.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `len` bytes remain.
    #[must_use]
    pub fn copy_to_bytes(&mut self, len: usize) -> Bytes {
        assert!(self.remaining() >= len, "copy_to_bytes past end");
        let out = Bytes::copy_from_slice(&self.data[self.pos..self.pos + len]);
        self.pos += len;
        out
    }

    /// Keeps the first `len` unconsumed bytes and drops the rest; no
    /// effect when fewer than `len` remain.
    pub fn truncate(&mut self, len: usize) {
        if len < self.len() {
            self.data.truncate(self.pos + len);
        }
    }
}

impl Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.data[self.pos..]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(data: Vec<u8>) -> Self {
        Bytes { data, pos: 0 }
    }
}

/// A growable byte buffer for writing, consumable from the front.
#[derive(Clone, Default)]
pub struct BytesMut {
    data: Vec<u8>,
    /// Bytes at the front already split off: the buffer is
    /// `data[head..]`.
    head: usize,
}

impl BytesMut {
    /// Creates an empty buffer.
    #[must_use]
    pub fn new() -> Self {
        BytesMut::default()
    }

    /// Creates an empty buffer with reserved capacity.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        BytesMut {
            data: Vec::with_capacity(capacity),
            head: 0,
        }
    }

    /// Bytes in the buffer.
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len() - self.head
    }

    /// Is the buffer empty?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Converts the buffer into an immutable [`Bytes`].
    #[must_use]
    pub fn freeze(self) -> Bytes {
        Bytes {
            data: self.data,
            pos: self.head,
        }
    }

    /// Appends a slice (inherent, as on the real `BytesMut`).
    pub fn extend_from_slice(&mut self, src: &[u8]) {
        self.data.extend_from_slice(src);
    }

    /// Splits off and returns the first `at` bytes, leaving the rest.
    ///
    /// Taking the whole buffer hands its storage over; otherwise the
    /// `at` bytes are copied out and the rest stays where it is, moved
    /// down only once the consumed front passes half the storage. So
    /// draining a buffer frame by frame costs O(1) per byte, however
    /// many frames are queued behind the one taken.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `at` bytes are buffered.
    #[must_use]
    pub fn split_to(&mut self, at: usize) -> BytesMut {
        assert!(at <= self.len(), "split_to past end");
        if at == self.len() {
            return std::mem::take(self);
        }
        let out = BytesMut {
            data: self.data[self.head..self.head + at].to_vec(),
            head: 0,
        };
        self.head += at;
        if self.head > self.data.len() / 2 {
            self.data.drain(..self.head);
            self.head = 0;
        }
        out
    }
}

impl Deref for BytesMut {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.data[self.head..]
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.data[self.head..]
    }
}

impl PartialEq for BytesMut {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for BytesMut {}

impl fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BytesMut").field("data", &&**self).finish()
    }
}

/// Read access to a byte cursor.
pub trait Buf {
    /// Bytes remaining to read.
    fn remaining(&self) -> usize;

    /// Are any bytes left?
    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }

    /// Consumes and returns one byte.
    ///
    /// # Panics
    ///
    /// Panics if no bytes remain.
    fn get_u8(&mut self) -> u8;

    /// Consumes `dst.len()` bytes into `dst`.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `dst.len()` bytes remain.
    fn copy_to_slice(&mut self, dst: &mut [u8]);

    /// Skips `cnt` bytes.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `cnt` bytes remain.
    fn advance(&mut self, cnt: usize);

    /// Consumes and returns a little-endian `u32`.
    ///
    /// # Panics
    ///
    /// Panics if fewer than four bytes remain.
    fn get_u32_le(&mut self) -> u32 {
        let mut raw = [0u8; 4];
        self.copy_to_slice(&mut raw);
        u32::from_le_bytes(raw)
    }

    /// Consumes and returns a little-endian `u64`.
    ///
    /// # Panics
    ///
    /// Panics if fewer than eight bytes remain.
    fn get_u64_le(&mut self) -> u64 {
        let mut raw = [0u8; 8];
        self.copy_to_slice(&mut raw);
        u64::from_le_bytes(raw)
    }
}

impl Buf for Bytes {
    #[inline]
    fn remaining(&self) -> usize {
        self.len()
    }

    #[inline]
    fn get_u8(&mut self) -> u8 {
        assert!(self.has_remaining(), "get_u8 past end of buffer");
        let b = self.data[self.pos];
        self.pos += 1;
        b
    }

    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        assert!(self.remaining() >= dst.len(), "copy_to_slice past end");
        dst.copy_from_slice(&self.data[self.pos..self.pos + dst.len()]);
        self.pos += dst.len();
    }

    fn advance(&mut self, cnt: usize) {
        assert!(self.remaining() >= cnt, "advance past end");
        self.pos += cnt;
    }
}

/// Write access to a growable byte buffer.
pub trait BufMut {
    /// Appends one byte.
    fn put_u8(&mut self, b: u8);

    /// Appends a slice.
    fn put_slice(&mut self, src: &[u8]);

    /// Appends a little-endian `u32`.
    fn put_u32_le(&mut self, n: u32) {
        self.put_slice(&n.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    fn put_u64_le(&mut self, n: u64) {
        self.put_slice(&n.to_le_bytes());
    }
}

impl BufMut for BytesMut {
    #[inline]
    fn put_u8(&mut self, b: u8) {
        self.data.push(b);
    }

    fn put_slice(&mut self, src: &[u8]) {
        self.data.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_freeze_read_round_trip() {
        let mut w = BytesMut::with_capacity(8);
        w.put_u8(1);
        w.put_slice(&[2, 3, 4]);
        assert_eq!(w.len(), 4);
        let mut r = w.freeze();
        assert_eq!(r.len(), 4);
        assert_eq!(r.get_u8(), 1);
        let mut rest = [0u8; 2];
        r.copy_to_slice(&mut rest);
        assert_eq!(rest, [2, 3]);
        assert_eq!(r.remaining(), 1);
        r.advance(1);
        assert!(!r.has_remaining());
    }

    #[test]
    fn deref_views_unconsumed_region() {
        let mut b = Bytes::copy_from_slice(&[9, 8, 7]);
        assert_eq!(&b[..], &[9, 8, 7]);
        b.get_u8();
        assert_eq!(&b[..], &[8, 7]);
    }

    #[test]
    fn truncate_keeps_the_unconsumed_front() {
        let mut b = Bytes::copy_from_slice(&[1, 2, 3, 4, 5]);
        b.advance(1);
        b.truncate(3);
        assert_eq!(&b[..], &[2, 3, 4]);
        b.truncate(9);
        assert_eq!(&b[..], &[2, 3, 4]);
    }

    #[test]
    fn split_to_consumes_from_the_front_in_order() {
        let mut buf = BytesMut::new();
        let all: Vec<u8> = (0..=255).collect();
        buf.extend_from_slice(&all);
        let mut taken = Vec::new();
        // Uneven splits cross the compaction point several times.
        for at in [1usize, 7, 100, 3, 60, 40] {
            let part = buf.split_to(at);
            assert_eq!(part.len(), at);
            taken.extend_from_slice(&part);
            assert_eq!(&buf[..], &all[taken.len()..]);
        }
        // Appends land behind what is left; the rest splits whole.
        buf.extend_from_slice(&[7, 7]);
        buf[0] = 9;
        let rest = buf.split_to(buf.len());
        assert!(buf.is_empty());
        assert_eq!(rest.len(), 256 - taken.len() + 2);
        assert_eq!(rest[0], 9);
        assert_eq!(rest.clone().freeze()[..], rest[..]);
        assert_eq!(rest, {
            let mut same = BytesMut::new();
            same.extend_from_slice(&rest);
            same
        });
    }

    #[test]
    #[should_panic(expected = "past end")]
    fn overread_panics() {
        let mut b = Bytes::copy_from_slice(&[]);
        let _ = b.get_u8();
    }
}
