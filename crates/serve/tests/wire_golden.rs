//! The `HDSW` codec's bytes and errors, pinned by digest.
//!
//! The proptests in `tests/wire.rs` check that frames round-trip and
//! that damage surfaces as some typed error; these digests check that
//! the bytes a chunk encodes to and the exact error each damaged input
//! decodes to stay what they are. One digest covers the encoding of
//! real trace chunks (the first three 4,000-event chunks of each
//! test-scale paper program) and of one hand-built chunk that uses
//! every event tag and the extreme field values. The other covers what
//! [`Frame::decode`] and [`decode_stream`] return for seeded damage to
//! those frames: every truncation, single-byte flips with and without
//! a recomputed checksum, and hand-built bodies that each break one
//! decoding rule behind a valid checksum.

use std::fmt::{self, Write as _};

use bytes::BytesMut;
use hds_serve::wire::decode_stream;
use hds_serve::Frame;
use hds_trace::codec::put_varint;
use hds_trace::hash::{fnv1a32, Fnv64};
use hds_trace::rng::XorShift64Star;
use hds_trace::{AccessKind, Addr, DataRef, Pc};
use hds_vulcan::{Event, ProcId};
use hds_workloads::{suite, Scale};

/// Events per chunk: the chunk size the serve benchmark streams.
const CHUNK_EVENTS: usize = 4_000;

/// The first three chunks of each of the six test-scale paper
/// programs, as sequenced `TraceChunk` frames.
fn paper_chunks() -> Vec<Frame> {
    let mut frames = Vec::new();
    for mut program in suite(Scale::Test) {
        let tenant = program.name().to_string();
        for seq in 1..=3u64 {
            let events: Vec<Event> = std::iter::from_fn(|| program.next_event())
                .take(CHUNK_EVENTS)
                .collect();
            assert_eq!(events.len(), CHUNK_EVENTS, "{tenant} ran short");
            frames.push(Frame::TraceChunk {
                tenant: tenant.clone(),
                seq,
                events,
            });
        }
    }
    frames
}

/// A chunk with all seven event tags, a negative pc delta and the
/// largest value of every field.
fn hand_built_chunk() -> Frame {
    Frame::TraceChunk {
        tenant: "tenant-golden".into(),
        seq: u64::MAX,
        events: vec![
            Event::Enter(ProcId(0)),
            Event::Access(DataRef::new(Pc(0x40), Addr(0x1000)), AccessKind::Load),
            Event::Access(DataRef::new(Pc(0x10), Addr(0x0ff8)), AccessKind::Store),
            Event::Access(DataRef::new(Pc(u32::MAX), Addr(u64::MAX)), AccessKind::Load),
            Event::Access(DataRef::new(Pc(0), Addr(0)), AccessKind::Store),
            Event::Work(u32::MAX),
            Event::BackEdge(ProcId(u32::MAX)),
            Event::Prefetch(Addr(u64::MAX)),
            Event::Thread(u32::MAX),
            Event::Exit(ProcId(7)),
        ],
    }
}

/// A `fmt::Write` sink that hashes what is written to it, so large
/// `Debug` outputs feed the digest without being collected.
struct Digest(Fnv64);

impl fmt::Write for Digest {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0.write_bytes(s.as_bytes());
        Ok(())
    }
}

impl Digest {
    /// Feeds what both decoders return for `blob`, with how many bytes
    /// `decode_stream` left buffered, and a separator word.
    fn decoded(&mut self, blob: &[u8]) {
        let mut inbox = BytesMut::new();
        inbox.extend_from_slice(blob);
        let streamed = decode_stream(&mut inbox);
        write!(
            self,
            "{:?}|{:?}|{}",
            Frame::decode(blob),
            streamed,
            inbox.len()
        )
        .expect("hashing never fails");
        self.0.write_u64(u64::MAX);
    }
}

/// Frames a body: length prefix, body, FNV-1a trailer.
fn seal(body: &[u8]) -> Vec<u8> {
    let len = u32::try_from(body.len() + 4).expect("small test body");
    let mut out = len.to_le_bytes().to_vec();
    out.extend_from_slice(body);
    out.extend_from_slice(&fnv1a32(body).to_le_bytes());
    out
}

/// Recomputes the checksum trailer of a (possibly damaged) frame over
/// whatever lies between its prefix and trailer.
fn reseal(blob: &mut [u8]) {
    let at = blob.len() - 4;
    let sum = fnv1a32(&blob[4..at]);
    blob[at..].copy_from_slice(&sum.to_le_bytes());
}

/// The hand-built chunk's kind, tenant and sequence number, followed
/// by `tail` — a body whose events section is written by hand.
fn chunk_body(tail: impl FnOnce(&mut BytesMut)) -> Vec<u8> {
    let blob = hand_built_chunk().encode();
    // Kind byte, tenant length varint and tenant, ten-byte seq varint.
    let prefix = 1 + 1 + "tenant-golden".len() + 10;
    let mut body = BytesMut::new();
    body.extend_from_slice(&blob[4..4 + prefix]);
    tail(&mut body);
    body.to_vec()
}

#[test]
fn chunk_encodings_match_the_pinned_bytes() {
    let mut h = Fnv64::new();
    for frame in paper_chunks().iter().chain([&hand_built_chunk()]) {
        let blob = frame.encode();
        h.write_u64(blob.len() as u64);
        h.write_bytes(&blob);
    }
    assert_eq!(
        h.finish(),
        3_549_602_660_621_414_509,
        "HDSW chunk bytes moved"
    );
}

#[test]
fn damaged_frames_decode_to_the_pinned_errors() {
    let mut d = Digest(Fnv64::new());
    let hand = hand_built_chunk().encode().to_vec();
    for cut in 0..=hand.len() {
        d.decoded(&hand[..cut]);
    }
    // Every re-sealed cut of the body: each decoding step meets the
    // end of its input behind a valid checksum.
    for cut in 0..hand.len() - 8 {
        d.decoded(&seal(&hand[4..4 + cut]));
    }

    let frames: Vec<Vec<u8>> = paper_chunks()
        .iter()
        .map(|f| f.encode().to_vec())
        .chain([hand.clone()])
        .collect();
    let mut rng = XorShift64Star::new(0x5eed_f11b);
    for _ in 0..256 {
        let pick = &frames[(rng.next_u64() % frames.len() as u64) as usize];
        let at = (rng.next_u64() % pick.len() as u64) as usize;
        let mask = (rng.next_u64() % 255 + 1) as u8;
        let mut blob = pick.clone();
        blob[at] ^= mask;
        d.decoded(&blob);
        // The same flip behind a recomputed checksum, when it hit the
        // body: the decoder itself must catch it, or decode it.
        if (4..blob.len() - 4).contains(&at) {
            reseal(&mut blob);
            d.decoded(&blob);
        }
    }

    let unknown_tag = chunk_body(|b| {
        put_varint(b, 1);
        b.extend_from_slice(&[7]);
    });
    let unknown_access_kind = chunk_body(|b| {
        put_varint(b, 1);
        b.extend_from_slice(&[4, 2, 0, 0]);
    });
    let overlong_varint = chunk_body(|b| {
        put_varint(b, 1);
        b.extend_from_slice(&[3]);
        b.extend_from_slice(&[0xff; 10]);
        b.extend_from_slice(&[1]);
    });
    let count_over_cap = chunk_body(|b| put_varint(b, (1 << 26) + 1));
    // A procedure id, work count and thread id one past `u32::MAX`.
    let field_overflows = [0u8, 3, 6].map(|tag| {
        chunk_body(|b| {
            put_varint(b, 1);
            b.extend_from_slice(&[tag]);
            put_varint(b, 1 << 32);
        })
    });
    let mut trailing_byte = hand[4..hand.len() - 4].to_vec();
    trailing_byte.push(0);
    for body in [
        unknown_tag,
        unknown_access_kind,
        overlong_varint,
        count_over_cap,
        trailing_byte,
    ]
    .into_iter()
    .chain(field_overflows)
    {
        d.decoded(&seal(&body));
    }
    assert_eq!(
        d.0.finish(),
        15_385_013_022_776_727_568,
        "HDSW decode results moved"
    );
}
