//! The `HDSP` profile codec's bytes and decode results, pinned by
//! digest.
//!
//! The proptests in `tests/properties.rs` check that profiles
//! round-trip and that damaged input never panics; these digests check
//! that the bytes a profile encodes to and the exact result each
//! damaged input decodes to stay what they are. One digest covers the
//! encoding of seeded profiles and of the edge cases the codec's unit
//! tests use. The other covers what [`decode_profile`] returns for
//! every truncation, seeded single-byte flips and overlong varints.

use std::fmt::{self, Write as _};

use hds_trace::codec::{decode_profile, encode_profile};
use hds_trace::hash::Fnv64;
use hds_trace::rng::XorShift64Star;
use hds_trace::{Addr, DataRef, Pc, TraceBuffer};

/// Eight seeded profiles of up to five bursts each. References mostly
/// step through nearby pcs and addresses, as hot data streams do, and
/// now and then jump anywhere in the address space.
fn seeded_profiles() -> Vec<TraceBuffer> {
    let mut rng = XorShift64Star::new(0x9d5f_11e5);
    (0..8)
        .map(|_| {
            let mut buf = TraceBuffer::new();
            for _ in 0..rng.next_u64() % 6 {
                buf.begin_burst();
                let mut pc = rng.next_u64() as u32;
                let mut addr = rng.next_u64();
                for _ in 0..rng.next_u64() % 300 {
                    if rng.next_u64().is_multiple_of(8) {
                        pc = rng.next_u64() as u32;
                        addr = rng.next_u64();
                    } else {
                        pc = pc.wrapping_add((rng.next_u64() % 16) as u32 * 4);
                        addr = addr.wrapping_add(rng.next_u64() % 256);
                    }
                    buf.record(DataRef::new(Pc(pc), Addr(addr)));
                }
                buf.end_burst();
            }
            buf
        })
        .collect()
}

/// The codec unit tests' sample: a stream-shaped burst, an empty burst,
/// and a burst at the extremes of both fields.
fn edge_cases() -> TraceBuffer {
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
    buf.end_burst();
    buf.begin_burst();
    buf.record(DataRef::new(Pc(u32::MAX), Addr(u64::MAX / 2)));
    buf.record(DataRef::new(Pc(0), Addr(0)));
    buf.record(DataRef::new(Pc(u32::MAX), Addr(u64::MAX)));
    buf.end_burst();
    buf
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
    /// Feeds what `decode_profile` returns for `blob`, and a separator
    /// word.
    fn decoded(&mut self, blob: &[u8]) {
        write!(self, "{:?}", decode_profile(blob)).expect("hashing never fails");
        self.0.write_u64(u64::MAX);
    }
}

#[test]
fn profile_encodings_match_the_pinned_bytes() {
    let mut h = Fnv64::new();
    for profile in seeded_profiles()
        .iter()
        .chain([&edge_cases(), &TraceBuffer::new()])
    {
        let blob = encode_profile(profile);
        h.write_u64(blob.len() as u64);
        h.write_bytes(&blob);
    }
    assert_eq!(
        h.finish(),
        2_778_620_985_702_694_707,
        "HDSP profile bytes moved"
    );
}

#[test]
fn damaged_profiles_decode_to_the_pinned_results() {
    let mut d = Digest(Fnv64::new());
    let blobs: Vec<Vec<u8>> = seeded_profiles()
        .iter()
        .chain([&edge_cases(), &TraceBuffer::new()])
        .map(|p| encode_profile(p).to_vec())
        .collect();
    let edges = &blobs[8];
    for cut in 0..=edges.len() {
        d.decoded(&edges[..cut]);
    }
    let seeded = &blobs[1];
    for cut in 0..=seeded.len() {
        d.decoded(&seeded[..cut]);
    }

    let mut rng = XorShift64Star::new(0x5eed_9f0f);
    for _ in 0..256 {
        let pick = &blobs[(rng.next_u64() % blobs.len() as u64) as usize];
        let at = (rng.next_u64() % pick.len() as u64) as usize;
        let mask = (rng.next_u64() % 255 + 1) as u8;
        let mut blob = pick.clone();
        blob[at] ^= mask;
        d.decoded(&blob);
    }

    // A varint that runs past ten bytes where the burst count belongs,
    // another where a reference's pc delta does, and a trailing byte,
    // which decodes.
    let mut overlong_count = b"HDSP\x01".to_vec();
    overlong_count.extend_from_slice(&[0xff; 11]);
    let mut overlong_pc = b"HDSP\x01\x01\x01".to_vec();
    overlong_pc.extend_from_slice(&[0x80; 10]);
    overlong_pc.extend_from_slice(&[0, 0]);
    let mut trailing = edges.clone();
    trailing.push(0);
    for blob in [
        overlong_count,
        overlong_pc,
        trailing,
        b"HDSQ\x01\x00".to_vec(),
        b"HDSP\x02\x00".to_vec(),
    ] {
        d.decoded(&blob);
    }
    assert_eq!(
        d.0.finish(),
        8_809_438_450_077_736_210,
        "HDSP decode results moved"
    );
}
