//! The `MANIFEST` bytes and decode results, pinned by digest.
//!
//! The store's unit tests check that a damaged manifest makes
//! [`Store::open`](super::Store::open) restart from scratch; these
//! digests check that the bytes a manifest encodes to and the exact
//! result each damaged input decodes to stay what they are. One digest
//! covers the encoding of manifests from empty to 40 segments, plus
//! names that are empty, non-ASCII or 300 bytes long. The other covers
//! what `decode_manifest` returns for every truncation of each
//! manifest, every truncation of its body behind a recomputed checksum,
//! seeded byte flips with and without a recomputed checksum, and
//! hand-built bodies that each break one decoding rule behind a valid
//! checksum.
//!
//! No input here holds a name length whose end lies past `u64::MAX`:
//! what the decoder does with one is pinned by the unit test beside
//! the decoder.

use std::fmt::{self, Write as _};

use hds_trace::hash::{fnv1a64, Fnv64};
use hds_trace::rng::XorShift64Star;

use super::{decode_manifest, encode_manifest, segment_name};

/// Length prefix and checksum in front of every body.
const HEADER_BYTES: usize = 4 + 8;

/// The pinned manifests: segment names and the next segment id.
fn manifests() -> Vec<(Vec<String>, u64)> {
    vec![
        (Vec::new(), 0),
        (vec![segment_name(0)], 1),
        (vec![segment_name(3), segment_name(7), segment_name(12)], 13),
        ((0..40).map(segment_name).collect(), 40),
        (
            vec![String::new(), "seg-ü.log".into(), "x".repeat(300)],
            u64::MAX,
        ),
    ]
}

/// A `fmt::Write` sink that hashes what is written to it.
struct Digest(Fnv64);

impl fmt::Write for Digest {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0.write_bytes(s.as_bytes());
        Ok(())
    }
}

impl Digest {
    /// Feeds what `decode_manifest` returns for `blob` and a separator
    /// word.
    fn decoded(&mut self, blob: &[u8]) {
        let got = decode_manifest(blob);
        write!(self, "{got:?}").expect("hashing never fails");
        self.0.write_u64(u64::MAX);
    }
}

/// Frames a body: length prefix, FNV-1a-64, body.
fn seal(body: &[u8]) -> Vec<u8> {
    let len = u32::try_from(body.len()).expect("small test body");
    let mut out = len.to_le_bytes().to_vec();
    out.extend_from_slice(&fnv1a64(body).to_le_bytes());
    out.extend_from_slice(body);
    out
}

/// Recomputes the checksum of a (possibly damaged) manifest over its
/// body.
fn reseal(blob: &mut [u8]) {
    let sum = fnv1a64(&blob[HEADER_BYTES..]);
    blob[4..HEADER_BYTES].copy_from_slice(&sum.to_le_bytes());
}

#[test]
fn manifest_encodings_match_the_pinned_bytes() {
    let mut h = Fnv64::new();
    for (segments, next) in manifests() {
        let blob = encode_manifest(&segments, next);
        h.write_u64(blob.len() as u64);
        h.write_bytes(&blob);
    }
    assert_eq!(
        h.finish(),
        4_618_897_521_331_616_456,
        "manifest bytes moved"
    );
}

#[test]
fn damaged_manifests_decode_to_the_pinned_results() {
    let mut d = Digest(Fnv64::new());
    let blobs: Vec<Vec<u8>> = manifests()
        .iter()
        .map(|(segments, next)| encode_manifest(segments, *next))
        .collect();

    for blob in &blobs {
        for cut in 0..=blob.len() {
            d.decoded(&blob[..cut]);
        }
        // Every re-sealed cut of the body: each decoding step meets
        // the end of its input behind a valid checksum.
        for cut in 0..blob.len() - HEADER_BYTES {
            d.decoded(&seal(&blob[HEADER_BYTES..HEADER_BYTES + cut]));
        }
    }

    let mut rng = XorShift64Star::new(0x3a71_f357);
    for _ in 0..512 {
        let pick = &blobs[(rng.next_u64() % blobs.len() as u64) as usize];
        let at = (rng.next_u64() % pick.len() as u64) as usize;
        let mask = (rng.next_u64() % 255 + 1) as u8;
        let mut blob = pick.clone();
        blob[at] ^= mask;
        d.decoded(&blob);
        // The same flip behind a recomputed checksum, when it hit the
        // body: the decoder itself must catch it, or decode it.
        if at >= HEADER_BYTES {
            reseal(&mut blob);
            d.decoded(&blob);
        }
    }

    // A body listing one segment "s": next id, count, name length,
    // name. Each edit breaks one rule.
    let body = |next: u64, count: u64, len: u64, name: &[u8]| {
        let mut b = next.to_le_bytes().to_vec();
        b.extend_from_slice(&count.to_le_bytes());
        b.extend_from_slice(&len.to_le_bytes());
        b.extend_from_slice(name);
        b
    };
    let mut trailing = body(1, 1, 1, b"s");
    trailing.push(0);
    let bodies = [
        body(1, 1, 1, b"s"),
        Vec::new(),
        vec![0; 7],                // shorter than the next id
        vec![0; 15],               // shorter than the count
        body(1, 2, 1, b"s"),       // a second name missing
        body(1, 1 << 40, 1, b"s"), // count larger than the body
        body(1, 1, 2, b"s"),       // name longer than the body
        body(1, 1, 1 << 62, b"s"), // name far longer than the body
        body(1, 1, 1, &[0xff]),    // name not UTF-8
        body(1, 1, 2, &[0xc3, 0x28]),
        body(1, 0, 1, b"s"), // bytes past the last name
        trailing,
    ];
    for b in &bodies {
        d.decoded(&seal(b));
    }
    // A body checksummed under a length prefix that disagrees with it.
    let mut long = seal(&body(1, 1, 1, b"s"));
    long[0] += 1;
    d.decoded(&long);
    long.push(0);
    d.decoded(&long);
    assert_eq!(
        d.0.finish(),
        8_597_935_151_127_364_777,
        "manifest decode results moved"
    );
}
