//! The store record's bytes and decode results, pinned by digest.
//!
//! The unit tests in `src/record.rs` check that records round-trip and
//! that damage surfaces as some typed error; these digests check that
//! the bytes a record encodes to and the exact result each damaged
//! input decodes to stay what they are. One digest covers the encoding
//! of records whose replay tails are the first 4,000 events of each
//! test-scale paper program, one such record carrying a snapshot blob,
//! a hand-built record with every event tag at the largest value of
//! each field, and a tombstone. The other covers what
//! [`decode_record`] returns for every truncation, seeded single-byte
//! flips with and without a recomputed checksum, and hand-built
//! payloads that each break one decoding rule behind a valid checksum.
//!
//! No input here holds a procedure id, work count, thread id or pc
//! above `u32::MAX`: what the decoder does with those is pinned by the
//! unit tests beside the decoder.

use std::fmt::{self, Write as _};

use hds_store::{decode_record, encode_record, Record, TenantRecord};
use hds_trace::hash::{fnv1a64, Fnv64};
use hds_trace::rng::XorShift64Star;
use hds_trace::{AccessKind, Addr, DataRef, Pc};
use hds_vulcan::{Event, ProcId, Procedure};
use hds_workloads::{suite, Scale};

/// Events per replay tail: the serve benchmark's chunk size.
const TAIL_EVENTS: usize = 4_000;

/// Length prefix and checksum in front of every payload.
const HEADER_BYTES: usize = 4 + 8;

/// One record per test-scale paper program: its procedures and the
/// first 4,000 events it emits.
fn program_records() -> Vec<Record> {
    suite(Scale::Test)
        .into_iter()
        .zip(0u64..)
        .map(|(mut program, stamp)| {
            let tail: Vec<Event> = std::iter::from_fn(|| program.next_event())
                .take(TAIL_EVENTS)
                .collect();
            assert_eq!(tail.len(), TAIL_EVENTS, "{} ran short", program.name());
            Record::Tenant(TenantRecord {
                tenant: program.name().to_string(),
                stamp,
                backend: 0,
                procedures: program.procedures(),
                snapshot: None,
                tail,
            })
        })
        .collect()
}

/// The first program record with a seeded 1,500-byte snapshot blob.
/// The blob's bytes keep their top bit clear, like every other byte
/// of the payload a resealed flip is applied to (see [`flip_safe`]).
fn with_snapshot(record: &Record) -> Record {
    let Record::Tenant(r) = record else {
        unreachable!("program records are tenant records")
    };
    let mut rng = XorShift64Star::new(0x57a9_5407);
    let blob = (0..1_500).map(|_| (rng.next_u64() >> 57) as u8).collect();
    Record::Tenant(TenantRecord {
        snapshot: Some(blob),
        backend: 2,
        ..r.clone()
    })
}

/// A record with all eight event tags, a multi-procedure image and the
/// largest value of every field.
fn hand_built() -> Record {
    let max = DataRef::new(Pc(u32::MAX), Addr(u64::MAX));
    Record::Tenant(TenantRecord {
        tenant: "tenant-golden".into(),
        stamp: u64::MAX,
        backend: u8::MAX,
        procedures: vec![
            Procedure::new("main", vec![Pc(0x10), Pc(0x14), Pc(u32::MAX)]),
            Procedure::new("", Vec::new()),
        ],
        snapshot: Some(vec![0xff; 11]),
        tail: vec![
            Event::Enter(ProcId(u32::MAX)),
            Event::BackEdge(ProcId(u32::MAX)),
            Event::Work(u32::MAX),
            Event::Access(max, AccessKind::Load),
            Event::Access(max, AccessKind::Store),
            Event::Access(DataRef::new(Pc(0), Addr(0)), AccessKind::Load),
            Event::Exit(ProcId(u32::MAX)),
            Event::Prefetch(Addr(u64::MAX)),
            Event::Thread(u32::MAX),
        ],
    })
}

fn tombstone() -> Record {
    Record::Tombstone {
        tenant: "tenant-gone".into(),
        stamp: 7,
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
    /// Feeds what `decode_record` returns for `blob` from offset zero,
    /// the offset it leaves, and a separator word.
    fn decoded(&mut self, blob: &[u8]) {
        let mut offset = 0;
        let got = decode_record(blob, &mut offset);
        write!(self, "{got:?}|{offset}").expect("hashing never fails");
        self.0.write_u64(u64::MAX);
    }
}

/// Frames a payload: length prefix, FNV-1a-64, payload.
fn seal(payload: &[u8]) -> Vec<u8> {
    let len = u32::try_from(payload.len()).expect("small test payload");
    let mut out = len.to_le_bytes().to_vec();
    out.extend_from_slice(&fnv1a64(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Recomputes the checksum of a (possibly damaged) record over its
/// payload.
fn reseal(blob: &mut [u8]) {
    let sum = fnv1a64(&blob[HEADER_BYTES..]);
    blob[4..HEADER_BYTES].copy_from_slice(&sum.to_le_bytes());
}

/// Whether a resealed flip of `blob`'s payload that leaves every top
/// bit alone keeps each varint the decoder can read below 2^28: no run
/// of four bytes has its continuation bit set, so no varint spans more
/// than four bytes, however the flip shifts where the decoder reads.
fn flip_safe(blob: &[u8]) -> bool {
    !blob[HEADER_BYTES..]
        .windows(4)
        .any(|w| w.iter().all(|b| b & 0x80 != 0))
}

#[test]
fn record_encodings_match_the_pinned_bytes() {
    let programs = program_records();
    let mut h = Fnv64::new();
    for record in programs
        .iter()
        .chain([&with_snapshot(&programs[0]), &hand_built(), &tombstone()])
    {
        let blob = encode_record(record);
        h.write_u64(blob.len() as u64);
        h.write_bytes(&blob);
    }
    assert_eq!(
        h.finish(),
        10_294_962_168_563_137_720,
        "store record bytes moved"
    );
}

#[test]
fn damaged_records_decode_to_the_pinned_results() {
    let mut d = Digest(Fnv64::new());
    let programs = program_records();
    let snapshot = encode_record(&with_snapshot(&programs[0]));
    let hand = encode_record(&hand_built());
    let gone = encode_record(&tombstone());

    for blob in [&hand, &gone, &snapshot] {
        for cut in 0..=blob.len() {
            d.decoded(&blob[..cut]);
        }
    }
    // Every re-sealed cut of a payload: each decoding step meets the
    // end of its input behind a valid checksum.
    for blob in [&hand, &gone] {
        for cut in 0..blob.len() - HEADER_BYTES {
            d.decoded(&seal(&blob[HEADER_BYTES..HEADER_BYTES + cut]));
        }
    }

    let blobs: Vec<Vec<u8>> = programs
        .iter()
        .map(encode_record)
        .chain([snapshot, hand, gone])
        .collect();
    let mut rng = XorShift64Star::new(0x5eed_4ec0);
    for _ in 0..256 {
        let pick = &blobs[(rng.next_u64() % blobs.len() as u64) as usize];
        let at = (rng.next_u64() % pick.len() as u64) as usize;
        let mask = (rng.next_u64() % 127 + 1) as u8;
        let mut blob = pick.clone();
        blob[at] ^= mask;
        d.decoded(&blob);
        // The same flip behind a recomputed checksum, when it hit the
        // payload: the decoder itself must catch it, or decode it.
        if at >= HEADER_BYTES && flip_safe(pick) {
            reseal(&mut blob);
            d.decoded(&blob);
        }
    }

    // A tenant record whose fields are each one byte wide: kind,
    // stamp, name, backend, one procedure "m" with one pc, a two-byte
    // snapshot and one `Prefetch(Addr(7))` event.
    let base = [0u8, 5, 1, b't', 2, 1, 1, b'm', 1, 16, 1, 2, 9, 9, 1, 6, 7];
    let edit = |at: usize, byte: u8| {
        let mut p = base.to_vec();
        p[at] = byte;
        p
    };
    let mut trailing = base.to_vec();
    trailing.push(0);
    let payloads = [
        base.to_vec(),
        Vec::new(),
        edit(0, 2),     // unknown record kind
        edit(15, 8),    // unknown event tag
        edit(10, 2),    // unknown snapshot tag
        edit(2, 0x7f),  // tenant name longer than the payload
        edit(5, 0x7f),  // procedure count larger than the payload
        edit(6, 0x7f),  // procedure name longer than the payload
        edit(8, 0x7f),  // pc count larger than the payload
        edit(11, 0x7f), // snapshot longer than the payload
        edit(14, 0x7f), // tail count larger than the payload
        edit(3, 0xff),  // tenant name not UTF-8
        edit(7, 0xc3),  // procedure name not UTF-8
        trailing,
        vec![1, 5, 1, b't'],
        vec![1, 5, 1, 0xff],
        vec![1, 5, 1, b't', 0],
        vec![1, 0xff],
    ];
    for payload in &payloads {
        d.decoded(&seal(payload));
    }
    assert_eq!(
        d.0.finish(),
        10_876_880_672_524_038_720,
        "store record decode results moved"
    );
}
