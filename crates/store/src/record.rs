//! Checksummed record framing for segment files.
//!
//! Every record in a segment is framed as:
//!
//! ```text
//! payload length u32 LE | FNV-1a-64 of payload u64 LE | payload
//! ```
//!
//! checked before anything is parsed, as `HDSSNAP2` snapshots and `HDSW`
//! frames are. The per-byte FNV-1a step is invertible, so any single
//! flipped byte of the payload is *guaranteed* to change the checksum,
//! and longer damage escapes only with probability ~2⁻⁶⁴ (proptested in
//! [`crate::store`]'s tests).
//! Decoding is total — a damaged, truncated, or torn record is a typed
//! [`RecordError`], never a panic — and a clean end-of-buffer is
//! distinguished from a torn tail so segment scans know where the
//! durable prefix ends.
//!
//! The payload carries one of:
//!
//! * a **tenant record** — the full cold state of one hibernated
//!   tenant: backend, program image, optional `HDSSNAP2` snapshot
//!   blob, and the replay tail of events past the snapshot's resume
//!   point. Everything rehydration needs, including A/B backend
//!   stickiness, travels in the record: loading never consults
//!   anything else.
//! * a **tombstone** — the tenant was flushed or discarded; earlier
//!   records for it are dead.

use hds_trace::codec::{put_varint, take_bytes, take_u8, take_varint, CodecError};
use hds_trace::hash::fnv1a64;
use hds_trace::{AccessKind, Addr, DataRef, Pc};
use hds_vulcan::{Event, Procedure};

use hds_vulcan::ProcId;

/// Frame overhead per record: length prefix + checksum.
pub const RECORD_HEADER_BYTES: usize = 4 + 8;

/// Largest accepted payload — a garbage length prefix must not drive
/// an allocation.
const MAX_PAYLOAD_BYTES: usize = 64 << 20;

const KIND_TENANT: u8 = 0;
const KIND_TOMBSTONE: u8 = 1;

const EV_ENTER: u8 = 0;
const EV_BACK_EDGE: u8 = 1;
const EV_WORK: u8 = 2;
const EV_ACCESS_LOAD: u8 = 3;
const EV_ACCESS_STORE: u8 = 4;
const EV_EXIT: u8 = 5;
const EV_PREFETCH: u8 = 6;
const EV_THREAD: u8 = 7;

/// Typed decode failure. Always an error value, never a panic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RecordError {
    /// The buffer ended inside a frame — a torn tail.
    Truncated,
    /// The length prefix exceeds the sanity cap.
    Oversized(
        /// The claimed payload length.
        u32,
    ),
    /// The payload does not match its checksum.
    BadChecksum,
    /// A tag byte (record kind or event kind) is unknown.
    BadTag(
        /// The offending byte.
        u8,
    ),
    /// A varint overran its maximum width.
    Overlong,
    /// A tenant name is not UTF-8.
    BadUtf8,
    /// The payload decoded but had trailing garbage — damage that
    /// happened to keep the checksum of a prefix is not accepted.
    TrailingBytes,
    /// A procedure id, pc, work count or thread id above `u32::MAX`:
    /// no encoder writes one, so it is refused rather than narrowed.
    OutOfRange(
        /// The value read.
        u64,
    ),
}

impl std::fmt::Display for RecordError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecordError::Truncated => f.write_str("record truncated"),
            RecordError::Oversized(n) => write!(f, "record length {n} exceeds cap"),
            RecordError::BadChecksum => f.write_str("record checksum mismatch"),
            RecordError::BadTag(t) => write!(f, "unknown record tag {t}"),
            RecordError::Overlong => f.write_str("overlong varint in record"),
            RecordError::BadUtf8 => f.write_str("record name is not utf-8"),
            RecordError::TrailingBytes => f.write_str("record payload has trailing bytes"),
            RecordError::OutOfRange(v) => write!(f, "record field {v} exceeds u32"),
        }
    }
}

impl std::error::Error for RecordError {}

impl From<CodecError> for RecordError {
    fn from(e: CodecError) -> Self {
        match e {
            CodecError::Overlong => RecordError::Overlong,
            _ => RecordError::Truncated,
        }
    }
}

/// One hibernated tenant's complete durable state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TenantRecord {
    /// Tenant identifier.
    pub tenant: String,
    /// Logical time of the spill (drives TTL expiry).
    pub stamp: u64,
    /// Wire code of the tenant's prefetch backend — preserved so an
    /// A/B-assigned arm sticks across spill/load.
    pub backend: u8,
    /// The tenant's program image, needed to rebuild the session.
    pub procedures: Vec<Procedure>,
    /// Encoded `HDSSNAP2` snapshot blob (`None` before the first phase
    /// boundary, when the tail carries everything).
    pub snapshot: Option<Vec<u8>>,
    /// Events consumed since the snapshot's resume point, to replay.
    pub tail: Vec<Event>,
}

/// One framed segment entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Record {
    /// A tenant's cold state (later records supersede earlier ones).
    Tenant(TenantRecord),
    /// The tenant is gone; earlier records for it are dead.
    Tombstone {
        /// Tenant identifier.
        tenant: String,
        /// Logical time of the removal.
        stamp: u64,
    },
}

impl Record {
    /// The tenant the record is about.
    #[must_use]
    pub fn tenant(&self) -> &str {
        match self {
            Record::Tenant(r) => &r.tenant,
            Record::Tombstone { tenant, .. } => tenant,
        }
    }
}

fn put_string(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// Reads a count or a length.
fn get_len(buf: &mut &[u8]) -> Result<usize, RecordError> {
    usize::try_from(take_varint(buf)?).map_err(|_| RecordError::Overlong)
}

fn get_string(buf: &mut &[u8]) -> Result<String, RecordError> {
    let len = get_len(buf)?;
    let raw = take_bytes(buf, len)?;
    std::str::from_utf8(raw)
        .map(str::to_owned)
        .map_err(|_| RecordError::BadUtf8)
}

fn put_event(out: &mut Vec<u8>, event: &Event) {
    match event {
        Event::Enter(p) => {
            out.push(EV_ENTER);
            put_varint(out, u64::from(p.0));
        }
        Event::BackEdge(p) => {
            out.push(EV_BACK_EDGE);
            put_varint(out, u64::from(p.0));
        }
        Event::Work(n) => {
            out.push(EV_WORK);
            put_varint(out, u64::from(*n));
        }
        Event::Access(r, kind) => {
            out.push(match kind {
                AccessKind::Load => EV_ACCESS_LOAD,
                AccessKind::Store => EV_ACCESS_STORE,
            });
            put_varint(out, u64::from(r.pc.0));
            put_varint(out, r.addr.0);
        }
        Event::Exit(p) => {
            out.push(EV_EXIT);
            put_varint(out, u64::from(p.0));
        }
        Event::Prefetch(a) => {
            out.push(EV_PREFETCH);
            put_varint(out, a.0);
        }
        Event::Thread(t) => {
            out.push(EV_THREAD);
            put_varint(out, u64::from(*t));
        }
    }
}

/// Reads a varint into a `u32` field.
fn get_u32(buf: &mut &[u8]) -> Result<u32, RecordError> {
    let v = take_varint(buf)?;
    u32::try_from(v).map_err(|_| RecordError::OutOfRange(v))
}

fn get_event(buf: &mut &[u8]) -> Result<Event, RecordError> {
    let tag = take_u8(buf)?;
    Ok(match tag {
        EV_ENTER => Event::Enter(ProcId(get_u32(buf)?)),
        EV_BACK_EDGE => Event::BackEdge(ProcId(get_u32(buf)?)),
        EV_WORK => Event::Work(get_u32(buf)?),
        EV_ACCESS_LOAD | EV_ACCESS_STORE => {
            let pc = Pc(get_u32(buf)?);
            let addr = Addr(take_varint(buf)?);
            let kind = if tag == EV_ACCESS_LOAD {
                AccessKind::Load
            } else {
                AccessKind::Store
            };
            Event::Access(DataRef::new(pc, addr), kind)
        }
        EV_EXIT => Event::Exit(ProcId(get_u32(buf)?)),
        EV_PREFETCH => Event::Prefetch(Addr(take_varint(buf)?)),
        EV_THREAD => Event::Thread(get_u32(buf)?),
        other => return Err(RecordError::BadTag(other)),
    })
}

/// Encodes one record with its length + checksum frame. The header's
/// room is reserved first and filled in once the payload is written
/// behind it.
#[must_use]
#[allow(clippy::cast_possible_truncation)]
pub fn encode_record(record: &Record) -> Vec<u8> {
    let mut out = vec![0; RECORD_HEADER_BYTES];
    match record {
        Record::Tombstone { tenant, stamp } => {
            out.push(KIND_TOMBSTONE);
            put_varint(&mut out, *stamp);
            put_string(&mut out, tenant);
        }
        Record::Tenant(r) => {
            out.push(KIND_TENANT);
            put_varint(&mut out, r.stamp);
            put_string(&mut out, &r.tenant);
            out.push(r.backend);
            put_varint(&mut out, r.procedures.len() as u64);
            for p in &r.procedures {
                put_string(&mut out, p.name());
                put_varint(&mut out, p.pcs().len() as u64);
                for pc in p.pcs() {
                    put_varint(&mut out, u64::from(pc.0));
                }
            }
            match &r.snapshot {
                None => out.push(0),
                Some(blob) => {
                    out.push(1);
                    put_varint(&mut out, blob.len() as u64);
                    out.extend_from_slice(blob);
                }
            }
            put_varint(&mut out, r.tail.len() as u64);
            for ev in &r.tail {
                put_event(&mut out, ev);
            }
        }
    }
    let (header, payload) = out.split_at_mut(RECORD_HEADER_BYTES);
    header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[4..].copy_from_slice(&fnv1a64(payload).to_le_bytes());
    out
}

fn decode_payload(payload: &[u8]) -> Result<Record, RecordError> {
    let mut buf = payload;
    let record = match take_u8(&mut buf)? {
        KIND_TOMBSTONE => {
            let stamp = take_varint(&mut buf)?;
            let tenant = get_string(&mut buf)?;
            Record::Tombstone { tenant, stamp }
        }
        KIND_TENANT => {
            let stamp = take_varint(&mut buf)?;
            let tenant = get_string(&mut buf)?;
            let backend = take_u8(&mut buf)?;
            let proc_count = get_len(&mut buf)?;
            if proc_count > payload.len() {
                // A count no honest payload of this size could hold.
                return Err(RecordError::Truncated);
            }
            let mut procedures = Vec::with_capacity(proc_count);
            for _ in 0..proc_count {
                let name = get_string(&mut buf)?;
                let pc_count = get_len(&mut buf)?;
                if pc_count > payload.len() {
                    return Err(RecordError::Truncated);
                }
                let mut pcs = Vec::with_capacity(pc_count);
                for _ in 0..pc_count {
                    pcs.push(Pc(get_u32(&mut buf)?));
                }
                procedures.push(Procedure::new(name, pcs));
            }
            let snapshot = match take_u8(&mut buf)? {
                0 => None,
                1 => {
                    let len = get_len(&mut buf)?;
                    Some(take_bytes(&mut buf, len)?.to_vec())
                }
                other => return Err(RecordError::BadTag(other)),
            };
            let tail_count = get_len(&mut buf)?;
            if tail_count > payload.len() {
                return Err(RecordError::Truncated);
            }
            let mut tail = Vec::with_capacity(tail_count);
            for _ in 0..tail_count {
                tail.push(get_event(&mut buf)?);
            }
            Record::Tenant(TenantRecord {
                tenant,
                stamp,
                backend,
                procedures,
                snapshot,
                tail,
            })
        }
        other => return Err(RecordError::BadTag(other)),
    };
    if !buf.is_empty() {
        return Err(RecordError::TrailingBytes);
    }
    Ok(record)
}

/// Decodes the record starting at `buf[*offset..]`, advancing `offset`
/// past it. Returns `Ok(None)` at a clean end of buffer (exactly no
/// bytes left).
///
/// # Errors
///
/// A typed [`RecordError`] for anything else: torn frame, checksum
/// mismatch, bad tag, overlong varint. `offset` is unspecified after
/// an error — a scan must stop at the first one (everything beyond a
/// tear is untrusted).
pub fn decode_record(buf: &[u8], offset: &mut usize) -> Result<Option<Record>, RecordError> {
    let rest = &buf[(*offset).min(buf.len())..];
    if rest.is_empty() {
        return Ok(None);
    }
    if rest.len() < RECORD_HEADER_BYTES {
        return Err(RecordError::Truncated);
    }
    let len = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]);
    if len as usize > MAX_PAYLOAD_BYTES {
        return Err(RecordError::Oversized(len));
    }
    let want = u64::from_le_bytes(rest[4..12].try_into().expect("8 bytes"));
    let payload_end = RECORD_HEADER_BYTES + len as usize;
    if rest.len() < payload_end {
        return Err(RecordError::Truncated);
    }
    let payload = &rest[RECORD_HEADER_BYTES..payload_end];
    if fnv1a64(payload) != want {
        return Err(RecordError::BadChecksum);
    }
    let record = decode_payload(payload)?;
    *offset += payload_end;
    Ok(Some(record))
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn sample_tenant_record() -> TenantRecord {
        TenantRecord {
            tenant: "tenant-7".to_string(),
            stamp: 42,
            backend: 1,
            procedures: vec![
                Procedure::new("main", vec![Pc(0x10), Pc(0x14)]),
                Procedure::new("leaf", vec![Pc(0x20)]),
            ],
            snapshot: Some(b"HDSSNAP1-pretend-blob".to_vec()),
            tail: vec![
                Event::Enter(ProcId(0)),
                Event::Work(3),
                Event::Access(DataRef::new(Pc(0x10), Addr(0x1000)), AccessKind::Load),
                Event::Access(DataRef::new(Pc(0x14), Addr(0x2000)), AccessKind::Store),
                Event::Prefetch(Addr(0x3000)),
                Event::Thread(1),
                Event::BackEdge(ProcId(0)),
                Event::Exit(ProcId(0)),
            ],
        }
    }

    #[test]
    fn records_round_trip() {
        let records = vec![
            Record::Tenant(sample_tenant_record()),
            Record::Tombstone {
                tenant: "gone".to_string(),
                stamp: 7,
            },
            Record::Tenant(TenantRecord {
                tenant: String::new(),
                stamp: 0,
                backend: 0,
                procedures: Vec::new(),
                snapshot: None,
                tail: Vec::new(),
            }),
        ];
        let mut buf = Vec::new();
        for r in &records {
            buf.extend_from_slice(&encode_record(r));
        }
        let mut offset = 0;
        let mut back = Vec::new();
        while let Some(r) = decode_record(&buf, &mut offset).unwrap() {
            back.push(r);
        }
        assert_eq!(back, records);
        assert_eq!(offset, buf.len());
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let encoded = encode_record(&Record::Tenant(sample_tenant_record()));
        for i in 0..encoded.len() {
            let mut damaged = encoded.clone();
            damaged[i] ^= 0x01;
            let mut offset = 0;
            let got = decode_record(&damaged, &mut offset);
            assert!(
                got.is_err(),
                "flipping byte {i} must be a typed error, got {got:?}"
            );
        }
    }

    #[test]
    fn fields_wider_than_u32_are_refused_not_narrowed() {
        // Checksummed tenant records, each with one field at 2^32 + 3:
        // the one tail event of every tag that carries a u32, and a
        // procedure's one pc. Narrowed, each would decode as 3.
        let wide = (1u64 << 32) + 3;
        let mut payloads = Vec::new();
        for tag in [
            EV_ENTER,
            EV_BACK_EDGE,
            EV_WORK,
            EV_ACCESS_LOAD,
            EV_ACCESS_STORE,
            EV_EXIT,
            EV_THREAD,
        ] {
            // Kind, stamp, empty name, backend, no procedures, no
            // snapshot, one event.
            let mut p = vec![KIND_TENANT, 0, 0, 0, 0, 0, 1, tag];
            put_varint(&mut p, wide);
            if matches!(tag, EV_ACCESS_LOAD | EV_ACCESS_STORE) {
                p.push(0);
            }
            payloads.push(p);
        }
        // One unnamed procedure with one pc, no snapshot, no events.
        let mut p = vec![KIND_TENANT, 0, 0, 0, 1, 0, 1];
        put_varint(&mut p, wide);
        p.extend_from_slice(&[0, 0]);
        payloads.push(p);
        for payload in payloads {
            let mut blob = (payload.len() as u32).to_le_bytes().to_vec();
            blob.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
            blob.extend_from_slice(&payload);
            let mut offset = 0;
            assert_eq!(
                decode_record(&blob, &mut offset),
                Err(RecordError::OutOfRange(wide)),
                "payload {payload:?}"
            );
        }
    }

    #[test]
    fn torn_tails_are_truncated_not_panics() {
        let encoded = encode_record(&Record::Tenant(sample_tenant_record()));
        for cut in 1..encoded.len() {
            let mut offset = 0;
            let got = decode_record(&encoded[..cut], &mut offset);
            assert_eq!(got, Err(RecordError::Truncated), "cut at {cut}");
        }
        let mut offset = 0;
        assert_eq!(decode_record(&[], &mut offset), Ok(None));
    }

    #[test]
    fn oversized_length_prefix_is_typed() {
        let mut buf = vec![0xff; 32];
        let mut offset = 0;
        assert!(matches!(
            decode_record(&buf, &mut offset),
            Err(RecordError::Oversized(_))
        ));
        // A plausible length with a bad checksum is typed too.
        buf[..4].copy_from_slice(&20u32.to_le_bytes());
        let mut offset = 0;
        assert_eq!(
            decode_record(&buf, &mut offset),
            Err(RecordError::BadChecksum)
        );
    }
}
