//! The `HDSW` wire protocol: length-prefixed binary frames carrying
//! tenant trace streams to the serving front-end and reports back.
//!
//! Layout of every frame:
//!
//! ```text
//! length u32 LE | kind u8 | kind-specific fields | checksum u32 LE
//! ```
//!
//! where the length covers everything after the prefix, checksum
//! trailer included. The trailer is FNV-1a over the body, so a frame
//! damaged in flight decodes to the typed [`FrameError::Damaged`]
//! (with the stream still framed — the receiver drops it like a lost
//! packet) instead of silently applying corrupted data.
//!
//! The handshake frame additionally embeds the `HDSW` magic and a
//! protocol version so a server can reject foreign or future clients
//! with a typed error instead of misparsing their stream. Strings are
//! varint-length-prefixed UTF-8; integers are LEB128 varints; trace
//! events reuse the exact zigzag-delta primitives of the `HDSP`
//! profile codec ([`hds_trace::codec`]), with the delta predictor
//! reset at every chunk so chunks stay independently decodable.
//!
//! Decoding is total: any byte sequence produces either a [`Frame`] or
//! a [`FrameError`], never a panic — property-tested in
//! `tests/wire.rs` against truncation and single-byte corruption.

use std::sync::{Arc, Mutex, PoisonError};

use hds_backend::BackendKind;
use hds_store::{decode_record, Record, TenantRecord};
use hds_trace::codec::{
    put_varint, take_bytes, take_u8, take_varint, unzigzag, zigzag, CodecError,
};
use hds_trace::hash::Fnv1a32;
use hds_trace::{AccessKind, Addr, DataRef, Pc};
use hds_vulcan::{Event, ProcId, Procedure};

/// Magic bytes inside the `Hello` frame.
pub const MAGIC: &[u8; 4] = b"HDSW";
/// Current protocol version. Version 2 added the per-frame checksum
/// trailer.
pub const WIRE_VERSION: u8 = 2;
/// Upper bound on a frame body; larger length prefixes are rejected
/// before any allocation so a corrupt prefix cannot balloon memory.
pub const MAX_FRAME_BYTES: u32 = 1 << 26;

// Frame kind tags. Client→server kinds sit below 0x80, server→client
// kinds at or above it; the split is cosmetic (both directions decode
// with the same function) but makes hex dumps readable.
pub(crate) const K_HELLO: u8 = 0x01;
pub(crate) const K_OPEN: u8 = 0x02;
pub(crate) const K_CHUNK: u8 = 0x03;
pub(crate) const K_FLUSH: u8 = 0x04;
const K_EVICT: u8 = 0x05;
const K_RESUME: u8 = 0x06;
const K_INTROSPECT: u8 = 0x07;
pub(crate) const K_GOODBYE: u8 = 0x08;
const K_PONG: u8 = 0x09;
pub(crate) const K_MIGRATE: u8 = 0x0A;
pub(crate) const K_EXPORT: u8 = 0x0B;
const K_HELLO_ACK: u8 = 0x81;
const K_REPORT: u8 = 0x82;
const K_BUSY: u8 = 0x83;
const K_SHED: u8 = 0x84;
const K_REJECT: u8 = 0x85;
const K_STATS: u8 = 0x86;
const K_ACK: u8 = 0x87;
const K_GOODBYE_ACK: u8 = 0x88;
const K_PING: u8 = 0x89;
const K_EXPORTED: u8 = 0x8A;

/// `Hello` feature bit: the client speaks the reliable-delivery
/// sub-protocol (sequenced chunks, server `Ack`s, exactly-once resume
/// after reconnect).
pub const FEATURE_RELIABLE: u8 = 0b1;

// Event tags inside a TraceChunk payload.
const E_ENTER: u8 = 0;
const E_BACK_EDGE: u8 = 1;
const E_EXIT: u8 = 2;
const E_WORK: u8 = 3;
const E_ACCESS: u8 = 4;
const E_PREFETCH: u8 = 5;
const E_THREAD: u8 = 6;

/// Which admission budget shed a chunk (mirrors
/// [`hds_telemetry::events::ServeBudgetKind`] on the wire as one byte).
const B_LIVE: u8 = 0;
const B_QUEUE: u8 = 1;
const B_BYTES: u8 = 2;
const B_RETRY: u8 = 3;
const B_STORE: u8 = 4;

/// Why the server refused a frame. One byte on the wire; a typed code
/// (plus a free-form `detail`) replaces the old free-text-only reason
/// so clients can branch on the cause — retry, rewind, re-auth, or
/// give up — without string matching.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RejectCode {
    /// A non-`Hello` frame arrived before the handshake.
    HandshakeRequired,
    /// The `Hello` token did not match the server's shared secret.
    AuthFailed,
    /// A client sent a server→client frame kind.
    ClientSentServerFrame,
    /// The frame names a tenant the server has never opened.
    UnknownTenant,
    /// `OpenSession` for a tenant that is already open with a
    /// different program image.
    TenantAlreadyOpen,
    /// A stream frame for a tenant whose report is already final.
    TenantFlushed,
    /// A sequenced chunk skipped ahead: the client must rewind to the
    /// acknowledged sequence number carried in `detail`.
    BadSequence,
    /// The server is draining after `Goodbye` and accepts no new work.
    Draining,
    /// The tenant's durable cold state could not be loaded back
    /// (corrupt, torn, or unreadable record): the server discarded it
    /// and the tenant must reopen its session from scratch.
    StoreFailed,
    /// The tenant's event stream is malformed (an `Exit` with no
    /// matching activation, or a thread id past the session's bound):
    /// the server dropped the tenant, and `detail` names the tenant and
    /// the event. Resending the same stream fails the same way.
    MalformedStream,
}

impl RejectCode {
    /// All codes, in wire-tag order.
    pub const ALL: [RejectCode; 10] = [
        RejectCode::HandshakeRequired,
        RejectCode::AuthFailed,
        RejectCode::ClientSentServerFrame,
        RejectCode::UnknownTenant,
        RejectCode::TenantAlreadyOpen,
        RejectCode::TenantFlushed,
        RejectCode::BadSequence,
        RejectCode::Draining,
        RejectCode::StoreFailed,
        RejectCode::MalformedStream,
    ];

    /// The one-byte wire tag.
    #[must_use]
    pub fn wire_tag(self) -> u8 {
        match self {
            RejectCode::HandshakeRequired => 0,
            RejectCode::AuthFailed => 1,
            RejectCode::ClientSentServerFrame => 2,
            RejectCode::UnknownTenant => 3,
            RejectCode::TenantAlreadyOpen => 4,
            RejectCode::TenantFlushed => 5,
            RejectCode::BadSequence => 6,
            RejectCode::Draining => 7,
            RejectCode::StoreFailed => 8,
            RejectCode::MalformedStream => 9,
        }
    }

    fn from_wire_tag(tag: u8) -> Option<RejectCode> {
        RejectCode::ALL.into_iter().find(|c| c.wire_tag() == tag)
    }

    /// Stable lower-snake label for logs and JSON results.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            RejectCode::HandshakeRequired => "handshake_required",
            RejectCode::AuthFailed => "auth_failed",
            RejectCode::ClientSentServerFrame => "client_sent_server_frame",
            RejectCode::UnknownTenant => "unknown_tenant",
            RejectCode::TenantAlreadyOpen => "tenant_already_open",
            RejectCode::TenantFlushed => "tenant_flushed",
            RejectCode::BadSequence => "bad_sequence",
            RejectCode::Draining => "draining",
            RejectCode::StoreFailed => "store_failed",
            RejectCode::MalformedStream => "malformed_stream",
        }
    }
}

impl std::fmt::Display for RejectCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Errors from [`Frame::decode`]. Every malformed input maps to one of
/// these; decoding never panics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// The stream ended in the middle of a frame.
    Truncated,
    /// The length prefix exceeds [`MAX_FRAME_BYTES`].
    Oversized(
        /// The declared body length.
        u32,
    ),
    /// A `Hello` frame without the `HDSW` magic.
    BadMagic,
    /// The peer speaks a protocol version this library does not.
    UnsupportedVersion(
        /// The version found in the frame.
        u8,
    ),
    /// An unknown frame kind tag.
    UnknownKind(
        /// The tag found in the frame.
        u8,
    ),
    /// A varint ran past its maximum width.
    Overlong,
    /// A length-prefixed string was not valid UTF-8.
    BadUtf8,
    /// A structurally invalid payload (bad event tag, trailing bytes…).
    BadPayload(
        /// What was wrong.
        &'static str,
    ),
    /// The frame's checksum trailer did not match its body: bytes were
    /// damaged in flight. The stream is still framed — drop the frame
    /// like a lost packet and let the sender's retry re-deliver it.
    Damaged {
        /// Checksum recomputed over the received body.
        want: u32,
        /// Checksum the frame carried.
        got: u32,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated => f.write_str("frame truncated"),
            FrameError::Oversized(n) => write!(f, "frame body of {n} bytes exceeds the cap"),
            FrameError::BadMagic => f.write_str("hello frame without HDSW magic"),
            FrameError::UnsupportedVersion(v) => write!(f, "unsupported wire version {v}"),
            FrameError::UnknownKind(k) => write!(f, "unknown frame kind {k:#04x}"),
            FrameError::Overlong => f.write_str("overlong varint in frame"),
            FrameError::BadUtf8 => f.write_str("frame string is not valid UTF-8"),
            FrameError::BadPayload(what) => write!(f, "bad frame payload: {what}"),
            FrameError::Damaged { want, got } => {
                write!(
                    f,
                    "frame damaged in flight: checksum {got:#010x}, body {want:#010x}"
                )
            }
        }
    }
}

impl std::error::Error for FrameError {}

impl From<CodecError> for FrameError {
    fn from(e: CodecError) -> Self {
        match e {
            CodecError::Truncated => FrameError::Truncated,
            CodecError::Overlong => FrameError::Overlong,
            // The profile codec's magic/version errors cannot surface
            // from the varint helpers this module borrows.
            CodecError::BadMagic => FrameError::BadMagic,
            CodecError::UnsupportedVersion(v) => FrameError::UnsupportedVersion(v),
        }
    }
}

/// Live summary of one tenant inside a [`Frame::Stats`] answer —
/// read straight off the control plane and the owning shard, without
/// flushing, pumping, or rehydrating anything.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TenantStats {
    /// Tenant identifier.
    pub tenant: String,
    /// The shard the tenant is hashed onto.
    pub shard: u32,
    /// Whether the tenant currently holds a live session slot.
    pub live: bool,
    /// Whether the tenant has been flushed (its report is final).
    pub finished: bool,
    /// Chunks enqueued on the control plane since the last pump.
    pub queued_chunks: u64,
    /// Events the live session has consumed so far (0 while the
    /// tenant is hibernated — reading it would mean rehydrating).
    pub events_consumed: u64,
    /// Phase-boundary snapshots the live session has taken (0 while
    /// hibernated, for the same reason).
    pub snapshots: u64,
    /// Events in the replay tail (journal since the last snapshot),
    /// live or hibernated.
    pub tail_events: u64,
}

/// Live summary of one shard inside a [`Frame::Stats`] answer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardSummary {
    /// Shard index.
    pub shard: u32,
    /// Messages waiting in the shard mailbox (not yet pumped).
    pub mailbox_depth: u64,
    /// Tenant sessions currently materialized on the shard.
    pub live_sessions: u64,
    /// Trace-chunk frames the shard has pumped so far.
    pub frames: u64,
    /// Trace events the shard has pumped so far.
    pub events: u64,
}

/// One protocol message, either direction.
#[derive(Clone, Debug, PartialEq)]
pub enum Frame {
    /// Client handshake: magic + version + auth token + feature bits.
    /// Must be the first frame. The token is compared against the
    /// server's shared secret in constant time; a mismatch is a typed
    /// [`RejectCode::AuthFailed`]. An empty token authenticates only
    /// against a server with no secret configured.
    Hello {
        /// The client's protocol version.
        version: u8,
        /// Shared-secret auth token ("" = unauthenticated).
        token: String,
        /// Feature bits ([`FEATURE_RELIABLE`], …). Unknown bits are
        /// ignored by the server.
        features: u8,
        /// Requested prefetch backend for this connection's tenants.
        /// Encoded as an optional trailing byte: `None` (a pre-backend
        /// v2 client) omits it entirely, so old frames decode
        /// unchanged, and the server falls back to its configured
        /// default / A/B split.
        backend: Option<BackendKind>,
    },
    /// Registers a tenant and its simulated binary's procedures.
    OpenSession {
        /// Tenant identifier (any UTF-8 string).
        tenant: String,
        /// The procedures of the tenant's program image.
        procedures: Vec<Procedure>,
    },
    /// A batch of trace events for an open tenant.
    TraceChunk {
        /// Tenant identifier.
        tenant: String,
        /// Per-tenant sequence number, starting at 1; `0` marks an
        /// unsequenced (legacy / fire-and-forget) chunk that is never
        /// acknowledged or deduplicated. On a reliable connection the
        /// server applies chunk `n+1` exactly once after chunk `n`,
        /// re-acknowledges duplicates without re-applying them, and
        /// rejects gaps with [`RejectCode::BadSequence`].
        seq: u64,
        /// The events, in program order.
        events: ChunkEvents,
    },
    /// Ends the tenant's stream; the server answers with [`Frame::Report`].
    Flush {
        /// Tenant identifier.
        tenant: String,
    },
    /// Explicitly hibernates the tenant's session (snapshot + drop).
    Evict {
        /// Tenant identifier.
        tenant: String,
    },
    /// Explicitly rehydrates an evicted tenant.
    Resume {
        /// Tenant identifier.
        tenant: String,
    },
    /// Asks for live state without flushing: the server answers with
    /// one [`Frame::Stats`]. An empty tenant string means "all
    /// tenants"; a non-empty one narrows the answer to that tenant
    /// (unknown tenants are a [`Frame::Reject`]).
    Introspect {
        /// Tenant filter ("" = all).
        tenant: String,
    },
    /// Seats a tenant's complete cold state — the exact durable
    /// [`TenantRecord`] bytes from `hds-store`, checksummed frame and
    /// all — on this server. The cluster router uses this to re-home a
    /// tenant onto a new owner process: the owner rehydrates through
    /// the same snapshot + replay-tail path as a store load, so
    /// migration is bit-identical to never having moved. Acknowledged
    /// with [`Frame::Ack`] at the record's sequence floor (`0`); a
    /// retransmitted `Migrate` for an already-seated tenant with the
    /// same image is re-acknowledged without re-applying.
    Migrate {
        /// The tenant's full cold state.
        record: TenantRecord,
    },
    /// Asks the server to hibernate the tenant and hand back its
    /// complete cold state as one [`Frame::Exported`] record — the
    /// departure half of a live migration. With `detach` the server
    /// also forgets the tenant entirely (its next appearance is on
    /// another owner); without it the tenant stays, so a router can
    /// periodically refresh its copy of the record and truncate its
    /// replay journal.
    Export {
        /// Tenant identifier.
        tenant: String,
        /// Forget the tenant after exporting (a true departure) rather
        /// than keeping it resident (a journal-truncation refresh).
        detach: bool,
    },
    /// Server handshake acknowledgement.
    HelloAck {
        /// The server's protocol version.
        version: u8,
        /// The backend the server granted this connection (the
        /// requested one when valid, else the server's resolution).
        /// Omitted on the wire when `None`, mirroring [`Frame::Hello`],
        /// so pre-backend clients parse the ack unchanged.
        backend: Option<BackendKind>,
    },
    /// The tenant's final [`hds_core::RunReport`], serialized as JSON,
    /// plus the code image digest for bit-identity checks.
    Report {
        /// Tenant identifier.
        tenant: String,
        /// `serde_json`-serialized `RunReport`.
        report_json: String,
        /// `Session::image_digest()` at flush time.
        image_digest: u64,
    },
    /// The live-session cap is reached and eviction is disabled.
    Busy {
        /// Tenant identifier.
        tenant: String,
        /// The configured cap.
        budget: u64,
        /// The observed value that breached it.
        observed: u64,
    },
    /// A chunk was dropped by admission control.
    Shed {
        /// Tenant identifier.
        tenant: String,
        /// Which budget shed it.
        kind: hds_telemetry::events::ServeBudgetKind,
        /// The configured cap.
        budget: u64,
        /// The prospective value that breached it.
        observed: u64,
    },
    /// A protocol violation (no handshake, bad token, unknown
    /// tenant, …): a typed code plus free-form detail.
    Reject {
        /// Why the frame was refused.
        code: RejectCode,
        /// Human-readable detail. For [`RejectCode::BadSequence`] this
        /// is `"<tenant> <last_acked_seq>"` so the client can rewind.
        detail: String,
    },
    /// The live-state answer to [`Frame::Introspect`]. A snapshot of
    /// the control plane and shard state at one control-plane tick;
    /// per-session counters reflect the last pump.
    Stats {
        /// The control-plane clock when the answer was taken.
        clock: u64,
        /// Bytes of queued chunks charged against the global budget.
        queued_bytes: u64,
        /// Per-tenant summaries (filtered when the request named one).
        tenants: Vec<TenantStats>,
        /// Per-shard summaries (always all shards).
        shards: Vec<ShardSummary>,
    },
    /// Server acknowledgement of a sequenced [`Frame::TraceChunk`]:
    /// every chunk numbered at or below `seq` is durably applied (or
    /// deduplicated) and need never be retransmitted.
    Ack {
        /// Tenant identifier.
        tenant: String,
        /// Highest contiguously applied sequence number.
        seq: u64,
    },
    /// The answer to [`Frame::Export`]: the tenant's complete cold
    /// state in the durable [`TenantRecord`] format, taken after every
    /// chunk acknowledged so far was applied and the session
    /// hibernated. Seating this record elsewhere via [`Frame::Migrate`]
    /// reproduces the tenant bit for bit.
    Exported {
        /// The tenant's full cold state.
        record: TenantRecord,
    },
    /// Client request for a graceful drain: the server pumps all
    /// queued work, hibernates live tenants, answers with
    /// [`Frame::GoodbyeAck`], and the connection closes cleanly.
    Goodbye,
    /// Server confirmation that the drain completed.
    GoodbyeAck {
        /// Tenant sessions hibernated by the drain.
        drained: u64,
    },
    /// Server keepalive probe, sent when a read deadline lapses with
    /// tenants still open; the client answers with [`Frame::Pong`].
    Ping {
        /// Echo nonce.
        nonce: u64,
    },
    /// Client answer to [`Frame::Ping`], echoing its nonce.
    Pong {
        /// The nonce from the `Ping`.
        nonce: u64,
    },
}

/// Most events the decoder reserves room for before reading them, and
/// the largest buffer a [`FrameBuffer`] takes back for reuse: a chunk
/// that grew its buffer past this is freed, not kept. So the spare a
/// connection keeps is at most 2^16 events (1.5 MiB at 24 bytes each).
const MAX_RESERVED_EVENTS: usize = 1 << 16;

/// The spare event buffer of one [`FrameBuffer`], shared with the
/// chunks decoded from it: the thread that drops a chunk (a shard's
/// pump worker, say) is not always the one that decoded it. Each update
/// under the lock is one take or put, which leaves the slot whole, so
/// its users take it even from a poisoned lock.
type Spare = Arc<Mutex<Option<Vec<Event>>>>;

/// The events of a [`Frame::TraceChunk`], read as a `[Event]` slice.
///
/// A chunk that [`decode_stream`] decodes is written into a buffer its
/// [`FrameBuffer`] lends, and dropping the chunk hands the cleared
/// buffer back, so a connection that applies each chunk before the
/// next arrives decodes them all into one allocation instead of a
/// fresh one each. Events built from a `Vec` (`.into()`), decoded by
/// [`Frame::decode`], cloned, or taken out with
/// [`ChunkEvents::into_vec`] own their buffer outright. Equality and
/// `Debug` see the events alone.
pub struct ChunkEvents {
    events: Vec<Event>,
    /// Where the buffer goes back when the events drop, if it was lent.
    home: Option<Spare>,
}

impl ChunkEvents {
    /// No events yet, in a buffer lent from `home`: its spare when it
    /// holds one, else a fresh one that goes back to it.
    fn lent(home: &Spare) -> ChunkEvents {
        let spare = home.lock().unwrap_or_else(PoisonError::into_inner).take();
        ChunkEvents {
            events: spare.unwrap_or_default(),
            home: Some(Arc::clone(home)),
        }
    }

    /// The events in a `Vec` of their own. A lent buffer stays with
    /// the caller and is not handed back.
    #[must_use]
    pub fn into_vec(mut self) -> Vec<Event> {
        self.home = None;
        std::mem::take(&mut self.events)
    }
}

impl Drop for ChunkEvents {
    fn drop(&mut self) {
        let Some(home) = self.home.take() else {
            return;
        };
        if self.events.capacity() > MAX_RESERVED_EVENTS {
            return;
        }
        let mut spare = home.lock().unwrap_or_else(PoisonError::into_inner);
        if spare.is_none() {
            let mut events = std::mem::take(&mut self.events);
            events.clear();
            *spare = Some(events);
        }
    }
}

impl From<Vec<Event>> for ChunkEvents {
    fn from(events: Vec<Event>) -> Self {
        ChunkEvents { events, home: None }
    }
}

impl std::ops::Deref for ChunkEvents {
    type Target = [Event];

    fn deref(&self) -> &[Event] {
        &self.events
    }
}

impl Clone for ChunkEvents {
    fn clone(&self) -> Self {
        self.events.clone().into()
    }
}

impl PartialEq for ChunkEvents {
    fn eq(&self, other: &Self) -> bool {
        self.events == other.events
    }
}

impl std::fmt::Debug for ChunkEvents {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.events.fmt(f)
    }
}

fn put_string(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

fn get_string(buf: &mut &[u8]) -> Result<String, FrameError> {
    let len = usize::try_from(take_varint(buf)?).map_err(|_| FrameError::Oversized(u32::MAX))?;
    let raw = take_bytes(buf, len)?;
    std::str::from_utf8(raw)
        .map(str::to_owned)
        .map_err(|_| FrameError::BadUtf8)
}

fn put_budget_kind(out: &mut Vec<u8>, kind: hds_telemetry::events::ServeBudgetKind) {
    use hds_telemetry::events::ServeBudgetKind as K;
    out.push(match kind {
        K::LiveSessions => B_LIVE,
        K::TenantQueue => B_QUEUE,
        K::GlobalBytes => B_BYTES,
        K::RetryStorm => B_RETRY,
        K::StoreFaults => B_STORE,
    });
}

fn get_budget_kind(buf: &mut &[u8]) -> Result<hds_telemetry::events::ServeBudgetKind, FrameError> {
    use hds_telemetry::events::ServeBudgetKind as K;
    match take_u8(buf)? {
        B_LIVE => Ok(K::LiveSessions),
        B_QUEUE => Ok(K::TenantQueue),
        B_BYTES => Ok(K::GlobalBytes),
        B_RETRY => Ok(K::RetryStorm),
        B_STORE => Ok(K::StoreFaults),
        _ => Err(FrameError::BadPayload("unknown budget kind")),
    }
}

/// Most bytes one event encodes to: tag, access kind and two
/// ten-byte varints.
const MAX_EVENT_BYTES: usize = 22;

/// A writer that folds every byte into the frame checksum as it
/// writes it, so a chunk's body is checksummed in the pass that
/// encodes it.
struct Summed<'a> {
    out: &'a mut Vec<u8>,
    sum: &'a mut Fnv1a32,
}

impl Summed<'_> {
    #[inline]
    fn u8(&mut self, b: u8) {
        self.out.push(b);
        self.sum.write_u8(b);
    }

    /// The bytes [`put_varint`] writes.
    #[inline]
    fn varint(&mut self, mut v: u64) {
        while v >= 0x80 {
            #[allow(clippy::cast_possible_truncation)]
            self.u8(v as u8 | 0x80);
            v >>= 7;
        }
        #[allow(clippy::cast_possible_truncation)]
        self.u8(v as u8);
    }
}

fn put_events(out: &mut Vec<u8>, sum: &mut Fnv1a32, events: &[Event]) {
    let mut w = Summed { out, sum };
    w.varint(events.len() as u64);
    // Per-chunk delta predictor, exactly as the profile codec resets
    // per burst: chunks decode independently of each other.
    let mut prev_pc: i64 = 0;
    let mut prev_addr: i64 = 0;
    for e in events {
        match *e {
            Event::Enter(p) => {
                w.u8(E_ENTER);
                w.varint(u64::from(p.0));
            }
            Event::BackEdge(p) => {
                w.u8(E_BACK_EDGE);
                w.varint(u64::from(p.0));
            }
            Event::Exit(p) => {
                w.u8(E_EXIT);
                w.varint(u64::from(p.0));
            }
            Event::Work(n) => {
                w.u8(E_WORK);
                w.varint(u64::from(n));
            }
            Event::Access(r, kind) => {
                w.u8(E_ACCESS);
                w.u8(match kind {
                    AccessKind::Load => 0,
                    AccessKind::Store => 1,
                });
                let pc = i64::from(r.pc.0);
                #[allow(clippy::cast_possible_wrap)]
                let addr = r.addr.0 as i64;
                w.varint(zigzag(pc.wrapping_sub(prev_pc)));
                w.varint(zigzag(addr.wrapping_sub(prev_addr)));
                prev_pc = pc;
                prev_addr = addr;
            }
            Event::Prefetch(a) => {
                w.u8(E_PREFETCH);
                w.varint(a.0);
            }
            Event::Thread(t) => {
                w.u8(E_THREAD);
                w.varint(u64::from(t));
            }
        }
    }
}

/// Decodes a chunk's events into `events`, which is empty.
fn get_events(buf: &mut &[u8], events: &mut Vec<Event>) -> Result<(), FrameError> {
    // Walk a copy of the slice, which stays in registers, and store
    // where it ended once the events are done.
    let mut s = *buf;
    let n = take_varint(&mut s)?;
    // A chunk of n events needs at least n tag bytes; reject absurd
    // counts before reserving anything.
    if n > u64::from(MAX_FRAME_BYTES) {
        return Err(FrameError::BadPayload("event count exceeds frame cap"));
    }
    #[allow(clippy::cast_possible_truncation)]
    events.reserve((n as usize).min(MAX_RESERVED_EVENTS));
    let mut prev_pc: i64 = 0;
    let mut prev_addr: i64 = 0;
    for _ in 0..n {
        let tag = take_u8(&mut s)?;
        let event = match tag {
            E_ENTER | E_BACK_EDGE | E_EXIT => {
                let raw = take_varint(&mut s)?;
                let p = ProcId(
                    u32::try_from(raw).map_err(|_| FrameError::BadPayload("proc id overflow"))?,
                );
                match tag {
                    E_ENTER => Event::Enter(p),
                    E_BACK_EDGE => Event::BackEdge(p),
                    _ => Event::Exit(p),
                }
            }
            E_WORK => {
                let raw = take_varint(&mut s)?;
                Event::Work(
                    u32::try_from(raw).map_err(|_| FrameError::BadPayload("work overflow"))?,
                )
            }
            E_ACCESS => {
                let kind = match take_u8(&mut s)? {
                    0 => AccessKind::Load,
                    1 => AccessKind::Store,
                    _ => return Err(FrameError::BadPayload("unknown access kind")),
                };
                let pc = prev_pc.wrapping_add(unzigzag(take_varint(&mut s)?));
                let addr = prev_addr.wrapping_add(unzigzag(take_varint(&mut s)?));
                prev_pc = pc;
                prev_addr = addr;
                #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                Event::Access(DataRef::new(Pc(pc as u32), Addr(addr as u64)), kind)
            }
            E_PREFETCH => Event::Prefetch(Addr(take_varint(&mut s)?)),
            E_THREAD => {
                let raw = take_varint(&mut s)?;
                Event::Thread(
                    u32::try_from(raw).map_err(|_| FrameError::BadPayload("thread overflow"))?,
                )
            }
            _ => return Err(FrameError::BadPayload("unknown event tag")),
        };
        events.push(event);
    }
    *buf = s;
    Ok(())
}

fn put_tenant_stats(out: &mut Vec<u8>, stats: &[TenantStats]) {
    put_varint(out, stats.len() as u64);
    for t in stats {
        put_string(out, &t.tenant);
        put_varint(out, u64::from(t.shard));
        out.push(u8::from(t.live) | (u8::from(t.finished) << 1));
        put_varint(out, t.queued_chunks);
        put_varint(out, t.events_consumed);
        put_varint(out, t.snapshots);
        put_varint(out, t.tail_events);
    }
}

fn get_tenant_stats(buf: &mut &[u8]) -> Result<Vec<TenantStats>, FrameError> {
    let n = take_varint(buf)?;
    if n > u64::from(MAX_FRAME_BYTES) {
        return Err(FrameError::BadPayload("tenant count exceeds frame cap"));
    }
    let mut stats = Vec::new();
    for _ in 0..n {
        let tenant = get_string(buf)?;
        let shard = u32::try_from(take_varint(buf)?)
            .map_err(|_| FrameError::BadPayload("shard overflow"))?;
        let flags = take_u8(buf)?;
        if flags > 0b11 {
            return Err(FrameError::BadPayload("unknown tenant flags"));
        }
        stats.push(TenantStats {
            tenant,
            shard,
            live: flags & 0b01 != 0,
            finished: flags & 0b10 != 0,
            queued_chunks: take_varint(buf)?,
            events_consumed: take_varint(buf)?,
            snapshots: take_varint(buf)?,
            tail_events: take_varint(buf)?,
        });
    }
    Ok(stats)
}

fn put_shard_summaries(out: &mut Vec<u8>, shards: &[ShardSummary]) {
    put_varint(out, shards.len() as u64);
    for s in shards {
        put_varint(out, u64::from(s.shard));
        put_varint(out, s.mailbox_depth);
        put_varint(out, s.live_sessions);
        put_varint(out, s.frames);
        put_varint(out, s.events);
    }
}

fn get_shard_summaries(buf: &mut &[u8]) -> Result<Vec<ShardSummary>, FrameError> {
    let n = take_varint(buf)?;
    if n > u64::from(MAX_FRAME_BYTES) {
        return Err(FrameError::BadPayload("shard count exceeds frame cap"));
    }
    let mut shards = Vec::new();
    for _ in 0..n {
        shards.push(ShardSummary {
            shard: u32::try_from(take_varint(buf)?)
                .map_err(|_| FrameError::BadPayload("shard overflow"))?,
            mailbox_depth: take_varint(buf)?,
            live_sessions: take_varint(buf)?,
            frames: take_varint(buf)?,
            events: take_varint(buf)?,
        });
    }
    Ok(shards)
}

/// Embeds a tenant record as its *exact* durable `hds-store` bytes
/// (length + FNV-1a-64 + payload), varint-length-prefixed. Reusing the
/// segment-file framing verbatim means a record that round-trips
/// through the wire is byte-identical to one that round-tripped
/// through disk — migration and spill/load share one codec.
fn put_record(out: &mut Vec<u8>, record: &TenantRecord) {
    let blob = record.encode();
    put_varint(out, blob.len() as u64);
    out.extend_from_slice(&blob);
}

fn get_record(buf: &mut &[u8]) -> Result<TenantRecord, FrameError> {
    let len = usize::try_from(take_varint(buf)?).map_err(|_| FrameError::Oversized(u32::MAX))?;
    if len > MAX_FRAME_BYTES as usize {
        return Err(FrameError::BadPayload("record exceeds frame cap"));
    }
    let blob = take_bytes(buf, len)?;
    let mut offset = 0usize;
    match decode_record(blob, &mut offset) {
        Ok(Some(Record::Tenant(record))) if offset == blob.len() => Ok(record),
        Ok(Some(Record::Tenant(_))) => Err(FrameError::BadPayload("trailing bytes after record")),
        Ok(Some(Record::Tombstone { .. })) => {
            Err(FrameError::BadPayload("tombstone record in frame"))
        }
        Ok(None) | Err(_) => Err(FrameError::BadPayload("damaged tenant record")),
    }
}

fn put_procedures(out: &mut Vec<u8>, procedures: &[Procedure]) {
    put_varint(out, procedures.len() as u64);
    for p in procedures {
        put_string(out, p.name());
        put_varint(out, p.pcs().len() as u64);
        for pc in p.pcs() {
            put_varint(out, u64::from(pc.0));
        }
    }
}

fn get_procedures(buf: &mut &[u8]) -> Result<Vec<Procedure>, FrameError> {
    let n = take_varint(buf)?;
    if n > u64::from(MAX_FRAME_BYTES) {
        return Err(FrameError::BadPayload("procedure count exceeds frame cap"));
    }
    let mut procedures = Vec::new();
    for _ in 0..n {
        let name = get_string(buf)?;
        let pcs_len = take_varint(buf)?;
        if pcs_len > u64::from(MAX_FRAME_BYTES) {
            return Err(FrameError::BadPayload("pc count exceeds frame cap"));
        }
        let mut pcs = Vec::new();
        for _ in 0..pcs_len {
            let raw = take_varint(buf)?;
            pcs.push(Pc(
                u32::try_from(raw).map_err(|_| FrameError::BadPayload("pc overflow"))?
            ));
        }
        procedures.push(Procedure::new(name, pcs));
    }
    Ok(procedures)
}

impl Frame {
    /// A plain unauthenticated `Hello` at the current wire version —
    /// the handshake every pre-reliability client sent.
    #[must_use]
    pub fn hello() -> Frame {
        Frame::Hello {
            version: WIRE_VERSION,
            token: String::new(),
            features: 0,
            backend: None,
        }
    }

    /// The frame's wire kind tag — what `ServeFrame` spans carry in
    /// their `a` argument so a flight dump names the frame kind.
    #[must_use]
    pub fn kind_tag(&self) -> u8 {
        match self {
            Frame::Hello { .. } => K_HELLO,
            Frame::OpenSession { .. } => K_OPEN,
            Frame::TraceChunk { .. } => K_CHUNK,
            Frame::Flush { .. } => K_FLUSH,
            Frame::Evict { .. } => K_EVICT,
            Frame::Resume { .. } => K_RESUME,
            Frame::Introspect { .. } => K_INTROSPECT,
            Frame::Migrate { .. } => K_MIGRATE,
            Frame::Export { .. } => K_EXPORT,
            Frame::HelloAck { .. } => K_HELLO_ACK,
            Frame::Report { .. } => K_REPORT,
            Frame::Busy { .. } => K_BUSY,
            Frame::Shed { .. } => K_SHED,
            Frame::Reject { .. } => K_REJECT,
            Frame::Stats { .. } => K_STATS,
            Frame::Ack { .. } => K_ACK,
            Frame::Exported { .. } => K_EXPORTED,
            Frame::Goodbye => K_GOODBYE,
            Frame::GoodbyeAck { .. } => K_GOODBYE_ACK,
            Frame::Ping { .. } => K_PING,
            Frame::Pong { .. } => K_PONG,
        }
    }

    /// The tenant this frame addresses, if any. An [`Frame::Introspect`]
    /// with an empty filter addresses no single tenant and returns
    /// `None`.
    #[must_use]
    pub fn tenant(&self) -> Option<&str> {
        match self {
            Frame::OpenSession { tenant, .. }
            | Frame::TraceChunk { tenant, .. }
            | Frame::Flush { tenant }
            | Frame::Evict { tenant }
            | Frame::Resume { tenant }
            | Frame::Report { tenant, .. }
            | Frame::Busy { tenant, .. }
            | Frame::Shed { tenant, .. }
            | Frame::Export { tenant, .. }
            | Frame::Ack { tenant, .. } => Some(tenant),
            Frame::Migrate { record } | Frame::Exported { record } => Some(&record.tenant),
            Frame::Introspect { tenant } if !tenant.is_empty() => Some(tenant),
            Frame::Hello { .. }
            | Frame::HelloAck { .. }
            | Frame::Reject { .. }
            | Frame::Stats { .. }
            | Frame::Introspect { .. }
            | Frame::Goodbye
            | Frame::GoodbyeAck { .. }
            | Frame::Ping { .. }
            | Frame::Pong { .. } => None,
        }
    }

    /// Serializes the frame, length prefix included.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        // Sized so a chunk frame never regrows: its fixed fields fit in
        // 64 bytes, and no event encodes to more than MAX_EVENT_BYTES.
        let chunk_bytes = match self {
            Frame::TraceChunk { tenant, events, .. } => {
                tenant.len() + events.len() * MAX_EVENT_BYTES
            }
            _ => 0,
        };
        let mut out = Vec::with_capacity(64 + chunk_bytes);
        // The length prefix, written once the body is.
        out.extend_from_slice(&[0; LEN_BYTES]);
        let mut sum = Fnv1a32::new();
        // Where the body bytes not yet folded into `sum` start.
        let mut unsummed = LEN_BYTES;
        match self {
            Frame::Hello {
                version,
                token,
                features,
                backend,
            } => {
                out.push(K_HELLO);
                out.extend_from_slice(MAGIC);
                out.push(*version);
                put_string(&mut out, token);
                out.push(*features);
                // Optional trailing byte: absent entirely for `None`,
                // so the encoding of a backend-less Hello is
                // byte-identical to the pre-backend wire format.
                if let Some(b) = backend {
                    out.push(b.wire_code());
                }
            }
            Frame::OpenSession { tenant, procedures } => {
                out.push(K_OPEN);
                put_string(&mut out, tenant);
                put_procedures(&mut out, procedures);
            }
            Frame::TraceChunk {
                tenant,
                seq,
                events,
            } => {
                out.push(K_CHUNK);
                put_string(&mut out, tenant);
                put_varint(&mut out, *seq);
                sum.write(&out[LEN_BYTES..]);
                put_events(&mut out, &mut sum, events);
                unsummed = out.len();
            }
            Frame::Flush { tenant } => {
                out.push(K_FLUSH);
                put_string(&mut out, tenant);
            }
            Frame::Evict { tenant } => {
                out.push(K_EVICT);
                put_string(&mut out, tenant);
            }
            Frame::Resume { tenant } => {
                out.push(K_RESUME);
                put_string(&mut out, tenant);
            }
            Frame::Introspect { tenant } => {
                out.push(K_INTROSPECT);
                put_string(&mut out, tenant);
            }
            Frame::Migrate { record } => {
                out.push(K_MIGRATE);
                put_record(&mut out, record);
            }
            Frame::Export { tenant, detach } => {
                out.push(K_EXPORT);
                put_string(&mut out, tenant);
                out.push(u8::from(*detach));
            }
            Frame::Exported { record } => {
                out.push(K_EXPORTED);
                put_record(&mut out, record);
            }
            Frame::HelloAck { version, backend } => {
                out.push(K_HELLO_ACK);
                out.extend_from_slice(MAGIC);
                out.push(*version);
                if let Some(b) = backend {
                    out.push(b.wire_code());
                }
            }
            Frame::Report {
                tenant,
                report_json,
                image_digest,
            } => {
                out.push(K_REPORT);
                put_string(&mut out, tenant);
                put_string(&mut out, report_json);
                put_varint(&mut out, *image_digest);
            }
            Frame::Busy {
                tenant,
                budget,
                observed,
            } => {
                out.push(K_BUSY);
                put_string(&mut out, tenant);
                put_varint(&mut out, *budget);
                put_varint(&mut out, *observed);
            }
            Frame::Shed {
                tenant,
                kind,
                budget,
                observed,
            } => {
                out.push(K_SHED);
                put_string(&mut out, tenant);
                put_budget_kind(&mut out, *kind);
                put_varint(&mut out, *budget);
                put_varint(&mut out, *observed);
            }
            Frame::Reject { code, detail } => {
                out.push(K_REJECT);
                out.push(code.wire_tag());
                put_string(&mut out, detail);
            }
            Frame::Stats {
                clock,
                queued_bytes,
                tenants,
                shards,
            } => {
                out.push(K_STATS);
                put_varint(&mut out, *clock);
                put_varint(&mut out, *queued_bytes);
                put_tenant_stats(&mut out, tenants);
                put_shard_summaries(&mut out, shards);
            }
            Frame::Ack { tenant, seq } => {
                out.push(K_ACK);
                put_string(&mut out, tenant);
                put_varint(&mut out, *seq);
            }
            Frame::Goodbye => {
                out.push(K_GOODBYE);
            }
            Frame::GoodbyeAck { drained } => {
                out.push(K_GOODBYE_ACK);
                put_varint(&mut out, *drained);
            }
            Frame::Ping { nonce } => {
                out.push(K_PING);
                put_varint(&mut out, *nonce);
            }
            Frame::Pong { nonce } => {
                out.push(K_PONG);
                put_varint(&mut out, *nonce);
            }
        }
        sum.write(&out[unsummed..]);
        #[allow(clippy::cast_possible_truncation)]
        let len = (out.len() - LEN_BYTES + CHECKSUM_BYTES) as u32;
        out[..LEN_BYTES].copy_from_slice(&len.to_le_bytes());
        out.extend_from_slice(&sum.finish().to_le_bytes());
        out
    }

    /// Decodes one complete frame from `blob` (length prefix included).
    /// Trailing bytes after the declared body are a [`FrameError::BadPayload`];
    /// use [`decode_stream`] to pull frames out of a concatenated byte
    /// stream.
    ///
    /// # Errors
    ///
    /// Any [`FrameError`]; never panics, whatever the input bytes.
    pub fn decode(blob: &[u8]) -> Result<Frame, FrameError> {
        let Some((prefix, sealed)) = blob.split_first_chunk::<LEN_BYTES>() else {
            return Err(FrameError::Truncated);
        };
        let len = u32::from_le_bytes(*prefix);
        if len > MAX_FRAME_BYTES {
            return Err(FrameError::Oversized(len));
        }
        if (sealed.len() as u64) < u64::from(len) {
            return Err(FrameError::Truncated);
        }
        if sealed.len() as u64 > u64::from(len) {
            return Err(FrameError::BadPayload("trailing bytes after frame"));
        }
        open_sealed(sealed, None)
    }
}

/// Bytes of length prefix in front of every frame.
const LEN_BYTES: usize = 4;

/// Checks a complete frame's checksum and decodes its body in place.
/// `sealed` is everything after the length prefix: body and trailer.
/// A chunk's events go into a buffer lent from `spare`, if given.
fn open_sealed(sealed: &[u8], spare: Option<&Spare>) -> Result<Frame, FrameError> {
    // The smallest frame is one kind byte plus the trailer.
    let Some((mut body, trailer)) = sealed
        .split_last_chunk::<CHECKSUM_BYTES>()
        .filter(|(body, _)| !body.is_empty())
    else {
        return Err(FrameError::Truncated);
    };
    let got = u32::from_le_bytes(*trailer);
    let want = body_checksum(body);
    if want != got {
        return Err(FrameError::Damaged { want, got });
    }
    decode_body(&mut body, spare)
}

/// Bytes of checksum trailer at the end of every frame, covered by the
/// length prefix.
const CHECKSUM_BYTES: usize = 4;

/// FNV-1a over the frame body. Each step is `h = (h ^ b) * p` with an
/// odd `p`, so the per-byte map is invertible mod 2^32 and any
/// single-byte flip is *guaranteed* to change the sum; longer damage
/// escapes only with probability ~2^-32.
fn body_checksum(body: &[u8]) -> u32 {
    hds_trace::hash::fnv1a32(body)
}

/// Reads the optional trailing backend byte of a handshake frame:
/// `None` when the frame ends first (a pre-backend v2 peer), a typed
/// error on an unknown code.
fn get_backend_kind(buf: &mut &[u8]) -> Result<Option<BackendKind>, FrameError> {
    if buf.is_empty() {
        return Ok(None);
    }
    BackendKind::from_wire_code(take_u8(buf)?)
        .map(Some)
        .ok_or(FrameError::BadPayload("unknown backend code"))
}

/// Decodes a frame body (the bytes after the length prefix).
fn decode_body(buf: &mut &[u8], spare: Option<&Spare>) -> Result<Frame, FrameError> {
    let kind = take_u8(buf)?;
    let frame = match kind {
        K_HELLO | K_HELLO_ACK => {
            let (magic, version) = take_bytes(buf, MAGIC.len() + 1)?.split_at(MAGIC.len());
            if magic != MAGIC {
                return Err(FrameError::BadMagic);
            }
            let version = version[0];
            if version != WIRE_VERSION {
                return Err(FrameError::UnsupportedVersion(version));
            }
            if kind == K_HELLO {
                let token = get_string(buf)?;
                let features = take_u8(buf)?;
                let backend = get_backend_kind(buf)?;
                Frame::Hello {
                    version,
                    token,
                    features,
                    backend,
                }
            } else {
                let backend = get_backend_kind(buf)?;
                Frame::HelloAck { version, backend }
            }
        }
        K_OPEN => {
            let tenant = get_string(buf)?;
            let procedures = get_procedures(buf)?;
            Frame::OpenSession { tenant, procedures }
        }
        K_CHUNK => {
            let tenant = get_string(buf)?;
            let seq = take_varint(buf)?;
            // Lent before decoding, so a chunk that fails to decode
            // hands its buffer back too.
            let mut events = spare.map_or_else(|| Vec::new().into(), ChunkEvents::lent);
            get_events(buf, &mut events.events)?;
            Frame::TraceChunk {
                tenant,
                seq,
                events,
            }
        }
        K_FLUSH => Frame::Flush {
            tenant: get_string(buf)?,
        },
        K_EVICT => Frame::Evict {
            tenant: get_string(buf)?,
        },
        K_RESUME => Frame::Resume {
            tenant: get_string(buf)?,
        },
        K_INTROSPECT => Frame::Introspect {
            tenant: get_string(buf)?,
        },
        K_MIGRATE => Frame::Migrate {
            record: get_record(buf)?,
        },
        K_EXPORT => {
            let tenant = get_string(buf)?;
            let detach = match take_u8(buf)? {
                0 => false,
                1 => true,
                _ => return Err(FrameError::BadPayload("unknown detach flag")),
            };
            Frame::Export { tenant, detach }
        }
        K_EXPORTED => Frame::Exported {
            record: get_record(buf)?,
        },
        K_REPORT => {
            let tenant = get_string(buf)?;
            let report_json = get_string(buf)?;
            let image_digest = take_varint(buf)?;
            Frame::Report {
                tenant,
                report_json,
                image_digest,
            }
        }
        K_BUSY => {
            let tenant = get_string(buf)?;
            let budget = take_varint(buf)?;
            let observed = take_varint(buf)?;
            Frame::Busy {
                tenant,
                budget,
                observed,
            }
        }
        K_SHED => {
            let tenant = get_string(buf)?;
            let kind = get_budget_kind(buf)?;
            let budget = take_varint(buf)?;
            let observed = take_varint(buf)?;
            Frame::Shed {
                tenant,
                kind,
                budget,
                observed,
            }
        }
        K_REJECT => {
            let code = RejectCode::from_wire_tag(take_u8(buf)?)
                .ok_or(FrameError::BadPayload("unknown reject code"))?;
            let detail = get_string(buf)?;
            Frame::Reject { code, detail }
        }
        K_STATS => {
            let clock = take_varint(buf)?;
            let queued_bytes = take_varint(buf)?;
            let tenants = get_tenant_stats(buf)?;
            let shards = get_shard_summaries(buf)?;
            Frame::Stats {
                clock,
                queued_bytes,
                tenants,
                shards,
            }
        }
        K_ACK => {
            let tenant = get_string(buf)?;
            let seq = take_varint(buf)?;
            Frame::Ack { tenant, seq }
        }
        K_GOODBYE => Frame::Goodbye,
        K_GOODBYE_ACK => Frame::GoodbyeAck {
            drained: take_varint(buf)?,
        },
        K_PING => Frame::Ping {
            nonce: take_varint(buf)?,
        },
        K_PONG => Frame::Pong {
            nonce: take_varint(buf)?,
        },
        other => return Err(FrameError::UnknownKind(other)),
    };
    if !buf.is_empty() {
        return Err(FrameError::BadPayload("trailing bytes after frame"));
    }
    Ok(frame)
}

/// The reassembly buffer of a frame stream: the bytes received so far
/// and how many of them [`decode_stream`] has consumed. Frames decode
/// in place from the unconsumed bytes. The consumed front is cut off
/// only once it passes half the buffer, so draining k queued frames
/// moves each byte at most once, however many frames wait behind the
/// one taken. It also keeps the spare event buffer that the chunks it
/// decoded hand back (see [`ChunkEvents`]).
#[derive(Debug, Default)]
pub struct FrameBuffer {
    bytes: Vec<u8>,
    /// Bytes at the front already consumed.
    head: usize,
    /// The event buffer of a dropped chunk, lent to the next chunk.
    spare: Spare,
}

impl FrameBuffer {
    /// Appends received bytes behind the unconsumed ones.
    pub fn extend_from_slice(&mut self, src: &[u8]) {
        self.bytes.extend_from_slice(src);
    }

    /// Bytes received and not yet consumed.
    #[must_use]
    pub fn len(&self) -> usize {
        self.bytes.len() - self.head
    }

    /// Whether every received byte has been consumed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn unconsumed(&self) -> &[u8] {
        &self.bytes[self.head..]
    }

    fn consume(&mut self, n: usize) {
        self.head += n;
        if self.head > self.bytes.len() / 2 {
            self.bytes.drain(..self.head);
            self.head = 0;
        }
    }
}

/// Pulls the next complete frame out of a reassembly buffer, consuming
/// its bytes. Returns `Ok(None)`, consuming nothing, when the buffer
/// holds only part of a frame (read more and retry). A length prefix
/// over [`MAX_FRAME_BYTES`] is [`FrameError::Oversized`] and consumes
/// nothing either: the stream can no longer be framed. Any other
/// malformed complete frame is an error and its bytes are consumed, so
/// the stream can continue.
///
/// # Errors
///
/// Any [`FrameError`] from the complete frame at the buffer's head.
pub fn decode_stream(buf: &mut FrameBuffer) -> Result<Option<Frame>, FrameError> {
    let unconsumed = buf.unconsumed();
    let Some(prefix) = unconsumed.first_chunk::<LEN_BYTES>() else {
        return Ok(None);
    };
    let len = u32::from_le_bytes(*prefix);
    if len > MAX_FRAME_BYTES {
        return Err(FrameError::Oversized(len));
    }
    let total = LEN_BYTES + len as usize;
    let Some(sealed) = unconsumed.get(LEN_BYTES..total) else {
        return Ok(None);
    };
    let frame = open_sealed(sealed, Some(&buf.spare));
    buf.consume(total);
    frame.map(Some)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hds_store::encode_record;

    fn sample_record() -> TenantRecord {
        TenantRecord {
            tenant: "tenant-a".into(),
            stamp: 99,
            backend: 1,
            procedures: vec![Procedure::new("main", vec![Pc(16), Pc(20)])],
            snapshot: Some(b"HDSSNAP1-pretend-blob".to_vec()),
            tail: vec![
                Event::Enter(ProcId(0)),
                Event::Access(DataRef::new(Pc(16), Addr(0x4000)), AccessKind::Load),
                Event::Exit(ProcId(0)),
            ],
        }
    }

    fn sample_frames() -> Vec<Frame> {
        use hds_telemetry::events::ServeBudgetKind;
        vec![
            Frame::hello(),
            Frame::Hello {
                version: WIRE_VERSION,
                token: "s3cret".into(),
                features: FEATURE_RELIABLE,
                backend: None,
            },
            Frame::Hello {
                version: WIRE_VERSION,
                token: "s3cret".into(),
                features: FEATURE_RELIABLE,
                backend: Some(BackendKind::Triangel),
            },
            Frame::OpenSession {
                tenant: "tenant-a".into(),
                procedures: vec![Procedure::new("main", vec![Pc(16), Pc(20)])],
            },
            Frame::TraceChunk {
                tenant: "tenant-a".into(),
                seq: 7,
                events: vec![
                    Event::Enter(ProcId(0)),
                    Event::Work(3),
                    Event::Access(DataRef::new(Pc(16), Addr(0x4000)), AccessKind::Load),
                    Event::Access(DataRef::new(Pc(20), Addr(u64::MAX)), AccessKind::Store),
                    Event::BackEdge(ProcId(0)),
                    Event::Prefetch(Addr(0x8000)),
                    Event::Thread(2),
                    Event::Exit(ProcId(0)),
                ]
                .into(),
            },
            Frame::Flush {
                tenant: "tenant-a".into(),
            },
            Frame::Evict { tenant: "t".into() },
            Frame::Resume { tenant: "t".into() },
            Frame::Introspect {
                tenant: String::new(),
            },
            Frame::Introspect {
                tenant: "tenant-a".into(),
            },
            Frame::Migrate {
                record: sample_record(),
            },
            Frame::Migrate {
                record: TenantRecord {
                    snapshot: None,
                    tail: Vec::new(),
                    ..sample_record()
                },
            },
            Frame::Export {
                tenant: "tenant-a".into(),
                detach: true,
            },
            Frame::Export {
                tenant: "tenant-a".into(),
                detach: false,
            },
            Frame::Exported {
                record: sample_record(),
            },
            Frame::HelloAck {
                version: WIRE_VERSION,
                backend: None,
            },
            Frame::HelloAck {
                version: WIRE_VERSION,
                backend: Some(BackendKind::Pangloss),
            },
            Frame::Report {
                tenant: "tenant-a".into(),
                report_json: "{\"refs\":12}".into(),
                image_digest: u64::MAX,
            },
            Frame::Busy {
                tenant: "t".into(),
                budget: 4,
                observed: 4,
            },
            Frame::Shed {
                tenant: "t".into(),
                kind: ServeBudgetKind::GlobalBytes,
                budget: 1024,
                observed: 2048,
            },
            Frame::Reject {
                code: RejectCode::HandshakeRequired,
                detail: "no handshake".into(),
            },
            Frame::Ack {
                tenant: "tenant-a".into(),
                seq: u64::MAX,
            },
            Frame::Goodbye,
            Frame::GoodbyeAck { drained: 3 },
            Frame::Ping { nonce: 0xDEAD },
            Frame::Pong { nonce: 0xDEAD },
            Frame::Stats {
                clock: 42,
                queued_bytes: 1 << 20,
                tenants: vec![TenantStats {
                    tenant: "tenant-a".into(),
                    shard: 3,
                    live: true,
                    finished: false,
                    queued_chunks: 2,
                    events_consumed: u64::MAX,
                    snapshots: 5,
                    tail_events: 17,
                }],
                shards: vec![
                    ShardSummary {
                        shard: 0,
                        mailbox_depth: 0,
                        live_sessions: 1,
                        frames: 9,
                        events: 4096,
                    },
                    ShardSummary {
                        shard: 3,
                        mailbox_depth: 2,
                        live_sessions: 0,
                        frames: 0,
                        events: 0,
                    },
                ],
            },
        ]
    }

    #[test]
    fn every_frame_round_trips() {
        for frame in sample_frames() {
            let blob = frame.encode();
            assert_eq!(Frame::decode(&blob), Ok(frame.clone()), "frame {frame:?}");
        }
    }

    #[test]
    fn stream_reassembly_handles_partial_frames() {
        let frames = sample_frames();
        let mut wire = Vec::new();
        for f in &frames {
            wire.extend_from_slice(&f.encode());
        }
        // Feed the concatenated stream one byte at a time.
        let mut inbox = FrameBuffer::default();
        let mut decoded = Vec::new();
        for i in 0..wire.len() {
            inbox.extend_from_slice(&wire[i..=i]);
            while let Some(f) = decode_stream(&mut inbox).unwrap() {
                decoded.push(f);
            }
        }
        assert_eq!(decoded, frames);
        assert!(inbox.is_empty());
    }

    #[test]
    fn frame_buffer_takes_frames_in_order_across_compaction() {
        // Frames of uneven sizes, three queued up front and one more
        // appended after each take: each comes out whole and in order,
        // `len` counts exactly the bytes not yet taken, and the
        // consumed front is cut off several times on the way.
        let blobs: Vec<Vec<u8>> = [1usize, 7, 100, 3, 60, 40, 0, 250, 9, 31]
            .iter()
            .map(|&n| {
                Frame::Flush {
                    tenant: "t".repeat(n),
                }
                .encode()
            })
            .collect();
        let mut buf = FrameBuffer::default();
        for blob in &blobs[..3] {
            buf.extend_from_slice(blob);
        }
        let mut compactions = 0;
        for (i, blob) in blobs.iter().enumerate() {
            let want = Frame::decode(blob).unwrap();
            assert_eq!(decode_stream(&mut buf), Ok(Some(want)), "frame {i}");
            compactions += usize::from(buf.head == 0);
            if let Some(next) = blobs.get(i + 3) {
                buf.extend_from_slice(next);
            }
            let rest = blobs[i + 1..blobs.len().min(i + 4)].concat();
            assert_eq!(buf.len(), rest.len(), "after frame {i}");
            assert_eq!(buf.unconsumed(), rest);
        }
        assert!(buf.is_empty());
        assert!(compactions >= 3, "{compactions} compactions");
    }

    #[test]
    fn queued_frames_drain_in_order_and_a_torn_tail_completes() {
        // A backlog of 1,000 frames of every kind, plus the first half
        // of one more: each comes out whole and in order, the torn one
        // waits, and it completes once its rest arrives.
        let kinds = sample_frames();
        let queued: Vec<Frame> = kinds.iter().cycle().take(1_000).cloned().collect();
        let mut inbox = FrameBuffer::default();
        for f in &queued {
            inbox.extend_from_slice(&f.encode());
        }
        let torn = kinds[4].encode();
        let (head, rest) = torn.split_at(torn.len() / 2);
        inbox.extend_from_slice(head);
        for want in &queued {
            assert_eq!(decode_stream(&mut inbox), Ok(Some(want.clone())));
        }
        assert_eq!(decode_stream(&mut inbox), Ok(None));
        assert_eq!(inbox.unconsumed(), head);
        inbox.extend_from_slice(rest);
        assert_eq!(decode_stream(&mut inbox), Ok(Some(kinds[4].clone())));
        assert!(inbox.is_empty());
    }

    /// Rewrites `blob`'s checksum trailer after a deliberate body
    /// mutation, so a test exercises the decode error it aims at
    /// instead of tripping [`FrameError::Damaged`] first.
    fn reseal(blob: &mut [u8]) {
        let crc_at = blob.len() - CHECKSUM_BYTES;
        let sum = body_checksum(&blob[4..crc_at]);
        blob[crc_at..].copy_from_slice(&sum.to_le_bytes());
    }

    /// Frames a hand-built body: length prefix + body + checksum.
    fn seal(body: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(4 + body.len() + CHECKSUM_BYTES);
        out.extend_from_slice(&((body.len() + CHECKSUM_BYTES) as u32).to_le_bytes());
        out.extend_from_slice(body);
        out.extend_from_slice(&body_checksum(body).to_le_bytes());
        out
    }

    #[test]
    fn rejects_bad_handshakes() {
        let mut ok = Frame::hello().encode();
        // Corrupt the magic.
        ok[5] = b'X';
        reseal(&mut ok);
        assert_eq!(Frame::decode(&ok), Err(FrameError::BadMagic));
        let future = {
            let mut body = vec![K_HELLO];
            body.extend_from_slice(MAGIC);
            body.push(99);
            seal(&body)
        };
        assert_eq!(
            Frame::decode(&future),
            Err(FrameError::UnsupportedVersion(99))
        );
    }

    #[test]
    fn rejects_oversized_and_unknown() {
        let huge = (MAX_FRAME_BYTES + 1).to_le_bytes();
        assert_eq!(
            Frame::decode(&huge),
            Err(FrameError::Oversized(MAX_FRAME_BYTES + 1))
        );
        let unknown = seal(&[0x7f]);
        assert_eq!(Frame::decode(&unknown), Err(FrameError::UnknownKind(0x7f)));
    }

    #[test]
    fn damaged_frames_are_a_typed_error() {
        let frame = Frame::Ack {
            tenant: "tenant-a".into(),
            seq: 42,
        };
        let clean = frame.encode();
        // Flip every single body and trailer byte in turn: each flip
        // must surface as Damaged, never as a silent mis-decode.
        for at in 4..clean.len() {
            let mut blob = clean.clone();
            blob[at] ^= 0x10;
            assert!(
                matches!(Frame::decode(&blob), Err(FrameError::Damaged { .. })),
                "flip at {at} went undetected"
            );
        }
        assert_eq!(Frame::decode(&clean), Ok(frame));
    }

    #[test]
    fn kind_tags_are_unique_and_direction_split() {
        let frames = sample_frames();
        let mut tags: Vec<u8> = frames.iter().map(Frame::kind_tag).collect();
        tags.sort_unstable();
        tags.dedup();
        // sample_frames carries two Introspects (empty + named
        // filter), three Hellos (plain, authenticated, and
        // backend-requesting), two HelloAcks (with and without a
        // granted backend), two Migrates (with and without snapshot),
        // and two Exports (detach on and off).
        assert_eq!(tags.len(), frames.len() - 6);
        assert!(
            Frame::Introspect {
                tenant: String::new()
            }
            .kind_tag()
                < 0x80
        );
        assert!(
            Frame::Stats {
                clock: 0,
                queued_bytes: 0,
                tenants: Vec::new(),
                shards: Vec::new(),
            }
            .kind_tag()
                >= 0x80
        );
    }

    #[test]
    fn empty_introspect_filter_addresses_no_tenant() {
        assert_eq!(
            Frame::Introspect {
                tenant: String::new()
            }
            .tenant(),
            None
        );
        assert_eq!(Frame::Introspect { tenant: "t".into() }.tenant(), Some("t"));
    }

    #[test]
    fn unknown_tenant_flags_are_rejected() {
        let frame = Frame::Stats {
            clock: 1,
            queued_bytes: 0,
            tenants: vec![TenantStats {
                tenant: "t".into(),
                shard: 0,
                live: false,
                finished: false,
                queued_chunks: 0,
                events_consumed: 0,
                snapshots: 0,
                tail_events: 0,
            }],
            shards: Vec::new(),
        };
        let mut blob = frame.encode();
        // The flags byte sits 5 varint bytes before the checksum
        // trailer (queued_chunks, events_consumed, snapshots,
        // tail_events, then the empty shard count).
        let flags_at = blob.len() - CHECKSUM_BYTES - 5 - 1;
        assert_eq!(blob[flags_at], 0);
        blob[flags_at] = 0b100;
        reseal(&mut blob);
        assert_eq!(
            Frame::decode(&blob),
            Err(FrameError::BadPayload("unknown tenant flags"))
        );
    }

    #[test]
    fn access_deltas_reset_per_chunk() {
        // Two chunks with identical events must encode identically:
        // the predictor must not leak across chunks.
        let events = vec![Event::Access(
            DataRef::new(Pc(16), Addr(0x9000)),
            AccessKind::Load,
        )];
        let a = Frame::TraceChunk {
            tenant: "t".into(),
            seq: 0,
            events: events.clone().into(),
        }
        .encode();
        let b = Frame::TraceChunk {
            tenant: "t".into(),
            seq: 0,
            events: events.into(),
        }
        .encode();
        assert_eq!(a, b);
    }

    #[test]
    fn migrate_frames_carry_the_exact_durable_record_bytes() {
        // The embedded record must be byte-identical to what
        // `hds-store` writes to a segment file: one codec for disk and
        // wire means a migrated tenant rehydrates exactly like a
        // store-loaded one.
        let record = sample_record();
        let blob = Frame::Migrate {
            record: record.clone(),
        }
        .encode();
        let durable = encode_record(&Record::Tenant(record));
        let hay: &[u8] = &blob;
        assert!(
            hay.windows(durable.len()).any(|w| w == &durable[..]),
            "durable record bytes not embedded verbatim"
        );
    }

    #[test]
    fn damaged_embedded_records_are_a_typed_error() {
        let frame = Frame::Exported {
            record: sample_record(),
        };
        let clean = frame.encode();
        // Flip a byte inside the embedded record's payload (past the
        // frame kind + varint length + record header) and reseal the
        // *frame* checksum: the inner record checksum must still catch
        // it as a typed BadPayload, never a panic or a mis-decode.
        let mut blob = clean.clone();
        let at = blob.len() - CHECKSUM_BYTES - 4;
        blob[at] ^= 0x40;
        reseal(&mut blob);
        assert_eq!(
            Frame::decode(&blob),
            Err(FrameError::BadPayload("damaged tenant record"))
        );
        // An unknown detach flag is equally typed.
        let mut export = Frame::Export {
            tenant: "t".into(),
            detach: false,
        }
        .encode();
        let flag_at = export.len() - CHECKSUM_BYTES - 1;
        assert_eq!(export[flag_at], 0);
        export[flag_at] = 7;
        reseal(&mut export);
        assert_eq!(
            Frame::decode(&export),
            Err(FrameError::BadPayload("unknown detach flag"))
        );
    }

    /// A sequenced chunk of `n` events.
    fn chunk(n: u32) -> Frame {
        Frame::TraceChunk {
            tenant: "t".into(),
            seq: 1,
            events: (0..n).map(Event::Work).collect::<Vec<_>>().into(),
        }
    }

    fn events_of(frame: Frame) -> ChunkEvents {
        match frame {
            Frame::TraceChunk { events, .. } => events,
            other => panic!("not a chunk: {other:?}"),
        }
    }

    /// Streams `frame` through `inbox` and returns its events.
    fn decode_one(inbox: &mut FrameBuffer, frame: &Frame) -> ChunkEvents {
        inbox.extend_from_slice(&frame.encode());
        events_of(decode_stream(inbox).unwrap().unwrap())
    }

    /// Where the spare buffer of `inbox` starts, if it holds one.
    fn spare(inbox: &FrameBuffer) -> Option<*const Event> {
        inbox
            .spare
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .as_ref()
            .map(|v| v.as_ptr())
    }

    #[test]
    fn a_dropped_chunk_lends_its_buffer_to_the_next() {
        let mut inbox = FrameBuffer::default();
        let first = decode_one(&mut inbox, &chunk(4_000));
        let ptr = first.as_ptr();
        drop(first);
        assert_eq!(spare(&inbox), Some(ptr));
        // A block of the same size taken now would be the freed one,
        // had the buffer gone back to the allocator.
        let decoy: Vec<Event> = Vec::with_capacity(4_000);
        let second = decode_one(&mut inbox, &chunk(3_000));
        assert_eq!(second.as_ptr(), ptr);
        assert_ne!(decoy.as_ptr(), ptr);
        assert_eq!(second, events_of(chunk(3_000)));
        assert_eq!(spare(&inbox), None);
        // A chunk that fails to decode hands its buffer back too.
        drop(second);
        // Kind, tenant "t", seq 1, one event, an unknown event tag.
        inbox.extend_from_slice(&seal(&[K_CHUNK, 1, b't', 1, 1, 0x7f]));
        assert_eq!(
            decode_stream(&mut inbox),
            Err(FrameError::BadPayload("unknown event tag"))
        );
        assert_eq!(spare(&inbox), Some(ptr));
    }

    #[test]
    fn a_buffer_grown_past_the_reservation_cap_is_not_kept() {
        let mut inbox = FrameBuffer::default();
        let over = u32::try_from(MAX_RESERVED_EVENTS).unwrap() + 1;
        let big = decode_one(&mut inbox, &chunk(over));
        assert!(big.events.capacity() > MAX_RESERVED_EVENTS);
        drop(big);
        assert_eq!(spare(&inbox), None);
        let most = decode_one(&mut inbox, &chunk(over - 1));
        assert_eq!(most.events.capacity(), MAX_RESERVED_EVENTS);
        // The most a connection keeps: 1.5 MiB.
        assert_eq!(MAX_RESERVED_EVENTS * std::mem::size_of::<Event>(), 3 << 19);
        let ptr = most.as_ptr();
        drop(most);
        assert_eq!(spare(&inbox), Some(ptr));
    }

    #[test]
    fn one_buffer_is_kept_wherever_chunks_drop() {
        let mut inbox = FrameBuffer::default();
        for _ in 0..10 {
            inbox.extend_from_slice(&chunk(100).encode());
        }
        let held: Vec<ChunkEvents> = std::iter::from_fn(|| decode_stream(&mut inbox).unwrap())
            .map(events_of)
            .collect();
        assert_eq!(held.len(), 10);
        let first = held[0].as_ptr();
        // Shard pump workers drop the chunks they fed, first to last:
        // the first fills the spare slot and the other nine are freed.
        std::thread::spawn(move || drop(held)).join().unwrap();
        assert_eq!(spare(&inbox), Some(first));
        assert_eq!(decode_one(&mut inbox, &chunk(100)).as_ptr(), first);
    }

    #[test]
    fn decode_clone_and_into_vec_leave_the_spare_alone() {
        let mut inbox = FrameBuffer::default();
        drop(decode_one(&mut inbox, &chunk(100)));
        let kept = spare(&inbox);
        assert!(kept.is_some());
        drop(events_of(Frame::decode(&chunk(100).encode()).unwrap()));
        assert_eq!(spare(&inbox), kept);

        let lent = decode_one(&mut inbox, &chunk(100));
        assert_eq!(Some(lent.as_ptr()), kept);
        drop(lent.clone());
        assert_eq!(spare(&inbox), None);
        let owned = lent.into_vec();
        assert_eq!(Some(owned.as_ptr()), kept);
        assert_eq!(spare(&inbox), None);
        drop(ChunkEvents::from(owned));
        assert_eq!(spare(&inbox), None);
    }

    #[test]
    fn frame_buffers_never_share_a_buffer() {
        let (mut a, mut b) = (FrameBuffer::default(), FrameBuffer::default());
        drop(decode_one(&mut a, &chunk(100)));
        let from_a = spare(&a);
        let from_b = decode_one(&mut b, &chunk(100));
        assert!(from_a.is_some());
        assert_ne!(Some(from_b.as_ptr()), from_a);
        drop(from_b);
        assert_eq!(spare(&a), from_a);
        assert!(spare(&b).is_some());
        assert_ne!(spare(&a), spare(&b));
    }

    #[test]
    fn a_poisoned_spare_slot_still_lends_and_takes_back() {
        let mut inbox = FrameBuffer::default();
        let slot = Arc::clone(&inbox.spare);
        let poisoner = std::thread::spawn(move || {
            let _held = slot.lock().unwrap();
            panic!("poisons the spare slot");
        });
        assert!(poisoner.join().is_err());
        assert!(inbox.spare.is_poisoned());
        let first = decode_one(&mut inbox, &chunk(100));
        let ptr = first.as_ptr();
        drop(first);
        assert_eq!(spare(&inbox), Some(ptr));
        assert_eq!(decode_one(&mut inbox, &chunk(100)).as_ptr(), ptr);
    }

    #[test]
    fn every_reject_code_round_trips() {
        for code in RejectCode::ALL {
            let frame = Frame::Reject {
                code,
                detail: format!("detail for {code}"),
            };
            let blob = frame.encode();
            assert_eq!(Frame::decode(&blob), Ok(frame));
            assert_eq!(RejectCode::from_wire_tag(code.wire_tag()), Some(code));
        }
        assert_eq!(RejectCode::from_wire_tag(0xFF), None);
        // An unknown code byte on the wire is a typed decode error.
        let mut blob = Frame::Reject {
            code: RejectCode::Draining,
            detail: String::new(),
        }
        .encode();
        blob[5] = 0xFF;
        reseal(&mut blob);
        assert_eq!(
            Frame::decode(&blob),
            Err(FrameError::BadPayload("unknown reject code"))
        );
    }
}
