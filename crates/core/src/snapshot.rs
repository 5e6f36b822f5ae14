//! Crash-consistent snapshots: versioned, checksummed captures of the
//! optimizer's full mutable state at phase boundaries.
//!
//! A [`Snapshot`] is a self-validating byte blob: the header `HDSSNAP2`
//! and the payload's CRC-32 as a little-endian `u32`, then a binary
//! payload of the complete run state (memory hierarchy, bursty tracer,
//! image patches, guard runtime, installed streams, background-analysis
//! in-flight request, and every report counter). The payload is a
//! sequence of LEB128 varints (the encoding of `hds_trace::codec`'s
//! `put_varint`), field by field in a fixed canonical order: sequences
//! carry their length first, options a 0/1 tag, and flag sets are
//! packed into one varint. Decoding verifies the magic, the format
//! version, and the CRC *before* any field is read; it then bounds every
//! length by the bytes remaining before allocating, range-checks every
//! narrowed integer, flag set, and discriminant, and rejects trailing
//! bytes. A snapshot with even one flipped byte is rejected with a typed
//! [`SnapshotError`], never silently loaded and never a panic.
//!
//! The DFSM itself is not serialized: its construction is deterministic
//! in the installed streams, so resume rebuilds it from the `installed`
//! list and a one-byte rebuild discriminant. Likewise the Sequitur
//! grammar and trace buffer are empty at every capture point (captures
//! happen only at phase boundaries, after the profile is consumed), so
//! they are asserted empty rather than stored.

use std::fmt;

use hds_bursty::TracerState;
use hds_guard::{AccuracyState, GuardState, StreamAccuracyState};
use hds_memsim::{
    Cache, CacheState, LineState, MemState, MemStats, MemView, PrefetchFate, PrefetchResolution,
};
use hds_trace::codec::{take_varint, CodecError};
use hds_trace::{Addr, DataRef, Pc};
use hds_vulcan::{CopyState, ImageState, ProcId};

use crate::config::{OptimizerConfig, RunMode};
use crate::report::{CostBreakdown, CycleStats};

/// The current snapshot format version (the digit in the magic).
const FORMAT_VERSION: u8 = b'2';
/// Magic prefix of every snapshot: `HDSSNAP` + version digit.
const MAGIC: &[u8; 7] = b"HDSSNAP";
/// Magic, version digit, and the payload's CRC-32.
const HEADER_LEN: usize = MAGIC.len() + 1 + 4;

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Why a snapshot was rejected. Every decoding failure is typed; a
/// corrupted or incompatible snapshot can never load silently or panic.
#[derive(Clone, Debug, PartialEq)]
pub enum SnapshotError {
    /// The bytes do not start with the `HDSSNAP` magic.
    BadMagic,
    /// The magic matched but the format version is not one this build
    /// can read.
    UnsupportedVersion(
        /// The version byte found.
        u8,
    ),
    /// The body's CRC-32 does not match the header's.
    ChecksumMismatch {
        /// CRC recorded in the header.
        expected: u32,
        /// CRC computed over the body.
        found: u32,
    },
    /// The header or payload structure is invalid (names the first
    /// offending field).
    Malformed(String),
    /// The snapshot was captured under a different configuration or run
    /// mode; resuming would silently diverge.
    ConfigMismatch {
        /// Fingerprint the resuming session expects.
        expected: u64,
        /// Fingerprint recorded in the snapshot.
        found: u64,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(f, "unsupported snapshot format version {v:#04x}")
            }
            SnapshotError::ChecksumMismatch { expected, found } => write!(
                f,
                "snapshot checksum mismatch (header {expected:08x}, body {found:08x})"
            ),
            SnapshotError::Malformed(what) => write!(f, "malformed snapshot: {what}"),
            SnapshotError::ConfigMismatch { expected, found } => write!(
                f,
                "snapshot config fingerprint {found:016x} does not match session {expected:016x}"
            ),
        }
    }
}

impl std::error::Error for SnapshotError {}

// ---------------------------------------------------------------------------
// CRC-32 (IEEE), slicing-by-8 over tables built at compile time.
// ---------------------------------------------------------------------------

/// `CRC_TABLES[0]` is the byte-at-a-time table of the reflected IEEE
/// polynomial; `CRC_TABLES[k]` additionally runs `k` zero bytes through
/// it, so eight lookups consume eight input bytes at once.
static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc: u32 = 0xFFFF_FFFF;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][usize::from(w[4])]
            ^ t[2][usize::from(w[5])]
            ^ t[1][usize::from(w[6])]
            ^ t[0][usize::from(w[7])];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

// ---------------------------------------------------------------------------
// Snapshot blob
// ---------------------------------------------------------------------------

/// A validated snapshot blob: `HDSSNAP2`, the payload's CRC-32 (`u32`
/// little-endian), then the payload.
///
/// Construction goes through [`Snapshot::from_bytes`] (which validates)
/// or the crate-internal encoder, so a `Snapshot` in hand always has a
/// well-formed header whose checksum matched at construction time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Snapshot {
    bytes: Vec<u8>,
}

impl Snapshot {
    /// The raw bytes (for persisting to disk or shipping elsewhere).
    #[must_use]
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Consumes the snapshot, yielding its bytes.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }

    /// Drops the spare capacity a capture into a recycled buffer can
    /// leave behind.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.bytes.shrink_to_fit();
    }

    /// Size of the blob in bytes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether the blob is empty (never true for a validated snapshot).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Validates `bytes` (magic, version, checksum, and the whole
    /// payload structure) and wraps them as a `Snapshot`.
    ///
    /// # Errors
    ///
    /// Any [`SnapshotError`] except `ConfigMismatch` (configuration
    /// compatibility is checked at resume, when the target session's
    /// config is known).
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Self, SnapshotError> {
        let snap = Snapshot { bytes };
        snap.decode(None)?;
        Ok(snap)
    }

    /// Validates the header and checksum, then decodes the payload. Its
    /// first field is the config fingerprint, checked against
    /// `expected_config` (when given) before anything else is read.
    fn decode(&self, expected_config: Option<u64>) -> Result<SessionState, SnapshotError> {
        let b = &self.bytes;
        if !b.starts_with(MAGIC) {
            return Err(SnapshotError::BadMagic);
        }
        let truncated = || malformed("truncated header");
        let version = *b.get(MAGIC.len()).ok_or_else(truncated)?;
        if version != FORMAT_VERSION {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        let crc = b.get(MAGIC.len() + 1..HEADER_LEN).ok_or_else(truncated)?;
        let expected = u32::from_le_bytes([crc[0], crc[1], crc[2], crc[3]]);
        let payload = &b[HEADER_LEN..];
        let found = crc32(payload);
        if found != expected {
            return Err(SnapshotError::ChecksumMismatch { expected, found });
        }
        let mut r = payload;
        let found = u64::get(&mut r).map_err(|e| e.within("config"))?;
        if let Some(expected) = expected_config.filter(|&e| e != found) {
            return Err(SnapshotError::ConfigMismatch { expected, found });
        }
        let state = SessionState::get(&mut r)?;
        if !r.is_empty() {
            return Err(malformed(format!("{} trailing bytes", r.len())));
        }
        Ok(state)
    }
}

/// Deterministic fingerprint of the (configuration, run-mode) pair a
/// snapshot was captured under. `DefaultHasher` over the `Debug`
/// renderings: stable within a build, which is the compatibility domain
/// snapshots need (resume targets the same binary). Public so bench
/// writers can stamp `results/BENCH_*.json` meta blocks with the exact
/// configuration a number was measured under.
pub fn config_fingerprint(config: &OptimizerConfig, mode: RunMode) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    format!("{config:?}").hash(&mut h);
    format!("{mode:?}").hash(&mut h);
    h.finish()
}

// ---------------------------------------------------------------------------
// SessionState: everything a Session needs to continue bit-identically.
// ---------------------------------------------------------------------------

/// In-flight background analysis, serialized: the timing pair plus the
/// full request, so resume can re-submit it to a fresh worker
/// (`analyze_trace` is pure, so the re-computed outcome is identical).
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct PendingState {
    pub handoff_at: u64,
    pub ready_at: u64,
    pub refs: Vec<DataRef>,
    pub denylist: Vec<u64>,
}

/// Background-worker counters and the in-flight request, if any.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct BgState {
    pub handoffs: u64,
    pub applied: u64,
    pub starved: u64,
    pub pending: Option<PendingState>,
}

/// The complete serializable state of a run — the payload of a
/// [`Snapshot`]: the executor's `RunState` minus the rebuildable DFSM
/// and the always-empty profile buffers. Decoding yields the memory
/// hierarchy as a [`MemState`]; a phase-boundary capture fills `mem`
/// with a [`MemView`] of the live hierarchy instead, which writes the
/// same bytes without copying the caches.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct SessionState<M = MemState> {
    pub cycles: u64,
    pub breakdown: CostBreakdown,
    pub mem: M,
    pub tracer: TracerState,
    pub image: ImageState<usize>,
    pub dfsm_state: u32,
    /// How to reconstruct the DFSM from `installed`: 0 = no machine,
    /// 1 = full build (`machine_for`), 2 = accuracy-rebuild path
    /// (`build_dfsm` over the survivors).
    pub dfsm_rebuild: u8,
    /// Per-thread call stacks as `(stack, max_depth)` pairs.
    pub frames: Vec<(Vec<(u32, u64)>, usize)>,
    pub active_thread: usize,
    pub refs: u64,
    pub checks: u64,
    pub cycle_stats: Vec<CycleStats>,
    pub pf_queue: Vec<(u64, u32)>,
    pub guard: Option<GuardState>,
    pub installed: Vec<Vec<DataRef>>,
    pub partial_deopts: u64,
    pub bg: Option<BgState>,
    pub events_consumed: u64,
    pub snapshots: u64,
    pub fault_state: u64,
    /// Online prefetch backend state, when one is selected: the
    /// backend-kind wire code (so resume can reject a snapshot captured
    /// under a different backend) plus its full table image as the
    /// canonical word export (`PrefetchBackend::export_words`).
    pub online: Option<(u8, Vec<u64>)>,
}

// ---------------------------------------------------------------------------
// Payload codec: every value is a run of LEB128 varints.
// ---------------------------------------------------------------------------

/// The longest LEB128 encoding of a `u64`.
const MAX_VARINT: usize = 10;

/// The payload encoder's one output buffer. Every value goes through
/// [`Writer::run`], which checks capacity once for a run of values and
/// writes them through a [`Cursor`]; a lone value is a run of one. The
/// buffer's bytes stay initialized past the write position, so a
/// varint is one fixed-width store.
pub(crate) struct Writer {
    buf: Vec<u8>,
    pos: usize,
}

impl Writer {
    /// An empty writer over `buf`'s allocation, whose bytes it
    /// overwrites.
    fn over(mut buf: Vec<u8>) -> Self {
        buf.resize(buf.capacity(), 0);
        Writer { buf, pos: 0 }
    }

    /// Writes a run of at most `max` bytes: one capacity check, then
    /// `write` fills the run through a cursor.
    #[inline(always)]
    fn run(&mut self, max: usize, write: impl FnOnce(&mut Cursor<'_>)) {
        if self.buf.len() - self.pos < max {
            self.grow(max);
        }
        let mut cursor = Cursor {
            buf: &mut self.buf,
            pos: self.pos,
        };
        write(&mut cursor);
        self.pos = cursor.pos;
    }

    #[cold]
    fn grow(&mut self, max: usize) {
        let len = (2 * self.buf.len()).max(self.pos + max);
        self.buf.resize(len, 0);
    }

    /// Appends raw bytes.
    fn bytes(&mut self, bytes: &[u8]) {
        self.run(bytes.len(), |c| {
            c.buf[c.pos..][..bytes.len()].copy_from_slice(bytes);
            c.pos += bytes.len();
        });
    }

    /// Appends `v` as a LEB128 varint.
    #[inline]
    fn varint(&mut self, v: u64) {
        self.run(MAX_VARINT, |c| c.varint(v));
    }

    /// The bytes written, in `buf`'s allocation.
    fn into_bytes(mut self) -> Vec<u8> {
        self.buf.truncate(self.pos);
        self.buf
    }
}

/// The write position of a [`Writer::run`], held apart from the writer
/// so that it stays in a register while the run is written: a store
/// into the buffer cannot then alias it.
pub(crate) struct Cursor<'a> {
    buf: &'a mut [u8],
    pos: usize,
}

impl Cursor<'_> {
    /// Appends `v` as a LEB128 varint, byte for byte what
    /// `hds_trace::codec::put_varint` writes, with no per-byte branch:
    /// the low 56 bits spread into eight 7-bit groups, one store puts
    /// them down, and the position moves past the encoding's length.
    /// The bytes a store spills past the encoding are overwritten by
    /// the next value or cut off by [`Writer::into_bytes`].
    #[inline(always)]
    fn varint(&mut self, v: u64) {
        let groups = spread(v);
        let out = &mut self.buf[self.pos..];
        if v >> 56 == 0 {
            // 8 × (length − 1): the byte of the highest non-zero
            // group. Every byte below it carries the continuation bit.
            let top = (63 - (groups | 1).leading_zeros()) & !7;
            let more = 0x8080_8080_8080_8080 & ((1 << top) - 1);
            out[..8].copy_from_slice(&(groups | more).to_le_bytes());
            self.pos += top as usize / 8 + 1;
        } else {
            // The full-width path: eight continued groups, then the
            // top eight bits as one byte, or two when bit 63 is set.
            let high = v >> 56;
            let tail = high | (high & 0x80) << 1;
            let word = u128::from(groups | 0x8080_8080_8080_8080) | u128::from(tail) << 64;
            out[..MAX_VARINT].copy_from_slice(&word.to_le_bytes()[..MAX_VARINT]);
            self.pos += 9 + (high >> 7) as usize;
        }
    }

    /// Appends a flag set as one varint, bit `i` holding flag `i`. A
    /// set of fewer than eight flags is a varint of one byte, stored as
    /// that byte.
    #[inline(always)]
    fn flags<const N: usize>(&mut self, flags: &[bool; N]) {
        let bits = (0..N).fold(0, |bits, i| bits | u64::from(flags[i]) << i);
        if N < 8 {
            self.buf[self.pos] = bits as u8;
            self.pos += 1;
        } else {
            self.varint(bits);
        }
    }
}

/// The low 56 bits of `v` as eight 7-bit groups, one per byte, low
/// group first.
#[inline(always)]
fn spread(v: u64) -> u64 {
    let v = (v & 0x0FFF_FFFF) | (v & 0x00FF_FFFF_F000_0000) << 4;
    let v = (v & 0x0000_3FFF_0000_3FFF) | (v & 0x0FFF_C000_0FFF_C000) << 2;
    (v & 0x007F_007F_007F_007F) | (v & 0x3F80_3F80_3F80_3F80) << 1
}

/// A value with a binary layout in the snapshot payload, written
/// through the one [`Writer`].
pub(crate) trait Put {
    fn put(&self, w: &mut Writer);
}

/// A [`Put`] value the decoder reads back: `get` reads exactly what
/// `put` wrote and turns anything else into
/// [`SnapshotError::Malformed`].
trait Field: Put + Sized {
    fn get(r: &mut &[u8]) -> Result<Self, SnapshotError>;
}

fn malformed(what: impl Into<String>) -> SnapshotError {
    SnapshotError::Malformed(what.into())
}

impl SnapshotError {
    /// Prefixes a `Malformed` message with the field it surfaced in, so
    /// the message names its path (`mem.l1.sets: truncated`).
    fn within(self, field: &str) -> SnapshotError {
        match self {
            SnapshotError::Malformed(m) if m.contains(": ") => malformed(format!("{field}.{m}")),
            SnapshotError::Malformed(m) => malformed(format!("{field}: {m}")),
            e => e,
        }
    }
}

impl Put for u64 {
    fn put(&self, w: &mut Writer) {
        w.varint(*self);
    }
}

impl Field for u64 {
    fn get(r: &mut &[u8]) -> Result<Self, SnapshotError> {
        take_varint(r).map_err(|e| {
            malformed(match e {
                CodecError::Overlong => "overlong varint",
                _ => "truncated",
            })
        })
    }
}

/// Narrower integers travel as `u64` varints, range-checked on the way
/// back.
macro_rules! narrow_field {
    ($($t:ty),*) => {$(
        impl Put for $t {
            fn put(&self, w: &mut Writer) {
                w.varint(*self as u64);
            }
        }
        impl Field for $t {
            fn get(r: &mut &[u8]) -> Result<Self, SnapshotError> {
                let v = u64::get(r)?;
                Self::try_from(v).map_err(|_| malformed(format!("{v} out of range")))
            }
        }
    )*};
}
narrow_field!(u8, u32, usize);

impl<T: Put + ?Sized> Put for &T {
    fn put(&self, w: &mut Writer) {
        (**self).put(w);
    }
}

/// A sequence is its length, then its items.
impl<T: Put> Put for [T] {
    fn put(&self, w: &mut Writer) {
        self.len().put(w);
        for item in self {
            item.put(w);
        }
    }
}

impl<T: Put> Put for Vec<T> {
    fn put(&self, w: &mut Writer) {
        self.as_slice().put(w);
    }
}

impl<T: Field> Field for Vec<T> {
    fn get(r: &mut &[u8]) -> Result<Self, SnapshotError> {
        let n = usize::get(r)?;
        // Every element takes at least one byte, so a length the rest of
        // the payload cannot hold is refused before it is allocated.
        if n > r.len() {
            return Err(malformed(format!(
                "length {n} exceeds {} remaining bytes",
                r.len()
            )));
        }
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push(T::get(r)?);
        }
        Ok(items)
    }
}

impl<T: Put> Put for Option<T> {
    fn put(&self, w: &mut Writer) {
        match self {
            None => w.varint(0),
            Some(v) => {
                w.varint(1);
                v.put(w);
            }
        }
    }
}

impl<T: Field> Field for Option<T> {
    fn get(r: &mut &[u8]) -> Result<Self, SnapshotError> {
        match u64::get(r)? {
            0 => Ok(None),
            1 => T::get(r).map(Some),
            tag => Err(malformed(format!("bad option tag {tag}"))),
        }
    }
}

impl<A: Put, B: Put> Put for (A, B) {
    fn put(&self, w: &mut Writer) {
        self.0.put(w);
        self.1.put(w);
    }
}

impl<A: Field, B: Field> Field for (A, B) {
    fn get(r: &mut &[u8]) -> Result<Self, SnapshotError> {
        Ok((A::get(r)?, B::get(r)?))
    }
}

impl<A: Put, B: Put, C: Put> Put for (A, B, C) {
    fn put(&self, w: &mut Writer) {
        self.0.put(w);
        self.1.put(w);
        self.2.put(w);
    }
}

impl<A: Field, B: Field, C: Field> Field for (A, B, C) {
    fn get(r: &mut &[u8]) -> Result<Self, SnapshotError> {
        Ok((A::get(r)?, B::get(r)?, C::get(r)?))
    }
}

impl<const N: usize> Put for [u64; N] {
    fn put(&self, w: &mut Writer) {
        for v in self {
            w.varint(*v);
        }
    }
}

impl<const N: usize> Field for [u64; N] {
    fn get(r: &mut &[u8]) -> Result<Self, SnapshotError> {
        let mut a = [0; N];
        for v in &mut a {
            *v = u64::get(r)?;
        }
        Ok(a)
    }
}

/// A flag set is one varint, bit `i` holding flag `i`; bits past `N`
/// are rejected.
impl<const N: usize> Put for [bool; N] {
    fn put(&self, w: &mut Writer) {
        w.run(MAX_VARINT, |c| c.flags(self));
    }
}

impl<const N: usize> Field for [bool; N] {
    fn get(r: &mut &[u8]) -> Result<Self, SnapshotError> {
        let bits = u64::get(r)?;
        if bits >> N != 0 {
            return Err(malformed(format!("flags {bits:#b} out of range")));
        }
        Ok(std::array::from_fn(|i| (bits >> i) & 1 == 1))
    }
}

/// The most bytes one [`LineState`] takes.
const LINE_MAX: usize = 3 * MAX_VARINT;

impl Put for LineState {
    fn put(&self, w: &mut Writer) {
        w.run(LINE_MAX, |c| put_line(c, self));
    }
}

/// A line's layout: its block, its LRU stamp, then its flag set.
#[inline(always)]
fn put_line(c: &mut Cursor<'_>, line: &LineState) {
    c.varint(line.block);
    c.varint(line.lru);
    c.flags(&[line.prefetched_unused, line.origin_prefetched, line.dirty]);
}

impl Field for LineState {
    fn get(r: &mut &[u8]) -> Result<Self, SnapshotError> {
        let (block, lru) = Field::get(r)?;
        let [prefetched_unused, origin_prefetched, dirty] = Field::get(r)?;
        Ok(LineState {
            block,
            lru,
            prefetched_unused,
            origin_prefetched,
            dirty,
        })
    }
}

/// A live cache writes the layout of the [`CacheState`] its
/// `export_state` would return — the clock, then every set's resident
/// lines — reading the lines from its sets in place. A set is one run:
/// its line count, then its lines.
impl Put for Cache {
    fn put(&self, w: &mut Writer) {
        w.varint(self.tick());
        let sets = self.sets();
        sets.len().put(w);
        for lines in sets {
            w.run(MAX_VARINT + lines.len() * LINE_MAX, |c| {
                c.varint(lines.len() as u64);
                for line in lines {
                    put_line(c, line);
                }
            });
        }
    }
}

impl Put for PrefetchFate {
    fn put(&self, w: &mut Writer) {
        let d = match self {
            PrefetchFate::Useful => 0,
            PrefetchFate::Late => 1,
            PrefetchFate::Polluted => 2,
        };
        w.varint(d);
    }
}

impl Field for PrefetchFate {
    fn get(r: &mut &[u8]) -> Result<Self, SnapshotError> {
        match u64::get(r)? {
            0 => Ok(PrefetchFate::Useful),
            1 => Ok(PrefetchFate::Late),
            2 => Ok(PrefetchFate::Polluted),
            d => Err(malformed(format!("bad fate discriminant {d}"))),
        }
    }
}

/// Implements [`Field`] for structs as their listed fields in order
/// (tuple structs list `0`). Each list is the canonical payload order;
/// a decoding error is prefixed with the field it came from. Types
/// listed after the first, with the same field names, share the list
/// for writing only: the borrowed views a capture writes from.
macro_rules! record {
    ($($ty:ty $(, $view:ty)* { $($f:tt),* })*) => {$(
        record!(@put [$ty $(, $view)*] { $($f),* });
        impl Field for $ty {
            fn get(r: &mut &[u8]) -> Result<Self, SnapshotError> {
                Ok(Self {
                    $($f: Field::get(r).map_err(|e: SnapshotError| e.within(stringify!($f)))?,)*
                })
            }
        }
    )*};
    (@put [$($ty:ty),*] $fields:tt) => {$(
        record!(@put_one $ty $fields);
    )*};
    (@put_one $ty:ty { $($f:tt),* }) => {
        impl Put for $ty {
            fn put(&self, w: &mut Writer) {
                $(self.$f.put(w);)*
            }
        }
    };
}

record! {
    Pc { 0 }
    Addr { 0 }
    ProcId { 0 }
    DataRef { pc, addr }
    CostBreakdown { work, memory, checks, recording, analysis, matching, prefetch, optimize }
    CycleStats {
        traced_refs, hot_streams, streams_used, dfsm_states, dfsm_checks, procs_modified,
        grammar_size
    }
    MemStats {
        l1_hits, l1_hits_on_prefetched, l1_misses, l2_hits, l2_misses, prefetches_issued,
        prefetches_useful, prefetches_late, prefetches_polluting, writebacks, demand_cycles
    }
    CacheState { tick, sets }
    PrefetchResolution { tag, block, fate, issued_at, resolved_at }
    MemState, MemView<'_> { l1, l2, in_flight, pending, outcomes, stats }
    TracerState {
        n_check_cur, n_instr_cur, n_check, n_instr, instrumented, hibernating, periods_in_phase,
        total_checks, total_bursts, awake_checks, phase_transitions
    }
    CopyState<usize> { proc, since_epoch, checks }
    ImageState<usize> { epoch, total_edits, total_deopts, copies }
    StreamAccuracyState { stream_id, hash, useful, late, polluted, streak }
    AccuracyState { streams, denylist }
    GuardState { tripped, trips, accuracy }
    PendingState { handoff_at, ready_at, refs, denylist }
    BgState { handoffs, applied, starved, pending }
    SessionState, SessionState<MemView<'_>> {
        cycles, breakdown, mem, tracer, image, dfsm_state, dfsm_rebuild, frames, active_thread,
        refs, checks, cycle_stats, pf_queue, guard, installed, partial_deopts, bg,
        events_consumed, snapshots, fault_state, online
    }
}

impl<M> SessionState<M>
where
    Self: Put,
{
    /// Serializes the state under the given config fingerprint into
    /// `buf`'s allocation (a retired snapshot's bytes, say): the header
    /// goes first with a zero CRC, the payload follows, and the CRC of
    /// the payload is patched in, so no byte is written twice.
    pub(crate) fn write_snapshot(&self, config_hash: u64, buf: Vec<u8>) -> Snapshot {
        let mut w = Writer::over(buf);
        w.bytes(MAGIC);
        w.bytes(&[FORMAT_VERSION, 0, 0, 0, 0]);
        config_hash.put(&mut w);
        self.put(&mut w);
        let mut bytes = w.into_bytes();
        let crc = crc32(&bytes[HEADER_LEN..]);
        bytes[MAGIC.len() + 1..HEADER_LEN].copy_from_slice(&crc.to_le_bytes());
        Snapshot { bytes }
    }
}

impl SessionState {
    /// Serializes the state under the given config fingerprint.
    #[cfg(test)]
    pub(crate) fn to_snapshot(&self, config_hash: u64) -> Snapshot {
        self.write_snapshot(config_hash, Vec::new())
    }

    /// Decodes and validates a snapshot against the resuming session's
    /// config fingerprint.
    pub(crate) fn from_snapshot(
        snap: &Snapshot,
        expected_config: u64,
    ) -> Result<SessionState, SnapshotError> {
        snap.decode(Some(expected_config))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_state() -> SessionState {
        SessionState {
            cycles: 123_456,
            breakdown: CostBreakdown {
                work: 1,
                memory: 2,
                checks: 3,
                recording: 4,
                analysis: 5,
                matching: 6,
                prefetch: 7,
                optimize: 8,
            },
            mem: MemState {
                l1: CacheState {
                    tick: 9,
                    sets: vec![
                        vec![
                            LineState {
                                block: 4,
                                lru: 2,
                                prefetched_unused: true,
                                origin_prefetched: true,
                                dirty: false,
                            },
                            // Block and stamp at or above 2^56 take the
                            // writer's full-width path.
                            LineState {
                                block: 1 << 56,
                                lru: u64::MAX,
                                prefetched_unused: false,
                                origin_prefetched: false,
                                dirty: true,
                            },
                        ],
                        vec![],
                    ],
                },
                l2: CacheState {
                    tick: 11,
                    sets: vec![vec![]],
                },
                in_flight: vec![(7, 900)],
                pending: vec![(7, 2, 850)],
                outcomes: vec![PrefetchResolution {
                    tag: 1,
                    block: 3,
                    fate: PrefetchFate::Late,
                    issued_at: 10,
                    resolved_at: 20,
                }],
                stats: hds_memsim::MemStats {
                    l1_hits: 100,
                    l1_misses: 10,
                    ..hds_memsim::MemStats::default()
                },
            },
            tracer: TracerState {
                n_check_cur: 5,
                hibernating: 1,
                total_checks: 77,
                ..TracerState::default()
            },
            image: ImageState {
                epoch: 3,
                total_edits: 3,
                total_deopts: 1,
                copies: vec![CopyState {
                    proc: ProcId(0),
                    since_epoch: 3,
                    checks: vec![(Pc(16), 2), (Pc(20), 1)],
                }],
            },
            dfsm_state: 4,
            dfsm_rebuild: 1,
            frames: vec![(vec![(0, 3), (1, 3)], 5), (vec![], 2)],
            active_thread: 0,
            refs: 4242,
            checks: 99,
            cycle_stats: vec![CycleStats {
                traced_refs: 50,
                hot_streams: 2,
                streams_used: 1,
                dfsm_states: 7,
                dfsm_checks: 3,
                procs_modified: 1,
                grammar_size: 40,
            }],
            pf_queue: vec![(0x1000, 0), (0x1040, 1)],
            guard: Some(GuardState {
                tripped: [true, false, false, false, true],
                trips: [2, 0, 0, 0, 1],
                accuracy: Some(AccuracyState {
                    streams: vec![StreamAccuracyState {
                        stream_id: 0,
                        hash: 0xDEAD,
                        useful: 5,
                        late: 1,
                        polluted: 2,
                        streak: 1,
                    }],
                    denylist: vec![0xBEEF],
                }),
            }),
            installed: vec![vec![
                DataRef::new(Pc(16), Addr(0x100)),
                DataRef::new(Pc(20), Addr(0x140)),
            ]],
            partial_deopts: 1,
            bg: Some(BgState {
                handoffs: 4,
                applied: 2,
                starved: 1,
                pending: Some(PendingState {
                    handoff_at: 100,
                    ready_at: 200,
                    refs: vec![DataRef::new(Pc(16), Addr(0x100))],
                    denylist: vec![0xBEEF],
                }),
            }),
            events_consumed: 987_654,
            snapshots: 6,
            fault_state: 0x1234_5678_9ABC_DEF0,
            online: Some((1, vec![3, 0xFFFF_FFFF_FFFF_FFFF, 42])),
        }
    }

    #[test]
    fn session_state_round_trips() {
        let state = sample_state();
        let snap = state.to_snapshot(42);
        let back = SessionState::from_snapshot(&snap, 42).unwrap();
        assert_eq!(back, state);
        assert_eq!(back.to_snapshot(42), snap, "re-encoding changed the bytes");
    }

    /// The writer's bytes for `vs`, one after another.
    fn written(vs: &[u64]) -> Vec<u8> {
        let mut w = Writer::over(Vec::new());
        vs.iter().for_each(|&v| w.varint(v));
        w.into_bytes()
    }

    /// `put_varint`'s bytes for `vs`, one after another.
    fn reference(vs: &[u64]) -> Vec<u8> {
        let mut out = Vec::new();
        vs.iter()
            .for_each(|&v| hds_trace::codec::put_varint(&mut out, v));
        out
    }

    #[test]
    fn writer_matches_put_varint_at_every_width_edge() {
        for v in [0, 127, 128, (1 << 56) - 1, 1 << 56, 1 << 63, u64::MAX] {
            assert_eq!(written(&[v]), reference(&[v]), "{v:#x}");
        }
        // Every length from one to ten bytes, back to back, so each
        // store's spill is overwritten by the next value.
        let edges: Vec<u64> = (0..64).flat_map(|b| [1 << b, (1 << b) - 1]).collect();
        assert_eq!(written(&edges), reference(&edges));
    }

    #[test]
    fn writer_reuses_an_allocation_and_grows_past_it() {
        let values: Vec<u64> = (0..1_000).map(|i| i * 0x0123_4567).collect();
        let first = written(&values);
        let cap = first.capacity();
        let mut w = Writer::over(first);
        values.iter().for_each(|&v| w.varint(v));
        let again = w.into_bytes();
        assert_eq!(again.capacity(), cap, "the same allocation");
        assert_eq!(again, reference(&values));
        let mut w = Writer::over(vec![0xFF; 3]);
        values.iter().for_each(|&v| w.varint(v));
        assert_eq!(w.into_bytes(), reference(&values));
    }

    /// A live hierarchy with prefetches in flight, pending and resolved
    /// writes the bytes of its own export.
    #[test]
    fn live_memory_writes_its_export() {
        use hds_memsim::{HierarchyConfig, MemorySystem};
        use hds_trace::AccessKind;

        let mut m = MemorySystem::new(HierarchyConfig::tiny());
        for i in 0..60u64 {
            let addr = Addr((i % 17) * 64);
            if i % 3 == 0 {
                m.prefetch_tagged_at(addr, i * 10, (i % 4) as u32);
            }
            m.access_at(addr, AccessKind::Load, i * 10 + 5);
        }
        m.prefetch_tagged_at(Addr(0x4000), 601, 9);
        m.prefetch_tagged_at(Addr(0x4400), 602, 9);
        let view = m.view_state();
        assert!(!view.in_flight.is_empty() && !view.pending.is_empty());
        assert!(!view.outcomes.is_empty());
        let mut live = Writer::over(Vec::new());
        view.put(&mut live);
        let mut exported = Writer::over(Vec::new());
        m.export_state().put(&mut exported);
        assert_eq!(live.into_bytes(), exported.into_bytes());
    }

    #[test]
    fn from_bytes_revalidates() {
        let snap = sample_state().to_snapshot(42);
        let ok = Snapshot::from_bytes(snap.as_bytes().to_vec()).unwrap();
        assert_eq!(ok, snap);
        assert!(!ok.is_empty());
        assert_eq!(ok.len(), snap.as_bytes().len());
        assert_eq!(ok.clone().into_bytes(), snap.as_bytes().to_vec());
    }

    #[test]
    fn config_mismatch_is_typed() {
        let snap = sample_state().to_snapshot(42);
        assert_eq!(
            SessionState::from_snapshot(&snap, 43),
            Err(SnapshotError::ConfigMismatch {
                expected: 43,
                found: 42
            })
        );
    }

    #[test]
    fn bad_magic_and_version_are_typed() {
        assert_eq!(
            Snapshot::from_bytes(b"NOTASNAP".to_vec()),
            Err(SnapshotError::BadMagic)
        );
        assert_eq!(
            Snapshot::from_bytes(Vec::new()),
            Err(SnapshotError::BadMagic)
        );
        let mut bytes = sample_state().to_snapshot(1).into_bytes();
        bytes[7] = b'9';
        assert_eq!(
            Snapshot::from_bytes(bytes),
            Err(SnapshotError::UnsupportedVersion(b'9'))
        );
        // A retired v1 blob (ASCII header over JSON) is refused by version,
        // before its body is looked at.
        assert_eq!(
            Snapshot::from_bytes(b"HDSSNAP1 00000000 2\n{}".to_vec()),
            Err(SnapshotError::UnsupportedVersion(b'1'))
        );
    }

    #[test]
    fn payload_corruption_is_a_checksum_mismatch() {
        let snap = sample_state().to_snapshot(7);
        let bytes = snap.as_bytes();
        for pos in [HEADER_LEN, bytes.len() / 2, bytes.len() - 1] {
            let mut corrupt = bytes.to_vec();
            corrupt[pos] ^= 0x01;
            match Snapshot::from_bytes(corrupt) {
                Err(SnapshotError::ChecksumMismatch { .. }) => {}
                other => panic!("byte {pos}: expected ChecksumMismatch, got {other:?}"),
            }
        }
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The standard IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn crc32_tables_match_the_bitwise_definition() {
        fn bitwise(bytes: &[u8]) -> u32 {
            let mut crc: u32 = 0xFFFF_FFFF;
            for &b in bytes {
                crc ^= u32::from(b);
                for _ in 0..8 {
                    crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
                }
            }
            !crc
        }
        let data: Vec<u8> = (0u32..300).map(|i| (i * 167 + 13) as u8).collect();
        for len in 0..data.len() {
            assert_eq!(crc32(&data[..len]), bitwise(&data[..len]), "length {len}");
        }
    }

    /// `payload` behind a valid `HDSSNAP2` header with a matching CRC.
    fn sealed(payload: &[u8]) -> Vec<u8> {
        let mut bytes = b"HDSSNAP2".to_vec();
        bytes.extend_from_slice(&crc32(payload).to_le_bytes());
        bytes.extend_from_slice(payload);
        bytes
    }

    /// A real phase-boundary capture of a background, accuracy-guarded
    /// Dyn-pref session, with the config, mode and procedures that
    /// resume it.
    fn captured() -> (
        OptimizerConfig,
        RunMode,
        Vec<hds_vulcan::Procedure>,
        Snapshot,
    ) {
        let mut config = OptimizerConfig::test_scale();
        config.concurrency = crate::AnalysisConcurrency::Background;
        config.guard =
            hds_guard::GuardConfig::default().with_accuracy(hds_guard::AccuracyConfig::new());
        captured_under(config)
    }

    /// The last phase-boundary capture of a checkpointing Dyn-pref
    /// session under `config` over a 40,000-reference synthetic
    /// workload, with the config, mode and procedures that resume it.
    fn captured_under(
        config: OptimizerConfig,
    ) -> (
        OptimizerConfig,
        RunMode,
        Vec<hds_vulcan::Procedure>,
        Snapshot,
    ) {
        use hds_vulcan::ProgramSource;
        use hds_workloads::{SyntheticConfig, SyntheticWorkload, Workload};

        let mode = RunMode::Optimize(crate::PrefetchPolicy::StreamTail);
        let mut w = SyntheticWorkload::new(SyntheticConfig {
            total_refs: 40_000,
            ..SyntheticConfig::default()
        });
        let procedures = w.procedures();
        let mut session = crate::SessionBuilder::new(config.clone())
            .procedures(procedures.clone())
            .checkpoints()
            .mode(mode)
            .build();
        while let Some(e) = w.next_event() {
            session.on_event(e);
        }
        let snap = session
            .latest_snapshot()
            .expect("a phase boundary was captured")
            .clone();
        (config, mode, procedures, snap)
    }

    #[test]
    fn captured_snapshot_reencodes_byte_identically() {
        let (config, mode, _, snap) = captured();
        let fingerprint = config_fingerprint(&config, mode);
        let state = SessionState::from_snapshot(&snap, fingerprint).unwrap();
        assert!(state.guard.is_some() && state.bg.is_some());
        assert_eq!(state.to_snapshot(fingerprint).as_bytes(), snap.as_bytes());
    }

    /// A checksummed snapshot whose memory state does not fit the
    /// hierarchy resumes as `Malformed` naming the field — never a
    /// panic, and never a cache whose sets spill into their neighbours.
    #[test]
    fn forged_memory_state_is_malformed_on_resume() {
        type Forge = fn(&mut MemState, u64);
        let (config, mode, procedures, snap) = captured();
        let fingerprint = config_fingerprint(&config, mode);
        let state = SessionState::from_snapshot(&snap, fingerprint).unwrap();
        fn line(block: u64) -> LineState {
            LineState {
                block,
                lru: 1,
                ..LineState::default()
            }
        }
        let cases: [(&str, Forge); 8] = [
            ("mem.l1.sets: 127 sets, the cache has 128", |m, _| {
                m.l1.sets.pop();
            }),
            ("mem.l2.sets: 1025 sets, the cache has 1024", |m, _| {
                m.l2.sets.push(Vec::new());
            }),
            (
                "mem.l1.sets: set 0 lists 5 lines, more than the ways",
                |m, sets| m.l1.sets[0] = (0..5).map(|k| line(k * sets)).collect(),
            ),
            (
                "mem.l1.sets: set 0 lists block 1, which maps to another set",
                |m, _| m.l1.sets[0] = vec![line(1)],
            ),
            ("mem.l1.sets: set 0 lists block 0 twice", |m, _| {
                m.l1.sets[0] = vec![line(0), line(0)];
            }),
            ("mem.in_flight: block 7 out of order", |m, _| {
                m.in_flight = vec![(9, 1), (7, 1)];
            }),
            ("mem.in_flight: block 7 out of order", |m, _| {
                m.in_flight = vec![(7, 1), (7, 2)];
            }),
            ("mem.pending: block 7 out of order", |m, _| {
                m.pending = vec![(7, 0, 1), (7, 1, 1)];
            }),
        ];
        for (want, forge) in cases {
            let mut forged = state.clone();
            forge(&mut forged.mem, config.hierarchy.l1.num_sets());
            let resumed = crate::SessionBuilder::new(config.clone())
                .procedures(procedures.clone())
                .checkpoints()
                .mode(mode)
                .resume(&forged.to_snapshot(fingerprint));
            match resumed {
                Err(SnapshotError::Malformed(got)) => assert_eq!(got, want),
                Err(e) => panic!("{want}: expected Malformed, got {e}"),
                Ok(_) => panic!("{want}: the forged snapshot resumed"),
            }
        }
    }

    /// A checksummed snapshot whose thread or matcher index does not fit
    /// the tables it restores resumes as `Malformed` naming the field.
    /// Resumed anyway, the first two would panic on their first event,
    /// which indexes `frames[active_thread]`, and the third on the first
    /// reference the matcher steps on from `dfsm_state`. The fourth
    /// holds more threads than `on_event` ever lets a session track.
    #[test]
    fn forged_indices_are_malformed_on_resume() {
        // Static operation keeps the code optimized at every later
        // boundary, so the last capture carries a machine.
        let mut config = OptimizerConfig::test_scale();
        config.strategy = crate::CycleStrategy::Static;
        let (config, mode, procedures, snap) = captured_under(config);
        let fingerprint = config_fingerprint(&config, mode);
        let state = SessionState::from_snapshot(&snap, fingerprint).unwrap();
        assert_eq!(state.dfsm_rebuild, 1, "the capture carries a machine");
        let states = crate::pipeline::machine_for(&state.installed, &config)
            .unwrap()
            .state_count();
        let threads = state.frames.len();
        let cases = [
            (
                format!("active_thread: thread {threads}, the snapshot has {threads}"),
                SessionState {
                    active_thread: threads,
                    ..state.clone()
                },
            ),
            (
                "active_thread: thread 0, the snapshot has 0".to_string(),
                SessionState {
                    frames: Vec::new(),
                    ..state.clone()
                },
            ),
            (
                format!("dfsm_state: state {states}, the machine has {states}"),
                SessionState {
                    dfsm_state: states as u32,
                    ..state.clone()
                },
            ),
            (
                "frames: 1025 threads, more than the bound of 1024".to_string(),
                SessionState {
                    frames: vec![(Vec::new(), 0); 1025],
                    ..state.clone()
                },
            ),
        ];
        for (want, forged) in cases {
            let resumed = crate::SessionBuilder::new(config.clone())
                .procedures(procedures.clone())
                .checkpoints()
                .mode(mode)
                .resume(&forged.to_snapshot(fingerprint));
            match resumed {
                Err(SnapshotError::Malformed(got)) => assert_eq!(got, want),
                Err(e) => panic!("{want}: expected Malformed, got {e}"),
                Ok(_) => panic!("{want}: the forged snapshot resumed"),
            }
        }
    }

    /// Checksummed payloads that break the layout are `Malformed` and
    /// name the field path: trailing bytes, lengths the rest of the
    /// payload cannot hold (refused before allocating), and out-of-range
    /// flags, discriminants and narrowed integers.
    #[test]
    fn malformed_payloads_name_the_offending_field() {
        let s = sample_state();
        // The config fingerprint, `cycles` and `breakdown`, then `tail`.
        let payload = |tail: &dyn Fn(&mut Writer)| {
            let mut p = Writer::over(Vec::new());
            42u64.put(&mut p);
            s.cycles.put(&mut p);
            s.breakdown.put(&mut p);
            tail(&mut p);
            sealed(&p.into_bytes())
        };
        let varints = |p: &mut Writer, vs: &[u64]| vs.iter().for_each(|&v| p.varint(v));
        let mut cases = vec![(
            payload(&|p| {
                s.mem.put(p);
                s.tracer.put(p);
                s.image.put(p);
                varints(p, &[u64::from(u32::MAX) + 1]);
            }),
            "dfsm_state: 4294967296 out of range".to_string(),
        )];
        let mut trailing = s.to_snapshot(42).into_bytes()[HEADER_LEN..].to_vec();
        trailing.push(0);
        cases.push((sealed(&trailing), "1 trailing bytes".into()));
        // `mem.l1.tick`, then a set count no payload could hold.
        for forged in [100, 1 << 40, u64::MAX] {
            cases.push((
                payload(&|p| varints(p, &[9, forged])),
                format!("mem.l1.sets: length {forged} exceeds 0 remaining bytes"),
            ));
        }
        // One L1 line (block 4, lru 2) whose flag set has a fourth bit.
        cases.push((
            payload(&|p| varints(p, &[9, 1, 1, 4, 2, 0b1000])),
            "mem.l1.sets: flags 0b1000 out of range".into(),
        ));
        // One prefetch outcome (tag 1, block 3) with an unknown fate.
        cases.push((
            payload(&|p| {
                s.mem.l1.put(p);
                s.mem.l2.put(p);
                s.mem.in_flight.put(p);
                s.mem.pending.put(p);
                varints(p, &[1, 1, 3, 7]);
            }),
            "mem.outcomes.fate: bad fate discriminant 7".into(),
        ));
        for (bytes, want) in cases {
            assert_eq!(
                Snapshot::from_bytes(bytes),
                Err(SnapshotError::Malformed(want))
            );
        }
    }

    proptest::proptest! {
        /// Any `u64` — and any bit length, so both of the writer's
        /// paths are hit often — encodes to `put_varint`'s bytes.
        #[test]
        fn writer_matches_put_varint(
            raw in proptest::collection::vec(
                (proptest::arbitrary::any::<u64>(), 0u32..64),
                0..64,
            ),
        ) {
            let vs: Vec<u64> = raw.iter().map(|&(v, shift)| v >> shift).collect();
            proptest::prop_assert_eq!(written(&vs), reference(&vs));
        }

        /// Arbitrary bytes, bare or behind the v2 magic, are a typed
        /// error and never a panic.
        #[test]
        fn arbitrary_bytes_are_rejected_typed(
            tail in proptest::collection::vec(proptest::arbitrary::any::<u8>(), 0..512),
            magic in proptest::bool::ANY,
        ) {
            let mut bytes = if magic { b"HDSSNAP2".to_vec() } else { Vec::new() };
            bytes.extend_from_slice(&tail);
            proptest::prop_assert!(Snapshot::from_bytes(bytes).is_err());
        }

        /// A valid header and CRC over an arbitrary payload reach the
        /// field decoder, which refuses them as `Malformed`.
        #[test]
        fn checksummed_garbage_is_malformed(
            payload in proptest::collection::vec(proptest::arbitrary::any::<u8>(), 0..2048),
        ) {
            let is_malformed = matches!(
                Snapshot::from_bytes(sealed(&payload)),
                Err(SnapshotError::Malformed(_))
            );
            proptest::prop_assert!(is_malformed);
        }
    }

    #[test]
    fn fingerprint_separates_configs_and_modes() {
        let a = OptimizerConfig::test_scale();
        let mut b = OptimizerConfig::test_scale();
        b.max_streams += 1;
        assert_ne!(
            config_fingerprint(&a, RunMode::Baseline),
            config_fingerprint(&b, RunMode::Baseline)
        );
        assert_ne!(
            config_fingerprint(&a, RunMode::Baseline),
            config_fingerprint(&a, RunMode::Analyze)
        );
        assert_eq!(
            config_fingerprint(&a, RunMode::Profile),
            config_fingerprint(&a, RunMode::Profile)
        );
    }

    #[test]
    fn errors_display() {
        assert!(SnapshotError::BadMagic.to_string().contains("magic"));
        assert!(SnapshotError::UnsupportedVersion(b'9')
            .to_string()
            .contains("version"));
        assert!(SnapshotError::ChecksumMismatch {
            expected: 1,
            found: 2
        }
        .to_string()
        .contains("checksum"));
        assert!(SnapshotError::Malformed("x".into())
            .to_string()
            .contains("x"));
        assert!(SnapshotError::ConfigMismatch {
            expected: 1,
            found: 2
        }
        .to_string()
        .contains("fingerprint"));
    }
}
