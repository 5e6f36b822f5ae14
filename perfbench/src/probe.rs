//! The traced run's instruments: wrappers that time calls into a layer
//! and pass everything else through unchanged.
//!
//! * [`TimedTransport`] — around a [`Transport`]: sends encode frames,
//!   receives decode them, so their times are the wire codec's.
//! * [`TimedStorage`] — around a [`Storage`]: appends, reads and syncs.
//! * [`WallObserver`] — an [`Observer`] that stamps wall time on the
//!   executor's Analyze, DfsmBuild and ImageEdit spans and counts phase
//!   transitions and snapshots.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hds_serve::{Frame, Transport, TransportError};
use hds_store::{Storage, StorageError};
use hds_telemetry::events::{PhaseTransition, RecoverySnapshot, SpanEvent, SpanKind, SpanPhase};
use hds_telemetry::Observer;

/// Accumulated time and call count of one kind of call.
#[derive(Clone, Copy, Debug, Default)]
pub struct Timer {
    /// Total time inside the calls.
    pub total: Duration,
    /// Calls timed.
    pub calls: u64,
}

impl Timer {
    /// Adds one call that started at `start`.
    pub fn stop(&mut self, start: Instant) {
        self.total += start.elapsed();
        self.calls += 1;
    }

    /// Total milliseconds.
    #[must_use]
    pub fn ms(&self) -> f64 {
        self.total.as_secs_f64() * 1e3
    }

    /// Mean time per call in `unit`s of a second (1e3 = ms, 1e6 = µs).
    #[must_use]
    pub fn mean(&self, unit: f64) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        crate::stats::ratio(self.total.as_secs_f64() * unit, self.calls as f64)
    }

    /// Folds another timer into this one.
    pub fn add(&mut self, other: &Timer) {
        self.total += other.total;
        self.calls += other.calls;
    }
}

/// What a [`TimedTransport`] measured.
#[derive(Clone, Copy, Debug, Default)]
pub struct WireTimes {
    /// Sends of trace chunks (frame encoding).
    pub encode: Timer,
    /// Receives of trace chunks (frame decoding).
    pub decode: Timer,
    /// Every other send and receive.
    pub other: Timer,
    /// Events carried by the timed trace chunks, each direction.
    pub events_encoded: u64,
    /// Events in the decoded trace chunks.
    pub events_decoded: u64,
    /// Encoded bytes of the trace chunks sent.
    pub chunk_bytes: u64,
}

/// A [`Transport`] that times every call into the one it wraps.
pub struct TimedTransport<T> {
    inner: T,
    /// What was measured so far.
    pub times: WireTimes,
}

impl<T> TimedTransport<T> {
    /// Wraps `inner`.
    pub fn new(inner: T) -> Self {
        TimedTransport {
            inner,
            times: WireTimes::default(),
        }
    }
}

impl<T: Transport> Transport for TimedTransport<T> {
    fn send(&mut self, frame: &Frame) -> Result<(), TransportError> {
        let start = Instant::now();
        let result = self.inner.send(frame);
        if let Frame::TraceChunk { events, .. } = frame {
            self.times.encode.stop(start);
            self.times.events_encoded += events.len() as u64;
            self.times.chunk_bytes += frame.encode().len() as u64;
        } else {
            self.times.other.stop(start);
        }
        result
    }

    fn recv(&mut self) -> Result<Option<Frame>, TransportError> {
        let start = Instant::now();
        let result = self.inner.recv();
        if let Ok(Some(Frame::TraceChunk { events, .. })) = &result {
            self.times.decode.stop(start);
            self.times.events_decoded += events.len() as u64;
        } else {
            self.times.other.stop(start);
        }
        result
    }

    fn send_bytes(&mut self, bytes: &[u8]) -> Result<(), TransportError> {
        let start = Instant::now();
        let result = self.inner.send_bytes(bytes);
        self.times.other.stop(start);
        result
    }

    fn close(&mut self) {
        self.inner.close();
    }
}

/// Counters a [`TimedStorage`] shares with the benchmark, which keeps
/// a handle while the store owns the storage.
#[derive(Debug, Default)]
pub struct StorageCounters {
    append_ns: AtomicU64,
    appends: AtomicU64,
    read_ns: AtomicU64,
    reads: AtomicU64,
    sync_ns: AtomicU64,
    syncs: AtomicU64,
    bytes_written: AtomicU64,
    bytes_read: AtomicU64,
}

/// A snapshot of [`StorageCounters`].
#[derive(Clone, Copy, Debug, Default)]
pub struct StorageTimes {
    /// Appends.
    pub append: Timer,
    /// Whole-file reads.
    pub read: Timer,
    /// Syncs.
    pub sync: Timer,
    /// Bytes appended.
    pub bytes_written: u64,
    /// Bytes read.
    pub bytes_read: u64,
}

impl StorageCounters {
    /// The counts so far.
    #[must_use]
    pub fn times(&self) -> StorageTimes {
        let timer = |ns: &AtomicU64, calls: &AtomicU64| Timer {
            total: Duration::from_nanos(ns.load(Ordering::Relaxed)),
            calls: calls.load(Ordering::Relaxed),
        };
        StorageTimes {
            append: timer(&self.append_ns, &self.appends),
            read: timer(&self.read_ns, &self.reads),
            sync: timer(&self.sync_ns, &self.syncs),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
        }
    }
}

fn record(ns: &AtomicU64, calls: &AtomicU64, start: Instant) {
    #[allow(clippy::cast_possible_truncation)]
    ns.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
    calls.fetch_add(1, Ordering::Relaxed);
}

/// A [`Storage`] that times appends, reads and syncs of the one it
/// wraps.
pub struct TimedStorage<S> {
    inner: S,
    counters: Arc<StorageCounters>,
}

impl<S> TimedStorage<S> {
    /// Wraps `inner`; the returned handle reads the counters.
    pub fn new(inner: S) -> (Self, Arc<StorageCounters>) {
        let counters = Arc::new(StorageCounters::default());
        (
            TimedStorage {
                inner,
                counters: Arc::clone(&counters),
            },
            counters,
        )
    }
}

impl<S: Storage> Storage for TimedStorage<S> {
    fn list(&mut self) -> Result<Vec<String>, StorageError> {
        self.inner.list()
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self.inner.as_any_mut()
    }

    fn read(&mut self, name: &str) -> Result<Vec<u8>, StorageError> {
        let start = Instant::now();
        let result = self.inner.read(name);
        let c = &self.counters;
        record(&c.read_ns, &c.reads, start);
        if let Ok(bytes) = &result {
            c.bytes_read
                .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        }
        result
    }

    fn append(&mut self, name: &str, data: &[u8]) -> Result<(), StorageError> {
        let start = Instant::now();
        let result = self.inner.append(name, data);
        let c = &self.counters;
        record(&c.append_ns, &c.appends, start);
        c.bytes_written
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        result
    }

    fn sync(&mut self, name: &str) -> Result<(), StorageError> {
        let start = Instant::now();
        let result = self.inner.sync(name);
        record(&self.counters.sync_ns, &self.counters.syncs, start);
        result
    }

    fn rename(&mut self, from: &str, to: &str) -> Result<(), StorageError> {
        self.inner.rename(from, to)
    }

    fn remove(&mut self, name: &str) -> Result<(), StorageError> {
        self.inner.remove(name)
    }
}

/// What a [`WallObserver`] saw.
#[derive(Clone, Copy, Debug, Default)]
pub struct SpanTimes {
    /// Analyze spans (hot-stream analysis, DFSM build and image edit).
    pub analyze: Timer,
    /// DfsmBuild spans.
    pub dfsm_build: Timer,
    /// ImageEdit spans.
    pub image_edit: Timer,
    /// Phase transitions.
    pub transitions: u64,
    /// Snapshots captured.
    pub snapshots: u64,
    /// Their encoded bytes.
    pub snapshot_bytes: u64,
}

impl SpanTimes {
    /// Folds another measurement into this one.
    pub fn add(&mut self, o: &SpanTimes) {
        self.analyze.add(&o.analyze);
        self.dfsm_build.add(&o.dfsm_build);
        self.image_edit.add(&o.image_edit);
        self.transitions += o.transitions;
        self.snapshots += o.snapshots;
        self.snapshot_bytes += o.snapshot_bytes;
    }
}

/// Stamps wall time on the executor's spans. Observing charges no
/// simulated cycles, so a session's report is the same with or without
/// it.
#[derive(Debug, Default)]
pub struct WallObserver {
    /// What was seen so far.
    pub times: SpanTimes,
    open: [Option<Instant>; 3],
}

impl WallObserver {
    fn slot(kind: SpanKind) -> Option<usize> {
        match kind {
            SpanKind::Analyze => Some(0),
            SpanKind::DfsmBuild => Some(1),
            SpanKind::ImageEdit => Some(2),
            _ => None,
        }
    }
}

impl Observer for WallObserver {
    fn phase_transition(&mut self, _event: &PhaseTransition) {
        self.times.transitions += 1;
    }

    fn recovery_snapshot(&mut self, event: &RecoverySnapshot) {
        self.times.snapshots += 1;
        self.times.snapshot_bytes += event.bytes;
    }

    fn span(&mut self, event: &SpanEvent) {
        let Some(slot) = Self::slot(event.kind) else {
            return;
        };
        match event.phase {
            SpanPhase::Begin => self.open[slot] = Some(Instant::now()),
            SpanPhase::End => {
                if let Some(start) = self.open[slot].take() {
                    let timer = match slot {
                        0 => &mut self.times.analyze,
                        1 => &mut self.times.dfsm_build,
                        _ => &mut self.times.image_edit,
                    };
                    timer.stop(start);
                }
            }
            SpanPhase::Instant => {}
        }
    }
}
