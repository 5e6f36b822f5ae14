//! The flight recorder: a fixed-capacity ring of recent spans and
//! events, with crash-triggered JSON dumps.

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use hds_telemetry::events as tev;
use hds_telemetry::Observer;
use serde::{Serialize, Value};

use crate::meta::SCHEMA_VERSION;

/// Nesting lane used for discrete (non-span) events, keeping them off
/// the span lanes so the per-lane nesting discipline stays trivial.
const EVENT_LANE: u32 = 2;

/// One ring-buffer entry: a span boundary or a discrete event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlightRecord {
    /// Monotonic sequence number over the recorder's lifetime (dense,
    /// so `seq` gaps in a dump reveal exactly how much the ring lost).
    pub seq: u64,
    /// Stable lower-case name: a [`tev::SpanKind`] label or a discrete
    /// event name (`"restart"`, `"guard_trip"`, …).
    pub name: &'static str,
    /// Begin, end, or instant.
    pub phase: tev::SpanPhase,
    /// The emitter's simulated clock (deterministic).
    pub sim_cycle: u64,
    /// Nanoseconds since the recorder was created (diagnostic only —
    /// never part of a digest).
    pub wall_ns: u64,
    /// Timeline track (0 = core pipeline, `shard + 1` = serve shards,
    /// plus the recorder's track base).
    pub track: u32,
    /// Nesting lane within the track (see [`tev::SpanKind::lane`]).
    pub lane: u32,
    /// First kind-specific payload word.
    pub a: u64,
    /// Second kind-specific payload word.
    pub b: u64,
}

impl Serialize for FlightRecord {
    fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("seq".into(), Value::U64(self.seq)),
            ("name".into(), Value::Str(self.name.to_string())),
            ("ph".into(), Value::Str(self.phase.label().to_string())),
            ("sim_cycle".into(), Value::U64(self.sim_cycle)),
            ("wall_ns".into(), Value::U64(self.wall_ns)),
            ("track".into(), Value::U64(u64::from(self.track))),
            ("lane".into(), Value::U64(u64::from(self.lane))),
            ("a".into(), Value::U64(self.a)),
            ("b".into(), Value::U64(self.b)),
        ])
    }
}

/// Which triggers auto-dump the ring to `flightdump-*.json`. Dumps
/// additionally require a dump directory ([`FlightRecorder::with_dump_dir`]);
/// without one every trigger is a no-op, so hundred-schedule chaos
/// sweeps don't spray files.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DumpPolicy {
    /// Dump when an injected crash kills a session (a `Crash` span
    /// instant or a serve shard's restart note).
    pub on_crash: bool,
    /// Dump when a budget guard trips.
    pub on_guard_trip: bool,
    /// Dump when the supervisor's circuit breaker opens.
    pub on_gave_up: bool,
    /// Dump on every supervisor restart (noisy; off by default).
    pub on_restart: bool,
}

impl Default for DumpPolicy {
    fn default() -> Self {
        DumpPolicy {
            on_crash: true,
            on_guard_trip: true,
            on_gave_up: true,
            on_restart: false,
        }
    }
}

/// A fixed-capacity flight recorder implementing [`Observer`].
///
/// Records every [`tev::SpanEvent`] plus the discrete events worth a
/// black-box line (cycle boundaries, guard trips, de-optimizations,
/// recovery, serve admission outcomes). The per-reference events
/// (`PrefetchIssued`, `PrefetchOutcome`) are deliberately *not*
/// recorded: they would wash every ring with the hottest event class.
#[derive(Debug)]
pub struct FlightRecorder {
    ring: Vec<FlightRecord>,
    capacity: usize,
    /// Next write slot once the ring is full.
    next: usize,
    /// Records ever pushed (not capped).
    seq: u64,
    start: Instant,
    label: String,
    track_base: u32,
    dump_dir: Option<PathBuf>,
    policy: DumpPolicy,
    dumps: Vec<PathBuf>,
    dump_failures: u64,
}

impl FlightRecorder {
    /// A recorder keeping the most recent `capacity` records (min 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        FlightRecorder {
            ring: Vec::with_capacity(capacity.min(4096)),
            capacity,
            next: 0,
            seq: 0,
            start: Instant::now(),
            label: "session".to_string(),
            track_base: 0,
            dump_dir: None,
            policy: DumpPolicy::default(),
            dumps: Vec::new(),
            dump_failures: 0,
        }
    }

    /// Names the recorder; the label appears in dump filenames and
    /// payloads (e.g. the benchmark or tenant under observation).
    #[must_use]
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }

    /// Enables auto-dumps into `dir` (created on first dump). Without
    /// a dump directory every dump trigger is a no-op.
    #[must_use]
    pub fn with_dump_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.dump_dir = Some(dir.into());
        self
    }

    /// Replaces the default [`DumpPolicy`].
    #[must_use]
    pub fn with_policy(mut self, policy: DumpPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Offsets every recorded track by `base` — used to keep the spans
    /// of consecutive runs (one per benchmark × mode) on separate
    /// Perfetto tracks with independently monotonic clocks.
    #[must_use]
    pub fn with_track_base(mut self, base: u32) -> Self {
        self.track_base = base;
        self
    }

    /// Changes the track base in place (between runs).
    pub fn set_track_base(&mut self, base: u32) {
        self.track_base = base;
    }

    /// The recorder's label.
    #[must_use]
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Ring capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records currently held (≤ capacity).
    #[must_use]
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether nothing was recorded yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Records ever pushed, including those the ring has dropped.
    #[must_use]
    pub fn total_recorded(&self) -> u64 {
        self.seq
    }

    /// Records lost to wraparound.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.seq - self.ring.len() as u64
    }

    /// Whether the ring has wrapped at least once.
    #[must_use]
    pub fn wrapped(&self) -> bool {
        self.dropped() > 0
    }

    /// Paths of the flight dumps written so far.
    #[must_use]
    pub fn dump_paths(&self) -> &[PathBuf] {
        &self.dumps
    }

    /// Dump attempts that failed with an I/O error (recording never
    /// propagates I/O failures into the observed run).
    #[must_use]
    pub fn dump_failures(&self) -> u64 {
        self.dump_failures
    }

    /// The held records, oldest first.
    #[must_use]
    pub fn records(&self) -> Vec<FlightRecord> {
        if self.ring.len() < self.capacity {
            self.ring.clone()
        } else {
            let mut out = Vec::with_capacity(self.ring.len());
            out.extend_from_slice(&self.ring[self.next..]);
            out.extend_from_slice(&self.ring[..self.next]);
            out
        }
    }

    /// Appends `rec`, stamping its sequence number, wall clock and
    /// track base.
    fn push(&mut self, rec: FlightRecord) {
        let rec = FlightRecord {
            seq: self.seq,
            wall_ns: u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX),
            track: self.track_base.saturating_add(rec.track),
            ..rec
        };
        self.seq += 1;
        if self.ring.len() < self.capacity {
            self.ring.push(rec);
        } else {
            self.ring[self.next] = rec;
            self.next = (self.next + 1) % self.capacity;
        }
    }

    /// The dump payload as a serde value (what a dump file contains).
    #[must_use]
    pub fn dump_value(&self, reason: &str) -> Value {
        Value::Obj(vec![
            (
                "schema_version".into(),
                Value::U64(u64::from(SCHEMA_VERSION)),
            ),
            ("label".into(), Value::Str(self.label.clone())),
            ("reason".into(), Value::Str(reason.to_string())),
            ("total_recorded".into(), Value::U64(self.seq)),
            ("dropped".into(), Value::U64(self.dropped())),
            (
                "wall_ns".into(),
                Value::U64(u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX)),
            ),
            (
                "records".into(),
                Value::Arr(self.records().iter().map(Serialize::to_value).collect()),
            ),
        ])
    }

    /// Writes the ring to `path` as pretty JSON.
    ///
    /// # Errors
    ///
    /// Propagates any filesystem error.
    pub fn dump_to(&self, path: &Path, reason: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let json = serde_json::to_string_pretty(&self.dump_value(reason))
            .map_err(|e| std::io::Error::other(e.to_string()))?;
        let mut f = std::fs::File::create(path)?;
        f.write_all(json.as_bytes())?;
        f.write_all(b"\n")
    }

    /// Writes a `flightdump-<label>-<n>.json` into the configured dump
    /// directory, returning its path — `None` when no directory is
    /// configured or the write failed (failures are counted, never
    /// propagated into the observed run).
    pub fn dump(&mut self, reason: &str) -> Option<PathBuf> {
        let dir = self.dump_dir.clone()?;
        let path = dir.join(format!(
            "flightdump-{}-{}.json",
            self.label.replace(['/', ' '], "_"),
            self.dumps.len()
        ));
        match self.dump_to(&path, reason) {
            Ok(()) => {
                self.dumps.push(path.clone());
                Some(path)
            }
            Err(_) => {
                self.dump_failures += 1;
                None
            }
        }
    }
}

impl Observer for FlightRecorder {
    fn on(&mut self, event: &tev::Event) {
        use tev::Event as E;
        // Discrete events: (name, sim_cycle, track, a, b). Serve events
        // go on their shard's track.
        let (name, sim_cycle, track, a, b) = match event {
            E::Span(s) => {
                self.push(FlightRecord {
                    seq: 0,
                    name: s.kind.label(),
                    phase: s.phase,
                    sim_cycle: s.at_cycle,
                    wall_ns: 0,
                    track: s.track,
                    lane: s.kind.lane(),
                    a: s.a,
                    b: s.b,
                });
                if s.kind == tev::SpanKind::Crash && self.policy.on_crash {
                    self.dump("crash");
                }
                return;
            }
            E::CycleStart(e) => ("cycle_start", e.at_cycle, 0, e.opt_cycle, 0),
            E::CycleEnd(e) => ("cycle_end", e.at_cycle, 0, e.opt_cycle, e.traced_refs),
            E::Deoptimize(e) => (
                "deoptimize",
                e.at_cycle,
                0,
                u64::from(e.partial),
                e.stream_id.map_or(u64::MAX, u64::from),
            ),
            E::GuardTripped(e) => ("guard_trip", e.at_cycle, 0, e.observed, e.budget),
            E::RecoverySnapshot(e) => ("snapshot", e.at_cycle, 0, e.bytes, e.events_consumed),
            E::RecoveryReplay(e) => (
                "journal_replay",
                0,
                0,
                u64::from(e.rolled_forward),
                e.events_consumed,
            ),
            E::RecoveryRestart(e) => ("restart", 0, 0, u64::from(e.attempt), e.resumed_at_event),
            E::RecoveryGaveUp(e) => ("gave_up", 0, 0, u64::from(e.restarts), e.crashes),
            E::ServeSessionOpened(e) => {
                ("serve_open", 0, e.shard + 1, e.tenant, u64::from(e.backend))
            }
            E::ServeSessionEvicted(e) => {
                ("serve_evict", 0, e.shard + 1, e.tenant, e.snapshot_bytes)
            }
            E::ServeSessionResumed(e) => {
                ("serve_resume", 0, e.shard + 1, e.tenant, e.replayed_events)
            }
            E::ServeShed(e) => ("serve_shed", 0, e.shard + 1, e.tenant, e.observed),
            E::ServeBusy(e) => ("serve_busy", 0, e.shard + 1, e.tenant, e.observed),
            _ => return,
        };
        self.push(FlightRecord {
            seq: 0,
            name,
            phase: tev::SpanPhase::Instant,
            sim_cycle,
            wall_ns: 0,
            track,
            lane: EVENT_LANE,
            a,
            b,
        });
        let dump = match event {
            E::GuardTripped(_) => self.policy.on_guard_trip,
            E::RecoveryRestart(_) => self.policy.on_restart,
            E::RecoveryGaveUp(_) => self.policy.on_gave_up,
            _ => false,
        };
        if dump {
            self.dump(name);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hds_telemetry::events::{SpanEvent, SpanKind};

    #[test]
    fn ring_keeps_most_recent() {
        let mut rec = FlightRecorder::new(4);
        for i in 0..10u64 {
            rec.on(&tev::Event::Span(SpanEvent::instant(
                SpanKind::SequiturAppend,
                i,
            )));
        }
        assert_eq!(rec.len(), 4);
        assert_eq!(rec.total_recorded(), 10);
        assert_eq!(rec.dropped(), 6);
        assert!(rec.wrapped());
        let cycles: Vec<u64> = rec.records().iter().map(|r| r.sim_cycle).collect();
        assert_eq!(cycles, vec![6, 7, 8, 9]);
        let seqs: Vec<u64> = rec.records().iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
    }

    #[test]
    fn capacity_floor_is_one() {
        let mut rec = FlightRecorder::new(0);
        rec.on(&tev::Event::Span(SpanEvent::instant(SpanKind::Crash, 1)));
        rec.on(&tev::Event::Span(SpanEvent::instant(SpanKind::Crash, 2)));
        assert_eq!(rec.capacity(), 1);
        assert_eq!(rec.len(), 1);
        assert_eq!(rec.records()[0].sim_cycle, 2);
    }

    #[test]
    fn track_base_offsets_spans() {
        let mut rec = FlightRecorder::new(8).with_track_base(10);
        rec.on(&tev::Event::Span(
            SpanEvent::begin(SpanKind::ServeFrame, 3).on_track(2),
        ));
        assert_eq!(rec.records()[0].track, 12);
    }

    #[test]
    fn no_dump_dir_means_no_dump() {
        let mut rec = FlightRecorder::new(8);
        rec.on(&tev::Event::Span(SpanEvent::instant(SpanKind::Crash, 5)));
        assert!(rec.dump_paths().is_empty());
        assert_eq!(rec.dump_failures(), 0);
    }

    #[test]
    fn dump_value_carries_ring_metadata() {
        let mut rec = FlightRecorder::new(2).with_label("unit");
        for i in 0..5u64 {
            rec.on(&tev::Event::Span(SpanEvent::instant(
                SpanKind::SequiturAppend,
                i,
            )));
        }
        let v = rec.dump_value("test");
        assert_eq!(v.get("label"), Some(&Value::Str("unit".into())));
        assert_eq!(v.get("dropped"), Some(&Value::U64(3)));
        match v.get("records") {
            Some(Value::Arr(a)) => assert_eq!(a.len(), 2),
            other => panic!("records: {other:?}"),
        }
    }
}
