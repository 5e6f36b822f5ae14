//! Perfetto/chrome-trace export of a recorded ring, plus the
//! well-nestedness validator shared by the proptests and `bench_trace`.
//!
//! The emitted JSON is the chrome trace-event "object format": a
//! `traceEvents` array of `B`/`E`/`i` events, loadable by
//! `chrome://tracing` and [Perfetto](https://ui.perfetto.dev). The
//! timestamp is the *simulated* clock (so traces are deterministic
//! where the simulation is); wall-clock nanoseconds ride along in
//! `args.wall_ns`. Each `(track, lane)` pair maps to its own `tid`, so
//! span nesting is checked — and rendered — per lane: the background
//! worker's lane legitimately overlaps the phase lane.

use std::io::Write as _;
use std::path::Path;

use serde::Value;

use crate::recorder::FlightRecord;
use hds_telemetry::events::SpanPhase;

/// Lanes per track in the `tid` packing. Lane 0 = phase spans, 1 =
/// background analysis, 2 = discrete events; 8 leaves headroom.
const LANES_PER_TRACK: u32 = 8;

/// A nesting violation found by [`validate_nesting`] /
/// [`validate_chrome_trace`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NestingError {
    /// An `E` event arrived on a lane with no span open.
    EndWithoutBegin {
        /// The offending event's name.
        name: String,
        /// Its packed `tid` (track × lanes + lane).
        tid: u32,
    },
    /// An `E` event closed a span of a different kind.
    Mismatched {
        /// The open span's name.
        open: String,
        /// The closing event's name.
        close: String,
        /// Its packed `tid`.
        tid: u32,
    },
    /// An `E` event carried an earlier timestamp than its `B`.
    BackwardsTime {
        /// The span's name.
        name: String,
        /// Begin timestamp.
        begin_ts: u64,
        /// End timestamp.
        end_ts: u64,
    },
    /// The JSON shape was not a chrome trace (missing/odd fields).
    Malformed(String),
}

impl std::fmt::Display for NestingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NestingError::EndWithoutBegin { name, tid } => {
                write!(f, "end without begin: {name} on tid {tid}")
            }
            NestingError::Mismatched { open, close, tid } => {
                write!(f, "mismatched spans: {close} closed {open} on tid {tid}")
            }
            NestingError::BackwardsTime {
                name,
                begin_ts,
                end_ts,
            } => write!(
                f,
                "span {name} ends at {end_ts} before beginning at {begin_ts}"
            ),
            NestingError::Malformed(m) => write!(f, "malformed trace: {m}"),
        }
    }
}

impl std::error::Error for NestingError {}

/// Packs a record's `(track, lane)` into a chrome-trace `tid`.
#[must_use]
pub fn tid_of(record: &FlightRecord) -> u32 {
    record.track * LANES_PER_TRACK + record.lane
}

/// The chrome-trace value for one record.
fn trace_event(record: &FlightRecord) -> Value {
    let mut fields = vec![
        ("name".into(), Value::Str(record.name.to_string())),
        ("cat".into(), Value::Str("hds".to_string())),
        ("ph".into(), Value::Str(record.phase.label().to_string())),
        ("ts".into(), Value::U64(record.sim_cycle)),
        ("pid".into(), Value::U64(1)),
        ("tid".into(), Value::U64(u64::from(tid_of(record)))),
    ];
    if record.phase == SpanPhase::Instant {
        // Thread-scoped instants render as ticks on their own track.
        fields.push(("s".into(), Value::Str("t".to_string())));
    }
    fields.push((
        "args".into(),
        Value::Obj(vec![
            ("seq".into(), Value::U64(record.seq)),
            ("wall_ns".into(), Value::U64(record.wall_ns)),
            ("a".into(), Value::U64(record.a)),
            ("b".into(), Value::U64(record.b)),
        ]),
    ));
    Value::Obj(fields)
}

/// The full chrome-trace document for a recorded ring.
#[must_use]
pub fn chrome_trace(records: &[FlightRecord]) -> Value {
    Value::Obj(vec![
        (
            "traceEvents".into(),
            Value::Arr(records.iter().map(trace_event).collect()),
        ),
        ("displayTimeUnit".into(), Value::Str("ns".to_string())),
    ])
}

/// The chrome-trace document as a JSON string.
#[must_use]
pub fn chrome_trace_json(records: &[FlightRecord]) -> String {
    serde_json::to_string_pretty(&chrome_trace(records))
        .expect("a chrome trace value always serializes")
}

/// Writes the chrome-trace JSON to `path`.
///
/// # Errors
///
/// Propagates any filesystem error.
pub fn write_chrome_trace(path: &Path, records: &[FlightRecord]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::fs::File::create(path)?;
    f.write_all(chrome_trace_json(records).as_bytes())?;
    f.write_all(b"\n")
}

/// Checks that span begin/end pairs nest like parentheses per
/// `(track, lane)`. Spans still open at the end of the ring are fine
/// (a wrapped ring loses old ends, a crashed run never closes its
/// phase), but an end must always match the innermost open begin of
/// its lane and may not precede it in time.
///
/// # Errors
///
/// The first [`NestingError`] found, scanning oldest-first.
pub fn validate_nesting(records: &[FlightRecord]) -> Result<(), NestingError> {
    let events: Vec<(String, String, u64, u32)> = records
        .iter()
        .map(|r| {
            (
                r.name.to_string(),
                r.phase.label().to_string(),
                r.sim_cycle,
                tid_of(r),
            )
        })
        .collect();
    validate_event_list(&events)
}

/// [`validate_nesting`] over a *parsed* chrome-trace JSON document —
/// what the proptests run against the exported text, so the validator
/// sees exactly what Perfetto would.
///
/// # Errors
///
/// [`NestingError::Malformed`] when the document is not a chrome trace,
/// else the first nesting violation.
pub fn validate_chrome_trace(doc: &Value) -> Result<(), NestingError> {
    let Some(Value::Arr(events)) = doc.get("traceEvents") else {
        return Err(NestingError::Malformed(
            "missing traceEvents array".to_string(),
        ));
    };
    let mut list = Vec::with_capacity(events.len());
    for e in events {
        let name = match e.get("name") {
            Some(Value::Str(s)) => s.clone(),
            other => return Err(NestingError::Malformed(format!("name: {other:?}"))),
        };
        let ph = match e.get("ph") {
            Some(Value::Str(s)) => s.clone(),
            other => return Err(NestingError::Malformed(format!("ph: {other:?}"))),
        };
        let ts = match e.get("ts") {
            Some(Value::U64(t)) => *t,
            other => return Err(NestingError::Malformed(format!("ts: {other:?}"))),
        };
        let tid = match e.get("tid") {
            Some(Value::U64(t)) => u32::try_from(*t)
                .map_err(|_| NestingError::Malformed(format!("tid out of range: {t}")))?,
            other => return Err(NestingError::Malformed(format!("tid: {other:?}"))),
        };
        list.push((name, ph, ts, tid));
    }
    validate_event_list(&list)
}

fn validate_event_list(events: &[(String, String, u64, u32)]) -> Result<(), NestingError> {
    use std::collections::BTreeMap;
    let mut stacks: BTreeMap<u32, Vec<(String, u64)>> = BTreeMap::new();
    for (name, ph, ts, tid) in events {
        match ph.as_str() {
            "B" => stacks.entry(*tid).or_default().push((name.clone(), *ts)),
            "E" => {
                let stack = stacks.entry(*tid).or_default();
                let Some((open, begin_ts)) = stack.pop() else {
                    return Err(NestingError::EndWithoutBegin {
                        name: name.clone(),
                        tid: *tid,
                    });
                };
                if open != *name {
                    return Err(NestingError::Mismatched {
                        open,
                        close: name.clone(),
                        tid: *tid,
                    });
                }
                if *ts < begin_ts {
                    return Err(NestingError::BackwardsTime {
                        name: name.clone(),
                        begin_ts,
                        end_ts: *ts,
                    });
                }
            }
            _ => {}
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::FlightRecorder;
    use hds_telemetry::events::{Event, SpanEvent, SpanKind};
    use hds_telemetry::Observer;

    fn rec_with(events: &[SpanEvent]) -> Vec<FlightRecord> {
        let mut rec = FlightRecorder::new(64);
        for e in events {
            rec.on(&Event::Span(*e));
        }
        rec.records()
    }

    #[test]
    fn export_round_trips_and_nests() {
        let records = rec_with(&[
            SpanEvent::begin(SpanKind::Profile, 0),
            SpanEvent::begin(SpanKind::BgAnalysis, 10),
            SpanEvent::end(SpanKind::Profile, 20),
            SpanEvent::begin(SpanKind::Hibernate, 20),
            SpanEvent::end(SpanKind::BgAnalysis, 30),
            SpanEvent::end(SpanKind::Hibernate, 40),
        ]);
        validate_nesting(&records).unwrap();
        let json = chrome_trace_json(&records);
        let doc = serde_json::parse_value_str(&json).unwrap();
        validate_chrome_trace(&doc).unwrap();
    }

    #[test]
    fn overlap_on_one_lane_is_rejected() {
        // Analyze closed while ImageEdit is the innermost open span on
        // the same lane: a true nesting violation.
        let records = rec_with(&[
            SpanEvent::begin(SpanKind::Analyze, 0),
            SpanEvent::begin(SpanKind::ImageEdit, 1),
            SpanEvent::end(SpanKind::Analyze, 2),
        ]);
        match validate_nesting(&records) {
            Err(NestingError::Mismatched { open, close, .. }) => {
                assert_eq!(open, "image_edit");
                assert_eq!(close, "analyze");
            }
            other => panic!("expected mismatch, got {other:?}"),
        }
    }

    #[test]
    fn end_without_begin_is_rejected() {
        let records = rec_with(&[SpanEvent::end(SpanKind::Profile, 5)]);
        assert!(matches!(
            validate_nesting(&records),
            Err(NestingError::EndWithoutBegin { .. })
        ));
    }

    #[test]
    fn backwards_time_is_rejected() {
        let records = rec_with(&[
            SpanEvent::begin(SpanKind::Profile, 10),
            SpanEvent::end(SpanKind::Profile, 5),
        ]);
        assert!(matches!(
            validate_nesting(&records),
            Err(NestingError::BackwardsTime { .. })
        ));
    }

    #[test]
    fn open_spans_at_end_are_allowed() {
        let records = rec_with(&[
            SpanEvent::begin(SpanKind::Profile, 0),
            SpanEvent::instant(SpanKind::Crash, 7),
        ]);
        validate_nesting(&records).unwrap();
    }

    #[test]
    fn tracks_do_not_interfere() {
        let records = rec_with(&[
            SpanEvent::begin(SpanKind::ServeFrame, 0).on_track(1),
            SpanEvent::begin(SpanKind::ServeFrame, 1).on_track(2),
            SpanEvent::end(SpanKind::ServeFrame, 2).on_track(1),
            SpanEvent::end(SpanKind::ServeFrame, 3).on_track(2),
        ]);
        validate_nesting(&records).unwrap();
    }

    #[test]
    fn malformed_doc_is_reported() {
        let doc = serde_json::parse_value_str("{\"nope\": 1}").unwrap();
        assert!(matches!(
            validate_chrome_trace(&doc),
            Err(NestingError::Malformed(_))
        ));
    }
}
