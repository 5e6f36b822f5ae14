//! Property tests for the Perfetto exporter: every legally-recorded
//! span stream exports to JSON that parses back and validates as
//! well-nested, and the validator itself never panics on arbitrary
//! input.

use hds_flight::{perfetto, Event, FlightRecorder, Observer, SpanEvent, SpanKind, SpanPhase};
use proptest::prelude::*;

/// One abstract step of a generated schedule.
#[derive(Clone, Debug)]
enum Step {
    /// Open a span of kind index `kind` on track `track`.
    Begin { kind: usize, track: u32 },
    /// Close the innermost open span on some (kind, track) lane —
    /// `pick` selects among the currently-open lanes.
    End { pick: usize },
    /// A discrete event.
    Instant { kind: usize, track: u32 },
}

/// Span kinds usable as Begin/End pairs (everything but the
/// instant-only Crash marker).
const PAIRED: [SpanKind; 9] = [
    SpanKind::Profile,
    SpanKind::Hibernate,
    SpanKind::Analyze,
    SpanKind::DfsmBuild,
    SpanKind::ImageEdit,
    SpanKind::BgAnalysis,
    SpanKind::ServeFrame,
    SpanKind::ShardPump,
    SpanKind::SequiturAppend,
];

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0..PAIRED.len(), 0u32..4).prop_map(|(kind, track)| Step::Begin { kind, track }),
        (0usize..64).prop_map(|pick| Step::End { pick }),
        (0..SpanKind::ALL.len(), 0u32..4).prop_map(|(kind, track)| Step::Instant { kind, track }),
    ]
}

/// Replays a schedule into a recorder, keeping per-(track, lane) stacks
/// so every `End` legally closes the innermost open span of its lane —
/// the discipline the instrumented session obeys by construction.
fn record_schedule(steps: &[Step]) -> FlightRecorder {
    let mut rec = FlightRecorder::new(4096);
    // Open lanes: (track, lane) -> stack of kinds.
    let mut open: Vec<((u32, u32), Vec<SpanKind>)> = Vec::new();
    let mut cycle: u64 = 0;
    for step in steps {
        cycle += 1;
        match step {
            Step::Begin { kind, track } => {
                let kind = PAIRED[*kind];
                let key = (*track, kind.lane());
                match open.iter_mut().find(|(k, _)| *k == key) {
                    Some((_, stack)) => stack.push(kind),
                    None => open.push((key, vec![kind])),
                }
                rec.on(&Event::Span(SpanEvent::begin(kind, cycle).on_track(*track)));
            }
            Step::End { pick } => {
                let lanes: Vec<usize> = open
                    .iter()
                    .enumerate()
                    .filter(|(_, (_, stack))| !stack.is_empty())
                    .map(|(i, _)| i)
                    .collect();
                if lanes.is_empty() {
                    continue;
                }
                let i = lanes[pick % lanes.len()];
                let ((track, _), stack) = &mut open[i];
                let kind = stack.pop().expect("lane was non-empty");
                rec.on(&Event::Span(SpanEvent::end(kind, cycle).on_track(*track)));
            }
            Step::Instant { kind, track } => {
                let kind = SpanKind::ALL[*kind];
                rec.on(&Event::Span(
                    SpanEvent::instant(kind, cycle).on_track(*track),
                ));
            }
        }
    }
    rec
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Any legal schedule's export parses back and is well nested —
    /// through the same text a human would load into Perfetto.
    #[test]
    fn legal_schedules_export_well_nested_json(
        steps in proptest::collection::vec(step_strategy(), 0..200)
    ) {
        let rec = record_schedule(&steps);
        let records = rec.records();
        perfetto::validate_nesting(&records).expect("legal schedule nests");
        let json = perfetto::chrome_trace_json(&records);
        let doc = serde_json::parse_value_str(&json).expect("export parses");
        perfetto::validate_chrome_trace(&doc).expect("parsed export nests");
        // Every record round-trips into exactly one traceEvent.
        let serde::Value::Arr(events) = doc.get("traceEvents").expect("traceEvents").clone()
        else {
            panic!("traceEvents is not an array");
        };
        prop_assert_eq!(events.len(), records.len());
    }

    /// The validator never panics, whatever the phase/order soup —
    /// it returns a verdict even on streams no legal emitter produces.
    #[test]
    fn validator_never_panics_on_arbitrary_streams(
        raw in proptest::collection::vec(
            (0..SpanKind::ALL.len(), 0u32..4, 0u64..1000, 0usize..3),
            0..120,
        )
    ) {
        let mut rec = FlightRecorder::new(256);
        for (kind, track, cycle, phase) in &raw {
            let kind = SpanKind::ALL[*kind];
            let ev = match phase {
                0 => SpanEvent::begin(kind, *cycle),
                1 => SpanEvent::end(kind, *cycle),
                _ => SpanEvent::instant(kind, *cycle),
            };
            rec.on(&Event::Span(ev.on_track(*track)));
        }
        let records = rec.records();
        let _ = perfetto::validate_nesting(&records);
        let json = perfetto::chrome_trace_json(&records);
        let doc = serde_json::parse_value_str(&json).expect("export always parses");
        let _ = perfetto::validate_chrome_trace(&doc);
    }

    /// `tid` packing keeps distinct (track, lane) pairs distinct.
    #[test]
    fn tid_packing_is_injective(a in 0u32..32, b in 0u32..32) {
        let mut rec = FlightRecorder::new(8);
        rec.on(&Event::Span(SpanEvent::instant(SpanKind::Crash, 0).on_track(a)));
        rec.on(&Event::Span(SpanEvent::begin(SpanKind::BgAnalysis, 0).on_track(b)));
        let records = rec.records();
        let same_identity = a == b
            && records[0].lane == records[1].lane;
        prop_assert_eq!(
            perfetto::tid_of(&records[0]) == perfetto::tid_of(&records[1]),
            same_identity
        );
    }
}

/// The validator flags a phase transition recorded out of order — the
/// regression shape a miswired emitter would produce.
#[test]
fn swapped_phase_transition_is_flagged() {
    let mut rec = FlightRecorder::new(8);
    rec.on(&Event::Span(SpanEvent::begin(SpanKind::Profile, 0)));
    rec.on(&Event::Span(SpanEvent::begin(SpanKind::Hibernate, 10)));
    rec.on(&Event::Span(SpanEvent::end(SpanKind::Profile, 10)));
    assert!(matches!(
        perfetto::validate_nesting(&rec.records()),
        Err(perfetto::NestingError::Mismatched { .. })
    ));
    let _ = SpanPhase::Begin; // referenced so the re-export stays covered
}
