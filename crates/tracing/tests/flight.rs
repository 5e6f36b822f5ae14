//! End-to-end flight-recorder tests: recording never perturbs a run,
//! real session traces nest, crashes leave parseable flight dumps that
//! name the crashed phase, and the ring survives wraparound under a
//! real workload.

use std::path::PathBuf;

use hds_core::{NullObserver, OptimizerConfig, PrefetchPolicy, RunMode, SessionBuilder};
use hds_engine::{supervise, SupervisorPolicy};
use hds_flight::{perfetto, DumpPolicy, FlightRecorder};
use hds_guard::{FaultPlan, FaultRates, NoFaults};
use hds_telemetry::Observer;
use hds_vulcan::{Event, Procedure, ProgramSource};
use hds_workloads::{SyntheticConfig, SyntheticWorkload, Workload};
use serde::Value;

fn events_of(total_refs: u64) -> (Vec<Event>, Vec<Procedure>) {
    let mut w = SyntheticWorkload::new(SyntheticConfig {
        total_refs,
        ..SyntheticConfig::default()
    });
    let procs = w.procedures();
    let mut events = Vec::new();
    while let Some(e) = w.next_event() {
        events.push(e);
    }
    (events, procs)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hds-flight-{}-{}", tag, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn recording_does_not_perturb_the_run() {
    let (events, procs) = events_of(60_000);
    let config = OptimizerConfig::test_scale();
    let mut base = SessionBuilder::new(config.clone())
        .procedures(procs.clone())
        .optimize(PrefetchPolicy::StreamTail)
        .build();
    for e in &events {
        base.on_event(*e);
    }
    let base_digest = base.image_digest();
    let base_report = base.finish("traced");
    let mut rec = FlightRecorder::new(1 << 14);
    let mut session = SessionBuilder::new(config)
        .procedures(procs)
        .observer(&mut rec)
        .optimize(PrefetchPolicy::StreamTail)
        .build();
    for e in &events {
        session.on_event(*e);
    }
    let traced_digest = session.image_digest();
    let traced_report = session.finish("traced");
    assert_eq!(traced_report, base_report, "report diverged under tracing");
    assert_eq!(traced_digest, base_digest, "image diverged under tracing");
    assert!(!rec.is_empty(), "an optimize run must record spans");
    assert!(!rec.wrapped(), "capacity was sized for the whole run");
    // The recorded span stream of a real run is well nested and its
    // export parses back.
    let records = rec.records();
    perfetto::validate_nesting(&records).expect("session spans nest");
    let doc = serde_json::parse_value_str(&perfetto::chrome_trace_json(&records))
        .expect("chrome trace parses");
    perfetto::validate_chrome_trace(&doc).expect("parsed chrome trace nests");
    assert!(
        records.iter().any(|r| r.name == "profile"),
        "profile spans present"
    );
    assert!(
        records.iter().any(|r| r.name == "analyze"),
        "analyze spans present"
    );
}

#[test]
fn null_observer_spans_compile_to_nothing() {
    // The zero-cost claim's type-level half: the span hook is gated on
    // the same ENABLED flag as every other emission site.
    const { assert!(!<NullObserver as Observer>::ENABLED) };
    const { assert!(<FlightRecorder as Observer>::ENABLED) };
}

#[test]
fn injected_crash_leaves_a_flight_dump_naming_the_phase() {
    let (events, procs) = events_of(60_000);
    let config = OptimizerConfig::test_scale();
    let dir = temp_dir("crash");
    // A seed sweep so at least one schedule crashes (mirrors the
    // engine's chaos suite); each crash dumps before the restart.
    let mut dumped = None;
    for seed in 0..24u64 {
        let mut rec = FlightRecorder::new(1 << 12)
            .with_label(format!("crash-seed-{seed}"))
            .with_dump_dir(&dir);
        let mut plan = FaultPlan::crashy(seed, 2);
        let outcome = supervise(
            &config,
            RunMode::Optimize(PrefetchPolicy::StreamTail),
            &procs,
            &events,
            "supervised",
            SupervisorPolicy::default(),
            &mut rec,
            &mut plan,
        );
        assert!(outcome.report.is_some(), "budgeted chaos always completes");
        if outcome.restarts > 0 {
            assert!(
                !rec.dump_paths().is_empty(),
                "seed {seed}: a crash must dump"
            );
            dumped = Some(rec.dump_paths()[0].clone());
            break;
        }
        assert!(rec.dump_paths().is_empty(), "no crash, no dump");
    }
    let path = dumped.expect("no seed in the sweep ever crashed");
    let text = std::fs::read_to_string(&path).expect("dump file readable");
    let doc = serde_json::parse_value_str(&text).expect("dump parses as JSON");
    assert_eq!(doc.get("reason"), Some(&Value::Str("crash".into())));
    let Some(Value::Arr(records)) = doc.get("records") else {
        panic!("dump has no records array");
    };
    assert!(!records.is_empty());
    // The final record is the crash instant; its `a` payload names the
    // kill point and the spans before it name the phase that died.
    let last = records.last().expect("non-empty");
    assert_eq!(last.get("name"), Some(&Value::Str("crash".into())));
    assert_eq!(last.get("ph"), Some(&Value::Str("i".into())));
    let crash_point = match last.get("a") {
        Some(Value::U64(a)) => *a,
        other => panic!("crash payload: {other:?}"),
    };
    assert!(crash_point <= 2, "crash point is a CrashPoint discriminant");
    let names: Vec<String> = records
        .iter()
        .filter_map(|r| match r.get("name") {
            Some(Value::Str(s)) => Some(s.clone()),
            _ => None,
        })
        .collect();
    assert!(
        names.iter().any(|n| n == "profile" || n == "hibernate"),
        "dump must show the phase timeline, got {names:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn circuit_breaker_dumps_on_gave_up() {
    let (events, procs) = events_of(50_000);
    let config = OptimizerConfig::test_scale();
    let dir = temp_dir("gaveup");
    let mut rec = FlightRecorder::new(1 << 12)
        .with_label("breaker")
        .with_dump_dir(&dir)
        // Isolate the give-up trigger: crashes alone don't dump here.
        .with_policy(DumpPolicy {
            on_crash: false,
            on_guard_trip: false,
            on_gave_up: true,
            on_restart: false,
        });
    let mut plan = FaultPlan::with_rates(
        7,
        FaultRates {
            crash_phase_boundary: 1000,
            ..FaultRates::quiet()
        },
    );
    let outcome = supervise(
        &config,
        RunMode::Optimize(PrefetchPolicy::StreamTail),
        &procs,
        &events,
        "supervised",
        SupervisorPolicy {
            backoff_base: 100,
            backoff_cap: 250,
            max_restarts: 2,
        },
        &mut rec,
        &mut plan,
    );
    assert!(outcome.gave_up);
    assert_eq!(rec.dump_paths().len(), 1, "exactly the give-up dump");
    let text = std::fs::read_to_string(&rec.dump_paths()[0]).expect("readable");
    let doc = serde_json::parse_value_str(&text).expect("parses");
    assert_eq!(doc.get("reason"), Some(&Value::Str("gave_up".into())));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wrapped_ring_under_a_real_run_keeps_the_newest_spans() {
    let (events, procs) = events_of(60_000);
    let config = OptimizerConfig::test_scale();
    let mut rec = FlightRecorder::new(16);
    let mut session = SessionBuilder::new(config)
        .procedures(procs)
        .observer(&mut rec)
        .optimize(PrefetchPolicy::StreamTail)
        .build();
    for e in &events {
        session.on_event(*e);
    }
    let _ = session.finish("wrap");
    assert!(rec.wrapped(), "16 slots cannot hold a full optimize run");
    assert_eq!(rec.len(), 16);
    let records = rec.records();
    // Chronological, dense sequence numbers, newest retained.
    for pair in records.windows(2) {
        assert_eq!(pair[1].seq, pair[0].seq + 1);
    }
    assert_eq!(
        records.last().expect("non-empty").seq,
        rec.total_recorded() - 1
    );
}

#[test]
fn cluster_instants_record_and_export() {
    // The router tier marks migrations / re-homes / owner restarts as
    // `SpanKind::Cluster` instants; they must ride the same ring and
    // Chrome-trace export as core spans without disturbing nesting.
    use hds_telemetry::events::{ClusterEventKind, SpanEvent, SpanKind, SpanPhase};
    let mut rec = FlightRecorder::new(1 << 8).with_label("cluster");
    for (i, kind) in [
        ClusterEventKind::Migrated,
        ClusterEventKind::Rehomed,
        ClusterEventKind::OwnerDead,
        ClusterEventKind::OwnerRestarted,
    ]
    .into_iter()
    .enumerate()
    {
        rec.span(&SpanEvent {
            kind: SpanKind::Cluster,
            phase: SpanPhase::Instant,
            at_cycle: i as u64 * 10,
            track: 0,
            a: kind.code(),
            b: i as u64,
        });
    }
    let records = rec.records();
    assert_eq!(records.len(), 4);
    assert!(records.iter().all(|r| r.name == "cluster"));
    perfetto::validate_nesting(&records).expect("instants never break nesting");
    let doc = serde_json::parse_value_str(&perfetto::chrome_trace_json(&records))
        .expect("chrome trace parses");
    perfetto::validate_chrome_trace(&doc).expect("parsed chrome trace nests");
    let Value::Obj(fields) = &doc else {
        panic!("chrome trace is an object")
    };
    let events = fields
        .iter()
        .find(|(k, _)| k == "traceEvents")
        .map(|(_, v)| v)
        .expect("traceEvents present");
    let Value::Arr(events) = events else {
        panic!("traceEvents is an array")
    };
    let cluster_marks = events
        .iter()
        .filter(|e| e.get("name") == Some(&Value::Str("cluster".into())))
        .count();
    assert_eq!(cluster_marks, 4, "every cluster instant exports");
}

#[test]
fn supervised_crash_free_trace_matches_bare_trace() {
    // Tracing through the supervisor adds only recovery instants, and a
    // crash-free supervised run's span stream still nests.
    let (events, procs) = events_of(40_000);
    let config = OptimizerConfig::test_scale();
    let mut rec = FlightRecorder::new(1 << 14);
    let outcome = supervise(
        &config,
        RunMode::Optimize(PrefetchPolicy::StreamTail),
        &procs,
        &events,
        "supervised",
        SupervisorPolicy::default(),
        &mut rec,
        &mut NoFaults,
    );
    assert!(outcome.report.is_some());
    perfetto::validate_nesting(&rec.records()).expect("supervised spans nest");
    assert!(
        rec.records().iter().any(|r| r.name == "snapshot"),
        "checkpointing instants recorded"
    );
}
