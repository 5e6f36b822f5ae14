//! Flight-recorder benchmark: tracing is free, faithful, and useful
//! when things go wrong. Writes `results/BENCH_trace.json`.
//!
//! Three claims, the first two asserted:
//!
//! 1. **bit-identity** — every benchmark run observed by a
//!    [`FlightRecorder`] produces the same `RunReport` and image
//!    digest as the same run under `NullObserver`; recording charges
//!    zero simulated cycles.
//! 2. **well-formed export** — the recorded span stream of every run
//!    nests per track/lane and its Perfetto/chrome-trace export parses
//!    back and re-validates.
//! 3. **overhead** — min-of-`--reps` wall clock, recorder on vs off,
//!    the two interleaved per rep so host-load drift cancels.
//!    The *disabled* half of the zero-cost claim (span sites compiled
//!    in, `NullObserver` attached) is type-level — `O::ENABLED` folds
//!    the sites away, enforced by the `observer_overhead` criterion
//!    bench and the ENABLED test in `hds-flight` — so the "off" runs
//!    here *are* the product default. What this bin measures is the
//!    cost of an *enabled* recorder; the percentage is recorded, not
//!    hard-asserted (wall clock is the host's, not ours), with the
//!    cross-benchmark aggregate as the headline since per-benchmark
//!    minima at smoke scale sit inside scheduler noise.
//!
//! The run ends by injecting a crash under the supervisor so the
//! recorder demonstrably leaves a `flightdump-*.json` black box naming
//! the phase that died.
//!
//! Run: `cargo run --release -p hds-bench --bin bench_trace`
//! (options: `--test-scale`, `--reps <n>` (default 5),
//! `--dump-dir <dir>` for the forced-crash flight dump).

use std::time::Instant;

use hds_bench::{arg_after, obj, parsed_arg, scale_field, scale_from_args, write_bench};
use hds_core::{config_fingerprint, OptimizerConfig, PrefetchPolicy, RunMode, SessionBuilder};
use hds_engine::{supervise, SupervisorPolicy};
use hds_flight::{perfetto, FlightRecorder};
use hds_guard::FaultPlan;
use hds_vulcan::{Event, Procedure};
use hds_workloads::{benchmark, Benchmark, Scale};
use serde::Value;

fn events_of(which: Benchmark, scale: Scale) -> (Vec<Event>, Vec<Procedure>) {
    let mut w = benchmark(which, scale);
    let procs = w.procedures();
    let mut events = Vec::new();
    while let Some(e) = w.next_event() {
        events.push(e);
    }
    (events, procs)
}

/// One full optimize run over pre-collected events; `recorder` of
/// `None` is the tracing-off baseline. Returns (report, digest, ns).
fn timed_run(
    config: &OptimizerConfig,
    events: &[Event],
    procs: &[Procedure],
    recorder: Option<&mut FlightRecorder>,
) -> (hds_core::RunReport, u64, u64) {
    let start = Instant::now();
    let builder = SessionBuilder::new(config.clone()).procedures(procs.to_vec());
    let mut session = match recorder {
        Some(rec) => {
            let mut s = builder
                .observer(rec)
                .optimize(PrefetchPolicy::StreamTail)
                .build();
            for e in events {
                s.on_event(*e);
            }
            let digest = s.image_digest();
            let report = s.finish("trace");
            return (
                report,
                digest,
                u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX),
            );
        }
        None => builder.optimize(PrefetchPolicy::StreamTail).build(),
    };
    for e in events {
        session.on_event(*e);
    }
    let digest = session.image_digest();
    let report = session.finish("trace");
    (
        report,
        digest,
        u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX),
    )
}

/// Supervised run under a crashy fault plan: sweeps seeds until one
/// schedule actually kills the session, so the recorder's dump-on-crash
/// path runs for real. Returns the dump's JSON value and path.
fn forced_crash_dump(config: &OptimizerConfig, dump_dir: &str) -> (Value, String) {
    let (events, procs) = events_of(Benchmark::Mcf, Scale::Test);
    for seed in 0..64u64 {
        let mut rec = FlightRecorder::new(1 << 12)
            .with_label("bench_trace")
            .with_dump_dir(dump_dir);
        let mut plan = FaultPlan::crashy(seed, 2);
        let outcome = supervise(
            config,
            RunMode::Optimize(PrefetchPolicy::StreamTail),
            &procs,
            &events,
            "bench_trace",
            SupervisorPolicy::default(),
            &mut rec,
            &mut plan,
        );
        assert!(outcome.report.is_some(), "budgeted chaos always completes");
        if outcome.restarts > 0 {
            let path = rec.dump_paths()[0].clone();
            let text = std::fs::read_to_string(&path).expect("dump file readable");
            let doc = serde_json::parse_value_str(&text).expect("dump parses as JSON");
            assert_eq!(doc.get("reason"), Some(&Value::Str("crash".into())));
            return (doc, path.display().to_string());
        }
    }
    panic!("no seed in the crash sweep ever restarted");
}

fn main() {
    let scale = scale_from_args();
    // Forced-crash flight dumps are scratch output, not results: keep
    // them out of the repo tree unless explicitly redirected.
    let dump_dir = arg_after("--dump-dir").unwrap_or_else(|| {
        std::env::temp_dir()
            .join("hds-bench-trace-dumps")
            .display()
            .to_string()
    });
    let reps: u32 = parsed_arg("--reps", 5);
    let config = match scale {
        Scale::Test => OptimizerConfig::test_scale(),
        Scale::Paper => OptimizerConfig::paper_scale(),
    };
    let mode = RunMode::Optimize(PrefetchPolicy::StreamTail);

    println!(
        "bench-trace: recorder on vs off, min of {reps} reps per benchmark ({:?} scale)",
        scale
    );
    let mut per_benchmark = Vec::new();
    let mut overhead_pct_max = f64::MIN;
    let (mut total_off_ns, mut total_on_ns) = (0u64, 0u64);
    for which in Benchmark::ALL {
        let (events, procs) = events_of(which, scale);
        // Interleave off/on pairs so slow host-load drift lands on both
        // sides of the comparison instead of reading as overhead.
        let mut off_ns = u64::MAX;
        let mut on_ns = u64::MAX;
        let mut off_outcome = None;
        let mut last_rec = None;
        for _ in 0..reps {
            let (report, digest, ns) = timed_run(&config, &events, &procs, None);
            off_ns = off_ns.min(ns);
            let mut rec = FlightRecorder::new(1 << 16).with_label(which.name());
            let (on_report, on_digest, ns) = timed_run(&config, &events, &procs, Some(&mut rec));
            on_ns = on_ns.min(ns);
            assert_eq!(on_report, report, "{which}: report diverged under tracing");
            assert_eq!(on_digest, digest, "{which}: image diverged under tracing");
            off_outcome = Some((report, digest));
            last_rec = Some(rec);
        }
        let (off_report, _off_digest) = off_outcome.expect("reps >= 1");
        let rec = last_rec.expect("reps >= 1");
        let records = rec.records();
        perfetto::validate_nesting(&records).expect("recorded spans nest");
        let doc = serde_json::parse_value_str(&perfetto::chrome_trace_json(&records))
            .expect("chrome trace parses");
        perfetto::validate_chrome_trace(&doc).expect("parsed chrome trace nests");

        total_off_ns += off_ns;
        total_on_ns += on_ns;
        #[allow(clippy::cast_precision_loss)]
        let overhead_pct = (on_ns as f64 / off_ns as f64 - 1.0) * 100.0;
        overhead_pct_max = overhead_pct_max.max(overhead_pct);
        #[allow(clippy::cast_precision_loss)]
        let (off_ms, on_ms) = (off_ns as f64 / 1e6, on_ns as f64 / 1e6);
        println!(
            "  {:<8} off {off_ms:8.2} ms  on {on_ms:8.2} ms  {overhead_pct:+6.2}%  \
             {} span records, bit-identical",
            which.name(),
            rec.total_recorded(),
        );
        per_benchmark.push(obj(vec![
            ("benchmark", Value::Str(which.name().to_string())),
            ("refs", Value::U64(off_report.refs)),
            ("wall_ms_off", Value::F64(off_ms)),
            ("wall_ms_on", Value::F64(on_ms)),
            ("overhead_pct", Value::F64(overhead_pct)),
            ("span_records", Value::U64(rec.total_recorded())),
            ("wrapped", Value::Bool(rec.wrapped())),
            ("bit_identical", Value::Bool(true)),
        ]));
    }
    #[allow(clippy::cast_precision_loss)]
    let overhead_pct_aggregate = (total_on_ns as f64 / total_off_ns as f64 - 1.0) * 100.0;
    println!(
        "  enabled-recorder overhead: {overhead_pct_aggregate:+.2}% aggregate \
         (per-benchmark max {overhead_pct_max:+.2}%); disabled tracing is type-level zero"
    );

    println!("bench-trace: forcing a supervised crash for the flight dump...");
    let (dump, dump_path) = forced_crash_dump(&config, &dump_dir);
    let dump_records = match dump.get("records") {
        Some(Value::Arr(a)) => a.len() as u64,
        _ => 0,
    };
    println!("  flight dump: {dump_path} ({dump_records} records, reason \"crash\")");

    write_bench(
        "trace",
        Some(config_fingerprint(&config, mode)),
        vec![
            scale_field(scale),
            ("reps", Value::U64(u64::from(reps))),
            ("bit_identical", Value::Bool(true)),
            ("overhead_pct_aggregate", Value::F64(overhead_pct_aggregate)),
            ("overhead_pct_max", Value::F64(overhead_pct_max)),
            ("per_benchmark", Value::Arr(per_benchmark)),
            (
                "flight_dump",
                obj(vec![
                    ("path", Value::Str(dump_path)),
                    ("reason", Value::Str("crash".to_string())),
                    ("records", Value::U64(dump_records)),
                ]),
            ),
        ],
    );
}
