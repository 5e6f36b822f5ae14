//! Telemetry demo: drives one benchmark through the full optimizer
//! with every observer attached, live.
//!
//! While the run progresses, a table row is printed per completed
//! profile → analyze → optimize cycle. Afterwards the demo:
//!
//! 1. reconciles the `MetricsRecorder` counters against the final
//!    `RunReport` (they must agree *exactly* — the observer is a mirror
//!    of the run, not an approximation);
//! 2. prints per-stream prefetch accuracy / coverage / timeliness;
//! 3. dumps all metrics in Prometheus text exposition format, after
//!    re-parsing the dump to prove it is well-formed.
//!
//! Run: `cargo run --release -p hds-bench --bin telemetry_demo`
//! (options: `--test-scale`, `--benchmark <name>`, `--jsonl <path>` to
//! also stream one JSON record per telemetry event to a file,
//! `--trace-out <path>` to export the run's span timeline as
//! Perfetto/chrome-trace JSON).

use hds_bench::{
    arg_after, jsonl_path_from_args, print_table, scale_from_args, trace_out_path_from_args,
};
use hds_core::{GuardConfig, OptimizerConfig, PrefetchPolicy, SessionBuilder};
use hds_flight::{perfetto, FlightRecorder};
use hds_telemetry::events::{Event, PrefetchFate};
use hds_telemetry::{JsonlSink, MetricsRecorder, Observer};
use hds_workloads::{benchmark, Benchmark};

/// Prints one row per completed cycle, as the run progresses.
struct LiveTable;

impl Observer for LiveTable {
    fn on(&mut self, event: &Event) {
        match event {
            Event::CycleEnd(e) => println!(
                "{:>5}  {:>11}  {:>7}  {:>7}  {:>6}  {:>6}  {:>5}",
                e.opt_cycle,
                e.traced_refs,
                e.hot_streams,
                e.streams_used,
                e.dfsm_states,
                e.dfsm_checks,
                e.procs_modified,
            ),
            Event::PhaseTransition(e) => eprintln!(
                "  -> {:?} at cycle {} (duty cycle so far {:.3})",
                e.to, e.at_cycle, e.duty_cycle
            ),
            Event::GuardTripped(e) => eprintln!(
                "  !! guard {} tripped at cycle {}: observed {} > budget {}",
                e.guard.label(),
                e.at_cycle,
                e.observed,
                e.budget
            ),
            Event::Deoptimize(e) if e.partial => eprintln!(
                "  !! partial deopt at cycle {}: stream {:?} removed, rest keep prefetching",
                e.at_cycle, e.stream_id
            ),
            _ => {}
        }
    }
}

fn benchmark_from_args() -> Benchmark {
    let Some(name) = arg_after("--benchmark") else {
        return Benchmark::Mcf;
    };
    Benchmark::ALL
        .into_iter()
        .find(|b| b.name() == name)
        .unwrap_or_else(|| {
            eprintln!("unknown benchmark {name:?}; using mcf");
            Benchmark::Mcf
        })
}

/// Minimal Prometheus text-format validation: every sample line must be
/// `name[{labels}] value` with a parseable value. Returns the sample
/// count.
fn parse_prometheus(text: &str) -> Result<usize, String> {
    let mut samples = 0;
    for line in text.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (name_part, value_part) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("no value separator: {line:?}"))?;
        let metric = name_part.split('{').next().unwrap_or("");
        if metric.is_empty()
            || !metric
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        {
            return Err(format!("bad metric name in {line:?}"));
        }
        if name_part.contains('{') && !name_part.ends_with('}') {
            return Err(format!("unterminated label set in {line:?}"));
        }
        if value_part != "+Inf" && value_part.parse::<f64>().is_err() {
            return Err(format!("unparseable value in {line:?}"));
        }
        samples += 1;
    }
    Ok(samples)
}

fn main() {
    let scale = scale_from_args();
    let which = benchmark_from_args();
    // Paper-scale awake phases need paper-scale runs to complete; the
    // test-scale smoke run pairs the short workloads with quick cycles.
    let mut config = match scale {
        hds_workloads::Scale::Paper => OptimizerConfig::paper_scale(),
        _ => OptimizerConfig::test_scale(),
    };
    // `--guarded` turns on deliberately tight budget guards so the
    // GuardTripped telemetry shows up live (and in the Prometheus dump).
    if std::env::args().any(|a| a == "--guarded") {
        config.guard = GuardConfig::disabled()
            .with_max_grammar_rules(48)
            .with_max_dfsm_states(16)
            .with_max_prefetch_queue(8);
        println!("(guards on: tight grammar/DFSM/queue budgets)");
    }
    let jsonl_out: Box<dyn std::io::Write> = match jsonl_path_from_args() {
        Some(path) => Box::new(std::io::BufWriter::new(
            std::fs::File::create(&path).expect("creating --jsonl file"),
        )),
        None => Box::new(std::io::sink()),
    };

    println!(
        "telemetry demo: {} under Dyn-pref, live per-cycle view",
        which.name()
    );
    println!();
    println!(
        "{:>5}  {:>11}  {:>7}  {:>7}  {:>6}  {:>6}  {:>5}",
        "cycle", "traced refs", "hot str", "used", "states", "checks", "procs"
    );

    let mut rec = MetricsRecorder::new();
    let mut sink = JsonlSink::new(jsonl_out);
    // The flight recorder rides along unconditionally (recording costs
    // zero simulated cycles); the export is written only on request.
    let mut flight = FlightRecorder::new(1 << 16).with_label(which.name());
    let mut w = benchmark(which, scale);
    let procs = w.procedures();
    let report = SessionBuilder::new(config)
        .procedures(procs)
        .observer((((&mut rec, &mut sink), LiveTable), &mut flight))
        .optimize(PrefetchPolicy::StreamTail)
        .run(&mut *w);

    println!();
    println!("{report}");
    println!();

    // --- Reconciliation: observer counters vs the final report. ------
    // A late prefetch increments both `prefetches_late` and
    // `prefetches_useful` in MemStats; each telemetry outcome carries
    // exactly one fate, so the useful *fate* count is the difference.
    let useful_fates = report.mem.prefetches_useful - report.mem.prefetches_late;
    let checks: [(&str, u64, u64); 8] = [
        (
            "prefetches issued",
            rec.prefetches_issued(),
            report.mem.prefetches_issued,
        ),
        (
            "cycles completed",
            rec.cycles_completed(),
            report.cycles.len() as u64,
        ),
        (
            "traced refs",
            rec.traced_refs_total(),
            report.cycles.iter().map(|c| c.traced_refs).sum::<u64>(),
        ),
        (
            "useful outcomes",
            rec.outcomes(PrefetchFate::Useful),
            useful_fates,
        ),
        (
            "late outcomes",
            rec.outcomes(PrefetchFate::Late),
            report.mem.prefetches_late,
        ),
        (
            "polluted outcomes",
            rec.outcomes(PrefetchFate::Polluted),
            report.mem.prefetches_polluting,
        ),
        ("guard trips", rec.guard_trips_total(), report.guard_trips),
        (
            "partial deopts",
            rec.partial_deopts(),
            report.partial_deopts,
        ),
    ];
    let mut rows = Vec::new();
    let mut mismatches = 0;
    for (what, observed, reported) in checks {
        let ok = observed == reported;
        if !ok {
            mismatches += 1;
        }
        rows.push(vec![
            what.to_string(),
            observed.to_string(),
            reported.to_string(),
            if ok {
                "ok".to_string()
            } else {
                "MISMATCH".to_string()
            },
        ]);
    }
    print_table(&["counter", "observer", "report", "status"], &rows);
    assert_eq!(
        mismatches, 0,
        "telemetry does not reconcile with the report"
    );
    println!("reconciliation: all counters agree exactly");
    println!();

    // --- Per-stream prefetch quality. ---------------------------------
    let mut rows = Vec::new();
    for (id, m) in rec.per_stream() {
        rows.push(vec![
            if *id == hds_telemetry::events::PROGRAM_STREAM {
                "program".to_string()
            } else {
                id.to_string()
            },
            m.issued.to_string(),
            format!("{:.3}", m.accuracy()),
            format!("{:.3}", m.coverage()),
            format!("{:.3}", m.timeliness()),
        ]);
    }
    println!("per-stream prefetch quality (id is per-cycle):");
    print_table(
        &["stream", "issued", "accuracy", "coverage", "timeliness"],
        &rows,
    );
    println!();

    // --- Prometheus dump, parse-checked. -------------------------------
    let prom = rec.render_prometheus();
    match parse_prometheus(&prom) {
        Ok(n) => println!("# prometheus dump: {n} samples, parse OK"),
        Err(e) => panic!("prometheus dump is malformed: {e}"),
    }
    println!("{prom}");

    if let Some(path) = trace_out_path_from_args() {
        perfetto::write_chrome_trace(&path, &flight.records()).expect("writing --trace-out file");
        eprintln!(
            "trace: {} span records -> {}",
            flight.total_recorded(),
            path.display()
        );
    }

    let records = sink.records();
    let errors = sink.write_errors();
    drop(sink);
    if jsonl_path_from_args().is_some() {
        eprintln!("jsonl: {records} records written, {errors} write errors");
        assert!(
            records >= report.cycles.len() as u64,
            "fewer JSONL records than completed cycles"
        );
    }
}
