//! Shared experiment-harness helpers for the figure/table binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the
//! paper's evaluation (see DESIGN.md's experiment index), or runs one
//! benchmark or chaos sweep. This library holds the common plumbing:
//! running a benchmark under a mode, command-line flags, plain-text
//! table formatting, and the one writer of `results/BENCH_*.json`
//! records.

use hds_core::{OptimizerConfig, RunMode, RunReport, SessionBuilder};
use hds_flight::RunMeta;
use hds_memsim::prefetcher::Prefetcher;
use hds_memsim::MemorySystem;
use hds_vulcan::Event;
use hds_workloads::{benchmark, Benchmark, Scale};
use serde::{Serialize, Value};

/// The value following `flag` in the process arguments
/// (`--flag value`), if the flag is present.
#[must_use]
pub fn arg_after(flag: &str) -> Option<String> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == flag {
            return args.next();
        }
    }
    None
}

/// The parsed value following `flag`, or `default` when the flag is
/// absent.
///
/// # Panics
///
/// Panics when the value does not parse.
#[must_use]
pub fn parsed_arg<T: std::str::FromStr>(flag: &str, default: T) -> T {
    arg_after(flag).map_or(default, |v| {
        v.parse()
            .unwrap_or_else(|_| panic!("{flag} takes a number, got {v:?}"))
    })
}

/// Parses the run scale from the process arguments: `--test-scale`
/// shrinks every run for smoke testing; the default is the experiment
/// scale.
#[must_use]
pub fn scale_from_args() -> Scale {
    if std::env::args().any(|a| a == "--test-scale") {
        Scale::Test
    } else {
        Scale::Paper
    }
}

/// Was `--json` passed? Binaries that support it print a JSON array of
/// the full [`RunReport`]s to stdout instead of (or after) the table.
#[must_use]
pub fn json_from_args() -> bool {
    std::env::args().any(|a| a == "--json")
}

/// Parses `--jsonl <path>` from the process arguments: the destination
/// for one self-describing JSON record per run report.
#[must_use]
pub fn jsonl_path_from_args() -> Option<std::path::PathBuf> {
    arg_after("--jsonl").map(std::path::PathBuf::from)
}

/// Parses `--trace-out <path>` from the process arguments: the
/// destination for a Perfetto/chrome-trace JSON export of the run's
/// flight-recorder spans.
#[must_use]
pub fn trace_out_path_from_args() -> Option<std::path::PathBuf> {
    arg_after("--trace-out").map(std::path::PathBuf::from)
}

/// A JSON object from `(field, value)` pairs, fields in order.
#[must_use]
pub fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// The `scale` field of a bench record: `"test"` or `"paper"`.
#[must_use]
pub fn scale_field(scale: Scale) -> (&'static str, Value) {
    let name = match scale {
        Scale::Test => "test",
        Scale::Paper => "paper",
    };
    ("scale", Value::Str(name.to_string()))
}

/// Writes one bench record to `results/BENCH_<name>.json` and prints
/// the path. The record is `record: "bench_<name>"`, then a
/// [`RunMeta`] provenance stamp, then `fields` in order. `fingerprint`
/// is the `config_fingerprint` of the one configuration every row ran
/// under, or `None` for a record that spans several.
///
/// # Panics
///
/// Panics if `results/` or the file cannot be written.
pub fn write_bench(name: &str, fingerprint: Option<u64>, fields: Vec<(&str, Value)>) {
    let mut record = vec![
        ("record", Value::Str(format!("bench_{name}"))),
        ("meta", RunMeta::capture(fingerprint).to_value()),
    ];
    record.extend(fields);
    let json = serde_json::to_string_pretty(&obj(record)).expect("bench records serialise");
    let path = format!("results/BENCH_{name}.json");
    std::fs::create_dir_all("results").expect("creating results directory");
    std::fs::write(&path, json + "\n").expect("writing results file");
    println!("wrote {path}");
}

/// Writes `reports` to `path` as JSONL: one self-describing object per
/// line, tagged with `record: "run_report"` and the producing binary's
/// name in `source`, followed by every [`RunReport`] field.
///
/// # Errors
///
/// Returns any I/O error from creating or writing the file.
pub fn write_reports_jsonl(
    path: &std::path::Path,
    source: &str,
    reports: &[RunReport],
) -> std::io::Result<()> {
    use std::io::Write as _;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for r in reports {
        let mut value = r.to_value();
        if let Value::Obj(fields) = &mut value {
            fields.insert(
                0,
                ("record".to_string(), Value::Str("run_report".to_string())),
            );
            fields.insert(1, ("source".to_string(), Value::Str(source.to_string())));
        }
        let line =
            serde_json::to_string(&value).map_err(|e| std::io::Error::other(e.to_string()))?;
        writeln!(out, "{line}")?;
    }
    out.flush()
}

/// Serialises run reports to pretty JSON (for `--json` output and for
/// piping experiment results into other tooling).
///
/// # Panics
///
/// Panics if serialisation fails, which it cannot for these plain data
/// types.
#[must_use]
pub fn reports_to_json(reports: &[RunReport]) -> String {
    serde_json::to_string_pretty(reports).expect("RunReport serialises infallibly")
}

/// Runs `which` at `scale` under `mode` with the given configuration.
#[must_use]
pub fn run(which: Benchmark, scale: Scale, mode: RunMode, config: &OptimizerConfig) -> RunReport {
    let mut w = benchmark(which, scale);
    let procs = w.procedures();
    SessionBuilder::new(config.clone())
        .procedures(procs)
        .mode(mode)
        .run(&mut *w)
}

/// Like [`run`], but with a [`hds_flight::FlightRecorder`] attached so
/// the run's span timeline lands in `recorder`. Recording charges zero
/// simulated cycles, so the report is bit-identical to [`run`]'s
/// (`bench_trace` enforces this; callers set the recorder's track base
/// between runs to keep consecutive timelines apart).
#[must_use]
pub fn run_traced(
    which: Benchmark,
    scale: Scale,
    mode: RunMode,
    config: &OptimizerConfig,
    recorder: &mut hds_flight::FlightRecorder,
) -> RunReport {
    let mut w = benchmark(which, scale);
    let procs = w.procedures();
    SessionBuilder::new(config.clone())
        .procedures(procs)
        .observer(recorder)
        .mode(mode)
        .run(&mut *w)
}

/// Runs a benchmark with a *hardware-style* prefetcher attached to every
/// demand access (no profiling, no injected code) — the related-work
/// baselines of §5.1. Returns total simulated cycles and the memory
/// statistics.
#[must_use]
pub fn run_with_hw_prefetcher(
    which: Benchmark,
    scale: Scale,
    config: &OptimizerConfig,
    prefetcher: &mut dyn Prefetcher,
) -> (u64, hds_memsim::MemStats) {
    let mut w = benchmark(which, scale);
    let cost = config.hierarchy.cost;
    let mut mem = MemorySystem::new(config.hierarchy.clone());
    let mut cycles = 0u64;
    while let Some(event) = w.next_event() {
        match event {
            Event::Work(n) => cycles += u64::from(n) * cost.work_cycles,
            Event::Access(r, kind) => {
                let res = mem.access_at(r.addr, kind, cycles);
                cycles += res.cycles;
                for addr in prefetcher.on_access(r, res.outcome) {
                    cycles += cost.prefetch_issue_cycles;
                    mem.prefetch_at(addr, cycles);
                }
            }
            Event::Prefetch(addr) => {
                cycles += cost.prefetch_issue_cycles;
                mem.prefetch_at(addr, cycles);
            }
            Event::Enter(_) | Event::Exit(_) | Event::BackEdge(_) | Event::Thread(_) => {}
        }
    }
    (cycles, *mem.stats())
}

/// Runs a benchmark behind Jouppi-style stream buffers \[17\] (no
/// profiling, no injected code; buffers checked on every L1 miss).
/// Returns total simulated cycles and the buffer statistics.
#[must_use]
pub fn run_with_stream_buffers(
    which: Benchmark,
    scale: Scale,
    config: &OptimizerConfig,
    buffers: usize,
    depth: usize,
) -> (u64, hds_memsim::StreamBufferStats) {
    let mut w = benchmark(which, scale);
    let cost = config.hierarchy.cost;
    let mut mem = hds_memsim::StreamBufferMemory::new(config.hierarchy.clone(), buffers, depth);
    let mut cycles = 0u64;
    while let Some(event) = w.next_event() {
        match event {
            Event::Work(n) => cycles += u64::from(n) * cost.work_cycles,
            Event::Access(r, kind) => {
                cycles += mem.access_at(r.addr, kind, cycles).cycles;
            }
            Event::Prefetch(_) => {
                // Hardware-baseline runs ignore software prefetch hints.
                cycles += cost.prefetch_issue_cycles;
            }
            Event::Enter(_) | Event::Exit(_) | Event::BackEdge(_) | Event::Thread(_) => {}
        }
    }
    (cycles, *mem.buffer_stats())
}

/// Formats a percentage with sign, one decimal.
#[must_use]
pub fn pct(v: f64) -> String {
    format!("{v:+.1}%")
}

/// Prints a plain-text table: header row plus aligned data rows.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let mut out = String::new();
        for (i, cell) in cells.iter().enumerate() {
            out.push_str(&format!("{:<w$}  ", cell, w = widths[i]));
        }
        println!("{}", out.trim_end());
    };
    line(&headers.iter().map(|s| (*s).to_string()).collect::<Vec<_>>());
    line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hds_core::PrefetchPolicy;

    #[test]
    fn run_smoke() {
        let config = OptimizerConfig::test_scale();
        let report = run(
            Benchmark::Vortex,
            Scale::Test,
            RunMode::Optimize(PrefetchPolicy::StreamTail),
            &config,
        );
        assert!(report.refs > 0);
        assert_eq!(report.name, "vortex");
    }

    #[test]
    fn hw_prefetcher_smoke() {
        let config = OptimizerConfig::test_scale();
        let mut p = hds_memsim::prefetcher::SequentialPrefetcher::new(32, 2);
        let (cycles, stats) =
            run_with_hw_prefetcher(Benchmark::Vortex, Scale::Test, &config, &mut p);
        assert!(cycles > 0);
        assert!(stats.prefetches_issued > 0);
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(5.04), "+5.0%");
        assert_eq!(pct(-19.0), "-19.0%");
    }

    #[test]
    fn jsonl_writer_emits_one_tagged_record_per_report() {
        let config = OptimizerConfig::test_scale();
        let report = run(Benchmark::Vortex, Scale::Test, RunMode::Baseline, &config);
        let path = std::env::temp_dir().join("hds-bench-jsonl-test.jsonl");
        write_reports_jsonl(&path, "unit-test", &[report.clone(), report]).expect("writing JSONL");
        let body = std::fs::read_to_string(&path).expect("reading back");
        let _ = std::fs::remove_file(&path);
        let lines: Vec<&str> = body.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            let v: serde::Value = serde_json::from_str(line).expect("valid JSON line");
            assert_eq!(
                v.get("record"),
                Some(&serde::Value::Str("run_report".into()))
            );
            assert_eq!(
                v.get("source"),
                Some(&serde::Value::Str("unit-test".into()))
            );
            assert!(v.get("total_cycles").is_some());
            assert!(v.get("mem").is_some());
        }
    }

    #[test]
    fn reports_round_trip_through_json() {
        let config = OptimizerConfig::test_scale();
        let report = run(Benchmark::Vortex, Scale::Test, RunMode::Baseline, &config);
        let json = reports_to_json(std::slice::from_ref(&report));
        let parsed: Vec<RunReport> = serde_json::from_str(&json).expect("valid JSON");
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].total_cycles, report.total_cycles);
        assert_eq!(parsed[0].mem, report.mem);
        assert_eq!(parsed[0].name, "vortex");
    }
}
