//! Parallel-runner smoke benchmark: sequential vs parallel wall-clock
//! for the Figure 11 matrix, plus the background-analysis worker-lag
//! profile, written to `results/BENCH_parallel.json`.
//!
//! Three claims are measured (and the first two asserted):
//!
//! 1. the parallel suite runner is **bit-identical** to the sequential
//!    one — same `RunReport`s, same telemetry record counts;
//! 2. fanning the matrix across workers gives a real wall-clock
//!    **speedup** (the acceptance bound is ≥2× with 4 workers);
//! 3. background-mode runs genuinely overlap analysis with execution:
//!    the worker-lag histogram is populated and every handoff is
//!    reconciled as applied or starved.
//!
//! Run: `cargo run --release -p hds-bench --bin bench_parallel`
//! (add `--test-scale` for the fast smoke run, `--workers N` to change
//! the parallel worker count).

use std::time::Instant;

use hds_bench::{obj, parsed_arg, scale_field, scale_from_args, write_bench};
use hds_core::{AnalysisConcurrency, OptimizerConfig, PrefetchPolicy, SessionBuilder};
use hds_engine::{fig11_matrix, run_suite, JobOutcome};
use hds_telemetry::MetricsRecorder;
use hds_workloads::{benchmark, Benchmark, Scale};
use serde::Value;

/// Times one full pass over the suite at the given worker count.
fn timed_suite(jobs: &[hds_engine::SuiteJob], workers: usize) -> (Vec<JobOutcome>, f64) {
    let start = Instant::now();
    let outcomes = run_suite(jobs, workers);
    (outcomes, start.elapsed().as_secs_f64() * 1_000.0)
}

/// One background-mode optimize run per benchmark, observed with a
/// [`MetricsRecorder`] so the worker-lag histogram is captured.
fn background_profile(scale: Scale, config: &OptimizerConfig) -> Value {
    let mut bg = config.clone();
    bg.concurrency = AnalysisConcurrency::Background;
    let mut handoffs = 0u64;
    let mut applied = 0u64;
    let mut starved = 0u64;
    let mut lag_count = 0u64;
    let mut lag_sum = 0u64;
    let mut per_bench = Vec::new();
    for which in Benchmark::ALL {
        let mut rec = MetricsRecorder::new();
        let mut w = benchmark(which, scale);
        let procs = w.procedures();
        let report = SessionBuilder::new(bg.clone())
            .procedures(procs)
            .observer(&mut rec)
            .optimize(PrefetchPolicy::StreamTail)
            .run(&mut *w);
        assert_eq!(
            report.worker.handoffs,
            report.worker.applied + report.worker.starved,
            "{which}: unreconciled background handoffs"
        );
        let lag = rec.worker_lag_cycles();
        handoffs += report.worker.handoffs;
        applied += report.worker.applied;
        starved += report.worker.starved;
        lag_count += lag.count();
        lag_sum += lag.sum();
        per_bench.push((
            which.name().to_string(),
            obj(vec![
                ("handoffs", Value::U64(report.worker.handoffs)),
                ("applied", Value::U64(report.worker.applied)),
                ("starved", Value::U64(report.worker.starved)),
                ("lag_mean_cycles", Value::F64(lag.mean())),
            ]),
        ));
    }
    assert!(lag_count > 0, "worker-lag histogram never populated");
    obj(vec![
        ("handoffs", Value::U64(handoffs)),
        ("applied", Value::U64(applied)),
        ("starved", Value::U64(starved)),
        ("lag_samples", Value::U64(lag_count)),
        (
            "lag_mean_cycles",
            Value::F64(if lag_count == 0 {
                0.0
            } else {
                lag_sum as f64 / lag_count as f64
            }),
        ),
        ("per_benchmark", Value::Obj(per_bench)),
    ])
}

fn main() {
    let scale = scale_from_args();
    let workers: usize = parsed_arg("--workers", 4);
    let config = match scale {
        Scale::Test => OptimizerConfig::test_scale(),
        Scale::Paper => OptimizerConfig::paper_scale(),
    };

    println!("Parallel suite runner: fig11 matrix, sequential vs {workers} workers");
    let jobs = fig11_matrix(scale, &config);
    let (seq, seq_ms) = timed_suite(&jobs, 1);
    println!("  sequential: {seq_ms:8.0} ms  ({} jobs)", jobs.len());
    let (par, par_ms) = timed_suite(&jobs, workers);
    let speedup = seq_ms / par_ms;
    let host_cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!("  parallel:   {par_ms:8.0} ms  ({speedup:.2}x speedup)");
    if host_cores < workers {
        // Speedup is bounded by the host: on a single core the
        // meaningful number is the coordination overhead (how close the
        // parallel pass stays to the sequential wall clock).
        println!(
            "  note: host has {host_cores} core(s) < {workers} workers; \
             coordination overhead {:+.1}%",
            (par_ms / seq_ms - 1.0) * 100.0
        );
    }

    let bit_identical = seq == par;
    assert!(bit_identical, "parallel outcomes diverged from sequential");
    println!("  bit-identical: yes ({} outcomes compared)", seq.len());

    println!("Background analysis overlap (one optimize run per benchmark):");
    let bg = background_profile(scale, &config);
    println!(
        "  handoffs {}, applied {}, starved {}, lag samples {}",
        bg.get("handoffs").map_or(0, as_u64),
        bg.get("applied").map_or(0, as_u64),
        bg.get("starved").map_or(0, as_u64),
        bg.get("lag_samples").map_or(0, as_u64),
    );

    // Multi-mode matrix: no single config fingerprint applies.
    write_bench(
        "parallel",
        None,
        vec![
            scale_field(scale),
            ("jobs", Value::U64(jobs.len() as u64)),
            ("workers", Value::U64(workers as u64)),
            ("host_cores", Value::U64(host_cores as u64)),
            ("sequential_ms", Value::F64(seq_ms)),
            ("parallel_ms", Value::F64(par_ms)),
            ("speedup", Value::F64(speedup)),
            ("bit_identical", Value::Bool(bit_identical)),
            ("background", bg),
        ],
    );
}

fn as_u64(v: &Value) -> u64 {
    match v {
        Value::U64(n) => *n,
        _ => 0,
    }
}
