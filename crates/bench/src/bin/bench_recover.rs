//! Recovery benchmark: the cost and fidelity of crash-consistent
//! checkpointing and supervised restart, written to
//! `results/BENCH_recover.json`.
//!
//! Three claims are measured (and asserted):
//!
//! 1. **checkpointing is timing-neutral** — for every benchmark, a
//!    checkpointed run reports the same simulated cycle cost, cost
//!    breakdown, and memory behaviour as the plain run (only the
//!    `snapshots` counter differs);
//! 2. **recovery is bit-identical** — across a sweep of seeded kill
//!    schedules, every supervised lineage converges to its crash-free
//!    twin's report and image digest (restarts normalized);
//! 3. **recovery is bounded** — the modeled capped-exponential backoff
//!    totals are reported per sweep, alongside snapshot sizes and
//!    per-kill-point crash counts.
//!
//! Run: `cargo run --release -p hds-bench --bin bench_recover`
//! (options: `--schedules <n>`, default 60).

use hds_bench::{obj, parsed_arg, scale_field, write_bench};
use hds_core::{
    AccuracyConfig, AnalysisConcurrency, FaultPlan, GuardConfig, OptimizerConfig, PrefetchPolicy,
    RunMode, RunReport, SessionBuilder, Snapshot,
};
use hds_engine::{supervise, SupervisorPolicy};
use hds_telemetry::MetricsRecorder;
use hds_vulcan::{Event, Procedure};
use hds_workloads::{benchmark, Benchmark, Scale};
use serde::Value;

fn events_of(which: Benchmark) -> (Vec<Event>, Vec<Procedure>) {
    let mut w = benchmark(which, Scale::Test);
    let procs = w.procedures();
    let mut events = Vec::new();
    while let Some(e) = w.next_event() {
        events.push(e);
    }
    (events, procs)
}

fn config_for(seed: u64) -> OptimizerConfig {
    let mut config = OptimizerConfig::test_scale();
    if seed % 2 == 1 {
        config.concurrency = AnalysisConcurrency::Background;
        config.guard = GuardConfig::default().with_accuracy(AccuracyConfig::new());
    }
    config
}

/// Claim 1: a checkpointed run costs exactly what the plain run costs.
/// Returns (max, mean) snapshot size over the suite as a side product.
fn measure_checkpoint_neutrality() -> (u64, f64) {
    let config = OptimizerConfig::test_scale();
    let mut max_bytes = 0u64;
    let mut sum_bytes = 0u64;
    let mut count = 0u64;
    for which in Benchmark::ALL {
        let (events, procs) = events_of(which);
        let run = |checkpoints: bool| -> (RunReport, u64) {
            let builder = SessionBuilder::new(config.clone()).procedures(procs.clone());
            let builder = if checkpoints {
                builder.checkpoints()
            } else {
                builder
            };
            let mut session = builder.optimize(PrefetchPolicy::StreamTail).build();
            for e in &events {
                session.on_event(*e);
            }
            let bytes = session.latest_snapshot().map_or(0, Snapshot::len) as u64;
            (session.finish("bench-recover"), bytes)
        };
        let (plain, _) = run(false);
        let (checked, bytes) = run(true);
        assert_eq!(
            plain.total_cycles, checked.total_cycles,
            "{which}: checkpointing cost cycles"
        );
        assert_eq!(
            plain.breakdown, checked.breakdown,
            "{which}: checkpointing moved cost"
        );
        assert_eq!(
            plain.mem, checked.mem,
            "{which}: checkpointing perturbed memory"
        );
        assert_eq!(plain.snapshots, 0);
        assert!(
            checked.snapshots > 0,
            "{which}: no boundary ever checkpointed"
        );
        max_bytes = max_bytes.max(bytes);
        sum_bytes += bytes;
        count += 1;
    }
    #[allow(clippy::cast_precision_loss)]
    (max_bytes, sum_bytes as f64 / count as f64)
}

struct SweepTotals {
    crashed_schedules: u64,
    crashes: u64,
    restarts: u64,
    snapshots: u64,
    backoff_total: u64,
    gave_ups: u64,
}

/// Claims 2 and 3: the supervised kill-schedule sweep. Panics (failing
/// the bench) if any lineage diverges from its crash-free twin.
fn sweep(schedules: u64) -> SweepTotals {
    let mut totals = SweepTotals {
        crashed_schedules: 0,
        crashes: 0,
        restarts: 0,
        snapshots: 0,
        backoff_total: 0,
        gave_ups: 0,
    };
    for seed in 0..schedules {
        let which = Benchmark::ALL[(seed % Benchmark::ALL.len() as u64) as usize];
        let config = config_for(seed);
        let (events, procs) = events_of(which);

        let mut twin_plan = FaultPlan::from_seed(seed);
        let mut twin_session = SessionBuilder::new(config.clone())
            .procedures(procs.clone())
            .faults(&mut twin_plan)
            .checkpoints()
            .optimize(PrefetchPolicy::StreamTail)
            .build();
        for e in &events {
            twin_session.on_event(*e);
        }
        let twin_digest = twin_session.image_digest();
        let twin = twin_session.finish("bench-recover");

        let mut plan = FaultPlan::crashy(seed, 3);
        let mut metrics = MetricsRecorder::new();
        let outcome = supervise(
            &config,
            RunMode::Optimize(PrefetchPolicy::StreamTail),
            &procs,
            &events,
            "bench-recover",
            SupervisorPolicy::default(),
            &mut metrics,
            &mut plan,
        );
        let report = outcome.report.expect("budgeted schedule completes");
        let mut normalized = report.clone();
        normalized.restarts = 0;
        assert_eq!(normalized, twin, "seed {seed}: lineage diverged from twin");
        assert_eq!(
            outcome.image_digest,
            Some(twin_digest),
            "seed {seed}: image diverged from twin"
        );
        totals.crashed_schedules += u64::from(outcome.restarts > 0);
        totals.crashes += u64::from(plan.crashes_fired());
        totals.restarts += report.restarts;
        totals.snapshots += report.snapshots;
        totals.backoff_total += outcome.backoff_total;
        totals.gave_ups += u64::from(outcome.gave_up);
    }
    totals
}

fn main() {
    let schedules: u64 = parsed_arg("--schedules", 60);

    println!(
        "bench-recover: checkpoint neutrality over {} benchmarks",
        Benchmark::ALL.len()
    );
    let (bytes_max, bytes_mean) = measure_checkpoint_neutrality();
    println!("  timing-neutral: yes (snapshot bytes: max {bytes_max}, mean {bytes_mean:.0})");

    println!("bench-recover: {schedules} supervised kill schedules");
    let totals = sweep(schedules);
    println!(
        "  {} schedules crashed; {} crashes, {} restarts, {} snapshots, backoff {} cycles",
        totals.crashed_schedules,
        totals.crashes,
        totals.restarts,
        totals.snapshots,
        totals.backoff_total
    );
    assert_eq!(
        totals.gave_ups, 0,
        "a budgeted schedule tripped the circuit breaker"
    );
    assert!(
        totals.restarts > 0,
        "no schedule ever restarted — the sweep exercised nothing"
    );

    // Kill-schedule sweep spans several configs: no one fingerprint.
    write_bench(
        "recover",
        None,
        vec![
            scale_field(Scale::Test),
            ("schedules", Value::U64(schedules)),
            ("crashed_schedules", Value::U64(totals.crashed_schedules)),
            ("crashes", Value::U64(totals.crashes)),
            ("restarts", Value::U64(totals.restarts)),
            ("snapshots", Value::U64(totals.snapshots)),
            ("gave_ups", Value::U64(totals.gave_ups)),
            ("backoff_total_cycles", Value::U64(totals.backoff_total)),
            ("bit_identical", Value::Bool(true)),
            (
                "checkpoint",
                obj(vec![
                    ("timing_neutral", Value::Bool(true)),
                    ("snapshot_bytes_max", Value::U64(bytes_max)),
                    ("snapshot_bytes_mean", Value::F64(bytes_mean)),
                ]),
            ),
        ],
    );
}
