//! The optimizer under seeded fault schedules.
//!
//! Runs the benchmark suite through the full optimize cycle while a
//! seeded [`FaultPlan`] corrupts traced references, truncates trace
//! bursts, fails binary edits mid-session, injects thread switches
//! around stop-the-world edits, and starves the analysis budget —
//! with budget guards and the accuracy-driven deoptimization policy
//! enabled on a rotating subset of schedules. Every schedule asserts:
//!
//! 1. **no panic**;
//! 2. **exact reconciliation** — the `MetricsRecorder` counters agree
//!    with the final `RunReport` (prefetches, cycles, outcome fates,
//!    guard trips, partial deopts);
//! 3. **graceful degradation** — when every edit fails, the optimize
//!    run costs exactly what the analyze-only configuration costs
//!    (nothing was ever installed, so nothing optimized-and-broken
//!    remains behind).
//!
//! The guards-off-is-free claim lands in `results/BENCH_guard.json`.

use hds_bench::write_bench;
use hds_core::{
    AccuracyConfig, FaultPlan, GuardConfig, OptimizerConfig, PrefetchPolicy, SessionBuilder,
};
use hds_telemetry::events::PrefetchFate;
use hds_telemetry::MetricsRecorder;
use hds_workloads::{benchmark, Benchmark, Scale};
use serde::{Serialize, Value};

use crate::{assert_exercised, reconcile, seed_sweep};

/// The guard configuration for schedule `seed`: a rotation over off,
/// generous (enabled but rarely binding), and tight (budgets small
/// enough to trip on real workloads), with the accuracy policy on for
/// every other enabled schedule.
fn guard_for(seed: u64) -> GuardConfig {
    let accuracy = AccuracyConfig {
        min_accuracy: 0.25,
        bad_windows: 2,
        min_samples: 4,
    };
    match seed % 4 {
        0 => GuardConfig::disabled(),
        // Generous budgets (installation always happens) plus a
        // deliberately unsatisfiable accuracy bar: forces the partial /
        // full deoptimization machinery to run on real workloads.
        1 => {
            let g = GuardConfig::disabled()
                .with_max_grammar_rules(100_000)
                .with_max_analysis_cycles(u64::MAX / 2)
                .with_max_dfsm_states(10_000)
                .with_max_prefetch_queue(10_000);
            g.with_accuracy(AccuracyConfig {
                min_accuracy: 1.1, // > 1.0: every sampled window is "bad"
                bad_windows: 1,
                min_samples: 1,
            })
        }
        2 => GuardConfig::disabled()
            .with_max_grammar_rules(64 + seed % 256)
            .with_max_dfsm_states(8 + seed % 64)
            .with_max_prefetch_queue(4 + seed % 32),
        _ => GuardConfig::disabled()
            .with_max_analysis_cycles(1 + seed % 100_000)
            .with_accuracy(accuracy),
    }
}

/// What one schedule did: faults fired, guard trips, partial deopts,
/// optimization cycles.
type Counts = [u64; 4];

/// One schedule: run `which` under the seed's fault plan and guard
/// configuration, then reconcile observer counters against the report.
fn run_schedule(seed: u64, which: Benchmark) -> (Counts, Vec<String>) {
    let mut config = OptimizerConfig::test_scale();
    config.guard = guard_for(seed);
    let mut plan = FaultPlan::from_seed(seed);
    let mut rec = MetricsRecorder::new();

    let mut w = benchmark(which, Scale::Test);
    let procs = w.procedures();
    let report = SessionBuilder::new(config)
        .procedures(procs)
        .observer(&mut rec)
        .faults(&mut plan)
        .optimize(PrefetchPolicy::StreamTail)
        .run(&mut *w);

    // A late prefetch increments both `prefetches_late` and
    // `prefetches_useful` in MemStats; each telemetry outcome carries
    // exactly one fate (same identity telemetry_demo checks).
    let useful_fates = report.mem.prefetches_useful - report.mem.prefetches_late;
    let mismatches = reconcile(&[
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
    ]);
    let counts = [
        plan.counts().total(),
        report.guard_trips,
        report.partial_deopts,
        report.cycles.len() as u64,
    ];
    (counts, mismatches)
}

/// The degradation invariant: with every edit failing (and the edit
/// session rolling back atomically each time), the optimize-mode run
/// must cost exactly what analyze-only mode costs.
fn assert_failed_edits_match_analyze(seed: u64, which: Benchmark) {
    let config = OptimizerConfig::test_scale();
    let mut w = benchmark(which, Scale::Test);
    let procs = w.procedures();
    let analyze = SessionBuilder::new(config.clone())
        .procedures(procs)
        .analyze()
        .run(&mut *w);

    let mut plan = FaultPlan::edits_always_fail(seed);
    let mut w = benchmark(which, Scale::Test);
    let procs = w.procedures();
    let faulted = SessionBuilder::new(config)
        .procedures(procs)
        .faults(&mut plan)
        .optimize(PrefetchPolicy::StreamTail)
        .run(&mut *w);

    assert!(
        plan.counts().failed_edits > 0,
        "[seed {seed}] {}: no edits were attempted",
        which.name()
    );
    assert_eq!(
        faulted.total_cycles,
        analyze.total_cycles,
        "[seed {seed}] {}: failed-edit run does not cost the analyze baseline",
        which.name()
    );
    assert_eq!(
        faulted.mem,
        analyze.mem,
        "[seed {seed}] {}: failed-edit run's memory behaviour diverged",
        which.name()
    );
    assert_eq!(faulted.breakdown.optimize, 0);
    assert_eq!(faulted.mem.prefetches_issued, 0);
}

/// The guards-off-is-free claim, as data: for every benchmark, the
/// default configuration (`GuardConfig::disabled()`) and a build of the
/// same run with guards *enabled but never binding* must report
/// identical cycle costs and memory behaviour.
fn write_guards_off_is_free() {
    #[derive(serde::Serialize)]
    struct Row {
        benchmark: &'static str,
        guards_off_total_cycles: u64,
        guards_on_untripped_total_cycles: u64,
        identical: bool,
        prefetches_issued: u64,
        l1_misses_off: u64,
        l1_misses_on: u64,
    }

    let untripped = || {
        GuardConfig::disabled()
            .with_max_grammar_rules(u64::MAX)
            .with_max_analysis_cycles(u64::MAX)
            .with_max_dfsm_states(u64::MAX)
            .with_max_prefetch_queue(u64::MAX)
    };

    let mut rows = Vec::new();
    for which in Benchmark::ALL {
        let config = OptimizerConfig::test_scale();
        let mut w = benchmark(which, Scale::Test);
        let procs = w.procedures();
        let off = SessionBuilder::new(config.clone())
            .procedures(procs)
            .optimize(PrefetchPolicy::StreamTail)
            .run(&mut *w);

        let mut guarded_config = config;
        guarded_config.guard = untripped();
        let mut w = benchmark(which, Scale::Test);
        let procs = w.procedures();
        let on = SessionBuilder::new(guarded_config)
            .procedures(procs)
            .optimize(PrefetchPolicy::StreamTail)
            .run(&mut *w);

        let identical = off.total_cycles == on.total_cycles
            && off.breakdown == on.breakdown
            && off.mem == on.mem;
        assert!(
            identical,
            "{}: guards-on-untripped run diverged from guards-off",
            which.name()
        );
        rows.push(Row {
            benchmark: which.name(),
            guards_off_total_cycles: off.total_cycles,
            guards_on_untripped_total_cycles: on.total_cycles,
            identical,
            prefetches_issued: off.mem.prefetches_issued,
            l1_misses_off: off.mem.l1_misses,
            l1_misses_on: on.mem.l1_misses,
        });
    }
    println!(
        "guards off == guards on but untripped on all {} benchmarks",
        rows.len()
    );
    // Guard rotation spans two configs: no one fingerprint applies.
    write_bench(
        "guard",
        None,
        vec![(
            "rows",
            Value::Arr(rows.iter().map(Serialize::to_value).collect()),
        )],
    );
}

pub fn sweep(schedules: u64) {
    println!("chaos: {schedules} seeded fault schedules over the benchmark suite");
    let totals = seed_sweep(schedules, run_schedule)
        .into_iter()
        .fold([0u64; 4], |acc, c| std::array::from_fn(|i| acc[i] + c[i]));

    // The degradation invariant across the whole suite (one seed each).
    for (i, which) in Benchmark::ALL.iter().enumerate() {
        assert_failed_edits_match_analyze(1_000 + i as u64, *which);
    }
    println!(
        "degradation: failed-edit runs match the analyze baseline on all {} benchmarks",
        Benchmark::ALL.len()
    );
    write_guards_off_is_free();

    let [faults, trips, partial_deopts, cycles] = totals;
    println!(
        "schedules {schedules}: {faults} faults fired, {trips} guard trips, \
         {partial_deopts} partial deopts, {cycles} optimization cycles"
    );
    assert_exercised("a fault", faults);
    println!("chaos: OK — no panics, exact reconciliation on every schedule");
}
