//! The supervised optimizer under seeded kill schedules.
//!
//! Runs the benchmark suite through the full optimize cycle with
//! checkpointing on while a seeded [`FaultPlan::crashy`] schedule kills
//! the session at phase boundaries, mid-edit, and mid-handoff (on the
//! background-analysis schedules), and the `hds-engine` supervisor
//! restarts it from its last snapshot. Every schedule asserts:
//!
//! 1. **no panic**;
//! 2. **exact reconciliation** — the `MetricsRecorder`'s
//!    `RecoverySnapshot` / `RecoveryRestart` / `RecoveryReplay` counts
//!    agree with the final `RunReport`'s `snapshots` and `restarts`
//!    counters and with the supervisor's outcome;
//! 3. **bit-identical recovery** — with `restarts` normalized to 0,
//!    the recovered run's report *and* final image digest equal the
//!    crash-free checkpointed twin's (same seed, same in-simulation
//!    fault stream, no kill schedule).
//!
//! The sweep also asserts coverage: across the schedules, every
//! [`CrashPoint`] class the executor reaches fired at least once, and
//! at least one schedule actually restarted. A final regression pins
//! the fault-composition invariant: a crash landing inside an
//! already-injected failed edit rolls the edit back exactly once — the
//! supervised all-edits-fail run still degrades to the crash-free
//! all-edits-fail twin.

use hds_core::{
    AccuracyConfig, AnalysisConcurrency, CrashPoint, FaultInjector, FaultPlan, GuardConfig,
    OptimizerConfig, PrefetchPolicy, RunReport, SessionBuilder,
};
use hds_engine::{supervise, SupervisorPolicy};
use hds_guard::FaultRates;
use hds_telemetry::MetricsRecorder;
use hds_trace::DataRef;
use hds_vulcan::{EditError, Event, Procedure};
use hds_workloads::{benchmark, Benchmark, Scale};

use crate::{assert_exercised, reconcile, seed_sweep, MODE};

/// A [`FaultPlan`] wrapper that additionally counts which kill-point
/// class each fired crash came from, for the sweep's coverage
/// assertion.
struct TrackedPlan {
    inner: FaultPlan,
    fired: [u64; 4],
}

impl TrackedPlan {
    fn new(inner: FaultPlan) -> Self {
        TrackedPlan {
            inner,
            fired: [0; 4],
        }
    }
}

impl FaultInjector for TrackedPlan {
    fn corrupt_ref(&mut self, r: DataRef) -> DataRef {
        self.inner.corrupt_ref(r)
    }
    fn truncate_trace(&mut self) -> bool {
        self.inner.truncate_trace()
    }
    fn fail_edit(&mut self, pc: hds_trace::Pc) -> Option<EditError> {
        self.inner.fail_edit(pc)
    }
    fn edit_thread_switch(&mut self, threads: u32) -> Option<u32> {
        self.inner.edit_thread_switch(threads)
    }
    fn starve_analysis(&mut self) -> bool {
        self.inner.starve_analysis()
    }
    fn stall_worker(&mut self, base_cycles: u64) -> u64 {
        self.inner.stall_worker(base_cycles)
    }
    fn crash(&mut self, point: CrashPoint) -> bool {
        let fired = self.inner.crash(point);
        if fired {
            let idx = CrashPoint::ALL
                .iter()
                .position(|&p| p == point)
                .expect("CrashPoint::ALL is exhaustive");
            self.fired[idx] += 1;
        }
        fired
    }
    fn snapshot_state(&self) -> u64 {
        self.inner.snapshot_state()
    }
    fn restore_state(&mut self, state: u64) {
        self.inner.restore_state(state);
    }
}

/// The optimizer configuration for schedule `seed`: inline analysis on
/// even seeds; background analysis with the accuracy guard on odd seeds
/// (the only configuration whose handoffs expose the mid-handoff kill
/// point).
fn config_for(seed: u64) -> OptimizerConfig {
    let mut config = OptimizerConfig::test_scale();
    if seed % 2 == 1 {
        config.concurrency = AnalysisConcurrency::Background;
        config.guard = GuardConfig::default().with_accuracy(AccuracyConfig::new());
    }
    config
}

/// Drains a benchmark into a replayable event vector (plus procedures),
/// so crashed segments and their restarts consume the identical stream.
fn events_of(which: Benchmark) -> (Vec<Event>, Vec<Procedure>) {
    let mut w = benchmark(which, Scale::Test);
    let procs = w.procedures();
    let mut events = Vec::new();
    while let Some(e) = w.next_event() {
        events.push(e);
    }
    (events, procs)
}

/// The crash-free checkpointed twin: same config, same in-simulation
/// fault stream (`from_seed` and `crashy` share it), no kill schedule.
fn crash_free_twin(
    config: &OptimizerConfig,
    events: &[Event],
    procs: &[Procedure],
    seed: u64,
) -> (RunReport, u64) {
    let mut plan = FaultPlan::from_seed(seed);
    let mut session = SessionBuilder::new(config.clone())
        .procedures(procs.to_vec())
        .faults(&mut plan)
        .checkpoints()
        .optimize(PrefetchPolicy::StreamTail)
        .build();
    for e in events {
        session.on_event(*e);
    }
    let digest = session.image_digest();
    (session.finish("chaos-crash"), digest)
}

/// What one schedule did: crashes, restarts, snapshots, and kills per
/// [`CrashPoint`] class.
struct Counts {
    crashes: u64,
    restarts: u64,
    snapshots: u64,
    fired: [u64; 4],
}

/// One schedule: supervise `which` under the seed's kill schedule, then
/// reconcile telemetry against the report and compare bit-for-bit with
/// the crash-free twin.
fn run_schedule(seed: u64, which: Benchmark) -> (Counts, Vec<String>) {
    let config = config_for(seed);
    let (events, procs) = events_of(which);
    let (twin, twin_digest) = crash_free_twin(&config, &events, &procs, seed);

    let mut plan = TrackedPlan::new(FaultPlan::crashy(seed, 3));
    let mut metrics = MetricsRecorder::new();
    let outcome = supervise(
        &config,
        MODE,
        &procs,
        &events,
        "chaos-crash",
        SupervisorPolicy::default(),
        &mut metrics,
        &mut plan,
    );

    let Some(report) = outcome.report.as_ref() else {
        let counts = Counts {
            crashes: u64::from(plan.inner.crashes_fired()),
            restarts: u64::from(outcome.restarts),
            snapshots: 0,
            fired: plan.fired,
        };
        return (
            counts,
            vec!["supervisor gave up inside the crash budget".to_string()],
        );
    };

    // Exact reconciliation: observer counters vs report vs outcome.
    let mut mismatches = reconcile(&[
        ("snapshots", metrics.recovery_snapshots(), report.snapshots),
        ("restarts", metrics.recovery_restarts(), report.restarts),
        (
            "outcome restarts",
            u64::from(outcome.restarts),
            report.restarts,
        ),
        (
            "replays",
            metrics.recovery_replays(),
            u64::from(outcome.restarts),
        ),
    ]);

    // Bit-identical recovery: normalize the restart count (the only
    // field a crash lineage is allowed to differ in) and compare.
    let mut normalized = report.clone();
    normalized.restarts = 0;
    if normalized != twin {
        mismatches.push("recovered report diverged from the crash-free twin".to_string());
    }
    match outcome.image_digest {
        Some(digest) if digest != twin_digest => {
            mismatches.push(format!(
                "recovered image digest {digest:#018x} != twin {twin_digest:#018x}"
            ));
        }
        None => mismatches.push("completed outcome carried no image digest".to_string()),
        _ => {}
    }

    let counts = Counts {
        crashes: u64::from(plan.inner.crashes_fired()),
        restarts: report.restarts,
        snapshots: report.snapshots,
        fired: plan.fired,
    };
    (counts, mismatches)
}

/// The fault-composition regression: every edit fails *and* every
/// install crashes (budgeted). A crash landing inside an
/// already-injected failed edit must roll the edit back exactly once —
/// so the supervised lineage still converges to the crash-free
/// all-edits-fail twin, which in turn installs nothing.
fn assert_crash_inside_failed_edit_rolls_back_once(seed: u64, which: Benchmark) {
    let config = OptimizerConfig::test_scale();
    let (events, procs) = events_of(which);
    let rates = FaultRates {
        fail_edit: 1000,
        crash_mid_edit: 1000,
        ..FaultRates::quiet()
    };

    let mut crash_free = FaultPlan::with_rates(
        seed,
        FaultRates {
            crash_mid_edit: 0,
            ..rates
        },
    );
    let mut session = SessionBuilder::new(config.clone())
        .procedures(procs.clone())
        .faults(&mut crash_free)
        .checkpoints()
        .optimize(PrefetchPolicy::StreamTail)
        .build();
    for e in &events {
        session.on_event(*e);
    }
    let twin_digest = session.image_digest();
    let twin = session.finish("chaos-crash");

    let mut plan = FaultPlan::with_rates(seed, rates).with_max_crashes(2);
    let outcome = supervise(
        &config,
        MODE,
        &procs,
        &events,
        "chaos-crash",
        SupervisorPolicy::default(),
        &mut hds_core::NullObserver,
        &mut plan,
    );
    let report = outcome
        .report
        .expect("[seed {seed}] budgeted crash schedule completes");
    assert!(
        plan.crashes_fired() > 0,
        "[seed {seed}] {}: no mid-edit crash ever fired",
        which.name()
    );
    assert_eq!(
        outcome.image_digest,
        Some(twin_digest),
        "[seed {seed}] {}: a crashed failed edit left image residue",
        which.name()
    );
    let mut normalized = report;
    normalized.restarts = 0;
    assert_eq!(
        normalized,
        twin,
        "[seed {seed}] {}: crash-inside-failed-edit lineage diverged",
        which.name()
    );
    assert_eq!(normalized.mem.prefetches_issued, 0);
    assert_eq!(normalized.breakdown.optimize, 0);
}

pub fn sweep(schedules: u64) {
    println!("chaos-crash: {schedules} seeded kill schedules over the supervised optimizer");
    let (mut crashes, mut restarts, mut snapshots) = (0u64, 0u64, 0u64);
    let mut fired = [0u64; 4];
    for c in seed_sweep(schedules, run_schedule) {
        crashes += c.crashes;
        restarts += c.restarts;
        snapshots += c.snapshots;
        for (acc, n) in fired.iter_mut().zip(c.fired) {
            *acc += n;
        }
    }

    for (i, which) in Benchmark::ALL.iter().enumerate() {
        assert_crash_inside_failed_edit_rolls_back_once(2_000 + i as u64, *which);
    }
    println!(
        "composition: crash-inside-failed-edit rolls back once on all {} benchmarks",
        Benchmark::ALL.len()
    );

    println!(
        "schedules {schedules}: {crashes} crashes, {restarts} restarts, {snapshots} snapshots"
    );
    for (point, n) in CrashPoint::ALL.iter().zip(fired) {
        println!("  kill point {point}: {n} fired");
    }
    assert_exercised("a restart", restarts);
    for (point, n) in CrashPoint::ALL.iter().zip(fired) {
        // Mid-frame kills live in the serving layer's chunk pump, which
        // the single-process executor never reaches; the serve crate's
        // chaos_serve tests cover that class.
        if *point != CrashPoint::MidFrame {
            assert_exercised(format!("kill point {point}"), n);
        }
    }
    println!("chaos-crash: OK — every lineage recovered bit-identically");
}
