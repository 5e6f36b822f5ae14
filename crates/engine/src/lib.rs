//! The concurrency layer's suite runner: fans the benchmark matrix
//! (Figure 11, Table 2, chaos schedules) across cores with per-run
//! seeded determinism and a *stable merge*, so parallel results are
//! bit-identical to sequential ones.
//!
//! Determinism rests on three facts:
//!
//! 1. every job is self-contained — its own workload (seeded),
//!    configuration, observer, and fault plan, with no shared mutable
//!    state between jobs;
//! 2. the simulator is deterministic in simulated time (including
//!    [`hds_core::AnalysisConcurrency::Background`], whose install
//!    points are computed in simulated cycles, not wall clock);
//! 3. results land in index-addressed slots ([`parallel_map`]), so the
//!    merge order is the submission order regardless of which worker
//!    finishes first.
//!
//! Together these give the suite-level guarantee the determinism tests
//! assert: `run_suite(jobs, 1) == run_suite(jobs, N)` for any `N`,
//! compared field-for-field on every [`RunReport`] and on the JSONL
//! telemetry record count of every run.
//!
//! # Examples
//!
//! ```
//! use hds_core::OptimizerConfig;
//! use hds_engine::{fig11_matrix, run_suite};
//! use hds_workloads::Scale;
//!
//! let jobs = fig11_matrix(Scale::Test, &OptimizerConfig::test_scale());
//! let sequential = run_suite(&jobs, 1);
//! let parallel = run_suite(&jobs, 4);
//! assert_eq!(sequential, parallel);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod supervisor;

pub use supervisor::{supervise, SupervisedOutcome, SupervisorPolicy};

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use hds_core::{OptimizerConfig, PrefetchPolicy, RunMode, RunReport, SessionBuilder, WorkerStats};
use hds_guard::FaultPlan;
use hds_telemetry::JsonlSink;
use hds_workloads::{benchmark, Benchmark, Scale};

/// One self-contained run of the suite: a benchmark at a scale, under a
/// mode and configuration, with an optional seeded fault plan. Jobs
/// carry everything the run needs, so they can execute on any worker in
/// any order.
#[derive(Clone, Debug)]
pub struct SuiteJob {
    /// Display label, e.g. `vpr/Hds`.
    pub label: String,
    /// Which benchmark program.
    pub benchmark: Benchmark,
    /// Run length.
    pub scale: Scale,
    /// What machinery to run.
    pub mode: RunMode,
    /// The optimizer configuration for this run.
    pub config: OptimizerConfig,
    /// When set, the run executes under `FaultPlan::from_seed(seed)`
    /// (chaos jobs). Determinism holds because the plan's RNG is
    /// seeded per job.
    pub fault_seed: Option<u64>,
}

impl SuiteJob {
    /// A fault-free job with an auto-generated `bench/mode` label.
    #[must_use]
    pub fn new(which: Benchmark, scale: Scale, mode: RunMode, config: &OptimizerConfig) -> Self {
        let mode_label = match mode {
            RunMode::Baseline => "Baseline",
            RunMode::ChecksOnly => "Base",
            RunMode::Profile => "Prof",
            RunMode::Analyze => "Hds",
            RunMode::Optimize(p) => p.label(),
        };
        SuiteJob {
            label: format!("{}/{}", which.name(), mode_label),
            benchmark: which,
            scale,
            mode,
            config: config.clone(),
            fault_seed: None,
        }
    }
}

/// The result of one [`SuiteJob`]: the run report plus the run's
/// telemetry footprint. `PartialEq` compares everything — the
/// determinism tests' unit of comparison.
#[derive(Clone, Debug, PartialEq)]
pub struct JobOutcome {
    /// The job's label, copied through for stable reporting.
    pub label: String,
    /// The full run report (bit-compared across runner configurations).
    pub report: RunReport,
    /// JSONL telemetry records the run emitted.
    pub events: u64,
    /// Faults fired by the job's seeded plan (0 for fault-free jobs).
    pub faults_fired: u64,
}

/// Runs one job to completion. Every run gets a [`JsonlSink`] observer
/// over an in-memory buffer so the telemetry record count is part of
/// the outcome (observation is timing-neutral — the executor's
/// perturbation tests assert it).
#[must_use]
pub fn run_job(job: &SuiteJob) -> JobOutcome {
    let mut w = benchmark(job.benchmark, job.scale);
    let procs = w.procedures();
    let mut sink = JsonlSink::new(Vec::new());
    let builder = SessionBuilder::new(job.config.clone())
        .procedures(procs)
        .observer(&mut sink);
    let (report, faults_fired) = match job.fault_seed {
        Some(seed) => {
            let mut plan = FaultPlan::from_seed(seed);
            let report = builder.faults(&mut plan).mode(job.mode).run(&mut *w);
            (report, plan.counts().total())
        }
        None => (builder.mode(job.mode).run(&mut *w), 0),
    };
    JobOutcome {
        label: job.label.clone(),
        report,
        events: sink.records(),
        faults_fired,
    }
}

/// The Figure 11 matrix: every benchmark under Baseline, ChecksOnly
/// (*Base*), Profile (*Prof*) and Analyze (*Hds*) — 24 jobs.
#[must_use]
pub fn fig11_matrix(scale: Scale, config: &OptimizerConfig) -> Vec<SuiteJob> {
    let modes = [
        RunMode::Baseline,
        RunMode::ChecksOnly,
        RunMode::Profile,
        RunMode::Analyze,
    ];
    Benchmark::ALL
        .iter()
        .flat_map(|&b| modes.iter().map(move |&m| (b, m)))
        .map(|(b, m)| SuiteJob::new(b, scale, m, config))
        .collect()
}

/// The Table 2 matrix: every benchmark through the full optimize cycle
/// (*Dyn-pref*) — 6 jobs.
#[must_use]
pub fn table2_matrix(scale: Scale, config: &OptimizerConfig) -> Vec<SuiteJob> {
    Benchmark::ALL
        .iter()
        .map(|&b| {
            SuiteJob::new(
                b,
                scale,
                RunMode::Optimize(PrefetchPolicy::StreamTail),
                config,
            )
        })
        .collect()
}

/// Chaos jobs: `seeds` fault schedules rotating over the benchmark
/// suite, each optimizing under `FaultPlan::from_seed(seed)`.
#[must_use]
pub fn chaos_matrix(
    scale: Scale,
    config: &OptimizerConfig,
    seeds: std::ops::Range<u64>,
) -> Vec<SuiteJob> {
    seeds
        .map(|seed| {
            let which = Benchmark::ALL[(seed % Benchmark::ALL.len() as u64) as usize];
            let mut job = SuiteJob::new(
                which,
                scale,
                RunMode::Optimize(PrefetchPolicy::StreamTail),
                config,
            );
            job.label = format!("{}/chaos-{seed}", which.name());
            job.fault_seed = Some(seed);
            job
        })
        .collect()
}

/// Runs the whole suite. `workers == 1` executes strictly sequentially
/// on the calling thread; `workers > 1` fans out over a shared work
/// queue with results merged in submission order. Both paths produce
/// identical output (the determinism tests compare them directly).
#[must_use]
pub fn run_suite(jobs: &[SuiteJob], workers: usize) -> Vec<JobOutcome> {
    parallel_map(jobs, workers, run_job)
}

/// Aggregates background-analysis worker statistics over a set of
/// outcomes (all zeros when every job ran inline).
#[must_use]
pub fn aggregate_worker_stats(outcomes: &[JobOutcome]) -> WorkerStats {
    outcomes
        .iter()
        .fold(WorkerStats::default(), |acc, o| WorkerStats {
            handoffs: acc.handoffs + o.report.worker.handoffs,
            applied: acc.applied + o.report.worker.applied,
            starved: acc.starved + o.report.worker.starved,
        })
}

/// Applies `f` to every item, fanning the work over up to `workers`
/// threads, and returns results in *item order* (stable merge: each
/// result is written to the slot of its input index, so completion
/// order never shows).
///
/// `workers <= 1` (or a single item) degenerates to a plain sequential
/// map with no threads spawned.
///
/// # Panics
///
/// Propagates a panic from `f` (the scope join re-raises it).
pub fn parallel_map<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = workers.clamp(1, items.len().max(1));
    if workers == 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = (0..items.len()).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let result = f(&items[i]);
                *slots[i].lock().expect("result slot poisoned") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("worker filled every claimed slot")
        })
        .collect()
}

/// Runs `f` once over every item with exclusive (`&mut`) access,
/// splitting the slice into at most `workers` contiguous chunks that
/// execute concurrently.
///
/// This is the in-place sibling of [`parallel_map`], built for owners
/// of stateful workers — e.g. `hds-serve` pumping its shard mailboxes,
/// where each shard owns live sessions that must be *mutated*, not
/// mapped. Chunking is deterministic (item `i` always lands in chunk
/// `i / ceil(len / workers)`), and because chunks are disjoint, no
/// locking is needed.
///
/// `workers <= 1` (or a single item) degenerates to a plain sequential
/// loop with no threads spawned.
///
/// # Panics
///
/// Propagates a panic from `f` (the scope join re-raises it).
pub fn parallel_for_each_mut<T, F>(items: &mut [T], workers: usize, f: F)
where
    T: Send,
    F: Fn(&mut T) + Sync,
{
    let workers = workers.clamp(1, items.len().max(1));
    if workers == 1 {
        for item in items.iter_mut() {
            f(item);
        }
        return;
    }
    let chunk = items.len().div_ceil(workers);
    let f = &f;
    std::thread::scope(|s| {
        for slice in items.chunks_mut(chunk) {
            s.spawn(move || {
                for item in slice {
                    f(item);
                }
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_item_order() {
        let items: Vec<u64> = (0..100).collect();
        let doubled = parallel_map(&items, 8, |&x| x * 2);
        assert_eq!(doubled, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_for_each_mut_touches_every_item_exactly_once() {
        let mut items: Vec<u64> = (0..100).collect();
        parallel_for_each_mut(&mut items, 8, |x| *x = *x * 2 + 1);
        assert_eq!(items, (0..100).map(|x| x * 2 + 1).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_for_each_mut_degenerate_cases() {
        let mut one = [7u64];
        parallel_for_each_mut(&mut one, 8, |x| *x += 1);
        assert_eq!(one, [8]);
        let mut empty: [u64; 0] = [];
        parallel_for_each_mut(&mut empty, 4, |_| unreachable!());
        let mut items: Vec<u64> = (0..10).collect();
        parallel_for_each_mut(&mut items, 0, |x| *x += 1);
        assert_eq!(items, (1..=10).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_for_each_mut_with_stateful_items() {
        // The serve use case in miniature: each "shard" drains its own
        // queue into its own tally, concurrently and without locks.
        struct Shard {
            queue: Vec<u64>,
            tally: u64,
        }
        let mut shards: Vec<Shard> = (0..6)
            .map(|i| Shard {
                queue: (0..=i).collect(),
                tally: 0,
            })
            .collect();
        parallel_for_each_mut(&mut shards, 3, |s| {
            s.tally = s.queue.drain(..).sum();
        });
        for (i, s) in shards.iter().enumerate() {
            assert!(s.queue.is_empty());
            assert_eq!(s.tally, (0..=i as u64).sum());
        }
    }

    #[test]
    fn parallel_map_sequential_degenerate_cases() {
        let items = [5u64];
        assert_eq!(parallel_map(&items, 8, |&x| x + 1), vec![6]);
        let empty: [u64; 0] = [];
        assert!(parallel_map(&empty, 4, |&x| x).is_empty());
        let items: Vec<u64> = (0..10).collect();
        assert_eq!(parallel_map(&items, 0, |&x| x), items);
    }

    #[test]
    fn matrices_have_expected_shapes() {
        let config = OptimizerConfig::test_scale();
        let fig11 = fig11_matrix(Scale::Test, &config);
        assert_eq!(fig11.len(), Benchmark::ALL.len() * 4);
        assert_eq!(fig11[0].label, "vpr/Baseline");
        assert_eq!(fig11[3].label, "vpr/Hds");
        let table2 = table2_matrix(Scale::Test, &config);
        assert_eq!(table2.len(), Benchmark::ALL.len());
        assert!(table2.iter().all(|j| j.fault_seed.is_none()));
        let chaos = chaos_matrix(Scale::Test, &config, 0..4);
        assert_eq!(chaos.len(), 4);
        assert!(chaos.iter().all(|j| j.fault_seed.is_some()));
        assert_eq!(chaos[2].fault_seed, Some(2));
    }

    #[test]
    fn run_job_smoke_and_chaos_fire_faults() {
        let config = OptimizerConfig::test_scale();
        let plain = run_job(&SuiteJob::new(
            Benchmark::Vortex,
            Scale::Test,
            RunMode::Optimize(PrefetchPolicy::StreamTail),
            &config,
        ));
        assert!(plain.report.refs > 0);
        assert!(plain.events > 0, "telemetry sink saw no events");
        assert_eq!(plain.faults_fired, 0);
        let chaos = &chaos_matrix(Scale::Test, &config, 3..4)[0];
        let faulted = run_job(chaos);
        assert!(faulted.faults_fired > 0, "seeded plan never fired");
    }
}
