//! Criterion bench: end-to-end executor throughput — full
//! profile → analyze → optimize → hibernate cycles over a synthetic
//! workload, per run mode.
//!
//! This is the wall-clock cost of the *simulation*, which bounds
//! experiment sizes (the simulated overheads are what the figure
//! binaries report). `dyn_pref_checkpointed` is `dyn_pref` capturing an
//! `HDSSNAP2` snapshot at every phase boundary: its gap to `dyn_pref`
//! is the capture cost.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hds_core::{OptimizerConfig, PrefetchPolicy, RunMode, SessionBuilder};
use hds_workloads::{SyntheticConfig, SyntheticWorkload, Workload};

fn workload() -> SyntheticWorkload {
    SyntheticWorkload::new(SyntheticConfig {
        total_refs: 150_000,
        ..SyntheticConfig::default()
    })
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("executor_modes");
    group.sample_size(10);
    let refs = workload().planned_refs();
    group.throughput(Throughput::Elements(refs));
    let dyn_pref = RunMode::Optimize(PrefetchPolicy::StreamTail);
    for (name, mode, checkpoints) in [
        ("baseline", RunMode::Baseline, false),
        ("profile", RunMode::Profile, false),
        ("analyze", RunMode::Analyze, false),
        // Injected checks and DFSM steps but no prefetches: its gap to
        // `analyze` is the per-reference injected-check lookup.
        (
            "optimize_none",
            RunMode::Optimize(PrefetchPolicy::None),
            false,
        ),
        ("dyn_pref", dyn_pref, false),
        ("dyn_pref_checkpointed", dyn_pref, true),
    ] {
        group.bench_with_input(BenchmarkId::new(name, refs), &mode, |b, &mode| {
            b.iter(|| {
                let mut config = OptimizerConfig::paper_scale();
                config.bursty = hds_bursty::BurstyConfig::new(1_350, 150, 4, 8);
                let mut w = workload();
                let procs = w.procedures();
                let builder = SessionBuilder::new(config).procedures(procs);
                let builder = if checkpoints {
                    builder.checkpoints()
                } else {
                    builder
                };
                builder.mode(mode).run(&mut w).total_cycles
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
