//! Criterion bench: end-to-end executor throughput — full
//! profile → analyze → optimize → hibernate cycles over a synthetic
//! workload, per run mode.
//!
//! This is the wall-clock cost of the *simulation*, which bounds
//! experiment sizes (the simulated overheads are what the figure
//! binaries report).

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
    for (name, mode) in [
        ("baseline", RunMode::Baseline),
        ("profile", RunMode::Profile),
        ("analyze", RunMode::Analyze),
        // Injected checks and DFSM steps but no prefetches: its gap to
        // `analyze` is the per-reference injected-check lookup.
        ("optimize_none", RunMode::Optimize(PrefetchPolicy::None)),
        ("dyn_pref", RunMode::Optimize(PrefetchPolicy::StreamTail)),
    ] {
        group.bench_with_input(BenchmarkId::new(name, refs), &mode, |b, &mode| {
            b.iter(|| {
                let mut config = OptimizerConfig::paper_scale();
                config.bursty = hds_bursty::BurstyConfig::new(1_350, 150, 4, 8);
                let mut w = workload();
                let procs = w.procedures();
                SessionBuilder::new(config)
                    .procedures(procs)
                    .mode(mode)
                    .run(&mut w)
                    .total_cycles
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
