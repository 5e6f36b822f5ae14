//! Prefetch-backend benchmark: runs every [`BackendKind`] through the
//! full online session path on a pointer-chasing workload and writes
//! per-backend throughput, accuracy/coverage/timeliness, and the
//! seeded A/B-split shares to `results/BENCH_prefetch.json`.
//!
//! Three claims are measured (the first two asserted):
//!
//! 1. **determinism** — every backend produces a bit-identical
//!    `RunReport` across two seeded runs;
//! 2. **A/B reproducibility** — a seeded split over the serving tier
//!    hands out the exact same per-tenant arms and shares on a rerun;
//! 3. per-backend **throughput** (workload events/s through the
//!    session) and prefetch quality: accuracy (useful / issued),
//!    coverage (would-be misses served by prefetched lines), and
//!    timeliness (fraction of prefetches that arrived before the
//!    demand access).
//!
//! Run: `cargo run --release -p hds-bench --bin bench_prefetch`
//! (add `--test-scale` for the fast smoke run).

use std::time::Instant;

use hds_backend::{BackendKind, BackendSelect};
use hds_bench::{obj, run, scale_field, scale_from_args, write_bench};
use hds_core::{config_fingerprint, OptimizerConfig, PrefetchPolicy, RunMode};
use hds_memsim::MemStats;
use hds_serve::load::{generate, LoadConfig};
use hds_serve::{Frame, ServeConfig, SessionManager};
use hds_telemetry::MetricsRecorder;
use hds_workloads::{Benchmark, Scale};
use serde::Value;

#[allow(clippy::cast_precision_loss)]
fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Fraction of would-be L1 misses served by a prefetched line.
fn coverage(m: &MemStats) -> f64 {
    ratio(
        m.l1_hits_on_prefetched,
        m.l1_hits_on_prefetched + m.l1_misses,
    )
}

/// Fraction of issued prefetches that completed before the demand
/// access needed them (1 − late rate).
fn timeliness(m: &MemStats) -> f64 {
    if m.prefetches_issued == 0 {
        0.0
    } else {
        1.0 - ratio(m.prefetches_late, m.prefetches_issued)
    }
}

/// Drives the seeded A/B load through a fresh manager; returns the
/// per-tenant assignment and the per-backend open shares.
fn ab_run(
    config: &OptimizerConfig,
    mode: RunMode,
    loads: &[hds_serve::load::TenantLoad],
    seed: u64,
) -> (Vec<(String, u8)>, [u64; 3]) {
    let cfg = ServeConfig::new(config.clone(), mode)
        .with_shards(2)
        .with_workers(2)
        .with_ab_split(
            seed,
            vec![
                (BackendKind::DynPref, 2),
                (BackendKind::Pangloss, 1),
                (BackendKind::Triangel, 1),
            ],
        );
    let mut manager =
        SessionManager::with_observer(cfg, MetricsRecorder::new()).expect("valid config");
    manager.handle(Frame::Hello {
        token: String::new(),
        features: 0,
        backend: None,
        version: hds_serve::WIRE_VERSION,
    });
    for l in loads {
        manager.handle(Frame::OpenSession {
            tenant: l.name.clone(),
            procedures: l.procedures.clone(),
        });
    }
    manager.pump();
    let assignment = loads
        .iter()
        .map(|l| {
            (
                l.name.clone(),
                manager
                    .backend_of(&l.name)
                    .expect("tenant opened")
                    .wire_code(),
            )
        })
        .collect();
    let report = manager.report();
    report
        .reconciles(manager.observer())
        .expect("serve telemetry reconciles");
    (assignment, report.opened_by_backend)
}

fn main() {
    let scale = scale_from_args();
    let config = match scale {
        Scale::Test => OptimizerConfig::test_scale(),
        Scale::Paper => OptimizerConfig::paper_scale(),
    };
    let bench = Benchmark::Mcf;
    let mode = RunMode::Optimize(PrefetchPolicy::StreamTail);

    println!("Prefetch backends on {bench} ({scale:?} scale)");
    let base = run(bench, scale, RunMode::Baseline, &config);
    let mut per_backend = Vec::new();
    for kind in BackendKind::ALL {
        let mut cfg = config.clone();
        cfg.backend = BackendSelect::default_for(kind);
        let start = Instant::now();
        let report = run(bench, scale, mode, &cfg);
        let elapsed = start.elapsed().as_secs_f64();
        let again = run(bench, scale, mode, &cfg);
        assert_eq!(report, again, "{kind:?} run is not deterministic");
        #[allow(clippy::cast_precision_loss)]
        let events_per_s = report.refs as f64 / elapsed.max(1e-9);
        let m = &report.mem;
        println!(
            "  {:<9} {events_per_s:>10.0} refs/s  overhead {:+6.1}%  acc {:4.1}%  cov {:4.1}%  timely {:4.1}%",
            kind.label(),
            report.overhead_vs(&base),
            m.prefetch_accuracy() * 100.0,
            coverage(m) * 100.0,
            timeliness(m) * 100.0,
        );
        per_backend.push(obj(vec![
            ("backend", Value::Str(kind.label().to_string())),
            ("wire_code", Value::U64(u64::from(kind.wire_code()))),
            ("events_per_s", Value::F64(events_per_s)),
            ("overhead_pct", Value::F64(report.overhead_vs(&base))),
            ("accuracy", Value::F64(m.prefetch_accuracy())),
            ("coverage", Value::F64(coverage(m))),
            ("timeliness", Value::F64(timeliness(m))),
            ("prefetches_issued", Value::U64(m.prefetches_issued)),
            ("deterministic", Value::Bool(true)),
        ]));
    }

    // Seeded A/B split over the serving tier: same seed → same
    // per-tenant arms and the same shares, on every rerun.
    let serve_config = {
        let mut c = OptimizerConfig::test_scale();
        c.bursty = hds_bursty::BurstyConfig::new(8, 8, 2, 3);
        c.analysis.min_length = 4;
        c.analysis.min_unique_refs = 2;
        c
    };
    let load_cfg = LoadConfig {
        tenants: match scale {
            Scale::Test => 8,
            Scale::Paper => 24,
        },
        chunks_per_tenant: 2,
        events_per_chunk: 200,
        seed: 42,
    };
    let loads = generate(&load_cfg).expect("load config is non-degenerate");
    let ab_seed = 7u64;
    let (assignment, shares) = ab_run(&serve_config, mode, &loads, ab_seed);
    let (assignment_again, shares_again) = ab_run(&serve_config, mode, &loads, ab_seed);
    let reproducible = assignment == assignment_again && shares == shares_again;
    assert!(reproducible, "A/B split did not reproduce across reruns");
    assert_eq!(shares.iter().sum::<u64>(), loads.len() as u64);
    println!(
        "  A/B split (seed {ab_seed}): shares Dyn-pref {} / Pangloss {} / Triangel {} over {} tenants, reproducible",
        shares[0],
        shares[1],
        shares[2],
        loads.len()
    );

    write_bench(
        "prefetch",
        Some(config_fingerprint(&config, mode)),
        vec![
            scale_field(scale),
            ("benchmark", Value::Str(bench.name().to_string())),
            ("per_backend", Value::Arr(per_backend)),
            (
                "ab",
                obj(vec![
                    ("seed", Value::U64(ab_seed)),
                    ("tenants", Value::U64(loads.len() as u64)),
                    (
                        "shares",
                        Value::Arr(shares.iter().map(|&n| Value::U64(n)).collect()),
                    ),
                    ("reproducible", Value::Bool(reproducible)),
                ]),
            ),
        ],
    );
}
