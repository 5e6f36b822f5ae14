//! Serving front-end benchmark: a seeded open-loop load generator
//! drives the sharded [`SessionManager`] at 1/2/8 shards and writes
//! throughput, shed rate, queue-depth quantiles, and the bit-identity
//! flag to `results/BENCH_serve.json`.
//!
//! Three claims are measured (the first asserted):
//!
//! 1. **bit-identity** — every tenant's `RunReport` and image digest
//!    out of the sharded server equals running that tenant alone
//!    through a standalone `SessionBuilder` session, at every shard
//!    count;
//! 2. per-shard-count **throughput** (events/s through handle+pump)
//!    and queue-depth p50/p99 from the serve telemetry histogram;
//! 3. **graceful shedding** — under a deliberately tight tenant-queue
//!    budget the server sheds typed frames instead of failing, and the
//!    shed counters reconcile exactly with telemetry.
//!
//! Run: `cargo run --release -p hds-bench --bin bench_serve`
//! (add `--test-scale` for the fast smoke run).

use std::time::Instant;

use hds_bench::{obj, scale_field, scale_from_args, write_bench};
use hds_core::{config_fingerprint, OptimizerConfig, PrefetchPolicy, RunMode};
use hds_guard::ServeBudgets;
use hds_serve::load::{generate, standalone_reference, LoadConfig, TenantLoad};
use hds_serve::{Frame, ServeConfig, SessionManager};
use hds_telemetry::{Histogram, MetricsRecorder};
use hds_workloads::Scale;
use serde::Value;

/// Approximate quantile from the log-bucketed histogram: the upper
/// bound of the first bucket whose cumulative count covers `q`.
fn quantile(h: &Histogram, q: f64) -> u64 {
    let total = h.count();
    if total == 0 {
        return 0;
    }
    #[allow(
        clippy::cast_precision_loss,
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss
    )]
    let target = (q * total as f64).ceil().max(1.0) as u64;
    for (bound, acc) in h.cumulative_buckets() {
        if acc >= target {
            return bound;
        }
    }
    u64::MAX
}

/// Streams the whole load through a manager: open all tenants, then
/// chunks round-robin with a pump per round, flush, and a final pump.
fn drive(manager: &mut SessionManager<MetricsRecorder>, loads: &[TenantLoad]) -> u64 {
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
    let mut shed = 0u64;
    let rounds = loads.iter().map(|l| l.chunks.len()).max().unwrap_or(0);
    for round in 0..rounds {
        for l in loads {
            if let Some(chunk) = l.chunks.get(round) {
                let responses = manager.handle(Frame::TraceChunk {
                    seq: 0,
                    tenant: l.name.clone(),
                    events: chunk.clone(),
                });
                shed += responses
                    .iter()
                    .filter(|f| matches!(f, Frame::Shed { .. }))
                    .count() as u64;
            }
        }
        manager.pump();
    }
    for l in loads {
        manager.handle(Frame::Flush {
            tenant: l.name.clone(),
        });
    }
    manager.pump();
    shed
}

fn main() {
    let scale = scale_from_args();
    let (config, load_cfg) = match scale {
        Scale::Test => {
            let mut c = OptimizerConfig::test_scale();
            c.bursty = hds_bursty::BurstyConfig::new(8, 8, 2, 3);
            c.analysis.min_length = 4;
            c.analysis.min_unique_refs = 2;
            (
                c,
                LoadConfig {
                    tenants: 6,
                    chunks_per_tenant: 4,
                    events_per_chunk: 200,
                    seed: 42,
                },
            )
        }
        Scale::Paper => (
            OptimizerConfig::test_scale(),
            LoadConfig {
                tenants: 16,
                chunks_per_tenant: 12,
                events_per_chunk: 4_000,
                seed: 42,
            },
        ),
    };
    let mode = RunMode::Optimize(PrefetchPolicy::StreamTail);
    let loads = generate(&load_cfg).expect("load config is non-degenerate");
    let total_events: u64 = loads.iter().map(|l| l.all_events().len() as u64).sum();

    println!(
        "Serving front-end: {} tenants x {} chunks ({} events total)",
        load_cfg.tenants, load_cfg.chunks_per_tenant, total_events
    );
    println!("  computing standalone references...");
    let refs: Vec<_> = loads
        .iter()
        .map(|l| standalone_reference(&config, mode, l))
        .collect();

    let mut per_shards = Vec::new();
    let mut all_identical = true;
    for shards in [1u32, 2, 8] {
        let cfg = ServeConfig::new(config.clone(), mode)
            .with_shards(shards)
            .with_workers(4);
        let mut manager =
            SessionManager::with_observer(cfg, MetricsRecorder::new()).expect("valid config");
        let start = Instant::now();
        let shed = drive(&mut manager, &loads);
        let elapsed = start.elapsed().as_secs_f64();
        assert_eq!(shed, 0, "untight budgets must never shed");
        let report = manager.report();
        report
            .reconciles(manager.observer())
            .expect("serve telemetry reconciles");
        let identical = report.outcomes.len() == loads.len()
            && report.outcomes.iter().all(|o| {
                let idx = loads.iter().position(|l| l.name == o.tenant).unwrap();
                o.report == refs[idx].0 && o.image_digest == refs[idx].1
            });
        assert!(
            identical,
            "{shards}-shard outcomes diverged from standalone"
        );
        all_identical &= identical;
        let depth = manager.observer().serve_queue_depth();
        #[allow(clippy::cast_precision_loss)]
        let throughput = total_events as f64 / elapsed.max(1e-9);
        println!(
            "  {shards} shard(s): {:8.0} events/s, evicted {}, queue p50 {} p99 {}",
            throughput,
            report.evicted,
            quantile(depth, 0.50),
            quantile(depth, 0.99),
        );
        per_shards.push(obj(vec![
            ("shards", Value::U64(u64::from(shards))),
            ("wall_s", Value::F64(elapsed)),
            ("events_per_s", Value::F64(throughput)),
            ("opened", Value::U64(report.opened)),
            ("evicted", Value::U64(report.evicted)),
            ("resumed", Value::U64(report.resumed)),
            ("queue_depth_p50", Value::U64(quantile(depth, 0.50))),
            ("queue_depth_p99", Value::U64(quantile(depth, 0.99))),
            ("bit_identical", Value::Bool(identical)),
        ]));
    }

    // Shed run: one queued chunk per tenant per pump window, so every
    // round-robin round with >1 chunk per tenant sheds the excess.
    let tight = ServeConfig::new(config.clone(), mode)
        .with_shards(2)
        .with_budgets(ServeBudgets::disabled().with_max_queued_chunks(1));
    let mut manager =
        SessionManager::with_observer(tight, MetricsRecorder::new()).expect("valid config");
    manager.handle(Frame::Hello {
        token: String::new(),
        features: 0,
        backend: None,
        version: hds_serve::WIRE_VERSION,
    });
    for l in &loads {
        manager.handle(Frame::OpenSession {
            tenant: l.name.clone(),
            procedures: l.procedures.clone(),
        });
    }
    let mut offered = 0u64;
    let mut shed = 0u64;
    // Offer every chunk in one pump window: only the first per tenant
    // is admitted, the rest shed typed frames.
    for l in &loads {
        for chunk in &l.chunks {
            offered += 1;
            let responses = manager.handle(Frame::TraceChunk {
                seq: 0,
                tenant: l.name.clone(),
                events: chunk.clone(),
            });
            shed += responses
                .iter()
                .filter(|f| matches!(f, Frame::Shed { .. }))
                .count() as u64;
        }
    }
    manager.pump();
    let shed_report = manager.report();
    shed_report
        .reconciles(manager.observer())
        .expect("shed telemetry reconciles");
    assert_eq!(shed_report.shed_total(), shed, "shed frames vs counter");
    assert!(shed > 0, "tight budget never shed");
    #[allow(clippy::cast_precision_loss)]
    let shed_rate = shed as f64 / offered as f64;
    println!(
        "  tight budget: {shed}/{offered} chunks shed ({:.0}% shed rate), typed frames only",
        shed_rate * 100.0
    );

    write_bench(
        "serve",
        Some(config_fingerprint(&config, mode)),
        vec![
            scale_field(scale),
            ("tenants", Value::U64(u64::from(load_cfg.tenants))),
            (
                "chunks_per_tenant",
                Value::U64(u64::from(load_cfg.chunks_per_tenant)),
            ),
            ("total_events", Value::U64(total_events)),
            ("sharded_eq_sequential", Value::Bool(all_identical)),
            ("per_shards", Value::Arr(per_shards)),
            (
                "shed",
                obj(vec![
                    ("offered_chunks", Value::U64(offered)),
                    ("shed_chunks", Value::U64(shed)),
                    ("shed_rate", Value::F64(shed_rate)),
                ]),
            ),
        ],
    );
}
