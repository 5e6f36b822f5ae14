//! Chaos coverage for the serving layer: shards killed mid-chunk by
//! [`CrashPoint::MidFrame`] faults must replay deterministically —
//! per-tenant reports stay bit-identical to standalone runs, two runs
//! with the same seed produce identical `ServeReport`s, and every
//! `Recovery*` counter reconciles exactly with telemetry.

use hds_core::{OptimizerConfig, PrefetchPolicy, RunMode};
use hds_serve::load::{generate, standalone_reference, LoadConfig, TenantLoad};
use hds_serve::{Frame, ServeConfig, ServeReport, SessionManager};
use hds_telemetry::MetricsRecorder;

fn tiny_config() -> OptimizerConfig {
    let mut c = OptimizerConfig::test_scale();
    c.bursty = hds_bursty::BurstyConfig::new(8, 8, 2, 3);
    c.analysis.min_length = 4;
    c.analysis.min_unique_refs = 2;
    c
}

fn mode() -> RunMode {
    RunMode::Optimize(PrefetchPolicy::StreamTail)
}

fn load() -> Vec<TenantLoad> {
    generate(&LoadConfig {
        tenants: 4,
        chunks_per_tenant: 6,
        events_per_chunk: 100,
        seed: 7,
    })
    .expect("valid load shape")
}

/// Serves the whole load through a 2-shard chaos-injected manager and
/// returns the final report plus the reconciliation result.
fn run_chaos(seed: u64, max_crashes: u32, loads: &[TenantLoad]) -> ServeReport {
    let cfg = ServeConfig::new(tiny_config(), mode())
        .with_shards(2)
        .with_workers(2)
        .with_chaos(seed, max_crashes);
    let mut manager = SessionManager::with_observer(cfg, MetricsRecorder::new()).unwrap();
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
    let rounds = loads.iter().map(|l| l.chunks.len()).max().unwrap_or(0);
    for round in 0..rounds {
        for l in loads {
            if let Some(chunk) = l.chunks.get(round) {
                let responses = manager.handle(Frame::TraceChunk {
                    seq: 0,
                    tenant: l.name.clone(),
                    events: chunk.clone().into(),
                });
                assert!(responses.is_empty(), "unexpected {responses:?}");
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
    let report = manager.report();
    report
        .reconciles(manager.observer())
        .expect("chaos telemetry reconciles");
    report
}

#[test]
fn mid_frame_crashes_replay_deterministically() {
    let loads = load();
    let refs: Vec<_> = loads
        .iter()
        .map(|l| standalone_reference(&tiny_config(), mode(), l))
        .collect();
    let mut total_restarts = 0;
    for seed in 0..6u64 {
        let report = run_chaos(seed, 8, &loads);
        total_restarts += report.restarts;
        assert_eq!(report.outcomes.len(), loads.len());
        for outcome in &report.outcomes {
            let idx = loads.iter().position(|l| l.name == outcome.tenant).unwrap();
            let (expected_report, expected_digest) = &refs[idx];
            assert_eq!(
                &outcome.report, expected_report,
                "seed {seed}: report diverged for {} after {} restarts",
                outcome.tenant, report.restarts
            );
            assert_eq!(
                outcome.image_digest, *expected_digest,
                "seed {seed}: digest diverged for {}",
                outcome.tenant
            );
        }
    }
    assert!(
        total_restarts > 0,
        "mid-frame fault plan never fired across the seed sweep"
    );
}

#[test]
fn same_seed_chaos_runs_are_identical() {
    let loads = load();
    let a = run_chaos(3, 8, &loads);
    let b = run_chaos(3, 8, &loads);
    assert_eq!(a, b, "same-seed chaos runs diverged");
}

#[test]
fn chaos_respects_the_crash_cap() {
    let loads = load();
    // A zero-crash cap means the fault plan is armed but never fires:
    // behaviour must equal the fault-free path.
    let capped = run_chaos(3, 0, &loads);
    assert_eq!(capped.restarts, 0);
    let refs: Vec<_> = loads
        .iter()
        .map(|l| standalone_reference(&tiny_config(), mode(), l))
        .collect();
    for outcome in &capped.outcomes {
        let idx = loads.iter().position(|l| l.name == outcome.tenant).unwrap();
        assert_eq!(&outcome.report, &refs[idx].0);
    }
}
