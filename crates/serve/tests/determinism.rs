//! The serving layer's headline guarantee: a tenant served through any
//! shard count, interleaving, and eviction schedule gets a `RunReport`
//! and image digest bit-identical to running alone through a
//! standalone checkpointed `SessionBuilder` session — and every serve
//! counter reconciles exactly with emitted telemetry.

use hds_core::{BackendKind, BackendSelect, OptimizerConfig, PrefetchPolicy, RunMode, RunReport};
use hds_guard::ServeBudgets;
use hds_serve::load::{generate, standalone_reference, LoadConfig, TenantLoad};
use hds_serve::{loopback, serve, Frame, ServeConfig, ServeConfigError, SessionManager, Transport};
use hds_telemetry::MetricsRecorder;
use std::collections::BTreeMap;

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
        tenants: 6,
        chunks_per_tenant: 4,
        events_per_chunk: 120,
        seed: 42,
    })
    .expect("valid load shape")
}

fn references(loads: &[TenantLoad]) -> BTreeMap<String, (RunReport, u64)> {
    loads
        .iter()
        .map(|l| {
            (
                l.name.clone(),
                standalone_reference(&tiny_config(), mode(), l),
            )
        })
        .collect()
}

/// Streams every tenant through the manager: open all, then chunks
/// round-robin with a pump between rounds (so tenants interleave on
/// shards), optionally evicting every tenant each round, then flush.
fn drive(
    manager: &mut SessionManager<MetricsRecorder>,
    loads: &[TenantLoad],
    evict_each_round: bool,
) {
    assert_eq!(
        manager.handle(Frame::Hello {
            token: String::new(),
            features: 0,
            backend: None,
            version: hds_serve::WIRE_VERSION
        }),
        vec![Frame::HelloAck {
            version: hds_serve::WIRE_VERSION,
            backend: None,
        }]
    );
    for l in loads {
        let responses = manager.handle(Frame::OpenSession {
            tenant: l.name.clone(),
            procedures: l.procedures.clone(),
        });
        assert!(responses.is_empty(), "unexpected {responses:?}");
    }
    manager.pump();
    let rounds = loads.iter().map(|l| l.chunks.len()).max().unwrap_or(0);
    for round in 0..rounds {
        for l in loads {
            if let Some(chunk) = l.chunks.get(round) {
                let responses = manager.handle(Frame::TraceChunk {
                    seq: 0,
                    tenant: l.name.clone(),
                    events: chunk.clone(),
                });
                assert!(responses.is_empty(), "unexpected {responses:?}");
            }
        }
        manager.pump();
        if evict_each_round {
            for l in loads {
                manager.handle(Frame::Evict {
                    tenant: l.name.clone(),
                });
            }
            manager.pump();
        }
    }
    for l in loads {
        manager.handle(Frame::Flush {
            tenant: l.name.clone(),
        });
    }
}

fn assert_outcomes_match(manager: &SessionManager<MetricsRecorder>, loads: &[TenantLoad]) {
    let refs = references(loads);
    let report = manager.report();
    assert_eq!(report.outcomes.len(), loads.len(), "missing tenant reports");
    for outcome in &report.outcomes {
        let (expected_report, expected_digest) = &refs[&outcome.tenant];
        assert_eq!(
            &outcome.report, expected_report,
            "report diverged for {}",
            outcome.tenant
        );
        assert_eq!(
            outcome.image_digest, *expected_digest,
            "image digest diverged for {}",
            outcome.tenant
        );
    }
    report
        .reconciles(manager.observer())
        .expect("telemetry reconciles");
}

#[test]
fn served_reports_match_standalone_across_shard_counts() {
    let loads = load();
    for shards in [1u32, 2, 8] {
        let cfg = ServeConfig::new(tiny_config(), mode())
            .with_shards(shards)
            .with_workers(4);
        let mut manager = SessionManager::with_observer(cfg, MetricsRecorder::new()).unwrap();
        drive(&mut manager, &loads, false);
        let responses = manager.pump();
        assert_eq!(
            responses
                .iter()
                .filter(|f| matches!(f, Frame::Report { .. }))
                .count(),
            loads.len()
        );
        assert_outcomes_match(&manager, &loads);
        // Byte-identity across shard counts only means something if
        // the tenants actually spread: at least two shards pumped.
        if shards > 1 {
            let busy = manager
                .observer()
                .serve_per_shard()
                .values()
                .filter(|&&(frames, _)| frames > 0)
                .count();
            assert!(
                busy >= 2,
                "{shards} shards but only {busy} pumped frames: {:?}",
                manager.observer().serve_per_shard()
            );
        }
    }
}

/// Every non-default backend serves bit-identically to a standalone
/// run of the same backend, across shard counts — including a
/// schedule that force-evicts and rehydrates every tenant each round,
/// which exercises the backend-state snapshot/restore path.
#[test]
fn per_backend_served_reports_match_standalone_across_shard_counts() {
    let loads = load();
    for kind in [BackendKind::Pangloss, BackendKind::Triangel] {
        let mut reference_cfg = tiny_config();
        reference_cfg.backend = BackendSelect::default_for(kind);
        let refs: BTreeMap<String, (RunReport, u64)> = loads
            .iter()
            .map(|l| {
                (
                    l.name.clone(),
                    standalone_reference(&reference_cfg, mode(), l),
                )
            })
            .collect();
        for (shards, evict_each_round) in [(1u32, false), (2, true), (8, true)] {
            let cfg = ServeConfig::new(tiny_config(), mode())
                .with_shards(shards)
                .with_workers(4)
                .with_backend(kind);
            let mut manager = SessionManager::with_observer(cfg, MetricsRecorder::new()).unwrap();
            drive(&mut manager, &loads, evict_each_round);
            manager.pump();
            let report = manager.report();
            assert_eq!(
                report.opened_by_backend[kind.wire_code() as usize],
                loads.len() as u64,
                "every tenant should open on {kind:?}"
            );
            if evict_each_round {
                assert!(report.evicted >= loads.len() as u64);
            }
            for outcome in &report.outcomes {
                let (expected_report, expected_digest) = &refs[&outcome.tenant];
                assert_eq!(
                    &outcome.report, expected_report,
                    "{kind:?} report diverged for {} at {shards} shards",
                    outcome.tenant
                );
                assert_eq!(outcome.image_digest, *expected_digest);
                assert_eq!(outcome.report.mode, kind.label());
            }
            report
                .reconciles(manager.observer())
                .expect("telemetry reconciles");
        }
    }
}

/// A seeded A/B split hands out the exact same per-tenant arm on every
/// rerun and at every shard count, and each tenant's report is
/// bit-identical to a standalone run of its assigned backend.
#[test]
fn seeded_ab_split_reproduces_assignment_and_reports() {
    let loads = load();
    let arms = vec![
        (BackendKind::DynPref, 2u32),
        (BackendKind::Pangloss, 1),
        (BackendKind::Triangel, 1),
    ];
    let assignments_at = |shards: u32| -> (BTreeMap<String, BackendKind>, [u64; 3]) {
        let cfg = ServeConfig::new(tiny_config(), mode())
            .with_shards(shards)
            .with_workers(4)
            .with_ab_split(7, arms.clone());
        let mut manager = SessionManager::with_observer(cfg, MetricsRecorder::new()).unwrap();
        drive(&mut manager, &loads, false);
        manager.pump();
        let report = manager.report();
        report
            .reconciles(manager.observer())
            .expect("telemetry reconciles");
        // Every tenant's report is bit-identical to a standalone run
        // of the backend its arm selected.
        for outcome in &report.outcomes {
            let kind = manager.backend_of(&outcome.tenant).expect("tenant opened");
            let mut reference_cfg = tiny_config();
            reference_cfg.backend = BackendSelect::default_for(kind);
            let load = loads.iter().find(|l| l.name == outcome.tenant).unwrap();
            let (expected_report, expected_digest) =
                standalone_reference(&reference_cfg, mode(), load);
            assert_eq!(outcome.report, expected_report);
            assert_eq!(outcome.image_digest, expected_digest);
        }
        (
            loads
                .iter()
                .map(|l| (l.name.clone(), manager.backend_of(&l.name).unwrap()))
                .collect(),
            report.opened_by_backend,
        )
    };
    let (first, shares) = assignments_at(1);
    assert_eq!(shares.iter().sum::<u64>(), loads.len() as u64);
    assert!(
        shares.iter().filter(|&&n| n > 0).count() >= 2,
        "split degenerated to one arm: {shares:?}"
    );
    // Same seed → same assignment, independent of sharding and rerun.
    for shards in [1u32, 2, 8] {
        let (again, shares_again) = assignments_at(shards);
        assert_eq!(first, again, "assignment changed at {shards} shards");
        assert_eq!(shares, shares_again);
    }
}

/// A backend requested in `Hello` wins over both the A/B split and
/// the default, and the grant is echoed in the `HelloAck`.
#[test]
fn hello_requested_backend_overrides_split() {
    let loads = load();
    let cfg = ServeConfig::new(tiny_config(), mode()).with_ab_split(
        7,
        vec![(BackendKind::DynPref, 1), (BackendKind::Pangloss, 1)],
    );
    let mut manager = SessionManager::with_observer(cfg, MetricsRecorder::new()).unwrap();
    let responses = manager.handle(Frame::Hello {
        token: String::new(),
        features: 0,
        backend: Some(BackendKind::Triangel),
        version: hds_serve::WIRE_VERSION,
    });
    assert_eq!(
        responses,
        vec![Frame::HelloAck {
            version: hds_serve::WIRE_VERSION,
            backend: Some(BackendKind::Triangel),
        }]
    );
    for l in &loads {
        manager.handle(Frame::OpenSession {
            tenant: l.name.clone(),
            procedures: l.procedures.clone(),
        });
        assert_eq!(manager.backend_of(&l.name), Some(BackendKind::Triangel));
    }
    let report = manager.report();
    assert_eq!(
        report.opened_by_backend[BackendKind::Triangel.wire_code() as usize],
        loads.len() as u64
    );
}

#[test]
fn forced_eviction_of_every_tenant_is_bit_identical() {
    let loads = load();
    let cfg = ServeConfig::new(tiny_config(), mode())
        .with_shards(8)
        .with_workers(4);
    let mut manager = SessionManager::with_observer(cfg, MetricsRecorder::new()).unwrap();
    drive(&mut manager, &loads, true);
    manager.pump();
    let report = manager.report();
    assert!(
        report.evicted >= loads.len() as u64,
        "evictions did not happen: {}",
        report.evicted
    );
    assert!(
        report.resumed >= loads.len() as u64,
        "rehydrations did not happen: {}",
        report.resumed
    );
    assert_outcomes_match(&manager, &loads);
}

#[test]
fn lru_pressure_evicts_and_stays_bit_identical() {
    let loads = load();
    let cfg = ServeConfig::new(tiny_config(), mode())
        .with_shards(2)
        .with_workers(2)
        .with_budgets(ServeBudgets::disabled().with_max_live_sessions(2));
    let mut manager = SessionManager::with_observer(cfg, MetricsRecorder::new()).unwrap();
    drive(&mut manager, &loads, false);
    manager.pump();
    let report = manager.report();
    assert!(
        report.evicted >= loads.len() as u64 - 2,
        "LRU eviction never fired: {}",
        report.evicted
    );
    assert_eq!(report.busy, 0);
    assert_outcomes_match(&manager, &loads);
}

#[test]
fn busy_when_eviction_disabled() {
    let loads = load();
    let cfg = ServeConfig::new(tiny_config(), mode())
        .with_budgets(ServeBudgets::disabled().with_max_live_sessions(1))
        .with_eviction(false);
    let mut manager = SessionManager::with_observer(cfg, MetricsRecorder::new()).unwrap();
    manager.handle(Frame::Hello {
        token: String::new(),
        features: 0,
        backend: None,
        version: hds_serve::WIRE_VERSION,
    });
    assert!(manager
        .handle(Frame::OpenSession {
            tenant: loads[0].name.clone(),
            procedures: loads[0].procedures.clone(),
        })
        .is_empty());
    let responses = manager.handle(Frame::OpenSession {
        tenant: loads[1].name.clone(),
        procedures: loads[1].procedures.clone(),
    });
    assert!(
        matches!(responses.as_slice(), [Frame::Busy { tenant, budget: 1, observed: 1 }] if *tenant == loads[1].name),
        "expected Busy, got {responses:?}"
    );
    let report = manager.report();
    assert_eq!(report.busy, 1);
    assert_eq!(report.opened, 1);
    report
        .reconciles(manager.observer())
        .expect("telemetry reconciles");
}

#[test]
fn breached_queue_budgets_shed_typed_frames() {
    let loads = load();
    let cfg = ServeConfig::new(tiny_config(), mode())
        .with_budgets(ServeBudgets::disabled().with_max_queued_chunks(1));
    let mut manager = SessionManager::with_observer(cfg, MetricsRecorder::new()).unwrap();
    manager.handle(Frame::Hello {
        token: String::new(),
        features: 0,
        backend: None,
        version: hds_serve::WIRE_VERSION,
    });
    manager.handle(Frame::OpenSession {
        tenant: loads[0].name.clone(),
        procedures: loads[0].procedures.clone(),
    });
    // First chunk fits the queue; the second (same pump window) sheds.
    assert!(manager
        .handle(Frame::TraceChunk {
            seq: 0,
            tenant: loads[0].name.clone(),
            events: loads[0].chunks[0].clone(),
        })
        .is_empty());
    let responses = manager.handle(Frame::TraceChunk {
        seq: 0,
        tenant: loads[0].name.clone(),
        events: loads[0].chunks[1].clone(),
    });
    assert!(
        matches!(
            responses.as_slice(),
            [Frame::Shed {
                kind: hds_telemetry::events::ServeBudgetKind::TenantQueue,
                budget: 1,
                observed: 2,
                ..
            }]
        ),
        "expected Shed, got {responses:?}"
    );
    // After a pump the queue drains and chunks are admitted again.
    manager.pump();
    assert!(manager
        .handle(Frame::TraceChunk {
            seq: 0,
            tenant: loads[0].name.clone(),
            events: loads[0].chunks[1].clone(),
        })
        .is_empty());
    let report = manager.report();
    assert_eq!(report.shed_total(), 1);
    report
        .reconciles(manager.observer())
        .expect("telemetry reconciles");
}

#[test]
fn degenerate_configs_are_typed_errors() {
    let zero_shards = ServeConfig::new(tiny_config(), mode()).with_shards(0);
    assert!(matches!(
        SessionManager::new(zero_shards).err(),
        Some(ServeConfigError::ZeroShards)
    ));
    let zero_workers = ServeConfig::new(tiny_config(), mode()).with_workers(0);
    assert!(matches!(
        SessionManager::new(zero_workers).err(),
        Some(ServeConfigError::ZeroWorkers)
    ));
}

#[test]
fn end_to_end_over_loopback_transport() {
    let loads = load();
    let refs = references(&loads);
    let (mut client, mut server) = loopback();
    // Client writes its whole stream up front (open loop), then the
    // server drains it, pumping every 4 frames.
    client
        .send(&Frame::Hello {
            token: String::new(),
            features: 0,
            backend: None,
            version: hds_serve::WIRE_VERSION,
        })
        .unwrap();
    for l in &loads {
        client
            .send(&Frame::OpenSession {
                tenant: l.name.clone(),
                procedures: l.procedures.clone(),
            })
            .unwrap();
    }
    let rounds = loads.iter().map(|l| l.chunks.len()).max().unwrap_or(0);
    for round in 0..rounds {
        for l in &loads {
            if let Some(chunk) = l.chunks.get(round) {
                client
                    .send(&Frame::TraceChunk {
                        seq: 0,
                        tenant: l.name.clone(),
                        events: chunk.clone(),
                    })
                    .unwrap();
            }
        }
    }
    for l in &loads {
        client
            .send(&Frame::Flush {
                tenant: l.name.clone(),
            })
            .unwrap();
    }
    let cfg = ServeConfig::new(tiny_config(), mode()).with_shards(2);
    let mut manager = SessionManager::with_observer(cfg, MetricsRecorder::new()).unwrap();
    serve(&mut server, &mut manager, 4).unwrap();
    // The client sees the handshake ack and one report per tenant,
    // each matching the standalone reference.
    assert_eq!(
        client.recv().unwrap(),
        Some(Frame::HelloAck {
            version: hds_serve::WIRE_VERSION,
            backend: None,
        })
    );
    let mut seen = 0;
    while let Some(frame) = client.recv().unwrap() {
        if let Frame::Report {
            tenant,
            report_json,
            image_digest,
        } = frame
        {
            let (expected_report, expected_digest) = &refs[&tenant];
            let report: RunReport = serde_json::from_str(&report_json).unwrap();
            assert_eq!(
                &report, expected_report,
                "wire report diverged for {tenant}"
            );
            assert_eq!(image_digest, *expected_digest);
            seen += 1;
        }
    }
    assert_eq!(seen, loads.len());
    manager
        .report()
        .reconciles(manager.observer())
        .expect("telemetry reconciles");
}
