//! Durable-store serve-path guarantees: spill→load lineages are
//! bit-identical to never-spilled serving at any shard count (A/B
//! stickiness included), resident memory is bounded by the live set,
//! and every storage fault degrades to a typed response — a failed
//! spill keeps the tenant in memory, a failed load restarts it from
//! scratch behind [`RejectCode::StoreFailed`], never a panic or a
//! silent wrong answer.

use hds_core::{BackendKind, BackendSelect, OptimizerConfig, PrefetchPolicy, RunMode, RunReport};
use hds_guard::ServeBudgets;
use hds_serve::load::{generate, standalone_reference, LoadConfig, TenantLoad};
use hds_serve::{Frame, RejectCode, ServeConfig, SessionManager};
use hds_store::{FaultyStorage, MemStorage, Store, StoreConfig, StoreFault, StoreFaultPlan};
use hds_telemetry::events::{Event, SpanKind, StoreEventKind};
use hds_telemetry::{MetricsRecorder, Observer};
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

fn mem_store() -> Store {
    Store::open(Box::new(MemStorage::new()), StoreConfig::default()).expect("open mem store")
}

fn hello<O: Observer>(manager: &mut SessionManager<O>) {
    let responses = manager.handle(Frame::Hello {
        token: String::new(),
        features: 0,
        backend: None,
        version: hds_serve::WIRE_VERSION,
    });
    assert!(matches!(responses[0], Frame::HelloAck { .. }));
}

/// Opens every tenant, then streams chunks round-robin, force-evicting
/// every tenant between rounds so each round spills through the store
/// and loads back.
fn drive_with_evictions(manager: &mut SessionManager<MetricsRecorder>, loads: &[TenantLoad]) {
    hello(manager);
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
                    events: chunk.clone().into(),
                });
                assert!(responses.is_empty(), "unexpected {responses:?}");
            }
        }
        manager.pump();
        for l in loads {
            manager.handle(Frame::Evict {
                tenant: l.name.clone(),
            });
        }
        manager.pump();
    }
    for l in loads {
        manager.handle(Frame::Flush {
            tenant: l.name.clone(),
        });
    }
    manager.pump();
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

/// Spill→load round trips through the store are invisible to tenants:
/// reports and digests stay bit-identical to standalone runs at 1, 2,
/// and 8 shards, every counter reconciles with telemetry, and every
/// round's evictions actually went to disk.
#[test]
fn spilled_reports_match_standalone_across_shard_counts() {
    let loads = load();
    let refs = references(&loads);
    for shards in [1u32, 2, 8] {
        let cfg = ServeConfig::new(tiny_config(), mode())
            .with_shards(shards)
            .with_workers(4);
        let mut manager = SessionManager::with_observer(cfg, MetricsRecorder::new()).unwrap();
        manager.attach_store(mem_store());
        drive_with_evictions(&mut manager, &loads);
        let report = manager.report();
        assert_eq!(report.outcomes.len(), loads.len());
        for outcome in &report.outcomes {
            let (expected_report, expected_digest) = &refs[&outcome.tenant];
            assert_eq!(
                &outcome.report, expected_report,
                "report diverged for {} at {shards} shards",
                outcome.tenant
            );
            assert_eq!(outcome.image_digest, *expected_digest);
        }
        assert!(
            report.spilled >= loads.len() as u64,
            "every eviction round should spill: {}",
            report.spilled
        );
        assert_eq!(
            report.loaded, report.spilled,
            "every spill was loaded back (flush loads the last round)"
        );
        assert_eq!(report.store_faults, 0);
        report
            .reconciles(manager.observer())
            .expect("telemetry reconciles");
    }
}

/// A seeded A/B assignment sticks across spill→load: the same arm
/// serves the tenant before and after its round trip through the
/// store, and the report matches a standalone run of that arm.
#[test]
fn ab_assignment_sticks_across_spill_and_load() {
    let loads = load();
    let arms = vec![
        (BackendKind::DynPref, 2u32),
        (BackendKind::Pangloss, 1),
        (BackendKind::Triangel, 1),
    ];
    let assignments_at = |with_store: bool| -> BTreeMap<String, BackendKind> {
        let cfg = ServeConfig::new(tiny_config(), mode())
            .with_shards(2)
            .with_workers(4)
            .with_ab_split(7, arms.clone());
        let mut manager = SessionManager::with_observer(cfg, MetricsRecorder::new()).unwrap();
        if with_store {
            manager.attach_store(mem_store());
        }
        drive_with_evictions(&mut manager, &loads);
        let report = manager.report();
        report
            .reconciles(manager.observer())
            .expect("telemetry reconciles");
        for outcome in &report.outcomes {
            let kind = manager.backend_of(&outcome.tenant).expect("tenant opened");
            let mut reference_cfg = tiny_config();
            reference_cfg.backend = BackendSelect::default_for(kind);
            let l = loads.iter().find(|l| l.name == outcome.tenant).unwrap();
            let (expected_report, expected_digest) =
                standalone_reference(&reference_cfg, mode(), l);
            assert_eq!(
                outcome.report, expected_report,
                "arm {kind:?} diverged for {} (store: {with_store})",
                outcome.tenant
            );
            assert_eq!(outcome.image_digest, expected_digest);
        }
        loads
            .iter()
            .map(|l| (l.name.clone(), manager.backend_of(&l.name).unwrap()))
            .collect()
    };
    assert_eq!(
        assignments_at(true),
        assignments_at(false),
        "the store must not perturb A/B assignment"
    );
}

/// The headline memory bound: with a store attached, hibernating every
/// tenant leaves *zero* resident tenants and bytes between pumps —
/// memory is the live set, not the tenant population. The storeless
/// twin keeps every tenant resident.
#[test]
fn spilled_tenants_do_not_count_against_resident_memory() {
    let loads = load();
    let drive_evict_all = |manager: &mut SessionManager<MetricsRecorder>| {
        hello(manager);
        for l in loads.iter() {
            manager.handle(Frame::OpenSession {
                tenant: l.name.clone(),
                procedures: l.procedures.clone(),
            });
            manager.handle(Frame::TraceChunk {
                seq: 0,
                tenant: l.name.clone(),
                events: l.chunks[0].clone().into(),
            });
        }
        manager.pump();
        for l in loads.iter() {
            manager.handle(Frame::Evict {
                tenant: l.name.clone(),
            });
        }
        manager.pump();
    };

    let cfg = || ServeConfig::new(tiny_config(), mode()).with_shards(2);
    let mut with_store = SessionManager::with_observer(cfg(), MetricsRecorder::new()).unwrap();
    with_store.attach_store(mem_store());
    drive_evict_all(&mut with_store);
    assert_eq!(
        with_store.resident_tenants(),
        0,
        "all hibernated → all spilled"
    );
    assert_eq!(with_store.resident_bytes(), 0);
    assert_eq!(with_store.report().spilled, loads.len() as u64);

    let mut without = SessionManager::with_observer(cfg(), MetricsRecorder::new()).unwrap();
    drive_evict_all(&mut without);
    assert_eq!(
        without.resident_tenants(),
        loads.len() as u64,
        "storeless manager keeps every hibernated tenant in memory"
    );
    assert!(without.resident_bytes() > 0);

    // And the spilled population still finishes correctly.
    let refs = references(&loads);
    for l in &loads {
        for chunk in &l.chunks[1..] {
            with_store.handle(Frame::TraceChunk {
                seq: 0,
                tenant: l.name.clone(),
                events: chunk.clone().into(),
            });
        }
    }
    with_store.pump();
    for l in &loads {
        with_store.handle(Frame::Flush {
            tenant: l.name.clone(),
        });
    }
    with_store.pump();
    let report = with_store.report();
    for outcome in &report.outcomes {
        let (expected_report, expected_digest) = &refs[&outcome.tenant];
        assert_eq!(&outcome.report, expected_report);
        assert_eq!(outcome.image_digest, *expected_digest);
    }
    report
        .reconciles(with_store.observer())
        .expect("telemetry reconciles");
}

/// Bit rot on the durable copy degrades to a typed
/// [`RejectCode::StoreFailed`]: the tenant restarts from scratch, the
/// client replays from its own copy, and the final report is still
/// bit-identical — never a panic, never a wrong-tenant resume.
#[test]
fn corrupt_durable_state_restarts_tenant_from_scratch() {
    let loads = load();
    let l = &loads[0];
    let cfg = ServeConfig::new(tiny_config(), mode()).with_shards(2);
    let mut manager = SessionManager::with_observer(cfg, MetricsRecorder::new()).unwrap();
    manager.attach_store(mem_store());
    hello(&mut manager);
    manager.handle(Frame::OpenSession {
        tenant: l.name.clone(),
        procedures: l.procedures.clone(),
    });
    manager.handle(Frame::TraceChunk {
        seq: 0,
        tenant: l.name.clone(),
        events: l.chunks[0].clone().into(),
    });
    manager.pump();
    manager.handle(Frame::Evict {
        tenant: l.name.clone(),
    });
    manager.pump();
    assert_eq!(manager.report().spilled, 1);

    // Rot one byte of the spilled record on the "disk".
    {
        let store = manager.take_store().expect("attached above");
        let seg = store.segments().last().expect("one segment").clone();
        let mut store = store;
        let mem = store
            .storage_mut()
            .as_any_mut()
            .downcast_mut::<MemStorage>()
            .expect("mem storage");
        let data = mem.data_mut(&seg).expect("segment exists");
        let mid = data.len() / 2;
        data[mid] ^= 0x40;
        manager.attach_store(store);
    }

    // The next chunk needs the durable state back: typed reject.
    let responses = manager.handle(Frame::TraceChunk {
        seq: 0,
        tenant: l.name.clone(),
        events: l.chunks[1].clone().into(),
    });
    assert_eq!(responses.len(), 1);
    let Frame::Reject { code, .. } = &responses[0] else {
        panic!("expected reject, got {responses:?}");
    };
    assert_eq!(*code, RejectCode::StoreFailed);
    let report = manager.report();
    assert_eq!(report.store_faults, 1);
    assert_eq!(report.loaded, 0);

    // Restart from scratch: a fresh open succeeds and the full replay
    // produces the standalone-identical report.
    manager.handle(Frame::OpenSession {
        tenant: l.name.clone(),
        procedures: l.procedures.clone(),
    });
    for chunk in &l.chunks {
        let responses = manager.handle(Frame::TraceChunk {
            seq: 0,
            tenant: l.name.clone(),
            events: chunk.clone().into(),
        });
        assert!(responses.is_empty(), "unexpected {responses:?}");
    }
    manager.handle(Frame::Flush {
        tenant: l.name.clone(),
    });
    manager.pump();
    let report = manager.report();
    let outcome = report
        .outcomes
        .iter()
        .find(|o| o.tenant == l.name)
        .expect("flushed");
    let (expected_report, expected_digest) = standalone_reference(&tiny_config(), mode(), l);
    assert_eq!(outcome.report, expected_report);
    assert_eq!(outcome.image_digest, expected_digest);
    report
        .reconciles(manager.observer())
        .expect("telemetry reconciles");
}

/// Spill failures degrade gracefully: the tenant stays resident and
/// correct, each failure counts a store fault, and once the
/// store-fault budget trips the manager sheds by latching spilling
/// off — it keeps serving from memory.
#[test]
fn failed_spills_keep_tenants_in_memory_and_trip_the_budget() {
    let loads = load();
    let cfg = ServeConfig::new(tiny_config(), mode())
        .with_shards(2)
        .with_budgets(ServeBudgets::disabled().with_max_store_faults(2));
    let mut manager = SessionManager::with_observer(cfg, MetricsRecorder::new()).unwrap();
    // Every append fails with ENOSPC: nothing ever spills.
    let plan = StoreFaultPlan::focused(3, StoreFault::NoSpace, 1000);
    let store = Store::open(
        Box::new(FaultyStorage::new(MemStorage::new(), plan)),
        StoreConfig::default(),
    )
    .expect("open faulty store");
    manager.attach_store(store);
    drive_with_evictions(&mut manager, &loads);
    let report = manager.report();
    assert_eq!(report.spilled, 0, "ENOSPC on every append");
    assert!(
        report.store_faults >= 3,
        "faults observed until the budget tripped: {}",
        report.store_faults
    );
    assert_eq!(report.shed[4], 1, "store-fault budget tripped exactly once");
    // Correctness never depended on the disk.
    let refs = references(&loads);
    assert_eq!(report.outcomes.len(), loads.len());
    for outcome in &report.outcomes {
        let (expected_report, expected_digest) = &refs[&outcome.tenant];
        assert_eq!(&outcome.report, expected_report);
        assert_eq!(outcome.image_digest, *expected_digest);
    }
    report
        .reconciles(manager.observer())
        .expect("telemetry reconciles");
}

/// The `b` word of every store-compaction flight instant.
#[derive(Default)]
struct CompactedInstants(Vec<u64>);

impl Observer for CompactedInstants {
    fn on(&mut self, event: &Event) {
        if let Event::Span(s) = event {
            if s.kind == SpanKind::Store && s.a == StoreEventKind::Compacted.code() {
                self.0.push(s.b);
            }
        }
    }
}

/// Compaction with a TTL expires dead tenants from both the store and
/// the control plane: the expired tenant can be re-opened from
/// scratch, while fresh tenants' durable state survives compaction
/// and still loads. The compaction's flight instant carries the number
/// of records kept.
#[test]
fn compaction_expires_dead_tenants_and_keeps_fresh_ones() {
    let loads = load();
    let (dead, alive, also_alive) = (&loads[0], &loads[1], &loads[2]);
    let cfg = ServeConfig::new(tiny_config(), mode()).with_shards(2);
    let observer = (MetricsRecorder::new(), CompactedInstants::default());
    let mut manager = SessionManager::with_observer(cfg, observer).unwrap();
    let store = Store::open(
        Box::new(MemStorage::new()),
        StoreConfig {
            ttl: Some(6),
            segment_bytes: 1 << 20,
        },
    )
    .expect("open store");
    manager.attach_store(store);
    hello(&mut manager);
    for l in [dead, alive, also_alive] {
        manager.handle(Frame::OpenSession {
            tenant: l.name.clone(),
            procedures: l.procedures.clone(),
        });
        manager.handle(Frame::TraceChunk {
            seq: 0,
            tenant: l.name.clone(),
            events: l.chunks[0].clone().into(),
        });
    }
    manager.pump();
    manager.handle(Frame::Evict {
        tenant: dead.name.clone(),
    });
    manager.pump();
    // Age the dead tenant's spill past the TTL with live traffic (the
    // clock ticks once per frame handled), then re-spill the alive one
    // so its stamp is fresh.
    for chunk in &alive.chunks[1..] {
        manager.handle(Frame::TraceChunk {
            seq: 0,
            tenant: alive.name.clone(),
            events: chunk.clone().into(),
        });
        manager.pump();
    }
    for _ in 0..10 {
        manager.handle(Frame::Introspect {
            tenant: String::new(),
        });
    }
    for l in [alive, also_alive] {
        manager.handle(Frame::Evict {
            tenant: l.name.clone(),
        });
    }
    manager.pump();
    manager.compact_store();
    let report = manager.report();
    assert_eq!(report.compactions, 1);
    assert_eq!(report.expired, 1, "only the stale tenant expires");
    assert!(manager.store().unwrap().contains(&alive.name));
    assert!(manager.store().unwrap().contains(&also_alive.name));
    assert!(!manager.store().unwrap().contains(&dead.name));
    assert_eq!(
        manager.observer().1 .0,
        [2],
        "the instant's b is the kept count"
    );

    // The expired tenant is gone from the control plane too: a fresh
    // open (not TenantAlreadyOpen) succeeds.
    let responses = manager.handle(Frame::OpenSession {
        tenant: dead.name.clone(),
        procedures: dead.procedures.clone(),
    });
    assert!(responses.is_empty(), "unexpected {responses:?}");
    // And the surviving tenant's durable state still loads: flush it
    // through the store and check the report.
    manager.handle(Frame::Flush {
        tenant: alive.name.clone(),
    });
    manager.pump();
    let report = manager.report();
    let outcome = report
        .outcomes
        .iter()
        .find(|o| o.tenant == alive.name)
        .expect("flushed");
    let (expected_report, expected_digest) = standalone_reference(&tiny_config(), mode(), alive);
    assert_eq!(outcome.report, expected_report);
    assert_eq!(outcome.image_digest, expected_digest);
    report
        .reconciles(&manager.observer().0)
        .expect("telemetry reconciles");
}
