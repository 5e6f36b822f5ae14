//! Live wire introspection: `Introspect` → `Stats` over the loopback
//! transport, without flushing or perturbing tenant sessions, plus the
//! serve-side span instrumentation a flight recorder captures.

use hds_core::{OptimizerConfig, PrefetchPolicy, RunMode, RunReport};
use hds_flight::{perfetto, FlightRecorder};
use hds_serve::load::{generate, standalone_reference, LoadConfig};
use hds_serve::manager::tenant_key;
use hds_serve::{loopback, serve, Frame, ServeConfig, SessionManager, Transport};

fn tiny_config() -> OptimizerConfig {
    let mut c = OptimizerConfig::test_scale();
    c.bursty = hds_bursty::BurstyConfig::new(8, 8, 2, 3);
    c.analysis.min_length = 4;
    c.analysis.min_unique_refs = 2;
    c
}

#[test]
fn introspect_round_trips_on_loopback_without_flushing() {
    let mode = RunMode::Optimize(PrefetchPolicy::StreamTail);
    let loads = generate(&LoadConfig {
        tenants: 2,
        chunks_per_tenant: 3,
        events_per_chunk: 90,
        seed: 11,
    })
    .unwrap();
    let refs: Vec<_> = loads
        .iter()
        .map(|l| standalone_reference(&tiny_config(), mode, l))
        .collect();
    let cfg = ServeConfig::new(tiny_config(), mode).with_shards(2);
    let mut manager = SessionManager::new(cfg).unwrap();
    let (mut client, mut server_end) = loopback();

    // Phase 1: open both tenants, queue chunks for the first, and ask
    // for stats before anything has been pumped.
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
    for chunk in &loads[0].chunks {
        client
            .send(&Frame::TraceChunk {
                seq: 0,
                tenant: loads[0].name.clone(),
                events: chunk.clone().into(),
            })
            .unwrap();
    }
    client
        .send(&Frame::Introspect {
            tenant: String::new(),
        })
        .unwrap();
    serve(&mut server_end, &mut manager, 0).unwrap();
    assert_eq!(
        client.recv().unwrap(),
        Some(Frame::HelloAck {
            version: hds_serve::WIRE_VERSION,
            backend: None,
        })
    );
    let Some(Frame::Stats {
        queued_bytes,
        tenants,
        shards,
        ..
    }) = client.recv().unwrap()
    else {
        panic!("introspect must answer with Stats");
    };
    assert_eq!(tenants.len(), 2);
    assert_eq!(shards.len(), 2);
    let t0 = tenants.iter().find(|t| t.tenant == loads[0].name).unwrap();
    assert!(t0.live && !t0.finished);
    assert_eq!(t0.queued_chunks, loads[0].chunks.len() as u64);
    // Nothing pumped yet: the chunks are queued, not consumed.
    assert_eq!(t0.events_consumed, 0);
    assert!(queued_bytes > 0);
    assert!(shards.iter().any(|s| s.mailbox_depth > 0));

    // Phase 2 (serve() pumped at end of stream): a filtered introspect
    // now shows consumed events and drained queues — still no flush.
    client
        .send(&Frame::Introspect {
            tenant: loads[0].name.clone(),
        })
        .unwrap();
    client
        .send(&Frame::Introspect {
            tenant: "nobody".into(),
        })
        .unwrap();
    serve(&mut server_end, &mut manager, 0).unwrap();
    let Some(Frame::Stats { tenants, .. }) = client.recv().unwrap() else {
        panic!("filtered introspect must answer with Stats");
    };
    assert_eq!(tenants.len(), 1);
    assert_eq!(tenants[0].tenant, loads[0].name);
    assert_eq!(tenants[0].queued_chunks, 0);
    assert_eq!(
        tenants[0].events_consumed,
        loads[0].chunks.iter().map(|c| c.len() as u64).sum::<u64>()
    );
    assert!(matches!(client.recv().unwrap(), Some(Frame::Reject { .. })));

    // Phase 3: introspection perturbed nothing — flushing now still
    // yields reports bit-identical to the standalone references.
    for l in &loads {
        for chunk in &l.chunks[if l.name == loads[0].name {
            l.chunks.len()..
        } else {
            0..
        }] {
            client
                .send(&Frame::TraceChunk {
                    seq: 0,
                    tenant: l.name.clone(),
                    events: chunk.clone().into(),
                })
                .unwrap();
        }
        client
            .send(&Frame::Flush {
                tenant: l.name.clone(),
            })
            .unwrap();
    }
    serve(&mut server_end, &mut manager, 0).unwrap();
    let mut seen = 0;
    while let Some(frame) = client.recv().unwrap() {
        if let Frame::Report {
            tenant,
            report_json,
            image_digest,
        } = frame
        {
            let idx = loads.iter().position(|l| l.name == tenant).unwrap();
            let report: RunReport = serde_json::from_str(&report_json).unwrap();
            assert_eq!(report, refs[idx].0, "report diverged for {tenant}");
            assert_eq!(image_digest, refs[idx].1);
            seen += 1;
        }
    }
    assert_eq!(seen, loads.len());
}

#[test]
fn introspect_requires_a_handshake() {
    let cfg = ServeConfig::new(tiny_config(), RunMode::Analyze);
    let mut manager = SessionManager::new(cfg).unwrap();
    let responses = manager.handle(Frame::Introspect {
        tenant: String::new(),
    });
    assert!(matches!(responses.as_slice(), [Frame::Reject { .. }]));
}

#[test]
fn serve_spans_nest_and_chaos_leaves_a_keyed_crash_instant() {
    let mode = RunMode::Optimize(PrefetchPolicy::StreamTail);
    let loads = generate(&LoadConfig {
        tenants: 3,
        chunks_per_tenant: 4,
        events_per_chunk: 80,
        seed: 5,
    })
    .unwrap();
    let keys: Vec<u64> = loads.iter().map(|l| tenant_key(&l.name)).collect();
    // Sweep chaos seeds until one schedule actually kills a shard
    // mid-frame (mirrors the chaos_serve suite).
    for seed in 0..32u64 {
        let cfg = ServeConfig::new(tiny_config(), mode)
            .with_shards(2)
            .with_chaos(seed, 2);
        let mut manager = SessionManager::with_observer(cfg, FlightRecorder::new(1 << 14)).unwrap();
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
        for l in &loads {
            for chunk in &l.chunks {
                manager.handle(Frame::TraceChunk {
                    seq: 0,
                    tenant: l.name.clone(),
                    events: chunk.clone().into(),
                });
            }
        }
        manager.pump();
        for l in &loads {
            manager.handle(Frame::Flush {
                tenant: l.name.clone(),
            });
        }
        manager.pump();
        let restarts = manager.report().restarts;
        let rec = manager.into_observer();
        let records = rec.records();
        assert!(!rec.wrapped(), "ring sized for the whole serve run");
        perfetto::validate_nesting(&records).expect("serve spans nest");
        // Every frame got a span on its shard's track; pumps too.
        assert!(records
            .iter()
            .any(|r| r.name == "serve_frame" && r.track >= 1));
        assert!(records.iter().any(|r| r.name == "shard_pump"));
        let crashes: Vec<_> = records.iter().filter(|r| r.name == "crash").collect();
        assert_eq!(crashes.len() as u64, restarts, "one instant per restart");
        if restarts > 0 {
            for c in &crashes {
                assert_eq!(c.a, 3, "serve crashes are mid-frame (point 3)");
                assert!(keys.contains(&c.b), "crash instant names a real tenant key");
                assert!(c.track >= 1, "crash instant sits on a shard track");
            }
            return;
        }
    }
    panic!("no chaos seed in the sweep ever crashed a shard");
}
