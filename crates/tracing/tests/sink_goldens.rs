//! What the three production sinks make of real runs, pinned by digest:
//! the JSONL bytes, the flight records (without their wall-clock
//! stamps), and the Prometheus text, for each paper workload and for a
//! serve run that evicts, spills and loads tenants through a store.

use hds_core::{OptimizerConfig, PrefetchPolicy, RunMode, SessionBuilder};
use hds_flight::FlightRecorder;
use hds_guard::ServeBudgets;
use hds_serve::load::{generate, LoadConfig};
use hds_serve::{Frame, ServeConfig, SessionManager};
use hds_store::{MemStorage, Store, StoreConfig};
use hds_telemetry::{JsonlSink, MetricsRecorder};
use hds_trace::hash::fnv1a64;
use hds_workloads::{benchmark, Benchmark, Scale};

type Sinks = ((MetricsRecorder, JsonlSink<Vec<u8>>), FlightRecorder);

fn sinks() -> Sinks {
    (
        (MetricsRecorder::new(), JsonlSink::new(Vec::new())),
        FlightRecorder::new(1 << 20),
    )
}

/// `[jsonl, flight, prometheus]` digests plus the JSONL record count.
fn digests(((metrics, jsonl), flight): Sinks) -> [u64; 4] {
    let records = jsonl.records();
    let bytes = jsonl.into_inner().expect("in-memory flush");
    let flight_text: String = flight
        .records()
        .iter()
        .map(|r| {
            format!(
                "{} {} {} {} {} {} {} {}\n",
                r.seq,
                r.name,
                r.phase.label(),
                r.sim_cycle,
                r.track,
                r.lane,
                r.a,
                r.b
            )
        })
        .collect();
    [
        fnv1a64(&bytes),
        fnv1a64(flight_text.as_bytes()),
        fnv1a64(metrics.render_prometheus().as_bytes()),
        records,
    ]
}

#[test]
fn paper_workloads_pin_every_sink() {
    let got: Vec<(&str, [u64; 4])> = Benchmark::ALL
        .into_iter()
        .map(|which| {
            let mut w = benchmark(which, Scale::Test);
            let mut obs = sinks();
            SessionBuilder::new(OptimizerConfig::test_scale())
                .procedures(w.procedures())
                .observer(&mut obs)
                .optimize(PrefetchPolicy::StreamTail)
                .run(&mut *w);
            (which.name(), digests(obs))
        })
        .collect();
    let want = vec![
        (
            "vpr",
            [
                0xa14721b753a8646a,
                0x696bcc4f956239e8,
                0xa3eb573941361d90,
                19223,
            ],
        ),
        (
            "mcf",
            [
                0x5aabf01870f0669b,
                0x77a7d918371b73d0,
                0x03ac44411420cdec,
                20860,
            ],
        ),
        (
            "twolf",
            [
                0xb625a914fb364566,
                0xe02d1affe73ca363,
                0xaf21d55c521c120e,
                7269,
            ],
        ),
        (
            "parser",
            [
                0xe0681ba7a22c532d,
                0x4ece1185bab260da,
                0xd145f46ac6f378ec,
                6288,
            ],
        ),
        (
            "vortex",
            [
                0x46e3ce2e139c4f2e,
                0x8fe256cdfe97063f,
                0xf02c2245fad1d4f5,
                8607,
            ],
        ),
        (
            "boxsim",
            [
                0x3540d316beffa71d,
                0xb6526b66c32e75c2,
                0xe2c4938ed1ec2110,
                162,
            ],
        ),
    ];
    assert_eq!(got, want);
}

#[test]
fn spilling_serve_run_pins_every_sink() {
    let mut optimizer = OptimizerConfig::test_scale();
    optimizer.bursty = hds_bursty::BurstyConfig::new(8, 8, 2, 3);
    optimizer.analysis.min_length = 4;
    optimizer.analysis.min_unique_refs = 2;
    let cfg = ServeConfig::new(optimizer, RunMode::Optimize(PrefetchPolicy::StreamTail))
        .with_shards(2)
        .with_budgets(ServeBudgets::disabled().with_max_live_sessions(2));
    let mut manager = SessionManager::with_observer(cfg, sinks()).expect("valid serve config");
    manager.attach_store(
        Store::open(Box::new(MemStorage::new()), StoreConfig::default()).expect("open mem store"),
    );
    let loads = generate(&LoadConfig {
        tenants: 6,
        chunks_per_tenant: 4,
        events_per_chunk: 120,
        seed: 42,
    })
    .expect("valid load shape");
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
    for round in 0..4 {
        for l in &loads {
            manager.handle(Frame::TraceChunk {
                seq: 0,
                tenant: l.name.clone(),
                events: l.chunks[round].clone(),
            });
            manager.pump();
        }
    }
    for l in &loads {
        manager.handle(Frame::Flush {
            tenant: l.name.clone(),
        });
    }
    manager.pump();
    let report = manager.report();
    assert!(report.evicted > 0 && report.spilled > 0 && report.loaded > 0);
    report
        .reconciles(&manager.observer().0 .0)
        .expect("telemetry reconciles");
    assert_eq!(
        digests(manager.into_observer()),
        [
            0xd5e89d8ed46d9007,
            0x4b691762ec22e1b2,
            0x00065fd40020704d,
            166
        ]
    );
}
