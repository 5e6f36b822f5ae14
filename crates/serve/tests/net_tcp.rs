//! End-to-end serve over real TCP (feature `net`): a client thread
//! streams a small tenant load to a listening server, which drives a
//! `SessionManager` and sends the `Report` frames back over the wire.
//! Includes the hostile-network paths: authenticated handshakes,
//! read-deadline keepalives, and a chaos client that survives real
//! socket faults with reconnect-and-resume.
#![cfg(feature = "net")]

use std::net::TcpListener;
use std::thread;
use std::time::Duration;

use hds_core::{OptimizerConfig, PrefetchPolicy, RunMode, RunReport};
use hds_serve::load::{generate, standalone_reference, LoadConfig};
use hds_serve::transport::tcp::TcpTransport;
use hds_serve::{
    serve, serve_with, ChaosTransport, ClientConfig, ClientSession, ClientStatus, Frame, NetFault,
    NetFaultPlan, RejectCode, ServeConfig, ServeOptions, SessionManager, Transport,
};
use hds_telemetry::MetricsRecorder;

fn tiny_config() -> OptimizerConfig {
    let mut c = OptimizerConfig::test_scale();
    c.bursty = hds_bursty::BurstyConfig::new(8, 8, 2, 3);
    c.analysis.min_length = 4;
    c.analysis.min_unique_refs = 2;
    c
}

#[test]
fn tcp_round_trip_matches_standalone() {
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

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();

    let server = thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let mut transport = TcpTransport::new(stream);
        let cfg = ServeConfig::new(tiny_config(), mode).with_shards(2);
        let mut manager = SessionManager::with_observer(cfg, MetricsRecorder::new()).unwrap();
        serve(&mut transport, &mut manager, 0).unwrap();
        manager.report()
    });

    let mut client = TcpTransport::connect(addr).unwrap();
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
        for chunk in &l.chunks {
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
    client.finish_sending().unwrap();

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
            let idx = loads.iter().position(|l| l.name == tenant).unwrap();
            let report: RunReport = serde_json::from_str(&report_json).unwrap();
            assert_eq!(report, refs[idx].0, "tcp report diverged for {tenant}");
            assert_eq!(image_digest, refs[idx].1);
            seen += 1;
        }
    }
    assert_eq!(seen, loads.len());
    let server_report = server.join().unwrap();
    assert_eq!(server_report.opened, loads.len() as u64);
}

#[test]
fn stats_round_trip_over_tcp() {
    let mode = RunMode::Optimize(PrefetchPolicy::StreamTail);
    let loads = generate(&LoadConfig {
        tenants: 2,
        chunks_per_tenant: 2,
        events_per_chunk: 60,
        seed: 3,
    })
    .unwrap();

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let mut transport = TcpTransport::new(stream);
        let cfg = ServeConfig::new(tiny_config(), mode).with_shards(2);
        let mut manager = SessionManager::new(cfg).unwrap();
        serve(&mut transport, &mut manager, 0).unwrap();
    });

    let mut client = TcpTransport::connect(addr).unwrap();
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
        for chunk in &l.chunks {
            client
                .send(&Frame::TraceChunk {
                    seq: 0,
                    tenant: l.name.clone(),
                    events: chunk.clone().into(),
                })
                .unwrap();
        }
    }
    client
        .send(&Frame::Introspect {
            tenant: String::new(),
        })
        .unwrap();
    client.finish_sending().unwrap();

    assert_eq!(
        client.recv().unwrap(),
        Some(Frame::HelloAck {
            version: hds_serve::WIRE_VERSION,
            backend: None,
        })
    );
    let Some(Frame::Stats {
        tenants, shards, ..
    }) = client.recv().unwrap()
    else {
        panic!("introspect over TCP must answer with Stats");
    };
    assert_eq!(tenants.len(), loads.len());
    assert_eq!(shards.len(), 2);
    for l in &loads {
        let t = tenants.iter().find(|t| t.tenant == l.name).unwrap();
        assert!(t.live && !t.finished);
        assert_eq!(t.queued_chunks, l.chunks.len() as u64);
    }
    server.join().unwrap();
}

#[test]
fn bad_auth_over_tcp_is_a_typed_reject_never_a_hang() {
    let mode = RunMode::Optimize(PrefetchPolicy::StreamTail);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let mut transport = TcpTransport::new(stream);
        let cfg = ServeConfig::new(tiny_config(), mode).with_auth_token("s3cret");
        let mut manager = SessionManager::new(cfg).unwrap();
        let result = serve_with(&mut transport, &mut manager, ServeOptions::default());
        (result, manager.report())
    });

    let mut client = TcpTransport::connect(addr).unwrap();
    client
        .send(&Frame::Hello {
            token: "wrong".into(),
            features: 0,
            backend: None,
            version: hds_serve::WIRE_VERSION,
        })
        .unwrap();
    let answer = client.recv().unwrap();
    let Some(Frame::Reject { code, .. }) = answer else {
        panic!("expected a typed reject over TCP, got {answer:?}");
    };
    assert_eq!(code, RejectCode::AuthFailed);
    client.finish_sending().unwrap();
    let (result, report) = server.join().unwrap();
    assert_eq!(result, Ok(()), "a refused handshake ends the loop cleanly");
    assert_eq!(report.auth_failures, 1);
    assert_eq!(report.opened, 0);
}

#[test]
fn read_deadline_sends_keepalive_pings() {
    let mode = RunMode::Optimize(PrefetchPolicy::StreamTail);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let mut transport = TcpTransport::new(stream);
        transport
            .set_read_deadline(Some(Duration::from_millis(25)))
            .unwrap();
        let cfg = ServeConfig::new(tiny_config(), mode);
        let mut manager = SessionManager::new(cfg).unwrap();
        serve_with(
            &mut transport,
            &mut manager,
            ServeOptions {
                pump_every: 1,
                max_idle_timeouts: 200,
                keepalive: true,
            },
        )
    });

    let mut client = TcpTransport::connect(addr).unwrap();
    client.send(&Frame::hello()).unwrap();
    assert_eq!(
        client.recv().unwrap(),
        Some(Frame::HelloAck {
            version: hds_serve::WIRE_VERSION,
            backend: None,
        })
    );
    // Go quiet; the server's read deadline must produce Pings.
    let ping = client.recv().unwrap();
    let Some(Frame::Ping { nonce }) = ping else {
        panic!("expected a keepalive ping, got {ping:?}");
    };
    client.send(&Frame::Pong { nonce }).unwrap();
    client.finish_sending().unwrap();
    // Drain any further pings until the clean end of stream.
    while let Ok(Some(_)) = client.recv() {}
    assert_eq!(server.join().unwrap(), Ok(()));
}

#[test]
fn idle_peer_is_declared_dead_after_the_timeout_budget() {
    let mode = RunMode::Optimize(PrefetchPolicy::StreamTail);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let mut transport = TcpTransport::new(stream);
        transport
            .set_read_deadline(Some(Duration::from_millis(10)))
            .unwrap();
        let cfg = ServeConfig::new(tiny_config(), mode);
        let mut manager = SessionManager::new(cfg).unwrap();
        serve_with(
            &mut transport,
            &mut manager,
            ServeOptions {
                pump_every: 1,
                max_idle_timeouts: 3,
                keepalive: false,
            },
        )
    });
    // Connect and say nothing, ever.
    let _client = TcpTransport::connect(addr).unwrap();
    assert_eq!(
        server.join().unwrap(),
        Err(hds_serve::TransportError::TimedOut)
    );
}

/// The full hostile stack over real sockets: a reliable client behind
/// a chaos transport (drops, duplicates, corruption, disconnects)
/// against an accept-loop server, converging byte-identically.
#[test]
fn chaos_client_over_tcp_recovers_byte_identically() {
    let mode = RunMode::Optimize(PrefetchPolicy::StreamTail);
    let loads = generate(&LoadConfig {
        tenants: 2,
        chunks_per_tenant: 3,
        events_per_chunk: 60,
        seed: 21,
    })
    .unwrap();
    let refs: Vec<_> = loads
        .iter()
        .map(|l| standalone_reference(&tiny_config(), mode, l))
        .collect();

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = thread::spawn(move || {
        let cfg = ServeConfig::new(tiny_config(), mode)
            .with_shards(2)
            .with_auth_token("s3cret");
        let mut manager = SessionManager::new(cfg).unwrap();
        // Accept-loop: chaos kills connections; the session state
        // lives in the manager, so each new connection resumes it.
        while !manager.is_draining() {
            let (stream, _) = listener.accept().unwrap();
            let mut transport = TcpTransport::new(stream);
            let _ = serve_with(
                &mut transport,
                &mut manager,
                ServeOptions {
                    pump_every: 1,
                    max_idle_timeouts: u32::MAX,
                    keepalive: false,
                },
            );
        }
        manager.report()
    });

    let connect = |plan: NetFaultPlan| {
        let mut t = TcpTransport::connect(addr).unwrap();
        t.set_read_deadline(Some(Duration::from_millis(5))).unwrap();
        ChaosTransport::new(t, plan)
    };
    let plan = NetFaultPlan::hostile(77)
        .with_rate(NetFault::Delay, 0) // reordering is loopback-tested
        .with_max_faults(10);
    let mut client: ClientSession<ChaosTransport<TcpTransport>> =
        ClientSession::new(ClientConfig {
            token: "s3cret".into(),
            ..ClientConfig::default()
        });
    for l in &loads {
        client.add_tenant(&l.name, l.procedures.clone(), l.chunks.clone());
    }
    client.connect(connect(plan));
    let mut polls = 0u64;
    loop {
        polls += 1;
        assert!(polls < 100_000, "tcp chaos session stalled");
        match client.step().expect("client must converge") {
            ClientStatus::Done => break,
            ClientStatus::NeedReconnect => {
                let plan = client
                    .take_transport()
                    .map_or_else(NetFaultPlan::quiet, |t| t.into_parts().1);
                client.on_reconnected(connect(plan));
            }
            ClientStatus::Working => {}
        }
    }
    let reports = client.reports();
    assert_eq!(reports.len(), loads.len());
    for (i, got) in reports.iter().enumerate() {
        assert_eq!(
            got.report_json,
            serde_json::to_string(&refs[i].0).unwrap(),
            "tcp chaos report diverged for {}",
            got.tenant
        );
        assert_eq!(got.image_digest, refs[i].1);
    }
    let report = server.join().unwrap();
    assert_eq!(report.outcomes.len(), loads.len());
    assert_eq!(report.drains, 1);
}
