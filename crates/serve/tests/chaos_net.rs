//! Hostile-network integration: a reliable [`ClientSession`] driven
//! against the manager over a fault-injected loopback must always
//! converge, and every recovered run must be byte-identical to its
//! fault-free twin — drops, duplicates, corruption, reordering, torn
//! writes, and disconnects included.

use hds_core::{OptimizerConfig, PrefetchPolicy, RunMode};
use hds_flight::FlightRecorder;
use hds_serve::load::{generate, standalone_reference, LoadConfig, TenantLoad};
use hds_serve::{
    loopback, run_chaos_session, serve_with, ChaosTransport, ClientConfig, ClientError,
    ClientSession, ClientStatus, Frame, NetFault, NetFaultPlan, RejectCode, ServeConfig,
    ServeOptions, SessionManager, Transport, TransportError,
};

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

fn load(seed: u64) -> Vec<TenantLoad> {
    generate(&LoadConfig {
        tenants: 3,
        chunks_per_tenant: 4,
        events_per_chunk: 80,
        seed,
    })
    .expect("valid load shape")
}

fn serve_config() -> ServeConfig {
    ServeConfig::new(tiny_config(), mode())
        .with_shards(2)
        .with_auth_token("hunter2")
}

fn client_config() -> ClientConfig {
    ClientConfig {
        token: "hunter2".into(),
        ..ClientConfig::default()
    }
}

/// Runs one chaos schedule to completion and asserts byte-identity
/// against the fault-free standalone references.
fn assert_converges_identically(plan: NetFaultPlan, seed: u64) {
    let loads = load(seed);
    let mut manager = SessionManager::new(serve_config()).expect("valid serve config");
    let outcome = run_chaos_session(&mut manager, client_config(), plan, &loads, 50_000)
        .expect("chaos session must converge");
    assert_eq!(outcome.reports.len(), loads.len(), "missing reports");
    for (l, got) in loads.iter().zip(&outcome.reports) {
        let (expected, digest) = standalone_reference(&tiny_config(), mode(), l);
        assert_eq!(got.tenant, l.name);
        assert_eq!(
            got.report_json,
            serde_json::to_string(&expected).unwrap(),
            "report diverged for {} (seed {seed})",
            l.name
        );
        assert_eq!(got.image_digest, digest, "digest diverged for {}", l.name);
    }
    // The server's own outcomes agree with what the client received.
    let report = manager.report();
    assert_eq!(report.outcomes.len(), loads.len());
    assert_eq!(report.drains, 1, "goodbye drain must be recorded once");
}

#[test]
fn fault_free_run_is_the_baseline() {
    assert_converges_identically(NetFaultPlan::quiet(), 42);
}

#[test]
fn hostile_schedules_converge_byte_identically() {
    for seed in [1, 7, 1234, 0xDEAD_BEEF] {
        assert_converges_identically(NetFaultPlan::hostile(seed), seed);
    }
}

#[test]
fn every_fault_class_alone_converges() {
    for (i, fault) in NetFault::ALL.into_iter().enumerate() {
        let seed = 100 + i as u64;
        assert_converges_identically(NetFaultPlan::focused(seed, fault, 200), seed);
    }
}

#[test]
fn retries_and_dedup_actually_happen_under_pure_drops() {
    let loads = load(9);
    let mut manager = SessionManager::new(serve_config()).expect("valid serve config");
    let plan = NetFaultPlan::focused(9, NetFault::Drop, 500).with_max_faults(12);
    let outcome = run_chaos_session(&mut manager, client_config(), plan, &loads, 50_000)
        .expect("drops must converge");
    assert!(outcome.faults_injected > 0, "schedule never fired");
    assert!(
        outcome.stats.retries > 0,
        "dropped frames must force retries"
    );
    assert_eq!(outcome.reports.len(), loads.len());
}

#[test]
fn duplicates_are_absorbed_exactly_once() {
    let loads = load(11);
    let mut manager = SessionManager::new(serve_config()).expect("valid serve config");
    let plan = NetFaultPlan::focused(11, NetFault::Duplicate, 600).with_max_faults(16);
    let outcome = run_chaos_session(&mut manager, client_config(), plan, &loads, 50_000)
        .expect("duplicates must converge");
    assert!(outcome.faults_injected > 0, "schedule never fired");
    let report = manager.report();
    // Byte-identity (checked via outcomes length + the focused sweep
    // above) plus the dedup counter moving proves the duplicates were
    // seen and not re-applied.
    assert_eq!(report.outcomes.len(), loads.len());
}

#[test]
fn disconnects_force_reconnect_with_resume() {
    let loads = load(13);
    let mut manager = SessionManager::new(serve_config()).expect("valid serve config");
    let plan = NetFaultPlan::focused(13, NetFault::Disconnect, 300).with_max_faults(6);
    let outcome = run_chaos_session(&mut manager, client_config(), plan, &loads, 50_000)
        .expect("disconnects must converge");
    assert!(outcome.stats.reconnects > 0, "no reconnect ever happened");
    assert_eq!(outcome.reports.len(), loads.len());
    for (l, got) in loads.iter().zip(&outcome.reports) {
        let (expected, digest) = standalone_reference(&tiny_config(), mode(), l);
        assert_eq!(got.report_json, serde_json::to_string(&expected).unwrap());
        assert_eq!(got.image_digest, digest, "digest diverged for {}", l.name);
    }
}

#[test]
fn bad_auth_token_is_a_typed_reject_never_a_hang() {
    let loads = load(17);
    let mut manager = SessionManager::new(serve_config()).expect("valid serve config");
    let bad = ClientConfig {
        token: "wrong".into(),
        ..ClientConfig::default()
    };
    // A wrong token fails persistently: the client re-handshakes its
    // full auth-retry budget (tokens can be damaged in flight), then
    // surfaces the typed reject.
    let hellos = u64::from(bad.auth_retries) + 1;
    let err = run_chaos_session(&mut manager, bad, NetFaultPlan::quiet(), &loads, 50_000)
        .expect_err("bad token must fail");
    match err {
        hds_serve::ChaosHarnessError::Client(ClientError::Rejected { code, .. }) => {
            assert_eq!(code, RejectCode::AuthFailed);
        }
        other => panic!("expected a typed auth reject, got {other:?}"),
    }
    assert_eq!(manager.report().auth_failures, hellos);
}

#[test]
fn missing_auth_token_is_also_rejected() {
    let loads = load(19);
    let mut manager = SessionManager::new(serve_config()).expect("valid serve config");
    let anonymous = ClientConfig::default(); // empty token
    let err = run_chaos_session(
        &mut manager,
        anonymous,
        NetFaultPlan::quiet(),
        &loads,
        50_000,
    )
    .expect_err("missing token must fail");
    assert!(matches!(
        err,
        hds_serve::ChaosHarnessError::Client(ClientError::Rejected {
            code: RejectCode::AuthFailed,
            ..
        })
    ));
}

/// The drain-EOF satellite: a legacy peer that fires Flush and hangs
/// up — even tearing a frame on the way out — leaves the serve loop
/// with `Ok(())`, not a transport error.
#[test]
fn clean_disconnect_after_flush_is_ok_even_mid_frame() {
    let loads = load(23);
    let l = &loads[0];
    let (mut client, mut server) = loopback();
    client.send(&Frame::hello()).unwrap();
    client
        .send(&Frame::OpenSession {
            tenant: l.name.clone(),
            procedures: l.procedures.clone(),
        })
        .unwrap();
    for chunk in &l.chunks {
        client
            .send(&Frame::TraceChunk {
                tenant: l.name.clone(),
                seq: 0,
                events: chunk.clone().into(),
            })
            .unwrap();
    }
    client
        .send(&Frame::Flush {
            tenant: l.name.clone(),
        })
        .unwrap();
    // Hang up rudely: half a frame, then gone.
    let torn = Frame::Goodbye.encode();
    client.send_bytes(&torn[..torn.len() / 2]).unwrap();
    client.close();
    let mut manager =
        SessionManager::new(ServeConfig::new(tiny_config(), mode())).expect("valid serve config");
    let result = serve_with(
        &mut server,
        &mut manager,
        ServeOptions {
            pump_every: 1,
            max_idle_timeouts: 0,
            keepalive: false,
        },
    );
    assert_eq!(result, Ok(()), "fully served EOF must be clean");
    let report = manager.report();
    assert_eq!(report.outcomes.len(), 1, "the flush must have completed");
}

/// The same tear *before* the tenant is flushed stays an error: the
/// peer abandoned work in flight.
#[test]
fn torn_disconnect_with_unflushed_work_is_still_an_error() {
    let loads = load(29);
    let l = &loads[0];
    let (mut client, mut server) = loopback();
    client.send(&Frame::hello()).unwrap();
    client
        .send(&Frame::OpenSession {
            tenant: l.name.clone(),
            procedures: l.procedures.clone(),
        })
        .unwrap();
    let torn = Frame::Goodbye.encode();
    client.send_bytes(&torn[..torn.len() / 2]).unwrap();
    client.close();
    let mut manager =
        SessionManager::new(ServeConfig::new(tiny_config(), mode())).expect("valid serve config");
    let result = serve_with(
        &mut server,
        &mut manager,
        ServeOptions {
            pump_every: 1,
            max_idle_timeouts: 0,
            keepalive: false,
        },
    );
    assert_eq!(result, Err(TransportError::Closed));
}

/// A graceful Goodbye drain over the serve loop: reports flush before
/// the ack, and the loop returns cleanly.
#[test]
fn goodbye_drains_and_acks_through_the_serve_loop() {
    let loads = load(31);
    let l = &loads[0];
    let (mut client, mut server) = loopback();
    client.send(&Frame::hello()).unwrap();
    client
        .send(&Frame::OpenSession {
            tenant: l.name.clone(),
            procedures: l.procedures.clone(),
        })
        .unwrap();
    for chunk in &l.chunks {
        client
            .send(&Frame::TraceChunk {
                tenant: l.name.clone(),
                seq: 0,
                events: chunk.clone().into(),
            })
            .unwrap();
    }
    client
        .send(&Frame::Flush {
            tenant: l.name.clone(),
        })
        .unwrap();
    client.send(&Frame::Goodbye).unwrap();
    let mut manager =
        SessionManager::new(ServeConfig::new(tiny_config(), mode())).expect("valid serve config");
    let result = serve_with(
        &mut server,
        &mut manager,
        ServeOptions {
            // Never pump mid-stream: the Goodbye drain must do it.
            pump_every: 0,
            max_idle_timeouts: 0,
            keepalive: false,
        },
    );
    assert_eq!(result, Ok(()));
    // The client sees its report strictly before the goodbye ack.
    let mut got = Vec::new();
    while let Ok(Some(f)) = client.recv() {
        got.push(f.kind_tag());
    }
    let report_at = got.iter().position(|&k| k == Frame::hello().kind_tag());
    assert!(report_at.is_none(), "sanity: no client frames echo back");
    let report_pos = got
        .iter()
        .position(|&k| {
            k == Frame::Report {
                tenant: String::new(),
                report_json: String::new(),
                image_digest: 0,
            }
            .kind_tag()
        })
        .expect("report must arrive");
    let ack_pos = got
        .iter()
        .position(|&k| k == Frame::GoodbyeAck { drained: 0 }.kind_tag())
        .expect("goodbye ack must arrive");
    assert!(report_pos < ack_pos, "report must precede the drain ack");
}

/// Retry, reconnect, duplicate, and drain events all land in the
/// flight ring as `net` instants, keyed by [`NetEventKind`] code —
/// client-side events on the client's recorder, server-side on the
/// manager's.
#[test]
fn net_events_land_in_the_flight_ring() {
    let loads = load(41);
    let mut manager =
        SessionManager::with_observer(serve_config(), FlightRecorder::new(1 << 14)).unwrap();
    let mut client: ClientSession<ChaosTransport<_>, FlightRecorder> =
        ClientSession::with_observer(client_config(), FlightRecorder::new(1 << 14));
    for t in &loads {
        client.add_tenant(&t.name, t.procedures.clone(), t.chunks.clone());
    }
    // Drops force retries, disconnects force reconnects, duplicates
    // exercise server-side dedup.
    let plan = NetFaultPlan::quiet()
        .with_rate(NetFault::Drop, 400)
        .with_rate(NetFault::Duplicate, 250)
        .with_rate(NetFault::Disconnect, 60)
        .with_max_faults(24);
    let (client_end, mut server_end) = loopback();
    client.connect(ChaosTransport::new(client_end, plan));
    let mut polls = 0u64;
    loop {
        polls += 1;
        assert!(polls < 50_000, "flight chaos session stalled");
        match client.step().expect("must converge") {
            ClientStatus::Done => break,
            ClientStatus::NeedReconnect => {
                let plan = client
                    .take_transport()
                    .map_or_else(NetFaultPlan::quiet, |t| t.into_parts().1);
                let (client_end, fresh) = loopback();
                server_end = fresh;
                client.on_reconnected(ChaosTransport::new(client_end, plan));
            }
            ClientStatus::Working => {}
        }
        while let Ok(Some(frame)) = server_end.recv() {
            for response in manager.handle(frame) {
                let _ = server_end.send(&response);
            }
        }
        for response in manager.pump() {
            let _ = server_end.send(&response);
        }
    }
    let stats = *client.stats();
    let client_net: Vec<u64> = client
        .into_observer()
        .records()
        .iter()
        .filter(|r| r.name == "net")
        .map(|r| r.a)
        .collect();
    // NetEventKind codes: 0 = retry, 1 = reconnect.
    assert_eq!(
        client_net.iter().filter(|&&a| a == 0).count() as u64,
        stats.retries,
        "one net instant per retry"
    );
    assert_eq!(
        client_net.iter().filter(|&&a| a == 1).count() as u64,
        stats.reconnects,
        "one net instant per reconnect"
    );
    assert!(stats.retries > 0 && stats.reconnects > 0, "chaos too tame");
    let report = manager.report();
    let server_net: Vec<u64> = manager
        .into_observer()
        .records()
        .iter()
        .filter(|r| r.name == "net")
        .map(|r| r.a)
        .collect();
    // 3 = duplicate, 5 = drain.
    assert_eq!(
        server_net.iter().filter(|&&a| a == 3).count() as u64,
        report.duplicate_chunks,
        "one net instant per absorbed duplicate"
    );
    assert_eq!(server_net.iter().filter(|&&a| a == 5).count(), 1, "drain");
}

/// A refused handshake leaves an `auth_failure` net instant (code 2)
/// in the server's flight ring.
#[test]
fn auth_failure_leaves_a_net_instant() {
    let mut manager =
        SessionManager::with_observer(serve_config(), FlightRecorder::new(1 << 10)).unwrap();
    let responses = manager.handle(Frame::Hello {
        version: hds_serve::WIRE_VERSION,
        token: "wrong".into(),
        features: 0,
        backend: None,
    });
    assert!(matches!(
        responses.as_slice(),
        [Frame::Reject {
            code: RejectCode::AuthFailed,
            ..
        }]
    ));
    let rec = manager.into_observer();
    assert_eq!(
        rec.records()
            .iter()
            .filter(|r| r.name == "net" && r.a == 2)
            .count(),
        1
    );
}

/// Reliable-mode resume over a raw (fault-free) reconnect: the client
/// uploads half, the connection is torn down by hand, and the second
/// connection resumes from the server's acknowledged position instead
/// of resending everything.
#[test]
fn manual_reconnect_resumes_from_server_position() {
    let loads = load(37);
    let mut manager = SessionManager::new(serve_config()).expect("valid serve config");
    let mut client: ClientSession<_> = ClientSession::new(client_config());
    for t in &loads {
        client.add_tenant(&t.name, t.procedures.clone(), t.chunks.clone());
    }
    let (client_end, mut server_end) = loopback();
    client.connect(client_end);
    // Run a while, then kill the connection mid-session.
    let mut did_kill = false;
    let mut polls = 0u64;
    loop {
        polls += 1;
        assert!(polls < 50_000, "session stalled");
        match client.step().expect("no fatal errors expected") {
            ClientStatus::Done => break,
            ClientStatus::NeedReconnect => {
                let (client_end, fresh) = loopback();
                server_end = fresh;
                client.on_reconnected(client_end);
            }
            ClientStatus::Working => {}
        }
        if polls == 10 && !did_kill {
            did_kill = true;
            if let Some(mut t) = client.take_transport() {
                t.close();
            }
        }
        while let Ok(Some(frame)) = server_end.recv() {
            for response in manager.handle(frame) {
                let _ = server_end.send(&response);
            }
        }
        for response in manager.pump() {
            let _ = server_end.send(&response);
        }
    }
    assert!(did_kill, "the kill must have happened");
    assert_eq!(client.stats().reconnects, 1);
    let report = manager.report();
    assert_eq!(report.outcomes.len(), loads.len());
    for (l, outcome) in loads.iter().zip(&report.outcomes) {
        let (expected, digest) = standalone_reference(&tiny_config(), mode(), l);
        assert_eq!(outcome.report, expected, "diverged for {}", l.name);
        assert_eq!(outcome.image_digest, digest);
    }
}
