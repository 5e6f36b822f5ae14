//! A malformed event stream fails its own tenant only: the shard drops
//! that tenant, the manager answers [`RejectCode::MalformedStream`],
//! the client surfaces it as [`ClientError::Rejected`], and a healthy
//! tenant sharing the shard still reports exactly what a standalone
//! run of its stream does.

use hds_core::{OptimizerConfig, PrefetchPolicy, RunMode};
use hds_serve::load::{generate, standalone_reference, LoadConfig};
use hds_serve::{
    loopback, serve_tick, ClientConfig, ClientError, ClientSession, ClientStatus,
    LoopbackTransport, RejectCode, ServeConfig, SessionManager,
};
use hds_vulcan::{Event, ProcId};

type Client = ClientSession<LoopbackTransport>;

fn config() -> OptimizerConfig {
    let mut c = OptimizerConfig::test_scale();
    c.bursty = hds_bursty::BurstyConfig::new(8, 8, 2, 3);
    c.analysis.min_length = 4;
    c.analysis.min_unique_refs = 2;
    c
}

fn mode() -> RunMode {
    RunMode::Optimize(PrefetchPolicy::StreamTail)
}

/// Steps `client` and ticks its end of the link until `until` maps a
/// step's result to an answer.
fn run_until<R>(
    manager: &mut SessionManager,
    client: &mut Client,
    end: &mut LoopbackTransport,
    mut until: impl FnMut(&Client, Result<ClientStatus, ClientError>) -> Option<R>,
) -> R {
    for _ in 0..10_000 {
        let status = client.step();
        if let Some(answer) = until(client, status) {
            return answer;
        }
        serve_tick(manager, end, SessionManager::handle, SessionManager::pump);
    }
    panic!("no answer within the poll budget");
}

/// Streams half of a healthy tenant, then a second connection's tenant
/// `bad` sends `malformed`, then the healthy tenant finishes. Returns
/// the detail of the reject `bad` received.
fn malformed_tenant_is_rejected_alone(malformed: Vec<Event>) -> String {
    let loads = generate(&LoadConfig {
        tenants: 1,
        chunks_per_tenant: 6,
        events_per_chunk: 200,
        seed: 23,
    })
    .expect("valid load shape");
    let good = &loads[0];
    // One shard, so the malformed tenant shares it with the healthy one.
    let mut manager =
        SessionManager::new(ServeConfig::new(config(), mode()).with_shards(1)).expect("valid");

    let (end, mut good_server) = loopback();
    let mut good_client = Client::new(ClientConfig::default());
    good_client.add_tenant_streaming(&good.name, good.procedures.clone());
    good_client.connect(end);
    let half = good.chunks.len() / 2;
    for chunk in &good.chunks[..half] {
        assert!(good_client.push_chunk(&good.name, chunk.clone()));
    }
    run_until(&mut manager, &mut good_client, &mut good_server, |c, s| {
        s.expect("healthy tenant streams");
        (c.acked_seq(&good.name) == Some(half as u64)).then_some(())
    });

    let (end, mut bad_server) = loopback();
    let mut bad_client = Client::new(ClientConfig::default());
    bad_client.add_tenant_streaming("bad", good.procedures.clone());
    bad_client.connect(end);
    assert!(bad_client.push_chunk("bad", malformed));
    let err = run_until(&mut manager, &mut bad_client, &mut bad_server, |_, s| {
        s.err()
    });
    let ClientError::Rejected {
        code: RejectCode::MalformedStream,
        detail,
    } = err
    else {
        panic!("expected a malformed-stream reject, got {err:?}");
    };

    for chunk in &good.chunks[half..] {
        assert!(good_client.push_chunk(&good.name, chunk.clone()));
    }
    assert!(good_client.request_flush(&good.name));
    run_until(&mut manager, &mut good_client, &mut good_server, |_, s| {
        (s.expect("healthy tenant finishes") == ClientStatus::Done).then_some(())
    });
    let got = good_client.take_report(&good.name).expect("healthy report");
    let (expected, digest) = standalone_reference(&config(), mode(), good);
    assert_eq!(got.report_json, serde_json::to_string(&expected).unwrap());
    assert_eq!(got.image_digest, digest);

    let report = manager.report();
    assert_eq!(report.rejected, 1);
    assert_eq!(report.outcomes.len(), 1, "only the healthy tenant reports");
    detail
}

#[test]
fn unmatched_exit_fails_only_its_tenant() {
    let mut chunk = vec![Event::Exit(ProcId(0)), Event::Enter(ProcId(0))];
    chunk.extend([Event::Work(3); 8]);
    let detail = malformed_tenant_is_rejected_alone(chunk);
    assert_eq!(
        detail,
        "bad: event 0 (Exit(ProcId(0))): exit of proc0 with empty call stack"
    );
}

#[test]
fn thread_id_past_the_bound_fails_only_its_tenant() {
    let chunk = vec![
        Event::Enter(ProcId(0)),
        Event::Thread(u32::MAX),
        Event::Work(3),
    ];
    let detail = malformed_tenant_is_rejected_alone(chunk);
    assert_eq!(
        detail,
        "bad: event 1 (Thread(4294967295)): thread id at or above the bound of 1024"
    );
}
