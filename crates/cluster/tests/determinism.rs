//! The cluster's contract: a tenant served through the router and a
//! fleet of owner processes produces the *byte-identical* report and
//! image digest of an uninterrupted standalone session — at 2, 4, and
//! 8 owners; with owners killed mid-chunk and restarted; with owners
//! killed and their tenants re-homed; across planned join/leave
//! migrations; and with the kill landing mid-handoff.

use hds_cluster::{run_cluster_session, Cluster, KillPolicy, RouterConfig};
use hds_core::{OptimizerConfig, PrefetchPolicy, RunMode};
use hds_serve::client::ClientConfig;
use hds_serve::load::{generate, standalone_reference, LoadConfig, TenantLoad};
use hds_serve::ServeConfig;
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

fn serve_config() -> ServeConfig {
    ServeConfig::new(tiny_config(), mode())
        .with_shards(2)
        .with_auth_token("hunter2")
}

fn router_config(refresh_every: u64) -> RouterConfig {
    let mut cfg = RouterConfig::default();
    cfg.link.token = "hunter2".into();
    cfg.link.window = 4;
    cfg.auth_token = Some("hunter2".into());
    cfg.refresh_every = refresh_every;
    cfg
}

fn client_config() -> ClientConfig {
    ClientConfig {
        token: "hunter2".into(),
        window: 4,
        ..ClientConfig::default()
    }
}

fn load(seed: u64) -> Vec<TenantLoad> {
    generate(&LoadConfig {
        tenants: 5,
        chunks_per_tenant: 6,
        events_per_chunk: 60,
        seed,
    })
    .expect("valid load config")
}

fn owner_ids(n: u32) -> Vec<u32> {
    (0..n).collect()
}

/// Runs the cluster session under `script` and asserts every report
/// and digest is byte-identical to the crash-free standalone twin.
fn assert_cluster_matches_standalone(
    owners: u32,
    refresh_every: u64,
    seed: u64,
    script: impl FnMut(u64, &mut Cluster<MetricsRecorder>),
) -> Cluster<MetricsRecorder> {
    let loads = load(seed);
    let mut cluster = Cluster::with_observer(
        serve_config(),
        router_config(refresh_every),
        &owner_ids(owners),
        MetricsRecorder::new(),
    )
    .expect("valid serve config");
    let outcome = run_cluster_session(&mut cluster, client_config(), &loads, 50_000, script)
        .expect("cluster session must converge");
    assert_eq!(outcome.reports.len(), loads.len(), "missing reports");
    for (l, got) in loads.iter().zip(&outcome.reports) {
        let (expected, digest) = standalone_reference(&tiny_config(), mode(), l);
        assert_eq!(got.tenant, l.name);
        assert_eq!(
            got.report_json,
            serde_json::to_string(&expected).expect("report serializes"),
            "report diverged for {} ({owners} owners, seed {seed})",
            l.name
        );
        assert_eq!(
            got.image_digest, digest,
            "digest diverged for {} ({owners} owners, seed {seed})",
            l.name
        );
    }
    assert!(cluster.router().all_flushed());
    // The router's telemetry reconciles with its own tally.
    // `replayed_chunks` is left out: the tally also counts owner-restart
    // replays, which the recorder's counter excludes.
    let (rec, tally) = (cluster.router().observer(), cluster.router().tally());
    assert_eq!(rec.cluster_migrations(), tally.migrations);
    assert_eq!(rec.cluster_rehomes(), tally.rehomes);
    assert_eq!(rec.cluster_owner_restarts(), tally.owner_restarts);
    cluster
}

#[test]
fn crash_free_cluster_matches_standalone_at_2_4_8_owners() {
    for owners in [2, 4, 8] {
        assert_cluster_matches_standalone(owners, 0, 42, |_, _| {});
    }
}

#[test]
fn record_refreshes_do_not_perturb_reports() {
    for owners in [2, 4] {
        let cluster = assert_cluster_matches_standalone(owners, 2, 43, |_, _| {});
        assert!(
            cluster.router().tally().refreshes > 0,
            "refresh_every=2 must actually refresh"
        );
    }
}

/// The owner currently serving a mid-stream tenant, if any — killing
/// it guarantees the rebuild path actually runs.
fn live_owner(cluster: &Cluster<MetricsRecorder>) -> Option<u32> {
    let tenant = cluster.router().unfinished_tenants().into_iter().next()?;
    cluster.router().owner_of(&tenant)
}

#[test]
fn owner_killed_mid_chunk_and_restarted_matches_crash_free_twin() {
    for owners in [2, 4, 8] {
        for kill_at in [5u64, 11, 19] {
            let mut killed = false;
            let cluster = assert_cluster_matches_standalone(owners, 0, 44, |poll, cluster| {
                if poll >= kill_at && !killed {
                    if let Some(victim) = live_owner(cluster) {
                        cluster
                            .kill_owner(victim, KillPolicy::Restart)
                            .expect("restart boots");
                        killed = true;
                    }
                }
            });
            assert_eq!(cluster.router().tally().owner_restarts, 1);
        }
    }
}

#[test]
fn owner_killed_mid_chunk_and_rehomed_matches_crash_free_twin() {
    for kill_at in [5u64, 11, 19] {
        let mut killed = None;
        let cluster = assert_cluster_matches_standalone(4, 0, 45, |poll, cluster| {
            if poll >= kill_at && killed.is_none() {
                if let Some(victim) = live_owner(cluster) {
                    cluster
                        .kill_owner(victim, KillPolicy::Rehome)
                        .expect("rehome never restarts");
                    killed = Some(victim);
                }
            }
        });
        let victim = killed.expect("a live owner was killed");
        assert!(!cluster.owner_ids().contains(&victim));
        assert!(!cluster.router().ring().contains(victim));
        assert!(
            cluster.router().tally().rehomes >= 1,
            "the kill must have re-homed a live tenant (kill_at {kill_at})"
        );
    }
}

#[test]
fn kills_under_active_refreshes_stay_identical() {
    // Refreshing journals truncate at export marks; a kill must still
    // rebuild losslessly from record + remaining journal.
    for (owners, kill_at) in [(2u32, 6u64), (4, 12), (4, 20)] {
        let victim = kill_at as u32 % owners;
        assert_cluster_matches_standalone(owners, 2, 46, move |poll, cluster| {
            if poll == kill_at {
                cluster
                    .kill_owner(victim, KillPolicy::Restart)
                    .expect("restart boots");
            }
        });
    }
}

#[test]
fn join_and_leave_migrate_live_tenants_identically() {
    let mut left = None;
    let cluster = assert_cluster_matches_standalone(2, 0, 47, |poll, cluster| {
        if poll == 6 {
            cluster.join_owner(7).expect("join boots");
        }
        if poll >= 12 && left.is_none() {
            // Drain whichever owner is serving a live tenant, so the
            // departure forces an actual mid-stream handoff.
            if let Some(owner) = live_owner(cluster) {
                cluster.leave_owner(owner);
                left = Some(owner);
            }
        }
        if let Some(owner) = left {
            cluster.finish_leave(owner);
        }
    });
    // The departed owner may even be the newly joined one — the live
    // tenant can land on owner 7 and then be drained right back off.
    let owner = left.expect("an owner departed");
    assert!(
        !cluster.router().ring().contains(owner),
        "departed the ring"
    );
    assert!(
        !cluster.owner_ids().contains(&owner),
        "the departed owner's process was dropped after draining"
    );
    assert!(
        cluster.router().tally().migrations >= 1,
        "the departure must have migrated a live tenant"
    );
}

#[test]
fn a_kill_landing_mid_handoff_still_matches() {
    // Join triggers planned migrations; killing the *destination* two
    // polls later lands inside the export/replay window for whatever
    // tenant was moving.
    let cluster = assert_cluster_matches_standalone(2, 0, 48, |poll, cluster| {
        if poll == 6 {
            cluster.join_owner(7).expect("join boots");
        }
        if poll == 8 {
            cluster
                .kill_owner(7, KillPolicy::Restart)
                .expect("restart boots");
        }
    });
    assert!(cluster.router().ring().contains(7));
}

#[test]
fn killing_the_export_source_mid_handoff_still_matches() {
    assert_cluster_matches_standalone(2, 0, 49, |poll, cluster| {
        if poll == 6 {
            cluster.join_owner(7).expect("join boots");
        }
        if poll == 7 {
            // Whichever of 0/1 currently owns a migrating tenant, the
            // source side of some handoff dies here.
            cluster
                .kill_owner(0, KillPolicy::Restart)
                .expect("restart boots");
        }
    });
}

/// Every owner dies mid-stream (re-homed, so the second kill leaves no
/// survivor and the routes wait), then a fresh owner joins and rebuilds
/// them from basis record plus journal: still byte-identical.
#[test]
fn losing_every_owner_then_joining_matches() {
    let cluster = assert_cluster_matches_standalone(2, 0, 5, |poll, cluster| {
        if poll == 10 {
            for victim in [0, 1] {
                cluster
                    .kill_owner(victim, KillPolicy::Rehome)
                    .expect("rehome never restarts");
            }
        }
        if poll == 20 {
            cluster.join_owner(5).expect("join boots");
        }
    });
    // Both kills hit the live tenant: one re-home onto the survivor,
    // one onto the joined owner.
    assert_eq!(
        cluster.router().tally().rehomes,
        2,
        "both kills must land before the streams finish"
    );
    assert_eq!(cluster.owner_ids(), vec![5]);
    // With the fleet empty, the next tenant's open waits for the join
    // too (retry-safe `Busy`) instead of failing the client.
    assert_cluster_matches_standalone(2, 0, 5, |poll, cluster| {
        if poll == 6 {
            for victim in [0, 1] {
                cluster
                    .kill_owner(victim, KillPolicy::Rehome)
                    .expect("rehome never restarts");
            }
        }
        if poll == 12 {
            cluster.join_owner(5).expect("join boots");
        }
    });
}
