//! The cluster sweep: seeded schedules driving a client through the
//! router tier and a fleet of shard-owner processes while owners are
//! killed mid-chunk (`SIGKILL` semantics — the whole process state
//! drops) and the membership churns. Every schedule must finish with
//! zero panics and per-tenant reports **byte-identical** to crash-free
//! standalone sessions — the cluster's determinism contract at process
//! granularity.
//!
//! Five schedule families:
//!
//! 1. **Crash-free fleets** — 2, 4, and 8 owners; the clustered run is
//!    the standalone run, byte for byte.
//! 2. **Kill + restart** — the owner serving a live tenant is killed
//!    mid-chunk at swept polls and restarted empty; the router rebuilds
//!    its tenants from basis record + journal replay.
//! 3. **Kill + re-home** — same kills, but the owner leaves the fleet
//!    and its tenants re-home onto the survivors.
//! 4. **Membership churn** — an owner joins mid-stream, the live
//!    tenant's owner then drains out (planned migrations over detaching
//!    exports).
//! 5. **Mid-handoff kills** — the destination or source of an active
//!    migration dies before the handoff completes.

use std::collections::BTreeMap;

use hds_cluster::{run_cluster_session, Cluster, KillPolicy, RouterConfig};
use hds_serve::client::{ClientConfig, TenantReport};
use hds_serve::load::{generate, LoadConfig, TenantLoad};
use hds_serve::ServeConfig;
use hds_workloads::Scale;

use crate::{assert_identical, references, tiny_config, MODE};

fn serve_config() -> ServeConfig {
    ServeConfig::new(tiny_config(), MODE).with_shards(2)
}

fn router_config(refresh_every: u64) -> RouterConfig {
    let mut cfg = RouterConfig::default();
    cfg.link.window = 4;
    cfg.refresh_every = refresh_every;
    cfg
}

fn client_config() -> ClientConfig {
    ClientConfig {
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

/// Crash-free standalone twins, cached per seed.
type References = BTreeMap<u64, Vec<TenantReport>>;

fn owner_ids(n: u32) -> Vec<u32> {
    (0..n).collect()
}

fn live_owner(cluster: &Cluster) -> Option<u32> {
    let tenant = cluster.router().unfinished_tenants().into_iter().next()?;
    cluster.router().owner_of(&tenant)
}

/// Runs one schedule and asserts byte-identity against the cached
/// references. Returns the finished cluster for family-specific
/// assertions.
fn run_schedule(
    refs: &mut References,
    what: &str,
    owners: u32,
    refresh_every: u64,
    seed: u64,
    script: impl FnMut(u64, &mut Cluster),
) -> Cluster {
    let loads = load(seed);
    let mut cluster = Cluster::new(
        serve_config(),
        router_config(refresh_every),
        &owner_ids(owners),
    )
    .expect("valid serve config");
    let outcome = run_cluster_session(&mut cluster, client_config(), &loads, 50_000, script)
        .unwrap_or_else(|e| panic!("{what} (owners {owners}, seed {seed}) failed: {e}"));
    let expected = refs.entry(seed).or_insert_with(|| references(&loads));
    assert_identical(
        &format!("{what} (owners {owners}, seed {seed})"),
        &outcome.reports,
        expected,
    );
    cluster
}

pub fn sweep(scale: Scale) {
    let seeds: u64 = match scale {
        Scale::Test => 3,
        Scale::Paper => 8,
    };
    let kill_polls: &[u64] = &[5, 11, 19];
    let fleet_sizes: &[u32] = &[2, 4, 8];
    let mut schedules = 0u64;
    let (mut restarts, mut rehomes, mut migrations, mut replays) = (0u64, 0u64, 0u64, 0u64);

    // Family 1: crash-free fleets (with and without record refreshes).
    let mut refs = References::new();
    for seed in 0..seeds {
        for &owners in fleet_sizes {
            for refresh in [0u64, 2] {
                run_schedule(&mut refs, "crash-free", owners, refresh, seed, |_, _| {});
                schedules += 1;
            }
        }
    }
    println!("crash-free fleets: {schedules} schedules byte-identical");

    // Family 2: kill the live tenant's owner mid-chunk, restart it.
    let before = schedules;
    for seed in 0..seeds {
        for &owners in fleet_sizes {
            for &kill_at in kill_polls {
                let mut killed = false;
                let cluster = run_schedule(
                    &mut refs,
                    "kill+restart",
                    owners,
                    0,
                    seed,
                    |poll, cluster| {
                        if poll >= kill_at && !killed {
                            if let Some(victim) = live_owner(cluster) {
                                cluster
                                    .kill_owner(victim, KillPolicy::Restart)
                                    .expect("restart boots");
                                killed = true;
                            }
                        }
                    },
                );
                let tally = cluster.router().tally();
                assert_eq!(tally.owner_restarts, 1, "the kill must have landed");
                restarts += tally.owner_restarts;
                replays += tally.replayed_chunks;
                schedules += 1;
            }
        }
    }
    println!(
        "kill+restart: {} schedules byte-identical ({restarts} restarts)",
        schedules - before
    );

    // Family 3: kill the live tenant's owner, re-home onto survivors.
    let before = schedules;
    for seed in 0..seeds {
        for &owners in &[4u32, 8] {
            for &kill_at in kill_polls {
                let mut killed = false;
                let cluster = run_schedule(
                    &mut refs,
                    "kill+rehome",
                    owners,
                    0,
                    seed,
                    |poll, cluster| {
                        if poll >= kill_at && !killed {
                            if let Some(victim) = live_owner(cluster) {
                                cluster
                                    .kill_owner(victim, KillPolicy::Rehome)
                                    .expect("rehome never restarts");
                                killed = true;
                            }
                        }
                    },
                );
                let tally = cluster.router().tally();
                assert!(tally.rehomes >= 1, "the kill must have re-homed a tenant");
                rehomes += tally.rehomes;
                replays += tally.replayed_chunks;
                schedules += 1;
            }
        }
    }
    println!(
        "kill+rehome: {} schedules byte-identical ({rehomes} tenants re-homed)",
        schedules - before
    );

    // Family 4: membership churn — join mid-stream, drain the live
    // tenant's owner out.
    let before = schedules;
    for seed in 0..seeds {
        let mut left = None;
        let cluster = run_schedule(&mut refs, "join+leave", 2, 0, seed, |poll, cluster| {
            if poll == 6 {
                cluster.join_owner(9).expect("join boots");
            }
            if poll >= 12 && left.is_none() {
                if let Some(owner) = live_owner(cluster) {
                    cluster.leave_owner(owner);
                    left = Some(owner);
                }
            }
            if let Some(owner) = left {
                cluster.finish_leave(owner);
            }
        });
        let tally = cluster.router().tally();
        assert!(tally.migrations >= 1, "the departure must have migrated");
        migrations += tally.migrations;
        schedules += 1;
    }
    println!(
        "join+leave churn: {} schedules byte-identical ({migrations} live migrations)",
        schedules - before
    );

    // Family 5: kills landing mid-handoff (destination, then source).
    let before = schedules;
    for seed in 0..seeds {
        for victim_is_dest in [true, false] {
            run_schedule(
                &mut refs,
                "mid-handoff kill",
                2,
                0,
                seed,
                |poll, cluster| {
                    if poll == 6 {
                        cluster.join_owner(9).expect("join boots");
                    }
                    if poll == if victim_is_dest { 8 } else { 7 } {
                        let victim = if victim_is_dest { 9 } else { 0 };
                        cluster
                            .kill_owner(victim, KillPolicy::Restart)
                            .expect("restart boots");
                    }
                },
            );
            schedules += 1;
        }
    }
    println!(
        "mid-handoff kills: {} schedules byte-identical",
        schedules - before
    );

    println!(
        "chaos-cluster: {schedules} schedules, zero panics, all reports byte-identical \
         ({restarts} restarts, {rehomes} re-homes, {migrations} migrations, \
         {replays} chunks replayed)"
    );
}
