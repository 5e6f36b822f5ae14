//! Cluster benchmark: router goodput and migration latency.
//!
//! Drives a full client → router → owner-fleet session at 2, 4, and 8
//! owners and reports **goodput in events per poll** — a deterministic,
//! machine-independent figure (every poll is one scheduler round across
//! the client, the router, and every owner process), so the trend gate
//! in `bench_trend` can compare it across commits without wall-clock
//! noise. Wall-clock events/s is recorded alongside for context only.
//!
//! Migration latency is measured the same deterministic way: a kill is
//! injected mid-stream and the session's total poll count is compared
//! against its crash-free twin — the delta is the price of the rebuild
//! (restart) or the re-home (leave), in polls.
//!
//! Output: `results/BENCH_cluster.json`, in the same self-describing
//! shape as the other `BENCH_*.json` artifacts.
//!
//! Run: `cargo run --release -p hds-bench --bin bench_cluster`
//! (add `--test-scale` for the fast smoke run).

use std::time::Instant;

use hds_bench::{obj, scale_field, scale_from_args, write_bench};
use hds_cluster::{run_cluster_session, Cluster, KillPolicy, RouterConfig};
use hds_core::{OptimizerConfig, PrefetchPolicy, RunMode};
use hds_serve::client::ClientConfig;
use hds_serve::load::{generate, LoadConfig, TenantLoad};
use hds_serve::ServeConfig;
use hds_workloads::Scale;
use serde::Value;

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
    ServeConfig::new(tiny_config(), mode()).with_shards(2)
}

fn router_config() -> RouterConfig {
    let mut cfg = RouterConfig::default();
    cfg.link.window = 4;
    cfg
}

fn client_config() -> ClientConfig {
    ClientConfig {
        window: 4,
        ..ClientConfig::default()
    }
}

fn load_config(scale: Scale) -> LoadConfig {
    match scale {
        Scale::Test => LoadConfig {
            tenants: 5,
            chunks_per_tenant: 6,
            events_per_chunk: 60,
            seed: 42,
        },
        Scale::Paper => LoadConfig {
            tenants: 12,
            chunks_per_tenant: 10,
            events_per_chunk: 120,
            seed: 42,
        },
    }
}

fn total_events(cfg: &LoadConfig) -> u64 {
    u64::from(cfg.tenants) * u64::from(cfg.chunks_per_tenant) * u64::from(cfg.events_per_chunk)
}

/// One complete cluster session. Returns `(polls, wall seconds)`;
/// panics if any report is missing — goodput over a broken session
/// would be meaningless.
fn run_session(
    owners: u32,
    loads: &[TenantLoad],
    script: impl FnMut(u64, &mut Cluster),
) -> (u64, f64) {
    let ids: Vec<u32> = (0..owners).collect();
    let mut cluster =
        Cluster::new(serve_config(), router_config(), &ids).expect("valid serve config");
    let start = Instant::now();
    let outcome = run_cluster_session(&mut cluster, client_config(), loads, 200_000, script)
        .expect("cluster session must converge");
    let secs = start.elapsed().as_secs_f64();
    assert_eq!(outcome.reports.len(), loads.len(), "missing reports");
    (outcome.polls, secs)
}

#[allow(clippy::cast_precision_loss)]
fn per_poll(events: u64, polls: u64) -> f64 {
    events as f64 / polls.max(1) as f64
}

#[allow(clippy::cast_precision_loss)]
fn per_sec(events: u64, secs: f64) -> f64 {
    events as f64 / secs.max(1e-9)
}

fn main() {
    let scale = scale_from_args();
    let load_cfg = load_config(scale);
    let loads = generate(&load_cfg).expect("valid load config");
    let events = total_events(&load_cfg);
    println!(
        "bench_cluster: {} tenants x {} chunks x {} events",
        load_cfg.tenants, load_cfg.chunks_per_tenant, load_cfg.events_per_chunk
    );

    // Router goodput: crash-free sessions at each fleet size.
    let mut per_owners = Vec::new();
    let mut crash_free_polls = 0u64;
    for owners in [2u32, 4, 8] {
        let (polls, secs) = run_session(owners, &loads, |_, _| {});
        if owners == 4 {
            crash_free_polls = polls;
        }
        println!(
            "  {owners} owners: {polls} polls, {:.1} events/poll ({:.0} events/s wall)",
            per_poll(events, polls),
            per_sec(events, secs)
        );
        per_owners.push(obj(vec![
            ("owners", Value::U64(u64::from(owners))),
            ("polls", Value::U64(polls)),
            ("events", Value::U64(events)),
            (
                "goodput_events_per_poll",
                Value::F64(per_poll(events, polls)),
            ),
            ("events_per_s_wall", Value::F64(per_sec(events, secs))),
        ]));
    }

    // Migration latency: kill the owner of the first live tenant at a
    // fixed poll and compare total polls against the crash-free twin.
    let mut migrations = Vec::new();
    for (kind, policy) in [
        ("restart_rebuild", KillPolicy::Restart),
        ("rehome", KillPolicy::Rehome),
    ] {
        let mut killed = false;
        let (polls, _) = run_session(4, &loads, |poll, cluster| {
            if poll >= 11 && !killed {
                let victim = cluster
                    .router()
                    .unfinished_tenants()
                    .into_iter()
                    .next()
                    .and_then(|t| cluster.router().owner_of(&t));
                if let Some(victim) = victim {
                    cluster.kill_owner(victim, policy).expect("kill succeeds");
                    killed = true;
                }
            }
        });
        let latency = polls.saturating_sub(crash_free_polls);
        println!("  {kind}: {polls} polls ({latency} over crash-free)");
        migrations.push(obj(vec![
            ("kind", Value::Str(kind.to_string())),
            ("polls", Value::U64(polls)),
            ("latency_polls", Value::U64(latency)),
        ]));
    }

    write_bench(
        "cluster",
        None,
        vec![
            scale_field(scale),
            ("tenants", Value::U64(u64::from(load_cfg.tenants))),
            (
                "chunks_per_tenant",
                Value::U64(u64::from(load_cfg.chunks_per_tenant)),
            ),
            (
                "events_per_chunk",
                Value::U64(u64::from(load_cfg.events_per_chunk)),
            ),
            ("events", Value::U64(events)),
            ("crash_free_polls_4_owners", Value::U64(crash_free_polls)),
            ("per_owners", Value::Arr(per_owners)),
            ("migrations", Value::Arr(migrations)),
        ],
    );
}
