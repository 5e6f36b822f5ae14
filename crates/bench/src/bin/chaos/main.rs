//! Chaos harness: every layer under seeded fault schedules, in one
//! run. Each layer is one module; this file is the core they share —
//! the seed loop under `catch_unwind` with its per-schedule mismatch
//! list, the byte-identity comparison of served reports against
//! standalone twins, and the coverage asserts.
//!
//! * [`guard`] — the optimizer under corrupted traces, truncated
//!   bursts, failed edits, thread switches and analysis starvation,
//!   with budget guards and accuracy deoptimization on a rotating
//!   subset: telemetry reconciles exactly, and failed edits degrade to
//!   the analyze baseline. Writes `results/BENCH_guard.json`.
//! * [`crash`] — the supervised optimizer under kill schedules: every
//!   recovered lineage is bit-identical to its crash-free twin.
//! * [`net`] — a reliable client against the sharded server over a
//!   hostile loopback: every schedule converges byte-identically.
//!   Writes `results/BENCH_net.json`.
//! * [`store`] — the durable store under kills, bit rot and faulty
//!   disks, plus the serve path spilling to a hostile disk: recovery
//!   is byte-identical or an attributed restart.
//! * [`cluster`] — the router and owner fleet under kills, re-homes,
//!   membership churn and mid-handoff kills: byte-identical to
//!   standalone sessions.
//!
//! Every sweep runs on every invocation; no schedule may panic, and a
//! failure prints its seed so the schedule replays exactly.
//!
//! Run: `cargo run --release -p hds-bench --bin chaos -- --test-scale`
//! (`--schedules <n>` sets the guard and crash sweeps' seed count,
//! default 100; without `--test-scale` the net, store and cluster
//! sweeps run their larger loads).

mod cluster;
mod crash;
mod guard;
mod net;
mod store;

use std::panic::{catch_unwind, AssertUnwindSafe};

use hds_bench::{parsed_arg, scale_from_args};
use hds_core::{OptimizerConfig, PrefetchPolicy, RunMode};
use hds_serve::client::TenantReport;
use hds_serve::load::{standalone_reference, TenantLoad};
use hds_workloads::Benchmark;

/// The mode every sweep optimizes under.
const MODE: RunMode = RunMode::Optimize(PrefetchPolicy::StreamTail);

/// Runs `schedule` for every seed in `0..schedules` on the benchmark
/// the seed rotates to, each under `catch_unwind`. A schedule returns
/// its result and its mismatches; every mismatch and panic is printed
/// with its seed, and the sweep fails if there was any.
fn seed_sweep<R>(schedules: u64, schedule: impl Fn(u64, Benchmark) -> (R, Vec<String>)) -> Vec<R> {
    let mut results = Vec::new();
    let (mut panics, mut failures) = (0u64, 0u64);
    for seed in 0..schedules {
        let which = Benchmark::ALL[(seed % Benchmark::ALL.len() as u64) as usize];
        match catch_unwind(AssertUnwindSafe(|| schedule(seed, which))) {
            Ok((result, mismatches)) => {
                if !mismatches.is_empty() {
                    failures += 1;
                    for m in &mismatches {
                        eprintln!("[seed {seed}] {}: {m}", which.name());
                    }
                }
                results.push(result);
            }
            Err(_) => {
                panics += 1;
                eprintln!("[seed {seed}] {}: PANIC", which.name());
            }
        }
    }
    assert_eq!(panics, 0, "{panics} schedules panicked");
    assert_eq!(
        failures, 0,
        "{failures} schedules failed reconciliation or bit-identity"
    );
    results
}

/// One mismatch line per `(what, observed, reported)` check whose two
/// counts differ.
fn reconcile(checks: &[(&str, u64, u64)]) -> Vec<String> {
    checks
        .iter()
        .filter(|(_, observed, reported)| observed != reported)
        .map(|(what, observed, reported)| {
            format!("{what}: observer {observed} != report {reported}")
        })
        .collect()
}

/// Asserts a sweep actually exercised `what`.
fn assert_exercised(what: impl std::fmt::Display, hits: u64) {
    assert!(
        hits > 0,
        "{what} never fired — the sweep is not exercising it"
    );
}

/// The optimizer configuration of the serve-level sweeps: short bursts
/// and streams, so a few hundred events per tenant complete several
/// optimization cycles.
fn tiny_config() -> OptimizerConfig {
    let mut c = OptimizerConfig::test_scale();
    c.bursty = hds_bursty::BurstyConfig::new(8, 8, 2, 3);
    c.analysis.min_length = 4;
    c.analysis.min_unique_refs = 2;
    c
}

/// Each tenant run alone through a standalone session, in load order:
/// the reports every served lineage must reproduce byte for byte.
fn references(loads: &[TenantLoad]) -> Vec<TenantReport> {
    loads
        .iter()
        .map(|l| {
            let (report, image_digest) = standalone_reference(&tiny_config(), MODE, l);
            TenantReport {
                tenant: l.name.clone(),
                report_json: serde_json::to_string(&report).expect("report serialises"),
                image_digest,
            }
        })
        .collect()
}

/// Asserts served reports equal their standalone twins, tenant by
/// tenant, in load order.
fn assert_identical(what: &str, got: &[TenantReport], refs: &[TenantReport]) {
    assert_eq!(got.len(), refs.len(), "{what}: missing reports");
    for (got, want) in got.iter().zip(refs) {
        assert_eq!(got.tenant, want.tenant, "{what}: report order");
        assert_eq!(
            got.report_json, want.report_json,
            "{what}: report diverged for {}",
            want.tenant
        );
        assert_eq!(
            got.image_digest, want.image_digest,
            "{what}: digest diverged for {}",
            want.tenant
        );
    }
}

fn main() {
    let scale = scale_from_args();
    let schedules = parsed_arg("--schedules", 100);
    guard::sweep(schedules);
    crash::sweep(schedules);
    net::sweep(scale);
    store::sweep(scale);
    cluster::sweep(scale);
    println!("chaos: all five sweeps passed");
}
