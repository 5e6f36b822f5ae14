//! The hostile-network sweep: a focused block of schedules per fault
//! class plus mixed hostile mixes, each driving a reliable
//! `ClientSession` against a sharded [`SessionManager`] over a
//! fault-injected loopback. Every schedule must converge with reports
//! byte-identical to the standalone twins; per-class retry counts,
//! recovery latency (extra polls vs the quiet baseline), and goodput
//! (events delivered per poll) land in `results/BENCH_net.json`.

use hds_bench::{obj, scale_field, write_bench};
use hds_core::config_fingerprint;
use hds_serve::client::TenantReport;
use hds_serve::load::{generate, LoadConfig, TenantLoad};
use hds_serve::{
    run_chaos_session, ChaosOutcome, ClientConfig, NetFault, NetFaultPlan, ServeConfig,
    SessionManager,
};
use hds_workloads::Scale;
use serde::Value;

use crate::{assert_exercised, assert_identical, references, tiny_config, MODE};

/// Schedules per focused fault-class block.
const PER_CLASS: u64 = 13;
/// Mixed hostile schedules on top of the focused blocks.
const HOSTILE: u64 = 26;
/// Poll budget per schedule; exceeding it is a convergence bug.
const MAX_POLLS: u64 = 200_000;

/// Accumulated robustness counters over one block of schedules.
#[derive(Default)]
struct Block {
    schedules: u64,
    faults: u64,
    retries: u64,
    reconnects: u64,
    rejects: u64,
    polls: u64,
    max_polls: u64,
}

impl Block {
    fn absorb(&mut self, outcome: &ChaosOutcome) {
        self.schedules += 1;
        self.faults += u64::from(outcome.faults_injected);
        self.retries += outcome.stats.retries;
        self.reconnects += outcome.stats.reconnects;
        self.rejects += outcome.stats.rejects;
        self.polls += outcome.polls;
        self.max_polls = self.max_polls.max(outcome.polls);
    }

    #[allow(clippy::cast_precision_loss)]
    fn mean_polls(&self) -> f64 {
        self.polls as f64 / self.schedules.max(1) as f64
    }

    fn print(&self, label: &str) {
        println!(
            "  {:<14} {:>3} schedules, {:>4} faults, {:>4} retries, {:>3} reconnects, mean {:>6.0} polls",
            label,
            self.schedules,
            self.faults,
            self.retries,
            self.reconnects,
            self.mean_polls(),
        );
    }

    #[allow(clippy::cast_precision_loss)]
    fn to_value(&self, label: &str, total_events: u64, baseline_polls: u64) -> Value {
        let mean = self.mean_polls();
        obj(vec![
            ("fault", Value::Str(label.to_string())),
            ("schedules", Value::U64(self.schedules)),
            ("faults_injected", Value::U64(self.faults)),
            ("retries", Value::U64(self.retries)),
            ("reconnects", Value::U64(self.reconnects)),
            ("rejects", Value::U64(self.rejects)),
            ("mean_polls", Value::F64(mean)),
            ("max_polls", Value::U64(self.max_polls)),
            (
                "recovery_latency_polls",
                Value::F64(mean - baseline_polls as f64),
            ),
            (
                "goodput_events_per_poll",
                Value::F64(total_events as f64 / mean.max(1.0)),
            ),
        ])
    }
}

/// Runs one schedule to completion, asserting byte-identity against
/// the standalone twins.
fn run_verified(
    loads: &[TenantLoad],
    refs: &[TenantReport],
    plan: NetFaultPlan,
    what: &str,
) -> ChaosOutcome {
    let cfg = ServeConfig::new(tiny_config(), MODE)
        .with_shards(2)
        .with_auth_token("hunter2");
    let client = ClientConfig {
        token: "hunter2".into(),
        ..ClientConfig::default()
    };
    let mut manager = SessionManager::new(cfg).expect("valid serve config");
    let outcome = run_chaos_session(&mut manager, client, plan, loads, MAX_POLLS)
        .unwrap_or_else(|e| panic!("schedule {what} failed to converge: {e}"));
    assert_identical(what, &outcome.reports, refs);
    assert_eq!(manager.report().drains, 1, "{what}: goodbye never drained");
    outcome
}

pub fn sweep(scale: Scale) {
    let load_cfg = match scale {
        Scale::Test => LoadConfig {
            tenants: 3,
            chunks_per_tenant: 4,
            events_per_chunk: 80,
            seed: 42,
        },
        Scale::Paper => LoadConfig {
            tenants: 4,
            chunks_per_tenant: 8,
            events_per_chunk: 400,
            seed: 42,
        },
    };
    let loads = generate(&load_cfg).expect("load config is non-degenerate");
    let total_events: u64 = loads.iter().map(|l| l.all_events().len() as u64).sum();
    let refs = references(&loads);

    let total_schedules = PER_CLASS * NetFault::ALL.len() as u64 + HOSTILE;
    println!(
        "Hostile-network sweep: {total_schedules} schedules over {} tenants x {} chunks ({total_events} events)",
        load_cfg.tenants, load_cfg.chunks_per_tenant
    );

    // The fault-free twin fixes the baseline poll count every recovery
    // latency is measured against.
    let baseline = run_verified(&loads, &refs, NetFaultPlan::quiet(), "baseline");
    let baseline_polls = baseline.polls;
    assert_eq!(baseline.faults_injected, 0);
    println!("  baseline (quiet): {baseline_polls} polls");

    let mut per_class = Vec::new();
    for fault in NetFault::ALL {
        let mut block = Block::default();
        let mut class_hits = 0u64;
        for seed in 0..PER_CLASS {
            let plan = NetFaultPlan::focused(seed * 2 + 1, fault, 150);
            let what = format!("{}[{seed}]", fault.label());
            let outcome = run_verified(&loads, &refs, plan, &what);
            class_hits += outcome.fault_counts[fault.index()];
            block.absorb(&outcome);
        }
        assert_exercised(format!("fault class {}", fault.label()), class_hits);
        block.print(fault.label());
        per_class.push(block.to_value(fault.label(), total_events, baseline_polls));
    }

    let mut hostile = Block::default();
    for seed in 0..HOSTILE {
        let plan = NetFaultPlan::hostile(seed * 7 + 3);
        let outcome = run_verified(&loads, &refs, plan, &format!("hostile[{seed}]"));
        hostile.absorb(&outcome);
    }
    hostile.print("hostile-mix");
    println!("  all {total_schedules} schedules converged byte-identically, zero panics");

    #[allow(clippy::cast_precision_loss)]
    let baseline_goodput = total_events as f64 / baseline_polls.max(1) as f64;
    write_bench(
        "net",
        Some(config_fingerprint(&tiny_config(), MODE)),
        vec![
            scale_field(scale),
            ("tenants", Value::U64(u64::from(load_cfg.tenants))),
            ("total_events", Value::U64(total_events)),
            ("schedules", Value::U64(total_schedules)),
            ("all_identical", Value::Bool(true)),
            (
                "baseline",
                obj(vec![
                    ("polls", Value::U64(baseline_polls)),
                    ("goodput_events_per_poll", Value::F64(baseline_goodput)),
                ]),
            ),
            ("per_class", Value::Arr(per_class)),
            (
                "hostile",
                hostile.to_value("hostile-mix", total_events, baseline_polls),
            ),
        ],
    );
}
