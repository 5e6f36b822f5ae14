//! Durable-store micro-benchmark: spill, load, recovery-scan, and
//! compaction throughput of `hds-store`, plus the write amplification
//! compaction pays to fold a multi-version history down to its live
//! set. Results land in `results/BENCH_store.json`; `bench_trend`
//! gates the `per_op` throughput rows against the committed baseline.
//!
//! Everything runs on [`MemStorage`], so the numbers measure the
//! store's own framing, checksumming, and index work — not the host's
//! disk.
//!
//! Run: `cargo run --release -p hds-bench --bin bench_store`
//! (add `--test-scale` for the fast smoke run).

use std::time::Instant;

use hds_bench::{obj, scale_field, scale_from_args, write_bench};
use hds_store::{MemStorage, Store, StoreConfig, TenantRecord};
use hds_vulcan::{Event, ProcId, Procedure};
use hds_workloads::Scale;
use serde::Value;

/// A realistically-sized cold record: a snapshot blob plus a replay
/// tail, deterministic per (tenant, version).
fn rec(t: u64, version: u64, tail_events: usize) -> TenantRecord {
    let name = format!("tenant-{t:05}");
    TenantRecord {
        tenant: name.clone(),
        stamp: version,
        backend: (t % 3) as u8,
        procedures: vec![Procedure::new(
            format!("{name}-main"),
            vec![hds_trace::Pc(t as u32 + 1), hds_trace::Pc(t as u32 + 2)],
        )],
        snapshot: Some(vec![(t % 251) as u8; 1024]),
        tail: (0..tail_events)
            .map(|i| match i % 3 {
                0 => Event::Enter(ProcId(0)),
                1 => Event::Work((version.wrapping_add(i as u64) % 1000) as u32),
                _ => Event::Exit(ProcId(0)),
            })
            .collect(),
    }
}

#[allow(clippy::cast_precision_loss)]
fn ops_per_s(ops: u64, secs: f64) -> f64 {
    ops as f64 / secs.max(1e-9)
}

fn row(op: &str, ops: u64, secs: f64, note: (&str, Value)) -> Value {
    obj(vec![
        ("op", Value::Str(op.to_string())),
        ("ops", Value::U64(ops)),
        ("seconds", Value::F64(secs)),
        ("ops_per_s", Value::F64(ops_per_s(ops, secs))),
        note,
    ])
}

/// One full spill → load → reopen → compact pipeline over a fresh
/// in-memory store. Returns per-phase seconds plus the byte counters
/// the report derives amplification from.
struct PipelineRun {
    spill_secs: f64,
    load_secs: f64,
    reopen_secs: f64,
    compact_secs: f64,
    bytes_history: u64,
    compact_bytes: u64,
    live_bytes: u64,
}

fn run_pipeline(
    tenants: u64,
    versions: u64,
    tail_events: usize,
    config: StoreConfig,
) -> PipelineRun {
    // Spill: `versions` full rounds, so later rounds supersede earlier
    // ones — the history compaction will fold.
    let mut store = Store::open(Box::new(MemStorage::new()), config).expect("open store");
    let t0 = Instant::now();
    for v in 0..versions {
        for t in 0..tenants {
            store.spill(rec(t, v + 1, tail_events)).expect("spill");
        }
    }
    let spill_secs = t0.elapsed().as_secs_f64();
    let bytes_history = store.stats().bytes_written;

    // Load: every tenant back once (checksum verify + decode).
    let t0 = Instant::now();
    for t in 0..tenants {
        let r = store.load(&format!("tenant-{t:05}")).expect("load");
        assert_eq!(r.stamp, versions, "latest version wins");
    }
    let load_secs = t0.elapsed().as_secs_f64();

    // Recovery scan: reopen over the full multi-version history.
    let storage = store.into_storage();
    let t0 = Instant::now();
    let mut store = Store::open(storage, config).expect("reopen");
    let reopen_secs = t0.elapsed().as_secs_f64();
    assert_eq!(store.tenants().len() as u64, tenants, "index rebuilt");

    // Compaction: fold the history to one live record per tenant.
    let before = store.stats().bytes_written;
    let t0 = Instant::now();
    store.compact(versions + 1).expect("compact");
    let compact_secs = t0.elapsed().as_secs_f64();
    let compact_bytes = store.stats().bytes_written - before;
    let live_bytes = {
        // What the live set actually costs on disk post-compaction.
        let mut mem_bytes = 0u64;
        if let Some(mem) = store
            .storage_mut()
            .as_any_mut()
            .downcast_mut::<MemStorage>()
        {
            mem_bytes = mem.total_bytes() as u64;
        }
        mem_bytes
    };
    PipelineRun {
        spill_secs,
        load_secs,
        reopen_secs,
        compact_secs,
        bytes_history,
        compact_bytes,
        live_bytes,
    }
}

fn main() {
    let scale = scale_from_args();
    // Test-scale phases finish in well under a millisecond, so a single
    // run is scheduler noise: repeat the whole pipeline and keep each
    // phase's best time. `bench_trend` compares best-of-N vs best-of-N.
    let (tenants, versions, tail_events, reps) = match scale {
        Scale::Test => (64u64, 3u64, 64usize, 21u32),
        Scale::Paper => (1024, 4, 256, 3),
    };
    let config = StoreConfig {
        ttl: None,
        segment_bytes: 4 << 20,
    };
    println!(
        "Durable-store benchmark: {tenants} tenants x {versions} versions, \
         {tail_events}-event tails, best of {reps}"
    );

    let mut best = run_pipeline(tenants, versions, tail_events, config);
    for _ in 1..reps {
        let r = run_pipeline(tenants, versions, tail_events, config);
        best.spill_secs = best.spill_secs.min(r.spill_secs);
        best.load_secs = best.load_secs.min(r.load_secs);
        best.reopen_secs = best.reopen_secs.min(r.reopen_secs);
        best.compact_secs = best.compact_secs.min(r.compact_secs);
        // Byte counters are deterministic across reps; keep the latest.
        best.bytes_history = r.bytes_history;
        best.compact_bytes = r.compact_bytes;
        best.live_bytes = r.live_bytes;
    }
    let PipelineRun {
        spill_secs,
        load_secs,
        reopen_secs,
        compact_secs,
        bytes_history,
        compact_bytes,
        live_bytes,
    } = best;
    let spilled = tenants * versions;
    #[allow(clippy::cast_precision_loss)]
    let amplification = compact_bytes as f64 / live_bytes.max(1) as f64;

    let per_op = vec![
        row(
            "spill",
            spilled,
            spill_secs,
            ("bytes_written", Value::U64(bytes_history)),
        ),
        row("load", tenants, load_secs, ("verified", Value::Bool(true))),
        row(
            "reopen_scan",
            spilled,
            reopen_secs,
            ("records_scanned", Value::U64(spilled)),
        ),
        row(
            "compact",
            tenants,
            compact_secs,
            ("bytes_rewritten", Value::U64(compact_bytes)),
        ),
    ];
    for r in &per_op {
        if let (Some(Value::Str(op)), Some(Value::F64(rate))) = (r.get("op"), r.get("ops_per_s")) {
            println!("  {op:<12} {rate:>12.0} ops/s");
        }
    }
    println!(
        "  compaction rewrote {compact_bytes} bytes for {live_bytes} live ({amplification:.2}x)"
    );

    write_bench(
        "store",
        None,
        vec![
            scale_field(scale),
            ("tenants", Value::U64(tenants)),
            ("versions", Value::U64(versions)),
            ("tail_events", Value::U64(tail_events as u64)),
            ("history_bytes", Value::U64(bytes_history)),
            ("live_bytes", Value::U64(live_bytes)),
            ("compaction_amplification", Value::F64(amplification)),
            ("per_op", Value::Arr(per_op)),
        ],
    );
}
