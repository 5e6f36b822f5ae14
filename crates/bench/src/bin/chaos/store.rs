//! The durable-store sweep: ≥100 seeded fault schedules proving the
//! crash-safety contract of `hds-store` end to end — kill the process
//! mid-spill, mid-compaction, and mid-manifest-swap (then crash the
//! page cache and reopen), rot bytes on the medium, run whole scripts
//! under focused and hostile fault mixes, and drive the serving
//! front-end through spill/load round trips on a hostile disk. Every
//! schedule must finish with zero panics and either byte-identical
//! recovered state or a telemetry-attributed restart from scratch.
//!
//! Four schedule families:
//!
//! 1. **Kill sweep** — one scripted spill/remove/compact sequence; the
//!    kill point sweeps evenly across every mutating storage operation
//!    in it. After the kill the in-memory "page cache" is crashed with
//!    a seeded truncation, the store reopens, every surviving tenant
//!    must load bit-identical to a version the script actually wrote,
//!    and re-running the script converges to the fault-free twin.
//! 2. **Bit rot** — a seeded byte flips on the medium (segment or
//!    manifest), discovered either by a direct `load` or by the reopen
//!    scan; always a typed error or a counted drop/wipe, then the
//!    script re-run converges.
//! 3. **Fault scripts** — the same script under focused per-class
//!    plans (torn, ENOSPC, bit rot, slow I/O, open-fail, rename-fail)
//!    and hostile mixes; every failure is typed, and once the faults
//!    stop the re-run converges.
//! 4. **Serve path** — a sharded [`SessionManager`] with a store on a
//!    hostile disk, force-evicting every round; failed loads reject
//!    with [`RejectCode::StoreFailed`] and the driver replays from
//!    scratch like a real client, so final reports stay byte-identical
//!    to standalone runs and every counter reconciles with telemetry.

use std::collections::BTreeMap;

use hds_guard::ServeBudgets;
use hds_serve::client::TenantReport;
use hds_serve::load::{generate, LoadConfig, TenantLoad};
use hds_serve::{Frame, RejectCode, ServeConfig, SessionManager};
use hds_store::{
    FaultyStorage, MemStorage, Store, StoreConfig, StoreError, StoreFault, StoreFaultPlan,
    TenantRecord, MANIFEST,
};
use hds_telemetry::MetricsRecorder;
use hds_vulcan::{Event, ProcId, Procedure};
use hds_workloads::Scale;

use crate::{assert_identical, references, tiny_config, MODE};

/// Kill-sweep schedules (family 1).
const KILLS: u64 = 56;
/// Bit-rot schedules (family 2).
const ROTS: u64 = 20;
/// Seeds per focused fault class (family 3).
const PER_CLASS: u64 = 3;
/// Hostile-mix script schedules (family 3).
const HOSTILE: u64 = 6;
/// Serve-path schedules (family 4), including the quiet baseline.
const SERVE: u64 = 24;

fn store_config() -> StoreConfig {
    // A tiny segment threshold forces constant rotation, so manifest
    // swaps and multi-segment compactions sit inside the kill sweep.
    StoreConfig {
        ttl: Some(64),
        segment_bytes: 512,
    }
}

/// One step of the scripted store workload.
#[derive(Clone, Copy)]
enum Op {
    /// Spill tenant `t` at version `v` (the stamp).
    Spill(u64, u64),
    /// Tombstone tenant `t`.
    Remove(u64),
    /// Compact at the current clock.
    Compact,
}

/// The scripted workload: three spill rounds over eight tenants with
/// removals and compactions interleaved, so the mutating-op sweep
/// lands kills inside appends, syncs, manifest swaps, and reaps.
fn script() -> Vec<Op> {
    let mut ops = Vec::new();
    for round in 0..3u64 {
        for t in 0..8u64 {
            ops.push(Op::Spill(t, round * 8 + t + 1));
        }
        if round == 1 {
            ops.push(Op::Remove(1));
            ops.push(Op::Remove(5));
            ops.push(Op::Compact);
        }
    }
    ops.push(Op::Remove(0));
    ops.push(Op::Compact);
    ops
}

/// Deterministic tenant record for `(t, version)` — the same pair
/// always encodes to the same bytes, so "bit-identical to a version
/// the script wrote" is checkable by equality.
fn rec(t: u64, version: u64) -> TenantRecord {
    let name = format!("tenant-{t}");
    TenantRecord {
        tenant: name.clone(),
        stamp: version,
        backend: (t % 3) as u8,
        procedures: vec![Procedure::new(
            format!("{name}-main"),
            vec![hds_trace::Pc(t as u32 + 1), hds_trace::Pc(t as u32 + 2)],
        )],
        snapshot: Some(vec![(version % 251) as u8; 64 + (t as usize % 7)]),
        tail: vec![
            Event::Enter(ProcId(0)),
            Event::Work((version % 1000) as u32),
            Event::Exit(ProcId(0)),
        ],
    }
}

/// Applies the script, tolerating (and counting) typed storage errors.
/// Returns `(typed_errors, clock)`; panics on any non-typed failure —
/// which is the point of the sweep.
fn apply_script(store: &mut Store, ops: &[Op]) -> (u64, u64) {
    let mut typed = 0u64;
    let mut clock = 0u64;
    for op in ops {
        clock += 1;
        let result = match *op {
            Op::Spill(t, v) => store.spill(rec(t, v)),
            Op::Remove(t) => store.remove(&format!("tenant-{t}"), clock),
            Op::Compact => store.compact(clock),
        };
        if let Err(e) = result {
            // Every failure must be a typed StoreError; the Display
            // impl exercising here is the "never a panic" guarantee.
            let _ = e.to_string();
            typed += 1;
        }
    }
    (typed, clock)
}

/// The fault-free twin: final tenant → record map the faulted runs
/// must converge to after recovery + re-run.
fn expected_final() -> BTreeMap<String, TenantRecord> {
    let mut store = Store::open(Box::new(MemStorage::new()), store_config()).expect("quiet open");
    let (errors, _) = apply_script(&mut store, &script());
    assert_eq!(errors, 0, "the quiet twin sees no faults");
    store
        .tenants()
        .into_iter()
        .map(|t| {
            let r = store.load(&t).expect("quiet load");
            (t, r)
        })
        .collect()
}

/// Every version the script ever wrote, keyed by (tenant, stamp): a
/// recovered record must be bit-identical to one of these.
fn all_versions() -> BTreeMap<(String, u64), TenantRecord> {
    script()
        .iter()
        .filter_map(|op| match *op {
            Op::Spill(t, v) => Some(((format!("tenant-{t}"), v), rec(t, v))),
            _ => None,
        })
        .collect()
}

/// Counts the mutating storage ops the script performs fault-free —
/// the sweep range for `with_kill_after`.
fn script_mutating_ops() -> u64 {
    let storage = FaultyStorage::new(MemStorage::new(), StoreFaultPlan::quiet());
    let mut store = Store::open(Box::new(storage), store_config()).expect("quiet open");
    apply_script(&mut store, &script());
    store
        .into_storage()
        .as_any_mut()
        .downcast_mut::<FaultyStorage<MemStorage>>()
        .expect("faulty mem storage")
        .mutating_ops()
}

/// Asserts that every tenant the reopened store still indexes loads
/// cleanly and bit-identical to a version the script actually wrote.
fn assert_durable_prefix(
    store: &mut Store,
    versions: &BTreeMap<(String, u64), TenantRecord>,
    what: &str,
) {
    for tenant in store.tenants() {
        let stamp = store.stamp(&tenant).expect("indexed tenant has a stamp");
        let got = store
            .load(&tenant)
            .unwrap_or_else(|e| panic!("{what}: indexed {tenant} failed to load: {e}"));
        let expected = versions
            .get(&(tenant.clone(), stamp))
            .unwrap_or_else(|| panic!("{what}: {tenant}@{stamp} was never written"));
        assert_eq!(
            &got, expected,
            "{what}: {tenant}@{stamp} is not bit-identical"
        );
    }
}

/// Recovers a store after a fault run and proves convergence: reopen
/// (never a panic), check the durable prefix, re-run the script
/// fault-free, and compare the final state against the quiet twin.
/// Returns the number of wipe restarts the recovery took.
fn recover_and_converge(
    disk: MemStorage,
    expected: &BTreeMap<String, TenantRecord>,
    versions: &BTreeMap<(String, u64), TenantRecord>,
    what: &str,
) -> u64 {
    let mut store = Store::open(Box::new(disk), store_config())
        .unwrap_or_else(|e| panic!("{what}: reopen must always succeed: {e}"));
    assert_durable_prefix(&mut store, versions, what);
    let wiped = store.stats().wiped;
    let (errors, _) = apply_script(&mut store, &script());
    assert_eq!(errors, 0, "{what}: the fault-free re-run sees no faults");
    let final_tenants = store.tenants();
    assert_eq!(
        final_tenants,
        expected.keys().cloned().collect::<Vec<_>>(),
        "{what}: tenant set diverged after recovery"
    );
    for (tenant, record) in expected {
        let got = store
            .load(tenant)
            .unwrap_or_else(|e| panic!("{what}: converged {tenant} failed to load: {e}"));
        assert_eq!(&got, record, "{what}: {tenant} diverged after recovery");
    }
    wiped
}

/// Family 1: kill the process at mutating op `k`, crash the page
/// cache, recover, converge.
fn kill_sweep(
    ops_total: u64,
    expected: &BTreeMap<String, TenantRecord>,
    versions: &BTreeMap<(String, u64), TenantRecord>,
) -> (u64, u64) {
    let mut kills_fired = 0u64;
    let mut wipes = 0u64;
    for i in 0..KILLS {
        let k = i * ops_total / KILLS;
        let what = format!("kill[{i}]@op{k}");
        let plan = StoreFaultPlan::quiet().with_kill_after(k);
        let storage = FaultyStorage::new(MemStorage::new(), plan);
        // The kill can land inside open()'s own manifest write.
        let mut store = match Store::open(Box::new(storage), store_config()) {
            Ok(s) => s,
            Err(e) => {
                let _ = e.to_string();
                kills_fired += 1;
                continue;
            }
        };
        apply_script(&mut store, &script());
        let mut storage = store.into_storage();
        let faulty = storage
            .as_any_mut()
            .downcast_mut::<FaultyStorage<MemStorage>>()
            .expect("faulty mem storage");
        assert!(faulty.killed(), "{what}: the kill point never fired");
        kills_fired += 1;
        let mut disk = faulty.inner().clone();
        // Unsynced bytes vanish; a seeded prefix of the rest survives.
        disk.crash(0x9E37_79B9 ^ (i * 2 + 1));
        wipes += recover_and_converge(disk, expected, versions, &what);
    }
    (kills_fired, wipes)
}

/// Family 2: rot one seeded byte on the medium and prove it is always
/// *discovered* — as a typed load error, a counted reopen drop, or a
/// counted manifest wipe — then converge.
fn bit_rot_sweep(
    expected: &BTreeMap<String, TenantRecord>,
    versions: &BTreeMap<(String, u64), TenantRecord>,
) -> (u64, u64, u64) {
    let (mut typed_loads, mut dropped, mut wipes) = (0u64, 0u64, 0u64);
    for i in 0..ROTS {
        let what = format!("rot[{i}]");
        let mut store =
            Store::open(Box::new(MemStorage::new()), store_config()).expect("quiet open");
        apply_script(&mut store, &script());
        let target_tenant = format!("tenant-{}", 2 + i % 4); // survives the script
        let rot_manifest = i % 5 == 4;
        let segments = store.segments().to_vec();
        {
            let mem = store
                .storage_mut()
                .as_any_mut()
                .downcast_mut::<MemStorage>()
                .expect("mem storage");
            let name = if rot_manifest {
                MANIFEST.to_string()
            } else {
                segments[i as usize % segments.len()].clone()
            };
            let data = mem.data_mut(&name).expect("target file exists");
            let at = (i as usize * 37 + 11) % data.len();
            data[at] ^= 1 << (i % 8);
        }
        if i % 2 == 0 && !rot_manifest {
            // Discovery path A: a direct load either misses the rotted
            // record or surfaces a typed corruption and self-heals.
            match store.load(&target_tenant) {
                Ok(got) => {
                    let stamp = got.stamp;
                    assert_eq!(
                        versions.get(&(target_tenant.clone(), stamp)),
                        Some(&got),
                        "{what}: rotted load returned a wrong answer"
                    );
                }
                Err(e @ StoreError::Corrupt { .. }) => {
                    let _ = e.to_string();
                    typed_loads += 1;
                    assert!(
                        !store.contains(&target_tenant),
                        "{what}: corrupt entry must be dropped"
                    );
                }
                Err(e) => panic!("{what}: load failed untypedly: {e}"),
            }
        }
        // Discovery path B: the reopen scan. Corrupt segments shed
        // records (counted); a corrupt manifest wipes (counted).
        let disk = store
            .into_storage()
            .as_any_mut()
            .downcast_mut::<MemStorage>()
            .expect("mem storage")
            .clone();
        let mut reopened = Store::open(Box::new(disk), store_config())
            .unwrap_or_else(|e| panic!("{what}: reopen must always succeed: {e}"));
        let stats = reopened.stats();
        if rot_manifest {
            assert_eq!(stats.wiped, 1, "{what}: manifest rot must wipe loudly");
        }
        dropped += stats.dropped_corrupt;
        wipes += stats.wiped;
        assert_durable_prefix(&mut reopened, versions, &what);
        let (errors, _) = apply_script(&mut reopened, &script());
        assert_eq!(errors, 0, "{what}: re-run sees no faults");
        for (tenant, record) in expected {
            assert_eq!(
                &reopened.load(tenant).expect("converged load"),
                record,
                "{what}: {tenant} diverged after rot recovery"
            );
        }
    }
    (typed_loads, dropped, wipes)
}

/// Families 3: run the script under a fault plan, then strip the
/// faults and converge. Returns the typed-error count.
fn faulted_script(
    plan: StoreFaultPlan,
    expected: &BTreeMap<String, TenantRecord>,
    versions: &BTreeMap<(String, u64), TenantRecord>,
    what: &str,
) -> u64 {
    let storage = FaultyStorage::new(MemStorage::new(), plan);
    let mut typed = 0u64;
    let store = match Store::open(Box::new(storage), store_config()) {
        Ok(mut s) => {
            typed += apply_script(&mut s, &script()).0;
            s
        }
        Err(e) => {
            // open() itself drew an open/rename fault: typed, retry
            // clean below on an empty disk.
            let _ = e.to_string();
            typed += 1;
            Store::open(
                Box::new(FaultyStorage::new(
                    MemStorage::new(),
                    StoreFaultPlan::quiet(),
                )),
                store_config(),
            )
            .expect("quiet reopen")
        }
    };
    let disk = store
        .into_storage()
        .as_any_mut()
        .downcast_mut::<FaultyStorage<MemStorage>>()
        .expect("faulty mem storage")
        .inner()
        .clone();
    recover_and_converge(disk, expected, versions, what);
    typed
}

/// Family 4 driver: round-robin chunks with force-evictions between
/// rounds, replaying any tenant the store rejects — exactly what a
/// real client does on [`RejectCode::StoreFailed`]. Returns the number
/// of restart-from-scratch replays.
fn drive_serve(
    manager: &mut SessionManager<MetricsRecorder>,
    loads: &[TenantLoad],
    what: &str,
) -> u64 {
    let mut restarts = 0u64;
    let hello = manager.handle(Frame::Hello {
        token: String::new(),
        features: 0,
        backend: None,
        version: hds_serve::WIRE_VERSION,
    });
    assert!(matches!(hello[0], Frame::HelloAck { .. }), "{what}: no ack");
    for l in loads {
        let responses = manager.handle(Frame::OpenSession {
            tenant: l.name.clone(),
            procedures: l.procedures.clone(),
        });
        assert!(responses.is_empty(), "{what}: open rejected {responses:?}");
    }
    manager.pump();
    // Replays the tenant's whole history after a StoreFailed reject.
    fn replay(
        manager: &mut SessionManager<MetricsRecorder>,
        l: &TenantLoad,
        upto: usize,
        what: &str,
    ) {
        let responses = manager.handle(Frame::OpenSession {
            tenant: l.name.clone(),
            procedures: l.procedures.clone(),
        });
        assert!(
            responses.is_empty(),
            "{what}: re-open rejected {responses:?}"
        );
        for chunk in &l.chunks[..upto] {
            let responses = manager.handle(Frame::TraceChunk {
                seq: 0,
                tenant: l.name.clone(),
                events: chunk.clone(),
            });
            // A freshly restarted tenant is resident: replay chunks
            // never touch the store, so they cannot reject.
            assert!(
                responses.is_empty(),
                "{what}: replay rejected {responses:?}"
            );
        }
    }
    let rejected = |responses: &[Frame], what: &str| -> bool {
        match responses {
            [] => false,
            [Frame::Reject { code, .. }] => {
                assert_eq!(*code, RejectCode::StoreFailed, "{what}: wrong reject");
                true
            }
            other => panic!("{what}: unexpected responses {other:?}"),
        }
    };
    let rounds = loads.iter().map(|l| l.chunks.len()).max().unwrap_or(0);
    for round in 0..rounds {
        for l in loads {
            if let Some(chunk) = l.chunks.get(round) {
                let responses = manager.handle(Frame::TraceChunk {
                    seq: 0,
                    tenant: l.name.clone(),
                    events: chunk.clone(),
                });
                if rejected(&responses, what) {
                    restarts += 1;
                    replay(manager, l, round + 1, what);
                }
            }
        }
        manager.pump();
        for l in loads {
            manager.handle(Frame::Evict {
                tenant: l.name.clone(),
            });
        }
        manager.pump();
    }
    for l in loads {
        let responses = manager.handle(Frame::Flush {
            tenant: l.name.clone(),
        });
        if rejected(&responses, what) {
            restarts += 1;
            replay(manager, l, l.chunks.len(), what);
            let responses = manager.handle(Frame::Flush {
                tenant: l.name.clone(),
            });
            assert!(responses.is_empty(), "{what}: replayed flush rejected");
        }
    }
    manager.pump();
    restarts
}

/// Family 4: serve-path schedules on a hostile disk. Returns
/// (restarts, store_faults, spilled) accumulated over the block.
fn serve_sweep(scale: Scale) -> (u64, u64, u64) {
    let load_cfg = match scale {
        Scale::Test => LoadConfig {
            tenants: 3,
            chunks_per_tenant: 3,
            events_per_chunk: 80,
            seed: 42,
        },
        Scale::Paper => LoadConfig {
            tenants: 6,
            chunks_per_tenant: 4,
            events_per_chunk: 120,
            seed: 42,
        },
    };
    let loads = generate(&load_cfg).expect("load config is non-degenerate");
    let refs = references(&loads);
    let (mut restarts, mut faults, mut spills) = (0u64, 0u64, 0u64);
    for i in 0..SERVE {
        let what = format!("serve[{i}]");
        let plan_for = |bump: u64| {
            if i == 0 {
                StoreFaultPlan::quiet()
            } else {
                StoreFaultPlan::hostile(i * 13 + 5 + bump * 97)
            }
        };
        // Odd schedules arm the store-fault budget, so the shed latch
        // (spilling disabled, serving continues) is also under test.
        let budgets = if i % 2 == 1 {
            ServeBudgets::disabled().with_max_store_faults(4)
        } else {
            ServeBudgets::disabled()
        };
        let cfg = ServeConfig::new(tiny_config(), MODE)
            .with_shards(2)
            .with_budgets(budgets);
        let mut manager =
            SessionManager::with_observer(cfg, MetricsRecorder::new()).expect("valid serve config");
        // A hostile plan can fault the open itself (typed, not a
        // panic); bump the seed until one opens.
        let store = (0..16)
            .find_map(|bump| {
                Store::open(
                    Box::new(FaultyStorage::new(MemStorage::new(), plan_for(bump))),
                    StoreConfig::default(),
                )
                .map_err(|e| drop(e.to_string()))
                .ok()
            })
            .expect("an openable hostile store within 16 seeds");
        manager.attach_store(store);
        restarts += drive_serve(&mut manager, &loads, &what);
        if i == 0 {
            // The quiet schedule pins the memory bound: after the last
            // eviction round every unfinished tenant was spilled.
            assert_eq!(manager.report().store_faults, 0, "{what}: quiet disk");
        }
        let report = manager.report();
        assert_eq!(
            report.outcomes.len(),
            loads.len(),
            "{what}: missing outcomes"
        );
        // Shards finish tenants in shard order; compare in load order.
        let served: Vec<TenantReport> = refs
            .iter()
            .map(|r| {
                let o = report
                    .outcomes
                    .iter()
                    .find(|o| o.tenant == r.tenant)
                    .unwrap_or_else(|| panic!("{what}: no outcome for {}", r.tenant));
                TenantReport {
                    tenant: o.tenant.clone(),
                    report_json: serde_json::to_string(&o.report).expect("report serialises"),
                    image_digest: o.image_digest,
                }
            })
            .collect();
        assert_identical(&what, &served, &refs);
        report
            .reconciles(manager.observer())
            .unwrap_or_else(|e| panic!("{what}: telemetry does not reconcile: {e}"));
        faults += report.store_faults;
        spills += report.spilled;
    }
    // The quiet memory-bound schedule: hibernate everything, assert
    // resident memory collapses to zero — the tenant population lives
    // on disk, not in RAM.
    let cfg = ServeConfig::new(tiny_config(), MODE).with_shards(2);
    let mut manager =
        SessionManager::with_observer(cfg, MetricsRecorder::new()).expect("valid serve config");
    manager.attach_store(
        Store::open(Box::new(MemStorage::new()), StoreConfig::default()).expect("open"),
    );
    let hello = manager.handle(Frame::Hello {
        token: String::new(),
        features: 0,
        backend: None,
        version: hds_serve::WIRE_VERSION,
    });
    assert!(matches!(hello[0], Frame::HelloAck { .. }));
    for l in &loads {
        manager.handle(Frame::OpenSession {
            tenant: l.name.clone(),
            procedures: l.procedures.clone(),
        });
        manager.handle(Frame::TraceChunk {
            seq: 0,
            tenant: l.name.clone(),
            events: l.chunks[0].clone(),
        });
    }
    manager.pump();
    for l in &loads {
        manager.handle(Frame::Evict {
            tenant: l.name.clone(),
        });
    }
    manager.pump();
    assert_eq!(
        manager.resident_tenants(),
        0,
        "all hibernated → all spilled"
    );
    assert_eq!(
        manager.resident_bytes(),
        0,
        "resident memory is the live set"
    );
    (restarts, faults, spills)
}

pub fn sweep(scale: Scale) {
    let expected = expected_final();
    let versions = all_versions();
    let ops_total = script_mutating_ops();
    let total = KILLS + ROTS + PER_CLASS * StoreFault::ALL.len() as u64 + HOSTILE + SERVE;
    println!(
        "Durable-store chaos sweep: {total} schedules ({KILLS} kills over {ops_total} mutating ops, \
         {ROTS} bit rots, {} fault scripts, {SERVE} serve schedules)",
        PER_CLASS * StoreFault::ALL.len() as u64 + HOSTILE
    );

    let (kills_fired, kill_wipes) = kill_sweep(ops_total, &expected, &versions);
    assert_eq!(kills_fired, KILLS, "every kill schedule must fire its kill");
    println!("  kill sweep:    {KILLS} schedules, {kills_fired} kills fired, {kill_wipes} wipe restarts, all converged");

    let (typed_loads, dropped, rot_wipes) = bit_rot_sweep(&expected, &versions);
    assert!(
        typed_loads + dropped + rot_wipes >= ROTS,
        "every rotted byte must be discovered somewhere: {typed_loads} typed + {dropped} dropped + {rot_wipes} wiped"
    );
    println!(
        "  bit rot:       {ROTS} schedules, {typed_loads} typed loads, {dropped} records dropped, {rot_wipes} wipe restarts, all converged"
    );

    let mut script_typed = 0u64;
    for fault in StoreFault::ALL {
        for seed in 0..PER_CLASS {
            let plan = StoreFaultPlan::focused(seed * 2 + 1, fault, 250);
            script_typed += faulted_script(
                plan,
                &expected,
                &versions,
                &format!("{}[{seed}]", fault.label()),
            );
        }
    }
    for seed in 0..HOSTILE {
        let plan = StoreFaultPlan::hostile(seed * 7 + 3);
        script_typed += faulted_script(plan, &expected, &versions, &format!("hostile[{seed}]"));
    }
    println!(
        "  fault scripts: {} schedules, {script_typed} typed errors, zero panics, all converged",
        PER_CLASS * StoreFault::ALL.len() as u64 + HOSTILE
    );

    let (restarts, faults, spills) = serve_sweep(scale);
    println!(
        "  serve path:    {SERVE} schedules, {spills} spills, {faults} store faults, {restarts} restart-from-scratch replays, all byte-identical"
    );

    println!("  all {total} schedules finished: zero panics, byte-identical recovery or attributed restart");
}
