//! Every seeded schedule in the workspace, pinned by digest.
//!
//! Chaos sweeps compare a faulted run against its fault-free twin, so a
//! change to how a plan draws would pass them while silently moving
//! every schedule. These digests catch that: each family feeds what its
//! generator decides, draw by draw, into one FNV-1a hash. The families
//! are the optimizer's `FaultPlan` (in-simulation and crash streams),
//! the network's `NetFaultPlan` behind a `ChaosTransport`, the store's
//! `StoreFaultPlan` behind a `FaultyStorage`, the unsynced suffix that
//! `MemStorage::crash` keeps, and the serve load generator.

use std::fmt::Debug;

use hds_guard::{CrashPoint, FaultInjector, FaultPlan};
use hds_serve::load::{generate, LoadConfig};
use hds_serve::{loopback, ChaosTransport, Frame, NetFault, NetFaultPlan, Transport};
use hds_store::{FaultyStorage, MemStorage, Storage, StoreFault, StoreFaultPlan};
use hds_trace::hash::Fnv64;
use hds_trace::{Addr, DataRef, Pc};

/// Feeds one decision into the digest, followed by a word separator
/// so adjacent items cannot run together.
fn feed(h: &mut Fnv64, item: impl Debug) {
    h.write_bytes(format!("{item:?}").as_bytes());
    h.write_u64(u64::MAX);
}

#[test]
fn guard_fault_plans_draw_the_pinned_schedule() {
    let mut h = Fnv64::new();
    for seed in 0..8u64 {
        for mut plan in [FaultPlan::from_seed(seed), FaultPlan::crashy(seed, 4)] {
            feed(&mut h, (plan.rates(), plan.max_crashes()));
            let mut saved = 0;
            for i in 0..2_000u32 {
                let r = DataRef::new(Pc(i), Addr(u64::from(i) * 64));
                feed(&mut h, plan.corrupt_ref(r));
                feed(&mut h, plan.truncate_trace());
                feed(&mut h, plan.fail_edit(Pc(i)));
                feed(&mut h, plan.edit_thread_switch(i % 5));
                feed(&mut h, plan.starve_analysis());
                feed(&mut h, plan.stall_worker(1_000));
                for point in CrashPoint::ALL {
                    feed(&mut h, plan.crash(point));
                }
                feed(&mut h, plan.snapshot_state());
                // Rewind the in-simulation stream once, as a restarted
                // segment does; the crash stream runs on.
                match i {
                    500 => saved = plan.snapshot_state(),
                    1_000 => plan.restore_state(saved),
                    _ => {}
                }
            }
            feed(&mut h, (plan.counts(), plan.crashes_fired()));
        }
    }
    assert_eq!(
        h.finish(),
        0x29a8_3a89_dcca_ed02,
        "guard FaultPlan schedule moved"
    );
}

/// Sends 300 pings through a chaos link and records what arrives after
/// each send. A torn or closed link is rebuilt around the same plan,
/// as a reconnecting client does, so the whole schedule stays visible.
fn chaos_deliveries(h: &mut Fnv64, plan: NetFaultPlan) {
    let (client, mut server) = loopback();
    let mut chaos = ChaosTransport::new(client, plan);
    for nonce in 0..300u64 {
        let sent = chaos.send(&Frame::Ping { nonce });
        feed(h, &sent);
        loop {
            match server.recv() {
                Ok(Some(frame)) => feed(h, frame),
                Ok(None) => break,
                Err(e) => {
                    feed(h, &e);
                    if e == hds_serve::TransportError::Closed {
                        break;
                    }
                }
            }
        }
        if sent.is_err() {
            let (_, plan) = chaos.into_parts();
            let (client, fresh) = loopback();
            server = fresh;
            chaos = ChaosTransport::new(client, plan);
        }
    }
    let plan = chaos.plan();
    feed(h, plan.injected());
    for fault in NetFault::ALL {
        feed(h, (fault, plan.count(fault)));
    }
}

#[test]
fn chaos_transport_delivers_the_pinned_schedule() {
    let mut h = Fnv64::new();
    for seed in 0..8u64 {
        chaos_deliveries(&mut h, NetFaultPlan::hostile(seed));
        for fault in NetFault::ALL {
            chaos_deliveries(&mut h, NetFaultPlan::focused(seed, fault, 200));
        }
    }
    assert_eq!(
        h.finish(),
        0x1fae_8ce4_c6bd_daa5,
        "NetFaultPlan schedule moved"
    );
}

/// Runs a scripted mix of every storage operation under `plan`, then
/// crashes the medium with `seed` and records the surviving lengths.
fn storage_script(h: &mut Fnv64, seed: u64, plan: StoreFaultPlan) {
    let mut s = FaultyStorage::new(MemStorage::new(), plan);
    for round in 0..60u32 {
        let seg = format!("seg-{}", round % 3);
        let payload: Vec<u8> = (0..=round % 40).map(|b| b as u8 ^ round as u8).collect();
        feed(h, s.append(&seg, &payload));
        if round % 2 == 0 {
            feed(h, s.sync(&seg));
        }
        if round % 5 == 0 {
            feed(h, s.append("manifest.tmp", &round.to_le_bytes()));
            feed(h, s.sync("manifest.tmp"));
            feed(h, s.rename("manifest.tmp", "manifest"));
        }
        if round % 3 == 2 {
            feed(
                h,
                s.read(&seg)
                    .map(|b| (b.len(), hds_trace::hash::fnv1a64(&b))),
            );
        }
        if round % 7 == 6 {
            feed(h, s.remove(&format!("seg-{}", (round + 1) % 3)));
        }
        if round % 11 == 10 {
            feed(h, s.list());
        }
    }
    let plan = s.plan();
    feed(h, (plan.injected(), s.mutating_ops(), s.killed()));
    for fault in StoreFault::ALL {
        feed(h, (fault, plan.count(fault)));
    }
    let mut mem = s.into_inner();
    mem.crash(seed);
    for name in mem.list().expect("mem list") {
        let len = mem.read(&name).expect("listed file reads").len();
        feed(h, (name, len));
    }
}

#[test]
fn faulty_storage_runs_the_pinned_schedule() {
    let mut h = Fnv64::new();
    for seed in 0..8u64 {
        storage_script(&mut h, seed, StoreFaultPlan::hostile(seed));
        for fault in StoreFault::ALL {
            storage_script(&mut h, seed, StoreFaultPlan::focused(seed, fault, 250));
        }
        storage_script(
            &mut h,
            seed,
            StoreFaultPlan::hostile(seed).with_kill_after(30 + seed),
        );
    }
    assert_eq!(
        h.finish(),
        0x78ac_049a_ecbd_2399,
        "StoreFaultPlan or MemStorage::crash schedule moved"
    );
}

#[test]
fn load_generation_is_pinned() {
    let mut h = Fnv64::new();
    // 0xA5A5 hands tenant 0 a zero generator state, which must stay
    // zero rather than be re-seeded.
    for seed in [0u64, 42, 0xA5A5] {
        let loads = generate(&LoadConfig {
            tenants: 5,
            chunks_per_tenant: 3,
            events_per_chunk: 40,
            seed,
        })
        .expect("valid load shape");
        for load in loads {
            feed(&mut h, (&load.name, &load.procedures, &load.chunks));
        }
    }
    assert_eq!(h.finish(), 0x26e5_9be6_f9bf_e6a3, "load::generate moved");
}
