//! The `serve_resident` workload and the serve-side replays every
//! traced run uses. The workload runs an untimed warm-up, set-up
//! samples, timed repetitions of identical traffic, and then its
//! correctness checks; a traced run adds one instrumented repetition and
//! the replays behind the per-layer ledger.

use hds_cluster::RouterTally;
use hds_core::{OptimizerConfig, RunReport, SessionBuilder};
use hds_serve::load::standalone_reference;
use hds_serve::LoopbackTransport;
use hds_store::{MemStorage, Storage};

use crate::affinity::Rotation;
use crate::fleet::{Fleet, Script};
use crate::ledger::{refs_of, traced_session, window_of, CoreReplay, LayerReplay, Ledger};
use crate::probe::{StorageTimes, TimedStorage, TimedTransport, Timer};
use crate::programs::{load_prefix, tenants, ChunkSource, Rng};
use crate::report::{Measured, SETUP_GROUP};
use crate::serve::{drive, ManagerServer, Rep, Traffic, WireProbe, MODE};
use crate::stats::ratio;
use crate::Opts;

/// Chunks per tenant in the warm-up repetition.
const WARMUP_CHUNKS: usize = 4;

/// Repetitions a run times at least, so that every segment is timed
/// more than once.
const MIN_REPS: usize = 3;

/// Chunks per tenant whose references the layer replays use.
const REPLAY_CHUNKS: usize = 12;

/// Chunks per tenant a replay of an idle layer streams.
pub const REPLAY_CAP: usize = 12;

/// Shards of every manager.
const SHARDS: u32 = 4;

/// The system behind the client's connection.
#[derive(Clone, Copy, Debug)]
pub enum System {
    /// A 4-shard manager, optionally capped at `live_cap` live sessions
    /// and spilling to an in-memory store compacted every
    /// `compact_every` pumps.
    Manager {
        /// Live sessions allowed.
        live_cap: Option<u64>,
        /// Attach a store.
        store: bool,
        /// Pumps between compactions (0: never).
        compact_every: u64,
    },
    /// A router in front of owners that join and leave on a script.
    Fleet(Script),
}

/// A layer a workload's own path may leave idle, replayed on its
/// traffic so the layer's per-call times are measured everywhere.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// Client, wire, control plane and pump.
    Serve,
    /// The durable store.
    Store,
    /// The cluster router and owners.
    Router,
}

/// `serve_resident`'s system: a 4-shard manager, all tenants resident.
const RESIDENT: System = System::Manager {
    live_cap: None,
    store: false,
    compact_every: 0,
};

/// `serve_resident`'s traffic: 16 tenants, round-robin.
fn traffic(seed: u64) -> Traffic {
    Traffic {
        specs: tenants(seed, 16, 120_000),
        cap: None,
    }
}

/// Chunks `traffic` hands over, by generating it once.
fn total_chunks(traffic: &Traffic) -> u64 {
    traffic
        .specs
        .iter()
        .map(|s| {
            let mut source = ChunkSource::new(s);
            let n = std::iter::from_fn(|| source.next_chunk())
                .take(traffic.cap.unwrap_or(usize::MAX))
                .count();
            n as u64
        })
        .sum()
}

/// The membership script: owner 2 joins a quarter to a third of the way
/// through the stream and owner 0 leaves just past halfway, at
/// seed-fixed chunk counts.
fn script(seed: u64, traffic: &Traffic) -> Script {
    let total = total_chunks(traffic);
    let mut rng = Rng::new(seed ^ 0xC1);
    Script {
        join_at: total * rng.range(25, 33) / 100,
        leave_at: total * rng.range(50, 58) / 100,
    }
}

/// What the server side of one repetition reported.
#[derive(Debug, Default)]
struct ServerSide {
    /// Counters from the manager's (or the owners') reports.
    evicted: u64,
    resumed: u64,
    replayed_events: u64,
    spilled: u64,
    loaded: u64,
    compactions: u64,
    spilled_bytes: u64,
    pumps: u64,
    frames: u64,
    resident_peak: u64,
    storage: StorageTimes,
    tally: Option<RouterTally>,
    router_handle: Timer,
    router_tick: Timer,
    owner_tick: Timer,
    migration: Timer,
    problems: Vec<String>,
}

fn manager_side(server: &ManagerServer) -> ServerSide {
    let report = server.manager.report();
    let rec = server.manager.observer();
    let mut side = ServerSide {
        evicted: report.evicted,
        resumed: report.resumed,
        replayed_events: report.replayed_events,
        spilled: report.spilled,
        loaded: report.loaded,
        compactions: report.compactions,
        spilled_bytes: rec.store_spilled_bytes(),
        pumps: server.pumps,
        frames: report.frames,
        resident_peak: server.resident_peak.unwrap_or(0),
        storage: server
            .storage
            .as_ref()
            .map(|c| c.times())
            .unwrap_or_default(),
        ..ServerSide::default()
    };
    if let Err(what) = report.reconciles(rec) {
        side.problems
            .push(format!("serve report does not reconcile: {what}"));
    }
    let refused = report.busy + report.shed_total() + report.rejected;
    if refused > 0 {
        side.problems
            .push(format!("{refused} frames refused, shed or rejected"));
    }
    side
}

fn fleet_side<T: WireProbe>(mut fleet: Fleet<T>) -> ServerSide {
    if !fleet.script_done() {
        fleet
            .problems
            .push("the scripted join and leave did not both complete".into());
    }
    fleet.settle_all();
    ServerSide {
        evicted: fleet.owners.evicted,
        resumed: fleet.owners.resumed,
        replayed_events: fleet.owners.replayed_events,
        pumps: fleet.owners.pump.calls,
        frames: fleet.owners.handle.calls,
        resident_peak: fleet.owners.resident_peak.unwrap_or(0),
        tally: Some(fleet.tally()),
        router_handle: fleet.router_handle,
        router_tick: fleet.router_tick,
        owner_tick: fleet.owner_tick,
        migration: fleet.migration,
        problems: fleet.problems,
        ..ServerSide::default()
    }
}

/// One repetition of `traffic` against `system`, instrumented when
/// `traced`.
fn one_rep(
    system: System,
    config: &OptimizerConfig,
    traffic: &Traffic,
    traced: bool,
) -> (Rep, ServerSide) {
    match (system, traced) {
        (System::Fleet(script), false) => {
            let (rep, fleet) = drive(
                traffic,
                || Fleet::new(config, script, |t: LoopbackTransport| t),
                |t| t,
            );
            (rep, fleet_side(fleet))
        }
        (System::Fleet(script), true) => {
            let (rep, fleet) = drive(
                traffic,
                || {
                    let mut fleet = Fleet::new(config, script, TimedTransport::new);
                    fleet.owners.resident_peak = Some(0);
                    fleet
                },
                TimedTransport::new,
            );
            (rep, fleet_side(fleet))
        }
        (
            System::Manager {
                live_cap,
                store,
                compact_every,
            },
            traced,
        ) => {
            let make = || {
                let (storage, counters) = match (store, traced) {
                    (false, _) => (None, None),
                    (true, false) => (Some(Box::new(MemStorage::new()) as Box<dyn Storage>), None),
                    (true, true) => {
                        let (storage, counters) = TimedStorage::new(MemStorage::new());
                        let storage: Box<dyn Storage> = Box::new(storage);
                        (Some(storage), Some(counters))
                    }
                };
                let mut server =
                    ManagerServer::new(config, SHARDS, live_cap, storage, compact_every);
                server.storage = counters;
                if traced {
                    server.resident_peak = Some(0);
                }
                server
            };
            let (rep, server) = if traced {
                drive(traffic, make, TimedTransport::new)
            } else {
                drive(traffic, make, |t| t)
            };
            (rep, manager_side(&server))
        }
    }
}

/// Reports and digests of a repetition, for comparing repetitions.
fn outcomes(rep: &Rep) -> Vec<Option<(String, u64)>> {
    rep.reports
        .iter()
        .map(|r| r.as_ref().map(|r| (r.report_json.clone(), r.image_digest)))
        .collect()
}

/// Counts a repetition's chunks and loop-level failures into `m`.
fn tally_rep(m: &mut Measured, rep: &Rep, side: &ServerSide) {
    let chunks = rep.total_chunks();
    let s = &rep.stats;
    let refused = s.retries + s.sheds + s.rejects;
    m.attempted += chunks;
    m.failed += refused.min(chunks);
    if refused > 0 {
        m.problems.push(format!(
            "client saw {} retries, {} sheds, {} rejects",
            s.retries, s.sheds, s.rejects
        ));
    }
    for p in rep.problems.iter().chain(&side.problems) {
        m.check(false, || p.clone());
    }
}

/// Compares every tenant's served report and digest with its
/// standalone reference; returns the references.
fn check_references(
    m: &mut Measured,
    config: &OptimizerConfig,
    traffic: &Traffic,
    rep: &Rep,
) -> Vec<RunReport> {
    let mut references = Vec::with_capacity(traffic.specs.len());
    for (i, spec) in traffic.specs.iter().enumerate() {
        let load = load_prefix(spec, rep.chunks[i]);
        let (report, digest) = standalone_reference(config, MODE, &load);
        let expected = serde_json::to_string(&report).expect("a report serializes");
        let got = rep.reports[i].as_ref();
        m.check(
            got.is_some_and(|g| g.report_json == expected && g.image_digest == digest),
            || format!("{} differs from its standalone reference", spec.name),
        );
        references.push(report);
    }
    references
}

/// Runs `serve_resident`: warm-up, set-up samples, timed repetitions,
/// correctness checks, and — when traced — the ledger.
pub fn run(opts: &Opts, ledger: Option<&mut Ledger>) -> Measured {
    let config = OptimizerConfig::test_scale();
    let traffic = traffic(opts.seed);
    let system = RESIDENT;
    let mut m = Measured::default();

    let warm = Traffic {
        cap: Some(WARMUP_CHUNKS),
        ..traffic.clone()
    };
    drop(one_rep(system, &config, &warm, false));
    let setup_only = Traffic {
        cap: Some(0),
        ..traffic.clone()
    };

    let mut first: Option<Rep> = None;
    let mut cpus = Rotation::new();
    loop {
        cpus.advance();
        // A group of set-ups before each repetition spreads the samples
        // over the whole run.
        let setups: Vec<f64> = (0..SETUP_GROUP)
            .map(|_| one_rep(system, &config, &setup_only, false).0.setup_s)
            .collect();
        let (rep, side) = one_rep(system, &config, &traffic, false);
        m.add_setups(&setups);
        let busy = rep.busy_s();
        #[allow(clippy::cast_precision_loss)]
        let rate = rep.events as f64 / busy;
        eprintln!(
            "repetition: {} chunks, {busy:.3} s busy, {rate:.0} events/s",
            rep.total_chunks()
        );
        tally_rep(&mut m, &rep, &side);
        m.add_rep(rep.events, &rep.times_s, &rep.chunk_ms);
        let again = m.reps < MIN_REPS || m.busy_s() + busy <= opts.seconds;
        match &first {
            None => first = Some(rep),
            Some(r0) => m.check(outcomes(&rep) == outcomes(r0), || {
                "a repetition's reports differ from the first's".into()
            }),
        }
        if !again {
            break;
        }
    }
    let rep0 = first.expect("at least one repetition ran");

    // Every tenant standalone: the reference, and the baseline cycles.
    let references = check_references(&mut m, &config, &traffic, &rep0);
    for (i, spec) in traffic.specs.iter().enumerate() {
        let load = load_prefix(spec, rep0.chunks[i]);
        let mut base = SessionBuilder::new(config.clone())
            .procedures(load.procedures.clone())
            .baseline()
            .build();
        for chunk in &load.chunks {
            for &e in chunk {
                base.on_event(e);
            }
        }
        m.base_cycles += base.finish(&spec.name).total_cycles;
        m.opt_cycles += references[i].total_cycles;
    }

    if let Some(ledger) = ledger {
        traced(
            system,
            &config,
            &traffic,
            &mut m,
            &rep0,
            &references,
            ledger,
        );
    }
    m
}

/// Sets the per-call times of `layer` from `rep`: the path's own
/// measurement, or a replay's.
fn set_times(ledger: &mut Ledger, layer: Layer, rep: &Rep, side: &ServerSide) {
    let t = &rep.times;
    let wc = &rep.wire_client;
    let ws = &rep.wire_server;
    #[allow(clippy::cast_precision_loss)]
    let f = |x: u64| x as f64;
    match layer {
        Layer::Serve => {
            ledger.set("client.step_ms", t.client.mean(1e3));
            ledger.set(
                "wire.encode_ns",
                ratio(wc.encode.total.as_secs_f64() * 1e9, f(wc.events_encoded)),
            );
            ledger.set(
                "wire.decode_ns",
                ratio(ws.decode.total.as_secs_f64() * 1e9, f(ws.events_decoded)),
            );
            ledger.set(
                "wire.bytes_per_event",
                ratio(f(wc.chunk_bytes), f(wc.events_encoded)),
            );
            ledger.set("manager.handle_us", t.handle.mean(1e6));
            ledger.set("pump.busy_ms", t.tick.mean(1e3));
        }
        Layer::Store => {
            let st = &side.storage;
            ledger.set("store.append_us", st.append.mean(1e6));
            ledger.set("store.read_us", st.read.mean(1e6));
            ledger.set("store.sync_us", st.sync.mean(1e6));
        }
        Layer::Router => {
            ledger.set("router.handle_us", side.router_handle.mean(1e6));
            ledger.set("router.tick_ms", side.router_tick.mean(1e3));
            ledger.set("owner.tick_ms", side.owner_tick.mean(1e3));
            ledger.set("cluster.migration_ms", side.migration.mean(1e3));
        }
    }
}

/// Sets the counts and volumes of `layer` from `rep`.
fn set_counts(ledger: &mut Ledger, layer: Layer, rep: &Rep, side: &ServerSide) {
    #[allow(clippy::cast_precision_loss)]
    let f = |x: u64| x as f64;
    match layer {
        Layer::Serve => {
            ledger.set("client.retries", f(rep.stats.retries));
            ledger.set("manager.frames", f(side.frames));
            ledger.set("pump.events_per_pump", ratio(f(rep.events), f(side.pumps)));
            ledger.set("serve.resident_bytes_peak", f(side.resident_peak));
        }
        Layer::Store => {
            let st = &side.storage;
            ledger.set("serve.evicted", f(side.evicted));
            ledger.set("serve.resumed", f(side.resumed));
            ledger.set("serve.replayed_events", f(side.replayed_events));
            ledger.set("store.bytes_written", f(st.bytes_written));
            ledger.set("store.bytes_read", f(st.bytes_read));
            ledger.set(
                "store.write_amp",
                ratio(f(st.bytes_written), f(side.spilled_bytes)),
            );
            ledger.set("store.spilled", f(side.spilled));
            ledger.set("store.loaded", f(side.loaded));
            ledger.set("store.compactions", f(side.compactions));
        }
        Layer::Router => {
            if let Some(tally) = side.tally {
                ledger.set("router.migrations", f(tally.migrations));
                ledger.set("router.refreshes", f(tally.refreshes));
                ledger.set("router.replayed_chunks", f(tally.replayed_chunks));
            }
        }
    }
}

/// Measures `layers` — idle on the workload's own path — by replaying
/// the first [`REPLAY_CAP`] chunks per tenant of its traffic through a
/// system that runs them: their per-call times, and their counts for
/// that replay. Checks the replays' reports against their standalone
/// references.
pub fn replay_layers(
    ledger: &mut Ledger,
    m: &mut Measured,
    config: &OptimizerConfig,
    traffic: &Traffic,
    layers: &[Layer],
) {
    let capped = Traffic {
        cap: Some(REPLAY_CAP),
        ..traffic.clone()
    };
    for &layer in layers {
        let system = match layer {
            Layer::Serve => System::Manager {
                live_cap: None,
                store: false,
                compact_every: 0,
            },
            // A live cap of a quarter of the tenants keeps the store busy.
            Layer::Store => System::Manager {
                live_cap: Some((capped.specs.len() as u64 / 4).max(1)),
                store: true,
                compact_every: 16,
            },
            Layer::Router => System::Fleet(script(0, &capped)),
        };
        let (rep, side) = one_rep(system, config, &capped, true);
        tally_rep(m, &rep, &side);
        check_references(m, config, &capped, &rep);
        if layer == Layer::Router {
            // The router's tally is checked against an untimed run of
            // the same traffic.
            let (plain, plain_side) = one_rep(system, config, &capped, false);
            tally_rep(m, &plain, &plain_side);
            m.check(
                plain_side.tally == side.tally && outcomes(&plain) == outcomes(&rep),
                || {
                    format!(
                        "router tally {:?} differs from the untimed run's {:?}",
                        side.tally, plain_side.tally
                    )
                },
            );
        }
        set_times(ledger, layer, &rep, &side);
        set_counts(ledger, layer, &rep, &side);
        ledger.notes.push(format!(
            "{layer:?} times replayed: {} chunks of this workload's traffic through {}",
            rep.total_chunks(),
            match layer {
                Layer::Serve => "a 4-shard manager",
                Layer::Store => "a live-capped manager spilling to an in-memory store",
                Layer::Router => "a router with owners joining and leaving",
            }
        ));
    }
}

/// The traced part of a run: one instrumented repetition, checked
/// against the untraced ones, the replays, and the ledger.
#[allow(clippy::too_many_arguments)]
fn traced(
    system: System,
    config: &OptimizerConfig,
    traffic: &Traffic,
    m: &mut Measured,
    rep0: &Rep,
    references: &[RunReport],
    ledger: &mut Ledger,
) {
    let (rep, side) = one_rep(system, config, traffic, true);
    tally_rep(m, &rep, &side);
    m.check(outcomes(&rep) == outcomes(rep0), || {
        "traced reports differ from untraced ones".into()
    });
    set_counts(ledger, Layer::Serve, &rep, &side);
    set_times(ledger, Layer::Serve, &rep, &side);
    replay_layers(ledger, m, config, traffic, &[Layer::Store, Layer::Router]);

    // The executor, replayed tenant by tenant with a timed observer.
    let mut core = CoreReplay::default();
    let mut layers = LayerReplay::default();
    let window = window_of(references);
    for (i, spec) in traffic.specs.iter().enumerate() {
        let load = load_prefix(spec, rep0.chunks[i]);
        let mut session = traced_session(config, MODE, load.procedures.clone(), true);
        for chunk in &load.chunks {
            core.feed(&mut session, chunk);
        }
        let snapshot = session.latest_snapshot().cloned();
        let (report, _) = core.finish(session, &spec.name);
        m.check(report == references[i], || {
            format!(
                "{}: the traced replay differs from its reference",
                spec.name
            )
        });
        if let Some(snapshot) = snapshot {
            m.check(
                core.time_resume(config, MODE, &load.procedures, &snapshot),
                || format!("{}: a captured snapshot did not resume", spec.name),
            );
        }
        let mut refs = Vec::new();
        for chunk in load.chunks.iter().take(REPLAY_CHUNKS) {
            refs_of(chunk, &mut refs);
        }
        layers.replay(config, &refs, window);
    }
    ledger.set_reports(references);
    ledger.set_core(&core);
    ledger.set_layers(&layers);
    #[allow(clippy::cast_precision_loss)]
    let traced_eps = ratio(rep.events as f64, rep.busy_s());
    ledger.set("trace.overhead", ratio(traced_eps, m.raw_events_per_s()));

    // Split the traced repetition's busy time by layer.
    let t = &rep.times;
    let wc = &rep.wire_client;
    ledger.traced_ms = rep.busy_s() * 1e3;
    ledger.untraced_ms = rep0.busy_s() * 1e3;
    let wire_client_ms = (wc.encode.total + wc.decode.total + wc.other.total).as_secs_f64() * 1e3;
    ledger.row("serve client (self)", t.client.ms() - wire_client_ms);
    ledger.row(
        "serve wire (encode + decode, both ends)",
        wire_client_ms + t.recv.ms() + t.send.ms(),
    );
    ledger.row("serve manager.handle", t.handle.ms());
    ledger.row("serve pump", t.tick.ms());
    // The executor's share of the pumps, from the replays.
    ledger.part("executor on_event (standalone replay)", core.fed_ms());
    ledger.part("  boundary calls (standalone replay)", core.boundary().ms());
    ledger.notes.push(format!(
        "{} chunks, {} events in the traced repetition; executor rows come from standalone replays of the same tenants with checkpoints",
        rep.total_chunks(),
        rep.events
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Traffic {
        Traffic {
            specs: tenants(5, 3, 3_000),
            cap: None,
        }
    }

    /// The timing wrappers pass everything through: traced and
    /// untraced repetitions serve identical reports and digests, which
    /// equal the standalone references.
    #[test]
    fn traced_wrappers_are_transparent() {
        let config = OptimizerConfig::test_scale();
        let traffic = small();
        let systems = [
            RESIDENT,
            System::Manager {
                live_cap: Some(1),
                store: true,
                compact_every: 2,
            },
            System::Fleet(script(5, &traffic)),
        ];
        for system in systems {
            let (plain, plain_side) = one_rep(system, &config, &traffic, false);
            let (traced, traced_side) = one_rep(system, &config, &traffic, true);
            assert!(plain_side.problems.is_empty(), "{:?}", plain_side.problems);
            assert!(
                traced_side.problems.is_empty(),
                "{:?}",
                traced_side.problems
            );
            assert!(plain.reports.iter().all(Option::is_some), "{system:?}");
            assert_eq!(outcomes(&plain), outcomes(&traced), "{system:?}");
            assert_eq!(plain_side.tally, traced_side.tally);
            let mut m = Measured::default();
            check_references(&mut m, &config, &traffic, &traced);
            assert!(m.problems.is_empty(), "{system:?}: {:?}", m.problems);
        }
    }

    /// Every chunk handed over is applied and timed exactly once.
    #[test]
    fn every_chunk_gets_one_latency() {
        let config = OptimizerConfig::test_scale();
        let traffic = small();
        let (rep, _) = one_rep(RESIDENT, &config, &traffic, false);
        assert!(rep.problems.is_empty(), "{:?}", rep.problems);
        assert_eq!(rep.chunk_ms.len() as u64, rep.total_chunks());
        assert!(rep.chunk_ms.iter().all(|ms| ms.is_finite() && *ms > 0.0));
        assert!(rep.total_chunks() >= 6);
    }
}
