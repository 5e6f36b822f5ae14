//! The router replay's server: a [`Router`] in front of owner
//! processes, assembled here so router time and owner time are timed
//! apart.
//!
//! An owner is what `hds_cluster::OwnerProcess` is — a stock
//! [`SessionManager`] reachable only through frames on its end of a
//! loopback pair, draining its inbox and pumping once per tick — built
//! from the same parts so the benchmark can see which chunks it
//! applied and time its wire end.

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

use hds_cluster::{Router, RouterConfig, RouterTally};
use hds_core::OptimizerConfig;
use hds_serve::TransportError;
use hds_serve::{loopback, Frame, LoopbackTransport, ServeConfig, SessionManager, Transport};
use hds_telemetry::MetricsRecorder;

use crate::probe::Timer;
use crate::serve::{acks, chunk_id, Server, WireProbe, MODE};

/// Chunks a tenant sends between record refreshes.
pub const REFRESH_EVERY: u64 = 8;

struct Owner<T> {
    manager: SessionManager<MetricsRecorder>,
    end: T,
    /// Highest chunk sequence applied per tenant, on this owner's link.
    acked: HashMap<String, u64>,
}

impl<T: Transport> Owner<T> {
    /// Drains the inbox and pumps; adds newly applied chunks per tenant
    /// to `applied`.
    fn tick(&mut self, applied: &mut HashMap<String, u64>, times: &mut OwnerTimes) {
        let mut fresh: Vec<(String, u64)> = Vec::new();
        loop {
            match self.end.recv() {
                Ok(Some(frame)) => {
                    let chunk = chunk_id(&frame);
                    let opens = matches!(frame, Frame::Migrate { .. } | Frame::OpenSession { .. });
                    let start = Instant::now();
                    let responses = self.manager.handle(frame);
                    times.handle.stop(start);
                    if let Some((tenant, seq)) = chunk {
                        let last = self.acked.entry(tenant.clone()).or_insert(0);
                        if seq > *last && acks(&responses, &tenant, seq) {
                            fresh.push((tenant, seq - *last));
                            *last = seq;
                        }
                    } else if opens {
                        // An adopted tenant continues from the sequence
                        // its open was acknowledged at.
                        for r in &responses {
                            if let Frame::Ack { tenant, seq } = r {
                                self.acked.insert(tenant.clone(), *seq);
                            }
                        }
                    }
                    for r in &responses {
                        let _ = self.end.send(r);
                    }
                }
                Ok(None) => break,
                Err(TransportError::Frame(_)) => {}
                Err(_) => break,
            }
        }
        let start = Instant::now();
        let out = self.manager.pump();
        times.pump.stop(start);
        for r in &out {
            let _ = self.end.send(r);
        }
        if let Some(peak) = times.resident_peak.as_mut() {
            *peak = (*peak).max(self.manager.resident_bytes());
        }
        for (tenant, n) in fresh {
            *applied.entry(tenant).or_insert(0) += n;
        }
    }
}

/// Time spent inside the owners' managers.
#[derive(Clone, Copy, Debug, Default)]
pub struct OwnerTimes {
    /// `SessionManager::handle`.
    pub handle: Timer,
    /// `SessionManager::pump`.
    pub pump: Timer,
    /// Largest `resident_bytes` of any owner after a pump, when
    /// tracked.
    pub resident_peak: Option<u64>,
    /// Events the owners' pumps applied, from their reports.
    pub events: u64,
    /// Sessions the owners evicted, resumed, and events they replayed.
    pub evicted: u64,
    /// See `evicted`.
    pub resumed: u64,
    /// See `evicted`.
    pub replayed_events: u64,
}

/// Where the fleet's membership changes, in chunks handed over.
#[derive(Clone, Copy, Debug)]
pub struct Script {
    /// Owner 2 joins once this many chunks were handed over.
    pub join_at: u64,
    /// Owner 0 leaves once this many chunks were handed over.
    pub leave_at: u64,
}

/// The router and its owners.
pub struct Fleet<T> {
    serve_cfg: ServeConfig,
    router: Router,
    members: BTreeMap<u32, Owner<T>>,
    wrap: fn(LoopbackTransport) -> T,
    applied: HashMap<String, u64>,
    script: Script,
    joined: bool,
    leaving: Option<(u32, Instant)>,
    /// `Router::handle`.
    pub router_handle: Timer,
    /// `Router::tick`, attaches and membership changes.
    pub router_tick: Timer,
    /// Owner ticks.
    pub owner_tick: Timer,
    /// Inside the owners' ticks.
    pub owners: OwnerTimes,
    /// From `leave_owner` until the leaving owner has drained.
    pub migration: Timer,
    /// Failed reconciliations of owners' reports.
    pub problems: Vec<String>,
}

impl<T: WireProbe> Fleet<T> {
    /// Owners 0 and 1 around a router that refreshes every
    /// [`REFRESH_EVERY`] chunks; `wrap` wraps each owner's wire end.
    #[must_use]
    pub fn new(config: &OptimizerConfig, script: Script, wrap: fn(LoopbackTransport) -> T) -> Self {
        let serve_cfg = ServeConfig::new(config.clone(), MODE)
            .with_shards(2)
            .with_workers(1);
        let mut fleet = Fleet {
            serve_cfg,
            router: Router::new(RouterConfig {
                refresh_every: REFRESH_EVERY,
                ..RouterConfig::default()
            }),
            members: BTreeMap::new(),
            wrap,
            applied: HashMap::new(),
            script,
            joined: false,
            leaving: None,
            router_handle: Timer::default(),
            router_tick: Timer::default(),
            owner_tick: Timer::default(),
            owners: OwnerTimes::default(),
            migration: Timer::default(),
            problems: Vec::new(),
        };
        fleet.join(0);
        fleet.join(1);
        fleet
    }

    fn join(&mut self, id: u32) {
        let manager = SessionManager::with_observer(self.serve_cfg.clone(), MetricsRecorder::new())
            .expect("valid serve config");
        let (router_end, owner_end) = loopback();
        self.router.join_owner(id, router_end);
        self.members.insert(
            id,
            Owner {
                manager,
                end: (self.wrap)(owner_end),
                acked: HashMap::new(),
            },
        );
    }

    /// The router's counters.
    #[must_use]
    pub fn tally(&self) -> RouterTally {
        *self.router.tally()
    }

    /// Checks an owner's report against its recorder and adds its
    /// counters to the totals.
    fn settle(&mut self, id: u32, owner: &Owner<T>) {
        let report = owner.manager.report();
        if let Err(what) = report.reconciles(owner.manager.observer()) {
            self.problems
                .push(format!("owner {id} report does not reconcile: {what}"));
        }
        self.owners.events += report.events;
        self.owners.evicted += report.evicted;
        self.owners.resumed += report.resumed;
        self.owners.replayed_events += report.replayed_events;
    }

    /// Settles every owner still in the fleet; call once, at the end.
    pub fn settle_all(&mut self) {
        let members = std::mem::take(&mut self.members);
        for (id, owner) in &members {
            self.settle(*id, owner);
        }
    }

    /// Whether the scripted join and leave both happened.
    #[must_use]
    pub fn script_done(&self) -> bool {
        self.joined && self.leaving.is_none() && !self.members.contains_key(&0)
    }
}

impl<T: WireProbe> Server for Fleet<T> {
    fn handle(&mut self, frame: Frame) -> Vec<Frame> {
        let start = Instant::now();
        let out = self.router.handle(frame);
        self.router_handle.stop(start);
        out
    }

    fn tick(&mut self) -> Vec<Frame> {
        let start = Instant::now();
        let out = self.router.tick();
        for id in out.needs_attach {
            if let Some(owner) = self.members.get_mut(&id) {
                let (router_end, owner_end) = loopback();
                self.router.attach_owner(id, router_end);
                owner.end = (self.wrap)(owner_end);
            }
        }
        if let Some((id, since)) = self.leaving {
            if self.router.owner_drained(id) {
                self.router.detach_owner(id);
                if let Some(owner) = self.members.remove(&id) {
                    self.settle(id, &owner);
                }
                self.migration.stop(since);
                self.leaving = None;
            }
        }
        self.router_tick.stop(start);
        let start = Instant::now();
        for owner in self.members.values_mut() {
            owner.tick(&mut self.applied, &mut self.owners);
        }
        self.owner_tick.stop(start);
        out.client_frames
    }

    fn applied(&self, tenant: &str) -> u64 {
        self.applied.get(tenant).copied().unwrap_or(0)
    }

    fn progress(&mut self, chunks: u64) {
        if !self.joined && chunks >= self.script.join_at {
            self.joined = true;
            let start = Instant::now();
            self.join(2);
            self.router_tick.stop(start);
        }
        if self.joined
            && self.leaving.is_none()
            && self.members.contains_key(&0)
            && chunks >= self.script.leave_at
        {
            let start = Instant::now();
            self.router.leave_owner(0);
            self.router_tick.stop(start);
            self.leaving = Some((0, start));
        }
    }
}
