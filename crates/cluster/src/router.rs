//! The router tier: speaks `HDSW` to the client on the front, speaks
//! `HDSW` to every shard-owner process on the back, and carries each
//! tenant across owner crashes and membership changes without the
//! client ever noticing.
//!
//! # Store-and-forward with a replay journal
//!
//! The router acknowledges a client chunk as soon as it is journaled,
//! then delivers it to the tenant's owner through a reliable
//! [`ClientSession`] link (retry, backoff, dedup — the same machinery
//! a direct client uses). Every admitted chunk stays in the tenant's
//! journal until a *record refresh* proves the owner has durably
//! absorbed it: the router periodically asks the owner to `Export` the
//! tenant's [`TenantRecord`] (without detaching), installs the record
//! as the new rebuild basis, and truncates the journal to the chunks
//! admitted after the refresh. The invariant at every instant:
//!
//! > basis record (possibly `None`) + journal = everything the client
//! > has been acknowledged for.
//!
//! # Crash recovery and live handoff
//!
//! When an owner dies, each of its tenants is rebuilt — on a restarted
//! owner or re-homed onto a surviving ring member — by replaying the
//! basis record through `Migrate` (the same durable bytes a store
//! rehydration uses, so the rebuilt session is bit-identical by
//! construction) and re-delivering the journal. Planned migrations
//! (owner join/leave) do the same dance through a detaching `Export`:
//! the departing owner hands over a record that already covers every
//! delivered chunk, and only the chunks the router held back during
//! the handoff replay at the destination.

use std::collections::BTreeMap;

use hds_guard::{RouterBudgets, RouterGuard};
use hds_serve::client::{ClientConfig, ClientSession, ClientStatus};
use hds_serve::transport::LoopbackTransport;
use hds_serve::wire::{Frame, RejectCode, FEATURE_RELIABLE, WIRE_VERSION};
use hds_serve::{chunk_cost, tenant_key};
use hds_store::TenantRecord;
use hds_telemetry::events as tev;
use hds_telemetry::{NullObserver, Observer};
use hds_vulcan::{Event, Procedure};

/// Router behaviour knobs.
#[derive(Clone, Debug)]
pub struct RouterConfig {
    /// Per-owner link configuration (reliable delivery knobs). The
    /// router forces `goodbye` off — links live as long as the owner.
    pub link: ClientConfig,
    /// Admission budgets for the router tier.
    pub budgets: RouterBudgets,
    /// Admitted chunks per tenant between record refreshes; `0` never
    /// refreshes (the journal then holds the tenant's whole stream,
    /// which is correct but unbounded).
    pub refresh_every: u64,
    /// Client-facing shared-secret token; `None` accepts any.
    pub auth_token: Option<String>,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            link: ClientConfig {
                goodbye: false,
                ..ClientConfig::default()
            },
            budgets: RouterBudgets::disabled(),
            refresh_every: 0,
            auth_token: None,
        }
    }
}

/// Aggregate router counters, for benches and assertions.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RouterTally {
    /// Planned tenant migrations completed (join/leave handoffs).
    pub migrations: u64,
    /// Crash-driven re-homes completed.
    pub rehomes: u64,
    /// Owner processes rebuilt after a restart.
    pub owner_restarts: u64,
    /// Journaled chunks replayed across every rebuild.
    pub replayed_chunks: u64,
    /// Record refreshes installed.
    pub refreshes: u64,
    /// Client chunks admitted (journaled and acknowledged).
    pub chunks_admitted: u64,
}

/// An in-flight export and what to do with the record when it lands.
#[derive(Clone, Copy, Debug)]
struct ExportIntent {
    /// Planned-migration destination; `None` is a refresh (or a
    /// client-requested export).
    dest: Option<u32>,
    /// Journal entries `[..mark]` are covered by the record the owner
    /// will hand back; entries at and past it were held back.
    mark: usize,
    /// A client asked for this export (and whether it detaches); the
    /// record is forwarded to the client when it lands.
    client_detach: Option<bool>,
}

/// One tenant's route: where it lives and what it would take to
/// rebuild it.
struct Route {
    owner: u32,
    procedures: Vec<Procedure>,
    /// Highest chunk sequence acknowledged to the *client*.
    last_seq: u64,
    /// Rebuild basis: the last exported durable record.
    record: Option<TenantRecord>,
    /// Chunks admitted since the basis, in order.
    journal: Vec<Vec<Event>>,
    journal_bytes: u64,
    /// Journal entries already delivered to the current owner link.
    forwarded: usize,
    export: Option<ExportIntent>,
    chunks_since_refresh: u64,
    flush_requested: bool,
    /// Cached final report (duplicate `Flush` resends it).
    report: Option<(String, u64)>,
}

impl Route {
    fn finished(&self) -> bool {
        self.report.is_some()
    }
}

/// What one router tick produced.
#[derive(Debug, Default)]
pub struct RouterTick {
    /// Frames to deliver to the client (reports, exports).
    pub client_frames: Vec<Frame>,
    /// Owners whose link lost its connection; the supervisor answers
    /// with [`Router::attach_owner`] (alive), [`Router::owner_restarted`]
    /// (restarted), or [`Router::rehome_owner`] (gone).
    pub needs_attach: Vec<u32>,
}

/// See the module docs. `O` receives cluster events and span instants.
pub struct Router<O: Observer = NullObserver> {
    cfg: RouterConfig,
    obs: O,
    ring: crate::OwnerRing,
    links: BTreeMap<u32, ClientSession<LoopbackTransport>>,
    routes: BTreeMap<String, Route>,
    guard: RouterGuard,
    tally: RouterTally,
    clock: u64,
    hello_done: bool,
    reliable: bool,
    draining: bool,
}

impl Router<NullObserver> {
    /// A router with no observer.
    #[must_use]
    pub fn new(cfg: RouterConfig) -> Self {
        Router::with_observer(cfg, NullObserver)
    }
}

impl<O: Observer> Router<O> {
    /// A router emitting cluster telemetry into `obs`.
    #[must_use]
    pub fn with_observer(mut cfg: RouterConfig, obs: O) -> Self {
        cfg.link.goodbye = false;
        let guard = RouterGuard::new(cfg.budgets);
        Router {
            cfg,
            obs,
            ring: crate::OwnerRing::new(),
            links: BTreeMap::new(),
            routes: BTreeMap::new(),
            guard,
            tally: RouterTally::default(),
            clock: 0,
            hello_done: false,
            reliable: false,
            draining: false,
        }
    }

    /// Router counters.
    #[must_use]
    pub fn tally(&self) -> &RouterTally {
        &self.tally
    }

    /// The admission guard's ledger.
    #[must_use]
    pub fn guard(&self) -> &RouterGuard {
        &self.guard
    }

    /// The membership ring.
    #[must_use]
    pub fn ring(&self) -> &crate::OwnerRing {
        &self.ring
    }

    /// The observer, for reading recorded telemetry back.
    #[must_use]
    pub fn observer(&self) -> &O {
        &self.obs
    }

    /// Consumes the router and returns its observer.
    #[must_use]
    pub fn into_observer(self) -> O {
        self.obs
    }

    /// Tenants currently routed (finished ones included).
    #[must_use]
    pub fn tenants(&self) -> u64 {
        self.routes.len() as u64
    }

    /// Whether every routed tenant has its report.
    #[must_use]
    pub fn all_flushed(&self) -> bool {
        self.routes.values().all(Route::finished)
    }

    /// The owner a tenant currently routes to.
    #[must_use]
    pub fn owner_of(&self, tenant: &str) -> Option<u32> {
        self.routes.get(tenant).map(|r| r.owner)
    }

    /// Tenants still mid-stream (no final report yet), ascending.
    #[must_use]
    pub fn unfinished_tenants(&self) -> Vec<String> {
        self.routes
            .iter()
            .filter(|(_, r)| !r.finished())
            .map(|(name, _)| name.clone())
            .collect()
    }

    fn cluster_instant(&mut self, kind: tev::ClusterEventKind, b: u64) {
        if O::ENABLED {
            self.obs.on(&tev::Event::Span(
                tev::SpanEvent::instant(tev::SpanKind::Cluster, self.clock)
                    .with_args(kind.code(), b),
            ));
        }
    }

    fn fresh_link(&self, transport: LoopbackTransport) -> ClientSession<LoopbackTransport> {
        let mut link = ClientSession::new(self.cfg.link.clone());
        link.connect(transport);
        link
    }

    // ----- membership -------------------------------------------------

    /// Admits a new owner: its link attaches, it joins the ring, every
    /// route orphaned by a fleet-wide loss is rebuilt on its new home,
    /// and every tenant whose arc it took over starts a planned
    /// migration.
    pub fn join_owner(&mut self, owner: u32, transport: LoopbackTransport) {
        self.clock += 1;
        self.ring.add(owner);
        self.links.insert(owner, self.fresh_link(transport));
        self.cluster_instant(tev::ClusterEventKind::OwnerJoined, u64::from(owner));
        let orphans: Vec<(String, u32)> = self
            .routes
            .iter()
            .filter(|(_, r)| !r.finished() && !self.links.contains_key(&r.owner))
            .map(|(name, r)| (name.clone(), r.owner))
            .collect();
        for (name, from) in orphans {
            self.rehome_route(&name, from);
        }
        self.plan_ring_migrations();
    }

    /// Begins a planned departure: the owner leaves the ring and every
    /// tenant it held starts migrating to its new ring owner. The
    /// process itself should stay up until [`Router::owner_drained`],
    /// then be detached with [`Router::detach_owner`].
    pub fn leave_owner(&mut self, owner: u32) {
        self.clock += 1;
        self.ring.remove(owner);
        self.cluster_instant(tev::ClusterEventKind::OwnerLeft, u64::from(owner));
        self.plan_ring_migrations();
    }

    /// Whether nothing routes to (or is still migrating off) the owner.
    #[must_use]
    pub fn owner_drained(&self, owner: u32) -> bool {
        self.routes.values().all(|r| {
            (r.owner != owner || r.finished()) && r.export.is_none_or(|e| e.dest != Some(owner))
        })
    }

    /// Drops a departed owner's link. Call once drained.
    pub fn detach_owner(&mut self, owner: u32) {
        self.links.remove(&owner);
    }

    /// Starts a migration for every unfinished tenant whose ring owner
    /// disagrees with its current owner (after a join or leave).
    fn plan_ring_migrations(&mut self) {
        let moves: Vec<(String, u32)> = self
            .routes
            .iter()
            .filter(|(_, r)| !r.finished() && r.export.is_none())
            .filter_map(|(name, r)| {
                let home = self.ring.owner_for(tenant_key(name))?;
                (home != r.owner).then(|| (name.clone(), home))
            })
            .collect();
        for (name, dest) in moves {
            let route = self.routes.get_mut(&name).expect("filtered above");
            let mark = route.forwarded;
            route.export = Some(ExportIntent {
                dest: Some(dest),
                mark,
                client_detach: None,
            });
            if let Some(link) = self.links.get_mut(&route.owner) {
                link.request_export(&name, true);
            }
        }
    }

    // ----- crash handling ---------------------------------------------

    /// Re-attaches a live owner whose connection dropped: the existing
    /// link resumes on the fresh transport (re-`Hello`, re-open,
    /// rewind to the server's resume points).
    pub fn attach_owner(&mut self, owner: u32, transport: LoopbackTransport) {
        if let Some(link) = self.links.get_mut(&owner) {
            link.on_reconnected(transport);
        } else {
            self.links.insert(owner, self.fresh_link(transport));
        }
    }

    /// Rebuilds a *restarted* owner: the old link (whose server-side
    /// state died with the process) is discarded, and every tenant
    /// routed to the owner is rebuilt from its basis record plus
    /// journal on a fresh link.
    pub fn owner_restarted(&mut self, owner: u32, transport: LoopbackTransport) {
        self.clock += 1;
        self.cluster_instant(tev::ClusterEventKind::OwnerDead, u64::from(owner));
        self.links.insert(owner, self.fresh_link(transport));
        let victims: Vec<String> = self
            .routes
            .iter()
            .filter(|(_, r)| r.owner == owner && !r.finished())
            .map(|(name, _)| name.clone())
            .collect();
        let tenants = victims.len() as u64;
        let mut replayed_chunks = 0;
        for name in victims {
            replayed_chunks += self.rebuild_route(&name, owner);
        }
        self.tally.owner_restarts += 1;
        self.cluster_instant(tev::ClusterEventKind::OwnerRestarted, u64::from(owner));
        if O::ENABLED {
            self.obs.on(&tev::Event::ClusterOwnerRestarted(
                tev::ClusterOwnerRestarted {
                    owner,
                    tenants,
                    replayed_chunks,
                },
            ));
        }
        // Tenants that were migrating *to* the dead owner re-resolve
        // when their export lands (the dest link was just replaced, so
        // the handoff proceeds onto the fresh process).
    }

    /// Re-homes a *dead* owner's tenants onto the surviving ring: the
    /// owner leaves the ring, its link is dropped, and every tenant it
    /// held is rebuilt on its new ring owner.
    pub fn rehome_owner(&mut self, owner: u32) {
        self.clock += 1;
        self.cluster_instant(tev::ClusterEventKind::OwnerDead, u64::from(owner));
        self.ring.remove(owner);
        self.links.remove(&owner);
        let victims: Vec<String> = self
            .routes
            .iter()
            .filter(|(_, r)| r.owner == owner)
            .map(|(name, _)| name.clone())
            .collect();
        for name in victims {
            self.rehome_route(&name, owner);
        }
        // Migrations that were headed *to* the dead owner re-target
        // their ring owner; a re-target onto the tenant's current
        // owner degrades into a plain refresh.
        let retargets: Vec<String> = self
            .routes
            .iter()
            .filter(|(_, r)| r.export.is_some_and(|e| e.dest == Some(owner)))
            .map(|(name, _)| name.clone())
            .collect();
        for name in retargets {
            let home = self.ring.owner_for(tenant_key(&name));
            let route = self.routes.get_mut(&name).expect("present");
            let intent = route.export.as_mut().expect("filtered above");
            intent.dest = match home {
                Some(h) if h != route.owner => Some(h),
                _ => None,
            };
        }
    }

    /// Moves one route off the dead owner `from` onto its ring owner,
    /// rebuilding it there if unfinished. With no survivors the route
    /// stays orphaned: chunks are journaled but not forwarded, and the
    /// next join rebuilds it.
    fn rehome_route(&mut self, name: &str, from: u32) {
        let key = tenant_key(name);
        let Some(dest) = self.ring.owner_for(key) else {
            return;
        };
        if self.routes[name].finished() {
            self.routes.get_mut(name).expect("present").owner = dest;
            return;
        }
        let replayed = self.rebuild_route(name, dest);
        self.tally.rehomes += 1;
        self.cluster_instant(tev::ClusterEventKind::Rehomed, key);
        if O::ENABLED {
            self.obs
                .on(&tev::Event::ClusterRehomed(tev::ClusterRehomed {
                    tenant: key,
                    from_owner: from,
                    to_owner: dest,
                    replayed_chunks: replayed,
                }));
        }
    }

    /// Rebuilds one tenant's session on `dest` from its basis record
    /// plus journal replay, resetting delivery state to the fresh
    /// link. Returns the journal chunks replayed.
    fn rebuild_route(&mut self, name: &str, dest: u32) -> u64 {
        let route = self.routes.get_mut(name).expect("route exists");
        let from = route.owner;
        route.owner = dest;
        // An in-flight export died with the connection; a client-
        // requested one is re-issued below, internal ones re-trigger
        // naturally.
        let client_detach = route.export.take().and_then(|e| e.client_detach);
        route.forwarded = 0;
        route.chunks_since_refresh = 0;
        let link = self.links.get_mut(&dest).expect("dest link attached");
        match &route.record {
            Some(record) => link.add_tenant_from_record(record.clone()),
            None => link.add_tenant_streaming(name, route.procedures.clone()),
        }
        for chunk in &route.journal {
            link.push_chunk(name, chunk.clone());
        }
        route.forwarded = route.journal.len();
        let replayed = route.journal.len() as u64;
        self.tally.replayed_chunks += replayed;
        if route.flush_requested && route.report.is_none() {
            link.request_flush(name);
        }
        if let Some(detach) = client_detach {
            let mark = route.forwarded;
            route.export = Some(ExportIntent {
                dest: None,
                mark,
                client_detach: Some(detach),
            });
            link.request_export(name, detach);
        }
        let _ = from;
        replayed
    }

    // ----- client-facing wire ----------------------------------------

    fn reject(code: RejectCode, detail: impl Into<String>) -> Vec<Frame> {
        vec![Frame::Reject {
            code,
            detail: detail.into(),
        }]
    }

    /// Handles one client frame, mirroring the single-process
    /// manager's semantics (idempotent re-open, duplicate re-ack,
    /// sequence-gap reject) so a reliable [`ClientSession`] cannot
    /// tell a router from a direct server.
    pub fn handle(&mut self, frame: Frame) -> Vec<Frame> {
        self.clock += 1;
        match frame {
            Frame::Hello {
                token, features, ..
            } => {
                if let Some(secret) = &self.cfg.auth_token {
                    if &token != secret {
                        return Self::reject(RejectCode::AuthFailed, "bad auth token");
                    }
                }
                self.hello_done = true;
                self.reliable = features & FEATURE_RELIABLE != 0;
                // Per-tenant backend resolution is the owners' shared
                // fleet policy; a per-connection hint is not forwarded.
                vec![Frame::HelloAck {
                    version: WIRE_VERSION,
                    backend: None,
                }]
            }
            _ if !self.hello_done => {
                Self::reject(RejectCode::HandshakeRequired, "handshake required")
            }
            Frame::Goodbye => {
                let drained = self.routes.values().filter(|r| !r.finished()).count() as u64;
                self.draining = true;
                vec![Frame::GoodbyeAck { drained }]
            }
            _ if self.draining => Self::reject(RejectCode::Draining, "router is draining"),
            Frame::OpenSession { tenant, procedures } => self.open_session(tenant, procedures),
            Frame::TraceChunk {
                tenant,
                seq,
                events,
            } => self.trace_chunk(&tenant, seq, events),
            Frame::Flush { tenant } => self.flush(&tenant),
            Frame::Migrate { record } => self.migrate_in(record),
            Frame::Export { tenant, detach } => self.export(&tenant, detach),
            Frame::Ping { nonce } => vec![Frame::Pong { nonce }],
            Frame::Pong { .. } | Frame::Evict { .. } | Frame::Resume { .. } => Vec::new(),
            Frame::Introspect { tenant } => self.introspect(&tenant),
            Frame::HelloAck { .. }
            | Frame::Report { .. }
            | Frame::Busy { .. }
            | Frame::Shed { .. }
            | Frame::Reject { .. }
            | Frame::Stats { .. }
            | Frame::Ack { .. }
            | Frame::GoodbyeAck { .. }
            | Frame::Exported { .. } => Self::reject(
                RejectCode::ClientSentServerFrame,
                "server-to-client frame from client",
            ),
        }
    }

    /// The fleet is empty: like an orphaned route, a new tenant waits
    /// for a join — a retry-safe refusal, not a fatal reject.
    fn no_owners(tenant: String) -> Vec<Frame> {
        vec![Frame::Busy {
            tenant,
            budget: 0,
            observed: 0,
        }]
    }

    fn open_session(&mut self, tenant: String, procedures: Vec<Procedure>) -> Vec<Frame> {
        if let Some(route) = self.routes.get(&tenant) {
            // Idempotent re-open on a reliable connection: answer the
            // resume point.
            if self.reliable {
                return vec![Frame::Ack {
                    tenant,
                    seq: route.last_seq,
                }];
            }
            return Self::reject(RejectCode::TenantAlreadyOpen, tenant);
        }
        if let Err(trip) = self.guard.admit_tenant(self.routes.len() as u64) {
            return vec![Frame::Busy {
                tenant,
                budget: trip.budget,
                observed: trip.observed,
            }];
        }
        let Some(owner) = self.ring.owner_for(tenant_key(&tenant)) else {
            return Self::no_owners(tenant);
        };
        let link = self.links.get_mut(&owner).expect("ring member has a link");
        link.add_tenant_streaming(&tenant, procedures.clone());
        self.routes.insert(
            tenant.clone(),
            Route {
                owner,
                procedures,
                last_seq: 0,
                record: None,
                journal: Vec::new(),
                journal_bytes: 0,
                forwarded: 0,
                export: None,
                chunks_since_refresh: 0,
                flush_requested: false,
                report: None,
            },
        );
        vec![Frame::Ack { tenant, seq: 0 }]
    }

    fn migrate_in(&mut self, record: TenantRecord) -> Vec<Frame> {
        let tenant = record.tenant.clone();
        if let Some(route) = self.routes.get(&tenant) {
            if self.reliable {
                return vec![Frame::Ack {
                    tenant,
                    seq: route.last_seq,
                }];
            }
            return Self::reject(RejectCode::TenantAlreadyOpen, tenant);
        }
        if let Err(trip) = self.guard.admit_tenant(self.routes.len() as u64) {
            return vec![Frame::Busy {
                tenant,
                budget: trip.budget,
                observed: trip.observed,
            }];
        }
        let Some(owner) = self.ring.owner_for(tenant_key(&tenant)) else {
            return Self::no_owners(tenant);
        };
        let link = self.links.get_mut(&owner).expect("ring member has a link");
        link.add_tenant_from_record(record.clone());
        self.routes.insert(
            tenant.clone(),
            Route {
                owner,
                procedures: record.procedures.clone(),
                last_seq: 0,
                record: Some(record),
                journal: Vec::new(),
                journal_bytes: 0,
                forwarded: 0,
                export: None,
                chunks_since_refresh: 0,
                flush_requested: false,
                report: None,
            },
        );
        vec![Frame::Ack { tenant, seq: 0 }]
    }

    fn trace_chunk(&mut self, tenant: &str, seq: u64, events: Vec<Event>) -> Vec<Frame> {
        let Some(route) = self.routes.get(tenant) else {
            return Self::reject(RejectCode::UnknownTenant, tenant);
        };
        if route.finished() {
            return Self::reject(RejectCode::TenantFlushed, tenant);
        }
        if seq <= route.last_seq {
            // Duplicate: re-acknowledge for free.
            return vec![Frame::Ack {
                tenant: tenant.to_string(),
                seq: route.last_seq,
            }];
        }
        if seq > route.last_seq + 1 {
            return Self::reject(
                RejectCode::BadSequence,
                format!("{tenant} {}", route.last_seq),
            );
        }
        // A client-requested detaching export is in flight: the record
        // being cut must stay the last word, so refuse (not drop) the
        // chunk — `Busy` is retry-safe.
        if route.export.is_some_and(|e| e.client_detach == Some(true)) {
            return vec![Frame::Busy {
                tenant: tenant.to_string(),
                budget: 0,
                observed: seq,
            }];
        }
        let cost = chunk_cost(&events);
        let total: u64 = self.routes.values().map(|r| r.journal_bytes).sum();
        if let Err(trip) = self.guard.admit_journal_bytes(total + cost) {
            return vec![Frame::Shed {
                tenant: tenant.to_string(),
                kind: tev::ServeBudgetKind::GlobalBytes,
                budget: trip.budget,
                observed: trip.observed,
            }];
        }
        let route = self.routes.get_mut(tenant).expect("checked above");
        route.journal.push(events);
        route.journal_bytes += cost;
        route.last_seq = seq;
        route.chunks_since_refresh += 1;
        self.tally.chunks_admitted += 1;
        // Forward immediately; during a handoff (or while orphaned) the
        // chunk is held and replayed at the destination instead.
        if let (None, Some(link)) = (route.export, self.links.get_mut(&route.owner)) {
            let chunk = route.journal[route.forwarded].clone();
            route.forwarded += 1;
            link.push_chunk(tenant, chunk);
            self.maybe_refresh(tenant);
        }
        vec![Frame::Ack {
            tenant: tenant.to_string(),
            seq,
        }]
    }

    /// Starts a record refresh when the journal grew past the
    /// configured interval and nothing else is in flight.
    fn maybe_refresh(&mut self, tenant: &str) {
        if self.cfg.refresh_every == 0 {
            return;
        }
        let route = self.routes.get_mut(tenant).expect("caller checked");
        if route.export.is_some()
            || route.flush_requested
            || route.chunks_since_refresh < self.cfg.refresh_every
        {
            return;
        }
        route.chunks_since_refresh = 0;
        let mark = route.forwarded;
        route.export = Some(ExportIntent {
            dest: None,
            mark,
            client_detach: None,
        });
        let owner = route.owner;
        self.links
            .get_mut(&owner)
            .expect("routed owner has a link")
            .request_export(tenant, false);
    }

    fn flush(&mut self, tenant: &str) -> Vec<Frame> {
        let Some(route) = self.routes.get_mut(tenant) else {
            return Self::reject(RejectCode::UnknownTenant, tenant);
        };
        if let Some((report_json, image_digest)) = &route.report {
            // Duplicate flush: resend the cached report.
            return vec![Frame::Report {
                tenant: tenant.to_string(),
                report_json: report_json.clone(),
                image_digest: *image_digest,
            }];
        }
        if !route.flush_requested {
            route.flush_requested = true;
            // With an export in flight the flush is deferred until the
            // record lands; an orphaned route flushes at its rebuild.
            if let (None, Some(link)) = (route.export, self.links.get_mut(&route.owner)) {
                link.request_flush(tenant);
            }
        }
        Vec::new()
    }

    fn export(&mut self, tenant: &str, detach: bool) -> Vec<Frame> {
        let Some(route) = self.routes.get_mut(tenant) else {
            return Self::reject(RejectCode::UnknownTenant, tenant);
        };
        if route.finished() {
            return Self::reject(RejectCode::TenantFlushed, tenant);
        }
        if route.export.is_some() || !self.links.contains_key(&route.owner) {
            // One export at a time, and none while orphaned; retry-safe
            // refusal.
            return vec![Frame::Busy {
                tenant: tenant.to_string(),
                budget: 1,
                observed: 1,
            }];
        }
        let mark = route.forwarded;
        route.export = Some(ExportIntent {
            dest: None,
            mark,
            client_detach: Some(detach),
        });
        let owner = route.owner;
        self.links
            .get_mut(&owner)
            .expect("routed owner has a link")
            .request_export(tenant, detach);
        Vec::new()
    }

    fn introspect(&mut self, filter: &str) -> Vec<Frame> {
        if !filter.is_empty() && !self.routes.contains_key(filter) {
            return Self::reject(RejectCode::UnknownTenant, filter);
        }
        let tenants = self
            .routes
            .iter()
            .filter(|(name, _)| filter.is_empty() || name.as_str() == filter)
            .map(|(name, route)| hds_serve::wire::TenantStats {
                tenant: name.clone(),
                shard: route.owner,
                live: !route.finished(),
                finished: route.finished(),
                queued_chunks: (route.journal.len() - route.forwarded) as u64,
                events_consumed: 0,
                snapshots: 0,
                tail_events: 0,
            })
            .collect();
        vec![Frame::Stats {
            clock: self.clock,
            queued_bytes: self.routes.values().map(|r| r.journal_bytes).sum(),
            tenants,
            shards: Vec::new(),
        }]
    }

    // ----- the pump ---------------------------------------------------

    /// One router tick: step every owner link, harvest reports and
    /// exported records, complete handoffs. Returns frames for the
    /// client and links that lost their connection.
    pub fn tick(&mut self) -> RouterTick {
        self.clock += 1;
        let mut out = RouterTick::default();
        let owners: Vec<u32> = self.links.keys().copied().collect();
        for owner in owners {
            let link = self.links.get_mut(&owner).expect("iterating keys");
            match link.step() {
                Ok(ClientStatus::NeedReconnect) => out.needs_attach.push(owner),
                Ok(_) => {}
                // A wedged link (retries exhausted against a silent
                // peer) is indistinguishable from a dead owner; the
                // supervisor decides restart vs re-home.
                Err(_) => out.needs_attach.push(owner),
            }
        }
        self.harvest(&mut out);
        out
    }

    /// Collects finished reports and landed exports from the links.
    fn harvest(&mut self, out: &mut RouterTick) {
        let names: Vec<String> = self.routes.keys().cloned().collect();
        for name in names {
            let route = self.routes.get(&name).expect("iterating keys");
            let owner = route.owner;
            let Some(link) = self.links.get_mut(&owner) else {
                continue;
            };
            if !route.finished() {
                // Read, don't take: taking would revert the link flow
                // to "flush pending" and it would re-request forever.
                // Latest flow wins — a tenant can revisit a link.
                let report = link
                    .reports()
                    .into_iter()
                    .rev()
                    .find(|r| r.tenant == name)
                    .cloned();
                if let Some(report) = report {
                    let route = self.routes.get_mut(&name).expect("present");
                    route.report = Some((report.report_json.clone(), report.image_digest));
                    // The rebuild basis is dead weight once the report
                    // is cached at the router.
                    route.journal.clear();
                    route.journal_bytes = 0;
                    route.forwarded = 0;
                    route.record = None;
                    route.export = None;
                    out.client_frames.push(Frame::Report {
                        tenant: report.tenant,
                        report_json: report.report_json,
                        image_digest: report.image_digest,
                    });
                    continue;
                }
            }
            // Owner stats pushes are link-local chatter; drain them so
            // they do not accumulate.
            let _ = link.take_stats();
            if let Some(record) = link.take_export(&name) {
                self.complete_export(&name, record, out);
            }
        }
    }

    /// An export landed: install the record as the new basis, truncate
    /// the covered journal prefix, and route the held tail to wherever
    /// the intent points.
    fn complete_export(&mut self, name: &str, record: TenantRecord, out: &mut RouterTick) {
        let route = self.routes.get_mut(name).expect("caller checked");
        let Some(intent) = route.export.take() else {
            return; // Stale duplicate; already applied.
        };
        let from = route.owner;
        route.journal.drain(..intent.mark.min(route.journal.len()));
        route.journal_bytes = route.journal.iter().map(|c| chunk_cost(c)).sum();
        route.forwarded = 0;
        route.record = Some(record.clone());
        if let Some(detach) = intent.client_detach {
            out.client_frames.push(Frame::Exported {
                record: record.clone(),
            });
            if detach {
                self.routes.remove(name);
                return;
            }
        }
        let key = tenant_key(name);
        // A refresh that completed *after* a membership change doubles
        // as the handoff export: if the ring re-homed the tenant while
        // the export was in flight, seat the fresh record at the new
        // home instead of resuming on the old owner.
        let dest = match intent.dest {
            Some(d) => Some(d),
            None if intent.client_detach.is_none() => match self.ring.owner_for(key) {
                Some(home) if home != from && self.links.contains_key(&home) => Some(home),
                _ => None,
            },
            None => None,
        };
        if let Some(to) = dest {
            // Planned migration: seat the record at the destination
            // and replay the held tail there.
            route.owner = to;
            let link = self.links.get_mut(&to).expect("dest link attached");
            link.add_tenant_from_record(record);
            for chunk in &route.journal {
                link.push_chunk(name, chunk.clone());
            }
            route.forwarded = route.journal.len();
            let replayed = route.journal.len() as u64;
            if route.flush_requested && route.report.is_none() {
                link.request_flush(name);
            }
            self.tally.migrations += 1;
            self.tally.replayed_chunks += replayed;
            self.cluster_instant(tev::ClusterEventKind::Migrated, key);
            if O::ENABLED {
                self.obs
                    .on(&tev::Event::ClusterMigrated(tev::ClusterMigrated {
                        tenant: key,
                        from_owner: from,
                        to_owner: to,
                        replayed_chunks: replayed,
                    }));
            }
        } else {
            // Refresh: same owner, resume forwarding the held tail.
            let link = self.links.get_mut(&from).expect("routed owner has a link");
            for chunk in &route.journal {
                link.push_chunk(name, chunk.clone());
            }
            route.forwarded = route.journal.len();
            if route.flush_requested && route.report.is_none() {
                link.request_flush(name);
            }
            self.tally.refreshes += 1;
            self.cluster_instant(tev::ClusterEventKind::RecordRefreshed, key);
        }
    }
}
