//! The sharded multi-tenant session manager.
//!
//! Tenants are hashed onto shards ([`SessionManager::shard_for`]: the
//! finalized tenant key modulo the shard count); each shard owns a
//! bounded mailbox of work and the live [`Session`]s of its tenants.
//! The manager alternates two phases that never overlap, which is what
//! makes the whole front-end deterministic and race-free:
//!
//! * [`SessionManager::handle`] — the single-threaded control plane:
//!   handshake, admission control ([`ServeGuard`]), LRU victim
//!   selection, and mailbox enqueue. Breached budgets come back as
//!   typed [`Frame::Busy`] / [`Frame::Shed`] responses, never panics.
//! * [`SessionManager::pump`] — drains every shard mailbox, shards in
//!   parallel ([`parallel_for_each_mut`]) but each shard strictly in
//!   mailbox order. Workers append typed notes; after the barrier the
//!   notes replay through the observer in shard order, so telemetry
//!   counts are identical at any worker count.
//!
//! Eviction hibernates a tenant to `(latest phase-boundary snapshot,
//! replay tail)` — the tail being the events fed since that boundary,
//! conceptually the write-ahead journal of received chunks. The next
//! frame for the tenant rehydrates it: resume from the snapshot (or a
//! fresh build when no boundary had passed) and replay the tail. By
//! the core crate's resume guarantee, the rehydrated session continues
//! bit-identically, so a serve→evict→resume lineage produces the same
//! `RunReport` and image digest as an uninterrupted run.
//!
//! Chaos: with [`ServeConfig::with_chaos`], each shard draws a
//! [`CrashPoint::MidFrame`] kill from its own seeded [`FaultPlan`]
//! once per chunk. A kill models the shard process dying mid-chunk:
//! the live session is lost, the persisted snapshot and journaled tail
//! survive, and the shard restarts the tenant by the same rehydration
//! path before re-feeding the chunk — deterministic replay, reported
//! as `RecoveryRestart` telemetry.

use std::collections::BTreeMap;

use hds_backend::{fnv1a64, BackendKind, BackendSelect};
use hds_core::{
    NullObserver, Observer, OptimizerConfig, RunMode, RunReport, Session, SessionBuilder, Snapshot,
};
use hds_engine::parallel_for_each_mut;
use hds_guard::{CrashPoint, FaultInjector, FaultPlan, ServeBudgets, ServeGuard};
use hds_store::{Store, TenantRecord};
use hds_telemetry::events as tev;
use hds_telemetry::events::ServeBudgetKind;
use hds_vulcan::{Event, Procedure};

use crate::report::{ServeReport, ShardStats, TenantOutcome};
use crate::wire::{Frame, RejectCode, ShardSummary, TenantStats, FEATURE_RELIABLE, WIRE_VERSION};

/// The `a` argument of the `Crash` span instant a mid-frame shard kill
/// leaves in the flight ring. Continues the core executor's crash-point
/// numbering (0 = phase boundary, 1 = mid edit, 2 = mid handoff).
const CRASH_MID_FRAME: u64 = 3;

/// FNV-1a — the tenant key used for placement and telemetry.
#[must_use]
pub fn tenant_key(name: &str) -> u64 {
    fnv1a64(name.as_bytes())
}

/// FNV-1a over a program image (procedure names and PCs) — what makes
/// a retried `OpenSession` distinguishable from a conflicting one.
fn image_key(procedures: &[Procedure]) -> u64 {
    let mut h = hds_trace::hash::Fnv64::new();
    for p in procedures {
        h.write_bytes(p.name().as_bytes());
        h.write_u64(u64::MAX); // name/pc separator
        for pc in p.pcs() {
            h.write_u64(u64::from(pc.0));
        }
        h.write_u64(u64::MAX - 1); // procedure separator
    }
    h.finish()
}

/// Compares an offered auth token against the configured secret
/// without an early exit on the first differing byte, so the compare
/// time does not leak how much of the token was right.
fn constant_time_token_eq(offered: &str, secret: &str) -> bool {
    let (a, b) = (offered.as_bytes(), secret.as_bytes());
    let mut diff = a.len() ^ b.len();
    for i in 0..a.len().max(b.len()) {
        let x = a.get(i).copied().unwrap_or(0);
        let y = b.get(i).copied().unwrap_or(0);
        diff |= usize::from(x ^ y);
    }
    diff == 0
}

/// Modeled wire cost of a chunk, charged against the global byte
/// budget: the length prefix and kind plus ~8 bytes per event (the
/// worst-case varint-encoded access).
#[must_use]
pub fn chunk_cost(events: &[Event]) -> u64 {
    16 + 8 * events.len() as u64
}

/// A serving configuration rejected by [`SessionManager::new`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum ServeConfigError {
    /// Zero shards: there is nowhere to place a tenant.
    ZeroShards,
    /// Zero pump workers: the mailboxes would never drain.
    ZeroWorkers,
}

impl std::fmt::Display for ServeConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeConfigError::ZeroShards => f.write_str("serve config has zero shards"),
            ServeConfigError::ZeroWorkers => f.write_str("serve config has zero pump workers"),
        }
    }
}

impl std::error::Error for ServeConfigError {}

/// Configuration of the serving front-end.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    shards: u32,
    workers: usize,
    budgets: ServeBudgets,
    evict_on_pressure: bool,
    chaos: Option<(u64, u32)>,
    auth_token: Option<String>,
    optimizer: OptimizerConfig,
    mode: RunMode,
    default_backend: BackendKind,
    ab_split: Option<(u64, Vec<(BackendKind, u32)>)>,
    stats_push: u64,
}

impl ServeConfig {
    /// One shard, one worker, unlimited budgets, LRU eviction on
    /// live-session pressure, no chaos.
    #[must_use]
    pub fn new(optimizer: OptimizerConfig, mode: RunMode) -> Self {
        ServeConfig {
            shards: 1,
            workers: 1,
            budgets: ServeBudgets::disabled(),
            evict_on_pressure: true,
            chaos: None,
            auth_token: None,
            default_backend: optimizer.backend.kind(),
            optimizer,
            mode,
            ab_split: None,
            stats_push: 0,
        }
    }

    /// Sets the shard count.
    #[must_use]
    pub fn with_shards(mut self, shards: u32) -> Self {
        self.shards = shards;
        self
    }

    /// Sets how many threads [`SessionManager::pump`] uses.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the admission-control budgets.
    #[must_use]
    pub fn with_budgets(mut self, budgets: ServeBudgets) -> Self {
        self.budgets = budgets;
        self
    }

    /// At the live-session cap: `true` (default) evicts the
    /// least-recently-used tenant, `false` answers [`Frame::Busy`].
    #[must_use]
    pub fn with_eviction(mut self, evict: bool) -> Self {
        self.evict_on_pressure = evict;
        self
    }

    /// Arms per-shard mid-frame crash injection: shard `s` draws from
    /// `FaultPlan::crashy(seed + s, max_crashes)` once per chunk.
    #[must_use]
    pub fn with_chaos(mut self, seed: u64, max_crashes: u32) -> Self {
        self.chaos = Some((seed, max_crashes));
        self
    }

    /// Requires every `Hello` to carry this shared-secret token,
    /// checked in constant time. A mismatch (or missing token) is a
    /// typed [`RejectCode::AuthFailed`] and the handshake does not
    /// complete.
    #[must_use]
    pub fn with_auth_token(mut self, token: impl Into<String>) -> Self {
        self.auth_token = Some(token.into());
        self
    }

    /// Sets the prefetch backend tenants get when neither the `Hello`
    /// handshake nor an A/B split picked one. Defaults to the kind of
    /// the optimizer config's own [`OptimizerConfig::backend`], so a
    /// plain `ServeConfig::new` serves exactly what the config says.
    #[must_use]
    pub fn with_backend(mut self, backend: BackendKind) -> Self {
        self.default_backend = backend;
        self
    }

    /// Arms a seeded online A/B split over prefetch backends: each
    /// tenant without an explicit `Hello`-requested backend is
    /// assigned the arm at `fnv1a64(seed ‖ tenant) % total_weight`.
    /// The draw depends only on `seed` and the tenant name, so the
    /// split reproduces the exact per-tenant assignment across
    /// reruns, shard counts, and eviction/rehydration. Arms with zero
    /// total weight disarm the split.
    #[must_use]
    pub fn with_ab_split(mut self, seed: u64, arms: Vec<(BackendKind, u32)>) -> Self {
        self.ab_split = Some((seed, arms));
        self
    }

    /// Streams a server-initiated [`Frame::Stats`] summary every
    /// `every` pumps (0, the default, disarms the push). Clients get
    /// shard summaries without polling `Introspect` — the frame is the
    /// same pure observation, charged against no budget.
    #[must_use]
    pub fn with_stats_push(mut self, every: u64) -> Self {
        self.stats_push = every;
        self
    }

    /// The shard count.
    #[must_use]
    pub fn shards(&self) -> u32 {
        self.shards
    }
}

/// Deterministic A/B arm draw: hash `seed ‖ tenant`, reduce mod the
/// total weight, and walk the arms. Stable across reruns because the
/// inputs are only the seed and the tenant name.
fn ab_arm(seed: u64, arms: &[(BackendKind, u32)], tenant: &str) -> Option<BackendKind> {
    let total: u64 = arms.iter().map(|&(_, w)| u64::from(w)).sum();
    if total == 0 {
        return None;
    }
    let mut buf = seed.to_le_bytes().to_vec();
    buf.extend_from_slice(tenant.as_bytes());
    let mut draw = fnv1a64(&buf) % total;
    for &(kind, w) in arms {
        if draw < u64::from(w) {
            return Some(kind);
        }
        draw -= u64::from(w);
    }
    None
}

/// Per-tenant control-plane state (the workers never touch this).
struct TenantControl {
    shard: u32,
    key: u64,
    /// The prefetch backend resolved for this tenant at open time
    /// (request > A/B arm > default); every later rehydration reuses
    /// it, which is what keeps evict→resume lineages bit-identical.
    backend: BackendKind,
    live: bool,
    finished: bool,
    queued_chunks: u64,
    last_used: u64,
    /// Fingerprint of the program image the tenant opened with, for
    /// idempotent re-opens on a reliable connection.
    image: u64,
    /// Highest contiguously applied chunk sequence number (0 = none).
    last_seq: u64,
    /// Duplicate (retransmitted) frames tolerated so far, charged
    /// against the retry-storm budget.
    duplicates: u64,
    /// The tenant's cold state lives in the durable store, not in its
    /// shard — the next frame for it must load and install first.
    spilled: bool,
}

/// Work item in a shard mailbox, processed strictly in order.
enum ShardMsg {
    Open {
        tenant: String,
        procedures: Vec<Procedure>,
        backend: BackendKind,
    },
    Chunk {
        tenant: String,
        events: Vec<Event>,
    },
    Flush {
        tenant: String,
    },
    Evict {
        tenant: String,
    },
    Resume {
        tenant: String,
    },
    /// Re-seats a tenant loaded back from the durable store as cold
    /// state; the shard rehydrates it by the exact same path as a
    /// never-spilled hibernation, which is what keeps spill→load
    /// lineages bit-identical.
    Install {
        tenant: String,
        procedures: Vec<Procedure>,
        backend: BackendKind,
        snapshot: Option<Snapshot>,
        tail: Vec<Event>,
    },
    /// Settles the tenant to cold state and hands its durable form to
    /// the control plane as a [`Note::Exported`] — the shard half of a
    /// cross-process migration (`detach`) or a record refresh.
    Export {
        tenant: String,
        detach: bool,
    },
}

/// What a worker did during a pump, replayed through the observer in
/// shard order so telemetry is deterministic at any worker count.
enum Note {
    Evicted {
        key: u64,
        snapshot_bytes: u64,
        tail_events: u64,
    },
    Resumed {
        key: u64,
        replayed: u64,
    },
    Restarted {
        key: u64,
        attempt: u32,
        resumed_at: u64,
    },
    Pumped {
        queued: u64,
        frames: u64,
        events: u64,
    },
    Report {
        tenant: String,
        report: Box<RunReport>,
        digest: u64,
    },
    /// The tenant's stream proved malformed and the shard dropped it;
    /// `detail` names the event and what is wrong with it.
    Malformed {
        tenant: String,
        detail: String,
    },
    /// The settled cold state of an exported tenant — exactly what a
    /// spill would have written, carried back to the control plane so
    /// it can answer with a [`Frame::Exported`] record.
    Exported {
        tenant: String,
        procedures: Vec<Procedure>,
        backend: BackendKind,
        snapshot: Option<Vec<u8>>,
        tail: Vec<Event>,
        detach: bool,
    },
}

/// A hibernated tenant: the persisted phase-boundary snapshot (if one
/// was ever taken) plus the journaled events since it.
struct ColdState {
    snapshot: Option<Snapshot>,
    tail: Vec<Event>,
}

/// A live tenant session plus the replay-tail bookkeeping that makes
/// it evictable at any instant.
struct LiveSession {
    session: Session,
    tail: Vec<Event>,
    snaps: u64,
}

/// A tenant as its owning shard sees it.
struct TenantState {
    procedures: Vec<Procedure>,
    backend: BackendKind,
    live: Option<LiveSession>,
    cold: Option<ColdState>,
    crash_attempts: u32,
}

struct Shard {
    index: u32,
    mailbox: Vec<ShardMsg>,
    sessions: BTreeMap<String, TenantState>,
    faults: Option<FaultPlan>,
    notes: Vec<Note>,
    frames_total: u64,
    events_total: u64,
}

#[derive(Default)]
struct Tally {
    opened: u64,
    opened_by_backend: [u64; 3],
    evicted: u64,
    resumed: u64,
    replayed_events: u64,
    rejected: u64,
    restarts: u64,
    pumps: u64,
    auth_failures: u64,
    duplicate_chunks: u64,
    sequence_gaps: u64,
    drains: u64,
    spilled: u64,
    loaded: u64,
    compactions: u64,
    expired: u64,
    store_faults: u64,
}

/// The serving front-end: see the module docs for the architecture.
pub struct SessionManager<O: Observer = NullObserver> {
    cfg: ServeConfig,
    obs: O,
    guard: ServeGuard,
    shards: Vec<Shard>,
    tenants: BTreeMap<String, TenantControl>,
    clock: u64,
    live_count: u64,
    global_queued_bytes: u64,
    hello_done: bool,
    reliable: bool,
    /// Backend the connection asked for in `Hello`, overriding both
    /// the A/B split and the serve default for tenants it opens.
    requested_backend: Option<BackendKind>,
    draining: bool,
    tally: Tally,
    outcomes: Vec<TenantOutcome>,
    /// Durable cold-tenant store; when attached, hibernated tenants
    /// are spilled out of memory at the end of every pump.
    store: Option<Store>,
    /// Latched once the store-fault budget trips: the manager stops
    /// spilling (tenants stay safely in memory) but keeps serving.
    spill_disabled: bool,
}

impl SessionManager<NullObserver> {
    /// A manager with no observer attached.
    ///
    /// # Errors
    ///
    /// [`ServeConfigError`] for a degenerate configuration.
    pub fn new(cfg: ServeConfig) -> Result<Self, ServeConfigError> {
        SessionManager::with_observer(cfg, NullObserver)
    }
}

impl<O: Observer> SessionManager<O> {
    /// A manager emitting serve telemetry into `obs`.
    ///
    /// # Errors
    ///
    /// [`ServeConfigError`] for a degenerate configuration.
    pub fn with_observer(cfg: ServeConfig, obs: O) -> Result<Self, ServeConfigError> {
        if cfg.shards == 0 {
            return Err(ServeConfigError::ZeroShards);
        }
        if cfg.workers == 0 {
            return Err(ServeConfigError::ZeroWorkers);
        }
        let shards = (0..cfg.shards)
            .map(|index| Shard {
                index,
                mailbox: Vec::new(),
                sessions: BTreeMap::new(),
                faults: cfg
                    .chaos
                    .map(|(seed, max)| FaultPlan::crashy(seed.wrapping_add(u64::from(index)), max)),
                notes: Vec::new(),
                frames_total: 0,
                events_total: 0,
            })
            .collect();
        let guard = ServeGuard::new(cfg.budgets);
        Ok(SessionManager {
            cfg,
            obs,
            guard,
            shards,
            tenants: BTreeMap::new(),
            clock: 0,
            live_count: 0,
            global_queued_bytes: 0,
            hello_done: false,
            reliable: false,
            requested_backend: None,
            draining: false,
            tally: Tally::default(),
            outcomes: Vec::new(),
            store: None,
            spill_disabled: false,
        })
    }

    /// Attaches a durable store: from now on, hibernated tenants are
    /// spilled to it at the end of every [`SessionManager::pump`] and
    /// their in-memory state is dropped, bounding resident memory by
    /// the live set. Their next frame loads them back transparently.
    pub fn attach_store(&mut self, store: Store) {
        self.store = Some(store);
    }

    /// The attached store, if any.
    #[must_use]
    pub fn store(&self) -> Option<&Store> {
        self.store.as_ref()
    }

    /// Detaches and returns the store (chaos harnesses crash and
    /// reopen its storage between serve generations).
    pub fn take_store(&mut self) -> Option<Store> {
        self.store.take()
    }

    /// The observer, for reading recorded metrics back.
    pub fn observer(&self) -> &O {
        &self.obs
    }

    /// Whether a `Goodbye` drain has completed on this manager; a
    /// draining manager refuses new work with
    /// [`RejectCode::Draining`].
    #[must_use]
    pub fn is_draining(&self) -> bool {
        self.draining
    }

    /// Whether every tenant ever opened has been flushed to a final
    /// report. A peer disconnecting in this state owes the server
    /// nothing — the serve loop treats its EOF (clean or torn) as a
    /// normal end of session rather than an error.
    #[must_use]
    pub fn all_flushed(&self) -> bool {
        self.tenants.values().all(|c| c.finished)
    }

    /// Consumes the manager and returns its observer.
    pub fn into_observer(self) -> O {
        self.obs
    }

    /// The prefetch backend a known tenant was assigned at open time
    /// (request > A/B arm > default), or `None` for a tenant never
    /// opened. Stable for the tenant's whole lifetime, including
    /// across eviction and rehydration.
    #[must_use]
    pub fn backend_of(&self, tenant: &str) -> Option<BackendKind> {
        self.tenants.get(tenant).map(|c| c.backend)
    }

    /// Which shard a tenant lands on: the finalized key modulo the
    /// shard count. A manager's shard set is fixed for its lifetime, so
    /// no consistent-hash ring is needed at this level.
    #[must_use]
    pub fn shard_for(&self, key: u64) -> u32 {
        (hds_trace::hash::mix(key) % u64::from(self.cfg.shards)) as u32
    }

    /// Handles one client frame on the control plane, returning the
    /// immediate responses. Pending chunk work is only enqueued here;
    /// call [`SessionManager::pump`] to execute it.
    pub fn handle(&mut self, frame: Frame) -> Vec<Frame> {
        self.clock += 1;
        // Span the frame on its tenant's shard track (track 0 for
        // tenant-less frames), carrying the wire kind tag and tenant
        // key so a flight dump names what was in flight.
        let (track, tag, key) = (
            frame
                .tenant()
                .and_then(|t| self.tenants.get(t))
                .map_or(0, |c| c.shard + 1),
            u64::from(frame.kind_tag()),
            frame.tenant().map_or(0, tenant_key),
        );
        if O::ENABLED {
            self.obs.on(&tev::Event::Span(
                tev::SpanEvent::begin(tev::SpanKind::ServeFrame, self.clock)
                    .on_track(track)
                    .with_args(tag, key),
            ));
        }
        let responses = match frame {
            Frame::Hello {
                token,
                features,
                backend,
                ..
            } => self.hello(&token, features, backend),
            _ if !self.hello_done => {
                self.reject(RejectCode::HandshakeRequired, "handshake required")
            }
            Frame::Goodbye => self.goodbye(),
            _ if self.draining => self.reject(RejectCode::Draining, "server is draining"),
            Frame::OpenSession { tenant, procedures } => self.open_session(tenant, procedures),
            Frame::TraceChunk {
                tenant,
                seq,
                events,
            } => self.trace_chunk(tenant, seq, events),
            Frame::Flush { tenant } => self.flush(tenant),
            Frame::Evict { tenant } => self.evict(&tenant),
            Frame::Resume { tenant } => self.resume(tenant),
            Frame::Introspect { tenant } => self.introspect(&tenant),
            Frame::Migrate { record } => self.migrate_in(record),
            Frame::Export { tenant, detach } => self.export(tenant, detach),
            Frame::Pong { .. } => Vec::new(),
            Frame::HelloAck { .. }
            | Frame::Report { .. }
            | Frame::Busy { .. }
            | Frame::Shed { .. }
            | Frame::Reject { .. }
            | Frame::Stats { .. }
            | Frame::Ack { .. }
            | Frame::GoodbyeAck { .. }
            | Frame::Exported { .. }
            | Frame::Ping { .. } => self.reject(
                RejectCode::ClientSentServerFrame,
                "server-to-client frame from client",
            ),
        };
        if O::ENABLED {
            self.obs.on(&tev::Event::Span(
                tev::SpanEvent::end(tev::SpanKind::ServeFrame, self.clock)
                    .on_track(track)
                    .with_args(tag, responses.len() as u64),
            ));
        }
        responses
    }

    /// Answers [`Frame::Introspect`] from live control-plane and shard
    /// state — no flush, no pump, no rehydration, and (`Stats` being
    /// pure observation) no admission-control charge.
    fn introspect(&mut self, filter: &str) -> Vec<Frame> {
        if !filter.is_empty() && !self.tenants.contains_key(filter) {
            return self.reject(RejectCode::UnknownTenant, filter);
        }
        vec![self.stats_snapshot(filter)]
    }

    /// Builds the `Stats` frame for `filter` (empty = every tenant)
    /// from live control-plane and shard state — shared by
    /// `Introspect` answers and the periodic server-initiated push.
    fn stats_snapshot(&self, filter: &str) -> Frame {
        let tenants = self
            .tenants
            .iter()
            .filter(|(name, _)| filter.is_empty() || name.as_str() == filter)
            .map(|(name, ctrl)| {
                let (events_consumed, snapshots, tail_events) = self.shards[ctrl.shard as usize]
                    .sessions
                    .get(name)
                    .map_or((0, 0, 0), |state| match (&state.live, &state.cold) {
                        (Some(live), _) => (
                            live.session.events_consumed(),
                            live.session.snapshots_taken(),
                            live.tail.len() as u64,
                        ),
                        (None, Some(cold)) => (0, 0, cold.tail.len() as u64),
                        (None, None) => (0, 0, 0),
                    });
                TenantStats {
                    tenant: name.clone(),
                    shard: ctrl.shard,
                    live: ctrl.live,
                    finished: ctrl.finished,
                    queued_chunks: ctrl.queued_chunks,
                    events_consumed,
                    snapshots,
                    tail_events,
                }
            })
            .collect();
        let shards = self
            .shards
            .iter()
            .map(|s| ShardSummary {
                shard: s.index,
                mailbox_depth: s.mailbox.len() as u64,
                live_sessions: s.sessions.values().filter(|t| t.live.is_some()).count() as u64,
                frames: s.frames_total,
                events: s.events_total,
            })
            .collect();
        Frame::Stats {
            clock: self.clock,
            queued_bytes: self.global_queued_bytes,
            tenants,
            shards,
        }
    }

    /// Tombstones the tenant's durable record, if the store holds one.
    /// Best effort: a failure counts a store fault and leaves garbage
    /// for expiry.
    fn drop_durable(&mut self, tenant: &str) {
        if let Some(store) = self.store.as_mut() {
            if store.contains(tenant) && store.remove(tenant, self.clock).is_err() {
                self.count_store_fault(tenant_key(tenant), 0);
            }
        }
    }

    fn reject(&mut self, code: RejectCode, detail: &str) -> Vec<Frame> {
        self.tally.rejected += 1;
        vec![Frame::Reject {
            code,
            detail: detail.to_string(),
        }]
    }

    /// Leaves a `Net` instant in the flight ring: `a` names the
    /// network event kind, `b` carries the tenant key or a
    /// kind-specific value.
    fn net_event(&mut self, kind: tev::NetEventKind, b: u64) {
        if O::ENABLED {
            self.obs.on(&tev::Event::Span(
                tev::SpanEvent::instant(tev::SpanKind::Net, self.clock).with_args(kind.code(), b),
            ));
        }
    }

    /// Leaves a `Store` instant in the flight ring: `a` names the
    /// store event kind, `b` carries the tenant key or a kind-specific
    /// value.
    fn store_event(&mut self, kind: tev::StoreEventKind, b: u64) {
        if O::ENABLED {
            self.obs.on(&tev::Event::Span(
                tev::SpanEvent::instant(tev::SpanKind::Store, self.clock).with_args(kind.code(), b),
            ));
        }
    }

    /// Counts one storage fault (with its degradation `action`),
    /// charges the store-fault budget, and — on the budget tripping —
    /// sheds by latching spilling off: tenants stay safely in memory
    /// and the front-end keeps serving.
    fn count_store_fault(&mut self, key: u64, action: u8) {
        self.tally.store_faults += 1;
        if O::ENABLED {
            self.obs
                .on(&tev::Event::StoreFault(tev::StoreFaultObserved {
                    tenant: key,
                    action,
                }));
        }
        self.store_event(tev::StoreEventKind::Fault, key);
        if self.spill_disabled {
            return;
        }
        if let Err(trip) = self.guard.admit_store_fault(self.tally.store_faults) {
            self.spill_disabled = true;
            let shard = self.shard_for(key);
            if O::ENABLED {
                self.obs.on(&tev::Event::ServeShed(tev::ServeShed {
                    tenant: key,
                    shard,
                    kind: trip.kind,
                    budget: trip.budget,
                    observed: trip.observed,
                }));
            }
        }
    }

    /// Loads a spilled tenant back from the store and enqueues the
    /// [`ShardMsg::Install`] that re-seats it as cold state, ahead of
    /// whatever triggering message the caller will push next.
    ///
    /// On any failure — unreadable storage, checksum damage, an
    /// undecodable snapshot — the tenant is restarted from scratch:
    /// its control entry and durable state are dropped, and the caller
    /// answers [`RejectCode::StoreFailed`] so the client re-opens and
    /// replays from its own copy. Never a panic, never a wrong-tenant
    /// resume.
    fn install_from_store(&mut self, tenant: &str, key: u64) -> Result<(), Vec<Frame>> {
        let Some(store) = self.store.as_mut() else {
            // A spilled flag without a store cannot happen (the flag is
            // only ever set by the spill pass); degrade to a reject.
            return Err(self.store_load_failed(tenant, key));
        };
        let record = match store.load(tenant) {
            Ok(record) => record,
            Err(_) => return Err(self.store_load_failed(tenant, key)),
        };
        let snapshot = match record.snapshot {
            None => None,
            Some(bytes) => match Snapshot::from_bytes(bytes) {
                Ok(snap) => Some(snap),
                // The blob passed the store checksum but does not parse
                // as a snapshot: same degradation as any other damage.
                Err(_) => return Err(self.store_load_failed(tenant, key)),
            },
        };
        let ctrl = self.tenants.get_mut(tenant).expect("caller checked");
        // A/B stickiness: the record carries the backend the tenant was
        // assigned at open time; the control entry is the live copy and
        // must agree (`spill` wrote it from the same field).
        let backend = BackendKind::from_wire_code(record.backend).unwrap_or(ctrl.backend);
        ctrl.spilled = false;
        let shard = ctrl.shard;
        let bytes = snapshot.as_ref().map_or(0, |s| s.len() as u64)
            + record.tail.len() as u64 * std::mem::size_of::<Event>() as u64;
        self.tally.loaded += 1;
        if O::ENABLED {
            self.obs.on(&tev::Event::StoreLoaded(tev::StoreLoaded {
                tenant: key,
                bytes,
            }));
        }
        self.store_event(tev::StoreEventKind::Loaded, key);
        self.shards[shard as usize].mailbox.push(ShardMsg::Install {
            tenant: tenant.to_string(),
            procedures: record.procedures,
            backend,
            snapshot,
            tail: record.tail,
        });
        Ok(())
    }

    /// The restart-from-scratch degradation for an unloadable tenant:
    /// drop the control entry and any durable remnant, count the
    /// fault, and build the typed reject.
    fn store_load_failed(&mut self, tenant: &str, key: u64) -> Vec<Frame> {
        self.count_store_fault(key, 1);
        self.store_event(tev::StoreEventKind::Restarted, key);
        self.tenants.remove(tenant);
        if let Some(store) = self.store.as_mut() {
            // Best-effort: stale durable state must not resurrect the
            // tenant after the client restarts it from scratch.
            let _ = store.remove(tenant, self.clock);
        }
        self.reject(RejectCode::StoreFailed, tenant)
    }

    /// The end-of-pump spill pass: every hibernated, unfinished tenant
    /// whose cold state still sits in its shard is written to the
    /// store; on success the in-memory state (snapshot and replay
    /// tail) is dropped, so resident memory is bounded by the live
    /// set. A failed spill keeps the tenant in memory — correctness
    /// never depends on the disk.
    fn spill_pass(&mut self) {
        if self.store.is_none() || self.spill_disabled {
            return;
        }
        let candidates: Vec<(String, u64, u32)> = self
            .tenants
            .iter()
            .filter(|(_, c)| !c.live && !c.finished && !c.spilled)
            .map(|(name, c)| (name.clone(), c.key, c.shard))
            .collect();
        for (name, key, shard) in candidates {
            if self.spill_disabled {
                break;
            }
            let sessions = &mut self.shards[shard as usize].sessions;
            // Only hibernated state spills; a tenant something re-woke
            // (or that never reached its shard) stays put.
            let is_cold = sessions
                .get(&name)
                .is_some_and(|s| s.live.is_none() && s.cold.is_some());
            if !is_cold {
                continue;
            }
            let state = sessions.remove(&name).expect("checked above");
            let cold = state.cold.as_ref().expect("checked above");
            let bytes = cold.snapshot.as_ref().map_or(0, |s| s.len() as u64)
                + cold.tail.len() as u64 * std::mem::size_of::<Event>() as u64;
            let record = TenantRecord {
                tenant: name.clone(),
                stamp: self.clock,
                backend: state.backend.wire_code(),
                procedures: state.procedures.clone(),
                snapshot: cold.snapshot.as_ref().map(|s| s.as_bytes().to_vec()),
                tail: cold.tail.clone(),
            };
            let store = self.store.as_mut().expect("checked at entry");
            match store.spill(record) {
                Ok(()) => {
                    self.tenants
                        .get_mut(&name)
                        .expect("candidate came from the map")
                        .spilled = true;
                    self.tally.spilled += 1;
                    if O::ENABLED {
                        self.obs.on(&tev::Event::StoreSpilled(tev::StoreSpilled {
                            tenant: key,
                            bytes,
                        }));
                    }
                    self.store_event(tev::StoreEventKind::Spilled, key);
                }
                Err(_) => {
                    // Degrade: the tenant stays resident and correct.
                    self.shards[shard as usize].sessions.insert(name, state);
                    self.count_store_fault(key, 0);
                }
            }
        }
    }

    /// Compacts the attached store at the current clock: folds every
    /// live tenant to one record in a fresh segment, expires tenants
    /// whose last spill is older than the store's TTL, and reaps the
    /// old segments. Expired tenants vanish from the control plane too
    /// — their next `OpenSession` starts from scratch. A no-op without
    /// a store; a storage failure abandons the attempt with the old
    /// layout intact and counts a fault.
    pub fn compact_store(&mut self) {
        self.clock += 1;
        let Some(store) = self.store.as_mut() else {
            return;
        };
        let before = store.tenants();
        match store.compact(self.clock) {
            Ok(()) => {
                let after: std::collections::BTreeSet<String> =
                    store.tenants().into_iter().collect();
                let kept = after.len() as u64;
                let dropped = before.len() as u64 - kept;
                self.tally.compactions += 1;
                if O::ENABLED {
                    self.obs
                        .on(&tev::Event::StoreCompacted(tev::StoreCompacted {
                            kept,
                            dropped,
                        }));
                }
                self.store_event(tev::StoreEventKind::Compacted, kept);
                for name in before.into_iter().filter(|t| !after.contains(t)) {
                    let key = tenant_key(&name);
                    self.tally.expired += 1;
                    if O::ENABLED {
                        self.obs
                            .on(&tev::Event::StoreExpired(tev::StoreExpired { tenant: key }));
                    }
                    self.store_event(tev::StoreEventKind::Expired, key);
                    // Only a spilled (hence cold, unfinished) control
                    // entry can be orphaned by expiry.
                    if self.tenants.get(&name).is_some_and(|c| c.spilled) {
                        self.tenants.remove(&name);
                    }
                }
            }
            Err(_) => {
                self.count_store_fault(0, 2);
            }
        }
    }

    /// Tenants currently resident in shard memory (live or hibernated
    /// but not yet spilled). With a store attached this is bounded by
    /// the live set between pumps; without one it grows with every
    /// tenant ever opened.
    #[must_use]
    pub fn resident_tenants(&self) -> u64 {
        self.shards.iter().map(|s| s.sessions.len() as u64).sum()
    }

    /// Approximate bytes of cold state held in shard memory: snapshot
    /// bytes plus replay-tail events, for live and hibernated tenants
    /// alike. The memory-bound test asserts this stays bounded by the
    /// live set when a store is attached.
    #[must_use]
    pub fn resident_bytes(&self) -> u64 {
        let event = std::mem::size_of::<Event>() as u64;
        self.shards
            .iter()
            .flat_map(|s| s.sessions.values())
            .map(|state| {
                let live = state
                    .live
                    .as_ref()
                    .map_or(0, |l| l.tail.len() as u64 * event);
                let cold = state.cold.as_ref().map_or(0, |c| {
                    c.snapshot.as_ref().map_or(0, |s| s.len() as u64) + c.tail.len() as u64 * event
                });
                live + cold
            })
            .sum()
    }

    /// Handles `Hello`: constant-time token check, then feature and
    /// backend negotiation. Re-`Hello` on a live manager is how a
    /// reconnecting client re-authenticates, so this never fails on
    /// repetition. A requested backend (any kind that survived wire
    /// decoding) is always granted and echoed back in the `HelloAck`;
    /// clients that omit the byte get `None` back and the serve-side
    /// policy (A/B split or default) decides per tenant at open time.
    fn hello(&mut self, token: &str, features: u8, backend: Option<BackendKind>) -> Vec<Frame> {
        // Version validity is enforced at decode time.
        if let Some(secret) = self.cfg.auth_token.clone() {
            if !constant_time_token_eq(token, &secret) {
                self.tally.auth_failures += 1;
                let offered = tenant_key(token);
                self.net_event(tev::NetEventKind::AuthFailure, offered);
                return self.reject(RejectCode::AuthFailed, "bad auth token");
            }
        }
        self.hello_done = true;
        self.reliable = features & FEATURE_RELIABLE != 0;
        self.requested_backend = backend;
        vec![Frame::HelloAck {
            version: WIRE_VERSION,
            backend,
        }]
    }

    /// Resolves the prefetch backend for a tenant about to open:
    /// `Hello`-requested backend first, then the seeded A/B arm, then
    /// the configured default.
    fn backend_for(&self, tenant: &str) -> BackendKind {
        if let Some(requested) = self.requested_backend {
            return requested;
        }
        if let Some((seed, arms)) = &self.cfg.ab_split {
            if let Some(kind) = ab_arm(*seed, arms, tenant) {
                return kind;
            }
        }
        self.cfg.default_backend
    }

    /// Handles `Goodbye`: hibernates every live unfinished tenant (the
    /// shard-side snapshots happen on the caller's next pump) and
    /// confirms the drain. Idempotent — a retried `Goodbye` re-acks
    /// with zero newly drained tenants.
    fn goodbye(&mut self) -> Vec<Frame> {
        let victims: Vec<String> = self
            .tenants
            .iter()
            .filter(|(_, c)| c.live && !c.finished)
            .map(|(name, _)| name.clone())
            .collect();
        let drained = victims.len() as u64;
        for name in victims {
            self.evict_known(&name);
        }
        if !self.draining {
            self.draining = true;
            self.tally.drains += 1;
            self.net_event(tev::NetEventKind::Drain, drained);
        }
        vec![Frame::GoodbyeAck { drained }]
    }

    /// Emits the shed telemetry for `trip` and builds the `Shed`
    /// response (shard looked up from the tenant's control entry).
    fn shed_frame(&mut self, tenant: String, key: u64, trip: hds_guard::ServeTrip) -> Vec<Frame> {
        let shard = self.tenants.get(&tenant).map_or(0, |c| c.shard);
        if O::ENABLED {
            self.obs.on(&tev::Event::ServeShed(tev::ServeShed {
                tenant: key,
                shard,
                kind: trip.kind,
                budget: trip.budget,
                observed: trip.observed,
            }));
        }
        vec![Frame::Shed {
            tenant,
            kind: trip.kind,
            budget: trip.budget,
            observed: trip.observed,
        }]
    }

    /// Charges one retransmitted frame of a known tenant: counts the
    /// duplicate, charges the `RetryStorm` budget, and emits the
    /// `Duplicate` net event. Returns `Err(response)` when the caller
    /// must answer `Shed` instead.
    fn charge_duplicate(&mut self, tenant: &str) -> Result<(), Vec<Frame>> {
        let ctrl = self
            .tenants
            .get_mut(tenant)
            .expect("duplicate of a known tenant");
        ctrl.duplicates += 1;
        let (key, duplicates) = (ctrl.key, ctrl.duplicates);
        self.tally.duplicate_chunks += 1;
        if let Err(trip) = self.guard.admit_duplicate(duplicates) {
            return Err(self.shed_frame(tenant.to_string(), key, trip));
        }
        self.net_event(tev::NetEventKind::Duplicate, key);
        Ok(())
    }

    /// Answers a retransmitted frame with the tenant's resume point once
    /// [`Self::charge_duplicate`] admits it.
    fn ack_duplicate(&mut self, tenant: String) -> Vec<Frame> {
        if let Err(shed) = self.charge_duplicate(&tenant) {
            return shed;
        }
        let seq = self.tenants[&tenant].last_seq;
        vec![Frame::Ack { tenant, seq }]
    }

    /// Makes room for one more live session. Returns `Err(response)`
    /// when the caller must answer `Busy` instead.
    fn admit_live(&mut self, tenant: &str, key: u64, shard: u32) -> Result<(), Vec<Frame>> {
        while let Some(trip) = self.guard.session_over_budget(self.live_count) {
            if self.cfg.evict_on_pressure && self.evict_lru(tenant) {
                continue;
            }
            self.guard.count_busy();
            if O::ENABLED {
                self.obs.on(&tev::Event::ServeBusy(tev::ServeBusy {
                    tenant: key,
                    shard,
                    budget: trip.budget,
                    observed: trip.observed,
                }));
            }
            return Err(vec![Frame::Busy {
                tenant: tenant.to_string(),
                budget: trip.budget,
                observed: trip.observed,
            }]);
        }
        Ok(())
    }

    /// Hibernates the least-recently-used live tenant (excluding
    /// `exclude`); `false` when no victim exists.
    fn evict_lru(&mut self, exclude: &str) -> bool {
        let victim = self
            .tenants
            .iter()
            .filter(|(name, c)| c.live && !c.finished && name.as_str() != exclude)
            .min_by_key(|(name, c)| (c.last_used, *name))
            .map(|(name, _)| name.clone());
        let Some(name) = victim else {
            return false;
        };
        self.evict_known(&name);
        true
    }

    /// Marks a live tenant cold and tells its shard to snapshot it.
    fn evict_known(&mut self, name: &str) {
        let ctrl = self.tenants.get_mut(name).expect("victim exists");
        ctrl.live = false;
        self.live_count -= 1;
        self.shards[ctrl.shard as usize]
            .mailbox
            .push(ShardMsg::Evict {
                tenant: name.to_string(),
            });
    }

    fn open_session(&mut self, tenant: String, procedures: Vec<Procedure>) -> Vec<Frame> {
        if let Some(ctrl) = self.tenants.get(&tenant) {
            // A reliable client retrying a lost `OpenSession` (or
            // re-opening after reconnect) is answered with its resume
            // point instead of an error — but only for the same
            // program image; a conflicting image is a real conflict.
            if self.reliable && ctrl.image == image_key(&procedures) {
                return self.ack_duplicate(tenant);
            }
            return self.reject(RejectCode::TenantAlreadyOpen, &tenant);
        }
        let key = tenant_key(&tenant);
        let shard = self.shard_for(key);
        if let Err(busy) = self.admit_live(&tenant, key, shard) {
            return busy;
        }
        let backend = self.backend_for(&tenant);
        self.tenants.insert(
            tenant.clone(),
            TenantControl {
                shard,
                key,
                backend,
                live: true,
                finished: false,
                queued_chunks: 0,
                last_used: self.clock,
                image: image_key(&procedures),
                last_seq: 0,
                duplicates: 0,
                spilled: false,
            },
        );
        self.live_count += 1;
        self.tally.opened += 1;
        self.tally.opened_by_backend[backend.wire_code() as usize] += 1;
        if O::ENABLED {
            self.obs
                .on(&tev::Event::ServeSessionOpened(tev::ServeSessionOpened {
                    tenant: key,
                    shard,
                    backend: backend.wire_code(),
                }));
        }
        let ack = self.reliable.then(|| tenant.clone());
        self.shards[shard as usize].mailbox.push(ShardMsg::Open {
            tenant,
            procedures,
            backend,
        });
        match ack {
            // Reliable clients need opens confirmed (the ack's seq is
            // the resume point: 0, nothing applied yet); legacy
            // clients expect silence here.
            Some(tenant) => vec![Frame::Ack { tenant, seq: 0 }],
            None => Vec::new(),
        }
    }

    fn trace_chunk(&mut self, tenant: String, seq: u64, events: Vec<Event>) -> Vec<Frame> {
        let Some(ctrl) = self.tenants.get(&tenant) else {
            return self.reject(RejectCode::UnknownTenant, &tenant);
        };
        if ctrl.finished {
            return self.reject(RejectCode::TenantFlushed, &tenant);
        }
        let (key, shard, was_live, last_seq) = (ctrl.key, ctrl.shard, ctrl.live, ctrl.last_seq);
        // Sequenced chunks (seq > 0) get exactly-once delivery: a
        // duplicate is re-acked without being re-applied, a gap makes
        // the client rewind, and only seq == last + 1 falls through to
        // the normal admission path below. Unsequenced chunks (seq ==
        // 0, the legacy fire-and-forget mode) skip all of this.
        if seq > 0 {
            if seq <= last_seq {
                return self.ack_duplicate(tenant);
            }
            if seq > last_seq + 1 {
                self.tally.sequence_gaps += 1;
                self.net_event(tev::NetEventKind::SequenceGap, key);
                return self.reject(RejectCode::BadSequence, &format!("{tenant} {last_seq}"));
            }
        }
        if !was_live {
            // Feeding a hibernated tenant reopens it: the shard will
            // rehydrate on pump, so it re-counts against the live cap.
            if let Err(busy) = self.admit_live(&tenant, key, shard) {
                return busy;
            }
            if self.tenants[&tenant].spilled {
                if let Err(reject) = self.install_from_store(&tenant, key) {
                    return reject;
                }
            }
        }
        let cost = chunk_cost(&events);
        let queued = self.tenants[&tenant].queued_chunks;
        if let Err(trip) = self
            .guard
            .admit_chunk(queued + 1, self.global_queued_bytes + cost)
        {
            // A shed sequenced chunk is NOT applied and NOT acked, so
            // last_seq stays put and the client's retry of the same
            // seq is still in order.
            return self.shed_frame(tenant, key, trip);
        }
        let ctrl = self.tenants.get_mut(&tenant).expect("checked above");
        if !was_live {
            ctrl.live = true;
            self.live_count += 1;
        }
        ctrl.queued_chunks += 1;
        ctrl.last_used = self.clock;
        if seq > 0 {
            ctrl.last_seq = seq;
        }
        self.global_queued_bytes += cost;
        let ack = (seq > 0).then(|| tenant.clone());
        self.shards[shard as usize]
            .mailbox
            .push(ShardMsg::Chunk { tenant, events });
        match ack {
            Some(tenant) => vec![Frame::Ack { tenant, seq }],
            None => Vec::new(),
        }
    }

    /// Handles [`Frame::Migrate`]: adopts a tenant arriving from
    /// another owner process as cold state, exactly as if its durable
    /// record had been loaded from the local store — the shard
    /// rehydrates it through the same `ensure_live` path, so a
    /// migrated lineage is bit-identical to an uninterrupted one.
    ///
    /// Sequencing restarts at zero on the new owner: the router owns
    /// per-link chunk numbering and renumbers after a re-home.
    fn migrate_in(&mut self, record: TenantRecord) -> Vec<Frame> {
        let tenant = record.tenant.clone();
        if let Some(ctrl) = self.tenants.get(&tenant) {
            // A retried Migrate whose Ack was lost is idempotent for
            // the same program image, mirroring `open_session`.
            if self.reliable && ctrl.image == image_key(&record.procedures) {
                return self.ack_duplicate(tenant);
            }
            return self.reject(RejectCode::TenantAlreadyOpen, &tenant);
        }
        let snapshot = match record.snapshot {
            None => None,
            Some(bytes) => match Snapshot::from_bytes(bytes) {
                Ok(snap) => Some(snap),
                // The record survived two checksums yet the snapshot
                // does not parse: same degradation as store damage —
                // the sender restarts the tenant from its own copy.
                Err(_) => return self.reject(RejectCode::StoreFailed, &tenant),
            },
        };
        let key = tenant_key(&tenant);
        let shard = self.shard_for(key);
        let backend = BackendKind::from_wire_code(record.backend)
            .unwrap_or_else(|| self.backend_for(&tenant));
        self.tenants.insert(
            tenant.clone(),
            TenantControl {
                shard,
                key,
                backend,
                live: false,
                finished: false,
                queued_chunks: 0,
                last_used: self.clock,
                image: image_key(&record.procedures),
                last_seq: 0,
                duplicates: 0,
                spilled: false,
            },
        );
        self.tally.opened += 1;
        self.tally.opened_by_backend[backend.wire_code() as usize] += 1;
        if O::ENABLED {
            self.obs
                .on(&tev::Event::ServeSessionOpened(tev::ServeSessionOpened {
                    tenant: key,
                    shard,
                    backend: backend.wire_code(),
                }));
        }
        let ack = self.reliable.then(|| tenant.clone());
        self.shards[shard as usize].mailbox.push(ShardMsg::Install {
            tenant,
            procedures: record.procedures,
            backend,
            snapshot,
            tail: record.tail,
        });
        match ack {
            Some(tenant) => vec![Frame::Ack { tenant, seq: 0 }],
            None => Vec::new(),
        }
    }

    /// Handles [`Frame::Export`]: settles the tenant to cold state and
    /// asks its shard to emit the durable [`TenantRecord`] on the next
    /// pump. With `detach` the tenant leaves this owner entirely (the
    /// control entry and any durable remnant go with it) — the sending
    /// half of a migration; without it the record is a consistent
    /// point-in-time copy and the tenant keeps serving here.
    fn export(&mut self, tenant: String, detach: bool) -> Vec<Frame> {
        let Some(ctrl) = self.tenants.get(&tenant) else {
            return self.reject(RejectCode::UnknownTenant, &tenant);
        };
        if ctrl.finished {
            return self.reject(RejectCode::TenantFlushed, &tenant);
        }
        let (key, spilled) = (ctrl.key, ctrl.spilled);
        if spilled {
            if let Err(reject) = self.install_from_store(&tenant, key) {
                return reject;
            }
        }
        let ctrl = self.tenants.get_mut(&tenant).expect("checked above");
        ctrl.last_used = self.clock;
        if ctrl.live {
            ctrl.live = false;
            self.live_count -= 1;
        }
        let shard = ctrl.shard;
        self.shards[shard as usize]
            .mailbox
            .push(ShardMsg::Export { tenant, detach });
        Vec::new()
    }

    fn flush(&mut self, tenant: String) -> Vec<Frame> {
        let Some(ctrl) = self.tenants.get_mut(&tenant) else {
            return self.reject(RejectCode::UnknownTenant, &tenant);
        };
        if ctrl.finished {
            // A reliable client retrying a Flush whose Report was lost
            // in transit gets the cached report again — flush is
            // idempotent, the session is computed exactly once.
            if self.reliable {
                if let Err(shed) = self.charge_duplicate(&tenant) {
                    return shed;
                }
                if let Some(outcome) = self.outcomes.iter().find(|o| o.tenant == tenant) {
                    return vec![Frame::Report {
                        tenant,
                        report_json: serde_json::to_string(&outcome.report).unwrap_or_default(),
                        image_digest: outcome.image_digest,
                    }];
                }
                // Flush already enqueued but not yet pumped: the
                // report will arrive from that pump; nothing to add.
                return Vec::new();
            }
            return self.reject(RejectCode::TenantFlushed, &tenant);
        }
        let (key, spilled) = (ctrl.key, ctrl.spilled);
        if spilled {
            if let Err(reject) = self.install_from_store(&tenant, key) {
                return reject;
            }
        }
        let ctrl = self.tenants.get_mut(&tenant).expect("checked above");
        ctrl.finished = true;
        ctrl.last_used = self.clock;
        if ctrl.live {
            ctrl.live = false;
            self.live_count -= 1;
        }
        let shard = ctrl.shard;
        // A flushed tenant's durable state is dead weight: tombstone it
        // so compaction (and TTL bookkeeping) reclaims the space.
        self.drop_durable(&tenant);
        self.shards[shard as usize]
            .mailbox
            .push(ShardMsg::Flush { tenant });
        Vec::new()
    }

    fn evict(&mut self, tenant: &str) -> Vec<Frame> {
        let Some(ctrl) = self.tenants.get(tenant) else {
            return self.reject(RejectCode::UnknownTenant, tenant);
        };
        if ctrl.finished {
            return self.reject(RejectCode::TenantFlushed, tenant);
        }
        if !ctrl.live {
            return Vec::new(); // idempotent
        }
        self.evict_known(tenant);
        Vec::new()
    }

    fn resume(&mut self, tenant: String) -> Vec<Frame> {
        let Some(ctrl) = self.tenants.get(&tenant) else {
            return self.reject(RejectCode::UnknownTenant, &tenant);
        };
        if ctrl.finished {
            return self.reject(RejectCode::TenantFlushed, &tenant);
        }
        if ctrl.live {
            return Vec::new(); // idempotent
        }
        let (key, shard) = (ctrl.key, ctrl.shard);
        if let Err(busy) = self.admit_live(&tenant, key, shard) {
            return busy;
        }
        if self.tenants[&tenant].spilled {
            if let Err(reject) = self.install_from_store(&tenant, key) {
                return reject;
            }
        }
        let ctrl = self.tenants.get_mut(&tenant).expect("checked above");
        ctrl.live = true;
        ctrl.last_used = self.clock;
        self.live_count += 1;
        self.shards[shard as usize]
            .mailbox
            .push(ShardMsg::Resume { tenant });
        Vec::new()
    }

    /// Drains every shard mailbox (shards in parallel, each shard in
    /// order), replays the workers' notes through the observer in
    /// shard order, and returns the response frames produced
    /// (tenant [`Frame::Report`]s).
    pub fn pump(&mut self) -> Vec<Frame> {
        self.tally.pumps += 1;
        let optimizer = self.cfg.optimizer.clone();
        let mode = self.cfg.mode;
        parallel_for_each_mut(&mut self.shards, self.cfg.workers, |shard| {
            shard.pump(&optimizer, mode);
        });
        let mut responses = Vec::new();
        let noted: Vec<(u32, Vec<Note>)> = self
            .shards
            .iter_mut()
            .map(|s| (s.index, std::mem::take(&mut s.notes)))
            .collect();
        for (shard, notes) in noted {
            if O::ENABLED {
                // One ShardPump span per shard per pump, replayed on
                // the shard's track in shard order — same determinism
                // story as the note replay itself.
                self.obs.on(&tev::Event::Span(
                    tev::SpanEvent::begin(tev::SpanKind::ShardPump, self.clock).on_track(shard + 1),
                ));
            }
            let (mut pumped_frames, mut pumped_events) = (0u64, 0u64);
            for note in notes {
                match note {
                    Note::Evicted {
                        key,
                        snapshot_bytes,
                        tail_events,
                    } => {
                        self.tally.evicted += 1;
                        if O::ENABLED {
                            self.obs.on(&tev::Event::ServeSessionEvicted(
                                tev::ServeSessionEvicted {
                                    tenant: key,
                                    shard,
                                    snapshot_bytes,
                                    tail_events,
                                },
                            ));
                        }
                    }
                    Note::Resumed { key, replayed } => {
                        self.tally.resumed += 1;
                        self.tally.replayed_events += replayed;
                        if O::ENABLED {
                            self.obs.on(&tev::Event::ServeSessionResumed(
                                tev::ServeSessionResumed {
                                    tenant: key,
                                    shard,
                                    replayed_events: replayed,
                                },
                            ));
                        }
                    }
                    Note::Restarted {
                        key,
                        attempt,
                        resumed_at,
                    } => {
                        self.tally.restarts += 1;
                        if O::ENABLED {
                            // The crash instant names the shard and
                            // tenant a flight dump should blame.
                            self.obs.on(&tev::Event::Span(
                                tev::SpanEvent::instant(tev::SpanKind::Crash, self.clock)
                                    .on_track(shard + 1)
                                    .with_args(CRASH_MID_FRAME, key),
                            ));
                            self.obs
                                .on(&tev::Event::RecoveryRestart(tev::RecoveryRestart {
                                    attempt,
                                    resumed_at_event: resumed_at,
                                    backoff_cycles: 0,
                                }));
                        }
                    }
                    Note::Pumped {
                        queued,
                        frames,
                        events,
                    } => {
                        pumped_frames = frames;
                        pumped_events = events;
                        if O::ENABLED {
                            self.obs
                                .on(&tev::Event::ServeShardPump(tev::ServeShardPump {
                                    shard,
                                    queued,
                                    frames,
                                    events,
                                }));
                        }
                    }
                    Note::Report {
                        tenant,
                        report,
                        digest,
                    } => {
                        responses.push(Frame::Report {
                            tenant: tenant.clone(),
                            report_json: serde_json::to_string(&*report).unwrap_or_default(),
                            image_digest: digest,
                        });
                        self.outcomes.push(TenantOutcome {
                            tenant,
                            report: *report,
                            image_digest: digest,
                        });
                    }
                    Note::Malformed { tenant, detail } => {
                        // The shard dropped the tenant; forget it here
                        // too, durable state included, so the name can
                        // open afresh.
                        if self.tenants.remove(&tenant).is_some_and(|c| c.live) {
                            self.live_count -= 1;
                        }
                        self.drop_durable(&tenant);
                        responses.extend(
                            self.reject(
                                RejectCode::MalformedStream,
                                &format!("{tenant}: {detail}"),
                            ),
                        );
                    }
                    Note::Exported {
                        tenant,
                        procedures,
                        backend,
                        snapshot,
                        tail,
                        detach,
                    } => {
                        if detach {
                            // The tenant now lives elsewhere; stale
                            // durable state must not resurrect it here.
                            self.tenants.remove(&tenant);
                            self.drop_durable(&tenant);
                        }
                        responses.push(Frame::Exported {
                            record: TenantRecord {
                                tenant,
                                stamp: self.clock,
                                backend: backend.wire_code(),
                                procedures,
                                snapshot,
                                tail,
                            },
                        });
                    }
                }
            }
            if O::ENABLED {
                self.obs.on(&tev::Event::Span(
                    tev::SpanEvent::end(tev::SpanKind::ShardPump, self.clock)
                        .on_track(shard + 1)
                        .with_args(pumped_frames, pumped_events),
                ));
            }
        }
        // Everything enqueued was drained; reset queue accounting.
        for ctrl in self.tenants.values_mut() {
            ctrl.queued_chunks = 0;
        }
        self.global_queued_bytes = 0;
        // With the mailboxes empty, every hibernated tenant's cold
        // state is settled — spill it out of memory.
        self.spill_pass();
        // Server-initiated Stats push: a periodic summary streamed to
        // the client without an Introspect poll.
        if self.cfg.stats_push > 0 && self.tally.pumps.is_multiple_of(self.cfg.stats_push) {
            responses.push(self.stats_snapshot(""));
        }
        responses
    }

    /// The aggregated serving report. Every counter reconciles exactly
    /// with the telemetry emitted so far (see
    /// [`ServeReport::reconciles`]).
    #[must_use]
    pub fn report(&self) -> ServeReport {
        ServeReport {
            shards: self.cfg.shards,
            opened: self.tally.opened,
            opened_by_backend: self.tally.opened_by_backend,
            evicted: self.tally.evicted,
            resumed: self.tally.resumed,
            replayed_events: self.tally.replayed_events,
            busy: self.guard.busy(),
            shed: [
                self.guard.shed(ServeBudgetKind::LiveSessions),
                self.guard.shed(ServeBudgetKind::TenantQueue),
                self.guard.shed(ServeBudgetKind::GlobalBytes),
                self.guard.shed(ServeBudgetKind::RetryStorm),
                self.guard.shed(ServeBudgetKind::StoreFaults),
            ],
            rejected: self.tally.rejected,
            auth_failures: self.tally.auth_failures,
            duplicate_chunks: self.tally.duplicate_chunks,
            sequence_gaps: self.tally.sequence_gaps,
            drains: self.tally.drains,
            restarts: self.tally.restarts,
            pumps: self.tally.pumps,
            spilled: self.tally.spilled,
            loaded: self.tally.loaded,
            compactions: self.tally.compactions,
            expired: self.tally.expired,
            store_faults: self.tally.store_faults,
            frames: self.shards.iter().map(|s| s.frames_total).sum(),
            events: self.shards.iter().map(|s| s.events_total).sum(),
            per_shard: self
                .shards
                .iter()
                .map(|s| ShardStats {
                    shard: s.index,
                    frames: s.frames_total,
                    events: s.events_total,
                })
                .collect(),
            outcomes: self.outcomes.clone(),
        }
    }
}

/// The optimizer config a tenant session actually runs with: the
/// shared config as-is when the tenant's backend kind already matches
/// it (so an explicitly tuned [`BackendSelect`] survives), otherwise a
/// clone with the backend swapped for that kind's default selection.
/// Deterministic in `(optimizer, kind)`, so build and every later
/// rehydration derive the identical config.
fn select_for(optimizer: &OptimizerConfig, kind: BackendKind) -> OptimizerConfig {
    if optimizer.backend.kind() == kind {
        optimizer.clone()
    } else {
        let mut cfg = optimizer.clone();
        cfg.backend = BackendSelect::default_for(kind);
        cfg
    }
}

fn build_session(
    optimizer: &OptimizerConfig,
    mode: RunMode,
    procedures: Vec<Procedure>,
    backend: BackendKind,
) -> Session {
    SessionBuilder::new(select_for(optimizer, backend))
        .procedures(procedures)
        .checkpoints()
        .mode(mode)
        .build()
}

/// Feeds a chunk with the replay-tail bookkeeping: a fresh
/// phase-boundary snapshot covers every event up to and including the
/// one that took it, so the tail keeps only what followed the last
/// boundary the chunk crossed, extended once per chunk.
fn feed_chunk(live: &mut LiveSession, events: &[Event]) {
    let mut suffix = 0;
    for (i, &event) in events.iter().enumerate() {
        live.session.on_event(event);
        let snaps = live.session.snapshots_taken();
        if snaps > live.snaps {
            live.snaps = snaps;
            live.tail.clear();
            suffix = i + 1;
        }
    }
    live.tail.extend_from_slice(&events[suffix..]);
}

/// Moves a live session to cold storage; returns `(snapshot_bytes,
/// tail_events)` or `None` when the tenant was already cold.
fn hibernate(state: &mut TenantState) -> Option<(u64, u64)> {
    let mut live = state.live.take()?;
    let snapshot = live.session.take_latest_snapshot();
    let bytes = snapshot.as_ref().map_or(0, |s| s.len() as u64);
    let tail_events = live.tail.len() as u64;
    state.cold = Some(ColdState {
        snapshot,
        tail: live.tail,
    });
    Some((bytes, tail_events))
}

/// Rehydrates a cold tenant: resume from the snapshot (or rebuild
/// fresh when none was ever taken) and replay the journaled tail.
/// Appends a `Resumed` note. No-op when the tenant is already live.
fn ensure_live(
    state: &mut TenantState,
    optimizer: &OptimizerConfig,
    mode: RunMode,
    notes: &mut Vec<Note>,
    key: u64,
) {
    if state.live.is_some() {
        return;
    }
    let cold = state.cold.take().unwrap_or(ColdState {
        snapshot: None,
        tail: Vec::new(),
    });
    let session = match cold.snapshot {
        Some(snap) => SessionBuilder::new(select_for(optimizer, state.backend))
            .procedures(state.procedures.clone())
            .checkpoints()
            .mode(mode)
            .resume(&snap)
            // A snapshot this manager captured always resumes (same
            // config, mode, procedures, backend); degrade to a fresh
            // build rather than panicking if it somehow does not.
            .unwrap_or_else(|_| {
                build_session(optimizer, mode, state.procedures.clone(), state.backend)
            }),
        None => build_session(optimizer, mode, state.procedures.clone(), state.backend),
    };
    let mut live = LiveSession {
        snaps: session.snapshots_taken(),
        session,
        tail: Vec::new(),
    };
    let replayed = cold.tail.len() as u64;
    feed_chunk(&mut live, &cold.tail);
    state.live = Some(live);
    notes.push(Note::Resumed { key, replayed });
}

impl Shard {
    fn pump(&mut self, optimizer: &OptimizerConfig, mode: RunMode) {
        let msgs = std::mem::take(&mut self.mailbox);
        let queued = msgs.len() as u64;
        let mut frames = 0u64;
        let mut events_n = 0u64;
        for msg in msgs {
            match msg {
                ShardMsg::Open {
                    tenant,
                    procedures,
                    backend,
                } => {
                    let session = build_session(optimizer, mode, procedures.clone(), backend);
                    self.sessions.insert(
                        tenant,
                        TenantState {
                            procedures,
                            backend,
                            live: Some(LiveSession {
                                snaps: session.snapshots_taken(),
                                session,
                                tail: Vec::new(),
                            }),
                            cold: None,
                            crash_attempts: 0,
                        },
                    );
                }
                ShardMsg::Chunk { tenant, events } => {
                    frames += 1;
                    events_n += events.len() as u64;
                    let killed = self
                        .faults
                        .as_mut()
                        .is_some_and(|f| f.crash(CrashPoint::MidFrame));
                    let key = tenant_key(&tenant);
                    let Some(state) = self.sessions.get_mut(&tenant) else {
                        continue;
                    };
                    if killed {
                        // The shard process dies mid-chunk. The live
                        // session is lost; the persisted snapshot and
                        // the journaled tail survive, so the restarted
                        // shard replays the tenant and re-feeds the
                        // chunk deterministically.
                        hibernate(state);
                        state.crash_attempts += 1;
                        ensure_live(state, optimizer, mode, &mut self.notes, key);
                        let live = state.live.as_ref().expect("just rehydrated");
                        self.notes.push(Note::Restarted {
                            key,
                            attempt: state.crash_attempts,
                            resumed_at: live.session.events_consumed(),
                        });
                    } else {
                        ensure_live(state, optimizer, mode, &mut self.notes, key);
                    }
                    let live = state.live.as_mut().expect("live after rehydration");
                    feed_chunk(live, &events);
                    if let Some(malformed) = live.session.malformed() {
                        // A malformed stream fails its own tenant only.
                        let detail = malformed.to_string();
                        self.sessions.remove(&tenant);
                        self.notes.push(Note::Malformed { tenant, detail });
                    }
                }
                ShardMsg::Flush { tenant } => {
                    if let Some(mut state) = self.sessions.remove(&tenant) {
                        let key = tenant_key(&tenant);
                        ensure_live(&mut state, optimizer, mode, &mut self.notes, key);
                        let live = state.live.take().expect("live after rehydration");
                        let digest = live.session.image_digest();
                        let report = live.session.finish(&tenant);
                        self.notes.push(Note::Report {
                            tenant,
                            report: Box::new(report),
                            digest,
                        });
                    }
                }
                ShardMsg::Evict { tenant } => {
                    let key = tenant_key(&tenant);
                    if let Some(state) = self.sessions.get_mut(&tenant) {
                        if let Some((snapshot_bytes, tail_events)) = hibernate(state) {
                            self.notes.push(Note::Evicted {
                                key,
                                snapshot_bytes,
                                tail_events,
                            });
                        }
                    }
                }
                ShardMsg::Resume { tenant } => {
                    let key = tenant_key(&tenant);
                    if let Some(state) = self.sessions.get_mut(&tenant) {
                        ensure_live(state, optimizer, mode, &mut self.notes, key);
                    }
                }
                ShardMsg::Install {
                    tenant,
                    procedures,
                    backend,
                    snapshot,
                    tail,
                } => {
                    // Cold state straight from the store; the very next
                    // message for the tenant rehydrates it through
                    // `ensure_live`, the same path a never-spilled
                    // hibernation takes.
                    self.sessions.insert(
                        tenant,
                        TenantState {
                            procedures,
                            backend,
                            live: None,
                            cold: Some(ColdState { snapshot, tail }),
                            crash_attempts: 0,
                        },
                    );
                }
                ShardMsg::Export { tenant, detach } => {
                    if let Some(state) = self.sessions.get_mut(&tenant) {
                        // Settle to cold first; every chunk enqueued
                        // ahead of the Export has already been fed, so
                        // the record is a consistent point-in-time
                        // image — exactly what a spill would write.
                        hibernate(state);
                        let cold = state.cold.get_or_insert_with(|| ColdState {
                            snapshot: None,
                            tail: Vec::new(),
                        });
                        self.notes.push(Note::Exported {
                            tenant: tenant.clone(),
                            procedures: state.procedures.clone(),
                            backend: state.backend,
                            snapshot: cold.snapshot.as_ref().map(|s| s.as_bytes().to_vec()),
                            tail: cold.tail.clone(),
                            detach,
                        });
                        if detach {
                            self.sessions.remove(&tenant);
                        }
                    }
                }
            }
        }
        self.frames_total += frames;
        self.events_total += events_n;
        self.notes.push(Note::Pumped {
            queued,
            frames,
            events: events_n,
        });
    }
}
