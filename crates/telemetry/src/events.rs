//! The typed events the optimizer emits.
//!
//! Every struct is plain data with public fields: the emitting side
//! (`hds-core`) fills them from its run state, observers read them.
//! All of them derive the workspace `serde` Serialize so sinks can
//! export them without per-event glue. [`Event`] wraps each in one
//! variant: it is what every emission site sends and every observer
//! matches on.

use serde::{Deserialize, Serialize, Value};

/// Declares [`Event`] from one `Variant(Payload) => "name"` line per
/// kind, so the variants, their names and their payloads cannot drift
/// apart.
macro_rules! events {
    ($($(#[$doc:meta])* $variant:ident($payload:ty) => $name:literal,)*) => {
        /// One event of the stream an [`Observer`](crate::Observer)
        /// receives: a variant per kind, wrapping that kind's payload.
        #[derive(Clone, Copy, Debug, PartialEq)]
        pub enum Event {
            $($(#[$doc])* $variant($payload),)*
        }

        impl Event {
            /// The kind's stable lower-case name: the JSONL `event` tag.
            pub(crate) fn name(&self) -> &'static str {
                match self {
                    $(Event::$variant(_) => $name,)*
                }
            }

            /// The payload's fields as a serde value, in declaration
            /// order.
            pub(crate) fn payload(&self) -> Value {
                match self {
                    $(Event::$variant(e) => e.to_value(),)*
                }
            }
        }
    };
}

events! {
    /// The bursty tracer crossed an awake/hibernate boundary.
    PhaseTransition(PhaseTransition) => "phase_transition",
    /// A profile → analyze → optimize cycle began (profiling starts).
    CycleStart(CycleStart) => "cycle_start",
    /// A cycle's awake phase finished: analysis ran, statistics final.
    CycleEnd(CycleEnd) => "cycle_end",
    /// A hot data stream was accepted for prefetching.
    StreamDetected(StreamDetected) => "stream_detected",
    /// A prefix-matching DFSM was built and injected.
    DfsmBuilt(DfsmBuilt) => "dfsm_built",
    /// A prefetch instruction was issued.
    PrefetchIssued(PrefetchIssued) => "prefetch_issued",
    /// An issued prefetch resolved (used, late, or evicted unused).
    PrefetchOutcome(PrefetchOutcome) => "prefetch_outcome",
    /// Injected code was removed, fully or by the accuracy guard.
    Deoptimize(Deoptimize) => "deoptimize",
    /// A budget guard tripped and degraded the current cycle.
    GuardTripped(GuardTripped) => "guard_tripped",
    /// An awake-phase trace went to the background analysis worker.
    AnalysisHandoff(AnalysisHandoff) => "analysis_handoff",
    /// A background analysis result was installed.
    AnalysisApplied(AnalysisApplied) => "analysis_applied",
    /// A background analysis result was discarded (worker starved).
    AnalysisStarved(AnalysisStarved) => "analysis_starved",
    /// A crash-consistent checkpoint was captured at a phase boundary.
    RecoverySnapshot(RecoverySnapshot) => "recovery_snapshot",
    /// Crash recovery inspected the write-ahead edit journal.
    RecoveryReplay(RecoveryReplay) => "recovery_replay",
    /// The supervisor restarted a crashed session from its snapshot.
    RecoveryRestart(RecoveryRestart) => "recovery_restart",
    /// The supervisor's restart circuit breaker opened.
    RecoveryGaveUp(RecoveryGaveUp) => "recovery_gave_up",
    /// The serving layer admitted a tenant and opened its session.
    ServeSessionOpened(ServeSessionOpened) => "serve_session_opened",
    /// The serving layer evicted a cold tenant's session.
    ServeSessionEvicted(ServeSessionEvicted) => "serve_session_evicted",
    /// The serving layer rehydrated an evicted tenant's session.
    ServeSessionResumed(ServeSessionResumed) => "serve_session_resumed",
    /// The serving layer shed a trace chunk with a typed `Shed` frame.
    ServeShed(ServeShed) => "serve_shed",
    /// The serving layer refused an `OpenSession` with a `Busy` frame.
    ServeBusy(ServeBusy) => "serve_busy",
    /// A serving shard drained its mailbox for one pump.
    ServeShardPump(ServeShardPump) => "serve_shard_pump",
    /// The durable store spilled a hibernated tenant to disk.
    StoreSpilled(StoreSpilled) => "store_spilled",
    /// The durable store loaded a spilled tenant back.
    StoreLoaded(StoreLoaded) => "store_loaded",
    /// The durable store compacted its segments.
    StoreCompacted(StoreCompacted) => "store_compacted",
    /// The durable store expired a dead tenant past its TTL.
    StoreExpired(StoreExpired) => "store_expired",
    /// A storage fault was observed and degraded gracefully.
    StoreFault(StoreFaultObserved) => "store_fault",
    /// The cluster router completed a planned tenant migration.
    ClusterMigrated(ClusterMigrated) => "cluster_migrated",
    /// The cluster router re-homed a tenant after its owner died.
    ClusterRehomed(ClusterRehomed) => "cluster_rehomed",
    /// The cluster supervisor restarted a dead owner process.
    ClusterOwnerRestarted(ClusterOwnerRestarted) => "cluster_owner_restarted",
    /// A span boundary or instant marker on the phase timeline. Spans
    /// charge zero simulated cycles; `hds-flight` records them.
    Span(SpanEvent) => "span",
}

/// The bursty-tracing phase being entered.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum PhaseKind {
    /// Profiling: bursts record references.
    Awake,
    /// Detuned counters: only check overhead (and, when optimized,
    /// prefetching) runs.
    Hibernating,
}

/// An awake/hibernate boundary was crossed.
#[derive(Clone, Copy, Debug, PartialEq, Serialize)]
pub struct PhaseTransition {
    /// Simulated cycle count at the transition.
    pub at_cycle: u64,
    /// Dynamic checks executed so far.
    pub at_check: u64,
    /// The phase being entered.
    pub to: PhaseKind,
    /// Optimization cycles completed so far.
    pub opt_cycle: u64,
    /// Effective duty cycle so far: fraction of dynamic checks executed
    /// while awake.
    pub duty_cycle: f64,
}

/// A profile → analyze → optimize cycle began.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize)]
pub struct CycleStart {
    /// Index of the cycle that is starting (0-based).
    pub opt_cycle: u64,
    /// Simulated cycle count at the start.
    pub at_cycle: u64,
}

/// A cycle's awake phase completed; the analysis statistics are final.
/// Mirrors `hds-core`'s per-cycle `CycleStats` (the paper's Table 2
/// row), plus position information.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize)]
pub struct CycleEnd {
    /// Index of the cycle that ended (0-based).
    pub opt_cycle: u64,
    /// Simulated cycle count at the end of the awake phase.
    pub at_cycle: u64,
    /// References traced during the awake phase.
    pub traced_refs: u64,
    /// Hot data streams the analysis detected.
    pub hot_streams: usize,
    /// Streams handed to the DFSM after filtering.
    pub streams_used: usize,
    /// DFSM state count (0 if none was built).
    pub dfsm_states: usize,
    /// Distinct injected address checks.
    pub dfsm_checks: usize,
    /// Procedures modified by injection.
    pub procs_modified: usize,
    /// Grammar size the analysis ran over.
    pub grammar_size: usize,
}

/// A hot data stream was accepted for prefetching. The id matches the
/// DFSM's `StreamId` for the cycle, so later [`PrefetchIssued`] /
/// [`PrefetchOutcome`] events correlate back to it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub struct StreamDetected {
    /// Cycle the stream belongs to.
    pub opt_cycle: u64,
    /// Stream id within this cycle's DFSM.
    pub stream_id: u32,
    /// Stream length in references.
    pub len: usize,
    /// Prefix length that must match before the tail is prefetched.
    pub head_len: usize,
}

/// A prefix-matching DFSM was built and its checks injected.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub struct DfsmBuilt {
    /// Cycle the machine belongs to.
    pub opt_cycle: u64,
    /// DFSM state count.
    pub states: usize,
    /// Distinct injected address checks.
    pub address_checks: usize,
    /// Streams the machine matches.
    pub streams: usize,
    /// Procedures modified by the injection.
    pub procs_modified: usize,
}

/// A prefetch instruction was issued.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub struct PrefetchIssued {
    /// Stream that triggered the prefetch, or [`PROGRAM_STREAM`] for
    /// prefetch instructions belonging to the program itself.
    pub stream_id: u32,
    /// Prefetched address.
    pub addr: u64,
    /// Cache block number of the address (correlation key for
    /// [`PrefetchOutcome`]).
    pub block: u64,
    /// Simulated cycle count at issue.
    pub at_cycle: u64,
    /// Demand references executed so far (for lead-distance metrics).
    pub at_ref: u64,
}

/// Stream id used for prefetches not triggered by a detected stream
/// (the program's own software prefetch instructions).
pub const PROGRAM_STREAM: u32 = u32::MAX;

/// How an issued prefetch resolved.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum PrefetchFate {
    /// The block was demand-hit in L1 before eviction: a full hit.
    Useful,
    /// The demand access arrived while the block was still in flight:
    /// the miss was shortened but not hidden.
    Late,
    /// The block was evicted without ever being demand-used: pollution.
    Polluted,
}

impl PrefetchFate {
    /// Lower-case label (Prometheus/JSON friendly).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            PrefetchFate::Useful => "useful",
            PrefetchFate::Late => "late",
            PrefetchFate::Polluted => "polluted",
        }
    }
}

/// An issued prefetch resolved. Emitted by `hds-core` from the memory
/// simulator's attribution queue; each *tracked* prefetch resolves at
/// most once (redundant prefetches of already-resident blocks resolve
/// never).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub struct PrefetchOutcome {
    /// Stream that issued the prefetch (or [`PROGRAM_STREAM`]).
    pub stream_id: u32,
    /// Cache block number.
    pub block: u64,
    /// How it resolved.
    pub fate: PrefetchFate,
    /// Simulated cycle count at issue.
    pub issued_at_cycle: u64,
    /// Simulated cycle count at resolution.
    pub resolved_at_cycle: u64,
    /// Demand references executed when the outcome resolved.
    pub resolved_at_ref: u64,
}

impl PrefetchOutcome {
    /// Cycles between issue and resolution (the match-to-access
    /// latency for useful/late outcomes).
    #[must_use]
    pub fn latency_cycles(&self) -> u64 {
        self.resolved_at_cycle.saturating_sub(self.issued_at_cycle)
    }
}

/// The awake-phase trace was handed off to the background analysis
/// worker (concurrent-analysis mode only). From this point the
/// simulated program keeps executing hibernation references while the
/// worker runs grammar construction, hot-stream detection, and DFSM
/// build off the critical path.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize)]
pub struct AnalysisHandoff {
    /// Index of the optimization cycle whose trace was handed off.
    pub opt_cycle: u64,
    /// Simulated cycle count at the handoff.
    pub at_cycle: u64,
    /// References in the handed-off trace.
    pub trace_len: u64,
}

/// A background analysis result came back in time and was installed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize)]
pub struct AnalysisApplied {
    /// Index of the optimization cycle the result belongs to.
    pub opt_cycle: u64,
    /// Simulated cycle count at the original handoff.
    pub handoff_at_cycle: u64,
    /// Simulated cycle count at installation.
    pub at_cycle: u64,
    /// Simulated cycles the analysis overlapped execution
    /// (`at_cycle - handoff_at_cycle`): the worker-lag sample.
    pub lag_cycles: u64,
}

/// A background analysis result was discarded because the worker fell
/// too far behind: the hibernation span ended (or the run finished, or
/// the worker-lag guard tripped) before the result could be installed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize)]
pub struct AnalysisStarved {
    /// Index of the optimization cycle whose result was discarded.
    pub opt_cycle: u64,
    /// Simulated cycle count at the original handoff.
    pub handoff_at_cycle: u64,
    /// Simulated cycle count at the discard.
    pub at_cycle: u64,
    /// Simulated cycles between handoff and discard.
    pub lag_cycles: u64,
}

/// A budget guard that can trip and degrade the optimize cycle.
///
/// Each variant names the resource whose cap was exceeded; the
/// degradation taken is the guard layer's (`hds-guard`) business — the
/// event only records that the budget was insufficient.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum GuardKind {
    /// Sequitur grammar rule count during an awake phase.
    GrammarRules,
    /// Projected simulated cycles of the end-of-awake analysis pass.
    AnalysisCycles,
    /// DFSM subset-construction state count.
    DfsmStates,
    /// Pending-prefetch queue depth under windowed scheduling.
    PrefetchQueue,
    /// Simulated cycles the background analysis worker lagged behind
    /// the handoff point (concurrent-analysis mode).
    WorkerLag,
}

impl GuardKind {
    /// Lower-case label (Prometheus/JSON friendly).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            GuardKind::GrammarRules => "grammar_rules",
            GuardKind::AnalysisCycles => "analysis_cycles",
            GuardKind::DfsmStates => "dfsm_states",
            GuardKind::PrefetchQueue => "prefetch_queue",
            GuardKind::WorkerLag => "worker_lag",
        }
    }

    /// Every guard kind, in rendering order.
    pub const ALL: [GuardKind; 5] = [
        GuardKind::GrammarRules,
        GuardKind::AnalysisCycles,
        GuardKind::DfsmStates,
        GuardKind::PrefetchQueue,
        GuardKind::WorkerLag,
    ];
}

/// A budget guard tripped: a resource exceeded its configured cap and
/// the current cycle was degraded (optimization skipped, queue
/// truncated, or code de-optimized) instead of panicking or running
/// unbounded. Emitted at most once per guard kind per optimization
/// cycle.
#[derive(Clone, Copy, Debug, PartialEq, Serialize)]
pub struct GuardTripped {
    /// Which budget tripped.
    pub guard: GuardKind,
    /// The configured cap.
    pub budget: u64,
    /// The observed value that exceeded it.
    pub observed: u64,
    /// Optimization cycles completed when the guard tripped.
    pub opt_cycle: u64,
    /// Simulated cycle count at the trip.
    pub at_cycle: u64,
}

/// Injected checks and prefetches were removed — fully (end of a
/// hibernation span under the dynamic strategy, or a guard forcing the
/// code out) or partially (one stream's checks surgically removed by
/// the accuracy guard while the rest keep prefetching).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize)]
pub struct Deoptimize {
    /// Simulated cycle count at de-optimization.
    pub at_cycle: u64,
    /// Optimization cycles completed so far.
    pub opt_cycle: u64,
    /// `true` when only part of the injected code was removed; `false`
    /// for the all-or-nothing removal of §3.2.
    pub partial: bool,
    /// For a partial de-optimization, the id of the stream whose checks
    /// were removed (the id matches the cycle's earlier
    /// [`StreamDetected`] / [`PrefetchIssued`] events).
    pub stream_id: Option<u32>,
}

/// A crash-consistent checkpoint of the full optimizer state was
/// captured at a phase boundary. The sum of these events over a
/// supervised run's attempts reconciles exactly with the final
/// `RunReport`'s `snapshots` counter.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize)]
pub struct RecoverySnapshot {
    /// Optimization cycles completed at capture.
    pub opt_cycle: u64,
    /// Simulated cycle count at capture.
    pub at_cycle: u64,
    /// Workload events fully consumed at capture — the resume point.
    pub events_consumed: u64,
    /// Encoded snapshot size in bytes (header + checksummed payload).
    pub bytes: u64,
}

/// Crash recovery inspected the write-ahead edit journal. When
/// `rolled_forward` is set, a commit torn by a mid-edit crash was
/// deterministically replayed to its committed image; otherwise the
/// journal was empty and the image was already consistent.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize)]
pub struct RecoveryReplay {
    /// Workload events consumed when the crash hit.
    pub events_consumed: u64,
    /// `true` when a pending journal entry was applied forward.
    pub rolled_forward: bool,
}

/// The supervisor restarted a crashed session from its last snapshot.
/// The sum of these events reconciles exactly with the final
/// `RunReport`'s `restarts` counter.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize)]
pub struct RecoveryRestart {
    /// Restart attempt number (1-based: first restart is 1).
    pub attempt: u32,
    /// Workload events skipped to reach the resume point (the snapshot's
    /// `events_consumed`; 0 when restarting from scratch).
    pub resumed_at_event: u64,
    /// Modeled capped-exponential backoff charged before this restart,
    /// in simulated cycles.
    pub backoff_cycles: u64,
}

/// The supervisor's circuit breaker opened: the session crashed more
/// times than the restart cap allows, and the run was abandoned with
/// its last consistent state intact.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize)]
pub struct RecoveryGaveUp {
    /// Restarts performed before giving up (the configured cap).
    pub restarts: u32,
    /// Total crashes observed across all attempts.
    pub crashes: u64,
}

/// A serving-layer admission budget (`hds-serve`): which resource cap
/// an over-budget request ran into. Parallel to [`GuardKind`], but for
/// the multi-tenant front-end rather than the per-session optimize
/// cycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ServeBudgetKind {
    /// Concurrently live tenant sessions across all shards.
    LiveSessions,
    /// Trace chunks queued for a single tenant between pumps.
    TenantQueue,
    /// Bytes of trace-chunk payload queued across all tenants.
    GlobalBytes,
    /// Duplicate (retransmitted) frames re-received for one tenant on
    /// a reliable connection — the cap that keeps a retry storm from
    /// monopolizing the control plane.
    RetryStorm,
    /// Storage faults observed while spilling/loading cold tenants
    /// through the durable store — the cap that stops the serve layer
    /// from hammering a sick disk and degrades it to in-memory
    /// hibernation instead.
    StoreFaults,
}

impl ServeBudgetKind {
    /// Lower-case label (Prometheus/JSON friendly).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ServeBudgetKind::LiveSessions => "live_sessions",
            ServeBudgetKind::TenantQueue => "tenant_queue",
            ServeBudgetKind::GlobalBytes => "global_bytes",
            ServeBudgetKind::RetryStorm => "retry_storm",
            ServeBudgetKind::StoreFaults => "store_faults",
        }
    }

    /// Every serve budget kind, in rendering order.
    pub const ALL: [ServeBudgetKind; 5] = [
        ServeBudgetKind::LiveSessions,
        ServeBudgetKind::TenantQueue,
        ServeBudgetKind::GlobalBytes,
        ServeBudgetKind::RetryStorm,
        ServeBudgetKind::StoreFaults,
    ];
}

/// A tenant session was admitted and opened on a shard. The sum of
/// these events reconciles exactly with `ServeReport::opened`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize)]
pub struct ServeSessionOpened {
    /// Stable 64-bit key of the tenant id (FNV-1a of the id string).
    pub tenant: u64,
    /// Shard the tenant consistently hashes onto.
    pub shard: u32,
    /// Wire code of the prefetch backend the tenant was assigned
    /// (0 = Dyn-pref, 1 = Pangloss, 2 = Triangel), whether requested
    /// in `Hello`, drawn from a seeded A/B split, or the serve
    /// default.
    pub backend: u8,
}

/// A cold tenant's live session was evicted: its state was captured as
/// a crash-consistent snapshot plus the replay tail of events consumed
/// since the last phase boundary.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize)]
pub struct ServeSessionEvicted {
    /// Stable 64-bit key of the tenant id.
    pub tenant: u64,
    /// Shard that owned the session.
    pub shard: u32,
    /// Encoded snapshot size in bytes (0 when the session had not yet
    /// crossed a phase boundary and the tail carries everything).
    pub snapshot_bytes: u64,
    /// Events in the replay tail beyond the snapshot's resume point.
    pub tail_events: u64,
}

/// An evicted tenant's next frame arrived and its session was
/// rehydrated — snapshot resumed, tail replayed — bit-identically to
/// the uninterrupted session.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize)]
pub struct ServeSessionResumed {
    /// Stable 64-bit key of the tenant id.
    pub tenant: u64,
    /// Shard that owns the session.
    pub shard: u32,
    /// Tail events replayed on top of the snapshot.
    pub replayed_events: u64,
}

/// A trace chunk was dropped by admission control: a serve budget was
/// exhausted and the tenant received a typed `Shed` frame instead of a
/// panic or an unbounded queue. The sum of these events reconciles
/// exactly with `ServeReport::shed`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub struct ServeShed {
    /// Stable 64-bit key of the tenant id.
    pub tenant: u64,
    /// Shard the chunk was bound for.
    pub shard: u32,
    /// Which budget was exhausted.
    pub kind: ServeBudgetKind,
    /// The configured cap.
    pub budget: u64,
    /// The observed value that exceeded it.
    pub observed: u64,
}

/// An `OpenSession` was refused outright: the live-session cap is
/// reached and LRU eviction is disabled, so the tenant received a typed
/// `Busy` frame and must retry later.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize)]
pub struct ServeBusy {
    /// Stable 64-bit key of the tenant id.
    pub tenant: u64,
    /// Shard the tenant would have hashed onto.
    pub shard: u32,
    /// The configured live-session cap.
    pub budget: u64,
    /// Live sessions at the refusal.
    pub observed: u64,
}

/// One shard finished draining its mailbox for a pump: the queue-depth
/// sample feeds the depth histogram, the drain counters feed per-shard
/// utilization.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize)]
pub struct ServeShardPump {
    /// Shard index.
    pub shard: u32,
    /// Frames queued in the mailbox when the pump began.
    pub queued: u64,
    /// Frames drained by this pump.
    pub frames: u64,
    /// Workload events fed into tenant sessions by this pump.
    pub events: u64,
}

/// What a span's timeline is attributed to in the flight-recorder /
/// Perfetto view. Every kind maps to a stable lower-case label and a
/// nesting *lane*: spans on the same lane of the same track must nest
/// like parentheses, while different lanes may overlap freely (the
/// background analysis worker overlaps the hibernation span by design).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SpanKind {
    /// An awake (profiling) phase of one optimize cycle.
    Profile,
    /// A hibernation phase (detuned checks, prefetching if optimized).
    Hibernate,
    /// The end-of-awake inline analysis pass (grammar final pass, hot
    /// stream extraction, machine build, image edit).
    Analyze,
    /// DFSM subset construction for one cycle's accepted streams.
    DfsmBuild,
    /// The journaled code-image edit installing a cycle's checks.
    ImageEdit,
    /// A background analysis job, from handoff to install/starve.
    BgAnalysis,
    /// One serve frame handled on the control plane.
    ServeFrame,
    /// One serve shard draining its mailbox.
    ShardPump,
    /// Instant: a Sequitur append burst folded into the grammar.
    SequiturAppend,
    /// Instant: an injected fault killed the session at a crash point.
    Crash,
    /// Instant: a network-robustness event on the wire (`hds-net`):
    /// `a` is the [`NetEventKind`] discriminant, `b` the tenant key or
    /// backoff amount (per emission site).
    Net,
    /// Instant: a durable-store event (`hds-store`): `a` is the
    /// [`StoreEventKind`] discriminant, `b` the tenant key or byte
    /// count (per emission site).
    Store,
    /// Instant: a cross-process cluster event (`hds-cluster`): `a` is
    /// the [`ClusterEventKind`] discriminant, `b` the tenant key or
    /// owner id (per emission site).
    Cluster,
}

impl SpanKind {
    /// Lower-case label (Perfetto/JSON friendly).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SpanKind::Profile => "profile",
            SpanKind::Hibernate => "hibernate",
            SpanKind::Analyze => "analyze",
            SpanKind::DfsmBuild => "dfsm_build",
            SpanKind::ImageEdit => "image_edit",
            SpanKind::BgAnalysis => "bg_analysis",
            SpanKind::ServeFrame => "serve_frame",
            SpanKind::ShardPump => "shard_pump",
            SpanKind::SequiturAppend => "sequitur_append",
            SpanKind::Crash => "crash",
            SpanKind::Net => "net",
            SpanKind::Store => "store",
            SpanKind::Cluster => "cluster",
        }
    }

    /// Nesting lane within a track. Spans sharing a `(track, lane)`
    /// pair must be well nested; distinct lanes may overlap. The
    /// background worker gets its own lane because its span begins
    /// before the awake phase ends and finishes mid-hibernation.
    #[must_use]
    pub fn lane(self) -> u32 {
        match self {
            SpanKind::BgAnalysis => 1,
            _ => 0,
        }
    }

    /// Every span kind, in rendering order.
    pub const ALL: [SpanKind; 13] = [
        SpanKind::Profile,
        SpanKind::Hibernate,
        SpanKind::Analyze,
        SpanKind::DfsmBuild,
        SpanKind::ImageEdit,
        SpanKind::BgAnalysis,
        SpanKind::ServeFrame,
        SpanKind::ShardPump,
        SpanKind::SequiturAppend,
        SpanKind::Crash,
        SpanKind::Net,
        SpanKind::Store,
        SpanKind::Cluster,
    ];
}

/// What a [`SpanKind::Net`] instant records (carried in the event's
/// `a` payload word). Emitted by the `hds-serve` client session and
/// manager on the wire's failure-recovery paths.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum NetEventKind {
    /// A frame timed out and was retransmitted (`b` = backoff steps).
    Retry,
    /// The client tore down a dead transport and reconnected
    /// (`b` = reconnect ordinal).
    Reconnect,
    /// A handshake failed authentication (`b` = 0).
    AuthFailure,
    /// A duplicate frame was received and deduplicated
    /// (`b` = tenant key).
    Duplicate,
    /// A sequence gap was detected and the sender told to rewind
    /// (`b` = tenant key).
    SequenceGap,
    /// A graceful drain (`Goodbye`) completed (`b` = tenants
    /// hibernated).
    Drain,
}

impl NetEventKind {
    /// Lower-case label (Perfetto/JSON friendly).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            NetEventKind::Retry => "retry",
            NetEventKind::Reconnect => "reconnect",
            NetEventKind::AuthFailure => "auth_failure",
            NetEventKind::Duplicate => "duplicate",
            NetEventKind::SequenceGap => "sequence_gap",
            NetEventKind::Drain => "drain",
        }
    }

    /// The event's wire discriminant (the span's `a` word).
    #[must_use]
    pub fn code(self) -> u64 {
        match self {
            NetEventKind::Retry => 0,
            NetEventKind::Reconnect => 1,
            NetEventKind::AuthFailure => 2,
            NetEventKind::Duplicate => 3,
            NetEventKind::SequenceGap => 4,
            NetEventKind::Drain => 5,
        }
    }
}

/// What a [`SpanKind::Store`] instant records (carried in the event's
/// `a` payload word). Emitted by the `hds-serve` manager on the
/// durable-store spill/load/compact paths, so the flight recorder's
/// black box says exactly what the store did (and what went wrong)
/// right before a crash.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum StoreEventKind {
    /// A hibernated tenant was durably spilled (`b` = tenant key).
    Spilled,
    /// A spilled tenant was loaded and rehydrated (`b` = tenant key).
    Loaded,
    /// A compaction pass rewrote the live set (`b` = records kept).
    Compacted,
    /// A dead tenant's record passed its TTL and was expired
    /// (`b` = tenant key).
    Expired,
    /// A storage fault was observed and degraded gracefully
    /// (`b` = tenant key, or 0 for a non-tenant op).
    Fault,
    /// A tenant whose spilled record was unreadable was restarted from
    /// scratch (`b` = tenant key) — the telemetry attribution the
    /// chaos sweep checks for.
    Restarted,
}

impl StoreEventKind {
    /// Lower-case label (Perfetto/JSON friendly).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            StoreEventKind::Spilled => "spilled",
            StoreEventKind::Loaded => "loaded",
            StoreEventKind::Compacted => "compacted",
            StoreEventKind::Expired => "expired",
            StoreEventKind::Fault => "fault",
            StoreEventKind::Restarted => "restarted",
        }
    }

    /// The event's wire discriminant (the span's `a` word).
    #[must_use]
    pub fn code(self) -> u64 {
        match self {
            StoreEventKind::Spilled => 0,
            StoreEventKind::Loaded => 1,
            StoreEventKind::Compacted => 2,
            StoreEventKind::Expired => 3,
            StoreEventKind::Fault => 4,
            StoreEventKind::Restarted => 5,
        }
    }
}

/// A hibernated tenant's cold state was durably written to the store
/// and dropped from server memory. The sum of these events reconciles
/// exactly with `ServeReport::spilled`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize)]
pub struct StoreSpilled {
    /// Stable 64-bit key of the tenant id.
    pub tenant: u64,
    /// Bytes of the durable record payload (snapshot + tail).
    pub bytes: u64,
}

/// A spilled tenant's record was read back, checksum-verified, and its
/// session rehydrated. The sum of these events reconciles exactly with
/// `ServeReport::loaded`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize)]
pub struct StoreLoaded {
    /// Stable 64-bit key of the tenant id.
    pub tenant: u64,
    /// Bytes of the verified record payload.
    pub bytes: u64,
}

/// A compaction pass folded the store's live records into a fresh
/// segment and dropped the dead ones. The sum of these events
/// reconciles exactly with `ServeReport::compactions`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize)]
pub struct StoreCompacted {
    /// Live records carried into the fresh segment.
    pub kept: u64,
    /// Tenants that left the store's index in this pass: expired past
    /// their TTL, or whose record could not be read back.
    pub dropped: u64,
}

/// A tenant's record outlived its TTL with no activity and was
/// expired by compaction. The sum of these events reconciles exactly
/// with `ServeReport::expired`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize)]
pub struct StoreExpired {
    /// Stable 64-bit key of the tenant id.
    pub tenant: u64,
}

/// A storage operation failed (injected or real) and the serve layer
/// degraded gracefully instead of panicking. The sum of these events
/// reconciles exactly with `ServeReport::store_faults`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize)]
pub struct StoreFaultObserved {
    /// Stable 64-bit key of the tenant id (0 for a non-tenant op such
    /// as a failed compaction).
    pub tenant: u64,
    /// What the serve layer did about it: 0 = kept the tenant in
    /// memory (spill failed), 1 = restarted the tenant from scratch
    /// (load failed), 2 = compaction abandoned (store left as-is).
    pub action: u8,
}

/// What a [`SpanKind::Cluster`] instant records (carried in the
/// event's `a` payload word). Emitted by the `hds-cluster` router on
/// membership changes, tenant handoffs, and owner-process recovery.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum ClusterEventKind {
    /// A tenant's durable record moved to another owner in a planned
    /// migration (`b` = tenant key).
    Migrated,
    /// A tenant was re-homed after its owner died, rebuilt from its
    /// last exported record plus the router's journal (`b` = tenant
    /// key).
    Rehomed,
    /// The router declared an owner process dead (`b` = owner id).
    OwnerDead,
    /// A dead owner was restarted in place and its tenants resumed on
    /// it (`b` = owner id).
    OwnerRestarted,
    /// A tenant's standing record copy was refreshed by a non-detach
    /// export (`b` = tenant key).
    RecordRefreshed,
    /// An owner joined the ring (`b` = owner id).
    OwnerJoined,
    /// An owner left the ring gracefully (`b` = owner id).
    OwnerLeft,
}

impl ClusterEventKind {
    /// Lower-case label (Perfetto/JSON friendly).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ClusterEventKind::Migrated => "migrated",
            ClusterEventKind::Rehomed => "rehomed",
            ClusterEventKind::OwnerDead => "owner_dead",
            ClusterEventKind::OwnerRestarted => "owner_restarted",
            ClusterEventKind::RecordRefreshed => "record_refreshed",
            ClusterEventKind::OwnerJoined => "owner_joined",
            ClusterEventKind::OwnerLeft => "owner_left",
        }
    }

    /// The event's wire discriminant (the span's `a` word).
    #[must_use]
    pub fn code(self) -> u64 {
        match self {
            ClusterEventKind::Migrated => 0,
            ClusterEventKind::Rehomed => 1,
            ClusterEventKind::OwnerDead => 2,
            ClusterEventKind::OwnerRestarted => 3,
            ClusterEventKind::RecordRefreshed => 4,
            ClusterEventKind::OwnerJoined => 5,
            ClusterEventKind::OwnerLeft => 6,
        }
    }
}

/// A tenant's durable record was handed from one owner process to
/// another in a planned migration (join/leave rebalance): the source
/// exported-and-detached, the destination adopted the record, and the
/// router replayed the journaled chunks past the record's stamp.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize)]
pub struct ClusterMigrated {
    /// Stable 64-bit key of the tenant id.
    pub tenant: u64,
    /// Owner process the tenant left.
    pub from_owner: u32,
    /// Owner process the tenant now lives on.
    pub to_owner: u32,
    /// Journaled chunks replayed on the destination after the record.
    pub replayed_chunks: u64,
}

/// A tenant was re-homed after its owner process died: rebuilt on a
/// surviving (or restarted) owner from its last exported record plus
/// the router's chunk journal — the crash path of a migration.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize)]
pub struct ClusterRehomed {
    /// Stable 64-bit key of the tenant id.
    pub tenant: u64,
    /// The dead owner.
    pub from_owner: u32,
    /// Owner process the tenant now lives on.
    pub to_owner: u32,
    /// Journaled chunks replayed to rebuild the tenant.
    pub replayed_chunks: u64,
}

/// The router restarted a dead owner process (supervise-at-process
/// granularity) and re-drove its tenants through the resume protocol.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize)]
pub struct ClusterOwnerRestarted {
    /// The owner that died and came back.
    pub owner: u32,
    /// Tenants that lived on it at the time of death.
    pub tenants: u64,
    /// Journaled chunks replayed to rebuild those tenants.
    pub replayed_chunks: u64,
}

/// Whether a [`SpanEvent`] opens, closes, or is a point in time.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum SpanPhase {
    /// The span opened.
    Begin,
    /// The most recent open span of the same kind/track closed.
    End,
    /// A zero-duration marker.
    Instant,
}

impl SpanPhase {
    /// Chrome-trace phase letter (`B`/`E`/`i`).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SpanPhase::Begin => "B",
            SpanPhase::End => "E",
            SpanPhase::Instant => "i",
        }
    }
}

/// A hierarchical span boundary or instant marker. Spans carry the
/// *simulated* clock only — they charge zero simulated cycles and must
/// never perturb a digest; wall-clock time is stamped by the recording
/// observer, not the emitter. The `a`/`b` payload words are
/// kind-specific (cycle index, grammar size, tenant key, …) and are
/// documented per emission site.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub struct SpanEvent {
    /// What the span measures.
    pub kind: SpanKind,
    /// Begin, end, or instant.
    pub phase: SpanPhase,
    /// Simulated cycle count (serve layers use their frame clock).
    pub at_cycle: u64,
    /// Timeline track: 0 for the single-session core pipeline,
    /// `shard + 1` for serve shards; recorders may add an offset to
    /// keep multiple runs on separate tracks.
    pub track: u32,
    /// First kind-specific payload word.
    pub a: u64,
    /// Second kind-specific payload word.
    pub b: u64,
}

impl SpanEvent {
    /// A begin boundary on track 0 with empty payload.
    #[must_use]
    pub fn begin(kind: SpanKind, at_cycle: u64) -> Self {
        SpanEvent {
            kind,
            phase: SpanPhase::Begin,
            at_cycle,
            track: 0,
            a: 0,
            b: 0,
        }
    }

    /// An end boundary on track 0 with empty payload.
    #[must_use]
    pub fn end(kind: SpanKind, at_cycle: u64) -> Self {
        SpanEvent {
            kind,
            phase: SpanPhase::End,
            at_cycle,
            track: 0,
            a: 0,
            b: 0,
        }
    }

    /// An instant marker on track 0 with empty payload.
    #[must_use]
    pub fn instant(kind: SpanKind, at_cycle: u64) -> Self {
        SpanEvent {
            kind,
            phase: SpanPhase::Instant,
            at_cycle,
            track: 0,
            a: 0,
            b: 0,
        }
    }

    /// Same event with the payload words set.
    #[must_use]
    pub fn with_args(mut self, a: u64, b: u64) -> Self {
        self.a = a;
        self.b = b;
        self
    }

    /// Same event on another track.
    #[must_use]
    pub fn on_track(mut self, track: u32) -> Self {
        self.track = track;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fate_labels() {
        assert_eq!(PrefetchFate::Useful.label(), "useful");
        assert_eq!(PrefetchFate::Late.label(), "late");
        assert_eq!(PrefetchFate::Polluted.label(), "polluted");
    }

    #[test]
    fn guard_labels_are_distinct() {
        let labels: Vec<&str> = GuardKind::ALL.iter().map(|g| g.label()).collect();
        let mut dedup = labels.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), labels.len());
        assert_eq!(GuardKind::GrammarRules.label(), "grammar_rules");
    }

    #[test]
    fn guard_tripped_serializes_to_object() {
        use serde::{Serialize, Value};
        let v = GuardTripped {
            guard: GuardKind::PrefetchQueue,
            budget: 128,
            observed: 129,
            opt_cycle: 2,
            at_cycle: 999,
        }
        .to_value();
        assert_eq!(v.get("budget"), Some(&Value::U64(128)));
        assert_eq!(v.get("observed"), Some(&Value::U64(129)));
    }

    #[test]
    fn deoptimize_defaults_to_full() {
        let d = Deoptimize::default();
        assert!(!d.partial);
        assert_eq!(d.stream_id, None);
    }

    #[test]
    fn latency_saturates() {
        let o = PrefetchOutcome {
            stream_id: 0,
            block: 0,
            fate: PrefetchFate::Useful,
            issued_at_cycle: 10,
            resolved_at_cycle: 4,
            resolved_at_ref: 0,
        };
        assert_eq!(o.latency_cycles(), 0);
    }

    #[test]
    fn recovery_events_serialize_to_objects() {
        use serde::{Serialize, Value};
        let v = RecoverySnapshot {
            opt_cycle: 2,
            at_cycle: 5000,
            events_consumed: 81,
            bytes: 1234,
        }
        .to_value();
        assert_eq!(v.get("events_consumed"), Some(&Value::U64(81)));
        assert_eq!(v.get("bytes"), Some(&Value::U64(1234)));
        let v = RecoveryRestart {
            attempt: 1,
            resumed_at_event: 81,
            backoff_cycles: 1000,
        }
        .to_value();
        assert_eq!(v.get("attempt"), Some(&Value::U64(1)));
        let v = RecoveryReplay {
            events_consumed: 81,
            rolled_forward: true,
        }
        .to_value();
        assert_eq!(v.get("rolled_forward"), Some(&Value::Bool(true)));
        let v = RecoveryGaveUp {
            restarts: 4,
            crashes: 5,
        }
        .to_value();
        assert_eq!(v.get("crashes"), Some(&Value::U64(5)));
    }

    #[test]
    fn serve_budget_labels_are_distinct() {
        let labels: Vec<&str> = ServeBudgetKind::ALL.iter().map(|k| k.label()).collect();
        let mut dedup = labels.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), labels.len());
        assert_eq!(ServeBudgetKind::LiveSessions.label(), "live_sessions");
    }

    #[test]
    fn serve_events_serialize_to_objects() {
        use serde::{Serialize, Value};
        let v = ServeShed {
            tenant: 0xfeed,
            shard: 3,
            kind: ServeBudgetKind::GlobalBytes,
            budget: 4096,
            observed: 5000,
        }
        .to_value();
        assert_eq!(v.get("budget"), Some(&Value::U64(4096)));
        assert_eq!(v.get("observed"), Some(&Value::U64(5000)));
        let v = ServeSessionEvicted {
            tenant: 1,
            shard: 0,
            snapshot_bytes: 256,
            tail_events: 7,
        }
        .to_value();
        assert_eq!(v.get("tail_events"), Some(&Value::U64(7)));
        let v = ServeShardPump {
            shard: 2,
            queued: 5,
            frames: 5,
            events: 40,
        }
        .to_value();
        assert_eq!(v.get("queued"), Some(&Value::U64(5)));
    }

    #[test]
    fn span_labels_are_distinct() {
        let labels: Vec<&str> = SpanKind::ALL.iter().map(|k| k.label()).collect();
        let mut dedup = labels.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), labels.len());
        assert_eq!(SpanKind::DfsmBuild.label(), "dfsm_build");
        assert_eq!(SpanPhase::Begin.label(), "B");
        assert_eq!(SpanPhase::End.label(), "E");
        assert_eq!(SpanPhase::Instant.label(), "i");
    }

    #[test]
    fn bg_analysis_has_its_own_lane() {
        assert_eq!(SpanKind::BgAnalysis.lane(), 1);
        for k in SpanKind::ALL {
            if k != SpanKind::BgAnalysis {
                assert_eq!(k.lane(), 0, "{}", k.label());
            }
        }
    }

    #[test]
    fn span_event_builders_compose() {
        use serde::{Serialize, Value};
        let e = SpanEvent::begin(SpanKind::Analyze, 500)
            .with_args(7, 42)
            .on_track(3);
        assert_eq!(e.phase, SpanPhase::Begin);
        assert_eq!(e.track, 3);
        let v = e.to_value();
        assert_eq!(v.get("at_cycle"), Some(&Value::U64(500)));
        assert_eq!(v.get("a"), Some(&Value::U64(7)));
        assert_eq!(v.get("b"), Some(&Value::U64(42)));
        assert_eq!(SpanEvent::end(SpanKind::Analyze, 501).phase, SpanPhase::End);
        assert_eq!(
            SpanEvent::instant(SpanKind::Crash, 502).phase,
            SpanPhase::Instant
        );
    }

    #[test]
    fn events_serialize_to_objects() {
        use serde::{Serialize, Value};
        let v = CycleEnd {
            opt_cycle: 3,
            traced_refs: 7,
            ..CycleEnd::default()
        }
        .to_value();
        assert_eq!(v.get("opt_cycle"), Some(&Value::U64(3)));
        assert_eq!(v.get("traced_refs"), Some(&Value::U64(7)));
    }
}
