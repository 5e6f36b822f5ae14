//! The executor: runs a program event stream through the full
//! profile → analyze → optimize → hibernate cycle, charging cycles for
//! everything, exactly once per event.

use hds_backend::{AnyBackend, PrefetchBackend};
use hds_bursty::{BurstyTracer, Mode, Phase, Signal};
use hds_dfsm::{build as build_dfsm, BuildError, Dfsm, StateId};
use hds_guard::{CrashPoint, FaultInjector, GuardRuntime, NoFaults, Trip};
use hds_hotstream::fast;
use hds_memsim::{MemView, MemorySystem};
use hds_sequitur::Sequitur;
use hds_telemetry::events::GuardKind;
use hds_telemetry::{events as tev, NullObserver, Observer};
use hds_trace::{DataRef, SymbolTable, TraceBuffer};
#[cfg(test)]
use hds_vulcan::ProgramSource;
use hds_vulcan::{EditJournal, Event, ExitMismatch, FrameTracker, Image, Procedure};

use crate::config::{
    AnalysisConcurrency, CycleStrategy, OptimizerConfig, PrefetchPolicy, PrefetchScheduling,
    RunMode,
};
use crate::pipeline::{
    machine_for, select_streams, stream_hash, AnalyzeOutcome, AnalyzeRequest, BackgroundAnalysis,
    PendingAnalysis,
};
use crate::report::{CostBreakdown, CycleStats, RunReport, WorkerStats};
use crate::snapshot::{config_fingerprint, BgState, PendingState, SessionState, Snapshot};
use crate::SnapshotError;

/// Threads a session keeps call stacks for: an [`Event::Thread`] id at
/// or above this bound makes the stream malformed. The
/// [`Interleaver`](hds_vulcan::Interleaver) numbers its programs'
/// threads from zero.
pub const MAX_THREADS: u32 = 1024;

/// An event [`Session::on_event`] refused because the stream is
/// malformed; the session consumes nothing after it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MalformedEvent {
    /// Position of the event in the stream: the events accepted before
    /// it, which is also [`Session::events_consumed`] afterwards.
    pub index: u64,
    /// The refused event.
    pub event: Event,
    /// What is wrong with it.
    pub problem: EventProblem,
}

/// Why an event makes a stream malformed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventProblem {
    /// An `Exit` that does not match the thread's innermost activation.
    UnmatchedExit(ExitMismatch),
    /// A `Thread` id at or above [`MAX_THREADS`].
    ThreadOutOfRange,
}

impl std::fmt::Display for MalformedEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "event {} ({:?}): ", self.index, self.event)?;
        match self.problem {
            EventProblem::UnmatchedExit(mismatch) => write!(f, "{mismatch}"),
            EventProblem::ThreadOutOfRange => {
                write!(f, "thread id at or above the bound of {MAX_THREADS}")
            }
        }
    }
}

impl std::error::Error for MalformedEvent {}

/// Marks the session stopped on a malformed `event`, which
/// [`Session::on_event`] has counted but not accepted.
#[cold]
fn refuse(st: &mut RunState, event: Event, problem: EventProblem) {
    st.events_consumed -= 1;
    st.malformed = Some(MalformedEvent {
        index: st.events_consumed,
        event,
        problem,
    });
}

/// All mutable state of a run.
#[derive(Debug)]
struct RunState {
    cycles: u64,
    breakdown: CostBreakdown,
    mem: MemorySystem,
    tracer: BurstyTracer,
    buffer: TraceBuffer,
    symbols: SymbolTable,
    sequitur: Sequitur,
    image: Image<usize>,
    dfsm: Option<Dfsm>,
    dfsm_state: StateId,
    /// Per-thread call stacks; single-threaded programs use only slot 0.
    frames: Vec<FrameTracker>,
    active_thread: usize,
    refs: u64,
    checks: u64,
    cycle_stats: Vec<CycleStats>,
    /// Tail addresses (with their triggering stream id) awaiting issue
    /// under windowed scheduling.
    pf_queue: std::collections::VecDeque<(hds_trace::Addr, u32)>,
    /// Budget guards + accuracy policy; `None` when every guard is off
    /// (the common case), so the unguarded paths stay branch-cheap.
    guard: Option<GuardRuntime>,
    /// The streams of the current DFSM installation (index = stream id),
    /// kept so the accuracy policy can rebuild the matcher over the
    /// survivors when it surgically removes a stream.
    installed: Vec<Vec<DataRef>>,
    /// Streams removed by accuracy-driven partial de-optimization.
    partial_deopts: u64,
    /// The background analysis worker
    /// ([`AnalysisConcurrency::Background`] only): channels, the
    /// in-flight request, and the handoff/apply/starve counters.
    bg: Option<BackgroundAnalysis>,
    /// Set by an injected crash ([`CrashPoint`]): the session is dead
    /// and consumes no further events until the supervisor restarts it
    /// from its last snapshot.
    crashed: bool,
    /// Set by the first event [`Session::on_event`] refused: the stream
    /// is malformed and the session consumes no further events.
    malformed: Option<MalformedEvent>,
    /// Workload events fully accepted by [`Session::on_event`] — the
    /// resume cursor a snapshot records.
    events_consumed: u64,
    /// Phase-boundary snapshots captured (reconciles with
    /// `RecoverySnapshot` telemetry and `RunReport::snapshots`).
    snapshots: u64,
    /// Supervisor restarts that produced this session (stamped by
    /// [`Session::mark_restarted`]; never serialized).
    restarts: u64,
    /// Write-ahead journal for stop-the-world image edits: a commit
    /// torn by a mid-edit crash is deterministically rolled forward by
    /// [`Session::crash_recover`], never left half-patched.
    journal: EditJournal<usize>,
    /// The most recent phase-boundary snapshot (checkpointing only).
    latest_snapshot: Option<Snapshot>,
    /// The config fingerprint every phase-boundary snapshot carries,
    /// computed once when checkpointing is turned on (config and mode
    /// never change within a session); `None` when boundaries capture
    /// nothing.
    checkpoints: Option<u64>,
    /// How to reconstruct the DFSM from `installed` on resume:
    /// 0 = none, 1 = full build, 2 = accuracy-rebuild over survivors.
    dfsm_rebuild: u8,
    /// The online table-driven prefetch backend, when
    /// `OptimizerConfig::backend` selects one other than the default
    /// grammar → DFSM path. `None` for `BackendSelect::DynPref`, so the
    /// paper's pipeline runs exactly as before — the alternative
    /// backends replace profiling, analysis, and prefix matching with
    /// per-access table lookups (DESIGN.md §14).
    online: Option<AnyBackend>,
}

/// An incremental (streaming) optimizer session: feed execution events
/// one at a time with [`Session::on_event`], read progress with the
/// accessors, and produce the final [`RunReport`] with
/// [`Session::finish`].
///
/// [`crate::SessionBuilder::run`] is a thin driver over this type;
/// embedders that produce events from a live system (rather than a
/// [`ProgramSource`](hds_vulcan::ProgramSource)) use `Session` directly.
///
/// # Observability
///
/// The session is generic over an [`Observer`] (default:
/// [`NullObserver`]). Every phase boundary, stream detection, DFSM
/// build, prefetch issue/outcome, and de-optimization is reported to
/// the observer. Emission sites are gated on `O::ENABLED`, a
/// monomorphization-time constant, so the default `NullObserver`
/// session compiles to exactly the uninstrumented code — zero overhead
/// when off (the `observer_overhead` benchmark in `crates/bench`
/// verifies this).
///
/// # Examples
///
/// ```
/// use hds_core::{OptimizerConfig, PrefetchPolicy, SessionBuilder};
/// use hds_trace::{AccessKind, Addr, DataRef, Pc};
/// use hds_vulcan::{Event, ProcId, Procedure};
///
/// let mut session = SessionBuilder::new(OptimizerConfig::test_scale())
///     .procedures(vec![Procedure::new("main", vec![Pc(16)])])
///     .optimize(PrefetchPolicy::StreamTail)
///     .build();
/// session.on_event(Event::Enter(ProcId(0)));
/// session.on_event(Event::Access(
///     DataRef::new(Pc(16), Addr(0x100)),
///     AccessKind::Load,
/// ));
/// session.on_event(Event::Exit(ProcId(0)));
/// let report = session.finish("embedded");
/// assert_eq!(report.refs, 1);
/// ```
///
/// With an observer (borrow it to keep it afterwards):
///
/// ```
/// use hds_core::{OptimizerConfig, PrefetchPolicy, SessionBuilder};
/// use hds_telemetry::MetricsRecorder;
///
/// let mut rec = MetricsRecorder::new();
/// let session = SessionBuilder::new(OptimizerConfig::test_scale())
///     .observer(&mut rec)
///     .optimize(PrefetchPolicy::StreamTail)
///     .build();
/// let _report = session.finish("observed");
/// assert_eq!(rec.cycles_completed(), 0);
/// ```
#[derive(Debug)]
pub struct Session<O: Observer = NullObserver, F: FaultInjector = NoFaults> {
    config: OptimizerConfig,
    mode: RunMode,
    st: RunState,
    obs: O,
    faults: F,
}

impl<O: Observer, F: FaultInjector> Session<O, F> {
    /// The one real constructor; [`crate::SessionBuilder`] (the sole
    /// public entry point) funnels here.
    pub(crate) fn construct(
        config: OptimizerConfig,
        mode: RunMode,
        procedures: Vec<Procedure>,
        obs: O,
        faults: F,
    ) -> Self {
        let mut guard = config
            .guard
            .is_enabled()
            .then(|| GuardRuntime::new(config.guard.clone()));
        // An online backend replaces the grammar → DFSM pipeline for
        // optimizing sessions; `None` (the default Dyn-pref selection)
        // leaves every existing path untouched.
        let online = if mode.optimizes().is_some() {
            AnyBackend::from_select(&config.backend, config.hierarchy.l1.block_size)
        } else {
            None
        };
        // Online backends register their table rows as guard "streams"
        // once, up front: accuracy windows then judge rows exactly like
        // DFSM stream ids, and `drop_tag` mirrors partial deopt.
        if let (Some(g), Some(b)) = (guard.as_mut(), online.as_ref()) {
            if g.tracks_accuracy() {
                g.begin_install(b.tag_registrations());
            }
        }
        // The worker thread only exists in background mode — inline
        // sessions (the default) spawn nothing, so the zero-overhead
        // claims of the observer/fault generics are untouched. Online
        // backends never analyze, so they spawn no worker either.
        let bg = (config.concurrency == AnalysisConcurrency::Background
            && mode.analyzes()
            && online.is_none())
        .then(|| BackgroundAnalysis::spawn(config.clone(), mode.optimizes().is_some()));
        let st = RunState {
            cycles: 0,
            breakdown: CostBreakdown::default(),
            mem: MemorySystem::new(config.hierarchy.clone()),
            tracer: BurstyTracer::new(config.bursty),
            buffer: TraceBuffer::new(),
            symbols: SymbolTable::new(),
            sequitur: Sequitur::new(),
            image: Image::new(procedures),
            dfsm: None,
            dfsm_state: StateId::START,
            frames: vec![FrameTracker::new()],
            active_thread: 0,
            refs: 0,
            checks: 0,
            cycle_stats: Vec::new(),
            pf_queue: std::collections::VecDeque::new(),
            guard,
            installed: Vec::new(),
            partial_deopts: 0,
            bg,
            crashed: false,
            malformed: None,
            events_consumed: 0,
            snapshots: 0,
            restarts: 0,
            journal: EditJournal::new(),
            latest_snapshot: None,
            checkpoints: None,
            dfsm_rebuild: 0,
            online,
        };
        let mut session = Session {
            config,
            mode,
            st,
            obs,
            faults,
        };
        // The first profiling cycle starts with the program (the tracer
        // begins awake); baseline modes never cycle.
        if O::ENABLED && session.mode.records() {
            session.obs.on(&tev::Event::CycleStart(tev::CycleStart {
                opt_cycle: 0,
                at_cycle: 0,
            }));
            session.obs.on(&tev::Event::Span(tev::SpanEvent::begin(
                tev::SpanKind::Profile,
                0,
            )));
        }
        session
    }

    /// The attached observer.
    #[must_use]
    pub fn observer(&self) -> &O {
        &self.obs
    }

    /// The attached observer, mutably.
    pub fn observer_mut(&mut self) -> &mut O {
        &mut self.obs
    }

    /// The attached fault injector, mutably (e.g. to read an
    /// `hds_guard::FaultPlan`'s counts mid-run).
    pub fn fault_injector_mut(&mut self) -> &mut F {
        &mut self.faults
    }

    /// The guard runtime, when any guard is configured.
    #[must_use]
    pub fn guard(&self) -> Option<&GuardRuntime> {
        self.st.guard.as_ref()
    }

    /// Turns on crash-consistent checkpointing: every phase boundary
    /// captures a versioned, checksummed [`Snapshot`] of the full
    /// optimizer state, retrievable with [`Session::latest_snapshot`].
    pub fn enable_checkpoints(&mut self) {
        self.st.checkpoints = Some(config_fingerprint(&self.config, self.mode));
    }

    /// Whether an injected crash has killed this session. A crashed
    /// session consumes no further events; restart it from
    /// [`Session::latest_snapshot`] via [`Session::resume_from`].
    #[must_use]
    pub fn crashed(&self) -> bool {
        self.st.crashed
    }

    /// The event that showed the stream malformed, if one did. Such a
    /// session consumes no further events (see [`Session::on_event`]).
    #[must_use]
    pub fn malformed(&self) -> Option<&MalformedEvent> {
        self.st.malformed.as_ref()
    }

    /// Workload events fully accepted so far — the resume cursor.
    #[must_use]
    pub fn events_consumed(&self) -> u64 {
        self.st.events_consumed
    }

    /// Phase-boundary snapshots captured so far.
    #[must_use]
    pub fn snapshots_taken(&self) -> u64 {
        self.st.snapshots
    }

    /// The most recent phase-boundary snapshot, when checkpointing is
    /// on and at least one boundary has passed.
    #[must_use]
    pub fn latest_snapshot(&self) -> Option<&Snapshot> {
        self.st.latest_snapshot.as_ref()
    }

    /// Moves the most recent phase-boundary snapshot out of the session
    /// without cloning — the hibernation hook for `hds-serve`'s LRU
    /// eviction, which snapshots a cold tenant, drops the live session,
    /// and later rehydrates it via [`Session::resume_from`] (or a fresh
    /// build plus replay when no boundary had passed yet).
    #[must_use]
    pub fn take_latest_snapshot(&mut self) -> Option<Snapshot> {
        let mut snap = self.st.latest_snapshot.take()?;
        // Its allocation is no longer recycled by the next capture.
        snap.shrink_to_fit();
        Some(snap)
    }

    /// A deterministic digest of the edited program image — the
    /// bit-identity witness the chaos-crash suite compares between
    /// recovered and uninterrupted runs.
    #[must_use]
    pub fn image_digest(&self) -> u64 {
        self.st.image.digest_with(|len| *len as u64)
    }

    /// Inspects the write-ahead edit journal and rolls a torn commit
    /// forward, leaving the image exactly as if the commit had
    /// completed. Idempotent; returns whether anything was replayed.
    /// Emits a `RecoveryReplay` telemetry event either way.
    pub fn crash_recover(&mut self) -> bool {
        let rolled = self.st.journal.recover(&mut self.st.image);
        if O::ENABLED {
            self.obs
                .on(&tev::Event::RecoveryReplay(tev::RecoveryReplay {
                    events_consumed: self.st.events_consumed,
                    rolled_forward: rolled,
                }));
        }
        rolled
    }

    /// Stamps the supervisor's restart count onto the session (so the
    /// final [`RunReport::restarts`] reconciles) and emits the matching
    /// `RecoveryRestart` telemetry event, stamped with this session's
    /// resume cursor. Restart counts belong to the supervisor's
    /// lifetime, not the crashed segment's, so they are never
    /// serialized; `backoff_cycles` is the modeled backoff the
    /// supervisor charged before this attempt.
    pub fn mark_restarted(&mut self, attempt: u32, backoff_cycles: u64) {
        self.st.restarts = u64::from(attempt);
        if O::ENABLED {
            self.obs
                .on(&tev::Event::RecoveryRestart(tev::RecoveryRestart {
                    attempt,
                    resumed_at_event: self.st.events_consumed,
                    backoff_cycles,
                }));
        }
    }

    /// A liveness probe for the background analysis worker thread
    /// (`None` when analysis runs inline). The probe's `upgrade()`
    /// fails once the worker has fully exited — the
    /// no-detached-threads regression tests key on this.
    #[must_use]
    pub fn worker_probe(&self) -> Option<std::sync::Weak<()>> {
        self.st.bg.as_ref().map(BackgroundAnalysis::worker_probe)
    }

    /// Reconstructs a session from a phase-boundary [`Snapshot`],
    /// continuing bit-identically to the run that captured it: feed it
    /// the same workload with the snapshot's
    /// [`events_consumed`](Session::events_consumed) leading events
    /// skipped, and the final report and image digest match the
    /// uninterrupted run exactly.
    ///
    /// `config`, `mode`, and `procedures` must be the ones the
    /// capturing session ran under (checked via a config fingerprint).
    /// The DFSM, grammar, and trace buffer are rebuilt, not decoded:
    /// their construction is deterministic in the serialized state.
    /// Checkpointing stays enabled on the resumed session.
    ///
    /// # Errors
    ///
    /// Any [`SnapshotError`]: a corrupted blob (`ChecksumMismatch`), a
    /// foreign format (`BadMagic`/`UnsupportedVersion`/`Malformed`), or
    /// a snapshot from a different configuration (`ConfigMismatch`).
    pub fn resume_from(
        config: OptimizerConfig,
        mode: RunMode,
        procedures: Vec<Procedure>,
        snapshot: &Snapshot,
        obs: O,
        mut faults: F,
    ) -> Result<Self, SnapshotError> {
        let expected = config_fingerprint(&config, mode);
        let state = SessionState::from_snapshot(snapshot, expected)?;
        // `on_event` indexes `frames` by `active_thread`.
        let threads = state.frames.len();
        if threads > MAX_THREADS as usize {
            return Err(SnapshotError::Malformed(format!(
                "frames: {threads} threads, more than the bound of {MAX_THREADS}"
            )));
        }
        if state.active_thread >= threads {
            return Err(SnapshotError::Malformed(format!(
                "active_thread: thread {}, the snapshot has {threads}",
                state.active_thread
            )));
        }
        let mut mem = MemorySystem::new(config.hierarchy.clone());
        mem.restore_state(&state.mem)
            .map_err(|e| SnapshotError::Malformed(format!("mem.{e}")))?;
        let mut tracer = BurstyTracer::new(config.bursty);
        tracer.restore_state(&state.tracer);
        let mut image = Image::new(procedures);
        image.restore_state(state.image);
        let dfsm = match state.dfsm_rebuild {
            0 => None,
            1 => Some(machine_for(&state.installed, &config).map_err(|_| {
                SnapshotError::Malformed("installed streams no longer build a dfsm".into())
            })?),
            2 => Some(build_dfsm(&state.installed, &config.dfsm).map_err(|_| {
                SnapshotError::Malformed("installed streams no longer build a dfsm".into())
            })?),
            d => {
                return Err(SnapshotError::Malformed(format!(
                    "dfsm_rebuild: bad discriminant {d}"
                )))
            }
        };
        // The matcher steps from `dfsm_state` on its next reference.
        if let Some(states) = dfsm.as_ref().map(Dfsm::state_count) {
            if state.dfsm_state as usize >= states {
                return Err(SnapshotError::Malformed(format!(
                    "dfsm_state: state {}, the machine has {states}",
                    state.dfsm_state
                )));
            }
        }
        let frames = state
            .frames
            .into_iter()
            .map(|(stack, max_depth)| {
                let stack = stack
                    .into_iter()
                    .map(|(p, e)| (hds_vulcan::ProcId(p), e))
                    .collect();
                FrameTracker::from_parts(stack, max_depth)
            })
            .collect();
        let guard = state.guard.as_ref().map(|gs| {
            let mut g = GuardRuntime::new(config.guard.clone());
            g.restore_state(gs);
            g
        });
        // Background mode: spawn a fresh worker and re-submit the
        // in-flight request, if any — `analyze_trace` is pure, so the
        // recomputed outcome is identical to the one the crash lost.
        let bg = state.bg.map(|bs| {
            let mut bg = BackgroundAnalysis::spawn(config.clone(), mode.optimizes().is_some());
            bg.handoffs = bs.handoffs;
            bg.applied = bs.applied;
            bg.starved = bs.starved;
            if let Some(p) = bs.pending {
                let request = AnalyzeRequest {
                    refs: p.refs,
                    denylist: p.denylist,
                };
                if bg.submit(request.clone()) {
                    bg.pending = Some(PendingAnalysis {
                        handoff_at: p.handoff_at,
                        ready_at: p.ready_at,
                        request,
                    });
                }
            }
            bg
        });
        faults.restore_state(state.fault_state);
        // Online backend: rebuild the same backend the config selects
        // and restore its table image word-for-word. A snapshot captured
        // under a different backend (or none) is rejected — resuming it
        // would silently diverge.
        let online = if mode.optimizes().is_some() {
            AnyBackend::from_select(&config.backend, config.hierarchy.l1.block_size)
        } else {
            None
        };
        let online = match (online, state.online) {
            (None, None) => None,
            (Some(mut b), Some((kind, words))) => {
                if b.kind().wire_code() != kind {
                    return Err(SnapshotError::Malformed(format!(
                        "online backend kind {kind} does not match session backend {}",
                        b.kind().wire_code()
                    )));
                }
                b.restore_words(&words)
                    .map_err(|e| SnapshotError::Malformed(format!("online backend state: {e}")))?;
                Some(b)
            }
            (Some(_), None) => {
                return Err(SnapshotError::Malformed(
                    "snapshot has no online backend state for an online session".into(),
                ))
            }
            (None, Some(_)) => {
                return Err(SnapshotError::Malformed(
                    "snapshot carries online backend state for a dfsm session".into(),
                ))
            }
        };
        let st = RunState {
            cycles: state.cycles,
            breakdown: state.breakdown,
            mem,
            tracer,
            buffer: TraceBuffer::new(),
            symbols: SymbolTable::new(),
            sequitur: Sequitur::new(),
            image,
            dfsm,
            dfsm_state: StateId(state.dfsm_state),
            frames,
            active_thread: state.active_thread,
            refs: state.refs,
            checks: state.checks,
            cycle_stats: state.cycle_stats,
            pf_queue: state
                .pf_queue
                .iter()
                .map(|&(a, t)| (hds_trace::Addr(a), t))
                .collect(),
            guard,
            installed: state.installed,
            partial_deopts: state.partial_deopts,
            bg,
            crashed: false,
            malformed: None,
            events_consumed: state.events_consumed,
            snapshots: state.snapshots,
            restarts: 0,
            journal: EditJournal::new(),
            latest_snapshot: Some(snapshot.clone()),
            checkpoints: Some(expected),
            dfsm_rebuild: state.dfsm_rebuild,
            online,
        };
        let mut session = Session {
            config,
            mode,
            st,
            obs,
            faults,
        };
        // Re-open the restored phase's span so a recorder that outlives
        // the crashed attempt (the supervisor's observer) never sees an
        // end boundary without a matching begin.
        if O::ENABLED && session.mode.records() {
            let kind = match session.st.tracer.phase() {
                Phase::Awake => tev::SpanKind::Profile,
                Phase::Hibernating => tev::SpanKind::Hibernate,
            };
            let opt_cycle = session.st.cycle_stats.len() as u64;
            session.obs.on(&tev::Event::Span(
                tev::SpanEvent::begin(kind, session.st.cycles).with_args(opt_cycle, 0),
            ));
            // Ditto for a re-submitted in-flight background analysis:
            // its eventual resolution emits an end boundary.
            if let Some(p) = session.st.bg.as_ref().and_then(|bg| bg.pending.as_ref()) {
                let trace_len = p.request.refs.len() as u64;
                session.obs.on(&tev::Event::Span(
                    tev::SpanEvent::begin(tev::SpanKind::BgAnalysis, p.handoff_at)
                        .with_args(opt_cycle, trace_len),
                ));
            }
        }
        Ok(session)
    }

    /// Processes one execution event, charging its simulated cost and
    /// driving the profile -> analyze -> optimize -> hibernate machinery.
    ///
    /// A crashed session (see [`Session::crashed`]) ignores further
    /// events: the process is dead, and recovery goes through the
    /// supervisor and [`Session::resume_from`].
    ///
    /// A malformed stream stops the session the same way: an `Exit`
    /// that does not match the thread's innermost activation, or a
    /// `Thread` id at or above [`MAX_THREADS`], is refused, and
    /// [`Session::malformed`] names it. The session then ignores every
    /// further event; [`Session::finish`] reports the events before it.
    pub fn on_event(&mut self, event: Event) {
        if self.st.crashed || self.st.malformed.is_some() {
            return;
        }
        self.st.events_consumed += 1;
        let cost = self.config.hierarchy.cost;
        let st = &mut self.st;
        match event {
            Event::Work(n) => {
                let c = u64::from(n) * cost.work_cycles;
                st.cycles += c;
                st.breakdown.work += c;
            }
            Event::Enter(p) => {
                st.frames[st.active_thread].enter(p, st.image.epoch());
                do_check(&self.config, self.mode, st, &mut self.obs, &mut self.faults);
            }
            Event::Exit(p) => {
                if let Err(mismatch) = st.frames[st.active_thread].exit(p) {
                    refuse(st, event, EventProblem::UnmatchedExit(mismatch));
                }
            }
            Event::BackEdge(_) => {
                do_check(&self.config, self.mode, st, &mut self.obs, &mut self.faults);
            }
            Event::Access(r, kind) => {
                do_access(
                    &self.config,
                    self.mode,
                    st,
                    &mut self.obs,
                    &mut self.faults,
                    r,
                    kind,
                );
            }
            Event::Prefetch(addr) => {
                // A prefetch instruction belonging to the program
                // itself (software prefetching baselines); charged in
                // every mode, including the baseline.
                issue_prefetch(&self.config, st, &mut self.obs, addr, tev::PROGRAM_STREAM);
                drain_outcomes(st, &mut self.obs);
            }
            Event::Thread(t) => {
                // Context switch: call stacks are per-thread; the
                // matcher state and profiling counters stay global
                // (the injected code uses process-global variables,
                // exactly as in Figure 7).
                if t >= MAX_THREADS {
                    refuse(st, event, EventProblem::ThreadOutOfRange);
                    return;
                }
                let t = t as usize;
                while st.frames.len() <= t {
                    st.frames.push(FrameTracker::new());
                }
                st.active_thread = t;
            }
        }
    }

    /// Simulated cycles charged so far.
    #[must_use]
    pub fn simulated_cycles(&self) -> u64 {
        self.st.cycles
    }

    /// Data references processed so far.
    #[must_use]
    pub fn refs_so_far(&self) -> u64 {
        self.st.refs
    }

    /// Optimization cycles completed so far.
    #[must_use]
    pub fn opt_cycles_so_far(&self) -> usize {
        self.st.cycle_stats.len()
    }

    /// Current cache/prefetch statistics.
    #[must_use]
    pub fn mem_stats(&self) -> &hds_memsim::MemStats {
        self.st.mem.stats()
    }

    /// Ends the session and produces the report, labelled with the
    /// program's `name`.
    #[must_use]
    pub fn finish(mut self, name: &str) -> RunReport {
        // A background analysis still in flight at program end can no
        // longer be installed: resolve it as starved so the handoff is
        // accounted for, then let the worker shut down (dropping the
        // run state closes the request channel and joins the thread).
        starve_background(&mut self.st, &mut self.obs);
        // Deliver any outcomes resolved since the last access (e.g.
        // pollution from the final fills).
        drain_outcomes(&mut self.st, &mut self.obs);
        // Close the phase span left open at program end. A crashed
        // session closes nothing: its dangling spans are exactly what a
        // flight dump uses to name the phase that died.
        if O::ENABLED && self.mode.records() && !self.st.crashed {
            let kind = match self.st.tracer.phase() {
                Phase::Awake => tev::SpanKind::Profile,
                Phase::Hibernating => tev::SpanKind::Hibernate,
            };
            let opt_cycle = self.st.cycle_stats.len() as u64;
            self.obs.on(&tev::Event::Span(
                tev::SpanEvent::end(kind, self.st.cycles).with_args(opt_cycle, 0),
            ));
        }
        let mode_label = match (self.mode, self.st.online.as_ref()) {
            // An online backend's report is labeled with its backend,
            // not the prefetch policy: the policy's tail-vs-sequential
            // distinction belongs to the DFSM path.
            (RunMode::Optimize(_), Some(b)) => b.kind().label().to_string(),
            (RunMode::Baseline, _) => "Baseline".to_string(),
            (RunMode::ChecksOnly, _) => "Base".to_string(),
            (RunMode::Profile, _) => "Prof".to_string(),
            (RunMode::Analyze, _) => "Hds".to_string(),
            (RunMode::Optimize(p), _) => p.label().to_string(),
        };
        let st = self.st;
        let worker = st
            .bg
            .as_ref()
            .map_or_else(WorkerStats::default, |bg| WorkerStats {
                handoffs: bg.handoffs,
                applied: bg.applied,
                starved: bg.starved,
            });
        RunReport {
            name: name.to_string(),
            mode: mode_label,
            total_cycles: st.cycles,
            breakdown: st.breakdown,
            mem: *st.mem.stats(),
            refs: st.refs,
            checks_executed: st.checks,
            guard_trips: st.guard.as_ref().map_or(0, GuardRuntime::trips_total),
            partial_deopts: st.partial_deopts,
            worker,
            snapshots: st.snapshots,
            restarts: st.restarts,
            cycles: st.cycle_stats,
        }
    }
}

/// Reports a guard trip to the observer — only the first trip of each
/// guard per cycle, so emitted events reconcile exactly with
/// [`GuardRuntime::trips_total`].
fn report_trip<O: Observer>(st: &RunState, obs: &mut O, trip: Trip) {
    if O::ENABLED && trip.first_in_cycle {
        obs.on(&tev::Event::GuardTripped(tev::GuardTripped {
            guard: trip.guard,
            budget: trip.budget,
            observed: trip.observed,
            opt_cycle: st.cycle_stats.len() as u64,
            at_cycle: st.cycles,
        }));
    }
}

/// Issues one prefetch, charging its cost. With an enabled observer the
/// prefetch is tagged in the memory system (so its outcome is
/// attributed back to `stream`) and reported; otherwise this is exactly
/// the untagged path.
fn issue_prefetch<O: Observer>(
    config: &OptimizerConfig,
    st: &mut RunState,
    obs: &mut O,
    addr: hds_trace::Addr,
    stream: u32,
) {
    let cost = config.hierarchy.cost;
    st.cycles += cost.prefetch_issue_cycles;
    st.breakdown.prefetch += cost.prefetch_issue_cycles;
    // The accuracy policy needs per-stream attribution even without an
    // observer attached; tagging is timing-neutral (see the
    // `observation_does_not_perturb_the_run` test).
    let track = O::ENABLED || st.guard.as_ref().is_some_and(GuardRuntime::tracks_accuracy);
    if track {
        st.mem.prefetch_tagged_at(addr, st.cycles, stream);
    } else {
        st.mem.prefetch_at(addr, st.cycles);
    }
    if O::ENABLED {
        obs.on(&tev::Event::PrefetchIssued(tev::PrefetchIssued {
            stream_id: stream,
            addr: addr.0,
            block: addr.block(config.hierarchy.l1.block_size),
            at_cycle: st.cycles,
            at_ref: st.refs,
        }));
    }
}

/// Forwards resolved prefetch outcomes from the memory system's
/// attribution queue to the observer and the accuracy tracker. No-op
/// (and no queue ever fills) without an enabled observer or an accuracy
/// policy.
fn drain_outcomes<O: Observer>(st: &mut RunState, obs: &mut O) {
    let track_guard = st.guard.as_ref().is_some_and(GuardRuntime::tracks_accuracy);
    if !O::ENABLED && !track_guard {
        return;
    }
    for o in st.mem.take_outcomes() {
        let fate = match o.fate {
            hds_memsim::PrefetchFate::Useful => tev::PrefetchFate::Useful,
            hds_memsim::PrefetchFate::Late => tev::PrefetchFate::Late,
            hds_memsim::PrefetchFate::Polluted => tev::PrefetchFate::Polluted,
        };
        if track_guard {
            if let Some(g) = &mut st.guard {
                g.record_outcome(o.tag, fate);
            }
        }
        if O::ENABLED {
            obs.on(&tev::Event::PrefetchOutcome(tev::PrefetchOutcome {
                stream_id: o.tag,
                block: o.block,
                fate,
                issued_at_cycle: o.issued_at,
                resolved_at_cycle: o.resolved_at,
                resolved_at_ref: st.refs,
            }));
        }
    }
}

/// One dynamic check site (procedure entry or loop back-edge).
fn do_check<O: Observer, F: FaultInjector>(
    config: &OptimizerConfig,
    mode: RunMode,
    st: &mut RunState,
    obs: &mut O,
    faults: &mut F,
) {
    {
        let cost = config.hierarchy.cost;
        match mode {
            RunMode::Baseline => {} // original binary: no checks exist
            RunMode::ChecksOnly => {
                // Figure 11's Base configuration: the checking code runs
                // forever (nCheck "extremely large"), so only the basic
                // check cost is paid.
                st.checks += 1;
                st.cycles += cost.check_cycles;
                st.breakdown.checks += cost.check_cycles;
            }
            _ => {
                st.checks += 1;
                let signal = st.tracer.on_check();
                let c = if st.tracer.mode() == Mode::Instrumented {
                    cost.instr_check_cycles
                } else {
                    cost.check_cycles
                };
                st.cycles += c;
                st.breakdown.checks += c;
                // Background mode: a ready analysis result installs at
                // the first check at or past its simulated ready point
                // — resolved before the signal, so an installation "at"
                // the wake-up check precedes de-optimization.
                poll_background(config, mode, st, obs, faults);
                if st.crashed {
                    // A mid-edit crash during the background install:
                    // the session is dead; the signal dies with it.
                    return;
                }
                match signal {
                    Some(Signal::BurstBegin) if st.tracer.phase() == Phase::Awake => {
                        st.buffer.begin_burst();
                    }
                    Some(Signal::BurstEnd) if st.buffer.in_burst() => {
                        st.buffer.end_burst_discard_empty();
                        // One recorded burst folded into the grammar
                        // (inline analysis only): a = references absorbed
                        // so far this phase, b = grammar rules.
                        if O::ENABLED && mode.analyzes() && st.bg.is_none() {
                            obs.on(&tev::Event::Span(
                                tev::SpanEvent::instant(tev::SpanKind::SequiturAppend, st.cycles)
                                    .with_args(
                                        st.sequitur.input_len(),
                                        st.sequitur.rule_count() as u64,
                                    ),
                            ));
                        }
                    }
                    Some(Signal::BurstBegin) => {}
                    Some(Signal::BurstEnd) if st.tracer.phase() == Phase::Hibernating => {
                        // Hibernation-period burst boundaries: nothing is
                        // recorded, but the prefetching code is live.
                        // These are the accuracy policy's evaluation
                        // windows — frequent enough to react within one
                        // hibernation span, coarse enough to accumulate
                        // outcome samples.
                        evaluate_accuracy(config, st, obs, faults);
                    }
                    Some(Signal::BurstEnd) => {}
                    Some(Signal::AwakeComplete) => {
                        if st.buffer.in_burst() {
                            st.buffer.end_burst_discard_empty();
                        }
                        if O::ENABLED {
                            obs.on(&tev::Event::Span(
                                tev::SpanEvent::end(tev::SpanKind::Profile, st.cycles)
                                    .with_args(st.cycle_stats.len() as u64, 0),
                            ));
                        }
                        finish_awake(config, mode, st, obs, faults);
                        if st.crashed {
                            // Killed mid-edit or mid-handoff inside the
                            // analysis/install: the boundary was never
                            // reached, so no snapshot is captured.
                            return;
                        }
                        st.tracer.hibernate();
                        if O::ENABLED {
                            obs.on(&tev::Event::PhaseTransition(phase_event(
                                st,
                                tev::PhaseKind::Hibernating,
                            )));
                            obs.on(&tev::Event::Span(
                                tev::SpanEvent::begin(tev::SpanKind::Hibernate, st.cycles)
                                    .with_args(st.cycle_stats.len() as u64, 0),
                            ));
                        }
                        checkpoint(st, obs, faults);
                    }
                    Some(Signal::HibernationComplete) => {
                        if config.strategy == CycleStrategy::Static && st.dfsm.is_some() {
                            // Static operation: the code stays optimized
                            // and profiling never resumes — just start
                            // another hibernation span.
                            st.tracer.hibernate();
                            if O::ENABLED {
                                obs.on(&tev::Event::PhaseTransition(phase_event(
                                    st,
                                    tev::PhaseKind::Hibernating,
                                )));
                                obs.on(&tev::Event::Span(
                                    tev::SpanEvent::end(tev::SpanKind::Hibernate, st.cycles)
                                        .with_args(st.cycle_stats.len() as u64, 0),
                                ));
                                obs.on(&tev::Event::Span(
                                    tev::SpanEvent::begin(tev::SpanKind::Hibernate, st.cycles)
                                        .with_args(st.cycle_stats.len() as u64, 0),
                                ));
                            }
                            checkpoint(st, obs, faults);
                        } else {
                            if O::ENABLED {
                                obs.on(&tev::Event::Span(
                                    tev::SpanEvent::end(tev::SpanKind::Hibernate, st.cycles)
                                        .with_args(st.cycle_stats.len() as u64, 0),
                                ));
                            }
                            // A background analysis that missed the
                            // whole hibernation span can no longer be
                            // installed: resolve it as starved before
                            // profiling resumes.
                            starve_background(st, obs);
                            // De-optimize: remove the injected checks and
                            // prefetches, return to profiling (§1,
                            // Figure 1).
                            let had_code = st.dfsm.is_some();
                            st.image.deoptimize();
                            st.dfsm = None;
                            st.dfsm_rebuild = 0;
                            st.dfsm_state = StateId::START;
                            st.pf_queue.clear();
                            st.installed.clear();
                            if let Some(g) = &mut st.guard {
                                // New profiling cycle: fresh trip
                                // latches. DFSM sessions have no
                                // installation to track until the next
                                // install; an online backend's table
                                // persists across cycles (it is
                                // hardware-like state, never
                                // de-optimized), so its surviving rows
                                // stay registered.
                                g.begin_cycle();
                                match st.online.as_ref() {
                                    Some(b) if g.tracks_accuracy() => {
                                        g.begin_install(b.tag_registrations());
                                    }
                                    _ => g.begin_install(std::iter::empty::<(u32, u64)>()),
                                }
                            }
                            st.tracer.wake();
                            if O::ENABLED {
                                if had_code {
                                    obs.on(&tev::Event::Deoptimize(tev::Deoptimize {
                                        at_cycle: st.cycles,
                                        opt_cycle: st.cycle_stats.len() as u64,
                                        partial: false,
                                        stream_id: None,
                                    }));
                                }
                                obs.on(&tev::Event::PhaseTransition(phase_event(
                                    st,
                                    tev::PhaseKind::Awake,
                                )));
                                obs.on(&tev::Event::CycleStart(tev::CycleStart {
                                    opt_cycle: st.cycle_stats.len() as u64,
                                    at_cycle: st.cycles,
                                }));
                                obs.on(&tev::Event::Span(
                                    tev::SpanEvent::begin(tev::SpanKind::Profile, st.cycles)
                                        .with_args(st.cycle_stats.len() as u64, 0),
                                ));
                            }
                            checkpoint(st, obs, faults);
                        }
                    }
                    None => {}
                }
            }
        }
    }
}

/// A [`tev::PhaseTransition`] snapshot of the current run state.
fn phase_event(st: &RunState, to: tev::PhaseKind) -> tev::PhaseTransition {
    tev::PhaseTransition {
        at_cycle: st.cycles,
        at_check: st.checks,
        to,
        opt_cycle: st.cycle_stats.len() as u64,
        duty_cycle: st.tracer.duty_cycle(),
    }
}

/// A phase boundary: capture a snapshot (when checkpointing is on),
/// then draw the phase-boundary kill point. Capture strictly precedes
/// the draw, so a crash *at* a boundary still leaves that boundary's
/// snapshot behind — each boundary is captured exactly once per
/// supervised run, which is what makes `RecoverySnapshot` telemetry
/// reconcile with [`RunReport::snapshots`](crate::RunReport).
fn checkpoint<O: Observer, F: FaultInjector>(st: &mut RunState, obs: &mut O, faults: &mut F) {
    if let Some(fingerprint) = st.checkpoints {
        // Boundaries sit between profiles: the trace buffer and grammar
        // are always empty here, which is why they need no encoding.
        debug_assert!(!st.buffer.in_burst());
        debug_assert_eq!(st.sequitur.input_len(), 0);
        // Count the capture first so the serialized counter includes
        // the snapshot in flight: a resumed session reports every
        // capture that ever happened on its timeline.
        st.snapshots += 1;
        // The retired snapshot's allocation takes the new one.
        let buf = st
            .latest_snapshot
            .take()
            .map_or_else(Vec::new, Snapshot::into_bytes);
        let snap = capture_state(st, faults).write_snapshot(fingerprint, buf);
        if O::ENABLED {
            obs.on(&tev::Event::RecoverySnapshot(tev::RecoverySnapshot {
                opt_cycle: st.cycle_stats.len() as u64,
                at_cycle: st.cycles,
                events_consumed: st.events_consumed,
                bytes: snap.len() as u64,
            }));
        }
        st.latest_snapshot = Some(snap);
    }
    // The kill point is drawn whether or not checkpointing is on, so
    // crash schedules land identically for supervised and bare runs.
    if F::ENABLED && faults.crash(CrashPoint::PhaseBoundary) {
        st.crashed = true;
        if O::ENABLED {
            obs.on(&tev::Event::Span(
                tev::SpanEvent::instant(tev::SpanKind::Crash, st.cycles)
                    .with_args(CRASH_PHASE_BOUNDARY, st.cycle_stats.len() as u64),
            ));
        }
    }
}

/// `a`-payload of a [`tev::SpanKind::Crash`] instant: which
/// [`CrashPoint`] killed the session.
pub(crate) const CRASH_PHASE_BOUNDARY: u64 = 0;
/// See [`CRASH_PHASE_BOUNDARY`].
pub(crate) const CRASH_MID_EDIT: u64 = 1;
/// See [`CRASH_PHASE_BOUNDARY`].
pub(crate) const CRASH_MID_HANDOFF: u64 = 2;

/// The full mutable run state as a capture writes it, the memory
/// hierarchy borrowed in place. The fault-injector's in-simulation
/// stream rides along so a resumed session re-draws exactly the faults
/// the original would have.
fn capture_state<'a, F: FaultInjector>(st: &'a RunState, faults: &F) -> SessionState<MemView<'a>> {
    SessionState {
        cycles: st.cycles,
        breakdown: st.breakdown,
        mem: st.mem.view_state(),
        tracer: st.tracer.export_state(),
        image: st.image.export_state(),
        dfsm_state: st.dfsm_state.0,
        dfsm_rebuild: st.dfsm_rebuild,
        frames: st
            .frames
            .iter()
            .map(|f| {
                let stack = f
                    .export_stack()
                    .into_iter()
                    .map(|(p, e)| (p.0, e))
                    .collect();
                (stack, f.max_depth())
            })
            .collect(),
        active_thread: st.active_thread,
        refs: st.refs,
        checks: st.checks,
        cycle_stats: st.cycle_stats.clone(),
        pf_queue: st.pf_queue.iter().map(|&(a, t)| (a.0, t)).collect(),
        guard: st.guard.as_ref().map(GuardRuntime::export_state),
        installed: st.installed.clone(),
        partial_deopts: st.partial_deopts,
        bg: st.bg.as_ref().map(|bg| BgState {
            handoffs: bg.handoffs,
            applied: bg.applied,
            starved: bg.starved,
            pending: bg.pending.as_ref().map(|p| PendingState {
                handoff_at: p.handoff_at,
                ready_at: p.ready_at,
                refs: p.request.refs.clone(),
                denylist: p.request.denylist.clone(),
            }),
        }),
        events_consumed: st.events_consumed,
        snapshots: st.snapshots,
        fault_state: faults.snapshot_state(),
        online: st
            .online
            .as_ref()
            .map(|b| (b.kind().wire_code(), b.export_words())),
    }
}

/// One data reference.
fn do_access<O: Observer, F: FaultInjector>(
    config: &OptimizerConfig,
    mode: RunMode,
    st: &mut RunState,
    obs: &mut O,
    faults: &mut F,
    r: DataRef,
    kind: hds_trace::AccessKind,
) {
    {
        let cost = config.hierarchy.cost;
        st.refs += 1;
        let res = st.mem.access_at(r.addr, kind, st.cycles);
        st.cycles += res.cycles;
        st.breakdown.memory += res.cycles;

        // Profiling: record the reference if a burst is live. Online
        // backends learn from the access stream directly and never
        // record a profile.
        if st.online.is_none()
            && mode.records()
            && st.tracer.should_record()
            && st.buffer.in_burst()
        {
            if F::ENABLED && faults.truncate_trace() {
                // Profiling-buffer overflow: the profile collected so
                // far this phase is lost; recording resumes at the next
                // burst.
                st.buffer.clear();
                st.symbols = SymbolTable::new();
                st.sequitur = Sequitur::new();
            } else {
                // A fault may corrupt the *traced* copy of the
                // reference (a torn read of the profiling buffer); the
                // executed access above is untouched.
                let traced = if F::ENABLED { faults.corrupt_ref(r) } else { r };
                st.cycles += cost.record_ref_cycles;
                st.breakdown.recording += cost.record_ref_cycles;
                st.buffer.record(traced);
                // Background mode records only: grammar maintenance
                // happens on the worker, so the critical path pays
                // nothing per reference for analysis — the headline
                // win of concurrent analysis.
                if mode.analyzes() && st.bg.is_none() {
                    // A tripped grammar guard mutes Sequitur for the
                    // rest of the phase: the grammar stops growing and
                    // stops charging analysis cycles.
                    let muted = st
                        .guard
                        .as_ref()
                        .is_some_and(|g| g.is_tripped(GuardKind::GrammarRules));
                    if !muted {
                        let s = st.symbols.intern(traced);
                        st.sequitur.append(s);
                        st.cycles += cost.analysis_per_ref_cycles;
                        st.breakdown.analysis += cost.analysis_per_ref_cycles;
                        let rules = st.sequitur.rule_count() as u64;
                        let trip = st
                            .guard
                            .as_mut()
                            .and_then(|g| g.observe(GuardKind::GrammarRules, rules));
                        if let Some(t) = trip {
                            report_trip(st, obs, t);
                        }
                    }
                }
            }
        }

        // Online table-driven backend (Pangloss / Triangel): a single
        // lookup-and-train step per access, replacing prefix matching.
        // Table operations are charged at the same per-check rate as an
        // injected DFSM site; issued prefetches ride the existing
        // tagged-issue path so guard accuracy windows and telemetry see
        // them exactly like Dyn-pref streams.
        if let Some(mut b) = st.online.take() {
            let policy = mode.optimizes().unwrap_or(PrefetchPolicy::None);
            let missed = !matches!(res.outcome, hds_memsim::AccessOutcome::L1Hit);
            let mut out = Vec::new();
            let ops = b.on_access(r, missed, &mut out);
            let c = cost.dfsm_check_cycles * ops;
            st.cycles += c;
            st.breakdown.matching += c;
            if policy != PrefetchPolicy::None {
                for (addr, tag) in out {
                    issue_prefetch(config, st, obs, addr, tag);
                }
            }
            st.online = Some(b);
            drain_outcomes(st, obs);
            return;
        }

        // Injected prefix-matching code (only in optimize modes, only at
        // instrumented pcs, only for activations entered after the patch).
        if let Some(policy) = mode.optimizes() {
            // Windowed scheduling: issue a few queued prefetches per
            // reference so fetches land closer to their uses.
            if let PrefetchScheduling::Windowed { degree } = config.scheduling {
                for _ in 0..degree {
                    let Some((addr, tag)) = st.pf_queue.pop_front() else {
                        break;
                    };
                    issue_prefetch(config, st, obs, addr, tag);
                }
            }
            let epoch = st.frames[st.active_thread].current_epoch().unwrap_or(0);
            if st.image.injected_at(r.pc, epoch).is_some() {
                // Flat per-site cost: the injected if-chains are "sorted
                // in such a way that more likely cases come first"
                // (§3.1), so the expected number of executed comparisons
                // is small regardless of chain length.
                let c = cost.dfsm_check_cycles;
                st.cycles += c;
                st.breakdown.matching += c;
                // Resolve the transition (and copy out the targets)
                // first, so the machine borrow ends before issuing.
                let step = st.dfsm.as_ref().map(|dfsm| {
                    dfsm.transition(st.dfsm_state, r).map(|next| {
                        let tag = dfsm
                            .completed_streams(next)
                            .first()
                            .map_or(tev::PROGRAM_STREAM, |s| s.0);
                        (next, dfsm.prefetches(next).to_vec(), tag)
                    })
                });
                if let Some(step) = step {
                    match step {
                        Some((next, targets, tag)) => {
                            st.dfsm_state = next;
                            if !targets.is_empty() {
                                let block = config.hierarchy.l1.block_size;
                                let addrs: Vec<hds_trace::Addr> = match policy {
                                    PrefetchPolicy::None => Vec::new(),
                                    PrefetchPolicy::StreamTail => targets,
                                    PrefetchPolicy::SequentialBlocks => {
                                        // Same trigger, but fetch the blocks
                                        // sequentially following the matched
                                        // reference (§4.3's Seq-pref).
                                        let n = targets.len().min(config.seq_pref_cap);
                                        let base = r.addr.block(block);
                                        (1..=n as u64)
                                            .map(|k| hds_trace::Addr((base + k) * block))
                                            .collect()
                                    }
                                };
                                match config.scheduling {
                                    PrefetchScheduling::AllAtOnce => {
                                        for addr in addrs {
                                            issue_prefetch(config, st, obs, addr, tag);
                                        }
                                    }
                                    PrefetchScheduling::Windowed { .. } => {
                                        st.pf_queue.extend(addrs.into_iter().map(|a| (a, tag)));
                                        let depth = st.pf_queue.len() as u64;
                                        let trip = st.guard.as_mut().and_then(|g| {
                                            g.observe(GuardKind::PrefetchQueue, depth)
                                        });
                                        if let Some(t) = trip {
                                            // Keep the oldest entries:
                                            // they are closest to their
                                            // use points.
                                            st.pf_queue.truncate(t.budget as usize);
                                            report_trip(st, obs, t);
                                        }
                                    }
                                }
                            }
                        }
                        None => st.dfsm_state = StateId::START,
                    }
                }
            }
        }
        drain_outcomes(st, obs);
    }
}

/// End of an awake phase: run the analysis, and in optimize modes
/// build the DFSM and edit the image. Resets the profile state for
/// the next cycle either way.
fn finish_awake<O: Observer, F: FaultInjector>(
    config: &OptimizerConfig,
    mode: RunMode,
    st: &mut RunState,
    obs: &mut O,
    faults: &mut F,
) {
    {
        let cost = config.hierarchy.cost;
        if st.online.is_some() {
            // Online backends never profile or analyze: the awake phase
            // boundary just closes an (empty) optimization-cycle record
            // so cycle counting — and the traced-reference
            // reconciliation built on it — stays uniform across
            // backends.
            degraded_cycle(st, obs, 0, 0);
            return;
        }
        if mode.analyzes() && st.bg.is_some() {
            // Concurrent analysis: hand the trace to the worker and
            // keep executing; the result installs at its ready point
            // during hibernation (or starves).
            handoff_analysis(config, st, obs, faults);
            st.buffer.clear();
            st.symbols = SymbolTable::new();
            st.sequitur = Sequitur::new();
            return;
        }
        if mode.analyzes() {
            // Debug builds check every grammar the analysis reads; the
            // check is O(grammar), once per phase.
            #[cfg(debug_assertions)]
            if let Err(e) = st.sequitur.check_invariants() {
                panic!("Sequitur invariant broken at a phase's end: {e}");
            }
            let trace_len = st.sequitur.input_len();
            let grammar = st.sequitur.grammar();
            // Final analysis pass cost: linear in the grammar size.
            let c = cost.analysis_per_ref_cycles * grammar.size() as u64;
            // Degraded cycles skip the final pass entirely: a starved
            // budget (fault injection), a muted grammar (the rule guard
            // tripped mid-phase, so the profile is incomplete), or an
            // over-budget cost projection. Profiling carries over to the
            // next cycle; the skipped pass charges nothing.
            let starved = F::ENABLED && faults.starve_analysis();
            let muted = st
                .guard
                .as_ref()
                .is_some_and(|g| g.is_tripped(GuardKind::GrammarRules));
            let trip = st
                .guard
                .as_mut()
                .and_then(|g| g.observe(GuardKind::AnalysisCycles, c));
            let over_budget = trip.is_some();
            if let Some(t) = trip {
                report_trip(st, obs, t);
            }
            if starved || muted || over_budget {
                degraded_cycle(st, obs, trace_len, grammar.size());
                st.buffer.clear();
                st.symbols = SymbolTable::new();
                st.sequitur = Sequitur::new();
                return;
            }
            st.cycles += c;
            st.breakdown.analysis += c;
            // a = grammar size the pass runs over, b = traced references.
            if O::ENABLED {
                obs.on(&tev::Event::Span(
                    tev::SpanEvent::begin(tev::SpanKind::Analyze, st.cycles)
                        .with_args(grammar.size() as u64, trace_len),
                ));
            }
            let analysis_cfg = config
                .analysis
                .clone()
                .with_heat_percent(trace_len, config.heat_percent);
            let result = fast::analyze(&grammar, &analysis_cfg);
            let mut stats = CycleStats {
                traced_refs: trace_len,
                hot_streams: result.streams.len(),
                grammar_size: grammar.size(),
                ..CycleStats::default()
            };

            if mode.optimizes().is_some() {
                let head_len = config.dfsm.head_len;
                // Hottest-first selection with subsumption/extension
                // dedup and the accuracy policy's denylist — shared
                // with the background worker (`pipeline`).
                let guard = st.guard.as_ref();
                let symbols = &st.symbols;
                let streams = select_streams(
                    result
                        .streams
                        .iter()
                        .map(|s| symbols.resolve_all(&s.symbols)),
                    head_len,
                    config.max_streams,
                    |h| guard.is_some_and(|g| g.is_denylisted(h)),
                );
                stats.streams_used = streams.len();
                if O::ENABLED {
                    // Ids match the DFSM's StreamIds (build preserves
                    // input order), so prefetch events correlate back.
                    for (i, s) in streams.iter().enumerate() {
                        obs.on(&tev::Event::StreamDetected(tev::StreamDetected {
                            opt_cycle: st.cycle_stats.len() as u64,
                            stream_id: i as u32,
                            len: s.len(),
                            head_len,
                        }));
                    }
                }
                if !streams.is_empty() {
                    // a = streams fed to subset construction; the end
                    // boundary's b = resulting state count (0 on failure).
                    if O::ENABLED {
                        obs.on(&tev::Event::Span(
                            tev::SpanEvent::begin(tev::SpanKind::DfsmBuild, st.cycles)
                                .with_args(streams.len() as u64, 0),
                        ));
                    }
                    let built = machine_for(&streams, config);
                    if O::ENABLED {
                        let states = built.as_ref().map_or(0, |d| d.state_count() as u64);
                        obs.on(&tev::Event::Span(
                            tev::SpanEvent::end(tev::SpanKind::DfsmBuild, st.cycles)
                                .with_args(streams.len() as u64, states),
                        ));
                    }
                    match built {
                        Ok(dfsm) => {
                            install_machine(config, st, obs, faults, dfsm, streams, &mut stats);
                        }
                        Err(BuildError::TooManyStates { limit }) => {
                            // Over the state budget: skip injection for
                            // this cycle (the guard only trips when its
                            // own cap, not the crate's, was binding).
                            let trip = st
                                .guard
                                .as_mut()
                                .and_then(|g| g.observe(GuardKind::DfsmStates, limit as u64 + 1));
                            if let Some(t) = trip {
                                report_trip(st, obs, t);
                            }
                        }
                        Err(_) => {}
                    }
                }
            }
            if O::ENABLED {
                obs.on(&tev::Event::CycleEnd(tev::CycleEnd {
                    opt_cycle: st.cycle_stats.len() as u64,
                    at_cycle: st.cycles,
                    traced_refs: stats.traced_refs,
                    hot_streams: stats.hot_streams,
                    streams_used: stats.streams_used,
                    dfsm_states: stats.dfsm_states,
                    dfsm_checks: stats.dfsm_checks,
                    procs_modified: stats.procs_modified,
                    grammar_size: stats.grammar_size,
                }));
            }
            if O::ENABLED {
                obs.on(&tev::Event::Span(
                    tev::SpanEvent::end(tev::SpanKind::Analyze, st.cycles)
                        .with_args(stats.grammar_size as u64, stats.traced_refs),
                ));
            }
            st.cycle_stats.push(stats);
        }
        // Fresh profile for the next cycle: hibernation references are
        // ignored and each cycle analyzes only its own trace (§2.4).
        st.buffer.clear();
        st.symbols = SymbolTable::new();
        st.sequitur = Sequitur::new();
    }
}

/// Installs a built DFSM: stop-the-world image edit (with fault
/// injection), optimize-cost charge, stats/telemetry, and the accuracy
/// tracker's per-installation bookkeeping. Shared by the inline path
/// (at the end of the awake phase) and the background path (at the
/// result's ready point during hibernation).
fn install_machine<O: Observer, F: FaultInjector>(
    config: &OptimizerConfig,
    st: &mut RunState,
    obs: &mut O,
    faults: &mut F,
    dfsm: Dfsm,
    streams: Vec<Vec<DataRef>>,
    stats: &mut CycleStats,
) {
    let cost = config.hierarchy.cost;
    let checks = dfsm.checks_by_pc();
    // a = distinct check sites being patched. The end boundary is
    // emitted on every exit — including the torn mid-edit crash, so
    // exported traces stay well nested; the Crash instant (not a
    // dangling span) names that kill point.
    if O::ENABLED {
        obs.on(&tev::Event::Span(
            tev::SpanEvent::begin(tev::SpanKind::ImageEdit, st.cycles)
                .with_args(checks.len() as u64, 0),
        ));
    }
    let mut edit = st.image.edit();
    for (pc, chain) in &checks {
        if F::ENABLED {
            if let Some(err) = faults.fail_edit(*pc) {
                edit.fail(err);
                continue;
            }
        }
        // Streams come from observed references, so every pc belongs
        // to the image; ignore any that do not (defensive).
        let _ = edit.inject(*pc, chain.len());
    }
    // The mid-edit kill point: the "process" dies partway through the
    // stop-the-world patch. The write-ahead journal records the edit
    // before any patch lands, so the torn image is deterministically
    // rolled forward by `Session::crash_recover` — never half-patched.
    // A *failed* (poisoned) edit rolls back atomically WITHOUT
    // journaling, so a crash landing on an already-failed edit rolls
    // back exactly once.
    let mut tear = None;
    if F::ENABLED && faults.crash(CrashPoint::MidEdit) {
        st.crashed = true;
        tear = Some(checks.len() / 2);
        if O::ENABLED {
            obs.on(&tev::Event::Span(
                tev::SpanEvent::instant(tev::SpanKind::Crash, st.cycles)
                    .with_args(CRASH_MID_EDIT, st.cycle_stats.len() as u64),
            ));
        }
    }
    match edit.commit_journaled(&mut st.journal, tear) {
        Ok(None) => {
            // Torn mid-commit: a prefix of the patches landed and the
            // journal entry is pending. This session is dead; nothing
            // more happens in it (recovery rolls the image forward).
            if O::ENABLED {
                obs.on(&tev::Event::Span(
                    tev::SpanEvent::end(tev::SpanKind::ImageEdit, st.cycles)
                        .with_args(checks.len() as u64, 1),
                ));
            }
            return;
        }
        Ok(Some(report)) => {
            st.cycles += cost.optimize_cycles;
            st.breakdown.optimize += cost.optimize_cycles;
            stats.dfsm_states = dfsm.state_count();
            stats.dfsm_checks = dfsm.address_check_count();
            stats.procs_modified = report.procedures_modified;
            if O::ENABLED {
                obs.on(&tev::Event::DfsmBuilt(tev::DfsmBuilt {
                    opt_cycle: st.cycle_stats.len() as u64,
                    states: stats.dfsm_states,
                    address_checks: stats.dfsm_checks,
                    streams: streams.len(),
                    procs_modified: stats.procs_modified,
                }));
            }
            st.dfsm = Some(dfsm);
            st.dfsm_state = StateId::START;
            if let Some(g) = &mut st.guard {
                g.begin_install(
                    streams
                        .iter()
                        .enumerate()
                        .map(|(i, s)| (i as u32, stream_hash(s))),
                );
            }
            st.installed = streams;
            st.dfsm_rebuild = 1;
        }
        Err(_) => {
            // The edit rolled back atomically: nothing was installed,
            // no optimize cost is charged, and the cycle completes
            // unoptimized.
        }
    }
    if O::ENABLED {
        obs.on(&tev::Event::Span(
            tev::SpanEvent::end(tev::SpanKind::ImageEdit, st.cycles)
                .with_args(checks.len() as u64, 0),
        ));
    }
    // A fault may force a thread switch "during" the stop-the-world
    // edit; it lands at the commit point, so stale activations exercise
    // the epoch discipline.
    if F::ENABLED {
        if let Some(t) = faults.edit_thread_switch(st.frames.len() as u32) {
            let t = t as usize;
            while st.frames.len() <= t {
                st.frames.push(FrameTracker::new());
            }
            st.active_thread = t;
        }
    }
}

/// Completes the current optimization cycle degraded: statistics carry
/// only the trace and grammar sizes, nothing was installed, and nothing
/// beyond what was already charged hits the critical path.
fn degraded_cycle<O: Observer>(
    st: &mut RunState,
    obs: &mut O,
    traced_refs: u64,
    grammar_size: usize,
) {
    let stats = CycleStats {
        traced_refs,
        grammar_size,
        ..CycleStats::default()
    };
    if O::ENABLED {
        obs.on(&tev::Event::CycleEnd(tev::CycleEnd {
            opt_cycle: st.cycle_stats.len() as u64,
            at_cycle: st.cycles,
            traced_refs,
            grammar_size,
            ..tev::CycleEnd::default()
        }));
    }
    st.cycle_stats.push(stats);
}

/// Hands the awake phase's trace to the background worker and computes
/// the deterministic ready point: `handoff_at + analysis_per_ref_cycles
/// × trace_len (+ injected stall)` — the modeled latency of the
/// analysis in simulated time. Wall-clock speed of the worker never
/// affects the simulated run.
fn handoff_analysis<O: Observer, F: FaultInjector>(
    config: &OptimizerConfig,
    st: &mut RunState,
    obs: &mut O,
    faults: &mut F,
) {
    let cost = config.hierarchy.cost;
    let trace_len = st.buffer.refs().len() as u64;
    // Injected analysis starvation fires at the handoff (mirroring the
    // inline path's starved budget): the trace is dropped and the
    // cycle completes degraded. The grammar was never built, so its
    // size reports as zero.
    if F::ENABLED && faults.starve_analysis() {
        degraded_cycle(st, obs, trace_len, 0);
        return;
    }
    let base = cost.analysis_per_ref_cycles * trace_len;
    let extra = if F::ENABLED {
        faults.stall_worker(base)
    } else {
        0
    };
    let denylist = st
        .guard
        .as_ref()
        .map_or_else(Vec::new, GuardRuntime::denylist_hashes);
    let refs = st.buffer.refs().to_vec();
    // The request is kept alongside the ready point so a snapshot can
    // serialize it and a resumed session can re-submit it to a fresh
    // worker (`analyze_trace` is pure, so the outcome is identical).
    let request = AnalyzeRequest { refs, denylist };
    let submitted = st.bg.as_mut().is_some_and(|bg| bg.submit(request.clone()));
    if !submitted {
        // The worker is gone (it panicked): degrade like starvation.
        degraded_cycle(st, obs, trace_len, 0);
        return;
    }
    let Some(bg) = st.bg.as_mut() else { return };
    bg.pending = Some(PendingAnalysis {
        handoff_at: st.cycles,
        ready_at: st.cycles + base + extra,
        request,
    });
    bg.handoffs += 1;
    if O::ENABLED {
        obs.on(&tev::Event::AnalysisHandoff(tev::AnalysisHandoff {
            opt_cycle: st.cycle_stats.len() as u64,
            at_cycle: st.cycles,
            trace_len,
        }));
        // The worker's span lives on its own lane: it begins before the
        // awake phase's successor opens and ends mid-hibernation.
        // a = optimization cycle, b = handed-off trace length.
        obs.on(&tev::Event::Span(
            tev::SpanEvent::begin(tev::SpanKind::BgAnalysis, st.cycles)
                .with_args(st.cycle_stats.len() as u64, trace_len),
        ));
    }
    // The mid-handoff kill point: the process dies after the trace left
    // for the worker but before hibernation began. The pending request
    // dies with the process; the resumed run replays the boundary event
    // and hands off again, deterministically.
    if F::ENABLED && faults.crash(CrashPoint::MidHandoff) {
        st.crashed = true;
        if O::ENABLED {
            obs.on(&tev::Event::Span(
                tev::SpanEvent::instant(tev::SpanKind::Crash, st.cycles)
                    .with_args(CRASH_MID_HANDOFF, st.cycle_stats.len() as u64),
            ));
        }
    }
}

/// Resolves an in-flight background analysis whose ready point has been
/// reached: blocking receive (wall-clock only), worker-lag guard
/// observation, then install — or discard, when the lag guard tripped.
fn poll_background<O: Observer, F: FaultInjector>(
    config: &OptimizerConfig,
    mode: RunMode,
    st: &mut RunState,
    obs: &mut O,
    faults: &mut F,
) {
    let (p, outcome) = {
        let Some(bg) = st.bg.as_mut() else { return };
        let Some(pending) = bg.pending.as_ref() else {
            return;
        };
        if st.cycles < pending.ready_at {
            return;
        }
        let p = bg.pending.take().expect("pending presence checked above");
        (p, bg.recv())
    };
    let lag = st.cycles.saturating_sub(p.handoff_at);
    let trip = st
        .guard
        .as_mut()
        .and_then(|g| g.observe(GuardKind::WorkerLag, lag));
    let lag_tripped = trip.is_some();
    if let Some(t) = trip {
        report_trip(st, obs, t);
    }
    let Some(outcome) = outcome else {
        // The worker died mid-analysis: nothing to install.
        mark_starved(st, obs, p, lag, &AnalyzeOutcome::default());
        return;
    };
    if lag_tripped {
        // Stale result: the worker lagged past its budget, so the
        // hibernation span has too little left to amortize an install.
        mark_starved(st, obs, p, lag, &outcome);
        return;
    }
    apply_outcome(config, mode, st, obs, faults, p, outcome, lag);
}

/// Force-resolves an in-flight background analysis as starved: the
/// hibernation span (or the run) ended before its ready point.
fn starve_background<O: Observer>(st: &mut RunState, obs: &mut O) {
    let (p, outcome) = {
        let Some(bg) = st.bg.as_mut() else { return };
        let Some(p) = bg.pending.take() else { return };
        (p, bg.recv().unwrap_or_default())
    };
    let lag = st.cycles.saturating_sub(p.handoff_at);
    // The lag sample is recorded even on the starvation path, so lag
    // budgets see every resolution.
    let trip = st
        .guard
        .as_mut()
        .and_then(|g| g.observe(GuardKind::WorkerLag, lag));
    if let Some(t) = trip {
        report_trip(st, obs, t);
    }
    mark_starved(st, obs, p, lag, &outcome);
}

/// Accounts one starved analysis: counter, telemetry, and the degraded
/// cycle completion — every handoff produces exactly one cycle record,
/// so traced-reference reconciliation stays exact either way.
fn mark_starved<O: Observer>(
    st: &mut RunState,
    obs: &mut O,
    p: PendingAnalysis,
    lag: u64,
    outcome: &AnalyzeOutcome,
) {
    if let Some(bg) = st.bg.as_mut() {
        bg.starved += 1;
    }
    if O::ENABLED {
        obs.on(&tev::Event::AnalysisStarved(tev::AnalysisStarved {
            opt_cycle: st.cycle_stats.len() as u64,
            handoff_at_cycle: p.handoff_at,
            at_cycle: st.cycles,
            lag_cycles: lag,
        }));
        obs.on(&tev::Event::Span(
            tev::SpanEvent::end(tev::SpanKind::BgAnalysis, st.cycles)
                .with_args(st.cycle_stats.len() as u64, lag),
        ));
    }
    degraded_cycle(st, obs, outcome.trace_len, outcome.grammar_size);
}

/// Installs a background analysis result at its ready point: records
/// the guard observations the worker computed but could not apply (it
/// never touches the runtime), then runs the same selection-already-
/// done install path as the inline implementation.
#[allow(clippy::too_many_arguments)]
fn apply_outcome<O: Observer, F: FaultInjector>(
    config: &OptimizerConfig,
    mode: RunMode,
    st: &mut RunState,
    obs: &mut O,
    faults: &mut F,
    p: PendingAnalysis,
    outcome: AnalyzeOutcome,
    lag: u64,
) {
    if let Some(bg) = st.bg.as_mut() {
        bg.applied += 1;
    }
    if O::ENABLED {
        obs.on(&tev::Event::AnalysisApplied(tev::AnalysisApplied {
            opt_cycle: st.cycle_stats.len() as u64,
            handoff_at_cycle: p.handoff_at,
            at_cycle: st.cycles,
            lag_cycles: lag,
        }));
        obs.on(&tev::Event::Span(
            tev::SpanEvent::end(tev::SpanKind::BgAnalysis, st.cycles)
                .with_args(st.cycle_stats.len() as u64, lag),
        ));
    }
    let trip = st
        .guard
        .as_mut()
        .and_then(|g| g.observe(GuardKind::GrammarRules, outcome.rules_peak));
    if let Some(t) = trip {
        report_trip(st, obs, t);
    }
    if outcome.muted {
        // The rule cap was exceeded mid-trace: the profile is
        // incomplete, exactly like an inline muted cycle.
        degraded_cycle(st, obs, outcome.trace_len, outcome.grammar_size);
        return;
    }
    let mut stats = CycleStats {
        traced_refs: outcome.trace_len,
        hot_streams: outcome.hot_streams,
        grammar_size: outcome.grammar_size,
        ..CycleStats::default()
    };
    if mode.optimizes().is_some() {
        stats.streams_used = outcome.streams.len();
        if O::ENABLED {
            let head_len = config.dfsm.head_len;
            for (i, s) in outcome.streams.iter().enumerate() {
                obs.on(&tev::Event::StreamDetected(tev::StreamDetected {
                    opt_cycle: st.cycle_stats.len() as u64,
                    stream_id: i as u32,
                    len: s.len(),
                    head_len,
                }));
            }
        }
        if let Some(observed) = outcome.dfsm_over_limit {
            let trip = st
                .guard
                .as_mut()
                .and_then(|g| g.observe(GuardKind::DfsmStates, observed));
            if let Some(t) = trip {
                report_trip(st, obs, t);
            }
        }
        if let Some(dfsm) = outcome.dfsm {
            install_machine(config, st, obs, faults, dfsm, outcome.streams, &mut stats);
        }
    }
    if O::ENABLED {
        obs.on(&tev::Event::CycleEnd(tev::CycleEnd {
            opt_cycle: st.cycle_stats.len() as u64,
            at_cycle: st.cycles,
            traced_refs: stats.traced_refs,
            hot_streams: stats.hot_streams,
            streams_used: stats.streams_used,
            dfsm_states: stats.dfsm_states,
            dfsm_checks: stats.dfsm_checks,
            procs_modified: stats.procs_modified,
            grammar_size: stats.grammar_size,
        }));
    }
    st.cycle_stats.push(stats);
}

/// Closes one accuracy-evaluation window (a hibernation-period burst
/// boundary). Streams whose accuracy stayed below threshold for the
/// configured number of windows are *surgically* de-optimized: the
/// matcher is rebuilt over the survivors and a partial image edit
/// removes only the dropped streams' check sites, leaving the
/// well-predicting streams' checks (and their activations' epochs)
/// untouched — a finer-grained form of §3.2's de-optimization.
fn evaluate_accuracy<O: Observer, F: FaultInjector>(
    config: &OptimizerConfig,
    st: &mut RunState,
    obs: &mut O,
    faults: &mut F,
) {
    if !st.guard.as_ref().is_some_and(GuardRuntime::tracks_accuracy) {
        return;
    }
    // Online backends: a bad window surgically disables the offending
    // table rows (the backend-side analogue of dropping a stream) —
    // the guard denylists the row id so it can never re-register, and
    // `drop_tag` clears the row and masks it dead so the backend stops
    // predicting from it. Persistent inaccuracy therefore drives the
    // backend toward inertness — the guard-driven fallback.
    if st.online.is_some() {
        drain_outcomes(st, obs);
        let bad = match &mut st.guard {
            Some(g) => g.evaluate_window(),
            None => return,
        };
        if bad.is_empty() {
            return;
        }
        let bad_ids: Vec<u32> = bad.iter().map(|b| b.stream_id).collect();
        if let Some(b) = st.online.as_mut() {
            for id in &bad_ids {
                b.drop_tag(*id);
            }
        }
        st.partial_deopts += bad.len() as u64;
        if let Some(g) = &mut st.guard {
            for id in &bad_ids {
                g.drop_stream(*id);
            }
        }
        if O::ENABLED {
            for id in &bad_ids {
                obs.on(&tev::Event::Deoptimize(tev::Deoptimize {
                    at_cycle: st.cycles,
                    opt_cycle: st.cycle_stats.len() as u64,
                    partial: true,
                    stream_id: Some(*id),
                }));
            }
        }
        return;
    }
    if st.dfsm.is_none() {
        return;
    }
    // Attribute outcomes resolved since the last access before judging.
    drain_outcomes(st, obs);
    let bad = match &mut st.guard {
        Some(g) => g.evaluate_window(),
        None => return,
    };
    if bad.is_empty() {
        return;
    }
    let cost = config.hierarchy.cost;
    let bad_ids: Vec<u32> = bad.iter().map(|b| b.stream_id).collect();
    let kept: Vec<Vec<DataRef>> = st
        .installed
        .iter()
        .enumerate()
        .filter(|(i, _)| !bad_ids.contains(&(*i as u32)))
        .map(|(_, s)| s.clone())
        .collect();
    let old_checks = match st.dfsm.as_ref() {
        Some(d) => d.checks_by_pc(),
        None => return,
    };

    let rebuilt = if kept.is_empty() {
        None
    } else {
        build_dfsm(&kept, &config.dfsm).ok()
    };
    match rebuilt {
        Some(new_dfsm) => {
            let new_checks = new_dfsm.checks_by_pc();
            let mut edit = st.image.edit_partial();
            for pc in old_checks.keys().filter(|pc| !new_checks.contains_key(*pc)) {
                if F::ENABLED {
                    if let Some(err) = faults.fail_edit(*pc) {
                        edit.fail(err);
                        continue;
                    }
                }
                let _ = edit.remove(*pc);
            }
            for (pc, chain) in &new_checks {
                if !old_checks.contains_key(pc) {
                    let _ = edit.inject(*pc, chain.len());
                }
            }
            match edit.commit() {
                Ok(_) => {
                    // The surgical rebuild is an optimization step: DFSM
                    // construction plus a (partial) binary edit.
                    st.cycles += cost.optimize_cycles;
                    st.breakdown.optimize += cost.optimize_cycles;
                    st.partial_deopts += bad.len() as u64;
                    if let Some(g) = &mut st.guard {
                        for id in &bad_ids {
                            g.drop_stream(*id);
                        }
                        g.begin_install(
                            kept.iter()
                                .enumerate()
                                .map(|(i, s)| (i as u32, stream_hash(s))),
                        );
                    }
                    if O::ENABLED {
                        for id in &bad_ids {
                            obs.on(&tev::Event::Deoptimize(tev::Deoptimize {
                                at_cycle: st.cycles,
                                opt_cycle: st.cycle_stats.len() as u64,
                                partial: true,
                                stream_id: Some(*id),
                            }));
                        }
                    }
                    st.installed = kept;
                    st.dfsm = Some(new_dfsm);
                    st.dfsm_rebuild = 2;
                    // Stream ids were remapped by the rebuild: restart
                    // matching and drop prefetches queued against the
                    // old installation.
                    st.dfsm_state = StateId::START;
                    st.pf_queue.clear();
                }
                Err(_) => {
                    // The partial edit rolled back (e.g. an induced
                    // editor failure): the old installation stays live
                    // and the next window re-evaluates.
                }
            }
        }
        None => {
            // Every installed stream went bad (or the survivor rebuild
            // failed): fall back to the paper's all-or-nothing
            // de-optimization.
            st.image.deoptimize();
            st.dfsm = None;
            st.dfsm_rebuild = 0;
            st.dfsm_state = StateId::START;
            st.pf_queue.clear();
            st.installed.clear();
            if let Some(g) = &mut st.guard {
                for id in &bad_ids {
                    g.drop_stream(*id);
                }
                g.begin_install(std::iter::empty::<(u32, u64)>());
            }
            if O::ENABLED {
                obs.on(&tev::Event::Deoptimize(tev::Deoptimize {
                    at_cycle: st.cycles,
                    opt_cycle: st.cycle_stats.len() as u64,
                    partial: false,
                    stream_id: None,
                }));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SessionBuilder;
    use hds_telemetry::events::{PrefetchFate, PROGRAM_STREAM};
    use hds_telemetry::MetricsRecorder;
    use hds_trace::{AccessKind, Addr, Pc};
    use hds_vulcan::{ProcId, VecSource};

    /// A tiny hand-built program: one procedure looping over one hot
    /// stream with periodic check sites.
    fn looping_program(reps: usize) -> (VecSource, Vec<Procedure>) {
        let pcs: Vec<Pc> = (0..4).map(|i| Pc(16 + i * 4)).collect();
        let stream: Vec<DataRef> = (0..8u64)
            .map(|k| DataRef::new(pcs[(k % 4) as usize], Addr(0x4000 + k * 256)))
            .collect();
        let mut events = Vec::new();
        for _ in 0..reps {
            events.push(Event::Enter(ProcId(0)));
            for (i, &r) in stream.iter().enumerate() {
                if i % 3 == 0 {
                    events.push(Event::BackEdge(ProcId(0)));
                }
                events.push(Event::Work(2));
                events.push(Event::Access(r, AccessKind::Load));
            }
            events.push(Event::Exit(ProcId(0)));
        }
        (
            VecSource::new("loop", events),
            vec![Procedure::new("looper", pcs)],
        )
    }

    fn tiny_config() -> OptimizerConfig {
        let mut c = OptimizerConfig::test_scale();
        c.bursty = hds_bursty::BurstyConfig::new(8, 8, 2, 3);
        c.analysis.min_length = 4;
        c.analysis.min_unique_refs = 2;
        c
    }

    /// One-shot run via the builder (the tests' shorthand).
    fn execute<W: ProgramSource + ?Sized>(
        config: OptimizerConfig,
        mode: RunMode,
        program: &mut W,
        procedures: Vec<Procedure>,
    ) -> RunReport {
        crate::SessionBuilder::new(config)
            .procedures(procedures)
            .mode(mode)
            .run(program)
    }

    /// [`execute`] with an observer attached.
    fn execute_observed<W: ProgramSource + ?Sized, O: Observer>(
        config: OptimizerConfig,
        mode: RunMode,
        program: &mut W,
        procedures: Vec<Procedure>,
        obs: O,
    ) -> RunReport {
        crate::SessionBuilder::new(config)
            .procedures(procedures)
            .observer(obs)
            .mode(mode)
            .run(program)
    }

    /// [`execute`] with an observer and fault injector attached.
    fn execute_faulted<W: ProgramSource + ?Sized, O: Observer, F: FaultInjector>(
        config: OptimizerConfig,
        mode: RunMode,
        program: &mut W,
        procedures: Vec<Procedure>,
        obs: O,
        faults: F,
    ) -> RunReport {
        crate::SessionBuilder::new(config)
            .procedures(procedures)
            .observer(obs)
            .faults(faults)
            .mode(mode)
            .run(program)
    }

    #[test]
    fn baseline_charges_no_check_costs() {
        let (mut p, procs) = looping_program(50);
        let report = execute(tiny_config(), RunMode::Baseline, &mut p, procs);
        assert_eq!(report.breakdown.checks, 0);
        assert_eq!(report.breakdown.recording, 0);
        assert_eq!(report.checks_executed, 0);
        assert!(report.refs >= 400);
        assert!(report.total_cycles > 0);
        assert_eq!(report.mode, "Baseline");
    }

    #[test]
    fn checks_only_adds_exactly_check_cost() {
        let (mut p1, procs1) = looping_program(50);
        let (mut p2, procs2) = looping_program(50);
        let base = execute(tiny_config(), RunMode::Baseline, &mut p1, procs1);
        let checks = execute(tiny_config(), RunMode::ChecksOnly, &mut p2, procs2);
        assert!(checks.checks_executed > 0);
        let expected =
            base.total_cycles + checks.checks_executed * tiny_config().hierarchy.cost.check_cycles;
        assert_eq!(checks.total_cycles, expected);
    }

    #[test]
    fn profile_records_bursts() {
        let (mut p, procs) = looping_program(200);
        let report = execute(tiny_config(), RunMode::Profile, &mut p, procs);
        assert!(report.breakdown.recording > 0, "nothing recorded");
        assert_eq!(report.breakdown.analysis, 0);
        assert!(report.cycles.is_empty());
    }

    #[test]
    fn analyze_detects_the_hot_stream() {
        let (mut p, procs) = looping_program(600);
        let report = execute(tiny_config(), RunMode::Analyze, &mut p, procs);
        assert!(report.breakdown.analysis > 0);
        assert!(!report.cycles.is_empty(), "no analysis cycles completed");
        let found: usize = report.cycles.iter().map(|c| c.hot_streams).sum();
        assert!(found > 0, "hot stream not detected: {:?}", report.cycles);
    }

    #[test]
    fn optimize_injects_and_prefetches() {
        let (mut p, procs) = looping_program(600);
        let report = execute(
            tiny_config(),
            RunMode::Optimize(PrefetchPolicy::StreamTail),
            &mut p,
            procs,
        );
        assert!(report.opt_cycles() >= 1);
        let with_dfsm: Vec<_> = report.cycles.iter().filter(|c| c.dfsm_states > 0).collect();
        assert!(
            !with_dfsm.is_empty(),
            "no DFSM ever built: {:?}",
            report.cycles
        );
        for c in &with_dfsm {
            assert!(c.procs_modified >= 1);
            assert!(c.dfsm_checks >= 1);
        }
        assert!(report.breakdown.matching > 0, "injected checks never ran");
        assert!(report.mem.prefetches_issued > 0, "no prefetches issued");
        assert!(report.breakdown.prefetch > 0);
    }

    #[test]
    fn no_pref_matches_but_never_prefetches() {
        let (mut p, procs) = looping_program(600);
        let report = execute(
            tiny_config(),
            RunMode::Optimize(PrefetchPolicy::None),
            &mut p,
            procs,
        );
        assert!(report.breakdown.matching > 0);
        assert_eq!(report.mem.prefetches_issued, 0);
        assert_eq!(report.breakdown.prefetch, 0);
        assert_eq!(report.mode, "No-pref");
    }

    /// A program with many short hot streams whose combined footprint
    /// exceeds L1 (so stream blocks miss on every revisit), walked in
    /// pseudo-random order (so Sequitur reifies each stream as its own
    /// rule instead of one maximal round-robin unit) — the memory-bound
    /// shape prefetching exists for.
    fn big_stream_program(iterations: usize) -> (VecSource, Vec<Procedure>) {
        let pcs: Vec<Pc> = (0..4).map(|i| Pc(16 + i * 4)).collect();
        // 40 streams x 16 blocks at a 33-block stride: ~20 KB > 16 KB L1.
        let streams: Vec<Vec<DataRef>> = (0..40u64)
            .map(|s| {
                (0..16u64)
                    .map(|k| {
                        let block = 0x2000 + (s * 16 + k) * 33;
                        DataRef::new(pcs[(k % 4) as usize], Addr(block * 32))
                    })
                    .collect()
            })
            .collect();
        let mut events = Vec::new();
        let mut rng_state = 0x12345u64; // xorshift: deterministic
        for _ in 0..iterations {
            rng_state ^= rng_state << 13;
            rng_state ^= rng_state >> 7;
            rng_state ^= rng_state << 17;
            let stream = &streams[(rng_state % 40) as usize];
            events.push(Event::Enter(ProcId(0)));
            for (i, &r) in stream.iter().enumerate() {
                if i % 3 == 0 {
                    events.push(Event::BackEdge(ProcId(0)));
                }
                events.push(Event::Work(2));
                events.push(Event::Access(r, AccessKind::Load));
            }
            events.push(Event::Exit(ProcId(0)));
        }
        (
            VecSource::new("bigloop", events),
            vec![Procedure::new("looper", pcs)],
        )
    }

    #[test]
    fn prefetching_speeds_up_a_stream_heavy_program() {
        // Bursts long enough to span two stream iterations, so Sequitur
        // sees the repetition.
        let mut config = tiny_config();
        config.bursty = hds_bursty::BurstyConfig::new(256, 512, 2, 3);
        let (mut p1, procs1) = big_stream_program(2_000);
        let (mut p2, procs2) = big_stream_program(2_000);
        let nopref = execute(
            config.clone(),
            RunMode::Optimize(PrefetchPolicy::None),
            &mut p1,
            procs1,
        );
        let dynpref = execute(
            config,
            RunMode::Optimize(PrefetchPolicy::StreamTail),
            &mut p2,
            procs2,
        );
        assert!(
            dynpref.mem.prefetches_useful > 0,
            "prefetches were never useful: {}",
            dynpref.mem
        );
        // Same machinery cost, so any win comes from memory cycles — and
        // it must be a real one.
        assert!(
            dynpref.breakdown.memory < nopref.breakdown.memory,
            "no memory-cycle win: {} vs {}",
            dynpref.breakdown.memory,
            nopref.breakdown.memory
        );
    }

    #[test]
    fn deterministic_runs() {
        let run = || {
            let (mut p, procs) = looping_program(300);
            execute(
                tiny_config(),
                RunMode::Optimize(PrefetchPolicy::StreamTail),
                &mut p,
                procs,
            )
            .total_cycles
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn windowed_scheduling_issues_same_prefetch_set() {
        let mut all = tiny_config();
        all.bursty = hds_bursty::BurstyConfig::new(256, 512, 2, 3);
        let mut windowed = all.clone();
        windowed.scheduling = crate::config::PrefetchScheduling::Windowed { degree: 2 };
        let (mut p1, procs1) = big_stream_program(2_000);
        let (mut p2, procs2) = big_stream_program(2_000);
        let a = execute(
            all,
            RunMode::Optimize(PrefetchPolicy::StreamTail),
            &mut p1,
            procs1,
        );
        let b = execute(
            windowed,
            RunMode::Optimize(PrefetchPolicy::StreamTail),
            &mut p2,
            procs2,
        );
        assert!(b.mem.prefetches_issued > 0);
        // Windowed never issues *more* than all-at-once (queued items can
        // be dropped at de-optimization), and both must be useful.
        assert!(b.mem.prefetches_issued <= a.mem.prefetches_issued);
        assert!(b.mem.prefetches_useful > 0);
    }

    #[test]
    fn static_strategy_profiles_once_and_keeps_code() {
        let mut config = tiny_config();
        config.bursty = hds_bursty::BurstyConfig::new(256, 512, 2, 3);
        config.strategy = crate::config::CycleStrategy::Static;
        let (mut p, procs) = big_stream_program(4_000);
        let report = execute(
            config,
            RunMode::Optimize(PrefetchPolicy::StreamTail),
            &mut p,
            procs,
        );
        // Exactly one optimization cycle, ever.
        assert_eq!(report.opt_cycles(), 1, "{:?}", report.cycles);
        // But prefetching keeps running for the rest of the program.
        assert!(report.mem.prefetches_issued > 0);
        // Recording stops after the single awake phase: far less profile
        // cost than a dynamic run of the same length.
        let mut dynamic = tiny_config();
        dynamic.bursty = hds_bursty::BurstyConfig::new(256, 512, 2, 3);
        let (mut p2, procs2) = big_stream_program(4_000);
        let dyn_report = execute(
            dynamic,
            RunMode::Optimize(PrefetchPolicy::StreamTail),
            &mut p2,
            procs2,
        );
        assert!(dyn_report.opt_cycles() > 1);
        assert!(report.breakdown.recording < dyn_report.breakdown.recording);
    }

    #[test]
    fn missing_procedure_metadata_degrades_gracefully() {
        // If the image's procedure list does not cover the hot pcs (an
        // incomplete symbolization), injection silently skips them: no
        // panic, no prefetching, but profiling and analysis still work.
        let (mut p, _full_procs) = looping_program(600);
        let procs = vec![Procedure::new("unrelated", vec![Pc(0xdead)])];
        let report = execute(
            tiny_config(),
            RunMode::Optimize(PrefetchPolicy::StreamTail),
            &mut p,
            procs,
        );
        assert!(report.opt_cycles() >= 1);
        // Streams are detected but nothing can be injected.
        assert!(report.cycles.iter().any(|c| c.hot_streams > 0));
        assert!(report.cycles.iter().all(|c| c.procs_modified == 0));
        assert_eq!(report.mem.prefetches_issued, 0);
    }

    #[test]
    fn threaded_events_keep_per_thread_stacks() {
        // Two threads with deliberately clashing nesting: a single
        // global frame tracker would refuse the interleaved exits.
        use hds_vulcan::{Interleaver, VecSource};
        let t0 = VecSource::new(
            "t0",
            vec![
                Event::Enter(ProcId(0)),
                Event::Work(1),
                Event::Access(DataRef::new(Pc(16), Addr(0x100)), AccessKind::Load),
                Event::Work(1),
                Event::Exit(ProcId(0)),
            ],
        );
        let t1 = VecSource::new(
            "t1",
            vec![
                Event::Enter(ProcId(1)),
                Event::Work(1),
                Event::Access(DataRef::new(Pc(32), Addr(0x200)), AccessKind::Load),
                Event::Work(1),
                Event::Exit(ProcId(1)),
            ],
        );
        let mut program = Interleaver::new(vec![Box::new(t0), Box::new(t1)], 2);
        let procs = vec![
            Procedure::new("p0", vec![Pc(16)]),
            Procedure::new("p1", vec![Pc(32)]),
        ];
        let report = execute(
            tiny_config(),
            RunMode::Optimize(PrefetchPolicy::StreamTail),
            &mut program,
            procs,
        );
        assert_eq!(report.refs, 2);
        assert_eq!(report.name, "interleaved");
    }

    #[test]
    fn malformed_events_stop_the_session_and_name_the_event() {
        let load = Event::Access(DataRef::new(Pc(16), Addr(0x100)), AccessKind::Load);
        let build = || {
            SessionBuilder::new(tiny_config())
                .procedures(vec![Procedure::new("p0", vec![Pc(16)])])
                .optimize(PrefetchPolicy::StreamTail)
                .build()
        };
        let mut s = build();
        for e in [Event::Enter(ProcId(0)), load, Event::Exit(ProcId(1)), load] {
            s.on_event(e);
        }
        let malformed = *s.malformed().expect("mismatched exit refused");
        assert_eq!(malformed.index, 2);
        assert_eq!(s.events_consumed(), 2, "nothing at or after it is consumed");
        assert!(!s.crashed());
        assert_eq!(
            malformed.to_string(),
            "event 2 (Exit(ProcId(1))): exit of proc1 but current frame is proc0"
        );
        assert_eq!(s.finish("bad").refs, 1);

        let mut s = build();
        s.on_event(Event::Thread(MAX_THREADS - 1));
        s.on_event(Event::Thread(MAX_THREADS));
        let malformed = s.malformed().expect("thread past the bound refused");
        assert_eq!(malformed.index, 1);
        assert_eq!(malformed.problem, EventProblem::ThreadOutOfRange);
    }

    #[test]
    fn deopt_happens_each_hibernation_end() {
        let (mut p, procs) = looping_program(2_000);
        let report = execute(
            tiny_config(),
            RunMode::Optimize(PrefetchPolicy::StreamTail),
            &mut p,
            procs,
        );
        // Several full cycles completed.
        assert!(
            report.opt_cycles() >= 2,
            "only {} cycles",
            report.opt_cycles()
        );
    }

    /// Runs the memory-bound program with a `MetricsRecorder` attached
    /// and returns (report, recorder).
    fn observed_run(iterations: usize) -> (RunReport, MetricsRecorder) {
        let mut config = tiny_config();
        config.bursty = hds_bursty::BurstyConfig::new(256, 512, 2, 3);
        let (mut p, procs) = big_stream_program(iterations);
        let mut rec = MetricsRecorder::new();
        let report = execute_observed(
            config,
            RunMode::Optimize(PrefetchPolicy::StreamTail),
            &mut p,
            procs,
            &mut rec,
        );
        (report, rec)
    }

    #[test]
    fn observer_counters_reconcile_with_report() {
        let (report, rec) = observed_run(2_000);
        assert!(report.mem.prefetches_issued > 0);
        assert_eq!(rec.prefetches_issued(), report.mem.prefetches_issued);
        assert_eq!(rec.cycles_completed(), report.cycles.len() as u64);
        assert_eq!(
            rec.traced_refs_total(),
            report.cycles.iter().map(|c| c.traced_refs).sum::<u64>()
        );
        assert_eq!(
            rec.streams_detected(),
            report
                .cycles
                .iter()
                .map(|c| c.streams_used as u64)
                .sum::<u64>()
        );
        // Outcome fates reconcile with MemStats: a late prefetch counts
        // in both `prefetches_late` and `prefetches_useful` there, while
        // each telemetry outcome has exactly one fate.
        assert_eq!(
            rec.outcomes(PrefetchFate::Useful),
            report.mem.prefetches_useful - report.mem.prefetches_late
        );
        assert_eq!(rec.outcomes(PrefetchFate::Late), report.mem.prefetches_late);
        assert_eq!(
            rec.outcomes(PrefetchFate::Polluted),
            report.mem.prefetches_polluting
        );
    }

    #[test]
    fn observer_sees_phase_boundaries_and_duty_cycle() {
        let (report, rec) = observed_run(2_000);
        assert!(rec.phase_transitions_total() >= 2);
        assert!(rec.cycles_started() >= rec.cycles_completed());
        assert!(rec.deopts() >= 1, "dynamic strategy must deoptimize");
        let duty = rec.last_duty_cycle();
        assert!(duty > 0.0 && duty < 1.0, "duty cycle {duty} out of range");
        assert!(report.cycles.len() >= 2);
    }

    #[test]
    fn observation_does_not_perturb_the_run() {
        // The observed run and the default (NullObserver) run must be
        // cycle-for-cycle identical: tagging is timing-neutral and the
        // observer is outside the simulated machine.
        let (observed, _) = observed_run(1_000);
        let mut config = tiny_config();
        config.bursty = hds_bursty::BurstyConfig::new(256, 512, 2, 3);
        let (mut p, procs) = big_stream_program(1_000);
        let plain = execute(
            config,
            RunMode::Optimize(PrefetchPolicy::StreamTail),
            &mut p,
            procs,
        );
        assert_eq!(observed.total_cycles, plain.total_cycles);
        assert_eq!(observed.mem, plain.mem);
        assert_eq!(observed.breakdown, plain.breakdown);
    }

    /// The memory-bound configuration with analysis on the background
    /// worker.
    fn bg_config() -> OptimizerConfig {
        let mut config = tiny_config();
        config.bursty = hds_bursty::BurstyConfig::new(256, 512, 2, 3);
        config.concurrency = AnalysisConcurrency::Background;
        config
    }

    #[test]
    fn background_mode_moves_analysis_off_the_critical_path() {
        let (mut p, procs) = big_stream_program(2_000);
        let bg = execute(
            bg_config(),
            RunMode::Optimize(PrefetchPolicy::StreamTail),
            &mut p,
            procs,
        );
        // The critical path never pays an analysis cycle...
        assert_eq!(bg.breakdown.analysis, 0);
        // ...while an inline run of the same program does.
        let mut inline = bg_config();
        inline.concurrency = AnalysisConcurrency::Inline;
        let (mut p2, procs2) = big_stream_program(2_000);
        let il = execute(
            inline,
            RunMode::Optimize(PrefetchPolicy::StreamTail),
            &mut p2,
            procs2,
        );
        assert!(il.breakdown.analysis > 0);
        assert_eq!(il.worker, crate::report::WorkerStats::default());
        // The worker really cycled: traces handed off, results
        // installed mid-hibernation, prefetching live afterwards.
        assert!(bg.worker.handoffs >= 2, "{:?}", bg.worker);
        assert!(bg.worker.applied >= 1, "{:?}", bg.worker);
        assert_eq!(
            bg.worker.handoffs,
            bg.worker.applied + bg.worker.starved,
            "an in-flight analysis was neither applied nor starved"
        );
        // Every handoff completes exactly one cycle record.
        assert_eq!(bg.cycles.len() as u64, bg.worker.handoffs);
        assert!(bg.mem.prefetches_issued > 0, "no prefetches after apply");
    }

    #[test]
    fn background_runs_are_bit_identical() {
        let run = || {
            let (mut p, procs) = big_stream_program(1_000);
            execute(
                bg_config(),
                RunMode::Optimize(PrefetchPolicy::StreamTail),
                &mut p,
                procs,
            )
        };
        // Full-report equality: real thread scheduling must never leak
        // into the simulated run.
        assert_eq!(run(), run());
    }

    #[test]
    fn background_observation_does_not_perturb_the_run() {
        let (mut p, procs) = big_stream_program(1_000);
        let mut rec = MetricsRecorder::new();
        let observed = execute_observed(
            bg_config(),
            RunMode::Optimize(PrefetchPolicy::StreamTail),
            &mut p,
            procs,
            &mut rec,
        );
        let (mut p2, procs2) = big_stream_program(1_000);
        let plain = execute(
            bg_config(),
            RunMode::Optimize(PrefetchPolicy::StreamTail),
            &mut p2,
            procs2,
        );
        assert_eq!(observed, plain);
    }

    #[test]
    fn background_observer_reconciles_and_populates_worker_lag() {
        let (mut p, procs) = big_stream_program(2_000);
        let mut rec = MetricsRecorder::new();
        let report = execute_observed(
            bg_config(),
            RunMode::Optimize(PrefetchPolicy::StreamTail),
            &mut p,
            procs,
            &mut rec,
        );
        assert_eq!(rec.analysis_handoffs(), report.worker.handoffs);
        assert_eq!(rec.analyses_applied(), report.worker.applied);
        assert_eq!(rec.analyses_starved(), report.worker.starved);
        // One lag sample per resolution, and the phase overlap is real:
        // the histogram is populated with nonzero lags.
        let lag = rec.worker_lag_cycles();
        assert_eq!(lag.count(), report.worker.applied + report.worker.starved);
        assert!(lag.count() > 0, "worker-lag histogram never populated");
        assert_eq!(rec.cycles_completed(), report.cycles.len() as u64);
        assert_eq!(
            rec.traced_refs_total(),
            report.cycles.iter().map(|c| c.traced_refs).sum::<u64>()
        );
    }

    #[test]
    fn background_analyze_mode_detects_streams() {
        let (mut p, procs) = big_stream_program(2_000);
        let report = execute(bg_config(), RunMode::Analyze, &mut p, procs);
        assert_eq!(report.breakdown.analysis, 0);
        assert!(report.worker.applied >= 1);
        let found: usize = report.cycles.iter().map(|c| c.hot_streams).sum();
        assert!(found > 0, "hot stream not detected: {:?}", report.cycles);
    }

    #[test]
    fn slow_worker_fault_starves_without_reconciliation_drift() {
        use hds_guard::{FaultPlan, FaultRates};
        let rates = FaultRates {
            stall_worker: 1_000, // every handoff stalls 1x-8x its latency
            ..FaultRates::quiet()
        };
        let (mut p, procs) = big_stream_program(2_000);
        let mut rec = MetricsRecorder::new();
        let mut plan = FaultPlan::with_rates(7, rates);
        let report = execute_faulted(
            bg_config(),
            RunMode::Optimize(PrefetchPolicy::StreamTail),
            &mut p,
            procs,
            &mut rec,
            &mut plan,
        );
        assert!(plan.counts().stalled_workers > 0, "{:?}", plan.counts());
        assert!(
            report.worker.starved > 0,
            "stalls never starved: {:?}",
            report.worker
        );
        assert_eq!(
            report.worker.handoffs,
            report.worker.applied + report.worker.starved
        );
        assert_eq!(rec.analyses_starved(), report.worker.starved);
        assert_eq!(rec.cycles_completed(), report.cycles.len() as u64);
        assert_eq!(
            rec.traced_refs_total(),
            report.cycles.iter().map(|c| c.traced_refs).sum::<u64>()
        );
    }

    #[test]
    fn worker_lag_guard_discards_every_late_result() {
        let mut config = bg_config();
        // Any lag exceeds this budget, so every resolution is a
        // guard-driven starvation: nothing ever installs.
        config.guard = hds_guard::GuardConfig::disabled().with_max_worker_lag(1);
        let (mut p, procs) = big_stream_program(2_000);
        let report = execute(
            config,
            RunMode::Optimize(PrefetchPolicy::StreamTail),
            &mut p,
            procs,
        );
        assert!(report.worker.handoffs > 0);
        assert_eq!(report.worker.applied, 0);
        assert_eq!(report.worker.starved, report.worker.handoffs);
        assert!(report.guard_trips >= report.worker.starved);
        assert_eq!(report.mem.prefetches_issued, 0);
        assert!(report.cycles.iter().all(|c| c.dfsm_states == 0));
    }

    /// Online backend sessions (Pangloss / Triangel) are deterministic:
    /// two identical runs produce identical reports, and the reports
    /// are labeled with the backend, not the prefetch policy.
    #[test]
    fn online_backends_run_deterministically() {
        for select in [
            hds_backend::BackendSelect::Pangloss(hds_backend::PanglossConfig::default()),
            hds_backend::BackendSelect::Triangel(hds_backend::TriangelConfig::default()),
        ] {
            let mut config = tiny_config();
            config.backend = select;
            let mode = RunMode::Optimize(PrefetchPolicy::StreamTail);
            let (mut p, procs) = big_stream_program(2_000);
            let a = execute(config.clone(), mode, &mut p, procs);
            let (mut p, procs) = big_stream_program(2_000);
            let b = execute(config, mode, &mut p, procs);
            assert_eq!(a, b);
            assert_eq!(a.mode, select.kind().label());
            // The online path never profiles or analyzes.
            assert_eq!(a.breakdown.recording, 0);
            assert_eq!(a.breakdown.analysis, 0);
            assert!(a.cycles.iter().all(|c| c.traced_refs == 0));
        }
    }

    /// An online backend issues prefetches on a repeating miss stream
    /// and its table state survives snapshot/resume bit-identically.
    #[test]
    fn online_backend_snapshot_resumes_bit_identically() {
        for select in [
            hds_backend::BackendSelect::Pangloss(hds_backend::PanglossConfig::default()),
            hds_backend::BackendSelect::Triangel(hds_backend::TriangelConfig::default()),
        ] {
            let mut config = tiny_config();
            config.backend = select;
            let mode = RunMode::Optimize(PrefetchPolicy::StreamTail);

            // Reference: one uninterrupted run.
            let (mut p, procs) = big_stream_program(4_000);
            let mut reference = crate::SessionBuilder::new(config.clone())
                .procedures(procs)
                .mode(mode)
                .build();
            reference.enable_checkpoints();
            let mut events = Vec::new();
            while let Some(e) = p.next_event() {
                events.push(e);
                reference.on_event(e);
            }
            let snap = reference.latest_snapshot().cloned();
            let consumed = reference.events_consumed();
            let ref_report = reference.finish("ref");
            assert!(ref_report.mem.prefetches_issued > 0, "{select:?}");

            // Resume from the last phase-boundary snapshot and replay
            // the tail of the event stream: the final report matches
            // the uninterrupted run exactly.
            let snap = snap.expect("checkpointing session captured a snapshot");
            let (_, procs) = big_stream_program(4_000);
            let state = crate::snapshot::SessionState::from_snapshot(
                &snap,
                config_fingerprint(&config, mode),
            )
            .unwrap();
            let mut resumed = Session::<NullObserver, NoFaults>::resume_from(
                config,
                mode,
                procs,
                &snap,
                NullObserver,
                NoFaults,
            )
            .unwrap();
            assert!(state.online.is_some());
            for e in events.into_iter().skip(state.events_consumed as usize) {
                resumed.on_event(e);
            }
            assert_eq!(resumed.events_consumed(), consumed);
            assert_eq!(resumed.finish("ref"), ref_report, "{select:?}");
        }
    }

    #[test]
    fn per_stream_quality_is_populated() {
        let (_, rec) = observed_run(2_000);
        // At least one real (non-program) stream must have resolved
        // prefetches with computable quality ratios.
        let real: Vec<_> = rec
            .per_stream()
            .iter()
            .filter(|(&id, _)| id != PROGRAM_STREAM)
            .collect();
        assert!(!real.is_empty(), "no per-stream metrics recorded");
        assert!(
            real.iter().any(|(_, m)| m.accuracy() > 0.0),
            "no stream ever had a useful prefetch"
        );
    }
}
